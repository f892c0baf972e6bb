"""Shared builders for randomized test instances."""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

from sisodet import channel
from sisodet.oracle import pair_metric_table
from sisodet.simcli import draw_tone, noise_covariance, sigma2_from_snr_db
from sisodet.priors import finite_log_priors
from sisodet.slicer import DecisionRegions


def random_hermitian_pd(rng: np.random.Generator, n: int, ridge: float = 0.1):
    """Well-conditioned random Hermitian positive-definite matrix."""
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return A @ A.conj().T + ridge * np.eye(n)


def count_cholesky(monkeypatch) -> list:
    """Count the factorizations the channel model makes: each call of
    ``sisodet.channel.cholesky_factor`` appends its matrix to the list."""
    calls = []
    factor = channel.cholesky_factor

    def counted(Q):
        calls.append(Q)
        return factor(Q)

    monkeypatch.setattr(channel, "cholesky_factor", counted)
    return calls


def random_tone(
    rng: np.random.Generator,
    const,
    n_rx: int = 2,
    snr_db: float = 10.0,
    rho: float = 0.0,
    mu: float = 0.0,
):
    """One random transmission: returns (obs, llrs, bits, channel, y, C)."""
    C = noise_covariance(sigma2_from_snr_db(snr_db), rho, n_rx)
    tone = draw_tone(rng, const, channel.NoiseModel(C), mu)
    return tone.obs, tone.llrs, tone.bits, tone.channel, tone.y, C


def pair_metric_table_reference(obs, c, llrs) -> np.ndarray:
    """The oracle's pair table with the antenna axis last: the reference
    for ``oracle.pair_metric_table``."""
    prior1 = c.bit_weights @ llrs.values[0]
    prior2 = c.bit_weights @ llrs.values[1]
    r = (
        obs.y[None, None, :]
        - c.symbols[:, None, None] * obs.h1[None, None, :]
        - c.symbols[None, :, None] * obs.h2[None, None, :]
    )
    energy = np.sum(np.abs(r) ** 2, axis=2)
    return prior1[:, None] + prior2[None, :] - energy


def log_map_reference(obs, c, llrs, temperature: float = 1.0) -> np.ndarray:
    """``log_map`` through scipy's ``logsumexp``: the reference for the
    package's numpy-only log-sum-exp."""
    table = temperature * pair_metric_table(obs, c, llrs)
    mask = c.labels == 1
    out = np.empty((2, c.q))
    for n in range(c.q):
        out[0, n] = (
            logsumexp(table[mask[:, n], :]) - logsumexp(table[~mask[:, n], :])
        ) / temperature
        out[1, n] = (
            logsumexp(table[:, mask[:, n]]) - logsumexp(table[:, ~mask[:, n]])
        ) / temperature
    return out


class WalkedRegions(DecisionRegions):
    """A walked table: its lower bounds, checked as a hand-built table, with
    the upper bounds the walk found beside them, the reference for
    ``slicer.upper_bounds``."""

    def __init__(self, lower, upper):
        super().__init__(lower)
        self.upper = np.asarray(upper, float)


def build_regions_walk(pam, logp, gains) -> WalkedRegions:
    """Pair-by-pair region build: the reference for ``build_regions`` and
    ``upper_bounds``.

    Walks each table of the ``(T, L)`` log-priors, with its gain of the
    ``(T,)`` gains, from the largest amplitude down.  At each surviving
    amplitude the lower threshold is the max crossover with all smaller
    amplitudes (first maximum on ties, by the strict ``>``) and the upper
    threshold the min crossover with all larger ones.  When the binding
    lower crossover comes from a non-adjacent amplitude, the amplitudes in
    between keep NaN bounds and the walk jumps past them.  Crossovers
    are cached so each pair of a table is evaluated at most once, and the
    number of evaluations must equal the table's ``boundary_count``, which
    is read from the NaNs.
    """
    lp = finite_log_priors(logp)
    gains = np.asarray(gains, float)
    L = pam.L
    if lp.ndim != 2 or lp.shape[1] != L or gains.shape != lp.shape[:1]:
        raise ValueError(
            f"expected (T, {L}) log-priors and (T,) gains, got {lp.shape} and {gains.shape}"
        )

    x = [float(v) for v in pam.points]
    lower = np.full(lp.shape, np.nan)
    upper = np.full(lp.shape, np.nan)
    for t, (p, gain) in enumerate(zip(lp.tolist(), gains.tolist())):
        if gain <= 0:
            raise ValueError(f"gain must be positive, got {gain}")
        cache: dict[tuple[int, int], float] = {}

        def crossover(k: int, j: int) -> float:
            # Same floating expression as pairwise_boundary, cached per pair.
            key = (k, j) if k < j else (j, k)
            if key not in cache:
                cache[key] = (x[k] + x[j]) / 2.0 - (p[k] - p[j]) / (2.0 * (x[k] - x[j]) * gain)
            return cache[key]

        k = 0
        while k <= L - 1:
            j_star = k + 1
            if k < L - 1:
                best = crossover(k, k + 1)
                for j in range(k + 2, L):
                    d = crossover(k, j)
                    if d > best:
                        best = d
                        j_star = j
                lower[t, k] = best
            else:
                lower[t, k] = -np.inf
            upper[t, k] = min(crossover(k, j) for j in range(k)) if k > 0 else np.inf
            k = j_star  # the amplitudes in between keep NaN bounds: empty

        # the evaluated pairs, counted independently of the NaNs
        count = DecisionRegions(lower[t:t + 1]).boundary_count
        assert len(cache) == count, (len(cache), count)
    return WalkedRegions(lower=lower, upper=upper)
