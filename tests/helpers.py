"""Shared builders for randomized test instances."""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

from sisodet import DecisionRegions
from sisodet.oracle import pair_metric_table
from sisodet.simcli import draw_tone, noise_covariance, sigma2_from_snr_db
from sisodet.slicer import _logp_array


def random_hermitian_pd(rng: np.random.Generator, n: int, ridge: float = 0.1):
    """Well-conditioned random Hermitian positive-definite matrix."""
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return A @ A.conj().T + ridge * np.eye(n)


def random_tone(
    rng: np.random.Generator,
    const,
    n_rx: int = 2,
    n_tx: int = 2,
    snr_db: float = 10.0,
    rho: float = 0.0,
    mu: float = 0.0,
):
    """One random transmission: returns (obs, llrs, bits, channel, y, C)."""
    C = noise_covariance(sigma2_from_snr_db(snr_db), rho, n_rx)
    tone = draw_tone(rng, const, C, mu, n_tx)
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
    mask = c.bit_mask
    out = np.empty((2, c.q))
    for n in range(c.q):
        out[0, n] = (
            logsumexp(table[mask[:, n], :]) - logsumexp(table[~mask[:, n], :])
        ) / temperature
        out[1, n] = (
            logsumexp(table[:, mask[:, n]]) - logsumexp(table[:, ~mask[:, n]])
        ) / temperature
    return out


def build_regions_walk(pam, logp, gain: float) -> DecisionRegions:
    """Pair-by-pair region build: the reference for ``build_regions``.

    Walks the amplitudes from the largest down.  At each surviving
    amplitude the lower threshold is the max crossover with all smaller
    amplitudes (first maximum on ties, by the strict ``>``) and the upper
    threshold the min crossover with all larger ones.  When the binding
    lower crossover comes from a non-adjacent amplitude, the amplitudes in
    between are flagged empty and the walk jumps past them.  Crossovers
    are cached so each pair is evaluated at most once, and
    ``boundary_count`` counts the evaluations.  A ``(T, L)`` stack of
    log-priors, with one gain or ``T`` of them, is walked table by table.
    """
    lp = _logp_array(logp)
    if lp.ndim == 2:
        gains = np.broadcast_to(np.asarray(gain, float), lp.shape[:1])
        tables = [build_regions_walk(pam, row, g) for row, g in zip(lp, gains)]
        return DecisionRegions(
            lower=np.array([t.lower for t in tables]),
            upper=np.array([t.upper for t in tables]),
            empty=np.array([t.empty for t in tables]),
            boundary_count=sum(t.boundary_count for t in tables),
        )
    if gain <= 0:
        raise ValueError(f"gain must be positive, got {gain}")
    L = pam.L
    if lp.size != L:
        raise ValueError(f"expected {L} log-priors, got {lp.size}")

    x = [float(v) for v in pam.points]
    p = [float(v) for v in lp]
    gain = float(gain)
    cache: dict[tuple[int, int], float] = {}

    def crossover(k: int, j: int) -> float:
        # Same floating expression as pairwise_boundary, cached per pair.
        key = (k, j) if k < j else (j, k)
        if key not in cache:
            cache[key] = (x[k] + x[j]) / 2.0 - (p[k] - p[j]) / (2.0 * (x[k] - x[j]) * gain)
        return cache[key]

    lower = np.full(L, np.nan)
    upper = np.full(L, np.nan)
    empty = np.zeros(L, dtype=bool)

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
            lower[k] = best
        else:
            lower[k] = -np.inf
        upper[k] = min(crossover(k, j) for j in range(k)) if k > 0 else np.inf
        if k < L - 1 and j_star > k + 1:
            empty[k + 1 : j_star] = True
            k = j_star
        else:
            k += 1

    return DecisionRegions(
        lower=lower, upper=upper, empty=empty, boundary_count=len(cache)
    )


def table_rows(regions) -> list:
    """Each table of a stack as a single-table ``DecisionRegions``."""
    return [
        DecisionRegions(lower=lo, upper=up, empty=gone, boundary_count=0)
        for lo, up, gone in zip(regions.lower, regions.upper, regions.empty)
    ]
