"""Reference computations the fast detector is tested against.

None of these runs on the receiver path; the tests, the ``verify`` and
``simulate`` gates and the demos compare the detector with them.

The two exhaustive detectors enumerate all M**2 symbol pairs directly
from the whitened observation; they share the constellation and labeling
(``split_bit_index`` selects each bit's hypotheses in both) with the fast
detector but none of its slicing or projection machinery, which is what
makes agreement between the two paths meaningful.  Every joint metric,
the per-pair reference ``pair_metric_table`` included, is scored in
``_pair_metric_blocks`` by ``priors.pair_metrics``, the kernel ``detect``
scores its candidates with, and ``brute_force_maxlog`` ends in
``priors.llrs_from_metrics``, the LLR stage ``detect`` ends in: the pair
metric and the per-bit reduction belong to the labelling and the
observation, not to the slicing.
The per-candidate references evaluate one projected residual, one
slicing threshold or one slicing decision by its defining formula.
"""

from __future__ import annotations

import numpy as np

from .channel import WhitenedObservation
from .constellation import Constellation, PamAxis
from .priors import (
    AprioriLLRs, finite_log_priors, llrs_from_metrics, pair_metrics, signature_products,
    symbol_log_priors,
)


# Bytes of complex residual one block of the pair-metric table may hold.
# At least 128 KiB, so that M <= 64 with two antennas stays one block.  No
# more: at 256 KiB, M = 256 with two antennas, glibc's allocator returned
# the freed block temporaries to the OS and faulted them back in on every
# block (about 650 minor page faults per tone in ``verify --M 256``).
_BLOCK_BUDGET = 128 * 1024


def _pair_metric_blocks(obs: WhitenedObservation, c: Constellation, llrs: AprioriLLRs):
    """Yield ``(rows, table[rows])`` of the pair-metric table, one block of
    consecutive layer-1 rows at a time.

    A block's residual holds at most ``_BLOCK_BUDGET`` bytes, or one row
    if a row alone is larger.  The signature products are formed once for
    all blocks and each block gathers its pairs from them, so the blocks
    are bit-identical to slices of the whole table whatever their height.
    """
    products = signature_products(obs, c)
    prior = symbol_log_priors(llrs, c)
    index = np.arange(c.M)
    height = max(1, _BLOCK_BUDGET // (16 * obs.y.size * c.M))
    for start in range(0, c.M, height):
        rows = slice(start, start + height)
        yield rows, pair_metrics(obs, products, prior, index[rows, None], index[None, :])


def pair_metric_table(
    obs: WhitenedObservation, c: Constellation, llrs: AprioriLLRs
) -> np.ndarray:
    """(M, M) table: joint log-prior minus residual energy per symbol pair.

    Entry [i, j] pairs layer-1 symbol i with layer-2 symbol j.
    """
    table = np.empty((c.M, c.M))
    for rows, block in _pair_metric_blocks(obs, c, llrs):
        table[rows] = block
    return table


def brute_force_maxlog(
    obs: WhitenedObservation, c: Constellation, llrs: AprioriLLRs
) -> np.ndarray:
    """Max-log bit LLRs by exhaustive search over all M**2 symbol pairs.

    The pair metrics are reduced block by block, to row maxima and a
    running column maximum, so the (M, M) table is never held.  Each
    layer's best metric per symbol then goes through
    ``priors.llrs_from_metrics``, the LLR stage ``detect`` ends in, so the
    two searches differ only in how each symbol's partner is found.
    Returns the (2, q) LLR array.
    """
    best = np.empty((2, c.M))
    best[1] = -np.inf
    for rows, block in _pair_metric_blocks(obs, c, llrs):
        block.max(axis=1, out=best[0, rows])
        # np.maximum propagates NaN as the max over the whole table does.
        np.maximum(best[1], block.max(axis=0), out=best[1])
    return llrs_from_metrics(best, c.split_bit_index)


def _logsumexp(a: np.ndarray) -> float:
    """``log(sum(exp(a)))`` over all entries, shifted by the largest entry
    so that no term overflows and the largest contributes exactly 1."""
    m = a.max()
    return m + np.log(np.exp(a - m).sum())


def log_map(
    obs: WhitenedObservation,
    c: Constellation,
    llrs: AprioriLLRs,
    temperature: float = 1.0,
) -> np.ndarray:
    """Exact a-posteriori bit LLRs via stable log-sum-exp over all pairs.

    Reference only: the max-log outputs are its limit as the metric
    temperature grows, which ``temperature`` exposes for convergence
    studies (the scaled form is logsumexp(T * metrics) / T).  Bit n's set
    and clear hypotheses are the pair table's rows (layer 1) or columns
    (layer 2) that ``split_bit_index`` rows n and q + n select.
    """
    if not 0 < temperature < np.inf:
        raise ValueError(f"temperature must be positive and finite, got {temperature}")
    table = pair_metric_table(obs, c, llrs)
    table *= temperature
    index = c.split_bit_index
    out = np.empty((2, c.q))
    for n, (bit_set, bit_clear) in enumerate(zip(index[: c.q], index[c.q :])):
        out[0, n] = _logsumexp(table[bit_set]) - _logsumexp(table[bit_clear])
        out[1, n] = _logsumexp(table[:, bit_set]) - _logsumexp(table[:, bit_clear])
    return out / temperature


def residual_statistic(obs: WhitenedObservation, layer: int, symbol: complex) -> complex:
    """Partial residual projected onto the other layer's signature.

    Cancels ``symbol`` from the given layer and projects what remains
    onto the other layer, normalized by that layer's gain; slicing the
    real and imaginary parts of the result yields the best partner
    amplitudes.
    """
    if layer == 1:
        h_own, h_other, gain = obs.h1, obs.h2, obs.gain2
    elif layer == 2:
        h_own, h_other, gain = obs.h2, obs.h1, obs.gain1
    else:
        raise ValueError(f"layer must be 1 or 2, got {layer}")
    return complex(np.vdot(h_other, obs.y - h_own * symbol) / gain)


def pairwise_boundary(pam: PamAxis, k: int, j: int, logp, gain: float) -> float:
    """Score crossover between amplitudes k and j; symmetric in (k, j).

    The midpoint of the two amplitudes, shifted against the log-prior
    difference and inversely with the gain and the amplitude separation.
    """
    if k == j:
        raise ValueError("boundary requires two distinct amplitudes")
    if not gain > 0:
        raise ValueError(f"gain must be positive, got {gain}")
    lp = finite_log_priors(logp)
    xk = float(pam.points[k])
    xj = float(pam.points[j])
    return (xk + xj) / 2.0 - (float(lp[k]) - float(lp[j])) / (
        2.0 * (xk - xj) * gain
    )


def argmax_slice_oracle(pam: PamAxis, logp, gain: float, z):
    """Direct argmax of logp[k]/gain - (z - x[k])**2 over all amplitudes.

    Test oracle for the interval table: evaluates every score instead of
    slicing.  Ties go to the lowest index (the higher amplitude), the
    same convention slice_statistic uses at thresholds.  Vectorized over
    z.
    """
    if not gain > 0:
        raise ValueError(f"gain must be positive, got {gain}")
    lp = finite_log_priors(logp)
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    scores = lp[:, None] / gain - (z_arr[None, :] - pam.points[:, None]) ** 2
    result = np.argmax(scores, axis=0)
    return int(result[0]) if np.ndim(z) == 0 else result


def quadratic_norm(x, Q) -> float:
    """Hermitian quadratic form x^H Q x as a nonnegative real.

    The imaginary residue (zero in exact arithmetic for Hermitian Q) must be
    within 1e-10 of the form's own scale ``|x|^2 max|Q_ij|``, with no floor,
    or a ValueError is raised: a high-SNR form is held to a unit one's standard.
    """
    x = np.asarray(x, dtype=complex).ravel()
    Q = np.asarray(Q, dtype=complex)
    if Q.shape != (x.size, x.size):
        raise ValueError(
            f"dimension mismatch: vector of size {x.size}, matrix {Q.shape}"
        )
    value = complex(np.vdot(x, Q @ x))
    scale = np.vdot(x, x).real * np.abs(Q).max(initial=0.0)
    if abs(value.imag) > 1e-10 * scale:
        raise ValueError(f"quadratic form has imaginary residue {value.imag:.3e}")
    return value.real
