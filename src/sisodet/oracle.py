"""Exhaustive reference detectors for ground-truth comparisons.

Both references enumerate all M**2 symbol pairs directly from the
whitened observation; they share the constellation and labeling with the
fast detector but none of its slicing or projection machinery, which is
what makes agreement between the two paths meaningful.
"""

from __future__ import annotations

import numpy as np

from .channel import WhitenedObservation
from .constellation import Constellation
from .priors import AprioriLLRs, check_llr_shape


def pair_metric_table(
    obs: WhitenedObservation, c: Constellation, llrs: AprioriLLRs
) -> np.ndarray:
    """(M, M) table: joint log-prior minus residual energy per symbol pair.

    Entry [i, j] pairs layer-1 symbol i with layer-2 symbol j.
    """
    check_llr_shape(llrs, c)
    prior1 = c.bit_weights @ llrs.values[0]
    prior2 = c.bit_weights @ llrs.values[1]
    # Antenna axis first, so the energy sums over whole contiguous (M, M)
    # slices instead of a short strided axis.
    r = (
        obs.y[:, None, None]
        - c.symbols[None, :, None] * obs.h1[:, None, None]
        - c.symbols[None, None, :] * obs.h2[:, None, None]
    )
    energy = (np.abs(r) ** 2).sum(axis=0)
    return prior1[:, None] + prior2[None, :] - energy


def brute_force_maxlog(
    obs: WhitenedObservation,
    c: Constellation,
    llrs: AprioriLLRs,
    with_count: bool = False,
):
    """Max-log bit LLRs by exhaustive search over all M**2 symbol pairs.

    Returns the (2, q) LLR array; with ``with_count`` also returns the
    number of joint metrics evaluated (always M**2).
    """
    table = pair_metric_table(obs, c, llrs)
    best_given_1 = table.max(axis=1)
    best_given_2 = table.max(axis=0)
    mask = c.bit_mask
    out = np.empty((2, c.q))
    for row, best in enumerate((best_given_1, best_given_2)):
        stacked = best[:, None]
        out[row] = np.where(mask, stacked, -np.inf).max(axis=0) - np.where(
            mask, -np.inf, stacked
        ).max(axis=0)
    if with_count:
        return out, table.size
    return out


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
    studies (the scaled form is logsumexp(T * metrics) / T).
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    table = temperature * pair_metric_table(obs, c, llrs)
    mask = c.bit_mask
    out = np.empty((2, c.q))
    for n in range(c.q):
        out[0, n] = (
            _logsumexp(table[mask[:, n], :]) - _logsumexp(table[~mask[:, n], :])
        ) / temperature
        out[1, n] = (
            _logsumexp(table[:, mask[:, n]]) - _logsumexp(table[:, ~mask[:, n]])
        ) / temperature
    return out
