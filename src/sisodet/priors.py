"""A-priori bit LLRs and their per-axis log-prior form.

The decoder-side information enters as one LLR per code bit,
``log P(c=1)/P(c=0)``.  For slicing, the LLRs of the bits addressing one
PAM axis collapse into one unnormalized log-prior per amplitude:
``logp[k] = sum_n b[n,k] * llr[n]``.  The two axes of a square
constellation are one ``PamAxis``, so one call gives all four tables of a
tone (two layers times two axes).  Only differences of these values ever
matter, so the normalization constant is never computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constellation import Constellation, PamAxis

L_MAX_DEFAULT = 50.0


@dataclass(frozen=True)
class AprioriLLRs:
    """Clamped a-priori LLRs, one row per layer, one column per bit."""

    values: np.ndarray


def clamp(values, l_max: float = L_MAX_DEFAULT) -> AprioriLLRs:
    """Build AprioriLLRs, clamping magnitudes to l_max.

    Infinities clamp to +-l_max; NaN is rejected rather than propagated.

    Raises:
        ValueError: If the array is not (2, q), holds NaN, or ``l_max`` is
            not a finite positive number (a negative bound would flip
            every sign, a NaN bound would make every LLR NaN).
    """
    if not 0.0 < l_max < math.inf:
        raise ValueError(f"l_max must be finite and positive, got {l_max!r}")
    arr = np.array(values, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != 2:
        raise ValueError(f"expected a (2, q) LLR array, got shape {arr.shape}")
    np.minimum(arr, l_max, out=arr)
    np.maximum(arr, -l_max, out=arr)
    # Every clamped value is finite unless it was NaN, which both bounds keep.
    if not all(map(math.isfinite, arr.ravel().tolist())):
        raise ValueError("a-priori LLRs contain NaN")
    arr.flags.writeable = False
    return AprioriLLRs(values=arr)


def check_llr_shape(llrs: AprioriLLRs, c: Constellation) -> None:
    """Raise ValueError unless the LLRs carry one (2, q) row per layer for c."""
    if llrs.values.shape != (2, c.q):
        raise ValueError(
            f"expected a-priori LLRs of shape (2, {c.q}) for {c.M}-QAM, "
            f"got {llrs.values.shape}"
        )


def uniform_priors(q: int, l_max: float = L_MAX_DEFAULT) -> AprioriLLRs:
    """All-zero LLRs: no decoder information."""
    return clamp(np.zeros((2, q)), l_max)


def axis_log_priors(llrs: AprioriLLRs, pam: PamAxis) -> np.ndarray:
    """Collapse a tone's LLRs into the log-priors of its four tables.

    Returns a read-only ``(4, L)`` array: one row of unnormalized
    amplitude log-priors per table, in the order the LLR bits come in,
    layer 1 real, layer 1 imag, layer 2 real, layer 2 imag.  Bits
    ``0 .. q/2-1`` of a layer address its real axis, bits ``q/2 .. q-1``
    its imaginary axis, and one ``PamAxis`` serves both.  Each row is its
    own ``bit_weights.dot``, which rounds as the one-axis product does.

    Raises:
        ValueError: Unless there are two LLR rows, each twice as wide as the
            axis labels.
    """
    rows, width = llrs.values.shape
    half_q = pam.labels.shape[1]
    if (rows, width) != (2, 2 * half_q):
        raise ValueError(
            f"{rows} LLR rows of width {width} do not fit a {pam.L}-level axis, "
            f"which needs 2 rows of width {2 * half_q} ({half_q} bits per axis)"
        )
    logp = np.array([pam.bit_weights.dot(bits) for bits in llrs.values.reshape(4, half_q)])
    logp.flags.writeable = False
    return logp


def genie_priors(
    rng: np.random.Generator,
    true_bits,
    mu: float,
    l_max: float = L_MAX_DEFAULT,
) -> AprioriLLRs:
    """Synthetic decoder feedback around the true bits.

    Each LLR is drawn from the consistent Gaussian model
    ``mu * (2c - 1) + N(0, 2 mu)``; ``mu`` is the reliability dial, with
    ``mu = 0`` giving no information and large ``mu`` near-perfect
    feedback.
    """
    if not 0 <= mu < np.inf:
        raise ValueError(f"reliability mu must be finite and nonnegative, got {mu}")
    bits = np.asarray(true_bits, dtype=float)
    if bits.ndim != 2 or bits.shape[0] != 2:
        raise ValueError(f"expected (2, q) true bits, got shape {bits.shape}")
    noise = rng.standard_normal(bits.shape) * np.sqrt(2.0 * mu)
    return clamp(mu * (2.0 * bits - 1.0) + noise, l_max)
