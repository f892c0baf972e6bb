"""A-priori bit LLRs and their per-axis log-prior form.

The decoder-side information enters as one LLR per code bit,
``log P(c=1)/P(c=0)``, held by ``AprioriLLRs`` within ``+-L_MAX``.  For
slicing, the LLRs of the bits addressing one PAM axis collapse into one
unnormalized log-prior per amplitude: ``logp[k] = sum_n b[n,k] * llr[n]``.
The two axes of a square constellation are one ``PamAxis``, so one call
gives all four tables of a tone (two layers times two axes).  For
scoring, ``symbol_log_priors`` gives each symbol's log-prior from its
whole label, and ``pair_metrics``, the one pair-metric kernel that
``detect`` and the references in ``sisodet.oracle`` both score with, adds
two of them to minus a pair's residual energy.  ``llrs_from_metrics``, the
one LLR stage of ``detect`` and the exhaustive max-log search, reduces each
layer's per-symbol best metrics to the best with each bit set minus the
best with it clear.  Only differences of these values ever matter, so the
normalization constant is never computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import WhitenedObservation
from .constellation import Constellation, PamAxis

# Bound on every LLR magnitude: it keeps the slicing thresholds finite.
L_MAX = 50.0


@dataclass(frozen=True)
class AprioriLLRs:
    """A-priori LLRs, one row per layer, one column per bit, stored as a
    read-only float copy.

    Raises:
        ValueError: Unless ``values`` is a real (2, q) array within +-L_MAX.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(real_array(self.values, "a-priori LLRs"))
        if arr.ndim != 2 or arr.shape[0] != 2:
            raise ValueError(f"expected a (2, q) LLR array, got shape {arr.shape}")
        bad = [v for v in arr.ravel().tolist() if not -L_MAX <= v <= L_MAX]
        if bad:
            raise ValueError(
                f"a-priori LLRs must be within +-{L_MAX:g}, not NaN, got {bad[0]!r}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)


def clamp(values) -> AprioriLLRs:
    """AprioriLLRs with every magnitude clipped to L_MAX; NaN is rejected."""
    return AprioriLLRs(np.maximum(np.minimum(values, L_MAX), -L_MAX))


def check_llr_shape(llrs: AprioriLLRs, pam: PamAxis) -> None:
    """Raise ValueError unless the LLRs fit the M-QAM whose axis is pam."""
    q = 2 * pam.labels.shape[1]
    if llrs.values.shape[1] != q:
        raise ValueError(
            f"expected a-priori LLRs of shape (2, {q}) for {pam.L * pam.L}-QAM, "
            f"got {llrs.values.shape}"
        )


def uniform_priors(q: int) -> AprioriLLRs:
    """All-zero LLRs: no decoder information."""
    return AprioriLLRs(np.zeros((2, q)))


def axis_log_priors(llrs: AprioriLLRs, pam: PamAxis) -> np.ndarray:
    """Collapse a tone's LLRs into the log-priors of its four tables.

    Returns a read-only ``(4, L)`` array: one row of unnormalized
    amplitude log-priors per table, in the order the LLR bits come in,
    layer 1 real, layer 1 imag, layer 2 real, layer 2 imag.  Bits
    ``0 .. q/2-1`` of a layer address its real axis, bits ``q/2 .. q-1``
    its imaginary axis, and one ``PamAxis`` serves both.  The rows come
    from one stacked product of ``(1, q/2)`` rows, which rounds each row
    as its own one-axis ``bit_weights.dot`` does.

    Raises:
        ValueError: From ``check_llr_shape``, unless each LLR row is twice
            as wide as the axis labels.
    """
    check_llr_shape(llrs, pam)
    half_q = pam.labels.shape[1]
    logp = np.matmul(llrs.values.reshape(4, 1, half_q), pam.bit_weights.T).reshape(4, pam.L)
    logp.flags.writeable = False
    return logp


def symbol_log_priors(llrs: AprioriLLRs, c: Constellation) -> np.ndarray:
    """A tone's ``(2, M)`` symbol log-priors: row l is ``c.bit_weights @
    llrs.values[l]``, the unnormalized log-prior of every symbol of layer l.

    The rows come from one stacked product of ``(1, q)`` rows, which rounds
    each row as its own product does; the 2-D ``llrs.values @
    c.bit_weights.T`` rounds differently and must not replace it.

    Raises:
        ValueError: From ``check_llr_shape``, unless the LLR rows are
            ``q`` wide.
    """
    check_llr_shape(llrs, c.real_axis)
    return np.matmul(llrs.values.reshape(2, 1, c.q), c.bit_weights.T).reshape(2, c.M)


def signature_products(obs: WhitenedObservation, c: Constellation):
    """A tone's ``(N_r, M)`` products ``symbol * h1`` and ``symbol * h2``."""
    return c.symbols * obs.h1[:, None], c.symbols * obs.h2[:, None]


def pair_metrics(obs: WhitenedObservation, products, prior, i1, i2) -> np.ndarray:
    """Joint log-prior minus residual energy of the layer-1 symbols ``i1``
    paired with the layer-2 symbols ``i2``, index arrays that broadcast to
    two dimensions, from the tone's ``signature_products`` and
    ``symbol_log_priors``.  The products are only gathered, as numpy may
    round one formed anew differently, and ``take(..., axis=1)`` keeps the
    antennas outermost, so the energy sums them in order.
    """
    s_h1, s_h2 = products
    r = obs.y[:, None, None] - s_h1.take(i1, axis=1) - s_h2.take(i2, axis=1)
    return prior[0].take(i1) + prior[1].take(i2) - (np.abs(r) ** 2).sum(axis=0)


def llrs_from_metrics(metrics, split_index) -> np.ndarray:
    """Per-bit LLRs: best metric with the bit set minus best with it clear.

    ``metrics`` is a real ``(T, M)`` stack, one row of per-symbol metrics
    per layer; the LLRs are ``(T, q)``.  ``split_index`` is a
    constellation's ``split_bit_index``: ``(2q, M/2)`` symbol indices, the
    symbols with bit n set in row n and those with it clear in row q + n.
    Each best metric is the maximum of one gathered row, so it is exact:
    the same float a scan over all M symbols finds.
    """
    metrics = real_array(metrics, "metrics")
    index = np.asarray(split_index)
    if metrics.ndim != 2 or metrics.shape[1] != 2 * index.shape[1]:
        raise ValueError("one metric per labeled symbol required, in a (T, M) stack")
    q = index.shape[0] // 2
    best = np.maximum.reduce(metrics.take(index, axis=1), axis=2)
    return best[:, :q] - best[:, q:]


def real_array(values, what: str) -> np.ndarray:
    """``values`` as a float array; if complex, a ValueError naming ``what``
    rather than a cast that drops the imaginary part."""
    arr = np.asarray(values)
    if arr.dtype.kind == "c":
        raise ValueError(f"{what} must be real, got complex values")
    return arr.astype(float, copy=False)


def finite_log_priors(logp) -> np.ndarray:
    """``logp`` as a float array; ValueError unless it is real and finite."""
    arr = real_array(logp, "axis log-priors")
    if not all(map(math.isfinite, arr.ravel().tolist())):
        raise ValueError("axis log-priors must be finite")
    return arr


def genie_priors(
    rng: np.random.Generator,
    true_bits,
    mu: float,
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
    if not set(bits.ravel().tolist()) <= {0.0, 1.0}:
        raise ValueError("true bits must be 0 or 1")
    noise = rng.standard_normal(bits.shape) * np.sqrt(2.0 * mu)
    return clamp(mu * (2.0 * bits - 1.0) + noise)
