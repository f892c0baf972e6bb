"""Square QAM alphabets built from two orthogonal Gray-labeled PAM axes.

A square constellation of order ``M`` factors into two identical
``L``-point amplitude alphabets with ``L = sqrt(M)``, so one ``PamAxis``
serves both the real and the imaginary part.  The first half of a
symbol's bit label addresses the real axis, the second half the imaginary
axis.  Everything downstream (per-axis priors, slicing, detection) relies
on this split; ``Constellation.split_bit_index`` selects each bit's symbols.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

VALID_ORDERS = (4, 16, 64, 256)


@dataclass(frozen=True)
class PamAxis:
    """One amplitude axis of a square QAM constellation.

    Attributes:
        L: Number of amplitude levels (sqrt of the QAM order).
        points: Amplitudes in strictly descending order, scaled so the
            axis carries half of the unit symbol energy.
        spacing: Distance between adjacent amplitudes (uniform).
        labels: ``(L, q/2)`` array of bits; ``labels[k]`` is the
            binary-reflected Gray label of ``points[k]`` (MSB first), so
            adjacent amplitudes differ in exactly one bit.

    The cached properties are per-axis tables derived once from the axis;
    they live and die with it.  The pair tables are ``(L, L)``, indexed
    ``[k, j]``, and ``below`` is the one mask of which pairs have x[j]
    below x[k]; its transpose selects the pairs with x[j] above.
    """

    L: int
    points: np.ndarray
    spacing: float
    labels: np.ndarray

    @cached_property
    def bit_weights(self) -> np.ndarray:
        """``labels`` as floats, ready to weight bit LLRs."""
        return _frozen(self.labels.astype(float))

    @cached_property
    def pair_midpoints(self) -> np.ndarray:
        """``(L, L)`` half-sums ``(x[k] + x[j]) / 2`` of every amplitude pair."""
        x = self.points
        return _frozen((x[:, None] + x[None, :]) / 2.0)

    @cached_property
    def pair_gaps(self) -> np.ndarray:
        """``(L, L)`` doubled separations ``2 (x[k] - x[j])``, diagonal 1.

        The unit diagonal keeps a division by this table finite; diagonal
        entries never take part in a threshold.
        """
        x = self.points
        gaps = 2.0 * (x[:, None] - x[None, :])
        np.fill_diagonal(gaps, 1.0)
        return _frozen(gaps)

    @cached_property
    def below(self) -> np.ndarray:
        """``(L, L)`` mask of pairs (k, j) with ``j > k``: x[j] below x[k]."""
        return _frozen(np.triu(np.ones((self.L, self.L), dtype=bool), 1))


@dataclass(frozen=True)
class Constellation:
    """Square M-QAM alphabet with per-axis Gray bit labels.

    ``symbols[k]`` carries the bit label ``labels[k]``, which is the
    ``q``-bit binary representation of ``k`` (MSB first).  Bits
    ``0 .. q/2-1`` select the real amplitude, bits ``q/2 .. q-1`` the
    imaginary amplitude.  Both parts take their amplitudes and labels from
    one ``PamAxis``, ``real_axis``.  Average symbol energy is one.
    """

    M: int
    q: int
    real_axis: PamAxis
    symbols: np.ndarray
    labels: np.ndarray

    @cached_property
    def bit_weights(self) -> np.ndarray:
        """``labels`` as floats, ready to weight bit LLRs."""
        return _frozen(self.labels.astype(float))

    @cached_property
    def split_bit_index(self) -> np.ndarray:
        """``(2q, M/2)`` symbol indices: row n lists the symbols with bit n
        set, row q + n those with it clear, each in ascending order.

        This is the package's one selection of the symbols that carry each
        bit.  Every bit is set on exactly half of the labels, so the rows
        have equal length and a per-bit maximum is one gather and one
        reduction along contiguous rows.
        """
        bit_set = self.labels.T == 1
        rows = np.concatenate((bit_set, ~bit_set))
        return _frozen(rows.nonzero()[1].reshape(2 * self.q, self.M // 2))

    @cached_property
    def symbol_index(self) -> np.ndarray:
        """``(L, L)`` symbol indices: ``[a, b]`` is the index of the symbol
        with real amplitude ``points[a]`` and imaginary amplitude
        ``points[b]``, the two axis Gray labels read as the high and low
        halves of its label."""
        half_q = self.q // 2
        code = self.real_axis.labels @ (1 << np.arange(half_q - 1, -1, -1))
        return _frozen((code[:, None] << half_q) | code[None, :])


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def require_valid_order(M) -> int:
    """M as an int; ValueError unless it is an integer of VALID_ORDERS."""
    try:
        order = operator.index(M)
    except TypeError:
        order = None
    if order not in VALID_ORDERS:
        raise ValueError(
            f"constellation order must be one of {VALID_ORDERS}, got {M!r}"
        )
    return order


def _build_axis(M: int) -> PamAxis:
    L = int(round(np.sqrt(M)))
    half_q = (M.bit_length() - 1) // 2
    # Amplitudes {L-1, L-3, ..., -(L-1)} scaled for unit total symbol energy.
    scale = 1.0 / np.sqrt(2.0 * (M - 1) / 3.0)
    points = np.arange(L - 1, -L, -2, dtype=float) * scale
    k = np.arange(L)
    gray = k ^ (k >> 1)
    labels = ((gray[:, None] >> np.arange(half_q - 1, -1, -1)) & 1).astype(np.uint8)
    points.flags.writeable = False
    labels.flags.writeable = False
    return PamAxis(L=L, points=points, spacing=2.0 * scale, labels=labels)


def build_constellation(M: int) -> Constellation:
    """Construct the unit-energy square M-QAM alphabet.

    Args:
        M: Constellation order, one of 4, 16, 64, 256.

    Returns:
        Constellation with symbols enumerated in bit-lexicographic label
        order.

    Raises:
        ValueError: If M is not a supported power of four.
    """
    M = require_valid_order(M)
    q = M.bit_length() - 1
    half_q = q // 2
    axis = _build_axis(M)

    # Symbol k carries label k: its high half_q bits are the Gray label of
    # the real amplitude, its low half_q bits that of the imaginary one.
    k = np.arange(axis.L)
    amplitude_of_label = np.empty(axis.L, dtype=np.intp)
    amplitude_of_label[k ^ (k >> 1)] = k
    index = np.arange(M)
    a = amplitude_of_label[index >> half_q]
    b = amplitude_of_label[index & (axis.L - 1)]
    symbols = axis.points[a] + 1j * axis.points[b]
    labels = np.concatenate((axis.labels[a], axis.labels[b]), axis=1)
    symbols.flags.writeable = False
    labels.flags.writeable = False
    return Constellation(M=M, q=q, real_axis=axis, symbols=symbols, labels=labels)


def bits_to_symbol(c: Constellation, bits) -> complex:
    """Map a length-q bit vector to its constellation symbol."""
    bits = np.asarray(bits).ravel()
    if bits.size != c.q:
        raise ValueError(f"expected {c.q} bits, got {bits.size}")
    index = 0
    for b in bits.tolist():
        if b != 0 and b != 1:
            raise ValueError("bit vector entries must be 0 or 1")
        index = (index << 1) | int(b)
    return complex(c.symbols[index])


def symbol_to_bits(c: Constellation, index: int) -> np.ndarray:
    """Return the bit label of the symbol at the given index."""
    try:
        k = operator.index(index)
    except TypeError:
        raise ValueError(f"symbol index must be an integer, got {index!r}") from None
    if not 0 <= k < c.M:
        raise ValueError(f"symbol index {k} out of range [0, {c.M})")
    return c.labels[k].copy()
