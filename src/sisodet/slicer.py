"""Prior-shifted decision regions over one PAM axis.

Maximizing ``logp[k]/gain - (z - x[k])**2`` over the amplitudes ``x[k]``
is a one-dimensional slicing problem: every pair (k, j) defines one
threshold where the two scores cross, and each amplitude wins on an
interval (possibly empty).  With no prior information the thresholds are
the midpoints between neighbors; priors shift each threshold toward the
less likely amplitude.

All crossovers of one table come out of one ``(L, L)`` matrix, built
from per-axis pair tables the ``PamAxis`` holds.  Amplitudes are stored
in descending order, so in row k the columns ``j > k`` are the smaller
amplitudes and ``j < k`` the larger ones.  Amplitude k's interval is
bounded below by its largest crossover with a smaller amplitude and above
by its smallest crossover with a larger one.  When that lower bound comes
from a non-adjacent amplitude ``j*``, every amplitude strictly between k
and ``j*`` can never win: the surviving amplitudes are the chain
``0 -> j*(0) -> j*(j*(0)) -> ...``, and the others are empty.  When
several smaller amplitudes tie for the largest crossover, ``j*`` is the
first of them, the one nearest to k.

The reported threshold count is the number of distinct pairs a walk
along that chain needs: every pair with at least one surviving member,
``L(L-1)/2 - E(E-1)/2`` for ``E`` empty amplitudes.

Slicing follows one rule and reads only the lower bounds: the owner of a
statistic z is the first non-empty amplitude, from the largest down,
whose lower bound z reaches.  The running minimum of ``lower`` from the
largest amplitude down, with the NaN bounds of empty amplitudes skipped,
is sorted by construction, so one binary search per table finds the
owner, even where near-tied crossovers leave two survivors' bounds out of
order by one ulp.

Both stage functions take a stack of tables on a leading axis, so
``detect`` makes one stacked call per stage for a tone's four tables (two
layers times two axes): ``build_regions`` evaluates one ``(4, L, L)``
crossover tensor and checks it once, and ``slice_statistic`` slices four
rows of statistics against the four tables.  A single table is the stack
of one.
"""

from __future__ import annotations

import math

import numpy as np

from .constellation import PamAxis


class DecisionRegions:
    """Interval tables, one per axis: amplitude k wins on [lower_k, upper_k).

    ``lower``, ``upper`` and ``empty`` hold one table of ``L`` amplitudes,
    shape ``(L,)``, or a stack of ``T`` tables, shape ``(T, L)``.
    Amplitudes are indexed as in PamAxis (descending).  The largest
    amplitude has upper = +inf, the smallest lower = -inf.  Empty
    amplitudes carry NaN bounds.  A decision statistic equal to a shared
    threshold belongs to the higher-amplitude side, matching the
    lowest-index tie-break of the score argmax.

    ``boundary_count`` is the number of distinct pairwise thresholds the
    tables depend on, summed over the stack: per table, pairs with at least
    one non-empty amplitude, at most L(L-1)/2.

    Slicing reads only ``lower``, where NaN marks an empty amplitude, so
    tables from ``build_regions`` pass ``upper=None`` with their
    crossovers and reduce ``upper`` from them on its first read.
    """

    def __init__(
        self,
        lower: np.ndarray,
        upper: np.ndarray | None,
        empty: np.ndarray,
        boundary_count: int,
        *,
        _crossovers: tuple[np.ndarray, np.ndarray] | None = None,
    ):
        if upper is None and _crossovers is None:
            raise ValueError("upper bounds are required")
        self.lower = lower
        self.empty = empty
        self.boundary_count = boundary_count
        self._upper = upper
        self._crossovers = _crossovers  # (T, L, L) crossovers and the mask of j < k

    @property
    def upper(self) -> np.ndarray:
        """Upper interval bounds: each amplitude's smallest crossover with a
        larger one, +inf for the largest, NaN when empty."""
        if self._upper is None:
            d, above = self._crossovers
            upper = np.minimum.reduce(d, axis=2, where=above, initial=np.inf)
            upper[self.empty.reshape(upper.shape)] = np.nan
            self._upper = upper.reshape(self.lower.shape)
            self._crossovers = None
        return self._upper

    def __repr__(self) -> str:
        return (
            f"DecisionRegions(lower={self.lower!r}, upper={self.upper!r}, "
            f"empty={self.empty!r}, boundary_count={self.boundary_count!r})"
        )


def _logp_array(logp) -> np.ndarray:
    arr = np.asarray(logp, float)
    if not all(map(math.isfinite, arr.ravel().tolist())):
        raise ValueError("axis log-priors must be finite")
    return arr


def build_regions(pam: PamAxis, logp, gain) -> DecisionRegions:
    """Build the interval tables for one axis, flagging empty regions.

    ``logp`` holds one table's log-priors, shape ``(L,)``, or a stack of
    ``T`` tables, shape ``(T, L)``; ``gain`` is one gain for every table or
    one per table, shape ``(T,)``.  A single table is the stack of one,
    and the result has the leading shape of ``logp``.

    Evaluates the ``(T, L, L)`` crossover tensor in one pass, with the same
    floating expression as ``oracle.pairwise_boundary``, so every
    threshold is bit-identical to a pair-by-pair evaluation.  For each row k,
    ``j*(k)`` is the first column ``j > k`` holding the row's largest
    crossover, so an exact tie goes to the tied partner nearest to k
    (the higher amplitude).  The surviving amplitudes
    are the chain from amplitude 0 through ``j*``; a survivor's lower
    bound is its row maximum over ``j > k`` and its upper bound its row
    minimum over ``j < k`` (empty amplitudes included; they never tighten
    a survivor's interval); the upper bounds are reduced on first read.
    ``boundary_count`` is ``L(L-1)/2 - E(E-1)/2`` for ``E`` empty
    amplitudes, summed over the tables: the crossovers between two empty
    amplitudes are the only ones no bound depends on.
    """
    gains = np.asarray(gain, float)
    for g in gains.ravel().tolist():
        if not g > 0:
            raise ValueError(f"gain must be positive, got {g}")
    lp = _logp_array(logp)
    L = pam.L
    if L < 2:
        raise ValueError("need at least two amplitudes to slice")
    if lp.ndim not in (1, 2) or lp.shape[-1] != L:
        raise ValueError(f"expected {L} log-priors per table, got shape {lp.shape}")
    stack = lp.reshape(-1, L)
    T = stack.shape[0]
    if gains.ndim and (lp.ndim == 1 or gains.shape != (T,)):
        raise ValueError(
            f"expected one gain or {T} gains for log-priors of shape {lp.shape}, "
            f"got gains of shape {gains.shape}"
        )

    d = pam.pair_midpoints - (stack[:, :, None] - stack[:, None, :]) / (
        pam.pair_gaps * gains.reshape(-1, 1, 1)
    )
    below = d + pam.below_bias  # d on j > k, -inf elsewhere, bit for bit
    # Each row's first maximum and its value, gathered by flat index: no
    # crossover is -0.0, so the gathered maximum is the reduced one bit for
    # bit, and the gather costs less than a second pass over the rows.
    j_star = below.argmax(axis=2)
    lower = below.take(j_star + np.arange(0, T * L * L, L).reshape(T, L))  # -inf on last rows
    # A crossover that overflowed or underflowed its divisor to 0 is not
    # finite, and argmax could then send the survivor chain backwards.
    if not all(map(math.isfinite, lower[:, :-1].ravel().tolist())):
        row = int(np.isfinite(lower[:, :-1]).all(axis=1).argmin())
        raise ValueError(
            f"non-finite crossover in the region table (gain {np.broadcast_to(gains, T)[row]})"
        )
    boundary_count = 0
    empty = np.zeros((T, L), dtype=bool)
    for nearest, gone in zip(j_star.tolist(), empty):
        kept = [0]
        while kept[-1] < L - 1:
            kept.append(nearest[kept[-1]])
        E = L - len(kept)
        boundary_count += (L * (L - 1) - E * (E - 1)) // 2
        if E:
            gone[:] = True
            gone[kept] = False
    lower[empty] = np.nan
    return DecisionRegions(
        lower=lower.reshape(lp.shape),
        upper=None,
        empty=empty.reshape(lp.shape),
        boundary_count=boundary_count,
        _crossovers=(d, pam.above),
    )


def slice_statistic(regions: DecisionRegions, z):
    """Amplitude index whose interval contains z.

    The owner of z is the first non-empty amplitude, from the largest
    down, whose lower bound z reaches: the first k with ``lower_k <= z``,
    skipping the NaN bounds of empty amplitudes.  Slicing reads only
    ``lower``.  A z exactly on a threshold goes to the higher amplitude,
    as the lowest-index tie-break of the score argmax does.

    For a single table, z may be a scalar or an array of any shape.  For a
    stack of ``T`` tables, z is a ``(T, M)`` array and row t is sliced
    against table t; the result has the shape of z.

    Raises:
        ValueError: If z is or holds NaN, which has no interval, or a stack
            of tables gets statistics with another number of rows.
    """
    # A sum of squares is NaN exactly when an entry is (a square is never
    # negative, so infinities cannot cancel), and costs less than isnan.
    if math.isnan(np.vdot(z, z)):
        raise ValueError("decision statistic is NaN")
    lower = regions.lower
    L = lower.shape[-1]
    # Running minimum from the largest amplitude down, read from the
    # smallest up: fmin skips NaN, so an empty amplitude takes the bound of
    # the survivor above it, and every row is sorted by construction.  The
    # number of these bounds z reaches counts the amplitudes below its owner.
    bounds = np.fmin.accumulate(lower, axis=-1)[..., -2::-1]
    if lower.ndim == 1:
        result = L - 1 - bounds.searchsorted(z, side="right")
        return int(result) if np.ndim(z) == 0 else result
    if np.ndim(z) != 2 or len(z) != len(bounds):
        raise ValueError(
            f"expected one row of statistics per table ({len(bounds)}), "
            f"got shape {np.shape(z)}"
        )
    return L - 1 - np.array([b.searchsorted(row, side="right") for b, row in zip(bounds, z)])
