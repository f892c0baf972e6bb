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

The lower bounds are the table, with NaN for an empty amplitude; the
empty flags and the threshold count are read from them.  A walk along the
chain needs the pairs with a survivor, ``L(L-1)/2 - E(E-1)/2`` for ``E`` empty.
The upper bounds, which slicing never reads, come from ``upper_bounds``,
out of the same crossover tensor.

Slicing follows one rule and reads only the lower bounds: the owner of a
statistic z is the first non-empty amplitude, from the largest down,
whose lower bound z reaches.  The running minimum of ``lower`` from the
largest amplitude down, with the NaN bounds of empty amplitudes skipped,
is sorted by construction, so one binary search per table finds the
owner, even where near-tied crossovers leave two survivors' bounds out of
order by one ulp.

Everything here takes one shape: a ``(T, L)`` stack of tables, its
``(T,)`` gains and ``(T, n)`` statistics, real-valued.  ``detect`` makes
one call per stage for a tone's four tables (two layers times two axes):
``build_regions`` evaluates one ``(4, L, L)`` crossover tensor and checks
it once, and ``slice_statistic`` slices four rows of statistics against
the four tables.  A single table is the stack of one, ``(1, L)``.
"""

from __future__ import annotations

import math

import numpy as np

from .constellation import PamAxis
from .priors import finite_log_priors, real_array


class DecisionRegions:
    """A ``(T, L)`` stack of interval tables, held as their lower bounds.

    Row t of ``lower`` is table t, its ``L`` amplitudes indexed as in
    PamAxis (descending).  Amplitude k wins from ``lower_k`` up to the lower
    bound of the survivor above it; the smallest amplitude has lower = -inf
    and an empty one a NaN bound.  A statistic equal to a shared threshold
    belongs to the higher-amplitude side, matching the lowest-index
    tie-break of the score argmax.  ``empty`` and ``boundary_count`` are
    read from the NaNs: no bound depends on a crossover of two empty
    amplitudes, so a table with ``E`` of them depends on
    ``L(L-1)/2 - E(E-1)/2`` distinct thresholds.

    A hand-built table is checked, with named ``ValueError``s: ``lower``
    must be a real ``(T, L)`` array, ``L >= 2``, each row finite or NaN and
    ending in -inf.  ``build_regions``, which checked its crossovers, skips this.
    """

    def __init__(self, lower):
        lower = real_array(lower, "lower bounds")
        if lower.ndim != 2 or lower.shape[1] < 2:
            raise ValueError(f"need (T, L) lower bounds, L >= 2, got {lower.shape}")
        if np.isinf(lower[:, :-1]).any() or not (lower[:, -1] == -np.inf).all():
            raise ValueError("each row of lower bounds must be finite or NaN, then -inf")
        self.lower = lower

    @property
    def empty(self) -> np.ndarray:
        return np.isnan(self.lower)

    @property
    def boundary_count(self) -> int:
        L = self.lower.shape[1]
        E = self.empty.sum(axis=1).tolist()
        return sum(L * (L - 1) - e * (e - 1) for e in E) // 2

    def __repr__(self) -> str:
        return f"DecisionRegions(lower={self.lower!r})"


def _crossover_tables(pam: PamAxis, logp, gains) -> tuple[np.ndarray, np.ndarray]:
    """The checked ``(T, L, L)`` crossover tensor and the ``(T, L)`` lower
    bounds of the ``(T, L)`` log-priors ``logp`` with ``(T,)`` ``gains``.

    Evaluates every crossover in one pass, with the same floating
    expression as ``oracle.pairwise_boundary``, so every threshold is
    bit-identical to a pair-by-pair evaluation.  For each row k, ``j*(k)``
    is the first column ``j > k`` holding the row's largest crossover, so
    an exact tie goes to the tied partner nearest to k (the higher
    amplitude).  The surviving amplitudes are the chain from amplitude 0
    through ``j*``, and the walk along it sets the lower bound of every
    amplitude it skips to NaN; a survivor's lower bound is its row maximum
    over ``j > k``.
    """
    lp = finite_log_priors(logp)
    gains = real_array(gains, "gains")
    L = pam.L
    if L < 2:
        raise ValueError("need at least two amplitudes to slice")
    if lp.ndim != 2 or lp.shape[1] != L:
        raise ValueError(f"expected {L} log-priors per table, (T, {L}), got shape {lp.shape}")
    T = len(lp)
    if gains.shape != (T,):
        raise ValueError(f"expected one gain per table, ({T},), got shape {gains.shape}")
    for g in gains.tolist():
        if not g > 0:
            raise ValueError(f"gain must be positive, got {g}")

    d = pam.pair_midpoints - (lp[:, :, None] - lp[:, None, :]) / (
        pam.pair_gaps * gains[:, None, None]
    )
    below = np.where(pam.below, d, -np.inf)
    # Each row's first maximum and its value, gathered by flat index: no
    # crossover is -0.0, so the gathered maximum is the reduced one bit for
    # bit, and the gather costs less than a second pass over the rows.
    j_star = below.argmax(axis=2)
    lower = below.take(j_star + np.arange(0, T * L * L, L).reshape(T, L))  # -inf on last rows
    # A crossover that overflowed or underflowed its divisor to 0 is not
    # finite, and argmax could then send the survivor chain backwards.
    if not all(map(math.isfinite, lower[:, :-1].ravel().tolist())):
        row = int(np.isfinite(lower[:, :-1]).all(axis=1).argmin())
        raise ValueError(f"non-finite crossover in the region table (gain {gains[row]})")
    # Walk each table's survivor chain; the flat indices it jumps over are empty.
    skipped = []
    for start, nearest in zip(range(0, T * L, L), j_star.tolist()):
        k = 0
        while k < L - 1:
            j = nearest[k]
            if j > k + 1:
                skipped += range(start + k + 1, start + j)
            k = j
    if skipped:
        lower.put(skipped, np.nan)
    return d, lower


def build_regions(pam: PamAxis, logp, gains) -> DecisionRegions:
    """Build ``T`` interval tables for one axis, flagging empty regions.

    ``logp`` holds the tables' log-priors, shape ``(T, L)``, and ``gains``
    one gain per table, shape ``(T,)``; both must be real.  The tables are
    the lower bounds of ``_crossover_tables``, checked there.
    """
    regions = DecisionRegions.__new__(DecisionRegions)  # no second check
    regions.lower = _crossover_tables(pam, logp, gains)[1]
    return regions


def upper_bounds(pam: PamAxis, logp, gains) -> np.ndarray:
    """Upper interval bounds of the tables ``build_regions`` builds.

    Takes the arguments of ``build_regions`` and returns a ``(T, L)``
    array: each amplitude's smallest crossover with a larger one, +inf for
    the largest, and NaN wherever the lower bound is NaN.  Empty
    amplitudes' crossovers take part in the minimum; they never tighten a
    survivor's interval.
    """
    d, lower = _crossover_tables(pam, logp, gains)
    upper = np.minimum.reduce(d, axis=2, where=pam.below.T, initial=np.inf)
    upper[np.isnan(lower)] = np.nan
    return upper


def slice_statistic(regions: DecisionRegions, z) -> np.ndarray:
    """Amplitude index whose interval contains each statistic.

    ``z`` is a real ``(T, n)`` array for a stack of ``T`` tables: row t is
    sliced against table t, and the result has the shape of z.  The owner
    of a statistic is the first non-empty amplitude, from the largest down,
    whose lower bound it reaches: the first k with ``lower_k <= z``,
    skipping the NaN bounds of empty amplitudes.  Slicing reads only
    ``lower``.  A z exactly on a threshold goes to the higher amplitude,
    as the lowest-index tie-break of the score argmax does.

    Raises:
        ValueError: If z is complex, is or holds NaN, which has no
            interval, or is not one row of statistics per table.
    """
    z = real_array(z, "decision statistics")
    # A sum of squares is NaN exactly when an entry is (a square is never
    # negative, so infinities cannot cancel), and costs less than isnan.
    if math.isnan(np.vdot(z, z)):
        raise ValueError("decision statistic is NaN")
    lower = regions.lower
    L = lower.shape[1]
    if z.ndim != 2 or len(z) != len(lower):
        raise ValueError(
            f"expected one row of statistics per table ({len(lower)}), got shape {z.shape}"
        )
    # Running minimum from the largest amplitude down, read from the
    # smallest up: fmin skips NaN, so an empty amplitude takes the bound of
    # the survivor above it, and every row is sorted by construction.  The
    # number of these bounds z reaches counts the amplitudes below its owner.
    bounds = np.fmin.accumulate(lower, axis=1)[:, -2::-1]
    return L - 1 - np.array([b.searchsorted(row, side="right") for b, row in zip(bounds, z)])
