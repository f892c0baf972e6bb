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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constellation import PamAxis


@dataclass
class DecisionRegions:
    """Interval table for one axis: amplitude k wins on [lower_k, upper_k).

    Amplitudes are indexed as in PamAxis (descending).  The largest
    amplitude has upper = +inf, the smallest lower = -inf.  Empty
    amplitudes carry NaN bounds.  A decision statistic equal to a shared
    threshold belongs to the higher-amplitude side, matching the
    lowest-index tie-break of the score argmax.

    ``boundary_count`` is the number of distinct pairwise thresholds the
    table depends on: pairs with at least one non-empty amplitude, at most
    L(L-1)/2.

    ``_owners`` holds the surviving amplitudes in ascending order and
    ``_ascending_bounds`` the lower thresholds of all but the smallest
    (-inf) of them, ready for searchsorted.  Both are derived from
    ``empty`` and ``lower`` unless given; ``build_regions`` passes them
    when no amplitude is empty, as the axis's cached ``descending`` index
    and the reversed view ``lower[-2::-1]``.
    """

    lower: np.ndarray
    upper: np.ndarray
    empty: np.ndarray
    boundary_count: int
    _owners: np.ndarray | None = field(default=None, repr=False, kw_only=True)
    _ascending_bounds: np.ndarray | None = field(default=None, repr=False, kw_only=True)

    def __post_init__(self):
        if self._owners is None:
            self._owners = (~self.empty).nonzero()[0][::-1]
            self._ascending_bounds = self.lower[self._owners[1:]]


def _logp_array(logp) -> np.ndarray:
    arr = np.asarray(logp, float)
    if not all(map(math.isfinite, arr.ravel().tolist())):
        raise ValueError("axis log-priors must be finite")
    return arr


def build_regions(pam: PamAxis, logp, gain: float) -> DecisionRegions:
    """Build the interval table for one axis, flagging empty regions.

    Evaluates the ``(L, L)`` crossover matrix in one pass, with the same
    floating expression as ``oracle.pairwise_boundary``, so every
    threshold is bit-identical to a pair-by-pair evaluation.  For each row k,
    ``j*(k)`` is the first column ``j > k`` holding the row's largest
    crossover, so an exact tie goes to the tied partner nearest to k
    (the higher amplitude).  The surviving amplitudes
    are the chain from amplitude 0 through ``j*``; a survivor's lower
    bound is its row maximum over ``j > k`` and its upper bound its row
    minimum over ``j < k`` (empty amplitudes included; they never tighten
    a survivor's interval).  ``boundary_count`` is ``L(L-1)/2 - E(E-1)/2``
    for ``E`` empty amplitudes: the crossovers between two empty
    amplitudes are the only ones no bound depends on.
    """
    if not gain > 0:
        raise ValueError(f"gain must be positive, got {gain}")
    lp = _logp_array(logp)
    L = pam.L
    if L < 2:
        raise ValueError("need at least two amplitudes to slice")
    if lp.size != L:
        raise ValueError(f"expected {L} log-priors, got {lp.size}")

    d = pam.pair_midpoints - (lp[:, None] - lp) / (pam.pair_gaps * float(gain))
    below = d + pam.below_bias  # d on j > k, -inf elsewhere, bit for bit
    lower = np.maximum.reduce(below, axis=1)  # -inf on the last row
    upper = np.minimum.reduce(d, axis=1, where=pam.above, initial=np.inf)  # +inf on row 0
    j_star = below.argmax(axis=1).tolist()

    survivors = [0]
    while survivors[-1] < L - 1:
        survivors.append(j_star[survivors[-1]])
    E = L - len(survivors)
    if not E:  # most tables empty nothing and skip the owner search
        return DecisionRegions(
            lower=lower,
            upper=upper,
            empty=np.zeros(L, dtype=bool),
            boundary_count=L * (L - 1) // 2,
            _owners=pam.descending,
            _ascending_bounds=lower[-2::-1],
        )
    empty = np.ones(L, dtype=bool)
    empty[survivors] = False
    lower[empty] = upper[empty] = np.nan
    return DecisionRegions(
        lower=lower,
        upper=upper,
        empty=empty,
        boundary_count=(L * (L - 1) - E * (E - 1)) // 2,
    )


def slice_statistic(regions: DecisionRegions, z):
    """Amplitude index whose interval contains z (vectorized over z).

    Equivalent to the score argmax over all amplitudes; a z exactly on a
    shared threshold goes to the higher-amplitude side.

    Raises:
        ValueError: If z is or holds NaN, which has no interval.
    """
    # A sum of squares is NaN exactly when an entry is (a square is never
    # negative, so infinities cannot cancel), and costs less than isnan.
    if math.isnan(np.vdot(z, z)):
        raise ValueError("decision statistic is NaN")
    result = regions._owners[regions._ascending_bounds.searchsorted(z, side="right")]
    return int(result) if np.ndim(z) == 0 else result
