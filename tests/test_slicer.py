"""Tests for prior-shifted thresholds, region building, and slicing.

The argmax oracle evaluates every amplitude's score directly; the region
builder must agree with it everywhere, including on amplitudes it marks
empty without ever computing their thresholds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sisodet import (
    axis_log_priors,
    build_constellation,
    build_regions,
    clamp,
    slice_statistic,
)
from sisodet.oracle import argmax_slice_oracle, pairwise_boundary
from helpers import build_regions_walk

finite_logp = st.floats(min_value=-60.0, max_value=60.0)


def dense_grid(pam, n=4001):
    lo = pam.points[-1] - 5 * pam.spacing
    hi = pam.points[0] + 5 * pam.spacing
    return np.linspace(lo, hi, n)


@pytest.fixture
def axis16():
    return build_constellation(16).real_axis


@pytest.fixture
def axis64():
    return build_constellation(64).real_axis


class TestPairwiseBoundary:
    def test_zero_priors_midpoints(self, axis16):
        """Without priors every threshold is the amplitude midpoint."""
        zeros = np.zeros(4)
        for k in range(4):
            for j in range(4):
                if k != j:
                    expected = (axis16.points[k] + axis16.points[j]) / 2
                    assert pairwise_boundary(axis16, k, j, zeros, 1.3) == expected

    def test_symmetry_exact(self, axis64):
        """D_kj equals D_jk bit for bit."""
        rng = np.random.default_rng(30)
        for _ in range(200):
            lp = rng.uniform(-50, 50, 8)
            gain = rng.uniform(0.01, 10)
            k, j = rng.choice(8, size=2, replace=False)
            assert pairwise_boundary(axis64, k, j, lp, gain) == pairwise_boundary(
                axis64, j, k, lp, gain
            )

    def test_shift_magnitude_and_direction(self, axis16):
        """A +2 log-prior edge moves the threshold 1/spacing toward the
        less likely neighbor."""
        lp = np.zeros(4)
        lp[1] = 2.0
        boundary = pairwise_boundary(axis16, 1, 2, lp, 1.0)
        midpoint = (axis16.points[1] + axis16.points[2]) / 2
        shift = boundary - midpoint
        np.testing.assert_allclose(shift, -1.0 / axis16.spacing, rtol=1e-12)
        assert shift < 0  # toward the lower-probability amplitude below

    def test_same_index_rejected(self, axis16):
        with pytest.raises(ValueError):
            pairwise_boundary(axis16, 1, 1, np.zeros(4), 1.0)

    def test_nonpositive_gain_rejected(self, axis16):
        with pytest.raises(ValueError):
            pairwise_boundary(axis16, 0, 1, np.zeros(4), 0.0)


class TestBuildRegions:
    def test_zero_priors_midpoint_tiling(self, axis16):
        """Uniform priors give midpoint thresholds and no empty regions."""
        regions = build_regions(axis16, np.zeros(4), 1.0)
        expected = np.array([2.0, 0.0, -2.0]) / np.sqrt(10)
        np.testing.assert_allclose(regions.lower[:3], expected, atol=1e-12)
        np.testing.assert_allclose(regions.upper[1:], expected, atol=1e-12)
        assert regions.upper[0] == np.inf
        assert regions.lower[3] == -np.inf
        assert not regions.empty.any()
        assert regions.boundary_count == 6

    def test_two_amplitudes_never_empty(self):
        pam = build_constellation(4).real_axis
        rng = np.random.default_rng(31)
        for _ in range(100):
            lp = rng.uniform(-50, 50, 2)
            regions = build_regions(pam, lp, rng.uniform(0.01, 10))
            assert not regions.empty.any()
            assert regions.boundary_count == 1
            assert regions.lower[0] == regions.upper[1]

    def test_nonpositive_gain_rejected(self, axis16):
        with pytest.raises(ValueError):
            build_regions(axis16, np.zeros(4), -1.0)

    def test_nonfinite_logp_rejected(self, axis16):
        with pytest.raises(ValueError):
            build_regions(axis16, np.array([0.0, np.inf, 0.0, 0.0]), 1.0)

    def test_boundary_count_ceiling(self, axis64):
        rng = np.random.default_rng(32)
        for _ in range(100):
            lp = rng.uniform(-50, 50, 8)
            regions = build_regions(axis64, lp, rng.uniform(0.05, 5))
            assert regions.boundary_count <= 8 * 7 // 2


class TestPruningOnset:
    """Pruning of the second amplitude under logp = (0, -c, 0, 0)."""

    GAIN = 1.0

    def _oracle_ever_wins(self, pam, c):
        lp = np.array([0.0, -c, 0.0, 0.0])
        winners = argmax_slice_oracle(pam, lp, self.GAIN, dense_grid(pam, 8001))
        return bool(np.any(winners == 1))

    def test_bisection_matches_analysis(self, axis16):
        """The onset found against the argmax oracle sits at spacing^2*gain."""
        lo, hi = 0.0, 5.0
        assert self._oracle_ever_wins(axis16, lo + 1e-9)
        assert not self._oracle_ever_wins(axis16, hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if self._oracle_ever_wins(axis16, mid):
                lo = mid
            else:
                hi = mid
        onset = 0.5 * (lo + hi)
        np.testing.assert_allclose(
            onset, axis16.spacing**2 * self.GAIN, atol=2e-3
        )

    def test_empty_flag_tracks_onset(self, axis16):
        onset = axis16.spacing**2 * self.GAIN
        below = build_regions(
            axis16, np.array([0.0, -(onset * 0.9), 0.0, 0.0]), self.GAIN
        )
        above = build_regions(
            axis16, np.array([0.0, -(onset * 1.1), 0.0, 0.0]), self.GAIN
        )
        assert not below.empty[1]
        assert above.empty[1]
        assert not above.empty[2]

    def test_pruned_amplitude_never_sliced(self, axis16):
        regions = build_regions(axis16, np.array([0.0, -3.0, 0.0, 0.0]), self.GAIN)
        assert regions.empty[1]
        out = slice_statistic(regions, dense_grid(axis16))
        assert not np.any(out == 1)

    def test_double_prune_saves_boundaries(self, axis16):
        """Two skipped amplitudes leave their mutual threshold unevaluated."""
        regions = build_regions(axis16, np.array([0.0, -40.0, -40.0, 0.0]), self.GAIN)
        np.testing.assert_array_equal(regions.empty, [False, True, True, False])
        assert regions.boundary_count == 5  # one pair of the full 6 skipped


class TestSlice:
    def test_nearest_neighbor_without_priors(self, axis16):
        regions = build_regions(axis16, np.zeros(4), 1.0)
        z = 0.5 / np.sqrt(10)
        assert axis16.points[slice_statistic(regions, z)] == axis16.points[1]

    def test_boundary_goes_to_higher_amplitude(self, axis16):
        """A statistic exactly on a threshold picks the larger amplitude."""
        regions = build_regions(axis16, np.zeros(4), 1.0)
        boundary = regions.lower[0]
        assert slice_statistic(regions, boundary) == 0
        oracle = argmax_slice_oracle(axis16, np.zeros(4), 1.0, boundary)
        assert oracle == 0

    def test_matches_oracle_randomized(self, axis64):
        """10^4 random (logp, gain, z) triples agree with the argmax oracle."""
        rng = np.random.default_rng(33)
        for _ in range(200):
            lp = rng.uniform(-50, 50, 8)
            gain = rng.uniform(0.02, 8)
            regions = build_regions(axis64, lp, gain)
            z = rng.uniform(-3, 3, 50)
            np.testing.assert_array_equal(
                slice_statistic(regions, z),
                argmax_slice_oracle(axis64, lp, gain, z),
            )

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        logp=st.lists(finite_logp, min_size=4, max_size=4),
        gain=st.floats(min_value=0.01, max_value=10),
        z=st.floats(min_value=-4, max_value=4),
    )
    def test_matches_oracle_hypothesis(self, logp, gain, z):
        pam = build_constellation(16).real_axis
        regions = build_regions(pam, np.array(logp), gain)
        assert slice_statistic(regions, z) == argmax_slice_oracle(
            pam, np.array(logp), gain, z
        )


class TestNanRejected:
    """NaN fails every ``gain > 0`` and interval test; it used to give NaN
    bounds, or amplitude 0 from the slicer, with no error."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda pam, gain: build_regions(pam, np.zeros(4), gain),
            lambda pam, gain: pairwise_boundary(pam, 0, 1, np.zeros(4), gain),
            lambda pam, gain: argmax_slice_oracle(pam, np.zeros(4), gain, 0.0),
        ],
        ids=["build_regions", "pairwise_boundary", "argmax_slice_oracle"],
    )
    def test_nan_gain(self, axis16, call):
        with pytest.raises(ValueError, match="gain must be positive, got nan"):
            call(axis16, np.nan)

    @pytest.mark.parametrize(
        "z", [np.nan, np.array([np.nan, 0.0]), np.array([0.0, 1e200, np.nan])]
    )
    def test_nan_statistic(self, axis16, z):
        regions = build_regions(axis16, np.zeros(4), 1.0)
        with pytest.raises(ValueError, match="decision statistic is NaN"):
            slice_statistic(regions, z)

    def test_infinite_statistic_still_sliced(self, axis16):
        """Infinite and overflowing statistics are not mistaken for NaN."""
        regions = build_regions(axis16, np.zeros(4), 1.0)
        assert slice_statistic(regions, -np.inf) == 3
        np.testing.assert_array_equal(
            slice_statistic(regions, np.array([np.inf, -np.inf, 1e200, -1e200])),
            [0, 3, 0, 3],
        )


class TestRegionInvariants:
    @pytest.mark.parametrize("M", [4, 16, 64, 256])
    def test_randomized_battery(self, M):
        """Tiling, oracle agreement, and pruning soundness on random axes."""
        pam = build_constellation(M).real_axis
        rng = np.random.default_rng(M)
        grid = dense_grid(pam)
        for _ in range(60):
            lp = rng.uniform(-50, 50, pam.L)
            gain = rng.uniform(0.02, 8)
            regions = build_regions(pam, lp, gain)

            # extremes always own a region
            assert not regions.empty[0]
            assert not regions.empty[-1]

            # surviving intervals tile the line: consecutive survivors
            # share one finite threshold, and bounds strictly order
            keep = np.flatnonzero(~regions.empty)
            for a, b in zip(keep[:-1], keep[1:]):
                assert regions.lower[a] == regions.upper[b]
                assert regions.lower[a] < regions.upper[a]
                assert regions.lower[b] < regions.upper[b]

            # slicing agrees with the direct argmax everywhere
            np.testing.assert_array_equal(
                slice_statistic(regions, grid),
                argmax_slice_oracle(pam, lp, gain, grid),
            )

            # amplitudes flagged empty never win
            winners = set(argmax_slice_oracle(pam, lp, gain, grid).tolist())
            assert winners.isdisjoint(np.flatnonzero(regions.empty).tolist())

    def test_raising_logp_grows_own_interval_only(self, axis16):
        """More prior mass never shrinks the favored interval and never
        grows anyone else's."""
        rng = np.random.default_rng(34)
        for _ in range(100):
            lp = rng.uniform(-10, 10, 4)
            gain = rng.uniform(0.1, 5)
            k = rng.integers(0, 4)
            delta = rng.uniform(0.1, 10)
            bumped = lp.copy()
            bumped[k] += delta
            before = build_regions(axis16, lp, gain)
            after = build_regions(axis16, bumped, gain)

            # the favored amplitude can only widen (or appear)
            if not before.empty[k]:
                assert not after.empty[k]
                assert after.lower[k] <= before.lower[k] + 1e-12
                assert after.upper[k] >= before.upper[k] - 1e-12
            for m in range(4):
                if m == k or after.empty[m]:
                    continue  # vanished intervals shrank by definition
                assert not before.empty[m]  # nobody grows from empty
                assert after.lower[m] >= before.lower[m] - 1e-12
                assert after.upper[m] <= before.upper[m] + 1e-12


class TestWalkReference:
    """``build_regions`` against the pair-by-pair walk, table by table."""

    TABLES_PER_ORDER = 7500

    def _log_priors_and_gain(self, rng, const, i):
        pam = const.real_axis
        log_gain = rng.uniform(-3, 4)
        kind = i % 4
        if kind == 0:
            # integer log-priors in units of gain * spacing^2: many
            # crossovers of one row coincide exactly
            gain = 2.0 ** rng.integers(-2, 3) / pam.spacing**2
            return rng.integers(-6, 7, pam.L).astype(float), gain
        if kind == 1:
            return np.zeros(pam.L), 10.0**log_gain
        if kind == 2:
            # feedback far beyond the clamp: many LLRs sit at +-l_max
            llrs = clamp(rng.normal(0, 150, (2, const.q)))
            layer = int(rng.integers(1, 3))
            return axis_log_priors(llrs, layer, "real", pam), 10.0**log_gain
        return rng.uniform(-50, 50, pam.L), 10.0**log_gain

    @pytest.mark.parametrize("M", [4, 16, 64, 256])
    def test_bit_identical_to_walk(self, M):
        const = build_constellation(M)
        pam = const.real_axis
        L = pam.L
        rng = np.random.default_rng([35, M])
        tied_rows = pruned = 0
        for i in range(self.TABLES_PER_ORDER):
            lp, gain = self._log_priors_and_gain(rng, const, i)
            fast = build_regions(pam, lp, gain)
            walk = build_regions_walk(pam, lp, gain)

            for name in ("lower", "upper", "empty"):
                assert np.array_equal(
                    getattr(fast, name), getattr(walk, name), equal_nan=True
                ), (name, lp, gain)
            assert fast.boundary_count == walk.boundary_count
            E = int(walk.empty.sum())
            assert fast.boundary_count == L * (L - 1) // 2 - E * (E - 1) // 2

            # statistics exactly on every threshold, and around them
            bounds = walk.lower[np.isfinite(walk.lower)]
            z = np.concatenate(
                [bounds, np.nextafter(bounds, np.inf), pam.points, rng.normal(0, 1, 8)]
            )
            assert np.array_equal(slice_statistic(fast, z), slice_statistic(walk, z))

            pruned += E > 0
            tied_rows += self._tied_survivor_rows(pam, lp, gain, walk)
        if L > 2:
            # the battery reaches pruning and exact ties of a binding crossover
            assert pruned > self.TABLES_PER_ORDER // 10
            assert tied_rows > 0
        print(f"M={M}: {pruned} pruned tables, {tied_rows} tied survivor rows")

    @staticmethod
    def _tied_survivor_rows(pam, lp, gain, regions) -> int:
        """Surviving rows whose largest crossover below is attained twice.

        Empty rows carry a NaN bound, which matches nothing.
        """
        x = pam.points
        with np.errstate(divide="ignore", invalid="ignore"):
            d = (x[:, None] + x) / 2.0 - (lp[:, None] - lp) / (
                2.0 * (x[:, None] - x) * gain
            )
        below = np.triu(d == regions.lower[:, None], 1)
        return int(np.sum(below.sum(axis=1) > 1))
