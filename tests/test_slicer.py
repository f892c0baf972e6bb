"""Tests for prior-shifted thresholds, region building, and slicing.

The argmax oracle evaluates every amplitude's score directly; the region
builder must agree with it everywhere, including on amplitudes it marks
empty without ever computing their thresholds.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sisodet
from sisodet import (
    DecisionRegions,
    axis_log_priors,
    build_constellation,
    build_regions,
    clamp,
    slice_statistic,
)
from sisodet.oracle import argmax_slice_oracle, pairwise_boundary
from helpers import build_regions_walk, table_rows

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

    def test_nonfinite_crossover_rejected_not_hung(self):
        """A gain small enough to underflow a crossover's divisor to 0 once
        sent the survivor chain backwards forever.  The call runs in a child
        process, so a hang fails the test instead of stalling the suite."""
        code = (
            "from sisodet import build_constellation, build_regions\n"
            "try:\n"
            "    build_regions(build_constellation(16).real_axis, [0, 1, 0, 0], 5e-324)\n"
            "except ValueError as err:\n"
            "    print(err)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(sisodet.__file__).resolve().parents[1]))
        child = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30
        )
        assert child.returncode == 0
        assert child.stdout.startswith("non-finite crossover")

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


class TestSlicingRule:
    """The owner of z is the first non-empty amplitude, from the largest
    down, whose lower bound z reaches, whatever else is sliced with z."""

    @staticmethod
    def _rule(lower, empty, z) -> int:
        return next(k for k in range(len(lower)) if not empty[k] and lower[k] <= z)

    def test_one_ulp_window_has_one_owner(self, axis16):
        """Near-tied crossovers put amplitude 1's lower bound one ulp above
        amplitude 0's, with nothing empty.  A z in that window once got an
        owner that depended on the other statistics in its array.

        The rounded score argmax gives 2 at z = lower[0]; the slice follows
        the table's own intervals instead, far inside the 1e-6 gate.
        """
        logp = [0.0, 0.0, 1.0, -2.0]
        regions = build_regions(axis16, logp, np.nextafter(1.25, 0))
        lower = regions.lower
        assert not regions.empty.any()
        # two ulps below lower[0] up to two ulps above lower[1]
        z = lower[0] + np.arange(-2, 4) * np.spacing(lower[0])
        assert z[3] == lower[1]
        expected = np.array([2, 2, 0, 0, 0, 0])

        assert [slice_statistic(regions, v) for v in z] == expected.tolist()
        assert slice_statistic(regions, lower[0]) == 0
        assert np.array_equal(slice_statistic(regions, z), expected)
        assert np.array_equal(slice_statistic(regions, z[::-1]), expected[::-1])
        order = np.random.default_rng(39).permutation(z.size)
        assert np.array_equal(slice_statistic(regions, z[order]), expected[order])
        stack = build_regions(
            axis16,
            [[0.0, 0.0, 0.0, 0.0], [0.0, -3.0, 0.0, 0.0], logp, [2.0, 0.0, 0.0, -1.0]],
            [1.0, 1.0, np.nextafter(1.25, 0), 0.5],
        )
        assert np.array_equal(slice_statistic(stack, np.tile(z, (4, 1)))[2], expected)

    TABLES_PER_ORDER = 20000

    @pytest.mark.parametrize("M", [16, 64, 256])
    def test_tied_gain_battery(self, M):
        """Integer log-priors with gains 2^k / spacing^2, as is or one ulp
        off: many crossovers tie, and some survivors' lower bounds come out
        of order by one ulp.  Statistics on every bound and one ulp on each
        side slice by the rule, as scalars and as rows of a stack."""
        pam = build_constellation(M).real_axis
        L = pam.L
        rng = np.random.default_rng([39, M])
        unsorted = 0
        for _ in range(self.TABLES_PER_ORDER // 500):
            logp = rng.integers(-3, 4, (500, L)).astype(float)
            gains = 2.0 ** rng.integers(-4, 5, 500) / pam.spacing**2
            nudge = rng.integers(-1, 2, 500)
            gains = np.nextafter(gains, gains + nudge)  # one ulp down, as is or up
            stack = build_regions(pam, logp, gains)

            bounds = np.where(stack.empty, 0.0, stack.lower)[:, :-1]
            z = np.concatenate(
                [bounds, np.nextafter(bounds, -np.inf), np.nextafter(bounds, np.inf)], axis=1
            )
            expected = np.array([
                [self._rule(lower, empty, v) for v in row]
                for lower, empty, row in zip(stack.lower.tolist(), stack.empty.tolist(), z.tolist())
            ])
            assert np.array_equal(slice_statistic(stack, z), expected)
            assert np.array_equal(slice_statistic(stack, z[:, ::-1]), expected[:, ::-1])
            for table, row, owners in zip(table_rows(stack), z, expected):
                assert [slice_statistic(table, v) for v in row] == owners.tolist()

            unsorted += sum(
                bool(np.any(np.diff(lower[~empty]) > 0))
                for lower, empty in zip(stack.lower, stack.empty)
            )
        assert unsorted > 0  # the battery reaches out-of-order survivor bounds
        print(f"M={M}: {unsorted} tables with out-of-order survivor bounds")


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


class TestStackedTables:
    """A ``(T, L)`` stack of tables is T single-table calls, bit for bit."""

    STACKS_PER_ORDER = 300

    @pytest.mark.parametrize("M", [4, 16, 64, 256])
    def test_stack_equals_row_calls(self, M):
        const = build_constellation(M)
        pam = const.real_axis
        rng = np.random.default_rng([37, M])
        walk_battery = TestWalkReference()
        pruned = 0
        for i in range(self.STACKS_PER_ORDER):
            T = 1 + i % 6
            # the walk battery's four kinds of tables, mixed within a stack
            tables = [
                walk_battery._log_priors_and_gain(rng, const, int(k))
                for k in rng.integers(0, 4, T)
            ]
            lp = np.array([t[0] for t in tables])
            gains = np.array([t[1] for t in tables])
            stacked = build_regions(pam, lp, gains)
            rows = [build_regions(pam, row, g) for row, g in zip(lp, gains)]
            for name in ("lower", "upper", "empty"):
                expected = np.array([getattr(r, name) for r in rows])
                assert getattr(stacked, name).tobytes() == expected.tobytes(), name
            assert stacked.boundary_count == sum(r.boundary_count for r in rows)

            # statistics exactly on every threshold of the row's table, one
            # ulp above, on the amplitudes and at random
            z = np.empty((T, 3 * pam.L + 4))
            for t, r in enumerate(rows):
                bounds = np.where(r.empty, 0.0, r.lower)[:-1]
                z[t] = np.concatenate(
                    [bounds, np.nextafter(bounds, np.inf), pam.points, rng.normal(0, 1, 6)]
                )
            sliced = slice_statistic(stacked, z)
            expected = np.array([slice_statistic(r, zt) for r, zt in zip(rows, z)])
            assert sliced.tobytes() == expected.tobytes()
            # a stack rebuilt from its tables (the derived slicing tables) agrees
            rebuilt = DecisionRegions(
                lower=stacked.lower,
                upper=stacked.upper,
                empty=stacked.empty,
                boundary_count=stacked.boundary_count,
            )
            assert slice_statistic(rebuilt, z).tobytes() == expected.tobytes()
            assert all(
                slice_statistic(r, zt).tobytes() == e.tobytes()
                for r, zt, e in zip(table_rows(stacked), z, expected)
            )
            pruned += int(stacked.empty.any(axis=1).sum())
        if pam.L > 2:
            assert pruned > self.STACKS_PER_ORDER // 10
        print(f"M={M}: {pruned} pruned tables in {self.STACKS_PER_ORDER} stacks")

    def test_single_table_is_stack_of_one(self, axis16):
        rng = np.random.default_rng(38)
        for _ in range(50):
            lp = rng.uniform(-50, 50, 4)
            gain = rng.uniform(0.02, 8)
            single = build_regions(axis16, lp, gain)
            stacked = build_regions(axis16, lp[None], [gain])
            assert single.lower.shape == (4,) and stacked.lower.shape == (1, 4)
            for name in ("lower", "upper", "empty"):
                assert getattr(single, name).tobytes() == getattr(stacked, name)[0].tobytes()
            assert single.boundary_count == stacked.boundary_count
            z = rng.normal(0, 1, 20)
            assert np.array_equal(slice_statistic(single, z), slice_statistic(stacked, z[None])[0])

    def test_one_gain_for_every_table(self, axis16):
        lp = np.array([[0.0, -3.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
        shared = build_regions(axis16, lp, 1.5)
        each = build_regions(axis16, lp, [1.5, 1.5])
        for name in ("lower", "upper", "empty"):
            assert getattr(shared, name).tobytes() == getattr(each, name).tobytes()
        assert shared.boundary_count == each.boundary_count == 12


class TestStackedErrors:
    """Named errors for one bad row of a stack and for mismatched shapes."""

    def test_nan_gain_in_one_row(self, axis16):
        with pytest.raises(ValueError, match="gain must be positive, got nan"):
            build_regions(axis16, np.zeros((4, 4)), [1.0, 1.0, np.nan, 1.0])

    def test_nonpositive_gain_in_one_row(self, axis16):
        with pytest.raises(ValueError, match="gain must be positive, got -2.0"):
            build_regions(axis16, np.zeros((3, 4)), [1.0, -2.0, 1.0])

    def test_nonfinite_logp_in_one_row(self, axis16):
        lp = np.zeros((3, 4))
        lp[2, 1] = np.inf
        with pytest.raises(ValueError, match="axis log-priors must be finite"):
            build_regions(axis16, lp, 1.0)

    def test_hand_built_table_needs_upper(self):
        with pytest.raises(ValueError, match="upper bounds are required"):
            DecisionRegions(lower=np.zeros(4), upper=None, empty=np.zeros(4, bool), boundary_count=6)

    def test_nan_statistic_in_one_row(self, axis16):
        regions = build_regions(axis16, np.zeros((3, 4)), 1.0)
        z = np.zeros((3, 5))
        z[1, 3] = np.nan
        with pytest.raises(ValueError, match="decision statistic is NaN"):
            slice_statistic(regions, z)

    @pytest.mark.parametrize(
        "logp, gain",
        [
            (np.zeros((4, 4)), [1.0, 1.0, 1.0]),  # three gains for four tables
            (np.zeros((2, 4)), np.ones((2, 1))),  # gains not one per table
            (np.zeros(4), [1.0, 1.0]),  # a single table with two gains
        ],
        ids=["gain-count", "gain-shape", "single-table-gains"],
    )
    def test_gain_shape_mismatch(self, axis16, logp, gain):
        with pytest.raises(ValueError, match="expected one gain or"):
            build_regions(axis16, logp, gain)

    @pytest.mark.parametrize(
        "logp", [np.zeros((2, 3)), np.zeros((2, 2, 4)), np.zeros(5)], ids=["width", "3d", "length"]
    )
    def test_logp_shape_mismatch(self, axis16, logp):
        with pytest.raises(ValueError, match="expected 4 log-priors per table"):
            build_regions(axis16, logp, 1.0)

    @pytest.mark.parametrize(
        "z", [np.zeros((3, 5)), np.zeros(4), 0.5], ids=["rows", "flat", "scalar"]
    )
    def test_statistic_rows_mismatch(self, axis16, z):
        regions = build_regions(axis16, np.zeros((4, 4)), 1.0)
        with pytest.raises(ValueError, match=r"one row of statistics per table \(4\)"):
            slice_statistic(regions, z)

    def test_nonfinite_crossover_in_one_row_rejected_not_hung(self):
        """The stacked build checks every table before walking any; the
        call runs in a child process, so a hang fails the test."""
        code = (
            "from sisodet import build_constellation, build_regions\n"
            "try:\n"
            "    build_regions(build_constellation(16).real_axis,\n"
            "                  [[0, 0, 0, 0], [0, 1, 0, 0]], [1.0, 5e-324])\n"
            "except ValueError as err:\n"
            "    print(err)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(sisodet.__file__).resolve().parents[1]))
        child = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30
        )
        assert child.returncode == 0
        assert child.stdout == "non-finite crossover in the region table (gain 5e-324)\n"
