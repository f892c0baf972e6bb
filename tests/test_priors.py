"""Tests for the a-priori LLR contract, clamping, per-axis log-priors, and
the genie model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from sisodet import (
    AprioriLLRs,
    build_constellation,
    clamp,
    genie_priors,
    uniform_priors,
)
from sisodet.oracle import argmax_slice_oracle, pairwise_boundary
from sisodet.priors import axis_log_priors, finite_log_priors, symbol_log_priors
from sisodet.slicer import build_regions, slice_statistic, upper_bounds

finite_llr = st.floats(min_value=-49.0, max_value=49.0)


class TestClamp:
    def test_in_range_unchanged(self):
        vals = np.array([[1.0, -2.0], [0.5, 3.0]])
        np.testing.assert_array_equal(clamp(vals).values, vals)

    def test_infinity_clamps_to_bound(self):
        vals = np.array([[np.inf, -np.inf], [0.0, 1.0]])
        out = clamp(vals).values
        assert out[0, 0] == 50.0
        assert out[0, 1] == -50.0

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            clamp(np.array([[np.nan, 0.0], [0.0, 0.0]]))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            clamp(np.zeros((3, 4)))

    def test_nan_rejected_at_clamped_entries(self):
        """NaN is caught wherever it sits, including beside +-inf entries."""
        vals = np.array([[np.inf, 1.0], [-np.inf, np.nan]])
        with pytest.raises(ValueError, match="NaN"):
            clamp(vals)


class TestAprioriLLRs:
    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.nan, "not NaN, got nan"),
            (np.inf, r"within \+-50, not NaN, got inf"),
            (-np.inf, r"within \+-50, not NaN, got -inf"),
            (np.nextafter(50.0, np.inf), r"within \+-50, not NaN, got 50\.00000000000001"),
        ],
    )
    def test_bad_value_named(self, bad, message):
        """NaN and anything beyond +-L_MAX fail on construction, wherever
        the value sits."""
        vals = np.zeros((2, 4))
        vals[1, 2] = bad
        with pytest.raises(ValueError, match=message):
            AprioriLLRs(vals)

    @pytest.mark.parametrize("shape", [(4,), (3, 4), (2, 2, 2)])
    def test_bad_shape_named(self, shape):
        with pytest.raises(ValueError, match=r"expected a \(2, q\) LLR array"):
            AprioriLLRs(np.zeros(shape))

    @pytest.mark.parametrize(
        "values", [np.full((2, 4), 1 + 2j), [[1 + 2j, 0], [0, 0]]], ids=["array", "list"]
    )
    def test_complex_rejected(self, values):
        """Complex LLRs are named, not cast to their real parts or left to
        a raw TypeError from float()."""
        with pytest.raises(ValueError, match="a-priori LLRs must be real, got complex values"):
            AprioriLLRs(values)

    def test_list_stored_read_only_float(self):
        llrs = AprioriLLRs([[1, -2], [0, 3]])
        assert isinstance(llrs.values, np.ndarray)
        assert llrs.values.dtype == float and not llrs.values.flags.writeable
        np.testing.assert_array_equal(llrs.values, [[1.0, -2.0], [0.0, 3.0]])

    def test_caller_array_stays_writable(self):
        """The stored copy is read-only; the caller's own array is not
        touched, and writing to it later does not reach the LLRs."""
        vals = np.array([[1.0, -2.0], [0.5, 3.0]])
        llrs = AprioriLLRs(vals)
        assert vals.flags.writeable
        vals[0, 0] = 7.0
        assert llrs.values[0, 0] == 1.0

    def test_clamp_matches_clip(self):
        """clamp is np.clip to +-L_MAX byte for byte, infinities included."""
        rng = np.random.default_rng(15)
        for i in range(200):
            raw = rng.normal(0.0, 80.0, (2, 2 * (1 + i % 4)))
            raw[rng.random(raw.shape) < 0.1] = np.inf
            raw[rng.random(raw.shape) < 0.1] = -np.inf
            expected = np.clip(raw, -50.0, 50.0)
            assert clamp(raw).values.tobytes() == expected.tobytes(), i


class TestAxisLogPriors:
    def test_zero_llrs_zero_logp(self):
        c = build_constellation(16)
        out = axis_log_priors(uniform_priors(4), c.real_axis)
        np.testing.assert_array_equal(out, np.zeros((4, 4)))

    def test_single_bit_axis(self):
        """With one bit per axis, logp is (0, llr) over labels (0), (1)."""
        c = build_constellation(4)
        llrs = clamp([[3.0, 0.0], [0.0, 0.0]])
        out = axis_log_priors(llrs, c.real_axis)
        np.testing.assert_array_equal(out[0], [0.0, 3.0])

    def test_imag_axis_uses_second_half(self):
        c = build_constellation(16)
        llrs = clamp([[1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0]])
        out = axis_log_priors(llrs, c.real_axis)[1]
        expected = c.real_axis.labels.astype(float) @ np.array([3.0, 4.0])
        np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("M", [4, 16, 64, 256])
    def test_rows_bit_identical_to_axis_dot(self, M):
        """Row t is bit for bit ``bit_weights.dot`` of LLR slice t, in the
        order layer 1 real, layer 1 imag, layer 2 real, layer 2 imag."""
        c = build_constellation(M)
        pam = c.real_axis
        half = c.q // 2
        rng = np.random.default_rng([13, M])
        for i in range(200):
            # every third draw puts most LLRs beyond the clamp, at +-l_max
            spread = 150.0 if i % 3 == 0 else 6.0
            llrs = clamp(rng.normal(0.0, spread, (2, c.q)))
            out = axis_log_priors(llrs, pam)
            assert out.shape == (4, pam.L) and not out.flags.writeable
            slices = [
                llrs.values[0, :half],
                llrs.values[0, half:],
                llrs.values[1, :half],
                llrs.values[1, half:],
            ]
            for t, bits in enumerate(slices):
                assert out[t].tobytes() == pam.bit_weights.dot(bits).tobytes(), (i, t)

    @pytest.mark.parametrize("axis", ["real", "imag"])
    @pytest.mark.parametrize("width", [2, 5, 6, 8])
    def test_llr_width_mismatch_named(self, width, axis):
        """Rows of another width fail naming both widths, not with a numpy
        shape error; width 5 used to pass silently on the real axis.  One
        call reads both parts, so each ``axis`` case makes the same call."""
        pam = build_constellation(16).real_axis
        with pytest.raises(ValueError, match=rf"shape \(2, 4\) for 16-QAM, got \(2, {width}\)"):
            axis_log_priors(clamp(np.zeros((2, width))), pam)

    def test_llr_row_count_named(self):
        """A hand-built LLR array of three rows fails on construction,
        naming its shape, before any prior is formed."""
        with pytest.raises(ValueError, match=r"\(2, q\) LLR array, got shape \(3, 4\)"):
            AprioriLLRs(np.zeros((3, 4)))

    @pytest.mark.parametrize("M", [4, 16, 64])
    def test_matches_sigmoid_product_marginals(self, M):
        """exp-normalized logp equals the product of per-bit probabilities."""
        c = build_constellation(M)
        pam = c.real_axis
        rng = np.random.default_rng(21)
        for _ in range(20):
            llrs = clamp(rng.uniform(-6, 6, size=(2, c.q)))
            for t, out in enumerate(axis_log_priors(llrs, pam)):
                probs = np.exp(out)
                probs /= probs.sum()
                half = c.q // 2
                row = llrs.values[t // 2]
                bit_llrs = row[:half] if t % 2 == 0 else row[half:]
                p_one = 1.0 / (1.0 + np.exp(-bit_llrs))
                expected = np.prod(
                    np.where(pam.labels.astype(bool), p_one, 1 - p_one), axis=1
                )
                np.testing.assert_allclose(probs, expected, atol=1e-12)


class TestSymbolLogPriors:
    @pytest.mark.parametrize("M", [4, 16, 64, 256])
    def test_rows_bit_identical_to_label_product(self, M):
        """Row l is bit for bit ``c.bit_weights @ llrs.values[l]``, the
        product the oracle's pair metrics were defined with."""
        c = build_constellation(M)
        rng = np.random.default_rng([14, M])
        for i in range(300):
            # every third draw puts most LLRs beyond the clamp, at +-l_max
            spread = 150.0 if i % 3 == 0 else 6.0
            llrs = clamp(rng.normal(0.0, spread, (2, c.q)))
            out = symbol_log_priors(llrs, c)
            assert out.shape == (2, M)
            for l in range(2):
                assert out[l].tobytes() == (c.bit_weights @ llrs.values[l]).tobytes(), (i, l)

    @pytest.mark.parametrize("width", [2, 5, 6, 8])
    def test_llr_width_mismatch_named(self, width):
        """Rows of another width fail naming both widths."""
        c = build_constellation(16)
        with pytest.raises(ValueError, match=rf"shape \(2, 4\) for 16-QAM, got \(2, {width}\)"):
            symbol_log_priors(clamp(np.zeros((2, width))), c)


class TestGeniePriors:
    def test_mu_zero_gives_zeros(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, (2, 4))
        out = genie_priors(rng, bits, 0.0)
        np.testing.assert_array_equal(out.values, np.zeros((2, 4)))

    def test_high_mu_sign_matches_bits(self):
        """At mu=50 the per-bit wrong-sign probability is below 1e-6."""
        assert norm.sf(np.sqrt(50.0 / 2.0)) < 1e-6
        rng = np.random.default_rng(1)
        for _ in range(100):
            bits = rng.integers(0, 2, (2, 8))
            out = genie_priors(rng, bits, 50.0)
            np.testing.assert_array_equal(out.values > 0, bits.astype(bool))

    def test_same_seed_identical(self):
        bits = np.array([[0, 1], [1, 0]])
        a = genie_priors(np.random.default_rng(5), bits, 3.0)
        b = genie_priors(np.random.default_rng(5), bits, 3.0)
        np.testing.assert_array_equal(a.values, b.values)

    def test_clamped_to_bound(self):
        rng = np.random.default_rng(2)
        bits = np.ones((2, 4), dtype=int)
        out = genie_priors(rng, bits, 1000.0)
        assert np.all(np.abs(out.values) <= 50.0)

    @pytest.mark.parametrize("bad", [2, 0.5, -1, np.nan])
    def test_non_binary_bits_rejected(self, bad):
        """A true bit other than 0 or 1 would centre its LLR elsewhere than
        +-mu."""
        bits = np.zeros((2, 4))
        bits[1, 3] = bad
        with pytest.raises(ValueError, match="true bits must be 0 or 1"):
            genie_priors(np.random.default_rng(0), bits, 1.0)

    def test_wrong_bit_rows_named(self):
        with pytest.raises(ValueError, match=r"expected \(2, q\) true bits, got shape \(3, 4\)"):
            genie_priors(np.random.default_rng(0), np.zeros((3, 4)), 1.0)

    def test_negative_mu_rejected(self):
        for mu in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="mu must be finite and nonnegative"):
                genie_priors(np.random.default_rng(0), np.zeros((2, 2)), mu)


class TestFiniteLogPriors:
    @pytest.mark.parametrize(
        "call",
        [
            lambda pam, lp: finite_log_priors(lp),
            lambda pam, lp: pairwise_boundary(pam, 0, 1, lp, 1.0),
            lambda pam, lp: argmax_slice_oracle(pam, lp, 1.0, 0.0),
        ],
        ids=["finite_log_priors", "pairwise_boundary", "argmax_slice_oracle"],
    )
    def test_complex_rejected(self, call):
        """The oracle references share the slicer's log-prior check, so
        complex log-priors fail by name in each, not cast to their real parts."""
        pam = build_constellation(16).real_axis
        with pytest.raises(ValueError, match="axis log-priors must be real, got complex values"):
            call(pam, np.array([0, 40j, 0, 0]))


class TestLogPriorShiftInvariance:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        logp=st.lists(finite_llr, min_size=4, max_size=4),
        shift=st.floats(min_value=-20, max_value=20),
        gain=st.floats(min_value=0.05, max_value=20),
    )
    def test_constant_shift_keeps_regions(self, logp, shift, gain):
        """Adding a constant to every logp moves no threshold beyond rounding,
        and no decision but on a grid point a threshold moved across.

        ``base + shift`` rounds each entry: logp (0, -1.3e-293, 0, 0) plus 1.0
        is the zero-prior row, whose middle threshold sits at 0, not 1e-293.
        """
        pam = build_constellation(16).real_axis
        base = np.array([logp])
        shifted = base + shift
        r1 = build_regions(pam, base, [gain])
        r2 = build_regions(pam, shifted, [gain])
        np.testing.assert_array_equal(r1.empty, r2.empty)
        keep = ~r1.empty
        np.testing.assert_allclose(
            r1.lower[keep], r2.lower[keep], rtol=1e-9, atol=1e-9
        )
        grid = np.linspace(-2, 2, 401)
        moved = slice_statistic(r1, grid[None]) != slice_statistic(r2, grid[None])
        lo = np.fmin(r1.lower, r2.lower)[keep]
        hi = np.fmax(r1.lower, r2.lower)[keep]
        for z in grid[moved[0]]:
            assert np.any((lo <= z) & (z <= hi)), z

    def test_integer_shift_is_exact(self):
        """Dyadic logp and shift values cancel with no rounding at all."""
        pam = build_constellation(16).real_axis
        base = np.array([[1.0, -3.0, 2.0, 0.0]])
        r1 = build_regions(pam, base, [2.0])
        r2 = build_regions(pam, base + 8.0, [2.0])
        keep = ~r1.empty
        np.testing.assert_array_equal(r1.lower[keep], r2.lower[keep])
        np.testing.assert_array_equal(
            upper_bounds(pam, base, [2.0])[keep], upper_bounds(pam, base + 8.0, [2.0])[keep]
        )
