"""Tests for LLR clamping, per-axis log-priors, and the genie model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from sisodet import (
    axis_log_priors,
    build_constellation,
    build_regions,
    clamp,
    genie_priors,
    slice_statistic,
    uniform_priors,
)

finite_llr = st.floats(min_value=-49.0, max_value=49.0)


class TestClamp:
    def test_in_range_unchanged(self):
        vals = np.array([[1.0, -2.0], [0.5, 3.0]])
        np.testing.assert_array_equal(clamp(vals, 50.0).values, vals)

    def test_infinity_clamps_to_bound(self):
        vals = np.array([[np.inf, -np.inf], [0.0, 1.0]])
        out = clamp(vals, 50.0).values
        assert out[0, 0] == 50.0
        assert out[0, 1] == -50.0

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            clamp(np.array([[np.nan, 0.0], [0.0, 0.0]]))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            clamp(np.zeros((3, 4)))

    @pytest.mark.parametrize("l_max", [-1.0, 0.0, np.nan, np.inf, -np.inf])
    def test_bad_bound_rejected(self, l_max):
        """A negative bound would flip every sign, a NaN one give NaN LLRs."""
        with pytest.raises(ValueError, match="l_max"):
            clamp(np.ones((2, 4)), l_max)

    def test_nan_rejected_at_clamped_entries(self):
        """NaN is caught wherever it sits, including beside +-inf entries."""
        vals = np.array([[np.inf, 1.0], [-np.inf, np.nan]])
        with pytest.raises(ValueError, match="NaN"):
            clamp(vals)


class TestAxisLogPriors:
    def test_zero_llrs_zero_logp(self):
        c = build_constellation(16)
        out = axis_log_priors(uniform_priors(4), 1, "real", c.real_axis)
        np.testing.assert_array_equal(out.logp, np.zeros(4))

    def test_single_bit_axis(self):
        """With one bit per axis, logp is (0, llr) over labels (0), (1)."""
        c = build_constellation(4)
        llrs = clamp([[3.0, 0.0], [0.0, 0.0]])
        out = axis_log_priors(llrs, 1, "real", c.real_axis)
        np.testing.assert_array_equal(out.logp, [0.0, 3.0])

    def test_imag_axis_uses_second_half(self):
        c = build_constellation(16)
        llrs = clamp([[1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0]])
        out = axis_log_priors(llrs, 1, "imag", c.imag_axis)
        expected = c.imag_axis.labels.astype(float) @ np.array([3.0, 4.0])
        np.testing.assert_array_equal(out.logp, expected)

    @pytest.mark.parametrize("axis", ["real", "imag"])
    @pytest.mark.parametrize("width", [2, 5, 6, 8])
    def test_llr_width_mismatch_named(self, width, axis):
        """Rows of another width fail naming both widths, not with a numpy
        shape error; width 5 used to pass silently on the real axis."""
        pam = getattr(build_constellation(16), f"{axis}_axis")
        with pytest.raises(ValueError, match=rf"width {width} .* width 4 "):
            axis_log_priors(clamp(np.zeros((2, width))), 1, axis, pam)

    @pytest.mark.parametrize("M", [4, 16, 64])
    def test_matches_sigmoid_product_marginals(self, M):
        """exp-normalized logp equals the product of per-bit probabilities."""
        c = build_constellation(M)
        rng = np.random.default_rng(21)
        for _ in range(20):
            llrs = clamp(rng.uniform(-6, 6, size=(2, c.q)))
            for layer in (1, 2):
                for axis_name, pam in (("real", c.real_axis), ("imag", c.imag_axis)):
                    out = axis_log_priors(llrs, layer, axis_name, pam)
                    probs = np.exp(out.logp)
                    probs /= probs.sum()
                    half = c.q // 2
                    row = llrs.values[layer - 1]
                    bit_llrs = row[:half] if axis_name == "real" else row[half:]
                    p_one = 1.0 / (1.0 + np.exp(-bit_llrs))
                    expected = np.prod(
                        np.where(pam.labels.astype(bool), p_one, 1 - p_one), axis=1
                    )
                    np.testing.assert_allclose(probs, expected, atol=1e-12)

    def test_bad_layer_or_axis(self):
        c = build_constellation(4)
        with pytest.raises(ValueError):
            axis_log_priors(uniform_priors(2), 3, "real", c.real_axis)
        with pytest.raises(ValueError):
            axis_log_priors(uniform_priors(2), 1, "diag", c.real_axis)


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

    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError):
            genie_priors(np.random.default_rng(0), np.zeros((2, 2)), -1.0)


class TestLogPriorShiftInvariance:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        logp=st.lists(finite_llr, min_size=4, max_size=4),
        shift=st.floats(min_value=-20, max_value=20),
        gain=st.floats(min_value=0.05, max_value=20),
    )
    def test_constant_shift_keeps_regions(self, logp, shift, gain):
        """Adding a constant to every logp moves no threshold or decision."""
        pam = build_constellation(16).real_axis
        base = np.array(logp)
        shifted = base + shift
        r1 = build_regions(pam, base, gain)
        r2 = build_regions(pam, shifted, gain)
        np.testing.assert_array_equal(r1.empty, r2.empty)
        keep = ~r1.empty
        np.testing.assert_allclose(
            r1.lower[keep], r2.lower[keep], rtol=1e-9, atol=1e-9
        )
        grid = np.linspace(-2, 2, 401)
        np.testing.assert_array_equal(
            slice_statistic(r1, grid), slice_statistic(r2, grid)
        )

    def test_integer_shift_is_exact(self):
        """Dyadic logp and shift values cancel with no rounding at all."""
        pam = build_constellation(16).real_axis
        base = np.array([1.0, -3.0, 2.0, 0.0])
        r1 = build_regions(pam, base, 2.0)
        r2 = build_regions(pam, base + 8.0, 2.0)
        keep = ~r1.empty
        np.testing.assert_array_equal(r1.lower[keep], r2.lower[keep])
        np.testing.assert_array_equal(r1.upper[keep], r2.upper[keep])
