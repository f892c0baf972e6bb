"""Tests for the channel model, noise generation, whitening and the Cholesky factor."""

import re

import numpy as np
import pytest
from numpy.linalg import LinAlgError

from sisodet import (
    WhitenedObservation,
    brute_force_maxlog,
    build_constellation,
    clamp,
    detect,
    generate_channel,
    generate_noise,
    make_channel,
    transmit,
    whiten,
)
from sisodet.channel import MAX_NORM_BOUND, NoiseModel, cholesky_factor
from sisodet.oracle import quadratic_norm
from sisodet.priors import L_MAX
from sisodet.simcli import draw_tone, noise_covariance, sigma2_from_snr_db
from helpers import count_cholesky, random_hermitian_pd, random_tone


def _channel_with_precision(Q, Hbar=None):
    """Build a realization whose noise precision is exactly Q."""
    if Hbar is None:
        Hbar = np.array([[1.0, 0.5], [0.25, 1.0]], dtype=complex)
    return make_channel(Hbar, np.linalg.inv(Q))


class TestWhiten:
    def test_identity_precision_is_passthrough(self):
        ch = _channel_with_precision(np.eye(2))
        y = np.array([1 + 2j, -0.5j])
        obs = whiten(y, ch)
        np.testing.assert_allclose(obs.y, y, atol=1e-12)
        np.testing.assert_allclose(obs.h1, ch.effective_channel[:, 0], atol=1e-12)
        np.testing.assert_allclose(obs.h2, ch.effective_channel[:, 1], atol=1e-12)

    def test_diagonal_scaling_gain(self):
        """Precision diag(4,1) with a (1,0) signature gives gain 4."""
        Hbar = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        ch = _channel_with_precision(np.diag([4.0, 1.0]), Hbar)
        obs = whiten(np.zeros(2, dtype=complex), ch)
        np.testing.assert_allclose(obs.gain2, 4.0, rtol=1e-12)

    def test_matches_quadratic_norm(self):
        """Weighted residual norm equals the whitened Euclidean norm."""
        rng = np.random.default_rng(3)
        c = build_constellation(16)
        for _ in range(50):
            Q = random_hermitian_pd(rng, 2)
            ch = _channel_with_precision(
                Q, generate_channel(rng, 2)
            )
            y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            s = rng.choice(c.symbols, size=2)
            obs = whiten(y, ch)
            lhs = quadratic_norm(y - ch.effective_channel @ s, Q)
            rhs = np.sum(np.abs(obs.y - obs.h1 * s[0] - obs.h2 * s[1]) ** 2)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10)

    def test_gains_cache_squared_norms(self):
        rng = np.random.default_rng(4)
        obs, _, _, _, _, _ = random_tone(rng, build_constellation(4), rho=0.5)
        np.testing.assert_allclose(obs.gain1, np.sum(np.abs(obs.h1) ** 2), rtol=1e-12)
        np.testing.assert_allclose(obs.gain2, np.sum(np.abs(obs.h2) ** 2), rtol=1e-12)

    def test_wrong_length_observation_named(self):
        """A 3-entry y against a 2-antenna channel names both lengths."""
        ch = _channel_with_precision(np.eye(2))
        with pytest.raises(ValueError, match=r"3 entries.*2 receive antennas"):
            whiten(np.zeros(3, dtype=complex), ch)

    def test_degenerate_gain_rejected(self):
        Hbar = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        ch = make_channel(Hbar, np.eye(2))
        with pytest.raises(ValueError, match="degenerate"):
            whiten(np.zeros(2, dtype=complex), ch)

    def test_overflowed_gain_named(self):
        """Finite signatures whose squared norm overflows are refused by
        name, not left to detect's NaN statistic or the exhaustive search's
        overflow in its squares."""
        ch = make_channel(1e200 * np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="whitened layer gain overflowed"):
            whiten(np.ones(2), ch)


class TestWhitenedObservation:
    """Hand-built observations: the gains follow the signatures."""

    def test_swapped_signatures_get_swapped_gains(self):
        """Swapping h1 and h2 swaps the derived gains, bit for bit; a gain
        cannot be passed in, so it cannot disagree with its signature."""
        rng = np.random.default_rng(5)
        obs, _, _, _, _, _ = random_tone(rng, build_constellation(16), rho=0.5)
        swapped = WhitenedObservation(y=obs.y, h1=obs.h2, h2=obs.h1)
        assert (swapped.gain1, swapped.gain2) == (obs.gain2, obs.gain1)
        with pytest.raises(TypeError):
            WhitenedObservation(y=obs.y, h1=obs.h1, h2=obs.h2, gain1=2 * obs.gain1)

    def test_length_mismatch_named(self):
        """A 2-entry y against 3-entry signatures names all three lengths."""
        h = np.ones(3, dtype=complex)
        with pytest.raises(ValueError, match="same length, got 2, 3 and 3"):
            WhitenedObservation(y=np.zeros(2, dtype=complex), h1=h, h2=h)

    @pytest.mark.parametrize(
        "parts, got",
        [
            (([1, 0], [1, 0], [0, 1]), "list of shape (2,), list of shape (2,), list of shape (2,)"),
            ((np.ones((2, 2)), np.ones(2), np.ones(2)),
             "ndarray of shape (2, 2), ndarray of shape (2,), ndarray of shape (2,)"),
        ],
        ids=["lists", "2-D-y"],
    )
    def test_not_one_dimensional_arrays_named(self, parts, got):
        """Lists and a 2-D y are named, not left to an AttributeError or a
        TypeError from the finiteness check."""
        with pytest.raises(ValueError, match=re.escape(f"y, h1 and h2 must be 1-D arrays, got {got}")):
            WhitenedObservation(*parts)

    def test_degenerate_signature_rejected(self):
        h = np.ones(2, dtype=complex)
        with pytest.raises(ValueError, match="degenerate"):
            WhitenedObservation(y=h, h1=h, h2=np.zeros(2, dtype=complex))

    def test_overflowed_gain_rejected(self):
        big = np.array([1e200, 0.0])
        with pytest.raises(ValueError, match=r"gain overflowed: gains inf, inf"):
            WhitenedObservation(y=big, h1=big, h2=big[::-1].copy())

    @pytest.mark.parametrize(
        "field, value",
        [("y", np.nan), ("h1", np.inf), ("h2", complex(1.0, -np.inf))],
        ids=["nan-y", "inf-h1", "inf-imag-h2"],
    )
    def test_non_finite_refused_on_construction(self, field, value):
        """A NaN or an infinity is refused when the observation is built, so
        it reaches neither detect nor the exhaustive search.  An infinite
        signature would otherwise give a NaN gain, which the degenerate-gain
        check lets through."""
        rng = np.random.default_rng(6)
        obs, _, _, _, _, _ = random_tone(rng, build_constellation(16))
        parts = {"y": obs.y.copy(), "h1": obs.h1.copy(), "h2": obs.h2.copy()}
        parts[field][0] = value
        with pytest.raises(ValueError, match="whitened observation contains non-finite values"):
            WhitenedObservation(**parts)


def _norm_bound(y, h1, h2) -> float:
    return np.linalg.norm(y) + 2.0 * (np.linalg.norm(h1) + np.linalg.norm(h2))


class TestNormBound:
    """Observations whose pair metrics could overflow are refused on
    construction; everything up to the bound detects to finite LLRs."""

    @pytest.mark.parametrize(
        "y, h1",
        [([1e300, 0], [1, 0]), ([1e160, 0], [1e150, 0])],
        ids=["huge-y", "huge-y-and-h1"],
    )
    def test_overflowing_metrics_named(self, y, h1):
        """Both gave NaN LLRs, and the second a misleading NaN-statistic
        error from detect, before the bound was checked."""
        with pytest.raises(ValueError, match="whitened observation too large"):
            WhitenedObservation(
                y=np.array(y, dtype=complex),
                h1=np.array(h1, dtype=complex),
                h2=np.array([0, 1], dtype=complex),
            )

    @staticmethod
    def _directions():
        """Unit-scale (y, h1, h2) shapes: one part dominant, the signatures
        aligned against y (the largest residual for a given bound), and
        random draws at 2 to 4 antennas."""
        u, v = np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)
        shapes = [
            (u, 1e-150 * u, 1e-150 * v),
            (0 * u, u, 1e-150 * v),
            (-u, u, u),
            (-u, (1 + 1j) * u, (1 + 1j) * u),
        ]
        rng = np.random.default_rng(70)
        for n_rx in (2, 3, 4):
            shapes.append(tuple(rng.standard_normal(n_rx) + 1j * rng.standard_normal(n_rx) for _ in range(3)))
        return shapes

    @pytest.mark.parametrize("M", [4, 16, 64, 256])
    def test_just_inside_bound_detects_finite(self, M):
        """Scaled to one part in 2**40 below the bound, detect and the
        exhaustive search give finite LLRs (with warnings as errors), with
        uniform priors and with every prior at the clamp."""
        const = build_constellation(M)
        rng = np.random.default_rng([71, M])
        for y, h1, h2 in self._directions():
            scale = MAX_NORM_BOUND / _norm_bound(y, h1, h2) * (1 - 2.0**-40)
            obs = WhitenedObservation(y=scale * y, h1=scale * h1, h2=scale * h2)
            for values in (np.zeros((2, const.q)), rng.choice([-L_MAX, L_MAX], (2, const.q))):
                llrs = clamp(values)
                assert np.isfinite(detect(obs, const, llrs).llrs).all()
                assert np.isfinite(brute_force_maxlog(obs, const, llrs)).all()

    def test_just_outside_bound_rejected(self):
        for y, h1, h2 in self._directions():
            scale = MAX_NORM_BOUND / _norm_bound(y, h1, h2) * (1 + 2.0**-40)
            with pytest.raises(ValueError, match="whitened observation too large"):
                WhitenedObservation(y=scale * y, h1=scale * h1, h2=scale * h2)

    @pytest.mark.parametrize("n_rx", [2, 3, 4, 8])
    def test_cli_snr_range_far_inside(self, n_rx):
        """The top of the CLI's SNR range with strongly correlated noise,
        the largest whitened tones it can draw, is a hundred orders of
        magnitude inside the bound."""
        model = NoiseModel(noise_covariance(sigma2_from_snr_db(300.0), 0.9, n_rx))
        const = build_constellation(256)
        for t in range(20):
            obs = draw_tone(np.random.default_rng([72, n_rx, t]), const, model, 0.0).obs
            assert _norm_bound(obs.y, obs.h1, obs.h2) < 1e-100 * MAX_NORM_BOUND


class TestNoiseModel:
    @pytest.mark.parametrize("snr_db", [-100.0, 0.0, 120.0, 300.0])
    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("n_rx", [2, 3, 4])
    def test_reused_model_matches_array_path(self, n_rx, rho, snr_db):
        """The model holds the covariance's factor and the whitener of its
        symmetrized inverse exactly as they are computed from the array; one
        model reused over several tones gives, bit for bit, the channel,
        whitened tone and LLRs that passing the array to ``make_channel``
        for each tone gives."""
        C = noise_covariance(sigma2_from_snr_db(snr_db), rho, n_rx)
        model = NoiseModel(C)
        Q = np.linalg.inv(C)
        Q = 0.5 * (Q + Q.conj().T)
        np.testing.assert_array_equal(model.covariance, C)
        np.testing.assert_array_equal(model.factor, cholesky_factor(C))
        np.testing.assert_array_equal(model.whitener, cholesky_factor(Q).conj().T)

        const = build_constellation(16)
        rng = np.random.default_rng([73, n_rx, int(10 * rho), int(snr_db) + 100])
        for t in range(4):
            n = generate_noise(np.random.default_rng([74, t]), model)
            H = generate_channel(rng, n_rx)
            from_model, from_array = make_channel(H, model), make_channel(H, C)
            np.testing.assert_array_equal(from_model.effective_channel, from_array.effective_channel)
            y = transmit(rng.choice(const.symbols, size=2), from_model, n)
            a, b = whiten(y, from_model), whiten(y, from_array)
            for part in ("y", "h1", "h2"):
                np.testing.assert_array_equal(getattr(a, part), getattr(b, part))
            llrs = clamp(rng.uniform(-8.0, 8.0, (2, const.q)))
            np.testing.assert_array_equal(detect(a, const, llrs).llrs, detect(b, const, llrs).llrs)

    def test_state_is_read_only_copy(self):
        """A model shared by many tones cannot be changed through the
        caller's array or its own."""
        C = np.eye(2, dtype=complex)
        model = NoiseModel(C)
        C[0, 0] = 4.0
        assert model.covariance[0, 0] == 1.0
        for arr in (model.covariance, model.factor, model.whitener):
            assert not arr.flags.writeable

    @pytest.mark.parametrize(
        "C, error, match",
        [
            (np.diag([1.0, np.nan]), ValueError, "non-finite"),
            (np.array([[1.0, 0.5], [0.0, 1.0]]), ValueError, "not Hermitian"),
            (np.array([[1.0, 2.0], [2.0, 1.0]]), LinAlgError, r"pivot 1 is -3\.000e\+00"),
            (np.ones((2, 3)), ValueError, r"square matrix, got shape \(2, 3\)"),
            (np.diag([1e-310, 1.0]), ValueError, "noise precision is not finite"),
        ],
        ids=["non-finite", "non-Hermitian", "not-PD", "non-square", "singular-precision"],
    )
    def test_named_errors(self, C, error, match):
        with pytest.raises(error, match=match):
            NoiseModel(C)

    def test_shape_must_match_channel(self):
        with pytest.raises(ValueError, match=r"\(2, 2\).*\(3, 3\)"):
            make_channel(np.eye(2, dtype=complex), NoiseModel(np.eye(3)))

    def test_receiver_tone_factors_twice(self, monkeypatch):
        """make_channel factors the covariance and the precision; whiten
        factors nothing."""
        calls = count_cholesky(monkeypatch)
        ch = make_channel(np.eye(2, dtype=complex), 0.5 * np.eye(2))
        assert len(calls) == 2
        whiten(np.ones(2), ch)
        assert len(calls) == 2

    def test_prebuilt_model_draws_factor_nothing(self, monkeypatch):
        """Drawing noise or a whole tone from a built model reads its
        stored factorizations and makes none."""
        model = NoiseModel(noise_covariance(0.1, 0.5, 3))
        calls = count_cholesky(monkeypatch)
        generate_noise(np.random.default_rng(0), model)
        draw_tone(np.random.default_rng(1), build_constellation(16), model, 2.0)
        assert len(calls) == 0

    def test_reused_model_factors_twice_in_all(self, monkeypatch):
        """Tones sharing a model share its two factorizations."""
        calls = count_cholesky(monkeypatch)
        model = NoiseModel(0.5 * np.eye(3))
        rng = np.random.default_rng(75)
        for _ in range(5):
            ch = make_channel(generate_channel(rng, 3), model)
            whiten(transmit([1, 1j], ch, generate_noise(rng, model)), ch)
        assert len(calls) == 2


class TestTransmit:
    def test_zero_symbols_zero_noise(self):
        ch = _channel_with_precision(np.eye(2))
        y = transmit([0, 0], ch, np.zeros(2))
        np.testing.assert_array_equal(y, 0)

    def test_noiseless_is_exact_product(self):
        ch = _channel_with_precision(np.eye(2))
        s = np.array([1 + 1j, -1j])
        np.testing.assert_array_equal(
            transmit(s, ch, np.zeros(2)), ch.effective_channel @ s
        )

    def test_linearity_in_noise(self):
        ch = _channel_with_precision(np.eye(2))
        s = np.array([0.5, -0.5j])
        n1 = np.array([1j, 0.0])
        n2 = np.array([0.0, 2.0])
        np.testing.assert_allclose(
            transmit(s, ch, n1 + n2), transmit(s, ch, n1) + n2, atol=0
        )

    def test_noiseless_whiten_residual_zero(self):
        """whiten(transmit) with zero noise gives residual at float noise."""
        rng = np.random.default_rng(5)
        c = build_constellation(16)
        for _ in range(20):
            ch = make_channel(generate_channel(rng, 3), random_hermitian_pd(rng, 3))
            s = rng.choice(c.symbols, size=2)
            obs = whiten(transmit(s, ch, np.zeros(3)), ch)
            residual = obs.y - obs.h1 * s[0] - obs.h2 * s[1]
            assert np.linalg.norm(residual) <= 1e-12

    def test_wrong_symbol_count(self):
        ch = _channel_with_precision(np.eye(2))
        with pytest.raises(ValueError):
            transmit([1.0], ch, np.zeros(2))

    @pytest.mark.parametrize("length", [1, 3])
    def test_wrong_noise_length_named(self, length):
        """A length-1 noise vector used to broadcast over both antennas."""
        ch = _channel_with_precision(np.eye(2))
        with pytest.raises(ValueError, match=rf"noise has {length} entries.* 2 receive"):
            transmit([1, 1], ch, np.zeros(length))


class TestGenerators:
    def test_same_seed_same_draws(self):
        a = generate_channel(np.random.default_rng(9), 2)
        b = generate_channel(np.random.default_rng(9), 2)
        np.testing.assert_array_equal(a, b)
        model = NoiseModel(np.eye(2))
        na = generate_noise(np.random.default_rng(9), model)
        nb = generate_noise(np.random.default_rng(9), model)
        np.testing.assert_array_equal(na, nb)

    def test_channel_unit_entry_variance(self):
        rng = np.random.default_rng(10)
        H = generate_channel(rng, 2)
        draws = np.array([generate_channel(rng, 4) for _ in range(4000)])
        assert abs(np.mean(np.abs(draws) ** 2) - 1.0) < 0.05
        assert abs(np.mean(draws)) < 0.05
        assert H.shape == (2, 2)

    def test_noise_sample_covariance(self):
        """Sample covariance of many draws lands within 5% of the target."""
        rng = np.random.default_rng(11)
        C = np.array([[2.0, 0.8 + 0.3j], [0.8 - 0.3j, 1.0]])
        model = NoiseModel(C)
        draws = np.array([generate_noise(rng, model) for _ in range(100_000)])
        sample = draws.T @ draws.conj() / draws.shape[0]
        assert np.abs(sample - C).max() <= 0.05 * np.abs(C).max()

    def test_zero_covariance_rejected(self):
        with pytest.raises(Exception, match="positive definite"):
            generate_noise(np.random.default_rng(0), NoiseModel(np.zeros((2, 2))))

    def test_covariance_array_refused_by_name(self):
        """A covariance is not a noise model: the draw names the form it
        takes rather than failing on a missing attribute."""
        with pytest.raises(TypeError, match=r"expected a NoiseModel\(covariance\), got ndarray"):
            generate_noise(np.random.default_rng(0), np.eye(2))


class TestMakeChannel:
    def test_one_dimensional_channel_named(self):
        with pytest.raises(ValueError, match=r"expected an \(N_r, 2\) channel matrix, got shape \(2,\)"):
            make_channel(np.ones(2), np.eye(2))

    @pytest.mark.parametrize("shape", [(2, 3), (2, 1)])
    def test_channel_shape_named(self, shape):
        """A channel without exactly two layer columns names its shape,
        instead of a matmul or unpacking error later."""
        with pytest.raises(
            ValueError, match=re.escape(f"expected an (N_r, 2) channel matrix, got shape {shape}")
        ):
            make_channel(np.ones(shape), np.eye(2))

    def test_channel_is_copied(self):
        """Changing the caller's array afterwards leaves the realization alone."""
        H = np.array([[1.0, 0.5], [0.25, 1.0]], dtype=complex)
        ch = make_channel(H, np.eye(2))
        H[0, 0] = 7.0
        np.testing.assert_array_equal(ch.effective_channel, [[1.0, 0.5], [0.25, 1.0]])

    def test_channel_stored_in_c_order(self):
        """A Fortran-ordered channel is stored C-ordered, so transmit's
        mat-vec rounds the same whatever layout the caller used."""
        H = np.asfortranarray(generate_channel(np.random.default_rng(14), 3))
        ch = make_channel(H, np.eye(3))
        assert ch.effective_channel.flags.c_contiguous
        np.testing.assert_array_equal(ch.effective_channel, H)

    def test_precision_inverts_covariance(self):
        rng = np.random.default_rng(13)
        C = random_hermitian_pd(rng, 2)
        ch = make_channel(generate_channel(rng, 2), C)
        W = ch.noise.whitener
        np.testing.assert_allclose(W.conj().T @ W @ C, np.eye(2), atol=1e-10)

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(1.0, -np.inf)])
    def test_non_finite_channel_named(self, value):
        Hbar = np.eye(2, dtype=complex)
        Hbar[1, 0] = value
        with pytest.raises(ValueError, match="channel matrix contains non-finite"):
            make_channel(Hbar, np.eye(2))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_covariance_named(self, value):
        """Caught in make_channel, not later as a non-finite whitened observation."""
        C = np.eye(2, dtype=complex)
        C[0, 0] = value
        with pytest.raises(ValueError, match="non-finite"):
            make_channel(np.eye(2, dtype=complex), C)

    def test_small_non_hermitian_covariance_rejected(self):
        """Far below unit scale the covariance is still checked for symmetry."""
        C = 1e-12 * np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            make_channel(np.eye(2, dtype=complex), C)

    def test_covariance_shape_must_match_receive_antennas(self):
        """A 3x3 covariance with a two-antenna channel names both shapes."""
        with pytest.raises(ValueError, match=r"\(2, 2\).*\(3, 3\)"):
            make_channel(np.eye(2, dtype=complex), np.eye(3))


class TestCholeskyFactor:
    def test_identity(self):
        np.testing.assert_array_equal(cholesky_factor(np.eye(2)), np.eye(2))

    def test_diagonal(self):
        G = cholesky_factor(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(G, np.diag([2.0, 1.0]), atol=0)

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_reconstruction(self, n):
        """G G^H reproduces the input matrix entrywise."""
        rng = np.random.default_rng(n)
        Q = random_hermitian_pd(rng, n)
        G = cholesky_factor(Q)
        np.testing.assert_allclose(G @ G.conj().T, Q, atol=1e-10)
        assert np.allclose(np.triu(G, 1), 0)

    def test_non_positive_definite_names_pivot(self):
        Q = np.diag([1.0, -1.0])
        with pytest.raises(LinAlgError, match="pivot 1"):
            cholesky_factor(Q)

    def test_zero_matrix_rejected(self):
        with pytest.raises(LinAlgError, match="pivot 0"):
            cholesky_factor(np.zeros((2, 2)))

    def test_non_hermitian_rejected(self):
        """The tolerance is relative to the largest entry, so a matrix far
        below unit scale (a 120 dB covariance is about 1e-12) is held to
        the same standard."""
        for scale in (1.0, 1e-12, 1e-30):
            with pytest.raises(ValueError, match="Hermitian"):
                cholesky_factor(scale * np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("scale", [1e-12, 1e-30])
    def test_small_hermitian_factors(self, scale):
        Q = scale * np.array([[2.0, 0.5 + 0.5j], [0.5 - 0.5j, 1.0]])
        G = cholesky_factor(Q)
        assert np.abs(G @ G.conj().T - Q).max() <= 8 * np.finfo(float).eps * scale

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            cholesky_factor(np.ones((2, 3)))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_differential_against_lapack(self, n):
        """Seeded HPD matrices up to condition 1e8 against np.linalg.cholesky.

        Both factors are the unique one with a positive real diagonal, so
        they agree to the forward error bound cond(Q) * n * eps in units of
        sqrt(max |Q|); G G^H reproduces Q to n * eps in units of max |Q|.
        """
        eps = np.finfo(float).eps
        rng = np.random.default_rng([61, n])
        for _ in range(200):
            U, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            cond = 10.0 ** rng.uniform(0.0, 8.0)
            eigenvalues = np.geomspace(1.0, 1.0 / cond, n) * 10.0 ** rng.uniform(-6.0, 6.0)
            Q = (U * eigenvalues) @ U.conj().T
            Q = 0.5 * (Q + Q.conj().T)
            scale = np.abs(Q).max()
            G = cholesky_factor(Q)
            assert np.all(np.triu(G, 1) == 0)
            assert np.abs(G @ G.conj().T - Q).max() <= 4 * n * eps * scale
            gap = np.abs(G - np.linalg.cholesky(Q)).max()
            assert gap <= 4 * n * eps * cond * np.sqrt(scale)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_first_failing_pivot_named(self, n):
        """Lowering Q[j, j] past its pivot fails at exactly pivot j."""
        rng = np.random.default_rng([62, n])
        for j in range(n):
            Q = random_hermitian_pd(rng, n)
            G = np.linalg.cholesky(Q)
            Q[j, j] -= 2.0 * G[j, j].real ** 2
            with pytest.raises(LinAlgError, match=f"pivot {j} is -"):
                cholesky_factor(Q)

    @pytest.mark.parametrize(
        "i, j, value", [(0, 0, np.nan), (1, 1, np.inf), (0, 1, np.nan), (1, 0, complex(0, np.inf))]
    )
    def test_non_finite_entry_named(self, i, j, value):
        """A NaN or inf anywhere fails by name, not as a NaN factor."""
        Q = np.eye(2, dtype=complex)
        Q[i, j] = value
        with pytest.raises(ValueError, match="non-finite"):
            cholesky_factor(Q)
