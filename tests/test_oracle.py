"""Tests for the exhaustive max-log and log-sum-exp references."""

import numpy as np
import pytest
from scipy.special import logsumexp

from sisodet import (
    brute_force_maxlog,
    build_constellation,
    clamp,
    log_map,
    make_channel,
    pair_metric_table,
    transmit,
    uniform_priors,
    whiten,
)
from sisodet.oracle import _logsumexp
from helpers import log_map_reference, pair_metric_table_reference, random_tone


class TestBruteForce:
    def test_noiseless_sign_correct(self):
        rng = np.random.default_rng(60)
        const = build_constellation(4)
        ch = make_channel(
            np.array([[1.0, 0.2], [0.1, 1.0]], dtype=complex), np.eye(2) * 0.01
        )
        bits = rng.integers(0, 2, (2, 2))
        idx = [int("".join(map(str, b)), 2) for b in bits]
        obs = whiten(transmit(const.symbols[idx], ch, np.zeros(2)), ch)
        out = brute_force_maxlog(obs, const, uniform_priors(2))
        np.testing.assert_array_equal((out > 0).astype(int), bits)

    def test_joint_metric_count(self):
        """Exactly M^2 joint metrics are evaluated."""
        rng = np.random.default_rng(61)
        const = build_constellation(16)
        obs, llrs, _, _, _, _ = random_tone(rng, const)
        _, count = brute_force_maxlog(obs, const, llrs, with_count=True)
        assert count == 256

    def test_llr_width_mismatch_named(self):
        """LLRs for another order fail with the expected (2, q) shape named."""
        rng = np.random.default_rng(62)
        const = build_constellation(64)
        obs, _, _, _, _, _ = random_tone(rng, const)
        with pytest.raises(ValueError, match=r"\(2, 6\).*\(2, 4\)"):
            brute_force_maxlog(obs, const, uniform_priors(4))

    def test_enumeration_order_invariant(self):
        """The result is a pure max, so recomputation is bit-identical."""
        rng = np.random.default_rng(62)
        const = build_constellation(16)
        obs, llrs, _, _, _, _ = random_tone(rng, const, mu=4.0)
        a = brute_force_maxlog(obs, const, llrs)
        b = brute_force_maxlog(obs, const, llrs)
        np.testing.assert_array_equal(a, b)


class TestPairMetricTable:
    @pytest.mark.parametrize("n_rx", range(2, 8))
    @pytest.mark.parametrize("M", [4, 16, 64, 256])
    def test_bit_identical_to_reference(self, M, n_rx):
        """Up to 7 antennas the antenna-first sum rounds exactly as the
        antenna-last reference does."""
        rng = np.random.default_rng([63, M, n_rx])
        const = build_constellation(M)
        for t in range(60 if M < 256 else 10):
            obs, llrs, _, _, _, _ = random_tone(
                rng, const, n_rx=n_rx, snr_db=rng.uniform(-10.0, 40.0),
                rho=0.5, mu=(0.0, 4.0)[t % 2],
            )
            np.testing.assert_array_equal(
                pair_metric_table(obs, const, llrs),
                pair_metric_table_reference(obs, const, llrs),
            )

    @pytest.mark.parametrize("M", [4, 16, 64, 256])
    def test_eight_antennas_within_summation_error(self, M):
        """From 8 antennas numpy sums in another order.  With uniform
        priors the table is minus the energy, a sum of N_r nonnegative
        terms, and each order is within (N_r - 1) eps of the exact sum."""
        n_rx = 8
        rng = np.random.default_rng([64, M])
        const = build_constellation(M)
        priors = uniform_priors(const.q)
        for _ in range(20):
            obs, _, _, _, _, _ = random_tone(
                rng, const, n_rx=n_rx, snr_db=rng.uniform(-10.0, 40.0), rho=0.5
            )
            ref = pair_metric_table_reference(obs, const, priors)
            got = pair_metric_table(obs, const, priors)
            bound = 2 * (n_rx - 1) * np.finfo(float).eps * np.abs(ref)
            assert np.all(np.abs(got - ref) <= bound)


class TestLogMap:
    def test_converges_to_maxlog_at_high_snr(self):
        """One dominant pair: the soft sum collapses onto the max."""
        const = build_constellation(4)
        rng = np.random.default_rng(63)
        # orthogonal unit columns, noise variance 1e-4 -> gain/sigma^2 = 1e4
        ch = make_channel(np.eye(2, dtype=complex), np.eye(2) * 1e-4)
        bits = rng.integers(0, 2, (2, 2))
        idx = [int("".join(map(str, b)), 2) for b in bits]
        obs = whiten(transmit(const.symbols[idx], ch, np.zeros(2)), ch)
        llrs = uniform_priors(2)
        gap = np.abs(
            log_map(obs, const, llrs) - brute_force_maxlog(obs, const, llrs)
        )
        assert gap.max() <= 0.01

    def test_symmetric_boundary_bit_is_zero(self):
        """An observation on a bit's decision boundary has zero LLR."""
        const = build_constellation(4)
        ch = make_channel(np.eye(2, dtype=complex), np.eye(2))
        # real part of layer 1 exactly between the two amplitudes
        y = np.array([0.0 + 0.5j, 0.3 + 0.1j])
        obs = whiten(y, ch)
        out = log_map(obs, const, uniform_priors(2))
        assert abs(out[0, 0]) <= 1e-12

    def test_temperature_sweep_tightens_gap(self):
        """The scaled soft sum approaches the max as 2 log(M^2)/T."""
        const = build_constellation(16)
        rng = np.random.default_rng(64)
        obs, llrs, _, _, _, _ = random_tone(rng, const, mu=1.0)
        hard = brute_force_maxlog(obs, const, llrs)
        gaps = []
        for T in (1.0, 10.0, 100.0):
            soft = log_map(obs, const, llrs, temperature=T)
            gap = float(np.max(np.abs(soft - hard)))
            assert gap <= 2.0 * np.log(const.M**2) / T
            gaps.append(gap)
        assert gaps[2] < gaps[0]

    def test_jensen_relation_termwise(self):
        """Per hypothesis set, max metric never exceeds the log-sum-exp."""
        const = build_constellation(16)
        rng = np.random.default_rng(65)
        obs, llrs, _, _, _, _ = random_tone(rng, const, mu=2.0)
        table = pair_metric_table(obs, const, llrs)
        mask = const.labels.astype(bool)
        for n in range(const.q):
            for rows in (mask[:, n], ~mask[:, n]):
                assert table[rows, :].max() <= logsumexp(table[rows, :]) + 1e-12

    def test_nonpositive_temperature_rejected(self):
        rng = np.random.default_rng(66)
        const = build_constellation(4)
        obs, llrs, _, _, _, _ = random_tone(rng, const)
        with pytest.raises(ValueError):
            log_map(obs, const, llrs, temperature=0.0)


class TestLogMapDifferential:
    """The numpy-only log-sum-exp against scipy's ``logsumexp``, within
    1e-12 of the larger of 1 and the reference's largest magnitude."""

    @staticmethod
    def assert_close(got, ref):
        bound = 1e-12 * max(1.0, float(np.abs(ref).max()))
        assert np.all(np.isfinite(got))
        assert np.abs(got - ref).max() <= bound

    @pytest.mark.parametrize("temperature", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("M", [4, 16, 64, 256])
    def test_matches_scipy_reference(self, M, temperature):
        rng = np.random.default_rng([67, M])
        const = build_constellation(M)
        snrs = (0.0, 30.0, 60.0, 120.0) if M < 256 else (0.0, 120.0)
        for snr_db in snrs:
            for rho in (0.0, 0.5):
                for mu in (0.0, 4.0, 16.0):
                    obs, llrs, _, _, _, _ = random_tone(
                        rng, const, snr_db=snr_db, rho=rho, mu=mu
                    )
                    self.assert_close(
                        log_map(obs, const, llrs, temperature),
                        log_map_reference(obs, const, llrs, temperature),
                    )

    def test_single_dominant_pair(self):
        """A noiseless tone at 60 dB: one pair leads every other by more
        than 1e3 nats, so the rest underflow to nothing beside it."""
        const = build_constellation(16)
        ch = make_channel(
            np.array([[1.0, 0.3], [0.2, 1.0]], dtype=complex), np.eye(2) * 1e-6
        )
        obs = whiten(transmit(const.symbols[[5, 10]], ch, np.zeros(2)), ch)
        llrs = uniform_priors(const.q)
        table = np.sort(pair_metric_table(obs, const, llrs), axis=None)
        assert table[-1] - table[-2] > 1e3
        got = log_map(obs, const, llrs)
        self.assert_close(got, log_map_reference(obs, const, llrs))
        self.assert_close(got, brute_force_maxlog(obs, const, llrs))

    def test_helper_shift_keeps_the_max_exact(self):
        a = np.array([[0.5, -2e3], [-5e3, -1e300]])
        assert _logsumexp(a) == 0.5 == logsumexp(a)
        # A naive exp would overflow; log 2 is below one ulp of 1e300.
        assert _logsumexp(np.array([1e300, 1e300])) == 1e300
