"""Tests for the exhaustive max-log and log-sum-exp references and quadratic_norm."""

import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from sisodet import (
    WhitenedObservation,
    brute_force_maxlog,
    build_constellation,
    clamp,
    make_channel,
    transmit,
    uniform_priors,
    whiten,
)
from sisodet import oracle
from sisodet.channel import cholesky_factor
from sisodet.oracle import _logsumexp, log_map, pair_metric_table, quadratic_norm
from sisodet.priors import L_MAX, signature_products, symbol_log_priors
from helpers import (
    log_map_reference,
    pair_metric_table_reference,
    random_hermitian_pd,
    random_tone,
)


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

    @pytest.mark.parametrize("M", [4, 16, 64, 256])
    def test_equals_max_difference_over_table(self, M):
        """Each LLR is the best metric of the pair table's rows (layer 1)
        or columns (layer 2) with the bit set minus the best with it clear,
        bit for bit: without feedback, where the priors are signed zeros,
        with feedback, and with every prior at the +-L_MAX clamp."""
        rng = np.random.default_rng([65, M])
        const = build_constellation(M)
        mask = const.labels == 1
        negative_zeros = 0
        for t in range(12 if M < 256 else 6):
            obs, llrs, _, _, _, _ = random_tone(
                rng, const, snr_db=rng.uniform(-10.0, 120.0), rho=0.5, mu=(0.0, 4.0, 0.0)[t % 3]
            )
            if t % 3 == 0:
                assert not llrs.values.any()
                negative_zeros += int(np.signbit(llrs.values).sum())
            elif t % 3 == 2:
                llrs = clamp(rng.choice([-L_MAX, L_MAX], (2, const.q)))
            table = pair_metric_table(obs, const, llrs)
            expected = np.array([
                [table[mask[:, n]].max() - table[~mask[:, n]].max() for n in range(const.q)],
                [table[:, mask[:, n]].max() - table[:, ~mask[:, n]].max() for n in range(const.q)],
            ])
            np.testing.assert_array_equal(brute_force_maxlog(obs, const, llrs), expected)
        assert negative_zeros > 0

    @pytest.mark.parametrize("M", [4, 256])
    def test_one_call_to_the_shared_llr_stage(self, M, monkeypatch):
        """One call reduces both layers' best metrics with exactly one call
        to the LLR stage ``detect`` ends in, through the name
        ``sisodet.oracle`` imports: the per-bit reduction has no second copy."""
        const = build_constellation(M)
        obs, llrs, _, _, _, _ = random_tone(np.random.default_rng([67, M]), const, mu=4.0)
        shapes = []
        stage = oracle.llrs_from_metrics

        def counted(metrics, split_index):
            shapes.append(metrics.shape)
            return stage(metrics, split_index)

        monkeypatch.setattr(oracle, "llrs_from_metrics", counted)
        brute_force_maxlog(obs, const, llrs)
        assert shapes == [(2, M)]


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

    @pytest.mark.parametrize("n_rx", [8, 12])
    @pytest.mark.parametrize("M", [4, 16, 64, 256])
    def test_antennas_summed_in_order(self, M, n_rx):
        """From 8 antennas numpy would sum a contiguous antenna axis
        pairwise; the table must still add the antennas' energies one by
        one, left to right, bit for bit."""
        rng = np.random.default_rng([67, M, n_rx])
        const = build_constellation(M)
        for t in range(6 if M < 256 else 2):
            obs, llrs, _, _, _, _ = random_tone(
                rng, const, n_rx=n_rx, snr_db=rng.uniform(-10.0, 40.0),
                rho=0.5, mu=(0.0, 4.0)[t % 2],
            )
            s_h1, s_h2 = signature_products(obs, const)
            energy = 0.0
            for a in range(n_rx):
                energy = energy + np.abs(obs.y[a] - s_h1[a][:, None] - s_h2[a][None, :]) ** 2
            prior = symbol_log_priors(llrs, const)
            np.testing.assert_array_equal(
                pair_metric_table(obs, const, llrs),
                prior[0][:, None] + prior[1][None, :] - energy,
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


class TestRowBlocks:
    """The oracle reads the pair table a block of layer-1 rows at a time."""

    @staticmethod
    def outputs(obs, const, llrs):
        return [
            brute_force_maxlog(obs, const, llrs).tobytes(),
            pair_metric_table(obs, const, llrs).tobytes(),
        ]

    @staticmethod
    def tones(M, n_rx):
        """Seeded tones, then one with every prior at the clamp; a NaN in
        the observation is refused before it can reach the oracle."""
        rng = np.random.default_rng([68, M, n_rx])
        const = build_constellation(M)
        for t in range(6 if M < 256 else 2):
            obs, llrs, _, _, _, _ = random_tone(
                rng, const, n_rx=n_rx, snr_db=rng.uniform(-10.0, 120.0),
                rho=0.5, mu=(0.0, 4.0, 200.0)[t % 3],
            )
            yield obs, llrs
        yield obs, clamp(np.where(rng.integers(0, 2, (2, const.q)) > 0, np.inf, -np.inf))
        y = obs.y.copy()
        y[-1] = np.nan
        with pytest.raises(ValueError, match="whitened observation contains non-finite values"):
            WhitenedObservation(y, obs.h1, obs.h2)

    @pytest.mark.parametrize("n_rx", [1, 2, 8])
    @pytest.mark.parametrize("M", [4, 16, 64, 256])
    def test_blocks_bit_identical(self, M, n_rx, monkeypatch):
        """One row a block, three rows a block (a short last block) and the
        default budget give the same bytes."""
        const = build_constellation(M)
        row_bytes = 16 * n_rx * M
        for obs, llrs in self.tones(M, n_rx):
            expected = self.outputs(obs, const, llrs)
            for budget in (1, 3 * row_bytes):
                with monkeypatch.context() as patch:
                    patch.setattr(oracle, "_BLOCK_BUDGET", budget)
                    assert self.outputs(obs, const, llrs) == expected

    def test_m64_two_antennas_is_one_block(self):
        rng = np.random.default_rng(69)
        const = build_constellation(64)
        obs, llrs, _, _, _, _ = random_tone(rng, const, n_rx=2)
        assert len(list(oracle._pair_metric_blocks(obs, const, llrs))) == 1

    @pytest.mark.parametrize("n_rx", [2, 8])
    @pytest.mark.parametrize(
        "func, bound",
        [(brute_force_maxlog, 1 << 20), (pair_metric_table, 2 << 20)],
        ids=["brute_force_maxlog", "pair_metric_table"],
    )
    def test_traced_peak_bounded_at_m256(self, func, bound, n_rx):
        """The whole (N_r, M, M) residual is 2 MiB at two antennas and
        8 MiB at eight; a block holds at most the budget of it."""
        rng = np.random.default_rng([70, n_rx])
        const = build_constellation(256)
        obs, llrs, _, _, _, _ = random_tone(rng, const, n_rx=n_rx, mu=4.0)
        func(obs, const, llrs)  # fill the constellation's cached tables
        tracemalloc.start()
        try:
            func(obs, const, llrs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


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
        for temperature in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                log_map(obs, const, llrs, temperature=temperature)


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


class TestQuadraticNorm:
    def test_zero_vector(self):
        assert quadratic_norm(np.zeros(3), np.eye(3)) == 0.0

    def test_identity_weight(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        np.testing.assert_allclose(
            quadratic_norm(x, np.eye(4)), np.sum(np.abs(x) ** 2), rtol=1e-14
        )

    def test_matches_whitened_norm(self):
        """x^H Q x equals the plain norm of G^H x, also for forms scaled to
        1e-12 and 1e-30, as small as a high-SNR noise covariance."""
        rng = np.random.default_rng(2)
        for scale in (1.0, 1e-12, 1e-30):
            for _ in range(50):
                Q = scale * random_hermitian_pd(rng, 3)
                x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                G = cholesky_factor(Q)
                direct = quadratic_norm(x, Q)
                whitened = np.sum(np.abs(G.conj().T @ x) ** 2)
                np.testing.assert_allclose(direct, whitened, rtol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            quadratic_norm(np.ones(2), np.eye(3))

    @pytest.mark.parametrize("scale", [1.0, 1e-12, 1e-30])
    def test_non_hermitian_rejected(self, scale):
        """An imaginary part half the real part is rejected at every scale."""
        Q = scale * np.array([[1, 0.5j], [0.5j, 1]])
        with pytest.raises(ValueError, match="imaginary residue"):
            quadratic_norm([1, 1], Q)
