"""Tests for the linear-complexity detector against direct computation."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from sisodet import detector

from sisodet import (
    DecisionRegions,
    brute_force_maxlog,
    build_constellation,
    build_regions,
    clamp,
    detect,
    generate_channel,
    llrs_from_metrics,
    make_channel,
    slice_statistic,
    transmit,
    uniform_priors,
    whiten,
)
from sisodet.channel import WhitenedObservation
from sisodet.constellation import VALID_ORDERS
from sisodet.oracle import candidate_metric, quadratic_norm, residual_statistic
from helpers import build_regions_walk, random_tone, table_rows


def _noiseless_obs(rng, const, n_rx=2):
    ch = make_channel(generate_channel(rng, n_rx, 2), np.eye(n_rx) * 0.05)
    bits = rng.integers(0, 2, size=(2, const.q))
    idx = [int("".join(map(str, row)), 2) for row in bits]
    s = const.symbols[idx]
    obs = whiten(transmit(s, ch, np.zeros(n_rx)), ch)
    return obs, bits, s


class TestResidualStatistic:
    def test_perfect_cancellation_recovers_partner(self):
        """With no noise and the true symbol canceled, Z is the partner."""
        rng = np.random.default_rng(40)
        const = build_constellation(16)
        obs, _, s = _noiseless_obs(rng, const)
        z = residual_statistic(obs, 1, s[0])
        np.testing.assert_allclose(z, s[1], atol=1e-12)
        z = residual_statistic(obs, 2, s[1])
        np.testing.assert_allclose(z, s[0], atol=1e-12)

    def test_orthogonal_layers_independent_of_hypothesis(self):
        """Orthogonal signatures decouple the layers entirely."""
        Hbar = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        ch = make_channel(Hbar, np.eye(2))
        obs = whiten(np.array([0.3 + 1j, -0.7j]), ch)
        values = {residual_statistic(obs, 1, s) for s in (0, 1 + 1j, -2j, 0.5)}
        assert len({complex(np.round(v, 12)) for v in values}) == 1

    def test_decomposes_pair_energy(self):
        """gain*|Z - partner|^2 plus a partner-free rest equals the full
        residual energy, for every partner symbol."""
        rng = np.random.default_rng(41)
        const = build_constellation(16)
        for _ in range(20):
            obs, _, _, _, _, _ = random_tone(rng, const, rho=0.5, mu=2.0)
            s1 = rng.choice(const.symbols)
            z = residual_statistic(obs, 1, s1)
            partial = obs.y - obs.h1 * s1
            rest = np.sum(np.abs(partial) ** 2) - obs.gain2 * abs(z) ** 2
            for s2 in const.symbols:
                full = np.sum(np.abs(partial - obs.h2 * s2) ** 2)
                recomposed = obs.gain2 * abs(z - s2) ** 2 + rest
                np.testing.assert_allclose(recomposed, full, atol=1e-9)

    def test_bad_layer(self):
        rng = np.random.default_rng(42)
        obs, _, _, _, _, _ = random_tone(rng, build_constellation(4))
        with pytest.raises(ValueError):
            residual_statistic(obs, 3, 0j)


class TestCandidateMetric:
    def test_true_pair_zero_priors_noiseless(self):
        """Zero priors, no noise, true pair: the metric vanishes."""
        rng = np.random.default_rng(43)
        const = build_constellation(16)
        obs, bits, _ = _noiseless_obs(rng, const)
        idx = [int("".join(map(str, row)), 2) for row in bits]
        llrs = uniform_priors(const.q)
        eta = candidate_metric(obs, const, llrs, idx[0], idx[1], 1)
        assert abs(eta) <= 1e-12

    def test_zero_priors_never_positive(self):
        rng = np.random.default_rng(44)
        const = build_constellation(16)
        obs, _, _, _, _, _ = random_tone(rng, const)
        llrs = uniform_priors(const.q)
        for _ in range(50):
            i, j = rng.integers(0, const.M, 2)
            assert candidate_metric(obs, const, llrs, i, j, 1) <= 0

    def test_matches_quadratic_norm_route(self):
        """Metric recomputed through the weighted-norm module agrees."""
        rng = np.random.default_rng(45)
        const = build_constellation(16)
        for _ in range(20):
            obs, llrs, _, ch, y, _ = random_tone(rng, const, rho=0.5, mu=4.0)
            i, j = rng.integers(0, const.M, 2)
            eta = candidate_metric(obs, const, llrs, i, j, 1)
            prior = (
                const.labels[i].astype(float) @ llrs.values[0]
                + const.labels[j].astype(float) @ llrs.values[1]
            )
            residual = y - ch.effective_channel @ const.symbols[[i, j]]
            expected = prior - quadratic_norm(residual, ch.noise_precision)
            np.testing.assert_allclose(eta, expected, atol=1e-10)


class TestLlrsFromMetrics:
    def test_all_equal_metrics_zero_llrs(self):
        const = build_constellation(16)
        out = llrs_from_metrics(np.full(16, 2.5), const.split_bit_index)
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_unique_maximum_dominates_signs(self):
        """L(c_n) >= 0 exactly when the best symbol has bit n set."""
        const = build_constellation(64)
        rng = np.random.default_rng(46)
        metrics = rng.uniform(-10, 0, 64)
        k0 = rng.integers(0, 64)
        metrics[k0] = 5.0
        out = llrs_from_metrics(metrics, const.split_bit_index)
        for n in range(6):
            assert (out[n] >= 0) == bool(const.labels[k0, n])

    def test_matches_two_pass_scan(self):
        """Exact agreement with an index-by-index max scan."""
        const = build_constellation(16)
        rng = np.random.default_rng(47)
        for _ in range(50):
            metrics = rng.uniform(-20, 20, 16)
            out = llrs_from_metrics(metrics, const.split_bit_index)
            for n in range(4):
                best = [-np.inf, -np.inf]
                for k in range(16):
                    b = const.labels[k, n]
                    best[b] = max(best[b], metrics[k])
                assert out[n] == best[1] - best[0]

    @pytest.mark.parametrize("M", VALID_ORDERS)
    def test_matches_per_bit_scan_with_ties_and_extremes(self, M):
        """Bit for bit equal to a per-bit scan over ``c.labels``, with many
        exactly tied metrics and entries of +-1e30."""
        const = build_constellation(M)
        rng = np.random.default_rng([59, M])
        for _ in range(20):
            metrics = rng.integers(-3, 4, M).astype(float)  # ties in every bit
            metrics[rng.random(M) < 0.1] = 1e30
            metrics[rng.random(M) < 0.1] = -1e30
            out = llrs_from_metrics(metrics, const.split_bit_index)
            expected = np.empty(const.q)
            for n in range(const.q):
                bit = const.labels[:, n]
                expected[n] = max(metrics[bit == 1]) - max(metrics[bit == 0])
            assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("M", VALID_ORDERS)
    def test_stack_equals_row_calls(self, M):
        """A ``(T, M)`` stack gives the per-row LLRs bit for bit, with tied
        metrics and entries of +-1e30."""
        const = build_constellation(M)
        rng = np.random.default_rng([61, M])
        for T in (1, 2, 5):
            metrics = rng.integers(-3, 4, (T, M)).astype(float)
            metrics[rng.random((T, M)) < 0.1] = 1e30
            metrics[rng.random((T, M)) < 0.1] = -1e30
            stacked = llrs_from_metrics(metrics, const.split_bit_index)
            rows = np.array([llrs_from_metrics(m, const.split_bit_index) for m in metrics])
            assert stacked.shape == (T, const.q)
            assert stacked.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("shape", [(2, 15), (2, 2, 16), (17,)])
    def test_metric_shape_mismatch_named(self, shape):
        const = build_constellation(16)
        with pytest.raises(ValueError, match="one metric per labeled symbol required"):
            llrs_from_metrics(np.zeros(shape), const.split_bit_index)

    def test_constant_shift_invariance(self):
        const = build_constellation(16)
        rng = np.random.default_rng(48)
        metrics = rng.uniform(-5, 5, 16)
        base = llrs_from_metrics(metrics, const.split_bit_index)
        shifted = llrs_from_metrics(metrics + 2.0, const.split_bit_index)
        np.testing.assert_allclose(shifted, base, atol=1e-12)


class TestDetect:
    def test_high_snr_zero_prior_signs(self):
        """Noiseless, well-conditioned: LLR signs recover every bit."""
        rng = np.random.default_rng(49)
        const = build_constellation(16)
        obs, bits, _ = _noiseless_obs(rng, const)
        result = detect(obs, const, uniform_priors(const.q))
        np.testing.assert_array_equal((result.llrs > 0).astype(int), bits)

    def test_metric_counts_16qam(self):
        """2M candidate metrics, 2(M - sqrt(M)) thresholds, 4M - 2 sqrt(M) total."""
        rng = np.random.default_rng(50)
        const = build_constellation(16)
        obs, llrs, _, _, _, _ = random_tone(rng, const, mu=1.0)
        result = detect(obs, const, llrs)
        assert result.candidate_metric_count == 32
        assert result.boundary_count <= 24
        assert result.total_metric_count <= 56

    @pytest.mark.parametrize("M", [4, 16, 64])
    def test_matches_brute_force(self, M):
        """Randomized battery: LLRs equal the exhaustive search."""
        const = build_constellation(M)
        worst = 0.0
        for t in range(300):
            rng = np.random.default_rng([51, M, t])
            rho = (0.0, 0.5)[t % 2]
            mu = (0.0, 1.0, 4.0, 16.0)[(t // 2) % 4]
            snr = (0.0, 10.0, 20.0)[(t // 8) % 3]
            obs, llrs, _, _, _, _ = random_tone(
                rng, const, snr_db=snr, rho=rho, mu=mu
            )
            result = detect(obs, const, llrs)
            reference = brute_force_maxlog(obs, const, llrs)
            worst = max(worst, float(np.max(np.abs(result.llrs - reference))))
        assert worst <= 1e-6

    @pytest.mark.parametrize("M", VALID_ORDERS)
    def test_exact_at_very_high_snr(self, M):
        """Within the 1e-6 gate of the exhaustive search at 120-300 dB.

        There the residual energies reach about 1e30 and every LLR is a
        difference of two such energies, so the gate holds only because
        ``detect`` rounds each residual exactly as ``pair_metric_table``
        does: same antenna-first layout, same operand order in every
        product.  numpy may round the complex product ``h * x`` and
        ``x * h`` differently, and writing the signature first in ``detect``
        alone breaks this test.
        """
        const = build_constellation(M)
        for t in range(36):
            rng = np.random.default_rng([60, M, t])
            snr = (120.0, 200.0, 300.0)[t % 3]
            mu = (0.0, 16.0, 200.0)[(t // 3) % 3]
            obs, llrs, _, _, _, _ = random_tone(rng, const, snr_db=snr, rho=0.5, mu=mu)
            gap = np.max(np.abs(detect(obs, const, llrs).llrs - brute_force_maxlog(obs, const, llrs)))
            assert gap <= 1e-6, (snr, mu, gap)

    def test_zero_prior_equals_zero_prior_brute(self):
        rng = np.random.default_rng(52)
        const = build_constellation(64)
        obs, _, _, _, _, _ = random_tone(rng, const, rho=0.5)
        llrs = uniform_priors(const.q)
        result = detect(obs, const, llrs)
        reference = brute_force_maxlog(obs, const, llrs)
        np.testing.assert_allclose(result.llrs, reference, atol=1e-9)

    def test_layer_swap_transposes_output(self):
        """Swapping signatures and LLR rows swaps the output rows."""
        rng = np.random.default_rng(53)
        const = build_constellation(16)
        obs, llrs, _, _, _, _ = random_tone(rng, const, rho=0.5, mu=2.0)
        swapped_obs = WhitenedObservation(y=obs.y, h1=obs.h2, h2=obs.h1)
        swapped_llrs = clamp(llrs.values[::-1])
        base = detect(obs, const, llrs)
        swapped = detect(swapped_obs, const, swapped_llrs)
        np.testing.assert_allclose(swapped.llrs, base.llrs[::-1], atol=1e-9)

    def test_counts_drop_when_pruning_fires(self):
        """Strong one-sided feedback empties two amplitudes on one axis."""
        rng = np.random.default_rng(54)
        const = build_constellation(16)
        obs, _, _, _, _, _ = random_tone(rng, const)
        # layer-2 real axis log-priors become (0, -40, -40, 0)
        llrs = clamp(np.array([[0.0] * 4, [0.0, -40.0, 0.0, 0.0]]))
        result = detect(obs, const, llrs)
        assert result.total_metric_count < 56
        reference = brute_force_maxlog(obs, const, llrs)
        np.testing.assert_allclose(result.llrs, reference, atol=1e-9)

    def test_nan_inputs_rejected(self):
        rng = np.random.default_rng(55)
        const = build_constellation(4)
        obs, llrs, _, _, _, _ = random_tone(rng, const)
        bad = WhitenedObservation(y=np.array([np.nan + 0j, 0j]), h1=obs.h1, h2=obs.h2)
        with pytest.raises(ValueError):
            detect(bad, const, llrs)

    def test_llr_width_mismatch_named(self):
        """LLRs for another order fail with the expected (2, q) shape named."""
        rng = np.random.default_rng(56)
        const = build_constellation(64)
        obs, _, _, _, _, _ = random_tone(rng, const)
        with pytest.raises(ValueError, match=r"\(2, 6\).*\(2, 4\)"):
            detect(obs, const, uniform_priors(4))

    @pytest.mark.parametrize("M", [4, 16, 64, 256])
    def test_counts_match_walk_reference(self, M, monkeypatch):
        """Per tone, counts equal those of detect over the pair-by-pair walk.

        The LLRs match that reference bit for bit, since the tables do, and
        the exhaustive search within the 1e-6 gate.
        """
        const = build_constellation(M)
        tones = []
        for t in range(96):
            rng = np.random.default_rng([57, M, t])
            mu = (0.0, 4.0, 16.0, 200.0)[t % 4]  # 200 drives LLRs into the clamp
            snr = (0.0, 10.0, 20.0)[(t // 4) % 3]
            obs, llrs, _, _, _, _ = random_tone(rng, const, snr_db=snr, rho=0.5, mu=mu)
            tones.append((obs, llrs, detect(obs, const, llrs)))

        monkeypatch.setattr(detector, "build_regions", build_regions_walk)
        pruned = 0
        for obs, llrs, fast in tones:
            walk = detect(obs, const, llrs)
            assert fast.candidate_metric_count == walk.candidate_metric_count == 2 * M
            assert fast.boundary_count == walk.boundary_count
            np.testing.assert_array_equal(fast.llrs, walk.llrs)
            reference = brute_force_maxlog(obs, const, llrs)
            assert np.max(np.abs(fast.llrs - reference)) <= 1e-6
            pruned += fast.boundary_count < 2 * (M - const.real_axis.L)
        if M > 4:
            assert pruned > 0  # feedback emptied amplitudes on some tones

    @pytest.mark.parametrize("M", [4, 16, 64, 256])
    def test_stacked_stages_equal_row_calls(self, M, monkeypatch):
        """Per tone, detect gives the same LLRs and counts bit for bit when
        every stacked stage is replaced by one call per table or layer.

        Strong feedback prunes tables, and mu = 200 drives the a-priori
        LLRs into the +-l_max clamp.
        """
        const = build_constellation(M)
        tones = []
        for t in range(64):
            rng = np.random.default_rng([62, M, t])
            mu = (0.0, 4.0, 16.0, 200.0)[t % 4]
            snr = (0.0, 10.0, 20.0, 120.0)[(t // 4) % 4]
            obs, llrs, _, _, _, _ = random_tone(rng, const, snr_db=snr, rho=0.5, mu=mu)
            tones.append((obs, llrs, detect(obs, const, llrs)))

        def build_per_table(pam, logp, gain):
            tables = [build_regions(pam, row, g) for row, g in zip(logp, gain)]
            return DecisionRegions(
                lower=np.array([r.lower for r in tables]),
                upper=np.array([r.upper for r in tables]),
                empty=np.array([r.empty for r in tables]),
                boundary_count=sum(r.boundary_count for r in tables),
            )

        def slice_per_table(regions, z):
            return np.array([slice_statistic(r, row) for r, row in zip(table_rows(regions), z)])

        def llrs_per_layer(metrics, split_index):
            return np.array([llrs_from_metrics(row, split_index) for row in metrics])

        monkeypatch.setattr(detector, "build_regions", build_per_table)
        monkeypatch.setattr(detector, "slice_statistic", slice_per_table)
        monkeypatch.setattr(detector, "llrs_from_metrics", llrs_per_layer)
        pruned = clamped = 0
        for obs, llrs, stacked in tones:
            rows = detect(obs, const, llrs)
            assert stacked.llrs.tobytes() == rows.llrs.tobytes()
            assert stacked.boundary_count == rows.boundary_count
            assert stacked.candidate_metric_count == rows.candidate_metric_count == 2 * M
            assert stacked.total_metric_count == rows.total_metric_count
            pruned += stacked.boundary_count < 2 * (M - const.real_axis.L)
            clamped += bool(np.any(np.abs(llrs.values) == 50.0))
        assert clamped > 0
        if M > 4:
            assert pruned > 0

    def test_per_constellation_tables_die_with_it(self):
        """200 fresh constellations, each detected on, retain no memory.

        Tables derived once per constellation must be owned by it, not by a
        process-wide cache, since the CLI builds a constellation per call.
        """
        rng = np.random.default_rng(58)
        obs, llrs, _, _, _, _ = random_tone(rng, build_constellation(64), mu=4.0)
        tracemalloc.start()
        try:
            for i in range(200):
                detect(obs, build_constellation(64), llrs)
                if i == 19:
                    gc.collect()
                    settled = tracemalloc.get_traced_memory()[0]
            gc.collect()
            final = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # one leaked constellation's tables alone are about 5 kB
        assert final - settled < 64 * 1024

        # A cache keyed by id() stays flat above when ids are recycled, so
        # also check that the tables themselves are freed.
        const = build_constellation(64)
        detect(obs, const, llrs)
        axis = const.real_axis
        tables = (const.bit_weights, const.bit_mask, const.split_bit_index, axis.bit_weights,
                  axis.pair_midpoints, axis.pair_gaps, axis.below_bias, axis.above)
        refs = [weakref.ref(table) for table in tables]
        del const, axis, tables
        gc.collect()
        assert all(ref() is None for ref in refs)
