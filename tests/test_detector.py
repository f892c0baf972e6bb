"""Tests for the linear-complexity detector against direct computation."""

import gc
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

from sisodet import detector

from sisodet import (
    brute_force_maxlog,
    build_constellation,
    clamp,
    detect,
    generate_channel,
    make_channel,
    transmit,
    uniform_priors,
    whiten,
)
from sisodet.channel import WhitenedObservation
from sisodet.constellation import VALID_ORDERS
from sisodet.detector import llrs_from_metrics
from sisodet.oracle import pair_metric_table, quadratic_norm, residual_statistic
from sisodet.priors import L_MAX
from sisodet.slicer import DecisionRegions, build_regions, slice_statistic
from helpers import build_regions_walk, random_tone


def _noiseless_obs(rng, const, n_rx=2):
    ch = make_channel(generate_channel(rng, n_rx), np.eye(n_rx) * 0.05)
    bits = rng.integers(0, 2, size=(2, const.q))
    idx = [int("".join(map(str, row)), 2) for row in bits]
    s = const.symbols[idx]
    obs = whiten(transmit(s, ch, np.zeros(n_rx)), ch)
    return obs, bits, s


def record_llr_stage_metrics(monkeypatch) -> list:
    """Record the ``(2, M)`` metrics each ``detect`` call passes to its LLR
    stage: ``sisodet.detector.llrs_from_metrics`` appends them to the list."""
    seen = []
    stage = detector.llrs_from_metrics

    def recorded(metrics, split_index):
        seen.append(metrics)
        return stage(metrics, split_index)

    monkeypatch.setattr(detector, "llrs_from_metrics", recorded)
    return seen


def assert_oracle_partners(metrics, obs, const, llrs):
    """Each symbol's metric in ``detect`` is its best pair metric over all
    partners, byte for byte: layer 1's the pair table's row maxima, layer
    2's its column maxima."""
    table = pair_metric_table(obs, const, llrs)
    assert metrics.tobytes() == np.stack([table.max(axis=1), table.max(axis=0)]).tobytes()


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

    @pytest.mark.parametrize("M", VALID_ORDERS)
    def test_detect_slices_the_reference(self, M, monkeypatch):
        """The four rows detect slices are the real and imaginary parts of
        this statistic for every symbol: rows 0-1 cancel a layer-2 symbol,
        rows 2-3 a layer-1 symbol.  detect projects once per tone and the
        reference once per symbol, so they round differently; the bound is
        a few ulps of the statistic's size."""
        const = build_constellation(M)
        sliced = []

        def recording(regions, z):
            sliced.append(z)
            return slice_statistic(regions, z)

        monkeypatch.setattr(detector, "slice_statistic", recording)
        eps = np.finfo(float).eps
        rng = np.random.default_rng([65, M])
        for n_rx, snr_db in itertools.product((1, 2, 4, 8), (-10.0, 10.0, 40.0, 120.0)):
            obs, llrs, _, _, _, _ = random_tone(
                rng, const, n_rx=n_rx, snr_db=snr_db, rho=0.5, mu=4.0
            )
            detect(obs, const, llrs)
            (z,) = sliced
            sliced.clear()
            want = np.array(
                [[residual_statistic(obs, layer, s) for s in const.symbols] for layer in (2, 1)]
            )
            expected = np.stack([want.real, want.imag], axis=1).reshape(4, M)
            assert np.abs(z - expected).max() <= 8 * eps * (np.abs(want).max() + 1)


class TestCandidateMetric:
    def test_true_pair_zero_priors_noiseless(self):
        """Zero priors, no noise, true pair: the metric vanishes."""
        rng = np.random.default_rng(43)
        const = build_constellation(16)
        obs, bits, _ = _noiseless_obs(rng, const)
        idx = [int("".join(map(str, row)), 2) for row in bits]
        llrs = uniform_priors(const.q)
        eta = pair_metric_table(obs, const, llrs)[idx[0], idx[1]]
        assert abs(eta) <= 1e-12

    def test_zero_priors_never_positive(self):
        rng = np.random.default_rng(44)
        const = build_constellation(16)
        obs, _, _, _, _, _ = random_tone(rng, const)
        table = pair_metric_table(obs, const, uniform_priors(const.q))
        for _ in range(50):
            i, j = rng.integers(0, const.M, 2)
            assert table[i, j] <= 0

    def test_matches_quadratic_norm_route(self):
        """Metric recomputed through the weighted-norm module agrees."""
        rng = np.random.default_rng(45)
        const = build_constellation(16)
        for _ in range(20):
            obs, llrs, _, ch, y, C = random_tone(rng, const, rho=0.5, mu=4.0)
            i, j = rng.integers(0, const.M, 2)
            eta = pair_metric_table(obs, const, llrs)[i, j]
            prior = (
                const.labels[i].astype(float) @ llrs.values[0]
                + const.labels[j].astype(float) @ llrs.values[1]
            )
            residual = y - ch.effective_channel @ const.symbols[[i, j]]
            expected = prior - quadratic_norm(residual, np.linalg.inv(C))
            np.testing.assert_allclose(eta, expected, atol=1e-10)


class TestLlrsFromMetrics:
    def test_all_equal_metrics_zero_llrs(self):
        const = build_constellation(16)
        out = llrs_from_metrics(np.full((1, 16), 2.5), const.split_bit_index)
        np.testing.assert_array_equal(out, np.zeros((1, 4)))

    def test_unique_maximum_dominates_signs(self):
        """L(c_n) >= 0 exactly when the best symbol has bit n set."""
        const = build_constellation(64)
        rng = np.random.default_rng(46)
        metrics = rng.uniform(-10, 0, 64)
        k0 = rng.integers(0, 64)
        metrics[k0] = 5.0
        out = llrs_from_metrics(metrics[None], const.split_bit_index)[0]
        for n in range(6):
            assert (out[n] >= 0) == bool(const.labels[k0, n])

    def test_matches_two_pass_scan(self):
        """Exact agreement with an index-by-index max scan."""
        const = build_constellation(16)
        rng = np.random.default_rng(47)
        for _ in range(50):
            metrics = rng.uniform(-20, 20, 16)
            out = llrs_from_metrics(metrics[None], const.split_bit_index)[0]
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
            out = llrs_from_metrics(metrics[None], const.split_bit_index)[0]
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
            rows = np.concatenate(
                [llrs_from_metrics(metrics[t:t + 1], const.split_bit_index) for t in range(T)]
            )
            assert stacked.shape == (T, const.q)
            assert stacked.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("shape", [(2, 15), (2, 2, 16), (17,)])
    def test_metric_shape_mismatch_named(self, shape):
        const = build_constellation(16)
        with pytest.raises(ValueError, match="one metric per labeled symbol required"):
            llrs_from_metrics(np.zeros(shape), const.split_bit_index)

    @pytest.mark.parametrize(
        "metrics", [1 + 1j * np.arange(16)[None], np.full((2, 16), 1j)], ids=["one", "two"]
    )
    def test_complex_metrics_named(self, metrics):
        """Complex metrics are refused: a float cast would drop their
        imaginary parts and give all-zero LLRs."""
        const = build_constellation(16)
        with pytest.raises(ValueError, match="metrics must be real, got complex values"):
            llrs_from_metrics(metrics, const.split_bit_index)

    def test_constant_shift_invariance(self):
        const = build_constellation(16)
        rng = np.random.default_rng(48)
        metrics = rng.uniform(-5, 5, 16)
        base = llrs_from_metrics(metrics[None], const.split_bit_index)
        shifted = llrs_from_metrics(metrics[None] + 2.0, const.split_bit_index)
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
    def test_bit_identical_to_oracle(self, M, monkeypatch):
        """Seeded battery: LLRs equal the exhaustive search's bit for bit,
        and so does every symbol's best metric, the paper's claim: the
        sliced partner scores what the best of all M partners scores.

        Both add the same ``symbol_log_priors`` and subtract the same rounded
        residual energy, so every candidate metric is the oracle's pair
        metric for that pair.  Two and four antennas, rho 0 and 0.9,
        -100 to 300 dB, and mu = 200 drives LLRs into the +-L_MAX clamp.
        """
        const = build_constellation(M)
        seen = record_llr_stage_metrics(monkeypatch)
        grid = itertools.product(
            (2, 4), (0.0, 0.9), (-100.0, 0.0, 10.0, 20.0, 120.0, 300.0), (0.0, 4.0, 16.0, 200.0)
        )
        clamped = 0
        for i, (n_rx, rho, snr, mu) in enumerate(grid):
            for t in range(6):
                rng = np.random.default_rng([63, M, i, t])
                obs, llrs, _, _, _, _ = random_tone(
                    rng, const, n_rx=n_rx, snr_db=snr, rho=rho, mu=mu
                )
                got = detect(obs, const, llrs).llrs
                assert got.tobytes() == brute_force_maxlog(obs, const, llrs).tobytes(), (
                    n_rx, rho, snr, mu, t
                )
                assert_oracle_partners(seen.pop(), obs, const, llrs)
                clamped += bool(np.any(np.abs(llrs.values) == L_MAX))
        assert clamped > 0

    @pytest.mark.parametrize("M", VALID_ORDERS)
    def test_bit_identical_to_oracle_one_and_eight_antennas(self, M, monkeypatch):
        """Seeded battery at one antenna, where the signatures are scalars,
        and at eight, where the oracle reads the pair table in several row
        blocks at M = 256: LLRs and every symbol's best metric equal the
        exhaustive search's bit for bit, mu = 200 included, which drives
        LLRs into the +-L_MAX clamp."""
        const = build_constellation(M)
        seen = record_llr_stage_metrics(monkeypatch)
        grid = itertools.product((1, 8), (-10.0, 10.0, 40.0, 120.0), (0.0, 4.0, 200.0))
        clamped = 0
        for i, (n_rx, snr, mu) in enumerate(grid):
            for t in range(4):
                rng = np.random.default_rng([66, M, i, t])
                obs, llrs, _, _, _, _ = random_tone(
                    rng, const, n_rx=n_rx, snr_db=snr, rho=0.5, mu=mu
                )
                got = detect(obs, const, llrs).llrs
                assert got.tobytes() == brute_force_maxlog(obs, const, llrs).tobytes(), (
                    n_rx, snr, mu, t
                )
                assert_oracle_partners(seen.pop(), obs, const, llrs)
                clamped += bool(np.any(np.abs(llrs.values) == L_MAX))
        assert clamped > 0

    @pytest.mark.parametrize("M", VALID_ORDERS)
    def test_tie_battery_within_gate(self, M):
        """Tie-prone tones within the 1e-6 gate of the exhaustive search.

        Small-integer signatures, observations on the half-spacing grid and
        integer LLRs, every third tone with half of them at the clamp, make
        exactly tied pair metrics likely.  At a tie the slicer's owner and the
        float argmax of the exhaustive search can differ by a rounding, so bit
        equality is not asserted; the count of unequal tones is printed.
        """
        const = build_constellation(M)
        unequal, worst = 0, 0.0
        for t in range(200):
            rng = np.random.default_rng([64, M, t])
            n_rx = (2, 4)[t % 2]
            h1 = h2 = np.zeros(n_rx)
            while not (h1.any() and h2.any()):
                h1, h2 = rng.integers(-2, 3, (2, n_rx, 2)) @ np.array([1.0, 1j])
            s1, s2 = const.symbols[rng.integers(0, M, 2)]
            offset = rng.integers(-1, 2, (n_rx, 2)) @ np.array([1.0, 1j])
            obs = WhitenedObservation(
                y=h1 * s1 + h2 * s2 + offset * const.real_axis.spacing / 2, h1=h1, h2=h2
            )
            values = rng.integers(-3, 4, (2, const.q)).astype(float)
            if t % 3 == 0:
                values[rng.random((2, const.q)) < 0.5] = L_MAX * rng.choice((-1.0, 1.0))
            llrs = clamp(values)
            got = detect(obs, const, llrs).llrs
            reference = brute_force_maxlog(obs, const, llrs)
            gap = float(np.max(np.abs(got - reference)))
            assert gap <= 1e-6, (t, gap)
            unequal += got.tobytes() != reference.tobytes()
            worst = max(worst, gap)
        print(f"M={M}: {unequal} of 200 tie-prone tones not bit-equal, worst {worst:.3e}")

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
        with pytest.raises(ValueError):
            bad = WhitenedObservation(y=np.array([np.nan + 0j, 0j]), h1=obs.h1, h2=obs.h2)
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

    @pytest.mark.parametrize("M", [4, 256])
    def test_one_call_per_stage(self, M, monkeypatch):
        """One detect call makes exactly one call to each stage function,
        through the name sisodet.detector imports: the stages are stacked,
        not called per table or per layer."""
        const = build_constellation(M)
        obs, llrs, _, _, _, _ = random_tone(np.random.default_rng([63, M]), const, mu=4.0)
        stages = ("axis_log_priors", "build_regions", "symbol_log_priors",
                  "slice_statistic", "llrs_from_metrics")
        calls = dict.fromkeys(stages, 0)

        def counted(name, stage):
            def call(*args):
                calls[name] += 1
                return stage(*args)
            return call

        for name in stages:
            monkeypatch.setattr(detector, name, counted(name, getattr(detector, name)))
        detect(obs, const, llrs)
        assert calls == dict.fromkeys(stages, 1)

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

        def build_per_table(pam, logp, gains):
            tables = [build_regions(pam, logp[t:t + 1], gains[t:t + 1]) for t in range(4)]
            return DecisionRegions(np.concatenate([r.lower for r in tables]))

        def slice_per_table(regions, z):
            return np.concatenate([
                slice_statistic(DecisionRegions(regions.lower[t:t + 1]), z[t:t + 1])
                for t in range(4)
            ])

        def llrs_per_layer(metrics, split_index):
            return np.concatenate(
                [llrs_from_metrics(metrics[t:t + 1], split_index) for t in range(2)]
            )

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
        tables = (const.bit_weights, const.split_bit_index, const.symbol_index,
                  axis.bit_weights, axis.pair_midpoints, axis.pair_gaps, axis.below)
        refs = [weakref.ref(table) for table in tables]
        del const, axis, tables
        gc.collect()
        assert all(ref() is None for ref in refs)
