"""Tests for the closed-form operation-count model."""

import numpy as np
import pytest

from sisodet import build_constellation, clamp, detect, predicted_counts
from helpers import random_tone


class TestPredictedCounts:
    def test_256qam_two_antennas_snapshot(self):
        """The nine counts for M=256, N_r=2, integer exact."""
        proposed = predicted_counts("proposed", 256, 2)
        tlord = predicted_counts("tlord", 256, 2)
        brute = predicted_counts("brute", 256, 2)
        assert (proposed.metrics, proposed.real_muls, proposed.real_adds) == (
            992,
            12768,
            16732,
        )
        assert (tlord.metrics, tlord.real_muls, tlord.real_adds) == (
            1536,
            20480,
            23548,
        )
        assert (brute.metrics, brute.real_muls, brute.real_adds) == (
            65536,
            524288,
            785408,
        )

    def test_smallest_order(self):
        assert predicted_counts("proposed", 4, 2).metrics == 12

    @pytest.mark.parametrize("M", [4, 16, 64, 256])
    @pytest.mark.parametrize("n_rx", [2, 4])
    def test_ordering(self, M, n_rx):
        """Slicing always beats the list detector; the list detector beats
        the exhaustive search except at the smallest order."""
        proposed = predicted_counts("proposed", M, n_rx)
        tlord = predicted_counts("tlord", M, n_rx)
        brute = predicted_counts("brute", M, n_rx)
        assert proposed.metrics < tlord.metrics
        assert proposed.metrics < brute.metrics
        if M >= 16:
            assert tlord.metrics < brute.metrics
        else:
            assert tlord.metrics == 24 and brute.metrics == 16

    @pytest.mark.parametrize("M", [4, 16, 64, 256])
    def test_q_metadata(self, M):
        est = predicted_counts("proposed", M, 2)
        assert est.q == int(np.log2(M))

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            predicted_counts("proposed", 8, 2)

    @pytest.mark.parametrize("integer", [np.int64, np.int32])
    def test_numpy_integer_order(self, integer):
        est = predicted_counts("proposed", integer(16), 2)
        assert est == predicted_counts("proposed", 16, 2)
        assert type(est.M) is int

    @pytest.mark.parametrize("bad", [16.0, "16"])
    def test_non_integral_order_named(self, bad):
        with pytest.raises(ValueError, match=rf"constellation order .* got {bad!r}$"):
            predicted_counts("proposed", bad, 2)

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            predicted_counts("exact", 16, 2)

    def test_invalid_antennas(self):
        with pytest.raises(ValueError):
            predicted_counts("proposed", 16, 1)

    @pytest.mark.parametrize("bad", [2.5, "2"])
    def test_non_integral_antennas_named(self, bad):
        """Not evaluated into a float count, nor left to a raw TypeError."""
        with pytest.raises(ValueError, match=rf"receive antenna count must be an integer, got {bad!r}$"):
            predicted_counts("proposed", 16, bad)

    def test_numpy_integer_antennas(self):
        est = predicted_counts("proposed", 16, np.int64(2))
        assert est == predicted_counts("proposed", 16, 2)
        assert type(est.n_rx) is int and type(est.real_muls) is int


class TestMeasuredVsPredicted:
    def test_no_pruning_tone_hits_ceiling(self):
        rng = np.random.default_rng(70)
        const = build_constellation(16)
        obs, llrs, _, _, _, _ = random_tone(rng, const, mu=0.0)
        measured = detect(obs, const, llrs).total_metric_count
        predicted = predicted_counts("proposed", 16, 2).metrics
        assert predicted == 56
        assert measured == 56
        assert predicted - measured == 0

    def test_pruning_tone_under_ceiling(self):
        rng = np.random.default_rng(71)
        const = build_constellation(16)
        obs, _, _, _, _, _ = random_tone(rng, const)
        llrs = clamp(np.array([[0.0] * 4, [0.0, -40.0, 0.0, 0.0]]))
        measured = detect(obs, const, llrs).total_metric_count
        predicted = predicted_counts("proposed", 16, 2).metrics
        assert measured < predicted
        assert predicted - measured > 0

    def test_candidate_count_always_2m(self):
        const = build_constellation(16)
        for t in range(50):
            rng = np.random.default_rng([72, t])
            obs, llrs, _, _, _, _ = random_tone(rng, const, mu=(0.0, 8.0)[t % 2])
            assert detect(obs, const, llrs).candidate_metric_count == 32
