"""Acceptance criteria, one test per criterion.

Each test prints one PASS/FAIL line (visible regardless of capture mode)
and pins its tolerance explicitly.  Criteria 2 and 3 share one large
randomized battery; expect the whole module to run for a few minutes.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from sisodet import (
    brute_force_maxlog,
    build_constellation,
    clamp,
    detect,
    uniform_priors,
)
from sisodet.oracle import argmax_slice_oracle, quadratic_norm
from sisodet.priors import axis_log_priors
from sisodet.simcli import main
from sisodet.slicer import build_regions, slice_statistic, upper_bounds
from helpers import random_hermitian_pd, random_tone

MASTER_SEED = 20240817
EXACTNESS_TOL = 1e-6
MIDPOINT_TOL = 1e-12
WHITENING_RTOL = 1e-10

BATTERY_PLAN = [(4, 10_000), (16, 10_000), (64, 10_000), (256, 1_000)]
RHOS = (0.0, 0.5)
MUS = (0.0, 1.0, 4.0, 16.0)
SNRS_DB = (0.0, 10.0, 20.0)


@contextmanager
def criterion(capsys, number: int, name: str):
    try:
        yield
    except Exception:
        with capsys.disabled():
            print(f"\nACCEPTANCE {number} ({name}): FAIL")
        raise
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} ({name}): PASS")


def _any_axis_pruned(const, llrs, obs) -> bool:
    pam = const.real_axis
    gains = (obs.gain1, obs.gain1, obs.gain2, obs.gain2)
    return bool(build_regions(pam, axis_log_priors(llrs, pam), gains).empty.any())


@pytest.fixture(scope="module")
def battery():
    """Detector vs exhaustive reference over the full randomized grid.

    Collects statistics only; the criterion tests own the assertions.
    """
    stats = {}
    for M, tones in BATTERY_PLAN:
        const = build_constellation(M)
        ceiling = 4 * M - 2 * int(math.isqrt(M))
        worst = 0.0
        pruned_tones = 0
        count_violations = 0
        equality_violations = 0
        for t in range(tones):
            rng = np.random.default_rng([MASTER_SEED, M, t])
            obs, llrs, _, _, _, _ = random_tone(
                rng,
                const,
                snr_db=SNRS_DB[(t // 8) % 3],
                rho=RHOS[t % 2],
                mu=MUS[(t // 2) % 4],
            )
            result = detect(obs, const, llrs)
            reference = brute_force_maxlog(obs, const, llrs)
            worst = max(worst, float(np.max(np.abs(result.llrs - reference))))

            if (
                result.candidate_metric_count != 2 * M
                or result.total_metric_count > ceiling
            ):
                count_violations += 1
            if _any_axis_pruned(const, llrs, obs):
                pruned_tones += 1
            elif result.total_metric_count != ceiling:
                equality_violations += 1
        stats[M] = dict(
            worst=worst,
            tones=tones,
            pruned_tones=pruned_tones,
            count_violations=count_violations,
            equality_violations=equality_violations,
        )
    return stats


class TestAcceptance:
    def test_1_count_model_table(self, capsys):
        """Criterion 1: the nine closed-form counts for M=256, N_r=2."""
        with criterion(capsys, 1, "count-model table, integer exact"):
            from sisodet import predicted_counts

            expected = {
                "proposed": (992, 12768, 16732),
                "tlord": (1536, 20480, 23548),
                "brute": (65536, 524288, 785408),
            }
            for kind, (metrics, muls, adds) in expected.items():
                est = predicted_counts(kind, 256, 2)
                assert est.metrics == metrics
                assert est.real_muls == muls
                assert est.real_adds == adds

    def test_2_exactness_vs_brute_force(self, capsys, battery):
        """Criterion 2: LLRs match the exhaustive search within 1e-6."""
        with criterion(capsys, 2, "exactness vs exhaustive search <= 1e-6"):
            for M, stat in battery.items():
                assert stat["worst"] <= EXACTNESS_TOL, (M, stat["worst"])
            with capsys.disabled():
                for M, stat in battery.items():
                    print(
                        f"\n  M={M}: {stat['tones']} tones, "
                        f"max discrepancy {stat['worst']:.3e}"
                    )

    def test_3_metric_count_law(self, capsys, battery):
        """Criterion 3: 2M candidate metrics, total <= 4M - 2 sqrt(M) with
        equality absent pruning, and a constructed strict saving."""
        with criterion(capsys, 3, "metric-count law 4M - 2 sqrt(M)"):
            for M, stat in battery.items():
                assert stat["count_violations"] == 0, (M, stat)
                assert stat["equality_violations"] == 0, (M, stat)
            # strong one-sided feedback on the layer-2 real axis prunes two
            # amplitudes, skipping their mutual threshold
            const = build_constellation(16)
            rng = np.random.default_rng(MASTER_SEED)
            obs, _, _, _, _, _ = random_tone(rng, const)
            llrs = clamp(np.array([[0.0] * 4, [0.0, -40.0, 0.0, 0.0]]))
            result = detect(obs, const, llrs)
            assert result.candidate_metric_count == 32
            assert result.total_metric_count < 56
            reference = brute_force_maxlog(obs, const, llrs)
            assert float(np.max(np.abs(result.llrs - reference))) <= EXACTNESS_TOL

    def test_4_uniform_prior_reduction(self, capsys):
        """Criterion 4: zero LLRs give midpoint thresholds to 1e-12 and the
        zero-prior exhaustive result."""
        with criterion(capsys, 4, "uniform-prior reduction to midpoints"):
            rng = np.random.default_rng(MASTER_SEED + 1)
            for M in (4, 16, 64, 256):
                pam = build_constellation(M).real_axis
                zeros = np.zeros((1, pam.L))
                for _ in range(20):
                    gain = [rng.uniform(0.01, 20)]
                    regions = build_regions(pam, zeros, gain)
                    (upper,) = upper_bounds(pam, zeros, gain)
                    assert not regions.empty.any()
                    for k in range(pam.L - 1):
                        mid = (pam.points[k] + pam.points[k + 1]) / 2
                        assert abs(regions.lower[0, k] - mid) <= MIDPOINT_TOL
                        assert abs(upper[k + 1] - mid) <= MIDPOINT_TOL
            for M in (4, 16, 64):
                const = build_constellation(M)
                llrs = uniform_priors(const.q)
                for t in range(100):
                    rng_t = np.random.default_rng([MASTER_SEED + 2, M, t])
                    obs, _, _, _, _, _ = random_tone(
                        rng_t, const, snr_db=10.0, rho=RHOS[t % 2]
                    )
                    result = detect(obs, const, llrs)
                    reference = brute_force_maxlog(obs, const, llrs)
                    assert float(np.max(np.abs(result.llrs - reference))) <= EXACTNESS_TOL

    def test_5_empty_region_soundness(self, capsys):
        """Criterion 5: over 1000 random axes, slicing equals the argmax
        oracle on a dense grid, pruned amplitudes never win, and the
        surviving intervals tile the line."""
        with criterion(capsys, 5, "empty-region pruning soundness"):
            rng = np.random.default_rng(MASTER_SEED + 3)
            orders = (4, 16, 64, 256)
            total_instances = 0
            total_pruned = 0
            for M in orders:
                pam = build_constellation(M).real_axis
                grid = np.linspace(
                    pam.points[-1] - 5 * pam.spacing,
                    pam.points[0] + 5 * pam.spacing,
                    2001,
                )
                for _ in range(250):
                    total_instances += 1
                    logp = rng.uniform(-50, 50, pam.L)
                    gain = rng.uniform(0.02, 8)
                    regions = build_regions(pam, logp[None], [gain])
                    (upper,) = upper_bounds(pam, logp[None], [gain])
                    (lower,), (empty,) = regions.lower, regions.empty
                    winners = argmax_slice_oracle(pam, logp, gain, grid)
                    np.testing.assert_array_equal(
                        slice_statistic(regions, grid[None])[0], winners
                    )
                    pruned = np.flatnonzero(empty)
                    total_pruned += pruned.size
                    assert not np.any(np.isin(winners, pruned))
                    keep = np.flatnonzero(~empty)
                    assert upper[keep[0]] == np.inf
                    assert lower[keep[-1]] == -np.inf
                    for a, b in zip(keep[:-1], keep[1:]):
                        assert lower[a] == upper[b]
                        assert lower[a] < upper[a]
            assert total_instances >= 1000
            assert total_pruned > 0  # the battery must actually exercise pruning

    def test_6_whitening_invariance(self, capsys):
        """Criterion 6: weighted and whitened residual norms agree to 1e-10
        relative over 1000 random instances."""
        with criterion(capsys, 6, "whitening invariance <= 1e-10 relative"):
            rng = np.random.default_rng(MASTER_SEED + 4)
            const = build_constellation(16)
            from sisodet import generate_channel, make_channel, whiten

            for i in range(1000):
                n_rx = (2, 3, 4)[i % 3]
                Q = random_hermitian_pd(rng, n_rx)
                ch = make_channel(
                    generate_channel(rng, n_rx), np.linalg.inv(Q)
                )
                y = rng.standard_normal(n_rx) + 1j * rng.standard_normal(n_rx)
                s = rng.choice(const.symbols, 2)
                obs = whiten(y, ch)
                weighted = quadratic_norm(
                    y - ch.effective_channel @ s, Q
                )
                plain = float(
                    np.sum(np.abs(obs.y - obs.h1 * s[0] - obs.h2 * s[1]) ** 2)
                )
                assert abs(weighted - plain) <= WHITENING_RTOL * max(
                    1.0, abs(weighted)
                )

    def test_7_feedback_ber_property(self, capsys):
        """Criterion 7: at fixed mid-range SNR over >= 1e5 bits, BER is
        non-increasing in feedback reliability, and detector and reference
        agree sign-for-sign on every bit."""
        with criterion(capsys, 7, "feedback helps, signs match reference"):
            const = build_constellation(16)
            tones_per_mu = 12_500  # 2 * 4 bits per tone -> 1e5 bits per point
            snr_db = 8.0
            bers = []
            for mu in (0.0, 2.0, 8.0):
                errors = 0
                for t in range(tones_per_mu):
                    rng = np.random.default_rng([MASTER_SEED + 5, int(mu), t])
                    obs, llrs, bits, _, _, _ = random_tone(
                        rng, const, snr_db=snr_db, rho=0.5, mu=mu
                    )
                    result = detect(obs, const, llrs)
                    reference = brute_force_maxlog(obs, const, llrs)
                    det_bits = (result.llrs > 0).astype(int)
                    ref_bits = (reference > 0).astype(int)
                    np.testing.assert_array_equal(det_bits, ref_bits)
                    errors += int(np.sum(det_bits != bits))
                bers.append(errors / (tones_per_mu * 2 * const.q))
            assert bers[0] >= bers[1] >= bers[2], bers
            with capsys.disabled():
                print(f"\n  BER at mu=0/2/8: {bers[0]:.4f} {bers[1]:.4f} {bers[2]:.4f}")

    def test_8_cli_determinism(self, capsys, tmp_path):
        """Criterion 8: repeated CLI invocations with one seed produce
        byte-identical output files."""
        with criterion(capsys, 8, "byte-identical CLI reruns"):
            invocations = [
                [
                    "simulate", "--M", "16", "--tones", "40", "--snr-db", "5,12",
                    "--mu", "0,4", "--seed", "21", "--rho", "0.5",
                ],
                [
                    "verify", "--M", "4", "--tones", "40", "--snr-db", "10",
                    "--mu", "0,2", "--seed", "22",
                ],
                ["regions", "--M", "16", "--llr", "0,0,0,0,0,-45,0,0", "--seed", "23"],
                ["complexity", "--M", "4,16,64,256", "--nr", "2"],
            ]
            for k, args in enumerate(invocations):
                out1 = tmp_path / f"first_{k}.out"
                out2 = tmp_path / f"second_{k}.out"
                assert main(args + ["--out", str(out1)]) == 0
                assert main(args + ["--out", str(out2)]) == 0
                assert out1.read_bytes() == out2.read_bytes()
                assert out1.stat().st_size > 0
