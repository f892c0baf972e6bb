"""Tests for the Monte-Carlo harness and its four subcommands."""

import dataclasses
import hashlib
import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sisodet
from sisodet import build_constellation, clamp, detect, uniform_priors
from sisodet.channel import NoiseModel
from sisodet.oracle import pairwise_boundary
from sisodet.priors import axis_log_priors
from sisodet.simcli import (
    SimConfig,
    UsageError,
    _build_parser,
    _config_from_args,
    draw_tone,
    load_config_file,
    main,
    noise_covariance,
    run_regions,
    run_simulate,
    run_verify,
    sigma2_from_snr_db,
    tone_rng,
)
from helpers import build_regions_walk, count_cholesky


def small_config(**overrides) -> SimConfig:
    base = dict(
        M=4,
        n_rx=2,
        snr_db_list=(10.0,),
        mu_list=(0.0,),
        tones=50,
        seed=7,
        rho=0.0,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestRunVerify:
    def test_passes_and_reports(self):
        cfg = small_config(M=16, mu_list=(0.0, 4.0), rho=0.5, tones=100)
        status, report = run_verify(cfg)
        assert status == 0
        assert "RESULT: PASS" in report
        assert "max_llr_discrepancy" in report

    def test_report_bytes_reproducible(self):
        cfg = small_config(tones=30)
        _, first = run_verify(cfg)
        _, second = run_verify(small_config(tones=30))
        assert first == second

    def test_invalid_order_rejected(self):
        with pytest.raises(UsageError):
            run_verify(small_config(M=3))


class TestRunSimulate:
    def test_mu_zero_is_pure_ml(self):
        """The mu=0 row reproduces detection with no prior information."""
        cfg = small_config(M=16, tones=200, snr_db_list=(8.0,))
        status, records, _ = run_simulate(cfg)
        assert status == 0
        const = build_constellation(16)
        model = NoiseModel(noise_covariance(sigma2_from_snr_db(8.0), cfg.rho, cfg.n_rx))
        errors = 0
        for t in range(cfg.tones):
            data = draw_tone(tone_rng(cfg.seed, 0, t), const, model, 0.0)
            result = detect(data.obs, const, uniform_priors(const.q))
            errors += int(np.sum((result.llrs > 0).astype(int) != data.bits))
        assert records[0].bit_errors_detector == errors

    def test_feedback_reduces_errors(self):
        """Genie feedback never hurts: BER(mu=8) <= BER(mu=0)."""
        cfg = small_config(M=16, tones=400, snr_db_list=(8.0,), mu_list=(0.0, 8.0))
        status, records, _ = run_simulate(cfg)
        assert status == 0
        by_mu = {rec.mu: rec for rec in records}
        assert by_mu[8.0].ber <= by_mu[0.0].ber

    def test_detector_and_oracle_errors_match(self):
        cfg = small_config(M=16, tones=200, snr_db_list=(6.0,), mu_list=(2.0,), rho=0.5)
        _, records, _ = run_simulate(cfg)
        for rec in records:
            assert rec.bit_errors_detector == rec.bit_errors_oracle
            assert rec.max_llr_discrepancy_vs_oracle <= 1e-6

    def test_high_snr_error_free(self):
        cfg = small_config(M=4, tones=2000, snr_db_list=(40.0,))
        _, records, _ = run_simulate(cfg)
        assert records[0].bit_errors_detector == 0

    def test_csv_shape(self):
        cfg = small_config(tones=10, snr_db_list=(0.0, 10.0), mu_list=(0.0, 2.0))
        _, records, text = run_simulate(cfg)
        lines = text.strip().split("\n")
        assert len(records) == 4
        assert len(lines) == 5
        assert lines[0].startswith("snr_db,mu,tones")
        assert all(len(line.split(",")) == 8 for line in lines)


class TestRunRegions:
    def test_zero_llrs_midpoint_rows(self):
        cfg = small_config(M=16)
        text = run_regions(cfg, np.zeros(8))
        lines = text.strip().split("\n")
        assert lines[0] == "axis,layer,symbol_index,point,lower,upper,empty"
        assert len(lines) == 1 + 4 * 4  # two layers x two axes x four amplitudes
        points = build_constellation(16).real_axis.points
        first = lines[1].split(",")
        assert first[:3] == ["real", "1", "0"]
        np.testing.assert_allclose(float(first[4]), (points[0] + points[1]) / 2)
        assert first[5] == "inf"
        assert all(line.endswith("false") for line in lines[1:])

    def test_pruning_produces_empty_rows(self):
        cfg = small_config(M=16, snr_db_list=(0.0,))
        text = run_regions(cfg, [0, 0, 0, 0, 0, -45.0, 0, 0])
        assert any(line.endswith("true") for line in text.strip().split("\n")[1:])

    def test_round_trip_parse(self):
        """Every emitted row parses back to floats and booleans."""
        cfg = small_config(M=64)
        text = run_regions(cfg, np.linspace(-3, 3, 12))
        for line in text.strip().split("\n")[1:]:
            axis, layer, idx, point, lower, upper, empty = line.split(",")
            assert axis in ("real", "imag")
            assert int(layer) in (1, 2)
            assert 0 <= int(idx) < 8
            float(point), float(lower), float(upper)
            assert empty in ("true", "false")

    @pytest.mark.parametrize(
        "M, snr_db, llr, pruned",
        [
            (16, 0.0, [0, 0, 0, 0, 0, -45.0, 0, 0], True),
            (64, 30.0, np.linspace(-3, 3, 12), False),
        ],
        ids=["pruned", "unpruned"],
    )
    def test_rows_match_walk_reference(self, M, snr_db, llr, pruned):
        """Every row is the pair-by-pair walk's table for that layer's gain,
        in the order layer 1 real, layer 1 imag, layer 2 real, layer 2 imag."""
        cfg = small_config(M=M, snr_db_list=(snr_db,))
        const = build_constellation(M)
        pam = const.real_axis
        model = NoiseModel(noise_covariance(sigma2_from_snr_db(snr_db), cfg.rho, cfg.n_rx))
        obs = draw_tone(tone_rng(cfg.seed, 0, 0), const, model, cfg.mu_list[0]).obs
        llrs = clamp(np.reshape(np.asarray(llr, float), (2, const.q)))
        gains = (obs.gain1, obs.gain1, obs.gain2, obs.gain2)
        walk = build_regions_walk(pam, axis_log_priors(llrs, pam), gains)
        expected = []
        for t in range(4):  # layer 1 real, layer 1 imag, layer 2 real, layer 2 imag
            layer, axis = t // 2 + 1, ("real", "imag")[t % 2]
            for k, point in enumerate(pam.points):
                values = (point, walk.lower[t, k], walk.upper[t, k])
                bounds = ",".join(format(float(v), ".17g") for v in values)
                flag = "true" if walk.empty[t, k] else "false"
                expected.append(f"{axis},{layer},{k},{bounds},{flag}")
        rows = run_regions(cfg, llr).splitlines()[1:]
        assert rows == expected
        assert any(row.endswith("true") for row in rows) == pruned

    def test_wrong_llr_count_rejected(self):
        with pytest.raises(UsageError):
            run_regions(small_config(M=16), np.zeros(6))

    def test_snr_range_checked_before_count(self):
        """The count is checked after the config's own checks, so an SNR
        out of range is reported as such, even in a list of two."""
        with pytest.raises(UsageError, match=r"values must lie in \[-100, 300\] dB"):
            run_regions(small_config(snr_db_list=(0.0, 5000.0)), np.zeros(4))

    @pytest.mark.parametrize(
        "flags, config, got",
        [
            (["--snr-db", "0,30"], None, "[0.0, 30.0]"),
            (["--snr-db", "10,10"], None, "[10.0, 10.0]"),
            ([], "snr_db = 0, 30\n", "[0.0, 30.0]"),
        ],
        ids=["flag", "flag-duplicate", "config"],
    )
    def test_several_snrs_exit_two(self, flags, config, got, tmp_path, capsys):
        """One tone is drawn, so a second SNR, from the flag or the config
        key, is a usage error rather than dropped unread."""
        if config is not None:
            path = tmp_path / "regions.cfg"
            path.write_text(config)
            flags = ["--config", str(path)]
        assert main(["regions", "--M", "4", "--llr", "0,0,0,0", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: snr_db (--snr-db) must be one SNR for regions, got {got}\n"

    def test_help_says_one_snr(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["regions", "--help"])
        assert exit_.value.code == 0
        assert "SNR of the one tone, in dB" in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize(
        "M, llr, flags, digest",
        [
            ("4", "0,0,0,-45", (), "c92a140eb88ac2cd181d0f63cbb311cc97bb388d6aace19b20bb8063f48154e9"),
            (
                "16",
                "0,0,0,0,0,-45,0,0",
                (),
                "938a1fdfdc1d6c6eb50facae9d8411fd33274c0c3e900dfff7ef356a4112b86a",
            ),
            (
                "256",
                "0,0,0,-45,0,0,0,0,3,-3,50,-50,0,0,0,0",
                (),
                "1252976ba821d3728f1247cf8d3d0f5ccc1a3c36a0d434628d6ff34dfda8f1a3",
            ),
            (
                "16",
                "0,0,0,0,0,-45,0,0",
                ("--nr", "4", "--rho", "0.9", "--snr-db", "20"),
                "9da6c6c8e125b78919e9578ed79ea19f2faa6e4eadee5e6a9147c5f3a60ddc34",
            ),
        ],
        ids=["M4", "M16", "M256", "M16-correlated"],
    )
    def test_smoke_commands_byte_identical(self, M, llr, flags, digest, capsys):
        """The console smoke run's ``regions`` commands print the bytes they
        printed while the upper bounds were a ``DecisionRegions`` property
        (sha256 of stdout); the correlated one whitens four antennas with
        strongly correlated noise, which the others, at rho = 0, do not."""
        assert main(["regions", "--M", M, "--llr", llr, *flags]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestMainCli:
    def test_smoke_simulate_byte_identical(self, capsys):
        """The console smoke run's ``simulate`` command prints fixed bytes
        (sha256 of stdout), so every tone's ``(seed, point, tone)`` stream
        draws the same channel, bits, noise and feedback."""
        argv = ["simulate", "--M", "16", "--tones", "20", "--snr-db", "0,10", "--mu", "0,4", "--rho", "0.5"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        digest = "cd3525c9a0c1530630c34acddd1d5412adf1123b1acbc9ebc05255569b898d2d"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_transmit_antenna_flag_gone(self, capsys):
        """Two layers are two channel columns: there is no ``--nt``."""
        with pytest.raises(SystemExit) as exit_:
            main(["verify", "--nt", "2", "--tones", "2"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --nt 2" in capsys.readouterr().err

    def test_verify_exit_zero(self, capsys):
        assert main(["verify", "--M", "4", "--tones", "20", "--seed", "3"]) == 0
        assert "RESULT: PASS" in capsys.readouterr().out

    def test_invalid_order_exit_two(self, capsys):
        assert main(["verify", "--M", "3", "--tones", "5"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_llr_exit_two(self, capsys):
        assert main(["regions", "--M", "16", "--llr", "1,2,oops"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_nan_llr_exit_two(self, capsys):
        """A NaN LLR fails the one LLR check, in AprioriLLRs: exit 2 with one
        error line naming its rule, and nothing on stdout."""
        assert main(["regions", "--M", "16", "--llr", "0,nan,0,0,0,0,0,0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a-priori LLRs must be within +-50, not NaN, got nan\n"

    def test_complexity_output(self, tmp_path):
        out = tmp_path / "counts.csv"
        assert main(["complexity", "--M", "256", "--nr", "2", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "kind,M,Nr,metrics,muls,adds"
        assert "proposed,256,2,992,12768,16732" in lines
        assert "tlord,256,2,1536,20480,23548" in lines
        assert "brute,256,2,65536,524288,785408" in lines

    def test_simulate_writes_byte_identical_files(self, tmp_path):
        args = [
            "simulate",
            "--M",
            "4",
            "--tones",
            "50",
            "--snr-db",
            "5,15",
            "--mu",
            "0,4",
            "--seed",
            "11",
            "--rho",
            "0.5",
        ]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_verify_report_files_byte_identical(self, tmp_path):
        args = ["verify", "--M", "16", "--tones", "25", "--seed", "9", "--mu", "0,2"]
        out1 = tmp_path / "r1.txt"
        out2 = tmp_path / "r2.txt"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_config_file_overrides_flags(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("M = 16\ntones = 10  # small run\nseed = 4\n")
        out = tmp_path / "sim.csv"
        assert (
            main(
                [
                    "simulate",
                    "--M",
                    "4",
                    "--tones",
                    "99",
                    "--out",
                    str(out),
                    "--config",
                    str(config),
                ]
            )
            == 0
        )
        row = out.read_text().strip().split("\n")[1].split(",")
        assert row[2] == "10"  # tones from the config file, not the flag
        # M=16 gives 8 bits per tone; ber = errors / (10 * 8)
        assert float(row[5]) == int(row[3]) / 80

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--seed", "-1", "--tones", "2"],
            ["regions", "--seed", "-3", "--llr", "0,0,0,0,0,0,0,0"],
        ],
    )
    def test_negative_seed_exit_two(self, argv, capsys):
        """A usage error, not numpy's traceback from the tone stream."""
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: seed must be nonnegative, got {argv[2]}\n"

    def test_unwritable_out_exit_two(self, tmp_path, capsys):
        path = str(tmp_path / "missing" / "sim.csv")
        assert main(["simulate", "--M", "4", "--tones", "2", "--out", path]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write output file {path!r}: ")

    def test_regions_unwritable_out_exit_two(self, tmp_path, capsys):
        """`regions` has no early out check: the write itself fails, named."""
        path = str(tmp_path / "missing" / "r.csv")
        assert main(["regions", "--M", "16", "--llr", "0,0,0,0,0,-45,0,0", "--out", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write output file {path!r}: ")

    def test_complexity_one_receive_antenna_exit_two(self, capsys):
        assert main(["complexity", "--M", "16", "--nr", "1"]) == 2
        assert capsys.readouterr().err == "error: need at least two receive antennas, got 1\n"

    def test_empty_list_exit_two(self, capsys):
        assert main(["verify", "--snr-db", ","]) == 2
        assert capsys.readouterr().err == "error: --snr-db list is empty\n"

    def test_missing_config_file_exit_two(self, tmp_path, capsys):
        path = str(tmp_path / "missing.cfg")
        assert main(["verify", "--config", path]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read config file {path!r}: ")

    def test_config_line_without_equals_exit_two(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("tones\n")
        assert main(["verify", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"error: {config}:1: expected `key = value`, got 'tones'\n"

    def test_bad_config_bool_exit_two(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("verify_first = maybe\n")
        assert main(["simulate", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            "error: bad value for config key 'verify_first': expected true/false\n"
        )

    def test_config_blank_and_comment_lines_skipped(self, tmp_path, capsys):
        """A file with blank lines and comment-only lines parses as without
        them, and runs as the flags it names."""
        config = tmp_path / "run.cfg"
        config.write_text("# a short sweep\n\nM = 16\n   \n  # indented\ntones = 3\n\n")
        assert load_config_file(str(config)) == {"M": "16", "tones": "3"}
        assert main(["verify", "--config", str(config)]) == 0
        from_config = capsys.readouterr()
        assert main(["verify", "--M", "16", "--tones", "3"]) == 0
        assert capsys.readouterr() == from_config

    def test_config_value_replaces_malformed_flag(self, tmp_path, capsys):
        """The file's key is set on the flag before the flag is parsed."""
        config = tmp_path / "grid.cfg"
        config.write_text("mu = 0, 4\n")
        argv = ["verify", "--M", "4", "--tones", "3"]
        assert main([*argv, "--mu", "0,x", "--config", str(config)]) == 0
        from_config = capsys.readouterr()
        assert main([*argv, "--mu", "0,4"]) == 0
        assert capsys.readouterr() == from_config

    def test_unknown_config_key_exit_two(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("tones_per_point = 10\n")
        assert main(["verify", "--config", str(config)]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_transmit_antenna_config_key_unknown(self, tmp_path, capsys):
        config = tmp_path / "nt.cfg"
        config.write_text("nt = 2\n")
        assert main(["verify", "--tones", "2", "--config", str(config)]) == 2
        assert capsys.readouterr().err == "error: unknown config key 'nt'\n"

    @pytest.mark.parametrize("flag", [["--tones", "7"], ["--mu", "4"]])
    def test_regions_rejects_sweep_flags(self, flag, capsys):
        """`regions` draws one fixed tone, so the sweep flags are usage errors."""
        with pytest.raises(SystemExit) as exit_:
            main(["regions", "--M", "16", "--llr", "0,0,0,0,0,-45,0,0", *flag])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_verify_rejects_verify_first_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["verify", "--tones", "2", "--no-verify-first"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --no-verify-first" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, line",
        [
            (["regions", "--M", "16", "--llr", "0,0,0,0,0,-45,0,0"], "tones = 7"),
            (["regions", "--M", "16", "--llr", "0,0,0,0,0,-45,0,0"], "mu = 4"),
            (["regions", "--M", "16", "--llr", "0,0,0,0,0,-45,0,0"], "verify_first = false"),
            (["verify", "--tones", "2"], "verify_first = false"),
        ],
    )
    def test_config_key_unused_by_subcommand_exit_two(self, command, line, tmp_path, capsys):
        """A config key without a flag on the subcommand is a usage error
        naming the key and the subcommand, not silently ignored."""
        config = tmp_path / "run.cfg"
        config.write_text(line + "\n")
        assert main([*command, "--config", str(config)]) == 2
        key = line.split(" = ")[0]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: config key {key!r} is not used by {command[0]}\n"

    @pytest.mark.parametrize(
        "argv, lines, flags",
        [
            (["verify", "--M", "4"], "tones = 3\nmu = 0, 4\nseed = 5\n",
             ["--tones", "3", "--mu", "0,4", "--seed", "5"]),
            (["simulate", "--M", "4"], "tones = 3\nmu = 0, 4\nverify_first = false\n",
             ["--tones", "3", "--mu", "0,4", "--no-verify-first"]),
            (["regions", "--llr", "0,0,0,0,0,-45,0,0"], "M = 16\nseed = 5\nsnr_db = 3\nrho = 0.5\n",
             ["--M", "16", "--seed", "5", "--snr-db", "3", "--rho", "0.5"]),
        ],
    )
    def test_config_keys_used_by_subcommand_match_flags(self, argv, lines, flags, tmp_path, capsys):
        """Every key a subcommand uses gives the same output as its flag."""
        config = tmp_path / "run.cfg"
        config.write_text(lines)
        assert main([*argv, "--config", str(config)]) == 0
        from_config = capsys.readouterr()
        assert main([*argv, *flags]) == 0
        assert capsys.readouterr() == from_config

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["simulate", "--snr-db", "nan", "--tones", "2"], "--snr-db"),
            (["simulate", "--mu", "inf", "--tones", "2"], "--mu"),
            (["verify", "--snr-db", "inf", "--tones", "2"], "--snr-db"),
        ],
    )
    def test_non_finite_grid_exit_two(self, argv, flag, capsys):
        """Rejected as a usage error naming the flag, not a traceback."""
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert flag in err

    @pytest.mark.parametrize(
        "line, key", [("snr_db = 0, nan", "snr_db"), ("mu = inf", "mu")]
    )
    def test_non_finite_config_value_exit_two(self, line, key, tmp_path, capsys):
        """The same rejection through --config names the config key too."""
        config = tmp_path / "grid.cfg"
        config.write_text(line + "\n")
        assert main(["simulate", "--tones", "2", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"{key} (--" in err

    @pytest.mark.parametrize(
        "argv", [["verify"], ["simulate"], ["regions", "--llr", "0,0,0,0"]]
    )
    def test_omitted_flags_take_library_defaults(self, argv):
        """Each default is written once, in SimConfig: a flag left out
        gives the same configuration as a library SimConfig()."""
        assert _config_from_args(_build_parser().parse_args(argv)) == SimConfig()

    @pytest.mark.parametrize(
        "argv, lines, flags, expected",
        [
            (
                ["verify"],
                "M = 4\nnr = 3\nsnr_db = 0, 20\nmu = 0, 4\ntones = 3\nseed = 5\nrho = 0.5\n"
                "out = r.txt\n",
                ["--M", "4", "--nr", "3", "--snr-db", "0,20", "--mu", "0,4", "--tones", "3",
                 "--seed", "5", "--rho", "0.5", "--out", "r.txt"],
                SimConfig(4, 3, (0.0, 20.0), (0.0, 4.0), 3, 5, 0.5, True),
            ),
            (
                ["simulate"],
                "M = 4\nnr = 3\nsnr_db = 0, 20\nmu = 0, 4\ntones = 3\nseed = 5\nrho = 0.5\n"
                "out = s.csv\nverify_first = false\n",
                ["--M", "4", "--nr", "3", "--snr-db", "0,20", "--mu", "0,4", "--tones", "3",
                 "--seed", "5", "--rho", "0.5", "--out", "s.csv", "--no-verify-first"],
                SimConfig(4, 3, (0.0, 20.0), (0.0, 4.0), 3, 5, 0.5, False),
            ),
            (
                ["regions", "--llr", "0,0,0,0"],
                "M = 4\nnr = 3\nsnr_db = 20\nseed = 5\nrho = 0.5\nout = g.csv\n",
                ["--M", "4", "--nr", "3", "--snr-db", "20", "--seed", "5", "--rho", "0.5",
                 "--out", "g.csv"],
                SimConfig(M=4, n_rx=3, snr_db_list=(20.0,), seed=5, rho=0.5),
            ),
        ],
    )
    def test_every_config_key_sets_its_field(self, argv, lines, flags, expected, tmp_path):
        """A config file that sets every key a subcommand takes gives the
        configuration that the same values as flags give, with every field
        the key's table entry names set."""
        config = tmp_path / "run.cfg"
        config.write_text(lines)
        parse = _build_parser().parse_args
        from_config = _config_from_args(parse([*argv, "--config", str(config)]))
        assert from_config == _config_from_args(parse([*argv, *flags])) == expected


PARSER_REUSE_RUNS = [
    ["simulate", "--tones", "many"],  # argparse usage error: exit 2
    ["verify", "--M", "16", "--tones", "20", "--seed", "3", "--mu", "0,4"],
    ["simulate", "--M", "16", "--tones", "20", "--snr-db", "0,10", "--mu", "0,4", "--rho", "0.5"],
    ["regions", "--M", "16", "--llr", "0,0,0,0,0,-45,0,0"],
]


def test_parser_reuse_matches_fresh_processes(capsys, monkeypatch):
    """One process running a usage error, verify, simulate and regions in
    turn, through the one cached parser, prints byte for byte what each
    argv prints in a fresh process."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    env = dict(os.environ, PYTHONPATH=str(Path(sisodet.__file__).resolve().parents[1]))
    fresh = [
        subprocess.run(
            [sys.executable, "-m", "sisodet.simcli", *argv],
            capture_output=True, env=env, timeout=120,
        )
        for argv in PARSER_REUSE_RUNS
    ]
    for argv, expected in zip(PARSER_REUSE_RUNS, fresh):
        try:
            status = main(argv)
        except SystemExit as exit_:
            status = exit_.code
        captured = capsys.readouterr()
        assert status == expected.returncode
        assert captured.out.encode() == expected.stdout
        assert captured.err.encode() == expected.stderr
    assert [run.returncode for run in fresh] == [2, 0, 0, 0]
    assert _build_parser() is _build_parser()


class TestFailurePaths:
    """A disagreeing detector must abort with exit 1 and a full dump."""

    @staticmethod
    def _broken_detect(obs, const, llrs):
        import sisodet

        result = sisodet.detect(obs, const, llrs)
        result.llrs = result.llrs + 1e-3
        return result

    def test_verify_reports_failure(self, monkeypatch):
        import sisodet.simcli as cli

        monkeypatch.setattr(cli, "detect", self._broken_detect)
        status, report = run_verify(small_config(tones=3))
        assert status == 1
        assert "RESULT: FAIL" in report
        assert "offending tone" in report
        assert "channel =" in report

    def test_failure_dump_replays_tone(self, monkeypatch):
        """The dumped channel, covariance and y rebuild the failing tone's
        whitened observation bit for bit."""
        import ast

        import sisodet.simcli as cli

        monkeypatch.setattr(cli, "detect", self._broken_detect)
        cfg = small_config(tones=3, rho=0.5)
        _, report = run_verify(cfg)
        dump = dict(line.split(" = ", 1) for line in report.splitlines() if " = [" in line)
        channel, cov, y = (np.array(ast.literal_eval(dump[k])) for k in ("channel", "noise_covariance", "y"))
        obs = sisodet.whiten(y, sisodet.make_channel(channel, cov))
        model = NoiseModel(noise_covariance(sigma2_from_snr_db(10.0), 0.5, 2))
        drawn = draw_tone(tone_rng(cfg.seed, 0, 0), build_constellation(4), model, 0.0).obs
        for got, want in ((obs.y, drawn.y), (obs.h1, drawn.h1), (obs.h2, drawn.h2)):
            np.testing.assert_array_equal(got, want)

    def test_simulate_aborts_on_disagreement(self, monkeypatch):
        import sisodet.simcli as cli

        monkeypatch.setattr(cli, "detect", self._broken_detect)
        status, records, text = run_simulate(small_config(tones=3))
        assert status == 1
        assert records == []
        assert "offending tone" in text

    def test_simulate_no_verify_first_continues(self, monkeypatch):
        import sisodet.simcli as cli

        monkeypatch.setattr(cli, "detect", self._broken_detect)
        cfg = small_config(tones=3, verify_first=False)
        status, records, _ = run_simulate(cfg)
        assert status == 0
        assert records[0].max_llr_discrepancy_vs_oracle > 1e-6


class TestNanGate:
    """A detector whose LLRs are NaN fails the gate.  The NaN discrepancy
    used to compare as within tolerance and drop out of the maximum."""

    @staticmethod
    def _nan_detect(obs, const, llrs):
        result = sisodet.detect(obs, const, llrs)
        result.llrs = result.llrs * np.nan
        return result

    @pytest.mark.parametrize("command", ["verify", "simulate"])
    def test_exit_one(self, command, monkeypatch, capsys):
        import sisodet.simcli as cli

        monkeypatch.setattr(cli, "detect", self._nan_detect)
        assert main([command, "--M", "4", "--tones", "3"]) == 1
        captured = capsys.readouterr()
        assert "FAILURE: llr discrepancy nan" in captured.out + captured.err
        if command == "verify":
            assert "global max_llr_discrepancy = nan\n" in captured.out
            assert captured.out.endswith("RESULT: FAIL\n")

    def test_no_verify_first_reports_nan(self, monkeypatch, capsys):
        import sisodet.simcli as cli

        monkeypatch.setattr(cli, "detect", self._nan_detect)
        argv = ["simulate", "--M", "4", "--tones", "3", "--no-verify-first"]
        assert main(argv) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert header.split(",")[7] == "max_llr_discrepancy_vs_oracle"
        assert row.split(",")[7] == "nan"


class TestOutCheckedFirst:
    """An ``--out`` that cannot be written fails before any tone is
    detected, and the check leaves no file behind when the sweep fails."""

    @pytest.mark.parametrize("command", ["verify", "simulate"])
    def test_unwritable_out_detects_nothing(self, command, tmp_path, monkeypatch, capsys):
        import sisodet.simcli as cli

        calls = []

        def counting_detect(obs, const, llrs):
            calls.append(1)
            return sisodet.detect(obs, const, llrs)

        monkeypatch.setattr(cli, "detect", counting_detect)
        path = str(tmp_path / "missing" / "out.txt")
        assert main([command, "--M", "4", "--tones", "2", "--out", path]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write output file {path!r}: ")
        assert calls == []

    def test_failed_simulate_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        import sisodet.simcli as cli

        monkeypatch.setattr(cli, "detect", TestFailurePaths._broken_detect)
        new = tmp_path / "new.csv"
        kept = tmp_path / "kept.csv"
        kept.write_text("earlier results\n")
        for path in (new, kept):
            assert main(["simulate", "--M", "4", "--tones", "2", "--out", str(path)]) == 1
            assert capsys.readouterr().err.startswith("FAILURE: llr discrepancy")
        assert not new.exists()
        assert kept.read_text() == "earlier results\n"


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(M=8),
            dict(n_rx=1),
            dict(n_rx=np.float64(2.0)),
            dict(tones=0),
            dict(rho=1.0),
            dict(rho=-0.1),
            dict(mu_list=(-1.0,)),
            dict(mu_list=(np.inf,)),
            dict(mu_list=(0.0, np.nan)),
            dict(snr_db_list=()),
            dict(snr_db_list=(np.nan,)),
            dict(snr_db_list=(10.0, -np.inf)),
            dict(seed=-1),
            dict(rho=False),
            dict(rho="0.5"),
            dict(rho=None),
            dict(snr_db_list=[10.0]),
            dict(snr_db_list=("10",)),
            dict(snr_db_list=(True,)),
            dict(mu_list=(True,)),
            dict(mu_list=np.array([1.0])),
            dict(mu_list=(0.0, None)),
            dict(verify_first="false"),
            dict(verify_first=1),
        ],
    )
    def test_rejected(self, overrides):
        with pytest.raises(UsageError):
            small_config(**overrides)

    @pytest.mark.parametrize("name, value", [("tones", 0), ("M", 64), ("mu_list", (1.0,))])
    def test_frozen(self, name, value):
        """A built config cannot be changed, valid value or not, so the
        checks it passed at construction still hold when a run reads it."""
        cfg = small_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)
        assert cfg == small_config()

    @pytest.mark.parametrize(
        "name, value",
        [
            ("M", 16.0), ("n_rx", 2.5), ("tones", 2.5), ("seed", 1.5), ("tones", "2"),
            ("tones", True), ("M", True), ("n_rx", False), ("seed", np.True_),
        ],
    )
    def test_non_integer_count_named(self, name, value):
        """Named before any count reaches numpy or the constellation
        builder, which would round it, or fail with a raw TypeError; a
        bool is no count, though Python counts it as an integer."""
        with pytest.raises(UsageError, match=f"^{name} must be an integer, got {value!r}$"):
            run_verify(small_config(**{name: value}))

    def test_hashable(self):
        """Every field is immutable, so a config hashes, as a frozen
        dataclass promises."""
        assert hash(SimConfig()) == hash(SimConfig(snr_db_list=(10.0,)))

    def test_numpy_integer_counts_accepted(self):
        cfg = small_config(M=np.int64(16), n_rx=np.int32(3), tones=np.int16(3), seed=np.uint8(7))
        status, report = run_verify(cfg)
        assert status == 0
        assert report == run_verify(small_config(M=16, n_rx=3, tones=3, seed=7))[1]

    def test_midpoint_cross_check_with_library(self):
        """CLI region rows agree with direct threshold computation."""
        cfg = small_config(M=16)
        text = run_regions(cfg, np.zeros(8))
        pam = build_constellation(16).real_axis
        row = text.strip().split("\n")[2].split(",")  # real axis, amplitude 1
        np.testing.assert_allclose(
            float(row[5]), pairwise_boundary(pam, 0, 1, np.zeros(4), 1.0)
        )


class TestSnrRange:
    @pytest.mark.parametrize("snr", ["-100", "300"])
    def test_ends_verify(self, snr, capsys):
        argv = ["verify", "--M", "64", "--tones", "10", f"--snr-db={snr}", "--mu", "0,16", "--rho", "0.5"]
        assert main(argv) == 0
        assert "RESULT: PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("snr", ["-100.001", "300.001", "5000"])
    def test_outside_rejected_by_flag(self, snr, capsys):
        assert main(["verify", "--tones", "2", f"--snr-db=10,{snr}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: snr_db (--snr-db)")
        assert "[-100, 300] dB" in err

    @pytest.mark.parametrize("snr", ["-100.001", "300.001"])
    def test_outside_rejected_by_config(self, snr, tmp_path, capsys):
        config = tmp_path / "grid.cfg"
        config.write_text(f"snr_db = {snr}\n")
        assert main(["simulate", "--tones", "2", "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith("error: snr_db (--snr-db)")


class TestDrawTone:
    def test_covariance_array_refused_by_name(self):
        """A tone is drawn from a noise model, not from a covariance, and
        the error names the form it takes."""
        with pytest.raises(TypeError, match=r"expected a NoiseModel\(covariance\), got ndarray"):
            draw_tone(tone_rng(0, 0, 0), build_constellation(4), np.eye(2), 0.0)


class TestNoiseModelPerSnr:
    """The covariance depends on the SNR alone, so a sweep factors each
    distinct SNR's covariance and precision once, whatever the mu list
    and the tone count."""

    @pytest.mark.parametrize(
        "snrs, distinct",
        [((0.0,), 1), ((0.0, 10.0, 20.0), 3), ((10.0, 10.0, -100.0), 2), ((5.0, 5.0), 1)],
        ids=["one", "three", "duplicate", "only-duplicates"],
    )
    @pytest.mark.parametrize("tones, mus", [(1, (0.0,)), (4, (0.0, 2.0, 8.0))])
    def test_two_factorizations_per_distinct_snr(self, snrs, distinct, tones, mus, monkeypatch):
        calls = count_cholesky(monkeypatch)
        status, records, _ = run_simulate(
            small_config(M=16, n_rx=3, snr_db_list=snrs, mu_list=mus, tones=tones, rho=0.5)
        )
        assert status == 0 and len(records) == len(snrs) * len(mus)
        assert len(calls) == 2 * distinct


def parse_points(report: str) -> list[dict]:
    """The `key=value` fields of each `point` line of a verify report."""
    return [
        {k: v for k, v in (f.split("=") for f in line.split() if "=" in f)}
        for line in report.splitlines()
        if line.startswith("point ")
    ]


class TestSharedSweep:
    def test_verify_points_match_simulate_rows(self):
        """Both subcommands report the same tones with the same numbers."""
        cfg = dict(M=16, tones=40, snr_db_list=(0.0, 12.0), mu_list=(0.0, 4.0), rho=0.5)
        _, report = run_verify(small_config(**cfg))
        _, _, text = run_simulate(small_config(**cfg))
        verify_points = parse_points(report)
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert len(verify_points) == len(rows) == 4
        for point, row in zip(verify_points, rows):
            assert point["max_llr_discrepancy"] == row[7]
            assert point["mean_total_metric_count"] == row[6]

    def test_wrong_boundary_count_fails_simulate(self, monkeypatch, capsys):
        """Counters off the model fail simulate's gate as they fail verify's."""
        import sisodet.simcli as cli

        def overcounting_detect(obs, const, llrs):
            result = sisodet.detect(obs, const, llrs)
            result.boundary_count = 4 * const.M
            result.total_metric_count = result.candidate_metric_count + result.boundary_count
            return result

        monkeypatch.setattr(cli, "detect", overcounting_detect)
        assert main(["simulate", "--M", "16", "--tones", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("FAILURE: metric counts 32/96\n")
        assert "offending tone: point_index=0 tone_index=0" in captured.err

    def test_one_failure_text(self, monkeypatch, capsys):
        """verify's report carries, before its result line, the very failure
        report that simulate writes to stderr for an over-tolerance tone."""
        import sisodet.simcli as cli

        monkeypatch.setattr(cli, "detect", TestFailurePaths._broken_detect)
        assert main(["verify", "--M", "16", "--tones", "3"]) == 1
        report = capsys.readouterr().out
        assert main(["simulate", "--M", "16", "--tones", "3"]) == 1
        stopped = capsys.readouterr()
        assert stopped.out == ""
        first = stopped.err.splitlines()[0]
        assert re.fullmatch(r"FAILURE: llr discrepancy \S+ exceeds 9\.9999999999999995e-07", first)
        assert report.endswith(stopped.err + "RESULT: FAIL\n")

    def test_failing_tones_reported_alike(self, monkeypatch, capsys):
        """With a detector off on every third tone, verify's point lines
        match the rows of simulate --no-verify-first, and verify names the
        tone at which simulate stops."""
        import sisodet.simcli as cli

        def every_third_off():
            calls = itertools.count(1)

            def off_detect(obs, const, llrs):
                result = sisodet.detect(obs, const, llrs)
                if next(calls) % 3 == 0:
                    result.llrs = result.llrs + 1e-3
                return result

            return off_detect

        def run(*argv):
            monkeypatch.setattr(cli, "detect", every_third_off())
            flags = ["--M", "16", "--tones", "5", "--snr-db", "0,12", "--mu", "0,4", "--rho", "0.5"]
            status = main([*argv, *flags])
            return status, capsys.readouterr()

        status, verify = run("verify")
        assert status == 1
        status, kept_going = run("simulate", "--no-verify-first")
        assert status == 0
        status, stopped = run("simulate")
        assert status == 1
        points = parse_points(verify.out)
        rows = [line.split(",") for line in kept_going.out.splitlines()[1:]]
        assert len(points) == len(rows) == 4
        for point, row in zip(points, rows):
            assert float(point["max_llr_discrepancy"]) > 1e-6
            assert point["max_llr_discrepancy"] == row[7]
            assert point["mean_total_metric_count"] == row[6]
        offending = [
            line
            for text in (verify.out, stopped.err)
            for line in text.splitlines()
            if line.startswith("offending tone:")
        ]
        assert offending == ["offending tone: point_index=0 tone_index=2"] * 2
