"""Monte-Carlo command-line harness for the dual-layer detector.

Subcommands:
    verify      run the fast detector and the exhaustive reference on the
                same random tones and fail on any LLR disagreement
    simulate    sweep SNR and feedback reliability, emitting one CSV row
                of BER and metric-count statistics per grid point
    regions     dump the four prior-shifted interval tables as CSV
    complexity  evaluate the closed-form operation-count model as CSV
                plus a formatted table

Decoder feedback is replaced by a genie: a-priori LLRs are drawn around
the true bits with a reliability dial ``mu`` (0 means no feedback).  All
randomness derives from (seed, point index, tone index), so any
invocation is reproducible byte for byte.  Exit codes: 0 success,
1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .channel import (
    ChannelRealization,
    WhitenedObservation,
    generate_channel,
    generate_noise,
    make_channel,
    transmit,
    whiten,
)
from .complexity import DETECTOR_KINDS, predicted_counts
from .constellation import Constellation, build_constellation, bits_to_symbol
from .detector import DetectionResult, detect
from .oracle import brute_force_maxlog
from .priors import AprioriLLRs, axis_log_priors, clamp, genie_priors
from .slicer import build_regions

VERIFY_TOLERANCE = 1e-6
# Usable SNR range in dB.  The metric arithmetic overflows from about
# 3000 dB, far above the top; near -130 dB a weak channel draw already
# puts a whitened layer gain under the degenerate-channel floor.
SNR_DB_RANGE = (-100.0, 300.0)


class UsageError(Exception):
    """Invalid configuration or malformed input; maps to exit code 2."""


@dataclass
class SimConfig:
    """Parameters of one harness invocation."""

    M: int = 16
    n_rx: int = 2
    n_tx: int = 2
    snr_db_list: tuple = (10.0,)
    mu_list: tuple = (0.0,)
    tones: int = 1000
    seed: int = 1
    rho: float = 0.0
    out: str | None = None
    verify_first: bool = True

    def validate(self) -> None:
        from .constellation import VALID_ORDERS

        if self.M not in VALID_ORDERS:
            raise UsageError(f"M must be one of {VALID_ORDERS}, got {self.M}")
        if self.n_rx < 2:
            raise UsageError(f"need at least 2 receive antennas, got {self.n_rx}")
        if self.n_tx < 2:
            raise UsageError(f"need at least 2 transmit antennas, got {self.n_tx}")
        if self.tones < 1:
            raise UsageError(f"tones must be at least 1, got {self.tones}")
        if not 0.0 <= self.rho < 1.0:
            raise UsageError(f"rho must lie in [0, 1), got {self.rho}")
        low, high = SNR_DB_RANGE
        if not all(low <= snr <= high for snr in self.snr_db_list):
            raise UsageError(
                f"snr_db (--snr-db) values must lie in [{low:g}, {high:g}] dB, "
                f"got {list(self.snr_db_list)}"
            )
        if not all(0.0 <= mu < math.inf for mu in self.mu_list):
            raise UsageError(
                f"mu (--mu) values must be finite and nonnegative, got {list(self.mu_list)}"
            )
        if not self.snr_db_list or not self.mu_list:
            raise UsageError("snr_db and mu lists must be non-empty")


@dataclass
class SimRecord:
    """One (snr, mu) grid point of a simulation sweep."""

    snr_db: float
    mu: float
    tones: int
    bit_errors_detector: int
    bit_errors_oracle: int
    ber: float
    mean_total_metric_count: float
    max_llr_discrepancy_vs_oracle: float


@dataclass
class ToneData:
    """Everything drawn for one tone, kept for failure dumps."""

    channel: ChannelRealization
    noise_covariance: np.ndarray
    bits: np.ndarray
    noise: np.ndarray
    y: np.ndarray
    obs: WhitenedObservation
    llrs: AprioriLLRs


def sigma2_from_snr_db(snr_db: float) -> float:
    """Per-antenna noise variance for a given SNR.

    SNR is total average signal power over total noise power: two
    unit-energy layers through a unit-variance channel put 2 N_r of
    signal power against N_r sigma^2 of noise, so sigma^2 = 2 / snr.
    """
    return 2.0 / (10.0 ** (snr_db / 10.0))


def noise_covariance(sigma2: float, rho: float, n_rx: int) -> np.ndarray:
    """Exponentially correlated noise covariance with unit-diagonal shape."""
    idx = np.arange(n_rx)
    return sigma2 * (rho ** np.abs(idx[:, None] - idx[None, :])).astype(complex)


def tone_rng(seed: int, point_index: int, tone_index: int) -> np.random.Generator:
    """Independent RNG stream for one tone of one grid point."""
    return np.random.default_rng([seed, point_index, tone_index])


def draw_tone(
    rng: np.random.Generator,
    const: Constellation,
    noise_covariance: np.ndarray,
    mu: float,
    n_tx: int,
) -> ToneData:
    """Draw one random tone: channel, bits, noise, then genie feedback.

    The receive antenna count comes from the covariance.  The draws are
    made in a fixed order from ``rng``, so one stream gives one tone.
    """
    Hbar = generate_channel(rng, noise_covariance.shape[0], n_tx)
    ch = make_channel(Hbar, noise_covariance)
    bits = rng.integers(0, 2, size=(2, const.q))
    s = np.array(
        [bits_to_symbol(const, bits[0]), bits_to_symbol(const, bits[1])]
    )
    n = generate_noise(rng, noise_covariance)
    y = transmit(s, ch, n)
    obs = whiten(y, ch)
    llrs = genie_priors(rng, bits, mu)
    return ToneData(
        channel=ch,
        noise_covariance=noise_covariance,
        bits=bits,
        noise=n,
        y=y,
        obs=obs,
        llrs=llrs,
    )


@dataclass
class CheckedTone:
    """One tone of a sweep, detected both ways and put through the gate.

    ``failure`` says why the tone failed the gate (LLRs more than
    ``VERIFY_TOLERANCE`` from the reference, or metric counters off the
    model), and is None for a tone that passed.
    """

    point_index: int
    tone_index: int
    point: tuple[float, float]
    data: ToneData
    result: DetectionResult
    reference: np.ndarray
    discrepancy: float
    failure: str | None


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _failure_report(cfg: SimConfig, tone: CheckedTone, reason: str) -> str:
    """Failure line plus the full inputs of the tone, precise enough to
    reproduce it."""
    data = tone.data
    lines = [
        f"FAILURE: {reason}",
        f"offending tone: point_index={tone.point_index} tone_index={tone.tone_index}",
        f"point: snr_db={_fmt(tone.point[0])} mu={_fmt(tone.point[1])}",
        f"config: M={cfg.M} n_rx={cfg.n_rx} n_tx={cfg.n_tx} seed={cfg.seed} rho={_fmt(cfg.rho)}",
        f"physical_channel = {data.channel.physical_channel.tolist()!r}",
        f"precoder = {data.channel.precoder.tolist()!r}",
        f"noise_covariance = {data.noise_covariance.tolist()!r}",
        f"true_bits = {data.bits.tolist()!r}",
        f"noise = {data.noise.tolist()!r}",
        f"y = {data.y.tolist()!r}",
        f"apriori_llrs = {data.llrs.values.tolist()!r}",
    ]
    return "\n".join(lines)


def _sweep(
    cfg: SimConfig, const: Constellation
) -> Iterator[tuple[tuple[float, float], Iterator[CheckedTone]]]:
    """The (snr, mu) grid point by point, each with its checked tones.

    Every tone is drawn from its own (seed, point, tone) stream, detected
    by ``detect`` and by the exhaustive ``brute_force_maxlog``, and gated:
    it fails when an LLR is more than ``VERIFY_TOLERANCE`` from the
    reference, or when the counters break the model (2M candidate
    metrics, total at most 4M - 2 sqrt(M)).  Consumers choose what a
    failure does.
    """
    ceiling = 4 * cfg.M - 2 * const.real_axis.L

    def checked(p_idx: int, point: tuple[float, float], C: np.ndarray) -> Iterator[CheckedTone]:
        for t_idx in range(cfg.tones):
            data = draw_tone(tone_rng(cfg.seed, p_idx, t_idx), const, C, point[1], cfg.n_tx)
            result = detect(data.obs, const, data.llrs)
            reference = brute_force_maxlog(data.obs, const, data.llrs)
            disc = float(np.abs(result.llrs - reference).max())
            if disc > VERIFY_TOLERANCE:
                failure = f"llr discrepancy {_fmt(disc)}"
            elif (
                result.candidate_metric_count != 2 * cfg.M
                or result.total_metric_count > ceiling
            ):
                failure = f"metric counts {result.candidate_metric_count}/{result.total_metric_count}"
            else:
                failure = None
            yield CheckedTone(p_idx, t_idx, point, data, result, reference, disc, failure)

    points = [(snr, mu) for snr in cfg.snr_db_list for mu in cfg.mu_list]
    for p_idx, point in enumerate(points):
        C = noise_covariance(sigma2_from_snr_db(point[0]), cfg.rho, cfg.n_rx)
        yield point, checked(p_idx, point, C)


def run_verify(cfg: SimConfig) -> tuple[int, str]:
    """Detector-versus-reference agreement battery.

    Every tone is detected both ways; the run passes only if every tone
    passes the sweep's gate.  The first failing tone is reported, and the
    run goes on to the end.  Returns (exit status, report text).
    """
    cfg.validate()
    const = build_constellation(cfg.M)
    lines = [
        f"verify M={cfg.M} n_rx={cfg.n_rx} n_tx={cfg.n_tx} tones_per_point={cfg.tones} "
        f"seed={cfg.seed} rho={_fmt(cfg.rho)}"
    ]
    global_max = 0.0
    failure: str | None = None
    for (snr_db, mu), tones in _sweep(cfg, const):
        point_max = 0.0
        metric_sum = 0
        for tone in tones:
            point_max = max(point_max, tone.discrepancy)
            metric_sum += tone.result.total_metric_count
            if tone.failure is not None and failure is None:
                failure = _failure_report(cfg, tone, tone.failure)
        global_max = max(global_max, point_max)
        lines.append(
            f"point snr_db={_fmt(snr_db)} mu={_fmt(mu)}: tones={cfg.tones} "
            f"max_llr_discrepancy={_fmt(point_max)} "
            f"mean_total_metric_count={_fmt(metric_sum / cfg.tones)}"
        )
    lines.append(f"global max_llr_discrepancy = {_fmt(global_max)}")
    lines.append(f"tolerance = {_fmt(VERIFY_TOLERANCE)}")
    if failure is not None:
        lines.append(failure)
        lines.append("RESULT: FAIL")
        return 1, "\n".join(lines) + "\n"
    lines.append("RESULT: PASS")
    return 0, "\n".join(lines) + "\n"


SIM_CSV_HEADER = ",".join(f.name for f in fields(SimRecord))


def _csv_row(record: SimRecord) -> str:
    """One CSV row: integer fields as integers, the rest at 17 digits."""
    return ",".join(
        str(getattr(record, f.name)) if f.type == "int" else _fmt(getattr(record, f.name))
        for f in fields(record)
    )


def run_simulate(cfg: SimConfig) -> tuple[int, list[SimRecord], str]:
    """Monte-Carlo sweep over the (snr, mu) grid.

    Hard decisions come from the detector LLR signs; the exhaustive
    reference runs on every tone as well, so each record carries both
    error counts and the worst LLR discrepancy.  With ``verify_first``
    (the default) the first tone that fails the sweep's gate aborts the
    sweep with exit status 1, so simulation results only come from a
    verified detector; without it the sweep goes on and the discrepancy
    lands in ``max_llr_discrepancy_vs_oracle``.  Returns (exit status,
    records, csv text).
    """
    cfg.validate()
    const = build_constellation(cfg.M)
    bits_per_tone = 2 * const.q
    records: list[SimRecord] = []
    lines = [SIM_CSV_HEADER]
    for (snr_db, mu), tones in _sweep(cfg, const):
        det_errors = 0
        orc_errors = 0
        metric_sum = 0
        max_disc = 0.0
        for tone in tones:
            max_disc = max(max_disc, tone.discrepancy)
            if cfg.verify_first and tone.failure is not None:
                reason = tone.failure
                if tone.discrepancy > VERIFY_TOLERANCE:
                    reason += f" exceeds {_fmt(VERIFY_TOLERANCE)}"
                return 1, records, _failure_report(cfg, tone, reason) + "\n"
            bits = tone.data.bits
            det_errors += int(np.count_nonzero((tone.result.llrs > 0) != bits))
            orc_errors += int(np.count_nonzero((tone.reference > 0) != bits))
            metric_sum += tone.result.total_metric_count
        record = SimRecord(
            snr_db=snr_db,
            mu=mu,
            tones=cfg.tones,
            bit_errors_detector=det_errors,
            bit_errors_oracle=orc_errors,
            ber=det_errors / (cfg.tones * bits_per_tone),
            mean_total_metric_count=metric_sum / cfg.tones,
            max_llr_discrepancy_vs_oracle=max_disc,
        )
        records.append(record)
        lines.append(_csv_row(record))
    return 0, records, "\n".join(lines) + "\n"


REGIONS_CSV_HEADER = "axis,layer,symbol_index,point,lower,upper,empty"


def run_regions(cfg: SimConfig, llr_values) -> str:
    """Dump the four prior-shifted interval tables as CSV.

    The slicer gains come from the first tone of the configured stream
    (channel drawn from the seed, noise covariance from the first SNR),
    so the dump matches what detection on that tone would use.
    """
    cfg.validate()
    const = build_constellation(cfg.M)
    llr_arr = np.asarray(llr_values, dtype=float)
    if llr_arr.size != 2 * const.q:
        raise UsageError(
            f"expected {2 * const.q} LLR values for M={cfg.M}, got {llr_arr.size}"
        )
    if np.isnan(llr_arr).any():
        raise UsageError("LLR vector contains NaN")
    llrs = clamp(llr_arr.reshape(2, const.q))

    C = noise_covariance(sigma2_from_snr_db(cfg.snr_db_list[0]), cfg.rho, cfg.n_rx)
    obs = draw_tone(tone_rng(cfg.seed, 0, 0), const, C, cfg.mu_list[0], cfg.n_tx).obs
    gains = {1: obs.gain1, 2: obs.gain2}

    lines = [REGIONS_CSV_HEADER]
    for layer in (1, 2):
        for axis_name, pam in (("real", const.real_axis), ("imag", const.imag_axis)):
            regions = build_regions(
                pam, axis_log_priors(llrs, layer, axis_name, pam), gains[layer]
            )
            for k in range(pam.L):
                lines.append(
                    ",".join(
                        [
                            axis_name,
                            str(layer),
                            str(k),
                            _fmt(pam.points[k]),
                            _fmt(regions.lower[k]),
                            _fmt(regions.upper[k]),
                            "true" if regions.empty[k] else "false",
                        ]
                    )
                )
    return "\n".join(lines) + "\n"


COMPLEXITY_CSV_HEADER = "kind,M,Nr,metrics,muls,adds"


def run_complexity(orders, n_rx: int) -> tuple[str, str]:
    """Closed-form count model for all detector kinds; CSV plus a table."""
    rows = []
    for M in orders:
        for kind in DETECTOR_KINDS:
            rows.append(predicted_counts(kind, M, n_rx))
    csv_lines = [COMPLEXITY_CSV_HEADER]
    for est in rows:
        csv_lines.append(
            f"{est.detector_kind},{est.M},{est.n_rx},{est.metrics},"
            f"{est.real_muls},{est.real_adds}"
        )
    table_lines = []
    for M in orders:
        table_lines.append(f"M={M}, N_r={n_rx}")
        table_lines.append(
            f"{'detector':<10}{'metrics':>12}{'real muls':>12}{'real adds':>12}"
        )
        for est in rows:
            if est.M == M:
                table_lines.append(
                    f"{est.detector_kind:<10}{est.metrics:>12}"
                    f"{est.real_muls:>12}{est.real_adds:>12}"
                )
        table_lines.append("")
    return "\n".join(csv_lines) + "\n", "\n".join(table_lines)


def _parse_list(text: str, flag: str, kind=float) -> tuple:
    try:
        values = tuple(kind(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as err:
        raise UsageError(f"malformed {flag} list {text!r}: {err}") from None
    if not values:
        raise UsageError(f"{flag} list is empty")
    return values


def load_config_file(path: str) -> dict[str, str]:
    """Parse a `key = value` override file; blank lines and # comments skipped."""
    overrides: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise UsageError(f"cannot read config file {path!r}: {err}") from None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{line_no}: expected `key = value`, got {raw!r}")
        key, value = line.split("=", 1)
        overrides[key.strip()] = value.strip()
    return overrides

_CONFIG_KEYS = {
    "M": ("M", int),
    "nr": ("n_rx", int),
    "nt": ("n_tx", int),
    "snr_db": ("snr_db_list", "float_list"),
    "mu": ("mu_list", "float_list"),
    "tones": ("tones", int),
    "seed": ("seed", int),
    "rho": ("rho", float),
    "out": ("out", str),
    "verify_first": ("verify_first", "bool"),
}


def _apply_config_overrides(cfg: SimConfig, overrides: dict[str, str]) -> None:
    for key, value in overrides.items():
        if key not in _CONFIG_KEYS:
            raise UsageError(f"unknown config key {key!r}")
        attr, kind = _CONFIG_KEYS[key]
        try:
            if kind == "float_list":
                parsed = _parse_list(value, key)
            elif kind == "bool":
                if value.lower() not in ("true", "false", "0", "1"):
                    raise ValueError("expected true/false")
                parsed = value.lower() in ("true", "1")
            elif kind is str:
                parsed = value
            else:
                parsed = kind(value)
        except ValueError as err:
            raise UsageError(f"bad value for config key {key!r}: {err}") from None
        setattr(cfg, attr, parsed)


def _config_from_args(args: argparse.Namespace) -> SimConfig:
    cfg = SimConfig(
        M=args.M,
        n_rx=args.nr,
        n_tx=args.nt,
        snr_db_list=_parse_list(args.snr_db, "--snr-db"),
        tones=args.tones,
        seed=args.seed,
        rho=args.rho,
        out=args.out,
    )
    if getattr(args, "mu", None) is not None:
        cfg.mu_list = _parse_list(args.mu, "--mu")
    if getattr(args, "verify_first", None) is not None:
        cfg.verify_first = args.verify_first
    if args.config:
        _apply_config_overrides(cfg, load_config_file(args.config))
    cfg.validate()
    return cfg


def _write_out(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused by every ``main``.

    Building it costs more than detecting several tones; parsing leaves
    it unchanged, so one instance serves every call in the process.
    """
    parser = argparse.ArgumentParser(
        prog="sisodet",
        description="Dual-layer MIMO soft detector: verification, simulation, "
        "region dumps, and operation-count model.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--M", type=int, default=16, help="constellation order")
    common.add_argument("--nr", type=int, default=2, help="receive antennas")
    common.add_argument("--nt", type=int, default=2, help="transmit antennas")
    common.add_argument("--tones", type=int, default=1000, help="tones per grid point")
    common.add_argument("--seed", type=int, default=1, help="master RNG seed")
    common.add_argument(
        "--rho", type=float, default=0.0, help="noise correlation coefficient"
    )
    common.add_argument("--out", type=str, default=None, help="output file path")
    common.add_argument(
        "--config", type=str, default=None, help="key=value file overriding flags"
    )
    common.add_argument("--snr-db", type=str, default="10", help="comma list of SNRs")
    mu = argparse.ArgumentParser(add_help=False)
    mu.add_argument("--mu", type=str, default="0", help="comma list of mu values")

    subs.add_parser(
        "verify",
        parents=[common, mu],
        help="check detector against the exhaustive reference",
    )

    p_sim = subs.add_parser("simulate", parents=[common, mu], help="Monte-Carlo BER sweep")
    p_sim.add_argument(
        "--verify-first",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="exit 1 at the first tone that fails the check against the "
        "reference (default); --no-verify-first goes on and reports the "
        "worst LLR discrepancy in max_llr_discrepancy_vs_oracle",
    )

    p_reg = subs.add_parser(
        "regions", parents=[common], help="dump prior-shifted interval tables"
    )
    p_reg.add_argument(
        "--llr",
        type=str,
        required=True,
        help="comma list of 2q a-priori LLRs (layer 1 bits then layer 2)",
    )

    p_cx = subs.add_parser("complexity", help="closed-form operation counts")
    p_cx.add_argument("--M", type=str, default="256", help="comma list of orders")
    p_cx.add_argument("--nr", type=int, default=2, help="receive antennas")
    p_cx.add_argument("--out", type=str, default=None, help="output file path")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            cfg = _config_from_args(args)
            status, report = run_verify(cfg)
            _write_out(cfg.out, report)
            if cfg.out is not None:
                sys.stdout.write(report.splitlines()[-1] + "\n")
            return status
        if args.command == "simulate":
            cfg = _config_from_args(args)
            status, _, text = run_simulate(cfg)
            if status != 0:
                sys.stderr.write(text)
                return status
            _write_out(cfg.out, text)
            return 0
        if args.command == "regions":
            cfg = _config_from_args(args)
            llr_values = _parse_list(args.llr, "--llr")
            text = run_regions(cfg, llr_values)
            _write_out(cfg.out, text)
            return 0
        if args.command == "complexity":
            orders = _parse_list(args.M, "--M", int)
            try:
                csv_text, table_text = run_complexity(orders, args.nr)
            except ValueError as err:
                raise UsageError(str(err)) from None
            _write_out(args.out, csv_text)
            if args.out is not None:
                sys.stdout.write(table_text + "\n")
            return 0
    except UsageError as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
