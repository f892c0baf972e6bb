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
invocation is reproducible byte for byte.  The noise covariance depends
only on the SNR, so a sweep builds one ``NoiseModel`` per distinct SNR and
every tone at that SNR shares its factorizations.  ``verify`` and
``simulate`` share one sweep, which gives one ``SimRecord`` per grid point
and the first tone that failed the gate; ``verify`` prints its point lines
from the records and ``simulate`` its CSV rows; both print the same
``FAILURE:`` line.  Each setting's one default is a ``SimConfig`` field;
a flag or its ``--config`` key overrides it, and the frozen config checks
every value when built.  Exit codes: 0 success, 1 verification failure,
2 usage error (including a negative seed and an unwritable ``--out``,
which ``verify`` and ``simulate`` detect before the sweep).
"""

from __future__ import annotations

import argparse
import functools
import math
import numbers
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .channel import (
    ChannelRealization,
    NoiseModel,
    WhitenedObservation,
    generate_channel,
    generate_noise,
    make_channel,
    transmit,
    whiten,
)
from .complexity import DETECTOR_KINDS, predicted_counts
from .constellation import VALID_ORDERS, Constellation, bits_to_symbol, build_constellation
from .detector import detect, table_inputs
from .oracle import brute_force_maxlog
from .priors import AprioriLLRs, clamp, genie_priors
from .slicer import build_regions, upper_bounds

VERIFY_TOLERANCE = 1e-6
# Usable SNR range in dB.  From about 3000 dB, far above the top, a
# whitened tone's metrics could overflow and the observation is refused;
# near -130 dB a weak channel draw already puts a whitened layer gain
# under the degenerate-channel floor.
SNR_DB_RANGE = (-100.0, 300.0)


class UsageError(Exception):
    """Invalid configuration or malformed input; maps to exit code 2."""


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one harness invocation, and the default of each: a
    setting that no flag or config key gives keeps the one written here.

    Building one checks every value and raises ``UsageError`` naming the
    field, so an invalid config never exists: ``M``, ``n_rx``, ``tones``
    and ``seed`` are integers (numpy's too) and ``rho`` a real number;
    ``snr_db_list`` and ``mu_list`` are tuples of real numbers, so a config
    hashes; none of them is a bool, and ``verify_first`` is one.
    """

    M: int = 16
    n_rx: int = 2
    snr_db_list: tuple = (10.0,)
    mu_list: tuple = (0.0,)
    tones: int = 1000
    seed: int = 1
    rho: float = 0.0
    verify_first: bool = True

    def __post_init__(self) -> None:
        for name in ("M", "n_rx", "tones", "seed"):
            value = getattr(self, name)
            if not _is_number(value, numbers.Integral):
                raise UsageError(f"{name} must be an integer, got {value!r}")
        if not _is_number(self.rho, numbers.Real):
            raise UsageError(f"rho must be a real number, got {self.rho!r}")
        for name in ("snr_db_list", "mu_list"):
            value = getattr(self, name)
            if not (isinstance(value, tuple) and all(_is_number(v, numbers.Real) for v in value)):
                raise UsageError(f"{name} must be a tuple of real numbers, got {value!r}")
        if not isinstance(self.verify_first, bool):
            raise UsageError(f"verify_first must be a bool, got {self.verify_first!r}")
        if self.M not in VALID_ORDERS:
            raise UsageError(f"M must be one of {VALID_ORDERS}, got {self.M}")
        if self.n_rx < 2:
            raise UsageError(f"need at least 2 receive antennas, got {self.n_rx}")
        if self.tones < 1:
            raise UsageError(f"tones must be at least 1, got {self.tones}")
        if self.seed < 0:
            raise UsageError(f"seed must be nonnegative, got {self.seed}")
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

    def noise_model(self, snr_db: float) -> NoiseModel:
        """The noise model that every tone at ``snr_db`` shares."""
        return NoiseModel(noise_covariance(sigma2_from_snr_db(snr_db), self.rho, self.n_rx))


def _is_number(value, kind: type) -> bool:
    """Whether ``value`` is a ``kind`` number, numpy's included, and not a
    bool (numpy's bool is no ``numbers`` type)."""
    return isinstance(value, kind) and not isinstance(value, bool)


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
    model: NoiseModel,
    mu: float,
) -> ToneData:
    """Draw one random tone: channel, bits, noise, then genie feedback.

    The channel is an i.i.d. ``(N_r, 2)`` Gaussian matrix, one column per
    layer, with the receive antenna count taken from the covariance.  The
    draws are made in a fixed order from ``rng``, so one stream gives one
    tone.  Every tone drawn with one model shares its factorizations.

    Raises:
        TypeError: If ``model`` is not a ``NoiseModel``.
    """
    if not isinstance(model, NoiseModel):
        raise TypeError(f"expected a NoiseModel(covariance), got {type(model).__name__}")
    ch = make_channel(generate_channel(rng, model.covariance.shape[0]), model)
    bits = rng.integers(0, 2, size=(2, const.q))
    s = np.array(
        [bits_to_symbol(const, bits[0]), bits_to_symbol(const, bits[1])]
    )
    n = generate_noise(rng, model)
    y = transmit(s, ch, n)
    obs = whiten(y, ch)
    llrs = genie_priors(rng, bits, mu)
    return ToneData(
        channel=ch,
        bits=bits,
        noise=n,
        y=y,
        obs=obs,
        llrs=llrs,
    )


@dataclass
class ToneFailure:
    """The first tone of a sweep that failed the gate, kept for the dump;
    ``reason`` is the whole text of its ``FAILURE:`` line."""

    point_index: int
    tone_index: int
    point: tuple[float, float]
    data: ToneData
    reason: str


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _failure_report(cfg: SimConfig, failure: ToneFailure) -> str:
    """Failure line plus the full inputs of the tone, precise enough to
    reproduce it."""
    data = failure.data
    lines = [
        f"FAILURE: {failure.reason}",
        f"offending tone: point_index={failure.point_index} tone_index={failure.tone_index}",
        f"point: snr_db={_fmt(failure.point[0])} mu={_fmt(failure.point[1])}",
        f"config: M={cfg.M} n_rx={cfg.n_rx} seed={cfg.seed} rho={_fmt(cfg.rho)}",
        f"channel = {data.channel.effective_channel.tolist()!r}",
        f"noise_covariance = {data.channel.noise.covariance.tolist()!r}",
        f"true_bits = {data.bits.tolist()!r}",
        f"noise = {data.noise.tolist()!r}",
        f"y = {data.y.tolist()!r}",
        f"apriori_llrs = {data.llrs.values.tolist()!r}",
    ]
    return "\n".join(lines)


def _sweep(
    cfg: SimConfig, const: Constellation, stop_at_failure: bool
) -> tuple[list[SimRecord], ToneFailure | None]:
    """Run the (snr, mu) grid: one record per point and the first failure.

    The noise covariance depends on the SNR alone, so one ``NoiseModel``
    per distinct SNR is built before the loop and shared by every tone at
    that SNR: a full sweep factors ``2 S`` times for ``S`` distinct SNRs,
    whatever the mu list and the tone count.

    Every tone is drawn from its own (seed, point, tone) stream, detected
    by ``detect`` and by the exhaustive ``brute_force_maxlog``, and gated:
    it fails when an LLR is more than ``VERIFY_TOLERANCE`` from the
    reference or NaN, or when the counters break the model (2M candidate
    metrics, total at most the ``predicted_counts`` metrics, 4M - 2 sqrt(M)).
    Each point's record counts the detector's and the reference's bit
    errors, the metric counts and the largest LLR discrepancy over all its
    tones, NaN if any was.  With ``stop_at_failure`` the sweep returns at
    the first failing tone, before counting it, with the records of the
    points already finished; otherwise it runs to the end and returns the
    first failure it met.
    """
    ceiling = predicted_counts("proposed", cfg.M, cfg.n_rx).metrics
    bits_per_tone = 2 * const.q
    records: list[SimRecord] = []
    failure: ToneFailure | None = None
    points = [(snr, mu) for snr in cfg.snr_db_list for mu in cfg.mu_list]
    models = {snr: cfg.noise_model(snr) for snr in set(cfg.snr_db_list)}
    for p_idx, (snr_db, mu) in enumerate(points):
        det_errors = orc_errors = metric_sum = 0
        max_disc = 0.0
        for t_idx in range(cfg.tones):
            data = draw_tone(tone_rng(cfg.seed, p_idx, t_idx), const, models[snr_db], mu)
            result = detect(data.obs, const, data.llrs)
            reference = brute_force_maxlog(data.obs, const, data.llrs)
            disc = float(np.abs(result.llrs - reference).max())
            over = not disc <= VERIFY_TOLERANCE  # a NaN discrepancy fails too
            if failure is None and (
                over
                or result.candidate_metric_count != 2 * cfg.M
                or result.total_metric_count > ceiling
            ):
                counts = f"{result.candidate_metric_count}/{result.total_metric_count}"
                over_text = f"llr discrepancy {_fmt(disc)} exceeds {_fmt(VERIFY_TOLERANCE)}"
                reason = over_text if over else f"metric counts {counts}"
                failure = ToneFailure(p_idx, t_idx, (snr_db, mu), data, reason)
                if stop_at_failure:
                    return records, failure
            max_disc = float(np.maximum(max_disc, disc))  # keeps a NaN
            det_errors += int(np.count_nonzero((result.llrs > 0) != data.bits))
            orc_errors += int(np.count_nonzero((reference > 0) != data.bits))
            metric_sum += result.total_metric_count
        records.append(
            SimRecord(
                snr_db=snr_db,
                mu=mu,
                tones=cfg.tones,
                bit_errors_detector=det_errors,
                bit_errors_oracle=orc_errors,
                ber=det_errors / (cfg.tones * bits_per_tone),
                mean_total_metric_count=metric_sum / cfg.tones,
                max_llr_discrepancy_vs_oracle=max_disc,
            )
        )
    return records, failure


def run_verify(cfg: SimConfig) -> tuple[int, str]:
    """Detector-versus-reference agreement battery.

    Every tone is detected both ways; the run passes only if every tone
    passes the sweep's gate.  The first failing tone is reported, and the
    run goes on to the end.  Returns (exit status, report text).
    """
    records, failure = _sweep(cfg, build_constellation(cfg.M), stop_at_failure=False)
    lines = [
        f"verify M={cfg.M} n_rx={cfg.n_rx} tones_per_point={cfg.tones} "
        f"seed={cfg.seed} rho={_fmt(cfg.rho)}"
    ]
    for rec in records:
        lines.append(
            f"point snr_db={_fmt(rec.snr_db)} mu={_fmt(rec.mu)}: tones={rec.tones} "
            f"max_llr_discrepancy={_fmt(rec.max_llr_discrepancy_vs_oracle)} "
            f"mean_total_metric_count={_fmt(rec.mean_total_metric_count)}"
        )
    global_max = float(np.max([0.0, *(rec.max_llr_discrepancy_vs_oracle for rec in records)]))
    lines.append(f"global max_llr_discrepancy = {_fmt(global_max)}")
    lines.append(f"tolerance = {_fmt(VERIFY_TOLERANCE)}")
    if failure is not None:
        lines.append(_failure_report(cfg, failure))
    lines.append("RESULT: PASS" if failure is None else "RESULT: FAIL")
    return (0 if failure is None else 1), "\n".join(lines) + "\n"


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
    records, failure = _sweep(cfg, build_constellation(cfg.M), stop_at_failure=cfg.verify_first)
    if cfg.verify_first and failure is not None:
        return 1, records, _failure_report(cfg, failure) + "\n"
    return 0, records, "\n".join([SIM_CSV_HEADER, *map(_csv_row, records)]) + "\n"


REGIONS_CSV_HEADER = "axis,layer,symbol_index,point,lower,upper,empty"


def run_regions(cfg: SimConfig, llr_values) -> str:
    """Dump the four prior-shifted interval tables as CSV.

    The slicer gains come from the first tone of the configured stream
    (channel drawn from the seed, noise covariance from the one SNR), so
    the dump matches what detection on that tone would use.  More than one
    SNR is a usage error, as only one tone is drawn.
    """
    if len(cfg.snr_db_list) != 1:
        raise UsageError(
            f"snr_db (--snr-db) must be one SNR for regions, got {list(cfg.snr_db_list)}"
        )
    const = build_constellation(cfg.M)
    llr_arr = np.asarray(llr_values, dtype=float)
    if llr_arr.size != 2 * const.q:
        raise UsageError(
            f"expected {2 * const.q} LLR values for M={cfg.M}, got {llr_arr.size}"
        )
    try:
        llrs = clamp(llr_arr.reshape(2, const.q))
    except ValueError as err:
        raise UsageError(str(err)) from None

    model = cfg.noise_model(cfg.snr_db_list[0])
    obs = draw_tone(tone_rng(cfg.seed, 0, 0), const, model, cfg.mu_list[0]).obs
    pam = const.real_axis
    logp, gains = table_inputs(obs, pam, llrs)
    regions = build_regions(pam, logp, gains)
    upper = upper_bounds(pam, logp, gains)

    lines = [REGIONS_CSV_HEADER]
    for t, (lo, up, gone) in enumerate(zip(regions.lower, upper, regions.empty)):
        layer, axis = t // 2 + 1, ("real", "imag")[t % 2]
        for k, point in enumerate(pam.points):
            bounds = f"{_fmt(lo[k])},{_fmt(up[k])}"
            empty = "true" if gone[k] else "false"
            lines.append(f"{axis},{layer},{k},{_fmt(point)},{bounds},{empty}")
    return "\n".join(lines) + "\n"


COMPLEXITY_CSV_HEADER = "kind,M,Nr,metrics,muls,adds"


def run_complexity(orders, n_rx: int) -> tuple[str, str]:
    """Closed-form count model for all detector kinds; CSV plus a table."""
    rows = [predicted_counts(kind, M, n_rx) for M in orders for kind in DETECTOR_KINDS]
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


def _parse_bool(text: str) -> bool:
    if text.lower() not in ("true", "false", "0", "1"):
        raise ValueError("expected true/false")
    return text.lower() in ("true", "1")


# Each config key is the dest of the flag it overrides, with the SimConfig
# field both set (None: none) and its converter; lists are parsed last.
_CONFIG_KEYS = {
    "M": ("M", int),
    "nr": ("n_rx", int),
    "snr_db": ("snr_db_list", _parse_list),
    "mu": ("mu_list", _parse_list),
    "tones": ("tones", int),
    "seed": ("seed", int),
    "rho": ("rho", float),
    "out": (None, str),
    "verify_first": ("verify_first", _parse_bool),
}


def _config_from_args(args: argparse.Namespace) -> SimConfig:
    """The run's configuration from the parsed flags.

    The config file's keys are set on ``args`` first, each on the flag it
    is named after, so a subcommand takes exactly the keys of the flags
    it declares; any other key is a usage error.  A field that neither a
    flag nor a key sets keeps its ``SimConfig`` default.
    """
    for key, value in (load_config_file(args.config) if args.config else {}).items():
        if key not in _CONFIG_KEYS:
            raise UsageError(f"unknown config key {key!r}")
        if not hasattr(args, key):
            raise UsageError(f"config key {key!r} is not used by {args.command}")
        convert = _CONFIG_KEYS[key][1]
        if convert is _parse_list:
            _parse_list(value, key)  # a malformed list names the key, not the flag
        try:
            setattr(args, key, value if convert is _parse_list else convert(value))
        except ValueError as err:
            raise UsageError(f"bad value for config key {key!r}: {err}") from None
    settings = {}
    for key, (field, convert) in _CONFIG_KEYS.items():
        value = getattr(args, key, None)  # None: not given, or no such flag
        if field is None or value is None:
            continue
        if convert is _parse_list:
            value = _parse_list(value, "--" + key.replace("_", "-"))
        settings[field] = value
    return SimConfig(**settings)


def _write_out(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as err:
        raise UsageError(f"cannot write output file {path!r}: {err}") from None


def _check_out(path: str | None) -> None:
    """Fail before a sweep, not after it, when ``path`` cannot be written.

    Opening for appending truncates nothing, and a file the check creates
    is removed again, so a sweep that then fails leaves no file behind.
    """
    if path is None:
        return
    existed = os.path.lexists(path)
    try:
        with open(path, "a"):
            pass
    except OSError as err:
        raise UsageError(f"cannot write output file {path!r}: {err}") from None
    if not existed:
        os.remove(path)


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

    def tone_flags(sweep: bool) -> argparse.ArgumentParser:
        """The flags that set up tones, in the order usage and help print
        them.  ``--tones`` and ``--mu`` belong to the sweep of verify and
        simulate only: regions draws one fixed tone."""
        flags = argparse.ArgumentParser(add_help=False)
        flags.add_argument("--M", type=int, help="constellation order")
        flags.add_argument("--nr", type=int, help="receive antennas")
        if sweep:
            flags.add_argument("--tones", type=int, help="tones per grid point")
        flags.add_argument("--seed", type=int, help="master RNG seed")
        flags.add_argument("--rho", type=float, help="noise correlation coefficient")
        flags.add_argument("--out", help="output file path")
        flags.add_argument("--config", help="key=value file overriding flags")
        flags.add_argument(
            "--snr-db", help="comma list of SNRs" if sweep else "SNR of the one tone, in dB"
        )
        if sweep:
            flags.add_argument("--mu", help="comma list of mu values")
        return flags

    sweep = tone_flags(sweep=True)

    subs.add_parser(
        "verify",
        parents=[sweep],
        help="check detector against the exhaustive reference",
    )

    p_sim = subs.add_parser("simulate", parents=[sweep], help="Monte-Carlo BER sweep")
    p_sim.add_argument(
        "--verify-first",
        action=argparse.BooleanOptionalAction,
        help="exit 1 at the first tone that fails the check against the "
        "reference (default); --no-verify-first goes on and reports the "
        "worst LLR discrepancy in max_llr_discrepancy_vs_oracle",
    )

    p_reg = subs.add_parser(
        "regions",
        parents=[tone_flags(sweep=False)],
        help="dump prior-shifted interval tables",
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
    args = _build_parser().parse_args(argv)
    try:
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
        cfg = _config_from_args(args)
        if args.command in ("verify", "simulate"):
            _check_out(args.out)
        if args.command == "verify":
            status, report = run_verify(cfg)
            _write_out(args.out, report)
            if args.out is not None:
                sys.stdout.write(report.splitlines()[-1] + "\n")
            return status
        if args.command == "simulate":
            status, _, text = run_simulate(cfg)
            if status != 0:
                sys.stderr.write(text)
                return status
            _write_out(args.out, text)
            return 0
        _write_out(args.out, run_regions(cfg, _parse_list(args.llr, "--llr")))
        return 0
    except UsageError as err:
        sys.stderr.write(f"error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
