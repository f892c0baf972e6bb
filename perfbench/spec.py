"""What the benchmark measures: workloads, metrics, and why each is there.

Standard library only, so ``run.py`` can read it before the timed set-up
imports numpy and the package.  ``BENCHMARK.json`` at the repository root
repeats these names, units and reasons; ``test_perfbench.py`` keeps the
two in step.
"""

from __future__ import annotations

from dataclasses import dataclass

RHO = 0.5


@dataclass(frozen=True)
class Workload:
    """One benchmark workload and the reason it is in the benchmark."""

    name: str
    M: int
    kind: str  # "receiver": one tone per operation; "simulate": one sweep
    snrs_db: tuple
    mus: tuple
    oracle_every: int  # receiver: check about one tone in n against the oracle
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="receiver-m16",
            M=16,
            kind="receiver",
            snrs_db=(0.0, 10.0, 20.0),
            mus=(0.0, 4.0, 16.0),
            oracle_every=1,
            why=(
                "16-QAM receiver path per tone; fixed per-tone overhead and "
                "whitening dominate, the region walk is short and rarely "
                "prunes, so a whitening or overhead change shows here"
            ),
        ),
        Workload(
            name="receiver-m256",
            M=256,
            kind="receiver",
            snrs_db=(0.0, 10.0, 20.0),
            mus=(0.0, 16.0),
            oracle_every=32,
            why=(
                "256-QAM receiver path per tone; linear-in-M region build and "
                "slicing dominate and strong feedback makes the empty-region "
                "skip run, so a slicer or detector change shows here"
            ),
        ),
        Workload(
            name="simulate-m64",
            M=64,
            kind="simulate",
            snrs_db=(0.0, 4.0, 8.0, 12.0),
            mus=(0.0, 2.0, 8.0),
            oracle_every=1,
            why=(
                "sisodet simulate at 64-QAM with the oracle on every tone; "
                "the harness owns the tone loop, so a batched engine or an "
                "oracle-policy change shows here"
            ),
        ),
    )
}

# (name, unit, meaning) with tracing off.  error_rate is reported beside
# them with its base but is not a bounded metric: it is 0 on a correct
# program, and the result line carries it as `failed` over `attempted`.
# Operation times are process CPU time (see workloads.Measurement.timed).
# A window is WINDOW_OPS consecutive operations, so that 10 lie beyond its
# p99; the median over windows keeps a burst of host load from moving a
# whole run's figure.
WINDOW_OPS = 1000
END_TO_END = (
    ("tones_per_s", "tones/s",
     "tones per CPU second of timed operations in a window, median over windows"),
    ("latency_p50_us", "us",
     "median CPU time of one operation: one tone on receiver-*, one 12-tone sweep call "
     "on simulate-m64"),
    ("latency_p99_us", "us", "99th percentile of the same in a window, median over windows"),
    ("setup_s", "s",
     "import sisodet, build_constellation(M) and warm-up; median of fresh-process set-ups"),
    ("peak_rss_mb", "MB", "peak resident set size of the workload process"),
)

# (name, unit, how it is taken and the end-to-end metric it should move)
PER_LAYER = (
    ("channel.make_channel_us", "us",
     "median per call; tones_per_s and latency_p50_us on receiver-m16, little on receiver-m256"),
    ("channel.whiten_us", "us",
     "median per call; tones_per_s and latency_p50_us on receiver-m16, little on receiver-m256"),
    ("numerics.cholesky_calls_per_tone", "count",
     "exact, 2 on the receiver path and 3 in simulate; with channel.*, fewer after one "
     "whitening path"),
    ("numerics.cholesky_us", "us",
     "per tone; tones_per_s and latency_p50_us on receiver-m16, little on receiver-m256"),
    ("priors.clamp_us", "us", "per tone; small on every workload"),
    ("priors.axis_log_priors_us", "us", "per tone; small on every workload"),
    ("slicer.build_regions_us", "us",
     "per tone (4 calls); tones_per_s on receiver-m256 most, then simulate-m64, "
     "least receiver-m16"),
    ("slicer.slice_statistic_us", "us",
     "per tone (4 calls); tones_per_s on receiver-m256 most, then simulate-m64, "
     "least receiver-m16"),
    ("slicer.boundary_count_mean", "count",
     "thresholds per tone; a count that no exactness-preserving change may move"),
    ("slicer.thresholds_saved_ratio", "ratio",
     "thresholds saved over the 2(M - sqrt(M)) ceiling; a count, unchanged by exact changes"),
    ("slicer.pruned_table_share", "ratio",
     "tables with an empty amplitude over 4 tables per tone; unchanged by exact changes"),
    ("detector.detect_us", "us", "per tone; tones_per_s on receiver-m256 most"),
    ("detector.self_us", "us",
     "per tone, detect minus its child spans; tones_per_s on receiver-m256 most"),
    ("detector.llrs_from_metrics_us", "us", "per tone (2 calls); receiver-m256 most"),
    ("detector.ns_per_metric", "ns", "detect time per counted metric (2M plus thresholds)"),
    ("oracle.brute_force_us", "us",
     "median per call (M^2 pair metrics); tones_per_s on simulate-m64 only"),
    ("oracle.ns_per_metric", "ns", "oracle time per pair metric, base M^2"),
    ("oracle.max_llr_discrepancy", "llr",
     "worst |detect - brute_force_maxlog| over oracle-checked tones"),
    ("oracle.discrepancy_p99", "llr", "99th percentile of the per-tone worst LLR gap"),
    ("complexity.measured_over_predicted", "ratio",
     "mean total_metric_count over predicted_counts('proposed').metrics"),
    ("complexity.count_ratio_vs_brute", "ratio", "model metrics, proposed over brute"),
    ("complexity.wall_ratio_vs_brute", "ratio",
     "detector.detect_us over mean brute_force_maxlog time; does wall time follow the count"),
    ("simcli.tone_gen_us", "us",
     "per tone: tone_rng, generate_channel, bits_to_symbol, generate_noise, transmit, "
     "genie_priors; tones_per_s on simulate-m64 only"),
    ("simcli.self_us", "us",
     "per tone, simulate minus all its child spans; tones_per_s on simulate-m64 only"),
    ("constellation.build_us", "us", "median per call; setup_s"),
    ("trace.overhead_ratio", "ratio", "traced tones_per_s over untraced; qualifies the rest"),
)
