"""Traced run: spans recorded at layer boundaries from outside the package.

Each wrapper replaces a public function at the place where its caller
looks it up: the name the calling module imported (``sisodet.detector
.build_regions``, ``sisodet.simcli.detect``, the benchmark's own
``workloads.detect``), or the module global for a call inside the defining
module (``sisodet.detector.llrs_from_metrics``).  Nothing in the package
changes; the wrappers are installed only for the traced part of a
``--trace 1`` run and removed afterwards.

A span is (name, start, end, parent span, tone id), kept in compact
in-memory arrays and written out once the run ends.  Counts are read off
return values at the same boundaries.  A per-layer metric whose boundary
was never called is reported as missing (None), never as 0, so a later
refactor that bypasses a boundary shows up instead of reading as a
speed-up.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from math import isqrt
from pathlib import Path

import numpy as np

from sisodet.complexity import predicted_counts
from spec import PER_LAYER

# (calling module, name it imported, span name as layer.function, what to
# record from the return value)
BOUNDARIES = (
    ("workloads", "build_constellation", "constellation.build_constellation", None),
    ("workloads", "clamp", "priors.clamp", None),
    ("workloads", "make_channel", "channel.make_channel", None),
    ("workloads", "whiten", "channel.whiten", None),
    ("workloads", "detect", "detector.detect", "result"),
    ("workloads", "brute_force_maxlog", "oracle.brute_force_maxlog", "result"),
    ("workloads", "simcli_main", "simcli.main", None),
    ("sisodet.channel", "cholesky_factor", "numerics.cholesky_factor", None),
    ("sisodet.priors", "clamp", "priors.clamp", None),
    ("sisodet.detector", "axis_log_priors", "priors.axis_log_priors", None),
    ("sisodet.detector", "build_regions", "slicer.build_regions", "regions"),
    ("sisodet.detector", "slice_statistic", "slicer.slice_statistic", None),
    ("sisodet.detector", "llrs_from_metrics", "detector.llrs_from_metrics", None),
    ("sisodet.simcli", "build_constellation", "constellation.build_constellation", None),
    ("sisodet.simcli", "tone_rng", "simcli.tone_rng", "new_tone"),
    ("sisodet.simcli", "generate_channel", "channel.generate_channel", None),
    ("sisodet.simcli", "make_channel", "channel.make_channel", None),
    ("sisodet.simcli", "bits_to_symbol", "constellation.bits_to_symbol", None),
    ("sisodet.simcli", "generate_noise", "channel.generate_noise", None),
    ("sisodet.simcli", "transmit", "channel.transmit", None),
    ("sisodet.simcli", "whiten", "channel.whiten", None),
    ("sisodet.simcli", "genie_priors", "priors.genie_priors", None),
    ("sisodet.simcli", "detect", "detector.detect", "result"),
    ("sisodet.simcli", "brute_force_maxlog", "oracle.brute_force_maxlog", "result"),
)

TONE_GEN_SPANS = (
    "simcli.tone_rng",
    "channel.generate_channel",
    "constellation.bits_to_symbol",
    "channel.generate_noise",
    "channel.transmit",
    "priors.genie_priors",
)


class Tracer:
    """Span recorder for wrapped boundaries; installs and removes wrappers."""

    def __init__(self):
        self.current_tone = -1
        self.name_ids: dict[str, int] = {}  # span name -> id stored in ``name``
        self.name = array("i")
        self.parent = array("i")
        self.tone = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, list] = defaultdict(list)  # name -> [(tone, value)]
        self._stack = [-1]
        self._installed: list[tuple] = []

    def _wrap(self, module, attr: str, name: str, record) -> None:
        original = getattr(module, attr)
        name_id = self.name_ids.setdefault(name, len(self.name_ids))
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if record == "new_tone":
                tracer.current_tone += 1
            span = len(tracer.start)
            tracer.name.append(name_id)
            tracer.parent.append(tracer._stack[-1])
            tracer.tone.append(tracer.current_tone)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(span)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.start[span] = t0
                tracer.end[span] = t1
            if record == "result":
                tracer.counts[name].append((tracer.current_tone, result))
            elif record == "regions":
                tracer.counts[name].append((result.boundary_count, bool(result.empty.any())))
            return result

        setattr(module, attr, traced)
        self._installed.append((module, attr, original))

    def __enter__(self) -> "Tracer":
        for module_name, attr, name, record in BOUNDARIES:
            self._wrap(sys.modules[module_name], attr, name, record)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "tone": np.array(self.tone, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def write(self, path: Path) -> None:
        """Write every span (and the name table) as one compressed npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(list(self.name_ids)), **self.arrays())


def _us(seconds) -> float:
    return float(seconds) * 1e6


def per_layer_metrics(
    tr: Tracer, sim: Tracer, M: int, overhead_ratio: float
) -> dict[str, float | None]:
    """Every PER_LAYER metric from the traced spans; None marks a missing one.

    ``tr`` holds the traced part of the workload; ``sim`` holds the spans
    of a traced ``sisodet simulate`` sweep (the same tracer on
    simulate-m64).  Per-tone values divide by the number of detect calls.
    """
    a = tr.arrays()
    dur = a["end"] - a["start"]

    def mask(name: str) -> np.ndarray:
        return a["name"] == tr.name_ids.get(name, -1)

    def called(name: str) -> bool:
        return bool(mask(name).any())

    detects = tr.counts["detector.detect"]
    T = len(detects)
    out: dict[str, float | None] = {name: None for name, _, _ in PER_LAYER}

    def per_tone(name: str) -> float | None:
        return _us(dur[mask(name)].sum() / T) if T and called(name) else None

    def median_call(name: str) -> float | None:
        return _us(np.median(dur[mask(name)])) if called(name) else None

    out["channel.make_channel_us"] = median_call("channel.make_channel")
    out["channel.whiten_us"] = median_call("channel.whiten")
    if T and called("numerics.cholesky_factor"):
        out["numerics.cholesky_calls_per_tone"] = int(mask("numerics.cholesky_factor").sum()) / T
    out["numerics.cholesky_us"] = per_tone("numerics.cholesky_factor")
    out["priors.clamp_us"] = per_tone("priors.clamp")
    out["priors.axis_log_priors_us"] = per_tone("priors.axis_log_priors")
    out["slicer.build_regions_us"] = per_tone("slicer.build_regions")
    out["slicer.slice_statistic_us"] = per_tone("slicer.slice_statistic")
    out["detector.detect_us"] = per_tone("detector.detect")
    out["detector.llrs_from_metrics_us"] = per_tone("detector.llrs_from_metrics")
    out["oracle.brute_force_us"] = median_call("oracle.brute_force_maxlog")
    out["constellation.build_us"] = median_call("constellation.build_constellation")

    tables = tr.counts["slicer.build_regions"]
    if T and tables:
        ceiling = 2 * (M - isqrt(M))
        boundary_mean = sum(count for count, _ in tables) / T
        out["slicer.boundary_count_mean"] = boundary_mean
        out["slicer.thresholds_saved_ratio"] = 1.0 - boundary_mean / ceiling
        out["slicer.pruned_table_share"] = sum(p for _, p in tables) / len(tables)

    if T:
        d = np.flatnonzero(mask("detector.detect"))
        children = np.isin(a["parent"], d)
        out["detector.self_us"] = _us((dur[d].sum() - dur[children].sum()) / T)
        total_metrics = float(np.mean([r.total_metric_count for _, r in detects]))
        out["detector.ns_per_metric"] = out["detector.detect_us"] * 1e3 / total_metrics
        proposed = predicted_counts("proposed", M, 2).metrics
        brute = predicted_counts("brute", M, 2).metrics
        out["complexity.measured_over_predicted"] = total_metrics / proposed
        out["complexity.count_ratio_vs_brute"] = proposed / brute

    references = tr.counts["oracle.brute_force_maxlog"]
    if T and references:
        out["oracle.ns_per_metric"] = out["oracle.brute_force_us"] * 1e3 / (M * M)
        out["complexity.wall_ratio_vs_brute"] = (
            out["detector.detect_us"] / _us(dur[mask("oracle.brute_force_maxlog")].mean())
        )
        detected = {tone: r.llrs for tone, r in detects}
        gaps = np.array(
            [np.max(np.abs(detected[tone] - ref)) for tone, ref in references if tone in detected]
        )
        if gaps.size:
            out["oracle.max_llr_discrepancy"] = float(gaps.max())
            out["oracle.discrepancy_p99"] = float(np.percentile(gaps, 99))

    out.update(_simcli_metrics(sim))
    out["trace.overhead_ratio"] = overhead_ratio
    return out


def _simcli_metrics(sim: Tracer) -> dict[str, float | None]:
    a = sim.arrays()
    dur = a["end"] - a["start"]
    T = len(sim.counts["detector.detect"])
    found = {n: a["name"] == sim.name_ids.get(n, -1) for n in ("simcli.main", *TONE_GEN_SPANS)}
    if not T or not all(m.any() for m in found.values()):
        return {"simcli.tone_gen_us": None, "simcli.self_us": None}
    tone_gen = sum(dur[found[n]].sum() for n in TONE_GEN_SPANS)
    mains = np.flatnonzero(found["simcli.main"])
    children = np.isin(a["parent"], mains)
    return {
        "simcli.tone_gen_us": _us(tone_gen / T),
        "simcli.self_us": _us((dur[mains].sum() - dur[children].sum()) / T),
    }
