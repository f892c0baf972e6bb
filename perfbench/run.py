"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload receiver-m16 --seed 1 --seconds 40 --trace 0

The package is imported from the ``src/`` directory beside this one, so
the command works from the root of any checkout of the repository.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it measures half the time untraced and half with boundary wrappers
installed, and reports the per-layer metrics (see ``spec.py``).  Human
readable lines come first; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Spans of a
traced run are written to ``.perfbench/`` at the checkout root.

The exit status is 0 whenever a result line is printed, also when some
operation failed its output check (``correct`` is then false); it is 2
when the checkout holds no ``src/sisodet`` package.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import cpus
from spec import END_TO_END, PER_LAYER, WINDOW_OPS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUTPUT_DIR = ROOT / ".perfbench"
# One thread everywhere: BLAS/OpenMP pools would otherwise compete with the
# single closed-loop caller on a small machine.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
# setup_s is the median of this many fresh-process set-ups: the run's own
# and SETUP_REPEATS - 1 probe processes.
SETUP_REPEATS = 7
PROBE_TIMEOUT_S = 120


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def set_up(w, seed: int, workdir: Path):
    """Import the package, build the constellation and warm up; timed."""
    t0 = time.perf_counter()
    import workloads  # imports numpy, scipy and sisodet

    const = workloads.build_constellation(w.M)
    if w.kind == "receiver":
        runner = workloads.ReceiverRunner(w, seed, const)
    else:
        runner = workloads.SimulateRunner(w, seed, workdir)
    runner.warm_up()
    return time.perf_counter() - t0, runner


def probe_setup(args) -> float:
    """Set-up time of one fresh process running the same workload."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--setup-probe",
    ]
    done = subprocess.run(
        cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True, cwd=ROOT
    )
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus": cpus.allowed(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def end_to_end(m, setup_samples: list[float]) -> dict[str, float]:
    import numpy as np

    windows = m.windows(WINDOW_OPS)
    tones_per_op = m.tones / len(m.latencies_s)
    return {
        "tones_per_s": statistics.median(tones_per_op * len(t) / t.sum() for t in windows),
        "latency_p50_us": float(np.median(np.frombuffer(m.latencies_s, dtype=np.float64))) * 1e6,
        "latency_p99_us": statistics.median(float(np.percentile(t, 99)) for t in windows) * 1e6,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(w, args, runner, workdir: Path, untraced, traced):
    """Alternate untraced and traced blocks; returns the per-layer metrics.

    Alternating block by block keeps the two halves under the same machine
    load, so trace.overhead_ratio compares like with like.
    """
    import workloads
    from tracing import Tracer, per_layer_metrics

    tr = Tracer()
    with tr:
        workloads.build_constellation(w.M)

    def untraced_then_traced():
        runner.block(untraced)
        with tr:
            runner.block(traced, tr)

    workloads.run_for(args.seconds, untraced_then_traced)
    if w.kind == "receiver":
        # simcli.* need a sweep: one short traced one over this workload's grid.
        with Tracer() as sim:
            status = workloads.simcli_main(
                workloads.simulate_argv(w, args.seed, workdir / "probe.csv")
            )
        if status != 0:
            traced.fail(f"simulate probe sweep: exit status {status}")
    else:
        sim = tr
    metrics = per_layer_metrics(tr, sim, w.M, traced.tones_per_s / untraced.tones_per_s)
    spans = OUTPUT_DIR / f"trace-{w.name}-seed{args.seed}.npz"
    tr.write(spans)
    return metrics, spans


def report(w, args, env, metrics: dict, units: dict, notes: dict, m_all) -> None:
    print(f"perfbench workload={w.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"why: {w.why}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        shown = "MISSING (boundary never called)" if value is None else f"{value:.6g} {units[name]}"
        print(f"  {name:<36} {shown:<28} {notes[name]}")
    rate = m_all.failed / m_all.attempted if m_all.attempted else float("nan")
    print(f"  {'error_rate':<36} {rate:<28.6g} {m_all.failed} failed / {m_all.attempted} operations")
    for reason in m_all.failures:
        print(f"  FAILED {reason}")


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "sisodet" / "__init__.py").is_file():
        print(f"perfbench: no sisodet package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    w = WORKLOADS[args.workload]
    OUTPUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUTPUT_DIR))
    try:
        if args.setup_probe:
            setup_s, _ = set_up(w, args.seed, workdir)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        # Set-up samples take the CPUs in turn, as the timed blocks do.
        rotation = cpus.allowed()
        probes = []
        for k in range(0 if args.trace else SETUP_REPEATS - 1):
            with cpus.pinned(rotation[k % len(rotation)]):
                probes.append(probe_setup(args))
        with cpus.pinned(rotation[len(probes) % len(rotation)]):
            setup_s, runner = set_up(w, args.seed, workdir)
        import sisodet
        import workloads

        if Path(sisodet.__file__).resolve().parent != SRC / "sisodet":
            print(f"perfbench: imported sisodet from {sisodet.__file__}", file=sys.stderr)
            return 2
        env = environment()
        m = workloads.Measurement()
        if args.trace:
            traced = workloads.Measurement()
            metrics, spans = traced_run(w, args, runner, workdir, m, traced)
            m.attempted += traced.attempted
            m.failed += traced.failed
            m.failures += traced.failures
            table = PER_LAYER
        else:
            workloads.run_for(args.seconds, lambda: runner.block(m))
            metrics = end_to_end(m, [setup_s, *probes])
            table = END_TO_END
        units = {name: unit for name, unit, _ in table}
        notes = {name: note for name, _, note in table}
        report(w, args, env, metrics, units, notes, m)
        if args.trace:
            print(f"spans written to {spans.relative_to(ROOT)}")
        else:
            print(f"  setup samples (s): {[round(s, 4) for s in [setup_s, *probes]]}; "
                  f"{len(m.latencies_s)} operations, {m.tones} tones, "
                  f"{len(m.windows(WINDOW_OPS))} windows of {WINDOW_OPS} operations")
        result = {
            "correct": m.failed == 0,
            "attempted": m.attempted,
            "failed": m.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name, _, _ in table},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
