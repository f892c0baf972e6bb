"""The three benchmark workloads: input generation, timed loops, output checks.

Every workload runs in one process with one closed-loop caller on one
thread: the next operation starts only after the previous one returned.
Inputs are drawn with plain numpy from the benchmark seed, outside the
timed region, so the program only ever sees the generated arrays.  All
workloads use N_r = N_t = 2 and exponentially correlated noise with
rho = 0.5.

Importing this module imports ``sisodet`` (and with it numpy and scipy),
so ``run.py`` imports it inside the timed set-up.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# run.py calls build_constellation through this module, so the traced run
# sees it at the benchmark's own import boundary.
from sisodet import (
    brute_force_maxlog,
    build_constellation,
    clamp,
    detect,
    make_channel,
    whiten,
)
from sisodet.simcli import SIM_CSV_HEADER
from sisodet.simcli import main as simcli_main
import cpus
from spec import RHO, Workload

ORACLE_GATE = 1e-6
RECEIVER_BLOCK = 128
SIMULATE_TONES_PER_POINT = 1
SIMULATE_BLOCK = 8
SIMULATE_RECHECK_EVERY = 16
WARMUP_RECEIVER_TONES = 64
WARMUP_SIMULATE_CALLS = 2


@dataclass
class Measurement:
    """What one timed loop saw: per-operation times and output checks."""

    latencies_s: array = field(default_factory=lambda: array("d"))
    tones: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)  # first few reasons

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(reason)

    def timed(self, op, *args):
        """Run one operation, timed; an exception is returned, not raised.

        The time is the CPU time of the whole process (every thread, user
        and kernel).  For this single-threaded, CPU-bound loop it equals
        the wall time on an idle host, but it leaves out the milliseconds
        at a time when a shared host runs another guest on this vCPU
        (steal time), which otherwise made the p99 of two runs of the same
        code differ by a third.  Work moved to other threads still counts.
        """
        self.attempted += 1
        t0 = time.process_time()
        try:
            out = op(*args)
        except Exception as err:  # a failed operation still counts
            out = err
        self.latencies_s.append(time.process_time() - t0)
        return out

    @property
    def tones_per_s(self) -> float:
        """Tones over the summed time of the timed operations (checks excluded)."""
        return self.tones / sum(self.latencies_s)

    def windows(self, ops: int) -> list[np.ndarray]:
        """Operation times in seconds, cut into consecutive windows of ``ops``.

        A trailing partial window is dropped, unless the run is shorter
        than one window; then the whole run is the only window.
        """
        times = np.frombuffer(self.latencies_s, dtype=np.float64)
        full = len(times) // ops
        if full == 0:
            return [times]
        return list(times[: full * ops].reshape(full, ops))


def run_for(seconds: float, step) -> None:
    """Closed loop: call ``step()`` until ``seconds`` have passed.

    Each call runs whole blocks of operations, pinned to the next CPU in
    turn (see ``cpus.py``).
    """
    rotation = cpus.allowed()
    deadline = time.perf_counter() + seconds
    turn = 0
    while time.perf_counter() < deadline:
        with cpus.pinned(rotation[turn % len(rotation)]):
            step()
        turn += 1


# --- receiver workloads -----------------------------------------------------


@dataclass
class ReceiverInputs:
    """One block of receiver tones, as arrays indexed by tone."""

    H: np.ndarray  # (n, 2, 2) physical channel
    C: np.ndarray  # (n, 2, 2) noise covariance
    y: np.ndarray  # (n, 2) received vector
    raw_llrs: np.ndarray  # (n, 2, q) unclamped a-priori LLRs

    def __len__(self) -> int:
        return self.y.shape[0]


def receiver_inputs(
    rng: np.random.Generator, w: Workload, q: int, symbols: np.ndarray, first: int, n: int
) -> ReceiverInputs:
    """Tones ``first .. first+n-1``: channel, noise, symbols and genie feedback.

    SNR and mu cycle over the workload's sets, so every (SNR, mu) pair
    recurs every ``len(snrs_db) * len(mus)`` tones.
    """
    idx = np.arange(first, first + n)
    snr_db = np.asarray(w.snrs_db)[idx % len(w.snrs_db)]
    mu = np.asarray(w.mus)[(idx // len(w.snrs_db)) % len(w.mus)]
    sigma2 = 2.0 / 10.0 ** (snr_db / 10.0)
    shape = np.array([[1.0, RHO], [RHO, 1.0]], dtype=complex)
    C = sigma2[:, None, None] * shape
    H = (rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))) / np.sqrt(2.0)
    bits = rng.integers(0, 2, size=(n, 2, q))
    s = symbols[bits @ (1 << np.arange(q - 1, -1, -1))]
    w_noise = (rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))) / np.sqrt(2.0)
    noise = (np.linalg.cholesky(C) @ w_noise[..., None])[..., 0]
    y = (H @ s[..., None])[..., 0] + noise
    raw = mu[:, None, None] * (2.0 * bits - 1.0) + rng.standard_normal(
        (n, 2, q)
    ) * np.sqrt(2.0 * mu)[:, None, None]
    return ReceiverInputs(H=H, C=C, y=y, raw_llrs=raw)


def receiver_operation(const, raw_llrs, H, C, y):
    """The timed receiver path for one tone."""
    llrs = clamp(raw_llrs)
    ch = make_channel(H, C)
    obs = whiten(y, ch)
    return obs, llrs, detect(obs, const, llrs)


def check_receiver(const, obs, llrs, result, with_oracle: bool) -> str | None:
    """Reason the tone's output is wrong, or None when it passes."""
    if not np.all(np.isfinite(result.llrs)):
        return "non-finite LLR"
    if result.candidate_metric_count != 2 * const.M:
        return f"candidate_metric_count {result.candidate_metric_count} != {2 * const.M}"
    ceiling = 4 * const.M - 2 * const.real_axis.L
    if result.total_metric_count > ceiling:
        return f"total_metric_count {result.total_metric_count} > {ceiling}"
    if with_oracle:
        gap = float(np.max(np.abs(result.llrs - brute_force_maxlog(obs, const, llrs))))
        if not gap <= ORACLE_GATE:
            return f"LLR gap {gap:.3e} vs brute_force_maxlog"
    return None


class ReceiverRunner:
    """Closed-loop receiver workload over a seeded, unbounded tone stream."""

    def __init__(self, w: Workload, seed: int, const):
        self.w = w
        self.const = const
        self.rng = np.random.default_rng([seed, w.M])
        # Fixed seeded sample of tones checked against the exhaustive oracle.
        self.sample_rng = np.random.default_rng([seed, w.M, 1])
        self.next_tone = 0

    def _block(self, rng: np.random.Generator, n: int) -> ReceiverInputs:
        return receiver_inputs(rng, self.w, self.const.q, self.const.symbols, self.next_tone, n)

    def warm_up(self) -> None:
        block = self._block(np.random.default_rng([self.w.M, 2]), WARMUP_RECEIVER_TONES)
        for i in range(len(block)):
            receiver_operation(self.const, block.raw_llrs[i], block.H[i], block.C[i], block.y[i])

    def block(self, m: Measurement, tracer=None) -> None:
        """RECEIVER_BLOCK timed tones, then their output checks (untimed)."""
        block = self._block(self.rng, RECEIVER_BLOCK)
        first = self.next_tone
        self.next_tone += len(block)
        outputs = []
        for i in range(len(block)):
            if tracer is not None:
                tracer.current_tone = first + i
            outputs.append(
                m.timed(receiver_operation, self.const, block.raw_llrs[i], block.H[i], block.C[i], block.y[i])
            )
        m.tones += len(block)
        oracle = self.sample_rng.random(len(block)) * self.w.oracle_every < 1.0
        for i, out in enumerate(outputs):
            if tracer is not None:
                tracer.current_tone = first + i
            if isinstance(out, Exception):
                reason = f"{type(out).__name__}: {out}"
            else:
                reason = check_receiver(self.const, *out, with_oracle=bool(oracle[i]))
            if reason is not None:
                m.fail(f"tone {first + i}: {reason}")


# --- simulate workload ------------------------------------------------------


def simulate_argv(w: Workload, call_seed: int, out: Path) -> list[str]:
    """``sisodet simulate`` over the workload's (SNR, mu) grid, oracle on."""
    return [
        "simulate",
        "--M", str(w.M),
        "--snr-db", ",".join(f"{v:g}" for v in w.snrs_db),
        "--mu", ",".join(f"{v:g}" for v in w.mus),
        "--rho", str(RHO),
        "--tones", str(SIMULATE_TONES_PER_POINT),
        "--seed", str(call_seed),
        "--out", str(out),
    ]


def check_simulate_csv(w: Workload, text: str) -> str | None:
    """Reason the CSV is wrong, or None when every row passes the gate."""
    lines = text.splitlines()
    if not lines or lines[0] != SIM_CSV_HEADER:
        return "CSV header mismatch"
    rows = [line.split(",") for line in lines[1:]]
    points = len(w.snrs_db) * len(w.mus)
    if len(rows) != points or any(row[2] != str(SIMULATE_TONES_PER_POINT) for row in rows):
        return f"expected {points} rows of {SIMULATE_TONES_PER_POINT} tones"
    for row in rows:
        gap = float(row[-1])
        if not gap <= ORACLE_GATE:
            return f"max_llr_discrepancy_vs_oracle {gap:.3e} at snr_db={row[0]} mu={row[1]}"
    return None


class SimulateRunner:
    """Closed loop of in-process ``sisodet simulate`` calls, one seed each."""

    def __init__(self, w: Workload, seed: int, workdir: Path):
        self.w = w
        self.seed_rng = np.random.default_rng([seed, w.M])
        self.out = workdir / "simulate.csv"
        self.repeat = workdir / "simulate-repeat.csv"
        self.calls = 0
        self.tones_per_call = len(w.snrs_db) * len(w.mus) * SIMULATE_TONES_PER_POINT

    def _call(self, call_seed: int, out: Path) -> int:
        return simcli_main(simulate_argv(self.w, call_seed, out))

    def warm_up(self) -> None:
        for _ in range(WARMUP_SIMULATE_CALLS):
            self._call(int(self.seed_rng.integers(2**31)), self.out)

    def block(self, m: Measurement, tracer=None) -> None:
        """SIMULATE_BLOCK timed sweep calls, each checked after it returns.

        Tone ids for the tracer come from the traced ``tone_rng`` boundary.
        """
        for _ in range(SIMULATE_BLOCK):
            call_seed = int(self.seed_rng.integers(2**31))
            status = m.timed(self._call, call_seed, self.out)
            m.tones += self.tones_per_call
            reason = self._check(status, call_seed)
            self.calls += 1
            if reason is not None:
                m.fail(f"call seed {call_seed}: {reason}")

    def _check(self, status, call_seed: int) -> str | None:
        if isinstance(status, Exception):
            return f"{type(status).__name__}: {status}"
        if status != 0:
            return f"exit status {status}"
        text = self.out.read_bytes()
        reason = check_simulate_csv(self.w, text.decode())
        if reason is None and self.calls % SIMULATE_RECHECK_EVERY == 0:
            status = self._call(call_seed, self.repeat)
            if status != 0 or self.repeat.read_bytes() != text:
                reason = "CSV differs on a repeated call with the same seed"
        return reason
