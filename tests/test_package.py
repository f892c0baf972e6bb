"""The runtime needs numpy only: no library or CLI path loads scipy.

Both checks run in a fresh interpreter, because this test process has
scipy loaded already (the references in ``helpers`` use it).
"""

import os
import subprocess
import sys
from pathlib import Path

import sisodet

ENV = dict(os.environ, PYTHONPATH=str(Path(sisodet.__file__).resolve().parents[1]))


def run_python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=ENV, timeout=120
    )


def test_import_loads_no_scipy():
    run = run_python(
        "import sys, sisodet, sisodet.simcli\n"
        "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))"
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


SCIPY_BLOCKED = """
import contextlib, io, sys
sys.modules["scipy"] = None  # every `import scipy...` now raises ImportError

import numpy as np
from sisodet import build_constellation, log_map
from sisodet.simcli import draw_tone, main, noise_covariance, sigma2_from_snr_db, tone_rng

runs = [
    ["verify", "--M", "16", "--tones", "3", "--snr-db", "0,20", "--mu", "0,4", "--rho", "0.5"],
    ["simulate", "--M", "4", "--tones", "3", "--snr-db", "0,10", "--mu", "0,4"],
    ["simulate", "--M", "4", "--tones", "3", "--no-verify-first"],
    ["regions", "--M", "16", "--llr", "0,0,0,0,0,-45,0,0"],
    ["complexity", "--M", "4,16,64,256"],
]
with contextlib.redirect_stdout(io.StringIO()):
    statuses = [main(argv) for argv in runs]
const = build_constellation(16)
C = noise_covariance(sigma2_from_snr_db(10.0), 0.5, 2)
tone = draw_tone(tone_rng(1, 0, 0), const, C, 4.0, 2)
print(statuses, bool(np.isfinite(log_map(tone.obs, const, tone.llrs)).all()))
"""


def test_cli_and_log_map_run_with_scipy_blocked():
    run = run_python(SCIPY_BLOCKED)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[0, 0, 0, 0, 0] True\n"
