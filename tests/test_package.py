"""The package as a whole: its runtime needs numpy only, its public API,
its import graph, the test modules named after its modules and the demos.

The two scipy checks run in a fresh interpreter, because this test
process has scipy loaded already (the references in ``helpers`` use it).
"""

import ast
import hashlib
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import sisodet
import sisodet.detector
import sisodet.oracle
import sisodet.priors

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
from sisodet import build_constellation
from sisodet.channel import NoiseModel
from sisodet.oracle import log_map
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
tone = draw_tone(tone_rng(1, 0, 0), const, NoiseModel(C), 4.0)
print(statuses, bool(np.isfinite(log_map(tone.obs, const, tone.llrs)).all()))
"""


def test_cli_and_log_map_run_with_scipy_blocked():
    run = run_python(SCIPY_BLOCKED)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[0, 0, 0, 0, 0] True\n"


RECEIVER_API = [
    "AprioriLLRs",
    "ChannelRealization",
    "ComplexityEstimate",
    "Constellation",
    "DetectionResult",
    "PamAxis",
    "WhitenedObservation",
    "bits_to_symbol",
    "brute_force_maxlog",
    "build_constellation",
    "clamp",
    "detect",
    "generate_channel",
    "generate_noise",
    "genie_priors",
    "make_channel",
    "predicted_counts",
    "symbol_to_bits",
    "transmit",
    "uniform_priors",
    "whiten",
]
# The stage functions detect is built from, imported from their own modules.
STAGES = {
    "DecisionRegions": "sisodet.slicer",
    "axis_log_priors": "sisodet.priors",
    "build_regions": "sisodet.slicer",
    "cholesky_factor": "sisodet.channel",
    "llrs_from_metrics": "sisodet.priors",
    "slice_statistic": "sisodet.slicer",
}
ORACLES = (
    "argmax_slice_oracle",
    "log_map",
    "pair_metric_table",
    "pairwise_boundary",
    "quadratic_norm",
    "residual_statistic",
)


def test_public_api_is_receiver_sized():
    """The package exports what a receiver needs plus the exhaustive
    max-log search; the stage functions detect is built from are imported
    from their own modules, and the other references live in sisodet.oracle
    only."""
    assert sorted(sisodet.__all__) == RECEIVER_API
    assert len(RECEIVER_API) == 21
    assert all(hasattr(sisodet, name) for name in sisodet.__all__)
    for name, module in STAGES.items():
        assert callable(getattr(importlib.import_module(module), name))
        assert not hasattr(sisodet, name)
    for name in ORACLES:
        assert callable(getattr(sisodet.oracle, name))
        assert name not in sisodet.__all__


def test_oracle_imports_no_detector_code():
    """The references share the constellation, the labelling and the
    a-priori LLR contract with the detector, but no slicing or detection
    code: agreement between the two paths means nothing otherwise."""
    tree = ast.parse(Path(sisodet.oracle.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative: the package the oracle lives in
                base = f"sisodet.{base}" if base else "sisodet"
            imported.append(base)
            imported += [f"{base}.{alias.name}" for alias in node.names]
    assert "sisodet.priors" in imported
    for name in imported:
        for forbidden in ("sisodet.slicer", "sisodet.detector"):
            assert name != forbidden and not name.startswith(forbidden + "."), name


def test_detect_and_oracle_share_the_llr_stage():
    """``detect`` and ``brute_force_maxlog`` end in one LLR stage, the
    function ``sisodet.priors`` defines, each through its own import."""
    assert sisodet.detector.llrs_from_metrics is sisodet.priors.llrs_from_metrics
    assert sisodet.oracle.llrs_from_metrics is sisodet.priors.llrs_from_metrics


def test_test_modules_name_package_modules():
    """Every test module but the acceptance and package suites is named
    after the sisodet module it tests, so no test file outlives its module."""
    for path in sorted(Path(__file__).resolve().parent.glob("test_*.py")):
        if path.name in ("test_acceptance.py", "test_package.py"):
            continue
        module = "sisodet." + path.stem[len("test_"):]
        assert importlib.util.find_spec(module) is not None, path.name


# sha256 of what each demo prints, or for the BER sweep, whose stdout
# depends on whether matplotlib is installed, of the CSV it writes.
DEMO_DIGESTS = {
    "ber_feedback_sweep.py": (
        "ber_sweep.csv", "b0afa380aeec0e9a68e55ce77fd6f7caa2bd856e1a98da64845d64dab8e6738e"
    ),
    "decision_regions.py": (
        "stdout", "a6e1202a32ecbc0886bb60a102a27c385d32a0a1dcadddbbff3a97dc6f47fd5f"
    ),
    "exact_detection.py": (
        "stdout", "f0fa9004b437e7745144e0b87a85c165a22b30ee424532c16f374882724ef8a2"
    ),
    "operation_counts.py": (
        "stdout", "8237b1087ed219fe211561d855b45aeafd9ea14ad883adc3c3b756028382d1c6"
    ),
}


def test_demos_run_and_keep_their_output(tmp_path):
    """Every demo exits 0 in a fresh directory with warnings as tier-1 treats
    them, so a silent overflow fails, and its output keeps its pinned bytes."""
    demos = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
    assert [demo.name for demo in demos] == sorted(DEMO_DIGESTS)
    for demo in demos:
        run = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
            capture_output=True, cwd=tmp_path, env=ENV, timeout=120,
        )
        assert run.returncode == 0, (demo.name, run.stderr.decode())
        output, digest = DEMO_DIGESTS[demo.name]
        data = run.stdout if output == "stdout" else (tmp_path / output).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, demo.name
