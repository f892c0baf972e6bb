"""Exact max-log soft-input soft-output detection for dual-layer MIMO.

The fast detector turns the per-layer inner maximization into a slicing
operation with prior-shifted thresholds, so its per-tone cost is linear
in the constellation size while its bit LLRs match an exhaustive
pairwise max-log search exactly.  A closed-form operation-count model
and a Monte-Carlo CLI harness round out the package.  The exported names
are what a receiver needs, plus the exhaustive max-log search the CLI
gates on.  The stage functions ``detect`` is built from are imported from
their own modules (``sisodet.slicer``, ``sisodet.priors``,
``sisodet.detector``, ``sisodet.channel``), and every other reference
the tests compare against lives in ``sisodet.oracle``.
"""

from .channel import (
    ChannelRealization,
    WhitenedObservation,
    generate_channel,
    generate_noise,
    make_channel,
    transmit,
    whiten,
)
from .complexity import ComplexityEstimate, predicted_counts
from .constellation import (
    Constellation,
    PamAxis,
    bits_to_symbol,
    build_constellation,
    symbol_to_bits,
)
from .detector import DetectionResult, detect
from .oracle import brute_force_maxlog
from .priors import AprioriLLRs, clamp, genie_priors, uniform_priors

__version__ = "0.1.0"

__all__ = [
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
