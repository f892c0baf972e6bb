"""Closed-form operation counts for the three detector variants.

The counts model the work to produce all 2 log2(M) bit LLRs for one tone:
the slicing detector ("proposed"), the three-candidate list detector it
is benchmarked against ("tlord"), and the exhaustive pairwise search
("brute").  Metric counts for the slicing detector are also measured
live; multiply/add counts are evaluated from the model only, since they
depend on arithmetic conventions below the granularity of this library.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import isqrt

from .constellation import require_valid_order

DETECTOR_KINDS = ("proposed", "tlord", "brute")


@dataclass(frozen=True)
class ComplexityEstimate:
    """Per-tone operation counts for one detector variant."""

    detector_kind: str
    M: int
    n_rx: int
    q: int
    metrics: int
    real_muls: int
    real_adds: int


def predicted_counts(kind: str, M: int, n_rx: int) -> ComplexityEstimate:
    """Evaluate the closed-form per-tone counts for one detector kind."""
    M = require_valid_order(M)
    if kind not in DETECTOR_KINDS:
        raise ValueError(f"detector kind must be one of {DETECTOR_KINDS}, got {kind!r}")
    try:
        n_rx = operator.index(n_rx)
    except TypeError:
        raise ValueError(f"receive antenna count must be an integer, got {n_rx!r}") from None
    if n_rx < 2:
        raise ValueError(f"need at least two receive antennas, got {n_rx}")
    root = isqrt(M)
    q = M.bit_length() - 1
    if kind == "proposed":
        metrics = 4 * M - 2 * root
        muls = (16 * n_rx + 18) * M - 2 * root
        adds = (12 * n_rx + 3 * q + 18) * M - (q + 2) * root - 4
    elif kind == "tlord":
        metrics = 6 * M
        muls = (16 * n_rx + 48) * M
        adds = (12 * n_rx + 2 * q + 52) * M - 4
    else:
        metrics = M * M
        muls = 8 * M * M
        adds = 12 * M * M - 4 * M
    return ComplexityEstimate(
        detector_kind=kind,
        M=M,
        n_rx=n_rx,
        q=q,
        metrics=metrics,
        real_muls=muls,
        real_adds=adds,
    )
