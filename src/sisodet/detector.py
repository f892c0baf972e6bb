"""Exact max-log soft-output detection for two spatially multiplexed layers.

For each hypothesis of one layer's symbol, the best partner symbol on the
other layer maximizes its log-prior minus the residual distance.  After
projecting the partial residual onto the other layer's signature, that
inner maximization separates into two one-dimensional problems solved by
prior-shifted slicing.  The interval tables are built once per tone and
reused across the whole enumeration, so the total work is linear in the
constellation size M (2M candidate metrics plus at most 2(M - sqrt(M))
slicing thresholds) instead of the M**2 of a joint search, while the
output bit LLRs match the exhaustive max-log search exactly.  Each stage
is one stacked call per tone: the four tables are built by one
``build_regions`` call and sliced by one ``slice_statistic`` call, and
both layers' LLRs come from one ``llrs_from_metrics`` call.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .channel import WhitenedObservation
from .constellation import Constellation
from .priors import AprioriLLRs, axis_log_priors, check_llr_shape
from .slicer import build_regions, slice_statistic


@dataclass
class DetectionResult:
    """Output LLRs for both layers plus metric-count instrumentation.

    ``candidate_metric_count`` is always 2M (one metric per enumerated
    symbol per layer).  ``boundary_count`` is the number of slicing
    thresholds evaluated across all four interval tables, at most
    2(M - sqrt(M)) and less when threshold shifts empty out amplitudes.
    """

    llrs: np.ndarray
    candidate_metric_count: int
    boundary_count: int
    total_metric_count: int


def llrs_from_metrics(metrics, split_index) -> np.ndarray:
    """Per-bit LLRs: best metric with the bit set minus best with it clear.

    ``metrics`` holds one metric per symbol on its last axis, for one
    layer, shape ``(M,)``, or a stack of them, shape ``(T, M)``; the LLRs
    have the same leading shape and ``q`` entries on the last axis.
    ``split_index`` is a constellation's ``split_bit_index``: ``(2q, M/2)``
    symbol indices, the symbols with bit n set in row n and those with it
    clear in row q + n.  Each best metric is the maximum of one gathered
    row, so it is exact: the same float a scan over all M symbols finds.
    """
    metrics = np.asarray(metrics, dtype=float)
    index = np.asarray(split_index)
    if metrics.ndim not in (1, 2) or metrics.shape[-1] != 2 * index.shape[1]:
        raise ValueError("one metric per labeled symbol required")
    q = index.shape[0] // 2
    best = np.maximum.reduce(metrics.take(index, axis=-1), axis=-1)
    return best[..., :q] - best[..., q:]


# Row index of each of a tone's four tables, for gathering per table.
_TABLE_ROWS = np.arange(4)[:, None]


def detect(
    obs: WhitenedObservation, c: Constellation, llrs: AprioriLLRs
) -> DetectionResult:
    """Soft-input soft-output detection of one tone.

    Builds the four prior-shifted interval tables (two layers times two
    axes, each with the gain of the layer being sliced), then enumerates
    every constellation point once per layer: the projected residual is
    sliced to the best partner symbol and the joint candidate metric
    evaluated.  Per-bit LLRs are max-differences over the enumerated
    labels.  The result matches the exhaustive pairwise max-log search.

    Each stage is one stacked call for the whole tone: one
    ``build_regions`` on the four tables, one ``slice_statistic`` on their
    four rows of statistics and one ``llrs_from_metrics`` on both layers.
    """
    if not all(map(cmath.isfinite, obs.y.tolist() + obs.h1.tolist() + obs.h2.tolist())):
        raise ValueError("whitened observation contains non-finite values")
    if not all(map(math.isfinite, llrs.values.ravel().tolist())):
        raise ValueError("a-priori LLRs contain non-finite values")
    check_llr_shape(llrs, c)

    # Tables in the order layer 2 real, layer 2 imag, layer 1 real, layer 1
    # imag: the first pair gives the partners of row 0 below, the second
    # those of row 1.  Both axes of a square constellation are one PamAxis.
    pam = c.real_axis
    logp = np.array(
        [
            axis_log_priors(llrs, 2, "real", pam),
            axis_log_priors(llrs, 2, "imag", c.imag_axis),
            axis_log_priors(llrs, 1, "real", pam),
            axis_log_priors(llrs, 1, "imag", c.imag_axis),
        ]
    )
    regions = build_regions(pam, logp, (obs.gain2, obs.gain2, obs.gain1, obs.gain1))

    syms = c.symbols
    y, h1, h2 = obs.y, obs.h1, obs.h2

    # Projected residuals for every enumerated symbol of each layer.
    h2_y = np.vdot(h2, y)
    h1_y = np.vdot(h1, y)
    h2_h1 = np.vdot(h2, h1)
    h1_h2 = np.vdot(h1, h2)
    z_from_1 = (h2_y - h2_h1 * syms) / obs.gain2
    z_from_2 = (h1_y - h1_h2 * syms) / obs.gain1

    # Best partner amplitudes, one row per table, then the candidate pairs:
    # row 0 enumerates layer 1 against its sliced layer-2 partner, row 1 the
    # reverse.  x1 holds each candidate's layer-1 symbol, x2 its layer-2.
    owner = slice_statistic(
        regions, np.array([z_from_1.real, z_from_1.imag, z_from_2.real, z_from_2.imag])
    )
    partner = pam.points[owner]
    x1 = np.empty((2, c.M), dtype=complex)
    x2 = np.empty((2, c.M), dtype=complex)
    x1[0] = syms
    x2[1] = syms
    x2.real[0] = partner[0]
    x2.imag[0] = partner[1]
    x1.real[1] = partner[2]
    x1.imag[1] = partner[3]
    # Antenna axis first and each product written symbol * signature, as in
    # oracle.pair_metric_table: numpy can round h * x and x * h differently,
    # and the LLRs match the oracle exactly at high SNR only while every
    # residual is rounded the same way in both.
    r = y[:, None, None] - x1 * h1[:, None, None] - x2 * h2[:, None, None]
    energy = (np.abs(r) ** 2).sum(axis=0)

    # Candidate metrics: enumerated prior, plus the partner's prior (its two
    # axis log-priors), minus the residual energy.
    partner_logp = logp[_TABLE_ROWS, owner]
    enum_prior = np.array([c.bit_weights.dot(llrs.values[0]), c.bit_weights.dot(llrs.values[1])])
    eta = enum_prior + (partner_logp[0::2] + partner_logp[1::2]) - energy
    boundary_count = regions.boundary_count
    return DetectionResult(
        llrs=llrs_from_metrics(eta, c.split_bit_index),
        candidate_metric_count=2 * c.M,
        boundary_count=boundary_count,
        total_metric_count=2 * c.M + boundary_count,
    )
