"""Exact max-log soft-output detection for two spatially multiplexed layers.

For each hypothesis of one layer's symbol, the best partner symbol on the
other layer maximizes its log-prior minus the residual distance.  After
projecting the partial residual onto the other layer's signature, that
inner maximization separates into two one-dimensional problems solved by
prior-shifted slicing.  The interval tables are built once per tone and
reused across the whole enumeration, so the total work is linear in the
constellation size M (2M candidate metrics plus at most 2(M - sqrt(M))
slicing thresholds) instead of the M**2 of a joint search, while the
output bit LLRs match the exhaustive max-log search exactly.
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

    ``split_index`` is a constellation's ``split_bit_index``: ``(2q, M/2)``
    symbol indices, the symbols with bit n set in row n and those with it
    clear in row q + n.  Each best metric is the maximum of one gathered
    row, so it is exact: the same float a scan over all M symbols finds.
    """
    metrics = np.asarray(metrics, dtype=float)
    index = np.asarray(split_index)
    if metrics.size != 2 * index.shape[1]:
        raise ValueError("one metric per labeled symbol required")
    q = index.shape[0] // 2
    best = np.maximum.reduce(metrics.take(index), axis=1)
    return best[:q] - best[q:]


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
    """
    if not all(map(cmath.isfinite, obs.y.tolist() + obs.h1.tolist() + obs.h2.tolist())):
        raise ValueError("whitened observation contains non-finite values")
    if not all(map(math.isfinite, llrs.values.ravel().tolist())):
        raise ValueError("a-priori LLRs contain non-finite values")
    check_llr_shape(llrs, c)

    pam_r, pam_i = c.real_axis, c.imag_axis
    lp1_re = axis_log_priors(llrs, 1, "real", pam_r)
    lp1_im = axis_log_priors(llrs, 1, "imag", pam_i)
    lp2_re = axis_log_priors(llrs, 2, "real", pam_r)
    lp2_im = axis_log_priors(llrs, 2, "imag", pam_i)
    reg1_re = build_regions(pam_r, lp1_re, obs.gain1)
    reg1_im = build_regions(pam_i, lp1_im, obs.gain1)
    reg2_re = build_regions(pam_r, lp2_re, obs.gain2)
    reg2_im = build_regions(pam_i, lp2_im, obs.gain2)
    boundary_count = (
        reg1_re.boundary_count
        + reg1_im.boundary_count
        + reg2_re.boundary_count
        + reg2_im.boundary_count
    )

    syms = c.symbols
    y, h1, h2 = obs.y, obs.h1, obs.h2

    # Projected residuals for every enumerated symbol of each layer.
    h2_y = np.vdot(h2, y)
    h1_y = np.vdot(h1, y)
    h2_h1 = np.vdot(h2, h1)
    h1_h2 = np.vdot(h1, h2)
    z_from_1 = (h2_y - h2_h1 * syms) / obs.gain2
    z_from_2 = (h1_y - h1_h2 * syms) / obs.gain1

    # Best partner amplitudes per axis, then the candidate pairs: row 0
    # enumerates layer 1 against its sliced layer-2 partner, row 1 the
    # reverse.  x1 holds each candidate's layer-1 symbol, x2 its layer-2.
    a2 = slice_statistic(reg2_re, z_from_1.real)
    b2 = slice_statistic(reg2_im, z_from_1.imag)
    a1 = slice_statistic(reg1_re, z_from_2.real)
    b1 = slice_statistic(reg1_im, z_from_2.imag)
    x1 = np.empty((2, c.M), dtype=complex)
    x2 = np.empty((2, c.M), dtype=complex)
    x1[0] = syms
    x2[1] = syms
    x2.real[0] = pam_r.points[a2]
    x2.imag[0] = pam_i.points[b2]
    x1.real[1] = pam_r.points[a1]
    x1.imag[1] = pam_i.points[b1]
    # Antenna axis first and each product written symbol * signature, as in
    # oracle.pair_metric_table: numpy can round h * x and x * h differently,
    # and the LLRs match the oracle exactly at high SNR only while every
    # residual is rounded the same way in both.
    r = y[:, None, None] - x1 * h1[:, None, None] - x2 * h2[:, None, None]
    energy = (np.abs(r) ** 2).sum(axis=0)

    partner_prior_2 = lp2_re[a2] + lp2_im[b2]
    partner_prior_1 = lp1_re[a1] + lp1_im[b1]
    enum_prior_1 = c.bit_weights.dot(llrs.values[0])
    enum_prior_2 = c.bit_weights.dot(llrs.values[1])
    eta1 = enum_prior_1 + partner_prior_2 - energy[0]
    eta2 = partner_prior_1 + enum_prior_2 - energy[1]

    out = np.empty((2, c.q))
    out[0] = llrs_from_metrics(eta1, c.split_bit_index)
    out[1] = llrs_from_metrics(eta2, c.split_bit_index)
    return DetectionResult(
        llrs=out,
        candidate_metric_count=2 * c.M,
        boundary_count=boundary_count,
        total_metric_count=2 * c.M + boundary_count,
    )
