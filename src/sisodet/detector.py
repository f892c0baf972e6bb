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
is one stacked call per tone: ``table_inputs`` gives the four tables'
log-priors (one ``axis_log_priors`` call) and gains, from which one
``build_regions`` call builds the tables, one ``slice_statistic`` call
slices them, and one ``llrs_from_metrics`` call gives both layers' LLRs.
The 2M candidates are scored by ``priors.pair_metrics``, the kernel the
exhaustive references in ``sisodet.oracle`` score every pair with, so
each candidate metric is the oracle's for that pair, float for float, and
``priors.llrs_from_metrics`` is the exhaustive max-log search's LLR stage
too: the two differ only in how each symbol's best partner is found.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import WhitenedObservation
from .constellation import Constellation, PamAxis
from .priors import (
    AprioriLLRs, axis_log_priors, llrs_from_metrics, pair_metrics, signature_products,
    symbol_log_priors,
)
from .slicer import build_regions, slice_statistic


@dataclass
class DetectionResult:
    """Output LLRs for both layers plus metric-count instrumentation.

    ``candidate_metric_count`` is always 2M (one metric per enumerated
    symbol per layer).  ``boundary_count`` is the number of slicing
    thresholds the four interval tables depend on: ``build_regions``
    evaluates all L(L-1)/2 crossovers of each table, but a table with E
    empty amplitudes depends on only L(L-1)/2 - E(E-1)/2 of them, so the
    count is 2(M - sqrt(M)) with no empty amplitude and less when
    threshold shifts empty some out.
    """

    llrs: np.ndarray
    candidate_metric_count: int
    boundary_count: int
    total_metric_count: int


def table_inputs(obs: WhitenedObservation, pam: PamAxis, llrs: AprioriLLRs):
    """A tone's four interval tables' inputs ``(logp, gains)``: the ``(4, L)``
    axis log-priors and the four slicer gains, in table order.

    The tables come in the order of the LLR bits: layer 1 real, layer 1
    imag, layer 2 real, layer 2 imag, each built with its own layer's gain.
    """
    return axis_log_priors(llrs, pam), (obs.gain1, obs.gain1, obs.gain2, obs.gain2)


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
    regions = build_regions(c.real_axis, *table_inputs(obs, c.real_axis, llrs))
    syms = c.symbols
    y, h1, h2 = obs.y, obs.h1, obs.h2

    # Projected residuals for every enumerated symbol of each layer.
    h2_y = np.vdot(h2, y)
    h1_y = np.vdot(h1, y)
    h2_h1 = np.vdot(h2, h1)
    h1_h2 = np.vdot(h1, h2)
    z_from_1 = (h2_y - h2_h1 * syms) / obs.gain2
    z_from_2 = (h1_y - h1_h2 * syms) / obs.gain1

    # Best partner amplitudes, one row per table, and the partner symbols'
    # indices: row 0 holds the layer-1 partners (tables 0 and 1), row 1 the
    # layer-2 ones.  Row 0 of the candidate pairs enumerates layer 1 against
    # its sliced layer-2 partner, row 1 the reverse.
    owner = slice_statistic(
        regions, np.array([z_from_2.real, z_from_2.imag, z_from_1.real, z_from_1.imag])
    )
    partner = c.symbol_index[owner[0::2], owner[1::2]]
    m = np.arange(c.M)
    eta = pair_metrics(
        obs, signature_products(obs, c), symbol_log_priors(llrs, c),
        np.array((m, partner[0])), np.array((partner[1], m)),
    )
    boundary_count = regions.boundary_count
    return DetectionResult(
        llrs=llrs_from_metrics(eta, c.split_bit_index),
        candidate_metric_count=2 * c.M,
        boundary_count=boundary_count,
        total_metric_count=2 * c.M + boundary_count,
    )
