"""How decoder feedback reshapes the slicer's decision regions.

Walks one PAM axis of a 16-QAM constellation through three prior
settings: no feedback (midpoint thresholds), mild feedback (shifted
thresholds), and strong one-sided feedback (amplitudes pruned away
entirely).  Exits 1 if the slicer and the direct score argmax disagree
on the pruned table.
"""

import sys

import numpy as np

from sisodet import build_constellation
from sisodet.oracle import argmax_slice_oracle
from sisodet.slicer import build_regions, slice_statistic, upper_bounds

const = build_constellation(16)
pam = const.real_axis
gain = 1.0

print("16-QAM real axis, descending amplitudes:")
print("  points :", np.round(pam.points, 4))
print("  spacing:", round(pam.spacing, 4))
print("  labels :", [tuple(int(b) for b in row) for row in pam.labels])

# ---------------------------------------------------------------------------
# 1. No feedback: thresholds sit exactly between neighboring amplitudes.
# ---------------------------------------------------------------------------
regions = build_regions(pam, np.zeros((1, 4)), [gain])
upper = upper_bounds(pam, np.zeros((1, 4)), [gain])
print("\nno feedback -> midpoint thresholds")
for k in range(4):
    print(f"  amplitude {pam.points[k]:+.4f}: ({regions.lower[0, k]:+.4f}, {upper[0, k]:+.4f})")

# ---------------------------------------------------------------------------
# 2. Mild feedback: log-prior mass on an amplitude widens its interval and
#    pushes every threshold toward the less likely side.
# ---------------------------------------------------------------------------
logp = np.array([0.0, 0.5, 0.0, 0.0])
regions = build_regions(pam, logp[None], [gain])
upper = upper_bounds(pam, logp[None], [gain])
print("\nlog-priors", logp, "-> thresholds shift away from the favored amplitude")
for k in range(4):
    print(f"  amplitude {pam.points[k]:+.4f}: ({regions.lower[0, k]:+.4f}, {upper[0, k]:+.4f})")

# ---------------------------------------------------------------------------
# 3. Strong one-sided feedback: the middle amplitudes lose their entire
#    interval.  The builder flags them and skips their mutual threshold, so
#    fewer boundary evaluations are needed.
# ---------------------------------------------------------------------------
logp = np.array([0.0, -40.0, -40.0, 0.0])
regions = build_regions(pam, logp[None], [gain])
print("\nlog-priors", logp)
print("  empty flags      :", regions.empty[0].tolist())
print(f"  thresholds built : {regions.boundary_count} of {4 * 3 // 2} possible")

# The pruned amplitudes really never win: compare the slicer against the
# direct score argmax on a dense sweep.
grid = np.linspace(pam.points[-1] - 5 * pam.spacing, pam.points[0] + 5 * pam.spacing, 2001)
sliced = slice_statistic(regions, grid[None])[0]
direct = argmax_slice_oracle(pam, logp, gain, grid)
agree = np.array_equal(sliced, direct)
print("  slicer == argmax oracle on", grid.size, "grid points:", agree)
print("  amplitudes ever chosen:", sorted(set(sliced.tolist())))
if not agree:
    sys.exit(1)
