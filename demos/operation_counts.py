"""Operation-count model across constellation sizes, and live counts.

Prints the per-tone metric, multiply, and add counts for the sliced
detector, the three-candidate list detector, and the exhaustive search,
then confirms the model against counters measured on real detections.
"""

import numpy as np

from sisodet import build_constellation, clamp, detect, predicted_counts
from sisodet.channel import NoiseModel
from sisodet.simcli import draw_tone, run_complexity

N_RX = 2

# The table `sisodet complexity` prints.
print(run_complexity((4, 16, 64, 256), N_RX)[1])

# Measured counters on live tones.  Without strong feedback the total hits
# the model ceiling exactly; strong one-sided feedback prunes amplitudes
# and lands under it, by the thresholds the empty-region skip avoided.
M = 16
const = build_constellation(M)
ceiling = predicted_counts("proposed", M, N_RX).metrics
tone = draw_tone(np.random.default_rng(5), const, NoiseModel(np.eye(N_RX) * 0.25), mu=0.0)

plain = detect(tone.obs, const, tone.llrs).total_metric_count
print(f"measured, M={M}, no feedback:")
print(f"  total {plain} vs ceiling {ceiling} (slack {ceiling - plain})")

strong = detect(
    tone.obs, const, clamp([[0.0] * 4, [0.0, -40.0, 0.0, 0.0]])
).total_metric_count
print(f"measured, M={M}, pruning feedback:")
print(f"  total {strong} vs ceiling {ceiling} (slack {ceiling - strong})")
