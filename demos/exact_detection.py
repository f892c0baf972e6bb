"""One tone end to end: the sliced detector against the exhaustive search.

Draws a random dual-layer transmission with correlated noise and genie
feedback, detects it both ways, and shows that the soft outputs are
identical while the metric counts differ by more than an order of
magnitude.
"""

import numpy as np

from sisodet import brute_force_maxlog, build_constellation, detect
from sisodet.channel import NoiseModel
from sisodet.simcli import draw_tone, noise_covariance, sigma2_from_snr_db

rng = np.random.default_rng(2024)
M = 64
const = build_constellation(M)

# A random 2x2 channel with correlated noise at 12 dB SNR carries two
# random symbols; the decoder feedback stand-in draws LLRs around the
# true bits.  Every tone shares one noise model, built once.
noise = NoiseModel(noise_covariance(sigma2_from_snr_db(12.0), rho=0.5, n_rx=2))
tone = draw_tone(rng, const, noise, mu=3.0)
obs, llrs, bits = tone.obs, tone.llrs, tone.bits

result = detect(obs, const, llrs)
reference = brute_force_maxlog(obs, const, llrs)

print(f"{M}-QAM tone, true bits:")
print("  layer 1:", bits[0].tolist())
print("  layer 2:", bits[1].tolist())
print("\nsliced detector LLRs (rounded):")
print(np.round(result.llrs, 2))
print("\nexhaustive search LLRs (rounded):")
print(np.round(reference, 2))
print(f"\nmax |difference| = {np.max(np.abs(result.llrs - reference)):.3e}")

print("\nwork per tone:")
print(f"  sliced detector : {result.total_metric_count} metrics "
      f"({result.candidate_metric_count} candidates + {result.boundary_count} thresholds)")
print(f"  exhaustive      : {M * M} joint metrics")

# The agreement is not luck: sweep a batch of random tones.
worst = 0.0
for t in range(500):
    tone = draw_tone(np.random.default_rng([77, t]), const, noise, mu=float(t % 5))
    obs, llrs = tone.obs, tone.llrs
    d = np.max(np.abs(detect(obs, const, llrs).llrs - brute_force_maxlog(obs, const, llrs)))
    worst = max(worst, float(d))
print(f"\nworst disagreement over 500 random tones: {worst:.3e}")
