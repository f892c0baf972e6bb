"""Monte-Carlo BER sweep: how genie feedback reliability moves the curve.

Runs the simulation harness over an SNR grid for three feedback settings,
writes the records to ber_sweep.csv, and saves a log-scale plot when
matplotlib is available.
"""

from sisodet.simcli import SimConfig, run_simulate

cfg = SimConfig(
    M=16,
    n_rx=2,
    snr_db_list=(0.0, 4.0, 8.0, 12.0, 16.0),
    mu_list=(0.0, 2.0, 8.0),
    tones=400,
    seed=99,
    rho=0.5,
)

status, records, csv_text = run_simulate(cfg)
assert status == 0, "detector disagreed with the exhaustive reference"

with open("ber_sweep.csv", "w", newline="\n") as fh:
    fh.write(csv_text)
print("wrote ber_sweep.csv")

print(f"\n{'snr_db':>7} {'mu':>5} {'ber':>10} {'mean metrics':>13}")
for rec in records:
    print(
        f"{rec.snr_db:>7.1f} {rec.mu:>5.1f} {rec.ber:>10.5f} "
        f"{rec.mean_total_metric_count:>13.1f}"
    )

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not installed; skipping the plot")
else:
    fig, ax = plt.subplots(figsize=(6, 4))
    for mu in cfg.mu_list:
        pts = [(r.snr_db, max(r.ber, 1e-5)) for r in records if r.mu == mu]
        ax.semilogy(*zip(*pts), marker="o", label=f"feedback mu={mu:g}")
    ax.set_xlabel("SNR (dB)")
    ax.set_ylabel("BER")
    ax.set_title("16-QAM dual-layer, correlated noise (rho=0.5)")
    ax.grid(True, which="both", alpha=0.3)
    ax.legend()
    fig.tight_layout()
    fig.savefig("ber_sweep.png", dpi=120)
    print("wrote ber_sweep.png")
