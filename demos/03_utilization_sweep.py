"""Small-scale version of the utilization experiment.

Sweeps the per-core average utilization with all three policies on paired
instances and writes the normalized-energy CSV plus a companion plot
script.  Uses fewer repetitions than the full experiment so it finishes in
seconds (4 s on two workers of a 2-CPU host); raise ``repetitions`` (and
use the CLI for convenience) to reproduce the full curves.
"""

from coresleep import PolicyKind, SweepSpec, emit, run_sweep

spec = SweepSpec(
    axis="U",
    values=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8),
    e_sw_j=5e-4,
    m=2,
    cc_ratio=0.5,
    repetitions=10,
    base_seed=1,
)
result = run_sweep(spec, workers=2)

print(f"{'U':>5} {'pure_dvs':>9} {'la_dvs':>7} {'la_realloc':>11}")
for value in spec.values:
    row = {p: result.row(value, p).normalized for p in PolicyKind}
    print(f"{value:5.1f} {row[PolicyKind.PURE_DVS]:9.3f} "
          f"{row[PolicyKind.LA_DVS]:7.3f} {row[PolicyKind.LA_REALLOC]:11.3f}")

emit(result, "utilization_sweep.csv")
print("\nwrote utilization_sweep.csv and utilization_sweep_plot.py")
