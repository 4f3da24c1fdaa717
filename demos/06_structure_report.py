"""Structure diagnostics of a froth profile: good set, runs, defect sets.

The report partitions the box on the gamma^(-delta0) scale, types each block
by its mean, groups same-type blocks into runs inside the good set, and
measures where the profile deviates from +-m_beta (X1) or where run lengths
miss h* (X2). The profile is periodic, so the interval and the run that wrap
the torus count once.

Run:  python demos/06_structure_report.py
"""

from froth1d import (CoarseGrainConfig, ModelParams, build_trial_profile,
                     coarse_grain, defect_sets, good_set, l_wrong, optimal_h,
                     solve_instanton)
from froth1d.diagnostics import excess_energy_decomposition, histogram_csv

params = ModelParams.create(beta=2.0, gamma=1e-2)
inst = solve_instanton(params)
params = params.with_tau(inst.tau)
h_star, e_star, _, _ = optimal_h(params)

dx = 1.0 / 64.0
h = round(h_star / dx) * dx
prof = build_trial_profile(h, 10 * h, inst, bc="periodic")
step, _, _ = coarse_grain(params, prof, CoarseGrainConfig())

report = good_set(params, prof, step)
print(f"L = {prof.L:.1f}, good set |G| = {report.good_measure:.1f} "
      f"({100 * report.good_measure / prof.L:.1f}%), "
      f"{len(report.good_intervals)} component(s)")
print(f"runs: {len(report.runs)}, alternating signs: {report.alternation_ok}")
for run in report.runs[:6]:
    print(f"  sign {run['sign']:+d}  [{run['interval'][0]:7.2f}, "
          f"{run['interval'][1]:7.2f}]  length {run['length']:.2f}")
print("  ...")

x1, x2 = defect_sets(report, params, epsilon=0.1, epsilon_prime=0.1,
                     h_star=h_star)
print(f"\ndefect measures: |X1| = {x1:.2f}, |X2| = {x2:.2f}")
print(f"L_wrong = {l_wrong(params, step, h_star, 0.1):.2f}")

excess, well, _ = excess_energy_decomposition(params, step, e_star=e_star)
print(f"excess sum h_j (e(h_j) - e(h*)) = {excess:.3e}")
print(f"well integral (F(0)/m^2) int (|sigma| - m)^2 = {well:.3e}")

with open("interval_histogram.csv", "w") as fh:
    fh.write(histogram_csv(report))
print("\nwrote interval_histogram.csv")
