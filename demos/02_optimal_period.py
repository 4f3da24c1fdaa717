"""The energy-per-length curve e(h) and the optimal modulation length h*.

e(h) = tau/h + lam m^2 sum_k (w_k/a_k)(1 - tanh(a_k gamma h/2)/(a_k gamma h/2))
balances the interface cost against the screened long-range penalty; its
minimizer scales like gamma^(-2/3) with an explicit leading-order constant.

Run:  python demos/02_optimal_period.py
"""

from froth1d import ModelParams, eh_curve, energy_per_length, optimal_h, solve_instanton

params = ModelParams.create(beta=2.0, gamma=1e-2)
inst = solve_instanton(params)
params = params.with_tau(inst.tau)

print("gamma      h*        h*_asym   ratio     e(h*)       e*_asym     ratio")
for gamma in (1e-2, 1e-3, 1e-4):
    h, e, ha, ea = optimal_h(params.with_gamma(gamma))
    print(f"{gamma:7.0e}  {h:8.3f}  {ha:8.3f}  {h/ha:.5f}  "
          f"{e:.4e}  {ea:.4e}  {e/ea:.5f}")
print("\nthe ratios approach 1 like 1 + O(gamma^(2/3)).")

curve = eh_curve(params, n_samples=12, span=(0.25, 4.0))
print("\nsampled curve at gamma = 1e-2:")
print("    h        e(h)       e(h)-e(h*)")
for h, e in zip(curve.h, curve.e):
    print(f" {h:8.3f}  {e:.6f}   {e - curve.e_star:+.2e}")

# limits: h -> 0 is dominated by the interface cost, h -> infinity by the
# unscreened long-range energy
h_small = 0.01 * curve.h_star
print(f"\nh = 0.01 h*: h e(h) = {h_small * energy_per_length(params, h_small):.4f}"
      f"  -> tau = {params.tau:.4f}")
print(f"h = 1e9:     e(h) = {energy_per_length(params, 1e9):.6f}"
      f"  -> m_beta^2 = {params.m_beta**2:.6f}")

with open("eh_curve.csv", "w") as fh:
    fh.write("h,e_h,e_h_minus_estar\n")
    for h, e in zip(curve.h, curve.e):
        fh.write(f"{h!r},{e!r},{e - curve.e_star!r}\n")
print("\nwrote eh_curve.csv")
