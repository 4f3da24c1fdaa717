"""The block coarse-graining map phi -> sigma_phi, case by case.

The map partitions the box into blocks of size ~gamma^(-delta), adapts the
block boundaries to flat stretches of the profile, and replaces phi on each
block by a mean-preserving step function: constants where the block mean is
near +-m_beta, single or double jumps elsewhere, three-piece plateaus in the
near-saturated corners. The effective step-profile energy then bounds the
true energy from below, up to O(gamma^(1-delta)) per unit length.

Run:  python demos/04_coarse_graining.py
"""

import numpy as np

from froth1d import (CoarseGrainConfig, ModelParams, build_trial_profile,
                     coarse_grain, lower_bound_certificate, optimal_h,
                     solve_instanton, tilde_energy, total_energy)

gamma = 1e-2
params = ModelParams.create(beta=2.0, gamma=gamma)
inst = solve_instanton(params)
params = params.with_tau(inst.tau)
h_star, _, _, _ = optimal_h(params)
cfg = CoarseGrainConfig()
print(f"delta={cfg.delta} rho={cfg.rho} ell_minus={cfg.ell_minus}")
print(f"zeta = {cfg.zeta(gamma):.4f}   m_bar = {cfg.m_bar(params.m_beta, gamma):.4f}")

# a trial froth with some noise, so several replacement cases fire
dx = 1.0 / 32.0
h = round(h_star / dx) * dx
prof = build_trial_profile(h, 8 * h, inst, bc="periodic", dx=dx)
rng = np.random.default_rng(4)
prof = prof.with_samples(np.clip(prof.samples
                                 + 0.15 * rng.standard_normal(prof.n), -1, 1))

step, adapted, trace = coarse_grain(params, prof, cfg)
print(f"\nadapted partition: {adapted.partition.n_blocks} blocks of size "
      f"~{adapted.ell_plus:.2f} in [{adapted.partition.widths.min():.2f}, "
      f"{adapted.partition.widths.max():.2f}]")
cases = {}
for rec in trace:
    cases[rec["case"]] = cases.get(rec["case"], 0) + 1
print("replacement cases used:", dict(sorted(cases.items())))

worst = max(abs(step.restrict(a, b).mean() - rec["mean"])
            for (a, b), rec in zip(adapted.partition.blocks(), trace))
print(f"worst per-block mass-balance error: {worst:.2e}")
print(f"sigma_phi in K (|values| >= m_bar): {step.in_K}")
print(f"sign intervals of sigma_phi: "
      f"{np.round(step.interval_lengths(), 2)}")

e_phi = total_energy(params, prof, gamma).total
e_tilde = tilde_energy(params, step)
print(f"\nE[phi]          = {e_phi:.6f}")
print(f"E~[sigma_phi]   = {e_tilde:.6f}")
cert = lower_bound_certificate(params, prof, cfg)
print(f"lower-bound certificate: pass={cert.passed}  "
      f"residual/L = {cert.lhs:+.2e}  allowance = {-cert.rhs:.2e}")
