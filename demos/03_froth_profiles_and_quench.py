"""Froth profiles: the periodic instanton train, its relaxation, why a
gradient quench from white noise freezes at the wrong period, and how
multistart's wall-pair annihilation reaches the froth from the same noise.

Three experiments at gamma = 2e-2 on a periodic box of ~10 h*:

  1. the alternating instanton train at period h* has energy per length
     within a fraction of a percent of e(h*) and relaxes in place;
  2. plain descent (minimize_energy) from per-sample random noise freezes at
     the quench period (~0.45 h*): wall-pair annihilation is blocked by the
     long-range repulsion, so the wall count never drops to the optimal
     value. multistart on the same seeded starts adds a coarse annihilation
     stage (flip a sign interval, re-relax, keep the move if the energy
     drops) and reaches the h* froth;
  3. starting from a strongly perturbed train, descent heals the pattern
     back to the h* froth.

Run:  python demos/03_froth_profiles_and_quench.py   (~2 minutes)
"""

import numpy as np

from froth1d import (CoarseGrainConfig, GridProfile, MinimizeOptions,
                     ModelParams, build_trial_profile, coarse_grain,
                     minimize_energy, multistart, optimal_h, solve_instanton,
                     total_energy)
from froth1d.errors import LineSearchFailure
from froth1d.minimize import restart_rng

gamma = 2e-2
params = ModelParams.create(beta=2.0, gamma=gamma)
inst = solve_instanton(params)
params = params.with_tau(inst.tau)
h_star, e_star, _, _ = optimal_h(params)
dx = 1.0 / 8.0
h = round(h_star / dx) * dx
L = 10 * h
print(f"gamma={gamma}  h*={h_star:.3f}  e(h*)={e_star:.6f}  box L={L:.1f}\n")
cfg = CoarseGrainConfig()


def pattern_stats(profile):
    step, _, _ = coarse_grain(params, profile, cfg)
    lengths = step.interval_lengths()
    frac = lengths[np.abs(lengths / h_star - 1) <= 0.2].sum() / profile.L
    return lengths, frac


# 1. the instanton train is already a quasi-minimizer
trial = build_trial_profile(h, L, inst, bc="periodic", dx=dx)
e_trial = total_energy(params, trial, gamma).total
res = minimize_energy(params, trial, gamma,
                      MinimizeOptions(max_iters=3000, grad_tol=1e-6))
lengths, frac = pattern_stats(res.profile)
print("1. instanton train init:")
print(f"   E/L before relax = {e_trial / L:.6f}  after = {res.energy / L:.6f}")
print(f"   intervals ~ {lengths.mean():.2f} (h* = {h_star:.2f}), "
      f"{100 * frac:.0f}% of length within 20% of h*\n")

# 2. quench from white noise: the same 4 seeded starts, plain descent first
opts = MinimizeOptions(max_iters=10000, grad_tol=1e-6, seed=3)
n = int(round(L / dx))
plain = []
for k in range(4):
    start = GridProfile(L=n * dx, dx=dx, bc="periodic",
                        samples=restart_rng(opts.seed, k).uniform(-1.0, 1.0, n))
    try:
        plain.append(minimize_energy(params, start, gamma, opts))
    except LineSearchFailure as err:
        plain.append(err.result)
frozen = min(plain, key=lambda r: r.energy)
lengths, frac = pattern_stats(frozen.profile)
print("2. white-noise quench, plain descent (best of 4 starts):")
print(f"   E/L = {frozen.energy / L:.6f} = {frozen.energy / L / e_star:.3f} e(h*)")
print(f"   frozen intervals ~ {lengths.mean():.2f}: {100 * frac:.0f}% of "
      f"length within 20% of h*")
print("   the pattern equilibrates at the scale where exchange attraction")
print("   dies out; removing a wall pair costs energy before it pays, so")
print("   plain descent never reaches the h* period.")
best, table = multistart(params, L, "periodic", 4, opts, dx=dx)
lengths, frac = pattern_stats(best.profile)
print("   multistart on the same starts (descent + wall-pair annihilation):")
print(f"   E/L = {best.energy / L:.6f} = {best.energy / L / e_star:.3f} e(h*), "
      f"intervals ~ {lengths.mean():.2f}, {100 * frac:.0f}% of length "
      f"within 20% of h*\n")

# 3. a damaged train heals
rng = np.random.default_rng(12)
noisy = trial.with_samples(np.clip(
    trial.samples + 0.45 * rng.standard_normal(trial.n), -1.0, 1.0))
try:
    res3 = minimize_energy(params, noisy, gamma,
                           MinimizeOptions(max_iters=8000, grad_tol=1e-6))
except LineSearchFailure as err:
    res3 = err.result
lengths, frac = pattern_stats(res3.profile)
print("3. perturbed train init (45% noise):")
print(f"   E/L = {res3.energy / L:.6f} = {res3.energy / L / e_star:.3f} e(h*)")
print(f"   intervals ~ {lengths.mean():.2f}, {100 * frac:.0f}% of length "
      f"within 20% of h*")
