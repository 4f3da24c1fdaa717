"""Reflection positivity at work: the chessboard bound and its certificates.

Antiperiodizing each constant-sign interval of a step profile and charging
it the specific energy of its periodization gives a lower bound on the
effective functional. The bound is exact on periodic configurations; on a
random corpus it certifies e(h*)-per-length optimality up to explicit
correction terms. The full certificate suite bundles these checks with the
well inequalities and the gradient oracle.

Run:  python demos/05_chessboard_and_certificates.py   (~1 minute)
"""

import numpy as np

from froth1d import (CoarseGrainConfig, ModelParams, StepProfile,
                     chessboard_lower_bound, energy_per_length, optimal_h,
                     run_certificates, solve_instanton, tilde_energy)
from froth1d.minimize import restart_rng
from froth1d.verify import random_in_k_step

gamma = 1e-2
params = ModelParams.create(beta=2.0, gamma=gamma)
inst = solve_instanton(params)
params = params.with_tau(inst.tau)
h_star, e_star, _, _ = optimal_h(params)

# exactness on a periodic profile
h = round(h_star)
sigma = StepProfile.from_pieces([(h, (-1.0) ** k * params.m_beta)
                                 for k in range(12)], periodic=True)
lhs = tilde_energy(params, sigma)
bound, per = chessboard_lower_bound(params, sigma)
print(f"periodic sigma_h, h={h}: E~ = {lhs:.8f}, chessboard = {bound:.8f}, "
      f"L e(h) = {12 * h * energy_per_length(params, h):.8f}")

# the inequality on a random in-K corpus
m_bar = CoarseGrainConfig().m_bar(params.m_beta, gamma)
L = 20.0 * h_star
slacks = []
for k in range(30):
    step = random_in_k_step(restart_rng(55, k), L, params.m_beta, m_bar, h_star)
    e_tilde = tilde_energy(params, step)
    b, _ = chessboard_lower_bound(params, step)
    slacks.append(e_tilde - b)
slacks = np.array(slacks)
print(f"\nrandom corpus (30 profiles, L = 20 h*): slack E~ - bound in "
      f"[{slacks.min():.3f}, {slacks.max():.3f}], all nonnegative: "
      f"{bool(np.all(slacks >= 0))}")

print("\nfull certificate suite:")
for cert in run_certificates(params, seed=0, n_step_profiles=10):
    print(f"  {cert.name:26s} pass={cert.passed}  slack={cert.slack:+.3e}")
