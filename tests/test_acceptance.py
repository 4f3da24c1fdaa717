"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 8 asks the seeded multistart to find the froth from per-sample
random initializations. Plain projected-gradient descent alone freezes at
the quench period (~0.45 h* at gamma = 2e-2), because removing a wall pair
must first climb the long-range repulsion barrier;
demos/03_froth_profiles_and_quench.py shows the frozen quench. multistart
crosses the barrier with its coarse annihilation stage on the periodic bc
and reaches intervals of length h*.
"""

import time

import numpy as np
import pytest

from direct_oracles import tilde_v_kernel_direct
from froth1d.coarsegrain import CoarseGrainConfig, coarse_grain
from froth1d.energy import tilde_energy, total_energy, energy_gradient
from froth1d.instanton import build_trial_profile, solve_instanton, tail_rate
from froth1d.minimize import (MinimizeOptions, minimize_with_mean_constraint,
                              multistart, restart_rng)
from froth1d.model import (KacMeasure, ModelParams, eval_F, eval_tilde_F,
                           solve_m_beta)
from froth1d.profiles import GridProfile, StepProfile
from froth1d.sharp import (chessboard_lower_bound, energy_per_length,
                           gamma_limit_energy, optimal_h, tilde_v_kernel)
from froth1d.verify import random_in_k_step


def report(criterion: int, passed: bool, detail: str):
    print(f"[criterion {criterion:2d}] {'PASS' if passed else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def base():
    params = ModelParams.create(beta=2.0, gamma=1e-2)
    inst = solve_instanton(params, half_width=30.0, dx=1.0 / 64.0, tol=1e-10)
    return params.with_tau(inst.tau), inst


@pytest.fixture(scope="module")
def froth_runs(base):
    """Criterion 8 protocol, shared with criterion 9."""
    params, _ = base
    gamma = 2e-2
    p = params.with_gamma(gamma)
    h_star, e_star, _, _ = optimal_h(p, gamma)
    dx = 1.0 / 8.0
    L = round(10.0 * h_star / dx) * dx
    opts = MinimizeOptions(max_iters=12000, grad_tol=1e-6, seed=2024)
    t0 = time.perf_counter()
    results = []
    for k in range(8):
        best, _ = multistart(p, gamma, L, "periodic", 1,
                             MinimizeOptions(max_iters=opts.max_iters,
                                             grad_tol=opts.grad_tol,
                                             seed=opts.seed + k), dx=dx)
        results.append(best)
    elapsed = time.perf_counter() - t0
    return p, gamma, h_star, e_star, L, results, elapsed


def test_criterion_01_mean_field_root():
    lo, hi = 1e-8, 1.0 - 1e-12
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if mid - np.tanh(2.0 * mid) < 0.0:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    best = np.inf
    for _ in range(5):
        t0 = time.perf_counter()
        m = solve_m_beta(2.0)
        best = min(best, time.perf_counter() - t0)
    ok = (abs(m - 0.957504) <= 1e-5 and abs(m - oracle) <= 1e-10
          and best < 1e-3)
    report(1, ok, f"m_beta={m:.9f} oracle={oracle:.9f} time={best*1e3:.3f}ms")
    assert abs(m - 0.957504) <= 1e-5
    assert abs(m - oracle) <= 1e-10
    assert best < 1e-3


def test_criterion_02_instanton(base):
    params, inst = base
    t0 = time.perf_counter()
    inst30 = solve_instanton(params, half_width=30.0, dx=1.0 / 64.0, tol=1e-10)
    inst40 = solve_instanton(params, half_width=40.0, dx=1.0 / 64.0, tol=1e-10)
    rate, rms, window = tail_rate(inst30)
    elapsed = time.perf_counter() - t0
    anti = float(np.max(np.abs(inst30.q + inst30.q[::-1])))
    dtau = abs(inst40.tau - inst30.tau)
    ok = (inst30.residual <= 1e-10 and anti <= 1e-8 and inst30.tau > 0
          and dtau <= 1e-8 and rms <= 1e-2 and elapsed < 30.0)
    report(2, ok, f"residual={inst30.residual:.2e} anti={anti:.2e} "
           f"tau={inst30.tau:.6f} dtau(W40)={dtau:.2e} tail_rms={rms:.2e} "
           f"t={elapsed:.1f}s")
    assert inst30.residual <= 1e-10
    assert anti <= 1e-8
    assert inst30.tau > 0 and dtau <= 1e-8
    assert rms <= 1e-2
    assert elapsed < 30.0


def test_criterion_03_optimal_period(base):
    params, _ = base
    t0 = time.perf_counter()
    worst_h = worst_e = 0.0
    for gamma in (1e-2, 1e-3, 1e-4):
        h, e, ha, ea = optimal_h(params, gamma)
        worst_h = max(worst_h, abs(h / ha - 1.0) / gamma ** (2.0 / 3.0))
        worst_e = max(worst_e, abs(e / ea - 1.0) / gamma ** (2.0 / 3.0))
    # closed-form leading-order laws at tau = m_beta = |v'(0+)| = 1
    h_asym_unit = 6.0 ** (1.0 / 3.0) * 1e-3 ** (-2.0 / 3.0)
    e_asym_unit = (9.0 / 16.0) ** (1.0 / 3.0) * 1e-3 ** (2.0 / 3.0)
    elapsed = time.perf_counter() - t0
    K = max(worst_h, worst_e)
    ok = (K <= 5.0 and abs(h_asym_unit - 181.71) <= 1e-2
          and abs(e_asym_unit - 8.2548e-3) <= 1e-6 and elapsed < 1.0)
    report(3, ok, f"K_fit={K:.3f} h_asym(1e-3;unit)={h_asym_unit:.2f} "
           f"e_asym={e_asym_unit:.7f} t={elapsed:.2f}s")
    assert K <= 5.0
    assert abs(h_asym_unit - 181.71) <= 1e-2
    assert abs(e_asym_unit - 8.2548e-3) <= 1e-6
    assert elapsed < 1.0


def test_criterion_04_reflected_kernel():
    # rates are kept >= 2.5 so the |n| <= 60 truncation of the oracle is
    # itself converged below 1e-12 across gamma h in [0.1, 10]
    t0 = time.perf_counter()
    rng = restart_rng(404, 0)
    meas = KacMeasure(atoms=((0.4, 2.7), (0.6, 4.0)), lam=1.0)
    worst = 0.0
    for _ in range(100):
        gh = rng.uniform(0.1, 10.0)
        gamma = rng.uniform(1e-3, 1e-1)
        h = gh / gamma
        x, y = rng.uniform(0.0, h, 2)
        a = tilde_v_kernel(h, gamma, x, y, meas)
        b = tilde_v_kernel_direct(h, gamma, x, y, meas, n_max=60)
        worst = max(worst, abs(a - b))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    report(4, ok, f"max_abs_diff={worst:.2e} t={elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def _ink_corpus(params, gamma, L, n, seed):
    m_bar = CoarseGrainConfig().m_bar(params.m_beta, gamma)
    h_star = optimal_h(params, gamma)[0]
    return [random_in_k_step(restart_rng(seed, k), L, params.m_beta, m_bar,
                             h_star) for k in range(n)]


def test_criterion_05_chessboard(base):
    params, _ = base
    gamma = 1e-2
    h_star = optimal_h(params, gamma)[0]
    L = 20.0 * h_star
    t0 = time.perf_counter()
    worst = np.inf
    for step in _ink_corpus(params, gamma, L, 100, seed=505):
        lhs = tilde_energy(params, step, gamma, bc="open")
        bound, _ = chessboard_lower_bound(params, step, gamma, bc="open")
        worst = min(worst, lhs - bound)
    # equality on the exactly periodic profile (periodic functional)
    h = round(h_star)
    k = 10
    sigma_h = StepProfile.from_pieces(
        [(h, (-1.0) ** j * params.m_beta) for j in range(2 * k)])
    lhs_per = tilde_energy(params, sigma_h, gamma, bc="periodic")
    bound_per, _ = chessboard_lower_bound(params, sigma_h, gamma, bc="periodic")
    rel = abs(lhs_per - bound_per) / abs(bound_per)
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-9 * L and rel <= 1e-6 and elapsed < 120.0
    report(5, ok, f"worst_slack={worst:.3e} periodic_rel={rel:.2e} "
           f"t={elapsed:.1f}s")
    assert worst >= -1e-9 * L
    assert rel <= 1e-6
    assert elapsed < 120.0


def test_criterion_06_rp_lower_bound(base):
    params, _ = base
    gamma = 1e-2
    h_star, e_star, _, _ = optimal_h(params, gamma)
    t0 = time.perf_counter()

    def fitted_C(L, seed):
        worst = 0.0
        for step in _ink_corpus(params, gamma, L, 100, seed):
            lhs = tilde_energy(params, step, gamma, bc="open")
            h_j = step.interval_lengths()
            rhs = (L * e_star
                   + 0.5 * sum(h * (energy_per_length(params, h, gamma)
                                    - e_star) for h in h_j)
                   + params.f0 / (4.0 * params.m_beta ** 2)
                   * float(np.sum(step.widths
                                  * (np.abs(step.values)
                                     - params.m_beta) ** 2)))
            deficit = max(0.0, rhs - lhs) / (gamma ** (4.0 / 3.0) * L)
            worst = max(worst, deficit)
        return worst

    L = 20.0 * h_star
    c1 = fitted_C(L, seed=606)
    c2 = fitted_C(2.0 * L, seed=607)
    elapsed = time.perf_counter() - t0
    # both fits negligible counts as stable; otherwise compare within 30%
    if max(c1, c2) < 1e-6:
        stable = True
    else:
        stable = abs(c2 - c1) <= 0.3 * max(c1, c2)
    ok = c1 <= 10.0 and c2 <= 10.0 and stable and elapsed < 120.0
    report(6, ok, f"C(L)={c1:.3e} C(2L)={c2:.3e} stable={stable} "
           f"t={elapsed:.1f}s")
    assert c1 <= 10.0 and c2 <= 10.0
    assert stable
    assert elapsed < 120.0


def test_criterion_07_trial_profile_energy(base):
    params, inst = base
    t0 = time.perf_counter()
    ratios = {}
    for gamma in (2e-2, 1e-2, 5e-3):
        p = params.with_gamma(gamma)
        h_star, e_star, _, _ = optimal_h(p, gamma)
        h = round(h_star / inst.dx) * inst.dx
        prof = build_trial_profile(h, 8 * h, inst, bc="periodic")
        ratios[gamma] = total_energy(p, prof, gamma).total / prof.L / e_star
    elapsed = time.perf_counter() - t0
    # the smooth train sits slightly BELOW the sharp reference (the instanton
    # tails relax the dipole term by O(gamma^{4/3})), so the monotone
    # quantity is the deviation |E/L/e* - 1|, shrinking as gamma -> 0
    devs = [abs(ratios[g] - 1.0) for g in (2e-2, 1e-2, 5e-3)]
    ok = (ratios[1e-2] <= 1.10 and devs[0] > devs[1] > devs[2]
          and elapsed < 60.0)
    report(7, ok, "ratios " + " ".join(f"{g:g}:{r:.5f}"
                                       for g, r in ratios.items())
           + f" t={elapsed:.1f}s")
    assert ratios[1e-2] <= 1.10
    assert devs[0] > devs[1] > devs[2]
    assert elapsed < 60.0


def test_criterion_08_froth_emergence(froth_runs):
    p, gamma, h_star, e_star, L, results, elapsed = froth_runs
    best = min(results, key=lambda r: r.energy)
    step, _, _ = coarse_grain(p, best.profile, CoarseGrainConfig(), gamma)
    lengths = step.interval_lengths(periodic=True)
    good = lengths[np.abs(lengths / h_star - 1.0) <= 0.2]
    frac = float(good.sum() / L)
    mean_phi = abs(best.profile.mean())
    ok = frac >= 0.8 and mean_phi <= 0.05 * p.m_beta and elapsed < 600.0
    report(8, ok, f"good_fraction={frac:.2f} mean_h={lengths.mean():.2f} "
           f"h*={h_star:.2f} |mean phi|={mean_phi:.4f} E/L/e*="
           f"{best.energy / L / e_star:.3f} t={elapsed:.0f}s")
    assert mean_phi <= 0.05 * p.m_beta
    assert elapsed < 600.0
    # plain descent freezes at the quench period (~0.45 h* here); the
    # annihilation stage of multistart must remove wall pairs until the
    # intervals reach h*
    assert frac >= 0.8, (
        f"best minimizer ended at mean interval {lengths.mean():.2f} "
        f"vs h*={h_star:.2f}; only {100 * frac:.0f}% of length lies within "
        f"20% of h* (wall pairs left that annihilation should remove)")


def test_criterion_09_coarse_grain_certificate(base, froth_runs):
    params_base, inst = base
    p, gamma, h_star, e_star, L, results, _ = froth_runs
    delta = 0.2
    cfg = CoarseGrainConfig(delta=delta)
    t0 = time.perf_counter()
    profiles = [r.profile for r in results]
    rng = restart_rng(909, 0)
    h = round(h_star / inst.dx) * inst.dx
    trial = build_trial_profile(h, 10 * h, inst, bc="periodic")
    for k in range(20):
        noise = rng.uniform(0.05, 0.3) * rng.standard_normal(trial.n)
        profiles.append(trial.with_samples(np.clip(trial.samples + noise,
                                                   -1.0, 1.0)))
    worst_resid = np.inf
    worst_mass = 0.0
    for prof in profiles:
        step, adapted, trace = coarse_grain(p, prof, cfg, gamma)
        for (a, b), rec in zip(adapted.partition.blocks(), trace):
            worst_mass = max(worst_mass,
                             abs(step.restrict(a, b).mean() - rec["mean"]))
        e_phi = total_energy(p, prof, gamma).total
        e_til = tilde_energy(p, step, gamma, bc="periodic")
        worst_resid = min(worst_resid, (e_phi - e_til) / prof.L)
    C_fit = max(0.0, -worst_resid) / gamma ** (1.0 - delta)
    elapsed = time.perf_counter() - t0
    ok = C_fit <= 10.0 and worst_mass <= 1e-12 and elapsed < 300.0
    report(9, ok, f"C_fit={C_fit:.3f} worst_residual/L={worst_resid:.3e} "
           f"mass_err={worst_mass:.1e} t={elapsed:.0f}s")
    assert C_fit <= 10.0
    assert worst_mass <= 1e-12
    assert elapsed < 300.0


def test_criterion_10_constrained_minimizer(base):
    params, _ = base
    t0 = time.perf_counter()
    worst = 0.0
    for mean in (0.96, 0.98, 1.0):
        for start in range(5):
            rng = restart_rng(1010, start)
            n, dx = 640, 1.0 / 32.0
            init = GridProfile(L=n * dx, dx=dx,
                               samples=rng.uniform(-1.0, 1.0, n))
            res = minimize_with_mean_constraint(
                params, length=20.0, mean=mean, bc="open", gamma=0.0,
                options=MinimizeOptions(max_iters=6000, grad_tol=1e-7),
                dx=dx, init=init)
            dist = float(np.max(np.abs(res.profile.samples - mean)))
            worst = max(worst, dist)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 60.0
    report(10, ok, f"worst_sup_distance={worst:.2e} t={elapsed:.0f}s")
    assert worst <= 1e-6
    assert elapsed < 60.0


def test_criterion_11_well_inequalities(base):
    params, _ = base
    t = np.linspace(-1.0, 1.0, 10_000)
    gap = np.min(eval_F(t, params) / 2.0 - eval_tilde_F(t, params))
    h = 1e-5
    m = params.m_beta
    fpp = (eval_F(m + h, params) - 2.0 * eval_F(m, params)
           + eval_F(m - h, params)) / h ** 2
    margin = fpp - 2.0 * params.f0 / m ** 2
    ok = gap >= -1e-14 and margin > 0.0
    report(11, ok, f"min(F/2 - F~)={gap:.2e} F''(m)-2F(0)/m^2={margin:.4f}")
    assert gap >= -1e-14
    assert margin > 0.0


def test_criterion_12_gradient(base):
    params, _ = base
    gamma = 1e-2
    n, dx = 512, 1.0 / 32.0
    n_out = int(np.ceil(46.0 / gamma / dx))
    worst = 0.0
    for k in range(20):
        rng = restart_rng(1212, k)
        samples = rng.uniform(-0.95, 0.95, n)
        for bc in ("open", "periodic", "plus", "minus", "neumann", "custom"):
            kwargs = {}
            if bc == "custom":
                kwargs = dict(out_left=rng.uniform(-0.9, 0.9, n_out),
                              out_right=rng.uniform(-0.9, 0.9, n_out))
            prof = GridProfile(L=n * dx, dx=dx, samples=samples, bc=bc,
                               **kwargs)
            g = energy_gradient(params, prof, gamma)
            idx = rng.choice(n, 6, replace=False)
            fd = np.empty(idx.size)
            for j, i in enumerate(idx):
                up = samples.copy(); up[i] += 1e-6
                dn = samples.copy(); dn[i] -= 1e-6
                fd[j] = (total_energy(params, prof.with_samples(up), gamma).total
                         - total_energy(params, prof.with_samples(dn),
                                        gamma).total) / (2e-6 * dx)
            scale = max(float(np.max(np.abs(fd))), 1e-10)
            worst = max(worst, float(np.max(np.abs(g[idx] - fd))) / scale)
    ok = worst <= 1e-6
    report(12, ok, f"max_rel_err={worst:.2e} (20 profiles x 6 bcs)")
    assert worst <= 1e-6


def test_criterion_13_gamma_limit_calibration(base):
    params, _ = base
    m = params.m_beta
    L0 = 4.0
    alpha_default = params.measure.mean_rate()
    # Fourier-form long-range term of the limit functional (TV part removed)
    n = 4096
    x = (np.arange(n) + 0.5) * (L0 / n)
    u = GridProfile(L=L0, dx=L0 / n, samples=m * np.sign(np.sin(2 * np.pi * x / L0)),
                    bc="periodic")
    tv_term = params.tau / (2.0 * m) * 4.0 * m
    limit_lr = gamma_limit_energy(u, params, constant_alpha=alpha_default) - tv_term
    ratios = {}
    for gamma in (1e-3, 1e-4):
        L = L0 * gamma ** (-2.0 / 3.0)
        # square wave has mean zero, so no bulk term to subtract
        sq = StepProfile.from_pieces([(L / 2.0, m), (L / 2.0, -m)])
        from froth1d.energy import step_dipole_energy
        ratios[gamma] = step_dipole_energy(params, sq, gamma,
                                           bc="periodic") / limit_lr
    drift = abs(ratios[1e-3] / ratios[1e-4] - 1.0)
    calibrated = alpha_default * 0.5 * (ratios[1e-3] + ratios[1e-4])
    ok = drift <= 0.10
    report(13, ok, f"ratios={ratios[1e-3]:.5f},{ratios[1e-4]:.5f} "
           f"drift={drift:.4f} calibrated<alpha>={calibrated:.5f} "
           f"(recorded, not asserted)")
    assert drift <= 0.10
