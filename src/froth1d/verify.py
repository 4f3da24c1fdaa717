"""Certificate suite: every certified inequality in one runnable bundle.

The random corpus of step profiles behind the chessboard and RP lower-bound
certificates is drawn profile by profile, one seeded stream each, and then
scored in one pass of each core the per-profile functions use
(``energy._step_terms``, ``sharp._cell_energies``,
``diagnostics._excess_parts``).
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import List, Tuple

import numpy as np

from .certificates import Certificate
from .coarsegrain import CoarseGrainConfig, lower_bound_certificate
from .diagnostics import _excess_parts
from .energy import _step_terms, energy_gradient
from .errors import Froth1dError, _check_count
from .instanton import build_trial_profile, solve_instanton
from .minimize import restart_rng
from .model import (ModelParams, eval_F, eval_F_double_prime, eval_tilde_F,
                    rp_spectrum_check)
from .profiles import GridProfile, StepProfile, runs
from .sharp import (_cell_energies, cell_specific_energy, check_eh_bounds,
                    energy_per_length, optimal_h)

__all__ = ["run_certificates", "random_in_k_step", "appendix_well_certificates"]


def random_in_k_step(rng: np.random.Generator, L: float, m_beta: float,
                     m_bar: float, mean_spacing: float) -> StepProfile:
    """Random step profile with |values| >= m_bar and random signs."""
    edges = [0.0]
    while edges[-1] < L:
        edges.append(edges[-1] + rng.uniform(0.4, 1.6) * mean_spacing)
    edges[-1] = L
    if len(edges) < 3:
        edges = [0.0, L / 2.0, L]
    n = len(edges) - 1
    mags = np.clip(m_beta + 0.2 * rng.standard_normal(n), m_bar, 1.0)
    signs = rng.choice([-1.0, 1.0], size=n)
    return StepProfile(breakpoints=np.array(edges), values=signs * mags,
                       m_bar=m_bar)


def appendix_well_certificates(params: ModelParams) -> List[Certificate]:
    """Pointwise well inequalities on a dense magnetization grid."""
    t = np.linspace(-1.0, 1.0, 10_000)
    F = eval_F(t, params)
    Ft = eval_tilde_F(t, params)
    certs = [Certificate(
        "tilde_F_half_F", float(np.min(F / 2.0 - Ft)), 0.0,
        params={"grid": t.size}, tol=1e-14)]
    # curvature gap at the well bottom, by central differences
    h = 1e-5
    m = params.m_beta
    fpp = (eval_F(m + h, params) - 2.0 * eval_F(m, params)
           + eval_F(m - h, params)) / h ** 2
    certs.append(Certificate(
        "curvature_gap", float(fpp), 2.0 * params.f0 / m ** 2,
        params={"fd_step": h, "analytic": eval_F_double_prime(m, params)}))
    quad = params.f0 / m ** 2 * (np.abs(t) - m) ** 2
    certs.append(Certificate(
        "F_above_quadratic", float(np.min(F - quad)), 0.0,
        params={"grid": t.size}, tol=1e-12))
    return certs


def _corpus_gaps(p_used: ModelParams, p_solved: ModelParams,
                 steps: List[StepProfile], gamma: float, e_star: float
                 ) -> Tuple[List[float], List[float]]:
    """Per open step profile of ``steps``, e~ minus its chessboard bound and
    e~ minus L e* + excess/2 + well/4, the bound of the RP lower-bound
    estimate; e~ and the chessboard bound with ``p_used``, the excess and
    well terms with ``p_solved``.

    All profiles are scored together, each in its own coordinates: one
    ``_step_terms`` pass with a cell per profile, one ``_cell_energies``
    pass over the sign runs of every profile (no run spans two profiles)
    and one array e(h) for every run's excess. Each number is the one the
    per-profile functions give, bit for bit.
    """
    values = np.concatenate([s.values for s in steps])
    lefts = np.concatenate([s.breakpoints[:-1] for s in steps])
    rights = np.concatenate([s.breakpoints[1:] for s in steps])
    first = np.cumsum([0] + [s.values.size for s in steps[:-1]])
    tilde_well, surface, dipole = _step_terms(p_used, gamma, values, lefts,
                                              rights, first)
    e_tilde = (tilde_well + surface + dipole).tolist()
    cells = runs(np.sign(values), first)[0]
    h, e = _cell_energies(p_used, np.abs(values), lefts, rights, cells,
                          gamma)
    excess, well = _excess_parts(p_solved, gamma, e_star, h, values,
                                 rights - lefts, first)
    # each profile's cells in order, summed as chessboard_lower_bound and
    # excess_energy_decomposition sum them
    bounds = np.searchsorted(cells, first).tolist() + [cells.size]
    terms, excess, well = (h * e).tolist(), excess.tolist(), well.tolist()
    gaps_cb, gaps_c000 = [], []
    for k, (step, e_k) in enumerate(zip(steps, e_tilde)):
        i, j = bounds[k], bounds[k + 1]
        gaps_cb.append(e_k - sum(terms[i:j]))
        rhs = step.L * e_star + 0.5 * sum(excess[i:j]) + well[k] / 4.0
        gaps_c000.append(e_k - rhs)
    return gaps_cb, gaps_c000


# the checks that need the solved instanton and h*, in suite order
_NEED_H_STAR = ("tau_positive", "cell_energy_identity", "eh_bounds",
                "gradient_vs_fd", "chessboard_lower_bound",
                "rp_lower_bound_c000", "coarse_grain_lower_bound")


def _unevaluated(name: str, err: Exception) -> Certificate:
    """The record of the check ``name`` that could not be evaluated: NaN
    sides, so it never passes, and the error's text in ``params``."""
    return Certificate(name, math.nan, math.nan, params={"error": str(err)})


def _evaluated(name: str, check, *args) -> Certificate:
    """``check(*args)``, or ``_unevaluated`` if it raises a package error."""
    try:
        return check(*args)
    except Froth1dError as err:
        return _unevaluated(name, err)


def _trial_certificate(params: ModelParams, inst, h_star: float,
                       gamma: float, cells: int) -> Certificate:
    """The coarse-graining certificate on a periodic trial train of
    ``cells`` cells of ``inst.trial_cell(h_star, inst.dx)``, the cell that
    ``froth1d minimize`` also builds its trial train from. Only when that
    cell holds more than one h* (near beta = 1) is its length recorded as
    ``params["cell"]``."""
    cell = inst.trial_cell(h_star, inst.dx)
    trial = build_trial_profile(cell, cells * cell, inst, bc="periodic")
    cert = lower_bound_certificate(params, trial, gamma)
    if round(cell / inst.dx) == round(h_star / inst.dx):
        return cert
    return replace(cert, params={**cert.params, "cell": cell})


def run_certificates(params: ModelParams, seed: int = 0,
                     n_step_profiles: int = 20,
                     fast: bool = False) -> List[Certificate]:
    """Assemble and evaluate the full suite at ``params.gamma``: eleven
    records in a fixed order. No check makes it raise: a check that cannot
    be evaluated keeps its record, failing, as ``_unevaluated`` writes it,
    and an instanton or h* that cannot be solved leaves so every check of
    ``_NEED_H_STAR``. Invalid arguments do raise, before any check runs:
    ``n_step_profiles`` must be an integer >= 1, even with ``fast``, so that
    the corpus bounds never pass on no profile.

    Solves the instanton for an independent surface tension; a configured
    ``params.tau`` is kept for the effective-functional side so that an
    inconsistent value is caught by the cell-energy identity.
    """
    _check_count(n_step_profiles, "n_step_profiles", low=1)
    gamma = params.gamma
    certs: List[Certificate] = []
    certs.append(rp_spectrum_check(params.measure,
                                   np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 25)])))
    certs.extend(appendix_well_certificates(params))
    try:
        inst = solve_instanton(params, half_width=20.0 if fast else 30.0,
                               dx=1.0 / 32.0 if fast else 1.0 / 64.0)
        p_solved = params.with_tau(inst.tau)
        h_star, e_star, _, _ = optimal_h(p_solved, gamma)
    except Froth1dError as err:
        return certs + [_unevaluated(name, err) for name in _NEED_H_STAR]
    tau_solved = inst.tau
    tau_used = params.tau if params.tau is not None else tau_solved
    p_used = params.with_tau(tau_used)
    certs.append(Certificate(
        "tau_positive", tau_solved, 0.0, params={"tau": tau_solved}))
    # cell-energy identity: effective side with the configured tau, closed
    # form with the solved tau; breaks when the configuration lies about tau
    worst = 0.0
    for fac in (0.5, 1.0, 2.0, 5.0):
        h = fac * h_star
        cell = StepProfile(breakpoints=np.array([0.0, h]),
                           values=np.array([params.m_beta]))
        lhs = cell_specific_energy(p_used, cell, gamma=gamma)
        rhs = energy_per_length(p_solved, h, gamma)
        worst = max(worst, abs(lhs - rhs))
    certs.append(Certificate(
        "cell_energy_identity", worst, 1e-8, upper=True,
        params={"h_star": h_star, "tau_used": tau_used,
                "tau_solved": tau_solved}))
    certs.append(_evaluated("eh_bounds", check_eh_bounds, p_solved, gamma))
    # gradient versus central differences on a seeded random profile, taken
    # as direct sums outside the energy code: the well's difference, plus
    # the dense exchange and long-range rows, which equal the central
    # differences of their quadratic terms exactly
    rng = restart_rng(seed, 9001)
    n, dx = (128, 1.0 / 8.0) if fast else (512, 1.0 / 32.0)
    prof = GridProfile(L=n * dx, dx=dx,
                       samples=rng.uniform(-0.95, 0.95, n), bc="open")
    g = energy_gradient(p_solved, prof, gamma)
    h_fd = 1e-6
    idx = rng.choice(n, 24, replace=False)
    phi = prof.samples
    d = (idx[:, None] - np.arange(n)) * dx
    fd = ((eval_F(phi[idx] + h_fd, params) - eval_F(phi[idx] - h_fd, params))
          / (2.0 * h_fd)
          + dx * np.sum(params.kernel(d) * (phi[idx, None] - phi), axis=1)
          + gamma * dx * (params.measure.v(gamma * d) @ phi))
    scale = max(float(np.max(np.abs(fd))), 1e-10)
    rel = float(np.max(np.abs(g[idx] - fd))) / scale
    certs.append(Certificate("gradient_vs_fd", rel, 1e-6, upper=True,
                             params={"n": n, "step": h_fd}))
    # chessboard and RP lower bounds on a random in-K corpus
    cfg = CoarseGrainConfig()
    m_bar = cfg.m_bar(params.m_beta, gamma)
    L = (4.0 if fast else 20.0) * h_star
    n_profiles = 2 if fast else n_step_profiles
    steps = [random_in_k_step(restart_rng(seed, 100 + k), L, params.m_beta,
                              m_bar, h_star) for k in range(n_profiles)]
    gaps_cb, gaps_c000 = _corpus_gaps(p_used, p_solved, steps, gamma, e_star)
    worst_cb, worst_c000 = float(np.min(gaps_cb)), float(np.min(gaps_c000))
    certs.append(Certificate("chessboard_lower_bound", worst_cb, -1e-9 * L,
                             params={"L": L, "n_profiles": n_profiles}))
    allowance = 10.0 * gamma ** (4.0 / 3.0) * L
    certs.append(Certificate("rp_lower_bound_c000", worst_c000, -allowance,
                             params={"L": L, "C": 10.0}))
    certs.append(_evaluated("coarse_grain_lower_bound", _trial_certificate,
                            p_used, inst, h_star, gamma, 4 if fast else 8))
    return certs
