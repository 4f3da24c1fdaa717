"""Projected-gradient minimization of the discrete functional on the box
[-1, 1]^N or on its slice {<phi> = mean}, each step projected exactly (a clip,
on the slice a clip of one uniform shift), and seeded multistart.

The functional is a quadratic form plus the local well, so the descent
carries the quadratic part's value and gradient with the samples. A candidate
costs one projection, which returns its min and max, and one well pass that
reads those extremes (no clip pass within +-``model._EDGE``) and leaves the
slope unscaled until the candidate is accepted; inside the box the exact
expansion along the step ray scores it, so an iteration applies the quadratic
form at most once, plus once for each candidate that the projection clips."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from .energy import _quadratic_form, tilde_energy
from .errors import LineSearchFailure, ValidationError
from .model import ModelParams, _finish_slope, _well_parts
from .profiles import GridProfile, StepProfile
from .sharp import energy_per_length

__all__ = [
    "MinimizeOptions",
    "MinimizeResult",
    "minimize_energy",
    "minimize_with_mean_constraint",
    "multistart",
    "restart_rng",
]


# line search: first step, backtracking factor, step growth after acceptance,
# failure threshold, Armijo fraction
_STEP0 = 1.0
_BACKTRACK = 0.5
_STEP_GROW = 1.3
_MIN_STEP = 1e-16
_ARMIJO = 1e-4
# restart_rng keys Philox with the seed as an unsigned 64-bit word
_SEED_LIMIT = 2 ** 64


@dataclass(frozen=True)
class MinimizeOptions:
    """``max_iters`` and ``grad_tol`` bound every descent; ``seed`` seeds
    ``multistart``."""
    max_iters: int = 20000
    grad_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.grad_tol < np.inf:     # also false for nan
            raise ValidationError("grad_tol must be finite and positive")
        _check_count(self.max_iters, "max_iters")
        _check_count(self.seed, "seed", _SEED_LIMIT)


def _check_count(value, name: str, limit: float = np.inf, low: int = 0):
    """Reject anything but an integer in [low, limit), a bool included."""
    if isinstance(value, bool) or not (
            isinstance(value, (int, np.integer)) and low <= value < limit):
        raise ValidationError(f"{name} must be an integer in [{low}, {limit})")


@dataclass
class MinimizeResult:
    profile: GridProfile
    energy: float
    grad_norm: float
    iterations: int
    converged: bool
    trace: np.ndarray            # rows: iter, energy, grad_norm, step
    evaluations: int             # well passes: the start and each candidate
    applications: int            # applications of the quadratic form K


def _projected_grad_norm(phi, g, tol=1e-12):
    """Sup-norm of the gradient with active box faces masked out."""
    if not g.size:
        return 0.0
    pg = g.copy()
    pg[(phi >= 1.0 - tol) & (g < 0.0)] = 0.0
    pg[(phi <= -1.0 + tol) & (g > 0.0)] = 0.0
    return float(np.max(np.abs(pg)))


def _mean_slice_grad_norm(phi, g, tol=1e-12):
    """Stationarity residual on {mean = const} intersected with the box.

    On the slice the multiplier is the gradient mean over free samples;
    box-active samples only count when they push off their face.
    """
    free = np.abs(phi) < 1.0 - tol
    gf = g[free] if np.any(free) else g
    mu = float(np.add.reduce(gf) / gf.size)
    return _projected_grad_norm(phi, g - mu, tol)


def _project_box(y):
    """The nearest point of the box to y, with its min and max: y itself when
    y lies strictly inside, else the clip, whose extremes are y's clamped."""
    lo, hi = np.minimum.reduce(y), np.maximum.reduce(y)
    if hi < 1.0 and lo > -1.0:
        return y, lo, hi
    x = np.maximum(y, -1.0)      # np.clip is slower
    np.minimum(x, 1.0, out=x)
    return x, min(max(lo, -1.0), 1.0), min(max(hi, -1.0), 1.0)


def _overshoots(z):
    """The sums of z - 1 over the samples above 1 and of -1 - z over those
    below -1."""
    return (np.add.reduce(np.maximum(z - 1.0, 0.0)),
            np.add.reduce(np.maximum(-1.0 - z, 0.0)))


def _project_mean_box(y, mean):
    """Euclidean projection of y onto the slice {mean(x) = mean} of the box,
    with its min and max: clip(y + lam, -1, 1) for the lam that gives the
    mean, found with no sort by variable fixing (Kiwiel, J. Optim. Theory
    Appl. 136, 2008). A pass shifts the free samples to the sum that the
    fixed ones leave them and takes ``_overshoots``. The clip's sum is
    nondecreasing in lam, so the side that overshoots more lies past its face
    at the solution too: its samples are fixed there. A pass fixes at least
    one sample, so at most n passes run; the last leaves no free sample past
    a face, or none free."""
    if abs(mean) == 1.0:
        return np.full_like(y, mean), mean, mean
    lam = mean - np.add.reduce(y) / y.size
    shifted = y + lam
    lo, hi = np.minimum.reduce(shifted), np.maximum.reduce(shifted)
    if lo >= -1.0 and hi <= 1.0:
        return shifted, lo, hi
    free, z, fixed = y, shifted, 0.0     # fixed: the sum of the fixed samples
    while True:
        over, under = _overshoots(z)
        if over == under == 0.0:
            break
        face = 1.0 if over > under else -1.0
        kept = free[z <= 1.0] if face > 0.0 else free[z >= -1.0]
        fixed += face * (free.size - kept.size)
        free = kept
        if not free.size:
            break
        lam = (mean * y.size - fixed - np.add.reduce(free)) / free.size
        z = free + lam
    x = np.maximum(y + lam, -1.0)
    np.minimum(x, 1.0, out=x)
    return x, np.minimum.reduce(x), np.maximum.reduce(x)


def _descend(params: ModelParams, profile: GridProfile, gamma: float,
             options: MinimizeOptions,
             mean: Optional[float] = None) -> MinimizeResult:
    """Projected gradient descent on the box, or with ``mean`` on its slice.

    E = dx sum F(phi) + Q(phi) with Q quadratic, so along a step ray only the
    well is nonlinear. The descent carries Q and its gradient gq with phi.
    The linear term of fixed outside data is built once, before the first
    step, and every fresh evaluation of Q reuses it.
    A candidate costs one projection, which returns its min and max, and one
    well pass on those extremes (no clip pass within +-``model._EDGE``), which
    gives F and the slope's log1p difference; F' is finished only for the
    accepted candidate. Strictly inside the box a candidate is phi - t d up
    to rounding, with d = g on the box and d = g - mean(g) on the slice (the
    ray shifted back to the mean), formed once an iteration: its Q is the
    exact expansion Q - t dx <gq, d> + (t^2 dx / 2) <d, K d>, and its
    acceptance updates gq by -t K d, one application of K per iteration.
    A clipped candidate is evaluated afresh. With no sample of the accepted
    candidate within 1e-12 of a face (its extremes tell), the next residual
    is max |d| from one max and one min. Candidates are plain arrays in the
    box; only the returned profile is built and validated.
    """
    form = _quadratic_form(params, gamma, profile.n, profile.dx, profile.bc)
    dx = profile.dx
    if mean is None:
        project, face_residual = _project_box, _projected_grad_norm
    else:
        def project(y):
            return _project_mean_box(y, mean)
        face_residual = _mean_slice_grad_norm

    def stationarity(phi, lo, hi, g):
        d = g if mean is None else g - np.add.reduce(g) / g.size
        if hi < 1.0 - 1e-12 and lo > -1.0 + 1e-12:     # no face near
            return d, abs(float(max(np.maximum.reduce(d),
                                    -np.minimum.reduce(d))))
        return d, face_residual(phi, g)

    outside = form.outside(profile)
    phi, lo, hi = project(profile.samples)
    q, gq = form.quadratic(phi, outside)
    f, g, s = _well_parts(phi, lo, hi, params)
    energy = dx * float(np.add.reduce(f)) + q
    g = _finish_slope(g, s, params)
    g += gq
    evaluations = applications = 1
    step = _STEP0
    rows: List[Tuple[float, float, float, float]] = []
    status = "max_iters"
    it = 0
    for it in range(1, options.max_iters + 1):
        d, gnorm = stationarity(phi, lo, hi, g)
        rows.append((it - 1, energy, gnorm, step))
        if gnorm <= options.grad_tol:
            status = "converged"
            break
        d_d = float(d @ d)
        # whether E resolves the Armijo decrease asked of a unit step
        resolved = energy - _ARMIJO * dx * d_d < energy
        hd = None
        while step >= _MIN_STEP:
            # L2 gradient flow step: g is the discrete functional derivative
            cand, cand_lo, cand_hi = project(phi - step * g)
            f, cand_diff, cand_s = _well_parts(cand, cand_lo, cand_hi, params)
            evaluations += 1
            if cand_hi < 1.0 and cand_lo > -1.0:    # cand = phi - step d
                if hd is None:
                    hd = form.hessian(d)
                    applications += 1
                    gq_d, d_hd = float(gq @ d), float(d @ hd)
                cand_q = q + step * dx * (0.5 * step * d_hd - gq_d)
                cand_gq = None
                decrease = dx * step * d_d
            else:
                cand_q, cand_gq = form.quadratic(cand, outside)
                applications += 1
                decrease = (dx * float(np.add.reduce((cand - phi) ** 2))
                            / max(step, 1e-300))
            cand_energy = dx * float(np.add.reduce(f)) + cand_q
            if cand_energy <= energy - _ARMIJO * decrease:
                break
            step *= _BACKTRACK
        # float64 resolves at E no decrease below about half an ulp of E.
        # Once even the decrease the Armijo test asks of a unit step is below
        # that, the test compares roundings of E: a failed search, or an
        # accepted step whose whole first-order decrease E does not resolve,
        # ends the descent unconverged. A search that fails while E resolves
        # that decrease raises: the step ray does not descend.
        else:
            status = "line_search_failure" if resolved else "rounding"
            break
        if not resolved and energy - decrease == energy:
            status = "rounding"
            break
        if cand_gq is None:
            gq -= step * hd
        else:
            gq = cand_gq
        phi, lo, hi = cand, cand_lo, cand_hi
        q, energy = cand_q, cand_energy
        g = _finish_slope(cand_diff, cand_s, params)
        g += gq
        step = min(step * _STEP_GROW, 1e6)
    gnorm = stationarity(phi, lo, hi, g)[1]
    rows.append((it, energy, gnorm, step))
    result = MinimizeResult(profile=profile.with_samples(phi), energy=energy,
                            grad_norm=gnorm, iterations=it,
                            converged=status == "converged",
                            trace=np.array(rows), evaluations=evaluations,
                            applications=applications)
    if status == "line_search_failure":
        raise LineSearchFailure("backtracking underflowed", result=result)
    return result


def minimize_energy(params: ModelParams, init: GridProfile,
                    gamma: Optional[float] = None,
                    options: Optional[MinimizeOptions] = None
                    ) -> MinimizeResult:
    """Projected gradient descent with Armijo backtracking on [-1, 1]^N.

    Energy decreases monotonically along accepted steps; stops when the
    projected-gradient sup-norm reaches grad_tol or max_iters is exhausted,
    or, unconverged, once the profile is stationary to the rounding of E:
    the decrease the Armijo test asks of a unit step is below half an ulp
    of E and the line search fails or accepts a step whose first-order
    decrease E does not resolve. A line search that fails while E resolves
    that decrease raises ``LineSearchFailure``.
    The returned energy is the value carried along the descent (the
    quadratic part expanded step by step, refreshed at clipped steps); it
    agrees with ``total_energy`` of the returned profile to rounding. The
    result counts well passes (``evaluations``) and applications of the
    quadratic form (``applications``).
    """
    gamma = params.gamma if gamma is None else gamma
    options = MinimizeOptions() if options is None else options
    return _descend(params, init, gamma, options)


def minimize_with_mean_constraint(params: ModelParams, length: float,
                                  mean: float, bc: str = "open",
                                  gamma: float = 0.0,
                                  options: Optional[MinimizeOptions] = None,
                                  dx: float = 1.0 / 32.0,
                                  init: Optional[GridProfile] = None
                                  ) -> MinimizeResult:
    """Projected gradient descent on the slice {<phi> = mean} of the box, each
    step projected exactly by ``_project_mean_box`` (variable fixing, at
    most N passes over the samples and no sort), until the slice's
    stationarity residual reaches ``grad_tol``. A step the box does not clip
    is the mean-shifted ray phi - t (g - mean(g)), scored along that ray as
    in ``minimize_energy``; the returned energy is likewise the carried value,
    and a profile stationary to the rounding of E is returned unconverged
    as there. Reads ``options`` as ``minimize_energy`` does. An ``init`` must lie on
    the grid that ``length``, ``dx`` and ``bc`` describe."""
    if not abs(mean) <= 1.0:
        raise ValidationError("|mean| must not exceed 1")
    options = MinimizeOptions() if options is None else options
    if init is None:
        init = GridProfile.constant(mean, L=length, dx=dx, bc=bc)
    elif (init.bc != bc or not np.isclose(init.L, length, rtol=1e-9, atol=0.0)
          or not np.isclose(init.dx, dx, rtol=1e-9, atol=0.0)):
        raise ValidationError(
            f"init (L={init.L}, dx={init.dx}, bc={init.bc}) disagrees with "
            f"length={length}, dx={dx}, bc={bc}")
    return _descend(params, init, gamma, options, mean)


def restart_rng(seed: int, restart_index: int) -> np.random.Generator:
    """Counter-based generator split: one independent stream per restart."""
    _check_count(seed, "seed", _SEED_LIMIT)
    key = np.array([seed, restart_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _relax(params: ModelParams, profile: GridProfile, gamma: float,
           options: MinimizeOptions) -> MinimizeResult:
    """Box-constrained descent that returns, not raises, a line-search failure."""
    try:
        return _descend(params, profile, gamma, options)
    except LineSearchFailure as err:
        return err.result


def _sign_changes(samples: np.ndarray) -> np.ndarray:
    """Indices i where the sign of samples[i] differs from samples[i-1] on the
    torus (zero counts as positive); one index per wall."""
    positive = samples >= 0.0
    return np.flatnonzero(positive != np.roll(positive, 1))


def _flipped_sharp_energy(params: ModelParams, gamma: float,
                          counts: np.ndarray, j: int, dx: float) -> float:
    """Periodic sharp-interface energy (``tilde_energy`` of a +-m_beta step
    profile, where the well term vanishes) with sign interval j (of the
    cyclic run lengths ``counts``) merged into both neighbours."""
    w = np.roll(counts, 1 - j)
    merged = np.concatenate([[w[0] + w[1] + w[2]], w[3:]]) * dx
    m = params.m_beta
    step = StepProfile.from_pieces(
        [(h, m if i % 2 == 0 else -m) for i, h in enumerate(merged)])
    return tilde_energy(params, step, gamma, bc="periodic")


def _annihilate(params: ModelParams, gamma: float, first: MinimizeResult,
                options: MinimizeOptions) -> MinimizeResult:
    """Coarse wall-pair annihilation on the torus after a plain descent.

    Returns ``first``'s descent when no move is accepted, with the counts of
    the tried moves' relaxations added; see ``multistart``.
    """
    n, dx = first.profile.n, first.profile.dx
    L = n * dx
    relax = replace(options, max_iters=max(1, options.max_iters // 6))
    current = first
    rows = [first.trace]
    iterations = first.iterations
    evaluations, applications = first.evaluations, first.applications
    while True:
        cuts = _sign_changes(current.profile.samples)
        k = cuts.size
        if k < 4 or (energy_per_length(params, L / (k - 2), gamma)
                     >= energy_per_length(params, L / k, gamma)):
            break
        counts = np.diff(np.append(cuts, cuts[0] + n))
        ranked = np.argsort([_flipped_sharp_energy(params, gamma, counts, j, dx)
                             for j in range(k)], kind="stable")
        for j in ranked[:2]:
            idx = np.arange(cuts[j], cuts[j] + counts[j]) % n
            phi = current.profile.samples.copy()
            phi[idx] = -phi[idx]
            cand = _relax(params, current.profile.with_samples(phi), gamma,
                          relax)
            evaluations += cand.evaluations
            applications += cand.applications
            if cand.energy < current.energy:
                iterations += 1
                rows.append([(iterations, cand.energy, cand.grad_norm,
                              cand.trace[-1, 3])])
                current = cand
                break
        else:
            break
    if current is first:
        return replace(first, evaluations=evaluations,
                       applications=applications)
    final = _relax(params, current.profile, gamma, options)
    tail = final.trace[1:].copy()
    tail[:, 0] += iterations
    rows.append(tail)
    return replace(final, iterations=iterations + final.iterations,
                   trace=np.vstack(rows),
                   evaluations=evaluations + final.evaluations,
                   applications=applications + final.applications)


def multistart(params: ModelParams, gamma: float, L: float, bc: str,
               n_starts: int, options: Optional[MinimizeOptions] = None,
               dx: float = 1.0 / 16.0,
               init: Optional[GridProfile] = None):
    """Best of ``n_starts`` seeded random initializations.

    Deterministic given options.seed; returns (best result, table of final
    energies). When ``init`` is given it is used for restart 0.

    Each start is first relaxed by plain projected-gradient descent with the
    full ``options``, exactly as ``minimize_energy``. Descent alone cannot
    remove a pair of walls, because the long-range repulsion between them is
    an energy barrier, so a quench from noise freezes with far too many
    walls. On the ``periodic`` bc, when ``params.tau`` is set, a coarse
    annihilation stage follows:

    1. read the periodic sign runs of the relaxed samples; k runs mean k walls;
    2. gate: go on only while k >= 4 and the k-wall state has too many walls,
       ``e(L/(k-2)) < e(L/k)`` in the closed form ``energy_per_length``;
    3. rank the k moves "flip sign interval i", which merge interval i with
       both neighbours, by the sharp-interface energy (``tilde_energy``)
       of the merged +-m_beta step profile;
    4. negate the samples of the best and, if needed, the second-best
       interval and re-relax with ``max(1, max_iters // 6)`` iterations;
       accept the first move whose relaxed energy is below the current one;
    5. repeat until the gate closes or neither move is accepted.

    After an accepted move the result is relaxed once more with the full
    ``options``. Without an accepted move the start's result is the plain
    descent's, unchanged. The result's trace is one record of the run: the
    first relaxation's rows, one row per accepted move (its re-relaxation
    counts as one iteration, as backtracking does within a descent step),
    then the final relaxation's rows, numbered on, so energies never rise
    and ``iterations`` is the last row's number, while ``evaluations`` and
    ``applications`` add up every relaxation of the start, tried moves
    included. Other bcs, or params without tau, get plain descent only.
    """
    _check_count(n_starts, "n_starts", low=1)
    options = MinimizeOptions() if options is None else options
    n = int(round(L / dx))
    best = None
    table = []
    for k in range(n_starts):
        if k == 0 and init is not None:
            start = init
        else:
            rng = restart_rng(options.seed, k)
            start = GridProfile(L=n * dx, dx=dx,
                                samples=rng.uniform(-1.0, 1.0, n), bc=bc)
        res = _relax(params, start, gamma, options)
        if res.profile.bc == "periodic" and params.tau is not None:
            res = _annihilate(params, gamma, res, options)
        table.append((k, res.energy, res.grad_norm, res.converged))
        if best is None or res.energy < best.energy:
            best = res
    return best, table
