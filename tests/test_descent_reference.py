"""The descent against its earlier implementation: on the box bit for bit,
on the mean slice against oracles that share no code with the library.

The references below are the earlier implementations, kept verbatim as
oracles (renamed with a ``ref`` prefix): the projections returned the point
(and, on the box, whether it was strictly inside), and the descent took the
candidate's extremes again to tell whether it was on the step ray; the
stationarity residuals took the extremes of phi every iteration; and the
well clipped every vector and searched it for clipped samples. The library
versions compute each of these once per candidate or per iteration and must
give the same profiles, traces, energies and counts, and the same well
values, box projections and residuals, in every bit.

The mean-slice projection finds its shift by variable fixing, which rounds
otherwise than the earlier knot formula, so a slice descent whose projection
clips a candidate differs from the reference in its last bits. Each slice
projection such a descent makes must meet the KKT conditions of the
projection (``direct_oracles.check_mean_projection``), a projection on its
own must also agree with the knot formula (``ref_project_mean_box``) to the
bound a rounding analysis gives, and the descent's energy must be the O(N^2)
direct sum of its profile (``direct_oracles.dense_energy``). Slice descents
that never clip (the rounding stop) project by the one shift, unchanged, and
stay pinned bit for bit.
"""

from typing import List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import froth1d.minimize as minimize_module
from direct_oracles import (check_mean_projection, dense_energy, knot_bound,
                            ref_project_mean_box)
from froth1d.energy import _quadratic_form
from froth1d.errors import DomainError, LineSearchFailure
from froth1d.minimize import (_ARMIJO, _BACKTRACK, _MIN_STEP, _STEP0,
                              _STEP_GROW, MinimizeOptions, MinimizeResult,
                              _descend, _mean_slice_grad_norm,
                              _project_box, _project_mean_box,
                              _projected_grad_norm)
from froth1d.model import (_EDGE, ModelParams, _finish_slope, _shifted_a,
                           _unclamped_a, _well, _well_parts, eval_F)
from froth1d.profiles import GridProfile

# ---------------------------------------------------------------------------
# references


def ref_well(t: np.ndarray, params: ModelParams):
    """F(t) = a(t) - a(m_beta) (0 exactly at +-m_beta) and F'(t) = (log1p s -
    log1p(-s)) / (2 beta) - J0_hat s per sample of a vector t in [-1, 1], from
    one log1p pair on s = clip(t, -_EDGE, _EDGE); F takes a(|t|) beyond it."""
    # in-place steps, same operations in the same order as the formulas
    s = np.maximum(t, -_EDGE)    # np.clip is slower
    np.minimum(s, _EDGE, out=s)
    lp = np.log1p(s)
    lm = np.negative(s)
    np.log1p(lm, out=lm)
    slope = lp - lm
    slope /= 2.0 * params.beta
    slope -= params.kernel.j0_hat * s
    f = _shifted_a(s, lp, lm, params)
    f -= params._a_min
    out = np.flatnonzero(s != t)
    if out.size:
        f[out] = _unclamped_a(np.abs(t[out]), params) - params._a_min
    return f, slope


def ref_eval_F(t, params: ModelParams):
    """Double-well density F(t) = a(t) - a(m_beta), nonnegative and even."""
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0 + 1e-12):
        raise DomainError("magnetization outside [-1, 1]")
    t = np.clip(t, -1.0, 1.0)
    out = ref_well(t.reshape(-1), params)[0].reshape(t.shape)
    return out if out.ndim else float(out)


def ref_projected_grad_norm(phi, g, tol=1e-12):
    """Sup-norm of the gradient with active box faces masked out."""
    if not g.size:
        return 0.0
    if phi.max() < 1.0 - tol and phi.min() > -1.0 + tol:   # no face near
        return float(np.max(np.abs(g)))
    pg = g.copy()
    pg[(phi >= 1.0 - tol) & (g < 0.0)] = 0.0
    pg[(phi <= -1.0 + tol) & (g > 0.0)] = 0.0
    return float(np.max(np.abs(pg)))


def ref_mean_slice_grad_norm(phi, g, tol=1e-12):
    """Stationarity residual on {mean = const} intersected with the box.

    On the slice the multiplier is the gradient mean over free samples;
    box-active samples only count when they push off their face.
    """
    if phi.max() < 1.0 - tol and phi.min() > -1.0 + tol:   # all free
        return float(np.max(np.abs(g - g.mean())))
    free = np.abs(phi) < 1.0 - tol
    mu = float(g[free].mean()) if np.any(free) else float(g.mean())
    return ref_projected_grad_norm(phi, g - mu, tol)


def ref_project_box(y):
    """The nearest point of the box to y, and whether y lies strictly inside
    it (the point is then y itself)."""
    if y.max() < 1.0 and y.min() > -1.0:
        return y, True
    return np.clip(y, -1.0, 1.0), False


def ref_descend(params: ModelParams, profile: GridProfile, gamma: float,
             options: MinimizeOptions,
             mean: Optional[float] = None) -> MinimizeResult:
    """Projected gradient descent on the box, or with ``mean`` on its slice.

    E = dx sum F(phi) + Q(phi) with Q quadratic, so along a step ray only the
    well is nonlinear. The descent carries Q and its gradient gq with phi.
    A candidate strictly inside the box is phi - t d up to rounding, with
    d = g on the box and d = g - mean(g) on the slice (the ray shifted back
    to the mean): it costs one well pass, its Q is the exact expansion
    Q - t dx <gq, d> + (t^2 dx / 2) <d, H d>, and its acceptance updates gq
    by -t H d. H d takes one application of K per iteration, made when the
    first such candidate needs it. A candidate that the projection clips is
    evaluated afresh. Candidates are plain arrays that the projections place
    in the box, so only the returned profile is built and validated.
    """
    form = _quadratic_form(params, gamma, profile.n, profile.dx, profile.bc)
    dx = profile.dx
    if mean is None:
        project, stationarity = ref_project_box, ref_projected_grad_norm
    else:
        def project(y):
            # a projection strictly inside the box is a pure shift of y
            x = ref_project_mean_box(y, mean)
            return x, bool(x.max() < 1.0 and x.min() > -1.0)
        stationarity = ref_mean_slice_grad_norm
    outside = form.outside(profile)
    phi = project(profile.samples)[0]
    q, gq = form.quadratic(phi, outside)
    f, g = ref_well(phi, params)
    energy = dx * float(f.sum()) + q
    g += gq
    evaluations = applications = 1
    step = _STEP0
    rows: List[Tuple[float, float, float, float]] = []
    status = "max_iters"
    it = 0
    for it in range(1, options.max_iters + 1):
        gnorm = stationarity(phi, g)
        rows.append((it - 1, energy, gnorm, step))
        if gnorm <= options.grad_tol:
            status = "converged"
            break
        d = g if mean is None else g - g.mean()
        d_d = float(d @ d)
        # whether E resolves the Armijo decrease asked of a unit step
        resolved = energy - _ARMIJO * dx * d_d < energy
        hd = None
        accepted = False
        while step >= _MIN_STEP:
            # L2 gradient flow step: g is the discrete functional derivative
            cand, on_ray = project(phi - step * g)
            f, cand_g = ref_well(cand, params)
            evaluations += 1
            if on_ray:      # cand = phi - step d
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
                decrease = dx * float(np.sum((cand - phi) ** 2)) / max(step, 1e-300)
            cand_energy = dx * float(f.sum()) + cand_q
            if cand_energy <= energy - _ARMIJO * decrease:
                accepted = True
                break
            step *= _BACKTRACK
        # float64 resolves at E no decrease below about half an ulp of E.
        # Once even the decrease the Armijo test asks of a unit step is below
        # that, the test compares roundings of E: a failed search, or an
        # accepted step whose whole first-order decrease E does not resolve,
        # ends the descent unconverged. A search that fails while E resolves
        # that decrease raises: the step ray does not descend.
        if not accepted:
            status = "line_search_failure" if resolved else "rounding"
            break
        if not resolved and energy - decrease == energy:
            status = "rounding"
            break
        if cand_gq is None:
            gq -= step * hd
        else:
            gq = cand_gq
        phi, q, energy, g = cand, cand_q, cand_energy, cand_g
        g += gq
        step = min(step * _STEP_GROW, 1e6)
    gnorm = stationarity(phi, g)
    rows.append((it, energy, gnorm, step))
    result = MinimizeResult(profile=profile.with_samples(phi), energy=energy,
                            grad_norm=gnorm, iterations=it,
                            converged=status == "converged",
                            trace=np.array(rows), evaluations=evaluations,
                            applications=applications)
    if status == "line_search_failure":
        raise LineSearchFailure("backtracking underflowed", result=result)
    return result


# ---------------------------------------------------------------------------
# descents

_PARAMS = ModelParams.create(beta=2.0, gamma=1e-2)
_BCS = ("periodic", "open", "neumann", "plus", "minus", "custom")
_MEANS = (None, 0.0, 0.96, -0.96, 1.0, -1.0)
# samples on a face, within 1e-12 of one (the residuals' tolerance), at the
# well's clip edge, and just inside it
_FACE_VALUES = (1.0, -1.0, 1.0 - 1e-13, -(1.0 - 1e-13), _EDGE, -_EDGE,
                1.0 - 1e-11, -(1.0 - 1e-11))


def _outcome(descend, params, profile, gamma, options, mean):
    """What a descent returns, bit for bit, and whether it raised."""
    try:
        res, raised = descend(params, profile, gamma, options, mean), False
    except LineSearchFailure as err:
        res, raised = err.result, True
    scalars = np.array([res.energy, res.grad_norm]).tobytes()
    return (raised, res.profile.samples.tobytes(), res.trace.tobytes(),
            scalars, res.iterations, res.converged, res.evaluations,
            res.applications)


def _start(n, dx, bc, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "noise":
        samples = rng.uniform(-1.0, 1.0, n)
    elif kind == "faces":
        # about half the samples on, or within rounding of, a face
        samples = np.where(rng.random(n) < 0.5, rng.choice(_FACE_VALUES, n),
                           rng.uniform(-1.0, 1.0, n))
    elif kind == "saturated":
        samples = np.sign(rng.uniform(-1.0, 1.0, n))
    else:   # a +-m_beta wave: the descent stays off the faces
        x = (np.arange(n) + 0.5) / n
        samples = np.where(x < 0.5, _PARAMS.m_beta, -_PARAMS.m_beta)
        samples = np.clip(samples + rng.uniform(-0.05, 0.05, n), -1.0, 1.0)
    extra = {}
    if bc == "custom":
        n_out = _quadratic_form(_PARAMS, 1e-2, n, dx, bc).n_out
        extra = dict(out_left=rng.uniform(-0.9, 0.9, n_out),
                     out_right=rng.uniform(-0.9, 0.9, n_out))
    return GridProfile(L=n * dx, dx=dx, samples=samples, bc=bc, **extra)


@settings(max_examples=120, deadline=None)
@given(n=st.integers(2, 48), dx=st.sampled_from([1.0 / 8.0, 1.0 / 16.0]),
       bc=st.sampled_from(_BCS), mean=st.sampled_from(_MEANS),
       gamma=st.sampled_from([0.0, 1e-2]),
       kind=st.sampled_from(["noise", "faces", "saturated", "wave"]),
       seed=st.integers(0, 2 ** 32 - 1), max_iters=st.integers(0, 40),
       grad_tol=st.sampled_from([1e-9, 1e-3]))
@example(n=32, dx=1.0 / 16.0, bc="custom", mean=None, gamma=1e-2,
         kind="faces", seed=1, max_iters=40, grad_tol=1e-9)
@example(n=32, dx=1.0 / 16.0, bc="open", mean=0.96, gamma=0.0,
         kind="faces", seed=2, max_iters=40, grad_tol=1e-9)
@example(n=32, dx=1.0 / 16.0, bc="neumann", mean=-1.0, gamma=1e-2,
         kind="noise", seed=3, max_iters=5, grad_tol=1e-9)
def test_descent_matches_reference(n, dx, bc, mean, gamma, kind, seed,
                                   max_iters, grad_tol):
    profile = _start(n, dx, bc, kind, seed)
    options = MinimizeOptions(max_iters=max_iters, grad_tol=grad_tol)
    if mean is None:
        assert (_outcome(_descend, _PARAMS, profile, gamma, options, mean)
                == _outcome(ref_descend, _PARAMS, profile, gamma, options,
                            mean))
    else:
        _checked_slice_descent(profile, gamma, options, mean)


# The carried energy against the direct sums: each term of E is O(1) per
# unit length here (|F| < 1, J and v integrate to O(1), |phi| <= 1), so both
# sides round to a few eps per sample and per step of at most 40, far inside
# 1e3 eps of max(1, L).
_ENERGY_TOL = 1e3 * np.finfo(float).eps


def _checked_slice_descent(profile, gamma, options, mean):
    """A slice descent with every projection it makes checked against the
    KKT oracle, and its energy against the direct sums; returns whether it
    raised ``LineSearchFailure``."""
    project = minimize_module._project_mean_box

    def checked(y, mean):
        out = project(y, mean)
        check_mean_projection(y, mean, *out)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(minimize_module, "_project_mean_box", checked)
        try:
            res, raised = _descend(_PARAMS, profile, gamma, options,
                                   mean), False
        except LineSearchFailure as err:
            res, raised = err.result, True
    assert abs(res.energy - dense_energy(_PARAMS, res.profile, gamma)) <= (
        _ENERGY_TOL * max(1.0, profile.L))
    assert np.all(np.diff(res.trace[:, 1]) <= 0.0)
    return raised


def _wave_start(seed):
    """``TestRoundingStop``'s start: a +-m_beta two-cell wave plus noise."""
    n, dx = 192, 1.0 / 16.0
    x = (np.arange(n) + 0.5) / n
    phi = np.where(x < 0.5, _PARAMS.m_beta, -_PARAMS.m_beta)
    phi = phi + np.random.default_rng(seed).uniform(-0.03, 0.03, n)
    return GridProfile(L=n * dx, dx=dx, samples=phi - phi.mean())


@pytest.mark.parametrize("seed", [0, 2])
def test_rounding_stop_matches_reference(seed):
    # descents that end stationary to the rounding of E
    options = MinimizeOptions(max_iters=5000, grad_tol=1e-12)
    new = _outcome(_descend, _PARAMS, _wave_start(seed), 1e-2, options, 0.0)
    ref = _outcome(ref_descend, _PARAMS, _wave_start(seed), 1e-2, options, 0.0)
    assert new == ref
    assert not new[0] and not new[5] and new[4] < 5000


def test_line_search_failure_matches_reference(monkeypatch):
    # both wells made to point uphill: both descents raise the same result
    def uphill(well):
        def turned(phi, p):
            f, fp = well(phi, p)
            return f, -fp
        return turned

    def finish_uphill(diff, s, p):
        return -_finish_slope(diff, s, p)

    monkeypatch.setattr(minimize_module, "_finish_slope", finish_uphill)
    monkeypatch.setitem(globals(), "ref_well", uphill(ref_well))
    options = MinimizeOptions(max_iters=50, grad_tol=1e-12)
    profile = GridProfile.constant(0.5, L=4.0, dx=0.0625)
    new = _outcome(_descend, _PARAMS, profile, 1e-2, options, None)
    assert new[0]
    assert new == _outcome(ref_descend, _PARAMS, profile, 1e-2, options, None)
    assert _checked_slice_descent(_wave_start(0), 1e-2, options, 0.0)


# ---------------------------------------------------------------------------
# the pieces

_SPECIAL = st.sampled_from(_FACE_VALUES + (0.0, -0.0))


@settings(max_examples=300, deadline=None)
@given(t=st.one_of(
           arrays(np.float64, st.integers(0, 50),
                  elements=st.one_of(st.floats(-1.0, 1.0), _SPECIAL)),
           arrays(np.float64, st.integers(1, 50),
                  elements=st.floats(-_EDGE, _EDGE))),
       beta=st.sampled_from([1.5, 2.0, 8.0]))
def test_well_matches_reference(t, beta):
    # inside +-_EDGE the well skips its clip and works on t itself, which it
    # must leave as it was
    params = ModelParams.create(beta=beta, gamma=1e-2)
    before = t.tobytes()
    f, fp = _well(t, params)
    ref_f, ref_fp = ref_well(t, params)
    assert t.tobytes() == before
    assert f.tobytes() == ref_f.tobytes()
    assert fp.tobytes() == ref_fp.tobytes()


@settings(max_examples=300, deadline=None)
@given(t=st.one_of(
           st.floats(-1.0 - 2e-12, 1.0 + 2e-12),
           arrays(np.float64, st.tuples(st.integers(0, 6), st.integers(1, 8)),
                  elements=st.one_of(
                      st.floats(-1.0, 1.0), _SPECIAL,
                      st.floats(1.0, 1.0 + 1e-12, exclude_min=True),
                      st.floats(-1.0 - 1e-12, -1.0, exclude_max=True)))),
       beta=st.sampled_from([1.5, 2.0, 8.0]))
def test_eval_F_matches_reference(t, beta):
    # eval_F takes the extremes from its domain check and skips the slope;
    # samples within 1e-12 beyond a face are snapped onto it, in a copy
    params = ModelParams.create(beta=beta, gamma=1e-2)
    before = np.asarray(t).tobytes()
    try:
        ref = ref_eval_F(t, params)
    except DomainError:
        with pytest.raises(DomainError):
            eval_F(t, params)
        return
    got = eval_F(t, params)
    assert np.asarray(t).tobytes() == before
    assert type(got) is type(ref)
    assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()


@settings(max_examples=300, deadline=None)
@given(y=arrays(np.float64, st.integers(1, 50), elements=st.one_of(
           st.floats(-3.0, 3.0), st.floats(-1.0, 1.0), _SPECIAL,
           st.floats(_EDGE, 1.0, exclude_min=True),
           st.floats(-1.0, -_EDGE, exclude_max=True))),
       mean=st.one_of(st.sampled_from(_MEANS), st.floats(-1.0, 1.0)),
       beta=st.sampled_from([1.5, 2.0, 8.0]))
def test_descent_well_entry_matches_reference(y, mean, beta):
    # the descent's well entry on a projected candidate, with the
    # projection's extremes passed in and the slope finished only after a
    # second candidate's pass; candidates hold samples on +-1 and strictly
    # inside (_EDGE, 1)
    params = ModelParams.create(beta=beta, gamma=1e-2)
    if mean is None:
        x, lo, hi = _project_box(y)
    else:
        x, lo, hi = _project_mean_box(y, mean)
    before = x.tobytes()
    f, diff, s = _well_parts(x, lo, hi, params)
    other = x[::-1].copy()
    other_f, other_diff, other_s = _well_parts(other, lo, hi, params)
    fp = _finish_slope(diff, s, params)
    other_fp = _finish_slope(other_diff, other_s, params)
    assert x.tobytes() == before
    for t, got in ((x, (f, fp)), (other, (other_f, other_fp))):
        ref = ref_well(t, params)
        assert got[0].tobytes() == ref[0].tobytes()
        assert got[1].tobytes() == ref[1].tobytes()
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(got, _well(t, params)))


@settings(max_examples=300, deadline=None)
@given(y=arrays(np.float64, st.integers(1, 80), elements=st.one_of(
           st.floats(-3.0, 3.0), st.floats(-1.0, 1.0), _SPECIAL)),
       mean=st.one_of(st.sampled_from(_MEANS), st.floats(-1.0, 1.0)))
def test_projections_match_reference(y, mean):
    if mean is None:
        x, lo, hi = _project_box(y)
        ref_x, ref_inside = ref_project_box(y)
        assert x.tobytes() == ref_x.tobytes()
        assert (lo, hi) == (x.min(), x.max())
        assert (hi < 1.0 and lo > -1.0) == ref_inside
    else:
        x, lo, hi = _project_mean_box(y, mean)
        check_mean_projection(y, mean, x, lo, hi)
        assert (np.max(np.abs(x - ref_project_mean_box(y, mean)))
                <= knot_bound(y.size, y))


@settings(max_examples=300, deadline=None)
@given(phi=arrays(np.float64, st.integers(1, 60), elements=st.one_of(
           st.floats(-1.0, 1.0), _SPECIAL)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_residuals_match_reference(phi, seed):
    g = np.random.default_rng(seed).normal(size=phi.size)
    for new, ref in ((_projected_grad_norm, ref_projected_grad_norm),
                     (_mean_slice_grad_norm, ref_mean_slice_grad_norm)):
        assert new(phi, g).hex() == ref(phi, g).hex()
