"""The descent, its projections, the well and the residuals against oracles
that share no code with the library.

Every projection a descent makes is checked as it is made: on the box it
must be ``np.clip(y, -1, 1)`` exactly, on the mean slice it must meet the
KKT conditions of the projection (``direct_oracles.check_mean_projection``),
and a slice projection on its own must also agree with the knot formula
(``ref_project_mean_box``) to the bound a rounding analysis gives. A
descent's carried energy must be the O(N^2) direct sum of its profile
(``direct_oracles.dense_energy``), its trace must never rise, its samples
must stay in the box, and its residual must be that of the direct gradient
(``direct_oracles.dense_gradient``) to rounding. The well F and its slope F'
are checked per sample against ``math.log1p`` and ``math.atanh``, within a
few ulp of their terms, and the two residuals against per-sample loops of
their definitions, exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import froth1d.minimize as minimize_module
from direct_oracles import (check_mean_projection, dense_energy,
                            dense_gradient, knot_bound, pair_scale,
                            projected_residual_direct, ref_project_mean_box,
                            slice_residual_direct, slope_direct, well_direct)
from froth1d.energy import _quadratic_form
from froth1d.errors import DomainError, LineSearchFailure
from froth1d.minimize import (MinimizeOptions, _descend,
                              _mean_slice_grad_norm, _project_box,
                              _project_mean_box, _projected_grad_norm)
from froth1d.model import (_EDGE, ModelParams, _finish_slope, _well,
                           _well_parts, eval_F)
from froth1d.profiles import GridProfile

_EPS = np.finfo(float).eps
# below the normal range rounding is absolute: a few of these per operation
_FLOOR = 8.0 * np.finfo(float).smallest_subnormal

# ---------------------------------------------------------------------------
# tolerances, fixed before the runs


def _a_terms(u, params):
    """|each term| of a(u) = ((1 + u) log1p(u) + (1 - u) log1p(-u)) / (2 beta)
    - (J0_hat / 2) u^2, summed."""
    u = np.abs(np.asarray(u, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = np.where(u < 1.0, (1.0 - u) * -np.log1p(-u), 0.0)
    return ((1.0 + u) * np.log1p(u) + ent) / (2.0 * params.beta) + (
        0.5 * params.kernel.j0_hat * u * u)


def _f_bound(t, params):
    """F(t) = a(t) - a(m_beta): each term of a is formed with at most four
    roundings (log1p within an ulp, a product, a division), the three are
    summed with two and a(m_beta) likewise, the difference takes one; the
    library and the oracle each err by at most 7 u = 3.5 eps per unit of the
    terms' absolute sum, so both together by 8 eps of it."""
    return 8.0 * _EPS * (_a_terms(t, params)
                         + _a_terms(params.m_beta, params)) + _FLOOR


def _slope_bound(t, params):
    """F'(t) at s = clip(t, -_EDGE, _EDGE): the library's log1p pair has
    opposite signs, so its difference is 2 atanh(s) to three roundings of
    it, then one division, one product J0_hat s and one subtraction; the
    oracle's atanh is within an ulp, with one division, one product and one
    subtraction: 4.5 eps per unit of |atanh(s)| / beta + J0_hat |s| in all,
    taken as 8 eps."""
    s = np.clip(np.asarray(t, dtype=float), -_EDGE, _EDGE)
    return 8.0 * _EPS * (np.abs(np.arctanh(s)) / params.beta
                         + params.kernel.j0_hat * np.abs(s)) + _FLOOR


# The carried energy against the direct sums: each term of E is O(1) per
# unit length here (|F| < 1, J and v integrate to O(1), |phi| <= 1), so both
# sides round to a few eps per sample and per step, far inside 1e3 eps of
# max(1, L) for the descents below (at most 40 steps, or a few thousand
# steps that each change E by less than an ulp of it).
_ENERGY_TOL = 1e3 * _EPS


def _grad_bound(params, profile, gamma, iterations):
    """The residual from the carried gradient against the direct one.

    The terms of one entry of g sum in absolute value to at most g_scale:
    atanh(_EDGE) / beta + J0_hat for the slope and S of ``pair_scale`` for
    the pairs. The descent refreshes the gradient at every clipped candidate
    and otherwise carries it by gq -= t K d: one application of K (a band of
    2/dx + 1 terms, the chunked prefix sums with their carries, the Neumann
    rank-two terms), about 64 roundings of g_scale per iteration. The direct
    side sums n + n_out terms per entry, recursively at worst.
    """
    s, n_out = pair_scale(params, gamma, profile.dx, profile.bc)
    g_scale = math.atanh(_EDGE) / params.beta + params.kernel.j0_hat + s
    return (64.0 * (iterations + 1) + profile.n + n_out) * _EPS * g_scale


# ---------------------------------------------------------------------------
# descents

_PARAMS = ModelParams.create(beta=2.0, gamma=1e-2)
_BCS = ("periodic", "open", "neumann", "plus", "minus", "custom")
_MEANS = (None, 0.0, 0.96, -0.96, 1.0, -1.0)
# samples on a face, within 1e-12 of one (the residuals' tolerance), at the
# well's clip edge, and just inside it
_FACE_VALUES = (1.0, -1.0, 1.0 - 1e-13, -(1.0 - 1e-13), _EDGE, -_EDGE,
                1.0 - 1e-11, -(1.0 - 1e-11))


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


def _checked_descent(profile, gamma, options, mean, gradient=True):
    """A descent with every projection it makes checked as it is made: on
    the box against ``np.clip``, bit for bit, on the slice against the KKT
    oracle. Its carried energy must be the direct sum of its profile, its
    trace must not rise, its samples must lie in the box, and (with
    ``gradient``) its residual must be the direct gradient's to
    ``_grad_bound``. Returns the result and whether it raised
    ``LineSearchFailure``."""
    project_box = minimize_module._project_box
    project_slice = minimize_module._project_mean_box

    def checked_box(y):
        x, lo, hi = out = project_box(y)
        assert x.tobytes() == np.clip(y, -1.0, 1.0).tobytes()
        assert (lo, hi) == (x.min(), x.max())
        return out

    def checked_slice(y, mean):
        out = project_slice(y, mean)
        check_mean_projection(y, mean, *out)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(minimize_module, "_project_box", checked_box)
        patch.setattr(minimize_module, "_project_mean_box", checked_slice)
        try:
            res, raised = _descend(_PARAMS, profile, gamma, options,
                                   mean), False
        except LineSearchFailure as err:
            res, raised = err.result, True
    phi = res.profile.samples
    assert abs(res.energy - dense_energy(_PARAMS, res.profile, gamma)) <= (
        _ENERGY_TOL * max(1.0, profile.L))
    assert np.all(np.diff(res.trace[:, 1]) <= 0.0)
    assert np.all(np.abs(phi) <= 1.0)
    if gradient:
        g = dense_gradient(_PARAMS, res.profile, gamma)
        residual = (projected_residual_direct(phi, g) if mean is None
                    else slice_residual_direct(phi, g))
        bound = _grad_bound(_PARAMS, profile, gamma, res.iterations)
        assert abs(residual - res.grad_norm) <= bound
        if res.converged:
            assert residual <= options.grad_tol + bound
    return res, raised


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
@example(n=40, dx=1.0 / 8.0, bc="periodic", mean=None, gamma=1e-2,
         kind="wave", seed=4, max_iters=40, grad_tol=1e-3)
def test_descent_matches_reference(n, dx, bc, mean, gamma, kind, seed,
                                   max_iters, grad_tol):
    profile = _start(n, dx, bc, kind, seed)
    options = MinimizeOptions(max_iters=max_iters, grad_tol=grad_tol)
    _checked_descent(profile, gamma, options, mean)


def _wave_start(seed):
    """``TestRoundingStop``'s start: a +-m_beta two-cell wave plus noise."""
    n, dx = 192, 1.0 / 16.0
    x = (np.arange(n) + 0.5) / n
    phi = np.where(x < 0.5, _PARAMS.m_beta, -_PARAMS.m_beta)
    phi = phi + np.random.default_rng(seed).uniform(-0.03, 0.03, n)
    return GridProfile(L=n * dx, dx=dx, samples=phi - phi.mean())


@pytest.mark.parametrize("seed", [0, 2])
def test_rounding_stop_matches_reference(seed):
    # slice descents that end stationary to the rounding of E, unconverged
    options = MinimizeOptions(max_iters=5000, grad_tol=1e-12)
    res, raised = _checked_descent(_wave_start(seed), 1e-2, options, 0.0)
    assert not raised and not res.converged and res.iterations < 5000


def test_line_search_failure_matches_reference(monkeypatch):
    # the well made to point uphill: the box and the slice descent raise,
    # each with its last iterate, whose energy is still the direct sum
    def finish_uphill(diff, s, p):
        return -_finish_slope(diff, s, p)

    monkeypatch.setattr(minimize_module, "_finish_slope", finish_uphill)
    options = MinimizeOptions(max_iters=50, grad_tol=1e-12)
    profile = GridProfile.constant(0.5, L=4.0, dx=0.0625)
    res, raised = _checked_descent(profile, 1e-2, options, None,
                                   gradient=False)
    assert raised and res.iterations >= 1
    assert _checked_descent(_wave_start(0), 1e-2, options, 0.0,
                            gradient=False)[1]


# ---------------------------------------------------------------------------
# the pieces

_SPECIAL = st.sampled_from(_FACE_VALUES + (0.0, -0.0))


def _assert_well(t, f, fp, params):
    """F and F' of the samples t within their per-sample bounds."""
    t = np.asarray(t, dtype=float).ravel()
    assert np.all(np.abs(f - well_direct(t, params)) <= _f_bound(t, params))
    assert np.all(np.abs(fp - slope_direct(t, params))
                  <= _slope_bound(t, params))


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
    assert t.tobytes() == before
    assert f.shape == fp.shape == t.shape
    _assert_well(t, f, fp, params)


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
    # samples within 1e-12 beyond a face are snapped onto it, in a copy;
    # further out is outside the domain
    params = ModelParams.create(beta=beta, gamma=1e-2)
    before = np.asarray(t).tobytes()
    arr = np.asarray(t, dtype=float)
    if not np.all(np.abs(arr) <= 1.0 + 1e-12):
        with pytest.raises(DomainError):
            eval_F(t, params)
        return
    got = eval_F(t, params)
    assert np.asarray(t).tobytes() == before
    if arr.ndim:
        assert isinstance(got, np.ndarray) and got.shape == arr.shape
    else:
        assert type(got) is float
    want = well_direct(np.clip(arr, -1.0, 1.0), params)
    assert np.all(np.abs(np.ravel(got) - want)
                  <= _f_bound(np.clip(arr, -1.0, 1.0).ravel(), params))


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
    # inside (_EDGE, 1). It is the well of ``_well`` in every bit
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
        _assert_well(t, *got, params)
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(got, _well(t, params)))


@settings(max_examples=300, deadline=None)
@given(y=arrays(np.float64, st.integers(1, 80), elements=st.one_of(
           st.floats(-3.0, 3.0), st.floats(-1.0, 1.0), _SPECIAL)),
       mean=st.one_of(st.sampled_from(_MEANS), st.floats(-1.0, 1.0)))
def test_projections_match_reference(y, mean):
    if mean is None:
        x, lo, hi = _project_box(y)
        assert x.tobytes() == np.clip(y, -1.0, 1.0).tobytes()
        assert (lo, hi) == (x.min(), x.max())
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
    assert _projected_grad_norm(phi, g) == projected_residual_direct(phi, g)
    assert _mean_slice_grad_norm(phi, g) == slice_residual_direct(phi, g)
