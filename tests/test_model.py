import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

from froth1d.energy import _quadratic_form
from froth1d.errors import DomainError, SubcriticalError, ValidationError
from froth1d.model import (KacMeasure, ModelParams, ShortRangeKernel,
                           _check_domain, _well, eval_F, eval_F_double_prime, eval_F_prime,
                           eval_tilde_F, rp_spectrum_check, solve_m_beta,
                           v_prime_at_zero)


def bisect_m(beta_j0, tol=1e-12):
    """Independent oracle: plain bisection on m - tanh(beta_j0 m)."""
    lo, hi = 1e-8, 1.0 - 1e-12
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid - math.tanh(beta_j0 * mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestSolveMBeta:
    def test_reference_value(self):
        m = solve_m_beta(2.0)
        assert abs(m - bisect_m(2.0)) < 1e-12
        assert abs(m - 0.957504) < 1e-5
        assert abs(m - math.tanh(2.0 * m)) <= 1e-12

    def test_critical_raises(self):
        with pytest.raises(SubcriticalError):
            solve_m_beta(1.0)

    def test_deep_quench(self):
        m = solve_m_beta(10.0)
        assert abs(m - 0.99999999589) < 1e-9

    @given(st.floats(min_value=1.01, max_value=50.0))
    @settings(max_examples=40, deadline=None)
    def test_residual_property(self, bj):
        m = solve_m_beta(bj)
        # the root is strictly below 1 but rounds to 1.0 for bj >~ 19
        assert 0.0 < m <= 1.0
        assert abs(m - math.tanh(bj * m)) <= 1e-12


class TestPotentials:
    def test_F_at_minimum(self, params):
        assert eval_F(params.m_beta, params) == pytest.approx(0.0, abs=1e-14)
        assert eval_F(-params.m_beta, params) == pytest.approx(0.0, abs=1e-14)

    def test_F_at_zero(self, params):
        # direct evaluation of a(0) - a(m_beta)
        m = params.m_beta
        a0 = math.log(0.5) / params.beta
        am = -0.5 * m * m + ((1 + m) / 2 * math.log((1 + m) / 2)
                             + (1 - m) / 2 * math.log((1 - m) / 2)) / params.beta
        assert params.f0 == pytest.approx(a0 - am, abs=1e-14)
        assert params.f0 == pytest.approx(0.16327, abs=2e-5)

    def test_F_finite_at_boundary(self, params):
        assert np.isfinite(eval_F(1.0, params))
        assert np.isfinite(eval_F(-1.0, params))

    def test_F_domain_error(self, params):
        with pytest.raises(DomainError):
            eval_F(1.5, params)
        with pytest.raises(DomainError):
            eval_tilde_F(-1.01, params)

    @pytest.mark.parametrize("evaluate", [eval_F, eval_F_prime])
    def test_domain_shared_by_F_and_slope(self, params, evaluate):
        # eval_F_prime used to clamp 2.0 to the clip edge and return 6.08
        for t in (1.0 + 1e-9, -1.0 - 1e-9, 2.0, [0.5, 1.0 + 1e-9]):
            with pytest.raises(DomainError):
                evaluate(t, params)
        t = np.concatenate([np.linspace(-1.0, 1.0, 41), EDGE_POINTS])
        F, F_prime = _well(t, params)
        assert eval_F(t, params).tobytes() == F.tobytes()
        assert eval_F_prime(t, params).tobytes() == F_prime.tobytes()

    @pytest.mark.parametrize("evaluate", [eval_F, eval_F_prime, eval_tilde_F])
    def test_nan_is_outside_the_domain(self, params, evaluate):
        # np.abs(nan) > 1 + 1e-12 is False: the domain check used to let
        # NaN through, and each evaluator returned nan
        for t in (math.nan, [0.5, math.nan], np.full((2, 2), math.nan)):
            with pytest.raises(DomainError):
                evaluate(t, params)

    def test_domain_copies_only_to_snap(self):
        t = np.array([-1.0, 0.25, 1.0])
        inside, lo, hi = _check_domain(t)
        assert inside is t and (lo, hi) == (-1.0, 1.0)
        near = np.array([-1.0 - 1e-13, 0.25, 1.0 + 1e-13])
        snapped, lo, hi = _check_domain(near)
        assert snapped is not near and near[0] < -1.0
        assert snapped.tolist() == t.tolist() and (lo, hi) == (-1.0, 1.0)
        assert _check_domain([])[1:] == (0.0, 0.0)

    def test_tilde_F_values(self, params):
        assert eval_tilde_F(params.m_beta, params) == pytest.approx(0.0, abs=1e-15)
        assert eval_tilde_F(0.0, params) == pytest.approx(params.f0 / 2, rel=1e-12)
        m = params.m_beta
        expect = params.f0 / (2 * m * m) * (0.5 - m) ** 2
        assert eval_tilde_F(0.5, params) == pytest.approx(expect, rel=1e-12)

    def test_well_inequalities_on_grid(self, params):
        # F >= 0, even, F~ <= F/2, and the quadratic lower bound
        t = np.linspace(-1.0, 1.0, 10_000)
        F = eval_F(t, params)
        Ft = eval_tilde_F(t, params)
        assert np.all(F >= -1e-15)
        assert np.max(np.abs(F - F[::-1])) < 1e-14
        assert np.min(F / 2 - Ft) >= -1e-14
        m = params.m_beta
        quad = params.f0 / m ** 2 * (np.abs(t) - m) ** 2
        assert np.min(F - quad) >= -1e-12

    def test_curvature_gap(self, params):
        h = 1e-5
        m = params.m_beta
        fpp = (eval_F(m + h, params) - 2 * eval_F(m, params)
               + eval_F(m - h, params)) / h ** 2
        assert fpp > 2 * params.f0 / m ** 2
        assert fpp == pytest.approx(eval_F_double_prime(m, params), rel=1e-5)


def xlogy_F(t, params):
    """F(t) = a(t) - a(m_beta) through the xlogy form of the entropy."""
    def a(t):
        p, q = (1.0 + t) / 2.0, (1.0 - t) / 2.0
        entropy = xlogy(p, p) + xlogy(q, q)
        return -0.5 * params.kernel.j0_hat * t * t + entropy / params.beta
    return a(t) - a(params.m_beta)


def arctanh_F_prime(t, params):
    """-J0_hat t + arctanh(t)/beta clamped at |t| = 1 - 1e-12, and the larger
    of its two terms (the scale its rounding is measured on)."""
    t = np.clip(t, -1.0 + 1e-12, 1.0 - 1e-12)
    slope, bond = np.arctanh(t) / params.beta, params.kernel.j0_hat * t
    return slope - bond, np.maximum(np.abs(slope), np.abs(bond))


# +-(1 - 10^-k), k = 1..16, and +-1 itself
EDGE_POINTS = np.concatenate([1.0 - 10.0 ** -np.arange(1, 17.0),
                              -(1.0 - 10.0 ** -np.arange(1, 17.0)),
                              [1.0, -1.0]])


class TestWellKernel:
    """``_well`` (one log1p pair per sample) against the xlogy/arctanh forms."""

    @given(beta=st.floats(0.6, 25.0), j0=st.floats(0.5, 2.0),
           t=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_matches_xlogy_and_arctanh(self, beta, j0, t):
        assume(beta * j0 > 1.01)
        params = ModelParams.create(
            beta=beta, kernel=ShortRangeKernel.default_quartic(j0))
        t = np.concatenate([t, EDGE_POINTS, [params.m_beta, -params.m_beta]])
        F, F_prime = _well(t, params)
        assert np.max(np.abs(F - xlogy_F(t, params))) <= 1e-15
        assert np.all(F >= -1e-15)
        # exact at the faces and at the minima
        at_face = math.log(2.0) / beta - 0.5 * j0 - params._a_min
        assert F[-4] == F[-3] == at_face
        assert F[-2] == F[-1] == 0.0
        ref, scale = arctanh_F_prime(t, params)
        assert np.all(np.abs(F_prime - ref) <= 4 * np.spacing(scale))
        # the public evaluators wrap the kernel
        assert np.array_equal(eval_F(t, params), F)
        assert np.array_equal(eval_F_prime(t, params), F_prime)

    def test_scalar_and_shape(self, params):
        assert isinstance(eval_F(0.3, params), float)
        assert isinstance(eval_F_prime(0.3, params), float)
        t = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        assert eval_F(t, params).shape == (3, 4)
        assert np.array_equal(eval_F_prime(t, params).ravel(),
                              _well(t.ravel(), params)[1])


class TestKacMeasure:
    def test_v_single_atom(self):
        meas = KacMeasure(atoms=((1.0, 1.0),), lam=1.0)
        assert meas.v(0.0) == pytest.approx(1.0)
        assert meas.v(1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_v_mixture(self):
        meas = KacMeasure(atoms=((0.5, 1.0), (0.5, 2.0)), lam=2.0)
        expect = 2 * (0.5 * math.exp(-0.5) + 0.5 * math.exp(-1.0))
        assert meas.v(0.5) == pytest.approx(expect, rel=1e-14)
        # per-atom summation oracle
        x = np.linspace(-3, 3, 101)
        direct = sum(2.0 * w * np.exp(-a * np.abs(x)) for w, a in meas.atoms)
        assert np.max(np.abs(meas.v(x) - direct)) < 1e-14

    def test_v_even_decreasing(self):
        meas = KacMeasure(atoms=((0.3, 1.0), (0.7, 4.0)), lam=1.5)
        x = np.linspace(0.0, 10.0, 300)
        vals = meas.v(x)
        assert np.all(np.diff(vals) < 0)
        assert np.max(np.abs(meas.v(-x) - vals)) < 1e-15

    def test_v_prime_at_zero(self):
        assert v_prime_at_zero(KacMeasure(atoms=((1.0, 1.0),), lam=1.0)) == 1.0
        meas = KacMeasure(atoms=((0.5, 1.0), (0.5, 3.0)), lam=1.0)
        assert v_prime_at_zero(meas) == pytest.approx(2.0)
        meas2 = KacMeasure(atoms=((1.0, 0.5),), lam=2.0)
        assert v_prime_at_zero(meas2) == pytest.approx(1.0)

    def test_weight_validation(self):
        with pytest.raises(ValidationError):
            KacMeasure(atoms=((1.1, 1.0), (-0.1, 2.0)), lam=1.0)
        with pytest.raises(ValidationError):
            KacMeasure(atoms=((0.5, 1.0), (0.6, 2.0)), lam=1.0)

    def test_rp_spectrum(self):
        meas = KacMeasure(atoms=((1.0, 1.0),), lam=1.0)
        cert = rp_spectrum_check(meas, [0.0, 1.0, 10.0])
        assert cert.passed
        assert meas.v_hat(0.0) == pytest.approx(2.0)
        two = KacMeasure(atoms=((0.5, 1.0), (0.5, 2.0)), lam=1.0)
        assert rp_spectrum_check(two, np.linspace(0, 50, 100)).passed

    def test_rp_spectrum_is_strict(self):
        # a vanishing rate: v_hat underflows to 0 at k = 1e3 and is the
        # least positive doubles at k = 1; 0 is not positive
        tiny = KacMeasure(atoms=((1.0, 5e-324),))
        zero = rp_spectrum_check(tiny, [1.0, 1e3])
        assert zero.lhs == 0.0 and zero.params["k_worst"] == 1e3
        assert not zero.passed and not zero.to_dict()["pass"]
        positive = rp_spectrum_check(tiny, [1.0])
        assert 0.0 < positive.lhs < 1e-300 and positive.passed


class TestKernelAndParams:
    def test_default_kernel_normalization(self):
        k = ShortRangeKernel.default_quartic(1.0)
        x = np.linspace(-1, 1, 200_001)
        assert np.trapezoid(k(x), x) == pytest.approx(1.0, abs=1e-9)
        assert k(1.2) == 0.0
        assert k(0.5) == k(-0.5)

    def test_subcritical_params(self):
        with pytest.raises(SubcriticalError):
            ModelParams.create(beta=0.9)

    def test_from_dict_validation(self):
        good = {"beta": 2.0, "J0_hat": 1.0, "lambda": 1.0,
                "measure": [{"weight": 1.0, "alpha": 1.0}], "gamma": 0.01}
        p = ModelParams.from_dict(good, pointer="/model")
        assert p.m_beta == pytest.approx(solve_m_beta(2.0))
        bad = dict(good)
        del bad["beta"]
        with pytest.raises(ValidationError) as err:
            ModelParams.from_dict(bad, pointer="/model")
        assert "/model/beta" in str(err.value)
        bad2 = dict(good, measure=[{"weight": -0.1, "alpha": 1.0},
                                   {"weight": 1.1, "alpha": 2.0}])
        with pytest.raises(ValidationError) as err:
            ModelParams.from_dict(bad2, pointer="/model")
        assert "weight" in str(err.value)

    def test_equal_documents_give_equal_params(self):
        doc = {"beta": 2.0, "J0_hat": 1.3, "lambda": 1.0, "gamma": 0.01,
               "measure": [{"weight": 0.5, "alpha": 1.0},
                           {"weight": 0.5, "alpha": 3.0}]}
        p, q = ModelParams.from_dict(doc), ModelParams.from_dict(doc)
        assert p == q and hash(p) == hash(q)
        assert p != ModelParams.from_dict(dict(doc, J0_hat=1.2))
        # so the per-grid data of the quadratic form is built once
        before = _quadratic_form.cache_info()
        assert _quadratic_form(p, 0.01, 37, 1.0 / 16.0, "open") is \
            _quadratic_form(q, 0.01, 37, 1.0 / 16.0, "open")
        after = _quadratic_form.cache_info()
        assert after.hits - before.hits == 1
        assert after.misses - before.misses == 1

    def test_custom_evaluator_compares_by_identity(self):
        def bump(x):
            x = np.asarray(x, dtype=float)
            return np.where(np.abs(x) <= 1.0, 1.0 - x * x, 0.0) * 0.75
        k = ShortRangeKernel(evaluator=bump, j0_hat=1.0)
        assert k == ShortRangeKernel(evaluator=bump, j0_hat=1.0)
        assert k != ShortRangeKernel(evaluator=lambda x: bump(x), j0_hat=1.0)

    def test_tau_guard(self, params):
        with pytest.raises(ValidationError):
            params.require_tau()
        assert params.with_tau(0.2).require_tau() == 0.2
