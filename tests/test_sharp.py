import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from direct_oracles import tilde_v_kernel_direct
from froth1d.energy import step_dipole_energy, tilde_energy
from froth1d import sharp
from froth1d.errors import (CertificateFailure, DomainError, SignError,
                           ValidationError)
from froth1d.minimize import restart_rng
from froth1d.model import KacMeasure, ModelParams, eval_tilde_F
from froth1d.profiles import GridProfile, StepProfile
from froth1d.sharp import (_one_minus_tanhc, cell_specific_energy,
                           check_eh_bounds, chessboard_lower_bound, eh_curve,
                           eh_derivative, energy_per_length, gamma_limit_energy,
                           golden_section, optimal_h, tilde_v_kernel)
from froth1d.verify import random_in_k_step


class TestEnergyPerLength:
    def test_large_h_limit(self, params_tau):
        # e(h) -> lam m^2 sum w/alpha as h -> infinity
        val = energy_per_length(params_tau, 1e12)
        m2 = params_tau.m_beta ** 2
        assert val == pytest.approx(m2, rel=1e-9)
        assert val == pytest.approx(0.91681 + params_tau.tau / 1e12, abs=1e-5)

    def test_unit_argument_factor(self, params_tau):
        # at alpha gamma h / 2 = 1 the long-range factor is 1 - tanh(1)
        gamma = 1e-2
        h = 2.0 / gamma
        val = energy_per_length(params_tau, h)
        m2 = params_tau.m_beta ** 2
        expect = params_tau.tau / h + m2 * (1.0 - np.tanh(1.0))
        assert val == pytest.approx(expect, rel=1e-14)
        assert 1.0 - np.tanh(1.0) == pytest.approx(0.23841, abs=1e-5)

    def test_small_h_dominated_by_tau(self, params_tau):
        for h in (1e-3, 1e-5):
            assert h * energy_per_length(params_tau, h) == pytest.approx(
                params_tau.tau, rel=1e-4)

    def test_domain_error(self, params_tau):
        with pytest.raises(DomainError):
            energy_per_length(params_tau, 0.0)

    def test_infinite_and_huge_h(self, params_tau):
        # e(inf) is the limit lam m^2 sum w/alpha, and so is e(1e300), whose
        # x^2 would overflow; e'(h) rejects a non-finite h before it forms
        # h +- d
        meas = params_tau.measure
        limit = meas.lam * params_tau.m_beta ** 2 * sum(
            w / a for w, a in meas.atoms)
        for h in (math.inf, 1e300):
            assert energy_per_length(params_tau, h) == \
                pytest.approx(limit, rel=1e-15)
        for h in (math.inf, -math.inf, np.array([10.0, math.inf])):
            with pytest.raises(DomainError, match="finite"):
                eh_derivative(params_tau, h)


class TestLongRangeAccuracy:
    """1 - tanh(x)/x and the long-range part of e(h) against 50 digits."""

    @staticmethod
    def _reference(x):
        with mpmath.workdps(50):
            x = mpmath.mpf(x)
            return 1 - mpmath.tanh(x) / x

    def test_one_minus_tanhc(self):
        xs = np.concatenate([np.geomspace(1e-6, 10.0, 300),
                             np.linspace(1.9, 2.1, 41)])
        for x in xs:
            ref = self._reference(x)
            assert abs(_one_minus_tanhc(x) - ref) <= 1e-15 * ref, x

    @pytest.mark.parametrize("gamma", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_long_range_part_at_h_star(self, params_tau, two_atom_params,
                                       gamma):
        # with tau = 0, e(h) is its long-range part alone
        for params in (params_tau, two_atom_params.with_tau(params_tau.tau)):
            params = params.with_gamma(gamma)
            h = optimal_h(params)[0]
            lr = energy_per_length(dataclasses.replace(params, tau=0.0), h)
            meas = params.measure
            with mpmath.workdps(50):
                ref = meas.lam * mpmath.mpf(params.m_beta) ** 2 * mpmath.fsum(
                    mpmath.mpf(w) / a * self._reference(
                        mpmath.mpf(a) * gamma * h / 2)
                    for w, a in meas.atoms)
                assert abs(lr - ref) <= 1e-15 * ref


class TestOptimalH:
    def test_asymptotic_values_unit_parameters(self):
        # tau = m_beta-proxy = |v'(0+)| = 1 evaluated from the leading law
        gamma = 1e-3
        h_asym = (6.0) ** (1.0 / 3.0) * gamma ** (-2.0 / 3.0)
        e_asym = (9.0 / 16.0) ** (1.0 / 3.0) * gamma ** (2.0 / 3.0)
        assert h_asym == pytest.approx(181.71, abs=1e-2)
        assert e_asym == pytest.approx(8.2548e-3, abs=1e-6)

    def test_scaling_with_gamma(self, params_tau):
        h1 = optimal_h(params_tau.with_gamma(2e-3))[0]
        h2 = optimal_h(params_tau.with_gamma(1e-3))[0]
        assert h2 / h1 == pytest.approx(2.0 ** (2.0 / 3.0), rel=5e-2)

    def test_matches_asymptotics_at_small_gamma(self, params_tau):
        for gamma in (1e-3, 1e-4):
            h, e, ha, ea = optimal_h(params_tau.with_gamma(gamma))
            assert abs(h / ha - 1.0) <= 5.0 * gamma ** (2.0 / 3.0)
            assert abs(e / ea - 1.0) <= 5.0 * gamma ** (2.0 / 3.0)

    @pytest.mark.parametrize("atoms", [((1.0, 1.0),),
                                       ((0.5, 1.0), (0.3, 2.0), (0.2, 0.5))])
    def test_approach_to_the_asymptotic_law(self, params_tau, atoms):
        # e(h) to order h^6 (1 - tanh(y)/y = y^2/3 - 2 y^4/15 + 17 y^6/315)
        # gives, with eps = gamma^(2/3), Sk = sum w a^k and
        # H = (6 tau / (lambda m_beta^2 S1))^(2/3), c1 = H S3 / (15 S1) and
        # t = (17/1680) (S5/S1) H^2:
        #   h*/h_asym = 1 + c1 eps + (4 c1^2 - t) eps^2 + O(eps^3),
        #   e*/e_asym = 1 - (c1/2) eps - (c1^2 - t/3) eps^2 + O(eps^3).
        # Each tolerance bounds the eps^2 coefficient by the sum of its
        # parts' moduli, which leaves room for the eps^3 term. Golden section
        # resolves h* only where e - e* exceeds the rounding of the
        # comparison, about 4u relative; e'' h*^2 = 2 e* at leading order,
        # so h* is off by up to sqrt(4u) = sqrt(2 eps_machine) relative,
        # which the h check adds divided by eps
        params = ModelParams.create(beta=2.0, tau=params_tau.tau,
                                    measure=KacMeasure(atoms=atoms))
        meas = params.measure
        s1, s3, s5 = (float(np.sum(meas.weights * meas.rates ** k))
                      for k in (1, 3, 5))
        H = (6.0 * params.tau / (meas.lam * params.m_beta ** 2 * s1)) ** (
            2.0 / 3.0)
        c1 = H * s3 / (15.0 * s1)
        t = 17.0 / 1680.0 * s5 / s1 * H ** 2
        resolution = math.sqrt(2.0 * np.finfo(float).eps)
        for gamma in (1e-2, 1e-4, 1e-6):
            h, e, h_asym, e_asym = optimal_h(params.with_gamma(gamma))
            eps = gamma ** (2.0 / 3.0)
            assert abs((h / h_asym - 1.0) / eps - c1) <= (
                (4.0 * c1 ** 2 + t) * eps + resolution / eps)
            assert abs((1.0 - e / e_asym) / eps - c1 / 2.0) <= (
                (c1 ** 2 + t / 3.0) * eps)

    def test_gamma_range_guard(self, params_tau):
        with pytest.raises(ValidationError):
            optimal_h(params_tau.with_gamma(0.3))

    def test_equal_documents_solve_once(self):
        # a tau no other test uses, so the first call is a miss
        doc = {"beta": 2.0, "J0_hat": 1.3, "lambda": 1.0, "gamma": 0.01,
               "tau": 0.2345, "measure": [{"weight": 0.5, "alpha": 1.0},
                                          {"weight": 0.5, "alpha": 3.0}]}
        p, q = ModelParams.from_dict(doc), ModelParams.from_dict(doc)
        before = optimal_h.cache_info()
        assert optimal_h(p) is optimal_h(q)
        after = optimal_h.cache_info()
        assert after.hits - before.hits == 1
        assert after.misses - before.misses == 1

    @pytest.mark.parametrize("span", [(0.0, 50.0), (-1.0, 50.0),
                                      (60.0, 50.0), (2.0, 2.0)])
    def test_span_must_be_increasing_and_positive(self, params_tau, span):
        with pytest.raises(ValidationError, match="span"):
            eh_curve(params_tau, n_samples=10, span=span)

    def test_curve_invariants(self, params_tau):
        curve = eh_curve(params_tau, n_samples=60)
        assert np.all(curve.e > 0)
        assert curve.e_star <= np.min(curve.e) + 1e-15
        # convexity near the optimum
        sel = (curve.h > 0.5 * curve.h_star) & (curve.h < 2.0 * curve.h_star)
        e = curve.e[sel]
        assert np.all(e[2:] - 2 * e[1:-1] + e[:-2] > 0)

    def test_golden_section(self):
        # localization of a smooth minimum is sqrt(eps)-limited
        x, f = golden_section(lambda t: (t - 2.0) ** 2 + 1.0, 0.0, 5.0)
        assert x == pytest.approx(2.0, abs=1e-6)
        assert f == pytest.approx(1.0, abs=1e-12)


class TestEhBounds:
    def test_certificate_passes(self, params_tau):
        cert = check_eh_bounds(params_tau.with_gamma(1e-3))
        assert cert.passed
        assert cert.params["c"] > 0
        assert cert.params["C"] < 1e8

    def test_gamma_too_large(self, params_tau):
        with pytest.raises(ValidationError):
            check_eh_bounds(params_tau.with_gamma(0.19))

    def test_fits_c_prime_half_and_C_prime_one(self, params_tau):
        cert = check_eh_bounds(params_tau)
        assert (cert.params["c_prime"], cert.params["C_prime"]) == (0.5, 1.0)
        assert (cert.lhs, cert.rhs) == (cert.params["c"], 0.0)
        assert cert.slack == cert.params["c"] and cert.passed

    @pytest.mark.parametrize("bound,value", [("_C_MAX", 1e-3),
                                             ("_C_MIN", 1e3)])
    def test_fit_out_of_range_raises(self, params_tau, monkeypatch, bound,
                                     value):
        monkeypatch.setattr(sharp, bound, value)
        with pytest.raises(CertificateFailure,
                           match=r"^c=\S+, C=\S+ outside .* at c'=0.5, "
                                 r"C'=1.0$"):
            check_eh_bounds(params_tau)


class TestTildeVKernel:
    def test_closed_form_vs_truncated_sum(self):
        rng = restart_rng(3, 0)
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
        assert worst <= 1e-12

    def test_symmetry_and_positivity(self):
        rng = restart_rng(4, 0)
        meas = KacMeasure(atoms=((1.0, 1.0),), lam=1.0)
        for _ in range(50):
            h = rng.uniform(5.0, 200.0)
            x, y = rng.uniform(0.0, h, 2)
            a = tilde_v_kernel(h, 1e-2, x, y, meas)
            b = tilde_v_kernel(h, 1e-2, y, x, meas)
            assert a == pytest.approx(b, rel=1e-12)
            assert a > 0.0

    def test_positive_definiteness(self, params_tau):
        # discretized kernel matrix on a 64-point grid
        h = 30.0
        x = (np.arange(64) + 0.5) * (h / 64.0)
        K = tilde_v_kernel(h, 1e-2, x[:, None], x[None, :],
                           params_tau.measure)
        eigs = np.linalg.eigvalsh((K + K.T) / 2.0)
        assert eigs.min() >= -1e-10


class TestCellEnergy:
    def test_identity_with_eh(self, params_tau):
        h_star = optimal_h(params_tau)[0]
        for fac in (0.5, 1.0, 2.0, 5.0):
            h = fac * h_star
            cell = StepProfile(breakpoints=np.array([0.0, h]),
                               values=np.array([params_tau.m_beta]))
            lhs = cell_specific_energy(params_tau, cell)
            rhs = energy_per_length(params_tau, h)
            assert lhs == pytest.approx(rhs, abs=1e-8)

    @pytest.mark.parametrize("gamma,earlier", [
        (1e-2, 4.5e-15), (1e-4, 1.4e-14), (1e-6, 3.4e-12), (1e-8, 9.5e-11)])
    def test_identity_accuracy_as_gamma_vanishes(self, params_tau, gamma,
                                                 earlier):
        # the terms of the cell's quadratic form cancel to relative order
        # a h (a = gamma alpha); the earlier form, G (Sp^2 + Sq^2) against
        # 2 G E Sp Sq, cancelled to order (a h)^2 and was off by ``earlier``
        params = params_tau.with_gamma(gamma)
        h = optimal_h(params)[0]
        cell = StepProfile(breakpoints=np.array([0.0, h]),
                           values=np.array([params.m_beta]))
        e = energy_per_length(params, h)
        err = abs(cell_specific_energy(params, cell) - e) / e
        a_h = gamma * params_tau.measure.atoms[0][1] * h
        assert err <= min(2.0 * earlier, 32.0 * np.finfo(float).eps / a_h)

    def test_reduced_magnitude(self, params_tau):
        # sigma = m_bar: well term plus (m_bar/m_beta)^2-scaled long range
        from froth1d.model import eval_tilde_F
        h = 40.0
        m_bar = 0.8 * params_tau.m_beta
        cell = StepProfile(breakpoints=np.array([0.0, h]),
                           values=np.array([m_bar]))
        lhs = cell_specific_energy(params_tau, cell)
        lr = energy_per_length(params_tau, h) - params_tau.tau / h
        expect = (eval_tilde_F(m_bar, params_tau) + params_tau.tau / h
                  + (m_bar / params_tau.m_beta) ** 2 * lr)
        assert lhs == pytest.approx(expect, rel=1e-12)

    def test_sign_error(self, params_tau):
        cell = StepProfile(breakpoints=np.array([0.0, 1.0, 2.0]),
                           values=np.array([0.9, -0.9]))
        with pytest.raises(SignError):
            cell_specific_energy(params_tau, cell)

    def test_negative_cell_uses_modulus(self, params_tau):
        h = 20.0
        plus = StepProfile(breakpoints=np.array([0.0, h]),
                           values=np.array([params_tau.m_beta]))
        minus = StepProfile(breakpoints=np.array([0.0, h]),
                            values=np.array([-params_tau.m_beta]))
        assert cell_specific_energy(params_tau, minus) == \
            pytest.approx(cell_specific_energy(params_tau, plus))


class TestChessboard:
    def test_tight_on_periodic(self, params_tau):
        h_star = optimal_h(params_tau)[0]
        h = round(h_star)
        k = 6
        m = params_tau.m_beta
        s = StepProfile.from_pieces([(h, (-1.0) ** j * m) for j in range(2 * k)],
                                    periodic=True)
        bound, per = chessboard_lower_bound(params_tau, s)
        lhs = tilde_energy(params_tau, s)
        L = 2 * k * h
        assert bound == pytest.approx(L * energy_per_length(params_tau, h),
                                      rel=1e-12)
        assert abs(lhs - bound) <= 1e-6 * abs(bound)

    def test_inequality_on_random_profiles(self, params_tau):
        h_star = optimal_h(params_tau)[0]
        L = 20.0 * h_star
        from froth1d.coarsegrain import CoarseGrainConfig
        m_bar = CoarseGrainConfig().m_bar(params_tau.m_beta, params_tau.gamma)
        for k in range(25):
            rng = restart_rng(77, k)
            s = random_in_k_step(rng, L, params_tau.m_beta, m_bar, h_star)
            lhs = tilde_energy(params_tau, s)
            bound, _ = chessboard_lower_bound(params_tau, s)
            assert lhs - bound >= -1e-9 * L

    def test_single_interval(self, params_tau):
        s = StepProfile.from_pieces([(50.0, params_tau.m_beta)])
        bound, per = chessboard_lower_bound(params_tau, s)
        assert len(per) == 1
        assert bound == pytest.approx(
            50.0 * cell_specific_energy(params_tau, s), rel=1e-12)


def _gauss(a, b, panels, m=8):
    """Nodes and weights of m-point Gauss-Legendre on ``panels`` equal panels
    of [a, b] (arrays: one row per interval)."""
    t, w = np.polynomial.legendre.leggauss(m)
    e = a[:, None] + (b - a)[:, None] * np.linspace(0.0, 1.0, panels + 1)
    lo, hi = e[:, :-1, None], e[:, 1:, None]
    x = (lo + hi) / 2.0 + (hi - lo) / 2.0 * t
    return x.reshape(a.size, -1), ((hi - lo) / 2.0 * w).reshape(a.size, -1)


def quadrature_pairs(values, edges, kernel, panels):
    """sum_ij values_i values_j int int kernel(x, y) over the pieces
    [edges[j], edges[j+1]), by Gauss-Legendre over every pair of pieces. On a
    diagonal pair the inner integral is split at y = x, where the kernels
    here have their kink; everywhere else they are analytic."""
    x, wx = _gauss(edges[:-1], edges[1:], panels)
    X, Y, W = [], [], []
    for i, j in np.ndindex(values.size, values.size):
        if i != j:
            X.append(np.repeat(x[i], x[j].size))
            Y.append(np.tile(x[j], x[i].size))
            w = np.outer(wx[i], wx[j])
        else:
            # [edges[j], x] and [x, edges[j + 1]] for each outer node x
            n = x[i].size
            y, wy = _gauss(np.append(np.full(n, edges[j]), x[i]),
                           np.append(x[i], np.full(n, edges[j + 1])), panels)
            X.append(np.repeat(np.tile(x[i], 2), y.shape[1]))
            Y.append(y.ravel())
            w = np.tile(wx[i], 2)[:, None] * wy
        W.append(values[i] * values[j] * w.ravel())
    X, Y, W = (np.concatenate(v) for v in (X, Y, W))
    return float(np.sum(W * kernel(X, Y)))


def quadrature_form(values, edges, gamma, measure, panels):
    """<sigma, sigma>_{v~_h} of the step sigma = values on [edges[j],
    edges[j+1]) (edges[0] = 0, h = edges[-1]): ``quadrature_pairs`` of the
    image-sum kernel ``tilde_v_kernel_direct``. The image sum runs to
    |n| = n_max, past which its tail is below e^-45 of its terms."""
    h = edges[-1]
    a = gamma * min(alpha for _, alpha in measure.atoms)
    n_max = int(math.ceil(45.0 / (2.0 * a * h))) + 1
    return quadrature_pairs(values, edges, lambda x, y: tilde_v_kernel_direct(
        h, gamma, x, y, measure, n_max=n_max), panels)


_ONE_ATOM = ModelParams.create(beta=2.0).with_tau(0.3)
_TWO_ATOMS = ModelParams.create(
    beta=2.0, gamma=1e-2,
    measure=KacMeasure(atoms=((0.5, 1.0), (0.5, 3.0)), lam=1.0)).with_tau(0.3)
_PIECE = st.tuples(st.floats(0.5, 4.0), st.one_of(
    st.sampled_from([0.0, 1.0, _ONE_ATOM.m_beta]), st.floats(0.0, 1.0)))


def quadrature_cell_energy(params, widths, values, gamma):
    """e~_h of the one-sign cell |values| on consecutive ``widths``, its long
    range part by ``quadrature_form`` at one and at two panels per interval,
    and a tolerance: the two quadratures' difference (the error of the
    coarser one, so far above the finer one's) plus the closed form's
    rounding, whose terms cancel to relative order a h (``TestCellEnergy``)."""
    values = np.abs(np.asarray(values, dtype=float))
    edges = np.append(0.0, np.cumsum(widths))
    h = edges[-1]
    coarse, fine = (quadrature_form(values, edges, gamma, params.measure, p)
                    for p in (1, 2))
    well = float(np.sum(np.asarray(widths) * eval_tilde_F(values, params)))
    e = (well + params.tau + fine / 2.0) / h
    a_h = gamma * min(alpha for _, alpha in params.measure.atoms) * h
    eps = np.finfo(float).eps
    return e, abs(coarse - fine) / (2.0 * h) + 32.0 * eps * e / min(1.0, a_h)


class TestStepProfilesAgainstImageSum:
    """The closed-form cell energies against a quadrature of the image-sum
    kernel, on random one-sign multi-piece cells and multi-cell steps."""

    @settings(max_examples=40, deadline=None)
    @given(pieces=st.lists(_PIECE, min_size=1, max_size=5),
           sign=st.sampled_from([1.0, -1.0]),
           gamma=st.sampled_from([0.05, 0.1, 0.3]),
           two_atoms=st.booleans())
    def test_cell_specific_energy(self, pieces, sign, gamma, two_atoms):
        params = (_TWO_ATOMS if two_atoms else _ONE_ATOM).with_gamma(gamma)
        widths = [w for w, _ in pieces]
        values = [sign * v for _, v in pieces]
        cell = StepProfile(breakpoints=np.append(0.0, np.cumsum(widths)),
                           values=np.array(values))
        ref, tol = quadrature_cell_energy(params, widths, values, gamma)
        assert abs(cell_specific_energy(params, cell) - ref) <= tol

    @settings(max_examples=25, deadline=None)
    @given(runs=st.lists(st.lists(st.tuples(st.floats(0.5, 3.0),
                                            st.floats(0.05, 1.0)),
                                  min_size=1, max_size=3),
                         min_size=1, max_size=4),
           first=st.sampled_from([1.0, -1.0]),
           gamma=st.sampled_from([0.05, 0.1, 0.3]),
           bc=st.sampled_from(["open", "periodic"]), two_atoms=st.booleans())
    def test_chessboard_lower_bound(self, runs, first, gamma, bc, two_atoms):
        params = (_TWO_ATOMS if two_atoms else _ONE_ATOM).with_gamma(gamma)
        signs = [first * (-1.0) ** r for r in range(len(runs))]
        step = StepProfile.from_pieces([(w, s * v) for s, run in
                                        zip(signs, runs) for w, v in run],
                                       periodic=bc == "periodic")
        cells = [list(run) for run in runs]
        if bc == "periodic" and len(runs) > 1 and signs[0] == signs[-1]:
            # the wrapped interval, from its unwrapped left edge, comes first
            cells = [cells[-1] + cells[0]] + cells[1:-1]
        bound, per = chessboard_lower_bound(params, step)
        assert len(per) == len(cells)
        for (h, term), cell in zip(per, cells):
            widths = [w for w, _ in cell]
            e, tol = quadrature_cell_energy(params, widths,
                                            [v for _, v in cell], gamma)
            assert h == pytest.approx(sum(widths), rel=1e-14)
            assert abs(term - h * e) <= h * tol
        assert bound == pytest.approx(sum(term for _, term in per), rel=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(pieces=st.lists(st.tuples(st.floats(0.5, 4.0), st.floats(-1.0, 1.0)),
                           min_size=1, max_size=5),
           gamma=st.sampled_from([0.05, 0.1, 0.3]), two_atoms=st.booleans())
    @example(pieces=[(1.0, 1.7800929839220922e-159)], gamma=0.05,
             two_atoms=False)
    def test_periodic_step_dipole(self, pieces, gamma, two_atoms):
        # the torus closure I + 2 Sp Sq/(1 - e^{-bL}) against a quadrature
        # of (gamma/2) sum_n v(gamma(x - y + nL)) over piece pairs, the image
        # sum to |n| = n_max (tail below e^-45); the tolerance is the
        # quadratures' difference plus rounding of the |sigma| energy, which
        # is no less than the smallest normal number: below it rounding is
        # absolute (a value of 1.8e-159 gives an energy of 3.2e-318)
        params = (_TWO_ATOMS if two_atoms else _ONE_ATOM).with_gamma(gamma)
        step = StepProfile.from_pieces(pieces, periodic=True)
        values, edges, L = step.values, step.breakpoints, step.L
        n_max = int(math.ceil(45.0 / (gamma * L))) + 1

        def kernel(x, y):
            # the images from the farthest in, so that small terms come first
            d = gamma * (x - y)
            total = np.zeros_like(d)
            for n in range(n_max, 0, -1):
                total += (params.measure.v(d + n * gamma * L)
                          + params.measure.v(d - n * gamma * L))
            return total + params.measure.v(d)

        coarse, fine = (0.5 * gamma * quadrature_pairs(values, edges, kernel,
                                                      p) for p in (1, 2))
        scale = step_dipole_energy(params, StepProfile.from_pieces(
            [(w, abs(v)) for w, v in pieces], periodic=True))
        got = step_dipole_energy(params, step)
        assert abs(got - fine) <= abs(coarse - fine) + max(
            32.0 * np.finfo(float).eps * scale, np.finfo(float).tiny)


class TestGammaLimit:
    def test_square_wave_analytic(self, params_tau):
        m = params_tau.m_beta
        L0, n = 4.0, 2048
        x = (np.arange(n) + 0.5) * (L0 / n)
        u = GridProfile(L=L0, dx=L0 / n / 512 * 512,
                        samples=m * np.sign(np.sin(2 * np.pi * x / L0)),
                        bc="periodic")
        val = gamma_limit_energy(u, params_tau, constant_alpha=1.0)
        analytic = (params_tau.tau / (2 * m)) * 4 * m + L0 ** 3 * m * m / 48.0
        assert val == pytest.approx(analytic, rel=1e-4)

    def test_mean_not_zero_sentinel(self, params_tau):
        u = GridProfile.constant(params_tau.m_beta, L=4.0, dx=1.0 / 64.0,
                                 bc="periodic")
        assert gamma_limit_energy(u, params_tau) == np.inf

    def test_flip_symmetry(self, params_tau, rng):
        n = 256
        vals = rng.uniform(-0.5, 0.5, n)
        vals -= vals.mean()
        u = GridProfile(L=4.0, dx=4.0 / n, samples=vals, bc="periodic")
        v = u.with_samples(-vals)
        assert gamma_limit_energy(v, params_tau) == pytest.approx(
            gamma_limit_energy(u, params_tau), rel=1e-12)
