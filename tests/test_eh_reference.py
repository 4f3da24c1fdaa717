"""The closed form e(h) against 50-digit mpmath, its array entries against
its float calls, and the scans that use it against their definitions.

Floats and arrays run one code path, so an array entry must equal its float
call bit for bit, and so must an entry of ``eh_curve``. Against mpmath, at
random h, gamma and one to three atoms, e(h) and 1 - tanh(x)/x must hold to
the relative bounds derived below. The constants c and C of
``check_eh_bounds`` must hold at every point of its grid.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from froth1d.errors import (BracketError, CertificateFailure, DomainError,
                            ValidationError)
from froth1d.model import KacMeasure, ModelParams
from froth1d.sharp import (_one_minus_tanhc, check_eh_bounds, eh_curve,
                           eh_derivative, energy_per_length, optimal_h)

_EPS = np.finfo(float).eps

# ---------------------------------------------------------------------------
# 50-digit oracles and their bounds, fixed before running


def _tanhc_mp(x):
    """1 - tanh(x)/x to 50 digits: the difference cancels about
    -2 log10(x) digits as x -> 0, so it is formed with that many more."""
    x = mpmath.mpf(x)
    if x == 0:
        return x
    lost = max(0, int(-2 * mpmath.log10(x))) if x < 1 else 0
    with mpmath.workdps(50 + lost):
        return +(1 - mpmath.tanh(x) / x)


def _eh_mp(params, h, gamma):
    """e(h) = tau/h + lam m^2 sum_k (w_k/a_k)(1 - tanh(x_k)/x_k),
    x_k = a_k gamma h / 2, at 50 digits from the float inputs."""
    meas = params.measure
    with mpmath.workdps(50):
        lr = mpmath.fsum(mpmath.mpf(w) / a * _tanhc_mp(
            mpmath.mpf(a) * gamma * h / 2) for w, a in meas.atoms)
        return (mpmath.mpf(params.tau) / h
                + meas.lam * mpmath.mpf(params.m_beta) ** 2 * lr)


# 1 - tanh(x)/x: below x = 2 a chain of positive terms, two roundings per
# level whose errors the chain damps, and q / (1 + q) with two more; above,
# tanh within an ulp, a division and the subtraction, whose cancellation
# costs at most a factor tanh(x) / (x - tanh(x)) < 1 there. 4 u either way,
# taken as 4 eps; below the normal range (x^2 < 2^-1022) rounding is
# absolute, a subnormal ulp for each of those four operations.
_TANHC_REL = 4.0 * _EPS
_TANHC_FLOOR = 4.0 * np.finfo(float).smallest_subnormal
# e(h): every term is positive, so the bound is relative to e. x = a gamma
# h / 2 takes three roundings, which 1 - tanh(x)/x (condition number at
# most 2) turns into 6 u; 4 u for the function itself, 2 for w/a times it,
# one per atom of the sum (three at most), 3 for lam m^2 times it, 2 for
# tau / h and the last sum: 20 u, taken as 16 eps.
_EH_REL = 16.0 * _EPS


def _hex(x):
    """Floats by their bits, arrays entry by entry."""
    if isinstance(x, np.ndarray):
        return [float(v).hex() for v in x.tolist()]
    return float(x).hex()


@st.composite
def measures(draw):
    """One to three atoms; weights that KacMeasure takes (fsum within 1e-12
    of 1)."""
    n = draw(st.integers(1, 3))
    raw = draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n))
    rates = draw(st.lists(st.floats(0.2, 5.0), min_size=n, max_size=n))
    w = [r / math.fsum(raw) for r in raw]
    w[-1] = 1.0 - math.fsum(w[:-1])
    return KacMeasure(atoms=tuple(zip(w, rates)),
                      lam=draw(st.floats(0.5, 2.0)))


def _model(measure, tau):
    return ModelParams.create(beta=2.0, measure=measure,
                              gamma=1e-2).with_tau(tau)


# ---------------------------------------------------------------------------
# tests


@settings(max_examples=200, deadline=None)
@given(x=st.lists(st.floats(0.0, 60.0), min_size=1, max_size=40))
@example(x=[0.0, 1e-300, 2.0, np.nextafter(2.0, 0.0), 1.0, 40.0])
def test_one_minus_tanhc_array_is_the_float_path(x):
    got = _one_minus_tanhc(np.array(x))
    assert [_one_minus_tanhc(v).hex() for v in x] == _hex(got)
    for v, g in zip(x, got.tolist()):
        want = _tanhc_mp(v)
        assert abs(g - want) <= _TANHC_REL * want + _TANHC_FLOOR, v


@settings(max_examples=150, deadline=None)
@given(measure=measures(), tau=st.floats(0.05, 1.0),
       gamma=st.floats(1e-8, 0.19),
       h=st.lists(st.floats(1e-3, 1e9), min_size=1, max_size=30))
def test_energy_per_length_array_is_the_float_path(measure, tau, gamma, h):
    params = _model(measure, tau)
    harr = np.array(h)
    got = energy_per_length(params, harr, gamma)
    assert [energy_per_length(params, v, gamma).hex() for v in h] == _hex(got)
    for v, g in zip(h, got.tolist()):
        want = _eh_mp(params, v, gamma)
        assert abs(g - want) <= _EH_REL * want, v
    # the central difference on an array is the float one entry by entry
    assert _hex(eh_derivative(params, harr, gamma)) == [
        eh_derivative(params, v, gamma).hex() for v in h]


def test_entries_across_the_switch():
    # x = a gamma h / 2 on both sides of 2 for each atom, three atoms
    measure = KacMeasure(atoms=((0.5, 1.0), (0.3, 3.0), (0.2, 0.5)))
    params = _model(measure, 0.2)
    gamma = 1e-2
    h = np.array([4.0 / (a * gamma) * s for _, a in measure.atoms
                  for s in (1.0 - 1e-16, 1.0, 1.0 + 1e-15, 0.5, 2.0)])
    got = energy_per_length(params, h, gamma)
    assert [energy_per_length(params, v, gamma).hex()
            for v in h.tolist()] == _hex(got)
    for v, g in zip(h.tolist(), got.tolist()):
        want = _eh_mp(params, v, gamma)
        assert abs(g - want) <= _EH_REL * want, v


@settings(max_examples=40, deadline=None)
@given(measure=measures(), tau=st.floats(0.05, 1.0),
       gamma=st.floats(1e-5, 0.1), n=st.integers(1, 300),
       span=st.tuples(st.floats(0.01, 0.9), st.floats(1.1, 80.0)))
def test_eh_curve_matches_reference(measure, tau, gamma, n, span):
    # log-spaced samples from span[0] h* to span[1] h*, each entry its own
    # float call, with the optimum of ``optimal_h``
    params = _model(measure, tau)
    try:
        h_star, e_star, h_asym, e_asym = optimal_h(params, gamma)
    except BracketError:
        with pytest.raises(BracketError):
            eh_curve(params, gamma, n, span)
        return
    curve = eh_curve(params, gamma, n, span)
    assert (curve.h_star, curve.e_star) == (h_star, e_star)
    assert (curve.h_star_asym, curve.e_star_asym) == (h_asym, e_asym)
    assert (curve.gamma, curve.tau) == (gamma, tau)
    assert curve.h.tobytes() == np.geomspace(span[0] * h_star,
                                             span[1] * h_star, n).tobytes()
    assert _hex(curve.e) == [energy_per_length(params, v, gamma).hex()
                             for v in curve.h.tolist()]


@settings(max_examples=40, deadline=None)
@given(measure=measures(), tau=st.floats(0.05, 1.0),
       gamma=st.floats(1e-5, 0.05))
@example(measure=KacMeasure(atoms=((1.0, 1.0),)), tau=0.19762754872186078,
         gamma=1e-2)
@example(measure=KacMeasure(atoms=((0.5, 1.0), (0.3, 2.0), (0.2, 0.5))),
         tau=0.2, gamma=1e-2)
def test_check_eh_bounds_matches_reference(measure, tau, gamma):
    # the three regimes: below c' h*, e - e* >= c / h and |e'| <= C / h^2;
    # above C'/gamma, e - e* >= c and |e'| <= C / (gamma h^2); between,
    # e - e* >= c gamma^2 (h - h*)^2 and |e'| <= C gamma^2 |h - h*|. Each
    # must hold at every point of the certificate's grid, log-spaced from 1
    # to 100/gamma, with e and e' the float calls, to the two roundings of
    # a product and a quotient
    params = _model(measure, tau)
    try:
        cert = check_eh_bounds(params, gamma)
    except (BracketError, CertificateFailure, ValidationError):
        # no optimum inside the bracket, h* < 10, or no admissible regime
        # boundaries; the explicit examples pass
        assume(False)
    p = cert.params
    c, C, cp, Cp, h_star = p["c"], p["C"], p["c_prime"], p["C_prime"], \
        p["h_star"]
    assert cert.passed and 1e-8 <= c and C <= 1e8
    e_star = optimal_h(params, gamma)[1]
    for h in np.geomspace(1.0, 100.0 / gamma, p["n_samples"]).tolist():
        diff = energy_per_length(params, h, gamma) - e_star
        slope = abs(eh_derivative(params, h, gamma))
        if h <= cp * h_star:
            low, up = 1.0 / h, h ** -2.0
        elif h >= Cp / gamma:
            low, up = 1.0, h ** -2.0 / gamma
        else:
            low, up = gamma ** 2 * (h - h_star) ** 2, gamma ** 2 * abs(
                h - h_star)
        assert c * low <= diff + 4.0 * _EPS * abs(diff)
        assert slope <= C * up + 4.0 * _EPS * slope


@pytest.mark.parametrize("h", [[1.0, 0.0], [2.0, -1.0, 3.0], [math.nan],
                               [5.0, math.nan], [-math.inf]])
def test_array_with_a_bad_h_raises(params_tau, h):
    with pytest.raises(DomainError):
        energy_per_length(params_tau, np.array(h))
    with pytest.raises(DomainError):
        eh_derivative(params_tau, np.array(h))
