"""The closed form e(h) on arrays against its float calls and the earlier
float-only implementation, and the scans that use it against the per-h
loops they replaced.

The references below are the earlier implementations, kept verbatim as
oracles: ``_one_minus_tanhc`` and ``energy_per_length`` took one float h
(``math.tanh`` above the switch, the atoms summed by ``math.fsum``), and
``eh_curve`` and ``check_eh_bounds`` called them once per sample. Floats
and arrays now run one code path, so an array entry must equal its float
call bit for bit; against the float-only oracle the bound is ``_REL``, and
the curve and the certificate must match the loops by hex.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from froth1d.certificates import Certificate
from froth1d.errors import (CertificateFailure, DomainError, Froth1dError,
                            ValidationError)
from froth1d.model import KacMeasure, ModelParams
from froth1d.sharp import (_BOUNDS_SAMPLES, _C_MAX, _C_MIN, _HIGH_BOUNDARIES,
                           _LOW_BOUNDARIES, _TANHC_LEVELS, _TANHC_SWITCH,
                           EhCurve, _one_minus_tanhc, check_eh_bounds,
                           eh_curve, eh_derivative, energy_per_length,
                           optimal_h)

# ---------------------------------------------------------------------------
# references


def ref_one_minus_tanhc(x: float) -> float:
    if x >= _TANHC_SWITCH:
        return 1.0 - math.tanh(x) / x
    y = x * x
    d = 2.0 * _TANHC_LEVELS + 1.0
    for k in range(_TANHC_LEVELS - 1, 0, -1):
        d = 2.0 * k + 1.0 + y / d
    q = y / d
    return q / (1.0 + q)


def ref_energy_per_length(params, h, gamma=None):
    if h <= 0:
        raise DomainError(f"h must be positive, got {h}")
    gamma = params.gamma if gamma is None else gamma
    tau = params.require_tau()
    m2 = params.m_beta ** 2
    meas = params.measure
    lr = math.fsum(w / a * ref_one_minus_tanhc(0.5 * a * gamma * h)
                   for w, a in meas.atoms)
    return tau / h + meas.lam * m2 * lr


def ref_eh_curve(params, gamma=None, n_samples=200, span=(0.02, 50.0)):
    if n_samples < 1:
        raise ValidationError("n_samples must be at least 1")
    if not 0.0 < span[0] < span[1]:
        raise ValidationError(f"span must satisfy 0 < low < high, got {span}")
    gamma = params.gamma if gamma is None else gamma
    h_star, e_star, h_asym, e_asym = optimal_h(params, gamma)
    h = np.geomspace(span[0] * h_star, span[1] * h_star, n_samples)
    e = np.array([energy_per_length(params, hh, gamma) for hh in h])
    return EhCurve(gamma=gamma, tau=params.require_tau(), h=h, e=e,
                   h_star=h_star, e_star=e_star,
                   h_star_asym=h_asym, e_star_asym=e_asym)


def ref_check_eh_bounds(params, gamma=None):
    gamma = params.gamma if gamma is None else gamma
    h_star, e_star, _, _ = optimal_h(params, gamma)
    if h_star < 10.0:
        raise ValidationError("check_eh_bounds needs h* >= 10 (gamma too large)")
    hgrid = np.geomspace(1.0, 100.0 / gamma, _BOUNDS_SAMPLES)
    e_vals = np.array([energy_per_length(params, h, gamma) for h in hgrid])
    de_vals = np.array([abs(eh_derivative(params, h, gamma)) for h in hgrid])
    diff = e_vals - e_star
    last_err = "no candidate regime boundaries admitted positive constants"
    for cp in _LOW_BOUNDARIES:
        for Cp in _HIGH_BOUNDARIES:
            lowshape = np.where(
                hgrid <= cp * h_star, 1.0 / hgrid,
                np.where(hgrid >= Cp / gamma, 1.0,
                         gamma ** 2 * (hgrid - h_star) ** 2))
            upshape = np.where(
                hgrid <= cp * h_star, hgrid ** -2.0,
                np.where(hgrid >= Cp / gamma, gamma ** -1.0 * hgrid ** -2.0,
                         gamma ** 2 * np.abs(hgrid - h_star)))
            # the middle-regime shapes vanish at h = h*; both sides do there
            ok = lowshape > 0.0
            c_fit = float(np.min(diff[ok] / lowshape[ok]))
            okd = upshape > 0.0
            C_fit = float(np.max(de_vals[okd] / upshape[okd]))
            if c_fit >= _C_MIN and C_fit <= _C_MAX:
                return Certificate(
                    name="eh_bounds", lhs=c_fit, rhs=0.0, slack=c_fit,
                    passed=True,
                    params={"c": c_fit, "C": C_fit, "c_prime": cp,
                            "C_prime": Cp, "gamma": gamma, "h_star": h_star,
                            "n_samples": _BOUNDS_SAMPLES})
            last_err = (f"c={c_fit:.3e}, C={C_fit:.3e} outside "
                        f"[{_C_MIN:.0e}, {_C_MAX:.0e}] at c'={cp}, C'={Cp}")
    raise CertificateFailure(last_err)


# ---------------------------------------------------------------------------
# helpers

# relative bound against the float-only references, fixed before running:
# one ulp between np.tanh and math.tanh, plus the atoms summed in order
# against math.fsum
_REL = 4.0 * np.finfo(float).eps


def _close(got, want):
    """Entries of ``got`` within ``_REL`` of the floats ``want``."""
    got, want = np.asarray(got), np.asarray(want)
    return bool(np.all(np.abs(got - want) <= _REL * np.abs(want)))


def _hex(x):
    """Floats by their bits, arrays entry by entry, anything else as is."""
    if isinstance(x, np.ndarray):
        return [float(v).hex() for v in x.tolist()]
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, dict):
        return {k: _hex(v) for k, v in x.items()}
    return x


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except Froth1dError as err:
        return ("raised", type(err).__name__, str(err))
    return {k: _hex(v) for k, v in vars(out).items()}


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
    assert _close(got, [ref_one_minus_tanhc(v) for v in x])


@settings(max_examples=150, deadline=None)
@given(measure=measures(), tau=st.floats(0.05, 1.0),
       gamma=st.floats(1e-8, 0.19),
       h=st.lists(st.floats(1e-3, 1e9), min_size=1, max_size=30))
def test_energy_per_length_array_is_the_float_path(measure, tau, gamma, h):
    params = _model(measure, tau)
    harr = np.array(h)
    got = energy_per_length(params, harr, gamma)
    assert [energy_per_length(params, v, gamma).hex() for v in h] == _hex(got)
    assert _close(got, [ref_energy_per_length(params, v, gamma) for v in h])
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
    assert _close(got, [ref_energy_per_length(params, v, gamma)
                        for v in h.tolist()])


@settings(max_examples=40, deadline=None)
@given(measure=measures(), tau=st.floats(0.05, 1.0),
       gamma=st.floats(1e-5, 0.1), n=st.integers(1, 300),
       span=st.tuples(st.floats(0.01, 0.9), st.floats(1.1, 80.0)))
def test_eh_curve_matches_reference(measure, tau, gamma, n, span):
    params = _model(measure, tau)
    assert _outcome(eh_curve, params, gamma, n, span) == _outcome(
        ref_eh_curve, params, gamma, n, span)


@settings(max_examples=40, deadline=None)
@given(measure=measures(), tau=st.floats(0.05, 1.0),
       gamma=st.floats(1e-5, 0.05))
@example(measure=KacMeasure(atoms=((1.0, 1.0),)), tau=0.19762754872186078,
         gamma=1e-2)
@example(measure=KacMeasure(atoms=((0.5, 1.0), (0.3, 2.0), (0.2, 0.5))),
         tau=0.2, gamma=1e-2)
def test_check_eh_bounds_matches_reference(measure, tau, gamma):
    params = _model(measure, tau)
    assert _outcome(check_eh_bounds, params, gamma) == _outcome(
        ref_check_eh_bounds, params, gamma)


@pytest.mark.parametrize("h", [[1.0, 0.0], [2.0, -1.0, 3.0], [math.nan],
                               [5.0, math.nan], [-math.inf]])
def test_array_with_a_bad_h_raises(params_tau, h):
    with pytest.raises(DomainError):
        energy_per_length(params_tau, np.array(h))
    with pytest.raises(DomainError):
        eh_derivative(params_tau, np.array(h))
