"""Sharp-interface machinery: e(h), the optimal period, the reflected
kernel, per-cell specific energies, the chessboard lower bound and the
rescaled limit functional.

Everything here is closed-form in the exponential atoms; the only quadrature
is the well term of a per-cell energy, and even that is exact for
piecewise-constant inputs because the bilinear form integrates the kernel
analytically over piece pairs. The chessboard bound scores all sign-run
cells of a step profile in one array pass of ``energy._cell_integrals``,
O(pieces) per atom; the certificate corpus puts the cells of many profiles
through the same pass. ``energy_per_length`` and ``eh_derivative`` take a
float or an array of h through one code path, so an array entry equals its
float call bit for bit and ``eh_curve`` and ``check_eh_bounds`` make one
call per scan; ``optimal_h`` is memoized per (params, gamma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .certificates import Certificate
from .energy import _ONE_CELL, _cell_integrals
from .errors import (BracketError, CertificateFailure, DomainError, SignError,
                     ValidationError, _check_count)
from .model import KacMeasure, ModelParams, eval_tilde_F, v_prime_at_zero
from .profiles import GridProfile, StepProfile, _step_periodic, runs

__all__ = [
    "EhCurve",
    "energy_per_length",
    "eh_derivative",
    "optimal_h",
    "eh_curve",
    "check_eh_bounds",
    "tilde_v_kernel",
    "cell_specific_energy",
    "chessboard_lower_bound",
    "gamma_limit_energy",
    "golden_section",
]

# central-difference step of eh_derivative, relative to max(1, h)
_EH_STEP = 1e-5
# golden_section stops at this bracket width relative to |a| + |b|
_GOLDEN_RTOL = 1e-10
_GOLDEN_MAX_ITER = 400
# check_eh_bounds: h samples, the regime boundaries c' h* and C' / gamma,
# and the range the fitted constants c and C must lie in
_BOUNDS_SAMPLES = 240
_C_PRIME_LOW, _C_PRIME_HIGH = 0.5, 1.0
_C_MIN, _C_MAX = 1e-8, 1e8
# gamma_limit_energy is +inf on profiles whose mean exceeds this
_MEAN_TOL = 1e-8
# 1 - tanh(x)/x: below the switch, Lambert's continued fraction to this many
# levels (exact to rounding there); above it the closed form, whose
# cancellation costs at most a factor tanh(x) / (x - tanh(x)) < 1 there
_TANHC_SWITCH = 2.0
_TANHC_LEVELS = 10
# the chain's odd numbers 2k + 1 below the innermost level, outward (exact
# as floats)
_TANHC_ODDS = tuple(2.0 * k + 1.0 for k in range(_TANHC_LEVELS - 1, 0, -1))


def _one_minus_tanhc(x):
    """1 - tanh(x)/x for x >= 0, a float or an ndarray, free of
    cancellation as x -> 0.

    Lambert's tanh x = x / (1 + x^2/(3 + x^2/(5 + ...))) gives
    1 - tanh(x)/x = q / (1 + q), q = x^2/(3 + x^2/(5 + ...)), a chain of
    positive terms. Each branch runs on x clipped to its side of the switch,
    so neither meets inf/inf, 0/0 or an overflowing x^2.
    """
    s = np.minimum(x, _TANHC_SWITCH)
    y = s * s
    d = 2.0 * _TANHC_LEVELS + 1.0
    for odd in _TANHC_ODDS:
        d = odd + y / d
    q = y / d
    b = np.maximum(x, _TANHC_SWITCH)
    out = np.where(x < _TANHC_SWITCH, q / (1.0 + q), 1.0 - np.tanh(b) / b)
    return out if out.ndim else float(out)


def energy_per_length(params: ModelParams, h, gamma: Optional[float] = None):
    """e(h) = tau/h + lambda m^2 sum_k (w_k/a_k)(1 - tanh(a_k g h/2)/(a_k g h/2)).

    ``h`` is a float or an ndarray; floats and entries run the same code, so
    an entry equals its float call bit for bit. A nonpositive or NaN h
    raises DomainError.
    """
    h = np.asarray(h, dtype=float)
    if not (h > 0.0).all():
        raise DomainError(f"h must be positive, got {h[~(h > 0.0)].flat[0]}")
    gamma = params.gamma if gamma is None else gamma
    meas = params.measure
    lr = 0.0
    for w, a in meas.atoms:
        lr = lr + w / a * _one_minus_tanhc(0.5 * a * gamma * h)
    out = params.require_tau() / h + meas.lam * params.m_beta ** 2 * lr
    return out if out.ndim else float(out)


def eh_derivative(params: ModelParams, h, gamma: Optional[float] = None):
    """e'(h) by central differences of the closed form; ``h`` as in
    ``energy_per_length``, which must also be finite here."""
    h = np.asarray(h, dtype=float)
    if not np.isfinite(h).all():
        raise DomainError(f"h must be finite, got {h[~np.isfinite(h)].flat[0]}")
    d = _EH_STEP * np.maximum(1.0, np.abs(h))
    out = (energy_per_length(params, h + d, gamma)
           - energy_per_length(params, h - d, gamma)) / (2.0 * d)
    return out if out.ndim else float(out)


def golden_section(f, a: float, b: float) -> Tuple[float, float]:
    """Minimize a unimodal function on [a, b]; returns (x_min, f(x_min))."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(_GOLDEN_MAX_ITER):
        if (b - a) <= _GOLDEN_RTOL * (abs(a) + abs(b)):
            break
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    x = 0.5 * (a + b)
    return x, f(x)


@lru_cache(maxsize=16)
def optimal_h(params: ModelParams, gamma: Optional[float] = None
              ) -> Tuple[float, float, float, float]:
    """(h*, e(h*), h*_asym, e*_asym); the asymptotics are the leading-order laws.

    Minimizes e(h) by golden section on [gamma^{-1/3}, gamma^{-1}]; raises
    BracketError if the minimum sits at a bracket end. Memoized: equal
    params and gamma are solved once per process.
    """
    gamma = params.gamma if gamma is None else gamma
    if not (0.0 < gamma < 0.2):
        raise ValidationError(f"gamma must lie in (0, 0.2), got {gamma}")
    tau = params.require_tau()
    lo, hi = gamma ** (-1.0 / 3.0), gamma ** -1.0
    h_star, e_star = golden_section(
        lambda h: energy_per_length(params, h, gamma), lo, hi)
    if h_star - lo < 1e-6 * lo or hi - h_star < 1e-6 * hi:
        raise BracketError(f"minimum of e(h) at bracket end (h={h_star:.4g})")
    vp = v_prime_at_zero(params.measure)
    m2 = params.m_beta ** 2
    h_asym = (6.0 * tau / (vp * m2)) ** (1.0 / 3.0) * gamma ** (-2.0 / 3.0)
    e_asym = (9.0 / 16.0 * tau ** 2 * m2 * vp) ** (1.0 / 3.0) * gamma ** (2.0 / 3.0)
    return h_star, e_star, h_asym, e_asym


@dataclass(frozen=True)
class EhCurve:
    """Sampled e(h) curve with its minimizer and leading-order asymptotics."""

    gamma: float
    tau: float
    h: np.ndarray
    e: np.ndarray
    h_star: float
    e_star: float
    h_star_asym: float
    e_star_asym: float

    def __post_init__(self):
        if np.any(self.e <= 0.0):
            raise ValidationError("e(h) must be positive")
        if self.e_star > np.min(self.e) + 1e-15:
            raise ValidationError("e(h*) must not exceed sampled values")


def eh_curve(params: ModelParams, gamma: Optional[float] = None,
             n_samples: int = 200, span: Tuple[float, float] = (0.02, 50.0)
             ) -> EhCurve:
    """Log-spaced samples of e(h) from span[0] h* to span[1] h*, plus the
    optimum."""
    _check_count(n_samples, "n_samples", low=1)
    if not 0.0 < span[0] < span[1]:
        raise ValidationError(f"span must satisfy 0 < low < high, got {span}")
    gamma = params.gamma if gamma is None else gamma
    h_star, e_star, h_asym, e_asym = optimal_h(params, gamma)
    h = np.geomspace(span[0] * h_star, span[1] * h_star, n_samples)
    e = energy_per_length(params, h, gamma)
    return EhCurve(gamma=gamma, tau=params.require_tau(), h=h, e=e,
                   h_star=h_star, e_star=e_star,
                   h_star_asym=h_asym, e_star_asym=e_asym)


def check_eh_bounds(params: ModelParams,
                    gamma: Optional[float] = None) -> Certificate:
    """Fit the three-regime bounds on e(h) - e(h*) and |e'(h)|.

    Scans a log-spaced h grid and fits the best constants c (largest lower
    bound) and C (smallest upper bound) for the regime boundaries c' h* and
    C' gamma^{-1}, c' = 1/2 and C' = 1; passes with c >= 1e-8 and C <= 1e8
    and raises ``CertificateFailure`` otherwise.
    """
    gamma = params.gamma if gamma is None else gamma
    h_star, e_star, _, _ = optimal_h(params, gamma)
    if h_star < 10.0:
        raise ValidationError("check_eh_bounds needs h* >= 10 (gamma too large)")
    hgrid = np.geomspace(1.0, 100.0 / gamma, _BOUNDS_SAMPLES)
    e_vals = energy_per_length(params, hgrid, gamma)
    de_vals = np.abs(eh_derivative(params, hgrid, gamma))
    cp, Cp = _C_PRIME_LOW, _C_PRIME_HIGH
    low, high = hgrid <= cp * h_star, hgrid >= Cp / gamma
    lowshape = np.where(low, 1.0 / hgrid, np.where(
        high, 1.0, gamma ** 2 * (hgrid - h_star) ** 2))
    upshape = np.where(low, hgrid ** -2.0, np.where(
        high, gamma ** -1.0 * hgrid ** -2.0,
        gamma ** 2 * np.abs(hgrid - h_star)))
    # the middle-regime shapes vanish at h = h*; both sides do there
    ok = lowshape > 0.0
    c_fit = float(np.min((e_vals - e_star)[ok] / lowshape[ok]))
    okd = upshape > 0.0
    C_fit = float(np.max(de_vals[okd] / upshape[okd]))
    if not (c_fit >= _C_MIN and C_fit <= _C_MAX):
        raise CertificateFailure(
            f"c={c_fit:.3e}, C={C_fit:.3e} outside [{_C_MIN:.0e}, "
            f"{_C_MAX:.0e}] at c'={cp}, C'={Cp}")
    return Certificate(
        name="eh_bounds", lhs=c_fit, rhs=0.0,
        params={"c": c_fit, "C": C_fit, "c_prime": cp, "C_prime": Cp,
                "gamma": gamma, "h_star": h_star,
                "n_samples": _BOUNDS_SAMPLES})


# ---------------------------------------------------------------------------
# reflected kernel of the chessboard estimate

def tilde_v_kernel(h: float, gamma: float, x, y, measure: KacMeasure):
    """Closed form of the reflected kernel on [0, h]^2 (geometric resummation).

    Per atom, with a = gamma alpha, q = exp(-2 a h), G = 1/(1 - q),
    d = y - x, s = x + y:

        v~_h/(gamma lam w) = e^{-a|d|} + 2 q G cosh(a d)
                             - e^{-a s} - e^{-a(2h-s)} - q G e^{-a s}
                             - q^2 G e^{a s}

    symmetric in (x, y) and pointwise positive.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = y - x
    s = y + x
    total = 0.0
    for w, alpha in measure.atoms:
        a = gamma * alpha
        q = np.exp(-2.0 * a * h)
        G = 1.0 / (1.0 - q)
        term = (np.exp(-a * np.abs(d)) + q * G * 2.0 * np.cosh(a * d)
                - np.exp(-a * s) - np.exp(-a * (2.0 * h - s))
                - q * G * np.exp(-a * s) - q * q * G * np.exp(a * s))
        total = total + w * term
    out = gamma * measure.lam * total
    return out if np.ndim(out) else float(out)


def _cell_energies(params: ModelParams, values: np.ndarray, lefts: np.ndarray,
                   rights: np.ndarray, starts: np.ndarray, gamma: float
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Lengths h and specific energies e~_h of the cells of
    ``energy._cell_integrals`` (``values`` >= 0 on [lefts[j], rights[j]),
    cell c the pieces starts[c] to starts[c+1] - 1), in one pass.

    Per atom, a = gamma alpha, E = e^{-ah}, G = 1/(1 - E^2):

        <sigma, sigma>_{v~_h} / (gamma lam w) = I - 2 Sp Sq/(1 + E) - G (Sp - Sq)^2

    with I, Sp and Sq from ``energy._cell_integrals``. Every kernel term is
    integrated in closed form, so the constant-cell identity with e(h) is
    exact up to rounding; the three terms still cancel to relative order a h
    as gamma -> 0.
    """
    tau = params.require_tau()
    h = rights[np.append(starts[1:], values.size) - 1] - lefts[starts]
    well = np.add.reduceat((rights - lefts) * eval_tilde_F(values, params),
                           starts) / h
    quad = np.zeros(starts.size)
    for wk, alpha in params.measure.atoms:
        a = gamma * alpha
        pairs, sp, sq = _cell_integrals(a, values, lefts, rights, starts)
        E = np.exp(-a * h)
        G = 1.0 / -np.expm1(-2.0 * a * h)
        quad += wk * (pairs - 2.0 * sp * sq / (1.0 + E) - G * (sp - sq) ** 2)
    quad *= gamma * params.measure.lam
    return h, well + tau / h + quad / (2.0 * h)


def cell_specific_energy(params: ModelParams, sigma: StepProfile,
                         gamma: Optional[float] = None) -> float:
    """e~_h[sigma] = (1/h) int F~(sigma) + tau/h + (1/2h) <sigma, sigma>_{v~_h}.

    ``sigma`` is a StepProfile on [0, h], h = sigma.L, with constant sign
    (the antiperiodic cell of the chessboard estimate); a negative cell is
    evaluated through |sigma|. This is the one-cell case of
    ``chessboard_lower_bound``'s pass, O(pieces).
    """
    gamma = params.gamma if gamma is None else gamma
    values = sigma.values
    if np.any(values > 0.0) and np.any(values < 0.0):
        raise SignError("cell profile must have constant sign")
    bp = sigma.breakpoints
    _, e = _cell_energies(params, np.abs(values), bp[:-1], bp[1:], _ONE_CELL,
                          gamma)
    return float(e[0])


def chessboard_lower_bound(params: ModelParams, step: StepProfile,
                           gamma: Optional[float] = None, bc: str = "open"
                           ) -> Tuple[float, list]:
    """Reflection-positivity lower bound: sum_i h_i e~_{h_i}[sigma~_i].

    Each maximal constant-sign interval is antiperiodized and charged its
    specific energy. Returns (bound, per-interval (h_i, term) pairs) in
    ``sign_intervals`` order. The cells are the ``runs`` of the pieces'
    signs, with the seam of ``runs`` for periodic bc: the run that wraps
    comes first, in coordinates from its unwrapped left edge. All cells are
    scored in one array pass, O(pieces) per atom. A torus of one sign run is
    the one cell [0, L), cut at x = 0: the bound holds for a cut anywhere,
    but its value depends on where the cut falls.
    """
    gamma = params.gamma if gamma is None else gamma
    n = step.values.size
    first = runs(np.sign(step.values), periodic=_step_periodic(bc))[0]
    # pieces from the first cell's left edge on: k pieces wrapped, k >= 0
    k = -first[0]
    values = np.abs(np.append(step.values[n - k:], step.values[:n - k]))
    edges = np.concatenate([step.breakpoints[n - k:-1] - step.L,
                            step.breakpoints[:n - k + 1]])
    h, e = _cell_energies(params, values, edges[:-1], edges[1:], first + k,
                          gamma)
    per = list(zip(h.tolist(), (h * e).tolist()))
    return float(sum(t for _, t in per)), per


# ---------------------------------------------------------------------------
# rescaled limit functional

def gamma_limit_energy(u: GridProfile, params: ModelParams,
                       constant_alpha: Optional[float] = None) -> float:
    """Limit functional: (tau/2m) TV(u) + lam <alpha> |(-Delta)^{-1/2} u|^2.

    Defined for periodic mean-zero profiles on [0, L0]; returns +inf when
    |mean| exceeds 1e-8. ``constant_alpha`` defaults to sum w_k alpha_k.
    """
    tau = params.require_tau()
    if constant_alpha is None:
        constant_alpha = params.measure.mean_rate()
    vals = u.samples
    if abs(vals.mean()) > _MEAN_TOL:
        return float("inf")
    tv = float(np.sum(np.abs(np.diff(vals)))) + abs(float(vals[0] - vals[-1]))
    uhat = np.fft.rfft(vals) / vals.size
    k = 2.0 * np.pi * np.arange(uhat.size) / u.L
    mags = np.abs(uhat[1:]) ** 2
    # one-sided spectrum: modes 1..N/2-1 appear twice, Nyquist once
    mult = np.full(mags.size, 2.0)
    if vals.size % 2 == 0:
        mult[-1] = 1.0
    sobolev = u.L * float(np.sum(mult * mags / k[1:] ** 2))
    return (tau / (2.0 * params.m_beta)) * tv + params.measure.lam * constant_alpha * sobolev
