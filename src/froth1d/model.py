"""Model parameters and local/nonlocal interaction kernels.

The free energy density combines a double-well local term built from the
mean-field magnetization entropy, a compactly supported even exchange kernel
J with unit range, and a long-range kernel v given by a finite mixture of
decaying exponentials (a Laplace transform of an atomic measure, hence
reflection positive by construction).

The well F and its slope F' come from one pass of ``_well`` (one log1p pair
per sample, a(m_beta) computed once per parameter set, the formulas evaluated
in place in a handful of arrays), which ``eval_F_prime`` and the energy
evaluator call. Along a descent step it is the only nonlinear part of the
functional. A line-search candidate takes ``_well_parts``, the same pass
less three: its min and max come from the projection, and the slope's scale
and linear term (``_finish_slope``) are applied only to the candidate the
descent accepts. ``eval_F`` and the energies that need F alone take
``_well_parts`` too and never finish the slope. Samples on the faces +-1
take F's face value, a constant per parameter set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .certificates import Certificate
from .errors import (DomainError, SubcriticalError, ValidationError,
                     _check_value)

__all__ = [
    "KacMeasure",
    "ShortRangeKernel",
    "ModelParams",
    "solve_m_beta",
    "eval_F",
    "eval_F_prime",
    "eval_F_double_prime",
    "eval_tilde_F",
    "v_prime_at_zero",
    "rp_spectrum_check",
]


@dataclass(frozen=True)
class KacMeasure:
    """Finite atomic mixture lambda * sum_k w_k exp(-alpha_k |x|).

    ``atoms`` is a sequence of (weight, rate) pairs; weights are positive and
    sum to one, rates are positive and bounded away from zero.
    """

    atoms: Tuple[Tuple[float, float], ...]
    lam: float = 1.0

    def __post_init__(self):
        atoms = tuple((float(w), float(a)) for w, a in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise ValidationError("measure needs at least one atom")
        if not 0.0 < self.lam < math.inf:
            raise ValidationError("lambda must be finite and positive")
        for i, (w, a) in enumerate(atoms):
            if not w > 0:
                raise ValidationError(f"weight must be positive, got {w}",
                                      pointer=f"/measure/{i}/weight")
            if not 0.0 < a < math.inf:
                raise ValidationError(f"rate must be finite and positive, "
                                      f"got {a}",
                                      pointer=f"/measure/{i}/alpha")
        total = math.fsum(w for w, _ in atoms)
        if not abs(total - 1.0) <= 1e-12:
            raise ValidationError(f"weights must sum to 1, got {total!r}")

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.atoms])

    @property
    def rates(self) -> np.ndarray:
        return np.array([a for _, a in self.atoms])

    @property
    def alpha_min(self) -> float:
        return float(self.rates.min())

    def v(self, x):
        """v(x) = lambda sum_k w_k exp(-alpha_k |x|)."""
        x = np.abs(np.asarray(x, dtype=float))
        r = self.rates.reshape((-1,) + (1,) * x.ndim)
        w = self.weights.reshape((-1,) + (1,) * x.ndim)
        out = self.lam * np.sum(w * np.exp(-r * x), axis=0)
        return out if np.ndim(out) else float(out)

    def v_hat(self, k):
        """Fourier transform: lambda sum_k w_k 2 alpha_k / (alpha_k^2 + k^2)."""
        k = np.asarray(k, dtype=float)
        r = self.rates.reshape((-1,) + (1,) * k.ndim)
        w = self.weights.reshape((-1,) + (1,) * k.ndim)
        out = self.lam * np.sum(2.0 * r / (r * r + k * k) * w, axis=0)
        return out if np.ndim(out) else float(out)

    def mean_rate(self) -> float:
        """sum_k w_k alpha_k (the default long-wavelength coefficient)."""
        return float(np.sum(self.weights * self.rates))


def v_prime_at_zero(measure: KacMeasure) -> float:
    """|v'(0+)| = lambda sum_k w_k alpha_k."""
    return float(measure.lam * np.sum(measure.weights * measure.rates))


def rp_spectrum_check(measure: KacMeasure, k_samples) -> Certificate:
    """Certify v_hat(k) > 0 at every sampled wavenumber.

    A valid atomic measure always passes; the check guards hand-edited
    configurations.
    """
    k = np.atleast_1d(np.asarray(k_samples, dtype=float))
    if k.size == 0:
        raise ValidationError("k_samples must be nonempty")
    vals = measure.v_hat(k)
    worst = int(np.argmin(vals))
    # strict: a tol of minus the least positive double makes the verdict
    # v_hat > 0, so a v_hat that underflows to 0 fails
    return Certificate(
        name="rp_spectrum", lhs=float(vals[worst]), rhs=0.0,
        params={"k_worst": float(k[worst]), "n_samples": int(k.size)},
        tol=-5e-324)


class _QuarticBump(NamedTuple):
    """c (1 - x^2)^2 on [-1, 1], 0 outside; a value, so kernels built from
    equal documents compare and hash equal (a NamedTuple: a frozen dataclass
    costs 0.7 ms more at import)."""
    c: float

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(np.abs(x) <= 1.0, self.c * (1.0 - x * x) ** 2, 0.0)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class ShortRangeKernel:
    """Even, nonnegative exchange kernel with support [-1, 1].

    ``j0_hat`` is its total integral. The default is c (1-x^2)^2 with c fixed
    so that the integral equals the requested j0_hat. Kernels compare by
    evaluator and j0_hat; the default evaluator compares by c, a
    user-supplied one by identity.
    """

    evaluator: Callable
    j0_hat: float

    @classmethod
    def default_quartic(cls, j0_hat: float = 1.0) -> "ShortRangeKernel":
        if not 0.0 < j0_hat < math.inf:
            raise ValidationError("J0_hat must be finite and positive")
        c = (15.0 / 16.0) * j0_hat
        return cls(evaluator=_QuarticBump(c), j0_hat=float(j0_hat))

    def __post_init__(self):
        if not 0.0 < self.j0_hat < math.inf:
            raise ValidationError("J0_hat must be finite and positive")
        probe = np.linspace(0.0, 1.0, 257)
        vals = self.evaluator(probe)
        if np.any(vals < -1e-14):
            raise ValidationError("J must be nonnegative on [0, 1]")
        if np.any(np.diff(vals) > 1e-12):
            raise ValidationError("J must be nonincreasing on [0, 1]")
        neg = self.evaluator(-probe)
        if np.max(np.abs(neg - vals)) > 1e-12:
            raise ValidationError("J must be even")
        if abs(float(self.evaluator(1.0 + 1e-9))) > 0.0:
            raise ValidationError("J must vanish outside [-1, 1]")

    def __call__(self, x):
        return self.evaluator(x)

    def band(self, dx: float) -> np.ndarray:
        """J evaluated at the positive grid offsets k*dx, k = 1..1/dx."""
        r = int(round(1.0 / dx))
        return np.asarray(self.evaluator(dx * np.arange(1, r + 1)), dtype=float)


def solve_m_beta(beta_j0: float) -> float:
    """Positive root of m = tanh(beta_j0 * m), by bisection plus Newton polish.

    Raises SubcriticalError when beta_j0 <= 1 (only the trivial root exists).
    """
    if beta_j0 <= 1.0:
        raise SubcriticalError(
            f"beta * J0_hat = {beta_j0} <= 1: no spontaneous magnetization")
    f = lambda m: m - math.tanh(beta_j0 * m)
    lo, hi = 1e-8, 1.0 - 1e-12
    if f(lo) >= 0.0:
        # at supercritical beta_j0 the function is negative near 0+
        lo = 1e-14
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    m = 0.5 * (lo + hi)
    for _ in range(2):
        t = math.tanh(beta_j0 * m)
        fp = 1.0 - beta_j0 * (1.0 - t * t)
        if fp != 0.0:
            m -= (m - t) / fp
    m = min(max(m, 0.0), 1.0)
    if abs(m - math.tanh(beta_j0 * m)) > 1e-12:
        raise SubcriticalError(f"failed to solve m = tanh({beta_j0} m)")
    return m


# the model document's keys and their JSON types (see errors._check_value):
# every key but tau is required, and a measure atom sets weight and alpha
_MODEL_KEYS = {"beta": float, "J0_hat": float, "lambda": float,
               "measure": [("weight", "alpha")], "gamma": float, "tau": float}


@dataclass(frozen=True)
class ModelParams:
    """Full parameterization of the functional.

    ``tau`` (the surface tension) is filled once the instanton has been
    solved; operations that need it raise if it is missing.
    """

    beta: float
    kernel: ShortRangeKernel
    measure: KacMeasure
    gamma: float
    m_beta: float
    f0: float
    tau: Optional[float] = None

    @classmethod
    def create(cls, beta: float, kernel: Optional[ShortRangeKernel] = None,
               measure: Optional[KacMeasure] = None, gamma: float = 1e-2,
               tau: Optional[float] = None) -> "ModelParams":
        if kernel is None:
            kernel = ShortRangeKernel.default_quartic(1.0)
        if measure is None:
            measure = KacMeasure(atoms=((1.0, 1.0),), lam=1.0)
        if not 0.0 < beta < math.inf:
            raise ValidationError("beta must be finite and positive",
                                  pointer="/beta")
        if not (0.0 < gamma < 1.0):
            raise ValidationError(f"gamma must lie in (0, 1), got {gamma}",
                                  pointer="/gamma")
        bj = beta * kernel.j0_hat
        if bj <= 1.0:
            raise SubcriticalError(
                f"beta * J0_hat = {bj} <= 1 (supercritical regime required)")
        m = solve_m_beta(bj)
        p = cls(beta=float(beta), kernel=kernel, measure=measure,
                gamma=float(gamma), m_beta=m, f0=0.0)
        p = replace(p, f0=float(eval_F(0.0, p)))
        return p if tau is None else p.with_tau(tau)

    @classmethod
    def from_dict(cls, doc: dict, pointer: str = "") -> "ModelParams":
        """Build from the JSON model document; errors carry JSON-pointer paths."""
        _check_value(_MODEL_KEYS, doc, pointer)
        for key in _MODEL_KEYS:
            if key not in doc and key != "tau":
                raise ValidationError("missing", pointer=f"{pointer}/{key}")
        tau = float(doc["tau"]) if "tau" in doc else None
        if tau is not None and tau <= 0:
            raise ValidationError("tau must be positive",
                                  pointer=f"{pointer}/tau")
        try:
            measure = KacMeasure(
                atoms=tuple((float(a["weight"]), float(a["alpha"]))
                            for a in doc["measure"]),
                lam=float(doc["lambda"]))
            kernel = ShortRangeKernel.default_quartic(float(doc["J0_hat"]))
            return cls.create(beta=float(doc["beta"]), kernel=kernel,
                              measure=measure, gamma=float(doc["gamma"]),
                              tau=tau)
        except ValidationError as err:
            if err.pointer is not None and pointer:
                raise ValidationError(err.message,
                                      pointer=pointer + err.pointer) from err
            raise

    def with_tau(self, tau: float) -> "ModelParams":
        if not 0.0 < tau < math.inf:
            raise ValidationError("tau must be finite and positive")
        return replace(self, tau=float(tau))

    def with_gamma(self, gamma: float) -> "ModelParams":
        if not (0.0 < gamma < 1.0):
            raise ValidationError(f"gamma must lie in (0, 1), got {gamma}")
        return replace(self, gamma=float(gamma))

    def require_tau(self) -> float:
        if self.tau is None:
            raise ValidationError("tau not set; solve the instanton first")
        return self.tau

    @cached_property
    def _a_min(self) -> float:
        """a(m_beta) + log(2)/beta as ``_well`` computes it for a sample."""
        return float(_unclamped_a(np.array([self.m_beta]), self)[0])

    @cached_property
    def _f_face(self) -> float:
        """F(+-1) as ``_well`` computes it for a sample."""
        return float(_unclamped_a(np.array([1.0]), self)[0]) - self._a_min


def _extremes(t: np.ndarray):
    """(min, max) of t, (0.0, 0.0) when t has no samples; NaN if t has one."""
    return (t.min(), t.max()) if t.size else (0.0, 0.0)


def _check_domain(t):
    """t as floats in [-1, 1] with its extremes. Samples within 1e-12 beyond
    a face are snapped onto it, in a copy made only then; NaN, or a sample
    further out, raises."""
    t = np.asarray(t, dtype=float)
    lo, hi = _extremes(t)
    if not (lo >= -1.0 - 1e-12 and hi <= 1.0 + 1e-12):
        raise DomainError("magnetization outside [-1, 1]")
    if lo < -1.0 or hi > 1.0:
        t = np.clip(t, -1.0, 1.0)
        lo, hi = max(lo, -1.0), min(hi, 1.0)
    return t, lo, hi


def _shifted_a(s, lp, lm, params: ModelParams):
    """a(s) + log(2)/beta from the pair lp = log1p(s), lm = log1p(-s):
    ((1 + s) lp + (1 - s) lm) / (2 beta) - (J0_hat / 2) s^2, computed in place
    of lp and lm, which it returns and overwrites."""
    w = 1.0 - s
    lm *= w
    np.add(s, 1.0, out=w)
    lp *= w
    lp += lm
    lp /= 2.0 * params.beta
    np.multiply(s, s, out=lm)
    lm *= 0.5 * params.kernel.j0_hat
    lp -= lm
    return lp


def _unclamped_a(u: np.ndarray, params: ModelParams) -> np.ndarray:
    """``_shifted_a`` at u in [0, 1], exact at u = 1 (no entropy there)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        a = _shifted_a(u, np.log1p(u), np.log1p(-u), params)
    a[u == 1.0] = math.log(2.0) / params.beta - 0.5 * params.kernel.j0_hat
    return a


# the entropy's log1p pair is evaluated on |t| <= _EDGE, where F' stays finite
_EDGE = 1.0 - 1e-12


def _well_parts(t: np.ndarray, lo, hi, params: ModelParams):
    """F(t) = a(t) - a(m_beta) (0 exactly at +-m_beta) per sample of a vector
    t in [-1, 1] whose min and max are lo and hi, with the slope's log1p
    difference and the s it came from, which ``_finish_slope`` turns into
    F'(t). One log1p pair on s = clip(t, -_EDGE, _EDGE), skipped (s is t)
    when lo and hi lie within +-_EDGE; F takes a(|t|) beyond it, a constant
    on the faces +-1."""
    # in-place steps, same operations in the same order as the formulas
    s = t
    if not (lo >= -_EDGE and hi <= _EDGE):
        s = np.maximum(t, -_EDGE)    # np.clip is slower
        np.minimum(s, _EDGE, out=s)
    lp = np.log1p(s)
    lm = np.negative(s)
    np.log1p(lm, out=lm)
    diff = lp - lm
    f = _shifted_a(s, lp, lm, params)
    f -= params._a_min
    if s is not t:
        out = np.flatnonzero(s != t)
        u = np.abs(t[out])
        f[out] = params._f_face
        inner = u != 1.0        # in (_EDGE, 1)
        if inner.any():
            f[out[inner]] = _unclamped_a(u[inner], params) - params._a_min
    return f, diff, s


def _finish_slope(diff: np.ndarray, s: np.ndarray, params: ModelParams):
    """F' = (log1p s - log1p(-s)) / (2 beta) - J0_hat s, in place of the
    difference ``_well_parts`` returned."""
    diff /= 2.0 * params.beta
    diff -= params.kernel.j0_hat * s
    return diff


def _well(t: np.ndarray, params: ModelParams):
    """F(t) = a(t) - a(m_beta) and F'(t) per sample of a vector t in [-1, 1]:
    ``_well_parts`` on t's extremes, then ``_finish_slope``."""
    f, diff, s = _well_parts(t, *_extremes(t), params)
    return f, _finish_slope(diff, s, params)


def eval_F(t, params: ModelParams):
    """Double-well density F(t) = a(t) - a(m_beta), nonnegative and even."""
    t, lo, hi = _check_domain(t)
    out = _well_parts(t.reshape(-1), lo, hi, params)[0].reshape(t.shape)
    return out if out.ndim else float(out)


def eval_F_prime(t, params: ModelParams):
    """a'(t) = -J0_hat t + arctanh(t)/beta, clamped near t = +-1.

    The entropy slope diverges at the box boundary; evaluation is clamped at
    |t| = 1 - 1e-12 so projected-gradient iterations stay finite. Raises
    ``DomainError`` outside [-1, 1], as ``eval_F`` does.
    """
    t = _check_domain(t)[0]
    out = _well(t.reshape(-1), params)[1].reshape(t.shape)
    return out if out.ndim else float(out)


def eval_F_double_prime(t, params: ModelParams):
    """a''(t) = -J0_hat + 1/(beta (1 - t^2))."""
    t = np.asarray(t, dtype=float)
    out = -params.kernel.j0_hat + 1.0 / (params.beta * (1.0 - t * t))
    return out if out.ndim else float(out)


def eval_tilde_F(t, params: ModelParams):
    """Quadratic comparison well F~(t) = F(0)/(2 m_beta^2) (|t| - m_beta)^2."""
    t = _check_domain(t)[0]
    m = params.m_beta
    out = params.f0 / (2.0 * m * m) * (np.abs(t) - m) ** 2
    return out if np.ndim(out) else float(out)
