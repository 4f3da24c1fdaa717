"""Instanton solver, surface tension, tail rate and the periodic trial profile.

The instanton is the antisymmetric monotone fixed point of q = tanh(beta J*q)
connecting -m_beta to +m_beta; its short-range energy is the surface tension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .energy import short_range_energy
from .errors import (CellTooShort, FitError, NonConvergence, ValidationError,
                     _check_count)
from .model import ModelParams, solve_m_beta
from .profiles import GridProfile

__all__ = [
    "Instanton",
    "solve_instanton",
    "surface_tension",
    "tail_rate",
    "build_trial_profile",
]

# tail_rate: absolute floor under the usable deviations, and the fewest
# samples a fit may use
_TAIL_FLOOR = 1e-13
_TAIL_MIN_POINTS = 8


@dataclass(frozen=True)
class Instanton:
    """Converged instanton on [-W, W] with its derived quantities."""

    W: float
    dx: float
    q: np.ndarray
    m_beta: float
    residual: float
    tau: Optional[float] = None

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        q.flags.writeable = False
        object.__setattr__(self, "q", q)
        anti = np.max(np.abs(q + q[::-1]))
        if anti > 1e-8:
            raise ValidationError(f"instanton not antisymmetric ({anti:.2e})")
        if np.any(np.diff(q) < -1e-12):
            raise ValidationError("instanton not monotone")

    @property
    def x(self) -> np.ndarray:
        return -self.W + (np.arange(self.q.size) + 0.5) * self.dx

    def __call__(self, x):
        """q at arbitrary points, clamped to +-m_beta outside the window."""
        return np.interp(x, self.x, self.q,
                         left=-self.m_beta, right=self.m_beta)

    def width_at(self, fraction: float = 0.999) -> float:
        """Smallest x with q(x) >= fraction * m_beta."""
        above = np.nonzero(self.q >= fraction * self.m_beta)[0]
        if above.size == 0:
            return self.W
        return float(self.x[above[0]])

    def trial_cell(self, h: float, dx: float) -> float:
        """The cell of the trial train at period ``h`` on the grid ``dx``:
        h rounded to m whole samples, times the smallest whole k for which
        the cell spans 4 instanton widths (w999), as ``build_trial_profile``
        requires. Near beta = 1 the instanton widens while h* barely moves,
        so k exceeds 1 there. Returned as k * m * dx."""
        if not 0.0 < dx <= h < math.inf:
            raise ValidationError("need 0 < dx <= h < inf")
        m = round(h / dx)
        four_widths = 4.0 * self.width_at(0.999)
        k = max(1, math.ceil(four_widths / (m * dx)))
        if k * m * dx < four_widths:
            k += 1
        return k * m * dx

    def to_profile(self) -> GridProfile:
        """As a GridProfile on [0, 2W] (shifted domain), for serialization."""
        return GridProfile(L=2 * self.W, dx=self.dx, samples=self.q, bc="open")


def _mean_field_sweep(q, params: ModelParams, dx: float, jband_full: np.ndarray,
                      m_beta: float) -> np.ndarray:
    # J*q with q == +-m_beta imposed outside the window
    r = (jband_full.size - 1) // 2
    padded = np.concatenate([np.full(r, -m_beta), q, np.full(r, m_beta)])
    conv = dx * np.convolve(padded, jband_full, mode="valid")
    return np.tanh(params.beta * conv)


def solve_instanton(params: ModelParams, half_width: float = 30.0,
                    dx: float = 1.0 / 64.0, tol: float = 1e-10,
                    max_sweeps: int = 50000) -> Instanton:
    """Picard iteration q <- tanh(beta J*q), antisymmetrized each sweep.

    The arguments are checked before the first sweep, each check failed by
    NaN and every number finite. Raises NonConvergence if the residual does
    not reach ``tol`` within ``max_sweeps`` (an integer >= 1) sweeps, and
    ValidationError if the window is too short for the instanton to reach
    its plateau.
    """
    if not 20.0 <= half_width < math.inf:
        raise ValidationError("half_width must be finite and at least 20")
    if not 1e-12 <= tol < math.inf:
        raise ValidationError("tol must be finite and at least 1e-12")
    if not 0.0 < dx < math.inf:
        raise ValidationError("dx must be finite and positive")
    _check_count(max_sweeps, "max_sweeps", low=1)
    m = params.m_beta
    n = int(round(2 * half_width / dx))
    if n % 2:
        raise ValidationError("2*half_width/dx must be even (symmetric grid)")
    x = -half_width + (np.arange(n) + 0.5) * dx
    q = m * np.tanh(x)
    r = int(round(1.0 / dx))
    jvals = params.kernel(dx * np.arange(-r, r + 1))
    residual = np.inf
    for _ in range(max_sweeps):
        q_new = _mean_field_sweep(q, params, dx, jvals, m)
        q_new = 0.5 * (q_new - q_new[::-1])
        residual = float(np.max(np.abs(q_new - q)))
        q = q_new
        if residual <= tol:
            break
    else:
        raise NonConvergence(
            f"instanton residual {residual:.3e} > tol {tol:.1e} "
            f"after {max_sweeps} sweeps")
    # fixed-point defect of the returned iterate
    defect = float(np.max(np.abs(q - _mean_field_sweep(q, params, dx, jvals, m))))
    q = np.clip(q, -m, m)
    # the interior plateau is the root m_d of m = tanh(beta dx sum_k J(k dx) m),
    # and the +-m_beta outside the window pulls the ends from m_d toward
    # m_beta; a window too short for the tail leaves them short of both
    m_d = solve_m_beta(params.beta * dx * float(np.sum(jvals)))
    low, high = min(m_d, m) - 1e-8, max(m_d, m) + 1e-8
    if not (low <= q[-1] <= high and low <= -q[0] <= high):
        raise ValidationError("instanton does not reach its plateau")
    inst = Instanton(W=half_width, dx=dx, q=q, m_beta=m, residual=defect)
    tau = surface_tension(inst, params)
    return replace(inst, tau=tau)


def surface_tension(instanton: Instanton, params: ModelParams) -> float:
    """Short-range energy of the instanton with constant +-m_beta extension.

    One J-range of +-m_beta on each side carries every exchange pair that
    crosses the window; F vanishes there, as do pairs fully outside.
    """
    dx, m = instanton.dx, instanton.m_beta
    r = int(round(1.0 / dx))
    ext = np.concatenate([np.full(r, -m), instanton.q, np.full(r, m)])
    return short_range_energy(
        params, GridProfile(L=ext.size * dx, dx=dx, samples=ext))


def tail_rate(instanton: Instanton) -> Tuple[float, float, Tuple[float, float]]:
    """Exponential decay rate of m_beta - q(x) from a log-linear fit.

    Fits on [W/2, W-2] when the deviation is resolvable there. The measured
    rate is typically so large that the deviation drops below the solver's
    convergence floor well before W/2; in that case the window shrinks toward
    the interface, keeping only samples clearly above the floor (read off the
    flat far tail) and below 0.02 m_beta. Returns (rate, fit_rms, window).
    Raises FitError when fewer than 8 usable samples exist.
    """
    x = instanton.x
    dev = instanton.m_beta - instanton.q
    # the far tail flattens out at the solver's floor (iteration remnant or
    # the quadrature offset of the discrete plateau); stay well above it
    far = dev[x >= instanton.W - 2.0]
    floor_emp = float(np.median(far)) if far.size else 0.0
    if far.size and floor_emp > 0.0:
        spread = float(np.percentile(far, 90) - np.percentile(far, 10))
        is_plateau = spread < 0.5 * floor_emp
    else:
        is_plateau = False
    cut = max(_TAIL_FLOOR, (50.0 if is_plateau else 5.0) * floor_emp,
              50.0 * instanton.residual)
    usable = (dev > cut) & (dev < 0.02 * instanton.m_beta) & (x > 0.5)
    lo, hi = instanton.W / 2.0, instanton.W - 2.0
    sel = usable & (x >= lo) & (x <= hi)
    if np.count_nonzero(sel) < _TAIL_MIN_POINTS:
        idx = np.nonzero(usable)[0]
        if idx.size < _TAIL_MIN_POINTS:
            raise FitError("tail underflows: too few resolvable samples")
        # outer half of the resolvable stretch (the asymptotic regime)
        idx = idx[idx.size // 2:] if idx.size >= 2 * _TAIL_MIN_POINTS else idx
        sel = np.zeros_like(usable)
        sel[idx] = True
    xs = x[sel]
    ys = np.log(dev[sel])
    slope, intercept = np.polyfit(xs, ys, 1)
    fit = slope * xs + intercept
    rms = float(np.sqrt(np.mean((ys - fit) ** 2)))
    return -float(slope), rms, (float(xs[0]), float(xs[-1]))


def build_trial_profile(h: float, L: float, instanton: Instanton,
                        bc: str = "periodic",
                        dx: Optional[float] = None) -> GridProfile:
    """Alternating-sign instanton train: sign flips every cell of length h.

    Within cell k the profile is (-1)^k q(x - z_k) with z_k the cell midpoint,
    so the mean over any two consecutive cells vanishes exactly.
    """
    dx = instanton.dx if dx is None else dx
    if not (math.isfinite(h) and math.isfinite(L) and 0.0 < dx < math.inf):
        raise ValidationError("h and L must be finite, dx finite and positive")
    if abs(h / dx - round(h / dx)) > 1e-9:
        h = round(h / dx) * dx
    w999 = instanton.width_at(0.999)
    if h < 4.0 * w999:
        raise CellTooShort(
            f"cell h={h:.4g} shorter than 4 x instanton width {w999:.4g}")
    n_cells = int(round(L / h))
    if abs(n_cells * h - L) > 1e-9 * max(1.0, L):
        raise ValidationError("L must be a multiple of h")
    if bc == "periodic" and n_cells % 2:
        raise ValidationError("periodic use needs L a multiple of 2h")
    m = int(round(h / dx))
    samples = np.empty(n_cells * m)
    xc = (np.arange(m) + 0.5) * dx
    cell = instanton(xc - h / 2.0)
    for k in range(n_cells):
        samples[k * m:(k + 1) * m] = cell if k % 2 == 0 else -cell
    return GridProfile(L=n_cells * m * dx, dx=dx, samples=samples, bc=bc)
