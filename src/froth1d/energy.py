"""Energy functionals on grid and step profiles, and the analytic gradient.

The double integrals are midpoint sums. Apart from the local well, the grid
functional is quadratic: Q = (dx/2) <phi, K phi> + dx <b, phi> + c, with one
operator K per bc (exchange band over the unit support of J plus one
exponential kernel per Kac atom) and the linear term (b, c) of fixed outside
data. Energy and gradient come from one application of K, whose per-grid
data is cached per (params, gamma, N, dx, bc), and one pass of the well
kernel ``model._well``, which gives F and F' per sample from one log1p pair.
The descent expands Q exactly along a step with one more application of K.
On the torus K is circulant and is applied as one rfft multiply by its
closed-form symbol. On an interval it is the exchange band plus, per atom,
two O(N) prefix-sum passes over chunks of bounded exponent span, whose
weights are cached with the form. The fixed bcs (plus, minus, custom) put
each exchange pair across an end on the diagonal, and their outside data
enter only through (b, c): geometric series built once (plus, minus), one
dot product per atom and profile (custom). The Neumann reflection is
quadratic in phi, so it is part of K: reflected exchange pairs and a
rank-two form per end and atom.
One band routine gives the exchange of ``total_energy`` and, per block in
one pass, the short-range energy of coarse-graining blocks.
Step profiles need no grid: one O(pieces) pass per atom, ``_cell_integrals``,
gives the step dipole (open, and periodic by an exact identity) and the
chessboard cells of ``sharp``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np
from numpy.fft import irfft, rfft

from .certificates import fmt17
from .errors import MissingBoundaryData, ValidationError
from .model import (ModelParams, _extremes, _well, _well_parts,
                    eval_tilde_F)
from .profiles import (GridProfile, StepProfile, _block_cuts, _interfaces,
                       _step_periodic)

__all__ = [
    "EnergyBreakdown",
    "short_range_energy",
    "total_energy",
    "dipole_energy",
    "tilde_energy",
    "energy_gradient",
    "step_dipole_energy",
    "DIPOLE_CUTOFF",
]

# gamma * distance beyond which exp(-gamma alpha d) < 1e-20 for alpha >= 1;
# cross terms are truncated there (exact to machine precision).
DIPOLE_CUTOFF = 46.0


@dataclass(frozen=True)
class EnergyBreakdown:
    local: float
    exchange: float
    dipole: float
    boundary: float

    @property
    def total(self) -> float:
        return self.local + self.exchange + self.dipole + self.boundary

    def to_dict(self) -> dict:
        return {"local": fmt17(self.local), "exchange": fmt17(self.exchange),
                "dipole": fmt17(self.dipole), "boundary": fmt17(self.boundary),
                "total": fmt17(self.total)}


# ---------------------------------------------------------------------------
# exchange band and exponential convolutions

def _exchange_banded(samples: np.ndarray, jband: np.ndarray, dx: float,
                     starts=(0,)) -> np.ndarray:
    """(1/4) double sum of J(x-y)(phi(x)-phi(y))^2 over each block
    samples[starts[b]:starts[b + 1]] (starts[0] = 0, the last block runs to
    the end), pairs that cross a block edge left out.

    One block (the exchange of ``total_energy``, ``short_range_energy`` and
    ``surface_tension``) takes one subtract and one dot per band offset k,
    J_k |phi_{k:} - phi_{:-k}|^2. Several blocks take one pass per offset
    that adds J_k (phi_{i+k} - phi_i)^2, masked where the pair crosses a
    block edge, to a per-sample sum at i; the blocks then reduce it once.
    """
    n = samples.size
    starts = np.asarray(starts)
    if starts.size == 1:
        total = 0.0
        for k, jk in enumerate(jband, start=1):
            if jk == 0.0 or k >= n:
                continue
            d = samples[k:] - samples[:-k]
            total += jk * float(d @ d)
        return np.array([0.5 * dx * dx * total])
    # room[i]: samples from i to the end of its block; the pair (i, i + k)
    # stays inside the block iff k < room[i]
    ends = np.append(starts[1:], n)
    room = np.repeat(ends, np.diff(ends, prepend=0)) - np.arange(n)
    acc = np.zeros(n)
    for k, jk in enumerate(jband, start=1):
        if jk == 0.0 or k >= n:
            continue
        d = samples[k:] - samples[:-k]
        d *= d
        d *= jk
        d[room[:-k] <= k] = 0.0
        acc[:-k] += d
    return 0.5 * dx * dx * np.add.reduceat(acc, starts)


# largest exponent span b dx c of one prefix-sum chunk: its weights
# e^{+-b dx t} lie in [e^-4, e^4], exact to a few ulp and far from overflow
# and underflow. Chunks shorter than _MIN_CHUNK become single samples: numpy's
# prefix sum over short rows costs more than the few extra doubling steps.
_EXP_SPAN = 4.0
_MIN_CHUNK = 16


class _ExpWeights:
    """What ``_exp_conv_open`` needs for one rate beta = b dx on n samples:
    the chunk length c, the in-chunk weights e^{beta t}, e^{-beta t} and
    e^{-beta (t + 1)}, and the carry factors (s, e^{-beta c s}) of the
    doubling recurrence for s = 1, 2, 4, ... below the chunk count, up to
    the first that underflows.

    With more than one chunk c is a power of two, so beta c s is exact and
    the error of a weight does not grow with the distance it spans. Then
    beta c > 2 if c > 1 and beta > 1/4 if c = 1, so there are at most twelve
    carry factors.
    """

    def __init__(self, n: int, beta: float):
        self.n = n
        c = n
        if beta * n > _EXP_SPAN:
            c = 1 << max(0, math.frexp(_EXP_SPAN / beta)[1] - 1)
            if c < _MIN_CHUNK:
                c = 1
        self.chunks = -(-n // c)
        t = np.arange(c)
        self.up = np.exp(beta * t)
        self.down = np.exp(-beta * t)
        self.tail = np.exp(-beta * (t + 1))
        self.carries = []
        s = 1
        while s < self.chunks:
            r = math.exp(-beta * c * s)
            if r == 0.0:
                break
            self.carries.append((s, r))
            s *= 2


def _exp_conv_open(phi: np.ndarray, w: _ExpWeights) -> np.ndarray:
    """A_i = sum_j e^{-beta |i-j|} phi_j as two prefix-sum passes.

    The left pass L_i = sum_{j<=i} e^{-beta (i-j)} phi_j is, within a chunk,
    e^{-beta t} times the prefix sum of e^{beta t} phi; the chunk ends C_k
    then take their carries by the doubling recurrence C[s:] += r^s C[:-s],
    r = e^{-beta c}, and each chunk adds C_{k-1} e^{-beta (t + 1)}. The right
    pass is the mirror image (both run as one array) and A = L + R - phi.
    With e^{-beta} = 0 there are no carries and A = phi exactly.
    """
    n, k, c = w.n, w.chunks, w.up.size
    x = np.zeros((2, k * c))
    x[0, :n] = phi
    x[1, :n] = phi[::-1]
    part = x.reshape(2, k, c)
    if c > 1:
        part = np.cumsum(part * w.up, axis=2)
        part *= w.down
    if w.carries:
        ends = part[:, :, -1].T.copy()
        for s, r in w.carries:
            ends[s:] += r * ends[:-s]
        part[:, 1:] += ends[:-1].T[:, :, None] * w.tail
    part = part.reshape(2, k * c)
    a = part[0, :n] + part[1, n - 1::-1]
    a -= phi
    return a


def _atoms(params: ModelParams, gamma: float, dx: float):
    """Per Kac atom: (weight, gradient prefactor gamma lam dx w, rate gamma
    a); none at gamma 0, the short-range functional."""
    if not 0.0 <= gamma < 1.0:
        raise ValidationError(f"gamma must lie in [0, 1), got {gamma}")
    if gamma == 0.0:
        return []
    lam = params.measure.lam
    return [(w, gamma * lam * dx * w, gamma * a) for w, a in params.measure.atoms]


def _dipole_open(phi: np.ndarray, atoms, weights) -> float:
    """sum_k w_k <phi, e^{-b_k dx |i-j|} phi> on an open interval, with the
    atoms' ``_ExpWeights``: the dipole energy over gamma lam dx^2 / 2."""
    acc = 0.0
    for (w, _, _), ew in zip(atoms, weights):
        acc += w * float(phi @ _exp_conv_open(phi, ew))
    return acc


def _torus_dipole_symbol(params: ModelParams, gamma: float, n: int,
                         dx: float) -> np.ndarray:
    """rfft symbol of phi -> gamma lam dx sum_k w_k sum_j rho_k^{|i-j|} phi_j
    on the n-cycle, images included.

    Per atom (1 - rho^2) / ((1 - rho)^2 + 4 rho sin^2(theta/2)), with
    1 - rho = -expm1(-gamma a dx), so it stays accurate as gamma dx -> 0.
    """
    s2 = np.sin(np.pi * np.arange(n // 2 + 1) / n) ** 2
    sym = np.zeros(s2.size)
    for _, pref, b in _atoms(params, gamma, dx):
        e1 = -np.expm1(-b * dx)
        sym += pref * e1 * (2.0 - e1) / (e1 * e1 + 4.0 * np.exp(-b * dx) * s2)
    return sym


def _torus_symbol(params: ModelParams, gamma: float, n: int,
                  dx: float) -> np.ndarray:
    """rfft symbol of the whole quadratic form on the n-cycle: the exchange
    pairs (i, (i+k) mod n) for every k = 1..1/dx plus the dipole.

    The exchange adds dx J_k (2 - 2 cos(k theta_m)) = 4 dx J_k sin^2(pi j/n)
    with j = k m mod n; sin^2(pi j/n) is computed once for j = 0..n-1 and
    gathered at j for each offset k.
    """
    m = np.arange(n // 2 + 1)
    s2 = np.sin(np.pi * np.arange(n) / n) ** 2
    sym = _torus_dipole_symbol(params, gamma, n, dx)
    for k, jk in enumerate(params.kernel.band(dx), start=1):
        sym += 4.0 * dx * jk * s2[k * m % n]
    return sym


# ---------------------------------------------------------------------------
# the quadratic form of one grid and boundary condition

def _out_reach(params: ModelParams, gamma: float) -> float:
    """Distance over which out-of-domain data matters (J range or v cutoff)."""
    if gamma <= 0.0:
        return 1.0
    return max(1.0, DIPOLE_CUTOFF / (gamma * params.measure.alpha_min))


class _QuadraticForm:
    """The discrete functional on one grid and bc: E = dx sum F(phi) + Q,
    Q = (dx/2) <phi, K phi> + dx <b, phi> + c and g = F'(phi) + K phi + b.
    K is the whole quadratic part of the bc, applied by ``hessian``; (b, c),
    from ``outside``, is the rest of the cross energy with fixed outside
    data (plus, minus, custom), None on the other bcs. ``quadratic`` gives
    (Q, K phi + b), to which the descent and ``energy_gradient`` add the
    well's F'. Holds only what depends on (params, gamma, n, dx, bc), never
    on samples or on custom outside data; ``_quadratic_form`` caches it.
    """

    def __init__(self, params: ModelParams, gamma: float, n: int, dx: float,
                 bc: str):
        self.params, self.n, self.dx, self.bc = params, n, dx, bc
        self.jband = params.kernel.band(dx)
        self.atoms = _atoms(params, gamma, dx)
        self.exp_weights = [_ExpWeights(n, b * dx) for _, _, b in self.atoms]
        self.dip_scale = 0.5 * gamma * params.measure.lam * dx ** 2
        self.reflected = [()] * len(self.atoms)
        self.fixed = None
        if bc == "periodic":
            self.symbol = _torus_symbol(params, gamma, n, dx)
            return
        if bc not in ("open", "plus", "minus", "neumann", "custom"):
            raise ValidationError(f"unhandled bc {bc!r}")
        # open exchange: dx (deg_i phi_i - sum_{0<|k|<=r} J_|k| phi_{i+k})
        self.jsym = np.concatenate([self.jband[::-1], [0.0], self.jband])
        self.degree = self._band(np.ones(n))
        if bc != "open":
            self._init_ends(params, gamma)

    def _init_ends(self, params: ModelParams, gamma: float):
        n, dx, r = self.n, self.dx, self.jband.size
        # exchange pairs across each end: in-sample i and outside sample j at
        # distance (i + j + 1) dx <= 1; the right end mirrors the left
        i, j = np.nonzero(np.add.outer(np.arange(r), np.arange(r)) < r)
        keep = (i < n) & (self.jband[i + j] != 0.0)
        i, j = i[keep], j[keep]
        self.pair_in = np.concatenate([i, n - 1 - i])
        self.pair_w = np.tile(self.jband[i + j], 2)
        # per atom, the in-domain decay exp(-b dx (i + 1/2)) from the left end
        x = np.arange(n) + 0.5
        self.decay = [np.exp(-b * dx * x) for _, _, b in self.atoms]
        if self.bc == "neumann":
            # outside sample j is the in-sample it reflects to (period 2n),
            # and an atom's reflected outside sum is phi . c, c summed over
            # the 2n period
            m = j % (2 * n)
            src = np.where(m < n, m, 2 * n - 1 - m)
            self.pair_out = np.concatenate([src, n - 1 - src])
            self.reflected = []
            for (_, _, b), d_l in zip(self.atoms, self.decay):
                c_l = (d_l + np.exp(-b * dx * (2 * n - x))) / -np.expm1(
                    -2 * n * b * dx)
                self.reflected.append(((d_l, c_l), (d_l[::-1], c_l[::-1])))
            return
        # (dx^2/2) w (phi_i - o)^2 puts w on the diagonal, so every degree is
        # the full 2 sum_k J_k; the rest is linear in phi
        self.degree += np.bincount(self.pair_in, self.pair_w, n)
        self.pair_out = np.concatenate([j, r + j])   # left values, then right
        self.n_out = int(np.ceil(_out_reach(params, gamma) / dx))
        if self.bc == "custom":
            self.out_decay = [np.exp(-b * dx * (np.arange(self.n_out) + 0.5))
                              for _, _, b in self.atoms]
            return
        # outside sums of +-m_beta: +-m_beta sum_{j>=0} e^{-b dx (j + 1/2)}
        m = -params.m_beta if self.bc == "minus" else params.m_beta
        t = [m * np.exp(-0.5 * b * dx) / -np.expm1(-b * dx)
             for _, _, b in self.atoms]
        self.fixed = self._linear_term(np.full(2 * r, m), zip(t, t))

    def _linear_term(self, near: np.ndarray, sums) -> Tuple[np.ndarray, float]:
        """(b, c) of fixed outside data from the near outside values o (left
        r, then right r) and per atom the outside sums (t_l, t_r), the data
        against their decay from each end:
        b = -dx sum_pairs w o e_in + sum_atoms pref (t_l d_l + t_r d_r),
        c = (dx^2/2) sum_pairs w o^2."""
        o = near[self.pair_out]
        wo = self.pair_w * o
        b = -self.dx * np.bincount(self.pair_in, wo, self.n)
        for (_, pref, _), d_l, (t_l, t_r) in zip(self.atoms, self.decay, sums):
            b += pref * (t_l * d_l + t_r * d_l[::-1])
        return b, 0.5 * self.dx * self.dx * float(wo @ o)

    def outside(self, profile: GridProfile
                ) -> Optional[Tuple[np.ndarray, float]]:
        """The linear term (b, c) of ``profile``'s outside data: built once
        for plus and minus, from the profile's out samples for custom, None
        for open, periodic and neumann."""
        if self.bc != "custom":
            return self.fixed
        left, right = profile.out_left, profile.out_right
        if left is None or right is None:
            raise MissingBoundaryData("custom bc requires out_left/out_right")
        if left.size < self.n_out or right.size < self.n_out:
            raise MissingBoundaryData(
                f"custom bc needs {self.n_out} out samples per side "
                f"(reach {self.n_out * self.dx:.3g}), got "
                f"{left.size}/{right.size}")
        left, right = left[:self.n_out], right[:self.n_out]
        r = self.jband.size
        return self._linear_term(
            np.concatenate([left[:r], right[:r]]),
            [(float(left @ e), float(right @ e)) for e in self.out_decay])

    def _band(self, phi: np.ndarray) -> np.ndarray:
        r = self.jband.size
        return np.convolve(phi, self.jsym)[r:r + self.n]

    def hessian(self, d: np.ndarray) -> np.ndarray:
        """K d, one application of K: Q(phi + d) = Q + dx <gq, d> +
        (dx/2) <d, K d> and gq(phi + d) = gq + K d exactly."""
        if self.bc == "periodic":
            x = rfft(d)
            x *= self.symbol
            return irfft(x, self.n)
        kd = self.dx * (self.degree * d - self._band(d))
        if self.bc == "neumann":
            wd = self.pair_w * (d[self.pair_in] - d[self.pair_out])
            kd += self.dx * (np.bincount(self.pair_in, wd, self.n)
                             - np.bincount(self.pair_out, wd, self.n))
        for (_, pref, _), ew, ends in zip(self.atoms, self.exp_weights,
                                          self.reflected):
            kd += pref * _exp_conv_open(d, ew)
            for u, c in ends:
                kd += pref * (float(d @ c) * u + float(d @ u) * c)
        return kd

    def quadratic(self, phi, outside: Optional[Tuple[np.ndarray, float]]
                  ) -> Tuple[float, np.ndarray]:
        """(Q, gq), Q = (dx/2) <phi, K phi> + dx <b, phi> + c and
        gq = K phi + b, from one application of K; ``outside`` is the (b, c)
        that ``outside`` returned, None for none."""
        gq = self.hessian(phi)
        q = 0.5 * self.dx * float(phi @ gq)
        if outside is not None:
            b, c = outside
            q += self.dx * float(phi @ b) + c
            gq += b
        return q, gq

    def breakdown(self, profile: GridProfile) -> EnergyBreakdown:
        """``total_energy``'s terms: in-domain exchange and dipole as on an
        open interval, boundary the rest of Q (0.0 on an open interval)."""
        phi, dx = profile.samples, self.dx
        f = _well_parts(phi, *_extremes(phi), self.params)[0]
        local = dx * float(np.sum(f))
        exchange = float(_exchange_banded(phi, self.jband, dx)[0])
        dipole = self.dip_scale * _dipole_open(phi, self.atoms,
                                               self.exp_weights)
        boundary = 0.0
        if self.bc != "open":
            q = self.quadratic(phi, self.outside(profile))[0]
            boundary = q - exchange - dipole
        return EnergyBreakdown(local=local, exchange=exchange, dipole=dipole,
                               boundary=boundary)


@lru_cache(maxsize=16)
def _quadratic_form(params: ModelParams, gamma: float, n: int, dx: float,
                    bc: str) -> _QuadraticForm:
    return _QuadraticForm(params, gamma, n, dx, bc)


# ---------------------------------------------------------------------------
# short-range (gamma = 0) energy

def short_range_energy(params: ModelParams, profile: GridProfile,
                       interval: Optional[Tuple[float, float]] = None) -> float:
    """Internal energy of the interval: local term plus exchange, open ends.
    The interval's ends are cut by ``profiles._block_cuts``."""
    cuts = ((0, profile.n) if interval is None
            else _block_cuts(profile, interval))
    if cuts[1] <= cuts[0]:
        return 0.0
    return float(_block_energies(params, profile, cuts)[0])


def _block_energies(params: ModelParams, profile: GridProfile,
                    cuts) -> np.ndarray:
    """``short_range_energy`` of each block samples[cuts[b]:cuts[b + 1]]:
    one well pass and one band pass per offset."""
    seg = profile.samples[cuts[0]:cuts[-1]]
    starts = np.asarray(cuts[:-1]) - cuts[0]
    f = _well_parts(seg, *_extremes(seg), params)[0]
    local = profile.dx * np.add.reduceat(f, starts)
    return local + _exchange_banded(seg, params.kernel.band(profile.dx),
                                    profile.dx, starts)


# ---------------------------------------------------------------------------
# dipole energy on grids

def dipole_energy(params: ModelParams, profile: GridProfile,
                  gamma: Optional[float] = None) -> float:
    """(gamma/2) double integral of phi v(gamma(x-y)) phi over [0, L]^2.

    O(N) per atom via the prefix-sum passes, with the weights of the cached
    open-interval form; ignores boundary conditions.
    """
    gamma = params.gamma if gamma is None else gamma
    if gamma == 0.0:
        return 0.0
    form = _quadratic_form(params, gamma, profile.n, profile.dx, "open")
    return form.dip_scale * _dipole_open(profile.samples, form.atoms,
                                         form.exp_weights)


# ---------------------------------------------------------------------------
# total energy and its gradient

def total_energy(params: ModelParams, profile: GridProfile,
                 gamma: Optional[float] = None) -> EnergyBreakdown:
    """Full energy under the profile's boundary condition.

    ``exchange`` and ``dipole`` are the in-domain terms as on an open
    interval; ``boundary`` holds the rest. Open bc has zero boundary term.
    Periodic bc uses the torus kernels, every exchange offset k = 1..1/dx
    taken mod N and the dipole summed over all images; the wrap
    contributions are the boundary term. The other bcs add cross terms
    against the constant / reflected / user-supplied extension.
    """
    gamma = params.gamma if gamma is None else gamma
    return _quadratic_form(params, gamma, profile.n, profile.dx,
                           profile.bc).breakdown(profile)


def energy_gradient(params: ModelParams, profile: GridProfile,
                    gamma: Optional[float] = None) -> np.ndarray:
    """g_i = dE/dphi_i / dx, the discrete first variation: K phi + b from
    ``_QuadraticForm.quadratic`` plus F'(phi), as the descent assembles it.

    Matches central finite differences of ``total_energy``; the neumann case
    differentiates through the reflected extension.
    """
    gamma = params.gamma if gamma is None else gamma
    form = _quadratic_form(params, gamma, profile.n, profile.dx, profile.bc)
    g = form.quadratic(profile.samples, form.outside(profile))[1]
    g += _well(profile.samples, params)[1]
    return g


# ---------------------------------------------------------------------------
# step profiles: exact dipole and the effective functional

# the starts of a lone step profile as one cell
_ONE_CELL = np.zeros(1, dtype=int)

# 1/k!, k = 2..16: Taylor series of e^x - 1 - x, exact to rounding for |x| <= 0.5
_TAYLOR = np.array([1.0 / math.factorial(k) for k in range(2, 17)])


def _self_integrals(b: float, w: np.ndarray) -> np.ndarray:
    """Per piece of width w, x = b w, the integral of exp(-b|x-y|) over the
    piece squared, (2/b^2)(e^{-x} - 1 + x): its Taylor series up to x = 1/2,
    the closed form, free of cancellation, above. The series is summed by
    Horner's rule, piece by piece, so a piece's value does not depend on the
    batch it is scored in."""
    x = b * w
    series, t = 0.0, -x
    for c in _TAYLOR[::-1]:
        series = series * t + c
    return (2.0 / b / b) * np.where(x > 0.5, x + np.expm1(t), series * x * x)


def _cell_recursion(r: np.ndarray, u: np.ndarray, starts: np.ndarray,
                    span: int) -> np.ndarray:
    """T_j = sum_i u_i r_{i+1} ... r_{j-1} over the pieces i < j of j's cell,
    that is T_{j+1} = r_j T_j + u_j with T = 0 at each cell start.

    The recursion runs as a doubling scan of its affine steps T -> A T + B:
    log2(span) array passes for cells of at most ``span`` pieces. The decay
    products A only shrink. For u >= 0 (a one-sign cell) nothing cancels; for
    signed u (a whole step profile) T is exact to rounding relative to |u|'s.
    """
    A, B = np.empty_like(r), np.empty_like(u)
    A[1:], B[1:] = r[:-1], u[:-1]
    A[starts] = B[starts] = 0.0
    s = 1
    while s < span:
        B[s:] += A[s:] * B[:-s]
        A[s:] = A[s:] * A[:-s]      # *= on overlapping slices copies first
        s *= 2
    return B


def _cell_integrals(a: float, values: np.ndarray, lefts: np.ndarray,
                    rights: np.ndarray, starts: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per cell, the pair integrals of the kernel e^{-a|x-y|}, in one pass.

    ``values[j]`` sits on [lefts[j], rights[j]); cell c holds the pieces
    starts[c] to starts[c+1] - 1 (starts[0] = 0, the last runs to the end),
    each cell's pieces adjacent in one frame of coordinates. Cells may take
    different frames (one per step profile of a corpus, say), so a cell's
    numbers do not depend on the cells beside it. With x from the cell's
    left wall, h its length, w_j the piece widths and
    u_j = v_j (1 - e^{-a w_j})/a, returns per cell, in decaying exponentials
    only,

        I  = int int sigma sigma e^{-a|x-y|} = sum_j (v_j^2 S_j + 2 u_j T_j),
        Sp = int sigma e^{-ax} = sum_j u_j e^{-a x_j},
        Sq = int sigma e^{-a(h-x)} = sum_j u_j e^{-a(h - x_{j+1})},

    S from ``_self_integrals`` and T from ``_cell_recursion``.
    """
    stops = np.append(starts[1:], values.size)
    counts = stops - starts
    cell = np.repeat(np.arange(starts.size), counts)
    widths = rights - lefts
    u = values * -np.expm1(-a * widths) / a
    t = _cell_recursion(np.exp(-a * widths), u, starts, int(counts.max()))
    pairs = np.add.reduceat(
        values * values * _self_integrals(a, widths) + 2.0 * u * t, starts)
    sp = np.add.reduceat(u * np.exp(a * (lefts[starts][cell] - lefts)),
                         starts)
    sq = np.add.reduceat(u * np.exp(a * (rights - rights[stops - 1][cell])),
                         starts)
    return pairs, sp, sq


def _step_dipoles(params: ModelParams, gamma: float, values: np.ndarray,
                  lefts: np.ndarray, rights: np.ndarray, starts: np.ndarray,
                  period=None) -> np.ndarray:
    """Exact (gamma/2) dipole energy of each cell of ``_cell_integrals`` as a
    step profile of its own: open, or with ``period`` (the cells' lengths)
    on the torus.

    Per atom, b = gamma alpha, the open energy is (gamma lam w/2) I. The
    torus kernel is the image sum (e^{-b|d|} + e^{-b(L-|d|)})/(1 - E),
    E = e^{-bL}. Splitting Sp Sq at x < y and x > y gives
    Sp Sq = W/2 + E I/2, W the integral of e^{-b(L-|x-y|)}, so the torus
    takes (I + W)/(1 - E) = I + 2 Sp Sq/(1 - E).
    """
    acc = np.zeros(starts.size)
    if not 0.0 <= gamma < 1.0:
        raise ValidationError(f"gamma must lie in [0, 1), got {gamma}")
    if gamma == 0.0:
        return acc
    for w_k, a_k in params.measure.atoms:
        b = gamma * a_k
        pairs, sp, sq = _cell_integrals(b, values, lefts, rights, starts)
        if period is not None:
            pairs = pairs + 2.0 * sp * sq / -np.expm1(-b * period)
        acc += w_k * pairs
    return 0.5 * gamma * params.measure.lam * acc


def _step_terms(params: ModelParams, gamma: float, values: np.ndarray,
                lefts: np.ndarray, rights: np.ndarray, starts: np.ndarray,
                period=None) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``tilde_energy``'s well, surface and dipole terms of each cell of
    ``_cell_integrals`` as a step profile of its own, open or (``period``
    given) periodic. The surface term is tau per ``_interfaces``."""
    tau = params.require_tau()
    well = np.add.reduceat((rights - lefts) * eval_tilde_F(values, params),
                           starts)
    jumps = _interfaces(values, starts, period is not None)
    dip = _step_dipoles(params, gamma, values, lefts, rights, starts, period)
    return well, tau * jumps, dip


def step_dipole_energy(params: ModelParams, step: StepProfile,
                       gamma: Optional[float] = None,
                       bc: str = "open") -> float:
    """Exact (gamma/2) dipole energy of a step profile, open or periodic: the
    profile as the one cell of ``_step_dipoles``."""
    gamma = params.gamma if gamma is None else gamma
    periodic = _step_periodic(bc)
    if gamma == 0.0:
        return 0.0
    bp = step.breakpoints
    return float(_step_dipoles(params, gamma, step.values, bp[:-1], bp[1:],
                               _ONE_CELL, step.L if periodic else None)[0])


def tilde_energy(params: ModelParams, step: StepProfile,
                 gamma: Optional[float] = None, bc: str = "open",
                 breakdown: bool = False):
    """Effective functional: well term + tau per interface + dipole.

    The surface part is tau times ``step.n_jumps``: the boundaries between
    neighbouring sign runs of opposite nonzero signs (across the seam too
    for periodic bc). Without zero pieces that is (tau/2) * total variation
    of sigma/|sigma|; a zero piece (outside K) carries no interface, so
    +m, 0, -m costs no tau. Computed in closed form, the profile as the one
    cell of ``_step_terms``; no quadrature.
    """
    gamma = params.gamma if gamma is None else gamma
    periodic = _step_periodic(bc)
    bp = step.breakpoints
    well, surface, dip = (float(x[0]) for x in _step_terms(
        params, gamma, step.values, bp[:-1], bp[1:], _ONE_CELL,
        step.L if periodic else None))
    if step.m_bar is not None and not step.in_K:
        warnings.warn("step profile leaves K (some |value| < m_bar)",
                      stacklevel=2)
    if breakdown:
        return well + surface + dip, {"well": well, "surface": surface,
                                      "dipole": dip, "in_K": step.in_K}
    return well + surface + dip
