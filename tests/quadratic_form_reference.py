"""The quadratic form with its outside cross terms on the side, kept as the
oracle for ``froth1d.energy._QuadraticForm``.

``_QuadraticForm`` below is the library's earlier implementation, verbatim:
K was the open-interval operator (exchange band and dipole) or the torus
one, and ``_init_boundary`` / ``_boundary`` added the cross energy with the
outside data and its gradient, per bc, at every evaluation; ``hessian``
patched K per bc. The library now puts the whole quadratic part in K and
fixed outside data in one linear term; both must give the same Q, gradient
and Hessian product to rounding.

The helpers it builds on (the exchange band, the exponential convolutions,
the torus symbol and the out-of-domain reach) are copied verbatim from the
library of the same time, so the oracle does not change along with the code
it checks.
"""

import math
from typing import Tuple

import numpy as np
from numpy.fft import irfft, rfft

from froth1d.energy import EnergyBreakdown
from froth1d.errors import MissingBoundaryData, ValidationError
from froth1d.model import ModelParams, _well
from froth1d.profiles import GridProfile

DIPOLE_CUTOFF = 46.0


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
    """Per Kac atom: (weight, gradient prefactor gamma lam dx w, rate gamma a)."""
    if gamma <= 0.0:
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


def _out_reach(params: ModelParams, gamma: float) -> float:
    """Distance over which out-of-domain data matters (J range or v cutoff)."""
    if gamma <= 0.0:
        return 1.0
    return max(1.0, DIPOLE_CUTOFF / (gamma * params.measure.alpha_min))




class _QuadraticForm:
    """Energy and gradient of the discrete functional on one grid and bc.

    E = dx sum F(phi) + (dx/2) <phi, K phi> + (cross terms with the outside
    data), g = F'(phi) + K phi + (their gradient), from one application of K.
    Holds only what depends on (params, gamma, n, dx, bc), never on samples
    or on custom outside data; ``_quadratic_form`` caches it.
    """

    def __init__(self, params: ModelParams, gamma: float, n: int, dx: float,
                 bc: str):
        self.params, self.n, self.dx, self.bc = params, n, dx, bc
        self.jband = params.kernel.band(dx)
        self.atoms = _atoms(params, gamma, dx)
        self.exp_weights = [_ExpWeights(n, b * dx) for _, _, b in self.atoms]
        self.dip_scale = 0.5 * gamma * params.measure.lam * dx ** 2
        if bc == "periodic":
            self.symbol = _torus_symbol(params, gamma, n, dx)
            return
        if bc not in ("open", "plus", "minus", "neumann", "custom"):
            raise ValidationError(f"unhandled bc {bc!r}")
        # open exchange: dx (deg_i phi_i - sum_{0<|k|<=r} J_|k| phi_{i+k})
        self.jsym = np.concatenate([self.jband[::-1], [0.0], self.jband])
        self.degree = self._band(np.ones(n))
        if bc != "open":
            self._init_boundary(params, gamma)

    def _init_boundary(self, params: ModelParams, gamma: float):
        n, dx, bc = self.n, self.dx, self.bc
        r = self.jband.size
        # exchange pairs across each end: in-sample i and outside sample j at
        # distance (i + j + 1) dx <= 1; the right end mirrors the left
        i, j = np.nonzero(np.add.outer(np.arange(r), np.arange(r)) < r)
        keep = (i < n) & (self.jband[i + j] != 0.0)
        i, j = i[keep], j[keep]
        self.pair_in = np.concatenate([i, n - 1 - i])
        self.pair_w = np.tile(self.jband[i + j], 2)
        if bc == "neumann":
            # outside sample j is the in-sample it reflects to (period 2n)
            m = j % (2 * n)
            src = np.where(m < n, m, 2 * n - 1 - m)
            self.pair_out = np.concatenate([src, n - 1 - src])
        else:
            # index into the outside values, left ones first
            self.pair_out = np.concatenate([j, r + j])
        sign = -1.0 if bc == "minus" else 1.0
        self.outside = np.full(2 * r, sign * params.m_beta)   # plus, minus
        self.n_out = int(np.ceil(_out_reach(params, gamma) / dx))
        # per atom: in-domain decay exp(-b dx (i + 1/2)) from the left end,
        # and what the outside sum needs besides it
        x = np.arange(n) + 0.5
        self.decay = []
        for _, _, b in self.atoms:
            din = np.exp(-b * dx * x)
            if bc == "neumann":
                # reflected outside sum = phi . c, c summed over the 2n period
                extra = (din + np.exp(-b * dx * (2 * n - x))) / -np.expm1(
                    -2 * n * b * dx)
            elif bc == "custom":
                extra = np.exp(-b * dx * (np.arange(self.n_out) + 0.5))
            else:
                # sum over j >= 0 of +-m_beta exp(-b dx (j + 1/2))
                extra = sign * params.m_beta * np.exp(-0.5 * b * dx) / -np.expm1(
                    -b * dx)
            self.decay.append((din, extra))

    def _boundary(self, phi, profile: GridProfile, g: np.ndarray) -> float:
        """Cross energy with the outside data; adds its gradient to g."""
        dx, n = self.dx, self.n
        neumann = self.bc == "neumann"
        if neumann:
            outside = phi
        elif self.bc == "custom":
            left, right = profile.out_left, profile.out_right
            if left is None or right is None:
                raise MissingBoundaryData("custom bc requires out_left/out_right")
            if left.size < self.n_out or right.size < self.n_out:
                raise MissingBoundaryData(
                    f"custom bc needs {self.n_out} out samples per side "
                    f"(reach {self.n_out * dx:.3g}), got "
                    f"{left.size}/{right.size}")
            left, right = left[:self.n_out], right[:self.n_out]
            r = self.jband.size
            outside = np.concatenate([left[:r], right[:r]])
        else:
            outside = self.outside
        d = phi[self.pair_in] - outside[self.pair_out]
        wd = self.pair_w * d
        cross = 0.5 * dx * dx * float(wd @ d)
        g += dx * np.bincount(self.pair_in, wd, n)
        if neumann:
            g -= dx * np.bincount(self.pair_out, wd, n)
        for (_, pref, _), (d_l, extra) in zip(self.atoms, self.decay):
            d_r = d_l[::-1]
            u_l, u_r = float(phi @ d_l), float(phi @ d_r)
            if neumann:
                c_l, c_r = extra, extra[::-1]
                t_l, t_r = float(phi @ c_l), float(phi @ c_r)
                g += pref * (t_l * d_l + u_l * c_l + t_r * d_r + u_r * c_r)
            elif self.bc == "custom":
                t_l, t_r = float(left @ extra), float(right @ extra)
                g += pref * (t_l * d_l + t_r * d_r)
            else:
                t_l = t_r = extra
                g += pref * extra * (d_l + d_r)
            cross += dx * pref * (u_l * t_l + u_r * t_r)
        return cross

    def _band(self, phi: np.ndarray) -> np.ndarray:
        r = self.jband.size
        return np.convolve(phi, self.jsym)[r:r + self.n]

    def _apply(self, phi: np.ndarray) -> np.ndarray:
        """K phi: exchange band plus dipole, on the torus or in [0, L]."""
        if self.bc == "periodic":
            return irfft(self.symbol * rfft(phi), self.n)
        kphi = self.dx * (self.degree * phi - self._band(phi))
        for (_, pref, _), ew in zip(self.atoms, self.exp_weights):
            kphi += pref * _exp_conv_open(phi, ew)
        return kphi

    def quadratic(self, phi, profile: GridProfile) -> Tuple[float, np.ndarray]:
        """(Q, gq): the quadratic part Q = (dx/2) <phi, K phi> + (cross terms
        with the outside data of ``profile``) of E and its gradient
        gq = K phi + (theirs), from one application of K."""
        gq = self._apply(phi)
        q = 0.5 * self.dx * float(phi @ gq)
        if self.bc not in ("open", "periodic"):
            q += self._boundary(phi, profile, gq)
        return q, gq

    def hessian(self, d: np.ndarray) -> np.ndarray:
        """H d for H = K plus the linear part of the cross terms' gradient, so
        that Q(phi + d) = Q + dx <gq, d> + (dx/2) <d, H d> and
        gq(phi + d) = gq + H d exactly; one application of K."""
        hd = self._apply(d)
        if self.bc == "neumann":
            # the reflected cross terms are quadratic in phi: their gradient
            # at d is their Hessian product
            self._boundary(d, None, hd)
        elif self.bc not in ("open", "periodic"):
            # against fixed outside data only the exchange cross diagonal
            hd += self.dx * np.bincount(self.pair_in,
                                        self.pair_w * d[self.pair_in], self.n)
        return hd

    def __call__(self, phi, profile: GridProfile) -> Tuple[float, np.ndarray]:
        """(E, g) of samples phi in [-1, 1] with the grid and outside data of
        ``profile``; g_i = dE/dphi_i / dx."""
        q, g = self.quadratic(phi, profile)
        f, fp = _well(phi, self.params)
        g += fp
        return self.dx * float(np.sum(f)) + q, g

    def breakdown(self, profile: GridProfile) -> EnergyBreakdown:
        """``total_energy``'s terms: in-domain exchange and dipole as on an
        open interval, boundary the rest."""
        phi, dx = profile.samples, self.dx
        local = dx * float(np.sum(_well(phi, self.params)[0]))
        exchange = float(_exchange_banded(phi, self.jband, dx)[0])
        dipole = self.dip_scale * _dipole_open(phi, self.atoms,
                                               self.exp_weights)
        if self.bc == "open":
            boundary = 0.0
        elif self.bc == "periodic":
            torus = 0.5 * dx * float(phi @ self._apply(phi))
            boundary = torus - exchange - dipole
        else:
            boundary = self._boundary(phi, profile, np.zeros(self.n))
        return EnergyBreakdown(local=local, exchange=exchange, dipole=dipole,
                               boundary=boundary)
