"""The quadratic form with its outside cross terms on the side, kept as the
oracle for ``froth1d.energy._QuadraticForm``.

``_QuadraticForm`` below is the library's earlier implementation, verbatim:
K was the open-interval operator (exchange band and dipole) or the torus
one, and ``_init_boundary`` / ``_boundary`` added the cross energy with the
outside data and its gradient, per bc, at every evaluation; ``hessian``
patched K per bc. The library now puts the whole quadratic part in K and
fixed outside data in one linear term; both must give the same Q, gradient
and Hessian product to rounding.
"""

from typing import Tuple

import numpy as np
from numpy.fft import irfft, rfft

from froth1d.energy import (EnergyBreakdown, _atoms, _dipole_open,
                            _exchange_banded, _exp_conv_open, _ExpWeights,
                            _out_reach, _torus_symbol)
from froth1d.errors import MissingBoundaryData, ValidationError
from froth1d.model import ModelParams, _well
from froth1d.profiles import GridProfile


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
