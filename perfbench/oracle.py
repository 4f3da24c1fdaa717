"""Reference computations made without the froth1d package.

Everything here is written from the definitions (midpoint sums, the double
well, the quartic exchange bump, exponential atoms) so that the benchmark can
check the program's outputs against numbers it did not produce. The sums are
dense, O(N^2) or O(N * extension), and are only ever run outside the timed
region.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq, minimize_scalar

# Distance, in units of 1/(gamma * alpha_min), beyond which exp(-gamma alpha d)
# is below 1e-20: the out-of-domain data further away changes no digit.
REACH = 46.0


class Model:
    """The functional's parameters, read from the JSON model document."""

    def __init__(self, doc: dict):
        self.beta = float(doc["beta"])
        self.j0 = float(doc["J0_hat"])
        self.lam = float(doc["lambda"])
        self.atoms = [(float(a["weight"]), float(a["alpha"]))
                      for a in doc["measure"]]
        bj = self.beta * self.j0
        self.m = brentq(lambda m: m - math.tanh(bj * m), 1e-6, 1.0,
                        xtol=1e-16, rtol=1e-15)

    def _a(self, t):
        p = (1.0 + t) / 2.0
        q = (1.0 - t) / 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            ent = (np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
                   + np.where(q > 0.0, q * np.log(np.where(q > 0.0, q, 1.0)), 0.0))
        return -0.5 * self.j0 * t * t + ent / self.beta

    def F(self, t):
        """Double well a(t) - a(m_beta)."""
        return self._a(np.asarray(t, dtype=float)) - self._a(np.float64(self.m))

    def J(self, d):
        """Quartic exchange bump (15/16) J0 (1 - d^2)^2 on [-1, 1]."""
        d = np.asarray(d, dtype=float)
        return np.where(np.abs(d) <= 1.0,
                        (15.0 / 16.0) * self.j0 * (1.0 - d * d) ** 2, 0.0)

    def v(self, d, gamma):
        """Kac kernel lambda sum_k w_k exp(-alpha_k gamma |d|)."""
        d = np.abs(np.asarray(d, dtype=float))
        out = np.zeros_like(d)
        for w, a in self.atoms:
            out += w * np.exp(-a * gamma * d)
        return self.lam * out

    def v_torus(self, d, gamma, L):
        """Kac kernel summed over all periodic images d + kL, in closed form:
        one geometric series per exponential atom."""
        dt = np.abs(np.asarray(d, dtype=float)) % L
        out = np.zeros_like(dt)
        for w, a in self.atoms:
            b = a * gamma
            out += w * (np.exp(-b * dt) + np.exp(-b * (L - dt))) / -math.expm1(-b * L)
        return self.lam * out

    def n_out(self, gamma: float, dx: float) -> int:
        alpha_min = min(a for _, a in self.atoms)
        return int(math.ceil(max(1.0, REACH / (gamma * alpha_min)) / dx))

    # -- sharp interface ---------------------------------------------------

    def e_of_h(self, h, gamma, tau):
        """Closed-form energy per length of the +-m_beta square wave."""
        lr = 0.0
        for w, a in self.atoms:
            x = 0.5 * a * gamma * h
            lr += (w / a) * (1.0 - math.tanh(x) / x)
        return tau / h + self.lam * self.m ** 2 * lr

    def h_star(self, gamma, tau):
        """(h*, e(h*)) by bounded scalar minimisation of e(h)."""
        res = minimize_scalar(lambda h: self.e_of_h(h, gamma, tau),
                              bounds=(gamma ** (-1.0 / 3.0), 1.0 / gamma),
                              method="bounded",
                              options={"xatol": 1e-10, "maxiter": 2000})
        return float(res.x), float(res.fun)

    def h_star_asym(self, gamma, tau):
        """Leading-order law (6 tau / (|v'(0)| m^2))^(1/3) gamma^(-2/3)."""
        vp = self.lam * sum(w * a for w, a in self.atoms)
        return (6.0 * tau / (vp * self.m ** 2)) ** (1.0 / 3.0) * gamma ** (-2.0 / 3.0)

    # -- instanton -----------------------------------------------------------

    def _padded(self, q, dx):
        r = int(round(1.0 / dx))
        return np.concatenate([np.full(r, -self.m), q, np.full(r, self.m)]), r

    def instanton_residual(self, q, dx):
        """max |q - tanh(beta J*q)| with q = -+m_beta outside the window."""
        ext, r = self._padded(q, dx)
        conv = np.zeros(q.size)
        for k in range(-r, r + 1):
            conv += self.J(k * dx) * ext[r + k:r + k + q.size]
        return float(np.max(np.abs(q - np.tanh(self.beta * dx * conv))))

    def surface_tension(self, q, dx):
        """Short-range energy of the interface with flat -+m_beta extension."""
        ext, r = self._padded(q, dx)
        acc = math.fsum(float(self.J(k * dx))
                        * float(np.sum((ext[k:] - ext[:-k]) ** 2))
                        for k in range(1, r + 1))
        return float(dx * np.sum(self.F(q))) + 0.5 * dx * dx * acc


def extension(samples, bc, n_out, m, out_left=None, out_right=None):
    """Outside samples (left read away from 0, right away from L) for a bc."""
    n = samples.size
    if bc in ("plus", "minus"):
        side = np.full(n_out, m if bc == "plus" else -m)
        return side, side
    if bc == "custom":
        return np.asarray(out_left[:n_out]), np.asarray(out_right[:n_out])
    if bc == "neumann":
        # even reflection about 0 and about L: the extension has period 2L;
        # cell p of the infinite grid reads sample p mod 2N, folded back
        def fold(p):
            p = np.mod(p, 2 * n)
            return samples[np.where(p < n, p, 2 * n - 1 - p)]
        j = np.arange(n_out)
        return fold(-(j + 1)), fold(n + j)
    raise ValueError(f"no extension for bc {bc!r}")


def dense_energies(model: Model, profiles, dx, gamma, periodic=False,
                   chunk=4096):
    """Midpoint double sums of the full functional, pair by pair.

    ``profiles`` is a list of (samples, left, right) on one grid; ``left`` and
    ``right`` are the outside samples from ``extension`` (None for open or
    periodic bc). Periodic: every pair on the torus, the Kac kernel summed
    over all periodic images (``Model.v_torus``). Otherwise the sums run
    over the extended domain, pairs with one end outside counted in both
    orders. Kernel values are computed once per chunk of pairs and shared by
    all profiles.
    """
    phis = np.array([p[0] for p in profiles], dtype=float)
    n = phis.shape[1]
    x = (np.arange(n) + 0.5) * dx
    L = n * dx
    parts = [[float(dx * np.sum(model.F(phi)))] for phi in phis]
    rows = max(1, chunk * 128 // n)
    for lo in range(0, n, rows):
        sl = slice(lo, lo + rows)
        d = x[sl, None] - x[None, :]
        if periodic:
            dt = np.abs(d) % L
            jk = model.J(np.minimum(dt, L - dt))
        else:
            jk = model.J(d)
        if gamma > 0.0:
            kern = model.v_torus(d, gamma, L) if periodic else model.v(d, gamma)
            quad = np.sum((phis[:, sl] @ kern) * phis, axis=1)
        for p, phi in enumerate(phis):
            parts[p].append(0.25 * dx * dx * float(np.sum(
                jk * (phi[sl, None] - phi[None, :]) ** 2)))
            if gamma > 0.0:
                parts[p].append(0.5 * gamma * dx * dx * float(quad[p]))
    outside = [p for p in range(len(profiles)) if profiles[p][1] is not None]
    if outside:
        n_out = len(profiles[outside[0]][1])
        j = np.arange(n_out)
        for side, y_all in ((1, -(j + 0.5) * dx), (2, L + (j + 0.5) * dx)):
            psis = np.array([profiles[p][side] for p in outside], dtype=float)
            for lo in range(0, n_out, chunk):
                y = y_all[lo:lo + chunk]
                psi = psis[:, lo:lo + chunk]
                dd = x[:, None] - y[None, :]
                near = np.min(np.abs(dd)) <= 1.0
                jk = model.J(dd) if near else None
                if gamma > 0.0:
                    cross = np.sum((phis[outside] @ model.v(dd, gamma)) * psi,
                                   axis=1)
                for q, p in enumerate(outside):
                    if near:
                        parts[p].append(0.5 * dx * dx * float(np.sum(
                            jk * (phis[p][:, None] - psi[q][None, :]) ** 2)))
                    if gamma > 0.0:
                        parts[p].append(gamma * dx * dx * float(cross[q]))
    return [math.fsum(part) for part in parts]


def read_profile(text: str):
    """Parse the profile text format: (L, dx, bc, headers, samples)."""
    head = {}
    samples = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 2:
            head[parts[0]] = parts[1]
        else:
            samples.append(float(parts[0]))
    extra = {k: float(v) for k, v in head.items() if k not in ("L", "dx", "bc")}
    return (float(head["L"]), float(head["dx"]), head["bc"], extra,
            np.array(samples))


def block_mean(samples, dx, a, b) -> float:
    """Mean of the samples whose cells tile [a, b]."""
    i, j = int(round(a / dx)), int(round(b / dx))
    return math.fsum(samples[i:j]) / (j - i)
