"""Dense and image-sum reference evaluations, kept as test oracles.

``dipole_energy_direct`` is the O(N^2) midpoint sum that
``froth1d.energy.dipole_energy`` evaluates in O(N) per atom, and
``tilde_v_kernel_direct`` the truncated image sum that
``froth1d.sharp.tilde_v_kernel`` resums in closed form. Both are the
library's earlier public implementations, verbatim. ``dense_energy`` is the
whole functional as O(N^2) double sums under every bc, its well taken per
sample with ``math.log1p``.

The mean-slice projection has two oracles that share no code with
``froth1d``: ``check_mean_projection`` tests a result against the KKT
conditions of the projection, and ``ref_project_mean_box`` is a second
algorithm, the knot formula that the library used before variable fixing.
"""

import math
from typing import Optional

import numpy as np

from froth1d.model import KacMeasure, ModelParams
from froth1d.profiles import GridProfile


def dipole_energy_direct(params: ModelParams, profile: GridProfile,
                         gamma: Optional[float] = None) -> float:
    """O(N^2) reference evaluation of the same midpoint sum."""
    gamma = params.gamma if gamma is None else gamma
    if gamma <= 0.0:
        return 0.0
    x = profile.x
    kern = params.measure.v(gamma * (x[:, None] - x[None, :]))
    return 0.5 * gamma * profile.dx ** 2 * float(
        profile.samples @ kern @ profile.samples)


def tilde_v_kernel_direct(h: float, gamma: float, x, y, measure: KacMeasure,
                          n_max: int = 60):
    """Truncated image-sum definition (|n| <= n_max), the reference oracle."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    total = np.zeros(np.broadcast(x, y).shape)
    for n in range(-n_max, n_max + 1):
        total = total + (measure.v(gamma * (2 * n * h + y - x))
                         - measure.v(gamma * (2 * n * h + y + x)))
    out = gamma * total
    return out if np.ndim(out) else float(out)


def well_direct(t, params: ModelParams) -> np.ndarray:
    """F(t) = a(t) - a(m_beta) per sample, a(t) = ((1 + t) log(1 + t)
    + (1 - t) log(1 - t)) / (2 beta) - (J0_hat / 2) t^2, with 0 log 0 = 0."""
    def a(u):
        entropy = sum(w * math.log1p(v) for w, v in ((1.0 + u, u),
                                                      (1.0 - u, -u)) if w)
        return (entropy / (2.0 * params.beta)
                - 0.5 * params.kernel.j0_hat * u * u)
    a_min = a(params.m_beta)
    return np.array([a(float(u)) - a_min for u in np.asarray(t).ravel()])


def outside_samples(profile, n_out, m_beta):
    """Explicit (left, right) extensions of length n_out: constant +-m_beta,
    the even reflection about both ends (period 2N), or the custom data (as
    much of it as there is)."""
    phi = profile.samples
    if profile.bc in ("plus", "minus"):
        s = m_beta if profile.bc == "plus" else -m_beta
        return np.full(n_out, s), np.full(n_out, s)
    if profile.bc == "neumann":
        reps = n_out // (2 * phi.size) + 1
        return (np.tile(np.concatenate([phi, phi[::-1]]), reps)[:n_out],
                np.tile(np.concatenate([phi[::-1], phi]), reps)[:n_out])
    return profile.out_left[:n_out], profile.out_right[:n_out]


def dense_energy(params, profile, gamma):
    """O(N^2) midpoint double sums over [0, L] and its outside extension.

    Periodic: J and each exponential atom are summed over all periodic
    images (the atoms in closed form). Fixed bcs: pair sums against an
    explicit extension of length ceil(46 / (gamma alpha_min dx)), or J's unit
    range at gamma = 0; seen from its own end, in-sample i and outside sample
    j are (i + j + 1) dx apart, so the dipole pairs are summed by i + j (one
    np.convolve per end) and the exchange pairs over the outside samples
    within J's unit range.
    """
    phi, dx, L, x = profile.samples, profile.dx, profile.L, profile.x
    kern, meas = params.kernel, params.measure
    sep = x[:, None] - x[None, :]
    if profile.bc == "periodic":
        reach = int(np.ceil(1.0 / L)) + 1
        jmat = sum(kern(np.abs(sep + m * L)) for m in range(-reach, reach + 1))
    else:
        jmat = kern(np.abs(sep))
    energy = (dx * math.fsum(well_direct(phi, params))
              + 0.25 * dx * dx * np.sum(jmat * (phi[:, None] - phi[None, :]) ** 2))
    if gamma > 0.0 and profile.bc == "periodic":
        d = np.abs(sep)
        vmat = meas.lam * sum(
            w * (np.exp(-gamma * a * d) + np.exp(-gamma * a * (L - d)))
            / -np.expm1(-gamma * a * L) for w, a in meas.atoms)
        energy += 0.5 * gamma * dx * dx * float(phi @ vmat @ phi)
    elif gamma > 0.0:
        energy += 0.5 * gamma * dx * dx * float(phi @ meas.v(gamma * sep) @ phi)
    if profile.bc in ("open", "periodic"):
        return energy
    near = int(np.ceil(1.0 / dx)) + 1
    n_out = near
    if gamma > 0.0:
        n_out = int(np.ceil(46.0 / (gamma * meas.alpha_min * dx)))
        near = min(n_out, near)
    dist = x[:, None] + (np.arange(near) + 0.5) * dx
    for out, side in zip(outside_samples(profile, n_out, params.m_beta),
                         (phi, phi[::-1])):
        energy += 0.5 * dx * dx * np.sum(
            kern(dist) * (side[:, None] - out[:near]) ** 2)
        if gamma > 0.0:
            pair_dist = (np.arange(phi.size + out.size - 1) + 1.0) * dx
            energy += gamma * dx * dx * float(
                meas.v(gamma * pair_dist) @ np.convolve(side, out))
    return energy


def ref_project_mean_box(y, mean):
    """Euclidean projection of y onto the slice {mean(x) = mean} of the box:
    clip(y + lam, -1, 1) for the lam that gives the mean (Duchi et al., ICML
    2008). The clip's sum is piecewise linear in lam, with a knot wherever a
    sample meets a face; lam interpolates between its values at the knots."""
    if abs(mean) == 1.0:
        return np.full_like(y, mean)
    shifted = y + (mean - np.mean(y))
    if np.max(np.abs(shifted)) <= 1.0:
        return shifted
    s = np.sort(y)
    prefix = np.concatenate([[0.0], np.cumsum(s)])
    knots = np.sort(np.concatenate([-1.0 - s, 1.0 - s]))
    lo = np.searchsorted(s, -1.0 - knots, side="right")   # s[:lo] clip to -1
    hi = np.searchsorted(s, 1.0 - knots, side="left")     # s[hi:] clip to +1
    sums = (s.size - hi) - lo + (prefix[hi] - prefix[lo]) + (hi - lo) * knots
    return np.clip(y + np.interp(mean * s.size, sums, knots), -1.0, 1.0)


# Rounding of the projection, in units of u = eps / 2 and M = max(1, |y|_inf);
# every sample of the result is fl(y_i + lam) clipped, |lam| <= 1 + M <= 2M.
#
# The shift. lam = (fl(n mean) - k - S) / n_F over the n_F free samples, k
# the signed count of the fixed ones and S their sum (the first shift,
# mean - S / n, has the same terms). Against the exact shift of that free
# set, n_F |lam - lam*| <= u (n + 2 n + d n_F M + 2 n_F M + 2 n_F M): the
# product n mean, taking k, a sum of depth d, the subtraction and the
# division. numpy sums pairwise, but over blocks of eight accumulators
# rather than in a binary tree, so take d = 2 log2 n.
#
# The mean. (n_F / n) |lam - lam*| <= u (3 + (d + 4) M), plus u for the
# rounding of the free samples and 2 u for reading the mean (fsum, then
# / n): u (6 + (d + 4) M) <= u (d + 10) M = (5 + log2 n) eps M.
#
# Against the knot formula, sample by sample: the two shifts' errors and a
# rounding of each sample. |lam - lam*| <= u (3 n + (d + 4) M) from the
# above with n_F >= 1. The knot formula's sum at a knot takes the free
# samples' sum as a difference of prefix sums of the sorted samples: the
# roundings between the two ends stay, each at most u n M, n_F n M u in all,
# plus 7 n_F M u + 2 n u for its other terms; lam interpolates between two
# knots, which divides by n_F and doubles that, plus 8 M u for the knots and
# the interpolation: |lam_ref - lam*| <= u (6 n + 22) M. In all,
# |x - x_ref| <= u (9 n + d + 28) M. That count is first order with each
# sum's error at its worst; twice it, (9 n + 2 log2 n + 28) eps M, leaves
# room for the second-order terms and for a knot interval chosen off by one.
_EPS = np.finfo(float).eps


def mean_bound(n, y):
    """The bound on |fsum(x) / n - mean| of a projection of y."""
    return (5.0 + math.log2(n)) * _EPS * max(1.0, float(np.max(np.abs(y))))


def knot_bound(n, y):
    """The bound on max |x - x_ref| against ``ref_project_mean_box``."""
    return ((9.0 * n + 2.0 * math.log2(n) + 28.0) * _EPS
            * max(1.0, float(np.max(np.abs(y)))))


def check_mean_projection(y, mean, x, lo, hi):
    """x, with its extremes lo and hi, against the KKT conditions of the
    projection of y onto the slice {mean(x) = mean} of the box: x lies in
    the box, its mean is the slice's to ``mean_bound``, and one lam shifts
    every free sample (|x| < 1) while every sample on a face is at or past
    it after that shift; on the faces |mean| = 1 the result is exact."""
    assert x.shape == y.shape
    assert (lo, hi) == (x.min(), x.max())
    assert np.all(np.abs(x) <= 1.0)
    if abs(mean) == 1.0:
        assert np.all(x == mean)
        return
    assert abs(math.fsum(x) / x.size - mean) <= mean_bound(x.size, y)
    # a free sample pins lam to its shift, to one rounding of the sample and
    # one of the difference: u + 2 M u; a face bounds lam, to one rounding
    # of y_i + lam and one of +-1 - y_i: u + 2 M u. The bounds must leave a
    # lam to twice that, 3 M eps, taken as 4 M eps
    free = np.abs(x) < 1.0
    shifts = (x - y)[free]
    lam_lo = max(np.max(1.0 - y[x == 1.0], initial=-np.inf),
                 np.max(shifts, initial=-np.inf))
    lam_hi = min(np.min(-1.0 - y[x == -1.0], initial=np.inf),
                 np.min(shifts, initial=np.inf))
    assert lam_lo <= lam_hi + 4.0 * _EPS * max(1.0, float(np.max(np.abs(y))))
