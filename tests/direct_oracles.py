"""Direct evaluations that share no code with ``froth1d``, kept as test
oracles: O(N^2) and image sums, closed forms, per-sample loops and brute
force.

``dipole_energy_direct`` is the O(N^2) midpoint sum that
``froth1d.energy.dipole_energy`` evaluates in O(N) per atom, and
``tilde_v_kernel_direct`` the truncated image sum that
``froth1d.sharp.tilde_v_kernel`` resums in closed form. ``dense_energy`` is
the whole functional as O(N^2) double sums under every bc, its well taken
per sample with ``math.log1p`` (``well_direct``); ``dense_gradient`` is its
gradient, differentiated term by term, with the slope taken per sample
with ``math.atanh`` (``slope_direct``). ``torus_symbol_direct`` is the
discrete Fourier transform of the torus operator's first row, built by
direct sums over the periodic images; ``exchange_direct`` the double sum of
the exchange energy. ``projected_residual_direct`` and
``slice_residual_direct`` loop over the samples as the residuals are
defined, and ``flat_segment_brute`` tries every run of small blocks.

The mean-slice projection has two oracles: ``check_mean_projection`` tests
a result against the KKT conditions of the projection, and
``ref_project_mean_box`` is a second algorithm, the knot formula that the
library used before variable fixing.
"""

import math
from typing import Optional

import numpy as np

from froth1d.model import _EDGE, KacMeasure, ModelParams
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


def slope_direct(t, params: ModelParams) -> np.ndarray:
    """F'(t) = atanh(s) / beta - J0_hat s per sample, s = t clamped to
    +-_EDGE, where the slope of the well is documented to be clamped."""
    return np.array([
        math.atanh(s) / params.beta - params.kernel.j0_hat * s
        for s in (min(max(float(u), -_EDGE), _EDGE)
                  for u in np.asarray(t).ravel())])


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


def pair_scale(params, gamma, dx, bc):
    """(S, n_out) for rounding bounds. With the samples and the outside data
    at most 1 in magnitude, the pair terms of one sample (the exchange
    within J's range, the exponential sums over images and outside samples)
    sum in absolute value to at most
    S = 4 dx sum_k J(k dx) + sum_atoms gamma lam w dx 8 / (1 - e^{-gamma a dx});
    n_out is the number of outside samples ``dense_energy`` sums per end (0
    on the torus and the open interval)."""
    meas, r = params.measure, int(round(1.0 / dx))
    s = 4.0 * dx * float(params.kernel(dx * np.arange(1, r + 1)).sum())
    n_out = 0 if bc in ("open", "periodic") else r + 1
    if gamma > 0.0:
        s += sum(gamma * meas.lam * w * dx * 8.0 / -math.expm1(
            -gamma * a * dx) for w, a in meas.atoms)
        if n_out:
            n_out = math.ceil(46.0 / (gamma * meas.alpha_min * dx))
    return s, n_out


def _dense_parts(params, profile, gamma):
    """The O(N^2) pieces of ``dense_energy``: J and v between the samples
    (summed over the images on the torus; v None at gamma = 0), and under
    the bcs with outside data (jout, vout, (left, right)): J between each
    in-sample and the outside samples within its range, v at the pair
    distances (k + 1) dx, and the outside samples; None for those bcs'
    pieces on the torus and the open interval."""
    phi, dx, L, x = profile.samples, profile.dx, profile.L, profile.x
    kern, meas = params.kernel, params.measure
    sep = x[:, None] - x[None, :]
    vmat = None
    if profile.bc == "periodic":
        reach = int(np.ceil(1.0 / L)) + 1
        jmat = sum(kern(np.abs(sep + m * L)) for m in range(-reach, reach + 1))
        if gamma > 0.0:
            d = np.abs(sep)
            vmat = meas.lam * sum(
                w * (np.exp(-gamma * a * d) + np.exp(-gamma * a * (L - d)))
                / -np.expm1(-gamma * a * L) for w, a in meas.atoms)
        return jmat, vmat, None
    jmat = kern(np.abs(sep))
    if gamma > 0.0:
        vmat = meas.v(gamma * sep)
    if profile.bc == "open":
        return jmat, vmat, None
    near = int(np.ceil(1.0 / dx)) + 1
    n_out = near
    if gamma > 0.0:
        n_out = int(np.ceil(46.0 / (gamma * meas.alpha_min * dx)))
        near = min(n_out, near)
    # seen from its own end, in-sample i and outside sample j are
    # (i + j + 1) dx apart
    jout = kern(x[:, None] + (np.arange(near) + 0.5) * dx)
    vout = None
    if gamma > 0.0:
        vout = meas.v(gamma * (np.arange(phi.size + n_out - 1) + 1.0) * dx)
    return jmat, vmat, (jout, vout, outside_samples(profile, n_out,
                                                    params.m_beta))


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
    phi, dx = profile.samples, profile.dx
    jmat, vmat, ends = _dense_parts(params, profile, gamma)
    energy = (dx * math.fsum(well_direct(phi, params))
              + 0.25 * dx * dx * np.sum(jmat * (phi[:, None] - phi[None, :]) ** 2))
    if vmat is not None:
        energy += 0.5 * gamma * dx * dx * float(phi @ vmat @ phi)
    if ends is None:
        return energy
    jout, vout, outs = ends
    for out, side in zip(outs, (phi, phi[::-1])):
        near = min(out.size, jout.shape[1])
        energy += 0.5 * dx * dx * np.sum(
            jout[:, :near] * (side[:, None] - out[:near]) ** 2)
        if vout is not None:
            energy += gamma * dx * dx * float(
                vout[:phi.size + out.size - 1] @ np.convolve(side, out))
    return energy


def dense_gradient(params, profile, gamma):
    """g_i = dE/dphi_i / dx of ``dense_energy``, term by term: the slope
    (``slope_direct``), dx sum_j J_ij (phi_i - phi_j) and
    gamma dx sum_j v_ij phi_j in the domain, and per end the same pairs with
    the outside samples. Under Neumann the outside samples are the
    reflected in-samples, so each outside pair also pulls on the in-sample
    it reflects."""
    phi, dx, n = profile.samples, profile.dx, profile.n
    jmat, vmat, ends = _dense_parts(params, profile, gamma)
    g = slope_direct(phi, params) + dx * (
        jmat.sum(axis=1) * phi - jmat @ phi)
    if vmat is not None:
        g += gamma * dx * (vmat @ phi)
    if ends is None:
        return g
    jout, vout, outs = ends
    for end, (out, side) in enumerate(zip(outs, (phi, phi[::-1]))):
        near = min(out.size, jout.shape[1])
        diff = jout[:, :near] * (side[:, None] - out[:near])
        gs = dx * diff.sum(axis=1)
        if vout is not None:
            gs += gamma * dx * np.correlate(vout[:n + out.size - 1], out,
                                            "valid")
        if profile.bc == "neumann":
            # outside sample j is side[src[j]], the period 2n reflection
            m = np.arange(out.size) % (2 * n)
            src = np.where(m < n, m, 2 * n - 1 - m)
            pull = -dx * diff.sum(axis=0)
            if vout is not None:
                pull = np.concatenate([pull, np.zeros(out.size - near)])
                pull += gamma * dx * np.correlate(vout[:n + out.size - 1],
                                                  side, "valid")
            gs += np.bincount(src[:pull.size], pull, n)
        g += gs if end == 0 else gs[::-1]
    return g


def projected_residual_direct(phi, g, tol=1e-12):
    """max |g_i| over the samples, a sample within tol of a face left out
    when g pushes it onto that face (its projected gradient is 0)."""
    out = 0.0
    for p, gi in zip(phi.tolist(), g.tolist()):
        if (p >= 1.0 - tol and gi < 0.0) or (p <= -1.0 + tol and gi > 0.0):
            continue
        out = max(out, abs(gi))
    return out


def slice_residual_direct(phi, g, tol=1e-12):
    """``projected_residual_direct`` of g - mu, mu the multiplier of the
    mean: the mean of g over the free samples (|phi| < 1 - tol), or over all
    when none is free. The mean is a float reduction, so it is taken as
    numpy takes a mean; the rest is the per-sample loop."""
    free = [i for i, p in enumerate(phi.tolist()) if abs(p) < 1.0 - tol]
    mu = float(np.mean(g[free] if free else g))
    return projected_residual_direct(phi, g - mu, tol)


def torus_symbol_direct(params, gamma, n, dx):
    """The eigenvalues of the torus operator K (rfft order): the real part
    of the discrete Fourier transform of its first row, which is
    K_0j = dx (delta_0j sum_l J_0l - J_0j) + gamma dx v_0j with J and v
    summed over the periodic images at distances |j dx + k n dx|, v's images
    summed directly out to exp(-46)."""
    L = n * dx
    j = np.arange(n)
    r = int(round(1.0 / dx))
    jrow = np.zeros(n)
    reach = r // n + 2      # |j + k n| > r beyond it: J vanishes there
    for k in range(-reach, reach + 1):
        jrow += params.kernel(np.abs(j + k * n) * dx)
    row = -dx * jrow
    row[0] += dx * jrow.sum()
    if gamma > 0.0:
        for w, a in params.measure.atoms:
            b = gamma * a
            images = int(np.ceil(46.0 / (b * L))) + 1
            k = np.arange(-images, images + 1)
            dist = np.abs(j[:, None] + k[None, :] * n) * dx
            row += gamma * dx * params.measure.lam * w * np.exp(
                -b * dist).sum(axis=1)
    return np.fft.rfft(row).real


def exchange_direct(samples, kernel, dx):
    """(1/4) sum_i sum_j J(x_i - x_j) (phi_i - phi_j)^2 dx^2, the distances
    taken as |i - j| dx."""
    idx = np.arange(samples.size)
    jmat = kernel(np.abs(idx[:, None] - idx[None, :]) * dx)
    return 0.25 * dx * dx * float(
        np.sum(jmat * (samples[:, None] - samples[None, :]) ** 2))


def flat_segment_brute(m_beta, means, j0, j1, tol):
    """(omega, start, length) of the longest run of small blocks in the
    window [j0, j1) whose means all lie within tol of omega m_beta, by trying
    every (omega, start, length); ties go to the longest, then the leftmost,
    then omega = +1. (0.0, 0, 0) when no small block is near."""
    best = (0, 0, 0.0)      # (length, -start, omega)
    stop = min(j1, len(means))
    for omega in (1.0, -1.0):
        near = [abs(m - omega * m_beta) <= tol for m in means[:stop]]
        for start in range(j0, stop):
            for length in range(1, stop - start + 1):
                if not all(near[start:start + length]):
                    break
                if (length, -start) > best[:2]:
                    best = (length, -start, omega)
    length, neg_start, omega = best
    return omega, -neg_start, length


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
