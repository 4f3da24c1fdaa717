"""The dense cell-pair matrix of exponential kernel integrals, kept as the
oracle for the O(pieces) pass of ``froth1d.energy._cell_integrals``: the
step dipole, and the chessboard cells of ``froth1d.sharp``.

``_pair_integral`` and ``_self_integrals`` are the library's earlier
implementations, a different algorithm from the pass: the step dipole was
``vals @ mat @ vals`` with ``mat = _pair_integral(b, edges)``, and on the
torus ``(mat + _pair_integral(b, edges, L)) / -expm1(-b L)``. The
chessboard cells take the reflected kernel's quadratic form on the same
matrix (``dense_cell_form``), their well in closed form and their sign runs
from a plain loop over the pieces (``dense_chessboard``).
"""

import math

import numpy as np

from direct_oracles import well_direct

# 1/k!, k = 2..16: Taylor series of e^x - 1 - x, exact to rounding for |x| <= 0.5
_TAYLOR = np.array([1.0 / math.factorial(k) for k in range(2, 17)])


def _pair_integral(b: float, edges: np.ndarray, L=None) -> np.ndarray:
    """Matrix of closed-form integrals of exp(-b|x-y|) over cell pairs; with
    ``L``, of exp(-b(L - |x-y|)), the complementary torus distance."""
    w = np.diff(edges)
    x = b * w
    f = -np.expm1(-x) / b
    gap = edges[None, :-1] - edges[1:, None]      # gap between cell i and j > i
    # distance between near edges, or the wrap distance between far edges
    dist = gap if L is None else L - gap - w[:, None] - w[None, :]
    mat = np.outer(f, f) * np.exp(-b * np.maximum(dist, 0.0)) * (gap >= 0.0)
    mat = mat + mat.T
    np.fill_diagonal(mat, _self_integrals(b, w, L))
    return mat


def _self_integrals(b: float, w: np.ndarray, L=None) -> np.ndarray:
    """``_pair_integral``'s diagonal: per cell of width w, x = b w, the
    integral of exp(-b|x-y|) over the cell squared, (2/b^2)(e^{-x} - 1 + x),
    or with ``L`` that of exp(-b(L - |x-y|)), (2/b^2) e^{-bL} (e^x - 1 - x)."""
    x = b * w
    z = -x if L is None else x
    diag = np.vander(z, _TAYLOR.size, increasing=True) @ _TAYLOR * z * z
    if L is not None:
        diag *= np.exp(-b * L)
    if x.max() > 0.5:   # closed forms, free of cancellation (and overflow) there
        large = np.flatnonzero(x > 0.5)
        x, w = x[large], w[large]
        diag[large] = x + np.expm1(-x) if L is None else np.exp(-b * (L - w)) * (
            -np.expm1(-x) - x * np.exp(-x))
    return (2.0 / b / b) * diag


def dense_step_dipole_energy(params, step, gamma, bc="open"):
    """The earlier ``step_dipole_energy``, on the dense matrix."""
    vals = step.values
    edges = step.breakpoints
    meas = params.measure
    acc = 0.0
    for w_k, a_k in meas.atoms:
        b = gamma * a_k
        mat = _pair_integral(b, edges)
        if bc == "periodic":
            mat = (mat + _pair_integral(b, edges, step.L)) / -np.expm1(
                -b * step.L)
        acc += w_k * float(vals @ mat @ vals)
    return 0.5 * gamma * meas.lam * acc


def dense_cell_form(values, edges, h, gamma, measure):
    """<sigma, sigma>_{v~_h} of the values on the cell [0, h] cut at
    ``edges``, and the sum of its terms' magnitudes. Per atom, a = gamma
    alpha, q = e^{-2ah}, G = 1/(1 - q), E = e^{-ah}: the dense pair matrix
    for the |x - y| part, and for the image part
    2 G E Sp Sq - G (Sp^2 + Sq^2), Sp and Sq the integrals of sigma against
    e^{-ax} and e^{-a(h - x)}."""
    total = magnitude = 0.0
    for wk, alpha in measure.atoms:
        a = gamma * alpha
        q = math.exp(-2.0 * a * h)
        G = 1.0 / (1.0 - q)
        E = math.exp(-a * h)
        P = (np.exp(-a * edges[:-1]) - np.exp(-a * edges[1:])) / a
        Q = (np.exp(-a * (h - edges[1:])) - np.exp(-a * (h - edges[:-1]))) / a
        sp, sq = float(values @ P), float(values @ Q)
        abs_part = float(values @ _pair_integral(a, edges) @ values)
        images = (2.0 * G * E * sp * sq, G * (sp * sp + sq * sq))
        total += wk * (abs_part + images[0] - images[1])
        magnitude += wk * (abs(abs_part) + abs(images[0]) + images[1])
    scale = gamma * measure.lam
    return scale * total, scale * magnitude


def dense_cell_energy(params, widths, values, gamma):
    """(h, h e~_h, magnitude) of one chessboard cell with pieces of the
    given widths and values: int F~(|sigma|) + tau +
    (1/2) <|sigma|, |sigma|>_{v~_h}, with
    F~(t) = F(0) / (2 m_beta^2) (|t| - m_beta)^2 (``well_direct`` for F(0));
    magnitude sums the magnitudes of its terms."""
    m = params.m_beta
    f0 = float(well_direct(np.zeros(1), params)[0])
    tau = params.require_tau()
    values = np.abs(values)
    edges = np.concatenate([[0.0], np.cumsum(widths)])
    h = float(edges[-1])
    well = float(np.sum(widths * f0 / (2.0 * m * m) * (values - m) ** 2))
    form, size = dense_cell_form(values, edges, h, gamma, params.measure)
    return h, well + tau + 0.5 * form, well + tau + 0.5 * size


def dense_chessboard(params, step, gamma, periodic):
    """``dense_cell_energy`` of each chessboard cell, with its number of
    pieces, in order: the maximal runs of pieces of one sign (0 counts as
    its own), found by a loop over the pieces; on the torus, when the first
    and last runs share a sign, the last one continued by the first, listed
    first."""
    signs = np.sign(step.values).tolist()
    cells, start = [], 0
    for i in range(1, len(signs) + 1):
        if i == len(signs) or signs[i] != signs[start]:
            cells.append(list(range(start, i)))
            start = i
    if periodic and len(cells) > 1 and signs[0] == signs[-1]:
        cells = [cells[-1] + cells[0]] + cells[1:-1]
    widths = np.diff(step.breakpoints)
    return [dense_cell_energy(params, widths[c], step.values[c], gamma)
            + (len(c),) for c in cells]
