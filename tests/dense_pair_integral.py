"""The dense cell-pair matrix of exponential kernel integrals, kept as the
oracle for the O(pieces) pass of ``froth1d.energy._cell_integrals``.

``_pair_integral`` and ``_self_integrals`` are the library's earlier
implementations, verbatim: the step dipole was ``vals @ mat @ vals`` with
``mat = _pair_integral(b, edges)``, and on the torus
``(mat + _pair_integral(b, edges, L)) / -expm1(-b L)``.
"""

import math

import numpy as np

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
