"""Dense and image-sum reference evaluations, kept as test oracles.

``dipole_energy_direct`` is the O(N^2) midpoint sum that
``froth1d.energy.dipole_energy`` evaluates in O(N) per atom, and
``tilde_v_kernel_direct`` the truncated image sum that
``froth1d.sharp.tilde_v_kernel`` resums in closed form. Both are the
library's earlier public implementations, verbatim.
"""

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
