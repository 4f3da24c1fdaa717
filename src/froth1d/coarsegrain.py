"""Block coarse graining: regular partition, flat-segment search, adapted
partition and the mean-preserving replacement map phi -> sigma_phi.

The construction keeps exact per-block means and labels every replacement
with the case that produced it. Thresholds are computed literally from the
configured exponents; branches that degenerate at desk-scale gamma demote a
block to the generic bad-block rule instead of aborting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .certificates import Certificate
from .energy import _block_energies, tilde_energy, total_energy
from .errors import FlatSegmentNotFound, InvariantError, ValidationError
from .model import ModelParams, eval_F_double_prime
from .profiles import (BlockPartition, GridProfile, StepProfile, _block_cuts,
                       _block_means, regular_partition, runs)

__all__ = [
    "CoarseGrainConfig",
    "AdaptedPartition",
    "regular_partition",
    "classify_blocks",
    "find_flat_segment",
    "adapted_partition",
    "replace_block",
    "coarse_grain",
    "lower_bound_certificate",
]

# allowance prefactor of lower_bound_certificate: C in C gamma^{1-delta} L
_C_CERT = 10.0


@dataclass(frozen=True)
class CoarseGrainConfig:
    """Exponents and prefactors of the coarse-graining construction.

    ``delta`` sets the block scale gamma^-delta, ``rho`` the flat-segment
    tolerance gamma^rho, ``ell_minus`` the small-block size (a power of two
    so blocks divide the unit J-range), ``c0`` the tolerance prefactor of
    zeta = c0 gamma^delta log^2(gamma), ``kappa`` the margin of
    m_bar = m_beta - kappa gamma^{delta/2}.
    """

    delta: float = 0.2
    rho: float = 0.04
    ell_minus: float = 0.25
    c0: float = 0.05
    kappa: float = 1.0
    energy_cutoff_multiplier: float = 2.0

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0 / 3.0):
            raise ValidationError("delta must lie in (0, 1/3)")
        if not (0.0 < self.rho < self.delta / 4.0):
            raise ValidationError("rho must lie in (0, delta/4)")
        # each check is written so that NaN fails it
        lm = self.ell_minus
        if not (0.0 < lm <= 0.5
                and abs(math.log2(lm) - round(math.log2(lm))) <= 1e-12):
            raise ValidationError("ell_minus must be 2^-n for integer n >= 1")
        if not all(0.0 < v < math.inf for v in (
                self.c0, self.kappa, self.energy_cutoff_multiplier)):
            raise ValidationError("c0, kappa and the cutoff multiplier must "
                                  "be finite and positive")

    def zeta(self, gamma: float) -> float:
        return self.c0 * gamma ** self.delta * math.log(gamma) ** 2

    def m_bar(self, m_beta: float, gamma: float) -> float:
        return m_beta - self.kappa * gamma ** (self.delta / 2.0)


def classify_blocks(params: ModelParams, profile: GridProfile,
                    partition: BlockPartition,
                    cutoff_multiplier: float = 2.0) -> dict:
    """Label blocks low-energy iff their internal energy is <= cutoff * tau.

    A block's energy is ``short_range_energy`` of the block, all blocks in
    one well pass and one band pass per offset (pairs across a block edge
    left out). The partition's edges are cut by ``profiles._block_cuts``.
    """
    cutoff = cutoff_multiplier * params.require_tau()
    energies = _block_energies(params, profile,
                               _block_cuts(profile, partition.edges))
    return {"energy": energies, "low": energies <= cutoff, "cutoff": cutoff}


def _small_block_means(profile: GridProfile, ell_minus: float) -> np.ndarray:
    """Means over the absolute small-block grid cells covering [0, L]."""
    per = int(round(ell_minus / profile.dx))
    if abs(per * profile.dx - ell_minus) > 1e-12:
        raise ValidationError("ell_minus must be a multiple of dx")
    return _block_means(profile.samples, np.arange(0, profile.n + 1, per))


def find_flat_segment(params: ModelParams, profile: GridProfile,
                      block: Tuple[float, float], config: CoarseGrainConfig,
                      gamma: Optional[float] = None,
                      margin_left: Optional[float] = None,
                      margin_right: Optional[float] = None):
    """Longest run of small blocks with mean within gamma^rho of +-m_beta.

    The small blocks are the ``ell_minus`` cells of the absolute grid. The
    run must lie in [a + margin_left, b - margin_right]; each margin defaults
    to (b - a)/4. Ties break to the longest run, then the leftmost, then
    omega = +1. Returns (omega, (start, stop), run_length). This is the
    one-block case of the search ``adapted_partition`` makes for all its
    blocks at once.
    """
    gamma = params.gamma if gamma is None else gamma
    means = _small_block_means(profile, config.ell_minus)
    a, b = block
    ml = (b - a) / 4.0 if margin_left is None else margin_left
    mr = (b - a) / 4.0 if margin_right is None else margin_right
    j0, j1 = _windows(a, b, ml, mr, config.ell_minus)
    if j1 <= j0:
        raise FlatSegmentNotFound("no admissible small blocks in the block core")
    omega, start, run = _flat_segments(params.m_beta, means, np.array([j0]),
                                       np.array([j1]), gamma ** config.rho)
    if omega[0] == 0.0:
        raise FlatSegmentNotFound("no small block stays near +-m_beta")
    lm = config.ell_minus
    start, run = int(start[0]), int(run[0])
    return float(omega[0]), (start * lm, (start + run) * lm), run * lm


def _windows(a, b, ml, mr, lm: float):
    """Admissible small blocks [j0, j1) of the blocks [a, b] with margins
    ml, mr: the ``lm`` cells fully inside [a + ml, b - mr]."""
    j0 = np.ceil((a + ml) / lm - 1e-9).astype(int)
    j1 = np.floor((b - mr) / lm + 1e-9).astype(int)
    return j0, j1


def _flat_segments(m_beta: float, means: np.ndarray, j0: np.ndarray,
                   j1: np.ndarray, tol: float):
    """Longest run of small blocks with mean within ``tol`` of omega m_beta
    in each window [j0[w], j1[w]) of small-block indices, all windows in one
    pass per omega. The windows must be nonempty, disjoint and in increasing
    order. Ties break to the longest run, then the leftmost, then omega = +1.

    Each small block is labelled with its window (-1 outside every window
    or away from omega m_beta), so the ``runs`` of the labels are the near
    runs clipped to the windows; each window keeps its best run by the key
    length (n + 1) + (n - start). Returns arrays (omega, start, length);
    omega is 0 where no small block of the window is near +-m_beta.
    """
    n = means.size
    j = np.arange(n)
    window = np.searchsorted(j0, j, side="right") - 1
    # past its window's stop a block is outside; window -1 reads stop 0
    window[j >= np.append(j1, 0)[window]] = -1
    key = np.full(j0.size, -1)
    omega = np.zeros(j0.size)
    for om in (1.0, -1.0):
        label = np.where(np.abs(means - om * m_beta) <= tol, window, -1)
        starts, stops = runs(label)
        hit = label[starts] >= 0
        best = np.full(j0.size, -1)
        np.maximum.at(best, label[starts[hit]],
                      (stops - starts)[hit] * (n + 1) + n - starts[hit])
        better = best > key              # a tie keeps omega = +1
        key[better], omega[better] = best[better], om
    length = key // (n + 1)
    return omega, n - key % (n + 1), length


@dataclass(frozen=True)
class AdaptedPartition:
    """Profile-adapted partition with per-block replacement contexts.

    ``kinds`` is one of good / bad / boundary_good per block; ``signs`` holds
    (omega_left, omega_right) for good blocks, (side, omega) for boundary
    good blocks, None for bad ones.
    """

    partition: BlockPartition
    kinds: Tuple[str, ...]
    signs: Tuple[Optional[tuple], ...]
    ell_plus: float = 0.0

    def __post_init__(self):
        if len(self.kinds) != self.partition.n_blocks:
            raise ValidationError("one kind per block required")
        widths = self.partition.widths
        lo, hi = 0.5 * self.ell_plus, 2.5 * self.ell_plus
        if self.ell_plus > 0 and (np.any(widths < lo - 1e-9)
                                  or np.any(widths > hi + 1e-9)):
            raise InvariantError("adapted block length outside [l+/2, 5l+/2]")


def adapted_partition(params: ModelParams, profile: GridProfile,
                      config: CoarseGrainConfig,
                      gamma: Optional[float] = None) -> AdaptedPartition:
    """Replace boundary lines of low-energy blocks by flat-segment midlines.

    Each low-energy block's flat segment is searched in its core, the
    window of ``find_flat_segment`` with the outer margin of the first and
    last block set to l+/2; one pass per omega over the small-block means
    serves all blocks (``_flat_segments``). Low-energy blocks whose search
    fails are demoted to bad. The regular lines, the midlines (snapped to
    the nearest grid line) and the final lines are sample indices; the
    float edges are built from them once, the last edge ``profile.L``.
    """
    gamma = params.gamma if gamma is None else gamma
    dx = profile.dx
    reg = regular_partition(profile.L, config.delta, gamma).snapped(dx)
    reg_cuts = _block_cuts(profile, reg.edges)
    ell_plus = float(np.mean(reg.widths))
    labels = classify_blocks(params, profile, reg,
                             config.energy_cutoff_multiplier)
    n = reg.n_blocks
    # a single-block domain is degenerate: its block is demoted
    good = np.array(labels["low"]) if n > 1 else np.zeros(1, dtype=bool)
    omega = np.zeros(n)
    midline = np.zeros(n, dtype=int)
    if good.any():
        means = _small_block_means(profile, config.ell_minus)
        a, b = reg.edges[:-1], reg.edges[1:]
        ml = (b - a) / 4.0
        mr = ml.copy()
        # keep the boundary blocks [0, s] and [s, L] >= l+/2
        ml[0] = mr[-1] = ell_plus / 2.0
        j0, j1 = _windows(a, b, ml, mr, config.ell_minus)
        good &= j1 > j0
        lm = config.ell_minus
        om, start, run = _flat_segments(params.m_beta, means, j0[good],
                                        j1[good], gamma ** config.rho)
        omega[good] = om
        midline[good] = np.round(
            0.5 * (start * lm + (start + run) * lm) / dx)
        # low-energy blocks without a flat segment are demoted
        good &= omega != 0.0
    # final boundary lines: domain ends, midlines, and original lines with
    # two bad neighbors; src[k] is the good block whose midline is line k
    kept = reg_cuts[1:-1][~good[:-1] & ~good[1:]]
    lines = np.unique(np.concatenate([[0, profile.n], midline[good], kept]))
    src = np.full(lines.size, -1)
    src[np.searchsorted(lines, midline[good])] = np.flatnonzero(good)
    edges = np.append(lines[:-1] * dx, profile.L)
    omega, src = omega.tolist(), src.tolist()
    contexts = []
    for k, (left, right) in enumerate(zip(src, src[1:])):
        if left >= 0 and right == left + 1:
            contexts.append(("good", (omega[left], omega[right])))
        elif k == 0 and right == 0:
            contexts.append(("boundary_good", ("left", omega[right])))
        elif k == len(src) - 2 and left == n - 1:
            contexts.append(("boundary_good", ("right", omega[left])))
        else:
            contexts.append(("bad", None))
    kinds, signs = zip(*contexts)
    return AdaptedPartition(BlockPartition(edges), kinds, signs, ell_plus)


def _bad_rule(ell: float, m: float, m_b: float, zeta: float):
    """Case 1: the constant mean when it is within zeta of +-m_beta, else
    one jump from +m_beta to -m_beta."""
    if abs(m) >= m_b - zeta:
        return [(ell, m)], "1-const"
    xi = ell * (m + m_b) / (2.0 * m_b)
    return [(xi, m_b), (ell - xi, -m_b)], "1-split"


def _plateau(ell: float, mass: float, ends: tuple, raw: float, flags: dict):
    """Constant plateau between margins of width mg = min(raw, ell/4) held at
    the end values ``ends`` = (left, right); a None left end has no margin.
    With k margins the plateau is (mass - mg * sum of end values) /
    (ell - k mg), so the pieces carry ``mass``. None when |plateau| > 1."""
    left, right = ends
    values = [v for v in ends if v is not None]
    mg = min(raw, ell / 4.0)
    flags["margin_capped"] = raw > ell / 4.0
    core = ell - len(values) * mg
    plateau = (mass - mg * sum(values)) / core
    if abs(plateau) > 1.0:
        flags["demoted"] = "plateau>1"
        return None
    pieces = [(core, plateau), (mg, right)]
    return pieces if left is None else [(mg, left)] + pieces


def replace_block(params: ModelParams, length: float, mean: float,
                  context: tuple, config: CoarseGrainConfig,
                  gamma: Optional[float] = None):
    """Mean-preserving piecewise-constant replacement on one block.

    ``context`` is ("bad", None), ("good", (omega, omega')) or
    ("boundary_good", (side, omega)). Returns (pieces, case_tag, flags);
    pieces are (width, value) pairs whose weighted mean equals ``mean``
    exactly. A good block whose mean is too close to +-m_beta for its jumps
    gets margins at +-m_beta around a constant plateau (cases 2a-three,
    2b-three, 2c-plateau), of width min(log(ell)^2/2, ell/4), with
    log(2 ell) on a boundary block; flag ``margin_capped`` says the ell/4
    cap bites. When the plateau exceeds 1 in absolute value the block falls
    back to the bad-block rule and is flagged ``demoted``.
    """
    gamma = params.gamma if gamma is None else gamma
    m_b = params.m_beta
    ell = float(length)
    m = float(mean)
    zeta = config.zeta(gamma)
    kind, data = context
    flags: dict = {}
    if kind not in ("bad", "good", "boundary_good"):
        raise ValidationError(f"unknown block context {kind!r}")
    if kind == "bad":
        pieces = None
    elif kind == "good" and data[0] != data[1]:
        omega = data[0]
        if abs(m) <= m_b - zeta:
            xi = ell * (m_b + omega * m) / (2.0 * m_b)
            return [(xi, omega * m_b), (ell - xi, -omega * m_b)], "2a-jump", flags
        pieces, tag = _plateau(ell, m * ell, (omega * m_b, -omega * m_b),
                               0.5 * math.log(ell) ** 2, flags), "2a-three"
    else:
        # reference frame: omega = -1, and a boundary block at the left
        # domain edge; flip the sign and mirror for the other combinations
        side, omega = ("left", data[0]) if kind == "good" else data
        mm = m if omega < 0 else -m
        fpp = eval_F_double_prime(m_b, params)
        c_star = math.sqrt(5.0 * params.require_tau() / fpp)
        t2b = 1.1 * c_star / math.sqrt(ell)
        if mm <= -m_b + t2b:
            pieces = [(ell, mm)]
            tag = "2b-const" if kind == "good" else "2c-const"
        elif mm < m_b - t2b and kind == "good":
            xi = ell * (m_b - mm) / (4.0 * m_b)
            pieces, tag = ([(xi, -m_b), (ell - 2.0 * xi, m_b), (xi, -m_b)],
                           "2b-two-jump")
        elif mm < m_b - t2b:
            xi = ell * (m_b - mm) / (2.0 * m_b)
            pieces, tag = [(ell - xi, m_b), (xi, -m_b)], "2c-jump"
        elif kind == "good":
            pieces, tag = _plateau(ell, mm * ell, (-m_b, -m_b),
                                   0.5 * math.log(ell) ** 2, flags), "2b-three"
        else:
            pieces, tag = _plateau(ell, mm * ell, (None, -m_b),
                                   0.5 * math.log(2.0 * ell) ** 2,
                                   flags), "2c-plateau"
        if pieces is not None:
            pieces = [(w, -v if omega > 0 else v) for w, v in pieces]
            if side == "right":
                pieces = pieces[::-1]
    if pieces is None:
        pieces, tag = _bad_rule(ell, m, m_b, zeta)
    return pieces, tag, flags


def coarse_grain(params: ModelParams, profile: GridProfile,
                 config: Optional[CoarseGrainConfig] = None,
                 gamma: Optional[float] = None):
    """Full map phi -> sigma_phi. Returns (StepProfile, AdaptedPartition, trace)."""
    config = CoarseGrainConfig() if config is None else config
    gamma = params.gamma if gamma is None else gamma
    adapted = adapted_partition(params, profile, config, gamma)
    means = _block_means(profile.samples,
                         _block_cuts(profile, adapted.partition.edges))
    pieces: List[Tuple[float, float]] = []
    trace = []
    for (a, b), kind, sign, mean in zip(adapted.partition.blocks(),
                                        adapted.kinds, adapted.signs, means):
        blk_pieces, tag, flags = replace_block(
            params, b - a, mean, (kind, sign), config, gamma)
        pieces.extend(blk_pieces)
        trace.append({"interval": (float(a), float(b)), "label": kind,
                      "case": tag, "mean": float(mean),
                      "pieces": [(float(w), float(v)) for w, v in blk_pieces],
                      "flags": flags})
    m_bar = config.m_bar(params.m_beta, gamma)
    step = StepProfile.from_pieces(pieces, m_bar=m_bar)
    # guard against drift in the cumulative breakpoints
    if abs(step.L - profile.L) > 1e-9 * profile.L:
        raise InvariantError("replacement pieces do not tile the domain")
    return step, adapted, trace


def lower_bound_certificate(params: ModelParams, profile: GridProfile,
                            gamma: Optional[float] = None,
                            config: Optional[CoarseGrainConfig] = None
                            ) -> Certificate:
    """Check E[phi] >= E~[sigma_phi] - 10 gamma^{1-delta} L, E[phi] without
    its boundary term off the torus."""
    config = CoarseGrainConfig() if config is None else config
    gamma = params.gamma if gamma is None else gamma
    step, _, _ = coarse_grain(params, profile, config, gamma)
    return _step_certificate(params, profile, step, gamma, config)


def _step_certificate(params: ModelParams, profile: GridProfile,
                      step: StepProfile, gamma: float,
                      config: CoarseGrainConfig) -> Certificate:
    """``lower_bound_certificate`` for an already computed sigma_phi. Off the
    torus sigma_phi lives on [0, L] alone, and so does E_phi: the energy
    without its boundary term."""
    parts = total_energy(params, profile, gamma)
    bc = profile.step_bc
    e_phi = parts.total if bc == "periodic" else (
        parts.local + parts.exchange + parts.dipole)
    e_tilde = tilde_energy(params, step, gamma, bc=bc)
    residual = (e_phi - e_tilde) / profile.L
    allowance = _C_CERT * gamma ** (1.0 - config.delta)
    return Certificate(
        name="coarse_grain_lower_bound", lhs=residual, rhs=-allowance,
        params={"gamma": gamma, "delta": config.delta, "C_cert": _C_CERT,
                "E_phi": e_phi, "E_tilde": e_tilde, "L": profile.L})
