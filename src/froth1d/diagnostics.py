"""Structure reports for quasi-minimizers: good set, sign runs, defect sets,
wrong-length measure and the excess-energy decomposition."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .certificates import fmt17
from .energy import _ONE_CELL
from .errors import ParameterError
from .model import ModelParams
from .profiles import (GridProfile, StepProfile, _block_cuts, _block_means,
                       _step_periodic, block_type, regular_partition, runs)
from .sharp import energy_per_length, optimal_h

__all__ = [
    "StructureReport",
    "good_set",
    "defect_sets",
    "l_wrong",
    "excess_energy_decomposition",
    "histogram_csv",
]

_HIST_BINS = 24


@dataclass
class StructureReport:
    """Block-scale structure of a profile and its coarse-grained step version."""

    L: float
    gamma: float
    params: dict
    good_intervals: List[Tuple[float, float]]          # the Lambda_k
    good_measure: float
    runs: List[dict]                                   # I_j: interval, sign, blocks
    block_edges: np.ndarray
    block_types: List[str]
    block_means: np.ndarray
    h_lengths: np.ndarray                              # sign-interval lengths of sigma
    excess: float = 0.0
    tildeF_integral: float = 0.0
    l_wrong: Optional[float] = None
    x1_measure: Optional[float] = None
    x2_measure: Optional[float] = None
    alternation_ok: bool = True

    @property
    def complement_measure(self) -> float:
        return self.L - self.good_measure

    def to_dict(self) -> dict:
        return {
            "L": fmt17(self.L),
            "gamma": fmt17(self.gamma),
            "params": {k: fmt17(v) for k, v in sorted(self.params.items())},
            "good_measure": fmt17(self.good_measure),
            "complement_measure": fmt17(self.complement_measure),
            "n_good_intervals": len(self.good_intervals),
            "n_runs": len(self.runs),
            "runs": [{"a": fmt17(r["interval"][0]), "b": fmt17(r["interval"][1]),
                      "sign": int(r["sign"]), "length": fmt17(r["length"])}
                     for r in self.runs],
            "excess": fmt17(self.excess),
            "tildeF_integral": fmt17(self.tildeF_integral),
            "l_wrong": None if self.l_wrong is None else fmt17(self.l_wrong),
            "x1_measure": None if self.x1_measure is None else fmt17(self.x1_measure),
            "x2_measure": None if self.x2_measure is None else fmt17(self.x2_measure),
            "alternation_ok": bool(self.alternation_ok),
        }


def good_set(params: ModelParams, profile: GridProfile, sigma_phi: StepProfile,
             gamma: Optional[float] = None, delta0: float = 0.25,
             delta1: float = 0.45, eps0: float = 0.28) -> StructureReport:
    """Build the good set and its sign runs.

    Long constant-sign intervals of sigma_phi (length >= gamma^-delta1) seed
    the good region; blocks of the regular delta0-partition touching its
    complement are removed; the remaining components longer than
    gamma^{-2/3-eps0/2} make up the good set. Block means come from the
    samples between the ``_block_cuts`` of the edges, in one pass. Runs are
    maximal same-type block sequences inside each component;
    ``alternation_ok`` says neighbouring sign runs alternate, at most one
    zero block apart. On a periodic ``profile`` the intervals, components
    and runs wrap the torus as ``runs`` does: one that wraps has a negative
    start (its blocks from k - n_blocks on, its left edge minus L). A
    component that is the whole torus is [0, L), its runs wrap the seam,
    and with two sign runs or more the last neighbours the first.
    """
    gamma = params.gamma if gamma is None else gamma
    if not (0.0 < delta0 < eps0 < 1.0 / 3.0):
        raise ParameterError("need 0 < delta0 < eps0 < 1/3")
    if not (delta0 < delta1 < 2.0 / 3.0):
        raise ParameterError("need delta0 < delta1 < 2/3")
    L = profile.L
    periodic = profile.step_bc == "periodic"
    # coarse blocks and their types
    part = regular_partition(L, delta0, gamma).snapped(profile.dx)
    n = part.n_blocks
    means = _block_means(profile.samples, _block_cuts(profile, part.edges))
    types = [block_type(m, params.m_beta) for m in means]
    # edges by block index from -n to n, so a wrapped range reads them too
    edges = np.append(part.edges[:-1] - L, part.edges)
    # blocks fully covered by the long sigma intervals survive; each block
    # is read in place and one period to its left, where an interval that
    # wraps the torus starts
    long_ivals = np.array([(a, b) for a, b, _ in sigma_phi.sign_intervals(
        periodic) if b - a >= gamma ** (-delta1)]).reshape(-1, 2)
    cover = np.maximum(np.minimum(edges[1:, None], long_ivals[:, 1])
                       - np.maximum(edges[:-1, None], long_ivals[:, 0]),
                       0.0).sum(axis=1)
    keep = cover[:n] + cover[n:] >= np.diff(part.edges) - 1e-9
    # long enough components of kept blocks, as [start, stop) block ranges
    min_len = gamma ** (-2.0 / 3.0 - eps0 / 2.0)
    comp = [(a, b) for a, b in zip(*runs(keep, periodic=periodic))
            if keep[a] and edges[b + n] - edges[a + n] >= min_len]
    lam_k = [(edges[a + n], edges[b + n]) for a, b in comp]
    good_measure = float(sum(b - a for a, b in lam_k))
    # runs of constant type inside each component
    sign_runs: List[dict] = []
    alternation_ok = True
    for a, b in comp:
        ring = periodic and b - a == n
        signs, gaps, zeros = [], [], 0   # gaps: zero blocks before each sign
        for k, j in zip(*runs([types[i] for i in range(a, b)], periodic=ring)):
            k, j = int(a + k), int(a + j)
            if types[k] == "zero":
                zeros += j - k
                continue
            signs.append(1 if types[k] == "plus" else -1)
            gaps.append(zeros)
            zeros = 0
            sign_runs.append({"interval": (float(edges[k + n]),
                                           float(edges[j + n])),
                              "sign": signs[-1], "blocks": (k, j - 1),
                              "length": float(edges[j + n] - edges[k + n])})
        pairs = list(zip(signs, signs[1:], gaps[1:]))
        if ring and len(signs) > 1:      # the last meets the first at the seam
            pairs.append((signs[-1], signs[0], zeros + gaps[0]))
        alternation_ok &= all(s != t and g <= 1 for s, t, g in pairs)
    return StructureReport(
        L=L, gamma=gamma,
        params={"delta0": delta0, "delta1": delta1, "eps0": eps0},
        good_intervals=lam_k, good_measure=good_measure, runs=sign_runs,
        block_edges=part.edges, block_types=types, block_means=means,
        h_lengths=sigma_phi.interval_lengths(periodic),
        alternation_ok=alternation_ok)


def defect_sets(report: StructureReport, params: ModelParams, epsilon: float,
                epsilon_prime: float, h_star: float) -> Tuple[float, float]:
    """|X1|, |X2|: coarse-profile deviation and wrong-length run measures.

    X1 collects the interior blocks of every run where ||psi| - m_beta|
    exceeds gamma^epsilon; X2 the runs whose length differs from h* by more
    than h* gamma^epsilon_prime. Results are stored on the report.
    """
    eps0 = report.params["eps0"]
    if not (0.0 < epsilon < 1.0 / 3.0 + eps0 / 2.0):
        raise ParameterError("epsilon out of range")
    if not (0.0 < epsilon_prime < eps0 / 2.0):
        raise ParameterError("epsilon_prime out of range")
    gam = report.gamma
    m_b = params.m_beta
    widths = np.diff(report.block_edges)
    x1 = 0.0
    x2 = 0.0
    for run in report.runs:
        a_blk, b_blk = run["blocks"]
        # interior: strip the first and last block of the run (a wrapped
        # run's negative indices count from the end)
        for k in range(a_blk + 1, b_blk):
            if abs(abs(report.block_means[k]) - m_b) >= gam ** epsilon:
                x1 += widths[k]
        if abs(run["length"] - h_star) >= h_star * gam ** epsilon_prime:
            x2 += run["length"]
    report.x1_measure = float(x1)
    report.x2_measure = float(x2)
    return float(x1), float(x2)


def l_wrong(step: StepProfile, h_star: float, epsilon: float,
            gamma: float, bc: str = "open") -> float:
    """Total length of sign intervals with |h_j - h*| >= h* gamma^epsilon;
    with ``bc`` "periodic" the interval that wraps the torus is one."""
    h = step.interval_lengths(_step_periodic(bc))
    bad = np.abs(h - h_star) >= h_star * gamma ** epsilon
    return float(np.sum(h[bad]))


def _excess_parts(params: ModelParams, gamma: float, e_star: float,
                  h: np.ndarray, values: np.ndarray, widths: np.ndarray,
                  starts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The excess h (e(h) - e(h*)) of each sign interval of length h, from
    one array e(h), and per step profile (its pieces from ``starts`` on)
    the well integral (F(0)/m_beta^2) int (|sigma| - m_beta)^2."""
    m_b = params.m_beta
    well = params.f0 / m_b ** 2 * np.add.reduceat(
        widths * (np.abs(values) - m_b) ** 2, starts)
    return h * (energy_per_length(params, h, gamma) - e_star), well


def excess_energy_decomposition(params: ModelParams, step: StepProfile,
                                gamma: Optional[float] = None,
                                h_star: Optional[float] = None,
                                e_star: Optional[float] = None,
                                bc: str = "open"):
    """Both terms of the excess bound: interval excess and the well integral.

    Returns (excess_sum, tildeF_integral, per_interval) with
    excess_sum = sum_j h_j (e(h_j) - e(h*)) over the sign intervals (the
    one that wraps the torus counted once when ``bc`` is "periodic") and
    the well integral (F(0)/m_beta^2) int (|sigma| - m_beta)^2; the profile
    is the one profile of ``_excess_parts``.
    """
    gamma = params.gamma if gamma is None else gamma
    if h_star is None or e_star is None:
        h_star, e_star, _, _ = optimal_h(params, gamma)
    h = step.interval_lengths(_step_periodic(bc))
    excess, well = _excess_parts(params, gamma, e_star, h, step.values,
                                 step.widths, _ONE_CELL)
    per = list(zip(h.tolist(), excess.tolist()))
    return float(sum(t for _, t in per)), float(well[0]), per


def histogram_csv(report: StructureReport) -> str:
    """CSV of the sign-interval length histogram (total length per bin, 24
    equal bins from 0 to the longest interval)."""
    h = report.h_lengths
    lines = ["bin_left,bin_right,total_length"]
    if h.size:
        counts, edges = np.histogram(h, bins=_HIST_BINS,
                                     range=(0.0, float(h.max())), weights=h)
        for k in range(_HIST_BINS):
            lines.append(f"{fmt17(edges[k])},{fmt17(edges[k + 1])},{fmt17(counts[k])}")
    return "\n".join(lines) + "\n"
