"""The one-pass chessboard bound and block scoring against per-cell and
per-block reference versions.

The references below are the earlier implementations, kept verbatim as
oracles: ``chessboard_lower_bound`` built every sign interval as a
StepProfile with ``restrict`` (gluing two restrictions for the periodic
wrap) and scored it with ``cell_specific_energy``, whose quadratic form
multiplied the dense cell-pair matrix of ``_pair_integral``;
``classify_blocks`` called ``short_range_energy`` once per block, which
looped over the band offsets of one block. The library versions must agree
with them to rounding, with the same intervals in the same order.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from froth1d.coarsegrain import classify_blocks
from dense_pair_integral import _pair_integral
from froth1d.errors import AlignmentError, SignError
from froth1d.model import KacMeasure, ModelParams, eval_F, eval_tilde_F
from froth1d.profiles import (BlockPartition, GridProfile, StepProfile,
                              regular_partition)
from froth1d.sharp import (cell_specific_energy, chessboard_lower_bound,
                           energy_per_length)

TAU = 0.19762754872186078

# ---------------------------------------------------------------------------
# references


def ref_vh_quadratic_form(values, edges, h, gamma, measure):
    total = 0.0
    for wk, alpha in measure.atoms:
        a = gamma * alpha
        q = math.exp(-2.0 * a * h)
        G = 1.0 / (1.0 - q)
        E = math.exp(-a * h)
        # 1D cell integrals of decaying exponentials from either wall
        P = (np.exp(-a * edges[:-1]) - np.exp(-a * edges[1:])) / a      # e^{-ax}
        Q = (np.exp(-a * (h - edges[1:])) - np.exp(-a * (h - edges[:-1]))) / a
        Sp = float(values @ P)
        Sq = float(values @ Q)
        # |d| part: exponential-kernel quadratic form over cells
        abs_part = float(values @ _pair_integral(a, edges) @ values)
        # cosh(ad) part: q G [e^{-a(y-x)} + e^{a(y-x)}] integrates to
        # 2 G E Sp Sq after regrouping with the prefactor
        quad = abs_part + 2.0 * G * E * Sp * Sq - G * (Sp * Sp + Sq * Sq)
        total += wk * quad
    return gamma * measure.lam * total


def ref_cell_specific_energy(params, sigma, gamma=None):
    gamma = params.gamma if gamma is None else gamma
    tau = params.require_tau()
    values, edges, h = sigma.values, sigma.breakpoints, sigma.L
    signs = np.sign(values[np.abs(values) > 0.0])
    if signs.size and (np.any(signs > 0) and np.any(signs < 0)):
        raise SignError("cell profile must have constant sign")
    vals = np.abs(values)
    widths = np.diff(edges)
    well = float(np.sum(widths * eval_tilde_F(vals, params))) / h
    quad = ref_vh_quadratic_form(vals, edges, h, gamma, params.measure)
    return well + tau / h + quad / (2.0 * h)


def ref_chessboard_lower_bound(params, step, gamma=None, bc="open"):
    gamma = params.gamma if gamma is None else gamma
    per = []
    for a, b, _sign in step.sign_intervals(periodic=(bc == "periodic")):
        h_i = b - a
        if a < 0.0:
            # wrapped interval (periodic merge): glue the two arcs
            head = step.restrict(step.L + a, step.L)
            tail = step.restrict(0.0, b)
            cell = StepProfile(
                breakpoints=np.concatenate([head.breakpoints,
                                            head.L + tail.breakpoints[1:]]),
                values=np.concatenate([head.values, tail.values]),
                m_bar=step.m_bar)
        else:
            cell = step.restrict(a, b)
        term = h_i * ref_cell_specific_energy(params, cell, gamma=gamma)
        per.append((h_i, term))
    return float(sum(t for _, t in per)), per


def ref_exchange_banded(samples, jband, dx):
    acc = 0.0
    for k, jk in enumerate(jband, start=1):
        if jk == 0.0 or k >= samples.size:
            continue
        d = samples[k:] - samples[:-k]
        acc += jk * float(d @ d)
    return 0.5 * dx * dx * acc


def ref_short_range_energy(params, profile, interval=None):
    if interval is None:
        seg = profile.samples
    else:
        a, b = interval
        ia = a / profile.dx
        ib = b / profile.dx
        if not (abs(ia - round(ia)) < 1e-6 and abs(ib - round(ib)) < 1e-6):
            raise AlignmentError(f"interval ({a}, {b}) not grid aligned")
        seg = profile.samples[int(round(ia)):int(round(ib))]
    if seg.size == 0:
        return 0.0
    local = profile.dx * float(np.sum(eval_F(seg, params)))
    jband = params.kernel.band(profile.dx)
    return local + ref_exchange_banded(seg, jband, profile.dx)


def ref_classify_blocks(params, profile, partition, cutoff_multiplier=2.0):
    cutoff = cutoff_multiplier * params.require_tau()
    energies = np.array([
        ref_short_range_energy(params, profile, (a, b))
        for a, b in partition.blocks()])
    return {"energy": energies, "low": energies <= cutoff, "cutoff": cutoff}


# ---------------------------------------------------------------------------
# inputs


def _model(gamma, atoms):
    return ModelParams.create(beta=2.0, gamma=gamma, tau=TAU,
                              measure=KacMeasure(atoms=atoms))


_GAMMA = st.floats(math.log(1e-4), math.log(0.1)).map(math.exp)
# rates from 1/2: the references lose digits as gamma alpha h -> 0 (against
# a 50-digit evaluation, 3e-13 of the term at gamma alpha = 2e-5, h = 112,
# where the library is within 2e-16); from 1/2 they stay well inside 1e-12
_ATOMS = st.one_of(
    st.floats(0.5, 4.0).map(lambda a: ((1.0, a),)),
    st.tuples(st.floats(0.1, 0.9), st.floats(0.5, 4.0),
              st.floats(0.5, 4.0)).map(
        lambda t: ((t[0], t[1]), (1.0 - t[0], t[2]))))
# log-uniform widths; values of both signs, zero, and the box ends
_WIDTH = st.floats(math.log(0.02), math.log(60.0)).map(math.exp)
_VALUE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                   st.floats(-1.0, 1.0))


def _step(pieces):
    return StepProfile.from_pieces(pieces, m_bar=0.9)


def _assert_same_terms(got, want):
    bound, per = got
    ref_bound, ref_per = want
    assert len(per) == len(ref_per)
    scale = max(abs(t) for _, t in ref_per)
    for (h, t), (rh, rt) in zip(per, ref_per):
        assert h == pytest.approx(rh, rel=1e-12)
        assert abs(t - rt) <= 1e-12 * scale
    assert abs(bound - ref_bound) <= 1e-12 * len(per) * scale


@settings(max_examples=300, deadline=None)
@given(pieces=st.lists(st.tuples(_WIDTH, _VALUE), min_size=1, max_size=40),
       gamma=_GAMMA, atoms=_ATOMS, periodic=st.booleans())
# a single interval, a wrap merge over two arcs, a merge of two single
# pieces around a zero run, and zero runs at both ends
@example(pieces=[(7.0, 0.8)], gamma=1e-2, atoms=((1.0, 1.0),), periodic=True)
@example(pieces=[(3.0, 0.9), (2.0, 0.7), (5.0, -0.9), (1.0, 1.0), (4.0, 0.6)],
         gamma=1e-3, atoms=((0.5, 1.0), (0.5, 3.0)), periodic=True)
@example(pieces=[(2.0, -0.9), (1.0, 0.0), (6.0, -0.8)], gamma=1e-4,
         atoms=((1.0, 1.0),), periodic=True)
@example(pieces=[(1.0, 0.0), (2.0, 0.9), (1.5, -0.0)], gamma=0.1,
         atoms=((1.0, 2.0),), periodic=True)
def test_chessboard_matches_reference(pieces, gamma, atoms, periodic):
    params = _model(gamma, atoms)
    step = _step(pieces)
    bc = "periodic" if periodic else "open"
    _assert_same_terms(chessboard_lower_bound(params, step, gamma, bc=bc),
                       ref_chessboard_lower_bound(params, step, gamma, bc=bc))


@settings(max_examples=200, deadline=None)
@given(pieces=st.lists(st.tuples(_WIDTH, st.floats(0.0, 1.0)), min_size=1,
                       max_size=40),
       gamma=_GAMMA, atoms=_ATOMS, negative=st.booleans())
def test_cell_energy_matches_reference(pieces, gamma, atoms, negative):
    params = _model(gamma, atoms)
    if negative:
        pieces = [(w, -v) for w, v in pieces]
    cell = _step(pieces)
    got = cell_specific_energy(params, cell, gamma)
    want = ref_cell_specific_energy(params, cell, gamma)
    assert got == pytest.approx(want, rel=1e-12)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), per_unit=st.sampled_from([8, 16, 32]),
       n_units=st.integers(1, 40), gamma=_GAMMA,
       sigma=st.floats(0.0, 0.5))
def test_block_energies_match_reference(params, data, per_unit, n_units,
                                        gamma, sigma):
    dx = 1.0 / per_unit
    n = per_unit * n_units + data.draw(st.integers(0, per_unit - 1))
    # plateaus at +-m_beta and 0 with noise of random size, then clipped
    levels = data.draw(st.lists(st.sampled_from(
        [params.m_beta, -params.m_beta, 0.0, 1.0]), min_size=1, max_size=6))
    base = np.repeat(levels, -(-n // len(levels)))[:n]
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    samples = np.clip(base + sigma * rng.standard_normal(n), -1.0, 1.0)
    profile = GridProfile(L=n * dx, dx=dx, samples=samples)
    if data.draw(st.booleans()) and profile.L * gamma ** 0.2 >= 1.0:
        part = regular_partition(profile.L, 0.2, gamma).snapped(dx)
    else:
        k = data.draw(st.integers(0, min(n - 1, 30)))
        inner = data.draw(st.lists(st.integers(1, n - 1), min_size=k,
                                   max_size=k, unique=True))
        part = BlockPartition(edges=np.array(sorted([0, n, *inner])) * dx)
    p = params.with_tau(TAU)
    got = classify_blocks(p, profile, part)
    want = ref_classify_blocks(p, profile, part)
    assert got["energy"].shape == want["energy"].shape
    np.testing.assert_allclose(got["energy"], want["energy"], rtol=1e-13,
                               atol=0.0)
    assert got["cutoff"] == want["cutoff"]


@pytest.mark.parametrize("bc", ["open", "periodic"])
def test_twenty_thousand_pieces(bc):
    # a pieces x pieces matrix would need 3.2 GB here; the pass is O(pieces)
    params = _model(1e-2, ((0.5, 1.0), (0.5, 3.0)))
    rng = np.random.default_rng(11)
    n = 20_000
    widths = rng.uniform(0.05, 2.0, n)
    values = rng.choice([-1.0, 1.0], n) * rng.uniform(0.8, 1.0, n)
    step = StepProfile(breakpoints=np.concatenate([[0.0], np.cumsum(widths)]),
                       values=values)
    bound, per = chessboard_lower_bound(params, step, bc=bc)
    assert len(per) == len(step.sign_intervals(periodic=bc == "periodic"))
    assert math.isfinite(bound)
    assert bound == pytest.approx(math.fsum(t for _, t in per), rel=1e-12)


def test_twenty_thousand_pieces_in_one_cell(params_tau):
    # a constant m_beta cell cut into 20,000 pieces is the closed-form cell
    # of e(h); the within-cell recursion spans all of them
    rng = np.random.default_rng(12)
    widths = rng.uniform(0.05, 2.0, 20_000)
    step = StepProfile(breakpoints=np.concatenate([[0.0], np.cumsum(widths)]),
                       values=np.full(widths.size, params_tau.m_beta))
    bound, per = chessboard_lower_bound(params_tau, step, 1e-2)
    assert len(per) == 1
    assert bound == pytest.approx(
        step.L * energy_per_length(params_tau, step.L, 1e-2), rel=1e-10)
