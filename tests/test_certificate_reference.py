"""The one-pass chessboard bound and block scoring against dense oracles.

The chessboard cells are scored against the dense cell-pair matrix of
``dense_pair_integral`` (a different algorithm from the O(pieces) pass),
their sign runs found by a plain loop over the pieces; each cell's term must
agree to a rounding bound set by its size and the magnitude of its terms. A
block's score must be ``direct_oracles.dense_energy`` of the block as an
open profile at gamma = 0.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_pair_integral import dense_cell_energy, dense_chessboard
from direct_oracles import dense_energy
from froth1d.coarsegrain import classify_blocks
from froth1d.model import KacMeasure, ModelParams
from froth1d.profiles import (BlockPartition, GridProfile, StepProfile,
                              regular_partition)
from froth1d.sharp import (cell_specific_energy, chessboard_lower_bound,
                           energy_per_length)

TAU = 0.19762754872186078
_EPS = np.finfo(float).eps


def _cell_bound(n_pieces, magnitude):
    """One cell's term on either side: the dense side forms each matrix
    entry and the wall integrals in closed form (about ten roundings each)
    and sums n^2 products in two matrix-vector passes (2 n roundings of the
    terms' magnitude), the pass a doubling scan and a sum over the n pieces
    (2 n more), and its three kernel terms are at most twice the dense
    side's in magnitude: (8 n + 128) eps of the magnitude."""
    return (8.0 * n_pieces + 128.0) * _EPS * magnitude


# ---------------------------------------------------------------------------
# inputs


def _model(gamma, atoms):
    return ModelParams.create(beta=2.0, gamma=gamma, tau=TAU,
                              measure=KacMeasure(atoms=atoms))


_GAMMA = st.floats(math.log(1e-4), math.log(0.1)).map(math.exp)
# rates from 1/2: as gamma alpha h -> 0 both sides cancel to relative order
# 1/(gamma alpha h), which the magnitude in ``_cell_bound`` carries
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


def _assert_same_terms(got, want, step):
    bound, per = got
    assert len(per) == len(want)
    total = 0.0
    for (h, t), (rh, rt, size, n) in zip(per, want):
        # a cell length is a sum of at most n piece widths on either side
        assert abs(h - rh) <= 2.0 * (n + 2) * _EPS * step.L
        assert abs(t - rt) <= _cell_bound(n, size)
        total += _cell_bound(n, size)
    assert abs(bound - math.fsum(w[1] for w in want)) <= (
        total + len(per) * _EPS * sum(abs(w[1]) for w in want))


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
                       dense_chessboard(params, step, gamma, periodic), step)


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
    h, term, size = dense_cell_energy(params, np.diff(cell.breakpoints),
                                      cell.values, gamma)
    assert abs(got * h - term) <= _cell_bound(len(pieces), size)


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
    idx = np.round(part.edges / dx).astype(int)
    assert got["energy"].shape == (idx.size - 1,)
    assert got["cutoff"] == 2.0 * TAU
    assert np.array_equal(got["low"], got["energy"] <= 2.0 * TAU)
    # F and the exchange pairs are nonnegative, so the sums err relative to
    # the block's energy: n + 2/dx roundings of it on the library's side (a
    # sum over the block, the band's dot products), a pairwise n^2 sum on
    # the direct side. F itself errs by 8 eps of the magnitude of a's terms,
    # at most log(2)/beta + J0_hat/2 for a(t) and for a(m_beta), per sample
    a_terms = math.log(2.0) / p.beta + 0.5 * p.kernel.j0_hat
    for e, i, j in zip(got["energy"], idx[:-1], idx[1:]):
        block = GridProfile(L=(j - i) * dx, dx=dx, samples=samples[i:j])
        want = dense_energy(p, block, 0.0)
        n = j - i
        bound = ((n + 2.0 / dx + 2.0 * math.log2(n) + 16.0) * _EPS * want
                 + 16.0 * _EPS * a_terms * dx * n)
        assert abs(e - want) <= bound


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
