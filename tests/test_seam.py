"""Where the torus is cut does not matter: the seam rule of ``profiles.runs``.

A periodic step profile rolled so that it starts at another breakpoint (its
pieces rotated and re-anchored at 0) is the same profile on the torus, so
every reader of its sign runs must give the same numbers: the surface,
well and dipole terms of E~, the interfaces, the sign intervals as arcs of
the torus, the wrong-length measure, the excess and, once the torus holds
two sign runs or more, the chessboard bound. The widths are multiples of
1/64, so every breakpoint and every interval length is exact in any order
of summation; only the closed forms' arithmetic rounds. The grid case:
the walls that multistart's annihilation reads move with the samples, and
the structure report of a torus that is one good component reads the same
alternation wherever the torus is cut. And the rule for a zero piece,
pinned on one profile.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_pair_integral import dense_chessboard
from froth1d.diagnostics import excess_energy_decomposition, good_set, l_wrong
from froth1d.energy import step_dipole_energy, tilde_energy
from froth1d.minimize import _wall_runs
from froth1d.model import eval_tilde_F
from froth1d.profiles import GridProfile, StepProfile, regular_partition
from froth1d.sharp import chessboard_lower_bound, optimal_h

_EPS = np.finfo(float).eps
GAMMA = 1e-2
# the levels of the pieces, in units of m_beta where marked: +-m_beta,
# +-0.8 and zero
_LEVELS = ("m", "-m", 0.8, -0.8, 0.0)


def _level(params, code):
    return {"m": params.m_beta, "-m": -params.m_beta}.get(code, code)


def _rolled(step, r):
    """``step`` started at its breakpoint r: pieces rotated, anchored at 0."""
    widths = np.roll(step.widths, -r)
    return replace(step, breakpoints=np.append(0.0, np.cumsum(widths)),
                   values=np.roll(step.values, -r))


def _arcs(step, origin):
    """The periodic sign intervals as (start mod L, length, sign), the start
    in the coordinates whose 0 is ``origin`` of this profile's own."""
    return [((a + origin) % step.L, b - a, sign)
            for a, b, sign in step.sign_intervals()]


def _is_rotation(seq, other):
    return len(seq) == len(other) and any(
        seq[k:] + seq[:k] == other for k in range(len(seq)))


@settings(max_examples=300, deadline=None)
@given(pieces=st.lists(st.tuples(st.integers(1, 40 * 64),
                                 st.sampled_from(_LEVELS)),
                       min_size=1, max_size=9),
       shift=st.integers(0, 8))
# the torus of one sign run whose cell the cut moves (see the chessboard
# docstring), and a wrapped run that a zero piece ends
@example(pieces=[(1280, "m"), (1280, 0.8), (1280, 0.8)], shift=2)
@example(pieces=[(640, "m"), (32, 0.0), (1000, "-m"), (900, "m")], shift=1)
def test_step_readers_do_not_see_the_seam(params_tau, pieces, shift):
    p = params_tau
    step = StepProfile.from_pieces([(w / 64.0, _level(p, v))
                                    for w, v in pieces], periodic=True)
    n = step.values.size
    r = shift % n
    rolled = _rolled(step, r)
    origin = float(step.breakpoints[r])
    # the same arcs of the torus, in the same cyclic order; a torus of one
    # sign run is that run cut at x = 0, on either profile
    arcs, rolled_arcs = _arcs(step, 0.0), _arcs(rolled, origin)
    if len(arcs) > 1:
        assert _is_rotation(arcs, rolled_arcs)
    else:
        assert [a[1:] for a in rolled_arcs] == [a[1:] for a in arcs]
    assert _is_rotation(step.interval_lengths().tolist(),
                        rolled.interval_lengths().tolist())
    assert rolled.n_jumps() == step.n_jumps()
    h_star, e_star, _, _ = optimal_h(p)
    # lengths are exact, so the same intervals are wrong by the same test,
    # and their dyadic sum is exact in any order
    assert (l_wrong(p, rolled, h_star, 0.1)
            == l_wrong(p, step, h_star, 0.1))

    # E~: the surface term counts the same interfaces. The well term sums n
    # nonnegative terms, in two orders: n roundings of it a side. The
    # dipole's intermediates (u, T, Sp, Sq, the self integrals) are each at
    # most their value for |sigma|, where nothing cancels, so the dipole of
    # |sigma| bounds the magnitude M of everything summed; a side rounds
    # each term a few times (expm1, exp, the Taylor sum, a product), the
    # doubling scan log2(n) times and the reduction n times
    e0, parts0 = tilde_energy(p, step, breakdown=True)
    e1, parts1 = tilde_energy(p, rolled, breakdown=True)
    assert parts1["surface"] == parts0["surface"]
    well = float(np.sum(step.widths * eval_tilde_F(step.values, p)))
    dip = step_dipole_energy(p, replace(step, values=np.abs(step.values)))
    well_tol = 2.0 * n * _EPS * well
    dip_tol = 2.0 * (n + 2.0 * math.log2(n + 1) + 32.0) * _EPS * dip
    assert abs(parts1["well"] - parts0["well"]) <= well_tol
    assert abs(parts1["dipole"] - parts0["dipole"]) <= dip_tol
    assert abs(e1 - e0) <= well_tol + dip_tol + 4.0 * _EPS * (
        well + parts0["surface"] + dip)

    # the excess: each interval's term depends on its exact length alone,
    # and the terms are summed in two orders (k roundings a side); the well
    # integral sums n nonnegative terms
    ex0, w0, per0 = excess_energy_decomposition(p, step, e_star=e_star)
    ex1, w1, per1 = excess_energy_decomposition(p, rolled, e_star=e_star)
    assert _is_rotation(per0, per1)
    assert abs(ex1 - ex0) <= 2.0 * len(per0) * _EPS * sum(
        abs(t) for _, t in per0)
    assert abs(w1 - w0) <= 2.0 * n * _EPS * w0

    # the chessboard cells are the same arcs; a torus of one sign run is
    # one cell cut at x = 0, and there the bound moves with the cut
    if len(arcs) < 2:
        return
    b0, cells0 = chessboard_lower_bound(p, step)
    b1, cells1 = chessboard_lower_bound(p, rolled)
    # a cell is scored in its own coordinates, so only the order of the
    # roundings differs: each side within half of (8 n + 128) eps of the
    # magnitude of the cell's terms (the bound that the dense oracle of
    # test_certificate_reference meets), that magnitude from the oracle
    dense = dense_chessboard(p, step, GAMMA, True)
    at = {arc[0]: i for i, arc in enumerate(arcs)}
    total = 0.0
    for (a, _, _), (h, t) in zip(_arcs(rolled, origin), cells1):
        i = at[a]
        tol = (8.0 * dense[i][3] + 128.0) * _EPS * dense[i][2]
        assert h == cells0[i][0]
        assert abs(t - cells0[i][1]) <= tol
        total += tol
    assert abs(b1 - b0) <= total + 2.0 * len(cells0) * _EPS * sum(
        abs(t) for _, t in cells0)


@settings(max_examples=300, deadline=None)
@given(samples=st.lists(st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0]),
                        min_size=1, max_size=60),
       shift=st.integers(0, 59))
@example(samples=[0.5, -1.0, -1.0, 0.5], shift=1)
@example(samples=[-0.0, 0.0, 1.0], shift=2)
def test_walls_move_with_the_samples(samples, shift):
    # the sign runs the annihilation reads (one per wall), by their starts
    # on [0, n): on np.roll(samples, s) they are the runs on the samples,
    # each moved by s, and they keep their lengths
    x = np.array(samples)
    n, s = x.size, shift % x.size
    a0, b0 = _wall_runs(x)
    a1, b1 = _wall_runs(np.roll(x, s))
    assert int(np.sum(b1 - a1)) == n
    if a0.size == 1:                 # no wall: the one run [0, n)
        assert a1.tolist() == [0] and b1.tolist() == [n]
        return
    assert (a1 % n).tolist() == sorted(((a0 + s) % n).tolist())
    assert np.all(np.diff(a1 % n) > 0) and np.all(b1 - a1 > 0)
    assert dict(zip(((a0 + s) % n).tolist(), (b0 - a0).tolist())) == dict(
        zip((a1 % n).tolist(), (b1 - a1).tolist()))


def _ring_report(params, samples, L):
    """The structure report of a torus at dx = 1/8 under a sigma of one
    long sign interval, so that every block is kept and the good set is the
    whole ring."""
    profile = GridProfile(L=L, dx=1.0 / 8.0, samples=samples, bc="periodic")
    sigma = StepProfile.from_pieces([(L, 0.9)], periodic=True)
    report = good_set(params, profile, sigma)
    assert report.good_intervals == [(0.0, L)]
    return report


@settings(max_examples=200, deadline=None)
@given(types=st.lists(st.sampled_from(_LEVELS[:2] + (0.0,)), min_size=20,
                      max_size=20),
       shift=st.integers(1, 19))
@example(types=["-m"] + [0.0] * 18 + ["m"], shift=1)
@example(types=["m", 0.0, "-m"] + [0.0] * 17, shift=5)
def test_the_alternation_does_not_see_the_seam(params_tau, types, shift):
    # L = 65 at dx = 1/8 has 20 delta0-blocks of 26 samples each, so a roll
    # by whole blocks moves every block onto another: the same ring of
    # block types, cut elsewhere
    per = 26
    samples = np.repeat([_level(params_tau, t) for t in types], per)
    base = _ring_report(params_tau, samples, 65.0)
    rolled = _ring_report(params_tau, np.roll(samples, -shift * per), 65.0)
    assert rolled.alternation_ok is base.alternation_ok
    assert _is_rotation([(r["sign"], r["length"]) for r in base.runs],
                        [(r["sign"], r["length"]) for r in rolled.runs])


def test_a_wall_pair_with_zeros_between_fails_at_every_cut(params_tau):
    # L = 64 at dx = 1/8: 20 delta0-blocks of 25 or 26 samples, typed minus,
    # 18 zero blocks, plus. Around the ring the plus run meets the minus run
    # across 18 zero blocks, so the alternation fails read from x = 0 and
    # from each of the other 19 block edges
    L = 64.0
    cuts = np.round(regular_partition(L, 0.25, GAMMA).edges * 8.0).astype(int)
    m = params_tau.m_beta
    samples = np.zeros(cuts[-1])
    samples[:cuts[1]], samples[cuts[-2]:] = -m, m
    for cut in cuts[:-1]:
        report = _ring_report(params_tau, np.roll(samples, -cut), L)
        assert report.block_types.count("zero") == 18
        assert report.alternation_ok is False


@pytest.mark.parametrize("v, energy, jumps, intervals", [
    (1e-9, 0.6612, 1, 2),
    (0.0, 0.4636, 0, 3),
])
def test_a_zero_piece_carries_no_interface(params_tau, v, energy, jumps,
                                           intervals):
    # +m_beta, v, -m_beta on an open line: with v = 1e-9 the profile has one
    # interface and pays tau for it; with v = 0 the zero piece is a sign run
    # (an interval, a chessboard cell) of its own, between two runs of
    # which neither meets a run of the opposite sign, so no interface and
    # no tau. Both E~ to the four digits measured when the rule was written
    m = params_tau.m_beta
    step = StepProfile.from_pieces([(20.0, m), (0.5, v), (19.5, -m)])
    e, parts = tilde_energy(params_tau, step, breakdown=True)
    assert e == pytest.approx(energy, abs=5e-5)
    assert step.n_jumps() == jumps
    assert parts["surface"] == jumps * params_tau.tau
    assert len(step.sign_intervals()) == intervals
    assert len(chessboard_lower_bound(params_tau, step)[1]) == intervals


@pytest.mark.parametrize("reader", ["chessboard", "l_wrong", "excess"])
def test_step_profile_readers_read_the_domain(params_tau, reader):
    # the readers take the domain from the step profile: on this torus the
    # run that wraps is one interval of h*, and on the open line it is two
    # intervals of h*/2
    h_star, e_star, _, _ = optimal_h(params_tau)
    m = params_tau.m_beta
    step = StepProfile.from_pieces([(h_star / 2, m), (h_star, -m),
                                    (h_star / 2, m)])
    read = {
        "chessboard": lambda s: chessboard_lower_bound(params_tau, s)[0],
        "l_wrong": lambda s: l_wrong(params_tau, s, h_star, 0.3),
        "excess": lambda s: excess_energy_decomposition(
            params_tau, s, e_star=e_star)[0],
    }[reader]
    assert read(replace(step, periodic=True)) != read(step)
