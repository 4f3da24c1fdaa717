"""The coarse-graining bookkeeping against its definitions.

The replacement map is checked block by block against what it promises:
the pieces tile the block and keep its mean, their values lie in [-1, 1],
its jumps sit at +-m_beta, the case tag is the one the documented
thresholds select, and two symmetries hold. The flat-segment search is
checked against a brute force over every run, the sign intervals against
their definition, and the good set is recomputed block by block from its
definition on small inputs, on the line and on the torus. No check shares
code with the library beyond the inputs it is given.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from direct_oracles import flat_segment_brute
from froth1d.coarsegrain import (CoarseGrainConfig, find_flat_segment,
                                 replace_block)
from froth1d.diagnostics import good_set
from froth1d.errors import FlatSegmentNotFound
from froth1d.profiles import GridProfile, StepProfile, regular_partition

_EPS = np.finfo(float).eps

# ---------------------------------------------------------------------------
# the replacement map

CONTEXTS = [
    ("bad", None),
    ("good", (1.0, -1.0)), ("good", (-1.0, 1.0)),
    ("good", (1.0, 1.0)), ("good", (-1.0, -1.0)),
    ("boundary_good", ("left", 1.0)), ("boundary_good", ("left", -1.0)),
    ("boundary_good", ("right", 1.0)), ("boundary_good", ("right", -1.0)),
]
# the tags of the bad-block rule, and those whose pieces are all +-m_beta
_BAD_TAGS = ("1-const", "1-split")
_JUMP_TAGS = ("1-split", "2a-jump", "2b-two-jump", "2c-jump")


def _selected_case(params, length, mean, context, cfg, gamma):
    """(tag, plateau) of the case the documented thresholds select:
    zeta = c0 gamma^delta log^2(gamma) for the bad rule and two-sign good
    blocks, t = 1.1 sqrt(5 tau / F''(m_beta)) / sqrt(ell) for one-sign good
    and boundary good blocks, in the frame omega = -1, with
    F''(m) = 1 / (beta (1 - m^2)) - J0_hat. ``plateau`` is the plateau value
    of a plateau case (margins min(log(ell)^2/2, ell/4) held at the end
    values, log(2 ell) on a boundary block), else None."""
    m_b, ell, m = params.m_beta, length, mean
    zeta = cfg.c0 * gamma ** cfg.delta * math.log(gamma) ** 2
    kind, data = context
    if kind == "bad":
        return ("1-const" if abs(m) >= m_b - zeta else "1-split"), None
    if kind == "good" and data[0] != data[1]:
        if abs(m) <= m_b - zeta:
            return "2a-jump", None
        mg = min(0.5 * math.log(ell) ** 2, ell / 4.0)
        return "2a-three", m * ell / (ell - 2.0 * mg)
    omega = data[0] if kind == "good" else data[1]
    mm = m if omega < 0 else -m
    fpp = 1.0 / (params.beta * (1.0 - m_b * m_b)) - params.kernel.j0_hat
    t = 1.1 * math.sqrt(5.0 * params.require_tau() / fpp) / math.sqrt(ell)
    good = kind == "good"
    if mm <= -m_b + t:
        return ("2b-const" if good else "2c-const"), None
    if mm < m_b - t:
        return ("2b-two-jump" if good else "2c-jump"), None
    if good:
        mg = min(0.5 * math.log(ell) ** 2, ell / 4.0)
        return "2b-three", (mm * ell + 2.0 * mg * m_b) / (ell - 2.0 * mg)
    mg = min(0.5 * math.log(2.0 * ell) ** 2, ell / 4.0)
    return "2c-plateau", (mm * ell + mg * m_b) / (ell - mg)


def _same_pieces(a, b, ell):
    """Pieces equal to rounding: widths within 8 eps of ell (a width is
    formed with at most four roundings of ell, on either side), values
    within 8 eps."""
    return len(a) == len(b) and all(
        abs(wa - wb) <= 8.0 * _EPS * ell and abs(va - vb) <= 8.0 * _EPS
        for (wa, va), (wb, vb) in zip(a, b))


def _flipped(context):
    """(omega, mean) -> (-omega, -mean): the context with omega negated."""
    kind, data = context
    if kind == "good":
        return kind, (-data[0], -data[1])
    return kind, (data[0], -data[1])


def _mirrored(context):
    """left <-> right: the context of the mirrored block."""
    kind, data = context
    if kind == "good":
        return kind, (data[1], data[0])
    return kind, ("right" if data[0] == "left" else "left", data[1])


@settings(max_examples=400, deadline=None)
@given(context=st.sampled_from(CONTEXTS),
       mean=st.floats(-0.999, 0.999),
       length=st.floats(0.5, 40.0),
       c0=st.floats(0.001, 0.5),
       gamma=st.sampled_from([1e-2, 1e-3, 3e-2]))
# plateau > 1, demoted: two-jump margins (2a, 2b) and one-sided (2c)
@example(context=("good", (1.0, -1.0)), mean=0.997, length=2.0, c0=0.05,
         gamma=1e-2)
@example(context=("good", (1.0, 1.0)), mean=-0.995, length=3.0, c0=0.05,
         gamma=1e-2)
@example(context=("boundary_good", ("right", -1.0)), mean=0.999, length=2.0,
         c0=0.05, gamma=1e-2)
# the two-jump case of a one-sign good block
@example(context=("good", (-1.0, -1.0)), mean=0.1, length=20.0, c0=0.05,
         gamma=1e-2)
def test_replace_block_matches_reference(params_tau, context, mean, length,
                                         c0, gamma):
    cfg = CoarseGrainConfig(c0=c0)
    m_b = params_tau.m_beta
    pieces, tag, flags = replace_block(params_tau, length, mean, context, cfg,
                                       gamma)
    widths = np.array([w for w, _ in pieces])
    values = np.array([v for _, v in pieces])
    # the pieces tile the block and keep its mean: each piece is formed with
    # at most six roundings of its width and value, the sums with one per
    # piece, so 16 eps of the absolute terms bounds both
    assert np.all(widths >= 0.0)
    assert abs(math.fsum(widths) - length) <= 16.0 * _EPS * length
    assert abs(math.fsum(widths * values) - mean * length) <= 16.0 * _EPS * (
        float(np.abs(widths * values).sum()) + abs(mean) * length)
    assert np.all(np.abs(values) <= 1.0)
    # the case the thresholds select, or the bad rule for a plateau past 1
    want, plateau = _selected_case(params_tau, length, mean, context, cfg,
                                   gamma)
    if tag != want:
        assert plateau is not None and abs(plateau) >= 1.0 - 1e-12
        assert flags.get("demoted") == "plateau>1"
        want = _selected_case(params_tau, length, mean, ("bad", None), cfg,
                              gamma)[0]
    assert tag == want
    if tag in _JUMP_TAGS:
        assert set(np.abs(values).tolist()) == {m_b}
    elif tag in ("1-const", "2b-const", "2c-const"):
        assert pieces == [(length, mean)]
    else:   # a plateau between margins at +-m_beta
        core = int(np.argmax(widths)) if tag == "2c-plateau" else 1
        assert np.all(np.abs(np.delete(values, core)) == m_b)
    if tag == "1-split":
        assert values.tolist() == [m_b, -m_b]
    if tag in _BAD_TAGS:
        return
    # the symmetries, unless the flipped or mirrored block demotes
    flipped = replace_block(params_tau, length, -mean, _flipped(context), cfg,
                            gamma)
    if flipped[1] not in _BAD_TAGS:
        assert flipped[1] == tag
        assert _same_pieces(flipped[0], [(w, -v) for w, v in pieces], length)
    mirrored = replace_block(params_tau, length, mean, _mirrored(context),
                             cfg, gamma)
    if mirrored[1] not in _BAD_TAGS:
        assert _same_pieces(mirrored[0], pieces[::-1], length)


def test_reference_examples_demote(params_tau):
    # the explicit examples above do reach the demotion branch of each case
    cfg = CoarseGrainConfig(c0=0.05)
    for context, mean, length in [(("good", (1.0, -1.0)), 0.997, 2.0),
                                  (("good", (1.0, 1.0)), -0.995, 3.0),
                                  (("boundary_good", ("right", -1.0)),
                                   0.999, 2.0)]:
        _, tag, flags = replace_block(params_tau, length, mean, context, cfg,
                                      1e-2)
        assert flags.get("demoted") == "plateau>1"
        assert tag in _BAD_TAGS


# ---------------------------------------------------------------------------
# flat segments


@settings(max_examples=300, deadline=None)
@given(data=st.data(),
       small=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=120),
       rho=st.floats(0.001, 0.049),
       gamma=st.sampled_from([1e-2, 1e-4]))
def test_find_flat_segment_matches_reference(params, data, small, rho, gamma):
    # four samples per small block, each block's samples straddling its value
    dx, per = 1.0 / 16.0, 4
    jitter = np.array([-0.001, 0.001, 0.0005, -0.0005])
    samples = np.clip(np.repeat(small, per) + np.tile(jitter, len(small)),
                      -1.0, 1.0)
    profile = GridProfile(L=samples.size * dx, dx=dx, samples=samples)
    a = data.draw(st.floats(0.0, profile.L - 0.5))
    b = data.draw(st.floats(a + 0.5, profile.L))
    margins = st.one_of(st.none(), st.floats(0.0, 4.0))
    ml, mr = data.draw(margins), data.draw(margins)
    cfg = CoarseGrainConfig(rho=rho)
    # the documented search: the ell_minus cells of the absolute grid that
    # lie in [a + ml, b - mr] (to 1e-9 of a cell), margins (b - a)/4 by
    # default, each cell's mean by its samples
    lm = cfg.ell_minus
    lo = a + ((b - a) / 4.0 if ml is None else ml)
    hi = b - ((b - a) / 4.0 if mr is None else mr)
    means = samples.reshape(-1, per).mean(axis=1)
    cells = [j for j in range(means.size)
             if j >= lo / lm - 1e-9 and j + 1 <= hi / lm + 1e-9]
    try:
        got = find_flat_segment(params, profile, (a, b), cfg, gamma,
                                margin_left=ml, margin_right=mr)
    except FlatSegmentNotFound as err:
        got = str(err)
    if not cells:
        assert got == "no admissible small blocks in the block core"
        return
    omega, start, run = flat_segment_brute(params.m_beta, means, cells[0],
                                           cells[-1] + 1, gamma ** rho)
    if not run:
        assert got == "no small block stays near +-m_beta"
    else:
        assert got == (omega, (start * lm, (start + run) * lm), run * lm)


# ---------------------------------------------------------------------------
# sign intervals and the good set

_STEP_VALUES = st.sampled_from([0.9, -0.9, 0.3, -0.3, 0.0, -0.0, 1.0, -1.0])


@settings(max_examples=300, deadline=None)
@given(pieces=st.lists(st.tuples(st.floats(0.1, 5.0), _STEP_VALUES),
                       min_size=1, max_size=30),
       periodic=st.booleans())
def test_sign_intervals_matches_reference(pieces, periodic):
    # maximal runs of one sign (0 counts as its own): they tile [0, L) (on
    # the torus from the merged interval's unwrapped start, when the first
    # and last runs share a sign), their signs alternate, and each holds
    # the pieces of its sign between two breakpoints
    step = StepProfile.from_pieces(pieces)
    bp, signs = step.breakpoints.tolist(), np.sign(step.values).tolist()
    got = step.sign_intervals(periodic)
    wrap = periodic and len(got) > 1 and got[0][0] < 0.0
    # a wrapped start is a breakpoint less L, to one rounding of L
    assert abs(got[0][0] - (got[-1][1] - step.L if wrap else 0.0)) <= (
        _EPS * step.L)
    assert got[-1][1] in bp and (wrap or got[-1][1] == step.L)
    assert all(a1 == b0 for (_, b0, _), (a1, _, _) in zip(got, got[1:]))
    assert all(s0 != s1 for (_, _, s0), (_, _, s1) in zip(got, got[1:]))
    if periodic and len(got) > 1:
        assert got[0][2] != got[-1][2]
    for a, b, sign in got:
        pieces_in = [s for x, s in zip(bp, signs)
                     if a <= x < b or a <= x - step.L < b]
        assert pieces_in and all(s == sign for s in pieces_in)
        assert b in bp and (a in bp or a < 0.0)


def _good_set_by_definition(params, profile, sigma, gamma, delta0=0.25,
                            delta1=0.45, eps0=0.28):
    """(good intervals, good measure, runs, alternation_ok) of an open
    profile, block by block: a block of the regular delta0-partition is kept
    when the sign intervals of sigma at least gamma^-delta1 long cover it
    (to 1e-9); maximal runs of kept blocks at least
    gamma^{-2/3 - eps0/2} long are the good set; inside each, the maximal
    runs of one block type (plus at a mean >= 0.9 m_beta, minus at
    <= -0.9 m_beta, else zero) that is not zero are its runs, and the
    alternation fails where two runs in a row share a sign or more than one
    zero block parts them."""
    part = regular_partition(profile.L, delta0, gamma).snapped(profile.dx)
    edges = part.edges.tolist()
    idx = [round(e / profile.dx) for e in edges]
    m_b = params.m_beta
    types = []
    for i, j in zip(idx, idx[1:]):
        mean = float(np.mean(profile.samples[i:j]))
        types.append("plus" if mean >= 0.9 * m_b else
                     "minus" if mean <= -0.9 * m_b else "zero")
    long_ivals = [(a, b) for a, b, _ in sigma.sign_intervals()
                  if b - a >= gamma ** -delta1]
    keep = []
    for a, b in zip(edges, edges[1:]):
        cover = sum(max(0.0, min(b, hi) - max(a, lo)) for lo, hi in long_ivals)
        keep.append(cover >= (b - a) - 1e-9)
    comps, k = [], 0
    while k < len(keep):
        if keep[k]:
            j = k
            while j + 1 < len(keep) and keep[j + 1]:
                j += 1
            if edges[j + 1] - edges[k] >= gamma ** (-2.0 / 3.0 - eps0 / 2.0):
                comps.append((k, j))
            k = j + 1
        else:
            k += 1
    good = [(edges[a], edges[b + 1]) for a, b in comps]
    runs, ok = [], True
    for a, b in comps:
        prev, zeros, k = 0, 0, a
        while k <= b:
            j = k
            while j + 1 <= b and types[j + 1] == types[k]:
                j += 1
            if types[k] == "zero":
                zeros += j - k + 1
            else:
                sign = 1 if types[k] == "plus" else -1
                if prev and (sign == prev or zeros > 1):
                    ok = False
                runs.append({"interval": (edges[k], edges[j + 1]),
                             "sign": sign, "blocks": (k, j),
                             "length": edges[j + 1] - edges[k]})
                prev, zeros = sign, 0
            k = j + 1
    return good, sum(b - a for a, b in good), runs, ok


@settings(max_examples=150, deadline=None)
@given(segments=st.lists(
           st.tuples(st.integers(1, 400),
                     st.sampled_from([1.0, -1.0, 0.0, 0.5, -0.95])),
           min_size=1, max_size=25),
       sigma=st.lists(st.tuples(st.floats(0.5, 80.0),
                                st.sampled_from([0.9, -0.9, 0.2])),
                      min_size=1, max_size=20))
def test_good_set_matches_reference(params_tau, segments, sigma):
    # block types from +-m_beta, zero and in-between levels, on dx = 1/8
    dx, gamma = 1.0 / 8.0, 1e-2
    samples = np.concatenate([np.full(n, level * params_tau.m_beta)
                              for n, level in segments])
    if samples.size * dx < 4.0:      # shorter than one delta0 block
        samples = np.resize(samples, 32)
    profile = GridProfile(L=samples.size * dx, dx=dx, samples=samples)
    widths = np.array([w for w, _ in sigma])
    widths *= profile.L / widths.sum()
    step = StepProfile.from_pieces(list(zip(widths, [v for _, v in sigma])))
    report = good_set(params_tau, profile, step, gamma)
    good, measure, runs, ok = _good_set_by_definition(params_tau, profile,
                                                      step, gamma)
    assert report.good_intervals == good
    assert report.good_measure == pytest.approx(measure, rel=1e-12, abs=0.0)
    assert report.runs == runs
    assert report.alternation_ok is ok


def _good_set_on_torus_by_definition(params, profile, sigma, gamma,
                                     delta0=0.25, delta1=0.45, eps0=0.28):
    """``_good_set_by_definition`` on the torus, walking the ring of blocks:
    a sign interval of sigma that wraps covers blocks at both ends; a
    component is a maximal cyclic run of kept blocks, [0, n) when every
    block is kept, else from its first block (less n when it wraps the
    torus); in the whole ring the type runs wrap too (the last continued by
    the first when they share a type), in a component they run along it;
    the alternation is read along each component from its start, and
    around the whole ring when it holds two sign runs or more: the walk
    then enters the ring from its last sign run, across the seam."""
    part = regular_partition(profile.L, delta0, gamma).snapped(profile.dx)
    L, n, pe = profile.L, part.n_blocks, part.edges.tolist()

    def edge(k):
        return pe[k] if k >= 0 else pe[k + n] - L

    idx = [round(e / profile.dx) for e in pe]
    m_b = params.m_beta
    types = []
    for i, j in zip(idx, idx[1:]):
        mean = float(np.mean(profile.samples[i:j]))
        types.append("plus" if mean >= 0.9 * m_b else
                     "minus" if mean <= -0.9 * m_b else "zero")
    arcs = []
    for a, b, _ in sigma.sign_intervals(periodic=True):
        if b - a >= gamma ** -delta1:
            arcs += [(0.0, b), (a + L, L)] if a < 0.0 else [(a, b)]
    keep = [sum(max(0.0, min(hi, y) - max(lo, x)) for x, y in arcs)
            >= (hi - lo) - 1e-9 for lo, hi in zip(pe, pe[1:])]
    comps = [(0, n)] if all(keep) else []
    if not all(keep):
        s = keep.index(False)
        k = s + 1
        while k < s + n:
            if keep[k % n]:
                j = k
                while j + 1 < s + n and keep[(j + 1) % n]:
                    j += 1
                comps.append((k - n, j + 1 - n) if j + 1 > n else (k, j + 1))
                k = j + 1
            else:
                k += 1
        comps.sort()
    comps = [(a, b) for a, b in comps
             if edge(b) - edge(a) >= gamma ** (-2.0 / 3.0 - eps0 / 2.0)]
    good = [(edge(a), edge(b)) for a, b in comps]
    runs, ok = [], True
    for a, b in comps:
        segs = []
        for k in range(a, b):
            if segs and types[k] == types[k - 1]:
                segs[-1][1] = k + 1
            else:
                segs.append([k, k + 1])
        if (a, b) == (0, n) and len(segs) > 1 and types[0] == types[-1]:
            segs[0][0] = segs.pop()[0] - n
        prev, zeros = 0, 0
        signed = [i for i, (k, _) in enumerate(segs) if types[k] != "zero"]
        if (a, b) == (0, n) and len(signed) > 1:
            last = signed[-1]
            prev = 1 if types[segs[last][0]] == "plus" else -1
            zeros = sum(stop - k for k, stop in segs[last + 1:])
        for k, stop in segs:
            if types[k] == "zero":
                zeros += stop - k
                continue
            sign = 1 if types[k] == "plus" else -1
            if prev and (sign == prev or zeros > 1):
                ok = False
            runs.append({"interval": (edge(k), edge(stop)), "sign": sign,
                         "blocks": (k, stop - 1),
                         "length": edge(stop) - edge(k)})
            prev, zeros = sign, 0
    return good, sum(b - a for a, b in good), runs, ok


@settings(max_examples=150, deadline=None)
@given(segments=st.lists(
           st.tuples(st.integers(1, 400),
                     st.sampled_from([1.0, -1.0, 0.0, 0.5, -0.95])),
           min_size=1, max_size=25),
       sigma=st.lists(st.tuples(st.floats(0.5, 80.0),
                                st.sampled_from([0.9, -0.9, 0.2])),
                      min_size=1, max_size=20))
# one component across the seam that holds a plus and a minus run before
# it wraps: it is one component, 93.625 long, not a wrapped 67.75 and a
# 25.875 cut off at the minus run's start (then too short to be good)
@example(segments=[(560, 1.0), (240, -1.0)],
         sigma=[(40.0, 0.9), (4.0, -0.9), (56.0, 0.9)])
# a whole ring of 20 blocks: minus, 18 zero blocks, plus. Read around the
# ring, the plus run meets the minus run across 18 zero blocks, so the
# alternation fails wherever the torus is cut
@example(segments=[(26, -1.0), (460, 0.0), (26, 1.0)], sigma=[(1.0, 0.9)])
def test_good_set_on_the_torus_matches_definition(params_tau, segments,
                                                  sigma):
    # the inputs of test_good_set_matches_reference, on the torus
    dx, gamma = 1.0 / 8.0, 1e-2
    samples = np.concatenate([np.full(n, level * params_tau.m_beta)
                              for n, level in segments])
    if samples.size * dx < 4.0:      # shorter than one delta0 block
        samples = np.resize(samples, 32)
    profile = GridProfile(L=samples.size * dx, dx=dx, samples=samples,
                          bc="periodic")
    widths = np.array([w for w, _ in sigma])
    widths *= profile.L / widths.sum()
    step = StepProfile.from_pieces(list(zip(widths, [v for _, v in sigma])))
    report = good_set(params_tau, profile, step, gamma)
    good, measure, runs, ok = _good_set_on_torus_by_definition(
        params_tau, profile, step, gamma)
    assert report.good_intervals == good
    assert report.good_measure == pytest.approx(measure, rel=1e-12, abs=0.0)
    assert report.runs == runs
    assert report.alternation_ok is ok
