"""The coarse-graining bookkeeping against loop-by-loop reference versions.

The references below are the earlier hand-written scans and the three
separate plateau branches of ``replace_block``, kept verbatim (``strict``
aside) as oracles. The library versions must reproduce them bit for bit:
every float is compared by its hex form, so even a signed zero counts.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from froth1d.coarsegrain import (CoarseGrainConfig, find_flat_segment,
                                 replace_block)
from froth1d.diagnostics import _interval_union_coverage, good_set
from froth1d.errors import FlatSegmentNotFound, ValidationError
from froth1d.model import eval_F_double_prime
from froth1d.profiles import (GridProfile, StepProfile, average_over,
                              block_type, regular_partition)

# ---------------------------------------------------------------------------
# references


def ref_sign_intervals(step, periodic=False):
    signs = np.sign(step.values)
    runs = []
    start = 0
    for i in range(1, signs.size):
        if signs[i] != signs[start]:
            runs.append((step.breakpoints[start], step.breakpoints[i],
                         float(signs[start])))
            start = i
    runs.append((step.breakpoints[start], step.breakpoints[-1],
                 float(signs[start])))
    if periodic and len(runs) > 1 and runs[0][2] == runs[-1][2]:
        a_last, b_last, s = runs[-1]
        a0, b0, _ = runs[0]
        runs = runs[1:-1]
        runs.insert(0, (a_last - step.L, b0, s))
    return runs


def ref_find_flat_segment(params, profile, block, config, gamma,
                          margin_left=None, margin_right=None):
    a, b = block
    ell_plus = b - a
    tol = gamma ** config.rho
    ml = ell_plus / 4.0 if margin_left is None else margin_left
    mr = ell_plus / 4.0 if margin_right is None else margin_right
    per = int(round(config.ell_minus / profile.dx))
    n_small = profile.n // per
    means = profile.samples[:n_small * per].reshape(n_small, per).mean(axis=1)
    lm = config.ell_minus
    j0 = int(math.ceil((a + ml) / lm - 1e-9))
    j1 = int(math.floor((b - mr) / lm + 1e-9))
    if j1 <= j0:
        raise FlatSegmentNotFound("no admissible small blocks in the block core")
    best = None  # (length, start_index, omega, stop_index)
    for omega in (1.0, -1.0):
        ok = np.abs(means[j0:j1] - omega * params.m_beta) <= tol
        start = None
        for idx, flag in enumerate(np.append(ok, False)):
            if flag and start is None:
                start = idx
            elif not flag and start is not None:
                run = idx - start
                cand = (run, -(j0 + start), omega, j0 + idx)
                if best is None or (cand[0], cand[1]) > (best[0], best[1]):
                    best = cand
                start = None
    if best is None:
        raise FlatSegmentNotFound("no small block stays near +-m_beta")
    run, neg_start, omega, stop = best
    start = -neg_start
    return omega, (start * lm, stop * lm), run * lm


def _ref_capped_margin(ell, raw):
    if raw > ell / 4.0:
        return ell / 4.0, True
    return raw, False


def ref_replace_block(params, length, mean, context, config, gamma):
    """The three-branch replacement, demoting (never raising) on plateau > 1."""
    m_b = params.m_beta
    ell = float(length)
    m = float(mean)
    zeta = config.zeta(gamma)
    kind, data = context
    flags = {}

    def bad_rule():
        if abs(m) >= m_b - zeta:
            return [(ell, m)], "1-const"
        xi = ell * (m + m_b) / (2.0 * m_b)
        return [(xi, m_b), (ell - xi, -m_b)], "1-split"

    if kind == "bad":
        pieces, tag = bad_rule()
        return pieces, tag, flags

    fpp = eval_F_double_prime(m_b, params)
    c_star = math.sqrt(5.0 * params.require_tau() / fpp)
    t2b = 1.1 * c_star / math.sqrt(ell)

    if kind == "good":
        om_l, om_r = data
        if om_l != om_r:
            omega = om_l
            if abs(m) <= m_b - zeta:
                xi = ell * (m_b + omega * m) / (2.0 * m_b)
                return [(xi, omega * m_b), (ell - xi, -omega * m_b)], "2a-jump", flags
            mg, capped = _ref_capped_margin(ell, 0.5 * math.log(ell) ** 2)
            flags["margin_capped"] = capped
            plateau = m * ell / (ell - 2.0 * mg)
            if abs(plateau) > 1.0:
                flags["demoted"] = "plateau>1"
                pieces, tag = bad_rule()
                return pieces, tag, flags
            return ([(mg, omega * m_b), (ell - 2.0 * mg, plateau),
                     (mg, -omega * m_b)], "2a-three", flags)
        omega = om_l
        mm = m if omega < 0 else -m
        if mm <= -m_b + t2b:
            pieces, tag = [(ell, mm)], "2b-const"
        elif mm < m_b - t2b:
            xi = ell * (m_b - mm) / (4.0 * m_b)
            pieces, tag = ([(xi, -m_b), (ell - 2.0 * xi, m_b), (xi, -m_b)],
                           "2b-two-jump")
        else:
            mg, capped = _ref_capped_margin(ell, 0.5 * math.log(ell) ** 2)
            flags["margin_capped"] = capped
            plateau = (mm * ell + m_b * 2.0 * mg) / (ell - 2.0 * mg)
            if abs(plateau) > 1.0:
                flags["demoted"] = "plateau>1"
                pieces, tag = bad_rule()
                return pieces, tag, flags
            pieces, tag = ([(mg, -m_b), (ell - 2.0 * mg, plateau), (mg, -m_b)],
                           "2b-three")
        if omega > 0:
            pieces = [(w, -v) for w, v in pieces]
        return pieces, tag, flags

    if kind == "boundary_good":
        side, omega = data
        mm = m if omega < 0 else -m
        if mm <= -m_b + t2b:
            pieces, tag = [(ell, mm)], "2c-const"
        elif mm < m_b - t2b:
            xi = ell * (m_b - mm) / (2.0 * m_b)
            pieces, tag = [(ell - xi, m_b), (xi, -m_b)], "2c-jump"
        else:
            raw = 0.5 * math.log(2.0 * ell) ** 2
            mg, capped = _ref_capped_margin(ell, raw)
            flags["margin_capped"] = capped
            plateau = (mm * ell + m_b * mg) / (ell - mg)
            if abs(plateau) > 1.0:
                flags["demoted"] = "plateau>1"
                pieces, tag = bad_rule()
                return pieces, tag, flags
            pieces, tag = [(ell - mg, plateau), (mg, -m_b)], "2c-plateau"
        if omega > 0:
            pieces = [(w, -v) for w, v in pieces]
        if side == "right":
            pieces = pieces[::-1]
        return pieces, tag, flags

    raise ValidationError(f"unknown block context {kind!r}")


def ref_good_set(params, profile, sigma_phi, gamma, delta0=0.25, delta1=0.45,
                 eps0=0.28):
    """(good intervals, good measure, runs, alternation_ok) of ``good_set``."""
    part = regular_partition(profile.L, delta0, gamma).snapped(profile.dx)
    means = np.array([average_over(profile, block) for block in part.blocks()])
    types = [block_type(m, params.m_beta) for m in means]
    intervals = ref_sign_intervals(sigma_phi)
    long_cut = gamma ** (-delta1)
    long_ivals = sorted((a, b) for a, b, _ in intervals if b - a >= long_cut)
    keep = np.array([
        _interval_union_coverage(long_ivals, part.edges[k], part.edges[k + 1])
        >= (part.edges[k + 1] - part.edges[k]) - 1e-9
        for k in range(part.n_blocks)])
    comp = []
    k = 0
    while k < part.n_blocks:
        if keep[k]:
            j = k
            while j + 1 < part.n_blocks and keep[j + 1]:
                j += 1
            comp.append((k, j))
            k = j + 1
        else:
            k += 1
    min_len = gamma ** (-2.0 / 3.0 - eps0 / 2.0)
    lam_k = [(part.edges[a], part.edges[b + 1]) for a, b in comp
             if part.edges[b + 1] - part.edges[a] >= min_len]
    comp = [(a, b) for a, b in comp
            if part.edges[b + 1] - part.edges[a] >= min_len]
    good_measure = float(sum(b - a for a, b in lam_k))
    runs = []
    alternation_ok = True
    for a, b in comp:
        prev_sign = 0
        zeros_between = 0
        k = a
        while k <= b:
            t = types[k]
            if t == "zero":
                zeros_between += 1
                k += 1
                continue
            j = k
            while j + 1 <= b and types[j + 1] == t:
                j += 1
            sign = 1 if t == "plus" else -1
            if prev_sign != 0 and (sign == prev_sign or zeros_between > 1):
                alternation_ok = False
            runs.append({"interval": (float(part.edges[k]), float(part.edges[j + 1])),
                         "sign": sign, "blocks": (k, j),
                         "length": float(part.edges[j + 1] - part.edges[k])})
            prev_sign = sign
            zeros_between = 0
            k = j + 1
    return lam_k, good_measure, runs, alternation_ok


# ---------------------------------------------------------------------------
# bitwise comparison


def _bits(x):
    """A comparable form in which floats are compared by their bits."""
    if isinstance(x, (float, np.floating)):
        return ("f", float(x).hex(), type(x).__name__)
    if isinstance(x, np.ndarray):
        return ("a", x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, (list, tuple)):
        return (type(x).__name__, [_bits(v) for v in x])
    if isinstance(x, dict):
        return ("d", [(k, _bits(v)) for k, v in x.items()])
    return ("o", type(x).__name__, x)


def _outcome(fn, *args, **kwargs):
    try:
        return _bits(fn(*args, **kwargs))
    except FlatSegmentNotFound as err:
        return ("raised", str(err))


# ---------------------------------------------------------------------------
# tests

CONTEXTS = [
    ("bad", None),
    ("good", (1.0, -1.0)), ("good", (-1.0, 1.0)),
    ("good", (1.0, 1.0)), ("good", (-1.0, -1.0)),
    ("boundary_good", ("left", 1.0)), ("boundary_good", ("left", -1.0)),
    ("boundary_good", ("right", 1.0)), ("boundary_good", ("right", -1.0)),
]


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
def test_replace_block_matches_reference(params_tau, context, mean, length,
                                         c0, gamma):
    cfg = CoarseGrainConfig(c0=c0)
    new = replace_block(params_tau, length, mean, context, cfg, gamma)
    ref = ref_replace_block(params_tau, length, mean, context, cfg, gamma)
    assert _bits(new) == _bits(ref)


def test_reference_examples_demote(params_tau):
    # the explicit examples above do reach the demotion branch of each case
    cfg = CoarseGrainConfig(c0=0.05)
    for context, mean, length in [(("good", (1.0, -1.0)), 0.997, 2.0),
                                  (("good", (1.0, 1.0)), -0.995, 3.0),
                                  (("boundary_good", ("right", -1.0)),
                                   0.999, 2.0)]:
        _, _, flags = ref_replace_block(params_tau, length, mean, context,
                                        cfg, 1e-2)
        assert flags.get("demoted") == "plateau>1"


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
    new = _outcome(find_flat_segment, params, profile, (a, b), cfg, gamma,
                   margin_left=ml, margin_right=mr)
    ref = _outcome(ref_find_flat_segment, params, profile, (a, b), cfg, gamma,
                   margin_left=ml, margin_right=mr)
    assert new == ref


_STEP_VALUES = st.sampled_from([0.9, -0.9, 0.3, -0.3, 0.0, -0.0, 1.0, -1.0])


@settings(max_examples=300, deadline=None)
@given(pieces=st.lists(st.tuples(st.floats(0.1, 5.0), _STEP_VALUES),
                       min_size=1, max_size=30),
       periodic=st.booleans())
def test_sign_intervals_matches_reference(pieces, periodic):
    step = StepProfile.from_pieces(pieces)
    assert (_bits(step.sign_intervals(periodic))
            == _bits(ref_sign_intervals(step, periodic)))


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
    new = (report.good_intervals, report.good_measure, report.runs,
           report.alternation_ok)
    assert _bits(new) == _bits(ref_good_set(params_tau, profile, step, gamma))
