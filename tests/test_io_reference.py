"""Profile files, the torus symbol, the exchange sum and the flat-segment
search against their line-by-line, per-offset and per-block references.

The references below are the earlier implementations, kept verbatim as
oracles: ``save_profile`` formatted one sample at a time and
``load_profile`` parsed one line at a time; ``_torus_symbol`` evaluated a
fresh sine per band offset; ``_exchange_banded`` squared, weighted and
accumulated each offset's differences; ``adapted_partition`` searched each
block's flat segment on its own slice of the small-block means. The
library versions must write the same bytes, read the same bits, raise the
same errors on the same lines, and return the same symbol and partitions
bit for bit; the one-block exchange sum, whose summation order changed,
to 1e-14.
"""

import math
import tempfile
from pathlib import Path
from typing import List, Optional

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from froth1d.coarsegrain import (CoarseGrainConfig, _flat_segments,
                                 _small_block_means, adapted_partition,
                                 classify_blocks)
from froth1d.energy import _exchange_banded, _torus_dipole_symbol, _torus_symbol
from froth1d.errors import (Froth1dError, FlatSegmentNotFound,
                            InvariantError, ParseError, ValidationError)
from froth1d.model import ModelParams
from froth1d.profiles import (BC_TOKENS, BlockPartition, GridProfile,
                              load_profile, regular_partition, runs,
                              save_profile)

# ---------------------------------------------------------------------------
# references


def ref_save_profile(profile, path, extra_headers=None, comments=None):
    lines = [f"# {c}" for c in (comments or [])]
    lines += [f"L {format(profile.L, '.17g')}",
              f"dx {format(profile.dx, '.17g')}",
              f"bc {profile.bc}"]
    for key, val in (extra_headers or {}).items():
        lines.append(f"{key} {format(float(val), '.17g')}")
    # Python floats format as numpy's float64 do, and faster
    lines.extend(format(s, '.17e') for s in profile.samples.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def ref_load_profile(path):
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.readlines()
    headers = {}
    samples = []
    bc = None
    L = dx = None
    saw_any = False
    for lineno, line in enumerate(raw, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        saw_any = True
        parts = text.split()
        if len(parts) == 2 and not _ref_is_float(parts[0]):
            key, val = parts
            if key == "L":
                L = _ref_parse_float(val, lineno)
            elif key == "dx":
                dx = _ref_parse_float(val, lineno)
            elif key == "bc":
                if val not in BC_TOKENS:
                    raise ParseError(f"unknown bc token {val!r}", line=lineno)
                bc = val
            else:
                headers[key] = _ref_parse_float(val, lineno)
        elif len(parts) == 1:
            samples.append(_ref_parse_float(parts[0], lineno))
        else:
            raise ParseError(f"unparseable line {text!r}", line=lineno)
    if not saw_any:
        raise ParseError("empty profile file", line=0)
    if L is None or dx is None or bc is None:
        raise ParseError("missing L/dx/bc header", line=0)
    arr = np.asarray(samples, dtype=float)
    # written so that a NaN sample fails it too: np.abs(nan) > 1 is False,
    # and the loader this reference copies used to return a NaN profile
    if not np.all(np.abs(arr) <= 1.0 + 1e-12):
        raise InvariantError("sample outside [-1, 1] in profile file")
    try:
        prof = GridProfile(L=L, dx=dx, samples=arr, bc=bc)
    except ValidationError as err:
        raise ParseError(str(err), line=0) from err
    return prof, headers


def _ref_is_float(token):
    try:
        float(token)
        return True
    except ValueError:
        return False


def _ref_parse_float(token, lineno):
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"bad number {token!r}", line=lineno) from None


def ref_torus_symbol(params, gamma, n, dx):
    m = np.arange(n // 2 + 1)
    sym = _torus_dipole_symbol(params, gamma, n, dx)
    for k, jk in enumerate(params.kernel.band(dx), start=1):
        # dx J_k (2 - 2 cos(k theta)); k m is reduced mod n before scaling
        sym += 4.0 * dx * jk * np.sin(np.pi * (k * m % n) / n) ** 2
    return sym


def ref_exchange_banded(samples, jband, dx, starts=(0,)):
    n = samples.size
    starts = np.asarray(starts)
    room = None
    if starts.size > 1:
        ends = np.append(starts[1:], n)
        room = np.repeat(ends, np.diff(ends, prepend=0)) - np.arange(n)
    acc = np.zeros(n)
    for k, jk in enumerate(jband, start=1):
        if jk == 0.0 or k >= n:
            continue
        d = samples[k:] - samples[:-k]
        d *= d
        d *= jk
        if room is not None:
            d[room[:-k] <= k] = 0.0
        acc[:-k] += d
    return 0.5 * dx * dx * np.add.reduceat(acc, starts)


def ref_flat_segment(params, means, block, config, gamma, margin_left,
                     margin_right):
    a, b = block
    ml = (b - a) / 4.0 if margin_left is None else margin_left
    mr = (b - a) / 4.0 if margin_right is None else margin_right
    lm = config.ell_minus
    # admissible small blocks: fully inside [a + ml, b - mr]
    j0 = int(math.ceil((a + ml) / lm - 1e-9))
    j1 = int(math.floor((b - mr) / lm + 1e-9))
    if j1 <= j0:
        raise FlatSegmentNotFound("no admissible small blocks in the block core")
    tol = gamma ** config.rho
    found = []  # (length, -start, omega) per run of near small blocks
    for omega in (1.0, -1.0):
        near = np.abs(means[j0:j1] - omega * params.m_beta) <= tol
        found += [(int(stop - start), -int(start), omega)
                  for start, stop in zip(*runs(near)) if near[start]]
    if not found:
        raise FlatSegmentNotFound("no small block stays near +-m_beta")
    # max keeps the first of equal keys: omega = +1 wins a full tie
    run, neg_start, omega = max(found, key=lambda c: c[:2])
    start = j0 - neg_start
    return omega, (start * lm, (start + run) * lm), run * lm


def ref_adapted_partition(params, profile, config, gamma=None):
    gamma = params.gamma if gamma is None else gamma
    L, dx = profile.L, profile.dx
    reg = regular_partition(L, config.delta, gamma).snapped(dx)
    ell_plus = float(np.mean(reg.widths))
    labels = classify_blocks(params, profile, reg,
                             config.energy_cutoff_multiplier)
    n = reg.n_blocks
    # a single-block domain is degenerate: its block is demoted
    good = list(labels["low"]) if n > 1 else [False]
    means = _small_block_means(profile, config.ell_minus) if any(good) else None
    omega = [None] * n
    midline = [None] * n
    for i in range(n):
        if not good[i]:
            continue
        a, b = reg.edges[i], reg.edges[i + 1]
        # keep the boundary blocks [0, s] and [s, L] >= l+/2
        ml = ell_plus / 2.0 if i == 0 else None
        mr = ell_plus / 2.0 if i == n - 1 else None
        try:
            om, (sa, sb), _ = ref_flat_segment(params, means, (a, b), config,
                                               gamma, ml, mr)
        except FlatSegmentNotFound:
            good[i] = False
            continue
        omega[i] = om
        midline[i] = round(0.5 * (sa + sb) / dx) * dx
    # final boundary lines: domain ends, midlines, and original lines with
    # two bad neighbors
    mid_of = {midline[i]: i for i in range(n) if good[i]}
    lines = {0.0, L, *mid_of}
    for k in range(1, n):
        if not good[k - 1] and not good[k]:
            lines.add(float(reg.edges[k]))
    part = BlockPartition(edges=np.array(sorted(lines)))
    # classify final blocks
    kinds: List[str] = []
    signs: List[Optional[tuple]] = []
    for a, b in part.blocks():
        left_src = mid_of.get(float(a))
        right_src = mid_of.get(float(b))
        if (left_src is not None and right_src is not None
                and right_src == left_src + 1):
            kinds.append("good")
            signs.append((omega[left_src], omega[right_src]))
        elif a == 0.0 and right_src == 0:
            kinds.append("boundary_good")
            signs.append(("left", omega[right_src]))
        elif b == L and left_src == n - 1:
            kinds.append("boundary_good")
            signs.append(("right", omega[left_src]))
        else:
            kinds.append("bad")
            signs.append(None)
    return part, tuple(kinds), tuple(signs), ell_plus

# ---------------------------------------------------------------------------
# helpers


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


def _load_outcome(loader, path):
    """What a loader returns, bit for bit, or the error it raises."""
    try:
        prof, headers = loader(path)
    except (Froth1dError, UnicodeDecodeError) as err:
        return ("raised", type(err).__name__, str(err),
                getattr(err, "line", None))
    return _bits((prof.samples, prof.L, prof.dx, prof.bc, headers))


# one directory for the whole module, removed when the interpreter exits;
# every example overwrites the same few files
_TMP = tempfile.TemporaryDirectory()


def _write(text: str, newline: str = "\n", name: str = "p.profile") -> Path:
    """``text`` (lines joined by ``newline``) in the file ``name``."""
    path = Path(_TMP.name) / name
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text.replace("\n", newline))
    return path


_PARAMS = ModelParams.create(beta=2.0, gamma=1e-2)

# ---------------------------------------------------------------------------
# profile files

_SAMPLE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 0.5, 1e-300]),
    st.floats(-1.0, 1.0))
_KEY = st.from_regex(r"[A-Za-z_][A-Za-z0-9_.]{0,8}", fullmatch=True).filter(
    lambda k: k not in ("L", "dx", "bc") and not _ref_is_float(k))
_VALUE = st.one_of(st.floats(allow_nan=False, allow_infinity=True),
                   st.integers(-10**6, 10**6))
_COMMENT_TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                                      blacklist_characters="\n\r"),
                        max_size=20)


@settings(max_examples=150, deadline=None)
@given(samples=st.lists(_SAMPLE, min_size=1, max_size=60),
       dx=st.sampled_from([0.25, 0.5, 1.0 / 16.0, 0.1]),
       bc=st.sampled_from(["open", "periodic", "neumann", "plus"]),
       extra=st.dictionaries(_KEY, _VALUE, max_size=3),
       comments=st.lists(_COMMENT_TEXT, max_size=3))
def test_saved_bytes_match_reference(samples, dx, bc, extra, comments):
    n = len(samples)
    if dx == 0.1:       # 1/dx must be an integer
        dx = 1.0 / 8.0
    prof = GridProfile(L=n * dx, dx=dx, samples=np.array(samples), bc=bc)
    new, ref = _write("", name="new.profile"), _write("", name="ref.profile")
    save_profile(prof, new, extra, comments)
    ref_save_profile(prof, ref, extra, comments)
    assert new.read_bytes() == ref.read_bytes()
    back, headers = load_profile(new)
    assert back.samples.tobytes() == prof.samples.tobytes()
    assert headers == {k: float(v) for k, v in extra.items()}


# padding around tokens: str.split() whitespace of both kinds, ASCII
# (tab, vertical tab, form feed, the separators 0x1c-0x1f) and not
_PAD = st.sampled_from(["", " ", "  ", "\t", " \t ", "\x0b", "\x0c", "\x1c",
                        "\x1f", "\x85", "\xa0", "\u2002", "\u3000"])
_LINE_END = st.sampled_from(["\n", "\r\n", "\r"])


def _numeral(x: float) -> str:
    return format(x, ".17e")


@st.composite
def profile_texts(draw):
    """Valid profile file text: headers anywhere, comments and blank lines
    anywhere, padded tokens, the samples in order."""
    n = draw(st.integers(1, 40))
    dx = draw(st.sampled_from([0.25, 0.5, 1.0 / 16.0]))
    samples = draw(st.lists(_SAMPLE, min_size=n, max_size=n))
    headers = [("L", repr(n * dx)), ("dx", repr(dx)),
               ("bc", draw(st.sampled_from(BC_TOKENS[:5])))]
    headers += [(k, repr(float(v))) for k, v in
                draw(st.dictionaries(_KEY, _VALUE, max_size=3)).items()]
    if draw(st.booleans()):     # a repeated header keeps its last value
        headers.append(("L", repr(n * dx)))
    lines = [_numeral(s) if draw(st.booleans()) else repr(s) for s in samples]
    for key, val in headers:
        at = draw(st.integers(0, len(lines)))
        sep = draw(st.sampled_from([" ", "\t", "  ", " \x0c"]))
        lines.insert(at, f"{key}{sep}{val}")
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(
            ["", "   ", "# a comment", "#", "\t# x # y", "# sigma \u03c3"])))
    out = []
    for line in lines:
        if line and not line.lstrip().startswith("#"):
            line = draw(_PAD) + line + draw(_PAD)
            if draw(st.integers(0, 5)) == 0:
                line += "  # trailing comment"
        out.append(line)
    return out, draw(_LINE_END), draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(spec=profile_texts())
@example(spec=(["L 1.0", "dx 0.25", "bc open", "0.1", "0.2", "0.3", "0.4"],
               "\n", True))
@example(spec=(["0.1", "L 0.5", "# c", "", "0.2", "dx 0.25", "bc periodic",
                "tau 0.19762754872186078"], "\r\n", False))
def test_loaded_profile_matches_reference(spec):
    lines, end, final_break = spec
    path = _write("\n".join(lines) + ("\n" if final_break else ""), end)
    assert _load_outcome(load_profile, path) == _load_outcome(
        ref_load_profile, path)


_BAD_LINES = ["abc", "1e", "0.5 0.25", "0.5 0.25 0.1", "L 1.0 2.0",
              "bc closed", "dx fine", "tau x", "1_0", "infinity", "+.5",
              "-Infinity", "nan", "0x1p3", "\u0661", "1\x00", "0.5\x1c0.25",
              "0.5\u20280.25", "\x85", "key", "k\xe9y 1.0", "1e999",
              "0.5 # 0.25 0.1", "L", "1.5"]


@settings(max_examples=250, deadline=None)
@given(spec=profile_texts(), bad=st.sampled_from(_BAD_LINES),
       where=st.floats(0.0, 1.0), replace=st.booleans())
@example(spec=(["L 1.0", "dx 0.25", "bc open", "0.1", "0.2", "0.3", "0.4"],
               "\n", True), bad="not-a-number", where=0.6, replace=True)
def test_malformed_profile_raises_as_reference(spec, bad, where, replace):
    # one bad line put in, or over, a random line of a valid file
    lines, end, final_break = spec
    at = min(int(where * len(lines)), len(lines) - 1)
    if replace:
        lines[at] = bad
    else:
        lines.insert(at, bad)
    path = _write("\n".join(lines) + ("\n" if final_break else ""), end)
    assert _load_outcome(load_profile, path) == _load_outcome(
        ref_load_profile, path)


@pytest.mark.parametrize("text", [
    "", "\n\n", "# only a comment\n", "L 1.0\ndx 0.25\n0.1\n0.2\n0.3\n0.4\n",
    "L 1.0\ndx 0.25\nbc open\n0.1\n0.2\n0.3\n",
    "L 1.0\ndx 0.3\nbc open\n0.1\n0.2\n0.3\n0.4\n",
    "L 1.0\ndx 0.25\nbc open\n0.1\n0.2\n0.3\n\xe9\n",
    "L 1.0\ndx 0.25\nbc open\n0.1\n0.2\n0.3\n0.4\nL x\n",
])
def test_structural_errors_match_reference(text):
    path = _write(text)
    assert _load_outcome(load_profile, path) == _load_outcome(
        ref_load_profile, path)


def test_invalid_utf8_raises_as_reference():
    # the reference lets UnicodeDecodeError escape; the loader raises the
    # ParseError of the line holding the first undecodable byte, counting
    # lines as a text-mode read does
    path = _write("")
    for end in (b"\n", b"\r\n", b"\r"):
        path.write_bytes(end.join([b"L 1.0", b"dx 0.25", b"bc open", b"0.1",
                                   b"\xff", b"0.2 \xfe", b""]))
        with pytest.raises(UnicodeDecodeError):
            ref_load_profile(path)
        with pytest.raises(ParseError, match="^line 5: not UTF-8") as err:
            load_profile(path)
        assert err.value.line == 5


# ---------------------------------------------------------------------------
# torus symbol and exchange


@pytest.mark.parametrize("dx", [1.0 / 8.0, 1.0 / 16.0, 1.0 / 64.0])
def test_torus_symbol_bitwise(dx, two_atom_params):
    # n below 1/dx included: the offsets k*m wrap several times around n
    for params in (_PARAMS, two_atom_params):
        for n in list(range(1, 41)) + [1190, 12064]:
            for gamma in (1e-2, 0.0):
                new = _torus_symbol(params, gamma, n, dx)
                ref = ref_torus_symbol(params, gamma, n, dx)
                assert new.tobytes() == ref.tobytes(), (n, dx, gamma)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 700), seed=st.integers(0, 2**32 - 1),
       dx=st.sampled_from([1.0 / 4.0, 1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0]),
       shape=st.sampled_from(["noise", "plateaus", "constant"]))
def test_single_block_exchange_matches_reference(n, seed, dx, shape):
    rng = np.random.default_rng(seed)
    if shape == "noise":
        phi = rng.uniform(-1.0, 1.0, n)
    elif shape == "plateaus":
        phi = np.repeat(rng.choice([-0.95, 0.95], size=n // 16 + 1), 16)[:n]
        phi += rng.uniform(-1e-3, 1e-3, n)
    else:
        phi = np.full(n, rng.uniform(-1.0, 1.0))
    jband = _PARAMS.kernel.band(dx)
    new = _exchange_banded(phi, jband, dx)
    ref = ref_exchange_banded(phi, jband, dx)
    assert new.shape == ref.shape == (1,)
    assert abs(new[0] - ref[0]) <= 1e-14 * abs(ref[0])


# ---------------------------------------------------------------------------
# flat segments

_LEVEL = st.sampled_from(["+", "-", "0", "+near", "-near", "half"])


def _means(levels, m_beta, jitter):
    table = {"+": m_beta, "-": -m_beta, "0": 0.0, "+near": m_beta - 0.03,
             "-near": -m_beta + 0.03, "half": 0.5}
    return np.array([table[s] for s in levels]) + jitter


@settings(max_examples=300, deadline=None)
@given(levels=st.lists(_LEVEL, min_size=1, max_size=150),
       data=st.data(),
       rho=st.sampled_from([0.001, 0.01, 0.03, 0.049]),
       gamma=st.sampled_from([1e-2, 1e-4]))
def test_flat_segments_match_reference_per_window(levels, data, rho, gamma):
    # disjoint windows in increasing order, empty ones included, over means
    # with runs at +-m_beta; at rho = 0.001 the tolerance exceeds m_beta, so
    # the +-omega runs overlap and ties between them occur
    n = len(levels)
    jitter = np.array(data.draw(st.lists(st.floats(-0.02, 0.02),
                                         min_size=n, max_size=n)))
    means = _means(levels, _PARAMS.m_beta, jitter)
    cuts = sorted(data.draw(st.lists(st.integers(0, n + 3), min_size=2,
                                     max_size=20)))
    windows = list(zip(cuts[0::2], cuts[1::2]))
    cfg = CoarseGrainConfig(rho=rho)
    lm = cfg.ell_minus
    nonempty = [(j0, j1) for j0, j1 in windows if j1 > j0]
    if nonempty:
        j0 = np.array([w[0] for w in nonempty])
        j1 = np.array([w[1] for w in nonempty])
        omega, start, run = _flat_segments(_PARAMS.m_beta, means, j0, j1,
                                           gamma ** rho)
    k = 0
    for a, b in windows:
        try:
            ref = ref_flat_segment(_PARAMS, means, (a * lm, b * lm), cfg,
                                   gamma, 0.0, 0.0)
        except FlatSegmentNotFound as err:
            ref = str(err)
        except IndexError:      # the reference's slice past the means
            ref = "past the means"
        if b <= a:
            assert ref == "no admissible small blocks in the block core"
            continue
        om, s, r = omega[k], int(start[k]), int(run[k])
        k += 1
        if ref == "past the means":
            assert om == 0.0
        elif isinstance(ref, str):
            assert om == 0.0 and ref == "no small block stays near +-m_beta"
        else:
            assert _bits((float(om), (s * lm, (s + r) * lm), r * lm)) == _bits(ref)


@pytest.mark.parametrize("levels, window, expected", [
    # equal +1 and -1 runs: the leftmost wins, then omega = +1
    (["+", "+", "0", "-", "-"], (0, 5), (1.0, 0, 2)),
    (["-", "-", "0", "+", "+"], (0, 5), (-1.0, 0, 2)),
    # the clip: a run that leaves the window counts only inside it
    (["-", "-", "-", "-", "+", "+", "0"], (2, 7), (-1.0, 2, 2)),
    (["-", "-", "-", "-", "+", "+", "+"], (2, 7), (1.0, 4, 3)),
    (["-", "-", "-", "-", "+", "+", "0"], (1, 7), (-1.0, 1, 3)),
    (["+", "+", "0", "-", "-", "-", "-"], (0, 5), (1.0, 0, 2)),
])
def test_flat_segment_ties_and_clip(levels, window, expected):
    means = _means(levels, _PARAMS.m_beta, 0.0)
    omega, start, run = _flat_segments(_PARAMS.m_beta, means,
                                       np.array([window[0]]),
                                       np.array([window[1]]), 0.05)
    assert (float(omega[0]), int(start[0]), int(run[0])) == expected
    cfg = CoarseGrainConfig()
    lm = cfg.ell_minus
    ref = ref_flat_segment(_PARAMS, means, (window[0] * lm, window[1] * lm),
                           cfg, 0.05 ** (1.0 / cfg.rho), 0.0, 0.0)
    assert (ref[0], ref[1][0] / lm, ref[2] / lm) == expected


@st.composite
def plateau_profiles(draw):
    """+-m_beta plateaus with walls and noise, some blocks off the wells."""
    dx = draw(st.sampled_from([1.0 / 8.0, 1.0 / 16.0]))
    pieces = draw(st.lists(
        st.tuples(st.integers(4, 160),
                  st.sampled_from([1.0, -1.0, 1.0, -1.0, 0.4, 0.0])),
        min_size=1, max_size=14))
    samples = np.concatenate([np.full(k, v * _PARAMS.m_beta)
                              for k, v in pieces])
    if samples.size * dx < 12.0:
        samples = np.resize(samples, int(round(12.0 / dx)))
    seed = draw(st.integers(0, 2**32 - 1))
    amp = draw(st.sampled_from([0.0, 1e-3, 0.02]))
    samples = samples + np.random.default_rng(seed).uniform(-amp, amp,
                                                             samples.size)
    samples = np.clip(samples, -1.0, 1.0)
    return GridProfile(L=samples.size * dx, dx=dx, samples=samples,
                       bc=draw(st.sampled_from(["open", "periodic"])))


@settings(max_examples=120, deadline=None)
@given(profile=plateau_profiles(),
       rho=st.sampled_from([0.001, 0.02, 0.04]),
       gamma=st.sampled_from([1e-2, 3e-3]))
def test_adapted_partition_matches_reference(params_tau, profile, rho, gamma):
    cfg = CoarseGrainConfig(rho=rho)
    new = adapted_partition(params_tau, profile, cfg, gamma)
    part, kinds, signs, ell_plus = ref_adapted_partition(params_tau, profile,
                                                         cfg, gamma)
    assert _bits(new.partition.edges) == _bits(part.edges)
    assert new.kinds == kinds
    assert _bits(new.signs) == _bits(signs)
    assert _bits(new.ell_plus) == _bits(ell_plus)
