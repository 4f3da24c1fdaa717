"""Profile files against their line-by-line references, and the torus
symbol, the exchange sum, the flat-segment search and the adapted partition
against oracles that share no code with the library.

``ref_save_profile``, ``ref_save_profile_bulk`` and ``ref_load_profile``
are the earlier per-line and per-sample implementations, kept verbatim as
oracles: the file grammar and its errors
are the contract, and ``float()`` reads a numeral exactly, so the library
must write the same bytes, read the same bits and raise the same errors on
the same lines. The torus symbol is the discrete Fourier transform of the
torus operator's first row built by direct sums over the images
(``direct_oracles.torus_symbol_direct``), the one-block exchange the direct
double sum (``exchange_direct``), the flat segments a brute force over every
run (``flat_segment_brute``), and the adapted partition is rebuilt from the
rules its docstring states.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from direct_oracles import (exchange_direct, flat_segment_brute,
                            pair_scale, torus_symbol_direct)
from froth1d.coarsegrain import (CoarseGrainConfig, _flat_segments,
                                 adapted_partition, classify_blocks)
from froth1d.energy import _exchange_banded, _torus_symbol
from froth1d.errors import (Froth1dError, InvariantError, ParseError,
                            ValidationError)
from froth1d.model import ModelParams
from froth1d.profiles import (BC_TOKENS, GridProfile, load_profile,
                              regular_partition, save_profile)

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


def ref_save_profile_bulk(profile, path, extra_headers=None, comments=None):
    # the body as one '%.17e' format call over every sample, as the writer
    # did before each distinct sample was formatted once
    lines = [f"# {c}" for c in (comments or [])]
    lines += [f"L {format(profile.L, '.17g')}",
              f"dx {format(profile.dx, '.17g')}",
              f"bc {profile.bc}"]
    for key, val in (extra_headers or {}).items():
        lines.append(f"{key} {format(float(val), '.17g')}")
    body = ("%.17e\n" * profile.n) % tuple(profile.samples.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n" + body)


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


@st.composite
def repeating_samples(draw):
    """1 to 600 samples: drawn from a small pool (both zeros, +-1, the
    smallest subnormals, +-m_beta and a few floats), so values repeat
    heavily; +-m_beta plateaus with distinct walls and signed zeros between;
    or all distinct."""
    n = draw(st.integers(1, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = _PARAMS.m_beta
    shape = draw(st.sampled_from(["pool", "plateaus", "distinct"]))
    if shape == "pool":
        pool = np.array([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, m, -m]
                        + draw(st.lists(_SAMPLE, max_size=4)))
        return pool[rng.integers(pool.size, size=n)]
    if shape == "plateaus":
        levels = rng.choice([m, -m], size=n // 40 + 1)
        samples = np.repeat(levels, 40)[:n]
        walls = rng.random(n) < 0.05
        samples[walls] = rng.uniform(-m, m, walls.sum())
        samples[rng.random(n) < 0.02] = 0.0
        samples[rng.random(n) < 0.02] = -0.0
        return samples
    return rng.permutation(np.append(rng.uniform(-1.0, 1.0, n - 1),
                                     rng.choice([0.0, -0.0])))


@settings(max_examples=150, deadline=None)
@given(samples=repeating_samples(),
       bc=st.sampled_from(["open", "periodic", "neumann", "plus"]),
       extra=st.dictionaries(_KEY, _VALUE, max_size=3),
       comments=st.lists(_COMMENT_TEXT, max_size=3))
@example(samples=np.array([0.0, -0.0, 0.0, -0.0]), bc="open", extra={},
         comments=[])
@example(samples=np.array([-0.0, 0.0, 5e-324, -5e-324, 5e-324]),
         bc="periodic", extra={"tau": 0.19762754872186078},
         comments=["c"])
def test_saved_bytes_match_per_sample_writer(samples, bc, extra, comments):
    # repeated values, signed zeros among them, write the bytes of the
    # per-sample writer and read back with the same bit patterns
    dx = 1.0 / 16.0
    prof = GridProfile(L=samples.size * dx, dx=dx, samples=samples, bc=bc)
    new, ref = _write("", name="new.profile"), _write("", name="ref.profile")
    save_profile(prof, new, extra, comments)
    ref_save_profile_bulk(prof, ref, extra, comments)
    assert new.read_bytes() == ref.read_bytes()
    back = load_profile(new)[0]
    assert np.array_equal(back.samples.view(np.int64),
                          samples.view(np.int64))


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
# a bad sample before a malformed header, and a malformed header before a
# bad sample: the first in file order raises
@example(spec=(["L 1.0", "dx 0.25", "bc open", "0.1", "abc", "0.3", "0.4"],
               "\n", True), bad="bc closed", where=0.9, replace=False)
@example(spec=(["L 1.0", "dx fine", "bc open", "0.1", "0.2", "0.3", "0.4"],
               "\n", True), bad="1e", where=0.6, replace=True)
# a malformed last line with no final line break
@example(spec=(["L 1.0", "dx 0.25", "bc open", "0.1", "0.2", "0.3", "0.4"],
               "\n", False), bad="0.5 0.25", where=1.0, replace=True)
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
    # the only non-ASCII text a sample, which float() reads as 1.0
    "L 1.0\ndx 0.25\nbc open\n0.1\n0.2\n0.3\n\u0661\n",
    # a line of one non-ASCII space alone is blank
    "L 1.0\ndx 0.25\nbc open\n0.1\n\u3000\n0.2\n0.3\n0.4\n",
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


def _symbol_bound(params, gamma, n, dx):
    """The torus symbol against the direct transform. Its first row sums in
    absolute value to at most S of ``pair_scale``. The library adds the 1/dx
    band offsets one by one (1/dx roundings of S) to a closed form per atom
    (about ten roundings of it); the direct side sums at most 2^64 images
    pairwise (64 roundings) and transforms n points (4 log2 n roundings of
    S, twiddles included): (1/dx + 4 log2(n + 1) + 80) eps S."""
    s = pair_scale(params, gamma, dx, "periodic")[0]
    return (1.0 / dx + 4.0 * math.log2(n + 1) + 80.0) * np.finfo(float).eps * s


@pytest.mark.parametrize("dx", [1.0 / 8.0, 1.0 / 16.0, 1.0 / 64.0])
def test_torus_symbol_bitwise(dx, two_atom_params):
    # the eigenvalues of the circulant K, to the bound above (the name is
    # the earlier test's, which compared bits with a verbatim copy); n below
    # 1/dx included: the offsets k*m wrap several times around n
    for params in (_PARAMS, two_atom_params):
        for n in list(range(1, 41)) + [1190, 12064]:
            for gamma in (1e-2, 0.0):
                got = _torus_symbol(params, gamma, n, dx)
                want = torus_symbol_direct(params, gamma, n, dx)
                assert got.shape == want.shape == (n // 2 + 1,)
                assert np.max(np.abs(got - want)) <= _symbol_bound(
                    params, gamma, n, dx), (n, dx, gamma)


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
    got = _exchange_banded(phi, _PARAMS.kernel.band(dx), dx)
    want = exchange_direct(phi, _PARAMS.kernel, dx)
    assert got.shape == (1,)
    # every term is nonnegative, so each side errs relative to the value:
    # the library by its 1/dx dot products of at most n terms each, the
    # direct side by a pairwise sum of n^2 terms, three roundings per term
    bound = (n + 1.0 / dx + 2.0 * math.log2(n) + 12.0) * np.finfo(float).eps
    assert abs(got[0] - want) <= bound * want


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
    # disjoint nonempty windows in increasing order, some past the means,
    # over means with runs at +-m_beta; at rho = 0.001 the tolerance exceeds
    # m_beta, so the +-omega runs overlap and ties between them occur
    n = len(levels)
    jitter = np.array(data.draw(st.lists(st.floats(-0.02, 0.02),
                                         min_size=n, max_size=n)))
    means = _means(levels, _PARAMS.m_beta, jitter)
    cuts = sorted(data.draw(st.lists(st.integers(0, n + 3), min_size=2,
                                     max_size=20)))
    windows = [(j0, j1) for j0, j1 in zip(cuts[0::2], cuts[1::2]) if j1 > j0]
    if not windows:
        return
    tol = gamma ** rho
    j0, j1 = (np.array(w) for w in zip(*windows))
    omega, start, run = _flat_segments(_PARAMS.m_beta, means, j0, j1, tol)
    for k, (a, b) in enumerate(windows):
        want = flat_segment_brute(_PARAMS.m_beta, means, a, b, tol)
        # omega 0 (no near block) leaves start and length unspecified
        got = (float(omega[k]), int(start[k]), int(run[k]))
        assert got == want if want[0] else got[0] == 0.0


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
    assert flat_segment_brute(_PARAMS.m_beta, means, *window,
                              0.05) == expected


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


def _partition_by_rules(params, profile, cfg, gamma):
    """(edges, kinds, signs, ell_plus) as ``adapted_partition``'s docstring
    and ``find_flat_segment``'s state them: the regular delta-partition
    snapped to the grid; a low-energy block (of two or more) searched in its
    core, the ell_minus cells of the absolute grid that lie in
    [a + (b - a)/4, b - (b - a)/4] (to 1e-9 of a cell), with the domain-end
    margins l+/2, for the longest run within gamma^rho of +-m_beta; its
    midline snapped to the grid, or the block demoted. The lines are the
    domain ends, the midlines and each regular line between two bad blocks;
    a block between the midlines of good neighbours i, i+1 is good with
    their (omega_i, omega_{i+1}), one from a domain end to the first or last
    block's midline boundary good with (side, omega), any other bad."""
    L, dx, lm = profile.L, profile.dx, cfg.ell_minus
    reg = regular_partition(L, cfg.delta, gamma).snapped(dx)
    edges = reg.edges.tolist()
    n = len(edges) - 1
    ell_plus = float(np.mean(np.diff(reg.edges)))
    low = classify_blocks(params, profile, reg,
                          cfg.energy_cutoff_multiplier)["low"]
    per = int(round(lm / dx))
    means = [float(np.mean(profile.samples[j * per:(j + 1) * per]))
             for j in range(profile.n // per)]
    mid, omega = {}, {}
    for i in range(n):
        if n == 1 or not low[i]:
            continue
        a, b = edges[i], edges[i + 1]
        ml = ell_plus / 2.0 if i == 0 else (b - a) / 4.0
        mr = ell_plus / 2.0 if i == n - 1 else (b - a) / 4.0
        cells = [j for j in range(len(means))
                 if j >= (a + ml) / lm - 1e-9 and j + 1 <= (b - mr) / lm + 1e-9]
        if not cells:
            continue
        om, start, run = flat_segment_brute(params.m_beta, np.array(means),
                                            cells[0], cells[-1] + 1,
                                            gamma ** cfg.rho)
        if run:
            mid[i] = round(0.5 * (2 * start + run) * lm / dx) * dx
            omega[i] = om
    lines = {0.0, L, *mid.values()}
    lines |= {edges[k] for k in range(1, n) if k - 1 not in mid
              and k not in mid}
    lines = sorted(lines)
    source = {x: i for i, x in mid.items()}
    kinds, signs = [], []
    for a, b in zip(lines[:-1], lines[1:]):
        i, j = source.get(a), source.get(b)
        if i is not None and j == i + 1:
            kinds.append("good")
            signs.append((omega[i], omega[j]))
        elif a == 0.0 and j == 0:
            kinds.append("boundary_good")
            signs.append(("left", omega[0]))
        elif b == L and i == n - 1:
            kinds.append("boundary_good")
            signs.append(("right", omega[n - 1]))
        else:
            kinds.append("bad")
            signs.append(None)
    return lines, tuple(kinds), tuple(signs), ell_plus


@settings(max_examples=120, deadline=None)
@given(profile=plateau_profiles(),
       rho=st.sampled_from([0.001, 0.02, 0.04]),
       gamma=st.sampled_from([1e-2, 3e-3]))
def test_adapted_partition_matches_reference(params_tau, profile, rho, gamma):
    cfg = CoarseGrainConfig(rho=rho)
    got = adapted_partition(params_tau.with_gamma(gamma), profile, cfg)
    lines, kinds, signs, ell_plus = _partition_by_rules(params_tau, profile,
                                                        cfg, gamma)
    assert got.partition.edges.tolist() == lines
    assert got.kinds == kinds
    assert got.signs == signs
    assert got.ell_plus == ell_plus
