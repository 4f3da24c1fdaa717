"""Profile representations, block partitions and the on-disk profile format.

Grid profiles sample the magnetization at cell midpoints, so every integral
in the package is a midpoint sum and block averages of piecewise-constant
functions are exact. One rule, ``_block_cuts``, turns block edges into
sample indices, and ``_block_means`` takes the means between those cuts.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import (AlignmentError, DomainTooShort, InvariantError,
                     ParseError, ValidationError)

__all__ = [
    "GridProfile",
    "StepProfile",
    "BlockPartition",
    "BC_TOKENS",
    "block_type",
    "alpha_L",
    "regular_partition",
    "runs",
    "save_profile",
    "load_profile",
]

BC_TOKENS = ("open", "periodic", "neumann", "plus", "minus", "custom")

_GRID_RTOL = 1e-9


def _is_integer(x: float) -> bool:
    return abs(x - round(x)) <= _GRID_RTOL * max(1.0, abs(x))


def _check_lengths(L: float, dx: float):
    if not (0.0 < L < math.inf and 0.0 < dx < math.inf):
        raise ValidationError("L and dx must be finite and positive")


def _fields_equal(self, other):
    """``==`` of a dataclass that holds arrays: field by field, an array
    field by ``np.array_equal``, so it gives True or False where the
    generated ``==`` asks an array for one truth value and raises."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    return all(np.array_equal(a, b) if isinstance(a, np.ndarray)
               or isinstance(b, np.ndarray) else a == b
               for a, b in ((getattr(self, f.name), getattr(other, f.name))
                            for f in fields(self)))


@dataclass(frozen=True)
class GridProfile:
    """Uniformly sampled magnetization on [0, L], values in [-1, 1].

    Samples live at cell midpoints (i + 1/2) dx. ``bc`` tags the boundary
    condition; custom boundary data is carried in ``out_left``/``out_right``
    as midpoint samples on the grids extending away from the domain:
    ``out_left[j]`` sits at -(j + 1/2) dx, ``out_right[j]`` at L + (j + 1/2) dx.
    """

    L: float
    dx: float
    samples: np.ndarray
    bc: str = "open"
    out_left: Optional[np.ndarray] = None
    out_right: Optional[np.ndarray] = None

    __eq__ = _fields_equal

    def __post_init__(self):
        if self.bc not in BC_TOKENS:
            raise ValidationError(f"unknown bc token {self.bc!r}")
        _check_lengths(self.L, self.dx)
        if not _is_integer(self.L / self.dx):
            raise ValidationError("L/dx must be an integer")
        if not _is_integer(1.0 / self.dx):
            raise ValidationError("1/dx must be an integer (J-range alignment)")
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size != int(round(self.L / self.dx)):
            raise ValidationError("samples must be a vector of length L/dx")
        if not np.all(np.abs(samples) <= 1.0 + 1e-12):
            raise InvariantError("samples must lie in [-1, 1]")
        samples = np.clip(samples, -1.0, 1.0)
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        for name in ("out_left", "out_right"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=float)
                if not np.all(np.abs(arr) <= 1.0 + 1e-12):
                    raise InvariantError(f"{name} must lie in [-1, 1]")
                arr = np.clip(arr, -1.0, 1.0)
                arr.flags.writeable = False
                object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def x(self) -> np.ndarray:
        """Midpoint coordinates."""
        return (np.arange(self.n) + 0.5) * self.dx

    def with_samples(self, samples) -> "GridProfile":
        """Same grid, bc and outside data with new samples. Only the samples
        are validated; the outside data was when this profile was built."""
        prof = replace(self, samples=np.asarray(samples, dtype=float),
                       out_left=None, out_right=None)
        object.__setattr__(prof, "out_left", self.out_left)
        object.__setattr__(prof, "out_right", self.out_right)
        return prof

    def mean(self) -> float:
        return float(self.samples.mean())

    @classmethod
    def constant(cls, value: float, L: float, dx: float,
                 bc: str = "open") -> "GridProfile":
        _check_lengths(L, dx)
        n = int(round(L / dx))
        return cls(L=n * dx, dx=dx, samples=np.full(n, float(value)), bc=bc)


def _block_cuts(profile: GridProfile, edges) -> np.ndarray:
    """Sample indices of block edges: the edge x cuts the samples at
    x / dx, which must lie within 1e-6 samples of a grid line of [0, L]."""
    idx = np.asarray(edges, dtype=float) / profile.dx
    cuts = np.round(idx)
    if np.any(np.abs(idx - cuts) >= 1e-6) or not (
            0 <= cuts.min() and cuts.max() <= profile.n):
        raise AlignmentError(f"edges {tuple(edges)} not grid lines of "
                             f"[0, {profile.L}]")
    return cuts.astype(int)


def _block_means(samples: np.ndarray, cuts) -> np.ndarray:
    """Mean of each block samples[cuts[k]:cuts[k + 1]] (cuts increasing),
    bit for bit ``samples[i:j].mean()``: the blocks of one length are the
    rows of one array, each row summed as its slice is."""
    starts, widths = np.asarray(cuts[:-1]), np.diff(cuts)
    means = np.empty(starts.size)
    for w in np.unique(widths):
        rows = widths == w
        means[rows] = samples[starts[rows, None] + np.arange(w)].mean(axis=1)
    return means


def runs(labels, starts=(0,), periodic: bool = False
         ) -> Tuple[np.ndarray, np.ndarray]:
    """Start and stop indices of the maximal runs of equal entries of a
    nonempty 1-d array: ``labels[starts[k]:stops[k]]`` is the k-th run.

    Runs are also cut at each segment start of ``starts`` (increasing, from
    0), so many profiles fit in one array. With ``periodic`` each segment is
    a ring: where its last and first runs hold equal labels they are one
    run, reported first, its start the last run's start less the segment's
    length. A ring of one run stays the run from its start, cut at the seam.
    Entries compare with ``!=``, so each reader's labels carry its rule for
    a zero: ``np.sign`` of a step profile's values makes a zero piece a run
    of its own (a sign interval, a chessboard cell), and an interface
    (``_interfaces``) joins two runs of opposite nonzero signs, so a zero
    piece carries none; ``samples >= 0`` counts a zero sample as positive
    (the walls of ``multistart``).
    """
    labels, starts = np.asarray(labels), np.asarray(starts)
    cut = np.append(True, labels[1:] != labels[:-1])
    cut[starts] = True
    first = np.flatnonzero(cut)
    stops = np.append(first[1:], labels.size)
    if periodic:
        ends = np.append(starts[1:], labels.size)
        head, tail = np.searchsorted(first, [starts, ends - 1], "right") - 1
        wrap = (tail > head) & (labels[starts] == labels[ends - 1])
        first[head[wrap]] = first[tail[wrap]] - (ends - starts)[wrap]
        first, stops = np.delete([first, stops], tail[wrap], axis=1)
    return first, stops


def _interfaces(values, starts=(0,), periodic: bool = False) -> np.ndarray:
    """Interfaces of each segment of ``starts`` (as in ``runs``): pairs of
    neighbouring sign runs (``runs`` of ``np.sign(values)``, across the seam
    too with ``periodic``) of opposite nonzero signs. A zero piece is a run
    of its own and carries none: +m, 0, -m has none."""
    signs = np.sign(values)
    stops = runs(signs, starts, periodic)[1]
    sides, heads = signs[stops - 1], np.searchsorted(stops, starts, "right")
    before = np.append(0.0, sides[:-1])
    # a segment's first run meets its last run across the seam, or nothing
    before[heads] = (sides[np.append(heads[1:], sides.size) - 1]
                     if periodic else 0.0)
    return np.add.reduceat(sides * before < 0, heads)


def block_type(mean_value: float, m_beta: float) -> str:
    """Type of a block by its mean: plus/minus beyond 0.9 m_beta, else zero."""
    if mean_value >= 0.9 * m_beta:
        return "plus"
    if mean_value <= -0.9 * m_beta:
        return "minus"
    return "zero"


def alpha_L(L: float, delta: float, gamma: float) -> Tuple[float, int]:
    """Smallest alpha >= 1 with (L/alpha) gamma^delta integral.

    Scans block counts n = floor(L gamma^delta) downward; returns
    (alpha, n_blocks). L and delta must be finite, gamma finite and
    positive.
    """
    if not (math.isfinite(L) and math.isfinite(delta)
            and 0.0 < gamma < math.inf):
        raise ValidationError("L and delta must be finite, gamma finite and "
                              "positive")
    target = L * gamma ** delta
    n = int(np.floor(target * (1 + _GRID_RTOL)))
    if n < 1:
        raise DomainTooShort(
            f"L={L} shorter than one block gamma^-delta={gamma**-delta}")
    return target / n, n


@dataclass(frozen=True)
class BlockPartition:
    """Intervals tiling [0, L]."""

    edges: np.ndarray

    __eq__ = _fields_equal

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        if edges.ndim != 1 or edges.size < 2:
            raise ValidationError("need at least two edges")
        if np.any(np.diff(edges) <= 0):
            raise ValidationError("edges must be strictly increasing")
        edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)

    @property
    def n_blocks(self) -> int:
        return self.edges.size - 1

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    def blocks(self) -> Sequence[Tuple[float, float]]:
        return list(zip(self.edges[:-1], self.edges[1:]))

    def snapped(self, dx: float) -> "BlockPartition":
        """Edges rounded to the nearest grid line (<= dx/2 displacement)."""
        snapped = np.round(self.edges / dx) * dx
        if np.any(np.diff(snapped) <= 0):
            raise ValidationError("grid too coarse to snap this partition")
        return BlockPartition(edges=snapped)


def regular_partition(L: float, delta: float, gamma: float) -> BlockPartition:
    """Equal blocks of length alpha_L(delta) gamma^-delta, integer count."""
    _, n = alpha_L(L, delta, gamma)
    return BlockPartition(edges=np.linspace(0.0, L, n + 1))


@dataclass(frozen=True)
class StepProfile:
    """Piecewise-constant profile: values[i] on [breakpoints[i], breakpoints[i+1]),
    on the interval [0, L] or, with ``periodic``, on the torus of length L."""

    breakpoints: np.ndarray
    values: np.ndarray
    m_bar: Optional[float] = None
    periodic: bool = False

    __eq__ = _fields_equal

    def __post_init__(self):
        if not isinstance(self.periodic, bool):
            raise ValidationError(
                f"periodic must be True or False, not {self.periodic!r}")
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if bp.ndim != 1 or bp.size < 2 or vals.size != bp.size - 1:
            raise ValidationError("need n+1 breakpoints for n values")
        if not (np.all(np.diff(bp) > 0) and bp[-1] < math.inf):
            raise ValidationError(
                "breakpoints must be finite and strictly increasing")
        if not abs(bp[0]) <= 1e-12:
            raise ValidationError("first breakpoint must be 0")
        if not np.all(np.abs(vals) <= 1.0 + 1e-12):
            raise InvariantError("step values must lie in [-1, 1]")
        vals = np.clip(vals, -1.0, 1.0)
        bp.flags.writeable = False
        vals.flags.writeable = False
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @property
    def L(self) -> float:
        return float(self.breakpoints[-1])

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.breakpoints)

    @property
    def in_K(self) -> bool:
        """Whether min |values| >= m_bar (requires m_bar to be set)."""
        if self.m_bar is None:
            return False
        return bool(np.min(np.abs(self.values)) >= self.m_bar - 1e-12)

    def mean(self) -> float:
        return float(np.sum(self.widths * self.values) / self.L)

    def n_jumps(self) -> int:
        """Interfaces (``_interfaces``), the profile as one segment."""
        return int(_interfaces(self.values, periodic=self.periodic)[0])

    def sign_intervals(self):
        """Maximal constant-sign intervals as (start, stop, sign) triples:
        the ``runs`` of ``np.sign(values)``, a zero piece one of its own.

        On the torus the first and last intervals merge when they share a
        sign; the merged interval is reported first, with the wrapped
        length, starting at its true (unwrapped) left edge, less L.
        """
        signs = np.sign(self.values)
        bp = self.breakpoints
        first, stops = runs(signs, periodic=self.periodic)
        lefts = bp[first % signs.size] - (first < 0) * self.L
        return [(a, bp[b], float(signs[i]))
                for i, a, b in zip(first, lefts, stops)]

    def interval_lengths(self) -> np.ndarray:
        return np.array([b - a for a, b, _ in self.sign_intervals()])

    def to_grid(self, dx: float, bc: str = "open") -> GridProfile:
        """Midpoint sampling onto a uniform grid (breakpoints need not align)."""
        _check_lengths(self.L, dx)
        n = int(round(self.L / dx))
        x = (np.arange(n) + 0.5) * dx
        idx = np.searchsorted(self.breakpoints, x, side="right") - 1
        idx = np.clip(idx, 0, self.values.size - 1)
        return GridProfile(L=n * dx, dx=dx, samples=self.values[idx], bc=bc)

    def restrict(self, a: float, b: float) -> "StepProfile":
        """Restriction to [a, b], re-anchored at 0: an open step profile."""
        if not (a < b <= self.L + 1e-12 and a >= -1e-12):
            raise ValidationError("restriction outside domain")
        keep_bp = [0.0]
        keep_vals = []
        for lo, hi, val in zip(self.breakpoints[:-1], self.breakpoints[1:],
                               self.values):
            lo2, hi2 = max(lo, a), min(hi, b)
            if hi2 - lo2 > 1e-14:
                keep_vals.append(val)
                keep_bp.append(hi2 - a)
        return StepProfile(breakpoints=np.array(keep_bp),
                           values=np.array(keep_vals), m_bar=self.m_bar)

    @classmethod
    def from_pieces(cls, pieces, m_bar: Optional[float] = None,
                    periodic: bool = False) -> "StepProfile":
        """Build from (width, value) pairs."""
        widths = np.array([w for w, _ in pieces], dtype=float)
        vals = np.array([v for _, v in pieces], dtype=float)
        bp = np.concatenate([[0.0], np.cumsum(widths)])
        return cls(breakpoints=bp, values=vals, m_bar=m_bar, periodic=periodic)


# ---------------------------------------------------------------------------
# profile file format
#
# UTF-8 text of lines. '#' starts a comment that runs to the end of its line;
# what is left of a line is split on whitespace, and a line with no token is
# skipped. A line of two tokens whose first is not a number is a header:
# "L <float>", "dx <float>", "bc <token>" (one of BC_TOKENS), or an extra
# "<key> <float>"; a repeated header keeps its last value. A line of one
# token is a sample. Any other line, or one with a bad number or bc token,
# is malformed. Headers and samples may come in any order; the samples are
# the profile's in file order. Numbers are read by Python's float(). A file
# raises the ParseError of its first malformed line, naming its number.
#
# save_profile writes the comments first, one "# <comment>" line each, then
# L, dx, bc and the extra headers with 17 significant digits, then one sample
# per line in '.17e' form; each distinct bit pattern among the samples is
# formatted once, and the bytes are those of one '.17e' line per sample. It
# rejects, before writing, an extra header key that would not read back as
# itself: one that is not a single token, holds '#', reads as a number, or is
# L, dx or bc; an extra header value that float() does not take; and a
# comment that holds a line break.

_RESERVED_KEYS = ("L", "dx", "bc")
_COMMENT = re.compile(r"#[^\n]*")


def save_profile(profile: GridProfile, path, extra_headers: Optional[dict] = None,
                 comments: Optional[list] = None):
    """Write ``profile`` to ``path`` in the profile file format, with the
    ``extra_headers`` as "<key> <float>" lines and each of ``comments`` as a
    comment line, each distinct sample formatted once. Raises
    ValidationError for a key, value or comment that would not read back
    (see the format notes above)."""
    extra = dict(extra_headers or {})
    comments = [str(c) for c in (comments or [])]
    for key, val in extra.items():
        if (not isinstance(key, str) or key.split() != [key] or "#" in key
                or _is_float(key) or key in _RESERVED_KEYS):
            raise ValidationError(
                f"header key {key!r} must be one non-numeric token without "
                f"'#', other than L, dx and bc")
        try:
            extra[key] = float(val)
        except (TypeError, ValueError):
            raise ValidationError(f"header {key!r} value {val!r} is not a "
                                  f"real number") from None
    for c in comments:
        if "\n" in c or "\r" in c:
            raise ValidationError(f"comment {c!r} holds a line break")
    lines = [f"# {c}" for c in comments]
    lines += [f"L {format(profile.L, '.17g')}",
              f"dx {format(profile.dx, '.17g')}",
              f"bc {profile.bc}"]
    lines += [f"{key} {format(val, '.17g')}" for key, val in extra.items()]
    # '%.17e' formats a Python float as format(s, '.17e') and numpy's
    # float64 do; by bit pattern, -0.0 keeps its own line apart from 0.0
    bits, where = np.unique(profile.samples.view(np.int64), return_inverse=True)
    distinct = (("%.17e\n" * bits.size)
                % tuple(bits.view(float).tolist())).splitlines(True)
    body = "".join([distinct[i] for i in where.tolist()])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n" + body)


def load_profile(path):
    """Load a profile file; returns (GridProfile, extra_headers).

    The file is decoded once and ``_parse`` walks its lines, raising the
    ParseError of its first malformed line in file order. A file that is
    not UTF-8 raises, before any other, the ParseError of the line holding
    its first undecodable byte.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        line = len(re.findall(rb"\r\n?|\n", data[:err.start])) + 1
        raise ParseError("not UTF-8 text", line=line) from None
    headers, arr = _parse(text)
    L, dx, bc = (headers.pop(key, None) for key in _RESERVED_KEYS)
    if L is None or dx is None or bc is None:
        raise ParseError("missing L/dx/bc header", line=0)
    if not np.all(np.abs(arr) <= 1.0 + 1e-12):
        raise InvariantError("sample outside [-1, 1] in profile file")
    try:
        prof = GridProfile(L=L, dx=dx, samples=arr, bc=bc)
    except ValidationError as err:
        raise ParseError(str(err), line=0) from err
    return prof, headers


def _parse(text: str):
    """(headers, samples) of a profile file's text; raises the first
    malformed line's ParseError, or one for a file with no token.

    CR and CRLF end lines as LF does. The lines are walked in file order up
    to the first malformed header line: a line of one token is a sample
    token, and a line of two is a header. The sample tokens convert in one
    call; only when that fails are the lines walked again for the first bad
    token, which comes before the malformed line, so the error of the
    earlier line is raised.
    """
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = _COMMENT.sub("", text).split("\n")
    headers, tokens, error = {}, [], None
    try:
        for lineno, line in enumerate(lines, start=1):
            parts = line.split()
            if len(parts) == 1:
                tokens.append(parts[0])
            elif len(parts) == 2 and not _is_float(parts[0]):
                key, val = parts
                if key != "bc":
                    headers[key] = _parse_float(val, lineno)
                elif val in BC_TOKENS:
                    headers[key] = val
                else:
                    raise ParseError(f"unknown bc token {val!r}", line=lineno)
            elif parts:
                raise ParseError(f"unparseable line {line.strip()!r}",
                                 line=lineno)
    except ParseError as err:
        error = err
    try:
        # numpy converts each str with Python's float()
        samples = np.array(tokens, dtype=float)
    except ValueError:
        for lineno, line in enumerate(lines, start=1):
            parts = line.split()
            if len(parts) == 1:
                _parse_float(parts[0], lineno)
    if error is not None:
        raise error
    if not (tokens or headers):
        raise ParseError("empty profile file", line=0)
    return headers, samples


def _is_float(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def _parse_float(token: str, lineno: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"bad number {token!r}", line=lineno) from None
