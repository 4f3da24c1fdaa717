import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from froth1d.coarsegrain import classify_blocks
from froth1d.energy import short_range_energy
from froth1d.errors import (AlignmentError, DomainTooShort, InvariantError,
                            ParseError, ValidationError)
from froth1d.profiles import (BC_TOKENS, BlockPartition, GridProfile,
                              StepProfile,
                              _block_cuts, _block_means, alpha_L, block_type,
                              load_profile, runs, save_profile)


def _mean_over(profile, interval):
    """The mean of the samples inside ``interval``, its ends cut as every
    block reader cuts them."""
    return float(_block_means(profile.samples,
                              _block_cuts(profile, interval))[0])


class TestAverageOver:
    """The mean over an interval: the midpoint rule, exact on grid lines."""

    def test_constant(self, params):
        p = GridProfile.constant(params.m_beta, L=8.0, dx=0.125)
        assert _mean_over(p, (2.0, 5.0)) == pytest.approx(params.m_beta)

    def test_square_wave_full_period(self):
        n = 256
        x = (np.arange(n) + 0.5) / n * 8.0
        p = GridProfile(L=8.0, dx=8.0 / n / 4 * 4, samples=np.sign(np.sin(2 * np.pi * x / 8.0)))
        assert _mean_over(p, (0.0, 8.0)) == pytest.approx(0.0, abs=1e-15)

    def test_sawtooth(self):
        n = 512
        L = 8.0
        dx = L / n
        x = (np.arange(n) + 0.5) * dx
        p = GridProfile(L=L, dx=dx, samples=2 * x / L - 1)
        # exact mean of the arithmetic sequence of midpoint samples is 0
        assert _mean_over(p, (0.0, L)) == pytest.approx(0.0, abs=1e-15)

    def test_misaligned_raises(self):
        p = GridProfile.constant(0.5, L=4.0, dx=0.25)
        with pytest.raises(AlignmentError):
            _mean_over(p, (0.1, 2.0))

    def test_empty_interval(self, params_tau):
        # an empty or reversed interval holds no sample and no energy
        p = GridProfile.constant(0.5, L=4.0, dx=0.25)
        for interval in ((2.0, 2.0), (3.0, 1.0)):
            i, j = _block_cuts(p, interval)
            assert j <= i
            assert short_range_energy(params_tau, p, interval) == 0.0


class TestBlockCuts:
    """One rule turns block edges into sample indices for every reader."""

    # an edge at sample 48 + off of a 128-sample grid, or past its end
    @pytest.mark.parametrize("off", [5e-7, -5e-7, 2e-6, -2e-6, 0.5, 81.0])
    def test_readers_cut_alike(self, params_tau, off):
        dx = 1.0 / 16.0
        rng = np.random.default_rng(3)
        p = GridProfile(L=8.0, dx=dx, samples=rng.uniform(-1.0, 1.0, 128))
        edge = (48 + off) * dx
        readers = (
            lambda e: _mean_over(p, (1.0, e)),
            lambda e: short_range_energy(params_tau, p, (1.0, e)),
            lambda e: classify_blocks(params_tau, p, BlockPartition(
                edges=np.array([0.0, 1.0, e])))["energy"].tolist())
        if abs(off) >= 1e-6:
            for read in readers:
                with pytest.raises(AlignmentError):
                    read(edge)
        else:
            for read in readers:
                assert read(edge) == read(3.0)
            assert _mean_over(p, (1.0, edge)) == p.samples[16:48].mean()


@settings(max_examples=200, deadline=None)
@given(first=st.integers(0, 40),
       widths=st.lists(st.integers(1, 300), min_size=1, max_size=12),
       seed=st.integers(0, 2 ** 32 - 1))
@example(first=0, widths=[1, 1, 9, 1, 130], seed=0)
def test_block_means_are_slice_means(first, widths, seed):
    # bit for bit the mean numpy takes of each slice, one-sample blocks and
    # blocks of every length class of its pairwise sum included
    cuts = first + np.append(0, np.cumsum(widths))
    samples = np.random.default_rng(seed).uniform(-1.0, 1.0, cuts[-1] + 5)
    means = _block_means(samples, cuts)
    by_slice = np.array([samples[i:j].mean() for i, j in zip(cuts, cuts[1:])])
    assert means.view(np.int64).tolist() == by_slice.view(np.int64).tolist()


class TestBlockType:
    def test_thresholds(self, params):
        m = params.m_beta
        assert block_type(0.95 * m, m) == "plus"
        assert block_type(0.0, m) == "zero"
        assert block_type(-0.9 * m, m) == "minus"
        assert block_type(0.89 * m, m) == "zero"


def _runs_by_loop(labels, starts, periodic):
    """The runs by their definition, entry by entry: a run grows while the
    next entry of its segment equals it; on a ring of two runs or more whose
    last and first runs are equal, the last run is taken off the end and
    put before the first, its start less the segment's length."""
    out = []
    bounds = list(starts) + [len(labels)]
    for lo, hi in zip(bounds, bounds[1:]):
        seg = []
        for i in range(lo, hi):
            if seg and labels[i] == labels[i - 1]:
                seg[-1][1] = i + 1
            else:
                seg.append([i, i + 1])
        if periodic and len(seg) > 1 and labels[lo] == labels[hi - 1]:
            last = seg.pop()
            seg[0][0] = last[0] - (hi - lo)
        out += [tuple(r) for r in seg]
    return out


@st.composite
def _run_inputs(draw):
    """Labels from a small alphabet (so runs are long and rings often
    wrap), increasing segment starts from 0, and the seam flag."""
    labels = draw(st.lists(st.integers(0, 2), min_size=1, max_size=40))
    inner = draw(st.sets(st.integers(1, max(1, len(labels) - 1)),
                         max_size=5))
    starts = [0] + sorted(i for i in inner if i < len(labels))
    return labels, starts, draw(st.booleans())


class TestRuns:
    @given(st.lists(st.integers(0, 2), min_size=1, max_size=40))
    @example([5])                    # n = 1
    @example([1] * 17)               # all equal
    @settings(max_examples=200, deadline=None)
    def test_against_naive_scan(self, labels):
        expected, start = [], 0
        for i in range(1, len(labels) + 1):
            if i == len(labels) or labels[i] != labels[start]:
                expected.append((start, i))
                start = i
        starts, stops = runs(labels)
        assert list(zip(starts.tolist(), stops.tolist())) == expected

    def test_labels_of_any_dtype(self):
        starts, stops = runs(["plus", "plus", "zero", "minus", "minus"])
        assert starts.tolist() == [0, 2, 3] and stops.tolist() == [2, 3, 5]
        starts, stops = runs(np.array([True, False, False, True]))
        assert starts.tolist() == [0, 1, 3] and stops.tolist() == [1, 3, 4]

    @given(_run_inputs())
    # a ring of one run, two runs, a run that wraps, and two segments
    # that wrap, one with a run cut at the segment start
    @example(([1] * 6, [0], True))
    @example(([0, 0, 1, 1], [0], True))
    @example(([2, 0, 0, 1, 2, 2], [0], True))
    @example(([1, 0, 1, 1, 0, 0, 1], [0, 3], True))
    @settings(max_examples=300, deadline=None)
    def test_segments_and_seam_against_loop(self, inputs):
        labels, starts, periodic = inputs
        got = runs(labels, starts, periodic)
        assert list(zip(*(x.tolist() for x in got))) == _runs_by_loop(
            labels, starts, periodic)

    @given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.25]),
                    min_size=1, max_size=30), st.booleans())
    @example([0.0, -0.0, 0.0], True)
    @example([-0.0, 1.0, 0.0], True)
    @settings(max_examples=200, deadline=None)
    def test_signs_with_signed_zeros(self, values, periodic):
        # np.sign keeps the zero's sign, and -0.0 == 0.0: a run of zeros is
        # one run, whatever the signs of its zeros
        labels = np.sign(np.array(values))
        got = runs(labels, periodic=periodic)
        assert list(zip(*(x.tolist() for x in got))) == _runs_by_loop(
            labels.tolist(), [0], periodic)


class TestAlphaL:
    def test_exact_multiple(self):
        gamma, delta = 1e-2, 0.2
        L = 10.0 * gamma ** -delta
        a, n = alpha_L(L, delta, gamma)
        assert n == 10 and a == pytest.approx(1.0)

    def test_fractional(self):
        gamma, delta = 1e-2, 0.2
        L = 10.5 * gamma ** -delta
        a, n = alpha_L(L, delta, gamma)
        assert n == 10 and a == pytest.approx(1.05)

    def test_too_short(self):
        with pytest.raises(DomainTooShort):
            alpha_L(0.5 * (1e-2) ** -0.2, 0.2, 1e-2)

    @given(st.floats(min_value=1.2, max_value=500.0))
    @settings(max_examples=50, deadline=None)
    def test_direct_search_oracle(self, ratio):
        gamma, delta = 3e-2, 0.25
        L = ratio * gamma ** -delta
        a, n = alpha_L(L, delta, gamma)
        # reproduce inf{alpha >= 1 : (L/alpha) gamma^delta integer} directly
        target = L * gamma ** delta
        candidates = [target / k for k in range(1, int(target) + 2)
                      if target / k >= 1.0 - 1e-12]
        assert a == pytest.approx(min(candidates))
        assert abs((L / a) * gamma ** delta - n) < 1e-9


class TestGridProfile:
    def test_with_samples_shares_outside_data(self, rng):
        # descents call with_samples per candidate; the outside data (up to
        # 46/(gamma dx) samples a side) is validated once, not copied again
        out = rng.uniform(-0.9, 0.9, 1000)
        p = GridProfile(L=4.0, dx=0.125, samples=np.zeros(32), bc="custom",
                        out_left=out, out_right=-out)
        q = p.with_samples(rng.uniform(-1, 1, 32))
        assert q.out_left is p.out_left and q.out_right is p.out_right
        assert q.bc == "custom" and not q.samples.flags.writeable
        with pytest.raises(InvariantError):
            p.with_samples(np.full(32, 1.5))

    @pytest.mark.parametrize("bc", BC_TOKENS)
    def test_step_bc(self, bc):
        # the one map from a grid's bc to its step profiles': sigma_phi
        # wraps only the torus, and fixed or reflected data leave it open
        p = GridProfile.constant(0.5, L=4.0, dx=0.125, bc=bc)
        assert p.step_bc == ("periodic" if bc == "periodic" else "open")


class TestStepProfile:
    def test_mean_and_jumps(self):
        s = StepProfile(breakpoints=np.array([0.0, 1.0, 3.0]),
                        values=np.array([0.5, -0.5]))
        assert s.mean() == pytest.approx((0.5 - 1.0) / 3.0)
        assert s.n_jumps() == 1
        assert s.n_jumps(periodic=True) == 2

    def test_in_K_consistency(self, params):
        m_bar = 0.3
        vals = np.array([0.4, -0.35, 0.9])
        s = StepProfile(breakpoints=np.array([0.0, 1.0, 2.0, 3.0]),
                        values=vals, m_bar=m_bar)
        assert s.in_K == (np.min(np.abs(vals)) >= m_bar)
        s2 = StepProfile(breakpoints=np.array([0.0, 1.0, 2.0, 3.0]),
                        values=np.array([0.4, -0.2, 0.9]), m_bar=m_bar)
        assert not s2.in_K

    def test_sign_intervals_merge(self):
        s = StepProfile(breakpoints=np.array([0.0, 1.0, 2.0, 3.0, 4.0]),
                        values=np.array([0.5, 0.9, -0.4, -0.6]))
        runs = s.sign_intervals()
        assert [(a, b) for a, b, _ in runs] == [(0.0, 2.0), (2.0, 4.0)]
        # periodic wrap merge when end signs agree
        s2 = StepProfile(breakpoints=np.array([0.0, 1.0, 3.0, 4.0]),
                         values=np.array([0.5, -0.4, 0.6]))
        runs2 = s2.sign_intervals(periodic=True)
        assert len(runs2) == 2
        assert runs2[0][1] - runs2[0][0] == pytest.approx(2.0)  # wrapped + run

    @given(st.lists(st.tuples(st.floats(0.1, 3.0), st.floats(-1.0, 1.0)),
                    min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_from_pieces_mass(self, pieces):
        s = StepProfile.from_pieces(pieces)
        total = sum(w * v for w, v in pieces)
        length = sum(w for w, _ in pieces)
        assert s.mean() == pytest.approx(total / length, rel=1e-12, abs=1e-12)


class TestPartitionTiling:
    def test_regular_tiles_exactly(self):
        from froth1d.coarsegrain import regular_partition
        L, gamma, delta = 123.456, 1e-2, 0.2
        part = regular_partition(L, delta, gamma)
        assert part.edges[0] == 0.0 and part.edges[-1] == pytest.approx(L)
        assert np.sum(part.widths) == pytest.approx(L, rel=1e-12)
        assert np.max(part.widths) - np.min(part.widths) < 1e-9


class TestProfileFile:
    def test_round_trip(self, tmp_path, rng):
        n = 64
        p = GridProfile(L=2.0, dx=2.0 / n / 16 * 16, samples=rng.uniform(-1, 1, n),
                        bc="periodic")
        path = tmp_path / "p.profile"
        save_profile(p, path, extra_headers={"tau": 0.19762754872186078})
        q, headers = load_profile(path)
        assert np.array_equal(q.samples, p.samples)
        assert q.bc == "periodic" and q.L == p.L and q.dx == p.dx
        assert headers["tau"] == 0.19762754872186078

    def test_sample_text_matches_numpy_scalar_format(self, tmp_path, rng):
        # the samples are written as the numpy float64 scalars format,
        # signed zero, the smallest subnormal and the box ends included
        special = [-0.0, 0.0, 1.0, -1.0, 5e-324, -5e-324]
        samples = np.concatenate([special, rng.uniform(-1, 1, 58)])
        p = GridProfile(L=4.0, dx=4.0 / 64, samples=samples)
        path = tmp_path / "p.profile"
        save_profile(p, path)
        body = path.read_text(encoding="utf-8").splitlines()[3:]
        assert body == [format(s, '.17e') for s in p.samples]
        assert body[0] == "-0.00000000000000000e+00"
        assert body[4] == "4.94065645841246544e-324"

    def test_out_of_range_sample(self, tmp_path):
        path = tmp_path / "bad.profile"
        path.write_text("L 1.0\ndx 0.25\nbc open\n0.0\n1.5\n0.0\n0.0\n")
        with pytest.raises(InvariantError):
            load_profile(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.profile"
        path.write_text("")
        with pytest.raises(ParseError):
            load_profile(path)

    def test_parse_error_line_number(self, tmp_path):
        path = tmp_path / "bad2.profile"
        path.write_text("L 1.0\ndx 0.25\nbc open\n0.0\nnot-a-number\n")
        with pytest.raises(ParseError) as err:
            load_profile(path)
        assert err.value.line == 5

    @pytest.mark.parametrize("extra, comments", [
        ({"1e3": 0.5}, None),       # numeric key: read as an unparseable line
        ({"my key": 2.0}, None),    # two tokens: a three-token line
        ({"bc": 3.0}, None),        # read as an unknown bc token
        ({"L": 2.0}, None),         # overrides the domain length
        ({"#x": 1.0}, None),        # read as a comment, silently dropped
        ({"dx": 0.25}, None),       # a second dx header, the last one kept
        (None, ["a\nb"]),           # the second line is read as a sample
    ])
    def test_unreadable_header_or_comment_rejected(self, tmp_path, extra,
                                                   comments):
        p = GridProfile(L=1.0, dx=0.25, samples=np.zeros(4))
        path = tmp_path / "p.profile"
        with pytest.raises(ValidationError):
            save_profile(p, path, extra_headers=extra, comments=comments)
        assert not path.exists()

    def test_cli_headers_round_trip(self, tmp_path):
        p = GridProfile(L=1.0, dx=0.25, samples=np.zeros(4))
        path = tmp_path / "p.profile"
        headers = {"tau": 0.19762754872186078, "tail_rate": 1.25,
                   "half_width": 30.0}
        save_profile(p, path, extra_headers=headers,
                     comments=["config_sha256 0123abcd", "sigma \u03c3 # x"])
        q, back = load_profile(path)
        assert back == headers and np.array_equal(q.samples, p.samples)
