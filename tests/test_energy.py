import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import quadratic_form_reference as reference
from dense_pair_integral import dense_step_dipole_energy
from direct_oracles import dense_energy, dipole_energy_direct
from froth1d.energy import (_energy_and_gradient, _exp_conv_open,
                            _ExpWeights, _quadratic_form, _QuadraticForm,
                            _self_integrals,
                            dipole_energy, energy_gradient,
                            short_range_energy, step_dipole_energy,
                            tilde_energy, total_energy)
from froth1d.errors import MissingBoundaryData
from froth1d.minimize import MinimizeOptions, minimize_energy
from froth1d.model import KacMeasure, ModelParams
from froth1d.profiles import GridProfile, StepProfile


def random_profile(rng, n=256, dx=1.0 / 16.0, bc="open", lo=-0.95, hi=0.95):
    return GridProfile(L=n * dx, dx=dx, samples=rng.uniform(lo, hi, n), bc=bc)


class TestShortRange:
    def test_constant_zero(self, params):
        p = GridProfile.constant(params.m_beta, L=10.0, dx=1.0 / 16.0)
        assert short_range_energy(params, p) == pytest.approx(0.0, abs=1e-14)

    def test_zero_profile_value(self, params):
        p = GridProfile.constant(0.0, L=10.0, dx=1.0 / 16.0)
        assert short_range_energy(params, p) == pytest.approx(10 * params.f0,
                                                              rel=1e-12)

    def test_instanton_energy_is_tau(self, params, instanton_default):
        # wide-interval short-range energy of the instanton reproduces tau
        inst = instanton_default
        prof = GridProfile(L=2 * inst.W, dx=inst.dx, samples=inst.q)
        inner = short_range_energy(params, prof)
        assert inner == pytest.approx(inst.tau, abs=1e-10)

    def test_superadditivity(self, params, rng):
        p = random_profile(rng, n=512, dx=1.0 / 16.0)
        whole = short_range_energy(params, p)
        parts = sum(short_range_energy(params, p, (a, a + 8.0))
                    for a in np.arange(0.0, 32.0, 8.0))
        assert whole >= parts - 1e-12


class TestDipole:
    def test_zero_profile(self, params):
        p = GridProfile.constant(0.0, L=10.0, dx=1.0 / 8.0)
        assert dipole_energy(params, p, 1e-2) == 0.0

    def test_recursion_matches_direct(self, two_atom_params, rng):
        p = random_profile(rng, n=4000, dx=1.0 / 16.0)
        fast = dipole_energy(two_atom_params, p, 1e-2)
        slow = dipole_energy_direct(two_atom_params, p, 1e-2)
        assert abs(fast - slow) <= 1e-10 * abs(slow)

    def test_constant_closed_form(self, params):
        # quadrature converges to the exact double integral as dx -> 0
        gamma, alpha, lam, L = 0.05, 1.0, 1.0, 40.0
        expect = (lam / (gamma * alpha ** 2)) * (
            gamma * alpha * L - 1 + np.exp(-gamma * alpha * L))
        vals = []
        for dx in (1.0 / 8.0, 1.0 / 16.0):
            p = GridProfile.constant(1.0, L=L, dx=dx)
            vals.append(dipole_energy(params, p, gamma))
        assert vals[1] == pytest.approx(expect, rel=1e-4)
        # quadrature error shrinks with dx
        assert abs(vals[1] - expect) < abs(vals[0] - expect)

    def test_alternating_decreases_with_period(self, params):
        # finer alternation reduces the antiferromagnetic penalty
        vals = []
        for h in (16.0, 8.0, 4.0):
            n = int(64 / h)
            s = StepProfile.from_pieces([(h, (-1.0) ** k * params.m_beta)
                                         for k in range(n)])
            vals.append(step_dipole_energy(params, s, 1e-1))
        assert vals[0] > vals[1] > vals[2]

    def test_step_dipole_matches_grid(self, params):
        s = StepProfile.from_pieces([(8.0, 0.7), (4.0, -0.9), (12.0, 0.4)])
        exact = step_dipole_energy(params, s, 5e-2)
        p = s.to_grid(1.0 / 64.0)
        quad = dipole_energy(params, p, 5e-2)
        assert quad == pytest.approx(exact, rel=1e-4)


class TestTotalEnergy:
    def test_open_zero_boundary(self, params, rng):
        p = random_profile(rng, bc="open")
        eb = total_energy(params, p, 1e-2)
        assert eb.boundary == 0.0
        assert eb.local >= 0 and eb.exchange >= 0
        assert eb.total == pytest.approx(
            eb.local + eb.exchange + eb.dipole + eb.boundary, rel=1e-12)

    def test_periodic_constant_dipole_per_length(self, params):
        # torus dipole of the uniform profile: m^2 lam sum w/alpha per length,
        # up to the O((gamma alpha dx)^2) midpoint quadrature factor
        m = params.m_beta
        gamma, dx = 0.25, 1.0 / 64.0
        p = GridProfile.constant(m, L=400.0, dx=dx, bc="periodic")
        eb = total_energy(params, p, gamma)
        per_len = (eb.dipole + eb.boundary) / p.L
        x = 0.5 * gamma * 1.0 * dx
        discrete = m * m * x / np.tanh(x)   # exact value of the midpoint sum
        assert per_len == pytest.approx(discrete, rel=1e-12)
        assert per_len == pytest.approx(m * m, rel=1e-5)
        assert per_len == pytest.approx(0.91681, abs=1e-5)
        assert eb.local == pytest.approx(0.0, abs=1e-13)
        assert eb.exchange == 0.0

    def test_square_wave_dipole_matches_eh(self, params_tau):
        # periodic alternating train: torus dipole per length -> e(h) - tau/h
        from froth1d.energy import _torus_dipole_symbol
        from froth1d.sharp import energy_per_length
        gamma, h, k = 1e-2, 16.0, 6
        m = params_tau.m_beta
        dx = 1.0 / 32.0
        n_cell = int(round(h / dx))
        cell = np.full(n_cell, m)
        samples = np.concatenate([(-1.0) ** j * cell for j in range(2 * k)])
        p = GridProfile(L=2 * k * h, dx=dx, samples=samples, bc="periodic")
        lr = energy_per_length(params_tau, h, gamma) - params_tau.tau / h
        sym = _torus_dipole_symbol(params_tau, gamma, p.n, dx)
        dipole = 0.5 * dx * float(
            samples @ np.fft.irfft(sym * np.fft.rfft(samples), p.n))
        assert dipole / p.L == pytest.approx(lr, rel=1e-4)

    def test_zero_profile_any_bc(self, params):
        n_out = int(np.ceil(46.0 / 1e-2 / 0.125))
        p = GridProfile(L=16.0, dx=0.125, samples=np.zeros(128), bc="custom",
                        out_left=np.zeros(n_out), out_right=np.zeros(n_out))
        eb = total_energy(params, p, 1e-2)
        assert eb.total == pytest.approx(16.0 * params.f0, rel=1e-12)

    def test_reflection_symmetry(self, params, rng):
        for bc in ("open", "periodic"):
            p = random_profile(rng, bc=bc)
            q = p.with_samples(p.samples[::-1])
            assert total_energy(params, q, 1e-2).total == pytest.approx(
                total_energy(params, p, 1e-2).total, rel=1e-12)

    def test_spin_flip_symmetry(self, params, rng):
        for bc in ("open", "periodic", "neumann"):
            p = random_profile(rng, bc=bc)
            q = p.with_samples(-p.samples)
            assert total_energy(params, q, 1e-2).total == pytest.approx(
                total_energy(params, p, 1e-2).total, rel=1e-12)

    def test_missing_boundary_data(self, params, rng):
        p = random_profile(rng, bc="custom")
        with pytest.raises(MissingBoundaryData):
            total_energy(params, p, 1e-2)
        short = GridProfile(L=16.0, dx=0.125,
                            samples=np.zeros(128), bc="custom",
                            out_left=np.zeros(4), out_right=np.zeros(4))
        with pytest.raises(MissingBoundaryData):
            total_energy(params, short, 1e-2)


class TestGradient:
    @pytest.mark.parametrize("bc", ["open", "periodic", "plus", "minus",
                                    "neumann", "custom"])
    def test_matches_finite_differences(self, two_atom_params, rng, bc):
        params = two_atom_params
        n, dx = 256, 1.0 / 16.0
        kwargs = {}
        if bc == "custom":
            n_out = int(np.ceil(46.0 / (1e-2 * 1.0) / dx))
            kwargs = dict(out_left=rng.uniform(-0.9, 0.9, n_out),
                          out_right=rng.uniform(-0.9, 0.9, n_out))
        p = GridProfile(L=n * dx, dx=dx, samples=rng.uniform(-0.95, 0.95, n),
                        bc=bc, **kwargs)
        g = energy_gradient(params, p, 1e-2)
        h = 1e-6
        idx = rng.choice(n, 16, replace=False)
        fd = np.empty(idx.size)
        for j, i in enumerate(idx):
            up = p.samples.copy(); up[i] += h
            dn = p.samples.copy(); dn[i] -= h
            fd[j] = (total_energy(params, p.with_samples(up), 1e-2).total
                     - total_energy(params, p.with_samples(dn), 1e-2).total
                     ) / (2 * h * dx)
        scale = max(np.max(np.abs(fd)), 1e-10)
        assert np.max(np.abs(g[idx] - fd)) / scale < 1e-6

    def test_short_periodic_box(self, params, rng):
        # box shorter than the exchange range: offsets k >= N wrap mod N
        n, dx, gamma = 6, 1.0 / 8.0, 2e-2
        p = random_profile(rng, n=n, dx=dx, bc="periodic")
        g = energy_gradient(params, p, gamma)
        h = 1e-6
        fd = np.empty(n)
        for i in range(n):
            up = p.samples.copy(); up[i] += h
            dn = p.samples.copy(); dn[i] -= h
            fd[i] = (total_energy(params, p.with_samples(up), gamma).total
                     - total_energy(params, p.with_samples(dn), gamma).total
                     ) / (2 * h * dx)
        assert np.max(np.abs(g - fd)) / np.max(np.abs(fd)) < 1e-6

    def test_stationary_at_uniform(self, params):
        for val in (params.m_beta, 0.0):
            p = GridProfile.constant(val, L=16.0, dx=1.0 / 16.0)
            g = energy_gradient(params, p, 0.0)
            assert np.max(np.abs(g)) < 1e-12


class TestExpPasses:
    """The prefix-sum passes against sum_j e^{-beta |i-j|} phi_j summed
    densely in extended precision, row by row."""

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="the reference needs an extended long double")
    @settings(max_examples=120, deadline=None)
    @given(phi=arrays(np.float64, st.integers(1, 600),
                      elements=st.floats(-1.0, 1.0)),
           beta=st.one_of(st.floats(-10.0, math.log10(50.0)).map(
               lambda e: 10.0 ** e), st.just(800.0)))
    def test_matches_dense_sum(self, phi, beta):
        # beta = 800: e^{-beta} underflows to 0 in double
        n = phi.size
        d = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        # beta d is exact in the 64-bit significand
        terms = np.exp(-np.longdouble(beta) * d) * phi.astype(np.longdouble)
        ref, mag = terms.sum(axis=1), np.abs(terms).sum(axis=1)
        got = _exp_conv_open(phi, _ExpWeights(n, beta))
        # terms below the normal double range are flushed or subnormal
        assert np.all(np.abs(got - ref) <= 1e-14 * mag + 1e-290)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="the reference needs an extended long double")
    @pytest.mark.parametrize("beta", [0.0123, 0.191, 1.2, 3.0])
    def test_impulse_keeps_relative_accuracy(self, beta):
        # each row of a unit impulse's response is one term, e^{-beta i},
        # so no weight may lose accuracy with the distance it spans, out to
        # the end of the normal range (beta = 0.191 needs c beta exact)
        n = int(700.0 / beta)
        phi = np.zeros(n)
        phi[0] = 1.0
        got = _exp_conv_open(phi, _ExpWeights(n, beta))
        ref = np.exp(-np.longdouble(beta) * np.arange(n))
        assert np.all(np.abs(got - ref) <= 1e-14 * ref)
        assert np.array_equal(_exp_conv_open(phi[::-1], _ExpWeights(n, beta)),
                              got[::-1])

    def test_underflowed_rate_is_identity(self):
        phi = np.array([0.3, -0.7, 1.0, 0.0, -1e-300])
        assert np.array_equal(_exp_conv_open(phi, _ExpWeights(5, 800.0)), phi)

    def test_carry_steps_bounded(self):
        # the doubling recurrence takes at most twelve steps, whatever n beta
        for n in (10, 1000, 100000):
            for beta in np.geomspace(1e-6, 800.0, 60):
                assert len(_ExpWeights(n, beta).carries) <= 12


class TestDenseReference:
    @pytest.mark.parametrize("bc,gamma", [
        (bc, gamma) for bc in ("open", "periodic", "plus", "minus", "neumann",
                               "custom") for gamma in (1e-2, 0.1)
    ] + [("periodic", 1e-4)])
    def test_energy_matches_dense_sum(self, two_atom_params, rng, bc, gamma):
        params = two_atom_params
        n, dx = 40, 1.0 / 8.0
        kwargs = {}
        if bc == "custom":
            n_out = int(np.ceil(46.0 / (gamma * dx)))
            kwargs = dict(out_left=rng.uniform(-0.9, 0.9, n_out),
                          out_right=rng.uniform(-0.9, 0.9, n_out))
        p = GridProfile(L=n * dx, dx=dx, samples=rng.uniform(-0.95, 0.95, n),
                        bc=bc, **kwargs)
        ref = dense_energy(params, p, gamma)
        assert total_energy(params, p, gamma).total == pytest.approx(ref, rel=1e-10)
        energy, _ = _energy_and_gradient(params, p, gamma)
        assert energy == pytest.approx(ref, rel=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(bc=st.sampled_from(["open", "periodic", "plus", "minus",
                               "neumann", "custom"]),
           log_gamma=st.floats(-4.0, -1.0),
           samples=arrays(np.float64, st.integers(2, 48),
                          elements=st.floats(-0.95, 0.95)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_energy_matches_dense_sum_property(self, two_atom_params, bc,
                                               log_gamma, samples, seed):
        params, gamma, dx = two_atom_params, 10.0 ** log_gamma, 1.0 / 8.0
        kwargs = {}
        if bc == "custom":
            n_out = int(np.ceil(46.0 / (gamma * dx)))
            out = np.random.default_rng(seed).uniform(-0.9, 0.9, (2, n_out))
            kwargs = dict(out_left=out[0], out_right=out[1])
        p = GridProfile(L=samples.size * dx, dx=dx, samples=samples, bc=bc,
                        **kwargs)
        ref = dense_energy(params, p, gamma)
        assert total_energy(params, p, gamma).total == pytest.approx(ref, rel=1e-10)
        energy, _ = _energy_and_gradient(params, p, gamma)
        assert energy == pytest.approx(ref, rel=1e-10)

    def test_short_periodic_box(self, params, rng):
        p = random_profile(rng, n=6, dx=1.0 / 8.0, bc="periodic")
        ref = dense_energy(params, p, 2e-2)
        assert total_energy(params, p, 2e-2).total == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("gamma", [1e-4, 1e-7])
    def test_uniform_torus_small_gamma(self, params, gamma):
        # the midpoint sum of a uniform profile is m^2 x coth(x) per length,
        # x = gamma dx / 2; it needs 1 - rho formed as -expm1(-gamma dx)
        m, dx = params.m_beta, 1.0 / 64.0
        p = GridProfile.constant(m, L=16.0, dx=dx, bc="periodic")
        x = 0.5 * gamma * dx
        energy, _ = _energy_and_gradient(params, p, gamma)
        assert energy == pytest.approx(p.L * m * m * x / np.tanh(x), rel=1e-12)


class TestHessianProduct:
    """The descent expands the quadratic part along its steps; the expansion
    must be the fresh evaluation at the displaced samples."""

    @settings(max_examples=80, deadline=None)
    @given(bc=st.sampled_from(["open", "periodic", "plus", "minus",
                               "neumann", "custom"]),
           log_gamma=st.floats(-3.0, -1.0),
           n=st.integers(2, 64),
           direction=st.sampled_from(["random", "one", "ray"]),
           log_size=st.floats(-6.0, 0.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_expansion_matches_fresh_evaluation(self, two_atom_params, bc,
                                                log_gamma, n, direction,
                                                log_size, seed):
        params, gamma, dx = two_atom_params, 10.0 ** log_gamma, 1.0 / 8.0
        rng = np.random.default_rng(seed)
        kwargs = {}
        if bc == "custom":
            n_out = int(np.ceil(46.0 / (gamma * dx)))
            out = rng.uniform(-0.9, 0.9, (2, n_out))
            kwargs = dict(out_left=out[0], out_right=out[1])
        p = GridProfile(L=n * dx, dx=dx, samples=rng.uniform(-1.0, 1.0, n),
                        bc=bc, **kwargs)
        # a random direction, the mean-slice direction 1, or a step -t g + lam
        delta = {"random": rng.normal(size=n), "one": np.ones(n),
                 "ray": rng.normal(size=n) + rng.normal()}[direction]
        delta *= 10.0 ** log_size
        form = _quadratic_form(params, gamma, n, dx, bc)
        outside = form.outside(p)
        q, gq = form.quadratic(p.samples, outside)
        hd = form.hessian(delta)
        fresh_q, fresh_gq = form.quadratic(p.samples + delta, outside)
        terms = [q, dx * float(gq @ delta), 0.5 * dx * float(delta @ hd)]
        scale = sum(abs(t) for t in terms) + abs(fresh_q)
        assert abs(math.fsum(terms) - fresh_q) <= 1e-12 * scale
        gscale = np.max(np.abs(gq)) + np.max(np.abs(hd)) + np.max(np.abs(fresh_gq))
        assert np.max(np.abs(gq + hd - fresh_gq)) <= 1e-12 * gscale


class TestOneOperator:
    """K is the whole quadratic part of every bc and fixed outside data one
    linear term, against the earlier form that added the cross terms with
    the outside data on the side (``quadratic_form_reference``)."""

    @settings(max_examples=150, deadline=None)
    @given(bc=st.sampled_from(["open", "periodic", "plus", "minus",
                               "neumann", "custom"]),
           two_atoms=st.booleans(),
           dx=st.sampled_from([1.0 / 8.0, 1.0 / 16.0]),
           log_gamma=st.floats(-3.0, -1.0), seed=st.integers(0, 2 ** 32 - 1),
           data=st.data())
    def test_matches_cross_terms(self, params, two_atom_params, bc, two_atoms,
                                 dx, log_gamma, seed, data):
        n = data.draw(st.integers(1, int(3 / dx)), label="n")
        model = two_atom_params if two_atoms else params
        gamma = 10.0 ** log_gamma
        rng = np.random.default_rng(seed)
        kwargs = {}
        if bc == "custom":
            n_out = int(np.ceil(46.0 / (gamma * dx)))
            out = rng.uniform(-1.0, 1.0, (2, n_out))
            kwargs = dict(out_left=out[0], out_right=out[1])
        p = GridProfile(L=n * dx, dx=dx, samples=rng.uniform(-1.0, 1.0, n),
                        bc=bc, **kwargs)
        delta = rng.uniform(-1.0, 1.0, n)
        form = _quadratic_form(model, gamma, n, dx, bc)
        ref = reference._QuadraticForm(model, gamma, n, dx, bc)
        q, gq = form.quadratic(p.samples, form.outside(p))
        hd = form.hessian(delta)
        ref_q, ref_gq = ref.quadratic(p.samples, p)
        ref_hd = ref.hessian(delta)
        if bc in ("open", "periodic"):
            # no cross terms: the same operations in the same order
            assert q == ref_q
            assert np.array_equal(gq, ref_gq) and np.array_equal(hd, ref_hd)
            return
        # with samples and outside data in [-1, 1], a sample's terms of gq
        # (exchange pairs, in-domain and outside exponential sums, per end
        # the reflected rank-two form) add up to at most
        scale = 4.0 * dx * form.jband.sum() + sum(
            pref * 8.0 / -np.expm1(-b * dx) for _, pref, b in form.atoms)
        assert np.max(np.abs(gq - ref_gq)) <= 1e-14 * scale
        assert np.max(np.abs(hd - ref_hd)) <= 1e-14 * scale
        assert abs(q - ref_q) <= 1e-14 * dx * n * scale

    @settings(max_examples=60, deadline=None)
    @given(bc=st.sampled_from(["plus", "minus", "custom"]),
           dx=st.sampled_from([1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0]),
           below=st.booleans(), data=st.data())
    def test_fixed_degree_is_full(self, params, bc, dx, below, data):
        # every exchange pair across an end sits on its in-sample's diagonal,
        # whether the box is shorter or longer than the exchange range
        r = params.kernel.band(dx).size
        n = data.draw(st.integers(1, r) if below else st.integers(r + 1, 4 * r),
                      label="n")
        form = _quadratic_form(params, 0.1, n, dx, bc)
        full = 2.0 * form.jband.sum()
        assert np.all(np.abs(form.degree - full) <= 1e-14 * full)

    def test_custom_descent_builds_outside_once(self, two_atom_params, rng,
                                                monkeypatch):
        params, n, dx, gamma = two_atom_params, 256, 1.0 / 16.0, 1e-2
        n_out = int(np.ceil(46.0 / (gamma * dx)))
        init = GridProfile(L=n * dx, dx=dx, samples=rng.uniform(-1, 1, n),
                           bc="custom", out_left=rng.uniform(-0.9, 0.9, n_out),
                           out_right=rng.uniform(-0.9, 0.9, n_out))
        calls = []
        outside = _QuadraticForm.outside

        def counted(form, profile):
            calls.append(profile)
            return outside(form, profile)

        monkeypatch.setattr(_QuadraticForm, "outside", counted)
        res = minimize_energy(params, init, gamma,
                              MinimizeOptions(max_iters=60, grad_tol=1e-9))
        # the start and every clipped candidate applied K afresh
        assert len(calls) == 1 and res.applications > res.iterations
        monkeypatch.undo()
        assert res.energy == pytest.approx(
            total_energy(params, res.profile, gamma).total, rel=1e-12)


class TestStepClosedForms:
    """Cell integrals of exp(-b|x-y|) as b w -> 0, against Taylor series."""

    @pytest.mark.parametrize("bw", [1e-3, 1e-5, 1e-7])
    def test_one_cell(self, bw):
        b, w = 0.5, bw / 0.5
        # (2/b^2)(e^{-x} - 1 + x), x = bw
        series_minus = 2.0 * w * w * math.fsum(
            (-bw) ** k / math.factorial(k + 2) for k in range(8))
        assert _self_integrals(b, np.array([w]))[0] == pytest.approx(
            series_minus, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("gamma", [1e-2, 1e-6, 1e-9])
    def test_constant_on_torus(self, params, gamma):
        # the periodized kernel integrates to 2/(gamma alpha) over a period:
        # (gamma/2) m^2 lam L 2/gamma = m^2 L for one unit-rate atom
        m, L = 0.9, 3.0
        step = StepProfile.from_pieces([(1.0, m), (L - 1.0, m)])
        assert step_dipole_energy(params, step, gamma, bc="periodic") == (
            pytest.approx(m * m * L, rel=1e-13, abs=0.0))


_ATOMS = st.one_of(
    st.floats(0.5, 4.0).map(lambda a: ((1.0, a),)),
    st.tuples(st.floats(0.1, 0.9), st.floats(0.5, 4.0),
              st.floats(0.5, 4.0)).map(
        lambda t: ((t[0], t[1]), (1.0 - t[0], t[2]))))


class TestStepDipole:
    """The O(pieces) step dipole against the dense cell-pair matrix it
    replaced (``dense_pair_integral``), and on profiles too long for it."""

    @settings(max_examples=200, deadline=None)
    @given(pieces=st.lists(st.tuples(
               st.floats(math.log(0.02), math.log(60.0)).map(math.exp),
               st.floats(-1.0, 1.0)), min_size=1, max_size=60),
           gamma=st.floats(math.log(1e-4), math.log(0.5)).map(math.exp),
           atoms=_ATOMS, bc=st.sampled_from(["open", "periodic"]))
    def test_matches_dense_matrix(self, pieces, gamma, atoms, bc):
        params = ModelParams.create(beta=2.0, gamma=gamma,
                                    measure=KacMeasure(atoms=atoms))
        step = StepProfile.from_pieces(pieces)
        # signed profiles cancel; the scale is the same energy with |sigma|,
        # and below the smallest normal float rounding is absolute
        scale = dense_step_dipole_energy(
            params, StepProfile.from_pieces([(w, abs(v)) for w, v in pieces]),
            gamma, bc=bc)
        got = step_dipole_energy(params, step, gamma, bc=bc)
        assert abs(got - dense_step_dipole_energy(params, step, gamma, bc=bc)
                   ) <= max(1e-14 * scale, np.finfo(float).tiny)

    @pytest.mark.parametrize("bc", ["open", "periodic"])
    def test_twenty_thousand_pieces(self, two_atom_params, bc):
        # the dense matrix would need 3.2 GB per atom here. A constant cell
        # cut into 20,000 pieces has a closed form per atom b: open
        # (2/b^2)(e^{-bL} - 1 + bL), periodic 2L/b; a signed profile on the
        # torus is invariant under a rotation of its pieces
        rng = np.random.default_rng(13)
        widths = rng.uniform(0.05, 2.0, 20_000)
        edges = np.append(0.0, np.cumsum(widths))
        m, gamma, L = 0.9, 1e-3, edges[-1]
        const = StepProfile(breakpoints=edges, values=np.full(widths.size, m))
        want = 0.0
        for w_k, a_k in two_atom_params.measure.atoms:
            b = gamma * a_k
            want += w_k * (2.0 * L / b if bc == "periodic" else
                           2.0 / b / b * (math.expm1(-b * L) + b * L))
        want *= 0.5 * gamma * m * m
        assert step_dipole_energy(two_atom_params, const, gamma, bc=bc) == (
            pytest.approx(want, rel=1e-11))
        values = rng.choice([-1.0, 1.0], widths.size) * rng.uniform(
            0.8, 1.0, widths.size)
        step = StepProfile(breakpoints=edges, values=values)
        got = step_dipole_energy(two_atom_params, step, gamma, bc=bc)
        assert math.isfinite(got) and got > 0.0
        if bc == "periodic":
            k = 7_000
            rotated = StepProfile(
                breakpoints=np.append(0.0, np.cumsum(np.roll(widths, -k))),
                values=np.roll(values, -k))
            scale = step_dipole_energy(two_atom_params, const, gamma, bc=bc)
            assert abs(step_dipole_energy(two_atom_params, rotated, gamma,
                                          bc=bc) - got) <= 1e-11 * scale


class TestTildeEnergy:
    def test_constant_dipole_only(self, params_tau):
        s = StepProfile.from_pieces([(40.0, params_tau.m_beta)])
        val, parts = tilde_energy(params_tau, s, 1e-2, breakdown=True)
        assert parts["well"] == pytest.approx(0.0, abs=1e-15)
        assert parts["surface"] == 0.0
        assert val == pytest.approx(parts["dipole"])

    def test_surface_counts_jumps(self, params_tau):
        m = params_tau.m_beta
        s = StepProfile.from_pieces([(4.0, (-1.0) ** k * m) for k in range(11)])
        _, parts = tilde_energy(params_tau, s, 1e-2, breakdown=True)
        assert parts["surface"] == pytest.approx(10 * params_tau.tau)

    def test_well_term(self, params_tau):
        from froth1d.model import eval_tilde_F
        m = 0.9 * params_tau.m_beta
        s = StepProfile.from_pieces([(5.0, m)])
        _, parts = tilde_energy(params_tau, s, 1e-2, breakdown=True)
        assert parts["well"] == pytest.approx(5.0 * eval_tilde_F(m, params_tau),
                                              rel=1e-12)

    def test_sharp_energy_agrees(self, params_tau):
        # on +-m_beta profiles the well term vanishes, so tilde_energy is the
        # sharp-interface energy tau N_jumps + dipole, even under a sign flip
        m = params_tau.m_beta
        s = StepProfile.from_pieces([(6.0, m), (7.0, -m), (5.0, m)])
        sharp = 2 * params_tau.tau + step_dipole_energy(params_tau, s, 1e-2)
        assert tilde_energy(params_tau, s, 1e-2) == pytest.approx(
            sharp, rel=1e-14)
        s_flip = StepProfile.from_pieces([(6.0, -m), (7.0, m), (5.0, -m)])
        assert tilde_energy(params_tau, s_flip, 1e-2) == pytest.approx(
            tilde_energy(params_tau, s, 1e-2), rel=1e-14)
