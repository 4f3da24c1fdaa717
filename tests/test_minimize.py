import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from direct_oracles import (check_mean_projection, knot_bound,
                            ref_project_mean_box)
from froth1d.energy import total_energy
from froth1d.errors import LineSearchFailure, ValidationError
import froth1d.minimize as minimize_module
from froth1d.minimize import (MinimizeOptions, _mean_slice_grad_norm,
                              _project_mean_box, _projected_grad_norm,
                              minimize_energy, minimize_with_mean_constraint,
                              multistart, restart_rng)
from froth1d.profiles import GridProfile


class TestMinimizeEnergy:
    def test_uniform_minimum_at_gamma_zero(self, params):
        init = GridProfile.constant(params.m_beta, L=16.0, dx=1.0 / 16.0)
        res = minimize_energy(params, init, 0.0,
                              MinimizeOptions(max_iters=50, grad_tol=1e-8))
        assert res.converged
        assert res.iterations <= 2
        assert res.energy == pytest.approx(0.0, abs=1e-12)

    def test_monotone_energy_and_box(self, params, rng):
        n, dx = 256, 1.0 / 16.0
        init = GridProfile(L=n * dx, dx=dx, samples=rng.uniform(-1, 1, n))
        res = minimize_energy(params, init, 1e-2,
                              MinimizeOptions(max_iters=400, grad_tol=1e-9))
        energies = res.trace[:, 1]
        assert np.all(np.diff(energies) <= 1e-12)
        assert np.max(np.abs(res.profile.samples)) <= 1.0

    def test_trial_profile_stays_near_optimal(self, params_tau,
                                              instanton_default):
        gamma = 1e-2
        from froth1d.sharp import optimal_h
        h_star, e_star, _, _ = optimal_h(params_tau, gamma)
        dx = 1.0 / 16.0
        h = round(h_star / dx) * dx
        from froth1d.instanton import build_trial_profile
        init = build_trial_profile(h, 8 * h, instanton_default, bc="periodic",
                                   dx=dx)
        e0 = total_energy(params_tau, init, gamma).total
        res = minimize_energy(params_tau, init, gamma,
                              MinimizeOptions(max_iters=1500, grad_tol=1e-6))
        assert res.energy <= e0 + 1e-12
        assert res.energy / init.L <= 1.02 * e_star

    def test_spin_flip_equivariance(self, params, rng):
        n, dx = 128, 1.0 / 16.0
        samples = rng.uniform(-1, 1, n)
        opts = MinimizeOptions(max_iters=600, grad_tol=1e-7)
        up = minimize_energy(params, GridProfile(L=n * dx, dx=dx,
                                                 samples=samples,
                                                 bc="periodic"), 1e-2, opts)
        dn = minimize_energy(params, GridProfile(L=n * dx, dx=dx,
                                                 samples=-samples,
                                                 bc="periodic"), 1e-2, opts)
        assert dn.energy == pytest.approx(up.energy, abs=1e-9)

    @pytest.mark.parametrize("bc", ["open", "periodic", "plus", "minus",
                                    "neumann", "custom"])
    def test_energy_is_total_energy(self, params, rng, bc):
        n, dx, gamma = 128, 1.0 / 16.0, 1e-2
        kwargs = {}
        if bc == "custom":
            n_out = int(np.ceil(46.0 / (gamma * dx)))
            kwargs = dict(out_left=rng.uniform(-0.9, 0.9, n_out),
                          out_right=rng.uniform(-0.9, 0.9, n_out))
        init = GridProfile(L=n * dx, dx=dx, samples=rng.uniform(-1, 1, n),
                           bc=bc, **kwargs)
        res = minimize_energy(params, init, gamma,
                              MinimizeOptions(max_iters=40, grad_tol=1e-9))
        assert res.energy == pytest.approx(
            total_energy(params, res.profile, gamma).total, rel=1e-12)
        assert np.all(np.diff(res.trace[:, 1]) <= 0.0)

    def test_one_application_per_iteration(self, params, instanton_default):
        # no candidate leaves the box on a relaxing trial train, so every
        # candidate is scored along its step ray and each iteration applies
        # the quadratic form at most once
        from froth1d.instanton import build_trial_profile
        init = build_trial_profile(24.0, 48.0, instanton_default, bc="periodic")
        res = minimize_energy(params, init, 1e-2,
                              MinimizeOptions(max_iters=300, grad_tol=1e-9))
        assert res.applications <= res.iterations + 1
        assert res.evaluations > res.iterations

    @pytest.mark.parametrize("bc", ["custom", "neumann"])
    def test_result_profile_keeps_outside_data(self, params, rng, bc):
        n, dx, gamma = 64, 1.0 / 16.0, 1e-2
        n_out = int(np.ceil(46.0 / (gamma * dx)))
        init = GridProfile(L=n * dx, dx=dx, samples=rng.uniform(-1, 1, n),
                           bc=bc, out_left=rng.uniform(-0.9, 0.9, n_out),
                           out_right=rng.uniform(-0.9, 0.9, n_out))
        res = minimize_energy(params, init, gamma,
                              MinimizeOptions(max_iters=10, grad_tol=1e-9))
        prof = res.profile
        assert isinstance(prof, GridProfile)
        assert prof.bc == bc and prof.n == n and prof.dx == dx
        assert prof.out_left is init.out_left
        assert prof.out_right is init.out_right
        assert not prof.samples.flags.writeable
        assert np.max(np.abs(prof.samples)) <= 1.0
        assert res.energy == pytest.approx(
            total_energy(params, prof, gamma).total, rel=1e-12)


class TestMeanConstraint:
    @pytest.mark.parametrize("mean", [0.96, 0.98, 1.0])
    def test_uniform_minimizer_above_m_beta(self, params, mean):
        res = minimize_with_mean_constraint(
            params, length=20.0, mean=mean, bc="open", gamma=0.0,
            options=MinimizeOptions(max_iters=4000, grad_tol=1e-8))
        prof = res.profile
        assert abs(prof.mean() - mean) < 1e-12
        assert np.max(np.abs(prof.samples - mean)) < 1e-6

    def test_from_random_start(self, params, rng):
        mean = 0.97
        n, dx = 640, 1.0 / 32.0
        init = GridProfile(L=n * dx, dx=dx, samples=rng.uniform(-1, 1, n))
        res = minimize_with_mean_constraint(
            params, length=20.0, mean=mean, bc="open", gamma=0.0,
            options=MinimizeOptions(max_iters=6000, grad_tol=1e-8),
            dx=dx, init=init)
        assert abs(res.profile.mean() - mean) < 1e-12
        assert np.max(np.abs(res.profile.samples - mean)) < 1e-6

    @pytest.mark.parametrize("L,dx,bc", [
        (8.0, 1.0 / 16.0, "periodic"), (20.0, 1.0 / 16.0, "open"),
        (8.0, 1.0 / 32.0, "open"), (20.0, 1.0 / 32.0, "periodic")])
    def test_init_on_another_grid_rejected(self, params, L, dx, bc):
        # an init that disagrees with length, dx or bc is not silently used
        init = GridProfile.constant(0.5, L=L, dx=dx, bc=bc)
        with pytest.raises(ValidationError):
            minimize_with_mean_constraint(
                params, length=20.0, mean=0.5, bc="open", gamma=0.0,
                options=MinimizeOptions(max_iters=10), dx=1.0 / 32.0,
                init=init)

    def test_mean_m_beta_gives_zero_energy(self, params):
        res = minimize_with_mean_constraint(
            params, length=16.0, mean=params.m_beta, bc="open", gamma=0.0,
            options=MinimizeOptions(max_iters=200, grad_tol=1e-9))
        assert res.energy == pytest.approx(0.0, abs=1e-12)

    def test_saturated_mean(self, params):
        res = minimize_with_mean_constraint(
            params, length=8.0, mean=1.0, bc="open", gamma=0.0,
            options=MinimizeOptions(max_iters=50, grad_tol=1e-6))
        assert np.all(res.profile.samples == 1.0)


class TestMeanSliceProjection:
    def test_nearest_point(self):
        # clipping first and then shifting back to the mean gives
        # (0.647, 0.447, -0.253), a feasible point but not the nearest one
        x = _project_mean_box(np.array([-0.1, -0.3, -2.9]), 0.28)[0]
        np.testing.assert_allclose(x, [1.0, 0.84, -1.0], rtol=0, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(y=arrays(np.float64, st.integers(2, 400),
                    elements=st.floats(-3.0, 3.0)),
           mean=st.floats(-1.0, 1.0))
    def test_is_clip_of_one_shift(self, y, mean):
        check_mean_projection(y, mean, *_project_mean_box(y, mean))

    @pytest.mark.parametrize("mean", [1.0, -1.0])
    def test_saturated_mean_is_exact(self, mean):
        # shifting -1.3 by the last knot 1 - (-1.3) lands one ulp below 1
        y = mean * np.array([1.7, -0.6, -1.3, 2.1])
        assert np.all(_project_mean_box(y, mean)[0] == mean)


def stress_input(kind, rng):
    """A (y, mean) pair for the mean-slice projection of one hard kind."""
    n = int(rng.integers(2, 200))
    mean = rng.uniform(-1.0, 1.0)
    if kind == "one_sample":
        return rng.uniform(-3.0, 3.0, 1) * 10.0 ** rng.integers(0, 9), mean
    if kind == "past_one_face":
        side = rng.choice([-1.0, 1.0])
        return side * (1.0 + rng.uniform(1e-3, 3.0, n)), mean
    if kind == "ties":
        return np.round(rng.normal(size=n) * 3.0, 1), mean
    if kind == "none_free_at_first":
        # |y| >= 2 in two equal halves: the first shift is below 1 in size
        half = int(rng.integers(1, 100))
        y = np.concatenate([-2.0 - rng.uniform(0.0, 1.0, half),
                            2.0 + rng.uniform(0.0, 1.0, half)])
        return rng.permutation(y), rng.uniform(-0.5, 0.5)
    if kind == "mean_next_to_a_face":
        return (rng.uniform(-3.0, 3.0, n),
                np.nextafter(rng.choice([-1.0, 1.0]), 0.0))
    if kind == "huge":
        scale = 10.0 ** rng.uniform(0.0, 8.0, n)
        return rng.uniform(-1.0, 1.0, n) * scale, mean
    return rng.normal(size=int(rng.integers(1000, 2501))) * 2.0, mean  # "long"


class TestProjectionStress:
    """Variable fixing on inputs that stress its passes and its rounding:
    each projection ends within n passes, meets the KKT oracle and agrees
    with the knot formula to the bounds of ``direct_oracles``."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", [
        "one_sample", "past_one_face", "ties", "none_free_at_first",
        "mean_next_to_a_face", "huge", "long"])
    def test_kind(self, kind, monkeypatch):
        passes, size = [], []
        overshoots = minimize_module._overshoots

        def counted(z):
            passes[-1] += 1
            assert passes[-1] <= size[-1]       # at most n passes
            return overshoots(z)

        monkeypatch.setattr(minimize_module, "_overshoots", counted)
        rng = np.random.default_rng(sum(map(ord, kind)))
        for _ in range(40):
            y, mean = stress_input(kind, rng)
            if kind == "none_free_at_first":
                assert np.all(np.abs(y + (mean - y.mean())) > 1.0)
            passes.append(0)
            size.append(y.size)
            x, lo, hi = _project_mean_box(y, mean)
            check_mean_projection(y, mean, x, lo, hi)
            assert (np.max(np.abs(x - ref_project_mean_box(y, mean)))
                    <= knot_bound(y.size, y))
        # one sample is shifted to the mean and never clipped; the other
        # kinds are there for the passes
        assert sum(map(bool, passes)) >= (0 if kind == "one_sample" else 30)


class TestMultistart:
    def test_deterministic(self, params):
        opts = MinimizeOptions(max_iters=120, grad_tol=1e-9, seed=31)
        best1, t1 = multistart(params, 1e-2, 16.0, "periodic", 3, opts)
        best2, t2 = multistart(params, 1e-2, 16.0, "periodic", 3, opts)
        assert np.array_equal(best1.profile.samples, best2.profile.samples)
        assert t1 == t2

    def test_single_start_equals_minimize(self, params, instanton_default):
        from froth1d.instanton import build_trial_profile
        init = build_trial_profile(24.0, 48.0, instanton_default, bc="periodic")
        opts = MinimizeOptions(max_iters=60, grad_tol=1e-9, seed=0)
        best, _ = multistart(params.with_tau(instanton_default.tau), 1e-2,
                             init.L, "periodic", 1, opts, dx=init.dx,
                             init=init)
        ref = minimize_energy(params, init, 1e-2, opts)
        assert best.energy == pytest.approx(ref.energy, rel=1e-12)

    def test_annihilation_stage_from_noise(self, params_tau):
        # the coarse stage after the plain descent: energies along the trace
        # never rise, and it ends no higher and with fewer walls than the
        # plain descent from the same start
        gamma, n, dx = 2e-2, 480, 1.0 / 8.0
        p = params_tau.with_gamma(gamma)
        init = GridProfile(L=n * dx, dx=dx, bc="periodic",
                           samples=restart_rng(11, 0).uniform(-1.0, 1.0, n))
        opts = MinimizeOptions(max_iters=300, grad_tol=1e-6)
        best, _ = multistart(p, gamma, init.L, "periodic", 1, opts, dx=dx,
                             init=init)
        ref = minimize_energy(p, init, gamma, opts)

        def walls(samples):
            positive = samples >= 0.0
            return int(np.count_nonzero(positive != np.roll(positive, 1)))

        assert np.all(np.diff(best.trace[:, 1]) <= 0.0)
        assert np.array_equal(best.trace[:, 0], np.arange(best.iterations + 1))
        assert best.energy <= ref.energy
        # the counts cover the plain descent and every relaxation after it
        assert best.evaluations > ref.evaluations
        assert best.applications > ref.applications
        assert walls(best.profile.samples) < walls(ref.profile.samples)

    def test_rng_streams_differ(self):
        a = restart_rng(5, 0).uniform(size=4)
        b = restart_rng(5, 1).uniform(size=4)
        assert not np.allclose(a, b)
        again = restart_rng(5, 0).uniform(size=4)
        assert np.array_equal(a, again)


class TestCarriedEnergy:
    """The descent carries the quadratic part and its gradient from step to
    step instead of evaluating them afresh; over long runs they must not
    drift from the profile they describe."""

    def check(self, params, res, gamma):
        assert res.energy == pytest.approx(
            total_energy(params, res.profile, gamma).total, rel=1e-12)
        assert np.all(np.diff(res.trace[:, 1]) <= 0.0)

    def test_periodic_quench(self, params):
        n, dx, gamma = 256, 1.0 / 8.0, 2e-2
        init = GridProfile(L=n * dx, dx=dx, bc="periodic",
                           samples=restart_rng(3, 0).uniform(-1.0, 1.0, n))
        res = minimize_energy(params, init, gamma,
                              MinimizeOptions(max_iters=3000, grad_tol=1e-9))
        assert res.iterations == 3000
        self.check(params, res, gamma)

    def test_open_mean_slice(self, params):
        n, dx, gamma = 320, 1.0 / 16.0, 1e-2
        init = GridProfile(L=n * dx, dx=dx,
                           samples=restart_rng(5, 0).uniform(-1.0, 1.0, n))
        res = minimize_with_mean_constraint(
            params, n * dx, 0.3, bc="open", gamma=gamma,
            options=MinimizeOptions(max_iters=2000, grad_tol=1e-9), dx=dx,
            init=init)
        assert res.iterations == 2000
        self.check(params, res, gamma)


class TestRoundingStop:
    """A profile stationary to the rounding of E ends the descent without
    converging; a line search that fails while E resolves the decrease it
    asks for still raises."""

    def wave_start(self, params, seed):
        n, dx = 192, 1.0 / 16.0
        x = (np.arange(n) + 0.5) / n
        phi = np.where(x < 0.5, params.m_beta, -params.m_beta)
        phi = phi + np.random.default_rng(seed).uniform(-0.03, 0.03, n)
        return GridProfile(L=n * dx, dx=dx, samples=phi - phi.mean())

    @pytest.mark.parametrize("seed", [0, 2])
    def test_stationary_to_rounding_returns(self, params, seed):
        # the parent raised after 125 iterations (seed 0) or ran all 5000
        # stuck at a residual of 2e-8 (seed 2)
        init = self.wave_start(params, seed)
        res = minimize_with_mean_constraint(
            params, init.L, 0.0, bc="open", gamma=1e-2,
            options=MinimizeOptions(max_iters=5000, grad_tol=1e-12),
            dx=init.dx, init=init)
        assert not res.converged
        assert res.iterations < 5000
        assert res.grad_norm <= 1e-7
        assert np.all(np.diff(res.trace[:, 1]) <= 0.0)
        assert res.energy == pytest.approx(
            total_energy(params, res.profile, 1e-2).total, rel=1e-12)

    def test_uphill_slope_still_raises(self, params, monkeypatch):
        # the well's slope made to point uphill: the decrease asked of the
        # first step is resolvable, so the failed search is a real failure
        finish = minimize_module._finish_slope

        def uphill(diff, s, p):
            return -finish(diff, s, p)

        monkeypatch.setattr(minimize_module, "_finish_slope", uphill)
        init = GridProfile.constant(0.5, L=4.0, dx=1.0 / 16.0)
        with pytest.raises(LineSearchFailure):
            minimize_energy(params, init, 0.0, MinimizeOptions(max_iters=50))
        wave = self.wave_start(params, 0)
        with pytest.raises(LineSearchFailure):
            minimize_with_mean_constraint(
                params, wave.L, 0.0, bc="open", gamma=1e-2,
                options=MinimizeOptions(max_iters=50, grad_tol=1e-12),
                dx=wave.dx, init=wave)


def masked_grad_norm(phi, g, tol=1e-12):
    """Reference: the projected sup-norm with the face masks always built."""
    pg = g.copy()
    pg[(phi >= 1.0 - tol) & (g < 0.0)] = 0.0
    pg[(phi <= -1.0 + tol) & (g > 0.0)] = 0.0
    return float(np.max(np.abs(pg))) if pg.size else 0.0


class TestStationarity:
    @settings(max_examples=200, deadline=None)
    @given(phi=arrays(np.float64, st.integers(1, 60), elements=st.one_of(
               st.floats(-1.0, 1.0), st.sampled_from([1 - 5e-13, -1 + 5e-13]))),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_residuals_match_masked_reference(self, phi, seed):
        # the face-case residuals are the masked ones, also off the faces and
        # with samples within the tolerance of a face but not on it
        g = np.random.default_rng(seed).normal(size=phi.size)
        assert _projected_grad_norm(phi, g) == masked_grad_norm(phi, g)
        free = np.abs(phi) < 1.0 - 1e-12
        mu = float(g[free].mean()) if np.any(free) else float(g.mean())
        assert _mean_slice_grad_norm(phi, g) == masked_grad_norm(phi, g - mu)

    def test_projected_gradient_at_convergence(self, params, rng):
        n, dx = 128, 1.0 / 16.0
        init = GridProfile(L=n * dx, dx=dx,
                           samples=rng.uniform(-0.5, 0.5, n), bc="periodic")
        opts = MinimizeOptions(max_iters=5000, grad_tol=1e-8)
        res = minimize_energy(params, init, 1e-2, opts)
        assert res.converged
        assert res.grad_norm <= 1e-8


class TestOptions:
    @pytest.mark.parametrize("field, value", [
        ("grad_tol", float("nan")), ("grad_tol", float("inf")),
        ("grad_tol", 0.0), ("grad_tol", -1e-6),
        ("max_iters", -1), ("max_iters", True), ("max_iters", False),
        ("max_iters", 2.5), ("max_iters", 10.0), ("max_iters", "10"),
        ("seed", -1), ("seed", np.int64(-3)), ("seed", True), ("seed", 1.5),
        ("seed", "7"), ("seed", 2 ** 64),
    ])
    def test_rejected(self, field, value):
        # nan ran the whole budget; 2.5 died with a TypeError inside range;
        # a negative seed died with an OverflowError in restart_rng
        with pytest.raises(ValidationError, match=field):
            MinimizeOptions(**{field: value})

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 2.0, False])
    def test_restart_rng_rejects_seed(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            restart_rng(seed, 0)

    @pytest.mark.parametrize("n_starts", [0, -1, True, False, 2.5, 1.0, "2"])
    def test_multistart_rejects_n_starts(self, params, n_starts):
        # True ran one start; 2.5 and "2" died with a TypeError in range
        with pytest.raises(ValidationError, match="n_starts"):
            multistart(params, 1e-2, 4.0, "periodic", n_starts,
                       MinimizeOptions(max_iters=1))

    def test_restart_rng_accepts_numpy_seed(self):
        assert restart_rng(np.int64(5), 2).random() == restart_rng(5, 2).random()
        restart_rng(2 ** 64 - 1, 0)

    @pytest.mark.parametrize("max_iters", [0, 1, np.int64(7)])
    def test_accepted(self, params, max_iters):
        init = GridProfile.constant(0.5, L=4.0, dx=1.0 / 16.0)
        res = minimize_energy(params, init, 0.0,
                              MinimizeOptions(max_iters=max_iters, grad_tol=1))
        assert res.iterations <= max_iters
        assert res.trace.shape == (res.iterations + 1, 4)
