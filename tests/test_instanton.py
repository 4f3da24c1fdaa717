import numpy as np
import pytest

from froth1d.errors import CellTooShort, FitError, ValidationError
from froth1d.model import ModelParams, solve_m_beta
from froth1d.instanton import (Instanton, build_trial_profile, solve_instanton,
                               surface_tension, tail_rate)
from froth1d.sharp import optimal_h


class TestSolve:
    def test_converges(self, instanton_default):
        inst = instanton_default
        assert inst.residual <= 1e-10
        assert np.max(np.abs(inst.q + inst.q[::-1])) <= 1e-8
        assert abs(inst.q[-1] - inst.m_beta) <= 1e-8
        # antisymmetry forces q(0) = 0: the two central samples straddle zero
        mid = inst.q.size // 2
        assert abs(inst.q[mid] + inst.q[mid - 1]) < 1e-12

    def test_monotone(self, instanton_default):
        assert np.all(np.diff(instanton_default.q) >= -1e-12)

    def test_tau_positive_and_stable(self, params, instanton_default):
        inst40 = solve_instanton(params, half_width=40.0, dx=1.0 / 64.0,
                                 tol=1e-10)
        assert instanton_default.tau > 0
        assert abs(inst40.tau - instanton_default.tau) <= 1e-8

    def test_init_independence(self, params):
        # sign init and tanh init land on the same fixed point
        inst = solve_instanton(params, half_width=20.0, dx=1.0 / 32.0,
                               tol=1e-10)
        n = inst.q.size
        x = inst.x
        q0 = params.m_beta * np.sign(x)
        from froth1d.instanton import _mean_field_sweep
        r = int(round(1.0 / inst.dx))
        jvals = params.kernel(inst.dx * np.arange(-r, r + 1))
        q = q0.copy()
        for _ in range(200):
            qn = _mean_field_sweep(q, params, inst.dx, jvals, params.m_beta)
            qn = 0.5 * (qn - qn[::-1])
            if np.max(np.abs(qn - q)) < 1e-10:
                q = qn
                break
            q = qn
        assert np.max(np.abs(q - inst.q)) < 2e-10

    def test_half_width_guard(self, params):
        with pytest.raises(ValidationError):
            solve_instanton(params, half_width=1.0)

    @pytest.mark.parametrize("dx", [1.0 / 16.0, 1.0 / 32.0])
    @pytest.mark.parametrize("beta", [1.05, 1.2])
    def test_converges_near_critical_beta(self, beta, dx):
        # the plateau is the root m_d of m = tanh(beta dx sum_k J(k dx) m),
        # up to 3.4e-6 below m_beta here; the ends, pulled toward m_beta by
        # the outside data, failed a check against m_beta alone
        params = ModelParams.create(beta=beta, gamma=1e-2)
        inst = solve_instanton(params, dx=dx)
        m_d = solve_m_beta(beta * dx * np.sum(
            params.kernel(dx * np.arange(-1 / dx, 1 / dx + 1))))
        assert inst.residual <= 1e-8 and inst.tau > 0
        # at 2W/3 the tail has decayed and the outside data is far
        assert abs(inst(20.0) - m_d) <= 1e-9 < 1e-8 < params.m_beta - m_d
        assert m_d - 1e-8 <= inst.q[-1] <= params.m_beta

    def test_short_window_near_critical_beta_rejected(self):
        # at beta 1.02 the tail is still 2.7e-4 short of the plateau at
        # W/2 = 10, and the ends fall below it
        params = ModelParams.create(beta=1.02, gamma=1e-2)
        with pytest.raises(ValidationError, match="plateau"):
            solve_instanton(params, half_width=20.0)


class TestSurfaceTension:
    def test_recompute_matches(self, params, instanton_default):
        assert surface_tension(instanton_default, params) == pytest.approx(
            instanton_default.tau, rel=1e-14)

    def test_dx_refinement_second_order(self, params):
        taus = {}
        for dx in (1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0):
            taus[dx] = solve_instanton(params, half_width=20.0, dx=dx,
                                       tol=1e-10).tau
        # quadrature error shrinks by ~4x per halving
        e1 = abs(taus[1 / 16] - taus[1 / 64])
        e2 = abs(taus[1 / 32] - taus[1 / 64])
        assert e2 < e1 / 2.5

    def test_translation_invariance(self, params, instanton_default):
        # shifting the jump point within the window leaves tau unchanged
        inst = instanton_default
        shift = int(round(2.0 / inst.dx))
        q_shift = np.concatenate([np.full(shift, -inst.m_beta),
                                  inst.q[:-shift]])
        from froth1d.profiles import GridProfile
        from froth1d.energy import short_range_energy
        ext = int(round(1.0 / inst.dx))
        padded = np.concatenate([np.full(ext, -inst.m_beta), q_shift,
                                 np.full(ext, inst.m_beta)])
        prof = GridProfile(L=(padded.size) * inst.dx, dx=inst.dx,
                           samples=padded)
        assert short_range_energy(params, prof) == pytest.approx(
            instanton_default.tau, abs=1e-8)


class TestTailRate:
    def test_default_fit(self, instanton_default):
        rate, rms, window = tail_rate(instanton_default)
        assert rate > 0
        assert rms <= 1e-2
        # left/right tails agree by exact antisymmetry of the iterate
        q = instanton_default.q
        assert np.max(np.abs(q + q[::-1])) < 1e-14

    def test_synthetic_rate_two(self, params):
        W, dx = 16.0, 1.0 / 64.0
        x = -W + (np.arange(int(2 * W / dx)) + 0.5) * dx
        m = params.m_beta
        q = np.sign(x) * m * (1.0 - np.exp(-2.0 * np.abs(x)))
        q = 0.5 * (q - q[::-1])
        syn = Instanton(W=W, dx=dx, q=np.clip(q, -m, m), m_beta=m,
                        residual=1e-15)
        rate, rms, _ = tail_rate(syn)
        assert rate == pytest.approx(2.0, abs=1e-3)

    def test_underflow_raises(self, params):
        W, dx = 20.0, 1.0 / 32.0
        x = -W + (np.arange(int(2 * W / dx)) + 0.5) * dx
        m = params.m_beta
        q = np.clip(np.sign(x) * m, -m, m)   # sharp sign profile: no tail at all
        syn = Instanton(W=W, dx=dx, q=q, m_beta=m, residual=1e-15)
        with pytest.raises(FitError):
            tail_rate(syn)


class TestTrialProfile:
    def test_mean_over_period_pair(self, instanton_default):
        h = 24.0
        prof = build_trial_profile(h, 4 * h, instanton_default, bc="periodic")
        n_cell = int(round(h / prof.dx))
        pair = prof.samples[:2 * n_cell]
        assert abs(pair.mean()) <= 1e-12
        assert abs(prof.mean()) <= 1e-12

    def test_alternation(self, instanton_default, params):
        h = 24.0
        prof = build_trial_profile(h, 4 * h, instanton_default)
        n_cell = int(round(h / prof.dx))
        vals = [prof.samples[k * n_cell] for k in range(1, 4)]
        # plateaus at cell boundaries reach +-m_beta and alternate in sign
        for val in vals:
            assert abs(abs(val) - params.m_beta) < 1e-4
        assert np.sign(vals[0]) == -np.sign(vals[1]) == np.sign(vals[2])

    def test_single_jump_limit(self, params, instanton_default):
        # h -> infinity: one jump on [-L/2, L/2] has energy tau
        from froth1d.energy import short_range_energy
        prof = build_trial_profile(60.0, 60.0, instanton_default, bc="open")
        inner = short_range_energy(params, prof)
        assert inner == pytest.approx(instanton_default.tau, abs=1e-6)

    def test_cell_too_short(self, instanton_default):
        with pytest.raises(CellTooShort):
            build_trial_profile(2.0, 8.0, instanton_default)

    @pytest.mark.parametrize("dx", [1.0 / 64.0, 1.0 / 16.0])
    @pytest.mark.parametrize("beta,k", [(2.0, 1), (1.05, 2)])
    def test_trial_cell(self, beta, k, dx):
        # k whole h* cells, as few as span 4 instanton widths (w999): near
        # beta = 1 the instanton widens while h* barely moves
        params = ModelParams.create(beta=beta, gamma=1e-2)
        inst = solve_instanton(params)
        h_star = optimal_h(params.with_tau(inst.tau))[0]
        m = round(h_star / dx)
        cell = inst.trial_cell(h_star, dx)
        assert cell == k * m * dx
        four_widths = 4.0 * inst.width_at(0.999)
        assert k * m * dx >= four_widths > (k - 1) * m * dx
        prof = build_trial_profile(cell, 2 * cell, inst, dx=dx)
        assert prof.L == 2 * cell
        if k > 1:
            with pytest.raises(CellTooShort):
                build_trial_profile((k - 1) * m * dx, 2 * (k - 1) * m * dx,
                                    inst, dx=dx)
