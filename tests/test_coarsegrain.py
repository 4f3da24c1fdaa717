import numpy as np
import pytest

from froth1d.coarsegrain import (CoarseGrainConfig, adapted_partition,
                                 classify_blocks, coarse_grain,
                                 find_flat_segment, lower_bound_certificate,
                                 regular_partition, replace_block)
from froth1d.energy import dipole_energy, step_dipole_energy, total_energy
from froth1d.errors import (DomainTooShort, FlatSegmentNotFound,
                            ValidationError)
from froth1d.instanton import build_trial_profile
from froth1d.profiles import BC_TOKENS, GridProfile, alpha_L


@pytest.fixture(scope="module")
def cfg():
    return CoarseGrainConfig()


@pytest.fixture(scope="module")
def trial(instanton_default):
    h = 24.0
    return build_trial_profile(h, 8 * h, instanton_default, bc="periodic")


class TestConfig:
    def test_invariants(self):
        with pytest.raises(ValidationError):
            CoarseGrainConfig(delta=0.4)
        with pytest.raises(ValidationError):
            CoarseGrainConfig(rho=0.06)          # >= delta/4
        with pytest.raises(ValidationError):
            CoarseGrainConfig(ell_minus=0.3)     # not 2^-n

    def test_derived_scales(self, cfg, params):
        gamma = 1e-2
        zeta = cfg.zeta(gamma)
        assert zeta == pytest.approx(0.05 * gamma ** 0.2 * np.log(gamma) ** 2)
        m_bar = cfg.m_bar(params.m_beta, gamma)
        assert m_bar == pytest.approx(params.m_beta - gamma ** 0.1)


class TestRegularPartition:
    def test_exact_multiple(self):
        gamma, delta = 1e-2, 0.2
        part = regular_partition(10.0 * gamma ** -delta, delta, gamma)
        assert part.n_blocks == 10
        assert alpha_L(10.0 * gamma ** -delta, delta, gamma)[0] == (
            pytest.approx(1.0))

    def test_fractional(self):
        gamma, delta = 1e-2, 0.2
        part = regular_partition(10.5 * gamma ** -delta, delta, gamma)
        assert part.n_blocks == 10
        assert alpha_L(10.5 * gamma ** -delta, delta, gamma)[0] == (
            pytest.approx(1.05))

    def test_too_short(self):
        with pytest.raises(DomainTooShort):
            regular_partition(0.9 * (1e-2) ** -0.2, 0.2, 1e-2)


class TestClassify:
    def test_constant_all_low(self, params_tau, cfg):
        p = GridProfile.constant(params_tau.m_beta, L=20.0, dx=1.0 / 16.0)
        part = regular_partition(p.L, cfg.delta, 1e-2).snapped(p.dx)
        labels = classify_blocks(params_tau, p, part)
        assert np.all(labels["low"])
        assert np.max(labels["energy"]) < 1e-12

    def test_dense_wave_all_high(self, params_tau, cfg):
        # period-2 square wave: >~ one jump of cost ~tau per unit length
        n = 640
        dx = 1.0 / 16.0
        x = (np.arange(n) + 0.5) * dx
        p = GridProfile(L=n * dx, dx=dx,
                        samples=params_tau.m_beta * np.sign(np.sin(np.pi * x)))
        part = regular_partition(p.L, cfg.delta, 1e-2).snapped(p.dx)
        labels = classify_blocks(params_tau, p, part)
        assert not np.any(labels["low"])


class TestFlatSegment:
    def test_constant_full_core(self, params, cfg):
        p = GridProfile.constant(params.m_beta, L=20.0, dx=1.0 / 16.0)
        om, (a, b), run = find_flat_segment(params, p, (0.0, 4.0), cfg)
        assert om == 1.0
        assert run >= 4.0 / 2.0 - 2 * cfg.ell_minus   # central half, minus edges
        assert a >= 1.0 - 1e-9 and b <= 3.0 + 1e-9

    def test_zero_profile_not_found(self, params, cfg):
        p = GridProfile.constant(0.0, L=20.0, dx=1.0 / 16.0)
        with pytest.raises(FlatSegmentNotFound):
            find_flat_segment(params, p, (0.0, 4.0), cfg)

    def test_instanton_picks_longer_side(self, params, instanton_default, cfg):
        # block [0, 8] with the interface at 2.5: plus side is longer
        dx = 1.0 / 32.0
        n = int(16 / dx)
        x = (np.arange(n) + 0.5) * dx
        p = GridProfile(L=16.0, dx=dx, samples=instanton_default(x - 2.5))
        om, (a, b), run = find_flat_segment(params, p, (0.0, 8.0), cfg)
        assert om == 1.0
        assert a >= 2.5


class TestReplaceBlock:
    def test_bad_balanced_split(self, params_tau, cfg):
        pieces, tag, _ = replace_block(params_tau, 4.0, 0.0, ("bad", None), cfg)
        assert tag == "1-split"
        (w1, v1), (w2, v2) = pieces
        assert w1 == pytest.approx(2.0) and v1 == pytest.approx(params_tau.m_beta)
        assert v2 == pytest.approx(-params_tau.m_beta)

    def test_bad_constant(self, params_tau, cfg):
        m = params_tau.m_beta - 0.01
        pieces, tag, _ = replace_block(params_tau, 4.0, m, ("bad", None), cfg)
        assert tag == "1-const" and pieces == [(4.0, m)]

    def test_good_opposite_signs_jump(self, params_tau, cfg):
        ell, m = 4.0, 0.3
        pieces, tag, _ = replace_block(params_tau, ell, m,
                                       ("good", (1.0, -1.0)), cfg)
        assert tag == "2a-jump"
        xi = ell * (m + params_tau.m_beta) / (2 * params_tau.m_beta)
        assert pieces[0][0] == pytest.approx(xi)

    def test_good_equal_signs_two_jump(self, params_tau, cfg):
        ell = 4.0
        pieces, tag, _ = replace_block(params_tau, ell, 0.0,
                                       ("good", (-1.0, -1.0)), cfg)
        assert tag == "2b-two-jump"
        assert pieces[0][0] == pytest.approx(ell / 4.0)
        assert pieces[0][1] == pytest.approx(-params_tau.m_beta)
        assert pieces[1][1] == pytest.approx(params_tau.m_beta)

    @pytest.mark.parametrize("kind,data", [
        ("bad", None),
        ("good", (1.0, -1.0)), ("good", (-1.0, 1.0)),
        ("good", (1.0, 1.0)), ("good", (-1.0, -1.0)),
        ("boundary_good", ("left", 1.0)), ("boundary_good", ("left", -1.0)),
        ("boundary_good", ("right", 1.0)), ("boundary_good", ("right", -1.0)),
    ])
    def test_mass_balance_all_cases(self, params_tau, cfg, kind, data, rng):
        for mean in rng.uniform(-0.999, 0.999, 24):
            ell = float(rng.uniform(2.0, 6.0))
            pieces, _, _ = replace_block(params_tau, ell, float(mean),
                                         (kind, data), cfg)
            widths = np.array([w for w, _ in pieces])
            vals = np.array([v for _, v in pieces])
            assert np.sum(widths) == pytest.approx(ell, rel=1e-14)
            assert np.sum(widths * vals) / ell == pytest.approx(float(mean),
                                                                abs=1e-12)
            assert np.max(np.abs(vals)) <= 1.0 + 1e-12

    def test_plateau_overflow_strict(self, params_tau):
        # tiny block, mean forced near 1: the three-interval plateau exceeds
        # 1, so the block falls back to the bad-block rule
        cfg = CoarseGrainConfig(c0=0.05)
        pieces, tag, flags = replace_block(params_tau, 2.0, 0.997,
                                           ("good", (1.0, -1.0)), cfg)
        assert flags.get("demoted") == "plateau>1"
        assert tag == "1-const"
        assert np.max(np.abs([v for _, v in pieces])) <= 1.0 + 1e-12


class TestAdaptedPartition:
    def test_constant_profile_all_good(self, params_tau, cfg):
        p = GridProfile.constant(params_tau.m_beta, L=40.0, dx=1.0 / 16.0)
        adapted = adapted_partition(params_tau, p, cfg)
        kinds = set(adapted.kinds)
        assert kinds <= {"good", "boundary_good"}
        assert all(s == (1.0, 1.0) for k, s in zip(adapted.kinds, adapted.signs)
                   if k == "good")
        w = adapted.partition.widths
        assert np.all(w >= 0.5 * adapted.ell_plus - 1e-9)
        assert np.all(w <= 2.5 * adapted.ell_plus + 1e-9)

    def test_zero_profile_all_bad(self, params_tau, cfg):
        p = GridProfile.constant(0.0, L=40.0, dx=1.0 / 16.0)
        adapted = adapted_partition(params_tau, p, cfg)
        assert set(adapted.kinds) == {"bad"}

    def test_trial_profile_signs(self, params_tau, cfg, trial):
        adapted = adapted_partition(params_tau, trial, cfg)
        mixed = [s for k, s in zip(adapted.kinds, adapted.signs)
                 if k == "good" and s[0] != s[1]]
        # one sign change per jump of the trial profile (8 cells -> 8 zeros)
        assert len(mixed) >= 6


class TestCoarseGrain:
    def test_constant_is_fixed_point(self, params_tau, cfg):
        p = GridProfile.constant(params_tau.m_beta, L=40.0, dx=1.0 / 16.0)
        step, _, _ = coarse_grain(params_tau, p, cfg)
        assert np.max(np.abs(step.values - params_tau.m_beta)) < 1e-12

    def test_mass_balance_per_block(self, params_tau, cfg, trial):
        step, adapted, trace = coarse_grain(params_tau, trial, cfg)
        for (a, b), rec in zip(adapted.partition.blocks(), trace):
            assert step.restrict(a, b).mean() == pytest.approx(rec["mean"],
                                                               abs=1e-12)
        assert step.mean() == pytest.approx(trial.mean(), abs=1e-12)

    @pytest.mark.parametrize("bc", BC_TOKENS)
    def test_sigma_phi_wraps_only_the_torus(self, params_tau, cfg, trial, bc):
        # the one map from a grid's bc to its sigma_phi's domain: fixed or
        # reflected outside data stay with the grid energy
        data = trial.samples[:16] if bc == "custom" else None
        prof = GridProfile(L=trial.L, dx=trial.dx, samples=trial.samples,
                           bc=bc, out_left=data, out_right=data)
        step, _, _ = coarse_grain(params_tau, prof, cfg)
        assert step.periodic is (bc == "periodic")

    def test_trial_intervals_near_h(self, params_tau, cfg, trial):
        step, adapted, _ = coarse_grain(params_tau, trial, cfg)
        lengths = step.interval_lengths()
        # intervals of sigma_phi track the trial period up to O(ell_plus)
        assert np.all(np.abs(lengths - 24.0) <= adapted.ell_plus + 1e-9)

    def test_values_bounded(self, params_tau, cfg, rng):
        n = 1280
        dx = 1.0 / 16.0
        p = GridProfile(L=n * dx, dx=dx, samples=rng.uniform(-1, 1, n))
        step, _, _ = coarse_grain(params_tau, p, cfg)
        assert np.max(np.abs(step.values)) <= 1.0 + 1e-12
        assert step.mean() == pytest.approx(p.mean(), abs=1e-12)

    def test_dipole_stability(self, params_tau, cfg, instanton_default):
        # |V[phi] - V[sigma_phi]| <= C L gamma^{1-delta}, stable in L
        gamma = 1e-2
        ratios = []
        for n_cells in (4, 8):
            prof = build_trial_profile(24.0, 24.0 * n_cells, instanton_default,
                                       bc="open")
            step, _, _ = coarse_grain(params_tau, prof, cfg)
            v_phi = dipole_energy(params_tau, prof)
            v_sig = step_dipole_energy(params_tau, step)
            ratios.append(abs(v_phi - v_sig)
                          / (prof.L * gamma ** (1 - cfg.delta)))
        assert max(ratios) < 10.0
        assert abs(ratios[1] - ratios[0]) <= max(ratios) * 1.0

    def test_idempotent_on_constant_regimes(self, params_tau, cfg):
        # a block-constant profile with means in the constant regimes of the
        # replacement map is reproduced exactly
        c = 0.8
        p = GridProfile.constant(c, L=40.0, dx=1.0 / 16.0)
        step, _, trace = coarse_grain(params_tau, p, cfg)
        assert np.max(np.abs(step.values - c)) < 1e-12
        assert all(t["case"].endswith("const") for t in trace)

    @pytest.mark.parametrize("bc", ["plus", "minus", "neumann"])
    def test_certificate_leaves_out_boundary_term(self, params_tau, cfg,
                                                  instanton_default, bc):
        # sigma_phi lives on [0, L] alone, so E_phi is the in-domain energy:
        # the constant -m_beta box under plus data, boundary term -86, and
        # a trial train under plus or minus data failed by that term alone
        m, h = params_tau.m_beta, 24.0
        for p in (GridProfile.constant(-m, L=64.0, dx=1.0 / 16.0, bc=bc),
                  GridProfile.constant(m, L=64.0, dx=1.0 / 16.0, bc=bc),
                  build_trial_profile(h, 8 * h, instanton_default, bc=bc)):
            cert = lower_bound_certificate(params_tau, p, cfg)
            inside = total_energy(params_tau, GridProfile(
                L=p.L, dx=p.dx, samples=p.samples, bc="open"), 1e-2).total
            assert cert.params["E_phi"] == pytest.approx(inside, rel=1e-14)
            assert cert.passed

    def test_lower_bound_certificate_examples(self, params_tau, cfg, trial):
        cert = lower_bound_certificate(params_tau, trial, cfg)
        assert cert.passed
        p = GridProfile.constant(params_tau.m_beta, L=40.0, dx=1.0 / 16.0)
        cert2 = lower_bound_certificate(params_tau, p, cfg)
        assert cert2.passed
        assert cert2.lhs >= -1e-10
