from dataclasses import replace

import numpy as np
import pytest

from froth1d.coarsegrain import CoarseGrainConfig, coarse_grain
from froth1d.diagnostics import (defect_sets, excess_energy_decomposition,
                                 good_set, histogram_csv, l_wrong)
from froth1d.errors import ParameterError, ValidationError
from froth1d.instanton import build_trial_profile
from froth1d.profiles import GridProfile, StepProfile
from froth1d.sharp import energy_per_length, optimal_h


@pytest.fixture(scope="module")
def trial_setup(params_tau, instanton_default):
    h_star, e_star, _, _ = optimal_h(params_tau)
    h = round(h_star / (1.0 / 64.0)) * (1.0 / 64.0)
    prof = build_trial_profile(h, 10 * h, instanton_default, bc="periodic")
    step, _, _ = coarse_grain(params_tau, prof, CoarseGrainConfig())
    return prof, step, h_star, e_star


class TestGoodSet:
    def test_trial_profile_covers_domain(self, params_tau, trial_setup):
        prof, step, h_star, _ = trial_setup
        rep = good_set(params_tau, prof, step)
        assert rep.good_measure >= 0.9 * prof.L
        # complement bound with the 4x desk-scale slack multiplier
        eps0 = rep.params["eps0"]
        bound = 16.0 / params_tau.tau * prof.L * (1e-2) ** (eps0 / 2.0)
        assert rep.complement_measure <= 4.0 * bound
        assert rep.alternation_ok
        signs = [r["sign"] for r in rep.runs]
        assert all(a * b < 0 for a, b in zip(signs, signs[1:]))
        # the run that wraps the torus is one cell, like the others
        lengths = np.array([r["length"] for r in rep.runs])
        assert np.all(np.abs(lengths - h_star) < 0.35 * h_star)

    def test_constant_profile_single_run(self, params_tau):
        p = GridProfile.constant(params_tau.m_beta, L=300.0, dx=1.0 / 8.0)
        step, _, _ = coarse_grain(params_tau, p, CoarseGrainConfig())
        rep = good_set(params_tau, p, step)
        assert len(rep.runs) == 1
        assert rep.good_measure == pytest.approx(p.L)

    def test_zero_profile_empty_good_set(self, params_tau):
        p = GridProfile.constant(0.0, L=300.0, dx=1.0 / 8.0)
        step, _, _ = coarse_grain(params_tau, p, CoarseGrainConfig())
        rep = good_set(params_tau, p, step)
        # sigma of the zero profile alternates on the block scale: every
        # interval is short, so the good set vanishes
        assert rep.good_measure == 0.0
        assert rep.complement_measure == pytest.approx(p.L)

    def test_sigma_phi_on_the_other_domain_rejected(self, params_tau,
                                                    trial_setup):
        # an open sigma_phi on the torus, or a periodic one on an interval,
        # would be read with the seam of the other domain
        prof, step, _, _ = trial_setup
        assert step.periodic
        with pytest.raises(ValidationError, match="must be periodic"):
            good_set(params_tau, prof, replace(step, periodic=False))
        line = replace(prof, bc="open")
        with pytest.raises(ValidationError, match="must be open"):
            good_set(params_tau, line, step)
        good_set(params_tau, line, replace(step, periodic=False))

    def test_parameter_guards(self, params_tau, trial_setup):
        prof, step, _, _ = trial_setup
        with pytest.raises(ParameterError):
            good_set(params_tau, prof, step, delta0=0.3, eps0=0.2)
        with pytest.raises(ParameterError):
            good_set(params_tau, prof, step, delta1=0.7)


class TestTorus:
    def test_wrapped_interval_is_one(self, params_tau, trial_setup):
        prof, step, h_star, e_star = trial_setup
        rep = good_set(params_tau, prof, step)
        h = step.interval_lengths()
        assert len(rep.runs) == h.size == 10
        assert rep.h_lengths.tolist() == h.tolist()
        assert rep.runs[0]["interval"][0] < 0.0
        for length in [r["length"] for r in rep.runs] + h.tolist():
            assert abs(length - h_star) < 0.35 * h_star
        excess, _, per = excess_energy_decomposition(params_tau, step,
                                                     e_star=e_star)
        assert [hj for hj, _ in per] == h.tolist()
        assert excess == pytest.approx(float(np.sum(
            h * (energy_per_length(params_tau, h) - e_star))),
            rel=1e-12)
        assert l_wrong(params_tau, step, h_star, 0.1) == 0.0
        # read as if [0, L) had ends, the wrapped cell is two half cells,
        # each far from h*
        open_excess, _, open_per = excess_energy_decomposition(
            params_tau, replace(step, periodic=False), e_star=e_star)
        assert len(open_per) == 11 and open_excess > 100.0 * excess


class TestDefectSets:
    def test_trial_profile_small_defects(self, params_tau, trial_setup):
        prof, step, h_star, _ = trial_setup
        rep = good_set(params_tau, prof, step)
        x1, x2 = defect_sets(rep, params_tau, epsilon=0.1,
                             epsilon_prime=0.1, h_star=h_star)
        block = rep.block_edges[1] - rep.block_edges[0]
        n_jumps = 10
        assert x1 <= 2.0 * n_jumps * block
        assert x2 <= rep.good_measure

    def test_constant_profile_no_defects(self, params_tau):
        p = GridProfile.constant(params_tau.m_beta, L=300.0, dx=1.0 / 8.0)
        step, _, _ = coarse_grain(params_tau, p, CoarseGrainConfig())
        rep = good_set(params_tau, p, step)
        h_star = optimal_h(params_tau)[0]
        x1, x2 = defect_sets(rep, params_tau, 0.1, 0.1, h_star)
        assert x1 == 0.0
        # the single run has the wrong length (the whole domain)
        assert x2 == pytest.approx(rep.good_measure)

    def test_x1_sums_deviant_interior_blocks(self, params_tau):
        # one run over every block of a flat +m_beta profile: a block whose
        # mean is gamma^epsilon off m_beta counts into X1 unless it ends the
        # run
        p = GridProfile.constant(params_tau.m_beta, L=300.0, dx=1.0 / 8.0)
        step, _, _ = coarse_grain(params_tau, p, CoarseGrainConfig())
        rep = good_set(params_tau, p, step)
        (run,) = rep.runs
        first, last = run["blocks"]
        means = rep.block_means.copy()
        means[[first, first + 2, first + 3, last]] = 0.1
        rep = replace(rep, block_means=means)
        widths = np.diff(rep.block_edges)
        x1, _ = defect_sets(rep, params_tau, 0.1, 0.1,
                            optimal_h(params_tau)[0])
        assert x1 == widths[first + 2] + widths[first + 3] > 0.0

    def test_wrong_period_all_defective(self, params_tau, instanton_default):
        # at desk-scale gamma the window h* gamma^eps' is wide (~0.63 h*), so
        # a clearly wrong period is needed for every run to be flagged
        h_star = optimal_h(params_tau)[0]
        h = round(2.5 * h_star / (1.0 / 64.0)) * (1.0 / 64.0)
        prof = build_trial_profile(h, 8 * h, instanton_default, bc="periodic")
        step, _, _ = coarse_grain(params_tau, prof, CoarseGrainConfig())
        rep = good_set(params_tau, prof, step)
        x1, x2 = defect_sets(rep, params_tau, 0.1, 0.1, h_star)
        # every run has the wrong length, the one that wraps the torus too
        # (its two halves, ~1.25 h* each, would lie inside the window)
        assert x2 == pytest.approx(sum(r["length"] for r in rep.runs))

    def test_parameter_guards(self, params_tau, trial_setup):
        prof, step, h_star, _ = trial_setup
        rep = good_set(params_tau, prof, step)
        with pytest.raises(ParameterError):
            defect_sets(rep, params_tau, epsilon=0.6, epsilon_prime=0.1,
                        h_star=h_star)
        with pytest.raises(ParameterError):
            defect_sets(rep, params_tau, epsilon=0.1, epsilon_prime=0.2,
                        h_star=h_star)


class TestLWrong:
    def test_exact_period_zero(self, params_tau):
        h_star = optimal_h(params_tau)[0]
        m = params_tau.m_beta
        s = StepProfile.from_pieces([(h_star, (-1.0) ** k * m)
                                     for k in range(10)])
        assert l_wrong(params_tau, s, h_star, 0.1) == 0.0

    def test_double_period_everything(self, params_tau):
        h_star = optimal_h(params_tau)[0]
        m = params_tau.m_beta
        s = StepProfile.from_pieces([(2 * h_star, (-1.0) ** k * m)
                                     for k in range(6)])
        assert l_wrong(params_tau, s, h_star, 0.1) == pytest.approx(12 * h_star)

    def test_mixed(self, params_tau):
        h_star = optimal_h(params_tau)[0]
        m = params_tau.m_beta
        pieces = [(h_star, m), (2 * h_star, -m), (h_star, m), (2 * h_star, -m)]
        s = StepProfile.from_pieces(pieces)
        assert l_wrong(params_tau, s, h_star, 0.1) == pytest.approx(4 * h_star)

    def test_gamma_is_the_models(self, params_tau):
        # intervals 8 and 16 about h* = 8: at gamma 1e-2 the window
        # 8 gamma^0.1 = 5.05 flags the 16 alone; a NaN gamma never gets here
        s = StepProfile.from_pieces([(8.0, 0.9), (16.0, -0.9)])
        assert l_wrong(params_tau, s, 8.0, 0.1) == 16.0
        with pytest.raises(ValidationError):
            params_tau.with_gamma(float("nan"))


class TestExcessDecomposition:
    def test_optimal_profile_zero(self, params_tau):
        h_star, e_star, _, _ = optimal_h(params_tau)
        m = params_tau.m_beta
        s = StepProfile.from_pieces([(h_star, (-1.0) ** k * m)
                                     for k in range(12)])
        excess, well, per = excess_energy_decomposition(
            params_tau, s, e_star=e_star)
        assert excess == pytest.approx(0.0, abs=1e-10)
        assert well == pytest.approx(0.0, abs=1e-14)
        assert sum(t for _, t in per) == pytest.approx(excess, abs=1e-10)

    def test_double_period_closed_form(self, params_tau):
        h_star, e_star, _, _ = optimal_h(params_tau)
        m = params_tau.m_beta
        n = 6
        s = StepProfile.from_pieces([(2 * h_star, (-1.0) ** k * m)
                                     for k in range(n)])
        excess, _, _ = excess_energy_decomposition(
            params_tau, s, e_star=e_star)
        L = n * 2 * h_star
        expect = L * (energy_per_length(params_tau, 2 * h_star) - e_star)
        assert excess == pytest.approx(expect, rel=1e-12)

    def test_reduced_modulus_well_term(self, params_tau):
        h_star, e_star, _, _ = optimal_h(params_tau)
        m = params_tau.m_beta
        m_bar = 0.9 * m
        s = StepProfile.from_pieces([(h_star, (-1.0) ** k * m_bar)
                                     for k in range(8)])
        _, well, _ = excess_energy_decomposition(
            params_tau, s, e_star=e_star)
        expect = params_tau.f0 / m ** 2 * (m_bar - m) ** 2 * 8 * h_star
        assert well == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("periodic", [False, True])
    def test_given_e_star_is_the_solved_one(self, params_tau, periodic):
        # e* passed in gives, bit for bit, the numbers of e* solved inside
        _, e_star, _, _ = optimal_h(params_tau)
        m = params_tau.m_beta
        s = StepProfile.from_pieces([(w, (-1.0) ** k * 0.97 * m) for k, w in
                                     enumerate([30.5, 41.25, 27.0, 55.125])],
                                    periodic=periodic)
        given = excess_energy_decomposition(params_tau, s, e_star=e_star)
        assert given == excess_energy_decomposition(params_tau, s)
        assert given[0] > 0.0 and given[1] > 0.0


class TestHistogram:
    def test_csv_shape(self, params_tau, trial_setup):
        prof, step, _, _ = trial_setup
        rep = good_set(params_tau, prof, step)
        csv = histogram_csv(rep)
        lines = csv.strip().split("\n")
        assert lines[0] == "bin_left,bin_right,total_length"
        assert len(lines) == 25
        total = sum(float(l.split(",")[2]) for l in lines[1:])
        assert total == pytest.approx(np.sum(rep.h_lengths), rel=1e-12)
