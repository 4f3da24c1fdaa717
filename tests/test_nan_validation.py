"""NaN is rejected wherever a number is validated.

A comparison such as ``x <= 0`` or ``np.any(np.abs(x) > 1 + 1e-12)`` is
False for NaN, so a check written that way lets NaN through; each check is
written so that NaN fails it, as ``model._check_domain`` does. Where a
number must be finite, an infinity fails the same check, and the error is
the package's own, not a bare ``ValueError`` or ``OverflowError`` from
``round``, ``int`` or ``math.log2``.
"""

import math

import numpy as np
import pytest

from froth1d.cli import main
from froth1d.energy import (dipole_energy, energy_gradient,
                            step_dipole_energy, tilde_energy, total_energy)
from froth1d.coarsegrain import CoarseGrainConfig
from froth1d.errors import DomainError, InvariantError, ValidationError
from froth1d.instanton import build_trial_profile, solve_instanton
from froth1d.minimize import (MinimizeOptions, minimize_energy,
                              minimize_with_mean_constraint, multistart)
from froth1d.model import KacMeasure, ModelParams, ShortRangeKernel, _QuarticBump
from froth1d.profiles import (GridProfile, StepProfile, alpha_L, load_profile,
                              regular_partition)
from froth1d.sharp import eh_curve, energy_per_length

NAN = math.nan
INF = math.inf


def _nan_profile_file(tmp_path):
    path = tmp_path / "nan.profile"
    path.write_text("L 1.0\ndx 0.25\nbc open\n0.1\nnan\n0.3\n0.4\n")
    return path


SITES = [
    ("measure weight", ValidationError,
     lambda p, tmp, inst: KacMeasure(atoms=((NAN, 1.0),))),
    ("measure weights of two atoms", ValidationError,
     lambda p, tmp, inst: KacMeasure(atoms=((0.5, 1.0), (NAN, 2.0)))),
    ("measure rate", ValidationError,
     lambda p, tmp, inst: KacMeasure(atoms=((1.0, NAN),))),
    ("measure lambda", ValidationError,
     lambda p, tmp, inst: KacMeasure(atoms=((1.0, 1.0),), lam=NAN)),
    ("measure infinite rate", ValidationError,
     lambda p, tmp, inst: KacMeasure(atoms=((1.0, INF),))),
    ("measure infinite lambda", ValidationError,
     lambda p, tmp, inst: KacMeasure(atoms=((1.0, 1.0),), lam=INF)),
    ("default quartic J0_hat", ValidationError,
     lambda p, tmp, inst: ShortRangeKernel.default_quartic(NAN)),
    ("default quartic infinite J0_hat", ValidationError,
     lambda p, tmp, inst: ShortRangeKernel.default_quartic(INF)),
    ("kernel J0_hat", ValidationError,
     lambda p, tmp, inst: ShortRangeKernel(evaluator=_QuarticBump(1.0), j0_hat=NAN)),
    ("kernel infinite J0_hat", ValidationError,
     lambda p, tmp, inst: ShortRangeKernel(evaluator=_QuarticBump(1.0), j0_hat=INF)),
    ("beta", ValidationError, lambda p, tmp, inst: ModelParams.create(beta=NAN)),
    ("infinite beta", ValidationError,
     lambda p, tmp, inst: ModelParams.create(beta=INF)),
    ("tau", ValidationError, lambda p, tmp, inst: p.with_tau(NAN)),
    ("infinite tau", ValidationError, lambda p, tmp, inst: p.with_tau(INF)),
    ("tau of create", ValidationError,
     lambda p, tmp, inst: ModelParams.create(beta=2.0, tau=NAN)),
    ("negative tau of create", ValidationError,
     lambda p, tmp, inst: ModelParams.create(beta=2.0, tau=-1.0)),
    ("grid samples", InvariantError,
     lambda p, tmp, inst: GridProfile(L=1.0, dx=0.25, samples=[0.1, NAN, 0.3, 0.4])),
    ("grid dx", ValidationError,
     lambda p, tmp, inst: GridProfile(L=1.0, dx=NAN, samples=[0.1] * 4)),
    ("grid L", ValidationError,
     lambda p, tmp, inst: GridProfile(L=NAN, dx=0.25, samples=[0.1] * 4)),
    ("grid infinite L", ValidationError,
     lambda p, tmp, inst: GridProfile(L=INF, dx=0.25, samples=[0.1] * 4)),
    ("constant grid infinite L", ValidationError,
     lambda p, tmp, inst: GridProfile.constant(0.1, L=INF, dx=0.25)),
    ("grid outside data", InvariantError,
     lambda p, tmp, inst: GridProfile(L=1.0, dx=0.25, samples=[0.1] * 4,
                                bc="custom", out_left=[0.1, NAN],
                                out_right=[0.1, 0.2])),
    ("step values", InvariantError,
     lambda p, tmp, inst: StepProfile(breakpoints=[0.0, 1.0, 2.0],
                                values=[0.5, NAN])),
    ("step breakpoint", ValidationError,
     lambda p, tmp, inst: StepProfile(breakpoints=[0.0, NAN, 2.0],
                                values=[0.5, -0.5])),
    ("step first breakpoint", ValidationError,
     lambda p, tmp, inst: StepProfile(breakpoints=[NAN, 2.0], values=[0.5])),
    ("step infinite breakpoint", ValidationError,
     lambda p, tmp, inst: StepProfile(breakpoints=[0.0, 1.0, INF],
                                values=[0.5, -0.5])),
    ("profile file sample", InvariantError,
     lambda p, tmp, inst: load_profile(_nan_profile_file(tmp))),
    ("e(h) at a float h", DomainError,
     lambda p, tmp, inst: energy_per_length(p, NAN)),
    ("e(h) on an array", DomainError,
     lambda p, tmp, inst: energy_per_length(p, np.array([10.0, NAN]))),
    ("e(h) curve of a fractional sample count", ValidationError,
     lambda p, tmp, inst: eh_curve(p, n_samples=1.5)),
    ("e(h) curve of a bool sample count", ValidationError,
     lambda p, tmp, inst: eh_curve(p, n_samples=True)),
    ("mean of the mean-constrained descent", ValidationError,
     lambda p, tmp, inst: minimize_with_mean_constraint(p, 4.0, NAN)),
    ("length of the mean-constrained descent", ValidationError,
     lambda p, tmp, inst: minimize_with_mean_constraint(p, INF, 0.0)),
    ("coarse-graining c0", ValidationError,
     lambda p, tmp, inst: CoarseGrainConfig(c0=NAN)),
    ("coarse-graining infinite c0", ValidationError,
     lambda p, tmp, inst: CoarseGrainConfig(c0=INF)),
    ("coarse-graining kappa", ValidationError,
     lambda p, tmp, inst: CoarseGrainConfig(kappa=NAN)),
    ("coarse-graining cutoff multiplier", ValidationError,
     lambda p, tmp, inst: CoarseGrainConfig(energy_cutoff_multiplier=NAN)),
    ("coarse-graining ell_minus", ValidationError,
     lambda p, tmp, inst: CoarseGrainConfig(ell_minus=NAN)),
    ("coarse-graining infinite ell_minus", ValidationError,
     lambda p, tmp, inst: CoarseGrainConfig(ell_minus=INF)),
    ("coarse-graining zero ell_minus", ValidationError,
     lambda p, tmp, inst: CoarseGrainConfig(ell_minus=0.0)),
    ("coarse-graining negative ell_minus", ValidationError,
     lambda p, tmp, inst: CoarseGrainConfig(ell_minus=-0.25)),
    ("instanton tol", ValidationError,
     lambda p, tmp, inst: solve_instanton(p, tol=NAN)),
    ("instanton half_width", ValidationError,
     lambda p, tmp, inst: solve_instanton(p, half_width=NAN)),
    ("instanton infinite half_width", ValidationError,
     lambda p, tmp, inst: solve_instanton(p, half_width=INF)),
    ("instanton no sweeps", ValidationError,
     lambda p, tmp, inst: solve_instanton(p, max_sweeps=0)),
    ("trial profile h", ValidationError,
     lambda p, tmp, inst: build_trial_profile(NAN, 48.0, inst)),
    ("trial profile infinite L", ValidationError,
     lambda p, tmp, inst: build_trial_profile(24.0, INF, inst)),
    ("trial cell h", ValidationError,
     lambda p, tmp, inst: inst.trial_cell(NAN, 1.0 / 16.0)),
    ("trial cell infinite dx", ValidationError,
     lambda p, tmp, inst: inst.trial_cell(24.0, INF)),
    ("trial cell h under a sample", ValidationError,
     lambda p, tmp, inst: inst.trial_cell(0.05, 1.0 / 16.0)),
    ("multistart L", ValidationError,
     lambda p, tmp, inst: multistart(p, 1e-2, NAN, "open", 1)),
    ("multistart infinite dx", ValidationError,
     lambda p, tmp, inst: multistart(p, 1e-2, 4.0, "open", 1, dx=INF)),
    ("block count L", ValidationError,
     lambda p, tmp, inst: alpha_L(NAN, 0.2, 1e-2)),
    ("block count negative gamma", ValidationError,
     lambda p, tmp, inst: alpha_L(100.0, 0.2, -0.5)),
    ("regular partition delta", ValidationError,
     lambda p, tmp, inst: regular_partition(100.0, NAN, 1e-2)),
]


@pytest.mark.parametrize("site,error,build", SITES,
                         ids=[site for site, _, _ in SITES])
def test_nan_is_rejected(params_tau, instanton_default, tmp_path, site,
                         error, build):
    with pytest.raises(error):
        build(params_tau, tmp_path, instanton_default)


_GRID = GridProfile(L=4.0, dx=0.25, samples=np.linspace(-0.9, 0.9, 16))
_STEP = StepProfile(breakpoints=[0.0, 2.0, 4.0], values=[0.9, -0.9])

# every grid energy, gradient and descent reaches energy._atoms, every step
# energy energy._step_dipoles, and each checks the gamma it is given
GAMMA_SITES = {
    "total_energy": lambda p, g: total_energy(p, _GRID, g),
    "energy_gradient": lambda p, g: energy_gradient(p, _GRID, g),
    "minimize_energy": lambda p, g: minimize_energy(
        p, _GRID, g, MinimizeOptions(max_iters=1)),
    "dipole_energy": lambda p, g: dipole_energy(p, _GRID, g),
    "tilde_energy": lambda p, g: tilde_energy(p, _STEP, g),
    "step_dipole_energy": lambda p, g: step_dipole_energy(p, _STEP, g),
}


@pytest.mark.parametrize("gamma", [NAN, -1e-2, 1.0])
@pytest.mark.parametrize("site", list(GAMMA_SITES))
def test_gamma_outside_the_unit_interval_is_rejected(params_tau, site, gamma):
    # gamma 0 is the short-range functional; a negative gamma is not
    with pytest.raises(ValidationError, match="gamma must lie in"):
        GAMMA_SITES[site](params_tau, gamma)


def test_cli_rejects_a_nan_profile(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(
        '{"model": {"beta": 2.0, "J0_hat": 1.0, "lambda": 1.0, "measure": '
        '[{"weight": 1.0, "alpha": 1.0}], "gamma": 0.01, '
        '"tau": 0.19762754872186078}, "coarsegrain": {"profile": "%s"}}'
        % _nan_profile_file(tmp_path))
    assert main(["coarse-grain", "--config", str(config),
                 "--out", str(tmp_path / "out")]) == 1
    assert "outside [-1, 1]" in capsys.readouterr().err


_MODEL = ('{"beta": 2.0, "J0_hat": 1.0, "lambda": 1.0, "measure": '
          '[{"weight": 1.0, "alpha": 1.0}], "gamma": 0.01, '
          '"tau": 0.19762754872186078}')


@pytest.mark.parametrize("command,section", [
    ("coarse-grain", '"coarsegrain": {"ell_minus": 0, "profile": "%s"}'),
    ("instanton", '"instanton": {"max_sweeps": 0}'),
])
def test_cli_rejects_a_bad_setting_before_running(tmp_path, capsys, command,
                                                  section):
    # a setting that fails validation exits 1 with an error line, not with a
    # traceback or as a numerical failure (exit 2)
    profile = tmp_path / "flat.profile"
    profile.write_text("L 1.0\ndx 0.25\nbc open\n0.1\n0.2\n0.3\n0.4\n")
    config = tmp_path / "config.json"
    config.write_text('{"model": %s, %s}' % (_MODEL, section.replace(
        "%s", str(profile))))
    assert main([command, "--config", str(config),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
