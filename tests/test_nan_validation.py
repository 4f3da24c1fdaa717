"""NaN is rejected wherever a number is validated.

A comparison such as ``x <= 0`` or ``np.any(np.abs(x) > 1 + 1e-12)`` is
False for NaN, so a check written that way lets NaN through; each check is
written so that NaN fails it, as ``model._check_domain`` does.
"""

import math

import numpy as np
import pytest

from froth1d.cli import main
from froth1d.errors import DomainError, InvariantError, ValidationError
from froth1d.minimize import minimize_with_mean_constraint
from froth1d.model import KacMeasure, ModelParams, ShortRangeKernel, _QuarticBump
from froth1d.profiles import GridProfile, StepProfile, load_profile
from froth1d.sharp import energy_per_length

NAN = math.nan


def _nan_profile_file(tmp_path):
    path = tmp_path / "nan.profile"
    path.write_text("L 1.0\ndx 0.25\nbc open\n0.1\nnan\n0.3\n0.4\n")
    return path


SITES = [
    ("measure weight", ValidationError,
     lambda p, tmp: KacMeasure(atoms=((NAN, 1.0),))),
    ("measure weights of two atoms", ValidationError,
     lambda p, tmp: KacMeasure(atoms=((0.5, 1.0), (NAN, 2.0)))),
    ("measure rate", ValidationError,
     lambda p, tmp: KacMeasure(atoms=((1.0, NAN),))),
    ("measure lambda", ValidationError,
     lambda p, tmp: KacMeasure(atoms=((1.0, 1.0),), lam=NAN)),
    ("default quartic J0_hat", ValidationError,
     lambda p, tmp: ShortRangeKernel.default_quartic(NAN)),
    ("kernel J0_hat", ValidationError,
     lambda p, tmp: ShortRangeKernel(evaluator=_QuarticBump(1.0), j0_hat=NAN)),
    ("beta", ValidationError, lambda p, tmp: ModelParams.create(beta=NAN)),
    ("tau", ValidationError, lambda p, tmp: p.with_tau(NAN)),
    ("grid samples", InvariantError,
     lambda p, tmp: GridProfile(L=1.0, dx=0.25, samples=[0.1, NAN, 0.3, 0.4])),
    ("grid dx", ValidationError,
     lambda p, tmp: GridProfile(L=1.0, dx=NAN, samples=[0.1] * 4)),
    ("grid L", ValidationError,
     lambda p, tmp: GridProfile(L=NAN, dx=0.25, samples=[0.1] * 4)),
    ("grid outside data", InvariantError,
     lambda p, tmp: GridProfile(L=1.0, dx=0.25, samples=[0.1] * 4,
                                bc="custom", out_left=[0.1, NAN],
                                out_right=[0.1, 0.2])),
    ("step values", InvariantError,
     lambda p, tmp: StepProfile(breakpoints=[0.0, 1.0, 2.0],
                                values=[0.5, NAN])),
    ("step breakpoint", ValidationError,
     lambda p, tmp: StepProfile(breakpoints=[0.0, NAN, 2.0],
                                values=[0.5, -0.5])),
    ("step first breakpoint", ValidationError,
     lambda p, tmp: StepProfile(breakpoints=[NAN, 2.0], values=[0.5])),
    ("profile file sample", InvariantError,
     lambda p, tmp: load_profile(_nan_profile_file(tmp))),
    ("e(h) at a float h", DomainError,
     lambda p, tmp: energy_per_length(p, NAN)),
    ("e(h) on an array", DomainError,
     lambda p, tmp: energy_per_length(p, np.array([10.0, NAN]))),
    ("mean of the mean-constrained descent", ValidationError,
     lambda p, tmp: minimize_with_mean_constraint(p, 4.0, NAN)),
]


@pytest.mark.parametrize("site,error,build", SITES,
                         ids=[site for site, _, _ in SITES])
def test_nan_is_rejected(params_tau, tmp_path, site, error, build):
    with pytest.raises(error):
        build(params_tau, tmp_path)


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
