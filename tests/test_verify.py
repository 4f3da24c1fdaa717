import math

import pytest

from froth1d import energy
from froth1d.certificates import fmt17
from froth1d.instanton import solve_instanton
from froth1d.model import ModelParams
from froth1d.sharp import optimal_h
from froth1d.verify import _NEED_H_STAR, run_certificates


def gradient_certificate(certs):
    (cert,) = [c for c in certs if c.name == "gradient_vs_fd"]
    return cert


def test_suite_passes(params):
    certs = run_certificates(params, seed=3, fast=True)
    assert [c.name for c in certs if not c.passed] == []
    assert gradient_certificate(certs).lhs <= 1e-9


@pytest.mark.parametrize("fast", [True, False])
def test_every_verdict_follows_from_its_numbers(params, fast):
    # the two upper bounds record lhs <= rhs, the other nine lhs >= rhs
    certs = run_certificates(params, seed=7, fast=fast)
    assert len(certs) == 11
    for cert in certs:
        upper = cert.name in ("cell_energy_identity", "gradient_vs_fd")
        assert cert.upper == upper
        slack = cert.rhs - cert.lhs if upper else cert.lhs - cert.rhs
        assert cert.slack == slack
        assert cert.passed == (slack >= -cert.tol)
        record = cert.to_dict()
        assert record["slack"] == fmt17(slack)
        assert record["pass"] is cert.passed


@pytest.mark.parametrize("gamma, unevaluated", [
    # h* = 5.2 < 10: no e(h) bound fit (the trial train takes cells of 2 h*)
    (0.1, ("eh_bounds",)),
    # no h* at all: every check that needs it
    (0.5, _NEED_H_STAR),
])
def test_a_check_that_cannot_run_keeps_a_failing_record(params, gamma,
                                                        unevaluated):
    # the suite never raises: all eleven records, in the order of a passing
    # run, those that could not be evaluated with a NaN lhs and the error
    names = [c.name for c in run_certificates(params, seed=7, fast=True)]
    certs = run_certificates(ModelParams.create(beta=2.0, gamma=gamma),
                             seed=7, fast=True)
    assert [c.name for c in certs] == names
    for cert in certs:
        if cert.name in unevaluated:
            assert math.isnan(cert.lhs) and not cert.passed
            assert cert.params["error"]
            assert cert.to_dict()["pass"] is False
        else:
            assert cert.passed and "error" not in cert.params


def test_suite_passes_near_critical_beta():
    # the fast instanton (dx = 1/32) has its plateau 8.3e-8 below m_beta
    # here; a check of its ends against m_beta raised ValidationError
    certs = run_certificates(ModelParams.create(beta=1.2, gamma=1e-2),
                             seed=3, fast=True)
    assert [c.name for c in certs if not c.passed] == []


@pytest.mark.parametrize("fast", [True, False])
@pytest.mark.parametrize("beta, widths", [(1.05, 2), (1.2, 1), (2.0, 1)])
def test_trial_cell_spans_four_instanton_widths(fast, beta, widths):
    # at beta 1.05 the instanton's w999 (6.4) is more than h*/4 (15/4):
    # the trial train's cell is the smallest whole multiple of the grid h*
    # cell that spans 4 w999, and is recorded; elsewhere it is h* itself
    params = ModelParams.create(beta=beta, gamma=1e-2)
    certs = run_certificates(params, seed=7, fast=fast)
    assert [c.name for c in certs if not c.passed] == []
    cert = certs[-1]
    assert cert.name == "coarse_grain_lower_bound"
    inst = solve_instanton(params, half_width=20.0 if fast else 30.0,
                           dx=1.0 / 32.0 if fast else 1.0 / 64.0)
    h_star = optimal_h(params.with_tau(inst.tau))[0]
    h_cell = round(h_star / inst.dx) * inst.dx
    four_widths = 4.0 * inst.width_at(0.999)
    assert (widths - 1) * h_cell < four_widths <= widths * h_cell
    assert cert.params["L"] == pytest.approx((4 if fast else 8) * widths
                                             * h_cell, rel=1e-12)
    if widths == 1:
        assert "cell" not in cert.params
    else:
        assert cert.params["cell"] == pytest.approx(widths * h_cell,
                                                    rel=1e-12)


def test_gradient_certificate_catches_a_fault_energy_and_gradient_share(
        params, monkeypatch):
    # Kac atoms 1% too strong in the cached quadratic form: energy and
    # gradient both see them, so a finite difference of the energy agrees
    # with the gradient; the direct sums read params.measure and do not
    atoms = energy._atoms

    def scaled(*args):
        return [(1.01 * w, 1.01 * pref, b) for w, pref, b in atoms(*args)]

    energy._quadratic_form.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(energy, "_atoms", scaled)
            cert = gradient_certificate(
                run_certificates(params, seed=3, fast=True))
    finally:
        energy._quadratic_form.cache_clear()
    assert not cert.passed
    assert cert.lhs > 1e-6
