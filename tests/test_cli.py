import json
from pathlib import Path

import numpy as np
import pytest

from froth1d import cli
from froth1d.cli import main
from froth1d.model import ModelParams
from froth1d.profiles import GridProfile, load_profile, save_profile
from froth1d.sharp import optimal_h


def write_config(path: Path, **overrides) -> Path:
    config = {
        "model": {"beta": 2.0, "J0_hat": 1.0, "lambda": 1.0,
                  "measure": [{"weight": 1.0, "alpha": 1.0}], "gamma": 0.01},
        "seed": 7,
        "instanton": {"half_width": 30.0, "dx": 0.015625, "tol": 1e-10},
    }
    config.update(overrides)
    file = path / "config.json"
    file.write_text(json.dumps(config))
    return file


class TestInstantonCommand:
    def test_artifacts(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["instanton", "--config", str(cfg), "--out", str(out)]) == 0
        prof, headers = load_profile(out / "instanton.profile")
        assert headers["tau"] > 0
        payload = json.loads((out / "instanton.json").read_text())
        assert float(payload["tau"]) > 0
        assert float(payload["residual"]) <= 1e-10

    def test_too_small_half_width_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, instanton={"half_width": 1.0})
        assert main(["instanton", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1

    def test_missing_beta(self, tmp_path, capsys):
        cfg = write_config(tmp_path, model={
            "J0_hat": 1.0, "lambda": 1.0,
            "measure": [{"weight": 1.0, "alpha": 1.0}], "gamma": 0.01})
        assert main(["instanton", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1
        assert "/model/beta" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides,pointer", [
        ({"instanton": {"dx": "fine"}}, "/instanton/dx"),
        ({"model": {"beta": 2.0, "J0_hat": 1.0, "lambda": 1.0, "gamma": 0.01,
                    "measure": [{"weight": "a", "alpha": 1.0}]}},
         "/model/measure/0/weight"),
        ({"seed": "seven"}, "/seed"),
        ({"coarsegrain": {"delta": "x"}}, "/coarsegrain/delta"),
        ({"eh": {"span_low": True}}, "/eh/span_low"),
        ({"minimize": {"n_starts": 2.5}}, "/minimize/n_starts"),
        ({"verify": {"n_step_profiles": False}}, "/verify/n_step_profiles"),
    ])
    def test_wrongly_typed_value_rejected(self, tmp_path, capsys, overrides,
                                          pointer):
        # every subcommand checks the whole config before it computes
        cfg = write_config(tmp_path, **overrides)
        assert main(["instanton", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1
        assert pointer in capsys.readouterr().err

    @pytest.mark.parametrize("command,overrides,pointer", [
        ("eh-curve", {"eh": {"span_low": float("nan")}}, "/eh/span_low"),
        ("coarse-grain", {"coarsegrain": {"profile": 5}},
         "/coarsegrain/profile"),
        ("verify", {"verify": {"fast": "false"}}, "/verify/fast"),
        ("instanton", {"instanton": {"tol": float("inf")}}, "/instanton/tol"),
        ("instanton", {"model": {"beta": 2.0, "J0_hat": 1.0,
                                 "lambda": float("inf"), "gamma": 0.01,
                                 "measure": [{"weight": 1.0, "alpha": 1.0}]}},
         "/model/lambda"),
        ("instanton", {"model": {"beta": 2.0, "J0_hat": 1.0, "lambda": 1.0,
                                 "gamma": 0.01, "measure": [
                                     {"weight": 1.0, "alpha": float("nan")}]}},
         "/model/measure/0/alpha"),
        ("minimize", {"minimize": {"bc": 1}}, "/minimize/bc"),
        ("minimize", {"minimize": {"init": None}}, "/minimize/init"),
        ("report", {"output_dir": 3}, "/output_dir"),
    ])
    def test_non_finite_or_mistyped_value_rejected(self, tmp_path, capsys,
                                                   command, overrides,
                                                   pointer):
        # JSON's NaN and Infinity, and a wrong type for a string or bool
        # key, exit 1 with the pointer before the subcommand computes
        cfg = write_config(tmp_path, **overrides)
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert pointer in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, bogus={"x": 1})
        assert main(["instanton", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1
        assert "/bogus" in capsys.readouterr().err


class TestEhCurveCommand:
    def test_artifacts_and_ratio(self, tmp_path):
        cfg = write_config(tmp_path, model={
            "beta": 2.0, "J0_hat": 1.0, "lambda": 1.0,
            "measure": [{"weight": 1.0, "alpha": 1.0}], "gamma": 1e-3})
        out = tmp_path / "out"
        assert main(["eh-curve", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "hstar.json").read_text())
        ratio = float(payload["h_star"]) / float(payload["h_star_asym"])
        assert 0.9 <= ratio <= 1.1
        rows = (out / "eh.csv").read_text().strip().split("\n")
        assert rows[0].startswith("# config_sha256")
        assert rows[1] == "h,e_h,e_h_minus_estar"
        assert len(rows) == 202

    def test_gamma_out_of_range(self, tmp_path):
        cfg = write_config(tmp_path, model={
            "beta": 2.0, "J0_hat": 1.0, "lambda": 1.0,
            "measure": [{"weight": 1.0, "alpha": 1.0}], "gamma": 0.3})
        assert main(["eh-curve", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1

    def test_nonpositive_tau_rejected(self, tmp_path):
        cfg = write_config(tmp_path, model={
            "beta": 2.0, "J0_hat": 1.0, "lambda": 1.0,
            "measure": [{"weight": 1.0, "alpha": 1.0}], "gamma": 0.01,
            "tau": -0.5})
        assert main(["eh-curve", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1


class TestOutOfRangeValues:
    @pytest.mark.parametrize("command,overrides,where", [
        ("instanton", {"instanton": {"dx": 0}}, "dx"),
        ("instanton", {"instanton": {"dx": -0.015625}}, "dx"),
        ("eh-curve", {"eh": {"n_samples": 0}}, "n_samples"),
        ("minimize", {"minimize": {"dx": 0}}, "/minimize/dx"),
        ("minimize", {"minimize": {"L": -5}}, "/minimize/L"),
        ("minimize", {"minimize": {"L_over_h_star": 0}},
         "/minimize/L_over_h_star"),
        # positive, but under half a sample of dx = 1/16: these minimized a
        # one-sample torus and exited 0
        ("minimize", {"minimize": {"L": 0.01}}, "/minimize/L"),
        ("minimize", {"minimize": {"L_over_h_star": 0.001}},
         "/minimize/L_over_h_star"),
        # a zero span_low died in np.geomspace, a negative one warned first,
        # and a decreasing span exited 0 with the curve sampled backwards
        ("eh-curve", {"eh": {"span_low": 0}}, "/eh/span_low"),
        ("eh-curve", {"eh": {"span_low": -1}}, "/eh/span_low"),
        ("eh-curve", {"eh": {"span_low": 60, "span_high": 50}},
         "/eh/span_low"),
        ("eh-curve", {"eh": {"span_high": 0.01}}, "/eh/span_high"),
        # the instanton solver has no damping
        ("instanton", {"instanton": {"damping": 0.25}}, "/instanton/damping"),
        # a misspelt init ran random starts and exited 0; a misspelt bc died
        # without a pointer, and custom, which no config can give outside
        # data, died in the energy
        ("minimize", {"minimize": {"init": "trail"}}, "/minimize/init"),
        ("minimize", {"minimize": {"bc": "perodic"}}, "/minimize/bc"),
        ("minimize", {"minimize": {"bc": "custom"}}, "/minimize/bc"),
        # an empty corpus passed both corpus bounds and exited 0
        ("verify", {"verify": {"n_step_profiles": 0}}, "n_step_profiles"),
        ("verify", {"verify": {"n_step_profiles": -1}}, "n_step_profiles"),
    ])
    def test_rejected(self, tmp_path, capsys, command, overrides, where):
        # these died with ZeroDivisionError or ValueError tracebacks, and a
        # nonpositive L minimized a one-sample domain and exited 0
        model = {"beta": 2.0, "J0_hat": 1.0, "lambda": 1.0, "gamma": 0.01,
                 "measure": [{"weight": 1.0, "alpha": 1.0}],
                 "tau": 0.19762754872186078}
        cfg = write_config(tmp_path, model=model, **overrides)
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and where in err

    @pytest.mark.parametrize("command", ["minimize", "verify"])
    @pytest.mark.parametrize("flag", [True, False])
    def test_negative_seed_rejected(self, tmp_path, capsys, command, flag):
        # random starts died with an OverflowError traceback in restart_rng
        cfg = write_config(tmp_path, minimize={"n_starts": 2},
                           **({} if flag else {"seed": -1}))
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
        assert main(argv + (["--seed", "-1"] if flag else [])) == 1
        assert "error: seed must be an integer" in capsys.readouterr().err


class TestPipelineCommands:
    def test_minimize_coarse_grain_report(self, tmp_path):
        cfg = write_config(tmp_path, minimize={
            "L_over_h_star": 3.0, "bc": "periodic", "dx": 0.125,
            "n_starts": 1, "max_iters": 800, "grad_tol": 1e-4,
            "init": "trial"})
        out = tmp_path / "out"
        assert main(["minimize", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "minimized.profile").exists()
        # one trace row for each iteration 0..iterations of minimize.json
        iterations = json.loads((out / "minimize.json").read_text())["iterations"]
        rows = [line for line in (out / "trace.csv").read_text().splitlines()
                if not line.startswith("#")][1:]
        assert [int(row.split(",")[0]) for row in rows] == list(
            range(iterations + 1))
        assert main(["coarse-grain", "--config", str(cfg),
                     "--out", str(out)]) == 0
        payload = json.loads((out / "coarsegrain.json").read_text())
        assert payload["certificate"]["pass"]
        assert payload["trace"]
        assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert float(rep["good_measure"]) >= 0.0
        assert (out / "histogram.csv").exists()

    def test_explicit_length_needs_no_h_star(self, tmp_path):
        # gamma 0.3 has no h* (optimal_h takes gamma < 0.2), which random
        # starts on an explicit L do not use
        cfg = write_config(tmp_path, model={
            "beta": 2.0, "J0_hat": 1.0, "lambda": 1.0,
            "measure": [{"weight": 1.0, "alpha": 1.0}], "gamma": 0.3},
            minimize={"L": 20.0, "n_starts": 1, "max_iters": 50})
        out = tmp_path / "out"
        assert main(["minimize", "--config", str(cfg), "--out", str(out)]) == 0
        assert load_profile(out / "minimized.profile")[0].L == 20.0
        assert main(["coarse-grain", "--config", str(cfg),
                     "--out", str(out)]) == 0

    def test_minimize_reuses_saved_instanton(self, tmp_path, monkeypatch):
        # non-default solver settings: a solve that ignored them would give
        # another trial train
        cfg = write_config(
            tmp_path,
            instanton={"half_width": 30.0, "dx": 0.015625, "tol": 1e-11,
                       "max_sweeps": 20000},
            minimize={"L_over_h_star": 2.0, "bc": "periodic", "dx": 0.125,
                      "n_starts": 1, "max_iters": 20, "init": "trial"})
        solved, saved = tmp_path / "solved", tmp_path / "saved"
        assert main(["minimize", "--config", str(cfg),
                     "--out", str(solved)]) == 0
        assert main(["instanton", "--config", str(cfg),
                     "--out", str(saved)]) == 0

        def no_solve(*args, **kwargs):
            raise AssertionError("minimize solved the instanton again")

        monkeypatch.setattr(cli, "solve_instanton", no_solve)
        assert main(["minimize", "--config", str(cfg),
                     "--out", str(saved)]) == 0
        assert ((saved / "minimized.profile").read_bytes()
                == (solved / "minimized.profile").read_bytes())

    @pytest.mark.parametrize("command,artifacts", [
        ("eh-curve", ("hstar.json", "eh.csv")),
        ("minimize", ("minimize.json", "minimized.profile", "trace.csv")),
    ])
    def test_instanton_of_another_config_is_not_reused(self, tmp_path,
                                                       monkeypatch, command,
                                                       artifacts):
        # a beta-2 instanton in --out: a beta-1.5 run there must solve its
        # own and write what it writes into a fresh directory
        minimize = {"L_over_h_star": 2.0, "bc": "periodic", "dx": 0.125,
                    "n_starts": 1, "max_iters": 20, "init": "trial"}
        (tmp_path / "b2").mkdir()
        (tmp_path / "b15").mkdir()
        beta2 = write_config(tmp_path / "b2", minimize=minimize)
        beta15 = write_config(tmp_path / "b15", minimize=minimize, model={
            "beta": 1.5, "J0_hat": 1.0, "lambda": 1.0,
            "measure": [{"weight": 1.0, "alpha": 1.0}], "gamma": 0.01})
        stale, fresh = tmp_path / "stale", tmp_path / "fresh"
        assert main(["instanton", "--config", str(beta2),
                     "--out", str(stale)]) == 0
        for out in (stale, fresh):
            assert main([command, "--config", str(beta15),
                         "--out", str(out)]) == 0
        for name in artifacts:
            assert (stale / name).read_bytes() == (fresh / name).read_bytes()
        # the config that wrote the instanton still reuses it
        def no_solve(*args, **kwargs):
            raise AssertionError(f"{command} solved the instanton again")

        monkeypatch.setattr(cli, "solve_instanton", no_solve)
        assert main([command, "--config", str(beta2),
                     "--out", str(stale)]) == 0

    _SHORT_DESCENT = {"L_over_h_star": 2.0, "bc": "periodic", "dx": 0.125,
                      "n_starts": 1, "max_iters": 20, "init": "trial"}

    def _minimized(self, tmp_path):
        """A config, and an output directory where minimize ran on it."""
        cfg = write_config(tmp_path, minimize=dict(self._SHORT_DESCENT))
        out = tmp_path / "out"
        assert main(["minimize", "--config", str(cfg), "--out", str(out)]) == 0
        return json.loads(cfg.read_text()), out

    @pytest.mark.parametrize("section, key, value", [
        ("model", "beta", 1.5), ("minimize", "max_iters", 21),
        ("instanton", "tol", 1e-11), (None, "seed", 8)])
    def test_minimized_profile_of_other_settings_is_refused(
            self, tmp_path, capsys, section, key, value):
        # coarse-grain and report read minimized.profile from --out only if
        # minimize wrote it for the same model, instanton and minimize
        # settings and seed: a beta-2 profile read as beta 1.5's gave E_phi
        # and the certificate of the wrong model
        config, out = self._minimized(tmp_path)
        (config[section] if section else config)[key] = value
        other = tmp_path / "other.json"
        other.write_text(json.dumps(config))
        for command, where in (("coarse-grain", "/coarsegrain/profile"),
                               ("report", "/diagnostics/profile")):
            assert main([command, "--config", str(other),
                         "--out", str(out)]) == 1
            assert f"error: {where}: no input profile" in (
                capsys.readouterr().err)

    def test_minimized_profile_without_its_record_is_refused(self, tmp_path,
                                                             capsys):
        config, out = self._minimized(tmp_path)
        (out / "minimize.json").unlink()
        assert main(["coarse-grain", "--config", str(tmp_path / "config.json"),
                     "--out", str(out)]) == 1
        assert "/coarsegrain/profile: no input profile" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("changes", [
        {}, {"coarsegrain": {"rho": 0.02}, "diagnostics": {"epsilon": 0.05}}])
    def test_minimized_profile_of_the_same_settings_is_reused(
            self, tmp_path, changes):
        # settings minimize does not read leave the profile reusable
        config, out = self._minimized(tmp_path)
        other = tmp_path / "other.json"
        other.write_text(json.dumps(dict(config, **changes)))
        for command in ("coarse-grain", "report"):
            assert main([command, "--config", str(other),
                         "--out", str(out)]) == 0
        sigma, _ = load_profile(out / "sigma.profile")
        minimized, _ = load_profile(out / "minimized.profile")
        assert sigma.L == minimized.L

    @pytest.mark.parametrize("section,value", [
        ("coarsegrain", {"rho": 0.02}), ("minimize", {"max_iters": 21}),
        ("eh", {"n_samples": 50})])
    def test_instanton_of_other_sections_is_reused(self, tmp_path,
                                                   monkeypatch, section,
                                                   value):
        # the instanton depends on the model and instanton sections alone:
        # a config that changes only another section reuses it everywhere
        config, out = self._minimized(tmp_path)
        assert main(["instanton", "--config", str(tmp_path / "config.json"),
                     "--out", str(out)]) == 0
        other = tmp_path / "other.json"
        other.write_text(json.dumps(dict(config, **{
            section: dict(config.get(section, {}), **value)})))

        def no_solve(*args, **kwargs):
            raise AssertionError("the instanton was solved again")

        monkeypatch.setattr(cli, "solve_instanton", no_solve)
        for command in ("eh-curve", "minimize", "coarse-grain", "report"):
            assert main([command, "--config", str(other),
                         "--out", str(out)]) == 0

    @pytest.mark.parametrize("tau", [False, True])
    def test_trial_train_near_critical_beta(self, tmp_path, tau):
        # at beta 1.05 four instanton widths exceed h*: minimize's trial
        # train takes verify's cell of 2 h* (30 on this grid), where its
        # cell of one h* exited 1 with CellTooShort; after instanton, and
        # with tau configured and no instanton saved, alike
        model = {"beta": 1.05, "J0_hat": 1.0, "lambda": 1.0,
                 "measure": [{"weight": 1.0, "alpha": 1.0}], "gamma": 0.01}
        minimize = {"init": "trial", "n_starts": 1}
        first = tmp_path / "instanton"
        cfg = write_config(tmp_path, model=model, minimize=minimize)
        commands = ["instanton", "minimize", "coarse-grain", "report"]
        for command in commands:
            assert main([command, "--config", str(cfg),
                         "--out", str(first)]) == 0
        out = first
        if tau:
            tau_value = float(json.loads(
                (first / "instanton.json").read_text())["tau"])
            cfg = write_config(tmp_path, minimize=minimize,
                               model=dict(model, tau=tau_value))
            out = tmp_path / "tau"
            for command in commands[1:]:
                assert main([command, "--config", str(cfg),
                             "--out", str(out)]) == 0
            assert not (out / "instanton.json").exists()
        # the default L of 8 h* holds four cells of 2 h*
        minimized, _ = load_profile(out / "minimized.profile")
        assert minimized.L == 4 * 30.0
        assert np.array_equal(minimized.samples, load_profile(
            first / "minimized.profile")[0].samples)

    def test_corrupt_profile_is_parse_error(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        bad = tmp_path / "bad.profile"
        bad.write_text("L 1.0\ndx 0.25\nbc open\nnot-a-number\n")
        cfg = write_config(tmp_path, coarsegrain={"profile": str(bad)})
        assert main(["coarse-grain", "--config", str(cfg),
                     "--out", str(out)]) == 1

    def test_non_utf8_profile_is_parse_error(self, tmp_path, capsys):
        # the byte 0xff on the fourth line: exit 1 with the line, no traceback
        bad = tmp_path / "bad.profile"
        bad.write_bytes(b"L 1.0\ndx 0.25\nbc open\n\xff\n0.1\n0.2\n0.3\n")
        cfg = write_config(tmp_path, coarsegrain={"profile": str(bad)})
        assert main(["coarse-grain", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 1
        assert "error: line 4: not UTF-8" in capsys.readouterr().err

    def test_determinism(self, tmp_path):
        # all six subcommands, twice: every artifact byte for byte
        cfg = write_config(tmp_path, verify={"fast": True}, minimize={
            "L": 40.0, "bc": "periodic", "dx": 0.125, "n_starts": 2,
            "max_iters": 150, "grad_tol": 1e-4})
        runs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            for sub in ("instanton", "eh-curve", "minimize", "coarse-grain",
                        "verify", "report"):
                assert main([sub, "--config", str(cfg), "--out", str(out)]) == 0
            runs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert sorted(runs[0]) == [
            "certificates.json", "coarsegrain.json", "eh.csv", "histogram.csv",
            "hstar.json", "instanton.json", "instanton.profile",
            "minimize.json", "minimized.profile", "report.json",
            "sigma.profile", "trace.csv"]
        assert runs[0] == runs[1]


class TestVerifyCommand:
    def test_passes_with_correct_model(self, tmp_path):
        cfg = write_config(tmp_path, verify={"fast": True})
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "certificates.json").read_text())
        assert all(c["pass"] for c in payload["certificates"])
        # fast mode runs two random step profiles through the chessboard bound
        chessboard, = [c for c in payload["certificates"]
                       if c["name"] == "chessboard_lower_bound"]
        assert chessboard["params"]["n_profiles"] == 2

    def test_check_that_cannot_run_fails_with_all_records(self, tmp_path,
                                                          capsys):
        # at gamma 0.1 h* < 10: eh_bounds cannot run; verify still writes
        # all eleven records
        cfg = write_config(tmp_path, verify={"fast": True}, model={
            "beta": 2.0, "J0_hat": 1.0, "lambda": 1.0,
            "measure": [{"weight": 1.0, "alpha": 1.0}], "gamma": 0.1})
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == "certificate failure: eh_bounds\n"
        certs = json.loads((out / "certificates.json").read_text())[
            "certificates"]
        assert len(certs) == 11
        eh, = [c for c in certs if c["name"] == "eh_bounds"]
        assert eh["lhs"] == "nan" and eh["pass"] is False
        assert "h* >= 10" in eh["params"]["error"]

    def test_passes_near_critical_beta(self, tmp_path):
        # at beta 1.05 four instanton widths exceed h*: the trial train
        # takes cells of 2 h* and every certificate is evaluated
        cfg = write_config(tmp_path, verify={"fast": True}, model={
            "beta": 1.05, "J0_hat": 1.0, "lambda": 1.0,
            "measure": [{"weight": 1.0, "alpha": 1.0}], "gamma": 0.01})
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        certs = json.loads((out / "certificates.json").read_text())[
            "certificates"]
        assert len(certs) == 11
        assert not [c["name"] for c in certs if "error" in c["params"]]
        assert certs[-1]["params"]["cell"] == "30"

    def test_wrong_tau_fails_identity(self, tmp_path, capsys):
        # doubled surface tension breaks the cell-energy identity: exit 3
        cfg = write_config(tmp_path, verify={"fast": True}, model={
            "beta": 2.0, "J0_hat": 1.0, "lambda": 1.0,
            "measure": [{"weight": 1.0, "alpha": 1.0}], "gamma": 0.01,
            "tau": 2 * 0.19762754872186078})
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 3
        assert "cell_energy_identity" in capsys.readouterr().err


_MODEL_TAU = {"beta": 2.0, "J0_hat": 1.0, "lambda": 1.0, "gamma": 0.01,
              "measure": [{"weight": 1.0, "alpha": 1.0}],
              "tau": 0.19762754872186078}


class TestConfigErrors:
    @pytest.mark.parametrize("command,text,message", [
        ("instanton", None, "config file not found"),
        ("instanton", '{"model": ', "config is not valid JSON"),
        ("instanton", "[1, 2]", "/: config must be a JSON object"),
        ("instanton", '{"model": {}, "instanton": 3}',
         "/instanton: expected an object"),
        ("instanton", '{"model": {}, "eh": {"bogus": 1}}',
         "/eh/bogus: unknown key"),
        ("instanton", '{"seed": 1}', "/model: missing"),
        ("coarse-grain", json.dumps({"model": _MODEL_TAU}),
         "/coarsegrain/profile: no input profile"),
    ])
    def test_exit_1(self, tmp_path, capsys, command, text, message):
        cfg = tmp_path / "config.json"
        if text is not None:
            cfg.write_text(text)
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_too_few_sweeps_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, instanton={"max_sweeps": 1})
        assert main(["instanton", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("numerical failure: ")


class TestFileFaults:
    """A file the CLI cannot use ends in an ``error:`` line and exit 1, or,
    for a saved artifact that is gone or truncated, in a fresh solve."""

    _SHORT_DESCENT = TestPipelineCommands._SHORT_DESCENT

    @staticmethod
    def _error(capsys, code):
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_instanton_profile_is_solved_again(self, tmp_path):
        cfg = write_config(tmp_path, minimize=dict(self._SHORT_DESCENT))
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert main(["instanton", "--config", str(cfg), "--out", str(out)]) == 0
        (out / "instanton.profile").unlink()
        for where in (out, fresh):
            assert main(["minimize", "--config", str(cfg),
                         "--out", str(where)]) == 0
        assert ((out / "minimized.profile").read_bytes()
                == (fresh / "minimized.profile").read_bytes())

    def test_truncated_instanton_record_is_solved_again(self, tmp_path):
        cfg = write_config(tmp_path)
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert main(["instanton", "--config", str(cfg), "--out", str(out)]) == 0
        record = out / "instanton.json"
        record.write_text(record.read_text()[:40])
        for where in (out, fresh):
            assert main(["eh-curve", "--config", str(cfg),
                         "--out", str(where)]) == 0
        assert ((out / "hstar.json").read_bytes()
                == (fresh / "hstar.json").read_bytes())

    @pytest.mark.parametrize("command,artifacts", [
        ("eh-curve", ("hstar.json", "eh.csv")),
        ("minimize", ("minimize.json", "minimized.profile", "trace.csv"))])
    @pytest.mark.parametrize("field,value", [
        ("tau", None), ("tau", "abc"), ("tau", "nan"), ("tau", "-1"),
        ("tau", True), ("residual", None)])
    def test_instanton_record_without_its_numbers_is_solved_again(
            self, tmp_path, command, artifacts, field, value):
        # a record whose hash matches but whose tau or residual is missing
        # (None here) or no finite number (JSON's true is none), tau no
        # positive one, is not reused: the subcommand writes the bytes of a
        # fresh directory
        cfg = write_config(tmp_path, minimize=dict(self._SHORT_DESCENT))
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert main(["instanton", "--config", str(cfg), "--out", str(out)]) == 0
        record = out / "instanton.json"
        doc = json.loads(record.read_text())
        if value is None:
            del doc[field]
        else:
            doc[field] = value
        record.write_text(json.dumps(doc))
        for where in (out, fresh):
            assert main([command, "--config", str(cfg),
                         "--out", str(where)]) == 0
        for name in artifacts:
            assert (out / name).read_bytes() == (fresh / name).read_bytes()

    @pytest.mark.parametrize("fault", ["line", "number", "flipped"])
    def test_cut_instanton_profile_is_solved_again(self, tmp_path, fault):
        # an instanton.profile cut at a line boundary or mid-number, or one
        # that loads but is no instanton, counts as not saved
        cfg = write_config(tmp_path, minimize=dict(self._SHORT_DESCENT))
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert main(["instanton", "--config", str(cfg), "--out", str(out)]) == 0
        _spoil(out / "instanton.profile", fault)
        for where in (out, fresh):
            assert main(["minimize", "--config", str(cfg),
                         "--out", str(where)]) == 0
        for name in ("minimize.json", "minimized.profile", "trace.csv"):
            assert (out / name).read_bytes() == (fresh / name).read_bytes()

    @pytest.mark.parametrize("fault", ["line", "number", "gone"])
    def test_cut_minimized_profile_is_no_profile(self, tmp_path, capsys,
                                                 fault):
        # next to a reusable minimize.json, a minimized.profile cut short
        # is no input profile, as a missing one is; named in the config,
        # the same file reports its own fault
        cfg = write_config(tmp_path, minimize=dict(self._SHORT_DESCENT))
        out = tmp_path / "out"
        assert main(["minimize", "--config", str(cfg), "--out", str(out)]) == 0
        profile = out / "minimized.profile"
        _spoil(profile, fault)
        for command, where in (("coarse-grain", "/coarsegrain/profile"),
                               ("report", "/diagnostics/profile")):
            assert main([command, "--config", str(cfg),
                         "--out", str(out)]) == 1
            assert f"error: {where}: no input profile" in (
                capsys.readouterr().err)
        named = write_config(tmp_path, minimize=dict(self._SHORT_DESCENT),
                             coarsegrain={"profile": str(profile)})
        assert main(["coarse-grain", "--config", str(named),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no input profile" not in err

    def test_truncated_minimize_record_is_no_profile(self, tmp_path, capsys):
        cfg = write_config(tmp_path, minimize=dict(self._SHORT_DESCENT))
        out = tmp_path / "out"
        assert main(["minimize", "--config", str(cfg), "--out", str(out)]) == 0
        record = out / "minimize.json"
        record.write_text(record.read_text()[:40])
        assert main(["coarse-grain", "--config", str(cfg),
                     "--out", str(out)]) == 1
        assert "error: /coarsegrain/profile: no input profile" in (
            capsys.readouterr().err)

    def test_missing_named_profile(self, tmp_path, capsys):
        cfg = write_config(tmp_path, model=_MODEL_TAU, coarsegrain={
            "profile": str(tmp_path / "absent.profile")})
        self._error(capsys, main(["coarse-grain", "--config", str(cfg),
                                  "--out", str(tmp_path / "out")]))

    def test_profile_naming_a_directory(self, tmp_path, capsys):
        cfg = write_config(tmp_path, model=_MODEL_TAU,
                           diagnostics={"profile": str(tmp_path)})
        self._error(capsys, main(["report", "--config", str(cfg),
                                  "--out", str(tmp_path / "out")]))

    def test_config_naming_a_directory(self, tmp_path, capsys):
        self._error(capsys, main(["instanton", "--config", str(tmp_path),
                                  "--out", str(tmp_path / "out")]))

    def test_out_naming_a_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, model=_MODEL_TAU)
        self._error(capsys, main(["instanton", "--config", str(cfg),
                                  "--out", str(cfg)]))


def _spoil(path: Path, fault: str):
    """Cut the profile file at ``path`` after half its lines ("line"), or
    eight bytes into the next line ("number"); negate its samples
    ("flipped"); or delete it ("gone")."""
    if fault == "gone":
        path.unlink()
    elif fault == "flipped":
        prof, _ = load_profile(path)
        save_profile(GridProfile(L=prof.L, dx=prof.dx, samples=-prof.samples,
                                 bc=prof.bc), path)
    else:
        lines = path.read_text().splitlines(keepends=True)
        half = len(lines) // 2
        path.write_text("".join(lines[:half])
                        + (lines[half][:8] if fault == "number" else ""))


# 2 h* on the default grid of minimize (dx = 1/16)
_TWO_H_STAR = round(2.0 * optimal_h(ModelParams.from_dict(_MODEL_TAU))[0]
                    * 16.0) / 16.0


class _Reached(Exception):
    pass


def _grab(*args, **kwargs):
    raise _Reached(args, kwargs)


# (section, key) -> (value set in the config, subcommand, cli name of the
# library call that reads it, how that call receives it, the value it must
# receive): float keys are set as JSON integers, integer keys as integral
# floats, so the received type shows the cast
SETTING_CASES = {
    ("instanton", "half_width"): (25, "instanton", "solve_instanton",
                                  lambda a, kw: kw["half_width"], 25.0),
    ("instanton", "dx"): (0.03125, "instanton", "solve_instanton",
                          lambda a, kw: kw["dx"], 0.03125),
    ("instanton", "tol"): (1e-11, "instanton", "solve_instanton",
                           lambda a, kw: kw["tol"], 1e-11),
    ("instanton", "max_sweeps"): (4000.0, "instanton", "solve_instanton",
                                  lambda a, kw: kw["max_sweeps"], 4000),
    ("eh", "n_samples"): (50.0, "eh-curve", "eh_curve",
                          lambda a, kw: kw["n_samples"], 50),
    ("eh", "span_low"): (1, "eh-curve", "eh_curve",
                         lambda a, kw: kw["span"][0], 1.0),
    ("eh", "span_high"): (20, "eh-curve", "eh_curve",
                          lambda a, kw: kw["span"][1], 20.0),
    ("minimize", "L"): (40, "minimize", "multistart",
                        lambda a, kw: a[1], 40.0),
    ("minimize", "L_over_h_star"): (2, "minimize", "multistart",
                                    lambda a, kw: a[1], _TWO_H_STAR),
    ("minimize", "bc"): ("open", "minimize", "multistart",
                         lambda a, kw: a[2], "open"),
    ("minimize", "dx"): (0.125, "minimize", "multistart",
                         lambda a, kw: kw["dx"], 0.125),
    ("minimize", "n_starts"): (3.0, "minimize", "multistart",
                               lambda a, kw: a[3], 3),
    ("minimize", "max_iters"): (123.0, "minimize", "multistart",
                                lambda a, kw: a[4].max_iters, 123),
    ("minimize", "grad_tol"): (1e-3, "minimize", "multistart",
                               lambda a, kw: a[4].grad_tol, 1e-3),
    ("minimize", "init"): ("trial", "minimize", "multistart",
                           lambda a, kw: kw["init"] is not None, True),
    ("coarsegrain", "delta"): (0.25, "coarse-grain", "coarse_grain",
                               lambda a, kw: a[2].delta, 0.25),
    ("coarsegrain", "rho"): (0.03, "coarse-grain", "coarse_grain",
                             lambda a, kw: a[2].rho, 0.03),
    ("coarsegrain", "ell_minus"): (0.125, "coarse-grain", "coarse_grain",
                                   lambda a, kw: a[2].ell_minus, 0.125),
    ("coarsegrain", "c0"): (0.06, "coarse-grain", "coarse_grain",
                            lambda a, kw: a[2].c0, 0.06),
    ("coarsegrain", "kappa"): (2, "coarse-grain", "coarse_grain",
                               lambda a, kw: a[2].kappa, 2.0),
    ("coarsegrain", "energy_cutoff_multiplier"): (
        2.5, "coarse-grain", "coarse_grain",
        lambda a, kw: a[2].energy_cutoff_multiplier, 2.5),
    ("coarsegrain", "profile"): ("flat.profile", "coarse-grain",
                                 "coarse_grain", lambda a, kw: a[1].L, 30.0),
    ("diagnostics", "delta0"): (0.2, "report", "good_set",
                                lambda a, kw: kw["delta0"], 0.2),
    ("diagnostics", "delta1"): (0.4, "report", "good_set",
                                lambda a, kw: kw["delta1"], 0.4),
    ("diagnostics", "eps0"): (0.3, "report", "good_set",
                              lambda a, kw: kw["eps0"], 0.3),
    ("diagnostics", "epsilon"): (0.15, "report", "defect_sets",
                                 lambda a, kw: a[2], 0.15),
    ("diagnostics", "epsilon_prime"): (0.12, "report", "defect_sets",
                                       lambda a, kw: a[3], 0.12),
    ("diagnostics", "profile"): ("flat.profile", "report", "good_set",
                                 lambda a, kw: a[1].L, 30.0),
    ("verify", "n_step_profiles"): (5.0, "verify", "run_certificates",
                                    lambda a, kw: kw["n_step_profiles"], 5),
    ("verify", "fast"): (True, "verify", "run_certificates",
                         lambda a, kw: kw["fast"], True),
    (None, "seed"): (11.0, "verify", "run_certificates",
                     lambda a, kw: kw["seed"], 11),
    (None, "output_dir"): ("od", "instanton", "save_profile",
                           lambda a, kw: str(a[1].parent), "od"),
}


def _setting_config(tmp_path, section, key, value):
    """A config that sets ``key`` to ``value``; the flat input profile of
    coarse-grain and report, and the model's tau, are set by default."""
    save_profile(GridProfile.constant(0.9, L=30.0, dx=0.125),
                 tmp_path / "flat.profile")
    config = {"model": dict(_MODEL_TAU),
              "coarsegrain": {"profile": "flat.profile"},
              "diagnostics": {"profile": "flat.profile"}}
    if section is None:
        config[key] = value
    else:
        config.setdefault(section, {})[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


class TestSettingsTable:
    def test_every_setting_has_a_case(self):
        table = {(s, k) for s, keys in cli._SETTINGS.items()
                 if isinstance(keys, dict) for k in keys}
        table |= {(None, k) for k, kind in cli._SETTINGS.items()
                  if not isinstance(kind, dict)}
        assert table == set(SETTING_CASES)

    @pytest.mark.parametrize("section,key", sorted(
        SETTING_CASES, key=lambda sk: (sk[0] or "", sk[1])))
    def test_reaches_its_library_call(self, tmp_path, monkeypatch, section,
                                      key):
        value, command, target, read, expected = SETTING_CASES[section, key]
        monkeypatch.chdir(tmp_path)
        cfg = _setting_config(tmp_path, section, key, value)
        monkeypatch.setattr(cli, target, _grab)
        argv = [command, "--config", str(cfg)]
        with pytest.raises(_Reached) as reached:
            main(argv if key == "output_dir" else argv + ["--out", "o"])
        got = read(*reached.value.args)
        assert got == expected and type(got) is type(expected)

    @pytest.mark.parametrize("section,key", sorted(
        SETTING_CASES, key=lambda sk: (sk[0] or "", sk[1])))
    def test_wrong_type_rejected(self, tmp_path, capsys, section, key):
        value = SETTING_CASES[section, key][0]
        wrong = {bool: "true", str: 1}.get(type(value), "x")
        cfg = _setting_config(tmp_path, section, key, wrong)
        assert main(["instanton", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1
        pointer = f"/{key}" if section is None else f"/{section}/{key}"
        assert f"error: {pointer}: expected " in capsys.readouterr().err
