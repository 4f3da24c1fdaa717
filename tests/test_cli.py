import json
from pathlib import Path

import pytest

from froth1d import cli
from froth1d.cli import main
from froth1d.profiles import load_profile


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

    def test_minimize_reuses_saved_instanton(self, tmp_path, monkeypatch):
        # non-default solver settings: a solve that ignored them would give
        # another trial train
        cfg = write_config(
            tmp_path,
            instanton={"half_width": 30.0, "dx": 0.015625, "tol": 1e-11,
                       "max_sweeps": 20000, "damping": 0.25},
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

    def test_wrong_tau_fails_identity(self, tmp_path, capsys):
        # doubled surface tension breaks the cell-energy identity: exit 3
        cfg = write_config(tmp_path, verify={"fast": True}, model={
            "beta": 2.0, "J0_hat": 1.0, "lambda": 1.0,
            "measure": [{"weight": 1.0, "alpha": 1.0}], "gamma": 0.01,
            "tau": 2 * 0.19762754872186078})
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 3
        assert "cell_energy_identity" in capsys.readouterr().err
