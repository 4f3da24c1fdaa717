"""Command-line front end.

Subcommands: instanton, eh-curve, minimize, coarse-grain, verify, report.
Exit codes: 0 ok, 1 config/parse error, 2 numerical non-convergence,
3 certificate failure. Every artifact echoes the sha256 of the canonical
configuration, and identical config + seed produce byte-identical files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from .certificates import fmt17
from .coarsegrain import CoarseGrainConfig, _step_certificate, coarse_grain
from .diagnostics import (defect_sets, excess_energy_decomposition, good_set,
                          histogram_csv, l_wrong)
from .energy import total_energy
from .errors import (BracketError, CertificateFailure, Froth1dError,
                     LineSearchFailure, NonConvergence, ParseError,
                     ValidationError)
from .instanton import (Instanton, build_trial_profile, solve_instanton,
                        tail_rate)
from .minimize import MinimizeOptions, multistart
from .model import ModelParams
from .profiles import GridProfile, load_profile, save_profile
from .sharp import check_eh_bounds, eh_curve, optimal_h
from .verify import run_certificates

_SECTION_KEYS = {
    "model": {"beta", "J0_hat", "lambda", "measure", "gamma", "tau"},
    "instanton": {"half_width", "dx", "tol", "max_sweeps", "damping"},
    "eh": {"n_samples", "span_low", "span_high"},
    "minimize": {"L", "L_over_h_star", "bc", "dx", "n_starts", "max_iters",
                 "grad_tol", "init"},
    "coarsegrain": {"delta", "rho", "ell_minus", "c0", "kappa",
                    "energy_cutoff_multiplier", "profile", "C_cert"},
    "diagnostics": {"delta0", "delta1", "eps0", "epsilon", "epsilon_prime",
                    "profile"},
    "verify": {"n_step_profiles", "fast"},
}
_TOP_KEYS = set(_SECTION_KEYS) | {"seed", "output_dir"}
# the seed and every section key but these are finite numbers, and the keys
# in _INTEGER must be integral; these have the given JSON type
_NON_NUMERIC = {"bc": str, "init": str, "profile": str, "fast": bool,
                "output_dir": str}
_INTEGER = {"seed", "max_sweeps", "n_samples", "n_starts", "max_iters",
            "n_step_profiles"}


def _check_value(key: str, value, pointer: str):
    """Reject a value of the wrong JSON type for its key: a string, bool or
    non-finite number (JSON's NaN and Infinity) where a number is read, a
    non-integral number where an integer is."""
    kind = _NON_NUMERIC.get(key)
    if kind is not None:
        if not isinstance(value, kind):
            raise ValidationError("expected a string" if kind is str
                                  else "expected true or false",
                                  pointer=pointer)
    elif (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not math.isfinite(value))
            or (key in _INTEGER and isinstance(value, float)
                and not value.is_integer())):
        raise ValidationError("expected an integer" if key in _INTEGER
                              else "expected a finite number", pointer=pointer)


def _canonical(config: dict) -> str:
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def _config_hash(config: dict) -> str:
    return hashlib.sha256(_canonical(config).encode()).hexdigest()


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"config file not found: {path}")
    except json.JSONDecodeError as err:
        raise ValidationError(f"config is not valid JSON: {err}")
    if not isinstance(doc, dict):
        raise ValidationError("config must be a JSON object", pointer="/")
    for key in doc:
        if key not in _TOP_KEYS:
            raise ValidationError("unknown key", pointer=f"/{key}")
    for section, allowed in _SECTION_KEYS.items():
        if section in doc and section != "model":
            if not isinstance(doc[section], dict):
                raise ValidationError("expected an object", pointer=f"/{section}")
            for key, value in doc[section].items():
                if key not in allowed:
                    raise ValidationError("unknown key",
                                          pointer=f"/{section}/{key}")
                _check_value(key, value, f"/{section}/{key}")
    for key in ("seed", "output_dir"):
        if key in doc:
            _check_value(key, doc[key], f"/{key}")
    if "model" not in doc:
        raise ValidationError("missing", pointer="/model")
    return doc


def _params_from_config(config: dict) -> ModelParams:
    return ModelParams.from_dict(config["model"], pointer="/model")


def _write_json(path: Path, payload: dict, config: dict):
    payload = dict(payload)
    payload["config_sha256"] = _config_hash(config)
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n",
                    encoding="utf-8")


def _csv_header(config: dict) -> str:
    return f"# config_sha256 {_config_hash(config)}\n"


def _solve_instanton(params: ModelParams, config: dict) -> Instanton:
    """The instanton under the config's ``instanton`` settings."""
    sec = config.get("instanton", {})
    return solve_instanton(
        params, half_width=float(sec.get("half_width", 30.0)),
        dx=float(sec.get("dx", 1.0 / 64.0)), tol=float(sec.get("tol", 1e-10)),
        max_sweeps=int(sec.get("max_sweeps", 50000)),
        damping=float(sec.get("damping", 0.0)))


def _tau_params(params: ModelParams, config: dict, out: Path):
    """Params with tau: configured value, or the instanton artifact, or solve."""
    if params.tau is not None:
        return params, None
    art = out / "instanton.json"
    if art.exists():
        tau = float(json.loads(art.read_text())["tau"])
        return params.with_tau(tau), None
    inst = _solve_instanton(params, config)
    return params.with_tau(inst.tau), inst


def cmd_instanton(config: dict, out: Path, seed: int) -> int:
    params = _params_from_config(config)
    inst = _solve_instanton(params, config)
    headers = {"tau": inst.tau}
    payload = {"tau": fmt17(inst.tau), "residual": fmt17(inst.residual),
               "half_width": fmt17(inst.W), "dx": fmt17(inst.dx)}
    try:
        rate, rms, window = tail_rate(inst)
        headers["tail_rate"] = rate
        payload.update({"tail_rate": fmt17(rate), "tail_fit_rms": fmt17(rms),
                        "tail_window": [fmt17(window[0]), fmt17(window[1])]})
    except Froth1dError:
        payload["tail_rate"] = None
    save_profile(inst.to_profile(), out / "instanton.profile",
                 extra_headers=headers,
                 comments=[f"config_sha256 {_config_hash(config)}"])
    _write_json(out / "instanton.json", payload, config)
    return 0


def cmd_eh_curve(config: dict, out: Path, seed: int) -> int:
    params = _params_from_config(config)
    params, _ = _tau_params(params, config, out)
    if params.tau <= 0:
        raise ValidationError("tau must be positive", pointer="/model/tau")
    sec = config.get("eh", {})
    curve = eh_curve(params, n_samples=int(sec.get("n_samples", 200)),
                     span=(float(sec.get("span_low", 0.02)),
                           float(sec.get("span_high", 50.0))))
    lines = [_csv_header(config).rstrip("\n"), "h,e_h,e_h_minus_estar"]
    for h, e in zip(curve.h, curve.e):
        lines.append(f"{fmt17(h)},{fmt17(e)},{fmt17(e - curve.e_star)}")
    (out / "eh.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    bound_cert = check_eh_bounds(params)
    _write_json(out / "hstar.json", {
        "h_star": fmt17(curve.h_star), "e_star": fmt17(curve.e_star),
        "h_star_asym": fmt17(curve.h_star_asym),
        "e_star_asym": fmt17(curve.e_star_asym),
        "gamma": fmt17(curve.gamma), "tau": fmt17(curve.tau),
        "bound_check": bound_cert.to_dict()}, config)
    return 0


def cmd_minimize(config: dict, out: Path, seed: int) -> int:
    sec = config.get("minimize", {})
    for key in ("dx", "L", "L_over_h_star"):
        if key in sec and not sec[key] > 0:
            raise ValidationError("must be positive",
                                  pointer=f"/minimize/{key}")
    options = MinimizeOptions(
        max_iters=int(sec.get("max_iters", 20000)),
        grad_tol=float(sec.get("grad_tol", 1e-5)), seed=seed)
    params = _params_from_config(config)
    params, inst = _tau_params(params, config, out)
    dx = float(sec.get("dx", 1.0 / 16.0))
    bc = str(sec.get("bc", "periodic"))
    h_star, _, _, _ = optimal_h(params)
    key = "L" if "L" in sec else "L_over_h_star"
    L = float(sec["L"]) if key == "L" else float(
        sec.get("L_over_h_star", 8.0)) * h_star
    n = round(L / dx)
    if n == 0:
        raise ValidationError(f"L = {L:.6g} rounds to no sample of dx = "
                              f"{dx:.6g}", pointer=f"/minimize/{key}")
    L = n * dx
    init = None
    if sec.get("init") == "trial":
        if inst is None and "tau" in config["model"]:
            inst = _solve_instanton(params, config)
        elif inst is None:
            # tau came from the instanton artifacts; q round-trips (17 digits)
            prof, _ = load_profile(out / "instanton.profile")
            doc = json.loads((out / "instanton.json").read_text())
            inst = Instanton(W=prof.L / 2.0, dx=prof.dx, q=prof.samples,
                             m_beta=params.m_beta,
                             residual=float(doc["residual"]))
        h_cell = round(h_star / dx) * dx
        n_cells = max(2, int(round(L / h_cell)) // 2 * 2)
        init = build_trial_profile(h_cell, n_cells * h_cell, inst, bc=bc, dx=dx)
        L = init.L
    best, table = multistart(params, params.gamma, L, bc,
                             int(sec.get("n_starts", 8)), options, dx=dx,
                             init=init)
    save_profile(best.profile, out / "minimized.profile",
                 comments=[f"config_sha256 {_config_hash(config)}"])
    rows = [_csv_header(config).rstrip("\n"), "iter,energy,grad_norm,step"]
    for it, e, gn, st in best.trace:
        rows.append(f"{int(it)},{fmt17(e)},{fmt17(gn)},{fmt17(st)}")
    (out / "trace.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    breakdown = total_energy(params, best.profile)
    _write_json(out / "minimize.json", {
        "energy": fmt17(best.energy),
        "energy_per_length": fmt17(best.energy / best.profile.L),
        "grad_norm": fmt17(best.grad_norm),
        "iterations": best.iterations, "converged": best.converged,
        "breakdown": breakdown.to_dict(),
        "table": [{"start": k, "energy": fmt17(e), "grad_norm": fmt17(g),
                   "converged": c} for k, e, g, c in table]}, config)
    return 0


def _profile_for(config: dict, section: str, out: Path) -> GridProfile:
    sec = config.get(section, {})
    if "profile" in sec:
        prof, _ = load_profile(sec["profile"])
        return prof
    candidate = out / "minimized.profile"
    if candidate.exists():
        prof, _ = load_profile(candidate)
        return prof
    raise ValidationError("no input profile: set it in the config or run "
                          "minimize first", pointer=f"/{section}/profile")


def _coarse_grain_config(config: dict) -> CoarseGrainConfig:
    """The config's ``coarsegrain`` section as a CoarseGrainConfig; its
    ``profile`` and ``C_cert`` keys are read where they are used."""
    sec = {k: v for k, v in config.get("coarsegrain", {}).items()
           if k not in ("profile", "C_cert")}
    return CoarseGrainConfig(**sec)


def cmd_coarse_grain(config: dict, out: Path, seed: int) -> int:
    params = _params_from_config(config)
    params, _ = _tau_params(params, config, out)
    profile = _profile_for(config, "coarsegrain", out)
    cfg = _coarse_grain_config(config)
    step, _, trace = coarse_grain(params, profile, cfg)
    save_profile(step.to_grid(profile.dx, bc=profile.bc),
                 out / "sigma.profile",
                 comments=[f"config_sha256 {_config_hash(config)}"])
    cert = _step_certificate(
        params, profile, step, params.gamma, cfg,
        float(config.get("coarsegrain", {}).get("C_cert", 10.0)))
    _write_json(out / "coarsegrain.json", {
        "trace": [{"interval": [fmt17(t["interval"][0]), fmt17(t["interval"][1])],
                   "label": t["label"], "case": t["case"],
                   "mean": fmt17(t["mean"]),
                   "pieces": [[fmt17(w), fmt17(v)] for w, v in t["pieces"]]}
                  for t in trace],
        "certificate": cert.to_dict(),
        "in_K": bool(step.in_K), "m_bar": fmt17(step.m_bar)}, config)
    return 0 if cert.passed else 3


def cmd_verify(config: dict, out: Path, seed: int) -> int:
    params = _params_from_config(config)
    sec = config.get("verify", {})
    certs = run_certificates(params, seed=seed,
                             n_step_profiles=int(sec.get("n_step_profiles", 20)),
                             fast=bool(sec.get("fast", False)))
    _write_json(out / "certificates.json",
                {"certificates": [c.to_dict() for c in certs]}, config)
    failing = [c.name for c in certs if not c.passed]
    if failing:
        print(f"certificate failure: {', '.join(failing)}", file=sys.stderr)
        return 3
    return 0


def cmd_report(config: dict, out: Path, seed: int) -> int:
    params = _params_from_config(config)
    params, _ = _tau_params(params, config, out)
    profile = _profile_for(config, "diagnostics", out)
    sec = config.get("diagnostics", {})
    step, _, _ = coarse_grain(params, profile, _coarse_grain_config(config))
    report = good_set(params, profile, step,
                      delta0=float(sec.get("delta0", 0.25)),
                      delta1=float(sec.get("delta1", 0.45)),
                      eps0=float(sec.get("eps0", 0.28)))
    h_star, e_star, _, _ = optimal_h(params)
    eps = float(sec.get("epsilon", 0.1))
    epsp = float(sec.get("epsilon_prime", 0.1))
    defect_sets(report, params, eps, epsp, h_star)
    report.l_wrong = l_wrong(step, h_star, eps, params.gamma)
    excess, well, _ = excess_energy_decomposition(params, step,
                                                  h_star=h_star, e_star=e_star)
    report.excess = excess
    report.tildeF_integral = well
    _write_json(out / "report.json", report.to_dict(), config)
    (out / "histogram.csv").write_text(
        _csv_header(config) + histogram_csv(report), encoding="utf-8")
    return 0


_COMMANDS = {
    "instanton": cmd_instanton,
    "eh-curve": cmd_eh_curve,
    "minimize": cmd_minimize,
    "coarse-grain": cmd_coarse_grain,
    "verify": cmd_verify,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="froth1d",
        description="Nonlocal free-energy functional: instanton, optimal "
                    "period, minimization, coarse graining and certificates.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        seed = args.seed if args.seed is not None else int(config.get("seed", 0))
        out = Path(args.out if args.out is not None
                   else config.get("output_dir", "."))
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](config, out, seed)
    except (ValidationError, ParseError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (NonConvergence, BracketError, LineSearchFailure) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2
    except CertificateFailure as err:
        print(f"certificate failure: {err}", file=sys.stderr)
        return 3
    except Froth1dError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
