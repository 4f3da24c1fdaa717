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
from dataclasses import fields
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .certificates import fmt17
from .coarsegrain import CoarseGrainConfig, _step_certificate, coarse_grain
from .diagnostics import (defect_sets, excess_energy_decomposition, good_set,
                          histogram_csv, l_wrong)
from .energy import total_energy
from .errors import (BracketError, CertificateFailure, Froth1dError,
                     LineSearchFailure, NonConvergence, ParseError,
                     ValidationError, _check_value)
from .instanton import (Instanton, build_trial_profile, solve_instanton,
                        tail_rate)
from .minimize import MinimizeOptions, multistart
from .model import ModelParams
from .profiles import BC_TOKENS, GridProfile, load_profile, save_profile
from .sharp import check_eh_bounds, eh_curve, optimal_h
from .verify import run_certificates

# every key a config may set and its JSON type: a section maps its keys to
# types, and ``seed`` and ``output_dir`` sit at the top level. The model
# section's keys are checked by ModelParams.from_dict
_SETTINGS = {
    "instanton": {"half_width": float, "dx": float, "tol": float,
                  "max_sweeps": int},
    "eh": {"n_samples": int, "span_low": float, "span_high": float},
    "minimize": {"L": float, "L_over_h_star": float, "bc": str, "dx": float,
                 "n_starts": int, "max_iters": int, "grad_tol": float,
                 "init": str},
    "coarsegrain": {"delta": float, "rho": float, "ell_minus": float,
                    "c0": float, "kappa": float,
                    "energy_cutoff_multiplier": float, "profile": str},
    "diagnostics": {"delta0": float, "delta1": float, "eps0": float,
                    "epsilon": float, "epsilon_prime": float, "profile": str},
    "verify": {"n_step_profiles": int, "fast": bool},
    "seed": int,
    "output_dir": str,
}
# the boundary conditions a config can run: custom needs outside data
_CONFIG_BCS = tuple(bc for bc in BC_TOKENS if bc != "custom")
# each artifact a later subcommand reuses: the inputs it depends on (config
# sections, and "seed", the seed its subcommand ran with), whose hash it
# records as inputs_sha256, the numbers its record holds, each with the
# bound it must exceed, and the profile saved next to it; see ``_saved``
_INPUTS = {"instanton.json": (("model", "instanton"),
                              {"tau": 0.0, "residual": -math.inf},
                              "instanton.profile"),
           "minimize.json": (("model", "instanton", "minimize", "seed"), {},
                             "minimized.profile")}


def _settings(config: dict, section: str, *keys: str) -> dict:
    """The keys the config's ``section`` sets (only ``keys``, if given), each
    cast to its ``_SETTINGS`` type."""
    types = _SETTINGS[section]
    return {key: types[key](value)
            for key, value in config.get(section, {}).items()
            if not keys or key in keys}


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
    _check_value(_SETTINGS, {k: v for k, v in doc.items() if k != "model"}, "")
    if "model" not in doc:
        raise ValidationError("missing", pointer="/model")
    return doc


def _params_from_config(config: dict) -> ModelParams:
    return ModelParams.from_dict(config["model"], pointer="/model")


def _inputs_hash(name: str, config: dict, seed: int) -> str:
    """The hash of the inputs ``_INPUTS`` lists for the artifact ``name``."""
    return _config_hash({part: seed if part == "seed" else config.get(part, {})
                         for part in _INPUTS[name][0]})


def _write_json(path: Path, payload: dict, config: dict):
    payload = dict(payload)
    payload["config_sha256"] = _config_hash(config)
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n",
                    encoding="utf-8")


def _saved(name: str, config: dict, out: Path, seed: int,
           build: Optional[Callable] = None):
    """The numbers ``_INPUTS`` names for the JSON artifact ``name`` in
    ``out`` if it is an object that records the inputs_sha256 of this
    config and seed and holds each number finite and above its bound, and
    with ``build``, ``build(profile, **numbers)`` of its profile; else None.
    So a record saved for other inputs, by a version that recorded no hash,
    or cut short, or a profile that does not load, is never reused."""
    _, bounds, profile = _INPUTS[name]
    try:
        doc = json.loads((out / name).read_text(encoding="utf-8"))
        # via str: JSON's true is no number
        numbers = {key: float(str(doc[key])) for key in bounds}
        if doc["inputs_sha256"] != _inputs_hash(name, config, seed) or not all(
                bounds[key] < x < math.inf for key, x in numbers.items()):
            return None
        return (numbers if build is None
                else build(load_profile(out / profile)[0], **numbers))
    except (OSError, ValueError, LookupError, TypeError, Froth1dError):
        # absent, not JSON or not a profile, a field missing or no number
        return None


def _csv_header(config: dict) -> str:
    return f"# config_sha256 {_config_hash(config)}\n"


def _solve_instanton(params: ModelParams, config: dict) -> Instanton:
    """The instanton under the config's ``instanton`` settings."""
    return solve_instanton(params, **_settings(config, "instanton"))


def _instanton(params: ModelParams, config: dict, out: Path,
               seed: int) -> Instanton:
    """The instanton that ``instanton.json`` and ``instanton.profile`` in
    ``out`` hold if ``_saved`` hands them over (q round-trips: 17 digits),
    else a fresh solve's."""
    return (_saved("instanton.json", config, out, seed,
                   lambda prof, **numbers: Instanton(
                       W=prof.L / 2.0, dx=prof.dx, q=prof.samples,
                       m_beta=params.m_beta, **numbers))
            or _solve_instanton(params, config))


def _tau_params(params: ModelParams, config: dict, out: Path, seed: int,
                inst: Optional[Instanton] = None) -> ModelParams:
    """Params with tau: the configured value, else ``inst``'s, else the one
    the saved ``instanton.json`` holds (see ``_saved``), else a fresh
    solve's."""
    if params.tau is not None:
        return params
    if inst is None:
        saved = _saved("instanton.json", config, out, seed)
        if saved is not None:
            return params.with_tau(saved["tau"])
        inst = _solve_instanton(params, config)
    return params.with_tau(inst.tau)


def cmd_instanton(config: dict, out: Path, seed: int) -> int:
    params = _params_from_config(config)
    inst = _solve_instanton(params, config)
    headers = {"tau": inst.tau}
    payload = {"tau": fmt17(inst.tau), "residual": fmt17(inst.residual),
               "half_width": fmt17(inst.W), "dx": fmt17(inst.dx),
               "inputs_sha256": _inputs_hash("instanton.json", config, seed)}
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
    sec = _settings(config, "eh")
    low, high = sec.get("span_low", 0.02), sec.get("span_high", 50.0)
    if not 0.0 < low < high:
        key = "span_high" if low > 0.0 and "span_low" not in sec else "span_low"
        raise ValidationError("need 0 < span_low < span_high",
                              pointer=f"/eh/{key}")
    params = _params_from_config(config)
    params = _tau_params(params, config, out, seed)
    curve = eh_curve(params, span=(low, high),
                     **_settings(config, "eh", "n_samples"))
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
    sec = _settings(config, "minimize")
    for key in ("dx", "L", "L_over_h_star"):
        if key in sec and not sec[key] > 0:
            raise ValidationError("must be positive",
                                  pointer=f"/minimize/{key}")
    bc = sec.get("bc", "periodic")
    if bc not in _CONFIG_BCS:
        raise ValidationError(f"must be one of {', '.join(_CONFIG_BCS)}",
                              pointer="/minimize/bc")
    if "init" in sec and sec["init"] != "trial":
        raise ValidationError('must be "trial" (or unset, for random starts)',
                              pointer="/minimize/init")
    options = MinimizeOptions(grad_tol=sec.get("grad_tol", 1e-5), seed=seed,
                              **_settings(config, "minimize", "max_iters"))
    params = _params_from_config(config)
    inst = (_instanton(params, config, out, seed)
            if sec.get("init") == "trial" else None)
    params = _tau_params(params, config, out, seed, inst)
    dx = sec.get("dx", 1.0 / 16.0)
    key = "L" if "L" in sec else "L_over_h_star"
    # h* only where it is used: an explicit L with random starts needs none
    # (and gamma >= 0.2 has none)
    h_star = optimal_h(params)[0] if key != "L" or inst is not None else None
    L = sec["L"] if key == "L" else sec.get("L_over_h_star", 8.0) * h_star
    n = round(L / dx)
    if n == 0:
        raise ValidationError(f"L = {L:.6g} rounds to no sample of dx = "
                              f"{dx:.6g}", pointer=f"/minimize/{key}")
    L = n * dx
    init = None
    if inst is not None:
        # the cell verify's trial train takes: whole h* cells that span 4
        # instanton widths
        cell = inst.trial_cell(h_star, dx)
        n_cells = max(2, int(round(L / cell)) // 2 * 2)
        init = build_trial_profile(cell, n_cells * cell, inst, bc=bc, dx=dx)
        L = init.L
    best, table = multistart(params, params.gamma, L, bc,
                             sec.get("n_starts", 8), options, dx=dx, init=init)
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
        "inputs_sha256": _inputs_hash("minimize.json", config, seed),
        "table": [{"start": k, "energy": fmt17(e), "grad_norm": fmt17(g),
                   "converged": c} for k, e, g, c in table]}, config)
    return 0


def _profile_for(config: dict, section: str, out: Path,
                 seed: int) -> GridProfile:
    """The ``section``'s input profile: the one its ``profile`` key names,
    else ``minimized.profile`` in ``out`` if ``_saved`` hands it over with
    its ``minimize.json``; a profile that minimize wrote for other settings
    is never reused."""
    sec = config.get(section, {})
    prof = (load_profile(sec["profile"])[0] if "profile" in sec else
            _saved("minimize.json", config, out, seed, lambda prof: prof))
    if prof is None:
        raise ValidationError("no input profile: set it in the config, or "
                              "run minimize with this model, instanton and "
                              "minimize settings and seed",
                              pointer=f"/{section}/profile")
    return prof


def _coarse_grain_config(config: dict) -> CoarseGrainConfig:
    """The config's ``coarsegrain`` section as a CoarseGrainConfig; its
    ``profile`` key is read by ``_profile_for``."""
    return CoarseGrainConfig(**_settings(
        config, "coarsegrain", *(f.name for f in fields(CoarseGrainConfig))))


def cmd_coarse_grain(config: dict, out: Path, seed: int) -> int:
    params = _params_from_config(config)
    params = _tau_params(params, config, out, seed)
    profile = _profile_for(config, "coarsegrain", out, seed)
    cfg = _coarse_grain_config(config)
    step, _, trace = coarse_grain(params, profile, cfg)
    save_profile(step.to_grid(profile.dx, bc=profile.bc),
                 out / "sigma.profile",
                 comments=[f"config_sha256 {_config_hash(config)}"])
    cert = _step_certificate(params, profile, step, params.gamma, cfg)
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
    certs = run_certificates(params, seed=seed, **_settings(config, "verify"))
    _write_json(out / "certificates.json",
                {"certificates": [c.to_dict() for c in certs]}, config)
    failing = [c.name for c in certs if not c.passed]
    if failing:
        print(f"certificate failure: {', '.join(failing)}", file=sys.stderr)
        return 3
    return 0


def cmd_report(config: dict, out: Path, seed: int) -> int:
    params = _params_from_config(config)
    params = _tau_params(params, config, out, seed)
    profile = _profile_for(config, "diagnostics", out, seed)
    sec = _settings(config, "diagnostics")
    step, _, _ = coarse_grain(params, profile, _coarse_grain_config(config))
    report = good_set(params, profile, step, **_settings(
        config, "diagnostics", "delta0", "delta1", "eps0"))
    h_star, e_star, _, _ = optimal_h(params)
    eps, epsp = sec.get("epsilon", 0.1), sec.get("epsilon_prime", 0.1)
    defect_sets(report, params, eps, epsp, h_star)
    report.l_wrong = l_wrong(step, h_star, eps, params.gamma,
                             profile.step_bc)
    excess, well, _ = excess_energy_decomposition(
        params, step, h_star=h_star, e_star=e_star, bc=profile.step_bc)
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
    except (Froth1dError, OSError) as err:   # OSError: a file it cannot use
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
