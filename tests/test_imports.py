import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# every public name ``import froth1d`` exposes, submodules aside: adding or
# removing one has to be a deliberate edit of this list
PUBLIC_API = [
    "AdaptedPartition", "BlockPartition", "Certificate", "CoarseGrainConfig",
    "EhCurve", "EnergyBreakdown", "GridProfile", "Instanton", "KacMeasure",
    "MinimizeOptions", "MinimizeResult", "ModelParams", "ShortRangeKernel",
    "StepProfile", "StructureReport", "adapted_partition", "alpha_L",
    "block_type", "build_trial_profile",
    "cell_specific_energy", "check_eh_bounds", "chessboard_lower_bound",
    "classify_blocks", "coarse_grain", "defect_sets", "dipole_energy",
    "eh_curve", "energy_gradient", "energy_per_length", "eval_F",
    "eval_F_double_prime", "eval_F_prime", "eval_tilde_F",
    "excess_energy_decomposition", "find_flat_segment", "gamma_limit_energy",
    "good_set", "l_wrong", "load_profile", "lower_bound_certificate",
    "minimize_energy", "minimize_with_mean_constraint", "multistart",
    "optimal_h", "regular_partition", "replace_block", "rp_spectrum_check",
    "run_certificates", "save_profile", "short_range_energy",
    "solve_instanton", "solve_m_beta", "step_dipole_energy",
    "surface_tension", "tail_rate", "tilde_energy", "tilde_v_kernel",
    "total_energy", "v_prime_at_zero",
]


# the grid functional's entry points take a gamma of their own, as they run
# the short-range functional at gamma 0, which ModelParams cannot hold;
# every other public callable given params reads gamma from them
GRID_ENTRY_POINTS = ["energy_gradient", "minimize_energy",
                     "minimize_with_mean_constraint", "total_energy"]


def run_fresh(code: str):
    """JSON printed by ``code`` in a fresh interpreter that imports the
    package from the source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency: a feature that needs SciPy
    # imports it inside the function that uses it
    assert run_fresh(
        "import json, sys, froth1d, froth1d.cli; print(json.dumps(sorted("
        "m for m in sys.modules if m.split('.')[0] == 'scipy')))") == []


def test_public_namespace_is_pinned():
    # the names are resolved lazily, so they are read from dir(), not from
    # the module dict; each must be the object its defining module holds
    listed, defined = run_fresh(
        "import json, sys, types, froth1d\n"
        "names = sorted(n for n in dir(froth1d) if not n.startswith('_') "
        "and not isinstance(getattr(froth1d, n), types.ModuleType))\n"
        "print(json.dumps([names, [n for n in names if getattr(froth1d, n) "
        "is getattr(sys.modules[getattr(froth1d, n).__module__], n)]]))")
    assert listed == sorted(PUBLIC_API)
    assert defined == listed


def loaded_after(code: str):
    """The froth1d submodules loaded after ``code`` in a fresh interpreter."""
    return run_fresh(
        f"import json, sys\n{code}\nprint(json.dumps(sorted("
        "m for m in sys.modules if m.startswith('froth1d.'))))")


def test_import_loads_no_submodule():
    assert loaded_after("import froth1d") == []


def test_setup_chain_loads_seven_modules():
    # the paper's chain instanton -> tau -> e(h) -> h* needs neither coarse
    # graining, the diagnostics, the minimizer nor the certificate suite
    assert loaded_after(
        "import froth1d\n"
        "params = froth1d.ModelParams.from_dict({'beta': 2.0, 'J0_hat': 1.0, "
        "'lambda': 1.0, 'measure': [{'weight': 1.0, 'alpha': 1.0}], "
        "'gamma': 0.01})\n"
        "tau = froth1d.solve_instanton(params).tau\n"
        "froth1d.optimal_h(params.with_tau(tau))") == [
            "froth1d.certificates", "froth1d.energy", "froth1d.errors",
            "froth1d.instanton", "froth1d.model", "froth1d.profiles",
            "froth1d.sharp"]


def test_cli_loads_every_traced_module():
    # the benchmark's tracer wraps functions it finds in sys.modules after
    # importing the CLI, so the CLI must load each module it traces
    traced = {f"froth1d.{m}" for m, _ in run_fresh(
        "import json, sys\n"
        f"sys.path.insert(0, {str(SRC.parent / 'perfbench')!r})\n"
        "from tracing import TRACED\nprint(json.dumps(TRACED))")}
    assert traced <= set(loaded_after("import froth1d.cli"))


def test_rebinding_shows_through_the_package(monkeypatch):
    import froth1d
    import froth1d.minimize as minimize_module
    original = minimize_module.minimize_energy

    def stand_in(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(minimize_module, "minimize_energy", stand_in)
    assert froth1d.minimize_energy is stand_in
    monkeypatch.undo()
    assert froth1d.minimize_energy is original
    assert "minimize_energy" not in vars(froth1d)


def test_only_the_grid_entry_points_override_gamma():
    # classes aside: a record such as StructureReport stores a gamma
    import froth1d
    functions = {name: getattr(froth1d, name) for name in froth1d.__all__
                 if not inspect.isclass(getattr(froth1d, name))}
    both = [name for name, f in functions.items()
            if {"params", "gamma"} <= set(inspect.signature(f).parameters)]
    assert both == GRID_ENTRY_POINTS
    assert "multistart" in functions and "optimal_h" in functions
