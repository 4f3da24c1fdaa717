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
    "average_over", "block_type", "build_trial_profile",
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
    assert run_fresh(
        "import json, types, froth1d; print(json.dumps(sorted("
        "n for n, v in vars(froth1d).items() if not n.startswith('_') "
        "and not isinstance(v, types.ModuleType))))") == sorted(PUBLIC_API)
