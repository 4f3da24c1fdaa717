"""Numerical study of a 1D free-energy functional with short-range
ferromagnetic and long-range antiferromagnetic exponential interactions:
quasi-minimizers, the optimal modulation length, block coarse graining and
reflection-positivity certificates.

``import froth1d`` loads no submodule. A public name imports its submodule
on first access (PEP 562) and is looked up there on every access, so a name
rebound on its submodule is what ``froth1d.<name>`` returns.
"""

from importlib import import_module as _import_module

# submodule -> the public names it defines
_PUBLIC = {
    "certificates": ("Certificate",),
    "coarsegrain": ("AdaptedPartition", "CoarseGrainConfig",
                    "adapted_partition", "classify_blocks", "coarse_grain",
                    "find_flat_segment", "lower_bound_certificate",
                    "replace_block"),
    "diagnostics": ("StructureReport", "defect_sets",
                    "excess_energy_decomposition", "good_set", "l_wrong"),
    "energy": ("EnergyBreakdown", "dipole_energy", "energy_gradient",
               "short_range_energy", "step_dipole_energy", "tilde_energy",
               "total_energy"),
    "instanton": ("Instanton", "build_trial_profile", "solve_instanton",
                  "surface_tension", "tail_rate"),
    "minimize": ("MinimizeOptions", "MinimizeResult", "minimize_energy",
                 "minimize_with_mean_constraint", "multistart"),
    "model": ("KacMeasure", "ModelParams", "ShortRangeKernel", "eval_F",
              "eval_F_double_prime", "eval_F_prime", "eval_tilde_F",
              "rp_spectrum_check", "solve_m_beta", "v_prime_at_zero"),
    "profiles": ("BlockPartition", "GridProfile", "StepProfile", "alpha_L",
                 "block_type", "load_profile", "regular_partition",
                 "save_profile"),
    "sharp": ("EhCurve", "cell_specific_energy", "chessboard_lower_bound",
              "check_eh_bounds", "eh_curve", "energy_per_length",
              "gamma_limit_energy", "optimal_h", "tilde_v_kernel"),
    "verify": ("run_certificates",),
}
_SOURCE = {name: module for module, names in _PUBLIC.items()
           for name in names}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
