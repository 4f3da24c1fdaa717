"""Numerical study of a 1D free-energy functional with short-range
ferromagnetic and long-range antiferromagnetic exponential interactions:
quasi-minimizers, the optimal modulation length, block coarse graining and
reflection-positivity certificates."""

from .certificates import Certificate
from .coarsegrain import (AdaptedPartition, CoarseGrainConfig,
                          adapted_partition, classify_blocks, coarse_grain,
                          find_flat_segment, lower_bound_certificate,
                          regular_partition, replace_block)
from .diagnostics import (StructureReport, defect_sets,
                          excess_energy_decomposition, good_set, l_wrong)
from .energy import (EnergyBreakdown, dipole_energy, energy_gradient,
                     short_range_energy, step_dipole_energy, tilde_energy,
                     total_energy)
from .instanton import (Instanton, build_trial_profile, solve_instanton,
                        surface_tension, tail_rate)
from .minimize import (MinimizeOptions, MinimizeResult, minimize_energy,
                       minimize_with_mean_constraint, multistart)
from .model import (KacMeasure, ModelParams, ShortRangeKernel, eval_F,
                    eval_F_double_prime, eval_F_prime, eval_tilde_F,
                    rp_spectrum_check, solve_m_beta, v_prime_at_zero)
from .profiles import (BlockPartition, GridProfile, StepProfile, alpha_L,
                       average_over, block_type, load_profile, save_profile)
from .sharp import (EhCurve, cell_specific_energy, chessboard_lower_bound,
                    check_eh_bounds, eh_curve, energy_per_length,
                    gamma_limit_energy, optimal_h, tilde_v_kernel)
from .verify import run_certificates

__version__ = "0.1.0"
