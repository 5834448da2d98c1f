"""Numerical toolkit for double-well tunneling of semiclassical Weyl operators.

The package discretizes L_h = (a + h b)^w on a periodic grid, builds sealed
one-well operators and WKB quasimodes, and compares the measured tunneling
splitting against its effective-operator and closed-form predictions.
"""

from .errors import (ConfigurationError, DegeneracyError, EvaluationError,
                     NumericError, PrecisionWarning)
from .model import (Model, ModelConstants, SymbolA, SymbolB, ValidationConfig,
                    ValidationReport, action_integral, builtin_model,
                    custom_model, derived_constants, parse_symbol,
                    validate_model)
from .quantize import (Grid, OperatorMatrix, apply_fourier_multiplier,
                       assemble_L, dump_matrix, fourier_multiplier_matrix,
                       load_matrix, make_grid, weyl_matrix)
from .spectra import (Eigenpair, agmon_weighted_norm, fourier_tail,
                      gap_near_residual, lowest_eigenpairs, parity_of,
                      reverse_indices, spatial_tail)
from .wkb import (AgmonPhase, CumulativeIntegral, SealingFunction,
                  WkbQuasimode, agmon_phase, assemble_onewell, bump,
                  eikonal_residual, leading_amplitude, quasimode_residual,
                  sealing_function, smoothstep, transport_residual,
                  wkb_eigenvalue, wkb_quasimode)
from .effective import (assemble_Mhbar, classical_splitting_formula,
                        gap_Mhbar, schrodinger_matrix)
from .tunneling import (CutoffPair, InteractionReport, cutoff_pair,
                        gram_reduction, interaction_asymptotic,
                        interaction_term, measured_splitting,
                        predicted_splitting_theorem)
from .harness import (SPLITTING_COLUMNS, SWEEP_COLUMNS, SweepConfig,
                      SweepReport, auto_points, build_model,
                      convergence_ratios, format_value, load_config,
                      run_sweep, splitting_row)

__version__ = "0.1.0"
