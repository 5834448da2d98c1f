"""Numerical toolkit for double-well tunneling of semiclassical Weyl operators.

The package discretizes L_h = (a + h b)^w on a periodic grid, builds sealed
one-well operators and WKB quasimodes, and compares the measured tunneling
splitting against its effective-operator and closed-form predictions.
"""

from .errors import (ConfigurationError, DegeneracyError, EvaluationError,
                     NumericError, PrecisionWarning)
from .model import (CumulativeIntegral, Model, ModelConstants, ValidationReport,
                    builtin_model, custom_model, derived_constants, parse_symbol,
                    validate_model)
from .quantize import (Grid, OperatorMatrix, assemble_L, auto_points,
                       dump_matrix, frobenius_norm, load_matrix, make_grid,
                       reverse_indices, weyl_matrix)
from .spectra import (Eigenpair, agmon_weighted_norm, fourier_cut, fourier_tail,
                      gap_near_residual, lowest_eigenpairs, parity_of,
                      spatial_tail)
from .wkb import (AgmonPhase, SealingFunction, WkbQuasimode, agmon_phase,
                  assemble_onewell, bump, quasimode_residual, sealing_function,
                  smoothstep, wkb_quasimode)
from .effective import (EffectiveGap, assemble_Mhbar, classical_splitting_formula,
                        gap_Mhbar, schrodinger_matrix)
from .tunneling import gram_reduction, interaction_term
from .harness import (SWEEP_COLUMNS, SweepConfig, SweepReport, build_model,
                      fit_action, format_value, load_config, run_sweep)

__version__ = "0.1.0"
