"""apseq: bounded and almost periodic solutions of nonautonomous linear
difference equations on the integers, with certified truncation control."""

from .ap_analysis import (APReport, BesicovitchReport, besicovitch_distance,
                          bohr_check, fit_trig_poly, omega_c_check,
                          weyl_distance)
from .discretization import (HeatProblem, WaveProblem, heat_problem,
                             laplacian_1d, wave_problem)
from .errors import (ApseqError, CertificateError,
                     ConvergencePreconditionError, InputContractError,
                     NumericError, RangeError, ShapeError)
from .first_order import SolveReport, forward_oracle, residual, solve_series
from .higher_order import (CompanionSystem, build_companion, build_B_from_D,
                           companion_D_block, companion_selection,
                           solve_second_order)
from .operator_model import OperatorSequence, induced_bound
from .resolvent import (compose_selection, inclusion_residual,
                        inverse_selection, solve_degenerate_vb,
                        solve_degenerate_vb1, solve_inclusion)
from .seq_core import (BiSequence, Seminorm, SeminormFamily, TrigPoly, Window,
                       read_csv, write_csv)

__version__ = "0.1.0"
