"""Spectral test bench for kernel regression and linear inverse problems.

A fully computable diagonal model (sine basis, power-law spectrum) on which
kernel-side and parameter-side regularized solutions can be compared
exactly, discrete sampling schemes and bounded data perturbations can be
generated reproducibly, and the conversion between sample-count rates and
noise-level rates can be verified by slope-fitted Monte-Carlo studies.
"""

from .errors import (DomainError, InvlabError, ModelError, NumericalError,
                     ParameterError, ShapeError, ValidationError)
from .spectral_model import (SpectralProblem, basis_matrix,
                             build_power_law_problem, eval_function,
                             forward_data, make_source_solution,
                             problem_from_descriptor, resolve_w_spec)
from .rkhs import GramMatrix, gram_matrix, kernel_eval, rkhs_norm
from .sampling import (PerturbationSpec, SampleSet, perturb_data,
                       sample_design, sample_outputs)
from .regularization import (FilterSpec, certify_filter, estimator_learn,
                             estimator_paper, kernel_tikhonov,
                             solve_continuous)
from .rates import (ConvertedRate, RateExponents, RateFit, classical_exponents,
                    convert_lower, convert_upper, delta_of, derived_gamma,
                    fit_rate, hs_norm, loss_factor_tau, n_of, operator_norm,
                    paper_risk, paper_variance, statistical_exponents,
                    worst_case_bias, worst_case_error, worst_case_risk)
from .experiments import (StudyConfig, StudyReport, equivalence_deviations,
                          run_study, write_report)

__version__ = "0.1.0"
