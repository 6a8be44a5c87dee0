"""Bayesian inversion for linear problems with log-concave Gibbs priors.

MAP estimates via Split-Bregman splitting, CM estimates via exact-
conditional Gibbs or componentwise random-walk Metropolis, and Bregman-
distance Bayes-cost checks that compare the two.
"""

from .bayescost import (CostReport, CostSpec, centered_energy_check,
                        cm_optimality_check, cost_bregman, cost_ls,
                        cost_uniform, mc_bayes_cost, theorem_ineq_check,
                        uniform_cost_map_limit, verify_bayes_optimality)
from .grids import (Grid, Signal, grid1d, grid2d, load_signal_csv,
                    save_signal_csv, save_signal_pgm)
from .map_solver import (MapResult, SolverOptions, optimality_residual,
                         solve_map, subgradient_certificate)
from .model import (GaussianNoiseModel, Posterior, neg_log_posterior,
                    neg_log_posterior_gradient, weighted_sq_norm)
from .operators import (LinearOperator, adjoint_probe_error,
                        cell_average_restriction, from_matrix,
                        gaussian_blur, haar_transform, identity,
                        interval_average_1d, radon)
from .priors import (Prior, forward_differences, make_besov_prior,
                     make_gaussian_prior, make_l1_prior, make_tv1d_prior)
from .sampling import (Chain, ChainSummary, PiecewiseGaussian1D,
                       batch_means_stderr, load_chain, sample_gibbs,
                       sample_rwm, save_chain, summarize,
                       two_chain_discrepancy)
from .experiments import (ScenarioConfig, build_indicator_1d,
                          build_scenario, build_shepp_logan,
                          build_spots_phantom, generate_data,
                          lambda_sqrt_rule, run_dilemma_sweep,
                          run_experiment, s_curve_select_lambda)

__version__ = "0.1.0"
