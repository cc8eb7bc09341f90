"""Median lattice-based L2 approximation in weighted Korobov spaces.

The package implements a randomized approximation algorithm for 1-periodic
functions: Fourier coefficients on a hyperbolic-cross index set are
estimated from R independently shifted rank-1 lattices and aggregated by a
componentwise complex median, which makes the error bound hold with high
probability at near-optimal cost.  Included are the index-set machinery
with cardinality bounds, budget-driven parameter selection, Monte-Carlo
verification harnesses for the concentration estimates, and an experiment
CLI computing exact L2 errors via Parseval.
"""

from .korobov import (
    FrequencyIndex,
    ProductWeights,
    SmoothnessParams,
    SpectralOracle,
    cosine_pair_oracle,
    korobov_norm_sq_truncated,
    r_weight,
    riemann_zeta,
    test_function_f1,
    test_function_f2,
)
from .index_set import (
    HyperbolicCross,
    bound_basic,
    bound_min_q,
    bound_refined,
    corollary_cap,
    enumerate_hyperbolic_cross,
)
from .lattice import (
    LatticeConfig,
    dual_membership,
    estimate_coefficients,
    rng_stream,
)
from .median_approx import (
    MedianApproximation,
    epsilon_bound,
    evaluate,
    load_approximation,
    run,
    save_approximation,
    verify_concentration,
    verify_median_amplification,
)
from .params import (
    AlgorithmParams,
    BudgetSpec,
    PolynomialDecayWeights,
    SelectedParams,
    check_conditions,
    compute_Nstar,
    compute_PN,
    corollary2_constant,
    is_prime,
    select_params,
    tau_roots,
    theorem1_bound,
    tractability_diagnostics,
)
from .experiment import (
    ExperimentConfig,
    ExperimentRecord,
    exact_squared_error,
    figure3_table,
    fit_rate,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "AlgorithmParams",
    "BudgetSpec",
    "ExperimentConfig",
    "ExperimentRecord",
    "FrequencyIndex",
    "HyperbolicCross",
    "LatticeConfig",
    "MedianApproximation",
    "PolynomialDecayWeights",
    "ProductWeights",
    "SelectedParams",
    "SmoothnessParams",
    "SpectralOracle",
    "bound_basic",
    "bound_min_q",
    "bound_refined",
    "check_conditions",
    "compute_Nstar",
    "compute_PN",
    "corollary2_constant",
    "corollary_cap",
    "cosine_pair_oracle",
    "dual_membership",
    "enumerate_hyperbolic_cross",
    "epsilon_bound",
    "estimate_coefficients",
    "evaluate",
    "exact_squared_error",
    "figure3_table",
    "fit_rate",
    "is_prime",
    "korobov_norm_sq_truncated",
    "load_approximation",
    "r_weight",
    "riemann_zeta",
    "rng_stream",
    "run",
    "run_experiment",
    "save_approximation",
    "select_params",
    "tau_roots",
    "test_function_f1",
    "test_function_f2",
    "theorem1_bound",
    "tractability_diagnostics",
    "verify_concentration",
    "verify_median_amplification",
]
