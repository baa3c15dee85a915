"""Simulation and numerical verification for Ito integration against a
two-sided, finite-variance, purely discontinuous Levy white noise.

The package samples the driving Poisson point configuration exactly
(finite-mass jump measures), evaluates stochastic integrals of
predictable simple processes pathwise in exact rational arithmetic,
computes moments through cumulant/partition combinatorics, and gates
every moment inequality and the derivative/adjoint duality with seeded
Monte Carlo hypothesis tests.
"""

__version__ = "0.1.0"

from .measure import (
    LevyMeasureModel,
    TruncatedDensity,
    abs_moment,
    atomic_measure,
    interpolation_check,
    moment_table,
    power_law_measure,
    signed_moment,
    validate_measure,
)
from .partitions import (
    all_partitions,
    count_no_singleton_partitions,
    moment_from_cumulants,
    moment_of_step_functional,
    moment_over_all_partitions,
    partitions_no_singletons,
    step_functional_cumulants,
)
from .prm import (
    PointRealization,
    RealizationBatch,
    char_function_gap,
    eval_L_set,
    eval_L_step,
    eval_path,
    sample_L_interval,
    sample_prm,
    sample_prm_batch,
    theoretical_char,
)
from .stepfun import StepFunction
from .coefficients import ClampedNoise, Const, Poly, Product, Sum
from .processes import (
    SimpleProcess,
    catalog_process,
    eval_I_K,
    batch_I_K,
    from_step,
    linear_combination,
    restrict_process,
    validate_simple,
)
from .integral import (
    check_integral_moment_bound,
    check_linear_moment_bound,
    estimate_seminorm,
    integral_bound_constant,
    tail_convergence,
)
from .convolution import (
    DeterministicField,
    SeparableField,
    check_convolution_moment_bound,
    heat_kernel,
    indicator_kernel,
    kernel_power_integral,
)
from .chaos import (
    Cell,
    ChaosFunctional,
    StepKernel,
    add_one_cost,
    batch_multiple_integral,
    catalog_functional,
    catalog_kernel,
    chaos_variance,
    duality_gap,
    eval_chaos,
    eval_multiple_integral,
    make_kernel,
    malliavin_derivative,
    project_kernel,
    skorohod_integral,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    default_verification_config,
    mc_mean_test,
    parse_config,
    report_to_json,
    run,
    write_report,
)
from .rng import derive_rng, derive_seed
