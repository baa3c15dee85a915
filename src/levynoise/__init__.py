"""Simulation and numerical verification for Ito integration against a
two-sided, finite-variance, purely discontinuous Levy white noise.

The package samples the driving Poisson point configuration exactly
(finite-mass jump measures), evaluates stochastic integrals of
predictable simple processes pathwise in exact rational arithmetic,
computes moments through cumulant/partition combinatorics, and gates
every moment inequality and the derivative/adjoint duality with seeded
Monte Carlo hypothesis tests.
"""

__version__ = "0.3.0"

# the names the demos and the benchmark read through the package; everything
# else is imported from its module
from .measure import abs_moment, atomic_measure, interpolation_check, signed_moment
from .partitions import (
    count_no_singleton_partitions,
    moment_of_step_functional,
    partitions_no_singletons,
    step_functional_cumulants,
)
from .prm import (
    char_function_gap,
    eval_L_set,
    eval_path,
    sample_L_interval,
    sample_prm,
    sample_prm_batch,
)
from .processes import StepFunction, batch_I_K, catalog_process, eval_I_K, validate_simple
from .integral import (
    check_integral_moment_bound,
    check_linear_moment_bound,
    estimate_seminorm,
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
    add_one_cost,
    batch_multiple_integral,
    catalog_functional,
    catalog_kernel,
    chaos_variance,
    duality_gap,
    eval_chaos,
    eval_multiple_integral,
    malliavin_derivative,
    project_kernel,
)
from .harness import mc_mean_test
