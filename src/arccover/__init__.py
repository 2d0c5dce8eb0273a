"""Numerical laboratory for random arc coverings of the unit circle.

Four concerns, one per module:

* :mod:`arccover.sequences`  - nonincreasing arc-length sequences in (0, 1);
* :mod:`arccover.integrals`  - exact product integrals of the avoidance
  factors, the growth-function lower-bound chain, and the covering
  criterion series;
* :mod:`arccover.chebyshev`  - the integral inequality
  eps**(n-1) * int(prod f_k) >= prod(int f_k) for commonly monotone
  positive functions, to roundoff on piecewise-linear representatives;
* :mod:`arccover.covering`   - reproducible Monte Carlo simulation of
  the covering process itself.

The :mod:`arccover.cli` module exposes everything as deterministic
batch commands.
"""

from .chebyshev import (
    InequalityCheck,
    MonotonePiecewiseLinear,
    check_inequality,
    product_integral_pl,
    random_monotone_family,
    two_function_correlation,
)
from .covering import (
    SimulationResult,
    coverage_probability,
    first_cover_index,
    gap_measure_samples,
    pair_uncovered_exact,
    pair_uncovered_mc,
)
from .integrals import (
    CriterionSeries,
    DivergenceRow,
    GrowthDerivatives,
    LowerBoundCertificate,
    QuadratureResult,
    chebyshev_lower_bound,
    criterion_partial_sums,
    divergence_table,
    growth_derivative_probe,
    growth_eval,
    pair_factor_eval,
    pair_factor_integral,
    product_integral,
    shepp_lower_bound,
)
from .sequences import (
    EpsilonWindow,
    LengthSequence,
    epsilon_window,
    generate,
    parse_sequence_spec,
    threshold_index,
)

__version__ = "0.1.0"

__all__ = [
    "CriterionSeries",
    "DivergenceRow",
    "EpsilonWindow",
    "GrowthDerivatives",
    "InequalityCheck",
    "LengthSequence",
    "LowerBoundCertificate",
    "MonotonePiecewiseLinear",
    "QuadratureResult",
    "SimulationResult",
    "chebyshev_lower_bound",
    "check_inequality",
    "coverage_probability",
    "criterion_partial_sums",
    "divergence_table",
    "epsilon_window",
    "first_cover_index",
    "gap_measure_samples",
    "generate",
    "growth_derivative_probe",
    "growth_eval",
    "pair_factor_eval",
    "pair_factor_integral",
    "pair_uncovered_exact",
    "pair_uncovered_mc",
    "parse_sequence_spec",
    "product_integral",
    "product_integral_pl",
    "random_monotone_family",
    "shepp_lower_bound",
    "threshold_index",
    "two_function_correlation",
]
