"""Broken-stick polygon probabilities, exactly and by simulation.

Break a unit stick at n - 1 uniformly random points.  This package
answers, in exact rational arithmetic, questions of the form "can some
k of the n pieces form a k-gon?" and "can every choice of k pieces form
a k-gon?", and cross-checks the closed forms three independent ways:
a symbolic inequality-elimination engine, exhaustive and generating
function counting, and vectorized Monte Carlo simulation.
"""

from .genfib import f_sum, fib_table, g_val, gen_fib, h_val, parts_multiset
from .probability import (
    ProblemSpec,
    prob_exists,
    prob_forall,
    prob_ngon,
    prob_none,
)
from .omega import (
    ClosedProduct,
    CrudeFactor,
    EliminationStep,
    ShapeError,
    Var,
    build_crude,
    eliminate,
    run_elimination,
)
from .counting import (
    ResourceLimitError,
    asymptotic_ratio,
    count_constrained,
    count_restricted,
    hermite_coeff,
    limit_probability,
    series_coefficients,
)
from .montecarlo import (
    DEFAULT_CHUNKS,
    DEFAULT_SEED,
    SimConfig,
    SimResult,
    break_stick,
    estimate,
    predicate_forall,
    predicate_none,
)

__version__ = "0.1.0"

__all__ = [
    "fib_table",
    "gen_fib",
    "f_sum",
    "g_val",
    "h_val",
    "parts_multiset",
    "ProblemSpec",
    "prob_none",
    "prob_exists",
    "prob_forall",
    "prob_ngon",
    "Var",
    "ShapeError",
    "CrudeFactor",
    "ClosedProduct",
    "EliminationStep",
    "build_crude",
    "eliminate",
    "run_elimination",
    "ResourceLimitError",
    "count_constrained",
    "count_restricted",
    "series_coefficients",
    "hermite_coeff",
    "asymptotic_ratio",
    "limit_probability",
    "SimConfig",
    "SimResult",
    "DEFAULT_SEED",
    "DEFAULT_CHUNKS",
    "break_stick",
    "estimate",
    "predicate_none",
    "predicate_forall",
    "__version__",
]
