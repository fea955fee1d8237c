"""Broken-stick polygon probabilities, exactly and by simulation.

Break a unit stick at n - 1 uniformly random points.  This package
answers, in exact rational arithmetic, questions of the form "can some
k of the n pieces form a k-gon?" and "can every choice of k pieces form
a k-gon?", and cross-checks the closed forms three independent ways:
a symbolic inequality-elimination engine, exhaustive and generating
function counting, and vectorized Monte Carlo simulation.

Importing the package loads only ``genfib`` and ``probability``, which
every exact request needs.  The other submodules, and the names of
``omega``, ``counting`` and ``montecarlo``, are imported on first access
(PEP 562), so a CLI start loads just the modules its subcommand runs.
"""

from .genfib import f_sum, fib_table, gen_fib, parts_multiset
from .probability import (
    DEFAULT_CHUNKS,
    DEFAULT_SEED,
    ProblemSpec,
    ResourceLimitError,
    prob_exists,
    prob_forall,
    prob_ngon,
    prob_none,
)

__version__ = "0.2.0"

__all__ = [
    "fib_table",
    "gen_fib",
    "f_sum",
    "parts_multiset",
    "ProblemSpec",
    "ResourceLimitError",
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
    "run_elimination",
    "count_constrained",
    "count_restricted",
    "hermite_coeff",
    "asymptotic_ratio",
    "limit_probability",
    "SimConfig",
    "SimResult",
    "DEFAULT_SEED",
    "DEFAULT_CHUNKS",
    "estimate",
    "__version__",
]

_SUBMODULES = ("cli", "counting", "montecarlo", "omega", "verification")

# Each lazily exported name, by the submodule that defines it.
_LAZY = {
    name: module
    for module, names in (
        ("omega", ("Var", "ShapeError", "CrudeFactor", "ClosedProduct", "EliminationStep",
                   "build_crude", "run_elimination")),
        ("counting", ("count_constrained", "count_restricted", "hermite_coeff",
                      "asymptotic_ratio", "limit_probability")),
        ("montecarlo", ("SimConfig", "SimResult", "estimate")),
    )
    for name in names
}


def __getattr__(name: str):
    # Only names not yet bound get here.  Importing a submodule binds it
    # as an attribute of the package, so each is imported once.
    if name in _SUBMODULES or name in _LAZY:
        from importlib import import_module

        module = import_module(f"{__name__}.{_LAZY.get(name, name)}")
        return module if name in _SUBMODULES else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
