"""Symbolic elimination of the ordered-pieces inequality system.

Sort the n pieces in decreasing order and write b_1 >= b_2 >= ... >= b_n.
No k pieces form a k-gon exactly when every window inequality

    b_i >= b_{i+1} + ... + b_{i+k-1}        (1 <= i <= n - k + 1)

holds, together with the ordering of the final k - 1 pieces.  Counting
the integer solutions of that system is done generating-function style:
each piece contributes one geometric-series factor

    1 / (1 - q^e * prod_v v^(+-1))

where q tracks the total and one marker variable per inequality tracks
its slack (``lambda`` markers for the window inequalities, ``mu``
markers for the tail ordering chain).  A product of such factors is a
*crude form*; a marker appears with exponent +1 in the factor of the
piece on the large side of its inequality and with exponent -1 in the
factors of the pieces on the small side.

Eliminating a marker v keeps exactly the terms of the expanded series
whose v-exponent is nonnegative and then sets v = 1.  In the +-1
fragment this is a one-step rewrite: if the factors carrying v are

    1/(1 - v*X), 1/(1 - Y_1/v), ..., 1/(1 - Y_m/v)

with X, Y_i monomials free of v, the result is

    1/(1 - X), 1/(1 - X*Y_1), ..., 1/(1 - X*Y_m)

i.e. the +1 factor's monomial is multiplied into each -1 factor
independently and v disappears.  Anything outside that fragment (a
repeated +1, an exponent of magnitude >= 2, a missing +1) raises
``ShapeError``.

Eliminating all markers of a crude form built here, window markers
first and then the chain markers in index order, leaves a product of
plain factors 1/(1 - q^e); the exponent multiset is returned as a
``ClosedProduct``.  Each marker's shape is checked once, by its own
step; a pass after the last step rejects any marker left over.  For
every (k, n) the product coincides with the step-Fibonacci prediction
of ``genfib.parts_multiset``, which is what makes the closed
probability formulas work.

``run_elimination`` rewrites one list of factors in place, one pass per
marker.  Each pass scans all n factors for the marker's carriers, and
each of the n - k + 1 window markers rewrites about k factors of up to
k entries: about n^2 + (n - k + 1) k^2 steps, 0.1-0.2 us each on a
2-core host ((30, 300) 50 ms, (50, 2000) 0.92 s, (3, 8000) 7.0 s,
(200, 2000) 7.5 s).  The trace keeps every rewritten factor, about 24
bytes per unit of (n - k + 1) k^2 for markers plus k n^2 bytes for q
exponents; this matched peak RSS within 10 % from (10, 4000) 166 MiB
to (200, 600) 452 MiB.  Past 10^8 steps, or with ``trace=True`` past
1 GiB of trace, ``run_elimination`` raises ``ResourceLimitError``
before it builds the crude form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, overload, Literal

from .probability import ProblemSpec, ResourceLimitError

__all__ = [
    "LAMBDA",
    "MU",
    "Var",
    "ShapeError",
    "CrudeFactor",
    "ClosedProduct",
    "EliminationStep",
    "build_crude",
    "elimination_order",
    "run_elimination",
]

LAMBDA = "lambda"
MU = "mu"

# Cost bounds of run_elimination; see the module docstring.
_OMEGA_MAX_STEPS = 10**8
_OMEGA_MAX_TRACE_BYTES = 1 << 30


class Var(NamedTuple):
    """Marker variable: (kind, index) with kind "lambda" or "mu"."""

    kind: str
    index: int

    def __str__(self) -> str:
        return f"{self.kind}_{self.index}"


class ShapeError(ValueError):
    """Marker usage outside the supported +-1 exponent fragment."""


def _format_monomial(q_exp: int, powers: dict[Var, int]) -> str:
    num = []
    if q_exp == 1:
        num.append("q")
    elif q_exp != 0:
        num.append(f"q^{q_exp}")
    den = []
    for var in sorted(powers):
        e = powers[var]
        part = str(var) if abs(e) == 1 else f"{var}^{abs(e)}"
        (num if e > 0 else den).append(part)
    text = "*".join(num) if num else "1"
    if den:
        dtext = "*".join(den)
        if len(den) > 1:
            dtext = f"({dtext})"
        text = f"{text}/{dtext}"
    return text


@dataclass(frozen=True)
class CrudeFactor:
    """One factor 1/(1 - q^q_exp * monomial); zero exponents are not stored."""

    q_exp: int
    powers: dict[Var, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.q_exp < 0:
            raise ValueError(f"q exponent must be nonnegative, got {self.q_exp}")
        if any(e == 0 for e in self.powers.values()):
            raise ValueError("zero marker exponents must be dropped, not stored")

    def without(self, var: Var) -> "CrudeFactor":
        """Copy with var removed from the monomial."""
        return CrudeFactor(
            self.q_exp, {v: e for v, e in self.powers.items() if v != var}
        )

    def merged_with(self, other: "CrudeFactor") -> "CrudeFactor":
        """Factor whose monomial is the product of the two monomials."""
        powers = dict(self.powers)
        for v, e in other.powers.items():
            tot = powers.get(v, 0) + e
            if tot:
                powers[v] = tot
            else:
                powers.pop(v)
        return CrudeFactor(self.q_exp + other.q_exp, powers)

    def monomial(self) -> str:
        """Readable rendering such as 'q^2*mu_5/(lambda_2*lambda_3)'."""
        return _format_monomial(self.q_exp, self.powers)

    def __repr__(self) -> str:
        return f"CrudeFactor({self.monomial()})"


@dataclass(frozen=True)
class ClosedProduct:
    """Marker-free product prod_i 1/(1 - q^e_i), kept as its exponents.

    ``exponents`` preserves the order in which elimination produced the
    factors; use ``sorted_exponents`` when comparing as a multiset.
    """

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(e < 1 for e in self.exponents):
            raise ValueError(f"exponents must be positive, got {self.exponents}")

    def sorted_exponents(self) -> tuple[int, ...]:
        return tuple(sorted(self.exponents))


@dataclass(frozen=True)
class EliminationStep:
    """Trace record for one marker elimination.

    ``consumed`` holds the factor positions that carried the marker,
    the +1 position first; ``produced`` holds the replacement factors
    at those same positions, in the same order.
    """

    var: Var
    consumed: tuple[int, ...]
    produced: tuple[CrudeFactor, ...]


def build_crude(spec: ProblemSpec) -> tuple[CrudeFactor, ...]:
    """Crude form of the no-polygon system for (k, n): one factor per piece.

    Factor i - 1 belongs to piece i; elimination rewrites factors at
    their positions, so positions stay aligned with pieces and traces
    are reproducible.

    Piece i (1-based) carries marker exponents

    * lambda_i^(+1)  if i <= n - k + 1        (piece starts a window),
    * lambda_j^(-1)  for each window j whose small side covers i, i.e.
      max(1, i - k + 1) <= j <= min(i - 1, n - k + 1),
    * mu_i^(+1)      if n - k + 2 <= i <= n - 1   (tail ordering b_i >= b_{i+1}),
    * mu_{i-1}^(-1)  if i >= n - k + 3,

    and every factor carries q^1 since each piece adds its size to the
    total.
    """
    k, n = spec.k, spec.n
    factors = []
    for i in range(1, n + 1):
        powers: dict[Var, int] = {}
        if i <= n - k + 1:
            powers[Var(LAMBDA, i)] = 1
        for j in range(max(1, i - k + 1), min(i - 1, n - k + 1) + 1):
            powers[Var(LAMBDA, j)] = -1
        if n - k + 2 <= i <= n - 1:
            powers[Var(MU, i)] = 1
        if i >= n - k + 3:
            powers[Var(MU, i - 1)] = -1
        factors.append(CrudeFactor(1, powers))
    return tuple(factors)


def elimination_order(spec: ProblemSpec) -> list[Var]:
    """Marker order used by ``run_elimination``: all windows, then the chain."""
    k, n = spec.k, spec.n
    order = [Var(LAMBDA, j) for j in range(1, n - k + 2)]
    order.extend(Var(MU, j) for j in range(n - k + 2, n))
    return order


def _omega_cost(k: int, n: int) -> tuple[int, int]:
    # (steps, bytes a trace keeps), by the cost model of the module docstring.
    rewritten = (n - k + 1) * k * k
    return n * n + rewritten, 24 * rewritten + k * n * n


def _eliminate(factors: list[CrudeFactor], var: Var) -> EliminationStep:
    # Eliminates var, rewriting factors in place; var must appear with
    # exponent +1 in exactly one factor and -1 elsewhere (ShapeError
    # otherwise).  Each -1 carrier is merged with the +1 factor as it
    # stands: var^-1 cancels against its var^+1, so every rewritten
    # factor is built once.
    plus_pos = None
    minus_pos: list[int] = []
    carriers = [pos for pos, fac in enumerate(factors) if var in fac.powers]
    for pos in carriers:
        e = factors[pos].powers[var]
        if e == 1:
            if plus_pos is not None:
                raise ShapeError(
                    f"{var} appears with exponent +1 in factors {plus_pos} and {pos}"
                )
            plus_pos = pos
        elif e == -1:
            minus_pos.append(pos)
        else:
            raise ShapeError(
                f"{var} appears with exponent {e} in factor {pos}; only +-1 is supported"
            )
    if plus_pos is None:
        raise ShapeError(f"no factor carries {var} with exponent +1")

    plus = factors[plus_pos]
    for pos in minus_pos:
        factors[pos] = factors[pos].merged_with(plus)
    factors[plus_pos] = plus.without(var)
    consumed = (plus_pos, *minus_pos)
    return EliminationStep(var, consumed, tuple(factors[pos] for pos in consumed))


@overload
def run_elimination(
    spec: ProblemSpec, trace: Literal[False] = ...
) -> ClosedProduct: ...


@overload
def run_elimination(
    spec: ProblemSpec, trace: Literal[True]
) -> tuple[ClosedProduct, list[EliminationStep]]: ...


def run_elimination(spec, trace=False):
    """Build the crude form for spec and eliminate every marker.

    Returns the resulting ``ClosedProduct``, or with ``trace=True`` a
    pair (product, steps) where steps has one ``EliminationStep`` per
    marker in elimination order.  Each step checks the +-1 shape of
    its own marker, and a final pass rejects any marker left over
    (one the order never named); either violation means the engine
    itself is broken and surfaces as ``ShapeError``.  Raises
    ``ResourceLimitError`` past the cost bounds in the module docstring.
    """
    steps_needed, trace_bytes = _omega_cost(spec.k, spec.n)
    if steps_needed > _OMEGA_MAX_STEPS:
        raise ResourceLimitError(
            f"elimination at k={spec.k}, n={spec.n} takes about {steps_needed} steps"
            f" (limit {_OMEGA_MAX_STEPS})"
        )
    if trace and trace_bytes > _OMEGA_MAX_TRACE_BYTES:
        raise ResourceLimitError(
            f"the elimination trace at k={spec.k}, n={spec.n} keeps about {trace_bytes}"
            f" bytes (limit {_OMEGA_MAX_TRACE_BYTES})"
        )
    factors = list(build_crude(spec))
    steps: list[EliminationStep] = []
    for var in elimination_order(spec):
        step = _eliminate(factors, var)
        if trace:
            steps.append(step)
    for pos, fac in enumerate(factors):
        if fac.powers:
            raise ShapeError(
                f"marker {min(fac.powers)} survives elimination in factor {pos}"
            )
    product = ClosedProduct(tuple(fac.q_exp for fac in factors))
    if trace:
        return product, steps
    return product
