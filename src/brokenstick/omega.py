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
factors of the pieces on the small side.  These are the marker's
*carriers*: lambda_j's are pieces j..j+k-1 and mu_j's pieces j, j+1.

Eliminating a marker v keeps exactly the terms of the expanded series
whose v-exponent is nonnegative and then sets v = 1.  In the +-1
fragment this is a one-step rewrite: if the factors carrying v are

    1/(1 - v*X), 1/(1 - Y_1/v), ..., 1/(1 - Y_m/v)

with X, Y_i monomials free of v, the result is

    1/(1 - X), 1/(1 - X*Y_1), ..., 1/(1 - X*Y_m)

i.e. the +1 factor's monomial is multiplied into each -1 factor
independently and v disappears.  In every crude form built here X is a
power of q alone when v's turn comes, and that case is the only one
the engine rewrites.  Each step reads only v's carriers, which its
inequality names, and raises ``ShapeError`` on any other shape there:
an exponent of v other than +1 at the large piece and -1 at the others
(a missing marker, a wrong sign, a magnitude >= 2), an earlier marker
left on a carrier, or a second marker on the +1 factor.

Eliminating all markers of a crude form built here, window markers
first and then the chain markers in index order, leaves a product of
plain factors 1/(1 - q^e); the exponent multiset is returned as a
``ClosedProduct``.  Each marker's carriers are checked once, by its
own step; a pass after the last step rejects any marker left over,
which is one that sorts after every named marker and rode a -1
carrier to the end.  For every (k, n) the product coincides with the
step-Fibonacci prediction of ``genfib.parts_multiset``, which is what
makes the closed probability formulas work.

``run_elimination`` rewrites one list of factors in place, one pass per
marker over its carriers.  A factor keeps its markers in ``Var`` order,
which is also elimination order, so the marker being eliminated is the
first entry of each factor that carries it.  Each -1 factor drops that
entry, sharing its marker tuple one offset further on, and gains the
+1 factor's q exponent.  A traced run also carries each factor's
rendered marker text, cutting the eliminated marker's name off the
text of the factor it replaces; an untraced run renders no text.

The n - k + 1 window markers merge k - 1 factors each and the k - 2
chain markers one, after n factor builds.  The q exponents reach n
bits, and ``omega`` prints each in decimal at a cost quadratic in its
size: the n final exponents, and with a trace also the exponent of each
of the (n - k + 1) k + 2 (k - 2) factors the steps produce.  So the
bound counts merges + n + (exponents printed) n^2 / 10^6 steps.  On a
2-core host (50, 2000) takes 0.07-0.10 s in process and (200, 2000)
0.21-0.36 s; at the bound, ``omega`` takes 2.2-2.3 s at (3, 17041),
4.2-4.6 s at (10, 16904), 6.0-8.7 s at (2000, 4452) and 8.1-8.6 s at
(5000, 5954), end to end.  A
trace keeps about 460 bytes per produced factor plus 2n/3 for its q
exponent, and 46 bytes per marker entry of a produced factor, summed in
closed form.  At the bounds, traces took 2.8 s and 255 MiB at (3, 10749),
5.4 s and 641 MiB at (30, 5393), 5.0 s and 948 MiB at (100, 2539) and
3.4 s and 960 MiB at (300, 839).  Past 5 * 10^6 steps, or with ``trace=True`` past 1 GiB of
trace, ``run_elimination`` raises ``ResourceLimitError`` before it
builds the crude form.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from functools import lru_cache
from typing import Literal, NamedTuple, NoReturn, overload

from .probability import ProblemSpec, ResourceLimitError

__all__ = [
    "Var",
    "ShapeError",
    "CrudeFactor",
    "ClosedProduct",
    "EliminationStep",
    "build_crude",
    "run_elimination",
]

LAMBDA = "lambda"
MU = "mu"

# Cost bounds of run_elimination; see the module docstring.
_OMEGA_MAX_STEPS = 5_000_000
_OMEGA_MAX_TRACE_BYTES = 1 << 30


class Var(NamedTuple):
    """Marker variable: (kind, index) with kind "lambda" or "mu".

    Every lambda sorts before every mu, so ``Var`` order is also the
    order of ``elimination_order``.
    """

    kind: str
    index: int

    # A traced run renders each marker name once per crude factor that
    # carries it.  The trace bound keeps n <= 10749, so lambda_j and mu_j
    # for j < n are fewer than 2^15 names.
    @lru_cache(maxsize=1 << 15)
    def __str__(self) -> str:
        return f"{self.kind}_{self.index}"


class ShapeError(ValueError):
    """A crude form that the module docstring's one-step rewrite cannot take."""


# A monomial's marker text: the numerator markers joined by "*", the
# denominator markers joined by "*", and the denominator's length.
_Text = tuple[str, str, int]


def _marker_text(markers: tuple[tuple[Var, int], ...]) -> _Text:
    num = []
    den = []
    for var, e in markers:
        part = str(var) if e in (1, -1) else f"{var}^{abs(e)}"
        (num if e > 0 else den).append(part)
    return "*".join(num), "*".join(den), len(den)


# Ints below this have at most 640 digits, the lowest int-to-str limit
# the interpreter accepts, so str() always prints them; a larger q
# exponent is printed through Decimal, which has no such limit.
_STR_SAFE = 1 << 2125


def _format_monomial(q_exp: int, text: _Text) -> str:
    num, den, den_count = text
    if q_exp < 2:
        head = "q" if q_exp else ""
    else:
        head = f"q^{q_exp if q_exp < _STR_SAFE else Decimal(q_exp)}"
    out = f"{head}*{num}" if head and num else head or num or "1"
    if den_count > 1:
        return f"{out}/({den})"
    return f"{out}/{den}" if den_count else out


class CrudeFactor:
    """One factor 1/(1 - q^q_exp * monomial).

    ``markers`` holds the monomial's (marker, exponent) pairs in ``Var``
    order, which is also elimination order, so the marker eliminated
    next is the first entry of every factor that carries it; zero
    exponents are not stored.  Built from a dict of powers, as in
    ``CrudeFactor(2, {Var("lambda", 1): -1})``; ``dict(markers)`` gives
    the dict back.  Factors compare by q exponent and markers; treat them
    as immutable.
    """

    # The markers are _base[_start:]: elimination drops a factor's first
    # marker by sharing its tuple at the next offset, so a rewrite costs
    # the same whatever the factor's length.
    __slots__ = ("q_exp", "_base", "_start", "_text")

    def __init__(self, q_exp: int, powers: dict[Var, int] | None = None) -> None:
        if q_exp < 0:
            raise ValueError(f"q exponent must be nonnegative, got {q_exp}")
        markers = tuple(sorted((powers or {}).items()))
        if any(e == 0 for _, e in markers):
            raise ValueError("zero marker exponents must be dropped, not stored")
        self.q_exp = q_exp
        self._base = markers
        self._start = 0
        self._text: _Text | None = None

    @property
    def markers(self) -> tuple[tuple[Var, int], ...]:
        return self._base[self._start :] if self._start else self._base

    def _marks(self) -> _Text:
        # The marker text, rendered on first use unless a traced
        # elimination carried it over from the factor this one replaced.
        if self._text is None:
            self._text = _marker_text(self.markers)
        return self._text

    def monomial(self) -> str:
        """Readable rendering such as 'q^2*mu_5/(lambda_2*lambda_3)'."""
        return _format_monomial(self.q_exp, self._marks())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CrudeFactor):
            return NotImplemented
        return self.q_exp == other.q_exp and self.markers == other.markers

    def __repr__(self) -> str:
        return f"CrudeFactor({self.monomial()})"


def _factor(
    q_exp: int,
    base: tuple[tuple[Var, int], ...],
    start: int = 0,
    text: _Text | None = None,
) -> CrudeFactor:
    # The factor with markers base[start:], which must be in Var order
    # with no zero exponent: the constructor's sort and checks are skipped.
    fac = object.__new__(CrudeFactor)
    fac.q_exp = q_exp
    fac._base = base
    fac._start = start
    fac._text = text
    return fac


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

    ``consumed`` holds the factor positions of the marker's inequality,
    the large piece (the +1 position) first; ``produced`` holds the
    replacement factors at those same positions, in the same order.
    """

    var: Var
    consumed: tuple[int, ...]
    produced: tuple[CrudeFactor, ...]


def build_crude(spec: ProblemSpec) -> tuple[CrudeFactor, ...]:
    """Crude form of the no-polygon system for (k, n): one factor per piece.

    Factor i - 1 belongs to piece i; elimination rewrites factors at
    their positions, so positions stay aligned with pieces and traces
    are reproducible.  Each marker of ``elimination_order`` puts
    exponent +1 on the large piece of its inequality and -1 on each
    piece of the small side (see ``_carriers``), and every factor
    carries q^1 since each piece adds its size to the total.
    """
    markers: list[list[tuple[Var, int]]] = [[] for _ in range(spec.n)]
    # Markers come in Var order, so each factor's list stays sorted.
    for var in elimination_order(spec):
        large, *small = _carriers(var, spec.k)
        markers[large].append((var, 1))
        minus = (var, -1)
        for pos in small:
            markers[pos].append(minus)
    return tuple(_factor(1, tuple(m)) for m in markers)


def elimination_order(spec: ProblemSpec) -> list[Var]:
    """Marker order used by ``run_elimination``: all windows, then the chain.

    Window marker lambda_j (j <= n - k + 1) belongs to the inequality
    b_j >= b_{j+1} + ... + b_{j+k-1}; chain marker mu_j (j < n) to the
    tail ordering b_j >= b_{j+1}.
    """
    k, n = spec.k, spec.n
    return [Var(LAMBDA, j) if j <= n - k + 1 else Var(MU, j) for j in range(1, n)]


def _carriers(var: Var, k: int) -> range:
    # Factor positions of var's inequality, the large piece first: piece
    # j, then the next k - 1 pieces for a window or the next one for the chain.
    return range(var.index - 1, var.index - 1 + (k if var.kind == LAMBDA else 2))


def _omega_cost(k: int, n: int, trace: bool) -> tuple[int, int]:
    # (steps, bytes a trace keeps), by the cost model of the module docstring.
    windows = n - k + 1
    merges = windows * (k - 1) + k - 2
    produced = windows * k + 2 * (k - 2)
    rendered = n + produced if trace else n
    steps = merges + n + rendered * n * n // 10**6
    # marker entries over all produced factors: sum of min(a, b) over
    # a < k, b < windows
    m, big = min(k, windows), max(k, windows)
    entries = m * (m - 1) * (3 * big - m - 1) // 6
    return steps, 460 * produced + 46 * entries + 2 * produced * n // 3


def _eliminate(
    factors: list[CrudeFactor], var: Var, consumed: tuple[int, ...], trace: bool
) -> tuple[CrudeFactor, ...]:
    # Eliminates var, rewriting the factors at its inequality's positions
    # in place, and returns the factors it produced there.  The factor at
    # consumed[0] must carry var^+1 alone and every other one var^-1 as
    # its first marker (ShapeError otherwise, with nothing rewritten).
    # Each -1 factor drops that first entry (its marker tuple is shared
    # one offset further on) and adds the +1 factor's q exponent; with
    # trace, its marker text drops its first denominator token.
    plus_pos, *minus_pos = consumed
    plus = factors[plus_pos]
    base, start = plus._base, plus._start
    if len(base) - start != 1 or base[start] != (var, 1):
        _reject(factors, var, consumed)
    minus = (var, -1)
    q_exp = plus.q_exp
    cut = len(str(var)) + 1
    produced = [_factor(q_exp, ())]
    for pos in minus_pos:
        fac = factors[pos]
        base, start = fac._base, fac._start
        if start == len(base) or base[start] != minus:
            _reject(factors, var, consumed)
        text = None
        if trace:
            num, den, den_count = fac._marks()
            text = (num, den[cut:], den_count - 1)
        produced.append(_factor(fac.q_exp + q_exp, base, start + 1, text))
    for pos, fac in zip(consumed, produced):
        factors[pos] = fac
    return tuple(produced)


def _reject(factors: list[CrudeFactor], var: Var, consumed: tuple[int, ...]) -> NoReturn:
    # The ShapeError for carriers that _eliminate cannot rewrite: var's
    # exponent is not +1 at consumed[0] and -1 elsewhere, an earlier
    # marker stands first on a carrier, or the +1 factor carries another
    # marker.
    plus_pos = consumed[0]
    for pos in consumed:
        e = dict(factors[pos].markers).get(var, 0)
        want = 1 if pos == plus_pos else -1
        if e != want:
            raise ShapeError(
                f"{var} appears with exponent {e} in factor {pos}, expected {want:+d}"
            )
    for pos in consumed:
        first = factors[pos].markers[0][0]
        if first != var:
            raise ShapeError(f"marker {first} survives elimination in factor {pos}")
    other = factors[plus_pos].markers[1][0]
    raise ShapeError(f"{var} shares its +1 factor {plus_pos} with marker {other}")


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
    marker in elimination order.  Each step checks the shape of its
    own marker's carriers, and a final pass rejects any marker left
    over (one the order never named); either violation means the
    engine itself is broken and surfaces as ``ShapeError``.  Raises
    ``ResourceLimitError`` past the cost bounds in the module docstring.
    """
    k, n = spec.k, spec.n
    steps_needed, trace_bytes = _omega_cost(k, n, trace)
    ResourceLimitError._check(
        steps_needed, _OMEGA_MAX_STEPS, "steps", "elimination at k={}, n={} takes about", k, n
    )
    if trace:
        ResourceLimitError._check(
            trace_bytes, _OMEGA_MAX_TRACE_BYTES, "bytes",
            "the elimination trace at k={}, n={} keeps about", k, n,
        )
    factors = list(build_crude(spec))
    steps: list[EliminationStep] = []
    for var in elimination_order(spec):
        consumed = tuple(_carriers(var, k))
        produced = _eliminate(factors, var, consumed, trace)
        if trace:
            steps.append(EliminationStep(var, consumed, produced))
    for pos, fac in enumerate(factors):
        if fac.markers:
            raise ShapeError(
                f"marker {fac.markers[0][0]} survives elimination in factor {pos}"
            )
    product = ClosedProduct(tuple(fac.q_exp for fac in factors))
    if trace:
        return product, steps
    return product
