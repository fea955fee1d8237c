"""The crude-form builder and the marker elimination engine."""

import importlib
import pkgutil

import pytest

import brokenstick
from brokenstick import (
    ClosedProduct,
    CrudeFactor,
    ProblemSpec,
    ShapeError,
    Var,
    build_crude,
    eliminate,
    f_sum,
    parts_multiset,
    run_elimination,
)
from brokenstick import omega
from brokenstick.omega import LAMBDA, MU, elimination_order


def lam(i):
    return Var(LAMBDA, i)


def mu(i):
    return Var(MU, i)


def variables(factors):
    return {v for fac in factors for v in fac.powers}


def test_build_crude_factor_count():
    for k in range(3, 7):
        for n in range(k, k + 5):
            factors = build_crude(ProblemSpec(k, n))
            assert len(factors) == n
            assert all(fac.q_exp == 1 for fac in factors)


def test_build_crude_smallest_case():
    # k = n = 3: one window marker, two chain markers
    factors = build_crude(ProblemSpec(3, 3))
    assert factors[0].powers == {lam(1): 1}
    assert factors[1].powers == {lam(1): -1, mu(2): 1}
    assert factors[2].powers == {lam(1): -1, mu(2): -1}


def test_build_crude_marker_pattern():
    # k=4, n=7: four windows, chain on the last three pieces
    factors = build_crude(ProblemSpec(4, 7))
    assert factors[0].powers == {lam(1): 1}
    assert factors[1].powers == {lam(2): 1, lam(1): -1}
    assert factors[3].powers == {lam(4): 1, lam(1): -1, lam(2): -1, lam(3): -1}
    # piece 5 = n - k + 2 starts the ordering chain
    assert factors[4].powers == {lam(2): -1, lam(3): -1, lam(4): -1, mu(5): 1}
    assert factors[5].powers == {lam(3): -1, lam(4): -1, mu(6): 1, mu(5): -1}
    assert factors[6].powers == {lam(4): -1, mu(6): -1}


def test_marker_discipline_in_crude_form():
    # every marker: one +1 factor, the rest -1
    for k in range(3, 7):
        for n in range(k, k + 5):
            factors = build_crude(ProblemSpec(k, n))
            for var in variables(factors):
                exps = [f.powers[var] for f in factors if var in f.powers]
                assert exps.count(1) == 1
                assert set(exps) <= {1, -1}


def test_eliminate_two_factor_identity():
    # 1/((1 - q*v)(1 - q/v)) -> 1/((1 - q)(1 - q^2))
    v = lam(1)
    out = eliminate((CrudeFactor(1, {v: 1}), CrudeFactor(1, {v: -1})), v)
    assert [f.q_exp for f in out] == [1, 2]
    assert all(not f.powers for f in out)


def test_eliminate_broadcasts_into_each_minus_factor():
    # the +1 monomial multiplies every -1 factor independently, so three
    # -1 factors all gain the same q (no compounding across them)
    v = lam(1)
    factors = (
        CrudeFactor(1, {v: 1}),
        CrudeFactor(1, {v: -1}),
        CrudeFactor(1, {v: -1}),
        CrudeFactor(1, {v: -1}),
    )
    out = eliminate(factors, v)
    assert [f.q_exp for f in out] == [1, 2, 2, 2]
    # the input keeps its factors and their monomials
    assert [f.powers for f in factors] == [{v: 1}, {v: -1}, {v: -1}, {v: -1}]


def test_eliminate_carries_other_markers_along():
    # the +1 factor's surviving markers ride into each -1 factor
    v, w = lam(1), lam(2)
    factors = (
        CrudeFactor(1, {v: 1, w: 1}),
        CrudeFactor(1, {v: -1}),
        CrudeFactor(1, {w: -1}),
    )
    out = eliminate(factors, v)
    assert out[0].powers == {w: 1}
    assert out[1].powers == {w: 1}
    assert out[1].q_exp == 2
    # untouched factor is exactly the old object
    assert out[2] is factors[2]


def test_eliminate_cancels_opposite_exponents():
    # merging +1 and -1 of the same marker must drop it, not store 0
    v, w = lam(1), lam(2)
    factors = (
        CrudeFactor(1, {v: 1, w: 1}),
        CrudeFactor(1, {v: -1, w: -1}),
    )
    out = eliminate(factors, v)
    assert out[1].powers == {}
    assert out[1].q_exp == 2


def test_eliminate_shape_errors():
    v = lam(1)
    with pytest.raises(ShapeError):
        eliminate((CrudeFactor(1, {v: -1}),), v)  # no +1
    with pytest.raises(ShapeError):
        eliminate((CrudeFactor(1, {v: 1}), CrudeFactor(1, {v: 1})), v)  # two +1
    with pytest.raises(ShapeError):
        eliminate((CrudeFactor(1, {v: 2}),), v)  # exponent 2
    with pytest.raises(ShapeError):
        eliminate((CrudeFactor(1, {v: 1}), CrudeFactor(2, {v: -2})), v)  # exponent -2


def _crude_with(spec, edits):
    # crude form for spec with some factors' marker powers overwritten
    factors = list(build_crude(spec))
    for pos, changes in edits.items():
        factors[pos] = CrudeFactor(factors[pos].q_exp, {**factors[pos].powers, **changes})
    return tuple(factors)


@pytest.mark.parametrize(
    "edits, message",
    [
        # a marker elimination_order never names: only the final check sees it
        ({2: {Var("nu", 1): 1}, 3: {Var("nu", 1): -1}}, "nu_1 survives"),
        # the last chain marker gains a second +1 factor; it is only met
        # after every window marker has been eliminated
        ({0: {mu(4): 1}}, r"mu_4 appears with exponent \+1 in factors"),
        # exponent 2 on a window marker that is eliminated after the first
        ({2: {lam(2): 2}}, "lambda_2 appears with exponent 2"),
    ],
    ids=["unknown-marker", "late-double-plus", "exponent-2"],
)
def test_run_elimination_rejects_broken_crude_forms(monkeypatch, edits, message):
    spec = ProblemSpec(3, 5)  # markers lambda_1..3, then mu_4
    broken = _crude_with(spec, edits)
    monkeypatch.setattr(omega, "build_crude", lambda s: broken)
    with pytest.raises(ShapeError, match=message):
        run_elimination(spec)
    with pytest.raises(ShapeError, match=message):
        run_elimination(spec, trace=True)


def test_factor_validation():
    with pytest.raises(ValueError):
        CrudeFactor(-1, {})
    with pytest.raises(ValueError):
        CrudeFactor(1, {lam(1): 0})
    with pytest.raises(ValueError):
        ClosedProduct((1, 0, 2))


def test_run_elimination_known_products():
    assert run_elimination(ProblemSpec(3, 4)).sorted_exponents() == (1, 2, 4, 7)
    assert run_elimination(ProblemSpec(4, 6)).sorted_exponents() == (1, 2, 4, 8, 15, 20)
    assert run_elimination(ProblemSpec(5, 5)).sorted_exponents() == (1, 2, 4, 6, 8)
    assert run_elimination(ProblemSpec(3, 3)).sorted_exponents() == (1, 2, 4)


def test_run_elimination_matches_prediction_grid():
    for k in range(3, 7):
        for n in range(k, k + 5):
            spec = ProblemSpec(k, n)
            got = run_elimination(spec).sorted_exponents()
            assert got == tuple(sorted(parts_multiset(k, n))), (k, n)


def test_k4_explicit_form():
    # k = 4 exponents are the order-3 running sums plus one extra value
    # 1 + f_3(n-2) + f_3(n)
    for n in range(6, 11):
        got = sorted(run_elimination(ProblemSpec(4, n)).exponents)
        want = sorted(
            [f_sum(3, i) for i in range(2, n + 1)]
            + [1 + f_sum(3, n - 2) + f_sum(3, n)]
        )
        assert got == want


def test_elimination_order_covers_all_markers_once():
    for k in range(3, 7):
        for n in range(k, k + 4):
            spec = ProblemSpec(k, n)
            order = elimination_order(spec)
            assert len(order) == n - 1
            assert set(order) == variables(build_crude(spec))


def test_trace_structure():
    spec = ProblemSpec(4, 6)
    product, steps = run_elimination(spec, trace=True)
    assert product.sorted_exponents() == (1, 2, 4, 8, 15, 20)
    assert [s.var for s in steps] == elimination_order(spec)
    for step in steps:
        assert len(step.consumed) == len(step.produced)
        assert len(set(step.consumed)) == len(step.consumed)
        # replacement factors no longer carry the eliminated marker
        assert all(step.var not in f.powers for f in step.produced)


def test_trace_replays_to_same_product():
    # applying each step's produced factors at its consumed positions,
    # starting from the crude form, must reproduce the final exponents
    spec = ProblemSpec(5, 7)
    product, steps = run_elimination(spec, trace=True)
    factors = list(build_crude(spec))
    for step in steps:
        for pos, fac in zip(step.consumed, step.produced):
            factors[pos] = fac
    assert all(not f.powers for f in factors)
    assert tuple(f.q_exp for f in factors) == product.exponents


def test_run_elimination_is_deterministic():
    a = run_elimination(ProblemSpec(4, 8), trace=True)
    b = run_elimination(ProblemSpec(4, 8), trace=True)
    assert a == b


def test_exponents_keep_construction_order():
    # positions stay aligned with pieces, so the piece-1 exponent comes
    # first and equals 1; sorted_exponents is the canonical view
    for k, n in [(3, 6), (4, 6), (5, 8)]:
        product = run_elimination(ProblemSpec(k, n))
        assert product.exponents[0] == 1
        assert tuple(sorted(product.exponents)) == product.sorted_exponents()


def test_monomial_rendering():
    fac = CrudeFactor(2, {lam(2): 1, lam(1): -1, mu(5): -1})
    assert fac.monomial() == "q^2*lambda_2/(lambda_1*mu_5)"
    assert CrudeFactor(1, {}).monomial() == "q"
    assert CrudeFactor(0, {lam(1): 1}).monomial() == "lambda_1"


def naive_system(k, n):
    """The crude form read off the inequality system in the module docstring.

    One (q exponent, {marker name: exponent}) pair per piece.  Window i
    puts lambda_i^+1 on piece i and lambda_i^-1 on pieces i+1..i+k-1;
    the tail ordering b_i >= b_{i+1} puts mu_i^+1 on piece i and
    mu_i^-1 on piece i+1.  Returns the form and the marker names in
    elimination order.
    """
    form = [(1, {}) for _ in range(n)]
    markers = []
    inequalities = [("lambda", i, range(i + 1, i + k)) for i in range(1, n - k + 2)]
    inequalities += [("mu", i, [i + 1]) for i in range(n - k + 2, n)]
    for kind, i, small in inequalities:
        name = f"{kind}_{i}"
        markers.append(name)
        form[i - 1][1][name] = 1
        for piece in small:
            form[piece - 1][1][name] = -1
    return form, markers


def naive_eliminate(form, name):
    """One rewrite on a fresh copy of the whole form.

    1/(1 - v X), 1/(1 - Y_i / v) become 1/(1 - X), 1/(1 - X Y_i).
    Returns the new form, the positions that carried v (the +1 first)
    and their new factors.
    """
    plus = [pos for pos, (_, p) in enumerate(form) if p.get(name) == 1]
    minus = [pos for pos, (_, p) in enumerate(form) if p.get(name) == -1]
    assert len(plus) == 1
    assert all(p.get(name, 1) in (1, -1) for _, p in form)
    x_q, x = form[plus[0]][0], {v: e for v, e in form[plus[0]][1].items() if v != name}
    new = [(q, dict(p)) for q, p in form]
    new[plus[0]] = (x_q, x)
    for pos in minus:
        q, p = form[pos]
        y = {v: e for v, e in p.items() if v != name}
        for v, e in x.items():
            y[v] = y.get(v, 0) + e
        new[pos] = (q + x_q, {v: e for v, e in y.items() if e})
    consumed = plus + minus
    return new, consumed, [new[pos] for pos in consumed]


def test_run_elimination_matches_naive_reference():
    for k in range(3, 11):
        for n in range(k, k + 21):
            product, steps = run_elimination(ProblemSpec(k, n), trace=True)
            form, markers = naive_system(k, n)
            assert [str(step.var) for step in steps] == markers, (k, n)
            for step, name in zip(steps, markers):
                form, consumed, produced = naive_eliminate(form, name)
                assert step.consumed == tuple(consumed), (k, n, name)
                got = [(f.q_exp, {str(v): e for v, e in f.powers.items()}) for f in step.produced]
                assert got == produced, (k, n, name)
            assert all(not p for _, p in form)
            assert product.exponents == tuple(q for q, _ in form), (k, n)


def test_every_exported_name_resolves():
    modules = [brokenstick] + [
        importlib.import_module(f"brokenstick.{info.name}")
        for info in pkgutil.iter_modules(brokenstick.__path__)
    ]
    for module in modules:
        for name in module.__all__:
            assert hasattr(module, name), (module.__name__, name)
