"""The crude-form builder and the marker elimination engine."""

import importlib
import pkgutil

import pytest
from hypothesis import given, settings, strategies as st

import brokenstick
from brokenstick import (
    ClosedProduct,
    CrudeFactor,
    ProblemSpec,
    ResourceLimitError,
    ShapeError,
    Var,
    build_crude,
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


def eliminated(factors, var, consumed):
    # one engine step on a list copy, so the input can be checked after;
    # consumed names var's carriers, the +1 position first
    out = list(factors)
    omega._eliminate(out, var, consumed, False)
    return out


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


def test_run_elimination_refuses_past_bounds_before_building(monkeypatch):
    def fail(spec):
        raise AssertionError("the crude form was built")

    monkeypatch.setattr(omega, "build_crude", fail)
    for trace in (False, True):
        with pytest.raises(ResourceLimitError, match=f"limit {omega._OMEGA_MAX_STEPS}"):
            run_elimination(ProblemSpec(3, 17042), trace=trace)
    with pytest.raises(ResourceLimitError, match=f"limit {omega._OMEGA_MAX_TRACE_BYTES}"):
        run_elimination(ProblemSpec(100, 2540), trace=True)
    # the trace bound applies only to a traced run
    with pytest.raises(AssertionError, match="crude form was built"):
        run_elimination(ProblemSpec(100, 2540))


def test_eliminate_two_factor_identity():
    # 1/((1 - q*v)(1 - q/v)) -> 1/((1 - q)(1 - q^2))
    v = lam(1)
    out = eliminated((CrudeFactor(1, {v: 1}), CrudeFactor(1, {v: -1})), v, (0, 1))
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
    out = eliminated(factors, v, (0, 1, 2, 3))
    assert [f.q_exp for f in out] == [1, 2, 2, 2]
    # the input keeps its factors and their monomials
    assert [f.powers for f in factors] == [{v: 1}, {v: -1}, {v: -1}, {v: -1}]


def test_eliminate_rejects_other_markers_on_plus_factor():
    # a +1 factor with a second marker is outside the one rewrite
    v, w = lam(1), lam(2)
    factors = (
        CrudeFactor(1, {v: 1, w: 1}),
        CrudeFactor(1, {v: -1}),
        CrudeFactor(1, {w: -1}),
    )
    with pytest.raises(ShapeError, match=r"lambda_1 shares its \+1 factor 0 with marker lambda_2"):
        eliminated(factors, v, (0, 1))


def test_eliminate_rejects_opposite_exponents_on_plus_factor():
    # w^+1 on the +1 factor would cancel w^-1 on the -1 factor; the
    # step rejects it instead of merging
    v, w = lam(1), lam(2)
    factors = (
        CrudeFactor(1, {v: 1, w: 1}),
        CrudeFactor(1, {v: -1, w: -1}),
    )
    with pytest.raises(ShapeError, match=r"lambda_1 shares its \+1 factor 0 with marker lambda_2"):
        eliminated(factors, v, (0, 1))


def test_eliminate_shape_errors():
    v = lam(1)
    with pytest.raises(ShapeError):
        eliminated((CrudeFactor(1, {v: -1}),), v, (0,))  # no +1
    with pytest.raises(ShapeError):
        eliminated((CrudeFactor(1, {v: 1}), CrudeFactor(1, {v: 1})), v, (0, 1))  # two +1
    with pytest.raises(ShapeError):
        eliminated((CrudeFactor(1, {v: 2}),), v, (0,))  # exponent 2
    with pytest.raises(ShapeError):
        eliminated((CrudeFactor(1, {v: 1}), CrudeFactor(2, {v: -2})), v, (0, 1))  # exponent -2
    with pytest.raises(ShapeError, match="exponent 0 in factor 1"):
        eliminated((CrudeFactor(1, {v: 1}), CrudeFactor(1, {})), v, (0, 1))  # missing -1


def _crude_with(spec, edits):
    # crude form for spec with some factors' marker powers overwritten;
    # an exponent of 0 drops the marker from that factor
    factors = list(build_crude(spec))
    for pos, changes in edits.items():
        powers = {**factors[pos].powers, **changes}
        factors[pos] = CrudeFactor(factors[pos].q_exp, {v: e for v, e in powers.items() if e})
    return tuple(factors)


@pytest.mark.parametrize(
    "edits, message",
    [
        # a marker elimination_order never names rides the +1 factor of lambda_3
        (
            {2: {Var("nu", 1): 1}, 3: {Var("nu", 1): -1}},
            r"lambda_3 shares its \+1 factor 2 with marker nu_1",
        ),
        # the last chain marker gains a second +1 factor, on the +1 factor
        # of the first window marker
        ({0: {mu(4): 1}}, r"lambda_1 shares its \+1 factor 0 with marker mu_4"),
        # exponent 2 on a window marker that is eliminated after the first
        ({2: {lam(2): 2}}, "lambda_2 appears with exponent 2"),
        # piece 2 loses its lambda_1^-1: the product of another system
        ({1: {lam(1): 0}}, "lambda_1 appears with exponent 0 in factor 1"),
        # piece 5 gains a lambda_1^-1 outside the window of lambda_1; it
        # still stands first there at lambda_3's step
        ({4: {lam(1): -1}}, "lambda_1 survives elimination in factor 4"),
        # the +1 of lambda_2 moves from piece 2 to piece 3
        ({1: {lam(2): -1}, 2: {lam(2): 1}}, "lambda_2 appears with exponent -1 in factor 1"),
        # a marker that sorts after every named one rides the last -1
        # carrier to the end: only the final check sees it
        ({4: {Var("nu", 1): -1}}, "nu_1 survives elimination in factor 4"),
    ],
    ids=[
        "unknown-marker",
        "late-double-plus",
        "exponent-2",
        "dropped-minus",
        "stray-minus",
        "moved-plus",
        "trailing-marker",
    ],
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


def test_carried_trace_text_matches_fresh_rendering():
    # a traced elimination cuts each rewritten -1 factor's text from the
    # text of the factor it replaced; it must equal a rendering from its
    # markers alone
    for k in range(3, 13):
        for n in range(k, k + 25):
            _, steps = run_elimination(ProblemSpec(k, n), trace=True)
            for step in steps:
                for fac in step.produced[1:]:
                    assert fac._text is not None, (k, n, step.var)
                    assert fac._text == omega._marker_text(fac.markers), (k, n, step.var)


def test_untraced_elimination_renders_no_text(monkeypatch):
    def fail(markers):
        raise AssertionError("marker text was rendered")

    monkeypatch.setattr(omega, "_marker_text", fail)
    assert run_elimination(ProblemSpec(30, 300)) == run_elimination(ProblemSpec(30, 300))
    with pytest.raises(AssertionError, match="rendered"):
        run_elimination(ProblemSpec(3, 4), trace=True)


def test_factor_keeps_markers_in_var_order():
    fac = CrudeFactor(2, {mu(5): -1, lam(2): 1, lam(1): -1})
    assert fac.markers == ((lam(1), -1), (lam(2), 1), (mu(5), -1))
    assert fac == CrudeFactor(2, {lam(1): -1, lam(2): 1, mu(5): -1})
    assert fac != CrudeFactor(3, fac.powers)


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


@settings(deadline=None)
@given(st.integers(min_value=3, max_value=40), st.integers(min_value=0, max_value=80))
def test_run_elimination_matches_prediction_property(k, extra):
    spec = ProblemSpec(k, k + extra)
    product = run_elimination(spec)
    assert product.sorted_exponents() == tuple(sorted(parts_multiset(k, k + extra)))
    assert run_elimination(spec, trace=True)[0] == product


def test_every_exported_name_resolves():
    modules = [brokenstick] + [
        importlib.import_module(f"brokenstick.{info.name}")
        for info in pkgutil.iter_modules(brokenstick.__path__)
    ]
    for module in modules:
        for name in module.__all__:
            assert hasattr(module, name), (module.__name__, name)
