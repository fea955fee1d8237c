"""The crude-form builder and the marker elimination engine."""

import pytest

from brokenstick import (
    ClosedProduct,
    CrudeFactor,
    CrudeForm,
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


def test_build_crude_factor_count():
    for k in range(3, 7):
        for n in range(k, k + 5):
            form = build_crude(ProblemSpec(k, n))
            assert len(form.factors) == n
            assert all(fac.q_exp == 1 for fac in form.factors)


def test_build_crude_smallest_case():
    # k = n = 3: one window marker, two chain markers
    form = build_crude(ProblemSpec(3, 3))
    assert form.factors[0].powers == {lam(1): 1}
    assert form.factors[1].powers == {lam(1): -1, mu(2): 1}
    assert form.factors[2].powers == {lam(1): -1, mu(2): -1}


def test_build_crude_marker_pattern():
    # k=4, n=7: four windows, chain on the last three pieces
    form = build_crude(ProblemSpec(4, 7))
    assert form.factors[0].powers == {lam(1): 1}
    assert form.factors[1].powers == {lam(2): 1, lam(1): -1}
    assert form.factors[3].powers == {lam(4): 1, lam(1): -1, lam(2): -1, lam(3): -1}
    # piece 5 = n - k + 2 starts the ordering chain
    assert form.factors[4].powers == {lam(2): -1, lam(3): -1, lam(4): -1, mu(5): 1}
    assert form.factors[5].powers == {lam(3): -1, lam(4): -1, mu(6): 1, mu(5): -1}
    assert form.factors[6].powers == {lam(4): -1, mu(6): -1}


def test_marker_discipline_in_crude_form():
    # every marker: one +1 factor, the rest -1
    for k in range(3, 7):
        for n in range(k, k + 5):
            form = build_crude(ProblemSpec(k, n))
            for var in form.variables():
                exps = [f.exponent_of(var) for f in form.factors if f.exponent_of(var)]
                assert exps.count(1) == 1
                assert set(exps) <= {1, -1}


def test_eliminate_two_factor_identity():
    # 1/((1 - q*v)(1 - q/v)) -> 1/((1 - q)(1 - q^2))
    v = lam(1)
    form = CrudeForm((CrudeFactor(1, {v: 1}), CrudeFactor(1, {v: -1})))
    out = eliminate(form, v)
    assert [f.q_exp for f in out.factors] == [1, 2]
    assert all(not f.powers for f in out.factors)


def test_eliminate_broadcasts_into_each_minus_factor():
    # the +1 monomial multiplies every -1 factor independently, so three
    # -1 factors all gain the same q (no compounding across them)
    v = lam(1)
    form = CrudeForm(
        (
            CrudeFactor(1, {v: 1}),
            CrudeFactor(1, {v: -1}),
            CrudeFactor(1, {v: -1}),
            CrudeFactor(1, {v: -1}),
        )
    )
    out = eliminate(form, v)
    assert [f.q_exp for f in out.factors] == [1, 2, 2, 2]


def test_eliminate_carries_other_markers_along():
    # the +1 factor's surviving markers ride into each -1 factor
    v, w = lam(1), lam(2)
    form = CrudeForm(
        (
            CrudeFactor(1, {v: 1, w: 1}),
            CrudeFactor(1, {v: -1}),
            CrudeFactor(1, {w: -1}),
        )
    )
    out = eliminate(form, v)
    assert out.factors[0].powers == {w: 1}
    assert out.factors[1].powers == {w: 1}
    assert out.factors[1].q_exp == 2
    # untouched factor is exactly the old object
    assert out.factors[2] == form.factors[2]


def test_eliminate_cancels_opposite_exponents():
    # merging +1 and -1 of the same marker must drop it, not store 0
    v, w = lam(1), lam(2)
    form = CrudeForm(
        (
            CrudeFactor(1, {v: 1, w: 1}),
            CrudeFactor(1, {v: -1, w: -1}),
        )
    )
    out = eliminate(form, v)
    assert out.factors[1].powers == {}
    assert out.factors[1].q_exp == 2


def test_eliminate_shape_errors():
    v = lam(1)
    with pytest.raises(ShapeError):
        eliminate(CrudeForm((CrudeFactor(1, {v: -1}),)), v)  # no +1
    with pytest.raises(ShapeError):
        eliminate(
            CrudeForm((CrudeFactor(1, {v: 1}), CrudeFactor(1, {v: 1}))), v
        )  # two +1
    with pytest.raises(ShapeError):
        eliminate(CrudeForm((CrudeFactor(1, {v: 2}),)), v)  # exponent 2
    with pytest.raises(ShapeError):
        eliminate(
            CrudeForm((CrudeFactor(1, {v: 1}), CrudeFactor(2, {v: -2}))), v
        )  # exponent -2


def _crude_with(spec, edits):
    # crude form for spec with some factors' marker powers overwritten
    factors = list(build_crude(spec).factors)
    for pos, changes in edits.items():
        factors[pos] = CrudeFactor(factors[pos].q_exp, {**factors[pos].powers, **changes})
    return CrudeForm(tuple(factors))


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
            assert set(order) == build_crude(spec).variables()


def test_trace_structure():
    spec = ProblemSpec(4, 6)
    product, steps = run_elimination(spec, trace=True)
    assert product.sorted_exponents() == (1, 2, 4, 8, 15, 20)
    assert [s.var for s in steps] == elimination_order(spec)
    for step in steps:
        assert len(step.consumed) == len(step.produced)
        assert len(set(step.consumed)) == len(step.consumed)
        # replacement factors no longer carry the eliminated marker
        assert all(f.exponent_of(step.var) == 0 for f in step.produced)


def test_trace_replays_to_same_product():
    # applying each step's produced factors at its consumed positions,
    # starting from the crude form, must reproduce the final exponents
    spec = ProblemSpec(5, 7)
    product, steps = run_elimination(spec, trace=True)
    factors = list(build_crude(spec).factors)
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
