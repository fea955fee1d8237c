"""Simulation machinery: reproducibility, predicates, and sanity of estimates."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from brokenstick import (
    DEFAULT_SEED,
    ProblemSpec,
    SimConfig,
    break_stick,
    estimate,
    predicate_forall,
    predicate_none,
    prob_ngon,
)
from brokenstick import montecarlo
from brokenstick.montecarlo import MODES, _chunk_seed, _run_block


def sorted_pieces(values):
    total = sum(values)
    return sorted((v / total for v in values), reverse=True)


def test_break_stick_basic_properties():
    rng = np.random.default_rng(7)
    for n in (2, 3, 6, 12):
        pieces = break_stick(n, rng)
        assert len(pieces) == n
        assert abs(pieces.sum() - 1.0) < 1e-12
        assert all(a >= b for a, b in zip(pieces, pieces[1:]))
        assert pieces[-1] >= 0
    with pytest.raises(ValueError):
        break_stick(1, rng)


def test_break_stick_reproducible():
    a = break_stick(5, np.random.default_rng(123))
    b = break_stick(5, np.random.default_rng(123))
    assert np.array_equal(a, b)


def test_predicate_none_examples():
    assert predicate_none([0.7, 0.2, 0.1], 3) is True
    assert predicate_none([0.4, 0.3, 0.3], 3) is False
    # exact tie: the window is flat, which still fails to close
    assert predicate_none([0.5, 0.25, 0.125, 0.125], 4) is True
    # k < n: a later window can close even when the first does not
    assert predicate_none([0.5, 0.2, 0.16, 0.14], 3) is False  # 0.2 < 0.16 + 0.14


def test_predicate_forall_examples():
    assert predicate_forall([0.3, 0.25, 0.25, 0.2], 3) is True
    assert predicate_forall([0.7, 0.2, 0.1], 3) is False
    # tie on the binding selection: flat, not a polygon
    assert predicate_forall([0.5, 0.25, 0.25], 3) is False


def test_predicate_domain():
    with pytest.raises(ValueError):
        predicate_none([0.5, 0.5], 3)
    with pytest.raises(ValueError):
        predicate_forall([0.4, 0.3, 0.3], 2)


@given(
    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=3, max_size=8),
    st.data(),
)
def test_forall_excludes_none(raw, data):
    pieces = sorted_pieces(raw)
    k = data.draw(st.integers(min_value=3, max_value=len(pieces)))
    # both can be False, but they can never hold together
    assert not (predicate_none(pieces, k) and predicate_forall(pieces, k))


@given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=3, max_size=8))
def test_predicates_complement_when_all_pieces_used(raw):
    # at k = n there is a single selection, so the two events partition
    # the space (the shared flat case counts as failing to close)
    pieces = sorted_pieces(raw)
    n = len(pieces)
    assert predicate_forall(pieces, n) != predicate_none(pieces, n)


def test_vectorized_blocks_match_scalar_predicates():
    # one block, replayed trial by trial with the scalar path
    mode, k, n, trials = "none", 3, 5, 400
    seed = _chunk_seed(DEFAULT_SEED, 0)
    hits = _run_block(mode, k, n, trials, seed)
    rng = np.random.default_rng(seed)
    expected = sum(predicate_none(break_stick(n, rng), k) for _ in range(trials))
    assert hits == expected


def test_vectorized_forall_matches_scalar():
    mode, k, n, trials = "forall", 4, 6, 400
    seed = _chunk_seed(99, 0)
    hits = _run_block(mode, k, n, trials, seed)
    rng = np.random.default_rng(seed)
    expected = sum(predicate_forall(break_stick(n, rng), k) for _ in range(trials))
    assert hits == expected


def test_slab_size_does_not_change_hits(monkeypatch):
    # slabs only bound memory: a block sliced into slabs of a few rows,
    # or of a single row when the budget is below n, draws the same
    # stream and counts the same hits as one whole-block slab
    k, n, trials = 3, 6, 1000
    seed = _chunk_seed(DEFAULT_SEED, 2)
    whole = {mode: _run_block(mode, k, n, trials, seed) for mode in MODES}
    for budget in (3 * n + 1, n - 1):
        monkeypatch.setattr(montecarlo, "_SLAB_FLOATS", budget)
        assert {mode: _run_block(mode, k, n, trials, seed) for mode in MODES} == whole


def test_estimate_is_deterministic():
    config = SimConfig(spec=ProblemSpec(3, 4), mode="exists", trials=20_000, seed=5, chunks=4)
    assert estimate(config) == estimate(config)


def test_estimate_chunking_changes_stream_but_not_contract():
    # different chunk counts draw different numbers, but each setting is
    # itself reproducible and all estimates agree statistically
    spec = ProblemSpec(3, 3)
    r1 = estimate(SimConfig(spec=spec, mode="none", trials=50_000, seed=3, chunks=1))
    r2 = estimate(SimConfig(spec=spec, mode="none", trials=50_000, seed=3, chunks=10))
    assert r1 == estimate(SimConfig(spec=spec, mode="none", trials=50_000, seed=3, chunks=1))
    assert abs(r1.estimate - r2.estimate) < 6 * (r1.stderr + r2.stderr)


def test_exists_complements_none_exactly():
    spec = ProblemSpec(3, 5)
    kwargs = dict(trials=25_000, seed=17, chunks=5)
    r_none = estimate(SimConfig(spec=spec, mode="none", **kwargs))
    r_exists = estimate(SimConfig(spec=spec, mode="exists", **kwargs))
    assert r_none.hits + r_exists.hits == r_none.trials


def test_ngon_mode_ignores_k():
    kwargs = dict(mode="ngon", trials=25_000, seed=23, chunks=5)
    r1 = estimate(SimConfig(spec=ProblemSpec(3, 5), **kwargs))
    r2 = estimate(SimConfig(spec=ProblemSpec(4, 5), **kwargs))
    assert r1 == r2


def test_estimate_statistical_sanity():
    # 200k trials of the square case, exact value 1/2
    config = SimConfig(spec=ProblemSpec(4, 4), mode="ngon", trials=200_000, seed=DEFAULT_SEED)
    result = estimate(config)
    exact = float(prob_ngon(4))
    assert abs(result.estimate - exact) < 5 * result.stderr
    assert result.hits == round(result.estimate * result.trials)
    assert 0 < result.stderr < 0.005


def test_blocks_partition_trials():
    # trials that do not divide evenly still all get run
    config = SimConfig(spec=ProblemSpec(3, 3), mode="none", trials=10_007, seed=1, chunks=8)
    result = estimate(config)
    assert result.trials == 10_007
    assert 0 <= result.hits <= 10_007
    # more chunks than trials leaves some blocks empty, which is fine
    tiny = estimate(SimConfig(spec=ProblemSpec(3, 3), mode="none", trials=4, seed=1, chunks=8))
    assert tiny.trials == 4


def test_config_validation():
    spec = ProblemSpec(3, 4)
    with pytest.raises(ValueError):
        SimConfig(spec=spec, mode="sometimes", trials=10)
    with pytest.raises(ValueError):
        SimConfig(spec=spec, mode="none", trials=0)
    with pytest.raises(ValueError):
        SimConfig(spec=spec, mode="none", trials=10, chunks=0)
    with pytest.raises(ValueError):
        SimConfig(spec=spec, mode="none", trials=10, seed=-1)


def test_chunk_seeds_are_spread_out():
    seeds = [_chunk_seed(DEFAULT_SEED, b) for b in range(64)]
    assert len(set(seeds)) == 64
    assert all(0 <= s < 2**64 for s in seeds)
