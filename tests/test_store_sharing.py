"""A clone shares its parent's var records and watch lists, and a weight
table is checked once, where it enters: the fact oracle's first read."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from abdlearn import mil
from abdlearn.fd import ADD, MUL, ConstraintStore, Dom, solve_best
from abdlearn.mil import TableFacts, WeightTable
from helpers_fd import gen_chain_store, gen_random_store, tables_of


def _snapshot(store: ConstraintStore):
    return (
        [(v.id, v.dom, v.base) for v in store.vars],
        list(store.constraints),
        {k: tuple(v) for k, v in store._watch.items()},
        store.failed,
    )


def _change(store: ConstraintStore, tables: dict, rng: np.random.Generator) -> None:
    """Post a constraint, propagate, pin a var and solve, all in store."""
    n = len(store.vars)
    i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
    di, dj = store.dom(i), store.dom(j)
    if not (di.is_empty or dj.is_empty):
        if rng.random() < 0.5:
            store.post(ADD, i, j, store.new_derived_var(di.lo + dj.lo, di.hi + dj.hi))
        else:
            store.post(MUL, i, j, store.new_derived_var(di.lo * dj.lo, di.hi * dj.hi))
    store.propagate()
    vid = int(rng.integers(0, len(store.vars)))
    dom = store.dom(vid)
    if not dom.is_empty:
        queue: list = []
        if store.set_dom(vid, dom.pin(int(rng.integers(dom.lo, min(dom.hi, dom.lo + 20) + 1))), queue):
            store.propagate(queue)
    store.post_eq_const(int(rng.integers(0, len(store.vars))), int(rng.integers(0, 30)))
    solve_best(store, tables)


@settings(max_examples=150, deadline=None)
@given(seed=st_.integers(0, 2**32 - 1), chain=st_.booleans())
def test_changing_a_clone_never_changes_its_parent(seed, chain):
    rng = np.random.default_rng(seed)
    if chain:
        store, plan = gen_chain_store(rng, int(rng.integers(1, 5)))
    else:
        store, plan = gen_random_store(rng)
    parent = _snapshot(store)
    child = store.clone()
    grandchild = child.clone()
    _change(grandchild, tables_of(plan), rng)
    assert _snapshot(child) == parent
    _change(child, tables_of(plan), rng)
    assert _snapshot(store) == parent


def test_a_clone_shares_records_until_a_domain_changes():
    st = ConstraintStore()
    x = st.new_weighted_var(10)
    y = st.new_weighted_var(10)
    child = st.clone()
    assert all(a is b for a, b in zip(child.vars, st.vars))
    child.post_eq_const(x, 4)
    assert child.vars[x] is not st.vars[x] and child.vars[y] is st.vars[y]
    assert st.dom(x) == Dom.range(0, 9) and child.dom(x).pinned() == 4


def test_intersecting_with_a_covering_interval_returns_the_domain():
    d = Dom.range(2, 7)
    assert d.intersect_interval(0, 9) is d
    assert d.intersect_interval(2, 7) is d
    assert d.intersect_interval(3, 9) == Dom.range(3, 7)


def test_a_malformed_table_raises_where_it_enters():
    facts = TableFacts({0: [0.5, 0.6], 1: [0.5, 0.5]})
    with pytest.raises(ValueError):
        facts.item_logweights(0)
    assert facts.item_label(0) == 1  # reading the most probable value needs no weight table
    facts.item_logweights(1)

    class Unnormalised:
        def log_probs(self, x):
            return np.full((len(x), 3), math.log(0.5))

    with pytest.raises(ValueError):
        TableFacts.from_model(np.zeros((2, 4)), model=Unnormalised()).item_logweights(1)


def test_a_nan_table_raises_where_it_enters():
    # abs(nan - 1) > 1e-9 is False, so a NaN total must be rejected on its own
    with pytest.raises(ValueError):
        WeightTable([math.nan] * 10)

    class Diverged:
        def log_probs(self, x):
            return np.full((len(x), 10), np.nan)

    with pytest.raises(ValueError):
        TableFacts.from_model(np.zeros((1, 4)), model=Diverged()).item_logweights(0)


def test_a_table_from_the_fact_oracle_is_checked_once(monkeypatch):
    facts = TableFacts({0: [0.25] * 4, 1: [0.5, 0.5]})
    calls = []
    monkeypatch.setattr(mil.math, "exp", lambda w: calls.append(w) or math.e**w)
    st = ConstraintStore()
    for _ in range(3):
        st.new_weighted_var(len(facts.item_logweights(0)))
        st.clone().new_weighted_var(len(facts.item_logweights(1)), base=1)
    assert len(calls) == 6  # one exp per value of each table, on its first read
    assert type(facts.item_logweights(0)) is WeightTable
