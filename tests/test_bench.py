"""Benchmarks: labeling-order cost comparison and metarule-set sweeps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abdlearn.bench import (
    bench_abduction,
    bench_metarule_sizes,
    bench_metarules,
    descending_assignments,
)
from abdlearn.metarules import default_metarules
from abdlearn.mil import SearchBudget
from abdlearn.tasks import SeqExample, SyntheticDigitGen, gen_sequences, make_task
from abdlearn.perception import MLP


class TableModel:
    """log_probs keyed by the first feature, used as a row index."""

    def __init__(self, probs):
        self.probs = np.asarray(probs, dtype=float)

    def log_probs(self, X):
        idx = np.asarray(X)[:, 0].astype(int)
        return np.log(self.probs[idx])


def peaked(truths, k=10, p=0.9):
    P = np.full((len(truths), k), (1 - p) / (k - 1))
    for i, t in enumerate(truths):
        P[i, t] = p
    return P


# ---------------------------------------------------------------------------
# descending enumeration order


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=4),
        min_size=1,
        max_size=4,
    )
)
def test_descending_assignments_exhaustive_and_sorted(weight_rows):
    logps = [np.log(np.asarray(row) / sum(row)) for row in weight_rows]
    got = list(descending_assignments(logps))
    sizes = [len(r) for r in logps]
    total = int(np.prod(sizes))
    assert len(got) == total
    assert len({t for t, _ in got}) == total  # no duplicates
    scores = [s for _, s in got]
    assert all(a >= b - 1e-12 for a, b in zip(scores, scores[1:]))
    # reported score matches the tuple it came with
    for classes, s in got[:5]:
        assert s == pytest.approx(sum(lp[c] for lp, c in zip(logps, classes)))


def test_descending_assignments_starts_at_argmax():
    logps = [np.log(np.array([0.1, 0.7, 0.2])), np.log(np.array([0.6, 0.4]))]
    first, score = next(descending_assignments(logps))
    assert first == (1, 0)
    assert score == pytest.approx(np.log(0.7) + np.log(0.6))


# ---------------------------------------------------------------------------
# labeling-order bench


def _seqs(truths_per_ex, task):
    out, nxt = [], 0
    for truth in truths_per_ex:
        x = np.full((len(truth), 4), 0.0)
        x[:, 0] = np.arange(nxt, nxt + len(truth))
        nxt += len(truth)
        y = sum(truth)
        out.append(SeqExample(x, y, tuple(truth)))
    return out


def test_bench_abduction_constraint_side_explores_less():
    # mid-training regime: model peaks on the wrong digit for half the items,
    # so the argmax tuple rarely satisfies the sum and enumeration digs deep
    rng = np.random.default_rng(5)
    truths = [tuple(int(d) for d in rng.integers(0, 10, size=4)) for _ in range(8)]
    exs = _seqs(truths, make_task("sum"))
    flat = [d for t in truths for d in t]
    P = np.full((len(flat), 10), 0.3 / 8)
    for i, d in enumerate(flat):
        if i % 2:
            P[i, (d + 3) % 10] = 0.45
            P[i, d] = 0.25
        else:
            P[i, d] = 0.45
            P[i, (d + 1) % 10] = 0.25
    model = TableModel(P)
    rows = bench_abduction(
        make_task("sum"), [exs[:4], exs[4:]], model, budget=SearchBudget(max_clauses=2)
    )
    assert all(r.solved for r in rows)
    # propagation prunes infeasible digit prefixes; blind enumeration cannot
    assert all(r.h_to_z < r.z_to_h for r in rows)
    assert all(r.h_to_z_ms >= 0 and r.z_to_h_ms >= 0 for r in rows)


def test_bench_abduction_length_one_counts_equal():
    # nothing to prune on singletons: one visit per example on both sides
    truths = [3, 7, 0, 9, 4, 1]
    exs = [SeqExample(np.array([[float(i), 0, 0, 0]]), t, (t,)) for i, t in enumerate(truths)]
    model = TableModel(peaked(truths))
    (row,) = bench_abduction(
        make_task("sum"), [exs], model, budget=SearchBudget(max_clauses=2)
    )
    assert row.solved
    assert row.h_to_z == row.z_to_h == len(truths)


# ---------------------------------------------------------------------------
# metarule-count bench


@pytest.fixture(scope="module")
def sum_exact_examples():
    task = make_task("sum")
    gen = SyntheticDigitGen(seed=1)
    return task, gen_sequences(task, 10, lengths=(2, 4), gen=gen, seed=7)


def test_bench_metarules_node_ordering(sum_exact_examples):
    task, exs = sum_exact_examples
    subsets = [
        ("chain", "ident"),
        ("chain", "ident", "postcon"),
        ("chain", "ident", "conj"),
        [r.name for r in default_metarules()],
    ]
    rows = bench_metarules(task, exs, subsets, budget=SearchBudget(max_clauses=2))
    assert [r.n_rules for r in rows] == [2, 3, 3, 9]
    assert all(r.solved for r in rows)
    core, postcon, conj, every = (r.nodes for r in rows)
    # Generation lists only clauses that type-check against the call, so
    # postcon, P(A,B) :- Q(A,B), R(B), adds no search: on f(list, int) every
    # instance needs B to be an int (the call's) and a list (R is empty/1,
    # the only arity-1 body predicate), and none is listed.
    assert postcon == core
    # conj, P(A,B) :- Q(A,B), R(A,B), has instances that type-check, such as
    # f(A,B) :- eq(A,B), f(A,B), so it adds search.
    assert core < conj <= every
    assert postcon <= every
    # same program wins under every complete subset
    assert all(r.score == pytest.approx(rows[0].score) for r in rows)


def test_bench_metarules_incomplete_subset_reports_unsolved(sum_exact_examples):
    task, exs = sum_exact_examples
    (row,) = bench_metarules(
        task, exs, subsets=[("precon", "postcon")], budget=SearchBudget(max_clauses=2)
    )
    assert not row.solved and row.score is None


def test_bench_metarule_sizes_worst_case(sum_exact_examples):
    task, exs = sum_exact_examples
    rows = bench_metarule_sizes(task, exs, sizes=(2, 3, 9), budget=SearchBudget(max_clauses=2))
    assert [r.n_rules for r in rows] == [2, 3, 9]
    assert all(task.metarule_names[0] in r.names for r in rows)
    assert rows[0].nodes < rows[1].nodes <= rows[2].nodes
    # worst case of size 3 dominates any single size-3 subset containing the core
    one = bench_metarules(
        task, exs, subsets=[("chain", "ident", "postcon")], budget=SearchBudget(max_clauses=2)
    )
    assert rows[1].nodes >= one[0].nodes


def test_bench_metarule_sizes_rejects_bad_size(sum_exact_examples):
    task, exs = sum_exact_examples
    with pytest.raises(ValueError):
        bench_metarule_sizes(task, exs, sizes=(1,))


def test_bench_abduction_with_partially_trained_perception():
    """Real model after one epoch, the state the alternating loop sees."""
    task = make_task("sum")
    gen = SyntheticDigitGen(seed=0)
    train = gen_sequences(task, 120, lengths=(2, 4), gen=gen, seed=3)
    X = np.concatenate([e.x for e in train])
    y = np.concatenate([e.truth for e in train])
    model = MLP(8, 10, hidden=32, lr=0.1, seed=0)
    model.fit(X, y, epochs=1, batch_size=32)
    bench_exs = gen_sequences(task, 16, lengths=(4, 4), gen=gen, seed=77)
    rows = bench_abduction(
        task, [bench_exs[:8], bench_exs[8:]], model, budget=SearchBudget(max_clauses=2)
    )
    assert all(r.solved for r in rows)
    assert all(r.h_to_z < r.z_to_h for r in rows)
