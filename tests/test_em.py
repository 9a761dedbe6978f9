"""EM loop: the fact oracle built from perception, E-step optimality, M-step, bookkeeping."""

import csv
import dataclasses
import itertools
import math

import numpy as np
import pytest

from abdlearn import kb as kb_module, tasks
from abdlearn.em import (
    EMConfig,
    EMError,
    METRIC_COLUMNS,
    train,
    run_curriculum,
)
from abdlearn.metarules import DEFAULT_LIBRARY, program_text
from abdlearn.mil import ExampleLabeling, SearchBudget, TableFacts, induce, log_prior
from abdlearn.perception import MLP, PairModel
from abdlearn.tasks import SeqExample, SyntheticDigitGen, gen_sequences, make_task


class TableModel:
    """Classifier stub: feature row [i] looks up row i of a prob table."""

    def __init__(self, probs):
        self._logp = np.log(np.asarray(probs, dtype=float))

    def log_probs(self, X):
        idx = np.asarray(X)[:, 0].astype(int)
        return self._logp[idx]

    def predict_label(self, X):
        X = np.atleast_2d(X)
        out = np.argmax(self.log_probs(X), axis=-1)
        return int(out[0]) if out.shape[0] == 1 else out


def peaked(truth, k=10, p=0.9):
    """Per-item distribution table concentrated on the true digit."""
    rows = []
    for d in truth:
        row = np.full(k, (1 - p) / (k - 1))
        row[d] = p
        rows.append(row)
    return rows


def idx_features(n):
    return np.arange(n, dtype=float).reshape(n, 1)


def seq(truth, y):
    return SeqExample(idx_features(len(truth)), y, tuple(truth))


# ---------------------------------------------------------------------------
# The fact oracle built from perception
# ---------------------------------------------------------------------------


class _RefModelFacts:
    """Reference: the model oracle as a class of its own, before TableFacts
    took its place; TableFacts.from_model must read the same bits."""

    def __init__(self, features, model=None, pair_model=None, value_base=0):
        self.features = features
        self.value_base = value_base
        self._pair = pair_model
        self._logp = model.log_probs(features) if model is not None and len(features) else None

    def item_logweights(self, item):
        return [float(v) for v in self._logp[item]]

    def pair_logprob(self, a, b):
        p = float(self._pair.predict_pair(self.features[a], self.features[b]))
        return math.log(min(max(p, 1e-9), 1.0 - 1e-9))


def _ref_perception_acc(task, batch, model, pair_model):
    """Reference: perception_acc asking the nets again, one example at a time."""
    hits = total = 0
    for ex in batch:
        if ex.truth is None:
            continue
        if task.dyadic:
            n = len(ex)
            for i in range(n):
                for j in range(i + 1, n):
                    pred = pair_model.predict_pair(ex.x[i], ex.x[j]) >= 0.5
                    hits += int(pred == (ex.truth[i] >= ex.truth[j]))
                    total += 1
        else:
            labels = model.predict_label(ex.x)
            for lab, d in zip(np.atleast_1d(labels), ex.truth):
                hits += int(int(lab) + task.value_base == d)
                total += 1
    return hits / total if total else None


def _bits(values):
    return [float(v).hex() for v in values]


def test_model_facts_item_weights_normalized():
    model = TableModel(peaked([3, 7]))
    facts = TableFacts.from_model(idx_features(2), model=model)
    w = facts.item_logweights(0)
    assert len(w) == 10
    assert abs(sum(math.exp(v) for v in w) - 1.0) < 1e-9
    assert max(range(10), key=lambda i: w[i]) == 3
    assert (facts.item_label(0), facts.item_label(1)) == (3, 7)


def test_model_facts_pair_clipped():
    class HardPair:
        def predict_pair(self, a, b):
            return 1.0 if a[0] >= b[0] else 0.0

        def predict_pairs(self, features, pairs):
            return [self.predict_pair(features[a], features[b]) for a, b in pairs]

    facts = TableFacts.from_model(idx_features(2), HardPair())
    assert facts.pair_logprob(1, 0) < 0.0  # never exactly log(1) = 0
    assert math.isfinite(facts.pair_logprob(0, 1))
    assert facts.pair_prob(1, 0) >= 0.5 > facts.pair_prob(0, 1)  # clipping keeps the side of 0.5


def test_model_facts_match_the_reference_bit_for_bit():
    gen = SyntheticDigitGen(seed=2)
    task = make_task("sum")
    batch = gen_sequences(task, 8, lengths=(2, 5), gen=gen, seed=3)
    features, spans, _ = tasks.assemble(task, batch)
    model, pair = MLP(8, 10, seed=5), PairModel(8, seed=5)
    facts = TableFacts.from_model(features, model, groups=spans)
    pair_facts = TableFacts.from_model(features, pair, groups=spans)
    ref = _RefModelFacts(features, model=model, pair_model=pair)
    for i in range(len(features)):
        assert _bits(facts.item_logweights(i)) == _bits(ref.item_logweights(i))
    # pairs: bit for bit what one predict_pairs call over the groups reads,
    # and within rounding of one single-row forward per pair
    pairs = [(a, b) for ids in spans for a in ids for b in ids]
    batched = [math.log(min(max(p, 1e-9), 1.0 - 1e-9)) for p in pair.predict_pairs(features, pairs)]
    got = [pair_facts.pair_logprob(a, b) for a, b in pairs]
    assert [v.hex() for v in got] == [v.hex() for v in batched]
    assert max(abs(v - ref.pair_logprob(a, b)) for v, (a, b) in zip(got, pairs)) <= 1e-12
    # the exact constructor: certainty reads 0.0, impossibility -inf
    labels = {0: 3, 1: 5, 2: 5}
    exact = TableFacts.exact(labels, value_base=1, pairs=lambda a, b: labels[a] >= labels[b])
    for i, d in labels.items():
        assert exact.item_logweights(i) == tuple(0.0 if v == d - 1 else -math.inf for v in range(10))
        assert exact.item_label(i) == d
    for a in labels:
        for b in labels:
            assert exact.pair_logprob(a, b) == (0.0 if labels[a] >= labels[b] else -math.inf)
    # a label outside the values gives every value probability 0, which is
    # no weight table; a tie reads its first value
    outside = TableFacts.exact({0: 0, 1: 11}, value_base=1)
    for i in (0, 1):
        assert outside.item_label(i) == 1
        with pytest.raises(ValueError):
            outside.item_logweights(i)
    assert TableFacts({0: [0.25, 0.5, 0.25, 0.0]}, value_base=2).item_label(0) == 3
    assert TableFacts({1: [0.5, 0.5]}).item_label(1) == 0


class _CountingPair:
    """Pair model spy: a fixed pseudo-random order, the ordered pairs of
    every predict_pairs call recorded."""

    def __init__(self):
        self.calls = []

    def predict_pair(self, a, b):
        return 0.5 + 0.4 * math.sin(3.0 * a[0] - 7.0 * b[0])

    def predict_pairs(self, features, pairs):
        self.calls.append(list(pairs))
        return [self.predict_pair(features[a], features[b]) for a, b in self.calls[-1]]

    def fit_pairs(self, pairs, epochs=1, batch_size=None):
        return 0.0


def _induce_batch(task, batch, facts, max_clauses):
    """The E-step as train runs it: one induce call on the batch's goals."""
    _, spans, _ = tasks.assemble(task, batch)  # items numbered in order across the batch
    goals = [task.goal(ids, ex.y) for ex, ids in zip(batch, spans)]
    return induce(goals, task.setting(), facts, SearchBudget(max_clauses=max_clauses))


def test_model_facts_reads_each_pair_once_per_batch():
    task = make_task("sorted_concept")
    batch = gen_sequences(task, 6, lengths=(2, 4), seed=3)
    features, spans, _ = tasks.assemble(task, batch)
    spy = _CountingPair()
    facts = TableFacts.from_model(np.arange(len(features), dtype=float).reshape(-1, 1), spy, groups=spans)
    _induce_batch(task, batch, facts, 3)
    assert len(spy.calls) == 1 and len(spy.calls[0]) == len(set(spy.calls[0]))
    assert set(spy.calls[0]) == {(a, b) for ids in spans for a in ids for b in ids}
    facts.pair_logprob(0, 1)
    assert len(spy.calls) == 1
    with pytest.raises(KeyError):
        facts.pair_prob(spans[0][0], spans[1][0])  # across examples: outside the groups


def test_train_reads_each_pair_once_per_batch():
    # induce and the perception_acc column read one oracle: one predict_pairs
    # call per batch, and no ordered pair twice in it
    task = make_task("sorted_concept")
    exs = gen_sequences(task, 12, lengths=(1, 4), gen=SyntheticDigitGen(seed=4), seed=4)
    spy = _CountingPair()
    cfg = EMConfig(epochs=1, batch_size=6, seed=4, budget=SearchBudget(max_clauses=3))
    state = train(task, exs, cfg, spy)
    assert state.rows[0]["perception_acc"] is not None
    assert len(spy.calls) == len(state.rows) == 2
    assert all(len(c) == len(set(c)) for c in spy.calls)


def test_model_facts_missing_parts_raise():
    facts = TableFacts.from_model(idx_features(2))
    with pytest.raises(KeyError):
        facts.item_logweights(0)  # no classifier attached
    with pytest.raises(KeyError):
        facts.pair_logprob(0, 1)  # no pair model attached
    # one model fills one kind of table: a classifier no pairs, a pair model no items
    with pytest.raises(KeyError):
        TableFacts.from_model(idx_features(2), TableModel(peaked([3, 7]))).pair_logprob(0, 1)
    with pytest.raises(KeyError):
        TableFacts.from_model(idx_features(2), _CountingPair()).item_logweights(0)


@pytest.mark.parametrize("tid", tasks.TASK_IDS)
def test_perception_acc_matches_the_reference(tid):
    # truth_acc over reading, with every truth, with some examples' truth
    # missing, and None with all of it missing
    task = make_task(tid)
    full = gen_sequences(task, 10, lengths=(2, 5), gen=SyntheticDigitGen(n_classes=task.n_classes, seed=2), seed=6)
    features, spans, _ = tasks.assemble(task, full)
    model, pair = (None, PairModel(8, seed=3)) if task.dyadic else (MLP(8, task.n_classes, seed=3), None)
    if model is not None:  # a little training, so the reading is not all one digit
        model.fit(features, np.array([d - task.value_base for ex in full for d in ex.truth]), epochs=2)
    facts = TableFacts.from_model(features, pair if task.dyadic else model, task.value_base)
    some = [dataclasses.replace(ex, truth=None) if k % 3 == 1 else ex for k, ex in enumerate(full)]
    none = [dataclasses.replace(ex, truth=None) for ex in full]
    for batch in (full, some, none):
        got = tasks.truth_acc(batch, spans, [tasks.reading(task, facts, ids) for ids in spans])
        assert got == _ref_perception_acc(task, batch, model, pair)
        assert (got is None) == (batch is none)


def _parent_pseudo_label_acc(task, batch, spans, labelings):
    """Reference: em's pseudo_label_acc as it stood before truth_acc."""
    hits = total = 0
    for ex, ids, lab in zip(batch, spans, labelings):
        if ex.truth is None:
            continue
        truth = {i: d for i, d in zip(ids, ex.truth)}
        if task.dyadic:
            for (a, b), val in lab.pair_facts:
                hits += int(val == (truth[a] >= truth[b]))
                total += 1
        else:
            for i, v in lab.item_labels:
                hits += int(v == truth[i])
                total += 1
    return hits / total if total else None


def _guessed_labelings(task, spans, rng):
    """Labelings in the E-step's form with some wrong labels: a digit per
    item, or pair facts in any order, reversed pairs included."""
    labs = []
    for ids in spans:
        if task.dyadic:
            pairs = [(a, b) for a in ids for b in ids if a != b and rng.random() < 0.6]
            labs.append(ExampleLabeling(0.0, pair_facts=tuple((p, bool(rng.random() < 0.5)) for p in pairs)))
        else:
            digits = rng.integers(task.digit_lo, task.digit_hi + 1, size=len(ids))
            labs.append(ExampleLabeling(0.0, item_labels=tuple((i, int(d)) for i, d in zip(ids, digits))))
    return labs


@pytest.mark.parametrize("tid", tasks.TASK_IDS)
def test_truth_acc_matches_the_parent_pseudo_label_acc(tid):
    """truth_acc of the E-step's labelings equals the old pseudo_label_acc,
    bit for bit: with every truth, with some examples' truth missing, and
    None with all of it missing."""
    task = make_task(tid)
    full = gen_sequences(task, 10, lengths=(1, 5), gen=SyntheticDigitGen(n_classes=task.n_classes, seed=2), seed=6)
    _, spans, _ = tasks.assemble(task, full)
    labs = _guessed_labelings(task, spans, np.random.default_rng(7))
    some = [dataclasses.replace(ex, truth=None) if k % 3 == 1 else ex for k, ex in enumerate(full)]
    none = [dataclasses.replace(ex, truth=None) for ex in full]
    for batch in (full, some, none):
        got = tasks.truth_acc(batch, spans, [(lab.item_labels, lab.pair_facts) for lab in labs])
        assert got == _parent_pseudo_label_acc(task, batch, spans, labs)
        assert (got is None) == (batch is none)
    assert 0.0 < tasks.truth_acc(full, spans, [(lab.item_labels, lab.pair_facts) for lab in labs]) < 1.0


def test_truth_acc_reading_form():
    # a reading on a dyadic task lists each pair i < j once, held at 0.5 or above
    task = make_task("sorted_concept")
    facts = TableFacts({}, pairs={(a, b): 0.5 if a < b else 0.25 for a in range(3) for b in range(3)})
    assert tasks.reading(task, facts, [0, 1, 2]) == ((), (((0, 1), True), ((0, 2), True), ((1, 2), True)))
    ex = SeqExample(idx_features(3), False, (4, 7, 1))
    assert tasks.truth_acc([ex], [[0, 1, 2]], [tasks.reading(task, facts, [0, 1, 2])]) == 2 / 3  # 4 >= 7 is not so
    # on a numeric one, each item's most probable digit
    labels = {5: 3, 6: 9}
    exact = TableFacts.exact(labels, value_base=1)
    assert tasks.reading(make_task("product"), exact, [5, 6]) == (((5, 3), (6, 9)), ())


# ---------------------------------------------------------------------------
# E-step
# ---------------------------------------------------------------------------


def _sum_batch_facts(examples, k=10, p=0.9):
    truths = [d for ex in examples for d in ex.truth]
    model = TableModel(peaked(truths, k=k, p=p))
    n = sum(len(ex) for ex in examples)
    return model, TableFacts.from_model(idx_features(n), model=model)


def test_e_step_recovers_truth_under_peaked_model():
    task = make_task("sum")
    batch = [seq([1, 2, 3], 6), seq([4, 5], 9), seq([9, 9, 9, 9], 36)]
    _, facts = _sum_batch_facts(batch)
    out = _induce_batch(task, batch, facts, 2)
    assert out.induced is not None
    flat = {}
    for lab in out.induced.labelings:
        flat.update(lab.item_labels)
    want = {i: d for i, d in enumerate(d for ex in batch for d in ex.truth)}
    assert flat == want
    n_items = len(want)
    expect = log_prior(2) + n_items * math.log(0.9)
    assert abs(out.induced.log_score - expect) < 1e-9


def _ground_outputs(pred, arg, clauses, fuel):
    """Independent interpreter for desk-scale programs over ground digits.

    Values are ints; lists are tuples.  Returns the set of derivable
    outputs of pred(arg, Out) (or {True} for provable arity-1 goals).
    """
    if pred == "add":
        if isinstance(arg, tuple) and len(arg) >= 2:
            return {(arg[0] + arg[1],) + arg[2:]}
        return set()
    if pred == "eq":
        if isinstance(arg, tuple) and len(arg) == 1:
            return {arg[0]}
        return set()
    if pred == "head":
        return {arg[0]} if isinstance(arg, tuple) and arg else set()
    if pred == "tail":
        return {arg[1:]} if isinstance(arg, tuple) and arg else set()
    if pred == "empty":
        return {True} if arg == () else set()
    if pred == "f":
        if fuel <= 0:
            return set()
        out = set()
        for shape in clauses:
            if shape[0] == "ident":
                out |= _ground_outputs(shape[1], arg, clauses, fuel - 1)
            else:  # chain: f(A,B) :- Q(A,C), R(C,B)
                for mid in _ground_outputs(shape[1], arg, clauses, fuel - 1):
                    out |= _ground_outputs(shape[2], mid, clauses, fuel - 1)
        return out
    raise AssertionError(pred)


def _enumerate_program_shapes():
    """Every 1- and 2-clause sum-task program the engine could emit."""
    pool = ("add", "eq", "head", "tail", "f")
    singles = [("ident", q) for q in pool] + [
        ("chain", q, r) for q in pool for r in pool
    ]
    for a in singles:
        yield (a,)
    for i, a in enumerate(singles):
        for b in singles[i + 1 :]:
            yield (a, b)


def test_e_step_matches_exhaustive_desk_scale_search():
    """Exhaustive (H, z) enumeration reproduces the E-step's best score.

    Labels cover digits 0..3 only and the y values are chosen so no
    entailing program can skip items: length-2 sums exceed one digit's
    range and length-3 sums exceed what any two digits reach.
    """
    task = make_task("sum")
    rng = np.random.default_rng(5)
    batch = [seq([2, 3], 5), seq([1, 3, 3], 7)]
    n = sum(len(ex) for ex in batch)
    probs = rng.dirichlet(np.ones(4), size=n)  # digits 0..3 only
    table = np.hstack([probs, np.full((n, 6), 1e-300)])
    table /= table.sum(axis=1, keepdims=True)
    model = TableModel(table)
    facts = TableFacts.from_model(idx_features(n), model=model)
    out = _induce_batch(task, batch, facts, 2)
    assert out.induced is not None

    logp = np.log(table)
    spans = [(0, 2), (2, 5)]
    best_total = -math.inf
    for shapes in _enumerate_program_shapes():
        total = log_prior(len(shapes))
        ok = True
        for ex, (lo, hi) in zip(batch, spans):
            L = hi - lo
            best_ex = -math.inf
            for z in itertools.product(range(4), repeat=L):
                if ex.y not in _ground_outputs("f", tuple(z), shapes, fuel=2 * L + 2):
                    continue
                best_ex = max(best_ex, sum(logp[lo + i][z[i]] for i in range(L)))
            if best_ex == -math.inf:
                ok = False
                break
            total += best_ex
        if ok:
            best_total = max(best_total, total)
    assert abs(out.induced.log_score - best_total) < 1e-9

    # the chosen labelling is itself the per-example argmax
    for ex, (lo, hi), lab in zip(batch, spans, out.induced.labelings):
        got = [dict(lab.item_labels)[i] for i in range(lo, hi)]
        assert sum(got) == ex.y
    assert abs(
        out.induced.log_score
        - (log_prior(out.induced.program.size) + sum(l.log_prob for l in out.induced.labelings))
    ) < 1e-12


def test_e_step_contradiction_yields_no_program():
    task = make_task("sum")
    batch = [seq([1, 2], 200)]  # max attainable sum for two digits is 18
    _, facts = _sum_batch_facts(batch)
    out = _induce_batch(task, batch, facts, 2)
    assert out.induced is None
    assert out.candidates_tried == 0 and out.failure == "no_candidate"


def test_e_step_later_contradiction_yields_no_candidate():
    # The first example admits full programs, which leave generation at once
    # and are tried; the second refutes each in scoring for want of a proof.
    task = make_task("sum")
    batch = [seq([1, 2], 3), seq([4, 5], 200)]
    _, facts = _sum_batch_facts(batch)
    out = _induce_batch(task, batch, facts, 2)
    assert out.induced is None and not out.budget_exhausted
    assert out.candidates_tried > 0 and out.failure == "no_candidate"


# ---------------------------------------------------------------------------
# train loop
# ---------------------------------------------------------------------------


def _quick_train(tmp_path, seed=0, epochs=3, n=60):
    task = make_task("sum")
    gen = SyntheticDigitGen(seed=seed)
    exs = gen_sequences(task, n, lengths=(2, 4), gen=gen, seed=seed)
    model = MLP(8, 10, seed=seed)
    cfg = EMConfig(
        epochs=epochs,
        batch_size=20,
        seed=seed,
        budget=SearchBudget(max_clauses=2),
        metrics_path=tmp_path / "metrics.csv",
        artifacts_dir=tmp_path / "arts",
    )
    return task, train(task, exs, cfg, model=model)


def test_train_writes_metrics_and_artifacts(tmp_path):
    task, state = _quick_train(tmp_path)
    with open(tmp_path / "metrics.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(METRIC_COLUMNS)
    assert len(rows) - 1 == len(state.rows) == 3 * 3  # epochs x batches
    # every batch records its cuts, and on these short sums there are none
    for c in ("budget_exhausted", "depth_hits"):
        assert {r[METRIC_COLUMNS.index(c)] for r in rows[1:]} == {"0"}
    # scoring replays stored proofs: one per (program, length) serves every y
    run, replayed = (sum(int(r[METRIC_COLUMNS.index(c)]) for r in rows[1:]) for c in ("proofs_run", "proofs_replayed"))
    assert 0 < run < replayed
    # failure is empty exactly on solved batches, a reason on the others
    score, failure = METRIC_COLUMNS.index("score"), METRIC_COLUMNS.index("failure")
    reasons = {"budget_exhausted", "depth_cut", "unscorable", "no_candidate"}
    for r in rows[1:]:
        assert (r[failure] == "") if r[score] else (r[failure] in reasons)
    assert (tmp_path / "arts" / "program_best.pl").exists()
    assert state.best_program is not None
    assert "f(A,B) :- add(A,C)" in program_text(state.best_program, DEFAULT_LIBRARY)


def test_depth_cut_batch_records_its_failure(tmp_path, monkeypatch):
    # f -> add -> f -> eq takes four steps: a bound of 2 proves no sum of two or more items
    monkeypatch.setattr(kb_module, "DEPTH_BASE", 2)
    monkeypatch.setattr(kb_module, "DEPTH_PER_ITEM", 0)
    task = make_task("sum")
    gen = SyntheticDigitGen(seed=0)
    exs = gen_sequences(task, 4, lengths=(2, 3), gen=gen, seed=0)
    cfg = EMConfig(
        epochs=1,
        batch_size=4,
        budget=SearchBudget(max_clauses=2),
        metrics_path=tmp_path / "metrics.csv",
    )
    with pytest.raises(EMError):
        train(task, exs, cfg, model=MLP(8, 10, seed=0))
    with open(tmp_path / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["score"], r["failure"]) for r in rows] == [("", "depth_cut")]


def test_train_best_score_never_decreases(tmp_path):
    _, state = _quick_train(tmp_path, seed=1)
    best = -math.inf
    for row in state.rows:
        if row["score"] is not None:
            best = max(best, row["score"])
    assert abs(best - state.best_score) < 1e-12


def test_train_is_deterministic_per_seed(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    _, s1 = _quick_train(tmp_path / "a", seed=3, epochs=2)
    _, s2 = _quick_train(tmp_path / "b", seed=3, epochs=2)
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == (
        tmp_path / "b" / "metrics.csv"
    ).read_bytes()
    assert s1.best_score == s2.best_score
    a, b = s1.model, s2.model
    assert all(np.array_equal(x, y) for x, y in zip(a.params(), b.params()))


def test_train_aborts_when_every_batch_contradicts(tmp_path):
    task = make_task("sum")
    exs = [
        SeqExample(np.random.default_rng(0).uniform(size=(2, 8)), 200, (1, 2)),
        SeqExample(np.random.default_rng(1).uniform(size=(2, 8)), 150, (3, 4)),
    ]
    cfg = EMConfig(epochs=1, batch_size=2, budget=SearchBudget(max_clauses=2))
    with pytest.raises(EMError):
        train(task, exs, cfg, model=MLP(8, 10, seed=0))


@pytest.mark.parametrize(
    "tid, model",
    [
        ("sum", None),
        ("sum", PairModel(8, seed=0)),
        ("sorted_concept", None),
        ("sorted_concept", MLP(8, 10, seed=0)),
    ],
)
def test_train_requires_matching_model_kind(tid, model):
    """train takes one perception model: a classifier on a sum task, a pair
    model on a dyadic one; none, or the other kind, is refused before any
    batch runs."""
    task = make_task(tid)
    exs = gen_sequences(task, 4, seed=0)
    with pytest.raises(EMError, match="trains a"):
        train(task, exs, EMConfig(epochs=1), model)


def test_train_dyadic_sorted_concept(tmp_path):
    task = make_task("sorted_concept")
    gen = SyntheticDigitGen(seed=4)
    exs = gen_sequences(task, 24, lengths=(1, 4), gen=gen, seed=4)
    # short positives are what force the pair-consuming recursion: a batch
    # without them admits a cheaper program that peeks at one pair only,
    # so the stage runs as a single batch (the dataset is tiny anyway)
    pos_lens = {len(e) for e in exs if e.y}
    assert {1, 2} <= pos_lens
    pm = PairModel(8, seed=4)
    cfg = EMConfig(
        epochs=2,
        batch_size=len(exs),
        seed=4,
        budget=SearchBudget(max_clauses=3),
        metrics_path=tmp_path / "m.csv",
    )
    state = train(task, exs, cfg, pm)
    assert state.best_program is not None
    assert state.best_program.size == 3
    text = program_text(state.best_program, DEFAULT_LIBRARY)
    assert "s_1(A,B) :- nn(A), tail(A,B)." in text
    scored = [r for r in state.rows if r["score"] is not None]
    assert scored and all(r["pseudo_label_acc"] is not None for r in scored)


def test_run_curriculum_produces_merged_sorter():
    t1 = make_task("sorted_concept")
    t2 = make_task("bogosort")
    gen = SyntheticDigitGen(seed=6)
    ex1 = gen_sequences(t1, 24, lengths=(1, 4), gen=gen, seed=6)
    ex2 = gen_sequences(t2, 16, lengths=(2, 4), gen=gen, seed=7)
    assert {1, 2} <= {len(e) for e in ex1 if e.y}
    pm = PairModel(8, seed=6)
    cfg1 = EMConfig(epochs=2, batch_size=24, seed=6, budget=SearchBudget(max_clauses=3))
    cfg2 = EMConfig(epochs=2, batch_size=8, seed=7, budget=SearchBudget(max_clauses=1))
    s1, s2, merged = run_curriculum((t1, ex1, cfg1), (t2, ex2, cfg2), pm)
    assert s2.best_program.size == 1
    assert s2.best_program.metasubs[0].rule == "tri_split"
    names = {ms.rule for ms in merged.metasubs}
    assert "tri_split" in names and "precon" in names


def test_train_pretrain_needs_seed_data():
    task = make_task("sum")
    gen = SyntheticDigitGen(seed=0)
    exs = gen_sequences(task, 10, lengths=(2, 3), gen=gen, seed=0)
    cfg = EMConfig(epochs=1, batch_size=10, pretrain=True, budget=SearchBudget(max_clauses=2))
    with pytest.raises(EMError, match="seed data"):
        train(task, exs, cfg, model=MLP(8, 10, seed=0))


def test_train_pretrain_breaks_label_symmetry(tmp_path):
    """A one-per-class warm start should make epoch-0 pseudo-labels mostly right."""
    from abdlearn.tasks import few_shot_examples

    task = make_task("sum")
    gen = SyntheticDigitGen(seed=2)
    exs = gen_sequences(task, 60, lengths=(2, 3), gen=gen, seed=1)
    seed_data = few_shot_examples(exs, task.n_classes)
    model = MLP(8, 10, seed=0)
    cfg = EMConfig(
        epochs=2,
        batch_size=20,
        pretrain=True,
        seed=0,
        budget=SearchBudget(max_clauses=2),
    )
    state = train(task, exs, cfg, model=model, pretrain_data=seed_data)
    first_epoch = [r for r in state.rows if r["epoch"] == 0 and r["pseudo_label_acc"] is not None]
    assert first_epoch
    acc0 = sum(r["pseudo_label_acc"] for r in first_epoch) / len(first_epoch)
    assert acc0 >= 0.7
