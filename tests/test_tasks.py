"""Task wiring, generators, file formats, and the evaluator."""

import dataclasses
import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abdlearn.fd import ADD, EQC, MUL, solve_best
from abdlearn.metarules import MetaSub, Program, merge_programs
from abdlearn.mil import ABD_FACT, Abducible, SearchBudget, SettingError, TableFacts, induce
from abdlearn import kb as kb_module, mil, tasks
from abdlearn.cli import _metrics_table
from abdlearn.kb import deduce
from abdlearn.mil import item_term
from abdlearn.perception import MLP, PairModel
from abdlearn.tasks import (
    SyntheticDigitGen,
    TaskError,
    answer_each,
    evaluate,
    gen_sequences,
    ground_kb,
    labels_path_for,
    load_dataset,
    make_task,
    ranks_descending,
    save_dataset,
)
from abdlearn.parser import parse_term
from abdlearn.terms import Atom, Int, Struct, Subst, Var, mk_list, term_vars

SUM_PROG = Program(
    (
        MetaSub("chain", (("P", "f"), ("Q", "add"), ("R", "f"))),
        MetaSub("ident", (("P", "f"), ("Q", "eq"))),
    )
)

PROD_PROG = Program(
    (
        MetaSub("chain", (("P", "f"), ("Q", "mult"), ("R", "f"))),
        MetaSub("ident", (("P", "f"), ("Q", "eq"))),
    )
)

SORT_PROG = Program(
    (
        MetaSub("mono_chain", (("P", "s"), ("Q", "tail"), ("R", "empty"))),
        MetaSub("mono_rec", (("P", "s"), ("Q", "s_1"))),
        MetaSub("precon", (("P", "s_1"), ("Q", "nn"), ("R", "tail"))),
    ),
    invented=(("s_1", 2),),
)

BOGO_PROG = Program(
    (MetaSub("tri_split", (("P", "f"), ("Q", "permute"), ("R", "s"))),)
)


# ---------------------------------------------------------------------------
# task wiring
# ---------------------------------------------------------------------------


def test_make_task_ids_and_unknown():
    for tid in ("sum", "product", "sorted_concept", "bogosort"):
        t = make_task(tid)
        assert t.id == tid
        assert t.max_clauses >= 1
    with pytest.raises(TaskError):
        make_task("parity")


def test_task_settings_build():
    for tid in ("sum", "product", "sorted_concept"):
        s = make_task(tid).setting()
        assert s.target == make_task(tid).target


def test_bogosort_setting_needs_sorted_stage():
    t = make_task("bogosort")
    with pytest.raises(SettingError):
        t.setting()  # s/1 unknown until the earlier stage installs it
    s = t.setting(extra_program=SORT_PROG)
    assert ("s", 1) in s.body_pool
    # the pairwise abducible must not be directly bindable in the sort rule
    assert ("nn", 1) not in s.body_pool


def test_task_goal_shapes():
    sum_goal = make_task("sum").goal([0, 1], 7)
    assert sum_goal.positive and sum_goal.goal.pred == "f"
    neg = make_task("sorted_concept").goal([0, 1], False)
    assert not neg.positive and len(neg.goal.args) == 1
    ranks = make_task("bogosort").goal([0, 1, 2], (2, 1, 3))
    assert ranks.goal.pred == "f" and len(ranks.goal.args) == 2


@pytest.mark.parametrize(
    "tid, prog",
    [
        ("sum", SUM_PROG),
        ("product", PROD_PROG),
        ("sorted_concept", SORT_PROG),
        ("bogosort", merge_programs(BOGO_PROG, SORT_PROG)),
    ],
)
def test_task_behaviour_follows_its_shape_not_its_id(tid, prog):
    task = make_task(tid)
    copy = dataclasses.replace(task, id=f"{tid}_copy")
    exs = gen_sequences(task, 8, lengths=(2, 4), seed=3)
    copied = gen_sequences(copy, 8, lengths=(2, 4), seed=3)
    assert [(e.y, e.truth) for e in copied] == [(e.y, e.truth) for e in exs]
    assert all(np.array_equal(a.x, b.x) for a, b in zip(exs, copied))
    for e in exs:
        assert copy.goal(range(len(e)), e.y) == task.goal(range(len(e)), e.y)
    assert evaluate(prog, copy, exs, use_truth=True) == evaluate(prog, task, exs, use_truth=True)


def test_metarule_subset_override():
    t = make_task("sum")
    assert [m.name for m in t.metarules()] == ["chain", "ident"]
    assert len(t.metarules(["chain", "ident", "precon"])) == 3
    with pytest.raises(TaskError):
        t.metarules(["no_such_rule"])


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def test_ranks_descending_worked_example():
    assert ranks_descending([5, 9, 4, 3, 8]) == (3, 1, 4, 5, 2)


def test_gen_sum_labels_consistent():
    t = make_task("sum")
    for ex in gen_sequences(t, 25, lengths=(1, 5), seed=2):
        assert ex.y == sum(ex.truth)
        assert all(0 <= d <= 9 for d in ex.truth)
        assert ex.x.shape == (len(ex.truth), 8)
        assert ex.x.min() >= 0.0 and ex.x.max() <= 1.0


def test_gen_product_digit_floor():
    t = make_task("product")
    for ex in gen_sequences(t, 25, lengths=(2, 5), seed=3):
        assert all(1 <= d <= 9 for d in ex.truth)
        assert ex.y == int(np.prod(ex.truth))


def test_gen_bogosort_distinct_and_ranked():
    t = make_task("bogosort")
    for ex in gen_sequences(t, 25, lengths=(2, 5), seed=4):
        assert len(set(ex.truth)) == len(ex.truth)
        assert ex.y == ranks_descending(ex.truth)


def test_gen_sorted_concept_balance_and_negatives():
    t = make_task("sorted_concept")
    exs = gen_sequences(t, 30, lengths=(1, 5), seed=5)
    pos = [e for e in exs if e.y]
    neg = [e for e in exs if not e.y]
    assert len(pos) == len(neg) == 15
    for e in pos:
        assert all(a >= b for a, b in zip(e.truth, e.truth[1:]))
    for e in neg:
        assert len(e.truth) >= 2
        assert not all(a >= b for a, b in zip(e.truth, e.truth[1:]))


def test_gen_deterministic_per_seed():
    t = make_task("sum")
    a = gen_sequences(t, 10, seed=7)
    b = gen_sequences(t, 10, seed=7)
    c = gen_sequences(t, 10, seed=8)
    assert all(np.array_equal(x.x, y.x) and x.y == y.y for x, y in zip(a, b))
    assert any(not np.array_equal(x.x, y.x) for x, y in zip(a, c))


def test_gen_distinct_overflow_rejected():
    t = make_task("bogosort")
    with pytest.raises(TaskError):
        gen_sequences(t, 1, lengths=(11, 11), seed=0)


def test_gen_bad_length_range():
    with pytest.raises(TaskError):
        gen_sequences(make_task("sum"), 1, lengths=(3, 2))


def test_digit_gen_bounds():
    gen = SyntheticDigitGen(seed=1)
    rng = np.random.default_rng(0)
    x = gen.sample(4, rng)
    assert x.shape == (8,) and x.min() >= 0 and x.max() <= 1
    for bad in (10, -1):
        with pytest.raises(TaskError):
            gen.sample(bad, rng)
        with pytest.raises(TaskError):
            gen.render([3, bad], rng)
    for bad in (dict(dim=0), dict(noise=-0.1), dict(noise=float("nan"))):
        with pytest.raises(TaskError):
            SyntheticDigitGen(**bad)


def test_digit_gen_sample_is_render_of_one_digit():
    gen = SyntheticDigitGen(seed=4)
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    for d in (0, 7, 9, 3):
        assert gen.sample(d, a).tobytes() == gen.render([d], b)[0].tobytes()


def _render_per_digit(gen: SyntheticDigitGen):
    """The renderer before render(): one normal draw and one clip per digit."""

    def render(digits, rng):
        return np.stack(
            [np.clip(gen.prototypes[d] + rng.normal(0.0, gen.noise, size=gen.dim), 0.0, 1.0) for d in digits]
        )

    return render


@pytest.mark.parametrize("noise", [0.0, 0.12])
@pytest.mark.parametrize("task_id", ["sum", "product", "sorted_concept", "bogosort"])
def test_gen_stream_matches_one_draw_per_digit(task_id, noise):
    # the whole stream, negatives' swaps and reshuffles and bogosort's choice
    # draws included, comes out bit for bit as under the per-digit renderer
    task = make_task(task_id)
    top = min(12, task.n_classes) if task.dyadic else 12
    for seed in (0, 1, 7919):
        gen = SyntheticDigitGen(n_classes=task.n_classes, noise=noise, seed=seed)
        ref = SyntheticDigitGen(n_classes=task.n_classes, noise=noise, seed=seed)
        ref.render = _render_per_digit(ref)
        for lengths in [(k, k) for k in range(1, top + 1)] + [(1, top)]:
            got = gen_sequences(task, 8, lengths=lengths, gen=gen, seed=seed + lengths[0])
            want = gen_sequences(task, 8, lengths=lengths, gen=ref, seed=seed + lengths[0])
            for a, b in zip(got, want):
                assert a.x.shape == b.x.shape and a.x.tobytes() == b.x.tobytes()
                assert (a.y, a.truth) == (b.y, b.truth)


# ---------------------------------------------------------------------------
# dataset files
# ---------------------------------------------------------------------------


def test_dataset_roundtrip(tmp_path):
    t = make_task("sum")
    exs = gen_sequences(t, 12, lengths=(1, 4), seed=9)
    p = tmp_path / "sum_train.tsv"
    save_dataset(exs, "sum", p)
    tid, back = load_dataset(p)
    assert tid == "sum"
    assert len(back) == 12
    for a, b in zip(exs, back):
        assert b.y == a.y and b.truth == a.truth
        assert np.allclose(a.x, b.x, atol=1e-6)


def test_dataset_regen_byte_identical(tmp_path):
    t = make_task("product")
    p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    save_dataset(gen_sequences(t, 8, seed=4), "product", p1)
    save_dataset(gen_sequences(t, 8, seed=4), "product", p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert labels_path_for(p1).read_bytes() == labels_path_for(p2).read_bytes()


def test_dataset_roundtrip_rank_and_bool_labels(tmp_path):
    for tid, lengths in (("bogosort", (2, 4)), ("sorted_concept", (1, 4))):
        exs = gen_sequences(make_task(tid), 6, lengths=lengths, seed=3)
        p = tmp_path / f"{tid}.tsv"
        save_dataset(exs, tid, p)
        _, back = load_dataset(p, expect_task=tid)
        assert [e.y for e in back] == [e.y for e in exs]


def test_dataset_errors(tmp_path):
    with pytest.raises(TaskError):
        load_dataset(tmp_path / "missing.tsv")
    bad = tmp_path / "bad.tsv"
    bad.write_text("sum\t1\t0.5,0.5\n")  # three fields only
    with pytest.raises(TaskError):
        load_dataset(bad)
    mixed = tmp_path / "mixed.tsv"
    mixed.write_text("sum\t1\t0.1,0.2\t3\nproduct\t1\t0.1,0.2\t3\n")
    with pytest.raises(TaskError):
        load_dataset(mixed)
    short = tmp_path / "short.tsv"
    short.write_text("sum\t2\t0.1,0.2\t3\n")  # says 2 items, has 1
    with pytest.raises(TaskError):
        load_dataset(short)
    unknown = tmp_path / "unknown.tsv"
    unknown.write_text("parity\t1\t0.1,0.2\t3\n")
    with pytest.raises(TaskError, match="unknown task 'parity'"):
        load_dataset(unknown)
    wrong = tmp_path / "wrong.tsv"
    wrong.write_text("sum\t1\t0.1,0.2\tnine\n")
    with pytest.raises(TaskError):
        load_dataset(wrong)
    ok = tmp_path / "ok.tsv"
    ok.write_text("sum\t1\t0.1,0.2\t3\n")
    with pytest.raises(TaskError):
        load_dataset(ok, expect_task="product")


@pytest.mark.parametrize(
    "task_id, lengths, line, match",
    [
        ("sum", (5, 5), "1,2,3,4,5,6", r"\.labels:1: 6 digits for 5 items"),
        ("sum", (4, 4), "7", r"\.labels:1: 1 digits for 4 items"),
        ("sum", (3, 3), "1,12,3", r"\.labels:1: digit outside 0\.\.9"),
        ("product", (3, 3), "1,0,3", r"\.labels:1: digit outside 1\.\.9"),
        ("sum", (2, 2), "1,x", r"\.labels:1: bad digit field"),
    ],
)
def test_dataset_sidecar_checked_against_its_sequence(tmp_path, task_id, lengths, line, match):
    p = tmp_path / "d.tsv"
    save_dataset(gen_sequences(make_task(task_id), 2, lengths=lengths, seed=1), task_id, p)
    sidecar = labels_path_for(p)
    sidecar.write_text(line + "\n" + sidecar.read_text().splitlines()[1] + "\n")
    with pytest.raises(TaskError, match=match):
        load_dataset(p)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_evaluate_sum_truth_exact():
    t = make_task("sum")
    m = evaluate(SUM_PROG, t, gen_sequences(t, 20, lengths=(1, 5), seed=1), use_truth=True)
    assert m.acc == 1.0 and m.mae == 0.0 and m.log_mae == 0.0 and m.failures == 0


def test_evaluate_extrapolates_far_beyond_training():
    t = make_task("sum")
    for n in (5, 10, 100):
        exs = gen_sequences(t, 3, lengths=(n, n), seed=n)
        m = evaluate(SUM_PROG, t, exs, use_truth=True)
        assert m.mae == 0.0, f"length {n}"
    tp = make_task("product")
    mp = evaluate(PROD_PROG, tp, gen_sequences(tp, 3, lengths=(15, 15), seed=0), use_truth=True)
    assert mp.mae == 0.0 and mp.log_mae == 0.0


def test_evaluate_failure_counts_maximal_error():
    t = make_task("sum")
    broken = Program((MetaSub("ident", (("P", "f"), ("Q", "eq"))),))  # length-1 only
    exs = gen_sequences(t, 10, lengths=(3, 3), seed=6)
    m = evaluate(broken, t, exs, use_truth=True)
    assert m.failures == 10
    worst = np.mean([max(e.y, 27 - e.y) for e in exs])
    assert abs(m.mae - worst) < 1e-9
    assert m.log_mae > 0


def test_evaluate_counts_depth_cuts_without_changing_answers(monkeypatch):
    t = make_task("sum")
    exs = gen_sequences(t, 6, lengths=(3, 12), seed=4)
    full = evaluate(SUM_PROG, t, exs, use_truth=True)
    assert full.depth_cut == 0 and full.failures == 0
    # two resolution steps per item against a bound of 4 + 1 per item: lists
    # longer than 4 items are cut
    monkeypatch.setattr(kb_module, "DEPTH_BASE", 4)
    monkeypatch.setattr(kb_module, "DEPTH_PER_ITEM", 1)
    cut = evaluate(SUM_PROG, t, exs, use_truth=True)
    n_long = sum(1 for e in exs if len(e) > 4)
    assert 0 < n_long < len(exs)
    assert cut.depth_cut == n_long and cut.failures == n_long


@pytest.mark.parametrize("length", [300, 5000])
def test_evaluate_answers_long_sums_without_a_depth_cut(length):
    t = make_task("sum")
    exs = gen_sequences(t, 1, lengths=(length, length), seed=6)
    m = evaluate(SUM_PROG, t, exs, use_truth=True)
    assert (m.depth_cut, m.failures, m.acc) == (0, 0, 1.0)


def test_evaluate_cuts_a_left_recursive_program_on_a_long_list():
    t = make_task("sum")
    exs = gen_sequences(t, 1, lengths=(10_000, 10_000), seed=6)
    loop = Program((MetaSub("ident", (("P", "f"), ("Q", "f"))),))
    m = evaluate(loop, t, exs, use_truth=True)
    assert (m.depth_cut, m.failures, m.budget_exhausted) == (1, 1, 0)


def test_evaluate_counts_searches_the_node_cap_stops():
    t = make_task("sum")
    (ex,) = gen_sequences(t, 1, lengths=(40, 40), seed=5)
    capped = evaluate(SUM_PROG, t, [ex], use_truth=True, max_nodes=50)
    assert (capped.budget_exhausted, capped.failures, capped.depth_cut) == (1, 1, 0)
    full = evaluate(SUM_PROG, t, [ex], use_truth=True)
    assert (full.budget_exhausted, full.failures, full.acc) == (0, 0, 1.0)
    header, row = _metrics_table([("all", capped)]).splitlines()
    assert dict(zip(header.split("\t"), row.split("\t")))["budget_exhausted"] == "1"


def _run_ground_add(lst):
    fn = Abducible("add", ADD).ground()
    return [s.apply(Var("Out")) for s in fn((lst, Var("Out")), Subst())]


def test_ground_add_shares_the_input_tail():
    lst = mk_list([Int(d) for d in (3, 4, 5, 6)])
    (out,) = _run_ground_add(lst)
    assert out == mk_list([Int(7), Int(5), Int(6)])
    assert out.args[1] is lst.args[1].args[1]
    (last,) = _run_ground_add(mk_list([Int(1), Int(2)]))
    assert last == mk_list([Int(3)])


@pytest.mark.parametrize("src", ["[1]", "[]", "[a,2,3]", "[1,b]", "[X,2]", "foo"])
def test_ground_add_rejects_what_it_always_rejected(src):
    assert _run_ground_add(parse_term(src)) == []


def _abduced(spec, goal, facts):
    """(substitution, abduction state) of each alternative mil._abduce gives."""
    ctx = mil._Ctx(None, facts, SearchBudget(), False)
    state = (Program(), mil._AbdState(), ())
    return [(s2, st[1]) for _, _, s2, st in mil._abduce(spec, goal, Subst(), state, ctx)]


@pytest.mark.parametrize(
    "src",
    ["[1]", "[]", "[1,2|T]", "[1,2,3|T]", "[1,2|x]", "[a,2,3]", "[1,b]", "[X,2]", "foo",
     "[5]", "[3,4]", "[3,4,5,6]"],
)
@pytest.mark.parametrize("kind", [ADD, MUL, EQC])
def test_ground_and_abduced_readings_agree(kind, src):
    """Abducible.ground succeeds exactly when _abduce yields an alternative,
    and on Ints its output head is the one value the abduced output can take
    in the store solve_best labels."""
    spec, lst = Abducible("p", kind), parse_term(src)
    for out in (Int(1), Int(5)) if kind == EQC else (Var("Out"),):
        ground = [s.apply(out) for s in spec.ground()((lst, out), Subst())]
        abduced = _abduced(spec, Atom("p", (lst, out)), TableFacts({}))
        assert len(ground) == len(abduced) <= 1
        if abduced and kind != EQC:
            s2, ab = abduced[0]
            head, tail = s2.apply(out).args
            assert solve_best(ab.store, {}) is not None  # Int items only: no weighted var
            (value,) = ab.store.dom(mil._item_id(head, mil.FDV_F)).values()
            assert ground[0].args == (Int(value), tail)


@pytest.mark.parametrize(
    "src", ["[item(0),item(1)]", "[item(1),item(0)]", "[item(0),item(1),item(2)]",
            "[item(0),item(1)|T]", "[item(0),item(1)|x]", "[item(0)]", "[]", "foo"],
)
def test_ground_and_abduced_fact_readings_agree(src):
    facts = TableFacts.exact(pairs=lambda a, b: a < b)
    spec, lst = Abducible("nn", ABD_FACT), parse_term(src)
    ground = list(spec.ground(facts)((lst,), Subst()))
    assert len(ground) == len(_abduced(spec, Atom("nn", (lst,)), facts)) <= 1


@pytest.mark.parametrize(
    "kind, src, waits",
    [(ADD, "[X,2]", "X"), (MUL, "[1,Y|T]", "Y"), (ADD, "[1|T]", "T"), (MUL, "L", "L"),
     (EQC, "[1|T]", "T"), (EQC, "L", "L"), (ABD_FACT, "[item(0),Y]", "Y"),
     (ABD_FACT, "[item(I),item(1)]", "I"), (ABD_FACT, "[item(0)|T]", "T")],
)
def test_lazy_reading_waits_on_the_unbound_cell_it_reads(kind, src, waits):
    spec, lst = Abducible("p", kind), parse_term(src)
    args = (lst,) if kind == ABD_FACT else (lst, Var("Out"))
    lazy = spec.ground(TableFacts.exact(pairs=lambda a, b: True), lazy=True)
    assert list(lazy(args, Subst())) == [Var(waits)]


@pytest.mark.parametrize("src", ["[1]", "[]", "[1,2|T]", "[a,2,3]", "[X]", "foo", "[3,4,5,6]"])
@pytest.mark.parametrize("kind", [ADD, MUL, EQC])
def test_lazy_reading_answers_as_the_ground_one_when_nothing_it_reads_is_unbound(kind, src):
    spec, lst = Abducible("p", kind), parse_term(src)
    for out in (Int(1), Int(5), Var("Out")):
        ground = [s.apply(out) for s in spec.ground()((lst, out), Subst())]
        assert [s.apply(out) for s in spec.ground(lazy=True)((lst, out), Subst())] == ground


def test_lazy_fact_reading_keeps_what_the_ground_one_raises_on():
    """A probe leaf may pair a non-item, or two items facts holds no pair
    for: the lazy reading waits on a variable nothing binds, so the leaf
    neither fails nor answers, and the run on a ranking decides."""
    facts = TableFacts({}, pairs={(0, 1): 0.0})
    spec = Abducible("nn", ABD_FACT)
    s = Subst()
    for src, error in (("[1,2]", SettingError), ("[item(1),item(0)]", KeyError)):
        lst = parse_term(src)
        (wait,) = spec.ground(facts, lazy=True)((lst,), s)
        assert wait.__class__ is Var and wait.name not in s and wait.name not in term_vars(lst)
        with pytest.raises(error):
            list(spec.ground(facts)((lst,), s))
    lst = parse_term("[item(0),item(1)]")
    assert list(spec.ground(facts, lazy=True)((lst,), s)) == list(spec.ground(facts)((lst,), s)) == []


def _reference_fact_reading(facts, lazy):
    """The fact kind's reading as it read its cells before they were taken
    as _cells walked them: each cell applied, and a wait named by term_vars."""

    def holds(args, s):
        read, rest = mil._cells(args[0], s, 2)
        if len(read) < 2:
            if lazy and rest.__class__ is Var:
                yield rest
            return
        x, y = s.apply(read[0]), s.apply(read[1])
        i, j = mil._item_id(x), mil._item_id(y)
        if i is None or j is None:
            unbound = lazy and (term_vars(x) or term_vars(y))
            if unbound:
                yield Var(unbound[0])
            elif lazy:
                yield Var("fresh")
            else:
                raise SettingError("non-item")
            return
        try:
            p = facts.pair_prob(i, j)
        except KeyError:
            if not lazy:
                raise
            yield Var("fresh")
            return
        if p >= 0.5:
            yield s

    return holds


_NAMES = ("A", "B", "C", "T")


@st.composite
def _cell_terms(draw, later: "tuple[str, ...]"):
    """A cell term whose variables are among later: an item, a variable, a
    non-item struct with or without a variable, or an Int."""
    kinds = ["item", "struct", "int"] + (["var", "var struct", "var item"] if later else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "item":
        return item_term(draw(st.integers(0, 2)))
    if kind == "struct":
        return Struct("f", (Int(1),))
    if kind == "int":
        return Int(1)
    v = Var(draw(st.sampled_from(later)))
    return v if kind == "var" else Struct("f" if kind == "var struct" else "item", (v,))


@st.composite
def _fact_reading_cases(draw):
    """(facts, list term, substitution): up to three cells and a tail, and
    bindings that chain variables without a cycle (each name binds only to
    terms over the names after it)."""
    cells = [draw(_cell_terms(_NAMES)) for _ in range(draw(st.sampled_from([0, 1, 2, 2, 2, 3])))]
    tail = draw(st.sampled_from([mk_list([]), Var("T"), mk_list([item_term(2)])]))
    s = Subst()
    for k, name in enumerate(_NAMES):
        if draw(st.integers(0, 2)) == 0:
            s = s.bind(name, draw(_cell_terms(_NAMES[k + 1 :])))
    # some pairs the facts lack: every (a, a), and those drawn out
    pairs = {(a, b): draw(st.sampled_from([0.0, 1.0])) for a in range(3) for b in range(3)
             if a != b and draw(st.booleans())}
    return TableFacts({}, pairs=pairs), mk_list(cells, tail), s


def _outcome(reading, args, s):
    """What a reading gives: its waits by name (a variable that no cell can
    hold named fresh) and its holds, or the error it raises."""
    try:
        return [
            ("waits", r.name if r.name in _NAMES else "fresh") if r.__class__ is Var else ("holds", r is s)
            for r in reading(args, s)
        ]
    except (KeyError, SettingError) as e:
        return type(e).__name__


@given(_fact_reading_cases())
@settings(max_examples=300, deadline=None)
def test_fact_reading_decides_as_the_reference_reading(case):
    """The fact kind's readings, lazy and ground, decide as the reference
    copy of how they took their cells: the same holds, the same waits (the
    variable equal by name) and the same errors, on cells holding items,
    unbound variables and variable chains, non-item structs with and without
    variables, and pairs the facts lack."""
    facts, lst, s = case
    spec = Abducible("nn", ABD_FACT)
    for lazy in (True, False):
        reference = _reference_fact_reading(facts, lazy)
        assert _outcome(spec.ground(facts, lazy=lazy), (lst,), s) == _outcome(reference, (lst,), s)


def test_ground_fact_rejects_a_non_item_term():
    facts = TableFacts.exact(pairs=lambda a, b: True)
    spec, lst = Abducible("nn", ABD_FACT), parse_term("[1,2]")
    assert _abduced(spec, Atom("nn", (lst,)), facts) == []
    with pytest.raises(SettingError, match="nn reached a non-item term"):
        list(spec.ground(facts)((lst,), Subst()))
    with pytest.raises(TaskError, match="needs a pairwise relation"):
        ground_kb(make_task("sorted_concept"), Program())


def test_evaluate_uses_model_argmax():
    t = make_task("sum")
    exs = gen_sequences(t, 15, lengths=(1, 4), seed=12)
    gen = SyntheticDigitGen(seed=12)
    rng = np.random.default_rng(0)
    y = rng.integers(0, 10, size=1500)
    X = np.stack([gen.sample(int(d), rng) for d in y])
    model = MLP(8, 10, seed=0)
    model.fit(X, y.astype(int), epochs=40, batch_size=32)
    m = evaluate(SUM_PROG, t, exs, model=model)
    assert m.cls_acc is not None and m.cls_acc > 0.9
    assert m.mae is not None and m.mae < 3.0


class _CountingMLP(MLP):
    """Classifier spy: counts its forward passes."""

    forwards = 0

    def _forward(self, X):
        self.forwards += 1
        return super()._forward(X)


def test_evaluate_reads_the_classifier_once_per_call():
    t = make_task("sum")
    exs = gen_sequences(t, 10, lengths=(2, 5), gen=SyntheticDigitGen(seed=12), seed=3)
    model = _CountingMLP(8, 10, seed=0)
    model.fit(np.concatenate([ex.x for ex in exs]), np.array([d for ex in exs for d in ex.truth]), epochs=3)
    model.forwards = 0
    m = evaluate(SUM_PROG, t, exs, model=model)
    assert model.forwards == 1
    # cls_acc is what a per-row argmax gives
    hits = [int(model.predict_label(row)) == d for ex in exs for row, d in zip(ex.x, ex.truth)]
    assert m.cls_acc == sum(hits) / len(hits)


def test_numeric_evaluate_reads_each_label_once(monkeypatch):
    # the query and cls_acc share one reading: k items, k label reads
    t = make_task("sum")
    exs = gen_sequences(t, 6, lengths=(2, 5), seed=3)
    reads = []
    item_label = TableFacts.item_label
    monkeypatch.setattr(TableFacts, "item_label", lambda self, i: reads.append(i) or item_label(self, i))
    m = evaluate(SUM_PROG, t, exs, model=MLP(8, 10, seed=0))
    assert m.cls_acc is not None
    assert sorted(reads) == list(range(sum(len(ex) for ex in exs)))


def test_evaluate_sorted_and_bogosort_truth():
    st = make_task("sorted_concept")
    ms = evaluate(SORT_PROG, st, gen_sequences(st, 30, lengths=(1, 5), seed=11), use_truth=True)
    assert ms.acc == 1.0
    bt = make_task("bogosort")
    merged = merge_programs(BOGO_PROG, SORT_PROG)
    mb = evaluate(merged, bt, gen_sequences(bt, 15, lengths=(2, 5), seed=7), use_truth=True)
    assert mb.perm_acc == 1.0 and mb.elem_acc == 1.0 and mb.failures == 0


# the program sum learns from raw digits: its clauses share head and first goal
SUM_RUN_PROG = Program(
    (
        MetaSub("chain", (("P", "f"), ("Q", "add"), ("R", "eq"))),
        MetaSub("chain", (("P", "f"), ("Q", "add"), ("R", "f"))),
    )
)


def test_eval_queries_make_no_reference_cycles():
    """With the collector off, 260-item sums and 5-item rankings answered
    on true digits leave nothing that only a collection frees."""
    st, bt = make_task("sum"), make_task("bogosort")
    sums = gen_sequences(st, 2, lengths=(260, 260), seed=5)
    sorts = gen_sequences(bt, 4, lengths=(5, 5), seed=5)
    merged = merge_programs(BOGO_PROG, SORT_PROG)
    gc.collect()
    gc.disable()
    try:
        answers = answer_each(SUM_RUN_PROG, st, sums, use_truth=True)
        answers += answer_each(merged, bt, sorts, use_truth=True)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert [a.value for a in answers] == [ex.y for ex in sums + sorts]


@pytest.mark.parametrize("enabled", [True, False])
def test_answer_each_leaves_the_collector_as_it_found_it(enabled, monkeypatch):
    """Each query runs with the collector off; after it, returned or
    raised, the collector is on again only if it was before."""
    t = make_task("sum")
    exs = gen_sequences(t, 3, lengths=(2, 4), seed=1)
    seen = []

    def spying(goal, kb, budget):
        seen.append(gc.isenabled())
        yield from deduce(goal, kb, budget=budget)

    def raising(goal, kb, budget):
        seen.append(gc.isenabled())
        raise RuntimeError("query failed")
        yield

    (gc.enable if enabled else gc.disable)()
    try:
        monkeypatch.setattr(tasks, "deduce", spying)
        assert [a.value for a in answer_each(SUM_RUN_PROG, t, exs, use_truth=True)] == [ex.y for ex in exs]
        assert gc.isenabled() == enabled
        monkeypatch.setattr(tasks, "deduce", raising)
        with pytest.raises(RuntimeError, match="query failed"):
            answer_each(SUM_RUN_PROG, t, exs, use_truth=True)
        assert gc.isenabled() == enabled
    finally:
        gc.enable()
    assert seen == [False] * 4


class _FirstFeatureOrder:
    """Stub pair model: orders items by their first feature only."""

    def predict_pair(self, a, b):
        return 1.0 if a[0] >= b[0] else 0.0

    def predict_pairs(self, features, pairs):
        return [self.predict_pair(features[a], features[b]) for a, b in pairs]


class _CountingOrder(_FirstFeatureOrder):
    def __init__(self):
        self.calls = []

    def predict_pairs(self, features, pairs):
        self.calls.append(list(pairs))
        return super().predict_pairs(features, self.calls[-1])


def test_evaluate_reads_each_pair_at_most_once_per_example():
    bt = make_task("bogosort")
    merged = merge_programs(BOGO_PROG, SORT_PROG)
    spy = _CountingOrder()
    for ex in gen_sequences(bt, 12, lengths=(3, 5), seed=13):
        spy.calls = []
        evaluate(merged, bt, [ex], model=spy)
        assert len(spy.calls) == 1 and len(spy.calls[0]) == len(set(spy.calls[0]))


def _ref_pair_relation(examples, model, use_truth):
    """Reference: eval's dyadic relation as a closure per example, before
    eval read it off a fact oracle."""

    def for_example(idx, ex):
        def item_id(t):
            return t.args[0].value

        if use_truth or model is None:

            def rel(a, b):
                return ex.truth[item_id(a)] >= ex.truth[item_id(b)]

        else:

            def rel(a, b):
                return model.predict_pair(ex.x[item_id(a)], ex.x[item_id(b)]) >= 0.5

        return rel

    return for_example


@pytest.mark.parametrize("use_truth", [False, True])
def test_eval_relation_matches_the_reference(use_truth):
    bt = make_task("bogosort")
    exs = gen_sequences(bt, 6, lengths=(2, 5), gen=SyntheticDigitGen(seed=1), seed=8)
    pair = PairModel(8, seed=2)
    ref = _ref_pair_relation(exs, pair, use_truth)
    _, spans, facts = tasks.assemble(bt, exs, None if use_truth else pair)
    kb = ground_kb(bt, Program(), facts=facts)
    for idx, (ex, ids) in enumerate(zip(exs, spans)):
        rel = ref(idx, ex)
        for i in range(len(ex)):
            for j in range(len(ex)):
                goal = Atom("nn", (mk_list([item_term(ids[i]), item_term(ids[j])]),))
                held = next(deduce(goal, kb), None) is not None
                assert held == rel(item_term(i), item_term(j)), (idx, i, j)


def _combined(ms):
    """Metrics of one evaluate call from those of one call per example:
    counts add up, and every other field is the mean over the examples."""
    out = tasks.Metrics(n=sum(m.n for m in ms))
    for f in ("failures", "depth_cut", "budget_exhausted"):
        setattr(out, f, sum(getattr(m, f) for m in ms))
    for f in ("acc", "mae", "log_mae", "perm_acc", "elem_acc"):
        if getattr(ms[0], f) is not None:
            setattr(out, f, pytest.approx(sum(getattr(m, f) for m in ms) / len(ms), abs=1e-12))
    return out


@pytest.mark.parametrize(
    "tid, prog, use_truth",
    [
        ("sum", SUM_PROG, True),
        ("product", PROD_PROG, True),
        ("sorted_concept", SORT_PROG, True),
        ("sorted_concept", SORT_PROG, False),
        ("bogosort", merge_programs(BOGO_PROG, SORT_PROG), True),
        ("bogosort", merge_programs(BOGO_PROG, SORT_PROG), False),
    ],
)
def test_one_evaluate_call_reads_once_and_scores_as_the_per_example_calls(monkeypatch, tid, prog, use_truth):
    """One ground kb and, on a pairwise task, one predict_pairs call per
    evaluate call, however many examples; its Metrics are those the
    per-example calls combine to."""
    task = make_task(tid)
    exs = gen_sequences(task, 8, lengths=(2, 5), seed=21)
    cap = 500_000
    if tid == "sum":  # 40-item sums under a node cap they run out of: failures and cuts to combine
        exs += gen_sequences(task, 2, lengths=(40, 40), seed=22)
        cap = 50
    spy = _CountingOrder()
    built = []
    monkeypatch.setattr(tasks, "ground_kb", lambda *args, **kw: built.append(args) or ground_kb(*args, **kw))
    whole = evaluate(prog, task, exs, model=None if use_truth else spy, use_truth=use_truth, max_nodes=cap)
    assert len(built) == 1
    assert len(spy.calls) == (0 if use_truth else 1)
    per_example = [evaluate(prog, task, [ex], model=spy, use_truth=use_truth, max_nodes=cap) for ex in exs]
    assert len(built) == 1 + len(exs)
    assert whole == _combined(per_example)
    if tid == "sum":
        assert whole.budget_exhausted > 0 and 0 < whole.failures < whole.n


def test_evaluate_perm_acc_bounded_by_elem_acc():
    bt = make_task("bogosort")
    merged = merge_programs(BOGO_PROG, SORT_PROG)
    exs = gen_sequences(bt, 30, lengths=(2, 4), seed=13)
    m = evaluate(merged, bt, exs, model=_FirstFeatureOrder())
    assert m.perm_acc is not None and m.elem_acc is not None
    assert m.perm_acc <= m.elem_acc
    assert m.perm_acc < 1.0  # single-feature ordering gets some wrong


def test_bogosort_stage2_induction_on_truth_facts():
    bt = make_task("bogosort")
    setting = bt.setting(extra_program=SORT_PROG)
    labels = {0: 5, 1: 9, 2: 4, 3: 3, 4: 8}
    facts = TableFacts.exact(labels, pairs=lambda a, b: labels[a] >= labels[b])
    goal = bt.goal([0, 1, 2, 3, 4], ranks_descending([5, 9, 4, 3, 8]))
    out = induce([goal], setting, facts, SearchBudget(max_clauses=1))
    assert out.induced is not None and out.induced.program.size == 1
    assert out.induced.program.metasubs[0].rule == "tri_split"


def test_evaluate_requires_examples():
    with pytest.raises(TaskError):
        evaluate(SUM_PROG, make_task("sum"), [])
