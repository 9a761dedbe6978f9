"""Meta-interpretive induction engine tests.

Expected programs and scores are hand-derived: proof probabilities multiply
the individual fact probabilities, and program scores add the log prior
6/(pi*size)^2.
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abdlearn.fd import ADD, EQC, ConstraintStore, FDConstraint
from abdlearn.kb import Budget, deduce, standard_kb
from abdlearn.metarules import (
    MetaruleError,
    MetaSub,
    Program,
    default_metarules,
    materialize,
    metarule_library,
    metarules_from_text,
    program_text,
)
from abdlearn.mil import (
    ABD_FACT,
    Abducible,
    GoalExample,
    InductionSetting,
    SearchBudget,
    TableFacts,
    induce,
    invent_symbol,
    item_term,
    log_prior,
    prior,
    prove,
    score_example,
)
from abdlearn import kb as kb_module, mil, tasks
from abdlearn.terms import Atom, Int, Struct, Sym, Var, mk_list, proper_list_items
from abdlearn.parser import parse_atom

BK = """
head([H|_], H).
tail([_|T], T).
empty([]).
"""

SUM_PROG = Program(
    (
        MetaSub("chain", (("P", "f"), ("Q", "add"), ("R", "f"))),
        MetaSub("ident", (("P", "f"), ("Q", "eq"))),
    )
)


LIST_POOL = (("head", 2), ("tail", 2), ("empty", 1), ("add", 2), ("eq", 2))  # the sum task's


def sum_setting(mrs=("chain", "ident"), pool=(("add", 2), ("eq", 2))):
    kb = standard_kb(BK)
    rules = [r for r in default_metarules() if r.name in mrs]
    abd = {
        ("add", 2): Abducible("add", ADD),
        ("eq", 2): Abducible("eq", EQC),
    }
    return InductionSetting(kb, rules, abd, ("f", 2), list(pool))


def sorted_setting():
    kb = standard_kb(BK)
    names = ("mono_rec", "mono_chain", "precon")
    rules = [r for r in default_metarules() if r.name in names]
    abd = {("nn", 1): Abducible("nn", ABD_FACT)}
    return InductionSetting(
        kb, rules, abd, ("s", 1), [("tail", 2), ("empty", 1), ("nn", 1)], max_invented=1
    )


def int_goal(xs, y):
    return Atom("f", (mk_list([Int(x) for x in xs]), Int(y)))


def item_goal(ids, y):
    return Atom("f", (mk_list([item_term(i) for i in ids]), Int(y)))


def digit_table(true, peak=0.9, n=10):
    rest = (1.0 - peak) / (n - 1)
    return [peak if v == true else rest for v in range(n)]


def clause_texts(prog, setting):
    return set(program_text(prog, setting.library).splitlines())


SUM_TEXTS = {"f(A,B) :- add(A,C), f(C,B).", "f(A,B) :- eq(A,B)."}


# ---------------------------------------------------------------------------
# prior / invent_symbol
# ---------------------------------------------------------------------------


def test_prior_exact_values():
    assert prior(1) == 6.0 / math.pi**2
    assert prior(2) == 6.0 / (2 * math.pi) ** 2
    assert abs(prior(1) / prior(3) - 9.0) < 1e-12


def test_prior_rejects_nonpositive():
    with pytest.raises(ValueError):
        prior(0)
    with pytest.raises(ValueError):
        prior(-3)


def test_prior_normalizes():
    total = sum(prior(c) for c in range(1, 100001))
    assert abs(total - 1.0) < 1e-4


def test_prior_strictly_decreasing():
    assert all(prior(c) > prior(c + 1) for c in range(1, 50))


def test_invent_symbol():
    assert invent_symbol("s") == "s_1"
    assert invent_symbol("s", {"s_1"}) == "s_2"
    taken = {"f_1", "f_2", "f_3"}
    assert invent_symbol("f", taken) == "f_4"


# ---------------------------------------------------------------------------
# metarule library
# ---------------------------------------------------------------------------


def test_default_metarules_shape():
    rules = default_metarules()
    assert len(rules) == 9
    lib = metarule_library(rules)
    chain = lib["chain"]
    assert chain.head.arity == 2
    assert [b.arity for b in chain.body] == [2, 2]
    assert chain.head.arg_vars == ("A", "B")
    assert chain.body[0].arg_vars == ("A", "C")
    assert chain.body[1].arg_vars == ("C", "B")
    rec = lib["mono_rec"]
    assert rec.body[1].pred_var == rec.head.pred_var  # self-recursive template


def test_default_metarules_parse_once_and_copy_out():
    first = default_metarules()
    want = list(first)
    first.pop()
    first.insert(0, first[-1])
    second = default_metarules()
    assert second == want and second is not first
    assert all(a is b for a, b in zip(second, default_metarules()))


def test_metarule_file_forms():
    rules = metarules_from_text("metarule(my, [P,Q], [P,A,B], [[Q,B,A]]).")
    assert rules[0].name == "my" and rules[0].body[0].arg_vars == ("B", "A")
    unnamed = metarules_from_text("metarule([P,Q], [P,A], [[Q,A]]).")
    assert unnamed[0].name == "mr1"
    with pytest.raises(MetaruleError):
        metarules_from_text("metarule(x, [P], [P,A], [[Q,A]]).")
    with pytest.raises(MetaruleError):
        metarule_library(default_metarules() + [default_metarules()[0]])


def test_program_key_ignores_order_and_invented_names():
    a = MetaSub("ident", (("P", "f"), ("Q", "f_1")))
    b = MetaSub("chain", (("P", "f_1"), ("Q", "add"), ("R", "f_1")))
    p1 = Program((a, b), (("f_1", 2),))
    p2 = Program((b, a), (("f_1", 2),))
    assert p1.key() == p2.key()
    c = MetaSub("ident", (("P", "f"), ("Q", "f_2")))
    d = MetaSub("chain", (("P", "f_2"), ("Q", "add"), ("R", "f_2")))
    p3 = Program((c, d), (("f_2", 2),))
    assert p1.key() == p3.key()


_PLAIN = ("f", "add", "eq", "tail")  # background and target symbols
_INVENTED = ("f_1", "f_2", "f_3")


@st.composite
def _programs(draw):
    symbol = st.sampled_from(_PLAIN + _INVENTED)
    metasubs = draw(
        st.lists(
            st.builds(
                MetaSub,
                st.sampled_from(("chain", "ident", "precon")),
                st.tuples(*(st.tuples(st.just(ev), symbol) for ev in "PQR")),
            ),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    used = {v for ms in metasubs for _, v in ms.bindings}
    return Program(tuple(metasubs), tuple((n, 2) for n in _INVENTED if n in used))


def _rebind(prog: Program, names: dict, at=None) -> Program:
    """prog with symbols renamed by names, everywhere or only in binding at."""
    out = []
    for i, ms in enumerate(prog.metasubs):
        out.append(MetaSub(ms.rule, tuple(
            (k, names.get(v, v) if at in (None, (i, j)) else v)
            for j, (k, v) in enumerate(ms.bindings)
        )))
    invented = tuple((names.get(n, n) if at is None else n, a) for n, a in prog.invented)
    return Program(tuple(out), invented)


@settings(max_examples=200, deadline=None)
@given(prog=_programs(), data=st.data())
def test_program_key_is_invariant_under_invented_renaming_only(prog, data):
    fresh = data.draw(st.permutations([f"g_{i}" for i in range(len(prog.invented))]))
    renamed = _rebind(prog, {n: new for (n, _), new in zip(prog.invented, fresh)})
    assert renamed.key() == prog.key()
    plain = [
        (i, j)
        for i, ms in enumerate(prog.metasubs)
        for j, (_, v) in enumerate(ms.bindings)
        if v in _PLAIN
    ]
    if plain:
        i, j = data.draw(st.sampled_from(plain))
        old = prog.metasubs[i].bindings[j][1]
        new = data.draw(st.sampled_from([n for n in _PLAIN if n != old]))
        assert _rebind(prog, {old: new}, at=(i, j)).key() != prog.key()


# ---------------------------------------------------------------------------
# prove
# ---------------------------------------------------------------------------


def test_prove_empty_goal_list_succeeds_once():
    setting = sum_setting()
    results = list(prove([], SUM_PROG, setting, TableFacts.exact(), SearchBudget()))
    assert len(results) == 1
    prog, lab = results[0]
    assert prog is SUM_PROG
    assert lab.log_prob == 0.0
    assert lab.pair_facts == () and lab.item_labels == ()


def test_prove_induces_sum_program_from_ground_goal():
    setting = sum_setting()
    stream = prove(
        int_goal([1, 2, 3], 6), Program(), setting, TableFacts.exact(), SearchBudget(max_clauses=2)
    )
    hits = [lab for prog, lab in stream if clause_texts(prog, setting) == SUM_TEXTS]
    assert hits, "expected the two-clause cumulative sum program in the stream"
    assert any(abs(lab.log_prob) < 1e-12 for lab in hits)


def test_prove_ground_goal_infeasible_output():
    setting = sum_setting()
    stream = prove(
        int_goal([1, 2, 3], 7), SUM_PROG, setting, TableFacts.exact(), SearchBudget(),
        allow_new_clauses=False,
    )
    assert list(stream) == []


def test_prove_accumulates_item_probabilities():
    # Three items, each with probability 0.9 on its true digit; the most
    # probable feasible assignment is the truth, so the best proof carries
    # log(0.9^3).
    facts = TableFacts({0: digit_table(1), 1: digit_table(2), 2: digit_table(3)})
    setting = sum_setting()
    best = None
    for _, lab in prove(
        item_goal([0, 1, 2], 6), SUM_PROG, setting, facts, SearchBudget(),
        allow_new_clauses=False,
    ):
        if best is None or lab.log_prob > best.log_prob:
            best = lab
    assert best is not None
    assert abs(best.log_prob - 3 * math.log(0.9)) < 1e-9
    assert best.item_labels == ((0, 1), (1, 2), (2, 3))


def _oracle_log_prob(lab, item_tables, pairs):
    """A proof's log-probability rebuilt from the probabilities the fact
    oracle was built on: each pair it assumed, then each item table at the
    item's label."""
    lp = 0.0
    for pair, _ in lab.pair_facts:
        lp += math.log(pairs[pair])
    for item, value in lab.item_labels:
        lp += math.log(item_tables[item][value])
    return lp


def test_prove_log_prob_matches_consumed_facts():
    """Every proof's log_prob is its pairs' and item labels' log-probabilities
    summed, read from the tables the oracle was built on, on a sum goal and
    on a sorted-list goal that assumes pairs."""
    tables = {0: digit_table(4), 1: digit_table(2)}
    pairs = {(0, 1): 0.8, (1, 2): 0.7}
    sorted_prog = Program(
        (
            MetaSub("mono_rec", (("P", "s"), ("Q", "s_1"))),
            MetaSub("mono_chain", (("P", "s"), ("Q", "tail"), ("R", "empty"))),
            MetaSub("precon", (("P", "s_1"), ("Q", "nn"), ("R", "tail"))),
        ),
        (("s_1", 2),),
    )
    cases = [
        (item_goal([0, 1], 6), SUM_PROG, sum_setting()),
        (Atom("s", (mk_list([item_term(i) for i in (0, 1, 2)]),)), sorted_prog, sorted_setting()),
    ]
    for goal, prog, setting in cases:
        labs = [lab for _, lab in prove(
            goal, prog, setting, TableFacts(tables, pairs=pairs), SearchBudget(), allow_new_clauses=False
        )]
        assert labs and any(lab.item_labels or lab.pair_facts for lab in labs)
        for lab in labs:
            assert all(truth for _, truth in lab.pair_facts)
            assert abs(lab.log_prob - _oracle_log_prob(lab, tables, pairs)) <= 1e-12


def test_prove_left_recursion_terminates():
    # ident can bind the target to itself; the descent guard on the first
    # argument must cut that branch.
    setting = sum_setting(mrs=("ident",))
    runtime = Budget(max_nodes=50000)
    results = list(
        prove(int_goal([5], 5), Program(), setting, TableFacts.exact(), SearchBudget(max_clauses=2),
              runtime=runtime)
    )
    assert not runtime.exhausted
    assert any(clause_texts(prog, setting) == {"f(A,B) :- eq(A,B)."} for prog, _ in results)


_RECURSIVE_BK = """
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
same(L) :- same(L).
four :- one, one, one, one.
one.
"""


@pytest.mark.parametrize(
    "goal, bound, answers, cut",
    [
        ("app(X,Y,[1,2,3])", 512, 4, False),
        ("app(X,Y,[1,2,3])", 3, 3, True),  # the depth bound cuts the last split
        ("app([1],[2],[1,2])", 512, 1, False),
        ("same([1])", 16, 0, True),  # no descent check on background clauses
        ("four", 5, 1, False),
        ("four", 4, 0, True),  # the siblings of a goal pay for the steps before them
    ],
)
def test_prove_resolves_background_goals_as_deduce_does(monkeypatch, goal, bound, answers, cut):
    # the same fixed bound for both, whatever the goal's list items
    monkeypatch.setattr(kb_module, "DEPTH_BASE", bound)
    monkeypatch.setattr(kb_module, "DEPTH_PER_ITEM", 0)
    kb = standard_kb(_RECURSIVE_BK)
    atom = parse_atom(goal)
    by_kb = Budget()
    kb_answers = list(deduce(atom, kb, budget=by_kb))
    setting = InductionSetting(kb, default_metarules(), {}, ("t", 1), [])
    by_mil = Budget()
    proofs = prove(
        atom,
        Program(),
        setting,
        TableFacts.exact(),
        SearchBudget(),
        runtime=by_mil,
        allow_new_clauses=False,
    )
    assert sum(1 for _ in proofs) == len(kb_answers) == answers
    assert (by_mil.nodes, by_mil.depth_hits) == (by_kb.nodes, by_kb.depth_hits)
    assert (by_kb.depth_hits > 0) == cut


def test_prove_pruning_keeps_best_result():
    """budget.pruning leaves prove's whole stream as it is, so its best too:
    on a sum goal, and on a bogosort goal with an unbound ranking, where
    permute enumerates all six rankings and each one's sorted check abduces
    pair facts of other probabilities."""
    sum_facts = TableFacts({0: digit_table(2, peak=0.6), 1: digit_table(3, peak=0.6)})
    digits = (1, 3, 2)
    sort_facts = TableFacts({}, pairs={
        (a, b): (0.9 if digits[a] >= digits[b] else 0.2) - 0.01 * (a + b) for a in range(3) for b in range(3)
    })
    sort_prog = Program((MetaSub("tri_split", (("P", "f"), ("Q", "permute"), ("R", "s"))),))
    cases = [
        (item_goal([0, 1], 5), SUM_PROG, sum_setting(), sum_facts),
        (
            Atom("f", (mk_list([item_term(i) for i in range(3)]), Var("R"))),
            sort_prog,
            tasks.make_task("bogosort").setting(extra_program=_SORTED_BK),
            sort_facts,
        ),
    ]
    for goal, prog, setting, facts in cases:
        on, off = (
            [
                (lab.log_prob.hex(), lab.pair_facts, lab.item_labels)
                for _, lab in prove(goal, prog, setting, facts, SearchBudget(pruning=pruning), allow_new_clauses=False)
            ]
            for pruning in (True, False)
        )
        assert on == off
    assert len(on) == 6
    best = max(on, key=lambda r: float.fromhex(r[0]))
    assert {pair for pair, _ in best[1]} == {(1, 2), (2, 0)}


def test_prove_dyadic_fact_probability():
    setting = sorted_setting()
    prog = Program(
        (
            MetaSub("mono_rec", (("P", "s"), ("Q", "s_1"))),
            MetaSub("mono_chain", (("P", "s"), ("Q", "tail"), ("R", "empty"))),
            MetaSub("precon", (("P", "s_1"), ("Q", "nn"), ("R", "tail"))),
        ),
        (("s_1", 2),),
    )
    facts = TableFacts({}, pairs={(0, 1): 0.8, (1, 2): 0.7})
    goal = Atom("s", (mk_list([item_term(i) for i in (0, 1, 2)]),))
    results = list(
        prove(goal, prog, setting, facts, SearchBudget(), allow_new_clauses=False)
    )
    assert results
    best = max([lab for _, lab in results], key=lambda lab: lab.log_prob)
    assert abs(best.log_prob - (math.log(0.8) + math.log(0.7))) < 1e-12
    assert best.pair_facts == (((0, 1), True), ((1, 2), True))


def test_feasibility_proofs_are_never_pruned():
    """Blocking a negative needs every proof: a feasibility-only stream is
    the same under budget.pruning on and off."""
    rules = [r for r in default_metarules() if r.name in ("mono_ident", "mono_chain")]
    abd = {("nn", 1): Abducible("nn", ABD_FACT)}
    setting = InductionSetting(standard_kb(BK), rules, abd, ("s", 1), [("tail", 2), ("nn", 1)])
    prog = Program(
        (
            MetaSub("mono_ident", (("P", "s"), ("Q", "nn"))),
            MetaSub("mono_chain", (("P", "s"), ("Q", "tail"), ("R", "s"))),
        )
    )
    facts = TableFacts({}, pairs={(0, 1): 0.9, (1, 2): 0.5, (2, 3): 0.3})
    goal = Atom("s", (mk_list([item_term(i) for i in range(4)]),))

    def fact_sets(pruning):
        return [
            frozenset(pair for pair, _ in lab.pair_facts)
            for _, lab in prove(goal, prog, setting, facts, SearchBudget(pruning=pruning),
                           allow_new_clauses=False, feasibility_only=True)
        ]

    assert fact_sets(True) == fact_sets(False) == [
        frozenset({(0, 1)}), frozenset({(1, 2)}), frozenset({(2, 3)})
    ]
    neg = GoalExample(goal, positive=False)
    on = score_example(neg, prog, setting, facts, SearchBudget(pruning=True))
    assert on == score_example(neg, prog, setting, facts, SearchBudget(pruning=False))
    assert dict(on.pair_facts) == {(0, 1): False, (1, 2): False, (2, 3): False}


# ---------------------------------------------------------------------------
# closed programs: goals no clause chain can prove
# ---------------------------------------------------------------------------


def _chain(q, r="f"):
    return MetaSub("chain", (("P", "f"), ("Q", q), ("R", r)))


def _sum_feasibility(prog, n):
    """Clause texts of each feasibility proof of one sum positive of n
    items at clause budget 2, and the nodes searched."""
    setting = sum_setting(pool=LIST_POOL)
    facts = TableFacts({i: digit_table(3) for i in range(n)})
    runtime = Budget()
    proofs = prove(
        item_goal(range(n), 3 * n), prog, setting, facts, SearchBudget(max_clauses=2),
        runtime=runtime, feasibility_only=True,
    )
    return [clause_texts(prog, setting) for prog, _ in proofs], runtime.nodes


def test_closed_program_without_a_base_case_fails_at_once():
    """Both clauses recurse and the budget is full, so no proof can ever
    bottom out: prove fails the first goal, where a search down the list
    tries every mix of tail and add steps (69 / 285 / 1149 / 4605 nodes at
    L = 4 / 6 / 8 / 10)."""
    closed = Program((_chain("tail"), _chain("add")))
    one_clause = Program((_chain("add"),))
    grown = []
    for n in (4, 6, 8, 10):
        texts, nodes = _sum_feasibility(closed, n)
        assert texts == [] and nodes == 1
        texts, nodes = _sum_feasibility(one_clause, n)
        assert texts == [SUM_TEXTS, {"f(A,B) :- add(A,C), f(C,B).", "f(A,B) :- add(A,C), eq(C,B)."}]
        grown.append(nodes)
    # every second clause closes the program, so the search is linear in L
    assert len({b - a for a, b in zip(grown, grown[1:])}) == 1, grown


class _AllProductive:
    def __contains__(self, key):
        return True


@st.composite
def _prove_cases(draw):
    """A goal, a program (possibly with an invented symbol), a setting and
    the prove options: sum lists up to clause budget 2, and the
    sorted_concept setting, with invention, at budget 3."""
    if draw(st.booleans()):
        setting, cap = sum_setting(pool=LIST_POOL), draw(st.integers(1, 2))
        n = draw(st.integers(1, 4))
        tables = draw(st.lists(_WEIGHTS, min_size=n, max_size=n))
        facts = TableFacts({i: [w / sum(ws) for w in ws] for i, ws in enumerate(tables)})
        goal = item_goal(range(n), draw(st.integers(0, 9 * n)))
    else:
        setting, cap = sorted_setting(), 3
        n = draw(st.integers(1, 3))
        probs = draw(st.lists(st.floats(0.05, 0.95), min_size=n * n, max_size=n * n))
        facts = TableFacts({}, pairs={(a, b): probs[a * n + b] for a in range(n) for b in range(n)})
        goal = Atom("s", (mk_list([item_term(i) for i in range(n)]),))
    invented = ((setting.target[0] + "_1", 2),) if draw(st.booleans()) else ()
    heads = [setting.target, *invented]
    symbols = [*heads, *setting.body_pool]
    metasubs = []
    for _ in range(draw(st.integers(0, cap))):
        mr = draw(st.sampled_from([m for m in setting.metarules if m.head.arity in {a for _, a in heads}]))
        bindings = []
        for ev in mr.existentials:
            arity = mr.head.arity if ev == mr.head.pred_var else mr.body_slot_arity(ev)
            pool = heads if ev == mr.head.pred_var else symbols
            bindings.append((ev, draw(st.sampled_from([name for name, a in pool if a == arity]))))
        metasubs.append(MetaSub(mr.name, tuple(bindings)))
    budget = SearchBudget(max_clauses=cap, pruning=draw(st.booleans()))
    options = dict(allow_new_clauses=draw(st.booleans()), feasibility_only=draw(st.booleans()))
    return goal, Program(tuple(metasubs), invented), setting, facts, budget, options


def _streams(goal, prog, setting, facts, budget, **options):
    """prove's stream and nodes with the productivity prune, then with
    every predicate taken as productive."""

    def stream():
        runtime = Budget()
        proofs = [
            (prog, lab.log_prob.hex(), lab.pair_facts, lab.item_labels)
            for prog, lab in prove(goal, prog, setting, facts, budget, runtime=runtime, **options)
        ]
        return proofs, runtime.nodes

    on = stream()
    with pytest.MonkeyPatch.context() as mp:
        # the setting keeps each program's productive set, so patch its
        # reader, and the choice lists and proofs built on it, so drop those
        mp.setattr(InductionSetting, "productive", lambda self, prog: _AllProductive())
        mp.setattr(setting, "_choices", {})
        mp.setattr(setting, "_proofs", {})
        return on, stream()


@settings(max_examples=100, deadline=None)
@given(case=_prove_cases())
def test_productivity_prune_changes_no_proof(case):
    """The prune removes only branches that hold no proof: with every
    predicate taken as productive, prove yields the same stream, in no
    fewer nodes than with the prune."""
    goal, prog, setting, facts, budget, options = case
    (on, nodes_on), (off, nodes_off) = _streams(goal, prog, setting, facts, budget, **options)
    assert on == off
    assert nodes_on <= nodes_off


def test_productivity_prune_cuts_closing_choices_in_generation():
    """Generation from the empty program at budget 2: a second clause that
    closes the program with both clauses recursive is never tried, so the
    same proofs come in fewer nodes."""
    setting = sum_setting(pool=LIST_POOL)
    facts = TableFacts({i: digit_table(d) for i, d in enumerate((3, 1, 4, 1))})
    budget = SearchBudget(max_clauses=2)
    (on, nodes_on), (off, nodes_off) = _streams(
        item_goal(range(4), 9), Program(), setting, facts, budget, feasibility_only=True
    )
    assert on and on == off
    assert nodes_on < nodes_off, (nodes_on, nodes_off)


def test_dead_arithmetic_abduction_builds_no_store(monkeypatch):
    """add(In, Out) with an integer Out can never bind Out = [N|T]: it fails
    before any constraint store is built, cloned or posted to."""
    from abdlearn.fd import ConstraintStore

    calls = []
    for name in ("__init__", "clone", "post"):
        def spy(*args, _name=name, _orig=getattr(ConstraintStore, name), **kwargs):
            calls.append(_name)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(ConstraintStore, name, spy)
    setting = sum_setting()
    prog = Program((MetaSub("ident", (("P", "f"), ("Q", "add"))),))
    facts = TableFacts({i: digit_table(1) for i in range(2)})
    assert list(prove(item_goal([0, 1], 3), prog, setting, facts, allow_new_clauses=False)) == []
    assert calls == []


# ---------------------------------------------------------------------------
# score_example (positives and negatives)
# ---------------------------------------------------------------------------


def test_score_example_negative_blocks_cheapest_fact():
    setting = sorted_setting()
    prog = Program(
        (
            MetaSub("mono_rec", (("P", "s"), ("Q", "s_1"))),
            MetaSub("mono_chain", (("P", "s"), ("Q", "tail"), ("R", "empty"))),
            MetaSub("precon", (("P", "s_1"), ("Q", "nn"), ("R", "tail"))),
        ),
        (("s_1", 2),),
    )
    facts = TableFacts({}, pairs={(0, 1): 0.9, (1, 2): 0.2})
    goal = Atom("s", (mk_list([item_term(i) for i in (0, 1, 2)]),))
    lab = score_example(GoalExample(goal, positive=False), prog, setting, facts, SearchBudget())
    # Blocking the proof means falsifying (0,1) or (1,2); the latter is
    # nearly false already, and (0,1) is best kept true.
    assert lab is not None
    want = math.log(0.9) + math.log(0.8)
    assert abs(lab.log_prob - want) < 1e-12
    assert dict(lab.pair_facts) == {(0, 1): True, (1, 2): False}


def _blocking_oracle(proof_fact_sets, facts):
    """_best_blocking by brute force over every assignment, a mask with
    bit i the i-th pair in sorted order: the highest sum in that order, the
    smallest mask on an exact tie, and None when every blocking assignment
    scores -inf."""
    if any(not fs for fs in proof_fact_sets):
        return None
    keys = sorted(set().union(*proof_fact_sets)) if proof_fact_sets else []
    if not keys:
        return mil.ExampleLabeling(0.0)
    logs_true = {k: facts.pair_logprob(*k) for k in keys}
    logs_false = {k: mil._log_not(lp) for k, lp in logs_true.items()}
    best_lp, best_assign = -math.inf, None
    for mask in range(1 << len(keys)):
        assign = {k: bool(mask >> i & 1) for i, k in enumerate(keys)}
        if any(all(assign[k] for k in fs) for fs in proof_fact_sets):
            continue
        lp = 0.0
        for k in keys:
            lp += logs_true[k] if assign[k] else logs_false[k]
        if lp > best_lp:
            best_lp, best_assign = lp, assign
    if best_assign is None:
        return None
    return mil.ExampleLabeling(best_lp, pair_facts=tuple((k, best_assign[k]) for k in keys))


def _blocking_key(lab):
    return None if lab is None else (lab.log_prob.hex(), lab.pair_facts)


_PAIR_P = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0]),  # exact ties and -inf sides
    st.floats(0.0, 1.0).map(lambda p: min(max(p, 1e-9), 1 - 1e-9)),  # as TableFacts.from_model clips
)


@st.composite
def _blocking_cases(draw):
    """Up to 6 proofs over up to 10 pair facts, now and then a fact-free one
    or none at all, with each fact's probability from _PAIR_P."""
    n = draw(st.integers(1, 10))
    keys = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=n, max_size=n, unique=True))
    fact_set = st.frozensets(st.sampled_from(keys), min_size=1, max_size=n)
    proofs = draw(st.lists(st.one_of(fact_set, fact_set, fact_set, st.just(frozenset())), max_size=6))
    facts = TableFacts({}, pairs={k: draw(_PAIR_P) for k in keys})
    return proofs, facts


@settings(max_examples=400, deadline=None)
@given(case=_blocking_cases())
def test_best_blocking_matches_the_brute_force_oracle(case):
    proofs, facts = case
    runtime = Budget()
    assert _blocking_key(mil._best_blocking(proofs, facts, runtime)) == _blocking_key(_blocking_oracle(proofs, facts))
    assert runtime.ok()


def _adjacent_chain(n):
    """One proof through n adjacent pairs, each more probable true than
    false, fact 0 alone the least so: its probabilities and fact set."""
    probs = {(i, i + 1): 0.6 if i == 0 else 0.65 + 0.3 * ((i * 5) % 7) / 6 for i in range(n)}
    return probs, [frozenset(probs)]


def test_blocking_a_forty_fact_proof_is_exact_and_fast():
    """The optimum keeps every fact true but the one whose falsity costs
    least, fact 0; all false scores far below it."""
    probs, proofs = _adjacent_chain(40)
    facts = TableFacts({}, pairs=probs)
    t0 = time.perf_counter()
    lab = mil._best_blocking(proofs, facts, Budget())
    elapsed = time.perf_counter() - t0
    want, all_false = 0.0, 0.0
    for (a, b), p in sorted(probs.items()):
        want += math.log1p(-p) if a == 0 else math.log(p)
        all_false += math.log1p(-p)
    assert dict(lab.pair_facts) == {(a, b): a != 0 for a, b in probs}
    assert lab.log_prob == want and want > all_false
    assert elapsed < 0.05, elapsed


def test_blocking_search_stops_at_a_passed_deadline_with_its_best_so_far(monkeypatch):
    """The search reads the runtime at every node.  Its first leaf, its
    41st node, keeps every fact true but the last; a deadline found passed
    at the next read returns that leaf, one found passed at the first read
    returns all false, and the runtime records the cut."""
    probs, proofs = _adjacent_chain(40)
    facts = TableFacts({}, pairs=probs)
    keys = sorted(proofs[0])
    for passed_at, want in ((43, {k: k != keys[-1] for k in keys}), (2, {k: False for k in keys})):
        reads = iter(range(1, 1 << 20))  # the making of the runtime is read 1
        monkeypatch.setattr(kb_module.time, "monotonic", lambda: 0.0 if next(reads) < passed_at else 1.0)
        runtime = Budget(wall_ms=5)
        lab = mil._best_blocking(proofs, facts, runtime)
        assert runtime.exhausted and dict(lab.pair_facts) == want
        total = 0.0
        for k in keys:
            lp = facts.pair_logprob(*k)
            total += lp if want[k] else math.log1p(-math.exp(lp))
        assert lab.log_prob == total


def test_setting_materialises_each_metasub_once():
    setting = sum_setting()
    ms = MetaSub("chain", (("P", "f"), ("Q", "add"), ("R", "f")))
    clause = setting.clause_of(ms)
    assert clause == materialize(ms, setting.library)
    again = setting.clause_of(MetaSub("chain", (("P", "f"), ("Q", "add"), ("R", "f"))))
    assert again is clause


_SORTED_BK = Program(
    (
        MetaSub("mono_rec", (("P", "s"), ("Q", "s_1"))),
        MetaSub("precon", (("P", "s_1"), ("Q", "nn"), ("R", "tail"))),
        MetaSub("mono_chain", (("P", "s"), ("Q", "tail"), ("R", "empty"))),
    ),
    (("s_1", 2),),
)


def _choice_case(task_id):
    """A setting, its positives and their facts, from true digits."""
    task = tasks.make_task(task_id)
    digits = [[3, 1, 2], [2, 4], [5]] if task.target[1] == 2 else [[5, 3, 1], [4, 2], [7]]
    labels, ids, positives = {}, iter(range(100)), []
    for ds in digits:
        items = [next(ids) for _ in ds]
        labels.update(zip(items, ds))
        positives.append(task.goal(items, task.y_of(ds)))
    facts = TableFacts.exact(labels, n_values=task.n_classes, value_base=task.value_base,
                             pairs=lambda a, b: labels[a] >= labels[b])
    setting = task.setting(extra_program=_SORTED_BK if task_id == "bogosort" else None)
    return setting, positives, facts


def _choices_met(monkeypatch, setting, positives, facts) -> list:
    """(program, predicate, arity, allow_new, max_clauses, call types) of
    every clause choice list that generation and closed-program proofs of
    the positives read, at clause budgets 1 to 3 with new clauses allowed
    and not."""
    met = []
    listed = mil._Ctx.choices

    def spy(ctx, prog, pred, arity, types=None):
        met.append((prog, pred, arity, ctx.allow_new, ctx.budget.max_clauses, types))
        return listed(ctx, prog, pred, arity, types)

    monkeypatch.setattr(mil._Ctx, "choices", spy)
    for max_clauses in (1, 2, 3):
        budget = SearchBudget(max_clauses=max_clauses)
        for prog in mil._candidate_programs(positives, setting, budget, facts, Budget()):
            for ex in positives:
                list(prove(ex.goal, prog, setting, facts, budget, allow_new_clauses=False, feasibility_only=True))
    monkeypatch.undo()
    return met


@pytest.mark.parametrize("task_id", ["sum", "product", "sorted_concept", "bogosort"])
def test_clause_choices_are_listed_once_per_setting_as_enumerated(monkeypatch, task_id):
    """The setting's list of clause choices equals a fresh _clause_choices
    enumeration for every (program, predicate, arity) that generation and
    closed-program proofs meet, at clause budgets 1 to 3 with new clauses
    allowed and not, all through one setting."""
    setting, positives, facts = _choice_case(task_id)
    met = _choices_met(monkeypatch, setting, positives, facts)
    assert {m[3] for m in met} == {True, False}
    assert {m[4] for m in met} == {1, 2, 3}
    # call types key exactly the lists a program that can still grow reads
    assert all((m[5] is None) == mil._Ctx(setting, facts, SearchBudget(max_clauses=m[4]), m[3]).closed(m[0])
               for m in met)
    if task_id == "sorted_concept":
        assert any(p.invented for p, *_ in met)
    for prog, pred, arity, allow_new, max_clauses, types in dict.fromkeys(met):
        ctx = mil._Ctx(setting, facts, SearchBudget(max_clauses=max_clauses), allow_new)
        fresh = [(setting.clause_of(ms), p2) for ms, p2 in mil._clause_choices(pred, arity, prog, ctx, types)]
        assert ctx.choices(prog, pred, arity, types) == fresh


@pytest.mark.parametrize("task_id", ["sum", "product", "sorted_concept", "bogosort"])
def test_closing_clause_choices_have_productive_bodies(monkeypatch, task_id):
    """Every listed choice that leaves a closed program has only inducible
    body predicates that program can prove: a clause that would close an
    unproductive program is never listed.  On sum and on sorted_concept,
    which invents, the rule drops some choice that would be listed
    otherwise."""
    setting, positives, facts = _choice_case(task_id)
    closing = dropped = 0
    invented = False
    for prog, pred, arity, allow_new, max_clauses, types in dict.fromkeys(
        _choices_met(monkeypatch, setting, positives, facts)
    ):
        ctx = mil._Ctx(setting, facts, SearchBudget(max_clauses=max_clauses), allow_new)
        for clause, prog2 in ctx.choices(prog, pred, arity, types):
            if ctx.closed(prog2):
                closing += 1
                invented = invented or bool(prog2.invented)
                inducible = {setting.target[0], *(n for n, _ in prog2.invented)}
                productive = mil._productive(prog2, setting)
                assert all(b.key() in productive for b in clause.body if b.pred in inducible), (
                    program_text(prog2, setting.library)
                )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(InductionSetting, "productive", lambda self, prog: _AllProductive())
            every = [p2 for _, p2 in mil._clause_choices(pred, arity, prog, ctx, types) if ctx.closed(p2)]
        dropped += len(every) - sum(1 for _, p2 in ctx.choices(prog, pred, arity, types) if ctx.closed(p2))
    assert closing > 0
    if task_id in ("sum", "sorted_concept"):
        assert dropped > 0
    if task_id == "sorted_concept":
        assert invented


_WEIGHTS = st.lists(st.one_of(st.just(0.0), st.floats(0.001, 1.0)), min_size=10, max_size=10).filter(any)


@settings(max_examples=80, deadline=None)
@given(tables=st.lists(_WEIGHTS, min_size=2, max_size=3), y=st.integers(0, 28))
def test_score_example_matches_brute_force_labels(tables, y):
    """The sum program's best labeling equals enumerating every label tuple."""
    facts = TableFacts({i: [w / sum(ws) for w in ws] for i, ws in enumerate(tables)})
    feasible = []
    for labels in itertools.product(range(10), repeat=len(tables)):
        if sum(labels) != y:
            continue
        lp = sum(facts.item_logweights(i)[v] for i, v in enumerate(labels))
        if lp > -math.inf:
            feasible.append((lp, labels))
    feasible.sort(reverse=True)
    ex = GoalExample(item_goal(range(len(tables)), y))
    for pruning in (True, False):
        lab = score_example(ex, SUM_PROG, sum_setting(), facts, SearchBudget(pruning=pruning))
        if not feasible:
            assert lab is None
            continue
        best_lp, best_labels = feasible[0]
        assert lab is not None and abs(lab.log_prob - best_lp) <= 1e-12
        if len(feasible) == 1 or feasible[1][0] < best_lp - 1e-9:
            assert lab.item_labels == tuple(enumerate(best_labels))


def test_score_example_negative_unblockable_when_proof_is_fact_free():
    kb = standard_kb(BK)
    rules = [r for r in default_metarules() if r.name == "mono_chain"]
    setting = InductionSetting(kb, rules, {}, ("s", 1), [("tail", 2), ("empty", 1)])
    prog = Program((MetaSub("mono_chain", (("P", "s"), ("Q", "tail"), ("R", "empty"))),))
    goal = Atom("s", (mk_list([item_term(0)]),))
    assert score_example(GoalExample(goal, positive=False), prog, setting, TableFacts.exact(), SearchBudget()) is None
    # Unprovable negatives cost nothing.
    goal2 = Atom("s", (mk_list([item_term(0), item_term(1)]),))
    lab = score_example(GoalExample(goal2, positive=False), prog, setting, TableFacts.exact(), SearchBudget())
    assert lab is not None and lab.log_prob == 0.0


# ---------------------------------------------------------------------------
# induce
# ---------------------------------------------------------------------------


def test_induce_sum_program_from_ground_examples():
    setting = sum_setting()
    examples = [
        GoalExample(int_goal([1, 2, 3], 6)),
        GoalExample(int_goal([2, 2], 4)),
        GoalExample(int_goal([5], 5)),
    ]
    out = induce(examples, setting, TableFacts.exact(), SearchBudget(max_clauses=2))
    assert out.induced is not None
    assert clause_texts(out.induced.program, setting) == SUM_TEXTS
    assert abs(out.induced.log_score - log_prior(2)) < 1e-12
    assert all(lab.log_prob == 0.0 for lab in out.induced.labelings)


def test_induce_prefers_fewer_clauses():
    # A single example provable by one clause: the prior must pick the
    # one-clause program even though the two-clause one also proves it.
    setting = sum_setting()
    out = induce([GoalExample(int_goal([5], 5))], setting, TableFacts.exact(), SearchBudget(max_clauses=2))
    assert out.induced is not None
    assert out.induced.program.size == 1
    assert clause_texts(out.induced.program, setting) == {"f(A,B) :- eq(A,B)."}
    assert abs(out.induced.log_score - log_prior(1)) < 1e-12


def test_induce_noisy_items_scores_products():
    # Varied lengths matter: a singleton rules out programs whose every
    # clause consumes two items, and a three-item sequence rules out the
    # non-recursive add-then-eq chain.
    tables = {
        0: digit_table(3),
        1: digit_table(4),
        2: digit_table(1),
        3: digit_table(5),
        4: digit_table(1),
        5: digit_table(2),
        6: digit_table(3),
        7: digit_table(4),
    }
    facts = TableFacts(tables)
    setting = sum_setting()
    examples = [
        GoalExample(item_goal([0, 1], 7)),
        GoalExample(item_goal([2, 3], 6)),
        GoalExample(item_goal([4, 5, 6], 6)),
        GoalExample(item_goal([7], 4)),
    ]
    out = induce(examples, setting, facts, SearchBudget(max_clauses=2))
    assert out.induced is not None
    assert clause_texts(out.induced.program, setting) == SUM_TEXTS
    want = log_prior(2) + 8 * math.log(0.9)
    assert abs(out.induced.log_score - want) < 1e-9
    assert dict(out.induced.labelings[0].item_labels) == {0: 3, 1: 4}
    assert dict(out.induced.labelings[1].item_labels) == {2: 1, 3: 5}
    assert dict(out.induced.labelings[2].item_labels) == {4: 1, 5: 2, 6: 3}
    assert dict(out.induced.labelings[3].item_labels) == {7: 4}


def test_induce_pruning_toggle_identical_outcome():
    tables = {i: digit_table((i % 9) + 1, peak=0.7) for i in range(6)}
    facts = TableFacts(tables)
    setting = sum_setting()
    examples = [
        GoalExample(item_goal([0, 1, 2], 6)),
        GoalExample(item_goal([3, 4, 5], 15)),
    ]
    on = induce(examples, setting, facts, SearchBudget(max_clauses=2, pruning=True))
    off = induce(examples, setting, facts, SearchBudget(max_clauses=2, pruning=False))
    assert on.induced is not None and off.induced is not None
    assert on.induced.program.key() == off.induced.program.key()
    assert on.induced.program.size == off.induced.program.size
    assert on.induced.log_score == off.induced.log_score


def test_induce_budget_exhaustion_is_reported():
    setting = sum_setting()
    out = induce(
        [GoalExample(int_goal([1, 2, 3], 6))],
        setting,
        TableFacts.exact(),
        SearchBudget(max_clauses=2, max_nodes=5),
    )
    assert out.induced is None
    assert out.budget_exhausted
    assert out.failure == "budget_exhausted"


def test_induce_reports_unscorable_candidates():
    # Every program that proves the positive also proves the same goal as a
    # negative, and a fact-free proof cannot be blocked.
    goal = int_goal([1, 2, 3], 6)
    examples = [GoalExample(goal), GoalExample(goal, positive=False)]
    out = induce(examples, sum_setting(), TableFacts.exact(), SearchBudget(max_clauses=2))
    assert out.induced is None and not out.budget_exhausted
    assert out.candidates_tried > 0
    assert out.failure == "unscorable"
    ok = induce(examples[:1], sum_setting(), TableFacts.exact(), SearchBudget(max_clauses=2))
    assert ok.induced is not None and ok.failure is None


def _full_generation(positives, setting, budget, facts, runtime):
    """Reference candidate generation: every program must prove every
    positive in generation, also after it has filled the clause budget."""
    seen_prefix, found = set(), {}

    def rec(idx, prog):
        if not runtime.ok():
            return
        if idx == len(positives):
            if prog.size > 0:
                found.setdefault(prog.key(), prog)
            return
        if (prog.key(), idx) in seen_prefix:
            return
        seen_prefix.add((prog.key(), idx))
        local = set()
        for prog2, _ in prove(
            positives[idx].goal, prog, setting, facts, budget,
            runtime=runtime, feasibility_only=True,
        ):
            if prog2.key() not in local:
                local.add(prog2.key())
                rec(idx + 1, prog2)

    rec(0, Program())
    return sorted(found.values(), key=lambda p: (p.size, program_text(p, setting.library)))


def _outcome(out):
    ind = out.induced
    won = None if ind is None else (sorted(ind.program.key()), ind.log_score.hex(), ind.labelings)
    return won, out.budget_exhausted, out.failure


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_induce_matches_full_generation_reference(data):
    """Leaving full programs to scoring changes no outcome of induce."""
    lengths = data.draw(st.lists(st.integers(2, 3), min_size=2, max_size=4))
    negative = data.draw(st.booleans())
    n_items = sum(lengths) + 2 * negative
    tables = data.draw(st.lists(_WEIGHTS, min_size=n_items, max_size=n_items))
    facts = TableFacts({i: [w / sum(ws) for w in ws] for i, ws in enumerate(tables)})
    ids = iter(range(n_items))
    examples = []
    for n in lengths:
        items = [next(ids) for _ in range(n)]
        # mostly the sum of a label tuple of nonzero weight, else out of reach
        y = sum(data.draw(st.sampled_from([v for v, w in enumerate(tables[i]) if w])) for i in items)
        examples.append(GoalExample(item_goal(items, y if data.draw(st.integers(0, 4)) else 9 * n + 1)))
    if negative:
        neg = GoalExample(item_goal([next(ids), next(ids)], data.draw(st.integers(0, 18))), positive=False)
        examples.insert(data.draw(st.integers(0, len(examples))), neg)
    budget = SearchBudget(max_clauses=2)
    got = induce(examples, sum_setting(), facts, budget)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mil, "_candidate_programs", _full_generation)
        want = induce(examples, sum_setting(), facts, budget)
    assert _outcome(got) == _outcome(want)


def test_generation_never_extends_a_full_program(monkeypatch):
    calls = []

    def spy(goals, program, setting, facts, budget=None, **kw):
        calls.append((program.size, budget.max_clauses, kw.get("allow_new_clauses", True)))
        return prove(goals, program, setting, facts, budget, **kw)

    monkeypatch.setattr(mil, "prove", spy)
    examples = [GoalExample(int_goal([1, 2], 3)), GoalExample(int_goal([4, 5, 6], 15))]
    out = induce(examples, sum_setting(), TableFacts.exact(), SearchBudget(max_clauses=2))
    assert out.induced is not None
    generation = [(size, cap) for size, cap, new in calls if new]
    assert generation and all(size < cap for size, cap in generation)
    assert any(size == 2 for size, _, new in calls if not new)  # full programs reach scoring


def test_a_solver_cut_is_recorded_on_the_runtime(monkeypatch):
    # Item 0 occurs twice, so its store x0+x0#=v is not a chain and goes to
    # branch-and-bound, which reads the runtime at every node.
    facts = TableFacts({0: digit_table(2), 1: digit_table(3)})
    setting = sum_setting()
    ex = GoalExample(item_goal([0, 0], 4))
    rt, solved = Budget(), {}
    lab = score_example(ex, SUM_PROG, setting, facts, SearchBudget(), rt, solved=solved)
    assert dict(lab.item_labels) == {0: 2} and rt.ok() and len(solved) == 1
    assert induce([ex], setting, facts, SearchBudget(max_clauses=2)).induced is not None
    solve_best = mil.solve_best

    def deadline_passes(store, tables, budget):
        budget.deadline = 0.0  # passed as the solver starts
        return solve_best(store, tables, budget)

    monkeypatch.setattr(mil, "solve_best", deadline_passes)
    # the search stops before any labeling: the example scores -inf, not
    # "no proof", the runtime says why, and the answer is not kept
    rt, solved = Budget(), {}
    cut = score_example(ex, SUM_PROG, setting, facts, SearchBudget(), rt, solved=solved)
    assert cut is not None and cut.log_prob == -math.inf
    assert rt.exhausted and solved == {}
    out = induce([ex], setting, facts, SearchBudget(max_clauses=2))
    assert (out.induced, out.budget_exhausted, out.failure) == (None, True, "budget_exhausted")


def test_induce_sorted_concept_with_invention():
    setting = sorted_setting()
    labels = {0: 1, 1: 3, 2: 5, 10: 2, 11: 4, 20: 7, 30: 2, 31: 1, 40: 1, 41: 6, 42: 2}
    facts = TableFacts.exact(labels, pairs=lambda a, b: labels[a] <= labels[b])

    def s_goal(ids):
        return Atom("s", (mk_list([item_term(i) for i in ids]),))

    examples = [
        GoalExample(s_goal([0, 1, 2])),
        GoalExample(s_goal([10, 11])),
        GoalExample(s_goal([20])),
        GoalExample(s_goal([30, 31]), positive=False),
        GoalExample(s_goal([40, 41, 42]), positive=False),
    ]
    out = induce(examples, setting, facts, SearchBudget(max_clauses=3))
    assert out.induced is not None
    texts = clause_texts(out.induced.program, setting)
    assert "s(A) :- tail(A,B), empty(B)." in texts
    assert any(t in texts for t in ("s(A) :- s_1(A,B), s(B).",))
    assert "s_1(A,B) :- nn(A), tail(A,B)." in texts
    assert out.induced.program.size == 3
    assert abs(out.induced.log_score - log_prior(3)) < 1e-12


@st.composite
def _arith_batches(draw):
    """A random sum or product batch as acceptance criterion 10 draws them:
    up to 3 examples of up to 3 items, tables biased toward the drawn
    digits, now and then an unprovable target.  With repeat, an example
    of two or more items ends on its first item again, so its store is no
    chain and takes branch-and-bound."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    task = tasks.make_task(draw(st.sampled_from(["sum", "product"])))
    repeat = draw(st.booleans())
    examples, tables, next_item = [], {}, 0
    for _ in range(int(rng.integers(1, 4))):
        length = int(rng.integers(1, 4))
        digits = [int(d) for d in rng.integers(task.digit_lo, task.digit_hi + 1, size=length)]
        ids = list(range(next_item, next_item + length))
        next_item += length
        for i, d in zip(ids, digits):
            p = rng.dirichlet(np.ones(task.n_classes))
            p[d - task.value_base] += 0.5
            tables[i] = (p / p.sum()).tolist()
        if repeat and length > 1:
            ids[-1], digits[-1] = ids[0], digits[0]
        y = sum(digits) if task.id == "sum" else int(np.prod(digits))
        if rng.random() < 0.15:
            y += task.digit_hi * length + 1
        examples.append(task.goal(ids, y))
    return examples, task, TableFacts(tables, value_base=task.value_base)


def _pool_and_nodes(positives, setting, facts, max_clauses):
    """Generation's pool, as program texts in pool order, and its nodes."""
    runtime = Budget()
    pool = mil._candidate_programs(positives, setting, SearchBudget(max_clauses=max_clauses), facts, runtime)
    return [program_text(p, setting.library) for p in pool], runtime.nodes


def _unfiltered_pool_and_nodes(positives, setting, facts, max_clauses):
    """_pool_and_nodes with the type check passing every clause."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mil, "_well_typed", lambda *a: True)
        return _pool_and_nodes(positives, setting, facts, max_clauses)


def _typed_case(task_id):
    """A task and eight positives of lengths 1 to 4, twice: as item goals
    with tables that put 0.9 on the true digit, and as ground Int goals
    with exact (empty) tables."""
    task = tasks.make_task(task_id)
    rng = np.random.default_rng(3)
    tables, items, ground, ids = {}, [], [], iter(range(100))
    for length in (1, 2, 3, 4, 1, 2, 3, 4):
        ds = [int(d) for d in rng.integers(task.digit_lo, task.digit_hi + 1, size=length)]
        handles = [next(ids) for _ in ds]
        tables.update((i, digit_table(d - task.value_base, n=task.n_classes)) for i, d in zip(handles, ds))
        items.append(task.goal(handles, task.y_of(ds)))
        ground.append(GoalExample(int_goal(ds, task.y_of(ds))))
    return task, {"item": (items, TableFacts(tables, task.value_base)), "int": (ground, TableFacts.exact())}


@pytest.mark.parametrize("task_id", ["sum", "product"])
@pytest.mark.parametrize("kind", ["item", "int"])
def test_typed_generation_keeps_every_program_in_fewer_nodes(task_id, kind):
    """At clause budgets 1 to 4, generation's pool equals the unfiltered
    enumeration's, in the same order, and the type check drops nodes at
    every budget."""
    task, cases = _typed_case(task_id)
    positives, facts = cases[kind]
    for max_clauses in (1, 2, 3, 4):
        typed = _pool_and_nodes(positives, task.setting(), facts, max_clauses)
        every = _unfiltered_pool_and_nodes(positives, task.setting(), facts, max_clauses)
        assert typed[0] == every[0]
        assert typed[1] < every[1]
    assert typed[0]  # the pool at budget 4 is not empty


@settings(max_examples=25, deadline=None)
@given(batch=_arith_batches(), ground=st.booleans())
def test_typed_generation_keeps_the_unfiltered_pool(batch, ground):
    """On random sum and product batches, as item goals under noisy tables
    or as ground Int goals (each item replaced by its most probable digit)
    under exact tables, generation's pool at clause budgets 1 to 4 equals
    the unfiltered enumeration's, and its nodes are never more."""
    examples, task, facts = batch
    positives = [e for e in examples if e.positive]
    if ground:
        positives = [
            GoalExample(int_goal([facts.item_label(mil._item_id(t)) for t in proper_list_items(e.goal.args[0])],
                                 e.goal.args[1].value))
            for e in positives
        ]
        facts = TableFacts.exact()
    for max_clauses in (1, 2, 3, 4):
        typed = _pool_and_nodes(positives, task.setting(), facts, max_clauses)
        every = _unfiltered_pool_and_nodes(positives, task.setting(), facts, max_clauses)
        assert typed[0] == every[0]
        assert typed[1] <= every[1]


@pytest.mark.parametrize("task_id", ["sum", "product"])
def test_one_setting_serves_int_and_item_goals_alike(task_id):
    """Choice lists are keyed by the call's types: one setting used first
    with ground Int goals and then with item goals, or the other way
    round, gives each the pool and nodes a fresh setting gives.  (Under
    f(list(int), int), f(A,B) :- head(A,B) type-checks; under
    f(list(item), int) it does not.)"""
    task, cases = _typed_case(task_id)
    budgets = (1, 2, 3)
    fresh = {k: [_pool_and_nodes(goals, task.setting(), facts, mc) for mc in budgets] for k, (goals, facts) in cases.items()}
    assert any("f(A,B) :- head(A,B)." in text for texts, _ in fresh["int"] for text in texts)
    for order in (("int", "item"), ("item", "int")):
        shared = task.setting()
        for kind in order:
            positives, facts = cases[kind]
            assert [_pool_and_nodes(positives, shared, facts, mc) for mc in budgets] == fresh[kind]


def test_generation_abduces_no_add_with_an_int_output(monkeypatch):
    """No clause that hands an integer to add's list output, such as
    f(A,B) :- add(A,B), is listed for f(list, int), so no such add goal
    reaches _abduce while generation runs on a sum batch."""
    task, cases = _typed_case("sum")
    positives, facts = cases["item"]
    adds = []
    abduce = mil._abduce

    def spy(spec, g, s, state, ctx):
        if g.pred == "add":
            adds.append(g)
        return abduce(spec, g, s, state, ctx)

    monkeypatch.setattr(mil, "_abduce", spy)
    assert mil._candidate_programs(positives, task.setting(), SearchBudget(max_clauses=3), facts, Budget())
    assert adds
    assert not [g for g in adds if isinstance(g.args[1], Int)]


def _induced_with_counters(examples, setting, facts, budget):
    runtime = budget.runtime()
    out = induce(examples, setting, facts, budget, runtime=runtime)
    ind = out.induced
    won = None if ind is None else (sorted(ind.program.key()), ind.log_score.hex(), ind.labelings)
    counters = (runtime.nodes, runtime.depth_hits, runtime.solver_nodes, runtime.solver_leaves)
    return won, out.candidates_tried, out.failure, out.budget_exhausted, counters


@settings(max_examples=40, deadline=None)
@given(batch=_arith_batches())
def test_solve_map_changes_no_outcome_or_counter(batch):
    """Solving each distinct store once per induce call changes nothing:
    outcome, labelings, log_score bits and all four counters match a run
    that solves every store it meets."""
    examples, task, facts = batch
    budget = SearchBudget(max_clauses=2)
    got = _induced_with_counters(examples, task.setting(), facts, budget)
    with pytest.MonkeyPatch.context() as mp:
        plain = mil.score_example
        mp.setattr(mil, "score_example", lambda *a, solved=None, **kw: plain(*a, **kw))
        want = _induced_with_counters(examples, task.setting(), facts, budget)
    assert got == want


def test_solve_map_solves_a_shared_store_once():
    """Both base cases of the sum program build the same chain store on
    each example: with the map each store is solved once under its tables,
    without it some are solved twice."""
    facts = TableFacts({i: digit_table(d) for i, d in enumerate([1, 2, 3, 4, 5])})
    examples = [GoalExample(item_goal([0, 1], 3)), GoalExample(item_goal([2, 3, 4], 12))]

    def solved_stores(mp):
        seen = []
        plain = mil.solve_best

        def spy(store, tables, *a, **kw):
            seen.append((store.content(), tuple(sorted(tables.items()))))
            return plain(store, tables, *a, **kw)

        mp.setattr(mil, "solve_best", spy)
        assert induce(examples, sum_setting(), facts, SearchBudget(max_clauses=2)).induced is not None
        return seen

    with pytest.MonkeyPatch.context() as mp:
        once = solved_stores(mp)
    with pytest.MonkeyPatch.context() as mp:
        plain_score = mil.score_example
        mp.setattr(mil, "score_example", lambda *a, solved=None, **kw: plain_score(*a, **kw))
        every = solved_stores(mp)
    assert len(once) == len(set(once)) < len(every)
    assert set(once) == set(every)


def test_induce_generates_candidates_once_at_the_callers_budget(monkeypatch):
    """One generation per induce call, at the caller's clause budget, also
    where the winner is smaller than the budget or needs all of it."""
    budgets = []
    plain = mil._candidate_programs

    def spy(positives, setting, budget, facts, runtime):
        budgets.append(budget.max_clauses)
        return plain(positives, setting, budget, facts, runtime)

    monkeypatch.setattr(mil, "_candidate_programs", spy)
    for examples, size in (([int_goal([5], 5)], 1), ([int_goal([1, 2, 3], 6), int_goal([2, 2], 4)], 2)):
        budgets.clear()
        out = induce([GoalExample(g) for g in examples], sum_setting(), TableFacts.exact(), SearchBudget(max_clauses=2))
        assert out.induced.program.size == size
        assert budgets == [2]
    setting, examples, facts = _sorted_batches()[2]
    budgets.clear()
    assert induce(examples, setting, facts, SearchBudget(max_clauses=3)).induced.program.size == 3
    assert budgets == [3]


def _sorted_batches():
    """sorted_concept batches with noisy pair facts, whose winners at
    clause budget 3 have 2, 1 and 3 clauses: positives alone take the
    program that holds of every list, singletons the one-clause check, and
    with negatives the sorted check with an invented symbol wins."""
    rng = np.random.default_rng(5)
    out = []
    for pos, neg in (
        ([[5, 3, 1], [4, 2], [7]], []),
        ([[7], [2]], []),
        ([[5, 3, 1], [4, 2], [7]], [[2, 4], [1, 6, 2]]),
    ):
        digits, examples = [], []
        for ds, positive in [(ds, True) for ds in pos] + [(ds, False) for ds in neg]:
            items = list(range(len(digits), len(digits) + len(ds)))
            digits += ds
            examples.append(GoalExample(Atom("s", (mk_list([item_term(i) for i in items]),)), positive))
        n = len(digits)
        pairs = {
            (a, b): float(rng.uniform(0.7, 0.95) if digits[a] >= digits[b] else rng.uniform(0.05, 0.3))
            for a in range(n) for b in range(n)
        }
        out.append((sorted_setting(), examples, TableFacts({}, pairs=pairs)))
    return out


def _per_size_winner(examples, setting, facts, budget):
    """The search induce ran before it generated once: for each program
    size k, a generation at clause budget k whose size-k programs are
    scored in print order, stopping before size k once the prior of k is
    at or below the best score."""
    positives = [e for e in examples if e.positive]
    best_log, best = -math.inf, None
    for k in range(1, budget.max_clauses + 1):
        if best is not None and log_prior(k) <= best_log:
            break
        for prog in mil._candidate_programs(positives, setting, replace(budget, max_clauses=k), facts, Budget()):
            if prog.size != k:
                continue
            acc, labs = log_prior(k), []
            for ex in examples:
                lab = score_example(ex, prog, setting, facts, budget)
                if lab is None:
                    break
                acc += lab.log_prob
                labs.append(lab)
            else:
                if acc > best_log:
                    best_log, best = acc, (sorted(prog.key()), acc.hex(), tuple(labs))
    return best


def _winner(out):
    ind = out.induced
    return None if ind is None else (sorted(ind.program.key()), ind.log_score.hex(), ind.labelings)


@settings(max_examples=40, deadline=None)
@given(batch=_arith_batches(), max_clauses=st.integers(1, 3), pruning=st.booleans())
def test_one_generation_matches_per_size_search(batch, max_clauses, pruning):
    """Scoring one generation at the clause budget by size, with the prior
    stop before each candidate, wins with the program, log_score bits and
    labelings of a generation per size."""
    examples, task, facts = batch
    budget = SearchBudget(max_clauses=max_clauses, pruning=pruning)
    got = _winner(induce(examples, task.setting(), facts, budget))
    assert got == _per_size_winner(examples, task.setting(), facts, budget)


def test_one_generation_matches_per_size_search_on_sorted_concept():
    sizes = []
    for setting, examples, facts in _sorted_batches():
        budget = SearchBudget(max_clauses=3)
        out = induce(examples, setting, facts, budget)
        assert _winner(out) == _per_size_winner(examples, sorted_setting(), facts, budget)
        sizes.append(out.induced.program.size)
    assert sizes == [2, 1, 3]


def _programs_over(op):
    """Closed programs the memo tests prove under: the task's, its other
    base case, one that skips to the last item, one that hands y to an
    invented predicate, and the task's with a third clause that hands y to
    head/2 (which proves a goal only where an Int among the items keeps y
    in the key)."""
    step = MetaSub("chain", (("P", "f"), ("Q", op), ("R", "f")))
    ident = MetaSub("ident", (("P", "f"), ("Q", "eq")))
    skip = MetaSub("chain", (("P", "f"), ("Q", "tail"), ("R", "f")))
    invented = (
        MetaSub("ident", (("P", "f"), ("Q", "f_1"))),
        MetaSub("chain", (("P", "f_1"), ("Q", op), ("R", "f_1"))),
        MetaSub("ident", (("P", "f_1"), ("Q", "eq"))),
    )
    return [
        Program((step, ident)),
        Program((step, MetaSub("chain", (("P", "f"), ("Q", op), ("R", "eq"))))),
        Program((skip, ident)),
        Program(invented, (("f_1", 2),)),
        Program((step, ident, MetaSub("chain", (("P", "f"), ("Q", "tail"), ("R", "head"))))),
    ]


def _scored(setting, goal, prog, facts, budget):
    rt = budget.runtime()
    lab = score_example(GoalExample(goal), prog, setting, facts, budget, rt)
    got = None if lab is None else (lab.log_prob.hex(), lab.item_labels)
    return got, (rt.nodes, rt.depth_hits, rt.solver_nodes, rt.solver_leaves), rt.exhausted


def _best_proved(setting, goal, prog, facts, budget):
    """The best of prove's stream, as score_example takes it."""
    rt = budget.runtime()
    return _best_of(prove(goal, prog, setting, facts, budget, runtime=rt, allow_new_clauses=False), rt)


def _concrete(setting, goal, prog, facts, budget):
    """_best_proved of the goal's own proof, y in the goal and no stored
    proof: the leaves of _leaves, each with its pairs' log-probabilities
    summed in path order, solved as prove solves them."""
    rt = budget.runtime()
    ctx = mil._Ctx(setting, facts, budget, False)

    def leaves():
        for prog2, ab, abduced in mil._leaves([goal], prog, ctx, rt):
            dlogp = 0.0
            for pair in abduced:
                dlogp += facts.pair_logprob(*pair)
            yield prog2, ab.store, ab.item_vars, dlogp, abduced

    return _best_of(mil._results(leaves(), ctx, rt, False, None), rt)


def _best_of(results, rt):
    best = None
    for _, lab in results:
        if best is None or lab.log_prob > best.log_prob:
            best = lab
    got = None if best is None else (best.log_prob.hex(), best.item_labels)
    return got, (rt.nodes, rt.depth_hits, rt.solver_nodes, rt.solver_leaves), rt.exhausted


def _tables(n):
    return st.lists(st.one_of(st.just(0.0), st.floats(0.001, 1.0)), min_size=n, max_size=n).filter(any)


@st.composite
def _shape_cases(draw):
    """Five sum or product goals over one list of 1-6 items, some of them
    repeated handles or integers, each with its own fact oracle: the second
    has the first one's shape under other item ids and tables, the third
    another y, feasible or not, the fourth a fresh handle in each item slot
    and the fifth the first one's items in reverse order."""
    task = tasks.make_task(draw(st.sampled_from(["sum", "product"])))
    n = draw(st.integers(1, 6))
    item = st.integers(0, n - 1).map(lambda k: ("item", k))
    literal = st.integers(task.digit_lo, task.digit_hi).map(lambda v: ("int", v))
    slots = draw(st.lists(st.one_of(item, literal), min_size=n, max_size=n))
    goals, oracles = [], []
    ys = []
    for _ in range(2):
        digits = [draw(literal)[1] if kind == "item" else v for kind, v in slots]
        ys.append(task.y_of(digits) if draw(st.booleans()) else draw(st.integers(0, 9**6)))
    distinct = [("item", i) if kind == "item" else (kind, v) for i, (kind, v) in enumerate(slots)]
    variants = [(0, ys[0], slots), (100, ys[0], slots), (100, ys[1], slots)]
    variants += [(200, ys[0], distinct), (300, ys[0], slots[::-1])]
    for offset, y, slots in variants:
        tables = {}
        for k in sorted({v for kind, v in slots if kind == "item"}):
            ws = draw(_tables(task.n_classes))
            tables[k + offset] = [w / sum(ws) for w in ws]
        oracles.append(TableFacts(tables, value_base=task.value_base))
        items = [item_term(v + offset) if kind == "item" else Int(v) for kind, v in slots]
        goals.append(Atom("f", (mk_list(items), Int(y))))
    return task, "add" if task.id == "sum" else "mult", goals, oracles


@settings(max_examples=60, deadline=None)
@given(case=_shape_cases())
def test_shared_proofs_match_proving_each_goal(case):
    """A positive scored through the setting's stored proof of its shape
    matches the goal's own proof with y in it on a fresh setting (_leaves,
    no stored proof): log_prob bits, labels, all four counters and the
    budget's exhausted flag.  Every program here takes y as a parameter, so the second
    goal (the first one's shape under other ids and tables) and the third
    (another y) reuse each stored proof and store none, unless an Int
    among the items keeps y in the key: then the third stores its own
    under another y.  Each later one, with the first one's y, stores its
    own unless its key is the first one's."""
    task, op, goals, oracles = case
    budget = SearchBudget(max_clauses=2)
    shared = task.setting()
    keeps_y = any(t.__class__ is Int for t in proper_list_items(goals[0].args[0]))
    for prog in _programs_over(op):
        assert ("f", 2, 1) in shared.parameters(prog)
        for k, (goal, facts) in enumerate(zip(goals, oracles)):
            stored = len(shared._proofs)
            got = _scored(shared, goal, prog, facts, budget)
            assert got == _concrete(task.setting(), goal, prog, facts, budget)
            assert not got[2]
            keys = [mil._proof_key([g], prog, shared, f)[0] for g, f in ((goal, facts), (goals[0], oracles[0]))]
            new_key = keys[0] != keys[1]
            new_y = keeps_y and goal.args[1] != goals[0].args[1]
            assert len(shared._proofs) == stored + (k == 0 or (k == 2 and new_y) or (k > 2 and new_key))


_TIED = (  # [a, a] summing to 4 under a uniform table: a = 2 and a = 4 tie
    tasks.make_task("sum"), "add", [Atom("f", (mk_list([item_term(0)] * 2), Int(4)))], [TableFacts({0: [0.1] * 10})]
)


@settings(max_examples=60, deadline=None)
@given(case=_shape_cases())
@example(case=_TIED)
def test_score_example_takes_the_first_best_proof(case):
    """On sum and product positives, score_example returns the labeling of
    the first proof that prove yields at the maximum log_prob, whole:
    log_prob bits, item labels and pair facts; None when prove yields
    none.  Beside _programs_over's, a program that may add or skip each
    item proves a goal many ways: on _TIED, two of them tie."""
    task, op, goals, oracles = case
    budget = SearchBudget(max_clauses=2)
    add_or_skip = Program((
        MetaSub("chain", (("P", "f"), ("Q", op), ("R", "f"))),
        MetaSub("chain", (("P", "f"), ("Q", "tail"), ("R", "f"))),
        MetaSub("ident", (("P", "f"), ("Q", "eq"))),
    ))
    for prog in [*_programs_over(op), add_or_skip]:
        for goal, facts in zip(goals, oracles):
            labs = [lab for _, lab in prove(goal, prog, task.setting(), facts, budget, allow_new_clauses=False)]
            got = score_example(GoalExample(goal), prog, task.setting(), facts, budget)
            if not labs:
                assert got is None
                continue
            top = max(lab.log_prob for lab in labs)
            assert got == next(lab for lab in labs if lab.log_prob == top)


@st.composite
def _param_cases(draw):
    """Sum or product goals over one list shape of 1-6 items, some of them
    repeated handles or integers, each with its own item ids and tables
    (zeros included), and 2-6 values of y in any order, repeats included:
    reachable ones, 0, one above the largest reachable value, and any."""
    task = tasks.make_task(draw(st.sampled_from(["sum", "product"])))
    n = draw(st.integers(1, 6))
    item = st.integers(0, n - 1).map(lambda k: ("item", k))
    literal = st.integers(task.digit_lo, task.digit_hi).map(lambda v: ("int", v))
    slots = draw(st.lists(st.one_of(item, literal), min_size=n, max_size=n))
    reachable = st.lists(literal, min_size=n, max_size=n).map(
        lambda ds: task.y_of([d if kind == "item" else v for (kind, v), (_, d) in zip(slots, ds)])
    )
    top = task.y_of([task.digit_hi] * n) + 1
    ys = draw(st.lists(st.one_of(reachable, st.sampled_from([0, top]), st.integers(0, 9**6)), min_size=2, max_size=6))
    goals, oracles = [], []
    for k, y in enumerate(ys):
        offset = 100 * draw(st.integers(0, k))  # an earlier goal's ids or new ones
        tables = {}
        for i in sorted({v for kind, v in slots if kind == "item"}):
            ws = draw(_tables(task.n_classes))
            tables[i + offset] = [w / sum(ws) for w in ws]
        oracles.append(TableFacts(tables, value_base=task.value_base))
        items = [item_term(v + offset) if kind == "item" else Int(v) for kind, v in slots]
        goals.append(Atom("f", (mk_list(items), Int(y))))
    return task, "add" if task.id == "sum" else "mult", goals, oracles


@settings(max_examples=60, deadline=None)
@given(case=_param_cases())
def test_one_stored_proof_serves_every_y_of_a_shape(case):
    """One shared setting scores goals of one shape under every y, in any
    order, each as the goal's own proof with y in it scores it on a fresh
    setting (_leaves, no stored proof): log_prob bits, labels, all four
    counters and the budget's exhausted flag, a y no labeling reaches included.  Each
    program stores one proof for them all, or, where an Int among the
    items keeps y in the key, one per y."""
    task, op, goals, oracles = case
    budget = SearchBudget(max_clauses=2)
    shared = task.setting()
    keeps_y = any(t.__class__ is Int for t in proper_list_items(goals[0].args[0]))
    for prog in _programs_over(op):
        stored = len(shared._proofs)
        for goal, facts in zip(goals, oracles):
            assert _scored(shared, goal, prog, facts, budget) == _concrete(task.setting(), goal, prog, facts, budget)
        assert len(shared._proofs) == stored + (len({g.args[1] for g in goals}) if keeps_y else 1)


def test_y_stays_in_the_key_where_it_reaches_a_background_predicate_or_an_add_output():
    """A program with a clause that hands the head's output to a background
    predicate of facts (head/2: f([3,4], 4) holds by tail, then head) or
    to an add output takes y as a parameter, as the sum program does.  A
    ground goal holds other Ints, so under each program it keeps y in its
    key: one stored proof per y, each the goal's own proof."""
    shared = sum_setting()
    facts = TableFacts.exact()
    to_background = Program(SUM_PROG.metasubs + (MetaSub("chain", (("P", "f"), ("Q", "tail"), ("R", "head"))),))
    to_add = Program(SUM_PROG.metasubs + (MetaSub("ident", (("P", "f"), ("Q", "add"))),))
    ys = (4, 7, 5, 7)
    for prog, stores in ((to_background, 3), (to_add, 3), (SUM_PROG, 3)):
        assert shared.parameters(prog) == {("f", 2, 1)}
        stored = len(shared._proofs)
        for y in ys:
            got = _scored(shared, int_goal([3, 4], y), prog, facts, SearchBudget())
            assert got == _concrete(sum_setting(), int_goal([3, 4], y), prog, facts, SearchBudget())
            assert (got[0] is not None) == (y == 7 or (y == 4 and prog is to_background))
        assert len(shared._proofs) == stored + stores


def test_shared_proof_counters_and_node_cap():
    """A replayed proof adds its nodes and depth hits (every call to f here
    tries loop/2 down to the depth bound).  One longer than an example's
    max_nodes is not replayed: the example is proved on its budget, runs
    out and scores as with no memo, and that cut proof is not stored."""

    def setting():
        kb = standard_kb(BK + "loop(X, Y) :- loop(X, Y).")
        rules = [r for r in default_metarules() if r.name in ("chain", "ident")]
        abd = {("add", 2): Abducible("add", ADD), ("eq", 2): Abducible("eq", EQC)}
        return InductionSetting(kb, rules, abd, ("f", 2), [("add", 2), ("eq", 2), ("loop", 2)])

    prog = Program(SUM_PROG.metasubs + (MetaSub("chain", (("P", "f"), ("Q", "loop"), ("R", "eq"))),))
    shared = setting()
    first = TableFacts({i: digit_table(d) for i, d in enumerate([3, 1, 4])})
    whole = _scored(shared, item_goal([0, 1, 2], 8), prog, first, SearchBudget())
    assert whole[0] is not None and whole[1][1] > 0 and len(shared._proofs) == 1
    facts = TableFacts({i: digit_table(d) for i, d in zip([7, 8, 9], [2, 2, 4])})
    goal = item_goal([7, 8, 9], 8)
    for cap in (None, whole[1][0], whole[1][0] // 2):
        budget = SearchBudget(max_nodes=cap)
        got = _scored(shared, goal, prog, facts, budget)
        assert got == _best_proved(setting(), goal, prog, facts, budget)
        assert got[2] == (cap == whole[1][0] // 2)
    assert len(shared._proofs) == 1
    assert _scored(shared, goal, prog, facts, SearchBudget()) == _best_proved(setting(), goal, prog, facts, SearchBudget())


def test_shared_proof_reads_every_table_it_read():
    """Replaying a stored proof reads each item table the proof read, in
    a branch that failed too, so a malformed one raises ValueError and a
    missing one KeyError, as without the memo; a table the proof never
    reads is not checked."""
    setting = sum_setting()
    skip_to_last = _programs_over("add")[2]
    first = TableFacts({0: digit_table(1), 1: digit_table(2)})
    for prog, y in ((skip_to_last, 2), (SUM_PROG, 99)):  # the second proof has no leaf
        assert len(list(prove(item_goal([0, 1], y), prog, setting, first, allow_new_clauses=False))) == (y == 2)
    assert len(setting._proofs) == 2
    for prog, y in ((skip_to_last, 2), (SUM_PROG, 99)):
        ex = GoalExample(item_goal([5, 6], y))
        with pytest.raises(ValueError):
            score_example(ex, prog, setting, TableFacts({5: digit_table(1), 6: [0.5] * 10}), SearchBudget())
        with pytest.raises(KeyError):
            score_example(ex, prog, setting, TableFacts({5: digit_table(1)}), SearchBudget())
    ex = GoalExample(item_goal([5, 6], 2))
    lab = score_example(ex, skip_to_last, setting, TableFacts({5: [0.5] * 10, 6: digit_table(2)}), SearchBudget())
    assert lab is not None and lab.item_labels == ((6, 2),)
    assert len(setting._proofs) == 2


def test_replay_hands_the_stored_stores_to_the_solver_as_they_are(monkeypatch):
    """A second sum example of the first one's shape, with other items and
    tables, replays the stored proof: the solver gets the stored leaf
    stores themselves, no store is cloned, and each result matches a proof
    run on a fresh setting, log_prob bits, labeling and item map alike."""
    shared = sum_setting()
    first = TableFacts({i: digit_table(d) for i, d in enumerate([3, 1, 4])})
    second = TableFacts({i: digit_table(d) for i, d in zip([7, 8, 9], [2, 2, 4])})

    def stream(setting, goal, facts):
        return [
            (lab.log_prob.hex(), lab.item_labels, lab.pair_facts)
            for _, lab in prove(goal, SUM_PROG, setting, facts, allow_new_clauses=False)
        ]

    want_first = stream(sum_setting(), item_goal([0, 1, 2], 8), first)
    assert stream(shared, item_goal([0, 1, 2], 8), first) == want_first
    (proof,) = shared._proofs.values()
    leaves = proof.by_values[8]
    solved, clones = [], []
    plain_solve, plain_clone = mil.solve_best, ConstraintStore.clone
    monkeypatch.setattr(mil, "solve_best", lambda store, *a: solved.append(store) or plain_solve(store, *a))
    monkeypatch.setattr(ConstraintStore, "clone", lambda store: clones.append(store) or plain_clone(store))
    got = stream(shared, item_goal([7, 8, 9], 8), second)
    monkeypatch.undo()
    assert clones == [] and len(shared._proofs) == 1
    assert len(solved) == len(leaves) > 0 and all(a is b for a, (b, *_) in zip(solved, leaves))
    assert all(pairs == () and prog == SUM_PROG for _, _, pairs, prog in leaves)  # a sum proof abduces no pair
    assert got == stream(sum_setting(), item_goal([7, 8, 9], 8), second)
    values = [[[v for _, v in labels] for _, labels, _ in run] for run in (got, want_first)]
    assert values[0] != values[1]


def test_a_passed_deadline_proves_a_stored_proof_from_scratch():
    """A stored proof is replayed only when the runtime admits its nodes
    (Budget.admits): under a deadline already passed, the goal of its
    shape is proved from scratch, and the runtime reads out after it."""
    setting = sum_setting()
    facts = TableFacts({i: digit_table(d) for i, d in enumerate([3, 1, 4])})
    goal = item_goal([0, 1, 2], 8)

    def counts(rt):
        list(prove(goal, SUM_PROG, setting, facts, runtime=rt, allow_new_clauses=False))
        return rt.proofs_run, rt.proofs_replayed

    assert counts(Budget()) == (1, 0) and len(setting._proofs) == 1
    assert counts(Budget()) == (0, 1)
    late = Budget(wall_ms=60_000)
    late.deadline = time.monotonic() - 1.0
    assert counts(late) == (1, 0)
    assert not late.ok()


def test_replay_under_another_y_pins_a_clone_of_each_stored_leaf(monkeypatch):
    """An example of the stored proof's shape under another y replays it:
    each stored leaf store that waits for y is cloned once and gets one EQC
    appended, y = 6 on the var eq reached, and the results match a fresh
    setting's.  The stores pinned to 6 are kept, so a third example with
    y = 6 clones nothing and hands them to the solver as they are."""
    shared = sum_setting()
    first = TableFacts({i: digit_table(d) for i, d in enumerate([3, 1, 4])})
    second = TableFacts({i: digit_table(d) for i, d in zip([7, 8, 9], [2, 2, 4])})

    def stream(setting, goal, facts, runtime=None):
        return [
            (lab.log_prob.hex(), lab.item_labels, lab.pair_facts)
            for _, lab in prove(goal, SUM_PROG, setting, facts, runtime=runtime, allow_new_clauses=False)
        ]

    stream(shared, item_goal([0, 1, 2], 8), first)
    (proof,) = shared._proofs.values()
    solved, clones = [], []
    plain_solve, plain_clone = mil.solve_best, ConstraintStore.clone
    monkeypatch.setattr(mil, "solve_best", lambda store, *a: solved.append(store) or plain_solve(store, *a))
    monkeypatch.setattr(ConstraintStore, "clone", lambda store: clones.append(store) or plain_clone(store))
    rt = Budget()
    got = stream(shared, item_goal([7, 8, 9], 6), second, rt)
    assert (rt.proofs_run, rt.proofs_replayed) == (0, 1)
    assert len(clones) == len(proof.pending) == len(solved) > 0
    for clone, store, (base, _, _, pins, _) in zip(clones, solved, proof.pending):
        (vid,) = pins
        assert clone is base and len(store.vars) == len(base.vars)
        assert store.constraints == base.constraints + [FDConstraint(EQC, vid, -1, 6)]
    assert got == stream(sum_setting(), item_goal([7, 8, 9], 6), second)
    del solved[:], clones[:]
    third = TableFacts({i: digit_table(d) for i, d in zip([4, 5, 6], [1, 1, 4])})
    got = stream(shared, item_goal([4, 5, 6], 6), third)
    monkeypatch.undo()
    assert got == stream(sum_setting(), item_goal([4, 5, 6], 6), third)
    assert clones == [] and len(shared._proofs) == 1
    assert [leaf[0] for leaf in proof.by_values[6]] == solved


def test_shared_proofs_are_keyed_by_table_length_and_value_base():
    """Tables of another length, or values from another base, give the
    weighted vars other domains: each is proved and stored on its own."""
    shared = sum_setting()
    goal = item_goal([0, 1], 5)
    for n, base in ((10, 0), (4, 0), (10, 1)):
        facts = TableFacts({0: digit_table(3, n=n), 1: digit_table(2, n=n)}, value_base=base)
        assert _scored(shared, goal, SUM_PROG, facts, SearchBudget()) == _best_proved(
            sum_setting(), goal, SUM_PROG, facts, SearchBudget()
        )
    assert len(shared._proofs) == 3


def test_shared_proofs_tell_repeat_patterns_apart():
    """[a,a,b] and [b,a,a] have one length, one y and two distinct items,
    but which item counts twice differs: each is proved on its own."""
    shared = sum_setting()
    facts = TableFacts({0: digit_table(1), 1: digit_table(5), 2: digit_table(1), 3: digit_table(5)})
    for goal in (item_goal([0, 0, 1], 7), item_goal([3, 2, 2], 7)):
        assert _scored(shared, goal, SUM_PROG, facts, SearchBudget()) == _best_proved(
            sum_setting(), goal, SUM_PROG, facts, SearchBudget()
        )
    assert len(shared._proofs) == 2


SORTED_PROG = Program(
    (
        MetaSub("mono_rec", (("P", "s"), ("Q", "s_1"))),
        MetaSub("precon", (("P", "s_1"), ("Q", "nn"), ("R", "tail"))),
        MetaSub("mono_chain", (("P", "s"), ("Q", "tail"), ("R", "empty"))),
    ),
    (("s_1", 2),),
)
SORT_PROG = Program((MetaSub("tri_split", (("P", "f"), ("Q", "permute"), ("R", "s"))),))


def _dyadic_setting(task_id):
    """The sorting curriculum's settings: sorted_concept, and bogosort with
    stage 1's program as background knowledge."""
    task = tasks.make_task(task_id)
    return task.setting() if task_id == "sorted_concept" else task.setting(extra_program=SORTED_PROG)


@st.composite
def _dyadic_cases(draw):
    """sorted_concept examples, positive or negative, or bogosort positives:
    four examples, each with the pairs of its own fact oracle, over a list
    of 1-4 items (bogosort: 2-4, distinct).  The second and third have the
    first one's shape under other item ids; the fourth a list of its own.
    An oracle gives each ordered pair of its items a probability in
    [1e-9, 1 - 1e-9], as TableFacts.from_model clips them, or is
    TableFacts.exact's reading of drawn digits, pairs of probability 0
    included; the first one is never exact."""
    task = tasks.make_task(draw(st.sampled_from(["sorted_concept", "bogosort"])))
    concept = task.id == "sorted_concept"
    examples = []
    for k, offset in enumerate((0, 100, 200, 300)):
        if k in (0, 3):
            n = draw(st.integers(1 if concept else 2, 4))
            slots = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)) if concept else list(range(n))
            y = draw(st.permutations(range(1, n + 1)))
        items = sorted({i + offset for i in slots})
        pairs = [(a, b) for a in items for b in items]
        if k > 0 and draw(st.booleans()):
            digits = dict(zip(items, draw(st.lists(st.integers(0, 9), min_size=len(items), max_size=len(items)))))
            probs = {(a, b): float(digits[a] >= digits[b]) for a, b in pairs}
        else:
            ps = draw(st.lists(st.floats(1e-9, 1 - 1e-9), min_size=len(pairs), max_size=len(pairs)))
            probs = dict(zip(pairs, ps))
        ex = task.goal([i + offset for i in slots], draw(st.booleans()) if concept else y)
        examples.append((ex, probs))
    return task.id, examples


def _example_scored(setting, ex, prog, facts):
    rt = SearchBudget().runtime()
    lab = score_example(ex, prog, setting, facts, SearchBudget(), rt)
    got = None if lab is None else (lab.log_prob.hex(), lab.pair_facts)
    return got, (rt.nodes, rt.depth_hits, rt.solver_nodes, rt.solver_leaves)


@settings(max_examples=60, deadline=None)
@given(case=_dyadic_cases())
def test_dyadic_shared_proofs_match_proving_each_goal(case):
    """A dyadic example scored through the setting's stored proof of its
    shape matches it scored on a fresh setting: log_prob bits, pair facts
    and all four counters, negatives included.  A proof that
    read a pair of probability 0 is not stored, and a stored proof that
    would read one is not replayed: the example is proved afresh.  A pair
    missing at replay raises KeyError, as it does without the memo."""
    task_id, examples = case
    prog = SORTED_PROG if task_id == "sorted_concept" else SORT_PROG
    shared = _dyadic_setting(task_id)
    proved, reads = [], []
    plain = mil._leaves
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mil, "_leaves", lambda *a: proved.append(1) or plain(*a))
        for ex, probs in examples:
            # a pair function fills the oracle's cache in the order pairs are read
            facts = TableFacts({}, pairs=lambda a, b, probs=probs: probs[a, b])
            key = mil._proof_key([ex.goal], prog, shared, facts)[0]
            had, n_proved = key in shared._proofs, len(proved)
            got = _example_scored(shared, ex, prog, facts)
            zero = 0.0 in facts._pair_p.values()
            assert len(proved) == n_proved + (not had or zero)
            assert (key in shared._proofs) == (had or not zero)
            assert got == _example_scored(_dyadic_setting(task_id), ex, prog, TableFacts({}, pairs=probs))
            reads.append(list(facts._pair_p))
    ex, probs = examples[0]
    for missing in reads[0][:1]:  # a one-item list reads no pair
        cut = {k: p for k, p in probs.items() if k != missing}
        for setting in (shared, _dyadic_setting(task_id)):
            with pytest.raises(KeyError):
                score_example(ex, prog, setting, TableFacts({}, pairs=cut), SearchBudget())


@st.composite
def _generation_cases(draw):
    """Positives, setting and budget for candidate generation: arithmetic
    batches at clause budgets 2 and 3, and sorted_concept batches with
    invention at budget 3."""
    if draw(st.booleans()):
        examples, task, facts = draw(_arith_batches())
        return examples, task.setting(), facts, SearchBudget(max_clauses=draw(st.integers(2, 3)))
    lengths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    n = sum(lengths)
    probs = draw(st.lists(st.floats(0.05, 0.95), min_size=n * n, max_size=n * n))
    facts = TableFacts({}, pairs={(a, b): probs[a * n + b] for a in range(n) for b in range(n)})
    ids = iter(range(n))
    examples = [GoalExample(Atom("s", (mk_list([item_term(next(ids)) for _ in range(k)]),))) for k in lengths]
    return examples, sorted_setting(), facts, SearchBudget(max_clauses=3)


@settings(max_examples=40, deadline=None)
@given(case=_generation_cases())
def test_generation_prune_changes_no_candidate(case):
    """Dropping, as prove yields it, each leaf whose full program
    generation has recorded leaves the candidate list as it is, in the
    same order, in no more nodes than a search that keeps the leaf."""
    examples, setting, facts, budget = case

    def generate():
        runtime = Budget()
        return mil._candidate_programs(examples, setting, budget, facts, runtime), runtime.nodes

    on, nodes_on = generate()
    with pytest.MonkeyPatch.context() as mp:
        plain = mil.prove
        mp.setattr(mil, "prove", lambda *a, found=None, **kw: plain(*a, **kw))
        off, nodes_off = generate()
    assert on == off
    assert nodes_on <= nodes_off


# ---------------------------------------------------------------------------
# generation through stored proofs, y a parameter
# ---------------------------------------------------------------------------


def _generation(positives, setting, facts, max_clauses):
    """Generation's pool as program texts, its (nodes, solver_nodes,
    depth_hits), and the (goal, program, leaf program) of each result
    prove hands it, in order."""
    trace, plain = [], mil.prove

    def spy(goal, prog, *a, **kw):
        for prog2, lab in plain(goal, prog, *a, **kw):
            trace.append((goal, prog.key(), prog2.key()))
            yield prog2, lab

    runtime = Budget()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mil, "prove", spy)
        pool = mil._candidate_programs(positives, setting, SearchBudget(max_clauses=max_clauses), facts, runtime)
    texts = [program_text(p, setting.library) for p in pool]
    return texts, (runtime.nodes, runtime.solver_nodes, runtime.depth_hits), trace


def _reference_generation(positives, setting, facts, max_clauses):
    """_generation with y in every goal and nothing stored: each positive's
    own proof runs uncut (_leaves), and a leaf whose closed program is
    recorded is dropped before its feasibility check."""
    budget = SearchBudget(max_clauses=max_clauses)
    seen, found, trace = set(), {}, []
    runtime, ctx = Budget(), mil._Ctx(setting, facts, budget, True)

    def rec(idx, prog):
        if idx == len(positives) or prog.size == max_clauses:
            if prog.size > 0:
                found.setdefault(prog.key(), prog)
            return
        if (prog.key(), idx) in seen:
            return
        seen.add((prog.key(), idx))
        goal = positives[idx].goal
        for leaf, ab, _ in mil._leaves([goal], prog, ctx, runtime):
            if ctx.closed(leaf) and leaf.key() in found:
                continue
            if ab.store is not None and ab.store.vars and not mil._completion_exists(ab.store, runtime):
                continue
            trace.append((goal, prog.key(), leaf.key()))
            rec(idx + 1, leaf)

    rec(0, Program())
    pool = sorted(found.values(), key=lambda p: (p.size, program_text(p, setting.library)))
    texts = [program_text(p, setting.library) for p in pool]
    return texts, (runtime.nodes, runtime.solver_nodes, runtime.depth_hits), trace


@st.composite
def _generation_batches(draw):
    """A sum or product batch of 1-4 positives of lengths 1-3, repeats
    likely, twice: as item goals under tables biased toward the drawn
    digits, and as ground Int goals of those digits under exact tables.
    Each y is the digits' value, 0, or one above the largest value a list
    of that length reaches."""
    task = tasks.make_task(draw(st.sampled_from(["sum", "product"])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    items, ground, tables, next_id = [], [], {}, 0
    for n in draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)):
        digits = [int(d) for d in rng.integers(task.digit_lo, task.digit_hi + 1, size=n)]
        y = draw(st.sampled_from([task.y_of(digits), 0, task.y_of([task.digit_hi] * n) + 1]))
        ids = list(range(next_id, next_id + n))
        next_id += n
        for i, d in zip(ids, digits):
            p = rng.dirichlet(np.ones(task.n_classes))
            p[d - task.value_base] += 0.5
            tables[i] = (p / p.sum()).tolist()
        items.append(task.goal(ids, y))
        ground.append(GoalExample(int_goal(digits, y)))
    return task, {"item": (items, TableFacts(tables, task.value_base)), "int": (ground, TableFacts.exact())}


@settings(max_examples=30, deadline=None)
@given(batch=_generation_batches(), data=st.data())
def test_generation_through_stored_proofs_matches_the_uncut_reference(batch, data):
    """One shared setting runs generation on the item goals and the ground
    goals at clause budgets 1 to 4, each twice, in any order.  Each run
    gives the pool of a fresh setting's reference (y in the goal, nothing
    stored, the cut under recorded programs at yield time), in the same
    order, from the same results of prove in the same order, with the same
    nodes, solver_nodes and depth hits.  Item goals take y as a parameter;
    ground goals hold other Ints and keep it in their key."""
    task, cases = batch
    shared = task.setting()
    assert shared.parameters(Program()) == {("f", 2, 1)}
    runs = [(kind, mc) for kind in ("item", "int") for mc in (1, 2, 3, 4)] * 2
    for kind, mc in data.draw(st.permutations(runs)):
        positives, facts = cases[kind]
        want = _reference_generation(positives, task.setting(), facts, mc)
        assert _generation(positives, shared, facts, mc) == want
        assert (mil._proof_key([positives[0].goal], Program(), shared, facts)[2] is not None) == (kind == "item")


def test_generation_replays_a_positive_of_a_stored_length_under_another_y():
    """Generation stores each proof with y slotted: the first positive's
    under the empty program, and the second one's under each one-clause
    program the first gave.  A later batch of positives of those lengths
    under other values of y replays all three, counted in proofs_replayed,
    and gets the pool and nodes of a fresh setting, which proves them
    again: a stored proof charges its own nodes, not those of the
    positives generation proved between its leaves."""
    task = tasks.make_task("sum")
    facts = TableFacts({i: digit_table(d) for i, d in enumerate([3, 4, 1, 3, 2, 2, 0, 5])})
    shared = task.setting()
    batches = (
        ([item_goal([0, 1], 7), item_goal([6, 7], 5)], (3, 0), (3, 0)),
        ([item_goal([2, 3], 4), item_goal([4, 5], 4)], (0, 3), (3, 0)),
    )
    for goals, on_shared, on_fresh in batches:
        positives = [GoalExample(g) for g in goals]
        counts = []
        for setting in (shared, task.setting()):
            rt = Budget()
            pool = mil._candidate_programs(positives, setting, SearchBudget(max_clauses=2), facts, rt)
            counts.append(((rt.proofs_run, rt.proofs_replayed), [program_text(p, setting.library) for p in pool], rt.nodes))
        assert counts[0][0] == on_shared and counts[1][0] == on_fresh
        assert counts[0][1:] == counts[1][1:] and "f(A,B) :- eq(A,B)." in counts[0][1][-1]


@st.composite
def _dyadic_generation_batches(draw):
    """Two batches of 1-3 positives with the same lengths, each under item
    ids and a pair oracle of its own, in one of three settings:
    sorted_concept with invention at clause budget 3, pair probabilities
    in [0.05, 0.95]; bogosort on the curriculum setting (stage 1's program
    as background, permute/3) at budget 1, the second batch repeating the
    first one's rankings; and sorted_concept under TableFacts.exact of
    drawn digits, each batch's first positive an ascending pair, whose
    pair has probability 0, and its second a single item."""
    kind = draw(st.sampled_from(["sorted_concept", "bogosort", "exact"]))
    lengths = draw(st.lists(st.integers(2 if kind == "bogosort" else 1, 3), min_size=1, max_size=3))
    if kind == "exact":
        lengths = [2, 1] + lengths[:1]
    task = tasks.make_task("bogosort" if kind == "bogosort" else "sorted_concept")
    ranks = [draw(st.permutations(range(1, n + 1))) for n in lengths]
    batches = []
    for offset in (0, 100):
        ids = itertools.count(offset)
        lists = [[next(ids) for _ in range(n)] for n in lengths]
        pairs = [(a, b) for ids_ in lists for a in ids_ for b in ids_]
        if kind == "exact":
            n = sum(lengths)
            digits = dict(zip(range(offset, offset + n), draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))))
            digits[offset], digits[offset + 1] = 0, 1
            facts = TableFacts.exact(pairs=lambda a, b, d=digits: d[a] >= d[b])
        else:
            probs = draw(st.lists(st.floats(0.05, 0.95), min_size=len(pairs), max_size=len(pairs)))
            facts = TableFacts({}, pairs=dict(zip(pairs, probs)))
        batches.append(([task.goal(ids_, r if kind == "bogosort" else True) for ids_, r in zip(lists, ranks)], facts))
    return task.id, 1 if kind == "bogosort" else 3, batches, kind == "exact"


@settings(max_examples=30, deadline=None)
@given(case=_dyadic_generation_batches())
def test_dyadic_generation_through_stored_proofs_matches_the_uncut_reference(case):
    """One shared setting runs generation on two batches whose lengths
    repeat.  Each gives the pool of a fresh setting's reference (nothing
    stored, the cut under recorded programs at yield time), in the same
    order, from the same results of prove in the same order, with the same
    nodes, solver_nodes and depth hits.  A proof runs, counted in
    proofs_run, when its key is not stored or a pair it read has
    probability 0 now, and is stored unless it read one; every other
    lookup replays, counted in proofs_replayed, and the second batch
    replays some.  Under exact tables a proof reads a pair of probability
    0 in each batch, is not stored, and runs again in the second."""
    task_id, max_clauses, batches, exact = case
    shared = _dyadic_setting(task_id)
    made, calls, plain = [], [], mil._shared_leaves

    class Reads(mil._Reads):
        def __init__(self, *a):
            super().__init__(*a)
            made.append(self)

    def spy(goals, program, ctx, runtime):
        key = mil._proof_key(goals, program, ctx.setting, ctx.facts, ctx.budget.max_clauses)[0]
        had, n, counts = key in shared._proofs, len(made), (runtime.proofs_run, runtime.proofs_replayed)
        leaves = plain(goals, program, ctx, runtime)
        first = next(leaves, None)  # generation runs its proof whole before the first leaf goes out
        ran = len(made) > n
        zero = ran and -math.inf in made[n].log.values()
        assert (runtime.proofs_run - counts[0], runtime.proofs_replayed - counts[1]) == ((1, 0) if ran else (0, 1))
        assert ran or had
        assert zero or not (had and ran)  # a stored proof runs again only at a pair of probability 0
        assert (key in shared._proofs) == (had or not zero)
        calls[-1].append((key, ran, zero))
        if first is not None:
            yield first
            yield from leaves

    for positives, facts in batches:
        want = _reference_generation(positives, _dyadic_setting(task_id), facts, max_clauses)
        calls.append([])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mil, "_Reads", Reads)
            mp.setattr(mil, "_shared_leaves", spy)
            assert _generation(positives, shared, facts, max_clauses) == want
    assert any(not ran for _, ran, _ in calls[1])
    if exact:
        zeros = [{key for key, _, zero in batch if zero} for batch in calls]
        assert zeros[0] & zeros[1]


@pytest.mark.parametrize("task_id", ["sum", "product"])
def test_slotted_call_gets_the_choice_lists_of_the_call_with_its_int(task_id):
    """A generation call with y in the $param slot has the call types of
    the call with the Int, and so the same clause lists: under the empty
    program and under each one-clause program they list.  A wildcard in
    that position would list other clauses, add(A,B) among them."""
    task = tasks.make_task(task_id)
    goal = task.goal([0, 1, 2], 6).goal
    facts = TableFacts({i: digit_table(1) for i in range(3)}, task.value_base)
    _, _, y, (slotted,) = mil._proof_key([goal], Program(), task.setting(), facts)
    assert y == 6 and slotted.args[1] != goal.args[1]
    size, types = mil._call_types(slotted)
    assert (size, types) == mil._call_types(goal) and types[1] == "int"
    for mc in (1, 2, 3):
        ctx = mil._Ctx(task.setting(), facts, SearchBudget(max_clauses=mc), True)
        progs = [Program()] + [p for _, p in ctx.choices(Program(), "f", 2, types)]
        for prog in progs:
            lists = [ctx.choices(prog, "f", 2, t) for t in (types, mil._call_types(goal)[1], (types[0], None))]
            assert lists[0] == lists[1] and len(lists[0]) > 0
            if not ctx.closed(prog):
                assert lists[2] != lists[0]
                assert any(f"f(A,B) :- {task.abducibles[0].name}(A,B)." in program_text(p, ctx.setting.library) for _, p in lists[2])


def test_generation_parameter_sound_where_the_slot_meets_head():
    """f(A,B) :- f(A,C), head(C,B) type-checks against f(list(item), int)
    and hands B to head/2, no eq output; it never reaches head only
    because the descent rule fails f(A,C) first.  The derivation does not
    rest on that: head/2 is a predicate of facts, and in a proof that meets
    no Int but y it cannot tell y from its slot.  With an invented
    predicate, f(A,B) :- f_1(A,C), head(C,B) does reach head with the slot
    (f_1(A,C) :- tail(A,C)), and generation still matches the reference.
    A ground goal holds other Ints: there head would tell them apart
    (f(A,B) :- tail(A,C), head(C,B) proves f([3,5],5) only with y = 5), so
    it keeps y, and slotting it anyway would lose that program."""
    setting = sum_setting(pool=LIST_POOL)  # may invent one predicate
    trap = Program((MetaSub("chain", (("P", "f"), ("Q", "f"), ("R", "head"))),))
    assert setting.parameters(Program()) == setting.parameters(trap) == {("f", 2, 1)}
    goal = item_goal([0, 1, 2], 5)
    facts = TableFacts({i: digit_table(d) for i, d in enumerate([1, 1, 3, 3, 2])})
    _, _, _, (slotted,) = mil._proof_key([goal], Program(), setting, facts)
    ctx = mil._Ctx(setting, facts, SearchBudget(max_clauses=3), True)
    listed = {program_text(p, setting.library) for _, p in ctx.choices(Program(), "f", 2, mil._call_types(slotted)[1])}
    assert "f(A,B) :- f(A,C), head(C,B)." in listed and "f(A,B) :- f_1(A,C), head(C,B)." in listed
    met, plain = [], kb_module.resolve

    def spy(g, clause, s):
        if g.pred == "head" and s.apply(g.args[1]) == mil._SLOT:
            met.append(g)
        return plain(g, clause, s)

    positives = [GoalExample(goal), GoalExample(item_goal([3, 4], 5))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kb_module, "resolve", spy)
        got = _generation(positives, setting, facts, 3)
    assert met and got == _reference_generation(positives, sum_setting(pool=LIST_POOL), facts, 3)
    ground = [GoalExample(int_goal([3, 5], 5))]
    assert mil._proof_key([ground[0].goal], Program(), setting, TableFacts.exact())[2] is None
    want = _reference_generation(ground, sum_setting(pool=LIST_POOL), TableFacts.exact(), 1)
    assert "f(A,B) :- tail(A,C), head(C,B)." in want[0]
    assert _generation(ground, setting, TableFacts.exact(), 1) == want
    plain_key = mil._proof_key

    def forced_key(goals, program, setting, facts, budget=None):
        """_proof_key, y slotted at its parameter position though the list holds Ints."""
        key, ids, y, slotted = plain_key(goals, program, setting, facts, budget)
        (g,) = goals
        if y is None and g.args[1].__class__ is Int and (g.pred, 2, 1) in setting.parameters(program):
            at = len(key) - len(ids) - 1  # y is the goal's last term in preorder
            key, y = (*key[:at], mil._SLOT, *key[at + 1 :]), g.args[1].value
            slotted = [Atom(g.pred, (g.args[0], mil._SLOT))]
        return key, ids, y, slotted

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mil, "_proof_key", forced_key)
        forced = _generation(ground, sum_setting(pool=LIST_POOL), TableFacts.exact(), 1)
    assert "f(A,B) :- tail(A,C), head(C,B)." not in forced[0]


def test_generation_parameters_need_every_buildable_clause_to_hand_y_on():
    """A metarule that keeps the head's second argument out of its last
    body atom, a body pool with a builtin or a background predicate with a
    body in that atom's slot, or a background clause holding an Int, each
    leaves generation no parameter; so does a start program whose own
    clause hands y to such a predicate."""
    assert sum_setting(mrs=("chain", "ident", "postcon")).parameters(Program()) == frozenset()
    rules = [r for r in default_metarules() if r.name in ("chain", "ident")]
    abd = {("add", 2): Abducible("add", ADD), ("eq", 2): Abducible("eq", EQC)}

    def positions(pool, bk=""):
        return InductionSetting(standard_kb(BK + bk), rules, abd, ("f", 2), list(pool)).parameters(Program())

    second = "second(L, X) :- tail(L, T), head(T, X)."
    assert positions(LIST_POOL) == positions(LIST_POOL, second) == {("f", 2, 1)}
    assert positions(LIST_POOL + (("second", 2),), second) == frozenset()
    assert positions(LIST_POOL, "zero(0).") == frozenset()  # zero(0) holds an Int, called or not
    assert positions(LIST_POOL + (("permute", 3),)) == frozenset()
    setting = InductionSetting(standard_kb(BK + second), rules, abd, ("f", 2), list(LIST_POOL))
    foreign = Program((MetaSub("chain", (("P", "f"), ("Q", "tail"), ("R", "second"))),))
    assert setting.parameters(foreign) == frozenset()
    assert setting.parameters(SUM_PROG) == {("f", 2, 1)}


# ---------------------------------------------------------------------------
# the stored-proof key: one walk against the three-walk reference
# ---------------------------------------------------------------------------


def _ref_int_free(terms):
    """Reference: no Int occurs in terms outside item handles."""
    todo = list(terms)
    while todo:
        t = todo.pop()
        if t.__class__ is Int:
            return False
        if t.__class__ is Struct and t.functor != "item":
            todo.extend(t.args)
    return True


def _ref_parametrized(goals, program, setting):
    """Reference: the goals with a single goal's one Int outside item
    handles in the slot, when it is an argument at one of program's
    parameter positions, and its value; else the goals and None."""
    params = setting.parameters(program)
    if len(goals) != 1 or not params:
        return goals, None
    g = goals[0]
    for i, t in enumerate(g.args):
        if t.__class__ is Int and (g.pred, len(g.args), i) in params:
            args = (*g.args[:i], mil._SLOT, *g.args[i + 1 :])
            return ([Atom(g.pred, args)], t.value) if _ref_int_free(args) else (goals, None)
    return goals, None


def _ref_proof_key(goals, program, setting, facts, budget=None):
    """Reference: _proof_key as three walks, _ref_parametrized, then the
    key and the item ids of the slotted goals."""
    goals, y = _ref_parametrized(goals, program, setting)
    ids = {}
    out = [program, facts.value_base, budget]
    for g in goals:
        out += (g.pred, len(g.args))
        todo = list(reversed(g.args))
        while todo:
            t = todo.pop()
            iid = mil._item_id(t)
            if iid is not None:
                out.append(ids.setdefault(iid, len(ids)))
            elif isinstance(t, Struct):
                out += (t.functor, len(t.args))
                todo.extend(reversed(t.args))
            else:
                out.append(t)
    tables = facts._items
    out += [len(tables[i]) if i in tables else None for i in ids]
    return tuple(out), list(ids), y, list(goals)


_MULT_PROG = Program(
    (MetaSub("chain", (("P", "f"), ("Q", "mult"), ("R", "f"))), MetaSub("ident", (("P", "f"), ("Q", "eq"))))
)
_KEY_SETTINGS = {  # name -> (setting factory, programs)
    "sum": (lambda: tasks.make_task("sum").setting(), (Program(), SUM_PROG)),
    "product": (lambda: tasks.make_task("product").setting(), (Program(), _MULT_PROG)),
    "sum_postcon": (lambda: sum_setting(mrs=("chain", "ident", "postcon")), (Program(), SUM_PROG)),
    "sorted_concept": (lambda: _dyadic_setting("sorted_concept"), (Program(), SORTED_PROG)),
    "bogosort": (lambda: _dyadic_setting("bogosort"), (Program(), SORT_PROG)),
}


_key_leaves = st.one_of(
    st.integers(0, 4).map(item_term),  # few ids: repeated handles
    st.integers(0, 9).map(Int),
    st.integers(0, 3).map(mil.fdv_term),
    st.sampled_from([Var("X"), Sym("a"), Sym("[]")]),
)
_key_terms = st.recursive(
    _key_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(mk_list),
        st.lists(inner, min_size=1, max_size=2).map(lambda args: Struct("g", tuple(args))),
    ),
    max_leaves=8,
)
_key_goals = st.lists(
    st.one_of(
        st.builds(
            Atom,
            st.sampled_from(["f", "s", "g"]),
            st.lists(st.one_of(st.integers(0, 9).map(Int), _key_terms), min_size=1, max_size=3).map(tuple),
        ),
        # the shape of a sum or product goal: f(list, y), the list often free of Ints
        st.tuples(
            st.lists(st.one_of(st.integers(0, 4).map(item_term), _key_leaves), max_size=5).map(mk_list),
            st.integers(0, 99).map(Int),
        ).map(lambda args: Atom("f", args)),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(sorted(_KEY_SETTINGS)),
    which=st.integers(0, 1),
    goals=_key_goals,
    base=st.integers(0, 1),
    lengths=st.dictionaries(st.integers(0, 4), st.integers(1, 10)),
    budget=st.sampled_from([None, 2]),
)
@example(name="sum", which=0, goals=[item_goal([0, 1, 0], 5)], base=0, lengths={0: 10}, budget=None)
@example(name="sum", which=1, goals=[int_goal([3, 5], 5)], base=0, lengths={}, budget=None)
@example(name="product", which=1, goals=[item_goal([2, 2], 4)], base=1, lengths={2: 9}, budget=2)
@example(name="sum_postcon", which=0, goals=[item_goal([0], 3)], base=0, lengths={}, budget=None)
@example(name="sum", which=0, goals=[Atom("f", (Int(5), mk_list([item_term(0)])))], base=0, lengths={}, budget=None)
@example(
    name="sum", which=1, goals=[Atom("f", (mk_list([mil.fdv_term(1), item_term(0)]), Int(7)))],
    base=0, lengths={}, budget=None,
)
@example(name="sum", which=1, goals=[item_goal([0, 1], 5), item_goal([1], 2)], base=0, lengths={}, budget=None)
@example(
    name="sum", which=0, goals=[item_goal([0, 1], 5), Atom("f", (mk_list([item_term(1)]), Var("Y")))],
    base=0, lengths={}, budget=None,
)
@example(
    name="bogosort", which=1, goals=[Atom("f", (mk_list([item_term(0), item_term(1)]), mk_list([Int(2), Int(1)])))],
    base=0, lengths={}, budget=None,
)
def test_proof_key_walks_once_as_the_three_walks_did(name, which, goals, base, lengths, budget):
    """_proof_key's one walk gives what _ref_proof_key's three do: the key,
    the item ids by position, y and the goals to prove, slotted or not.
    The goals are one or several, over repeated item handles, with Ints at
    top level at and off parameter positions, inside lists and inside
    fdv(v) references, in sum, product and dyadic settings and in one with
    no parameters, under programs with and without parameters."""
    make, programs = _KEY_SETTINGS[name]
    setting, program = make(), programs[which]
    facts = TableFacts({i: [1.0 / n] * n for i, n in lengths.items()}, value_base=base)
    key, ids, y, slotted = mil._proof_key(goals, program, setting, facts, budget)
    assert (key, ids, y, list(slotted)) == _ref_proof_key(goals, program, setting, facts, budget)


def test_proof_key_of_a_five_thousand_item_goal():
    """The walk keeps its own stack: a 5,000-item list, cells nested 5,000
    deep, gives its key, the reference's, without a RecursionError, and y
    goes to its slot."""
    setting = tasks.make_task("sum").setting()
    goal = item_goal(range(5000), 12)
    facts = TableFacts({i: digit_table(1) for i in range(5000)})
    key, ids, y, (slotted,) = mil._proof_key([goal], Program(), setting, facts)
    assert (key, ids, y, [slotted]) == _ref_proof_key([goal], Program(), setting, facts)
    assert y == 12 and slotted.args[1] == mil._SLOT and ids == list(range(5000)) and key[-1] == 10


# ---------------------------------------------------------------------------
# entailment under each abducible's ground reading, as eval runs a program
# ---------------------------------------------------------------------------


def entails(task_id, program, goal, facts=None) -> bool:
    kb = tasks.ground_kb(tasks.make_task(task_id), program, facts=facts)
    return next(deduce(goal, kb), None) is not None


def test_entails_ground_sum():
    assert entails("sum", SUM_PROG, parse_atom("f([1,2,3], 6)"))
    assert not entails("sum", SUM_PROG, parse_atom("f([1,2,3], 7)"))
    assert entails("sum", SUM_PROG, parse_atom("f([5], 5)"))
    assert not entails("sum", SUM_PROG, parse_atom("f([], 0)"))


def test_entails_ground_sorted_with_invented_symbol():
    prog = Program(
        (
            MetaSub("mono_rec", (("P", "s"), ("Q", "s_1"))),
            MetaSub("mono_chain", (("P", "s"), ("Q", "tail"), ("R", "empty"))),
            MetaSub("precon", (("P", "s_1"), ("Q", "nn"), ("R", "tail"))),
        ),
        (("s_1", 2),),
    )
    digits = [3, 2, 1, 4, 2, 3, 1]  # the items 0..6, read by the pair relation nn

    def sorted_(*ids):
        goal = Atom("s", (mk_list([item_term(i) for i in ids]),))
        facts = TableFacts.exact(pairs=lambda a, b: digits[a] >= digits[b])
        return entails("sorted_concept", prog, goal, facts)

    assert sorted_(0, 1, 2)
    assert sorted_(3)
    assert not sorted_(4, 5, 6)


def test_abduction_entails_round_trip():
    # Pin the abduced pseudo-labels into a ground goal; the same program
    # must then entail it deductively.
    tables = {0: digit_table(2), 1: digit_table(5)}
    facts = TableFacts(tables)
    setting = sum_setting()
    out = induce([GoalExample(item_goal([0, 1], 7))], setting, facts, SearchBudget(max_clauses=2))
    assert out.induced is not None
    lab = dict(out.induced.labelings[0].item_labels)
    ground_goal = Atom("f", (mk_list([Int(lab[0]), Int(lab[1])]), Int(7)))
    assert entails("sum", out.induced.program, ground_goal)
