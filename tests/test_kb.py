
import dataclasses
import itertools
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from abdlearn import kb as kb_module
from abdlearn.kb import Budget, KBError, KnowledgeBase, deduce, resolve, standard_kb
from abdlearn.metarules import MetaSub, Program
from abdlearn.mil import SettingError, TableFacts, item_term
from abdlearn.parser import parse_atom, parse_clause, parse_term
from abdlearn.tasks import TASK_IDS, evaluate, gen_sequences, ground_kb, make_task
from abdlearn.terms import (
    Atom,
    Clause,
    Int,
    Struct,
    Subst,
    Var,
    mk_list,
    print_term,
    rename_apart,
    unify,
    unify_atoms,
)

from test_terms import _terms, _variants

LIST_BK = """
head([H|_], H).
tail([_|T], T).
empty([]).
"""


@pytest.fixture()
def kb():
    return standard_kb(LIST_BK)


def solutions(goal_src, kb, **kw):
    return list(deduce(parse_atom(goal_src), kb, **kw))


def test_head(kb):
    sols = solutions("head([1,2],H)", kb)
    assert len(sols) == 1
    assert sols[0].apply(Var("H")) == Int(1)


def test_empty_fails_on_nonempty(kb):
    assert solutions("empty([1])", kb) == []


def test_ground_goal_yields_empty_substitution(kb):
    sols = solutions("head([1,2],1)", kb)
    assert len(sols) == 1
    assert len(sols[0]) == 0


def test_permute_ground_order(kb):
    # ranking semantics: Out[Order[i]-1] = L[i]
    sols = solutions("permute([5,9,4,3,8],[3,1,4,5,2],Out)", kb)
    assert len(sols) == 1
    assert print_term(sols[0].apply(Var("Out"))) == "[9,8,5,4,3]"


def test_permute_enumerates_orders(kb):
    sols = solutions("permute([1,2],O,Out)", kb)
    rendered = {(print_term(s.apply(Var("O"))), print_term(s.apply(Var("Out")))) for s in sols}
    assert rendered == {("[1,2]", "[1,2]"), ("[2,1]", "[2,1]")}


def test_recursive_clauses(kb):
    kb.add_text("last([X],X). last([_|T],X) :- last(T,X).")
    sols = solutions("last([1,2,3],X)", kb)
    assert [s.apply(Var("X")) for s in sols] == [Int(3)]


def test_depth_limit_sets_resource_marker():
    # a goal with no list items gets DEPTH_BASE steps; the node past them is cut
    kb = KnowledgeBase()
    kb.add_text("loop(X) :- loop(X).")
    b = Budget()
    sols = list(deduce(parse_atom("loop(1)"), kb, budget=b))
    assert sols == []
    assert (b.depth_hits, b.nodes) == (1, kb_module.DEPTH_BASE + 1)


def test_depth_bound_grows_with_the_goals_list_items(monkeypatch):
    monkeypatch.setattr(kb_module, "DEPTH_BASE", 3)
    monkeypatch.setattr(kb_module, "DEPTH_PER_ITEM", 2)
    kb = KnowledgeBase()
    kb.add_text("loop(X, Y) :- loop(X, Y).")
    b = Budget()
    assert list(deduce(parse_atom("loop([a,b,c], [d])"), kb, budget=b)) == []
    assert (b.depth_hits, b.nodes) == (1, 3 + 2 * 4 + 1)


def test_deep_proof_leaves_the_recursion_limit_alone():
    kb = KnowledgeBase()
    kb.add_text("last([X], X). last([_|T], X) :- last(T, X).")
    before = sys.getrecursionlimit()
    b = Budget()
    (sol,) = deduce(Atom("last", (mk_list([Int(i) for i in range(2000)]), Var("X"))), kb, budget=b)
    assert sol.apply(Var("X")) == Int(1999)
    assert sys.getrecursionlimit() == before
    assert (b.depth_hits, b.nodes) == (0, 2001)  # one step per item, one on the empty tail


def test_deep_answer_projects():
    # the answer s(s(...z)) nests one level per item; == on it would recurse
    kb = standard_kb("len([], z). len([_|T], s(N)) :- len(T, N).")
    (sol,) = deduce(Atom("len", (mk_list([Int(i) for i in range(2000)]), Var("N"))), kb)
    t, depth = sol.get("N"), 0
    while isinstance(t, Struct) and t.functor == "s":
        t, depth = t.args[0], depth + 1
    assert depth == 2000 and t == parse_term("z")


def test_finite_failure_has_no_marker(kb):
    b = Budget()
    assert list(deduce(parse_atom("empty([1])"), kb, budget=b)) == []
    assert b.depth_hits == 0


def test_clause_order_respected():
    kb = KnowledgeBase()
    kb.add_text("p(1). p(2). p(3).")
    sols = solutions("p(X)", kb)
    assert [s.apply(Var("X")).value for s in sols] == [1, 2, 3]


def test_builtin_override_rejected(kb):
    with pytest.raises(KBError):
        kb.add_text("permute(X,X,X).")


def test_builtin_shadowing_rejected(kb):
    with pytest.raises(KBError):
        kb.add_builtin("head", 2, lambda args, s: iter(()))


def test_solutions_projected_to_goal_vars(kb):
    kb.add_text("p(X) :- q(X, _). q(1, 2).")
    sols = solutions("p(V)", kb)
    assert len(sols) == 1
    bound = dict(sols[0].items())
    assert set(bound) == {"V"}


# ---------------------------------------------------------------------------
# resolve() against the renaming step it replaced
# ---------------------------------------------------------------------------


def _ref_resolve(goal, clause, s):
    """Rename the clause apart, then unify its head with the goal."""
    rc = rename_apart(clause)
    s2 = unify_atoms(goal, rc.head, s)
    return None if s2 is None else (rc.body, s2)


def _resolved(goal, step) -> Struct:
    """The goal and the body under the step's substitution, as one term."""
    body, s2 = step
    args = tuple(s2.apply_atom(goal).args)
    for b in body:
        args += (Struct(b.pred, tuple(s2.apply_atom(b).args)),)
    return Struct("r", args)


def _check_step(goal, clause, s):
    """resolve and the reference both fail, or give variant results."""
    got, want = resolve(goal, clause, s), _ref_resolve(goal, clause, s)
    assert (got is None) == (want is None)
    if got is not None:
        assert _variants(_resolved(goal, got), _resolved(goal, want), {})
    return got


_POOL = ("X", "Y", "Z", "W")  # goal, clause and substitution share these names


@st.composite
def _steps(draw):
    arity = draw(st.integers(1, 3))
    head = Atom("p", tuple(draw(_terms(2, _POOL)) for _ in range(arity)))
    body = tuple(
        Atom(f"q{i}", tuple(draw(st.lists(_terms(1, _POOL), min_size=1, max_size=2))))
        for i in range(draw(st.integers(0, 2)))
    )
    goal = Atom("p", tuple(draw(_terms(2, _POOL)) for _ in range(arity)))
    # acyclic triangular start: X may mention Y, Z, W; Y may mention Z, W
    x = draw(st.none() | _terms(2, ("Y", "Z", "W")))
    y = draw(st.none() | _terms(2, ("Z", "W")))
    s = Subst({k: v for k, v in (("X", x), ("Y", y)) if v is not None})
    return goal, Clause(head, body), s


@given(_steps())
@settings(max_examples=300, deadline=None)
def test_resolve_matches_rename_then_unify(step):
    _check_step(*step)


def test_resolve_repeated_head_variable():
    clause = parse_clause("tail([_|T], T).")
    got = _check_step(parse_atom("tail(L, X)"), clause, Subst())
    assert got is not None
    assert got[1].apply(Var("L")).args[1] == got[1].apply(Var("X"))
    # the repeated T must meet the goal's second argument
    assert _check_step(parse_atom("tail([1,2], [3])"), clause, Subst()) is None
    got = _check_step(parse_atom("tail([1,2], Y)"), clause, Subst())
    assert got is not None and got[1].apply(Var("Y")) == parse_term("[2]")


def test_resolve_occurs_check_fails():
    assert _check_step(parse_atom("p(Y, Y)"), parse_clause("p(X, f(X))."), Subst()) is None


def test_resolve_goal_uses_the_clause_variable_names():
    clause = parse_clause("p(X, Y) :- q(Y, X, Z).")
    got = _check_step(parse_atom("p(Y, f(X))"), clause, Subst({"X": Int(1)}))
    assert got is not None
    body, s2 = got
    q = s2.apply_atom(body[0])
    assert q.args[:2] == (parse_term("f(1)"), Var("Y"))
    assert isinstance(q.args[2], Var) and q.args[2].name not in ("X", "Y", "Z")


SUM_PROGRAM = Program(
    (
        MetaSub("chain", (("P", "f"), ("Q", "add"), ("R", "f"))),
        MetaSub("ident", (("P", "f"), ("Q", "eq"))),
    )
)


def test_one_clause_used_many_times_in_one_proof(monkeypatch):
    kb = ground_kb(make_task("sum"), SUM_PROGRAM)
    goal = Atom("f", (mk_list([Int(d) for d in (3, 1, 4, 1, 5)]), Var("Y")))

    def run():
        b = Budget()
        return [s.apply(Var("Y")) for s in deduce(goal, kb, budget=b)], b.nodes

    got = run()
    assert got[0] == [Int(14)]
    monkeypatch.setattr(kb_module, "resolve", _ref_resolve)
    assert run() == got


# ---------------------------------------------------------------------------
# permute pruned by the goals after it, against the blind enumeration
# ---------------------------------------------------------------------------

SORT_PROGRAM = Program(
    (
        MetaSub("tri_split", (("P", "f"), ("Q", "permute"), ("R", "s"))),
        MetaSub("mono_chain", (("P", "s"), ("Q", "tail"), ("R", "empty"))),
        MetaSub("mono_rec", (("P", "s"), ("Q", "s_1"))),
        MetaSub("precon", (("P", "s_1"), ("Q", "nn"), ("R", "tail"))),
    ),
    invented=(("s_1", 2),),
)

# Continuations of permute beside the learned s: two branches that both
# succeed on the skeleton, one that binds a cell itself, one whose
# lst(X) the depth bound cuts on a cell variable, though on every ranking
# it fails at once on the item and opt takes its second clause, and one
# that ties the variable of an item that is not ground, h(V), to the first
# Out cell.
CONTINUATIONS = """
two(C) :- s(C).
two(C) :- tail(C, T), s(T).
pin(C) :- head(C, item(2)), s(C).
lst([]).
lst([_|T]) :- lst(T).
opt(X) :- lst(X).
opt(item(_)).
deep(C) :- s(C), head(C, X), opt(X).
g_two(A, B) :- permute(A, B, C), two(C).
g_pin(A, B) :- permute(A, B, C), pin(C).
g_deep(A, B) :- permute(A, B, C), deep(C).
tie([h(X)|_], [X|_]).
g_tie(A, B) :- permute(A, B, C), tie(A, C).
"""


@st.composite
def _relations(draw):
    """n items and a pair relation on them: arbitrary (so mostly
    intransitive) or empty."""
    n = draw(st.integers(0, 6))
    if draw(st.booleans()):
        return n, draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    return n, [False] * (n * n)


def _items(cont: str, n: int) -> list:
    """The n items permute ranks: item handles, but tie's first, h(V)."""
    items = [item_term(i) for i in range(n)]
    if cont == "tie" and n:
        items[0] = Struct("h", (Var("V"),))
    return items


def _blind(kb, cont: str, items: list) -> "list[str]":
    """The ranking of each of cont's answers on each ranking of the items, in
    itertools.permutations order: the stream of a permute that tries every
    ranking.  tie reads the items too."""
    n, out = len(items), []
    for perm in itertools.permutations(range(n)):
        placed = [None] * n
        for item, p in zip(items, perm):
            placed[p] = item
        args = (mk_list(items), mk_list(placed)) if cont == "tie" else (mk_list(placed),)
        out += [print_term(mk_list([Int(p + 1) for p in perm])) for _ in deduce(Atom(cont, args), kb)]
    return out


@pytest.mark.parametrize("order", ["R", "[2|R]"])
@pytest.mark.parametrize(
    "top, cont", [("f", "s"), ("g_two", "two"), ("g_pin", "pin"), ("g_deep", "deep"), ("g_tie", "tie")]
)
@given(_relations())
@settings(max_examples=25, deadline=None)
def test_pruned_permute_gives_the_blind_answer_stream(top, cont, order, relation):
    n, table = relation
    # a pair of two items no ranking pairs (pin's item(2) where n = 2) is not given
    pairs = {(a, b): float(table[a * n + b]) for a in range(n) for b in range(n) if a != b}
    kb = ground_kb(make_task("bogosort"), SORT_PROGRAM, facts=TableFacts({}, pairs=pairs))
    kb.add_text(CONTINUATIONS)
    probes, placed = [], []

    def probe(*args):
        probes.append(real_probe(*args))
        return probes[-1]

    def place(args, s, items, perm, ranks):
        placed.append(tuple(perm))
        return real_place(args, s, items, perm, ranks)

    real_probe, real_place, b, order_t = kb_module._probe, kb_module._placed, Budget(), parse_term(order)
    items = _items(cont, n)
    goal = Atom(top, (mk_list(items), order_t))
    with mock.patch.object(kb_module, "_probe", probe), mock.patch.object(kb_module, "_placed", place):
        got = [print_term(s.apply(order_t)) for s in deduce(goal, kb, budget=b)]
    assert got == [r for r in _blind(kb, cont, items) if order == "R" or r.startswith("[2")]
    assert b.depth_hits == 0  # the probe's own cut is not counted
    # a partial order no ranking fits ends before the probe; every probe runs to
    # its end, but deep's, which the depth bound cuts
    assert len(probes) == int(order == "R" or n > 0)
    assert all((p is None) == (cont == "deep" and n > 0) for p in probes)
    if cont == "tie":
        # V is tied to the first Out cell, so placing h(V) there would bind
        # it to a term that holds it: the step's occurs check drops that
        # prefix, and no ranking that ranks h(V) first is placed
        assert all(perm[0] != 0 for perm in placed if perm)


# Two clauses that share their head and first goal, permute: a run, and the
# same clauses with the second's permute an alias, which forms none
PERMUTE_RUN = """
g_run(A, B) :- permute(A, B, C), s(C).
g_run(A, B) :- permute(A, B, C), pin(C).
"""


@pytest.mark.parametrize(
    "n, relation, want, nodes",
    [(3, "up", 1, 48), (3, "down", 2, 51), (4, "down", 1, 71), (4, "cycle", 5, 92)],
)
def test_a_permute_run_is_not_shared_without_a_hook(n, relation, want, nodes):
    """Without a hook permute coroutines with each clause's rest, so the
    run is not shared: the stream is s's blind one, then pin's, want
    answers in all, with the nodes the unshared clauses take, pinned here.
    up and down sort one ranking, cycle each rotation of one; pin's has
    item(2) first."""
    before = {"up": lambda a, b: a < b, "down": lambda a, b: a > b, "cycle": lambda a, b: b == (a + 1) % n}
    pairs = {(a, b): float(before[relation](a, b)) for a in range(n) for b in range(n) if a != b}
    facts = TableFacts({}, pairs=pairs)
    kb, alias = (ground_kb(make_task("bogosort"), SORT_PROGRAM, facts=facts) for _ in range(2))
    kb.add_text(CONTINUATIONS + PERMUTE_RUN)
    alias.add_builtin("permute_alias", 3, kb_module._bi_permute)
    alias.add_text(CONTINUATIONS + _aliased(PERMUTE_RUN, "permute"))
    assert [r.first for r in kb.clauses[("g_run", 2)].groups] == [("permute", 3)]
    assert [r.first for r in alias.clauses[("g_run", 2)].groups] == [None]
    items, order = [item_term(i) for i in range(n)], Var("R")
    got = _run(kb, Atom("g_run", (mk_list(items), order)), (order,))
    assert got[0] == _blind(kb, "s", items) + _blind(kb, "pin", items) and len(got[0]) == want
    assert got == _run(alias, Atom("g_run", (mk_list(items), order)), (order,))
    assert got[1:] == (nodes, 0, False)


# mem gives one answer per Out cell, each binding X: a ranking the probe's
# leaves answer for has as many answers, in mem's order
MEMBERS = """
mem(X, [X|_]).
mem(X, [_|T]) :- mem(X, T).
g_mem(A, B, X) :- permute(A, B, C), s(C), mem(X, C).
"""


@pytest.mark.parametrize("order", ["R", "[2|R]"])
@given(_relations())
@settings(max_examples=25, deadline=None)
def test_leaf_answers_bind_every_goal_variable_as_the_blind_stream(order, relation):
    n, table = relation
    pairs = {(a, b): float(table[a * n + b]) for a in range(n) for b in range(n) if a != b}
    kb = ground_kb(make_task("bogosort"), SORT_PROGRAM, facts=TableFacts({}, pairs=pairs))
    kb.add_text(MEMBERS)
    items, order_t, x = [item_term(i) for i in range(n)], parse_term(order), Var("X")
    goal = Atom("g_mem", (mk_list(items), order_t, x))
    got = [(print_term(s.apply(order_t)), print_term(s.apply(x))) for s in deduce(goal, kb)]
    want = []
    for perm in itertools.permutations(range(n)):
        placed = [None] * n
        for item, p in zip(items, perm):
            placed[p] = item
        ranking = print_term(mk_list([Int(p + 1) for p in perm]))
        if order == "R" or ranking.startswith("[2"):
            cont = [Atom("s", (mk_list(placed),)), Atom("mem", (x, mk_list(placed)))]
            want += [(ranking, print_term(s.apply(x))) for s in deduce(cont, kb)]
    assert got == want


def _pick(lazy: bool):
    """pick(L, X): X is a, then b, once L's first item is bound; the lazy
    reading waits on that item while it is unbound."""

    def pick(args, s):
        t = s.walk(args[0])
        if t.__class__ is not Struct or t.functor != "." or len(t.args) != 2:
            return
        first = s.walk(t.args[0])
        if first.__class__ is Var:
            if lazy:
                yield first
            return
        for c in ("a", "b"):
            s2 = unify(args[1], parse_term(c), s)
            if s2 is not None:
                yield s2

    return pick


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_woken_goal_with_two_answers_keeps_the_blind_order(n):
    """pick waits in the probe and choice's two clauses split its leaf; once
    the first Out cell is bound, pick gives two answers in each leaf, so the
    leaves are choice-major where the run is pick-major: the ranking's
    continuation is run again, and gives a x, a y, b x, b y."""
    kb = standard_kb("choice(x).\nchoice(y).\ng_pick(A, B, X, Y) :- permute(A, B, C), pick(C, X), choice(Y).")
    kb.add_builtin("pick", 2, _pick(False), _pick(True))
    items, order, x, y = [Int(i) for i in range(n)], Var("O"), Var("X"), Var("Y")

    def shown(stream, *ts):
        return [" ".join(print_term(s.apply(t)) for t in ts) for s in stream]

    got = shown(deduce(Atom("g_pick", (mk_list(items), order, x, y)), kb), order, x, y)
    want = []
    for perm in itertools.permutations(range(n)):
        placed = [None] * n
        for item, p in zip(items, perm):
            placed[p] = item
        ranking = print_term(mk_list([Int(p + 1) for p in perm]))
        cont = [Atom("pick", (mk_list(placed), x)), Atom("choice", (y,))]
        want += [f"{ranking} {a}" for a in shown(deduce(cont, kb), x, y)]
    first = print_term(mk_list([Int(p) for p in range(1, n + 1)]))
    assert got == want and got[:4] == [f"{first} {a}" for a in ("a x", "a y", "b x", "b y")]


@pytest.mark.parametrize("last, error", [(Struct("h", (Int(1),)), SettingError), (item_term(2), KeyError)])
@given(st.lists(st.booleans(), min_size=2, max_size=2))
@settings(max_examples=10, deadline=None)
def test_a_pair_the_lazy_reading_cannot_read_raises_as_the_blind_stream(last, error, held):
    """Every sorted ranking of item(0), item(1) and last reads a pair with
    last: a non-item (SettingError) or an item no pair is given for
    (KeyError).  The lazy reading waits there on a variable nothing binds,
    so no leaf answers for a ranking, and the first ranking whose run
    reads such a pair raises, after the same answers as the blind stream."""
    pairs = {(0, 1): float(held[0]), (1, 0): float(held[1])}
    kb = ground_kb(make_task("bogosort"), SORT_PROGRAM, facts=TableFacts({}, pairs=pairs))
    items = [item_term(0), item_term(1), last]

    def until_raised(stream, show) -> list:
        out = []
        with pytest.raises(error):
            for s in stream:
                out.append(show(s))
        return out

    order = Var("O")
    got = until_raised(deduce(Atom("f", (mk_list(items), order)), kb), lambda s: print_term(s.apply(order)))

    def blind():
        for perm in itertools.permutations(range(3)):
            placed = [None] * 3
            for item, p in zip(items, perm):
                placed[p] = item
            for _ in deduce(Atom("s", (mk_list(placed),)), kb):
                yield perm

    want = until_raised(blind(), lambda perm: print_term(mk_list([Int(p + 1) for p in perm])))
    assert got == want


def test_sorted_rankings_answer_within_a_node_bound(monkeypatch):
    """Under true pairs the sort program answers every 7-item ranking
    within 4,000 nodes and every 9-item one within 40,000 (at most 253
    and 1,204 on these lists).  nodes is deterministic, so this gates the
    search, not a clock, and each length's total is pinned: how a step
    binds its cells, how waiting goals wake and how solve dispatches a goal
    move no node.  Before forward checking and the leaf answers the totals
    were 827, 6,078 and 91,610 (at most 1,651 and 22,393).  A permute that
    tried every ranking in turn took 10,656 to 40,728 nodes on the 7-item
    lists, and all 6 of the 9-item ones ran out of evaluate's
    500,000-node cap without an answer."""
    budgets = []

    class Recorded(Budget):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            budgets.append(self)

    monkeypatch.setattr("abdlearn.tasks.Budget", Recorded)
    task = make_task("bogosort")
    for length, cap, total in ((5, 4_000, 323), (7, 4_000, 834), (9, 40_000, 4_646)):
        examples = gen_sequences(task, 6, lengths=(length, length), seed=0)
        budgets.clear()
        m = evaluate(SORT_PROGRAM, task, examples, use_truth=True, max_nodes=cap)
        assert (m.failures, m.budget_exhausted, m.depth_cut) == (0, 0, 0)
        assert (len(budgets), sum(b.nodes for b in budgets)) == (6, total)


def _blind_permute_kb(no) -> KnowledgeBase:
    """g(A, B) :- permute(A, B, C), no(C), where no/1 is the builtin no,
    with no lazy reading: it ends permute's probe, so permute tries every
    ranking, 40,320 on 8 items."""
    kb = standard_kb("g(A, B) :- permute(A, B, C), no(C).")
    kb.add_builtin("no", 1, no)
    return kb


EIGHT = Atom("g", (mk_list([Int(i) for i in range(8)]), Var("R")))


def test_node_cap_stops_the_search_at_its_first_failed_tick():
    """Uncapped the search takes 40,323 nodes; under a 1,000-node cap it
    stops at the tick past the cap and runs no ranking after it."""
    calls = []

    def no(args, s):
        calls.append(None)
        return iter(())

    b = Budget()
    assert list(deduce(EIGHT, _blind_permute_kb(no), budget=b)) == []
    assert (b.nodes, len(calls), b.exhausted) == (40_323, 40_320, False)
    calls.clear()
    b = Budget(max_nodes=1_000)
    assert list(deduce(EIGHT, _blind_permute_kb(no), budget=b)) == []
    assert b.exhausted and b.nodes <= 1_001 and len(calls) < 1_000


def test_passed_deadline_stops_the_search_within_256_nodes(monkeypatch):
    """The clock passes the deadline at the 500th ranking.  The deadline is
    read every 256 nodes, and the search stops at the first tick that
    reads it passed, not after the rankings left."""
    now, calls, at = [0.0], [], []
    monkeypatch.setattr(kb_module.time, "monotonic", lambda: now[0])
    b = Budget(wall_ms=5)

    def no(args, s):
        calls.append(None)
        if len(calls) == 500:
            now[0], at[:] = 1.0, [b.nodes]
        return iter(())

    assert list(deduce(EIGHT, _blind_permute_kb(no), budget=b)) == []
    assert b.exhausted and 0 < b.nodes - at[0] <= 256


# ---------------------------------------------------------------------------
# stored probes: one store per (background, abducibles, program), replayed
# ---------------------------------------------------------------------------

# Two sorts of one list in one derivation.  The first permute's probe meets
# the second permute, whose order is open, so the first enumerates blind; the
# second coroutines on each ranking the first sorts, on new cells each time,
# its probe run once and then replayed.
TWO_SORTS = "g2(A, B, D) :- f(A, B), f(A, D).\n"
# nn(A) reads the pair of A's first two items, item handles: a probe that
# runs it reads the fact oracle
READS_PAIR = "g_nn(A, B) :- permute(A, B, C), nn(A), s(C).\n"


def _task_with(bk: str):
    """bogosort with bk added to its background: a clause table, and so a
    probe store, that no other test's ground kbs share."""
    task = make_task("bogosort")
    return dataclasses.replace(task, bk_text=task.bk_text + bk)


def _fresh(kb):
    """kb with no store: each of its probes runs."""
    kb.probes = None
    return kb


def _run(kb, goal: Atom, out: tuple, budget=None):
    """Every answer of goal on kb as out's terms printed, and the search's
    nodes, depth_hits and exhausted."""
    b = budget or Budget()
    got = [" ".join(print_term(s.apply(t)) for t in out) for s in deduce(goal, kb, budget=b)]
    return got, b.nodes, b.depth_hits, b.exhausted


def _facts(n: int, held) -> TableFacts:
    """The pair table over n items that held(a, b) gives."""
    return TableFacts({}, pairs={(a, b): float(held(a, b)) for a in range(n) for b in range(n) if a != b})


@st.composite
def _queries(draw):
    """One to five queries in turn: f or g2 on 2-6 items, each under its own
    pair relation."""
    out = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(2, 6))
        table = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
        out.append((draw(st.sampled_from(["f", "g2"])), n, table))
    return out


@given(_queries())
@settings(max_examples=20, deadline=None)
def test_stored_probes_answer_as_fresh_ones(queries):
    """Each query runs on a new ground kb of one program, so a probe that
    an earlier query (or g2's first sorted ranking) stored is replayed: the
    answers, nodes, depth_hits and exhausted are those of a kb without a
    store.  An f query on a length met before replays."""
    task = _task_with(TWO_SORTS)
    seen, replays, real = set(), [], kb_module._replayed

    def replayed(*args):
        replays.append(None)
        return real(*args)

    for top, n, table in queries:
        out = (Var("B"),) if top == "f" else (Var("B"), Var("D"))
        goal = Atom(top, (mk_list([item_term(i) for i in range(n)]), *out))
        facts = _facts(n, lambda a, b: table[a * n + b])
        want = _run(_fresh(ground_kb(task, SORT_PROGRAM, facts)), goal, out)
        replays.clear()
        with mock.patch.object(kb_module, "_replayed", replayed):
            assert _run(ground_kb(task, SORT_PROGRAM, facts), goal, out) == want
        if top == "f" and (top, n) in seen:
            assert replays
        seen.add((top, n))


def test_a_probe_that_read_a_pair_is_never_stored():
    """g_nn's probe reads the pair (0, 1), which holds under one table and
    not the other: run in turn under both, each gives its own blind stream,
    and the store stays empty."""
    task, n = _task_with(READS_PAIR), 3
    items, order = [item_term(i) for i in range(n)], Var("B")
    goal = Atom("g_nn", (mk_list(items), order))
    tables = (_facts(n, lambda a, b: a > b), _facts(n, lambda a, b: a < b))
    streams = []
    for facts in tables + tables:
        kb = ground_kb(task, SORT_PROGRAM, facts)
        want = []
        for perm in itertools.permutations(range(n)):
            placed = [None] * n
            for item, p in zip(items, perm):
                placed[p] = item
            cont = [Atom("nn", (mk_list(items),)), Atom("s", (mk_list(placed),))]
            want += [print_term(mk_list([Int(p + 1) for p in perm])) for _ in deduce(cont, kb)]
        streams.append(_run(kb, goal, (order,))[0])
        assert streams[-1] == want
    assert streams[:2] == [[], ["[1,2,3]"]] and streams[2:] == streams[:2]
    assert ground_kb(task, SORT_PROGRAM, tables[0]).probes == {}


def test_a_replay_the_budget_cannot_admit_runs_the_probe(monkeypatch):
    """With the probe stored, every node cap up to past the whole search,
    and a deadline already passed, give the answers, nodes and exhausted of
    a kb without a store: a replay whose nodes would cross the cap runs the
    probe instead, which the cap stops.  The passed deadline is never read
    (the search is under 256 nodes), so the probe runs and answers; a
    replay that recorded it would answer nothing."""
    task, n = _task_with("budgets.\n"), 4
    facts = _facts(n, lambda a, b: (a * 3) % n >= (b * 3) % n)
    order = Var("B")
    goal = Atom("f", (mk_list([item_term(i) for i in range(n)]), order))
    whole = _run(ground_kb(task, SORT_PROGRAM, facts), goal, (order,))  # stores the probe
    assert whole[0] == ["[4,1,2,3]"]
    replays, real = [], kb_module._replayed

    def replayed(*args):
        replays.append(None)
        return real(*args)

    with mock.patch.object(kb_module, "_replayed", replayed):
        for cap in range(whole[1] + 2):
            want = _run(_fresh(ground_kb(task, SORT_PROGRAM, facts)), goal, (order,), Budget(max_nodes=cap))
            assert _run(ground_kb(task, SORT_PROGRAM, facts), goal, (order,), Budget(max_nodes=cap)) == want
        # the probe starts at node 3: the caps from there to the node before the
        # stored probe's last ran it, and those past it replayed
        (stored,) = ground_kb(task, SORT_PROGRAM, facts).probes.values()
        assert len(replays) == whole[1] + 2 - (2 + stored.nodes)
        now = [0.0]
        monkeypatch.setattr(kb_module.time, "monotonic", lambda: now[0])
        runs = []
        for kb in (_fresh(ground_kb(task, SORT_PROGRAM, facts)), ground_kb(task, SORT_PROGRAM, facts)):
            now[0] = 0.0
            b = Budget(wall_ms=5)
            now[0] = 1.0
            runs.append(_run(kb, goal, (order,), b))
        assert runs[1] == runs[0] == whole
    assert len(replays) == whole[1] + 2 - (2 + stored.nodes)


# burn(N, A, B) resolves once per succ/1 in N before it calls f(A, B), so
# the probe under it has that much less room; the numeral adds nothing to
# the depth bound, which counts list items
BURN = "burn(0, A, B) :- f(A, B).\nburn(succ(N), A, B) :- burn(N, A, B).\n"


def test_a_probe_is_stored_under_its_room():
    """f stores its probe with the most room; under burn, at every depth
    down to where the bound cuts the probe, and past it, each query run
    twice gives what a kb without a store gives."""
    task, n = _task_with(BURN), 3
    facts = _facts(n, lambda a, b: a >= b)
    items, order = mk_list([item_term(i) for i in range(n)]), Var("B")
    _run(ground_kb(task, SORT_PROGRAM, facts), Atom("f", (items, order)), (order,))
    numeral, cut = parse_term("0"), 0
    for _ in range(kb_module.DEPTH_BASE + kb_module.DEPTH_PER_ITEM * n):
        goal = Atom("burn", (numeral, items, order))
        want = _run(_fresh(ground_kb(task, SORT_PROGRAM, facts)), goal, (order,))
        for _ in range(2):
            assert _run(ground_kb(task, SORT_PROGRAM, facts), goal, (order,)) == want
        cut += want[2] > 0
        numeral = Struct("succ", (numeral,))
    assert cut


def test_add_text_on_a_ground_kb_reaches_no_later_one():
    """Ground kbs of one program share one clause table and one store.  A
    clause added to one copies its table and starts its own store: the
    probe it stores there, with one more leaf, reaches no later ground kb,
    nor does the clause.  add_builtin drops a kb's store."""
    task, n = _task_with("copy_on_write.\n"), 3
    facts = _facts(n, lambda a, b: a >= b)
    items, order = [item_term(i) for i in range(n)], Var("B")
    goal = Atom("f", (mk_list(items), order))
    want = _run(_fresh(ground_kb(task, SORT_PROGRAM, facts)), goal, (order,))
    first, other = ground_kb(task, SORT_PROGRAM, facts), ground_kb(task, SORT_PROGRAM, facts)
    assert first.clauses is other.clauses and first.probes is other.probes
    table = {k: list(cs) for k, cs in first.clauses.items()}
    first.add_text("s([_|_]).")  # every nonempty list sorted
    assert first.clauses is not other.clauses and first.probes == {} and first.probes is not other.probes
    got = _run(first, goal, (order,))
    assert got[0] == _blind(first, "s", items) and len(got[0]) > len(want[0])
    assert len(first.probes) == 1 and other.probes == {}
    for _ in range(2):  # the first runs the probe and stores it, the second replays it
        later = ground_kb(task, SORT_PROGRAM, facts)
        assert later.clauses == table
        assert _run(later, goal, (order,)) == want
    later.add_builtin("extra", 1, lambda args, s: iter(()))
    assert later.probes is None and other.probes is not None


# ---------------------------------------------------------------------------
# shared clause prefixes: a run's head matched once, its first goal run once
# ---------------------------------------------------------------------------


def _solved(kb, goal: Atom, out: Var, budget: Budget, limit=None):
    """Every answer of goal by kb.solve, out printed, as far as the stream
    goes, the error that ended it (None if none), and the budget's nodes,
    depth_hits and exhausted."""
    got, error = [], None
    try:
        for s, _ in kb_module.solve([(goal, None)], kb, budget, limit=limit):
            got.append(print_term(s.apply(out)))
    except ValueError as e:
        error = str(e)
    return got, error, budget.nodes, budget.depth_hits, budget.exhausted


def _aliased(text: str, pred: str) -> str:
    """text with the first goal of each clause after the first that starts
    with pred renamed to pred_alias, so no two clauses share it."""
    clauses, seen = [], False
    for line in text.splitlines():
        if f":- {pred}(" in line:
            if seen:
                line = line.replace(f":- {pred}(", f":- {pred}_alias(")
            seen = True
        clauses.append(line)
    return "\n".join(clauses) + "\n"


@st.composite
def _run_programs(draw):
    """A sum or product program whose two chain clauses share their head
    and first goal, in either order, with the one-item base case
    f(A,B) :- eq(A,B) before, between or after them or left out; a list of
    1-12 digits, and a node cap and a depth limit, each small or none."""
    op = draw(st.sampled_from(["add", "mult"]))
    clauses = [f"f(A,B) :- {op}(A,C), eq(C,B).", f"f(A,B) :- {op}(A,C), f(C,B)."]
    if draw(st.booleans()):
        clauses.reverse()
    ident = draw(st.sampled_from([None, 0, 1, 2]))
    if ident is not None:
        clauses.insert(ident, "f(A,B) :- eq(A,B).")
    digits = draw(st.lists(st.integers(1, 9), min_size=1, max_size=12))
    max_nodes = draw(st.one_of(st.none(), st.integers(1, 60)))
    limit = draw(st.one_of(st.none(), st.integers(0, 30)))
    return op, "\n".join(clauses), ident != 1, digits, max_nodes, limit


def _arith_kb(op: str, text: str):
    kb = KnowledgeBase()
    for a in make_task("sum" if op == "add" else "product").abducibles:
        kb.add_builtin(a.name, a.arity, a.ground())
    kb.add_builtin(f"{op}_alias", 2, kb.builtins[(op, 2)])
    kb.add_text(text)
    return kb


@given(_run_programs())
@settings(max_examples=200, deadline=None)
def test_shared_runs_answer_as_unshared_clauses(case):
    """A run's clauses give every answer, nodes, depth_hits and exhausted
    that the same clauses give with the later one's first goal an alias of
    the builtin, which forms no run."""
    op, text, forms_run, digits, max_nodes, limit = case
    shared, unshared = _arith_kb(op, text), _arith_kb(op, _aliased(text, op))
    runs = [(r.first, r.width) for r in shared.clauses[("f", 2)].groups if r.first is not None]
    assert runs == ([((op, 2), 3)] if forms_run else [])
    assert all(r.first is None for r in unshared.clauses[("f", 2)].groups)
    goal, out = Atom("f", (mk_list([Int(d) for d in digits]), Var("Y"))), Var("Y")
    got = _solved(shared, goal, out, Budget(max_nodes=max_nodes), limit)
    assert got == _solved(unshared, goal, out, Budget(max_nodes=max_nodes), limit)


FIRST_SECOND = "first(X, a(X)).\nsecond(X, b(X)).\nother(0).\n"


def _pick_kb(text: str, answers: int, raise_after=None):
    """A kb of FIRST_SECOND and text with pick(X), a builtin that binds X
    to 1, 2, ... answers, or raises ValueError after raise_after of them,
    and pick_alias, the same builtin; calls lists each run of either."""
    calls = []

    def pick(args, s):
        calls.append(None)
        for k in range(1, answers + 1):
            if k - 1 == raise_after:
                raise ValueError(f"pick raised after {raise_after}")
            s2 = unify(args[0], Int(k), s)
            if s2 is not None:
                yield s2

    kb = KnowledgeBase()
    kb.add_builtin("pick", 1, pick)
    kb.add_builtin("pick_alias", 1, pick)
    kb.add_text(FIRST_SECOND + text)
    return kb, calls


PICKS = "g(Y) :- pick(X), first(X, Y).\ng(Y) :- pick(X), second(X, Y).\n"


@pytest.mark.parametrize("answers", [2, 3])
def test_a_shared_builtin_gives_each_clause_every_answer_in_turn(answers):
    """pick runs once: the first clause's continuation over each of its
    answers, then the second clause's, as two runs of it give them."""
    (kb, calls), (alias, alias_calls) = _pick_kb(PICKS, answers), _pick_kb(_aliased(PICKS, "pick"), answers)
    goal, out = parse_atom("g(Y)"), Var("Y")
    got = _solved(kb, goal, out, Budget())
    assert got[0] == [f"a({k})" for k in range(1, answers + 1)] + [f"b({k})" for k in range(1, answers + 1)]
    assert got == _solved(alias, goal, out, Budget())
    assert (len(calls), len(alias_calls)) == (1, 2)


@pytest.mark.parametrize("raise_after", [0, 1, 2])
def test_a_shared_builtin_that_raises_does_so_where_unshared_clauses_do(raise_after):
    """The error ends the stream after the same answers and nodes."""
    kb, _ = _pick_kb(PICKS, 3, raise_after)
    alias, _ = _pick_kb(_aliased(PICKS, "pick"), 3, raise_after)
    goal, out = parse_atom("g(Y)"), Var("Y")
    got = _solved(kb, goal, out, Budget())
    assert got[1] == f"pick raised after {raise_after}" and len(got[0]) == raise_after
    assert got == _solved(alias, goal, out, Budget())


@pytest.mark.parametrize("limit", [0, 1, 2, 3])
def test_a_shared_node_at_the_depth_bound_counts_a_hit_per_clause(limit):
    """Under limit 1 both clauses' shared nodes are cut, two depth hits and
    pick never run; under 2 pick's answers are cut in each clause's turn."""
    kb, calls = _pick_kb(PICKS, 2)
    alias, alias_calls = _pick_kb(_aliased(PICKS, "pick"), 2)
    goal, out = parse_atom("g(Y)"), Var("Y")
    got = _solved(kb, goal, out, Budget(), limit)
    assert got == _solved(alias, goal, out, Budget(), limit)
    assert got[3] == {0: 1, 1: 2, 2: 4, 3: 0}[limit]
    assert (len(calls), len(alias_calls)) == ((0, 0) if limit < 2 else (1, 2))


def test_only_adjacent_clauses_form_a_run():
    """c1, c3, c2 with only c1 and c2 alike: no run, and pick runs twice;
    c1, c2, c3: c1 and c2 form one.  Equal first goals under different
    heads form none."""
    c1, c2 = PICKS.splitlines()
    c3 = "g(Y) :- other(X), first(X, Y)."
    for text, run, want in [
        (f"{c1}\n{c3}\n{c2}\n", False, ["a(1)", "a(2)", "a(0)", "b(1)", "b(2)"]),
        (f"{c1}\n{c2}\n{c3}\n", True, ["a(1)", "a(2)", "b(1)", "b(2)", "a(0)"]),
    ]:
        kb, calls = _pick_kb(text, 2)
        table = kb.clauses[("g", 1)]
        assert table == [parse_clause(c) for c in text.splitlines()]
        groups = [(len(r.clauses), r.first, r.width) for r in table.groups]
        assert groups == ([(2, ("pick", 1), 2), (1, None, 0)] if run else [(3, None, 0)])
        assert _solved(kb, parse_atom("g(Y)"), Var("Y"), Budget())[0] == want
        assert len(calls) == (1 if run else 2)
    kb, _ = _pick_kb("g(a) :- pick(X), first(X, Y).\ng(Y) :- pick(X), second(X, Y).\n", 2)
    assert [(len(r.clauses), r.first) for r in kb.clauses[("g", 1)].groups] == [(2, None)]


def test_the_groups_of_an_entry_are_its_clauses_in_order():
    """Every entry of the clause tables the system builds, its groups
    concatenated, gives the entry's clauses in order.  bogosort's setting
    calls the s/1 of a curriculum's first stage: SORT_PROGRAM's.  The sum
    program with the last pair as its base case forms a run."""
    pairs = {(a, b): float(a < b) for a in range(3) for b in range(3) if a != b}
    sorted_concept = Program(SORT_PROGRAM.metasubs[1:], invented=SORT_PROGRAM.invented)
    last_pair = Program((SUM_PROGRAM.metasubs[0], MetaSub("chain", (("P", "f"), ("Q", "add"), ("R", "eq")))))
    kbs = [
        standard_kb(LIST_BK),
        *[make_task(t).setting(extra_program=sorted_concept if t == "bogosort" else None).kb for t in TASK_IDS],
        ground_kb(make_task("sum"), SUM_PROGRAM),
        ground_kb(make_task("sum"), last_pair),
        ground_kb(make_task("bogosort"), SORT_PROGRAM, facts=TableFacts({}, pairs=pairs)),
    ]
    tables = [table for kb in kbs for table in kb.clauses.values()]
    for table in tables:
        assert [c for r in table.groups for c in r.clauses] == table
    groups = [r for table in tables for r in table.groups]
    assert any(r.first is not None for r in groups) and any(r.first is None and len(r.clauses) > 1 for r in groups)
