
import sys

import pytest
from hypothesis import given, settings, strategies as st

from abdlearn import kb as kb_module
from abdlearn.kb import Budget, KBError, KnowledgeBase, deduce, resolve, standard_kb
from abdlearn.metarules import MetaSub, Program
from abdlearn.parser import parse_atom, parse_clause, parse_term
from abdlearn.tasks import ground_kb, make_task
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
