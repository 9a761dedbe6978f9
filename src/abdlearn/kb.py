"""Knowledge base and depth-bounded SLD resolution.

The deductive engine is a plain depth-first resolution prover over definite
clauses plus one native builtin, permute/3, which places a list's items by
a ranking (the clause text format stays free of host conveniences).

solve() is the one resolver: deduce() runs it on the kb alone, and mil runs
it with a hook for the predicates the kb does not define.  Termination
rests on the depth bound, which counts resolution steps along a branch
(each goal costs one, however it is resolved); there is no descent check.
The bound comes from the goals: DEPTH_PER_ITEM steps per list item in their
arguments plus DEPTH_BASE, room on a list of any length for the tasks'
programs, which take at most four steps per item.
resolve(), the step both take, never copies a clause: as in structure sharing
(Boyer & Moore, 1972), the clause's variables live in a per-step frame.
Each clause is compiled once, when it is built, to a slot form in which
every variable is a frame index and every ground subterm is kept as it is
(terms.Clause; compiled clauses with slot frames, Ait-Kaci 1991, without
the binding trail), so the frame is a list indexed by slot and a step
matches the head and builds the body without looking up a name.
"""

from __future__ import annotations

import itertools
import time
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from .parser import parse_program
from .terms import (
    Atom,
    Clause,
    Int,
    Struct,
    Subst,
    Term,
    Var,
    fresh_name,
    list_parts,
    mk_list,
    proper_list_items,
    rename_apart,  # this and unify_atoms are unused: perfbench/spans.py wraps them here
    term_vars,
    unify,
    unify_atoms,
)

DEPTH_BASE = 64
DEPTH_PER_ITEM = 8

BuiltinFn = Callable[[tuple, Subst], Iterable[Subst]]


class KBError(ValueError):
    pass


class Budget:
    """Mutable search-resource accounting shared across one query or search.

    nodes counts resolution steps.  depth_hits records how often a branch
    was cut by the depth bound, which is what distinguishes "finitely
    failed" from "ran out of resources".

    solver_nodes and solver_leaves count finite-domain solver work, and
    their unit depends on the path the store took (see fd):
      * chain stores: solver_nodes counts state transitions (a running
        value combined with a leaf value that lands in the next var's
        domain), those the bounded max-product pass kept and those the
        feasibility-only search tried before its first completion; so a
        search that prunes more shows as fewer, never more, than a sweep
        of every transition.  solver_leaves counts the final states the
        max-product pass scored, 1 for a pinned sum;
      * other stores, branch-and-bound: solver_nodes counts branching
        nodes plus the pins of the completion search; solver_leaves counts
        complete assignments of the weighted vars reached.

    proofs_run and proofs_replayed count mil's stored-proof lookups, run
    from scratch or replayed from the setting's stored proof of their
    shape: every proof mil runs.
    """

    __slots__ = (
        "max_nodes",
        "deadline",
        "nodes",
        "depth_hits",
        "solver_nodes",
        "solver_leaves",
        "proofs_run",
        "proofs_replayed",
        "exhausted",
    )

    def __init__(self, max_nodes: Optional[int] = None, wall_ms: Optional[float] = None):
        self.max_nodes = max_nodes
        self.deadline = (time.monotonic() + wall_ms / 1000.0) if wall_ms else None
        self.nodes = 0
        self.depth_hits = 0
        self.solver_nodes = 0
        self.solver_leaves = 0
        self.proofs_run = 0
        self.proofs_replayed = 0
        self.exhausted = False

    def tick(self) -> bool:
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            self.exhausted = True
            return False
        if self.deadline is not None and self.nodes % 256 == 0 and time.monotonic() > self.deadline:
            self.exhausted = True
            return False
        return True

    def ok(self) -> bool:
        if self.exhausted:
            return False
        if self.deadline is not None and time.monotonic() > self.deadline:
            self.exhausted = True
            return False
        return True


class KnowledgeBase:
    """Clauses indexed by (predicate, arity) plus native builtins."""

    def __init__(self):
        # stored as parsed: resolve() matches them without renaming
        self.clauses: dict[tuple[str, int], list[Clause]] = {}
        self.builtins: dict[tuple[str, int], BuiltinFn] = {}

    def add_clause(self, c: Clause) -> None:
        key = c.head.key()
        if key in self.builtins:
            raise KBError(f"clause for {key[0]}/{key[1]} would override a builtin")
        self.clauses.setdefault(key, []).append(c)

    def add_text(self, text: str) -> None:
        for c in parse_program(text):
            self.add_clause(c)

    def add_builtin(self, name: str, arity: int, fn: BuiltinFn) -> None:
        key = (name, arity)
        if key in self.clauses:
            raise KBError(f"builtin {name}/{arity} would shadow existing clauses")
        self.builtins[key] = fn

    def defines(self, key: tuple) -> bool:
        return key in self.clauses or key in self.builtins

    def predicates(self) -> "set[tuple[str, int]]":
        return set(self.clauses) | set(self.builtins)


# ---------------------------------------------------------------------------
# Builtins
# ---------------------------------------------------------------------------


def _bi_permute(args: tuple, s: Subst) -> Iterator[Subst]:
    """permute(L, Order, Out): Out[Order[i]] = L[i], Order a 1-based ranking.

    With Order ground this is deterministic placement; with Order unbound it
    enumerates all rankings of 1..len(L) in lexicographic order.
    """
    items = proper_list_items(s.apply(args[0]))
    if items is None:
        return
    n = len(items)
    order_t = s.apply(args[1])
    order_items = proper_list_items(order_t)
    if order_items is not None and all(isinstance(t, Int) for t in order_items):
        if len(order_items) != n:
            return
        out: list = [None] * n
        for item, t in zip(items, order_items):
            if not 1 <= t.value <= n or out[t.value - 1] is not None:
                return
            out[t.value - 1] = item
        s2 = unify(args[2], mk_list(out), s)
        if s2 is not None:
            yield s2
        return
    # every ranking is a permutation of 1..n, so each places all n items
    ranks = [Int(p) for p in range(1, n + 1)]
    for perm in itertools.permutations(range(n)):
        out = [None] * n
        for item, p in zip(items, perm):
            out[p] = item
        s2 = unify(args[1], mk_list([ranks[p] for p in perm]), s)
        if s2 is None:
            continue
        s3 = unify(args[2], mk_list(out), s2)
        if s3 is not None:
            yield s3


def standard_builtins() -> "dict[tuple[str, int], BuiltinFn]":
    return {
        ("permute", 3): _bi_permute,
    }


def standard_kb(text: str = "") -> KnowledgeBase:
    kb = KnowledgeBase()
    for (name, arity), fn in standard_builtins().items():
        kb.add_builtin(name, arity, fn)
    if text:
        kb.add_text(text)
    return kb


# ---------------------------------------------------------------------------
# Deduction
# ---------------------------------------------------------------------------


def deduce(
    goal: "Atom | list[Atom]",
    kb: KnowledgeBase,
    budget: Optional[Budget] = None,
) -> Iterator[Subst]:
    """Solve goal(s) against kb, yielding solutions projected to goal vars.

    Solutions come in depth-first clause order.  The depth bound comes from
    the goals (see solve); when it cuts a branch the budget's depth_hits
    counter is bumped, so an empty stream with depth_hits == 0 means finite
    failure while depth_hits > 0 means the search was truncated.
    """
    goals = [goal] if isinstance(goal, Atom) else list(goal)
    if budget is None:
        budget = Budget()
    goal_vars: list[str] = []
    for g in goals:
        for t in g.args:
            term_vars(t, goal_vars)
    for s, _ in solve([(g, None) for g in goals], kb, budget):
        yield _project(s, goal_vars)


def _project(s: Subst, names: "list[str]") -> Subst:
    out = Subst()
    for n in names:
        v = s.apply(Var(n))
        if not (isinstance(v, Var) and v.name == n):
            out = out.bind(n, v)
    return out


def solve(
    goals: "Sequence[tuple[Atom, Any]]",
    kb: KnowledgeBase,
    budget: Budget,
    state: Any = None,
    hook: Optional[Callable[[Atom, Any, Subst, Any], Iterable[tuple]]] = None,
) -> Iterator[tuple[Subst, Any]]:
    """Depth-first SLD resolution of (atom, scope) goals; yields (subst, state).

    Each goal costs one budget tick and one step of the depth bound,
    DEPTH_PER_ITEM per list item in the goals plus DEPTH_BASE.  A goal the
    kb defines is resolved by its builtin or clauses (through resolve(),
    which builds only the body), a clause body inheriting the goal's scope.
    Any other goal, substitution applied, goes to hook(goal, scope, subst,
    state), which yields the alternatives as (body atoms, body scope,
    subst, state); without a hook it fails.  The open goals' alternative
    iterators sit on an explicit stack, innermost last (Ait-Kaci, 1991), so
    the interpreter's recursion limit bounds no proof.
    """
    stack = None
    for goal, scope in reversed(goals):
        stack = (goal, scope, stack)
    # a node drawn from open_[i] lies i steps down its branch
    limit = DEPTH_BASE + DEPTH_PER_ITEM * sum(len(list_parts(t)[0]) for g, _ in goals for t in g.args)
    tick = budget.tick
    open_ = [iter(((stack, Subst(), state),))]
    push, pop = open_.append, open_.pop
    while open_:
        for stack, s, state in open_[-1]:
            if stack is None:
                yield s, state
            elif tick():
                if len(open_) <= limit:
                    push(_alternatives(stack, s, state, kb, hook))
                    break
                budget.depth_hits += 1
        else:
            pop()


def _alternatives(stack, s: Subst, state, kb: KnowledgeBase, hook):
    """The child nodes (goal stack, subst, state) of resolving stack's first goal."""
    # stack is a linked list of goals: (atom, scope, rest) or None
    goal, scope, rest = stack
    key = goal.key()
    bi = kb.builtins.get(key)
    if bi is not None:
        for s2 in bi(goal.args, s):
            yield rest, s2, state
        return
    clauses = kb.clauses.get(key)
    if clauses is not None:
        for clause in clauses:
            step = resolve(goal, clause, s)
            if step is not None:
                stack2 = rest
                for b in reversed(step[0]):
                    stack2 = (b, scope, stack2)
                yield stack2, step[1], state
        return
    if hook is None:
        return
    for body, body_scope, s2, state2 in hook(s.apply_atom(goal), scope, s, state):
        stack2 = rest
        for b in reversed(body):
            stack2 = (b, body_scope, stack2)
        yield stack2, s2, state2


def resolve(goal: Atom, clause: Clause, s: Subst) -> "Optional[tuple[tuple[Atom, ...], Subst]]":
    """(body, s2) of renaming clause apart and unifying its head with goal, or None.

    Predicate and arity must match.  The step reads the clause's slot form
    (see terms.Clause): its variables live in a list frame, indexed by
    slot, and none enters s.  A variable's first occurrence in the head
    takes the goal's term and binds nothing; one the head leaves unset gets
    a fresh Var when the step first builds it."""
    frame = [None] * clause.frame_size
    s2 = _match_plans(clause.head_plan, goal.args, frame, s)
    if s2 is None:
        return None
    return tuple([Atom(p, tuple([_build_plan(t, frame) for t in args])) for p, args in clause.body_plan]), s2


def _match_plans(plans: tuple, gs: tuple, frame: list, s: Subst) -> Optional[Subst]:
    """s extended so that the plans, read through frame, equal goal terms gs."""
    for c, g in zip(plans, gs):
        cls = c.__class__
        if cls is int:
            t = frame[c]
            if t is None:  # a first occurrence takes g, binding nothing
                frame[c] = g
                continue
            if t is g:
                continue
            s = unify(t, g, s)
        elif cls is tuple:
            g = s.walk(g)
            if g.__class__ is Var:
                s = unify(g, _build_plan(c, frame), s)
            elif g.__class__ is Struct and g.functor == c[0] and len(g.args) == len(c[1]):
                s = _match_plans(c[1], g.args, frame, s)
            else:
                return None
        else:
            s = unify(c, g, s)
        if s is None:
            return None
    return s


def _build_plan(c, frame: list) -> Term:
    """The term of plan c read through frame; a slot not yet set gets a fresh Var."""
    cls = c.__class__
    if cls is int:
        t = frame[c]
        if t is None:
            t = frame[c] = Var(fresh_name())
        return t
    if cls is tuple:
        return Struct(c[0], tuple([_build_plan(a, frame) for a in c[1]]))
    return c
