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

Shared clause prefixes.  A run is two or more adjacent clauses of one
predicate with equal head plans and equal first body goals (_Run).
add_clause finds the runs when it builds a predicate's entry, so each
clause table, tasks.ground_kb's shared one included, finds them once.
Every entry has one shape (_Clauses): the clauses, cut into groups, each
run one and each stretch of clauses between runs one.  When a run's first
goal is a builtin the solve runs as it stands (every builtin with a hook,
every one but the coroutining permute without), solve matches the head
once and builds that goal once, from the first clause's frame.  Each
clause's child node is then headed by one shared node (_Shared) in place
of the goal: its first expansion runs the builtin, and each later one
reads the same answers in the same order.  A later clause builds the rest
of its body over the frame's slots of the head and first goal, with fresh
slots after them.  The program sum learns, f(A,B) :- add(A,C), eq(C,B).
f(A,B) :- add(A,C), f(C,B)., so runs each item's add once, not once per
clause.

Rankings are generated and tested (f(A,B) :- permute(A,B,C), s(C)), so a
blind permute runs its continuation on up to n! rankings.  When permute
meets an Order that is not a ground ranking, with goals open after it and no
hook, it coroutines instead (Naish, Negation and Control in Prolog, 1986:
the interleaving that compiling control derives statically, Bruynooghe,
De Schreye & Krekels, JLP 1989):
  * skeletons: Order and Out are unified with lists of fresh cell variables;
  * probe: solve runs the rest of the goal stack once on them, within the
    room the main search has left under the depth bound, charging the same
    Budget.  A builtin there runs by its lazy reading (KnowledgeBase.
    add_builtin), which waits on an unbound variable it reads where the
    builtin would fail or raise.  The probe's leaves are its answers, each
    a substitution with its waiting goals.  A builtin with no lazy reading,
    a permute whose order is not a ground ranking, or a depth cut ends the
    probe, and permute enumerates blind as before;
  * enumeration: rankings come in the blind order, item by item with ranks
    ascending (lexicographic in Order).  Each step, one budget tick, binds
    one item's rank and its Out cell in every leaf: in one copy of the
    leaf's substitution where both cells are unbound there and the item is
    ground (item handles always are), by unifying each cell otherwise.  It
    then runs each waiting goal whose variable is now bound (_wake); a
    prefix every leaf rejects is dropped with all its rankings;
  * forward checking (Haralick & Elliott, AIJ 1980), when every item is
    ground: after a step, each unbound Out cell that goals wait on needs a
    support, an item still to be placed under which each of those goals'
    lazy readings yields something, and a leaf with a cell that has none
    is dropped (_checked).  The waiting goals keep their cell's support, so
    a cell is looked at again only once its support is placed or its goals
    change;
  * output: a ranking left is placed as the blind enumeration places it
    (_placed).  Its surviving leaves then answer for it, each yielded as a
    success node that binds, over s0, what the leaf binds, unless
    (a) a leaf still has waiting goals,
    (b) a lazy reading met a pair it cannot read (it waits there on a
        variable nothing binds, so this is (a)),
    (c) a goal woken so far in the enumeration gave more than one answer,
    or an item is not ground or s0 binds a cell to a term that is not.
    Then the ranking is yielded as before, from the substitution permute
    was called in, and the continuation runs on it;
  * stored probes (variant tabling, Tamaki & Sato, ICLP 1986): a kb that
    tasks.ground_kb builds shares its clause table, and a store of
    finished probes, with every ground kb of the same background,
    abducibles and program (KnowledgeBase.share).  A probe is looked up by
    its room and its goals in canonical form: variables numbered by first
    occurrence, every other term as it stands.  One that finished uncut,
    KnowledgeBase.reads not moved (no lazy reading read the fact oracle),
    is stored: its nodes, and its leaves compiled to one frame of slots
    (_Stored).  Met again, it is replayed when the budget admits its nodes
    (Budget.admits): they are charged, and the leaves are rebuilt over the
    goals' variables, every other variable fresh, each term the leaves
    share built once, each waiting goal with this kb's lazy reading of its
    key.  Otherwise the probe runs.

Why the answers cannot change.  The stream is the blind one less rankings
on which the continuation has no refutation, which yield nothing.  A
derivation of the continuation on a ranking r lifts to the probe: it
resolves the same goals in the same order by the same clauses; a
unification that succeeds on r's cells succeeds on the more general
skeletons; and a builtin that succeeds on them either ran alike in the
probe or waits there (where the ground reading raises, the lazy one waits
on a variable nothing binds, which leaves the error to r's own run).  So a
refutation on r ends in a leaf that the step bindings of r leave alive,
its waiting goals succeeding as they wake.  Forward checking drops no such
leaf: a lazy reading that yields nothing under a substitution yields
nothing under any that binds more (KnowledgeBase.add_builtin), and each
cell is bound to some item still to be placed, so a goal on a cell without
a support fails when it wakes.  Conversely, a leaf alive at r with no goal
waiting is a refutation on r: its clauses and unifications hold with r's
bindings added, which the steps have checked, and its builtins answered by
their lazy readings, as the ground ones do on what they read.  So the
leaves alive at r are r's refutations, one each, and, as no woken goal
made a choice (c), in the order of the continuation's depth-first search,
the choices of the goals that ran in the probe.  Each answers as its
refutation does: the leaf holds the continuation's bindings and r's cells,
and s0 holds permute's own, its cells bound, if at all, to the ground
terms that r's placement has just matched.  The steps match one for one,
so the probe meets the depth bound wherever a ranking's continuation
would: an uncut probe means no ranking's continuation would have been
cut, and the probe's own cut is not counted, the blind enumeration that
follows it counting its cuts itself.  A step's one copy binds what its two
unifications would: each cell is a variable the leaf leaves unbound, so
each unification binds it to its term as it stands, and the occurs check
could only fail on a term that holds a variable, which a ground item does
not.  Only nodes move: the probe and the steps are charged, dropped
prefixes are not extended, a ranking its leaves answer for runs no
continuation, and once the node cap stops the probe no ranking is tried,
as none could answer.
A replay gives the leaves, in order, and the nodes of the probe it stands
for.  The probe is a function of its goals, its room and the kb: solve
starts from no bindings, and the hook and the clause steps pass the scope
on unread.  Goals of one canonical form are variants, and the probe is
blind to variable names: unification and the clause steps bind and build
the same terms up to renaming, nothing tells a fresh variable apart but its
name, and a lazy reading that left the reads count as it was read only its
goal's terms, by their structure.  The kbs that share a store have the same
clauses and builtins, each lazy reading built alike over its own oracle
(add_clause copies the table, add_builtin drops the store).  So the stored
leaves, renamed to this call's variables, are the leaves the probe would
find, with the stored nodes; as the budget admits them, no tick of the run
would fail, and neither counts a depth hit, a stored probe being uncut.
Only the clock can tell the two apart: the run reads the deadline every
256th tick, the replay once.  A probe that was cut, met a goal it cannot
run or read the oracle is not stored, and runs each time.

A shared clause prefix changes no answer and no counter either.  The
clauses of a run match the same goal under the same substitution by equal
head plans, so the one match stands for each of theirs, up to the names of
the variables it builds; the first goal's slots are numbered alike in
each, so each clause's first goal is the same term, and a builtin's
answers are a function of its arguments under the substitution.  Each
clause's child node stands where its builtin goal stood, at the same
depth, costing the same tick or depth hit.  Depth-first, the second
clause's node is drawn only once the first's is exhausted, so the answers
recorded then are all of them, and the stream is still the first clause's
continuation over every answer, then the second's.  A builtin that raises
does so on the same pull, in the first clause's turn.
A clause-defined first goal is not shared: skipping its subtree would skip
its ticks.
"""

from __future__ import annotations

import itertools
import time
from functools import partial
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

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
# a lazy reading yields a builtin's answers, or the unbound variable it waits on
LazyFn = Callable[[tuple, Subst], Iterable["Subst | Var"]]


class KBError(ValueError):
    pass


class Budget:
    """Mutable search-resource accounting shared across one query or search.

    nodes counts resolution steps, and the coroutined permute's probe and
    ranking steps; a ranking its probe's leaves answer for adds no node
    for its continuation, which is not run.  depth_hits records how often
    a branch was cut by the depth bound, which is what distinguishes
    "finitely failed" from "ran out of resources".  exhausted records that
    the budget ran out (max_nodes passed, or the deadline read passed):
    every search that reads the budget (resolution, fd's branch-and-bound,
    mil's blocking search) stops then, and this flag and depth_hits are the
    only record of a cut, so a result is exact while both read clear.

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

    def admits(self, nodes: int) -> bool:
        """Whether nodes more ticks would all pass: the budget is not out,
        they stay within max_nodes, and the deadline, read now but not
        recorded, has not passed."""
        return (
            not self.exhausted
            and (self.max_nodes is None or self.nodes + nodes <= self.max_nodes)
            and (self.deadline is None or time.monotonic() <= self.deadline)
        )


class KnowledgeBase:
    """Clauses indexed by (predicate, arity), each entry a _Clauses, plus
    native builtins, some with the lazy reading that permute's probe runs
    (see the module docstring).  probes, when not None, is the store of
    finished probes (share)."""

    def __init__(self):
        # stored as parsed: resolve() matches them without renaming
        self.clauses: dict[tuple[str, int], list[Clause]] = {}
        self.builtins: dict[tuple[str, int], BuiltinFn] = {}
        self.lazy: dict[tuple[str, int], LazyFn] = {}
        self.probes: Optional[dict] = None
        self.reads: Optional[Callable[[], int]] = None
        self._shared = False  # clauses is another kb's table too

    def share(self, probes: dict, reads: Callable[[], int]) -> "KnowledgeBase":
        """This kb, its clause table marked as shared with other kbs, with
        probes, the store of finished probes they share, and reads, which
        counts what its lazy readings read besides their goals' terms (a
        probe during which it moved is not stored).  The first add_clause
        copies the table and starts an empty store, so no other kb sees the
        clause; add_builtin drops the store, as nothing counts what a new
        reading reads."""
        self.probes, self.reads, self._shared = probes, reads, True
        return self

    def add_clause(self, c: Clause) -> None:
        key = c.head.key()
        if key in self.builtins:
            raise KBError(f"clause for {key[0]}/{key[1]} would override a builtin")
        if self._shared:  # entries are replaced, never changed: the dict is all there is to copy
            self.clauses = dict(self.clauses)
            self.probes = None if self.probes is None else {}
            self._shared = False
        self.clauses[key] = _grouped([*self.clauses.get(key, ()), c])

    def add_text(self, text: str) -> None:
        for c in parse_program(text):
            self.add_clause(c)

    def add_builtin(self, name: str, arity: int, fn: BuiltinFn, lazy: Optional[LazyFn] = None) -> None:
        """fn, and lazy, its reading that yields the variable it waits on
        where fn would fail or raise on reading an unbound one, and
        otherwise answers as fn does.  A lazy reading that yields nothing
        under a substitution must yield nothing under any that binds more:
        permute's forward checking drops leaves on it."""
        key = (name, arity)
        if key in self.clauses:
            raise KBError(f"builtin {name}/{arity} would shadow existing clauses")
        self.builtins[key] = fn
        self.probes = None
        if lazy is not None:
            self.lazy[key] = lazy

    def defines(self, key: tuple) -> bool:
        return key in self.clauses or key in self.builtins

    def predicates(self) -> "set[tuple[str, int]]":
        return set(self.clauses) | set(self.builtins)


class _Run(NamedTuple):
    """A group of a predicate's clauses (_Clauses).  A run, first not None,
    is two or more adjacent clauses with equal head plans and first body
    goals: solve matches their head once and shares the first goal's
    answers when it is a builtin the solve runs as it stands (see the
    module docstring).  first is that goal's key, and width the slots the
    head and first goal use, 0 to width - 1, as the slot form numbers by
    first occurrence.  Any other group, first None, is a stretch of
    clauses in no run, each resolved alone."""

    clauses: tuple
    first: Optional[tuple]
    width: int


class _Clauses(list):
    """A predicate's clauses, in order, as kb.clauses holds them: groups
    holds them again, cut into _Runs."""

    __slots__ = ("groups",)


def _grouped(cs: "list[Clause]") -> _Clauses:
    """cs with its groups: each run of adjacent clauses, and each stretch
    of clauses between runs."""
    groups: list = []
    for _, run in itertools.groupby(cs, lambda c: (c.head_plan, c.body_plan[0]) if c.body else c):
        run = tuple(run)
        if len(run) > 1 and run[0].body:
            names: list = []
            for t in run[0].head.args + run[0].body[0].args:
                term_vars(t, names)
            groups.append(_Run(run, run[0].body[0].key(), len(names)))
        elif groups and groups[-1].first is None:
            groups[-1] = _Run(groups[-1].clauses + run, None, 0)
        else:
            groups.append(_Run(run, None, 0))
    out = _Clauses(cs)
    out.groups = tuple(groups)
    return out


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
    order_items = _ranking(args[1], s)
    if order_items is not None:
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
    ranks = [Int(p) for p in range(1, n + 1)]
    for perm in itertools.permutations(range(n)):
        s3 = _placed(args, s, items, perm, ranks)
        if s3 is not None:
            yield s3


def _ranking(order: Term, s: Subst) -> "Optional[list[Int]]":
    """The ranks of order under s when it is a proper list of Ints, or None."""
    items = proper_list_items(s.apply(order))
    if items is not None and all(isinstance(t, Int) for t in items):
        return items
    return None


def _placed(args: tuple, s: Subst, items: list, perm: Sequence[int], ranks: list) -> Optional[Subst]:
    """s with permute's Order bound to the ranking that gives item i rank
    perm[i] + 1, and Out to the items so placed, or None."""
    # every ranking is a permutation of 1..n, so each places all n items
    out: list = [None] * len(items)
    for item, p in zip(items, perm):
        out[p] = item
    s2 = unify(args[1], mk_list([ranks[p] for p in perm]), s)
    return None if s2 is None else unify(args[2], mk_list(out), s2)


class _Unready(Exception):
    """The probe met a goal it cannot run on the skeletons."""


def _coroutined_permute(args: tuple, rest, s: Subst, kb: KnowledgeBase, budget: Budget, room: int) -> Iterator[tuple]:
    """permute(L, Order, Out) followed by the goal stack rest, as the child
    nodes (goal stack, subst) of the blind enumeration less the rankings
    that every leaf of rest's probe rejects; a ranking its surviving leaves
    answer for is their success nodes (see the module docstring).  With
    rest empty, the blind enumeration."""
    items = proper_list_items(s.apply(args[0]))
    if rest is None or items is None or _ranking(args[1], s) is not None:
        for s2 in _bi_permute(args, s):  # blind, fails, or places by the ranking given
            yield rest, s2
        return
    n = len(items)
    order_cells = [Var(fresh_name()) for _ in range(n)]
    out_cells = [Var(fresh_name()) for _ in range(n)]
    s0 = unify(args[1], mk_list(order_cells), s)
    s0 = None if s0 is None else unify(args[2], mk_list(out_cells), s0)
    if s0 is None:  # no ranking unifies either
        return
    leaves = _probe(rest, s0, kb, budget, room)
    if leaves is None:
        if not budget.exhausted:  # once it is, no node can answer
            for s2 in _bi_permute(args, s):
                yield rest, s2
        return
    ranks = [Int(p) for p in range(1, n + 1)]
    ground = [_ground(t) for t in items]
    checked = all(ground)  # forward checking binds cells without an occurs check
    # the leaves answer when s0 binds each cell, if at all, to a ground term
    fixed = [s0.get(c.name) for c in order_cells + out_cells]
    answers = checked and all(t is None or _ground(t) for t in fixed)
    out_names = {c.name for c in out_cells}
    perm: list = []  # perm[i]: the rank index given to item i
    alive = [leaves]  # alive[i]: the leaves that survive perm[:i]
    split = False  # a goal woken so far gave more than one answer
    taken = [False] * n
    p = 0  # the next rank index to try for item len(perm)
    while True:
        i = len(perm)
        if i == n:
            s3 = _placed(args, s, items, perm, ranks)
            if s3 is not None and answers and not split and not any(waiting for _, waiting in alive[-1]):
                for leaf_s, _ in alive[-1]:  # the continuation's answers on the ranking
                    m = dict(s0.items())
                    m.update(leaf_s.items())
                    yield None, Subst(m)
            elif s3 is not None:
                yield rest, s3  # guards (a) to (c): the continuation runs on the ranking
            p = n
        while p < n and taken[p]:
            p += 1
        if p == n:
            if not perm:
                return
            p = perm.pop()
            taken[p] = False
            alive.pop()
            p += 1
            continue
        if not budget.tick():
            return
        kept: list = []
        order_name, out_name, rank, item = order_cells[i].name, out_cells[p].name, ranks[p], items[i]
        for leaf_s, waiting in alive[-1]:
            if ground[i] and order_name not in leaf_s and out_name not in leaf_s:
                s2 = leaf_s.bind_two(order_name, rank, out_name, item)
            else:  # a cell the continuation bound, or an item the occurs check must see
                s2 = unify(order_cells[i], rank, leaf_s)
                if s2 is not None:
                    s2 = unify(out_cells[p], item, s2)
                if s2 is None:
                    continue
            if waiting:
                split = _wake(s2, waiting, kept) or split
            else:
                kept.append((s2, waiting))
        if checked and i + 1 < n:
            woken, kept = kept, []
            for s2, waiting in woken:
                waiting = _checked(s2, waiting, out_names, items, i)
                if waiting is not None:
                    kept.append((s2, waiting))
        if kept:
            perm.append(p)
            taken[p] = True
            alive.append(kept)
            p = 0
        else:
            p += 1


def _ground(t: Term) -> bool:
    return t.__class__ is not Var and (t.__class__ is not Struct or t.ground)


def _checked(s: Subst, waiting: tuple, out_names: "set[str]", items: list, i: int) -> "Optional[tuple]":
    """Forward checking (Haralick & Elliott, 1980) after item i is placed:
    waiting with the supports of its Out cells brought up to date, or None
    when an unbound Out cell that goals wait on has none.  The support of
    such a cell is the last item k still to be placed under which every
    goal waiting on it, the cell bound to items[k], yields anything by its
    lazy reading; each of those goals keeps (k, w), w the variable its
    reading then waits on (None for an answer).  The goals on a cell stay
    while it is unbound, and the items after k failed one of them, so they
    fail it under any later bindings too: the cell has no support once k
    is placed, and k is looked for again, among the items up to it, only
    when a goal joins the cell or a goal's w is bound."""
    cells: dict = {}  # each Out cell goals wait on: [whether to look again, their places in waiting]
    for g, (args, lazy, var, support) in enumerate(waiting):
        if support is not None and support[0] <= i:
            return None
        name = s.walk(var).name
        if name in out_names:
            cell = cells.setdefault(name, [False, []])
            cell[1].append(g)
            if support is None or support[1] is not None and support[1].name in s:
                cell[0] = True
    new = None
    for name, (stale, goals) in cells.items():
        if not stale:
            continue
        top = min([waiting[g][3][0] for g in goals if waiting[g][3] is not None], default=len(items) - 1)
        for k in range(top, i, -1):
            s_k = s.bind(name, items[k])
            found = []
            for g in goals:
                args, lazy, var, _ = waiting[g]
                r = next(iter(lazy(args, s_k)), None)
                if r is None:
                    break
                found.append((args, lazy, var, (k, r if r.__class__ is Var else None)))
            else:
                break
        else:
            return None
        if new is None:
            new = list(waiting)
        for g, entry in zip(goals, found):
            new[g] = entry
    return waiting if new is None else tuple(new)


class _Stored(NamedTuple):
    """A finished probe in kb.probes, compiled to one frame of slots: one
    per variable, the goals' first, and one per other term object the
    leaves hold, so a term they share is built once.  frame holds each
    ground term in its slot; fresh lists the slots of the probe's own
    variables; code builds each other compound after its arguments, as
    (slot, functor, argument slots).  A leaf is the (name slot, term slot)
    of each binding and each waiting goal's (lazy reading's key, argument
    slots, the slot it waits on)."""

    nodes: int
    frame: tuple
    fresh: tuple
    code: tuple
    leaves: tuple


def _probe(rest, s0: Subst, kb: KnowledgeBase, budget: Budget, room: int) -> "Optional[list[tuple[Subst, tuple]]]":
    """The success leaves (subst, waiting goals) of the goal stack rest run
    from s0 within room steps, or None when the probe could not finish.
    With a store (kb.probes), the probe stored under room and the goals in
    canonical form is replayed when budget admits its nodes; a probe run is
    stored when it finished and kb.reads() did not move (see the module
    docstring)."""
    store = kb.probes
    if store is not None:
        slots: dict = {}  # the goals' variables under s0 by first occurrence
        key = [room]
        g = rest
        while g is not None:  # the scopes are not read: the hook ignores them, clause bodies inherit them
            goal, _, g = g
            key.append((goal.pred, len(goal.args)))
            _preorder(goal.args, s0, slots, key)
        key = tuple(key)
        stored = store.get(key)
        if stored is not None and budget.admits(stored.nodes):
            budget.nodes += stored.nodes
            return _replayed(stored, list(slots), kb)
        nodes, reads = budget.nodes, kb.reads()
    goals = []  # solve starts from no bindings: the goals carry s0's
    while rest is not None:
        goal, scope, rest = rest
        goals.append((s0.apply_atom(goal), scope))
    clauses_only = KnowledgeBase()
    clauses_only.clauses = kb.clauses  # so that every builtin goal reaches the hook
    hits = budget.depth_hits
    try:
        leaves: "Optional[list]" = list(solve(goals, clauses_only, budget, (), partial(_lazy_step, kb), room))
    except _Unready:
        leaves = None
    if budget.depth_hits != hits or budget.exhausted:
        leaves = None
    budget.depth_hits = hits
    if store is not None and leaves is not None and kb.reads() == reads:
        store[key] = _compiled(leaves, slots, budget.nodes - nodes, kb)
    return leaves


def _preorder(terms: Iterable[Term], s: Subst, slots: dict, out: list) -> None:
    """Appends to out the preorder of terms as s applies them, walking
    their variables without building a term or recursing: an unbound
    variable as its slot (slots numbers names by first occurrence), a
    compound as (functor, arity) before its arguments, any other term as it
    stands."""
    walk = s.walk
    todo = list(terms)
    todo.reverse()
    while todo:
        t = todo.pop()
        if t.__class__ is Var:
            t = walk(t)
            if t.__class__ is Var:
                out.append(slots.setdefault(t.name, len(slots)))
                continue
        if t.__class__ is Struct and t.args:
            out.append((t.functor, len(t.args)))
            todo += reversed(t.args)
        else:
            out.append(t)


def _compiled(leaves: list, slots: dict, nodes: int, kb: KnowledgeBase) -> _Stored:
    """The probe's leaves as _Stored keeps them, slots holding the goals'
    variables; one frame covers every leaf, as one run made them."""
    goals = len(slots)
    ground: dict = {}  # slot -> ground term
    code: list = []

    def slot(t: Term) -> int:
        """t's slot, a compound's set after its arguments', without recursion."""
        todo = [t]
        while todo:
            u = todo[-1]
            k = u.name if u.__class__ is Var else id(u)
            if k in slots:
                todo.pop()
            elif u.__class__ is not Struct or u.ground:
                todo.pop()
                if u.__class__ is not Var:
                    ground[len(slots)] = u
                slots[k] = len(slots)
            else:
                args = [a.name if a.__class__ is Var else id(a) for a in u.args]
                todo += [a for a, k_a in zip(u.args, args) if k_a not in slots]
                if todo[-1] is u:
                    todo.pop()
                    slots[k] = len(slots)
                    code.append((slots[k], u.functor, tuple([slots[k_a] for k_a in args])))
        return slots[t.name if t.__class__ is Var else id(t)]

    keys = {fn: key for key, fn in kb.lazy.items()}
    out = []
    for s, waiting in leaves:  # a probe's waiting goals have no support yet
        out.append((
            tuple([(slot(Var(name)), slot(t)) for name, t in s.items()]),
            tuple([(keys[lazy], tuple([slot(a) for a in args]), slot(var)) for args, lazy, var, _ in waiting]),
        ))
    frame = [ground.get(i) for i in range(len(slots))]
    fresh = tuple([i for k, i in slots.items() if k.__class__ is str and i >= goals])
    return _Stored(nodes, tuple(frame), fresh, tuple(code), tuple(out))


def _replayed(stored: _Stored, names: "list[str]", kb: KnowledgeBase) -> "list[tuple[Subst, tuple]]":
    """stored's leaves over the goals' variables names, every other
    variable fresh, each waiting goal with kb's lazy reading of its key."""
    frame = list(stored.frame)
    frame[: len(names)] = [Var(n) for n in names]
    for i in stored.fresh:
        frame[i] = Var(fresh_name())
    for i, functor, args in stored.code:
        frame[i] = Struct(functor, tuple([frame[a] for a in args]))
    lazy = kb.lazy
    return [
        (
            Subst({frame[v].name: frame[t] for v, t in bound}),
            tuple([(tuple([frame[a] for a in args]), lazy[key], frame[w], None) for key, args, w in waits]),
        )
        for bound, waits in stored.leaves
    ]


def _lazy_step(kb: KnowledgeBase, goal: Atom, scope, s: Subst, waiting: tuple):
    """The probe's hook: a builtin goal run by its lazy reading, waiting
    when that yields a variable.  Lazy readings walk the cells they read,
    so only permute's list is applied."""
    key = goal.key()
    bi = kb.builtins.get(key)
    if bi is None:  # undefined: fails, as in the run
        return
    if bi is _bi_permute:
        if proper_list_items(s.apply(goal.args[0])) is None or _ranking(goal.args[1], s) is None:
            raise _Unready
        for s2 in bi(goal.args, s):
            yield (), scope, s2, waiting
        return
    lazy = kb.lazy.get(key)
    if lazy is None:
        raise _Unready
    for r in lazy(goal.args, s):
        if r.__class__ is Var:
            yield (), scope, s, waiting + ((goal.args, lazy, r, None),)
        else:
            yield (), scope, r, waiting


def _wake(s: Subst, waiting: tuple, out: list) -> bool:
    """Adds to out the leaves of running, under s, each waiting goal whose
    variable is bound, and the goals those bind in turn, until every goal
    left waits; True when a goal woken gave more than one answer.

    A waiting variable costs one dict read, and a walk only when it is bound
    to another variable.  The goals before the one woken are not read again
    while the substitution they waited under stays the same."""
    split, todo = False, [(s, waiting, 0)]
    while todo:
        s, waiting, start = todo.pop()  # the goals before start wait under s
        get = s.get
        for k in range(start, len(waiting)):
            args, lazy, var, _ = waiting[k]
            t = get(var.name)
            if t is not None and (t.__class__ is not Var or s.walk(t).__class__ is not Var):
                rest = waiting[:k] + waiting[k + 1 :]
                before = len(todo)
                for r in lazy(args, s):
                    if r.__class__ is Var:
                        todo.append((s, rest + ((args, lazy, r, None),), k))
                    else:
                        todo.append((r, rest, k if r is s else 0))
                split = split or len(todo) > before + 1
                break
        else:
            out.append((s, waiting))
    return split


def standard_kb(text: str = "") -> KnowledgeBase:
    kb = KnowledgeBase()
    kb.add_builtin("permute", 3, _bi_permute)
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
    failure while depth_hits > 0 means the depth bound cut the search.
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
    limit: Optional[int] = None,
) -> Iterator[tuple[Subst, Any]]:
    """Depth-first SLD resolution of (atom, scope) goals; yields (subst, state).

    Each goal costs one budget tick and one step of the depth bound,
    DEPTH_PER_ITEM per list item in the goals plus DEPTH_BASE.  The first
    tick that fails ends the search: no answer is yielded after it.  A
    goal the kb defines is resolved by its builtin or clauses (through
    resolve(), which builds only the body), a clause body inheriting the
    goal's scope; without a hook, a permute with goals after it
    coroutines with them, and its child nodes on a ranking its probe's
    leaves answer for are success nodes, with no goal left.  The builtins
    this solve runs as they stand, its native table, are worked out once
    per call: all of them with a hook, every one but permute without.  The
    clauses of a run whose first goal is native share the head match and
    that goal's answers (_Run).
    Any other goal goes to hook(goal, scope, subst, state) as the goal
    stack holds it, to be read under subst, and the hook yields the
    alternatives as (body atoms, body scope, subst, state); without a hook
    it fails.  The open goals' alternative iterators sit on an explicit
    stack, innermost last (Ait-Kaci, 1991), so the interpreter's recursion
    limit bounds no proof.  limit, given, is the depth bound in place of
    the goals' own: a node limit or more steps down its branch is cut.
    Each open iterator's frame holds the Subst its node started from, a
    dict of every binding on the branch, so a cyclic-GC pass during a
    proof on an L-item list walks O(L^2) entries.  Without a hook a solve
    makes no reference cycle, so refcounting frees all of it and a caller
    may pause the collector around a query (tasks.answer_each does).
    """
    stack = None
    for goal, scope in reversed(goals):
        stack = (goal, scope, stack)
    # a node drawn from open_[i] lies i steps down its branch
    if limit is None:
        limit = DEPTH_BASE + DEPTH_PER_ITEM * sum(len(list_parts(t)[0]) for g, _ in goals for t in g.args)
    tick = budget.tick
    clauses = kb.clauses
    native = kb.builtins if hook is not None else {k: f for k, f in kb.builtins.items() if f is not _bi_permute}
    open_ = [iter(((stack, Subst(), state),))]
    push, pop = open_.append, open_.pop

    def alternatives(stack, s: Subst, state, room: int):
        """The child nodes (goal stack, subst, state) of resolving stack's
        first goal; room is the depth bound as seen from them."""
        # stack is a linked list of goals: (atom, scope, rest) or None
        goal, scope, rest = stack
        key = goal.key()
        bi = native.get(key)
        if bi is not None:
            if goal.__class__ is not _Shared:
                for s2 in bi(goal.args, s):
                    yield rest, s2, state
            elif goal.seen is None:  # the first clause's turn: run the builtin, recording its answers
                goal.seen = seen = []
                for s2 in bi(goal.args, s):
                    seen.append(s2)
                    yield rest, s2, state
            else:  # a later clause's turn, the first's node exhausted: seen holds every answer
                for s2 in goal.seen:
                    yield rest, s2, state
            return
        defined = clauses.get(key)
        if defined is not None:
            for run in defined.groups:
                if run.first not in native:
                    for clause in run.clauses:
                        step = resolve(goal, clause, s)
                        if step is not None:
                            stack2 = rest
                            for b in reversed(step[0]):
                                stack2 = (b, scope, stack2)
                            yield stack2, step[1], state
                    continue
                # the head matched once, in the first clause's frame, stands for every clause's
                first = run.clauses[0]
                frame = [None] * first.frame_size
                s2 = _match_plans(first.head_plan, goal.args, frame, s)
                if s2 is None:
                    continue
                pred, plans = first.body_plan[0]
                shared = _Shared(pred, tuple([_build_plan(t, frame) for t in plans]))
                for clause in run.clauses:
                    if clause is not first:  # the head's and first goal's slots, fresh ones after them
                        frame = frame[: run.width] + [None] * (clause.frame_size - run.width)
                    body = [Atom(p, tuple([_build_plan(t, frame) for t in args])) for p, args in clause.body_plan[1:]]
                    stack2 = rest
                    for b in reversed(body):
                        stack2 = (b, scope, stack2)
                    yield (shared, scope, stack2), s2, state
            return
        if hook is not None:
            for body, body_scope, s2, state2 in hook(goal, scope, s, state):
                stack2 = rest
                for b in reversed(body):
                    stack2 = (b, body_scope, stack2)
                yield stack2, s2, state2
            return
        if key in kb.builtins:  # permute, which native leaves out
            for stack2, s2 in _coroutined_permute(goal.args, rest, s, kb, budget, room):
                yield stack2, s2, state

    while open_:
        for stack, s, state in open_[-1]:
            if stack is None:
                yield s, state
            elif not tick():
                return  # the budget is out: no node left can be searched
            else:
                room = limit - len(open_)  # the bound as seen from this node's children
                if room >= 0:
                    push(alternatives(stack, s, state, room))
                    break
                budget.depth_hits += 1
        else:
            pop()


class _Shared:
    """The first goal of a run's clauses (_Run), as the child node of each
    of them holds it, resolved by builtin under one substitution.  Its
    first expansion runs the builtin and records the answers in seen as it
    yields them; each later one, a later clause's, reads the record.
    Depth-first, a clause's node is drawn only once the one before it is
    exhausted, so the record then holds every answer."""

    __slots__ = ("pred", "args", "seen")

    def __init__(self, pred: str, args: tuple):
        self.pred, self.args, self.seen = pred, args, None

    def key(self) -> "tuple[str, int]":
        return (self.pred, len(self.args))


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
