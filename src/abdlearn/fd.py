"""Finite-domain constraint store and maximum-probability labeling search.

Constraints are the three shapes the abducibles emit: X+Y#=Z, X*Y#=Z and
X#=c.  A domain is a nonnegative interval [lo, hi] and propagation keeps
bounds only, for X+Y#=Z and X*Y#=Z alike: it never removes a value with
support, and the two solver paths below test exact values, so a hole
propagation leaves in (a non-divisor of a pinned product) costs work, never
a wrong answer.  Weighted variables are the pseudo-labels of perceived
items; derived intermediates are not weighted.  solve_best finds the
feasible assignment of weighted variables with the largest summed
log-probability.

The store holds no weights.  A weighted var records only the value its
table starts at, and solve_best reads the tables, a {var id: log-weight
table} map, from its caller: the constraints come from the logic and the
weights from perception, so two stores built over different tables have
equal content, and one store can be solved under many tables.  solve_best
takes a table as given: the fact oracle (mil.TableFacts) checks each item
table once, where it enters.  A clone shares its parent's var records
and watch lists: neither is ever changed in place, a domain change puts a
new record in the store's own list and a post a new watch tuple in its own
dict, so a clone costs a copy of three containers, not of every record.

solve_best picks one of two exact paths from the shape of the store:

  * chain stores, the shape the add/mul abducibles build (x0+x1#=v2,
    v2+x3#=v4, ..., v_last#=y), are solved by one forward max-product pass
    over the values the running variable can take (bucket elimination
    along the chain, Dechter 1999), O(n*|D|*|S|) time in the worst case;
  * any other store goes to branch-and-bound, which clones and
    re-propagates the store at every node and stops early only when the
    caller's runtime budget runs out; that cut is recorded on the budget
    (kb.Budget.exhausted), not on the answer.

The chain pass is bounded as A* bounds a search (Hart, Nilsson & Raphael
1968).  A greedy depth-first search from the head first takes, at each
link, the leaf's heaviest finite in-domain value (the smallest on a tie)
that keeps the running value in the next var's domain, and backs up from a
dead end, expanding each (link, value) state at most once.  The score of
the first labeling it completes, summed in the pass's own order, is the
incumbent I; if it completes none, no labeling scores above -inf and
solve_best returns None.  The pass then drops a transition when its
state's best score plus the leaf's weight plus the best finite weights of
the weighted leaves still to come falls below I - 2*n*mass*_SLACK_ULPS (n
weighted vars, mass the sum of their largest finite |weight|).  That is exact.  Take a labeling through a
transition, with prefix score p at its state, so p <= the state's best.
Float addition is monotone, so the bound is at least the one computed from
p.  Every partial sum in that bound and in the labeling's own score is at
most mass in size, so each float addition is within mass*2**-53 of the real
one: the bound and the score are each within n+1 such steps of the real sum
of their terms, and the real sum of the labeling's weights is at most the
bound's.  So a labeling through a dropped transition scores below I, which
is no more than the optimum: it can neither beat nor tie it, and the
assignment, its log_prob bits and the lexicographic tie-break are those of
the unbounded pass.  Uniform tables drop nothing.

The satisfiability check used when only feasibility matters takes the same
two paths; on a chain it is the same depth-first search, weights aside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .kb import Budget

ADD = "add"
MUL = "mul"
EQC = "eqc"


@dataclass(frozen=True, slots=True)
class Dom:
    """Immutable nonnegative integer interval [lo, hi]; empty when lo > hi."""

    lo: int
    hi: int

    @staticmethod
    def range(lo: int, hi: int) -> "Dom":
        return Dom(lo, hi) if lo <= hi else EMPTY_DOM

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    def size(self) -> int:
        return max(0, self.hi - self.lo + 1)

    def contains(self, v: int) -> bool:
        return self.lo <= v <= self.hi

    def values(self) -> range:
        return range(self.lo, self.hi + 1)

    def pinned(self) -> Optional[int]:
        if self.lo == self.hi:
            return self.lo
        return None

    def intersect_interval(self, lo: int, hi: int) -> "Dom":
        if lo <= self.lo and self.hi <= hi:
            return self
        return Dom.range(max(self.lo, lo), min(self.hi, hi))

    def pin(self, v: int) -> "Dom":
        return Dom(v, v) if self.contains(v) else EMPTY_DOM


EMPTY_DOM = Dom(0, -1)


@dataclass(slots=True)
class FDVar:
    """A store's record of one var, shared by clones and never changed in place."""

    id: int
    dom: Dom
    base: Optional[int] = None  # value of a weighted var's first table entry; None if derived

    @property
    def is_weighted(self) -> bool:
        return self.base is not None


@dataclass(frozen=True, slots=True)
class FDConstraint:
    kind: str  # ADD | MUL | EQC
    x: int
    y: int  # unused for EQC
    z: int  # the constant for EQC


@dataclass(frozen=True, slots=True)
class Labeling:
    assignment: dict  # var id → value, weighted vars only
    log_prob: float


class ConstraintStore:
    """Single-owner store of FD variables and posted constraints."""

    def __init__(self):
        self.vars: list[FDVar] = []
        self.constraints: list[FDConstraint] = []
        self._watch: dict[int, tuple[int, ...]] = {}  # var id -> constraints on it
        self.failed = False

    def clone(self) -> "ConstraintStore":
        out = ConstraintStore()
        out.vars = self.vars.copy()
        out.constraints = self.constraints.copy()
        out._watch = self._watch.copy()
        out.failed = self.failed
        return out

    def content(self) -> tuple:
        """All of the store that solve_best reads, as one hashable value."""
        return (
            self.failed,
            tuple(self.constraints),
            tuple([(v.dom, v.base) for v in self.vars]),
        )

    # -- variables ----------------------------------------------------------

    def new_weighted_var(self, n_values: int, base: int = 0) -> int:
        """A var over base..base+n_values-1, weighted by a table of n_values."""
        v = FDVar(len(self.vars), Dom.range(base, base + n_values - 1), base)
        self.vars.append(v)
        return v.id

    def new_derived_var(self, lo: int, hi: int) -> int:
        v = FDVar(len(self.vars), Dom.range(lo, hi))
        self.vars.append(v)
        return v.id

    def dom(self, vid: int) -> Dom:
        return self.vars[vid].dom

    # -- posting and propagation ---------------------------------------------

    def post(self, kind: str, x: int, y: int = -1, z: int = -1) -> bool:
        """Record a constraint and propagate; False means infeasible."""
        if self.failed:
            return False
        idx = len(self.constraints)
        c = FDConstraint(kind, x, y, z)
        for vid in (c.x, c.y) if kind != EQC else (c.x,):
            if not 0 <= vid < len(self.vars):
                raise ValueError(f"constraint references unknown var {vid}")
        if kind != EQC and not 0 <= c.z < len(self.vars):
            raise ValueError(f"constraint references unknown var {c.z}")
        self.constraints.append(c)
        touched = (c.x,) if kind == EQC else (c.x, c.y, c.z)
        watch = self._watch
        for vid in touched:
            watch[vid] = watch.get(vid, ()) + (idx,)
        return self.propagate([idx])

    def post_eq_const(self, x: int, c: int) -> bool:
        return self.post(EQC, x, -1, c)

    def set_dom(self, vid: int, dom: Dom, queue: "list[int]") -> bool:
        var = self.vars[vid]
        old = var.dom
        if dom is old or (dom.lo == old.lo and dom.hi == old.hi):
            return True
        if dom.is_empty:
            self.failed = True
            return False
        self.vars[vid] = FDVar(vid, dom, var.base)
        for ci in self._watch.get(vid, ()):
            if ci not in queue:
                queue.append(ci)
        return True

    def propagate(self, queue: Optional[list] = None) -> bool:
        """Run the propagation queue to a fixed point; False iff infeasible."""
        if self.failed:
            return False
        if queue is None:
            queue = list(range(len(self.constraints)))
        while queue:
            ci = queue.pop(0)
            c = self.constraints[ci]
            if not self._revise(c, queue):
                self.failed = True
                return False
        return True

    def _revise(self, c: FDConstraint, queue: "list[int]") -> bool:
        if c.kind == EQC:
            return self.set_dom(c.x, self.dom(c.x).pin(c.z), queue)
        dx, dy, dz = self.dom(c.x), self.dom(c.y), self.dom(c.z)
        if dx.is_empty or dy.is_empty or dz.is_empty:
            return False
        if c.kind == ADD:
            # bounds-consistency on x+y=z
            if not self.set_dom(c.z, dz.intersect_interval(dx.lo + dy.lo, dx.hi + dy.hi), queue):
                return False
            dz = self.dom(c.z)
            if not self.set_dom(c.x, dx.intersect_interval(dz.lo - dy.hi, dz.hi - dy.lo), queue):
                return False
            dx = self.dom(c.x)
            return self.set_dom(c.y, dy.intersect_interval(dz.lo - dx.hi, dz.hi - dx.lo), queue)
        # MUL: the same on x*y=z over nonnegative intervals.  A non-divisor
        # of a pinned product may stay in; the chain pass and the completion
        # search test exact values, and once the weighted vars are pinned the
        # forward bound pins every derived var.
        if not self.set_dom(c.z, dz.intersect_interval(dx.lo * dy.lo, dx.hi * dy.hi), queue):
            return False
        dz = self.dom(c.z)
        if not self.set_dom(c.x, _factor_bounds(dx, dy, dz), queue):
            return False
        dx = self.dom(c.x)
        return self.set_dom(c.y, _factor_bounds(dy, dx, dz), queue)


def _factor_bounds(dx: Dom, dy: Dom, dz: Dom) -> Dom:
    """dx narrowed by x*y=z on nonnegative dy, dz: x >= ceil(z.lo/y.hi), x <= z.hi//y.lo."""
    lo, hi = dx.lo, dx.hi
    if dz.lo > 0:
        if dy.hi == 0:
            return EMPTY_DOM
        lo = max(lo, -(-dz.lo // dy.hi))
    if dy.lo > 0:
        hi = min(hi, dz.hi // dy.lo)
    return dx.intersect_interval(lo, hi)


# ---------------------------------------------------------------------------
# Solving
# ---------------------------------------------------------------------------


def _pin_and_propagate(store: ConstraintStore, vid: int, value: int) -> Optional[ConstraintStore]:
    s2 = store.clone()
    queue: list[int] = []
    if not s2.set_dom(vid, s2.dom(vid).pin(value), queue):
        return None
    if not s2.propagate(queue):
        return None
    return s2


def _search_completion(store: ConstraintStore, budget: Optional[Budget]) -> bool:
    """True iff the unpinned vars admit a consistent completion.

    Depth-first over the smallest open domain, each of its values in turn
    however wide it is, re-propagating at each pin: exact.
    """
    open_vars = [v for v in store.vars if v.dom.pinned() is None]
    if not open_vars:
        return True
    open_vars.sort(key=lambda v: (v.dom.size(), v.id))
    v = open_vars[0]
    for val in v.dom.values():
        if budget is not None:
            budget.solver_nodes += 1
        s2 = _pin_and_propagate(store, v.id, val)
        if s2 is not None and _search_completion(s2, budget):
            return True
    return False


def _completion_exists(store: ConstraintStore, budget: Optional[Budget]) -> bool:
    """True iff the store has a solution, weights aside.

    Chain stores take _chain_first's search over (link, value) states;
    other stores take the depth-first search over derived vars.
    """
    if store.failed:
        return False
    chain = _chain_of(store)
    if chain is not None:
        return _chain_feasible(store, *chain, budget)
    return _search_completion(store, budget)


def _labeling_of(store: ConstraintStore, tables: dict) -> Labeling:
    assignment = {}
    log_prob = 0.0
    for v in store.vars:
        if v.is_weighted:
            val = v.dom.pinned()
            assert val is not None
            assignment[v.id] = val
            log_prob += tables[v.id][val - v.base]
    return Labeling(assignment, log_prob)


def _lex_key(assignment: dict) -> tuple:
    return tuple(assignment[k] for k in sorted(assignment))


def solve_best(store: ConstraintStore, tables: dict, budget: Optional[Budget] = None) -> Optional[Labeling]:
    """Max-log-prob feasible assignment of the weighted vars, or None.

    tables maps each weighted var's id to its log-weight table, whose entry
    i weighs the value base + i.  log_prob is the sum of the chosen weights
    in var-id order.  Exact ties go to the lexicographically smallest
    assignment in var-id order, and an assignment scoring -inf counts as
    infeasible.

    The store's shape picks the path, and an answer on a budget that has
    not run out is the same on both: a chain store (see _chain_of) takes
    the bounded max-product pass, which is exact and O(n*|D|*|S|) at
    worst; any other store takes branch-and-bound, which stops as soon as
    budget.ok() fails (its deadline passed, or its node cap was hit
    before) and then returns its best labeling so far.  If it stops before
    its first complete labeling, and when a chain store meets a budget
    already run out, the labeling has no assignment and log_prob -inf.
    None always means the store is infeasible, never that the search was
    cut: every cut is recorded on the budget (Budget.exhausted), so a
    caller that reads budget.ok() after the call knows whether the answer
    is exact.  solver_nodes and solver_leaves on the budget count each
    path's work as the Budget docstring defines: on a chain, the
    transitions the bounded pass kept and the final states it scored, so a
    tighter bound shows as fewer.
    """
    if store.failed:
        return None
    chain = _chain_of(store)
    if chain is None:
        return _branch_and_bound(store, tables, budget)
    if budget is not None and not budget.ok():
        return Labeling({}, -math.inf)
    return _chain_best(store, tables, *chain, budget)


def _branch_and_bound(store: ConstraintStore, tables: dict, budget: Optional[Budget] = None) -> Optional[Labeling]:
    """solve_best for any store shape.

    Branch on weighted vars in descending max-weight order, values in
    descending weight; the bound is the current sum plus each remaining
    var's best remaining weight.  The bound sums in branching order and a
    labeling's score in var-id order, so the two may round apart: a branch
    is cut only when its bound is below the incumbent by more than that
    rounding can span, so an exact tie still reaches the lex tie-break.
    """
    if store.failed:
        return None
    root = store.clone()
    if not root.propagate():
        return None

    def max_weight(var: FDVar) -> float:
        tab = tables[var.id]
        return max(tab[v - var.base] for v in var.dom.values())

    order = [v.id for v in root.vars if v.is_weighted]
    order.sort(key=lambda vid: (-max_weight(root.vars[vid]), vid))
    mass = sum(max((abs(w) for w in tables[vid] if w != -math.inf), default=0.0) for vid in order)
    slack = len(order) * mass * _SLACK_ULPS

    best: dict = {"labeling": None, "score": -math.inf, "stopped": False}

    def bound_rest(st: ConstraintStore, level: int) -> float:
        total = 0.0
        for vid in order[level:]:
            var = st.vars[vid]
            if var.dom.is_empty:
                return -math.inf
            total += max_weight(var)
        return total

    def descend(st: ConstraintStore, level: int, acc: float) -> None:
        if budget is not None and not budget.ok():
            best["stopped"] = True
            return
        if level == len(order):
            if budget is not None:
                budget.solver_leaves += 1
            if not _search_completion(st, budget):
                return
            cand = _labeling_of(st, tables)
            if cand.log_prob > best["score"] or (
                cand.log_prob == best["score"]
                and best["labeling"] is not None
                and _lex_key(cand.assignment) < _lex_key(best["labeling"].assignment)
            ):
                best["score"] = cand.log_prob
                best["labeling"] = cand
            return
        vid = order[level]
        var = st.vars[vid]
        tab, base = tables[vid], var.base
        vals = sorted(var.dom.values(), key=lambda v: (-tab[v - base], v))
        for val in vals:
            if budget is not None:
                budget.solver_nodes += 1
            here = acc + tab[val - base]
            s2 = _pin_and_propagate(st, vid, val)
            if s2 is None:
                continue
            if here + bound_rest(s2, level + 1) < best["score"] - slack:
                continue
            descend(s2, level + 1, here)
            if best["stopped"]:
                return

    descend(root, 0, 0.0)
    lab = best["labeling"]
    if lab is None and best["stopped"]:
        return Labeling({}, -math.inf)
    return lab


# ---------------------------------------------------------------------------
# Chain stores
# ---------------------------------------------------------------------------


def _chain_of(store: ConstraintStore) -> "Optional[tuple[int, list[tuple[bool, int, int]]]]":
    """(head, links) if the store is a chain, else None.

    A chain folds its leaves left to right: head (+|*) leaf_1 #= out_1,
    out_1 (+|*) leaf_2 #= out_2, and so on.  Each link is (is_add, leaf,
    out).  The store is a chain when every ADD/MUL defines a fresh derived
    var from the previous link's output plus one leaf (the first link takes
    two leaves), every leaf is a weighted var or a pinned constant, every
    var is consumed at most once and belongs to the chain, and the weighted
    vars are consumed in increasing id order.  EQC may pin any var.
    """
    vars_ = store.vars
    defined: dict = {}  # out var -> its ADD/MUL constraint
    consumed: set = set()
    for c in store.constraints:
        if c.kind == EQC:
            continue
        if c.z in defined or vars_[c.z].is_weighted:
            return None
        for vid in (c.x, c.y):
            if vid in consumed:
                return None
            consumed.add(vid)
        defined[c.z] = c
    if not defined:
        return (0, []) if len(vars_) == 1 and _is_leaf(vars_[0]) else None
    if 2 * len(defined) + 1 != len(vars_):
        return None
    ends = [z for z in defined if z not in consumed]
    if len(ends) != 1:
        return None
    links = []
    out = ends[0]
    for _ in defined:
        c = defined[out]
        is_add = c.kind == ADD
        if c.x in defined and c.y in defined:
            return None
        if c.x in defined or c.y in defined:
            prev, leaf = (c.x, c.y) if c.x in defined else (c.y, c.x)
            links.append((is_add, leaf, out))
            out = prev
            continue
        head, leaf = c.x, c.y
        if vars_[head].is_weighted and vars_[leaf].is_weighted and head > leaf:
            head, leaf = leaf, head
        links.append((is_add, leaf, out))
        break
    else:
        return None
    if len(links) != len(defined):
        return None  # a second, disconnected chain
    links.reverse()
    last = -1
    for vid in [head] + [leaf for _, leaf, _ in links]:
        var = vars_[vid]
        if not _is_leaf(var):
            return None
        if var.is_weighted:
            if vid < last:
                return None
            last = vid
    return head, links


def _is_leaf(var: FDVar) -> bool:
    return var.is_weighted or var.dom.pinned() is not None


def _chain_feasible(store: ConstraintStore, head: int, links: list, budget: Optional[Budget]) -> bool:
    """True iff the chain has a completion, weights aside (_chain_first).

    The domains already carry every EQC pin: post applied each one, and a
    pin that empties a domain fails the store, which callers check first.
    """
    doms = [v.dom for v in store.vars]
    choices = {vid: [(v, None) for v in doms[vid].values()] for vid in [head] + [leaf for _, leaf, _ in links]}
    score, steps = _chain_first(doms, choices, head, links)
    if budget is not None:
        budget.solver_nodes += steps
    return score is not None


def _chain_first(doms: list, choices: dict, head: int, links: list) -> "tuple[Optional[float], int]":
    """Depth-first search for the first completion of a chain.

    choices maps the head and each leaf to its (value, weight) pairs, tried
    in that order; a weight of None adds nothing.  A state is a link and a
    value of the running var before it, and each is expanded at most once.
    Returns the completion's score, its weights summed in _chain_best's
    order (None if there is no completion), and the transitions tried that
    land in the next var's domain.
    """
    n = len(links)
    steps = 0
    seen: set = set()
    # frames of [link index, running value, score so far, next choice]
    stack = [[0, v, 0.0 if w is None else 0.0 + w, 0] for v, w in reversed(choices[head])]
    if n == 0:
        return (stack[-1][2] if stack else None), 0
    while stack:
        frame = stack[-1]
        k, s, score, i = frame
        is_add, leaf, out = links[k]
        opts = choices[leaf]
        zlo, zhi = doms[out].lo, doms[out].hi
        while i < len(opts):
            d, w = opts[i]
            i += 1
            t = s + d if is_add else s * d
            if zlo <= t <= zhi:
                steps += 1
                if (k, t) not in seen:
                    seen.add((k, t))
                    break
        else:
            stack.pop()
            continue
        frame[3] = i
        if w is not None:
            score += w
        if k + 1 == n:
            return score, steps
        stack.append([k + 1, t, score, 0])
    return None, steps


def _chain_best(
    store: ConstraintStore, tables: dict, head: int, links: list, budget: Optional[Budget]
) -> Optional[Labeling]:
    """Max-product pass along a chain store: solve_best's answer, exactly.

    Each value of the running var keeps its best (score, prefix), where the
    prefix holds the weighted leaves' values so far and the score sums
    their weights in var-id order, as _labeling_of does.  Float addition is
    monotone, so the best prefix at a value stays best after any suffix is
    added, up to rounding: two prefix scores closer than the rounding the
    remaining additions can make may end up equal, and then the
    lexicographic tie-break decides.  So every prefix within that margin of
    a state's best is kept until the last weight is added.

    A greedy depth-first search first gives an incumbent, or shows there is
    no labeling, and the pass drops every transition that provably cannot
    reach the incumbent (see the module docstring).
    """
    vars_ = store.vars
    doms = [v.dom for v in vars_]  # every EQC pinned, as in _chain_feasible
    leaves = [head] + [leaf for _, leaf, _ in links]
    weighted = [vid for vid in leaves if vars_[vid].is_weighted]
    # each leaf's finite in-domain (value, weight), heaviest first and the
    # smallest value first on a tie; a constant's weight is None
    choices: dict = {}
    for vid in leaves:
        if not vars_[vid].is_weighted:
            choices[vid] = [(doms[vid].lo, None)]
            continue
        tab, base = tables[vid], vars_[vid].base
        finite = [(v, tab[v - base]) for v in doms[vid].values() if tab[v - base] != -math.inf]
        finite.sort(key=lambda e: (-e[1], e[0]))
        choices[vid] = finite
    incumbent, _ = _chain_first(doms, choices, head, links)
    if incumbent is None:
        return None
    # Bound on |partial sum| along any path; each remaining addition can
    # move the gap between two prefixes by at most 2**-52 of it.
    mass = sum(max(abs(w) for w in tables[vid] if w != -math.inf) for vid in weighted)
    floor = incumbent - 2 * len(weighted) * mass * _SLACK_ULPS
    rest = []  # per link: the best weights of the weighted leaves after its own
    ahead = 0.0
    for _, leaf, _ in reversed(links):
        rest.append(ahead)
        if vars_[leaf].is_weighted:
            ahead += choices[leaf][0][1]
    rest.reverse()

    remaining = len(weighted)
    layer: dict = {}  # running value -> [(score, prefix)], best first
    if vars_[head].is_weighted:
        for v, w in choices[head]:
            layer[v] = [(0.0 + w, (v,))]
        remaining -= 1
    else:
        layer[doms[head].lo] = [(0.0, ())]
    slack = remaining * mass * _SLACK_ULPS
    steps = 0
    for (is_add, leaf, out), ahead in zip(links, rest):
        zlo, zhi = doms[out].lo, doms[out].hi
        nxt: dict = {}
        if vars_[leaf].is_weighted:
            leaf_choices = choices[leaf]
            remaining -= 1
            slack = remaining * mass * _SLACK_ULPS
            for s, entries in layer.items():
                top = entries[0][0]
                for d, w in leaf_choices:
                    if top + w + ahead < floor:
                        break  # and so does every lighter value
                    t = s + d if is_add else s * d
                    if t < zlo or t > zhi:
                        continue
                    steps += 1
                    for score, prefix in entries:
                        score += w
                        cur = nxt.get(t)
                        if cur is None:
                            nxt[t] = [(score, prefix + (d,))]
                        elif score >= cur[0][0] - slack:
                            _offer(cur, score, prefix + (d,), slack)
        else:
            c = doms[leaf].lo
            for s, entries in layer.items():
                if entries[0][0] + ahead < floor:
                    continue
                t = s + c if is_add else s * c
                if t < zlo or t > zhi:
                    continue
                steps += 1
                cur = nxt.get(t)
                if cur is None:
                    nxt[t] = list(entries)
                else:
                    for score, prefix in entries:
                        _offer(cur, score, prefix, slack)
        layer = nxt
    best_score, best_prefix = -math.inf, None
    for entries in layer.values():
        for score, prefix in entries:
            if score > best_score or (score == best_score and best_prefix is not None and prefix < best_prefix):
                best_score, best_prefix = score, prefix
    if budget is not None:
        budget.solver_nodes += steps
        budget.solver_leaves += len(layer)
    return Labeling(dict(zip(weighted, best_prefix)), best_score)


# Per remaining addition and unit of |partial sum|: 4x the 2**-52 a rounding
# step can close the gap between two prefix scores (or between a bound and
# a score summed in another order) by.
_SLACK_ULPS = 2.0**-50


def _offer(cur: list, score: float, prefix: tuple, slack: float) -> None:
    """Merge (score, prefix) into a state's entries, best first.

    Entries more than slack below the best are dropped; equal scores keep
    the lexicographically smaller prefix.
    """
    top = cur[0][0]
    if score < top - slack:
        return
    if score > top + slack:
        cur[:] = [(score, prefix)]
        return
    for i, (s, p) in enumerate(cur):
        if s == score:
            if prefix < p:
                cur[i] = (score, prefix)
            return
    cur.append((score, prefix))
    cur.sort(key=lambda e: -e[0])
    floor = cur[0][0] - slack
    while cur[-1][0] < floor:
        cur.pop()
