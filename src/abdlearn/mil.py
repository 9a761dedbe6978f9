"""Meta-interpretive induction with probabilistic abduction.

prove() is a meta-interpreter that handles each goal by one of four
alternatives, tried in this order:

  1. empty goal list: succeed, emitting the current program together with
     the proof's ExampleLabeling: the item pairs it assumed, the item
     values its solved store assigns, and their joint log-probability;
  2. deductive predicate (background clause or builtin): resolve, recurse;
     kb.solve does this itself and hands every other goal to prove's hook;
  3. abducible predicate: record the assumption; arithmetic abducibles post
     a finite-domain constraint over the sequence items touched, the dyadic
     fact abducible records the item pair, whose probability the proof's
     score takes at its leaf, and a fact of probability 0 ends the branch;
     Abducible.ground is the same predicate's ground reading, which a
     learned program runs on at eval;
  4. inducible predicate (the induction target or an invented symbol):
     reuse a recorded template instantiation, or, within the clause budget,
     bind a new one, inventing a fresh auxiliary symbol as a last resort.

induce() generates candidates once, at the caller's clause budget: prove()
extends a program positive by positive until it proves every positive or
fills the budget.  It then scores each candidate on the whole batch, smallest
first, where a program's score is a simplicity prior times the per-example
abduction probabilities, and stops at the first candidate whose prior alone
cannot beat the best score so far.  Prove's stream does not depend on what
its consumer has seen: nothing feeds a score back into the search.

The clause budget bounds the programs generation can build, and two rules
bound each proof.  An inducible call whose predicate already occurs among
its inducible ancestors must strictly shrink its first (list) argument,
which rules out left recursion and non-reducing loops while admitting the
structural recursion the templates express; background clauses are not
checked, as in kb.deduce.  Beyond that, kb.solve bounds the resolution
steps along a branch, whatever resolves each goal, by a bound that grows
with the goals' list items.

One prune cuts whole subtrees that hold no proof.  A program is closed
when it can gain no clause: new clauses are not allowed, or it fills the
clause budget.  Under a closed program an inducible predicate is productive
when one of its clauses has only productive inducible predicates in its
body (background predicates and abducibles count as productive); the
productive set is that rule's least fixpoint, computed once per setting
and program.  Every finite proof of a goal bottoms out in such clauses, so
a clause that leaves a closed program with an unproductive inducible body
predicate starts a branch that can only fail, and the clause lists never
offer it: the branch goes before any of its body goals runs, where an add
abduction would clone and propagate a store.  That subsumes failing a goal
on an unproductive predicate: each of its clauses has such a body, so the
goal gets an empty list and fails in one node.  The prune changes neither
the proofs found nor their order.  Without it, a full program whose clauses
all recurse tries every mix of its clauses down the list, 2^L branches for
a list of L items, before it fails.

Generation drops what could only give it a program again: a leaf whose
closed program it has already recorded goes, as it is yielded, before its
feasibility check.  That is its one cut under recorded programs (below).

Generation lists a new clause only if it type-checks against the call
(typed MIL: Morel, Cropper & Ong, JELIA 2019), with every type derived,
none declared.  A type is int, item, list(T) or a type variable, and
comes from one of four places:
  - the call's own argument terms: an Int is int, an item(i) handle item,
    a proper list list(T) when its items' types all agree with T, and
    anything else a wildcard (a fresh type variable): an fdv(v) reference,
    an unbound variable, a list whose items' types clash;
  - a background predicate of one clause, its head: [H|T] is list(X) with
    H : X and T : list(X), [] is list(X), an Int is int, a head variable
    its own type variable, and any other term a wildcard;
  - an abducible, its kind: add and mult are list(X) -> list(X), eq is
    list(X) -> int, and a fact is list(X);
  - nowhere: builtins (permute/3), predicates of several clauses and the
    inducible ones, target and invented, are untyped.
A new clause is dropped when its variables cannot take types that agree
with the call's and with a renamed-apart instance of each typed body
predicate's signature, that is when terms.unify (which occurs-checks)
fails on them.  Closed programs list no new clause, so scoring and eval
read the lists unfiltered and never compute a call's types.

Why no proof is lost.  A type states a shape: int an Int, item an item
handle, list(X) a list cell or [] whose items have type X.  A call's types
hold of its arguments at the call and of every instance of them, since
bindings only refine a term.  A signature's types hold of every success of
its predicate: a success of a one-clause predicate is an instance of its
head, and an abducible checks the shape it needs before it succeeds (eq's
output must already be an Int).  A clash asks one term to have two shapes,
an Int and a list cell, say, or to be a list that contains itself, which
no unifier gives; so the clause is in no proof, and generation, which
records only the clauses of successful proofs, builds the same programs in
fewer nodes.  Two kinds of position stay wildcards at the call because
their shape is not written in the term: an unbound variable can still
become anything, and an fdv(v) reference names a value the store computes.
Whatever type the position of an fdv(v) takes, the reference unifies with
no Int, handle or list cell, so a use that needs one of those fails at run
time too.  The argument takes each typed list's items to share one type,
an fdv(v) fitting any.  So do the goals' lists (a list of clashing items
is a wildcard), and so do their sublists, add and mult outputs and
permutations.

The clauses that may resolve an inducible goal are listed once per
setting: _clause_choices enumerates them, recorded ones first and then the
new ones within the clause budget, and the setting keeps each list, as
(clause, program with it) pairs, keyed by program, predicate, arity,
whether new clauses are allowed, the clause budget and, under a program
that can still grow, the call's types, which is all the enumeration, its
type check and its productivity prune read; the type check of each new
clause against each call's types is decided once per setting too.  Each
inducible call then resolves its goal by kb.resolve against the listed
clauses, in the listed order.

Every proof proves each goal shape once per setting (query packs, Blockeel
et al., JAIR 2002; ground once, re-weight per example, Fierens et al., TPLP
2015): scored positives, the feasibility checks of negatives, induce's
failure diagnosis and generation's positives alike, fact abducibles
included.  The setting keeps each such proof as it ran: per leaf, its
constraint store, its map from item positions to store vars, its abduced
pairs as item positions in path order and its pins (below); the item tables
and pairs the proof read, by position in first-read order; its nodes and
depth hits.  The key is the program; the goal with each item(i) handle
replaced by the position of i's first occurrence (so the length and repeats
stay in it) and a parameter by its slot; value_base; under generation
the clause budget; and each item's table length.  One preorder walk of the
goals (_proof_key) gives the key, the goals' item ids by position and the
parameter.  The key is exact: a store holds no weights (solve_best takes
the tables from its caller), the tree reads the item tables only through
the initial domains, which the key sets, the background knowledge names no
item handle, and a pair read is only logged, with its log-probability, or,
at probability 0, ends the branch.  TableFacts.from_model clips pairs to
[1e-9, 1 - 1e-9], so no branch ends, and the tree, each leaf's store and
its facts are the same for every goal of the key.  A proof that read a pair
of probability 0 (TableFacts.exact builds those) is not stored, nor
replayed when a pair it read has one now.  A replay adds the proof's nodes
and depth hits to the budget and re-reads its log in order (a missing pair
or table raises as before).  Run or replayed, every leaf reaches the solver
through one translation, _emitted: item positions become the goal's item
ids, and the leaf's pair log-probabilities, from the run's log or the
re-read, are summed as 0.0 + lp1 + lp2 + ... in path order.  Each stored
store goes, as it is, to the solver with its own tables or to the
feasibility check: labelings, log_prob bits and counters are those of the
goal's own proof.  A goal whose budget could not run the whole proof
(max_nodes below its nodes, or the budget out) is proved from scratch; a
proof that ran the budget out is not stored.

A sum or product goal f(items, y) is proved once per program and length
(and, under generation, clause budget), not once per y: y is a parameter.
One rule decides where, for closed-program proofs and generation alike,
derived once per setting and program over the program's clauses and every
clause generation can add to it.  Those are, per metarule and head
predicate, one for each predicate it may put in the last body atom: a body
pool entry, the target, an invented predicate or one the setting may still
invent.  A parameter position of an inducible predicate is one at which
each of these clauses for the predicate has a head variable that occurs
once in the head and once in the body, in the last body atom, which must
take it: an abducible, a background predicate of facts only, or an
inducible one at a parameter position.  The positions are the largest such
set; they are none unless every background clause holds only variables,
symbols and lists and calls no builtin, and the body pool names no
builtin.  A single goal takes a parameter when its one Int outside item
handles is an argument at such a position; any other goal, a ground Int
goal say, keeps y in its key.  The key's walk counts the Ints, so the
positions are read only for a single goal with one Int.  The proof runs on
the goal with y replaced by the slot $param; an eq whose output is the
slot records its store var as a pin and posts nothing.  The proof that
stores an entry, and each replay, posts every pin as var = y on a clone
of its leaf store and drops a leaf whose pin fails.  The stored proof
keeps the leaves under each y it has met, so a (shape, y) met again costs
no clone.
Why this is exact.  Resolution starts from one goal, and the rule keeps y
in the last goal of the goal list: a clause head takes it in a variable
that binds nothing (its only occurrence) and the body hands it on only in
its last atom.  Nothing else in the proof holds an Int: not the goal, not
the background clauses, and an abducible binds fdv(v) references, never
Ints; nor can a clause take an item or fdv handle apart.  So whatever y
meets, it and its slot act alike: a variable binds to either; any other
term unifies with neither, being no Int and no slot; a background fact
matches or fails the same way and ends the branch; and an abducible fails
at once on a term that is no list, unless y is eq's output, a pin.  The
depth bound counts no Int; an inducible call reads only its first
argument's list length, which y and its slot both lack; _call_type types
the slot int, so the choice lists, keyed by the call's types, are the Int
call's.  So the slotted proof takes the steps of the goal's own proof: the
same nodes ticked, branches cut and tables read, in the same order.  The
pin is the last step of its branch, since an eq that is the last goal
succeeds into a leaf: the goal's own proof clones the store, adds x's var
and posts var = y; the stored proof clones and adds the same var, and the
pin later appends the same EQC to a clone and propagates it from the same
queue.  So the leaves, in order, each store's content and watch lists, the
solved-store key, the labelings and all four counters are those of the
goal's own proof, and a leaf whose pin fails is its branch that failed at
the eq.  A closed program's proof uses only clauses the rule covers, so
this holds for it word for word.  It covers f(A,B) :- f(A,C), head(C,B),
which type-checks with B : int and hands B to head/2: the descent rule
fails f(A,C) before head runs, but even there head would compare y with an
item of C, which is no Int.  In a ground goal it would be: f(A,B) :-
tail(A,C), head(C,B) proves f([3,5],5) and not f([3,5],4), so that goal
keeps y.
Generation's cut under recorded programs depends on the positives its
caller has consumed so far, so every generation proof is stored uncut:
each leaf keeps its program, and the storing run and every replay drop, at
yield time, a leaf whose closed program generation has recorded, before
its feasibility check.  The cut would have removed only such leaves, since
recorded programs are never forgotten, and from such a leaf generation
records nothing; so the pool and its order are the cut search's, and
every run and replay charges the uncut proof's nodes, whatever is stored.
Generation proves the next positive between two leaves of one proof, so a
storing run proves its goal whole, and stores it, before the first leaf
goes out: a later positive of the shape replays it even there.

Scoring solves each distinct constraint store under the same tables once
per induce call, be its proof run or replayed: the two base cases of a
recursive program, say, build the same chain store on every example.  The
answer and the solver work it cost are kept in a map, keyed by store
content and tables, that lives for that call; a store met again takes the
answer and adds the same counts to the budget, so the counters read as if
it had been solved again.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .fd import ADD, EQC, MUL, ConstraintStore, Labeling, _completion_exists, solve_best
from .kb import Budget, KnowledgeBase, resolve, solve
from .metarules import (
    MetaSub,
    Metarule,
    Program,
    materialize,
    metarule_library,
    program_text,
)
from .terms import (
    Atom,
    Clause,
    Int,
    Struct,
    Subst,
    Sym,
    Term,
    Var,
    fresh_name,
    is_nil,
    proper_list_items,
    rename_apart,  # this and unify_atoms are unused: perfbench/spans.py wraps them here
    rename_term,
    term_vars,
    unify,
    unify_atoms,
)

__all__ = [
    "Abducible",
    "ExampleLabeling",
    "GoalExample",
    "Induced",
    "InduceOutcome",
    "InductionSetting",
    "SearchBudget",
    "TableFacts",
    "fdv_term",
    "induce",
    "invent_symbol",
    "item_term",
    "log_prior",
    "prior",
    "prove",
    "score_example",
]


# ---------------------------------------------------------------------------
# Prior
# ---------------------------------------------------------------------------


def prior(n_clauses: int) -> float:
    """Simplicity prior over program sizes: 6 / (pi * n)^2.

    Normalized over n >= 1 (Basel series); undefined for n < 1.
    """
    if n_clauses < 1:
        raise ValueError(f"program size must be >= 1, got {n_clauses}")
    return 6.0 / (math.pi * n_clauses) ** 2


def log_prior(n_clauses: int) -> float:
    return math.log(prior(n_clauses))


def invent_symbol(base: str, taken: Iterable[str] = ()) -> str:
    """First base_i (i = 1, 2, ...) not already taken."""
    taken = set(taken)
    i = 1
    while f"{base}_{i}" in taken:
        i += 1
    return f"{base}_{i}"


# ---------------------------------------------------------------------------
# Fact oracle
# ---------------------------------------------------------------------------

_LOG_FLOOR = 1e-9  # model pair probabilities are clipped away from {0,1}


def _no_pair(a: int, b: int) -> float:
    raise KeyError((a, b))


class WeightTable(tuple):
    """Per-value log-probabilities, checked to sum to 1 in probability space."""

    __slots__ = ()

    def __new__(cls, log_weights: Iterable[float]) -> "WeightTable":
        ws = super().__new__(cls, map(float, log_weights))
        total = sum(map(math.exp, ws))
        if not abs(total - 1.0) <= 1e-9:  # a NaN total fails this too
            raise ValueError(f"weight table must sum to 1 in probability space, got {total}")
        return ws


class TableFacts:
    """The fact oracle: probabilities perception gives the abducible facts.

    Items are integer handles; what a handle denotes (an image, a row of a
    feature matrix) is the caller's business.  Two tables answer every read:

    - item tables, a log-probability for each value from value_base up;
    - pair probabilities, that the dyadic relation holds of an ordered
      pair.

    Both are filled when the oracle is built, except pairs given as a
    function, which fill on first read: one call per pair however often it
    is read.  An item table is checked to sum to 1 on its first read as a
    weight table, and only then: it is kept as the WeightTable the check
    builds, and every later read returns that.  The constructor takes
    explicit probabilities (handy in tests); exact builds the oracle from
    known labels, from_model from perception.  pair_reads counts the pair
    reads: a ground kb stores no probe of permute that read one.
    """

    def __init__(self, tables: dict, value_base: int = 0, pairs=None):
        """tables: item -> value probabilities; pairs: (a, b) -> probability,
        as a dict or a function.  A read of a pair not given raises KeyError."""
        self._items = {
            k: tuple(math.log(p) if p > 0.0 else -math.inf for p in tbl)
            for k, tbl in tables.items()
        }
        self.value_base = value_base
        self.pair_reads = 0  # pair_prob calls
        self._read = pairs if callable(pairs) else _no_pair
        self._pair_p: "dict[tuple[int, int], float]" = {} if callable(pairs) else dict(pairs or {})

    @classmethod
    def exact(cls, labels=None, n_values: int = 10, value_base: int = 0, pairs=None) -> "TableFacts":
        """Certainty: each known label, and each pair the relation
        pairs(a, b) -> bool holds of, gets probability 1; the rest 0.  The
        items with one label share one log table."""
        facts = cls({}, value_base, None if pairs is None else lambda a, b: float(bool(pairs(a, b))))
        rows = {k: tuple(0.0 if v == k else -math.inf for v in range(n_values)) for k in range(n_values)}
        none = (-math.inf,) * n_values
        facts._items = {i: rows.get(d - value_base, none) for i, d in (labels or {}).items()}
        return facts

    @classmethod
    def from_model(cls, features, model=None, value_base: int = 0, groups=None) -> "TableFacts":
        """Perception's reading of the rows of features by one model.  A
        pair model (one with predict_pairs) fills the pair probabilities,
        from one predict_pairs call over every ordered pair of rows inside
        each group (the row ids of one example; by default all rows are one
        example), clipped to [_LOG_FLOOR, 1 - _LOG_FLOOR].  Any other model
        fills the item tables, the classifier's log-probabilities from one
        forward over all rows.  A read of a part no model filled, or of a
        pair outside the groups, raises KeyError."""
        if hasattr(model, "predict_pairs"):
            ids = [range(len(features))] if groups is None else groups
            keys = [(a, b) for g in ids for a in g for b in g]
            probs = model.predict_pairs(features, keys)
            pairs = {k: min(max(float(p), _LOG_FLOOR), 1.0 - _LOG_FLOOR) for k, p in zip(keys, probs)}
            return cls({}, value_base, pairs)
        facts = cls({}, value_base)
        if model is not None and len(features):
            facts._items = dict(enumerate(map(tuple, model.log_probs(features).tolist())))
        return facts

    def item_logweights(self, item: int) -> WeightTable:
        """Log-probability table over the item's possible values; ValueError
        if it does not sum to 1."""
        w = self._items[item]
        if type(w) is not WeightTable:
            w = self._items[item] = WeightTable(w)
        return w

    def item_label(self, item: int) -> int:
        """The item's most probable value, the first on a tie."""
        w = self._items[item]
        return w.index(max(w)) + self.value_base

    def pair_prob(self, a: int, b: int) -> float:
        """Probability that the dyadic relation holds of (a, b)."""
        self.pair_reads += 1
        p = self._pair_p.get((a, b))
        if p is None:
            p = self._pair_p[a, b] = self._read(a, b)
        return p

    def pair_logprob(self, a: int, b: int) -> float:
        p = self.pair_prob(a, b)
        return math.log(p) if p > 0.0 else -math.inf


# ---------------------------------------------------------------------------
# Item handles inside terms
# ---------------------------------------------------------------------------

ITEM_F = "item"
FDV_F = "fdv"
_SLOT = Sym("$param")  # a parameter's slot in a stored proof's goal; no name the parser reads


def item_term(i: int) -> Struct:
    """Opaque handle for the i-th perceived item."""
    return Struct(ITEM_F, (Int(i),))


def fdv_term(vid: int) -> Struct:
    """Reference to a finite-domain variable inside a term."""
    return Struct(FDV_F, (Int(vid),))


def _item_id(t: Term, functor: str = ITEM_F) -> Optional[int]:
    """i of an item(i) handle, or, given its functor, of an fdv(i)
    reference."""
    if isinstance(t, Struct) and t.functor == functor and len(t.args) == 1:
        a = t.args[0]
        if isinstance(a, Int):
            return a.value
    return None


# ---------------------------------------------------------------------------
# Settings and budgets
# ---------------------------------------------------------------------------

ABD_FACT = "fact"  # the other kinds are fd's constraint kinds ADD, MUL and EQC
_OPS = {ADD: operator.add, MUL: operator.mul}


@dataclass(frozen=True, slots=True)
class Abducible:
    """One abducible predicate and both of its readings: assumed while
    learning (_abduce), and ground(), the builtin a learned program runs on
    perception's output.  Neither reading walks the list tail T.

    kind ADD/MUL: name(In, Out), In = [X,Y|T].  Assumed, it posts X op Y = N
    over the store and binds Out = [N|T]; ground, X and Y are Ints and
    Out = [X op Y|T].
    kind EQC: name(In, C), In = [X].  Assumed, C is a ground integer and X
    is pinned to it; ground, C is unified with X.  These three carry no
    probability of their own.
    kind ABD_FACT: name(In), In = [X,Y|_].  Assumed, the dyadic relation of
    the first two items, weighted by the fact oracle; ground, it holds when
    the oracle gives the pair probability 0.5 or more.
    """

    name: str
    kind: str

    @property
    def arity(self) -> int:
        return 1 if self.kind == ABD_FACT else 2

    def ground(self, facts: Optional[TableFacts] = None, lazy: bool = False):
        """kb builtin of the ground reading; the fact kind reads facts.

        With lazy, the reading kb's permute probe runs (KnowledgeBase.
        add_builtin): where an unbound variable stands in a cell it reads,
        it yields that variable to wait on, where the ground reading fails
        or, on an item of the fact kind, raises SettingError.  On a pair it
        cannot read (a non-item, or a pair facts was not given), the fact
        kind waits on a variable nothing binds: the probe's leaf stays
        alive but cannot answer, and a ranking's run raises as the ground
        reading does.  The fact kind takes its cells as _cells walked them:
        an unbound first cell, or an unbound second after a ground first,
        is the variable it waits on, and a ground cell is read as it
        stands."""
        if self.kind == ABD_FACT:
            def holds(args, s):
                read, rest = _cells(args[0], s, 2)
                if len(read) < 2:
                    if lazy and rest.__class__ is Var:
                        yield rest
                    return
                x, y = read
                x_ground = x.__class__ is Struct and x.ground
                if lazy and (x.__class__ is Var or x_ground and y.__class__ is Var):
                    yield x if x.__class__ is Var else y  # the pair's first variable
                    return
                if not x_ground:
                    x = s.apply(x)
                if y.__class__ is not Struct or not y.ground:
                    y = s.apply(y)
                i, j = _item_id(x), _item_id(y)
                # a probe leaf may pair terms that no ranking pairs: where the
                # ground reading raises, the lazy one waits, and a ranking's run decides
                if i is None or j is None:
                    unbound = lazy and (term_vars(x) or term_vars(y))
                    if unbound:
                        yield Var(unbound[0])
                    elif lazy:
                        yield Var(fresh_name())
                    else:
                        raise SettingError(f"{self.name} reached a non-item term")
                    return
                try:
                    p = facts.pair_prob(i, j)
                except KeyError:  # a pair facts was not given
                    if not lazy:
                        raise
                    yield Var(fresh_name())
                    return
                if p >= 0.5:
                    yield s

            return holds
        if self.kind == EQC:
            def eq(args, s):
                read, rest = _cells(args[0], s, 1)
                if read and is_nil(rest):
                    s2 = unify(args[1], read[0], s)
                    if s2 is not None:
                        yield s2
                elif lazy and rest.__class__ is Var:
                    yield rest

            return eq
        op = _OPS[self.kind]

        def arith(args, s):
            read, rest = _cells(args[0], s, 2)
            if len(read) < 2:
                if lazy and rest.__class__ is Var:
                    yield rest
                return
            x, y = read
            if x.__class__ is Int and y.__class__ is Int:
                s2 = unify(args[1], Struct(".", (Int(op(x.value, y.value)), rest)), s)
                if s2 is not None:
                    yield s2
            elif lazy and (x.__class__ is Var or y.__class__ is Var):
                yield x if x.__class__ is Var else y

        return arith


class SettingError(ValueError):
    pass


@dataclass
class InductionSetting:
    """Everything the meta-interpreter may draw on for one task."""

    kb: KnowledgeBase
    metarules: "list[Metarule]"
    abducibles: "dict[tuple[str, int], Abducible]"
    target: "tuple[str, int]"
    body_pool: "list[tuple[str, int]]"
    max_invented: int = 1
    library: dict = field(init=False)
    _choices: dict = field(init=False, repr=False)
    _productive: dict = field(init=False, repr=False)
    _parameters: dict = field(init=False, repr=False)
    _proofs: dict = field(init=False, repr=False)
    _signatures: dict = field(init=False, repr=False)
    _texts: dict = field(init=False, repr=False)
    _typed: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.library = metarule_library(self.metarules)
        self._texts = {}
        self._choices = {}
        self._productive = {}
        self._parameters = {}
        self._signatures = _signatures(self.kb, self.abducibles)
        self._typed = {}
        self._proofs = {}  # weight-free proofs by goal shape (see the module docstring)
        kb_names = {n for n, _ in self.kb.predicates()}
        for (name, arity), spec in self.abducibles.items():
            if spec.name != name or spec.arity != arity:
                raise SettingError(f"abducible table key mismatch for {name}/{arity}")
            if name in kb_names:
                raise SettingError(f"abducible {name} collides with a deductive predicate")
        abd_names = {n for n, _ in self.abducibles}
        if self.target[0] in kb_names or self.target[0] in abd_names:
            raise SettingError(f"target {self.target[0]} collides with an existing predicate")
        for key in self.body_pool:
            if not (self.kb.defines(key) or key in self.abducibles or key == self.target):
                raise SettingError(f"body pool entry {key[0]}/{key[1]} is undefined")

    def clause_of(self, ms: MetaSub) -> Clause:
        """ms's clause under this setting's library (materialize's memo)."""
        return materialize(ms, self.library)

    def text_of(self, prog: Program) -> str:
        """prog's program_text, printed once per setting."""
        text = self._texts.get(prog)
        if text is None:
            text = self._texts[prog] = program_text(prog, self.library)
        return text

    def productive(self, prog: Program) -> "set[tuple[str, int]]":
        """_productive of prog, computed once per setting."""
        done = self._productive.get(prog)
        if done is None:
            done = self._productive[prog] = _productive(prog, self)
        return done

    def parameters(self, prog: Program) -> "frozenset[tuple[str, int, int]]":
        """_parameters of prog, computed once per setting."""
        done = self._parameters.get(prog)
        if done is None:
            done = self._parameters[prog] = _parameters(prog, self)
        return done

    def well_typed(self, ms: MetaSub, types: tuple) -> bool:
        """_well_typed of ms's clause against a call of the given types,
        decided once per setting."""
        key = (ms, types)
        ok = self._typed.get(key)
        if ok is None:
            ok = self._typed[key] = _well_typed(self.clause_of(ms), types, self._signatures)
        return ok

    def taken_names(self) -> "set[str]":
        names = {n for n, _ in self.kb.predicates()}
        names.update(n for n, _ in self.abducibles)
        names.add(self.target[0])
        names.update(n for n, _ in self.body_pool)
        return names


@dataclass
class SearchBudget:
    """Limits of one search; kb.solve derives the depth bound from the goals.

    max_nodes and wall_ms bind each runtime Budget made from this one: an
    induce call's own (its candidate generation, and the start of each
    candidate's scoring) and, apart, the scoring of each example.  wall_ms
    is a deadline, in milliseconds from that Budget's making, that kb reads
    every 256 nodes: a search stops at the first tick that reads it passed,
    so within 256 nodes of it.  The solver's branch-and-bound and the
    blocking search of a negative read it at every node.  Every cut is
    recorded on the runtime Budget (exhausted, depth_hits), none on a
    result.
    """

    max_clauses: int = 3
    max_nodes: Optional[int] = None
    wall_ms: Optional[float] = None
    pruning: bool = True  # induce stops scoring a candidate once its partial score cannot win

    def runtime(self) -> Budget:
        return Budget(self.max_nodes, self.wall_ms)


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class GoalExample:
    goal: Atom
    positive: bool = True


@dataclass(frozen=True, slots=True)
class ExampleLabeling:
    """Pseudo-labels of one example under a fixed program, and their joint
    log-probability: what prove yields per proof, and score_example per
    example.

    item_labels are (item, value) pairs in item order.  pair_facts are
    ((i, j), truth) pairs, each the dyadic fact of the item pair (i, j):
    a proof's assumed pairs in path order, each True, or a negative's
    blocking assignment in pair order.
    """

    log_prob: float
    item_labels: "tuple[tuple[int, int], ...]" = ()
    pair_facts: "tuple[tuple[tuple[int, int], bool], ...]" = ()


@dataclass(frozen=True, slots=True)
class Induced:
    """Winning program of an induce call."""

    program: Program
    labelings: "tuple[ExampleLabeling, ...]"
    log_score: float


@dataclass(frozen=True, slots=True)
class InduceOutcome:
    """Result of an induce call.

    failure says why induced is None, by the first reason that holds:
    "budget_exhausted" (the search ran out of nodes or time), "depth_cut"
    (the depth bound cut some branch, so a program may lie beyond it; a
    branch through a clause that would close an unproductive program or
    through a new clause that does not type-check against its call is not
    searched, so a cut it would have met is not counted: it could hold no
    new program; a cut under a program generation has recorded counts),
    "unscorable" (a candidate proves every positive, weights aside, yet none
    scored above -inf on every example) or "no_candidate" (no program proves
    every positive example).  It is None when a program was found.
    candidates_tried counts the candidates scoring began on.
    """

    induced: Optional[Induced]
    budget_exhausted: bool = False
    candidates_tried: int = 0
    failure: Optional[str] = None


# ---------------------------------------------------------------------------
# Proof state
# ---------------------------------------------------------------------------


class _AbdState:
    """Constraint store, the item -> store-variable map and the pins, store
    vars that wait for the parameter's value, copy-on-write."""

    __slots__ = ("store", "item_vars", "pins")

    def __init__(self, store: Optional[ConstraintStore] = None, item_vars: Optional[dict] = None, pins: tuple = ()):
        self.store = store
        self.item_vars = item_vars if item_vars is not None else {}
        self.pins = pins  # the store var of each eq on the slot

    def cloned(self) -> "_AbdState":
        return _AbdState(
            self.store.clone() if self.store is not None else ConstraintStore(),
            dict(self.item_vars),
            self.pins,
        )


@dataclass(slots=True)
class _Ctx:
    setting: InductionSetting
    facts: TableFacts
    budget: SearchBudget
    allow_new: bool

    def closed(self, prog: Program) -> bool:
        """prog can gain no clause in this search."""
        return not (self.allow_new and prog.size < self.budget.max_clauses)

    def choices(
        self, prog: Program, pred: str, arity: int, types: Optional[tuple] = None
    ) -> "list[tuple[Clause, Program]]":
        """(clause, program with it) for each clause _clause_choices offers a
        goal on pred/arity of the given call types under prog, listed once
        per setting."""
        key = (prog, pred, arity, self.allow_new, self.budget.max_clauses, types)
        out = self.setting._choices.get(key)
        if out is None:
            clause_of = self.setting.clause_of
            out = [(clause_of(ms), prog2) for ms, prog2 in _clause_choices(pred, arity, prog, self, types)]
            self.setting._choices[key] = out
        return out

    def hook(self, g: Atom, anc: tuple, s: Subst, state):
        """kb.solve hook for goals the kb does not define.  state is (program,
        abduction state, abduced item pairs in path order); the scope anc
        holds the (predicate, first-argument size) of each inducible call
        above g, which is read here with s applied."""
        g = s.apply_atom(g)
        spec = self.setting.abducibles.get(g.key())
        if spec is not None:
            return _abduce(spec, g, s, state, self)
        if g.pred == self.setting.target[0] or any(g.pred == n for n, _ in state[0].invented):
            return _inducible(g, anc, s, state, self)
        return ()  # unknown predicate: finite failure


def _arg1_size(g: Atom) -> Optional[int]:
    if not g.args:
        return None
    items = proper_list_items(g.args[0])
    return None if items is None else len(items)


def _descends(anc: tuple, pred: str, size: Optional[int]) -> bool:
    # Self-recursion must strictly shrink the first list argument.
    for p, sz in reversed(anc):
        if p == pred:
            return size is not None and sz is not None and size < sz
    return True


def _var_for(t: Term, ab: _AbdState, facts) -> Optional[int]:
    """Store variable for an item handle, integer literal, or fd reference."""
    iid = _item_id(t)
    if iid is not None:
        vid = ab.item_vars.get(iid)
        if vid is None:
            vid = ab.store.new_weighted_var(len(facts.item_logweights(iid)), facts.value_base)
            ab.item_vars[iid] = vid
        return vid
    if isinstance(t, Int):
        return ab.store.new_derived_var(t.value, t.value)
    return _item_id(t, FDV_F)


def _cells(t: Term, s: Subst, k: int) -> "tuple[list[Term], Term]":
    """Up to k leading items of list t, each walked under s, and what
    follows them, walked: a reading walks only the cells it reads."""
    read: "list[Term]" = []
    t = s.walk(t)
    while t.__class__ is Struct and t.functor == "." and len(t.args) == 2:
        x, t = t.args
        if x.__class__ is Var:
            x = s.walk(x)
        if t.__class__ is Var:
            t = s.walk(t)
        read.append(x)
        if len(read) == k:
            break
    return read, t


def _abduce(spec: Abducible, g: Atom, s: Subst, state, ctx: _Ctx):
    """The one way to assume g, as a kb.solve alternative with an empty body."""
    prog, ab, abduced = state
    if spec.kind == ABD_FACT:
        read, _ = _cells(g.args[0], s, 2)
        if len(read) < 2:
            return
        pair = (_item_id(read[0]), _item_id(read[1]))
        if None in pair:
            return
        if pair in abduced:
            # Already assumed in this proof; consume it again for free.
            yield (), None, s, state
            return
        if ctx.facts.pair_logprob(*pair) == -math.inf:
            return
        yield (), None, s, (prog, ab, abduced + (pair,))
        return

    term_in, term_out = g.args
    if spec.kind == EQC:
        read, rest = _cells(term_in, s, 1)
        slotted = term_out == _SLOT
        if not (read and is_nil(rest)) or not (slotted or isinstance(term_out, Int)):
            return
        ab2 = ab.cloned()
        vx = _var_for(read[0], ab2, ctx.facts)
        if vx is None:
            return
        if slotted:
            ab2.pins += (vx,)  # _shared_leaves posts it, per value
        elif not ab2.store.post_eq_const(vx, term_out.value):
            return
        yield (), None, s, (prog, ab2, abduced)
        return

    read, t2 = _cells(term_in, s, 2)
    if len(read) < 2:
        return
    if not isinstance(term_out, Var) and not (
        isinstance(term_out, Struct) and term_out.functor == "." and len(term_out.args) == 2
    ):
        # Out (an Int, say, where a clause pins the output) can never be
        # [N|T], so the unify at the end would fail: fail before the store
        # is cloned and the constraint posted.
        return
    ab2 = ab.cloned()
    vx = _var_for(read[0], ab2, ctx.facts)
    vy = _var_for(read[1], ab2, ctx.facts)
    if vx is None or vy is None:
        return
    dx, dy = ab2.store.dom(vx), ab2.store.dom(vy)
    if spec.kind == ADD:
        lo, hi = dx.lo + dy.lo, dx.hi + dy.hi
    else:
        corners = (dx.lo * dy.lo, dx.lo * dy.hi, dx.hi * dy.lo, dx.hi * dy.hi)
        lo, hi = min(corners), max(corners)
    vz = ab2.store.new_derived_var(lo, hi)
    if not ab2.store.post(spec.kind, vx, vy, vz):
        return
    s2 = unify(term_out, Struct(".", (fdv_term(vz), t2)), s)
    if s2 is None:
        return
    yield (), None, s2, (prog, ab2, abduced)


def _productive(prog: Program, setting: InductionSetting) -> "set[tuple[str, int]]":
    """Keys of the inducible predicates that prog's own clauses can prove
    anything of: the least fixpoint of "has a clause whose inducible body
    predicates are all productive", background predicates and abducibles
    counting as productive (useless symbols, Hopcroft & Ullman)."""
    inducible = {setting.target[0], *(n for n, _ in prog.invented)}
    clauses = [setting.clause_of(ms) for ms in prog.metasubs]
    done: set = set()
    while True:
        new = {c.head.key() for c in clauses if c.head.key() not in done and _body_in(c, inducible, done)}
        if not new:
            return done
        done |= new


def _body_in(c: Clause, inducible: set, productive: set) -> bool:
    """Every body predicate of c named in inducible has its key in productive."""
    return all(b.pred not in inducible or b.key() in productive for b in c.body)


def _parameters(prog: Program, setting: InductionSetting) -> "frozenset[tuple[str, int, int]]":
    """(name, arity, position) of each parameter position of prog's
    inducible predicates (see the module docstring): _closure over prog's
    clauses and every clause generation may add to it; none unless the
    background clauses hold only variables, symbols and lists and call no
    builtin, and the body pool names no builtin."""
    kb = setting.kb
    if any(key in kb.builtins for key in setting.body_pool) or not all(
        _lists_only(c, kb) for cs in kb.clauses.values() for c in cs
    ):
        return frozenset()
    heads = [setting.target, *prog.invented]
    if setting.max_invented:  # a predicate generation may still invent, one name per arity
        heads += [(_NEW, a) for a in sorted({b.arity for mr in setting.metarules for b in mr.body})]
    clauses = [setting.clause_of(ms) for ms in prog.metasubs]
    for mr in setting.metarules:
        for name, arity in heads:
            if mr.head.arity == arity:
                clauses += [setting.clause_of(ms) for ms in _buildable(mr, name, heads, setting)]
    return frozenset(p for p in _closure(clauses, heads, setting) if p[0] != _NEW)


_NEW = "$new"  # a predicate not yet invented; no name the parser reads


def _buildable(mr: Metarule, name: str, heads: list, setting: InductionSetting) -> "list[MetaSub]":
    """The instances of mr, with head predicate name, that differ in what
    _hands_on reads: one per predicate generation may put in the last body
    atom, a body pool entry or an inducible predicate of heads of its
    arity; every other body predicate is its existential's own name."""
    head = mr.head.pred_var
    last = mr.body[-1].pred_var if mr.body else head
    if last == head:
        options = [name]
    else:
        options = list(dict.fromkeys(n for n, a in (*setting.body_pool, *heads) if a == mr.body[-1].arity))
    return [
        MetaSub(mr.name, tuple([(e, name if e == head else r if e == last else e) for e in mr.existentials]))
        for r in options
    ]


def _closure(clauses: "list[Clause]", heads, setting: InductionSetting) -> "frozenset[tuple[str, int, int]]":
    """The largest set of (name, arity, position) of the predicates heads
    such that every clause in clauses for the predicate hands the position
    on, by _hands_on, to a position in the set or as _takes allows.  It
    starts from every position and drops, until none drops, each that some
    clause does not hand on (the least fixpoint of that drop)."""
    out = {(n, a, i) for n, a in heads for i in range(a)}
    while True:
        bad = {p for p in out if not all(_hands_on(c, p[2], out, setting) for c in clauses if c.head.key() == p[:2])}
        if not bad:
            return frozenset(out)
        out -= bad


def _takes(key: "tuple[str, int]", q: int, params, setting: InductionSetting) -> bool:
    """Whether a last goal on predicate key proves alike with y or its
    slot at position q: an abducible (eq's output is a pin, any other
    position fails at once on a term that is no list), a background
    predicate of facts only, or another at a position in params."""
    if key in setting.abducibles:
        return True
    clauses = setting.kb.clauses.get(key)
    if clauses is not None:
        return not any(c.body for c in clauses)
    return (*key, q) in params


def _hands_on(c: Clause, i: int, params: set, setting: InductionSetting) -> bool:
    """Whether c's head holds a variable at position i that occurs once in
    the head and once in the body, as an argument of the last body atom
    that takes it there, by _takes."""
    v = c.head.args[i]
    if v.__class__ is not Var or not c.body or _occurrences(v, c.head.args) != 1:
        return False
    if sum([_occurrences(v, b.args) for b in c.body]) != 1:
        return False
    last = c.body[-1]
    if v not in last.args:
        return False
    return _takes(last.key(), last.args.index(v), params, setting)


def _occurrences(v: Var, terms: "Iterable[Term]") -> int:
    """How often variable v occurs in terms."""
    n, todo = 0, list(terms)
    while todo:
        t = todo.pop()
        if t == v:
            n += 1
        elif t.__class__ is Struct:
            todo.extend(t.args)
    return n


def _lists_only(c: Clause, kb: KnowledgeBase) -> bool:
    """Whether background clause c holds nothing but variables, symbols,
    [] and list cells, and calls no builtin."""
    if any(b.key() in kb.builtins for b in c.body):
        return False
    todo = [*c.head.args, *(t for b in c.body for t in b.args)]
    while todo:
        t = todo.pop()
        if t.__class__ is Struct:
            if not (t.functor == "." and len(t.args) == 2 or is_nil(t)):
                return False
            todo.extend(t.args)
        elif t.__class__ is not Var and t.__class__ is not Sym:
            return False
    return True


def _inducible(g: Atom, anc: tuple, s: Subst, state, ctx: _Ctx):
    """g resolved by kb.resolve on a metarule clause of the program, recorded
    or new; only a program that can gain a clause reads g's types."""
    prog = state[0]
    if ctx.closed(prog):
        size, types = _arg1_size(g), None
    else:
        size, types = _call_types(g)
    if not _descends(anc, g.pred, size):
        return
    anc2 = anc + ((g.pred, size),) if size is not None else anc
    for clause, prog2 in ctx.choices(prog, g.pred, len(g.args), types):
        step = resolve(g, clause, s)
        if step is not None:
            yield step[0], anc2, step[1], (prog2, *state[1:])


def _clause_choices(pred: str, arity: int, prog: Program, ctx: _Ctx, types: Optional[tuple] = None):
    """(metasub, program with it) for each clause that may resolve a goal on
    pred/arity, but for a clause that leaves a closed program unable to
    prove one of its inducible body predicates, and, given the call's
    types, a new clause that does not type-check against them: no proof
    runs through either."""
    setting = ctx.setting

    def live(ms: MetaSub, prog2: Program) -> bool:
        if not ctx.closed(prog2):
            return True
        inducible = {setting.target[0], *(n for n, _ in prog2.invented)}
        return _body_in(setting.clause_of(ms), inducible, setting.productive(prog2))

    # Recorded instantiations first.
    for ms in prog.metasubs:
        mr = setting.library[ms.rule]
        if ms.symbol(mr.head.pred_var) == pred and mr.head.arity == arity and live(ms, prog):
            yield ms, prog

    # Then new ones, within the clause budget.
    if ctx.closed(prog):
        return
    for mr in setting.metarules:
        if mr.head.arity != arity:
            continue
        for ms, prog2 in _new_metasubs(mr, pred, prog, ctx):
            if ms in prog.metasubs:
                continue  # identical clause already recorded; reuse covered it
            if types is not None and not setting.well_typed(ms, types):
                continue
            prog2 = prog2.extend(ms)
            if live(ms, prog2):
                yield ms, prog2


_FRESH = object()


def _new_metasubs(mr: Metarule, head_pred: str, prog: Program, ctx: _Ctx):
    """All bindings of mr's body slots, fresh inventions last."""
    setting = ctx.setting
    head_ev = mr.head.pred_var
    slots = []
    for ev in mr.existentials:
        if ev == head_ev:
            continue
        a = mr.body_slot_arity(ev)
        if a is None:
            return  # existential never used in the body: nothing to bind it by
        slots.append((ev, a))

    def candidates(arity: int, prog2: Program):
        cands = [n for n, ar in setting.body_pool if ar == arity]
        if setting.target[1] == arity and setting.target[0] not in cands:
            cands.append(setting.target[0])
        for n, ar in prog2.invented:
            if ar == arity and n not in cands:
                cands.append(n)
        if (
            len(prog2.invented) < setting.max_invented
            and prog2.size + 2 <= ctx.budget.max_clauses
        ):
            cands.append(_FRESH)
        return cands

    def rec(i: int, bound: dict, prog2: Program):
        if i == len(slots):
            bindings = tuple(
                (ev, head_pred if ev == head_ev else bound[ev]) for ev in mr.existentials
            )
            yield MetaSub(mr.name, bindings), prog2
            return
        ev, arity = slots[i]
        for cand in candidates(arity, prog2):
            if cand is _FRESH:
                taken = setting.taken_names() | {n for n, _ in prog2.invented}
                taken.update(bound.values())
                name = invent_symbol(setting.target[0], taken)
                yield from rec(i + 1, {**bound, ev: name}, prog2.with_invented(name, arity))
            else:
                yield from rec(i + 1, {**bound, ev: cand}, prog2)

    yield from rec(0, {}, prog)


# ---------------------------------------------------------------------------
# Types of clause variables (see the module docstring)
# ---------------------------------------------------------------------------

_INT, _ITEM = Sym("int"), Sym("item")  # type terms; list(T) is Struct("list", (T,))


def _list_of(t: Term) -> Struct:
    return Struct("list", (t,))


_ANY_LIST = _list_of(Var("#T"))
_KIND_TYPES = {
    ADD: (_ANY_LIST, _ANY_LIST),
    MUL: (_ANY_LIST, _ANY_LIST),
    EQC: (_ANY_LIST, _INT),
    ABD_FACT: (_ANY_LIST,),
}
_MIXED = "mixed"  # what _meet gives two types that clash


def _meet(a, b):
    """The common instance of call types a and b, _MIXED if they clash.  A
    call type is "int", "item", ("list", item type) or None, a wildcard."""
    if a is None or a == b:
        return b
    if b is None:
        return a
    if a.__class__ is tuple and b.__class__ is tuple:
        e = _meet(a[1], b[1])
        return _MIXED if e is _MIXED else ("list", e)
    return _MIXED


def _call_type(t: Term):
    """(type, length) of term t at the call: "int" for an Int or the
    parameter's slot, which stands for one, "item" for an item(i)
    handle, ("list", T) for a proper list whose items' types meet in T,
    else None; length counts a proper list's items, and is None for any
    other term."""
    cls = t.__class__
    if cls is Int or cls is Sym and t == _SLOT:
        return "int", None
    if cls is not Struct:
        return None, None
    if t.functor == "." and len(t.args) == 2:
        n, elem = 0, None
        while t.__class__ is Struct and t.functor == "." and len(t.args) == 2:
            if elem is not _MIXED:
                elem = _meet(elem, _call_type(t.args[0])[0])
            n += 1
            t = t.args[1]
        if not is_nil(t):
            return None, None
        return (None if elem is _MIXED else ("list", elem)), n
    if is_nil(t):
        return ("list", None), 0
    return ("item" if _item_id(t) is not None else None), None


def _call_types(g: Atom) -> "tuple[Optional[int], tuple]":
    """_arg1_size of g and the call type of each of its arguments, from
    one walk of each."""
    typed = [_call_type(t) for t in g.args]
    return (typed[0][1] if typed else None), tuple([ty for ty, _ in typed])


def _type_term(ty, wildcard: str) -> Term:
    """The type term of call type ty, its wildcard a variable so named."""
    if ty is None:
        return Var(wildcard)
    if ty.__class__ is tuple:
        return _list_of(_type_term(ty[1], wildcard))
    return _INT if ty == "int" else _ITEM


def _head_types(head: Atom) -> "Optional[tuple[Term, ...]]":
    """The types of head's arguments, or None if its lists clash: [H|T] is
    list(X) with H : X and T : list(X), [] is list(X), an Int is int, a
    variable V the type variable #V, and any other term a wildcard."""
    eqs = []
    fresh = itertools.count()

    def ty(t: Term) -> Term:
        if t.__class__ is Var:
            return Var("#" + t.name)
        if t.__class__ is Int:
            return _INT
        if t.__class__ is Struct and t.functor == "." and len(t.args) == 2:
            out = _list_of(ty(t.args[0]))
            eqs.append((ty(t.args[1]), out))
            return out
        wild = Var(f"#{next(fresh)}")
        return _list_of(wild) if is_nil(t) else wild

    types = [ty(t) for t in head.args]
    s = _unify_pairs(eqs)
    return None if s is None else tuple([s.apply(t) for t in types])


def _signatures(kb: KnowledgeBase, abducibles: dict) -> dict:
    """(name, arity) -> argument types, for each background predicate of
    one clause, read off its head, and each abducible, by its kind.  Every
    other predicate (a builtin, one of several clauses, an inducible one)
    is untyped."""
    out = {}
    for key, clauses in kb.clauses.items():
        if len(clauses) == 1:
            sig = _head_types(clauses[0].head)
            if sig is not None:
                out[key] = sig
    for key, spec in abducibles.items():
        out[key] = _KIND_TYPES[spec.kind]
    return out


def _well_typed(clause: Clause, types: tuple, signatures: dict) -> bool:
    """Whether clause's variables can take types that agree with a call of
    these argument types and with an instance, renamed apart, of the
    signature of each typed body predicate."""
    eqs = [(t, _type_term(ty, f"?{i}")) for i, (t, ty) in enumerate(zip(clause.head.args, types)) if ty is not None]
    for i, b in enumerate(clause.body):
        sig = signatures.get(b.key())
        if sig is not None:
            for t, ty in zip(b.args, sig):
                eqs.append((t, rename_term(ty, {v: f"{v}.{i}" for v in term_vars(ty)})))
    return _unify_pairs(eqs) is not None


def _unify_pairs(pairs) -> Optional[Subst]:
    """The most general unifier of every (a, b) in pairs, or None."""
    s = Subst()
    for a, b in pairs:
        s = unify(a, b, s)
        if s is None:
            return None
    return s


# ---------------------------------------------------------------------------
# prove
# ---------------------------------------------------------------------------


def prove(
    goals: Union[Atom, Sequence[Atom]],
    program: Program,
    setting: InductionSetting,
    facts,
    budget: Optional[SearchBudget] = None,
    *,
    runtime: Optional[Budget] = None,
    allow_new_clauses: bool = True,
    feasibility_only: bool = False,
    solved: Optional[dict] = None,
    found: Optional[dict] = None,
) -> Iterator["tuple[Program, ExampleLabeling]"]:
    """Stream of abductive proofs of the goals, best-effort order: for each,
    the program it ran under (with the clauses it added) and its labeling.

    Every emitted proof is complete: its constraint store (if any) has been
    solved to the most probable feasible assignment, which item_labels
    holds, pair_facts holds the item pairs it assumed, in path order, each
    True, and log_prob is the sum of the log probabilities of every assumed
    pair plus that assignment.  If the search or the solver stopped early,
    runtime records it (exhausted, depth_hits): a proof is exact while
    runtime.ok() holds after it.
    The stream does not depend on how it is consumed: nothing is pruned by
    score, so a caller after the best proof takes the maximum itself.
    With feasibility_only the solver is replaced by a cheap satisfiability
    check, item_labels is empty and log_prob covers the pairs alone.  A
    clause that would leave a closed program unable to prove an inducible
    predicate of its body is never tried (see the module docstring); that
    prune holds no proof, so it always applies.

    solved, induce's per-call map from store content and tables to
    solve_best's uncut answer and its solver_nodes and solver_leaves,
    gives the answer of a store solved before under the same tables and
    adds those counts to runtime.
    found, generation's map of the programs it has recorded by key, drops
    every leaf whose closed program is already in it, unchecked, as the
    leaf is yielded.  Every proof is the setting's stored proof of the
    goals' shape when it has one, a single goal's parameter (y of a sum or
    product goal, by the one rule of the module docstring) pinned to the
    goal's y, and is stored when it is run; one walk of the goals finds
    its key, and run or replayed, each leaf reaches the solver through the
    same translation.  With allow_new_clauses the key holds the clause
    budget and the proof is stored uncut.
    """
    if isinstance(goals, Atom):
        goals = [goals]
    budget = budget or SearchBudget()
    runtime = runtime if runtime is not None else budget.runtime()
    ctx = _Ctx(setting, facts, budget, allow_new_clauses)
    leaves = _shared_leaves(goals, program, ctx, runtime)
    yield from _results(leaves, ctx, runtime, feasibility_only, solved, found)


def _leaves(goals: "Sequence[Atom]", program: Program, ctx: _Ctx, runtime: Budget) -> Iterator[tuple]:
    """The SLD successes of the goals: each leaf's state (program,
    abduction state, abduced item pairs in path order), in proof order."""
    start = (program, _AbdState(), ())
    for _, state in solve([(g, ()) for g in goals], ctx.setting.kb, runtime, start, ctx.hook):
        yield state


def _results(
    leaves: Iterable[tuple],
    ctx: _Ctx,
    runtime: Budget,
    feasibility_only: bool,
    solved: Optional[dict],
    found: Optional[dict] = None,
) -> Iterator["tuple[Program, ExampleLabeling]"]:
    """prove's proofs from _emitted's leaves: each leaf's store solved, or
    only checked for a solution with feasibility_only; a leaf with no
    solution is dropped, and so, unchecked, is a leaf whose closed program
    is in found."""
    for prog, store, item_vars, total, abduced in leaves:
        if found is not None and ctx.closed(prog) and prog.key() in found:
            continue  # generation has recorded prog and would only record it again
        items = ()
        if store is not None and store.vars:
            if feasibility_only:
                if not _completion_exists(store, runtime):
                    continue
            else:
                tables = {vid: ctx.facts.item_logweights(iid) for iid, vid in item_vars.items()}
                labeling = _solve_once(store, tables, runtime, solved)
                if labeling is None:
                    continue
                total += labeling.log_prob
                values = labeling.assignment
                items = tuple(sorted([(iid, values[vid]) for iid, vid in item_vars.items() if vid in values]))
        yield prog, ExampleLabeling(total, items, tuple([(pair, True) for pair in abduced]))


def _solve_once(store: ConstraintStore, tables: dict, runtime: Budget, solved: Optional[dict]) -> Optional[Labeling]:
    """solve_best(store, tables, runtime), solving each store content
    under the same tables, in var-id order, once in solved.

    An answer is kept only while runtime.ok() still holds after the solve:
    solve_best reads the budget only to stop early, so such an answer, and
    the work it cost, is the same on any budget that has not run out.  A
    budget that has run out takes solve_best's own path.
    """
    if solved is None or not runtime.ok():
        return solve_best(store, tables, runtime)
    key = (store.content(), tuple([tables[vid] for vid in sorted(tables)]))
    hit = solved.get(key)
    if hit is not None:
        labeling, nodes, leaves = hit
        runtime.solver_nodes += nodes
        runtime.solver_leaves += leaves
        return labeling
    nodes, leaves = runtime.solver_nodes, runtime.solver_leaves
    labeling = solve_best(store, tables, runtime)
    if runtime.ok():
        solved[key] = (labeling, runtime.solver_nodes - nodes, runtime.solver_leaves - leaves)
    return labeling


# ---------------------------------------------------------------------------
# Weight-free proofs, one per goal shape
# ---------------------------------------------------------------------------


def _proof_key(
    goals: "Sequence[Atom]", program: Program, setting: InductionSetting, facts, budget: Optional[int] = None
) -> "tuple[tuple, list[int], Optional[int], Sequence[Atom]]":
    """From one preorder walk of the goals: their stored proof's key under
    program, their item ids by position, the parameter's value y (None
    without one) and the goals to prove, y in its slot.  The key is one
    flat tuple: program, value_base, generation's clause budget (None for
    a closed-program proof), the goals in preorder (a predicate or functor,
    its arity, its arguments) with each item(i) handle as the position of
    i's first occurrence and the slot in y's place, and each item's table
    length, None if it has none.  setting.parameters is read only for a
    single goal with one Int outside item handles (see the module
    docstring)."""
    ids: dict = {}
    ints = []  # where each Int outside item handles sits in the key
    out = [program, facts.value_base, budget]
    for g in goals:
        out += (g.pred, len(g.args))
        todo = list(reversed(g.args))
        while todo:
            t = todo.pop()
            if t.__class__ is Struct:
                iid = _item_id(t)
                if iid is None:
                    out += (t.functor, len(t.args))
                    todo.extend(reversed(t.args))
                else:
                    out.append(ids.setdefault(iid, len(ids)))
            else:
                if t.__class__ is Int:
                    ints.append(len(out))
                out.append(t)
    y = None
    if len(ints) == 1 and len(goals) == 1:
        g = goals[0]
        for i, t in enumerate(g.args):
            if t.__class__ is Int:  # the goal's one Int
                if (g.pred, len(g.args), i) in setting.parameters(program):
                    y, out[ints[0]] = t.value, _SLOT
                    goals = [Atom(g.pred, (*g.args[:i], _SLOT, *g.args[i + 1 :]))]
                break
    tables = facts._items
    out += [len(tables[i]) if i in tables else None for i in ids]
    return tuple(out), list(ids), y, goals


class _Reads:
    """A fact oracle that hands out facts' item tables and pair
    log-probabilities and logs, by goal position, each item it was asked
    for and each pair with its log-probability (-inf at probability 0)."""

    __slots__ = ("facts", "value_base", "pos", "log")

    def __init__(self, facts: TableFacts, pos: dict):
        self.facts = facts
        self.value_base = facts.value_base
        self.pos = pos  # item -> its goal position
        self.log: dict = {}  # item position -> None, pair of them -> its log-probability, in first-read order

    def item_logweights(self, item: int) -> WeightTable:
        w = self.facts.item_logweights(item)
        self.log[self.pos[item]] = None
        return w

    def pair_logprob(self, a: int, b: int) -> float:
        lp = self.log[self.pos[a], self.pos[b]] = self.facts.pair_logprob(a, b)
        return lp


def _reread(read: tuple, ids: "list[int]", facts: TableFacts) -> Optional[dict]:
    """Read every item table and pair in a stored proof's log, in its order,
    so a missing or malformed one raises as before: the log-probability of
    each pair by its goal positions, or None at the first pair of
    probability 0."""
    pairs = {}
    for r in read:
        if r.__class__ is int:
            facts.item_logweights(ids[r])
        elif (lp := facts.pair_logprob(ids[r[0]], ids[r[1]])) == -math.inf:
            return None
        else:
            pairs[r] = lp
    return pairs


class _Proof(NamedTuple):
    """A stored proof (see the module docstring).  A leaf is (store, item
    position -> var map, abduced pairs as positions in path order, its
    program); a pending leaf adds its pins, store vars, before its
    program."""

    read: tuple  # item positions and pairs of them, in first-read order
    nodes: int
    depth_hits: int
    pending: tuple  # the leaves with their pins unposted
    # y, None without a parameter -> the leaves under it: a (shape, y) met
    # again takes its pinned stores here, no clone or post
    by_values: dict


def _pinned(pending: "Iterable[tuple]", y: Optional[int]) -> "list[tuple]":
    """The pending leaves under y: a leaf with pins gets a clone of its
    store with each pin posted as var = y, and is dropped if one fails."""
    out = []
    for store, vids, path, pins, prog in pending:
        if pins:
            store = store.clone()
            if not all(store.post_eq_const(vid, y) for vid in pins):
                continue
        out.append((store, vids, path, prog))
    return out


def _emitted(leaf: tuple, ids: "list[int]", pairs: dict) -> tuple:
    """A stored proof's leaf as _results reads it, run or replayed alike:
    (program, store, item -> var map, the log-probability of its pairs,
    from pairs by position and summed as 0.0 + lp1 + lp2 + ... in path
    order, and its pairs as item ids in path order)."""
    store, vids, path, prog = leaf
    dlogp = 0.0
    for p in path:
        dlogp += pairs[p]
    return prog, store, {ids[p]: vid for p, vid in vids}, dlogp, tuple([(ids[a], ids[b]) for a, b in path])


def _shared_leaves(goals: "Sequence[Atom]", program: Program, ctx: _Ctx, runtime: Budget) -> Iterator[tuple]:
    """The goals' proof leaves, each through _emitted, from the setting's
    stored proofs (see the module docstring): the stored proof of the
    goals' shape, found by _proof_key with the parameter's value y, is
    replayed when runtime admits its nodes (Budget.admits) and no pair it
    read now has probability 0, its leaves under y taken from the proof or
    pinned once and kept there; otherwise the goals are proved (_leaves),
    their pins posted, and the proof is stored unless runtime ran out or it
    read a pair of probability 0.  Under generation the proof runs whole, and is
    stored, before its first leaf goes out.  runtime counts either in
    proofs_replayed or proofs_run."""
    facts, budget = ctx.facts, ctx.budget.max_clauses if ctx.allow_new else None
    key, ids, y, goals = _proof_key(goals, program, ctx.setting, facts, budget)
    proofs = ctx.setting._proofs
    proof = proofs.get(key)
    pairs = _reread(proof.read, ids, facts) if proof is not None and runtime.admits(proof.nodes) else None
    if pairs is not None:
        leaves = proof.by_values.get(y)
        if leaves is None:
            leaves = proof.by_values[y] = tuple(_pinned(proof.pending, y))
        runtime.proofs_replayed += 1
        runtime.nodes += proof.nodes
        runtime.depth_hits += proof.depth_hits
        for leaf in leaves:
            yield _emitted(leaf, ids, pairs)
        return
    runtime.proofs_run += 1
    pos = {iid: p for p, iid in enumerate(ids)}
    reads = _Reads(facts, pos)
    nodes, depth_hits = runtime.nodes, runtime.depth_hits
    pending, leaves = [], []
    for prog, ab, abduced in _leaves(goals, program, replace(ctx, facts=reads), runtime):
        vids = tuple([(pos[iid], vid) for iid, vid in ab.item_vars.items()])
        pending.append((ab.store, vids, tuple([(pos[a], pos[b]) for a, b in abduced]), ab.pins, prog))
        pinned = _pinned(pending[-1:], y)
        leaves += pinned
        if pinned and not ctx.allow_new:  # generation proves the next positive between leaves
            yield _emitted(pinned[0], ids, reads.log)
    if not (runtime.exhausted or -math.inf in reads.log.values()):
        proofs[key] = _Proof(
            tuple(reads.log), runtime.nodes - nodes, runtime.depth_hits - depth_hits, tuple(pending),
            {y: tuple(leaves)},
        )
    if ctx.allow_new:
        for leaf in leaves:
            yield _emitted(leaf, ids, reads.log)


# ---------------------------------------------------------------------------
# Per-example scoring under a fixed program
# ---------------------------------------------------------------------------


def _log_not(lp: float) -> float:
    p = math.exp(lp)
    if p >= 1.0:
        return -math.inf
    return math.log1p(-p)


def _best_blocking(proof_fact_sets: "list[frozenset]", facts, runtime: Budget) -> Optional[ExampleLabeling]:
    """Most probable truth assignment falsifying every proof, if one exists.

    Each proof's facts are the item pairs (i, j) it assumed.  A proof that
    assumed none cannot be blocked, and an assignment scoring -inf does not
    count: None then.  Read an assignment as a mask, bit i the i-th pair in
    sorted order; the answer has the highest sum of log-probabilities,
    summed in that order, and, on an exact tie, the smallest mask.  It is
    a minimum-weight hitting set of the fact sets (Reiter 1987), searched
    depth first in pair order, each fact at its more probable value first.
    A branch is cut once some proof has all its facts true, or once its
    bound, the ordered sum with every undecided fact at its better value,
    is below the best found or ties it with a mask so far no smaller.  As
    float addition is monotone, no completion beats the bound: the cut is
    exact.  The search reads runtime.ok() at every node; once it fails, the
    best assignment so far is returned, or all false if there is none.
    """
    if any(not fs for fs in proof_fact_sets):
        return None
    keys = sorted(set().union(*proof_fact_sets)) if proof_fact_sets else []
    if not keys:
        return ExampleLabeling(0.0)
    logs = [(_log_not(lp), lp) for lp in (facts.pair_logprob(*k) for k in keys)]  # (false, true)
    tops = [max(pair) for pair in logs]
    index = {k: i for i, k in enumerate(keys)}
    masks = [sum(1 << index[k] for k in fs) for fs in proof_fact_sets]
    proofs_of = [[pm for pm in masks if pm >> i & 1] for i in range(len(keys))]
    best = [-math.inf, -1]  # log_prob and mask found; a -inf bound ties the start and is cut

    def descend(i: int, acc: float, mask: int, bound: float) -> bool:
        """False once runtime has run out."""
        if not runtime.ok():
            return False
        if i == len(keys):  # its bound is acc, and it passed the cut
            best[:] = acc, mask
            return True
        first = logs[i][1] > logs[i][0]
        for value in (first, not first):
            here = acc + logs[i][value]
            if value is not first:  # the first child's bound is its parent's
                bound = here
                for t in tops[i + 1 :]:
                    bound += t
            m = mask | value << i
            if bound < best[0] or (bound == best[0] and m >= best[1]):
                continue
            if value and any((m & pm) == pm for pm in proofs_of[i]):
                continue
            if not descend(i + 1, here, m, bound):
                return False
        return True

    root = 0.0
    for t in tops:
        root += t
    finished = descend(0, 0.0, 0, root)
    log_prob, mask = best
    if mask < 0:
        if finished:
            return None
        log_prob, mask = 0.0, 0
        for lf, _ in logs:
            log_prob += lf
    return ExampleLabeling(log_prob, pair_facts=tuple((k, bool(mask >> i & 1)) for i, k in enumerate(keys)))


def score_example(
    ex: GoalExample,
    program: Program,
    setting: InductionSetting,
    facts,
    budget: SearchBudget,
    runtime: Optional[Budget] = None,
    solved: Optional[dict] = None,
) -> Optional[ExampleLabeling]:
    """Best log P(example | program) with its pseudo-labels, or None.

    A positive example takes the labeling of its most probable proof, the
    first that prove yields on a tie.  A negative example takes the most
    probable truth assignment of the pairs its proofs assumed (their
    pair_facts) under which no proof survives; a fact-free proof makes that
    impossible.  solved is induce's per-call map of solved stores (see
    prove): a positive's store solved before, under another program, is not
    solved again, and its solver counts are replayed onto runtime.  Every cut of the proof search, the solver or
    the blocking search is recorded on runtime, not on the labeling: a
    caller that needs to know passes its own runtime and reads it after.
    """
    runtime = runtime if runtime is not None else budget.runtime()
    if ex.positive:
        best: Optional[ExampleLabeling] = None
        for _, lab in prove(
            ex.goal, program, setting, facts, budget, runtime=runtime, allow_new_clauses=False, solved=solved
        ):
            if best is None or lab.log_prob > best.log_prob:
                best = lab
        return best
    proof_sets = [
        frozenset([pair for pair, _ in lab.pair_facts])
        for _, lab in prove(
            ex.goal, program, setting, facts, budget, runtime=runtime, allow_new_clauses=False, feasibility_only=True
        )
    ]
    if not proof_sets:
        return ExampleLabeling(0.0)
    return _best_blocking(proof_sets, facts, runtime)


# ---------------------------------------------------------------------------
# induce
# ---------------------------------------------------------------------------


def _candidate_programs(
    positives: "list[GoalExample]",
    setting: InductionSetting,
    budget: SearchBudget,
    facts,
    runtime: Budget,
) -> "list[Program]":
    """Programs that prove every positive by sequential extension, or that
    fill budget.max_clauses first and are left to scoring for the rest, by
    size and then print text.  Every program within the budget that proves
    every positive is among them.

    A clause that fills the budget closes the program for the rest of that
    proof, and prove offers it only if the full program can prove every
    inducible predicate of its body: a full program whose clauses all
    recurse is never entered, where a search of it would take 2^L branches
    down a list of L items.  A new clause that does not type-check against
    its call is never offered either: it is in no proof.  So a depth cut
    that a branch through either would have met is not counted.  prove
    drops, as it yields it, a result whose full program is found already,
    since it could only be found again.  Every positive is proved through
    the setting's stored proofs, once per (program, goal shape, budget),
    a y that is a parameter slotted and pinned per positive (see the
    module docstring)."""
    seen_prefix: set = set()
    found: dict = {}

    def rec(idx: int, prog: Program):
        if not runtime.ok():
            return
        if idx == len(positives) or prog.size == budget.max_clauses:
            if prog.size > 0:
                found.setdefault(prog.key(), prog)
            return
        state = (prog.key(), idx)
        if state in seen_prefix:
            return
        seen_prefix.add(state)
        for prog2, _ in prove(
            positives[idx].goal,
            prog,
            setting,
            facts,
            budget,
            runtime=runtime,
            feasibility_only=True,
            found=found,
        ):
            rec(idx + 1, prog2)

    rec(0, Program())
    out = list(found.values())
    out.sort(key=lambda p: (p.size, setting.text_of(p)))
    return out


def _fold(into: Budget, part: Budget) -> None:
    into.nodes += part.nodes
    into.depth_hits += part.depth_hits
    into.solver_nodes += part.solver_nodes
    into.solver_leaves += part.solver_leaves
    into.proofs_run += part.proofs_run
    into.proofs_replayed += part.proofs_replayed
    into.exhausted = into.exhausted or part.exhausted


def induce(
    examples: "list[GoalExample]",
    setting: InductionSetting,
    facts,
    budget: Optional[SearchBudget] = None,
    *,
    runtime: Optional[Budget] = None,
) -> InduceOutcome:
    """Highest-scoring program entailing the batch, with its pseudo-labels.

    score = prior(size) * prod over examples of best P(example | program).
    Candidates are generated once, at budget.max_clauses, and scored by size
    and then print order.  Scoring stops at the first candidate whose prior
    is at or below the incumbent's score: neither it nor any larger program
    can win.  A candidate is dropped at its first example in batch order
    with no proof, or, with budget.pruning, as soon as its partial product
    cannot beat the incumbent.  Each example is scored under a fresh runtime
    budget, so every example gets its own max_nodes cap and wall_ms
    deadline; its counters fold back into the shared one.  The call keeps
    one map of solved stores for all its scoring (see prove): each distinct
    store is solved once, and a store met again replays the solver counts it
    cost, so every counter reads as if it had been solved each time.
    """
    budget = budget or SearchBudget()
    runtime = runtime if runtime is not None else budget.runtime()
    positives = [e for e in examples if e.positive]

    best_log, best_prog, best_labs = -math.inf, None, None
    tried = 0
    solved: dict = {}
    pool = _candidate_programs(positives, setting, budget, facts, runtime)
    for prog in pool:
        if not runtime.ok() or log_prior(prog.size) <= best_log:
            break  # the pool goes by size: the prior caps every candidate left
        tried += 1
        labs: "list[ExampleLabeling]" = []
        acc = log_prior(prog.size)
        for ex in examples:
            rt = budget.runtime()
            lab = score_example(ex, prog, setting, facts, budget, rt, solved=solved)
            _fold(runtime, rt)
            if lab is None:
                break
            acc += lab.log_prob
            labs.append(lab)
            if budget.pruning and acc <= best_log:
                break
        else:  # every example scored
            if acc > best_log:
                best_log, best_prog, best_labs = acc, prog, tuple(labs)

    # Scoring stops at a candidate's first rejection and a full candidate
    # left generation early, so to name the cause of a failure prove the
    # positives under every candidate to their last proofs, as generation does.
    proven = best_prog is None and any([all(list(prove(
        e.goal, p, setting, facts, budget, runtime=runtime, allow_new_clauses=False,
        feasibility_only=True)) for e in positives) for p in pool])
    exhausted = runtime.exhausted or not runtime.ok()
    if best_prog is None:
        failure = "budget_exhausted" if exhausted else "depth_cut" if runtime.depth_hits else (
            "unscorable" if proven else "no_candidate"
        )
        return InduceOutcome(None, exhausted, tried, failure)
    return InduceOutcome(Induced(best_prog, best_labs, best_log), exhausted, tried)

