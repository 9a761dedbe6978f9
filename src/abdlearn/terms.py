"""First-order terms, substitutions and unification.

The term language is deliberately small: variables, signed integers,
lowercase symbols and compound terms.  Lists are ordinary compounds built
from the reserved cell functor ``'.'`` and the reserved empty-list functor
``'[]'`` so that the rest of the engine never special-cases them.

Terms are immutable, so they may be shared freely.  ``Var``, ``Int``,
``Sym``, ``Struct``, ``Atom`` and ``Clause`` are plain ``__slots__``
classes: each sets its fields once, in ``__init__``, through the slot
descriptors, and its ``__setattr__`` and ``__delattr__`` raise
``AttributeError``.  They compare by value, a term only ever equal to a
term of its own class, and hash as the tuple of their compared fields.  Every ``Struct``
records at construction whether it is ground (contains no ``Var``
anywhere); since its arguments were built first, that costs one look at
each argument.  On a ground ``Struct`` the walkers here (``occurs``,
``Subst.apply``, ``term_vars``, ``rename_term``) return at once, and
``Subst.apply`` returns the very same object, so a long ground list is
never re-walked or copied while resolution passes it along.  ``occurs``,
``Subst.apply`` and ``term_vars`` keep their own stack, so a term nested
deeper than the interpreter's recursion limit (the s(s(...)) count of a
long list, say) is walked like any other.

A ``Clause`` compiles its slot form when it is built: each variable
becomes an index into a per-step frame, each ground subterm is kept as it
is, and ``kb.resolve`` reads the clause through that form alone.  Renaming
is not on the resolution path; ``rename_apart`` is a utility for a whole
fresh copy of a clause.
"""

from __future__ import annotations

import itertools
import sys
from typing import Mapping, Optional, Union

# ---------------------------------------------------------------------------
# Term representation
# ---------------------------------------------------------------------------

LIST_CELL = "."
LIST_NIL = "[]"


class _Frozen:
    """Base of the term classes: __slots__ fields, set once in __init__
    through the slot descriptors, and no assignment or deletion after."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name}")


class Var(_Frozen):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _set_var_name(self, name)

    def __eq__(self, other):
        if other.__class__ is Var:
            return self.name == other.name
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.name,))

    def __repr__(self) -> str:
        return f"Var({self.name})"


class Int(_Frozen):
    __slots__ = ("value",)

    def __init__(self, value: int):
        _set_int_value(self, value)

    def __eq__(self, other):
        if other.__class__ is Int:
            return self.value == other.value
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value,))

    def __repr__(self) -> str:
        return f"Int({self.value})"


class Sym(_Frozen):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _set_sym_name(self, name)

    def __eq__(self, other):
        if other.__class__ is Sym:
            return self.name == other.name
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.name,))

    def __repr__(self) -> str:
        return f"Sym({self.name})"


class Struct(_Frozen):
    """functor(args...); ground is computed here and takes no part in equality."""

    __slots__ = ("functor", "args", "ground")

    def __init__(self, functor: str, args: "tuple[Term, ...]"):
        _set_functor(self, functor)
        _set_args(self, args)
        for a in args:
            c = a.__class__
            if c is Var or (c is Struct and not a.ground):
                _set_ground(self, False)
                return
        _set_ground(self, True)

    def __eq__(self, other):
        if other.__class__ is Struct:
            return self.functor == other.functor and self.args == other.args
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.functor, self.args))

    def __repr__(self) -> str:
        return f"Struct({self.functor}/{len(self.args)})"


_set_var_name = Var.name.__set__
_set_int_value = Int.value.__set__
_set_sym_name = Sym.name.__set__
_set_functor = Struct.functor.__set__
_set_args = Struct.args.__set__
_set_ground = Struct.ground.__set__

Term = Union[Var, Int, Sym, Struct]


class Atom(_Frozen):
    """A predicate applied to arguments.  0-ary predicates have args == ()."""

    __slots__ = ("pred", "args")

    def __init__(self, pred: str, args: "tuple[Term, ...]"):
        _set_pred(self, pred)
        _set_atom_args(self, args)

    def __eq__(self, other):
        if other.__class__ is Atom:
            return self.pred == other.pred and self.args == other.args
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.pred, self.args))

    def __repr__(self) -> str:
        return f"Atom(pred={self.pred!r}, args={self.args!r})"

    @property
    def arity(self) -> int:
        return len(self.args)

    def key(self) -> "tuple[str, int]":
        return (self.pred, len(self.args))


_set_pred = Atom.pred.__set__
_set_atom_args = Atom.args.__set__


class Clause(_Frozen):
    """head :- body, with its slot form compiled once, here.

    The slot form numbers the clause's variables 0, 1, ... in first
    occurrence order, head first; a resolution step keeps their values in
    a list frame of frame_size entries.  head_plan holds the plan of each
    head argument and body_plan a (predicate, argument plans) pair per body
    atom.  A plan is a frame index (a Python int) for a variable, the term
    itself for a ground term or a constant, and (functor, argument plans)
    for any other compound.  Equality and hash read head and body only.
    """

    __slots__ = ("head", "body", "frame_size", "head_plan", "body_plan")

    def __init__(self, head: Atom, body: "tuple[Atom, ...]"):
        slots: dict = {}
        _set_head(self, head)
        _set_body(self, body)
        _set_head_plan(self, tuple(_plan(t, slots) for t in head.args))
        _set_body_plan(self, tuple((b.pred, tuple(_plan(t, slots) for t in b.args)) for b in body))
        _set_frame_size(self, len(slots))

    def __eq__(self, other):
        if other.__class__ is Clause:
            return self.head == other.head and self.body == other.body
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.head, self.body))

    def __repr__(self) -> str:
        return f"Clause(head={self.head!r}, body={self.body!r})"


_set_head = Clause.head.__set__
_set_body = Clause.body.__set__
_set_frame_size = Clause.frame_size.__set__
_set_head_plan = Clause.head_plan.__set__
_set_body_plan = Clause.body_plan.__set__


def _plan(t: Term, slots: dict):
    """The slot-form plan of clause term t, numbering new variables in slots."""
    if t.__class__ is Var:
        return slots.setdefault(t.name, len(slots))
    if t.__class__ is Struct and not t.ground:
        return (t.functor, tuple(_plan(a, slots) for a in t.args))
    return t


def intern_name(name: str) -> str:
    # Interned names make the many string comparisons in unification cheap.
    return sys.intern(name)


def mk_sym(name: str) -> Sym:
    return Sym(intern_name(name))


def mk_struct(functor: str, args: "tuple[Term, ...]") -> Struct:
    return Struct(intern_name(functor), args)


def mk_list(items, tail: Term = Struct(LIST_NIL, ())) -> Term:
    """Build a list term from a Python iterable, optionally open-tailed."""
    out = tail
    for item in reversed(list(items)):
        out = Struct(LIST_CELL, (item, out))
    return out


NIL = Struct(LIST_NIL, ())


def list_parts(t: Term) -> "tuple[list[Term], Term]":
    """Split a (possibly improper) list term into (items, tail)."""
    items: list[Term] = []
    while isinstance(t, Struct) and t.functor == LIST_CELL and len(t.args) == 2:
        items.append(t.args[0])
        t = t.args[1]
    return items, t


def is_nil(t: Term) -> bool:
    return isinstance(t, Struct) and t.functor == LIST_NIL and not t.args


def proper_list_items(t: Term) -> "Optional[list[Term]]":
    items, tail = list_parts(t)
    return items if is_nil(tail) else None


# ---------------------------------------------------------------------------
# Substitutions
# ---------------------------------------------------------------------------


class Subst:
    """An immutable variable binding map.

    Bindings are triangular: a variable may be bound to a term containing
    further bound variables.  ``walk`` chases top-level variable chains and
    ``apply`` resolves a term fully so the result contains no bound variable
    (which is what makes application idempotent).
    """

    __slots__ = ("_m",)

    def __init__(self, m: Optional[dict] = None):
        self._m = m or {}

    def bind(self, name: str, term: Term) -> "Subst":
        m = dict(self._m)
        m[name] = term
        return Subst(m)

    def bind_two(self, name1: str, term1: Term, name2: str, term2: Term) -> "Subst":
        """bind(name1, term1).bind(name2, term2), in one copy."""
        m = dict(self._m)
        m[name1] = term1
        m[name2] = term2
        return Subst(m)

    def get(self, name: str) -> Optional[Term]:
        return self._m.get(name)

    def __len__(self) -> int:
        return len(self._m)

    def __contains__(self, name: str) -> bool:
        return name in self._m

    def items(self):
        return self._m.items()

    def walk(self, t: Term) -> Term:
        while isinstance(t, Var):
            nxt = self._m.get(t.name)
            if nxt is None:
                return t
            t = nxt
        return t

    def apply(self, t: Term) -> Term:
        t = self.walk(t)
        if isinstance(t, Struct) and not t.ground:
            return self._apply_struct(t)
        return t

    def _apply_struct(self, t: Struct) -> Struct:
        # Depth-first with an explicit stack of (struct, its args built so
        # far), so a term of any depth is rebuilt without recursion.
        stack = [(t, [])]
        while True:
            t, done = stack[-1]
            if len(done) < len(t.args):
                a = self.walk(t.args[len(done)])
                if isinstance(a, Struct) and not a.ground:
                    stack.append((a, []))
                else:
                    done.append(a)
                continue
            stack.pop()
            built = Struct(t.functor, tuple(done))
            if not stack:
                return built
            stack[-1][1].append(built)

    def apply_atom(self, a: Atom) -> Atom:
        return Atom(a.pred, tuple(self.apply(t) for t in a.args))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={print_term(v)}" for k, v in sorted(self._m.items()))
        return f"Subst({inner})"


EMPTY_SUBST = Subst()


# ---------------------------------------------------------------------------
# Unification
# ---------------------------------------------------------------------------


def occurs(name: str, t: Term, s: Subst) -> bool:
    t = s.walk(t)
    if isinstance(t, Var):
        return t.name == name
    if not isinstance(t, Struct) or t.ground:
        return False
    todo = list(t.args)
    while todo:
        t = s.walk(todo.pop())
        if isinstance(t, Var):
            if t.name == name:
                return True
        elif isinstance(t, Struct) and not t.ground:
            todo.extend(t.args)
    return False


def unify(t1: Term, t2: Term, s: Subst = EMPTY_SUBST) -> Optional[Subst]:
    """Most general unifier of t1 and t2 under s, or None.

    Always with the occurs check: a variable never binds to a term that
    contains it.
    """
    stack = [(t1, t2)]
    while stack:
        a, b = stack.pop()
        a = s.walk(a)
        b = s.walk(b)
        if a is b:
            continue
        if isinstance(a, Var):
            if isinstance(b, Var) and b.name == a.name:
                continue
            if occurs(a.name, b, s):
                return None
            s = s.bind(a.name, b)
        elif isinstance(b, Var):
            if occurs(b.name, a, s):
                return None
            s = s.bind(b.name, a)
        elif isinstance(a, Int) and isinstance(b, Int):
            if a.value != b.value:
                return None
        elif isinstance(a, Sym) and isinstance(b, Sym):
            if a.name != b.name:
                return None
        elif isinstance(a, Struct) and isinstance(b, Struct):
            if a.functor != b.functor or len(a.args) != len(b.args):
                return None
            stack.extend(zip(a.args, b.args))
        else:
            return None
    return s


def unify_atoms(a1: Atom, a2: Atom, s: Subst = EMPTY_SUBST) -> Optional[Subst]:
    if a1.pred != a2.pred or len(a1.args) != len(a2.args):
        return None
    for x, y in zip(a1.args, a2.args):
        nxt = unify(x, y, s)
        if nxt is None:
            return None
        s = nxt
    return s


# ---------------------------------------------------------------------------
# Fresh variable renaming
# ---------------------------------------------------------------------------

_fresh_counter = itertools.count(1)


def fresh_name(hint: str = "G") -> str:
    # The counter is global and never reused, so renamed clauses can never
    # collide with each other.
    return f"_{hint}{next(_fresh_counter)}"


def term_vars(t: Term, acc: Optional[list] = None) -> "list[str]":
    """Variable names in t, in first-occurrence order."""
    if acc is None:
        acc = []
    todo = [t]
    while todo:
        t = todo.pop()
        if isinstance(t, Var):
            if t.name not in acc:
                acc.append(t.name)
        elif isinstance(t, Struct) and not t.ground:
            todo.extend(reversed(t.args))
    return acc


def clause_vars(c: Clause) -> "list[str]":
    acc: list[str] = []
    for t in c.head.args:
        term_vars(t, acc)
    for b in c.body:
        for t in b.args:
            term_vars(t, acc)
    return acc


def rename_term(t: Term, mapping: Mapping[str, str]) -> Term:
    return _swap_vars(t, {n: Var(m) for n, m in mapping.items()})


def _swap_vars(t: Term, vs: Mapping[str, Var]) -> Term:
    """t with each variable named in vs replaced by that very Var object."""
    if isinstance(t, Var):
        return vs.get(t.name, t)
    if isinstance(t, Struct) and not t.ground:
        return Struct(t.functor, tuple(_swap_vars(a, vs) for a in t.args))
    return t


def _swap_clause_vars(c: Clause, vs: Mapping[str, Var]) -> Clause:
    head = Atom(c.head.pred, tuple(_swap_vars(t, vs) for t in c.head.args))
    body = tuple(Atom(b.pred, tuple(_swap_vars(t, vs) for t in b.args)) for b in c.body)
    return Clause(head, body)


def rename_apart(c: Clause) -> Clause:
    """Copy a clause with each variable replaced by one globally fresh Var."""
    return _swap_clause_vars(c, {v: Var(fresh_name()) for v in clause_vars(c)})


# ---------------------------------------------------------------------------
# Printing (canonical text form; parse . print is the identity)
# ---------------------------------------------------------------------------


def print_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Int):
        return str(t.value)
    if isinstance(t, Sym):
        return t.name
    if isinstance(t, Struct):
        if t.functor == LIST_NIL and not t.args:
            return "[]"
        if t.functor == LIST_CELL and len(t.args) == 2:
            items, tail = list_parts(t)
            inner = ",".join(print_term(i) for i in items)
            if is_nil(tail):
                return f"[{inner}]"
            return f"[{inner}|{print_term(tail)}]"
        inner = ",".join(print_term(a) for a in t.args)
        return f"{t.functor}({inner})"
    raise TypeError(f"not a term: {t!r}")


def print_atom(a: Atom) -> str:
    if not a.args:
        return a.pred
    return f"{a.pred}({','.join(print_term(t) for t in a.args)})"


def print_clause(c: Clause) -> str:
    if not c.body:
        return f"{print_atom(c.head)}."
    return f"{print_atom(c.head)} :- {', '.join(print_atom(b) for b in c.body)}."


def pretty_clause(c: Clause) -> str:
    """Clause text with variables normalised to A, B, C, ... per clause."""
    names = clause_vars(c)
    mapping = {n: Var(chr(ord("A") + i) if i < 26 else f"V{i}") for i, n in enumerate(names)}
    return print_clause(_swap_clause_vars(c, mapping))
