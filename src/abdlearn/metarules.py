"""Second-order clause templates and their instantiations.

A metarule is a clause template whose predicate positions are existential
variables; binding those variables to predicate symbols (a MetaSub) yields
an ordinary first-order clause.  A Program is an ordered set of MetaSubs
together with the invented predicate symbols it introduced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

from .parser import parse_program
from .terms import Atom, Clause, Sym, Var, pretty_clause, proper_list_items


class MetaruleError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class MetaAtom:
    """Atom template: predicate slot (an existential var) plus arg var names."""

    pred_var: str
    arg_vars: "tuple[str, ...]"

    @property
    def arity(self) -> int:
        return len(self.arg_vars)


@dataclass(frozen=True, slots=True)
class Metarule:
    name: str
    existentials: "tuple[str, ...]"
    head: MetaAtom
    body: "tuple[MetaAtom, ...]"

    def __post_init__(self):
        if self.head.pred_var not in self.existentials:
            raise MetaruleError(f"{self.name}: head predicate variable is not existential")
        for b in self.body:
            if b.pred_var not in self.existentials:
                raise MetaruleError(f"{self.name}: unlisted existential {b.pred_var}")

    def body_slot_arity(self, ev: str) -> Optional[int]:
        for b in self.body:
            if b.pred_var == ev:
                return b.arity
        return None


@dataclass(frozen=True, slots=True)
class MetaSub:
    rule: str
    bindings: "tuple[tuple[str, str], ...]"  # (existential, symbol) in declaration order

    def symbol(self, ev: str) -> str:
        for k, v in self.bindings:
            if k == ev:
                return v
        raise KeyError(ev)


@dataclass(frozen=True, slots=True)
class Program:
    """An induced hypothesis: ordered metasubs plus invented symbols."""

    metasubs: "tuple[MetaSub, ...]" = ()
    invented: "tuple[tuple[str, int], ...]" = ()  # (symbol, arity) in creation order
    _key: Optional[frozenset] = field(default=None, init=False, repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.metasubs)

    def extend(self, ms: MetaSub) -> "Program":
        return Program(self.metasubs + (ms,), self.invented)

    def with_invented(self, name: str, arity: int) -> "Program":
        return Program(self.metasubs, self.invented + ((name, arity),))

    def key(self) -> frozenset:
        """Canonical identity: clause set with invented symbols renumbered
        by first appearance, so search-order artifacts do not split
        semantically identical programs.  Computed on the first call."""
        if self._key is not None:
            return self._key
        rename: dict[str, str] = {}
        inv = {n for n, _ in self.invented}
        rows = []
        for ms in self.metasubs:
            canon = []
            for k, v in ms.bindings:
                if v in inv:
                    if v not in rename:
                        rename[v] = f"#inv{len(rename)}"
                    canon.append((k, rename[v]))
                else:
                    canon.append((k, v))
            rows.append((ms.rule, tuple(canon)))
        key = frozenset(rows)
        object.__setattr__(self, "_key", key)
        return key


def materialize(ms: MetaSub, library: "dict[str, Metarule]") -> Clause:
    """ms's clause under library's rule of its name.  Each (MetaSub, Metarule)
    pair is built once per process: clauses are immutable, so every caller
    shares one."""
    return _clause(ms, library[ms.rule])


@lru_cache(maxsize=None)
def _clause(ms: MetaSub, mr: Metarule) -> Clause:
    head = Atom(ms.symbol(mr.head.pred_var), tuple(Var(v) for v in mr.head.arg_vars))
    body = tuple(
        Atom(ms.symbol(b.pred_var), tuple(Var(v) for v in b.arg_vars)) for b in mr.body
    )
    return Clause(head, body)


def program_clauses(p: Program, library: "dict[str, Metarule]") -> "list[Clause]":
    return [materialize(ms, library) for ms in p.metasubs]


def program_text(p: Program, library: "dict[str, Metarule]") -> str:
    return "\n".join(pretty_clause(c) for c in program_clauses(p, library))


# ---------------------------------------------------------------------------
# Default library
# ---------------------------------------------------------------------------

_DEFAULT_TEXT = """\

metarule(mono_ident, [P,Q],   [P,A],   [[Q,A]]).
metarule(mono_rec,   [P,Q],   [P,A],   [[Q,A,B],[P,B]]).
metarule(mono_chain, [P,Q,R], [P,A],   [[Q,A,B],[R,B]]).
metarule(precon,     [P,Q,R], [P,A,B], [[Q,A],[R,A,B]]).
metarule(ident,      [P,Q],   [P,A,B], [[Q,A,B]]).
metarule(conj,       [P,Q,R], [P,A,B], [[Q,A,B],[R,A,B]]).
metarule(tri_split,  [P,Q,R], [P,A,B], [[Q,A,B,C],[R,C]]).
metarule(postcon,    [P,Q,R], [P,A,B], [[Q,A,B],[R,B]]).
metarule(chain,      [P,Q,R], [P,A,B], [[Q,A,C],[R,C,B]]).
"""


def metarules_from_text(text: str) -> "list[Metarule]":
    """Load `metarule(Name, Existentials, Head, Body).` entries.

    A 3-argument form without the name is also accepted and auto-named
    mr1, mr2, ... in file order.  Each text is read once; later calls get
    a new list of the same (frozen) metarules.
    """
    return list(_metarules_once(text))


@lru_cache(maxsize=64)
def _metarules_once(text: str) -> "tuple[Metarule, ...]":
    out: list[Metarule] = []
    for i, clause in enumerate(parse_program(text)):
        if clause.head.pred != "metarule" or clause.body:
            raise MetaruleError(f"expected a metarule fact, got {clause.head.pred}")
        args = clause.head.args
        if len(args) == 4:
            name_t, ex_t, head_t, body_t = args
            if not isinstance(name_t, Sym):
                raise MetaruleError("metarule name must be a symbol")
            name = name_t.name
        elif len(args) == 3:
            ex_t, head_t, body_t = args
            name = f"mr{i + 1}"
        else:
            raise MetaruleError("metarule/3 or metarule/4 expected")
        existentials = tuple(_var_name(v) for v in _items(ex_t))
        head = _meta_atom(head_t)
        body = tuple(_meta_atom(b) for b in _items(body_t))
        out.append(Metarule(name, existentials, head, body))
    return tuple(out)


def _items(t):
    items = proper_list_items(t)
    if items is None:
        raise MetaruleError("expected a proper list in metarule entry")
    return items


def _var_name(t) -> str:
    if not isinstance(t, Var):
        raise MetaruleError(f"expected a variable, got {t!r}")
    return t.name


def _meta_atom(t) -> MetaAtom:
    items = _items(t)
    if not items:
        raise MetaruleError("empty atom template")
    return MetaAtom(_var_name(items[0]), tuple(_var_name(v) for v in items[1:]))


def default_metarules() -> "list[Metarule]":
    return metarules_from_text(_DEFAULT_TEXT)


def program_to_json(p: Program) -> dict:
    """Plain-dict form for artifact files, inverse of program_from_json."""
    return {
        "metasubs": [
            {"rule": ms.rule, "bindings": [[e, s] for e, s in ms.bindings]}
            for ms in p.metasubs
        ],
        "invented": [[n, a] for n, a in p.invented],
    }


def program_from_json(d: dict) -> Program:
    subs = tuple(
        MetaSub(m["rule"], tuple((e, s) for e, s in m["bindings"])) for m in d["metasubs"]
    )
    return Program(subs, tuple((n, int(a)) for n, a in d["invented"]))


def merge_programs(*progs: Program) -> Program:
    """Concatenate programs, keeping invented symbols in first-seen order."""
    subs: "tuple[MetaSub, ...]" = ()
    invented: "list[tuple[str, int]]" = []
    for p in progs:
        subs += p.metasubs
        for inv in p.invented:
            if inv not in invented:
                invented.append(inv)
    return Program(subs, tuple(invented))


def metarule_library(rules: Iterable[Metarule]) -> "dict[str, Metarule]":
    lib = {}
    for r in rules:
        if r.name in lib:
            raise MetaruleError(f"duplicate metarule name {r.name}")
        lib[r.name] = r
    return lib


# Every default metarule by name, read-only: what a program written under
# any subset of the defaults (a merged curriculum program too) reads through.
DEFAULT_LIBRARY: "Mapping[str, Metarule]" = MappingProxyType(metarule_library(default_metarules()))
