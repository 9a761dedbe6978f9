"""Parser for the clause text format.

Grammar (whitespace and ``%`` line comments allowed anywhere between tokens):

    program  := clause*
    clause   := atom "."  |  atom ":-" atom ("," atom)* "."
    atom     := name [ "(" term ("," term)* ")" ]
    term     := variable | integer | name [ "(" term ("," term)* ")" ] | list
    list     := "[" [ term ("," term)* [ "|" term ] ] "]"

Variables begin with an uppercase letter or underscore, symbols and
functors with a lowercase letter, integers are optionally signed decimal
literals.  A bare ``_`` is an anonymous variable: each occurrence is fresh.
There is no operator parsing beyond ``:-`` and the argument comma.

The public API is parse_program, which the knowledge base and the
metarule library read clause text with, and parse_term, parse_atom and
parse_clause, kept as the API for reading one term, atom or clause; no
module in the package calls them, the tests build their cases with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .terms import (
    NIL,
    Atom,
    Clause,
    Int,
    Struct,
    Sym,
    Term,
    Var,
    fresh_name,
    mk_list,
    mk_struct,
    mk_sym,
)


class ParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col
        self.msg = msg


@dataclass(frozen=True, slots=True)
class _Tok:
    kind: str  # 'var' 'int' 'name' 'punct' 'eof'
    text: str
    line: int
    col: int


_PUNCT1 = "()[]|,."


def _tokenize(src: str) -> "list[_Tok]":
    toks: list[_Tok] = []
    i, line, col = 0, 1, 1
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "%":
            while i < n and src[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if src.startswith(":-", i):
            toks.append(_Tok("punct", ":-", start_line, start_col))
            i += 2
            col += 2
            continue
        if c.isdigit() or (c == "-" and i + 1 < n and src[i + 1].isdigit()):
            j = i + 1
            while j < n and src[j].isdigit():
                j += 1
            toks.append(_Tok("int", src[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            word = src[i:j]
            kind = "var" if (c == "_" or c.isupper()) else "name"
            toks.append(_Tok(kind, word, start_line, start_col))
            col += j - i
            i = j
            continue
        if c in _PUNCT1:
            toks.append(_Tok("punct", c, start_line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(_Tok("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, src: str):
        self.toks = _tokenize(src)
        self.pos = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, text: str) -> _Tok:
        t = self.next()
        if t.kind == "eof" or t.text != text:
            got = "end of input" if t.kind == "eof" else repr(t.text)
            raise ParseError(f"expected {text!r}, got {got}", t.line, t.col)
        return t

    def fail(self, msg: str) -> "ParseError":
        t = self.peek()
        return ParseError(msg, t.line, t.col)

    # -- terms --------------------------------------------------------------

    def term(self) -> Term:
        t = self.peek()
        if t.kind == "var":
            self.next()
            if t.text == "_":
                return Var(fresh_name("A"))
            return Var(t.text)
        if t.kind == "int":
            self.next()
            return Int(int(t.text))
        if t.kind == "name":
            self.next()
            if self.peek().text == "(" and self.peek().kind == "punct":
                self.next()
                args = self.term_list_until(")")
                return mk_struct(t.text, tuple(args))
            return mk_sym(t.text)
        if t.text == "[":
            self.next()
            return self.list_tail()
        raise self.fail(f"expected a term, got {t.text!r}" if t.kind != "eof" else "expected a term, got end of input")

    def term_list_until(self, closer: str) -> "list[Term]":
        args = [self.term()]
        while True:
            t = self.peek()
            if t.text == "," and t.kind == "punct":
                self.next()
                args.append(self.term())
            elif t.text == closer and t.kind == "punct":
                self.next()
                return args
            else:
                raise self.fail(f"expected ',' or {closer!r}")

    def list_tail(self) -> Term:
        if self.peek().text == "]":
            self.next()
            return NIL
        items = [self.term()]
        while True:
            t = self.peek()
            if t.text == ",":
                self.next()
                items.append(self.term())
            elif t.text == "|":
                self.next()
                tail = self.term()
                self.expect("]")
                return mk_list(items, tail)
            elif t.text == "]":
                self.next()
                return mk_list(items)
            else:
                raise self.fail("expected ',', '|' or ']' in list")

    # -- clauses ------------------------------------------------------------

    def atom(self) -> Atom:
        t = self.peek()
        if t.kind != "name":
            raise self.fail("expected a predicate name")
        term = self.term()
        if isinstance(term, Struct):
            return Atom(term.functor, term.args)
        assert isinstance(term, Sym)
        return Atom(term.name, ())

    def clause(self) -> Clause:
        head = self.atom()
        t = self.next()
        if t.text == ".":
            return Clause(head, ())
        if t.text == ":-":
            body = [self.atom()]
            while True:
                t = self.next()
                if t.text == ",":
                    body.append(self.atom())
                elif t.text == ".":
                    return Clause(head, tuple(body))
                else:
                    got = "end of input" if t.kind == "eof" else repr(t.text)
                    raise ParseError(f"expected ',' or '.', got {got}", t.line, t.col)
        got = "end of input" if t.kind == "eof" else repr(t.text)
        raise ParseError(f"expected '.' or ':-', got {got}", t.line, t.col)

    def program(self) -> "list[Clause]":
        out: list[Clause] = []
        while self.peek().kind != "eof":
            out.append(self.clause())
        return out


def parse_term(src: str) -> Term:
    p = _Parser(src)
    t = p.term()
    if p.peek().kind != "eof":
        raise p.fail("trailing input after term")
    return t


def parse_atom(src: str) -> Atom:
    p = _Parser(src)
    a = p.atom()
    if p.peek().kind != "eof":
        raise p.fail("trailing input after atom")
    return a


def parse_clause(src: str) -> Clause:
    p = _Parser(src)
    c = p.clause()
    if p.peek().kind != "eof":
        raise p.fail("trailing input after clause")
    return c


def parse_program(src: str) -> "list[Clause]":
    """The clauses of src, in order.

    Each text is parsed once: later calls get a new list of the same
    (immutable) clauses, so a bare ``_`` keeps the fresh name it got the
    first time.  Sharing those names is safe: kb.resolve never binds a
    stored clause's variables.  It reads each clause through its slot form
    (terms.Clause), in which every variable, each ``_`` included, is an
    index into a list frame that is fresh for each step.
    """
    return list(_parse_program_once(src))


@lru_cache(maxsize=256)
def _parse_program_once(src: str) -> "tuple[Clause, ...]":
    return tuple(_Parser(src).program())
