import pytest

from abdlearn.parser import ParseError, parse_clause, parse_program, parse_term
from abdlearn.terms import Atom, Int, Var, print_clause

LIST_BK = """
% list primitives
head([H|_], H).
tail([_|T], T).
empty([]).
"""


def test_parses_list_primitives():
    clauses = parse_program(LIST_BK)
    assert len(clauses) == 3
    heads = [c.head.pred for c in clauses]
    assert heads == ["head", "tail", "empty"]
    assert clauses[2].head.args[0] == parse_term("[]")


def test_facts_and_rules():
    cs = parse_program("p(1). q(X) :- p(X).")
    assert cs[0].body == ()
    assert cs[1].body[0] == Atom("p", (Var("X"),))


def test_zero_arity_atom():
    cs = parse_program("halt. run :- halt.")
    assert cs[0].head == Atom("halt", ())


def test_negative_integers():
    assert parse_term("-3") == Int(-3)
    assert parse_term("f(-3,4)").args[0] == Int(-3)


def test_anonymous_vars_are_fresh():
    c = parse_clause("p(_, _).")
    a, b = c.head.args
    assert isinstance(a, Var) and isinstance(b, Var)
    assert a.name != b.name


def test_comments_ignored():
    cs = parse_program("% full line\np(1). % trailing\n")
    assert len(cs) == 1


def test_empty_program():
    assert parse_program("") == []


def test_error_carries_position():
    with pytest.raises(ParseError) as e:
        parse_program("p(1)\nq(2).")
    assert e.value.line == 2

    with pytest.raises(ParseError):
        parse_term("f(1,")
    with pytest.raises(ParseError):
        parse_program("p(1). 3(x).")
    with pytest.raises(ParseError):
        parse_term("[1,2")


def test_unexpected_character():
    with pytest.raises(ParseError) as e:
        parse_program("p(1) :- q(1) & r(2).")
    assert "&" in str(e.value)


def test_metarule_entries_parse_as_facts():
    src = "metarule(chain, [P,Q,R], [P,A,B], [[Q,A,C],[R,C,B]])."
    c = parse_clause(src)
    assert c.head.pred == "metarule"
    assert len(c.head.args) == 4


def test_print_parse_is_idempotent_normalization():
    src = "f(A,  B)   :-  add(A , C) ,f(C,B)."
    c1 = parse_clause(src)
    text = print_clause(c1)
    c2 = parse_clause(text)
    assert c1 == c2
    assert print_clause(c2) == text


def test_parse_program_hands_out_fresh_lists_of_shared_clauses():
    src = "head([H|_], H).\ntail([_|T], T).\n"
    first = parse_program(src)
    want = list(first)
    first.append(parse_clause("extra."))
    first.reverse()
    second = parse_program(src)
    assert second == want and second is not first
    # the text was parsed once: the clauses themselves are shared
    assert all(a is b for a, b in zip(second, parse_program(src)))
