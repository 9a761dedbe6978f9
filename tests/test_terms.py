import sys

import pytest
from hypothesis import given, settings, strategies as st

from abdlearn.parser import parse_clause, parse_term
from abdlearn.terms import (
    NIL,
    Atom,
    Clause,
    Int,
    Struct,
    Subst,
    Sym,
    Var,
    fresh_name,
    mk_list,
    pretty_clause,
    print_clause,
    print_term,
    proper_list_items,
    rename_apart,
    rename_term,
    occurs,
    term_vars,
    unify,
)


def t(src):
    return parse_term(src)


class TestUnify:
    def test_var_binds_constant(self):
        s = unify(Var("X"), Int(3))
        assert s is not None
        assert s.apply(Var("X")) == Int(3)

    def test_mismatched_constants(self):
        assert unify(Int(3), Int(4)) is None
        assert unify(Sym("a"), Sym("b")) is None
        assert unify(Int(3), Sym("a")) is None

    def test_structural(self):
        # checked by applying the unifier back to both sides
        a = t("f(X,g(Y))")
        b = t("f(g(Z),g(2))")
        s = unify(a, b)
        assert s is not None
        assert s.apply(a) == s.apply(b)
        assert s.apply(Var("Y")) == Int(2)
        assert s.apply(Var("X")) == s.apply(t("g(Z)"))

    def test_occurs_check_rejects(self):
        assert unify(Var("X"), t("f(X)")) is None

    def test_lists(self):
        s = unify(t("[1,2|T]"), t("[1,2,3]"))
        assert s is not None
        assert s.apply(Var("T")) == t("[3]")

    def test_apply_is_idempotent(self):
        a = t("f(X,g(Y),Z)")
        b = t("f(h(Y),g(k(W)),W)")
        s = unify(a, b)
        assert s is not None
        once = s.apply(a)
        assert s.apply(once) == once


# random term generator for the symmetry property
_names = st.sampled_from(["a", "b", "c", "f", "g"])


def _terms(depth, var_names=("X", "Y", "Z")):
    vars_ = st.sampled_from(var_names).map(Var)
    if depth == 0:
        return st.one_of(
            st.integers(-5, 5).map(Int),
            _names.map(Sym),
            vars_,
        )
    sub = _terms(depth - 1, var_names)
    return st.one_of(
        st.integers(-5, 5).map(Int),
        _names.map(Sym),
        vars_,
        st.tuples(_names, st.lists(sub, min_size=1, max_size=3)).map(
            lambda p: Struct(p[0], tuple(p[1]))
        ),
    )


def _variants(a, b, mapping):
    """Structural equality up to a bijective variable renaming."""
    if isinstance(a, Var) and isinstance(b, Var):
        fwd = mapping.setdefault(("f", a.name), b.name)
        bwd = mapping.setdefault(("b", b.name), a.name)
        return fwd == b.name and bwd == a.name
    if type(a) is not type(b):
        return False
    if isinstance(a, Struct):
        return (
            a.functor == b.functor
            and len(a.args) == len(b.args)
            and all(_variants(x, y, mapping) for x, y in zip(a.args, b.args))
        )
    return a == b


@given(_terms(2), _terms(2))
@settings(max_examples=200, deadline=None)
def test_unify_symmetric(a, b):
    s1 = unify(a, b)
    s2 = unify(b, a)
    assert (s1 is None) == (s2 is None)
    if s1 is not None:
        # each unifier equalizes both inputs, and the results coincide
        # up to variable renaming
        assert s1.apply(a) == s1.apply(b)
        assert s2.apply(a) == s2.apply(b)
        assert _variants(s1.apply(a), s2.apply(a), {})


@given(_terms(2))
@settings(max_examples=200, deadline=None)
def test_print_parse_roundtrip(term):
    assert parse_term(print_term(term)) == term


class TestRenameApart:
    def test_fresh_names_never_collide(self):
        c = parse_clause("p(X,Y) :- q(X,Z), r(Z,Y).")
        r1 = rename_apart(c)
        r2 = rename_apart(c)
        v1 = {v.name for a in (r1.head, *r1.body) for t_ in a.args for v in [t_] if isinstance(v, Var)}
        v2 = {v.name for a in (r2.head, *r2.body) for t_ in a.args for v in [t_] if isinstance(v, Var)}
        assert v1.isdisjoint(v2)

    def test_shared_vars_stay_shared(self):
        c = parse_clause("p(X) :- q(X,X).")
        r = rename_apart(c)
        hx = r.head.args[0]
        assert r.body[0].args == (hx, hx)

    @pytest.mark.parametrize("text", ["f(A,B) :- add(A,C), f(C,B).", "p([X|T], Y) :- q(T, [Y,X|T])."])
    def test_one_var_object_per_variable(self, text):
        # the first is the chain metarule's clause for the sum program
        r = rename_apart(parse_clause(text))
        seen = {}

        def walk(t):
            if isinstance(t, Var):
                assert seen.setdefault(t.name, t) is t
            elif isinstance(t, Struct):
                for a in t.args:
                    walk(a)

        for a in (r.head, *r.body):
            for t_ in a.args:
                walk(t_)
        # fresh names are numbered in first-occurrence order
        nums = [int(n[2:]) for n in seen]
        assert nums == list(range(nums[0], nums[0] + len(nums)))

    def test_counter_monotone(self):
        a = fresh_name()
        b = fresh_name()
        assert a != b


class TestListsAndPrinting:
    def test_mk_list_roundtrip(self):
        lst = mk_list([Int(1), Int(2), Int(3)])
        assert print_term(lst) == "[1,2,3]"
        assert proper_list_items(lst) == [Int(1), Int(2), Int(3)]

    def test_open_tail_prints_bar(self):
        lst = mk_list([Int(1)], tail=Var("T"))
        assert print_term(lst) == "[1|T]"
        assert proper_list_items(lst) is None

    def test_nil(self):
        assert print_term(NIL) == "[]"

    def test_clause_print(self):
        c = Clause(Atom("f", (Var("A"), Var("B"))), (Atom("eq", (Var("A"), Var("B"))),))
        assert print_clause(c) == "f(A,B) :- eq(A,B)."

    def test_pretty_normalizes_vars(self):
        c = parse_clause("f(Foo,Bar) :- add(Foo,Baz), f(Baz,Bar).")
        assert pretty_clause(c) == "f(A,B) :- add(A,C), f(C,B)."


class TestSubst:
    def test_walk_chases_chains(self):
        s = Subst().bind("X", Var("Y")).bind("Y", Int(2))
        assert s.walk(Var("X")) == Int(2)

    def test_apply_resolves_fixed_point(self):
        s = Subst().bind("X", Struct("g", (Var("Y"),))).bind("Y", Int(2))
        out = s.apply(Var("X"))
        assert out == t("g(2)")
        assert s.apply(out) == out


# ---------------------------------------------------------------------------
# Groundness: the cached flag and the walkers that trust it
# ---------------------------------------------------------------------------

# Plain recursive versions that ignore the ground flag.


def _ref_ground(t) -> bool:
    if isinstance(t, Var):
        return False
    if isinstance(t, Struct):
        return all(_ref_ground(a) for a in t.args)
    return True


def _ref_occurs(name, t, s) -> bool:
    t = s.walk(t)
    if isinstance(t, Var):
        return t.name == name
    if isinstance(t, Struct):
        return any(_ref_occurs(name, a, s) for a in t.args)
    return False


def _ref_apply(s, t):
    t = s.walk(t)
    if isinstance(t, Struct):
        return Struct(t.functor, tuple(_ref_apply(s, a) for a in t.args))
    return t


def _ref_rename(t, mapping):
    if isinstance(t, Var):
        return Var(mapping.get(t.name, t.name))
    if isinstance(t, Struct):
        return Struct(t.functor, tuple(_ref_rename(a, mapping) for a in t.args))
    return t


def _ref_vars(t, acc):
    if isinstance(t, Var):
        if t.name not in acc:
            acc.append(t.name)
    elif isinstance(t, Struct):
        for a in t.args:
            _ref_vars(a, acc)
    return acc


def _flags_agree(t) -> bool:
    """Every Struct inside t carries the ground flag its contents imply."""
    if isinstance(t, Struct):
        return t.ground == _ref_ground(t) and all(_flags_agree(a) for a in t.args)
    return True


# Acyclic triangular substitutions: X may mention Y, Z, W; Y may mention Z, W.
_substs = st.builds(
    lambda x, y: Subst({k: v for k, v in (("X", x), ("Y", y)) if v is not None}),
    st.none() | _terms(2, ("Y", "Z", "W")),
    st.none() | _terms(2, ("Z", "W")),
)


@given(_terms(3), _substs)
@settings(max_examples=300, deadline=None)
def test_ground_flag_and_walkers_match_reference(term, s):
    assert _flags_agree(term)
    if isinstance(term, Struct):
        assert term.ground == (term_vars(term) == [])
    assert term_vars(term) == _ref_vars(term, [])
    for name in ("X", "Y", "Z", "W"):
        assert occurs(name, term, s) == _ref_occurs(name, term, s)
    out = s.apply(term)
    assert out == _ref_apply(s, term)
    assert _flags_agree(out)
    if isinstance(term, Struct) and term.ground:
        assert out is term
    mapping = {"X": "A", "Z": "X"}
    renamed = rename_term(term, mapping)
    assert renamed == _ref_rename(term, mapping)
    assert _flags_agree(renamed)


class _Untouchable(tuple):
    def __iter__(self):
        raise AssertionError("walked into a ground term")

    def __getitem__(self, i):
        raise AssertionError("walked into a ground term")


def _sealed(t: Struct) -> Struct:
    """t with its arguments made unreadable; its ground flag stays set."""
    assert t.ground
    object.__setattr__(t, "args", _Untouchable(t.args))
    return t


def test_walkers_return_at_once_on_ground_structs():
    s = Subst().bind("X", Int(1))
    g = _sealed(mk_list([Int(i) for i in range(50)]))
    assert s.apply(g) is g
    assert not occurs("X", g, s)
    assert term_vars(g) == []
    assert rename_term(g, {"X": "Y"}) is g
    # as an argument of a term with variables, the ground part is shared
    h = Struct("f", (Var("X"), g))
    applied = s.apply(h)
    assert applied == Struct("f", (Int(1), g)) and applied.args[1] is g
    assert rename_apart(Clause(Atom("p", (Var("X"), g)), ())).head.args[1] is g


def test_walkers_take_terms_deeper_than_the_recursion_limit():
    deep = Var("X")
    for _ in range(3 * sys.getrecursionlimit()):
        deep = Struct("s", (deep,))
    assert occurs("X", deep, Subst()) and not occurs("Y", deep, Subst())
    assert term_vars(deep) == ["X"]
    out, depth = Subst().bind("X", Int(7)).apply(deep), 0
    while isinstance(out, Struct) and out.ground and out.functor == "s":
        out, depth = out.args[0], depth + 1
    assert depth == 3 * sys.getrecursionlimit() and out == Int(7)


def test_apply_of_ground_term_is_identity():
    s = Subst().bind("X", Int(1)).bind("T", t("[4,5]"))
    g = t("f([1,2,3],g(a),[])")
    assert g.ground and s.apply(g) is g
    assert s.apply(Var("T")) is s.get("T")
    opened = t("[1,2|T]")
    assert not opened.ground
    closed = s.apply(opened)
    assert closed == t("[1,2,4,5]") and closed.ground


# ---------------------------------------------------------------------------
# Value semantics and immutability of the term classes
# ---------------------------------------------------------------------------

_TWINS = [
    lambda: Var("a"),
    lambda: Int(3),
    lambda: Sym("a"),
    lambda: Struct("f", (Int(1), Var("X"))),
    lambda: Atom("p", (Sym("a"), Var("X"))),
    lambda: Clause(Atom("p", (Var("X"),)), (Atom("q", (Var("X"), Var("Y"))),)),
]


@pytest.mark.parametrize("make", _TWINS)
def test_equal_and_hash_by_value(make):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_unequal_values_and_classes():
    assert Var("a") != Sym("a") and Sym("a") != Var("a")
    assert Int(1) != Int(2) and Var("a") != Var("b")
    assert Struct("f", (Int(1),)) != Struct("g", (Int(1),)) != Struct("g", (Int(2),))
    assert Atom("p", ()) != Struct("p", ())
    assert Int(1) != 1 and Sym("a") != "a"


def test_struct_equality_ignores_ground():
    a, b = Struct("f", (Int(1),)), Struct("f", (Int(1),))
    object.__setattr__(b, "ground", False)
    assert a.ground and not b.ground
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize(
    "term, field",
    [
        (Var("a"), "name"),
        (Int(3), "value"),
        (Sym("a"), "name"),
        (Struct("f", (Int(1),)), "args"),
        (Struct("f", (Int(1),)), "ground"),
        (Atom("p", ()), "pred"),
        (Clause(Atom("p", ()), ()), "head"),
        (Clause(Atom("p", ()), ()), "head_plan"),
    ],
)
def test_fields_cannot_be_assigned_or_deleted(term, field):
    before = getattr(term, field)
    with pytest.raises(AttributeError):
        setattr(term, field, None)
    with pytest.raises(AttributeError):
        delattr(term, field)
    with pytest.raises(AttributeError):
        term.extra = 1
    assert getattr(term, field) is before


def test_clause_slot_form():
    # variables are numbered head first; ground subterms are kept whole
    c = parse_clause("p([X|T], f(a, [1,2]), Y) :- q(T, [Y,X|T], Z), r.")
    ground = t("f(a, [1,2])")
    assert c.frame_size == 4
    assert c.head_plan == ((".", (0, 1)), ground, 2)
    assert c.head_plan[1] is c.head.args[1]
    assert c.body_plan == (("q", (1, (".", (2, (".", (0, 1)))), 3)), ("r", ()))
