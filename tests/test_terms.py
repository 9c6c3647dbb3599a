import dataclasses
import random
import sys

import pytest
from hypothesis import given, strategies as st

import lamping.terms
import reference_parsers
from lamping.derivations import check_derivation
from lamping.terms import (
    Abs, App, FuelExhausted, NotNormal, TermSyntaxError, Var, alpha_eq,
    beta_normalize, beta_step, free_vars, fresh_name, head_decompose,
    head_reassemble, is_normal, parse_term, show_term, subst, term_size,
)
from test_readback import church_sz
from test_tower import tower

TWO = "(\\s.\\z.s (s z))"


def test_parse_identity():
    assert parse_term("\\x.x") == Abs("x", Var("x"))


def test_parse_running_example_application():
    t = parse_term("(\\x.f x x)(\\z.g z)")
    assert t == App(
        Abs("x", App(App(Var("f"), Var("x")), Var("x"))),
        Abs("z", App(Var("g"), Var("z"))),
    )


def test_parse_left_associative():
    assert parse_term("f x y") == App(App(Var("f"), Var("x")), Var("y"))


def test_parse_body_extends_right():
    assert parse_term("\\x.f x") == Abs("x", App(Var("f"), Var("x")))


def test_parse_error_carries_position():
    with pytest.raises(TermSyntaxError) as e:
        parse_term("\\x.")
    assert e.value.pos == 3


def _parse_outcome(parse, text):
    try:
        return "ok", parse(text)
    except TermSyntaxError as e:
        return str(e), e.pos


def test_parse_matches_the_recursive_parser():
    """20000 seeded strings over the grammar's characters: the same term,
    or the same message at the same position."""
    rng = random.Random(0)
    pieces = ["\\", "λ", "x", "y", "f", " ", ".", "(", ")", "ab", "\n", "1", "#"]
    accepted = 0
    for _ in range(20000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randrange(14)))
        expected = _parse_outcome(reference_parsers.parse_term, text)
        assert _parse_outcome(parse_term, text) == expected, text
        accepted += expected[0] == "ok"
    assert accepted > 1000


def test_parse_reads_deep_nesting_at_the_default_recursion_limit():
    """1500 nested parentheses and 1500 nested abstractions parse without
    recursion and print back; an unclosed one fails where it did."""
    apps = "(f " * 1500 + "x" + ")" * 1500
    binders = "".join(f"\\x{i}." for i in range(1500)) + "x0"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        t = parse_term(apps)
        u = parse_term(binders)
        same = _same(parse_term("(" * 1500 + "x" + ")" * 1500), Var("x"))
        t_text, u_text = show_term(t), show_term(u)
        t_back, u_back = _same(parse_term(t_text), t), _same(parse_term(u_text), u)
        with pytest.raises(TermSyntaxError) as e:
            parse_term("(" * 1500 + "x")
    finally:
        sys.setrecursionlimit(limit)
    assert same and t_back and u_back
    assert t_text == "f (" * 1499 + "f x" + ")" * 1499
    assert u_text == binders
    assert e.value.pos == 1501


def test_beta_single_step():
    assert alpha_eq(beta_normalize(parse_term("(\\x.x) y")), Var("y"))


def test_beta_running_example():
    t = beta_normalize(parse_term("(\\x.f x x)(\\z.g z)"))
    assert alpha_eq(t, parse_term("f (\\z.g z) (\\z.g z)"))


def test_beta_church_two_squared():
    t = beta_normalize(parse_term(f"{TWO} {TWO} s z"))
    assert alpha_eq(t, parse_term("s (s (s (s z)))"))


def test_beta_fuel_exhausted_on_omega():
    omega = parse_term("(\\x.x x)(\\x.x x)")
    with pytest.raises(FuelExhausted):
        beta_normalize(omega, fuel=100)


def test_beta_rejects_nonpositive_fuel():
    with pytest.raises(ValueError):
        beta_normalize(Var("x"), fuel=0)


def test_alpha_examples():
    assert alpha_eq(parse_term("\\x.x"), parse_term("\\y.y"))
    assert not alpha_eq(parse_term("\\x.\\y.x"), parse_term("\\x.\\y.y"))
    assert alpha_eq(parse_term("f (\\z.g z) (\\z.g z)"),
                    parse_term("f (\\w.g w) (\\z.g z)"))


def test_head_decompose_paper_shape():
    n, head, args = head_decompose(parse_term("\\x.y (\\z.z x) w"))
    assert n == 1
    assert head == ("free", "y")
    assert [show_term(a) for a in args] == ["\\z.z x", "w"]


def test_head_decompose_variable():
    assert head_decompose(Var("x")) == (0, ("free", "x"), ())


def test_head_decompose_bound_head():
    n, head, args = head_decompose(parse_term("\\x.\\y.x"))
    assert (n, head, args) == (2, ("bound", 1), ())


def test_head_decompose_rejects_redex():
    with pytest.raises(NotNormal):
        head_decompose(parse_term("(\\x.x) y"))


def test_term_size():
    from lamping.terms import term_size
    assert term_size(parse_term("\\x.f x x")) == 6


# -- the one-pass oracle against a restart-from-root reference ----------------

def _reference_normalize(t, fuel):
    """Search for the leftmost-outermost redex from the root before every
    contraction; returns the normal form and the number of contractions.
    A term that needs `fuel` or more contractions exhausts the fuel."""
    for steps in range(fuel):
        u = beta_step(t)
        if u is None:
            return t, steps
        t = u
    raise FuelExhausted


def _same(a, b):
    """Structural equality, binder names included, without recursion."""
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        if type(a) is not type(b):
            return False
        if isinstance(a, Var):
            if a.name != b.name:
                return False
        elif isinstance(a, Abs):
            if a.binder != b.binder:
                return False
            todo.append((a.body, b.body))
        else:
            todo.append((a.fun, b.fun))
            todo.append((a.arg, b.arg))
    return True


def _s_power(t):
    """n when t is S applied n times to Z, else None; walks iteratively."""
    n = 0
    while isinstance(t, App) and t.fun == Var("S"):
        t, n = t.arg, n + 1
    return n if t == Var("Z") else None


NAMES = ["a", "b", "c", "f", "x", "y", "z"]


def _random_term(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.2:
        return Var(rng.choice(NAMES))
    if roll < 0.45:
        return Abs(rng.choice(NAMES), _random_term(rng, depth - 1))
    if roll < 0.7:  # a redex, so that most terms need several contractions
        return App(Abs(rng.choice(NAMES), _random_term(rng, depth - 1)),
                   _random_term(rng, depth - 1))
    return App(_random_term(rng, depth - 1), _random_term(rng, depth - 1))


def test_normalize_matches_the_restart_from_root_reference():
    rng = random.Random(0)
    diverging = [parse_term(text) for text in (
        "(\\x.x x) (\\x.x x)", "(\\x.x x x) (\\x.x x x)",
        "\\y.f y ((\\x.x x) (\\x.x x))")]
    outcomes = set()
    for t in diverging + [_random_term(rng, rng.randint(2, 6)) for _ in range(2000)]:
        try:
            expected, needed = _reference_normalize(t, 100)
        except FuelExhausted:
            with pytest.raises(FuelExhausted):
                beta_normalize(t, 100)
            outcomes.add("diverges")
            continue
        outcomes.add(min(needed, 2))
        for fuel in {1, needed, needed + 1} - {0}:
            if fuel <= needed:
                with pytest.raises(FuelExhausted):
                    beta_normalize(t, fuel)
            else:
                assert _same(beta_normalize(t, fuel), expected), show_term(t)
    assert outcomes == {0, 1, 2, "diverges"}


def _reference_subst(t, x, u):
    """t{u/x}, recomputing free_vars(u) at every abstraction."""
    if isinstance(t, Var):
        return u if t.name == x else t
    if isinstance(t, App):
        return App(_reference_subst(t.fun, x, u), _reference_subst(t.arg, x, u))
    if t.binder == x:
        return t
    if t.binder in free_vars(u) and x in free_vars(t.body):
        b = fresh_name(t.binder, free_vars(u) | free_vars(t.body) | {x})
        return Abs(b, _reference_subst(_reference_subst(t.body, t.binder, Var(b)), x, u))
    return Abs(t.binder, _reference_subst(t.body, x, u))


def test_subst_matches_the_reference_including_fresh_names():
    def binders(t):
        todo, out = [t], set()
        while todo:
            t = todo.pop()
            if isinstance(t, Abs):
                out.add(t.binder)
                todo.append(t.body)
            elif isinstance(t, App):
                todo += [t.fun, t.arg]
        return out

    rng = random.Random(1)
    renamed = 0
    for _ in range(3000):
        t, u, x = _random_term(rng, 5), _random_term(rng, 3), rng.choice(NAMES)
        expected = _reference_subst(t, x, u)
        assert _same(subst(t, x, u), expected), (show_term(t), x, show_term(u))
        renamed += not binders(expected) <= binders(t) | binders(u)
    assert renamed  # some cases took a fresh binder to avoid capture


def test_each_contraction_is_one_beta_step_call(monkeypatch):
    t = parse_term(f"{TWO} {TWO} {TWO} s z")
    expected, needed = _reference_normalize(t, 1000)
    calls = []

    def counting(u):
        calls.append(u)
        return beta_step(u)

    monkeypatch.setattr(lamping.terms, "beta_step", counting)
    assert _same(beta_normalize(t), expected)
    assert len(calls) == needed > 0


def test_tower_12_normalizes_without_recursion_limit():
    """\\s. 2 (2 (... (2 s))) with 12 twos, applied to S Z: the normal
    form is 4096 applications deep, past the default recursion limit."""
    k = 12
    t = parse_term(f"(\\s.{f'{TWO} (' * k}s{')' * k}) S Z")
    assert _s_power(beta_normalize(t)) == 2 ** k


def _s_power_term(n, zero="Z"):
    """S applied n times to Z, built node by node."""
    t = Var(zero)
    for _ in range(n):
        t = App(Var("S"), t)
    return t


def test_term_utilities_walk_deep_terms_at_the_default_recursion_limit():
    """S^1024 Z, the tower 10 normal form, and 1024 nested abstractions
    are deeper than CPython's default limit of 1000 frames; each is also
    printed."""
    deep = _s_power_term(1024)

    def nest(stem, inner):
        t = Var(inner)
        for i in range(1024):
            t = Abs(f"{stem}{i % 3}", App(Var(f"{stem}{i % 3}"), t))
        return t

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert free_vars(deep) == {"S", "Z"}
        assert term_size(deep) == 2 * 1024 + 1
        assert is_normal(deep) and is_normal(nest("x", "z"))
        assert not is_normal(App(Abs("y", Var("y")), deep))
        assert alpha_eq(deep, _s_power_term(1024))
        assert not alpha_eq(deep, _s_power_term(1023))
        assert not alpha_eq(deep, _s_power_term(1024, "Y"))  # free names count
        assert free_vars(nest("x", "z")) == {"z"}
        assert term_size(nest("x", "z")) == 3 * 1024 + 1
        assert alpha_eq(nest("x", "x0"), nest("y", "y0"))
        assert not alpha_eq(nest("x", "x1"), nest("y", "y0"))
        assert show_term(deep) == "S (" * 1023 + "S Z" + ")" * 1023
        assert show_term(nest("x", "z")) == (
            "".join(f"\\x{i % 3}.x{i % 3} (" for i in range(1023, 0, -1))
            + "\\x0.x0 z" + ")" * 1023)
    finally:
        sys.setrecursionlimit(limit)


def test_free_vars_are_kept_on_the_node_outside_the_fields():
    t = parse_term("\\x.f x (\\y.y z)")
    assert free_vars(t) == {"f", "z"}
    assert free_vars(t) is free_vars(t)  # computed once, then read back
    assert free_vars(t.body.arg) is free_vars(t.body.arg)  # filled in on the way
    assert [f.name for f in dataclasses.fields(Abs)] == ["binder", "body"]
    assert t == parse_term("\\x.f x (\\y.y z)")  # a fresh, unvisited twin
    assert hash(t) == hash(parse_term("\\x.f x (\\y.y z)"))
    assert repr(t) == repr(parse_term("\\x.f x (\\y.y z)"))


def test_subst_only_walks_the_path_to_the_variable(monkeypatch):
    """One x at depth 50 beside x-free siblings of 401 nodes each: the
    substitution calls `subst` on the path and on each sibling once,
    never inside a sibling, and hands the siblings back as they are."""
    sibling = _s_power_term(200)
    t = Var("x")
    for _ in range(50):
        t = App(sibling, Abs("w", t))
    u = App(Var("f"), Var("w"))
    expected = _reference_subst(t, "x", u)
    calls = []
    inner = lamping.terms.subst

    def counting(*args):
        calls.append(args[0])
        return inner(*args)

    monkeypatch.setattr(lamping.terms, "subst", counting)
    out = lamping.terms.subst(t, "x", u)
    assert _same(out, expected)
    # per level: the application, its sibling, the abstraction, and the
    # renaming of w (u mentions w), which finds w not free in the body
    assert len(calls) <= 4 * 50 + 1
    probe = out
    for _ in range(50):
        assert probe.fun is sibling and probe.arg.binder == "w0"
        probe = probe.arg.body
    assert probe is u
    calls.clear()
    assert lamping.terms.subst(sibling, "x", u) is sibling
    assert len(calls) == 1


@pytest.mark.parametrize("name", [f"tower{k}" for k in range(1, 7)] + ["church_sz16"])
def test_normalize_matches_the_reference_on_the_bench_families(name, monkeypatch):
    """Binder names included, against restarting from the root, first with
    the oracle's substitution, then with the copying reference."""
    d = church_sz(16) if name == "church_sz16" else tower(int(name[5:]))
    subject = check_derivation(d, "eal").subject
    normal = beta_normalize(subject)
    assert _same(normal, _reference_normalize(subject, 10 ** 5)[0])
    monkeypatch.setattr(lamping.terms, "subst", _reference_subst)
    assert _same(normal, _reference_normalize(subject, 10 ** 5)[0])


# -- property tests ----------------------------------------------------------

_names = st.sampled_from(["a", "b", "c", "f", "x", "y", "z"])


def _terms(depth):
    if depth == 0:
        return st.builds(Var, _names)
    sub = _terms(depth - 1)
    return st.one_of(
        st.builds(Var, _names),
        st.builds(Abs, _names, sub),
        st.builds(App, sub, sub),
    )


def _reference_show_term(t):
    """A recursive printer: the reference for show_term's text, byte for
    byte."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Abs):
        return f"\\{t.binder}.{_reference_show_term(t.body)}"
    fun = _reference_show_term(t.fun)
    if isinstance(t.fun, Abs):
        fun = f"({fun})"
    arg = _reference_show_term(t.arg)
    if isinstance(t.arg, (Abs, App)):
        arg = f"({arg})"
    return f"{fun} {arg}"


@given(_terms(4))
def test_print_parse_roundtrip(t):
    assert show_term(t) == _reference_show_term(t)
    assert alpha_eq(parse_term(show_term(t)), t)


@given(_terms(4))
def test_normalize_idempotent(t):
    try:
        n = beta_normalize(t, fuel=200)
    except FuelExhausted:
        return
    assert is_normal(n)
    assert alpha_eq(beta_normalize(n, fuel=200), n)


@given(_terms(4))
def test_head_reassemble_inverse(t):
    try:
        n = beta_normalize(t, fuel=200)
    except FuelExhausted:
        return
    count, head, args = head_decompose(n)
    binders = []
    probe = n
    for _ in range(count):
        binders.append(probe.binder)
        probe = probe.body
    assert alpha_eq(head_reassemble(count, head, args, binders), n)
