import re
import sys
from collections import Counter
from pathlib import Path

import pytest

import lamping.derivations
import lamping.terms
from lamping.corpus import _church, build
from lamping.derivations import (
    Derivation, RuleViolation, ax, bang, bang2, check_annotated,
    check_derivation, contract, cut, derivation_subject, lam, llolli,
    parse_derivation, show_derivation, to_eal_image, weak,
)
from lamping.formulas import (
    Atom, Bang, Lolli, Para, erase_para, formula_eq, parse_formula, show_formula,
)
from lamping.proofnets import build_proofnet
from lamping.terms import (
    Abs, App, Var, alpha_eq, beta_normalize, free_vars, parse_term, show_term,
    subst,
)
from test_randomized import Gen, LalGen
from test_readback import church_sz
from test_tower import tower
from test_weight_golden import church_identity

A = Atom("a")
B = Atom("b")
AA = Lolli(A, A)


def test_axiom_judgement():
    j = check_derivation(ax("x", A))
    assert j.ctx == (("x", A),)
    assert alpha_eq(j.subject, parse_term("x"))
    assert formula_eq(j.type, A)


def test_running_example_accepted():
    mode, d = build("running_example")
    j = check_derivation(d, mode)
    assert alpha_eq(j.subject, parse_term("(\\x.f x x)(\\z.g z)"))
    assert j.ctx_names() == ("f", "g")
    assert show_formula(j.lookup("f")) == "!(a -o a) -o !(a -o a) -o b"
    assert show_formula(j.lookup("g")) == "!(a -o a)"
    assert formula_eq(j.type, Atom("b"))


def test_contraction_requires_bang():
    d = contract("x1", "x2", "x",
                 llolli("f", "h",
                        ax("x1", AA),
                        llolli("h", "u", ax("x2", AA), ax("u", Atom("b")))))
    with pytest.raises(RuleViolation, match="!-type"):
        check_derivation(d)


def test_pbang2_requires_single_hypothesis():
    two_hyps = weak("y", A, ax("x", AA))
    with pytest.raises(RuleViolation, match="exactly one"):
        check_derivation(bang2(two_hyps), "lal")


def test_violation_reports_node_path():
    from lamping.derivations import lam
    bad = contract("x1", "x2", "x",
                   llolli("f", "h",
                          ax("x1", AA),
                          llolli("h", "u", ax("x2", AA), ax("u", Atom("b")))))
    deep = lam("x", bad)
    with pytest.raises(RuleViolation) as e:
        check_derivation(deep)
    assert e.value.path == (0,)


def test_pbang_rejected_in_lal():
    with pytest.raises(RuleViolation):
        check_derivation(bang(ax("x", A)), "lal")


def test_para_rejected_in_eal():
    with pytest.raises(RuleViolation, match="paragraph"):
        check_derivation(ax("x", Para(A)), "eal")


def test_forall_freshness_enforced():
    from lamping.derivations import forall_r
    with pytest.raises(RuleViolation, match="occurs free"):
        check_derivation(forall_r("a", ax("x", A)))


def test_church2_subject():
    mode, d = build("church2")
    assert alpha_eq(derivation_subject(d, mode), parse_term("\\s.\\z.s (s z)"))


def test_erase_para_examples():
    assert erase_para(parse_formula("$(a -o a)")) == parse_formula("!(a -o a)")
    f = parse_formula("!a")
    assert erase_para(f) == f
    w = parse_formula("forall a.!(a -o a) -o !(a -o a) -o $(a -o a)")
    assert erase_para(w) == parse_formula(
        "forall a.!(a -o a) -o !(a -o a) -o !(a -o a)")


def test_formula_roundtrip_corpus():
    for text in ["a", "a -o a", "!(a -o a) -o !a -o !a",
                 "forall t.!(t -o t) -o !t -o !t", "mu t.t -o a",
                 "$(a -o a)", "!(a -o a) -o $a -o $a"]:
        f = parse_formula(text)
        assert formula_eq(parse_formula(show_formula(f)), f)


def test_derivation_text_roundtrip(corpus):
    for name, (mode, d) in corpus.items():
        assert parse_derivation(show_derivation(d)) == d


def test_annotated_form_roundtrips_too(corpus):
    for name, (mode, d) in corpus.items():
        annotated = show_derivation(d, judgements=True, mode=mode)
        assert "|-" in annotated
        assert parse_derivation(annotated) == d


def test_lal_to_eal_image(corpus):
    for name, (mode, d) in corpus.items():
        if mode != "lal":
            continue
        img = to_eal_image(d)
        j_lal = check_derivation(d, "lal")
        j_eal = check_derivation(img, "eal")
        assert alpha_eq(j_lal.subject, j_eal.subject)
        assert formula_eq(erase_para(j_lal.type), j_eal.type)


def _rename(d: Derivation, pre: str) -> Derivation:
    data = []
    for k, v in d.data:
        if k in ("var", "a", "b", "z", "fun"):
            data.append((k, pre + v))
        elif k == "bang":
            data.append((k, tuple(pre + x for x in v)))
        else:
            data.append((k, v))
    return Derivation(d.rule, tuple(data), tuple(_rename(p, pre) for p in d.premises))


def test_subject_stable_under_renaming(corpus):
    from lamping.terms import free_vars, subst, Var
    for name, (mode, d) in corpus.items():
        renamed = _rename(d, "r_")
        expected = derivation_subject(d, mode)
        for v in sorted(free_vars(expected)):
            expected = subst(expected, v, Var("r_" + v))
        assert alpha_eq(expected, derivation_subject(renamed, mode))


def test_subjects_normalize_within_fuel(corpus):
    for name, (mode, d) in corpus.items():
        beta_normalize(derivation_subject(d, mode), fuel=10 ** 4)


def test_corpus_files_match_builders(corpus):
    from pathlib import Path
    root = Path(__file__).resolve().parents[1] / "corpus"
    for name, (mode, d) in corpus.items():
        path = root / f"{name}.{mode}"
        assert path.exists(), f"missing corpus file for {name}"
        assert parse_derivation(path.read_text()) == d


# subjects ------------------------------------------------------------------

def reference_subject(d: Derivation) -> dict[tuple[int, ...], object]:
    """Every node's subject by the rules, substituting at each node:
    A gives x, RLolli \\x.t, U t{u/x}, LLolli t{y u/x}, X t{z/a}{z/b}."""
    out = {}

    def go(n, path):
        subs = [go(p, path + (i,)) for i, p in enumerate(n.premises)]
        if n.rule == "A":
            t = Var(n.get("var"))
        elif n.rule == "U":
            t = subst(subs[1], n.get("var"), subs[0])
        elif n.rule == "X":
            z = Var(n.get("z"))
            t = subst(subst(subs[0], n.get("a"), z), n.get("b"), z)
        elif n.rule == "RLolli":
            t = Abs(n.get("var"), subs[0])
        elif n.rule == "LLolli":
            t = subst(subs[1], n.get("var"), App(Var(n.get("fun")), subs[0]))
        else:
            (t,) = subs
        out[path] = t
        return t

    go(d, ())
    return out


def _nodes(d):
    stack = [((), d)]
    while stack:
        path, n = stack.pop()
        yield path, n
        stack.extend((path + (i,), p) for i, p in enumerate(n.premises))


def _reference_inputs():
    """name -> (mode, derivation)."""
    root = Path(__file__).resolve().parents[1] / "corpus"
    out = {p.name: (p.suffix[1:], parse_derivation(p.read_text()))
           for p in sorted(root.iterdir())}
    for seed in range(40):
        out[f"gen{seed}"] = ("eal", Gen(seed).grow())
        out[f"lalgen{seed}"] = ("lal", LalGen(seed).grow())
    for n in (16, 32, 48):
        out[f"church_identity{n}"] = ("eal", church_identity(n))
        out[f"church_sz{n}"] = ("eal", church_sz(n))
    for k in range(1, 10):
        out[f"tower{k}"] = ("eal", tower(k))
    return out


REFERENCE_INPUTS = _reference_inputs()


@pytest.mark.parametrize("name", sorted(REFERENCE_INPUTS))
def test_subject_is_the_rule_by_rule_subject(name):
    """Binder names included, at the root and at every node, checked
    alone and as printed by the annotated form (premises first in order)."""
    mode, d = REFERENCE_INPUTS[name]
    expected = reference_subject(d)
    assert check_derivation(d, mode).subject == expected[()]
    for path, node in _nodes(d):
        assert derivation_subject(node, mode) == expected[path], path
    annotated = show_derivation(d, judgements=True, mode=mode)
    assert re.findall(r"\|- (.*?) : ", annotated) == [show_term(expected[path])
                                                      for path in sorted(expected)]


def test_post_order_is_the_premises_first_order_without_paths():
    from lamping.derivations import _post_order, _premises_first
    for name, (_, d) in REFERENCE_INPUTS.items():
        nodes = [n for n, _ in _premises_first(d)]
        order = _post_order(d)
        assert len(order) == len(nodes), name
        assert all(a is b for a, b in zip(order, nodes)), name


def _f_applied_to(x1: str, x2: str):
    """f:!a -o !a -o b, x1:!a, x2:!a |- f x1 x2 : b."""
    body = llolli("h", "u", ax(x2, Bang(A)), ax("u", B))
    return llolli("f", "h", ax(x1, Bang(A)), body)


# each substituting rule, with the substituted term free in a binder's name;
# then a binder renamed inside a renamed binder, and a binder of the cut
# variable, where the substitution stops
CAPTURES = {
    "cut": (cut("v", ax("w", A), lam("w", weak("w", A, ax("v", A)))), "\\w0.w"),
    "cut, nested": (cut("v", ax("w", AA), lam("w", lam("w0", weak("w0", A, llolli(
        "v", "r", ax("w", A), ax("r", A)))))), "\\w0.\\w1.w w0"),
    "cut, stopped": (cut("x", ax("c", A), weak("x", A, lam("x", lam("c", weak(
        "c", A, ax("x", A)))))), "\\x.\\c.x"),
    "contraction": (contract("a", "b", "z", lam("z", weak("z", A, _f_applied_to("a", "b")))),
                    "\\z0.f z z"),
    "left arrow, function": (llolli("g", "x", ax("y", A), lam("g", weak("g", A, ax("x", B)))),
                             "\\g0.g y"),
    "left arrow, argument": (llolli("f", "x", ax("y", A), lam("y", weak("y", A, ax("x", B)))),
                             "\\y0.f y"),
}


@pytest.mark.parametrize("rule", sorted(CAPTURES))
def test_subject_avoids_capture(rule):
    d, shown = CAPTURES[rule]
    j = check_derivation(d)
    expected = reference_subject(d)[()]
    assert alpha_eq(j.subject, expected)
    assert j.subject == expected
    assert show_term(j.subject) == shown
    assert free_vars(j.subject) <= set(j.ctx_names())


def test_checking_substitutes_nothing(monkeypatch):
    """The checker derives contexts and types only; check_derivation builds
    the conclusion's subject once and takes its free variables once."""
    calls = Counter()

    def counting(name, f):
        def wrapped(*args):
            calls[name] += 1
            return f(*args)
        return wrapped

    monkeypatch.setattr(lamping.derivations, "subst", counting("subst", subst), raising=False)
    monkeypatch.setattr(lamping.terms, "subst", counting("subst", subst))
    monkeypatch.setattr(lamping.derivations, "free_vars", counting("free_vars", free_vars))
    d = church_identity(96)
    check_derivation(d)
    assert calls["subst"] == 0
    assert calls["free_vars"] <= 1
    calls.clear()
    check_annotated(d)
    assert not calls


def test_church_1000_checks_builds_prints_and_parses_at_the_default_recursion_limit():
    """Church 1000 is about 2000 rules deep, past CPython's default limit
    of 1000 frames: checking, building, printing, parsing, comparing and
    the EAL image walk it with explicit stacks."""
    n = 1000
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        d = _church(n)
        t = check_derivation(d).subject
        ann = check_annotated(d)
        net = build_proofnet(d)
        text = show_derivation(d)
        back = parse_derivation(text)
        same = back == d
        wrong = parse_derivation(text.replace("(A {var z} {ty a})", "(A {var z} {ty b})"))
        differ = wrong != d
        image = to_eal_image(d)
        church_identity(300)  # dapp checks Church 300 while it is built
    finally:
        sys.setrecursionlimit(limit)
    assert isinstance(t, Abs) and isinstance(t.body, Abs)
    t = t.body.body
    for _ in range(n):
        assert isinstance(t, App) and t.fun == Var("s")
        t = t.arg
    assert t == Var("z")
    assert ann[()].ctx == ()
    assert max(map(len, ann)) > 2 * n
    assert net.size() > 0
    assert back is not d and same and hash(back) == hash(d)
    assert text.count("(A {var z} {ty a})") == 1 and differ
    assert image == d  # an EAL derivation is its own image
