import re
import sys
from collections import Counter
from pathlib import Path

import pytest

import lamping.derivations
import lamping.terms
from lamping.corpus import _church, build
from lamping.derivations import (
    Derivation, RuleViolation, Sequent, _field, ax, bang, bang1, bang2,
    check_annotated, check_derivation, contract, cut, derivation_subject,
    forall_l, forall_r, lam, llolli, mu_l, para, parse_derivation,
    show_derivation, to_eal_image, weak,
)
from lamping.formulas import (
    Atom, Bang, Forall, Formula, Lolli, Mu, Para, contains_para, erase_para,
    formula_eq, free_type_vars, parse_formula, show_formula, subst_formula,
    unfold_mu,
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


def _premises_first(d):
    """Every (path, node) of d in post-order, left to right: a path comes
    after its extensions (a rule has at most two premises, 0 and 1)."""
    return sorted(_nodes(d), key=lambda item: item[0] + (2,))


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
    """`_post_order` visits premises first, left to right: the order that
    fixes the builder's node ids."""
    from lamping.derivations import _post_order
    for name, (_, d) in REFERENCE_INPUTS.items():
        nodes = [n for _, n in _premises_first(d)]
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


def test_only_a_refusal_or_an_annotation_key_walks_paths(monkeypatch):
    """Checking, building, printing and parsing walk without paths; the
    one walk that builds them runs for `check_annotated`'s keys and once
    for a refused rule."""
    calls = []
    paths = lamping.derivations._paths

    def counting(d):
        calls.append(d)
        return paths(d)

    monkeypatch.setattr(lamping.derivations, "_paths", counting)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        d = _church(1000)
        check_derivation(d)
        build_proofnet(d)
        parse_derivation(show_derivation(d))
    finally:
        sys.setrecursionlimit(limit)
    show_derivation(_church(60), judgements=True)
    assert calls == []
    check_annotated(_church(2))
    assert len(calls) == 1
    with pytest.raises(RuleViolation) as e:
        check_derivation(lam("v", cut("c", ax("x", A), weak("x", A, ax("c", A)))))
    assert e.value.path == (0,) and len(calls) == 2


# contexts ------------------------------------------------------------------

def _ctx_remove(ctx, name):
    return tuple((n, f) for n, f in ctx if n != name)


def _ctx_merge(*parts):
    seen, out = set(), []
    for part in parts:
        for n, f in part:
            if n in seen:
                raise RuleViolation(f"duplicate context variable {n!r} when merging contexts")
            seen.add(n)
            out.append((n, f))
    return tuple(out)


def _reference_rule(d, mode, subs):
    """One rule on tuple contexts, copying or scanning the whole context."""
    def fail(reason):
        return RuleViolation(reason)

    def field(key, kind):
        return _field(d, key, kind)

    if mode == "eal":
        for _, v in d.data:
            if isinstance(v, (Atom, Lolli, Bang, Para, Forall, Mu)) and contains_para(v):
                raise fail("paragraph modality is not an EAL connective")
    rule = d.rule
    if rule == "A":
        x, ty = field("var", str), field("ty", Formula)
        return Sequent(((x, ty),), ty)
    if rule == "U":
        left, right = subs
        x = field("var", str)
        xty = right.lookup(x)
        if xty is None:
            raise fail(f"cut variable {x!r} not in right context")
        if not formula_eq(xty, left.type):
            raise fail(f"cut type mismatch: {show_formula(left.type)} vs {show_formula(xty)}")
        return Sequent(_ctx_merge(left.ctx, _ctx_remove(right.ctx, x)), right.type)
    if rule == "LLolli":
        parg, pbody = subs
        y, x = field("fun", str), field("var", str)
        xty = pbody.lookup(x)
        if xty is None:
            raise fail(f"continuation variable {x!r} not in right context")
        ctx = _ctx_merge(parg.ctx, _ctx_remove(pbody.ctx, x), ((y, Lolli(parg.type, xty)),))
        return Sequent(ctx, pbody.type)
    (p,) = subs
    if rule == "W":
        x, ty = field("var", str), field("ty", Formula)
        if p.lookup(x) is not None:
            raise fail(f"weakened variable {x!r} already in context")
        return Sequent(p.ctx + ((x, ty),), p.type)
    if rule == "X":
        a, b, z = (field(k, str) for k in ("a", "b", "z"))
        if a == b:
            raise fail(f"contraction needs two distinct variables, got {a!r} twice")
        aty, bty = p.lookup(a), p.lookup(b)
        if aty is None or bty is None:
            raise fail(f"contraction variables {a!r},{b!r} not both in context")
        if not formula_eq(aty, bty):
            raise fail("contraction on hypotheses of different types")
        if not isinstance(aty, Bang):
            raise fail(f"contraction requires a !-type, got {show_formula(aty)}")
        if z != a and z != b and p.lookup(z) is not None:
            raise fail(f"contraction target {z!r} already in context")
        ctx = tuple((z, f) if n == a else (n, f) for n, f in _ctx_remove(p.ctx, b))
        return Sequent(ctx, p.type)
    if rule == "RLolli":
        x = field("var", str)
        xty = p.lookup(x)
        if xty is None:
            raise fail(f"abstracted variable {x!r} not in context")
        return Sequent(_ctx_remove(p.ctx, x), Lolli(xty, p.type))
    if rule == "PBang":
        if mode != "eal":
            raise fail("PBang is the EAL exponential rule; use PBang1/PBang2/PPara in LAL")
        return Sequent(tuple((n, Bang(f)) for n, f in p.ctx), Bang(p.type))
    if rule == "PBang1":
        if mode != "lal":
            raise fail("PBang1 is an LAL rule")
        if p.ctx:
            raise fail("PBang1 requires an empty context")
        return Sequent((), Bang(p.type))
    if rule == "PBang2":
        if mode != "lal":
            raise fail("PBang2 is an LAL rule")
        if len(p.ctx) != 1:
            raise fail("PBang2 requires exactly one hypothesis")
        (x, xty), = p.ctx
        if not formula_eq(xty, p.type):
            raise fail("PBang2 requires the hypothesis type to match the subject type")
        return Sequent(((x, Bang(xty)),), Bang(p.type))
    if rule == "PPara":
        if mode != "lal":
            raise fail("PPara is an LAL rule")
        banged = field("bang", tuple)
        names = p.ctx_names()
        for x in banged:
            if x not in names:
                raise fail(f"PPara bang list names unknown variable {x!r}")
        ctx = tuple((n, Bang(f) if n in banged else Para(f)) for n, f in p.ctx)
        return Sequent(ctx, Para(p.type))
    if rule == "RForall":
        tv = field("tv", str)
        for n, f in p.ctx:
            if tv in free_type_vars(f):
                raise fail(f"type variable {tv!r} occurs free in the type of {n!r}")
        return Sequent(p.ctx, Forall(tv, p.type))
    if rule == "LForall":
        x, ty, wit = field("var", str), field("ty", Forall), field("wit", Formula)
        xty = p.lookup(x)
        if xty is None:
            raise fail(f"variable {x!r} not in context")
        expected = subst_formula(ty.body, ty.var, wit)
        if not formula_eq(xty, expected):
            raise fail(f"instantiation mismatch: hypothesis {show_formula(xty)} "
                       f"!= {show_formula(expected)}")
        return Sequent(tuple((n, ty if n == x else f) for n, f in p.ctx), p.type)
    if rule == "RMu":
        ty = field("ty", Mu)
        if not formula_eq(p.type, unfold_mu(ty)):
            raise fail(f"fold mismatch: subject has {show_formula(p.type)}, "
                       f"expected {show_formula(unfold_mu(ty))}")
        return Sequent(p.ctx, ty)
    if rule == "LMu":
        x, ty = field("var", str), field("ty", Mu)
        xty = p.lookup(x)
        if xty is None:
            raise fail(f"variable {x!r} not in context")
        if not formula_eq(xty, unfold_mu(ty)):
            raise fail(f"unfold mismatch: hypothesis has {show_formula(xty)}")
        return Sequent(tuple((n, ty if n == x else f) for n, f in p.ctx), p.type)
    raise fail(f"unhandled rule {rule}")


def reference_check(d, mode="eal"):
    """The sequent at every node, keyed by path, from tuple contexts that
    each rule copies or scans whole. It walks its own paths, premises
    first, and a refusal names the path of the first node refused."""
    out = {}
    for path, n in _premises_first(d):
        subs = [out[path + (i,)] for i in range(len(n.premises))]
        try:
            out[path] = _reference_rule(n, mode, subs)
        except RuleViolation as e:
            raise RuleViolation(e.reason, path) from None
    return out


def _context_inputs():
    """name -> (mode, derivation): the corpus, 40 `Gen` and 30 `LalGen`
    draws and Church-identity 48."""
    root = Path(__file__).resolve().parents[1] / "corpus"
    out = {p.name: (p.suffix[1:], parse_derivation(p.read_text()))
           for p in sorted(root.iterdir())}
    out.update({f"gen{seed}": ("eal", Gen(seed).grow()) for seed in range(40)})
    out.update({f"lalgen{seed}": ("lal", LalGen(seed).grow()) for seed in range(30)})
    out["church_identity48"] = ("eal", church_identity(48))
    return out


CONTEXT_INPUTS = _context_inputs()


_BOX_RULES = ("PBang", "PBang1", "PBang2", "PPara")


def test_contexts_match_the_tuple_checker_and_the_builder():
    for name, (mode, d) in CONTEXT_INPUTS.items():
        expected = reference_check(d, mode)
        ann = check_annotated(d, mode)
        assert ann == expected, name
        j = check_derivation(d, mode)
        assert (j.ctx, j.type) == (expected[()].ctx, expected[()].type), name
        net = build_proofnet(d, mode)
        assert net.conclusions == ["main", *ann[()].ctx_names()], name
        boxes = [p for p, n in _premises_first(d) if n.rule in _BOX_RULES]
        assert sorted(len(b.aux_doors) for b in net.boxes.values()) == \
            sorted(len(ann[p + (0,)].ctx) for p in boxes), name
        # principal doors are made in fold order, and each box's aux doors
        # in the order and with the modalities of its rule's conclusion
        doors = [[net.nodes[a] for a in net.boxes[r].aux_doors] for r in sorted(net.boxes)]
        assert doors == [["LPara" if isinstance(f, Para) else "LBang" for _, f in ann[p].ctx]
                         for p in boxes], name


B2 = Bang(AA)
_WEAKENED_TWICE = weak("x", A, ax("x", A))
MALFORMED = {
    # y comes first on the right and x on the left: the right decides
    "duplicate_merge": cut("c", weak("y", A, weak("x", A, ax("c", A))),
                           weak("x", A, weak("y", A, ax("c", A)))),
    "duplicate_hook": llolli("f", "u", weak("f", A, ax("x", A)), ax("u", B)),
    "hook_already_on_the_right": llolli("f", "u", ax("x", A), weak("f", A, ax("u", B))),
    "missing_cut_variable": cut("c", ax("x", A), ax("y", A)),
    "cut_type_mismatch": cut("c", ax("x", B), ax("c", A)),
    "missing_continuation": llolli("f", "u", ax("x", A), ax("v", B)),
    "missing_abstracted": lam("y", ax("x", A)),
    "weakened_twice": weak("x", A, ax("x", A)),
    "contract_itself": contract("x", "x", "z", weak("x", B2, ax("y", A))),
    "contract_missing": contract("x", "w", "z", weak("x", B2, ax("y", A))),
    "contract_linear": contract("x", "w", "z", weak("x", AA, weak("w", AA, ax("y", A)))),
    "contract_mixed": contract("x", "w", "z", weak("x", B2, weak("w", Bang(A), ax("y", A)))),
    "contract_onto_taken": contract("x", "w", "y", weak("x", B2, weak("w", B2, ax("y", A)))),
    "pbang_in_lal": bang(ax("x", A)),
    "pbang1_in_eal": bang1(ax("x", A)),
    "pbang1_with_hypothesis": bang1(ax("x", A)),
    "pbang2_two_hypotheses": bang2(weak("y", A, ax("x", A))),
    "pbang2_type_mismatch": bang2(weak("y", A, lam("x", ax("x", A)))),
    "ppara_unknown_name": para(("w",), ax("x", A)),
    "ppara_in_eal": para(("x",), ax("x", A)),
    "forall_free": forall_r("a", ax("x", A)),
    "lforall_missing": forall_l("w", Forall("t", Atom("t")), A, ax("x", A)),
    "lmu_missing": mu_l("w", Mu("t", Lolli(Atom("t"), A)), ax("x", A)),
    # one refused node object at two places: the leftmost is reported
    "shared_refused": cut("c", weak("y", A, _WEAKENED_TWICE), _WEAKENED_TWICE),
}
LAL_MALFORMED = {"pbang_in_lal", "pbang1_with_hypothesis", "pbang2_two_hypotheses",
                 "pbang2_type_mismatch", "ppara_unknown_name"}


def _violation(check, d, mode):
    with pytest.raises(RuleViolation) as e:
        check(d, mode)
    return e.value.path, e.value.reason


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_derivations_fail_where_the_tuple_checker_does(name):
    mode = "lal" if name in LAL_MALFORMED else "eal"
    d = lam("v", MALFORMED[name])
    expected = _violation(reference_check, d, mode)
    assert _violation(check_annotated, d, mode) == expected
    assert _violation(check_derivation, d, mode) == expected
    if name == "duplicate_merge":
        assert expected == ((0,), "duplicate context variable 'y' when merging contexts")
    if name == "shared_refused":
        assert expected == ((0, 0, 0), "weakened variable 'x' already in context")


def _renamings(d):
    """d with one name field of one node replaced by another name that
    occurs in d, for every node, field and name."""
    names = sorted({v for _, n in _nodes(d) for k, v in n.data
                    if k in ("var", "a", "b", "z", "fun")})

    def replaced(n, path, key, new):
        if not path:
            data = tuple((k, new if k == key else v) for k, v in n.data)
            return Derivation(n.rule, data, n.premises)
        i, rest = path[0], path[1:]
        prem = list(n.premises)
        prem[i] = replaced(prem[i], rest, key, new)
        return Derivation(n.rule, n.data, tuple(prem))

    for path, n in _nodes(d):
        for k, v in n.data:
            if k in ("var", "a", "b", "z", "fun"):
                for new in names:
                    if new != v:
                        yield replaced(d, path, k, new)


def _outcome(check, d, mode):
    try:
        return check(d, mode)
    except RuleViolation as e:
        return e.path, e.reason


def test_renamed_corpus_derivations_fail_where_the_tuple_checker_does():
    """Every one-field renaming of every corpus file: both checkers accept
    with the same sequents or reject at the same node for the same reason."""
    failed = 0
    for name, (mode, d) in CONTEXT_INPUTS.items():
        if name.startswith(("gen", "lalgen", "church")):
            continue
        for bad in _renamings(d):
            expected = _outcome(reference_check, bad, mode)
            assert _outcome(check_annotated, bad, mode) == expected, name
            failed += isinstance(expected, tuple)
    assert failed > 1000


def _refusal(check, d, mode):
    try:
        check(d, mode)
    except RuleViolation as e:
        return e.path, e.reason
    return None


@pytest.mark.parametrize("mode", ["eal", "lal"])
@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_the_builder_refuses_what_the_checker_refuses(name, mode):
    d = lam("v", MALFORMED[name])
    expected = _refusal(check_derivation, d, mode)
    assert expected is not None
    assert _refusal(build_proofnet, d, mode) == expected


def test_the_builder_refuses_the_renamed_corpus_where_the_checker_does():
    """Every one-field renaming of every corpus file, under both modes:
    the builder refuses at the same node for the same reason as
    `check_derivation`, and accepts what it accepts."""
    failed = 0
    for name, (_, d) in CONTEXT_INPUTS.items():
        if name.startswith(("gen", "lalgen", "church")):
            continue
        for bad in _renamings(d):
            for mode in ("eal", "lal"):
                expected = _refusal(check_derivation, bad, mode)
                assert _refusal(build_proofnet, bad, mode) == expected, (name, mode)
                failed += expected is not None
    assert failed > 5000


@pytest.mark.parametrize("name", ["identity", "running_example"])
def test_check_rejects_unknown_mode(name):
    _, d = build(name)
    for check in (check_derivation, check_annotated):
        with pytest.raises(ValueError, match="mode must be"):
            check(d, "xal")
