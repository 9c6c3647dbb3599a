import copy

import pytest

import lamping.readback
from lamping.corpus import A, CORPUS, _church, build
from lamping.derivations import ax, check_derivation, dapp, lam, llolli
from lamping.formulas import Atom, Bang, Lolli
from lamping.pipeline import prepared_graph, run_pipeline
from lamping.proofnets import normalize_mlbl
from lamping.readback import ReadbackError, _classify, psi_query, readback_term
from lamping.semantics import Reached, Stuck, empty_ctx, run_token
from lamping.sharegraphs import normalize_sg
from lamping.terms import alpha_eq, beta_normalize, head_decompose, parse_term, show_term
from lamping.translate import translate
from test_randomized import Gen, LalGen
from test_tower import tower
from test_weight_golden import church_identity


def _normalized(corpus_graphs, name):
    _, _, lab, g = corpus_graphs[name]
    g = copy.deepcopy(g)
    normalize_sg(g)
    return lab, g


def test_identity_readback(corpus_graphs):
    lab, g = _normalized(corpus_graphs, "identity")
    assert alpha_eq(readback_term(g, lab), parse_term("\\x.x"))


def test_running_example_readback(corpus_graphs):
    lab, g = _normalized(corpus_graphs, "running_example")
    assert alpha_eq(readback_term(g, lab), parse_term("f (\\z.g z) (\\z.g z)"))


@pytest.mark.parametrize("strategy", ["sg", "pn-mlbl"])
def test_readback_keeps_argument_order(strategy):
    """f (\\u.u) (\\v.v) y: the arguments come back in place, and the
    bound names in the order the arguments are read."""
    d = llolli("h", "r", ax("y", Atom("b")), ax("r", Atom("c")))
    d = llolli("g", "h", lam("v", ax("v", A)), d)
    d = llolli("f", "g", lam("u", ax("u", A)), d)
    r = run_pipeline(d, strategy=strategy)
    assert r.verdict
    assert show_term(r.readback) == "f (\\x0.x0) (\\x1.x1) y"


def test_psi_walkthrough_on_normal_form(corpus_graphs):
    """The query protocol on the normalized running example: head f with
    two arguments, then into the first argument (one abstraction, head g
    with one argument), then the argument of g resolves to the bound z."""
    lab, g = _normalized(corpus_graphs, "running_example")

    root = psi_query(g, lab, ("main", empty_ctx(lab.k)))
    assert root.n == 0
    assert root.head == ("free", "f")
    assert len(root.args) == 2
    assert root.args[0] == ("f", ((), ("p",)))
    assert root.args[1] == ("f", ((), ("q", "p")))

    arg1 = psi_query(g, lab, root.args[0])
    assert arg1.n == 1          # the probe without a q is undefined
    assert arg1.head == ("free", "g")
    assert len(arg1.args) == 1

    # the argument of g is the variable bound by arg1's abstraction
    inner = psi_query(g, lab, arg1.args[0])
    assert inner.n == 0
    assert inner.args == ()
    kind, banchor, l = inner.head
    assert kind == "bound"
    assert l == 0
    assert banchor[0] == "f"
    assert banchor[1][-1] == ("p",)  # the anchor stack of arg1


def test_readback_two_compose_two(corpus_graphs):
    lab, g = _normalized(corpus_graphs, "two_compose_two")
    expected = parse_term("\\s.\\z.s (s (s (s z)))")
    assert alpha_eq(readback_term(g, lab), expected)


def test_readback_matches_oracle_both_labellings(corpus, corpus_graphs):
    from lamping.corpus import build
    from lamping.derivations import derivation_subject
    for name, (mode, d) in corpus.items():
        oracle = beta_normalize(derivation_subject(d, mode))
        for translation in ("lt", "dlt"):
            _, lab, g = prepared_graph(d, mode, translation)
            normalize_sg(g)
            assert alpha_eq(readback_term(g, lab), oracle), (name, translation)


def test_readback_on_unreduced_graph(corpus_graphs):
    for name in ("identity", "running_example", "shared_bound", "church2",
                 "weakened_app", "forall_id_app", "lal_list_iterate"):
        _, _, lab, g = corpus_graphs[name]
        unreduced = readback_term(copy.deepcopy(g), lab)
        normalize_sg(g := copy.deepcopy(g))
        assert alpha_eq(unreduced, readback_term(g, lab)), name


def test_readback_from_cut_free_net(corpus_graphs):
    """The proof-net route: normalize with the level strategy, then read
    the cut-free net back directly through its own token machine."""
    for name in ("running_example", "add_2_1", "mu_cut"):
        _, net, lab, _ = corpus_graphs[name]
        net = copy.deepcopy(net)
        lab = copy.deepcopy(lab)
        normalize_mlbl(net, labelling=lab)
        lab2, g2 = _normalized(corpus_graphs, name)
        assert alpha_eq(readback_term(net, lab), readback_term(g2, lab2)), name


def test_psi_matches_head_decompose(corpus_graphs):
    """On a cut-free net of a normal subject, the query protocol mirrors
    the syntactic decomposition: abstraction count, head classification,
    argument count."""
    from lamping.corpus import build
    from lamping.derivations import derivation_subject
    for name in ("church2", "shared_bound", "lal_list01", "proj1"):
        mode, d = build(name)
        subject = derivation_subject(d, mode)
        _, net, lab, _ = corpus_graphs[name]

        def walk(anchor, term, env):
            n, head, args = head_decompose(term)
            binders = []
            probe = term
            for _ in range(n):
                binders.append(probe.binder)
                probe = probe.body
            ans = psi_query(net, lab, anchor)
            assert ans.n == n, (name, show_term(term))
            assert len(ans.args) == len(args)
            if head[0] == "free" and head[1] not in env:
                assert ans.head == ("free", head[1])
            else:
                assert ans.head[0] == "bound"
            for sub_anchor, sub_term in zip(ans.args, args):
                walk(sub_anchor, sub_term, env + binders)

        walk(("main", empty_ctx(lab.k)), subject, [])


def test_readback_error_on_exponential_underflow(corpus_graphs):
    lab, g = _normalized(corpus_graphs, "running_example")
    with pytest.raises(ReadbackError):
        # routing into the shared argument without a fan address
        psi_query(g, lab, ("g", ((), ("p",))))


def test_probe_aborts_at_weakening(corpus_graphs):
    """Extra q's only excuse a multiplicative underflow; a probe that
    walks into an eraser has no readback at any depth."""
    lab, g = _normalized(corpus_graphs, "weakened_app")
    with pytest.raises(ReadbackError, match="weakening"):
        psi_query(g, lab, ("g", ((), ("q",))))


def reference_psi_query(structure, labelling, anchor, n_cap=64):
    """The probe psi_query once was: run from the anchor again with q^n
    appended below its multiplicative stack, n = 0, 1, ..., until a run
    lands."""
    port, ctx = anchor
    for n in range(n_cap + 1):
        probe = ctx[:-1] + (ctx[-1] + ("q",) * n,)
        res = run_token(structure, labelling, port, probe)
        if isinstance(res, Stuck) and res.reason == "empty-mult":
            continue
        if not isinstance(res, Reached):
            raise ReadbackError(f"probe from {anchor} ends in {res}")
        return _classify(res, n)
    raise ReadbackError(f"no defined probe within {n_cap} abstractions from {anchor}")


def church_sz(n):
    d = dapp(_church(n), ax("S", Bang(Lolli(A, A))), "apS")
    return dapp(d, ax("Z", Bang(A)), "apZ")


def _probe_inputs():
    """(name, mode, derivation, strategies) for the reference comparison."""
    both = ("sg", "pn-mlbl")
    for name in sorted(CORPUS):
        yield (name, *build(name), both)
    for seed in range(40):
        yield f"gen{seed}", "eal", Gen(seed).grow(), both
        yield f"lalgen{seed}", "lal", LalGen(seed).grow(), both
    for n in (16, 32, 48):
        yield f"church_identity{n}", "eal", church_identity(n), both
        yield f"church_sz{n}", "eal", church_sz(n), both
    for k in range(1, 10):
        yield f"tower{k}", "eal", tower(k), both if k <= 6 else ("sg",)


def _normal_structure(mode, d, translation, strategy):
    net, lab, g = prepared_graph(d, mode, translation)
    if strategy == "sg":
        return normalize_sg(g)[0], lab
    net, _ = normalize_mlbl(net, labelling=lab)
    return translate(net, lab), lab


def test_one_walk_probe_matches_the_rerun_reference(monkeypatch):
    """Every query of every readback answers as the q^n re-run did,
    landing included."""
    answers = []

    def compared(structure, labelling, anchor, moves):
        # readback_term hands every query its move table
        got = psi_query(structure, labelling, anchor, moves)
        assert got == reference_psi_query(structure, labelling, anchor), anchor
        answers.append(got)
        return got

    monkeypatch.setattr(lamping.readback, "psi_query", compared)
    runs = 0
    for name, mode, d, strategies in _probe_inputs():
        for translation in ("lt", "dlt"):
            for strategy in strategies:
                readback_term(*_normal_structure(mode, d, translation, strategy))
                runs += 1
    assert runs == 466
    assert max(a.n for a in answers) >= 2


@pytest.mark.parametrize("n", [200, 400])
def test_unapplied_church_numeral_reads_back_at_scale(n):
    """Each of the n occurrences of s in \\s.\\z.s (... (s z)) is a bound
    head resolved against the memo, so a readback that scanned the whole
    memo per head would be quadratic in n."""
    d = _church(n)
    _, lab, g = prepared_graph(d)
    rb = readback_term(normalize_sg(g)[0], lab)
    assert alpha_eq(rb, beta_normalize(check_derivation(d).subject))
