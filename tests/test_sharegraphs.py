import copy
import random

import pytest

from lamping.corpus import CORPUS, build
from lamping.derivations import ax, cut, lam, llolli
from lamping.formulas import Atom
from lamping.pipeline import prepared_graph
from lamping.portgraph import reduce
from lamping.readback import readback_term
from lamping.semantics import weight
from lamping.sharegraphs import (
    EraserCut, SharingGraph, _is_eraser_cut, canonical_form, count_maximal_paths,
    find_cuts_sg, graph_dot, graph_dump, next_cut_sg, normalize_sg, reduce_step_sg,
)
from lamping.terms import alpha_eq
from test_randomized import Gen, LalGen
from test_tower import tower
from test_weight_golden import church_identity

A = Atom("a")


def _single_lambda():
    g = SharingGraph()
    n = g.add_node("lam")
    for port, name in (("pr", "root"), ("var", "v"), ("bod", "b")):
        g.link(("n", n, port), ("c", name))
    g.free_ports = ["root", "v", "b"]
    return g


def _fig9a_expected():
    """The running example's graph, wired by hand."""
    g = SharingGraph()
    g.k = 1
    a1 = g.add_node("app")   # outer application of f's spine
    a2 = g.add_node("app")   # inner application (function side reaches f)
    fan = g.add_node("fan", 0)
    l1 = g.add_node("lam")   # \x.f x x
    a3 = g.add_node("app")   # g z
    l2 = g.add_node("lam")   # \z.g z
    a4 = g.add_node("app")   # the top application
    g.link(("n", a1, "pr"), ("n", a2, "res"))
    g.link(("n", a1, "arg"), ("n", fan, "q"))
    g.link(("n", a1, "res"), ("n", l1, "bod"))
    g.link(("n", a2, "pr"), ("c", "f"))
    g.link(("n", a2, "arg"), ("n", fan, "p"))
    g.link(("n", fan, "pr"), ("n", l1, "var"))
    g.link(("n", l1, "pr"), ("n", a4, "pr"))
    g.link(("n", a3, "pr"), ("c", "g"))
    g.link(("n", a3, "arg"), ("n", l2, "var"))
    g.link(("n", a3, "res"), ("n", l2, "bod"))
    g.link(("n", l2, "pr"), ("n", a4, "arg"))
    g.link(("n", a4, "res"), ("c", "main"))
    g.free_ports = ["main", "f", "g"]
    return g


def _fig9b_expected():
    """Normal form of the running example: one shared g-application."""
    g = SharingGraph()
    g.k = 1
    a1 = g.add_node("app")
    a2 = g.add_node("app")
    a3 = g.add_node("app")   # the shared g z
    l1 = g.add_node("lam")
    l2 = g.add_node("lam")
    fv = g.add_node("fan", 0)  # shares the variable side
    fb = g.add_node("fan", 0)  # shares the body side
    g.link(("n", a2, "res"), ("c", "main"))
    g.link(("n", a2, "pr"), ("n", a1, "res"))
    g.link(("n", a2, "arg"), ("n", l2, "pr"))
    g.link(("n", a1, "pr"), ("c", "f"))
    g.link(("n", a1, "arg"), ("n", l1, "pr"))
    g.link(("n", a3, "pr"), ("c", "g"))
    g.link(("n", a3, "arg"), ("n", fv, "pr"))
    g.link(("n", a3, "res"), ("n", fb, "pr"))
    g.link(("n", fv, "p"), ("n", l1, "var"))
    g.link(("n", fv, "q"), ("n", l2, "var"))
    g.link(("n", fb, "p"), ("n", l1, "bod"))
    g.link(("n", fb, "q"), ("n", l2, "bod"))
    g.free_ports = ["main", "f", "g"]
    return g


def test_no_cuts_in_single_lambda():
    assert find_cuts_sg(_single_lambda()) == []


def test_normalize_noop_on_cut_free_graph():
    g = _single_lambda()
    g, stats = normalize_sg(g)
    assert stats.steps == 0
    assert g.size() == 1


def test_running_example_matches_hand_wiring(corpus_graphs):
    _, _, _, g = corpus_graphs["running_example"]
    assert canonical_form(g) == canonical_form(_fig9a_expected())
    assert find_cuts_sg(g) != []


def test_normal_form_matches_hand_wiring(corpus_graphs):
    _, _, _, g = corpus_graphs["running_example"]
    g = copy.deepcopy(g)
    g, stats = normalize_sg(g)
    assert (stats.steps, stats.annihilations, stats.copies) == (2, 1, 1)
    assert canonical_form(g) == canonical_form(_fig9b_expected())
    assert find_cuts_sg(g) == []


def test_beta_annihilation_single_step():
    d = cut("h", lam("x", ax("x", A)),
            llolli("h", "r", ax("y", A), ax("r", A)))
    _, _, g = prepared_graph(d, "eal", "dlt")
    g, stats = normalize_sg(g)
    assert (stats.steps, stats.annihilations, stats.copies) == (1, 1, 0)
    assert g.size() == 0
    assert g.wires[("c", "main")] == ("c", "y")


def test_fan_fan_same_index_annihilates():
    g = SharingGraph()
    f1 = g.add_node("fan", 3)
    f2 = g.add_node("fan", 3)
    g.link(("n", f1, "pr"), ("n", f2, "pr"))
    for node, port, name in ((f1, "p", "a"), (f1, "q", "b"),
                             (f2, "p", "c"), (f2, "q", "d")):
        g.link(("n", node, port), ("c", name))
    g.free_ports = ["a", "b", "c", "d"]
    kind = reduce_step_sg(g, find_cuts_sg(g)[0])
    assert kind == "annihilation"
    assert g.size() == 0
    assert g.wires[("c", "a")] == ("c", "c")
    assert g.wires[("c", "b")] == ("c", "d")


def test_fan_lambda_copy_census(corpus_graphs):
    _, _, _, g = corpus_graphs["running_example"]
    g = copy.deepcopy(g)
    reduce_step_sg(g, find_cuts_sg(g)[0])  # beta
    cuts = find_cuts_sg(g)
    assert len(cuts) == 1
    kind = reduce_step_sg(g, cuts[0])
    assert kind == "copy"
    kinds = sorted(g.nodes.values())
    assert kinds.count("lam") == 2
    assert kinds.count("fan") == 2


def test_fan_fan_different_index_copies():
    g = SharingGraph()
    f1 = g.add_node("fan", 0)
    f2 = g.add_node("fan", 1)
    g.link(("n", f1, "pr"), ("n", f2, "pr"))
    for node, port, name in ((f1, "p", "a"), (f1, "q", "b"),
                             (f2, "p", "c"), (f2, "q", "d")):
        g.link(("n", node, port), ("c", name))
    g.free_ports = ["a", "b", "c", "d"]
    kind = reduce_step_sg(g, find_cuts_sg(g)[0])
    assert kind == "copy"
    assert g.size() == 4
    assert sorted(g.index.values()) == [0, 0, 1, 1]


def test_reduce_step_rejects_non_cut(corpus_graphs):
    from lamping.sharegraphs import MalformedGraph
    _, _, _, g = corpus_graphs["running_example"]
    g = copy.deepcopy(g)
    non_cut = next(e for e in g.edges() if e not in find_cuts_sg(g))
    with pytest.raises(MalformedGraph, match="not a cut"):
        reduce_step_sg(g, non_cut)


def test_path_count_requires_cut_free(corpus_graphs):
    from lamping.sharegraphs import MalformedGraph
    _, _, _, g = corpus_graphs["running_example"]
    with pytest.raises(MalformedGraph, match="cuts"):
        count_maximal_paths(g, "main")


def test_eraser_cut_reported_and_skipped(corpus_graphs):
    _, _, _, g = corpus_graphs["weakened_app"]
    g = copy.deepcopy(g)
    g, stats = normalize_sg(g)
    cuts = find_cuts_sg(g)
    assert len(cuts) == 1  # the erased argument stays as an inert cut
    with pytest.raises(EraserCut):
        reduce_step_sg(g, cuts[0])


def _size_ledger(g, where, kinds):
    """An observer for `reduce`: each step must shrink the graph by two
    nodes if it annihilates and grow it by two if it copies. Appends each
    step's kind to `kinds`."""
    size = g.size()

    def check(kind):
        nonlocal size
        assert g.size() - size == (-2 if kind == "annihilation" else 2), where
        size = g.size()
        kinds.append(kind)
    return check


def test_size_ledger_per_step(corpus_graphs):
    for name, (_, _, _, g) in corpus_graphs.items():
        g = copy.deepcopy(g)
        reduce(g, next_cut_sg, reduce_step_sg, 10 ** 5, _size_ledger(g, name, []))


def _any_order_inputs():
    for name in sorted(CORPUS):
        yield (name, *build(name))
    for k in range(1, 7):
        yield f"tower{k}", "eal", tower(k)
    for n in (16, 48):
        yield f"church_identity{n}", "eal", church_identity(n)
    for seed in range(30):
        yield f"gen{seed}", "eal", Gen(seed).grow()
        yield f"lalgen{seed}", "lal", LalGen(seed).grow()


def _picks(rng):
    """The any-order test's eight orders among the live non-eraser cuts:
    highest node id first, then seven seeded uniform draws."""
    def among(choose):
        def pick(g):
            cuts = [c for c in find_cuts_sg(g) if not _is_eraser_cut(g, c)]
            return choose(cuts) if cuts else None
        return pick
    return [among(lambda cuts: cuts[-1])] + [among(rng.choice)] * 7


def test_any_order_reaches_the_same_normal_form():
    """Eight orders per input, highest-id cut first and seven seeded
    uniform draws among the live cuts, each agree with `normalize_sg` on
    the step counts, the normal graph and its readback, and spend two
    units of weight per copy."""
    for name, mode, d in _any_order_inputs():
        for translation in ("lt", "dlt"):
            _, lab, g = prepared_graph(d, mode, translation)
            w0 = weight(g, lab).total
            ref, stats = normalize_sg(copy.deepcopy(g))
            counts = (stats.annihilations, stats.copies)
            form, term = canonical_form(ref), readback_term(ref, lab)
            assert 2 * stats.copies == w0 - weight(ref, lab).total, name
            rng = random.Random(f"{name}/{translation}")
            for order, pick in enumerate(_picks(rng)):
                h = copy.deepcopy(g)
                where = (name, translation, order)
                kinds = []
                reduce(h, pick, reduce_step_sg, 10 ** 5, _size_ledger(h, where, kinds))
                assert (kinds.count("annihilation"), kinds.count("copy")) == counts, where
                assert canonical_form(h) == form, where
                assert alpha_eq(readback_term(h, lab), term), where
                assert 2 * stats.copies == w0 - weight(h, lab).total, where


def test_single_lambda_path_bound():
    g = _single_lambda()
    c = count_maximal_paths(g, "root")
    assert c <= g.size() + 1


def test_app_chain_paths_meet_bound():
    k = 4
    g = SharingGraph()
    apps = [g.add_node("app") for _ in range(k)]
    g.link(("n", apps[0], "pr"), ("c", "f"))
    for i in range(1, k):
        g.link(("n", apps[i], "pr"), ("n", apps[i - 1], "res"))
    for i in range(k):
        g.link(("n", apps[i], "arg"), ("c", f"x{i}"))
    g.link(("n", apps[k - 1], "res"), ("c", "root"))
    g.free_ports = ["root", "f"] + [f"x{i}" for i in range(k)]
    assert count_maximal_paths(g, "f") == k + 1
    for port in g.free_ports:
        assert count_maximal_paths(g, port) <= g.size() + 1


def test_path_bound_on_normalized_corpus(corpus_graphs):
    for name, (_, _, _, g) in corpus_graphs.items():
        g = copy.deepcopy(g)
        normalize_sg(g)
        for port in g.free_ports:
            assert count_maximal_paths(g, port) <= g.size() + 1, (name, port)


def test_dump_and_dot_deterministic(corpus_graphs):
    _, _, _, g = corpus_graphs["running_example"]
    assert graph_dump(g) == graph_dump(g)
    assert graph_dot(g) == graph_dot(g)
    assert "fan0" in graph_dot(g)


def test_normalize_scans_for_cuts_once_per_step(monkeypatch, corpus_graphs):
    """One scan picks each step's cut and one finds none left; firing a
    cut looks it up instead of scanning again."""
    import lamping.sharegraphs
    scans = []
    scan = lamping.sharegraphs.find_cuts_sg

    def counting(g):
        scans.append(g)
        return scan(g)

    monkeypatch.setattr(lamping.sharegraphs, "find_cuts_sg", counting)
    for name, (_, _, _, g) in corpus_graphs.items():
        scans.clear()
        _, stats = normalize_sg(copy.deepcopy(g))
        assert len(scans) == stats.steps + 1, name
