"""Acceptance criteria, one test per criterion.

Each test prints a single `criterion N: PASS` line (visible with -s) and
enforces the stated runtime budget where one is given.
"""

import copy
import time

from lamping.corpus import build
from lamping.derivations import derivation_subject
from lamping.pipeline import prepared_graph, run_pipeline
from lamping.portgraph import reduce
from lamping.proofnets import find_cuts
from lamping.readback import readback_term
from lamping.semantics import (
    Reached, check_acyclicity, minimal_contexts, parse_ctx, run_token,
    semantics_table, weight,
)
from lamping.sharegraphs import (
    canonical_form, count_maximal_paths, find_cuts_sg, next_cut_sg, normalize_sg,
    reduce_step_sg,
)
from lamping.terms import alpha_eq, beta_normalize, parse_term


def test_criterion_1_running_example_end_to_end(corpus_graphs):
    """DLT of the running example is the seven-node shared graph; it
    normalizes cut-free and reads back f (\\z.g z) (\\z.g z)."""
    t0 = time.monotonic()
    mode, d = build("running_example")
    stats = run_pipeline(d, mode, "dlt", "sg")

    from test_sharegraphs import _fig9a_expected, _fig9b_expected
    _, _, lab, g = corpus_graphs["running_example"]
    assert canonical_form(g) == canonical_form(_fig9a_expected())
    g = copy.deepcopy(g)
    g, _ = normalize_sg(g)
    assert next_cut_sg(g) is None
    assert canonical_form(g) == canonical_form(_fig9b_expected())
    assert alpha_eq(stats.readback, parse_term("f (\\z.g z) (\\z.g z)"))
    assert stats.verdict
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"criterion 1: PASS ({elapsed:.3f}s)")


def test_criterion_2_paper_context_runs(corpus_graphs):
    """The five listed conclusion-to-conclusion runs, exactly."""
    _, _, lab, g = corpus_graphs["running_example"]
    expected = [
        ("f", "|pq", "g", "p|q"),
        ("f", "|qpq", "g", "q|q"),
        ("main", "|", "f", "|qq"),
        ("g", "p|p", "f", "|pp"),
        ("g", "q|p", "f", "|qpp"),
    ]
    for start, ctx, port, out in expected:
        r = run_token(g, lab, start, parse_ctx(ctx, lab.k))
        assert r == Reached(port, parse_ctx(out, lab.k)), (start, ctx)
    print("criterion 2: PASS")


def test_criterion_3_semantics_invariance(corpus):
    """Bounded tables are unchanged by every graph step and by the
    translation, for both labellings, across the corpus."""
    t0 = time.monotonic()
    for name, (mode, d) in corpus.items():
        for translation in ("lt", "dlt"):
            net, lab, g = prepared_graph(d, mode, translation)
            table = semantics_table(net, lab, 4)
            assert semantics_table(g, lab, 4) == table, (name, translation)

            def check(_kind):
                assert semantics_table(g, lab, 4) == table, (name, translation)
            reduce(g, next_cut_sg, reduce_step_sg, 10 ** 5, check)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"criterion 3: PASS ({elapsed:.2f}s)")


def test_criterion_4_weight_ledger_and_bounds(corpus):
    """Annihilations keep the weight, copies cost exactly two, cut-free
    graphs weigh nothing, and every run respects the step/size bounds."""
    for name, (mode, d) in corpus.items():
        net, lab, g = prepared_graph(d, mode, "dlt")
        if g.size() <= 12:
            h = copy.deepcopy(g)
            w = weight(h, lab).total

            def ledger(kind):
                nonlocal w
                w2 = weight(h, lab).total
                assert w2 - w == (0 if kind == "annihilation" else -2), (name, kind)
                w = w2
            reduce(h, next_cut_sg, reduce_step_sg, 10 ** 5, ledger)
        if not find_cuts(net):
            assert weight(g, lab).total == 0, name
        w0 = weight(g, lab).total
        size0 = g.size()
        g, stats = normalize_sg(g)
        assert stats.steps <= w0 + size0 / 2, name
        assert g.size() <= w0 + size0, name
        if not find_cuts_sg(g):
            assert weight(g, lab).total == 0, name
    print("criterion 4: PASS")


def test_criterion_5_oracle_equivalence(corpus):
    """Readback equals the reference normalizer on every corpus entry,
    for both labellings."""
    t0 = time.monotonic()
    assert len(corpus) >= 15
    for name, (mode, d) in corpus.items():
        oracle = beta_normalize(derivation_subject(d, mode))
        for translation in ("lt", "dlt"):
            _, lab, g = prepared_graph(d, mode, translation)
            g, _ = normalize_sg(g)
            assert alpha_eq(readback_term(g, lab), oracle), (name, translation)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"criterion 5: PASS ({elapsed:.2f}s)")


def test_criterion_6_minimal_context_oracle(corpus):
    """The lazy minimal-context sets equal brute-force enumeration over
    all contexts with stacks of length at most six."""
    from test_semantics import brute_minimal_contexts

    checked = 0
    for name, (mode, d) in corpus.items():
        _, lab, g = prepared_graph(d, mode, "dlt")
        if g.size() > 12:
            continue
        for nid in sorted(g.nodes):
            got = tuple(tuple(sorted(s)) for s in minimal_contexts(g, lab, nid))
            want = tuple(tuple(sorted(s)) for s in brute_minimal_contexts(g, lab, nid))
            assert got == want, (name, nid)
            checked += 1
    assert checked > 0
    print(f"criterion 6: PASS ({checked} nodes)")


def test_criterion_7_structural_lemmas(corpus):
    """Maximal-path bound on cut-free graphs, acyclicity of translated
    graphs, and the shallow-cut property of non-simple paths."""
    from test_proofnets import _direct_trails
    from lamping.proofnets import edge_depth

    for name, (mode, d) in corpus.items():
        net, lab, g = prepared_graph(d, mode, "dlt")
        assert check_acyclicity(g, lab), name
        h = copy.deepcopy(g)
        normalize_sg(h)
        if not find_cuts_sg(h):
            for port in h.free_ports:
                assert count_maximal_paths(h, port) <= h.size() + 1, (name, port)
        cut_edges = set(find_cuts(net))
        if cut_edges:
            for nid in net.nodes:
                pp = net.principal(nid)
                if pp is None:
                    continue
                for trail in _direct_trails(net, ("n", nid, pp), max_len=10):
                    if trail["simple"]:
                        continue
                    d0 = edge_depth(net, trail["edges"][0])
                    assert any(e in cut_edges and edge_depth(net, e) <= d0
                               for e in trail["edges"]), (name, nid)
    print("criterion 7: PASS")


def test_criterion_8_route_agreement(corpus):
    """The level-by-level proof-net route terminates and its readback
    matches the sharing-graph route."""
    for name, (mode, d) in corpus.items():
        sg = run_pipeline(d, mode, "dlt", "sg")
        pn = run_pipeline(d, mode, "dlt", "pn-mlbl")
        assert alpha_eq(sg.readback, pn.readback), name
        assert sg.verdict and pn.verdict, name
    print("criterion 8: PASS")


def test_pinned_step_counts(corpus):
    """Frozen regression values for the deterministic reduction orders."""
    expected = {
        # name: (graph steps, annihilations, copies, net steps, weight)
        "running_example": (2, 1, 1, 2, 2),
        "two_compose_two": (5, 4, 1, 12, 2),
        "two_compose_two_applied": (7, 6, 1, 14, 2),
        "shared_numeral": (8, 3, 5, 1, 10),
        "add_2_1": (6, 6, 0, 7, 0),
    }
    for name, (steps, annih, copies, pn_steps, w) in expected.items():
        mode, d = corpus[name]
        sg = run_pipeline(d, mode, "dlt", "sg")
        pn = run_pipeline(d, mode, "dlt", "pn-mlbl")
        assert (sg.steps, sg.annihilations, sg.copies) == (steps, annih, copies), name
        assert pn.pn_steps == pn_steps, name
        assert sg.weight_total == w, name
        # these normal forms are genuinely cut-free, so copies spend the
        # whole weight: two per step
        assert sg.copies == w // 2, name
