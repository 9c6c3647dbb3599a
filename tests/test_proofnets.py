import copy

import pytest

from lamping.corpus import build
from lamping.derivations import ax, bang, cut, lam, llolli
from lamping.formulas import Atom, Lolli
from lamping.portgraph import reduce
from lamping.proofnets import (
    build_proofnet, check_lal_boxes, edge_depth, find_cuts, is_special_box,
    net_depth, next_cut_mlbl, normalize_mlbl, proofnet_dot, reduce_step_pn,
)

A = Atom("a")
AA = Lolli(A, A)


def test_axiom_is_bare_wire():
    net = build_proofnet(ax("x", A))
    assert net.size() == 0
    assert net.edges() == [(("c", "main"), ("c", "x"))]
    assert net.conclusions == ["main", "x"]


def test_identity_single_lambda_node():
    net = build_proofnet(lam("x", ax("x", A)))
    assert sorted(net.nodes.values()) == ["RLolli"]
    assert net_depth(net) == 0
    assert not find_cuts(net)


def test_running_example_census(corpus_graphs):
    _, net, _, _ = corpus_graphs["running_example"]
    kinds = sorted(net.nodes.values())
    assert kinds == ["LBang", "LLolli", "LLolli", "LLolli", "LLolli",
                     "RBang", "RLolli", "RLolli", "X"]
    assert len(net.boxes) == 1
    assert net_depth(net) == 1
    assert len(find_cuts(net)) == 1


def test_nested_boxes_reach_depth_two(corpus_graphs):
    _, net, _, _ = corpus_graphs["two_compose_two"]
    assert net_depth(net) == 2


def test_edge_depths_consistent(corpus_graphs):
    for name, (_, net, _, _) in corpus_graphs.items():
        for e in net.edges():
            edge_depth(net, e)  # raises when the two sides disagree


def test_lolli_step_reaches_cut_free():
    d = cut("h", lam("x", ax("x", A)),
            llolli("h", "r", ax("y", A), ax("r", A)))
    net = build_proofnet(d)
    cuts = find_cuts(net)
    assert len(cuts) == 1
    report = reduce_step_pn(net, cuts[0])
    assert report.kind == "lolli"
    assert not find_cuts(net)
    assert net.size() == 0  # both nodes gone, wire from main to y remains
    assert net.edges() == [(("c", "main"), ("c", "y"))]


def test_reduce_step_rejects_non_cut(corpus_graphs):
    from lamping.proofnets import MalformedNet
    _, net, _, _ = corpus_graphs["running_example"]
    net = copy.deepcopy(net)
    non_cut = next(e for e in net.edges() if e not in find_cuts(net))
    try:
        reduce_step_pn(net, non_cut)
        assert False, "expected rejection"
    except MalformedNet as e:
        assert "not a cut" in str(e)


def test_mu_cut_annihilates(corpus_graphs):
    _, net, _, _ = corpus_graphs["mu_cut"]
    net = copy.deepcopy(net)
    cuts = find_cuts(net)
    assert len(cuts) == 1
    report = reduce_step_pn(net, cuts[0])
    assert report.kind == "mu"
    assert net.size() == 0


def test_contraction_step_duplicates_box(corpus_graphs):
    _, net, _, _ = corpus_graphs["running_example"]
    net = copy.deepcopy(net)
    reduce_step_pn(net, find_cuts(net)[0])  # the beta cut fires first
    cuts = find_cuts(net)
    assert len(cuts) == 1
    report = reduce_step_pn(net, cuts[0])
    assert report.kind == "contract"
    assert len(net.boxes) == 2
    assert report.fresh_contractions and len(report.fresh_contractions) == 1
    assert sorted(net.nodes.values()).count("X") == 1
    assert not find_cuts(net)


def test_stratification_depths_preserved(corpus_graphs):
    for name, (_, net, _, _) in corpus_graphs.items():
        net = copy.deepcopy(net)
        before = {e: edge_depth(net, e) for e in net.edges()}

        def check(_report):
            nonlocal before
            after = {e: edge_depth(net, e) for e in net.edges()}
            for e in after.keys() & before.keys():
                assert after[e] == before[e], (name, e)
            before = after
        reduce(net, next_cut_mlbl, reduce_step_pn, 10 ** 5, check)


def test_mlbl_terminates_cut_free(corpus_graphs):
    for name, (_, net, _, _) in corpus_graphs.items():
        net = copy.deepcopy(net)
        net, steps = normalize_mlbl(net)
        assert not find_cuts(net), name
        assert steps >= 0


def test_mlbl_noop_on_cut_free_input(corpus_graphs):
    _, net, _, _ = corpus_graphs["church2"]
    net = copy.deepcopy(net)
    _, steps = normalize_mlbl(net)
    assert steps == 0


def test_mlbl_running_example_step_count(corpus_graphs):
    _, net, _, _ = corpus_graphs["running_example"]
    net = copy.deepcopy(net)
    _, steps = normalize_mlbl(net)
    assert steps == 2
    assert len(net.boxes) == 2


def test_special_box_with_conclusion_premises(corpus_graphs):
    _, d = build("running_example")
    net = build_proofnet(d)
    (box,) = net.boxes.values()
    assert is_special_box(net, box)


def test_box_cut_into_box_premise_is_not_special():
    inner = bang(lam("w", ax("w", A)))       # |- \w.w : !(a-oa)
    outer = bang(ax("x", Lolli(A, A)))       # x:!(a-oa) |- x : !(a-oa)
    net = build_proofnet(cut("x", inner, outer))
    boxes = list(net.boxes.values())
    flags = sorted(is_special_box(net, b) for b in boxes)
    assert flags == [False, True]


def test_all_boxes_special_in_cut_free_nets(corpus_graphs):
    for name, (_, net, _, _) in corpus_graphs.items():
        net = copy.deepcopy(net)
        normalize_mlbl(net)
        for box in net.boxes.values():
            assert is_special_box(net, box), name


def test_lal_box_invariants_through_reduction(corpus_graphs):
    for name, (mode, net, _, _) in corpus_graphs.items():
        if mode != "lal":
            continue
        net = copy.deepcopy(net)
        check_lal_boxes(net)
        reduce(net, next_cut_mlbl, reduce_step_pn, 10 ** 5, lambda _: check_lal_boxes(net))


def test_nonsimple_paths_contain_shallow_cut(corpus_graphs):
    """Walking any non-simple direct path from a node finds a cut no
    deeper than the path's first edge."""
    for name, (_, net, _, _) in corpus_graphs.items():
        cut_edges = set(find_cuts(net))
        if not cut_edges:
            continue
        for nid in net.nodes:
            pp = net.principal(nid)
            if pp is None:
                continue
            start = ("n", nid, pp)
            for trail in _direct_trails(net, start, max_len=12):
                if trail["simple"]:
                    continue
                d0 = edge_depth(net, trail["edges"][0])
                assert any(e in cut_edges and edge_depth(net, e) <= d0
                           for e in trail["edges"]), (name, nid, trail)


def _direct_trails(net, start_end, max_len):
    """Direct paths as dicts {edges, simple}; start_end must be principal."""
    def edge_of(end):
        other = net.wires[end]
        return (end, other) if end <= other else (other, end)

    out = []

    def walk(cur_end, edges, simple):
        done = True
        if cur_end[0] == "n" and len(edges) < max_len:
            nid = cur_end[1]
            for port in net.ports(nid):
                e = ("n", nid, port)
                if e == cur_end or e not in net.wires:
                    continue
                if net.is_principal_end(cur_end) or net.is_principal_end(e):
                    done = False
                    walk(net.wires[e], edges + [edge_of(e)],
                         simple and net.is_principal_end(e))
        if done:
            out.append({"edges": edges, "simple": simple})

    walk(net.wires[start_end], [edge_of(start_end)], True)
    return out


def test_dot_export_deterministic(corpus_graphs):
    _, net, _, _ = corpus_graphs["running_example"]
    assert proofnet_dot(net) == proofnet_dot(net)
    assert "cluster_" in proofnet_dot(net)


def test_normalize_scans_for_cuts_once_per_step(monkeypatch, corpus_graphs):
    """One scan picks each step's cut and one finds none left; firing a
    cut looks it up instead of scanning again."""
    import lamping.proofnets
    scans = []
    scan = lamping.proofnets.find_cuts

    def counting(net):
        scans.append(net)
        return scan(net)

    monkeypatch.setattr(lamping.proofnets, "find_cuts", counting)
    for name, (_, net, _, _) in corpus_graphs.items():
        scans.clear()
        _, steps = normalize_mlbl(copy.deepcopy(net))
        assert len(scans) == steps + 1, name
