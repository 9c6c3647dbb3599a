"""The cut set a port graph keeps in `link`/`unlink`, against a full scan.

`reference_pairs` scans every wire, as finding the cuts did before
`link` and `unlink` kept the set. After every step of both engines the kept set
must equal that scan, a deep copy must carry an equal set, and the cut
the engine fires must be the one the scan picks under the engine's sort
key, with every proof-net depth computed afresh.
"""

import copy

import pytest

import lamping.proofnets
import lamping.sharegraphs
from lamping.corpus import CORPUS, build
from lamping.pipeline import prepared_graph
from lamping.proofnets import (Box, MalformedNet, ProofNet, _cut_kind, build_proofnet,
                               edge_depth, find_cuts, is_special_box, normalize_mlbl,
                               reduce_step_pn)
from lamping.sharegraphs import SharingGraph, normalize_sg, reduce_step_sg
from test_randomized import Gen, LalGen
from test_tower import PN_STEPS, tower
from test_weight_golden import church_identity


def reference_pairs(g):
    """The wires joining two principal ports, found by scanning them all."""
    return [(a, b) for a, b in g.wires.items()
            if a <= b and g.is_principal_end(a) and g.is_principal_end(b)]


def _inputs():
    for name in sorted(CORPUS):
        yield (name, *build(name))
    for k in range(1, 7):
        yield f"tower{k}", "eal", tower(k)
    yield "church_identity16", "eal", church_identity(16)
    for seed in range(20):
        yield f"gen{seed}", "eal", Gen(seed).grow()
        yield f"lalgen{seed}", "lal", LalGen(seed).grow()


def _agrees(g):
    """Asserts the kept cuts equal the scan; returns the scan."""
    scan = reference_pairs(g)
    assert g.cuts == set(scan)
    return scan


def _sg_choice(g, scan):
    """`find_cuts_sg`'s key, eraser cuts skipped as `normalize_sg` does."""
    ordered = sorted(scan, key=lambda e: (min(e[0][1], e[1][1]), max(e[0][1], e[1][1])))
    return next(c for c in ordered if "era" not in (g.nodes[c[0][1]], g.nodes[c[1][1]]))


def _pn_choice(net, scan):
    """`find_cuts`'s key: the first cut at the lowest depth that is not the
    contraction of a box that is not special."""
    ordered = sorted(scan, key=lambda e: (edge_depth(net, e), e))
    level = edge_depth(net, ordered[0])
    for c in ordered:
        if edge_depth(net, c) != level:
            break
        kind, _, nb = _cut_kind(net, c)
        if kind != "contract" or is_special_box(net, net.boxes[nb]):
            return c
    raise AssertionError("no eligible cut at the lowest depth")


def _checked(monkeypatch, module, name, choice):
    """Wrap module.name so each step is compared with the scan before and
    after it fires; returns the list of fired cuts."""
    step = getattr(module, name)
    fired = []

    def checked(g, cut):
        assert cut == choice(g, _agrees(g))
        report = step(g, cut)
        assert copy.deepcopy(g).cuts == set(_agrees(g))
        fired.append(cut)
        return report

    monkeypatch.setattr(module, name, checked)
    return fired


def test_kept_cuts_match_the_full_wire_scan(monkeypatch):
    sg = _checked(monkeypatch, lamping.sharegraphs, "reduce_step_sg", _sg_choice)
    pn = _checked(monkeypatch, lamping.proofnets, "reduce_step_pn", _pn_choice)
    runs = 0
    for name, mode, d in _inputs():
        net, _, g = prepared_graph(d, mode)
        for structure in (net, g):
            assert copy.deepcopy(structure).cuts == set(_agrees(structure))
        assert set(find_cuts(net)) == net.cuts, name
        normalize_sg(g)
        normalize_mlbl(net)
        assert not _agrees(net), name
        assert all("era" in (g.nodes[a[1]], g.nodes[b[1]]) for a, b in _agrees(g)), name
        runs += 1
    assert runs == len(CORPUS) + 6 + 1 + 40
    assert (len(sg), len(pn)) == (210, 817)  # the steps both engines take


class CountingDict(dict):
    """A dict (a wiring, a labelling) that counts the calls that would
    list every entry."""

    def __init__(self, entries):
        super().__init__(entries)
        self.scans = 0

    def items(self):
        self.scans += 1
        return super().items()

    def keys(self):
        self.scans += 1
        return super().keys()

    def values(self):
        self.scans += 1
        return super().values()

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


def test_normalizing_never_lists_the_wires():
    net = build_proofnet(tower(4))
    net.wires = CountingDict(net.wires)
    assert normalize_mlbl(net)[1] == PN_STEPS[4]
    assert net.wires.scans == 0

    _, _, g = prepared_graph(church_identity(16))
    g.wires = CountingDict(g.wires)
    assert normalize_sg(g)[1].steps == 3 * 16
    assert g.wires.scans == 0


def test_cut_depths_follow_the_live_cuts(monkeypatch):
    """`find_cuts` updates one depth map in place: after each call it holds
    exactly the live cuts, and no cut's depth is computed twice."""
    net = build_proofnet(tower(4))
    depths = net.cut_depth
    measured = []
    depth_of = lamping.proofnets.edge_depth
    scan = lamping.proofnets.find_cuts

    def measuring(net, edge):
        measured.append(edge)
        return depth_of(net, edge)

    def checked(net):
        cuts = scan(net)
        assert net.cut_depth is depths
        assert set(depths) == set(cuts) == set(reference_pairs(net))
        return cuts

    monkeypatch.setattr(lamping.proofnets, "edge_depth", measuring)
    monkeypatch.setattr(lamping.proofnets, "find_cuts", checked)
    assert normalize_mlbl(net)[1] == PN_STEPS[4]
    assert not depths
    assert len(measured) == len(set(measured)) > PN_STEPS[4]


def _closed_beta(g, lam, app, crossed):
    """A lam/app cut whose auxiliary wires join the two nodes to each
    other: bod-res and var-arg, or, crossed, bod-arg and var-res, where
    only the second splice meets two ends wired to each other. Returns
    the cut."""
    a, b = g.add_node(lam), g.add_node(app)
    g.link(("n", a, "pr"), ("n", b, "pr"))
    g.link(("n", a, "bod"), ("n", b, "arg" if crossed else "res"))
    g.link(("n", a, "var"), ("n", b, "res" if crossed else "arg"))
    return (("n", a, "pr"), ("n", b, "pr"))


def test_annihilating_a_closed_loop_leaves_nothing():
    for crossed in (False, True):
        g = SharingGraph()
        assert reduce_step_sg(g, _closed_beta(g, "lam", "app", crossed)) == "annihilation"
        assert (g.nodes, g.wires, g.cuts) == ({}, {}, set())


def test_a_closed_loop_in_a_net_is_malformed():
    """The step refuses the cut before it changes the net."""
    for crossed in (False, True):
        net = ProofNet()
        cut = _closed_beta(net, "RLolli", "LLolli", crossed)
        before = copy.deepcopy((net.nodes, net.wires, net.cuts))
        with pytest.raises(MalformedNet, match="closed loop"):
            reduce_step_pn(net, cut)
        assert (net.nodes, net.wires, net.cuts) == before, crossed


def test_a_closed_loop_through_a_merge_leaves_the_boxes():
    """A box whose principal door's premise is wired to the auxiliary door
    it meets: the merge is refused before any box is touched."""
    net = ProofNet()
    r, inner_l = net.add_node("RBang"), net.add_node("LBang")
    outer, l = net.add_node("RBang"), net.add_node("LBang")
    net.link(("n", r, "out"), ("n", l, "out"))
    net.link(("n", r, "in"), ("n", l, "in"))
    net.link(("n", inner_l, "in"), ("c", "x"))
    net.link(("n", inner_l, "out"), ("n", outer, "in"))
    net.link(("n", outer, "out"), ("c", "main"))
    net.boxes = {r: Box([inner_l], None), outer: Box([l], None)}
    net.box_of = {r: r, inner_l: r, outer: outer, l: outer}
    before = copy.deepcopy((net.nodes, net.wires, net.cuts, net.boxes, net.box_of))
    with pytest.raises(MalformedNet, match="closed loop"):
        reduce_step_pn(net, next(iter(net.cuts)))
    assert (net.nodes, net.wires, net.cuts, net.boxes, net.box_of) == before
