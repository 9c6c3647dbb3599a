"""Church towers: k nested composed Church twos applied to free S and Z.

Tower k generalises the corpus entry two_compose_two_applied (k = 2) and
nests boxes k deep, where the corpus stops at 2. Its normal form is
S^(2^k) Z. The sharing-graph route takes 4k-1 steps with k-1 copies; the
level-by-level proof-net route takes the pinned counts below, which are
11·2^(k-1) - k - 6.
"""

import copy
import sys
from collections import defaultdict

import pytest

import lamping.proofnets
import lamping.sharegraphs
from lamping.corpus import CORPUS, _church, build
from lamping.derivations import ax, bang, cut, dapp, forall_l, forall_r, lam, llolli
from lamping.formulas import Atom, Bang, Forall, Lolli
from lamping.pipeline import format_report, prepared_graph, run_pipeline
from lamping.proofnets import (Box, ProofNet, _cut_kind, build_proofnet, edge_depth, net_depth,
                               normalize_mlbl)
from lamping.sharegraphs import normalize_sg
from lamping.terms import App, FuelExhausted, Var
from lamping.translate import check_compatible, labelling_dlt, labelling_lt

A = Atom("a")
PN_STEPS = {1: 4, 2: 14, 3: 35, 4: 78, 5: 165, 6: 340, 7: 691, 8: 1394}


def _bangs(f, n):
    for _ in range(n):
        f = Bang(f)
    return f


def tower(k):
    t = Atom("t")
    numeral = Forall("t", Lolli(Bang(Lolli(t, t)), Lolli(Bang(t), Bang(t))))
    inst = A
    d = ax("s", Bang(Lolli(A, A)))
    for i in range(1, k + 1):
        arrow = Lolli(Bang(inst), Bang(inst))
        d = llolli(f"n{i}", f"h{i}", d if i == 1 else bang(d), ax(f"h{i}", arrow))
        d = forall_l(f"n{i}", numeral, inst, d)
        d = cut(f"n{i}", forall_r("t", _church(2, t)), d)
        inst = Bang(inst)
    d = dapp(lam("s", d), ax("S", _bangs(Lolli(A, A), k)), "apS")
    return dapp(d, ax("Z", _bangs(A, k)), "apZ")


def _is_s_power(t, n):
    """S applied n times to Z, walked node by node without recursion."""
    for _ in range(n):
        if not (isinstance(t, App) and t.fun == Var("S")):
            return False
        t = t.arg
    return t == Var("Z")


@pytest.mark.parametrize("k", sorted(PN_STEPS))
def test_tower_counts_and_readback(k):
    d = tower(k)
    sg = run_pipeline(d, "eal", "dlt", "sg")
    assert (sg.steps, sg.copies) == (4 * k - 1, k - 1)
    pn = run_pipeline(d, "eal", "dlt", "pn-mlbl")
    assert pn.pn_steps == PN_STEPS[k]
    for r in (sg, pn):
        assert r.verdict
        assert _is_s_power(r.readback, 2 ** k)


def test_pn_steps_follow_the_closed_form():
    assert all(n == 11 * 2 ** (k - 1) - k - 6 for k, n in PN_STEPS.items())


@pytest.mark.parametrize("k", [10, 12])
def test_tower_runs_end_to_end_at_the_default_recursion_limit(k):
    """S^(2^k) Z is deeper than CPython's default limit of 1000 frames:
    readback, the oracle, the comparison and the report walk it with
    explicit stacks."""
    n = 2 ** k
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        r = run_pipeline(tower(k), "eal", "dlt", "sg")
        assert r.verdict
        assert _is_s_power(r.readback, n)
        report = format_report(r).splitlines()
    finally:
        sys.setrecursionlimit(limit)
    assert "verdict pass" in report
    assert f"readback {'S (' * (n - 1)}S Z{')' * (n - 1)}" in report


def _check_box_tree(net):
    for n, b in net.box_of.items():
        assert n in net.nodes, n
        assert b in net.boxes, (n, b)
    for r, box in net.boxes.items():
        assert net.box_of[r] == r
        assert all(net.box_of[a] == r for a in box.aux_doors), r
        seen = {r}
        p = box.parent
        while p is not None:
            assert p in net.boxes and p not in seen, (r, p)
            seen.add(p)
            p = net.boxes[p].parent
    net_depth(net)  # raises when an edge spans two depths


def _nets():
    for name in CORPUS:
        mode, d = build(name)
        yield build_proofnet(d, mode)
    for k in range(1, 5):
        yield build_proofnet(tower(k))


def test_box_tree_holds_after_every_step(monkeypatch):
    step = lamping.proofnets.reduce_step_pn
    fired = []

    def checked(net, cut):
        report = step(net, cut)
        _check_box_tree(net)
        fired.append(report.kind)
        return report

    monkeypatch.setattr(lamping.proofnets, "reduce_step_pn", checked)
    for net in _nets():
        _check_box_tree(net)
        normalize_mlbl(net)
    assert {"merge", "contract"} <= set(fired)


def reference_box_contents(net, r):
    """`box_contents` by scanning every box and every `box_of` entry, as
    it was before boxes kept their members and children."""
    def within(b):
        while b is not None and b != r:
            b = net.boxes[b].parent
        return b == r
    nested = {b for b in net.boxes if within(b)}
    return {n for n, b in net.box_of.items() if b in nested}


def reference_merge(boxes, box_of, na, nb):
    """The box bookkeeping of a merge of the box na into the box of its
    auxiliary door nb as it was before boxes kept an index: both doors
    leave `box_of`, and the inner box's nodes and child boxes move to the
    host by a scan of every `box_of` entry and every box."""
    host = box_of.pop(nb)
    del box_of[na]
    inner_box = boxes.pop(na)
    for n, b in box_of.items():
        if b == na:
            box_of[n] = host
    for b in boxes.values():
        if b.parent == na:
            b.parent = host
    host_box = boxes[host]
    host_box.aux_doors = [x for x in host_box.aux_doors if x != nb] + inner_box.aux_doors


def _check_box_index(net):
    """Each box's members and children are the scans of `box_of` and of
    the parent links, and its contents the reference's."""
    members, children = defaultdict(set), defaultdict(set)
    for n, b in net.box_of.items():
        members[b].add(n)
    for r, box in net.boxes.items():
        children[box.parent].add(r)
    for r, box in net.boxes.items():
        assert box.members == members[r], r
        assert box.children == children[r], r
        assert net.box_contents(r) == reference_box_contents(net, r), r


def _checking_steps(monkeypatch, on_step=None):
    """Wrap `reduce_step_pn` and `find_cuts`: every merge is compared with
    `reference_merge`, the box index with the scans after every step
    (after `on_step(net, cut, inner_box)` has had a look), and each
    `find_cuts` with a fresh sort, its log read to the end. Returns the
    kinds fired."""
    step, scan = lamping.proofnets.reduce_step_pn, lamping.proofnets.find_cuts
    kinds = []

    def stepping(net, cut):
        kind, na, nb = _cut_kind(net, cut)
        inner_box = net.boxes.get(na)
        if kind == "merge":
            boxes = {r: Box(list(b.aux_doors), b.parent) for r, b in net.boxes.items()}
            box_of = dict(net.box_of)
            reference_merge(boxes, box_of, na, nb)
        report = step(net, cut)
        if kind == "merge":
            assert (net.boxes, net.box_of) == (boxes, box_of)
        if on_step is not None:
            on_step(net, cut, inner_box)
        _check_box_index(net)
        kinds.append(kind)
        return report

    def scanning(net):
        cuts = scan(net)
        assert net.cut_log == []
        assert cuts == sorted(net.cuts, key=lambda c: (edge_depth(net, c), c))
        return cuts

    monkeypatch.setattr(lamping.proofnets, "reduce_step_pn", stepping)
    monkeypatch.setattr(lamping.proofnets, "find_cuts", scanning)
    return kinds


def test_box_index_and_cut_log_follow_every_step(monkeypatch):
    from test_weight_golden import church_identity
    kinds = _checking_steps(monkeypatch)
    ds = [build(name) for name in sorted(CORPUS)]
    ds += [("eal", tower(k)) for k in range(1, 7)] + [("eal", church_identity(16))]
    for mode, d in ds:
        for labelling in (labelling_lt, labelling_dlt):
            net = build_proofnet(d, mode)
            _check_box_index(net)
            normalize_mlbl(net, labelling=labelling(net))
    assert {"merge", "contract"} <= set(kinds)


def test_a_merge_that_skips_moving_the_children_fails_the_check(monkeypatch):
    """A merge that left the inner box's child boxes out of the host's
    `children` is caught."""
    skipped = []

    def skip_children(net, cut, inner_box):
        if inner_box and inner_box.children:
            host = net.boxes[next(iter(inner_box.children))].parent
            net.boxes[host].children -= inner_box.children
            skipped.append(cut)

    _checking_steps(monkeypatch, skip_children)
    with pytest.raises(AssertionError):
        normalize_mlbl(build_proofnet(tower(3)))
    assert skipped


def _count_calls(monkeypatch, owner, name):
    """Wrap owner.name; returns the list its results are appended to."""
    fn = getattr(owner, name)
    results = []

    def counted(*args):
        results.append(fn(*args))
        return results[-1]

    monkeypatch.setattr(owner, name, counted)
    return results


def test_contraction_copies_without_listing_every_wire(monkeypatch):
    net = build_proofnet(tower(4))
    edges = _count_calls(monkeypatch, ProofNet, "edges")
    reports = _count_calls(monkeypatch, lamping.proofnets, "reduce_step_pn")
    assert normalize_mlbl(net)[1] == PN_STEPS[4]
    assert "contract" in {r.kind for r in reports}
    assert edges == []


def test_contraction_copies_the_box_once_in_place(monkeypatch):
    """A contraction keeps the box as the first copy and adds one fresh
    copy: it removes only its X, so a run removes two nodes per
    annihilation and one per contraction, and the labelling it carries
    stays compatible."""
    from test_weight_golden import church_identity
    step = lamping.proofnets.reduce_step_pn
    removals = _count_calls(monkeypatch, ProofNet, "remove_node")
    run = {}

    def checked(net, cut):
        before = dict(net.nodes)
        report = step(net, cut)
        run["kinds"].append(report.kind)
        run["lab"].carry(report)
        if report.kind == "contract":
            (x,) = report.removed
            assert before[x] == "X" and x not in net.nodes
            assert report.copied
            for old, new in report.copied.items():
                assert net.nodes[old] == before[old]  # the first copy is the box itself
                assert new not in before and net.nodes[new] == before[old]
            assert check_compatible(net, run["lab"])
        return report

    monkeypatch.setattr(lamping.proofnets, "reduce_step_pn", checked)
    ds = [build(name) for name in sorted(CORPUS)]
    ds += [("eal", tower(k)) for k in range(1, 6)] + [("eal", church_identity(16))]
    contractions = 0
    for mode, d in ds:
        for labelling in (labelling_lt, labelling_dlt):
            net = build_proofnet(d, mode)
            run.update(kinds=[], lab=labelling(net))
            removals.clear()
            normalize_mlbl(net)
            n = run["kinds"].count("contract")
            assert len(removals) == 2 * (len(run["kinds"]) - n) + n
            contractions += n
    assert contractions > 0


def test_budget_one_short_stops_at_the_budget(monkeypatch):
    k = 3
    net, _, g = prepared_graph(tower(k))
    sg = _count_calls(monkeypatch, lamping.sharegraphs, "reduce_step_sg")
    pn = _count_calls(monkeypatch, lamping.proofnets, "reduce_step_pn")
    # a budget of 0: a cut-free input returns, and tower 1 stops before its first step
    free_net, _, free_g = prepared_graph(*reversed(build("church2")))
    assert normalize_sg(free_g, 0)[1].steps == 0
    assert normalize_mlbl(free_net, 0)[1] == 0
    net1, _, g1 = prepared_graph(tower(1))
    with pytest.raises(FuelExhausted, match="exceeded 0 steps"):
        normalize_sg(g1, 0)
    with pytest.raises(FuelExhausted, match="exceeded 0 steps"):
        normalize_mlbl(net1, 0)
    assert not sg and not pn
    with pytest.raises(FuelExhausted, match=f"exceeded {4 * k - 2} steps"):
        normalize_sg(copy.deepcopy(g), 4 * k - 2)
    assert len(sg) == 4 * k - 2
    with pytest.raises(FuelExhausted, match=f"exceeded {PN_STEPS[k] - 1} steps"):
        normalize_mlbl(copy.deepcopy(net), PN_STEPS[k] - 1)
    assert len(pn) == PN_STEPS[k] - 1
    # a budget of exactly the steps needed is enough
    assert normalize_sg(g, 4 * k - 1)[1].steps == 4 * k - 1
    assert normalize_mlbl(net, PN_STEPS[k])[1] == PN_STEPS[k]
