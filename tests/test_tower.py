"""Church towers: k nested composed Church twos applied to free S and Z.

Tower k generalises the corpus entry two_compose_two_applied (k = 2) and
nests boxes k deep, where the corpus stops at 2. Its normal form is
S^(2^k) Z. The sharing-graph route takes 4k-1 steps with k-1 copies; the
level-by-level proof-net route takes the pinned counts below.
"""

import copy
import sys

import pytest

import lamping.proofnets
import lamping.sharegraphs
from lamping.corpus import CORPUS, _church, build
from lamping.derivations import ax, bang, cut, dapp, forall_l, forall_r, lam, llolli
from lamping.formulas import Atom, Bang, Forall, Lolli
from lamping.pipeline import format_report, prepared_graph, run_pipeline
from lamping.proofnets import ProofNet, build_proofnet, net_depth, normalize_mlbl
from lamping.sharegraphs import normalize_sg
from lamping.terms import App, FuelExhausted, Var

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
        _, d = build(name)
        yield build_proofnet(d)
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


def test_budget_one_short_stops_at_the_budget(monkeypatch):
    k = 3
    net, _, g = prepared_graph(tower(k))
    sg = _count_calls(monkeypatch, lamping.sharegraphs, "reduce_step_sg")
    pn = _count_calls(monkeypatch, lamping.proofnets, "reduce_step_pn")
    with pytest.raises(FuelExhausted, match=f"exceeded {4 * k - 2} steps"):
        normalize_sg(copy.deepcopy(g), 4 * k - 2)
    assert len(sg) == 4 * k - 2
    with pytest.raises(FuelExhausted, match=f"exceeded {PN_STEPS[k] - 1} steps"):
        normalize_mlbl(copy.deepcopy(net), PN_STEPS[k] - 1)
    assert len(pn) == PN_STEPS[k] - 1
    # a budget of exactly the steps needed is enough
    assert normalize_sg(g, 4 * k - 1)[1].steps == 4 * k - 1
    assert normalize_mlbl(net, PN_STEPS[k])[1] == PN_STEPS[k]
