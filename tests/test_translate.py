import copy

import pytest

import lamping.proofnets
from lamping.corpus import build
from lamping.pipeline import prepared_graph
from lamping.proofnets import build_proofnet, find_cuts, normalize_mlbl, reduce_step_pn
from lamping.translate import (
    IncompatibleLabelling, Labelling, check_compatible,
    labelling_dlt, labelling_lt, translate,
)
from test_portgraph import CountingDict, _inputs
from test_tower import PN_STEPS, tower


def test_lt_packs_depths(corpus_graphs):
    _, net, _, _ = corpus_graphs["two_compose_two"]
    lt = labelling_lt(net)
    depths = {net.node_depth(x) for x in net.contraction_nodes()}
    assert depths == {0, 1}
    assert lt.image_size() == 2
    assert lt.k == 2


def test_lt_merges_same_depth_contractions(corpus_graphs):
    _, net, _, _ = corpus_graphs["add_2_1"]
    assert len(net.contraction_nodes()) == 2
    assert [net.node_depth(x) for x in net.contraction_nodes()] == [0, 0]
    lt = labelling_lt(net)
    assert lt.image_size() == 1          # both contract at depth 0
    dlt = labelling_dlt(net)
    assert dlt.image_size() == 2
    assert sorted(set(dlt.mapping.values())) == [0, 1]


def test_running_example_single_index(corpus_graphs):
    _, net, lab, _ = corpus_graphs["running_example"]
    assert lab.image_size() == 1
    assert labelling_lt(net).image_size() == 1


def test_empty_labelling_for_contraction_free_net(corpus_graphs):
    _, net, _, _ = corpus_graphs["identity"]
    assert labelling_dlt(net).mapping == {}
    assert labelling_dlt(net).k == 0


def test_compatibility():
    _, d = build("two_compose_two")
    net = build_proofnet(d)
    assert check_compatible(net, labelling_lt(net))
    assert check_compatible(net, labelling_dlt(net))
    xs = net.contraction_nodes()
    bad = Labelling({x: 0 for x in xs}, k=1)  # same index, depths 0 and 1
    assert not check_compatible(net, bad)
    with pytest.raises(IncompatibleLabelling):
        translate(net, bad)


def test_identity_translation_census(corpus_graphs):
    _, _, _, g = corpus_graphs["identity"]
    assert sorted(g.nodes.values()) == ["lam"]


def test_lt_and_dlt_agree_modulo_indices(corpus_graphs):
    mode, d = build("add_2_1")
    net, _, g_dlt = prepared_graph(d, mode, "dlt")
    _, _, g_lt = prepared_graph(d, mode, "lt")
    census = lambda g: sorted(g.nodes.values())
    assert census(g_dlt) == census(g_lt)
    assert set(g_lt.index.values()) == {0}
    assert set(g_dlt.index.values()) == {0, 1}


def test_translation_preserves_interface(corpus_graphs):
    for name, (_, net, lab, g) in corpus_graphs.items():
        assert g.free_ports == net.conclusions, name
        xs = net.contraction_nodes()
        fans = [n for n, k in g.nodes.items() if k == "fan"]
        assert len(fans) == len(xs), name
        ws = [n for n, k in net.nodes.items() if k == "W"]
        eras = [n for n, k in g.nodes.items() if k == "era"]
        assert len(eras) == len(ws), name


def test_induced_labelling_restriction(corpus_graphs):
    _, net, lab, _ = corpus_graphs["running_example"]
    net = copy.deepcopy(net)
    lab = copy.deepcopy(lab)
    report = reduce_step_pn(net, find_cuts(net)[0])  # the beta step
    lab2 = copy.deepcopy(lab)
    lab2.carry(report)
    assert lab2.mapping == lab.mapping  # contraction survives untouched
    assert check_compatible(net, lab2)


def test_induced_labelling_fresh_contractions(corpus_graphs):
    _, net, lab, _ = corpus_graphs["running_example"]
    net = copy.deepcopy(net)
    lab = copy.deepcopy(lab)
    lab.carry(reduce_step_pn(net, find_cuts(net)[0]))
    rep = reduce_step_pn(net, find_cuts(net)[0])  # the contraction step
    assert rep.kind == "contract"
    old_idx = 0
    lab2 = copy.deepcopy(lab)
    lab2.carry(rep)
    assert set(lab2.mapping) == set(rep.fresh_contractions)
    assert all(i == old_idx for i in lab2.mapping.values())
    assert check_compatible(net, lab2)


def test_induced_labelling_copies_inherit(corpus_graphs):
    """Copying a box that contains a contraction gives both copies the
    original's index."""
    _, net, lab, _ = corpus_graphs["shared_numeral"]
    net = copy.deepcopy(net)
    lab = copy.deepcopy(lab)
    while True:
        cuts = find_cuts(net)
        assert cuts
        rep = reduce_step_pn(net, cuts[0])
        if rep.kind == "contract" and any(x in rep.copied for x in lab.mapping):
            inner = [x for x in rep.copied if x in lab.mapping]
            lab2 = copy.deepcopy(lab)
            lab2.carry(rep)
            for x in inner:
                assert lab2.mapping[x] == lab.mapping[x]
                assert lab2.mapping[rep.copied[x]] == lab.mapping[x]
            assert check_compatible(net, lab2)
            break
        lab.carry(rep)


def test_induced_labelling_mu_step_unchanged(corpus_graphs):
    _, net, lab, _ = corpus_graphs["mu_cut"]
    net = copy.deepcopy(net)
    rep = reduce_step_pn(net, find_cuts(net)[0])
    assert rep.kind == "mu"
    lab2 = copy.deepcopy(lab)
    lab2.carry(rep)
    assert lab2.mapping == lab.mapping == {}


def test_compatibility_preserved_along_mlbl(corpus_graphs):
    from lamping.proofnets import normalize_mlbl
    for name, (_, net, lab, _) in corpus_graphs.items():
        net = copy.deepcopy(net)
        lab = copy.deepcopy(lab)
        normalize_mlbl(net, labelling=lab)
        assert check_compatible(net, lab), name


def test_translation_after_mlbl_reads_back(corpus_graphs):
    from lamping.proofnets import normalize_mlbl
    from lamping.readback import readback_term
    from lamping.terms import alpha_eq
    _, net, lab, _ = corpus_graphs["running_example"]
    net = copy.deepcopy(net)
    lab = copy.deepcopy(lab)
    normalize_mlbl(net, labelling=lab)
    g = translate(net, lab)
    from lamping.terms import parse_term
    assert alpha_eq(readback_term(g, lab), parse_term("f (\\z.g z) (\\z.g z)"))


def reference_induced_labelling(net, lab, step):
    """The copying update `normalize_mlbl` made at every step before the
    labelling was carried in place: filter every entry against the live
    nodes, then add the copies and the fresh contractions."""
    mapping = {x: i for x, i in lab.mapping.items() if x in net.nodes}
    for old, new in step.copied.items():
        if old in lab.mapping:
            mapping[old] = lab.mapping[old]
            mapping[new] = lab.mapping[old]
    for xj in step.fresh_contractions:
        mapping[xj] = lab.mapping[step.removed[0]]
    return Labelling(mapping, k=lab.k)


def test_labelling_carried_in_place_matches_the_copying_reference(monkeypatch):
    """After every step of `normalize_mlbl`, the labelling it carries in
    place equals the reference chain."""
    step = lamping.proofnets.reduce_step_pn
    run = {}

    def checked(net, cut):
        lab, ref = run["lab"], run["ref"]
        assert lab == ref  # as the previous step left it
        report = step(net, cut)
        run["ref"] = reference_induced_labelling(net, ref, report)
        run["steps"] += 1
        return report

    monkeypatch.setattr(lamping.proofnets, "reduce_step_pn", checked)
    steps = 0
    for name, mode, d in _inputs():
        for translation in ("dlt", "lt"):
            net, lab, _ = prepared_graph(d, mode, translation)
            mapping = lab.mapping
            run.update(lab=lab, ref=copy.deepcopy(lab), steps=0)
            assert normalize_mlbl(net, labelling=lab)[1] == run["steps"]
            assert lab == run["ref"], (name, translation)
            assert lab.mapping is mapping, name
            assert check_compatible(net, lab), (name, translation)
            steps += run["steps"]
    assert steps == 2 * 817  # as in test_kept_cuts_match_the_full_wire_scan


def test_normalize_mlbl_never_lists_the_labelling():
    net, lab, _ = prepared_graph(tower(4))
    lab.mapping = CountingDict(lab.mapping)
    assert normalize_mlbl(net, labelling=lab)[1] == PN_STEPS[4]
    assert lab.mapping.scans == 0
    assert check_compatible(net, lab)
