import copy
import itertools
import random

import pytest

import lamping.semantics
from lamping.pipeline import prepared_graph
from lamping.portgraph import reduce
from lamping.proofnets import find_cuts, next_cut_mlbl, reduce_step_pn
from lamping.readback import readback_term
from lamping.semantics import (
    Reached, Stuck, TokenState, check_acyclicity, empty_ctx, minimal_contexts,
    parse_ctx, run_token, semantics_table, step_token, token_moves, weight,
)
from lamping.sharegraphs import SharingGraph, find_cuts_sg, normalize_sg
from lamping.terms import FuelExhausted
from lamping.translate import Labelling
from test_tower import tower
from test_weight_golden import _structures, church_identity

# The five conclusion-to-conclusion runs listed for the running example's
# graph; e names the main conclusion.
PAPER_RUNS = [
    ("f", "|pq", "g", "p|q"),
    ("f", "|qpq", "g", "q|q"),
    ("main", "|", "f", "|qq"),
    ("g", "p|p", "f", "|pp"),
    ("g", "q|p", "f", "|qpp"),
]


def _expect(graph, lab, start, ctx, port, out):
    r = run_token(graph, lab, start, parse_ctx(ctx, lab.k))
    assert isinstance(r, Reached)
    assert r.port == port
    assert r.ctx == parse_ctx(out, lab.k)


def test_paper_runs_exact(corpus_graphs):
    _, _, lab, g = corpus_graphs["running_example"]
    for start, ctx, port, out in PAPER_RUNS:
        _expect(g, lab, start, ctx, port, out)


def test_runs_deterministic(corpus_graphs):
    _, _, lab, g = corpus_graphs["running_example"]
    for start, ctx, _, _ in PAPER_RUNS:
        a = run_token(g, lab, start, parse_ctx(ctx, lab.k))
        b = run_token(g, lab, start, parse_ctx(ctx, lab.k))
        assert a == b


def test_fan_principal_pops_to_p_branch():
    g = SharingGraph()
    fan = g.add_node("fan", 0)
    g.link(("n", fan, "pr"), ("c", "in"))
    g.link(("n", fan, "p"), ("c", "left"))
    g.link(("n", fan, "q"), ("c", "right"))
    g.free_ports = ["in", "left", "right"]
    lab = Labelling({}, k=1)
    r = run_token(g, lab, "in", (("p", "q"), ()))
    assert r == Reached("left", (("q",), ()))


def test_lambda_body_entry_pushes_q():
    g = SharingGraph()
    n = g.add_node("lam")
    g.link(("n", n, "pr"), ("c", "root"))
    g.link(("n", n, "var"), ("c", "v"))
    g.link(("n", n, "bod"), ("c", "b"))
    g.free_ports = ["root", "v", "b"]
    lab = Labelling({}, k=0)
    state = TokenState(("n", n, "bod"), ((),))
    nxt = step_token(g, lab, state)
    assert isinstance(nxt, TokenState)
    assert nxt.ctx == (("q",),)
    res = run_token(g, lab, "b", ((),))
    assert res == Reached("root", (("q",),))


def test_eraser_has_no_rule():
    g = SharingGraph()
    e = g.add_node("era")
    g.link(("n", e, "pr"), ("c", "in"))
    g.free_ports = ["in"]
    lab = Labelling({}, k=0)
    r = run_token(g, lab, "in", ((),))
    assert isinstance(r, Stuck) and r.reason == "weakening"


def test_identity_table_at_depth_one(corpus_graphs):
    _, _, lab, g = corpus_graphs["identity"]
    table = semantics_table(g, lab, 1)
    assert table == frozenset({
        (("main", (("p",),)), ("main", (("q",),))),
        (("main", (("q",),)), ("main", (("p",),))),
    })


def test_translation_preserves_table(corpus_graphs):
    for name, (mode, net, lab, g) in corpus_graphs.items():
        assert semantics_table(net, lab, 4) == semantics_table(g, lab, 4), name


def test_translation_preserves_table_lt(corpus):
    for name, (mode, d) in corpus.items():
        net, lab, g = prepared_graph(d, mode, "lt")
        assert semantics_table(net, lab, 4) == semantics_table(g, lab, 4), name


def test_net_steps_weakly_preserve_table(corpus_graphs):
    """Every entry of the reduct's bounded table evaluates identically in
    the net it came from."""
    for name, (_, net, lab, _) in corpus_graphs.items():
        net, lab = copy.deepcopy((net, lab))
        before = copy.deepcopy((net, lab))

        def check(report):
            nonlocal before
            lab.carry(report)
            for (c, ctx), (c2, out) in semantics_table(net, lab, 4):
                assert run_token(*before, c, ctx) == Reached(c2, out), (name, c, ctx)
            before = copy.deepcopy((net, lab))
        reduce(net, next_cut_mlbl, reduce_step_pn, 10 ** 5, check)


def test_minimal_contexts_on_cut_free_graphs(corpus_graphs):
    """On a fully cut-free graph every principal-port walk is simple and
    deterministic, so each node sees exactly one free port or eraser."""
    for name, (_, _, lab, g) in corpus_graphs.items():
        g = copy.deepcopy(g)
        normalize_sg(g)
        if find_cuts_sg(g):
            continue  # an erased argument can leave an inert eraser cut
        for nid in g.nodes:
            b, p, e = minimal_contexts(g, lab, nid)
            assert len(b) == 0, (name, nid)
            assert len(p) + len(e) == 1, (name, nid)


def test_identity_lambda_minimal_contexts(corpus_graphs):
    _, _, lab, g = corpus_graphs["identity"]
    (nid,) = g.nodes
    b, p, e = minimal_contexts(g, lab, nid)
    assert b == [] and e == []
    assert p == [((),)]  # the single empty context


def test_fig9a_fan_minimal_contexts(corpus_graphs):
    _, _, lab, g = corpus_graphs["running_example"]
    (fan,) = [n for n, k in g.nodes.items() if k == "fan"]
    b, p, e = minimal_contexts(g, lab, fan)
    assert b == [] and e == []
    assert sorted(p) == [((), ("p",)), ((), ("q",))]


def test_weight_of_fig9a_pinned(corpus_graphs):
    _, _, lab, g = corpus_graphs["running_example"]
    assert weight(g, lab).total == 2


def test_weight_zero_on_translated_cut_free_nets(corpus_graphs):
    for name, (_, net, lab, g) in corpus_graphs.items():
        if find_cuts(net):
            continue
        assert weight(g, lab).total == 0, name


def test_weight_zero_after_normalization(corpus_graphs):
    for name, (_, _, lab, g) in corpus_graphs.items():
        g = copy.deepcopy(g)
        normalize_sg(g)
        if find_cuts_sg(g):
            continue
        assert weight(g, lab).total == 0, name


def test_inert_eraser_cut_carries_residual_weight(corpus_graphs):
    """An erased argument survives as garbage behind an eraser cut; the
    walk from the eraser keeps branching there, so the weight stays
    positive even though reduction is finished."""
    _, _, lab, g = corpus_graphs["weakened_app"]
    g = copy.deepcopy(g)
    normalize_sg(g)
    assert len(find_cuts_sg(g)) == 1
    assert weight(g, lab).total == 1


def test_step_and_size_bounds(corpus_graphs):
    for name, (_, _, lab, g) in corpus_graphs.items():
        g = copy.deepcopy(g)
        w = weight(g, lab).total
        size0 = g.size()
        g, stats = normalize_sg(g)
        assert stats.steps <= w + size0 / 2, name
        assert g.size() <= w + size0, name


def test_acyclicity_on_corpus(corpus_graphs):
    for name, (_, net, lab, g) in corpus_graphs.items():
        assert check_acyclicity(g, lab), name
        assert check_acyclicity(net, lab), name


def test_fan_loop_detected_cyclic():
    g = SharingGraph()
    fan = g.add_node("fan", 0)
    g.link(("n", fan, "pr"), ("n", fan, "p"))
    g.link(("n", fan, "q"), ("c", "out"))
    g.free_ports = ["out"]
    assert not check_acyclicity(g, Labelling({}, k=1))


def test_single_node_graph_acyclic():
    g = SharingGraph()
    n = g.add_node("lam")
    for port, name in (("pr", "r"), ("var", "v"), ("bod", "b")):
        g.link(("n", n, port), ("c", name))
    g.free_ports = ["r", "v", "b"]
    assert check_acyclicity(g, Labelling({}, k=0))


# -- brute-force oracle for the minimal context sets -------------------------

def all_stacks(maxlen):
    out = [()]
    for l in range(1, maxlen + 1):
        out.extend(itertools.product("pq", repeat=l))
    return out


def brute_minimal_contexts(g, lab, nid, maxlen=6):
    role = g.machine_role(nid)
    k = lab.k
    if role[0] == "none":
        pinned = None
        start = g.wires[("n", nid, g.ports(nid)[0])]
    else:
        pinned = k if role[0] == "mult" else token_moves(g, lab)[("n", nid, role[1])][1]
        start = g.wires[("n", nid, role[1])]
    stacks = all_stacks(maxlen)
    slots = [[()] if s == pinned else stacks for s in range(k + 1)]
    B, P, E = [], [], []
    for combo in itertools.product(*slots):
        r = run_token(g, lab, start, combo)
        if isinstance(r, Reached):
            P.append(combo)
        elif isinstance(r, Stuck):
            if r.reason == "weakening":
                E.append(combo)
            elif r.slot == pinned:
                B.append(combo)

    def minimal(cs):
        def leq(a, b):
            return all(len(x) <= len(y) and y[:len(x)] == x for x, y in zip(a, b))
        return sorted(c for c in cs if not any(leq(d, c) and d != c for d in cs))

    return minimal(B), minimal(P), minimal(E)


@pytest.mark.parametrize("name", ["running_example", "shared_bound", "church2",
                                  "weakened_app", "lal_church2"])
def test_minimal_contexts_match_brute_force(corpus_graphs, name):
    _, _, lab, g = corpus_graphs[name]
    assert g.size() <= 12
    for nid in sorted(g.nodes):
        got = tuple(tuple(sorted(s)) for s in minimal_contexts(g, lab, nid))
        want = tuple(tuple(sorted(s)) for s in brute_minimal_contexts(g, lab, nid))
        assert got == want, (name, nid)


def test_walk_budget_run_out_raises(corpus_graphs, monkeypatch):
    """Every walk layer runs out the same way; the weight is never inf."""
    _, _, lab, g = corpus_graphs["running_example"]
    normal = normalize_sg(copy.deepcopy(g))[0]
    monkeypatch.setattr(lamping.semantics, "WALK_BUDGET", 3)
    for run in (lambda: weight(g, lab), lambda: semantics_table(g, lab),
                lambda: readback_term(normal, lab)):
        with pytest.raises(FuelExhausted, match="exceeded 3 token steps"):
            run()


# -- the move table against the role-based machine it replaced ---------------

def reference_step_token(structure, labelling, state):
    """The transition as it was before the move table: the node's role,
    its fan index and the next end, looked up at every step."""
    target, ctx = state.target, state.ctx
    if target[0] == "c":
        return Reached(target[1], ctx)
    nid, port = target[1], target[2]
    role = structure.machine_role(nid)
    if role[0] == "none":
        return Stuck(target, "weakening", ctx)
    if role[0] == "id":
        out = role[2] if port == role[1] else role[1]
        return TokenState(structure.wires[("n", nid, out)], ctx)
    _, pr, p_port, q_port = role
    k = len(ctx) - 1
    slot = k if role[0] == "mult" else _reference_exp_index(structure, labelling, nid)
    if port == pr:
        stack = ctx[slot]
        if not stack:
            reason = "empty-mult" if slot == k else "empty-exp"
            return Stuck(target, reason, ctx, slot)
        sym, rest = stack[0], stack[1:]
        out = p_port if sym == "p" else q_port
        new_ctx = ctx[:slot] + (rest,) + ctx[slot + 1:]
        return TokenState(structure.wires[("n", nid, out)], new_ctx)
    sym = "p" if port == p_port else "q"
    new_ctx = ctx[:slot] + ((sym,) + ctx[slot],) + ctx[slot + 1:]
    return TokenState(structure.wires[("n", nid, pr)], new_ctx)


def _reference_exp_index(structure, labelling, nid):
    idx = getattr(structure, "index", None)
    if idx is not None and nid in idx:
        return idx[nid]
    return labelling.mapping[nid]


def reference_lazy_explore(structure, labelling, start, k, *, pinned, bound,
                           fuel, detect_cycles=False):
    """The explorer as it was before the move table: every step copies
    the whole context tuple, so no two branches can share a stack."""
    from lamping.semantics import _comparable, _Terminal, empty_ctx
    out = []
    stack = [(start, empty_ctx(k), empty_ctx(k), None, 0)]
    while stack:
        target, contents, assumed, visits, steps = stack.pop()
        while True:
            steps += 1
            if steps > fuel:
                out.append(_Terminal("fuel", target, assumed))
                break
            if detect_cycles:
                v = visits
                hit = False
                while v is not None:
                    vt, vctx, vass, v = v
                    then = tuple(c + assumed[i][len(vass[i]):]
                                 for i, c in enumerate(vctx))
                    if vt == target and _comparable(then, contents):
                        out.append(_Terminal("cycle", target, assumed, contents))
                        hit = True
                        break
                if hit:
                    break
                visits = (target, contents, assumed, visits)
            if target[0] == "c":
                out.append(_Terminal("land", target[1], assumed, contents))
                break
            nid, port = target[1], target[2]
            role = structure.machine_role(nid)
            if role[0] == "none":
                out.append(_Terminal("era", nid, assumed, contents))
                break
            if role[0] == "id":
                nxt = role[2] if port == role[1] else role[1]
                target = structure.wires[("n", nid, nxt)]
                continue
            _, pr, p_port, q_port = role
            slot = k if role[0] == "mult" else _reference_exp_index(structure, labelling, nid)
            if port == pr:
                if contents[slot]:
                    sym, rest = contents[slot][0], contents[slot][1:]
                    contents = contents[:slot] + (rest,) + contents[slot + 1:]
                    target = structure.wires[("n", nid, p_port if sym == "p" else q_port)]
                    continue
                if slot == pinned:
                    out.append(_Terminal("pinned", nid, assumed, contents))
                    break
                if bound is not None and len(assumed[slot]) >= bound:
                    break
                for sym in ("q", "p"):
                    branch_assumed = assumed[:slot] + (assumed[slot] + (sym,),) + assumed[slot + 1:]
                    nxt = structure.wires[("n", nid, p_port if sym == "p" else q_port)]
                    stack.append((nxt, contents, branch_assumed, visits, steps))
                break
            sym = "p" if port == p_port else "q"
            contents = contents[:slot] + ((sym,) + contents[slot],) + contents[slot + 1:]
            target = structure.wires[("n", nid, pr)]
    return out


def _draws():
    """(name, mode, derivation) for seeded random draws."""
    from test_randomized import Gen, LalGen
    for seed in range(20):
        yield f"gen{seed}", "eal", Gen(seed).grow()
        yield f"lalgen{seed}", "lal", LalGen(seed).grow()


def _random_ctx(rng, k):
    return tuple(tuple(rng.choice("pq") for _ in range(rng.randint(0, 3)))
                 for _ in range(k + 1))


def test_table_step_matches_the_role_based_step(corpus):
    """From every wired end, under seeded contexts with stacks of at
    most 3 symbols, one step gives the same state, landing or stop,
    reason and slot included."""
    rng = random.Random(12)
    inputs = [(name, mode, d) for name, (mode, d) in sorted(corpus.items())]
    compared = 0
    for name, mode, d in inputs + list(_draws()):
        for translation in ("lt", "dlt"):
            for kind, s, lab in _structures(mode, d, translation):
                moves = token_moves(s, lab)
                assert moves.keys() == s.wires.keys()
                for end in s.wires:
                    for ctx in [empty_ctx(lab.k)] + [_random_ctx(rng, lab.k) for _ in range(4)]:
                        state = TokenState(end, ctx)
                        want = reference_step_token(s, lab, state)
                        got = step_token(s, lab, state, moves)
                        assert type(got) is type(want), (name, kind, end, ctx)
                        assert got == want, (name, kind, end, ctx)
                        compared += 1
    assert compared > 10000


def _explorer_inputs(corpus):
    """(name, structure, labelling, probe cycles) for the explorer
    comparison; the cycle probe is quadratic in its fuel, so it runs on
    the small inputs only."""
    small = [(name, mode, d) for name, (mode, d) in sorted(corpus.items())]
    small += list(_draws())
    large = [(f"church_identity{n}", "eal", church_identity(n)) for n in (16, 48)]
    large += [(f"tower{k}", "eal", tower(k)) for k in range(1, 7)]
    for inputs, cycles in ((small, True), (large, False)):
        for name, mode, d in inputs:
            for translation in ("lt", "dlt"):
                for kind, s, lab in _structures(mode, d, translation):
                    yield f"{name}/{translation}/{kind}", s, lab, cycles


def test_explorer_matches_the_tuple_copying_reference(corpus, monkeypatch):
    """Every walk of the weight (the B/P/E sets of every node), of the
    depth-4 table and of the cycle probe ends in the same terminals, in
    the same order, with the same assumed and landing contexts, as the
    explorer that copied every context. Two forks that shared a mutated
    stack list would disagree here."""
    explore = lamping.semantics._lazy_explore
    current = {}
    walks = []

    def compared(moves, start, k, *, pinned, **kw):
        got = explore(moves, start, k, pinned=pinned, **kw)
        # the move table names the multiplicative slot -1, the reference k
        want = reference_lazy_explore(current["s"], current["lab"], start, k,
                                      pinned=k if pinned == -1 else pinned, **kw)
        assert got == want, (current["name"], start, kw)
        walks.append(len(got))
        return got

    monkeypatch.setattr(lamping.semantics, "_lazy_explore", compared)
    for name, s, lab, cycles in _explorer_inputs(corpus):
        current.update(name=name, s=s, lab=lab)
        weight(s, lab)
        semantics_table(s, lab, 4)
        if cycles:
            check_acyclicity(s, lab)
    assert len(walks) > 5000 and max(walks) > 10
