"""End-to-end pipeline: check, build, translate, normalize, read back.

The run report carries every number the acceptance checks care about:
net census and depth, graph size, step counts split by kind, the weight
of the initial graph, and whether the step/size bounds and the oracle
comparison hold.
"""

from __future__ import annotations

from dataclasses import dataclass

from .derivations import Derivation, check_derivation
from .proofnets import ProofNet, build_proofnet, find_cuts, net_depth, normalize_mlbl
from .readback import readback_term
from .semantics import weight
from .sharegraphs import SGStats, SharingGraph, normalize_sg
from .terms import Term, alpha_eq, beta_normalize, show_term
from .translate import Labelling, labelling_dlt, labelling_lt, translate

__all__ = ["RunStats", "run_pipeline", "prepared_graph", "format_report"]


@dataclass
class RunStats:
    mode: str
    translation: str
    strategy: str
    pn_nodes: int
    pn_edges: int
    pn_depth: int
    graph_size: int
    steps: int
    annihilations: int
    copies: int
    peak_size: int
    final_size: int
    weight_total: int | None  # None on pn-mlbl, like the bounds it feeds
    steps_bound_ok: bool | None  # None on pn-mlbl: the bounds are on graph steps
    size_bound_ok: bool | None
    readback: Term
    oracle: Term
    verdict: bool
    pn_steps: int = 0
    probe_depth: int = 0
    table_preserved: bool | None = None


def prepared_graph(d: Derivation, mode: str = "eal",
                   translation: str = "dlt") -> tuple[ProofNet, Labelling, SharingGraph]:
    """Check, build and translate; the usual test entry point."""
    check_derivation(d, mode)
    net = build_proofnet(d)
    lab = labelling_dlt(net) if translation == "dlt" else labelling_lt(net)
    return net, lab, translate(net, lab)


def run_pipeline(d: Derivation, mode: str = "eal", translation: str = "dlt",
                 strategy: str = "sg", max_steps: int = 10 ** 5,
                 probe_depth: int = 0) -> RunStats:
    """Full pipeline. A positive probe_depth additionally compares the
    bounded semantics tables of the net and its translation."""
    judgement = check_derivation(d, mode)
    oracle = beta_normalize(judgement.subject)
    net = build_proofnet(d)
    pn_nodes = net.size()
    pn_edges = len(net.wires) // 2
    pn_depth = net_depth(net)
    lab = labelling_dlt(net) if translation == "dlt" else labelling_lt(net)
    pn_steps = 0
    table_preserved = None
    # the sg route rewrites the graph it probed; pn-mlbl translates the
    # normal net, so without a probe it needs no graph of the initial one
    graph = translate(net, lab) if probe_depth > 0 or strategy != "pn-mlbl" else None
    if probe_depth > 0:
        from .semantics import semantics_table
        table_preserved = (semantics_table(net, lab, probe_depth)
                           == semantics_table(graph, lab, probe_depth))

    if strategy == "pn-mlbl":
        net, pn_steps = normalize_mlbl(net, max_steps, labelling=lab)
        assert not find_cuts(net)
        graph = translate(net, lab)
    g0_size = graph.size()
    if strategy == "pn-mlbl":
        stats, w, steps_ok, size_ok = SGStats(peak_size=g0_size), None, None, None
    else:
        w = weight(graph, lab).total
        graph, stats = normalize_sg(graph, max_steps)
        steps_ok = stats.steps <= w + g0_size / 2
        size_ok = graph.size() <= w + g0_size
    rb = readback_term(graph, lab)
    verdict = alpha_eq(rb, oracle) and steps_ok is not False and size_ok is not False
    return RunStats(
        mode=mode, translation=translation, strategy=strategy,
        pn_nodes=pn_nodes, pn_edges=pn_edges, pn_depth=pn_depth,
        graph_size=g0_size, steps=stats.steps,
        annihilations=stats.annihilations, copies=stats.copies,
        peak_size=stats.peak_size, final_size=graph.size(),
        weight_total=w, steps_bound_ok=steps_ok, size_bound_ok=size_ok,
        readback=rb, oracle=oracle, verdict=verdict, pn_steps=pn_steps,
        probe_depth=probe_depth, table_preserved=table_preserved,
    )


def _shown(value: bool | int | None) -> str:
    return "n/a" if value is None else str(value).lower()


def format_report(r: RunStats) -> str:
    lines = [
        f"mode {r.mode}",
        f"translation {r.translation}",
        f"strategy {r.strategy}",
        f"proofnet.nodes {r.pn_nodes}",
        f"proofnet.edges {r.pn_edges}",
        f"proofnet.depth {r.pn_depth}",
        f"proofnet.steps {r.pn_steps}",
        f"graph.size {r.graph_size}",
        f"graph.final_size {r.final_size}",
        f"steps.total {r.steps}",
        f"steps.annihilations {r.annihilations}",
        f"steps.copies {r.copies}",
        f"steps.peak_size {r.peak_size}",
        f"weight {_shown(r.weight_total)}",
        f"bound.steps_ok {_shown(r.steps_bound_ok)}",
        f"bound.size_ok {_shown(r.size_bound_ok)}",
    ]
    if r.table_preserved is not None:
        lines.append(f"semantics.probe_depth {r.probe_depth}")
        lines.append(f"semantics.table_preserved {str(r.table_preserved).lower()}")
    lines += [
        f"readback {show_term(r.readback)}",
        f"oracle {show_term(r.oracle)}",
        f"verdict {'pass' if r.verdict else 'fail'}",
    ]
    return "\n".join(lines)
