"""Abstract sharing graphs and their local rewrite rules.

Nodes are lambda, application, indexed fan-in, and eraser. The rewrite
relation has five rules: lambda/app annihilation (beta), same-index fan
annihilation, and three copy rules (fan against lambda, app, or a fan
of a different index). Eraser cuts are inert: there are no garbage
collection rules, and leaving garbage in place is harmless.
"""

from __future__ import annotations

from dataclasses import dataclass

from .portgraph import End, PortGraph, is_cut, principal_pairs, to_dot
from .terms import FuelExhausted

__all__ = [
    "SharingGraph", "SGStats", "MalformedGraph", "EraserCut",
    "find_cuts_sg", "reduce_step_sg", "normalize_sg",
    "count_maximal_paths", "canonical_form", "graph_dump", "graph_dot",
]


class MalformedGraph(Exception):
    pass


class EraserCut(Exception):
    pass


@dataclass
class SGStats:
    steps: int = 0
    annihilations: int = 0
    copies: int = 0
    peak_size: int = 0


class SharingGraph(PortGraph):
    PORTS = {
        "lam": ("pr", "var", "bod"),
        "app": ("pr", "arg", "res"),
        "fan": ("pr", "p", "q"),
        "era": ("pr",),
    }
    ROLES = {"lam": "mult", "app": "mult", "fan": "exp", "era": "none"}

    def __init__(self) -> None:
        super().__init__()
        self.index: dict[int, int] = {}  # fan node -> index
        self.free_ports: list[str] = []

    def add_node(self, kind: str, index: int | None = None) -> int:
        nid = super().add_node(kind)
        if kind == "fan":
            assert index is not None
            self.index[nid] = index
        return nid

    @property
    def conclusions(self) -> list[str]:
        return self.free_ports


# ---------------------------------------------------------------------------
# cuts and rewriting

def find_cuts_sg(g: SharingGraph) -> list[tuple[End, End]]:
    """All principal-principal edges, eraser cuts included, in a stable order."""
    return sorted(principal_pairs(g),
                  key=lambda e: (min(e[0][1], e[1][1]), max(e[0][1], e[1][1])))


def _is_eraser_cut(g: SharingGraph, cut: tuple[End, End]) -> bool:
    return g.nodes[cut[0][1]] == "era" or g.nodes[cut[1][1]] == "era"


def reduce_step_sg(g: SharingGraph, cut: tuple[End, End]) -> str:
    """Fire one cut in place; returns 'annihilation' or 'copy'."""
    if not is_cut(g, cut):
        raise MalformedGraph(f"not a cut: {cut}")
    if _is_eraser_cut(g, cut):
        raise EraserCut(str(cut))
    na, nb = cut[0][1], cut[1][1]
    ka, kb = g.nodes[na], g.nodes[nb]

    if {ka, kb} == {"lam", "app"}:
        lam_, app_ = (na, nb) if ka == "lam" else (nb, na)
        _splice(g, ("n", lam_, "bod"), ("n", app_, "res"))
        _splice(g, ("n", lam_, "var"), ("n", app_, "arg"))
        g.unlink(("n", lam_, "pr"))
        _drop(g, lam_)
        _drop(g, app_)
        return "annihilation"

    if ka == "fan" and kb == "fan" and g.index[na] == g.index[nb]:
        _splice(g, ("n", na, "p"), ("n", nb, "p"))
        _splice(g, ("n", na, "q"), ("n", nb, "q"))
        g.unlink(("n", na, "pr"))
        _drop(g, na)
        _drop(g, nb)
        return "annihilation"

    if ka == "fan" or kb == "fan":
        fan, other = (na, nb) if ka == "fan" else (nb, na)
        if g.nodes[other] == "fan" and g.index[fan] == g.index[other]:
            raise MalformedGraph("unreachable")
        _copy_through(g, fan, other)
        return "copy"

    raise MalformedGraph(f"unmatched cut pair {ka}/{kb}")


def _splice(g: SharingGraph, a: End, b: End) -> None:
    pa = g.unlink(a)
    if pa == b:
        # the two aux ports were wired to each other; the pair vanishes
        return
    pb = g.unlink(b)
    g.link(pa, pb)


def _drop(g: SharingGraph, nid: int) -> None:
    del g.nodes[nid]
    g.index.pop(nid, None)


def _copy_through(g: SharingGraph, fan: int, other: int) -> None:
    """Fan meets a non-matching node: duplicate it, re-fan its aux wires.

    The duplicate reached through the fan's p (resp. q) branch keeps the
    wiring of that branch, and every new fan keeps the original index and
    aux orientation.
    """
    idx = g.index[fan]
    kind = g.nodes[other]
    aux = g.ports(other)[1:]

    fan_p = g.unlink(("n", fan, "p"))
    fan_q = g.unlink(("n", fan, "q"))
    g.unlink(("n", fan, "pr"))

    copy_p = g.add_node(kind, g.index.get(other))
    copy_q = g.add_node(kind, g.index.get(other))
    g.link(fan_p, ("n", copy_p, "pr"))
    g.link(fan_q, ("n", copy_q, "pr"))

    for port in aux:
        target = g.unlink(("n", other, port))
        nf = g.add_node("fan", idx)
        g.link(("n", nf, "pr"), target)
        g.link(("n", nf, "p"), ("n", copy_p, port))
        g.link(("n", nf, "q"), ("n", copy_q, port))
    _drop(g, fan)
    _drop(g, other)


def normalize_sg(g: SharingGraph, fuel: int = 10 ** 5) -> tuple[SharingGraph, SGStats]:
    """Reduce until only eraser cuts remain, lowest node-id cut first."""
    stats = SGStats(peak_size=g.size())
    while True:
        cuts = [c for c in find_cuts_sg(g) if not _is_eraser_cut(g, c)]
        if not cuts:
            return g, stats
        if stats.steps == fuel:
            raise FuelExhausted(f"normalization exceeded {fuel} steps")
        kind = reduce_step_sg(g, cuts[0])
        stats.steps += 1
        if kind == "annihilation":
            stats.annihilations += 1
        else:
            stats.copies += 1
        stats.peak_size = max(stats.peak_size, g.size())


def is_cut_free(g: SharingGraph) -> bool:
    return not any(not _is_eraser_cut(g, c) for c in find_cuts_sg(g))


# ---------------------------------------------------------------------------
# paths

def count_maximal_paths(g: SharingGraph, port: str, fuel: int = 10 ** 5) -> int:
    """Number of maximal direct paths leaving the named free port."""
    if not is_cut_free(g):
        raise MalformedGraph("graph has cuts")
    count = 0
    budget = fuel

    def walk(cur_end: End) -> None:
        nonlocal count, budget
        budget -= 1
        if budget < 0:
            raise MalformedGraph("path enumeration exceeded fuel")
        if cur_end[0] != "n":
            count += 1
            return
        nid = cur_end[1]
        exts = []
        for p in g.ports(nid):
            e = ("n", nid, p)
            if e == cur_end:
                continue
            if g.is_principal_end(cur_end) or g.is_principal_end(e):
                exts.append(e)
        if not exts:
            count += 1
            return
        for e in sorted(exts):
            walk(g.wires[e])

    walk(g.wires[("c", port)])
    return count


# ---------------------------------------------------------------------------
# canonical form, dumps

def canonical_form(g: SharingGraph) -> tuple:
    """Canonical description of the part reachable from the free ports,
    plus a census of any unreachable garbage; equal canonical forms mean
    isomorphic reachable structure."""
    order: dict[int, int] = {}
    queue: list[End] = [("c", name) for name in sorted(g.free_ports)]
    edges_seen: list[tuple] = []
    visited: set[End] = set()
    while queue:
        end = queue.pop(0)
        if end in visited:
            continue
        visited.add(end)
        partner = g.wires.get(end)
        if partner is None:
            continue
        if partner[0] == "n":
            nid = partner[1]
            if nid not in order:
                order[nid] = len(order)
                for p in g.ports(nid):
                    queue.append(("n", nid, p))
        visited.add(partner)

    def canon_end(end: End) -> tuple:
        if end[0] == "c":
            return ("c", end[1])
        return ("n", order[end[1]], end[2])

    for a, b in g.edges():
        if (a[0] == "n" and a[1] in order) or (b[0] == "n" and b[1] in order):
            ca, cb = canon_end(a), canon_end(b)
            edges_seen.append((ca, cb) if ca <= cb else (cb, ca))
    nodes = tuple(sorted((order[nid], g.nodes[nid], g.index.get(nid, -1))
                         for nid in order))
    garbage = tuple(sorted((g.nodes[nid], g.index.get(nid, -1))
                           for nid in g.nodes if nid not in order))
    return (nodes, tuple(sorted(edges_seen)), garbage)


def graph_dump(g: SharingGraph) -> str:
    """Stable textual dump: one line per node with its port wirings."""
    def fmt(end: End) -> str:
        return f"{end[1]}.{end[2]}" if end[0] == "n" else f"port:{end[1]}"

    lines = []
    for nid in sorted(g.nodes):
        kind = g.nodes[nid]
        idx = f" {g.index[nid]}" if kind == "fan" else ""
        wiring = " ".join(f"{p}->{fmt(g.wires[('n', nid, p)])}" for p in g.ports(nid))
        lines.append(f"{nid} {kind}{idx} {wiring}")
    for name in g.free_ports:
        lines.append(f"port {name} -> {fmt(g.wires[('c', name)])}")
    return "\n".join(lines)


def graph_dot(g: SharingGraph) -> str:
    def label(nid: int) -> str:
        kind = g.nodes[nid]
        return f"fan{g.index[nid]}.{nid}" if kind == "fan" else f"{kind}.{nid}"

    return to_dot(g, "sharing", "circle", label)
