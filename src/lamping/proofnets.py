"""Proof-nets for EAL/LAL: construction, boxes, cuts, and reduction.

Nets are port graphs (see portgraph.py). Boxes form a tree: each box
is keyed by its principal door and keeps its auxiliary doors and the
principal door of the box around it, and `box_of` maps every node inside
a box to its innermost box. A node's depth walks the parent links; the
contraction step derives a box's contents from the map to copy them.
Lolli, forall, mu and merge cuts fire through the port-graph core's
`annihilate`; only contraction, which copies a box, is written here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

# the benchmark's tracer wraps check_annotated here until ROADMAP item 1 moves the wrap points
from .derivations import Derivation, check_annotated, fold_derivation
from .portgraph import End, PortGraph, to_dot
from .terms import FuelExhausted

__all__ = [
    "ProofNet", "Box", "StepReport", "MalformedNet",
    "build_proofnet", "find_cuts", "reduce_step_pn", "normalize_mlbl",
    "is_special_box", "net_depth", "edge_depth", "check_lal_boxes",
    "proofnet_dot",
]

DOOR_KINDS = {"RBang", "LBang", "RPara", "LPara"}
# doors, quantifier and fixpoint nodes: principal "out", auxiliary "in"
_UNARY_KINDS = ("RBang", "LBang", "RPara", "LPara", "RForall", "LForall", "RMu", "LMu")


class MalformedNet(Exception):
    pass


@dataclass
class Box:
    aux_doors: list[int]
    parent: int | None  # principal door of the enclosing box


@dataclass
class StepReport:
    """What a single reduction step did, for labelling bookkeeping."""
    kind: str                                   # lolli | forall | mu | merge | contract
    removed: list[int] = field(default_factory=list)
    copied: dict[int, tuple[int, int]] = field(default_factory=dict)
    fresh_contractions: list[int] = field(default_factory=list)
    resolved_contraction: int | None = None


class ProofNet(PortGraph):
    PORTS = {
        "RLolli": ("pr", "var", "bod"),
        "LLolli": ("pr", "arg", "res"),
        "X": ("pr", "p", "q"),
        "W": ("e",),
        **{kind: ("out", "in") for kind in _UNARY_KINDS},
    }
    NO_PRINCIPAL = frozenset({"W"})
    ROLES = {"RLolli": "mult", "LLolli": "mult", "X": "exp", "W": "none",
             **{kind: "id" for kind in _UNARY_KINDS}}

    def __init__(self) -> None:
        super().__init__()
        self.boxes: dict[int, Box] = {}  # keyed by principal door
        # node inside a box -> principal door of its innermost box; doors
        # map to their own box, nodes at depth 0 are absent
        self.box_of: dict[int, int] = {}
        # cut -> its depth, from edge_depth when find_cuts first met it;
        # each find_cuts drops the cuts that died since the last one
        self.cut_depth: dict[tuple[End, End], int] = {}
        self.conclusions: list[str] = []

    def attach(self, new_end: End, old_end: End) -> None:
        """Rewire whatever old_end pointed at onto new_end, dropping old_end."""
        self.link(new_end, self.unlink(old_end))

    def annihilate(self, cut: tuple[End, End]) -> None:
        """The core's annihilate, refusing, before anything changes, a cut
        whose splices would close a loop. Building splices only ends of two
        disjoint subnets, so only a step can close one."""
        if self.closes_loop(cut):
            raise MalformedNet("splice would create a closed loop")
        super().annihilate(cut)

    def remove_node(self, nid: int) -> None:
        super().remove_node(nid)
        self.box_of.pop(nid, None)

    def node_depth(self, nid: int) -> int:
        depth, b = 0, self.box_of.get(nid)
        while b is not None:
            depth, b = depth + 1, self.boxes[b].parent
        return depth

    def box_contents(self, r: int) -> set[int]:
        """Every node inside the box with principal door r, doors and
        nested boxes included."""
        def within(b: int | None) -> bool:
            while b is not None and b != r:
                b = self.boxes[b].parent
            return b == r
        nested = {b for b in self.boxes if within(b)}
        return {n for n, b in self.box_of.items() if b in nested}

    def end_depth(self, end: End) -> int:
        if end[0] == "c":
            return 0
        nid, port = end[1], end[2]
        if self.nodes[nid] in DOOR_KINDS and port == "out":
            return self.node_depth(nid) - 1
        return self.node_depth(nid)

    def contraction_nodes(self) -> list[int]:
        return sorted(n for n, k in self.nodes.items() if k == "X")


def edge_depth(net: ProofNet, edge: tuple[End, End]) -> int:
    da, db = net.end_depth(edge[0]), net.end_depth(edge[1])
    if da != db:
        raise MalformedNet(f"edge {edge} spans depths {da} and {db}")
    return da


def net_depth(net: ProofNet) -> int:
    return max((edge_depth(net, w) for w in net.wires.items() if w[0] < w[1]), default=0)


# ---------------------------------------------------------------------------
# construction from a checked derivation

def build_proofnet(d: Derivation) -> ProofNet:
    """Translate a derivation that `check_derivation` accepted, rule by
    rule, into its proof-net.

    Each node is translated after its premises (`fold_derivation`), from
    their subnets: (main sentinel, hypothesis sentinels, first node id).
    The hypothesis map keeps the checker's context order at every node,
    which fixes the order of a box's auxiliary doors and of the root's
    conclusions. No node is removed while building, so a subnet's nodes
    are the ids from its first one on, which a box takes as its contents.
    """
    net = ProofNet()
    sentinels = itertools.count()

    def new_sent() -> End:
        return ("s", next(sentinels))

    def visit(node: Derivation, path: tuple,
              subs: list) -> tuple[End, dict[str, End], int]:
        rule = node.rule
        if rule == "A":
            m, h = new_sent(), new_sent()
            net.link(m, h)
            return m, {node.get("var"): h}, len(net.nodes)  # type: ignore[dict-item]

        start = subs[0][2]
        if rule == "U":
            (m1, h1, _), (m2, h2, _) = subs
            x = node.get("var")
            net.splice(m1, h2.pop(x))  # type: ignore[arg-type]
            return m2, {**h1, **h2}, start

        if rule == "LLolli":
            (m1, h1, _), (m2, h2, _) = subs
            y, x = node.get("fun"), node.get("var")
            app = net.add_node("LLolli")
            net.attach(("n", app, "arg"), m1)
            net.attach(("n", app, "res"), h2.pop(x))  # type: ignore[arg-type]
            s = new_sent()
            net.link(("n", app, "pr"), s)
            hyps = {**h1, **h2}
            hyps[y] = s  # type: ignore[index]
            return m2, hyps, start

        (m, h, _), = subs
        if rule == "W":
            w = net.add_node("W")
            s = new_sent()
            net.link(("n", w, "e"), s)
            h[node.get("var")] = s  # type: ignore[index]
            return m, h, start

        if rule == "X":
            a, b, z = node.get("a"), node.get("b"), node.get("z")
            x = net.add_node("X")
            net.attach(("n", x, "p"), h[a])  # type: ignore[index]
            net.attach(("n", x, "q"), h.pop(b))  # type: ignore[arg-type]
            s = new_sent()
            net.link(("n", x, "pr"), s)
            h[a] = s  # type: ignore[index]
            if z != a:  # z takes a's place, as in the checker's context
                h = {(z if n == a else n): e for n, e in h.items()}
            return m, h, start

        if rule == "RLolli":
            x = node.get("var")
            lam = net.add_node("RLolli")
            net.attach(("n", lam, "bod"), m)
            net.attach(("n", lam, "var"), h.pop(x))  # type: ignore[arg-type]
            m2 = new_sent()
            net.link(("n", lam, "pr"), m2)
            return m2, h, start

        if rule in ("PBang", "PBang1", "PBang2", "PPara"):
            inner = range(start, len(net.nodes))
            banged: tuple[str, ...] = ()
            if rule == "PPara":
                banged = node.get("bang")  # type: ignore[assignment]
            rkind = "RPara" if rule == "PPara" else "RBang"
            r = net.add_node(rkind)
            net.attach(("n", r, "in"), m)
            m2 = new_sent()
            net.link(("n", r, "out"), m2)
            doors = [r]
            new_h: dict[str, End] = {}
            for name, end in h.items():
                lkind = "LBang" if rule != "PPara" or name in banged else "LPara"
                l = net.add_node(lkind)
                net.attach(("n", l, "in"), end)
                s = new_sent()
                net.link(("n", l, "out"), s)
                new_h[name] = s
                doors.append(l)
            for n in inner:
                if n not in net.box_of:
                    net.box_of[n] = r
                elif n in net.boxes and net.boxes[n].parent is None:
                    net.boxes[n].parent = r
            net.box_of.update(dict.fromkeys(doors, r))
            net.boxes[r] = Box(aux_doors=doors[1:], parent=None)
            return m2, new_h, start

        if rule in ("RForall", "RMu"):
            n = net.add_node(rule)
            net.attach(("n", n, "in"), m)
            m2 = new_sent()
            net.link(("n", n, "out"), m2)
            return m2, h, start

        if rule in ("LForall", "LMu"):
            x = node.get("var")
            n = net.add_node(rule)
            net.attach(("n", n, "in"), h[x])  # type: ignore[index]
            s = new_sent()
            net.link(("n", n, "out"), s)
            h[x] = s  # type: ignore[index]
            return m, h, start

        raise MalformedNet(f"unhandled rule {rule}")

    main, hyps, _ = fold_derivation(d, visit)
    net.attach(("c", "main"), main)
    net.conclusions = ["main"]
    for name, end in hyps.items():
        net.attach(("c", name), end)
        net.conclusions.append(name)
    return net


# ---------------------------------------------------------------------------
# cuts and reduction

def find_cuts(net: ProofNet) -> list[tuple[End, End]]:
    """Edges principal for both endpoints, ordered by depth then node ids.

    `net.cut_depth` follows the live cuts by set difference: the cuts
    fired or unwired since the last call are dropped, and only a cut met
    for the first time goes through `edge_depth`, and its check. A kept
    depth stays right, since no step changes the depth of a wire it
    leaves in place.
    """
    live, depth = net.cuts, net.cut_depth
    for c in depth.keys() - live:
        del depth[c]
    for c in live - depth.keys():
        depth[c] = edge_depth(net, c)
    return [c for _, c in sorted((d, c) for c, d in depth.items())]


# the kinds a cut may join, in rule orientation; contraction only meets
# !-boxes, and box modalities must agree with the absorbing door's
_CUT_KINDS = {
    ("RLolli", "LLolli"): "lolli",
    ("RForall", "LForall"): "forall",
    ("RMu", "LMu"): "mu",
    ("X", "RBang"): "contract",
    ("RBang", "LBang"): "merge",
    ("RPara", "LPara"): "merge",
}


def _cut_kind(net: ProofNet, cut: tuple[End, End]) -> tuple[str, int, int]:
    """Classify a cut; returns (kind, node_a, node_b) in rule orientation."""
    (_, na, _), (_, nb, _) = cut
    ka, kb = net.nodes[na], net.nodes[nb]
    if (ka, kb) in _CUT_KINDS:
        return _CUT_KINDS[ka, kb], na, nb
    if (kb, ka) in _CUT_KINDS:
        return _CUT_KINDS[kb, ka], nb, na
    raise MalformedNet(f"unmatched cut pair {ka}/{kb}")


def reduce_step_pn(net: ProofNet, cut: tuple[End, End]) -> StepReport:
    """Fire one cut in place. Depths of surviving edges are unchanged."""
    if cut not in net.cuts:
        raise MalformedNet(f"not a cut: {cut}")
    kind, na, nb = _cut_kind(net, cut)

    if kind != "contract":
        host = net.box_of.get(nb)
        net.annihilate(cut)  # raises before it changes anything
        if kind == "merge":
            # box of na enters the box owning aux door nb
            inner_box = net.boxes.pop(na)
            for n, b in net.box_of.items():
                if b == na:
                    net.box_of[n] = host
            for b in net.boxes.values():
                if b.parent == na:
                    b.parent = host
            host_box = net.boxes[host]
            host_box.aux_doors = [x for x in host_box.aux_doors if x != nb] + inner_box.aux_doors
        return StepReport(kind, removed=[na, nb])

    x, r = na, nb
    box = net.boxes[r]
    members = sorted(net.box_contents(r))
    inside = set(members)
    internal = []  # wires with both ends inside, each once
    for old in members:
        for port in net.ports(old):
            end = ("n", old, port)
            other = net.wires[end]  # every port of a net is wired
            if other[0] == "n" and other[1] in inside:
                if end < other:
                    internal.append((end, other))
            elif not (net.nodes[old] in DOOR_KINDS and port == "out"):
                raise MalformedNet("edge crosses a box boundary away from a door")

    copies: list[dict[int, int]] = []
    for _i in range(2):
        m = {old: net.add_node(net.nodes[old]) for old in members}
        copies.append(m)
        # duplicate the boxes living inside (including this box itself);
        # the copy of this box sits where this box sits
        for old in members:
            net.box_of[m[old]] = m[net.box_of[old]]
            if old in net.boxes:
                b = net.boxes[old]
                net.boxes[m[old]] = Box([m[a] for a in b.aux_doors],
                                        box.parent if old == r else m[b.parent])
        for (_, u, pu), (_, v, pv) in internal:
            net.link(("n", m[u], pu), ("n", m[v], pv))

    # X premises meet the copied principal doors
    p_target = net.unlink(("n", x, "p"))
    q_target = net.unlink(("n", x, "q"))
    net.link(p_target, ("n", copies[0][r], "out"))
    net.link(q_target, ("n", copies[1][r], "out"))

    fresh: list[int] = []
    for door in box.aux_doors:
        target = net.unlink(("n", door, "out"))
        xj = net.add_node("X")
        net.link(("n", xj, "p"), ("n", copies[0][door], "out"))
        net.link(("n", xj, "q"), ("n", copies[1][door], "out"))
        net.link(("n", xj, "pr"), target)
        if x in net.box_of:
            net.box_of[xj] = net.box_of[x]
        fresh.append(xj)

    net.unlink(("n", x, "pr"))
    removed = [x] + members
    for end, _ in internal:
        net.unlink(end)
    for old in members:
        net.boxes.pop(old, None)
        net.remove_node(old)
    net.remove_node(x)
    return StepReport("contract", removed=removed,
                      copied={old: (copies[0][old], copies[1][old]) for old in copies[0]},
                      fresh_contractions=fresh, resolved_contraction=x)


# ---------------------------------------------------------------------------
# special boxes, strategies

def is_special_box(net: ProofNet, box: Box) -> bool:
    """A box is special when every direct path leaving one of its premises
    is simple: after the first hop the path only ever exits through
    principal ports, which fails exactly when it runs into a cut. Each
    hop leaves a node by its principal port, so a path that crosses more
    nodes than the net has repeats one and loops."""
    for door in box.aux_doors:
        cur = net.wires[("n", door, "out")]
        for _ in range(len(net.nodes) + 1):
            if cur[0] != "n":
                break  # reached a conclusion
            nid = cur[1]
            if net.is_principal_end(cur):
                # entered through a principal port: any continuation is
                # non-simple, so the box is not special unless there is
                # no continuation at all
                if len(net.ports(nid)) > 1:
                    return False
                break
            pp = net.principal(nid)
            if pp is None:
                break  # weakening node, path ends
            cur = net.wires[("n", nid, pp)]
        else:
            raise MalformedNet("special-box walk loops")
    return True


def normalize_mlbl(net: ProofNet, fuel: int = 10 ** 5,
                   labelling=None) -> tuple[ProofNet, int]:
    """Level-by-level normalization; a box is only copied when special.

    Mutates the net in place; when a labelling is given, each step's
    report carries its mapping over in place (`Labelling.carry`).
    """
    steps = 0
    while True:
        cuts = find_cuts(net)
        if not cuts:
            return net, steps
        if steps == fuel:
            raise FuelExhausted(f"normalization exceeded {fuel} steps")
        level = net.cut_depth[cuts[0]]
        chosen = None
        for cut in cuts:
            if net.cut_depth[cut] != level:
                break
            kind, _na, nb = _cut_kind(net, cut)
            if kind == "contract":
                if not is_special_box(net, net.boxes[nb]):
                    continue
            chosen = cut
            break
        if chosen is None:
            raise MalformedNet("no reducible cut at the minimal level")
        report = reduce_step_pn(net, chosen)
        if labelling is not None:
            labelling.carry(report)
        steps += 1


def check_lal_boxes(net: ProofNet) -> None:
    """Door-count discipline: !-boxes have at most one auxiliary door and
    it must be a !-door; paragraph boxes allow any mix of ! and paragraph
    doors."""
    for r, b in net.boxes.items():
        pk = net.nodes[r]
        aux_kinds = [net.nodes[a] for a in b.aux_doors]
        if pk == "RBang":
            if len(b.aux_doors) > 1 or any(k != "LBang" for k in aux_kinds):
                raise MalformedNet("!-box with illegal doors in LAL mode")
        elif pk == "RPara":
            if any(k not in ("LBang", "LPara") for k in aux_kinds):
                raise MalformedNet("paragraph box with illegal doors")
        else:
            raise MalformedNet(f"box with principal door of kind {pk}")


# ---------------------------------------------------------------------------
# export

def proofnet_dot(net: ProofNet) -> str:
    return to_dot(net, "proofnet", "box", lambda nid: f"{net.nodes[nid]}{nid}",
                  {i: net.box_contents(r) for i, r in enumerate(sorted(net.boxes))})
