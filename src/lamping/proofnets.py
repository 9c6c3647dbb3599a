"""Proof-nets for EAL/LAL: construction, boxes, cuts, and reduction.

Nets are port graphs (see portgraph.py). Boxes form a tree: each box
is keyed by its principal door and keeps its auxiliary doors and the
principal door of the box around it, and `box_of` maps every node inside
a box to its innermost box. A node's depth walks the parent links; the
contraction step derives a box's contents from the map to copy them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .derivations import Derivation, check_annotated
from .portgraph import End, PortGraph, is_cut, principal_pairs, to_dot
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
        self.conclusions: list[str] = []

    def attach(self, new_end: End, old_end: End) -> None:
        """Rewire whatever old_end pointed at onto new_end, dropping old_end."""
        self.link(new_end, self.unlink(old_end))

    def splice(self, a: End, b: End) -> None:
        """Remove the two ends a and b, joining their partners directly."""
        pa = self.unlink(a)
        if pa == b:
            raise MalformedNet("splice would create a closed loop")
        pb = self.unlink(b)
        self.link(pa, pb)

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
    return max((edge_depth(net, e) for e in net.edges()), default=0)


# ---------------------------------------------------------------------------
# construction from a checked derivation

def build_proofnet(d: Derivation, mode: str = "eal") -> ProofNet:
    """Translate a derivation, rule by rule, into its proof-net."""
    judgements = check_annotated(d, mode)
    net = ProofNet()
    sentinels = itertools.count()

    def new_sent() -> End:
        return ("s", next(sentinels))

    def go(node: Derivation, path: tuple) -> tuple[End, dict[str, End]]:
        """Returns (main sentinel, hypothesis sentinels) for the subnet."""
        rule = node.rule

        if rule == "A":
            m, h = new_sent(), new_sent()
            net.link(m, h)
            return m, {node.get("var"): h}  # type: ignore[dict-item]

        if rule == "U":
            m1, h1 = go(node.premises[0], path + (0,))
            m2, h2 = go(node.premises[1], path + (1,))
            x = node.get("var")
            net.splice(m1, h2.pop(x))  # type: ignore[arg-type]
            return m2, {**h1, **h2}

        if rule == "W":
            m, h = go(node.premises[0], path + (0,))
            w = net.add_node("W")
            s = new_sent()
            net.link(("n", w, "e"), s)
            h[node.get("var")] = s  # type: ignore[index]
            return m, h

        if rule == "X":
            m, h = go(node.premises[0], path + (0,))
            a, b, z = node.get("a"), node.get("b"), node.get("z")
            x = net.add_node("X")
            net.attach(("n", x, "p"), h.pop(a))  # type: ignore[arg-type]
            net.attach(("n", x, "q"), h.pop(b))  # type: ignore[arg-type]
            s = new_sent()
            net.link(("n", x, "pr"), s)
            h[z] = s  # type: ignore[index]
            return m, h

        if rule == "RLolli":
            m, h = go(node.premises[0], path + (0,))
            x = node.get("var")
            lam = net.add_node("RLolli")
            net.attach(("n", lam, "bod"), m)
            net.attach(("n", lam, "var"), h.pop(x))  # type: ignore[arg-type]
            m2 = new_sent()
            net.link(("n", lam, "pr"), m2)
            return m2, h

        if rule == "LLolli":
            m1, h1 = go(node.premises[0], path + (0,))
            m2, h2 = go(node.premises[1], path + (1,))
            y, x = node.get("fun"), node.get("var")
            app = net.add_node("LLolli")
            net.attach(("n", app, "arg"), m1)
            net.attach(("n", app, "res"), h2.pop(x))  # type: ignore[arg-type]
            s = new_sent()
            net.link(("n", app, "pr"), s)
            hyps = {**h1, **h2}
            hyps[y] = s  # type: ignore[index]
            return m2, hyps

        if rule in ("PBang", "PBang1", "PBang2", "PPara"):
            start = len(net.nodes)  # no node is removed while building
            m, h = go(node.premises[0], path + (0,))
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
            for name in judgements[path + (0,)].ctx_names():
                lkind = "LBang" if rule != "PPara" or name in banged else "LPara"
                l = net.add_node(lkind)
                net.attach(("n", l, "in"), h[name])
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
            return m2, new_h

        if rule in ("RForall", "RMu"):
            m, h = go(node.premises[0], path + (0,))
            n = net.add_node(rule)
            net.attach(("n", n, "in"), m)
            m2 = new_sent()
            net.link(("n", n, "out"), m2)
            return m2, h

        if rule in ("LForall", "LMu"):
            m, h = go(node.premises[0], path + (0,))
            x = node.get("var")
            n = net.add_node(rule)
            net.attach(("n", n, "in"), h[x])  # type: ignore[index]
            s = new_sent()
            net.link(("n", n, "out"), s)
            h[x] = s  # type: ignore[index]
            return m, h

        raise MalformedNet(f"unhandled rule {rule}")

    main, hyps = go(d, ())
    net.attach(("c", "main"), main)
    net.conclusions = ["main"]
    for name in judgements[()].ctx_names():
        net.attach(("c", name), hyps[name])
        net.conclusions.append(name)
    return net


# ---------------------------------------------------------------------------
# cuts and reduction

def find_cuts(net: ProofNet) -> list[tuple[End, End]]:
    """Edges principal for both endpoints, ordered by depth then node ids."""
    return sorted(principal_pairs(net), key=lambda e: (edge_depth(net, e), e))


def _cut_kind(net: ProofNet, cut: tuple[End, End]) -> tuple[str, int, int]:
    """Classify a cut; returns (kind, node_a, node_b) in rule orientation."""
    (_, na, _), (_, nb, _) = cut
    ka, kb = net.nodes[na], net.nodes[nb]
    pairs = {
        ("RLolli", "LLolli"): "lolli",
        ("RForall", "LForall"): "forall",
        ("RMu", "LMu"): "mu",
    }
    for (k1, k2), kind in pairs.items():
        if (ka, kb) == (k1, k2):
            return kind, na, nb
        if (ka, kb) == (k2, k1):
            return kind, nb, na
    # contraction only meets !-boxes, and box modalities must agree with
    # the absorbing door's
    if ka == "X" and kb == "RBang":
        return "contract", na, nb
    if kb == "X" and ka == "RBang":
        return "contract", nb, na
    for (k1, k2) in (("RBang", "LBang"), ("RPara", "LPara")):
        if (ka, kb) == (k1, k2):
            return "merge", na, nb
        if (ka, kb) == (k2, k1):
            return "merge", nb, na
    raise MalformedNet(f"unmatched cut pair {ka}/{kb}")


def _remove_node(net: ProofNet, nid: int) -> None:
    del net.nodes[nid]
    net.box_of.pop(nid, None)


def reduce_step_pn(net: ProofNet, cut: tuple[End, End]) -> StepReport:
    """Fire one cut in place. Depths of surviving edges are unchanged."""
    if not is_cut(net, cut):
        raise MalformedNet(f"not a cut: {cut}")
    kind, na, nb = _cut_kind(net, cut)

    if kind == "lolli":
        net.splice(("n", na, "bod"), ("n", nb, "res"))
        net.splice(("n", na, "var"), ("n", nb, "arg"))
        net.unlink(("n", na, "pr"))
        _remove_node(net, na)
        _remove_node(net, nb)
        return StepReport("lolli", removed=[na, nb])

    if kind in ("forall", "mu"):
        net.unlink(("n", na, "out"))
        net.splice(("n", na, "in"), ("n", nb, "in"))
        _remove_node(net, na)
        _remove_node(net, nb)
        return StepReport(kind, removed=[na, nb])

    if kind == "merge":
        # box of na enters the box owning aux door nb
        inner_box = net.boxes.pop(na)
        host = net.box_of[nb]
        net.unlink(("n", na, "out"))
        net.splice(("n", na, "in"), ("n", nb, "in"))
        for n, b in net.box_of.items():
            if b == na:
                net.box_of[n] = host
        for b in net.boxes.values():
            if b.parent == na:
                b.parent = host
        host_box = net.boxes[host]
        host_box.aux_doors = [x for x in host_box.aux_doors if x != nb] + inner_box.aux_doors
        _remove_node(net, na)
        _remove_node(net, nb)
        return StepReport("merge", removed=[na, nb])

    assert kind == "contract"
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
        _remove_node(net, old)
    _remove_node(net, x)
    return StepReport("contract", removed=removed,
                      copied={old: (copies[0][old], copies[1][old]) for old in copies[0]},
                      fresh_contractions=fresh, resolved_contraction=x)


# ---------------------------------------------------------------------------
# special boxes, strategies

def is_special_box(net: ProofNet, box: Box, fuel: int = 10 ** 4) -> bool:
    """A box is special when every direct path leaving one of its premises
    is simple: after the first hop the path only ever exits through
    principal ports, which fails exactly when it runs into a cut."""
    for door in box.aux_doors:
        end = ("n", door, "out")
        cur = net.wires[end]
        steps = 0
        while True:
            steps += 1
            if steps > fuel:
                raise MalformedNet("special-box walk did not terminate")
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
    return True


def normalize_mlbl(net: ProofNet, fuel: int = 10 ** 5,
                   labelling=None) -> tuple[ProofNet, int]:
    """Level-by-level normalization; a box is only copied when special.

    Mutates the net in place; when a labelling is given, its mapping is
    updated step by step to the induced one.
    """
    steps = 0
    while True:
        cuts = find_cuts(net)
        if not cuts:
            return net, steps
        if steps == fuel:
            raise FuelExhausted(f"normalization exceeded {fuel} steps")
        level = edge_depth(net, cuts[0])
        chosen = None
        for cut in cuts:
            if edge_depth(net, cut) != level:
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
            from .translate import induced_labelling
            updated = induced_labelling(net, labelling, report)
            labelling.mapping.clear()
            labelling.mapping.update(updated.mapping)
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
