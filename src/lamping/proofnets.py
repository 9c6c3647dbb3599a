"""Proof-nets for EAL/LAL: construction, boxes, cuts, and reduction.

Nets are port graphs (see portgraph.py). They are built by the
derivation checker (`derivations._apply_rule`), rule by rule, through
the construction primitives `axiom`, `node`, `box` and `conclude`, which
wire loose ends and know no hypothesis names; `build_proofnet` checks a
derivation with an empty net. Boxes form a tree: each box
is keyed by its principal door and keeps its auxiliary doors, the
principal door of the box around it, and the index below it: its direct
members and its child boxes. `box_of` maps every node inside a box to
its innermost box. A node's depth walks the parent links; a box's
contents walk the index down. Lolli, forall, mu and merge cuts fire
through the port-graph core's `annihilate`; only contraction, which
copies a box, is written here. It keeps the box in place as the first
copy and adds one fresh copy, and a merge hands the inner box's index to
its host, so a step touches only the nodes it rewrites. `find_cuts` keeps
the live cuts ranked by depth, reading only the cuts the steps logged.
`normalize_mlbl` is the port-graph core's `reduce`, picking
`next_cut_mlbl`, the level-by-level choice.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from dataclasses import dataclass, field

from . import derivations
# the benchmark's tracer wraps check_annotated here until ROADMAP item 2 moves the wrap points
from .derivations import Derivation, check_annotated
from .portgraph import End, PortGraph, reduce, to_dot

__all__ = [
    "ProofNet", "Box", "StepReport", "MalformedNet",
    "build_proofnet", "find_cuts", "reduce_step_pn", "next_cut_mlbl", "normalize_mlbl",
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
    """A box's doors and its place in the box tree. `members` (the nodes
    whose innermost box this is, its doors included) and `children` (the
    boxes whose parent this is) index `box_of` and `parent` downwards;
    they stay out of `==` and `repr`."""
    aux_doors: list[int]
    parent: int | None  # principal door of the enclosing box
    members: set[int] = field(default_factory=set, compare=False, repr=False)
    children: set[int] = field(default_factory=set, compare=False, repr=False)


@dataclass
class StepReport:
    """What a single reduction step did, for labelling bookkeeping."""
    kind: str                                   # lolli | forall | mu | merge | contract
    removed: list[int] = field(default_factory=list)  # a contraction removes only its X
    # box member -> its fresh copy: the box stays as the first copy
    copied: dict[int, int] = field(default_factory=dict)
    fresh_contractions: list[int] = field(default_factory=list)


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
        # map to their own box, nodes at depth 0 are absent. Written only
        # by `place`, `remove_node`, the merge and the contraction's copy,
        # which keep each box's `members` in step.
        self.box_of: dict[int, int] = {}
        # cut -> its depth, from edge_depth when find_cuts first met it,
        # and the same cuts as sorted (depth, cut) pairs; each find_cuts
        # drops the logged cuts that died and ranks the logged new ones
        self.cut_depth: dict[tuple[End, End], int] = {}
        self.cut_rank: list[tuple[int, tuple[End, End]]] = []
        self.cut_log = []
        self.conclusions: list[str] = []
        self._loose = itertools.count()  # numbers the loose ends ("s", k)

    def attach(self, new_end: End, old_end: End) -> None:
        """Rewire whatever old_end pointed at onto new_end, dropping old_end."""
        self.link(new_end, self.unlink(old_end))

    # construction: a piece of net under construction hangs on loose ends,
    # which the next piece attaches to its own ports

    def _loose_end(self, end: End) -> End:
        loose = ("s", next(self._loose))
        self.link(end, loose)
        return loose

    def axiom(self) -> tuple[End, End]:
        """Two loose ends wired to each other."""
        a = ("s", next(self._loose))
        return a, self._loose_end(a)

    def node(self, kind: str, *aux: End) -> End:
        """A new node whose auxiliary ports take the loose ends `aux`, in
        `PORTS` order; returns a loose end on its principal (first) port."""
        nid = self.add_node(kind)
        ports = self.PORTS[kind]
        for port, end in zip(ports[1:], aux):
            self.attach(("n", nid, port), end)
        return self._loose_end(("n", nid, ports[0]))

    def box(self, para: bool, main: End, aux: list[tuple[bool, End]],
            first: int) -> tuple[End, list[End]]:
        """Close every node from id `first` on into a box: a principal door
        (paragraph when `para`) on `main`, then an auxiliary door on each
        loose end of `aux`, in order (paragraph where its flag is set).
        Nodes are not removed while building, so those ids are the box's
        contents. Returns the loose ends on the doors' outer sides."""
        inner = range(first, len(self.nodes))
        out = self.node("RPara" if para else "RBang", main)
        outs = [self.node("LPara" if p else "LBang", end) for p, end in aux]
        r = self.wires[out][1]
        doors = [self.wires[e][1] for e in outs]
        box = self.boxes[r] = Box(aux_doors=doors, parent=None)
        for n in inner:
            if n not in self.box_of:
                self.place(n, r)
            elif n in self.boxes and self.boxes[n].parent is None:
                self.boxes[n].parent = r
                box.children.add(n)
        for door in (r, *doors):
            self.place(door, r)
        return out, outs

    def conclude(self, main: End, hyps: dict[str, End]) -> None:
        """Wire the main loose end and each hypothesis's to a conclusion."""
        self.attach(("c", "main"), main)
        self.conclusions = ["main"]
        for name, end in hyps.items():
            self.attach(("c", name), end)
            self.conclusions.append(name)

    def annihilate(self, cut: tuple[End, End]) -> None:
        """The core's annihilate, refusing, before anything changes, a cut
        whose splices would close a loop. Building splices only ends of two
        disjoint subnets, so only a step can close one."""
        if self.closes_loop(cut):
            raise MalformedNet("splice would create a closed loop")
        super().annihilate(cut)

    def place(self, nid: int, box: int | None) -> None:
        """Put a node not yet in any box into `box` (None: depth 0)."""
        if box is not None:
            self.box_of[nid] = box
            self.boxes[box].members.add(nid)

    def remove_node(self, nid: int) -> None:
        super().remove_node(nid)
        box = self.box_of.pop(nid, None)
        if box is not None:
            self.boxes[box].members.discard(nid)

    def node_depth(self, nid: int) -> int:
        depth, b = 0, self.box_of.get(nid)
        while b is not None:
            depth, b = depth + 1, self.boxes[b].parent
        return depth

    def box_contents(self, r: int) -> set[int]:
        """Every node inside the box with principal door r, doors and
        nested boxes included, gathered down the box tree from r."""
        contents: set[int] = set()
        todo = [r]
        while todo:
            box = self.boxes[todo.pop()]
            contents |= box.members
            todo.extend(box.children)
        return contents

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
# construction from a derivation

def build_proofnet(d: Derivation, mode: str = "eal") -> ProofNet:
    """Check d and translate it, rule by rule, into its proof-net: the
    checker's fold adds each rule's piece of net as it accepts the rule,
    so d is refused exactly where `check_derivation` refuses it."""
    net = ProofNet()
    derivations._check_all(d, mode, None, net)
    return net


# ---------------------------------------------------------------------------
# cuts and reduction

def find_cuts(net: ProofNet) -> list[tuple[End, End]]:
    """Edges principal for both endpoints, ordered by depth then node ids.

    `net.cut_depth` and `net.cut_rank` follow the live cuts through
    `net.cut_log`, the cuts `link` made and `unlink` dropped since the
    last call, which it then clears: a logged cut that is ranked but no
    longer live leaves both, found in the ranking by bisection, and a
    live one met for the first time goes through `edge_depth`, and its
    check, and is inserted in rank. A cut made and dropped in between is
    neither. A kept depth stays right, since no step changes the depth of
    a wire it leaves in place.
    """
    live, depth, ranked = net.cuts, net.cut_depth, net.cut_rank
    for c in net.cut_log:
        if c in depth:
            if c not in live:
                del ranked[bisect_left(ranked, (depth.pop(c), c))]
        elif c in live:
            depth[c] = d = edge_depth(net, c)
            insort(ranked, (d, c))
    net.cut_log.clear()
    return [c for _, c in ranked]


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
            # box of na enters the box owning aux door nb, handing over
            # its members and child boxes
            inner_box, host_box = net.boxes.pop(na), net.boxes[host]
            for n in inner_box.members:
                net.box_of[n] = host
            for b in inner_box.children:
                net.boxes[b].parent = host
            host_box.members |= inner_box.members
            host_box.children |= inner_box.children
            if inner_box.parent is not None:
                net.boxes[inner_box.parent].children.discard(na)
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

    # the box stays where it is as the first copy; the second is fresh
    # and sits where the box sits
    m = {old: net.add_node(net.nodes[old]) for old in members}
    for old in members:
        net.box_of[m[old]] = m[net.box_of[old]]
        if old in net.boxes:
            b = net.boxes[old]
            net.boxes[m[old]] = Box([m[a] for a in b.aux_doors],
                                    box.parent if old == r else m[b.parent],
                                    {m[n] for n in b.members}, {m[c] for c in b.children})
    if box.parent is not None:
        net.boxes[box.parent].children.add(m[r])
    for (_, u, pu), (_, v, pv) in internal:
        net.link(("n", m[u], pu), ("n", m[v], pv))

    # X premises meet the two principal doors
    net.unlink(("n", x, "pr"))
    net.attach(("n", r, "out"), ("n", x, "p"))
    net.attach(("n", m[r], "out"), ("n", x, "q"))

    fresh: list[int] = []
    for door in box.aux_doors:
        xj = net.add_node("X")
        net.attach(("n", xj, "pr"), ("n", door, "out"))
        net.link(("n", xj, "p"), ("n", door, "out"))
        net.link(("n", xj, "q"), ("n", m[door], "out"))
        net.place(xj, net.box_of.get(x))
        fresh.append(xj)

    net.remove_node(x)
    return StepReport("contract", removed=[x], copied=m, fresh_contractions=fresh)


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


def next_cut_mlbl(net: ProofNet) -> tuple[End, End] | None:
    """The level-by-level choice: the first cut at the lowest depth, skipping
    the contraction of a box that is not special; None when no cut is left."""
    cuts = find_cuts(net)
    if not cuts:
        return None
    level = net.cut_depth[cuts[0]]
    for cut in cuts:
        if net.cut_depth[cut] != level:
            break
        kind, _na, nb = _cut_kind(net, cut)
        if kind != "contract" or is_special_box(net, net.boxes[nb]):
            return cut
    raise MalformedNet("no reducible cut at the minimal level")


def normalize_mlbl(net: ProofNet, fuel: int = 10 ** 5,
                   labelling=None) -> tuple[ProofNet, int]:
    """Level-by-level normalization; a box is only copied when special.

    Mutates the net in place; when a labelling is given, each step's
    report carries its mapping over in place (`Labelling.carry`).
    """
    carry = labelling.carry if labelling is not None else None
    return net, reduce(net, next_cut_mlbl, reduce_step_pn, fuel, carry)


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
