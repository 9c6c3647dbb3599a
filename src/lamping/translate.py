"""Fan labellings and the proof-net to sharing-graph translation.

A labelling assigns each contraction node a fan index. It must be
compatible with depths: equal indices force equal box depths. The level
translation uses the depths themselves, the distinct translation gives
every contraction its own index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .proofnets import ProofNet, StepReport
from .sharegraphs import SharingGraph

__all__ = [
    "Labelling", "IncompatibleLabelling",
    "labelling_lt", "labelling_dlt", "check_compatible",
    "translate",
]


class IncompatibleLabelling(Exception):
    pass


@dataclass
class Labelling:
    mapping: dict[int, int] = field(default_factory=dict)
    k: int = 0  # number of fan indices (exponential stacks per context)

    def image_size(self) -> int:
        return len(set(self.mapping.values()))

    def carry(self, step: StepReport) -> None:
        """Carry the mapping across one proof-net step in place: box
        copies inherit from the node they copy, the contractions
        introduced at the copied doors take the index of the contraction
        the step removed, and then the removed nodes drop out. Touches
        only the entries the step names."""
        mapping = self.mapping
        for old, new in step.copied.items():
            if old in mapping:
                mapping[new] = mapping[old]
        for xj in step.fresh_contractions:
            mapping[xj] = mapping[step.removed[0]]
        for nid in step.removed:
            mapping.pop(nid, None)


def labelling_lt(net: ProofNet) -> Labelling:
    """Index each contraction by its box depth, packed to 0..k-1."""
    xs = net.contraction_nodes()
    depths = sorted({net.node_depth(x) for x in xs})
    dense = {d: i for i, d in enumerate(depths)}
    return Labelling({x: dense[net.node_depth(x)] for x in xs}, k=len(depths))


def labelling_dlt(net: ProofNet) -> Labelling:
    """A distinct index for every contraction node, in stable node order."""
    xs = net.contraction_nodes()
    return Labelling({x: i for i, x in enumerate(xs)}, k=len(xs))


def check_compatible(net: ProofNet, lab: Labelling) -> bool:
    xs = net.contraction_nodes()
    if any(x not in lab.mapping for x in xs):
        return False
    by_index: dict[int, int] = {}
    for x in xs:
        d = net.node_depth(x)
        i = lab.mapping[x]
        if by_index.setdefault(i, d) != d:
            return False
    return True


# the net kinds that survive translation; the rest dissolve
_GRAPH_KIND = {"RLolli": "lam", "LLolli": "app", "X": "fan", "W": "era"}


def translate(net: ProofNet, lab: Labelling) -> SharingGraph:
    """Node-for-node translation: lambda/app survive, contractions become
    fans, weakenings become erasers, boxes and unary nodes dissolve."""
    if not check_compatible(net, lab):
        raise IncompatibleLabelling("labelling not compatible with depths")
    g = SharingGraph()
    node_map: dict[int, int] = {}
    for nid in sorted(net.nodes):
        kind = _GRAPH_KIND.get(net.nodes[nid])
        if kind is not None:
            node_map[nid] = g.add_node(kind, lab.mapping.get(nid))

    def resolve(end) -> tuple:
        """Follow wires through dissolved unary nodes to a surviving end."""
        seen = 0
        while True:
            seen += 1
            if seen > len(net.nodes) + len(net.wires) + 4:
                raise IncompatibleLabelling("dissolved-node chain does not terminate")
            if end[0] == "c":
                return ("c", end[1])
            nid, port = end[1], end[2]
            if nid in node_map:
                # a weakening's only port is the eraser's principal one
                return ("n", node_map[nid], "pr" if port == "e" else port)
            other = "in" if port == "out" else "out"
            end = net.wires[("n", nid, other)]

    done: set[tuple] = set()
    for a, b in net.edges():
        for end in (a, b):
            if end[0] == "c" or end[1] in node_map:
                src = resolve(end)
                if src in done:
                    continue
                dst = resolve(net.wires[end])
                if src == dst:
                    raise IncompatibleLabelling("degenerate loop through dissolved nodes")
                done.add(src)
                done.add(dst)
                g.link(src, dst)
    g.free_ports = list(net.conclusions)
    return g
