"""Port graphs: the interaction-net core of proof-nets and sharing graphs.

A port graph is a set of typed nodes whose ports are joined by wires. A
wiring maps each occupied port-end to its partner; ends are either node
ports `("n", id, port)` or named conclusions `("c", label)`. Every kind
lists its ports with the principal one first; kinds in `NO_PRINCIPAL`
have none. Rewriting only ever fires on a wire joining two principal
ports; those wires are the graph's cuts. `link` and `unlink` are the only
writers of the wiring, and they keep the set of cuts up to date as they
go, so callers read `cuts` directly and never scan the wires. The rewrite
primitives are shared too: `splice`, `remove_node`, and `annihilate`, the
one interaction rule on a cut. `ROLES` says how the token machine crosses
each kind: `mult` and `exp` nodes push or pop one symbol on the
multiplicative or on an exponential stack, `id` nodes pass the token
through unchanged, and `none` nodes stop it.
"""

from __future__ import annotations

import itertools
from typing import Callable

__all__ = ["End", "PortGraph", "to_dot"]

End = tuple  # ("n", node_id, port) | ("c", label)


class PortGraph:
    """Nodes, wires and the per-kind tables; subclasses declare the
    tables and provide `conclusions`, the labels of their free ends."""

    PORTS: dict[str, tuple[str, ...]] = {}
    NO_PRINCIPAL: frozenset[str] = frozenset()
    ROLES: dict[str, str] = {}  # kind -> "mult" | "exp" | "id" | "none"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._principal = {kind: None if kind in cls.NO_PRINCIPAL else ports[0]
                          for kind, ports in cls.PORTS.items()}
        # is_principal_end looks at the port name alone, so no name may be
        # principal on one kind and auxiliary on another
        cls._principal_ports = frozenset(p for p in cls._principal.values() if p)
        if any(p in cls._principal_ports and p != cls._principal[kind]
               for kind, ports in cls.PORTS.items() for p in ports):
            raise TypeError(f"{cls.__name__}: a port name is both principal and auxiliary")
        cls._roles = {kind: (role,) if role == "none" else (role,) + cls.PORTS[kind]
                      for kind, role in cls.ROLES.items()}

    def __init__(self) -> None:
        self.nodes: dict[int, str] = {}
        self.wires: dict[End, End] = {}
        # the wires joining two principal ports, as (lower end, higher end)
        self.cuts: set[tuple[End, End]] = set()
        self._next = itertools.count()

    def add_node(self, kind: str) -> int:
        nid = next(self._next)
        self.nodes[nid] = kind
        return nid

    def link(self, a: End, b: End) -> None:
        """Wire a to b, recording the wire in `cuts` when both ends are
        principal. With `unlink`, the only writer of `wires`."""
        assert a not in self.wires and b not in self.wires, "port already wired"
        self.wires[a] = b
        self.wires[b] = a
        if self.is_principal_end(a) and self.is_principal_end(b):
            self.cuts.add((a, b) if a <= b else (b, a))

    def unlink(self, a: End) -> End:
        """Remove the wire at a, and from `cuts` if it is one; returns
        the other end."""
        b = self.wires.pop(a)
        del self.wires[b]
        self.cuts.discard((a, b) if a <= b else (b, a))
        return b

    def splice(self, a: End, b: End) -> None:
        """Remove the ends a and b, wiring their partners to each other;
        when a and b are wired to each other, the pair just vanishes."""
        pa = self.unlink(a)
        if pa != b:
            self.link(pa, self.unlink(b))

    def remove_node(self, nid: int) -> None:
        """Drop an unwired node; subclasses also drop their entries for it."""
        del self.nodes[nid]

    def annihilate(self, cut: tuple[End, End]) -> None:
        """Fire a cut by annihilation: unlink it, splice the two nodes'
        auxiliary ports pairwise in `PORTS` order, and remove both nodes."""
        (_, na, _), (_, nb, _) = cut
        self.unlink(cut[0])
        for a, b in self._aux_pairs(cut):
            self.splice(a, b)
        self.remove_node(na)
        self.remove_node(nb)

    def _aux_pairs(self, cut: tuple[End, End]) -> list[tuple[End, End]]:
        """The auxiliary ends `annihilate` splices, in splicing order."""
        (_, na, _), (_, nb, _) = cut
        return [(("n", na, pa), ("n", nb, pb))
                for pa, pb in zip(self.ports(na)[1:], self.ports(nb)[1:])]

    def closes_loop(self, cut: tuple[End, End]) -> bool:
        """Whether annihilating the cut would splice two ends wired to each
        other, at once or once an earlier splice has joined them; read off
        the wiring, which it leaves unchanged."""
        moved: dict[End, End] = {}  # partners the earlier splices rewired
        for a, b in self._aux_pairs(cut):
            pa = moved.get(a) or self.wires[a]
            if pa == b:
                return True
            pb = moved.get(b) or self.wires[b]
            moved[pa], moved[pb] = pb, pa
        return False

    def ports(self, nid: int) -> tuple[str, ...]:
        return self.PORTS[self.nodes[nid]]

    def principal(self, nid: int) -> str | None:
        return self._principal[self.nodes[nid]]

    def is_principal_end(self, end: End) -> bool:
        return end[0] == "n" and end[2] in self._principal_ports

    def edges(self) -> list[tuple[End, End]]:
        """Every wire once, as (lower end, higher end), in sorted order."""
        return sorted((a, b) for a, b in self.wires.items() if a <= b)

    def size(self) -> int:
        return len(self.nodes)

    def machine_role(self, nid: int) -> tuple:
        """("mult" | "exp", principal, p-port, q-port), ("id", out, in) or ("none",)."""
        return self._roles[self.nodes[nid]]


def to_dot(g: PortGraph, name: str, shape: str, label: Callable[[int], str],
           clusters: dict[int, set[int]] | None = None) -> str:
    """Graphviz text: one node per graph node and conclusion, principal
    ports starred, and one cluster per entry of `clusters`."""
    lines = [f"graph {name} {{", f"  node [shape={shape}];"]
    for nid in sorted(g.nodes):
        lines.append(f'  n{nid} [label="{label(nid)}"];')
    for c in g.conclusions:
        lines.append(f'  c_{c} [label="{c}" shape=plaintext];')

    def fmt(end: End) -> tuple[str, str]:
        if end[0] == "c":
            return f"c_{end[1]}", ""
        mark = "*" if g.is_principal_end(end) else ""
        return f"n{end[1]}", f"{end[2]}{mark}"

    for a, b in g.edges():
        (na, pa), (nb, pb) = fmt(a), fmt(b)
        lines.append(f'  {na} -- {nb} [taillabel="{pa}" headlabel="{pb}"];')
    for cid in sorted(clusters or {}):
        members = " ".join(f"n{m}" for m in sorted(clusters[cid]))
        lines.append(f'  subgraph cluster_{cid} {{ {members} }}')
    lines.append("}")
    return "\n".join(lines)
