"""Token machine over proof-nets and sharing graphs.

A token carries k exponential stacks plus one multiplicative stack over
{p, q} and walks the structure deterministically: multiplicative nodes
(lambda/app) push or pop on the multiplicative stack, indexed nodes
(fans/contractions) on their exponential stack, box doors and
quantifier/fixpoint nodes pass the token through unchanged, weakening
and eraser nodes have no rule.

The same walker, run lazily (branching on pops of an empty stack and
recording the forced prefix), yields the bounded semantics table, the
per-node minimal context sets behind the weight function, and the cycle
probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "Ctx", "TokenState", "Reached", "Stuck", "FuelExhaustedRun",
    "empty_ctx", "parse_ctx", "show_ctx",
    "step_token", "run_token",
    "semantics_table", "minimal_contexts", "weight", "WeightReport",
    "check_acyclicity",
]

Ctx = tuple  # k exponential stacks then the multiplicative one; stack[0] is the top
End = tuple


@dataclass(frozen=True)
class TokenState:
    target: End  # the end the token is about to enter
    ctx: Ctx


@dataclass(frozen=True)
class Reached:
    port: str
    ctx: Ctx


@dataclass(frozen=True)
class Stuck:
    at: End
    reason: str  # "empty-mult" | "empty-exp" | "weakening"
    slot: int | None = None


@dataclass(frozen=True)
class FuelExhaustedRun:
    steps: int


def empty_ctx(k: int) -> Ctx:
    return tuple(() for _ in range(k + 1))


def show_ctx(ctx: Ctx) -> str:
    return "[" + "|".join("".join(s) for s in ctx) + "]"


def parse_ctx(text: str, k: int) -> Ctx:
    text = text.strip().strip("[]")
    parts = text.split("|") if text else [""]
    if len(parts) != k + 1:
        raise ValueError(f"context needs {k + 1} stacks, got {len(parts)}")
    for part in parts:
        if any(c not in "pq" for c in part):
            raise ValueError(f"stack symbols must be p/q, got {part!r}")
    return tuple(tuple(part) for part in parts)


def _exp_index(structure, labelling, nid: int) -> int:
    idx = getattr(structure, "index", None)
    if idx is not None and nid in idx:
        return idx[nid]
    return labelling.mapping[nid]


def step_token(structure, labelling, state: TokenState) -> TokenState | Reached | Stuck:
    """One deterministic transition; Reached/Stuck are values, not faults."""
    target, ctx = state.target, state.ctx
    if target[0] == "c":
        return Reached(target[1], ctx)
    nid, port = target[1], target[2]
    role = structure.machine_role(nid)
    if role[0] == "none":
        return Stuck(target, "weakening")
    if role[0] == "id":
        out = role[2] if port == role[1] else role[1]
        return TokenState(structure.wires[("n", nid, out)], ctx)
    _, pr, p_port, q_port = role
    k = len(ctx) - 1
    slot = k if role[0] == "mult" else _exp_index(structure, labelling, nid)
    if port == pr:
        stack = ctx[slot]
        if not stack:
            reason = "empty-mult" if slot == k else "empty-exp"
            return Stuck(target, reason, slot)
        sym, rest = stack[0], stack[1:]
        out = p_port if sym == "p" else q_port
        new_ctx = ctx[:slot] + (rest,) + ctx[slot + 1:]
        return TokenState(structure.wires[("n", nid, out)], new_ctx)
    sym = "p" if port == p_port else "q"
    new_ctx = ctx[:slot] + ((sym,) + ctx[slot],) + ctx[slot + 1:]
    return TokenState(structure.wires[("n", nid, pr)], new_ctx)


def run_token(structure, labelling, start, ctx: Ctx,
              fuel: int = 10 ** 5, trace: bool = False):
    """Run from a conclusion label (inward) or an explicit end until the
    token reaches a conclusion, gets stuck, or exhausts fuel.

    Returns the result, or (result, transcript) when trace is set; the
    transcript lists every intermediate TokenState.
    """
    if isinstance(start, str):
        target = structure.wires[("c", start)]
    else:
        target = start
    state = TokenState(target, ctx)
    transcript = [state]
    for _ in range(fuel):
        nxt = step_token(structure, labelling, state)
        if isinstance(nxt, (Reached, Stuck)):
            return (nxt, transcript) if trace else nxt
        state = nxt
        transcript.append(state)
    out = FuelExhaustedRun(fuel)
    return (out, transcript) if trace else out


# ---------------------------------------------------------------------------
# lazy exploration: branch on empty pops, record the forced prefix

@dataclass(frozen=True)
class _Terminal:
    kind: str        # "land" | "pinned" | "era" | "cycle" | "fuel"
    at: object       # port label or node id
    assumed: Ctx
    landing: Ctx | None = None


def _prefix(a: tuple, b: tuple) -> bool:
    return len(a) <= len(b) and b[:len(a)] == a


def _comparable(c1: Ctx, c2: Ctx) -> bool:
    return all(_prefix(a, b) or _prefix(b, a) for a, b in zip(c1, c2))


def _lazy_explore(structure, labelling, start: End, k: int, *,
                  pinned: int | None, bound: int | None, fuel: int,
                  detect_cycles: bool = False) -> list[_Terminal]:
    """Walk from start, forking wherever the token pops an empty stack.

    A fork appends "q" and "p" to the same slot of one `assumed`, which
    only grows after that, and each branch ends in at most one terminal.
    So two terminals' `assumed` disagree where their walks forked: they
    form a duplicate-free antichain, neither extending the other.
    """
    out: list[_Terminal] = []
    init = (start, empty_ctx(k), empty_ctx(k), None, 0)
    stack = [init]
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
                    # the first visit's true stacks extend its recorded
                    # contents by whatever was assumed afterwards
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
            slot = k if role[0] == "mult" else _exp_index(structure, labelling, nid)
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
                    break  # prune: forced prefix exceeds the probe bound
                for sym in ("q", "p"):
                    branch_assumed = assumed[:slot] + (assumed[slot] + (sym,),) + assumed[slot + 1:]
                    nxt = structure.wires[("n", nid, p_port if sym == "p" else q_port)]
                    stack.append((nxt, contents, branch_assumed, visits, steps))
                break
            sym = "p" if port == p_port else "q"
            contents = contents[:slot] + ((sym,) + contents[slot],) + contents[slot + 1:]
            target = structure.wires[("n", nid, pr)]
    return out


# ---------------------------------------------------------------------------
# bounded semantics table

def semantics_table(structure, labelling, depth_bound: int = 4,
                    fuel: int = 10 ** 5) -> frozenset:
    """Minimal generators of the context semantics, probe-bounded.

    Each entry ((c, C), (c', D)) is a conclusion-to-conclusion run whose
    starting context C is the forced prefix of the walk, with every stack
    of C no longer than depth_bound. Any context extending C runs to the
    same conclusion with the extension appended below D, so two
    structures have equal bounded tables iff these generator sets match.
    """
    k = labelling.k
    entries = set()
    for label in structure.conclusions:
        start = structure.wires[("c", label)]
        for t in _lazy_explore(structure, labelling, start, k,
                               pinned=None, bound=depth_bound, fuel=fuel):
            if t.kind == "fuel":
                raise RuntimeError("semantics probe ran out of fuel")
            if t.kind == "land":
                entries.add(((label, t.assumed), (t.at, t.landing)))
    return frozenset(entries)


# ---------------------------------------------------------------------------
# minimal contexts and the weight

@dataclass
class WeightReport:
    per_node: dict[int, tuple[int, int, int]]
    total: int | float  # math.inf when some exploration exhausts its fuel


def minimal_contexts(structure, labelling, nid: int,
                     fuel: int = 10 ** 5) -> tuple[list[Ctx], list[Ctx], list[Ctx]]:
    """Minimal context sets (B, P, E) for the node's principal port.

    B collects walks that die entering the principal port of a node that
    works the same stack, P walks that reach a free port, E walks that
    hit an eraser or weakening node. Starting contexts keep the node's
    own stack empty; the other stacks grow on demand, so the recorded
    prefixes are exactly the minimal contexts. They need no filtering:
    the explorer's terminals are a duplicate-free antichain (see
    `_lazy_explore`).
    """
    role = structure.machine_role(nid)
    k = labelling.k
    if role[0] == "id":
        raise ValueError("node dissolves in translation; no weight sets")
    if role[0] == "none":
        pinned = None
        start = structure.wires[("n", nid, structure.ports(nid)[0])]
    else:
        pinned = k if role[0] == "mult" else _exp_index(structure, labelling, nid)
        start = structure.wires[("n", nid, role[1])]
    b: list[Ctx] = []
    p: list[Ctx] = []
    e: list[Ctx] = []
    for t in _lazy_explore(structure, labelling, start, k,
                           pinned=pinned, bound=None, fuel=fuel):
        if t.kind == "fuel":
            raise FuelError(nid)
        if t.kind == "pinned":
            b.append(t.assumed)
        elif t.kind == "land":
            p.append(t.assumed)
        elif t.kind == "era":
            e.append(t.assumed)
    return sorted(b), sorted(p), sorted(e)


class FuelError(Exception):
    pass


def weight(structure, labelling, fuel: int = 10 ** 5) -> WeightReport:
    """W = sum over nodes of |B|+|P|+|E|-1; inf if exploration diverges."""
    per_node: dict[int, tuple[int, int, int]] = {}
    total: int | float = 0
    for nid in sorted(structure.nodes):
        if structure.machine_role(nid)[0] == "id":
            continue
        try:
            b, p, e = minimal_contexts(structure, labelling, nid, fuel)
        except FuelError:
            per_node[nid] = (-1, -1, -1)
            total = math.inf
            continue
        per_node[nid] = (len(b), len(p), len(e))
        if total is not math.inf:
            total += len(b) + len(p) + len(e) - 1
    return WeightReport(per_node, total)


# ---------------------------------------------------------------------------
# acyclicity probe

def check_acyclicity(structure, labelling, fuel: int = 600,
                     probe_bound: int = 4) -> bool:
    """True when no bounded probe revisits an (edge, direction) with a
    componentwise prefix-comparable context.

    Probe runs are capped at `fuel` crossings each; a push-only loop that
    never forms a comparable revisit simply exhausts its budget.
    """
    k = labelling.k
    for a, b in structure.edges():
        for start in (a, b):
            for t in _lazy_explore(structure, labelling, start, k,
                                   pinned=None, bound=probe_bound, fuel=fuel,
                                   detect_cycles=True):
                if t.kind == "cycle":
                    return False
    return True
