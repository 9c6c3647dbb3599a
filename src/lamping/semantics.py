"""Token machine over proof-nets and sharing graphs.

A token carries k exponential stacks plus one multiplicative stack over
{p, q} and walks the structure deterministically: multiplicative nodes
(lambda/app) push or pop on the multiplicative stack, indexed nodes
(fans/contractions) on their exponential stack, box doors and
quantifier/fixpoint nodes pass the token through unchanged, weakening
and eraser nodes have no rule.

Each entry point resolves the transitions once, into a move table
(`token_moves`): for every wired end, what a token entering it does.
It lands at a conclusion, stops at a weakening or eraser, passes to the
next end, pops a slot and goes to the end for p or for q, or pushes a
symbol on a slot and goes to the next end. The table belongs to one
call on one structure and is only read, so the structures stay the
only state and every function here is safe to share.

The eager runner (`step_token`, `run_token`) builds a fresh context at
every step. The same moves, taken lazily (branching on pops of an empty
stack and recording the forced prefix), yield the bounded semantics
table, the per-node minimal context sets behind the weight function,
and the cycle probe. That explorer keeps each branch's stacks in a
private list that it updates one slot per step, copies only where the
walk forks, and freezes into a context tuple only at a terminal (or at
every step while it looks for cycles). Readback's probe runs the eager
walk, taking q at each pop of an empty multiplicative stack. The table,
the weight and readback raise `terms.FuelExhausted` on a walk longer
than `WALK_BUDGET` steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .terms import FuelExhausted

__all__ = [
    "Ctx", "TokenState", "Reached", "Stuck", "FuelExhaustedRun",
    "empty_ctx", "parse_ctx", "show_ctx",
    "token_moves", "step_token", "run_token",
    "semantics_table", "minimal_contexts", "weight", "WeightReport",
    "check_acyclicity", "WALK_BUDGET",
]

WALK_BUDGET = 10 ** 5  # token steps per walk

Ctx = tuple  # k exponential stacks then the multiplicative one; stack[0] is the top
End = tuple
Move = tuple  # see token_moves


class TokenState(NamedTuple):
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
    ctx: Ctx
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


def token_moves(structure, labelling) -> dict[End, Move]:
    """The move of a token entering each wired end, one of

        ("land", label)               a conclusion
        ("stop",)                     a weakening or eraser node
        ("pass", next_end)            a door or quantifier node
        ("pop", slot, p_end, q_end)   the principal port of an indexed
                                      or multiplicative node
        ("push", slot, sym, next_end) one of its auxiliary ports

    where a node's exponential slot is its fan index (`structure.index`
    on sharing graphs, else `labelling.mapping`) and slot -1 is the
    multiplicative stack, the last one of any context."""
    index = getattr(structure, "index", {})
    wires = structure.wires
    moves: dict[End, Move] = {}
    for end in wires:
        if end[0] == "c":
            moves[end] = ("land", end[1])
            continue
        _, nid, port = end
        role = structure.machine_role(nid)
        if role[0] == "none":
            moves[end] = ("stop",)
        elif role[0] == "id":
            out = role[2] if port == role[1] else role[1]
            moves[end] = ("pass", wires[("n", nid, out)])
        else:
            kind, pr, p_port, q_port = role
            if kind == "mult":
                slot = -1
            else:
                slot = index[nid] if nid in index else labelling.mapping[nid]
            if port == pr:
                moves[end] = ("pop", slot, wires[("n", nid, p_port)],
                              wires[("n", nid, q_port)])
            else:
                moves[end] = ("push", slot, "p" if port == p_port else "q",
                              wires[("n", nid, pr)])
    return moves


def step_token(structure, labelling, state: TokenState,
               moves: dict[End, Move] | None = None) -> TokenState | Reached | Stuck:
    """One deterministic transition; Reached/Stuck are values, not faults.
    `moves` is `token_moves(structure, labelling)`, built here if absent."""
    if moves is None:
        moves = token_moves(structure, labelling)
    target, ctx = state
    move = moves[target]
    kind = move[0]
    if kind == "push":
        _, slot, sym, nxt = move
        if slot < 0:
            slot += len(ctx)
        return TokenState(nxt, ctx[:slot] + ((sym,) + ctx[slot],) + ctx[slot + 1:])
    if kind == "pop":
        _, slot, on_p, on_q = move
        if slot < 0:
            slot += len(ctx)
        stack = ctx[slot]
        if not stack:
            reason = "empty-mult" if slot == len(ctx) - 1 else "empty-exp"
            return Stuck(target, reason, ctx, slot)
        new_ctx = ctx[:slot] + (stack[1:],) + ctx[slot + 1:]
        return TokenState(on_p if stack[0] == "p" else on_q, new_ctx)
    if kind == "pass":
        return TokenState(move[1], ctx)
    if kind == "land":
        return Reached(move[1], ctx)
    return Stuck(target, "weakening", ctx)


def run_token(structure, labelling, start, ctx: Ctx,
              fuel: int = WALK_BUDGET, trace: bool = False,
              moves: dict[End, Move] | None = None):
    """Run from a conclusion label (inward) or an explicit end until the
    token reaches a conclusion, gets stuck, or exhausts fuel.

    Returns the result, or (result, transcript) when trace is set; the
    transcript lists every intermediate TokenState. `moves` is
    `token_moves(structure, labelling)`, built here if absent.
    """
    if moves is None:
        moves = token_moves(structure, labelling)
    if isinstance(start, str):
        target = structure.wires[("c", start)]
    else:
        target = start
    state = TokenState(target, ctx)
    transcript = [state] if trace else None
    for _ in range(fuel):
        nxt = step_token(structure, labelling, state, moves)
        if isinstance(nxt, (Reached, Stuck)):
            return (nxt, transcript) if trace else nxt
        state = nxt
        if trace:
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


def _lazy_explore(moves: dict[End, Move], start: End, k: int, *,
                  pinned: int | None, bound: int | None, fuel: int,
                  detect_cycles: bool = False) -> list[_Terminal]:
    """Walk from start, forking wherever the token pops an empty stack.

    A fork appends "q" and "p" to the same slot of one `assumed`, which
    only grows after that, and each branch ends in at most one terminal.
    So two terminals' `assumed` disagree where their walks forked: they
    form a duplicate-free antichain, neither extending the other.

    Each branch owns its stacks, `contents`, as a list updated in place;
    at a fork the q branch takes a copy and the p branch the list.
    """
    out: list[_Terminal] = []
    stack = [(start, list(empty_ctx(k)), empty_ctx(k), None, 0)]
    while stack:
        target, contents, assumed, visits, steps = stack.pop()
        while True:
            steps += 1
            if steps > fuel:
                out.append(_Terminal("fuel", target, assumed))
                break
            if detect_cycles:
                now = tuple(contents)
                v = visits
                hit = False
                while v is not None:
                    vt, vctx, vass, v = v
                    # the first visit's true stacks extend its recorded
                    # contents by whatever was assumed afterwards
                    then = tuple(c + assumed[i][len(vass[i]):]
                                 for i, c in enumerate(vctx))
                    if vt == target and _comparable(then, now):
                        out.append(_Terminal("cycle", target, assumed, now))
                        hit = True
                        break
                if hit:
                    break
                visits = (target, now, assumed, visits)
            move = moves[target]
            kind = move[0]
            if kind == "push":
                _, slot, sym, target = move
                contents[slot] = (sym,) + contents[slot]
                continue
            if kind == "pop":
                _, slot, on_p, on_q = move
                top = contents[slot]
                if top:
                    contents[slot] = top[1:]
                    target = on_p if top[0] == "p" else on_q
                    continue
                if slot == pinned:
                    out.append(_Terminal("pinned", target[1], assumed, tuple(contents)))
                    break
                if bound is not None and len(assumed[slot]) >= bound:
                    break  # prune: forced prefix exceeds the probe bound
                if slot < 0:
                    slot += k + 1
                head, tail = assumed[:slot], assumed[slot + 1:]
                stack.append((on_q, contents.copy(),
                              head + (assumed[slot] + ("q",),) + tail, visits, steps))
                stack.append((on_p, contents,
                              head + (assumed[slot] + ("p",),) + tail, visits, steps))
                break
            if kind == "pass":
                target = move[1]
                continue
            if kind == "land":
                out.append(_Terminal("land", move[1], assumed, tuple(contents)))
            else:
                out.append(_Terminal("era", target[1], assumed, tuple(contents)))
            break
    return out


# ---------------------------------------------------------------------------
# bounded semantics table

def semantics_table(structure, labelling, depth_bound: int = 4) -> frozenset:
    """Minimal generators of the context semantics, probe-bounded.

    Each entry ((c, C), (c', D)) is a conclusion-to-conclusion run whose
    starting context C is the forced prefix of the walk, with every stack
    of C no longer than depth_bound. Any context extending C runs to the
    same conclusion with the extension appended below D, so two
    structures have equal bounded tables iff these generator sets match.
    """
    k = labelling.k
    moves = token_moves(structure, labelling)
    entries = set()
    for label in structure.conclusions:
        start = structure.wires[("c", label)]
        for t in _lazy_explore(moves, start, k,
                               pinned=None, bound=depth_bound, fuel=WALK_BUDGET):
            if t.kind == "fuel":
                raise FuelExhausted(f"semantics probe from {label} exceeded "
                                    f"{WALK_BUDGET} token steps")
            if t.kind == "land":
                entries.add(((label, t.assumed), (t.at, t.landing)))
    return frozenset(entries)


# ---------------------------------------------------------------------------
# minimal contexts and the weight

@dataclass
class WeightReport:
    per_node: dict[int, tuple[int, int, int]]
    total: int


def minimal_contexts(structure, labelling, nid: int,
                     moves: dict[End, Move] | None = None
                     ) -> tuple[list[Ctx], list[Ctx], list[Ctx]]:
    """Minimal context sets (B, P, E) for the node's principal port.

    B collects walks that die entering the principal port of a node that
    works the same stack, P walks that reach a free port, E walks that
    hit an eraser or weakening node. Starting contexts keep the node's
    own stack empty; the other stacks grow on demand, so the recorded
    prefixes are exactly the minimal contexts. They need no filtering:
    the explorer's terminals are a duplicate-free antichain (see
    `_lazy_explore`). `moves` is `token_moves(structure, labelling)`,
    built here if absent.
    """
    if moves is None:
        moves = token_moves(structure, labelling)
    role = structure.machine_role(nid)
    if role[0] == "id":
        raise ValueError("node dissolves in translation; no weight sets")
    if role[0] == "none":
        pinned = None
        start = structure.wires[("n", nid, structure.ports(nid)[0])]
    else:
        pinned = moves[("n", nid, role[1])][1]  # the slot its principal port pops
        start = structure.wires[("n", nid, role[1])]
    b: list[Ctx] = []
    p: list[Ctx] = []
    e: list[Ctx] = []
    for t in _lazy_explore(moves, start, labelling.k,
                           pinned=pinned, bound=None, fuel=WALK_BUDGET):
        if t.kind == "fuel":
            raise FuelExhausted(f"weight walk from node {nid} exceeded "
                                f"{WALK_BUDGET} token steps")
        if t.kind == "pinned":
            b.append(t.assumed)
        elif t.kind == "land":
            p.append(t.assumed)
        elif t.kind == "era":
            e.append(t.assumed)
    return sorted(b), sorted(p), sorted(e)


def weight(structure, labelling) -> WeightReport:
    """W = sum over nodes of |B|+|P|+|E|-1."""
    moves = token_moves(structure, labelling)
    per_node: dict[int, tuple[int, int, int]] = {}
    total = 0
    for nid in sorted(structure.nodes):
        if structure.machine_role(nid)[0] == "id":
            continue
        b, p, e = minimal_contexts(structure, labelling, nid, moves)
        per_node[nid] = (len(b), len(p), len(e))
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
    moves = token_moves(structure, labelling)
    for a, b in structure.edges():
        for start in (a, b):
            for t in _lazy_explore(moves, start, k,
                                   pinned=None, bound=probe_bound, fuel=fuel,
                                   detect_cycles=True):
                if t.kind == "cycle":
                    return False
    return True
