"""Readback of beta-normal forms from normalized structures.

The procedure never inspects the graph: it only queries the token
machine. Each query anchors a head subterm as (port, context) and walks
once from it, taking q at each pop of an empty multiplicative stack;
the number of such pops is how many abstractions guard the subterm, and
the landing stack encodes the head variable (free port, or position of
its binder) together with one new anchor per argument.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import semantics
from .semantics import Ctx, Reached, Stuck, empty_ctx, run_token, token_moves
from .terms import Abs, App, FuelExhausted, Term, Var

__all__ = ["PsiAnswer", "ReadbackError", "psi_query", "readback_term"]


class ReadbackError(Exception):
    pass


@dataclass(frozen=True)
class PsiAnswer:
    n: int                                  # leading abstractions
    head: tuple                             # ("free", port) | ("bound", anchor, l)
    args: tuple                             # argument anchors, leftmost first
    landing: tuple                          # (port, ctx) of the probe that answered


Anchor = tuple  # (port, Ctx): port is a free-port/conclusion label


def _mult(ctx: Ctx) -> tuple:
    return ctx[-1]


def _with_mult(ctx: Ctx, mult: tuple) -> Ctx:
    return ctx[:-1] + (mult,)


def psi_query(structure, labelling, anchor: Anchor, moves: dict | None = None) -> PsiAnswer:
    """Expand one head subterm by probing its anchor.

    At each pop of an empty multiplicative stack the walk resumes there
    with the stack (q,), one more abstraction over the head. A run with
    q^n appended below the anchor's stack pops those q's at the same
    places, so this lands as that run does for the least n that lands.
    Any other stuck run has no readback. `moves` is
    `semantics.token_moves(structure, labelling)`, built here if absent.
    """
    if moves is None:
        moves = token_moves(structure, labelling)
    budget = semantics.WALK_BUDGET
    start, ctx = anchor
    for n in range(budget + 1):
        res = run_token(structure, labelling, start, ctx, budget, moves=moves)
        if isinstance(res, Reached):
            return _classify(res, n)
        if not isinstance(res, Stuck):
            break
        if res.reason != "empty-mult":
            raise ReadbackError(f"probe stuck ({res.reason}) at {res.at}; "
                                f"structure has no readback from {anchor}")
        start, ctx = res.at, _with_mult(res.ctx, ("q",))
    raise FuelExhausted(f"readback walk from {anchor} exceeded {budget} token steps")


def _classify(res: Reached, n: int) -> PsiAnswer:
    """Split the landing stack S (top first) as S = T q^l p q^m.

    All-q landings name a free head applied to m arguments. Otherwise
    the trailing q^m counts arguments, the p below them marks the hop
    out of the binder, q^l gives the binder position, and the remaining
    top part T is the anchor stack of the head subterm whose abstractions
    bind the head variable.
    """
    s = list(_mult(res.ctx))
    m = 0
    while s and s[-1] == "q":
        s.pop()
        m += 1
    if not s:
        head = ("free", res.port)
        occ_mult: tuple = ()
    else:
        assert s[-1] == "p"
        s.pop()
        l = 0
        while s and s[-1] == "q":
            s.pop()
            l += 1
        binder_anchor = (res.port, _with_mult(res.ctx, tuple(s)))
        head = ("bound", binder_anchor, l)
        occ_mult = tuple(s) + ("q",) * l + ("p",)
    args = tuple(
        (res.port, _with_mult(res.ctx, occ_mult + ("q",) * (i - 1) + ("p",)))
        for i in range(1, m + 1))
    return PsiAnswer(n, head, args, (res.port, res.ctx))


def _suffix(a: tuple, b: tuple) -> bool:
    return len(a) <= len(b) and (len(a) == 0 or b[-len(a):] == a)


def _resolve_binder(memo: list, exact: dict, anchor: Anchor) -> tuple:
    """Find the memo entry whose binders the anchor refers to.

    The memo holds only the entries with binders, since no other can be
    referred to. An exact match is looked up first, in `exact`, which
    maps each anchor to its first memo entry. Crossing the sharing fans
    of a bound variable pushes extra symbols on the exponential stacks of
    the landing, so a reference may carry junk above the true anchor's
    stacks: accept a candidate whose every exponential stack is a suffix
    of the reference's, and insist the match is unique at maximal depth.
    """
    if anchor in exact:
        return exact[anchor]
    port, ctx = anchor
    cands = []
    for (eport, ectx), binders in memo:
        if eport != port or ectx[-1] != ctx[-1]:
            continue
        if all(_suffix(ectx[i], ctx[i]) for i in range(len(ctx) - 1)):
            cands.append(((eport, ectx), binders))
    if not cands:
        raise ReadbackError(f"unresolved binder anchor {anchor}")
    best = max(sum(len(s) for s in e[0][1][:-1]) for e in cands)
    top = [e for e in cands if sum(len(s) for s in e[0][1][:-1]) == best]
    if len(top) != 1:
        raise ReadbackError(f"ambiguous binder anchor {anchor}")
    return top[0]


def readback_term(structure, labelling) -> Term:
    """Reconstruct the beta-normal form of a normalized structure.

    Free ports keep their names; bound variables are x0, x1, ... in
    traversal order (skipping clashes with free-port names).
    """
    moves = token_moves(structure, labelling)
    taken = set(structure.conclusions)
    counter = [0]

    def fresh() -> str:
        while True:
            name = f"x{counter[0]}"
            counter[0] += 1
            if name not in taken:
                return name

    memo: list = []  # [(anchor, [binder names])] with binders, in query order
    exact: dict = {}  # anchor -> its first memo entry
    # Work items: ("expand", anchor), or ("apply", binders, head, m) to
    # apply head to the last m terms built and wrap it in the binders. An
    # anchor's head is resolved, against the memo so far, before its
    # arguments are expanded depth first, left to right: that order fixes
    # the memo and the bound names.
    out: list[Term] = []
    main = "main" if "main" in structure.conclusions else structure.conclusions[0]
    work: list[tuple] = [("expand", (main, empty_ctx(labelling.k)))]
    while work:
        item = work.pop()
        if item[0] == "apply":
            _, binders, head, m = item
            k = len(out) - m
            for arg in out[k:]:
                head = App(head, arg)
            del out[k:]
            for b in reversed(binders):
                head = Abs(b, head)
            out.append(head)
            continue
        anchor = item[1]
        ans = psi_query(structure, labelling, anchor, moves)
        binders = [fresh() for _ in range(ans.n)]
        if binders:
            memo.append((anchor, binders))
            exact.setdefault(anchor, memo[-1])
        if ans.head[0] == "free":
            head = Var(ans.head[1])
        else:
            _, banchor, l = ans.head
            entry = _resolve_binder(memo, exact, banchor)
            names = entry[1]
            if l >= len(names):
                raise ReadbackError(f"binder index {l} out of range at {banchor}")
            head = Var(names[l])
        work.append(("apply", binders, head, len(ans.args)))
        work.extend(("expand", arg) for arg in reversed(ans.args))
    (t,) = out
    return t
