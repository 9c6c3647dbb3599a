"""EAL/LAL sequent derivations: checking (and building the proof-net),
subjects, text format.

A derivation is a tree of rule applications. Each node carries only the
rule tag plus the data needed to replay it (affected variable names,
instantiation witnesses); judgements are recomputed by the checker, so a
stored derivation can never disagree with its own conclusion.

No rule reads a subject term, so the checker derives only the context
and type at each node (a `Sequent`). The subject term is built once, for
the conclusion: one top-down pass carries the substitutions that the cut,
contraction and left-arrow rules make, and renames a binder exactly
where substituting rule by rule would rename it.

The checker is also the translation to proof-nets. Handed a net,
`_apply_rule` adds each rule's piece of it through the net's
construction primitives, which know no names: the context keeps, beside
each hypothesis's type, the loose end of the net that stands for it. So
the order of the context, which fixes each box's door order and the
net's conclusions, is decided in this one place.

Passes over every node go premises first, through `_post_order` and the
fold over it, without paths: a refused rule raises with its reason
alone, and `_paths`, the one walk that builds paths, finds where it
sits. The printer and `==` keep their own explicit stacks, and the
reader keeps its open nodes on one while it scans the text once.
No walk over a derivation recurses, so its depth is limited by memory,
not by Python's recursion limit. The formulas in its fields are parsed
on an explicit stack too, but the other formula functions that the
checker calls (`formula_eq`, `subst_formula`, `free_type_vars`,
`contains_para`, `erase_para`, `show_formula`) recurse once per level of
a type.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from .formulas import (
    Atom, Bang, Forall, Formula, FormulaSyntaxError, Lolli, Mu, Para,
    contains_para, erase_para, formula_eq, free_type_vars, parse_formula,
    show_formula, subst_formula, unfold_mu,
)
from .terms import Abs, App, Term, Var, free_vars, fresh_name, show_term

__all__ = [
    "Derivation", "Sequent", "Judgement", "RuleViolation", "DerivationSyntaxError",
    "RULE_ARITY", "check_derivation", "check_annotated", "derivation_subject",
    "fold_derivation", "parse_derivation", "show_derivation", "to_eal_image",
    "ax", "cut", "weak", "contract", "lam", "llolli", "dapp",
    "bang", "bang1", "bang2", "para", "forall_r", "forall_l", "mu_r", "mu_l",
]

EAL = "eal"
LAL = "lal"

RULE_ARITY = {
    "A": 0, "U": 2, "W": 1, "X": 1,
    "RLolli": 1, "LLolli": 2,
    "PBang": 1, "PBang1": 1, "PBang2": 1, "PPara": 1,
    "RForall": 1, "LForall": 1, "RMu": 1, "LMu": 1,
}


class RuleViolation(Exception):
    def __init__(self, reason: str, path: tuple[int, ...] = ()):
        super().__init__(f"at node {'/'.join(map(str, path)) or 'root'}: {reason}")
        self.path = path
        self.reason = reason


class DerivationSyntaxError(Exception):
    pass


@dataclass(frozen=True)
class Sequent:
    """What the checker derives at a node: the context and the type."""
    ctx: tuple[tuple[str, Formula], ...]
    type: Formula

    def ctx_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.ctx)

    def lookup(self, name: str) -> Formula | None:
        for n, f in self.ctx:
            if n == name:
                return f
        return None


@dataclass(frozen=True)
class Judgement(Sequent):
    """A sequent with its subject term."""
    subject: Term


@dataclass(frozen=True, eq=False)
class Derivation:
    """A rule application and its premises. Two derivations are equal when
    they are the same tree, compared node by node from an explicit stack.
    The hash reads the root only, which equal trees share."""
    rule: str
    data: tuple[tuple[str, object], ...] = ()
    premises: tuple["Derivation", ...] = ()

    def __post_init__(self) -> None:
        if self.rule not in RULE_ARITY:
            raise ValueError(f"unknown rule tag {self.rule!r}")
        if len(self.premises) != RULE_ARITY[self.rule]:
            raise ValueError(f"rule {self.rule} takes {RULE_ARITY[self.rule]} premises")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if a.rule != b.rule or a.data != b.data:
                return False
            todo.extend(zip(a.premises, b.premises))  # the rule fixes the arity
        return True

    def __hash__(self) -> int:
        return hash((self.rule, self.data, len(self.premises)))

    def get(self, key: str) -> object:
        for k, v in self.data:
            if k == key:
                return v
        raise KeyError(key)


def _d(rule: str, premises: tuple[Derivation, ...] = (), **data: object) -> Derivation:
    return Derivation(rule, tuple(data.items()), premises)


# builder helpers -----------------------------------------------------------

def ax(x: str, ty: Formula) -> Derivation:
    return _d("A", var=x, ty=ty)


def cut(x: str, left: Derivation, right: Derivation) -> Derivation:
    return _d("U", (left, right), var=x)


def weak(x: str, ty: Formula, p: Derivation) -> Derivation:
    return _d("W", (p,), var=x, ty=ty)


def contract(a: str, b: str, z: str, p: Derivation) -> Derivation:
    return _d("X", (p,), a=a, b=b, z=z)


def lam(x: str, p: Derivation) -> Derivation:
    return _d("RLolli", (p,), var=x)


def llolli(fun: str, x: str, arg: Derivation, body: Derivation) -> Derivation:
    return _d("LLolli", (arg, body), fun=fun, var=x)


def dapp(fun: Derivation, arg: Derivation, tag: str, mode: str = "eal") -> Derivation:
    """Application t u, encoded as LLolli on a fresh hook followed by a cut.

    `tag` must be unique within the enclosing derivation; it names the
    two intermediate variables.
    """
    ftype = _check_all(fun, mode, None).type
    if not isinstance(ftype, Lolli):
        raise ValueError(f"dapp on non-arrow type {show_formula(ftype)}")
    hook, res = f"{tag}_f", f"{tag}_r"
    shim = llolli(hook, res, arg, ax(res, ftype.right))
    return cut(hook, fun, shim)


def bang(p: Derivation) -> Derivation:
    return _d("PBang", (p,))


def bang1(p: Derivation) -> Derivation:
    return _d("PBang1", (p,))


def bang2(p: Derivation) -> Derivation:
    return _d("PBang2", (p,))


def para(banged: tuple[str, ...], p: Derivation) -> Derivation:
    return _d("PPara", (p,), bang=banged)


def forall_r(tv: str, p: Derivation) -> Derivation:
    return _d("RForall", (p,), tv=tv)


def forall_l(x: str, ty: Forall, witness: Formula, p: Derivation) -> Derivation:
    return _d("LForall", (p,), var=x, ty=ty, wit=witness)


def mu_r(ty: Mu, p: Derivation) -> Derivation:
    return _d("RMu", (p,), ty=ty)


def mu_l(x: str, ty: Mu, p: Derivation) -> Derivation:
    return _d("LMu", (p,), var=x, ty=ty)


# checking ------------------------------------------------------------------

def check_derivation(d: Derivation, mode: str = EAL, net: Any = None) -> Judgement:
    """Verify every rule application and return the conclusion, with its
    subject built once. Given an empty `ProofNet`, each rule also adds
    its piece of the derivation's proof-net to it."""
    seq = _check_all(d, mode, None, net)
    subject = _subject(d, _subject_free_vars(d), {})
    if not free_vars(subject) <= set(seq.ctx_names()):
        raise RuleViolation("subject uses a variable missing from the context")
    return Judgement(seq.ctx, seq.type, subject)


def check_annotated(d: Derivation, mode: str = EAL) -> dict[tuple[int, ...], Sequent]:
    """check_derivation without the subject, returning the sequent at
    every node keyed by path."""
    out: dict[int, Sequent] = {}
    _check_all(d, mode, out)
    return {path: out[id(n)] for path, n in _paths(d)}


def _check_all(d: Derivation, mode: str, out: dict[int, Sequent] | None,
               net: Any = None) -> Sequent:
    """The one checker. Sequents are kept, keyed by id(node), only when
    `out` is given: keeping them all holds every node's context alive at
    once. Given a net, `_apply_rule` builds the proof-net into it as it
    goes, and the root's loose ends become the net's conclusions.

    The fold hands each node's result to its parent alone, so a rule owns
    its premises' context dicts and updates them in place; a context
    becomes a `Sequent` tuple only at the conclusion and in `out`. A
    refused rule raises with its reason alone, and only then is the
    node's path looked up. A node that sits at several places fails at
    the leftmost first, which is also where the pre-order walk meets it
    first."""
    if mode not in (EAL, LAL):
        raise ValueError(f"mode must be 'eal' or 'lal', got {mode!r}")

    def visit(n: Derivation, subs: list[_Open]) -> _Open:
        try:
            j = _apply_rule(n, mode, subs, net)
        except RuleViolation as e:
            path = next(p for p, m in _paths(d) if m is n)
            raise RuleViolation(e.reason, path) from None
        if out is not None:
            out[id(n)] = Sequent(tuple((x, f) for x, (f, _) in j[0].items()), j[1])
        return j

    ctx, ty, main, _ = fold_derivation(d, visit)
    if net is not None:
        net.conclude(main, {x: end for x, (_, end) in ctx.items()})
    return Sequent(tuple((x, f) for x, (f, _) in ctx.items()), ty)


def derivation_subject(d: Derivation, mode: str = EAL) -> Term:
    return check_derivation(d, mode).subject


# subjects ------------------------------------------------------------------
#
# The subject of a node is defined rule by rule: A gives x, RLolli \x.t,
# U t{u/x}, LLolli t{y u/x}, X t{z/a}{z/b}, and the other rules keep their
# premise's subject. `_subject` builds the conclusion's subject top-down
# instead: `env` maps each variable to the term the ancestors' substitutions
# put in its place, so every subterm is built once. Capture-avoiding
# substitution renames a binder when the substituted term has the binder
# free and the body has the substituted variable free; `_binder_name`
# replays that decision for each pending substitution, from the nearest
# ancestor outward, on free-variable sets alone.

# the rules that change the subject; every other rule keeps its premise's
_SUBJECT_RULES = frozenset(("A", "U", "X", "RLolli", "LLolli"))


def _subject(d: Derivation, fv: dict[int, frozenset[str]],
             built: dict[int, Term]) -> Term:
    """The subject of a checked derivation, built without recursion. `fv`
    maps id(node) to its subject's free variables for every node in d;
    `built` maps id(node) to subjects already built, which are reused
    where no substitution is pending."""
    env: dict[str, Term] = {}
    out: list[Term] = []
    # Work items: ("go", node, pending) builds a node's subject under env;
    # ("bind", x, head, pending, node) binds x to the subject just built,
    # applied to head unless head is None, and goes on with node;
    # ("undo", saved) restores env; ("abs", name) wraps a body. `pending`
    # is a linked list ((variable, free names of its term), rest), nearest
    # ancestor first, of the substitutions still to reach a binder.
    work: list[tuple] = [("go", d, None)]
    while work:
        item = work.pop()
        tag = item[0]
        if tag == "undo":
            for x, old in item[1]:
                if old is None:
                    env.pop(x, None)
                else:
                    env[x] = old
        elif tag == "abs":
            out.append(Abs(item[1], out.pop()))
        elif tag == "bind":
            _, x, head, pending, node = item
            t = out.pop()
            work.append(("undo", ((x, env.get(x)),)))
            env[x] = t if head is None else App(head, t)
            work.append(("go", node, pending))
        else:
            _, n, pending = item
            while n.rule not in _SUBJECT_RULES:
                n = n.premises[0]
            if not env and pending is None and id(n) in built:
                out.append(built[id(n)])
                continue
            rule = n.rule
            if rule == "A":
                x = n.get("var")
                out.append(env.get(x) or Var(x))
            elif rule == "U":
                left, right = n.premises
                x = n.get("var")
                work.append(("bind", x, None, ((x, fv[id(left)]), pending), right))
                work.append(("go", left, pending))
            elif rule == "LLolli":
                arg, body = n.premises
                y, x = n.get("fun"), n.get("var")
                head = env.get(y) or Var(y)
                work.append(("bind", x, head, ((x, fv[id(arg)] | {y}), pending), body))
                work.append(("go", arg, pending))
            elif rule == "X":
                a, b, z = n.get("a"), n.get("b"), n.get("z")
                work.append(("undo", ((a, env.get(a)), (b, env.get(b)))))
                env[a] = env[b] = env.get(z) or Var(z)
                zs = frozenset((z,))
                work.append(("go", n.premises[0], ((a, zs), ((b, zs), pending))))
            elif rule == "RLolli":
                (p,) = n.premises
                x = n.get("var")
                name, inner = _binder_name(x, fv[id(p)], pending)
                work.append(("abs", name))
                work.append(("undo", ((x, env.get(x)),)))
                env[x] = Var(name)
                work.append(("go", p, inner))
    (t,) = out
    return t


def _binder_name(x: str, body_fv: frozenset[str],
                 pending: tuple | None) -> tuple[str, tuple | None]:
    """The name that substituting rule by rule gives the binder of x, and
    the substitutions pending inside its body.

    `body_fv` holds the free variables of the body before any pending
    substitution. A substitution stops at a binder of its own variable;
    one that renames the binder first substitutes the new name for the
    old one in the body.
    """
    node = pending
    while node is not None:
        (y, names), node = node
        if y == x or x in names:
            break
    else:
        return x, pending  # nothing stops at this binder or renames it
    b, body, inner = x, body_fv, []
    node = pending
    while node is not None:
        (y, names), node = node
        if y == b:
            continue
        if b in names and y in body:
            new = fresh_name(b, names | body | {y})
            inner.append((b, frozenset((new,))))
            body = body - {b} | {new} if b in body else body
            b = new
        if y in body:
            body = body - {y} | names
        inner.append((y, names))
    node = None
    for sub in reversed(inner):
        node = (sub, node)
    return b, node


def _node_subjects(d: Derivation) -> dict[int, Term]:
    """Every node's subject, keyed by id(node). Premises come first, so a
    node reuses a premise's subject wherever no substitution is pending."""
    fv = _subject_free_vars(d)
    built: dict[int, Term] = {}
    for n in _post_order(d):
        built[id(n)] = _subject(n, fv, built)
    return built


def _post_order(d: Derivation) -> list[Derivation]:
    """Every node of d in post-order, left to right: each node comes after
    all of its premises, and premise 0's subtree comes before premise 1's.
    It reverses a pre-order, taken with an explicit stack, that visits
    premise 1's subtree first. A node that sits at several places comes
    once for each."""
    order, stack = [], [d]
    while stack:
        n = stack.pop()
        order.append(n)
        stack.extend(n.premises)
    order.reverse()
    return order


def _paths(d: Derivation) -> Iterator[tuple[tuple[int, ...], Derivation]]:
    """Every node of d with its path, in pre-order, left to right. The one
    walk that builds paths: for a refused rule's message and for the keys
    of `check_annotated`."""
    stack: list[tuple[tuple[int, ...], Derivation]] = [((), d)]
    while stack:
        path, n = stack.pop()
        yield path, n
        for i in reversed(range(len(n.premises))):
            stack.append((path + (i,), n.premises[i]))


def fold_derivation(d: Derivation, visit: Callable[[Derivation, list], Any]) -> Any:
    """Call visit(node, results) at every node of d in `_post_order`, where
    `results` holds what visit returned for the node's premises, in
    premise order, taken from a value stack. Returns the root's result."""
    values: list = []
    for n in _post_order(d):
        k = len(values) - len(n.premises)
        subs = values[k:]
        del values[k:]
        values.append(visit(n, subs))
    (result,) = values
    return result


def _subject_free_vars(d: Derivation) -> dict[int, frozenset[str]]:
    """The free variables of every node's subject, keyed by id(node),
    computed from the rules without building a term."""
    fv: dict[int, frozenset[str]] = {}
    for n in _post_order(d):
        rule = n.rule
        if rule == "A":
            s = frozenset((n.get("var"),))
        elif rule in ("U", "LLolli"):
            u, t = (fv[id(p)] for p in n.premises)
            x = n.get("var")
            if rule == "LLolli":
                u = u | {n.get("fun")}
            s = t - {x} | u if x in t else t
        elif rule == "X":
            t = fv[id(n.premises[0])]
            a, b = n.get("a"), n.get("b")
            s = t - {a, b} | {n.get("z")} if a in t or b in t else t
        elif rule == "RLolli":
            s = fv[id(n.premises[0])] - {n.get("var")}
        else:
            s = fv[id(n.premises[0])]
        fv[id(n)] = s
    return fv


def _field(d: Derivation, key: str, kind: Any) -> Any:
    """The value of field `key`, which must be present and a `kind`."""
    for k, v in d.data:
        if k == key:
            if not isinstance(v, kind):
                raise RuleViolation(f"{d.rule} field {key!r} must be a "
                                    f"{getattr(kind, '__name__', 'formula')}")
            return v
    raise RuleViolation(f"{d.rule} needs a field {key!r}")


# A node's context, which the rule receiving it owns, maps each name to its
# type and to the loose end of the net that stands for it; then come the
# type, the main end and the id of the node's first net node. Without a
# net, the ends and the id are None.
_Open = tuple[dict[str, tuple[Formula, Any]], Formula, Any, Any]


def _ctx_extend(ctx: dict[str, Any], more: dict[str, Any]) -> dict[str, Any]:
    """Append `more` to `ctx` in place, failing at the first name of
    `more`, in order, that `ctx` already holds."""
    for n, f in more.items():
        if n in ctx:
            raise RuleViolation(f"duplicate context variable {n!r} when merging contexts")
        ctx[n] = f
    return ctx


def _apply_rule(d: Derivation, mode: str, subs: list[_Open], net: Any) -> _Open:
    """Check one rule on its premises' results and return its own; with a
    net, also add the rule's piece of it. The one place that maps a rule
    to its change of context, whose order fixes each box's door order and
    the net's conclusions. A refused rule leaves the net unfinished."""
    if mode == EAL:
        for _, v in d.data:
            if isinstance(v, (Atom, Lolli, Bang, Para, Forall, Mu)) and contains_para(v):
                raise RuleViolation("paragraph modality is not an EAL connective")

    if d.rule == "A":
        x, ty = _field(d, "var", str), _field(d, "ty", Formula)
        if net is None:
            return {x: (ty, None)}, ty, None, None
        main, end = net.axiom()
        return {x: (ty, end)}, ty, main, len(net.nodes)

    if d.rule == "U":
        (lctx, lty, lmain, first), (rctx, rty, rmain, _) = subs
        x = _field(d, "var", str)
        xty, xend = rctx.pop(x, (None, None))
        if xty is None:
            raise RuleViolation(f"cut variable {x!r} not in right context")
        if not formula_eq(xty, lty):
            raise RuleViolation(f"cut type mismatch: {show_formula(lty)} vs {show_formula(xty)}")
        ctx = _ctx_extend(lctx, rctx)
        if net is not None:
            net.splice(lmain, xend)
        return ctx, rty, rmain, first

    if d.rule == "LLolli":
        (actx, aty, amain, first), (bctx, bty, bmain, _) = subs
        y, x = _field(d, "fun", str), _field(d, "var", str)
        xty, xend = bctx.pop(x, (None, None))
        if xty is None:
            raise RuleViolation(f"continuation variable {x!r} not in right context")
        end = None if net is None else net.node("LLolli", amain, xend)
        ctx = _ctx_extend(_ctx_extend(actx, bctx), {y: (Lolli(aty, xty), end)})
        return ctx, bty, bmain, first

    ((ctx, ty, main, first),) = subs

    if d.rule == "W":
        x, xty = _field(d, "var", str), _field(d, "ty", Formula)
        if x in ctx:
            raise RuleViolation(f"weakened variable {x!r} already in context")
        ctx[x] = xty, None if net is None else net.node("W")
        return ctx, ty, main, first

    if d.rule == "X":
        a, b, z = (_field(d, k, str) for k in ("a", "b", "z"))
        if a == b:
            raise RuleViolation(f"contraction needs two distinct variables, got {a!r} twice")
        (aty, aend), (bty, bend) = ctx.get(a, (None, None)), ctx.get(b, (None, None))
        if aty is None or bty is None:
            raise RuleViolation(f"contraction variables {a!r},{b!r} not both in context")
        if not formula_eq(aty, bty):
            raise RuleViolation("contraction on hypotheses of different types")
        if not isinstance(aty, Bang):
            raise RuleViolation(f"contraction requires a !-type, got {show_formula(aty)}")
        if z != a and z != b and z in ctx:
            raise RuleViolation(f"contraction target {z!r} already in context")
        del ctx[b]
        if net is not None:
            ctx[a] = aty, net.node("X", aend, bend)
        if z != a:  # z takes a's place
            ctx = {(z if n == a else n): h for n, h in ctx.items()}
        return ctx, ty, main, first

    if d.rule == "RLolli":
        x = _field(d, "var", str)
        xty, xend = ctx.pop(x, (None, None))
        if xty is None:
            raise RuleViolation(f"abstracted variable {x!r} not in context")
        if net is not None:
            main = net.node("RLolli", xend, main)
        return ctx, Lolli(xty, ty), main, first

    if d.rule in ("PBang", "PBang1", "PBang2", "PPara"):
        banged: tuple = ()
        if d.rule == "PBang":
            if mode != EAL:
                raise RuleViolation("PBang is the EAL exponential rule; use PBang1/PBang2/PPara in LAL")
        elif mode != LAL:
            raise RuleViolation(f"{d.rule} is an LAL rule")
        elif d.rule == "PBang1":
            if ctx:
                raise RuleViolation("PBang1 requires an empty context")
        elif d.rule == "PBang2":
            if len(ctx) != 1:
                raise RuleViolation("PBang2 requires exactly one hypothesis")
            ((xty, _),) = ctx.values()
            if not formula_eq(xty, ty):
                raise RuleViolation("PBang2 requires the hypothesis type to match the subject type")
        else:
            banged = _field(d, "bang", tuple)
            for x in banged:
                if x not in ctx:
                    raise RuleViolation(f"PPara bang list names unknown variable {x!r}")
        # a hypothesis enters a PPara box as a paragraph unless the bang
        # list names it, and any other box as a bang
        para = d.rule == "PPara"
        aux = [(para and n not in banged, end) for n, (_, end) in ctx.items()]
        if net is None:
            ends = [end for _, end in aux]
        else:
            main, ends = net.box(para, main, aux, first)
        ctx = {n: (Para(f) if p else Bang(f), end)
               for (n, (f, _)), (p, _), end in zip(ctx.items(), aux, ends)}
        return ctx, Para(ty) if para else Bang(ty), main, first

    if d.rule == "RForall":
        tv = _field(d, "tv", str)
        for n, (f, _) in ctx.items():
            if tv in free_type_vars(f):
                raise RuleViolation(f"type variable {tv!r} occurs free in the type of {n!r}")
        if net is not None:
            main = net.node("RForall", main)
        return ctx, Forall(tv, ty), main, first

    if d.rule == "LForall":
        x, xall = _field(d, "var", str), _field(d, "ty", Forall)
        wit = _field(d, "wit", Formula)
        xty, xend = ctx.get(x, (None, None))
        if xty is None:
            raise RuleViolation(f"variable {x!r} not in context")
        expected = subst_formula(xall.body, xall.var, wit)
        if not formula_eq(xty, expected):
            raise RuleViolation(f"instantiation mismatch: hypothesis {show_formula(xty)} "
                                f"!= {show_formula(expected)}")
        ctx[x] = xall, None if net is None else net.node("LForall", xend)
        return ctx, ty, main, first

    if d.rule == "RMu":
        mu = _field(d, "ty", Mu)
        if not formula_eq(ty, unfold_mu(mu)):
            raise RuleViolation(f"fold mismatch: subject has {show_formula(ty)}, "
                                f"expected {show_formula(unfold_mu(mu))}")
        if net is not None:
            main = net.node("RMu", main)
        return ctx, mu, main, first

    if d.rule == "LMu":
        x, mu = _field(d, "var", str), _field(d, "ty", Mu)
        xty, xend = ctx.get(x, (None, None))
        if xty is None:
            raise RuleViolation(f"variable {x!r} not in context")
        if not formula_eq(xty, unfold_mu(mu)):
            raise RuleViolation(f"unfold mismatch: hypothesis has {show_formula(xty)}")
        ctx[x] = mu, None if net is None else net.node("LMu", xend)
        return ctx, ty, main, first

    raise RuleViolation(f"unhandled rule {d.rule}")


def to_eal_image(d: Derivation) -> Derivation:
    """Map an LAL derivation to its EAL image: paragraph boxes become
    plain boxes and every paragraph modality becomes a bang."""
    def visit(n: Derivation, prem: list[Derivation]) -> Derivation:
        rule = "PBang" if n.rule in ("PBang1", "PBang2", "PPara") else n.rule
        data = []
        for k, v in n.data:
            if k == "bang":
                continue
            if isinstance(v, (Atom, Lolli, Bang, Para, Forall, Mu)):
                v = erase_para(v)
            data.append((k, v))
        return Derivation(rule, tuple(data), tuple(prem))

    return fold_derivation(d, visit)


# text format ---------------------------------------------------------------
#
#   deriv := '(' TAG field* judgement? deriv* ')'
#   field := '{' key token+ '}'
#   judgement := '[' (x ':' A (',' x ':' A)*)? '|-' term ':' A ']'
#
# Formula-valued fields hold a formula in the grammar above; the `bang`
# field of PPara holds zero or more variable names. Judgement blocks are
# annotations: the writer can emit them, the parser skips them, and the
# checker recomputes every judgement from the tree anyway.

_FORMULA_KEYS = {"ty", "wit"}
_LIST_KEYS = {"bang"}

# One match per unit of the format; findall gives each as the tuple of
# its groups, '' where a group took no part:
#   a field: '{' (0); its key (1), '' when a bracket comes first; then one
#     plain word and the '}' (2), or else the rest (3) and the '}' (4), ''
#     when the text ends first;
#   a run of ')' (5);
#   '(' (6) and the rule tag (7), '' when a bracket or the end comes first;
#   anything else (8): an annotation, to its ']' or the end of the text,
#     or else the first word, '}' or ']' of what has no place here.
_SCAN = re.compile(r"""\s*(?:
      (\{)\s*([^\s(){}\[\]]*)\s*(?:([^\s(){}\[\]]+)\s*\}|([^}]*)(\}?))
    | (\)(?:\s*\))*)
    | (\()\s*([^\s(){}\[\]]*)
    | (\[[^\]]*\]?|[^\s(){}\[\]]+|[\]}])
    )""", re.X)
# A word: a run of characters other than blanks and brackets, or a bracket.
_WORD = re.compile(r"[^\s(){}\[\]]+|[(){}\[\]]")


def show_derivation(d: Derivation, judgements: bool = False, mode: str = EAL) -> str:
    """The text of d: one line per node, in pre-order, indented by depth.
    A node's ')' closes the line of its last descendant. With
    `judgements`, each line carries its node's sequent and subject."""
    sequents: dict[int, Sequent] = {}
    if judgements:
        _check_all(d, mode, sequents)
        subjects = _node_subjects(d)

    out: list[str] = []
    # a node with its depth, or None for the ')' after a node's last premise
    todo: list[tuple[Derivation, int] | None] = [(d, 0)]
    while todo:
        item = todo.pop()
        if item is None:
            out.append(")")
            continue
        node, depth = item
        parts = [node.rule]
        for k, v in node.data:
            if k in _FORMULA_KEYS:
                parts.append(f"{{{k} {show_formula(v)}}}")  # type: ignore[arg-type]
            elif k in _LIST_KEYS:
                inner = " ".join(v)  # type: ignore[arg-type]
                parts.append(f"{{{k} {inner}}}" if inner else f"{{{k}}}")
            else:
                parts.append(f"{{{k} {v}}}")
        if judgements:
            j = sequents[id(node)]
            ctx = ", ".join(f"{n}:{show_formula(f)}" for n, f in j.ctx)
            parts.append(f"[{ctx} |- {show_term(subjects[id(node)])} : {show_formula(j.type)}]")
        if out:
            out.append("\n")
        out.append("  " * depth + "(" + " ".join(parts))
        if node.premises:
            todo.append(None)
            todo.extend((p, depth + 1) for p in reversed(node.premises))
        else:
            out.append(")")
    return "".join(out)


def parse_derivation(text: str) -> Derivation:
    """Read a derivation in one pass of `_SCAN`, the nodes still open on a
    stack. Formula fields are parsed once per distinct text in the file;
    formulas are frozen, so the nodes share them."""
    formulas: dict[str, Formula] = {}
    # the nodes whose ')' is still to come, innermost last, each with its
    # fields and the premises read so far
    open_nodes: list[tuple[str, list[tuple[str, object]], list[Derivation]]] = []
    data: list[tuple[str, object]] = []  # the fields of the innermost open node
    in_head = False  # after a rule tag, fields and one annotation may follow
    units = _SCAN.findall(text)
    for k, (brace, key, word, rest, end, close, paren, tag, other) in enumerate(units):
        if brace and in_head:
            if key in _FORMULA_KEYS and (word or end):
                value = word or rest
                form = formulas.get(value)
                if form is None:
                    form = formulas[value] = _field_formula(key, value)
                data.append((key, form))
            elif word:
                data.append((key, (word,) if key in _LIST_KEYS else word))
            else:
                data.append(_words_field(text, k, key, rest, end))
        elif close and open_nodes:
            for _ in range(close.count(")")):
                if not open_nodes:
                    raise DerivationSyntaxError("trailing input after derivation")
                rule, fields, premises = open_nodes.pop()
                try:
                    d = Derivation(rule, tuple(fields), tuple(premises))
                except ValueError as e:
                    raise DerivationSyntaxError(str(e)) from None
                if open_nodes:
                    open_nodes[-1][2].append(d)
            if not open_nodes:
                if k + 1 < len(units):
                    raise DerivationSyntaxError("trailing input after derivation")
                return d
            in_head = False
        elif paren:
            if tag not in RULE_ARITY:
                i = _unit(text, k).end()
                raise DerivationSyntaxError(
                    f"unknown rule tag {tag or (text[i] if i < len(text) else None)!r}")
            data = []
            open_nodes.append((tag, data, []))
            in_head = True
        elif other[:1] == "[" and in_head:  # an annotation
            if other[-1] != "]":
                raise DerivationSyntaxError("unterminated judgement annotation")
            in_head = False
        elif open_nodes:
            raise DerivationSyntaxError(
                f"expected ')' at token {_token_index(text, _unit(text, k).start())}")
        else:
            raise DerivationSyntaxError("expected '(' at token 0")
    if not open_nodes:
        raise DerivationSyntaxError("expected '(' at token 0")
    raise DerivationSyntaxError(f"expected ')' at token {_token_index(text, len(text))}")


def _words_field(text: str, k: int, key: str, rest: str, end: str) -> tuple[str, object]:
    """Unit `k` of `text`, a field, when it is not a formula's and not one plain
    word: its key and the value of a `bang` list or of a one-word field."""
    if not end:
        raise DerivationSyntaxError("unterminated field")
    if not key:
        if not rest:
            at = _token_index(text, _unit(text, k).end() - 1)
            raise DerivationSyntaxError(f"empty field at token {at}")
        key, rest = rest[0], rest[1:]  # a bracket is a word of its own
    words = _WORD.findall(rest)
    if key in _LIST_KEYS:
        return key, tuple(words)
    if len(words) != 1:
        raise DerivationSyntaxError(f"field {key!r} takes one value")
    return key, words[0]


def _unit(text: str, k: int) -> re.Match:
    """The k-th match of `_SCAN` in `text`, for messages."""
    return list(_SCAN.finditer(text))[k]


def _field_formula(key: str, value: str) -> Formula:
    """Parse a formula field. A message that quotes the field quotes its
    words joined by single blanks, which hold the same formula tokens, so
    it reads the same however the field is spaced."""
    try:
        return parse_formula(value)
    except FormulaSyntaxError:
        words = " ".join(_WORD.findall(value))
    try:
        return parse_formula(words)  # raises as `value` did
    except FormulaSyntaxError as e:
        raise DerivationSyntaxError(f"field {key!r}: {e}") from None


def _token_index(text: str, offset: int) -> int:
    """How many words and brackets come before `offset`, for messages."""
    return len(_WORD.findall(text, 0, offset))
