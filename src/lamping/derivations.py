"""EAL/LAL sequent derivations: checking, subjects, text format.

A derivation is a tree of rule applications. Each node carries only the
rule tag plus the data needed to replay it (affected variable names,
instantiation witnesses); judgements are recomputed by the checker, so a
stored derivation can never disagree with its own conclusion.

No rule reads a subject term, so the checker derives only the context
and type at each node (a `Sequent`). The subject term is built once, for
the conclusion: one top-down pass carries the substitutions that the cut,
contraction and left-arrow rules make, and renames a binder exactly
where substituting rule by rule would rename it.

Passes over every node go premises first, through `_premises_first`
and the fold over it, or through the path-free `_post_order` where no
error needs a path; the printer, the parser and `==` keep their own
explicit stacks. No walk recurses, so a derivation's depth is limited
by memory, not by Python's recursion limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable

from .formulas import (
    Atom, Bang, Forall, Formula, FormulaSyntaxError, Lolli, Mu, Para,
    contains_para, erase_para, formula_eq, free_type_vars, parse_formula,
    show_formula, subst_formula, unfold_mu,
)
from .terms import Abs, App, Term, Var, free_vars, fresh_name

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
    def __init__(self, path: tuple[int, ...], reason: str):
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

def check_derivation(d: Derivation, mode: str = EAL) -> Judgement:
    """Verify every rule application and return the conclusion, with its
    subject built once."""
    seq = _check_all(d, mode, None)
    subject = _subject(d, _subject_free_vars(d), {})
    if not free_vars(subject) <= set(seq.ctx_names()):
        raise _fail((), "subject uses a variable missing from the context")
    return Judgement(seq.ctx, seq.type, subject)


def check_annotated(d: Derivation, mode: str = EAL) -> dict[tuple[int, ...], Sequent]:
    """check_derivation without the subject, returning the sequent at
    every node keyed by path."""
    out: dict[tuple[int, ...], Sequent] = {}
    _check_all(d, mode, out)
    return out


def _check_all(d: Derivation, mode: str,
               out: dict[tuple[int, ...], Sequent] | None) -> Sequent:
    """The one checker. Sequents are kept only when `out` is given:
    keeping them all holds every node's context alive at once.

    The fold hands each node's result to its parent alone, so a rule owns
    its premises' context dicts and updates them in place; a context
    becomes a `Sequent` tuple only at the conclusion and in `out`."""
    if mode not in (EAL, LAL):
        raise ValueError(f"mode must be 'eal' or 'lal', got {mode!r}")

    def visit(n: Derivation, path: tuple[int, ...], subs: list[_Open]) -> _Open:
        j = _apply_rule(n, mode, path, subs)
        if out is not None:
            out[path] = Sequent(tuple(j[0].items()), j[1])
        return j

    ctx, ty = fold_derivation(d, visit)
    return Sequent(tuple(ctx.items()), ty)


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
    """Every node of d in the order of `_premises_first`, without paths,
    for the walks that never report where they are."""
    order, stack = [], [d]
    while stack:
        n = stack.pop()
        order.append(n)
        stack.extend(n.premises)
    order.reverse()
    return order


def _premises_first(d: Derivation) -> list[tuple[Derivation, tuple[int, ...]]]:
    """Every node of d with its path, in post-order, left to right: each
    node comes after all of its premises, and premise 0's subtree comes
    before premise 1's. It reverses a pre-order, taken with an explicit
    stack, that visits premise 1's subtree first."""
    order, stack = [], [(d, ())]
    while stack:
        item = stack.pop()
        order.append(item)
        n, path = item
        for i, p in enumerate(n.premises):
            stack.append((p, path + (i,)))
    order.reverse()
    return order


def fold_derivation(d: Derivation,
                    visit: Callable[[Derivation, tuple[int, ...], list], Any]) -> Any:
    """Call visit(node, path, results) at every node of d, premises first,
    where `results` holds what visit returned for the node's premises, in
    premise order, taken from a value stack. Returns the root's result."""
    values: list = []
    for n, path in _premises_first(d):
        k = len(values) - len(n.premises)
        subs = values[k:]
        del values[k:]
        values.append(visit(n, path, subs))
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


def _fail(path: tuple[int, ...], reason: str) -> RuleViolation:
    return RuleViolation(path, reason)


def _field(d: Derivation, path: tuple[int, ...], key: str, kind: Any) -> Any:
    """The value of field `key`, which must be present and a `kind`."""
    for k, v in d.data:
        if k == key:
            if not isinstance(v, kind):
                raise _fail(path, f"{d.rule} field {key!r} must be a "
                                  f"{getattr(kind, '__name__', 'formula')}")
            return v
    raise _fail(path, f"{d.rule} needs a field {key!r}")


# a node's context, which the rule receiving it owns, and its type
_Open = tuple[dict[str, Formula], Formula]


def _ctx_extend(path: tuple[int, ...], ctx: dict[str, Formula],
                more: dict[str, Formula]) -> dict[str, Formula]:
    """Append `more` to `ctx` in place, failing at the first name of
    `more`, in order, that `ctx` already holds."""
    for n, f in more.items():
        if n in ctx:
            raise _fail(path, f"duplicate context variable {n!r} when merging contexts")
        ctx[n] = f
    return ctx


def _apply_rule(d: Derivation, mode: str, path: tuple[int, ...],
                subs: list[_Open]) -> _Open:
    if mode == EAL:
        for _, v in d.data:
            if isinstance(v, (Atom, Lolli, Bang, Para, Forall, Mu)) and contains_para(v):
                raise _fail(path, "paragraph modality is not an EAL connective")

    if d.rule == "A":
        x, ty = _field(d, path, "var", str), _field(d, path, "ty", Formula)
        return {x: ty}, ty

    if d.rule == "U":
        (lctx, lty), (rctx, rty) = subs
        x = _field(d, path, "var", str)
        xty = rctx.pop(x, None)
        if xty is None:
            raise _fail(path, f"cut variable {x!r} not in right context")
        if not formula_eq(xty, lty):
            raise _fail(path, f"cut type mismatch: {show_formula(lty)} vs {show_formula(xty)}")
        return _ctx_extend(path, lctx, rctx), rty

    if d.rule == "LLolli":
        (actx, aty), (bctx, bty) = subs
        y, x = _field(d, path, "fun", str), _field(d, path, "var", str)
        xty = bctx.pop(x, None)
        if xty is None:
            raise _fail(path, f"continuation variable {x!r} not in right context")
        ctx = _ctx_extend(path, _ctx_extend(path, actx, bctx), {y: Lolli(aty, xty)})
        return ctx, bty

    ((ctx, ty),) = subs

    if d.rule == "W":
        x, xty = _field(d, path, "var", str), _field(d, path, "ty", Formula)
        if x in ctx:
            raise _fail(path, f"weakened variable {x!r} already in context")
        ctx[x] = xty
        return ctx, ty

    if d.rule == "X":
        a, b, z = (_field(d, path, k, str) for k in ("a", "b", "z"))
        if a == b:
            raise _fail(path, f"contraction needs two distinct variables, got {a!r} twice")
        aty, bty = ctx.get(a), ctx.get(b)
        if aty is None or bty is None:
            raise _fail(path, f"contraction variables {a!r},{b!r} not both in context")
        if not formula_eq(aty, bty):
            raise _fail(path, "contraction on hypotheses of different types")
        if not isinstance(aty, Bang):
            raise _fail(path, f"contraction requires a !-type, got {show_formula(aty)}")
        if z != a and z != b and z in ctx:
            raise _fail(path, f"contraction target {z!r} already in context")
        del ctx[b]
        if z != a:  # z takes a's place
            ctx = {(z if n == a else n): f for n, f in ctx.items()}
        return ctx, ty

    if d.rule == "RLolli":
        x = _field(d, path, "var", str)
        xty = ctx.pop(x, None)
        if xty is None:
            raise _fail(path, f"abstracted variable {x!r} not in context")
        return ctx, Lolli(xty, ty)

    if d.rule == "PBang":
        if mode != EAL:
            raise _fail(path, "PBang is the EAL exponential rule; use PBang1/PBang2/PPara in LAL")
        return {n: Bang(f) for n, f in ctx.items()}, Bang(ty)

    if d.rule == "PBang1":
        if mode != LAL:
            raise _fail(path, "PBang1 is an LAL rule")
        if ctx:
            raise _fail(path, "PBang1 requires an empty context")
        return ctx, Bang(ty)

    if d.rule == "PBang2":
        if mode != LAL:
            raise _fail(path, "PBang2 is an LAL rule")
        if len(ctx) != 1:
            raise _fail(path, "PBang2 requires exactly one hypothesis")
        (x, xty), = ctx.items()
        if not formula_eq(xty, ty):
            raise _fail(path, "PBang2 requires the hypothesis type to match the subject type")
        ctx[x] = Bang(xty)
        return ctx, Bang(ty)

    if d.rule == "PPara":
        if mode != LAL:
            raise _fail(path, "PPara is an LAL rule")
        banged = _field(d, path, "bang", tuple)
        for x in banged:
            if x not in ctx:
                raise _fail(path, f"PPara bang list names unknown variable {x!r}")
        return {n: Bang(f) if n in banged else Para(f) for n, f in ctx.items()}, Para(ty)

    if d.rule == "RForall":
        tv = _field(d, path, "tv", str)
        for n, f in ctx.items():
            if tv in free_type_vars(f):
                raise _fail(path, f"type variable {tv!r} occurs free in the type of {n!r}")
        return ctx, Forall(tv, ty)

    if d.rule == "LForall":
        x, xall = _field(d, path, "var", str), _field(d, path, "ty", Forall)
        wit = _field(d, path, "wit", Formula)
        xty = ctx.get(x)
        if xty is None:
            raise _fail(path, f"variable {x!r} not in context")
        expected = subst_formula(xall.body, xall.var, wit)
        if not formula_eq(xty, expected):
            raise _fail(path, f"instantiation mismatch: hypothesis {show_formula(xty)} "
                              f"!= {show_formula(expected)}")
        ctx[x] = xall
        return ctx, ty

    if d.rule == "RMu":
        mu = _field(d, path, "ty", Mu)
        if not formula_eq(ty, unfold_mu(mu)):
            raise _fail(path, f"fold mismatch: subject has {show_formula(ty)}, "
                              f"expected {show_formula(unfold_mu(mu))}")
        return ctx, mu

    if d.rule == "LMu":
        x, mu = _field(d, path, "var", str), _field(d, path, "ty", Mu)
        xty = ctx.get(x)
        if xty is None:
            raise _fail(path, f"variable {x!r} not in context")
        if not formula_eq(xty, unfold_mu(mu)):
            raise _fail(path, f"unfold mismatch: hypothesis has {show_formula(xty)}")
        ctx[x] = mu
        return ctx, ty

    raise _fail(path, f"unhandled rule {d.rule}")


def to_eal_image(d: Derivation) -> Derivation:
    """Map an LAL derivation to its EAL image: paragraph boxes become
    plain boxes and every paragraph modality becomes a bang."""
    def visit(n: Derivation, path: tuple[int, ...],
              prem: list[Derivation]) -> Derivation:
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

_D_TOKEN = re.compile(r"\s*(\(|\)|\{|\}|\[|\]|[^\s(){}\[\]]+)")


def show_derivation(d: Derivation, indent: int = 0, judgements: bool = False,
                    mode: str = EAL) -> str:
    """The text of d: one line per node, in pre-order, indented by depth.
    A node's ')' closes the line of its last descendant."""
    ann = check_annotated(d, mode) if judgements else None
    subjects = _node_subjects(d) if judgements else {}

    def fmt_judgement(j: Sequent, node: Derivation) -> str:
        from .terms import show_term
        ctx = ", ".join(f"{n}:{show_formula(f)}" for n, f in j.ctx)
        return f"[{ctx} |- {show_term(subjects[id(node)])} : {show_formula(j.type)}]"

    out: list[str] = []
    # a node with its path, or None for the ')' after a node's last premise
    todo: list[tuple[Derivation, tuple[int, ...]] | None] = [(d, ())]
    while todo:
        item = todo.pop()
        if item is None:
            out.append(")")
            continue
        node, path = item
        parts = [node.rule]
        for k, v in node.data:
            if k in _FORMULA_KEYS:
                parts.append(f"{{{k} {show_formula(v)}}}")  # type: ignore[arg-type]
            elif k in _LIST_KEYS:
                inner = " ".join(v)  # type: ignore[arg-type]
                parts.append(f"{{{k} {inner}}}" if inner else f"{{{k}}}")
            else:
                parts.append(f"{{{k} {v}}}")
        if ann is not None:
            parts.append(fmt_judgement(ann[path], node))
        if out:
            out.append("\n")
        out.append("  " * (indent + len(path)) + "(" + " ".join(parts))
        if node.premises:
            todo.append(None)
            todo.extend((node.premises[i], path + (i,))
                        for i in reversed(range(len(node.premises))))
        else:
            out.append(")")
    return "".join(out)


def _parse_head(toks: list[str], pos: int) -> tuple[str, list[tuple[str, object]], int]:
    """Read a node's '(', rule tag, fields and judgement annotation from
    token `pos`; returns the rule, the fields and the next position."""
    if pos >= len(toks) or toks[pos] != "(":
        raise DerivationSyntaxError(f"expected '(' at token {pos}")
    pos += 1
    if pos >= len(toks) or toks[pos] not in RULE_ARITY:
        raise DerivationSyntaxError(f"unknown rule tag {toks[pos] if pos < len(toks) else None!r}")
    rule = toks[pos]
    pos += 1
    data: list[tuple[str, object]] = []
    while pos < len(toks) and toks[pos] == "{":
        pos += 1
        raw: list[str] = []
        while pos < len(toks) and toks[pos] != "}":
            raw.append(toks[pos])
            pos += 1
        if pos >= len(toks):
            raise DerivationSyntaxError("unterminated field")
        if not raw:
            raise DerivationSyntaxError(f"empty field at token {pos}")
        pos += 1
        key, raw = raw[0], raw[1:]
        if key in _FORMULA_KEYS:
            try:
                data.append((key, parse_formula(" ".join(raw))))
            except FormulaSyntaxError as e:
                raise DerivationSyntaxError(f"field {key!r}: {e}") from None
        elif key in _LIST_KEYS:
            data.append((key, tuple(raw)))
        else:
            if len(raw) != 1:
                raise DerivationSyntaxError(f"field {key!r} takes one value")
            data.append((key, raw[0]))
    if pos < len(toks) and toks[pos] == "[":
        while pos < len(toks) and toks[pos] != "]":
            pos += 1
        if pos >= len(toks):
            raise DerivationSyntaxError("unterminated judgement annotation")
        pos += 1
    return rule, data, pos


def parse_derivation(text: str) -> Derivation:
    toks: list[str] = _D_TOKEN.findall(text)
    # the nodes whose ')' is still to come, innermost last, each with the
    # premises read so far
    open_nodes: list[tuple[str, list[tuple[str, object]], list[Derivation]]] = []
    pos = 0
    while True:
        if not open_nodes or (pos < len(toks) and toks[pos] == "("):
            rule, data, pos = _parse_head(toks, pos)
            open_nodes.append((rule, data, []))
            continue
        if pos >= len(toks) or toks[pos] != ")":
            raise DerivationSyntaxError(f"expected ')' at token {pos}")
        pos += 1
        rule, data, premises = open_nodes.pop()
        try:
            d = Derivation(rule, tuple(data), tuple(premises))
        except ValueError as e:
            raise DerivationSyntaxError(str(e)) from None
        if not open_nodes:
            break
        open_nodes[-1][2].append(d)
    if pos != len(toks):
        raise DerivationSyntaxError("trailing input after derivation")
    return d
