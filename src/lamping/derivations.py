"""EAL/LAL sequent derivations: checking, subjects, text format.

A derivation is a tree of rule applications. Each node carries only the
rule tag plus the data needed to replay it (affected variable names,
instantiation witnesses); judgements are recomputed by the checker, so a
stored derivation can never disagree with its own conclusion.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any

from .formulas import (
    Atom, Bang, Forall, Formula, FormulaSyntaxError, Lolli, Mu, Para,
    contains_para, erase_para, formula_eq, free_type_vars, parse_formula,
    show_formula, subst_formula, unfold_mu,
)
from .terms import Abs, App, Term, Var, free_vars, subst

__all__ = [
    "Derivation", "Judgement", "RuleViolation", "DerivationSyntaxError",
    "RULE_ARITY", "check_derivation", "check_annotated", "derivation_subject",
    "parse_derivation", "show_derivation", "to_eal_image",
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
class Judgement:
    ctx: tuple[tuple[str, Formula], ...]
    subject: Term
    type: Formula

    def ctx_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.ctx)

    def lookup(self, name: str) -> Formula | None:
        for n, f in self.ctx:
            if n == name:
                return f
        return None


@dataclass(frozen=True)
class Derivation:
    rule: str
    data: tuple[tuple[str, object], ...] = ()
    premises: tuple["Derivation", ...] = ()

    def __post_init__(self) -> None:
        if self.rule not in RULE_ARITY:
            raise ValueError(f"unknown rule tag {self.rule!r}")
        if len(self.premises) != RULE_ARITY[self.rule]:
            raise ValueError(f"rule {self.rule} takes {RULE_ARITY[self.rule]} premises")

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
    ftype = check_derivation(fun, mode).type
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
    """Verify every rule application and return the conclusion."""
    return _check_all(d, mode, None)


def check_annotated(d: Derivation, mode: str = EAL) -> dict[tuple[int, ...], Judgement]:
    """check_derivation, but returns the judgement at every node keyed by path."""
    out: dict[tuple[int, ...], Judgement] = {}
    _check_all(d, mode, out)
    return out


def _check_all(d: Derivation, mode: str,
               out: dict[tuple[int, ...], Judgement] | None) -> Judgement:
    """The one checker. Judgements are kept only when `out` is given:
    keeping them all holds every node's subject term alive at once."""
    if mode not in (EAL, LAL):
        raise ValueError(f"mode must be 'eal' or 'lal', got {mode!r}")

    def go(n: Derivation, path: tuple[int, ...]) -> Judgement:
        subs = [go(p, path + (i,)) for i, p in enumerate(n.premises)]
        j = _apply_rule(n, mode, path, subs)
        if out is not None:
            out[path] = j
        return j

    return go(d, ())


def derivation_subject(d: Derivation, mode: str = EAL) -> Term:
    return check_derivation(d, mode).subject


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


def _ctx_remove(ctx: tuple[tuple[str, Formula], ...], name: str) -> tuple[tuple[str, Formula], ...]:
    return tuple((n, f) for n, f in ctx if n != name)


def _ctx_merge(path: tuple[int, ...], *parts: tuple[tuple[str, Formula], ...]) -> tuple[tuple[str, Formula], ...]:
    seen: set[str] = set()
    out: list[tuple[str, Formula]] = []
    for part in parts:
        for n, f in part:
            if n in seen:
                raise _fail(path, f"duplicate context variable {n!r} when merging contexts")
            seen.add(n)
            out.append((n, f))
    return tuple(out)


def _apply_rule(d: Derivation, mode: str, path: tuple[int, ...],
                subs: list[Judgement]) -> Judgement:
    j = _apply_rule_inner(d, mode, path, subs)
    if not free_vars(j.subject) <= set(j.ctx_names()):
        raise _fail(path, "subject uses a variable missing from the context")
    return j


def _apply_rule_inner(d: Derivation, mode: str, path: tuple[int, ...],
                      subs: list[Judgement]) -> Judgement:
    if mode == EAL:
        for _, v in d.data:
            if isinstance(v, (Atom, Lolli, Bang, Para, Forall, Mu)) and contains_para(v):
                raise _fail(path, "paragraph modality is not an EAL connective")

    if d.rule == "A":
        x, ty = _field(d, path, "var", str), _field(d, path, "ty", Formula)
        return Judgement(((x, ty),), Var(x), ty)

    if d.rule == "U":
        left, right = subs
        x = _field(d, path, "var", str)
        xty = right.lookup(x)
        if xty is None:
            raise _fail(path, f"cut variable {x!r} not in right context")
        if not formula_eq(xty, left.type):
            raise _fail(path, f"cut type mismatch: {show_formula(left.type)} vs {show_formula(xty)}")
        ctx = _ctx_merge(path, left.ctx, _ctx_remove(right.ctx, x))
        return Judgement(ctx, subst(right.subject, x, left.subject), right.type)

    if d.rule == "W":
        (p,) = subs
        x, ty = _field(d, path, "var", str), _field(d, path, "ty", Formula)
        if p.lookup(x) is not None:
            raise _fail(path, f"weakened variable {x!r} already in context")
        return Judgement(p.ctx + ((x, ty),), p.subject, p.type)

    if d.rule == "X":
        (p,) = subs
        a, b, z = (_field(d, path, k, str) for k in ("a", "b", "z"))
        aty, bty = p.lookup(a), p.lookup(b)
        if aty is None or bty is None:
            raise _fail(path, f"contraction variables {a!r},{b!r} not both in context")
        if not formula_eq(aty, bty):
            raise _fail(path, "contraction on hypotheses of different types")
        if not isinstance(aty, Bang):
            raise _fail(path, f"contraction requires a !-type, got {show_formula(aty)}")
        if z != a and z != b and p.lookup(z) is not None:
            raise _fail(path, f"contraction target {z!r} already in context")
        ctx = tuple((z, f) if n == a else (n, f) for n, f in _ctx_remove(p.ctx, b))
        subj = subst(subst(p.subject, a, Var(z)), b, Var(z))
        return Judgement(ctx, subj, p.type)

    if d.rule == "RLolli":
        (p,) = subs
        x = _field(d, path, "var", str)
        xty = p.lookup(x)
        if xty is None:
            raise _fail(path, f"abstracted variable {x!r} not in context")
        return Judgement(_ctx_remove(p.ctx, x), Abs(x, p.subject), Lolli(xty, p.type))

    if d.rule == "LLolli":
        parg, pbody = subs
        y, x = _field(d, path, "fun", str), _field(d, path, "var", str)
        xty = pbody.lookup(x)
        if xty is None:
            raise _fail(path, f"continuation variable {x!r} not in right context")
        ctx = _ctx_merge(path, parg.ctx, _ctx_remove(pbody.ctx, x), ((y, Lolli(parg.type, xty)),))
        subj = subst(pbody.subject, x, App(Var(y), parg.subject))
        return Judgement(ctx, subj, pbody.type)

    if d.rule == "PBang":
        if mode != EAL:
            raise _fail(path, "PBang is the EAL exponential rule; use PBang1/PBang2/PPara in LAL")
        (p,) = subs
        ctx = tuple((n, Bang(f)) for n, f in p.ctx)
        return Judgement(ctx, p.subject, Bang(p.type))

    if d.rule == "PBang1":
        if mode != LAL:
            raise _fail(path, "PBang1 is an LAL rule")
        (p,) = subs
        if p.ctx:
            raise _fail(path, "PBang1 requires an empty context")
        return Judgement((), p.subject, Bang(p.type))

    if d.rule == "PBang2":
        if mode != LAL:
            raise _fail(path, "PBang2 is an LAL rule")
        (p,) = subs
        if len(p.ctx) != 1:
            raise _fail(path, "PBang2 requires exactly one hypothesis")
        (x, xty), = p.ctx
        if not formula_eq(xty, p.type):
            raise _fail(path, "PBang2 requires the hypothesis type to match the subject type")
        return Judgement(((x, Bang(xty)),), p.subject, Bang(p.type))

    if d.rule == "PPara":
        if mode != LAL:
            raise _fail(path, "PPara is an LAL rule")
        (p,) = subs
        banged = _field(d, path, "bang", tuple)
        names = p.ctx_names()
        for x in banged:
            if x not in names:
                raise _fail(path, f"PPara bang list names unknown variable {x!r}")
        ctx = tuple((n, Bang(f) if n in banged else Para(f)) for n, f in p.ctx)
        return Judgement(ctx, p.subject, Para(p.type))

    if d.rule == "RForall":
        (p,) = subs
        tv = _field(d, path, "tv", str)
        for n, f in p.ctx:
            if tv in free_type_vars(f):
                raise _fail(path, f"type variable {tv!r} occurs free in the type of {n!r}")
        return Judgement(p.ctx, p.subject, Forall(tv, p.type))

    if d.rule == "LForall":
        (p,) = subs
        x, ty = _field(d, path, "var", str), _field(d, path, "ty", Forall)
        wit = _field(d, path, "wit", Formula)
        xty = p.lookup(x)
        if xty is None:
            raise _fail(path, f"variable {x!r} not in context")
        expected = subst_formula(ty.body, ty.var, wit)
        if not formula_eq(xty, expected):
            raise _fail(path, f"instantiation mismatch: hypothesis {show_formula(xty)} "
                              f"!= {show_formula(expected)}")
        ctx = tuple((n, ty if n == x else f) for n, f in p.ctx)
        return Judgement(ctx, p.subject, p.type)

    if d.rule == "RMu":
        (p,) = subs
        ty = _field(d, path, "ty", Mu)
        if not formula_eq(p.type, unfold_mu(ty)):
            raise _fail(path, f"fold mismatch: subject has {show_formula(p.type)}, "
                              f"expected {show_formula(unfold_mu(ty))}")
        return Judgement(p.ctx, p.subject, ty)

    if d.rule == "LMu":
        (p,) = subs
        x, ty = _field(d, path, "var", str), _field(d, path, "ty", Mu)
        xty = p.lookup(x)
        if xty is None:
            raise _fail(path, f"variable {x!r} not in context")
        if not formula_eq(xty, unfold_mu(ty)):
            raise _fail(path, f"unfold mismatch: hypothesis has {show_formula(xty)}")
        ctx = tuple((n, ty if n == x else f) for n, f in p.ctx)
        return Judgement(ctx, p.subject, p.type)

    raise _fail(path, f"unhandled rule {d.rule}")


def to_eal_image(d: Derivation) -> Derivation:
    """Map an LAL derivation to its EAL image: paragraph boxes become
    plain boxes and every paragraph modality becomes a bang."""
    prem = tuple(to_eal_image(p) for p in d.premises)
    rule = "PBang" if d.rule in ("PBang1", "PBang2", "PPara") else d.rule
    data = []
    for k, v in d.data:
        if k == "bang":
            continue
        if isinstance(v, (Atom, Lolli, Bang, Para, Forall, Mu)):
            v = erase_para(v)
        data.append((k, v))
    return Derivation(rule, tuple(data), prem)


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
    ann = check_annotated(d, mode) if judgements else None

    def fmt_judgement(j: Judgement) -> str:
        from .terms import show_term
        ctx = ", ".join(f"{n}:{show_formula(f)}" for n, f in j.ctx)
        return f"[{ctx} |- {show_term(j.subject)} : {show_formula(j.type)}]"

    def go(node: Derivation, depth: int, path: tuple[int, ...]) -> str:
        pad = "  " * depth
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
            parts.append(fmt_judgement(ann[path]))
        head = pad + "(" + " ".join(parts)
        if not node.premises:
            return head + ")"
        body = "\n".join(go(p, depth + 1, path + (i,))
                         for i, p in enumerate(node.premises))
        return head + "\n" + body + ")"

    return go(d, indent, ())


def parse_derivation(text: str) -> Derivation:
    toks: list[str] = _D_TOKEN.findall(text)
    pos = 0

    def parse_node() -> Derivation:
        nonlocal pos
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
        premises: list[Derivation] = []
        while pos < len(toks) and toks[pos] == "(":
            premises.append(parse_node())
        if pos >= len(toks) or toks[pos] != ")":
            raise DerivationSyntaxError(f"expected ')' at token {pos}")
        pos += 1
        try:
            return Derivation(rule, tuple(data), tuple(premises))
        except ValueError as e:
            raise DerivationSyntaxError(str(e)) from None

    d = parse_node()
    if pos != len(toks):
        raise DerivationSyntaxError("trailing input after derivation")
    return d
