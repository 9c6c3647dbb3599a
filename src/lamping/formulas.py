"""Formulas of elementary / light affine logic.

Grammar: `A ::= ident | A '-o' A | '!'A | '$'A | 'forall' a '.' A | 'mu' a '.' A`
where `$` is the light-logic paragraph modality (LAL mode only) and
`-o` associates to the right.

`parse_formula` keeps an explicit stack, so a formula's depth in the
input is limited by memory. The other functions here (`show_formula`,
`formula_eq`, `subst_formula`, `free_type_vars`, `erase_para`,
`contains_para`, `unfold_mu`) and the dataclasses' `==`, `hash` and
`repr` recurse once per level of a formula.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "Formula", "Atom", "Lolli", "Bang", "Para", "Forall", "Mu",
    "FormulaSyntaxError", "parse_formula", "show_formula",
    "free_type_vars", "subst_formula", "formula_eq", "erase_para",
    "unfold_mu", "contains_para",
]


class FormulaSyntaxError(Exception):
    pass


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Lolli:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Bang:
    inner: "Formula"


@dataclass(frozen=True)
class Para:
    inner: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Mu:
    var: str
    body: "Formula"


Formula = Atom | Lolli | Bang | Para | Forall | Mu

# A formula's tokens; a character that starts none of them is a token of
# its own, which no parse consumes.
_TOKEN = re.compile(r"\s*(-o|forall|mu|[a-zA-Z][a-zA-Z0-9_]*|[!$().]|\S)")
_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_BINDERS = {"forall": Forall, "mu": Mu}


def parse_formula(text: str) -> Formula:
    """Parse one formula, shift-reduce on an explicit stack, so its depth
    is limited by memory, not by Python's recursion limit.

    The stack holds the frames still waiting for their operand, innermost
    last: `Bang` or `Para` for a prefix `!` or `$`, (cls, x) for `forall x.`,
    `mu x.` or the left operand x of `-o` (each builds `cls(x, operand)`),
    and None for an open parenthesis. A binder's body and the right of
    `-o` extend as far right as they can, so `-o` is right-associative."""
    toks = _TOKEN.findall(text)
    n = len(toks)
    stack: list = []
    i = 0
    while True:
        # a formula starts: binders, then prefixes, then '(' or an atom
        tok = toks[i] if i < n else None
        while tok in _BINDERS:
            var = toks[i + 1] if i + 1 < n else None
            if var is None or var[0] not in _LETTERS:
                raise _syntax_error(text, f"expected type variable after {tok}")
            dot = toks[i + 2] if i + 2 < n else None
            if dot != ".":
                raise _syntax_error(text, f"expected '.', got {dot!r}")
            stack.append((_BINDERS[tok], var))
            i += 3
            tok = toks[i] if i < n else None
        while tok == "!" or tok == "$":
            stack.append(Bang if tok == "!" else Para)
            i += 1
            tok = toks[i] if i < n else None
        if tok == "(":
            stack.append(None)
            i += 1
            continue
        if tok is None or tok[0] not in _LETTERS or tok in _BINDERS:
            raise _syntax_error(text, f"unexpected token {tok!r}")
        f: Formula = Atom(tok)
        i += 1
        while True:
            # a unary formula ends: apply its prefixes
            while stack and (stack[-1] is Bang or stack[-1] is Para):
                f = stack.pop()(f)
            if i < n and toks[i] == "-o":
                stack.append((Lolli, f))
                i += 1
                break
            # a formula ends: close the binders and arrows waiting for it
            while stack and stack[-1] is not None:
                cls, x = stack.pop()
                f = cls(x, f)
            if not stack:
                if i != n:
                    raise _syntax_error(text, f"trailing formula tokens: {toks[i:]}")
                return f
            stack.pop()
            if i == n or toks[i] != ")":
                raise _syntax_error(text, f"expected ')', got {toks[i] if i < n else None!r}")
            i += 1


def _syntax_error(text: str, reason: str) -> FormulaSyntaxError:
    """The error for a text that does not parse: the first character that
    starts no token, else `reason`, where the parse stopped."""
    for m in _TOKEN.finditer(text):
        tok = m.group(1)
        if tok[0] not in _LETTERS and tok not in ("-o", "!", "$", "(", ")", "."):
            return FormulaSyntaxError(f"bad formula token at {text[m.start():]!r}")
    return FormulaSyntaxError(reason)


def show_formula(f: Formula) -> str:
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Bang):
        return "!" + _show_tight(f.inner)
    if isinstance(f, Para):
        return "$" + _show_tight(f.inner)
    if isinstance(f, Forall):
        return f"forall {f.var}.{show_formula(f.body)}"
    if isinstance(f, Mu):
        return f"mu {f.var}.{show_formula(f.body)}"
    left = show_formula(f.left)
    if isinstance(f.left, (Lolli, Forall, Mu)):
        left = f"({left})"
    return f"{left} -o {show_formula(f.right)}"


def _show_tight(f: Formula) -> str:
    s = show_formula(f)
    return f"({s})" if isinstance(f, (Lolli, Forall, Mu)) else s


def free_type_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, Atom):
        return frozenset((f.name,))
    if isinstance(f, (Bang, Para)):
        return free_type_vars(f.inner)
    if isinstance(f, Lolli):
        return free_type_vars(f.left) | free_type_vars(f.right)
    return free_type_vars(f.body) - {f.var}


def subst_formula(f: Formula, var: str, repl: Formula) -> Formula:
    """Capture-avoiding substitution f{repl/var}."""
    if isinstance(f, Atom):
        return repl if f.name == var else f
    if isinstance(f, Bang):
        return Bang(subst_formula(f.inner, var, repl))
    if isinstance(f, Para):
        return Para(subst_formula(f.inner, var, repl))
    if isinstance(f, Lolli):
        return Lolli(subst_formula(f.left, var, repl), subst_formula(f.right, var, repl))
    cls = type(f)
    if f.var == var:
        return f
    if f.var in free_type_vars(repl) and var in free_type_vars(f.body):
        fresh = f.var
        taken = free_type_vars(repl) | free_type_vars(f.body) | {var}
        i = 0
        while fresh in taken:
            fresh = f"{f.var}{i}"
            i += 1
        return cls(fresh, subst_formula(subst_formula(f.body, f.var, Atom(fresh)), var, repl))
    return cls(f.var, subst_formula(f.body, var, repl))


def formula_eq(a: Formula, b: Formula) -> bool:
    """Equality up to renaming of bound type variables."""
    def go(a: Formula, b: Formula, ea: dict[str, int], eb: dict[str, int], d: int) -> bool:
        if isinstance(a, Atom) and isinstance(b, Atom):
            ia, ib = ea.get(a.name), eb.get(b.name)
            return a.name == b.name if ia is None and ib is None else ia == ib
        if type(a) is not type(b):
            return False
        if isinstance(a, (Bang, Para)):
            return go(a.inner, b.inner, ea, eb, d)  # type: ignore[union-attr]
        if isinstance(a, Lolli):
            return go(a.left, b.left, ea, eb, d) and go(a.right, b.right, ea, eb, d)  # type: ignore[union-attr]
        assert isinstance(a, (Forall, Mu)) and isinstance(b, (Forall, Mu))
        return go(a.body, b.body, {**ea, a.var: d}, {**eb, b.var: d}, d + 1)

    return go(a, b, {}, {}, 0)


def erase_para(f: Formula) -> Formula:
    """Replace every paragraph modality by a bang."""
    if isinstance(f, Atom):
        return f
    if isinstance(f, Bang):
        return Bang(erase_para(f.inner))
    if isinstance(f, Para):
        return Bang(erase_para(f.inner))
    if isinstance(f, Lolli):
        return Lolli(erase_para(f.left), erase_para(f.right))
    return type(f)(f.var, erase_para(f.body))


def contains_para(f: Formula) -> bool:
    if isinstance(f, Atom):
        return False
    if isinstance(f, Para):
        return True
    if isinstance(f, Bang):
        return contains_para(f.inner)
    if isinstance(f, Lolli):
        return contains_para(f.left) or contains_para(f.right)
    return contains_para(f.body)


def unfold_mu(f: Mu) -> Formula:
    return subst_formula(f.body, f.var, f)
