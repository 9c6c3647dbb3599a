"""The parsers as they were before the one-pass reader and the explicit
stacks: a recursive descent over a token list for formulas, a token list
for derivation files, from which each formula field is joined back into
text and parsed again, and a recursive descent over the text for terms.
They are the references the parsers in `lamping` are checked against."""

from __future__ import annotations

import re

from lamping.derivations import RULE_ARITY, Derivation, DerivationSyntaxError
from lamping.formulas import (Atom, Bang, Forall, Formula, FormulaSyntaxError,
                              Lolli, Mu, Para)
from lamping.terms import Abs, App, Term, TermSyntaxError, Var

_TOKEN = re.compile(r"\s*(-o|forall|mu|[a-zA-Z][a-zA-Z0-9_]*|[!$().])")
_IDENT = r"[a-zA-Z][a-zA-Z0-9_]*"
_IDENT_RE = re.compile(_IDENT)
_D_TOKEN = re.compile(r"\s*(\(|\)|\{|\}|\[|\]|[^\s(){}\[\]]+)")
_FORMULA_KEYS = {"ty", "wit"}
_LIST_KEYS = {"bang"}


def _tokenize(text: str) -> list[str]:
    toks, i = [], 0
    while i < len(text):
        m = _TOKEN.match(text, i)
        if not m:
            if text[i:].strip():
                raise FormulaSyntaxError(f"bad formula token at {text[i:]!r}")
            break
        toks.append(m.group(1))
        i = m.end()
    return toks


def parse_formula(text: str) -> Formula:
    toks = _tokenize(text)
    pos = 0

    def peek() -> str | None:
        return toks[pos] if pos < len(toks) else None

    def eat(tok: str) -> None:
        nonlocal pos
        if peek() != tok:
            raise FormulaSyntaxError(f"expected {tok!r}, got {peek()!r}")
        pos += 1

    def parse() -> Formula:
        nonlocal pos
        if peek() in ("forall", "mu"):
            kw = toks[pos]
            pos += 1
            var = toks[pos] if peek() and re.fullmatch(_IDENT, toks[pos]) else None
            if var is None:
                raise FormulaSyntaxError(f"expected type variable after {kw}")
            pos += 1
            eat(".")
            body = parse()
            return Forall(var, body) if kw == "forall" else Mu(var, body)
        left = parse_unary()
        if peek() == "-o":
            pos += 1
            return Lolli(left, parse())
        return left

    def parse_unary() -> Formula:
        nonlocal pos
        if peek() == "!":
            pos += 1
            return Bang(parse_unary())
        if peek() == "$":
            pos += 1
            return Para(parse_unary())
        if peek() == "(":
            pos += 1
            f = parse()
            eat(")")
            return f
        tok = peek()
        if tok is None or not re.fullmatch(_IDENT, tok) or tok in ("forall", "mu"):
            raise FormulaSyntaxError(f"unexpected token {tok!r}")
        pos += 1
        return Atom(tok)

    f = parse()
    if pos != len(toks):
        raise FormulaSyntaxError(f"trailing formula tokens: {toks[pos:]}")
    return f


def _parse_head(toks: list[str], pos: int) -> tuple[str, list[tuple[str, object]], int]:
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


def parse_term(text: str) -> Term:
    n = len(text)

    def skip_ws(i: int) -> int:
        while i < n and text[i].isspace():
            i += 1
        return i

    def parse(i: int) -> tuple[Term, int]:
        i = skip_ws(i)
        if i < n and text[i] in "\\λ":
            m = _IDENT_RE.match(text, skip_ws(i + 1))
            if not m:
                raise TermSyntaxError("expected identifier after lambda", i + 1)
            j = skip_ws(m.end())
            if j >= n or text[j] != ".":
                raise TermSyntaxError("expected '.' after binder", j)
            body, j = parse(j + 1)
            return Abs(m.group(), body), j
        return parse_app(i)

    def parse_app(i: int) -> tuple[Term, int]:
        t, i = parse_atom(i)
        while True:
            j = skip_ws(i)
            if j < n and (text[j] == "(" or _IDENT_RE.match(text, j)):
                u, i = parse_atom(j)
                t = App(t, u)
            else:
                break
        return t, i

    def parse_atom(i: int) -> tuple[Term, int]:
        i = skip_ws(i)
        if i >= n:
            raise TermSyntaxError("unexpected end of input", i)
        if text[i] == "(":
            t, j = parse(i + 1)
            j = skip_ws(j)
            if j >= n or text[j] != ")":
                raise TermSyntaxError("expected ')'", j)
            return t, j + 1
        m = _IDENT_RE.match(text, i)
        if not m:
            raise TermSyntaxError(f"unexpected character {text[i]!r}", i)
        return Var(m.group()), m.end()

    t, i = parse(0)
    i = skip_ws(i)
    if i != n:
        raise TermSyntaxError("trailing input", i)
    return t
