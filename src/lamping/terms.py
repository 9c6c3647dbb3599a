"""Pure lambda terms with named binders.

Parsing/printing, alpha-equivalence, head decomposition, and a
normal-order beta normalizer that serves as the reference evaluator
for the rest of the pipeline.

Terms are immutable, so a node's free variables are computed once and
kept on the node, outside the dataclass fields (`==`, `hash` and `repr`
ignore them). Substitution uses them to return every subterm without
the variable as it is, so its work follows the paths to the
occurrences. `parse_term`, `show_term`, `free_vars`, `term_size`,
`alpha_eq`, `is_normal` and the normalizer use explicit stacks;
substitution recurses once per level of the path to an occurrence.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "Term", "Var", "Abs", "App",
    "TermSyntaxError", "FuelExhausted", "NotNormal",
    "parse_term", "show_term", "free_vars", "term_size",
    "subst", "alpha_eq", "beta_step", "beta_normalize", "is_normal",
    "head_decompose", "head_reassemble", "fresh_name",
    "DEFAULT_FUEL",
]

DEFAULT_FUEL = 10 ** 6


class TermSyntaxError(Exception):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at position {pos})")
        self.pos = pos


class FuelExhausted(Exception):
    pass


class NotNormal(Exception):
    pass


class _Node:
    # the node's free variables once `free_vars` has computed them; a class
    # attribute, not a dataclass field, so `==`, `hash` and `repr` skip it
    _fv: frozenset[str] | None = None


@dataclass(frozen=True)
class Var(_Node):
    name: str


@dataclass(frozen=True)
class Abs(_Node):
    binder: str
    body: "Term"


@dataclass(frozen=True)
class App(_Node):
    fun: "Term"
    arg: "Term"


Term = Var | Abs | App

_IDENT = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")


# ---------------------------------------------------------------------------
# parsing / printing

def parse_term(text: str) -> Term:
    """Parse `\\x.body | f a b | (t)`; application is left-associative and
    an abstraction body extends as far right as possible.

    The parse keeps an explicit stack, so nesting is limited by memory,
    not by Python's recursion limit. A frame waits for a term: the binder
    name of a `\\name.` waiting for its body, or, for a '(' waiting for
    its inside, the application the parenthesised term extends (None when
    it is the application's first atom)."""
    n = len(text)

    def skip_ws(i: int) -> int:
        while i < n and text[i].isspace():
            i += 1
        return i

    stack: list[str | tuple[Term | None]] = []
    head: Term | None = None  # the application read so far
    i = 0
    term_starts = True
    while True:
        i = skip_ws(i)
        if term_starts and i < n and text[i] in "\\λ":
            m = _IDENT.match(text, skip_ws(i + 1))
            if not m:
                raise TermSyntaxError("expected identifier after lambda", i + 1)
            j = skip_ws(m.end())
            if j >= n or text[j] != ".":
                raise TermSyntaxError("expected '.' after binder", j)
            stack.append(m.group())
            i = j + 1
            continue
        # an atom: a variable, or a term in '(' ')'
        if i >= n:
            raise TermSyntaxError("unexpected end of input", i)
        if text[i] == "(":
            stack.append((head,))
            head = None
            i += 1
            term_starts = True
            continue
        m = _IDENT.match(text, i)
        if not m:
            raise TermSyntaxError(f"unexpected character {text[i]!r}", i)
        t: Term = Var(m.group())
        i = m.end()
        while True:
            head = t if head is None else App(head, t)
            j = skip_ws(i)
            if j < n and (text[j] == "(" or _IDENT.match(text, j)):
                break  # the application goes on
            # the term ends: close the binders waiting for it
            t, head = head, None
            while stack and isinstance(stack[-1], str):
                t = Abs(stack.pop(), t)
            if not stack:
                if j != n:
                    raise TermSyntaxError("trailing input", j)
                return t
            (head,) = stack.pop()  # and the '(' around it
            if j >= n or text[j] != ")":
                raise TermSyntaxError("expected ')'", j)
            i = j + 1
        i = j
        term_starts = False


def show_term(t: Term) -> str:
    """The text of t: an abstraction in function position and an
    abstraction or application in argument position are parenthesised.
    Built left to right from a stack of subterms and literal pieces."""
    out: list[str] = []
    todo: list[Term | str] = [t]
    while todo:
        s = todo.pop()
        if isinstance(s, str):
            out.append(s)
        elif isinstance(s, Var):
            out.append(s.name)
        elif isinstance(s, Abs):
            out.append(f"\\{s.binder}.")
            todo.append(s.body)
        else:
            todo.extend((")", s.arg, "(") if isinstance(s.arg, (Abs, App)) else (s.arg,))
            todo.append(" ")
            todo.extend((")", s.fun, "(") if isinstance(s.fun, Abs) else (s.fun,))
    return "".join(out)


# ---------------------------------------------------------------------------
# basic structure

def free_vars(t: Term) -> frozenset[str]:
    """The free variables of t, kept on each node the first time they are
    asked for; an explicit stack fills in the nodes not yet visited."""
    if t._fv is not None:
        return t._fv
    todo = [t]
    while todo:
        s = todo[-1]
        if isinstance(s, Var):
            fv = frozenset((s.name,))
        elif isinstance(s, Abs):
            body = s.body._fv
            if body is None:
                todo.append(s.body)
                continue
            fv = body - {s.binder} if s.binder in body else body
        else:
            fun, arg = s.fun._fv, s.arg._fv
            if fun is None or arg is None:
                if fun is None:
                    todo.append(s.fun)
                if arg is None:
                    todo.append(s.arg)
                continue
            fv = fun if arg <= fun else arg if fun <= arg else fun | arg
        object.__setattr__(s, "_fv", fv)  # frozen: the dataclass refuses setattr
        todo.pop()
    return fv


def term_size(t: Term) -> int:
    size, todo = 0, [t]
    while todo:
        t = todo.pop()
        size += 1
        if isinstance(t, Abs):
            todo.append(t.body)
        elif isinstance(t, App):
            todo += (t.fun, t.arg)
    return size


def fresh_name(base: str, avoid: set[str] | frozenset[str]) -> str:
    if base not in avoid:
        return base
    stem = base.rstrip("0123456789") or "x"
    i = 0
    while f"{stem}{i}" in avoid:
        i += 1
    return f"{stem}{i}"


def subst(t: Term, x: str, u: Term) -> Term:
    """Capture-avoiding substitution t{u/x}."""
    # a subterm without x comes back as it is, so the calls follow the
    # paths to the occurrences of x; under an abstraction on such a path x
    # is free in the body, and the binder is renamed when u mentions it
    if x not in free_vars(t):
        return t
    if isinstance(t, Var):
        return u
    if isinstance(t, App):
        return App(subst(t.fun, x, u), subst(t.arg, x, u))
    fu = free_vars(u)
    if t.binder in fu:
        b = fresh_name(t.binder, fu | free_vars(t.body) | {x})
        return Abs(b, subst(subst(t.body, t.binder, Var(b)), x, u))
    return Abs(t.binder, subst(t.body, x, u))


def alpha_eq(a: Term, b: Term) -> bool:
    # each entry pairs two subterms with their environments: bound name ->
    # depth of its binder
    todo: list[tuple[Term, Term, dict[str, int], dict[str, int], int]] = [(a, b, {}, {}, 0)]
    while todo:
        a, b, env_a, env_b, depth = todo.pop()
        if isinstance(a, Var) and isinstance(b, Var):
            ia, ib = env_a.get(a.name), env_b.get(b.name)
            if ia != ib or ia is None and a.name != b.name:
                return False
        elif isinstance(a, Abs) and isinstance(b, Abs):
            todo.append((a.body, b.body, {**env_a, a.binder: depth},
                         {**env_b, b.binder: depth}, depth + 1))
        elif isinstance(a, App) and isinstance(b, App):
            todo.append((a.arg, b.arg, env_a, env_b, depth))
            todo.append((a.fun, b.fun, env_a, env_b, depth))
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# normal-order reduction

def beta_step(t: Term) -> Term | None:
    """One leftmost-outermost beta step, or None if t is normal."""
    if isinstance(t, App) and isinstance(t.fun, Abs):
        return subst(t.fun.body, t.fun.binder, t.arg)
    if isinstance(t, Abs):
        b = beta_step(t.body)
        return None if b is None else Abs(t.binder, b)
    if isinstance(t, App):
        f = beta_step(t.fun)
        if f is not None:
            return App(f, t.arg)
        a = beta_step(t.arg)
        return None if a is None else App(t.fun, a)
    return None


def is_normal(t: Term) -> bool:
    todo = [t]
    while todo:
        t = todo.pop()
        if isinstance(t, Abs):
            todo.append(t.body)
        elif isinstance(t, App):
            if isinstance(t.fun, Abs):
                return False
            todo += (t.fun, t.arg)
    return True


def beta_normalize(t: Term, fuel: int = DEFAULT_FUEL) -> Term:
    """The normal form of t by leftmost-outermost reduction, in one pass.

    Contracts the same redexes in the same order as repeating `beta_step`
    from the root, so the result is the same term, binder names included,
    but each redex is found once: unwind the application spine, contract
    while the head is an abstraction with an argument, go under an
    abstraction, and at a variable head normalize the arguments left to
    right. An explicit stack replaces recursion. Each contraction is one
    call of `beta_step` on the redex. Raises FuelExhausted when t needs
    `fuel` or more contractions.
    """
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    budget = fuel - 1  # contractions allowed
    # Each frame waits for the normal form of one subterm: a binder wraps it
    # in an abstraction; a pair [head, args] applies the normal head to it
    # and goes on with the next argument (args.pop() is the leftmost).
    frames: list[str | list] = []
    while True:
        args: list[Term] = []
        while True:
            while isinstance(t, App):
                args.append(t.arg)
                t = t.fun
            if not (args and isinstance(t, Abs)):
                break
            if not budget:
                raise FuelExhausted(f"no normal form within {fuel} steps")
            budget -= 1
            t = beta_step(App(t, args.pop()))
        if isinstance(t, Abs):
            frames.append(t.binder)
            t = t.body
            continue
        if args:
            frames.append([t, args])
            t = args.pop()
            continue
        # t is normal: hand it up until a frame has an argument left
        while frames:
            frame = frames[-1]
            if isinstance(frame, str):
                t = Abs(frame, t)
            else:
                frame[0] = App(frame[0], t)
                if frame[1]:
                    t = frame[1].pop()
                    break
                t = frame[0]
            frames.pop()
        else:
            return t


# ---------------------------------------------------------------------------
# head decomposition of normal forms

def head_decompose(t: Term) -> tuple[int, tuple[str, str | int], tuple[Term, ...]]:
    """Split a beta-normal t = \\x1...\\xn. h a1 ... am.

    Returns (n, head, args) where head is ('free', name) or
    ('bound', i) with i the 1-based index of the binder, counted from
    the outermost abstraction.
    """
    if not is_normal(t):
        raise NotNormal(show_term(t))
    binders: list[str] = []
    while isinstance(t, Abs):
        binders.append(t.binder)
        t = t.body
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fun
    assert isinstance(t, Var)
    args.reverse()
    head: tuple[str, str | int]
    for i in range(len(binders) - 1, -1, -1):
        if binders[i] == t.name:
            head = ("bound", i + 1)
            break
    else:
        head = ("free", t.name)
    return len(binders), head, tuple(args)


def head_reassemble(n: int, head: tuple[str, str | int], args: tuple[Term, ...],
                    binders: list[str] | None = None) -> Term:
    """Inverse of head_decompose (binders default to x0..x{n-1})."""
    if binders is None:
        binders = [f"x{i}" for i in range(n)]
    assert len(binders) == n
    kind, which = head
    h: Term = Var(which) if kind == "free" else Var(binders[which - 1])  # type: ignore[index]
    for a in args:
        h = App(h, a)
    for b in reversed(binders):
        h = Abs(b, h)
    return h
