"""Seeded random EAL and LAL derivations for the corpus workload.

`Gen` and `LalGen` are copied unchanged from tests/test_randomized.py,
where the randomized pipeline tests use them. They build a well-typed
derivation move by move and call the checker after every move.
"""

import random

from lamping.derivations import (
    ax, bang, bang1, bang2, check_derivation, contract, cut, dapp, lam, para,
    weak,
)
from lamping.formulas import Atom, Bang, Lolli, Para, formula_eq


class Gen:
    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.counter = 0

    def fresh(self):
        self.counter += 1
        return f"v{self.counter}"

    def small_type(self, depth=2):
        roll = self.rng.random()
        if depth == 0 or roll < 0.4:
            return Atom(self.rng.choice("ab"))
        if roll < 0.7:
            return Lolli(self.small_type(depth - 1), self.small_type(depth - 1))
        return Bang(self.small_type(depth - 1))

    def of_type(self, ty, depth=2):
        """A small derivation whose conclusion has the given type."""
        if isinstance(ty, Lolli) and depth > 0 and self.rng.random() < 0.7:
            x = self.fresh()
            body = self.of_type(ty.right, depth - 1)
            return lam(x, weak(x, ty.left, body))
        if isinstance(ty, Bang) and depth > 0 and self.rng.random() < 0.7:
            return bang(self.of_type(ty.inner, depth - 1))
        return ax(self.fresh(), ty)

    def grow(self, budget=10):
        d = ax(self.fresh(), self.small_type())
        j = check_derivation(d)
        for _ in range(budget):
            moves = ["weak"]
            ctx = list(j.ctx)
            if ctx:
                moves += ["lam", "cut_hyp"]
            moves += ["bang"]
            if isinstance(j.type, Lolli):
                moves += ["apply", "apply"]
            bangs = [(n, f) for n, f in ctx if isinstance(f, Bang)]
            pairs = [(a, b) for i, (a, fa) in enumerate(bangs)
                     for b, fb in bangs[i + 1:] if formula_eq(fa, fb)]
            if pairs:
                moves += ["contract", "contract"]
            move = self.rng.choice(moves)
            if move == "weak":
                d = weak(self.fresh(), self.small_type(), d)
            elif move == "lam":
                x, _ = self.rng.choice(ctx)
                d = lam(x, d)
            elif move == "bang":
                d = bang(d)
            elif move == "apply":
                arg = self.of_type(j.type.left)
                d = dapp(d, arg, self.fresh())
            elif move == "cut_hyp":
                x, xty = self.rng.choice(ctx)
                d = cut(x, self.of_type(xty), d)
            elif move == "contract":
                a, b = self.rng.choice(pairs)
                d = contract(a, b, self.fresh(), d)
            j = check_derivation(d)
        return d


class LalGen(Gen):
    """Random light-logic derivations: paragraph boxes with a random
    !/$ split, the empty and one-hypothesis bang rules."""

    def small_type(self, depth=2):
        roll = self.rng.random()
        if depth == 0 or roll < 0.4:
            return Atom(self.rng.choice("ab"))
        if roll < 0.65:
            return Lolli(self.small_type(depth - 1), self.small_type(depth - 1))
        if roll < 0.85:
            return Bang(self.small_type(depth - 1))
        return Para(self.small_type(depth - 1))

    def of_type(self, ty, depth=2):
        if isinstance(ty, Lolli) and depth > 0 and self.rng.random() < 0.7:
            x = self.fresh()
            return lam(x, weak(x, ty.left, self.of_type(ty.right, depth - 1)))
        if isinstance(ty, Bang) and depth > 0:
            inner = self.of_type(ty.inner, depth - 1)
            j = check_derivation(inner, "lal")
            if not j.ctx:
                return bang1(inner)
            if len(j.ctx) == 1 and formula_eq(j.ctx[0][1], j.type):
                return bang2(inner)
        return ax(self.fresh(), ty)

    def grow(self, budget=10):
        d = ax(self.fresh(), self.small_type())
        j = check_derivation(d, "lal")
        for _ in range(budget):
            ctx = list(j.ctx)
            moves = ["weak", "para"]
            if ctx:
                moves += ["lam", "cut_hyp"]
            if isinstance(j.type, Lolli):
                moves += ["apply", "apply"]
            bangs = [(n, f) for n, f in ctx if isinstance(f, Bang)]
            pairs = [(a, b) for i, (a, fa) in enumerate(bangs)
                     for b, fb in bangs[i + 1:] if formula_eq(fa, fb)]
            if pairs:
                moves += ["contract", "contract"]
            move = self.rng.choice(moves)
            if move == "weak":
                d = weak(self.fresh(), self.small_type(), d)
            elif move == "lam":
                d = lam(self.rng.choice(ctx)[0], d)
            elif move == "para":
                split = tuple(n for n, _ in ctx if self.rng.random() < 0.5)
                d = para(split, d)
            elif move == "apply":
                d = dapp(d, self.of_type(j.type.left), self.fresh(), mode="lal")
            elif move == "cut_hyp":
                x, xty = self.rng.choice(ctx)
                d = cut(x, self.of_type(xty), d)
            elif move == "contract":
                a, b = self.rng.choice(pairs)
                d = contract(a, b, self.fresh(), d)
            j = check_derivation(d, "lal")
        return d
