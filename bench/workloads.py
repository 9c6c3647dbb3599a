"""The benchmark's workloads: inputs, cases and expected results.

A case is one call that yields a verdict: `lamping.cli.main(["run", ...])`
for `corpus`, `lamping.pipeline.run_pipeline(...)` for `church` and
`tower`. Cases look the entry point up on its module at call time, so the
traced run can wrap it. Set-up generates every derivation, prints it and
parses it back; the cases only receive the parsed derivations (or, for
`corpus`, the files).
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import lamping.cli
import lamping.pipeline
from lamping.derivations import (
    ax, bang, contract, cut, dapp, forall_l, forall_r, lam, llolli,
    parse_derivation, show_derivation,
)
from lamping.formulas import Atom, Bang, Forall, Lolli
from lamping.terms import App, Var

import randgen

CORPUS_DIR = Path(__file__).resolve().parents[1] / "corpus"
DRAWS = 25  # random EAL and, separately, LAL derivations per corpus run
# Church sizes stay small enough that a 30 s run makes about 50 passes:
# with n up to 96 a 40 s run made about 20, and its p90 and cases_per_s
# moved by up to 0.3 of their median from run to run on a shared machine
CHURCH_SIZES = (16, 32, 48)
TOWER_SG = range(1, 10)  # k = 10 raises RecursionError in the oracle
TOWER_PN = range(1, 7)  # pn-mlbl at k = 7 alone takes about 2.4 s
TOWER_PN_STEPS = {1: 4, 2: 14, 3: 35, 4: 78, 5: 165, 6: 340}

A = Atom("a")


@dataclass
class Case:
    name: str
    run: Callable[[], bool]
    # closed-form work counts the traced run must reproduce
    pins: dict[str, int] = field(default_factory=dict)


# -- derivations ------------------------------------------------------------

def bangs(f, n: int):
    for _ in range(n):
        f = Bang(f)
    return f


def church(n: int, atom: Atom = A):
    """|- \\s.\\z.s(...(s z)) : !(t-ot) -o !t -o !t, for n >= 2.

    The same derivation as `lamping.corpus._church`, built here rather than
    imported so that the benchmark's inputs stay fixed when the program's
    own corpus builder changes."""
    d = ax("z", atom)
    for i in range(n, 0, -1):
        d = llolli(f"s{i}", f"r{i}", d, ax(f"r{i}", atom))
    d = bang(d)
    cur = "s1"
    for i in range(2, n + 1):
        target = "s" if i == n else f"c{i}"
        d = contract(cur, f"s{i}", target, d)
        cur = target
    return lam("s", lam("z", d))


def church_identity(n: int):
    """Church n applied to a boxed identity and Z; the normal form is Z."""
    d = dapp(church(n), bang(lam("x", ax("x", A))), "apI")
    return dapp(d, ax("Z", Bang(A)), "apZ")


def church_sz(n: int):
    """Church n applied to free S and Z; the normal form is S^n Z."""
    d = dapp(church(n), ax("S", Bang(Lolli(A, A))), "apS")
    return dapp(d, ax("Z", Bang(A)), "apZ")


def tower(k: int):
    """\\s. 2 (2 (... (2 s))) with k Church twos taken at the instance
    types a, !a, ..., applied to free S and Z; the normal form is
    S^(2^k) Z. k = 2 has the shape of the corpus entry
    two_compose_two_applied."""
    t = Atom("t")
    numeral = Forall("t", Lolli(Bang(Lolli(t, t)), Lolli(Bang(t), Bang(t))))
    inst = A
    d = ax("s", Bang(Lolli(A, A)))
    for i in range(1, k + 1):
        arrow = Lolli(Bang(inst), Bang(inst))
        d = llolli(f"n{i}", f"h{i}", d if i == 1 else bang(d), ax(f"h{i}", arrow))
        d = forall_l(f"n{i}", numeral, inst, d)
        d = cut(f"n{i}", forall_r("t", church(2, t)), d)
        inst = Bang(inst)
    d = dapp(lam("s", d), ax("S", bangs(Lolli(A, A), k)), "apS")
    return dapp(d, ax("Z", bangs(A, k)), "apZ")


def round_trip(d):
    """Print and parse back, so the case runs on a loaded derivation."""
    return parse_derivation(show_derivation(d))


# -- checks -----------------------------------------------------------------

def is_s_power(t, n: int) -> bool:
    """True when t is S applied n times to Z, compared node by node."""
    for _ in range(n):
        if not (isinstance(t, App) and isinstance(t.fun, Var) and t.fun.name == "S"):
            return False
        t = t.arg
    return isinstance(t, Var) and t.name == "Z"


def pipeline_case(name: str, d, strategy: str, s_count: int,
                  pins: dict[str, int]) -> Case:
    def run() -> bool:
        r = lamping.pipeline.run_pipeline(d, "eal", "dlt", strategy, probe_depth=0)
        return r.verdict and is_s_power(r.readback, s_count)
    return Case(name, run, pins)


def cli_case(path: Path, mode: str, translation: str, strategy: str) -> Case:
    argv = ["run", str(path), "--mode", mode, "--translation", translation,
            "--strategy", strategy]

    def run() -> bool:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = lamping.cli.main(argv)
            except SystemExit as e:
                code = e.code
        lines = out.getvalue().splitlines()
        return (code == 0 and "verdict pass" in lines
                and "semantics.table_preserved true" in lines)
    return Case(f"{path.stem}.{mode}/{translation}/{strategy}", run)


# -- workloads --------------------------------------------------------------

def corpus_cases(seed: int, workdir: Path) -> list[Case]:
    inputs = [(p, p.suffix[1:]) for p in sorted(CORPUS_DIR.iterdir())
              if p.suffix in (".eal", ".lal")]
    rng = random.Random(seed)
    for i in range(DRAWS):
        for gen, mode in ((randgen.Gen, "eal"), (randgen.LalGen, "lal")):
            path = workdir / f"draw{i:02d}.{mode}"
            path.write_text(show_derivation(gen(rng.randrange(2 ** 32)).grow()) + "\n")
            inputs.append((path, mode))
    for path, _ in inputs:
        parse_derivation(path.read_text())
    return [cli_case(path, mode, translation, strategy)
            for path, mode in inputs
            for translation in ("lt", "dlt")
            for strategy in ("sg", "pn-mlbl")]


def church_cases() -> list[Case]:
    cases = []
    for n in CHURCH_SIZES:
        d = round_trip(church_identity(n))
        cases.append(pipeline_case(f"church{n}-id/sg", d, "sg", 0, {
            "sharegraphs.steps": 3 * n, "sharegraphs.copies": n - 1,
            "semantics.weight_total": 2 * (n - 1)}))
        cases.append(pipeline_case(f"church{n}-id/pn-mlbl", d, "pn-mlbl", 0,
                                   {"proofnets.mlbl_steps": 3 * n + 1}))
        d = round_trip(church_sz(n))
        cases.append(pipeline_case(f"church{n}-SZ/sg", d, "sg", n,
                                   {"sharegraphs.steps": 2}))
        cases.append(pipeline_case(f"church{n}-SZ/pn-mlbl", d, "pn-mlbl", n,
                                   {"proofnets.mlbl_steps": 2}))
    return cases


def tower_cases() -> list[Case]:
    cases = []
    for k in TOWER_SG:
        d = round_trip(tower(k))
        cases.append(pipeline_case(f"tower{k}/sg", d, "sg", 2 ** k, {
            "sharegraphs.steps": 4 * k - 1, "sharegraphs.copies": k - 1,
            "semantics.weight_total": 2 * (k - 1)}))
        if k in TOWER_PN:
            cases.append(pipeline_case(f"tower{k}/pn-mlbl", d, "pn-mlbl", 2 ** k,
                                       {"proofnets.mlbl_steps": TOWER_PN_STEPS[k]}))
    return cases


def build(workload: str, seed: int, workdir: Path) -> list[Case]:
    if workload == "corpus":
        return corpus_cases(seed, workdir)
    if workload == "church":
        return church_cases()
    return tower_cases()
