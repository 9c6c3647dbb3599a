"""Command-line driver.

    lamping check FILE [--mode eal|lal] [--annotate]
    lamping run FILE [--mode ...] [--translation lt|dlt] [--strategy sg|pn-mlbl]
                 [--max-steps N] [--probe-depth D] [--dot DIR]
    lamping trace FILE --edge E --ctx "S1|...|Sk|T" [...]

Exit codes: 0 pass, 1 verdict fail, 2 input error, step budget or token
walk run out.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .derivations import (DerivationSyntaxError, RuleViolation,
                          check_derivation, parse_derivation, show_derivation)
from .formulas import show_formula
from .pipeline import format_report, prepared_graph, run_pipeline
from .proofnets import proofnet_dot
from .semantics import (FuelExhaustedRun, Reached, Stuck, parse_ctx, run_token,
                        show_ctx)
from .sharegraphs import graph_dot, normalize_sg
from .terms import FuelExhausted, show_term


def cmd_check(args) -> int:
    d = parse_derivation(Path(args.file).read_text())
    if args.annotate:
        print(show_derivation(d, judgements=True, mode=args.mode))
        return 0
    j = check_derivation(d, args.mode)
    ctx = ", ".join(f"{n}:{show_formula(f)}" for n, f in j.ctx)
    print(f"{ctx} |- {show_term(j.subject)} : {show_formula(j.type)}")
    return 0


def cmd_run(args) -> int:
    d = parse_derivation(Path(args.file).read_text())
    stats = run_pipeline(d, mode=args.mode, translation=args.translation,
                         strategy=args.strategy, max_steps=args.max_steps,
                         probe_depth=args.probe_depth)
    print(format_report(stats))
    if args.dot:
        outdir = Path(args.dot)
        outdir.mkdir(parents=True, exist_ok=True)
        net, _, graph = prepared_graph(d, args.mode, args.translation)
        (outdir / "proofnet.dot").write_text(proofnet_dot(net))
        (outdir / "graph.dot").write_text(graph_dot(graph))
        normalize_sg(graph, args.max_steps)
        (outdir / "normal.dot").write_text(graph_dot(graph))
    return 0 if stats.verdict else 1


def cmd_trace(args) -> int:
    d = parse_derivation(Path(args.file).read_text())
    net, lab, graph = prepared_graph(d, args.mode, args.translation)
    structure = net if args.on == "net" else graph
    if args.edge not in structure.conclusions:
        print(f"error: unknown edge {args.edge!r}; conclusions: "
              f"{' '.join(structure.conclusions)}", file=sys.stderr)
        return 2
    try:
        ctx = parse_ctx(args.ctx, lab.k)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    res, transcript = run_token(structure, lab, args.edge, ctx,
                                fuel=args.max_steps, trace=True)
    for state in transcript:
        t = state.target
        where = t[1] if t[0] == "c" else f"{t[1]}.{t[2]}"
        print(f"{where} -> {show_ctx(state.ctx)}")
    if isinstance(res, Reached):
        print(f"reached {res.port} {show_ctx(res.ctx)}")
    elif isinstance(res, Stuck):
        print(f"stuck: {res.reason}")
    elif isinstance(res, FuelExhaustedRun):
        print("stuck: fuel exhausted")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="lamping", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file")
        p.add_argument("--mode", choices=["eal", "lal"], default="eal")
        p.add_argument("--translation", choices=["lt", "dlt"], default="dlt")
        p.add_argument("--max-steps", type=int, default=10 ** 5)

    p_check = sub.add_parser("check", help="verify a derivation file")
    p_check.add_argument("file")
    p_check.add_argument("--mode", choices=["eal", "lal"], default="eal")
    p_check.add_argument("--annotate", action="store_true",
                         help="reprint the derivation with judgement annotations")
    p_check.set_defaults(fn=cmd_check)

    p_run = sub.add_parser("run", help="full pipeline with report")
    common(p_run)
    p_run.add_argument("--strategy", choices=["sg", "pn-mlbl"], default="sg")
    p_run.add_argument("--probe-depth", type=int, default=4)
    p_run.add_argument("--dot", metavar="DIR")
    p_run.set_defaults(fn=cmd_run)

    p_trace = sub.add_parser("trace", help="print a token run transcript")
    common(p_trace)
    p_trace.add_argument("--edge", required=True)
    p_trace.add_argument("--ctx", required=True,
                         help='stacks "S1|...|Sk|T", e.g. "|pq" for k=1')
    p_trace.add_argument("--on", choices=["graph", "net"], default="graph")
    p_trace.set_defaults(fn=cmd_trace)
    return ap


# built once: `main` runs many times in one process under tests and the
# benchmark, and building the parser costs as much as a small run
PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    args = PARSER.parse_args(argv)
    if getattr(args, "max_steps", 1) < 1:
        PARSER.error(f"argument --max-steps: must be at least 1, got {args.max_steps}")
    if getattr(args, "probe_depth", 0) < 0:
        PARSER.error(f"argument --probe-depth: must be at least 0, got {args.probe_depth}")
    try:
        return args.fn(args)
    except (OSError, DerivationSyntaxError, RuleViolation) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (FuelExhausted, UnicodeDecodeError) as e:
        print(f"error: {args.file}: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        # Parsing, derivations, readback and printing terms walk explicit
        # stacks, but the formula functions past the parser (show_formula,
        # formula_eq, subst_formula, free_type_vars, contains_para,
        # erase_para, the dataclasses' == and hash) and the oracle's
        # substitution (terms.subst) recurse once per level: the depth
        # of a type in the input, and of a term the oracle substitutes
        # into, is bounded by Python's recursion limit.
        print(f"error: {args.file}: formula or term nested too deeply "
              f"for Python's recursion limit ({sys.getrecursionlimit()})",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
