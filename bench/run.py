"""Benchmark of the lamping pipeline on three workloads.

    python3 bench/run.py [--workload corpus|church|tower|all] [--seed N]
                         [--seconds S] [--trace 0|1]

--seconds defaults to `run_seconds` in BENCHMARK.json; figures are only
comparable between runs of the same length.

Run it from the root of the repository. Each workload runs in its own
process as a closed loop: one client, one thread, and the next case
starts when the previous one has returned. A run sets its inputs up
(import lamping, generate, print and parse the derivations), runs one
untimed warm-up pass, then runs whole passes over the cases, each in a
seeded order, for at most the given seconds. It sets up again at even
intervals between passes and reports the median set-up; the percentiles
pool every timed run of every case. Between cases it times a fixed
reference job (reference.py) and reports every time scaled to a host on
which that job takes a nominal 4 ms, each pass by the job's median in
that pass; the times as measured are printed beside them. With --trace 1 it alternates plain
and traced passes and reports per-layer metrics instead of end-to-end
ones. Every case's output is checked; the last line of output is one
JSON object, and the exit code is non-zero when any output was wrong.
See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
from reference import NOMINAL_MS, HostSpeed

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOADS = ("corpus", "church", "tower")
SETUP_REPS = 5
# one run length, kept in BENCHMARK.json, which runs the command with it
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def set_up(workload: str, seed: int, workdir: Path):
    """Import lamping from source and build the cases; returns the time."""
    for name in list(sys.modules):
        if name.split(".")[0] in ("lamping", "workloads", "randgen"):
            del sys.modules[name]
    t0 = time.perf_counter()
    workloads = importlib.import_module("workloads")
    cases = workloads.build(workload, seed, workdir)
    return time.perf_counter() - t0, cases


class Tally:
    """Case outcomes; the first failure of each case is reported."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reported: set[str] = set()

    def run(self, case) -> float:
        t0 = time.perf_counter()
        try:
            ok = case.run()
            error = "wrong output"
        except Exception as e:  # a raising case is a failed case
            ok = False
            error = f"{type(e).__name__}: {e}"
        spent = time.perf_counter() - t0
        self.attempted += 1
        if not ok:
            self.failed += 1
            if case.name not in self.reported:
                self.reported.add(case.name)
                print(f"FAIL {case.name}: {error}"[:400], file=sys.stderr)
        return spent


def shuffled(cases, rng: random.Random) -> list:
    order = list(cases)
    rng.shuffle(order)
    return order


def run_pass(cases, rng: random.Random, tally: Tally,
             host: HostSpeed | None = None) -> dict[str, float]:
    times = {}
    for case in shuffled(cases, rng):
        if host:
            host.tick()
        times[case.name] = tally.run(case)
    return times


def timed_run(build, took: float, cases, rng, seconds: float):
    # Other tenants of the machine switch it between a fast and a slow state
    # for stretches of seconds to minutes. Set-up repeats at even intervals
    # through the run, and the reference job is timed between cases: each
    # pass's times are scaled by the job's median in that pass, set-up by
    # its median over the run, to the nominal host (reference.py).
    setup = [took]
    warm = Tally()
    run_pass(cases, rng, warm)
    host = HostSpeed()
    tally = Tally()
    times: list[float] = []  # scaled to the nominal host
    raw: list[float] = []  # as measured
    t_start = time.perf_counter()
    passes = 0
    while True:
        elapsed = time.perf_counter() - t_start
        if len(setup) < SETUP_REPS and elapsed >= len(setup) * seconds / SETUP_REPS:
            took, cases = build()
            setup.append(took)
        t0 = time.perf_counter()
        first = len(host.samples)
        lap_times = run_pass(cases, rng, tally, host).values()
        lap = time.perf_counter() - t0
        raw.extend(lap_times)
        pass_scale = host.scale(first)
        times.extend(t * pass_scale for t in lap_times)
        passes += 1
        if time.perf_counter() - t_start + lap > seconds:
            break
    scale = host.scale()
    busy, busy_raw = sum(times), sum(raw)
    deciles = statistics.quantiles([t * 1000 for t in times], n=10,
                                   method="inclusive")
    raw_deciles = statistics.quantiles([t * 1000 for t in raw], n=10,
                                       method="inclusive")
    of = f"{len(times)} timed runs: {len(cases)} cases x {passes} passes"
    measured = "; measured {:.4g} {}"
    metrics = {
        "setup_s": (statistics.median(setup) * scale, "s"),
        "cases_per_s": (len(times) / busy, "1/s"),
        "case_ms.p50": (deciles[4], "ms"),
        "case_ms.p90": (deciles[8], "ms"),
        "pass_rate": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} set-ups"
                   + measured.format(statistics.median(setup), "s"),
        "cases_per_s": f"{of} in {busy_raw:.1f} s" + measured.format(len(raw) / busy_raw, "1/s"),
        "case_ms.p50": of + measured.format(raw_deciles[4], "ms"),
        "case_ms.p90": of + measured.format(raw_deciles[8], "ms"),
        "pass_rate": f"fail_rate {tally.failed}/{tally.attempted}",
        "peak_rss_mb": "whole process",
    }
    print(f"host: reference job median {host.median_ms():.3f} ms over"
          f" {len(host.samples)} timings, nominal {NOMINAL_MS} ms; times below are"
          f" scaled to the nominal host, pass by pass")
    ok = warm.failed == 0 and tally.failed == 0
    return ok, tally, metrics, notes


def traced_run(cases, rng, seconds: float, workload: str):
    tracer = tracing.Tracer()
    tally = Tally()
    run_pass(cases, rng, tally)  # warm-up
    # wrappers add one frame per recursive call of beta_step; double the
    # limit so tracing does not change which inputs fit
    sys.setrecursionlimit(2 * sys.getrecursionlimit())
    per_case: dict[str, list[tuple[dict, dict]]] = {}

    plain_wall = traced_wall = 0.0
    passes = 0
    while True:
        t0 = time.perf_counter()
        run_pass(cases, rng, tally)
        t1 = time.perf_counter()
        tracer.install()
        try:
            for case in shuffled(cases, rng):
                tracer.begin_case()
                tally.run(case)
                per_case.setdefault(case.name, []).append(tracer.end_case())
        finally:
            tracer.remove()
        t2 = time.perf_counter()
        plain_wall += t1 - t0
        traced_wall += t2 - t1
        passes += 1
        if plain_wall + traced_wall + (t2 - t0) > seconds:
            break

    ok = tally.failed == 0
    problems = []
    pinned = 0
    totals_t: dict[str, float] = {}
    totals_c: dict[str, int] = {}
    for case in cases:
        runs = per_case[case.name]
        if any(counts != runs[0][1] for _, counts in runs[1:]):
            problems.append(f"{case.name}: counts differ between traced passes")
        for layer_times, _ in runs:
            for k, v in layer_times.items():
                totals_t[k] = totals_t.get(k, 0.0) + v / passes
        for k, v in runs[0][1].items():
            if k in tracing.MAXIMA:
                totals_c[k] = max(totals_c.get(k, 0), v)
            else:
                totals_c[k] = totals_c.get(k, 0) + v
        for k, want in case.pins.items():
            if k in tracer.present:
                pinned += 1
                got = runs[0][1].get(k, 0)
                if got != want:
                    problems.append(f"{case.name}: {k} is {got}, closed form {want}")
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print(f"counts compared across {passes} traced passes; {pinned} closed-form"
          f" counts checked; {len(problems)} mismatches")

    metrics = tracing.layer_metrics(tracer.present, totals_t, totals_c)
    metrics["trace.overhead"] = (traced_wall / plain_wall, "ratio")
    notes = {name: f"{tracing.RATIOS[name][0]} {totals_c.get(tracing.RATIOS[name][0], 0)}"
                   f" / {tracing.RATIOS[name][1]} {totals_c.get(tracing.RATIOS[name][1], 0)}"
             for name in tracing.RATIOS if name in metrics}
    notes["trace.overhead"] = (f"{passes} traced passes {traced_wall:.2f} s"
                               f" / {passes} plain passes {plain_wall:.2f} s")
    if workload == "tower":
        print_gap_table({name: runs[0][1] for name, runs in per_case.items()})
    return ok and not problems, tally, metrics, notes


def print_gap_table(counts: dict[str, dict]) -> None:
    """Oracle work against graph rewrites for each tower k."""
    print(f"{'k':>2} {'terms.beta_steps':>17} {'terms.beta_step_calls':>22}"
          f" {'sharegraphs.steps':>18} {'proofnets.mlbl_steps':>21}")
    k = 1
    while f"tower{k}/sg" in counts:
        sg = counts[f"tower{k}/sg"]
        pn = counts.get(f"tower{k}/pn-mlbl")
        mlbl = pn.get("proofnets.mlbl_steps", "-") if pn else "-"
        print(f"{k:>2} {sg.get('terms.beta_steps', '-'):>17}"
              f" {sg.get('terms.beta_step_calls', '-'):>22}"
              f" {sg.get('sharegraphs.steps', '-'):>18} {mlbl:>21}")
        k += 1


def run_one(args) -> int:
    if not (SRC / "lamping" / "__init__.py").is_file():
        print(f"error: no lamping sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        # every set-up compiles lamping from source: no bytecode is written,
        # and none left by earlier runs is read
        sys.dont_write_bytecode = True
        sys.pycache_prefix = str(Path(tmp) / "pycache")

        def build():
            return set_up(args.workload, args.seed, Path(tmp))

        took, cases = build()
        rng = random.Random(args.seed)
        if args.trace:
            ok, tally, metrics, notes = traced_run(cases, rng, args.seconds, args.workload)
        else:
            ok, tally, metrics, notes = timed_run(build, took, cases, rng, args.seconds)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<34} {value:>14.6g} {unit}{note}")
    print(json.dumps({
        "correct": ok, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if ok else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    results = {}
    code = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        code = max(code, proc.returncode)
        last = proc.stdout.rstrip().rpartition("\n")[2]
        if not last.startswith("{"):
            return code or 2
        results[workload] = json.loads(last)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }))
    return code


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
