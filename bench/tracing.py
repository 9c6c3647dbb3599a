"""Per-layer spans and work counts for the traced benchmark run.

The tracer wraps layer functions at the module attributes their callers
look them up by (for example `lamping.pipeline.check_derivation`), so the
program itself is unchanged. A span's self time is its duration minus the
time covered by the spans it encloses. Counting wrappers open no span:
they sit on functions called too often to time one by one, and their cost
lands in the enclosing span, which is why the run also reports
`trace.overhead`. A wrapped name that no longer exists is skipped, and the
metrics it feeds are left out of the report instead of failing the run.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import Counter, defaultdict

# (module, attribute, layer): the layer's self time is reported as <layer>_s
SPANS = [
    ("lamping.cli", "main", "cli.self"),
    ("lamping.cli", "parse_derivation", "derivations.parse"),
    ("lamping.cli", "check_derivation", "derivations.check"),
    ("lamping.cli", "run_pipeline", "pipeline.self"),
    ("lamping.cli", "format_report", "pipeline.self"),
    ("lamping.pipeline", "run_pipeline", "pipeline.self"),
    ("lamping.pipeline", "check_derivation", "derivations.check"),
    ("lamping.proofnets", "check_annotated", "derivations.check"),
    ("lamping.pipeline", "beta_normalize", "terms.oracle"),
    ("lamping.pipeline", "alpha_eq", "terms.alpha_eq"),
    ("lamping.pipeline", "build_proofnet", "proofnets.build"),
    ("lamping.pipeline", "normalize_mlbl", "proofnets.mlbl"),
    ("lamping.pipeline", "labelling_dlt", "translate.label"),
    ("lamping.pipeline", "labelling_lt", "translate.label"),
    ("lamping.pipeline", "translate", "translate.translate"),
    ("lamping.semantics", "semantics_table", "semantics.probe"),
    ("lamping.pipeline", "weight", "semantics.weight"),
    ("lamping.pipeline", "normalize_sg", "sharegraphs.normalize"),
    ("lamping.pipeline", "readback_term", "readback.readback"),
]

# (module, attribute, counter): every call is counted, no span
CALLS = [
    ("lamping.proofnets", "find_cuts", "proofnets.cut_scans"),
    ("lamping.pipeline", "find_cuts", "proofnets.cut_scans"),
    ("lamping.proofnets", "is_special_box", "proofnets.special_box_checks"),
    ("lamping.sharegraphs", "find_cuts_sg", "sharegraphs.cut_scans"),
    ("lamping.readback", "psi_query", "readback.queries"),
    ("lamping.readback", "run_token", "readback.token_runs"),
    ("lamping.semantics", "step_token", "semantics.token_steps"),
]


def _called(counter: str):
    return lambda result, c: c.update((counter,))


def _sg_stats(result, c):
    stats = result[1]
    c["sharegraphs.steps"] += stats.steps
    c["sharegraphs.annihilations"] += stats.annihilations
    c["sharegraphs.copies"] += stats.copies
    c["sharegraphs.peak_size"] = max(c["sharegraphs.peak_size"], stats.peak_size)


def _weight(result, c):
    if math.isfinite(result.total):
        c["semantics.weight_total"] += result.total


# counts read off a span's call or return value: layer -> (counters, reader)
RESULTS = {
    "derivations.check": (("derivations.check_calls",), _called("derivations.check_calls")),
    "translate.translate": (("translate.calls",), _called("translate.calls")),
    "proofnets.build": (("proofnets.net_nodes",),
                        lambda net, c: c.update({"proofnets.net_nodes": net.size()})),
    "proofnets.mlbl": (("proofnets.mlbl_steps",),
                       lambda result, c: c.update({"proofnets.mlbl_steps": result[1]})),
    "sharegraphs.normalize": (("sharegraphs.steps", "sharegraphs.annihilations",
                               "sharegraphs.copies", "sharegraphs.peak_size"), _sg_stats),
    "semantics.weight": (("semantics.weight_total",), _weight),
}

# counters that take the maximum over cases instead of the sum
MAXIMA = ("sharegraphs.peak_size",)

# name -> (numerator, denominator); each is reported with its bases
RATIOS = {
    "terms.beta_steps_per_call": ("terms.beta_steps", "terms.beta_step_calls"),
    "sharegraphs.steps_per_cut_scan": ("sharegraphs.steps", "sharegraphs.cut_scans"),
    "proofnets.steps_per_cut_scan": ("proofnets.mlbl_steps", "proofnets.cut_scans"),
    "readback.queries_per_token_run": ("readback.queries", "readback.token_runs"),
}


class Tracer:
    """Installs the wrappers and collects one case's times and counts."""

    def __init__(self) -> None:
        self.times: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.present: set[str] = set()  # metric names some wrapper feeds
        self._open: list[list[float]] = []  # child seconds per open span
        self._patches: list[tuple[object, str, object]] = []

    # -- collection ---------------------------------------------------------

    def begin_case(self) -> None:
        self.times = defaultdict(float)
        self.counts = Counter()

    def end_case(self) -> tuple[dict[str, float], dict[str, int]]:
        return dict(self.times), dict(self.counts)

    # -- wrappers -----------------------------------------------------------

    def _span(self, layer: str, fn):
        reader = RESULTS.get(layer, (None, None))[1]
        opened = self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            children = [0.0]
            opened.append(children)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = clock() - t0
                opened.pop()
                self.times[layer] += spent - children[0]
                if opened:
                    opened[-1][0] += spent
            if reader is not None:
                reader(result, self.counts)
            return result
        return wrapper

    def _calls(self, counter: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _beta_step(self, fn):
        """Counts every call, and as beta steps the outermost calls that
        found a redex (beta_step recurses through its module global)."""
        depth = [0]

        def wrapper(t):
            self.counts["terms.beta_step_calls"] += 1
            depth[0] += 1
            try:
                result = fn(t)
            finally:
                depth[0] -= 1
            if depth[0] == 0 and result is not None:
                self.counts["terms.beta_steps"] += 1
            return result
        return wrapper

    # -- installation -------------------------------------------------------

    def _patch(self, module: str, attr: str, make) -> bool:
        try:
            mod = importlib.import_module(module)
        except ImportError:
            return False
        fn = getattr(mod, attr, None)
        if not callable(fn):
            return False
        self._patches.append((mod, attr, fn))
        setattr(mod, attr, make(fn))
        return True

    def install(self) -> None:
        for module, attr, layer in SPANS:
            if self._patch(module, attr, lambda fn, layer=layer: self._span(layer, fn)):
                self.present.add(f"{layer}_s")
                self.present.update(RESULTS.get(layer, ((), None))[0])
        if self._patch("lamping.terms", "beta_step", self._beta_step):
            self.present.update(("terms.beta_step_calls", "terms.beta_steps"))
        for module, attr, counter in CALLS:
            if self._patch(module, attr, lambda fn, counter=counter: self._calls(counter, fn)):
                self.present.add(counter)

    def remove(self) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()


def layer_metrics(present: set[str], times: dict[str, float],
                  counts: dict[str, int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics with units, including the ratios whose bases exist."""
    out: dict[str, tuple[float, str]] = {}
    for name in sorted(present):
        if name.endswith("_s"):
            out[name] = (times.get(name[:-2], 0.0), "s")
        else:
            out[name] = (counts.get(name, 0), "count")
    for name, (num, den) in RATIOS.items():
        if num in present and den in present:
            base = counts.get(den, 0)
            out[name] = (counts.get(num, 0) / base if base else 0.0, "ratio")
    return out
