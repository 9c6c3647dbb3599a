"""The weight on fixed inputs, pinned, and the minimal contexts as an antichain.

`weight_golden.json` holds the weight total and the sha256 of `per_node`,
keyed `entry/translation/structure`: every corpus entry, Church n applied
to a boxed identity (n = 16, 32, 48) and towers 1-6, under lt and dlt, on
the proof-net (`net`), its translation (`graph`) and that graph after
`normalize_sg` (`normal`). Print the pins again with
`python tests/test_weight_golden.py`.
"""

import copy
import hashlib
import json
from pathlib import Path

import pytest

from lamping.corpus import A, CORPUS, _church, build
from lamping.derivations import ax, bang, dapp, lam
from lamping.formulas import Bang
from lamping.pipeline import prepared_graph
from lamping.semantics import minimal_contexts, weight
from lamping.sharegraphs import normalize_sg
from test_randomized import Gen, LalGen
from test_tower import tower

GOLDEN = Path(__file__).parent / "weight_golden.json"


def church_identity(n):
    d = dapp(_church(n), bang(lam("x", ax("x", A))), "apI")
    return dapp(d, ax("Z", Bang(A)), "apZ")


def _inputs():
    """entry -> (mode, derivation) for the pinned inputs."""
    out = {name: build(name) for name in sorted(CORPUS)}
    for n in (16, 32, 48):
        out[f"church_identity{n}"] = ("eal", church_identity(n))
    for k in range(1, 7):
        out[f"tower{k}"] = ("eal", tower(k))
    return out


def _structures(mode, d, translation):
    """(structure name, structure, labelling) for the net, its graph and
    the normal graph."""
    net, lab, g = prepared_graph(d, mode, translation)
    normal = copy.deepcopy(g)
    normalize_sg(normal)
    return [("net", net, lab), ("graph", g, lab), ("normal", normal, lab)]


def _pins():
    pins = {}
    for name, (mode, d) in _inputs().items():
        for translation in ("lt", "dlt"):
            for kind, s, lab in _structures(mode, d, translation):
                w = weight(s, lab)
                digest = hashlib.sha256(
                    json.dumps(sorted(w.per_node.items())).encode()).hexdigest()
                pins[f"{name}/{translation}/{kind}"] = {
                    "total": str(w.total), "per_node": digest}
    return pins


def test_weight_matches_pins():
    got = _pins()
    want = json.loads(GOLDEN.read_text())
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


def reference_minimal_filter(ctxs):
    """The pairwise filter minimal_contexts once ran its leaves through."""
    def leq(a, b):
        return all(len(x) <= len(y) and y[:len(x)] == x for x, y in zip(a, b))

    out = []
    for c in ctxs:
        if any(leq(d, c) and d != c for d in ctxs):
            continue
        if c not in out:
            out.append(c)
    return sorted(out)


def _draws():
    for seed in range(40):
        yield f"gen{seed}", "eal", Gen(seed).grow()
    for seed in range(30):
        yield f"lalgen{seed}", "lal", LalGen(seed).grow()


@pytest.mark.parametrize("source", ["pinned", "draws"])
def test_leaves_are_a_sorted_antichain(source):
    """The filter has nothing to remove from what the explorer returns."""
    inputs = ((name, mode, d) for name, (mode, d) in _inputs().items()) \
        if source == "pinned" else _draws()
    calls = 0
    for name, mode, d in inputs:
        for translation in ("lt", "dlt"):
            for kind, s, lab in _structures(mode, d, translation):
                for nid in sorted(s.nodes):
                    if s.machine_role(nid)[0] == "id":
                        continue
                    for ctxs in minimal_contexts(s, lab, nid):
                        assert reference_minimal_filter(ctxs) == ctxs, \
                            (name, translation, kind, nid)
                        calls += 1
    assert calls > 0


if __name__ == "__main__":
    print(json.dumps(_pins(), indent=1, sort_keys=True))
