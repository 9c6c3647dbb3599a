"""Graphviz and dump output over the whole corpus, pinned by digest.

`export_sha256.json` holds the sha256 of every output, keyed
`entry/translation/output`; the normal_* outputs are taken after
`normalize_sg`.
"""

import hashlib
import json
from pathlib import Path

import pytest

from lamping.corpus import CORPUS
from lamping.pipeline import prepared_graph
from lamping.proofnets import proofnet_dot
from lamping.sharegraphs import graph_dot, graph_dump, normalize_sg

EXPECTED = json.loads((Path(__file__).parent / "export_sha256.json").read_text())


@pytest.mark.parametrize("translation", ["lt", "dlt"])
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_export_matches_pinned_digest(corpus, name, translation):
    mode, d = corpus[name]
    net, _, g = prepared_graph(d, mode, translation)
    texts = {"proofnet_dot": proofnet_dot(net), "graph_dot": graph_dot(g),
             "graph_dump": graph_dump(g)}
    normalize_sg(g)
    texts["normal_dot"] = graph_dot(g)
    texts["normal_dump"] = graph_dump(g)
    for output, text in texts.items():
        key = f"{name}/{translation}/{output}"
        assert hashlib.sha256(text.encode()).hexdigest() == EXPECTED[key], key
