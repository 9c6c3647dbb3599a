import pytest
from hypothesis import settings

from lamping.corpus import CORPUS, build
from lamping.pipeline import prepared_graph

# property tests draw the same examples on every run, so a failure reproduces
settings.register_profile("seeded", derandomize=True)
settings.load_profile("seeded")


@pytest.fixture(scope="session")
def corpus():
    """name -> (mode, derivation), built once."""
    return {name: build(name) for name in CORPUS}


@pytest.fixture(scope="session")
def corpus_graphs(corpus):
    """name -> (mode, net, labelling, graph) under DLT, built once.

    Tests that mutate a net or graph must deepcopy it first.
    """
    out = {}
    for name, (mode, d) in corpus.items():
        net, lab, g = prepared_graph(d, mode, "dlt")
        out[name] = (mode, net, lab, g)
    return out
