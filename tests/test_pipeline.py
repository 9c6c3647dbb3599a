import pytest

import lamping.pipeline
from lamping.pipeline import run_pipeline


@pytest.mark.parametrize("strategy,probe_depth,translations", [
    ("sg", 0, 1),
    ("sg", 4, 1),  # the probed graph is the one normalized
    ("pn-mlbl", 0, 1),
    ("pn-mlbl", 4, 2),  # the initial net for the probe, the normal net for readback
])
def test_each_graph_is_translated_once(monkeypatch, corpus, strategy, probe_depth,
                                       translations):
    calls = []
    translate = lamping.pipeline.translate

    def counting(net, lab):
        calls.append(net)
        return translate(net, lab)

    monkeypatch.setattr(lamping.pipeline, "translate", counting)
    mode, d = corpus["running_example"]
    r = run_pipeline(d, mode, "dlt", strategy, probe_depth=probe_depth)
    assert r.verdict
    assert r.table_preserved is (None if probe_depth == 0 else True)
    assert len(calls) == translations
