"""Tests of the traced run's wrappers.

    python3 -m pytest perfbench/test_tracing.py
"""

import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import tracing  # noqa: E402
from deskdiar import clustering, pipeline  # noqa: E402


def test_wrappers_record_self_time_and_are_removed():
    original = clustering.nme_select
    tracer = tracing.Tracer()
    tracer.install({"clustering": ["nme_select", "eig_sym"]})
    try:
        # one function, wrapped at every name it is called through
        assert pipeline.nme_select is clustering.nme_select
        assert clustering.nme_select is not original
        x = np.random.default_rng(0).standard_normal((12, 4))
        clustering.nme_select(clustering.cosine_affinity(x))   # no phase
        assert tracer.spans == []
        tracer.phase = "short"
        clustering.nme_select(clustering.cosine_affinity(x))
        tracer.phase = None
    finally:
        tracer.uninstall()
    assert clustering.nme_select is original
    assert pipeline.nme_select is original
    totals = tracer.totals("short")
    assert totals["clustering.eig_sym"][1] == 3   # p = 1 .. ceil(12 / 4)
    scan = next(s for s in tracer.spans if s[2] == "clustering.nme_select")
    children = [s for s in tracer.spans if s[1] == scan[0]]
    assert len(children) == 3
    child_s = sum(s[5] - s[4] for s in children)
    assert abs(scan[6] - (scan[5] - scan[4] - child_s)) < 1e-12


def test_missing_or_changed_functions_are_absent(monkeypatch):
    monkeypatch.setitem(tracing.SIGNATURES["clustering"], "laplacian",
                        ("renamed",))
    tracer = tracing.Tracer()
    tracer.install({"clustering": ["laplacian", "no_such_function"],
                    "no_such_module": ["f"]})
    tracer.uninstall()
    assert sorted(tracer.absent) == ["clustering.laplacian",
                                     "clustering.no_such_function",
                                     "no_such_module.f"]
