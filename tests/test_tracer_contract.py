"""The names the benchmark tracer (perfbench/spans.py) reaches into.

The tracer wraps tnkit functions and methods by name and its count hooks
read fields of their results, so a rename in tnkit breaks the benchmark
without failing anything else here.  spans.py is only imported, never
installed, so no tnkit attribute is replaced.
"""

import importlib
from pathlib import Path

import pytest

from tnkit.mapping import measured_chi, place_refined, route_lines
from tnkit.tns import build_mera_2d_b2

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    # spans.py imports its sibling checks.py as a top-level module
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def test_every_wrapped_name_resolves(spans):
    assert spans.WRAPS
    for module, attr, *_ in spans.WRAPS:
        owner = importlib.import_module(f"tnkit.{module}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"tnkit.{module}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"tnkit.{module}.{attr}"


def test_count_hooks_read_routing_and_tally(spans):
    net = build_mera_2d_b2(2, with_elements=False)
    paths = route_lines(net, place_refined(net))
    report = measured_chi(net, paths)
    tracer = spans.Tracer()
    tracer._count_routed((net,), paths)
    tracer._count_tallied((net, paths), report)
    assert tracer.totals["mapping.edge_crossings"] == \
        int(report.counts.sum()) == \
        sum(len(chain) - 1 for chain in paths.chains.values())
    assert tracer.totals["mapping.edges_used"] == len(report.edge_lines) > 0
