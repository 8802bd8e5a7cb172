"""Every span a benchmark workload requires records calls.

perfbench/run.py --trace 1 fails a workload whose traced run leaves one of
its required spans without calls, which happens when a refactor stops
calling a name the tracer wraps.  This test runs a tiny version of each
workload's commands under the same tracer, so tier-1 notices first.
"""

import importlib
from pathlib import Path

import pytest

from tnkit import cli, dense, mapping, qca, stabilizer, tns

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = {"cli": cli, "tns": tns, "mapping": mapping, "dense": dense,
           "stabilizer": stabilizer, "qca": qca}


def _pipeline(work, build_opts, verify):
    net, prefix = str(work / "b2.tns.json"), str(work / "b2")
    steps = [["build", "--kind", "mera2d-b2", "--layers", "2", "--out", net]
             + build_opts,
             ["map", "--tns", net, "--scheme", "refined",
              "--out-prefix", prefix]]
    if verify:
        steps.append(["verify", "--tns", net, "--map", prefix + ".map.json"])
    return steps


TINY = {
    "map-deep": lambda work: _pipeline(work, ["--no-elements"], False),
    "verify-small": lambda work: _pipeline(work, ["--seed", "3"], True),
    "entropy-tree": lambda work: [
        ["entropy", "--family", "ttn1d", "--layers-max", "3",
         "--out", str(work / "ttn.csv")]],
    "entropy-qca": lambda work: [
        ["entropy", "--family", "qca", "--dimension", "1", "--lengths", "8",
         "--layers-max", "2", "--cut", "random", "--cuts", "2", "--seed", "5",
         "--cross-check", "--out", str(work / "qca.csv")]],
}


@pytest.fixture
def perfbench(monkeypatch):
    # spans.py and workloads.py import their sibling checks.py as a
    # top-level module
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return (importlib.import_module("spans"),
            importlib.import_module("workloads"))


def test_every_workload_has_a_tiny_version(perfbench):
    _, workloads = perfbench
    assert set(TINY) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_required_spans_record_calls(perfbench, tmp_path, name):
    spans, workloads = perfbench
    tracer = spans.Tracer()
    tracer.install(MODULES)
    try:
        codes = [cli.main(argv) for argv in TINY[name](tmp_path)]
    finally:
        tracer.uninstall()
    assert codes == [0] * len(codes)
    silent = [span for span in workloads.WORKLOADS[name].spans
              if tracer.calls[span] == 0]
    assert not silent, f"{name}: no calls recorded for {silent}"
