"""Span arithmetic, wrapping of the tnkit modules, and the harness's
agreement with BENCHMARK.json."""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
from worker import MODULES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

cli, mapping = MODULES["cli"], MODULES["mapping"]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_excludes_child_spans():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def inner():
        clock.now += 2.0

    traced_inner = tracer.wrap(inner, "dense.contract")

    def outer():
        clock.now += 1.0
        traced_inner()
        clock.now += 0.5

    tracer.wrap(outer, "cli")()
    assert tracer.calls["cli"] == 1 and tracer.calls["dense.contract"] == 1
    assert tracer.self_s["cli"] == 1.5
    assert tracer.self_s["dense.contract"] == 2.0


def test_outer_only_span_opens_only_from_another_layer():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def query():
        clock.now += 1.0

    traced_query = tracer.wrap(query, "mapping.report", outer_only=True)

    def writer():
        traced_query()

    tracer.wrap(writer, "mapping.csv")()
    traced_query()
    assert tracer.calls["mapping.report"] == 1
    assert tracer.self_s["mapping.csv"] == 1.0
    assert tracer.self_s["mapping.report"] == 1.0


def test_install_records_a_pipeline_and_uninstall_restores(tmp_path):
    before = {(m, a): getattr(MODULES[m], a) for m, a, *_ in spans.WRAPS
              if "." not in a}
    tracer = spans.Tracer()
    tracer.install(MODULES)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["build", "--kind", "mera1d", "--layers", "2",
                             "--out", str(tmp_path / "n.json")]) == 0
            assert cli.main(["map", "--tns", str(tmp_path / "n.json"),
                             "--scheme", "refined",
                             "--out-prefix", str(tmp_path / "m")]) == 0
            assert cli.main(["verify", "--tns", str(tmp_path / "n.json"),
                             "--map", str(tmp_path / "m.map.json")]) == 0
    finally:
        tracer.uninstall()
    after = {(m, a): getattr(MODULES[m], a) for m, a in before}
    assert after == before
    assert mapping.CongestionReport.chi_peps.__name__ == "chi_peps"
    assert not hasattr(mapping.CongestionReport.chi_peps, "__wrapped__")
    metrics = tracer.metrics()
    assert set(metrics) == set(spans.PER_LAYER_METRICS) - {"trace.overhead"}
    for span in WORKLOADS["verify-small"].spans:
        assert metrics[f"{span}.calls"] > 0, span
    assert metrics["cli.calls"] == 3
    assert 0 < metrics["mapping.wire_share"] < 1
    assert metrics["dense.amplitudes"] == 2 * 2 ** 4


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == [BENCH.name]
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        spans.PER_LAYER_METRICS


def test_tail_percentile_keeps_ten_values_beyond():
    assert run.tail_percentile(range(10)) is None
    assert run.tail_percentile(range(11)) == (0.0, 0)
    pct, value = run.tail_percentile(range(101))
    assert (pct, value) == (90.0, 90)


def test_job_times_scale_to_reference_seconds():
    records = [
        {"label": "a", "seconds": 2.0, "problems": [],
         "speed": 0.5 * run.REF_PROBES_PER_S},
        {"label": "b", "seconds": 4.0, "problems": ["wrong exit"],
         "speed": 2.0 * run.REF_PROBES_PER_S},
        {"label": "b", "seconds": 2.0, "problems": [],
         "speed": 4.0 * run.REF_PROBES_PER_S},
    ]
    rate, p50, tail = run.timings(records, run.ref_seconds)
    assert rate == 2 / (1.0 + 8.0 + 8.0)
    assert abs(p50 - (1.0 * 8.0) ** 0.5) < 1e-12
    assert tail is None


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, f"{BENCH.name}/run.py",
                          "--workload", "entropy-tree", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
