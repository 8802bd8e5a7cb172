"""One workload in its own process: set up, run the jobs closed-loop
through tnkit.cli.main, then check every output.

Every cycle runs each of the workload's jobs once.  Between jobs, at most
every PROBE_EVERY_S seconds and once after the last job, a fixed loop of
the benchmark's own measures the speed the host gives the process; each
job record carries the mean speed of the probes just before and just
after it.

Protocol on standard output: the line "ready" once the job list is built,
then, unless --setup-only, one JSON line with the job records, the peak
resident memory taken before any check ran, and, with --trace 1, the span
and count totals of the traced cycles.  Untraced and traced cycles
alternate in a traced run, so trace.overhead compares jobs run side by
side.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from tnkit import cli, dense, mapping, qca, stabilizer, tns  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = {"cli": cli, "tns": tns, "mapping": mapping, "dense": dense,
           "stabilizer": stabilizer, "qca": qca}
MIN_JOBS = 11   # a tail percentile needs at least ten jobs beyond it
PROBE_EVERY_S = 0.5
# allocated once, so that probes do not move peak_rss_mib
PROBE_BUFFER = np.ones(1 << 20)


def cycle_count(workload, seconds: float) -> int:
    return max(math.ceil(seconds / workload.cycle_ref_s),
               math.ceil(MIN_JOBS / workload.jobs_per_cycle))


def _loop():
    acc = 0
    for i in range(200_000):
        acc += i * i


def _objects():
    rows = {(i, i * 7 % 1000): [i, float(i), str(i)] for i in range(8000)}
    json.loads(json.dumps(list(rows.values())))


def _stream():
    for _ in range(8):
        np.multiply(PROBE_BUFFER, 1.0, out=PROBE_BUFFER)
        PROBE_BUFFER.sum()


def probe_speed() -> float:
    """Probes per second: the inverse of the geometric mean time of three
    fixed tasks, an integer loop, building and encoding Python objects, and
    streaming an 8 MiB array.  None calls tnkit, so a change to tnkit does
    not move it; it tracks the speed the host gives this process at the
    moment, which on a shared host changes within seconds."""
    times = []
    for task in (_loop, _objects, _stream):
        start = time.perf_counter()
        task()
        times.append(time.perf_counter() - start)
    return 1.0 / statistics.geometric_mean(times)


class Store:
    """Output files by content digest; a duplicate of a file already kept
    is deleted, so each distinct output is kept and checked once."""

    def __init__(self):
        self.path_of: dict[str, Path] = {}

    def keep(self, path: Path) -> str:
        with open(path, "rb") as fh:
            digest = hashlib.file_digest(fh, "sha256").hexdigest()
        if digest in self.path_of:
            path.unlink()
        else:
            self.path_of[digest] = path
        return digest


def run_job(job):
    """Run the steps back to back; stop at the first unexpected exit."""
    codes, stdouts, stderrs, error = [], [], [], None
    start = time.perf_counter()
    for step in job.steps:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(step.argv)
        except Exception as exc:   # a crash fails the job, not the run
            error = repr(exc)
            code = None
        codes.append(code)
        stdouts.append(out.getvalue())
        stderrs.append(err.getvalue())
        if code != step.expect:
            break
    return time.perf_counter() - start, codes, stdouts, stderrs, error


def _load(path: Path):
    text = path.read_text()
    return json.loads(text) if path.suffix == ".json" else text


def check_all(records, store):
    """Fill in each record's problems; identical outputs are checked once."""
    loaded, verdicts = {}, {}
    for rec in records:
        job = rec.pop("job")
        problems = []
        if rec["error"]:
            problems.append(f"uncaught {rec['error']}")
        for step, code in zip(job.steps, rec["codes"]):
            if code is not None:
                problems += checks.check_exit(f"tnkit {step.argv[0]}", code,
                                              step.expect)
        problems += [f"no {role} output" for role in job.outputs
                     if role not in rec["digests"]]
        if not problems and job.check is not None:
            key = (job.label, tuple(sorted(rec["digests"].items())),
                   tuple(rec["stdouts"]), tuple(rec["stderrs"]))
            if key not in verdicts:
                out = {}
                for role, digest in rec["digests"].items():
                    if digest not in loaded:
                        loaded[digest] = _load(store.path_of[digest])
                    out[role] = loaded[digest]
                verdicts[key] = job.check(out, rec["stdouts"],
                                          rec["stderrs"])
            problems = verdicts[key]
        del rec["stdouts"], rec["stderrs"], rec["digests"]
        rec["problems"] = problems
        rec["known_defect"] = job.known_defect if problems else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    args.work.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    cycles = cycle_count(workload, args.seconds) * (2 if args.trace else 1)
    plan = [workload.make_cycle(rng, args.work, c) for c in range(cycles)]
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = spans.Tracer() if args.trace else None
    store = Store()
    records = []
    speeds = [probe_speed()]
    probed_at = time.perf_counter()
    for c, jobs in enumerate(plan):
        traced = tracer is not None and c % 2 == 1
        for job in jobs:
            if job.prepare is not None:
                job.prepare()
            gc.collect()
            if time.perf_counter() - probed_at > PROBE_EVERY_S:
                speeds.append(probe_speed())
                probed_at = time.perf_counter()
            if traced:
                tracer.install(MODULES)
            try:
                seconds, codes, stdouts, stderrs, error = run_job(job)
            finally:
                if traced:
                    tracer.uninstall()
            for role, count in (("tns", "tns.json_bytes"),
                                ("map", "mapping.map_json_bytes")):
                path = job.outputs.get(role)
                if traced and path is not None and path.exists():
                    tracer.add(count, path.stat().st_size)
            records.append({"label": job.label, "cycle": c, "traced": traced,
                            "seconds": seconds, "probe": len(speeds) - 1,
                            "codes": codes, "error": error, "stdouts": stdouts,
                            "stderrs": stderrs, "job": job})
        for rec in records[-len(jobs):]:
            rec["digests"] = {role: store.keep(path)
                              for role, path in rec["job"].outputs.items()
                              if path.exists()}
            for path in rec["job"].inputs:
                path.unlink()
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    speeds.append(probe_speed())
    for rec in records:
        before = rec.pop("probe")
        rec["speed"] = (speeds[before] + speeds[before + 1]) / 2

    check_all(records, store)
    plan_argv = [[step.argv for step in job.steps] for job in plan[0]]
    print(json.dumps({
        "records": records,
        "peak_rss_kib": peak_rss_kib,
        "cycles": cycles,
        "first_cycle_argv": plan_argv,
        "numpy": np.__version__,
        "per_layer": tracer.metrics() if tracer else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
