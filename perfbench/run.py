"""Benchmark of the tnkit command line: four closed-loop workloads, one
client, each workload in its own worker process.

    python3 perfbench/run.py --workload map-deep --seed 1 --seconds 16 \\
        --trace 0

Run from the root of a checkout; the worker imports tnkit from its src/.
With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1, with the per-layer metrics of a run
whose cycles alternate untraced and traced.  The lines before it give the
context and every metric by name with its unit.  Job outputs are written
under .perfbench_work/ in the checkout and removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import PER_LAYER_METRICS, SPANS
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK_DIR = ".perfbench_work"
# set-up-only workers launched before and after the measured one, so the
# median set-up time takes samples from the whole run
SETUP_RUNS_EACH_SIDE = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# A reference second is the time the host takes for this many of the
# worker's speed probes.  Job times in reference seconds do not move with
# the speed a shared host gives the run; wall seconds are printed as well.
REF_PROBES_PER_S = 80.0
END_TO_END = {"setup_s": "s", "jobs_per_ref_s": "1/ref_s",
              "job_p50_ref_s": "ref_s", "job_p_hi_ref_s": "ref_s",
              "peak_rss_mib": "MiB"}


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, work: Path, setup_only: bool):
    """Run one worker to its end.  Returns the seconds from launch to its
    ready line, and its result (None for a set-up-only worker)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          env=worker_env(), cwd=ROOT) as proc:
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            out = proc.stdout.read()
            proc.wait()
        finally:
            if proc.poll() is None:
                proc.kill()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode} after {line!r}")
    return ready, None if setup_only else json.loads(out.splitlines()[-1])


def tail_percentile(values):
    """The highest percentile with at least ten values beyond it, as
    (percentile, value); None below eleven values."""
    ordered = sorted(values)
    rank = len(ordered) - 11
    if rank < 0:
        return None
    return 100.0 * rank / (len(ordered) - 1), ordered[rank]


def kind_p50(times_by_kind):
    """The geometric mean over job kinds of each kind's median time: the
    median job of a workload whose kinds differ in length, in which every
    kind counts alike."""
    return statistics.geometric_mean(
        [statistics.median(times) for times in times_by_kind.values()])


def timings(records, key):
    """(jobs passed per unit time, p50, (percentile, p_hi)) of the jobs'
    times as key gives them."""
    by_kind = {}
    for rec in records:
        by_kind.setdefault(rec["label"], []).append(key(rec))
    times = [t for kind in by_kind.values() for t in kind]
    passed = sum(not r["problems"] for r in records)
    return passed / sum(times), kind_p50(by_kind), tail_percentile(times)


def ref_seconds(rec):
    return rec["seconds"] * rec["speed"] / REF_PROBES_PER_S


def end_to_end(records, setup, peak_rss_kib):
    rate, p50, (pct, p_hi) = timings(records, ref_seconds)
    metrics = {
        "setup_s": statistics.median(setup),
        "jobs_per_ref_s": rate,
        "job_p50_ref_s": p50,
        "job_p_hi_ref_s": p_hi,
        "peak_rss_mib": peak_rss_kib / 1024.0,
    }
    return metrics, pct


def per_layer(result, workload):
    metrics = dict(result["per_layer"])
    records = result["records"]
    _, traced, _ = timings([r for r in records if r["traced"]], ref_seconds)
    _, untraced, _ = timings([r for r in records if not r["traced"]],
                             ref_seconds)
    metrics["trace.overhead"] = traced / untraced - 1.0
    missing = [span for span in workload.spans
               if metrics[f"{span}.calls"] == 0]
    return metrics, missing


def print_context(args, workload, result, setup):
    print(f"workload: {workload.name} seed {args.seed} trace {args.trace}")
    print(f"why: {workload.why}")
    print(f"python {platform.python_version()} numpy {result['numpy']} "
          f"nproc {os.cpu_count()} affinity "
          f"{len(os.sched_getaffinity(0))} machine {platform.machine()}")
    print("threads: " + " ".join(f"{v}=1" for v in THREAD_VARS)
          + " PYTHONHASHSEED=0 (worker environment)")
    print(f"closed loop, 1 client: {result['cycles']} cycles of "
          f"{workload.jobs_per_cycle} jobs, {len(result['records'])} jobs")
    for steps in result["first_cycle_argv"]:
        print("  job: " + " && ".join("tnkit " + " ".join(s) for s in steps))
    print("setup samples (s): " + " ".join(f"{s:.4f}" for s in setup))


def print_outcomes(records):
    failures = {}
    for rec in records:
        if rec["problems"]:
            key = (rec["label"], rec["problems"][0], rec["known_defect"])
            failures[key] = failures.get(key, 0) + 1
    for (label, problem, known), n in failures.items():
        print(f"{'known defect' if known else 'FAILED'}: {label}: {problem} "
              f"({n} jobs)")
        if known:
            print(f"  {known}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tnkit" / "__init__.py").is_file():
        print(f"no tnkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    # relative to the checkout, where the workers run
    work = Path(WORK_DIR, f"{args.workload}-{os.getpid()}")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # a traced run reports no set-up time
    side = 0 if args.trace else SETUP_RUNS_EACH_SIDE
    try:
        setup = [run_worker(args, work / f"setup{i}", True)[0]
                 for i in range(side)]
        ready, result = run_worker(args, work / "run", False)
        setup += [ready] + [run_worker(args, work / f"setup{side + i}",
                                       True)[0] for i in range(side)]
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ROOT / work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / WORK_DIR).rmdir()

    records = result["records"]
    print_context(args, workload, result, setup)
    print_outcomes(records)
    failed = [r for r in records if r["problems"]]
    unexpected = [r for r in failed if not r["known_defect"]]
    print(f"fail_ratio {len(failed) / len(records):.6f} ratio "
          f"({len(failed)} of {len(records)} jobs; "
          f"{len(unexpected)} not a known defect)")

    if args.trace:
        metrics, missing = per_layer(result, workload)
        if missing:
            print("span coverage: no calls recorded for "
                  + ", ".join(missing), file=sys.stderr)
            return 1
        units = PER_LAYER_METRICS
        traced_s = sum(r["seconds"] for r in records if r["traced"])
        for span in sorted(SPANS, key=lambda s: -metrics[f"{s}.self_s"]):
            share = metrics[f"{span}.self_s"] / traced_s
            print(f"  {span:<22} {share:7.1%} of traced job time, "
                  f"{metrics[span + '.calls']} calls")
    else:
        metrics, pct = end_to_end(records, setup, result["peak_rss_kib"])
        units = END_TO_END
        rate, p50, (_, p_hi) = timings(records, lambda r: r["seconds"])
        speeds = [r["speed"] for r in records]
        print(f"wall time, not bounded: jobs_per_s {rate:.6g} 1/s, "
              f"job_p50_s {p50:.6g} s, job_p_hi_s {p_hi:.6g} s")
        print(f"host speed: {min(speeds):.4g} to {max(speeds):.4g} "
              f"probes/s, {REF_PROBES_PER_S:.4g} per reference second")
        print(f"job_p_hi is p{pct:.1f} of {len(records)} jobs")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
