"""The four benchmark workloads: their jobs, the tampered inputs of the
negative jobs, and the check each job's output must pass.

A job is one command-line pipeline.  Its steps run back to back through
tnkit.cli.main; the seed only picks the order of jobs within a cycle and
the element and cut seeds, so every cycle of a workload does the same
work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks


@dataclass
class Step:
    argv: list[str]
    expect: int = 0


@dataclass
class Job:
    label: str
    steps: list[Step]
    # role -> path of the files the check reads ("tns", "map", "csv")
    outputs: dict[str, Path] = field(default_factory=dict)
    # (outputs read back as text or JSON, stdouts, stderrs) -> problems
    check: Callable[[dict, list[str], list[str]], list[str]] | None = None
    # writes the job's input files just before it runs, outside the timing
    prepare: Callable[[], None] | None = None
    # files prepare writes, deleted once the cycle is over
    inputs: list[Path] = field(default_factory=list)
    # reason a failure of this job is a defect the program is known to have
    known_defect: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # reference seconds (see run.py) one cycle took when the workload was
    # written; converts --seconds into a whole number of cycles, so that
    # every run of a workload does the same jobs whatever the host's speed
    cycle_ref_s: float
    jobs_per_cycle: int
    # spans that must record calls in the traced run
    spans: tuple[str, ...]
    make_cycle: Callable


MAP_DEEP = (("mera2d-b2", 7, "refined"), ("mera2d-b3", 4, "refined"),
            ("mera2d-b2", 6, "shifted"), ("mera1d", 12, "refined"))
VERIFY_SMALL = (("mera1d", 4, "refined"), ("mera1d", 4, "shifted"),
                ("mera2d-b2", 2, "refined"), ("mera2d-b2", 2, "shifted"),
                ("mera2d-b3", 1, "refined"))
# the map the negative verify jobs tamper with
TAMPER_SOURCE = ("mera2d-b2", 2, "refined")
TTN_LAYERS_MAX = 13
QCA_JOBS = (
    dict(dimension=2, lengths=(24, 32), layers_max=4, cut="random", cuts=2),
    dict(dimension=1, lengths=(256, 512), layers_max=8, cut="random", cuts=2),
    dict(dimension=2, lengths=(48,), layers_max=3, cut="half", cuts=1),
)
# the interior log_chi of refined b2, the paper's plateau
B2_REFINED_PLATEAU = "2.000"

DETOUR_DEFECT = ("verify checks only unit steps and endpoints, so a path "
                 "that leaves the host grid and backtracks passes")

_MAP_SPANS = ("cli", "tns.build", "tns.validate", "tns.to_dict",
              "tns.from_dict", "mapping.place", "mapping.route",
              "mapping.tally", "mapping.report", "mapping.csv",
              "mapping.map_to_dict")


def _pipeline_check(kind, scheme, verify):
    plateau = B2_REFINED_PLATEAU \
        if (kind, scheme) == ("mera2d-b2", "refined") else None

    def check(out, stdouts, stderrs):
        if "preconditions=ok" not in stdouts[0]:
            return ["build did not report preconditions=ok"]
        if verify and not stdouts[2].startswith("PASS"):
            return ["verify did not print PASS"]
        # each check reads what the one before it accepted
        return (checks.check_paths(out["tns"], out["map"])
                or checks.check_csv(out["tns"], out["map"], out["csv"])
                or checks.check_map_summary(out["tns"], out["map"],
                                            out["csv"], stdouts[1], plateau))

    return check


def _pipeline(work: Path, tag: str, config, seed: int | None) -> Job:
    kind, layers, scheme = config
    prefix = work / tag
    build = ["build", "--kind", kind, "--layers", str(layers),
             "--out", f"{prefix}.tns.json"]
    build += ["--no-elements"] if seed is None else ["--seed", str(seed)]
    steps = [Step(build),
             Step(["map", "--tns", f"{prefix}.tns.json", "--scheme", scheme,
                   "--out-prefix", str(prefix)])]
    verb = "map"
    if seed is not None:
        verb = "verify"
        steps.append(Step(["verify", "--tns", f"{prefix}.tns.json",
                           "--map", f"{prefix}.map.json"]))
    return Job(f"{verb} {kind} T={layers} {scheme}", steps,
               {"tns": Path(f"{prefix}.tns.json"),
                "map": Path(f"{prefix}.map.json"),
                "csv": Path(f"{prefix}.congestion.csv")},
               _pipeline_check(kind, scheme, seed is not None))


def drop_last_vertex(routed: dict) -> dict:
    """Drop the last vertex of the first path that crosses an edge, so the
    path no longer reaches its far endpoint."""
    for entry in routed["paths"]:
        if len(entry[1]) >= 2:
            entry[1] = entry[1][:-1]
            return routed
    raise ValueError("no path crosses an edge")


def detour_off_grid(routed: dict) -> dict:
    """Insert a step off the host grid and straight back into the first
    path that crosses an edge and touches the grid's low boundary: still
    unit steps, still the same endpoints, but neither on the grid nor
    L1-shortest."""
    for entry in routed["paths"]:
        chain = entry[1]
        if len(chain) < 2:
            continue
        for i, v in enumerate(chain):
            for axis, c in enumerate(v):
                if c == 0:
                    out = list(v)
                    out[axis] = -1
                    entry[1] = chain[:i + 1] + [out, list(v)] + chain[i + 1:]
                    return routed
    raise ValueError("no path touches the grid boundary")


def _tampered(work: Path, tag: str, source: Job, label: str, tamper,
              known_defect=None) -> Job:
    out = work / f"{tag}.map.json"

    def prepare():
        routed = json.loads(source.outputs["map"].read_text())
        out.write_text(json.dumps(tamper(routed)) + "\n")

    step = Step(["verify", "--tns", str(source.outputs["tns"]),
                 "--map", str(out)], expect=4)
    return Job(label, [step], prepare=prepare, inputs=[out],
               known_defect=known_defect)


def map_deep(rng, work: Path, cycle: int) -> list[Job]:
    order = rng.permutation(len(MAP_DEEP))
    return [_pipeline(work, f"c{cycle}j{i}", MAP_DEEP[k], None)
            for i, k in enumerate(order)]


def verify_small(rng, work: Path, cycle: int) -> list[Job]:
    jobs = []
    for i, k in enumerate(rng.permutation(len(VERIFY_SMALL))):
        seed = int(rng.integers(0, 2 ** 31))
        jobs.append(_pipeline(work, f"c{cycle}j{i}", VERIFY_SMALL[k], seed))
    source = next(j for j in jobs if j.label == "verify {} T={} {}".format(
        *TAMPER_SOURCE))
    negatives = [
        _tampered(work, f"c{cycle}drop", source,
                  "verify rejects a path missing its last vertex",
                  drop_last_vertex),
        _tampered(work, f"c{cycle}detour", source,
                  "verify rejects a path detouring off the host grid",
                  detour_off_grid, DETOUR_DEFECT),
    ]
    return jobs + [negatives[k] for k in rng.permutation(2)]


def _ttn_check(out, stdouts, stderrs):
    return checks.check_ttn_rows(stdouts[0], TTN_LAYERS_MAX)


def entropy_tree(rng, work: Path, cycle: int) -> list[Job]:
    argv = ["entropy", "--family", "ttn1d",
            "--layers-max", str(TTN_LAYERS_MAX)]
    return [Job(f"entropy ttn1d T<={TTN_LAYERS_MAX}", [Step(argv)],
                check=_ttn_check)]


def _qca_job(spec, seed) -> Job:
    argv = ["entropy", "--family", "qca",
            "--dimension", str(spec["dimension"]),
            "--lengths", ",".join(map(str, spec["lengths"])),
            "--layers-max", str(spec["layers_max"]), "--cut", spec["cut"],
            "--cross-check"]
    if spec["cut"] == "random":
        argv += ["--cuts", str(spec["cuts"]), "--seed", str(seed)]

    def check(out, stdouts, stderrs):
        problems = checks.check_qca_rows(stdouts[0], **spec)
        if "pair tracker and stabilizer agree" not in stderrs[0]:
            problems.append("cross-check did not report agreement")
        return problems

    return Job(f"entropy qca D={spec['dimension']} L={spec['lengths']} "
               f"T<={spec['layers_max']} {spec['cut']}", [Step(argv)],
               check=check)


def entropy_qca(rng, work: Path, cycle: int) -> list[Job]:
    return [_qca_job(QCA_JOBS[k], int(rng.integers(0, 2 ** 31)))
            for k in rng.permutation(len(QCA_JOBS))]


WORKLOADS = {w.name: w for w in (
    Workload("map-deep",
             "Congestion at depth is the paper's central quantity; symbolic "
             "build and map of b2 T=7, b3 T=4, b2 T=6 and 1D T=12 load "
             "mapping, JSON and tns only.",
             7.4, len(MAP_DEEP), _MAP_SPANS, map_deep),
    Workload("verify-small",
             "Amplitude-exact verify of the largest embeddings within the "
             "2^26 budget plus two tampered maps; dense.contract does most "
             "of the work.",
             0.75, len(VERIFY_SMALL) + 2,
             _MAP_SPANS + ("mapping.map_from_dict", "mapping.assemble",
                           "dense.contract", "dense.states_equal"),
             verify_small),
    Workload("entropy-tree",
             "The tree-entropy claim at seven depths up to T=13; stabilizer "
             "gates and GF(2)-rank entropy each take about half.",
             0.84, 1, ("cli", "stabilizer.gates", "stabilizer.entropy"),
             entropy_tree),
    Workload("entropy-qca",
             "Automaton entropies cross-checked on the stabilizer: many "
             "swaps and small regions, so gates dominate; the only workload "
             "using qca.",
             4.0, len(QCA_JOBS),
             ("cli", "stabilizer.gates", "stabilizer.entropy", "qca.evolve",
              "qca.regions", "qca.entropy_across"),
             entropy_qca),
)}
