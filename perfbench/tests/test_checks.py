"""The output checkers accept what the command line writes and reject
hand-tampered copies.  The files under data/ were written by tnkit:

    tnkit build --kind mera2d-b2 --layers 2 --no-elements --out b2.tns.json
    tnkit map --tns b2.tns.json --scheme refined --out-prefix b2r
    tnkit entropy --family ttn1d --layers-max 7
    tnkit entropy --family qca --dimension 2 --lengths 12,16 \\
        --layers-max 2 --cut half --cross-check
    tnkit entropy --family qca --dimension 1 --lengths 16 --layers-max 2 \\
        --cut random --cuts 2 --seed 3 --cross-check
"""

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import checks  # noqa: E402
import workloads  # noqa: E402

DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture
def tns():
    return json.loads((DATA / "b2.tns.json").read_text())


@pytest.fixture
def routed():
    return json.loads((DATA / "b2r.map.json").read_text())


@pytest.fixture
def csv_text():
    return (DATA / "b2r.congestion.csv").read_text()


@pytest.fixture
def map_stdout():
    return (DATA / "b2r.map.stdout").read_text()


def test_paths_accept_routed_map(tns, routed):
    assert checks.check_paths(tns, routed) == []


def test_paths_reject_off_grid_detour(tns, routed):
    problems = checks.check_paths(tns, workloads.detour_off_grid(routed))
    assert any("leaves the host grid" in p for p in problems)
    assert any("L1 distance" in p for p in problems)


def test_paths_reject_detour_inside_grid(tns, routed):
    entry = next(e for e in routed["paths"] if len(e[1]) >= 2)
    lid, chain = entry
    entry[1] = chain[:2] + chain[:2] + chain[2:]   # step, back, step again
    problems = checks.check_paths(tns, routed)
    assert problems == [f"line {lid}: {len(chain) + 1} steps, L1 distance "
                        f"{len(chain) - 1}"]


def test_paths_reject_dropped_last_vertex(tns, routed):
    problems = checks.check_paths(tns, workloads.drop_last_vertex(routed))
    assert len(problems) == 1 and "does not join" in problems[0]


def test_paths_reject_missing_line(tns, routed):
    del routed["paths"][-1]
    assert checks.check_paths(tns, routed)


def test_csv_accepts_recount(tns, routed, csv_text):
    assert checks.check_csv(tns, routed, csv_text) == []


def test_csv_rejects_dropped_row(tns, routed, csv_text):
    rows = csv_text.splitlines()
    tampered = "\n".join(rows[:3] + rows[4:]) + "\n"
    problems = checks.check_csv(tns, routed, tampered)
    assert problems and "rows" in problems[0]


def test_csv_rejects_wrong_count(tns, routed, csv_text):
    rows = csv_text.splitlines()
    a, b, paths, bond = rows[1].split(",")
    rows[1] = f"{a},{b},{int(paths) + 1},{bond}"
    assert checks.check_csv(tns, routed, "\n".join(rows) + "\n")


def test_csv_rejects_path_change(tns, routed, csv_text):
    # a recount of a tampered map no longer matches the written CSV
    tampered = workloads.detour_off_grid(copy.deepcopy(routed))
    assert checks.check_csv(tns, tampered, csv_text)


def test_summary_accepts_plateau(tns, routed, csv_text, map_stdout):
    assert checks.check_map_summary(tns, routed, csv_text, map_stdout,
                                    "2.000") == []


def test_summary_rejects_wrong_chi_peps(tns, routed, csv_text, map_stdout):
    tampered = map_stdout.replace("chi_peps: 16 ", "chi_peps: 32 ")
    problems = checks.check_map_summary(tns, routed, csv_text, tampered)
    assert problems and "largest CSV bond_dim" in problems[0]


def test_summary_rejects_lost_plateau(tns, routed, csv_text, map_stdout):
    tampered = map_stdout.replace("interior 4 (log_chi 2.000)",
                                  "interior 8 (log_chi 3.000)")
    problems = checks.check_map_summary(tns, routed, csv_text, tampered,
                                        "2.000")
    assert any("plateau" in p for p in problems)
    assert any("recount 4" in p for p in problems)


def test_ttn_rows_accept_and_reject_wrong_entropy():
    text = (DATA / "ttn1d.stdout").read_text()
    assert checks.check_ttn_rows(text, 7) == []
    assert checks.check_ttn_rows(text.replace("5,32,11,3", "5,32,11,4"), 7)
    assert checks.check_ttn_rows(text.replace("5,32,11,3", "5,32,12,3"), 7)
    assert checks.check_ttn_rows(text, 9)


def test_qca_half_rows_accept_and_reject_wrong_entropy():
    text = (DATA / "qca-half.stdout").read_text()
    spec = dict(dimension=2, lengths=(12, 16), layers_max=2, cut="half",
                cuts=1)
    assert checks.check_qca_rows(text, **spec) == []
    problems = checks.check_qca_rows(text.replace("2,16,2,half,96,",
                                                  "2,16,2,half,95,"), **spec)
    assert problems == ["half cut L=16 T=2: S=95, law gives 96"]


def test_qca_rows_ignore_predicted_but_need_every_row():
    text = (DATA / "qca-random.stdout").read_text()
    spec = dict(dimension=1, lengths=(16,), layers_max=2, cut="random",
                cuts=2)
    assert checks.check_qca_rows(text, **spec) == []
    rows = text.splitlines()
    assert checks.check_qca_rows("\n".join(rows[:-1]), **spec)
    rows[1] = rows[1].rsplit(",", 1)[0] + ",123.0"
    assert checks.check_qca_rows("\n".join(rows), **spec) == []


def test_exit_code():
    assert checks.check_exit("tnkit verify", 4, 4) == []
    assert checks.check_exit("tnkit verify", 0, 4) == \
        ["tnkit verify exited 0, expected 4"]
