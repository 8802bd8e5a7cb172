"""Command line driver, run in process through main(argv)."""

import json

import pytest

from tnkit import tns as tns_mod
from tnkit.cli import main


@pytest.fixture
def built(tmp_path):
    out = tmp_path / "net.json"
    code = main(["build", "--kind", "mera1d", "--layers", "2",
                 "--out", str(out)])
    assert code == 0
    return out


def test_build_writes_valid_network(tmp_path, capsys):
    out = tmp_path / "net.json"
    code = main(["build", "--kind", "mera1d", "--layers", "2",
                 "--out", str(out)])
    assert code == 0
    assert "preconditions=ok" in capsys.readouterr().out
    net = tns_mod.tns_from_dict(json.loads(out.read_text()))
    assert net.spec.length == 4


def test_build_rejects_unknown_kind(tmp_path):
    assert main(["build", "--kind", "mera9d", "--layers", "2"]) == 2


def test_build_rejects_bad_layers(tmp_path):
    assert main(["build", "--kind", "mera1d", "--layers", "0"]) == 2
    assert main(["build", "--kind", "ttn1d", "--layers", "2"]) == 2


def test_no_command_is_usage_error():
    assert main([]) == 2


def test_map_outputs_are_deterministic(built, tmp_path):
    prefix_a = str(tmp_path / "a")
    prefix_b = str(tmp_path / "b")
    for prefix in (prefix_a, prefix_b):
        code = main(["map", "--tns", str(built), "--scheme", "shifted",
                     "--out-prefix", prefix])
        assert code == 0
    read = lambda p, s: (tmp_path / (p + s)).read_bytes()
    assert read("a", ".map.json") == read("b", ".map.json")
    assert read("a", ".congestion.csv") == read("b", ".congestion.csv")
    csv = read("a", ".congestion.csv").decode()
    assert csv.splitlines()[0] == "edge_a,edge_b,paths,bond_dim"


def test_map_summary_lines(built, tmp_path, capsys):
    code = main(["map", "--tns", str(built), "--scheme", "refined",
                 "--out-prefix", str(tmp_path / "r")])
    assert code == 0
    out = capsys.readouterr().out
    assert "scheme: refined" in out
    assert "measured within bound: yes" in out


def test_verify_accepts_faithful_map(built, tmp_path, capsys):
    prefix = str(tmp_path / "m")
    main(["map", "--tns", str(built), "--scheme", "shifted",
          "--out-prefix", prefix])
    code = main(["verify", "--tns", str(built), "--map", prefix + ".map.json"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_flags_tampered_map(built, tmp_path, capsys):
    prefix = str(tmp_path / "m")
    main(["map", "--tns", str(built), "--scheme", "shifted",
          "--out-prefix", prefix])
    data = json.loads((tmp_path / "m.map.json").read_text())
    data["sites"][0][1][0] += 1
    (tmp_path / "bad.json").write_text(json.dumps(data))
    code = main(["verify", "--tns", str(built),
                 "--map", str(tmp_path / "bad.json")])
    assert code == 4
    assert "structural error" in capsys.readouterr().out


def test_verify_resource_limit_is_reported(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TNKIT_MAX_AMPLITUDES", "64")
    net = tmp_path / "net.json"
    main(["build", "--kind", "mera1d", "--layers", "3", "--out", str(net)])
    prefix = str(tmp_path / "m")
    main(["map", "--tns", str(net), "--scheme", "shifted",
          "--out-prefix", prefix])
    code = main(["verify", "--tns", str(net), "--map", prefix + ".map.json"])
    assert code == 3
    assert "resource limit" in capsys.readouterr().err


def test_entropy_tree_scan(tmp_path):
    out = tmp_path / "scan.csv"
    code = main(["entropy", "--family", "ttn1d", "--layers-max", "3",
                 "--out", str(out)])
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "T,L,cut_size,S"
    assert rows[1] == "1,2,1,1"
    assert rows[2] == "3,8,3,2"


def test_entropy_qca_half_cut_with_cross_check(tmp_path, capsys):
    out = tmp_path / "qca.csv"
    code = main(["entropy", "--family", "qca", "--dimension", "2",
                 "--lengths", "8", "--layers-max", "1", "--cut", "half",
                 "--cross-check", "--out", str(out)])
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "D,L,T,cut_id,S,predicted"
    assert rows[1].startswith("2,8,1,half,16,")
    assert "agree" in capsys.readouterr().err


def test_entropy_qca_random_cuts(tmp_path):
    out = tmp_path / "qca.csv"
    code = main(["entropy", "--family", "qca", "--dimension", "1",
                 "--lengths", "8,12", "--layers-max", "2", "--cut", "random",
                 "--cuts", "3", "--out", str(out)])
    assert code == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 1 + 2 * 2 * 3


def test_render_svg(built, tmp_path):
    prefix = str(tmp_path / "m")
    main(["map", "--tns", str(built), "--scheme", "shifted",
          "--out-prefix", prefix])
    svg_a = tmp_path / "a.svg"
    svg_b = tmp_path / "b.svg"
    for svg in (svg_a, svg_b):
        code = main(["render", "--map", prefix + ".map.json",
                     "--out", str(svg)])
        assert code == 0
    assert svg_a.read_bytes() == svg_b.read_bytes()
    text = svg_a.read_text()
    assert text.startswith("<svg")
    assert "<polyline" in text and "</svg>" in text


def test_verify_rejects_off_grid_detour(tmp_path, capsys):
    net = tmp_path / "net.json"
    main(["build", "--kind", "mera2d-b2", "--layers", "2", "--seed", "1",
          "--out", str(net)])
    prefix = str(tmp_path / "m")
    main(["map", "--tns", str(net), "--scheme", "refined",
          "--out-prefix", prefix])
    data = json.loads((tmp_path / "m.map.json").read_text())
    # step off the grid at a boundary vertex and straight back: unit
    # steps and the same endpoints, but off the host grid and not shortest
    entry = next(e for e in data["paths"]
                 if len(e[1]) >= 2 and any(0 in v for v in e[1]))
    chain = entry[1]
    i = next(i for i, v in enumerate(chain) if 0 in v)
    out = list(chain[i])
    out[out.index(0)] = -1
    entry[1] = chain[:i + 1] + [out, chain[i]] + chain[i + 1:]
    (tmp_path / "bad.json").write_text(json.dumps(data))
    code = main(["verify", "--tns", str(net),
                 "--map", str(tmp_path / "bad.json")])
    assert code == 4
    assert "leaves the host grid" in capsys.readouterr().out


def test_malformed_inputs_exit_2(built, tmp_path, capsys):
    prefix = str(tmp_path / "m")
    main(["map", "--tns", str(built), "--scheme", "shifted",
          "--out-prefix", prefix])
    data = json.loads((tmp_path / "m.map.json").read_text())
    del data["lattice"]
    (tmp_path / "bad.map.json").write_text(json.dumps(data))
    assert main(["verify", "--tns", str(built),
                 "--map", str(tmp_path / "bad.map.json")]) == 2
    net = json.loads(built.read_text())
    net["lines"][0]["a"][0] = "no-such-node"
    (tmp_path / "bad.tns.json").write_text(json.dumps(net))
    assert main(["map", "--tns", str(tmp_path / "bad.tns.json"),
                 "--scheme", "shifted", "--out-prefix", prefix]) == 2
    assert capsys.readouterr().err.count("malformed") == 2


def test_entropy_random_cuts_leave_prediction_blank(tmp_path):
    out = tmp_path / "qca.csv"
    main(["entropy", "--family", "qca", "--dimension", "1", "--lengths", "8",
          "--layers-max", "1", "--cut", "random", "--cuts", "2",
          "--out", str(out)])
    rows = out.read_text().splitlines()
    assert rows[0] == "D,L,T,cut_id,S,predicted"
    for row in rows[1:]:
        fields = row.split(",")
        assert len(fields) == 6 and fields[-1] == ""


def test_entropy_tree_resource_limit(monkeypatch, capsys):
    # the T=5 tableau takes 512 bytes, over 16 * 16
    monkeypatch.setenv("TNKIT_MAX_AMPLITUDES", "16")
    assert main(["entropy", "--family", "ttn1d", "--layers-max", "5"]) == 3
    assert "resource limit" in capsys.readouterr().err


def test_entropy_tree_resource_limit_keeps_finished_rows(monkeypatch,
                                                         capsys):
    # 16 * 64 bytes hold the T=5 tableau (512 bytes) but not T=7 (4096)
    monkeypatch.setenv("TNKIT_MAX_AMPLITUDES", "64")
    assert main(["entropy", "--family", "ttn1d", "--layers-max", "7"]) == 3
    captured = capsys.readouterr()
    rows = captured.out.splitlines()
    assert rows[0] == "T,L,cut_size,S"
    assert [r.split(",")[0] for r in rows[1:]] == ["1", "3", "5"]
    assert "resource limit" in captured.err


def test_entropy_qca_cross_check_runs_automaton_once_per_depth(monkeypatch,
                                                               tmp_path):
    from tnkit import stabilizer
    calls = []
    run_qca = stabilizer.run_qca

    def counted(dimension, length, layers):
        calls.append((dimension, length, layers))
        return run_qca(dimension, length, layers)

    monkeypatch.setattr(stabilizer, "run_qca", counted)
    code = main(["entropy", "--family", "qca", "--dimension", "1",
                 "--lengths", "8,12", "--layers-max", "2", "--cut", "random",
                 "--cuts", "3", "--cross-check",
                 "--out", str(tmp_path / "qca.csv")])
    assert code == 0
    assert sorted(calls) == [(1, 8, 1), (1, 8, 2), (1, 12, 1), (1, 12, 2)]
