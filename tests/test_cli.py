"""Command line driver, run in process through main(argv)."""

import hashlib
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


def _refined_b2_map(tmp_path):
    """Paths of a b2 T=2 refined map: (network file, map document)."""
    net = tmp_path / "net.json"
    main(["build", "--kind", "mera2d-b2", "--layers", "2", "--seed", "1",
          "--out", str(net)])
    main(["map", "--tns", str(net), "--scheme", "refined",
          "--out-prefix", str(tmp_path / "m")])
    return net, json.loads((tmp_path / "m.map.json").read_text())


def _verify(tmp_path, net, data):
    (tmp_path / "edited.json").write_text(json.dumps(data))
    return main(["verify", "--tns", str(net),
                 "--map", str(tmp_path / "edited.json")])


def test_verify_rejects_half_integer_corner(tmp_path, capsys):
    net, data = _refined_b2_map(tmp_path)
    # cut a corner through its half-integer midpoint: both new steps have
    # L1 length 1, but the midpoint is no grid vertex
    entry = next(e for e in data["paths"]
                 if any(a[0] != c[0] and a[1] != c[1]
                        for a, c in zip(e[1], e[1][2:])))
    chain = entry[1]
    k = next(k for k in range(1, len(chain) - 1)
             if chain[k - 1][0] != chain[k + 1][0]
             and chain[k - 1][1] != chain[k + 1][1])
    chain[k] = [(x + y) / 2 for x, y in zip(chain[k - 1], chain[k + 1])]
    capsys.readouterr()
    assert _verify(tmp_path, net, data) == 4
    assert "leaves the host grid" in capsys.readouterr().out


@pytest.mark.parametrize("key,value", [("scheme", "foo"), ("delta_tau", -1),
                                       ("delta_tau", 0), ("delta_tau", "a")])
def test_verify_rejects_scheme_it_cannot_check(tmp_path, capsys, key, value):
    net, data = _refined_b2_map(tmp_path)
    data[key] = value
    capsys.readouterr()
    assert _verify(tmp_path, net, data) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("offsets", [[1, 2], "x", {"w": 5}])
def test_verify_ignores_offsets_field(tmp_path, capsys, offsets):
    net, data = _refined_b2_map(tmp_path)
    data["offsets"] = offsets
    capsys.readouterr()
    assert _verify(tmp_path, net, data) == 0
    assert capsys.readouterr().out.startswith("PASS")


def test_malformed_inputs_exit_2(built, tmp_path, capsys):
    prefix = str(tmp_path / "m")
    main(["map", "--tns", str(built), "--scheme", "shifted",
          "--out-prefix", prefix])
    data = json.loads((tmp_path / "m.map.json").read_text())
    del data["lattice"]
    (tmp_path / "bad.map.json").write_text(json.dumps(data))
    assert main(["verify", "--tns", str(built),
                 "--map", str(tmp_path / "bad.map.json")]) == 2
    broken_nodes = [("kind", "weird"), ("layer", "1"), ("layer", 1.0),
                    ("cell", ["0"]), ("cell", [True])]
    for key, value in [(None, None)] + broken_nodes:
        net = json.loads(built.read_text())
        if key is None:
            net["lines"][0]["a"][0] = "no-such-node"
        else:
            node = next(n for n in net["nodes"] if n["layer"] == 1)
            node[key] = value
        (tmp_path / "bad.tns.json").write_text(json.dumps(net))
        assert main(["map", "--tns", str(tmp_path / "bad.tns.json"),
                     "--scheme", "shifted", "--out-prefix", prefix]) == 2
    err = capsys.readouterr().err
    assert err.count("malformed") == 2 + len(broken_nodes)
    assert "unknown node kind 'weird'" in err


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


@pytest.mark.parametrize("command,role", [("map", "tns"), ("verify", "tns"),
                                          ("verify", "map")])
def test_non_object_document_exits_2(built, tmp_path, capsys, command, role):
    prefix = str(tmp_path / "m")
    main(["map", "--tns", str(built), "--scheme", "shifted",
          "--out-prefix", prefix])
    files = {"tns": str(built), "map": prefix + ".map.json"}
    files[role] = str(tmp_path / "list.json")
    (tmp_path / "list.json").write_text("[1, 2]\n")
    argv = {"map": ["map", "--tns", files["tns"], "--scheme", "shifted",
                    "--out-prefix", prefix],
            "verify": ["verify", "--tns", files["tns"],
                       "--map", files["map"]]}[command]
    capsys.readouterr()
    assert main(argv) == 2
    assert f"malformed {role}-v1 document" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["lattice", "paths", "sites"])
def test_render_rejects_map_missing_key(built, tmp_path, capsys, key):
    prefix = str(tmp_path / "m")
    main(["map", "--tns", str(built), "--scheme", "shifted",
          "--out-prefix", prefix])
    data = json.loads((tmp_path / "m.map.json").read_text())
    del data[key]
    (tmp_path / "bad.map.json").write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["render", "--map", str(tmp_path / "bad.map.json")]) == 2
    assert "malformed map-v1 document" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("paths", [[0, [1, 2]]]),
    ("sites", [["w:1", 5]]),
    ("paths", [[0, [[0], [1, 0]]]]),
    ("sites", [["w:1:0,0", [1, 1]], [5, [0, 0]]]),
], ids=["path-vertex-not-a-list", "site-not-a-list", "short-2d-vertex",
        "non-string-node-id"])
def test_render_rejects_malformed_vertices(tmp_path, capsys, key, value):
    net = str(tmp_path / "b2.json")
    main(["build", "--kind", "mera2d-b2", "--layers", "1", "--no-elements",
          "--out", net])
    main(["map", "--tns", net, "--scheme", "shifted",
          "--out-prefix", str(tmp_path / "m")])
    data = json.loads((tmp_path / "m.map.json").read_text())
    data[key] = value
    (tmp_path / "bad.map.json").write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["render", "--map", str(tmp_path / "bad.map.json")]) == 2
    assert "malformed map-v1 document" in capsys.readouterr().err


def test_verify_rejects_uncovered_slot(built, tmp_path, capsys):
    data = json.loads(built.read_text())
    data["lines"] = data["lines"][:-1]
    net = tmp_path / "cut.json"
    net.write_text(json.dumps(data))
    prefix = str(tmp_path / "m")
    assert main(["map", "--tns", str(net), "--scheme", "shifted",
                 "--out-prefix", prefix]) == 0
    capsys.readouterr()
    code = main(["verify", "--tns", str(net), "--map", prefix + ".map.json"])
    assert code == 4
    # the dropped line joined the top to the apex isometry
    assert capsys.readouterr().out == \
        "structural error: t:2:0 slot 0: covered by 0 lines\n"


# sha256 of the congestion CSV and of the `map` stdout for symbolic builds
# at the default chi and phys_dim.  Both hold only integers and fixed-point
# text, so the digests are the same on every platform.
MAP_OUTPUT_DIGESTS = {
    ("mera1d", 1, "refined"): (
        "463997b79973d29b37694a3051f1fbd3a74251a8b6fffa3972502859fa29d5cb",
        "58690a404b8f2b07d32fe2e8047743ca693ec3e8c8de6e74c88b6ab5246c5a6a"),
    ("mera1d", 2, "refined"): (
        "35361020995503e1ad35204a0eb00eac83a7cca4ba621b5cc62f71d379e2a2b7",
        "51a2ee741a8c6cea0399943d57f09d26543611f9f34d2a7edcac5bad786a00cb"),
    ("mera1d", 3, "refined"): (
        "3a428bf1fc738a73a334e093843406aaf4cea659492a50164273a9a9caf8ddb7",
        "794745d2d8f532b298363c8e6dfa75636ce7065e9122fcff306dc77101c73245"),
    ("mera2d-b2", 1, "refined"): (
        "e892a1a74e34182c48698def3f06c98fa4fc9727f4291c7d82c742cf252ed60b",
        "2deeb1d5493f543689bd1917d1c5a59a86813c4c25969174b1f3c0e15f3e17c4"),
    ("mera2d-b2", 2, "refined"): (
        "74cdcf4f11f760852de7b9ef101e71339ccdaec3057493d5a157f058eaafcfe1",
        "a55816322f79a4913beb7e21dbdb12ce614ef8ffb57d40c0ad7160a6618709e7"),
    ("mera2d-b2", 3, "refined"): (
        "3ff4b1562a0baeb5fabd0cc6f730f5ab3c16615e9ff33c2efa89f45cf0925064",
        "970380b253196c90b36b04423c7fa4f51bf21d7f9716547a29cfa15b366418eb"),
    ("mera2d-b3", 1, "refined"): (
        "99a6ab65aef137b9e33971c41091048ddd08b2ed9237c3c49fc303f0640fc0dd",
        "3fa747b0143e51e737dc6e10aa3c7cb9b46bcafda3660bd12343d984c9c14608"),
    ("mera2d-b3", 2, "refined"): (
        "86366ae27b828520535cb141e5b168c715830ab3932b40f3f927f35760478838",
        "5a5da1c1f5cab45dfa4479397f2bd0159d575b55c4ca334916701922a2bc2e11"),
    ("mera2d-b3", 3, "refined"): (
        "91053e43a238ce1fac4768967f3b2fcae80ebfdadfa5010bd901923b618f82b5",
        "7bc8232ef19b9b2f66b287449d3fcd96d6e4e75d58d30cc87df019d10dec4bad"),
    ("mera2d-b2", 3, "shifted"): (
        "35cf694e8893cbcc4ed8e8b5846e743199f836ebdbbf3663df133b6a32c5e056",
        "8228114de75ee8eefa2a5a6f224f5577c6ddc92af181bd14c0eade22e97a024d"),
}


@pytest.mark.parametrize("kind,layers,scheme", sorted(MAP_OUTPUT_DIGESTS))
def test_map_outputs_pinned(tmp_path, capsys, kind, layers, scheme):
    prefix = str(tmp_path / "m")
    assert main(["build", "--kind", kind, "--layers", str(layers),
                 "--no-elements", "--out", prefix + ".tns.json"]) == 0
    capsys.readouterr()
    assert main(["map", "--tns", prefix + ".tns.json", "--scheme", scheme,
                 "--out-prefix", prefix]) == 0
    stdout = capsys.readouterr().out
    csv_digest, stdout_digest = MAP_OUTPUT_DIGESTS[(kind, layers, scheme)]
    csv = (tmp_path / "m.congestion.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == csv_digest
    assert hashlib.sha256(stdout.encode()).hexdigest() == stdout_digest
