"""Command line driver, run in process through main(argv)."""

import gc
import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from tnkit import cli, dense, mapping, tns as tns_mod
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


@pytest.mark.parametrize("flag", ["--chi", "--phys-dim"])
def test_build_rejects_dims_past_int64(tmp_path, capsys, flag):
    # 2**70 caps no line dimension of mera1d T=7 below 2**63
    assert main(["build", "--kind", "mera1d", "--layers", "7", flag,
                 str(2 ** 70), "--no-elements",
                 "--out", str(tmp_path / "net.json")]) == 2
    assert "does not fit in 64 bits" in capsys.readouterr().err


def test_build_rejects_a_phys_dim_of_two_to_the_63(tmp_path, capsys):
    # the least dimension past int64 reaches the builder's own check of
    # its line dimensions, which names the fault and writes no file
    out = tmp_path / "net.json"
    assert main(["build", "--kind", "mera1d", "--layers", "1",
                 "--phys-dim", str(2 ** 63), "--no-elements",
                 "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: a layer, cell, dim, slot or "
                                   "line id does not fit in 64 bits\n")
    assert not out.exists()


def test_build_rejects_bad_layers(tmp_path):
    assert main(["build", "--kind", "mera1d", "--layers", "0"]) == 2
    assert main(["build", "--kind", "ttn1d", "--layers", "2"]) == 2


def test_build_ttn1d_honours_no_elements(tmp_path, capsys):
    out = tmp_path / "net.json"
    assert main(["build", "--kind", "ttn1d", "--layers", "3",
                 "--no-elements", "--out", str(out)]) == 0
    assert "preconditions=ok" in capsys.readouterr().out
    expected = tns_mod.tns_to_dict(tns_mod.build_ttn_example(3))
    for node in expected["nodes"]:
        node["elements"] = None
    assert json.loads(out.read_text()) == expected


@pytest.mark.parametrize("flag,value", [("--chi", "7"), ("--phys-dim", "3")])
def test_build_ttn1d_refuses_dims_it_cannot_build(tmp_path, capsys, flag,
                                                  value):
    out = tmp_path / "net.json"
    assert main(["build", "--kind", "ttn1d", "--layers", "3", flag, value,
                 "--no-elements", "--seed", "3", "--out", str(out)]) == 2
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err.startswith("error: --kind ttn1d has lines of dimension "
                              "2: --chi and --phys-dim must be 2")
    assert not out.exists()


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


def test_verify_traces_a_self_loop_line(tmp_path, capsys):
    # a line from u:1:1 slot 0 to its slot 2 passes the preconditions;
    # the contraction traces u over the pair, which once popped a factor
    # twice and crashed
    net, prefix = tmp_path / "net.json", str(tmp_path / "m")
    assert main(["build", "--kind", "mera1d", "--layers", "2",
                 "--out", str(net)]) == 0
    doc = json.loads(net.read_text())
    doc["lines"][0].update(a=["u:1:1", 0], b=["u:1:1", 2])
    doc["lines"][3].update(a=["p:1", 0], b=["w:1:0", 1])
    net.write_text(json.dumps(doc))
    assert main(["map", "--tns", str(net), "--scheme", "refined",
                 "--out-prefix", prefix]) == 0
    capsys.readouterr()
    assert main(["verify", "--tns", str(net),
                 "--map", prefix + ".map.json"]) == 0
    assert capsys.readouterr().out.startswith("PASS")
    network = cli._read_tns(net)
    u, w10, w11, w20, t = (network.nodes[nid].elements for nid in (
        "u:1:1", "w:1:0", "w:1:1", "w:2:0", "t:2:0"))
    # sites 0..3 are a, b, c, d
    expected = np.einsum("icik,abm,kdn,mno,o->abcd", u, w10, w11, w20, t)
    np.testing.assert_allclose(
        dense.contract_to_statevector(network).amplitudes,
        expected.reshape(-1), rtol=1e-12, atol=1e-14)


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


def test_verify_rejects_shifted_map_with_edited_delta_tau(built, tmp_path,
                                                         capsys):
    # the shifted scheme fixes delta_tau 0; the reader refuses any other
    prefix = str(tmp_path / "m")
    main(["map", "--tns", str(built), "--scheme", "shifted",
          "--out-prefix", prefix])
    data = json.loads((tmp_path / "m.map.json").read_text())
    data["delta_tau"] = 5
    (tmp_path / "bad.json").write_text(json.dumps(data))
    capsys.readouterr()
    code = main(["verify", "--tns", str(built),
                 "--map", str(tmp_path / "bad.json")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: malformed map-v1 document: TypeError delta_tau or offsets "
        "differ from the ones the shifted scheme writes\n")


def test_verify_reports_differing_state(built, tmp_path, monkeypatch,
                                        capsys):
    # an assembly with Pauli X in place of one identity wire embeds a
    # different state than the network's
    prefix = str(tmp_path / "m")
    main(["map", "--tns", str(built), "--scheme", "refined",
          "--out-prefix", prefix])
    assemble = mapping.assemble_peps

    def flipped(*args):
        peps = assemble(*args)
        k = next(k for k, (a, _) in enumerate(peps.factors)
                 if a.shape == (2, 2) and (a == np.eye(2)).all())
        peps.factors[k] = (np.array([[0.0, 1.0], [1.0, 0.0]]),
                           peps.factors[k][1])
        return peps

    monkeypatch.setattr(mapping, "assemble_peps", flipped)
    capsys.readouterr()
    assert main(["verify", "--tns", str(built),
                 "--map", prefix + ".map.json"]) == 4
    assert capsys.readouterr().out == \
        "FAIL embedded state differs from the network state\n"


def test_verify_resource_limit_is_reported(tmp_path, monkeypatch, capsys):
    net = tmp_path / "net.json"
    main(["build", "--kind", "mera1d", "--layers", "3", "--out", str(net)])
    prefix = str(tmp_path / "m")
    main(["map", "--tns", str(net), "--scheme", "shifted",
          "--out-prefix", prefix])
    monkeypatch.setenv("TNKIT_MAX_AMPLITUDES", "64")
    code = main(["verify", "--tns", str(net), "--map", prefix + ".map.json"])
    assert code == 3
    assert "resource limit" in capsys.readouterr().err


def test_verify_names_a_state_past_int_text_as_a_power(tmp_path, capsys):
    # 2^16384 amplitudes: the size has 4,933 digits, past what str() of an
    # int prints, so the budget names it as a power and exits 3
    net, prefix = tmp_path / "b2.json", str(tmp_path / "b2")
    assert main(["build", "--kind", "mera2d-b2", "--layers", "7",
                 "--no-elements", "--out", str(net)]) == 0
    assert main(["map", "--tns", str(net), "--scheme", "refined",
                 "--out-prefix", prefix]) == 0
    capsys.readouterr()
    assert main(["verify", "--tns", str(net),
                 "--map", prefix + ".map.json"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("resource limit: state of 2^16384 amplitudes "
                          "exceeds budget ")


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


def test_entropy_tree_refuses_cross_check(tmp_path, monkeypatch, capsys):
    def no_rows(layers):
        raise AssertionError("a row computed before the flags were checked")

    monkeypatch.setattr(cli.stabilizer, "run_ttn_example", no_rows)
    out = tmp_path / "scan.csv"
    assert main(["entropy", "--family", "ttn1d", "--layers-max", "3",
                 "--cross-check", "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", "error: --cross-check applies to --family qca\n")
    assert not out.exists()


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


# sha256 of the `render` SVG of symbolic builds' maps.  Every coordinate
# is an integer, so the digests are the same on every platform; the SVG
# names the generator version, which a version change moves.
RENDER_DIGESTS = {
    ("mera1d", 3, "refined"):
        "afb7a58f867ca77a27a0fe6ed1d3d07f2a2fa4581116e27ee4d626aa655f53e0",
    ("mera2d-b2", 2, "shifted"):
        "beda1f52753e86372b26149d9454122f939a7d2c554d5bf2a61e42c9248af8c8",
}


@pytest.mark.parametrize("kind,layers,scheme", sorted(RENDER_DIGESTS))
def test_render_svg_pinned(tmp_path, kind, layers, scheme):
    prefix = str(tmp_path / "m")
    assert main(["build", "--kind", kind, "--layers", str(layers),
                 "--no-elements", "--out", prefix + ".tns.json"]) == 0
    assert main(["map", "--tns", prefix + ".tns.json", "--scheme", scheme,
                 "--out-prefix", prefix]) == 0
    assert main(["render", "--map", prefix + ".map.json",
                 "--out", prefix + ".svg"]) == 0
    svg = (tmp_path / "m.svg").read_bytes()
    assert hashlib.sha256(svg).hexdigest() == RENDER_DIGESTS[
        (kind, layers, scheme)]


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
    # L1 length 1, but the midpoint is no grid vertex, and no JSON
    # integer, so the map is malformed
    entry = next(e for e in data["paths"]
                 if any(a[0] != c[0] and a[1] != c[1]
                        for a, c in zip(e[1], e[1][2:])))
    chain = entry[1]
    k = next(k for k in range(1, len(chain) - 1)
             if chain[k - 1][0] != chain[k + 1][0]
             and chain[k - 1][1] != chain[k + 1][1])
    chain[k] = [(x + y) / 2 for x, y in zip(chain[k - 1], chain[k + 1])]
    capsys.readouterr()
    assert _verify(tmp_path, net, data) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "site or path vertex coordinate is not an integer" in captured.err


def _coordinate_one(data, where, value):
    """Set to value the first site or path vertex coordinate that is 1,
    which 1.0 and true equal."""
    vertices = ([site for _, site in data["sites"]] if where == "site"
                else [v for _, chain in data["paths"] for v in chain])
    vertex = next(v for v in vertices if v[0] == 1)
    vertex[0] = value


@pytest.mark.parametrize("edit,message", [
    *((lambda data, w=where, v=value: _coordinate_one(data, w, v),
       "site or path vertex coordinate is not an integer")
      for where in ("site", "path") for value in (1.0, True, "1", 2.5)),
    (lambda data: data["sites"].append(["ghost", data["sites"][0][1]]),
     "site for unknown node 'ghost'"),
    (lambda data: data["sites"].append(data["sites"][-1]),
     "repeated site id "),
], ids=[f"{where}-{value}" for where in ("site", "path")
        for value in ("1.0", "true", "str", "2.5")] + ["ghost", "repeated"])
def test_verify_refuses_malformed_sites_and_vertices(tmp_path, capsys, edit,
                                                     message):
    # 1.0, true and a repeated site once passed verify on their values
    net, data = _refined_b2_map(tmp_path)
    edit(data)
    capsys.readouterr()
    assert _verify(tmp_path, net, data) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed map-v1 document: ")
    assert message in captured.err


@pytest.mark.parametrize("key,value", [("scheme", "foo"), ("delta_tau", -1),
                                       ("delta_tau", 0), ("delta_tau", "a")])
def test_verify_rejects_scheme_it_cannot_check(tmp_path, capsys, key, value):
    net, data = _refined_b2_map(tmp_path)
    data[key] = value
    capsys.readouterr()
    assert _verify(tmp_path, net, data) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


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
    # the T=1 tableau holds 112 bytes, and its rotation charges 368,
    # over 16 * 16
    monkeypatch.setenv("TNKIT_MAX_AMPLITUDES", "16")
    assert main(["entropy", "--family", "ttn1d", "--layers-max", "5"]) == 3
    assert capsys.readouterr().err == "resource limit: stabilizer tableau " \
        "of 2 qubits needs 368 bytes, over the budget of 256\n"


def test_entropy_tree_seventeen_layers_at_the_default_budget(capsys):
    # 2**17 qubits: the largest charge, the entropy's, is 15,745,504
    # bytes (the rotations of the whole schedule as one batch charged
    # 39,878,400); the dense tableau would take 2**32
    assert main(["entropy", "--family", "ttn1d", "--layers-max", "17"]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == \
        ["15,32768,10923,8", "17,131072,43691,9"]


def test_entropy_tree_resource_limit_keeps_finished_rows(monkeypatch,
                                                         capsys):
    # 16 * 1024 bytes hold every charge of T=5 (9488 bytes at most) but
    # not T=7, whose rotations charge 38688 bytes
    monkeypatch.setenv("TNKIT_MAX_AMPLITUDES", "1024")
    assert main(["entropy", "--family", "ttn1d", "--layers-max", "7"]) == 3
    captured = capsys.readouterr()
    rows = captured.out.splitlines()
    assert rows[0] == "T,L,cut_size,S"
    assert [r.split(",")[0] for r in rows[1:]] == ["1", "3", "5"]
    assert "resource limit" in captured.err


def test_entropy_tree_tile_refused_before_it_reads(monkeypatch, capsys):
    # 16 * 3000 bytes hold every charge of T<=7 (38688 bytes at most) but
    # not the T=9 tile of four T=7 tableaux, 60384 bytes; the tile is
    # charged before it reads a word of the T=7 tableau or allocates its
    # own arrays
    import tracemalloc
    from tnkit import stabilizer
    monkeypatch.setenv("TNKIT_MAX_AMPLITUDES", "3000")
    depth, reads, grown = [], [], []
    run, read, charge = (stabilizer.run_ttn_example, stabilizer._read,
                         stabilizer._charge)

    def traced_run(layers, shallower=None):
        depth.append(layers)
        tracemalloc.reset_peak()
        grown.append(tracemalloc.get_traced_memory()[0])
        return run(layers, shallower)

    def traced_charge(num_qubits, need):
        try:
            charge(num_qubits, need)
        except dense.ResourceLimitError:
            grown[-1] = tracemalloc.get_traced_memory()[1] - grown[-1]
            raise

    monkeypatch.setattr(stabilizer, "run_ttn_example", traced_run)
    monkeypatch.setattr(stabilizer, "_read", lambda t, rows:
                        reads.append(depth[-1]) or read(t, rows))
    monkeypatch.setattr(stabilizer, "_charge", traced_charge)
    tracemalloc.start()
    try:
        code = main(["entropy", "--family", "ttn1d", "--layers-max", "11"])
    finally:
        tracemalloc.stop()
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == "7,128,43,4"
    assert captured.err == "resource limit: stabilizer tableau of 512 " \
        "qubits needs 60384 bytes, over the budget of 48000\n"
    assert depth == [1, 3, 5, 7, 9] and 9 not in reads
    # the three top gates and their ends, some hundred bytes; the tile's
    # rows and pool alone would take 33 KB
    assert grown[-1] < 4096


@pytest.mark.parametrize("cut", ["half", "random"])
def test_entropy_qca_site_budget(monkeypatch, capsys, cut):
    # 16 amplitudes leave no site for the 64 x 64 grid; without
    # --cross-check no tableau is asked for, and the tracker stops first
    monkeypatch.setenv("TNKIT_MAX_AMPLITUDES", "16")
    argv = ["entropy", "--family", "qca", "--dimension", "2", "--lengths",
            "64", "--layers-max", "1", "--cut", cut]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "resource limit: automaton grid of 64^2 sites " \
        "exceeds the site budget 0\n"


def test_entropy_qca_checks_every_length_first(monkeypatch, capsys):
    # 1024 amplitudes leave 16 sites: the 64-site grid is refused before
    # the L=8 row is computed
    from tnkit import qca
    calls = []
    monkeypatch.setattr(qca, "initial_pairs", lambda *a: calls.append(a))
    monkeypatch.setenv("TNKIT_MAX_AMPLITUDES", "1024")
    assert main(["entropy", "--family", "qca", "--dimension", "1",
                 "--lengths", "8,64", "--layers-max", "1",
                 "--cut", "half"]) == 3
    assert calls == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "resource limit: automaton grid of 64^1 sites " \
        "exceeds the site budget 16\n"


def test_entropy_qca_bounds_its_rows(monkeypatch, capsys):
    # 4096 amplitudes leave 64 sites, so 64 rows: 65 random cuts of one
    # layer are refused before the first row is computed
    monkeypatch.setenv("TNKIT_MAX_AMPLITUDES", "4096")
    argv = ["entropy", "--family", "qca", "--dimension", "1", "--lengths",
            "4", "--layers-max", "1", "--cut", "random", "--cuts"]
    assert main(argv + ["65"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "resource limit: 65 entropy rows exceed the " \
        "site budget 64\n"
    assert main(argv + ["64"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 65


def test_entropy_qca_draws_each_region_at_its_row(monkeypatch, tmp_path):
    # a layer's regions are drawn one at a time: while one is drawn, at
    # most the previous row's region is still alive
    import weakref
    from tnkit import qca
    drawn, alive = [], []
    draw = qca.random_connected_region

    def tracked(*args):
        alive.append(sum(ref() is not None for ref in drawn))
        region = draw(*args)
        drawn.append(weakref.ref(region))
        return region

    monkeypatch.setattr(qca, "random_connected_region", tracked)
    assert main(["entropy", "--family", "qca", "--dimension", "2",
                 "--lengths", "8", "--layers-max", "2", "--cut", "random",
                 "--cuts", "5", "--out", str(tmp_path / "qca.csv")]) == 0
    assert len(alive) == 10
    assert max(alive) <= 1


def _small_tableau_budget(monkeypatch):
    """A tableau budget of 2**14 amplitudes under the default site budget:
    the automaton's tableau takes 48 bytes a site, so at the default
    budget every grid that fits the site budget fits the tableau."""
    from tnkit import stabilizer
    monkeypatch.setattr(stabilizer, "amplitude_limit", lambda: 2 ** 14)


def test_entropy_qca_keeps_rows_past_the_tableau(monkeypatch, capsys):
    # 16384 sites fit the site budget but their tableau does not fit the
    # small tableau budget: the L=8 row is printed, then the scan exits 3
    _small_tableau_budget(monkeypatch)
    assert main(["entropy", "--family", "qca", "--dimension", "1",
                 "--lengths", "8,16384", "--layers-max", "1",
                 "--cut", "half", "--cross-check"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "D,L,T,cut_id,S,predicted\n1,8,1,half,2,2.000000\n"
    assert captured.err == "resource limit: stabilizer tableau of 16384 " \
        "qubits needs 790528 bytes, over the budget of 262144\n"


def test_entropy_qca_failed_cross_check_outranks_the_limit(monkeypatch,
                                                          capsys):
    from tnkit import qca
    entropy_across = qca.entropy_across
    monkeypatch.setattr(qca, "entropy_across",
                        lambda ps, region: entropy_across(ps, region) + 1)
    _small_tableau_budget(monkeypatch)
    assert main(["entropy", "--family", "qca", "--dimension", "1",
                 "--lengths", "8,16384", "--layers-max", "1",
                 "--cut", "half", "--cross-check"]) == 4
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1] == "1,8,1,half,3,3.000000"
    assert captured.err.splitlines()[0].startswith(
        "cross-check FAILED at L=8 T=1 half")
    assert captured.err.splitlines()[1].startswith("resource limit: ")


def test_entropy_qca_cross_check_runs_automaton_once_per_length(monkeypatch,
                                                                tmp_path):
    # each length's tableau is set up once and advanced layer by layer
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
    assert calls == [(1, 8, 0), (1, 12, 0)]


def test_entropy_qca_cross_check_reports_disagreement(monkeypatch, capsys):
    from tnkit import qca
    entropy_across = qca.entropy_across
    monkeypatch.setattr(qca, "entropy_across",
                        lambda ps, region: entropy_across(ps, region) + 1)
    assert main(["entropy", "--family", "qca", "--dimension", "1",
                 "--lengths", "8", "--layers-max", "1",
                 "--cross-check"]) == 4
    err = capsys.readouterr().err
    assert "cross-check FAILED at L=8 T=1 half" in err
    assert "agree" not in err


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


@pytest.mark.parametrize("key", ["lattice", "paths", "sites", "scheme",
                                 "delta_tau"])
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
    ("paths", [[0, [[0, 0]]], ["1", [[1, 1]]]]),
    ("paths", [[0, [[0, 0], [1.5, 0]]]]),
    ("paths", [[0, [[0, 0], [True, 0]]]]),
    ("paths", [[0, [[0, 0], [2 ** 70, 0]]]]),
    ("sites", [["w:1:0,0", [1, 1, 0]]]),
], ids=["path-vertex-not-a-list", "site-not-a-list", "short-2d-vertex",
        "non-string-node-id", "string-path-id", "fractional-coordinate",
        "bool-coordinate", "coordinate-past-int64", "3d-site-in-2d"])
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


def test_render_refuses_3d_map(tmp_path, capsys):
    # a well-formed 3-D map: the b2 T=1 map with a third coordinate 0
    net = str(tmp_path / "b2.json")
    main(["build", "--kind", "mera2d-b2", "--layers", "1", "--no-elements",
          "--out", net])
    main(["map", "--tns", net, "--scheme", "shifted",
          "--out-prefix", str(tmp_path / "m")])
    data = json.loads((tmp_path / "m.map.json").read_text())
    data["lattice"]["dimension"] = 3
    data["sites"] = [[nid, site + [0]] for nid, site in data["sites"]]
    data["paths"] = [[lid, [v + [0] for v in chain]]
                     for lid, chain in data["paths"]]
    (tmp_path / "3d.map.json").write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["render", "--map", str(tmp_path / "3d.map.json"),
                 "--out", str(tmp_path / "3d.svg")]) == 2
    assert capsys.readouterr().err == \
        "error: rendering supports 1 and 2 dimensions\n"
    assert not (tmp_path / "3d.svg").exists()


def _b2_shifted_map(tmp_path):
    """A b2 T=1 shifted map of four nodes: (network file, map document)."""
    net = str(tmp_path / "b2.json")
    main(["build", "--kind", "mera2d-b2", "--layers", "1", "--no-elements",
          "--out", net])
    main(["map", "--tns", net, "--scheme", "shifted",
          "--out-prefix", str(tmp_path / "m")])
    return net, json.loads((tmp_path / "m.map.json").read_text())


def _first_node_id(data):
    data["sites"][0][0] = 5


@pytest.mark.parametrize("edit", [
    lambda data: data.update(version="map-v0"),
    lambda data: data["paths"].append(data["paths"][0]),
    lambda data: data["sites"].append(data["sites"][0]),
    lambda data: data.update(delta_tau=1.0), _first_node_id,
], ids=["version", "repeated-path-id", "repeated-site-id",
        "float-delta-tau", "integer-node-id"])
def test_render_and_verify_share_the_map_reader(tmp_path, capsys, edit):
    # a problem of the document itself is found by the one reader both
    # commands call, with one message
    net, data = _b2_shifted_map(tmp_path)
    edit(data)
    bad = tmp_path / "bad.map.json"
    bad.write_text(json.dumps(data))
    errs = []
    for argv in (["verify", "--tns", net, "--map", str(bad)],
                 ["render", "--map", str(bad),
                  "--out", str(tmp_path / "out.svg")]):
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errs.append(captured.err)
    assert errs[0] == errs[1]
    assert errs[0].startswith(("error: malformed map-v1 document: ",
                               "error: unsupported map format "))
    assert not (tmp_path / "out.svg").exists()


def test_verify_reads_map_in_network_dimension(tmp_path, capsys):
    # a host lattice of another dimension than the network is a
    # structural error of verify; render reads the map in its own
    # dimension and finds its vertices malformed
    net, data = _b2_shifted_map(tmp_path)
    data["lattice"]["dimension"] = 1
    (tmp_path / "bad.map.json").write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", "--tns", net,
                 "--map", str(tmp_path / "bad.map.json")]) == 4
    assert capsys.readouterr().out.startswith("structural error: ")
    assert main(["render", "--map", str(tmp_path / "bad.map.json")]) == 2
    assert "site or path vertex is not 1-dimensional" in \
        capsys.readouterr().err


def _isometry_tree_3d(layers, seed=None):
    """tns-v1 document of a 3D tree of isometries with b=2 and chi=2: an
    anchor per site of the (2**layers)^3 grid, an isometry per 2x2x2 block
    of each layer, and a top; random isometries when seed is given, else
    no elements."""
    rng = None if seed is None else np.random.default_rng(seed)
    nodes, lines = [], []

    def add(nid, layer, cell, kind, variant, dims, matrix=None):
        """Append a node; its elements a random (rows, cols) matrix of
        orthonormal columns when matrix gives the shape."""
        elements = None
        if rng is not None and matrix:
            a = rng.standard_normal((2, *matrix))
            q = np.linalg.qr(a[0] + 1j * a[1])[0]
            elements = np.ascontiguousarray(q).view(float).ravel().tolist()
        nodes.append({"id": nid, "layer": layer, "cell": list(cell),
                      "kind": kind, "variant": variant, "dims": list(dims),
                      "elements": elements})
        return nid

    def grid(n):
        return itertools.product(range(n), repeat=3)

    length = 2 ** layers
    # the node and slot exposing each site of the layer below
    below = {c: (add("p:" + ",".join(map(str, c)), 0, c, "physical-anchor",
                     "p", (2,)), 0) for c in grid(length)}
    for tau in range(1, layers + 1):
        above = {}
        for c in grid(length >> tau):
            nid = add(f"w:{tau}:" + ",".join(map(str, c)), tau, c,
                      "isometry", "w", (2,) * 9, (256, 2))
            for k, o in enumerate(grid(2)):
                fine = below[tuple(2 * x + y for x, y in zip(c, o))]
                lines.append({"id": len(lines), "a": list(fine),
                              "b": [nid, k], "dim": 2})
            above[c] = (nid, 8)
        below = above
    top = add(f"t:{layers}:0,0,0", layers, (0, 0, 0), "top", "t", (2,),
              (2, 1))
    lines.append({"id": len(lines), "a": list(below[0, 0, 0]),
                  "b": [top, 0], "dim": 2})
    return {"version": "tns-v1", "generator_version": "test",
            "lattice": {"dimension": 3, "length": length, "branching": 2,
                        "layers": layers, "boundary": "open"},
            "physical_dim": 2, "chi": 2,
            "meta": {"chi": 2, "branching": 2, "max_tensor_order": 9,
                     "max_tensors_per_cell": 2, "max_cell_distance": 1,
                     "max_layer_distance": 1},
            "nodes": nodes, "lines": lines}


@pytest.mark.parametrize("layers,seed", [(2, None), (1, 5)])
def test_3d_isometry_tree_maps_and_verifies(tmp_path, capsys, layers, seed):
    # in 3D no input of an apex isometry approaches along the first axis;
    # the T=2 tree has an apex, the T=1 tree is small enough to verify
    doc = _isometry_tree_3d(layers, seed)
    net, routed = tmp_path / "iso3d.tns.json", tmp_path / "iso3d.map.json"
    net.write_text(json.dumps(doc))
    assert main(["map", "--tns", str(net), "--scheme", "refined",
                 "--out-prefix", str(tmp_path / "iso3d")]) == 0
    network = tns_mod.tns_from_dict(doc)
    placement, paths = mapping.map_from_dict(json.loads(routed.read_text()),
                                             network)
    assert mapping.check_routing(network, placement, paths) is None
    if seed is not None:
        capsys.readouterr()
        assert main(["verify", "--tns", str(net), "--map", str(routed)]) == 0
        assert capsys.readouterr().out.startswith("PASS")


def test_render_site_budget(tmp_path, capsys, monkeypatch):
    # one marker per lattice site: a 4096 x 4096 grid is refused before
    # any drawing, and no file is written
    _, data = _b2_shifted_map(tmp_path)
    data["lattice"]["length"] = 4096
    (tmp_path / "big.map.json").write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["render", "--map", str(tmp_path / "big.map.json"),
                 "--out", str(tmp_path / "big.svg")]) == 3
    assert capsys.readouterr().err == "resource limit: render grid of " \
        "4096^2 sites exceeds the site budget 1048576\n"
    assert not (tmp_path / "big.svg").exists()
    # a grid of exactly the budget renders: 16 sites at 16 * 64 amplitudes
    monkeypatch.setenv("TNKIT_MAX_AMPLITUDES", str(16 * 64))
    data["lattice"]["length"] = 4
    (tmp_path / "m.map.json").write_text(json.dumps(data))
    assert main(["render", "--map", str(tmp_path / "m.map.json"),
                 "--out", str(tmp_path / "m.svg")]) == 0
    monkeypatch.setenv("TNKIT_MAX_AMPLITUDES", str(16 * 64 - 1))
    assert main(["render", "--map", str(tmp_path / "m.map.json"),
                 "--out", str(tmp_path / "m15.svg")]) == 3
    assert not (tmp_path / "m15.svg").exists()


@pytest.mark.parametrize("argv,err", [
    ("--kind mera2d-b2 --layers 20 --no-elements",
     "network grid of 2^40 sites exceeds the site budget 1048576"),
    ("--kind ttn1d --layers 21",
     "network grid of 2^21 sites exceeds the site budget 1048576"),
    ("--kind mera1d --layers 1 --phys-dim 65536",
     "elements of 8589934592 amplitudes exceed the budget 67108864"),
], ids=["b2-grid", "ttn-grid", "mera1d-elements"])
def test_build_budget_exits_3_before_allocating(tmp_path, capsys, argv, err):
    out = tmp_path / "big.json"
    assert main(["build", *argv.split(), "--out", str(out)]) == 3
    assert capsys.readouterr() == ("", f"resource limit: {err}\n")
    assert not out.exists()


def test_build_budget_boundaries(tmp_path, capsys, monkeypatch):
    # mera1d T=3 has 8 sites: a budget of 8 * 64 amplitudes holds them
    argv = ["build", "--kind", "mera1d", "--layers", "3", "--no-elements",
            "--out"]
    monkeypatch.setenv("TNKIT_MAX_AMPLITUDES", str(8 * 64))
    assert main(argv + [str(tmp_path / "fits.json")]) == 0
    monkeypatch.setenv("TNKIT_MAX_AMPLITUDES", str(8 * 64 - 1))
    capsys.readouterr()
    assert main(argv + [str(tmp_path / "over.json")]) == 3
    assert capsys.readouterr().err == "resource limit: network grid of 2^3 " \
        "sites exceeds the site budget 7\n"
    assert not (tmp_path / "over.json").exists()
    # mera1d T=1 at phys dim 16 draws a 16 x 16 x 2 isometry and a top of
    # 2: 514 amplitudes, the elements the file holds
    argv = ["build", "--kind", "mera1d", "--layers", "1", "--phys-dim", "16",
            "--out"]
    monkeypatch.setenv("TNKIT_MAX_AMPLITUDES", "514")
    assert main(argv + [str(tmp_path / "fits.json")]) == 0
    doc = json.loads((tmp_path / "fits.json").read_text())
    assert sum(len(n["elements"] or ()) for n in doc["nodes"]) == 2 * 514
    monkeypatch.setenv("TNKIT_MAX_AMPLITUDES", "513")
    capsys.readouterr()
    assert main(argv + [str(tmp_path / "over.json")]) == 3
    assert capsys.readouterr().err == "resource limit: elements of 514 " \
        "amplitudes exceed the budget 513\n"
    assert not (tmp_path / "over.json").exists()


def test_map_route_budget_exits_3(built, tmp_path, capsys):
    # a top 2^37 cells from its isometry: the shifted routes would hold
    # 2^39 + 17 vertices, 4 TiB
    doc = json.loads(built.read_text())
    doc["lattice"].update(length=2 ** 40, layers=40)
    doc["meta"]["max_cell_distance"] = 2 ** 41
    top, = (n for n in doc["nodes"] if n["kind"] == "top")
    top["cell"] = [2 ** 37]
    far = tmp_path / "far.json"
    far.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["map", "--tns", str(far), "--scheme", "shifted",
                 "--out-prefix", str(tmp_path / "far")]) == 3
    assert capsys.readouterr() == ("", "resource limit: routed paths of "
                                   "549755813905 vertices exceed the budget "
                                   "67108864\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["far.json",
                                                          "net.json"]


def test_verify_rejects_uncovered_slot(built, tmp_path, capsys):
    data = json.loads(built.read_text())
    data["lines"] = data["lines"][:-1]
    net = tmp_path / "cut.json"
    net.write_text(json.dumps(data))
    prefix = str(tmp_path / "m")
    # map refuses the cut network, so verify gets the intact one's map
    assert main(["map", "--tns", str(built), "--scheme", "shifted",
                 "--out-prefix", prefix]) == 0
    capsys.readouterr()
    code = main(["verify", "--tns", str(net), "--map", prefix + ".map.json"])
    assert code == 4
    # the dropped line joined the top to the apex isometry
    assert capsys.readouterr().out == \
        "structural error: t:2:0 slot 0: covered by 0 lines\n"


@pytest.mark.parametrize("edit,issues", [
    (lambda data: data.__setitem__("lines", data["lines"][:-1]),
     ["t:2:0 slot 0: covered by 0 lines",
      "w:2:0 slot 2: covered by 0 lines"]),
    (lambda data: data["meta"].__setitem__("branching", -1),
     ["meta branching -1 is not the lattice branching 2"]),
], ids=["uncovered-slot", "wrong-branching"])
def test_map_rejects_network_that_fails_preconditions(built, tmp_path, capsys,
                                                      edit, issues):
    data = json.loads(built.read_text())
    edit(data)
    net = tmp_path / "bad.json"
    net.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["map", "--tns", str(net), "--scheme", "refined",
                 "--out-prefix", str(tmp_path / "m")]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "".join(f"  {issue}\n" for issue in issues)
    assert not (tmp_path / "m.map.json").exists()
    assert not (tmp_path / "m.congestion.csv").exists()


@pytest.mark.parametrize("nid,edit", [("p:0", {"layer": 2}),
                                      ("t:2:0", {"kind": "physical-anchor"})],
                         ids=["anchor-raised", "top-made-anchor"])
def test_anchor_off_layer_0_fails_preconditions(built, tmp_path, capsys, nid,
                                                edit):
    # the embedding hangs a physical leg's open index on the line's source,
    # which an anchor above its partner is not
    prefix = str(tmp_path / "m")
    assert main(["map", "--tns", str(built), "--scheme", "refined",
                 "--out-prefix", prefix]) == 0
    data = json.loads(built.read_text())
    next(nd for nd in data["nodes"] if nd["id"] == nid).update(edit)
    net = tmp_path / "bad.json"
    net.write_text(json.dumps(data))
    issue = f"{nid}: anchor at layer 2, not 0"
    capsys.readouterr()
    assert main(["map", "--tns", str(net), "--scheme", "refined",
                 "--out-prefix", str(tmp_path / "bad")]) == 4
    assert capsys.readouterr() == ("", f"  {issue}\n")
    assert not (tmp_path / "bad.map.json").exists()
    assert not (tmp_path / "bad.congestion.csv").exists()
    assert main(["verify", "--tns", str(net),
                 "--map", prefix + ".map.json"]) == 4
    assert capsys.readouterr() == (f"structural error: {issue}\n", "")


@pytest.mark.parametrize("kind,layers,scheme", [
    ("mera1d", 3, "refined"), ("mera2d-b2", 2, "refined"),
    ("mera2d-b3", 1, "shifted")])
def test_line_order_changes_no_output(tmp_path, capsys, kind, layers,
                                      scheme):
    # every pass finds a line by its id, never by its place in the list
    net = tmp_path / "net.json"
    assert main(["build", "--kind", kind, "--layers", str(layers),
                 "--seed", "4", "--out", str(net)]) == 0
    data = json.loads(net.read_text())
    data["lines"].reverse()
    reversed_net = tmp_path / "reversed.json"
    reversed_net.write_text(json.dumps(data))
    outputs = []
    for path in (net, reversed_net):
        prefix = str(tmp_path / path.stem)
        capsys.readouterr()
        assert main(["map", "--tns", str(path), "--scheme", scheme,
                     "--out-prefix", prefix]) == 0
        stdout = capsys.readouterr().out
        assert main(["verify", "--tns", str(path),
                     "--map", prefix + ".map.json"]) == 0
        outputs.append((Path(prefix + ".map.json").read_bytes(),
                        Path(prefix + ".congestion.csv").read_bytes(),
                        stdout, capsys.readouterr().out))
    assert outputs[0][3].startswith("PASS ")
    assert outputs[1] == outputs[0]


@pytest.mark.parametrize("edit,problem", [
    (lambda lines: lines.append({"id": len(lines), "a": ["t:2:0", 5],
                                 "b": ["w:2:0", 9], "dim": 2}),
     "line 9: t:2:0 has no slot 5 of dimension 2"),
    (lambda lines: lines[-1].__setitem__("dim", 1),
     "line 8: t:2:0 has no slot 0 of dimension 1"),
], ids=["missing-slots", "dimension-mismatch"])
def test_verify_rejects_bad_line_ends(built, tmp_path, capsys, edit, problem):
    prefix = str(tmp_path / "m")
    main(["map", "--tns", str(built), "--scheme", "shifted",
          "--out-prefix", prefix])
    data = json.loads(built.read_text())
    edit(data["lines"])
    net = tmp_path / "bad.json"
    net.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", "--tns", str(net),
                 "--map", prefix + ".map.json"]) == 4
    assert capsys.readouterr().out == f"structural error: {problem}\n"


@pytest.mark.parametrize("key,problem", [
    ("physical_dim", "p:0: dims (2,) are not (physical_dim,) = (-1,)"),
    ("chi", "chi -1 outside [1, 2]"),
    ("branching", "meta branching -1 is not the lattice branching 2"),
])
def test_verify_rejects_header_that_disagrees_with_network(built, tmp_path,
                                                           capsys, key,
                                                           problem):
    prefix = str(tmp_path / "m")
    main(["map", "--tns", str(built), "--scheme", "refined",
          "--out-prefix", prefix])
    data = json.loads(built.read_text())
    (data["meta"] if key == "branching" else data)[key] = -1
    net = tmp_path / "bad.json"
    net.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", "--tns", str(net),
                 "--map", prefix + ".map.json"]) == 4
    assert capsys.readouterr().out == f"structural error: {problem}\n"


def _every_dim(tmp_path, value, chi=None):
    """Symbolic mera1d T=2 with physical_dim, every node dims entry and
    every line dim set to value, and chi and meta.chi to chi unless it
    is None; the path of its tns-v1 file and of the intact network's
    shifted map."""
    intact, prefix = tmp_path / "net.json", str(tmp_path / "m")
    assert main(["build", "--kind", "mera1d", "--layers", "2",
                 "--no-elements", "--out", str(intact)]) == 0
    assert main(["map", "--tns", str(intact), "--scheme", "shifted",
                 "--out-prefix", prefix]) == 0
    data = json.loads(intact.read_text())
    data["physical_dim"] = value
    for node in data["nodes"]:
        node["dims"] = [value] * len(node["dims"])
    for line in data["lines"]:
        line["dim"] = value
    if chi is not None:
        data["chi"] = data["meta"]["chi"] = chi
    net = tmp_path / "dims.json"
    net.write_text(json.dumps(data))
    return net, prefix + ".map.json"


@pytest.mark.parametrize("value", [-2, 0])
def test_line_dimension_below_1_fails_preconditions(tmp_path, capsys, value):
    # an even number of -2 factors makes a positive chi_peps, and 0 has no
    # logarithm: validation has to catch both
    net, map_path = _every_dim(tmp_path, value)
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["map", "--tns", str(net), "--scheme", "shifted",
                 "--out-prefix", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "".join(
        f"  line {i}: dimension {value} is below 1\n" for i in range(9))
    assert not list(tmp_path.glob("out.*"))
    assert main(["verify", "--tns", str(net), "--map", map_path]) == 4
    assert capsys.readouterr().out == \
        f"structural error: line 0: dimension {value} is below 1\n"


def test_map_refuses_chi_1_before_writing(tmp_path, capsys):
    # every dim 1 passes the preconditions, but no log-chi figure has
    # base 1; map has to find that out before it writes
    net, _ = _every_dim(tmp_path, 1, chi=1)
    capsys.readouterr()
    assert main(["map", "--tns", str(net), "--scheme", "shifted",
                 "--out-prefix", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == \
        "error: chi must be >= 2 for a log-chi figure\n"
    assert not (tmp_path / "out.map.json").exists()
    assert not (tmp_path / "out.congestion.csv").exists()


def test_verify_rejects_bool_path_id(built, tmp_path, capsys):
    # True hashes equal to 1, so it could stand in for line 1
    prefix = str(tmp_path / "m")
    main(["map", "--tns", str(built), "--scheme", "refined",
          "--out-prefix", prefix])
    data = json.loads((tmp_path / "m.map.json").read_text())
    assert data["paths"][1][0] == 1
    data["paths"][1][0] = True
    (tmp_path / "bad.json").write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", "--tns", str(built),
                 "--map", str(tmp_path / "bad.json")]) == 2
    assert "malformed map-v1 document" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["map", "verify"])
def test_repeated_line_id_exits_2(built, tmp_path, capsys, command):
    prefix = str(tmp_path / "m")
    main(["map", "--tns", str(built), "--scheme", "refined",
          "--out-prefix", prefix])
    data = json.loads(built.read_text())
    data["lines"][1]["id"] = data["lines"][0]["id"]
    net = tmp_path / "twice.json"
    net.write_text(json.dumps(data))
    argv = {"map": ["map", "--tns", str(net), "--scheme", "refined",
                    "--out-prefix", str(tmp_path / "x")],
            "verify": ["verify", "--tns", str(net),
                       "--map", prefix + ".map.json"]}[command]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: malformed tns-v1 document: repeated line id\n"


def test_verify_rejects_repeated_path_line_id(built, tmp_path, capsys):
    # a second entry for line 1 would replace the first in a dict
    prefix = str(tmp_path / "m")
    main(["map", "--tns", str(built), "--scheme", "refined",
          "--out-prefix", prefix])
    data = json.loads((tmp_path / "m.map.json").read_text())
    lid, chain = data["paths"][1]
    data["paths"].append([lid, chain[::-1]])
    assert data["paths"][-1] != data["paths"][1]
    (tmp_path / "bad.json").write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", "--tns", str(built),
                 "--map", str(tmp_path / "bad.json")]) == 2
    assert capsys.readouterr().err == \
        "error: malformed map-v1 document: repeated path line id\n"


@pytest.mark.parametrize("command", ["map", "verify"])
def test_line_id_past_int64_exits_2(built, tmp_path, capsys, command):
    prefix = str(tmp_path / "m")
    main(["map", "--tns", str(built), "--scheme", "refined",
          "--out-prefix", prefix])
    data = json.loads(built.read_text())
    data["lines"][0]["id"] = 2 ** 70
    net = tmp_path / "big.json"
    net.write_text(json.dumps(data))
    argv = {"map": ["map", "--tns", str(net), "--scheme", "refined",
                    "--out-prefix", str(tmp_path / "x")],
            "verify": ["verify", "--tns", str(net),
                       "--map", prefix + ".map.json"]}[command]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "does not fit in 64 bits" in captured.err


def _past_int64_host(built, tmp_path, layers=62):
    """A tns-v1 file of the built network under the lattice header of
    2**layers sites per axis, layers deep: from 62 layers on, the refined
    host, twice as long, is past int64."""
    doc = json.loads(built.read_text())
    doc["lattice"].update(length=2 ** layers, layers=layers)
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    return path


_PAST_INT64 = ("error: a refined host of 4611686018427387904 * 2 sites per "
               "axis is past int64\n")


@pytest.mark.parametrize("k", [61, 64])
def test_map_refuses_host_past_int64(built, tmp_path, capsys, k):
    # a header of 2**(k + 1) sites per axis refines to 4 * 2**k, past
    # int64; the check runs before the host is made, so nothing is
    # allocated.  A header itself past int64 (k = 64) is refused as it is
    # read, by every scheme
    long = _past_int64_host(built, tmp_path, k + 1)
    message = (f"a refined host of {2 ** (k + 1)} * 2 sites per axis"
               if k + 1 < 63 else f"lattice length {2 ** (k + 1)}")
    capsys.readouterr()
    assert main(["map", "--tns", str(long), "--scheme", "refined",
                 "--out-prefix", str(tmp_path / "m")]) == 2
    assert capsys.readouterr() == ("", f"error: {message} is past int64\n")
    assert not (tmp_path / "m.map.json").exists()
    # the other schemes keep the header's lattice
    assert main(["map", "--tns", str(long), "--scheme", "shifted",
                 "--out-prefix", str(tmp_path / "m")]) == (
        0 if k + 1 < 63 else 2)


@pytest.mark.parametrize("length", [2 ** 63, 2 ** 65])
def test_readers_refuse_a_lattice_length_past_int64(built, tmp_path, capsys,
                                                     length):
    # sites and path vertices are int64, so no tns-v1 or map-v1 lattice
    # may be longer; every command exits 2 and writes nothing
    prefix = str(tmp_path / "m")
    main(["map", "--tns", str(built), "--scheme", "shifted",
          "--out-prefix", prefix])
    long_net = _past_int64_host(built, tmp_path, length.bit_length() - 1)
    doc = json.loads((tmp_path / "m.map.json").read_text())
    doc["lattice"]["length"] = length
    long_map = tmp_path / "long.map.json"
    long_map.write_text(json.dumps(doc))
    out = tmp_path / "out"
    runs = [["map", "--tns", str(long_net), "--scheme", scheme,
             "--out-prefix", str(out)] for scheme in mapping.SCHEMES]
    runs += [["verify", "--tns", str(long_net), "--map", prefix + ".map.json"],
             ["verify", "--tns", str(built), "--map", str(long_map)],
             ["render", "--map", str(long_map), "--out", str(out) + ".svg"]]
    for argv in runs:
        capsys.readouterr()
        assert main(argv) == 2, argv
        assert capsys.readouterr() == (
            "", f"error: lattice length {length} is past int64\n")
    assert not list(tmp_path.glob("out*"))


def test_map_has_no_delta_tau_option(built, tmp_path, capsys):
    assert main(["map", "--tns", str(built), "--scheme", "refined",
                 "--delta-tau", "1", "--out-prefix", str(tmp_path / "m")]) == 2
    assert "unrecognized arguments: --delta-tau 1" in capsys.readouterr().err
    assert not (tmp_path / "m.map.json").exists()


def test_verify_refuses_map_with_host_past_int64(built, tmp_path, capsys):
    prefix = str(tmp_path / "m")
    main(["map", "--tns", str(built), "--scheme", "refined",
          "--out-prefix", prefix])
    long = _past_int64_host(built, tmp_path)
    capsys.readouterr()
    assert main(["verify", "--tns", str(long),
                 "--map", prefix + ".map.json"]) == 2
    assert capsys.readouterr() == ("", _PAST_INT64)


def test_pipeline_reads_the_tables_not_the_views(tmp_path, monkeypatch,
                                                  capsys):
    def refuse(self):
        raise AssertionError("a record, site or chain view was read")

    for owner, name in ((tns_mod.Tns, "nodes"), (tns_mod.Tns, "lines"),
                        (mapping.Placement, "site_of"),
                        (mapping.Placement, "anchor_ids"),
                        (mapping.PathAssignment, "chains")):
        monkeypatch.setattr(owner, name, property(refuse))
    net, prefix = str(tmp_path / "net.json"), str(tmp_path / "m")
    assert main(["build", "--kind", "mera2d-b2", "--layers", "2",
                 "--seed", "1", "--out", net]) == 0
    assert main(["map", "--tns", net, "--scheme", "refined",
                 "--out-prefix", prefix]) == 0
    assert main(["verify", "--tns", net, "--map", prefix + ".map.json"]) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.fixture
def collector_off():
    """The collector off for the test and back in its prior state after."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("argv,code,env", [
    ("build --kind mera1d --layers 2 --out {d}/net.json", 0, None),
    ("map --tns {d}/net.json --scheme refined --out-prefix {d}/m", 0, None),
    ("verify --tns {d}/net.json --map {d}/m.map.json", 0, None),
    ("verify --tns {d}/net.json --map {d}/moved.map.json", 4, None),
    ("entropy --family ttn1d --layers-max 5 --out {d}/tree.csv", 0, None),
    ("entropy --family qca --dimension 1 --lengths 8,12 --layers-max 2 "
     "--cut random --cuts 2 --cross-check --out {d}/qca.csv", 0, None),
    ("render --map {d}/m.map.json --out {d}/m.svg", 0, None),
    ("map --tns {d}/bad.json --scheme refined --out-prefix {d}/x", 2, None),
    ("entropy --family ttn1d --layers-max 5", 3, "16"),
], ids=["build", "map", "verify-pass", "verify-4", "entropy-ttn1d",
        "entropy-qca-cross-check", "render", "exit-2", "exit-3"])
def test_commands_leave_no_cyclic_garbage(tmp_path, monkeypatch,
                                          collector_off, argv, code, env):
    # main pauses the collector on the grounds that no command creates
    # reference cycles; with it off here too, a cycle stays for collect()
    net, mapped = tmp_path / "net.json", tmp_path / "m.map.json"
    assert main(["build", "--kind", "mera1d", "--layers", "2",
                 "--out", str(net)]) == 0
    assert main(["map", "--tns", str(net), "--scheme", "refined",
                 "--out-prefix", str(tmp_path / "m")]) == 0
    data = json.loads(mapped.read_text())
    data["sites"][0][1][0] += 1
    (tmp_path / "moved.map.json").write_text(json.dumps(data))
    data = json.loads(net.read_text())
    data["lines"][0]["dim"] = "2"
    (tmp_path / "bad.json").write_text(json.dumps(data))
    if env is not None:
        monkeypatch.setenv("TNKIT_MAX_AMPLITUDES", env)
    argv = argv.format(d=tmp_path).split()
    # the first call pays once-per-process work (the cached parser,
    # numpy's lazy submodule imports), which leaves cycles of its own
    assert main(argv) == code
    gc.collect()
    assert main(argv) == code
    assert gc.collect() == 0


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("outcome", ["exit-0", "exit-2", "uncaught"])
def test_main_restores_collector_state(tmp_path, monkeypatch, collector_off,
                                       enabled, outcome):
    seen = []

    def failing_builder(args):
        seen.append(gc.isenabled())
        raise RuntimeError("builder failed")

    monkeypatch.setitem(cli._BUILDERS, "mera1d", failing_builder)
    (gc.enable if enabled else gc.disable)()
    if outcome == "exit-0":
        assert main(["entropy", "--family", "ttn1d", "--layers-max", "1",
                     "--out", str(tmp_path / "t.csv")]) == 0
    elif outcome == "exit-2":
        assert main(["build", "--kind", "ttn1d", "--layers", "2"]) == 2
    else:
        with pytest.raises(RuntimeError, match="builder failed"):
            main(["build", "--kind", "mera1d", "--layers", "2"])
        # the command itself ran with the collector off
        assert seen == [False]
    assert gc.isenabled() is enabled


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
    # naive is the one scheme that stacks more than two tensors on a site:
    # max stack height 8, 4 and 4
    ("mera1d", 5, "naive"): (
        "19b6f89c8cb6e5f0c460d6a48b2a36c69427d0059f2d7fe24140dda90b2000ee",
        "da5e00d50cf18ce2f5284b756d1e81fff6664a95b3fce35e042ce4e048652cda"),
    ("mera2d-b2", 3, "naive"): (
        "3d07a5f4bc428f227265821b3f9038a3c60056bb7bcc065d6bfba9e47113c17a",
        "7a349c2e254dba20364a3fc4c33e2344297472d1c751b01cd2a037e114b4b958"),
    ("mera2d-b3", 2, "naive"): (
        "54c0a9a051422f34840fc3627944e03d5e4635618f773aff3b9653346d4ead97",
        "aa4ada6d94d1b8592f9edd4cfc6b81653002111757fa95fb9c19fdfac89b011a"),
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


# sha256 of the tns-v1 file, the map-v1 file, the congestion CSV and the
# `map` stdout of symbolic builds at the default chi and phys_dim: the
# naive and shifted schemes, and shallower versions of each map-deep
# benchmark shape.  Every digest holds only integers and fixed-point text.
PIPELINE_DIGESTS = {
    ("mera2d-b2", 3, "naive"): (
        "375a5bed878d3c9b750b24cec332ce55ec2046f9238a7e607a302ea46e8f99bb",
        "2340426b7bb3c9c423f8689b553a05fb9f0b8fbb6636b9294f12f1eb999c7512",
        "3d07a5f4bc428f227265821b3f9038a3c60056bb7bcc065d6bfba9e47113c17a",
        "7a349c2e254dba20364a3fc4c33e2344297472d1c751b01cd2a037e114b4b958"),
    ("mera2d-b2", 3, "shifted"): (
        "375a5bed878d3c9b750b24cec332ce55ec2046f9238a7e607a302ea46e8f99bb",
        "8a6bdad72057d0fa84d34bada3956184480386ac51113472877111db3be2e455",
        "35cf694e8893cbcc4ed8e8b5846e743199f836ebdbbf3663df133b6a32c5e056",
        "8228114de75ee8eefa2a5a6f224f5577c6ddc92af181bd14c0eade22e97a024d"),
    ("mera2d-b2", 5, "refined"): (
        "100a1f5772cf6fa96a3f16655c5640a8d5def31263a2307a5d314f4db5d8d5f5",
        "a03e4552da6e9f5297ce12850a5dcd61b764a89229d44b18eda7b456f331c6f5",
        "5254991100d382b24434e677c6d13a8ea77ebb7e29c4898dbe31edd0555499f7",
        "0e13be140a7563bc0eb7138f8f077bb053202ecae0ecc30d15c43ff37236481f"),
    ("mera2d-b3", 3, "refined"): (
        "2fb7077d19e0fd4b0fd9929987ebcb386198bd36ce86a330f0f19d71077524da",
        "69c9bb941054c2748e79b13807426e5760705565dc2bdf95f9b8fbd545d53a11",
        "91053e43a238ce1fac4768967f3b2fcae80ebfdadfa5010bd901923b618f82b5",
        "7bc8232ef19b9b2f66b287449d3fcd96d6e4e75d58d30cc87df019d10dec4bad"),
    ("mera2d-b2", 5, "shifted"): (
        "100a1f5772cf6fa96a3f16655c5640a8d5def31263a2307a5d314f4db5d8d5f5",
        "09c327525c520a3a4339c45b32eceb681bee283b6ea53f0bf9ebaf3736cefe8b",
        "d30df865b6c3f0f00b532cf46f3015fb554b0d6e7d1dcbd7bbd0ff23efcfd067",
        "b38f168b988749e9ad5bd889fed2e752d953153c04b57d5522436eecb97fd973"),
    ("mera1d", 10, "refined"): (
        "eaf4251426e2a6d91df9e8844b6cf7cfe26cabd8e18cdc460d6fc2f766f79458",
        "1db47580bb0f829e7b0db8b8138fb286f29d28e184f3a8f12c9f27f43a0ef03f",
        "44a7b737756c4354afa13d6f62b7ee80b4e4f7111f671f4b42667a51b3b37962",
        "0fc77563740cade754a890c93c4b4a9d54582b2bd538221f92f811d687eda4aa"),
}


@pytest.mark.parametrize("kind,layers,scheme", sorted(PIPELINE_DIGESTS))
def test_pipeline_outputs_pinned(tmp_path, capsys, kind, layers, scheme):
    prefix = str(tmp_path / "m")
    assert main(["build", "--kind", kind, "--layers", str(layers),
                 "--no-elements", "--out", prefix + ".tns.json"]) == 0
    capsys.readouterr()
    assert main(["map", "--tns", prefix + ".tns.json", "--scheme", scheme,
                 "--out-prefix", prefix]) == 0
    stdout = capsys.readouterr().out.encode()
    digests = [hashlib.sha256(data).hexdigest() for data in (
        (tmp_path / "m.tns.json").read_bytes(),
        (tmp_path / "m.map.json").read_bytes(),
        (tmp_path / "m.congestion.csv").read_bytes(), stdout)]
    assert tuple(digests) == PIPELINE_DIGESTS[(kind, layers, scheme)]


# sha256 of `entropy --family qca --cross-check` stdout for the three job
# shapes of the entropy-qca benchmark workload at seed 7.  The random-cut
# rows depend on every draw of the region sampler, so these pins freeze its
# draw sequence; the rows hold only integers, the same on every platform.
QCA_OUTPUT_DIGESTS = {
    "--dimension 2 --lengths 24,32 --layers-max 4 --cut random --cuts 2":
        "ab60d2d31eca08cfa4b20837eae11c506c4f85f462b88bb7dfb31a7857b65c93",
    "--dimension 1 --lengths 256,512 --layers-max 8 --cut random --cuts 2":
        "0f888ff00b4f2a428f77b45e8569d28dfc488ef5e24efb93c46b572771cd3d56",
    "--dimension 2 --lengths 48 --layers-max 3 --cut half":
        "5982e92c835e0257edf386f5122e20ec8b6704164c9429ff676087c722ce7362",
}


@pytest.mark.parametrize("shape", sorted(QCA_OUTPUT_DIGESTS))
def test_entropy_qca_outputs_pinned(capsys, shape):
    argv = ["entropy", "--family", "qca", *shape.split(), "--cross-check",
            "--seed", "7"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() \
        == QCA_OUTPUT_DIGESTS[shape]
    assert captured.err == \
        "cross-check: pair tracker and stabilizer agree on all rows\n"


@pytest.mark.parametrize("argv,flag", [
    ("--family ttn1d --layers-max 0", "--layers-max"),
    ("--family qca --lengths 8 --layers-max 0", "--layers-max"),
    ("--family qca --lengths 8 --layers-max -3 --cut random", "--layers-max"),
    ("--family qca --lengths 8 --cut random --cuts 0", "--cuts"),
    ("--family qca --lengths 8 --cut random --cuts -1", "--cuts"),
    ("--family qca --lengths ,", "--lengths"),
    ("--family qca --lengths 8,x", "--lengths"),
    ("--family qca --lengths 8 --cut random --seed -100", "--seed"),
    ("--family qca --lengths 8 --cut random --seed -106", "--seed"),
    ("--family qca --lengths 8,5", "--lengths"),
    ("--family qca --lengths 8,2 --cut random", "--lengths"),
], ids=["ttn1d-layers-0", "qca-layers-0", "qca-layers-negative", "cuts-0",
        "cuts-negative", "lengths-empty", "lengths-not-int",
        "seed-negative-sum-positive", "seed-negative-sum-negative",
        "lengths-odd", "lengths-below-4"])
def test_entropy_rejects_bad_flags(monkeypatch, capsys, argv, flag):
    # the check comes before any row: no depth is computed or printed
    def no_rows(*args, **kwargs):
        raise AssertionError("a row was computed")

    from tnkit import qca, stabilizer
    monkeypatch.setattr(stabilizer, "run_ttn_example", no_rows)
    monkeypatch.setattr(qca, "initial_pairs", no_rows)
    assert main(["entropy", *argv.split()]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} ")


@pytest.mark.parametrize("tol", ["-1", "-0.5", "nan", "1", "2", "inf"])
def test_verify_rejects_bad_tol(monkeypatch, tmp_path, capsys, tol):
    # the check comes before any file is read
    def no_read(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(cli, "_load_json", no_read)
    assert main(["verify", "--tns", str(tmp_path / "net.json"),
                 "--map", str(tmp_path / "net.map.json"),
                 "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --tol must lie in [0, 1), got ")


@pytest.mark.parametrize("tol", ["0", "0.5"])
def test_verify_accepts_tol_in_range(built, tmp_path, capsys, tol):
    prefix = str(tmp_path / "m")
    main(["map", "--tns", str(built), "--scheme", "refined",
          "--out-prefix", prefix])
    capsys.readouterr()
    code = main(["verify", "--tns", str(built), "--map", prefix + ".map.json",
                 "--tol", tol])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("PASS embedded state matches")
    assert captured.err == ""


@pytest.mark.parametrize("kind,layers,scheme", [
    ("mera1d", 4, "refined"), ("mera1d", 4, "shifted"),
    ("mera2d-b2", 2, "refined"), ("mera2d-b2", 2, "shifted"),
    ("mera2d-b3", 1, "refined")])
def test_verify_passes_at_tol_zero(tmp_path, capsys, kind, layers, scheme):
    # the embedding contracts in the network's order, so the two states
    # agree bit for bit
    net, prefix = str(tmp_path / "net.json"), str(tmp_path / "m")
    assert main(["build", "--kind", kind, "--layers", str(layers),
                 "--seed", "5", "--out", net]) == 0
    assert main(["map", "--tns", net, "--scheme", scheme,
                 "--out-prefix", prefix]) == 0
    capsys.readouterr()
    assert main(["verify", "--tns", net, "--map", prefix + ".map.json",
                 "--tol", "0"]) == 0
    assert capsys.readouterr().out.startswith("PASS embedded state matches")


def test_entropy_half_cut_ignores_negative_seed(capsys):
    # the seed only picks random cuts
    assert main(["entropy", "--family", "qca", "--dimension", "1",
                 "--lengths", "8", "--layers-max", "1", "--seed", "-5"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "1,8,1,half,2,2.000000"


@pytest.mark.parametrize("argv", [
    "entropy --family ttn1d --layers-max 5",
    "entropy --family qca --dimension 1 --lengths 8,12 --layers-max 2 "
    "--cut random --cuts 2 --cross-check",
    "entropy --family qca --dimension 2 --lengths 8 --layers-max 2 "
    "--cross-check",
], ids=["ttn1d", "qca-random", "qca-half"])
def test_entropy_does_not_import_numpy_ma(argv):
    # numpy.ma costs 12-16 ms to import and no entropy command needs it;
    # np.unique and np.setdiff1d pull it in
    assert not _imports("numpy.ma", argv.split())


def _imports(module, *argvs) -> bool:
    """Whether a fresh process that runs main(argv) for each argv in turn
    imports module."""
    code = ("import sys\n"
            "from tnkit.cli import main\n"
            + "".join(f"assert main({argv!r}) == 0\n" for argv in argvs)
            + f"print({module!r} in sys.modules)\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.splitlines()[-1] == "True"


@pytest.mark.parametrize("command", ["map", "verify"])
def test_map_and_verify_do_not_import_numpy_ma(tmp_path, command):
    net, prefix = str(tmp_path / "net.json"), str(tmp_path / "m")
    assert main(["build", "--kind", "mera2d-b2", "--layers", "2",
                 "--seed", "3", "--out", net]) == 0
    map_argv = ["map", "--tns", net, "--scheme", "refined",
                "--out-prefix", prefix]
    assert main(map_argv) == 0
    assert not _imports(
        "numpy.ma", map_argv if command == "map"
        else ["verify", "--tns", net, "--map", prefix + ".map.json"])


def test_symbolic_build_and_map_do_not_import_numpy_random(tmp_path):
    # numpy.random costs about 5 MiB a process; only drawn elements need
    # it, and the reader rebuilds a symbolic network without drawing
    net = str(tmp_path / "net.json")
    assert not _imports(
        "numpy.random",
        ["build", "--kind", "mera2d-b2", "--layers", "3", "--no-elements",
         "--out", net],
        ["map", "--tns", net, "--scheme", "refined",
         "--out-prefix", str(tmp_path / "m")])


@pytest.mark.parametrize("value", [2 ** 63, 2 ** 70])
@pytest.mark.parametrize("entry,field,issue", [
    ("lattice", "layers", "lattice length 4 is not branching**layers = "
                          "2**{value}"),
    ("meta", "max_layer_distance", "meta max_layer_distance {value} outside "
                                   "[0, 2]")])
def test_huge_header_fields_exit_4_at_once(tmp_path, capsys, entry, field,
                                           issue, value):
    # b ** layers and chi_bound's power of max_layer_distance once ran out
    # of memory; b ** layers is now taken only while layers is within the
    # length's bit length, and the distance is checked against the depth
    net = tmp_path / "net.json"
    main(["build", "--kind", "mera1d", "--layers", "2", "--out", str(net)])
    main(["map", "--tns", str(net), "--scheme", "refined",
          "--out-prefix", str(tmp_path / "m")])
    data = json.loads(net.read_text())
    data[entry][field] = value
    (tmp_path / "huge.json").write_text(json.dumps(data))
    issue = issue.format(value=value)
    capsys.readouterr()
    for argv, stream in (
            (["map", "--tns", str(tmp_path / "huge.json"), "--scheme",
              "refined", "--out-prefix", str(tmp_path / "x")], "err"),
            (["verify", "--tns", str(tmp_path / "huge.json"),
              "--map", str(tmp_path / "m.map.json")], "out")):
        start = time.perf_counter()
        assert main(argv) == 4
        assert time.perf_counter() - start < 1.0
        assert issue in getattr(capsys.readouterr(), stream)
    assert not list(tmp_path.glob("x.*"))
