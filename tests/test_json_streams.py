"""tns-v1 and map-v1 streamed through the command line.

`build` and `map` encode their documents a slice of entries at a time,
and `map` and `verify` read tns-v1 as arrays from the bytes that
`build --no-elements` writes, and any other text with json.loads.  The
bytes must be those of json.dumps of the whole document, and the reader
must accept and refuse what json.load accepts and refuses.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tnkit import cli, mapping, tns as tns_mod
from tnkit.cli import main
from tnkit.tns import (build_mera_1d, build_mera_2d_b2, build_ttn_example,
                       tns_from_dict, tns_to_dict)


@pytest.fixture(scope="module")
def seeded(tmp_path_factory):
    """A seeded mera1d T=2 file and the outputs `map` makes of it."""
    work = tmp_path_factory.mktemp("seeded")
    net = work / "net.tns.json"
    assert main(["build", "--kind", "mera1d", "--layers", "2", "--seed", "7",
                 "--out", str(net)]) == 0
    assert main(["map", "--tns", str(net), "--scheme", "refined",
                 "--out-prefix", str(work / "net")]) == 0
    return work, net


def _map(net, prefix):
    return main(["map", "--tns", str(net), "--scheme", "refined",
                 "--out-prefix", str(prefix)])


def test_every_truncation_exits_2(seeded, tmp_path, capsys):
    work, net = seeded
    text = net.read_text()
    cuts = sorted(set(np.linspace(0, len(text), 300).astype(int).tolist()))
    incomplete = 0
    for cut in cuts:
        try:
            json.loads(text[:cut])
            continue
        except ValueError:
            incomplete += 1
        (tmp_path / "cut.json").write_text(text[:cut])
        assert _map(tmp_path / "cut.json", tmp_path / "cut") == 2, cut
        assert capsys.readouterr().err.startswith("error: "), cut
    assert incomplete >= 290


@pytest.mark.parametrize("tail", ["x", "{}", " 1", "]"])
def test_trailing_data_exits_2(seeded, tmp_path, capsys, tail):
    work, net = seeded
    (tmp_path / "tail.json").write_text(net.read_text() + tail)
    for argv in (["map", "--tns", str(tmp_path / "tail.json"), "--scheme",
                  "refined", "--out-prefix", str(tmp_path / "tail")],
                 ["verify", "--tns", str(tmp_path / "tail.json"),
                  "--map", str(work / "net.map.json")]):
        assert main(argv) == 2
        assert "Extra data" in capsys.readouterr().err


@pytest.fixture(scope="module")
def symbolic(tmp_path_factory):
    """A b2 T=3 file without elements and the outputs `map` makes of it."""
    work = tmp_path_factory.mktemp("symbolic")
    net = work / "net.tns.json"
    assert main(["build", "--kind", "mera2d-b2", "--layers", "3",
                 "--no-elements", "--out", str(net)]) == 0
    assert _map(net, work / "net") == 0
    return work, net


REWRITES = {
    "repeated-nodes-first": lambda text: '{"nodes": [], ' + text[1:],
    "indent-sorted":
        lambda text: json.dumps(json.loads(text), indent=2, sort_keys=True),
    "compact":
        lambda text: json.dumps(json.loads(text), separators=(",", ":")),
    "repeated-both": lambda text: '{"lines": [], "nodes": [1], ' + text[1:],
    "whitespace":
        lambda text: '\n\t ' + text.replace(": ", " :\r\n ") + ' \n',
}


# the file with elements verifies; the symbolic one reaches verify's
# amplitude budget, 2^64, and exits 3 as the file it was rewritten from
@pytest.mark.parametrize("source,code,name", [
    pytest.param(source, code, name, id=prefix + name)
    for source, code, prefix in (("seeded", 0, ""),
                                 ("symbolic", 3, "b2-symbolic-"))
    for name in REWRITES])
def test_reader_takes_any_key_order_and_whitespace(request, tmp_path, capsys,
                                                   source, code, name):
    work, net = request.getfixturevalue(source)
    edited = tmp_path / "edited.json"
    edited.write_text(REWRITES[name](net.read_text()))
    # the array reader refuses the text, so json reads it
    assert tns_mod.tns_from_bytes(edited.read_bytes()) is None
    expected = tns_from_dict(json.loads(net.read_text()))
    assert tns_to_dict(cli._read_tns(edited)) == tns_to_dict(expected)
    assert _map(edited, tmp_path / "edited") == 0
    for suffix in (".map.json", ".congestion.csv"):
        assert (tmp_path / f"edited{suffix}").read_bytes() == \
            (work / f"net{suffix}").read_bytes()
    outcomes = []
    for path in (net, edited):
        capsys.readouterr()
        outcomes.append((main(["verify", "--tns", str(path),
                               "--map", str(work / "net.map.json")]),
                         capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == code


@pytest.mark.parametrize("text", ["", " ", "[]", "1", "null", '"tns-v1"',
                                  "{}", '{"version": "tns-v1"}',
                                  '{"version": "tns-v1",}', '{"version"}',
                                  '{"version": }', "{'version': 1}",
                                  '{"a": 1 "b": 2}'])
def test_reader_refuses_what_json_refuses(tmp_path, capsys, text):
    (tmp_path / "bad.json").write_text(text)
    assert _map(tmp_path / "bad.json", tmp_path / "bad") == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_lines_before_their_nodes_name_unknown_ends(seeded, tmp_path, capsys):
    work, net = seeded
    doc = json.loads(net.read_text())
    doc["lines"][3]["b"][0] = "ghost"
    edited = tmp_path / "ghost.json"
    edited.write_text(json.dumps(doc, sort_keys=True))
    assert _map(edited, tmp_path / "ghost") == 2
    assert capsys.readouterr().err == \
        "error: malformed tns-v1 document: KeyError 'ghost'\n"


def test_a_later_member_replaces_a_malformed_one(seeded, tmp_path, capsys):
    work, net = seeded
    edited = tmp_path / "later.json"
    edited.write_text('{"nodes": [{}], "lines": 5, ' + net.read_text()[1:])
    assert _map(edited, tmp_path / "later") == 0
    edited.write_text(net.read_text()[:-2] + ', "nodes": [{}]}')
    assert _map(edited, tmp_path / "later") == 2
    assert capsys.readouterr().err.startswith(
        "error: malformed tns-v1 document: KeyError 'id'")


def test_nodes_repeated_after_lines_read_as_json_load(seeded, tmp_path,
                                                     capsys):
    # the lines are read against the last node list, whatever its order
    work, net = seeded
    text = net.read_text()
    nodes = json.loads(text)["nodes"]
    nodes = nodes[1::2] + nodes[::2]
    edited = tmp_path / "twice.json"
    edited.write_text(f'{text[:-2]}, "nodes": {json.dumps(nodes)}}}')
    expected = tns_from_dict(json.loads(edited.read_text()))
    got = cli._read_tns(edited)
    assert got.ids == expected.ids == [n["id"] for n in nodes]
    assert (got.line_ends == expected.line_ends).all()
    assert tns_to_dict(got) == tns_to_dict(expected)
    # an id that only the first list has
    gone = nodes.pop(3)["id"]
    edited.write_text(f'{text[:-2]}, "nodes": {json.dumps(nodes)}}}')
    message = f"malformed tns-v1 document: KeyError {gone!r}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        tns_from_dict(json.loads(edited.read_text()))
    assert _map(edited, tmp_path / "twice") == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def _traced_peak(read):
    """Peak bytes tracemalloc sees while read() runs."""
    tracemalloc.start()
    try:
        read()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind,layers", [("mera2d-b2", 6), ("mera1d", 10)])
def test_reader_peaks_below_json_load(tmp_path, kind, layers):
    # a file `build --no-elements` writes is read as arrays from its
    # bytes, with no decoded document beside them
    net = tmp_path / "net.json"
    assert main(["build", "--kind", kind, "--layers", str(layers),
                 "--no-elements", "--out", str(net)]) == 0

    def load():
        with open(net) as fh:
            return tns_from_dict(json.load(fh))

    read, loaded = _traced_peak(lambda: cli._read_tns(net)), \
        _traced_peak(load)
    assert read <= 0.78 * loaded, read / loaded


NETWORKS = {
    "mera1d-1": lambda: build_mera_1d(1),
    "mera1d-2": lambda: build_mera_1d(2, with_elements=False),
    "ttn1d-1": lambda: build_ttn_example(1),
    "b2-1": lambda: build_mera_2d_b2(1, with_elements=False),
}


@pytest.mark.parametrize("step", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_sliced_files_equal_whole_documents(tmp_path, monkeypatch, capsys,
                                            name, step):
    net = NETWORKS[name]()
    monkeypatch.setattr(tns_mod, "JSON_SLICE", step)
    monkeypatch.setitem(cli._BUILDERS, "ttn1d", lambda args: net)
    out = tmp_path / "net.json"
    assert main(["build", "--kind", "ttn1d", "--layers", "1",
                 "--out", str(out)]) == 0
    assert out.read_text() == json.dumps(tns_to_dict(net)) + "\n"
    capsys.readouterr()
    assert main(["build", "--kind", "ttn1d", "--layers", "1"]) == 0
    assert capsys.readouterr().out.startswith(out.read_text())

    assert _map(out, tmp_path / "m") == 0
    p = mapping.place(net, "refined")
    paths = mapping.route_lines(net, p)
    assert (tmp_path / "m.map.json").read_text() == \
        json.dumps(mapping.map_to_dict(p, paths)) + "\n"


@pytest.mark.parametrize("step", [1, 2, 3])
@pytest.mark.parametrize("count", [0, 1, 2, 3, 4])
def test_writer_at_every_slice_boundary(monkeypatch, step, count):
    """Site and path counts 0, 1, step - 1, step and step + 1 for each
    step; the chains have one vertex or their whole length, and a chain
    of none, which route_lines never makes, is refused by name."""
    monkeypatch.setattr(tns_mod, "JSON_SLICE", step)
    net = build_mera_1d(2)
    p = mapping.place(net, "refined")
    paths = mapping.route_lines(net, p)
    p = mapping.Placement(p.scheme, p.lattice, p.ids[:count],
                          p.sites[:count], p.anchor[:count])
    starts = paths.offsets[:count].tolist()
    chains = [paths.vertices[i:i + n] for i, n in
              zip(starts, [1, 5, 3, 0][:count])]
    paths = mapping.PathAssignment(
        paths.line_ids[:count], np.cumsum([0] + list(map(len, chains))),
        np.concatenate(chains) if chains else paths.vertices[:0])
    if count == 4:
        with pytest.raises(ValueError, match=f"^path of line "
                                             f"{paths.line_ids[3]} has no "
                                             f"vertex$"):
            "".join(mapping.map_text(p, paths))
        return
    assert "".join(mapping.map_text(p, paths)) == \
        json.dumps(mapping.map_to_dict(p, paths)) + "\n"


def _adversarial_network(empty=False):
    """mera1d T=2 read back from its tns-v1 document, edited: ids with
    quotes, backslashes, control, non-ASCII and lone surrogate
    characters, a variant outside VARIANTS, elements entries -0.0, the
    least subnormal and 1e308; no nodes and no lines when empty."""
    doc = json.loads(json.dumps(tns_to_dict(build_mera_1d(2))))
    names = ['q"uote', "back\\slash", "ctl\x00\x1f\n\t\x7f",
             "né世\U0001f600", "\ud800lone", "", "%d %s {}"]
    rename = {n["id"]: name for n, name in zip(doc["nodes"], names)}
    for n in doc["nodes"]:
        n["id"] = rename.get(n["id"], n["id"])
    for line in doc["lines"]:
        for end in (line["a"], line["b"]):
            end[0] = rename.get(end[0], end[0])
    doc["nodes"][-1]["variant"] = 'vé"\\x'
    node = next(n for n in doc["nodes"] if n["elements"])
    node["elements"][:3] = [-0.0, 5e-324, 1e308]
    if empty:
        doc["nodes"], doc["lines"] = [], []
    return tns_from_dict(doc)


@pytest.mark.parametrize("step", [1, 2, 3, tns_mod.JSON_SLICE])
@pytest.mark.parametrize("empty", [False, True], ids=["edited", "empty"])
def test_column_writer_equals_json_dumps(monkeypatch, step, empty):
    net = _adversarial_network(empty)
    assert empty or net.variants[-1] not in tns_mod.VARIANTS
    monkeypatch.setattr(tns_mod, "JSON_SLICE", step)
    assert "".join(tns_mod.tns_text(net)) == \
        json.dumps(tns_to_dict(net)) + "\n"


@pytest.mark.parametrize("step", [1, 2, 3, tns_mod.JSON_SLICE])
@pytest.mark.parametrize("scheme", ["naive", "refined"])
def test_map_writer_equals_json_dumps(monkeypatch, step, scheme):
    # ids that sort by code point and need escapes; the sites go out in
    # the order sorted gives them
    net = _adversarial_network()
    p = mapping.place(net, scheme)
    paths = mapping.route_lines(net, p)
    monkeypatch.setattr(tns_mod, "JSON_SLICE", step)
    text = "".join(mapping.map_text(p, paths))
    assert text == json.dumps(mapping.map_to_dict(p, paths)) + "\n"
    sites = json.loads(text)["sites"]
    assert [nid for nid, _ in sites] == sorted(net.ids)
    assert {'q"uote', "\ud800lone", "né世\U0001f600"} <= \
        {nid for nid, _ in sites}


# a sparse column of 2,500 distinct values whose table is of the
# distinct values, across the numerals' changes of width
_SPARSE = np.unique(np.concatenate((
    [0, 999, 1000, 999_999, 10**6, 10**9 - 1],
    np.linspace(0, 10**9 - 1, 2_494).astype(np.int64))))


@pytest.mark.parametrize("values", [
    np.array(values, np.int64) for values in (
        [0], [0, 0, 1, 1], [7, 3, 5], [-1, -3, -2, -2], [-5, 12, 0, 100],
        [2**63 - 1, 2**63 - 2], [-2**63, -2**63 + 1],
        [2**63 - 1, -2**63, 0, -1, 2**63 - 1])] + [
    pytest.param(np.arange(12_345), id="arange-12345"),
    pytest.param(np.arange(995, 3_010), id="arange-995-3010"),
    pytest.param(np.repeat(_SPARSE, 2)[::-1], id="sparse"),
    pytest.param(np.append(_SPARSE, 10**9), id="sparse-1e9"),
    pytest.param(np.arange(-2, 2_500) * 7, id="wide-negative"),
    pytest.param(np.arange(0, 65_535, 13, dtype=np.uint16), id="uint16")])
def test_numerals_print_as_str(values):
    column, values = values, values.tolist()
    assert tns_mod.numerals(column).tolist() == list(map(str, values))
    assert tns_mod.numerals(column, "<", '">').tolist() == \
        [f'<{v}">' for v in values]
    assert tns_mod.numerals(column, after=", ").tolist() == \
        [f"{v}, " for v in values]
    rows = np.stack([column, column[::-1]], axis=1)
    assert tns_mod.joined(len(rows), "[", *tns_mod.numeral_axes(rows, ";"),
                          "]") == "".join(f"[{a};{b}]" for a, b in
                                          rows.tolist())
    rows = np.stack([column, column[::-1], column], axis=1)
    assert tns_mod.joined(len(rows), "[", *tns_mod.numeral_axes(
        rows, ", ", "]")) == "".join(f"[{a}, {b}, {c}]" for a, b, c in
                                    rows.tolist())
    assert tns_mod.numerals(column[:0]).tolist() == []


@settings(max_examples=80, deadline=None)
@given(count=st.integers(0, 6_000),
       low=st.one_of(st.integers(0, 10**9), st.integers(-2**63, 2**63 - 1)),
       bits=st.integers(0, 64), seed=st.integers(0, 2**32 - 1),
       before=st.sampled_from(["", '"', ", "]),
       after=st.sampled_from(["", "]", '], "elements": ']))
def test_numerals_equal_str_of_any_int64(count, low, bits, seed, before,
                                         after):
    # values in [low, low + 2**bits), clipped to int64
    high = min(low + 2**bits, 2**63)
    column = np.random.default_rng(seed).integers(low, high, count,
                                                  dtype=np.int64)
    assert tns_mod.numerals(column, before, after).tolist() == \
        [f"{before}{v}{after}" for v in column.tolist()]


@pytest.mark.parametrize("cells", [
    pytest.param(cells, id=name) for name, cells in (
        ("1d", np.arange(5_000)[:, None]),
        ("2d", np.indices((90, 70)).reshape(2, -1).T),
        ("3d", np.indices((12, 25, 17)).reshape(3, -1).T[::-1]),
        ("one-cell", np.array([[3, 1_000, 7]])),
        ("past-1000", np.array([[999, 1_000], [10**6, 123_456_789],
                                [10**9, 2**62], [0, 1_001]])),
        ("3d-past-1000", np.array([[1_000, 999, 10_000]] * 3)))])
def test_ids_equal_the_template(cells):
    template = ("w:3:" + ",".join(["%d"] * cells.shape[1])).__mod__
    assert tns_mod._ids("w:3:", cells) == \
        list(map(template, map(tuple, cells.tolist())))


@pytest.fixture(scope="module")
def two_batches():
    """b2 T=6 without elements: 10,441 lines, two batches of the default
    JSON_SLICE, and line ids past 10**4."""
    net = build_mera_2d_b2(6, with_elements=False)
    assert len(net.line_id) == 10_441 > tns_mod.JSON_SLICE
    return net


def test_two_batch_network_text_equals_json_dumps(two_batches):
    assert "".join(tns_mod.tns_text(two_batches)) == \
        json.dumps(tns_to_dict(two_batches)) + "\n"


@pytest.mark.parametrize("scheme", ["refined", "shifted"])
def test_two_batch_map_and_csv_equal_their_oracles(two_batches, scheme):
    net = two_batches
    p = mapping.place(net, scheme)
    paths = mapping.route_lines(net, p)
    assert len(paths.line_ids) > tns_mod.JSON_SLICE
    assert "".join(mapping.map_text(p, paths)) == \
        json.dumps(mapping.map_to_dict(p, paths)) + "\n"
    report = mapping.measured_chi(net, paths)
    assert "".join(mapping.congestion_csv(report)) == \
        "edge_a,edge_b,paths,bond_dim\n" + "".join(
            f"{';'.join(map(str, a))},{';'.join(map(str, b))},"
            f"{report.paths_through((a, b))},{report.bond_dim_of((a, b))}\n"
            for a, b in report.edge_lines)


@pytest.mark.parametrize("step", [1, 2, 3])
def test_column_writer_takes_any_int64(monkeypatch, step):
    doc = tns_to_dict(build_mera_2d_b2(1, seed=4))
    for i, n in enumerate(doc["nodes"]):
        n["cell"] = [-n["cell"][0] - i, n["cell"][1] - 2**40]
    doc["lines"][0]["id"], doc["lines"][-1]["id"] = 2**32 + 5, -2**63
    doc["lines"][1]["dim"] = 2**63 - 1
    net = tns_from_dict(doc)
    monkeypatch.setattr(tns_mod, "JSON_SLICE", step)
    assert "".join(tns_mod.tns_text(net)) == json.dumps(doc) + "\n"


@pytest.mark.parametrize("step", [1, 2, 3, tns_mod.JSON_SLICE])
def test_csv_batches_equal_rows(monkeypatch, step):
    # 8 * step edges per batch
    net = build_mera_2d_b2(2, with_elements=False)
    report = mapping.measured_chi(
        net, mapping.route_lines(net, mapping.place(net, "refined")))
    oracle = ["edge_a,edge_b,paths,bond_dim\n"] + [
        f"{';'.join(map(str, a))},{';'.join(map(str, b))},"
        f"{report.paths_through((a, b))},{report.bond_dim_of((a, b))}\n"
        for a, b in report.edge_lines]
    assert len(oracle) - 1 > 8 * 3
    monkeypatch.setattr(tns_mod, "JSON_SLICE", step)
    batches = list(mapping.congestion_csv(report))
    assert batches[0] == oracle[0]
    # the header, then one batch per 8 * step rows
    assert len(batches) == 1 + -(-(len(oracle) - 1) // (8 * step))
    assert "".join(batches) == "".join(oracle)


def test_map_writer_holds_a_slice_not_the_text(tmp_path, monkeypatch):
    # b2 T=6 refined is 859,881 bytes of map-v1.  At 128 entries per
    # slice the writer holds the site order and one slice, 1.0 or more
    # were the text ever whole
    net = build_mera_2d_b2(6, with_elements=False)
    p = mapping.place(net, "refined")
    paths = mapping.route_lines(net, p)
    monkeypatch.setattr(tns_mod, "JSON_SLICE", 128)
    out = tmp_path / "net.map.json"

    def write():
        with open(out, "w") as fh:
            fh.writelines(mapping.map_text(p, paths))

    peak = _traced_peak(write)
    assert peak <= 0.5 * out.stat().st_size, peak / out.stat().st_size


def test_column_writer_holds_a_slice_not_the_text(tmp_path, monkeypatch):
    # b2 T=6 symbolic is 1,560,535 bytes of tns-v1, and its 6,707 nodes
    # fit one default slice, so the slices are made smaller.  At 128
    # entries per slice the writer holds the json-encoded ids (about 0.29
    # of the text) and one slice: a traced peak of 0.38 of the file's
    # size on CPython 3.11, 1.0 or more were the text ever whole
    net = build_mera_2d_b2(6, with_elements=False)
    monkeypatch.setattr(tns_mod, "JSON_SLICE", 128)
    out = tmp_path / "net.json"

    def write():
        with open(out, "w") as fh:
            fh.writelines(tns_mod.tns_text(net))

    peak = _traced_peak(write)
    assert peak <= 0.5 * out.stat().st_size, peak / out.stat().st_size


def _joined(to_dict, key, arg, count, step):
    """The key entries of to_dict(**{arg: part}) over consecutive parts of
    step entries, joined."""
    joined = []
    for start in range(0, count, step):
        joined += to_dict(**{arg: slice(start, start + step)})[key]
    return joined


@pytest.mark.parametrize("step", [1, 2, 3, 5])
def test_ranges_join_to_whole_documents(step):
    net = build_mera_2d_b2(1, seed=2)
    whole = tns_to_dict(net)
    for key in ("nodes", "lines"):
        assert _joined(lambda **part: tns_to_dict(net, **part), key, key,
                       len(whole[key]), step) == whole[key]
    p = mapping.place(net, "shifted")
    paths = mapping.route_lines(net, p)
    whole = mapping.map_to_dict(p, paths)
    assert mapping.map_to_dict(p, paths, lines=slice(0))["paths"] == []
    assert mapping.map_to_dict(p, paths, sites=slice(0))["sites"] == []
    for key, arg in (("sites", "sites"), ("paths", "lines")):
        assert _joined(lambda **part: mapping.map_to_dict(p, paths, **part),
                       key, arg, len(whole[key]), step) == whole[key]


@pytest.mark.parametrize("step", [1, 2, 3])
def test_map_reader_slices_give_the_whole_reading(seeded, monkeypatch, step):
    work, _ = seeded
    data = json.loads((work / "net.map.json").read_text())
    whole = mapping.read_map(data)
    monkeypatch.setattr(tns_mod, "JSON_SLICE", step)
    sliced = mapping.read_map(data)
    assert sliced[:3] == whole[:3]
    assert np.array_equal(sliced[3], whole[3])
    for name in ("line_ids", "offsets", "vertices"):
        assert np.array_equal(getattr(sliced[4], name),
                              getattr(whole[4], name))
    # a fault in the last slice is named as in the first
    data["paths"][-1][1][-1][0] = 1.5
    with pytest.raises(ValueError, match="coordinate is not an integer"):
        mapping.read_map(data)
    data["paths"][-1][1][-1] = [1, 2]
    with pytest.raises(ValueError, match="vertex is not 1-dimensional"):
        mapping.read_map(data)
