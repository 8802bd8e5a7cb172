"""The array reader of tns-v1 against json.

`tns.tns_from_bytes` reads the text tnkit writes for a network without
elements as arrays straight from the bytes, and returns a network only
when `tns_text` re-encodes it to the same bytes.  On tnkit's own files it
must give exactly what `tns_from_dict(json.loads(text))` gives; on any
other text it must return None, and `cli._read_tns` must then read the
file as the json reader alone does.
"""

import json

import numpy as np
import pytest

from test_cli import MAP_OUTPUT_DIGESTS
from tnkit import cli, tns as tns_mod
from tnkit.tns import (build_mera_1d, build_mera_2d_b2, build_mera_2d_b3,
                       build_ttn_example, tns_from_bytes, tns_from_dict,
                       tns_text, tns_to_dict)

BUILDERS = {"mera1d": build_mera_1d, "mera2d-b2": build_mera_2d_b2,
            "mera2d-b3": build_mera_2d_b3}
COLUMNS = ("layer", "kind", "variant", "cell", "dims", "dim_offsets",
           "line_id", "line_ends", "line_slots", "line_dim")


def assert_same_network(got, expected):
    """Every column with its dtype and shape, and every other member."""
    assert got.ids == expected.ids
    for name in COLUMNS:
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name
    for name in ("variants", "meta", "spec", "physical_dim", "chi"):
        assert getattr(got, name) == getattr(expected, name), name
    assert len(got.elements) == len(expected.elements)
    assert all(a is None and b is None
               for a, b in zip(got.elements, expected.elements))


def _symbolic_ttn(layers):
    """The binary-tree network with its elements dropped: top nodes on
    every layer, four-slot gates, ids with a trailing tag."""
    net = build_ttn_example(layers)
    net.elements = [None] * len(net.ids)
    return net


DOCUMENTS = {
    **{f"{kind} T={layers}": (BUILDERS[kind], layers)
       for kind, layers, _ in sorted(MAP_OUTPUT_DIGESTS)},
    # the map-deep shapes, shallower
    **{f"{kind} T={layers}": (BUILDERS[kind], layers)
       for kind in BUILDERS for layers in (1, 2, 3)},
    "ttn1d T=3": (lambda layers, with_elements: _symbolic_ttn(layers), 3),
}


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_array_reader_equals_json(tmp_path, name):
    build, layers = DOCUMENTS[name]
    text = "".join(tns_text(build(layers, with_elements=False)))
    got = tns_from_bytes(text.encode())
    assert got is not None
    expected = tns_from_dict(json.loads(text))
    assert_same_network(got, expected)
    path = tmp_path / "net.json"
    path.write_text(text)
    assert_same_network(cli._read_tns(path), expected)


@pytest.mark.parametrize("step", [1, 2, 3])
def test_array_reader_at_every_batch_boundary(monkeypatch, step):
    # windows of 128 * step bytes hold a few entries or none, so that
    # batches end at every entry and windows grow
    net = build_mera_2d_b2(2, with_elements=False)
    text = "".join(tns_text(net))
    monkeypatch.setattr(tns_mod, "JSON_SLICE", step)
    assert_same_network(tns_from_bytes(text.encode()),
                        tns_from_dict(json.loads(text)))


def test_empty_network_reads_as_json():
    net = build_mera_1d(1, with_elements=False)
    doc = tns_to_dict(net)
    doc["nodes"], doc["lines"] = [], []
    text = json.dumps(doc) + "\n"
    got = tns_from_bytes(text.encode())
    assert got is not None
    assert_same_network(got, tns_from_dict(json.loads(text)))


def _base():
    return tns_to_dict(build_mera_1d(2, with_elements=False))


def _renamed(name):
    """The base document with its first node renamed."""
    doc = _base()
    old = doc["nodes"][0]["id"]
    doc["nodes"][0]["id"] = name
    for line in doc["lines"]:
        for end in (line["a"], line["b"]):
            if end[0] == old:
                end[0] = name
    return json.dumps(doc) + "\n"


def _edit(change):
    """json.dumps of the base document after change(doc), newline ended."""
    doc = _base()
    change(doc)
    return json.dumps(doc) + "\n"


def _replace(old, new):
    """The base document's text with the first old replaced by new."""
    text = json.dumps(_base()) + "\n"
    assert old in text
    return text.replace(old, new, 1)


NEAR_CANONICAL = {
    "id-quote": lambda: _renamed('q"uote'),
    "id-backslash": lambda: _renamed("back\\slash"),
    "id-e-acute-escaped": lambda: _renamed("né"),
    "id-e-acute-utf8": lambda: json.dumps(
        json.loads(_renamed("né")), ensure_ascii=False) + "\n",
    "id-comma-space": lambda: _renamed('a", "b'),
    "id-entry-break": lambda: _renamed('a"}, {"b'),
    "node-id-twice": lambda: _edit(lambda d: d["nodes"][1].update(
        id=d["nodes"][0]["id"])),
    "line-id-twice": lambda: _edit(lambda d: d["lines"][1].update(
        id=d["lines"][0]["id"])),
    "lines-without-nodes": lambda: _edit(lambda d: d.update(nodes=[])),
    "end-names-no-node": lambda: _edit(
        lambda d: d["lines"][2]["b"].__setitem__(0, "ghost")),
    "int-19-digits": lambda: _edit(lambda d: d["lines"][0].update(
        id=10 ** 18)),
    "int-minus-zero": lambda: _replace('"layer": 1,', '"layer": -0,'),
    "int-leading-zeros": lambda: _replace('"layer": 1,', '"layer": 007,'),
    "int-float": lambda: _replace('"layer": 1,', '"layer": 1.0,'),
    "int-true": lambda: _replace('"layer": 1,', '"layer": true,'),
    "physical-dim-true": lambda: _edit(lambda d: d.update(
        physical_dim=True)),
    "crlf": lambda: (json.dumps(_base()) + "\n").replace("\n", "\r\n"),
    "no-final-newline": lambda: json.dumps(_base()),
    "member-after-lines": lambda: _replace("]}\n", '], "extra": 1}\n'),
    "nodes-repeated": lambda: '{"nodes": [], ' + json.dumps(_base())[1:]
    + "\n",
    # nesting past the decoder's depth before the nodes
    "deep-header": lambda: '{"deep": ' + "[" * 100_000 + "]" * 100_000
    + ", " + json.dumps(_base())[1:] + "\n",
}


def _json_only(monkeypatch, run):
    """run() with the array reader refusing every text."""
    with monkeypatch.context() as patch:
        patch.setattr(tns_mod, "tns_from_bytes", lambda data: None)
        return run()


def _map(path, prefix, capsys):
    code = cli.main(["map", "--tns", str(path), "--scheme", "refined",
                     "--out-prefix", str(prefix)])
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("name", sorted(NEAR_CANONICAL))
def test_near_canonical_text_falls_back_to_json(tmp_path, monkeypatch,
                                                capsys, name):
    text = NEAR_CANONICAL[name]()
    path = tmp_path / "net.json"
    path.write_bytes(text.encode())
    assert tns_from_bytes(path.read_bytes()) is None
    try:
        expected = _json_only(monkeypatch, lambda: cli._read_tns(path))
    except ValueError as exc:
        expected = exc
    if isinstance(expected, ValueError):
        with pytest.raises(ValueError) as raised:
            cli._read_tns(path)
        assert str(raised.value) == str(expected)
    else:
        assert_same_network(cli._read_tns(path), expected)
    got = _map(path, tmp_path / "m", capsys)
    assert got == _json_only(
        monkeypatch, lambda: _map(path, tmp_path / "m", capsys))
    assert got[0] in (0, 2)


def test_reader_of_tnkit_files_takes_the_array_path(tmp_path, monkeypatch):
    # a file `build --no-elements` writes never becomes node or line dicts
    path = tmp_path / "net.json"
    assert cli.main(["build", "--kind", "mera2d-b2", "--layers", "3",
                     "--no-elements", "--out", str(path)]) == 0
    expected = tns_from_dict(json.loads(path.read_text()))

    def refuse(*args):
        raise AssertionError("a tnkit file read as JSON objects")

    monkeypatch.setattr(tns_mod, "node_columns", refuse)
    monkeypatch.setattr(tns_mod, "_line_columns", refuse)
    assert_same_network(cli._read_tns(path), expected)


def test_undecodable_bytes_exit_as_text_mode_open(tmp_path, capsys):
    # past the first 8 KiB, so that the position is the file's own
    text = "".join(tns_text(build_mera_2d_b2(3, with_elements=False)))
    at = text.rindex('"w:')
    path = tmp_path / "net.json"
    path.write_bytes(text[:at + 1].encode() + b"\xff" + text[at + 1:].encode())
    with pytest.raises(UnicodeDecodeError) as raised, open(path) as fh:
        fh.read()
    assert raised.value.start > 8192
    assert _map(path, tmp_path / "m", capsys) == (2, "",
                                                  f"error: {raised.value}\n")


def test_hash_collisions_fall_back(monkeypatch):
    # a line end that names no node but hashes as a node's id is matched
    # to that node; the re-encoded text names the node, so the reader
    # refuses the text, as it does when node ids share a hash
    doc = _base()
    end = doc["lines"][2]["b"]
    real, end[0] = end[0], "ghost"
    text = (json.dumps(doc) + "\n").encode()
    hashes = tns_mod._hashes
    padded = np.frombuffer(real.encode() + b" " * 8, np.uint8)
    target = hashes(padded, np.array([0]), np.array([len(real)]))[0]

    def colliding(arr, starts, ends):
        h = hashes(arr, starts, ends)
        h[[arr[a:b].tobytes() == b"ghost"
           for a, b in zip(starts.tolist(), ends.tolist())]] = target
        return h

    monkeypatch.setattr(tns_mod, "_hashes", colliding)
    assert tns_from_bytes(text) is None
    monkeypatch.setattr(tns_mod, "_hashes",
                        lambda arr, starts, ends: np.zeros(len(starts),
                                                           np.uint64))
    assert tns_from_bytes((json.dumps(_base()) + "\n").encode()) is None
