"""The rebuild reader of tns-v1 against json.

`tns.tns_from_bytes` reads the text tnkit writes for a hierarchical
network without elements by decoding its header and rebuilding the
network the header names, and returns the network only when `tns_text`
of it reproduces the bytes.  On tnkit's own files it must give exactly
what `tns_from_dict(json.loads(text))` gives; on any other text it must
return None, and `cli._read_tns` must then read the file as the json
reader alone does.  The guards that keep it from building are tested
too.
"""

import json
import re

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
    """The binary-tree network without elements: top nodes on
    every layer, four-slot gates, ids with a trailing tag."""
    return build_ttn_example(layers, with_elements=False)


DOCUMENTS = {
    **{f"{kind} T={layers}": (BUILDERS[kind], layers)
       for kind, layers, _ in sorted(MAP_OUTPUT_DIGESTS)},
    # the map-deep shapes, shallower
    **{f"{kind} T={layers}": (BUILDERS[kind], layers)
       for kind in BUILDERS for layers in (1, 2, 3)},
    # a 1D network of branching 2 that no builder of the family makes:
    # the rebuilt network differs, and json reads the file
    "ttn1d T=3": (lambda layers, with_elements: _symbolic_ttn(layers), 3),
}
JSON_ONLY = {"ttn1d T=3"}


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_array_reader_equals_json(tmp_path, name):
    build, layers = DOCUMENTS[name]
    text = "".join(tns_text(build(layers, with_elements=False)))
    got = tns_from_bytes(text.encode())
    expected = tns_from_dict(json.loads(text))
    if name in JSON_ONLY:
        assert got is None
    else:
        assert_same_network(got, expected)
    path = tmp_path / "net.json"
    path.write_text(text)
    assert_same_network(cli._read_tns(path), expected)


@pytest.mark.parametrize("step", [1, 2, 3])
def test_array_reader_at_every_batch_boundary(monkeypatch, step):
    # batches of step entries, so that the rebuilt text is compared
    # against the bytes at every entry
    net = build_mera_2d_b2(2, with_elements=False)
    text = "".join(tns_text(net))
    monkeypatch.setattr(tns_mod, "JSON_SLICE", step)
    assert_same_network(tns_from_bytes(text.encode()),
                        tns_from_dict(json.loads(text)))


def test_empty_network_reads_as_json(tmp_path):
    net = build_mera_1d(1, with_elements=False)
    doc = tns_to_dict(net)
    doc["nodes"], doc["lines"] = [], []
    text = json.dumps(doc) + "\n"
    assert tns_from_bytes(text.encode()) is None
    path = tmp_path / "net.json"
    path.write_text(text)
    assert_same_network(cli._read_tns(path),
                        tns_from_dict(json.loads(text)))


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
    "chi-true": lambda: _edit(lambda d: d.update(chi=True)),
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
    # a file `build --no-elements` writes is rebuilt from its header and
    # never becomes node or line dicts; the header is checked by
    # tns_from_dict over empty node and line lists
    path = tmp_path / "net.json"
    assert cli.main(["build", "--kind", "mera2d-b2", "--layers", "3",
                     "--no-elements", "--out", str(path)]) == 0
    expected = tns_from_dict(json.loads(path.read_text()))

    read = tns_mod.tns_from_dict

    def refuse(document):
        if document["nodes"] or document["lines"]:
            raise AssertionError("a tnkit file read as JSON objects")
        return read(document)

    monkeypatch.setattr(tns_mod, "tns_from_dict", refuse)
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


def _chi_one_true():
    """The text of a chi 1 network, canonical but for "chi": true: the
    rebuilt network would carry chi True and re-encode to the same
    bytes."""
    doc = tns_to_dict(build_mera_2d_b2(2, chi=1, with_elements=False))
    doc["chi"] = True
    return json.dumps(doc) + "\n"


def test_header_passes_the_json_checks(tmp_path, monkeypatch, capsys):
    path = tmp_path / "net.json"
    path.write_text(_chi_one_true())
    assert tns_from_bytes(path.read_bytes()) is None
    got = _map(path, tmp_path / "m", capsys)
    assert got == _json_only(
        monkeypatch, lambda: _map(path, tmp_path / "m", capsys))
    assert got[0] == 2
    assert got[2] == ("error: malformed tns-v1 document: TypeError a count, "
                      "layer, cell, dim, slot or line id is not an integer\n")


def _header_edit(**lattice):
    """The text of b2 T=2 with lattice fields replaced."""
    doc = tns_to_dict(build_mera_2d_b2(2, with_elements=False))
    doc["lattice"].update(lattice)
    return json.dumps(doc) + "\n"


def _empty_b2_t10():
    doc = tns_to_dict(build_mera_2d_b2(1, with_elements=False))
    doc["lattice"].update(length=1024, layers=10)
    doc["nodes"], doc["lines"] = [], []
    return json.dumps(doc) + "\n"


UNBUILT = {
    # 2^20 sites named in a few hundred bytes
    "b2-T10-empty": _empty_b2_t10,
    "no-family-3d": lambda: _header_edit(dimension=3),
    "no-family-1d-b3": lambda: _header_edit(dimension=1, branching=3,
                                            length=9),
    "length-not-a-power": lambda: _header_edit(length=5),
    # b**layers is not taken
    "huge-layers": lambda: _header_edit(layers=10 ** 100),
}


@pytest.mark.parametrize("name", sorted(UNBUILT))
def test_reader_builds_nothing_for_a_header_it_cannot_hold(tmp_path,
                                                           monkeypatch, name):
    text = UNBUILT[name]()

    def refuse(*args):
        raise AssertionError("a network built")

    with monkeypatch.context() as patch:
        patch.setattr(tns_mod, "_build_mera", refuse)
        assert tns_from_bytes(text.encode()) is None
    path = tmp_path / "net.json"
    path.write_text(text)
    try:
        expected = tns_from_dict(json.loads(text))
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            cli._read_tns(path)
    else:
        assert_same_network(cli._read_tns(path), expected)


def test_grid_past_the_site_budget_reads_as_json(tmp_path, monkeypatch):
    # the rebuild refuses a grid past the site budget; json does not
    text = "".join(tns_text(build_mera_2d_b2(3, with_elements=False)))
    monkeypatch.setenv("TNKIT_MAX_AMPLITUDES", str(64 * 63))
    assert tns_from_bytes(text.encode()) is None
    path = tmp_path / "net.json"
    path.write_text(text)
    assert_same_network(cli._read_tns(path), tns_from_dict(json.loads(text)))
