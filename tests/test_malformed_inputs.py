"""Malformed input: every command exits with a code, never a traceback.

One valid network and its refined map are edited one scalar field at a
time and run through the command line in process.  Each run must return
0, 2 (malformed input), 3 (resource limit) or 4 (structural or
verification failure) and raise nothing.
"""

import argparse
import json
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from tnkit import cli, tns
from tnkit.lattice import LatticeSpec
from tnkit.tns import build_mera_1d, tns_from_dict, tns_to_dict

EXIT_CODES = {0, 2, 3, 4}
# one of each kind of wrong value: string, float, bool, null, negative, list
BAD_VALUES = ["2", 2.5, True, None, -1, [1]]


def _leaves(doc, path=()):
    """Key paths of the scalar leaves of doc, elements skipped; lists
    longer than three are sampled at entries 0, 1 and the last."""
    if isinstance(doc, dict):
        items = [(k, v) for k, v in doc.items() if k != "elements"]
    elif isinstance(doc, list):
        keep = range(len(doc)) if len(doc) <= 3 else (0, 1, len(doc) - 1)
        items = [(i, doc[i]) for i in keep]
    else:
        yield path
        return
    for key, value in items:
        yield from _leaves(value, path + (key,))


def _edited(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    tns_path, prefix = work / "net.tns.json", str(work / "net")
    assert cli.main(["build", "--kind", "mera1d", "--layers", "2",
                     "--out", str(tns_path)]) == 0
    assert cli.main(["map", "--tns", str(tns_path), "--scheme", "refined",
                     "--out-prefix", prefix]) == 0
    return work, tns_path, prefix + ".map.json"


def _run_all(work, role, doc, commands):
    """(key path, value, command, outcome) of every run that raises or
    returns a code outside EXIT_CODES."""
    edited = work / f"edited.{role}.json"
    bad = []
    for path in _leaves(doc):
        for value in BAD_VALUES:
            edited.write_text(json.dumps(_edited(doc, path, value)))
            for argv in commands(str(edited)):
                try:
                    code = cli.main(argv)
                except Exception as exc:
                    code = f"{type(exc).__name__}: {exc}"
                if code not in EXIT_CODES:
                    bad.append((path, value, argv[0], code))
    return bad


def test_edited_network_never_raises(documents, capsys):
    work, tns_path, map_path = documents
    doc = json.loads(tns_path.read_text())
    assert len(list(_leaves(doc))) > 25
    bad = _run_all(work, "tns", doc, lambda net: [
        ["map", "--tns", net, "--scheme", "refined",
         "--out-prefix", str(work / "out")],
        ["verify", "--tns", net, "--map", map_path]])
    capsys.readouterr()
    assert bad == []


def test_edited_elements_never_raise(documents, capsys):
    # _leaves skips elements: one entry of a node's elements is edited
    # here, and the list is shortened by one number (an odd count) and by
    # two (a whole amplitude)
    work, tns_path, map_path = documents
    doc = json.loads(tns_path.read_text())
    at = next(i for i, n in enumerate(doc["nodes"]) if n["elements"])
    edits = [(("nodes", at, "elements", 0), value)
             for value in (10 ** 400, "x", [1.0], True, None)]
    edits += [(("nodes", at, "elements"), doc["nodes"][at]["elements"][k:])
              for k in (1, 2)]
    edited = work / "elements.json"
    codes = []
    for path, value in edits:
        edited.write_text(json.dumps(_edited(doc, path, value)))
        for argv in (["map", "--tns", str(edited), "--scheme", "refined",
                      "--out-prefix", str(work / "elements")],
                     ["verify", "--tns", str(edited), "--map", map_path]):
            codes.append(cli.main(argv))
            err = capsys.readouterr().err
            if value == 10 ** 400:
                assert err.startswith(
                    "error: malformed tns-v1 document: OverflowError"), err
            elif path[-1] == "elements":
                assert err.startswith(
                    f"error: malformed tns-v1 document: "
                    f"{doc['nodes'][at]['id']}: {len(value)} numbers in "
                    f"elements, not 2 per amplitude of"), err
    assert set(codes) <= EXIT_CODES
    assert codes[:2] == codes[-4:-2] == codes[-2:] == [2, 2]


def test_edited_symbolic_network_reads_as_json(documents, monkeypatch,
                                               capsys):
    # the same single-field edits on a copy without elements, written as
    # tnkit writes it (json.dumps and a newline), so that each reaches
    # the rebuild reader: it must give the network json gives, or None,
    # and `map` must exit and print as with the json reader alone
    work, tns_path, _ = documents
    doc = json.loads(tns_path.read_text())
    for node in doc["nodes"]:
        node["elements"] = None
    edited = work / "symbolic.json"
    argv = ["map", "--tns", str(edited), "--scheme", "refined",
            "--out-prefix", str(work / "symbolic")]

    def outcome():
        code = cli.main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    # the unedited text is taken
    text = json.dumps(doc) + "\n"
    assert tns.tns_from_bytes(text.encode()) is not None
    for path in _leaves(doc):
        for value in BAD_VALUES:
            text = json.dumps(_edited(doc, path, value)) + "\n"
            edited.write_text(text)
            got = tns.tns_from_bytes(text.encode())
            if got is not None:
                assert tns_to_dict(got) == tns_to_dict(
                    tns_from_dict(json.loads(text))), (path, value)
            result = outcome()
            with monkeypatch.context() as patch:
                patch.setattr(tns, "tns_from_bytes", lambda data: None)
                assert outcome() == result, (path, value)
            assert result[0] in EXIT_CODES


_DEEP = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize("role,member", [
    ("tns", "nodes"), ("tns", None), ("map", "paths"), ("map", None)])
def test_nesting_past_the_decoder_depth_exits_2(documents, capsys, role,
                                                member):
    # the member's value, or the whole file, is the deep array; the
    # member's entries move to a key of no meaning
    work, tns_path, map_path = documents
    files = {"tns": str(tns_path), "map": map_path}
    text = Path(files[role]).read_text()
    deep = work / f"deep.{role}.json"
    deep.write_text(_DEEP if member is None else text.replace(
        f'"{member}": [', f'"{member}": {_DEEP}, "x": [', 1))
    files[role] = str(deep)
    net, routed, out = files["tns"], files["map"], str(work / "deep-out")
    runs = {"tns": [["map", "--tns", net, "--scheme", "refined",
                     "--out-prefix", out]],
            "map": [["render", "--map", routed, "--out", out]]}[role]
    for argv in runs + [["verify", "--tns", net, "--map", routed]]:
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: malformed {role}-v1 document: RecursionError")
        assert list(work.glob("deep-out*")) == []


@pytest.mark.parametrize("value", [{}, {"a": 1}, ""], ids=repr)
@pytest.mark.parametrize("field", ["elements", "dims", "cell"])
@pytest.mark.parametrize("command", ["map", "verify"])
def test_node_field_of_wrong_json_type_exits_2(documents, capsys, command,
                                               field, value):
    work, tns_path, map_path = documents
    doc = json.loads(tns_path.read_text())
    node = next(n for n in doc["nodes"] if n["elements"] is not None)
    node[field] = value
    edited = work / "wrong-type.json"
    edited.write_text(json.dumps(doc))
    argv = {"map": ["map", "--tns", str(edited), "--scheme", "refined",
                    "--out-prefix", str(work / "wrong-type")],
            "verify": ["verify", "--tns", str(edited), "--map", map_path]}
    assert cli.main(argv[command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed tns-v1 document: ")


@pytest.mark.parametrize("edit", [
    lambda node: node["elements"].__setitem__(0, "x"),
    lambda node: node["elements"].__setitem__(0, [1.0]),
    lambda node: node.update(dims=[-2, -2, 2], elements=[0.5] * 16)],
    ids=["string-entry", "list-entry", "two-negative-dims"])
@pytest.mark.parametrize("command", ["map", "verify"])
def test_elements_numpy_refuses_name_the_node(documents, capsys, command,
                                              edit):
    # each of these is refused while the elements are converted; the
    # message names the document and the node
    work, tns_path, map_path = documents
    doc = json.loads(tns_path.read_text())
    node = next(n for n in doc["nodes"] if n["elements"] is not None)
    edit(node)
    edited = work / "numpy-refuses.json"
    edited.write_text(json.dumps(doc))
    argv = {"map": ["map", "--tns", str(edited), "--scheme", "refined",
                    "--out-prefix", str(work / "numpy-refuses")],
            "verify": ["verify", "--tns", str(edited), "--map", map_path]}
    assert cli.main(argv[command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: malformed tns-v1 document: {node['id']}: "), captured.err


@pytest.mark.parametrize("text,shown", [
    ('"2"', "'2'"), ('" 1e3 "', "' 1e3 '"), ("true", "True"),
    ("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"),
    ("1e400", "inf")],
    ids=["numeric-string", "padded-string", "bool", "nan", "infinity",
         "minus-infinity", "past-float64"])
@pytest.mark.parametrize("command", ["map", "verify"])
def test_elements_entries_must_be_finite_numbers(documents, capsys, command,
                                                 text, shown):
    # numpy reads "2" as 2.0 and true as 1.0, and json reads 1e400 as inf;
    # the first entry of a node's elements is written as the raw JSON text
    work, tns_path, map_path = documents
    doc = json.loads(tns_path.read_text())
    node = next(n for n in doc["nodes"] if n["elements"] is not None)
    node["elements"][0] = "@entry@"
    edited = work / "not-finite.json"
    edited.write_text(json.dumps(doc).replace('"@entry@"', text, 1))
    argv = {"map": ["map", "--tns", str(edited), "--scheme", "refined",
                    "--out-prefix", str(work / "not-finite")],
            "verify": ["verify", "--tns", str(edited), "--map", map_path]}
    assert cli.main(argv[command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: malformed tns-v1 document: "
                            f"{node['id']}: elements entry {shown} is not "
                            f"a finite number\n")
    assert list(work.glob("not-finite*")) == [edited]


def test_edited_map_never_raises(documents, capsys):
    work, tns_path, map_path = documents
    doc = json.loads(Path(map_path).read_text())
    assert len(list(_leaves(doc))) > 25
    bad = _run_all(work, "map", doc, lambda routed: [
        ["verify", "--tns", str(tns_path), "--map", routed],
        ["render", "--map", routed, "--out", str(work / "out.svg")]])
    capsys.readouterr()
    assert bad == []


@pytest.mark.parametrize("role,member,value,message", [
    ("map", "offsets", {"a": 1},
     "delta_tau or offsets differ from the ones the refined scheme "
     "writes"),
    ("map", "offsets", None,
     "delta_tau or offsets differ from the ones the refined scheme "
     "writes"),
    ("map", "offsets", {"w": [True]},
     "delta_tau or offsets differ from the ones the refined scheme "
     "writes"),
    ("map", "generator_version", [0], "generator_version is not a string"),
    ("map", "generator_version", 2 ** 63,
     "generator_version is not a string"),
    ("tns", "generator_version", [0], "generator_version is not a string"),
    ("tns", "generator_version", 2 ** 63,
     "generator_version is not a string"),
], ids=["offsets-a", "offsets-null", "offsets-bool", "map-version-list",
        "map-version-2**63", "tns-version-list", "tns-version-2**63"])
def test_members_no_reader_reads_exit_2(documents, capsys, role, member,
                                        value, message):
    # the members a fuzz of the readers once changed without a refusal:
    # both readers now check them against what the writers write
    work, tns_path, map_path = documents
    path = {"map": map_path, "tns": tns_path}[role]
    edited = work / f"member.{role}.json"
    edited.write_text(json.dumps(
        _edited(json.loads(Path(path).read_text()), (member,), value)))
    net, routed = (edited, map_path) if role == "tns" else (tns_path, edited)
    commands = [["verify", "--tns", str(net), "--map", str(routed)]]
    commands.append(["map", "--tns", str(net), "--scheme", "refined",
                     "--out-prefix", str(work / "member")]
                    if role == "tns" else
                    ["render", "--map", str(routed),
                     "--out", str(work / "member.svg")])
    for argv in commands:
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == \
            f"error: malformed {role}-v1 document: TypeError {message}\n"


@pytest.mark.parametrize("field,value,message", [
    ("scheme", "2", "unknown placement scheme '2'"),
    ("scheme", 2.5, "unknown placement scheme 2.5"),
    ("scheme", None, "unknown placement scheme None"),
    ("scheme", [1], "unknown placement scheme [1]"),
])
def test_render_and_verify_share_the_scheme_rules(documents, capsys, field,
                                                  value, message):
    work, tns_path, map_path = documents
    edited = work / "scheme.json"
    edited.write_text(json.dumps(
        _edited(json.loads(Path(map_path).read_text()), (field,), value)))
    errs = []
    for argv in (["verify", "--tns", str(tns_path), "--map", str(edited)],
                 ["render", "--map", str(edited),
                  "--out", str(work / "scheme.svg")]):
        assert cli.main(argv) == 2
        errs.append(capsys.readouterr().err)
    assert errs == [f"error: {message}\n"] * 2


@pytest.mark.parametrize("member,value", [
    ("delta_tau", 1.0), ("delta_tau", True), ("delta_tau", "1"),
    ("delta_tau", None), ("delta_tau", 2), ("delta_tau", 0),
    ("delta_tau", -1), ("delta_tau", 61), ("offsets", {"w": [1]}),
], ids=["1.0", "true", "string-1", "null", "2", "0", "-1", "61",
        "offsets"])
def test_render_and_verify_refuse_members_the_scheme_does_not_fix(
        documents, capsys, member, value):
    # the refined scheme fixes delta_tau 1 and its offsets; one rule of
    # the reader refuses anything else, compared as JSON text
    work, tns_path, map_path = documents
    edited = work / "members.json"
    edited.write_text(json.dumps(
        _edited(json.loads(Path(map_path).read_text()), (member,), value)))
    errs = []
    for argv in (["verify", "--tns", str(tns_path), "--map", str(edited)],
                 ["render", "--map", str(edited),
                  "--out", str(work / "members.svg")]):
        assert cli.main(argv) == 2
        errs.append(capsys.readouterr().err)
    assert errs == ["error: malformed map-v1 document: TypeError delta_tau "
                    "or offsets differ from the ones the refined scheme "
                    "writes\n"] * 2
    assert not (work / "members.svg").exists()


def _timeout(signum, frame):
    raise TimeoutError("map did not finish within a second")


@pytest.mark.parametrize("edit", [
    lambda doc: doc["lattice"].__setitem__("branching", 2.5),
    lambda doc: next(n for n in doc["nodes"] if n["layer"] == 1)
    .__setitem__("layer", -1),
], ids=["fractional-branching", "negative-layer"])
def test_map_rejects_non_integer_geometry_at_once(documents, capsys, edit):
    work, tns_path, _ = documents
    doc = json.loads(tns_path.read_text())
    edit(doc)
    (work / "loop.json").write_text(json.dumps(doc))
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        start = time.perf_counter()
        code = cli.main(["map", "--tns", str(work / "loop.json"),
                         "--scheme", "refined",
                         "--out-prefix", str(work / "loop")])
        elapsed = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 2 and elapsed < 1.0
    assert capsys.readouterr().err.startswith("error: ")


def test_main_builds_the_parser_once(monkeypatch, capsys):
    cli.main([])
    made = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert cli.main([]) == 2
    assert cli.main(["build", "--kind", "ttn1d", "--layers", "1",
                     "--no-elements"]) == 0
    capsys.readouterr()
    assert made == []


def test_elements_round_trip_bit_exact():
    net = build_mera_1d(1)
    node = next(n for n in net.nodes.values() if n.elements is not None)
    # signed zeros, the least subnormal, the extremes of float64 and
    # fractions that take 17 digits; NaN and infinities are refused
    special = [complex(-0.0, 0.0), complex(5e-324, -0.0),
               complex(-1.7976931348623157e308, 2.2250738585072014e-308),
               complex(0.1, -1 / 3)]
    flat = node.elements.reshape(-1).copy()
    flat[:len(special)] = special
    net.elements[net.ids.index(node.id)] = flat.reshape(node.elements.shape)
    back = tns_from_dict(json.loads(json.dumps(tns_to_dict(net))))
    for nid, original in net.nodes.items():
        if original.elements is None:
            assert back.nodes[nid].elements is None
        else:
            read = back.nodes[nid].elements
            assert read.shape == original.elements.shape
            assert read.tobytes() == original.elements.tobytes()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                 float("-inf")])
def test_elements_non_finite_refused_at_write(bad):
    # tns-v1 has no NaN or infinity, so the writer refuses what the
    # reader would
    net = build_mera_1d(1)
    i = next(i for i, e in enumerate(net.elements) if e is not None)
    net.elements[i] = net.elements[i].copy()
    net.elements[i].flat[1] = complex(0.5, bad)
    with pytest.raises(ValueError, match=(
            f"^{net.ids[i]}: elements entry {bad} is not a finite number$")):
        tns_to_dict(net)


@pytest.mark.parametrize("field", ["dimension", "length", "branching",
                                   "layers"])
@pytest.mark.parametrize("value", [True, 2.0])
def test_lattice_spec_rejects_non_integer_fields(field, value):
    sizes = dict(dimension=2, length=4, branching=2, layers=2)
    LatticeSpec(**sizes)
    with pytest.raises(TypeError, match="not an integer"):
        LatticeSpec(**{**sizes, field: value})


def test_contains_takes_only_int_coordinates():
    spec = LatticeSpec(2, 4, 2, 2)
    assert spec.contains((1, 0))
    for site in ((1.0, 0), (True, 0), (np.int64(1), 0), (1, 0.5)):
        assert not spec.contains(site), site
