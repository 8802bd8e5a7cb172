"""Command line front end: build networks, map them onto lattices, verify
embeddings, scan entropies, and render placements as SVG.

Exit codes: 0 success, 2 invalid arguments, 3 resource limit, 4
verification or cross-check failure.

`main` pauses the cyclic garbage collector while a command runs, because
commands create no reference cycles (a test checks each one) and reference
counting alone frees what they allocate.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import sys

import numpy as np

from . import dense, mapping, qca, stabilizer, tns as tns_mod
from .lattice import ResourceLimitError, check_grid, malformed
from .tns import GENERATOR_VERSION

_BUILDERS = {
    "mera1d": lambda a: tns_mod.build_mera_1d(a.layers, a.chi, a.phys_dim,
                                              a.seed, not a.no_elements),
    "mera2d-b2": lambda a: tns_mod.build_mera_2d_b2(a.layers, a.chi,
                                                    a.phys_dim, a.seed,
                                                    not a.no_elements),
    "mera2d-b3": lambda a: tns_mod.build_mera_2d_b3(a.layers, a.chi,
                                                    a.phys_dim, a.seed,
                                                    not a.no_elements),
    "ttn1d": lambda a: tns_mod.build_ttn_example(a.layers),
}


@contextlib.contextmanager
def _output(path):
    """The file to write, standard output for None or "-"."""
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _write(path, *texts):
    with _output(path) as fh:
        fh.writelines(texts)


def _load_json(path):
    """The map-v1 document of a file."""
    with open(path) as fh, malformed("map-v1"):
        return json.load(fh)


# the documents are trees made fresh by tns_to_dict or map_to_dict, with
# no cycle to look for; one encoder serves every slice
_ENCODER = json.JSONEncoder(check_circular=False)


def _write_json(path, first: dict, parts: dict):
    """Write json.dumps(document) and a newline.  first is the document
    with only the first JSON_SLICE entries of each key of parts, which
    are its last keys, in the same order; parts[key] is the key's count
    of entries and a function that gives a list of them for a range.
    The entries past the first are encoded JSON_SLICE at a time, so that
    neither the document nor its text is ever whole."""
    step, dumps = tns_mod.JSON_SLICE, _ENCODER.encode
    text = dumps({k: v for k, v in first.items() if k not in parts})
    with _output(path) as fh:
        # the other members, then each part in place of the closing brace
        fh.write(text[:-1])
        sep = ", " if len(text) > 2 else ""
        for key, (count, entries) in parts.items():
            fh.write(f"{sep}{dumps(key)}: {dumps(first[key])[:-1]}")
            sep = ", "
            for start in range(step, count, step):
                text = dumps(entries(slice(start, start + step)))
                fh.write(f", {text[1:-1]}")
            fh.write("]")
        fh.write("}\n")


def _read_tns(path) -> tns_mod.Tns:
    """tns_from_dict of a tns-v1 file.  Its top-level object is walked by
    hand, each member's value decoded by one call of json's scanner.  The
    nodes become columns before the next member is decoded, so that in
    the order tnkit writes the decoded node list is freed before the
    lines are decoded; every other member is kept as decoded, and
    tns_from_dict makes the line columns once the text is freed.  The
    text is read as json.load reads it: any key order or whitespace, the
    last of repeated keys, and ValueError for anything but one JSON
    value, or for nesting past the decoder's depth."""
    with open(path) as fh:
        text = fh.read()
    space = json.decoder.WHITESPACE.match
    pos = space(text).end()
    if not text.startswith("{", pos):
        # not an object: json and tns_from_dict name the fault
        with malformed("tns-v1"):
            return tns_mod.tns_from_dict(json.loads(text))
    decode = json.JSONDecoder().raw_decode
    data, pos = {}, space(text, pos + 1).end()
    more = not text.startswith("}", pos)
    while more:
        if not text.startswith('"', pos):
            raise json.JSONDecodeError("Expecting property name enclosed in "
                                       "double quotes", text, pos)
        key, pos = json.decoder.scanstring(text, pos + 1)
        pos = space(text, pos).end()
        if not text.startswith(":", pos):
            raise json.JSONDecodeError("Expecting ':' delimiter", text, pos)
        with malformed("tns-v1"):
            value, pos = decode(text, space(text, pos + 1).end())
        if key == "nodes":
            # a list node_columns refuses stays as decoded, and
            # tns_from_dict refuses it again unless a later member
            # replaces it
            with contextlib.suppress(ValueError):
                value = tns_mod.node_columns(value)
        data[key] = value
        del value
        pos = space(text, pos).end()
        more = text.startswith(",", pos)
        if more:
            pos = space(text, pos + 1).end()
        elif not text.startswith("}", pos):
            raise json.JSONDecodeError("Expecting ',' delimiter", text, pos)
    pos = space(text, pos + 1).end()
    if pos != len(text):
        raise json.JSONDecodeError("Extra data", text, pos)
    del text
    return tns_mod.tns_from_dict(data)


def _print_issues(report) -> int:
    """Each precondition issue on stderr; the exit code of the report."""
    for issue in report.issues:
        print(f"  {issue}", file=sys.stderr)
    return 0 if report.ok else 4


def cmd_build(args) -> int:
    network = _BUILDERS[args.kind](args)
    to_dict = functools.partial(tns_mod.tns_to_dict, network)
    first = slice(tns_mod.JSON_SLICE)
    _write_json(args.out, to_dict(first, first), {
        "nodes": (len(network.ids),
                  lambda part: to_dict(part, slice(0))["nodes"]),
        "lines": (len(network.line_id),
                  lambda part: to_dict(slice(0), part)["lines"])})
    report = tns_mod.validate_preconditions(network)
    spec = network.spec
    print(f"built {args.kind}: {spec.dimension}D L={spec.length} "
          f"layers={spec.layers} nodes={len(network.ids)} "
          f"lines={len(network.line_id)} preconditions="
          f"{'ok' if report.ok else 'VIOLATED'}")
    return _print_issues(report)


def cmd_map(args) -> int:
    network = _read_tns(args.tns)
    code = _print_issues(tns_mod.validate_preconditions(network))
    if code:
        return code
    placement = mapping.place(network, args.scheme, args.delta_tau)
    paths = mapping.route_lines(network, placement)
    report = mapping.measured_chi(network, paths)
    # both figures first, so that a chi they refuse leaves no file
    log_all = report.log_chi_peps(network.meta.chi)
    log_int = report.log_chi_peps(network.meta.chi, include_physical=False)
    to_dict = functools.partial(mapping.map_to_dict, placement, paths)
    _write_json(args.out_prefix + ".map.json",
                to_dict(lines=slice(tns_mod.JSON_SLICE)), {
        "paths": (len(paths.line_ids),
                  lambda part: to_dict(slice(0), part)["paths"])})
    del paths, to_dict
    _write(args.out_prefix + ".congestion.csv",
           mapping.congestion_csv(report))

    stacks = mapping.detect_stacks(placement)
    bound = mapping.chi_bound(network.meta, network.spec.dimension)
    print(f"scheme: {args.scheme} (host L={placement.lattice.length}, "
          f"refine {placement.refine_factor})")
    print(f"max stack height: {stacks.max_height}")
    print(f"paths per edge: max {report.max_paths()} "
          f"(interior {report.max_paths(include_physical=False)})")
    print(f"chi_peps: {report.chi_peps()} (log_chi {log_all:.3f}); "
          f"interior {report.chi_peps(include_physical=False)} "
          f"(log_chi {log_int:.3f})")
    print(f"log-chi bound: {bound}; measured within bound: "
          f"{'yes' if log_all <= bound else 'NO'}")
    return 0


def cmd_verify(args) -> int:
    if not 0 <= args.tol < 1:
        raise ValueError(f"--tol must lie in [0, 1), got {args.tol}")
    network = _read_tns(args.tns)
    data = _load_json(args.map)
    placement, paths = mapping.map_from_dict(data, network)

    issues = tns_mod.validate_preconditions(network).issues
    problem = issues[0] if issues else \
        mapping.check_routing(network, placement, paths)
    if problem is not None:
        print(f"structural error: {problem}")
        return 4

    peps = mapping.assemble_peps(network, placement, paths)
    reference = dense.contract_to_statevector(network)
    embedded = dense.contract_to_statevector(peps)
    if dense.states_equal(reference, embedded, tol=args.tol):
        print(f"PASS embedded state matches "
              f"(chi_peps {peps.congestion.chi_peps()})")
        return 0
    print("FAIL embedded state differs from the network state")
    return 4


def _entropy_ttn(args):
    rows = ["T,L,cut_size,S"]
    for layers in range(1, args.layers_max + 1, 2):
        try:
            run = stabilizer.run_ttn_example(layers)
        except ResourceLimitError as exc:
            # keep the depths already finished
            print(f"resource limit: {exc}", file=sys.stderr)
            return rows, 3
        rows.append(f"{layers},{2 ** layers},{len(run.region)},{run.entropy}")
    return rows, 0


def _entropy_qca(args):
    try:
        lengths = [int(x) for x in args.lengths.split(",") if x]
    except ValueError:
        raise ValueError(f"--lengths must be comma-separated integers, "
                         f"got {args.lengths!r}") from None
    if not lengths:
        raise ValueError(f"--lengths names no length: {args.lengths!r}")
    odd = next((n for n in lengths if n < 4 or n % 2), None)
    if odd is not None:
        raise ValueError(f"--lengths must be even and >= 4, got {odd}")
    if args.cut == "random" and args.cuts < 1:
        raise ValueError(f"--cuts must be >= 1 with --cut random, "
                         f"got {args.cuts}")
    if args.cut == "random" and args.seed < 0:
        # the cuts of a row are seeded with seed + L + 97 T
        raise ValueError(f"--seed must be >= 0 with --cut random, "
                         f"got {args.seed}")
    # every grid fits the site budget before the first row is computed
    for length in lengths:
        qca.check_sites(args.dimension, length)
    rows_data = []
    code = 0
    try:
        for length in lengths:
            ps0 = qca.initial_pairs(args.dimension, length)
            for layers in range(1, args.layers_max + 1):
                ps = qca.evolve(ps0, layers)
                if args.cut == "half":
                    cuts = [("half",
                             qca.half_cut_region(args.dimension, length))]
                else:
                    rng = np.random.default_rng(args.seed + length
                                                + 97 * layers)
                    cuts = [(f"rand{i}", qca.random_connected_region(
                        args.dimension, length, rng))
                            for i in range(args.cuts)]
                if args.cross_check:
                    state = stabilizer.run_qca(args.dimension, length,
                                               layers)
                for cut_id, region in cuts:
                    s = qca.entropy_across(ps, region)
                    rows_data.append((args.dimension, length, layers,
                                      cut_id, s))
                    if args.cross_check:
                        s2 = stabilizer.entanglement_entropy(
                            state, stabilizer.region_qubits(region, length))
                        if s2 != s:
                            print(f"cross-check FAILED at L={length} "
                                  f"T={layers} {cut_id}: pair count {s}, "
                                  f"stabilizer {s2}", file=sys.stderr)
                            code = 4
    except ResourceLimitError as exc:
        # the tableau ran out: keep the rows already finished; a failed
        # cross-check keeps its exit code
        print(f"resource limit: {exc}", file=sys.stderr)
        code = code or 3
    half_rows = [(l, t, s) for d, l, t, c, s in rows_data if c == "half"]
    if half_rows:
        c_fit = sum(s / (l ** (args.dimension - 1) * t)
                    for l, t, s in half_rows) / len(half_rows)
    else:
        c_fit = None
    rows = ["D,L,T,cut_id,S,predicted"]
    for d, l, t, cut_id, s in rows_data:
        # the fit needs half-cut rows; without them the field stays blank
        pred = "" if c_fit is None else f"{c_fit * l ** (d - 1) * t:.6f}"
        rows.append(f"{d},{l},{t},{cut_id},{s},{pred}")
    if args.cross_check and code == 0:
        print("cross-check: pair tracker and stabilizer agree on all rows",
              file=sys.stderr)
    return rows, code


def cmd_entropy(args) -> int:
    # each driver checks its flags before it computes a row
    if args.layers_max < 1:
        raise ValueError(f"--layers-max must be >= 1, got {args.layers_max}")
    rows, code = (_entropy_ttn(args) if args.family == "ttn1d"
                  else _entropy_qca(args))
    _write(args.out, "\n".join(rows) + "\n")
    return code


_MARKER_STYLE = {
    "u": ("circle", "#cc6677"), "u2x2": ("circle", "#cc6677"),
    "u2x1": ("circle", "#ddaa33"), "u1x2": ("circle", "#88ccee"),
    "g": ("circle", "#cc6677"), "w": ("square", "#4477aa"),
    "t": ("diamond", "#117733"), "p": ("dot", "#555555"),
}


def cmd_render(args) -> int:
    _, spec, _, nids, coords, paths = mapping.read_map(_load_json(args.map))
    dim, length = spec.dimension, spec.length
    if dim > 2:
        raise ValueError("rendering supports 1 and 2 dimensions")
    check_grid("render", length, dim)
    scale, margin = 28, 30

    def xy(site):
        x = site[0]
        y = site[1] if dim == 2 else 0
        return margin + scale * x, margin + scale * y

    width = margin * 2 + scale * (length - 1)
    height = margin * 2 + scale * ((length - 1) if dim == 2 else 0)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f"<!-- generated by {GENERATOR_VERSION} -->",
        f'<rect width="{width}" height="{height}" fill="#fdfdfb"/>',
    ]
    for site in spec.sites():
        px, py = xy(site)
        parts.append(f'<circle cx="{px}" cy="{py}" r="1.5" fill="#cccccc"/>')
    # pixel positions of every path vertex and site, in Python ints
    vertices = list(map(xy, paths.vertices.tolist()))
    ends = paths.offsets.tolist()
    for lid, a, b in zip(paths.line_ids.tolist(), ends, ends[1:]):
        if b - a < 2:
            continue
        pts = " ".join("{},{}".format(*v) for v in vertices[a:b])
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="#4477aa" stroke-width="2" opacity="0.35">'
                     f'<title>line {lid}</title></polyline>')
    by_site: dict[tuple, list[str]] = {}
    for nid, point in sorted(zip(nids, map(xy, coords.tolist()))):
        by_site.setdefault(point, []).append(nid)
    for point in sorted(by_site):
        for i, nid in enumerate(by_site[point]):
            shape, color = _MARKER_STYLE.get(nid.split(":")[0],
                                             ("circle", "#999999"))
            px, py = point[0] + 3 * i, point[1] - 3 * i
            title = f"<title>{nid}</title>"
            if shape == "square":
                parts.append(f'<rect x="{px - 6}" y="{py - 6}" width="12" '
                             f'height="12" fill="{color}">{title}</rect>')
            elif shape == "diamond":
                parts.append(f'<rect x="{px - 5}" y="{py - 5}" width="10" '
                             f'height="10" fill="{color}" transform='
                             f'"rotate(45 {px} {py})">{title}</rect>')
            elif shape == "dot":
                parts.append(f'<circle cx="{px}" cy="{py}" r="2.5" '
                             f'fill="{color}">{title}</circle>')
            else:
                parts.append(f'<circle cx="{px}" cy="{py}" r="7" '
                             f'fill="{color}">{title}</circle>')
    parts.append("</svg>")
    _write(args.out, "\n".join(parts) + "\n")
    return 0


@functools.cache
def _build_parser():
    """The argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="tnkit",
        description="hierarchical tensor networks on scale lattices")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a network and write tns-v1 JSON")
    b.add_argument("--kind", required=True, choices=sorted(_BUILDERS))
    b.add_argument("--layers", type=int, required=True)
    b.add_argument("--chi", type=int, default=2)
    b.add_argument("--phys-dim", type=int, default=2)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--no-elements", action="store_true")
    b.add_argument("--out", default="-")
    b.set_defaults(func=cmd_build)

    m = sub.add_parser("map", help="place and route a network")
    m.add_argument("--tns", required=True)
    m.add_argument("--scheme", required=True,
                   choices=("naive", "shifted", "refined"))
    m.add_argument("--delta-tau", type=int, default=1)
    m.add_argument("--out-prefix", required=True)
    m.set_defaults(func=cmd_map)

    v = sub.add_parser("verify", help="check an embedding against its network")
    v.add_argument("--tns", required=True)
    v.add_argument("--map", required=True)
    v.add_argument("--tol", type=float, default=1e-10)
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("entropy", help="entropy scans as CSV")
    e.add_argument("--family", required=True, choices=("ttn1d", "qca"))
    e.add_argument("--layers-max", type=int, default=5)
    e.add_argument("--dimension", type=int, default=2, choices=(1, 2))
    e.add_argument("--lengths", default="12,16,20")
    e.add_argument("--cut", default="half", choices=("half", "random"))
    e.add_argument("--cuts", type=int, default=3)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--cross-check", action="store_true")
    e.add_argument("--out", default="-")
    e.set_defaults(func=cmd_entropy)

    r = sub.add_parser("render", help="draw a placement as SVG")
    r.add_argument("--map", required=True)
    r.add_argument("--out", default="-")
    r.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
