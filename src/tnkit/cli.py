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
import functools
import gc
import io
import json
import sys

import numpy as np

from . import dense, mapping, qca, stabilizer, tns as tns_mod
from .lattice import ResourceLimitError, check_grid, malformed, site_budget
from .tns import GENERATOR_VERSION


def _build_ttn(args) -> tns_mod.Tns:
    """The binary-tree network: its gates are fixed, so --chi and
    --phys-dim must be 2 and --seed draws nothing."""
    if (args.chi, args.phys_dim) != (2, 2):
        raise ValueError(f"--kind ttn1d has lines of dimension 2: --chi "
                         f"and --phys-dim must be 2, got {args.chi} and "
                         f"{args.phys_dim}")
    return tns_mod.build_ttn_example(args.layers, not args.no_elements)


_BUILDERS = {
    "mera1d": lambda a: tns_mod.build_mera_1d(a.layers, a.chi, a.phys_dim,
                                              a.seed, not a.no_elements),
    "mera2d-b2": lambda a: tns_mod.build_mera_2d_b2(a.layers, a.chi,
                                                    a.phys_dim, a.seed,
                                                    not a.no_elements),
    "mera2d-b3": lambda a: tns_mod.build_mera_2d_b3(a.layers, a.chi,
                                                    a.phys_dim, a.seed,
                                                    not a.no_elements),
    "ttn1d": _build_ttn,
}


def _write(path, texts) -> None:
    """Write the strings of texts, a list or a generator of batches, to
    the file at path, or to standard output for None or "-"."""
    if path in (None, "-"):
        sys.stdout.writelines(texts)
    else:
        with open(path, "w") as fh:
            fh.writelines(texts)


def _load_json(path):
    """The map-v1 document of a file."""
    with open(path) as fh, malformed("map-v1"):
        return json.load(fh)


def _read_tns(path) -> tns_mod.Tns:
    """tns_from_dict of a tns-v1 file, read once as bytes.  The text that
    `build --no-elements` writes is rebuilt from its header by
    tns_from_bytes, which returns the network json would give, or None
    for any other text.  That text is decoded as a text-mode open() reads
    it and parsed by json.loads, so that the file is read by json's
    grammar whichever reader takes it; the text is freed before the
    columns are made."""
    with open(path, "rb") as fh:
        data = fh.read()
    network = tns_mod.tns_from_bytes(data)
    if network is not None:
        return network
    text = io.TextIOWrapper(io.BytesIO(data)).read()
    del data
    with malformed("tns-v1"):
        document = json.loads(text)
    del text
    return tns_mod.tns_from_dict(document)


def _print_issues(issues) -> int:
    """Each precondition issue on stderr; 4 if there is any, else 0."""
    for issue in issues:
        print(f"  {issue}", file=sys.stderr)
    return 4 if issues else 0


def cmd_build(args) -> int:
    network = _BUILDERS[args.kind](args)
    _write(args.out, tns_mod.tns_text(network))
    issues = tns_mod.validate_preconditions(network)
    spec = network.spec
    print(f"built {args.kind}: {spec.dimension}D L={spec.length} "
          f"layers={spec.layers} nodes={len(network.ids)} "
          f"lines={len(network.line_id)} preconditions="
          f"{'VIOLATED' if issues else 'ok'}")
    return _print_issues(issues)


def cmd_map(args) -> int:
    network = _read_tns(args.tns)
    code = _print_issues(tns_mod.validate_preconditions(network))
    if code:
        return code
    placement = mapping.place(network, args.scheme)
    paths = mapping.route_lines(network, placement)
    report = mapping.measured_chi(network, paths)
    # the figure first, so that a chi it refuses leaves no file
    log_all = report.log_chi_peps(network.meta.chi)
    _write(args.out_prefix + ".map.json", mapping.map_text(placement, paths))
    del paths
    _write(args.out_prefix + ".congestion.csv", mapping.congestion_csv(report))
    # made after the writes, which then peak without it
    interior = report.interior()
    log_int = interior.log_chi_peps(network.meta.chi)

    bound = mapping.chi_bound(network.meta, network.spec.dimension)
    print(f"scheme: {args.scheme} (host L={placement.lattice.length}, "
          f"refine {placement.refine_factor})")
    print(f"max stack height: {mapping.detect_stacks(placement)}")
    print(f"paths per edge: max {report.max_paths()} "
          f"(interior {interior.max_paths()})")
    print(f"chi_peps: {report.chi_peps()} (log_chi {log_all:.3f}); "
          f"interior {interior.chi_peps()} "
          f"(log_chi {log_int:.3f})")
    print(f"log-chi bound: {bound}; measured within bound: "
          f"{'yes' if log_all <= bound else 'NO'}")
    return 0


def cmd_verify(args) -> int:
    if not 0 <= args.tol < 1:
        raise ValueError(f"--tol must lie in [0, 1), got {args.tol}")
    network = _read_tns(args.tns)
    placement, paths = mapping.map_from_dict(_load_json(args.map), network)

    issues = tns_mod.validate_preconditions(network)
    problem = issues[0] if issues else \
        mapping.check_routing(network, placement, paths)
    if problem is not None:
        print(f"structural error: {problem}")
        return 4

    # past the amplitude budget, refused before anything is assembled
    reference = dense.contract_to_statevector(network)
    peps = mapping.assemble_peps(network, placement, paths)
    report = mapping.measured_chi(network, paths)
    embedded = dense.contract_to_statevector(peps)
    if dense.states_equal(reference, embedded, tol=args.tol):
        print(f"PASS embedded state matches "
              f"(chi_peps {report.chi_peps()})")
        return 0
    print("FAIL embedded state differs from the network state")
    return 4


def _entropy_ttn(args):
    if args.cross_check:
        raise ValueError("--cross-check applies to --family qca")
    rows = ["T,L,cut_size,S"]
    run = None
    for layers in range(1, args.layers_max + 1, 2):
        try:
            # each depth's tableau grows from the last one's, which it frees
            run = stabilizer.run_ttn_example(layers, run)
        except ResourceLimitError as exc:
            # keep the depths already finished
            print(f"resource limit: {exc}", file=sys.stderr)
            return rows, 3
        rows.append(f"{layers},{2 ** layers},{len(run.region)},{run.entropy}")
        # the next depth takes only the state: the schedule, 50 MB at
        # T=21, is not held beside the T=23 tableau
        run.schedule = None
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
    # every grid fits the site budget before the first row is computed,
    # and so does the number of rows
    for length in lengths:
        qca.check_sites(args.dimension, length)
    count = len(lengths) * args.layers_max * \
        (args.cuts if args.cut == "random" else 1)
    if count > site_budget():
        raise ResourceLimitError(f"{count} entropy rows exceed the site "
                                 f"budget {site_budget()}")
    rows_data = []
    code = 0
    try:
        for length in lengths:
            ps0 = qca.initial_pairs(args.dimension, length)
            if args.cross_check:
                # the rotated pairs once per length; each layer is then
                # one row gather through the layer's qubit permutation
                state = stabilizer.run_qca(args.dimension, length, 0)
                step = qca.layer_permutation(args.dimension, length)
            for layers in range(1, args.layers_max + 1):
                ps = qca.evolve(ps0, layers)
                if args.cut == "half":
                    cuts = [("half",
                             qca.half_cut_region(args.dimension, length))]
                else:
                    rng = np.random.default_rng(args.seed + length
                                                + 97 * layers)
                    # each region is drawn when its row is computed
                    cuts = ((f"rand{i}", qca.random_connected_region(
                        args.dimension, length, rng))
                            for i in range(args.cuts))
                if args.cross_check:
                    stabilizer.permute_qubits(state, step)
                for cut_id, region in cuts:
                    s = qca.entropy_across(ps, region)
                    rows_data.append((args.dimension, length, layers,
                                      cut_id, s))
                    if args.cross_check:
                        s2 = stabilizer.entanglement_entropy(state, region)
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
    # the fit needs half-cut rows; random cuts leave the field blank
    c_fit = None
    if args.cut == "half" and rows_data:
        c_fit = sum(s / (l ** (d - 1) * t)
                    for d, l, t, _, s in rows_data) / len(rows_data)
    rows = ["D,L,T,cut_id,S,predicted"]
    for d, l, t, cut_id, s in rows_data:
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
    _write(args.out, ["\n".join(rows) + "\n"])
    return code


_MARKER_STYLE = {
    "u": ("circle", "#cc6677"), "u2x2": ("circle", "#cc6677"),
    "u2x1": ("circle", "#ddaa33"), "u1x2": ("circle", "#88ccee"),
    "g": ("circle", "#cc6677"), "w": ("square", "#4477aa"),
    "t": ("diamond", "#117733"), "p": ("dot", "#555555"),
}


def cmd_render(args) -> int:
    _, spec, nids, coords, paths = mapping.read_map(_load_json(args.map))
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
    _write(args.out, ["\n".join(parts) + "\n"])
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
    m.add_argument("--scheme", required=True, choices=tuple(mapping.SCHEMES))
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
