"""Output checkers for the benchmark jobs.

Every verdict here is computed from the files and text the command line
wrote, with the standard library only: nothing is asked of tnkit.  Each
checker returns a list of problems; an empty list accepts the output.
"""

from __future__ import annotations

import math
import re

ANCHOR_KIND = "physical-anchor"


def _fmt_site(site):
    return ";".join(str(c) for c in site)


def _line_table(tns):
    """Line id -> (node a, node b, dim) of a tns-v1 document."""
    return {ld["id"]: (ld["a"][0], ld["b"][0], ld["dim"])
            for ld in tns["lines"]}


def check_paths(tns, routed):
    """Every line has one path that joins its endpoints' sites with unit
    steps, stays on the open host grid and is L1-shortest."""
    problems = []
    lat = routed["lattice"]
    if lat["boundary"] != "open":
        return [f"host boundary {lat['boundary']!r} is not open"]
    length = lat["length"]
    site_of = {nid: tuple(site) for nid, site in routed["sites"]}
    chains = {lid: [tuple(v) for v in chain] for lid, chain in routed["paths"]}
    lines = _line_table(tns)
    if set(chains) != set(lines):
        problems.append(f"paths cover {len(chains)} lines, network has "
                        f"{len(lines)}")
    for lid in sorted(set(chains) & set(lines)):
        na, nb, _ = lines[lid]
        if na not in site_of or nb not in site_of:
            problems.append(f"line {lid}: endpoint without a site")
            continue
        ends = {site_of[na], site_of[nb]}
        chain = chains[lid]
        if not chain or {chain[0], chain[-1]} != ends:
            problems.append(f"line {lid}: path does not join its endpoints")
            continue
        off = [v for v in chain if any(not 0 <= c < length for c in v)]
        if off:
            problems.append(f"line {lid}: leaves the host grid at {off[0]}")
        if any(sum(abs(x - y) for x, y in zip(a, b)) != 1
               for a, b in zip(chain, chain[1:])):
            problems.append(f"line {lid}: path makes a non-unit step")
        l1 = sum(abs(x - y) for x, y in zip(site_of[na], site_of[nb]))
        if len(chain) - 1 != l1:
            problems.append(f"line {lid}: {len(chain) - 1} steps, "
                            f"L1 distance {l1}")
    return problems


def recount(tns, routed, include_physical=True):
    """Edge -> (paths, bond_dim) recounted from the routed paths."""
    lines = _line_table(tns)
    anchors = {nd["id"] for nd in tns["nodes"] if nd["kind"] == ANCHOR_KIND}
    tally = {}
    for lid, chain in routed["paths"]:
        na, nb, dim = lines[lid]
        if not include_physical and (na in anchors or nb in anchors):
            continue
        for a, b in zip(chain, chain[1:]):
            edge = tuple(sorted((tuple(a), tuple(b))))
            paths, bond = tally.get(edge, (0, 1))
            tally[edge] = (paths + 1, bond * dim)
    return tally


def check_csv(tns, routed, csv_text):
    """The congestion CSV equals a recount of the routed paths, row for
    row and in sorted edge order."""
    rows = csv_text.splitlines()
    if not rows or rows[0] != "edge_a,edge_b,paths,bond_dim":
        return ["congestion CSV header is missing"]
    expected = [f"{_fmt_site(a)},{_fmt_site(b)},{paths},{bond}"
                for (a, b), (paths, bond) in sorted(recount(tns, routed)
                                                    .items())]
    got = rows[1:]
    if got == expected:
        return []
    problems = [f"congestion CSV has {len(got)} rows, recount gives "
                f"{len(expected)}"]
    for want, have in zip(expected, got):
        if want != have:
            problems.append(f"first differing row: {have!r}, recount "
                            f"{want!r}")
            break
    return problems


_CHI_LINE = re.compile(r"^chi_peps: (\d+) \(log_chi ([0-9.]+)\); "
                       r"interior (\d+) \(log_chi ([0-9.]+)\)$", re.M)


def check_map_summary(tns, routed, csv_text, stdout, plateau=None):
    """The printed chi_peps equals the largest CSV bond_dim, the printed
    interior figure equals a recount without physical legs, and, when a
    plateau is given, the interior log_chi reads that value."""
    match = _CHI_LINE.search(stdout)
    if match is None:
        return ["map summary has no chi_peps line"]
    chi_all, _, chi_int, log_int = match.groups()
    problems = []
    bonds = [int(row.rsplit(",", 1)[1]) for row in csv_text.splitlines()[1:]]
    if int(chi_all) != max(bonds, default=1):
        problems.append(f"printed chi_peps {chi_all}, largest CSV bond_dim "
                        f"{max(bonds, default=1)}")
    interior = max((bond for _, bond in recount(tns, routed, False).values()),
                   default=1)
    if int(chi_int) != interior:
        problems.append(f"printed interior chi {chi_int}, recount {interior}")
    chi = tns["meta"]["chi"]
    if f"{math.log(interior) / math.log(chi):.3f}" != log_int:
        problems.append(f"printed interior log_chi {log_int} does not match "
                        f"chi {interior}")
    if plateau is not None and log_int != plateau:
        problems.append(f"interior log_chi {log_int}, plateau is {plateau}")
    return problems


def _csv_rows(text, header):
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != header:
        return None
    return [ln.split(",") for ln in lines[1:]]


def check_ttn_rows(stdout, layers_max):
    """Rows (T, 2**T, (2**T + 1) / 3, (T + 1) / 2) for odd T up to
    layers_max: the trailing cut p_{T+2} = 4 p_T - 1 has the closed form
    (2**T + 1) / 3, and its entropy grows by one bit per two layers."""
    rows = _csv_rows(stdout, "T,L,cut_size,S")
    if rows is None:
        return ["ttn1d output has no T,L,cut_size,S header"]
    expected = [[str(t), str(2 ** t), str((2 ** t + 1) // 3),
                 str((t + 1) // 2)] for t in range(1, layers_max + 1, 2)]
    if rows == expected:
        return []
    for want, have in zip(expected, rows):
        if want != have:
            return [f"ttn1d row {','.join(have)}, expected {','.join(want)}"]
    return [f"ttn1d output has {len(rows)} rows, expected {len(expected)}"]


def check_qca_rows(stdout, dimension, lengths, layers_max, cut, cuts):
    """One row per (L, T, cut) in order, with integer entropies; half-cut
    rows in two dimensions obey S = 2 L (2 T - 1) while the pairs do not
    wrap around the grid.  The predicted column is not checked: its fit
    reads 0 on every random-cut row."""
    rows = _csv_rows(stdout, "D,L,T,cut_id,S,predicted")
    if rows is None:
        return ["qca output has no D,L,T,cut_id,S,predicted header"]
    cut_ids = ["half"] if cut == "half" else [f"rand{i}" for i in range(cuts)]
    keys = [(str(dimension), str(length), str(t), cid)
            for length in lengths for t in range(1, layers_max + 1)
            for cid in cut_ids]
    if [tuple(r[:4]) for r in rows] != keys:
        return [f"qca rows do not enumerate (L, T, cut) for L={lengths}, "
                f"T<={layers_max}, cuts {cut_ids}"]
    problems = []
    for d, length, t, cid, s, _ in rows:
        if not s.isdigit():
            problems.append(f"qca row L={length} T={t} {cid}: S={s!r}")
        elif cid == "half" and d == "2" \
                and int(s) != 2 * int(length) * (2 * int(t) - 1):
            problems.append(f"half cut L={length} T={t}: S={s}, law gives "
                            f"{2 * int(length) * (2 * int(t) - 1)}")
    return problems


def check_exit(step, code, expected):
    if code != expected:
        return [f"{step} exited {code}, expected {expected}"]
    return []
