"""The per-line assembly that tnkit.mapping.assemble_peps replaced with
array operations, kept as the reference of its factors and sites.

slot_labels gives the slots of a physical leg ("p", cell of its anchor)
and those of any other line ("l", line id).  assemble_peps walks the lines
in line order: a line crossing n >= 1 edges gets the labels ("t", line id,
j) for j < n, and its wires, each with its own np.eye per line, are an
anchor wire when the source is an anchor, then one per inner vertex.
"""

import numpy as np

from tnkit.mapping import Peps, _orientation
from tnkit.tns import KIND_ANCHOR, KIND_CODES

_ANCHOR = KIND_CODES[KIND_ANCHOR]


def slot_labels(tns) -> list:
    """One label per slot, slot k of node i at entry dim_offsets[i] + k:
    both slots of a physical leg carry ("p", cell of its anchor), those
    of any other line ("l", line id)."""
    anchor = (tns.kind == _ANCHOR).tolist()
    cells = tns.cell.tolist()
    labels = [None] * int(tns.dim_offsets[-1])
    flat = tns.dim_offsets[tns.line_ends] + tns.line_slots
    for lid, a, b, fa, fb in zip(tns.line_id.tolist(), *tns.line_ends.tolist(),
                                 *flat.tolist()):
        end = a if anchor[a] else b if anchor[b] else None
        labels[fa] = labels[fb] = ("l", lid) if end is None else \
            ("p", tuple(cells[end]))
    return labels


def assemble_peps(tns, p, paths) -> Peps:
    """The embedding of a routed placement, one line at a time."""
    anchor = (tns.kind == _ANCHOR).tolist()
    label_of = slot_labels(tns)
    ends = _orientation(tns)
    # the source's slot is the a end's when the source is the a end
    slots = np.where(ends[0] == tns.line_ends[0], tns.line_slots,
                     tns.line_slots[::-1])
    # the paths cover the lines, as check_routing requires
    row = paths.line_ids.searchsorted(tns.line_id)
    wires, at = [], []  # the wires and their vertex indices

    for lid, dim, src, src_slot, dst_slot, start, end in zip(
            tns.line_id.tolist(), tns.line_dim.tolist(), ends[0].tolist(),
            *(tns.dim_offsets[ends] + slots).tolist(),
            paths.offsets[row].tolist(), paths.offsets[row + 1].tolist()):
        if end - start == 1:
            # a line of length 0 keeps its label
            continue
        eye = np.eye(dim)
        labels = [("t", lid, j) for j in range(end - start - 1)]
        if anchor[src]:
            wires.append((eye, (label_of[src_slot], labels[0])))
            at.append(start)
        else:
            label_of[src_slot] = labels[0]
        label_of[dst_slot] = labels[-1]
        wires += [(eye, pair) for pair in zip(labels, labels[1:])]
        at += range(start + 1, end - 1)

    return Peps(p.lattice, tns.physical_dim,
                tns.all_factors(label_of) + wires,
                np.concatenate((p.sites[tns.kind != _ANCHOR],
                                paths.vertices[at])))
