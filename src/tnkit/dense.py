"""Exact dense contraction for desk-scale networks.

Works on lists of (array, labels) pairs; equal labels are contracted,
labels of the form ("p", site) stay open and define the state vector in
lexicographic site order.  A hard amplitude budget keeps accidental large
contractions from exhausting memory; override it with the environment
variable TNKIT_MAX_AMPLITUDES.
"""

from __future__ import annotations

import heapq
import math
import os
from dataclasses import dataclass

import numpy as np

from .tns import KIND_ANCHOR, KIND_CODES, Tns

DEFAULT_MAX_AMPLITUDES = 2 ** 26


class ResourceLimitError(Exception):
    """A contraction or density matrix would exceed the size budget."""


def amplitude_limit() -> int:
    return int(os.environ.get("TNKIT_MAX_AMPLITUDES", DEFAULT_MAX_AMPLITUDES))


def _contract_pair(a, la, b, lb):
    shared = [l for l in la if l in lb]
    ax_a = [la.index(l) for l in shared]
    ax_b = [lb.index(l) for l in shared]
    out = np.tensordot(a, b, axes=(ax_a, ax_b))
    labels = [l for l in la if l not in shared] + \
             [l for l in lb if l not in shared]
    return out, labels


def _pair_size(a, la, b, lb):
    """Amplitudes of the contraction of two factors."""
    shared = set(la) & set(lb)
    return math.prod(n for arr, ls in ((a, la), (b, lb))
                     for n, l in zip(arr.shape, ls) if l not in shared)


def contract_labeled(factors, open_order=None):
    """Contract a labeled factor list greedily; returns (array, labels).

    Each repeated label must occur exactly twice.  Each step contracts the
    pair of factors sharing a label whose result is smallest, ties going to
    the pair that comes first in factor order (results are appended last).
    When no two factors share a label, the two smallest take an outer
    product.  When open_order is given the result axes are transposed into
    that label order; otherwise labels are sorted.
    """
    limit = amplitude_limit()
    # factors by id in factor order, and the ids carrying each label
    work, owners = {}, {}
    for k, (array, labels) in enumerate(factors):
        if array is None:
            raise ValueError("network carries no elements (symbolic build)")
        work[k] = (np.asarray(array), list(labels))
        for l in labels:
            owners.setdefault(l, []).append(k)
    bad = sorted((str(l) for l, ks in owners.items() if len(ks) > 2))
    if bad:
        raise ValueError(f"labels used more than twice: {', '.join(bad)}")

    # candidate pairs (size, i, j), i < j; pairs with a contracted factor
    # are dropped when popped
    heap = [(_pair_size(*work[i], *work[j]), i, j)
            for i, j in {tuple(ks) for ks in owners.values()
                         if len(ks) == 2 and ks[0] != ks[1]}]
    heapq.heapify(heap)
    next_id = len(factors)
    while len(work) > 1:
        while heap and not (heap[0][1] in work and heap[0][2] in work):
            heapq.heappop(heap)
        if heap:
            size, i, j = heapq.heappop(heap)
        else:
            # disjoint components remain: the two smallest
            i, j = sorted(sorted(work, key=lambda k: work[k][0].size)[:2])
            size = work[i][0].size * work[j][0].size
        if size > limit:
            raise ResourceLimitError(f"contraction of {size} amplitudes "
                                     f"exceeds budget {limit}")
        out, labels = _contract_pair(*work.pop(i), *work.pop(j))
        k, next_id = next_id, next_id + 1
        work[k] = (out, labels)
        neighbours = set()
        for l in labels:
            ks = owners[l]
            ks[:] = [k if o in (i, j) else o for o in ks]
            neighbours.update(o for o in ks if o != k)
        for n in neighbours:
            heapq.heappush(heap, (_pair_size(*work[n], out, labels), n, k))

    array, labels = next(iter(work.values()), (np.array(1.0 + 0j), []))
    if open_order is None:
        open_order = sorted(labels, key=repr)
    if sorted(map(repr, labels)) != sorted(map(repr, open_order)):
        raise ValueError("open labels do not match the requested order")
    perm = [labels.index(l) for l in open_order]
    return np.ascontiguousarray(np.transpose(array, perm)), tuple(open_order)


@dataclass
class StateVector:
    """Flat amplitudes over the listed sites, site order lexicographic."""

    amplitudes: np.ndarray
    sites: tuple
    site_dim: int

    @property
    def num_sites(self) -> int:
        return len(self.sites)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def _network_factors(obj):
    if not isinstance(obj, Tns):
        # an embedded grid network (mapping.Peps)
        return obj.all_factors(), obj.physical_dim
    anchor = (obj.kind == KIND_CODES[KIND_ANCHOR]).tolist()
    cells, bounds = obj.cell.tolist(), obj.dim_offsets.tolist()
    # one label per slot; slot k of node i is entry bounds[i] + k
    labels = [None] * bounds[-1]
    flat = obj.dim_offsets[obj.line_ends] + obj.line_slots
    for lid, a, b, fa, fb in zip(obj.line_id.tolist(), *obj.line_ends.tolist(),
                                 *flat.tolist()):
        end = a if anchor[a] else b if anchor[b] else None
        labels[fa] = labels[fb] = ("l", lid) if end is None else \
            ("p", tuple(cells[end]))
    return [(obj.elements[i], tuple(labels[bounds[i]:bounds[i + 1]]))
            for i, is_anchor in enumerate(anchor) if not is_anchor], \
        obj.physical_dim


def contract_to_statevector(obj) -> StateVector:
    """Contract a hierarchical network or an embedded grid network.

    The result's amplitude array is indexed by the physical sites in
    lexicographic order, flattened row-major.
    """
    factors, phys_dim = _network_factors(obj)
    open_labels = sorted({l for _, labels in factors for l in labels
                          if isinstance(l, tuple) and l[0] == "p"},
                         key=lambda l: l[1])
    size = phys_dim ** len(open_labels)
    if size > amplitude_limit():
        raise ResourceLimitError(f"state of {size} amplitudes exceeds "
                                 f"budget {amplitude_limit()}")
    array, _ = contract_labeled(factors, open_order=open_labels)
    sites = tuple(l[1] for l in open_labels)
    return StateVector(array.reshape(-1), sites, phys_dim)


def _as_amplitudes(state):
    return state.amplitudes if isinstance(state, StateVector) \
        else np.asarray(state).reshape(-1)


def states_equal(a, b, tol: float = 1e-10) -> bool:
    """Equality up to global phase: |<a|b>| >= (1 - tol) |a||b|."""
    va, vb = _as_amplitudes(a), _as_amplitudes(b)
    if va.shape != vb.shape:
        raise ValueError(f"state sizes differ: {va.shape} vs {vb.shape}")
    na, nb = np.linalg.norm(va), np.linalg.norm(vb)
    if na == 0 or nb == 0:
        raise ValueError("zero state has no direction")
    return abs(np.vdot(va, vb)) >= (1 - tol) * na * nb


def _region_axes(state: StateVector, region):
    sites = list(state.sites)
    region = list(region)
    if region and not isinstance(region[0], tuple):
        region = [(q,) for q in region]
    axes = []
    for site in region:
        if site not in sites:
            raise ValueError(f"site {site} not in state")
        axes.append(sites.index(site))
    return sorted(set(axes))


@dataclass
class DensityOperator:
    matrix: np.ndarray
    region: tuple


def reduced_density(state: StateVector, region) -> DensityOperator:
    """Partial trace of |psi><psi| onto the given sites."""
    axes = _region_axes(state, region)
    d = state.site_dim
    n = state.num_sites
    dim_a = d ** len(axes)
    if dim_a ** 2 > amplitude_limit():
        raise ResourceLimitError(f"density matrix of {dim_a}^2 entries "
                                 f"exceeds budget")
    psi = state.amplitudes.reshape((d,) * n)
    keep = axes
    rest = [ax for ax in range(n) if ax not in keep]
    psi = np.transpose(psi, keep + rest).reshape(dim_a, -1)
    rho = psi @ psi.conj().T
    tr = np.trace(rho).real
    if tr > 0:
        rho = rho / tr
    return DensityOperator(rho, tuple(state.sites[ax] for ax in axes))


def entropy_bits(rho: DensityOperator | np.ndarray) -> float:
    """Von Neumann entropy in bits; eigenvalues below 1e-12 are dropped."""
    m = rho.matrix if isinstance(rho, DensityOperator) else np.asarray(rho)
    if not np.allclose(m, m.conj().T, atol=1e-9):
        raise ValueError("density matrix is not Hermitian")
    evals = np.linalg.eigvalsh(m)
    evals = evals[evals > 1e-12]
    return float(-np.sum(evals * np.log2(evals)))


def entanglement_entropy(state: StateVector, region) -> float:
    """Entropy in bits of the reduced state on `region`."""
    return entropy_bits(reduced_density(state, region))
