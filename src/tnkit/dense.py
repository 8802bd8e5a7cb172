"""Exact dense contraction for desk-scale networks.

Works on lists of (array, labels) pairs, as a network's all_factors()
gives them (tns.Tns, mapping.Peps); equal labels are contracted, labels
of the form ("p", site) stay open and define the state vector in
lexicographic site order.  Identity wires, the factors an embedding adds
along each routed line, are renamed away before any dense work: their
two labels become one, and only the real tensors are contracted.  A hard
amplitude budget keeps accidental large contractions from exhausting
memory; override it with the environment variable TNKIT_MAX_AMPLITUDES.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

# the budgets are defined beside the grids, where the builders reach them
from .lattice import ResourceLimitError, amplitude_limit, site_budget


def _contract_pair(a, la, b, lb):
    shared = [l for l in la if l in lb]
    ax_a = [la.index(l) for l in shared]
    ax_b = [lb.index(l) for l in shared]
    out = np.tensordot(a, b, axes=(ax_a, ax_b))
    labels = [l for l in la if l not in shared] + \
             [l for l in lb if l not in shared]
    return out, labels


def _find(parent, c):
    """Root of label code c's class, halving the path on the way."""
    while parent[c] != c:
        parent[c] = c = parent[parent[c]]
    return c


def _drop_wires(work, dims, uses):
    """The factors that are not identity wires, their labels renamed.

    A square two-label factor equal to the identity joins its two labels
    into one class and is dropped.  A class that holds an open label (one
    used once) is named by it.  A wire stays a factor when its labels are
    already joined (a loop) or when both classes hold an open label.  Every
    kept factor is traced over each class it carries twice, a loop of its
    own slots among them.
    """
    parent = list(range(len(dims)))
    is_open = [k == 1 for k in uses]
    kept = []
    for array, codes in work:
        if array.ndim == 2 and array.shape[0] == array.shape[1]:
            a, b = _find(parent, codes[0]), _find(parent, codes[1])
            # the identity by value: n nonzero entries, all on the diagonal
            # and equal to 1
            if a != b and not (is_open[a] and is_open[b]) and \
                    np.count_nonzero(array) == len(array) and \
                    (array.diagonal() == 1).all():
                if is_open[b]:
                    a, b = b, a
                parent[b] = a
                continue
        kept.append((array, codes))
    return [_trace_repeats(array, [_find(parent, c) for c in codes])
            for array, codes in kept]


def _trace_repeats(array, codes):
    """A factor traced over each label it carries twice."""
    for c in [c for k, c in enumerate(codes) if c in codes[:k]]:
        i, j = [k for k, d in enumerate(codes) if d == c]
        array = np.trace(array, axis1=i, axis2=j)
        codes = [d for d in codes if d != c]
    return array, codes


def contract_labeled(factors, open_order=None):
    """Contract a labeled factor list greedily; returns (array, labels).

    Each repeated label must occur exactly twice.  Identity wires are
    renamed away first: a factor equal to the identity on two labels is
    dropped and its labels are joined, an open label keeping its name
    (see _drop_wires); a factor left carrying one label twice is traced
    over it.  Each step then contracts the pair of factors sharing a label
    whose result is smallest, ties going to the pair that comes first in
    factor order (results are appended last).  When no two factors share
    a label, the two smallest take an outer product.  The loop runs on
    integer label codes.  When open_order is given the result axes are
    transposed into that label order; otherwise labels are sorted.
    """
    limit = amplitude_limit()
    # label codes in order of first use, with each code's dim and uses
    code, dims, uses, work = {}, [], [], []
    for array, labels in factors:
        if array is None:
            raise ValueError("network carries no elements (symbolic build)")
        array = np.asarray(array)
        if len(labels) != array.ndim:
            raise ValueError(f"factor of {array.ndim} axes carries "
                             f"{len(labels)} labels")
        codes = []
        for label, n in zip(labels, array.shape):
            c = code.setdefault(label, len(code))
            if c == len(dims):
                dims.append(n)
                uses.append(0)
            elif dims[c] != n:
                raise ValueError(f"label {label!r} has dimensions "
                                 f"{dims[c]} and {n}")
            uses[c] += 1
            codes.append(c)
        work.append((array, codes))
    names = list(code)
    bad = sorted(str(names[c]) for c, k in enumerate(uses) if k > 2)
    if bad:
        raise ValueError(f"labels used more than twice: {', '.join(bad)}")

    work = dict(enumerate(_drop_wires(work, dims, uses)))
    # the ids of the factors carrying each code
    owners = [[] for _ in dims]
    for k, (_, codes) in work.items():
        for c in codes:
            owners[c].append(k)

    def pair_size(i, j):
        """Amplitudes of the contraction of factors i and j."""
        la, lb = work[i][1], work[j][1]
        size = 1
        for c in la:
            if c not in lb:
                size *= dims[c]
        for c in lb:
            if c not in la:
                size *= dims[c]
        return size

    # candidate pairs (size, i, j), i < j; pairs with a contracted factor
    # are dropped when popped
    heap = [(pair_size(i, j), i, j)
            for i, j in {tuple(ks) for ks in owners if len(ks) == 2}]
    heapq.heapify(heap)
    next_id = len(work)
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
        k, next_id = next_id, next_id + 1
        work[k] = _contract_pair(*work.pop(i), *work.pop(j))
        neighbours = set()
        for c in work[k][1]:
            ks = owners[c]
            if len(ks) == 2:
                n = ks[1] if ks[0] == i or ks[0] == j else ks[0]
                ks[:] = n, k
                neighbours.add(n)
        for n in neighbours:
            heapq.heappush(heap, (pair_size(n, k), n, k))

    array, codes = next(iter(work.values()), (np.array(1.0 + 0j), []))
    labels = [names[c] for c in codes]
    if open_order is None:
        open_order = sorted(labels, key=repr)
    if sorted(map(repr, labels)) != sorted(map(repr, open_order)):
        raise ValueError("open labels do not match the requested order")
    perm = [labels.index(l) for l in open_order]
    return np.ascontiguousarray(np.transpose(array, perm)), tuple(open_order)


@dataclass(eq=False)
class StateVector:
    """Flat amplitudes over the listed sites, site order lexicographic."""

    amplitudes: np.ndarray
    sites: tuple
    site_dim: int

    @property
    def num_sites(self) -> int:
        return len(self.sites)


def contract_to_statevector(obj) -> StateVector:
    """Contract any network with all_factors() and physical_dim.

    The result's amplitude array is indexed by the physical sites in
    lexicographic order, flattened row-major.
    """
    factors, phys_dim = obj.all_factors(), obj.physical_dim
    open_labels = sorted({l for _, labels in factors for l in labels
                          if isinstance(l, tuple) and l[0] == "p"},
                         key=lambda l: l[1])
    n, limit = len(open_labels), amplitude_limit()
    if phys_dim ** n > limit:  # a power: str() refuses past 4,300 digits
        raise ResourceLimitError(f"state of {phys_dim}^{n} amplitudes "
                                 f"exceeds budget {limit}")
    array, _ = contract_labeled(factors, open_order=open_labels)
    sites = tuple(l[1] for l in open_labels)
    return StateVector(array.reshape(-1), sites, phys_dim)


def _as_amplitudes(state):
    return state.amplitudes if isinstance(state, StateVector) \
        else np.asarray(state).reshape(-1)


def states_equal(a, b, tol: float = 1e-10) -> bool:
    """Equality up to global phase, |<a|b>|^2 >= (1 - tol)^2 <a|a><b|b>,
    tested as two ratios that are 1 for a state against itself."""
    va, vb = _as_amplitudes(a), _as_amplitudes(b)
    if va.shape != vb.shape:
        raise ValueError(f"state sizes differ: {va.shape} vs {vb.shape}")
    aa, bb, ab = map(abs, map(np.vdot, (va, vb, va), (va, vb, vb)))
    if aa == 0 or bb == 0:
        raise ValueError("zero state has no direction")
    return (ab / aa) * (ab / bb) >= (1 - tol) ** 2


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


def reduced_density(state: StateVector, region) -> np.ndarray:
    """Partial trace of |psi><psi| onto the given sites: the matrix of
    unit trace (unless psi is zero), its axes over the region's sites in
    the state's site order."""
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
    return rho


def entropy_bits(rho: np.ndarray) -> float:
    """Von Neumann entropy in bits of a density matrix; eigenvalues below
    1e-12 are dropped."""
    if not np.allclose(rho, rho.conj().T, atol=1e-9):
        raise ValueError("density matrix is not Hermitian")
    evals = np.linalg.eigvalsh(rho)
    evals = evals[evals > 1e-12]
    return float(-np.sum(evals * np.log2(evals)))


def entanglement_entropy(state: StateVector, region) -> float:
    """Entropy in bits of the reduced state on `region`."""
    return entropy_bits(reduced_density(state, region))
