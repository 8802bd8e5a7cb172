"""Outside-in layer timing for tnkit.

A Tracer replaces the public functions of tnkit's modules with wrappers
that record one span per call: its name, its duration and the time its
child spans covered, so each span's self time is its duration minus its
children's.  Wrapping happens on the module attributes that the command
line looks up at call time, so nothing in the package changes, and
`uninstall` puts every original back.

Counts are recorded at the same boundaries from the arguments and results
of the wrapped calls.  The time spent taking a count is charged to no
span.
"""

from __future__ import annotations

import functools
import time

from checks import ANCHOR_KIND

# (module, attribute, span, count hook name or None, outer_only).  A
# dotted attribute names a method.  An outer_only span opens only when
# called from outside its layer, so report queries made by the CSV writer
# or by another query stay in their caller's self time.
WRAPS = (
    ("cli", "main", "cli", None, False),
    ("tns", "build_mera_1d", "tns.build", "built", False),
    ("tns", "build_mera_2d_b2", "tns.build", "built", False),
    ("tns", "build_mera_2d_b3", "tns.build", "built", False),
    ("tns", "build_ttn_example", "tns.build", "built", False),
    ("tns", "validate_preconditions", "tns.validate", None, False),
    ("tns", "tns_to_dict", "tns.to_dict", None, False),
    ("tns", "tns_from_dict", "tns.from_dict", None, False),
    ("mapping", "place_naive", "mapping.place", None, False),
    ("mapping", "place_shifted", "mapping.place", None, False),
    ("mapping", "place_refined", "mapping.place", None, False),
    ("mapping", "route_lines", "mapping.route", "routed", False),
    ("mapping", "measured_chi", "mapping.tally", "tallied", False),
    ("mapping", "CongestionReport.paths_through", "mapping.report", None,
     True),
    ("mapping", "CongestionReport.bond_dim_of", "mapping.report", None, True),
    ("mapping", "CongestionReport.max_paths", "mapping.report", None, True),
    ("mapping", "CongestionReport.busiest_edge", "mapping.report", None,
     True),
    ("mapping", "CongestionReport.chi_peps", "mapping.report", None, True),
    ("mapping", "CongestionReport.log_chi_peps", "mapping.report", None,
     True),
    ("mapping", "detect_stacks", "mapping.report", None, True),
    ("mapping", "chi_bound", "mapping.report", None, True),
    ("mapping", "congestion_csv", "mapping.csv", None, False),
    ("mapping", "map_to_dict", "mapping.map_to_dict", None, False),
    ("mapping", "map_from_dict", "mapping.map_from_dict", None, False),
    ("mapping", "assemble_peps", "mapping.assemble", "assembled", False),
    ("dense", "contract_to_statevector", "dense.contract", "contracted",
     False),
    ("dense", "states_equal", "dense.states_equal", None, False),
    ("stabilizer", "run_ttn_example", "stabilizer.gates", "tree_run", False),
    ("stabilizer", "run_qca", "stabilizer.gates", "qca_run", False),
    ("stabilizer", "entanglement_entropy", "stabilizer.entropy", "entropy",
     False),
    ("stabilizer", "region_qubits", "stabilizer.entropy", None, False),
    ("qca", "evolve", "qca.evolve", None, False),
    ("qca", "half_cut_region", "qca.regions", None, False),
    ("qca", "random_connected_region", "qca.regions", None, False),
    ("qca", "entropy_across", "qca.entropy_across", None, False),
)

SPANS = tuple(dict.fromkeys(span for _, _, span, _, _ in WRAPS))

COUNTS = {
    "tns.nodes": "count", "tns.lines": "count", "tns.json_bytes": "bytes",
    "mapping.edge_crossings": "count", "mapping.edges_used": "count",
    "mapping.map_json_bytes": "bytes", "mapping.wire_share": "ratio",
    "dense.factors": "count", "dense.amplitudes": "count",
    "stabilizer.gates": "count", "stabilizer.qubits": "count",
    "stabilizer.gates_per_s": "1/s",
    "stabilizer.entropy.region_qubits": "count",
    "stabilizer.entropy.rank_share": "ratio",
    "trace.overhead": "ratio",
}

PER_LAYER_METRICS = {
    **{f"{span}.{stat}": unit for span in SPANS
       for stat, unit in (("calls", "count"), ("self_s", "s"))},
    **COUNTS,
}


class Tracer:
    """Span and count totals of the calls made while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = dict.fromkeys(SPANS, 0)
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.totals: dict[str, float] = {}
        self._stack: list[list] = []   # [layer, child seconds] per open span
        self._saved: list[tuple] = []
        self._qca_gates: dict[tuple, tuple[int, int]] = {}
        self._modules = None

    def add(self, name: str, value: float) -> None:
        self.totals[name] = self.totals.get(name, 0) + value

    def wrap(self, fn, span, hook=None, outer_only=False):
        layer = span.split(".")[0]
        clock, stack = self.clock, self._stack
        count = getattr(self, "_count_" + hook) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if outer_only and stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.calls[span] += 1
                self.self_s[span] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if count is not None:
                start = clock()
                count(args, result)
                if stack:
                    stack[-1][1] += clock() - start
            return result

        return traced

    def install(self, modules) -> None:
        """Wrap every entry of WRAPS; modules maps short names to the
        imported tnkit modules."""
        self._modules = modules
        for mod_name, attr, span, hook, outer_only in WRAPS:
            owner = modules[mod_name]
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, name)
            self._saved.append((owner, name, original))
            setattr(owner, name, self.wrap(original, span, hook, outer_only))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # count hooks: (call arguments, result) -> None

    def _count_built(self, args, net):
        self.add("tns.nodes", len(net.nodes))
        self.add("tns.lines", len(net.lines))

    def _count_routed(self, args, paths):
        self.add("mapping.edge_crossings",
                 sum(len(chain) - 1 for chain in paths.chains.values()))

    def _count_tallied(self, args, report):
        self.add("mapping.edges_used", len(report.edge_lines))

    def _count_assembled(self, args, peps):
        net, placement = args[0], args[1]
        factors = sum(len(fs) for fs in peps.site_factors.values())
        tensors = len(net.nodes) - len(placement.anchor_ids)
        self.add("mapping.factors", factors)
        self.add("mapping.wires", factors - tensors)

    def _count_contracted(self, args, state):
        obj = args[0]
        if hasattr(obj, "site_factors"):
            factors = sum(len(fs) for fs in obj.site_factors.values())
        else:
            factors = sum(nd.kind != ANCHOR_KIND for nd in obj.nodes.values())
        self.add("dense.factors", factors)
        self.add("dense.amplitudes", state.amplitudes.size)

    def _count_tree_run(self, args, run):
        self.add("stabilizer.gates", len(run.schedule))
        self.add("stabilizer.qubits", run.state.num_qubits)

    def _count_qca_run(self, args, state):
        dimension, length, layers = args[:3]
        key = (dimension, length)
        if key not in self._qca_gates:
            qca = self._modules["qca"]
            self._qca_gates[key] = (
                len(qca.initial_pairs(dimension, length).pairs),
                sum(len(qca.sublayer_swaps(dimension, length, offset))
                    for offset in (0, 1)))
        pairs, swaps_per_layer = self._qca_gates[key]
        self.add("stabilizer.gates", pairs + layers * swaps_per_layer)
        self.add("stabilizer.qubits", state.num_qubits)

    def _count_entropy(self, args, entropy):
        state, region = args[0], args[1]
        k = len(set(int(q) for q in region))
        self.add("stabilizer.entropy.region_qubits", k)
        self.add("stabilizer.entropy.pivots", entropy + k)
        self.add("stabilizer.entropy.rows", state.num_qubits)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics except trace.overhead, which needs the
        untraced run."""
        out = {}
        for span in SPANS:
            out[f"{span}.calls"] = self.calls[span]
            out[f"{span}.self_s"] = self.self_s[span]
        t = self.totals
        for name in COUNTS:
            out[name] = t.get(name, 0)
        del out["trace.overhead"]
        out["mapping.wire_share"] = _ratio(t.get("mapping.wires", 0),
                                           t.get("mapping.factors", 0))
        out["stabilizer.gates_per_s"] = _ratio(
            t.get("stabilizer.gates", 0), self.self_s["stabilizer.gates"])
        out["stabilizer.entropy.rank_share"] = _ratio(
            t.get("stabilizer.entropy.pivots", 0),
            t.get("stabilizer.entropy.rows", 0))
        return out


def _ratio(num, den):
    return num / den if den else 0.0
