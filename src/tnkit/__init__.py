"""Hierarchical tensor network states, lattice embeddings, and exact
entropy checks at desk scale."""

from .lattice import LatticeSpec
# a network (Tns) is a node table and a line table of int64 columns;
# Tns.nodes (a NodeView of TensorNode records) and Tns.lines (a LineView
# of ContractionLine records) copy a row into a record on each access
from .tns import (KIND_CODES, KIND_NAMES, VARIANTS, ContractionLine,
                  LineView, MeraMeta, NodeView, TensorNode, Tns,
                  build_mera_1d, build_mera_2d_b2, build_mera_2d_b3,
                  build_ttn_example, ttn_cut_size, ttn_gate_schedule,
                  validate_preconditions, tns_from_dict, tns_to_dict,
                  GENERATOR_VERSION)
from .mapping import (CongestionReport, PathAssignment, Peps, Placement,
                      assemble_peps, chi_bound, congestion_csv,
                      default_refined_offsets, detect_stacks,
                      line_density_estimate, map_from_dict, map_to_dict,
                      measured_chi, place_naive, place_refined, place_shifted,
                      read_map, route_lines)
from .dense import (ResourceLimitError, StateVector, contract_to_statevector,
                    entanglement_entropy, states_equal)
from . import qca, stabilizer

__version__ = "0.1.0"
