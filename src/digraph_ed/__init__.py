"""Graph states from directed graphs, and their degree-determined entanglement.

Build a 2^M-amplitude pure state by applying one diagonal controlled-phase
gate per directed edge to a product state, measure entanglement as 1 minus
the mean squared Bloch-vector length per qubit, and cross-check the result
against the closed form driven purely by the vertex degree sequence.
"""

from .digraph import (
    DegreeRecord,
    DirectedGraph,
    GENERATOR_KINDS,
    dump_graph,
    from_json_dict,
    generate,
    graph_hash,
    permute,
    read_graph,
    reverse_edges,
    to_json_dict,
    validate,
)
from .entanglement import (
    DISCREPANCY_TOL,
    EDReport,
    SweepResult,
    alpha_sweep,
    ed_closed_form,
    ed_total,
    ed_totals,
    hs_distance,
    pauli_vector_closed_form,
    verify_and_total,
    verify_graph,
    von_neumann_entropy,
)
from .reference import (
    apply_edge_gate,
    apply_two_qubit_dense,
    commutation_check,
    edge_gate_matrix,
    init_product_state,
    pauli_expectation,
    reduced_density_1q,
)
from .statevector import (
    DEFAULT_MAX_QUBITS,
    DensityMatrix1Q,
    GateParams,
    PauliVector,
    PureState,
    batch_size,
    bloch_arrays,
    bloch_vectors,
    build_graph_state,
    build_graph_states,
)
from .suite import SuiteReport, run_suite
from . import errors

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_MAX_QUBITS",
    "DISCREPANCY_TOL",
    "DegreeRecord",
    "DensityMatrix1Q",
    "DirectedGraph",
    "EDReport",
    "GENERATOR_KINDS",
    "GateParams",
    "PauliVector",
    "PureState",
    "SuiteReport",
    "SweepResult",
    "alpha_sweep",
    "apply_edge_gate",
    "apply_two_qubit_dense",
    "batch_size",
    "bloch_arrays",
    "bloch_vectors",
    "build_graph_state",
    "build_graph_states",
    "commutation_check",
    "dump_graph",
    "ed_closed_form",
    "ed_total",
    "ed_totals",
    "edge_gate_matrix",
    "errors",
    "from_json_dict",
    "generate",
    "graph_hash",
    "hs_distance",
    "init_product_state",
    "pauli_expectation",
    "pauli_vector_closed_form",
    "permute",
    "read_graph",
    "reduced_density_1q",
    "reverse_edges",
    "run_suite",
    "to_json_dict",
    "validate",
    "verify_and_total",
    "verify_graph",
    "von_neumann_entropy",
]
