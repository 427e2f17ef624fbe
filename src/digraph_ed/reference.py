"""Independent statevector oracles: the slow, obvious routes the kernels are checked against.

:func:`apply_edge_gate` (one gate as a per-amplitude phase multiply), the
generic dense 4x4 two-qubit path and :func:`pauli_expectation` are
independent oracles: the tests and the suite cross-validate the fast kernels
of :mod:`digraph_ed.statevector` against them, they are not on the
production path.

That check means something only while the two routes share no code, so this
module imports from :mod:`digraph_ed.statevector` its types and its input
check alone (``GateParams``, ``PureState``, ``PauliVector``,
``DensityMatrix1Q`` and ``_qubit_amplitudes``), never a kernel, and from
:mod:`digraph_ed.errors` its errors and the reader ``integer``; ``statevector``,
``entanglement``, ``digraph`` and ``cli`` import nothing from here.
``tests/test_reference.py`` parses the imports and enforces both.
"""

from __future__ import annotations

import numpy as np

from .errors import IndexOutOfRangeError, SelfLoopError, integer
from .statevector import DensityMatrix1Q, GateParams, PauliVector, PureState, _qubit_amplitudes


def _qubit_slices(state: PureState, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the amplitudes with qubit i fixed to 0 and to 1."""
    i = integer(i, "qubit index", IndexOutOfRangeError)
    if not 0 <= i < state.M:
        raise IndexOutOfRangeError(f"qubit {i} out of range for M={state.M}")
    view = state.amplitudes.reshape((2,) * state.M)
    sel: list = [slice(None)] * state.M
    sel[state.M - 1 - i] = 0
    a0 = view[tuple(sel)]
    sel[state.M - 1 - i] = 1
    a1 = view[tuple(sel)]
    return a0, a1


def edge_gate_matrix(gp: GateParams) -> np.ndarray:
    """The edge gate as a 4x4 matrix in the basis |control, target>."""
    return np.diag(
        [
            1.0,
            1.0,
            np.exp(1j * (gp.theta - gp.psi)),
            np.exp(-1j * (gp.theta + gp.psi)),
        ]
    ).astype(np.complex128)


def init_product_state(M: int, alpha0: complex, alpha1: complex) -> PureState:
    """Uniform product state: every qubit in alpha0|0> + alpha1|1>.

    Amplitude at index k is the product over qubits of alpha0 or alpha1
    according to bit i of k. Requires |alpha0|^2 + |alpha1|^2 = 1 to 1e-12
    and M at most :data:`~digraph_ed.statevector.DEFAULT_MAX_QUBITS`.
    """
    alpha0, alpha1 = _qubit_amplitudes(M, alpha0, alpha1)
    qubit = np.array([alpha0, alpha1], dtype=np.complex128)
    amps = np.array([1.0 + 0.0j])
    for _ in range(M):
        amps = np.kron(qubit, amps)  # new qubit becomes the next-higher bit
    return PureState(M, amps)


def _check_edge(M: int, edge: tuple[int, int]) -> tuple[int, int]:
    a, b = (integer(edge[n], "edge endpoint", IndexOutOfRangeError) for n in (0, 1))
    if not (0 <= a < M and 0 <= b < M):
        raise IndexOutOfRangeError(f"edge ({a}, {b}) out of range for M={M}")
    if a == b:
        raise SelfLoopError(a)
    return a, b


def apply_edge_gate(state: PureState, edge: tuple[int, int], gp: GateParams) -> PureState:
    """One edge gate as a phase multiply on the control=1 half of the state.

    Index k with bit_a(k)=1 picks up e^{i(theta-psi)} when bit_b(k)=0 and
    e^{-i(theta+psi)} when bit_b(k)=1; everything else is untouched, so the
    norm is preserved exactly. Chained over the edges from
    :func:`init_product_state`, this is the gate-by-gate reference that
    :func:`~digraph_ed.statevector.build_graph_state` is checked against.
    """
    a, b = _check_edge(state.M, edge)
    amps = state.amplitudes.copy()
    view = amps.reshape((2,) * state.M)
    sel: list = [slice(None)] * state.M
    sel[state.M - 1 - a] = 1
    sel[state.M - 1 - b] = 0
    view[tuple(sel)] *= np.exp(1j * (gp.theta - gp.psi))
    sel[state.M - 1 - b] = 1
    view[tuple(sel)] *= np.exp(-1j * (gp.theta + gp.psi))
    amps.flags.writeable = False
    return PureState(state.M, amps)


def _apply_two_qubit_dense_raw(
    amps: np.ndarray, M: int, a: int, b: int, matrix: np.ndarray
) -> np.ndarray:
    view = amps.reshape((2,) * M)
    moved = np.moveaxis(view, (M - 1 - a, M - 1 - b), (0, 1)).reshape(4, -1)
    out = np.asarray(matrix, dtype=np.complex128) @ moved
    out = out.reshape((2, 2) + (2,) * (M - 2))
    return np.moveaxis(out, (0, 1), (M - 1 - a, M - 1 - b)).reshape(-1)


def apply_two_qubit_dense(
    state: PureState, edge: tuple[int, int], matrix: np.ndarray
) -> PureState:
    """Generic dense 4x4 two-qubit gate; the cross-validation route.

    ``matrix`` is indexed in the |first, second> basis (row 2*v_a + v_b).
    Deliberately takes no shortcuts for diagonal input.
    """
    a, b = _check_edge(state.M, edge)
    return PureState(state.M, _apply_two_qubit_dense_raw(state.amplitudes, state.M, a, b, matrix))


def pauli_expectation(state: PureState, i: int) -> PauliVector:
    """Expectations of the three Pauli operators on qubit i.

    With a0/a1 the amplitude blocks where bit i is 0/1:
        x + i y = 2 * sum(conj(a0) * a1)   (y sign fixed by sigma_y|0> = i|1>)
        z       = |a0|^2 - |a1|^2
    Each component is divided by <psi|psi> (a Rayleigh quotient). The state
    is already unit-norm to 1e-9 and no amplitude is ever modified; the
    division only stops ulp-level norm rounding from leaking into the
    expectations, e.g. it pins the separable reference point of the ED to
    zero exactly.

    All three sums are pairwise ``np.sum`` reductions of one elementwise
    product: a single long BLAS dot drifts to ~5e-13 at M=20, above the
    fast path this oracle checks.
    """
    a0, a1 = _qubit_slices(state, i)
    t = np.sum(a0.conj() * a1)
    p0 = float(np.sum(a0.conj() * a0).real)
    p1 = float(np.sum(a1.conj() * a1).real)
    nrm = p0 + p1
    return PauliVector(2.0 * t.real / nrm, 2.0 * t.imag / nrm, (p0 - p1) / nrm)


def reduced_density_1q(state: PureState, i: int) -> DensityMatrix1Q:
    """Single-qubit reduced density matrix by partial trace over the rest.

    Entries are divided by the raw trace (the squared state norm) so the
    result traces to one exactly in the common case; this matches the
    Rayleigh-quotient convention of :func:`pauli_expectation`, and like it
    sums each entry pairwise (``np.sum`` of one elementwise product).
    """
    a0, a1 = _qubit_slices(state, i)
    p0 = float(np.sum(a0.conj() * a0).real)
    p1 = float(np.sum(a1.conj() * a1).real)
    tr = p0 + p1
    rho01 = complex(np.sum(a0 * a1.conj())) / tr
    return DensityMatrix1Q(complex(p0 / tr), rho01, np.conj(rho01), complex(p1 / tr))


def commutation_check(gp: GateParams) -> float:
    """Max entrywise magnitude over pairwise commutators of U01, U12, U02.

    Each three-qubit 8x8 operator comes from one application of the dense
    gate path (no diagonality assumed) to the 8x8 identity, read as the
    6-qubit vector ``eye(8).ravel()``: index 8 r + c holds row r on qubits
    3-5 and column c on qubits 0-2, so the gate on qubits a + 3 and b + 3
    maps it to the operator's matrix, row by row. The contract is a result
    below 1e-14 for every parameter choice, since the gates are in fact
    diagonal.
    """
    u4 = edge_gate_matrix(gp)
    eye = np.eye(8, dtype=np.complex128).ravel()
    ops = [
        _apply_two_qubit_dense_raw(eye, 6, a + 3, b + 3, u4).reshape(8, 8)
        for a, b in ((0, 1), (1, 2), (0, 2))
    ]
    worst = 0.0
    for m in range(3):
        for n in range(m + 1, 3):
            comm = ops[m] @ ops[n] - ops[n] @ ops[m]
            worst = max(worst, float(np.max(np.abs(comm))))
    return worst
