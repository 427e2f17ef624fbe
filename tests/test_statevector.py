"""Statevector engine tests: kernels, expectations, and cross-validation."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from digraph_ed.digraph import DirectedGraph, generate
from digraph_ed.entanglement import pauli_vector_closed_form
from digraph_ed.errors import (
    BadParamsError,
    CapacityError,
    DigraphEdError,
    IndexOutOfRangeError,
    NotNormalizedError,
    SelfLoopError,
)
from digraph_ed import reference, statevector
from digraph_ed.reference import (
    apply_edge_gate,
    apply_two_qubit_dense,
    commutation_check,
    edge_gate_matrix,
    init_product_state,
    pauli_expectation,
    reduced_density_1q,
)
from digraph_ed.statevector import (
    DensityMatrix1Q,
    GateParams,
    PauliVector,
    PureState,
    bloch_vectors,
    build_graph_state,
)

INV_SQRT2 = 2**-0.5


class TestGateParams:
    def test_canonicalization(self):
        gp = GateParams(3 * math.pi, -3 * math.pi)
        assert -math.pi <= gp.theta < math.pi
        assert -math.pi <= gp.psi < math.pi
        assert math.isclose(math.cos(gp.theta), math.cos(3 * math.pi), abs_tol=1e-12)

    def test_boundary_maps_into_half_open_interval(self):
        assert GateParams(math.pi, 0.0).theta == -math.pi
        assert GateParams(-math.pi, 0.0).theta == -math.pi

    def test_non_finite_rejected(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(BadParamsError):
                GateParams(bad, 0.0)
            with pytest.raises(BadParamsError):
                GateParams(0.0, bad)

    @pytest.mark.parametrize("bad", ["1.0", 1j, None])
    def test_an_angle_that_is_no_real_number_is_refused(self, bad):
        # each once escaped as a bare TypeError from math.isfinite
        for theta, psi in ((bad, 0.0), (0.5, bad)):
            with pytest.raises(BadParamsError) as info:
                GateParams(theta, psi)
            assert str(info.value) == (
                f"gate angles must be real numbers, got ({theta!r}, {psi!r})"
            )

    @pytest.mark.parametrize("strict", [False, True], ids=["warnings", "warnings_as_errors"])
    @pytest.mark.parametrize(
        "bad",
        [np.complex128(1 + 2j), np.complex64(1), np.array(1 + 2j)],
        ids=["complex128", "complex64", "complex_0d_array"],
    )
    def test_a_numpy_complex_is_refused_as_a_python_complex_is(self, bad, strict):
        # math.isfinite once read np.complex128(1 + 2j) as theta = 1.0, warning twice
        with warnings.catch_warnings():
            warnings.simplefilter("error" if strict else "always")
            for theta, psi in ((bad, 0.0), (0.5, bad)):
                with pytest.raises(BadParamsError) as info:
                    GateParams(theta, psi)
                assert str(info.value) == (
                    f"gate angles must be real numbers, got ({theta!r}, {psi!r})"
                )

    def test_floats_ints_and_numpy_floats_are_angles(self):
        want = GateParams(0.5, 2.0)
        assert GateParams(np.float64(0.5), 2) == want
        assert GateParams(np.float32(0.5), np.int64(2)) == want
        assert GateParams(0.5, np.float64(2.0)) == want


class TestPureState:
    def test_no_qubits_is_refused(self):
        with pytest.raises(IndexOutOfRangeError) as info:
            PureState(0, np.array([1.0]))
        assert str(info.value) == "M must be positive, got 0"

    def test_norm_enforced(self):
        with pytest.raises(NotNormalizedError):
            PureState(1, np.array([1.0, 1.0]))
        with pytest.raises(NotNormalizedError):
            PureState(2, np.array([1.0, 0.0]))  # wrong length

    def test_amplitudes_frozen(self):
        st = init_product_state(1, 1.0, 0.0)
        with pytest.raises(ValueError):
            st.amplitudes[0] = 0.0


class TestInitProductState:
    def test_no_qubits_is_refused(self):
        with pytest.raises(IndexOutOfRangeError) as info:
            init_product_state(0, 1.0, 0.0)
        assert str(info.value) == "M must be positive, got 0"

    def test_all_zero_ket(self):
        st = init_product_state(1, 1.0, 0.0)
        np.testing.assert_array_equal(st.amplitudes, [1.0, 0.0])

    def test_plus_plus(self):
        st = init_product_state(2, INV_SQRT2, INV_SQRT2)
        np.testing.assert_allclose(st.amplitudes, [0.25**0.5] * 4, rtol=0, atol=1e-15)

    def test_asymmetric_amplitude_oracle(self):
        # amplitude at k=5 (bits 101) is 0.8 * 0.6 * 0.8 = 0.384
        st = init_product_state(3, 0.6, 0.8)
        for k in range(8):
            want = oracles.product_amplitude(3, 0.6, 0.8, k)
            assert abs(st.amplitudes[k] - want) < 1e-15
        assert abs(st.amplitudes[5] - 0.384) < 1e-15

    def test_complex_alphas(self):
        a0 = 0.6 * np.exp(0.3j)
        a1 = 0.8 * np.exp(-1.1j)
        st = init_product_state(3, a0, a1)
        for k in (0, 3, 7):
            assert abs(st.amplitudes[k] - oracles.product_amplitude(3, a0, a1, k)) < 1e-15

    def test_not_normalized(self):
        with pytest.raises(NotNormalizedError):
            init_product_state(2, 0.6, 0.7)

    def test_qubit_cap(self, monkeypatch):
        # the engine reads its cap at call time
        monkeypatch.setattr(statevector, "DEFAULT_MAX_QUBITS", 4)
        with pytest.raises(CapacityError):
            init_product_state(5, INV_SQRT2, INV_SQRT2)
        init_product_state(4, INV_SQRT2, INV_SQRT2)


class TestEdgeGate:
    def test_identity_at_zero_angles(self):
        st = init_product_state(2, 0.6, 0.8)
        out = apply_edge_gate(st, (0, 1), GateParams(0.0, 0.0))
        np.testing.assert_array_equal(out.amplitudes, st.amplitudes)

    def test_cz_at_right_angles(self):
        # theta = psi = pi/2 makes the gate exactly controlled-Z
        u4 = edge_gate_matrix(GateParams(math.pi / 2, math.pi / 2))
        np.testing.assert_allclose(u4, np.diag([1, 1, 1, -1]), rtol=0, atol=1e-15)
        st = PureState(2, np.array([0, 0, 0, 1.0]))
        out = apply_edge_gate(st, (0, 1), GateParams(math.pi / 2, math.pi / 2))
        assert abs(out.amplitudes[3] + 1.0) < 1e-15
        st10 = PureState(2, np.array([0, 1.0, 0, 0]))  # bit0=1, bit1=0
        out10 = apply_edge_gate(st10, (0, 1), GateParams(math.pi / 2, math.pi / 2))
        assert abs(out10.amplitudes[1] - 1.0) < 1e-15

    def test_phases_on_plus_plus(self):
        # theta=pi/3, psi=0: control-set amplitudes pick up e^{+-i pi/3}
        st = init_product_state(2, INV_SQRT2, INV_SQRT2)
        out = apply_edge_gate(st, (0, 1), GateParams(math.pi / 3, 0.0))
        want = 0.5 * np.array(
            [1.0, np.exp(1j * math.pi / 3), 1.0, np.exp(-1j * math.pi / 3)]
        )
        np.testing.assert_allclose(out.amplitudes, want, rtol=0, atol=1e-15)

    def test_matches_dense_operator_oracle(self):
        rng = np.random.default_rng(91)
        for M in (2, 3, 5):
            amps = oracles.random_state(rng, M)
            a, b = rng.choice(M, size=2, replace=False)
            theta, psi = rng.uniform(-math.pi, math.pi, size=2)
            out = apply_edge_gate(PureState(M, amps), (int(a), int(b)), GateParams(theta, psi))
            full = oracles.dense_edge_operator(M, int(a), int(b), oracles.u4_controlled(theta, psi))
            np.testing.assert_allclose(out.amplitudes, full @ amps, rtol=0, atol=1e-14)

    def test_norm_preserved_exactly(self):
        rng = np.random.default_rng(17)
        amps = oracles.random_state(rng, 6)
        out = apply_edge_gate(PureState(6, amps), (2, 5), GateParams(1.1, -0.7))
        n_in = float(np.vdot(amps, amps).real)
        n_out = float(np.vdot(out.amplitudes, out.amplitudes).real)
        assert abs(n_out - n_in) < 1e-14

    def test_edge_errors(self):
        st = init_product_state(2, INV_SQRT2, INV_SQRT2)
        with pytest.raises(SelfLoopError):
            apply_edge_gate(st, (1, 1), GateParams(0.3, 0.0))
        with pytest.raises(IndexOutOfRangeError):
            apply_edge_gate(st, (0, 2), GateParams(0.3, 0.0))


class TestDensePath:
    def test_fast_path_equals_dense_path(self):
        rng = np.random.default_rng(23)
        for M in range(2, 9):
            amps = oracles.random_state(rng, M)
            a, b = rng.choice(M, size=2, replace=False)
            gp = GateParams(*rng.uniform(-math.pi, math.pi, size=2))
            st = PureState(M, amps)
            fast = apply_edge_gate(st, (int(a), int(b)), gp)
            dense = apply_two_qubit_dense(st, (int(a), int(b)), edge_gate_matrix(gp))
            np.testing.assert_allclose(fast.amplitudes, dense.amplitudes, rtol=0, atol=1e-14)

    def test_dense_path_with_non_diagonal_gate(self):
        # the dense route is generic: check it against the full-matrix oracle
        rng = np.random.default_rng(29)
        h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        u4 = np.kron(h, h)
        amps = oracles.random_state(rng, 4)
        out = apply_two_qubit_dense(PureState(4, amps), (3, 1), u4)
        full = oracles.dense_edge_operator(4, 3, 1, u4)
        np.testing.assert_allclose(out.amplitudes, full @ amps, rtol=0, atol=1e-14)


class TestBuildGraphState:
    def test_empty_graph_is_product_state(self):
        st = build_graph_state(DirectedGraph(3, ()), GateParams(0.9, 0.2))
        np.testing.assert_array_equal(
            st.amplitudes, init_product_state(3, INV_SQRT2, INV_SQRT2).amplitudes
        )

    def test_single_edge_cz_graph_state(self):
        st = build_graph_state(DirectedGraph(2, ((0, 1),)), GateParams(math.pi / 2, math.pi / 2))
        np.testing.assert_allclose(
            st.amplitudes, [0.5, 0.5, 0.5, -0.5], rtol=0, atol=1e-15
        )

    def test_edge_order_free(self):
        g = generate("erdos_renyi", 7, {"p": 0.6}, seed=3)
        gp = GateParams(1.2, 0.5)
        ref = build_graph_state(g, gp)
        rng = np.random.default_rng(0)
        for _ in range(3):
            order = rng.permutation(g.num_edges)
            shuffled = DirectedGraph(g.M, tuple(g.edges[i] for i in order))
            st = build_graph_state(shuffled, gp)
            np.testing.assert_allclose(st.amplitudes, ref.amplitudes, rtol=0, atol=1e-15)

    def test_pair_graph_is_built_with_no_keyword(self):
        # the edge policy belongs to where a graph enters; the engine builds
        # any structurally valid graph, a 2-cycle included
        g = DirectedGraph(2, ((0, 1), (1, 0)))
        gp = GateParams(0.4, 0.0)
        st = build_graph_state(g, gp)
        np.testing.assert_allclose(
            st.amplitudes, _edge_gate_chain(g, gp, INV_SQRT2, INV_SQRT2), rtol=0, atol=1e-15
        )
        rows = statevector.build_graph_states([g, g], [gp, gp])
        assert rows[1].tobytes() == st.amplitudes.tobytes()


def _edge_gate_chain(g, gp, alpha0, alpha1):
    state = init_product_state(g.M, alpha0, alpha1)
    for edge in g.edges:
        state = apply_edge_gate(state, edge, gp)
    return state.amplitudes


def _dense_chain(g, gp, alpha0, alpha1):
    amps = np.array(
        [oracles.product_amplitude(g.M, alpha0, alpha1, k) for k in range(1 << g.M)]
    )
    u4 = oracles.u4_controlled(gp.theta, gp.psi)
    for a, b in g.edges:
        amps = oracles.dense_edge_operator(g.M, a, b, u4) @ amps
    return amps


KERNEL_CASES = {
    "antiparallel_pairs": (
        DirectedGraph(4, ((0, 1), (1, 0), (2, 3), (3, 2), (1, 2), (3, 0))),
        INV_SQRT2,
        INV_SQRT2,
    ),
    "complex_non_uniform_alphas": (
        generate("erdos_renyi", 6, {"p": 0.5}, seed=8),
        0.6 * np.exp(0.3j),
        0.8 * np.exp(-1.1j),
    ),
    "single_qubit": (DirectedGraph(1, ()), 0.8j, 0.6),
    "all_edges_downward": (
        DirectedGraph(5, ((4, 0), (4, 2), (3, 1), (2, 0), (1, 0), (4, 3))),
        0.6,
        0.8,
    ),
}


class TestDoublingKernel:
    """build_graph_state against the gate-by-gate and dense-operator routes."""

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_matches_edge_gate_chain_and_dense_operators(self, case):
        g, alpha0, alpha1 = KERNEL_CASES[case]
        for gp in (GateParams(0.7, -1.3), GateParams(math.pi / 2, math.pi / 2), GateParams(-2.9, 0.4)):
            st = build_graph_state(g, gp, alpha0, alpha1)
            np.testing.assert_allclose(
                st.amplitudes, _edge_gate_chain(g, gp, alpha0, alpha1), rtol=0, atol=1e-14
            )
            np.testing.assert_allclose(
                st.amplitudes, _dense_chain(g, gp, alpha0, alpha1), rtol=0, atol=1e-14
            )

    def test_empty_graph_is_product_state_bit_for_bit(self):
        for M in range(1, 9):
            for alpha0, alpha1 in ((INV_SQRT2, INV_SQRT2), (0.6, 0.8j), (1.0, 0.0)):
                st = build_graph_state(DirectedGraph(M, ()), GateParams(1.1, 0.4), alpha0, alpha1)
                np.testing.assert_array_equal(
                    st.amplitudes, init_product_state(M, alpha0, alpha1).amplitudes
                )

    def test_makes_no_edge_gate_calls(self, monkeypatch):
        calls = []
        real = reference.apply_edge_gate

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(reference, "apply_edge_gate", counting)
        build_graph_state(generate("complete_dag", 6), GateParams(0.9, 0.1))
        assert calls == []
        reference.apply_edge_gate(init_product_state(2, 0.6, 0.8), (0, 1), GateParams(0.9))
        assert len(calls) == 1  # the counter sees calls made through the module

    def test_capacity_and_alpha_checks(self, monkeypatch):
        g = generate("path", 4)
        monkeypatch.setattr(statevector, "DEFAULT_MAX_QUBITS", 4)
        with pytest.raises(CapacityError):
            build_graph_state(generate("path", 5), GateParams(0.3))
        build_graph_state(g, GateParams(0.3))
        with pytest.raises(NotNormalizedError):
            build_graph_state(g, GateParams(0.3), 0.6, 0.7)

    def test_state_owns_its_frozen_buffer(self):
        st = build_graph_state(generate("cycle", 4), GateParams(0.5, 0.2))
        assert st.amplitudes.flags.owndata and not st.amplitudes.flags.writeable

    def test_adopts_its_buffer_with_no_copy_at_m18(self):
        # one state is a batch of one: the state adopts the batch's buffer
        g = generate("erdos_renyi", 18, {"p": 0.3}, seed=1)
        build_graph_state(generate("path", 3), GateParams(0.5))
        tracemalloc.start()
        try:
            st = build_graph_state(g, GateParams(0.7, 0.3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        amps = st.amplitudes
        assert amps.base is None and amps.flags.owndata and not amps.flags.writeable
        assert peak < 1.25 * amps.nbytes  # a copy would double it

    def test_batch_rows_are_frozen_and_norm_checked(self, monkeypatch):
        graphs = [generate("path", 4), generate("star_in", 4), generate("cycle", 4)]
        gps = [GateParams(0.3), GateParams(1.1, 0.2), GateParams(-2.0, 0.7)]
        amps = statevector.build_graph_states(graphs, gps, 0.6, 0.8j)
        assert amps.shape == (3, 16) and not amps.flags.writeable
        with pytest.raises(ValueError):
            statevector.build_graph_states(graphs + [generate("path", 5)], gps + gps[:1])
        monkeypatch.setattr(statevector, "DEFAULT_MAX_QUBITS", 3)
        with pytest.raises(CapacityError):
            statevector.build_graph_states(graphs, gps)

    def test_every_row_initial_state_is_checked(self):
        graphs = [generate("path", 3)] * 3
        gps = [GateParams(0.4)] * 3
        statevector.build_graph_states(graphs, gps, [1.0, 0.6, 0.0], [0.0, 0.8j, 1.0])
        with pytest.raises(NotNormalizedError):
            statevector.build_graph_states(graphs, gps, [1.0, 0.6, 0.6], [0.0, 0.8j, 0.7])
        with pytest.raises(BadParamsError):
            statevector.build_graph_states(graphs, gps, [1.0, 0.6], [0.0, 0.8])

    def test_an_empty_batch_is_refused(self):
        # it once escaped as a bare IndexError from graphs[0]
        with pytest.raises(BadParamsError) as info:
            statevector.build_graph_states([], [])
        assert str(info.value) == "a batch needs at least one graph, got none"

    def test_a_batch_of_mixed_M_is_bad_params(self):
        # it was once a bare ValueError, no error of the package's own
        with pytest.raises(BadParamsError) as info:
            graphs = [generate("path", 3), generate("path", 4)]
            statevector.build_graph_states(graphs, [GateParams(0.4)] * 2)
        assert str(info.value) == "a batch holds states of one M, got [3, 4]"

    def test_norm_check_sees_every_row(self):
        with pytest.raises(NotNormalizedError, match="1.00000001"):
            statevector._check_norm(1.00000001)
        with pytest.raises(NotNormalizedError, match="= nan "):
            statevector._check_norm(math.nan)
        statevector._check_norm(1.0)

    def test_the_read_checks_every_row_s_norm(self):
        # each qubit's p0 + p1 is its row's squared norm, checked before it is divided by
        amps = np.array([[1.0, 0.0], [0.6, 0.8j], [1.0, 1e-4]])
        with pytest.raises(NotNormalizedError) as info:
            statevector.bloch_arrays(amps)
        assert str(info.value) == "state norm^2 = 1.00000001 deviates from 1 beyond 1e-09"
        assert statevector.bloch_arrays(amps[:2]).shape == (2, 1, 3)

    def test_a_drifted_row_of_a_multi_block_batch_is_refused_when_read(self):
        graphs = [generate("erdos_renyi", 17, {"p": 0.3}, seed) for seed in (1, 2)]
        amps = statevector.build_graph_states(graphs, [GateParams(0.7, 0.3)] * 2).copy()
        statevector.bloch_arrays(amps)
        amps[1] *= 1 + 5e-9
        with pytest.raises(NotNormalizedError, match=r"^state norm\^2 = 1\.00000001"):
            statevector.bloch_arrays(amps)

    def test_a_batch_build_makes_no_norm_pass_of_its_own(self, monkeypatch):
        def refuse(norm_sq):
            raise AssertionError("a separate norm pass")

        monkeypatch.setattr(statevector, "_check_norm", refuse)
        statevector.build_graph_states([generate("path", 4)] * 2, [GateParams(0.3)] * 2)
        with pytest.raises(AssertionError):
            build_graph_state(generate("path", 4), GateParams(0.3))  # PureState still checks

    def test_batches_stay_within_one_block(self):
        block = 16 << statevector._BLOCK_BITS
        for M in range(1, 25):
            G = statevector.batch_size(M)
            gram = 8 << 2 * (min(M, statevector._GRAM_QUBITS) + 1)
            assert G == 1 or G * ((16 << M) + gram) <= block
            assert (G == 1) == (M >= statevector._BLOCK_BITS - 1)


class TestPureStateOwnership:
    def test_writeable_input_is_copied(self):
        amps = np.array([0.6, 0.8j])
        st = PureState(1, amps)
        assert not np.shares_memory(st.amplitudes, amps)
        amps[0] = 5.0  # the caller's array stays writeable and the state unchanged
        assert st.amplitudes[0] == 0.6

    def test_frozen_owned_buffer_is_adopted(self):
        amps = np.array([0.6, 0.8j])
        amps.flags.writeable = False
        assert PureState(1, amps).amplitudes is amps

    def test_frozen_view_is_copied(self):
        base = np.array([0.6, 0.8j, 0.0, 0.0])
        view = base[:2]
        view.flags.writeable = False
        assert not np.shares_memory(PureState(1, view).amplitudes, base)

    def test_adopted_buffer_is_norm_checked(self):
        amps = np.array([1.0 + 0j, 1.0])
        amps.flags.writeable = False
        with pytest.raises(NotNormalizedError):
            PureState(1, amps)


class TestBlochVectors:
    def test_matches_dense_oracle(self):
        # M up to 10 covers the Gram qubits and the vecdot qubits
        rng = np.random.default_rng(58)
        for M in range(1, 11):
            amps = oracles.random_state(rng, M)
            vectors = bloch_vectors(PureState(M, amps))
            assert len(vectors) == M
            for i, v in enumerate(vectors):
                want = oracles.pauli_expectation_dense(amps, M, i)
                np.testing.assert_allclose((v.x, v.y, v.z), want, rtol=0, atol=1e-12)

    def test_matches_dense_oracle_on_built_states(self):
        gp = GateParams(0.8, -0.6)
        for g in (generate("erdos_renyi", 6, {"p": 0.5}, seed=4), generate("star_in", 5)):
            st = build_graph_state(g, gp, 0.6, 0.8j)
            for i, v in enumerate(bloch_vectors(st)):
                want = oracles.pauli_expectation_dense(st.amplitudes, g.M, i)
                np.testing.assert_allclose((v.x, v.y, v.z), want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("M", [6, 8, 10, 11, 17, 18, 20, 21])
    @pytest.mark.parametrize("kind", ["erdos_renyi", "star_out", "complete_dag", "random"])
    def test_dot_pass_matches_plain_row_dots_exactly(self, kind, M):
        # M=11 is one block; M=17, 18, 20 and 21 sweep 2, 4, 16 and 32 blocks,
        # merge the per-block sums of qubits 6-9, and pair blocks for qubits 16
        # and up, with partners up to 16 blocks away at M=21
        if kind == "random":
            st = PureState(M, oracles.random_state(np.random.default_rng(M), M))
        else:
            params = {"p": 0.3} if kind == "erdos_renyi" else {}
            st = build_graph_state(generate(kind, M, params, seed=M), GateParams(0.7, -1.3))
        got = [(v.x, v.y, v.z) for v in bloch_vectors(st)[statevector._GRAM_QUBITS :]]
        assert got == oracles.bloch_vectors_by_row_dots(
            st.amplitudes, M, statevector._GRAM_QUBITS, statevector._DOT_BITS
        )

    def test_a_stack_of_multi_block_states_reads_as_each_row_alone(self):
        # M=17: two blocks per row, qubit 16 pairs them
        kinds = [("star_out", {}), ("erdos_renyi", {"p": 0.3}), ("complete_dag", {})]
        graphs = [generate(kind, 17, params, seed=3) for kind, params in kinds]
        gps = [GateParams(0.7, -1.3), GateParams(2.1, 0.4), GateParams(-0.5, 0.9)]
        amps = statevector.build_graph_states(
            graphs, gps, [INV_SQRT2, 0.6, 0.8], [INV_SQRT2, 0.8j, -0.6]
        )
        stack = statevector.bloch_arrays(amps)
        for r in range(3):
            assert stack[r].tobytes() == statevector.bloch_arrays(amps[r : r + 1])[0].tobytes()

    def test_product_states_are_exactly_pure(self):
        # to M=18: four blocks, merged
        for M in range(1, 19):
            for alpha0, alpha1 in ((INV_SQRT2, INV_SQRT2), (1.0, 0.0), (0.0, 1.0)):
                for v in bloch_vectors(init_product_state(M, alpha0, alpha1)):
                    assert v.norm_sq == 1.0

    @pytest.mark.parametrize(
        "kind,params",
        [("erdos_renyi", {"p": 0.3}), ("complete_dag", {}), ("star_out", {})],
    )
    def test_matches_closed_form_at_m16(self, kind, params):
        g = generate(kind, 16, params, seed=2)
        gp = GateParams(0.2, 2.9)
        d_out = np.bincount([a for a, _ in g.edges], minlength=g.M)
        d_in = np.bincount([b for _, b in g.edges], minlength=g.M)
        for i, v in enumerate(bloch_vectors(build_graph_state(g, gp))):
            want = pauli_vector_closed_form(int(d_out[i]), int(d_in[i]), gp)
            np.testing.assert_allclose(
                (v.x, v.y, v.z), (want.x, want.y, want.z), rtol=0, atol=1e-13
            )

    def test_makes_no_copy_of_the_state(self):
        g = generate("erdos_renyi", 20, {"p": 0.3}, seed=2)
        st = build_graph_state(g, GateParams(0.7, 0.3))
        bloch_vectors(st)  # first call fills the index cache
        tracemalloc.start()
        try:
            bloch_vectors(st)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < st.amplitudes.nbytes / 16

    @pytest.mark.parametrize("M", [1, 6, 8])
    def test_real_and_integer_rows_read_as_their_complex_copies(self, M):
        # a float64 view of a real array is the array itself, not (re, im) pairs
        rng = np.random.default_rng(M)
        real = rng.normal(size=(2, 1 << M))
        real /= np.linalg.norm(real, axis=-1, keepdims=True)
        ints = np.eye(1 << M, dtype=np.int64)[[0, -1]]
        for amps in (real, ints):
            got = statevector.bloch_arrays(amps)
            assert got.tobytes() == statevector.bloch_arrays(amps.astype(np.complex128)).tobytes()


class TestNaNIsRefused:
    # a NaN compares false with any bound, so a check written "x > bound" passes it
    @pytest.mark.parametrize(
        "make",
        [
            lambda: build_graph_state(generate("path", 3), GateParams(0.7), math.nan, 0),
            lambda: statevector.build_graph_states(
                [generate("path", 3)] * 2, [GateParams(0.7)] * 2, [1.0, math.nan], [0.0, 0.0]
            ),
            lambda: init_product_state(2, math.nan, 0),
            lambda: PureState(1, [math.nan, 0]),
            lambda: statevector.bloch_arrays(np.array([[1, 0], [math.nan, 0]], dtype=complex)),
            lambda: PauliVector(math.nan, 0, 0),
            lambda: DensityMatrix1Q(math.nan, 0, 0, 1),
            lambda: DensityMatrix1Q(0.5, math.nan, 0, 0.5),
        ],
        ids=["build", "batch_build", "init", "pure_state", "read", "pauli_vector",
             "density_trace", "density_rho01"],
    )
    def test_a_nan_input_raises(self, make):
        with pytest.raises((DigraphEdError, ValueError)):
            make()


class _CountedThread(statevector.threading.Thread):
    """A Thread that records each construction, for monkeypatching into statevector."""

    made: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.made.append(self)


class _InlineThread(_CountedThread):
    """Runs its target inside start(), on the calling thread: the read with no second thread."""

    def start(self):
        self.run()

    def join(self, timeout=None):
        pass


class TestThreadedRead:
    """Past one block, bloch_arrays and the build each take a second thread."""

    @pytest.fixture
    def made(self, monkeypatch):
        monkeypatch.setattr(_CountedThread, "made", [])
        return _CountedThread.made

    @staticmethod
    def _states(M, G, alpha0=0.6, alpha1=0.8j):
        graphs = [generate("erdos_renyi", M, {"p": 0.3}, seed=s) for s in range(G)]
        gps = [GateParams(0.7 + s, -1.3) for s in range(G)]
        return statevector.build_graph_states(graphs, gps, [alpha0] * G, [alpha1] * G)

    @pytest.mark.parametrize("M,G", [(17, 1), (18, 1), (17, 2)], ids=["M17", "M18", "M17_batch"])
    def test_same_bits_as_with_no_second_thread(self, M, G, made, monkeypatch):
        amps = self._states(M, G)
        monkeypatch.setattr(statevector.threading, "Thread", _CountedThread)
        threaded = statevector.bloch_arrays(amps)
        assert len(made) == 1
        monkeypatch.setattr(statevector.threading, "Thread", _InlineThread)
        inline = statevector.bloch_arrays(amps)
        assert len(made) == 2
        assert threaded.tobytes() == inline.tobytes()

    @pytest.mark.parametrize(
        "M,G",
        [(17, 1), (18, 1), (19, 1), (20, 1), (19, 2)],
        ids=["M17", "M18", "M19", "M20", "M19_batch"],
    )
    def test_build_and_read_same_bits_as_with_no_second_thread(self, M, G, made, monkeypatch):
        graphs = [generate("erdos_renyi", M, {"p": 0.3}, seed=s) for s in range(G)]
        gps = [GateParams(0.7 + s, -1.3 + s) for s in range(G)]
        alphas = ([0.6, INV_SQRT2][:G], [0.8j, -INV_SQRT2 * 1j][:G])
        runs = []
        for thread in (_CountedThread, _InlineThread):
            monkeypatch.setattr(statevector.threading, "Thread", thread)
            amps = statevector.build_graph_states(graphs, gps, *alphas)
            runs.append(amps.tobytes() + statevector.bloch_arrays(amps).tobytes())
            assert len(made) == 2 * len(runs)  # one in the build, one in the read
        assert runs[0] == runs[1]

    @pytest.mark.parametrize(
        "kernel,thread",
        [("matmul", "worker"), ("vecdot", "caller"), ("vecdot", "worker")],
        ids=["matmul", "vecdot", "vecdot_on_worker"],
    )
    def test_an_error_on_either_thread_is_raised_and_no_thread_outlives_the_call(
        self, kernel, thread, monkeypatch
    ):
        # matmul is the Gram, on the second thread; vecdot runs on both, in the
        # walk on the calling thread and for qubit 5 beside the Gram
        amps = self._states(17, 1)
        caller = statevector.threading.current_thread()
        real = getattr(np, kernel)
        raised_on = []

        def refuse(*args, **kwargs):
            here = statevector.threading.current_thread()
            if (here is caller) != (thread == "caller"):
                return real(*args, **kwargs)
            raised_on.append(here)
            raise MemoryError("refused")

        before = statevector.threading.active_count()
        monkeypatch.setattr(np, kernel, refuse)
        with pytest.raises(MemoryError, match="refused"):
            statevector.bloch_arrays(amps)
        assert statevector.threading.active_count() == before
        assert raised_on

    def test_an_error_on_the_build_s_thread_is_raised_and_no_thread_outlives_the_call(
        self, monkeypatch
    ):
        # at M=17 the one top qubit's step calls no numpy function by name, so
        # the second thread's half of it is refused as a whole
        caller = statevector.threading.current_thread()
        real = statevector._top_qubits
        raised_on = []

        def refuse(*args, **kwargs):
            here = statevector.threading.current_thread()
            if here is caller:
                return real(*args, **kwargs)
            raised_on.append(here)
            raise MemoryError("refused")

        before = statevector.threading.active_count()
        monkeypatch.setattr(statevector, "_top_qubits", refuse)
        with pytest.raises(MemoryError, match="refused"):
            self._states(17, 1)
        assert statevector.threading.active_count() == before
        assert raised_on

    def test_small_states_start_no_thread(self, made, monkeypatch):
        monkeypatch.setattr(statevector.threading, "Thread", _CountedThread)
        for M in range(1, 17):
            amps = self._states(M, 1)
            assert made == []
            statevector.bloch_arrays(amps)
        amps = self._states(12, statevector.batch_size(12))
        assert made == []
        statevector.bloch_arrays(amps)
        assert made == []


class TestPauliExpectation:
    def test_plus_product_state(self):
        for M in (1, 4, 16):
            st = init_product_state(M, INV_SQRT2, INV_SQRT2)
            for i in range(M):
                v = pauli_expectation(st, i)
                assert (v.x, v.y, v.z) == (1.0, 0.0, 0.0)

    def test_zero_ket(self):
        v = pauli_expectation(init_product_state(1, 1.0, 0.0), 0)
        assert (v.x, v.y, v.z) == (0.0, 0.0, 1.0)

    def test_single_edge_case(self):
        # outgoing vertex of a single edge at theta=pi/3: (cos(pi/3), 0, 0)
        st = build_graph_state(DirectedGraph(2, ((0, 1),)), GateParams(math.pi / 3, 0.0))
        v = pauli_expectation(st, 0)
        assert abs(v.x - 0.5) < 1e-12
        assert abs(v.y) < 1e-12
        assert abs(v.z) < 1e-12

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(57)
        for M in range(1, 7):
            amps = oracles.random_state(rng, M)
            st = PureState(M, amps)
            for i in range(M):
                got = pauli_expectation(st, i)
                want = oracles.pauli_expectation_dense(amps, M, i)
                np.testing.assert_allclose((got.x, got.y, got.z), want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("M,theta,psi", [(16, 2.5, -1.0), (20, 0.3, 2.0)])
    def test_matches_closed_form_on_large_stars(self, M, theta, psi):
        gp = GateParams(theta, psi)
        st = build_graph_state(generate("star_out", M), gp)
        for i in range(M):
            d_out, d_in = (M - 1, 0) if i == 0 else (0, 1)
            got = pauli_expectation(st, i)
            want = pauli_vector_closed_form(d_out, d_in, gp)
            np.testing.assert_allclose(
                (got.x, got.y, got.z), (want.x, want.y, want.z), rtol=0, atol=1e-14
            )

    def test_bloch_bound_holds(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            amps = oracles.random_state(rng, 5)
            v = pauli_expectation(PureState(5, amps), int(rng.integers(5)))
            assert v.norm_sq <= 1.0 + 1e-9

    def test_index_out_of_range(self):
        st = init_product_state(2, INV_SQRT2, INV_SQRT2)
        with pytest.raises(IndexOutOfRangeError):
            pauli_expectation(st, 2)

    def test_a_pauli_vector_outside_the_bloch_ball_is_refused(self):
        with pytest.raises(ValueError) as info:
            PauliVector(1.0, 1.0, 0.0)
        assert str(info.value) == "Bloch bound violated: |v|^2 = 2.0"


class TestReducedDensity:
    def test_plus_projector(self):
        rho = reduced_density_1q(init_product_state(1, INV_SQRT2, INV_SQRT2), 0)
        np.testing.assert_allclose(rho.matrix, [[0.5, 0.5], [0.5, 0.5]], rtol=0, atol=1e-15)

    def test_bell_equivalent_is_maximally_mixed(self):
        st = build_graph_state(DirectedGraph(2, ((0, 1),)), GateParams(math.pi / 2, math.pi / 2))
        for i in (0, 1):
            rho = reduced_density_1q(st, i)
            np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, rtol=0, atol=1e-12)

    def test_unentangled_factor(self):
        # qubit 0 in |0>, qubit 1 in |+>
        amps = np.zeros(4, dtype=complex)
        amps[0] = INV_SQRT2
        amps[2] = INV_SQRT2
        rho = reduced_density_1q(PureState(2, amps), 0)
        np.testing.assert_allclose(rho.matrix, [[1, 0], [0, 0]], rtol=0, atol=1e-15)

    def test_matches_partial_trace_oracle(self):
        rng = np.random.default_rng(77)
        for M in range(1, 7):
            amps = oracles.random_state(rng, M)
            st = PureState(M, amps)
            for i in range(M):
                got = reduced_density_1q(st, i).matrix
                want = oracles.partial_trace_1q(amps, M, i)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_bloch_reconstruction_consistent(self):
        rng = np.random.default_rng(78)
        for _ in range(10):
            amps = oracles.random_state(rng, 6)
            st = PureState(6, amps)
            i = int(rng.integers(6))
            r = pauli_expectation(st, i)
            recon = 0.5 * (
                np.eye(2)
                + r.x * oracles.SIGMA["x"]
                + r.y * oracles.SIGMA["y"]
                + r.z * oracles.SIGMA["z"]
            )
            np.testing.assert_allclose(
                reduced_density_1q(st, i).matrix, recon, rtol=0, atol=1e-12
            )

    def test_matches_closed_form_on_large_star(self):
        # long sums: a single BLAS dot drifted to ~3e-13 here
        gp = GateParams(0.3, 2.0)
        st = build_graph_state(generate("star_out", 20), gp)
        for i in range(20):
            v = pauli_vector_closed_form(*((19, 0) if i == 0 else (0, 1)), gp)
            want = 0.5 * np.array([[1.0 + v.z, v.x - 1j * v.y], [v.x + 1j * v.y, 1.0 - v.z]])
            np.testing.assert_allclose(
                reduced_density_1q(st, i).matrix, want, rtol=0, atol=1e-14
            )

    def test_eigenvalue_closed_form_matches_lapack(self):
        rng = np.random.default_rng(79)
        for _ in range(10):
            amps = oracles.random_state(rng, 4)
            rho = reduced_density_1q(PureState(4, amps), int(rng.integers(4)))
            want = np.linalg.eigvalsh(rho.matrix)
            np.testing.assert_allclose(rho.eigenvalues(), want, rtol=0, atol=1e-12)

    def test_invariant_checks(self):
        with pytest.raises(ValueError):
            DensityMatrix1Q(0.5, 0.1, 0.2, 0.5)  # not Hermitian
        with pytest.raises(ValueError):
            DensityMatrix1Q(0.9, 0.0, 0.0, 0.9)  # trace 1.8

    def test_a_complex_diagonal_is_refused(self):
        with pytest.raises(ValueError) as info:
            DensityMatrix1Q(0.5 + 0.1j, 0.0, 0.0, 0.5 - 0.1j)
        assert str(info.value) == "diagonal of a density matrix must be real"


class TestCommutation:
    @pytest.mark.parametrize(
        "theta,psi",
        [(math.pi / 2, math.pi / 2), (0.7, 1.3), (math.pi, 0.0), (-2.1, 0.4)],
    )
    def test_all_edge_gates_commute(self, theta, psi):
        assert commutation_check(GateParams(theta, psi)) < 1e-14

    def test_one_dense_application_per_operator(self, monkeypatch):
        calls = []
        real = reference._apply_two_qubit_dense_raw

        def counting(amps, M, a, b, matrix):
            calls.append((M, a, b))
            return real(amps, M, a, b, matrix)

        monkeypatch.setattr(reference, "_apply_two_qubit_dense_raw", counting)
        commutation_check(GateParams(0.7, 1.3))
        assert calls == [(6, 3, 4), (6, 4, 5), (6, 3, 5)]

    def test_identity_trick_gives_the_dense_operator(self):
        # a generic non-diagonal gate: each operator equals its column-by-column form
        rng = np.random.default_rng(12)
        u4 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        for a, b in ((0, 1), (1, 2), (0, 2), (2, 0)):
            eye = np.eye(8, dtype=complex).ravel()
            op = reference._apply_two_qubit_dense_raw(eye, 6, a + 3, b + 3, u4).reshape(8, 8)
            cols = [
                reference._apply_two_qubit_dense_raw(np.eye(8, dtype=complex)[k], 3, a, b, u4)
                for k in range(8)
            ]
            np.testing.assert_array_equal(op, np.column_stack(cols))
            want = oracles.dense_edge_operator(3, a, b, u4)
            np.testing.assert_allclose(op, want, rtol=0, atol=1e-15)
