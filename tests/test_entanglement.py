"""ED measures, closed forms, sweeps, and the dual-route verification."""

import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from digraph_ed.digraph import DirectedGraph, generate, graph_hash
from digraph_ed.entanglement import (
    EDReport,
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
from digraph_ed import statevector
from digraph_ed.errors import (
    BadGridError,
    CapacityError,
    NegativeEigenvalueError,
    SelfLoopError,
)
from digraph_ed.reference import init_product_state, pauli_expectation, reduced_density_1q
from digraph_ed.statevector import (
    DensityMatrix1Q,
    GateParams,
    PureState,
    bloch_vectors,
    build_graph_state,
)

INV_SQRT2 = 2**-0.5
SINGLE_EDGE = DirectedGraph(2, ((0, 1),))


class TestEdPerVertex:
    def test_separable_state_is_zero_exactly(self):
        st = init_product_state(4, INV_SQRT2, INV_SQRT2)
        for i in range(4):
            assert 1.0 - bloch_vectors(st)[i].norm_sq == 0.0

    def test_single_edge_maximal(self):
        st = build_graph_state(SINGLE_EDGE, GateParams(math.pi / 2, 0.3))
        for i in (0, 1):
            assert abs(1.0 - bloch_vectors(st)[i].norm_sq - 1.0) < 1e-12

    def test_single_edge_partial(self):
        st = build_graph_state(SINGLE_EDGE, GateParams(math.pi / 3, 0.0))
        assert abs(1.0 - bloch_vectors(st)[0].norm_sq - 0.75) < 1e-12


class TestEdTotal:
    def test_product_state_zero(self):
        assert ed_total(init_product_state(3, INV_SQRT2, INV_SQRT2)) == 0.0
        assert abs(ed_total(init_product_state(3, 0.6, 0.8))) < 1e-12

    def test_single_edge_values(self):
        assert abs(ed_total(build_graph_state(SINGLE_EDGE, GateParams(math.pi / 2, 0.7))) - 1.0) < 1e-12
        assert abs(ed_total(build_graph_state(SINGLE_EDGE, GateParams(math.pi / 3, 0.0))) - 0.75) < 1e-12

    def test_equals_mean_of_per_vertex(self):
        g = generate("erdos_renyi", 6, {"p": 0.5}, seed=2)
        st = build_graph_state(g, GateParams(0.8, 1.1))
        mean = sum(1.0 - bloch_vectors(st)[i].norm_sq for i in range(g.M)) / g.M
        assert abs(ed_total(st) - mean) < 1e-12

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(31)
        for M in (2, 4, 5):
            amps = oracles.random_state(rng, M)
            got = ed_total(PureState(M, amps))
            assert abs(got - oracles.ed_total_dense(amps, M)) < 1e-12


class TestClosedForm:
    def test_zero_angle(self):
        g = generate("erdos_renyi", 7, {"p": 0.5}, seed=9)
        assert ed_closed_form(g, 0.0) == 0.0

    def test_star_arithmetic(self):
        # degrees (2, 1, 1) at theta=pi/4: 1 - (1/4 + 1/2 + 1/2)/3 = 7/12
        got = ed_closed_form(generate("star_out", 3), math.pi / 4)
        assert abs(got - 7.0 / 12.0) < 1e-9

    def test_cycle_arithmetic(self):
        got = ed_closed_form(generate("cycle", 3), math.pi / 4)
        assert abs(got - 0.75) < 1e-9

    def test_dual_route_agreement(self):
        for kind, M in (("star_out", 3), ("cycle", 3), ("complete_dag", 5)):
            g = generate(kind, M)
            gp = GateParams(math.pi / 4, 0.9)
            sv = ed_total(build_graph_state(g, gp))
            assert abs(sv - ed_closed_form(g, gp.theta)) < 1e-10

    def test_antiparallel_pair_factor(self):
        # the 2-cycle: one pair per vertex, 1 - cos(2 theta)^2
        g = DirectedGraph(2, ((0, 1), (1, 0)))
        assert abs(ed_closed_form(g, 0.4) - (1.0 - math.cos(0.8) ** 2)) < 1e-15
        # a pair plus a single edge at vertex 1: degrees (2, 3, 1), pairs (1, 1, 0)
        g = DirectedGraph(3, ((0, 1), (1, 2), (1, 0)))
        c, c2 = math.cos(0.4), math.cos(0.8)
        want = 1.0 - (c2**2 + c**2 * c2**2 + c**2) / 3.0
        assert abs(ed_closed_form(g, 0.4) - want) < 1e-15


class TestPauliVectorClosedForm:
    def test_bare_vertex(self):
        v = pauli_vector_closed_form(0, 0, GateParams(1.0, 2.0))
        assert (v.x, v.y, v.z) == (1.0, 0.0, 0.0)

    def test_one_outgoing(self):
        v = pauli_vector_closed_form(1, 0, GateParams(math.pi / 3, 0.0))
        assert abs(v.x - 0.5) < 1e-15
        assert abs(v.y) < 1e-15

    def test_two_incoming(self):
        # cos^2(pi/4) * (cos(pi/2), -sin(pi/2), 0) = (0, -1/2, 0), any psi
        for psi in (0.0, 0.9, -2.0):
            v = pauli_vector_closed_form(0, 2, GateParams(math.pi / 4, psi))
            assert abs(v.x) < 1e-12
            assert abs(v.y + 0.5) < 1e-12
            assert v.z == 0.0

    def test_matches_statevector_on_stars(self):
        # the printed star forms: cos^d(theta) e^{-i d psi} for the pure-out
        # center, cos^d(theta) e^{-i d theta} for the pure-in center
        for theta, psi, d in itertools.product((0.8, 0.35, 2.4), (1.3, 2.6), range(1, 7)):
            gp = GateParams(theta, psi)
            c = math.cos(theta) ** d
            for kind, d_out, d_in, phase in (
                ("star_out", d, 0, d * psi),
                ("star_in", 0, d, d * theta),
            ):
                printed = (c * math.cos(phase), -c * math.sin(phase), 0.0)
                got = pauli_expectation(build_graph_state(generate(kind, d + 1), gp), 0)
                want = pauli_vector_closed_form(d_out, d_in, gp)
                np.testing.assert_allclose(
                    (got.x, got.y, got.z), (want.x, want.y, want.z), rtol=0, atol=1e-10
                )
                np.testing.assert_allclose((got.x, got.y, got.z), printed, rtol=0, atol=1e-10)
                np.testing.assert_allclose((want.x, want.y, want.z), printed, rtol=0, atol=1e-12)

    def test_mixed_case_phase_resolution(self):
        # Candidate phases for a vertex with both edge directions: the
        # composition d_out*psi + d_in*theta versus the single combined
        # alternative d_in*(psi + theta). The statevector arbitrates: the
        # composition wins wherever the two differ, and the implemented
        # closed form follows it.
        theta, psi = 0.7, 0.4
        for d_out, d_in in ((2, 1), (1, 2), (3, 2)):
            M = 1 + d_out + d_in
            edges = tuple((0, 1 + k) for k in range(d_out)) + tuple(
                (1 + d_out + k, 0) for k in range(d_in)
            )
            gp = GateParams(theta, psi)
            got = pauli_expectation(build_graph_state(DirectedGraph(M, edges), gp), 0)

            r = math.cos(theta) ** (d_out + d_in)
            composed = d_out * psi + d_in * theta
            combined = d_in * (psi + theta)
            assert abs(got.x - r * math.cos(composed)) < 1e-10
            assert abs(got.y + r * math.sin(composed)) < 1e-10
            assert abs(got.x - r * math.cos(combined)) > 1e-3
            # the implemented form must match the winner
            want = pauli_vector_closed_form(d_out, d_in, gp)
            assert abs(got.x - want.x) < 1e-10
            assert abs(got.y - want.y) < 1e-10

    def test_norm_depends_on_total_degree_only(self):
        gp = GateParams(0.9, 1.7)
        norms = {
            (d_out, d_in): pauli_vector_closed_form(d_out, d_in, gp).norm_sq
            for d_out, d_in in ((3, 0), (0, 3), (2, 1), (1, 2))
        }
        ref = math.cos(0.9) ** 6
        for v in norms.values():
            assert abs(v - ref**1) < 1e-12  # all share total degree 3

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            pauli_vector_closed_form(-1, 0, GateParams(0.5, 0.0))
        # a pair takes one outgoing and one incoming edge
        for d_out, d_in, pairs in ((2, 1, 2), (1, 2, 2), (3, 3, -1)):
            with pytest.raises(ValueError):
                pauli_vector_closed_form(d_out, d_in, GateParams(0.5, 0.0), pairs)


class TestHsDistance:
    def test_maximally_mixed_is_zero(self):
        assert hs_distance(DensityMatrix1Q(0.5, 0.0, 0.0, 0.5)) == 0.0

    def test_plus_projector(self):
        rho = DensityMatrix1Q(0.5, 0.5, 0.5, 0.5)
        assert abs(hs_distance(rho) - 0.5) < 1e-15

    def test_ground_projector(self):
        rho = DensityMatrix1Q(1.0, 0.0, 0.0, 0.0)
        assert abs(hs_distance(rho) - 0.5) < 1e-15

    def test_zero_iff_maximally_mixed(self):
        rho = DensityMatrix1Q(0.5 + 1e-10, 0.0, 0.0, 0.5 - 1e-10)
        assert hs_distance(rho) > 1e-11


class TestVonNeumannEntropy:
    def test_maximally_mixed(self):
        assert abs(von_neumann_entropy(DensityMatrix1Q(0.5, 0.0, 0.0, 0.5)) - math.log(2)) < 1e-15

    def test_pure_state(self):
        assert von_neumann_entropy(DensityMatrix1Q(1.0, 0.0, 0.0, 0.0)) == 0.0
        assert von_neumann_entropy(DensityMatrix1Q(0.5, 0.5, 0.5, 0.5)) < 1e-12

    def test_single_edge_reduced_state(self):
        # eigenvalues {0.75, 0.25}: S = -(3/4)ln(3/4) - (1/4)ln(1/4)
        st = build_graph_state(SINGLE_EDGE, GateParams(math.pi / 3, 0.0))
        s = von_neumann_entropy(reduced_density_1q(st, 0))
        assert abs(s - 0.5623351446188083) < 1e-12

    def test_matches_eigvalsh_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            amps = oracles.random_state(rng, 5)
            rho = reduced_density_1q(PureState(5, amps), int(rng.integers(5)))
            lam = np.linalg.eigvalsh(rho.matrix)
            want = -sum(float(x) * math.log(float(x)) for x in lam if x > 1e-15)
            assert abs(von_neumann_entropy(rho) - want) < 1e-12

    def test_negative_eigenvalue_rejected(self):
        rho = DensityMatrix1Q(-0.2, 0.0, 0.0, 1.2)  # trace 1, but not a state
        with pytest.raises(NegativeEigenvalueError):
            von_neumann_entropy(rho)


class TestAlphaSweep:
    def test_optimum_at_balanced_amplitudes(self):
        sweep = alpha_sweep(GateParams(math.pi / 2, 0.0), 101)
        assert sweep.argmax_E == 0.5
        assert sweep.argmax_S == 0.5
        assert sweep.argmin_DHS == 0.5
        assert not sweep.degenerate
        assert sweep.axis == "alpha"
        ts = [s[0] for s in sweep.samples]
        assert ts == sorted(ts) and len(ts) == 101

    def test_endpoint_is_product(self):
        sweep = alpha_sweep(GateParams(math.pi / 2, 0.4), 11)
        t, e, s, d = sweep.samples[0]
        assert t == 0.0
        assert e == 0.0
        assert s == 0.0
        assert abs(d - 0.5) < 1e-15

    def test_peak_value_is_maximal(self):
        sweep = alpha_sweep(GateParams(math.pi / 2, 0.0), 11)
        mid = sweep.samples[5]
        assert mid[0] == 0.5
        assert abs(mid[1] - 1.0) < 1e-12
        assert abs(mid[2] - math.log(2)) < 1e-12
        assert mid[3] < 1e-12

    def test_degenerate_at_identity_gate(self):
        sweep = alpha_sweep(GateParams(0.0, 0.0), 21)
        assert sweep.degenerate
        assert all(abs(s[1]) < 1e-12 for s in sweep.samples)

    def test_monotone_legs_at_right_angle(self):
        sweep = alpha_sweep(GateParams(math.pi / 2, 0.0), 101)
        e = [s[1] for s in sweep.samples[:51]]
        s_ = [s[2] for s in sweep.samples[:51]]
        d = [s[3] for s in sweep.samples[:51]]
        assert all(b > a for a, b in zip(e, e[1:]))
        assert all(b > a for a, b in zip(s_, s_[1:]))
        assert all(b < a for a, b in zip(d, d[1:]))

    def test_amplitude_phases_are_irrelevant(self):
        # the sweep uses real alphas; check criteria are phase-blind
        gp = GateParams(1.1, 0.6)
        rng = np.random.default_rng(3)
        for t in (0.2, 0.5, 0.8):
            a0, a1 = math.sqrt(t), math.sqrt(1 - t)
            st_real = build_graph_state(SINGLE_EDGE, gp, a0, a1)
            ph0, ph1 = np.exp(1j * rng.uniform(-math.pi, math.pi, size=2))
            st_rot = build_graph_state(SINGLE_EDGE, gp, a0 * ph0, a1 * ph1)
            assert abs(ed_total(st_real) - ed_total(st_rot)) < 1e-12
            rho_real = reduced_density_1q(st_real, 0)
            rho_rot = reduced_density_1q(st_rot, 0)
            assert abs(von_neumann_entropy(rho_real) - von_neumann_entropy(rho_rot)) < 1e-12
            assert abs(hs_distance(rho_real) - hs_distance(rho_rot)) < 1e-12

    def test_bad_grid(self):
        with pytest.raises(BadGridError):
            alpha_sweep(GateParams(1.0, 0.0), 2)

    @pytest.mark.parametrize("grid", [3, 11, 101])
    def test_samples_match_one_point_at_a_time(self, grid):
        for gp in (GateParams(1.1, 0.3), GateParams(math.pi / 2, 0.0), GateParams(-2.5, 1.9)):
            sweep = alpha_sweep(gp, grid)
            want = oracles.alpha_sweep_samples(gp, grid)
            assert np.array(sweep.samples).tobytes() == np.array(want).tobytes()

    def test_memory_stays_within_one_batch_of_the_samples(self):
        # the loop that built and read one state per point peaked at
        # 21734424 bytes here (Python 3.11, numpy 2.4), nearly all of it the
        # 100000 samples themselves; batches of batch_size(2) points add at
        # most about one 1 MiB block to that
        gp = GateParams(1.1, 0.3)
        alpha_sweep(gp, 101)  # fills the index caches
        tracemalloc.start()
        try:
            sweep = alpha_sweep(gp, 100000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sweep.samples) == 100000
        assert peak < 21734424 + (1 << 20)


class TestVerifyGraph:
    def test_star_report(self):
        rep = verify_graph(generate("star_out", 3), GateParams(math.pi / 4, 0.3))
        assert abs(rep.total_statevector - 7.0 / 12.0) < 1e-9
        assert rep.discrepancy < 1e-10
        assert rep.policy == "default"
        assert rep.graph_hash == graph_hash(generate("star_out", 3))

    def test_orientation_does_not_matter(self):
        chain = DirectedGraph(3, ((0, 1), (1, 2)))
        bent = DirectedGraph(3, ((0, 1), (2, 1)))  # same degree multiset {1, 2, 1}
        gp = GateParams(0.9, 0.2)
        r1 = verify_graph(chain, gp)
        r2 = verify_graph(bent, gp)
        assert abs(r1.total_statevector - r2.total_statevector) < 1e-12

    def test_empty_graph_exact_zero(self):
        rep = verify_graph(DirectedGraph(3, ()), GateParams(1.2, 0.1))
        assert rep.total_statevector == 0.0
        assert rep.total_closed_form == 0.0
        assert rep.discrepancy == 0.0

    def test_antiparallel_pairs_get_both_routes(self):
        g = DirectedGraph(2, ((0, 1), (1, 0)))
        rep = verify_graph(g, GateParams(0.6, 0.8))
        assert abs(rep.total_closed_form - (1.0 - math.cos(1.2) ** 2)) < 1e-15
        assert rep.discrepancy < 1e-10
        assert rep.policy == "allow_antiparallel"
        # dense oracle agrees with the statevector total
        st = build_graph_state(g, GateParams(0.6, 0.8))
        assert abs(rep.total_statevector - oracles.ed_total_dense(st.amplitudes, 2)) < 1e-12

    def test_antiparallel_pair_breaks_both_degree_readings(self):
        # For the 2-cycle the per-vertex value is 1 - cos^2(2 theta): the two
        # gates compose into a double-angle interaction, which neither
        # "degree = incident edges" (cos^4) nor "degree = neighbor count"
        # (cos^2) reproduces; the closed form counts the pair as cos(2 theta).
        theta = 0.6
        g = DirectedGraph(2, ((0, 1), (1, 0)))
        st = build_graph_state(g, GateParams(theta, 0.9))
        ev = 1.0 - bloch_vectors(st)[0].norm_sq
        assert abs(ev - (1.0 - math.cos(2 * theta) ** 2)) < 1e-12
        assert abs(ev - (1.0 - math.cos(theta) ** 4)) > 1e-2
        assert abs(ev - (1.0 - math.cos(theta) ** 2)) > 1e-2

    def test_dual_route_on_seeded_batch(self):
        rng = np.random.default_rng(101)
        for seed in range(10):
            g = generate("erdos_renyi", int(rng.integers(2, 9)), {"p": 0.5}, seed=seed)
            gp = GateParams(float(rng.uniform(0, math.pi)), float(rng.uniform(0, math.pi)))
            rep = verify_graph(g, gp)
            assert rep.discrepancy < 1e-10


class TestBatches:
    def test_reports_come_back_in_input_order(self):
        cases = [
            (generate("star_out", M), GateParams(0.3 * M, 0.1)) for M in (5, 2, 9, 2, 5, 14, 14)
        ]
        reports, totals = verify_and_total(cases, cases)
        for (g, gp), rep in zip(cases, reports):
            assert rep == verify_graph(g, gp)
        assert totals == ed_totals(cases) == [rep.total_statevector for rep in reports]
        g, gp = cases[0]
        assert verify_graph(g, gp, "case 0") == dataclasses.replace(reports[0], seed_info="case 0")
        assert ed_totals([]) == []

    def test_reports_and_totals_share_one_pass(self, monkeypatch):
        reported = [(generate("star_out", M), GateParams(0.3 * M, 0.1)) for M in (5, 2, 9, 5)]
        totalled = [
            (generate("erdos_renyi", M, {"p": 0.5}, seed=M), GateParams(0.2 * M, -0.4))
            for M in (9, 2, 5, 3, 5)
        ]
        want = ([verify_graph(g, gp) for g, gp in reported], ed_totals(totalled))
        calls = []
        real = statevector.build_graph_states

        def count(graphs, *args, **kwargs):
            calls.append(sorted({g.M for g in graphs}))
            return real(graphs, *args, **kwargs)

        monkeypatch.setattr(statevector, "build_graph_states", count)
        assert verify_and_total(reported, totalled) == want
        # one batch per M, shared by the reported and the totalled cases
        assert sorted(calls) == [[2], [3], [5], [9]]
        assert verify_and_total([], []) == ([], [])

    def test_every_graph_is_validated_before_any_state_is_built(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built a state before validating every graph")

        monkeypatch.setattr(statevector, "build_graph_states", refuse)
        loop = DirectedGraph(2, ((0, 1), (1, 1)))
        cases = [(generate("path", 3), GateParams(0.4)), (loop, GateParams(0.4))]
        with pytest.raises(SelfLoopError):
            ed_totals(cases)

    def test_over_the_cap_is_refused(self, monkeypatch):
        monkeypatch.setattr(statevector, "DEFAULT_MAX_QUBITS", 4)
        with pytest.raises(CapacityError):
            verify_and_total([(generate("path", M), GateParams(0.4)) for M in (3, 5)], ())

    def test_memory_stays_within_a_few_blocks(self):
        # 5000 states of M=5, each with a 32 KiB Gram: 160 MiB in one batch,
        # about 1 MiB per batch cut to one block
        rng = np.random.default_rng(8)
        cases = [
            (generate("erdos_renyi", 5, {"p": 0.5}, seed=n), GateParams(float(rng.uniform(0, 3))))
            for n in range(5000)
        ]
        ed_totals(cases[:40])  # fills the index caches
        tracemalloc.start()
        try:
            totals = ed_totals(cases)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(totals) == 5000
        assert peak < 3 * (16 << statevector._BLOCK_BITS)


class TestEDReportJson:
    def test_keys_and_round_trip(self):
        rep = verify_graph(generate("cycle", 3), GateParams(0.7, 0.2), seed_info="unit test")
        doc = json.loads(rep.to_json())
        assert list(doc) == [
            "per_vertex",
            "total_sv",
            "total_cf",
            "discrepancy",
            "theta",
            "psi",
            "graph_hash",
            "policy",
            "seed_info",
        ]
        assert doc["total_sv"] == rep.total_statevector  # 17 digits round-trip
        assert doc["per_vertex"] == list(rep.per_vertex)
        assert doc["theta"] == rep.gp.theta
        assert doc["seed_info"] == "unit test"

    def test_numbers_under_antiparallel_policy(self):
        g = DirectedGraph(2, ((0, 1), (1, 0)))
        rep = verify_graph(g, GateParams(0.6, 0.8))
        doc = json.loads(rep.to_json())
        assert doc["total_cf"] == rep.total_closed_form
        assert doc["discrepancy"] == rep.discrepancy
        assert rep.discrepancy < 1e-10
        assert doc["policy"] == "allow_antiparallel"
