"""Property-based tests for the invariants the library promises.

Graphs are drawn policy-valid by construction (one orientation per chosen
vertex pair; :func:`digraphs_with_pairs` may also take both, for the
antiparallel policy), angles from [-pi, pi]. All runs are derandomized so
the suite is reproducible.
"""

import cmath
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from digraph_ed import digraph
from digraph_ed.digraph import (
    GENERATOR_KINDS,
    DirectedGraph,
    generate,
    permute,
    reverse_edges,
    validate,
)
from digraph_ed.entanglement import (
    ed_closed_form,
    ed_total,
    ed_totals,
    hs_distance,
    pauli_vector_closed_form,
    verify_and_total,
    verify_graph,
    von_neumann_entropy,
)
from digraph_ed.errors import AntiparallelPairError
from digraph_ed.reference import pauli_expectation, reduced_density_1q
from digraph_ed.statevector import (
    GateParams,
    PureState,
    bloch_arrays,
    bloch_vectors,
    build_graph_state,
    build_graph_states,
)

COMMON = dict(max_examples=80, deadline=None, derandomize=True)

angles = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)


@st.composite
def digraphs(draw, min_m=2, max_m=6):
    M = draw(st.integers(min_m, max_m))
    pairs = [(a, b) for a in range(M) for b in range(a + 1, M)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    edges = tuple((b, a) if f else (a, b) for (a, b), f in zip(chosen, flips))
    return DirectedGraph(M, edges)


@st.composite
def digraphs_with_pairs(draw, min_m=2, max_m=6):
    """Graphs that may hold antiparallel pairs: a chosen vertex pair gets one
    orientation or both, in a shuffled edge order."""
    M = draw(st.integers(min_m, max_m))
    pairs = [(a, b) for a in range(M) for b in range(a + 1, M)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    ways = draw(
        st.lists(st.sampled_from(("ab", "ba", "both")), min_size=len(chosen), max_size=len(chosen))
    )
    edges = []
    for (a, b), way in zip(chosen, ways):
        if way != "ba":
            edges.append((a, b))
        if way != "ab":
            edges.append((b, a))
    return DirectedGraph(M, tuple(draw(st.permutations(edges))))


@st.composite
def mixed_cases(draw):
    """Cases (g, gp) with antiparallel pairs, their M drawn from two of 1-16.

    Up to 2^19 amplitudes in all, so a batch runs from one state to many.
    """
    ms = draw(st.lists(st.integers(1, 16), min_size=2, max_size=2))
    cases = []
    for _ in range(draw(st.integers(1, min(48, 1 << (19 - max(ms)))))):
        M = draw(st.sampled_from(ms))
        pairs = [(a, b) for a in range(M) for b in range(a + 1, M)]
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=20)) if pairs else []
        ways = draw(
            st.lists(st.sampled_from(("ab", "ba", "both")), min_size=len(chosen), max_size=len(chosen))
        )
        edges = []
        for (a, b), way in zip(chosen, ways):
            edges += [(a, b)] * (way != "ba") + [(b, a)] * (way != "ab")
        cases.append((DirectedGraph(M, tuple(edges)), GateParams(draw(angles), draw(angles))))
    return cases


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@given(cases=mixed_cases())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_batches_match_one_state_at_a_time(cases):
    """Batched builds, reads, reports and totals equal the one-state route bit for bit."""
    reports, totals = verify_and_total(cases, cases)
    assert totals == ed_totals(cases)
    one_m = [(g, gp) for g, gp in cases if g.M == cases[0][0].M]
    amps = build_graph_states(*zip(*one_m))
    vectors = bloch_arrays(amps)
    assert amps.shape == (len(one_m), 1 << one_m[0][0].M) and not amps.flags.writeable
    for k, (g, gp) in enumerate(one_m):
        state = build_graph_state(g, gp)
        assert amps[k].tobytes() == state.amplitudes.tobytes()
        assert _bits(vectors[k]) == _bits([(v.x, v.y, v.z) for v in bloch_vectors(state)])
    for (g, gp), rep, total in zip(cases, reports, totals):
        one = verify_graph(g, gp)
        assert _bits(rep.per_vertex) == _bits(one.per_vertex)
        alone = ed_total(build_graph_state(g, gp))
        assert _bits([rep.total_statevector, total, alone]) == _bits([one.total_statevector] * 3)
        assert rep.to_json() == one.to_json()


@st.composite
def initial_states(draw):
    """A complex single-qubit state (alpha0, alpha1), or one of the basis states."""
    if draw(st.booleans()):
        return draw(st.sampled_from([(0.0, 1.0), (1.0, 0.0)]))
    t = draw(st.floats(min_value=0.0, max_value=1.0))
    phase0, phase1 = draw(angles), draw(angles)
    return (math.sqrt(t) * cmath.exp(1j * phase0), math.sqrt(1.0 - t) * cmath.exp(1j * phase1))


@given(M=st.integers(2, 7), data=st.data())
@settings(**COMMON)
def test_per_row_initial_states_match_one_state_at_a_time(M, data):
    """Each row of a batch with its own (alpha0, alpha1) is its one-state build, bit for bit."""
    graphs = data.draw(st.lists(digraphs_with_pairs(min_m=M, max_m=M), min_size=1, max_size=12))
    gps = [GateParams(data.draw(angles), data.draw(angles)) for _ in graphs]
    states = [data.draw(initial_states()) for _ in graphs]
    if len(graphs) > 1:
        states[0], states[-1] = (0.0, 1.0), (1.0, 0.0)
    amps = build_graph_states(graphs, gps, [a0 for a0, _ in states], [a1 for _, a1 in states])
    for row, g, gp, (a0, a1) in zip(amps, graphs, gps, states):
        one = build_graph_state(g, gp, a0, a1)
        assert row.tobytes() == one.amplitudes.tobytes()


@given(g=digraphs_with_pairs(), theta=angles, psi=angles)
@settings(**COMMON)
def test_pair_closed_form(g, theta, psi):
    """Every Bloch vector, and the ED, follow the closed form at the vertex's
    degrees and antiparallel pair count."""
    gp = GateParams(theta, psi)
    vectors = bloch_vectors(build_graph_state(g, gp))
    edge_set = set(g.edges)
    for i, (rec, v) in enumerate(zip(validate(g, allow_antiparallel=True), vectors)):
        pairs = sum((b, a) in edge_set for a, b in g.edges if a == i)
        assert rec.pairs == pairs
        want = pauli_vector_closed_form(rec.out_degree, rec.in_degree, gp, pairs)
        assert max(abs(v.x - want.x), abs(v.y - want.y), abs(v.z - want.z)) < 1e-12
    sv = 1.0 - sum(v.norm_sq for v in vectors) / g.M
    assert abs(sv - ed_closed_form(g, gp.theta)) < 1e-10


@given(g=digraphs_with_pairs(max_m=10), n_theta=st.integers(0, 11), n_psi=st.integers(0, 11))
@settings(**COMMON)
def test_degree_law_is_an_exact_identity(g, n_theta, n_psi):
    """At theta, psi in (pi/6) Z every vertex meets its pair law exactly, in integers.

    The oracle's phases are checked against the build: a phase off by a
    local factor would leave every Bloch length, and so the law, exact.
    """
    exponents = oracles.phase_exponents(g, n_theta, n_psi)
    state = build_graph_state(g, GateParams(n_theta * math.pi / 6, n_psi * math.pi / 6))
    want = 2 ** (-g.M / 2) * np.exp(1j * math.pi / 6 * exponents)
    assert np.max(np.abs(state.amplitudes - want)) < 1e-14
    edge_set = set(g.edges)
    for v, (A, B) in enumerate(oracles.squared_bloch_lengths_exact(exponents, g.M)):
        d = sum(v in edge for edge in g.edges)
        p = sum((b, a) in edge_set for a, b in g.edges if a == v)
        assert B == 0
        assert Fraction(2 * A, 4**g.M) == oracles.degree_law_exact(d, p, n_theta)


@given(g=digraphs(), theta=angles, psi=angles)
@settings(**COMMON)
def test_closed_form_equivalence(g, theta, psi):
    """Statevector ED equals the degree-only closed form for every graph."""
    gp = GateParams(theta, psi)
    sv = ed_total(build_graph_state(g, gp))
    assert abs(sv - ed_closed_form(g, gp.theta)) < 1e-10


@given(g=digraphs(), theta=angles, psi=angles, data=st.data())
@settings(**COMMON)
def test_orientation_invariance(g, theta, psi, data):
    """Reversing any edge subset leaves the total ED unchanged."""
    subset = data.draw(
        st.lists(st.integers(0, max(g.num_edges - 1, 0)), unique=True, max_size=g.num_edges)
        if g.num_edges
        else st.just([])
    )
    gp = GateParams(theta, psi)
    before = ed_total(build_graph_state(g, gp))
    after = ed_total(build_graph_state(reverse_edges(g, subset), gp))
    assert abs(after - before) < 1e-12


@given(g=digraphs(), theta=angles, psi=angles, seed=st.integers(0, 2**32 - 1))
@settings(**COMMON)
def test_relabeling_invariance(g, theta, psi, seed):
    """Any vertex permutation leaves the total ED unchanged."""
    perm = np.random.default_rng(seed).permutation(g.M)
    gp = GateParams(theta, psi)
    before = ed_total(build_graph_state(g, gp))
    after = ed_total(build_graph_state(permute(g, perm), gp))
    assert abs(after - before) < 1e-12


@given(g=digraphs(max_m=5), theta=angles, psi1=angles, psi2=angles)
@settings(**COMMON)
def test_psi_invariance(g, theta, psi1, psi2):
    """The ED depends on theta only, never on psi."""
    e1 = ed_total(build_graph_state(g, GateParams(theta, psi1)))
    e2 = ed_total(build_graph_state(g, GateParams(theta, psi2)))
    assert abs(e1 - e2) < 1e-12


@given(g=digraphs(), theta=angles, psi=angles)
@settings(**COMMON)
def test_per_vertex_law(g, theta, psi):
    """Each vertex contributes 1 - cos(theta)^(2 d(i))."""
    gp = GateParams(theta, psi)
    vectors = bloch_vectors(build_graph_state(g, gp))
    c = math.cos(gp.theta)
    for rec, v in zip(validate(g, allow_antiparallel=True), vectors):
        assert abs(1.0 - v.norm_sq - (1.0 - c ** (2 * rec.total))) < 1e-10


@given(g=digraphs(max_m=7), theta=angles, psi=angles)
@settings(**COMMON)
def test_norm_preservation_and_bounds(g, theta, psi):
    """Gates only rotate phases: unit norm, Bloch bound, ED within [0, 1]."""
    st_ = build_graph_state(g, GateParams(theta, psi))
    nrm = float(np.vdot(st_.amplitudes, st_.amplitudes).real)
    assert abs(nrm - 1.0) < 1e-12
    total = ed_total(st_)
    assert -1e-12 <= total <= 1.0 + 1e-12
    for i in range(g.M):
        assert pauli_expectation(st_, i).norm_sq <= 1.0 + 1e-9


@given(g=digraphs(), seed=st.integers(0, 2**32 - 1))
@settings(**COMMON)
def test_degree_bookkeeping(g, seed):
    """Degree sums, permutation multisets, and reversal totals all agree."""
    recs = validate(g, allow_antiparallel=True)
    assert sum(r.total for r in recs) == 2 * g.num_edges
    rng = np.random.default_rng(seed)
    h = permute(g, rng.permutation(g.M))
    totals = sorted(r.total for r in validate(h, allow_antiparallel=True))
    assert totals == sorted(r.total for r in recs)
    if g.num_edges:
        subset = np.flatnonzero(rng.random(g.num_edges) < 0.5)
        k = reverse_edges(g, subset)
        assert [r.total for r in validate(k, allow_antiparallel=True)] == [r.total for r in recs]
        validate(k)


@given(g=digraphs_with_pairs())
@settings(**COMMON)
def test_one_walk_counts_degrees_and_pairs(g):
    """validate's records match a bincount of tails and heads, count every
    antiparallel pair at both ends, and are kept: a second call, under
    either policy, does not walk the edges again."""
    twin = DirectedGraph(g.M, g.edges)
    with mock.patch.object(digraph, "_walk", wraps=digraph._walk) as walk:
        recs = validate(g, allow_antiparallel=True)
        assert validate(g, allow_antiparallel=True) is recs
        if any(r.pairs for r in recs):
            with pytest.raises(AntiparallelPairError):
                validate(g)
        else:
            assert validate(g) is recs
        assert walk.call_count == 1
    edges = np.array(g.edges, dtype=np.int64).reshape(-1, 2)
    assert [r.out_degree for r in recs] == np.bincount(edges[:, 0], minlength=g.M).tolist()
    assert [r.in_degree for r in recs] == np.bincount(edges[:, 1], minlength=g.M).tolist()
    edge_set = set(g.edges)
    n_pairs = sum((b, a) in edge_set for a, b in g.edges) // 2
    assert sum(r.pairs for r in recs) == 2 * n_pairs
    # the kept walk is not part of the graph's value
    assert g == twin and hash(g) == hash(twin) and repr(g) == repr(twin)


@given(
    kind_and_M=st.sampled_from(GENERATOR_KINDS).flatmap(
        lambda kind: st.tuples(st.just(kind), st.integers(3 if kind == "cycle" else 1, 40))
    ),
    p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    seed=st.integers(0, 2**63 - 1),
)
@settings(**COMMON)
def test_generator_is_pure_and_policy_valid(kind_and_M, p, seed):
    """generate walks nothing, so its construction alone must keep every
    kind's output pure and admitted by the default policy."""
    kind, M = kind_and_M
    params = {"p": p} if kind == "erdos_renyi" else {}
    g1 = generate(kind, M, params, seed)
    g2 = generate(kind, M, params, seed)
    assert g1 == g2
    recs = validate(g1)
    assert sum(r.total for r in recs) == 2 * g1.num_edges


@given(seed=st.integers(0, 2**32 - 1), M=st.integers(1, 6))
@settings(**COMMON)
def test_reduced_state_is_physical(seed, M):
    """Reduced states trace to one with eigenvalues inside [0, 1]."""
    rng = np.random.default_rng(seed)
    st_ = PureState(M, oracles.random_state(rng, M))
    i = int(rng.integers(M))
    rho = reduced_density_1q(st_, i)
    lo, hi = rho.eigenvalues()
    assert lo >= -1e-10
    assert hi <= 1.0 + 1e-10
    assert abs((rho.rho00 + rho.rho11).real - 1.0) < 1e-10
    assert 0.0 <= von_neumann_entropy(rho) <= math.log(2) + 1e-12
    assert hs_distance(rho) >= 0.0


@given(theta=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False), psi=angles)
@settings(**COMMON)
def test_angle_canonicalization_preserves_gate(theta, psi):
    gp = GateParams(theta, psi)
    assert -math.pi <= gp.theta < math.pi
    assert abs(math.cos(gp.theta) - math.cos(theta)) < 1e-9
    assert abs(np.exp(1j * gp.theta) - np.exp(1j * theta)) < 1e-9
