"""Entanglement distance (ED) of edge-gated graph states, two ways.

The ED per qubit of a pure state is 1 minus the mean squared Bloch-vector
length over the qubits: 0 for product states, 1 when every single-qubit
reduced state is maximally mixed. For states built by
:func:`~digraph_ed.statevector.build_graph_state` from a structurally valid
graph the measure collapses to a function of the vertex degrees alone,

    E = 1 - (1/M) * sum_i cos(theta)^(2 (d(i) - 2 p(i))) * cos(2 theta)^(2 p(i)),

with p(i) the antiparallel pairs among the d(i) edges at vertex i (a pair's
two gates act as one of double angle; without pairs this is the paper's
cos(theta)^(2 d(i)) law), independent of psi, of edge orientations, and of
vertex labels. This module computes ED from first principles (Pauli
expectations on the statevector), evaluates the closed form, and provides
the sweep and verification helpers used to check one against the other.
Degrees from ``g.degrees``, policy from :func:`~digraph_ed.digraph.validate`,
at entry: nothing here counts edges or applies the edge policy.

Three entries read states in batches. :func:`verify_and_total` takes many
cases (g, gp) at once, some to report on and some only to total: it groups
all of them by M and builds and reads each group in batches that fit, with
their Gram matrices, in one 1 MiB block
(:func:`~digraph_ed.statevector.batch_size`), so a state of M <= 14 shares
its numpy calls with others of its size. Its results are, bit for bit and in
input order, those of :func:`verify_graph` and :func:`ed_total` one case at
a time. :func:`verify_graph` is its one-case call, which attaches a
``seed_info`` to the report, and :func:`ed_totals` its total-only call.
Each reads every graph's degrees, which checks its structure, before any
state is built; antiparallel pairs are read like any other edges. Every
squared Bloch length, batched or of one :func:`ed_total` state, comes from
one formula over :func:`~digraph_ed.statevector.bloch_arrays`.
:func:`alpha_sweep` reads its grid the same way, one initial state per
row: ED from :func:`~digraph_ed.statevector.bloch_arrays`, the HS
distance from one numpy call per step over the batch's reduced states
(:func:`hs_distance` is the one-matrix case), and the entropy row by row,
each sample bit for bit what one state built and read alone gives.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import digraph, statevector, trace
from .digraph import DirectedGraph
from .errors import BadGridError, BadParamsError, NegativeEigenvalueError, integer
from .statevector import (
    DensityMatrix1Q,
    GateParams,
    PureState,
    PauliVector,
)

#: Closed form vs statevector agreement threshold; absorbs 2^M-term rounding.
DISCREPANCY_TOL = 1e-10

ALPHA_INV_SQRT2 = 2**-0.5


def fmt17(x: float) -> str:
    """Floating-point text at 17 significant digits (round-trip exact)."""
    return format(float(x), ".17g")


@dataclass(frozen=True)
class EDReport:
    """Per-vertex and total ED for one graph, with the closed-form cross-check.

    ``policy`` is ``"allow_antiparallel"`` when the graph has antiparallel
    pairs and ``"default"`` otherwise; the closed form covers both.
    """

    per_vertex: tuple[float, ...]
    total_statevector: float
    total_closed_form: float
    discrepancy: float
    graph_hash: str
    gp: GateParams
    policy: str
    seed_info: str = ""

    def to_json(self) -> str:
        """Serialize with fixed key names and 17-significant-digit floats."""
        with trace.span("entanglement.report", M=len(self.per_vertex), G=1):
            fields = [
                ('"per_vertex": [' + ", ".join(fmt17(v) for v in self.per_vertex) + "]"),
                f'"total_sv": {fmt17(self.total_statevector)}',
                f'"total_cf": {fmt17(self.total_closed_form)}',
                f'"discrepancy": {fmt17(self.discrepancy)}',
                f'"theta": {fmt17(self.gp.theta)}',
                f'"psi": {fmt17(self.gp.psi)}',
                f'"graph_hash": {json.dumps(self.graph_hash)}',
                f'"policy": {json.dumps(self.policy)}',
                f'"seed_info": {json.dumps(self.seed_info)}',
            ]
            return "{" + ", ".join(fields) + "}"


@dataclass(frozen=True)
class SweepResult:
    """Samples of (parameter, E, S, D_HS) along one axis, with grid extrema.

    ``degenerate`` marks a flat E profile (e.g. theta = 0, where no
    entanglement is generated at any parameter value), in which case the
    extremum fields are reported but carry no information.
    """

    axis: str
    samples: tuple[tuple[float, float, float, float], ...]
    argmax_E: float
    argmax_S: float
    argmin_DHS: float
    degenerate: bool


def ed_total(state: PureState) -> float:
    """ED per qubit: 1 - mean over qubits of the squared Bloch length."""
    return _ed_total(_squared_lengths(state.amplitudes.reshape(1, -1))[0].tolist())


def _ed_total(norm_sq: list[float]) -> float:
    """1 - the mean of the squared Bloch lengths, summed in qubit order."""
    return 1.0 - sum(norm_sq) / len(norm_sq)


def ed_closed_form(g: DirectedGraph, theta: float) -> float:
    """Degree-only evaluation: 1 - (1/M) sum_i cos(theta)^(2 (d - 2p)) cos(2 theta)^(2p).

    d is a vertex's total degree and p its number of antiparallel pairs
    (each pair is two of its d edges), both read from ``g.degrees``.
    Independent of psi and of edge orientations by construction. Without
    pairs every cos(2 theta) factor is exactly 1.0, so the value is the
    paper's cos(theta)^(2d) law bit for bit.
    """
    with trace.span("entanglement.closed_form", M=g.M, L=g.num_edges, G=1):
        c = math.cos(theta)
        c2 = math.cos(2.0 * theta)
        acc = 0.0
        for rec in g.degrees:
            p = rec.pairs
            acc += c ** (2 * (rec.total - 2 * p)) * c2 ** (2 * p)
        return 1.0 - acc / g.M


def pauli_vector_closed_form(d_out: int, d_in: int, gp: GateParams, pairs: int = 0) -> PauliVector:
    """Bloch vector of a vertex with d_out outgoing and d_in incoming edges.

    r * (cos(phi), -sin(phi), 0) with r = cos(theta)^(d_out + d_in - 2 pairs)
    * cos(2 theta)^pairs, where ``pairs`` counts the vertex's antiparallel
    partners (each takes one outgoing and one incoming edge), and the phase
    accumulates psi once per outgoing (control-side) edge and theta once per
    incoming (target-side) edge: phi = d_out*psi + d_in*theta. The phase
    composition is pinned against the statevector route in the test suite.
    """
    d_out = integer(d_out, "d_out", BadParamsError)
    d_in = integer(d_in, "d_in", BadParamsError)
    pairs = integer(pairs, "pairs", BadParamsError)
    if d_out < 0 or d_in < 0:
        raise BadParamsError(f"degrees must be non-negative, got ({d_out}, {d_in})")
    if not 0 <= pairs <= min(d_out, d_in):
        raise BadParamsError(f"pairs must lie in [0, min(d_out, d_in)], got {pairs}")
    r = math.cos(gp.theta) ** (d_out + d_in - 2 * pairs) * math.cos(2.0 * gp.theta) ** pairs
    phi = d_out * gp.psi + d_in * gp.theta
    return PauliVector(r * math.cos(phi), -r * math.sin(phi), 0.0)


def hs_distance(rho: DensityMatrix1Q) -> float:
    """Hilbert-Schmidt distance of rho from the maximally mixed state I/2."""
    return _hs_distances(rho.matrix[None])[0]


def _hs_distances(matrices: np.ndarray) -> list[float]:
    """:func:`hs_distance` of each 2x2 matrix of a (G, 2, 2) stack, in one numpy call per step."""
    d = matrices - 0.5 * np.eye(2)
    return np.sqrt(0.5 * (np.abs(d) ** 2).sum(axis=(-2, -1))).tolist()


def von_neumann_entropy(rho: DensityMatrix1Q) -> float:
    """-tr[rho ln rho] in nats, with 0 ln 0 := 0; ranges over [0, ln 2].

    Eigenvalues below -1e-10 raise; tiny negatives from rounding are
    clamped to zero.
    """
    s = 0.0
    for lam in rho.eigenvalues():
        if lam < -1e-10:
            raise NegativeEigenvalueError(f"eigenvalue {lam} below -1e-10")
        lam = min(max(lam, 0.0), 1.0)
        if lam > 0.0:
            s -= lam * math.log(lam)
    return s


def alpha_sweep(gp: GateParams, grid: int) -> SweepResult:
    """Initial-state sweep on the two-qubit single-edge graph.

    For t on a uniform grid over [0, 1], builds the state from
    alpha0 = sqrt(t), alpha1 = sqrt(1 - t) (real non-negative amplitudes
    suffice; phases are checked irrelevant in the tests) and records the
    total ED, the entropy, and the HS distance of qubit 0's reduced state.
    Extrema are reported at grid resolution, no interpolation. The states
    are built with one initial state per row and read in batches of
    :func:`~digraph_ed.statevector.batch_size` points, so a batch stays
    within one 1 MiB block however long the grid; every sample is bit for
    bit what one state built and read alone gives. Each batch goes straight
    to the build kernel: the one-edge table broadcast over its rows, the
    angles repeated, and ``np.sqrt`` of its grid points as the initial
    amplitudes, which are not checked again (t + (1 - t) is 1 to a few ulps).
    """
    grid = integer(grid, "grid", BadGridError)
    if grid < 3:
        raise BadGridError(f"grid must be >= 3, got {grid}")
    size = statevector.batch_size(2)
    edge = np.array([[0, 1], [0, 0]])  # the one edge (0, 1)
    # the columns t, E, S and D_HS are allocated once at full length and the
    # samples made after the last batch: grown batch by batch, they left some
    # 4 MiB more of the heap resident at grid 100000
    ts, e_vals, s_vals, d_vals = ([0.0] * grid for _ in range(4))
    for start in range(0, grid, size):
        stop = min(start + size, grid)
        part = np.arange(start, stop) / (grid - 1)
        G = len(part)
        amps = statevector._build(
            np.broadcast_to(edge, (G, 2, 2)), np.full(G, gp.theta), np.full(G, gp.psi),
            np.sqrt(part)[:, None], np.sqrt(1.0 - part)[:, None],
        ).reshape(G, -1)
        rhos = _qubit0_densities(amps)
        ts[start:stop] = part.tolist()
        e_vals[start:stop] = map(_ed_total, _squared_lengths(amps).tolist())
        entries = rhos.reshape(-1, 4).tolist()  # rho00, rho01, rho10, rho11
        s_vals[start:stop] = (von_neumann_entropy(DensityMatrix1Q(*rho)) for rho in entries)
        d_vals[start:stop] = _hs_distances(rhos)
    samples = tuple(zip(ts, e_vals, s_vals, d_vals))
    return SweepResult(
        axis="alpha",
        samples=samples,
        argmax_E=samples[int(np.argmax(e_vals))][0],
        argmax_S=samples[int(np.argmax(s_vals))][0],
        argmin_DHS=samples[int(np.argmin(d_vals))][0],
        degenerate=(max(e_vals) - min(e_vals)) < 1e-12,
    )


def _qubit0_densities(amps: np.ndarray) -> np.ndarray:
    """Qubit 0's reduced density matrix of each two-qubit row of ``amps``: (G, 2, 2).

    Each holds the values of
    :func:`~digraph_ed.reference.reduced_density_1q` of that row alone,
    bit for bit up to the sign of a zero in rho01, whose magnitude alone
    the entropy and the HS distance read: the same products, each summed
    over its two terms, divided by the same trace.
    """
    pairs = amps.reshape(-1, 2, 2)  # [row, qubit 1, qubit 0]
    a0, a1 = pairs[..., 0], pairs[..., 1]
    p0 = np.sum(a0.conj() * a0, axis=-1).real
    p1 = np.sum(a1.conj() * a1, axis=-1).real
    t = np.sum(a0 * a1.conj(), axis=-1)
    tr = p0 + p1
    rho = np.empty((len(tr), 2, 2), dtype=np.complex128)
    rho[:, 0, 0] = p0 / tr
    rho[:, 1, 1] = p1 / tr
    # by parts: a complex division by the real trace takes other roundings
    rho.real[:, 0, 1] = t.real / tr
    rho.imag[:, 0, 1] = t.imag / tr
    rho[:, 1, 0] = rho[:, 0, 1].conj()
    return rho


def _squared_lengths(amps: np.ndarray) -> np.ndarray:
    """The squared Bloch length of every qubit of every row of ``amps``: a (G, M) array."""
    v = statevector.bloch_arrays(amps)
    return v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1] + v[..., 2] * v[..., 2]


def _batches(cases):
    """Read the states of cases (g, gp) in batches; yield (positions, squared lengths).

    Each batch holds cases of one M, in input order, cut to
    :func:`~digraph_ed.statevector.batch_size` states, so a batch with its
    Grams stays within one 1 MiB block. It is built at the balanced initial
    state, and row r of the (G, M) array yielded with it holds the squared
    Bloch length of every qubit of the case at ``positions[r]``. Every
    graph's degrees are read, in input order, before any state is built,
    so a structural fault raises first.
    """
    by_m: dict[int, list[int]] = {}
    for n, (g, _) in enumerate(cases):
        # the read checks the structure; there is one record per vertex
        by_m.setdefault(len(g.degrees), []).append(n)
    for M, positions in by_m.items():
        size = statevector.batch_size(M)
        for start in range(0, len(positions), size):
            part = positions[start : start + size]
            amps = statevector.build_graph_states(
                [cases[n][0] for n in part],
                [cases[n][1] for n in part],
                ALPHA_INV_SQRT2,
                ALPHA_INV_SQRT2,
            )
            yield part, _squared_lengths(amps)


def verify_and_total(reported, totalled) -> tuple[list[EDReport], list[float]]:
    """One batched pass: dual-route reports for ``reported``, ED totals for ``totalled``.

    Both are sequences of cases (g, gp) at the balanced initial state. The
    cases of both are built and read together (see :func:`_batches`), so
    cases of one M from either list share batches. Each report is, bit for
    bit and in input order, what :func:`verify_graph` gives the case alone,
    and each total ``ed_total(build_graph_state(g, gp, ...))``: the squared
    lengths are summed in qubit order, as :func:`ed_total` does. Every
    report's ``seed_info`` is empty.
    """
    reported, totalled = list(reported), list(totalled)
    cases = reported + totalled
    reports: list = [None] * len(reported)
    totals = [0.0] * len(totalled)
    for part, norm_sq in _batches(cases):
        for n, lengths in zip(part, norm_sq.tolist()):
            total_sv = _ed_total(lengths)
            if n >= len(reported):
                totals[n - len(reported)] = total_sv
                continue
            g, gp = cases[n]
            total_cf = ed_closed_form(g, gp.theta)
            reports[n] = EDReport(
                per_vertex=tuple(1.0 - v for v in lengths),
                total_statevector=total_sv,
                total_closed_form=total_cf,
                discrepancy=abs(total_sv - total_cf),
                graph_hash=digraph.graph_hash(g),
                gp=gp,
                policy="allow_antiparallel" if any(r.pairs for r in g.degrees) else "default",
            )
    return reports, totals


def ed_totals(cases) -> list[float]:
    """Statevector ED per qubit of each case (g, gp), in input order, read in batches.

    Each value is bit for bit ``ed_total(build_graph_state(g, gp, ...))``;
    this is :func:`verify_and_total` with nothing to report.
    """
    return verify_and_total((), cases)[1]


def verify_graph(g: DirectedGraph, gp: GateParams, seed_info: str = "") -> EDReport:
    """Dual-route ED for one graph at the balanced initial state.

    Builds the state of any structurally valid ``g`` (antiparallel pairs
    are admitted) with alpha0 = alpha1 = 1/sqrt(2), computes per-vertex and
    total ED from one read of every qubit's Bloch vector, and evaluates the
    closed form; the recorded discrepancy stays below ``DISCREPANCY_TOL``.
    The graph's edge list is walked once, at the first read of
    ``g.degrees``; the build and the closed form read the records it kept.
    This is the one-case call of :func:`verify_and_total`, with
    ``seed_info`` attached to its report.
    """
    return replace(verify_and_total([(g, gp)], ())[0][0], seed_info=seed_info)
