"""Seeded property battery: every invariant the library promises, end to end.

One table, :data:`CHECKS`, holds every invariant as a row
``(name, threshold, measure, cases)``. A row works in two steps. Its
optional ``cases(seed, battery)`` names the statevector cases it needs
beyond the battery's own reports, as graphs with angles; its
``measure(pop, threshold, read)`` then walks the population and those
cases, each paired with its statevector ED, and yields one record per
case: a label and the ``(error, bound)`` pairs seen on it, each error
required to stay strictly below its bound. :func:`run_check` folds the
records into a :class:`CheckResult` with the case count, the worst error
and the violations. ``digraph-ed suite`` runs the table through
:func:`run_suite`, and the pytest acceptance gate parametrises over it, so
a new invariant is one new row.

:func:`population` draws the battery, collects the cases of every row, and
reads the battery and all those cases in one pass of
:func:`~digraph_ed.entanglement.verify_and_total`, which builds and reads
the states in batches of one M within a 1 MiB block, so cases of one M from
every row share full batches, the antiparallel row's pair graphs among
them: the engine builds any structurally valid graph, so no row needs a
pass of its own. The oracle rows build their few states one at a time. The
values are those of one state at a time, bit for bit, so the report is
too. Everything runs in one thread, save the build and the read of a
state past one block (``max_m`` 17 and up), which each take a second (see
:mod:`digraph_ed.statevector`). Degrees from ``g.degrees``, policy from
:func:`~digraph_ed.digraph.validate`, at entry: the battery's graphs
enter through :func:`~digraph_ed.digraph.generate`, each graph's edges
are walked once, and a row's measure gets the very case objects that
were read.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import entanglement as ent
from .digraph import DirectedGraph, generate, graph_hash, permute, reverse_edges
from .errors import BadParamsError, integer
from .reference import (
    apply_edge_gate,
    apply_two_qubit_dense,
    commutation_check,
    edge_gate_matrix,
    init_product_state,
    pauli_expectation,
    reduced_density_1q,
)
from .statevector import GateParams, PureState, bloch_vectors, build_graph_state


@dataclass(frozen=True)
class CheckResult:
    name: str
    cases: int
    threshold: float
    worst: float
    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "ok" if self.ok else f"VIOLATION x{len(self.violations)}"
        return (
            f"{self.name}: {status} (cases={self.cases}, "
            f"worst={self.worst:.3e}, threshold={self.threshold:.0e})"
        )


@dataclass(frozen=True)
class SuiteReport:
    seed: int
    n_graphs: int
    max_m: int
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def summary_lines(self) -> list[str]:
        lines = [c.summary() for c in self.checks]
        for c in self.checks:
            lines.extend(f"  {v}" for v in c.violations[:5])
        lines.append("suite: PASS" if self.ok else "suite: FAIL")
        return lines


# One statevector case: a graph and its gate angles, at the balanced state.
Case = tuple[DirectedGraph, GateParams]


def battery(seed: int, n_graphs: int, max_m: int) -> list[Case]:
    """The seeded graph population: Erdos-Renyi digraphs with random angles.

    M uniform on [2, max_m], edge probability from {0.2, 0.5, 0.8}, and
    theta, psi uniform on (0, pi). Pure function of the arguments. A negative
    seed is refused, and so is an empty population or one with no
    admissible M, since every check would pass on it vacuously.
    """
    seed, n_graphs, max_m = _suite_params(seed, n_graphs, max_m)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_graphs):
        M = int(rng.integers(2, max_m + 1))
        p = (0.2, 0.5, 0.8)[rng.integers(0, 3)]
        gseed = int(rng.integers(0, 2**63))
        theta = float(rng.uniform(0.0, math.pi))
        psi = float(rng.uniform(0.0, math.pi))
        out.append((generate("erdos_renyi", M, {"p": p}, gseed), GateParams(theta, psi)))
    return out


def _suite_params(seed: int, n_graphs: int, max_m: int) -> tuple[int, int, int]:
    """The suite's arguments as ints, read and checked as :func:`battery` says."""
    seed = integer(seed, "seed", BadParamsError)
    n_graphs = integer(n_graphs, "n_graphs", BadParamsError)
    max_m = integer(max_m, "max_m", BadParamsError)
    if seed < 0:
        raise BadParamsError(f"the suite seed must be >= 0, got {seed}")
    if n_graphs < 1:
        raise BadParamsError(f"the suite needs at least 1 graph, got {n_graphs}")
    if max_m < 2:
        raise BadParamsError(f"the suite needs max_m >= 2, got {max_m}")
    return seed, n_graphs, max_m


@dataclass(frozen=True)
class Population:
    """The seeded graphs with their dual-route reports.

    ``read`` maps the name of each row that names cases to those cases,
    in order, each paired with its statevector ED.
    """

    seed: int
    cases: tuple[Case, ...]
    reports: tuple[ent.EDReport, ...]
    read: dict[str, list[tuple[Case, float]]]


# A case's label and its (error, bound) pairs; each error must stay
# strictly below its bound.
Record = tuple[str, list[tuple[float, float]]]


class Check(NamedTuple):
    """One invariant: cases to read, then a measure that judges them.

    ``cases(seed, battery)``, if the row has it, names the statevector
    cases the row needs beyond the battery's own reports, as a pure
    function of the suite seed and the battery. ``measure(pop, threshold,
    read)`` yields a record per case, where ``read`` holds each named case,
    in order, paired with its statevector ED: ``(case, total)`` (empty for
    a row without ``cases``).
    """

    name: str
    threshold: float
    measure: Callable[[Population, float, Sequence[tuple[Case, float]]], Iterable[Record]]
    cases: Callable[[int, Sequence[Case]], list[Case]] | None = None


def population(seed: int, n_graphs: int, max_m: int) -> Population:
    """Build :func:`battery` and read it, with the cases of every row, in one pass.

    Every graph of the battery gets its dual-route report, and every row of
    :data:`CHECKS` that names cases gets them back paired with their totals,
    from one :func:`~digraph_ed.entanglement.verify_and_total` call, so
    cases of one M from the battery and from every row share batches.
    """
    graphs = tuple(battery(seed, n_graphs, max_m))
    rows = [(check.name, check.cases(seed, graphs)) for check in CHECKS if check.cases]
    extra = [case for _, cases in rows for case in cases]
    reports, totals = ent.verify_and_total(graphs, extra)
    by_row, start = {}, 0
    for name, cases in rows:
        by_row[name] = list(zip(cases, totals[start : start + len(cases)]))
        start += len(cases)
    return Population(seed, graphs, tuple(reports), by_row)


# The least positive float: as a bound, only an exact 0 stays below it.
_EXACT = math.ulp(0.0)


def run_check(check: Check, pop: Population) -> CheckResult:
    """Fold a measure's records into cases, worst error and violations."""
    read = pop.read[check.name] if check.cases else []
    cases = 0
    worst = 0.0
    bad = []
    for label, pairs in check.measure(pop, check.threshold, read):
        cases += 1
        for j, (err, bound) in enumerate(pairs):
            worst = max(worst, float(err))
            if not err < bound:
                where = label if len(pairs) == 1 else f"{label} #{j}"
                bad.append(f"{check.name}: {where}: {err:.3e} not below {bound:.0e}")
    return CheckResult(check.name, cases, check.threshold, worst, tuple(bad))


def _max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a)))


def _bloch_gap(u, v) -> float:
    return max(abs(u.x - v.x), abs(u.y - v.y), abs(u.z - v.z))


def _angles(rng, low: float, high: float) -> GateParams:
    return GateParams(float(rng.uniform(low, high)), float(rng.uniform(low, high)))


def _closed_form_agreement(pop, tol, read):
    for rep in pop.reports:
        yield rep.graph_hash[:12], [(rep.discrepancy, tol)]


def _antiparallel_pairs(seed, graphs):
    # the 2-cycle, then battery graphs with M <= 8 with each edge doubled
    # into an antiparallel pair with probability 1/2
    rng = np.random.default_rng([seed, 7])
    cases = [(DirectedGraph(2, ((0, 1), (1, 0))), GateParams(0.6, 0.8))]
    for g, gp in [case for case in graphs if case[0].M <= 8][:23]:
        doubled = tuple((b, a) for a, b in g.edges if rng.random() < 0.5)
        cases.append((DirectedGraph(g.M, g.edges + doubled), gp))
    return cases


def _pair_closed_form(pop, tol, read):
    for (g, gp), total in read:
        yield graph_hash(g)[:12], [(abs(total - ent.ed_closed_form(g, gp.theta)), tol)]


def _reoriented(seed, graphs):
    rng = np.random.default_rng([seed, 1])
    flipped = []
    for g, gp in graphs[:50]:
        if g.num_edges:
            g = reverse_edges(g, np.flatnonzero(rng.random(g.num_edges) < 0.5))
        flipped.append((g, gp))
    return flipped


def _relabeled(seed, graphs):
    rng = np.random.default_rng([seed, 2])
    return [(permute(g, rng.permutation(g.M)), gp) for g, gp in graphs[:50]]


def _same_as_reports(pop, tol, read):
    # case k is a transform of battery graph k: same ED as its report
    for rep, (_, e) in zip(pop.reports, read):
        yield rep.graph_hash[:12], [(abs(e - rep.total_statevector), tol)]


def _psi_resampled(seed, graphs):
    rng = np.random.default_rng([seed, 3])
    return [
        (g, GateParams(gp.theta, float(psi)))
        for g, gp in graphs[:5]
        for psi in rng.uniform(-math.pi, math.pi, size=10)
    ]


def _psi_invariance(pop, tol, read):
    for k, rep in enumerate(pop.reports[:5]):
        values = [e for _, e in read[10 * k : 10 * k + 10]]
        yield rep.graph_hash[:12], [(max(values) - min(values), tol)]


def _no_isolated_vertex(g: DirectedGraph) -> bool:
    return min(rec.total for rec in g.degrees) >= 1


def _at_half_pi(seed, graphs):
    cases = [(g, GateParams(math.pi / 2, gp.psi)) for g, gp in graphs if _no_isolated_vertex(g)]
    # the fully separable reference point must sit at zero exactly
    return cases + [(DirectedGraph(3, ()), GateParams(1.0, 0.5))]


def _maximal_entanglement(pop, tol, read):
    *read, (_, empty) = read
    labels = [
        rep.graph_hash[:12]
        for (g, _), rep in zip(pop.cases, pop.reports)
        if _no_isolated_vertex(g)
    ]
    for label, (_, e) in zip(labels, read):
        yield label, [(abs(e - 1.0), tol)]
    yield "empty graph", [(abs(empty), _EXACT)]


def _alpha_optimality(pop, tol, read):
    sweep = ent.alpha_sweep(GateParams(math.pi / 2, 0.0), 101)
    peak = len(sweep.samples) // 2
    for k, (t, e, s, d) in enumerate(sweep.samples):
        if k == peak:
            extrema = (sweep.argmax_E, sweep.argmax_S, sweep.argmin_DHS)
            pairs = [(abs(x - 0.5), _EXACT) for x in extrema]
        else:
            # one grid step toward t = 0.5 raises E and S and lowers D_HS, strictly
            _, e1, s1, d1 = sweep.samples[k + 1 if k < peak else k - 1]
            pairs = [(e - e1, tol), (s - s1, tol), (d1 - d, tol)]
        yield f"t={t:.2f}", pairs


def _per_vertex_law(pop, tol, read):
    for (g, gp), rep in zip(pop.cases, pop.reports):
        c = math.cos(gp.theta)
        for i, (rec, ev) in enumerate(zip(g.degrees, rep.per_vertex)):
            err = abs(ev - (1.0 - c ** (2 * rec.total)))
            yield f"{rep.graph_hash[:12]} vertex {i}", [(err, tol)]


def _gate_correctness(pop, tol, read):
    cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    gate = edge_gate_matrix(GateParams(math.pi / 2, math.pi / 2))
    yield "edge gate at (pi/2, pi/2) vs CZ", [(_max_abs(gate - cz), 1e-15)]
    rng = np.random.default_rng([pop.seed, 4])
    for _ in range(20):
        gp = _angles(rng, -math.pi, math.pi)
        yield f"commutators at ({gp.theta:.3f}, {gp.psi:.3f})", [(commutation_check(gp), tol)]


def _random_state(rng, M: int) -> PureState:
    v = rng.normal(size=1 << M) + 1j * rng.normal(size=1 << M)
    return PureState(M, v / np.linalg.norm(v))


def _kernel_cross_validation(pop, tol, read):
    rng = np.random.default_rng([pop.seed, 5])
    for M in range(2, 9):
        for r in range(3):
            state = _random_state(rng, M)
            a, b = rng.choice(M, size=2, replace=False)
            gp = _angles(rng, -math.pi, math.pi)
            fast = apply_edge_gate(state, (a, b), gp)
            dense = apply_two_qubit_dense(state, (a, b), edge_gate_matrix(gp))
            pairs = [(_max_abs(fast.amplitudes - dense.amplitudes), tol)]
            # Bloch consistency: partial trace against 1/2 (I + r . sigma)
            i = int(rng.integers(M))
            v = pauli_expectation(fast, i)
            bloch = 0.5 * np.array([[1.0 + v.z, v.x - 1j * v.y], [v.x + 1j * v.y, 1.0 - v.z]])
            pairs.append((_max_abs(reduced_density_1q(fast, i).matrix - bloch), 1e-12))
            # the all-qubit Bloch read against the per-qubit oracle
            pairs += [
                (_bloch_gap(v, pauli_expectation(fast, q)), tol)
                for q, v in enumerate(bloch_vectors(fast))
            ]
            yield f"M={M} state {r}", pairs
    # the doubling build against the gate-by-gate chain, then edge-order
    # freedom, on a batch of small graphs
    for _ in range(5):
        g = generate("erdos_renyi", 6, {"p": 0.5}, int(rng.integers(0, 2**63)))
        gp = _angles(rng, 0.0, math.pi)
        ref = build_graph_state(g, gp)
        chain = init_product_state(g.M, ent.ALPHA_INV_SQRT2, ent.ALPHA_INV_SQRT2)
        for edge in g.edges:
            chain = apply_edge_gate(chain, edge, gp)
        shuffled = DirectedGraph(g.M, tuple(g.edges[i] for i in rng.permutation(g.num_edges)))
        yield graph_hash(g)[:12], [
            (_max_abs(ref.amplitudes - chain.amplitudes), tol),
            (_max_abs(build_graph_state(shuffled, gp).amplitudes - ref.amplitudes), 1e-15),
        ]


def _center_record(d_out: int, d_in: int, gp: GateParams, tol: float) -> Record:
    """Vertex 0 with d_out outgoing and d_in incoming leaves, against the closed form."""
    edges = tuple((0, 1 + k) for k in range(d_out)) + tuple(
        (1 + d_out + k, 0) for k in range(d_in)
    )
    got = pauli_expectation(build_graph_state(DirectedGraph(1 + d_out + d_in, edges), gp), 0)
    want = ent.pauli_vector_closed_form(d_out, d_in, gp)
    return f"d_out={d_out}, d_in={d_in}", [(_bloch_gap(got, want), tol)]


def _pauli_closed_forms(pop, tol, read):
    rng = np.random.default_rng([pop.seed, 6])
    for d in range(1, 7):
        gp = _angles(rng, 0.0, math.pi)
        yield _center_record(d, 0, gp, tol)  # star_out
        yield _center_record(0, d, gp, tol)  # star_in
    # mixed in/out attachments around one center vertex
    for d_out, d_in in ((1, 1), (2, 1), (1, 2), (3, 2)):
        yield _center_record(d_out, d_in, _angles(rng, 0.0, math.pi), tol)


def _paths_and_zigzags(seed, graphs):
    gp = GateParams(0.9, 0.4)
    cases = []
    for M in range(3, 9):
        zigzag = DirectedGraph(
            M, tuple((i, i + 1) if i % 2 == 0 else (i + 1, i) for i in range(M - 1))
        )
        cases += [(generate("path", M), gp), (zigzag, gp)]
    return cases


def _degree_sufficiency(pop, tol, read):
    for M, (_, path), (_, zigzag) in zip(range(3, 9), read[0::2], read[1::2]):
        yield f"M={M}", [(abs(path - zigzag), tol)]


# Every invariant the suite checks, in report order. A new invariant is one
# new row: a name, its headline threshold, a measure and, if it needs the
# statevector ED of graphs beyond the battery's reports, the cases to read.
CHECKS: tuple[Check, ...] = (
    Check("closed_form_agreement", ent.DISCREPANCY_TOL, _closed_form_agreement),
    Check("antiparallel_closed_form", ent.DISCREPANCY_TOL, _pair_closed_form, _antiparallel_pairs),
    Check("orientation_invariance", 1e-12, _same_as_reports, _reoriented),
    Check("relabeling_invariance", 1e-12, _same_as_reports, _relabeled),
    Check("psi_invariance", 1e-12, _psi_invariance, _psi_resampled),
    Check("maximal_entanglement", 1e-12, _maximal_entanglement, _at_half_pi),
    Check("alpha_optimality", 0.0, _alpha_optimality),
    Check("per_vertex_law", 1e-10, _per_vertex_law),
    Check("gate_correctness", 1e-14, _gate_correctness),
    Check("kernel_cross_validation", 1e-14, _kernel_cross_validation),
    Check("pauli_closed_forms", 1e-10, _pauli_closed_forms),
    Check("degree_sufficiency", 1e-12, _degree_sufficiency, _paths_and_zigzags),
)


def run_suite(seed: int = 0, n_graphs: int = 200, max_m: int = 12) -> SuiteReport:
    """Run every row of :data:`CHECKS`; any violation flips the report to failing.

    The battery and the cases of every row are read in one pass (see
    :func:`population`).
    """
    seed, n_graphs, max_m = _suite_params(seed, n_graphs, max_m)
    pop = population(seed, n_graphs, max_m)
    checks = tuple(run_check(check, pop) for check in CHECKS)
    return SuiteReport(seed=seed, n_graphs=n_graphs, max_m=max_m, checks=checks)
