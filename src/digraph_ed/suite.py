"""Seeded property battery: every invariant the library promises, end to end.

Each check walks a deterministic population of graphs and parameters derived
from one seed, records violations keyed by graph hash, and reports the worst
observed magnitude next to its threshold. Aggregation is order-independent,
so per-graph verification can fan out across threads without changing the
report.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import entanglement as ent
from .digraph import DirectedGraph, degrees, generate, graph_hash, permute, reverse_edges
from .errors import BadParamsError
from .statevector import (
    GateParams,
    PureState,
    apply_edge_gate,
    apply_two_qubit_dense,
    bloch_vectors,
    build_graph_state,
    commutation_check,
    edge_gate_matrix,
    init_product_state,
    pauli_expectation,
    reduced_density_1q,
)


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


def battery(seed: int, n_graphs: int, max_m: int) -> list[tuple[DirectedGraph, GateParams]]:
    """The seeded graph population: Erdos-Renyi digraphs with random angles.

    M uniform on [2, max_m], edge probability from {0.2, 0.5, 0.8}, and
    theta, psi uniform on (0, pi). Pure function of the arguments; an empty
    population or one with no admissible M is refused, since every check
    would pass on it vacuously.
    """
    if n_graphs < 1:
        raise BadParamsError(f"the suite needs at least 1 graph, got {n_graphs}")
    if max_m < 2:
        raise BadParamsError(f"the suite needs max_m >= 2, got {max_m}")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_graphs):
        M = int(rng.integers(2, max_m + 1))
        p = float(rng.choice([0.2, 0.5, 0.8]))
        gseed = int(rng.integers(0, 2**63))
        theta = float(rng.uniform(0.0, math.pi))
        psi = float(rng.uniform(0.0, math.pi))
        out.append((generate("erdos_renyi", M, {"p": p}, gseed), GateParams(theta, psi)))
    return out


def _verify_reports(cases, seed, jobs):
    def one(item):
        n, (g, gp) = item
        return ent.verify_graph(g, gp, seed_info=f"suite seed={seed} idx={n}")

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(one, enumerate(cases)))
    else:
        reports = [one(item) for item in enumerate(cases)]
    return reports


def _check_closed_form_agreement(cases, reports) -> CheckResult:
    tol = ent.DISCREPANCY_TOL
    worst = 0.0
    bad = []
    for (g, gp), rep in zip(cases, reports):
        worst = max(worst, rep.discrepancy)
        if rep.discrepancy >= tol:
            bad.append(f"{rep.graph_hash[:12]}: |E_sv - E_cf| = {rep.discrepancy:.3e}")
    return CheckResult("closed_form_agreement", len(cases), tol, worst, tuple(bad))


def _check_orientation(cases, reports, seed, limit=50) -> CheckResult:
    rng = np.random.default_rng([seed, 1])
    worst = 0.0
    bad = []
    subset_cases = cases[:limit]
    for (g, gp), rep in zip(subset_cases, reports):
        if g.num_edges == 0:
            flipped = g
        else:
            mask = rng.random(g.num_edges) < 0.5
            flipped = reverse_edges(g, np.flatnonzero(mask))
        delta = abs(ent.ed_total(build_graph_state(flipped, gp)) - rep.total_statevector)
        worst = max(worst, delta)
        if delta >= 1e-12:
            bad.append(f"{rep.graph_hash[:12]}: reversal moved E_sv by {delta:.3e}")
    return CheckResult("orientation_invariance", len(subset_cases), 1e-12, worst, tuple(bad))


def _check_relabeling(cases, reports, seed, limit=50) -> CheckResult:
    rng = np.random.default_rng([seed, 2])
    worst = 0.0
    bad = []
    subset_cases = cases[:limit]
    for (g, gp), rep in zip(subset_cases, reports):
        perm = rng.permutation(g.M)
        delta = abs(
            ent.ed_total(build_graph_state(permute(g, perm), gp)) - rep.total_statevector
        )
        worst = max(worst, delta)
        if delta >= 1e-12:
            bad.append(f"{rep.graph_hash[:12]}: relabeling moved E_sv by {delta:.3e}")
    return CheckResult("relabeling_invariance", len(subset_cases), 1e-12, worst, tuple(bad))


def _check_psi_invariance(cases, seed, limit=5, n_psi=10) -> CheckResult:
    rng = np.random.default_rng([seed, 3])
    worst = 0.0
    bad = []
    subset = cases[:limit]
    for g, gp in subset:
        values = [
            ent.ed_total(build_graph_state(g, GateParams(gp.theta, float(psi))))
            for psi in rng.uniform(-math.pi, math.pi, size=n_psi)
        ]
        spread = max(values) - min(values)
        worst = max(worst, spread)
        if spread >= 1e-12:
            bad.append(f"{graph_hash(g)[:12]}: E_sv spread over psi = {spread:.3e}")
    return CheckResult("psi_invariance", len(subset), 1e-12, worst, tuple(bad))


def _check_maximal(cases) -> CheckResult:
    worst = 0.0
    bad = []
    n = 0
    half_pi = math.pi / 2.0
    for g, gp in cases:
        if min(rec.total for rec in degrees(g)) < 1:
            continue
        n += 1
        err = abs(ent.ed_total(build_graph_state(g, GateParams(half_pi, gp.psi))) - 1.0)
        worst = max(worst, err)
        if err >= 1e-12:
            bad.append(f"{graph_hash(g)[:12]}: |E_sv - 1| = {err:.3e} at theta=pi/2")
    # the fully separable reference point must sit at zero exactly
    empty = DirectedGraph(3, ())
    n += 1
    e_empty = ent.ed_total(build_graph_state(empty, GateParams(1.0, 0.5)))
    worst = max(worst, abs(e_empty))
    if e_empty != 0.0:
        bad.append(f"empty graph: E_sv = {e_empty!r} != 0")
    return CheckResult("maximal_entanglement", n, 1e-12, worst, tuple(bad))


def _check_alpha_optimality(grid=101) -> CheckResult:
    sweep = ent.alpha_sweep(GateParams(math.pi / 2.0, 0.0), grid)
    bad = []
    for name, got in (
        ("argmax_E", sweep.argmax_E),
        ("argmax_S", sweep.argmax_S),
        ("argmin_DHS", sweep.argmin_DHS),
    ):
        if got != 0.5:
            bad.append(f"{name} = {got!r}, expected 0.50 on the grid")
    half = grid // 2
    e_up = [s[1] for s in sweep.samples[: half + 1]]
    s_up = [s[2] for s in sweep.samples[: half + 1]]
    d_down = [s[3] for s in sweep.samples[: half + 1]]
    if any(b <= a for a, b in zip(e_up, e_up[1:])):
        bad.append("E not strictly increasing on t in [0, 0.5]")
    if any(b <= a for a, b in zip(s_up, s_up[1:])):
        bad.append("S not strictly increasing on t in [0, 0.5]")
    if any(b >= a for a, b in zip(d_down, d_down[1:])):
        bad.append("D_HS not strictly decreasing on t in [0, 0.5]")
    worst = abs(sweep.argmax_E - 0.5)
    return CheckResult("alpha_optimality", grid, 0.0, worst, tuple(bad))


def _check_per_vertex_law(cases, reports) -> CheckResult:
    worst = 0.0
    bad = []
    n = 0
    for (g, gp), rep in zip(cases, reports):
        c = math.cos(gp.theta)
        for rec, ev in zip(degrees(g), rep.per_vertex):
            n += 1
            err = abs(ev - (1.0 - c ** (2 * rec.total)))
            worst = max(worst, err)
            if err >= 1e-10:
                bad.append(f"{rep.graph_hash[:12]}: per-vertex law off by {err:.3e}")
    return CheckResult("per_vertex_law", n, 1e-10, worst, tuple(bad))


def _check_gates(seed, n_params=20) -> CheckResult:
    rng = np.random.default_rng([seed, 4])
    bad = []
    cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    cz_err = float(
        np.max(np.abs(edge_gate_matrix(GateParams(math.pi / 2, math.pi / 2)) - cz))
    )
    if cz_err >= 1e-15:
        bad.append(f"edge gate at (pi/2, pi/2) differs from CZ by {cz_err:.3e}")
    worst = cz_err
    for _ in range(n_params):
        gp = GateParams(float(rng.uniform(-math.pi, math.pi)), float(rng.uniform(-math.pi, math.pi)))
        c = commutation_check(gp)
        worst = max(worst, c)
        if c >= 1e-14:
            bad.append(f"commutator norm {c:.3e} at theta={gp.theta:.3f}, psi={gp.psi:.3f}")
    return CheckResult("gate_correctness", n_params + 1, 1e-14, worst, tuple(bad))


def _random_state(rng, M: int) -> PureState:
    v = rng.normal(size=1 << M) + 1j * rng.normal(size=1 << M)
    return PureState(M, v / np.linalg.norm(v))


def _check_kernel_cross_validation(seed, reps=3) -> CheckResult:
    rng = np.random.default_rng([seed, 5])
    worst = 0.0
    bad = []
    n = 0
    for M in range(2, 9):
        for _ in range(reps):
            n += 1
            state = _random_state(rng, M)
            a, b = rng.choice(M, size=2, replace=False)
            gp = GateParams(float(rng.uniform(-math.pi, math.pi)), float(rng.uniform(-math.pi, math.pi)))
            fast = apply_edge_gate(state, (a, b), gp)
            dense = apply_two_qubit_dense(state, (a, b), edge_gate_matrix(gp))
            err = float(np.max(np.abs(fast.amplitudes - dense.amplitudes)))
            worst = max(worst, err)
            if err >= 1e-14:
                bad.append(f"M={M}: fast/dense kernels differ by {err:.3e}")
            # Bloch consistency: partial trace against 1/2 (I + r . sigma)
            i = int(rng.integers(M))
            r = pauli_expectation(fast, i)
            bloch = 0.5 * np.array(
                [[1.0 + r.z, r.x - 1j * r.y], [r.x + 1j * r.y, 1.0 - r.z]]
            )
            rho_err = float(np.max(np.abs(reduced_density_1q(fast, i).matrix - bloch)))
            worst = max(worst, rho_err)
            if rho_err >= 1e-12:
                bad.append(f"M={M}: partial trace vs Bloch form differ by {rho_err:.3e}")
            # the all-qubit Bloch read against the per-qubit oracle
            for q, v in enumerate(bloch_vectors(fast)):
                want = pauli_expectation(fast, q)
                err = max(abs(v.x - want.x), abs(v.y - want.y), abs(v.z - want.z))
                worst = max(worst, err)
                if err >= 1e-14:
                    bad.append(
                        f"M={M}: bloch_vectors and pauli_expectation differ on qubit {q}"
                        f" by {err:.3e}"
                    )
    # the doubling build against the gate-by-gate chain, then edge-order
    # freedom, on a batch of small graphs
    for _ in range(5):
        n += 1
        g = generate("erdos_renyi", 6, {"p": 0.5}, int(rng.integers(0, 2**63)))
        gp = GateParams(float(rng.uniform(0, math.pi)), float(rng.uniform(0, math.pi)))
        ref = build_graph_state(g, gp)
        chain = init_product_state(g.M, ent.ALPHA_INV_SQRT2, ent.ALPHA_INV_SQRT2)
        for edge in g.edges:
            chain = apply_edge_gate(chain, edge, gp)
        err = float(np.max(np.abs(ref.amplitudes - chain.amplitudes)))
        worst = max(worst, err)
        if err >= 1e-14:
            bad.append(f"{graph_hash(g)[:12]}: built state and edge-gate chain differ by {err:.3e}")
        shuffled = DirectedGraph(g.M, tuple(g.edges[i] for i in rng.permutation(g.num_edges)))
        err = float(np.max(np.abs(build_graph_state(shuffled, gp).amplitudes - ref.amplitudes)))
        worst = max(worst, err)
        if err >= 1e-15:
            bad.append(f"edge-order shuffle moved amplitudes by {err:.3e}")
    return CheckResult("kernel_cross_validation", n, 1e-14, worst, tuple(bad))


def _check_pauli_closed_forms(seed) -> CheckResult:
    rng = np.random.default_rng([seed, 6])
    worst = 0.0
    bad = []
    n = 0

    def compare(g, center, d_out, d_in, gp):
        nonlocal worst, n
        n += 1
        got = pauli_expectation(build_graph_state(g, gp), center)
        want = ent.pauli_vector_closed_form(d_out, d_in, gp)
        err = max(abs(got.x - want.x), abs(got.y - want.y), abs(got.z - want.z))
        worst = max(worst, err)
        if err >= 1e-10:
            bad.append(
                f"{graph_hash(g)[:12]}: closed-form Bloch vector off by {err:.3e} "
                f"(d_out={d_out}, d_in={d_in})"
            )

    for d in range(1, 7):
        gp = GateParams(float(rng.uniform(0, math.pi)), float(rng.uniform(0, math.pi)))
        compare(generate("star_out", d + 1), 0, d, 0, gp)
        compare(generate("star_in", d + 1), 0, 0, d, gp)
    # mixed in/out attachments around one center vertex
    for d_out, d_in in ((1, 1), (2, 1), (1, 2), (3, 2)):
        gp = GateParams(float(rng.uniform(0, math.pi)), float(rng.uniform(0, math.pi)))
        M = 1 + d_out + d_in
        edges = tuple((0, 1 + k) for k in range(d_out)) + tuple(
            (1 + d_out + k, 0) for k in range(d_in)
        )
        compare(DirectedGraph(M, edges), 0, d_out, d_in, gp)
    return CheckResult("pauli_closed_forms", n, 1e-10, worst, tuple(bad))


def _check_degree_sufficiency(max_m=8) -> CheckResult:
    worst = 0.0
    bad = []
    n = 0
    theta = 0.9
    gp = GateParams(theta, 0.4)
    for M in range(3, max_m + 1):
        n += 1
        chain = generate("path", M)
        zigzag = DirectedGraph(
            M, tuple((i, i + 1) if i % 2 == 0 else (i + 1, i) for i in range(M - 1))
        )
        delta = abs(
            ent.ed_total(build_graph_state(chain, gp))
            - ent.ed_total(build_graph_state(zigzag, gp))
        )
        worst = max(worst, delta)
        if delta >= 1e-12:
            bad.append(f"M={M}: equal degree multisets gave E_sv apart by {delta:.3e}")
    return CheckResult("degree_sufficiency", n, 1e-12, worst, tuple(bad))


def run_suite(
    seed: int = 0, n_graphs: int = 200, max_m: int = 12, jobs: int = 1
) -> SuiteReport:
    """Run the full battery; any violation flips the report to failing."""
    cases = battery(seed, n_graphs, max_m)
    reports = _verify_reports(cases, seed, jobs)
    checks = (
        _check_closed_form_agreement(cases, reports),
        _check_orientation(cases, reports, seed),
        _check_relabeling(cases, reports, seed),
        _check_psi_invariance(cases, seed),
        _check_maximal(cases),
        _check_alpha_optimality(),
        _check_per_vertex_law(cases, reports),
        _check_gates(seed),
        _check_kernel_cross_validation(seed),
        _check_pauli_closed_forms(seed),
        _check_degree_sufficiency(),
    )
    return SuiteReport(seed=seed, n_graphs=n_graphs, max_m=max_m, checks=checks)
