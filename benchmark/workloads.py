"""The four benchmark workloads: inputs from a seed, one op, and its check.

Every workload drives the program only through a public entry point
(``cli.main`` or ``ed_closed_form``) and checks each output against the
benchmark's own numpy evaluation of the degree law

    E = 1 - (1/M) * sum_i cos(theta)^(2 d(i)),   d = bincount(tails) + bincount(heads),

which shares no code with the program. README.md gives the reason for each
workload and the layers it is meant to load.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

#: Agreement required between the program and the benchmark's degree law.
LAW_TOL = 1e-10


class CheckFailed(Exception):
    """An op's output failed the benchmark's independent check."""


def degree_law(M: int, edges: np.ndarray, theta: float) -> tuple[np.ndarray, float]:
    """Per-vertex ED ``1 - cos(theta)^(2 d_i)`` and their mean, from numpy alone."""
    d = np.bincount(edges[:, 0], minlength=M) + np.bincount(edges[:, 1], minlength=M)
    per_vertex = 1.0 - np.cos(theta) ** (2 * d)
    return per_vertex, float(per_vertex.mean())


def _near(got: float, want: float, what: str, tol: float = LAW_TOL) -> None:
    if not abs(got - want) < tol:
        raise CheckFailed(f"{what}: got {got!r}, want {want!r} (tol {tol:g})")


def _write_graph(path: Path, M: int, edges: np.ndarray) -> None:
    path.write_text(json.dumps({"M": M, "edges": edges.tolist()}), encoding="utf-8")


def _cli_op(cli, argv: list[str], out_path: Path) -> bytes:
    rc = cli.main(argv + ["--out", str(out_path)])
    if rc != 0:
        raise CheckFailed(f"exit code {rc} from {argv[0]}")
    return out_path.read_bytes()


class Workload:
    """Base class. Subclasses build ``self.inputs`` in ``__init__``.

    ``ed`` is the freshly imported ``digraph_ed`` package; ``rng`` is seeded
    from the run seed; ``work`` is the directory for input and output files.
    """

    name = ""
    #: qubit count of the states built, or None when no state is built
    M: int | None = None

    def __init__(self, ed, rng: np.random.Generator, work: Path) -> None:
        self.ed = ed
        self.work = work
        self.inputs: list = []

    def run(self, i: int) -> bytes:
        """Run the op on input ``i`` and return its output bytes."""
        raise NotImplementedError

    def check(self, i: int, out: bytes) -> None:
        """Raise :class:`CheckFailed` unless ``out`` is right for input ``i``."""
        raise NotImplementedError

    def describe(self) -> dict:
        return {
            "M": self.M,
            "edges": [inp["L"] for inp in self.inputs],
            "state_bytes": None if self.M is None else 16 << self.M,
        }


class VerifyLarge(Workload):
    """``verify --graph`` at M=20 over star_out, erdos_renyi p=0.3 and complete_dag."""

    name = "verify_large"
    M = 20
    KINDS = (("star_out", {}), ("erdos_renyi", {"p": 0.3}), ("complete_dag", {}))
    ROUNDS = 3

    def __init__(self, ed, rng, work) -> None:
        super().__init__(ed, rng, work)
        self.cli = ed.cli
        for r in range(self.ROUNDS):
            for kind, params in self.KINDS:
                g = ed.generate(kind, self.M, params, int(rng.integers(0, 2**31)))
                edges = np.array(g.edges, dtype=np.int64).reshape(-1, 2)
                theta = float(rng.uniform(0.0, math.pi))
                psi = float(rng.uniform(-math.pi, math.pi))
                path = work / f"graph{len(self.inputs)}.json"
                _write_graph(path, self.M, edges)
                per_vertex, total = degree_law(self.M, edges, theta)
                self.inputs.append(
                    {"path": path, "theta": theta, "psi": psi, "L": len(edges),
                     "kind": kind, "per_vertex": per_vertex, "total": total}
                )

    def run(self, i: int) -> bytes:
        inp = self.inputs[i]
        argv = ["verify", "--graph", str(inp["path"]),
                "--theta", repr(inp["theta"]), "--psi", repr(inp["psi"])]
        return _cli_op(self.cli, argv, self.work / "verify.json")

    def check(self, i: int, out: bytes) -> None:
        inp = self.inputs[i]
        rep = json.loads(out)
        if len(rep["per_vertex"]) != self.M:
            raise CheckFailed(f"{len(rep['per_vertex'])} per-vertex values for M={self.M}")
        for v, (got, want) in enumerate(zip(rep["per_vertex"], inp["per_vertex"])):
            _near(got, float(want), f"per_vertex[{v}]")
        _near(rep["total_sv"], inp["total"], "total_sv")
        _near(rep["total_cf"], inp["total"], "total_cf")
        if not rep["discrepancy"] < LAW_TOL:
            raise CheckFailed(f"discrepancy {rep['discrepancy']!r} >= {LAW_TOL:g}")
        _near(rep["theta"], inp["theta"], "theta", 1e-12)
        _near(rep["psi"], inp["psi"], "psi", 1e-12)


class SweepMid(Workload):
    """``sweep-theta --grid 101`` on M=14 erdos_renyi p=0.3 graphs."""

    name = "sweep_mid"
    M = 14
    GRAPHS = 8
    GRID = 101

    def __init__(self, ed, rng, work) -> None:
        super().__init__(ed, rng, work)
        self.cli = ed.cli
        self.thetas = np.linspace(0.0, math.pi, self.GRID)
        for n in range(self.GRAPHS):
            g = ed.generate("erdos_renyi", self.M, {"p": 0.3}, int(rng.integers(0, 2**31)))
            edges = np.array(g.edges, dtype=np.int64).reshape(-1, 2)
            psi = float(rng.uniform(-math.pi, math.pi))
            path = work / f"graph{n}.json"
            _write_graph(path, self.M, edges)
            totals = [degree_law(self.M, edges, float(t))[1] for t in self.thetas]
            self.inputs.append({"path": path, "psi": psi, "L": len(edges), "totals": totals})

    def run(self, i: int) -> bytes:
        inp = self.inputs[i]
        argv = ["sweep-theta", "--graph", str(inp["path"]), "--psi", repr(inp["psi"]),
                "--grid", str(self.GRID)]
        return _cli_op(self.cli, argv, self.work / "sweep.csv")

    def check(self, i: int, out: bytes) -> None:
        lines = out.decode("ascii").splitlines()
        if lines[0] != "theta,E_sv,E_cf,discrepancy":
            raise CheckFailed(f"unexpected CSV header {lines[0]!r}")
        rows = lines[1:]
        if len(rows) != self.GRID:
            raise CheckFailed(f"{len(rows)} rows, want {self.GRID}")
        for j, (row, theta, want) in enumerate(zip(rows, self.thetas, self.inputs[i]["totals"])):
            t, e_sv, e_cf, disc = (float(x) for x in row.split(","))
            if t != float(theta):
                raise CheckFailed(f"row {j}: theta {t!r}, want {float(theta)!r}")
            _near(e_sv, want, f"row {j} E_sv")
            _near(e_cf, want, f"row {j} E_cf")
            if not disc < LAW_TOL:
                raise CheckFailed(f"row {j}: discrepancy {disc!r} >= {LAW_TOL:g}")


class SuiteSmall(Workload):
    """``suite --jobs 1`` at its default size, one suite seed per input."""

    name = "suite_small"
    SEEDS = 24

    def __init__(self, ed, rng, work) -> None:
        super().__init__(ed, rng, work)
        self.cli = ed.cli
        self.inputs = [{"seed": int(rng.integers(0, 2**31))} for _ in range(self.SEEDS)]

    def run(self, i: int) -> bytes:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(["suite", "--jobs", "1", "--seed", str(self.inputs[i]["seed"])])
        if rc != 0:
            raise CheckFailed(f"suite exit code {rc}: {buf.getvalue().strip()[-200:]}")
        return buf.getvalue().encode("utf-8")

    def check(self, i: int, out: bytes) -> None:
        lines = out.decode("utf-8").splitlines()
        if not lines or lines[-1] != "suite: PASS":
            raise CheckFailed(f"suite last line {lines[-1:]!r}, want 'suite: PASS'")

    def describe(self) -> dict:
        return {"M": "2..12", "edges": None, "state_bytes": "64..65536",
                "suite_seeds": [inp["seed"] for inp in self.inputs]}


def oriented_graph(rng: np.random.Generator, M: int, L: int) -> np.ndarray:
    """``L`` distinct vertex pairs out of ``M``, each given one random orientation.

    The result has no self-loops, duplicates or antiparallel pairs, so it is
    inside the closed form's domain.
    """
    draw = int(L * 1.2) + 64
    a = rng.integers(0, M, size=draw)
    b = rng.integers(0, M, size=draw)
    keep = a != b
    a, b = a[keep], b[keep]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    _, first = np.unique(lo * M + hi, return_index=True)
    if len(first) < L:
        raise RuntimeError(f"drew only {len(first)} distinct pairs, need {L}")
    first = np.sort(first)[:L]
    lo, hi = lo[first], hi[first]
    flip = rng.random(L) < 0.5
    return np.stack([np.where(flip, hi, lo), np.where(flip, lo, hi)], axis=1)


class ClosedFormHuge(Workload):
    """``ed_closed_form(DirectedGraph(M, edges), theta)`` at M=5e4, |L|=2.5e5."""

    name = "closed_form_huge"
    VERTICES = 50_000
    EDGES = 250_000
    THETAS = 3

    def __init__(self, ed, rng, work) -> None:
        super().__init__(ed, rng, work)
        edges = oriented_graph(rng, self.VERTICES, self.EDGES)
        self.edges = edges.tolist()
        for _ in range(self.THETAS):
            theta = float(rng.uniform(0.0, math.pi))
            self.inputs.append(
                {"theta": theta, "total": degree_law(self.VERTICES, edges, theta)[1]}
            )

    def run(self, i: int) -> bytes:
        g = self.ed.DirectedGraph(self.VERTICES, self.edges)
        return repr(self.ed.ed_closed_form(g, self.inputs[i]["theta"])).encode("ascii")

    def check(self, i: int, out: bytes) -> None:
        _near(float(out), self.inputs[i]["total"], "E_cf")

    def describe(self) -> dict:
        return {"M": self.VERTICES, "edges": [self.EDGES], "state_bytes": None}


WORKLOADS = {w.name: w for w in (VerifyLarge, SweepMid, SuiteSmall, ClosedFormHuge)}
