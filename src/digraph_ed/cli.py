"""Command-line harness: graph generation, ED runs, sweeps, and the suite.

Commands
--------
gen          write a graph JSON file
ed           print per-vertex and total ED for one graph, from the verify report
verify       emit the dual-route EDReport as JSON
sweep-theta  CSV/JSON rows (theta, E_sv, E_cf, discrepancy) over [0, pi]
sweep-alpha  CSV/JSON rows (t, E, S_nats, D_HS) for the single-edge pair
suite        run the seeded property battery; nonzero exit on any violation

Angles are radians unless --deg is given. Floats are printed at 17
significant digits so identical configurations produce byte-identical
artifacts. Exit codes: 0 success, 1 invariant violation found, 2 bad
input/config, 64 capability exceeded (M, or suite --max-M, over the qubit
cap; or a ``gen`` graph over MAX_GEN_EDGES), 70 internal error (any other
exception: a bug, reported as one ``error: internal: <type>: <message>``
line, never a traceback).
The qubit cap is the engine's own,
:data:`digraph_ed.statevector.DEFAULT_MAX_QUBITS` (24), read at call time;
no option or environment variable changes it. ``ed``, ``verify`` and
``sweep-theta`` check ``--M`` against it before generating a graph, and a
``--graph`` file's M right after reading it; ``suite`` checks ``--max-M``
before building its battery.
Every ``--seed`` is an integer >= 0; a sweep's ``--grid`` is checked at
parse time: 2 (sweep-theta) or 3 (sweep-alpha) to MAX_GRID (100000)
points, and so is ``suite --graphs``: 1 to MAX_GRAPHS (10000).
``suite --jobs`` is parsed (an integer >= 1) and ignored: the suite runs in
one thread (at ``--max-M`` 17 and up the build and the Bloch read of a
state past one block each take a second, see :mod:`digraph_ed.statevector`).
``verify --trace PATH`` writes where the run's time went, one JSON line per
span (see :mod:`digraph_ed.trace`), and exits 2 before any work when PATH
is the ``--out`` file.
``gen`` builds no state, so the qubit cap does not bound it: the most
edges a kind can make at M (M for path, cycle and the stars, M (M - 1) / 2
for complete_dag and erdos_renyi, which keeps at most one edge of a pair)
may not exceed MAX_GEN_EDGES (4500000), checked before
generating.
Degrees from ``g.degrees``, policy from :func:`~digraph_ed.digraph.validate`,
at entry: ``ed``, ``verify`` and ``sweep-theta`` apply the edge policy once,
after the angles are parsed and before any state is built: antiparallel
pairs exit 2 unless ``--allow-antiparallel`` is given. The library they
call builds any structurally valid graph. ``ed`` and ``verify`` take one
path to :func:`~digraph_ed.entanglement.verify_graph`; ``ed`` prints the
report's per-vertex and total statevector ED. The top level takes no option
but ``-h``/``--help``: any other before the command is named in the error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys

import numpy as np

from . import digraph, statevector, suite as suite_mod, trace
from .entanglement import (
    EDReport,
    GateParams,
    alpha_sweep,
    ed_closed_form,
    ed_totals,
    fmt17,
    verify_graph,
)
from .errors import AntiparallelPairError, CapacityError, DigraphEdError, EdgeBoundError, shown

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BAD_INPUT = 2
EXIT_CAPABILITY = 64
#: an exception the program did not expect: a bug, not bad input (EX_SOFTWARE)
EXIT_INTERNAL = 70

#: Most points a sweep's ``--grid`` takes: one row each, all held until written.
MAX_GRID = 100_000
#: Most graphs ``suite --graphs`` takes: the battery holds every case and its
#: report until the checks run (10000 take ~5 s and ~70 MiB on 2 vCPU).
MAX_GRAPHS = 10_000
#: Most edges a ``gen`` kind may be able to make at M, checked before the
#: edge list is built: complete_dag and erdos_renyi fit at M = 3000
#: (4498500). Each edge is a few Python objects: erdos_renyi at M = 3000,
#: p = 0.3 (2.3M edges, after M (M - 1) float draws) peaks near 640 MiB
#: and path at M = 10^6 near 400 MiB.
MAX_GEN_EDGES = 4_500_000


def _error_line(message) -> str:
    """``error: <message>`` as one line of at most 200 bytes and the newline.

    Each line break in the message becomes a space, and a line that is still
    longer (a long path in an ``OSError``, many words in a usage error) is
    cut to 200 bytes, ending in "...".
    """
    line = "error: " + " ".join(str(message).splitlines())
    raw = line.encode("utf-8", "backslashreplace")  # as stderr writes it
    if len(raw) > 200:
        line = raw[:197].decode("utf-8", "ignore") + "..."
    return line + "\n"


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that reports a usage error as one ``error:`` line, exit 2.

    It takes ``-1e-3``, ``-.5e2`` and ``-inf`` for option values, as it
    takes ``-1`` and ``-1.5``, where argparse alone reads them as options.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-(inf|infinity|nan)$", re.I
        )

    def error(self, message):
        # argparse quotes refused words raw, whatever their length and number, line
        # breaks and all. A word over 40 characters is cut to 40, ending in "...", as
        # errors.shown cuts a value, so argparse's own text, which takes up to 147 of
        # the line's 200 bytes (an invalid sweep-theta --kind, with its choices), stays in
        # view when _error_line cuts the line to 200 bytes
        message = re.sub(r"\S{41,}", lambda word: word[0][:37] + "...", message)
        self.exit(EXIT_BAD_INPUT, _error_line(f"{self.prog}: {message}"))


def _int_range(low: int, high: int | None = None):
    """An argparse type: an integer in [low, high], or >= low when high is None."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            # a decimal that int() refuses is one past Python's digit limit
            decimal = re.fullmatch(r"\s*[+-]?\d+(_\d+)*\s*", text)
            problem = "out of range" if decimal else "expected an integer"
            raise argparse.ArgumentTypeError(f"{problem}, got {shown(text)}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {shown(value)}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {shown(value)}")
        return value

    return parse


#: ``--M`` and ``--jobs``
_positive_int = _int_range(1)
#: every ``--seed``
_seed = _int_range(0)


def _add_graph_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", metavar="PATH", help="graph JSON file")
    p.add_argument("--kind", choices=digraph.GENERATOR_KINDS, help="generator kind")
    p.add_argument("--M", type=_positive_int, help="number of vertices/qubits")
    p.add_argument("--p", type=float, help="edge probability (erdos_renyi)")
    p.add_argument("--seed", type=_seed, default=0, help="generator seed, >= 0")
    p.add_argument(
        "--allow-antiparallel",
        action="store_true",
        help="admit (a,b)+(b,a) pairs; each acts as one double-angle gate, "
        "a factor cos(2 theta) in the closed form",
    )


def _add_angles(p: argparse.ArgumentParser, theta: bool = True) -> None:
    if theta:
        p.add_argument("--theta", type=float, required=True, help="gate angle theta")
    p.add_argument("--psi", type=float, default=0.0, help="gate angle psi")
    p.add_argument("--deg", action="store_true", help="interpret angles as degrees")


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(prog="digraph-ed", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph and write its JSON")
    p.add_argument("--kind", choices=digraph.GENERATOR_KINDS, required=True)
    p.add_argument("--M", type=_positive_int, required=True)
    p.add_argument("--p", type=float)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", metavar="PATH")

    p = sub.add_parser("ed", help="print per-vertex and total ED")
    _add_graph_source(p)
    _add_angles(p)

    p = sub.add_parser("verify", help="emit the dual-route EDReport as JSON")
    _add_graph_source(p)
    _add_angles(p)
    p.add_argument("--out", metavar="PATH")
    p.add_argument(
        "--trace", metavar="PATH",
        help="write where the run's time went as JSON lines, one per span (see README)",
    )

    p = sub.add_parser("sweep-theta", help="sweep theta over [0, pi]")
    _add_graph_source(p)
    _add_angles(p, theta=False)
    p.add_argument(
        "--grid", type=_int_range(2, MAX_GRID), default=101,
        help=f"number of grid points, 2 to {MAX_GRID}",
    )
    _add_output(p)

    p = sub.add_parser("sweep-alpha", help="initial-state sweep on the single-edge pair")
    _add_angles(p)
    p.add_argument(
        "--grid", type=_int_range(3, MAX_GRID), default=101,
        help=f"number of grid points, 3 to {MAX_GRID}",
    )
    _add_output(p)

    p = sub.add_parser("suite", help="run the seeded property battery")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument(
        "--graphs", type=_int_range(1, MAX_GRAPHS), default=200,
        help=f"number of seeded graphs, 1 to {MAX_GRAPHS}",
    )
    p.add_argument("--max-M", dest="max_m", type=int, default=12)
    p.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="accepted and ignored: the suite runs in one thread, since a thread "
        "pool did not pay for itself on these small states",
    )

    return ap


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept for the process."""
    return build_parser()


def _angle(args, value: float) -> float:
    return math.radians(value) if getattr(args, "deg", False) else value


def _check_cap(M: int) -> None:
    """Refuse M over the engine's qubit cap, read at call time."""
    if M > statevector.DEFAULT_MAX_QUBITS:
        raise CapacityError(M, statevector.DEFAULT_MAX_QUBITS)


def _gen_edges(kind: str, M: int) -> int:
    """Most edges ``kind`` can make at M."""
    if kind in ("complete_dag", "erdos_renyi"):
        return M * (M - 1) // 2  # erdos_renyi keeps at most one edge of a pair
    return M  # path, cycle and the stars make at most M


def _generate(args) -> digraph.DirectedGraph:
    """The ``--kind``/``--M`` graph; its caller has checked M's bound."""
    if args.kind == "erdos_renyi" and args.p is None:
        raise DigraphEdError("erdos_renyi requires --p")
    params = {} if args.p is None else {"p": args.p}
    return digraph.generate(args.kind, args.M, params, args.seed)


def _resolve_graph(args) -> digraph.DirectedGraph:
    from_file = args.graph is not None
    from_gen = args.kind is not None
    if from_file == from_gen:
        raise DigraphEdError("supply exactly one graph source: --graph PATH or --kind/--M")
    if from_gen:
        if args.M is None:
            raise DigraphEdError("--kind requires --M")
        _check_cap(args.M)
        return _generate(args)
    # validated by the command that uses it, under its edge policy
    g = digraph.read_graph(args.graph)
    _check_cap(g.M)
    return g


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _emit_rows(columns, rows, fmt: str, out_path) -> None:
    """Write float rows as CSV (header line first) or as a JSON list of objects."""
    if fmt == "csv":
        text = ",".join(columns) + "\n" + "".join(
            ",".join(fmt17(v) for v in row) + "\n" for row in rows
        )
    else:
        objects = (
            "{" + ", ".join(f'"{c}": {fmt17(v)}' for c, v in zip(columns, row)) + "}"
            for row in rows
        )
        text = "[" + ", ".join(objects) + "]\n"
    _emit(text, out_path)


def cmd_gen(args) -> int:
    edges = _gen_edges(args.kind, args.M)
    if edges > MAX_GEN_EDGES:
        raise EdgeBoundError(args.kind, args.M, edges, MAX_GEN_EDGES)
    _emit(digraph.dump_graph(_generate(args)), args.out)
    return EXIT_OK


def _report(args) -> EDReport:
    """The dual-route report of the graph and angles ``args`` name, under its edge policy."""
    g = _resolve_graph(args)
    gp = GateParams(_angle(args, args.theta), _angle(args, args.psi))
    source = args.graph if args.graph else f"kind={args.kind} M={args.M} seed={args.seed}"
    digraph.validate(g, args.allow_antiparallel)
    return verify_graph(g, gp, seed_info=source)


def cmd_ed(args) -> int:
    report = _report(args)
    lines = [f"E({i}) = {fmt17(v)}" for i, v in enumerate(report.per_vertex)]
    lines.append(f"E_total = {fmt17(report.total_statevector)}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    _emit(_report(args).to_json() + "\n", args.out)
    return EXIT_OK


def cmd_sweep_theta(args) -> int:
    g = _resolve_graph(args)
    psi = _angle(args, args.psi)
    thetas = np.linspace(0.0, math.pi, args.grid).tolist()
    gps = [GateParams(theta, psi) for theta in thetas]
    digraph.validate(g, args.allow_antiparallel)
    # the totals alone, read in batches: a report per point would hold every
    # point's per-vertex values until the rows are written
    totals = ed_totals([(g, gp) for gp in gps])
    rows = []
    for theta, gp, total_sv in zip(thetas, gps, totals):
        total_cf = ed_closed_form(g, gp.theta)
        rows.append((theta, total_sv, total_cf, abs(total_sv - total_cf)))
    _emit_rows(("theta", "E_sv", "E_cf", "discrepancy"), rows, args.format, args.out)
    return EXIT_OK


def cmd_sweep_alpha(args) -> int:
    gp = GateParams(_angle(args, args.theta), _angle(args, args.psi))
    sweep = alpha_sweep(gp, args.grid)
    _emit_rows(("t", "E", "S_nats", "D_HS"), sweep.samples, args.format, args.out)
    return EXIT_OK


def cmd_suite(args) -> int:
    _check_cap(args.max_m)
    report = suite_mod.run_suite(seed=args.seed, n_graphs=args.graphs, max_m=args.max_m)
    sys.stdout.write("\n".join(report.summary_lines()) + "\n")
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _one_file(a: str, b: str) -> bool:
    """True if two paths name one file: by hard link or symlink if both exist, else by path."""
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    first = argv[0].partition("=")[0] if argv else ""
    try:
        # the top level takes -h and --help (or a prefix of it) alone, and argparse
        # would read another option's value as the command: name the option instead
        if first.startswith("-") and first != "-h" and not "--help".startswith(first):
            _parser().error(f"unrecognized option {shown(first)} before the command")
        args = _parser().parse_args(argv)
    except SystemExit as e:  # argparse reports usage errors with code 2
        return int(e.code) if e.code else EXIT_OK
    # looked up per call, so a rebound command (a test double, a tracer) is the one run
    command = globals()["cmd_" + args.command.replace("-", "_")]
    trace_path = getattr(args, "trace", None)  # verify's, which also takes --out
    try:
        # the trace file is opened, and emptied, before the command writes --out
        if trace_path and args.out and _one_file(args.out, trace_path):
            raise DigraphEdError(f"--out and --trace name one file, {shown(args.out)}")
        with trace.recording(trace_path), trace.span("cli." + args.command):
            return command(args)
    except CapacityError as e:
        sys.stderr.write(_error_line(e))
        return EXIT_CAPABILITY
    except AntiparallelPairError as e:
        error = AntiparallelPairError(*e.pair, remedy="pass --allow-antiparallel")
        sys.stderr.write(_error_line(error))
        return EXIT_BAD_INPUT
    except (DigraphEdError, OSError) as e:
        sys.stderr.write(_error_line(e))
        return EXIT_BAD_INPUT
    except Exception as e:
        sys.stderr.write(_error_line(f"internal: {type(e).__name__}: {e}"))
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
