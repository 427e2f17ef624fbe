"""Checked boundaries, on the source: the oracles' independence, seen in the
imports, the edge-policy gate and the one integer reader, seen in the calls;
then the oracles' index checks."""

import ast
from pathlib import Path

import numpy as np
import pytest

import digraph_ed as ed
from digraph_ed.errors import IndexOutOfRangeError

PACKAGE = Path(ed.__file__).parent

#: What the oracles may take from the kernel module: types and input checks.
ALLOWED_FROM_STATEVECTOR = {
    "DensityMatrix1Q",
    "GateParams",
    "PauliVector",
    "PureState",
    "_qubit_amplitudes",
}


def imports_from(path: Path, target: str) -> list[str]:
    """Every name the module at ``path`` imports from ``target`` ("*": the module itself)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = "." * node.level + (node.module or "")
            if source.lstrip(".") == target or source == f"digraph_ed.{target}":
                names += [a.name for a in node.names]
            elif source.lstrip(".") in ("", "digraph_ed"):
                names += ["*" for a in node.names if a.name == target]
        elif isinstance(node, ast.Import):
            names += ["*" for a in node.names if a.name == f"digraph_ed.{target}"]
    return names


class TestIndependence:
    def test_reference_takes_only_types_and_checks_from_statevector(self):
        names = imports_from(PACKAGE / "reference.py", "statevector")
        assert names, "the oracles build on PureState and the input check"
        assert not set(names) - ALLOWED_FROM_STATEVECTOR, sorted(set(names))

    @pytest.mark.parametrize("module", ["statevector", "entanglement", "digraph", "cli"])
    def test_production_path_imports_nothing_from_reference(self, module):
        assert imports_from(PACKAGE / f"{module}.py", "reference") == []

    def test_the_check_sees_each_import_form(self, tmp_path):
        path = tmp_path / "m.py"
        path.write_text(
            "from .reference import apply_edge_gate\n"
            "from . import reference\n"
            "import digraph_ed.reference\n"
            "from digraph_ed.statevector import _build\n"
            "def f():\n    from .statevector import bloch_arrays\n",
            encoding="utf-8",
        )
        assert imports_from(path, "reference") == ["apply_edge_gate", "*", "*"]
        assert imports_from(path, "statevector") == ["_build", "bloch_arrays"]


def calls_of(path: Path, name: str | None = None) -> list[tuple[str, ast.Call]]:
    """Every call of ``name`` (bare or as an attribute; any call if None) in the
    module at ``path``, with the top-level function or class it is in."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = []
    for top in tree.body:
        where = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and name in (None, called_name(node)):
                calls.append((where, node))
    return calls


def called_name(call: ast.Call) -> str | None:
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def admits_pairs(call: ast.Call) -> bool:
    """Whether ``call`` passes ``allow_antiparallel=True`` (to ``validate``, or True
    after the graph)."""
    values = [k.value for k in call.keywords if k.arg == "allow_antiparallel"]
    if called_name(call) == "validate":
        values += call.args[1:]
    return any(isinstance(v, ast.Constant) and v.value is True for v in values)


#: Where a graph enters: the only callers of the edge-policy gate.
GATE_CALLERS = {
    ("digraph", "reverse_edges"),
    ("cli", "_report"),
    ("cli", "cmd_sweep_theta"),
}


class TestPolicyGate:
    """Degrees from ``g.degrees``, policy from ``validate``, at entry."""

    def test_no_call_admits_antiparallel_pairs(self):
        found = [
            f"{path.stem}.{where}"
            for path in sorted(PACKAGE.glob("*.py"))
            for where, call in calls_of(path)
            if admits_pairs(call)
        ]
        assert found == []

    def test_validate_is_called_only_where_a_graph_enters(self):
        callers = {
            (path.stem, where)
            for path in PACKAGE.glob("*.py")
            for where, _ in calls_of(path, "validate")
        }
        assert callers == GATE_CALLERS

    def test_the_check_sees_each_call_form(self, tmp_path):
        path = tmp_path / "m.py"
        path.write_text(
            "from .digraph import validate\n"
            "def f(g):\n    return validate(g, allow_antiparallel=True)\n"
            "class C:\n    def m(self, g):\n        digraph.validate(g, True)\n"
            "reverse_edges(g, (), allow_antiparallel=True)\n"
            "validate(g)\n"
            "print(g, True)\n",
            encoding="utf-8",
        )
        calls = calls_of(path, "validate")
        assert [where for where, _ in calls] == ["f", "C", "<module>"]
        assert [admits_pairs(call) for _, call in calls_of(path)] == [
            True, True, True, False, False
        ]


def index_calls(path: Path) -> set[tuple[str, str]]:
    """Where the module at ``path`` calls ``operator.index`` (under any name it
    imports it as) or an ``__index__`` method: (module, top-level function or class)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "operator":
            names |= {a.asname or a.name for a in node.names if a.name == "index"}
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "operator"}
    found = set()
    for where, call in calls_of(path):
        f = call.func
        if (
            isinstance(f, ast.Name) and f.id in names
            or isinstance(f, ast.Attribute) and f.attr == "__index__"
            or isinstance(f, ast.Attribute) and f.attr == "index"
            and isinstance(f.value, ast.Name) and f.value.id in modules
        ):
            found.add((path.stem, where))
    return found


class TestOneIntegerReader:
    """Every integer is read by ``errors.integer``; ``digraph._edge`` inlines it
    because it runs once per edge. Nothing else writes the rule again."""

    def test_operator_index_is_called_only_in_the_reader_and_the_edge_read(self):
        found = set().union(*(index_calls(path) for path in PACKAGE.glob("*.py")))
        assert found == {("errors", "integer"), ("digraph", "_edge")}

    def test_the_check_sees_each_call_form(self, tmp_path):
        path = tmp_path / "m.py"
        path.write_text(
            "import operator\n"
            "import operator as op\n"
            "from operator import index as ix\n"
            "def f(v):\n    return operator.index(v)\n"
            "def g(v):\n    return op.index(v)\n"
            "class C:\n    def m(self, v):\n        return ix(v)\n"
            "def h(v):\n    return v.__index__()\n"
            "def not_this(s, xs):\n    return s.index('a') + xs.index(2) + index(3)\n",
            encoding="utf-8",
        )
        assert index_calls(path) == {("m", "f"), ("m", "g"), ("m", "C"), ("m", "h")}


class TestIndices:
    """Edge endpoints and qubit indices are read as integers, never truncated."""

    def state(self):
        return ed.init_product_state(3, 0.6, 0.8)

    @pytest.mark.parametrize("edge", [(0.9, 1), (0, 1.0), ("0", 1), (None, 1)])
    def test_non_integer_endpoint_is_refused(self, edge):
        gp = ed.GateParams(0.7, 0.2)
        for apply, operand in (
            (ed.apply_edge_gate, gp),
            (ed.apply_two_qubit_dense, ed.edge_gate_matrix(gp)),
        ):
            with pytest.raises(IndexOutOfRangeError) as info:
                apply(self.state(), edge, operand)
            bad = next(v for v in edge if not isinstance(v, int))
            assert str(info.value) == f"edge endpoint must be an integer, got {bad!r}"

    @pytest.mark.parametrize("i", [1.0, 0.5, "1", None])
    def test_non_integer_qubit_is_refused(self, i):
        for read in (ed.pauli_expectation, ed.reduced_density_1q):
            with pytest.raises(IndexOutOfRangeError) as info:
                read(self.state(), i)
            assert str(info.value) == f"qubit index must be an integer, got {i!r}"

    def test_numpy_integers_are_indices(self):
        st, gp = self.state(), ed.GateParams(0.7, 0.2)
        a, b = np.int64(0), np.intp(2)
        assert np.array_equal(
            ed.apply_edge_gate(st, (a, b), gp).amplitudes,
            ed.apply_edge_gate(st, (0, 2), gp).amplitudes,
        )
        dense = ed.apply_two_qubit_dense(st, (a, b), ed.edge_gate_matrix(gp))
        assert np.array_equal(
            dense.amplitudes,
            ed.apply_two_qubit_dense(st, (0, 2), ed.edge_gate_matrix(gp)).amplitudes,
        )
        assert ed.pauli_expectation(st, np.int32(1)) == ed.pauli_expectation(st, 1)
        assert ed.reduced_density_1q(st, np.uint8(2)) == ed.reduced_density_1q(st, 2)
