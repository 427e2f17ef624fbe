"""The oracles' independence, checked on the imports, and their index checks."""

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
