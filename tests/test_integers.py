"""Every count, index and size the library takes is read by one rule.

``digraph_ed.errors.integer`` is the rule: an integer has ``__index__`` and
is not a bool. The table names each entry that takes an integer, what the
value is called there and which error refuses it; every non-integer is
refused with one line naming it, and numpy integers come back as ``int``.
"""

import numpy as np
import pytest

import digraph_ed as ed
from digraph_ed import errors, suite
from digraph_ed.errors import (
    BadGridError,
    BadParamsError,
    GraphError,
    IndexOutOfRangeError,
    NotABijectionError,
)

PATH3 = ed.DirectedGraph(3, ((0, 1), (1, 2)))
GP = ed.GateParams(0.7, 0.2)


def state3():
    return ed.init_product_state(3, 0.6, 0.8)


def pauli(d_out=1, d_in=1, pairs=0):
    v = ed.pauli_vector_closed_form(d_out, d_in, GP, pairs)
    return (v.x, v.y, v.z)


# (entry, the call with the integer in place, a good value, error, its name)
ENTRIES = [
    ("DirectedGraph M", lambda v: ed.DirectedGraph(v, ()).M, 3, GraphError, "M"),
    ("generate M", lambda v: ed.generate("path", v).M, 3, BadParamsError, "M"),
    (
        "generate seed",
        lambda v: ed.generate("erdos_renyi", 5, {"p": 0.5}, v).edges,
        7,
        BadParamsError,
        "seed",
    ),
    (
        "permute entry",
        lambda v: ed.permute(PATH3, [v, 0, 2]).edges,
        1,
        NotABijectionError,
        "perm entry",
    ),
    (
        "reverse_edges index",
        lambda v: ed.reverse_edges(PATH3, [v]).edges,
        1,
        IndexOutOfRangeError,
        "edge index",
    ),
    (
        "PureState M",
        lambda v: ed.PureState(v, [0.6, 0.8]).M,
        1,
        IndexOutOfRangeError,
        "M",
    ),
    (
        "init_product_state M",
        lambda v: ed.init_product_state(v, 0.6, 0.8).M,
        2,
        IndexOutOfRangeError,
        "M",
    ),
    (
        "alpha_sweep grid",
        lambda v: ed.alpha_sweep(GP, v).samples,
        3,
        BadGridError,
        "grid",
    ),
    ("battery seed", lambda v: suite.battery(v, 2, 3), 4, BadParamsError, "seed"),
    ("battery n_graphs", lambda v: suite.battery(4, v, 3), 2, BadParamsError, "n_graphs"),
    ("battery max_m", lambda v: suite.battery(4, 2, v), 3, BadParamsError, "max_m"),
    ("run_suite seed", lambda v: ed.run_suite(v, 2, 3).seed, 4, BadParamsError, "seed"),
    (
        "run_suite n_graphs",
        lambda v: ed.run_suite(4, v, 3).n_graphs,
        2,
        BadParamsError,
        "n_graphs",
    ),
    ("run_suite max_m", lambda v: ed.run_suite(4, 2, v).max_m, 3, BadParamsError, "max_m"),
    ("pauli_vector_closed_form d_out", lambda v: pauli(d_out=v), 2, BadParamsError, "d_out"),
    ("pauli_vector_closed_form d_in", lambda v: pauli(d_in=v), 2, BadParamsError, "d_in"),
    ("pauli_vector_closed_form pairs", lambda v: pauli(pairs=v), 1, BadParamsError, "pairs"),
    (
        "apply_edge_gate endpoint",
        lambda v: ed.apply_edge_gate(state3(), (0, v), GP).amplitudes.tobytes(),
        2,
        IndexOutOfRangeError,
        "edge endpoint",
    ),
    (
        "apply_two_qubit_dense endpoint",
        lambda v: ed.apply_two_qubit_dense(
            state3(), (v, 0), ed.edge_gate_matrix(GP)
        ).amplitudes.tobytes(),
        2,
        IndexOutOfRangeError,
        "edge endpoint",
    ),
    (
        "pauli_expectation qubit",
        lambda v: ed.pauli_expectation(state3(), v),
        1,
        IndexOutOfRangeError,
        "qubit index",
    ),
    (
        "reduced_density_1q qubit",
        lambda v: ed.reduced_density_1q(state3(), v),
        1,
        IndexOutOfRangeError,
        "qubit index",
    ),
]

IDS = [entry[0] for entry in ENTRIES]


@pytest.mark.parametrize("bad", [1.0, "1", None, True], ids=["float", "str", "None", "bool"])
@pytest.mark.parametrize("entry, call, good, error, what", ENTRIES, ids=IDS)
def test_a_non_integer_is_refused_in_one_line_naming_it(entry, call, good, error, what, bad):
    # True was once read as 1 by reverse_edges and the oracles, and most of
    # these entries once ran on 1.0 or escaped as a bare TypeError
    with pytest.raises(error) as info:
        call(bad)
    assert str(info.value) == f"{what} must be an integer, got {bad!r}"


@pytest.mark.parametrize("kind", [np.int64, np.intp])
@pytest.mark.parametrize("entry, call, good, error, what", ENTRIES, ids=IDS)
def test_numpy_integers_are_read_as_ints(entry, call, good, error, what, kind):
    got, want = call(kind(good)), call(good)
    assert got == want
    assert type(got) is type(want)  # an integer that comes back is an int


class TestReader:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.intp(3), np.uint8(3), np.array(3)])
    def test_integers_come_back_as_ints(self, value):
        got = errors.integer(value, "n", BadParamsError)
        assert got == 3 and type(got) is int

    @pytest.mark.parametrize("value", [True, np.True_, 3.0, np.float64(3.0), "3", None, [3]])
    def test_anything_else_raises_the_error_given(self, value):
        with pytest.raises(BadGridError) as info:
            errors.integer(value, "the size", BadGridError)
        assert str(info.value) == f"the size must be an integer, got {value!r}"
        assert info.value.__cause__ is None and info.value.__context__ is None


class TestShown:
    """A refused value is named on one line of at most 80 characters."""

    @pytest.mark.parametrize(
        "value", [3.0, "3", None, [3], (0, 1, 2), np.float64(2.5), list(range(16)), "x" * 78]
    )
    def test_a_short_value_is_shown_by_its_repr(self, value):
        assert errors.shown(value) == repr(value)

    def test_a_two_line_repr_is_one_line(self):
        with pytest.raises(GraphError) as info:
            ed.DirectedGraph(np.zeros((2, 2)))
        assert str(info.value) == "M must be an integer, got array([[0., 0.], [0., 0.]])"
        with pytest.raises(GraphError) as info:
            ed.DirectedGraph(3, [(0, np.zeros((2, 2)))])
        assert str(info.value) == (
            "edge endpoints must be integers, got (0, array([[0., 0.], [0., 0.]]))"
        )

    def test_a_long_value_is_cut_short(self):
        # the whole list was once the message, 688916 characters
        with pytest.raises(BadParamsError) as info:
            ed.generate("path", list(range(100000)))
        assert str(info.value) == (
            "M must be an integer, got "
            "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, ...]"
        )
        with pytest.raises(GraphError) as info:
            ed.DirectedGraph(3, [tuple(range(100000))])
        assert str(info.value) == (
            "edge endpoints must be integers, got "
            "(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, ...)"
        )

    def test_a_long_value_from_a_graph_file_is_cut_short(self):
        with pytest.raises(errors.ParseError) as info:
            ed.digraph.from_json_dict({"M": 2, "edges": [[0, list(range(100000))]]})
        assert str(info.value) == (
            "edges[0] must be a pair of integers, got [0, [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, "
            "10, 11, 12, 13, 14, 15, ...]]"
        )

    @pytest.mark.parametrize(
        "value",
        [np.zeros((100, 100)), "x" * 1000, 10**200, [[list(range(50))] * 50], "a\nb\n" * 50],
        ids=["array", "str", "int", "nested", "lines"],
    )
    def test_any_value_is_one_line_of_at_most_80_characters(self, value):
        text = errors.shown(value)
        assert "\n" not in text and len(text) <= 80
