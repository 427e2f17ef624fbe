"""Tests for graph validation, degrees, generators, and transforms."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from digraph_ed import digraph
from digraph_ed.digraph import DirectedGraph
from digraph_ed.errors import (
    AntiparallelPairError,
    BadParamsError,
    DuplicateEdgeError,
    GraphError,
    IndexOutOfRangeError,
    NotABijectionError,
    ParseError,
    SelfLoopError,
    UnsupportedKindError,
)


class TestValidate:
    def test_minimal_legal_graph(self):
        digraph.validate(DirectedGraph(2, ((0, 1),)))

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            digraph.validate(DirectedGraph(2, ((0, 0),)))

    def test_antiparallel_rejected_by_default(self):
        g = DirectedGraph(3, ((0, 1), (1, 0)))
        with pytest.raises(AntiparallelPairError):
            digraph.validate(g)
        digraph.validate(g, allow_antiparallel=True)  # escape hatch

    def test_the_refusal_names_the_pair_completed_first(self):
        # (2, 3)/(3, 2) is complete at the third edge, (0, 1)/(1, 0) only at the fourth
        g = DirectedGraph(4, ((0, 1), (2, 3), (3, 2), (1, 0)))
        with pytest.raises(AntiparallelPairError, match=r"pair \(2, 3\) / \(3, 2\);"):
            digraph.validate(g)

    def test_duplicate_rejected(self):
        # duplicates stay rejected even under the escape hatch, and are found
        # before the policy is applied to an earlier antiparallel pair
        for edges in (((0, 1), (0, 1)), ((0, 1), (1, 0), (0, 1))):
            for allow in (False, True):
                with pytest.raises(DuplicateEdgeError):
                    digraph.validate(DirectedGraph(3, edges), allow_antiparallel=allow)

    def test_out_of_range_endpoint(self):
        with pytest.raises(IndexOutOfRangeError):
            digraph.validate(DirectedGraph(2, ((0, 2),)))
        with pytest.raises(IndexOutOfRangeError):
            digraph.validate(DirectedGraph(2, ((-1, 1),)))

    def test_empty_graph_is_valid(self):
        digraph.validate(DirectedGraph(1, ()))


class TestEndpoints:
    def test_non_integer_endpoint_is_refused_not_truncated(self):
        # 0.9 and 2.7 once became 0 and 2, and the truncated graph was reported on
        for edges in (((0.9, 1), (1, 2.7)), ((0, 1), (1, np.float64(2.0))), ((0, "1"),)):
            with pytest.raises(GraphError, match="endpoints must be integers") as info:
                DirectedGraph(3, edges)
            assert len(str(info.value).splitlines()) == 1

    @pytest.mark.parametrize("edges", [[1], [(0, 1, 2)], [(0,)], [(True, 2)], [(0, np.True_)], 5])
    def test_an_edge_that_is_not_an_integer_pair_is_a_graph_error(self, edges):
        # [1] and (0, 1, 2) once escaped as a bare TypeError and ValueError,
        # and (True, 2) was read as the edge (1, 2)
        bad = edges if isinstance(edges, int) else edges[0]
        with pytest.raises(GraphError) as info:
            DirectedGraph(3, edges)
        assert repr(bad) in str(info.value) and len(str(info.value).splitlines()) == 1

    def test_a_bool_M_is_a_graph_error(self):
        for M in (True, np.True_):
            with pytest.raises(GraphError, match="M must be an integer"):
                DirectedGraph(M, ())

    def test_numpy_integers_become_python_ints(self):
        g = DirectedGraph(3, ((np.int64(0), np.int32(1)), [np.uint8(1), 2]))
        assert g.edges == ((0, 1), (1, 2))
        assert all(type(v) is int for e in g.edges for v in e)
        assert digraph.dump_graph(g) == digraph.dump_graph(DirectedGraph(3, ((0, 1), (1, 2))))

    def test_non_integer_M_is_a_graph_error(self):
        # a float or str M once reached the walk and raised a bare TypeError there
        for M in (2.0, "3", 2.5, None):
            with pytest.raises(GraphError, match="M must be an integer") as info:
                DirectedGraph(M, ((0, 1),))
            assert len(str(info.value).splitlines()) == 1

    def test_numpy_integer_M_becomes_a_python_int(self):
        g = DirectedGraph(np.int64(3), ((0, 1), (1, 2)))
        assert type(g.M) is int and g == DirectedGraph(3, ((0, 1), (1, 2)))
        assert digraph.graph_hash(g) == digraph.graph_hash(DirectedGraph(3, ((0, 1), (1, 2))))

    def test_M_below_one_still_fails_at_validate(self):
        g = DirectedGraph(0, ())
        with pytest.raises(IndexOutOfRangeError, match="M must be positive"):
            digraph.validate(g)


class TestDegrees:
    def test_star(self):
        recs = digraph.validate(DirectedGraph(3, ((0, 1), (0, 2))), allow_antiparallel=True)
        assert [(r.out_degree, r.in_degree, r.total, r.pairs) for r in recs] == [
            (2, 0, 2, 0),
            (0, 1, 1, 0),
            (0, 1, 1, 0),
        ]

    def test_directed_cycle(self):
        g = DirectedGraph(3, ((0, 1), (1, 2), (2, 0)))
        recs = digraph.validate(g, allow_antiparallel=True)
        assert all((r.out_degree, r.in_degree, r.total) == (1, 1, 2) for r in recs)

    def test_empty(self):
        recs = digraph.validate(DirectedGraph(4, ()), allow_antiparallel=True)
        assert all((r.out_degree, r.in_degree, r.total, r.pairs) == (0, 0, 0, 0) for r in recs)

    def test_one_walk_kept_outside_the_fields(self, monkeypatch):
        walks = []
        real = digraph._walk
        monkeypatch.setattr(digraph, "_walk", lambda g: walks.append(g.M) or real(g))
        g = DirectedGraph(3, ((0, 1), (1, 0), (1, 2)))  # degrees apply no policy
        recs = g.degrees
        assert g.degrees is recs and digraph.validate(g, allow_antiparallel=True) is recs
        with pytest.raises(AntiparallelPairError, match=r"\(0, 1\) / \(1, 0\)"):
            digraph.validate(g)
        assert walks == [3]
        twin = DirectedGraph(3, g.edges)
        assert g == twin and hash(g) == hash(twin) and repr(g) == repr(twin)

    def test_a_structural_fault_raises_at_the_first_read(self):
        g = DirectedGraph(3, ((0, 1), (2, 2), (0, 1)))
        for _ in range(2):
            with pytest.raises(SelfLoopError):
                g.degrees

    def test_total_sum_is_twice_edge_count(self):
        g = digraph.generate("erdos_renyi", 9, {"p": 0.5}, seed=11)
        assert sum(r.total for r in digraph.validate(g)) == 2 * g.num_edges


class TestGenerate:
    def test_star_out(self):
        g = digraph.generate("star_out", 4)
        assert g.edges == ((0, 1), (0, 2), (0, 3))

    def test_star_in(self):
        g = digraph.generate("star_in", 3)
        assert g.edges == ((1, 0), (2, 0))

    def test_cycle(self):
        g = digraph.generate("cycle", 3)
        assert g.edges == ((0, 1), (1, 2), (2, 0))

    def test_cycle_too_small(self):
        # M=2 would be an antiparallel pair, M=1 a self-loop
        for m in (1, 2):
            with pytest.raises(BadParamsError):
                digraph.generate("cycle", m)

    @pytest.mark.parametrize(
        "kwargs, bad",
        [
            ({"M": 3.0}, 3.0),
            ({"M": True}, True),
            ({"kind": "erdos_renyi", "params": {"p": 0.5}, "seed": 1.5}, 1.5),
            ({"seed": "1"}, "1"),
            ({"kind": "erdos_renyi", "params": {"p": "x"}}, "x"),
            ({"kind": "erdos_renyi", "params": {"p": None}}, None),
        ],
    )
    def test_a_non_integer_parameter_is_bad_params(self, kwargs, bad):
        # M=3.0 and seed=1.5 once escaped as bare TypeErrors
        kwargs = {"kind": "path", "M": 3, **kwargs}
        with pytest.raises(BadParamsError) as info:
            digraph.generate(**kwargs)
        assert f"got {bad!r}" in str(info.value)

    @pytest.mark.parametrize("params", [5, 0, "p", [("p", 0.5)]])
    def test_params_that_are_not_a_mapping_are_bad_params(self, params):
        # generate("path", 3, 5) once escaped as a bare TypeError
        with pytest.raises(BadParamsError) as info:
            digraph.generate("erdos_renyi", 3, params)
        assert str(info.value) == f"params must be a mapping or None, got {params!r}"

    def test_numpy_integer_parameters_are_integers(self):
        g = digraph.generate("erdos_renyi", np.int64(6), {"p": 0.5}, seed=np.uint8(3))
        assert g == digraph.generate("erdos_renyi", 6, {"p": 0.5}, seed=3)

    def test_path(self):
        assert digraph.generate("path", 4).edges == ((0, 1), (1, 2), (2, 3))
        assert digraph.generate("path", 1).edges == ()

    def test_complete_dag(self):
        g = digraph.generate("complete_dag", 4)
        assert g.num_edges == 6
        assert all(a < b for a, b in g.edges)

    def test_erdos_renyi_deterministic(self):
        g1 = digraph.generate("erdos_renyi", 8, {"p": 0.3}, seed=42)
        g2 = digraph.generate("erdos_renyi", 8, {"p": 0.3}, seed=42)
        assert g1 == g2
        g3 = digraph.generate("erdos_renyi", 8, {"p": 0.3}, seed=43)
        assert g1 != g3  # overwhelmingly likely for this size

    def test_erdos_renyi_policy_valid(self):
        for seed in range(20):
            g = digraph.generate("erdos_renyi", 7, {"p": 0.8}, seed=seed)
            digraph.validate(g)

    @pytest.mark.parametrize("p", [0.0, 0.2, 0.5, 0.8, 1.0])
    def test_erdos_renyi_matches_the_scan_order_loop(self, p):
        # one draw call, read as the loop's one scalar draw per ordered pair
        for M in range(1, 41):
            for seed in (0, 1, 12345, 2**62 + 9, 2**63 - 1):
                g = digraph.generate("erdos_renyi", M, {"p": p}, seed)
                assert list(g.edges) == oracles.erdos_renyi_edges(M, p, seed), (M, seed)

    def test_erdos_renyi_extremes(self):
        assert digraph.generate("erdos_renyi", 5, {"p": 0.0}, 1).num_edges == 0
        full = digraph.generate("erdos_renyi", 5, {"p": 1.0}, 1)
        assert full.num_edges == 10  # one orientation per unordered pair

    def test_bad_params(self):
        with pytest.raises(UnsupportedKindError):
            digraph.generate("torus", 4)
        with pytest.raises(BadParamsError):
            digraph.generate("erdos_renyi", 4)  # p missing
        with pytest.raises(BadParamsError):
            digraph.generate("erdos_renyi", 4, {"p": 1.5})
        with pytest.raises(BadParamsError):
            digraph.generate("path", 4, {"p": 0.5})  # extraneous
        with pytest.raises(BadParamsError):
            digraph.generate("path", 0)
        for kind, params in (("erdos_renyi", {"p": 0.5}), ("path", {})):
            with pytest.raises(BadParamsError, match="seed must be >= 0"):
                digraph.generate(kind, 3, params, seed=-1)


class TestPermute:
    def test_identity(self):
        g = digraph.generate("star_out", 3)
        assert digraph.permute(g, [0, 1, 2]) == g

    def test_swap(self):
        g = DirectedGraph(2, ((0, 1),))
        assert digraph.permute(g, [1, 0]).edges == ((1, 0),)

    def test_rotation_preserves_degree_multiset(self):
        g = digraph.generate("star_out", 3)
        h = digraph.permute(g, [1, 2, 0])
        totals = sorted(r.total for r in digraph.validate(h, allow_antiparallel=True))
        assert totals == [1, 1, 2]
        # center moved to vertex 1
        assert digraph.validate(h, allow_antiparallel=True)[1].total == 2

    def test_not_a_bijection(self):
        g = digraph.generate("path", 3)
        with pytest.raises(NotABijectionError):
            digraph.permute(g, [0, 0, 1])
        with pytest.raises(NotABijectionError):
            digraph.permute(g, [0, 1])


class TestReverseEdges:
    def test_reverse_all_star(self):
        g = digraph.generate("star_out", 3)
        h = digraph.reverse_edges(g, range(g.num_edges))
        assert h == digraph.generate("star_in", 3)
        before = [r.total for r in digraph.validate(g, allow_antiparallel=True)]
        after = [r.total for r in digraph.validate(h, allow_antiparallel=True)]
        assert before == after

    def test_reverse_nothing(self):
        g = digraph.generate("cycle", 4)
        assert digraph.reverse_edges(g, ()) == g

    def test_reverse_single_edge_keeps_totals(self):
        g = DirectedGraph(3, ((0, 1), (1, 2)))
        h = digraph.reverse_edges(g, [0])
        assert h.edges == ((1, 0), (1, 2))
        assert digraph.validate(h, allow_antiparallel=True)[1].total == 2

    def test_bad_index(self):
        g = digraph.generate("path", 3)
        with pytest.raises(IndexOutOfRangeError):
            digraph.reverse_edges(g, [5])

    def test_non_integer_index_is_refused_not_truncated(self):
        # 0.9 once became 0 and flipped edge 0
        g = DirectedGraph(3, ((0, 1), (1, 2)))
        for subset in ([0.9], [1, np.float64(0.0)], ["0"]):
            with pytest.raises(IndexOutOfRangeError, match="edge index must be an integer") as info:
                digraph.reverse_edges(g, subset)
            assert len(str(info.value).splitlines()) == 1

    def test_numpy_integer_indices(self):
        g = DirectedGraph(3, ((0, 1), (1, 2)))
        h = digraph.reverse_edges(g, np.flatnonzero(np.array([False, True])))
        assert h.edges == ((0, 1), (2, 1))

    def test_policy_checked_on_result(self):
        g = DirectedGraph(3, ((0, 1), (1, 0)))  # only legal under escape hatch
        with pytest.raises(AntiparallelPairError):
            digraph.reverse_edges(g, ())

    def test_refusal_names_a_remedy_that_applies(self):
        g = DirectedGraph(3, ((0, 1), (1, 0), (1, 2)))
        with pytest.raises(AntiparallelPairError, match="with DirectedGraph directly") as e:
            digraph.reverse_edges(g, (2,))
        assert "allow_antiparallel" not in str(e.value)
        flipped = DirectedGraph(3, ((0, 1), (1, 0), (2, 1)))  # the remedy: no policy applied
        assert [r.pairs for r in flipped.degrees] == [1, 1, 0]


def load(path):
    g = digraph.read_graph(path)
    digraph.validate(g)
    return g


class TestJsonSchema:
    def test_round_trip(self, tmp_path):
        g = digraph.generate("erdos_renyi", 6, {"p": 0.5}, seed=5)
        path = tmp_path / "g.json"
        path.write_text(digraph.dump_graph(g))
        assert load(path) == g

    def test_zero_based_document(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"M": 2, "edges": [[0, 1]]}')
        assert load(path) == DirectedGraph(2, ((0, 1),))

    def test_one_based_document(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"M": 2, "edges": [[1, 2]], "labels_base": 1}')
        assert load(path) == DirectedGraph(2, ((0, 1),))

    def test_self_loop_document_rejected(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"M": 2, "edges": [[0, 0]]}')
        with pytest.raises(SelfLoopError):
            load(path)

    def test_malformed_documents(self, tmp_path):
        bad = [
            "not json",
            "[1, 2]",
            '{"edges": []}',
            '{"M": 0, "edges": []}',
            '{"M": 2, "edges": [[0, 1, 2]]}',
            '{"M": 2, "edges": [[0, "x"]]}',
            '{"M": 2, "edges": [[0, 1]], "labels_base": 2}',
            '{"M": 2, "edges": [[0, 1]], "extra": true}',
        ]
        for doc in bad:
            path = tmp_path / "bad.json"
            path.write_text(doc)
            with pytest.raises(ParseError):
                load(path)

    def test_edges_that_are_no_list_are_refused(self):
        with pytest.raises(ParseError) as info:
            digraph.from_json_dict({"M": 2, "edges": 5})
        assert str(info.value) == "'edges' must be a list of [a, b] pairs"

    def test_dump_matches_schema(self):
        g = DirectedGraph(2, ((0, 1),))
        assert json.loads(digraph.dump_graph(g)) == {"M": 2, "edges": [[0, 1]]}


class TestGraphHash:
    @given(
        M=st.integers(min_value=-(2**70), max_value=2**70),
        edges=st.lists(st.tuples(*[st.integers(min_value=-(2**70), max_value=2**70)] * 2)),
    )
    @example(M=3, edges=[])
    @example(M=2**64, edges=[(2**63, 2**64 + 1), (0, -(2**63) - 1)])
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_digest_is_that_of_the_compact_json_document(self, M, edges):
        g = DirectedGraph(M, edges)
        canon = json.dumps(digraph._document(g), separators=(",", ":"))
        assert digraph.graph_hash(g) == hashlib.sha256(canon.encode("ascii")).hexdigest()

    def test_stable_and_order_sensitive(self):
        g = DirectedGraph(3, ((0, 1), (1, 2)))
        assert digraph.graph_hash(g) == digraph.graph_hash(DirectedGraph(3, ((0, 1), (1, 2))))
        reordered = DirectedGraph(3, ((1, 2), (0, 1)))
        assert digraph.graph_hash(g) != digraph.graph_hash(reordered)

    def test_antiparallel_detector(self):
        g = DirectedGraph(3, ((0, 1), (1, 0), (1, 2)))
        recs = digraph.validate(g, allow_antiparallel=True)
        assert [(r.out_degree, r.in_degree, r.pairs) for r in recs] == [
            (1, 1, 1),
            (2, 1, 1),
            (0, 1, 0),
        ]
        cycle = digraph.generate("cycle", 3)
        assert not any(r.pairs for r in digraph.validate(cycle, allow_antiparallel=True))
