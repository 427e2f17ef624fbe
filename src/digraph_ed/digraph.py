"""Directed graphs G(V, L): degrees, the edge policy, generators, and transforms.

Vertices are labeled 0..M-1 internally; graph files may use 1-based labels
(see ``from_json_dict``). Edges are ordered pairs (a, b). The default policy
forbids self-loops, duplicate edges, and antiparallel pairs; the last can be
admitted explicitly. Both ED routes cover such a pair: its two gates compose
into one double-angle gate, which enters the closed form as a factor
cos(2 theta) in place of cos(theta)^2.

Degrees from ``g.degrees``, policy from :func:`validate`, at entry. The
first read of :attr:`DirectedGraph.degrees` is the one walk over an edge
list: it raises on a structural fault and keeps one :class:`DegreeRecord`
per vertex (out-degree, in-degree, antiparallel pairs) on the graph, for
the state and ED layers to read. :func:`validate` applies the antiparallel
rule, a choice of inputs, only where a graph enters: :func:`generate`,
:func:`reverse_edges` and the CLI's ``--allow-antiparallel``. Every integer
argument is read by :func:`~digraph_ed.errors.integer`.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from operator import index

import numpy as np

from . import trace
from .errors import (
    AntiparallelPairError,
    BadParamsError,
    DuplicateEdgeError,
    GraphError,
    IndexOutOfRangeError,
    NotABijectionError,
    ParseError,
    SelfLoopError,
    UnsupportedKindError,
    integer,
    shown,
)

GENERATOR_KINDS = ("path", "cycle", "star_out", "star_in", "complete_dag", "erdos_renyi")


@dataclass(frozen=True)
class DirectedGraph:
    """A directed graph on M vertices with an ordered edge list.

    Construction normalizes M to a Python int and the edge list to a tuple
    of pairs of Python ints but performs no other checks: the first read of
    :attr:`degrees` checks the structure, M >= 1 among it, and
    :func:`validate` applies the edge policy. M and every endpoint are read
    by :func:`~digraph_ed.errors.integer`: a non-integer, such as 2.0, "3" or
    True, or an edge that is not a pair, raises :class:`GraphError`.
    """

    M: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "M", integer(self.M, "M", GraphError))
        try:
            edges = map(_edge, self.edges)
        except TypeError:
            raise GraphError(
                f"edges must be a sequence of pairs, got {shown(self.edges)}"
            ) from None
        object.__setattr__(self, "edges", tuple(edges))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def degrees(self) -> tuple[DegreeRecord, ...]:
        """One :class:`DegreeRecord` per vertex, from one walk, kept; no policy applied.

        The first read raises on the first structural fault in edge order.
        The records live outside the fields: equality, hashing and repr ignore them.
        """
        return self._edge_walk[0]

    @functools.cached_property
    def _edge_walk(self) -> tuple[tuple[DegreeRecord, ...], tuple[int, int] | None]:
        with trace.span("digraph.degrees", M=self.M, L=len(self.edges), G=1):
            return _walk(self)


def _edge(e) -> tuple[int, int]:
    """``e`` as a pair of Python ints, else :class:`GraphError` naming it.

    Each endpoint is read by the rule of :func:`~digraph_ed.errors.integer`,
    inlined because this runs once per edge, where a call is measurably slower.
    """
    try:
        a, b = e
        if type(a) is bool or type(b) is bool:
            raise TypeError(e)
        return index(a), index(b)
    except (TypeError, ValueError):
        raise GraphError(f"edge endpoints must be integers, got {shown(e)}") from None


@dataclass(frozen=True)
class DegreeRecord:
    """One vertex's out- and in-degree and antiparallel pairs; total = out + in.

    Each pair (a, b)/(b, a) at a vertex is two of its edges, one each way.
    """

    out_degree: int
    in_degree: int
    pairs: int = 0

    @property
    def total(self) -> int:
        return self.out_degree + self.in_degree


def _walk(g: DirectedGraph) -> tuple[tuple[DegreeRecord, ...], tuple[int, int] | None]:
    """Check and count ``g``'s edge list in one pass.

    Raises on the first edge, in edge order, with an out-of-range endpoint,
    a self-loop or a repeat of an earlier edge. Otherwise returns the degree
    records and the first antiparallel pair, as the earlier of its two edges
    (None when there is none), so the edge policy can be applied without
    walking again.
    """
    M = g.M
    if M < 1:
        raise IndexOutOfRangeError(f"M must be positive, got {M}")
    out = [0] * M
    inc = [0] * M
    pairs = [0] * M
    first = None
    seen: set[tuple[int, int]] = set()
    for e in g.edges:
        a, b = e
        if not (0 <= a < M and 0 <= b < M):
            raise IndexOutOfRangeError(f"edge ({a}, {b}) out of range for M={M}")
        if a == b:
            raise SelfLoopError(a)
        if e in seen:
            raise DuplicateEdgeError(a, b)
        seen.add(e)
        out[a] += 1
        inc[b] += 1
        if (b, a) in seen:
            pairs[a] += 1
            pairs[b] += 1
            if first is None:
                first = (b, a)
    return tuple(map(DegreeRecord, out, inc, pairs)), first


def validate(g: DirectedGraph, allow_antiparallel: bool = False) -> tuple[DegreeRecord, ...]:
    """The edge-policy gate where a graph enters: raise unless ``g`` is admitted.

    Structural faults raise first, from ``g.degrees``. Antiparallel pairs
    (a, b)/(b, a) are then rejected by default, naming the first one in edge
    order; ``allow_antiparallel=True`` admits them. Returns ``g.degrees``.
    """
    records, pair = g._edge_walk
    if pair is not None and not allow_antiparallel:
        raise AntiparallelPairError(*pair)
    return records


def generate(kind: str, M: int, params: dict | None = None, seed: int = 0) -> DirectedGraph:
    """Deterministic graph fixtures; pure function of (kind, M, params, seed).

    Kinds: path, cycle (M >= 3), star_out, star_in, complete_dag, and
    erdos_renyi with ``params={"p": float}``; ``params`` is a mapping or
    None, and ``seed`` is an integer >= 0.
    The Erdos-Renyi sampler draws each ordered pair (a, b), a != b, with
    probability p in the scan order a = 0..M-1, b = 0..M-1 and skips draws
    that would create an antiparallel pair, so the output always passes
    :func:`validate` under the default policy. All M (M - 1) draws come
    from one ``rng.random((M, M - 1))`` call, the same stream as one scalar
    draw per pair, so the edges and their order are those of the scan: a
    pair with a < b is kept if its draw is below p, and a pair with a > b
    only if its mirror (b, a), drawn earlier, was not kept. The work is
    O(M^2) numpy operations plus O(|L|) Python for the edge list and its
    validation.
    """
    if params is not None and not isinstance(params, Mapping):
        raise BadParamsError(f"params must be a mapping or None, got {shown(params)}")
    params = dict(params or {})
    if kind not in GENERATOR_KINDS:
        raise UnsupportedKindError(
            f"unknown kind {shown(kind)}; expected one of {GENERATOR_KINDS}"
        )
    M, seed = integer(M, "M", BadParamsError), integer(seed, "seed", BadParamsError)
    if M < 1:
        raise BadParamsError(f"M must be >= 1, got {M}")
    if seed < 0:
        raise BadParamsError(f"seed must be >= 0, got {seed}")

    if kind == "erdos_renyi":
        if "p" not in params:
            raise BadParamsError("erdos_renyi requires params['p']")
        p = params.pop("p")
        try:
            p = float(p)
        except (TypeError, ValueError):
            raise BadParamsError(f"edge probability p must be a number, got {shown(p)}") from None
        if not 0.0 <= p <= 1.0:
            raise BadParamsError(f"edge probability p={p} outside [0, 1]")
    if params:
        raise BadParamsError(f"unexpected params for kind {kind!r}: {sorted(params)}")

    edges: list[tuple[int, int]] = []
    if kind == "path":
        edges = [(i, i + 1) for i in range(M - 1)]
    elif kind == "cycle":
        if M < 3:
            raise BadParamsError(f"cycle needs M >= 3 (M={M} would violate edge policy)")
        edges = [(i, (i + 1) % M) for i in range(M)]
    elif kind == "star_out":
        edges = [(0, j) for j in range(1, M)]
    elif kind == "star_in":
        edges = [(j, 0) for j in range(1, M)]
    elif kind == "complete_dag":
        edges = [(i, j) for i in range(M) for j in range(i + 1, M)]
    else:  # erdos_renyi
        # row a, column c of the draws is the ordered pair (a, c + (c >= a)):
        # the scan order a = 0..M-1, b = 0..M-1, b != a, one draw per pair
        hit = np.zeros((M, M), dtype=bool)
        hit[~np.eye(M, dtype=bool)] = (np.random.default_rng(seed).random((M, M - 1)) < p).ravel()
        # (a, b) with a > b is drawn after its mirror (b, a), and is kept only
        # if the mirror missed, so no pair is kept both ways
        lower = np.arange(M)[:, None] > np.arange(M)
        keep = hit & ~(hit.T & lower)
        edges = list(zip(*(axis.tolist() for axis in np.nonzero(keep))))

    g = DirectedGraph(M, tuple(edges))
    validate(g)
    return g


def permute(g: DirectedGraph, perm: list[int] | tuple[int, ...]) -> DirectedGraph:
    """Relabel vertices: edge (a, b) becomes (perm[a], perm[b])."""
    perm = [integer(p, "perm entry", NotABijectionError) for p in perm]
    if sorted(perm) != list(range(g.M)):
        raise NotABijectionError(f"perm {perm} is not a bijection on 0..{g.M - 1}")
    return DirectedGraph(g.M, tuple((perm[a], perm[b]) for a, b in g.edges))


def reverse_edges(g: DirectedGraph, subset) -> DirectedGraph:
    """Flip the orientation of the edges at the given indices.

    Each index is read by :func:`~digraph_ed.errors.integer`, a bad one
    raising :class:`IndexOutOfRangeError`. The result is a graph that
    enters, so it must pass :func:`validate` under the default policy, as
    :func:`generate`'s do (a caller who wants an antiparallel pair builds
    the flipped graph with :class:`DirectedGraph` directly, which applies no
    policy); per-vertex total degrees are unchanged by construction.
    """
    idx = {integer(i, "edge index", IndexOutOfRangeError) for i in subset}
    for i in idx:
        if not 0 <= i < len(g.edges):
            raise IndexOutOfRangeError(f"edge index {i} out of range (|L|={len(g.edges)})")
    new_edges = tuple(
        (b, a) if i in idx else (a, b) for i, (a, b) in enumerate(g.edges)
    )
    out = DirectedGraph(g.M, new_edges)
    try:
        validate(out)
    except AntiparallelPairError as e:
        remedy = "build the flipped graph with DirectedGraph directly"
        raise AntiparallelPairError(*e.pair, remedy=remedy) from None
    return out


def graph_hash(g: DirectedGraph) -> str:
    """SHA-256 digest of the canonical JSON form (edge order included)."""
    canon = json.dumps(to_json_dict(g), separators=(",", ":"))
    return hashlib.sha256(canon.encode("ascii")).hexdigest()


# ------------------------------------------------------------------
# Graph JSON schema: {"M": <int>, "edges": [[a, b], ...]}, 0-based;
# an optional {"labels_base": 1} requests 1-based interpretation on input.
# ------------------------------------------------------------------

def to_json_dict(g: DirectedGraph) -> dict:
    return {"M": g.M, "edges": [[a, b] for a, b in g.edges]}


def from_json_dict(obj) -> DirectedGraph:
    """Parse the graph schema; structural validation is left to the caller."""
    if not isinstance(obj, dict):
        raise ParseError(f"graph document must be a JSON object, got {type(obj).__name__}")
    unknown = set(obj) - {"M", "edges", "labels_base"}
    if unknown:
        raise ParseError(f"unknown graph keys: {sorted(unknown)}")
    if "M" not in obj or "edges" not in obj:
        raise ParseError("graph object requires keys 'M' and 'edges'")
    M = obj["M"]
    if not isinstance(M, int) or isinstance(M, bool) or M < 1:
        raise ParseError(f"'M' must be a positive integer, got {shown(M)}")
    base = obj.get("labels_base", 0)
    if not isinstance(base, int) or isinstance(base, bool) or base not in (0, 1):
        raise ParseError(f"'labels_base' must be 0 or 1, got {shown(base)}")
    raw = obj["edges"]
    if not isinstance(raw, list):
        raise ParseError("'edges' must be a list of [a, b] pairs")
    edges = []
    for n, e in enumerate(raw):
        if (
            not isinstance(e, list)
            or len(e) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in e)
        ):
            raise ParseError(f"edges[{n}] must be a pair of integers, got {shown(e)}")
        edges.append((e[0] - base, e[1] - base))
    return DirectedGraph(M, tuple(edges))


def read_graph(path) -> DirectedGraph:
    """Parse a graph JSON file; structural validation is left to the caller."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            obj = json.load(f)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from e
        except UnicodeDecodeError as e:
            raise ParseError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from e
        except RecursionError:
            raise ParseError(f"{path}: JSON nested too deeply to parse") from None
        except ValueError:  # json.load's one other ValueError: int() past its digit limit
            limit = sys.get_int_max_str_digits()
            raise ParseError(f"{path}: a JSON integer has more than {limit} digits") from None
    return from_json_dict(obj)


def dump_graph(g: DirectedGraph) -> str:
    """Canonical serialized form, newline-terminated."""
    return json.dumps(to_json_dict(g), separators=(", ", ": ")) + "\n"
