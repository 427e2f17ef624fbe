"""Dense 2^M-amplitude pure-state engine for edge-gated product states.

Bit convention, used everywhere in this package: amplitude index k encodes
the basis ket whose qubit-i value is bit i of k (little-endian; qubit 0 is
the least significant bit). In a reshaped ``(2,)*M`` view, qubit i therefore
lives on axis ``M - 1 - i``.

The only production gate is the diagonal two-qubit edge gate

    controlled-U(theta, psi):  |0c> -> |0c>,
                               |10> -> e^{i(theta-psi)} |10>,
                               |11> -> e^{-i(theta+psi)} |11>,

with the first slot the control. All edge gates are diagonal and commute,
so a graph state is the uniform product state times one phase per basis
index, which :func:`build_graph_state` writes directly by qubit doubling:
O(2^M) work whatever the edge count, in one buffer that becomes the
state's frozen amplitude array (peak memory about one state, at most two).
:func:`bloch_vectors` reads every qubit's Bloch vector from views of the
amplitudes, with no copy of the state: one BLAS Gram matrix of the float
view for qubits 0 to 4, and complex row dot products, summed in numpy's
pairwise order, for the rest (see :func:`bloch_arrays`). Within a qubit,
p0, p1 and Re<0|rho|1> come from one routine over rows of one length, so
product states stay exactly pure.

One rule decides the engine's second thread: a state of more than one
2^_BLOCK_BITS-amplitude block (M >= 17) is built and read on two threads,
and a smaller one starts no thread. The build splits its steps for qubits
_BLOCK_BITS and up by low index (see :func:`_build`), and the read takes
the Gram and qubit 5 beside its block walk (see :func:`bloch_arrays`).
The bits are those of one thread, and the second thread is joined before
the call returns or raises.

Both kernels carry a leading batch axis. :func:`build_graph_states` builds
G states of equal M as the rows of one (G, 2^M) buffer and
:func:`bloch_arrays` reads them, each step one numpy call over all rows, so
the per-call overhead that dominates small states is paid once per batch;
each row may start from its own product state. Row r is bit for bit the
state, and the Bloch vectors, of case r alone:
:func:`build_graph_state` and :func:`bloch_vectors` are the G = 1 case of
the same code, batch axis and all. :func:`batch_size` bounds a batch,
amplitudes and Grams together, by one 2^_BLOCK_BITS-amplitude block
(1 MiB); from M = 15 up a state is always read alone.

The builders take every structurally valid graph, antiparallel pairs
included: degrees from ``g.degrees``, policy from
:func:`~digraph_ed.digraph.validate`, at entry (see :mod:`digraph_ed.digraph`).
The independent oracles the kernels are checked against live in
:mod:`digraph_ed.reference`.

States are never renormalized; norm drift beyond 1e-9 raises, since with
phase-only gates any drift signals a kernel bug. The norm is checked where
a state is made into a :class:`PureState`, and where :func:`bloch_arrays`
reads it: there each qubit's p0 + p1, which the read sums anyway, is the
state's squared norm, so a batch from :func:`build_graph_states` needs no
pass of its own. Both sites call :func:`_check_norm`, as both Bloch-bound
sites call :func:`_check_bloch`; each check asks that the value lie within
its bound, so a NaN raises.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import numbers
import threading
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import trace
from .digraph import DirectedGraph
from .errors import (
    BadParamsError,
    CapacityError,
    IndexOutOfRangeError,
    NotNormalizedError,
    integer,
    shown,
)

#: The qubit cap, read at call time by the engine and the CLI alike: 2^24
#: complex amplitudes = 256 MiB, the desk-scale bound.
DEFAULT_MAX_QUBITS = 24

_TWO_PI = 2.0 * math.pi
_NORM_TOL = 1e-9
#: How far past the unit Bloch ball a squared length may read before it raises.
_BLOCH_TOL = 1e-9
#: :func:`bloch_arrays` reads the qubits below this index from one Gram matrix.
_GRAM_QUBITS = 5
#: Longest complex dot product in :func:`bloch_arrays`: 2^_DOT_BITS amplitudes.
_DOT_BITS = 10
#: :func:`bloch_arrays` reads qubits _GRAM_QUBITS and up in one walk over the
#: state in blocks of 2^_BLOCK_BITS amplitudes (1 MiB), which stay in a core's
#: L2 cache.
_BLOCK_BITS = 16
# A qubit below _DOT_BITS has at least 2^(_BLOCK_BITS - _DOT_BITS) row dots
# in one block, an aligned run of its row-dot array. numpy's pairwise sum of a
# complex array ends in leaves of 64 elements, so with runs of >= 64 a block's
# sum is a node of numpy's summation tree, and the tree merge of the block sums
# in bloch_arrays is np.sum of the whole array, bit for bit.
assert _BLOCK_BITS - _DOT_BITS >= 6


def _canonical_angle(x: float) -> float:
    # maps to [-pi, pi)
    return (float(x) + math.pi) % _TWO_PI - math.pi


@dataclass(frozen=True)
class GateParams:
    """Angles (theta, psi) of the edge gate, canonicalized into [-pi, pi)."""

    theta: float
    psi: float = 0.0

    def __post_init__(self):
        try:
            # math.isfinite refuses a Python complex but reads a numpy one's real part
            if any(isinstance(a, np.complexfloating) for a in (self.theta, self.psi)):
                raise TypeError
            finite = math.isfinite(self.theta) and math.isfinite(self.psi)
        except TypeError:
            raise BadParamsError(
                f"gate angles must be real numbers, got ({shown(self.theta)}, {shown(self.psi)})"
            ) from None
        if not finite:
            raise BadParamsError(f"gate angles must be finite, got ({self.theta}, {self.psi})")
        object.__setattr__(self, "theta", _canonical_angle(self.theta))
        object.__setattr__(self, "psi", _canonical_angle(self.psi))


@dataclass(frozen=True)
class PureState:
    """Normalized vector of 2^M complex amplitudes (see module bit convention).

    The amplitude array is frozen on construction and the unit norm is
    checked to 1e-9; it is never silently repaired. A read-only complex128
    array that owns its memory (such as a buffer a builder has just filled
    and frozen) is adopted as it is; any other input is copied first, so the
    state never shares memory a caller can still write.
    """

    M: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = self.amplitudes
        adoptable = (
            isinstance(amps, np.ndarray)
            and amps.dtype == np.complex128
            and amps.flags.owndata
            and not amps.flags.writeable
        )
        if not adoptable:
            amps = np.array(amps, dtype=np.complex128)
        object.__setattr__(self, "M", integer(self.M, "M", IndexOutOfRangeError))
        if self.M < 1:
            raise IndexOutOfRangeError(f"M must be positive, got {self.M}")
        if amps.shape != (1 << self.M,):
            raise NotNormalizedError(
                f"expected {1 << self.M} amplitudes for M={self.M}, got shape {amps.shape}"
            )
        _check_norm(float(np.vecdot(amps, amps).real))
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)


def _check_norm(norm_sq: float) -> None:
    """Raise unless a state's squared norm is 1 to 1e-9; a NaN raises too."""
    if not abs(norm_sq - 1.0) <= _NORM_TOL:
        raise NotNormalizedError(f"state norm^2 = {norm_sq!r} deviates from 1 beyond {_NORM_TOL}")


def _check_bloch(norm_sq: float) -> None:
    """Raise unless a squared Bloch length lies in the unit ball to 1e-9; a NaN raises too."""
    if not norm_sq <= 1.0 + _BLOCH_TOL:
        raise ValueError(f"Bloch bound violated: |v|^2 = {norm_sq}")


@dataclass(frozen=True)
class PauliVector:
    """Single-qubit expectations (<x>, <y>, <z>); length bounded by the Bloch ball."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        _check_bloch(self.norm_sq)

    @property
    def norm_sq(self) -> float:
        return self.x * self.x + self.y * self.y + self.z * self.z


@dataclass(frozen=True)
class DensityMatrix1Q:
    """One-qubit density matrix as four entries; Hermitian with unit trace."""

    rho00: complex
    rho01: complex
    rho10: complex
    rho11: complex

    def __post_init__(self):
        if not abs(self.rho10 - np.conj(self.rho01)) <= 1e-12:
            raise ValueError("density matrix is not Hermitian: rho10 != conj(rho01)")
        if not (abs(self.rho00.imag) <= 1e-12 and abs(self.rho11.imag) <= 1e-12):
            raise ValueError("diagonal of a density matrix must be real")
        if not abs(self.rho00 + self.rho11 - 1.0) <= 1e-10:
            raise ValueError(f"trace {self.rho00 + self.rho11} deviates from 1 beyond 1e-10")

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.rho00, self.rho01], [self.rho10, self.rho11]], dtype=np.complex128)

    def eigenvalues(self) -> tuple[float, float]:
        """Both eigenvalues, ascending, from the closed 2x2 Hermitian form."""
        mean = (self.rho00.real + self.rho11.real) / 2.0
        half_gap = (self.rho00.real - self.rho11.real) / 2.0
        disc = math.hypot(half_gap, abs(self.rho01))
        return (mean - disc, mean + disc)


def _qubit_amplitudes(M: int, alpha0: complex, alpha1: complex) -> tuple[complex, complex]:
    """Check the qubit count and the single-qubit state of a uniform product state."""
    M = integer(M, "M", IndexOutOfRangeError)
    if M < 1:
        raise IndexOutOfRangeError(f"M must be positive, got {M}")
    if M > DEFAULT_MAX_QUBITS:
        raise CapacityError(M, DEFAULT_MAX_QUBITS)
    alpha0 = complex(alpha0)
    alpha1 = complex(alpha1)
    nrm = abs(alpha0) ** 2 + abs(alpha1) ** 2
    if not abs(nrm - 1.0) <= 1e-12:
        raise NotNormalizedError(f"|alpha0|^2 + |alpha1|^2 = {nrm!r} deviates from 1 beyond 1e-12")
    return alpha0, alpha1


def _initial_amplitudes(M: int, G: int, alpha0, alpha1) -> tuple[list, list]:
    """The (alpha0, alpha1) of each of G rows, each pair checked.

    Both are numbers, one initial state for every row, or both are
    sequences of G numbers, one per row.
    """
    if isinstance(alpha0, numbers.Number) and isinstance(alpha1, numbers.Number):
        alpha0, alpha1 = _qubit_amplitudes(M, alpha0, alpha1)
        return [alpha0] * G, [alpha1] * G
    alpha0, alpha1 = list(alpha0), list(alpha1)
    if len(alpha0) != G or len(alpha1) != G:
        raise BadParamsError(
            f"{G} states need {G} initial states, got {len(alpha0)} and {len(alpha1)}"
        )
    checked = [_qubit_amplitudes(M, x, y) for x, y in zip(alpha0, alpha1)]
    return [x for x, _ in checked], [y for _, y in checked]


def _build(graphs, gps, alpha0, alpha1) -> np.ndarray:
    """G graph states of equal M, built together into one owned buffer, frozen.

    Row r of ``buf.reshape(G, 2^M)`` is the state of ``graphs[r]`` at
    ``gps[r]`` from the initial state ``(alpha0[r], alpha1[r])`` (or the one
    ``(alpha0, alpha1)`` of every row), bit for bit what
    :func:`build_graph_state` makes of it alone. Reading each graph's
    degrees checks its structure; antiparallel pairs are built.

    Qubits below _BLOCK_BITS are built in turn on the calling thread; for
    each qubit m from _BLOCK_BITS up, that thread then writes the first
    2^_BLOCK_BITS entries of m's phase vector (its head phase and doubling
    steps j < _BLOCK_BITS): nothing before m's own step reads or writes
    them, so writing them early gives the same values. The rest of each
    top qubit's step combines only entries of one low index (see
    :func:`_top_qubits`), so it runs on the two halves of the low indices
    on two threads, joined once, and gives the bits it gives on one: each
    entry takes the same arithmetic in the same order, and no step on one
    thread reads what the other writes. These threads work in numpy's
    elementwise multiplies, which release the GIL.
    """
    records = [g.degrees for g in graphs]
    M = graphs[0].M
    if any(g.M != M for g in graphs):
        raise BadParamsError(f"a batch holds states of one M, got {sorted({g.M for g in graphs})}")
    G = len(graphs)
    alpha0, alpha1 = _initial_amplitudes(M, G, alpha0, alpha1)
    # ends: a0, b0, a1, b1, ... over the edges of every graph, in order
    ends = np.fromiter(
        itertools.chain.from_iterable(itertools.chain.from_iterable(g.edges for g in graphs)),
        dtype=np.intp,
    )
    rows = np.repeat(np.arange(0, G * M * M, M * M), [g.num_edges for g in graphs])
    # directed[r, a, b]: 1 if (a, b) is an edge of graphs[r]
    directed = np.bincount(rows + ends[0::2] * M + ends[1::2], minlength=G * M * M)
    directed = directed.reshape(G, M, M)
    # counts[r, m, j]: edges between m and j in graphs[r], either way
    counts = directed + directed.swapaxes(1, 2)
    # phase picked up per edge between two set bits, of which there are at most two
    pair_phase = np.array(
        [(1.0, cmath.exp(-2j * gp.theta), cmath.exp(-4j * gp.theta)) for gp in gps]
    )
    factor = pair_phase.ravel()[counts + np.arange(0, 3 * G, 3)[:, None, None]]
    alpha0 = np.array(alpha0)[:, None]
    buf = np.empty(G << M, dtype=np.complex128)
    amps = buf.reshape(G, -1)
    amps[..., 0] = 1.0
    with trace.span("statevector.build", M=M, L=len(ends) // 2, G=G):
        for m in range(M):
            n = 1 << m
            upper = amps[..., n : 2 * n]
            # qubit m's phase vector starts at alpha1 e^{i(theta-psi) d_out(m)}
            upper[..., 0] = [
                a1 * cmath.exp(1j * (gp.theta - gp.psi) * recs[m].out_degree)
                for a1, gp, recs in zip(alpha1, gps, records)
            ]
            if m:
                # into a temporary: an out= view one amplitude past its input,
                # strided over the rows, takes another numpy loop and other bits
                upper[..., 1] = upper[..., 0] * factor[..., m, 0]
            # a top qubit's phase vector is grown here only over its first
            # block, which nothing before its own step reads or writes
            for j in range(1, min(m, _BLOCK_BITS)):
                h = 1 << j
                np.multiply(upper[..., :h], factor[..., m, j, None], out=upper[..., h : 2 * h])
            if m < _BLOCK_BITS:
                upper *= amps[..., :n]
                amps[..., :n] *= alpha0
        if M > _BLOCK_BITS:  # each half of every block's low indices on its own thread
            blocks, half = amps.reshape(G, -1, 1 << _BLOCK_BITS), 1 << (_BLOCK_BITS - 1)
            _beside(
                lambda: _top_qubits(blocks[..., half:], factor, alpha0),
                lambda: _top_qubits(blocks[..., :half], factor, alpha0),
            )
    buf.flags.writeable = False
    return buf


def _top_qubits(part: np.ndarray, factor, alpha0) -> None:
    """The build's steps for qubits _BLOCK_BITS and up, on some columns of every block.

    ``part`` is a range of columns of the build buffer viewed as (G,
    2^(M - _BLOCK_BITS), 2^_BLOCK_BITS), each qubit's first block of phases
    already written. Every step combines entries of one column (one low
    index) only, elementwise as the step over whole rows does, so any split
    of the columns gives the same bits.
    """
    G, count, _ = part.shape
    tops = count.bit_length() - 1  # qubits from _BLOCK_BITS up
    with trace.span("statevector.build_half", M=_BLOCK_BITS + tops, G=G):
        for b in range(tops):
            n, m = 1 << b, _BLOCK_BITS + b
            upper = part[..., n : 2 * n, :]
            for j in range(b):
                h = 1 << j
                np.multiply(
                    upper[..., :h, :], factor[..., m, _BLOCK_BITS + j, None, None],
                    out=upper[..., h : 2 * h, :],
                )
            upper *= part[..., :n, :]
            part[..., :n, :] *= alpha0[..., None]


def _beside(side, main, threaded: bool = True) -> tuple:
    """``(side(), main())``, with side() on a second thread beside main() when ``threaded``.

    Unthreaded, both run here, side first. An exception on either thread is
    raised here, after the second thread has been joined, so no thread
    outlives the call.
    """
    if not threaded:
        return side(), main()
    box = []

    def run() -> None:
        try:
            box.append((True, side()))
        except BaseException as error:
            box.append((False, error))

    worker = threading.Thread(target=trace.carry(run))
    worker.start()
    try:
        mine = main()
    finally:
        worker.join()
    ((ok, theirs),) = box
    if not ok:
        raise theirs
    return theirs, mine


def build_graph_state(
    g: DirectedGraph,
    gp: GateParams,
    alpha0: complex = 2**-0.5,
    alpha1: complex = 2**-0.5,
) -> PureState:
    """Apply one edge gate per edge of ``g`` to the uniform product state.

    All edge gates are diagonal, hence mutually commuting: the result does
    not depend on the edge order. It is the product state times the phase

        (theta - psi) * sum_a d_out(a) bit_a(k) - 2 theta * sum_{(a,b) in L} bit_a(k) bit_b(k)

    at index k, written here directly by qubit doubling: with the first m
    qubits in ``amps[:2^m]``, appending qubit m sets the |1> half
    ``amps[2^m:2^(m+1)]`` to alpha1 e^{i(theta-psi) d_out(m)} e^{-2i theta c_m(k)}
    times the |0> half, where c_m(k) counts the edges between m and the set
    bits of k (an antiparallel pair counts twice), then scales the |0> half
    by alpha0. The phase vector, head phase included, is itself grown by
    doubling over the lower qubits, inside the |1> half. Total cost is
    O(2^M) whatever |L|, in one buffer that the returned state adopts.
    d_out(m) is read from ``g.degrees``, and M
    may not exceed :data:`DEFAULT_MAX_QUBITS`. This is the one-state case of
    :func:`build_graph_states`, which runs the same steps on G rows at once.
    """
    return PureState(g.M, _build([g], [gp], alpha0, alpha1))


def build_graph_states(
    graphs,
    gps,
    alpha0: complex | Sequence[complex] = 2**-0.5,
    alpha1: complex | Sequence[complex] = 2**-0.5,
) -> np.ndarray:
    """The states of G graphs of equal M, as the rows of one frozen (G, 2^M) array.

    ``gps[r]`` are the angles of ``graphs[r]``. ``alpha0`` and ``alpha1``
    are both numbers, one initial state for every row, or both sequences of
    G numbers, one per row; every row's pair is checked as
    :func:`~digraph_ed.reference.init_product_state` checks it. Each step of
    the doubling build of :func:`build_graph_state` is one numpy call over
    all G rows, so a batch of small states costs about what one of them
    does; row r is bit for bit
    ``build_graph_state(graphs[r], gps[r], alpha0[r], alpha1[r]).amplitudes``.
    The rows' norms are checked when :func:`bloch_arrays` reads them, to
    the tolerance :class:`PureState` applies. Callers keep a batch within
    one block (see :func:`batch_size`).
    """
    graphs = list(graphs)
    if not graphs:
        raise BadParamsError("a batch needs at least one graph, got none")
    return _build(graphs, list(gps), alpha0, alpha1).reshape(len(graphs), -1)


def batch_size(M: int) -> int:
    """States of M qubits per batch: as many as fit, with their Grams, in one block.

    A state costs its 2^M amplitudes plus the (2^(L+1))^2 float Gram that
    :func:`bloch_arrays` forms of it (L = min(M, _GRAM_QUBITS)); a batch
    stays within 2^_BLOCK_BITS amplitudes (1 MiB), so from M = _BLOCK_BITS
    - 1 up every state comes alone.
    """
    L = min(M, _GRAM_QUBITS)
    per_state = (16 << M) + (8 << 2 * (L + 1))
    return max(1, (16 << _BLOCK_BITS) // per_state)


@functools.lru_cache(maxsize=None)
def _gram_entries(L: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions, in the Gram of :func:`bloch_arrays`, of what each low qubit sums.

    Gram row and column 2k hold Re a_k and 2k+1 hold Im a_k, for the 2^L
    amplitudes k of one row of the float view. For qubit i < L, with k0
    running over the k whose bit i is clear and k1 = k0 + 2^i,
    ``sym[:, i]`` holds the entries summed into p0 (k0 with k0), p1 (k1 with
    k1) and Re t (k0 with k1), in one shape and one order: the re-re entry,
    then the im-im entry, per k0. ``cross[:, i]`` holds the re0-im1 and the
    im0-re1 entries, whose sums differ by Im t. All lie in the upper triangle.
    """
    n = 2 << L
    k = np.arange(1 << L)
    r0 = 2 * np.array([k[k & (1 << i) == 0] for i in range(L)])
    r1 = r0 + 2 * (1 << np.arange(L)[:, None])

    def re_then_im(r, c):
        return np.stack([r * n + c, (r + 1) * n + c + 1], axis=-1).reshape(L, -1)

    sym = np.stack([re_then_im(r0, r0), re_then_im(r1, r1), re_then_im(r0, r1)])
    cross = np.stack([r0 * n + r1 + 1, (r0 + 1) * n + r1])
    sym.flags.writeable = cross.flags.writeable = False
    return sym, cross


def _tree_sum(parts):
    """Sum 2^k partial sums, in order, as a balanced binary tree.

    numpy sums a complex array of 2^n elements pairwise: the sums of its two
    halves are added, recursively, down to leaves of 64 elements. So if the
    partials are ``np.sum`` of consecutive aligned runs of 2^m >= 64 elements
    of one array, this is bit for bit ``np.sum`` of the whole array.
    """
    while len(parts) > 1:
        parts = [a + b for a, b in zip(parts[0::2], parts[1::2])]
    return parts[0]


def _row_sums(x: np.ndarray, i: int) -> list:
    """p0, p1 and t of qubit i < _DOT_BITS over the rows of ``x``, each one ``np.sum``.

    ``x`` reshaped to (G, -1, 2, 2^i) puts the bit-i=0 rows a0 and the
    bit-i=1 rows a1 side by side: one ``np.vecdot`` of every row with itself,
    split by row parity, gives the a0.a0 and a1.a1, and a second the a0.a1.
    """
    pairs = x.reshape(x.shape[0], -1, 2, 1 << i)
    selfs = np.vecdot(pairs, pairs)
    t = np.vecdot(pairs[..., 0, :], pairs[..., 1, :])
    return [selfs[..., 0].sum(axis=-1), selfs[..., 1].sum(axis=-1), t.sum(axis=-1)]


def _walk(amps: np.ndarray) -> list:
    """The block walk of :func:`bloch_arrays`: p0, p1 and t of each qubit past _GRAM_QUBITS."""
    G, N = amps.shape
    M = N.bit_length() - 1
    with trace.span("statevector.walk", M=M, G=G):
        blocks = amps.reshape(G, -1, 1 << min(M, _BLOCK_BITS))
        low = range(_GRAM_QUBITS + 1, min(M, _DOT_BITS))
        low_sums = []  # per block: p0, p1 and t of each low qubit
        norms = np.empty((G, N >> _DOT_BITS), np.complex128)
        dots = [np.empty((G, N >> (_DOT_BITS + 1)), np.complex128) for _ in range(_DOT_BITS, M)]
        for b in range(blocks.shape[-2]):
            block = blocks[..., b, :]
            low_sums.append([s for i in low for s in _row_sums(block, i)])
            if M <= _DOT_BITS:
                continue
            chunks = block.reshape(G, -1, 1 << _DOT_BITS)
            first = b * chunks.shape[-2]
            np.vecdot(chunks, chunks, out=norms[..., first : first + chunks.shape[-2]])
            for i, dot in enumerate(dots, _DOT_BITS):
                # the block's pairs fill a run of qubit i's row dots, from its
                # first chunk with bit h clear, numbered with bit h dropped
                h = i - _DOT_BITS
                start = (first >> (h + 1) << h) | (first & ((1 << h) - 1))
                if i < _BLOCK_BITS:  # both chunks of a pair lie in this block
                    pairs = chunks.reshape(G, -1, 2, 1 << h, 1 << _DOT_BITS)
                    out = dot[..., start : start + chunks.shape[-2] // 2].reshape(G, -1, 1 << h)
                    np.vecdot(pairs[..., 0, :, :], pairs[..., 1, :, :], out=out)
                elif not b >> (i - _BLOCK_BITS) & 1:  # the partner is a later block
                    partner = blocks[..., b + (1 << (i - _BLOCK_BITS)), :].reshape(chunks.shape)
                    np.vecdot(chunks, partner, out=dot[..., start : start + chunks.shape[-2]])
        sums = [_tree_sum(p) for p in zip(*low_sums)]
        for i in range(_DOT_BITS, M):
            half = norms.reshape(G, -1, 2, 1 << (i - _DOT_BITS))
            sums += [half[..., j, :].reshape(G, -1).sum(axis=-1) for j in (0, 1)]
            sums.append(dots[i - _DOT_BITS].sum(axis=-1))
        return sums


def bloch_arrays(amps: np.ndarray) -> np.ndarray:
    """Bloch vectors of G states of equal M, the rows of ``amps``: a (G, M, 3) array.

    Rows of any numeric dtype are read as their complex128 values; a
    C-contiguous complex128 array, such as a built batch, is read in place.

    Entry [r, i] is (x, y, z) of qubit i of state r, the same quantities as
    :func:`~digraph_ed.reference.pauli_expectation`, with t = sum(conj(a0) *
    a1) over the amplitude pairs that differ in bit i, read from views of the
    amplitudes without copying them. Every step below is one numpy call over
    all G rows, and row r is bit for bit what the read of state r alone gives:

    * qubits i < L = min(M, _GRAM_QUBITS): the float view (re, im
      interleaved) of each state reshaped to (-1, 2^(L+1)) gives one BLAS
      Gram f.T @ f, 2^(L+1) square (a stacked ``np.matmul``, which runs
      the same BLAS routine per state).
      Each qubit's p0, p1, Re t and Im t is a sum of Gram entries, gathered
      for all low qubits at once (see :func:`_gram_entries`);
    * every qubit above L is read in one walk over the state in blocks of
      2^_BLOCK_BITS amplitudes (1 MiB, a core's L2 cache), doing all of
      them on a block while it is in cache. Its row dots are complex
      ``np.vecdot`` calls along contiguous rows of at most 2^_DOT_BITS
      amplitudes, so no BLAS dot runs long, and each qubit's sums are
      numpy's pairwise sums of its whole row-dot arrays:

      - qubits L < i < _DOT_BITS: the block reshaped to (-1, 2, 2^i) puts
        the bit-i=0 rows a0 and the bit-i=1 rows a1 side by side. One
        ``np.vecdot`` of every row with itself, split by row parity, gives
        the a0.a0 summed into p0 and the a1.a1 summed into p1, as qubits
        from _DOT_BITS up split their chunk self-dots; a second gives the
        a0.a1 summed into t. Each is summed per block (a strided sum of
        the self-dots rounds as a contiguous one does), and the block
        sums are merged by :func:`_tree_sum`: each is the sum of an
        aligned run of at least 64 row dots, a node of numpy's pairwise
        summation tree, so the merged sums are bit for bit ``np.sum`` of
        the whole row-dot arrays;
      - qubits i >= _DOT_BITS pair whole rows (chunks) of 2^_DOT_BITS
        amplitudes. Their p0 and p1 sum the chunk self-dots whose bit i is 0
        and 1, computed once per block for all of them, so each qubit reads
        the state once more, for t: chunk c, with bit i - _DOT_BITS clear,
        pairs with chunk c + 2^(i - _DOT_BITS), which lies in the same
        block for i < _BLOCK_BITS and in block b + 2^(i - _BLOCK_BITS) from
        there up. Either way the row dot goes into one array per qubit, in
        the order of c, and each array is summed once at the end.

    Qubit L (qubit 5, where M > 5) is not walked: its three sums are taken
    over the whole state, one ``np.vecdot`` of all its rows and one
    ``np.sum`` per quantity, which is bit for bit what the merged block
    sums give. That and the Gram share nothing with the walk. When the
    rows span more than one block, both run on a second thread beside the
    walk (numpy releases the GIL in the BLAS call and in a vecdot of that
    many rows; a vecdot of fewer than about 500 rows holds it, so the
    walk's own calls are not split), so they take two cores; the Gram is
    still the one whole-state ``np.matmul`` (per-panel Grams would round
    differently), so every bit is as if they ran in turn, and the build
    takes its second thread by the same rule (see :func:`_build`). An
    exception on that thread is raised here, after it has been joined, and
    no thread outlives the call. Within one block they run here, first,
    and no thread is started.

    Within a qubit, p0, p1 and Re t come from one routine over rows of one
    length and are summed in one order, so for a product state with
    equal amplitudes they are bitwise equal and its ED is exactly zero.
    Each qubit's p0 + p1 is its state's squared norm: before dividing by
    it, any that is off 1 by more than 1e-9, or NaN, raises
    NotNormalizedError, naming the worst, as :class:`PureState` does. A
    squared length above 1 + 1e-9 raises ValueError, as
    :class:`PauliVector` does. States of more than one block are read
    right in any number, but then each step's working set is G blocks, out
    of cache; :func:`batch_size` keeps them alone.
    """
    amps = np.ascontiguousarray(amps, dtype=np.complex128)
    G, N = amps.shape
    M = N.bit_length() - 1
    L = min(M, _GRAM_QUBITS)

    def low_qubits() -> tuple:
        # the Gram, and qubit L's sums over the whole state (per-panel Grams
        # would round differently; np.sum of the whole row-dot arrays is what
        # the walk's merged block sums give)
        with trace.span("statevector.gram", M=M, G=G):
            f = amps.view(np.float64).reshape(G, -1, 2 << L)
            gram = np.matmul(f.swapaxes(-1, -2), f).reshape(G, -1)
            return gram, _row_sums(amps, L) if L < M else []

    with trace.span("statevector.read", M=M, G=G):
        # past one block the low qubits run on a second thread, beside the walk
        (gram, sums), walked = _beside(low_qubits, lambda: _walk(amps), N > 1 << _BLOCK_BITS)
        sums += walked
        q = np.empty((G, 4, M))  # p0, p1, Re t and Im t of every qubit
        sym, cross = _gram_entries(L)
        # take lays the gathered entries out state by state (gram[:, sym] would
        # put the state axis innermost), so each sum runs in the one-state order
        q[..., :3, :L] = gram.take(sym, axis=-1).sum(axis=-1)
        im = gram.take(cross, axis=-1).sum(axis=-1)
        np.subtract(im[..., 0, :], im[..., 1, :], out=q[..., 3, :L])
        for i, (s0, s1, t) in enumerate(zip(sums[0::3], sums[1::3], sums[2::3]), L):
            q[..., 0, i], q[..., 1, i] = s0.real, s1.real
            q[..., 2, i], q[..., 3, i] = t.real, t.imag
        p0, p1 = q[..., 0, :], q[..., 1, :]
        nrm = p0 + p1  # each qubit's p0 + p1 is its state's squared norm
        _check_norm(float(nrm.flat[np.abs(nrm - 1.0).argmax()]))  # argmax takes the first NaN
        out = np.empty((G, 3, M))  # x, y and z of every qubit
        np.multiply(2.0, q[..., 2:, :], out=out[..., :2, :])
        out[..., :2, :] /= nrm[..., None, :]
        np.subtract(p0, p1, out=out[..., 2, :])
        out[..., 2, :] /= nrm
        _check_bloch(float((out * out).sum(axis=-2).max()))  # x*x + y*y + z*z, in that order
        return out.swapaxes(1, 2)


def bloch_vectors(state: PureState) -> tuple[PauliVector, ...]:
    """Bloch vectors of all M qubits, in qubit order: :func:`bloch_arrays` of one state."""
    vectors = bloch_arrays(state.amplitudes.reshape(1, -1))[0]
    return tuple(PauliVector(x, y, z) for x, y, z in vectors.tolist())
