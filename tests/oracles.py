"""Independent brute-force references used to pin expected values.

Most of this is deliberately written the slow, obvious way (explicit bit
loops, full 2^M x 2^M operators) and shares no code with the package
kernels, so a test comparing the two exercises genuinely different routes.
The last two are the plain loops that batched package code replaced, kept
as the references those batches must equal: the Erdos-Renyi draw in scan
order, and the alpha sweep one state at a time through the package's
one-state calls.
"""

import math

import numpy as np

from digraph_ed.digraph import DirectedGraph
from digraph_ed.entanglement import ed_total, von_neumann_entropy
from digraph_ed.reference import reduced_density_1q
from digraph_ed.statevector import build_graph_state

SIGMA = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}
I2 = np.eye(2, dtype=complex)


def product_amplitude(M, alpha0, alpha1, k):
    """Amplitude of basis index k in the uniform product state, bit by bit."""
    v = 1.0 + 0.0j
    for i in range(M):
        v *= alpha1 if (k >> i) & 1 else alpha0
    return v


def u4_controlled(theta, psi):
    """Two-qubit controlled gate from projectors, basis |control, target>."""
    p0 = np.array([[1, 0], [0, 0]], dtype=complex)
    p1 = np.array([[0, 0], [0, 1]], dtype=complex)
    ubar = np.exp(-1j * psi) * np.array(
        [[np.exp(1j * theta), 0], [0, np.exp(-1j * theta)]], dtype=complex
    )
    return np.kron(p0, I2) + np.kron(p1, ubar)


def dense_edge_operator(M, a, b, u4):
    """Embed a 4x4 two-qubit operator into the full 2^M space, entry by entry."""
    dim = 1 << M
    full = np.zeros((dim, dim), dtype=complex)
    rest_mask = ~((1 << a) | (1 << b))
    for k in range(dim):
        col = 2 * ((k >> a) & 1) + ((k >> b) & 1)
        for row in range(4):
            kp = (k & rest_mask) | ((row >> 1) << a) | ((row & 1) << b)
            full[kp, k] += u4[row, col]
    return full


def dense_pauli_operator(M, i, which):
    """sigma_which on qubit i as a full 2^M x 2^M matrix via kron chain."""
    full = np.array([[1.0 + 0.0j]])
    for q in range(M):
        factor = SIGMA[which] if q == i else I2
        full = np.kron(factor, full)  # qubit q becomes the next-higher bit
    return full


def pauli_expectation_dense(amps, M, i):
    """(<x>, <y>, <z>) for qubit i via full matrices, norm divided out."""
    amps = np.asarray(amps, dtype=complex)
    nrm = float(np.vdot(amps, amps).real)
    return tuple(
        float(np.vdot(amps, dense_pauli_operator(M, i, w) @ amps).real) / nrm
        for w in ("x", "y", "z")
    )


def partial_trace_1q(amps, M, i):
    """Reduced density matrix of qubit i by explicit index bookkeeping."""
    amps = np.asarray(amps, dtype=complex)
    rho = np.zeros((2, 2), dtype=complex)
    for k in range(1 << M):
        r = (k >> i) & 1
        for s in (0, 1):
            kp = (k & ~(1 << i)) | (s << i)
            rho[r, s] += amps[k] * np.conj(amps[kp])
    return rho / np.trace(rho).real


def ed_total_dense(amps, M):
    """1 - mean squared Bloch length, entirely via the dense route."""
    acc = 0.0
    for i in range(M):
        x, y, z = pauli_expectation_dense(amps, M, i)
        acc += x * x + y * y + z * z
    return 1.0 - acc / M


def random_state(rng, M):
    """Haar-ish random normalized amplitude vector."""
    v = rng.normal(size=1 << M) + 1j * rng.normal(size=1 << M)
    return v / np.linalg.norm(v)


def bloch_vectors_by_row_dots(amps, M, first, dot_bits=10):
    """(<x>, <y>, <z>) of qubits first..M-1, three dot passes over the state each.

    The plain form of the dot-product pass of ``bloch_vectors``: per qubit i,
    the state reshaped to (-1, 2, 2^(i-c), 2^c) with c = min(i, dot_bits)
    gives rows a0 and a1, and p0 = a0.a0, p1 = a1.a1 and t = a0.a1 are
    ``np.vecdot`` calls over the whole state, each summed as a complex
    array. The fast pass computes the same row dots and sums them in the
    same order, so the two must agree bit for bit.
    """
    out = []
    for i in range(first, M):
        c = min(i, dot_bits)
        pairs = np.asarray(amps).reshape(-1, 2, 1 << (i - c), 1 << c)
        a0, a1 = pairs[:, 0], pairs[:, 1]
        p0 = float(np.vecdot(a0, a0).sum().real)
        p1 = float(np.vecdot(a1, a1).sum().real)
        t = np.vecdot(a0, a1).sum()
        nrm = p0 + p1
        out.append((2.0 * float(t.real) / nrm, 2.0 * float(t.imag) / nrm, (p0 - p1) / nrm))
    return out


def erdos_renyi_edges(M, p, seed):
    """The Erdos-Renyi edge list by one scalar draw per ordered pair, in scan order.

    Pair (a, b), a != b, for a = 0..M-1 and b = 0..M-1, consumes one draw
    whether or not it is kept; it is kept if the draw is below p and its
    mirror (b, a) was not kept before it.
    """
    rng = np.random.default_rng(seed)
    present = set()
    edges = []
    for a in range(M):
        for b in range(M):
            if a == b:
                continue
            if rng.random() < p and (b, a) not in present:
                present.add((a, b))
                edges.append((a, b))
    return edges


def alpha_sweep_samples(gp, grid):
    """Samples (t, E, S, D_HS) of the alpha sweep, one state built and read at a time."""
    g = DirectedGraph(2, ((0, 1),))
    samples = []
    for j in range(grid):
        t = j / (grid - 1)
        state = build_graph_state(g, gp, math.sqrt(t), math.sqrt(1.0 - t))
        rho = reduced_density_1q(state, 0)
        d_hs = math.sqrt(0.5 * float(np.sum(np.abs(rho.matrix - 0.5 * np.eye(2)) ** 2)))
        samples.append((t, ed_total(state), von_neumann_entropy(rho), d_hs))
    return samples
