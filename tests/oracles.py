"""Independent brute-force references used to pin expected values.

Most of this is deliberately written the slow, obvious way (explicit bit
loops, full 2^M x 2^M operators) and shares no code with the package
kernels, so a test comparing the two exercises genuinely different routes.
Two are the plain loops that batched package code replaced, kept as the
references those batches must equal: the Erdos-Renyi draw in scan order,
and the alpha sweep one state at a time through the package's one-state
calls. The last three read the degree law in integers, with no float at
all, at angles that are multiples of pi/6.
"""

import math
from fractions import Fraction

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


#: 2 cos(pi m / 6) = _TWICE_COS[0][m] + _TWICE_COS[1][m] sqrt(3), for m mod 12.
_TWICE_COS = np.array([[2, 0, 1, 0, -1, 0, -2, 0, -1, 0, 1, 0],
                       [0, 1, 0, 0, 0, -1, 0, -1, 0, 0, 0, 1]])
#: cos^2(pi m / 6), for m mod 6.
_COS_SQ = [Fraction(1), Fraction(3, 4), Fraction(1, 4), Fraction(0), Fraction(1, 4), Fraction(3, 4)]


def phase_exponents(g, n_theta, n_psi):
    """Exponent e_k, mod 12, of each amplitude 2^(-M/2) w^(e_k) of the balanced state.

    w = e^(i pi/6), at theta = n_theta pi/6 and psi = n_psi pi/6. Straight
    from the edge gates, one edge at a time: gate (a, b) adds
    theta - psi where bit a is set, and -2 theta more where bit b is too.
    """
    bits = (np.arange(1 << g.M)[:, None] >> np.arange(g.M)) & 1
    e = np.zeros(1 << g.M, dtype=np.int64)
    for a, b in g.edges:
        e += bits[:, a] * ((n_theta - n_psi) - 2 * n_theta * bits[:, b])
    return e % 12


def squared_bloch_lengths_exact(exponents, M):
    """Per qubit i, the integers (A, B) with |r_i|^2 = 2^(1-2M) (A + B sqrt 3).

    With amplitudes 2^(-M/2) w^(e_k), z_i = 0 and 2^M t_i = sum_j c_j w^j,
    where c_j counts the pairs (k0, k0 + 2^i) whose exponent difference is
    j mod 12; |r_i|^2 = 4 |t_i|^2 = 2^(1-2M) sum_{j,l} c_j c_l 2cos(pi(j-l)/6).
    """
    m = (np.arange(12)[:, None] - np.arange(12)) % 12
    out = []
    for i in range(M):
        pairs = exponents.reshape(-1, 2, 1 << i)
        c = np.bincount(((pairs[:, 1] - pairs[:, 0]) % 12).ravel(), minlength=12)
        cc = c[:, None] * c
        out.append(tuple(int((cc * part[m]).sum()) for part in _TWICE_COS))
    return out


def degree_law_exact(d, p, n_theta):
    """cos^2(theta)^(d-2p) cos^2(2 theta)^p at theta = n_theta pi/6, as a Fraction."""
    return _COS_SQ[n_theta % 6] ** (d - 2 * p) * _COS_SQ[2 * n_theta % 6] ** p
