"""Independent oracle constructions used across the test suite.

These build expected matrices from first principles (explicit matrix
products, index permutations, closed-form sums) so circuit constructions
are checked against something other than themselves. ``circuit_unitary``
is the noiseless reference for every builder, and ``inverse_qft_matrix``
the closed-form target of every inverse-QFT construction.
``kraus_outcome_probabilities`` is the noisy reference for the engines in
``nisq_lab.noise``, and ``classical_outcome_probabilities`` its reference
for X/CNOT/DELAY circuits too wide for the Kraus oracle. None of them
imports the package's simulation code.
``six_cycles`` is the brute-force reference for the ring enumeration.
"""
import math
from functools import reduce
from itertools import combinations, permutations

import numpy as np


def cnot_matrix(control: int, target: int, n: int) -> np.ndarray:
    """CNOT permutation matrix built by enumerating basis labels."""
    dim = 1 << n
    mat = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        bits = [(j >> (n - 1 - q)) & 1 for q in range(n)]
        if bits[control]:
            bits[target] ^= 1
        i = sum(b << (n - 1 - q) for q, b in enumerate(bits))
        mat[i, j] = 1.0
    return mat


def swap_matrix_from_cnots(a: int, b: int, n: int) -> np.ndarray:
    """Multiply the three alternating CNOT matrices."""
    return cnot_matrix(a, b, n) @ cnot_matrix(b, a, n) @ cnot_matrix(a, b, n)


def toffoli_matrix(controls: tuple[int, int], target: int, n: int = 3) -> np.ndarray:
    dim = 1 << n
    mat = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        bits = [(j >> (n - 1 - q)) & 1 for q in range(n)]
        if bits[controls[0]] and bits[controls[1]]:
            bits[target] ^= 1
        i = sum(bb << (n - 1 - q) for q, bb in enumerate(bits))
        mat[i, j] = 1.0
    return mat


def inverse_qft_matrix(n: int = 3) -> np.ndarray:
    """The inverse QFT without terminal swaps: the inverse DFT with its
    output index bit-reversed, entry [rev(k), j] = exp(-2 pi i j k / 2**n)
    / sqrt(2**n), from the closed form."""
    dim = 1 << n
    mat = np.zeros((dim, dim), dtype=complex)
    for k in range(dim):
        rev = int(format(k, f"0{n}b")[::-1], 2)
        for j in range(dim):
            mat[rev, j] = np.exp(-2j * np.pi * j * k / dim) / math.sqrt(dim)
    return mat


def qpe_outcome_probability(phi: float, k: int) -> float:
    """|, (1/8) sum_j exp(i j (phi - k pi/4)) |^2 evaluated directly."""
    total = sum(np.exp(1j * j * (phi - k * np.pi / 4.0)) for j in range(8)) / 8.0
    return float(abs(total) ** 2)


def restricted_unitary(built) -> np.ndarray:
    """Circuit unitary restricted to computational qubits, with ancillas
    entering |0...0> and read out at the declared desired string."""
    U = circuit_unitary(built.circuit)
    n = built.circuit.n_qubits
    anc = built.ancilla_locals
    comp = tuple(q for q in range(n) if q not in anc)
    dim_c = 1 << len(comp)

    def global_index(comp_bits: str, anc_bits: str) -> int:
        bits = ["0"] * n
        for q, b in zip(comp, comp_bits):
            bits[q] = b
        for q, b in zip(anc, anc_bits):
            bits[q] = b
        return int("".join(bits), 2)

    M = np.zeros((dim_c, dim_c), dtype=complex)
    for j in range(dim_c):
        col = U[:, global_index(format(j, f"0{len(comp)}b"), "0" * len(anc))]
        for i in range(dim_c):
            M[i, j] = col[global_index(format(i, f"0{len(comp)}b"), built.desired_ancilla)]
    return M


_I2 = np.eye(2, dtype=complex)
_PAULIS = (
    _I2,
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _gate(kind: str, angle: float) -> np.ndarray:
    if kind == "X":
        return _PAULIS[1]
    if kind == "H":
        return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
    phase = {"T": math.pi / 4, "TDG": -math.pi / 4, "S": math.pi / 2,
             "SDG": -math.pi / 2, "RPHI": angle}[kind]
    return np.diag([1.0, np.exp(1j * phase)])


def _embed(ops_by_qubit: dict, n: int) -> np.ndarray:
    """Full-space operator: the given 2x2 factors, identity elsewhere."""
    return reduce(np.kron, [ops_by_qubit.get(q, _I2) for q in range(n)])


def circuit_unitary(circuit) -> np.ndarray:
    """Full 2**n x 2**n unitary of a measurement-free circuit (n <= 10): the
    product of each gate's full-space matrix, DELAY acting as the identity."""
    n = circuit.n_qubits
    if n > 10:
        raise ValueError(f"unitary oracle limited to 10 qubits, got {n}")
    u = np.eye(1 << n, dtype=complex)
    for op in circuit.ops:
        if op.kind == "MEASURE":
            raise ValueError("circuit contains Measure ops")
        if op.kind == "CNOT":
            u = cnot_matrix(*op.qubits, n) @ u
        elif op.kind != "DELAY":
            u = _embed({op.qubits[0]: _gate(op.kind, op.angle)}, n) @ u
    return u


def final_state(circuit, label: str | None = None) -> np.ndarray:
    """The circuit's output for basis input ``label`` (default all zeros):
    one column of its unitary."""
    return circuit_unitary(circuit)[:, int(label, 2) if label else 0]


def probability_of(state: np.ndarray, label: str) -> float:
    return float(abs(state[int(label, 2)]) ** 2)


def unitaries_equivalent(a: np.ndarray, b: np.ndarray, atol: float = 1e-9) -> bool:
    """True when two matrices agree entrywise up to a single global phase."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    k = int(np.argmax(np.abs(b)))
    ref = b.ravel()[k]
    if abs(ref) < atol:
        return bool(np.allclose(a, b, atol=atol))
    phase = a.ravel()[k] / ref
    if abs(abs(phase) - 1.0) > atol:
        return False
    return bool(np.max(np.abs(a - phase * b)) <= atol)


def _apply_kraus(rho: np.ndarray, kraus) -> np.ndarray:
    return sum(k @ rho @ k.conj().T for k in kraus)


def kraus_outcome_probabilities(scheduled, cal) -> np.ndarray:
    """Exact outcome distribution of a scheduled noisy circuit (n <= 7),
    evolving the density matrix as rho -> sum_k K rho K^dagger with
    full-space Kraus operators, one channel at a time, in the order the
    noise model states: per layer, each qubit's amplitude damping, phase
    flip and drift rotation, then the gates with a two-qubit depolarizing
    channel after every CNOT; finally readout bit flips. Layer durations
    and RPHI angles come from the schedule's ``ends`` and ``angles``, so a
    bound schedule runs its own values."""
    n = scheduled.n_qubits
    assert n <= 7, "oracle limited to 7 qubits"
    dim = 1 << n
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    p2 = cal.two_qubit_error
    angles = iter(scheduled.angles)  # each RPHI's angle, in layer order
    start = 0.0
    for layer, end in zip(scheduled.layers, scheduled.ends):
        dt, start = end - start, end
        for q in range(n):
            params = cal.qubits[q]
            gamma = 0.0 if math.isinf(params.t1) else 1.0 - math.exp(-dt / params.t1)
            pz = 0.0 if math.isinf(params.tphi) else 0.5 * (1.0 - math.exp(-dt / params.tphi))
            rho = _apply_kraus(rho, [
                _embed({q: np.array([[1, 0], [0, math.sqrt(1.0 - gamma)]])}, n),
                _embed({q: np.array([[0, math.sqrt(gamma)], [0, 0]])}, n),
            ])
            rho = _apply_kraus(rho, [math.sqrt(1.0 - pz) * _embed({}, n),
                                     math.sqrt(pz) * _embed({q: _PAULIS[3]}, n)])
            rho = _apply_kraus(rho, [_embed({q: np.diag([1.0, np.exp(1j * params.omega * dt)])}, n)])
        for op in layer.ops:
            if op.kind in ("MEASURE", "DELAY"):
                continue
            if op.kind == "CNOT":
                c, t = op.qubits
                rho = _apply_kraus(rho, [cnot_matrix(c, t, n)])
                depolarizing = [math.sqrt(1.0 - p2) * _embed({}, n)] + [
                    math.sqrt(p2 / 15.0) * _embed({c: _PAULIS[a], t: _PAULIS[b]}, n)
                    for a in range(4) for b in range(4) if (a, b) != (0, 0)
                ]
                rho = _apply_kraus(rho, depolarizing)
            else:
                angle = next(angles) if op.kind == "RPHI" else op.angle
                rho = _apply_kraus(rho, [_embed({op.qubits[0]: _gate(op.kind, angle)}, n)])
    for q in range(n):
        r = cal.qubits[q].readout_error
        rho = _apply_kraus(rho, [math.sqrt(1.0 - r) * _embed({}, n),
                                 math.sqrt(r) * _embed({q: _PAULIS[1]}, n)])
    return np.real(np.diag(rho))


def _flip(probs: np.ndarray, q: int) -> np.ndarray:
    """A probability tensor with qubit q's bit flipped in every bitstring."""
    return np.flip(probs, axis=q)


def classical_outcome_probabilities(scheduled, cal) -> np.ndarray:
    """Exact outcome distribution of a scheduled X/CNOT/DELAY circuit (n <=
    20), as a probability vector over its 2**n bitstrings, one axis per
    qubit, evolved layer by layer in the order the noise model states: per
    layer, each qubit's amplitude damping, under which a 1 decays to 0 with
    probability 1 - exp(-dt/t1); then the gates, X and CNOT permuting the
    bitstrings, each CNOT followed by the bit flips of its two-qubit
    depolarizing channel (each of the 15 non-identity Pauli pairs with
    probability p/15, an X or Y flipping its qubit's bit); finally readout
    bit flips. Phase flips and drift leave the bitstrings' probabilities
    alone, so they are left out. Layer durations come from the schedule's
    ``ends``."""
    n = scheduled.n_qubits
    assert n <= 20, "oracle limited to 20 qubits"
    probs = np.zeros((2,) * n)
    probs[(0,) * n] = 1.0
    p2 = cal.two_qubit_error
    flips = {}  # (control flips, target flips) -> its probability after a CNOT
    for a in range(4):
        for b in range(4):
            key = (a in (1, 2), b in (1, 2))
            flips[key] = flips.get(key, 0.0) + (1.0 - p2 if (a, b) == (0, 0) else p2 / 15.0)
    start = 0.0
    for layer, end in zip(scheduled.layers, scheduled.ends):
        dt, start = end - start, end
        for q in range(n):
            t1 = cal.qubits[q].t1
            gamma = 0.0 if math.isinf(t1) else 1.0 - math.exp(-dt / t1)
            view = np.moveaxis(probs, q, 0)
            view[0] += gamma * view[1]
            view[1] *= 1.0 - gamma
        for op in layer.ops:
            if op.kind in ("MEASURE", "DELAY"):
                continue
            assert op.kind in ("X", "CNOT"), f"{op.kind} leaves the computational basis"
            if op.kind == "X":
                probs = _flip(probs, op.qubits[0]).copy()
                continue
            c, t = op.qubits
            view = np.moveaxis(probs, (c, t), (0, 1))
            view[1] = view[1, ::-1].copy()
            total = np.zeros_like(probs)
            for (flip_c, flip_t), p in flips.items():
                moved = _flip(probs, c) if flip_c else probs
                total += p * (_flip(moved, t) if flip_t else moved)
            probs = total
    for q in range(n):
        r = cal.qubits[q].readout_error
        probs = (1.0 - r) * probs + r * _flip(probs, q)
    return probs.reshape(-1)


def six_cycles(n: int, edges) -> list[tuple[int, ...]]:
    """Every simple 6-cycle of the graph on vertices 0..n-1, by brute force:
    each ordering of each 6-subset that closes into a cycle of edges. A
    cycle is kept once, as the least of its 6 rotations and their 6
    reflections; the list is sorted."""
    adjacent = {frozenset(e) for e in edges}
    found = set()
    for subset in combinations(range(n), 6):
        # a vertex with fewer than two neighbours in the subset is on no cycle of it
        if any(sum(frozenset((v, w)) in adjacent for w in subset) < 2 for v in subset):
            continue
        for order in permutations(subset):
            if all(frozenset((order[i], order[(i + 1) % 6])) in adjacent for i in range(6)):
                found.add(min(seq[r:] + seq[:r] for seq in (order, order[::-1])
                              for r in range(6)))
    return sorted(found)
