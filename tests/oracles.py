"""Independent oracle constructions used across the test suite.

These build expected matrices from first principles (explicit matrix
products, index permutations, closed-form sums) so circuit constructions
are checked against something other than themselves.
"""
import math
from functools import reduce

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


def qpe_outcome_probability(phi: float, k: int) -> float:
    """|, (1/8) sum_j exp(i j (phi - k pi/4)) |^2 evaluated directly."""
    total = sum(np.exp(1j * j * (phi - k * np.pi / 4.0)) for j in range(8)) / 8.0
    return float(abs(total) ** 2)


def restricted_unitary(built) -> np.ndarray:
    """Circuit unitary restricted to computational qubits, with ancillas
    entering |0...0> and read out at the declared desired string."""
    from nisq_lab.simulator import circuit_unitary

    U = circuit_unitary(built.circuit)
    n = built.circuit.n_qubits
    comp = built.computational_locals
    anc = built.ancilla_locals
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


def _apply_kraus(rho: np.ndarray, kraus) -> np.ndarray:
    return sum(k @ rho @ k.conj().T for k in kraus)


def kraus_outcome_probabilities(scheduled, cal) -> np.ndarray:
    """Exact outcome distribution of a scheduled noisy circuit (n <= 3),
    evolving the density matrix as rho -> sum_k K rho K^dagger with
    full-space Kraus operators, one channel at a time, in the order the
    noise model states: per layer, each qubit's amplitude damping, phase
    flip and drift rotation, then the gates with a two-qubit depolarizing
    channel after every CNOT; finally readout bit flips."""
    n = scheduled.n_qubits
    assert n <= 3, "oracle limited to 3 qubits"
    dim = 1 << n
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    p2 = cal.two_qubit_error
    for layer in scheduled.layers:
        dt = layer.duration
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
                rho = _apply_kraus(rho, [_embed({op.qubits[0]: _gate(op.kind, op.angle)}, n)])
    for q in range(n):
        r = cal.qubits[q].readout_error
        rho = _apply_kraus(rho, [math.sqrt(1.0 - r) * _embed({}, n),
                                 math.sqrt(r) * _embed({q: _PAULIS[1]}, n)])
    return np.real(np.diag(rho))
