"""Exact statevector simulation of small gate circuits.

Bit-order convention used everywhere in this package: qubit 0 is the MOST
significant bit of a basis index. For three qubits the label "110" means
qubit0=1, qubit1=1, qubit2=0 and corresponds to amplitude index 6. All
counts dictionaries key on these integer indices.

The gate set is deliberately small (X, H, T, T`, S, S`, Rphi, CNOT plus
Measure/Delay pseudo-ops): SWAP, CCNOT and controlled-phase gates are
compositions emitted by the builders module, never primitives.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TAU = 2.0 * math.pi
_SQRT2_INV = 1.0 / math.sqrt(2.0)

SINGLE_QUBIT_KINDS = ("X", "H", "T", "TDG", "S", "SDG", "RPHI")
GATE_KINDS = SINGLE_QUBIT_KINDS + ("CNOT", "MEASURE", "DELAY")

_FIXED_MATRICES = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV,
    "T": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
    "TDG": np.array([[1, 0], [0, np.exp(-1j * math.pi / 4)]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "SDG": np.array([[1, 0], [0, -1j]], dtype=complex),
}

PAULI_X = _FIXED_MATRICES["X"]
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def normalize_angle(angle: float) -> float:
    """Reduce a phase angle into (-pi, pi], which sits inside (-2pi, 2pi]."""
    if not math.isfinite(angle):
        raise ValueError(f"phase angle must be finite, got {angle}")
    reduced = math.remainder(angle, TAU)
    # remainder() returns -pi for inputs like -pi; fold onto the half-open side
    if reduced <= -math.pi:
        reduced += TAU
    return reduced


@dataclass(frozen=True)
class GateOp:
    """A single operation: gate kind, operand qubits, optional Rphi angle.

    ``duration`` is only meaningful for DELAY ops (seconds); every other
    kind gets its duration from the DurationModel at schedule time.
    """

    kind: str
    qubits: tuple[int, ...]
    angle: float = 0.0
    duration: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        arity = 2 if self.kind == "CNOT" else 1
        if len(self.qubits) != arity:
            raise ValueError(f"{self.kind} takes {arity} operand(s), got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"operands must be distinct, got {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise ValueError(f"negative qubit index in {self.qubits}")
        if self.kind == "RPHI":
            object.__setattr__(self, "angle", normalize_angle(self.angle))
        elif self.angle != 0.0:
            raise ValueError(f"{self.kind} takes no angle")
        if self.kind == "DELAY":
            if self.duration is None or not 0 <= self.duration < math.inf:
                raise ValueError("DELAY requires a finite non-negative duration in seconds")
        elif self.duration is not None:
            raise ValueError(f"{self.kind} duration is resolved at schedule time")


ROLES = ("control", "target", "ancilla", "computational")


@dataclass
class Circuit:
    """Ordered gate list over ``n_qubits``, with optional per-qubit role tags.

    Roles ("control" | "target" | "ancilla" | "computational") drive the
    f1/f2 bookkeeping downstream; they default to all-"computational".
    """

    n_qubits: int
    ops: list[GateOp] = field(default_factory=list)
    roles: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        if self.roles is not None:
            if len(self.roles) != self.n_qubits:
                raise ValueError("roles must tag every qubit")
            for r in self.roles:
                if r not in ROLES:
                    raise ValueError(f"unknown role {r!r}")
        for op in self.ops:
            self._check(op)

    def _check(self, op: GateOp) -> None:
        if any(q >= self.n_qubits for q in op.qubits):
            raise ValueError(f"{op.kind} operands {op.qubits} out of range for {self.n_qubits} qubits")

    def add(self, op: GateOp) -> "Circuit":
        self._check(op)
        if self.ops and self.ops[-1].kind == "MEASURE" and op.kind != "MEASURE":
            raise ValueError("measurement ops must come last")
        self.ops.append(op)
        return self

    def extend(self, ops) -> "Circuit":
        for op in ops:
            self.add(op)
        return self

    # fluent helpers
    def x(self, q: int) -> "Circuit":
        return self.add(GateOp("X", (q,)))

    def h(self, q: int) -> "Circuit":
        return self.add(GateOp("H", (q,)))

    def t(self, q: int) -> "Circuit":
        return self.add(GateOp("T", (q,)))

    def tdg(self, q: int) -> "Circuit":
        return self.add(GateOp("TDG", (q,)))

    def s(self, q: int) -> "Circuit":
        return self.add(GateOp("S", (q,)))

    def sdg(self, q: int) -> "Circuit":
        return self.add(GateOp("SDG", (q,)))

    def rphi(self, angle: float, q: int) -> "Circuit":
        return self.add(GateOp("RPHI", (q,), angle=angle))

    def cnot(self, control: int, target: int) -> "Circuit":
        return self.add(GateOp("CNOT", (control, target)))

    def delay(self, duration: float, q: int) -> "Circuit":
        return self.add(GateOp("DELAY", (q,), duration=duration))

    def measure(self, q: int) -> "Circuit":
        return self.add(GateOp("MEASURE", (q,)))

    def measure_all(self) -> "Circuit":
        for q in range(self.n_qubits):
            self.measure(q)
        return self

    def copy(self) -> "Circuit":
        return Circuit(self.n_qubits, list(self.ops), self.roles)

    def has_measurements(self) -> bool:
        return any(op.kind == "MEASURE" for op in self.ops)

    def gate_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for op in self.ops:
            counts[op.kind] = counts.get(op.kind, 0) + 1
        return counts

    def cnot_count(self) -> int:
        return sum(1 for op in self.ops if op.kind == "CNOT")

    def depth(self, *, two_qubit_only: bool = False) -> int:
        """ASAP layer count; with two_qubit_only, only CNOTs advance depth."""
        frontier = [0] * self.n_qubits
        for op in self.ops:
            if op.kind == "MEASURE":
                continue
            if two_qubit_only and op.kind != "CNOT":
                continue
            layer = max(frontier[q] for q in op.qubits) + 1
            for q in op.qubits:
                frontier[q] = layer
        return max(frontier, default=0)

    def to_dict(self) -> dict:
        ops = []
        for op in self.ops:
            entry: dict = {"kind": op.kind, "qubits": list(op.qubits)}
            if op.kind == "RPHI":
                entry["angle"] = op.angle
            if op.kind == "DELAY":
                entry["duration"] = op.duration
            ops.append(entry)
        d: dict = {"n_qubits": self.n_qubits, "ops": ops}
        if self.roles is not None:
            d["roles"] = list(self.roles)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Circuit":
        """Parse ``to_dict`` output; malformed input raises ValueError."""
        if not isinstance(d, dict):
            raise ValueError("circuit must be a JSON object")
        try:
            n, raw_ops = d["n_qubits"], d["ops"]
        except KeyError as exc:
            raise ValueError(f"malformed circuit dict: missing {exc}") from exc
        roles = d.get("roles")
        if not is_json_int(n):
            raise ValueError("circuit 'n_qubits' must be an integer")
        if not isinstance(raw_ops, list):
            raise ValueError("circuit 'ops' must be a list")
        if roles is not None and not (isinstance(roles, list)
                                      and all(isinstance(r, str) for r in roles)):
            raise ValueError("circuit 'roles' must be a list of strings")
        c = cls(n, roles=None if roles is None else tuple(roles))
        for i, entry in enumerate(raw_ops):
            if not (isinstance(entry, dict) and isinstance(entry.get("kind"), str)
                    and isinstance(entry.get("qubits"), list)
                    and all(is_json_int(q) for q in entry["qubits"])):
                raise ValueError(f"circuit op {i} needs a 'kind' string and integer 'qubits'")
            angle, duration = entry.get("angle", 0.0), entry.get("duration")
            if not is_json_number(angle) or not (duration is None or is_json_number(duration)):
                raise ValueError(f"circuit op {i}: 'angle' and 'duration' must be numbers")
            c.add(GateOp(entry["kind"], tuple(entry["qubits"]), angle=angle, duration=duration))
        return c


def is_json_int(value) -> bool:
    """True for a JSON integer (a bool is not one)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_json_number(value) -> bool:
    """True for a JSON number, integer or not (a bool is neither)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def basis_index(label: str) -> int:
    return int(label, 2)


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over 2**n_qubits basis states, unit norm."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (1 << self.n_qubits,):
            raise ValueError(f"expected {1 << self.n_qubits} amplitudes, got {amps.shape}")
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state not normalized: |amps|^2 = {norm}")

    @classmethod
    def zero(cls, n_qubits: int) -> "StateVector":
        amps = np.zeros(1 << n_qubits, dtype=complex)
        amps[0] = 1.0
        return cls(n_qubits, amps)

    @classmethod
    def basis(cls, n_qubits: int, label: str | int) -> "StateVector":
        idx = basis_index(label) if isinstance(label, str) else label
        amps = np.zeros(1 << n_qubits, dtype=complex)
        amps[idx] = 1.0
        return cls(n_qubits, amps)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def probability_of(self, label: str) -> float:
        return float(abs(self.amplitudes[basis_index(label)]) ** 2)


# ---------------------------------------------------------------------------
# Raw array primitives. These operate on arrays of shape (..., 2**n) so the
# same code drives single states, unitary columns, and batched noisy shots.
# ---------------------------------------------------------------------------

def gate_matrix(op: GateOp) -> np.ndarray:
    if op.kind == "RPHI":
        return np.array([[1, 0], [0, np.exp(1j * op.angle)]], dtype=complex)
    return _FIXED_MATRICES[op.kind]


def apply_single_qubit(amps: np.ndarray, mat: np.ndarray, qubit: int, n: int) -> np.ndarray:
    shape = amps.shape
    a = 1 << qubit
    b = 1 << (n - qubit - 1)
    v = amps.reshape(-1, a, 2, b)
    out = np.empty_like(v)
    out[:, :, 0, :] = mat[0, 0] * v[:, :, 0, :] + mat[0, 1] * v[:, :, 1, :]
    out[:, :, 1, :] = mat[1, 0] * v[:, :, 0, :] + mat[1, 1] * v[:, :, 1, :]
    return out.reshape(shape)


def apply_cnot_array(amps: np.ndarray, control: int, target: int, n: int) -> np.ndarray:
    shape = amps.shape
    lo, hi = (control, target) if control < target else (target, control)
    a = 1 << lo
    m = 1 << (hi - lo - 1)
    b = 1 << (n - hi - 1)
    v = amps.reshape(-1, a, 2, m, 2, b).copy()
    if control < target:
        tmp = v[:, :, 1, :, 0, :].copy()
        v[:, :, 1, :, 0, :] = v[:, :, 1, :, 1, :]
        v[:, :, 1, :, 1, :] = tmp
    else:
        tmp = v[:, :, 0, :, 1, :].copy()
        v[:, :, 0, :, 1, :] = v[:, :, 1, :, 1, :]
        v[:, :, 1, :, 1, :] = tmp
    return v.reshape(shape)


def apply_op_array(amps: np.ndarray, op: GateOp, n: int) -> np.ndarray:
    if op.kind == "CNOT":
        return apply_cnot_array(amps, op.qubits[0], op.qubits[1], n)
    if op.kind == "DELAY":
        return amps
    if op.kind == "MEASURE":
        raise ValueError("Measure cannot be applied as a unitary; use sample_shots")
    return apply_single_qubit(amps, gate_matrix(op), op.qubits[0], n)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def apply_gate(state: StateVector, op: GateOp) -> StateVector:
    """Apply one gate; rejects Measure and out-of-range operands."""
    if any(q >= state.n_qubits for q in op.qubits):
        raise ValueError(f"operands {op.qubits} out of range for {state.n_qubits} qubits")
    return StateVector(state.n_qubits, apply_op_array(state.amplitudes, op, state.n_qubits))


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """Apply every gate in order. The circuit must not contain Measure ops."""
    if circuit.n_qubits != state.n_qubits:
        raise ValueError(f"circuit has {circuit.n_qubits} qubits, state has {state.n_qubits}")
    if circuit.has_measurements():
        raise ValueError("circuit contains Measure ops; use sample_shots for measurement")
    amps = state.amplitudes
    for op in circuit.ops:
        amps = apply_op_array(amps, op, circuit.n_qubits)
    norm = float(np.sum(np.abs(amps) ** 2))
    assert abs(norm - 1.0) < 1e-10, f"norm drifted to {norm}"
    return StateVector(state.n_qubits, amps)


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Full 2**n x 2**n unitary of the circuit. Oracle use only: n <= 10."""
    n = circuit.n_qubits
    if n > 10:
        raise ValueError(f"circuit_unitary limited to 10 qubits, got {n}")
    if circuit.has_measurements():
        raise ValueError("circuit contains Measure ops")
    dim = 1 << n
    batch = np.eye(dim, dtype=complex)  # row k = basis state |k>
    for op in circuit.ops:
        batch = apply_op_array(batch, op, n)
    return batch.T


def sample_shots(state: StateVector, shots: int, seed: int | None = None) -> dict[int, int]:
    """Draw shot outcomes from |amplitude|^2, counted by basis index.
    Deterministic for a fixed seed."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = np.random.default_rng(seed)
    probs = state.probabilities()
    probs = probs / probs.sum()
    draws = rng.multinomial(shots, probs)
    return {i: int(c) for i, c in enumerate(draws) if c}


def states_equivalent(a: np.ndarray, b: np.ndarray, atol: float = 1e-9) -> bool:
    """True when two unit vectors agree up to a global phase."""
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.shape != b.shape:
        return False
    return bool(abs(abs(np.vdot(a, b)) - 1.0) <= atol)


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
