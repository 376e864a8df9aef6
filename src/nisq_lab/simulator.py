"""Gate circuits: the gate set, its single-qubit matrices, and ``Circuit``.

Bit-order convention used everywhere in this package: qubit 0 is the MOST
significant bit of a basis index. For three qubits the label "110" means
qubit0=1, qubit1=1, qubit2=0 and corresponds to amplitude index 6. All
counts dictionaries key on these integer indices.

The gate set is deliberately small (X, H, T, T`, S, S`, Rphi, CNOT plus
Measure/Delay pseudo-ops): SWAP, CCNOT and controlled-phase gates are
compositions emitted by the builders module, never primitives. The noise
module simulates circuits; the tests check them against an independent
noiseless unitary oracle (tests/oracles.py).
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from importlib import resources

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


def gate_matrix(op: GateOp) -> np.ndarray:
    """The 2x2 matrix of a single-qubit gate."""
    if op.kind == "RPHI":
        return np.array([[1, 0], [0, np.exp(1j * op.angle)]], dtype=complex)
    return _FIXED_MATRICES[op.kind]


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

    @classmethod
    def from_dict(cls, d: dict) -> "Circuit":
        """Parse the circuit file schema; malformed input raises ValueError."""
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


def load_package_data(name: str) -> dict | list:
    """The JSON file ``name`` shipped in the package data directory."""
    with resources.files("nisq_lab.data").joinpath(name).open("r", encoding="utf-8") as fh:
        return json.load(fh)


def content_hash(obj, to_dict) -> str:
    """sha256 of ``to_dict()`` as sorted-key JSON, computed once per ``obj``
    and kept on it. The memo is keyed by identity, not value: objects that
    compare equal can still serialize differently (omega 0.0 vs -0.0)."""
    digest = obj.__dict__.get("_content_hash")
    if digest is None:
        blob = json.dumps(to_dict(), sort_keys=True).encode("utf-8")
        digest = obj.__dict__["_content_hash"] = hashlib.sha256(blob).hexdigest()
    return digest
