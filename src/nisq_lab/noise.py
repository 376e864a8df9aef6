"""Noise channels on scheduled circuits, and the engines that run them.

A circuit is first layered with ASAP scheduling; every layer then charges
each qubit (idle or not) with three channels for the layer duration:

  1. amplitude damping, with excited-state survival exp(-dt/t1),
  2. a phase flip with probability (1 - exp(-dt/tphi)) / 2,
  3. a deterministic drift rotation Rphi(omega * dt).

Gates themselves are instantaneous unitaries; each CNOT is followed by a
two-qubit depolarizing channel (one of the 15 non-identity Pauli pairs with
total probability two_qubit_error). Readout bit-flips apply at the final
measurement. Outcomes are deterministic per (schedule, calibration, seed).

``run_shots`` sends each circuit to one of three engines:

  * circuits built purely from X/CNOT/Delay stay computational-basis states
    and run as vectorized bit-vector trajectories (any width);
  * other circuits with 2**n <= shots run on the exact density-matrix
    engine, which computes the full outcome distribution once and draws a
    multinomial from it; its 4**n state is never larger than the
    shots * 2**n batch it replaces;
  * the rest run as a dense batch of statevector trajectories (the
    quantum-jump unraveling of the same channels) up to 14 qubits.

The trajectory engines sample the ensemble average that the exact engine
computes. ``simulate_noisy_shot`` runs one trajectory.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .simulator import (
    Circuit,
    GateOp,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    StateVector,
    TAU,
    apply_single_qubit,
    apply_cnot_array,
    apply_op_array,
    basis_label,
    gate_matrix,
)


class CalibrationError(ValueError):
    pass


class SimulationError(RuntimeError):
    pass


def derive_tphi(t1: float, t2: float) -> float:
    """Pure-dephasing time from 1/tphi = 1/t2 - 1/(2 t1); inf when t2 = 2 t1."""
    if not (t2 > 0 and t1 > 0):
        raise CalibrationError(f"t1 and t2 must be positive, got t1={t1}, t2={t2}")
    if t2 > 2.0 * t1 * (1.0 + 1e-12):
        raise CalibrationError(f"unphysical calibration: t2={t2} exceeds 2*t1={2 * t1}")
    rate = (1.0 / t2 if math.isfinite(t2) else 0.0) - (0.5 / t1 if math.isfinite(t1) else 0.0)
    if rate <= 0.0:
        return math.inf
    return 1.0 / rate


@dataclass(frozen=True)
class QubitNoiseParams:
    """Per-qubit relaxation (t1), transverse (t2) times in seconds, drift
    frequency omega in rad/s, and readout bit-flip probability."""

    t1: float
    t2: float
    omega: float = 0.0
    readout_error: float = 0.0

    def __post_init__(self):
        derive_tphi(self.t1, self.t2)  # validates positivity and t2 <= 2 t1
        if not (0.0 <= self.readout_error < 0.5):
            raise CalibrationError(f"readout_error must be in [0, 0.5), got {self.readout_error}")

    @property
    def tphi(self) -> float:
        return derive_tphi(self.t1, self.t2)

    @classmethod
    def noiseless(cls) -> "QubitNoiseParams":
        return cls(t1=math.inf, t2=math.inf, omega=0.0, readout_error=0.0)


@dataclass(frozen=True)
class DurationModel:
    """Gate durations in seconds; delays carry their own explicit duration."""

    single_qubit: float = 100e-9
    two_qubit: float = 300e-9
    measurement: float = 1e-6

    def __post_init__(self):
        for name in ("single_qubit", "two_qubit", "measurement"):
            if getattr(self, name) < 0:
                raise CalibrationError(f"{name} duration must be >= 0")

    def op_duration(self, op: GateOp) -> float:
        if op.kind == "DELAY":
            return float(op.duration)
        if op.kind == "CNOT":
            return self.two_qubit
        if op.kind == "MEASURE":
            return self.measurement
        return self.single_qubit


@dataclass(frozen=True)
class DeviceCalibration:
    qubits: tuple[QubitNoiseParams, ...]
    durations: DurationModel
    two_qubit_error: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.two_qubit_error < 1.0):
            raise CalibrationError(f"two_qubit_error must be in [0, 1), got {self.two_qubit_error}")

    @property
    def n_qubits(self) -> int:
        return len(self.qubits)

    def params_for(self, q: int) -> QubitNoiseParams:
        if not (0 <= q < len(self.qubits)):
            raise CalibrationError(f"no calibration entry for qubit {q}")
        return self.qubits[q]

    def subset(self, layout) -> "DeviceCalibration":
        """Calibration for a compacted circuit: entry i = qubit layout[i]."""
        return DeviceCalibration(
            qubits=tuple(self.params_for(q) for q in layout),
            durations=self.durations,
            two_qubit_error=self.two_qubit_error,
        )

    @classmethod
    def noiseless(cls, n_qubits: int, durations: DurationModel | None = None) -> "DeviceCalibration":
        return cls(
            qubits=tuple(QubitNoiseParams.noiseless() for _ in range(n_qubits)),
            durations=durations or DurationModel(),
            two_qubit_error=0.0,
        )

    def to_dict(self) -> dict:
        return {
            "qubits": [
                {
                    "t1_us": p.t1 * 1e6 if math.isfinite(p.t1) else None,
                    "t2_us": p.t2 * 1e6 if math.isfinite(p.t2) else None,
                    "omega_mhz": p.omega / TAU / 1e6,
                    "readout_error": p.readout_error,
                }
                for p in self.qubits
            ],
            "durations_ns": {
                "single": self.durations.single_qubit * 1e9,
                "two_qubit": self.durations.two_qubit * 1e9,
                "measure": self.durations.measurement * 1e9,
            },
            "two_qubit_error": self.two_qubit_error,
        }

    def content_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


_REQUIRED_QUBIT_KEYS = ("t1_us", "t2_us", "omega_mhz", "readout_error")
_REQUIRED_DURATION_KEYS = ("single", "two_qubit", "measure")


def calibration_from_dict(raw: dict) -> DeviceCalibration:
    """Parse the calibration file schema. Unit suffixes in key names bind:
    t1_us/t2_us are microseconds, omega_mhz is drift frequency in MHz
    (omega = 2*pi*f), durations_ns are nanoseconds. A null t1/t2 means
    infinite (noise channel disabled)."""
    for key in ("qubits", "durations_ns", "two_qubit_error"):
        if key not in raw:
            raise CalibrationError(f"calibration missing required key {key!r}")
    qubits = []
    for i, entry in enumerate(raw["qubits"]):
        for key in _REQUIRED_QUBIT_KEYS:
            if key not in entry:
                raise CalibrationError(f"qubit {i} missing required key {key!r}")
        t1 = math.inf if entry["t1_us"] is None else float(entry["t1_us"]) * 1e-6
        t2 = math.inf if entry["t2_us"] is None else float(entry["t2_us"]) * 1e-6
        qubits.append(
            QubitNoiseParams(
                t1=t1,
                t2=t2,
                omega=TAU * float(entry["omega_mhz"]) * 1e6,
                readout_error=float(entry["readout_error"]),
            )
        )
    dur = raw["durations_ns"]
    for key in _REQUIRED_DURATION_KEYS:
        if key not in dur:
            raise CalibrationError(f"durations_ns missing required key {key!r}")
    durations = DurationModel(
        single_qubit=float(dur["single"]) * 1e-9,
        two_qubit=float(dur["two_qubit"]) * 1e-9,
        measurement=float(dur["measure"]) * 1e-9,
    )
    return DeviceCalibration(tuple(qubits), durations, float(raw["two_qubit_error"]))


def load_calibration(path) -> DeviceCalibration:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CalibrationError(f"cannot read calibration file {path}: {exc}") from exc
    return calibration_from_dict(raw)


def default_calibration() -> DeviceCalibration:
    """The shipped 20-qubit calibration (one deliberately weak qubit, q7)."""
    with resources.files("nisq_lab.data").joinpath("default_calibration.json").open(
        "r", encoding="utf-8"
    ) as fh:
        return calibration_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Scheduling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScheduledLayer:
    ops: tuple[GateOp, ...]
    duration: float


@dataclass(frozen=True)
class ScheduledCircuit:
    """ASAP time layers. Measure ops, if present, form one final layer:
    readout happens once at the end of the circuit."""

    n_qubits: int
    layers: tuple[ScheduledLayer, ...]

    @property
    def total_duration(self) -> float:
        return sum(layer.duration for layer in self.layers)

    def flattened(self) -> list[GateOp]:
        return [op for layer in self.layers for op in layer.ops]


def schedule(circuit: Circuit, durations: DurationModel) -> ScheduledCircuit:
    """Place each op in the earliest layer after all ops sharing a qubit."""
    frontier = [0] * circuit.n_qubits
    layer_ops: list[list[GateOp]] = []
    measures: list[GateOp] = []
    for op in circuit.ops:
        if op.kind == "MEASURE":
            measures.append(op)
            continue
        if measures:
            raise ValueError("measurement ops must come last")
        idx = max(frontier[q] for q in op.qubits)
        if idx == len(layer_ops):
            layer_ops.append([])
        layer_ops[idx].append(op)
        for q in op.qubits:
            frontier[q] = idx + 1
    layers = [
        ScheduledLayer(tuple(ops), max(durations.op_duration(op) for op in ops))
        for ops in layer_ops
    ]
    if measures:
        seen = set()
        for op in measures:
            if op.qubits[0] in seen:
                raise ValueError(f"duplicate measurement on qubit {op.qubits[0]}")
            seen.add(op.qubits[0])
        layers.append(ScheduledLayer(tuple(measures), durations.measurement))
    return ScheduledCircuit(circuit.n_qubits, tuple(layers))


# ---------------------------------------------------------------------------
# Idle noise channels
# ---------------------------------------------------------------------------

def _channel_rates(params: QubitNoiseParams, dt: float) -> tuple[float, float, float]:
    """(jump probability scale, phase-flip probability, drift angle) for dt."""
    if dt < 0:
        raise ValueError(f"negative interval dt={dt}")
    gamma = 0.0 if not math.isfinite(params.t1) else 1.0 - math.exp(-dt / params.t1)
    tphi = params.tphi
    pz = 0.0 if not math.isfinite(tphi) else 0.5 * (1.0 - math.exp(-dt / tphi))
    return gamma, pz, params.omega * dt


def _idle_batch(amps: np.ndarray, qubit: int, n: int, gamma: float, pz: float,
                phase: float, rng: np.random.Generator) -> None:
    """Apply the three idle channels to one qubit of a (shots, 2**n) batch."""
    shots = amps.shape[0]
    a = 1 << qubit
    b = 1 << (n - qubit - 1)
    v = amps.reshape(shots, a, 2, b)
    if gamma > 0.0:
        v1 = v[:, :, 1, :]
        p1 = np.einsum("sab,sab->s", v1.real, v1.real) + np.einsum(
            "sab,sab->s", v1.imag, v1.imag
        )
        jump = rng.random(shots) < gamma * p1
        if jump.any():
            scale = 1.0 / np.sqrt(p1[jump])
            v[jump, :, 0, :] = v[jump, :, 1, :] * scale[:, None, None]
            v[jump, :, 1, :] = 0.0
        nj = ~jump
        if nj.any():
            v[nj, :, 1, :] *= math.sqrt(1.0 - gamma)
            amps[nj] /= np.sqrt(1.0 - gamma * p1[nj])[:, None]
    if pz > 0.0:
        flip = rng.random(shots) < pz
        if flip.any():
            v[flip, :, 1, :] *= -1.0
    if phase != 0.0:
        v[:, :, 1, :] *= complex(math.cos(phase), math.sin(phase))


def apply_idle_noise(state: StateVector, qubit: int, dt: float,
                     params: QubitNoiseParams, rng: np.random.Generator) -> StateVector:
    """One trajectory sample of the idle channels on a single state."""
    if qubit >= state.n_qubits:
        raise ValueError(f"qubit {qubit} out of range")
    gamma, pz, phase = _channel_rates(params, dt)
    amps = state.amplitudes[None, :].copy()
    _idle_batch(amps, qubit, state.n_qubits, gamma, pz, phase, rng)
    return StateVector(state.n_qubits, amps[0])


# ---------------------------------------------------------------------------
# Trajectory engines
# ---------------------------------------------------------------------------

_CLASSICAL_KINDS = frozenset({"X", "CNOT", "DELAY", "MEASURE"})

# two-qubit depolarizing: codes 1..15 map to Pauli pairs (code>>2, code&3)
# with 0=I, 1=X, 2=Y, 3=Z; X and Y components flip the measured bit
_PAULI_MATS = (None, PAULI_X, PAULI_Y, PAULI_Z)


def _is_classical(scheduled: ScheduledCircuit) -> bool:
    return all(op.kind in _CLASSICAL_KINDS for op in scheduled.flattened())


def _run_classical(scheduled: ScheduledCircuit, cal: DeviceCalibration, shots: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Bit-vector trajectories for circuits that stay in the computational
    basis: phase channels are unobservable there, damping is a plain decay
    flip, and depolarizing reduces to its X/Y bit-flip components."""
    n = scheduled.n_qubits
    states = np.zeros(shots, dtype=np.int64)
    p2 = cal.two_qubit_error
    for layer in scheduled.layers:
        for q in range(n):
            gamma, _, _ = _channel_rates(cal.params_for(q), layer.duration)
            if gamma > 0.0:
                bit = n - 1 - q
                excited = (states >> bit) & 1
                flips = rng.random(shots) < gamma
                states ^= (excited & flips) << bit
        for op in layer.ops:
            if op.kind == "X":
                states ^= 1 << (n - 1 - op.qubits[0])
            elif op.kind == "CNOT":
                bc = n - 1 - op.qubits[0]
                bt = n - 1 - op.qubits[1]
                states ^= ((states >> bc) & 1) << bt
                if p2 > 0.0:
                    err = rng.random(shots) < p2
                    if err.any():
                        code = rng.integers(1, 16, size=shots)
                        flip_c = err & (((code >> 2) == 1) | ((code >> 2) == 2))
                        flip_t = err & (((code & 3) == 1) | ((code & 3) == 2))
                        states ^= flip_c.astype(np.int64) << bc
                        states ^= flip_t.astype(np.int64) << bt
    for q in range(n):
        r = cal.params_for(q).readout_error
        if r > 0.0:
            flips = rng.random(shots) < r
            states ^= flips.astype(np.int64) << (n - 1 - q)
    return states


def _depolarize_batch(amps: np.ndarray, c: int, t: int, n: int, p: float,
                      rng: np.random.Generator) -> None:
    shots = amps.shape[0]
    err_rows = np.nonzero(rng.random(shots) < p)[0]
    if err_rows.size == 0:
        return
    codes = rng.integers(1, 16, size=err_rows.size)
    for code in np.unique(codes):
        rows = err_rows[codes == code]
        sub = amps[rows]
        pc, pt = code >> 2, code & 3
        if pc:
            sub = apply_single_qubit(sub, _PAULI_MATS[pc], c, n)
        if pt:
            sub = apply_single_qubit(sub, _PAULI_MATS[pt], t, n)
        amps[rows] = sub


def _run_dense_batch(scheduled: ScheduledCircuit, cal: DeviceCalibration, shots: int,
                     rng: np.random.Generator) -> np.ndarray:
    n = scheduled.n_qubits
    dim = 1 << n
    amps = np.zeros((shots, dim), dtype=complex)
    amps[:, 0] = 1.0
    p2 = cal.two_qubit_error
    for layer in scheduled.layers:
        for q in range(n):
            gamma, pz, phase = _channel_rates(cal.params_for(q), layer.duration)
            if gamma > 0.0 or pz > 0.0 or phase != 0.0:
                _idle_batch(amps, q, n, gamma, pz, phase, rng)
        for op in layer.ops:
            if op.kind in ("MEASURE", "DELAY"):
                continue
            amps = apply_op_array(amps, op, n)
            if op.kind == "CNOT" and p2 > 0.0:
                _depolarize_batch(amps, op.qubits[0], op.qubits[1], n, p2, rng)
    probs = np.abs(amps) ** 2
    probs /= probs.sum(axis=1, keepdims=True)
    cum = np.cumsum(probs, axis=1)
    u = rng.random(shots)
    outcomes = np.minimum((cum < u[:, None]).sum(axis=1), dim - 1).astype(np.int64)
    for q in range(n):
        r = cal.params_for(q).readout_error
        if r > 0.0:
            flips = rng.random(shots) < r
            outcomes ^= flips.astype(np.int64) << (n - 1 - q)
    return outcomes


# ---------------------------------------------------------------------------
# Exact density-matrix engine
# ---------------------------------------------------------------------------
# rho is kept flat as a 2n-qubit vector: row qubit q is qubit q and column
# qubit q is qubit n + q, so a gate U is U on q and U* on n + q, reusing the
# statevector primitives.

def _idle_channels(cal: DeviceCalibration, n: int,
                   dt: float) -> tuple[list[tuple[int, float]], np.ndarray]:
    """The idle channels of every qubit over dt as (damped qubits with their
    jump probability, elementwise factor of rho). Channels on different
    qubits commute, so the factor is the kron of each qubit's 2x2
    (row bit, column bit) factor: damping shrinks |1><1| by 1 - gamma and the
    coherences by sqrt(1 - gamma), the phase flip shrinks the coherences by
    1 - 2 pz, and drift rotates them by exp(-+i omega dt)."""
    damped = []
    factor = np.ones((1, 1), dtype=complex)
    for q in range(n):
        gamma, pz, phase = _channel_rates(cal.params_for(q), dt)
        if gamma > 0.0:
            damped.append((q, gamma))
        coherence = math.sqrt(1.0 - gamma) * (1.0 - 2.0 * pz)
        drift = complex(math.cos(phase), math.sin(phase))
        f = np.array([[1.0, coherence * drift.conjugate()], [coherence * drift, 1.0 - gamma]])
        k = factor.shape[0]
        factor = (factor[:, None, :, None] * f[None, :, None, :]).reshape(2 * k, 2 * k)
    return damped, factor.ravel()


def _depolarize_rho(rho: np.ndarray, c: int, t: int, n: int, p: float) -> None:
    """Two-qubit depolarizing on (c, t) in place: the average over the 15
    non-identity Pauli pairs at total probability p equals
    (1 - 16p/15) rho + (16p/15) Tr_ct(rho) (x) I/4."""
    lam = 16.0 * p / 15.0
    lo, hi = min(c, t), max(c, t)  # the channel is symmetric in its operands
    half = (1 << lo, 2, 1 << (hi - lo - 1), 2, 1 << (n - hi - 1))
    v = rho.reshape(half + half)
    diagonal = [(slice(None), i, slice(None), j, slice(None)) * 2 for i in (0, 1) for j in (0, 1)]
    mixed = sum(v[d] for d in diagonal) * (lam / 4.0)
    v *= 1.0 - lam
    for d in diagonal:
        v[d] += mixed


def _exact_probabilities(scheduled: ScheduledCircuit, cal: DeviceCalibration) -> np.ndarray:
    """Exact outcome distribution over the 2**n basis labels, readout error
    included: the ensemble average that the trajectory engines sample."""
    n = scheduled.n_qubits
    dim = 1 << n
    rho = np.zeros(dim * dim, dtype=complex)
    rho[0] = 1.0
    p2 = cal.two_qubit_error
    idle: dict[float, tuple[list[tuple[int, float]], np.ndarray]] = {}
    for layer in scheduled.layers:
        if layer.duration not in idle:
            idle[layer.duration] = _idle_channels(cal, n, layer.duration)
        damped, factor = idle[layer.duration]
        for q, gamma in damped:
            v = rho.reshape(1 << q, 2, dim >> (q + 1), 1 << q, 2, dim >> (q + 1))
            v[:, 0, :, :, 0, :] += gamma * v[:, 1, :, :, 1, :]
        rho *= factor
        for op in layer.ops:
            if op.kind == "CNOT":
                c, t = op.qubits
                rho = apply_cnot_array(rho, c, t, 2 * n)
                rho = apply_cnot_array(rho, n + c, n + t, 2 * n)
                if p2 > 0.0:
                    _depolarize_rho(rho, c, t, n, p2)
            elif op.kind not in ("MEASURE", "DELAY"):
                u = gate_matrix(op)
                q = op.qubits[0]
                rho = apply_single_qubit(rho, u, q, 2 * n)
                rho = apply_single_qubit(rho, u.conj(), n + q, 2 * n)
    probs = np.clip(rho[:: dim + 1].real, 0.0, None)
    for q in range(n):
        r = cal.params_for(q).readout_error
        if r > 0.0:
            probs = apply_single_qubit(probs, np.array([[1.0 - r, r], [r, 1.0 - r]]), q, n)
    return probs / probs.sum()


_DENSE_QUBIT_LIMIT = 14


def _check_calibrated(scheduled: ScheduledCircuit, cal: DeviceCalibration) -> None:
    if cal.n_qubits < scheduled.n_qubits:
        raise CalibrationError(
            f"calibration covers {cal.n_qubits} qubits, circuit needs {scheduled.n_qubits}"
        )


def simulate_noisy_shot(scheduled: ScheduledCircuit, cal: DeviceCalibration,
                        seed) -> str:
    """One noisy trajectory; returns the measured basis label."""
    _check_calibrated(scheduled, cal)
    rng = np.random.default_rng(seed)
    if _is_classical(scheduled):
        outcome = int(_run_classical(scheduled, cal, 1, rng)[0])
    elif scheduled.n_qubits <= _DENSE_QUBIT_LIMIT:
        outcome = int(_run_dense_batch(scheduled, cal, 1, rng)[0])
    else:
        raise SimulationError(
            f"non-classical circuits above {_DENSE_QUBIT_LIMIT} qubits are not supported"
        )
    return basis_label(outcome, scheduled.n_qubits)


def run_shots(scheduled: ScheduledCircuit, cal: DeviceCalibration, shots: int,
              seed) -> dict[str, int]:
    """Noisy shot counts; deterministic per (schedule, calibration, seed)."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if seed is None:
        raise ValueError("seed must be given: counts are deterministic per seed")
    _check_calibrated(scheduled, cal)
    n = scheduled.n_qubits
    if _is_classical(scheduled):
        outcomes = _run_classical(scheduled, cal, shots, np.random.default_rng([seed, 1]))
    elif n > _DENSE_QUBIT_LIMIT:
        raise SimulationError(
            f"non-classical circuits above {_DENSE_QUBIT_LIMIT} qubits are not supported"
        )
    elif (1 << n) <= shots:
        probs = _exact_probabilities(scheduled, cal)
        draws = np.random.default_rng([seed, 3]).multinomial(shots, probs)
        return {basis_label(int(v), n): int(draws[v]) for v in np.flatnonzero(draws)}
    else:
        outcomes = _run_dense_batch(scheduled, cal, shots, np.random.default_rng([seed, 2]))
    values, counts = np.unique(outcomes, return_counts=True)
    return {basis_label(int(v), n): int(c) for v, c in zip(values, counts)}
