"""Noise channels on scheduled circuits, and the exact engine that runs them.

A circuit is first layered with ASAP scheduling; every layer then charges
each qubit (idle or not) with three channels for the layer duration:

  1. amplitude damping, with excited-state survival exp(-dt/t1),
  2. a phase flip with probability (1 - exp(-dt/tphi)) / 2,
  3. a deterministic drift rotation Rphi(omega * dt).

Gates themselves are instantaneous unitaries; each CNOT is followed by a
two-qubit depolarizing channel (one of the 15 non-identity Pauli pairs with
total probability two_qubit_error). Readout bit-flips apply at the final
measurement. Outcomes are deterministic per (schedule, calibration, seed).

Every circuit runs on one exact engine, which holds the density matrix as
its real Pauli coefficients. Each single-qubit gate or CNOT (with its
depolarizing channel) is one Pauli transfer matrix, indexed qubit by qubit
so that channels on different qubits compose by kron, and the idle windows
the gate closes are folded into it. A qubit's axis is live (4
coefficients) only from its first gate to its last: the first gate's
matrix takes the qubit's |0> column, and the last one's closes the axis in
the qubit's readout-weighted rows. An X/CNOT/DELAY circuit keeps only each
qubit's (r_I, r_Z), on legs of 2 coefficients, so its matrices are the I/Z
blocks of the full ones. What depends on the layering alone is planned
once, with the steps that contract the folded gates: in time order, or in a
greedy pairwise order where time order would hold too much at once. A run
takes rows, each a schedule of that layering and a calibration, builds
every row's window, readout, RPHI and CNOT matrices as arrays, folds each
gate's matrix over the rows and runs the steps, one batched product each.

The engine closes each qubit in one of two ways, each with its own plan
(``_exact_plan``), kept per layering by its closing size (``_kept``):

  * in its two outcome rows, so that the last tensor is the outcome
    distribution over the 2**n basis states. ``run_shots`` draws a
    multinomial of counts from it, for any circuit and on any calibration:
    up to 13 qubits, and an X/CNOT/DELAY circuit up to about 26, within
    the memory budget;
  * in one score row: its wanted outcome's row where a score's mask covers
    it, and the sum of both rows elsewhere, so that the last tensor is the
    probability of reading the score, and no tensor holds the 2**n
    outcomes. ``score_probabilities`` stacks a structure's (calibration x
    score) rows; ``experiments.run_cells`` draws the three score classes of
    each cell wider than 12 qubits from them, and every narrower cell makes
    its own ``run_shots`` call.

Every exact run goes through one pass, ``_exact_pass``: it checks that
each calibration covers the circuit, refuses before planning or pricing
what would exceed the memory budget, and runs the rows in as few stacks as
fit it. ``keep_distributions``, ``score_probabilities`` and ``run_shots``
on a schedule with nothing kept for its calibration each call it once.

A schedule's structure is its layering: which ops, by kind and qubits, run
in which layer. Its values are each layer's end time (``ends``, the running
sum of layer durations, DELAY durations included) and each RPHI's angle
(``angles``). Both plans hold the structure alone: an idle window is a span
of layers ``(i, j)``, which lasts ``ends[i] - ends[j]``, and an RPHI gate is
a reference to its angle. So one plan serves every circuit of one
structure: ``bind`` gives a schedule another circuit's DELAY durations and
RPHI angles without re-layering or re-planning, and every schedule bound
from it shares its plans (``_kept``). Nothing of a calibration is in a plan
either, so one schedule also runs on the calibration subset of every
placement of its circuit. ``keep_distributions`` computes the outcome
distributions of a structure's (schedule, calibration) rows in stacked
passes and keeps each on its schedule, keyed by calibration, beside the
plans; ``run_shots`` draws from what is kept when there is one, so each
cell still makes its own ``run_shots`` call, with its own seed.

Each qubit's idle charge applies once per idle window (from one gate on the
qubit to its next gate, or to readout) for the window's summed duration,
which is the same channel as charging it layer by layer (see
``_idle_windows``), and all of a run's windows are priced in one array call
of ``_channel_rates``.
"""
from __future__ import annotations

import functools
import heapq
import itertools
import json
import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .simulator import (
    Circuit,
    GateOp,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    TAU,
    content_hash,
    gate_matrix,
    is_json_number,
    load_package_data,
    normalize_angle,
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
    # 1/tphi = 1/t2 - 1/(2 t1), set once by __post_init__
    tphi: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # derive_tphi validates positivity and t2 <= 2 t1
        object.__setattr__(self, "tphi", derive_tphi(self.t1, self.t2))
        if not (0.0 <= self.readout_error < 0.5):
            raise CalibrationError(f"readout_error must be in [0, 0.5), got {self.readout_error}")


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
        """A gate's or delay's duration; ``schedule`` times readout by ``measurement``."""
        if op.kind == "DELAY":
            return float(op.duration)
        if op.kind == "CNOT":
            return self.two_qubit
        return self.single_qubit


@dataclass(frozen=True)
class DeviceCalibration:
    qubits: tuple[QubitNoiseParams, ...]
    durations: DurationModel
    two_qubit_error: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.two_qubit_error < 1.0):
            raise CalibrationError(f"two_qubit_error must be in [0, 1), got {self.two_qubit_error}")
        # a stacked cell's subset is a dict key in keep_distributions and
        # run_shots: hash the compared fields once, as the generated __hash__ would
        object.__setattr__(self, "_hash", hash((self.qubits, self.durations, self.two_qubit_error)))

    def __hash__(self) -> int:
        return self._hash

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
        return content_hash(self, self.to_dict)


_REQUIRED_QUBIT_KEYS = ("t1_us", "t2_us", "omega_mhz", "readout_error")
_REQUIRED_DURATION_KEYS = ("single", "two_qubit", "measure")


def _number(value, where: str) -> float:
    """A finite JSON number as a float, or CalibrationError naming ``where``."""
    if is_json_number(value):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise CalibrationError(f"{where} must be a finite number, got {json.dumps(value)[:40]}")


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise CalibrationError(f"{where} must be a JSON object")
    return value


def calibration_from_dict(raw: dict) -> DeviceCalibration:
    """Parse the calibration file schema. Unit suffixes in key names bind:
    t1_us/t2_us are microseconds, omega_mhz is drift frequency in MHz
    (omega = 2*pi*f), durations_ns are nanoseconds. A null t1/t2 means
    infinite (noise channel disabled). A value of the wrong JSON type raises
    CalibrationError naming its key."""
    _object(raw, "calibration")
    for key in ("qubits", "durations_ns", "two_qubit_error"):
        if key not in raw:
            raise CalibrationError(f"calibration missing required key {key!r}")
    if not isinstance(raw["qubits"], list):
        raise CalibrationError("'qubits' must be a list of qubit entries")
    qubits = []
    for i, entry in enumerate(raw["qubits"]):
        _object(entry, f"qubit {i}")
        for key in _REQUIRED_QUBIT_KEYS:
            if key not in entry:
                raise CalibrationError(f"qubit {i} missing required key {key!r}")
        t1, t2 = (math.inf if entry[k] is None else _number(entry[k], f"qubit {i} {k!r}") * 1e-6
                  for k in ("t1_us", "t2_us"))
        qubits.append(
            QubitNoiseParams(
                t1=t1,
                t2=t2,
                omega=TAU * _number(entry["omega_mhz"], f"qubit {i} 'omega_mhz'") * 1e6,
                readout_error=_number(entry["readout_error"], f"qubit {i} 'readout_error'"),
            )
        )
    dur = _object(raw["durations_ns"], "'durations_ns'")
    for key in _REQUIRED_DURATION_KEYS:
        if key not in dur:
            raise CalibrationError(f"durations_ns missing required key {key!r}")
    single, two_qubit, measure = (_number(dur[key], f"durations_ns {key!r}") * 1e-9
                                  for key in _REQUIRED_DURATION_KEYS)
    durations = DurationModel(single_qubit=single, two_qubit=two_qubit, measurement=measure)
    return DeviceCalibration(tuple(qubits), durations,
                             _number(raw["two_qubit_error"], "'two_qubit_error'"))


def load_calibration(path) -> DeviceCalibration:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CalibrationError(f"cannot read calibration file {path}: {exc}") from exc
    return calibration_from_dict(raw)


@functools.cache
def default_calibration() -> DeviceCalibration:
    """The shipped 20-qubit calibration (one deliberately weak qubit, q7),
    loaded once per process; every caller shares the one frozen object."""
    return calibration_from_dict(load_package_data("default_calibration.json"))


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
    readout happens once at the end of the circuit. The engines read the
    structure from ``layers``' op kinds and qubits, and the values from
    ``ends``, each layer's end time, and ``angles``, each RPHI angle in
    layer order. ``slots`` say where ``bind`` puts each DELAY duration and
    RPHI angle of the circuit, in op order; a bound schedule shares its
    source's ``layers``, whose durations and op values stay the source's, so
    a schedule's values are read from ``ends`` and ``angles`` alone."""

    n_qubits: int
    layers: tuple[ScheduledLayer, ...]
    ends: tuple[float, ...]
    angles: tuple[float, ...]
    slots: tuple[tuple, ...]


_BOUND_KINDS = ("DELAY", "RPHI")


def _ends(durations) -> tuple[float, ...]:
    """Each layer's end time: its duration added to the previous end, from 0.0."""
    return tuple(itertools.accumulate(durations, initial=0.0))[1:]


def schedule(circuit: Circuit, durations: DurationModel) -> ScheduledCircuit:
    """Place each op in the earliest layer after all ops sharing a qubit."""
    frontier = [0] * circuit.n_qubits
    layer_ops: list[list[GateOp]] = []
    measures: list[GateOp] = []
    placed = []  # (layer, position) of each DELAY and RPHI, in op order
    for op in circuit.ops:
        if op.kind == "MEASURE":
            measures.append(op)
            continue
        if measures:
            raise ValueError("measurement ops must come last")
        idx = max(frontier[q] for q in op.qubits)
        if idx == len(layer_ops):
            layer_ops.append([])
        if op.kind in _BOUND_KINDS:
            placed.append((idx, len(layer_ops[idx])))
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
    angles, slots = [], []
    if placed:
        rphi = {}  # (layer, position) of each RPHI -> its index in layer order
        for i, ops in enumerate(layer_ops):
            for p, op in enumerate(ops):
                if op.kind == "RPHI":
                    rphi[i, p] = len(angles)
                    angles.append(op.angle)
        for i, p in placed:
            if (i, p) in rphi:
                slots.append(("RPHI", rphi[i, p]))
            else:  # a bound delay lasts its layer at least as long as its gates do
                gates = [durations.op_duration(op) for op in layer_ops[i] if op.kind != "DELAY"]
                slots.append(("DELAY", i, max(gates, default=0.0)))
    return ScheduledCircuit(circuit.n_qubits, tuple(layers),
                            _ends(layer.duration for layer in layers), tuple(angles), tuple(slots))


def bind(scheduled: ScheduledCircuit, values) -> ScheduledCircuit:
    """``scheduled`` with its circuit's DELAY durations and RPHI angles, in
    op order, replaced by ``values``: a schedule that shares its layers and
    its plans, with its own ``ends`` and ``angles``. A layer that holds a
    bound delay lasts the longest of its delays and gates, as ``schedule``
    times it, and angles are normalized as ``GateOp`` normalizes them, so
    the new schedule runs, bit for bit, as a fresh schedule of the circuit
    built with ``values`` would. Nothing is rebuilt, re-layered or
    re-planned. A circuit with nothing to bind returns ``scheduled`` itself.
    Raises ValueError for the wrong number of values, or a delay that
    ``GateOp`` would refuse."""
    slots = scheduled.slots
    if len(values) != len(slots):
        raise ValueError(f"the circuit binds {len(slots)} DELAY durations and RPHI angles, "
                         f"got {len(values)} values")
    if not slots:
        return scheduled
    angles = list(scheduled.angles)
    delays: dict[int, float] = {}  # layer -> its bound duration
    for slot, value in zip(slots, values):
        if slot[0] == "RPHI":
            angles[slot[1]] = normalize_angle(value)
        elif 0 <= value < math.inf:
            delays[slot[1]] = max(delays.get(slot[1], slot[2]), float(value))
        else:
            raise ValueError("DELAY requires a finite non-negative duration in seconds")
    ends = scheduled.ends if not delays else _ends(
        delays.get(i, layer.duration) for i, layer in enumerate(scheduled.layers))
    bound = ScheduledCircuit(scheduled.n_qubits, scheduled.layers, ends, tuple(angles), slots)
    bound.__dict__["plans"] = scheduled.__dict__.setdefault("plans", {})
    return bound


# ---------------------------------------------------------------------------
# Idle noise channels
# ---------------------------------------------------------------------------

def _channel_rates(t1: np.ndarray, tphi: np.ndarray, omega: np.ndarray,
                   dt: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(jump probability, phase-flip probability, drift angle) of idle
    intervals dt, elementwise over arrays of the qubits' t1, tphi and omega:
    1 - exp(-dt/t1), (1 - exp(-dt/tphi)) / 2 and omega dt. An infinite t1
    or tphi gives a zero rate, and dt = 0 gives three zeros."""
    if dt.min(initial=0.0) < 0.0:
        raise ValueError(f"negative interval dt={dt.min()}")
    gamma, flip = 1.0 - np.exp(-dt / np.array([t1, tphi]))
    return gamma, 0.5 * flip, omega * dt


def _window_index(windows: list[tuple[int, int, int]], n: int) -> np.ndarray:
    """For idle windows ``(q, i, j)`` on n qubits, lasting ``ends[i] -
    ends[j]``, the (6, windows) index of their t1, tphi, omega, readout
    error, end and start in a run's row of values: one (schedule,
    calibration)'s qubits 0..n-1 as (t1, tphi, omega, readout error), then
    its layer ends."""
    return np.array([(4 * q, 4 * q + 1, 4 * q + 2, 4 * q + 3, 4 * n + i, 4 * n + j)
                     for q, i, j in windows], dtype=np.intp).reshape(-1, 6).T


def _priced_windows(rows: list[tuple[ScheduledCircuit, DeviceCalibration]],
                    index: np.ndarray) -> tuple:
    """``(values, readout, rates)`` for rows ``(scheduled, cal)`` of one
    layering and its ``_window_index``: the rows' values, and each window's
    readout error and ``_channel_rates`` from one call, over (window, row)."""
    n = rows[0][0].n_qubits
    values = np.array([[x for p in cal.qubits[:n] for x in (p.t1, p.tphi, p.omega,
                                                             p.readout_error)] + list(s.ends)
                       for s, cal in rows])
    t1, tphi, omega, readout, end, start = values[:, index].transpose(1, 2, 0)
    return values, readout, _channel_rates(t1, tphi, omega, end - start)


def _idle_windows(
        scheduled: ScheduledCircuit) -> list[tuple[list[tuple[int, int, int]], tuple[GateOp, ...]]]:
    """The circuit as steps ``(windows, ops)``: close each ``(qubit, i, j)``
    idle window, then apply the ops. There is one step per layer plus a last
    step with no ops, whose windows are those still open at readout.

    A window closes when a gate (not MEASURE or DELAY) touches its qubit and
    spans every layer since the qubit's previous gate, the gate's own layer
    included, because a layer's idle charge comes before its ops: it closes
    at layer i and opened at the end of layer j, so it lasts ``ends[i] -
    ends[j]``. Every gated qubit has a window open at readout, closing at
    the last layer, which may last 0. Time up to and including a qubit's
    first gate layer is dropped: the qubit is still in |0>, which all three
    channels fix. Merging is exact: a qubit's idle channels commute with
    every op and channel not acting on it, damping survivals and phase-flip
    contrasts multiply, and drift angles add.

    The windows depend on the layering alone, so every schedule bound onto
    it (``bind``) has the same windows; each computes their durations from
    its own ``ends``, by the subtraction of the same two running sums.
    """
    steps = []
    last_gate: dict[int, int] = {}  # qubit -> index of its last gate layer
    for i, layer in enumerate(scheduled.layers):
        windows = []
        gated = [q for op in layer.ops if op.kind not in ("MEASURE", "DELAY") for q in op.qubits]
        gated.sort()  # no set needed: a layer's ops act on distinct qubits
        for q in gated:
            if q in last_gate:
                windows.append((q, i, last_gate[q]))
            last_gate[q] = i
        steps.append((windows, layer.ops))
    end = len(scheduled.layers) - 1
    steps.append(([(q, end, j) for q, j in sorted(last_gate.items())], ()))
    return steps


# ---------------------------------------------------------------------------
# Plans kept per layering
# ---------------------------------------------------------------------------

_CLASSICAL_KINDS = frozenset({"X", "CNOT", "DELAY", "MEASURE"})


def _kept(scheduled: ScheduledCircuit, close: int) -> "_ExactPlan":
    """``_exact_plan(scheduled, close)``, computed on first use and kept in
    the object's plans under its closing size, which every schedule bound
    from it shares (``bind``): a plan depends on the layering alone, never
    on the bound values or a calibration."""
    plans = scheduled.__dict__.setdefault("plans", {})
    if close not in plans:
        plans[close] = _exact_plan(scheduled, close)
    return plans[close]


def _classical(scheduled: ScheduledCircuit) -> bool:
    """Whether every op is X, CNOT, DELAY or MEASURE, so that the circuit
    stays in the computational basis."""
    return all(op.kind in _CLASSICAL_KINDS for layer in scheduled.layers for op in layer.ops)


# ---------------------------------------------------------------------------
# Exact engine: the density matrix as real Pauli coefficients
# ---------------------------------------------------------------------------
# rho = 2**-n sum_P r_P P over the Pauli strings P, with r_P = Tr(P rho)
# real since rho is Hermitian. The r_P form an n-axis (4,)*n tensor: axis q
# is qubit q's Pauli in I, X, Y, Z order. An operation on k qubits is a real
# 4**k x 4**k Pauli transfer matrix (PTM) on their axes, and channels on
# different qubits compose by kron. Every channel of the model has a real
# PTM (Chow et al., PRL 109, 060501, 2012).
#
# A fixed gate's PTM is mapped from its superoperator S on a qubit's (row
# bit, column bit) index of rho, where U rho U^dagger is kron(U, U*), as
# T S T^-1 (``_pauli_transfer``), once per gate kind.


def _read_only(m: np.ndarray) -> np.ndarray:
    m.setflags(write=False)
    return m


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices, or of stacks of them matched along their
    leading axis, by broadcasting: several times cheaper per call at these
    sizes."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], -1))


# Tr(P rho) = P^T.ravel() . rho.ravel(), and rho = sum_P r_P P / 2
_T = np.array([p.T.ravel() for p in (np.eye(2), PAULI_X, PAULI_Y, PAULI_Z)])
_T_INV = _T.conj().T / 2.0  # column P is P.ravel() / 2


def _pauli_transfer(s: np.ndarray) -> np.ndarray:
    """The real PTM of a one- or two-qubit superoperator s."""
    t, t_inv = (_T, _T_INV) if len(s) == 4 else (_kron(_T, _T), _kron(_T_INV, _T_INV))
    return _read_only((t @ s @ t_inv).real.copy())


@functools.cache
def _gate_ptm(kind: str) -> np.ndarray:
    """The PTM of a fixed single-qubit gate, from kron(U, U*)."""
    u = gate_matrix(GateOp(kind, (0,)))
    return _pauli_transfer(_kron(u, u.conj()))


# CNOT on (control, target), real so CX* = CX; its superoperator moved from
# (row c, row t, column c, column t) to the qubit-by-qubit index
_CX = np.eye(4)[[0, 1, 3, 2]]
_CX_PTM = _pauli_transfer(
    _kron(_CX, _CX).reshape((2,) * 8).transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(16, 16))
_IDENTITY = _read_only(np.eye(4))
_ZERO = _read_only(np.array([[1.0], [0.0], [0.0], [1.0]]))  # |0><0| = (I + Z) / 2
_TO_POPULATIONS = np.array([[0.5, 0.5], [0.5, -0.5]])  # (r_I, r_Z) -> (P(0), P(1))
# A live qubit's leg, by its size: all 4 Pauli coefficients, or the (r_I, r_Z)
# block of them. An X/CNOT/DELAY circuit starts in |0...0>, whose r_X and r_Y
# are 0, and X, CNOT, depolarizing, damping, phase flips and drift never move
# r_I or r_Z into r_X or r_Y, so its state and gates are their I/Z blocks.
_BLOCKS = {4: slice(None), 2: slice(None, None, 3)}


def _fresh_columns(zero: np.ndarray, identity: np.ndarray) -> dict:
    """What a gate's operands take, by which of them are fresh (none is,
    absent): the |0> column on a fresh axis, and the identity on a live one."""
    return {(True,): zero, (True, True): _read_only(_kron(zero, zero)),
            (True, False): _read_only(_kron(zero, identity)),
            (False, True): _read_only(_kron(identity, zero))}


_FRESH = {leg: _fresh_columns(_ZERO[b], _IDENTITY[b, b]) for leg, b in _BLOCKS.items()}
_CX_PTMS = {leg: _read_only(_CX_PTM.reshape(4, 4, 4, 4)[b, b][:, :, b, b].reshape(leg**2, -1))
            for leg, b in _BLOCKS.items()}


def _idle_ptms(gamma, pz, phase) -> np.ndarray:
    """The PTMs of idle windows from their ``_channel_rates``, as an array
    of 4 x 4 matrices of phase's shape: damping moves gamma of r_Z into r_I
    and keeps 1 - gamma of it, and the coherences (r_X, r_Y) shrink by a
    and turn by the drift angle. With gamma = pz = 0 it is the RPHI gate of
    that angle, and all-zero rates give the exact identity."""
    keep = 1.0 - gamma
    a = np.sqrt(keep) * (1.0 - 2.0 * pz)
    cos, sin = a * np.cos(phase), a * np.sin(phase)
    m = np.zeros(np.shape(phase) + (4, 4))
    m[..., 0, 0] = 1.0
    m[..., 1, 1] = m[..., 2, 2] = cos
    m[..., 2, 1], m[..., 1, 2] = sin, -sin
    m[..., 3, 0] = gamma
    m[..., 3, 3] = keep
    return m


def _cnot_ptms(p2: np.ndarray, leg: int) -> np.ndarray:
    """The PTMs of a CNOT and then its two-qubit depolarizing channel, one
    per entry of p2, on the index (control Pauli, target Pauli), or their
    I/Z blocks on legs of size 2: the average over the 15 non-identity
    Pauli pairs, (1 - lam) rho + lam Tr(rho) I/4 with lam = 16 p2 / 15,
    keeps 1 - lam of each of them."""
    keep = np.ones(p2.shape + (leg**2, 1))
    keep[..., 1:, :] = (1.0 - 16.0 * p2 / 15.0)[..., None, None]
    return keep * _CX_PTMS[leg]


class _ExactPlan(NamedTuple):
    """What ``_exact_probabilities`` does on any values and calibrations of
    one layering (``_exact_plan``). A gate is its PTM (None for a CNOT, an
    angle's index for an RPHI), the |0> columns of its fresh operands
    (``_FRESH``) or None, the windows it closes, and per operand its
    closing rows' index or the identity (None if no operand ends here).
    The tensors are the folded gates, then each never-gated qubit's
    ``[1 - r, r]`` as a 2 x 1 column, or its score's entry of it. A step
    contracts tensors i and j into one appended to them, as one batched
    product: i (transposed by perm_i and reshaped to shape_i, unless perm_i
    is None) times j transposed by perm_j and reshaped to shape_j, reshaped
    to ``shape``. Every matrix is on legs of size ``leg``: 4 Pauli
    coefficients per live qubit, or their (r_I, r_Z) block (``_BLOCKS``) in
    an X/CNOT/DELAY circuit."""

    gates: list  # per gate in time order: (gate, fresh, ins, outs, qubits)
    never_gated: list  # the qubits no gate touches
    index: np.ndarray  # the _window_index of every idle window
    read: int  # the first read windows, and closing rows, are those open at readout
    angles: int  # how many RPHI angles there are
    leg: int  # a live qubit's leg size: 2 in an X/CNOT/DELAY circuit, else 4
    order: str  # "time" or "greedy"
    shapes: list  # each tensor's shape, or None to take it as it comes
    steps: list  # (i, j, perm_i, shape_i, perm_j, shape_j, shape) per step
    final: tuple  # the last tensor's axes in qubit order
    held: float  # what the order holds at once, in coefficients per row
    peak: int  # time order's largest product, in coefficients per row


def _exact_plan(scheduled: ScheduledCircuit, close: int) -> _ExactPlan:
    """The ``_ExactPlan`` of ``scheduled``'s layering, in which each qubit
    closes at its last gate in ``close`` rows: its two outcomes, or one
    score row. A layering of X, CNOT, DELAY and MEASURE alone is classical:
    its live legs are the (r_I, r_Z) block, of size 2, and its gates and
    fresh columns the I/Z blocks of the full ones. One walk of its
    ``_idle_windows`` lists each gate's folding data. The steps are time
    order's (``_left_fold``) unless its largest product grows above
    _GREEDY_CROSSOVER coefficients per row (_SCORE_CROSSOVER on a score
    plan); then they are greedy's (``_greedy_order``)."""
    n = scheduled.n_qubits
    leg = 2 if _classical(scheduled) else 4
    block, fresh_columns = _BLOCKS[leg], _FRESH[leg]
    identity = _IDENTITY[block, block]
    *layers, (windows, _) = _idle_windows(scheduled)
    # each gated qubit's window open at readout, which opens at its last gate
    read = {q: (k, j) for k, (q, _, j) in enumerate(windows)}
    gated = set()  # the qubits a gate has taken so far
    gates, angle = [], 0  # the gates, and the index of the next RPHI's angle
    for i, (closed, ops) in enumerate(layers):
        idle = {q: len(windows) + k for k, (q, _, _) in enumerate(closed)}
        windows += closed
        for op in ops:
            if op.kind in ("MEASURE", "DELAY"):
                continue
            if op.kind == "CNOT":
                gate = None
            elif op.kind == "RPHI":
                gate, angle = angle, angle + 1
            else:
                gate = _gate_ptm(op.kind)[block, block]
            fresh = fresh_columns.get(tuple([q not in gated for q in op.qubits]))
            ins = [idle[q] for q in op.qubits if q in gated]
            gated.update(op.qubits)
            outs = None  # per operand its closing rows' index or the identity
            for k, q in enumerate(op.qubits):
                if read[q][1] == i:  # the qubit's last gate: it closes here
                    outs = outs or [identity] * len(op.qubits)
                    outs[k] = read[q][0]
            gates.append((gate, fresh, ins, outs, op.qubits))
    never_gated = [q for q in range(n) if q not in read]
    *steps, peak = _left_fold(gates, never_gated, n, leg, close)
    order = "greedy" if peak > (_GREEDY_CROSSOVER if close == 2 else _SCORE_CROSSOVER) else "time"
    if order == "greedy":
        steps = _greedy_order(gates, never_gated, n, leg, close)
    return _ExactPlan(gates, never_gated, _window_index(windows, n), len(read), angle, leg,
                      order, *steps, peak)


def _left_fold(gates: list[tuple], never_gated: list[int], n: int, leg: int,
               close: int) -> tuple:
    """Time order as ``(shapes, steps, final, held, peak)`` of an
    ``_ExactPlan`` on live legs of size ``leg``, closing in ``close`` rows:
    a left fold, each tensor in turn, as it comes, times the product of all
    before it. The product has one axis per qubit: size 1 before the
    qubit's first gate, ``leg`` while it is live and ``close`` after its
    last gate. The tensor's operands' axes, in operand order, are the inner
    dimension and the rest follow in qubit order; a readout pair is a gate
    that ends a fresh qubit. That transpose copies the product, so ``held``
    is _DENSE_PEAK_COPIES x ``peak``, the largest product."""
    sizes, steps, last, volume = [-1] + [1] * n, [], None, 1  # -1, then each qubit's size
    peak = 1
    axes = {}  # per operand tuple: a getter of the axes (0, operands, the rest), its inverse
    total = len(gates) + len(never_gated)  # step k's product is tensor total + k
    for _, _, ins, outs, qubits in gates + [(None, None, (), [0], (q,)) for q in never_gated]:
        inner, out = leg**len(ins), 1
        for q, m in zip(qubits, outs or qubits):
            sizes[q + 1] = close if outs is not None and type(m) is int else leg
            out *= sizes[q + 1]
        if qubits not in axes:
            perm = (0, *[q + 1 for q in qubits], *[q + 1 for q in range(n) if q not in qubits])
            axes[qubits] = itemgetter(*perm), tuple(sorted(range(n + 1), key=perm.__getitem__))
        axis, inverse = axes[qubits]
        shape = axis(sizes)  # the product's shape, and below the transpose to it
        if last is None:
            first = shape
        else:
            steps.append((len(steps) + 1, total + len(steps) - 1 if steps else 0, None, None,
                          axis(last), (-1, inner, volume // inner), shape))
        last = inverse
        volume = volume // inner * out
        peak = max(peak, volume)
    return [first] + [None] * (total - 1), steps, last, _DENSE_PEAK_COPIES * peak, peak


def _greedy_order(gates: list[tuple], never_gated: list[int], n: int, live: int,
                  close: int) -> tuple:
    """A greedy pairwise order as ``(shapes, steps, final, held)`` of an
    ``_ExactPlan`` (opt_einsum's greedy path; Markov & Shi, SIAM J. Comput.
    38, 2008). A tensor's axes are its legs: a qubit's axis from one gate
    to its next (size ``live``), or its closing rows (size ``close``); a
    gate puts out one leg per operand, then takes in those of its live
    operands. Of the pairs of live tensors that share a leg, contract the
    one whose product is smallest net of its operands (ties to the earlier
    pair), then multiply out what shares no leg, smallest first. Every
    folded gate is held from the first step on: ``held`` bounds every live
    tensor, a copy of each operand and the product, or three copies of the
    close**n closing rows."""
    sizes, legs = [], []  # each leg's size; each tensor's legs behind the row axis
    last = [None] * n  # each qubit's latest leg, and the tensor it leaves
    pairs = set()  # the tensors that share a leg
    for *_, outs, qubits in gates:
        ins = [last[q] for q in qubits if last[q] is not None]
        pairs.update((k, len(legs)) for _, k in ins)
        new = list(range(len(sizes), len(sizes) + len(qubits)))
        sizes += [close if outs is not None and type(m) is int else live for m in outs or qubits]
        for q, leg in zip(qubits, new):
            last[q] = leg, len(legs)
        legs.append(new + [leg for leg, _ in ins])
    for q in never_gated:
        last[q] = len(sizes), len(legs)
        legs.append([len(sizes)])
        sizes.append(close)
    shapes = [(-1, *[sizes[leg] for leg in t]) for t in legs]
    # a tensor's legs as the bits of a mask: two tensors' product keeps the
    # legs of their XOR, and its size is 2 ** (a bit per leg of size 2 or
    # more, and another per leg of size 4): a leg of size 1 counts none
    wide = sum(1 << leg for leg, size in enumerate(sizes) if size > 1)
    bonds = sum(1 << leg for leg, size in enumerate(sizes) if size == 4)
    masks = [sum(1 << leg for leg in t) for t in legs]

    def size(mask):
        return 1 << ((mask & wide).bit_count() + (mask & bonds).bit_count())

    volume = [size(m) for m in masks]
    live, steps = set(range(len(legs))), []
    held = peak = sum(volume)

    def candidate(i, j):
        return size(masks[i] ^ masks[j]) - volume[i] - volume[j], i, j

    def contract(i, j):
        nonlocal held, peak
        shared = [leg for leg in legs[i] if leg in legs[j]]
        left = [leg for leg in legs[i] if leg not in shared]
        right = [leg for leg in legs[j] if leg not in shared]
        k = len(legs)
        legs.append(left + right)
        masks.append(masks[i] ^ masks[j])
        volume.append(size(masks[k]))
        peak = max(peak, held + volume[i] + volume[j] + volume[k])
        held += volume[k] - volume[i] - volume[j]
        inner = math.prod(sizes[leg] for leg in shared)
        steps.append((i, j, (0, *[1 + legs[i].index(leg) for leg in left + shared]),
                      (-1, volume[i] // inner, inner),
                      (0, *[1 + legs[j].index(leg) for leg in shared + right]),
                      (-1, inner, volume[j] // inner),
                      (-1, *[sizes[leg] for leg in left + right])))
        live.difference_update((i, j))
        live.add(k)
        return k

    heap = [candidate(i, j) for i, j in pairs]
    heapq.heapify(heap)
    while heap:
        _, i, j = heapq.heappop(heap)
        if i in live and j in live:
            k = contract(i, j)
            for m in live:
                if m != k and masks[m] & masks[k]:
                    heapq.heappush(heap, candidate(m, k))
    rest = [(volume[i], i) for i in live]
    heapq.heapify(rest)
    while len(rest) > 1:
        (_, i), (_, j) = heapq.heappop(rest), heapq.heappop(rest)
        k = contract(i, j)
        heapq.heappush(rest, (volume[k], k))
    [(_, k)] = rest
    final = (0, *[1 + legs[k].index(last[q][0]) for q in range(n)])
    return shapes, steps, final, max(peak, 3 * close**n)


def _folded(rows, plan: _ExactPlan, windows, closing, rphi):
    """Each gate's matrix over the rows, in time order: its PTM (or the
    rows' CNOT or RPHI PTMs) on the |0> columns of its fresh operands,
    after the windows it closes and before its closing rows."""
    cnot = None  # built at the first CNOT
    for gate, fresh, ins, outs, _ in plan.gates:
        if gate is None:
            if cnot is None:
                cnot = _cnot_ptms(np.array([cal.two_qubit_error for _, cal in rows]), plan.leg)
            gate = cnot
        elif type(gate) is int:
            gate = rphi[gate]
        s = gate if fresh is None else gate @ fresh
        if ins:
            s = s @ functools.reduce(_kron, [windows[w] for w in ins])
        if outs is not None:
            s = functools.reduce(_kron, [closing[m] if type(m) is int else m for m in outs]) @ s
        yield s


def _score_weights(scores, n: int) -> np.ndarray:
    """Per qubit and row, the weights of its two outcomes in a score
    ``(mask, want)`` (``fitting.score_masks``), as a (n, rows, 1, 2) array:
    1 on the wanted outcome and 0 on the other where the mask covers the
    qubit, and 1 on both (a trace) where it does not."""
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)  # qubit 0 the most significant bit
    masks, wants = np.array(scores, dtype=np.int64).reshape(-1, 2).T
    covered = (masks[:, None] >> shifts) & 1
    one = (wants[:, None] >> shifts) & 1
    weights = np.stack([1 - covered * one, 1 - covered * (1 - one)], axis=-1)
    return weights.astype(float).transpose(1, 0, 2)[:, :, None, :]


def _exact_probabilities(rows: list[tuple[ScheduledCircuit, DeviceCalibration]],
                         scores=None) -> np.ndarray:
    """Exact outcome distributions over the 2**n basis states, readout error
    included, one per row ``(scheduled, cal)``; or, with ``scores``, one
    ``(mask, want)`` per row, each row's probability of reading its score,
    with no outcome axis held at all. The rows' schedules share one
    layering: they are one schedule or schedules bound from it (``bind``).

    Idle noise is charged once per idle window, which ``_idle_windows``
    shows is exact, and each window is applied in one product with the gate
    that closes it. A run prices its rows' windows in one ``_channel_rates``
    call, builds every window's PTM, readout rows and RPHI's PTM over
    (window or angle, row) and the CNOT's over rows, and gives every tensor
    a leading row axis: each gate indexes those arrays and folds its matrix
    (``_folded``) when a step first takes it, so that time order holds one
    folded gate at a time. A qubit's axis closes at its last gate in its two
    readout rows, which give its outcomes, or, for a score, in one: its
    wanted outcome's row where the mask covers it, and the sum of both rows
    elsewhere (``_exact_plan``, kept by closing size). One loop runs the
    steps of the layering's plan, in either order, and the last tensor is
    the outcome distribution or the score's probability. Every row is the
    same, bit for bit, as a run of its schedule, calibration and score
    alone.

    In time order a superposed-control cnot-reset chain has every ancilla
    live at its turn, 2 x 4**(n - 1) coefficients per row (4 MiB at 10
    qubits); greedily, every folded gate is held at once, but the largest
    tensor is the 2**n outcomes (``_stacked_need`` gives measured peaks).
    A schedule of a fresh layering plans again, so circuits scheduled
    afresh for each call, as the wide chains run through the API are, pay
    their plan on every call."""
    scheduled = rows[0][0]
    plan = _kept(scheduled, 2 if scores is None else 1)
    values, readout, rates = _priced_windows(rows, plan.index)
    windows = _idle_ptms(*rates)  # over (window, row)
    # a window open at readout ends in its qubit's readout flips, which keep
    # 1 - 2r of r_Z, and its (r_I, r_Z) rows then give the two outcomes
    windows[:plan.read, :, 3] *= (1.0 - 2.0 * readout[:plan.read])[..., None]
    closing = _TO_POPULATIONS @ windows[:plan.read, :, ::3]
    block = _BLOCKS[plan.leg]
    windows, closing = windows[..., block, block], closing[..., block]
    rphi = _idle_ptms(0.0, 0.0, np.array([s.angles for s, _ in rows]).T) if plan.angles else None
    pairs = [np.stack([1.0 - values[:, 4 * q + 3], values[:, 4 * q + 3]], axis=1)[..., None]
             for q in plan.never_gated]  # 2 x 1 columns
    if scores is not None:
        weights = _score_weights(scores, scheduled.n_qubits)
        closing = weights[plan.index[0, :plan.read] // 4] @ closing  # the read windows' qubits
        pairs = [weights[q] @ pair for q, pair in zip(plan.never_gated, pairs)]
    inputs = zip(itertools.count(), plan.shapes,
                 itertools.chain(_folded(rows, plan, windows, closing, rphi), pairs))
    tensors = {}
    for k, (i, j, perm_i, shape_i, perm_j, shape_j, shape) in enumerate(plan.steps,
                                                                        len(plan.shapes)):
        while i not in tensors or j not in tensors:  # fold the gates up to both operands
            m, s, t = next(inputs)
            tensors[m] = t if s is None else t.reshape(s)
        # no name holds an operand: one that its reshape copies is freed
        # before the product allocates, and the copies after it
        tensors[k] = ((tensors.pop(i) if perm_i is None
                       else tensors.pop(i).transpose(perm_i).reshape(shape_i))
                      @ tensors.pop(j).transpose(perm_j).reshape(shape_j)).reshape(shape)
    [rho] = tensors.values() if plan.steps else [t.reshape(s) for _, s, t in inputs]
    tensors.clear()
    probs = rho.transpose(plan.final).reshape(len(rows), -1)
    del rho  # freed if the reshape copied it, so that the product is held once
    if scores is not None:
        return probs[:, 0]
    # what np.clip(..., 0.0, None) computes, without its Python wrapper
    np.maximum(probs, 0.0, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


# Time order's largest product (a plan's ``peak``), in coefficients per row,
# above which the exact engine contracts greedily. Measured in one warm process
# (numpy 2.4, one BLAS thread, median of 21 runs, both orders planned in
# each run, as the API's fresh schedules planned them): superposed-control
# cnot-reset chains ran in time order / greedily in 0.72 / 0.93 ms at
# 8,192 (7 qubits), 1.08 / 1.13 at 32,768 (8), 4.01 / 1.19 at 131,072 (9)
# and 11.3 / 1.32 at 524,288 (10). Every structure the CLI subcommands
# build peaks at 4,096 or less; their 38 largest stacked calls took 38.3
# ms in time order and 55.8 ms greedily, plans built (31.7 and 33.1 ms on
# kept plans).
_GREEDY_CROSSOVER = 65536
# The same crossover for a score plan, whose greedy order never holds the
# 2**n outcomes. Measured on the chain shapes of 13 to 20 qubits, each a
# stacked pass of 4 orientations x f1 and f2 (numpy 2.4, one BLAS thread,
# best of 9, plans kept): cnot-reset chains ran in time order / greedily in
# 0.73 / 0.88 ms at 4,096 (13 qubits), 1.78 / 0.80 at 8,192 (14), 8.09 /
# 1.19 at 65,536 (17) and 98.7 / 1.34 at 524,288 (20), and greedy planning
# costs about 0.13 ms more per shape; the none and x-reset chains, which
# peak at 2 and 4, ran within 0.05 ms of each other at 13-19 qubits.
_SCORE_CROSSOVER = 4096
_DENSE_PEAK_COPIES = 2.5
_MEMORY_BUDGET = 2 << 30  # a quarter of an 8 GiB machine
# Per row, idle window and RPHI angle: its priced matrix and rates, and its
# share of the row's values, closing rows and score weights. Measured as the
# tracemalloc peak's growth per added row and window (numpy 2.4, stacks of 16
# and 48): 262 B on time-order score passes of x-reset chains at 20-60
# qubits, and 284 B on the none chains, whose rows hold 2 windows per qubit,
# so that their passes peak above the estimate from 32 rows at 30 qubits
# (by 0.2%) and from 16 at 40 (by 0.5%, and 2.4% at 64 rows). A price of 272
# would put the whole peak of a lone 9-qubit chain's outcome run below its
# per-row term.
_PRICED_BYTES = 264
# Per run, whatever its rows: the executor's own objects, and per folded gate
# its array's header, which a greedy order holds for every gate at once.
# Measured as the tracemalloc peak above the rows' estimate (numpy 2.4): 0.9-4.5
# KiB on runs of 1-4 rows in time order, and 4.5-8.9 KiB on greedy score
# passes of 6-38 gates at one row
_RUN_BYTES = 6 << 10
_GATE_BYTES = 160


def _row_bytes(plan: _ExactPlan) -> int:
    """Estimated peak bytes per stacked row of a run of ``plan``: 8 B x the
    plan's ``held`` coefficients, 8 B x _DENSE_PEAK_COPIES x the entries of
    its own folded CNOT matrices (3 x leg**4), and _PRICED_BYTES for each
    idle window and RPHI angle, whose PTM (16 entries, of which a classical
    structure reads its I/Z block) and rates a run builds per row."""
    return math.ceil(8 * (plan.held + _DENSE_PEAK_COPIES * 3 * plan.leg**4)
                     + _PRICED_BYTES * (plan.index.shape[1] + plan.angles))


def _stacked_need(scheduled: ScheduledCircuit, rows: int = 1, close: int = 2) -> int:
    """Estimated peak bytes of an exact run of ``rows`` stacked rows of
    ``scheduled``'s layering, on its plan closing in ``close`` rows (2 for
    outcomes, 1 for a score), in the order the plan records: _RUN_BYTES and
    _GATE_BYTES per gate once, and ``_row_bytes`` per row.

    tracemalloc peaks per row (numpy 2.4, stacks of 1-200 calibrations) in
    time order, where a row holds _DENSE_PEAK_COPIES x the largest product:
    all-live circuits took 12.3-18.9 KiB at 3 qubits (17 windows and
    angles; the 4**n term alone would allow 12x too many rows), 15.3 KiB at
    4 (24), 2.39 copies of 8 B x 4**n at 6 and 2.03 at 8, and 75.4-81.5 KiB
    on 3 qubits with 343 windows and angles; superposed-control cnot-reset
    chains, whose qubits are live only from their first gate to their last
    and whose largest product is 2 x 4**(n - 1), 1.02-1.33 copies of 4**n
    at 6-8 qubits (42.6 KiB at 6, against 67.5) and, forced into time
    order, 1.00 at 10 and 12 (8.0 MiB at 10, against 10.0). Greedily, those
    chains (stacks of 1 and 20) took 31.0-36.0 KiB at 9 qubits against
    54.4-62.5, 35.0-40.4 at 10 (58.5-66.8), 43.8-47.8 at 11 (73.5-82.2),
    76.8-80.9 at 12 (122.6-131.5) and 141.7-145.8 at 13 (219.6-228.9). On
    (r_I, r_Z) legs, 12-qubit chains (none, x-reset and cnot-reset, stacks
    of 1 and 4) took 71.0-78.0 KiB against 88.8-101.5. Score passes (stacks
    of 1, 8 and 16) on the chains of 20 and 30 qubits took, in time order
    (none and x-reset, whose products hold 2 and 4 coefficients), 11.1-19.3
    and 16.7-26.8 KiB against 11.6-27.6 and 16.9-38.5, and greedily
    (cnot-reset) 19.2-28.5 and 29.4-41.2 against 23.4-34.6 and 35.2-49.3:
    their priced windows, not their products, set the peak."""
    plan = _kept(scheduled, close)
    return _RUN_BYTES + _GATE_BYTES * len(plan.gates) + rows * _row_bytes(plan)


def _outcome_floor(scheduled: ScheduledCircuit) -> float:
    """_DENSE_PEAK_COPIES x 8 B x leg**n, with the leg size of
    ``_exact_plan`` (2 on an X/CNOT/DELAY circuit, else 4), known without
    planning: the width above which an outcome run is refused before it is
    planned. On (r_I, r_Z) legs it is the least such a run holds, since the
    last product is the 2**n outcomes."""
    return _DENSE_PEAK_COPIES * 8.0 * (2 if _classical(scheduled) else 4) ** scheduled.n_qubits


def _exact_pass(rows: list[tuple[ScheduledCircuit, DeviceCalibration]],
                scores=None) -> list[np.ndarray]:
    """``_exact_probabilities`` of rows ``(scheduled, cal)`` of one
    layering, or with ``scores`` of one ``(mask, want)`` per row, in stacked
    runs within _MEMORY_BUDGET: one array per run, in row order. Every exact
    run goes through here, which, in this order, raises CalibrationError
    for a calibration that does not cover the circuit; for outcome rows,
    SimulationError before planning when ``_outcome_floor`` exceeds the
    budget; and SimulationError, before pricing anything, when one row's
    ``_stacked_need`` would. Then each run stacks as many rows as
    ``_stacked_need`` allows within the budget."""
    scheduled, n = rows[0][0], rows[0][0].n_qubits
    short = min(cal.n_qubits for _, cal in rows)
    if short < n:
        raise CalibrationError(f"calibration covers {short} qubits, circuit needs {n}")
    close = 2 if scores is None else 1
    need = _outcome_floor(scheduled) if scores is None else 0.0
    if need <= _MEMORY_BUDGET:  # plan only what the floor lets run
        fixed, per_row = _stacked_need(scheduled, 0, close), _row_bytes(_kept(scheduled, close))
        need = fixed + per_row
    if need > _MEMORY_BUDGET:
        raise SimulationError(f"the exact engine would need about {need / 2**20:.0f} MiB for {n} "
                              f"qubits, above the {_MEMORY_BUDGET / 2**20:.0f} MiB budget")
    chunk = int((_MEMORY_BUDGET - fixed) // per_row)
    return [_exact_probabilities(rows[i:i + chunk]) if scores is None
            else _exact_probabilities(rows[i:i + chunk], scores[i:i + chunk])
            for i in range(0, len(rows), chunk)]


def keep_distributions(rows: list[tuple[ScheduledCircuit, DeviceCalibration]]) -> None:
    """Compute the exact outcome distribution of every distinct row
    ``(scheduled, cal)`` in stacked passes (``_exact_pass``), and keep each
    on its schedule, keyed by calibration, for ``run_shots`` to draw from.
    The schedules are one schedule or schedules bound from it (``bind``).
    Each row is, bit for bit, what ``run_shots`` would compute for its
    schedule and calibration alone. Raises what ``_exact_pass`` raises, and
    then keeps nothing."""
    rows = list({(id(scheduled), cal): (scheduled, cal) for scheduled, cal in rows}.values())
    for (scheduled, cal), probs in zip(rows, itertools.chain.from_iterable(_exact_pass(rows))):
        scheduled.__dict__.setdefault("distributions", {})[cal] = probs


def score_probabilities(rows: list[tuple[ScheduledCircuit, DeviceCalibration]],
                        scores) -> np.ndarray:
    """The exact probability that each row ``(scheduled, cal)`` reads each
    of its scores, as a (len(rows), k) array: ``scores[i]`` lists row i's k
    ``(mask, want)`` pairs (``fitting.score_masks``), and an outcome v reads
    one when ``v & mask == want``. The schedules share one layering, as in
    ``keep_distributions``. Each (row, score) pair is one row of the
    stacked passes of ``_exact_pass`` on the layering's score plan, which
    closes every qubit in one readout-weighted row, so that no pass holds
    the 2**n outcomes. Raises what ``_exact_pass`` raises."""
    stack = [(row, score) for row, own in zip(rows, scores) for score in own]
    law = _exact_pass([row for row, _ in stack], [score for _, score in stack])
    return np.concatenate(law).reshape(len(rows), -1)


def run_shots(scheduled: ScheduledCircuit, cal: DeviceCalibration, shots: int,
              seed) -> dict[int, int]:
    """Noisy shot counts by outcome integer, qubit 0 the most significant
    bit; deterministic per (schedule, calibration, seed). Every circuit runs
    on the exact engine, an X/CNOT/DELAY circuit on (r_I, r_Z) legs: the
    counts are one multinomial draw, on stream 3 of the seed, from the
    distribution ``keep_distributions`` kept for ``cal`` on the schedule,
    or else from the one computed for ``cal`` alone; the two are equal, bit
    for bit, and so are the counts. A schedule bound from another
    (``bind``) runs as a fresh schedule of its circuit would.

    Raises ValueError for shots outside 1 to the int64 maximum, which the
    draw takes, and, unless it draws from a kept distribution, what
    ``_exact_pass`` raises for its one row, before planning, pricing or
    allocating anything: SimulationError when the estimated peak memory
    exceeds _MEMORY_BUDGET, never less than _DENSE_PEAK_COPIES x 8 B x
    leg**n (``_outcome_floor``). So a circuit runs up to 13 qubits, and an
    X/CNOT/DELAY circuit up to 26, at any shot count; wider ones are
    refused. The draw itself holds the 2**n outcomes' counts."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if shots > 2**63 - 1:  # the int64 maximum, the most that the draw takes
        raise ValueError(f"shots must be at most {2**63 - 1}, got {shots}")
    if seed is None:
        raise ValueError("seed must be given: counts are deterministic per seed")
    kept = scheduled.__dict__.get("distributions")
    probs = kept.get(cal) if kept else None
    if probs is None:
        [[probs]] = _exact_pass([(scheduled, cal)])
    draws = np.random.default_rng([seed, 3]).multinomial(shots, probs)
    values = np.flatnonzero(draws)
    return dict(zip(values.tolist(), draws[values].tolist()))
