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

``run_shots`` sends each circuit to one of two engines:

  * circuits of more than _EXACT_CLASSICAL_QUBITS (12) qubits built purely
    from X/CNOT/Delay stay computational-basis states and run as vectorized
    bit-vector trajectories (up to 63 qubits, one bit each of an int64).
    Their gates and idle windows are listed in time order once per
    layering (``_bit_plan``); each run prices the windows' damping on its
    calibration, draws the events and applies them. The exact engine would
    hold their 2**n outcomes, which costs more per cell than the
    trajectories at 13 qubits on some chains, and it refuses any circuit
    from 14 on;
  * every other circuit runs on the exact engine, which holds the density
    matrix as its real Pauli coefficients, computes the outcome
    distribution once and draws a multinomial from it. Each single-qubit
    gate or CNOT (with its depolarizing channel) is one Pauli transfer
    matrix, indexed qubit by qubit so that channels on different qubits
    compose by kron, and the idle windows the gate closes are folded into
    it. A qubit's axis is live (4 coefficients) only from its first gate
    to its last: the first gate's matrix takes the qubit's |0> column, and
    the last one's ends in the qubit's readout rows, so that the axis
    leaves it holding the qubit's two outcome probabilities. What depends
    on the layering alone is planned once (``_exact_plan``), with the
    steps that contract the folded gates: in time order, or in a greedy
    pairwise order where time order would hold more than _GREEDY_CROSSOVER
    coefficients per row at once. A run takes rows, each a schedule of
    that layering and a calibration, builds every row's window, readout,
    RPHI and CNOT matrices as arrays, folds each gate's matrix over the
    rows and runs the steps, one batched product each. An X/CNOT/DELAY
    circuit of up to 12 qubits runs here too, on legs of 2 coefficients:
    its state keeps only each qubit's (r_I, r_Z), so its matrices are the
    I/Z blocks of the full ones, and its exact law costs less per cell
    than its trajectories.

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
placement of its circuit. A circuit of more than 12 qubits builds its
bit-vector plan on the first run, and the plan also records which engine
runs it: it is None when an op leaves the computational basis; a narrower
circuit runs exact and builds none. ``keep_distributions`` computes the exact
distributions, or the bit-vector damping probabilities, of a structure's
(schedule, calibration) rows in stacked passes and keeps each on its
schedule, keyed by calibration, beside the plans; ``run_shots`` uses what
is kept when there is one, so each cell still makes its own ``run_shots``
call, with its own seed.

The bit-vector engine samples the ensemble average that the exact engine
computes. Both apply each qubit's idle charge once per idle window (from
one gate on the qubit to its next gate, or to readout) for the window's
summed duration, which is the same channel as charging it layer by layer
(see ``_idle_windows``), and both price all of a run's windows in one
array call of ``_channel_rates`` (the bit-vector engine keeps only the
damping). The bit-vector engine draws the shots that each damping window,
depolarizing channel and readout flip hits, many events at once, as
running sums of Geometric(p) gaps (``_event_hits``: the same law as
per-shot trials), and touches only those rows.
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
# Bit-vector engine
# ---------------------------------------------------------------------------

_CLASSICAL_KINDS = frozenset({"X", "CNOT", "DELAY", "MEASURE"})

# two-qubit depolarizing: codes 1..15 map to Pauli pairs (code>>2, code&3)
# with 0=I, 1=X, 2=Y, 3=Z; X and Y components flip the measured bit
_PAULI_FLIPS = np.array([0, 1, 1, 0], dtype=np.int64)
_GROUP_BUDGET = 2  # a group's first gap budgets sum to at most this many times shots + 1
_DECAY, _FLIP = ("decay",), ("flip",)  # where _run_classical applies an event


def _gap_budget(shots: int, p: float) -> int:
    """Gaps an event of probability p draws at first: its mean hit count plus
    4 sqrt(mean) + 4 (short for well under one event in 10**4), at most
    shots + 1."""
    mean = shots * p
    return min(math.ceil(mean + 4.0 * math.sqrt(mean) + 4.0), shots + 1)


def _draw_group(rng: np.random.Generator, shots: int,
                group: list) -> list[tuple[np.ndarray, int | np.ndarray]]:
    """``_event_hits`` for one group of ``(p, bits, budget)`` events."""
    budget = [b for _, _, b in group]
    # Geometric(p) gaps by inverse transform, floor(log(1 - U) / log(1 - p)) + 1,
    # clipped to shots + 1 before the integer cast. log(1 - p) is capped at
    # -1e-300 so that the division cannot overflow: any gap the cap changes
    # is longer than shots either way.
    log_q = [-math.inf if p == 1.0 else min(math.log1p(-p), -1e-300) for p, _, _ in group]
    gaps = np.log1p(-rng.random(sum(budget)))
    gaps /= np.repeat(log_q, budget) if len(group) > 1 else log_q[0]
    gaps = np.minimum(gaps, shots, out=gaps).astype(np.int64)
    gaps += 1
    starts = list(itertools.accumulate(budget[:-1], initial=0))
    if len(group) > 1:  # restart the running sum at each event's first gap
        gaps[starts[1:]] -= np.add.reduceat(gaps, starts)[:-1]
    np.cumsum(gaps, out=gaps)  # one past each row an event hits
    hit = gaps <= shots
    rows = gaps[hit] - 1
    counts = np.add.reduceat(hit, starts, dtype=np.int64).tolist()
    del gaps, hit  # the group keeps only its rows
    bounds = list(itertools.accumulate(counts, initial=0))
    hits = [rows[a:b] for a, b in zip(bounds, bounds[1:])]
    for k, (p, _, b) in enumerate(group):
        if counts[k] == b:
            # every gap fell in range(shots); the rows past the last hit are a
            # Bernoulli(p) process of their own, drawn with twice the budget
            last = int(hits[k][-1]) + 1
            [(more, _)] = _draw_group(rng, shots - last, [(p, (0,), 2 * b)])
            hits[k] = np.concatenate([hits[k], more + last])
    patterns = [1 << bits[0] for _, bits, _ in group]
    pairs = [k for k, (_, bits, _) in enumerate(group) if len(bits) == 2]
    if pairs:
        sizes = [hits[k].size for k in pairs]
        codes = rng.integers(1, 16, size=sum(sizes))
        control, target = np.array([group[k][1] for k in pairs]).T
        flips = ((_PAULI_FLIPS[codes >> 2] << np.repeat(control, sizes))
                 | (_PAULI_FLIPS[codes & 3] << np.repeat(target, sizes)))
        bounds = list(itertools.accumulate(sizes, initial=0))
        for k, a, b in zip(pairs, bounds, bounds[1:]):
            patterns[k] = flips[a:b]
    return list(zip(hits, patterns))


def _event_hits(rng: np.random.Generator, shots: int, events: list):
    """Yield, for each event ``(p, bits)`` (0 < p <= 1) in turn, the rows of
    range(shots) it hits and what to XOR into them: ``1 << bits[0]``, or for
    a CNOT's depolarizing on bits (control, target) each row's X/Y flips of a
    uniform non-identity Pauli pair. The rows are a Bernoulli(p) process: the
    running sums of Geometric(p) gaps below shots. Events are drawn in groups
    whose first gap budgets sum to at most _GROUP_BUDGET x (shots + 1), or of
    one event, each group's gaps and Pauli codes in one numpy pass."""
    group, total = [], 0
    for p, bits in events:
        budget = _gap_budget(shots, p)
        if group and total + budget > _GROUP_BUDGET * (shots + 1):
            yield from _draw_group(rng, shots, group)
            group, total = [], 0
        group.append((p, bits, budget))
        total += budget
    if group:
        yield from _draw_group(rng, shots, group)


def _kept(scheduled: ScheduledCircuit, plan):
    """``plan(scheduled)``, computed on first use and kept in the object's
    plans, which every schedule bound from it shares (``bind``): a plan
    depends on the layering alone, never on the bound values or a
    calibration."""
    plans = scheduled.__dict__.setdefault("plans", {})
    if plan not in plans:
        plans[plan] = plan(scheduled)
    return plans[plan]


def _classical(scheduled: ScheduledCircuit) -> bool:
    """Whether every op is X, CNOT, DELAY or MEASURE, so that the circuit
    stays in the computational basis."""
    return all(op.kind in _CLASSICAL_KINDS for layer in scheduled.layers for op in layer.ops)


def _bit_plan(scheduled: ScheduledCircuit) -> tuple[list[tuple], list[tuple], tuple] | None:
    """What ``_run_classical`` does on any values and calibration, as
    ``(steps, readouts, index)``, or None when an op leaves the
    computational basis (the exact engine then runs the circuit). A step is
    ``("decay", w, bits)`` for idle window w, ``("X", mask)``, or
    ``("CNOT", shift, target mask, bits)``, in time order; ``readouts``
    pairs each qubit with its bit, and ``index`` is the windows'
    ``_window_index``. ``bits`` are what a noise event on the step flips."""
    if not _classical(scheduled):
        return None
    n = scheduled.n_qubits
    bit = [(n - 1 - q,) for q in range(n)]  # shared by every event on qubit q
    steps, windows = [], []
    for closed, ops in _idle_windows(scheduled):
        steps += [("decay", len(windows) + k, bit[q]) for k, (q, _, _) in enumerate(closed)]
        windows += closed
        for op in ops:
            if op.kind == "X":
                steps.append(("X", 1 << (n - 1 - op.qubits[0])))
            elif op.kind == "CNOT":
                c, t = n - 1 - op.qubits[0], n - 1 - op.qubits[1]
                steps.append(("CNOT", c - t, 1 << t, (c, t)))
    return steps, list(enumerate(bit)), _window_index(windows, n)


def _run_classical(scheduled: ScheduledCircuit, cal: DeviceCalibration, shots: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Bit-vector trajectories for circuits that stay in the computational
    basis: phase channels are unobservable there, damping is a plain decay
    flip, and depolarizing reduces to its X/Y bit-flip components.

    The gates and the places of noise events are planned once per
    ``ScheduledCircuit`` (``_bit_plan``). Each run takes the damping of
    all the schedule's windows on ``cal`` as ``keep_distributions`` kept it,
    or prices it in one ``_channel_rates`` call, lists the events in time
    order, keeping those with p > 0, then draws their rows in batches
    (``_event_hits``) and applies gates and events in turn."""
    plan_steps, readouts, index = _kept(scheduled, _bit_plan)
    params, p2 = cal.qubits, cal.two_qubit_error
    gammas = scheduled.__dict__.get("dampings", {}).get(cal)
    if gammas is None:
        _, _, (gamma, _, _) = _priced_windows([(scheduled, cal)], index)
        gammas = gamma[:, 0].tolist()
    steps, events = [], []  # the gates, and _DECAY or _FLIP where an event applies
    for step in plan_steps:
        if step[0] == "decay":
            if (gamma := gammas[step[1]]) > 0.0:
                # a hit excited bit decays to 0; a hit ground bit stays 0
                steps.append(_DECAY)
                events.append((gamma, step[2]))
        else:
            steps.append(step)
            if step[0] == "CNOT" and p2 > 0.0:
                steps.append(_FLIP)
                events.append((p2, step[3]))
    for q, bits in readouts:
        if (r := params[q].readout_error) > 0.0:
            steps.append(_FLIP)
            events.append((r, bits))
    states = np.zeros(shots, dtype=np.int64)
    hits = _event_hits(rng, shots, events)
    for step in steps:
        if step[0] == "X":
            states ^= step[1]
        elif step[0] == "CNOT":  # shift the control bit onto the target's and add it
            moved = states >> step[1] if step[1] > 0 else states << -step[1]
            moved &= step[2]
            states ^= moved
        else:
            rows, pattern = next(hits)
            states[rows] = states[rows] & ~pattern if step is _DECAY else states[rows] ^ pattern
    return states


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
    readout rows' index or the identity (None if no operand ends here).
    The tensors are the folded gates, then each never-gated qubit's
    ``[1 - r, r]`` as a 2 x 1 column. A step contracts tensors i and j into
    one appended to them, as one batched product: i (transposed by perm_i
    and reshaped to shape_i, unless perm_i is None) times j transposed by
    perm_j and reshaped to shape_j, reshaped to ``shape``. Every matrix is
    on legs of size ``leg``: 4 Pauli coefficients per live qubit, or their
    (r_I, r_Z) block (``_BLOCKS``) in an X/CNOT/DELAY circuit."""

    gates: list  # per gate in time order: (gate, fresh, ins, outs, qubits)
    never_gated: list  # the qubits no gate touches
    index: np.ndarray  # the _window_index of every idle window
    read: int  # the first read windows, and readout rows, are those open at readout
    angles: int  # how many RPHI angles there are
    leg: int  # a live qubit's leg size: 2 in an X/CNOT/DELAY circuit, else 4
    peak: int  # time order's largest tensor, in coefficients per row
    order: str  # "time" or "greedy"
    shapes: list  # each tensor's shape, or None to take it as it comes
    steps: list  # (i, j, perm_i, shape_i, perm_j, shape_j, shape) per step
    final: tuple  # the last tensor's axes in qubit order
    held: float  # what the order holds at once, in coefficients per row


def _exact_plan(scheduled: ScheduledCircuit) -> _ExactPlan:
    """The ``_ExactPlan`` of ``scheduled``'s layering, for a circuit that
    the exact engine runs: any circuit of up to 12 qubits, and a wider one
    that leaves the computational basis. A layering of X, CNOT, DELAY and
    MEASURE alone is classical: its live legs are the (r_I, r_Z) block, of
    size 2, and its gates and fresh columns the I/Z blocks of the full
    ones, which is what makes its exact law cheaper than its trajectories
    up to 12 qubits. One walk of its ``_idle_windows`` lists each gate's
    folding data and tracks time order's product, which has one axis per
    qubit: size 1 before the qubit's first gate, the leg size while it is
    live and 2 (its outcomes) after its last gate. The steps are time
    order's (``_left_fold``) unless that product would grow above
    _GREEDY_CROSSOVER coefficients per row; then they are greedy's
    (``_greedy_order``), and time order plans nothing."""
    n = scheduled.n_qubits
    leg = 2 if _classical(scheduled) else 4
    block, fresh_columns = _BLOCKS[leg], _FRESH[leg]
    identity = _IDENTITY[block, block]
    *layers, (windows, _) = _idle_windows(scheduled)
    # each gated qubit's window open at readout, which opens at its last gate
    read = {q: (k, j) for k, (q, _, j) in enumerate(windows)}
    sizes = [1] * n  # each qubit's axis size in time order's product
    gates, angle = [], 0  # the gates, and the index of the next RPHI's angle
    volume = peak = 1  # time order's product, in coefficients per row, and its largest
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
            fresh = fresh_columns.get(tuple([sizes[q] == 1 for q in op.qubits]))
            ins = [idle[q] for q in op.qubits if sizes[q] != 1]
            out, outs = 1, None  # per operand its readout rows' index or the identity
            for k, q in enumerate(op.qubits):
                if read[q][1] == i:  # the qubit's last gate: its outcomes leave it
                    outs = outs or [identity] * len(op.qubits)
                    outs[k], sizes[q] = read[q][0], 2
                else:
                    sizes[q] = leg
                out *= sizes[q]
            gates.append((gate, fresh, ins, outs, op.qubits))
            volume = volume // leg**len(ins) * out
            peak = max(peak, volume)
    never_gated = [q for q in range(n) if sizes[q] == 1]
    peak = max(peak, volume << len(never_gated))
    order = "greedy" if peak > _GREEDY_CROSSOVER else "time"
    steps = (_greedy_order if order == "greedy" else _left_fold)(gates, never_gated, n, leg)
    return _ExactPlan(gates, never_gated, _window_index(windows, n), len(read), angle, leg,
                      peak, order, *steps)


def _left_fold(gates: list[tuple], never_gated: list[int], n: int, leg: int) -> tuple:
    """Time order as ``(shapes, steps, final, held)`` of an ``_ExactPlan``
    on live legs of size ``leg``: a left fold, each tensor in turn, as it
    comes, times the product of all before it. The tensor's operands'
    axes, in operand order, are the inner dimension and the rest follow in
    qubit order; a readout pair is a gate that ends a fresh qubit. That
    transpose copies the product, so ``held`` is _DENSE_PEAK_COPIES x
    leg**n."""
    sizes, steps, last, volume = [-1] + [1] * n, [], None, 1  # -1, then each qubit's size
    axes = {}  # per operand tuple: a getter of the axes (0, operands, the rest), its inverse
    total = len(gates) + len(never_gated)  # step k's product is tensor total + k
    for _, _, ins, outs, qubits in gates + [(None, None, (), [0], (q,)) for q in never_gated]:
        inner, out = leg**len(ins), 1
        for q, m in zip(qubits, outs or qubits):
            sizes[q + 1] = 2 if outs is not None and type(m) is int else leg
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
    return [first] + [None] * (total - 1), steps, last, _DENSE_PEAK_COPIES * float(leg)**n


def _greedy_order(gates: list[tuple], never_gated: list[int], n: int, live: int) -> tuple:
    """A greedy pairwise order as ``(shapes, steps, final, held)`` of an
    ``_ExactPlan`` (opt_einsum's greedy path; Markov & Shi, SIAM J. Comput.
    38, 2008). A tensor's axes are its legs: a qubit's axis from one gate
    to its next (size ``live``), or its outcome (size 2); a gate puts out one leg
    per operand, then takes in those of its live operands. Of the pairs of
    live tensors that share a leg, contract the one whose product is
    smallest net of its operands (ties to the earlier pair), then multiply
    out what shares no leg, smallest first. Every folded gate is held from
    the first step on: ``held`` bounds every live tensor, a copy of each
    operand and the product, or three copies of the 2**n outcomes."""
    sizes, legs = [], []  # each leg's size; each tensor's legs behind the row axis
    last = [None] * n  # each qubit's latest leg, and the tensor it leaves
    pairs = set()  # the tensors that share a leg
    for *_, outs, qubits in gates:
        ins = [last[q] for q in qubits if last[q] is not None]
        pairs.update((k, len(legs)) for _, k in ins)
        new = list(range(len(sizes), len(sizes) + len(qubits)))
        sizes += [2 if outs is not None and type(m) is int else live for m in outs or qubits]
        for q, leg in zip(qubits, new):
            last[q] = leg, len(legs)
        legs.append(new + [leg for leg, _ in ins])
    for q in never_gated:
        last[q] = len(sizes), len(legs)
        legs.append([len(sizes)])
        sizes.append(2)
    shapes = [(-1, *[sizes[leg] for leg in t]) for t in legs]
    # a tensor's legs as the bits of a mask: two tensors' product keeps the
    # legs of their XOR, and its size is 2 ** (its legs plus its bonds)
    bonds = sum(1 << leg for leg, size in enumerate(sizes) if size == 4)
    masks = [sum(1 << leg for leg in t) for t in legs]

    def size(mask):
        return 1 << (mask.bit_count() + (mask & bonds).bit_count())

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
    return shapes, steps, final, max(peak, 3 * 2**n)


def _folded(rows, plan: _ExactPlan, windows, readouts, rphi):
    """Each gate's matrix over the rows, in time order: its PTM (or the
    rows' CNOT or RPHI PTMs) on the |0> columns of its fresh operands,
    after the windows it closes and before its readout rows."""
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
            s = functools.reduce(_kron, [readouts[m] if type(m) is int else m for m in outs]) @ s
        yield s


def _exact_probabilities(rows: list[tuple[ScheduledCircuit, DeviceCalibration]]) -> np.ndarray:
    """Exact outcome distributions over the 2**n basis states, readout error
    included, one per row ``(scheduled, cal)``: the ensemble averages that
    the bit-vector engine samples. The rows' schedules share one layering:
    they are one schedule or schedules bound from it (``bind``).

    Idle noise is charged once per idle window, which ``_idle_windows``
    shows is exact, and each window is applied in one product with the gate
    that closes it. A run prices its rows' windows in one ``_channel_rates``
    call, builds every window's PTM, readout rows and RPHI's PTM over
    (window or angle, row) and the CNOT's over rows, and gives every tensor
    a leading row axis: each gate indexes those arrays and folds its matrix
    (``_folded``) when a step first takes it, so that time order holds one
    folded gate at a time. One loop runs the steps of the layering's plan
    (``_exact_plan``), in either order, and the last tensor is the outcome
    distribution. Every row is the same, bit for bit, as a run of its
    schedule and calibration alone.

    In time order a superposed-control cnot-reset chain has every ancilla
    live at its turn, 2 x 4**(n - 1) coefficients per row (4 MiB at 10
    qubits); greedily, every folded gate is held at once, but the largest
    tensor is the 2**n outcomes (``_stacked_need`` gives measured peaks).
    A schedule of a fresh layering plans again, so circuits scheduled
    afresh for each call, as the wide chains run through the API are, pay
    their plan on every call."""
    scheduled = rows[0][0]
    plan = _kept(scheduled, _exact_plan)
    values, readout, rates = _priced_windows(rows, plan.index)
    windows = _idle_ptms(*rates)  # over (window, row)
    # a window open at readout ends in its qubit's readout flips, which keep
    # 1 - 2r of r_Z, and its (r_I, r_Z) rows then give the two outcomes
    windows[:plan.read, :, 3] *= (1.0 - 2.0 * readout[:plan.read])[..., None]
    readouts = _TO_POPULATIONS @ windows[:plan.read, :, ::3]
    block = _BLOCKS[plan.leg]
    windows, readouts = windows[..., block, block], readouts[..., block]
    rphi = _idle_ptms(0.0, 0.0, np.array([s.angles for s, _ in rows]).T) if plan.angles else None
    pairs = (np.stack([1.0 - values[:, 4 * q + 3], values[:, 4 * q + 3]], axis=1)[..., None]
             for q in plan.never_gated)  # 2 x 1 columns
    inputs = zip(itertools.count(), plan.shapes,
                 itertools.chain(_folded(rows, plan, windows, readouts, rphi), pairs))
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
    # what np.clip(..., 0.0, None) computes, without its Python wrapper
    np.maximum(probs, 0.0, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


_QUBIT_LIMIT = 63  # one bit per qubit of an int64 outcome, on either engine
# The time order's largest live tensor, in coefficients per row, above
# which the exact engine contracts greedily. Measured in one warm process
# (numpy 2.4, one BLAS thread, median of 21 runs, both orders planned in
# each run, as the API's fresh schedules planned them): superposed-control
# cnot-reset chains ran in time order / greedily in 0.72 / 0.93 ms at
# 8,192 (7 qubits), 1.08 / 1.13 at 32,768 (8), 4.01 / 1.19 at 131,072 (9)
# and 11.3 / 1.32 at 524,288 (10). Every structure the CLI subcommands
# build peaks at 4,096 or less; their 38 largest stacked calls took 38.3
# ms in time order and 55.8 ms greedily, plans built (31.7 and 33.1 ms on
# kept plans).
_GREEDY_CROSSOVER = 65536
# The widest X/CNOT/DELAY circuit that the exact engine runs; wider ones run
# as bit-vector trajectories. Measured per chain cell in one warm process
# (numpy 2.4, one BLAS thread, median of 15 alternating runs, each a chain
# shape's 4 orientations scheduled, planned, kept and drawn as run_cells
# runs them; the table is in BENCH_29.json): the exact engine was faster on
# all three strategies at 2-12 qubits and 1000, 4000 and 8000 shots, by
# 5-49% at 12 qubits, and at 13 qubits it was slower on none and x-reset at
# 1000 shots (488 and 608 us against 391 and 510) and on x-reset at 4000.
_EXACT_CLASSICAL_QUBITS = 12
_DENSE_PEAK_COPIES = 2.5
_CLASSICAL_PEAK_COPIES = 27
_MEMORY_BUDGET = 2 << 30  # a quarter of an 8 GiB machine
_PRICED_BYTES = 240  # per row, idle window and RPHI angle: its priced matrix and rates


def _bit_vector_plan(scheduled: ScheduledCircuit) -> tuple | None:
    """The kept ``_bit_plan`` of a circuit that the bit-vector engine runs,
    or None when the exact engine runs it: every circuit of at most
    _EXACT_CLASSICAL_QUBITS qubits, and every wider one that leaves the
    computational basis. A narrower circuit builds no bit-vector plan."""
    if scheduled.n_qubits <= _EXACT_CLASSICAL_QUBITS:
        return None
    return _kept(scheduled, _bit_plan)


def _stacked_need(scheduled: ScheduledCircuit) -> float:
    """Estimated peak bytes per row of a stacked exact run of ``scheduled``'s
    layering, in the order its plan records: 8 B x the plan's ``held``
    coefficients, 8 B x _DENSE_PEAK_COPIES x the entries of its own folded
    CNOT matrices (3 x leg**4), and _PRICED_BYTES for each idle window and
    RPHI angle, whose PTM (16 entries, of which a classical structure reads
    its I/Z block) and rates a run builds per row.

    tracemalloc peaks per row (numpy 2.4, stacks of 1-200 calibrations) in
    time order: all-live circuits took 12.3-19.1 KiB at 3 qubits (17
    windows and angles; the 4**n term alone would allow 12x too many rows),
    15.3-22.2 KiB at 4 (24), 2.39-2.50 copies of 8 B x 4**n at 6 and
    2.03-2.04 at 8, and 75.4-81.7 KiB on 3 qubits with 343 windows and
    angles; superposed-control cnot-reset chains, whose qubits are live
    only from their first gate to their last, 1.03-1.34 copies at 6-8
    qubits (42.8 KiB at 6) and, forced into time order, 1.00 at 10 and 12
    (8.0 MiB at 10). Greedily, those chains (stacks of 1 and 20) took
    31.0-36.1 KiB at 9 qubits against an estimate of 53.3, 35.0-40.6 at 10
    (57.2), 59.9-65.0 at 11 (72.1), 108.8-113.2 at 12 (121.1) and
    205.7-210.4 at 13 (218.0). On (r_I, r_Z) legs, in time order, 12-qubit
    chains (none, x-reset and cnot-reset, stacks of 1 and 4) took 71.1-78.4
    KiB against estimates of 86.3-91.0."""
    plan = _kept(scheduled, _exact_plan)
    return (8 * (plan.held + _DENSE_PEAK_COPIES * 3 * plan.leg**4)
            + _PRICED_BYTES * (plan.index.shape[1] + plan.angles))


def keep_distributions(rows: list[tuple[ScheduledCircuit, DeviceCalibration]]) -> None:
    """Compute what ``run_shots`` needs of every distinct row ``(scheduled,
    cal)`` in stacked passes, and keep each on its schedule, keyed by
    calibration: an exact circuit's outcome distribution, or a bit-vector
    circuit's windows' damping probabilities, all priced in one call. The
    engine is the one ``run_shots`` picks (``_bit_vector_plan``): every
    circuit of up to 12 qubits is exact, so a chain shape's orientations,
    which a bit-vector pass would only price, form one stacked exact pass
    on (r_I, r_Z) legs. The schedules are one schedule or schedules bound
    from it (``bind``). Each row is, bit for bit, what ``run_shots`` would
    compute for its schedule and calibration alone.

    Exact stacks are as large as the memory budget allows: ``_stacked_need``
    x rows within _MEMORY_BUDGET. Nothing is kept for an exact circuit that
    ``run_shots`` refuses or whose one row would exceed the budget
    (``run_shots`` then refuses it or runs it alone), for a calibration that
    does not cover the circuit, or when fewer than two distinct rows are
    left: stacking one gains nothing."""
    if len(rows) < 2:
        return
    n = rows[0][0].n_qubits
    rows = list({(id(scheduled), cal): (scheduled, cal) for scheduled, cal in rows
                 if cal.n_qubits >= n}.values())
    if len(rows) < 2:
        return
    if (plan := _bit_vector_plan(rows[0][0])) is not None:
        _, _, (gamma, _, _) = _priced_windows(rows, plan[2])
        for (scheduled, cal), damping in zip(rows, gamma.T.tolist()):
            scheduled.__dict__.setdefault("dampings", {})[cal] = damping
        return
    chunk = int(_MEMORY_BUDGET // _stacked_need(rows[0][0]))
    if chunk < 1 or _DENSE_PEAK_COPIES * 8 * 4.0**n > _MEMORY_BUDGET:
        return
    for i in range(0, len(rows), chunk):
        part = rows[i:i + chunk]
        for (scheduled, cal), probs in zip(part, _exact_probabilities(part)):
            scheduled.__dict__.setdefault("distributions", {})[cal] = probs


def run_shots(scheduled: ScheduledCircuit, cal: DeviceCalibration, shots: int,
              seed) -> dict[int, int]:
    """Noisy shot counts by outcome integer, qubit 0 the most significant
    bit; deterministic per (schedule, calibration, seed). The bit-vector
    engine runs X/CNOT/DELAY circuits of more than _EXACT_CLASSICAL_QUBITS
    qubits, and the exact engine every other circuit: at up to 12 qubits an
    X/CNOT/DELAY circuit's exact law, on (r_I, r_Z) legs, costs less per
    cell than its trajectories (``_bit_vector_plan``). An exact circuit
    draws from the distribution ``keep_distributions`` kept for ``cal`` on
    the schedule, and a bit-vector circuit uses the damping kept there,
    when there is one, or else computes it for ``cal`` alone; the two are
    equal, bit for bit, and so are the counts. A schedule bound
    from another (``bind``) runs as a fresh schedule of its circuit would.

    Raises SimulationError for a circuit above _QUBIT_LIMIT qubits, and,
    before pricing anything or allocating, when the engine's estimated peak
    memory exceeds _MEMORY_BUDGET: on the exact engine, unless it draws from
    a kept distribution (which ``keep_distributions`` computed within the
    budget), one row's ``_stacked_need``, in the order that runs, and never
    less than _DENSE_PEAK_COPIES x 8 B x the 4**n Pauli coefficients (so it
    runs up to 13 qubits in either order, at any shot count); on the
    bit-vector engine _CLASSICAL_PEAK_COPIES x 8 B x shots. ``_stacked_need``
    gives the exact engine's tracemalloc peaks (numpy 2.4); the bit-vector
    engine's were 6.9-10.7 copies for 20-qubit chain cells (none and cnot-reset
    along orientation 1) at 10**3-10**6 shots, up to 19.2 when every shot
    reads a distinct 62-bit outcome (readout error 0.45 at 2*10**4, 2*10**5
    and 10**6 shots: 14.9, 19.2, 17.2) and the returned dict dominates."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if seed is None:
        raise ValueError("seed must be given: counts are deterministic per seed")
    n = scheduled.n_qubits
    if cal.n_qubits < n:
        raise CalibrationError(f"calibration covers {cal.n_qubits} qubits, circuit needs {n}")
    if n > _QUBIT_LIMIT:
        raise SimulationError(f"circuits above {_QUBIT_LIMIT} qubits are not supported")
    if _bit_vector_plan(scheduled) is not None:
        engine, need = "bit-vector", _CLASSICAL_PEAK_COPIES * 8 * shots
    else:
        engine, kept = "exact", scheduled.__dict__.get("distributions")
        probs = kept.get(cal) if kept else None
        # drawing from a kept distribution computes nothing
        need = 0.0 if probs is not None else max(_DENSE_PEAK_COPIES * 8 * 4.0**n,
                                                 _stacked_need(scheduled))
    if need > _MEMORY_BUDGET:
        raise SimulationError(f"the {engine} engine would need about {need / 2**20:.0f} MiB "
                              f"for {n} qubits at {shots} shots, above the "
                              f"{_MEMORY_BUDGET / 2**20:.0f} MiB budget")
    if engine == "exact":
        if probs is None:
            probs = _exact_probabilities([(scheduled, cal)])[0]
        draws = np.random.default_rng([seed, 3]).multinomial(shots, probs)
        values = np.flatnonzero(draws)
        counts = draws[values]
    else:
        outcomes = _run_classical(scheduled, cal, shots, np.random.default_rng([seed, 1]))
        values, counts = np.unique(outcomes, return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))
