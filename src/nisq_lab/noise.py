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

  * circuits built purely from X/CNOT/Delay stay computational-basis states
    and run as vectorized bit-vector trajectories (up to 63 qubits, one bit
    each of an int64). Their gates and idle windows are listed in time
    order once per layering (``_bit_plan``); each run prices the windows'
    damping on its calibration, draws the events and applies them;
  * every other circuit runs on the exact engine, which holds the density
    matrix as its real Pauli coefficients, computes the outcome
    distribution once and draws a multinomial from it. Each single-qubit
    gate or CNOT (with its depolarizing channel) is one Pauli transfer
    matrix, indexed qubit by qubit so that channels on different qubits
    compose by kron, and the idle windows the gate closes are folded into
    it. A qubit's axis is live (4 coefficients) only from its first gate
    to its last: the first gate's matrix takes the qubit's |0> column, and
    the last one's ends in the qubit's readout rows (the (r_I, r_Z) rows of
    the window still open at readout, then the readout flips), so that the
    axis leaves it holding the qubit's two outcome probabilities. Window,
    gate and readout matrices are built once, in bounded memos. What
    depends on the layering alone is planned once (``_exact_plan``). A run
    takes a list of rows, each a schedule of that layering and a
    calibration: the tensor gets a leading row axis, each gate looks up
    every row's matrices, stacks those that differ, and applies one batched
    product.

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
placement of its circuit. The bit-vector plan, built on the first run,
also records which engine runs the circuit: it is None when an op leaves
the computational basis. ``keep_distributions`` computes the exact
distributions of a structure's (schedule, calibration) rows in stacked
passes and keeps each on its schedule, keyed by calibration, beside the
plans; ``run_shots`` draws from a kept distribution when there is one, so
each cell still makes its own ``run_shots`` call, with its own seed.

The bit-vector engine samples the ensemble average that the exact engine
computes. Both apply each qubit's idle charge (``_channel_rates``; the
bit-vector engine needs only its damping, ``_damping``) once per idle
window (from one gate on the qubit to its next gate, or to readout) for the
window's summed duration, which is the same channel as charging it layer
by layer (see ``_idle_windows``). The bit-vector engine draws the shots that
each damping window, depolarizing channel and readout flip hits, many events
at once, as running sums of Geometric(p) gaps (``_event_hits``: the same law
as per-shot trials), and touches only those rows.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field

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
        # the exact engine's memos hash params once per idle window: hash the
        # compared fields once, as the generated __hash__ would
        object.__setattr__(self, "_hash", hash((self.t1, self.t2, self.omega, self.readout_error)))

    def __hash__(self) -> int:
        return self._hash


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

def _damping(params: QubitNoiseParams, dt: float) -> float:
    """The jump probability 1 - exp(-dt/t1) of amplitude damping over dt."""
    if dt < 0:
        raise ValueError(f"negative interval dt={dt}")
    return 0.0 if not math.isfinite(params.t1) else 1.0 - math.exp(-dt / params.t1)


def _channel_rates(params: QubitNoiseParams, dt: float) -> tuple[float, float, float]:
    """(jump probability scale, phase-flip probability, drift angle) for dt."""
    gamma = _damping(params, dt)
    tphi = params.tphi
    pz = 0.0 if not math.isfinite(tphi) else 0.5 * (1.0 - math.exp(-dt / tphi))
    return gamma, pz, params.omega * dt


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


def _bit_plan(scheduled: ScheduledCircuit) -> tuple[list[tuple], list[tuple]] | None:
    """What ``_run_classical`` does on any values and calibration, as
    ``(steps, readouts)``, or None when an op leaves the computational basis
    (the exact engine then runs the circuit). A step is ``("decay", q, i, j,
    bits)`` for an idle window of ``ends[i] - ends[j]``, ``("X", mask)``, or
    ``("CNOT", shift, target mask, bits)``, in time order; ``readouts`` pairs
    each qubit with its bit. ``bits`` are what a noise event on the step
    flips."""
    if any(op.kind not in _CLASSICAL_KINDS for layer in scheduled.layers for op in layer.ops):
        return None
    n = scheduled.n_qubits
    bit = [(n - 1 - q,) for q in range(n)]  # shared by every event on qubit q
    steps = []
    for windows, ops in _idle_windows(scheduled):
        steps += [("decay", q, i, j, bit[q]) for q, i, j in windows]
        for op in ops:
            if op.kind == "X":
                steps.append(("X", 1 << (n - 1 - op.qubits[0])))
            elif op.kind == "CNOT":
                c, t = n - 1 - op.qubits[0], n - 1 - op.qubits[1]
                steps.append(("CNOT", c - t, 1 << t, (c, t)))
    return steps, list(enumerate(bit))


def _run_classical(scheduled: ScheduledCircuit, cal: DeviceCalibration, shots: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Bit-vector trajectories for circuits that stay in the computational
    basis: phase channels are unobservable there, damping is a plain decay
    flip, and depolarizing reduces to its X/Y bit-flip components.

    The gates and the places of noise events are planned once per
    ``ScheduledCircuit`` (``_bit_plan``). Each run prices the events on
    the schedule's windows and ``cal`` in time order, keeping those with
    p > 0, then draws their rows in batches (``_event_hits``) and applies
    gates and events in turn."""
    plan_steps, readouts = _kept(scheduled, _bit_plan)
    params, p2, ends = cal.qubits, cal.two_qubit_error, scheduled.ends
    steps, events = [], []  # the gates, and _DECAY or _FLIP where an event applies
    for step in plan_steps:
        if step[0] == "decay":
            gamma = _damping(params[step[1]], ends[step[2]] - ends[step[3]])
            if gamma > 0.0:
                # a hit excited bit decays to 0; a hit ground bit stays 0
                steps.append(_DECAY)
                events.append((gamma, step[4]))
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
# Each memo below builds its matrix once and returns it read-only. An idle
# window's PTM is written directly from the channel rates, and a qubit's
# readout rows are two of its window's PTM rows, mapped to outcomes. A gate,
# or a CNOT with its depolarizing channel, is written as a superoperator S
# on a qubit's (row bit, column bit) index of rho, where U rho U^dagger is
# kron(U, U*), and mapped to the PTM T S T^-1 (``_pauli_transfer``). The
# 156 survey cells close 6,648 windows at gates, with 550 distinct
# (params, dt) keys, and 576 at readout, with 187, of which 158 are new to
# the window memo (708 keys in all); they apply 4 distinct gates and read
# out 624 qubits. Full, the memos hold about 1.7 MiB: 1024 windows at
# 0.4-0.5 KiB, 1024 readout row pairs at 0.3 KiB, 256 gates at 0.4 KiB,
# 16 CNOTs at 2.3 KiB and 1024 axis permutations at up to 0.8 KiB each
# (13 qubits; tracemalloc, numpy 2.4).


def _read_only(m: np.ndarray) -> np.ndarray:
    m.setflags(write=False)
    return m


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices, or of stacks of them matched along their
    leading axis, by broadcasting: several times cheaper per call at these
    sizes."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], -1))


def _stacked(matrices: list[np.ndarray]) -> np.ndarray:
    """One matrix per calibration of a run, as a stack along a leading
    axis, or the matrix itself when every calibration shares it."""
    first = matrices[0]
    if len(matrices) == 1 or all(m is first for m in matrices):
        return first
    return np.array(matrices)


# Tr(P rho) = P^T.ravel() . rho.ravel(), and rho = sum_P r_P P / 2
_T = np.array([p.T.ravel() for p in (np.eye(2), PAULI_X, PAULI_Y, PAULI_Z)])
_T_INV = _T.conj().T / 2.0  # column P is P.ravel() / 2
_CX = np.eye(4)[[0, 1, 3, 2]]  # CNOT on (control, target); real, so CX* = CX
_NO_IDLE = _read_only(np.eye(4))
_ZERO = _read_only(np.array([[1.0], [0.0], [0.0], [1.0]]))  # |0><0| = (I + Z) / 2
_TO_POPULATIONS = np.array([[0.5, 0.5], [0.5, -0.5]])  # (r_I, r_Z) -> (P(0), P(1))


def _pauli_transfer(s: np.ndarray) -> np.ndarray:
    """The real PTM of a one- or two-qubit superoperator s."""
    t, t_inv = (_T, _T_INV) if len(s) == 4 else (_kron(_T, _T), _kron(_T_INV, _T_INV))
    return _read_only((t @ s @ t_inv).real.copy())


@functools.lru_cache(maxsize=1024)
def _idle_superop(params: QubitNoiseParams, dt: float) -> np.ndarray:
    """The PTM of a (qubit, dt) idle window, written directly: damping moves
    gamma of r_Z into r_I and keeps 1 - gamma of it, and the coherences
    (r_X, r_Y) shrink by a and turn by the drift angle. A window of dt = 0
    is the exact identity, as if it were not there."""
    if dt == 0.0:
        return _NO_IDLE
    gamma, pz, phase = _channel_rates(params, dt)
    a = math.sqrt(1.0 - gamma) * (1.0 - 2.0 * pz)
    cos, sin = a * math.cos(phase), a * math.sin(phase)
    return _read_only(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, cos, -sin, 0.0],
                                [0.0, sin, cos, 0.0], [gamma, 0.0, 0.0, 1.0 - gamma]]))


@functools.lru_cache(maxsize=256)
def _gate_superop(kind: str, angle: float) -> np.ndarray:
    """The PTM of a single-qubit gate, from kron(U, U*)."""
    u = gate_matrix(GateOp(kind, (0,), angle))
    return _pauli_transfer(_kron(u, u.conj()))


@functools.lru_cache(maxsize=16)
def _cnot_superop(p2: float) -> np.ndarray:
    """The PTM of a CNOT and then its two-qubit depolarizing channel, on the
    index (control Pauli, target Pauli)."""
    # (1 - lam) rho + lam Tr_ct(rho) (x) I/4, with lam = 16p/15, is the
    # average over the 15 non-identity Pauli pairs
    lam = 16.0 * p2 / 15.0
    vec_i = np.eye(4).reshape(16)
    s = ((1.0 - lam) * np.eye(16) + (lam / 4.0) * np.outer(vec_i, vec_i)) @ _kron(_CX, _CX)
    # from (row c, row t, column c, column t) to the qubit-by-qubit index
    s = s.reshape((2,) * 8).transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(16, 16)
    return _pauli_transfer(s)


@functools.lru_cache(maxsize=1024)
def _superop_axes(qubits: tuple[int, ...], n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The transpose that brings ``qubits``' axes to the front, behind the
    leading calibration axis 0 (qubit q is axis q + 1), and its inverse."""
    perm = (0,) + tuple(q + 1 for q in qubits) + tuple(
        a + 1 for a in range(n) if a not in qubits)
    return perm, tuple(sorted(range(n + 1), key=perm.__getitem__))


@functools.lru_cache(maxsize=1024)
def _readout_rows(params: QubitNoiseParams, dt: float) -> np.ndarray:
    """The 2 x 4 map from a qubit's Pauli coefficients after its last gate
    to its two readout outcomes: the (r_I, r_Z) rows of the idle window of
    dt still open at readout, which phase and drift leave alone, turned
    into populations, then the readout confusion."""
    r = params.readout_error
    confusion = np.array([[1.0 - r, r], [r, 1.0 - r]])
    return _read_only(confusion @ _TO_POPULATIONS @ _idle_superop(params, dt)[[0, 3]])


def _exact_plan(scheduled: ScheduledCircuit) -> tuple[list[tuple], list[tuple], list[tuple]]:
    """What ``_exact_probabilities`` does on any values and calibrations, as
    ``(gates, never_gated, spans)``. ``spans`` lists each idle window's
    ``(i, j)``, which lasts ``ends[i] - ends[j]``, and the plan refers to a
    window as ``(q, w)``: qubit q's ``spans[w]``. A gate is ``(gate, ins,
    outs, perm, inverse, shape)``: its PTM, None for a CNOT (whose PTM
    depends on the calibration) or, for an RPHI, the index of its angle in
    ``angles``; per operand, what its axis takes first (``_ZERO``, or the
    window the gate closes) and, at its last gate, the window of its
    readout rows, None when no operand has its last gate here
    (``_NO_IDLE`` stands for an operand that has not); the axis permutation
    and its inverse, both keeping the leading row axis first; and the
    permuted shape after the gate, -1 on the row axis. ``never_gated`` lists
    each ungated qubit with the broadcast shape of its readout pairs."""
    n = scheduled.n_qubits
    sizes = [1] * n  # each qubit's axis size
    *steps, (readout_windows, _) = _idle_windows(scheduled)
    spans = []

    def window(q, i, j):
        spans.append((i, j))
        return q, len(spans) - 1

    open_at_readout = {q: window(q, i, j) for q, i, j in readout_windows}
    gated = [op for _, ops in steps for op in ops if op.kind not in ("MEASURE", "DELAY")]
    last = {q: i for i, op in enumerate(gated) for q in op.qubits}  # each qubit's last gate
    gates = []
    angle = 0  # the index of the next RPHI's angle
    for windows, ops in steps:
        idle = {w[0]: window(*w) for w in windows}
        for op in ops:
            if op.kind in ("MEASURE", "DELAY"):
                continue
            ins = [idle[q] if sizes[q] == 4 else _ZERO for q in op.qubits]
            for q in op.qubits:
                sizes[q] = 2 if last[q] == len(gates) else 4
            outs = [open_at_readout[q] if sizes[q] == 2 else _NO_IDLE for q in op.qubits]
            perm, inverse = _superop_axes(op.qubits, n)
            if op.kind == "CNOT":
                gate = None
            elif op.kind == "RPHI":
                gate, angle = angle, angle + 1
            else:
                gate = _gate_superop(op.kind, op.angle)
            # outs[0] and outs[-1] cover one qubit or both of a CNOT's
            gates.append((gate, ins,
                          outs if outs[0] is not _NO_IDLE or outs[-1] is not _NO_IDLE else None,
                          perm, inverse, [sizes[a - 1] if a else -1 for a in perm]))
    never_gated = [(q, (-1,) + (1,) * q + (2,) + (1,) * (n - 1 - q))
                   for q in range(n) if sizes[q] == 1]
    return gates, never_gated, spans


def _exact_probabilities(rows: list[tuple[ScheduledCircuit, DeviceCalibration]]) -> np.ndarray:
    """Exact outcome distributions over the 2**n basis states, readout error
    included, one per row ``(scheduled, cal)``: the ensemble averages that
    the bit-vector engine samples. The rows' schedules share one layering:
    they are one schedule or schedules bound from it (``bind``).

    Idle noise is charged once per idle window, which ``_idle_windows``
    shows is exact, and each window is applied in one product with the gate
    that closes it. Qubit q's axis of the coefficient tensor holds only
    what is still needed of it: size 1 before its first gate, where it is
    |0> and no idle time is charged, so that gate takes the |0> column
    (``_ZERO``); size 4 while it is live; and size 2 after its last gate,
    whose matrix ends in q's readout rows (``_readout_rows``), so that the
    axis holds q's two outcome probabilities. A qubit no gate touches reads
    [1 - r, r]. The final tensor is the outcome distribution in qubit order.

    That bookkeeping depends on the layering alone: it is planned
    (``_exact_plan``) on the first exact run of a ``ScheduledCircuit`` and
    shared by every schedule bound from it, so each later run, on any
    values and calibrations, only computes each row's window durations from
    its ``ends``, looks up the memoized matrices of each row's windows,
    angles and qubits, and applies the products. The tensor carries a
    leading axis over the rows, and each gate is one batched product over
    it: a matrix that every row shares stays one matrix and broadcasts, and
    the others are stacked (``_stacked``). Every row is the same, bit for
    bit, as a run of its schedule and calibration alone.

    A gate whose operands are all live costs one product over the whole
    tensor, and a reshape that moves its axes to the front copies the
    tensor first: all-live circuits peak at 2.00-2.01 copies of 8 B x 4**n
    per row (tracemalloc, numpy 2.4, 8-12 qubits, one row). Circuits whose
    qubits join late and leave early peak lower: the superposed-control
    cnot-reset chains of 8-12 qubits never hold more than 4**(n-1) x 2
    coefficients per row, and peak at 1.00-1.01 copies (8.0 MiB at 10
    qubits, against 16.0 MiB with every axis held at size 4). That peak
    holds per row of a stack, which also holds each row's own matrices
    (``_stacked_need``).
    """
    gates, never_gated, spans = _kept(rows[0][0], _exact_plan)
    params = [cal.qubits for _, cal in rows]
    angles = [scheduled.angles for scheduled, _ in rows]
    durations = {}  # each distinct ends' window durations, in spans order
    for scheduled, _ in rows:
        ends = scheduled.ends
        if id(ends) not in durations:
            durations[id(ends)] = [ends[i] - ends[j] for i, j in spans]
    windows = [(cal.qubits, durations[id(scheduled.ends)]) for scheduled, cal in rows]
    cnot = None  # looked up at the first CNOT
    rho = np.ones((len(rows),) + (1,) * rows[0][0].n_qubits)
    # a plan entry is a constant matrix or a (q, w) window
    for gate, ins, outs, perm, inverse, shape in gates:
        if gate is None:
            if cnot is None:
                cnot = _stacked([_cnot_superop(cal.two_qubit_error) for _, cal in rows])
            gate = cnot
        elif type(gate) is int:
            gate = _stacked([_gate_superop("RPHI", a[gate]) for a in angles])
        s = gate @ functools.reduce(_kron, [_stacked([_idle_superop(p[m[0]], dt[m[1]])
                                                      for p, dt in windows])
                                            if type(m) is tuple else m for m in ins])
        if outs is not None:
            s = functools.reduce(_kron, [_stacked([_readout_rows(p[m[0]], dt[m[1]])
                                                   for p, dt in windows])
                                         if type(m) is tuple else m for m in outs]) @ s
        # the reshape copies rho unless perm keeps its order; rebinding
        # rho frees the old state before the product allocates its own
        rho = rho.transpose(perm).reshape(len(rows), s.shape[-1], -1)
        rho = (s @ rho).reshape(shape).transpose(inverse)
    for q, shape in never_gated:
        rho = rho * np.array([[1.0 - p[q].readout_error, p[q].readout_error]
                              for p in params]).reshape(shape)
    # what np.clip(..., 0.0, None) computes, without its Python wrapper
    probs = np.maximum(rho.reshape(len(rows), -1), 0.0)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


_QUBIT_LIMIT = 63  # one bit per qubit of an int64 outcome, on either engine
_DENSE_PEAK_COPIES = 2.5
_CLASSICAL_PEAK_COPIES = 27
_MEMORY_BUDGET = 2 << 30  # a quarter of an 8 GiB machine
def _stacked_need(n: int) -> float:
    """Estimated peak bytes per row of a stacked exact run on n qubits:
    _DENSE_PEAK_COPIES x 8 B x its 4**n coefficients and the entries of its
    own folded CNOT matrices (3 x 16 x 16). tracemalloc peaks per row
    (numpy 2.4, stacks of 1-200 calibrations on an all-live circuit) were
    7.8-8.6 KiB at 3 qubits, 9.6-9.9 KiB at 4, 2.10-2.18 copies at 6 and
    2.01 at 8; the 4**n term alone would allow 6x too many rows at 3
    qubits."""
    return _DENSE_PEAK_COPIES * 8 * (4.0**n + 3 * 4**4)


def keep_distributions(rows: list[tuple[ScheduledCircuit, DeviceCalibration]]) -> None:
    """Compute the exact outcome distribution of every distinct row
    ``(scheduled, cal)`` in stacked passes, and keep each on its schedule,
    keyed by calibration, for ``run_shots`` to draw from. The schedules are
    one schedule or schedules bound from it (``bind``). Each row is the one
    ``run_shots`` would compute for its schedule and calibration alone.

    Stacks are as large as the memory budget allows: ``_stacked_need(n)``
    x rows within _MEMORY_BUDGET. Nothing is kept for a bit-vector
    circuit, for a circuit whose one row would exceed the budget
    (``run_shots`` then runs it alone, or refuses it), for a calibration that
    does not cover the circuit, or when fewer than two distinct rows are
    left: stacking one gains nothing."""
    if len(rows) < 2:
        return
    n = rows[0][0].n_qubits
    chunk = int(_MEMORY_BUDGET // _stacked_need(n))
    rows = list({(id(scheduled), cal): (scheduled, cal) for scheduled, cal in rows
                 if cal.n_qubits >= n}.values())
    if chunk < 1 or len(rows) < 2 or _kept(rows[0][0], _bit_plan) is not None:
        return
    for i in range(0, len(rows), chunk):
        part = rows[i:i + chunk]
        for (scheduled, cal), probs in zip(part, _exact_probabilities(part)):
            scheduled.__dict__.setdefault("distributions", {})[cal] = probs


def run_shots(scheduled: ScheduledCircuit, cal: DeviceCalibration, shots: int,
              seed) -> dict[int, int]:
    """Noisy shot counts by outcome integer, qubit 0 the most significant
    bit; deterministic per (schedule, calibration, seed). An exact circuit
    draws from the distribution ``keep_distributions`` kept for ``cal`` on
    the schedule, when there is one, or else computes it for ``cal`` alone;
    the two are equal, bit for bit, and so are the counts. A schedule bound
    from another (``bind``) runs as a fresh schedule of its circuit would.

    Raises SimulationError for a circuit above _QUBIT_LIMIT qubits, and
    before allocating when the engine's estimated peak memory exceeds
    _MEMORY_BUDGET: _DENSE_PEAK_COPIES x 8 B x the 4**n Pauli coefficients
    on the exact engine (so it runs up to 13 qubits, at any shot count), or
    _CLASSICAL_PEAK_COPIES x 8 B x shots on the bit-vector engine.
    tracemalloc peaks (numpy 2.4) on the exact engine were 2.00-2.01 copies
    of the 4**n coefficients for circuits that gate every qubit before any
    qubit's last gate (8-12 qubits), and 1.00-1.01 for superposed-control
    cnot-reset chains of 8-12 qubits (8.0 MiB at 10), whose qubits are live
    only from their first gate to their last; on the bit-vector engine
    they were 6.9-10.7 copies for 20-qubit chain cells (none and cnot-reset
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
    if _kept(scheduled, _bit_plan) is not None:
        engine, need = "bit-vector", _CLASSICAL_PEAK_COPIES * 8 * shots
    else:
        engine, need = "exact", _DENSE_PEAK_COPIES * 8 * 4.0**n
    if need > _MEMORY_BUDGET:
        raise SimulationError(f"the {engine} engine would need about {need / 2**20:.0f} MiB "
                              f"for {n} qubits at {shots} shots, above the "
                              f"{_MEMORY_BUDGET / 2**20:.0f} MiB budget")
    if engine == "exact":
        kept = scheduled.__dict__.get("distributions")
        probs = kept.get(cal) if kept else None
        if probs is None:
            probs = _exact_probabilities([(scheduled, cal)])[0]
        draws = np.random.default_rng([seed, 3]).multinomial(shots, probs)
        values = np.flatnonzero(draws)
        counts = draws[values]
    else:
        outcomes = _run_classical(scheduled, cal, shots, np.random.default_rng([seed, 1]))
        values, counts = np.unique(outcomes, return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))
