"""Scheduling, idle channels, the exact engine and its score law, and calibration files."""
import hashlib
import importlib.util
import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nisq_lab import builders, noise, topology
from nisq_lab.experiments import _FULL_LAW_QUBITS
from nisq_lab.fitting import score_masks
from nisq_lab.noise import (
    _channel_rates,
    _exact_probabilities,
    _idle_windows,
    CalibrationError,
    DeviceCalibration,
    DurationModel,
    QubitNoiseParams,
    SimulationError,
    calibration_from_dict,
    derive_tphi,
    load_calibration,
    run_shots,
    schedule,
)
from nisq_lab.simulator import TAU, Circuit, GateOp

from calibrations import flat_cal
from oracles import classical_outcome_probabilities, final_state, kraus_outcome_probabilities

INF = math.inf


# ---------------------------------------------------------------------------
# derive_tphi
# ---------------------------------------------------------------------------

def test_tphi_pure_dephasing_limit():
    assert derive_tphi(INF, 50e-6) == pytest.approx(50e-6)


def test_tphi_t1_limited():
    assert derive_tphi(40e-6, 80e-6) == INF


def test_tphi_arithmetic():
    assert derive_tphi(100e-6, 80e-6) == pytest.approx(133.333333e-6, rel=1e-6)


def test_tphi_rejects_unphysical():
    with pytest.raises(CalibrationError):
        derive_tphi(40e-6, 81e-6)
    with pytest.raises(CalibrationError):
        QubitNoiseParams(t1=40e-6, t2=81e-6)


# ---------------------------------------------------------------------------
# Scheduling
# ---------------------------------------------------------------------------

def test_disjoint_ops_share_layer():
    sched = schedule(Circuit(2).x(0).x(1), DurationModel())
    assert len(sched.layers) == 1
    assert sched.layers[0].duration == pytest.approx(100e-9)


def test_shared_qubit_serializes():
    sched = schedule(Circuit(2).x(0).cnot(0, 1), DurationModel())
    assert len(sched.layers) == 2
    assert [l.duration for l in sched.layers] == pytest.approx([100e-9, 300e-9])


def test_chain_layers_hand_schedule():
    # X on the control, then three CNOTs down a 4-qubit path serialize
    c = Circuit(4).x(0).cnot(0, 1).cnot(1, 2).cnot(2, 3)
    sched = schedule(c, DurationModel())
    assert len(sched.layers) == 4
    assert [len(l.ops) for l in sched.layers] == [1, 1, 1, 1]


def test_measures_form_single_final_layer():
    c = Circuit(3).x(0).cnot(0, 1).measure(0).measure(1).measure(2)
    sched = schedule(c, DurationModel())
    assert [op.kind for op in sched.layers[-1].ops] == ["MEASURE"] * 3
    assert sched.layers[-1].duration == pytest.approx(1e-6)


def test_layer_duration_is_max_member():
    c = Circuit(3).x(2).cnot(0, 1)
    sched = schedule(c, DurationModel())
    assert len(sched.layers) == 1
    assert sched.layers[0].duration == pytest.approx(300e-9)


@st.composite
def small_circuits(draw):
    n = draw(st.integers(2, 4))
    c = Circuit(n)
    for _ in range(draw(st.integers(1, 10))):
        if draw(st.booleans()):
            q = draw(st.integers(0, n - 1))
            c.x(q)
        else:
            a = draw(st.integers(0, n - 1))
            b = draw(st.integers(0, n - 2))
            c.cnot(a, b if b < a else b + 1)
    return c


@given(small_circuits())
@settings(max_examples=30, deadline=None)
def test_flattened_schedule_preserves_per_qubit_order(c):
    sched = schedule(c, DurationModel())
    flat = [op for layer in sched.layers for op in layer.ops]
    for q in range(c.n_qubits):
        original = [op for op in c.ops if q in op.qubits]
        scheduled = [op for op in flat if q in op.qubits]
        assert original == scheduled


# ---------------------------------------------------------------------------
# Idle channel
# ---------------------------------------------------------------------------

def _rates(params: QubitNoiseParams, dt) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_channel_rates`` of one qubit over an array of intervals."""
    dt = np.asarray(dt, dtype=float)
    return _channel_rates(*(np.full(dt.shape, v) for v in (params.t1, params.tphi,
                                                           params.omega)), dt)


def test_idle_zero_interval_is_identity():
    rates = _rates(QubitNoiseParams(30e-6, 40e-6, omega=1e6), [0.0])
    assert [r.tolist() for r in rates] == [[0.0], [0.0], [0.0]]
    assert np.array_equal(noise._idle_ptms(*rates), np.eye(4)[None])


def test_idle_negative_interval_rejected():
    # both engines price their windows through _channel_rates
    with pytest.raises(ValueError, match="negative interval"):
        _rates(QubitNoiseParams(30e-6, 40e-6), [1e-6, -1.0])


def _superoperator_ptm(gamma: float, pz: float, phase: float) -> np.ndarray:
    """An idle window's PTM by the superoperator route: amplitude damping's
    Kraus pair, the phase flip and the drift rotation, each as a
    superoperator on a qubit's (row bit, column bit) index of rho."""
    def superop(k):
        return np.kron(k, k.conj())
    damping = (superop(np.diag([1.0, math.sqrt(1.0 - gamma)]))
               + superop(np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]])))
    flip = (1.0 - pz) * np.eye(4) + pz * superop(np.diag([1.0, -1.0]))
    drift = superop(np.diag([1.0, np.exp(1j * phase)]))
    return noise._pauli_transfer(drift @ flip @ damping)


def test_array_built_matrices_equal_the_superoperator_route():
    """The windows', RPHI gates' and CNOTs' PTMs that the exact engine
    builds as arrays equal the PTMs of their superoperators within 1e-15:
    random rates and angles give the window and RPHI matrices, and random
    p the CNOT followed by (1 - lam) rho + lam Tr(rho) I/4, lam = 16p/15.
    Null t1 and t2 price zero damping and dephasing, and dt = 0 is the exact
    identity."""
    rng = np.random.default_rng(5)
    gamma, pz = rng.uniform(0.0, 1.0, 40), rng.uniform(0.0, 0.5, 40)
    phase = rng.uniform(-math.pi, math.pi, 40)
    for k, m in enumerate(noise._idle_ptms(gamma, pz, phase)):
        assert np.abs(m - _superoperator_ptm(gamma[k], pz[k], phase[k])).max() <= 1e-15
    for angle, m in zip(phase, noise._idle_ptms(0.0, 0.0, phase)):
        u = np.diag([1.0, np.exp(1j * angle)])
        assert np.abs(m - noise._pauli_transfer(np.kron(u, u.conj()))).max() <= 1e-15
    cx = np.eye(4)[[0, 1, 3, 2]]
    p2 = rng.uniform(0.0, 1.0, 20)
    for p, m in zip(p2, noise._cnot_ptms(p2, 4)):
        lam = 16.0 * p / 15.0
        vec_i = np.eye(4).reshape(16)
        s = ((1.0 - lam) * np.eye(16) + (lam / 4.0) * np.outer(vec_i, vec_i)) @ np.kron(cx, cx)
        s = s.reshape((2,) * 8).transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(16, 16)
        assert np.abs(m - noise._pauli_transfer(s)).max() <= 1e-15
    null = QubitNoiseParams(INF, INF, omega=2e6)
    gamma, pz, phase = _rates(null, [0.0, 1e-6, 1.0])
    assert gamma.tolist() == pz.tolist() == [0.0, 0.0, 0.0]
    assert phase.tolist() == [0.0, 2.0, 2e6]
    for params in (null, QubitNoiseParams(30e-6, 40e-6, omega=-1e6)):
        assert np.array_equal(noise._idle_ptms(*_rates(params, [0.0])), np.eye(4)[None])


def test_drift_rotation_exact():
    # |+> with omega*dt = pi, then H: P(|0>) = cos^2(pi/2) = 0; zero gate and
    # readout durations leave the delay as the only idle time
    dt = 1e-6
    cal = flat_cal(1, omega=math.pi / dt,
                   durations=DurationModel(single_qubit=0.0, measurement=0.0))
    c = Circuit(1).h(0).delay(dt, 0).h(0).measure(0)
    assert run_shots(schedule(c, cal.durations), cal, 1000, 0) == {1: 1000}


def test_survival_curve_matches_exponential():
    t1 = 40e-6
    cal = flat_cal(1, t1=t1, t2=2 * t1, durations=DurationModel(measurement=0.0))
    shots = 20000
    for frac in (0.0, 0.5, 1.0, 2.0, 3.0):
        dt = frac * t1
        c = Circuit(1).x(0)
        if dt > 0:
            c.delay(dt, 0)
        c.measure(0)
        counts = run_shots(schedule(c, cal.durations), cal, shots, 99)
        expected = math.exp(-frac)
        sigma = math.sqrt(max(expected * (1 - expected), 1e-9) / shots)
        assert abs(counts.get(1, 0) / shots - expected) <= 5 * sigma


# ---------------------------------------------------------------------------
# Noisy shot engine
# ---------------------------------------------------------------------------

def test_noiseless_limit_matches_sample_shots_deterministic():
    cal = flat_cal(3)
    c = Circuit(3).x(0).cnot(0, 1).cnot(1, 2).measure(0).measure(1).measure(2)
    counts = run_shots(schedule(c, cal.durations), cal, 400, 5)
    assert counts == {0b111: 400}


def test_noiseless_limit_matches_sample_shots_distribution():
    cal = flat_cal(2)
    c = Circuit(2).h(0).cnot(0, 1).measure(0).measure(1)
    counts = run_shots(schedule(c, cal.durations), cal, 8000, 5)
    ideal = np.abs(final_state(Circuit(2).h(0).cnot(0, 1))) ** 2
    support = {i for i, p in enumerate(ideal) if p > 1e-12}
    assert set(counts) == support == {0b00, 0b11}
    sigma = math.sqrt(0.25 / 8000)
    assert abs(counts[0b11] / 8000 - 0.5) < 5 * sigma


def test_echo_refocuses_pure_drift_exactly():
    cal = flat_cal(1, omega=2 * math.pi * 0.25e6)
    for dt in (1e-6, 8e-6, 21e-6):
        c = Circuit(1).h(0).delay(dt / 2, 0).x(0).delay(dt / 2, 0).h(0).measure(0)
        counts = run_shots(schedule(c, cal.durations), cal, 2000, 3)
        assert counts == {0: 2000}


def test_ramsey_damped_cosine_closed_form():
    t2 = 40e-6
    omega = 2 * math.pi * 0.1e6
    cal = flat_cal(1, t1=INF, t2=t2, omega=omega)
    shots = 20000
    for dt in (0.0, 4e-6, 9e-6, 15e-6, 26e-6):
        c = Circuit(1).h(0)
        if dt > 0:
            c.delay(dt, 0)
        c.h(0).measure(0)
        counts = run_shots(schedule(c, cal.durations), cal, shots, 17)
        # the superposition also evolves during the 100 ns pre-H layer
        tau = dt + 100e-9
        expected = 0.5 * (1 + math.exp(-tau / t2) * math.cos(omega * tau))
        sigma = math.sqrt(max(expected * (1 - expected), 1e-9) / shots)
        assert abs(counts.get(0, 0) / shots - expected) <= 5 * sigma


def test_seed_determinism():
    cal = flat_cal(2, t1=30e-6, t2=40e-6, p2=0.02, readout=0.01)
    c = Circuit(2).x(0).cnot(0, 1).measure(0).measure(1)
    sched = schedule(c, cal.durations)
    assert run_shots(sched, cal, 1000, 42) == run_shots(sched, cal, 1000, 42)
    assert run_shots(sched, cal, 1000, 42) != run_shots(sched, cal, 1000, 43)


@st.composite
def noisy_cells(draw, max_qubits, kinds=("H", "T", "S", "RPHI", "X", "DELAY"), max_ops=10):
    """A random scheduled circuit over ``kinds`` (CNOT added when n > 1) with
    a random calibration: finite or infinite T1/T2, drift, readout and CNOT
    errors."""
    n = draw(st.integers(1, max_qubits))
    qubits = []
    for _ in range(n):
        t1 = draw(st.one_of(st.just(INF), st.floats(5e-6, 100e-6)))
        if math.isfinite(t1):
            t2 = draw(st.floats(0.05, 1.0)) * 2 * t1
        else:
            t2 = draw(st.one_of(st.just(INF), st.floats(5e-6, 100e-6)))
        qubits.append(QubitNoiseParams(
            t1=t1, t2=t2,
            omega=draw(st.floats(-2 * math.pi * 1e6, 2 * math.pi * 1e6)),
            readout_error=draw(st.floats(0.0, 0.3)),
        ))
    cal = DeviceCalibration(tuple(qubits), DurationModel(), draw(st.floats(0.0, 0.5)))
    kinds = list(kinds) + (["CNOT"] if n > 1 else [])
    c = Circuit(n)
    for _ in range(draw(st.integers(1, max_ops))):
        kind = draw(st.sampled_from(kinds))
        q = draw(st.integers(0, n - 1))
        if kind == "CNOT":
            other = draw(st.integers(0, n - 2))
            c.cnot(q, other if other < q else other + 1)
        elif kind == "RPHI":
            c.rphi(draw(st.floats(-math.pi, math.pi)), q)
        elif kind == "DELAY":
            c.delay(draw(st.floats(0.0, 20e-6)), q)
        else:
            c.add(GateOp(kind, (q,)))
    c.measure_all()
    return schedule(c, cal.durations), cal


# A fixed case that sees the direction of the drift: 1.2 us of drift at
# 0.3 MHz (the delay plus the T and H layers) and T's pi/4 turn |+> the same
# way, by nearly pi, so P(0) is about 0.0022; drift the other way gives 0.547.
_DRIFT_SIGN_CAL = flat_cal(1, omega=TAU * 0.3e6)


def _survey_cell(placement, variant):
    """A shipped CCNOT cell as the survey runs it: controls prepared in |1>,
    the compact circuit, every qubit measured, on the calibration of its
    placement."""
    built = builders.ccnot_on_geometry(placement, variant)
    target = built.layout.index(placement.target)
    prep = [GateOp("X", (q,)) for q in range(len(placement.computational)) if q != target]
    cal = noise.default_calibration().subset(built.layout)
    circuit = Circuit(built.circuit.n_qubits, prep + built.circuit.ops).measure_all()
    return schedule(circuit, cal.durations), cal


def _wide_chain_cell(width):
    """A superposed-control cnot-reset chain along orientation 1 on the
    shipped calibration, as the wide-dense benchmark workload runs it."""
    path = topology.chain_paths(topology.shipped_poughkeepsie(), 1)[:width]
    built = builders.cnot_chain(path, "cnot-reset", control_in_superposition=True)
    circuit = Circuit(width, [GateOp("H", (0,))] + built.circuit.ops).measure_all()
    cal = noise.default_calibration().subset(built.layout)
    return schedule(circuit, cal.durations), cal


_STAR4 = topology.star_variants(topology.enumerate_stars(topology.shipped_poughkeepsie())[0])[0]
_RING6 = topology.ring_placements(topology.shipped_poughkeepsie(), "ring6-3chain")[0]


# Each qubit's own T1, T2, drift and readout error, so that a qubit's
# readout rows or idle windows charged to another qubit show.
_LIVE_AXIS_CAL = DeviceCalibration(
    tuple(QubitNoiseParams(t1=(20 + 10 * q) * 1e-6, t2=(30 + 14 * q) * 1e-6,
                           omega=TAU * (0.1 + 0.05 * q) * 1e6, readout_error=0.02 + 0.03 * q)
          for q in range(3)),
    DurationModel(), 0.03)


def _live_axis_cell(circuit):
    return schedule(circuit.measure_all(), _LIVE_AXIS_CAL.durations), _LIVE_AXIS_CAL


@given(noisy_cells(max_qubits=3))
@example((schedule(Circuit(1).h(0).delay(1e-6, 0).t(0).h(0).measure(0),
                   _DRIFT_SIGN_CAL.durations), _DRIFT_SIGN_CAL))
@example(_survey_cell(_STAR4, "star4-cnot-reset"))  # 33 ops on 4 qubits
@example(_survey_cell(_RING6, "ring6-3chain"))
@example(_wide_chain_cell(6))
# the exact engine's axis bookkeeping: q1 is never gated but has readout error
@example(_live_axis_cell(Circuit(3).h(0).cnot(0, 2).t(2)))
# q1's one H both activates and finishes it, 4.1 us before readout
@example(_live_axis_cell(Circuit(3).h(1).h(0).delay(3e-6, 0).h(0).x(2)))
# the CNOT activates its target q2 and finishes its control q0
@example(_live_axis_cell(Circuit(3).h(0).t(0).x(1).cnot(0, 2).h(2).cnot(1, 2)))
# q0: gate, 15 us delay, gate, while q1 and q2 finish
@example(_live_axis_cell(Circuit(3).h(0).x(2).cnot(0, 1).h(1).delay(15e-6, 0).h(0)))
# q0, not the highest index, finishes last
@example(_live_axis_cell(Circuit(3).h(2).cnot(2, 1).cnot(1, 0).t(0).h(0)))
@example(_wide_chain_cell(7))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_exact_engine_matches_kraus_oracle(cell):
    sched, cal = cell
    sched = replace(sched)  # a new object: its plan is built on the first call
    [cold] = _exact_probabilities([(sched, cal)])
    [warm] = _exact_probabilities([(sched, cal)])
    oracle = kraus_outcome_probabilities(sched, cal)
    assert np.max(np.abs(cold - oracle)) <= 1e-12
    assert np.array_equal(warm, cold)


def test_one_schedule_runs_on_every_placement_like_fresh_schedules():
    """The plan kept on a ScheduledCircuit holds nothing of a calibration:
    one schedule run on two placements' calibrations, in either order,
    gives what each placement's own fresh schedule gives."""
    stars = topology.enumerate_stars(topology.shipped_poughkeepsie())[:2]
    cells = [_survey_cell(topology.star_variants(star)[0], "star4-cnot-reset") for star in stars]
    (sched, cal_a), (sched_b, cal_b) = cells
    assert sched == sched_b and cal_a != cal_b  # one local circuit, two calibrations
    fresh = [_exact_probabilities([(s, c)])[0] for s, c in cells]  # each on its own schedule
    assert not np.array_equal(*fresh)
    for order in ((0, 1), (1, 0)):
        shared = replace(sched)
        for i in order:
            assert np.array_equal(_exact_probabilities([(shared, cells[i][1])])[0], fresh[i])


def _bound_kraus_circuit(angle0, delay, angle2):
    """Three qubits with an RPHI on q0, a delay on q1 that shares its layer
    with two H gates, and an RPHI on q2."""
    return Circuit(3).h(0).rphi(angle0, 0).delay(delay, 1).x(1).cnot(0, 1).h(2).rphi(
        angle2, 2).cnot(2, 1).h(0).measure_all()


def test_bound_schedule_matches_kraus_oracle_of_its_circuit():
    """A schedule bound with new delays and angles gives, within 1e-12, the
    Kraus oracle's distribution of a fresh schedule of the circuit built
    with those values, as the oracle of the bound schedule does, and bit
    for bit what that fresh schedule gives; a
    stack of the source and its bound schedules gives each row its own. A
    delay shorter than its layer's gates keeps the gates' duration, and no
    bound schedule plans again."""
    cal = _LIVE_AXIS_CAL
    sched = schedule(_bound_kraus_circuit(0.3, 2e-6, -1.0), cal.durations)
    assert [kind for kind, *_ in sched.slots] == ["RPHI", "DELAY", "RPHI"]
    rows = [(sched, cal)]
    for values in ((2.5, 7e-6, 4.0), (-0.3, 0.0, 7.0), (0.3, 50e-9, -1.0)):
        bound = noise.bind(sched, values)
        assert bound.layers is sched.layers
        fresh = schedule(_bound_kraus_circuit(*values), cal.durations)
        assert (bound.ends, bound.angles) == (fresh.ends, fresh.angles)
        [got] = _exact_probabilities([(bound, cal)])
        oracle = kraus_outcome_probabilities(fresh, cal)
        assert np.max(np.abs(got - oracle)) <= 1e-12
        assert np.max(np.abs(kraus_outcome_probabilities(bound, cal) - oracle)) <= 1e-12
        assert np.array_equal(got, _exact_probabilities([(fresh, cal)])[0])
        assert noise._kept(bound, 2) is noise._kept(sched, 2)
        rows.append((bound, cal))
    stacked = _exact_probabilities(rows)
    for row, (scheduled, _) in zip(stacked, rows):
        assert np.array_equal(row, _exact_probabilities([(replace(scheduled), cal)])[0])


def test_binding_the_wrong_number_of_values_raises():
    """bind takes one value per DELAY and RPHI of the circuit, in op order,
    and refuses a delay that GateOp would refuse; a circuit with nothing to
    bind binds to itself."""
    sched = schedule(Circuit(1).h(0).delay(1e-6, 0).rphi(0.5, 0).measure_all(), DurationModel())
    for values in ((), (1e-6,), (1e-6, 0.5, 0.1)):
        with pytest.raises(ValueError, match="binds 2 DELAY durations and RPHI angles, got"):
            noise.bind(sched, values)
    for delay in (-1e-6, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite non-negative duration"):
            noise.bind(sched, (delay, 0.5))
    with pytest.raises(ValueError, match="must be finite"):
        noise.bind(sched, (1e-6, math.nan))
    plain = schedule(Circuit(1).h(0).measure_all(), DurationModel())
    assert noise.bind(plain, ()) is plain


def test_calibration_subsets_hash_once_and_key_dicts():
    """Equal subsets, taken apart or built from equal parts, hash equal, as
    the dataclass's own hash of the compared fields would, and find each
    other as dict keys; another layout's subset does not."""
    cal = noise.default_calibration()
    a, b = cal.subset([3, 7, 8]), cal.subset([3, 7, 8])
    apart = DeviceCalibration(tuple(replace(p) for p in a.qubits), replace(cal.durations),
                              cal.two_qubit_error)
    assert a is not b
    for other in (b, apart):
        assert other == a and hash(other) == hash(a)
        assert {a: 1}[other] == 1
    assert hash(a) == hash((a.qubits, a.durations, a.two_qubit_error))
    assert cal.subset([7, 3, 8]) not in {a: 1}


def test_exact_engine_memos_are_read_only():
    """Every run shares the fixed gates' memoized matrices and the CNOT's,
    so none may be written."""
    for m in (noise._gate_ptm("H"), noise._CX_PTM):
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 0.0


def test_equal_qubit_params_hash_equal():
    """Equal params hash equal, drift -0.0 and 0.0 included, as the
    dataclass's hash of the compared fields does: a ``DeviceCalibration``,
    a dict key of kept distributions, hashes its qubits' params."""
    a = QubitNoiseParams(30e-6, 40e-6, omega=-0.0, readout_error=0.01)
    b = QubitNoiseParams(30e-6, 40e-6, omega=0.0, readout_error=0.01)
    assert a == b and hash(a) == hash(b) == hash((30e-6, 40e-6, 0.0, 0.01))
    assert hash(a) != hash(QubitNoiseParams(30e-6, 40e-6, omega=1.0, readout_error=0.01))


def test_exact_engine_peak_memory_on_a_wide_chain(monkeypatch):
    """In time order, the superposed-control cnot-reset chain on 10 qubits
    never holds all ten axes live: each qubit is size 1 until its first
    CNOT and size 2 after its last, so the peak stays below 1.5 copies of
    the 4**10 coefficients that a full tensor would take, whether the run
    reuses the schedule's plan or builds it first (on a new object). The
    engine runs this chain greedily; the time order is forced here."""
    monkeypatch.setattr(noise, "_GREEDY_CROSSOVER", math.inf)
    sched, cal = _wide_chain_cell(10)
    _exact_probabilities([(sched, cal)])  # build the plan first
    for run in (sched, replace(sched)):
        tracemalloc.start()
        try:
            _exact_probabilities([(run, cal)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * 4**10, run is sched


def _all_live_cell(n):
    """H on every qubit, a CNOT ladder down and back with T between, H."""
    c = Circuit(n)
    for q in range(n):
        c.h(q)
    for q in range(n - 1):
        c.cnot(q, q + 1)
    for q in range(n):
        c.t(q)
    for q in range(n - 1, 0, -1):
        c.cnot(q - 1, q)
    for q in range(n):
        c.h(q)
    return schedule(c.measure_all(), DurationModel())


@pytest.mark.parametrize("n, stack", [(3, 1), (3, 200), (4, 200), (6, 50), (8, 4)])
def test_stacked_exact_peak_memory_within_estimate(n, stack):
    """A stack of distinct calibrations peaks within ``_stacked_need``: at
    3-4 qubits the calibrations' own matrices outweigh
    their coefficients, which the 4**n term alone would miss."""
    _assert_stacked_peak_within_estimate(_all_live_cell(n), n, stack)


def _long_circuit():
    """Twenty rounds of CNOTs, T and RPHI gates on 3 qubits, which close 343
    idle windows and RPHI angles."""
    c = Circuit(3)
    for q in range(3):
        c.h(q)
    for _ in range(20):
        for q in range(2):
            c.cnot(q, q + 1)
        for q in range(3):
            c.t(q).rphi(0.3, q)
        for q in range(2, 0, -1):
            c.cnot(q - 1, q)
    return c.measure_all()


@pytest.mark.parametrize("stack", [1, 50])
def test_stacked_exact_peak_memory_within_estimate_on_a_long_circuit(stack):
    """The long circuit's idle windows and RPHI angles each hold priced
    matrices and rates per row: the estimate counts them, where its terms
    for the qubits alone would fall short three times over."""
    peak = _assert_stacked_peak_within_estimate(schedule(_long_circuit(), DurationModel()), 3,
                                                stack)
    assert peak > 3 * noise._DENSE_PEAK_COPIES * 8 * (4**3 + 3 * 4**4) * stack


def _assert_stacked_peak_within_estimate(sched, n, stack) -> int:
    cals = [flat_cal(n, t1=(30 + i) * 1e-6, t2=(40 + i) * 1e-6, readout=0.01,
                     p2=0.01 + i * 1e-5) for i in range(stack)]
    rows = [(sched, cal) for cal in cals]
    _exact_probabilities(rows)  # build the plan first
    tracemalloc.start()
    try:
        _exact_probabilities(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= noise._stacked_need(sched, stack)
    if n <= 4:  # the coefficients' term alone would not cover it
        assert peak > noise._DENSE_PEAK_COPIES * 8 * 4**n * stack
    return peak


# ---------------------------------------------------------------------------
# The greedy contraction order
# ---------------------------------------------------------------------------

def _in_each_order(monkeypatch):
    """Yield each contraction order, with _GREEDY_CROSSOVER and
    _SCORE_CROSSOVER set so that every exact plan built meanwhile records
    it."""
    for order, crossover in (("greedy", 0), ("time", math.inf)):
        monkeypatch.setattr(noise, "_GREEDY_CROSSOVER", crossover)
        monkeypatch.setattr(noise, "_SCORE_CROSSOVER", crossover)
        yield order


def _planned_order(sched):
    """The order that the schedule's kept exact plan records, checked
    against its steps: time order takes each tensor in turn, on the left,
    into the product of all before it, and the greedy order does not."""
    plan = sched.__dict__["plans"][2]
    total = len(plan.shapes)
    fold = [(t, total + t - 2 if t > 1 else 0) for t in range(1, total)]
    assert ([step[:2] for step in plan.steps] == fold) == (plan.order == "time")
    return plan.order


def _qpe_cell(placement, phi):
    """A QPE cell as qpe-sweep runs it: its phase's RPHI angles bound onto
    the schedule of phase 0, on the shipped calibration of its placement."""
    built = builders.qpe_on_geometry(placement, 0.0)
    cal = noise.default_calibration().subset(built.layout)
    sched = schedule(Circuit(built.circuit.n_qubits, built.circuit.ops).measure_all(),
                     cal.durations)
    return noise.bind(sched, builders.qpe_angles(builders.qft_dagger_3(placement), phi)), cal


_LINEAR3 = topology.enumerate_linear_triples(topology.shipped_poughkeepsie())[0]
_ZERO_LENGTH_CAL = replace(_LIVE_AXIS_CAL, durations=DurationModel(single_qubit=0.0,
                                                                   measurement=0.0))
_GREEDY_CELLS = {
    "star4": _survey_cell(_STAR4, "star4-cnot-reset"),
    "ring6": _survey_cell(_RING6, "ring6-3chain"),
    "qpe-linear3": _qpe_cell(_LINEAR3, 3 * math.pi / 4),
    "qpe-star4": _qpe_cell(_STAR4, 1.3),
    "never-gated": _live_axis_cell(Circuit(3).h(0).cnot(0, 2).t(2)),
    "gated-once": _live_axis_cell(Circuit(3).h(1).h(0).delay(3e-6, 0).h(0).x(2)),
    # single-qubit gates and readout of 0 ns: the windows they alone span are empty
    "zero-length": (schedule(Circuit(3).h(0).t(0).h(0).cnot(0, 1).h(2).delay(2e-6, 2).h(2)
                             .cnot(1, 2).measure_all(), _ZERO_LENGTH_CAL.durations),
                    _ZERO_LENGTH_CAL),
    "wide-chain-7": _wide_chain_cell(7),
    # X/CNOT/DELAY alone: the plan's legs are (r_I, r_Z) pairs
    "classical": _live_axis_cell(Circuit(3).x(0).cnot(0, 1).x(2).delay(2e-6, 1).cnot(1, 2)
                                 .x(0)),
}


@pytest.mark.parametrize("name", _GREEDY_CELLS)
def test_greedy_order_matches_kraus_oracle(monkeypatch, name):
    """Contracted in either order, greedily or in time order, every kind
    of cell gives the independent oracle's distribution within 1e-12."""
    sched, cal = _GREEDY_CELLS[name]
    oracle = kraus_outcome_probabilities(sched, cal)
    for order in _in_each_order(monkeypatch):
        fresh = replace(sched)
        [got] = _exact_probabilities([(fresh, cal)])
        assert _planned_order(fresh) == order
        assert np.max(np.abs(got - oracle)) <= 1e-12


@pytest.mark.parametrize("width", range(6, 11))
def test_greedy_order_matches_time_order_on_wide_chains(monkeypatch, width):
    """Both orders give the wide chains' distributions within 1e-15."""
    sched, cal = _wide_chain_cell(width)
    got = {}
    for crossover in (0, math.inf):
        monkeypatch.setattr(noise, "_GREEDY_CROSSOVER", crossover)
        [got[crossover]] = _exact_probabilities([(replace(sched), cal)])
    assert np.max(np.abs(got[0] - got[math.inf])) <= 1e-15


def test_greedy_stacked_rows_equal_lone_rows(monkeypatch):
    """A stack gives each row, bit for bit, what its schedule and
    calibration give alone, in either order: distinct calibrations on one
    wide chain, and QPE phases bound onto one schedule on two
    calibrations."""
    sched, cal = _wide_chain_cell(9)
    stacks = [[(sched, cal)] + [(sched, flat_cal(9, t1=(30 + i) * 1e-6, t2=(40 + i) * 1e-6,
                                                 readout=0.01 * i, p2=0.01 + i * 1e-3))
                                for i in range(5)]]
    source, cal = _qpe_cell(_STAR4, 0.0)
    qft = builders.qft_dagger_3(_STAR4)
    stacks.append([(noise.bind(source, builders.qpe_angles(qft, k * math.pi / 4)), c)
                   for k in range(8) for c in (cal, flat_cal(4, t1=50e-6, t2=60e-6, p2=0.02))])
    for order in _in_each_order(monkeypatch):
        for rows in stacks:
            fresh = replace(rows[0][0])  # whose plan the stack runs
            stacked = _exact_probabilities([(fresh, rows[0][1]), *rows[1:]])
            assert _planned_order(fresh) == order
            for row, (scheduled, c) in zip(stacked, rows):
                assert np.array_equal(row, _exact_probabilities([(replace(scheduled), c)])[0])


@pytest.mark.parametrize("width", range(9, 14))
@pytest.mark.parametrize("stack", [1, 20])
def test_greedy_peak_memory_within_estimate(width, stack):
    """Wide chains run greedily and peak per row within ``_stacked_need``,
    which counts every folded gate, all held at once, and at least half of
    it: the estimate is not the time order's 4**n term."""
    sched, _ = _wide_chain_cell(width)
    peak = _assert_stacked_peak_within_estimate(sched, width, stack)
    assert _planned_order(sched) == "greedy"
    assert peak > noise._stacked_need(sched, stack) / 2


def test_a_greedy_chain_of_14_qubits_is_refused_and_never_kept(monkeypatch):
    """The greedy order would hold little of a 14-qubit chain, but the
    exact engine still refuses 14 qubits in either order: keep_distributions
    and run_shots raise the same error before computing anything, and
    nothing is kept."""
    sched, cal = _wide_chain_cell(14)
    assert noise._stacked_need(sched) < noise._MEMORY_BUDGET
    monkeypatch.setattr(noise, "_exact_probabilities", None)  # any call would fail
    with pytest.raises(SimulationError, match="exact engine would need about"):
        noise.keep_distributions([(sched, cal), (sched, replace(cal, two_qubit_error=0.01))])
    assert "distributions" not in sched.__dict__
    with pytest.raises(SimulationError, match="exact engine would need about"):
        run_shots(sched, cal, 10, 0)


_SUBCOMMANDS = ("t1", "t2-ramsey", "t2-echo", "cnot-chain", "ccnot-survey", "qft-perfect",
                "qpe-sweep")


def test_cli_structures_stay_in_time_order_and_wide_chains_go_greedy(tmp_path, monkeypatch):
    """Every outcome structure the seven subcommands build at default
    settings peaks at 4,096 coefficients per row in time order and runs in
    it, t1 and the chains of up to 12 qubits among them, on (r_I, r_Z) legs;
    the chains of 13 to 20 qubits run score passes alone; and the wide
    chains go greedy above _GREEDY_CROSSOVER (9 and 10 qubits) and not
    below."""
    from nisq_lab.cli import main

    peaks, scored = {}, []
    real = noise._exact_probabilities

    def recording(rows, scores=None):
        probs = real(rows, scores)
        if scores is None:
            peaks.setdefault(command, []).append(
                (rows[0][0].__dict__["plans"][2].peak,
                 _planned_order(rows[0][0])))
        else:
            plan = rows[0][0].__dict__["plans"][1]
            scored.append((command, rows[0][0].n_qubits, plan.order, len(rows)))
        return probs

    monkeypatch.setattr(noise, "_exact_probabilities", recording)
    for command in _SUBCOMMANDS:
        assert main([command, "--seed", "7", "--out", str(tmp_path / command)]) == 0
    assert sorted(peaks) == sorted(_SUBCOMMANDS)
    runs = [run for command in peaks for run in peaks[command]]
    assert max(peak for peak, _ in runs) == 4096 and all(order == "time" for _, order in runs)
    # the 24 chain shapes of 13 to 20 qubits, each one pass of 4 orientations
    # x f1 and f2; the cnot-reset chains of 14 qubits and more go greedy
    assert sorted(n for _, n, _, _ in scored) == sorted(list(range(13, 21)) * 3)
    assert {(command, rows) for command, _, _, rows in scored} == {("cnot-chain", 8)}
    assert sorted(n for _, n, order, _ in scored if order == "greedy") == list(range(14, 21))
    for width in range(6, 11):
        sched, cal = _wide_chain_cell(width)
        real([(sched, cal)])
        peak = noise._kept(sched, 2).peak
        assert (peak > noise._GREEDY_CROSSOVER) == (width >= 9)
        assert (_planned_order(sched) == "greedy") == (width >= 9)
        # one kept plan in either order; a greedy one has no time-order steps
        assert list(sched.__dict__["plans"]) == [2]


def _chain_cell(links, strategy, orientation):
    """A chain cell as ``cnot-chain`` runs it, on the shipped calibration."""
    path = topology.chain_paths(topology.shipped_poughkeepsie(), orientation)[:links + 1]
    built = builders.cnot_chain(path, strategy)
    cal = noise.default_calibration().subset(built.layout)
    return schedule(Circuit(len(path), built.circuit.ops).measure_all(), cal.durations), cal


def _chain_scores(links, strategy):
    """The (mask, want) pairs of f1 and f2 that ``cnot-chain`` scores a
    chain of ``links`` links by."""
    path = topology.chain_paths(topology.shipped_poughkeepsie(), 1)[:links + 1]
    built = builders.cnot_chain(path, strategy)
    return score_masks(built.roles, "11", built.desired_ancilla)


def _own_readout(cal):
    """``cal`` with its own readout error on each qubit, so that a qubit's
    closing rows charged to another qubit show."""
    return replace(cal, qubits=tuple(replace(p, readout_error=0.01 * (q % 4))
                                     for q, p in enumerate(cal.qubits)))


def _class_sums(probs, scores):
    """Each score's probability, summed over the outcomes that read it."""
    outcomes = np.arange(len(probs))
    return np.array([probs[(outcomes & mask) == want].sum() for mask, want in scores])


# ---------------------------------------------------------------------------
# Classical structures on (r_I, r_Z) legs
# ---------------------------------------------------------------------------

# Derandomized: every run of the suite checks the same examples.
@given(noisy_cells(max_qubits=7, kinds=("X", "DELAY"), max_ops=16))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_classical_legs_match_kraus_oracle(cell):
    """An X/CNOT/DELAY circuit is planned on (r_I, r_Z) legs, and gives the
    independent oracle's distribution within 1e-12."""
    sched, cal = cell
    [got] = _exact_probabilities([(sched, cal)])
    assert noise._kept(sched, 2).leg == 2
    assert np.max(np.abs(got - kraus_outcome_probabilities(sched, cal))) <= 1e-12


@given(noisy_cells(max_qubits=6, kinds=("X", "DELAY"), max_ops=16))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_classical_oracle_matches_kraus_oracle(cell):
    """The bitstring oracle of X/CNOT/DELAY circuits gives the Kraus
    oracle's distribution within 1e-12, so that it can stand in for it
    above 7 qubits."""
    sched, cal = cell
    want = kraus_outcome_probabilities(sched, cal)
    assert np.max(np.abs(classical_outcome_probabilities(sched, cal) - want)) <= 1e-12


@pytest.mark.parametrize("strategy", builders.RESET_STRATEGIES)
def test_classical_legs_match_full_legs_on_chain_cells(monkeypatch, strategy):
    """Every chain cell that draws from its full law, of 2 to 12 qubits on
    each orientation, gives on (r_I, r_Z) legs what the full 4-coefficient
    legs give, within 1e-15; the full legs are forced by declaring no kind
    classical. Each qubit gets its own readout error."""
    for orientation in range(1, 5):
        for links in range(1, _FULL_LAW_QUBITS):
            sched, cal = _chain_cell(links, strategy, orientation)
            cal = _own_readout(cal)
            [legs_iz] = _exact_probabilities([(sched, cal)])
            assert noise._kept(sched, 2).leg == 2
            with monkeypatch.context() as m:
                m.setattr(noise, "_CLASSICAL_KINDS", frozenset())
                full = replace(sched)
                [legs_full] = _exact_probabilities([(full, cal)])
                assert noise._kept(full, 2).leg == 4
            assert np.max(np.abs(legs_iz - legs_full)) <= 1e-15, (orientation, links)


@pytest.mark.parametrize("strategy", ["none", "cnot-reset"])
@pytest.mark.parametrize("stack", [1, 4])
def test_stacked_exact_peak_memory_within_estimate_on_classical_chains(strategy, stack):
    """The widest chains that draw from their full law, 12 qubits on (r_I,
    r_Z) legs, at one calibration and at a chain shape's 4, peak within
    ``_stacked_need``."""
    sched, _ = _chain_cell(_FULL_LAW_QUBITS - 1, strategy, 1)
    _assert_stacked_peak_within_estimate(sched, _FULL_LAW_QUBITS, stack)
    assert noise._kept(sched, 2).leg == 2


@pytest.mark.parametrize("links", [5, 8])
def test_one_row_classical_runs_peak_within_estimate(links):
    """A lone run of a small classical chain peaks above its per-row
    estimate by the executor's own objects, which the estimate's fixed
    per-run term covers, as its leg-aware floor would not."""
    sched, _ = _chain_cell(links, "cnot-reset", 1)
    peak = _assert_stacked_peak_within_estimate(sched, links + 1, 1)
    assert peak > max(noise._row_bytes(noise._kept(sched, 2)),
                      noise._outcome_floor(sched))


def test_run_shots_draws_wide_classical_circuits_from_their_exact_law():
    """run_shots runs a 13-qubit chain on the exact engine, as it runs a
    12-qubit one: it draws its counts from the exact distribution on stream
    3 of the seed, keeps stacked rows' distributions, and builds no score
    plan."""
    for links in (11, 12):
        sched, cal = _chain_cell(links, "cnot-reset", 2)
        [probs] = _exact_probabilities([(replace(sched), cal)])
        draws = np.random.default_rng([5, 3]).multinomial(4000, probs)
        assert run_shots(sched, cal, 4000, 5) == {k: int(c) for k, c in enumerate(draws) if c}
        assert list(sched.__dict__["plans"]) == [2]
        stacked = replace(sched)
        noise.keep_distributions([(stacked, cal), (stacked, replace(cal, two_qubit_error=0.02))])
        assert len(stacked.__dict__["distributions"]) == 2


# ---------------------------------------------------------------------------
# The score law
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("strategy", builders.RESET_STRATEGIES)
def test_score_law_matches_classical_oracle_on_wide_chain_cells(strategy):
    """The chain cells of 13 to 16 qubits along orientation 1, each qubit
    with its own readout error, read f1 and f2 with the probabilities that
    the bitstring oracle's outcomes sum to, within 1e-12."""
    for links in range(12, 16):
        sched, cal = _chain_cell(links, strategy, 1)
        cal = _own_readout(cal)
        scores = _chain_scores(links, strategy)
        [law] = noise.score_probabilities([(sched, cal)], [scores])
        want = _class_sums(classical_outcome_probabilities(sched, cal), scores)
        assert np.max(np.abs(law - want)) <= 1e-12, links


@pytest.mark.parametrize("strategy", builders.RESET_STRATEGIES)
def test_score_law_matches_class_sums_on_chain_structures(monkeypatch, strategy):
    """Every chain structure of 2 to 12 qubits, on each orientation's
    calibration with its own readout errors, stacked as run_cells would
    stack it, reads f1 and f2 with the probabilities its exact outcome
    distribution sums to, within 1e-14, in either contraction order."""
    for order in _in_each_order(monkeypatch):
        for links in range(1, _FULL_LAW_QUBITS):
            cells = [_chain_cell(links, strategy, o) for o in range(1, 5)]
            rows = [(replace(cells[0][0]), _own_readout(cal)) for _, cal in cells]
            scores = _chain_scores(links, strategy)
            law = noise.score_probabilities(rows, [scores] * 4)
            assert noise._kept(rows[0][0], 1).order == order
            for got, (sched, cal) in zip(law, rows):
                [probs] = _exact_probabilities([(replace(sched), cal)])
                assert np.max(np.abs(got - _class_sums(probs, scores))) <= 1e-14, links


@st.composite
def scored_cells(draw):
    """A noisy cell of up to 7 qubits, X/CNOT/DELAY alone or not, and a
    score on it: a random mask, and a random want within it."""
    kinds = draw(st.sampled_from([("X", "DELAY"), ("H", "T", "S", "RPHI", "X", "DELAY")]))
    sched, cal = draw(noisy_cells(max_qubits=7, kinds=kinds, max_ops=12))
    mask = draw(st.integers(0, 2**sched.n_qubits - 1))
    return sched, cal, (mask, draw(st.integers(0, 2**sched.n_qubits - 1)) & mask)


@given(scored_cells())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_score_law_matches_kraus_oracle(cell):
    """A score's probability on any circuit, classical or not, is what the
    Kraus oracle's outcomes that read it sum to, within 1e-12, on a plan
    of one closing row per qubit kept beside the outcome plan."""
    sched, cal, score = cell
    [[got]] = noise.score_probabilities([(sched, cal)], [[score]])
    want = _class_sums(kraus_outcome_probabilities(sched, cal), [score])
    assert abs(got - want[0]) <= 1e-12
    plan = noise._kept(sched, 1)
    assert plan.leg == (2 if noise._classical(sched) else 4)
    assert list(sched.__dict__["plans"]) == [1]


def test_greedy_score_plan_counts_a_closed_leg_as_no_bits(monkeypatch):
    """A greedy score plan holds no tensor of the 2**n closing rows: each
    qubit closes in a leg of size 1, which counts for nothing in the
    tensors' sizes, so a 20-qubit chain's plan holds a few thousand
    coefficients per row, where counting each such leg as a bit would give
    its final tensor 2**20."""
    monkeypatch.setattr(noise, "_SCORE_CROSSOVER", 0)
    for strategy in builders.RESET_STRATEGIES:
        sched, _ = _chain_cell(19, strategy, 1)
        plan = noise._kept(sched, 1)
        assert plan.order == "greedy" and plan.held < 2**12, strategy
        assert noise._kept(sched, 2).held >= 3 * 2**20


def test_one_wide_chain_schedule_scores_every_placement_like_fresh_schedules():
    """The score plan kept on a ScheduledCircuit holds nothing of a
    calibration: one 20-qubit chain schedule scored under two orientations'
    calibrations, in either order, gives, bit for bit, what each
    orientation's own fresh schedule gives. Each qubit gets its own readout
    error, so that the closing rows differ between the placements too."""
    base = noise.default_calibration()
    cal = replace(base, qubits=tuple(replace(p, readout_error=0.002 * (q % 7))
                                     for q, p in enumerate(base.qubits)))
    scores = [_chain_scores(19, "x-reset")]
    cells = []
    for orientation in (1, 2):
        path = topology.chain_paths(topology.shipped_poughkeepsie(), orientation)[:20]
        built = builders.cnot_chain(path, "x-reset")
        sub = cal.subset(built.layout)
        cells.append((schedule(Circuit(20, built.circuit.ops).measure_all(), sub.durations), sub))
    (sched, cal_a), (sched_b, cal_b) = cells
    assert sched == sched_b and cal_a != cal_b  # one local circuit, two calibrations
    fresh = [noise.score_probabilities([cell], scores) for cell in cells]
    assert not np.array_equal(*fresh)
    for order in ((0, 1), (1, 0)):
        shared = replace(sched)
        for i in order:
            got = noise.score_probabilities([(shared, cells[i][1])], scores)
            assert np.array_equal(got, fresh[i])


def test_score_plan_is_built_once_per_schedule(monkeypatch):
    """Score passes after the first reuse the score plan kept on the
    ScheduledCircuit (a 14-qubit chain), and build no outcome plan."""
    calls = []
    real = noise._idle_windows
    monkeypatch.setattr(noise, "_idle_windows", lambda s: calls.append(s) or real(s))
    sched, cal = _chain_cell(13, "x-reset", 1)
    scores = [_chain_scores(13, "x-reset")]
    laws = [noise.score_probabilities([(sched, c)], scores)
            for c in (cal, replace(cal, two_qubit_error=0.02), cal)]
    assert len(calls) == 1
    assert np.array_equal(laws[0], laws[2]) and not np.array_equal(laws[0], laws[1])
    assert list(sched.__dict__["plans"]) == [1]


@pytest.mark.parametrize("links", [12, 15, 19])
@pytest.mark.parametrize("stack", [1, 8])
def test_score_pass_peak_memory_within_estimate(links, stack):
    """Score passes on the chain cells of 13, 16 and 20 qubits, at one
    score and at a chain shape's 8 (4 orientations x f1 and f2), peak
    within ``_stacked_need`` of the score plan, for each strategy."""
    for strategy in builders.RESET_STRATEGIES:
        sched, _ = _chain_cell(links, strategy, 1)
        cals = [flat_cal(links + 1, t1=(30 + i) * 1e-6, t2=(40 + i) * 1e-6, readout=0.01,
                         p2=0.01 + i * 1e-5) for i in range(stack)]
        rows = [(sched, cal) for cal in cals]
        scores = [_chain_scores(links, strategy)[i % 2] for i in range(stack)]
        _exact_probabilities(rows, scores)  # build the plan first
        tracemalloc.start()
        try:
            _exact_probabilities(rows, scores)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= noise._stacked_need(sched, stack, 1), strategy


@pytest.mark.parametrize("strategy", builders.RESET_STRATEGIES)
def test_a_30_qubit_chain_score_pass_runs_within_its_estimate(strategy):
    """A 30-qubit X/CNOT/DELAY chain's score pass runs through
    score_probabilities: time order is priced from its own largest
    product, a few coefficients per row on "none" and "x-reset", not from
    2**n (about 20480 MiB). With its plan kept, the pass peaks within
    ``_stacked_need`` at 2 and 16 stacked score rows (1 and 8 calibrations
    x f1 and f2), and each stacked row equals, bit for bit, its
    calibration's lone pass on a fresh schedule."""
    built = builders.cnot_chain(list(range(30)), strategy)
    sched = schedule(Circuit(30, built.circuit.ops).delay(2e-6, 29).measure_all(),
                     DurationModel())
    scores = score_masks(built.roles, "11", built.desired_ancilla)
    cals = [flat_cal(30, t1=(30 + i) * 1e-6, t2=(40 + i) * 1e-6, readout=0.01 * (i % 3),
                     p2=0.01 + i * 1e-4) for i in range(8)]
    rows = [(sched, cal) for cal in cals]
    noise.score_probabilities(rows[:1], [scores])  # build the plan first
    assert noise._kept(sched, 1).order == ("greedy" if strategy == "cnot-reset" else "time")
    for stack in (1, 8):
        tracemalloc.start()
        try:
            law = noise.score_probabilities(rows[:stack], [scores] * stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= noise._stacked_need(sched, 2 * stack, 1), (strategy, stack)
    assert np.all((0.0 < law[:, 1]) & (law[:, 1] < law[:, 0]) & (law[:, 0] < 1.0))
    for got, (_, cal) in zip(law, rows):
        [alone] = noise.score_probabilities([(replace(sched), cal)], [scores])
        assert np.array_equal(got, alone)


def test_a_score_pass_whose_one_row_exceeds_the_budget_is_refused(monkeypatch):
    """score_probabilities stacks as many rows as fit the budget, and
    refuses, before pricing anything, a layering whose one score row
    would not fit."""
    sched, cal = _chain_cell(14, "none", 1)
    scores = [_chain_scores(14, "none")] * 3
    rows = [(sched, replace(cal, two_qubit_error=0.01 * i)) for i in range(3)]
    want = noise.score_probabilities(rows, scores)
    sizes = []
    real = noise._exact_probabilities
    monkeypatch.setattr(noise, "_exact_probabilities",
                        lambda rows, scores: sizes.append(len(rows)) or real(rows, scores))
    monkeypatch.setattr(noise, "_MEMORY_BUDGET", noise._stacked_need(sched, 4, 1))
    assert np.array_equal(noise.score_probabilities(rows, scores), want)
    assert sizes == [4, 2]
    monkeypatch.setattr(noise, "_MEMORY_BUDGET", noise._stacked_need(sched, 1, 1) - 1)
    monkeypatch.setattr(noise, "_priced_windows", None)  # any pricing would fail
    with pytest.raises(SimulationError, match="exact engine would need about"):
        noise.score_probabilities(rows, scores)


def test_idle_windows_close_before_gates_and_at_readout():
    c = Circuit(3).x(0).delay(5e-6, 1).x(0).cnot(0, 1).measure_all()
    sched = schedule(c, DurationModel())
    steps = _idle_windows(sched)
    assert [ops for _, ops in steps] == [layer.ops for layer in sched.layers] + [()]
    expected = [[], [(0, 100e-9)], [(0, 300e-9)], [], [(0, 1e-6), (1, 1e-6)]]
    assert len(steps) == len(expected)
    for (windows, _), want in zip(steps, expected):
        assert [q for q, _, _ in windows] == [q for q, _ in want]
        assert [sched.ends[i] - sched.ends[j] for _, i, j in windows] == pytest.approx(
            [dt for _, dt in want])


@given(noisy_cells(max_qubits=4, kinds=("H", "X", "DELAY"), max_ops=16))
@settings(max_examples=60, deadline=None)
def test_idle_windows_charge_all_time_after_first_gate(cell):
    """Each gated qubit is charged the circuit's duration minus the time up
    to the end of its first gate layer; a qubit no gate touches is charged
    nothing."""
    sched, _ = cell
    charged = {}
    for windows, _ in _idle_windows(sched):
        for q, i, j in windows:
            dt = sched.ends[i] - sched.ends[j]
            assert dt > 0
            charged[q] = charged.get(q, 0.0) + dt
    first_gate_end = {}
    elapsed = 0.0
    for layer in sched.layers:
        elapsed += layer.duration
        for op in layer.ops:
            if op.kind not in ("MEASURE", "DELAY"):
                for q in op.qubits:
                    first_gate_end.setdefault(q, elapsed)
    for q in range(sched.n_qubits):
        if q in first_gate_end:
            expected = elapsed - first_gate_end[q]
            assert charged.get(q, 0.0) == pytest.approx(expected, rel=1e-9, abs=1e-15)
        else:
            assert q not in charged


def test_exact_engine_runs_at_any_shot_count():
    """Non-classical cells draw a multinomial from the exact distribution
    on stream 3 of the seed, whether or not 2**n <= shots."""
    cal = flat_cal(2, t1=20e-6, t2=30e-6, p2=0.05, readout=0.02)
    sched = schedule(Circuit(2).h(0).cnot(0, 1).measure_all(), cal.durations)
    [probs] = _exact_probabilities([(sched, cal)])
    for shots in (3, 4):
        draws = np.random.default_rng([5, 3]).multinomial(shots, probs)
        exact = {k: int(c) for k, c in enumerate(draws) if c}
        assert run_shots(sched, cal, shots, 5) == exact


@pytest.mark.parametrize("prep, shots", [("x", 10), ("h", 10)], ids=["classical", "exact"])
def test_missing_seed_rejected(prep, shots):
    cal = flat_cal(2)
    c = Circuit(2)
    getattr(c, prep)(0)
    sched = schedule(c.cnot(0, 1).measure_all(), cal.durations)
    with pytest.raises(ValueError, match="seed"):
        run_shots(sched, cal, shots, None)


def test_non_positive_shots_rejected():
    cal = flat_cal(1)
    sched = schedule(Circuit(1).x(0).measure_all(), cal.durations)
    for shots in (0, -1):
        with pytest.raises(ValueError, match="shots must be >= 1"):
            run_shots(sched, cal, shots, 1)


def test_shots_above_the_int64_maximum_rejected():
    """The multinomial draw takes at most the int64 maximum, which runs;
    one more is refused with a ValueError, not an OverflowError."""
    cal = flat_cal(1)
    sched = schedule(Circuit(1).x(0).measure_all(), cal.durations)
    top = np.iinfo(np.int64).max
    assert run_shots(sched, cal, top, 1) == {1: top}
    for shots in (top + 1, 10**20):
        with pytest.raises(ValueError, match="shots must be at most"):
            run_shots(sched, cal, shots, 1)


def test_readout_error_flips_bits():
    cal = flat_cal(1, readout=0.25, durations=DurationModel(measurement=0.0))
    c = Circuit(1).x(0).measure(0)
    counts = run_shots(schedule(c, cal.durations), cal, 20000, 21)
    frac0 = counts.get(0, 0) / 20000
    assert abs(frac0 - 0.25) < 5 * math.sqrt(0.25 * 0.75 / 20000)


def test_depolarizing_error_rate_applied():
    cal = flat_cal(2, p2=0.3, durations=DurationModel(measurement=0.0))
    c = Circuit(2).x(0).cnot(0, 1).measure(0).measure(1)
    counts = run_shots(schedule(c, cal.durations), cal, 20000, 31)
    frac11 = counts.get(0b11, 0) / 20000
    # with probability p one of the 15 non-identity Pauli pairs acts; only
    # those with I or Z on both operands (ZI, IZ, ZZ: 3 of 15) leave |11>,
    # so P(11) = 1 - p + p * 3/15
    expected = 0.7 + 0.3 * (3 / 15)
    assert abs(frac11 - expected) < 5 * math.sqrt(expected * (1 - expected) / 20000)


def test_large_nonclassical_circuit_rejected():
    """The memory budget refuses the exact engine from 14 qubits on, before
    allocating anything."""
    for n in (14, 16):
        cal = flat_cal(n)
        c = Circuit(n).h(0)
        for i in range(n - 1):
            c.cnot(i, i + 1)
        c.measure_all()
        with pytest.raises(SimulationError, match="exact engine"):
            run_shots(schedule(c, cal.durations), cal, 10, 0)


@pytest.mark.parametrize("n", [63, 64])
def test_bit_vector_width_limit(n):
    """An X/CNOT/DELAY circuit of 63 or 64 qubits, which would need 2**n
    outcomes, is refused on its floor before anything is planned, priced
    or allocated."""
    cal = flat_cal(n)
    c = Circuit(n).x(0)
    for i in range(n - 1):
        c.cnot(i, i + 1)
    sched = schedule(c.measure_all(), cal.durations)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(noise, "_kept", None)  # any planning would fail
        tracemalloc.start()
        try:
            with pytest.raises(SimulationError, match="exact engine would need about"):
                run_shots(sched, cal, 10, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 64 << 10
    assert "plans" not in sched.__dict__


def test_memory_budget_rejects_dense_runs_before_allocating(monkeypatch):
    """The pre-flight estimate is one row's ``_stacked_need``, at any shot
    count, and never less than the floor of _DENSE_PEAK_COPIES * 8 B *
    leg**n, on which a 13-qubit X + CNOT ladder is refused before it is
    planned."""
    cal = flat_cal(2, t1=30e-6, t2=40e-6)
    sched = schedule(Circuit(2).h(0).cnot(0, 1).measure_all(), cal.durations)
    exact_need = noise._stacked_need(sched)
    monkeypatch.setattr(noise, "_MEMORY_BUDGET", exact_need)
    run_shots(sched, cal, 10, 0)
    run_shots(sched, cal, 3, 0)
    monkeypatch.setattr(noise, "_MEMORY_BUDGET", exact_need - 1)
    for shots in (10, 3):
        with pytest.raises(SimulationError, match="exact engine"):
            run_shots(sched, cal, shots, 0)
    wide = Circuit(13).x(0)
    for q in range(12):
        wide.cnot(q, q + 1)
    classical, cal = schedule(wide.measure_all(), cal.durations), flat_cal(13, t1=30e-6, t2=40e-6)
    floor = noise._outcome_floor(classical)
    assert floor == noise._DENSE_PEAK_COPIES * 8 * 2**13
    monkeypatch.setattr(noise, "_MEMORY_BUDGET", floor - 1)
    with monkeypatch.context() as m:
        m.setattr(noise, "_kept", None)  # any planning would fail
        with pytest.raises(SimulationError, match="exact engine"):
            run_shots(classical, cal, 10, 0)
    classical_need = noise._stacked_need(classical)
    assert classical_need > floor
    monkeypatch.setattr(noise, "_MEMORY_BUDGET", classical_need)
    assert sum(run_shots(classical, cal, 10, 0).values()) == 10
    monkeypatch.setattr(noise, "_MEMORY_BUDGET", classical_need - 1)
    with pytest.raises(SimulationError, match="exact engine"):
        run_shots(classical, cal, 10, 0)


def test_lone_exact_run_is_refused_on_its_stacked_estimate(monkeypatch):
    """A lone exact run is refused on the estimate that stacks use, which
    counts each idle window's and RPHI angle's priced matrix and rates:
    the long circuit, which peaks at about 78 KiB, is refused with a budget
    well above its 4**n term (1.25 KiB), before anything is priced, and
    runs on a budget of its estimate."""
    cal = flat_cal(3, t1=30e-6, t2=40e-6, readout=0.01, p2=0.01)
    sched = schedule(_long_circuit(), cal.durations)
    coefficients, need = noise._DENSE_PEAK_COPIES * 8 * 4**3, noise._stacked_need(sched)
    assert need > 50 * coefficients
    monkeypatch.setattr(noise, "_MEMORY_BUDGET", (coefficients + need) / 2)
    with monkeypatch.context() as m:
        m.setattr(noise, "_priced_windows", None)  # any pricing would fail
        with pytest.raises(SimulationError, match="exact engine"):
            run_shots(sched, cal, 10, 0)
    monkeypatch.setattr(noise, "_MEMORY_BUDGET", need)
    assert sum(run_shots(sched, cal, 10, 0).values()) == 10


def test_missing_calibration_entry():
    cal = flat_cal(1)
    c = Circuit(2).x(0).measure(0).measure(1)
    with pytest.raises(CalibrationError):
        run_shots(schedule(c, cal.durations), cal, 10, 0)


def test_chain_duration_monotonicity():
    """Inserting extra idle time never helps the control/target pair."""
    cal = flat_cal(5, t1=50e-6, t2=80e-6)
    shots = 20000
    f1s = []
    for extra_us in range(0, 50, 5):
        c = Circuit(5).x(0)
        for i in range(4):
            c.cnot(i, i + 1)
        if extra_us:
            for q in range(5):
                c.delay(extra_us * 1e-6, q)
        c.measure_all()
        counts = run_shots(schedule(c, cal.durations), cal, shots, 77)
        good = sum(v for k, v in counts.items() if k & 0b10001 == 0b10001)
        f1s.append(good / shots)
    sigma = math.sqrt(0.25 / shots)
    for a, b in zip(f1s, f1s[1:]):
        assert b <= a + 3 * math.sqrt(2) * sigma
    assert f1s[-1] < f1s[0] - 3 * sigma


# ---------------------------------------------------------------------------
# Calibration files
# ---------------------------------------------------------------------------

def test_default_calibration_loads(default_cal):
    assert default_cal.n_qubits == 20
    assert all(p.t1 > 0 for p in default_cal.qubits)
    # the deliberately weak qubit
    t1s = [p.t1 for p in default_cal.qubits]
    assert min(t1s) == t1s[7]


def test_shipped_calibration_is_what_its_generator_writes():
    """scripts/generate_calibration.py reproduces the shipped file byte for byte."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "generate_calibration", root / "scripts" / "generate_calibration.py")
    generate_calibration = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate_calibration)
    shipped = root / "src" / "nisq_lab" / "data" / "default_calibration.json"
    assert shipped.read_bytes() == (json.dumps(generate_calibration.build(), indent=2)
                                    + "\n").encode("utf-8")


def test_calibration_unit_conversion():
    raw = {
        "qubits": [{"t1_us": 50.0, "t2_us": 60.0, "omega_mhz": 0.1, "readout_error": 0.01}],
        "durations_ns": {"single": 100, "two_qubit": 300, "measure": 1000},
        "two_qubit_error": 0.02,
    }
    cal = calibration_from_dict(raw)
    assert cal.qubits[0].t1 == pytest.approx(50e-6)
    assert cal.qubits[0].omega == pytest.approx(2 * math.pi * 0.1e6)
    assert cal.durations.two_qubit == pytest.approx(300e-9)


def test_calibration_missing_key_rejected():
    raw = {
        "qubits": [{"t1_us": 50.0, "t2_us": 60.0, "readout_error": 0.0}],
        "durations_ns": {"single": 100, "two_qubit": 300, "measure": 1000},
        "two_qubit_error": 0.0,
    }
    with pytest.raises(CalibrationError):
        calibration_from_dict(raw)


def test_calibration_unphysical_t2_rejected(tmp_path):
    raw = {
        "qubits": [{"t1_us": 10.0, "t2_us": 25.0, "omega_mhz": 0, "readout_error": 0.0}],
        "durations_ns": {"single": 100, "two_qubit": 300, "measure": 1000},
        "two_qubit_error": 0.0,
    }
    p = tmp_path / "cal.json"
    p.write_text(json.dumps(raw))
    with pytest.raises(CalibrationError):
        load_calibration(p)


def test_calibration_hash_stable(default_cal):
    assert default_cal.content_hash() == default_cal.content_hash()
    assert len(default_cal.content_hash()) == 64


def test_content_hash_belongs_to_the_object_not_its_value(tmp_path):
    """Drift -0.0 and 0.0 load as equal calibrations with equal Python
    hashes, but they serialize differently, so each must report the hash of
    its own serialization: a memo keyed by value would give one file's hash
    for the other."""
    cals = []
    for name, omega in (("neg.json", -0.0), ("pos.json", 0.0)):
        path = tmp_path / name
        path.write_text(json.dumps({
            "qubits": [{"t1_us": 50.0, "t2_us": 60.0, "omega_mhz": omega, "readout_error": 0.0}],
            "durations_ns": {"single": 100, "two_qubit": 300, "measure": 1000},
            "two_qubit_error": 0.0,
        }))
        cals.append(load_calibration(path))
    neg, pos = cals

    def fresh(cal):
        blob = json.dumps(cal.to_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    assert neg == pos and hash(neg) == hash(pos)
    assert neg.content_hash() != pos.content_hash()
    assert neg.content_hash() == fresh(neg)
    assert pos.content_hash() == fresh(pos)
    first = neg.content_hash()
    assert neg.content_hash() is first
    assert first == fresh(neg)
