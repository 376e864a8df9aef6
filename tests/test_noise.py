"""Scheduling, idle channels, the bit-vector and exact engines, and calibration files."""
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
from nisq_lab.noise import (
    _channel_rates,
    _exact_probabilities,
    _event_hits,
    _idle_windows,
    _run_classical,
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
from oracles import final_state, kraus_outcome_probabilities

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


def test_classical_and_dense_paths_agree_in_distribution():
    """The bit-vector engine and the exact engine sample the same law.

    The phase gate makes the second circuit non-classical, so it runs on
    the exact engine's full Pauli legs."""
    cal = flat_cal(2, t1=20e-6, t2=30e-6, p2=0.05, readout=0.02)
    classical = Circuit(2).x(0).cnot(0, 1).delay(10e-6, 1).measure(0).measure(1)
    sched = schedule(classical, cal.durations)
    shots = 40000
    values, counts = np.unique(_run_classical(sched, cal, shots, np.random.default_rng(11)),
                               return_counts=True)
    counts_bits = dict(zip(values.tolist(), counts.tolist()))
    # force the exact engine with an irrelevant phase gate (identity on |0>)
    dense_circuit = Circuit(2).rphi(0.0, 0).x(0).cnot(0, 1).delay(10e-6, 1).measure(0).measure(1)
    counts_dense = run_shots(schedule(dense_circuit, cal.durations), cal, shots, 11)
    for key in sorted(set(counts_bits) | set(counts_dense)):
        p = counts_bits.get(key, 0) / shots
        q = counts_dense.get(key, 0) / shots
        sigma = math.sqrt((p * (1 - p) + q * (1 - q)) / shots + 1e-12)
        assert abs(p - q) <= 5 * sigma, f"{key}: {p} vs {q}"


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
        assert noise._kept(bound, noise._exact_plan) is noise._kept(sched, noise._exact_plan)
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
    """A stack of distinct calibrations peaks within ``_stacked_need`` per
    calibration: at 3-4 qubits the calibrations' own matrices outweigh
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
    assert peak <= noise._stacked_need(sched) * stack
    if n <= 4:  # the coefficients' term alone would not cover it
        assert peak > noise._DENSE_PEAK_COPIES * 8 * 4**n * stack
    return peak


# ---------------------------------------------------------------------------
# The greedy contraction order
# ---------------------------------------------------------------------------

def _in_each_order(monkeypatch):
    """Yield each contraction order, with _GREEDY_CROSSOVER set so that
    every exact plan built meanwhile records it."""
    for order, crossover in (("greedy", 0), ("time", math.inf)):
        monkeypatch.setattr(noise, "_GREEDY_CROSSOVER", crossover)
        yield order


def _planned_order(sched):
    """The order that the schedule's kept exact plan records, checked
    against its steps: time order takes each tensor in turn, on the left,
    into the product of all before it, and the greedy order does not."""
    plan = sched.__dict__["plans"][noise._exact_plan]
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
    assert peak > noise._stacked_need(sched) * stack / 2


def test_a_greedy_chain_of_14_qubits_is_refused_and_never_kept(monkeypatch):
    """The greedy order would hold little of a 14-qubit chain, but the
    exact engine still refuses 14 qubits in either order: run_shots raises
    before computing anything, and keep_distributions keeps nothing."""
    sched, cal = _wide_chain_cell(14)
    assert noise._stacked_need(sched) < noise._MEMORY_BUDGET
    monkeypatch.setattr(noise, "_exact_probabilities", None)  # any call would fail
    noise.keep_distributions([(sched, cal), (sched, replace(cal, two_qubit_error=0.01))])
    assert "distributions" not in sched.__dict__
    with pytest.raises(SimulationError, match="exact engine would need about"):
        run_shots(sched, cal, 10, 0)


_SUBCOMMANDS = ("t1", "t2-ramsey", "t2-echo", "cnot-chain", "ccnot-survey", "qft-perfect",
                "qpe-sweep")


def test_cli_structures_stay_in_time_order_and_wide_chains_go_greedy(tmp_path, monkeypatch):
    """Every exact structure the seven subcommands build at default
    settings peaks at 4,096 coefficients per row in time order and runs in
    it, t1 and the chains of up to 12 qubits among them, on (r_I, r_Z) legs,
    and the wide chains go greedy above _GREEDY_CROSSOVER (9 and 10 qubits)
    and not below."""
    from nisq_lab.cli import main

    peaks = {}
    real = noise._exact_probabilities

    def recording(rows):
        probs = real(rows)
        peaks.setdefault(command, []).append(
            (rows[0][0].__dict__["plans"][noise._exact_plan].peak, _planned_order(rows[0][0])))
        return probs

    monkeypatch.setattr(noise, "_exact_probabilities", recording)
    for command in _SUBCOMMANDS:
        assert main([command, "--seed", "7", "--out", str(tmp_path / command)]) == 0
    assert sorted(peaks) == sorted(_SUBCOMMANDS)
    runs = [run for command in peaks for run in peaks[command]]
    assert max(peak for peak, _ in runs) == 4096 and all(order == "time" for _, order in runs)
    for width in range(6, 11):
        sched, cal = _wide_chain_cell(width)
        real([(sched, cal)])
        peak = noise._kept(sched, noise._exact_plan).peak
        assert (peak > noise._GREEDY_CROSSOVER) == (width >= 9)
        assert (_planned_order(sched) == "greedy") == (width >= 9)
        # one kept plan in either order; a greedy one has no time-order steps
        assert list(sched.__dict__["plans"]) == [noise._exact_plan]


def _within_sigmas(count: int, shots: int, p: float, z: float) -> bool:
    """A z-sigma binomial bound in Bernstein's form, which stays valid for
    rare outcomes where the normal approximation does not: it is
    z sqrt(shots p (1 - p)) for common outcomes, plus about z**2 / 6
    counts, and a correct count falls outside it with probability at most
    2 exp(-z**2 / 2)."""
    slack = z * z / 6.0
    return abs(count - shots * p) <= slack + math.sqrt(slack**2 + z * z * shots * p * (1 - p))


def _within_5_sigma(count: int, shots: int, p: float) -> bool:
    return _within_sigmas(count, shots, p, 5.0)


# X/CNOT/DELAY circuits run on the bit-vector engine, whose idle windows
# span many layers; up to 16 ops on n <= 4 qubits leave long idle gaps.
# Derandomized: a sampled histogram against a bound must see the same
# examples on every run.
@given(noisy_cells(max_qubits=4, kinds=("X", "DELAY"), max_ops=16))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_classical_histograms_match_exact_distribution(cell):
    sched, cal = cell
    shots = 4000
    [probs] = _exact_probabilities([(sched, cal)])
    outcomes = _run_classical(sched, cal, shots, np.random.default_rng(0))
    counts = np.bincount(outcomes, minlength=len(probs))
    for k, (count, p) in enumerate(zip(counts, probs)):
        label = format(k, f"0{sched.n_qubits}b")
        assert _within_5_sigma(int(count), shots, float(p)), f"{label}: {count} vs {shots * p}"


@pytest.mark.parametrize("shots", [1, 250, 4000])
@pytest.mark.parametrize("p", [1e-300, 0.003, 0.05, 0.3, 0.9, 1.0])
def test_hits_are_distinct_rows_at_rate_p(monkeypatch, shots, p):
    """Each event's rows are distinct and in range, and every row, the first
    and last included, is hit with probability p. Three events drawn in one
    group are independent: two of them hit a row together with probability
    p**2. A depolarized CNOT's patterns are the X/Y flips of a uniform
    non-identity Pauli pair: none on 3 of the 15 pairs, and each of the
    three others on 4. All of this holds again with a first budget of one
    gap, where every event that hits a row draws on past it."""
    events = [(p, (0,)), (p, (1,)), (p, (2, 3))]
    monkeypatch.setattr(noise, "_GROUP_BUDGET", len(events))  # room for all three
    _check_event_hits(np.random.default_rng([shots, int(p * 1000)]), shots, events)
    with monkeypatch.context() as m:
        m.setattr(noise, "_gap_budget", lambda shots, p: 1)
        longest = _check_event_hits(np.random.default_rng([shots, int(p * 1000), 1]),
                                    shots, events)
    if shots * p > 5:
        assert longest > 1  # rows past the first gap: the top-up ran


def _check_event_hits(rng, shots, events) -> int:
    """Check ``_event_hits`` over 400 draws of three events of one
    probability (see above); return the most rows an event hit."""
    p = events[0][0]
    budget = sum(noise._gap_budget(shots, q) for q, _ in events)
    assert budget <= noise._GROUP_BUDGET * (shots + 1)  # one group
    draws = 400
    total = first = last = together = longest = 0
    patterns = np.zeros(16, dtype=np.int64)
    for _ in range(draws):
        hits = list(_event_hits(rng, shots, events))
        assert len(hits) == len(events)
        for rows, _ in hits:
            assert np.all(np.diff(rows) > 0)
            assert rows.size == 0 or (rows[0] >= 0 and rows[-1] < shots)
            assert _within_5_sigma(rows.size, shots, p)
            total += rows.size
            first += int(rows.size > 0 and rows[0] == 0)
            last += int(rows.size > 0 and rows[-1] == shots - 1)
            longest = max(longest, rows.size)
        assert [pattern for _, pattern in hits[:2]] == [0b1, 0b10]
        hit_by_first = np.zeros(shots, dtype=bool)
        hit_by_first[hits[0][0]] = True
        together += np.count_nonzero(hit_by_first[hits[1][0]])
        rows, pattern = hits[2]
        assert pattern.shape == rows.shape
        patterns += np.bincount(pattern, minlength=16)
    assert _within_5_sigma(total, 3 * draws * shots, p)
    assert _within_5_sigma(first, 3 * draws, p)
    assert _within_5_sigma(last, 3 * draws, p)
    assert _within_5_sigma(together, draws * shots, p * p)
    pair_hits = int(patterns.sum())
    assert patterns[[0b0000, 0b0100, 0b1000, 0b1100]].sum() == pair_hits
    for flips, share in ((0b0000, 3 / 15), (0b0100, 4 / 15), (0b1000, 4 / 15), (0b1100, 4 / 15)):
        assert _within_5_sigma(int(patterns[flips]), pair_hits, share)
    return longest


def _chain_cell(links, strategy, orientation):
    """A chain cell as ``cnot-chain`` runs it, on the shipped calibration."""
    path = topology.chain_paths(topology.shipped_poughkeepsie(), orientation)[:links + 1]
    built = builders.cnot_chain(path, strategy)
    cal = noise.default_calibration().subset(built.layout)
    return schedule(Circuit(len(path), built.circuit.ops).measure_all(), cal.durations), cal


# ---------------------------------------------------------------------------
# Classical structures on (r_I, r_Z) legs, and which engine runs them
# ---------------------------------------------------------------------------

# Derandomized: every run of the suite checks the same examples.
@given(noisy_cells(max_qubits=7, kinds=("X", "DELAY"), max_ops=16))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_classical_legs_match_kraus_oracle(cell):
    """An X/CNOT/DELAY circuit is planned on (r_I, r_Z) legs, and gives the
    independent oracle's distribution within 1e-12."""
    sched, cal = cell
    [got] = _exact_probabilities([(sched, cal)])
    assert noise._kept(sched, noise._exact_plan).leg == 2
    assert np.max(np.abs(got - kraus_outcome_probabilities(sched, cal))) <= 1e-12


@pytest.mark.parametrize("strategy", builders.RESET_STRATEGIES)
def test_classical_legs_match_full_legs_on_chain_cells(monkeypatch, strategy):
    """Every chain cell that the exact engine runs, of 2 to 12 qubits on
    each orientation, gives on (r_I, r_Z) legs what the full 4-coefficient
    legs give, within 1e-15; the full legs are forced by declaring no kind
    classical. Each qubit gets its own readout error."""
    for orientation in range(1, 5):
        for links in range(1, noise._EXACT_CLASSICAL_QUBITS):
            sched, cal = _chain_cell(links, strategy, orientation)
            cal = replace(cal, qubits=tuple(replace(p, readout_error=0.01 * (q % 4))
                                            for q, p in enumerate(cal.qubits)))
            [legs_iz] = _exact_probabilities([(sched, cal)])
            assert noise._kept(sched, noise._exact_plan).leg == 2
            with monkeypatch.context() as m:
                m.setattr(noise, "_CLASSICAL_KINDS", frozenset())
                full = replace(sched)
                [legs_full] = _exact_probabilities([(full, cal)])
                assert noise._kept(full, noise._exact_plan).leg == 4
            assert np.max(np.abs(legs_iz - legs_full)) <= 1e-15, (orientation, links)


def test_chains_of_12_qubits_run_exact_and_of_13_on_bit_vectors():
    """A 12-qubit chain cell draws its counts from its exact distribution
    on stream 3 of the seed, and its stacked rows keep distributions; a
    13-qubit one runs as bit-vector trajectories on stream 1, and its
    stacked rows keep dampings. Neither builds the other engine's plan."""
    assert noise._EXACT_CLASSICAL_QUBITS == 12
    rows = {}
    for links, engine in ((11, "exact"), (12, "bit-vector")):
        sched, cal = _chain_cell(links, "cnot-reset", 2)
        if engine == "exact":
            [probs] = _exact_probabilities([(replace(sched), cal)])
            draws = np.random.default_rng([5, 3]).multinomial(4000, probs)
            want = {k: int(c) for k, c in enumerate(draws) if c}
        else:
            rng = np.random.default_rng([5, 1])
            values, counts = np.unique(_run_classical(replace(sched), cal, 4000, rng),
                                       return_counts=True)
            want = dict(zip(values.tolist(), counts.tolist()))
        assert run_shots(sched, cal, 4000, 5) == want
        other = noise._bit_plan if engine == "exact" else noise._exact_plan
        assert other not in sched.__dict__["plans"]
        stacked = replace(sched)
        noise.keep_distributions([(stacked, cal), (stacked, replace(cal, two_qubit_error=0.02))])
        rows[engine] = stacked.__dict__
    assert "distributions" in rows["exact"] and "dampings" not in rows["exact"]
    assert "dampings" in rows["bit-vector"] and "distributions" not in rows["bit-vector"]


@pytest.mark.parametrize("strategy", ["none", "cnot-reset"])
@pytest.mark.parametrize("stack", [1, 4])
def test_stacked_exact_peak_memory_within_estimate_on_classical_chains(strategy, stack):
    """The widest chains that the exact engine runs, 12 qubits on (r_I,
    r_Z) legs, at one calibration and at a chain shape's 4, peak within
    ``_stacked_need`` per row."""
    sched, _ = _chain_cell(noise._EXACT_CLASSICAL_QUBITS - 1, strategy, 1)
    _assert_stacked_peak_within_estimate(sched, noise._EXACT_CLASSICAL_QUBITS, stack)
    assert noise._kept(sched, noise._exact_plan).leg == 2


def test_one_bit_vector_schedule_runs_on_every_placement_like_fresh_schedules():
    """The bit-vector plan kept on a ScheduledCircuit holds nothing of a
    calibration: one 20-qubit chain schedule run under two orientations'
    calibrations, in either order, counts what each orientation's own fresh
    schedule counts at the same seed key. Each qubit gets its own readout
    error, so that readout events differ between the placements too."""
    base = noise.default_calibration()
    cal = replace(base, qubits=tuple(replace(p, readout_error=0.002 * (q % 7))
                                     for q, p in enumerate(base.qubits)))
    cells = []
    for orientation in (1, 2):
        path = topology.chain_paths(topology.shipped_poughkeepsie(), orientation)[:20]
        built = builders.cnot_chain(path, "x-reset")
        sub = cal.subset(built.layout)
        circuit = Circuit(20, built.circuit.ops).measure_all()
        cells.append((schedule(circuit, sub.durations), sub, [7, orientation]))
    (sched, cal_a, _), (sched_b, cal_b, _) = cells
    assert sched == sched_b and cal_a != cal_b  # one local circuit, two calibrations
    fresh = [run_shots(*cell[:2], 4000, cell[2]) for cell in cells]
    assert fresh[0] != fresh[1]
    for order in ((0, 1), (1, 0)):
        shared = replace(sched)
        for i in order:
            assert run_shots(shared, cells[i][1], 4000, cells[i][2]) == fresh[i]


def test_bit_vector_plan_is_built_once_per_schedule(monkeypatch):
    """Runs after the first reuse the plan kept on the ScheduledCircuit (a
    14-qubit chain, which the bit-vector engine runs)."""
    calls = []
    real = noise._idle_windows
    monkeypatch.setattr(noise, "_idle_windows", lambda s: calls.append(s) or real(s))
    sched, cal = _chain_cell(13, "x-reset", 1)
    counts = [run_shots(sched, cal, 100, seed) for seed in (1, 2, 1)]
    assert len(calls) == 1
    assert counts[0] == counts[2]


@pytest.mark.parametrize("group_budget", [None, 0.05])
def test_bit_vector_law_at_scale_on_a_chain_cell(monkeypatch, group_budget):
    """The 8-qubit cnot-reset chain along orientation 1 at 200k shots
    matches its exact distribution in every one of the 256 bins. Its 40
    events are 13 depolarized CNOTs and 27 damping windows, 8 of them open
    at readout, where the weak qubit's reaches gamma = 0.21 (the shipped
    calibration has no readout error). Drawn in one group, as by default,
    and in groups cut so small that it takes 22 of 1-3 events each.

    Each bin's bound is Bernstein's at 5.5 sigma, so a correct engine fails
    a bin with probability at most 2 exp(-5.5**2 / 2) = 5.4e-7 and the
    test at most 256 times that, 1.4e-4 (Bonferroni)."""
    if group_budget is not None:
        monkeypatch.setattr(noise, "_GROUP_BUDGET", group_budget)
    sched, cal = _chain_cell(7, "cnot-reset", 1)
    shots = 200_000
    [probs] = _exact_probabilities([(sched, cal)])
    counts = np.bincount(_run_classical(sched, cal, shots, np.random.default_rng(5)),
                         minlength=len(probs))
    for k, (count, p) in enumerate(zip(counts, probs)):
        assert _within_sigmas(int(count), shots, float(p), 5.5), f"{k:08b}: {count} vs {shots * p}"


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
    """A shot is one int64, so bit-vector circuits run up to 63 qubits and
    are refused above."""
    cal = flat_cal(n)
    c = Circuit(n).x(0)
    for i in range(n - 1):
        c.cnot(i, i + 1)
    sched = schedule(c.measure_all(), cal.durations)
    if n == 63:
        assert run_shots(sched, cal, 10, 0) == {(1 << n) - 1: 10}
    else:
        with pytest.raises(SimulationError, match="above 63 qubits"):
            run_shots(sched, cal, 10, 0)


def test_memory_budget_rejects_dense_runs_before_allocating(monkeypatch):
    """The pre-flight estimate is one row's ``_stacked_need`` on the exact
    engine (at any shot count), and _CLASSICAL_PEAK_COPIES * 8 B per shot
    on the bit-vector engine, which runs a 13-qubit X + CNOT ladder."""
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
    classical_need = noise._CLASSICAL_PEAK_COPIES * 8 * 10
    monkeypatch.setattr(noise, "_MEMORY_BUDGET", classical_need)
    run_shots(classical, cal, 10, 0)
    monkeypatch.setattr(noise, "_MEMORY_BUDGET", classical_need - 1)
    with pytest.raises(SimulationError, match="bit-vector engine"):
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


def test_bit_vector_peak_memory_within_estimate():
    """The bit-vector estimate covers the worst case, where every shot reads
    a distinct outcome and the returned counts dominate the peak."""
    import tracemalloc

    n, shots = 62, 200_000
    cal = flat_cal(n, readout=0.45)
    sched = schedule(Circuit(n).x(0).measure_all(), cal.durations)
    tracemalloc.start()
    try:
        counts = run_shots(sched, cal, shots, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(counts) == shots
    assert peak <= noise._CLASSICAL_PEAK_COPIES * 8 * shots


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
