"""Scheduling, idle channels, trajectory engines, and calibration files."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nisq_lab.noise import (
    _exact_probabilities,
    _run_dense_batch,
    CalibrationError,
    DeviceCalibration,
    DurationModel,
    QubitNoiseParams,
    SimulationError,
    apply_idle_noise,
    calibration_from_dict,
    derive_tphi,
    load_calibration,
    run_shots,
    schedule,
    simulate_noisy_shot,
)
from nisq_lab.simulator import (
    Circuit,
    GateOp,
    StateVector,
    apply_circuit,
    apply_gate,
    basis_label,
    sample_shots,
)

from oracles import kraus_outcome_probabilities

INF = math.inf


def flat_cal(n, t1=INF, t2=INF, omega=0.0, readout=0.0, p2=0.0, durations=None):
    return DeviceCalibration(
        qubits=tuple(QubitNoiseParams(t1=t1, t2=t2, omega=omega, readout_error=readout)
                     for _ in range(n)),
        durations=durations or DurationModel(),
        two_qubit_error=p2,
    )


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
    flat = sched.flattened()
    for q in range(c.n_qubits):
        original = [op for op in c.ops if q in op.qubits]
        scheduled = [op for op in flat if q in op.qubits]
        assert original == scheduled


# ---------------------------------------------------------------------------
# Idle channel
# ---------------------------------------------------------------------------

def test_idle_zero_interval_is_identity():
    rng = np.random.default_rng(0)
    s = apply_gate(StateVector.zero(1), GateOp("H", (0,)))
    out = apply_idle_noise(s, 0, 0.0, QubitNoiseParams(30e-6, 40e-6, omega=1e6), rng)
    assert np.allclose(out.amplitudes, s.amplitudes)


def test_idle_negative_interval_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        apply_idle_noise(StateVector.zero(1), 0, -1.0, QubitNoiseParams(30e-6, 40e-6), rng)


def test_excited_survival_at_t1_over_trajectories():
    t1 = 50e-6
    params = QubitNoiseParams(t1=t1, t2=2 * t1)
    rng = np.random.default_rng(123)
    trials = 20000
    survived = 0
    one = StateVector.basis(1, "1")
    for _ in range(trials):
        out = apply_idle_noise(one, 0, t1, params, rng)
        survived += int(abs(out.amplitudes[1]) ** 2 > 0.5)
    expected = math.exp(-1.0)
    sigma = math.sqrt(expected * (1 - expected) / trials)
    assert abs(survived / trials - expected) < 5 * sigma


def test_drift_rotation_exact():
    # |+> with omega*dt = pi, then H: P(|0>) = cos^2(pi/2) = 0
    dt = 1e-6
    params = QubitNoiseParams(t1=INF, t2=INF, omega=math.pi / dt)
    rng = np.random.default_rng(0)
    plus = apply_gate(StateVector.zero(1), GateOp("H", (0,)))
    out = apply_idle_noise(plus, 0, dt, params, rng)
    out = apply_gate(out, GateOp("H", (0,)))
    assert out.probability_of("0") == pytest.approx(0.0, abs=1e-12)


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
        assert abs(counts.get("1", 0) / shots - expected) <= 5 * sigma


# ---------------------------------------------------------------------------
# Noisy shot engine
# ---------------------------------------------------------------------------

def test_noiseless_limit_matches_sample_shots_deterministic():
    cal = flat_cal(3)
    c = Circuit(3).x(0).cnot(0, 1).cnot(1, 2).measure(0).measure(1).measure(2)
    counts = run_shots(schedule(c, cal.durations), cal, 400, 5)
    assert counts == {"111": 400}


def _trajectory_counts(sched, cal, shots, seed):
    """Counts from the dense trajectory batch on run_shots's stream for it,
    whatever engine run_shots itself would pick for the cell."""
    outcomes = _run_dense_batch(sched, cal, shots, np.random.default_rng([seed, 2]))
    values, counts = np.unique(outcomes, return_counts=True)
    return {basis_label(int(v), sched.n_qubits): int(c) for v, c in zip(values, counts)}


# run_shots sends the next three cells to the exact engine (2**n <= shots);
# each *_on_trajectories twin runs the same check on the trajectory batch,
# which serves wider cells

def test_noiseless_limit_matches_sample_shots_distribution(run=run_shots):
    cal = flat_cal(2)
    c = Circuit(2).h(0).cnot(0, 1).measure(0).measure(1)
    counts = run(schedule(c, cal.durations), cal, 8000, 5)
    ideal = apply_circuit(StateVector.zero(2), Circuit(2).h(0).cnot(0, 1))
    reference = sample_shots(ideal, 8000, seed=6)
    assert set(counts) == set(reference) == {"00", "11"}
    sigma = math.sqrt(0.25 / 8000)
    assert abs(counts["11"] / 8000 - 0.5) < 5 * sigma


def test_noiseless_limit_matches_sample_shots_distribution_on_trajectories():
    test_noiseless_limit_matches_sample_shots_distribution(_trajectory_counts)


def test_echo_refocuses_pure_drift_exactly(run=run_shots):
    cal = flat_cal(1, omega=2 * math.pi * 0.25e6)
    for dt in (1e-6, 8e-6, 21e-6):
        c = Circuit(1).h(0).delay(dt / 2, 0).x(0).delay(dt / 2, 0).h(0).measure(0)
        counts = run(schedule(c, cal.durations), cal, 2000, 3)
        assert counts == {"0": 2000}


def test_echo_refocuses_pure_drift_exactly_on_trajectories():
    test_echo_refocuses_pure_drift_exactly(_trajectory_counts)


def test_ramsey_damped_cosine_closed_form(run=run_shots):
    t2 = 40e-6
    omega = 2 * math.pi * 0.1e6
    cal = flat_cal(1, t1=INF, t2=t2, omega=omega)
    shots = 20000
    for dt in (0.0, 4e-6, 9e-6, 15e-6, 26e-6):
        c = Circuit(1).h(0)
        if dt > 0:
            c.delay(dt, 0)
        c.h(0).measure(0)
        counts = run(schedule(c, cal.durations), cal, shots, 17)
        # the superposition also evolves during the 100 ns pre-H layer
        tau = dt + 100e-9
        expected = 0.5 * (1 + math.exp(-tau / t2) * math.cos(omega * tau))
        sigma = math.sqrt(max(expected * (1 - expected), 1e-9) / shots)
        assert abs(counts.get("0", 0) / shots - expected) <= 5 * sigma


def test_ramsey_damped_cosine_closed_form_on_trajectories():
    test_ramsey_damped_cosine_closed_form(_trajectory_counts)


def test_seed_determinism():
    cal = flat_cal(2, t1=30e-6, t2=40e-6, p2=0.02, readout=0.01)
    c = Circuit(2).x(0).cnot(0, 1).measure(0).measure(1)
    sched = schedule(c, cal.durations)
    assert run_shots(sched, cal, 1000, 42) == run_shots(sched, cal, 1000, 42)
    assert run_shots(sched, cal, 1000, 42) != run_shots(sched, cal, 1000, 43)


def test_single_shot_deterministic_and_labelled():
    cal = flat_cal(2, t1=30e-6, t2=40e-6)
    c = Circuit(2).x(0).cnot(0, 1).measure(0).measure(1)
    sched = schedule(c, cal.durations)
    label = simulate_noisy_shot(sched, cal, 7)
    assert label == simulate_noisy_shot(sched, cal, 7)
    assert len(label) == 2 and set(label) <= {"0", "1"}


def test_classical_and_dense_paths_agree_in_distribution():
    """The bit-vector fast path and the exact engine sample the same law.

    The phase gate makes the second circuit non-classical; at 40000 shots
    its 2 qubits go to the exact density-matrix engine (2**n <= shots)."""
    cal = flat_cal(2, t1=20e-6, t2=30e-6, p2=0.05, readout=0.02)
    classical = Circuit(2).x(0).cnot(0, 1).delay(10e-6, 1).measure(0).measure(1)
    sched = schedule(classical, cal.durations)
    shots = 40000
    counts_bits = run_shots(sched, cal, shots, 11)  # classical path
    # force the exact engine with an irrelevant phase gate (identity on |0>)
    dense_circuit = Circuit(2).rphi(0.0, 0).x(0).cnot(0, 1).delay(10e-6, 1).measure(0).measure(1)
    counts_dense = run_shots(schedule(dense_circuit, cal.durations), cal, shots, 11)
    for key in sorted(set(counts_bits) | set(counts_dense)):
        p = counts_bits.get(key, 0) / shots
        q = counts_dense.get(key, 0) / shots
        sigma = math.sqrt((p * (1 - p) + q * (1 - q)) / shots + 1e-12)
        assert abs(p - q) <= 5 * sigma, f"{key}: {p} vs {q}"


@st.composite
def noisy_cells(draw, max_qubits):
    """A random scheduled circuit over H/T/S/RPHI/X/CNOT/DELAY with a random
    calibration: finite or infinite T1/T2, drift, readout and CNOT errors."""
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
    kinds = ["H", "T", "S", "RPHI", "X", "DELAY"] + (["CNOT"] if n > 1 else [])
    c = Circuit(n)
    for _ in range(draw(st.integers(1, 10))):
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


@given(noisy_cells(max_qubits=3))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_exact_engine_matches_kraus_oracle(cell):
    sched, cal = cell
    exact = _exact_probabilities(sched, cal)
    oracle = kraus_outcome_probabilities(sched, cal)
    assert np.max(np.abs(exact - oracle)) <= 1e-12


def _within_5_sigma(count: int, shots: int, p: float) -> bool:
    """A 5-sigma binomial bound in Bernstein's form, which stays valid for
    rare outcomes where the normal approximation does not: it is
    5 sqrt(shots p (1 - p)) for common outcomes, plus about 4 counts."""
    slack = 25.0 / 6.0
    return abs(count - shots * p) <= slack + math.sqrt(slack**2 + 25.0 * shots * p * (1 - p))


# derandomized: a sampled histogram against a bound must see the same
# examples on every run
@given(noisy_cells(max_qubits=4))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_trajectory_histograms_match_exact_distribution(cell):
    sched, cal = cell
    shots = 4000
    probs = _exact_probabilities(sched, cal)
    outcomes = _run_dense_batch(sched, cal, shots, np.random.default_rng(0))
    counts = np.bincount(outcomes, minlength=len(probs))
    for k, (count, p) in enumerate(zip(counts, probs)):
        label = basis_label(k, sched.n_qubits)
        assert _within_5_sigma(int(count), shots, float(p)), f"{label}: {count} vs {shots * p}"


def test_exact_engine_runs_when_basis_fits_in_shots():
    """Non-classical cells draw a multinomial from the exact distribution
    when 2**n <= shots, and run trajectories otherwise."""
    cal = flat_cal(2, t1=20e-6, t2=30e-6, p2=0.05, readout=0.02)
    sched = schedule(Circuit(2).h(0).cnot(0, 1).measure_all(), cal.durations)
    probs = _exact_probabilities(sched, cal)
    draws = np.random.default_rng([5, 3]).multinomial(4, probs)
    exact = {basis_label(k, 2): int(c) for k, c in enumerate(draws) if c}
    assert run_shots(sched, cal, 4, 5) == exact
    outcomes = _run_dense_batch(sched, cal, 3, np.random.default_rng([5, 2]))
    values, counts = np.unique(outcomes, return_counts=True)
    trajectories = {basis_label(int(v), 2): int(c) for v, c in zip(values, counts)}
    assert run_shots(sched, cal, 3, 5) == trajectories


@pytest.mark.parametrize("prep, shots", [("x", 10), ("h", 10), ("h", 3)],
                         ids=["classical", "exact", "trajectory"])
def test_missing_seed_rejected(prep, shots):
    cal = flat_cal(2)
    c = Circuit(2)
    getattr(c, prep)(0)
    sched = schedule(c.cnot(0, 1).measure_all(), cal.durations)
    with pytest.raises(ValueError, match="seed"):
        run_shots(sched, cal, shots, None)


def test_readout_error_flips_bits():
    cal = flat_cal(1, readout=0.25, durations=DurationModel(measurement=0.0))
    c = Circuit(1).x(0).measure(0)
    counts = run_shots(schedule(c, cal.durations), cal, 20000, 21)
    frac0 = counts.get("0", 0) / 20000
    assert abs(frac0 - 0.25) < 5 * math.sqrt(0.25 * 0.75 / 20000)


def test_depolarizing_error_rate_applied():
    cal = flat_cal(2, p2=0.3, durations=DurationModel(measurement=0.0))
    c = Circuit(2).x(0).cnot(0, 1).measure(0).measure(1)
    counts = run_shots(schedule(c, cal.durations), cal, 20000, 31)
    # 8/15 of sampled二Paulis flip each operand bit; P(|11> stays) =
    # 1 - p + p * P(neither bit flipped among the 15) = 1 - p + p * (7/15... )
    # count directly instead: both-bit marginal flip probability = p*8/15 each
    frac11 = counts.get("11", 0) / 20000
    # exact: of the 15 non-identity pairs, those with I or Z on BOTH operands
    # (ZI, IZ, ZZ = 3) leave |11> unchanged
    expected = 0.7 + 0.3 * (3 / 15)
    assert abs(frac11 - expected) < 5 * math.sqrt(expected * (1 - expected) / 20000)


def test_large_nonclassical_circuit_rejected():
    cal = flat_cal(16)
    c = Circuit(16).h(0)
    for i in range(15):
        c.cnot(i, i + 1)
    c.measure_all()
    with pytest.raises(SimulationError):
        run_shots(schedule(c, cal.durations), cal, 10, 0)


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
        good = sum(v for k, v in counts.items() if k[0] == "1" and k[-1] == "1")
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
