"""Statevector simulator: gate actions, unitarity, sampling, conventions."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nisq_lab.simulator import (
    Circuit,
    GateOp,
    StateVector,
    apply_circuit,
    apply_gate,
    basis_index,
    circuit_unitary,
    sample_shots,
    states_equivalent,
    unitaries_equivalent,
)

SQRT2_INV = 1 / math.sqrt(2)


def test_x_flips_zero_to_one():
    s = apply_gate(StateVector.zero(1), GateOp("X", (0,)))
    assert np.allclose(s.amplitudes, [0, 1])


def test_h_makes_plus_state():
    s = apply_gate(StateVector.zero(1), GateOp("H", (0,)))
    assert np.allclose(s.amplitudes, [SQRT2_INV, SQRT2_INV])


def test_cnot_truth_table_msb_convention():
    # qubit 0 is the most significant label bit: |10> means qubit0=1
    s = apply_gate(StateVector.basis(2, "10"), GateOp("CNOT", (0, 1)))
    assert s.probability_of("11") == pytest.approx(1.0)
    s = apply_gate(StateVector.basis(2, "01"), GateOp("CNOT", (0, 1)))
    assert s.probability_of("01") == pytest.approx(1.0)


def test_empty_circuit_identity():
    s = apply_circuit(StateVector.basis(3, "101"), Circuit(3))
    assert s.probability_of("101") == pytest.approx(1.0)


def test_h_self_inverse():
    c = Circuit(1).h(0).h(0)
    s = apply_circuit(StateVector.zero(1), c)
    assert states_equivalent(s.amplitudes, [1, 0])


def test_x_then_cnot_composition():
    c = Circuit(2).x(0).cnot(0, 1)
    s = apply_circuit(StateVector.zero(2), c)
    assert s.probability_of("11") == pytest.approx(1.0)


def test_rphi_applies_phase_to_one_component():
    c = Circuit(1).h(0).rphi(math.pi / 3, 0)
    s = apply_circuit(StateVector.zero(1), c)
    expected = np.array([SQRT2_INV, SQRT2_INV * np.exp(1j * math.pi / 3)])
    assert np.allclose(s.amplitudes, expected)


def test_single_x_unitary():
    u = circuit_unitary(Circuit(1).x(0))
    assert np.allclose(u, [[0, 1], [1, 0]])


def test_cnot_unitary_every_ordered_pair():
    from oracles import cnot_matrix

    for c in range(3):
        for t in range(3):
            if c == t:
                continue
            u = circuit_unitary(Circuit(3).cnot(c, t))
            assert np.allclose(u, cnot_matrix(c, t, 3)), (c, t)


def test_circuit_unitary_is_unitary():
    c = Circuit(3).h(0).cnot(0, 1).t(1).cnot(1, 2).sdg(2).rphi(0.7, 0)
    u = circuit_unitary(c)
    assert np.allclose(u.conj().T @ u, np.eye(8), atol=1e-9)


def test_circuit_unitary_size_limit():
    with pytest.raises(ValueError):
        circuit_unitary(Circuit(11))


def test_measure_rejected_by_apply_paths():
    with pytest.raises(ValueError):
        apply_gate(StateVector.zero(1), GateOp("MEASURE", (0,)))
    c = Circuit(1).x(0).measure(0)
    with pytest.raises(ValueError):
        apply_circuit(StateVector.zero(1), c)


def test_operand_out_of_range():
    with pytest.raises(ValueError):
        apply_gate(StateVector.zero(1), GateOp("X", (1,)))
    with pytest.raises(ValueError):
        Circuit(2).cnot(0, 2)


def test_ops_after_measure_rejected():
    c = Circuit(2).x(0).measure(0)
    with pytest.raises(ValueError):
        c.x(1)


def test_sample_deterministic_state():
    counts = sample_shots(StateVector.basis(3, "101"), 100, seed=0)
    assert counts == {0b101: 100}


def test_sample_plus_state_within_binomial_error():
    s = apply_gate(StateVector.zero(1), GateOp("H", (0,)))
    counts = sample_shots(s, 8000, seed=42)
    sigma = math.sqrt(0.25 / 8000)
    assert abs(counts.get(1, 0) / 8000 - 0.5) < 5 * sigma


def test_sample_same_seed_identical():
    s = apply_circuit(StateVector.zero(2), Circuit(2).h(0).cnot(0, 1))
    assert sample_shots(s, 500, seed=7) == sample_shots(s, 500, seed=7)


def test_sample_requires_positive_shots():
    with pytest.raises(ValueError):
        sample_shots(StateVector.zero(1), 0)


def test_label_round_trip_exhaustive():
    for n in range(1, 11):
        for i in range(1 << n):
            assert basis_index(format(i, f"0{n}b")) == i


def test_rphi_angle_normalized():
    op = GateOp("RPHI", (0,), angle=7 * math.pi)
    assert -2 * math.pi < op.angle <= 2 * math.pi
    u1 = circuit_unitary(Circuit(1).add(op))
    u2 = circuit_unitary(Circuit(1).rphi(math.pi, 0))
    assert np.allclose(u1, u2)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

_gate_strategy = st.sampled_from(["X", "H", "T", "TDG", "S", "SDG"])


@st.composite
def random_circuits(draw, max_qubits=4, max_ops=12):
    n = draw(st.integers(1, max_qubits))
    c = Circuit(n)
    for _ in range(draw(st.integers(0, max_ops))):
        if n >= 2 and draw(st.booleans()):
            q = draw(st.integers(0, n - 1))
            p = draw(st.integers(0, n - 2))
            target = p if p < q else p + 1
            c.cnot(q, target)
        else:
            kind = draw(_gate_strategy)
            c.add(GateOp(kind, (draw(st.integers(0, n - 1)),)))
    return c


@given(random_circuits())
@settings(max_examples=40, deadline=None)
def test_norm_preserved_by_random_circuits(c):
    s = apply_circuit(StateVector.zero(c.n_qubits), c)
    assert abs(np.sum(np.abs(s.amplitudes) ** 2) - 1.0) < 1e-10


@given(random_circuits(max_qubits=3, max_ops=6), st.sampled_from(["X", "H"]))
@settings(max_examples=30, deadline=None)
def test_involutions_on_random_states(c, kind):
    s = apply_circuit(StateVector.zero(c.n_qubits), c)
    op = GateOp(kind, (0,))
    twice = apply_gate(apply_gate(s, op), op)
    overlap = abs(np.vdot(s.amplitudes, twice.amplitudes))
    assert overlap >= 1.0 - 1e-10


@given(random_circuits(max_qubits=3, max_ops=6))
@settings(max_examples=30, deadline=None)
def test_cnot_involution(c):
    if c.n_qubits < 2:
        return
    s = apply_circuit(StateVector.zero(c.n_qubits), c)
    op = GateOp("CNOT", (0, 1))
    twice = apply_gate(apply_gate(s, op), op)
    assert abs(np.vdot(s.amplitudes, twice.amplitudes)) >= 1.0 - 1e-10


def test_unitaries_equivalent_handles_global_phase():
    u = circuit_unitary(Circuit(2).h(0).cnot(0, 1))
    assert unitaries_equivalent(u, np.exp(1j * 0.4) * u)
    assert not unitaries_equivalent(u, np.eye(4, dtype=complex))


def test_circuit_dict_round_trip():
    c = Circuit(2, roles=("control", "target")).x(0).rphi(-0.3, 1).cnot(0, 1).measure(0).measure(1)
    c2 = Circuit.from_dict(c.to_dict())
    assert c2.n_qubits == c.n_qubits
    assert c2.roles == c.roles
    assert [op.kind for op in c2.ops] == [op.kind for op in c.ops]
    assert c2.ops[1].angle == pytest.approx(c.ops[1].angle)
