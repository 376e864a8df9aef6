"""Gate ops and circuits, and the conventions of the unitary oracle the
builder tests rely on: bit order, gate actions, unitarity."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nisq_lab.noise import schedule
from nisq_lab.simulator import Circuit, GateOp

from calibrations import flat_cal
from oracles import (
    circuit_unitary,
    cnot_matrix,
    final_state,
    kraus_outcome_probabilities,
    probability_of,
    unitaries_equivalent,
)

SQRT2_INV = 1 / math.sqrt(2)


def test_x_flips_zero_to_one():
    assert np.allclose(final_state(Circuit(1).x(0)), [0, 1])


def test_h_makes_plus_state():
    assert np.allclose(final_state(Circuit(1).h(0)), [SQRT2_INV, SQRT2_INV])


def test_cnot_truth_table_msb_convention():
    # qubit 0 is the most significant label bit: |10> means qubit0=1
    c = Circuit(2).cnot(0, 1)
    assert probability_of(final_state(c, "10"), "11") == pytest.approx(1.0)
    assert probability_of(final_state(c, "01"), "01") == pytest.approx(1.0)


def test_empty_circuit_identity():
    assert probability_of(final_state(Circuit(3), "101"), "101") == pytest.approx(1.0)


def test_h_self_inverse():
    assert np.allclose(final_state(Circuit(1).h(0).h(0)), [1, 0])


def test_x_then_cnot_composition():
    out = final_state(Circuit(2).x(0).cnot(0, 1))
    assert probability_of(out, "11") == pytest.approx(1.0)


def test_rphi_applies_phase_to_one_component():
    out = final_state(Circuit(1).h(0).rphi(math.pi / 3, 0))
    expected = np.array([SQRT2_INV, SQRT2_INV * np.exp(1j * math.pi / 3)])
    assert np.allclose(out, expected)


def test_single_x_unitary():
    u = circuit_unitary(Circuit(1).x(0))
    assert np.allclose(u, [[0, 1], [1, 0]])


def test_cnot_unitary_every_ordered_pair():
    for c in range(3):
        for t in range(3):
            if c == t:
                continue
            u = circuit_unitary(Circuit(3).cnot(c, t))
            assert np.allclose(u, cnot_matrix(c, t, 3)), (c, t)


def test_circuit_unitary_is_unitary():
    c = Circuit(3).h(0).cnot(0, 1).t(1).cnot(1, 2).add(GateOp("SDG", (2,))).rphi(0.7, 0)
    u = circuit_unitary(c)
    assert np.allclose(u.conj().T @ u, np.eye(8), atol=1e-9)


def test_circuit_unitary_size_limit():
    with pytest.raises(ValueError):
        circuit_unitary(Circuit(11))


def test_operand_out_of_range():
    with pytest.raises(ValueError):
        Circuit(1).x(1)
    with pytest.raises(ValueError):
        Circuit(2).cnot(0, 2)


def test_ops_after_measure_rejected():
    c = Circuit(2).x(0).measure(0)
    with pytest.raises(ValueError):
        c.x(1)


def test_rphi_angle_normalized():
    op = GateOp("RPHI", (0,), angle=7 * math.pi)
    assert -2 * math.pi < op.angle <= 2 * math.pi
    assert op.angle == pytest.approx(math.pi)
    u1 = circuit_unitary(Circuit(1).add(op))
    u2 = circuit_unitary(Circuit(1).rphi(math.pi, 0))
    assert np.allclose(u1, u2)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

_gate_strategy = st.sampled_from(["X", "H", "T", "TDG", "S", "SDG", "RPHI"])


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
            angle = draw(st.floats(-4.0, 4.0)) if kind == "RPHI" else 0.0
            c.add(GateOp(kind, (draw(st.integers(0, n - 1)),), angle=angle))
    return c


@given(random_circuits())
@settings(max_examples=40, deadline=None)
def test_norm_preserved_by_random_circuits(c):
    assert abs(np.sum(np.abs(final_state(c)) ** 2) - 1.0) < 1e-10


@given(random_circuits(max_qubits=3, max_ops=6), st.sampled_from(["X", "H"]))
@settings(max_examples=30, deadline=None)
def test_involutions_on_random_states(c, kind):
    twice = Circuit(c.n_qubits, list(c.ops)).add(GateOp(kind, (0,))).add(GateOp(kind, (0,)))
    assert abs(np.vdot(final_state(c), final_state(twice))) >= 1.0 - 1e-10


@given(random_circuits(max_qubits=3, max_ops=6))
@settings(max_examples=30, deadline=None)
def test_cnot_involution(c):
    if c.n_qubits < 2:
        return
    twice = Circuit(c.n_qubits, list(c.ops)).cnot(0, 1).cnot(0, 1)
    assert abs(np.vdot(final_state(c), final_state(twice))) >= 1.0 - 1e-10


@given(random_circuits(max_qubits=5))
@settings(max_examples=40, deadline=None)
def test_unitary_oracle_matches_noiseless_kraus_oracle(c):
    """The unitary oracle's first column and the Kraus oracle's scheduled
    density-matrix evolution, with every channel off, give one law."""
    cal = flat_cal(c.n_qubits)
    measured = Circuit(c.n_qubits, list(c.ops)).measure_all()
    kraus = kraus_outcome_probabilities(schedule(measured, cal.durations), cal)
    assert np.max(np.abs(np.abs(final_state(c)) ** 2 - kraus)) <= 1e-12


def test_unitaries_equivalent_handles_global_phase():
    u = circuit_unitary(Circuit(2).h(0).cnot(0, 1))
    assert unitaries_equivalent(u, np.exp(1j * 0.4) * u)
    assert not unitaries_equivalent(u, np.eye(4, dtype=complex))


def test_circuit_from_dict_reads_angles_delays_and_roles():
    c = Circuit.from_dict({
        "n_qubits": 2,
        "roles": ["control", "target"],
        "ops": [{"kind": "X", "qubits": [0]},
                {"kind": "RPHI", "qubits": [1], "angle": -0.3},
                {"kind": "DELAY", "qubits": [0], "duration": 2e-6},
                {"kind": "CNOT", "qubits": [0, 1]},
                {"kind": "MEASURE", "qubits": [0]},
                {"kind": "MEASURE", "qubits": [1]}],
    })
    assert c.n_qubits == 2
    assert c.roles == ("control", "target")
    assert c.ops == [GateOp("X", (0,)), GateOp("RPHI", (1,), angle=-0.3),
                     GateOp("DELAY", (0,), duration=2e-6), GateOp("CNOT", (0, 1)),
                     GateOp("MEASURE", (0,)), GateOp("MEASURE", (1,))]
