"""Circuit constructions checked against exact unitary oracles."""
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from nisq_lab import builders, topology
from nisq_lab.builders import (
    BuildError,
    BuiltCircuit,
    ccnot_on_geometry,
    cnot_chain,
    qft_dagger_3,
    qpe_expected_label,
    qpe_on_geometry,
    qpe_prep,
    swap_via_cnots,
)
from nisq_lab.simulator import Circuit, GateOp

from oracles import (
    circuit_unitary,
    cnot_matrix,
    final_state,
    inverse_qft_matrix,
    probability_of,
    qpe_outcome_probability,
    restricted_unitary,
    swap_matrix_from_cnots,
    toffoli_matrix,
    unitaries_equivalent,
)


def distant_cnot(c=0, t=2) -> Circuit:
    """CNOT between the outer qubits of a linear triple, by SWAP sandwich."""
    circuit = Circuit(3)
    builders._via_swap(circuit, c, 1, t, circuit.cnot)
    return circuit


def distant_crphi(phi) -> Circuit:
    """Controlled-Rphi between the outer qubits of a linear triple."""
    circuit = Circuit(3)
    builders._via_swap(circuit, 0, 1, 2, builders._crphi(circuit, phi))
    return circuit


def star_cnot(c=0, t=1, *, x_reset=False) -> BuiltCircuit:
    """CNOT between two outer locals of a star (0-2), copied through the
    centre ancilla (local 3)."""
    circuit = Circuit(4, roles=("computational",) * 3 + ("ancilla",))
    builders._via_copies(circuit, (c, 3, t), circuit.cnot, x_reset=x_reset)
    return BuiltCircuit(circuit, (0, 1, 2, 3), "0")


def qft_placements(graph):
    """The first placement of each QFT geometry."""
    return (topology.enumerate_linear_triples(graph)[0], topology.enumerate_stars(graph)[0],
            topology.ring_placements(graph, "ring6-3chain")[0])


def qpe_output(placement, phi) -> np.ndarray:
    """The computational qubits' noiseless output state of the geometry's
    phase estimation, ancillas read out at their desired string."""
    return restricted_unitary(qpe_on_geometry(placement, phi))[:, 0]


# ---------------------------------------------------------------------------
# SWAP and the two routings of a distant two-qubit gate
# ---------------------------------------------------------------------------

def test_swap_is_three_cnots():
    ops = swap_via_cnots(0, 1)
    assert [op.kind for op in ops] == ["CNOT", "CNOT", "CNOT"]


def test_swap_unitary_matches_cnot_product_oracle():
    c = Circuit(2).extend(swap_via_cnots(0, 1))
    expected = swap_matrix_from_cnots(0, 1, 2)
    assert unitaries_equivalent(circuit_unitary(c), expected)
    # the 4x4 permutation exchanging |01> and |10>
    perm = np.eye(4)[:, [0, 2, 1, 3]]
    assert np.allclose(expected, perm)


def test_swap_exchanges_basis_states():
    c = Circuit(2).extend(swap_via_cnots(0, 1))
    assert probability_of(final_state(c, "01"), "10") == pytest.approx(1.0)


def test_distant_cnot_seven_cnots():
    assert distant_cnot().cnot_count() == 7


def test_distant_cnot_unitary_is_cnot_tensor_identity():
    # oracle: CNOT between locals 0 and 2 of a 3-qubit register, either way
    for c, t in ((0, 2), (2, 0)):
        assert unitaries_equivalent(circuit_unitary(distant_cnot(c, t)), cnot_matrix(c, t, 3))


@pytest.mark.parametrize("psi", ["zero", "one", "plus"])
def test_distant_cnot_preserves_center_state(psi):
    prep = Circuit(3).x(0)
    if psi == "one":
        prep.x(1)
    elif psi == "plus":
        prep.h(1)
    out = final_state(Circuit(3, list(prep.ops)).extend(distant_cnot().ops))
    # control and target both |1>, center unchanged
    expected = final_state(prep.x(2))
    assert abs(np.vdot(out, expected)) == pytest.approx(1.0, abs=1e-10)


def test_distant_cnot_control_off_is_identity():
    assert probability_of(final_state(distant_cnot()), "000") == pytest.approx(1.0)


def test_distant_crphi_zero_angle_identity():
    assert unitaries_equivalent(circuit_unitary(distant_crphi(0.0)), np.eye(8))


def test_distant_crphi_matches_diagonal_oracle():
    phi = math.pi
    # oracle: phase phi iff outer qubits (locals 0 and 2) are both 1
    expected = np.eye(8, dtype=complex)
    for i in range(8):
        if (i >> 2) & 1 and i & 1:
            expected[i, i] = np.exp(1j * phi)
    u = circuit_unitary(distant_crphi(phi))
    assert unitaries_equivalent(u, expected)
    assert u[5, 5] == pytest.approx(np.exp(1j * math.pi))  # |101>


def test_distant_crphi_random_angle_oracle():
    phi = 0.8342
    expected = np.eye(8, dtype=complex)
    for i in range(8):
        if (i >> 2) & 1 and i & 1:
            expected[i, i] = np.exp(1j * phi)
    assert unitaries_equivalent(circuit_unitary(distant_crphi(phi)), expected)


# ---------------------------------------------------------------------------
# CNOT chains
# ---------------------------------------------------------------------------

def test_chain_none_leaves_ancilla_excited():
    built = cnot_chain((0, 1, 2, 3), "none")
    assert probability_of(final_state(built.circuit), "1111") == pytest.approx(1.0)
    assert built.desired_ancilla == "11"


def test_chain_x_reset_clears_ancilla():
    built = cnot_chain((0, 1, 2, 3), "x-reset")
    assert probability_of(final_state(built.circuit), "1001") == pytest.approx(1.0)
    assert built.desired_ancilla == "00"


def test_chain_cnot_reset_clears_ancilla():
    built = cnot_chain((0, 1, 2, 3), "cnot-reset")
    assert probability_of(final_state(built.circuit), "1001") == pytest.approx(1.0)


def test_chain_cnot_reset_superposed_control_bell_pair():
    built = cnot_chain((0, 1, 2, 3), "cnot-reset", control_in_superposition=True)
    out = final_state(Circuit(4).h(0).extend(built.circuit.ops))
    # ancilla |1> amplitude mass identically zero
    for i, amp in enumerate(out):
        bits = format(i, "04b")
        if bits[1] != "0" or bits[2] != "0":
            assert abs(amp) < 1e-10
    assert probability_of(out, "0000") == pytest.approx(0.5)
    assert probability_of(out, "1001") == pytest.approx(0.5)


def test_chain_superposition_requires_cnot_reset():
    with pytest.raises(BuildError):
        cnot_chain((0, 1, 2), "x-reset", control_in_superposition=True)


def test_chain_cnot_reset_completeness_all_inputs():
    """Ancillas end with zero |1> amplitude mass for every control/target
    basis input (ancillas starting |0>) and for a |+> control."""
    built = cnot_chain((0, 1, 2, 3, 4), "cnot-reset", control_in_superposition=True)
    n = 5
    anc = built.ancilla_locals

    def ancilla_mass(state):
        return sum(abs(a) ** 2 for i, a in enumerate(state)
                   if any(format(i, f"0{n}b")[q] == "1" for q in anc))

    outputs = [final_state(built.circuit, c + "000" + t) for c in "01" for t in "01"]
    outputs.append(final_state(Circuit(n).h(0).extend(built.circuit.ops)))
    for out in outputs:
        assert ancilla_mass(out) < 1e-10


def test_chain_roles_and_length_one():
    built = cnot_chain((4, 9), "none")
    assert built.circuit.roles == ("control", "target")
    assert built.desired_ancilla == ""
    assert probability_of(final_state(built.circuit), "11") == pytest.approx(1.0)


def test_chain_rejects_short_path():
    with pytest.raises(topology.TopologyError):
        cnot_chain((0,), "none")


# ---------------------------------------------------------------------------
# Star-mediated CNOT
# ---------------------------------------------------------------------------

def test_star_cnot_x_reset_classical_control():
    built = star_cnot(x_reset=True)
    out = final_state(Circuit(4).x(0).extend(built.circuit.ops))
    # control 1, target 1, spectator 0, ancilla reset to 0
    assert probability_of(out, "1100") == pytest.approx(1.0)


def test_star_cnot_cnot_reset_control_off():
    assert probability_of(final_state(star_cnot().circuit), "0000") == pytest.approx(1.0)


def test_star_cnot_superposed_control_entangles_outers():
    out = final_state(Circuit(4).h(0).extend(star_cnot().circuit.ops))
    assert probability_of(out, "0000") == pytest.approx(0.5)
    assert probability_of(out, "1100") == pytest.approx(0.5)


def test_star_cnot_cnot_reset_is_exact_cnot():
    for c in range(3):
        for t in range(3):
            if c != t:
                assert unitaries_equivalent(restricted_unitary(star_cnot(c, t)),
                                            cnot_matrix(c, t, 3)), (c, t)


# ---------------------------------------------------------------------------
# CCNOT
# ---------------------------------------------------------------------------

def test_every_ccnot_variant_keeps_two_h_and_seven_t_gates(graph):
    """Routing adds only CNOTs (and X resets): each variant keeps the
    decomposition's 2 H and 7 T/T` gates."""
    triple = topology.enumerate_linear_triples(graph)[0]
    star = topology.enumerate_stars(graph)[0]
    placements = {
        "linear3-cct": topology.linear3_variants(triple)[0],
        "linear3-ctc": topology.linear3_variants(triple)[2],
        "star4-x-reset": star,
        "star4-cnot-reset": star,
        "ring6-3chain": topology.ring_placements(graph, "ring6-3chain")[0],
        "ring6-1chains": topology.ring_placements(graph, "ring6-1chains")[0],
    }
    assert set(placements) == set(builders.CCNOT_VARIANTS)
    for variant, placement in placements.items():
        kinds = Counter(op.kind for op in ccnot_on_geometry(placement, variant).circuit.ops)
        assert kinds["H"] == 2 and kinds["T"] + kinds["TDG"] == 7, variant
        assert set(kinds) <= {"H", "T", "TDG", "CNOT", "X"}, variant


@pytest.mark.parametrize("variant", ["linear3-cct", "linear3-ctc"])
def test_ccnot_linear3_exact_toffoli(variant, graph):
    triple = topology.enumerate_linear_triples(graph)[0]
    placement = topology.linear3_variants(triple)[0 if variant == "linear3-cct" else 2]
    built = ccnot_on_geometry(placement, variant)
    target_local = built.layout.index(placement.target)
    controls = tuple(q for q in (0, 1, 2) if q != target_local)
    assert unitaries_equivalent(restricted_unitary(built), toffoli_matrix(controls, target_local))


def test_ccnot_linear3_cct_ctc_equal_counts_and_cnot_depth(graph):
    triple = topology.enumerate_linear_triples(graph)[0]
    variants = topology.linear3_variants(triple)
    cct = ccnot_on_geometry(variants[0], "linear3-cct")
    ctc = ccnot_on_geometry(variants[2], "linear3-ctc")
    assert cct.circuit.cnot_count() == ctc.circuit.cnot_count() == 18
    assert len(cct.circuit.ops) == len(ctc.circuit.ops)
    assert cct.circuit.depth(two_qubit_only=True) == ctc.circuit.depth(two_qubit_only=True)


def test_ccnot_star4_cnot_reset_exact_toffoli(graph):
    for star in topology.enumerate_stars(graph)[:2]:
        for placement in topology.star_variants(star):
            built = ccnot_on_geometry(placement, "star4-cnot-reset")
            tl = built.layout.index(placement.target)
            controls = tuple(q for q in (0, 1, 2) if q != tl)
            assert unitaries_equivalent(restricted_unitary(built), toffoli_matrix(controls, tl))


def test_ccnot_star4_x_reset_on_contracted_inputs(graph):
    """The X-reset star form assumes |1> controls at use time; exact there."""
    star = topology.enumerate_stars(graph)[0]
    placement = topology.star_variants(star)[0]
    built = ccnot_on_geometry(placement, "star4-x-reset")
    tl = built.layout.index(placement.target)
    controls = tuple(q for q in (0, 1, 2) if q != tl)
    for t_in in (0, 1):
        bits = ["0"] * 4
        bits[controls[0]] = bits[controls[1]] = "1"
        bits[tl] = str(t_in)
        out = final_state(built.circuit, "".join(bits))
        expect = bits.copy()
        expect[tl] = str(1 - t_in)
        assert probability_of(out, "".join(expect)) == pytest.approx(1.0, abs=1e-10)


def test_ccnot_ring6_exact_toffoli(graph):
    for kind in ("ring6-3chain", "ring6-1chains"):
        placement = topology.ring_placements(graph, kind)[0]
        built = ccnot_on_geometry(placement, kind)
        tl = built.layout.index(placement.target)
        controls = tuple(q for q in (0, 1, 2) if q != tl)
        assert unitaries_equivalent(restricted_unitary(built), toffoli_matrix(controls, tl))


def test_ccnot_ring6_variants_equal_cnot_and_x_counts(graph):
    b3 = ccnot_on_geometry(topology.ring_placements(graph, "ring6-3chain")[0], "ring6-3chain")
    b1 = ccnot_on_geometry(topology.ring_placements(graph, "ring6-1chains")[0], "ring6-1chains")
    c3 = Counter(op.kind for op in b3.circuit.ops)
    c1 = Counter(op.kind for op in b1.circuit.ops)
    assert c3["CNOT"] == c1["CNOT"]
    assert c3["X"] == c1["X"]


def test_ccnot_rejects_mismatched_variant(graph):
    star = topology.enumerate_stars(graph)[0]
    with pytest.raises(BuildError):
        ccnot_on_geometry(star, "ring6-3chain")


# ---------------------------------------------------------------------------
# QFT and phase estimation
# ---------------------------------------------------------------------------

def test_qft_inverse_pair_is_identity(graph):
    """The linear3 inverse QFT, reversed with negated angles, undoes the
    closed-form inverse QFT."""
    built = qft_dagger_3(topology.enumerate_linear_triples(graph)[0])
    forward = Circuit(3)
    for op in reversed(built.circuit.ops):
        if op.kind == "RPHI":
            forward.rphi(-op.angle, op.qubits[0])
        else:
            forward.add(GateOp(op.kind, op.qubits))
    combined = circuit_unitary(forward) @ inverse_qft_matrix()
    assert unitaries_equivalent(combined, np.eye(8))


def test_qft_geometry_variants_match_ideal(graph):
    for placement in qft_placements(graph):
        built = qft_dagger_3(placement)
        assert unitaries_equivalent(restricted_unitary(built), inverse_qft_matrix()), placement.kind


def test_qft_cnot_counts_star_saves_two(graph):
    triple = topology.enumerate_linear_triples(graph)[0]
    star = topology.enumerate_stars(graph)[0]
    n_linear = qft_dagger_3(triple).circuit.cnot_count()
    n_star = qft_dagger_3(star).circuit.cnot_count()
    assert n_linear == 12
    assert n_star == n_linear - 2


def test_qft_rejects_unknown_geometry(graph):
    with pytest.raises(BuildError):
        qft_dagger_3(topology.ring_placements(graph, "ring6-1chains")[0])


def test_qpe_prep_zero_phase_returns_all_zeros():
    state = inverse_qft_matrix() @ final_state(Circuit(3).extend(qpe_prep(0.0)))
    assert probability_of(state, "000") == pytest.approx(1.0)


@pytest.mark.parametrize("k", range(8))
def test_qpe_perfect_phases_deterministic(k, graph):
    for placement in qft_placements(graph):
        out = qpe_output(placement, k * math.pi / 4)
        assert probability_of(out, qpe_expected_label(k)) == pytest.approx(1.0, abs=1e-10)


def test_qpe_halfway_phase_max_probability(graph):
    for placement in qft_placements(graph):
        probs = np.abs(qpe_output(placement, math.pi / 8)) ** 2
        assert max(probs) == pytest.approx(qpe_outcome_probability(math.pi / 8, 0), abs=1e-10)
        assert max(probs) == pytest.approx(0.4105, abs=5e-4)


def test_every_builder_output_respects_topology(graph):
    builts = []
    path = topology.chain_paths(graph, 1)
    for strategy in ("none", "x-reset", "cnot-reset"):
        builts.append(cnot_chain(path[:6], strategy))
    for triple in topology.enumerate_linear_triples(graph)[:4]:
        for i, variant in ((0, "linear3-cct"), (2, "linear3-ctc")):
            builts.append(ccnot_on_geometry(topology.linear3_variants(triple)[i], variant))
        builts.append(qft_dagger_3(triple))
    for star in topology.enumerate_stars(graph)[:2]:
        builts.append(ccnot_on_geometry(star, "star4-x-reset"))
        builts.append(ccnot_on_geometry(star, "star4-cnot-reset"))
        builts.append(qft_dagger_3(star))
    for kind in ("ring6-3chain", "ring6-1chains"):
        builts.append(ccnot_on_geometry(topology.ring_placements(graph, kind)[0], kind))
    builts.append(qft_dagger_3(topology.ring_placements(graph, "ring6-3chain")[0]))
    for built in builts:
        device = Circuit(graph.n_qubits, [replace(op, qubits=tuple(built.layout[q] for q in op.qubits))
                                          for op in built.circuit.ops])
        assert topology.validate_circuit(graph, device) == []
