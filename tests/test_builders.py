"""Circuit constructions checked against exact unitary oracles."""
import math
from dataclasses import replace

import numpy as np
import pytest

from nisq_lab import topology
from nisq_lab.builders import (
    BuildError,
    ccnot_ideal,
    ccnot_on_geometry,
    cnot_chain,
    distant_cnot_via_swaps,
    distant_crphi_via_swaps,
    qft_dagger_3,
    qpe_expected_label,
    qpe_on_geometry,
    qpe_prep,
    star_cnot,
    swap_via_cnots,
)
from nisq_lab.simulator import Circuit, GateOp
from nisq_lab.topology import GeometryPlacement

from oracles import (
    circuit_unitary,
    cnot_matrix,
    final_state,
    probability_of,
    qpe_outcome_probability,
    restricted_unitary,
    swap_matrix_from_cnots,
    toffoli_matrix,
    unitaries_equivalent,
)


def linear3(a=0, b=1, c=2, kind="linear3-cct"):
    target = c if kind == "linear3-cct" else b
    return GeometryPlacement(kind, (a, b, c), (), target)


def star4(outer=(0, 6, 10), center=5, target=0):
    return GeometryPlacement("star4", outer, (center,), target)


# ---------------------------------------------------------------------------
# SWAP and distant two-qubit gates
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
    built = distant_cnot_via_swaps(linear3(), 0, 2)
    assert built.circuit.cnot_count() == 7


def test_distant_cnot_unitary_is_cnot_tensor_identity():
    built = distant_cnot_via_swaps(linear3(), 0, 2)
    # oracle: CNOT between locals 0 and 2 of a 3-qubit register
    expected = cnot_matrix(0, 2, 3)
    assert unitaries_equivalent(circuit_unitary(built.circuit), expected)


@pytest.mark.parametrize("psi", ["zero", "one", "plus"])
def test_distant_cnot_preserves_center_state(psi):
    built = distant_cnot_via_swaps(linear3(), 0, 2)
    prep = Circuit(3).x(0)
    if psi == "one":
        prep.x(1)
    elif psi == "plus":
        prep.h(1)
    out = final_state(Circuit(3, list(prep.ops)).extend(built.circuit.ops))
    # control and target both |1>, center unchanged
    expected = final_state(prep.x(2))
    assert abs(np.vdot(out, expected)) == pytest.approx(1.0, abs=1e-10)


def test_distant_cnot_control_off_is_identity():
    built = distant_cnot_via_swaps(linear3(), 0, 2)
    assert probability_of(final_state(built.circuit), "000") == pytest.approx(1.0)


def test_distant_cnot_rejects_center_operand():
    with pytest.raises(BuildError):
        distant_cnot_via_swaps(linear3(), 0, 1)


def test_distant_crphi_zero_angle_identity():
    built = distant_crphi_via_swaps(linear3(), 0.0)
    assert unitaries_equivalent(circuit_unitary(built.circuit), np.eye(8))


def test_distant_crphi_matches_diagonal_oracle():
    phi = math.pi
    built = distant_crphi_via_swaps(linear3(), phi)
    # oracle: phase phi iff outer qubits (locals 0 and 2) are both 1
    expected = np.eye(8, dtype=complex)
    for i in range(8):
        if (i >> 2) & 1 and i & 1:
            expected[i, i] = np.exp(1j * phi)
    u = circuit_unitary(built.circuit)
    assert unitaries_equivalent(u, expected)
    assert u[5, 5] == pytest.approx(np.exp(1j * math.pi))  # |101>


def test_distant_crphi_random_angle_oracle():
    phi = 0.8342
    built = distant_crphi_via_swaps(linear3(), phi)
    expected = np.eye(8, dtype=complex)
    for i in range(8):
        if (i >> 2) & 1 and i & 1:
            expected[i, i] = np.exp(1j * phi)
    assert unitaries_equivalent(circuit_unitary(built.circuit), expected)


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
    built = star_cnot(star4(), 0, 6, "x-reset")
    out = final_state(Circuit(4).x(built.layout.index(0)).extend(built.circuit.ops))
    # control 1, target 1, spectator 0, ancilla reset to 0
    assert probability_of(out, "1100") == pytest.approx(1.0)


def test_star_cnot_cnot_reset_control_off():
    built = star_cnot(star4(), 0, 6, "cnot-reset")
    assert probability_of(final_state(built.circuit), "0000") == pytest.approx(1.0)


def test_star_cnot_superposed_control_entangles_outers():
    built = star_cnot(star4(), 0, 6, "cnot-reset", control_in_superposition=True)
    out = final_state(Circuit(4).h(built.layout.index(0)).extend(built.circuit.ops))
    assert probability_of(out, "0000") == pytest.approx(0.5)
    assert probability_of(out, "1100") == pytest.approx(0.5)


def test_star_cnot_x_reset_rejects_superposition():
    with pytest.raises(BuildError):
        star_cnot(star4(), 0, 6, "x-reset", control_in_superposition=True)


def test_star_cnot_cnot_reset_is_exact_cnot():
    built = star_cnot(star4(), 0, 6, "cnot-reset")
    cl = built.layout.index(0)
    tl = built.layout.index(6)
    M = restricted_unitary(built)
    expected = cnot_matrix(cl, tl, 3)
    assert unitaries_equivalent(M, expected)


# ---------------------------------------------------------------------------
# CCNOT
# ---------------------------------------------------------------------------

def test_ccnot_ideal_truth_table():
    c = Circuit(3).extend(ccnot_ideal(0, 1, 2))
    assert probability_of(final_state(c, "110"), "111") == pytest.approx(1.0)
    assert probability_of(final_state(c, "100"), "100") == pytest.approx(1.0)


def test_ccnot_ideal_matrix_and_counts():
    c = Circuit(3).extend(ccnot_ideal(0, 1, 2))
    assert unitaries_equivalent(circuit_unitary(c), toffoli_matrix((0, 1), 2))
    counts = c.gate_counts()
    assert counts["CNOT"] == 6
    assert counts["H"] == 2
    assert counts.get("T", 0) + counts.get("TDG", 0) == 7


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
    c3, c1 = b3.circuit.gate_counts(), b1.circuit.gate_counts()
    assert c3["CNOT"] == c1["CNOT"]
    assert c3.get("X", 0) == c1.get("X", 0)


def test_ccnot_rejects_mismatched_variant(graph):
    star = topology.enumerate_stars(graph)[0]
    with pytest.raises(BuildError):
        ccnot_on_geometry(star, "ring6-3chain")


# ---------------------------------------------------------------------------
# QFT and phase estimation
# ---------------------------------------------------------------------------

def test_qft_inverse_pair_is_identity():
    built = qft_dagger_3("ideal")
    forward = Circuit(3)
    for op in reversed(built.circuit.ops):
        if op.kind == "RPHI":
            forward.rphi(-op.angle, op.qubits[0])
        else:
            forward.add(GateOp(op.kind, op.qubits))
    combined = circuit_unitary(forward) @ circuit_unitary(built.circuit)
    assert np.allclose(combined, np.eye(8), atol=1e-9)


def test_qft_geometry_variants_match_ideal(graph):
    ideal_u = circuit_unitary(qft_dagger_3("ideal").circuit)
    triple = topology.enumerate_linear_triples(graph)[0]
    star = topology.enumerate_stars(graph)[0]
    ring = topology.ring_placements(graph, "ring6-3chain")[0]
    for placement in (triple, star, ring):
        built = qft_dagger_3(placement)
        assert unitaries_equivalent(restricted_unitary(built), ideal_u)


def test_qft_cnot_counts_star_saves_two(graph):
    triple = topology.enumerate_linear_triples(graph)[0]
    star = topology.enumerate_stars(graph)[0]
    n_linear = qft_dagger_3(triple).circuit.cnot_count()
    n_star = qft_dagger_3(star).circuit.cnot_count()
    assert n_linear == 12
    assert n_star == n_linear - 2


def test_qft_rejects_unknown_geometry(graph):
    with pytest.raises(BuildError):
        qft_dagger_3("linear5")
    with pytest.raises(BuildError):
        qft_dagger_3(topology.ring_placements(graph, "ring6-1chains")[0])


def test_qpe_prep_zero_phase_returns_all_zeros():
    c = Circuit(3).extend(qpe_prep(0.0)).extend(qft_dagger_3("ideal").circuit.ops)
    assert probability_of(final_state(c), "000") == pytest.approx(1.0)


@pytest.mark.parametrize("k", range(8))
def test_qpe_perfect_phases_deterministic(k):
    built = qpe_on_geometry("ideal", k * math.pi / 4)
    out = final_state(built.circuit)
    assert probability_of(out, qpe_expected_label(k)) == pytest.approx(1.0, abs=1e-10)


def test_qpe_halfway_phase_max_probability():
    built = qpe_on_geometry("ideal", math.pi / 8)
    probs = np.abs(final_state(built.circuit)) ** 2
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
        builts.append(distant_cnot_via_swaps(triple, triple.computational[0], triple.computational[2]))
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
