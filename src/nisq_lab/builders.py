"""Connectivity-respecting circuit constructions.

Every builder emits a BuiltCircuit whose gates act on *local* qubit
indices; ``layout[local]`` gives the device qubit, so the same circuit can
be validated against a coupling graph or simulated compactly. A chain's
layout is its path; a geometry's is ``GeometryPlacement.qubits`` (the
computational qubits in geometric order, then the ancillas). Local order
is also the order of outcome bits, most significant first.

A local circuit depends on its placement only through the placement's
shape (its width, and for a CCNOT the local index of its target), so the
experiments build it once per shape and run it on every placement of that
shape, each on its own layout. Nothing mutates a built circuit, which
makes the sharing safe.

A two-qubit gate between uncoupled qubits is routed one of two ways, each
written once:
  * ``_via_swap``: a SWAP sandwich (SWAP as three alternating CNOTs) moves
    the control into the middle qubit of a linear triple and back;
  * ``_via_copies``: CNOTs copy the control's value down a path of |0>
    ancillas (a star centre, a ring arc, a chain), the gate acts on the
    last link, and the copies are undone, by mirrored CNOTs (exact for any
    control) or by X (exact only for a classical |1> control).
``_DETOURS`` lists, per geometry, which pairs take which path.

Constructions:
  * CNOT chains with three ancilla-reset strategies (none, X gates, or a
    mirrored CNOT un-chain for superposed controls).
  * CCNOT from the standard 6-CNOT / 7-T decomposition (Barenco et al.
    1995), adapted to linear triples (both target choices), stars, and the
    two 6-ring layouts.
  * A 3-qubit inverse-QFT without terminal swaps (see qpe_expected_label
    for the resulting output bit order) plus its geometry adaptations; the
    star form keeps one ancilla copy across two phase gates sharing a
    control and saves 2 CNOTs.
  * Phase-ladder state prep standing in for controlled-U powers in phase
    estimation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .simulator import Circuit, GateOp
from .topology import GeometryPlacement, chain_placement


class BuildError(ValueError):
    pass


RESET_STRATEGIES = ("none", "x-reset", "cnot-reset")

CCNOT_VARIANTS = (
    "linear3-cct",
    "linear3-ctc",
    "star4-x-reset",
    "star4-cnot-reset",
    "ring6-3chain",
    "ring6-1chains",
)

QFT_GEOMETRIES = ("linear3", "star4", "ring6-3chain")


@dataclass(frozen=True)
class BuiltCircuit:
    """A local-index circuit plus the device qubit of each local.

    ``desired_ancilla`` is the basis string the ancilla qubits should hold
    at the end of a noiseless run (one character per ancilla local, in
    local order).
    """

    circuit: Circuit
    layout: tuple[int, ...]
    desired_ancilla: str

    def __post_init__(self):
        if len(self.layout) != self.circuit.n_qubits:
            raise BuildError("layout must map every circuit qubit")
        if len(self.desired_ancilla) != len(self.ancilla_locals):
            raise BuildError("desired ancilla string must cover every ancilla qubit")

    @property
    def roles(self) -> tuple[str, ...]:
        return self.circuit.roles

    @property
    def ancilla_locals(self) -> tuple[int, ...]:
        return tuple(i for i, r in enumerate(self.circuit.roles) if r == "ancilla")


def swap_via_cnots(a: int, b: int) -> list[GateOp]:
    """SWAP(a,b) as three alternating CNOTs."""
    if a == b:
        raise BuildError("cannot swap a qubit with itself")
    return [GateOp("CNOT", (a, b)), GateOp("CNOT", (b, a)), GateOp("CNOT", (a, b))]


def control_rphi_ops(control: int, target: int, phi: float) -> list[GateOp]:
    """Controlled phase gate: 2 CNOTs plus 3 half-angle phase rotations."""
    half = phi / 2.0
    return [
        GateOp("RPHI", (target,), angle=half),
        GateOp("CNOT", (control, target)),
        GateOp("RPHI", (target,), angle=-half),
        GateOp("CNOT", (control, target)),
        GateOp("RPHI", (control,), angle=half),
    ]


def _via_swap(circuit: Circuit, c: int, mid: int, t: int, gate) -> None:
    """``gate`` from c to t through their common neighbour ``mid``: SWAP c's
    state into the middle, ``gate(mid, t)``, SWAP back (mid's state kept)."""
    circuit.extend(swap_via_cnots(c, mid))
    gate(mid, t)
    circuit.extend(swap_via_cnots(mid, c))


def _via_copies(circuit: Circuit, path, gate, *, x_reset: bool = False) -> None:
    """``gate`` from path[0] to path[-1] through |0> ancillas: CNOT copies of
    the control's value run down the path, ``gate`` acts on the last link,
    and the copies are undone in reverse. With ``x_reset`` each ancilla is
    flipped back by X instead, which is exact only for a |1> control."""
    links = list(zip(path, path[1:]))
    for a, b in links[:-1]:
        circuit.cnot(a, b)
    gate(*links[-1])
    for a, b in reversed(links[:-1]):
        if x_reset:
            circuit.x(b)
        else:
            circuit.cnot(a, b)


# For each ordered pair of uncoupled computational locals (0-2, in geometric
# order), the path its two-qubit gate takes: a linear triple swaps through
# its middle qubit; the other geometries copy down their ancillas (3-5).
_LINEAR3_DETOURS = {(0, 2): (0, 1, 2), (2, 0): (2, 1, 0)}
_DETOURS = {
    "linear3-cct": _LINEAR3_DETOURS,
    "linear3-ctc": _LINEAR3_DETOURS,
    "star4": {(c, t): (c, 3, t) for c in range(3) for t in range(3) if c != t},
    # the three-ancilla arc 0 - 5 - 4 - 3 - 2
    "ring6-3chain": {(0, 2): (0, 5, 4, 3, 2), (2, 0): (2, 3, 4, 5, 0)},
    # one ancilla between each pair: 3 mediates (0,1), 4 mediates (1,2), 5 mediates (2,0)
    "ring6-1chains": {(c, t): (c, m, t) for (a, b), m in {(0, 1): 3, (1, 2): 4, (2, 0): 5}.items()
                      for c, t in ((a, b), (b, a))},
}


def _routed(circuit: Circuit, kind: str, c: int, t: int, gate, *, x_reset: bool = False) -> None:
    """``gate(c, t)``, routed along the detour of placement kind ``kind``
    when c and t are not coupled."""
    path = _DETOURS[kind].get((c, t))
    if path is None:
        gate(c, t)
    elif kind.startswith("linear3"):
        _via_swap(circuit, *path, gate)
    else:
        _via_copies(circuit, path, gate, x_reset=x_reset)


def _crphi(circuit: Circuit, phi: float):
    """A gate emitter for a controlled-Rphi on ``circuit``."""
    return lambda c, t: circuit.extend(control_rphi_ops(c, t, phi))


def _geometry_circuit(placement: GeometryPlacement) -> tuple[Circuit, tuple[int, ...], str]:
    """An empty circuit over the placement's computational qubits then its
    ancillas, its layout, and the all-|0> desired ancilla string."""
    layout = placement.qubits
    n, n_anc = len(layout), len(placement.ancilla)
    circuit = Circuit(n, roles=("computational",) * (n - n_anc) + ("ancilla",) * n_anc)
    return circuit, layout, "0" * n_anc


def cnot_chain(path, strategy: str, *, control_in_superposition: bool = False) -> BuiltCircuit:
    """A control effect passed down a path of ancilla qubits.

    Locals follow path order: control, ancillas, target. Strategies:
      none        leave every ancilla in |1>,
      x-reset     X after each ancilla fires (classical |1> control),
      cnot-reset  mirrored CNOT un-chain, valid for superposed controls.
    The X exciting the control is emitted unless the caller declares a
    superposed control and preps it themselves.
    """
    if strategy not in RESET_STRATEGIES:
        raise BuildError(f"unknown reset strategy {strategy!r}")
    if control_in_superposition and strategy != "cnot-reset":
        raise BuildError("a superposed control requires the cnot-reset strategy")
    layout = chain_placement(path)
    m = len(layout) - 1  # number of CNOT links
    roles = ("control",) + ("ancilla",) * (m - 1) + ("target",)
    circuit = Circuit(m + 1, roles=roles)
    if not control_in_superposition:
        circuit.x(0)
    if strategy == "cnot-reset":
        _via_copies(circuit, range(m + 1), circuit.cnot)
    else:
        for i in range(m):
            circuit.cnot(i, i + 1)
            if strategy == "x-reset" and 1 <= i:
                circuit.x(i)
    desired = ("1" if strategy == "none" else "0") * (m - 1)
    return BuiltCircuit(circuit, layout, desired)


def _toffoli_body(circuit: Circuit, kind: str, q1: int, q2: int, q3: int, *,
                  x_reset: bool = False) -> None:
    """Controls q1, q2 and target q3, each CNOT routed for placement ``kind``."""
    def cx(c, t):
        _routed(circuit, kind, c, t, circuit.cnot, x_reset=x_reset)

    circuit.h(q3)
    cx(q2, q3)
    circuit.tdg(q3)
    cx(q1, q3)
    circuit.t(q3)
    cx(q2, q3)
    circuit.tdg(q3)
    cx(q1, q3)
    circuit.t(q2)
    circuit.t(q3)
    cx(q1, q2)
    circuit.h(q3)
    circuit.t(q1)
    circuit.tdg(q2)
    cx(q1, q2)


def ccnot_on_geometry(placement: GeometryPlacement, variant: str) -> BuiltCircuit:
    """The CCNOT decomposition with every missing connection supplemented.

    Linear triples route their one distant pair through SWAP sandwiches;
    stars mediate every CNOT through the center ancilla (reset per the
    variant); ring layouts pass distant CNOTs down CNOT-reset ancilla
    chains. Controls keep geometric order. The star x-reset form is only
    exact for controls prepared in |1>, matching how it is surveyed.
    """
    if variant not in CCNOT_VARIANTS:
        raise BuildError(f"unknown CCNOT variant {variant!r}")
    kind = "star4" if variant.startswith("star4") else variant
    if placement.kind != kind:
        raise BuildError(f"variant {variant!r} needs a {kind} placement, got {placement.kind!r}")
    circuit, layout, desired = _geometry_circuit(placement)
    q3 = layout.index(placement.target)
    q1, q2 = [q for q in (0, 1, 2) if q != q3]
    _toffoli_body(circuit, placement.kind, q1, q2, q3, x_reset=variant == "star4-x-reset")
    return BuiltCircuit(circuit, layout, desired)


def _qft_body(circuit: Circuit, kind: str) -> None:
    """The inverse-QFT gates, each controlled phase routed for ``kind``."""
    circuit.h(0)
    _routed(circuit, kind, 1, 0, _crphi(circuit, -math.pi / 2))
    _routed(circuit, kind, 2, 0, _crphi(circuit, -math.pi / 4))
    circuit.h(1)
    _routed(circuit, kind, 2, 1, _crphi(circuit, -math.pi / 2))
    circuit.h(2)


def qft_dagger_3(placement: GeometryPlacement) -> BuiltCircuit:
    """3-qubit inverse QFT, no terminal swaps.

    Gate order: H(0); cR(-pi/2, 1->0); cR(-pi/4, 2->0); H(1);
    cR(-pi/2, 2->1); H(2). Qubit 0 therefore reads out the least
    significant result bit (see qpe_expected_label).
    """
    if not placement.kind.startswith(QFT_GEOMETRIES):
        raise BuildError(f"QFT does not support placement kind {placement.kind!r}")
    circuit, layout, desired = _geometry_circuit(placement)
    if placement.kind != "star4":
        _qft_body(circuit, placement.kind)
        return BuiltCircuit(circuit, layout, desired)
    circuit.h(0)
    _via_copies(circuit, (1, 3, 0), _crphi(circuit, -math.pi / 2))

    # the next two phase gates share control 2: keep its copy on the
    # ancilla across both and skip one reset round-trip (saves 2 CNOTs)
    def shared_copy(a, _):
        circuit.extend(control_rphi_ops(a, 0, -math.pi / 4))
        circuit.h(1)
        circuit.extend(control_rphi_ops(a, 1, -math.pi / 2))

    _via_copies(circuit, (2, 3, 0), shared_copy)
    circuit.h(2)
    return BuiltCircuit(circuit, layout, desired)


def _qpe_prep_angles(phi: float) -> tuple[float, float, float]:
    """The prep's Rphi angles on qubits 0, 1, 2, in op order."""
    return 4.0 * phi, 2.0 * phi, phi


def qpe_prep(phi: float) -> list[GateOp]:
    """Phase-ladder prep: H on all three qubits, then Rphi(4phi), Rphi(2phi),
    Rphi(phi) on qubits 0, 1, 2. Mimics controlled-U powers with plain
    rotations; phi = k*pi/4 then reads out k after the inverse QFT."""
    c = Circuit(3)
    c.h(0)
    c.h(1)
    c.h(2)
    for q, angle in enumerate(_qpe_prep_angles(phi)):
        c.rphi(angle, q)
    return list(c.ops)


def qpe_expected_label(k: int) -> str:
    """Measured label for perfect phase k*pi/4: the inverse QFT emits the
    result bit-reversed (qubit 0 reads the least significant bit of k)."""
    if not (0 <= k < 8):
        raise BuildError(f"phase index must be 0..7, got {k}")
    return format(k, "03b")[::-1]


def qpe_on_geometry(placement: GeometryPlacement, phi: float) -> BuiltCircuit:
    """Phase-ladder prep followed by the geometry's inverse QFT. Its Rphi
    angles, in op order, are ``qpe_angles(qft_dagger_3(placement), phi)``."""
    built = qft_dagger_3(placement)
    circuit = Circuit(built.circuit.n_qubits, roles=built.circuit.roles)
    circuit.extend(qpe_prep(phi))
    circuit.extend(built.circuit.ops)
    return BuiltCircuit(circuit, built.layout, built.desired_ancilla)


def qpe_angles(qft: BuiltCircuit, phi: float) -> tuple[float, ...]:
    """The Rphi angles of ``qpe_on_geometry(placement, phi)``, in op order,
    where ``qft`` is ``qft_dagger_3(placement)``: the prep's, then the
    inverse QFT's, which no phase changes. A sweep builds ``qft`` once and
    takes each phase's angles from it without building its circuit."""
    return _qpe_prep_angles(phi) + tuple(op.angle for op in qft.circuit.ops if op.kind == "RPHI")
