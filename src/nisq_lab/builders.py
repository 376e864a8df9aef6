"""Connectivity-respecting circuit constructions.

Every builder emits a BuiltCircuit whose gates act on *local* qubit
indices; ``layout[local]`` gives the device qubit, so the same circuit can
be validated against a coupling graph or simulated compactly. Local order
follows the placement's geometric order (chain order, ring order, outer
qubits then star center), which is also the order of outcome bits, most
significant first.

Constructions:
  * SWAP as three alternating CNOTs; distant CNOT / controlled-phase via a
    SWAP sandwich through the middle qubit of a linear triple.
  * CNOT chains with three ancilla-reset strategies (none, X gates, or a
    mirrored CNOT un-chain for superposed controls).
  * Star-mediated CNOTs through a central ancilla, reset by X (classical
    |1> control only) or by a second CNOT.
  * CCNOT from the standard 6-CNOT / 7-T decomposition, adapted to linear
    triples (both target choices), stars, and the two 6-ring layouts.
  * A 3-qubit inverse-QFT without terminal swaps (see qpe_expected_label
    for the resulting output bit order) plus its geometry adaptations; the
    star form merges two phase gates sharing a control and saves 2 CNOTs.
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

QFT_GEOMETRIES = ("ideal", "linear3", "star4", "ring6-3chain")


@dataclass(frozen=True)
class BuiltCircuit:
    """A local-index circuit plus the placement it realizes.

    ``desired_ancilla`` is the basis string the ancilla qubits should hold
    at the end of a noiseless run (one character per ancilla local, in
    local order).
    """

    circuit: Circuit
    layout: tuple[int, ...]
    placement: GeometryPlacement | None
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
    def computational_locals(self) -> tuple[int, ...]:
        return tuple(i for i, r in enumerate(self.circuit.roles) if r != "ancilla")

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


def _require_kind(placement: GeometryPlacement, *kinds: str) -> None:
    if placement.kind not in kinds:
        raise BuildError(f"expected placement kind in {kinds}, got {placement.kind!r}")


def _linear3_locals(placement: GeometryPlacement, device_q: int) -> int:
    try:
        return placement.computational.index(device_q)
    except ValueError:
        raise BuildError(f"qubit {device_q} is not in placement {placement.computational}") from None


def distant_cnot_via_swaps(placement: GeometryPlacement, control: int, target: int) -> BuiltCircuit:
    """CNOT between the outer qubits of a linear triple: SWAP the control
    into the center, CNOT, SWAP back (7 CNOTs, center state preserved)."""
    _require_kind(placement, "linear3-cct", "linear3-ctc")
    cl, tl = _linear3_locals(placement, control), _linear3_locals(placement, target)
    if {cl, tl} != {0, 2}:
        raise BuildError("distant CNOT runs between the two outer qubits")
    circuit = Circuit(3, roles=_roles_for(3, {cl: "control", tl: "target"}))
    circuit.extend(swap_via_cnots(cl, 1))
    circuit.cnot(1, tl)
    circuit.extend(swap_via_cnots(1, cl))
    return BuiltCircuit(circuit, placement.computational, placement, "")


def distant_crphi_via_swaps(placement: GeometryPlacement, phi: float) -> BuiltCircuit:
    """Controlled-Rphi between the outer qubits of a linear triple."""
    _require_kind(placement, "linear3-cct", "linear3-ctc")
    circuit = Circuit(3, roles=_roles_for(3, {0: "control", 2: "target"}))
    circuit.extend(swap_via_cnots(0, 1))
    circuit.extend(control_rphi_ops(1, 2, phi))
    circuit.extend(swap_via_cnots(1, 0))
    return BuiltCircuit(circuit, placement.computational, placement, "")


def _roles_for(n: int, overrides: dict[int, str]) -> tuple[str, ...]:
    return tuple(overrides.get(i, "computational") for i in range(n))


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
    placement = chain_placement(path)
    m = len(placement.path) - 1  # number of CNOT links
    roles = ("control",) + ("ancilla",) * (m - 1) + ("target",)
    circuit = Circuit(m + 1, roles=roles)
    if not control_in_superposition:
        circuit.x(0)
    for i in range(m):
        circuit.cnot(i, i + 1)
        if strategy == "x-reset" and 1 <= i:
            circuit.x(i)
    if strategy == "cnot-reset":
        for i in range(m - 2, -1, -1):
            circuit.cnot(i, i + 1)
    desired = ("1" if strategy == "none" else "0") * (m - 1)
    return BuiltCircuit(circuit, placement.path, placement, desired)


def star_cnot(placement: GeometryPlacement, control: int, target: int, strategy: str,
              *, control_in_superposition: bool = False) -> BuiltCircuit:
    """CNOT between two outer qubits of a star, mediated by the center
    ancilla. X-reset assumes the control is classically |1| at use time;
    cnot-reset un-copies coherently and works for any control state."""
    _require_kind(placement, "star4")
    if strategy not in ("x-reset", "cnot-reset"):
        raise BuildError("star_cnot resets by x-reset or cnot-reset")
    if control_in_superposition and strategy == "x-reset":
        raise BuildError("x-reset cannot restore the ancilla for a superposed control")
    if control == target or control not in placement.computational or target not in placement.computational:
        raise BuildError("control and target must be distinct outer qubits")
    layout = placement.computational + placement.ancilla
    cl = layout.index(control)
    tl = layout.index(target)
    roles = _roles_for(4, {cl: "control", tl: "target", 3: "ancilla"})
    circuit = Circuit(4, roles=roles)
    _emit_star_cx(circuit, cl, tl, 3, strategy)
    return BuiltCircuit(circuit, layout, placement, "0")


def _emit_star_cx(circuit: Circuit, control: int, target: int, center: int, strategy: str) -> None:
    circuit.cnot(control, center)
    circuit.cnot(center, target)
    if strategy == "x-reset":
        circuit.x(center)
    else:
        circuit.cnot(control, center)


def ccnot_ideal(q1: int, q2: int, q3: int) -> list[GateOp]:
    """Doubly-controlled X on fully connected qubits: 6 CNOTs, 2 H, 7 T/T`."""
    if len({q1, q2, q3}) != 3:
        raise BuildError("CCNOT needs three distinct qubits")
    c = Circuit(max(q1, q2, q3) + 1)
    _toffoli_body(c, c.cnot, q1, q2, q3)
    return c.ops


def _toffoli_body(circuit: Circuit, emit_cx, q1: int, q2: int, q3: int) -> None:
    circuit.h(q3)
    emit_cx(q2, q3)
    circuit.tdg(q3)
    emit_cx(q1, q3)
    circuit.t(q3)
    emit_cx(q2, q3)
    circuit.tdg(q3)
    emit_cx(q1, q3)
    circuit.t(q2)
    circuit.t(q3)
    emit_cx(q1, q2)
    circuit.h(q3)
    circuit.t(q1)
    circuit.tdg(q2)
    emit_cx(q1, q2)


def _emit_chain_cx(circuit: Circuit, path: tuple[int, ...]) -> None:
    """Exact distant CNOT along a path of |0> ancillas: copy the control
    value down the chain, fire the last link, then un-copy."""
    for i in range(len(path) - 1):
        circuit.cnot(path[i], path[i + 1])
    for i in range(len(path) - 3, -1, -1):
        circuit.cnot(path[i], path[i + 1])


def ccnot_on_geometry(placement: GeometryPlacement, variant: str) -> BuiltCircuit:
    """The CCNOT decomposition with every missing connection supplemented.

    Linear triples route their one distant pair through SWAP sandwiches;
    stars mediate every CNOT through the center ancilla (reset per the
    variant); ring layouts pass distant CNOTs down CNOT-reset ancilla
    chains. The star x-reset form is only exact for controls prepared in
    |1>, matching how it is surveyed.
    """
    if variant not in CCNOT_VARIANTS:
        raise BuildError(f"unknown CCNOT variant {variant!r}")
    if variant.startswith("star4"):
        _require_kind(placement, "star4")
    else:
        _require_kind(placement, variant)

    if variant in ("linear3-cct", "linear3-ctc"):
        roles = _roles_for(3, {})
        circuit = Circuit(3, roles=roles)
        # logical target per variant; controls keep geometric order
        q3 = 2 if variant == "linear3-cct" else 1
        q1, q2 = [q for q in (0, 1, 2) if q != q3]

        def emit(c, t):
            if {c, t} == {0, 2}:
                circuit.extend(swap_via_cnots(c, 1))
                circuit.cnot(1, t)
                circuit.extend(swap_via_cnots(1, c))
            else:
                circuit.cnot(c, t)

        _toffoli_body(circuit, emit, q1, q2, q3)
        return BuiltCircuit(circuit, placement.computational, placement, "")

    if variant.startswith("star4"):
        strategy = "x-reset" if variant.endswith("x-reset") else "cnot-reset"
        layout = placement.computational + placement.ancilla
        q3 = layout.index(placement.target)
        q1, q2 = [q for q in (0, 1, 2) if q != q3]
        circuit = Circuit(4, roles=_roles_for(4, {3: "ancilla"}))

        def emit(c, t):
            _emit_star_cx(circuit, c, t, 3, strategy)

        _toffoli_body(circuit, emit, q1, q2, q3)
        return BuiltCircuit(circuit, layout, placement, "0")

    layout = placement.computational + placement.ancilla
    circuit = Circuit(6, roles=_roles_for(6, {3: "ancilla", 4: "ancilla", 5: "ancilla"}))
    if variant == "ring6-3chain":
        # geometric middle is the target; the outer pair routes through the
        # three-ancilla arc 0 - 5 - 4 - 3 - 2
        q1, q2, q3 = 0, 2, 1

        def emit(c, t):
            if {c, t} == {0, 2}:
                _emit_chain_cx(circuit, (0, 5, 4, 3, 2) if c == 0 else (2, 3, 4, 5, 0))
            else:
                circuit.cnot(c, t)

        _toffoli_body(circuit, emit, q1, q2, q3)
    else:
        # one ancilla between each computational pair: 3 mediates (0,1),
        # 4 mediates (1,2), 5 mediates (2,0)
        mediator = {frozenset((0, 1)): 3, frozenset((1, 2)): 4, frozenset((0, 2)): 5}
        q3 = layout.index(placement.target)
        q1, q2 = [q for q in (0, 1, 2) if q != q3]

        def emit(c, t):
            _emit_chain_cx(circuit, (c, mediator[frozenset((c, t))], t))

        _toffoli_body(circuit, emit, q1, q2, q3)
    return BuiltCircuit(circuit, layout, placement, "000")


def qft_dagger_3(placement: GeometryPlacement | str = "ideal") -> BuiltCircuit:
    """3-qubit inverse QFT, no terminal swaps.

    Gate order: H(0); cR(-pi/2, 1->0); cR(-pi/4, 2->0); H(1);
    cR(-pi/2, 2->1); H(2). Qubit 0 therefore reads out the least
    significant result bit (see qpe_expected_label).
    """
    if isinstance(placement, str):
        if placement != "ideal":
            raise BuildError(f"unknown QFT geometry {placement!r}")
        circuit = Circuit(3, roles=_roles_for(3, {}))
        circuit.h(0)
        circuit.extend(control_rphi_ops(1, 0, -math.pi / 2))
        circuit.extend(control_rphi_ops(2, 0, -math.pi / 4))
        circuit.h(1)
        circuit.extend(control_rphi_ops(2, 1, -math.pi / 2))
        circuit.h(2)
        return BuiltCircuit(circuit, (0, 1, 2), None, "")

    if placement.kind in ("linear3-cct", "linear3-ctc"):
        circuit = Circuit(3, roles=_roles_for(3, {}))
        circuit.h(0)
        circuit.extend(control_rphi_ops(1, 0, -math.pi / 2))
        circuit.extend(swap_via_cnots(2, 1))
        circuit.extend(control_rphi_ops(1, 0, -math.pi / 4))
        circuit.extend(swap_via_cnots(1, 2))
        circuit.h(1)
        circuit.extend(control_rphi_ops(2, 1, -math.pi / 2))
        circuit.h(2)
        return BuiltCircuit(circuit, placement.computational, placement, "")

    if placement.kind == "star4":
        layout = placement.computational + placement.ancilla
        circuit = Circuit(4, roles=_roles_for(4, {3: "ancilla"}))
        circuit.h(0)
        circuit.cnot(1, 3)
        circuit.extend(control_rphi_ops(3, 0, -math.pi / 2))
        circuit.cnot(1, 3)
        # the next two phase gates share control 2: keep its copy on the
        # ancilla across both and skip one reset round-trip (saves 2 CNOTs)
        circuit.cnot(2, 3)
        circuit.extend(control_rphi_ops(3, 0, -math.pi / 4))
        circuit.h(1)
        circuit.extend(control_rphi_ops(3, 1, -math.pi / 2))
        circuit.cnot(2, 3)
        circuit.h(2)
        return BuiltCircuit(circuit, layout, placement, "0")

    if placement.kind == "ring6-3chain":
        layout = placement.computational + placement.ancilla
        circuit = Circuit(6, roles=_roles_for(6, {3: "ancilla", 4: "ancilla", 5: "ancilla"}))
        circuit.h(0)
        circuit.extend(control_rphi_ops(1, 0, -math.pi / 2))
        # copy qubit 2's value along the ancilla arc to sit beside qubit 0
        circuit.cnot(2, 3)
        circuit.cnot(3, 4)
        circuit.cnot(4, 5)
        circuit.extend(control_rphi_ops(5, 0, -math.pi / 4))
        circuit.cnot(4, 5)
        circuit.cnot(3, 4)
        circuit.cnot(2, 3)
        circuit.h(1)
        circuit.extend(control_rphi_ops(2, 1, -math.pi / 2))
        circuit.h(2)
        return BuiltCircuit(circuit, layout, placement, "000")

    raise BuildError(f"QFT does not support placement kind {placement.kind!r}")


def qpe_prep(phi: float) -> list[GateOp]:
    """Phase-ladder prep: H on all three qubits, then Rphi(4phi), Rphi(2phi),
    Rphi(phi) on qubits 0, 1, 2. Mimics controlled-U powers with plain
    rotations; phi = k*pi/4 then reads out k after the inverse QFT."""
    c = Circuit(3)
    c.h(0)
    c.h(1)
    c.h(2)
    c.rphi(4.0 * phi, 0)
    c.rphi(2.0 * phi, 1)
    c.rphi(phi, 2)
    return list(c.ops)


def qpe_expected_label(k: int) -> str:
    """Measured label for perfect phase k*pi/4: the inverse QFT emits the
    result bit-reversed (qubit 0 reads the least significant bit of k)."""
    if not (0 <= k < 8):
        raise BuildError(f"phase index must be 0..7, got {k}")
    return format(k, "03b")[::-1]


def qpe_on_geometry(placement: GeometryPlacement | str, phi: float) -> BuiltCircuit:
    """Phase-ladder prep followed by the geometry's inverse QFT."""
    built = qft_dagger_3(placement)
    circuit = Circuit(built.circuit.n_qubits, roles=built.circuit.roles)
    circuit.extend(qpe_prep(phi))
    circuit.extend(built.circuit.ops)
    return BuiltCircuit(circuit, built.layout, built.placement, built.desired_ancilla)
