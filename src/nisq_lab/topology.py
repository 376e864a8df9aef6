"""Coupling graphs, geometry enumeration, and connectivity validation.

The shipped 20-qubit map ("poughkeepsie.json") and the four stored chain
orientations live in the package data directory. Enumeration output is
deterministic: every list is sorted by its qubit-index tuples.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from itertools import combinations

from .simulator import Circuit, GateOp, content_hash, is_json_int, load_package_data


class TopologyError(ValueError):
    pass


@dataclass(frozen=True)
class CouplingGraph:
    """Undirected qubit connectivity; 2-qubit gates are legal on edges only."""

    n_qubits: int
    edges: frozenset[tuple[int, int]]

    @classmethod
    def from_edge_list(cls, n_qubits: int, edges) -> "CouplingGraph":
        norm: set[tuple[int, int]] = set()
        for e in edges:
            if len(e) != 2:
                raise TopologyError(f"edge {e!r} is not a pair")
            a, b = int(e[0]), int(e[1])
            if a == b:
                raise TopologyError(f"self-loop on qubit {a}")
            if not (0 <= a < n_qubits and 0 <= b < n_qubits):
                raise TopologyError(f"edge ({a},{b}) out of range for {n_qubits} qubits")
            key = (a, b) if a < b else (b, a)
            if key in norm:
                raise TopologyError(f"duplicate edge {key}")
            norm.add(key)
        return cls(n_qubits, frozenset(norm))

    def has_edge(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges

    def neighbors(self, q: int) -> tuple[int, ...]:
        return tuple(sorted(b if a == q else a for a, b in self.edges if q in (a, b)))

    def to_dict(self) -> dict:
        return {"n_qubits": self.n_qubits, "edges": sorted(list(e) for e in self.edges)}

    def content_hash(self) -> str:
        return content_hash(self, self.to_dict)


def load_graph(path) -> CouplingGraph:
    """Load and validate a topology file: {"n_qubits": N, "edges": [[a,b],...]}."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise TopologyError(f"cannot read topology file {path}: {exc}") from exc
    return graph_from_dict(raw)


def graph_from_dict(raw: dict) -> CouplingGraph:
    if not isinstance(raw, dict) or "n_qubits" not in raw or "edges" not in raw:
        raise TopologyError("topology dict needs 'n_qubits' and 'edges'")
    n, edges = raw["n_qubits"], raw["edges"]
    if not is_json_int(n) or n < 1:
        raise TopologyError(f"'n_qubits' must be a positive integer, got {json.dumps(n)[:40]}")
    if not isinstance(edges, list) or not all(
            isinstance(e, list) and all(is_json_int(q) for q in e) for e in edges):
        raise TopologyError("'edges' must be a list of [a, b] integer pairs")
    return CouplingGraph.from_edge_list(n, edges)


# The shipped data is read once per process; the loaders return frozen
# objects, so every caller can share them.

@functools.cache
def shipped_poughkeepsie() -> CouplingGraph:
    """The 20-qubit lattice shipped with the package (23 edges)."""
    return graph_from_dict(load_package_data("poughkeepsie.json"))


@functools.cache
def shipped_orientations() -> tuple[tuple[int, ...], ...]:
    """Four stored full-lattice chain paths, as vertex sequences."""
    return tuple(tuple(p) for p in load_package_data("chain_orientations.json"))


PLACEMENT_KINDS = (
    "linear3-cct",
    "linear3-ctc",
    "star4",
    "ring6-3chain",
    "ring6-1chains",
)


@dataclass(frozen=True)
class GeometryPlacement:
    """A concrete assignment of computational and ancilla qubits to a shape.

    ``computational`` is stored in geometric order (chain order for linear
    triples and ring arcs, sorted outer qubits for stars); ``qubits``, the
    computational qubits then the ancillas, is the device qubit of each
    local of a circuit built on the placement. ``target`` marks the qubit
    receiving the X action in CCNOT-style circuits.
    """

    kind: str
    computational: tuple[int, ...]
    ancilla: tuple[int, ...]
    target: int

    def __post_init__(self):
        if self.kind not in PLACEMENT_KINDS:
            raise TopologyError(f"unknown placement kind {self.kind!r}")
        qubits = self.computational + self.ancilla
        if len(set(qubits)) != len(qubits):
            raise TopologyError(f"placement qubits not distinct: {qubits}")

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.computational + self.ancilla

    def check(self, g: CouplingGraph) -> None:
        """Raise TopologyError if the placement's adjacency contract fails."""
        c, a = self.computational, self.ancilla
        def need(x, y):
            if not g.has_edge(x, y):
                raise TopologyError(f"{self.kind} placement needs edge ({x},{y})")
        if self.kind in ("linear3-cct", "linear3-ctc"):
            if len(c) != 3 or a:
                raise TopologyError("linear3 placements take 3 computational qubits")
            need(c[0], c[1])
            need(c[1], c[2])
            expected = c[2] if self.kind == "linear3-cct" else c[1]
            if self.target != expected:
                raise TopologyError(f"{self.kind} target must be {expected}")
        elif self.kind == "star4":
            if len(c) != 3 or len(a) != 1:
                raise TopologyError("star4 takes 3 outer qubits and 1 ancilla")
            for outer in c:
                need(a[0], outer)
            if self.target not in c:
                raise TopologyError("star4 target must be an outer qubit")
        elif self.kind == "ring6-3chain":
            if len(c) != 3 or len(a) != 3:
                raise TopologyError("ring6-3chain takes 3+3 qubits")
            need(c[0], c[1])
            need(c[1], c[2])
            need(c[2], a[0])
            need(a[0], a[1])
            need(a[1], a[2])
            need(a[2], c[0])
            if self.target != c[1]:
                raise TopologyError("ring6-3chain target must be the middle computational qubit")
        elif self.kind == "ring6-1chains":
            if len(c) != 3 or len(a) != 3:
                raise TopologyError("ring6-1chains takes 3+3 qubits")
            need(c[0], a[0])
            need(a[0], c[1])
            need(c[1], a[1])
            need(a[1], c[2])
            need(c[2], a[2])
            need(a[2], c[0])
            if self.target not in c:
                raise TopologyError("ring6-1chains target must be computational")


def chain_placement(path) -> tuple[int, ...]:
    """A chain's placement: its path (control, ancillas, target) as ints,
    which is also the chain circuit's layout. Raises TopologyError for fewer
    than 2 qubits or a repeated qubit."""
    path = tuple(int(q) for q in path)
    if len(path) < 2:
        raise TopologyError("a chain needs at least control and target")
    if len(set(path)) != len(path):
        raise TopologyError(f"chain qubits not distinct: {path}")
    return path


def _edge_vertices(g: CouplingGraph) -> list[int]:
    """The qubits with at least one edge, ascending; no placement uses any
    other, so enumeration costs nothing per isolated qubit."""
    return sorted({q for e in g.edges for q in e})


def enumerate_linear_triples(g: CouplingGraph) -> list[GeometryPlacement]:
    """All center-adjacent triples a-b-c, once each (count = sum C(deg,2))."""
    out = []
    for b in _edge_vertices(g):
        for a, c in combinations(g.neighbors(b), 2):
            out.append(GeometryPlacement("linear3-cct", (a, b, c), (), c))
    out.sort(key=lambda p: p.computational)
    return out


def linear3_variants(triple: GeometryPlacement) -> list[GeometryPlacement]:
    """The three target placements of one triple: both CCT ends plus CTC."""
    a, b, c = triple.computational
    return [
        GeometryPlacement("linear3-cct", (a, b, c), (), c),
        GeometryPlacement("linear3-cct", (c, b, a), (), a),
        GeometryPlacement("linear3-ctc", (a, b, c), (), b),
    ]


def enumerate_stars(g: CouplingGraph) -> list[GeometryPlacement]:
    """All (center, 3 neighbors) stars; one placement per unordered neighbor set."""
    out = []
    for m in _edge_vertices(g):
        for outer in combinations(g.neighbors(m), 3):
            out.append(GeometryPlacement("star4", outer, (m,), outer[0]))
    out.sort(key=lambda p: (p.ancilla, p.computational))
    return out


def star_variants(star: GeometryPlacement) -> list[GeometryPlacement]:
    """One placement per choice of target among the three outer qubits."""
    return [
        GeometryPlacement("star4", star.computational, star.ancilla, t)
        for t in star.computational
    ]


def enumerate_six_rings(g: CouplingGraph) -> list[tuple[int, ...]]:
    """All simple 6-cycles, each once, as its least rotation or reflection."""
    found: list[tuple[int, ...]] = []

    def extend(path: list[int]) -> None:
        head = path[-1]
        for nxt in g.neighbors(head):
            if len(path) == 6:
                # of the ring's two directions from its start, keep the least
                if nxt == path[0] and path[1] < path[5]:
                    found.append(tuple(path))
                continue
            # smallest vertex first avoids re-finding rotations
            if nxt > path[0] and nxt not in path:
                path.append(nxt)
                extend(path)
                path.pop()

    for start in _edge_vertices(g):
        extend([start])
    return sorted(found)


def ring_placements(g: CouplingGraph, kind: str) -> list[GeometryPlacement]:
    """Every target assignment of the 6-qubit ring geometries.

    For each ring the "3chain" form slides a block of three consecutive
    computational qubits around the ring (target = middle of the block);
    the "1chains" form alternates computational and ancilla qubits. Both
    yield one placement per choice of target vertex, so six per ring.
    """
    if kind not in ("ring6-3chain", "ring6-1chains"):
        raise TopologyError(f"not a ring placement kind: {kind!r}")
    out = []
    for ring in enumerate_six_rings(g):
        if kind == "ring6-3chain":
            for r in range(6):
                comp = tuple(ring[(r + i) % 6] for i in range(3))
                anc = tuple(ring[(r + i) % 6] for i in range(3, 6))
                out.append(GeometryPlacement(kind, comp, anc, comp[1]))
        else:
            for phase in range(2):
                comp = tuple(ring[(phase + 2 * i) % 6] for i in range(3))
                anc = tuple(ring[(phase + 2 * i + 1) % 6] for i in range(3))
                for t in comp:
                    out.append(GeometryPlacement(kind, comp, anc, t))
    out.sort(key=lambda p: (p.computational, p.ancilla, p.target))
    return out


def chain_paths(g: CouplingGraph, orientation_id: int) -> tuple[int, ...]:
    """One of the stored full-lattice chain paths, validated against g."""
    orientations = shipped_orientations()
    if not (1 <= orientation_id <= len(orientations)):
        raise TopologyError(f"unknown orientation {orientation_id}; have 1..{len(orientations)}")
    path = tuple(orientations[orientation_id - 1])
    if len(path) != g.n_qubits or len(set(path)) != len(path):
        raise TopologyError(f"orientation {orientation_id} is not a simple full-length path")
    for a, b in zip(path, path[1:]):
        if not g.has_edge(a, b):
            raise TopologyError(f"orientation {orientation_id} uses missing edge ({a},{b})")
    return path


def validate_circuit(g: CouplingGraph, circuit: Circuit) -> list[GateOp]:
    """Return the ops that act on a qubit the device does not have, or on a
    pair of qubits that is not an edge (empty = ok)."""
    return [op for op in circuit.ops
            if max(op.qubits) >= g.n_qubits
            or (len(op.qubits) == 2 and not g.has_edge(*op.qubits))]
