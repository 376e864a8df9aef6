"""Coupling graph loading, geometry enumeration, and validation."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nisq_lab import topology
from nisq_lab.simulator import Circuit
from nisq_lab.topology import CouplingGraph, TopologyError

from oracles import six_cycles


def path_graph(n):
    return CouplingGraph.from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def test_shipped_map_counts(graph):
    assert graph.n_qubits == 20
    assert len(graph.edges) == 23


def test_load_graph_round_trip(tmp_path, graph):
    p = tmp_path / "topo.json"
    p.write_text(json.dumps(graph.to_dict()))
    g2 = topology.load_graph(p)
    assert g2 == graph


def test_load_rejects_self_loop(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"n_qubits": 3, "edges": [[0, 0]]}))
    with pytest.raises(TopologyError):
        topology.load_graph(p)


def test_load_rejects_duplicate_edge():
    with pytest.raises(TopologyError):
        CouplingGraph.from_edge_list(3, [(0, 1), (1, 0)])


def test_load_rejects_out_of_range():
    with pytest.raises(TopologyError):
        CouplingGraph.from_edge_list(3, [(0, 3)])


def test_load_rejects_malformed(tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    with pytest.raises(TopologyError):
        topology.load_graph(p)


def test_triples_path3():
    assert len(topology.enumerate_linear_triples(path_graph(3))) == 1


def test_triples_triangle():
    k3 = CouplingGraph.from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
    assert len(topology.enumerate_linear_triples(k3)) == 3


def test_triples_shipped_is_32(graph):
    assert len(topology.enumerate_linear_triples(graph)) == 32


def test_stars_shipped_is_6(graph):
    assert len(topology.enumerate_stars(graph)) == 6


def test_star_k13():
    k13 = CouplingGraph.from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
    stars = topology.enumerate_stars(k13)
    assert len(stars) == 1
    assert stars[0].ancilla == (0,)


def test_stars_path3_none():
    assert topology.enumerate_stars(path_graph(3)) == []


def test_six_rings_shipped_is_2(graph):
    rings = topology.enumerate_six_rings(graph)
    assert len(rings) == 2
    assert rings == [(5, 6, 7, 12, 11, 10), (7, 8, 9, 14, 13, 12)]


def test_six_rings_c6():
    c6 = CouplingGraph.from_edge_list(6, [(i, (i + 1) % 6) for i in range(6)])
    assert len(topology.enumerate_six_rings(c6)) == 1


@given(st.integers(6, 9), st.data())
@settings(max_examples=40, deadline=None)
def test_six_rings_match_brute_force(n, data):
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # each pair an edge with probability about 1/2: dense enough for rings
    keep = data.draw(st.lists(st.booleans(), min_size=len(all_pairs), max_size=len(all_pairs)))
    chosen = [pair for pair, kept in zip(all_pairs, keep) if kept]
    g = CouplingGraph.from_edge_list(n, chosen)
    assert topology.enumerate_six_rings(g) == six_cycles(n, chosen)


def test_ring_placements_twelve_each(graph):
    for kind in ("ring6-3chain", "ring6-1chains"):
        placements = topology.ring_placements(graph, kind)
        assert len(placements) == 12
        for p in placements:
            p.check(graph)
        # across each ring, every vertex appears as the target exactly once
        targets = sorted(p.target for p in placements)
        assert targets == sorted(list(topology.enumerate_six_rings(graph)[0])
                                 + list(topology.enumerate_six_rings(graph)[1]))


def test_chain_orientations_valid(graph):
    paths = [topology.chain_paths(graph, o) for o in (1, 2, 3, 4)]
    for path in paths:
        assert len(path) == 20
        assert len(set(path)) == 20
        for a, b in zip(path, path[1:]):
            assert graph.has_edge(a, b)
    assert len({tuple(p) for p in paths}) == 4


def test_chain_prefixes_are_valid_chains(graph):
    path = topology.chain_paths(graph, 1)
    for k in range(0, 19):
        prefix = path[: k + 2]
        assert topology.chain_placement(prefix) == prefix
        assert all(graph.has_edge(a, b) for a, b in zip(prefix, prefix[1:]))


def test_chain_placement_is_its_path_of_distinct_ints():
    path = topology.chain_placement(np.array([3, 4, 9]))
    assert path == (3, 4, 9) and all(type(q) is int for q in path)
    for bad in ((0,), (), (0, 1, 0)):
        with pytest.raises(TopologyError):
            topology.chain_placement(bad)


def test_unknown_orientation(graph):
    with pytest.raises(TopologyError):
        topology.chain_paths(graph, 5)


def test_orientation_invalid_for_other_graph():
    with pytest.raises(TopologyError):
        topology.chain_paths(path_graph(20), 1)


def test_validate_circuit(graph):
    ok = Circuit(20).cnot(0, 1)
    assert topology.validate_circuit(graph, ok) == []
    bad = Circuit(20).cnot(0, 2)
    violations = topology.validate_circuit(graph, bad)
    assert len(violations) == 1
    assert violations[0].qubits == (0, 2)


def test_every_enumerated_placement_satisfies_its_invariants(graph):
    for triple in topology.enumerate_linear_triples(graph):
        triple.check(graph)
        for variant in topology.linear3_variants(triple):
            variant.check(graph)
    for star in topology.enumerate_stars(graph):
        star.check(graph)
        for variant in topology.star_variants(star):
            variant.check(graph)


def test_enumerations_are_sorted_and_deterministic(graph):
    a = topology.enumerate_linear_triples(graph)
    b = topology.enumerate_linear_triples(graph)
    assert a == b
    assert [p.computational for p in a] == sorted(p.computational for p in a)


@given(st.integers(2, 8), st.data())
@settings(max_examples=40, deadline=None)
def test_triple_count_matches_degree_formula(n, data):
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(all_pairs), unique=True, max_size=len(all_pairs)))
    g = CouplingGraph.from_edge_list(n, chosen)
    expected = sum(
        len(g.neighbors(v)) * (len(g.neighbors(v)) - 1) // 2 for v in range(n)
    )
    assert len(topology.enumerate_linear_triples(g)) == expected


def test_placement_check_rejects_bad_adjacency(graph):
    with pytest.raises(TopologyError):
        topology.GeometryPlacement("linear3-cct", (0, 2, 4), (), 4).check(graph)
