import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetracolor.coloring import (DomainMismatch, EdgeColor, EdgeColoring,
                                 face4_to_edge3, find_face_4coloring,
                                 find_tait_coloring, serialize_coloring, to_bits,
                                 verify_coloring)
from tetracolor.dscc import (CoverageGap, EvenSubgraph,
                             ParityViolation, check_even, decompose, dscc_to_face4,
                             serialize_decomposition, split_subgraphs,
                             trail_decompose)
from tetracolor.harness import GenConfig, generate
from tetracolor.kempe import run_procedure


def degree(m, sub, v):
    """Darts at v whose edge lies in the subgraph."""
    return sum(1 for d in m.vertex_darts(v) if m.edge_id(d) in sub.edges)


def tait_bits(m):
    return to_bits(m, find_tait_coloring(m))


def edge_ids(m, trail):
    return frozenset(m.edge_id(d) for d in trail.darts)


def fig_coloring(fig_map):
    """The three-matching coloring of the six-vertex example map."""
    by_color = {
        EdgeColor.BLUE: [(1, 2), (3, 4), (5, 6)],
        EdgeColor.YELLOW: [(1, 5), (2, 3), (4, 6)],
        EdgeColor.GREEN: [(1, 3), (4, 5), (2, 6)],
    }
    assignment = {}
    for color, pairs in by_color.items():
        for u, v in pairs:
            assignment[fig_map.find_edge(u - 1, v - 1)] = color
    return EdgeColoring(assignment)


class TestSplit:
    def test_fig_map_blue_subgraph_is_two_regular(self, fig_map):
        ec = fig_coloring(fig_map)
        assert verify_coloring(fig_map, ec) == []
        blue, yellow = split_subgraphs(fig_map, to_bits(fig_map, ec))
        assert len(blue.edges) == 6 and len(yellow.edges) == 6
        for v in range(6):
            assert degree(fig_map, blue, v) == 2
            assert degree(fig_map, yellow, v) == 2

    def test_k4_split_is_union_of_two_matchings(self, k4):
        blue, yellow = split_subgraphs(k4, tait_bits(k4))
        assert len(blue.edges) == 4
        assert all(degree(k4, blue, v) == 2 for v in range(4))

    def test_parity_violation_names_vertex(self, k4):
        broken = tait_bits(k4)
        # recolor the blue edge at vertex 0: it then sees one green and no
        # blue, an odd blue-green count
        broken[k4.find_edge(0, 1)] = 2
        with pytest.raises(ParityViolation) as exc:
            split_subgraphs(k4, broken)
        assert exc.value.vertex in (0, 1)

    def test_parity_violation_is_the_least_odd_vertex(self, dodecahedron):
        # two blue edges turned yellow leave 14, 17, 18 and 19 odd in both
        # subgraphs; the blue check comes first and names the least of them
        m = dodecahedron
        broken = tait_bits(m)
        for u, v in ((17, 18), (14, 19)):
            e = m.find_edge(u, v)
            assert broken[e] == 1
            broken[e] = 2
        with pytest.raises(ParityViolation) as exc:
            split_subgraphs(m, broken)
        assert exc.value.vertex == 14
        assert str(exc.value) == "odd subgraph degree at vertex 14"

    def test_check_even_names_the_least_odd_vertex(self, dodecahedron):
        m = dodecahedron
        for edges, least in ((frozenset(m.edges()[7:30]), 8),
                             (frozenset((m.find_edge(17, 18), m.find_edge(14, 19))), 14),
                             (frozenset(m.edges()), 0)):
            odd = [v for v in range(m.vertex_count)
                   if sum(m.edge_id(d) in edges for d in m.vertex_darts(v)) % 2]
            assert min(odd) == least
            with pytest.raises(ParityViolation) as exc:
                check_even(m, edges)
            assert exc.value.vertex == least

    def test_check_even_counts_a_loop_twice(self):
        from tetracolor.planar_map import parse_map
        m = parse_map("2\n1: 1 1 2\n2: 2 2 1\n", allow_parallel=True)
        loop = m.find_edge(0, 0)
        check_even(m, frozenset((loop,)))
        with pytest.raises(ParityViolation) as exc:
            check_even(m, frozenset(m.edges()))
        assert exc.value.vertex == 0

    def test_green_edges_in_both(self, prism):
        ec = tait_bits(prism)
        blue, yellow = split_subgraphs(prism, ec)
        for e in prism.edges():
            if ec[e] == 4:
                assert e in blue.edges and e in yellow.edges

    def test_an_uncolored_edge_or_a_short_list_is_refused(self, k4):
        for broken in (tait_bits(k4)[:-1], [0] + tait_bits(k4)[1:]):
            with pytest.raises(DomainMismatch):
                split_subgraphs(k4, broken)


class TestTrailDecompose:
    def test_two_regular_gives_component_cycles(self, fig_map):
        blue, _ = split_subgraphs(fig_map, to_bits(fig_map, fig_coloring(fig_map)))
        trails = trail_decompose(blue, fig_map)
        assert len(trails) == 1  # a single closed curve through all six vertices
        assert trails[0].is_simple_cycle(fig_map)
        assert edge_ids(fig_map, trails[0]) == blue.edges

    def test_empty_subgraph(self, k4):
        assert trail_decompose(EvenSubgraph(frozenset(), EdgeColor.BLUE), k4) == []

    def test_edges_partitioned(self, dodecahedron):
        for sub in split_subgraphs(dodecahedron, tait_bits(dodecahedron)):
            trails = trail_decompose(sub, dodecahedron)
            seen = set()
            for t in trails:
                ids = edge_ids(dodecahedron, t)
                assert not (ids & seen)
                seen |= ids
            assert seen == sub.edges

    def test_four_valent_hub_passed_twice(self, dodecahedron):
        # a contracted map carries a degree-4 vertex inside the majority curve
        tr = run_procedure(dodecahedron, 0)
        cmap, hub, ec = tr.contracted_map, tr.hub, tr.initial_coloring
        passed_twice = 0
        for pair, tag in ((1 | 4, EdgeColor.BLUE), (2 | 4, EdgeColor.YELLOW)):
            edges = frozenset(e for e in cmap.edges() if ec[e] & pair)
            sub = EvenSubgraph(edges, tag)
            if degree(cmap, sub, hub) != 4:
                continue
            passed_twice += 1
            trails = trail_decompose(sub, cmap)
            hub_visits = sum(t.vertices(cmap).count(hub) for t in trails)
            assert hub_visits == 2
            covered = set()
            for t in trails:
                covered |= edge_ids(cmap, t)
            assert covered == edges
        assert passed_twice >= 1   # both subgraphs when green is the majority

    def test_noncrossing_pairing_at_shared_vertices(self, dodecahedron):
        # at every vertex, the dart couples used by trails must be
        # rotation-adjacent among the subgraph darts (nested, not crossing)
        blue, _ = split_subgraphs(dodecahedron, tait_bits(dodecahedron))
        trails = trail_decompose(blue, dodecahedron)
        m = dodecahedron
        couples = {}
        for t in trails:
            darts = t.darts
            for i, d in enumerate(darts):
                arrive = m.twin(d)
                depart = darts[(i + 1) % len(darts)]
                couples.setdefault(m.origin(depart), []).append((arrive, depart))
        for v, cs in couples.items():
            incident = [d for d in m.vertex_darts(v)
                        if m.edge_id(d) in blue.edges]
            if len(incident) <= 2:
                continue
            k = incident.index(min(incident))
            ordered = incident[k:] + incident[:k]
            allowed = {frozenset(ordered[i:i + 2]) for i in range(0, len(ordered), 2)}
            for arrive, depart in cs:
                assert frozenset((arrive, depart)) in allowed


class TestDsccToFace4:
    def test_fig_map_colors(self, fig_map):
        ec = fig_coloring(fig_map)
        blue, yellow = split_subgraphs(fig_map, to_bits(fig_map, ec))
        fc = dscc_to_face4(fig_map, blue, yellow)
        assert fc[0].value == 0
        assert verify_coloring(fig_map, fc) == []
        # crossing in from the outer face flips exactly the crossed bits
        assert face4_to_edge3(fig_map, fc) == ec

    def test_single_cycle_blue_only(self, four_cycle):
        blue = EvenSubgraph(frozenset(four_cycle.edges()), EdgeColor.BLUE)
        yellow = EvenSubgraph(frozenset(), EdgeColor.YELLOW)
        fc = dscc_to_face4(four_cycle, blue, yellow)
        assert {f: c.value for f, c in fc.assignment.items()} == {0: 0, 1: 0b10}

    def test_coverage_gap(self, four_cycle):
        empty = EvenSubgraph(frozenset(), EdgeColor.BLUE)
        with pytest.raises(CoverageGap):
            dscc_to_face4(four_cycle, empty,
                          EvenSubgraph(frozenset(), EdgeColor.YELLOW))

    def test_round_trip_identity_small_corpus(self):
        for n in (4, 6, 8, 10):
            for m in generate(GenConfig(n)):
                fc = find_face_4coloring(m)
                blue, yellow = split_subgraphs(m, to_bits(m, face4_to_edge3(m, fc)))
                assert dscc_to_face4(m, blue, yellow) == fc


class TestDump:
    def test_fig_map_dump_golden(self, fig_map):
        dec = decompose(fig_map, fig_coloring(fig_map))
        assert serialize_decomposition(fig_map, dec) == (
            "blue trail: 1 2 6 5 4 3\n"
            "yellow trail: 1 5 4 6 2 3\n")
        assert dec.shared_vertices == frozenset()


def test_face_route_and_trails_pinned_on_corpus12(corpus12):
    # the face colouring, its Tait colouring and the trail dump of every
    # corpus12 map in both orientations, byte for byte; the bench digest
    # does not cover trails
    h = hashlib.sha256()
    for m in corpus12:
        for v in (m, m.mirrored()):
            fc = find_face_4coloring(v)
            ec = face4_to_edge3(v, fc)
            for text in (serialize_coloring(v, fc), serialize_coloring(v, ec),
                         serialize_decomposition(v, decompose(v, ec))):
                h.update(text.encode())
    assert h.hexdigest() == (
        "0bd26ed8eeeae67f1b17fd1c13a0cc29fe10afb66af264ad90a2953c184a609e")


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_split_even_and_covering_on_random_maps(seed):
    (m,) = generate(GenConfig(12, mode="random", count=1, seed=seed))
    blue, yellow = split_subgraphs(m, tait_bits(m))
    for v in range(m.vertex_count):
        assert degree(m, blue, v) % 2 == 0
        assert degree(m, yellow, v) % 2 == 0
    assert blue.edges | yellow.edges == set(m.edges())
    fc = dscc_to_face4(m, blue, yellow)
    assert verify_coloring(m, fc) == []
