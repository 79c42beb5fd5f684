import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetracolor.harness import (GenConfig, _exhaustive_level, canonical_form,
                                generate)
from tetracolor.planar_map import (BridgeDeletion, DuplicateNeighbor,
                                   MalformedInput, NonReciprocal,
                                   NonSimpleBoundary, UnknownFace,
                                   contract_face, delete_edge_suppress,
                                   from_neighbor_lists,
                                   parse_map, serialize_map, validate)
from conftest import K4_TEXT


def euler(m):
    return m.vertex_count - m.edge_count + m.face_count


class TestParse:
    def test_k4(self, k4):
        assert (k4.vertex_count, k4.edge_count, k4.face_count) == (4, 6, 4)

    def test_single_edge(self):
        m = parse_map("2\n1: 2\n2: 1\n")
        assert (m.vertex_count, m.edge_count, m.face_count) == (2, 1, 1)
        assert euler(m) == 2

    def test_non_reciprocal(self):
        with pytest.raises(NonReciprocal):
            parse_map("2\n1: 2\n2:\n")

    def test_duplicate_neighbor_rejected(self):
        with pytest.raises(DuplicateNeighbor):
            parse_map("2\n1: 2 2\n2: 1 1\n")

    def test_parallel_allowed_when_flagged(self):
        m = parse_map("2\n1: 2 2 2\n2: 1 1 1\n", allow_parallel=True)
        assert (m.vertex_count, m.edge_count, m.face_count) == (2, 3, 3)
        assert all(len(f) == 2 for f in m.faces)

    @pytest.mark.parametrize("text", [
        "", "x", "3\n1: 2\n2: 1\n", "2\n1: 3\n2: 1\n", "2\n1 2\n2 1\n",
        "2\n1: 2\n1: 2\n",
    ])
    def test_malformed(self, text):
        with pytest.raises(MalformedInput):
            parse_map(text)

    def test_serialize_normalizes(self):
        messy = "# comment\n 4 \n2:  3 4   1\n1: 2 4 3\n\n3: 1 4 2 # tail\n4: 1 2 3\n"
        assert serialize_map(parse_map(messy)) == K4_TEXT

    def test_round_trip_bit_exact(self, k4, prism, cube):
        for m in (k4, prism, cube):
            text = serialize_map(m)
            assert serialize_map(parse_map(text)) == text


class TestFaces:
    def test_k4_triangles(self, k4):
        assert sorted(len(f) for f in k4.faces) == [3, 3, 3, 3]

    def test_four_cycle_two_quads(self, four_cycle):
        assert sorted(len(f) for f in four_cycle.faces) == [4, 4]

    def test_cube_six_quads(self, cube):
        assert sorted(len(f) for f in cube.faces) == [4] * 6

    def test_every_dart_on_one_face(self, cube):
        counts = [0] * cube.dart_count
        for f in cube.faces:
            for d in f.darts:
                counts[d] += 1
        assert counts == [1] * cube.dart_count

    def test_face_walks_start_at_least_dart(self, cube):
        for f in cube.faces:
            assert f.darts[0] == min(f.darts)


class TestValidate:
    def test_k4_all_flags(self, k4):
        report = validate(k4)
        assert report.all_ok and report.min_degree == 3

    def test_single_edge_flags(self):
        report = validate(parse_map("2\n1: 2\n2: 1\n"))
        assert not report.bridgeless and not report.cubic
        assert report.connected and report.planar

    def test_k5_not_planar(self):
        m = from_neighbor_lists([[w for w in range(5) if w != v]
                                 for v in range(5)])
        assert m.face_count == 3 and euler(m) == -2
        assert not validate(m).planar

    def test_bridge_detected_with_parallels(self):
        # two doubled-edge triangle lobes joined by a bridge
        m = parse_map("6\n1: 4 2 3\n2: 1 3 3\n3: 1 2 2\n"
                      "4: 1 5 6\n5: 4 6 6\n6: 4 5 5\n", allow_parallel=True)
        report = validate(m)
        assert report.cubic and not report.bridgeless and not report.simple


class TestDeleteEdgeSuppress:
    def test_k4_minus_edge_is_triple_edge(self, k4):
        child, _ = delete_edge_suppress(k4, k4.find_edge(0, 1))
        assert (child.vertex_count, child.edge_count) == (2, 3)
        assert sorted(len(f) for f in child.faces) == [2, 2, 2]
        assert euler(child) == 2

    def test_dodecahedron_counts(self, dodecahedron):
        child, _ = delete_edge_suppress(dodecahedron, dodecahedron.edges()[0])
        assert (child.vertex_count, child.edge_count) == (18, 27)
        assert validate(child).cubic and euler(child) == 2

    def test_bridge_refused(self):
        with pytest.raises(BridgeDeletion):
            delete_edge_suppress(parse_map("2\n1: 2\n2: 1\n"), 0)

    def test_edge_map_covers_survivors(self, prism):
        e = prism.find_edge(0, 1)
        child, edge_map = delete_edge_suppress(prism, e)
        assert e not in edge_map
        assert set(edge_map.values()) == set(child.edges())

    def test_edge_parallel_to_the_deleted_one_is_carried(self):
        # deleting one edge of a digon suppresses both of its ends, so its
        # partner joins the two edges spliced into one child edge
        texts = [text for n in (4, 6) for _, text in _exhaustive_level(n)]
        # an order-4 map numbered so that the partner is the later of the
        # two remaining darts at both ends of the deleted edge
        texts.append("4\n1: 3 2 2\n2: 4 1 1\n3: 1 4 4\n4: 3 3 2\n")
        carried = 0
        for text in texts:
            m = parse_map(text, allow_parallel=True)
            assert validate(m).planar
            for deleted in m.edges():
                ends = set(m.edge_endpoints(deleted))
                partners = [e for e in m.edges() if e != deleted
                            and set(m.edge_endpoints(e)) == ends]
                if len(partners) != 1:
                    continue   # a triple edge leaves a free loop
                child, edge_map = delete_edge_suppress(m, deleted)
                assert set(edge_map) == set(m.edges()) - {deleted}
                assert set(edge_map.values()) == set(child.edges())
                shared = [e for e in edge_map
                          if edge_map[e] == edge_map[partners[0]]]
                assert len(shared) == 3
                carried += 1
        assert carried >= 10


class TestContractFace:
    def test_k4_triangle_to_triple_edge(self, k4):
        child, record = contract_face(k4, 0)
        assert (child.vertex_count, child.edge_count) == (2, 3)
        assert child.degree(record.hub) == 3 and euler(child) == 2

    def test_dodecahedron_pentagon(self, dodecahedron):
        child, record = contract_face(dodecahedron, 0)
        assert (child.vertex_count, child.edge_count, child.face_count) == (16, 25, 11)
        assert child.degree(record.hub) == 5 and euler(child) == 2
        assert record.parent is dodecahedron

    def test_unknown_face(self, k4):
        with pytest.raises(UnknownFace):
            contract_face(k4, 99)

    def test_non_simple_boundary_rejected(self):
        # both faces of the triple edge map repeat no vertex, but the
        # single-edge map's one face walks the edge twice
        m = parse_map("2\n1: 2\n2: 1\n")
        with pytest.raises(NonSimpleBoundary):
            contract_face(m, 0)

    def test_journal_edge_map_is_injective(self, dodecahedron):
        child, record = contract_face(dodecahedron, 0)
        assert len(set(record.edge_map.values())) == len(record.edge_map)
        assert set(record.edge_map) == set(child.edges())


class TestSurgeryInvariants:
    def test_euler_preserved_by_both_surgeries(self):
        for m in generate(GenConfig(10, mode="random", count=25, seed=9)):
            child, _ = delete_edge_suppress(m, m.edges()[2])
            assert euler(child) == 2
            face = max(m.faces, key=len).id
            if len(set(m.origin(d) for d in m.faces[face].darts)) == len(m.faces[face]):
                contracted, _ = contract_face(m, face)
                assert euler(contracted) == 2


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.sampled_from([8, 10, 12, 14]))
def test_structure_invariants_on_random_maps(seed, n):
    (m,) = generate(GenConfig(n, mode="random", count=1, seed=seed))
    for d in range(m.dart_count):
        assert m.twin(m.twin(d)) == d and m.twin(d) != d
    assert sum(len(f) for f in m.faces) == 2 * m.edge_count
    assert sum(m.degree(v) for v in range(m.vertex_count)) == m.dart_count
    assert validate(m).all_ok


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_serialize_parse_preserves_canonical_form(seed):
    (m,) = generate(GenConfig(10, mode="random", count=1, seed=seed))
    again = parse_map(serialize_map(m))
    assert canonical_form(again) == canonical_form(m)
