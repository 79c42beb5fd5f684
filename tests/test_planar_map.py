import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetracolor.harness import (GenConfig, _exhaustive_level, _levels,
                                canonical_form, corpus, generate)
from tetracolor.planar_map import (BridgeDeletion, DuplicateNeighbor,
                                   MalformedInput, NonReciprocal,
                                   NonSimpleBoundary, RotationMap, UnknownFace,
                                   ValidationReport, _renumbered_as_parsed,
                                   contract_face, delete_edge_suppress,
                                   find_bridges, from_neighbor_lists,
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


    def test_empty_map_has_no_flag(self):
        report = validate(RotationMap([], [], [], 0))
        assert report == ValidationReport(connected=False, simple=False,
                                          planar=False, cubic=False,
                                          bridgeless=False, min_degree=0)

    def test_equals_the_method_call_reference(self):
        k4_rows = [[1, 3, 2], [2, 3, 0], [0, 3, 1], [0, 1, 2]]
        two_k4 = k4_rows + [[w + 4 for w in row] for row in k4_rows]
        bridged = [list(row) for row in two_k4]
        bridged[0].append(4)
        bridged[4].append(0)
        maps = [m2 for m in corpus(12) for m2 in (m, m.mirrored())]
        maps += [parse_map(text, allow_parallel=True)
                 for _, level in _levels(10) for _, text in level]
        maps += [m for n in (8, 20, 60) for s in range(3)
                 for m in generate(GenConfig(n, mode="random", count=2, seed=s))]
        non_planar = parse_map("4\n1: 2 3 4\n2: 3 4 1\n3: 1 4 2\n4: 1 2 3\n")
        maps += [from_neighbor_lists(bridged), from_neighbor_lists(two_k4),
                 parse_map("3\n1: 2\n2: 1\n3:\n"),
                 parse_map("1\n1: 1 1\n", allow_parallel=True), non_planar]
        assert not validate(non_planar).planar
        assert find_bridges(maps[-5]) and not validate(maps[-4]).connected
        for m in maps:
            assert validate(m) == reference_validate(m)
            assert find_bridges(m) == reference_find_bridges(m)


def reference_validate(m):
    """validate through the map's accessor methods, as first written."""
    n = m.vertex_count
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        v = stack.pop()
        for d in m.vertex_darts(v):
            w = m.head(d)
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    connected = count == n

    simple = True
    for v in range(n):
        heads = [m.head(d) for d in m.vertex_darts(v)]
        if v in heads or len(set(heads)) != len(heads):
            simple = False
            break

    planar = connected and (n - m.edge_count + m.face_count == 2)
    degrees = [m.degree(v) for v in range(n)]
    cubic = bool(degrees) and all(dg == 3 for dg in degrees)
    min_degree = min(degrees) if degrees else 0
    bridgeless = connected and not reference_find_bridges(m)
    return ValidationReport(connected=connected, simple=simple, planar=planar,
                            cubic=cubic, bridgeless=bridgeless,
                            min_degree=min_degree)


def reference_find_bridges(m):
    """find_bridges through the map's accessor methods, as first written."""
    n = m.vertex_count
    disc = [-1] * n
    low = [0] * n
    bridges = []
    timer = 0
    for root in range(n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack = [(root, -1, iter(m.vertex_darts(root)))]
        while stack:
            v, in_dart, it = stack[-1]
            advanced = False
            for d in it:
                if in_dart >= 0 and d == m.twin(in_dart):
                    continue
                w = m.head(d)
                if disc[w] < 0:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, d, iter(m.vertex_darts(w))))
                    advanced = True
                    break
                low[v] = min(low[v], disc[w])
            if not advanced:
                stack.pop()
                if stack:
                    pv = stack[-1][0]
                    low[pv] = min(low[pv], low[v])
                    if low[v] > disc[pv]:
                        bridges.append(m.edge_id(in_dart))
    return bridges


def reference_from_neighbor_lists(lists, allow_parallel=False):
    """The two-pass pairing from_neighbor_lists replaced: every dart of a
    vertex pair collected first, then the k-th occurrence of v in u's
    rotation paired with the (count-1-k)-th of u in v's."""
    n = len(lists)
    origin = []
    dart_ids = []
    k = 0
    for u, row in enumerate(lists):
        for v in row:
            if not 0 <= v < n:
                raise MalformedInput(
                    f"neighbor {v + 1} out of range at vertex {u + 1}")
            origin.append(u)
        dart_ids.append(list(range(k, k + len(row))))
        k += len(row)
    if not allow_parallel:
        for u, row in enumerate(lists):
            if len(set(row)) != len(row):
                raise DuplicateNeighbor(f"vertex {u + 1} repeats a neighbor")
            if u in row:
                raise DuplicateNeighbor(f"vertex {u + 1} lists itself")
    slots = {}
    for u, row in enumerate(lists):
        for i, v in enumerate(row):
            slots.setdefault((min(u, v), max(u, v)), []).append(dart_ids[u][i])
    twin = [-1] * len(origin)
    for (u, v), ds in slots.items():
        if u == v:
            if len(ds) % 2:
                raise NonReciprocal(f"loop at {u + 1} listed an odd number of times")
            m = len(ds)
            for i in range(m // 2):
                a, b = ds[i], ds[m - 1 - i]
                twin[a], twin[b] = b, a
        else:
            at_u = [d for d in ds if origin[d] == u]
            at_v = [d for d in ds if origin[d] == v]
            if len(at_u) != len(at_v):
                raise NonReciprocal(
                    f"vertices {u + 1} and {v + 1} disagree about their shared edges")
            m = len(at_u)
            for i in range(m):
                a, b = at_u[i], at_v[m - 1 - i]
                twin[a], twin[b] = b, a
    nxt = [-1] * len(origin)
    for u in range(n):
        ds = dart_ids[u]
        for i, d in enumerate(ds):
            nxt[d] = ds[(i + 1) % len(ds)]
    return RotationMap(twin, origin, nxt, n)


def outcome(build, lists, allow_parallel):
    """The dart arrays a build gives, or the class and message it raises."""
    try:
        m = build(lists, allow_parallel=allow_parallel)
    except Exception as exc:
        return type(exc), str(exc)
    return m._twin, m._origin, m._next


class TestNeighborListPairing:
    def test_pairs_as_the_reference_on_the_levels_and_their_mirrors(self):
        texts = 0
        for _, level in _levels(12):
            for _, text in level:
                m = parse_map(text, allow_parallel=True)
                for m2 in (m, m.mirrored()):
                    lists = [[m2.head(d) for d in m2.vertex_darts(v)]
                             for v in range(m2.vertex_count)]
                    assert (outcome(from_neighbor_lists, lists, True)
                            == outcome(reference_from_neighbor_lists, lists, True))
                texts += 1
        assert texts == 366

    def test_same_outcome_as_the_reference_on_random_rotation_systems(self):
        # loops and parallel edges, whole, with one entry dropped or with
        # one out of range: a single fault keeps its class and message
        rng = random.Random(5)
        faults = Counter()
        for _ in range(3000):
            n = rng.randint(1, 6)
            rows = [[] for _ in range(n)]
            for _ in range(rng.randint(1, 9)):
                u = rng.randrange(n)
                v = u if rng.random() < 0.2 else rng.randrange(n)
                rows[u].append(v)
                rows[v].append(u)
            for row in rows:
                rng.shuffle(row)
            fault = rng.random()
            row = rng.choice([row for row in rows if row])
            if fault < 0.3:
                row.pop(rng.randrange(len(row)))
            elif fault < 0.4:
                row[rng.randrange(len(row))] = rng.choice((-1, n))
            for allow in (True, False):
                got = outcome(from_neighbor_lists, rows, allow)
                assert got == outcome(reference_from_neighbor_lists, rows, allow), rows
                faults[got[0] if isinstance(got[0], type) else "built"] += 1
        assert set(faults) == {"built", NonReciprocal, DuplicateNeighbor,
                               MalformedInput}, faults


class TestRenumberedAsParsed:
    @staticmethod
    def renumbered(m):
        return _renumbered_as_parsed(m._twin, m._origin, m._next, m.vertex_count)

    @staticmethod
    def arrays(m):
        return m._twin, m._origin, m._next

    def test_equals_the_parse_of_the_text_on_simple_maps(self):
        for m in corpus(12):
            for m2 in (m, m.mirrored()):
                assert self.arrays(self.renumbered(m2)) == self.arrays(
                    parse_map(serialize_map(m2)))

    def test_differs_from_the_parse_on_some_multigraph(self):
        # the parse pairs parallel darts by their place in the text
        level = dict(_levels(6))[6]
        differ = 0
        for _, text in level:
            m = parse_map(text, allow_parallel=True).mirrored()
            parsed = parse_map(serialize_map(m), allow_parallel=True)
            differ += self.arrays(self.renumbered(m)) != self.arrays(parsed)
        assert differ

    @pytest.mark.parametrize("rotation", [(0, 2, 1), (1, 1, 0)])
    def test_refuses_a_rotation_that_is_no_single_cycle(self, k4, rotation):
        assert k4.vertex_darts(0) == (0, 1, 2)
        nxt = list(rotation) + list(k4._next[3:])
        with pytest.raises(MalformedInput):
            _renumbered_as_parsed(k4._twin, k4._origin, nxt, 4)


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
