import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetracolor.coloring import (BIT, EDGE_ORDER, KLEIN_ORDER, LETTER,
                                 ColoringError, DomainMismatch, EdgeColor,
                                 EdgeColoring, FaceColoring, ImproperColoring,
                                 ImproperEdgeColoring, KleinColor,
                                 edge3_to_face4, face4_to_edge3,
                                 find_face_4coloring, find_tait_coloring,
                                 from_bits, parse_coloring, serialize_coloring,
                                 to_bits, verify_coloring)
from tetracolor.harness import GenConfig, generate
from tetracolor.planar_map import (NotCubic, RotationMap, find_bridges,
                                   from_neighbor_lists, parse_map)


# the difference rule: the Klein value of each edge color
KLEIN_OF = {EdgeColor.BLUE: KleinColor.C10, EdgeColor.YELLOW: KleinColor.C01,
            EdgeColor.GREEN: KleinColor.C11}


def xor(a, b):
    """The Klein group law on face colors."""
    return KLEIN_ORDER[a.value ^ b.value]


class TestKleinColor:
    def test_xor_group(self):
        zero = KleinColor.C00
        for a in KLEIN_ORDER:
            assert xor(a, a) is zero and xor(a, zero) is a
            for b in KLEIN_ORDER:
                assert xor(a, b) is xor(b, a)

    def test_bits_and_text(self):
        c = KleinColor.C10
        assert (bool(c.value & 0b10), bool(c.value & 0b01)) == (True, False)
        assert str(KleinColor.C01) == "01"
        assert KleinColor.parse("11") is KleinColor.C11

    def test_edge_color_mapping(self, four_cycle):
        # an edge between faces 00 and k takes the color whose Klein value is k
        for color, k in KLEIN_OF.items():
            ec = face4_to_edge3(four_cycle, FaceColoring({0: KleinColor.C00, 1: k}))
            assert set(ec.assignment.values()) == {color}


def least_face(m):
    """Reference: chronological backtracking with face 0 pinned to 00, the
    other faces in id order and colors 00 < 01 < 10 < 11, and no
    propagation, so the first proper colouring it reaches is the
    lexicographically least one by construction."""
    nf = m.face_count
    nbrs = [[] for _ in range(nf)]
    for e in m.edges():
        f1, f2 = m.face_of(e), m.face_of(m.twin(e))
        nbrs[f1].append(f2)
        nbrs[f2].append(f1)
    if any(f in nbrs[f] for f in range(nf)):
        return None  # face adjacent to itself; no proper coloring
    colors = [-1] * nf  # index into KLEIN_ORDER, -1 while unset
    f, c = 0, 0
    while f < nf:
        used = [colors[g] for g in nbrs[f]]
        last = 0 if f == 0 else 3
        while c <= last and c in used:
            c += 1
        if c <= last:
            colors[f] = c
            f, c = f + 1, 0
        elif f == 0:
            return None
        else:
            f -= 1
            c = colors[f] + 1
            colors[f] = -1
    return FaceColoring({f: KLEIN_ORDER[c] for f, c in enumerate(colors)})


def brute_force_face_coloring(m):
    """Oracle: least proper assignment with face 0 pinned to 00, trying
    colors in display order by face id."""
    adj = [set() for _ in range(m.face_count)]
    for e in m.edges():
        f1, f2 = m.face_of(e), m.face_of(m.twin(e))
        adj[f1].add(f2)
        adj[f2].add(f1)
    for combo in itertools.product(KLEIN_ORDER, repeat=m.face_count - 1):
        colors = (KleinColor.C00,) + combo
        if all(colors[f] != colors[g] for f in range(m.face_count) for g in adj[f]):
            return FaceColoring(dict(enumerate(colors)))
    return None


class TestFaceColoring:
    def test_k4_all_four_colors(self, k4):
        fc = find_face_4coloring(k4)
        assert sorted(c.value for c in fc.assignment.values()) == [0, 1, 2, 3]
        assert verify_coloring(k4, fc) == []

    def test_k4_matches_brute_force(self, k4):
        assert find_face_4coloring(k4) == brute_force_face_coloring(k4)

    def test_four_cycle_normalized(self, four_cycle):
        fc = find_face_4coloring(four_cycle)
        assert fc.assignment == {0: KleinColor.C00, 1: KleinColor.C01}

    def test_dodecahedron(self, dodecahedron):
        fc = find_face_4coloring(dodecahedron)
        assert fc is not None and verify_coloring(dodecahedron, fc) == []

    def test_matches_brute_force_on_small_corpus(self):
        for m in generate(GenConfig(8)):
            assert find_face_4coloring(m) == brute_force_face_coloring(m)

    def test_least_on_corpus12_both_orientations(self, corpus12):
        for m in corpus12:
            for v in (m, m.mirrored()):
                assert find_face_4coloring(v) == least_face(v)

    @pytest.mark.parametrize("n", range(24, 65, 2))
    def test_least_on_random_maps(self, n):
        for m in generate(GenConfig(n, mode="random", count=10, seed=n)):
            assert find_face_4coloring(m) == least_face(m)

    def test_order_200_random_maps(self):
        # chronological backtracking takes over 10 s on five of these six
        for m in generate(GenConfig(200, mode="random", count=6, seed=200)):
            fc = find_face_4coloring(m)
            assert verify_coloring(m, fc) == []
            assert edge3_to_face4(m, face4_to_edge3(m, fc)) == fc

    def test_bridge_face_self_adjacency_gives_none(self):
        m = parse_map("2\n1: 2\n2: 1\n")
        assert find_face_4coloring(m) is None

    def test_deterministic(self, prism):
        assert find_face_4coloring(prism) == find_face_4coloring(prism)


def brute_force_tait(m):
    edges = m.edges()
    for combo in itertools.product(EDGE_ORDER, repeat=len(edges)):
        c = dict(zip(edges, combo))
        if all(len({c[m.edge_id(d)] for d in m.vertex_darts(v)}) == 3
               for v in range(m.vertex_count)):
            return EdgeColoring(c)
    return None


def least_tait(m):
    """Reference: plain backtracking in edge order with Blue < Yellow < Green
    and no propagation, so the first proper colouring it reaches is the
    lexicographically least one by construction."""
    edges = m.edges()
    at = [[m.edge_id(d) for d in m.vertex_darts(v)] for v in range(m.vertex_count)]
    color = {}

    def extend(i):
        if i == len(edges):
            return True
        e = edges[i]
        for c in EDGE_ORDER:
            if all(color.get(x) != c for w in m.edge_endpoints(e) for x in at[w]):
                color[e] = c
                if extend(i + 1):
                    return True
                del color[e]
        return False

    return EdgeColoring(dict(color)) if extend(0) else None


def joined_by_bridge(a, b):
    """The cubic map made of a and b, each with the first edge of its first
    vertex subdivided, and the two new vertices joined by a bridge."""
    na = a.vertex_count
    lists = [[a.head(d) for d in a.vertex_darts(v)] for v in range(na)]
    lists += [[b.head(d) + na for d in b.vertex_darts(v)]
              for v in range(b.vertex_count)]
    x, y = len(lists), len(lists) + 1
    for u, new, far in ((0, x, y), (na, y, x)):
        v = lists[u][0]
        lists[u][0] = new
        lists[v][lists[v].index(u)] = new
        lists.append([u, v, far])
    return from_neighbor_lists(lists)


class OutOfWork(Exception):
    pass


class Metered(RotationMap):
    """A map whose edge_endpoints raises OutOfWork after `left` calls."""

    __slots__ = ("left",)

    def edge_endpoints(self, e):
        self.left -= 1
        if self.left < 0:
            raise OutOfWork
        return RotationMap.edge_endpoints(self, e)


def metered(m, budget):
    darts = range(m.dart_count)
    copy = Metered([m.twin(d) for d in darts], [m.origin(d) for d in darts],
                   [m.next(d) for d in darts], m.vertex_count)
    copy.left = budget
    return copy


class TestTaitColoring:
    def test_k4_is_three_matchings(self, k4):
        ec = find_tait_coloring(k4)
        classes = {}
        for e in k4.edges():
            classes.setdefault(ec[e], []).append(tuple(sorted(k4.edge_endpoints(e))))
        assert {c.value: sorted(v) for c, v in classes.items()} == {
            "B": [(0, 1), (2, 3)], "Y": [(0, 3), (1, 2)], "G": [(0, 2), (1, 3)]}

    def test_k4_matches_brute_force(self, k4):
        assert find_tait_coloring(k4) == brute_force_tait(k4)

    def test_least_on_corpus12_both_orientations(self, corpus12):
        for m in corpus12:
            for v in (m, m.mirrored()):
                assert find_tait_coloring(v) == least_tait(v)

    @pytest.mark.parametrize("n", [14, 16, 18, 20])
    def test_least_on_random_maps(self, n):
        for m in generate(GenConfig(n, mode="random", count=5, seed=n)):
            assert find_tait_coloring(m) == least_tait(m)

    @pytest.mark.parametrize("n", [22, 24, 26, 28, 30, 32])
    def test_least_on_larger_random_maps(self, n):
        # orders where the search prunes and jumps back many levels
        for m in generate(GenConfig(n, mode="random", count=10, seed=n)):
            assert find_tait_coloring(m) == least_tait(m)

    def test_least_where_a_clash_blames_a_forced_edge(self):
        # blaming only the lowest level of a forced edge that a decision
        # clashes with jumps past the least colouring of this map
        m = list(generate(GenConfig(36, mode="random", count=24, seed=43)))[23]
        assert find_tait_coloring(m) == least_tait(m)

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_maps_joined_by_a_bridge_have_none(self, n):
        a, b = generate(GenConfig(n, mode="random", count=2, seed=n))
        m = joined_by_bridge(a, b)
        assert m.vertex_count == 2 * n + 2 and len(find_bridges(m)) == 1
        assert find_tait_coloring(m) is None

    def test_search_reads_endpoints_through_the_map(self, dodecahedron):
        m = metered(dodecahedron, 10**6)
        expect = find_tait_coloring(m)
        used = 10**6 - m.left
        assert expect == find_tait_coloring(dodecahedron)
        assert find_tait_coloring(metered(dodecahedron, used)) == expect
        for budget in (0, 1, used // 2, used - 1):
            with pytest.raises(OutOfWork):
                find_tait_coloring(metered(dodecahedron, budget))

    def test_search_work_is_pinned(self, dodecahedron):
        # metered calls per map: the tait bench's work budget and its
        # colorings digest rest on these counts
        used = []
        for m in (dodecahedron, *generate(GenConfig(48, mode="random", count=5, seed=48))):
            copy = metered(m, 10**9)
            find_tait_coloring(copy)
            used.append(10**9 - copy.left)
        assert used == [92, 2695, 303, 462, 2661, 307]

    def test_order_60_random_maps_colour_within_budget(self):
        # at most 135,423 metered calls each; the search without backjumping
        # needs over 400,000 on four of these six
        for m in generate(GenConfig(60, mode="random", count=6, seed=60)):
            ec = find_tait_coloring(metered(m, 250_000))
            assert ec is not None and verify_coloring(m, ec) == []

    def test_bridged_cubic_map_has_none(self):
        # two doubled-edge triangle lobes with a connecting bridge
        m = parse_map("6\n1: 4 2 3\n2: 1 3 3\n3: 1 2 2\n"
                      "4: 1 5 6\n5: 4 6 6\n6: 4 5 5\n", allow_parallel=True)
        assert find_tait_coloring(m) is None

    def test_map_with_loops_has_none(self):
        m = parse_map("2\n1: 1 1 2\n2: 2 2 1\n", allow_parallel=True)
        assert find_tait_coloring(m) is None

    def test_triple_edge_forced(self):
        m = parse_map("2\n1: 2 2 2\n2: 1 1 1\n", allow_parallel=True)
        ec = find_tait_coloring(m)
        assert sorted(c.value for c in ec.assignment.values()) == ["B", "G", "Y"]

    def test_not_cubic(self, four_cycle):
        with pytest.raises(NotCubic):
            find_tait_coloring(four_cycle)

    def test_deterministic(self, prism):
        assert find_tait_coloring(prism) == find_tait_coloring(prism)


class TestColorBits:
    def test_every_ordered_pair_agrees_with_the_members(self):
        # membership, the swap of an inversion and the third color at a
        # vertex, each against the same rule on EdgeColor members
        for a, b in itertools.product(EDGE_ORDER, repeat=2):
            pair = BIT[a] | BIT[b]
            for c in EDGE_ORDER:
                assert bool(BIT[c] & pair) == (c in (a, b))
                if a is not b:
                    swapped = b if c is a else a if c is b else c
                    assert (BIT[c] ^ pair if BIT[c] & pair else BIT[c]) == BIT[swapped]
            third = [c for c in EDGE_ORDER if c not in (a, b)]
            if a is b:
                # 7 ^ a ^ a is no color: a clash must be guarded, not xored
                assert 7 ^ BIT[a] ^ BIT[b] not in LETTER
            else:
                assert 7 ^ BIT[a] ^ BIT[b] == BIT[third[0]]

    def test_bits_letters_and_order(self):
        assert [BIT[c] for c in EDGE_ORDER] == [1, 2, 4]
        assert all(LETTER[BIT[c]] == c.value for c in EDGE_ORDER)

    def test_round_trip_on_corpus12_both_orientations(self, corpus12):
        for m in corpus12:
            for v in (m, m.mirrored()):
                ec = find_tait_coloring(v)
                bits = to_bits(v, ec)
                assert len(bits) == v.dart_count
                assert all(bits[d] == 0 for d in range(v.dart_count) if d > v.twin(d))
                back = from_bits(v, bits)
                assert back == ec
                assert list(back.assignment) == list(ec.assignment)


class TestConversions:
    @pytest.mark.parametrize("a,b,expect", [
        ("00", "01", "Y"), ("00", "10", "B"), ("00", "11", "G"),
        ("01", "10", "G"), ("01", "11", "B"), ("10", "11", "Y"),
    ])
    def test_side_color_table(self, four_cycle, a, b, expect):
        fc = FaceColoring({0: KleinColor.parse(a), 1: KleinColor.parse(b)})
        ec = face4_to_edge3(four_cycle, fc)
        assert all(c.value == expect for c in ec.assignment.values())

    def test_improper_pair_rejected(self, four_cycle):
        fc = FaceColoring({0: KleinColor.C01, 1: KleinColor.C01})
        with pytest.raises(ImproperColoring):
            face4_to_edge3(four_cycle, fc)

    def test_round_trip_face_to_edge_to_face(self, k4, prism, dodecahedron):
        for m in (k4, prism, dodecahedron):
            fc = find_face_4coloring(m)
            assert edge3_to_face4(m, face4_to_edge3(m, fc)) == fc

    def test_round_trip_edge_to_face_to_edge(self, k4, prism, dodecahedron):
        for m in (k4, prism, dodecahedron):
            ec = find_tait_coloring(m)
            assert face4_to_edge3(m, edge3_to_face4(m, ec)) == ec

    def test_green_edge_flips_both_bits(self, prism):
        ec = find_tait_coloring(prism)
        fc = edge3_to_face4(prism, ec)
        for e in prism.edges():
            if ec[e] is EdgeColor.GREEN:
                c1 = fc[prism.face_of(e)]
                c2 = fc[prism.face_of(prism.twin(e))]
                assert xor(c1, c2) is KleinColor.C11

    def test_improper_edge_coloring_rejected(self, k4):
        ec = EdgeColoring({e: EdgeColor.BLUE for e in k4.edges()})
        with pytest.raises(ImproperEdgeColoring):
            edge3_to_face4(k4, ec)

    def test_vertex_xor_is_identity(self, dodecahedron):
        # path independence around any closed dual loop reduces to the
        # vertex statement: the three colors at a vertex xor to 00
        ec = find_tait_coloring(dodecahedron)
        for v in range(dodecahedron.vertex_count):
            acc = KleinColor.C00
            for d in dodecahedron.vertex_darts(v):
                acc = xor(acc, KLEIN_OF[ec[dodecahedron.edge_id(d)]])
            assert acc is KleinColor.C00

    def test_face_boundary_xor_can_be_nonzero(self, dodecahedron):
        # a pentagon may legally read B,Y,B,Y,G around its boundary (no two
        # adjacent edges equal), whose xor is 11, so no face-xor law holds;
        # the dodecahedron realizes such a face
        ec = find_tait_coloring(dodecahedron)
        xors = set()
        for f in dodecahedron.faces:
            acc = KleinColor.C00
            for d in f.darts:
                acc = xor(acc, KLEIN_OF[ec[dodecahedron.edge_id(d)]])
            xors.add(acc)
        assert xors != {KleinColor.C00}


class TestVerify:
    def test_proper_is_empty(self, k4):
        assert verify_coloring(k4, find_face_4coloring(k4)) == []

    def test_adjacent_equal_names_edge(self, four_cycle):
        fc = FaceColoring({0: KleinColor.C11, 1: KleinColor.C11})
        violations = verify_coloring(four_cycle, fc)
        assert len(violations) == 4  # every edge of the cycle separates them
        assert all(v.edge is not None for v in violations)

    def test_vertex_clash_names_vertex(self, k4):
        ec = find_tait_coloring(k4)
        broken = dict(ec.assignment)
        e_ab = k4.find_edge(0, 1)
        e_cd = k4.find_edge(2, 3)
        broken[e_cd] = broken[e_ab]  # both blue already; force clash elsewhere
        broken[k4.find_edge(0, 2)] = broken[e_ab]
        violations = verify_coloring(k4, EdgeColoring(broken))
        assert violations and all(v.vertex is not None for v in violations)

    def test_domain_mismatch(self, k4, four_cycle):
        fc = find_face_4coloring(four_cycle)
        with pytest.raises(DomainMismatch):
            verify_coloring(k4, fc)


class TestColoringFiles:
    def test_face_file_round_trip(self, k4):
        fc = find_face_4coloring(k4)
        text = serialize_coloring(k4, fc)
        assert parse_coloring(k4, text) == fc

    def test_edge_file_round_trip(self, k4):
        ec = find_tait_coloring(k4)
        text = serialize_coloring(k4, ec)
        assert parse_coloring(k4, text) == ec

    def test_parallel_edges_read_in_order(self):
        m = parse_map("2\n1: 2 2 2\n2: 1 1 1\n", allow_parallel=True)
        ec = find_tait_coloring(m)
        assert parse_coloring(m, serialize_coloring(m, ec)) == ec

    def test_repeated_face_line_rejected(self, k4):
        with pytest.raises(ColoringError, match="face 1 listed twice"):
            parse_coloring(k4, "face 0: 00\nface 1: 01\nface 1: 10\n")

    def test_mixed_file_rejected(self, k4):
        with pytest.raises(ColoringError):
            parse_coloring(k4, "face 0: 00\nedge 1-2: B\n")


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.sampled_from([8, 10, 12]))
def test_tait_exists_and_converts_on_random_maps(seed, n):
    (m,) = generate(GenConfig(n, mode="random", count=1, seed=seed))
    ec = find_tait_coloring(m)
    assert ec is not None and verify_coloring(m, ec) == []
    fc = edge3_to_face4(m, ec)
    assert verify_coloring(m, fc) == []
    assert face4_to_edge3(m, fc) == ec
