import csv
import gc
import hashlib
import io
import itertools
import json
import random
import re
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from tetracolor import harness
from tetracolor.coloring import find_tait_coloring, verify_coloring
from tetracolor.harness import (_DIPOLE, CLAIM_IDS, K4_TEXT, GenConfig,
                                HarnessError, InstanceRecord, OddOrder,
                                UnknownClaim, UnsupportedFormat,
                                _add_chord, _automorphisms, _child_excess,
                                _exhaustive_level, _least_roots,
                                _levels, canonical_form,
                                check_claim, corpus, emit_report, generate,
                                insert_edge_across_face, is_three_connected)
from tetracolor.kempe import PreparedMap
from tetracolor.planar_map import (MapError, RotationMap, _face_walk,
                                   from_neighbor_lists, parse_map, serialize_map,
                                   validate)


def neighbor_lists(m):
    """Each vertex's clockwise neighbours, as from_neighbor_lists takes them."""
    return [[m.head(d) for d in m.vertex_darts(v)] for v in range(m.vertex_count)]


class TestGenConfig:
    def test_odd_order(self):
        with pytest.raises(OddOrder):
            GenConfig(7)

    def test_too_small(self):
        with pytest.raises(OddOrder):
            GenConfig(2)

    def test_random_needs_count(self):
        with pytest.raises(HarnessError):
            GenConfig(8, mode="random")


class TestCanonicalForm:
    def test_stable_under_relabeling(self, k4):
        lists = neighbor_lists(k4)
        keys = set()
        for perm in itertools.permutations(range(4)):
            new = [None] * 4
            for v in range(4):
                new[perm[v]] = [perm[w] for w in lists[v]]
            keys.add(canonical_form(from_neighbor_lists(new)))
        assert keys == {canonical_form(k4)}

    def test_reflection_quotiented(self, dodecahedron, k4, prism):
        for m in (dodecahedron, k4, prism):
            assert canonical_form(m.mirrored()) == canonical_form(m)

    def test_different_maps_differ(self, k4, prism, cube):
        keys = {canonical_form(m) for m in (k4, prism, cube)}
        assert len(keys) == 3

    def test_chiral_embedding_pair_identified(self):
        # find a corpus map whose mirror is a different rotation system yet
        # the same canonical key (a chirally drawn map)
        for m in corpus(10):
            mirrored = m.mirrored()
            if serialize_map(mirrored) != serialize_map(m):
                assert canonical_form(mirrored) == canonical_form(m)
                return
        pytest.fail("no chiral instance found")

    def test_key_ignores_numbering_and_reflection(self):
        # the walks stop at the first losing block, so a key that depended
        # on which root is tried first would show up under renumbering
        rng = random.Random(11)
        for n in range(12, 41, 2):
            (m,) = generate(GenConfig(n, mode="random", count=1, seed=n))
            key = canonical_form(m)
            for base in (m, m.mirrored()):
                lists = neighbor_lists(base)
                for _ in range(2):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    new = [None] * n
                    for v, row in enumerate(lists):
                        k = rng.randrange(len(row))
                        new[perm[v]] = [perm[w] for w in row[k:] + row[:k]]
                    assert canonical_form(from_neighbor_lists(new)) == key

    def test_automorphism_groups(self, k4, prism, cube, dodecahedron):
        for m, size in ((k4, 24), (prism, 12), (cube, 48),
                        (dodecahedron, 120), (_DIPOLE, 12)):
            autos = _automorphisms(m)
            assert len({tuple(phi) for phi, _ in autos}) == len(autos) == size
            assert sum(reverses for _, reverses in autos) == size // 2
            faces = {frozenset(f.darts) for f in m.faces}
            for phi, reverses in autos:
                assert sorted(phi) == list(range(m.dart_count))
                assert all(phi[m.twin(d)] == m.twin(phi[d])
                           for d in range(m.dart_count))
                for f in m.faces:
                    image = {phi[d] for d in f.darts}
                    if reverses:
                        image = {m.twin(d) for d in image}
                    assert frozenset(image) in faces


class TestInsertion:
    def test_insertion_grows_by_two_vertices(self, k4):
        child = insert_edge_across_face(k4, 0, 0, 1)
        assert child.vertex_count == 6
        assert child.edge_count == 9
        assert validate(child).all_ok

    def test_prism_reachable_from_k4(self, k4, prism):
        keys = set()
        for f in k4.faces:
            for i in range(len(f)):
                for j in range(i, len(f)):
                    keys.add(canonical_form(insert_edge_across_face(k4, f.id, i, j)))
        assert canonical_form(prism) in keys

    def test_same_edge_insertion_creates_digon(self, k4):
        child = insert_edge_across_face(k4, 0, 0, 0)
        assert not validate(child).simple
        assert any(len(f) == 2 for f in child.faces)


def brute_force_small_order_count(n):
    """Independent oracle: all simple cubic graphs on n labeled vertices by
    edge DFS, then every planar rotation system, deduplicated."""
    pairs = list(itertools.combinations(range(n), 2))
    keys = set()
    deg = [0] * n
    chosen = []

    def rotations(adjacency):
        base = [sorted(adjacency[v]) for v in range(n)]
        for flips in itertools.product((0, 1), repeat=n):
            lists = [row[::-1] if f else row for row, f in zip(base, flips)]
            m = from_neighbor_lists(lists)
            if m.vertex_count - m.edge_count + m.face_count == 2:
                report = validate(m)
                if report.all_ok:
                    keys.add(canonical_form(m))

    def dfs(i):
        if len(chosen) == 3 * n // 2:
            if all(d == 3 for d in deg):
                adjacency = {v: [] for v in range(n)}
                for u, v in chosen:
                    adjacency[u].append(v)
                    adjacency[v].append(u)
                rotations(adjacency)
            return
        if i == len(pairs):
            return
        need = 3 * n // 2 - len(chosen)
        if need > len(pairs) - i:
            return
        u, v = pairs[i]
        if deg[u] < 3 and deg[v] < 3:
            deg[u] += 1
            deg[v] += 1
            chosen.append((u, v))
            dfs(i + 1)
            chosen.pop()
            deg[u] -= 1
            deg[v] -= 1
        dfs(i + 1)

    dfs(0)
    return keys


class TestGenerate:
    def test_n4_is_exactly_k4(self, k4):
        maps = list(generate(GenConfig(4)))
        assert len(maps) == 1
        assert canonical_form(maps[0]) == canonical_form(k4)

    def test_n6_is_exactly_the_prism(self, prism):
        maps = list(generate(GenConfig(6)))
        assert len(maps) == 1
        assert canonical_form(maps[0]) == canonical_form(prism)

    @pytest.mark.parametrize("n", [4, 6])
    def test_matches_brute_force_oracle(self, n):
        oracle = brute_force_small_order_count(n)
        gen = {canonical_form(m) for m in generate(GenConfig(n))}
        assert gen == oracle

    def test_pruned_levels_equal_every_insertion(self, full_levels):
        # try every insertion of every parent and keep the first text seen
        # per key: the texts fix the corpus numbering, and so the C5 counts
        for n in range(4, 13, 2):
            found = {}
            for _, text in full_levels[n - 2]:
                parent = parse_map(text, allow_parallel=True)
                for f in parent.faces:
                    for i in range(len(f)):
                        for j in range(i, len(f)):
                            child = insert_edge_across_face(parent, f.id, i, j)
                            found.setdefault(canonical_form(child),
                                             serialize_map(child))
            assert full_levels[n] == tuple(sorted(found.items()))

    def test_level_does_not_depend_on_earlier_calls(self, full_levels):
        before = _exhaustive_level(12)
        corpus(14)
        assert before == _exhaustive_level(12) == full_levels[12]

    def test_every_emitted_map_validates(self):
        for n in (4, 6, 8, 10):
            for m in generate(GenConfig(n)):
                assert validate(m).all_ok
                assert m.vertex_count == n

    def test_random_streams_reproducible(self):
        a = [serialize_map(m) for m in generate(GenConfig(10, mode="random",
                                                          count=10, seed=7))]
        b = [serialize_map(m) for m in generate(GenConfig(10, mode="random",
                                                          count=10, seed=7))]
        assert a == b
        c = [serialize_map(m) for m in generate(GenConfig(10, mode="random",
                                                          count=10, seed=8))]
        assert a != c

    def test_random_maps_validate(self):
        for m in generate(GenConfig(18, mode="random", count=5, seed=3)):
            assert validate(m).all_ok and m.vertex_count == 18

    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_random_walk_equals_one_map_per_insertion(self, seed):
        for n in range(4, 61, 2):
            got = [serialize_map(m) for m in
                   generate(GenConfig(n, mode="random", count=2, seed=seed))]
            assert got == random_walk_reference(n, 2, seed)

    def test_random_maps_digest(self):
        for runs, count, maps, digest in (
                ([(n, s) for n in range(4, 41, 2) for s in (0, 1, n)], 3, 171,
                 "c299252d007003a041cac8dfee658fca65b329a170b296374ad393d2b0d9091a"),
                ([(n, s) for n in (60, 80, 100, 200) for s in range(3)], 2, 24,
                 "0c0f6ad4e88b224da619bb319485072894d503cc6d58e5538837a4fc2bf97f3b")):
            texts = [serialize_map(m) for n, s in runs
                     for m in generate(GenConfig(n, mode="random", count=count, seed=s))]
            assert len(texts) == maps
            assert hashlib.sha256("".join(texts).encode()).hexdigest() == digest

    def test_random_maps_are_numbered_as_their_parse(self):
        for n in (*range(4, 61, 2), 80, 100, 200):
            for s in range(5):
                for m in generate(GenConfig(n, mode="random", count=2, seed=s)):
                    parsed = parse_map(serialize_map(m))
                    assert ((m._twin, m._origin, m._next)
                            == (parsed._twin, parsed._origin, parsed._next))
                    assert PreparedMap(m).map is m

    def test_one_build_and_no_text_round_trip_per_random_map(self, monkeypatch):
        calls = Counter()

        def counted(name, f):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            return wrapper
        monkeypatch.setattr(harness, "parse_map", counted("parse", harness.parse_map))
        monkeypatch.setattr(harness, "serialize_map",
                            counted("serialize", harness.serialize_map))
        monkeypatch.setattr(RotationMap, "__init__",
                            counted("build", RotationMap.__init__))
        maps = list(generate(GenConfig(30, mode="random", count=4, seed=2)))
        assert len(maps) == 4
        assert calls == {"parse": 1, "build": 1 + 4}   # K4's parse, then one per map


def random_walk_reference(n, count, seed):
    """The random walk with one RotationMap per insertion, same rng draws."""
    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        m = parse_map(K4_TEXT)
        while m.vertex_count < n:
            f = rng.randrange(m.face_count)
            i, j = rng.randrange(len(m.faces[f])), rng.randrange(len(m.faces[f]))
            if i != j:
                m = insert_edge_across_face(m, f, min(i, j), max(i, j))
        texts.append(serialize_map(parse_map(serialize_map(m))))
    return texts


@pytest.fixture(scope="module")
def full_levels():
    """The full multigraph levels of orders 2..14, from one walk."""
    return dict(_levels(14))


def excess(m):
    """Σ (multiplicity − 1) over the vertex pairs of m, counted directly."""
    pairs = [frozenset((m.origin(d), m.head(d))) for d in range(m.dart_count)]
    return m.edge_count - len(set(pairs))


def simple_pairs(level):
    return [(key, text) for key, text in level
            if validate(parse_map(text, allow_parallel=True)).simple]


class TestLookAhead:
    def test_predicted_excess_matches_the_built_child(self, full_levels):
        # every insertion of every parent of the full levels up to order 12
        cases = {"digon": 0, "class of two": 0, "larger class": 0}
        for n in range(2, 11, 2):
            for _, text in full_levels[n]:
                parent = parse_map(text, allow_parallel=True)
                predict = _child_excess(parent)
                ends = [frozenset((parent.origin(d), parent.head(d)))
                        for d in range(parent.dart_count)]
                for f in parent.faces:
                    walk = f.darts
                    for i, a in enumerate(walk):
                        for j in range(i, len(walk)):
                            b = walk[j]
                            child = insert_edge_across_face(parent, f.id, i, j)
                            assert predict(a, b) == excess(child), (text, f.id, i, j)
                            if a == b:
                                cases["digon"] += 1
                            elif ends[a] == ends[b]:
                                k = ends.count(ends[a]) // 2
                                cases["class of two" if k == 2
                                      else "larger class"] += 1
        assert all(cases.values()), cases

    def test_corpus_equals_the_simple_maps_of_the_full_levels(self, full_levels):
        maps = corpus(14)
        got = {n: [] for n in range(4, 15, 2)}
        for m in maps:
            got[m.vertex_count].append((canonical_form(m), serialize_map(m)))
        for n in range(4, 15, 2):
            assert got[n] == simple_pairs(full_levels[n])

    def test_generate_looks_ahead_to_its_own_order(self, full_levels):
        texts = [serialize_map(m) for m in generate(GenConfig(12))]
        assert texts == [text for _, text in simple_pairs(full_levels[12])]
        assert all(excess(parse_map(text, allow_parallel=True)) <= 12 - n
                   for n, level in _levels(12, 12)
                   for _, text in level)


def child_arrays(parent, a, b):
    """The dart arrays of the child with a chord between the edges of
    darts a and b of one face, as generation walks them before building."""
    twin, origin, nxt = list(parent._twin), list(parent._origin), list(parent._next)
    _add_chord(twin, origin, nxt, parent.vertex_count, a, b)
    return twin, origin, nxt


def reversed_rotation(nxt):
    prev = [0] * len(nxt)
    for d, e in enumerate(nxt):
        prev[e] = d
    return prev


def array_walks(twin, origin, nxt, prev):
    """The least code and least walks of the map of these dart arrays."""
    return _least_roots(twin, origin, _face_walk(twin, nxt)[1], (nxt, prev))


def array_key(twin, origin, nxt, prev):
    """The key generation reads off a child's arrays."""
    code, _ = array_walks(twin, origin, nxt, prev)
    return f"{len(set(origin))};{len(twin) // 2};" + ",".join(map(str, code))


def every_insertion(m):
    """(face id, i, j, a, b) for every insertion across a face of m."""
    for f in m.faces:
        for i, a in enumerate(f.darts):
            for j in range(i, len(f)):
                yield f.id, i, j, a, f.darts[j]


def handed_groups(monkeypatch, *args):
    """(parent text, group) for every group ``_levels(*args)`` hands to a
    parent's insertions."""
    seen = []
    insertions = harness._insertions

    def recorded(m, group, budget):
        seen.append((serialize_map(m), group))
        return insertions(m, group, budget)
    monkeypatch.setattr(harness, "_insertions", recorded)
    list(_levels(*args))
    return seen


def as_set(group):
    return {(tuple(phi), reverses) for phi, reverses in group}


class TestCopyTest:
    def test_copy_exactly_when_the_key_is_equal(self, full_levels):
        # every insertion of every parent of the full levels up to order 12:
        # the key read off the child's arrays, with the reversed rotation
        # read off the parent's, is the built child's canonical key, so a
        # child is a copy exactly when its key is already in the level
        tried, keys = 0, set()
        for n in range(4, 13, 2):
            for _, text in full_levels[n - 2]:
                parent = parse_map(text, allow_parallel=True)
                D = parent.dart_count
                prev = (reversed_rotation(parent._next)
                        + [D + 1, D + 4, D + 3, D + 5, D, D + 2])
                for f, i, j, a, b in every_insertion(parent):
                    twin, origin, nxt = child_arrays(parent, a, b)
                    assert prev == reversed_rotation(nxt)
                    key = canonical_form(insert_edge_across_face(parent, f, i, j))
                    assert array_key(twin, origin, nxt, prev) == key, (text, f, i, j)
                    tried += 1
                    keys.add(key)
        assert tried == 6314
        assert keys == {key for n in range(4, 13, 2) for key, _ in full_levels[n]}

    def test_a_reflected_copy_of_a_chiral_map_is_rejected(self, full_levels):
        # the first insertion whose child is isomorphic to a kept map with
        # no reversing automorphism only by reflection has that map's key
        for n in range(4, 13, 2):
            sides = {}
            for key, text in full_levels[n]:
                m = parse_map(text, allow_parallel=True)
                _, reached = array_walks(m._twin, m._origin, m._next, m.mirrored()._next)
                if len({o for o, _ in reached}) == 1:
                    sides[key] = reached[0][0]
            for _, text in full_levels[n - 2]:
                parent = parse_map(text, allow_parallel=True)
                for f, i, j, a, b in every_insertion(parent):
                    twin, origin, nxt = child_arrays(parent, a, b)
                    prev = reversed_rotation(nxt)
                    key = array_key(twin, origin, nxt, prev)
                    _, reached = array_walks(twin, origin, nxt, prev)
                    if key in sides and {o for o, _ in reached} == {1 - sides[key]}:
                        assert key == canonical_form(
                            insert_edge_across_face(parent, f, i, j))
                        return
        pytest.fail("no child isomorphic to a chiral map only by reflection")

    def test_one_child_built_per_key_kept(self, monkeypatch):
        built = Counter()
        insert = harness.insert_edge_across_face

        def counted(m, *args):
            built[m.vertex_count + 2] += 1
            return insert(m, *args)
        monkeypatch.setattr(harness, "insert_edge_across_face", counted)
        kept = {n: len(level) for n, level in _levels(12) if n > 2}
        assert built == kept == {4: 2, 6: 4, 8: 14, 10: 54, 12: 291}

    @pytest.mark.parametrize("args,parents", [((12,), 1 + 2 + 4 + 14 + 54),
                                              ((12, 12), 1 + 2 + 4 + 14 + 39)],
                             ids=["full", "top-budget"])
    def test_each_kept_map_hands_on_its_automorphisms(self, monkeypatch, args, parents):
        seen = handed_groups(monkeypatch, *args)
        assert len(seen) == parents
        for text, group in seen:
            assert as_set(group) == as_set(_automorphisms(
                parse_map(text, allow_parallel=True)))
            assert len(as_set(group)) == len(group)


def rooted_maps(maps):
    """Σ 2·D/|Aut(M)| over maps: the number of rooted maps they stand for,
    with D darts and Aut(M) holding the reversing automorphisms too."""
    return sum(Fraction(2 * m.dart_count, len(_automorphisms(m))) for m in maps)


class TestCompletenessAnchors:
    def test_full_levels_count_a000309(self, full_levels):
        # rooted bridgeless cubic planar maps with n vertices (OEIS A000309)
        counts = [rooted_maps(parse_map(text, allow_parallel=True)
                              for _, text in full_levels[n])
                  for n in range(2, 15, 2)]
        assert counts == [1, 4, 24, 176, 1456, 13056, 124032]

    def test_three_connected_maps_count_a000260(self, corpus16):
        # rooted 3-connected cubic planar maps, the duals of the rooted
        # simplicial 3-polytopes (OEIS A000260; Tutte 1962)
        counts = [rooted_maps(m for m in corpus16
                              if m.vertex_count == n and is_three_connected(m))
                  for n in range(4, 17, 2)]
        assert counts == [1, 3, 13, 68, 399, 2530, 16965]

    def test_simple_maps_rooted_counts(self, corpus16):
        # no published sequence checked: regression numbers
        counts = [rooted_maps(m for m in corpus16 if m.vertex_count == n)
                  for n in range(4, 17, 2)]
        assert counts == [1, 3, 19, 128, 909, 6737, 51683]


# sha256 of the jsonl, csv and text reports of each claim over corpus12,
# runtime masked
REPORTS12 = {
    "C1": ("12ed9e30c1ec71b54bf5b7471a85a63a5eb1d8d9dbff1e3c13fecf058162c892",
           "1a3559c27052efe0bce8bbebc4bcdabb13cd09884f0913ce1fab7efaa826f9df",
           "d6081a252f943776c0da9b15f879671011f1ca8299886f0cf99caa6ca2d25e0f"),
    "C2": ("343a21a92f373119e85c60a476a06abbbfaf0c8b960885603099b274c80dba3e",
           "4fcf9633f23bca6eca6e9ce141a69ffe1ac4ac769479ccd5a9a486f00c1ed468",
           "0bdf1b1b1720c663355b2f825b302047542fe7461d3a2f2cce22f95266181d84"),
    "C3": ("30acfcf8c09414250aec2355329aac0383184922dfa739dc63489906c11810ec",
           "c5d770d2dfe465bb1bb5a32dab62a54e38dbc15316669e83c9b17a764864d057",
           "1e52bc60bde6d8f394e7f81c67b8ec8c80de4330023240ae17425565e9253fff"),
    "C4": ("bda2d09f2f14bb2c3c118243b8b9854ec6f09530b0d84a56b7ec30c3b601b24a",
           "ebea38a5bd9ee59ad231377787b516ff7218a56ce072b995f6f2086e10985a1a",
           "28ede374a7f45790542e791926ac504d3e6dd4e89cdbd7eead37442c87ff7ebc"),
    "C5": ("bd0e75505994ff4facd8b5608995b2c7078db30e7ba3b7ea063d39b2675b82cf",
           "30d776c43f6745d5d7b3baa6ffa184e98e66ec9b2efb55894d30725cfe0652d0",
           "1aad71d735570fa11d8694ce1129419a41de390c199d3de57fd3e269a92fa2b6"),
    "C6": ("a9e472f86701367ffb333a624186648cdf4bf3eb052ddb058ce631f70d963021",
           "d9aad18b67e56b082da0338770961deae10299b92d5780d39b33602b780615f6",
           "72841e052eb763020f65325314f8377b8afa28389dab9785a4a49ec445a83947"),
}

# two K4s, each with one edge subdivided, the new vertices joined by a bridge
BRIDGED_TEXT = ("10\n1: 9 4 3\n2: 3 4 9\n3: 1 4 2\n4: 1 2 3\n5: 10 8 7\n"
                "6: 7 8 10\n7: 5 8 6\n8: 5 6 7\n9: 1 2 10\n10: 5 6 9\n")


def tait_colorable_reference(maps):
    """C1 as a loop of its own over the maps: (violations, instances)."""
    violations, instances = [], []
    for m in maps:
        ec = find_tait_coloring(m)
        ok = ec is not None and not verify_coloring(m, ec)
        instances.append(InstanceRecord(canonical_form(m), {"n": m.vertex_count}, ok))
        if not ok:
            violations.append((serialize_map(m), {"reason": "no Tait coloring found"}))
    return violations, instances


class TestCheckClaim:
    def test_unknown_claim(self, corpus12):
        with pytest.raises(UnknownClaim):
            check_claim("C9", corpus12)

    @pytest.mark.parametrize("claim", ["C1", "C2", "C3", "C4"])
    def test_structure_claims_clean_at_small_order(self, claim, corpus12):
        report = check_claim(claim, corpus12)
        assert report.ok
        assert report.instances_checked > 0

    def test_c5_clean_at_n12_but_not_at_n14(self, corpus12, recurrence14):
        assert check_claim("C5", corpus12).ok
        report = check_claim("C5", [recurrence14])
        assert not report.ok
        text, witness = report.violations[0]
        assert witness["topologies"][-1] in ("T1", "T1p")

    def test_c5_witness_replays(self, recurrence14):
        from tetracolor.kempe import replay_trace, run_procedure
        report = check_claim("C5", [recurrence14])
        text, witness = report.violations[0]
        m = parse_map(text)
        edge = m.find_edge(witness["edge"][0] - 1, witness["edge"][1] - 1)
        again = run_procedure(m, witness["pentagon"], deleted_edge=edge)
        assert again.anomaly == "topology-one-recurrence"
        assert replay_trace(m, again)

    def test_c6_reports_recurrence_instances(self, recurrence14):
        report = check_claim("C6", [recurrence14])
        assert not report.ok

    def test_c5_report_ignores_earlier_isomorphic_maps(self, recurrence14):
        # a relabelled copy is isomorphic to the witness map but numbered
        # differently, so its reductions start elsewhere and must not reuse
        # the original's traces
        lists = neighbor_lists(recurrence14)
        perm = list(range(len(lists)))
        random.Random(7).shuffle(perm)
        new = [None] * len(lists)
        for v, row in enumerate(lists):
            new[perm[v]] = [perm[w] for w in row]
        relabelled = parse_map(serialize_map(from_neighbor_lists(new)))
        fresh = check_claim("C5", [relabelled])
        check_claim("C5", [recurrence14])
        after = check_claim("C5", [relabelled])
        assert after.violations == fresh.violations
        assert emit_report(after, "csv") == emit_report(fresh, "csv")

    def test_c5_report_on_a_mirrored_map_replays(self, recurrence14):
        # mirrored() numbers darts unlike the parse of its own text; its
        # report must equal that of the reparse, checked before or after
        # it, and every witness must replay from its map text
        from tetracolor.kempe import run_procedure
        mirror = recurrence14.mirrored()
        reparse = parse_map(serialize_map(mirror))
        first = check_claim("C5", [mirror])
        after = check_claim("C5", [reparse])
        fresh = check_claim("C5", [reparse])
        assert first.violations
        assert first.violations == after.violations == fresh.violations
        for text, witness in first.violations:
            m = parse_map(text)
            u, v = witness["edge"]
            again = run_procedure(m, witness["pentagon"],
                                  deleted_edge=m.find_edge(u - 1, v - 1))
            assert again.to_jsonl() == witness["trace"]

    def test_sweep_reduces_every_instance_once(self, corpus12, monkeypatch):
        from tetracolor import harness
        calls = Counter()

        def count(name):
            inner = getattr(harness, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            monkeypatch.setattr(harness, name, counted)

        for name in ("run_procedure", "canonical_form", "is_three_connected"):
            count(name)
        harness._claim_rows.cache_clear()
        reports = {c: check_claim(c, corpus12) for c in CLAIM_IDS}
        assert calls["run_procedure"] == reports["C4"].instances_checked > 0
        # one key and one 3-connectivity test per map: the reflection's
        # rows reuse both
        assert (calls["canonical_form"] == calls["is_three_connected"]
                == len(corpus12))

    def test_reports_of_corpus12_are_pinned(self, corpus12):
        # sha256 of each report with its runtime masked; the csv rows are
        # the only record of the clean instances
        for claim in CLAIM_IDS:
            report = check_claim(claim, corpus12)
            for fmt, want in zip(("jsonl", "csv", "text"), REPORTS12[claim]):
                out = emit_report(report, fmt)
                out = re.sub(r'"runtime_s": [0-9.e-]+', '"runtime_s": 0', out)
                out = re.sub(r"runtime: [0-9.]+s", "runtime: 0.00s", out)
                got = hashlib.sha256(out.encode()).hexdigest()
                assert got == want, (claim, fmt)

    def test_c1_equals_a_loop_over_the_maps(self, corpus12):
        violations, instances = tait_colorable_reference(corpus12)
        report = check_claim("C1", corpus12)
        assert report.instances == instances and len(instances) == len(corpus12)
        assert report.violations == violations == []

    def test_c1_refuses_a_bridged_map_like_c2(self):
        with pytest.raises(MapError) as c2:
            check_claim("C2", [parse_map(BRIDGED_TEXT)])
        with pytest.raises(type(c2.value)):
            check_claim("C1", [parse_map(BRIDGED_TEXT)])

    def test_variant_cache_keeps_the_last_corpus(self, corpus12, recurrence14):
        from tetracolor import harness
        for maps in (corpus12, [recurrence14]):
            for claim in ("C2", "C5"):
                check_claim(claim, maps)
        assert harness._claim_rows.cache_info().maxsize == 1
        assert harness._claim_rows.cache_info().currsize <= 1

    def test_c2_then_c5_then_c2_reduce_each_instance_once(self, corpus12,
                                                           monkeypatch):
        from tetracolor import harness
        inner = harness.run_procedure
        runs = Counter()

        def counted(*args, **kwargs):
            tr = inner(*args, **kwargs)
            runs[(tr.map_text, tr.pentagon, tr.deleted_edge)] += 1
            return tr

        harness._claim_rows.cache_clear()
        monkeypatch.setattr(harness, "run_procedure", counted)
        first = check_claim("C2", corpus12)
        c5 = check_claim("C5", corpus12)
        again = check_claim("C2", corpus12)
        assert len(runs) == c5.instances_checked > first.instances_checked > 0
        assert set(runs.values()) == {1}
        assert again.instances == first.instances
        assert again.instances is not first.instances

    def test_no_trace_outlives_check_claim(self, recurrence14, monkeypatch):
        from tetracolor import harness
        inner = harness.run_procedure
        refs = []

        def watched(*args, **kwargs):
            tr = inner(*args, **kwargs)
            refs.append(weakref.ref(tr))
            return tr

        harness._claim_rows.cache_clear()
        monkeypatch.setattr(harness, "run_procedure", watched)
        report = check_claim("C5", [recurrence14])
        gc.collect()
        assert report.violations and len(refs) == report.instances_checked
        assert all(ref() is None for ref in refs)

    def test_reports_share_no_rows_with_the_cache(self, recurrence14):
        first = check_claim("C5", [recurrence14])
        first.violations[0][1]["pentagon"] = 999
        first.violations[0][1]["topologies"].append("T9")
        first.instances[0].detail["n"] = -1
        first.instances[0].detail["edge"].append(-1)
        again = check_claim("C5", [recurrence14])
        assert again.violations[0][1]["pentagon"] != 999
        assert "T9" not in again.violations[0][1]["topologies"]
        assert again.instances[0].detail.get("n") != -1
        assert -1 not in again.instances[0].detail["edge"]

    def test_checkers_do_not_mutate_maps(self, corpus12):
        before = [serialize_map(m) for m in corpus12]
        check_claim("C2", corpus12)
        assert [serialize_map(m) for m in corpus12] == before


class TestEmitReport:
    def test_text_summary(self, corpus12):
        report = check_claim("C1", corpus12)
        text = emit_report(report, "text")
        assert "no counterexample found at this scale" in text

    def test_jsonl_round_trip_witness(self, recurrence14):
        report = check_claim("C5", [recurrence14])
        lines = [json.loads(line) for line in
                 emit_report(report, "jsonl").splitlines()]
        assert lines[0]["kind"] == "summary"
        violation = next(rec for rec in lines if rec["kind"] == "violation")
        m = parse_map(violation["map"])
        assert validate(m).all_ok

    def test_csv_one_row_per_instance(self, corpus12):
        report = check_claim("C2", corpus12)
        lines = emit_report(report, "csv").splitlines()
        assert len(lines) == 1 + report.instances_checked

    def test_csv_rows_parse_back_to_the_instance_records(self, corpus12):
        # map keys hold commas and details hold quotes: both must survive
        for claim in CLAIM_IDS:
            report = check_claim(claim, corpus12)
            rows = list(csv.reader(io.StringIO(emit_report(report, "csv"))))
            assert rows[0] == ["claim", "map_key", "ok", "detail"]
            assert len(rows) == 1 + len(report.instances)
            for row, rec in zip(rows[1:], report.instances):
                assert len(row) == 4
                assert row[:3] == [claim, rec.map_key, str(int(rec.ok))]
                assert json.loads(row[3]) == rec.detail

    def test_unsupported_format(self, corpus12):
        report = check_claim("C1", corpus12[:1])
        with pytest.raises(UnsupportedFormat):
            emit_report(report, "xml")


class TestThreeConnectivityTag:
    def test_k4_and_witness_are_three_connected(self, k4, recurrence14):
        assert is_three_connected(k4)
        assert is_three_connected(recurrence14)

    def test_three_connected_counts_match_a000109(self, corpus16):
        # 3-connected cubic planar maps up to reflection are the duals of
        # the simplicial polyhedra, OEIS A000109
        from tetracolor.harness import is_three_connected
        counts = {n: 0 for n in range(4, 17, 2)}
        for m in corpus16:
            counts[m.vertex_count] += is_three_connected(m)
        assert list(counts.values()) == [1, 1, 2, 5, 14, 50, 233]
        assert sum(counts.values()) < len(corpus16)

    def test_c6_reports_carry_the_tag(self, corpus12):
        report = check_claim("C6", corpus12[:10])
        assert all("three_connected" in rec.detail for rec in report.instances)
