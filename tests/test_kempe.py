import gc
import itertools
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetracolor import harness, kempe
from tetracolor.coloring import (BIT, EDGE_ORDER, EdgeColoring,
                                 find_tait_coloring, from_bits, to_bits,
                                 verify_coloring)
from tetracolor.harness import GenConfig, generate
from tetracolor.kempe import (ANOMALY_TOPOLOGY_RECURRENCE,
                              Contracted, DegreeMismatch, Inverted,
                              KempeChain, KempeError, NoPentagon, Normalized,
                              Pattern, PatternNotAllowed, PreconditionPattern,
                              PreparedMap, SeedColorMismatch, Topology,
                              TopologyClass, UnclassifiedTopology,
                              classify_topology, expand_vertex, find_chain,
                              invert_chain, pattern_at, replay_inversions,
                              replay_trace, run_procedure)
from tetracolor.planar_map import NotCubic, contract_face, parse_map, serialize_map

B, Y, G = (BIT[c] for c in EDGE_ORDER)
BY, BG, GY = B | Y, B | G, G | Y
BIT_OF_LETTER = {c.value: BIT[c] for c in EDGE_ORDER}
MEMBER = {BIT[c]: c for c in EDGE_ORDER}


def tait_bits(m):
    return to_bits(m, find_tait_coloring(m))


def degrees(m, chain):
    """How many chain edges meet each vertex of m."""
    return Counter(v for e in chain.edges for v in m.edge_endpoints(e))


def branch_vertices(m, chain):
    """Vertices the chain passes more than once (the hub, typically)."""
    return tuple(sorted(v for v, d in degrees(m, chain).items() if d > 2))


def hub_pairing(m, ec, hub, pair):
    """How the hub darts of the two-colored subgraph pair up via walks."""
    darts = [d for d in m.vertex_darts(hub) if ec[m.edge_id(d)] & pair]
    partner = {}
    for d in darts:
        if d in partner:
            continue
        _, end = kempe._pair_walk(m, ec, d, pair, hub)
        partner[d] = end
        partner[end] = d
    # consistency: the pairing must be a perfect matching on the hub darts
    if sorted(partner) != sorted(darts) or any(partner[partner[d]] != d for d in darts):
        raise KempeError("hub walk pairing is not an involution")
    return partner


def reference_topology(m, ec, hub):
    """The topology read off the pairing of all four curve darts."""
    pattern = pattern_at(m, ec, hub)
    colors = pattern.cyclic_colors
    if pattern.tbci:
        raise PreconditionPattern("pattern is tbci; nothing to classify")
    if pattern.majority == G:
        raise PreconditionPattern("green majority must be normalized away first")
    if any(m.head(d) == hub for d in pattern.darts):
        raise PreconditionPattern("loop at the hub")
    pair = pattern.majority | G
    curve_darts = [d for d, c in zip(pattern.darts, colors) if c & pair]
    i = reference_lone_index(colors, pattern.majority)
    lone = pattern.darts[i]
    green = pattern.darts[colors.index(G)]
    mirrored = colors[(i + 1) % 5] != G
    partner = hub_pairing(m, ec, hub, pair)
    k = curve_darts.index(lone)
    p = curve_darts[k:] + curve_darts[:k]  # cyclic order from the lone dart
    if partner[p[0]] == p[2]:
        raise UnclassifiedTopology(
            "interleaved hub passages, impossible in a planar embedding")
    if partner[green] == lone:
        return TopologyClass.T2P if mirrored else TopologyClass.T2
    return TopologyClass.T1P if mirrored else TopologyClass.T1


class TestFindChain:
    def test_k4_blue_yellow_is_alternating_four_cycle(self, k4):
        ec = tait_bits(k4)
        seed = next(e for e in k4.edges() if ec[e] == B)
        chain = find_chain(k4, ec, seed, BY)
        assert len(chain.edges) == 4
        assert set(degrees(k4, chain).values()) == {2}
        assert {ec[e] for e in chain.edges} == {B, Y}

    def test_seed_color_mismatch(self, k4):
        ec = tait_bits(k4)
        green = next(e for e in k4.edges() if ec[e] == G)
        with pytest.raises(SeedColorMismatch, match="is G, not in BY"):
            find_chain(k4, ec, green, BY)

    def test_chain_through_hub_reports_branching(self, dodecahedron):
        tr = run_procedure(dodecahedron, 0)
        cmap, hub, ec = tr.contracted_map, tr.hub, tr.initial_coloring
        pat = pattern_at(cmap, ec, hub)
        pair = pat.majority | G
        seed = next(cmap.edge_id(d) for d in pat.darts
                    if ec[cmap.edge_id(d)] & pair)
        chain = find_chain(cmap, ec, seed, pair)
        assert branch_vertices(cmap, chain) == (hub,)
        assert set(degrees(cmap, chain).values()) != {2}


class TestInvert:
    def test_double_inversion_is_identity(self, k4):
        ec = tait_bits(k4)
        start = list(ec)
        chain = find_chain(k4, ec, k4.edges()[0], BY)
        invert_chain(ec, chain)
        assert ec != start
        invert_chain(ec, chain)
        assert ec == start

    def test_k4_cycle_inversion_stays_proper(self, k4):
        ec = tait_bits(k4)
        greens = {e for e in k4.edges() if ec[e] == G}
        invert_chain(ec, find_chain(k4, ec, k4.edges()[0], BY))
        assert verify_coloring(k4, from_bits(k4, ec)) == []
        assert greens == {e for e in k4.edges() if ec[e] == G}

    def test_an_edge_outside_the_pair_is_refused(self, k4):
        ec = tait_bits(k4)
        green = next(e for e in k4.edges() if ec[e] == G)
        with pytest.raises(KempeError, match="outside the pair"):
            invert_chain(ec, KempeChain(BY, frozenset((green,))))


class TestPatternAt:
    def test_recurrence_witness_word(self, recurrence14):
        tr = run_procedure(recurrence14, 0,
                           deleted_edge=recurrence14.find_edge(0, 13))
        cmap, hub, ec = tr.contracted_map, tr.hub, tr.initial_coloring
        pat = pattern_at(cmap, ec, hub)
        assert pat.word == "BYBGB"
        assert not pat.tbci
        assert pat.majority == B
        assert Counter(pat.cyclic_colors) == {B: 3, Y: 1, G: 1}
        assert pat.lone == 2

    def test_tbci_word(self, dodecahedron):
        # search the pentagon sweep for an immediately contiguous pattern
        for f in dodecahedron.faces:
            for e in sorted({dodecahedron.edge_id(d) for d in f.darts}):
                tr = run_procedure(dodecahedron, f.id, deleted_edge=e)
                first = next(ev for ev in tr.events if isinstance(ev, Pattern))
                if first.tbci:
                    assert sorted(first.word) in (list("BBBGY"), list("BBBYG"),
                                                  list("BGYYY"), list("GGGBY"),
                                                  list("BGGGY"), list("BYYYG"))
                    return
        pytest.skip("no immediately contiguous instance in this sweep")

    def test_wrong_degree(self, k4):
        ec = tait_bits(k4)
        with pytest.raises(DegreeMismatch):
            pattern_at(k4, ec, 0)

    def test_parity_violation_detected(self, recurrence14):
        tr = run_procedure(recurrence14, 0,
                           deleted_edge=recurrence14.find_edge(0, 13))
        cmap, hub, ec = tr.contracted_map, tr.hub, tr.initial_coloring
        broken = list(ec)
        hub_edges = [cmap.edge_id(d) for d in cmap.vertex_darts(hub)]
        blue = [e for e in hub_edges if broken[e] == B]
        broken[blue[0]] = Y
        with pytest.raises(PatternNotAllowed):
            pattern_at(cmap, broken, hub)

    def test_uncolored_hub_edges_are_not_allowed(self, recurrence14):
        # BYBGB with its first two blues unset leaves B, Y, G once each:
        # even in both subgraphs, yet no 3-1-1 pattern
        tr = run_procedure(recurrence14, 0,
                           deleted_edge=recurrence14.find_edge(0, 13))
        cmap, hub = tr.contracted_map, tr.hub
        hub_edges = [cmap.edge_id(d) for d in cmap.vertex_darts(hub)]
        for k in range(1, 6):
            for unset in itertools.combinations(hub_edges, k):
                broken = list(tr.initial_coloring)
                for e in unset:
                    broken[e] = 0
                with pytest.raises(PatternNotAllowed):
                    pattern_at(cmap, broken, hub)


class TestClassifyTopology:
    def test_all_labels_reachable(self, corpus12):
        seen = set()
        for m in corpus12:
            for variant in (m, parse_map(serialize_map(m.mirrored()))):
                for f in variant.faces:
                    if len(f) != 5:
                        continue
                    for e in sorted({variant.edge_id(d) for d in f.darts}):
                        tr = run_procedure(variant, f.id, deleted_edge=e)
                        for ev in tr.events:
                            if isinstance(ev, Topology):
                                seen.add(ev.label)
        assert seen == {"T1", "T1p", "T2", "T2p"}

    def test_t2_means_green_pairs_with_lone(self, corpus12):
        # every state of every trace, in both orientations: the one walk
        # from the green dart gives the label the full pairing gives
        labels = Counter()
        for m in corpus12:
            for variant in (m, parse_map(serialize_map(m.mirrored()))):
                prepared = PreparedMap(variant)
                for f, e in _instances(variant):
                    tr = run_procedure(prepared, f, deleted_edge=e)
                    cmap, hub = tr.contracted_map, tr.hub
                    for ec in _trace_states(tr):
                        topo = _outcome(classify_topology, cmap, ec, hub)
                        assert topo == _outcome(reference_topology, cmap, ec, hub)
                        if isinstance(topo, TopologyClass):
                            labels[topo] += 1
        assert set(labels) == set(TopologyClass)
        assert sum(labels.values()) > 400, labels

    def test_tbci_precondition(self, dodecahedron):
        for f in dodecahedron.faces:
            for e in sorted({dodecahedron.edge_id(d) for d in f.darts}):
                tr = run_procedure(dodecahedron, f.id, deleted_edge=e)
                first = next(ev for ev in tr.events if isinstance(ev, Pattern))
                if first.tbci:
                    cmap, hub = tr.contracted_map, tr.hub
                    with pytest.raises(PreconditionPattern):
                        classify_topology(cmap, tr.initial_coloring, hub)
                    return
        pytest.skip("no immediately contiguous instance")


class TestExpandVertex:
    def test_dodecahedron_expansion_is_proper(self, dodecahedron):
        tr = run_procedure(dodecahedron, 0)
        assert tr.succeeded
        parent, full = tr.result
        assert parent is dodecahedron
        assert verify_coloring(parent, full) == []

    def test_degree_mismatch_on_triangle_hub(self, k4):
        cmap, record = contract_face(k4, 0)
        ec = tait_bits(cmap)
        with pytest.raises(DegreeMismatch):
            expand_vertex(cmap, ec, record)

    def test_expansion_leaves_no_reference_cycle(self, dodecahedron):
        # a search that refers to itself would keep its colours alive
        # until the cyclic collector runs
        ec = run_procedure(dodecahedron, 0).final_coloring
        cmap, record = contract_face(dodecahedron, 0)
        gc.collect()
        gc.disable()
        try:
            assert expand_vertex(cmap, ec, record) is not None
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_non_contiguous_pattern_does_not_expand(self, recurrence14):
        tr = run_procedure(recurrence14, 0,
                           deleted_edge=recurrence14.find_edge(0, 13))
        cmap, record = contract_face(recurrence14, 0)
        ec = tr.initial_coloring
        assert not pattern_at(cmap, ec, record.hub).tbci
        assert expand_vertex(cmap, ec, record) is None


class TestRunProcedure:
    def test_dodecahedron_every_pentagon_and_edge(self, dodecahedron):
        for f in dodecahedron.faces:
            assert len(f) == 5
            for e in sorted({dodecahedron.edge_id(d) for d in f.darts}):
                tr = run_procedure(dodecahedron, f.id, deleted_edge=e)
                assert tr.succeeded
                assert verify_coloring(*tr.result) == []

    def test_recurrence_witness_trace(self, recurrence14):
        tr = run_procedure(recurrence14, 0,
                           deleted_edge=recurrence14.find_edge(0, 13))
        assert not tr.succeeded
        assert tr.anomaly == ANOMALY_TOPOLOGY_RECURRENCE
        assert tr.topology_sequence == ("T1", "T1p", "T1")
        kinds = [ev.inversion for ev in tr.inversions]
        assert kinds == ["L1", "L2"]
        words = [ev.word for ev in tr.events if isinstance(ev, Pattern)]
        assert words == ["BYBGB", "BYYGY", "YBYGY"]

    def test_no_pentagon_errors(self, k4, dodecahedron):
        with pytest.raises(NoPentagon):
            run_procedure(k4, 0)
        with pytest.raises(NoPentagon):
            run_procedure(dodecahedron, 0,
                          deleted_edge=dodecahedron.find_edge(10, 15))

    def test_trace_is_replayable(self, dodecahedron, recurrence14):
        for m, pentagon, edge in ((dodecahedron, 0, None),
                                  (recurrence14, 0, recurrence14.find_edge(0, 13))):
            tr = run_procedure(m, pentagon, deleted_edge=edge)
            assert replay_inversions(tr)
            assert replay_trace(m, tr)

    def test_jsonl_trace_fields(self, recurrence14):
        tr = run_procedure(recurrence14, 0,
                           deleted_edge=recurrence14.find_edge(0, 13))
        lines = [json.loads(line) for line in tr.to_jsonl().splitlines()]
        assert lines[0]["kind"] == "header"
        assert lines[0]["map"] == tr.map_text
        kinds = [rec["kind"] for rec in lines[1:]]
        assert kinds == ["contracted", "pattern", "topology", "inverted",
                         "pattern", "topology", "inverted", "pattern",
                         "topology", "anomaly"]
        assert lines[-1]["anomaly"] == ANOMALY_TOPOLOGY_RECURRENCE
        assert "word" in lines[-1]["state"]

    def test_events_order_contract_first_pattern_before_topology(self, corpus12):
        for m in corpus12[:20]:
            for f in m.faces:
                if len(f) != 5:
                    continue
                tr = run_procedure(m, f.id)
                assert isinstance(tr.events[0], Contracted)
                seen_pattern = False
                for ev in tr.events:
                    if isinstance(ev, Pattern):
                        seen_pattern = True
                    if isinstance(ev, Topology):
                        assert seen_pattern


class TestStructuralRoundTrip:
    def test_contract_then_expand_restores_map(self, dodecahedron):
        from tetracolor.harness import canonical_form
        tr = run_procedure(dodecahedron, 2)
        assert tr.succeeded
        parent, _ = tr.result
        assert canonical_form(parent) == canonical_form(dodecahedron)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_inversion_preserves_properness_on_random_maps(seed):
    (m,) = generate(GenConfig(12, mode="random", count=1, seed=seed))
    ec = tait_bits(m)
    start = list(ec)
    first = ec[m.edges()[0]]
    chain = find_chain(m, ec, m.edges()[0], first | (G if first != G else B))
    invert_chain(ec, chain)
    assert verify_coloring(m, from_bits(m, ec)) == []
    invert_chain(ec, chain)
    assert ec == start


def test_chains_on_plain_cubic_maps_are_simple_cycles(corpus12):
    # with no five-valent hub anywhere, every two-colored chain closes into
    # a simple cycle
    for m in corpus12[:15]:
        ec = tait_bits(m)
        for pair in (BY, BG, GY):
            seen = set()
            for e in m.edges():
                if not ec[e] & pair or e in seen:
                    continue
                chain = find_chain(m, ec, e, pair)
                seen |= chain.edges
                assert set(degrees(m, chain).values()) == {2}


def test_immediately_contiguous_trace_shape(corpus12):
    # some instance contracts straight into a contiguous majority: its trace
    # is exactly contract, pattern, expand
    for m in corpus12:
        for f in m.faces:
            if len(f) != 5:
                continue
            for e in sorted({m.edge_id(d) for d in f.darts}):
                tr = run_procedure(m, f.id, deleted_edge=e)
                if tr.succeeded and len(tr.events) == 3:
                    kinds = [type(ev).__name__ for ev in tr.events]
                    assert kinds == ["Contracted", "Pattern", "ExpandSuccess"]
                    first = tr.events[1]
                    assert first.tbci
                    return
    pytest.fail("no immediately contiguous instance found in the corpus")


def test_budget_anomaly_on_tiny_budget(recurrence14):
    # a one-iteration budget cannot reach any terminal state on this instance
    tr = run_procedure(recurrence14, 0,
                       deleted_edge=recurrence14.find_edge(0, 13),
                       step_budget=1)
    assert tr.anomaly == "budget-exhausted"
    assert not tr.succeeded
    assert replay_inversions(tr)


def test_replay_rejects_an_improper_intermediate_state(dodecahedron):
    # inverting one edge away from the hub twice restores the coloring, so
    # only the per-step properness check can catch the bogus steps
    import dataclasses
    tr = run_procedure(dodecahedron, 0)
    cmap, ec = tr.contracted_map, tr.initial_coloring
    e = next(e for e in cmap.edges()
             if ec[e] & BY and tr.hub not in cmap.edge_endpoints(e))
    flip = Inverted(inversion="auxiliary", pair="BY", seed_dart=e,
                    edges=(e,), word_after="")
    bogus = dataclasses.replace(
        tr, events=(tr.events[0], flip, flip) + tr.events[1:])
    assert replay_inversions(tr)
    assert not replay_inversions(bogus)


def test_replay_judges_an_inversion_outside_its_pair_false(dodecahedron):
    # a green edge inverted as blue-yellow: invert_chain refuses it, and the
    # replay reports the trace as failing instead of raising
    import dataclasses
    tr = run_procedure(dodecahedron, 0)
    cmap, ec = tr.contracted_map, tr.initial_coloring
    e = next(e for e in cmap.edges() if ec[e] == G)
    flip = Inverted(inversion="auxiliary", pair="BY", seed_dart=e,
                    edges=(e,), word_after="")
    with pytest.raises(KempeError, match="outside the pair"):
        invert_chain(list(ec), KempeChain(BY, frozenset((e,))))
    bogus = dataclasses.replace(tr, events=(tr.events[0], flip) + tr.events[1:])
    assert replay_inversions(bogus) is False


def test_pair_letters_are_alphabetical():
    assert [kempe._pair_str(p) for p in (BG, BY, GY)] == ["BG", "BY", "GY"]
    for a, b in itertools.permutations(EDGE_ORDER, 2):
        old = "".join(c.value for c in sorted((a, b), key=lambda c: c.value))
        assert kempe._pair_str(BIT[a] | BIT[b]) == old


def test_golden_trace_serialization(recurrence14):
    # byte-exact golden file: the witness trace serialization is pinned
    from pathlib import Path
    golden = (Path(__file__).parent / "data" / "recurrence14.trace.jsonl").read_text()
    tr = run_procedure(recurrence14, 0,
                       deleted_edge=recurrence14.find_edge(0, 13))
    assert tr.to_jsonl() == golden


def _instances(m):
    """Every (pentagon, boundary edge) of m, in sweep order."""
    return [(f.id, e) for f in m.faces if len(f) == 5
            for e in sorted({m.edge_id(d) for d in f.darts})]


class TestPreparedMap:
    def test_prepared_map_gives_the_plain_maps_traces(self, corpus12, recurrence14):
        checked = 0
        variants = [v for m in corpus12
                    for v in (m, parse_map(serialize_map(m.mirrored())))]
        for m in variants + [recurrence14]:
            prepared = PreparedMap(m)
            for f, e in _instances(m):
                plain = run_procedure(m, f, deleted_edge=e)
                tr = run_procedure(prepared, f, deleted_edge=e)
                assert tr.events == plain.events
                assert tr.to_jsonl() == plain.to_jsonl()
                for a, b in ((tr.initial_coloring, plain.initial_coloring),
                             (tr.final_coloring, plain.final_coloring)):
                    assert a == b
                    assert a is None or type(a) is tuple
                assert (tr.result is None) == (plain.result is None)
                if tr.result is not None:
                    assert tr.result[0] is plain.result[0] is m
                    assert tr.result[1] == plain.result[1]
                # the traces of one pentagon share its contraction
                assert tr.contracted_map is prepared.contracted(f)[0]
                checked += 1
        assert checked > 500

    def test_a_variant_is_validated_once_and_each_pentagon_contracted_once(
            self, monkeypatch, recurrence14):
        calls = Counter()

        def counting(name):
            original = getattr(kempe, name)

            def counted(m, *args):
                calls[(name, serialize_map(m), *args)] += 1
                return original(m, *args)
            return counted

        # a fresh map object, so the pass's cache cannot have it
        m = parse_map(serialize_map(recurrence14))
        mirror = PreparedMap(m.mirrored()).map
        for name in ("validate", "contract_face"):
            monkeypatch.setattr(kempe, name, counting(name))
        rows = harness._claim_rows((m,))
        expected = Counter()
        for variant in (m, mirror):
            text = serialize_map(variant)
            expected[("validate", text)] = 1
            for f in variant.faces:
                if len(f) == 5:
                    expected[("contract_face", text, f.id)] = 1
        assert calls == expected
        assert len(rows["C2"][0]) == 30
        assert len(rows["C4"][0]) == 2 * 30

    def test_mirrored_corpus_traces_replay_from_their_headers(self, corpus12):
        # mirrored() numbers darts unlike the parse of its own text, so the
        # prepared map is that parse, and every header names its instance
        checked = 0
        for m in corpus12:
            mirror = m.mirrored()
            prepared = PreparedMap(mirror)
            for f, e in _instances(prepared.map):
                tr = run_procedure(prepared, f, deleted_edge=e)
                assert replay_trace(parse_map(tr.map_text), tr)
                checked += 1
        assert checked > 250

    def test_a_map_numbered_unlike_its_text_is_refused(self, recurrence14):
        mirror = recurrence14.mirrored()
        assert PreparedMap(mirror).map is not mirror
        assert PreparedMap(recurrence14).map is recurrence14
        f, e = _instances(mirror)[0]
        with pytest.raises(KempeError, match="numbered like the parse"):
            run_procedure(mirror, f, deleted_edge=e)

    def test_invalid_map_is_refused_when_prepared(self):
        with pytest.raises(NoPentagon):
            PreparedMap(parse_map("2\n1: 2\n2: 1\n"))


def _outcome(f, *args):
    try:
        return f(*args)
    except KempeError as exc:
        return type(exc), str(exc)


def _trace_states(tr):
    """Every coloring along a trace: the start, then each recoloring."""
    if tr.initial_coloring is None:
        return
    ec = list(tr.initial_coloring)
    yield tuple(ec)
    for ev in tr.events:
        if isinstance(ev, Normalized):
            perm = {BIT_OF_LETTER[a]: BIT_OF_LETTER[b] for a, b in ev.permutation}
            ec = [perm.get(c, c) for c in ec]
        elif isinstance(ev, Inverted):
            pair = BIT_OF_LETTER[ev.pair[0]] | BIT_OF_LETTER[ev.pair[1]]
            invert_chain(ec, KempeChain(pair, frozenset(ev.edges)))
        else:
            continue
        yield tuple(ec)
    assert tuple(ec) == tr.final_coloring


# ---------------------------------------------------------------------------
# the hub model against the scans and the search it replaced
# ---------------------------------------------------------------------------

def reference_contiguous(positions, n):
    pos = set(positions)
    return any(all((s + i) % n in pos for i in range(len(positions)))
               for s in range(n))


def reference_lone_index(colors, majority):
    """Index of the majority dart whose cyclic neighbors are non-majority."""
    n = len(colors)
    for i, c in enumerate(colors):
        if (c == majority and colors[(i - 1) % n] != majority
                and colors[(i + 1) % n] != majority):
            return i
    return None


def reference_expand(m, ec, record):
    """Depth-first search over the boundary edges in walk order, colors in
    bit order: the least proper extension onto the restored pentagon."""
    parent = record.parent
    colors = {pe: ec[ce] for ce, pe in record.edge_map.items()}
    boundary = [parent.edge_id(d) for d in record.boundary_darts]
    bverts = record.boundary_vertices
    k = len(boundary)
    vert_edges = {v: [parent.edge_id(d) for d in parent.vertex_darts(v)]
                  for v in bverts}

    def consistent(v):
        cs = [colors[e] for e in vert_edges[v] if e in colors]
        return len(cs) == len(set(cs))

    tried = [0] * k
    i = 0
    while True:
        if i == k:
            if all(consistent(v) for v in bverts):
                break
            i -= 1
        e = boundary[i]
        colors.pop(e, None)
        if tried[i] == 3:
            if i == 0:
                return None
            tried[i] = 0
            i -= 1
            continue
        colors[e] = (B, Y, G)[tried[i]]
        tried[i] += 1
        if all(consistent(w) for w in parent.edge_endpoints(e)):
            i += 1
    full = EdgeColoring({e: MEMBER[c] for e, c in sorted(colors.items())})
    if verify_coloring(parent, full):
        return None
    return parent, full


def test_pattern_reads_every_hub_word_like_the_scans(dodecahedron):
    cmap, record = contract_face(dodecahedron, 0)
    hub_edges = [cmap.edge_id(d) for d in cmap.vertex_darts(record.hub)]
    assert len(set(hub_edges)) == 5
    allowed = 0
    for word in itertools.product((B, Y, G), repeat=5):
        flat = [0] * cmap.dart_count
        for e, c in zip(hub_edges, word):
            flat[e] = c
        counts = Counter(word)
        if (counts[B] + counts[G]) % 2 or (counts[Y] + counts[G]) % 2:
            with pytest.raises(PatternNotAllowed):
                pattern_at(cmap, flat, record.hub)
            continue
        pat = pattern_at(cmap, flat, record.hub)
        assert pat.cyclic_colors == word
        assert pat.word == "".join(MEMBER[c].value for c in word)
        assert counts[pat.majority] == 3
        majority_at = [i for i, c in enumerate(word) if c == pat.majority]
        assert pat.tbci == reference_contiguous(majority_at, 5)
        assert pat.lone == (None if pat.tbci
                            else reference_lone_index(word, pat.majority))
        allowed += 1
    assert allowed == 60


def test_expansion_equals_the_search_on_every_trace_state(corpus12):
    states = expanded = 0
    for m in corpus12:
        for variant in (m, parse_map(serialize_map(m.mirrored()))):
            prepared = PreparedMap(variant)
            for f, e in _instances(variant):
                tr = run_procedure(prepared, f, deleted_edge=e)
                cmap, record = prepared.contracted(f)
                for ec in _trace_states(tr):
                    got = expand_vertex(cmap, ec, record)
                    assert got == reference_expand(cmap, ec, record)
                    assert (got is not None) == pattern_at(cmap, ec, tr.hub).tbci
                    states += 1
                    expanded += got is not None
    assert states > 1000 and expanded > 500


def test_expansion_refuses_a_boundary_vertex_without_one_off_walk_edge():
    # the pentagon 1-2-3-4-5 is face 0; vertex 1 has no off-walk edge and
    # vertex 2 has two, so the hub still has degree five
    m = parse_map("6\n1: 2 5\n2: 1 3 6 6\n3: 2 4 6\n4: 3 5 6\n5: 4 1 6\n"
                  "6: 2 2 3 4 5\n", allow_parallel=True)
    cmap, record = contract_face(m, 0)
    assert cmap.degree(record.hub) == 5
    with pytest.raises(NotCubic):
        expand_vertex(cmap, [B] * cmap.dart_count, record)
