"""Corpus generation, canonical deduplication, and claim-by-claim checks.

Exhaustive mode enumerates every connected simple bridgeless cubic planar
map of a given order up to embedded-map isomorphism (reflections
identified).  Growth happens inside the wider class of loopless
bridgeless cubic planar multigraph maps, seeded by the two-vertex triple
edge and closed under inserting a new edge across a face (two subdivision
points on one or two boundary edges); the simple members are emitted.
Each level keeps the first child seen per canonical key.  Insertions in
one orbit of the parent's automorphisms give isomorphic children, so only
the first insertion of each orbit is tried (the orbit pruning of McKay's
canonical construction path); the kept texts are the same as when every
insertion is tried.  Each tried child is walked once on its dart arrays,
in both orientations (``_least_roots``): its least code is its key, a key
already in the level is a copy, and only a child with a new key is built
and serialized.  The walks that reach the least code are its
automorphisms; renumbered as its text parses, they prune its own
insertions at the next level.  Children are visited in the same order,
so the first text kept per key is unchanged.

Generation looks ahead to the top order it must reach.  Let p(m) be
Σ (multiplicity − 1) over the vertex pairs of m.  An insertion lowers p
by at most 2, so a map of order n with p > top − n cannot become simple
by order top, and the insertions that would give one are skipped before
the child is built (p of the child is read off the parent).  Every
parent of a child within the budget is within its own, and the kept
children are tried in the same order as in the full level, so the first
text kept per key, and hence every simple map, is the same as in the
full multigraph level.  Generation is one walk over the levels
(``_levels``) and keeps no state between calls: each call grows its
levels afresh.  Random mode walks seeded insertion chains from K4 and
stays simple.

Each claim checker sweeps a corpus, returns a report with replayable
witnesses for every violation, and never mutates corpus maps.  C1..C6
come from one pass over the corpus: every map is prepared, keyed and
tested for 3-connectivity once and judged for C1, then it and its
reflection are reduced; every reduction is run once and judged at once
for each claim that reads it, and its trace is dropped.  Only the report
rows of the last corpus swept stay cached, so asking for any one of
C1..C6 pays for the whole pass, and the others are then read from the
cache.
"""

from __future__ import annotations

import bisect
import csv
import io
import json
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .coloring import EdgeColor, find_tait_coloring, verify_coloring
from .dscc import EvenSubgraph, trail_decompose
from .kempe import (ANOMALY_NO_TAIT, Inverted, Pattern, PreparedMap,
                    ReductionTrace, Topology, cycle_through, find_chain,
                    replay_inversions, run_procedure)
from .planar_map import (MapError, RotationMap, _boundary_walk, _face_walk,
                         _parse_order, _renumbered_as_parsed, parse_map,
                         serialize_map, validate)


class HarnessError(MapError):
    pass


class OddOrder(HarnessError):
    """Cubic maps need an even vertex count of at least four."""


class UnknownClaim(HarnessError):
    pass


class UnsupportedFormat(HarnessError):
    pass


@dataclass(frozen=True)
class GenConfig:
    """Corpus request: exhaustive, or reproducible random of a given size."""

    vertex_count: int
    mode: str = "exhaustive"          # "exhaustive" | "random"
    count: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.vertex_count % 2 or self.vertex_count < 4:
            raise OddOrder(f"vertex count {self.vertex_count} must be even and >= 4")
        if self.mode not in ("exhaustive", "random"):
            raise HarnessError(f"unknown mode {self.mode!r}")
        if self.mode == "random" and self.count < 1:
            raise HarnessError("random mode needs a positive count")


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def _walk_code(twin: Sequence[int], origin: Sequence[int], nxt: Sequence[int],
               start: int, best: Optional[list[int]] = None,
               entry: Optional[list[int]] = None) -> Optional[list[int]]:
    """Rotation-walk encoding rooted at one dart, or None once it loses.

    Vertices are labeled in discovery order; each vertex contributes a
    block of its degree and the labels of its neighbors read clockwise
    (in the rotation ``nxt``) from the dart by which the vertex was first
    entered (the root uses the start dart).  Two rooted maps are
    orientation-preserving isomorphic iff their codes match.

    Every walk of one connected map has the same length, so comparing each
    block with ``best`` as soon as it is complete decides the comparison of
    whole codes: the walk stops with None at the first block that is
    greater.  The entry dart of each vertex, in label order, is appended
    to ``entry`` when one is given.
    """
    label = [-1] * len(origin)   # a connected map has no more vertices than darts
    label[origin[start]] = 0
    queue = [] if entry is None else entry
    queue.append(start)
    code: list[int] = []
    tight = best is not None     # equal to best so far
    for d0 in queue:
        block = [0]
        d = d0
        while True:
            t = twin[d]
            w = origin[t]
            lw = label[w]
            if lw < 0:
                lw = label[w] = len(queue)
                queue.append(t)
            block.append(lw)
            d = nxt[d]
            if d == d0:
                break
        block[0] = len(block) - 1
        if tight:
            ref = best[len(code):len(code) + len(block)]
            if block != ref:
                if block > ref:
                    return None
                tight = False
        code += block
    return code


def _least_roots(twin: Sequence[int], origin: Sequence[int],
                 face_of: Sequence[int], rotations: Sequence[Sequence[int]]
                 ) -> tuple[list[int], list[tuple[int, list[int]]]]:
    """The least walk code over both orientations of the connected map of
    these dart arrays, and the (orientation, entry darts) of every walk
    that reaches it.

    ``face_of`` gives each dart's face, and ``rotations`` holds the map's
    own rotation and that of its reflection.  Only darts with the least
    (own face, twin's face) length pair are roots.  A reflection walks
    every face backwards, so a dart's pair in the mirror is its twin's
    pair in the map: the least pair is the same in both orientations, and
    the mirror's walks start from the twins of the roots.
    """
    flen = [0] * len(face_of)
    for f in face_of:
        flen[f] += 1
    sides = [(flen[face_of[d]], flen[face_of[t]]) for d, t in enumerate(twin)]
    lo = min(sides)
    roots = [d for d, s in enumerate(sides) if s == lo]
    best: Optional[list[int]] = None
    reached: list[tuple[int, list[int]]] = []
    for o, nxt in enumerate(rotations):
        for d in roots:
            entry: list[int] = []
            code = _walk_code(twin, origin, nxt, d if o == 0 else twin[d],
                              best, entry)
            if code is None:
                continue
            if code != best:
                best = code
                reached = []
            reached.append((o, entry))
    assert best is not None
    return best, reached


def canonical_form(m: RotationMap) -> str:
    """Key equal across orientation-preserving relabelings and reflections."""
    code, _ = _least_roots(m._twin, m._origin, m._face_of,
                           (m._next, m.mirrored()._next))
    return f"{m.vertex_count};{m.edge_count};" + ",".join(map(str, code))


def _group(rotations: Sequence[Sequence[int]],
           reached: Sequence[tuple[int, list[int]]]) -> list[tuple[list[int], bool]]:
    """The automorphisms the least walks of a map give (``_least_roots``):
    the first walk's darts onto each walk's, flagged True if reversing."""
    o0, e0 = reached[0]
    out = []
    for o, e in reached:
        phi = [0] * len(rotations[0])
        for a0, b0 in zip(e0, e):
            a, b = a0, b0
            while True:
                phi[a] = b
                a, b = rotations[o0][a], rotations[o][b]
                if a == a0:
                    break
        out.append((phi, o != o0))
    return out


def _automorphisms(m: RotationMap) -> list[tuple[list[int], bool]]:
    """Every automorphism of a connected map m as a dart map, flagged True
    when it reverses orientation (``_group``).

    Two rooted walks with the least code correspond block by block, which
    pairs the darts around each vertex by rotation position.  The pairing
    commutes with twin: a code names neighbors by label, which fixes the
    twin of every dart but those of parallel edges, and rotation positions
    fix those.  In a loopless bridgeless plane cubic map the two edges of
    a parallel pair bound a digon face (else the third edge at one end is
    a bridge), and the dipole's three edges pair in reverse rotation
    order, so the twins of a parallel pair sit in reverse order at the
    other end.  A reversing map sends m's rotation to its reflection's, so
    it sends each face onto the twins of a face walked backwards.
    """
    rotations = (m._next, m.mirrored()._next)
    return _group(rotations, _least_roots(m._twin, m._origin, m._face_of, rotations)[1])


# ---------------------------------------------------------------------------
# growth operation
# ---------------------------------------------------------------------------

def _add_chord(twin: list[int], origin: list[int], nxt: list[int],
               nverts: int, a: int, b: int) -> None:
    """Subdivide the edges of darts a and b of one face at new vertices
    x = nverts and y = nverts + 1 (b == a splits a's edge twice, y on the
    piece nearer its head) and join x to y across that face.

    The six new darts D..D+5 are appended in the order t2x, d2x, t2y, d2y,
    g, h: t2x goes from x back along a's edge and d2x on towards its old
    head (likewise at y), g runs x -> y and h back.  At x the rotation is
    clockwise (t2x, g, d2x); same at y.
    """
    D = len(twin)
    if b == a:
        b = D + 1   # the second split lands on the continuation of a's edge
    ta = twin[a]
    twin += [a, ta]
    twin[a], twin[ta] = D, D + 1
    tb = twin[b]
    twin += [b, tb, D + 5, D + 4]
    twin[b], twin[tb] = D + 2, D + 3
    x, y = nverts, nverts + 1
    origin += [x, x, y, y, x, y]
    nxt += [D + 4, D, D + 5, D + 2, D + 1, D + 3]


def insert_edge_across_face(m: RotationMap, face_id: int,
                            pos_i: int, pos_j: int) -> RotationMap:
    """Subdivide the face's walk edges at positions i and j (i == j splits
    one edge twice) and join the two new vertices across the face."""
    walk = m.faces[face_id].darts
    L = len(walk)
    if not (0 <= pos_i < L and 0 <= pos_j < L):
        raise HarnessError("walk position out of range")
    twin, origin, nxt = list(m._twin), list(m._origin), list(m._next)
    _add_chord(twin, origin, nxt, m.vertex_count, walk[pos_i], walk[pos_j])
    child = RotationMap(twin, origin, nxt, m.vertex_count + 2)
    assert child.vertex_count - child.edge_count + child.face_count == 2
    assert child.face_count == m.face_count + 1
    return child


_DIPOLE = parse_map("2\n1: 2 2 2\n2: 1 1 1\n", allow_parallel=True)

K4_TEXT = "4\n1: 2 4 3\n2: 3 4 1\n3: 1 4 2\n4: 1 2 3\n"


def _child_excess(m: RotationMap) -> Callable[[int, int], int]:
    """p of the child with a chord between the edges of darts a and b of
    one face (a == b splits one edge twice), read off m before building;
    p(m) is Σ (multiplicity − 1) over the vertex pairs joined by edges.

    Subdividing an edge takes it out of its parallel class; two edges of
    one class of multiplicity k take min(2, k − 1) off that class.  The
    chord joins two new vertices, so it is parallel only to the middle
    piece of an edge split twice: the two make a new digon.
    """
    origin, twin = m._origin, m._twin
    pair = [frozenset((origin[d], origin[t])) for d, t in enumerate(twin)]
    darts = Counter(pair)       # two darts per edge
    p = len(twin) // 2 - len(darts)
    extra = [darts[s] // 2 - 1 for s in pair]   # other edges of the class

    def excess(a: int, b: int) -> int:
        if a == b:
            return p - (extra[a] > 0) + 1
        if pair[a] == pair[b]:
            return p - min(2, extra[a])
        return p - (extra[a] > 0) - (extra[b] > 0)
    return excess


def _insertions(m: RotationMap, group: Sequence[tuple[list[int], bool]],
                budget: Optional[int]) -> Iterator[tuple[int, int, int, int, int]]:
    """Every edge insertion (face f, i <= j) in (f, i, j) order, as
    (f, i, j, a, b) with a and b the darts at walk positions i and j,
    skipping one when an earlier insertion gives an isomorphic child, or
    when the child's excess p (``_child_excess``) exceeds the budget.

    ``group`` is m's automorphisms as ``_automorphisms`` gives them.  An
    automorphism maps the chord across face f between the edges of darts
    a and b onto the chord between the edges of their images, which lie in
    one face; a reversing one maps it into the mirror, whose faces are the
    twins of m's.  A digon (i == j) is the same map on either side of its
    edge.  A skipped child is never the first with its key: isomorphic
    children have equal p.
    """
    twin, face_of = m._twin, m._face_of
    excess = _child_excess(m)
    pos = [0] * len(twin)
    for f in m.faces:
        for i, d in enumerate(f.darts):
            pos[d] = i
    images = [[twin[x] for x in phi] if reverses else phi
              for phi, reverses in group]
    for f in m.faces:
        walk = f.darts
        for i, a in enumerate(walk):
            for j in range(i, len(walk)):
                b = walk[j]
                if budget is not None and excess(a, b) > budget:
                    continue
                here = (f.id, i, j)
                if i == j:
                    known = ((face_of[g[s]], pos[g[s]], pos[g[s]])
                             for g in images for s in (a, twin[a]))
                else:
                    known = ((face_of[g[a]], *sorted((pos[g[a]], pos[g[b]])))
                             for g in images)
                if any(k < here for k in known):
                    continue
                yield f.id, i, j, a, b


def _levels(n_max: int, top: Optional[int] = None
            ) -> Iterator[tuple[int, tuple[tuple[str, str], ...]]]:
    """(n, level) for n = 2, 4, .. n_max, each level grown from the one
    before it: all loopless bridgeless cubic planar maps of order n, as
    (canonical key, serialized text) pairs sorted by key; with ``top``,
    only those with p <= top − n, which can still grow into a simple map
    of order top, each with the full level's text.  Only the level being
    grown and its parent are held.

    Each tried child is walked once on its arrays (``_least_roots``), the
    reflection's rotation read off the parent's; its key is looked up in
    the level, and its automorphisms (``_group``), renumbered as its text
    parses (``_parse_order``), are kept by key for the next level.
    """
    key = canonical_form(_DIPOLE)
    groups = {key: _automorphisms(_DIPOLE)}
    level = ((key, serialize_map(_DIPOLE)),)
    yield 2, level
    for n in range(4, n_max + 1, 2):
        budget = None if top is None else top - n
        found: dict[str, str] = {}
        handed: dict[str, list[tuple[list[int], bool]]] = {}
        for key, text in level:
            parent = parse_map(text, allow_parallel=True)
            D = parent.dart_count
            prev = [0] * D
            for d, e in enumerate(parent._next):
                prev[e] = d
            # the reversed rotation at the chord's darts D..D+5 (_add_chord)
            prev += [D + 1, D + 4, D + 3, D + 5, D, D + 2]
            for f, i, j, a, b in _insertions(parent, groups[key], budget):
                twin, origin, nxt = (list(parent._twin), list(parent._origin),
                                     list(parent._next))
                _add_chord(twin, origin, nxt, parent.vertex_count, a, b)
                rotations = (nxt, prev)
                code, reached = _least_roots(twin, origin, _face_walk(twin, nxt)[1],
                                             rotations)
                child = f"{n};{len(twin) // 2};" + ",".join(map(str, code))
                if child in found:
                    continue
                found[child] = serialize_map(insert_edge_across_face(parent, f, i, j))
                if n < n_max:   # only a level with children hands groups on
                    order, new = _parse_order(origin, nxt, n)
                    handed[child] = [([new[phi[d]] for d in order], reverses)
                                     for phi, reverses in _group(rotations, reached)]
        level, groups = tuple(sorted(found.items())), handed
        yield n, level


def _exhaustive_level(n: int, top: Optional[int] = None
                      ) -> tuple[tuple[str, str], ...]:
    """The last level of ``_levels(n, top)``: order n, grown afresh."""
    for _, level in _levels(n, top):
        pass
    return level


def _simple_maps(level: Iterable[tuple[str, str]]) -> Iterator[RotationMap]:
    """The simple maps of a level."""
    for _, text in level:
        m = parse_map(text, allow_parallel=True)
        report = validate(m)
        if report.simple:
            assert report.all_ok
            yield m


def generate(config: GenConfig) -> Iterator[RotationMap]:
    """Stream corpus maps; every emitted map passes validate with all flags.

    Random mode repeats, ``count`` times, a seeded walk from K4: draw a
    face by its rank in least-dart order and two distinct positions i < j
    on its walk from that dart, and join the two edges there by a chord
    (``_add_chord``), until the order is reached.  The walk runs on the
    dart arrays and keeps only each face's least dart; the drawn face is
    walked from it when drawn.  A chord's darts are numbered above all
    others, so only the face it cuts off, w[i+1..j] between two new
    darts, gains a least dart.  The kept least darts must be the faces'
    least darts of the finished arrays.  Those arrays are then renumbered
    as ``parse_map`` numbers the map's text (``_renumbered_as_parsed``)
    and built once: one ``RotationMap`` per emitted map, with no text
    round trip.  That numbering is the parse's for a bridgeless cubic map
    other than the dipole, which ``validate`` asserts.
    """
    if config.mode == "exhaustive":
        yield from _simple_maps(_exhaustive_level(config.vertex_count,
                                                  config.vertex_count))
        return
    rng = random.Random(config.seed)
    k4 = parse_map(K4_TEXT)
    for _ in range(config.count):
        twin, origin, nxt = list(k4._twin), list(k4._origin), list(k4._next)
        leasts = list(k4._leasts)
        nverts = k4.vertex_count
        while nverts < config.vertex_count:
            w = _boundary_walk(twin, nxt, leasts[rng.randrange(len(leasts))])
            i = rng.randrange(len(w))
            j = rng.randrange(len(w))
            if i == j:
                continue  # stay simple: two distinct boundary edges
            i, j = min(i, j), max(i, j)
            _add_chord(twin, origin, nxt, nverts, w[i], w[j])
            nverts += 2
            bisect.insort(leasts, min(w[i + 1:j + 1]))
        assert _face_walk(twin, nxt)[0] == leasts
        m = _renumbered_as_parsed(twin, origin, nxt, nverts)
        assert validate(m).all_ok   # so numbered as the parse of its text
        yield m


def corpus(n_max: int, n_min: int = 4) -> list[RotationMap]:
    """Exhaustive corpora for every even order n_min..n_max, concatenated,
    from one walk over the levels that looks ahead to the largest of them."""
    if n_min <= n_max:
        GenConfig(n_min)    # an order no cubic map has raises OddOrder
    top = n_max - n_max % 2
    maps: list[RotationMap] = []
    for n, level in _levels(top, top):
        if n >= n_min:
            maps.extend(_simple_maps(level))
    return maps


def is_three_connected(m: RotationMap) -> bool:
    """For a connected cubic map: no bridge and no 2-edge-cut.

    A minimal edge cut of a plane map is a cycle of its dual, so a bridge
    has the same face on both sides and two edges form a cut exactly when
    they separate the same pair of faces.
    """
    sides = [frozenset((m.face_of(e), m.face_of(m.twin(e)))) for e in m.edges()]
    return all(len(s) == 2 for s in sides) and len(set(sides)) == len(sides)


# ---------------------------------------------------------------------------
# claims
# ---------------------------------------------------------------------------

CLAIM_IDS = ("C1", "C2", "C3", "C4", "C5", "C6")

CLAIM_TITLES = {
    "C1": "every corpus map admits a proper 3-edge-coloring",
    "C2": "every contracted-hub pattern is a 3-1-1 multiset (parity law)",
    "C3": "hub edges on one simple trail cycle lie on one chain (walk pairing)",
    "C4": "every inversion preserves even parity and 3-valent properness",
    "C5": "no topology-1 recurrence after the second blue-yellow inversion",
    "C6": "the reduction always ends in a successful pentagon expansion",
}


@dataclass(frozen=True)
class InstanceRecord:
    """One checked instance, for per-instance report rows."""

    map_key: str
    detail: dict
    ok: bool


@dataclass
class ClaimReport:
    claim: str
    instances_checked: int
    violations: list[tuple[str, dict]]  # (map text, witness data)
    runtime: float
    config: dict
    instances: list[InstanceRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_claim(claim: str, maps: Iterable[RotationMap]) -> ClaimReport:
    """Run one claim checker over a corpus and aggregate witnesses.  The
    report's rows are its own: editing them changes no later report."""
    if claim not in CLAIM_IDS:
        raise UnknownClaim(f"claim {claim!r}; known: {', '.join(CLAIM_IDS)}")
    t0 = time.monotonic()
    rows, found = _claim_rows(tuple(maps))[claim]
    instances = [InstanceRecord(r.map_key, _copy_row(r.detail), r.ok)
                 for r in rows]
    violations = [(text, _copy_row(w)) for text, w in found]
    return ClaimReport(claim, len(instances), violations, time.monotonic() - t0,
                       {"claim": claim, "title": CLAIM_TITLES[claim]}, instances)


def _copy_row(row: dict) -> dict:
    """A copy of a cached detail or witness dict that shares nothing with
    it: rows nest one level deep, in lists."""
    return {k: v.copy() if type(v) is list else v for k, v in row.items()}


Judgement = tuple[dict, bool, Optional[dict]]   # (detail, ok, witness)
Rows = tuple[tuple[InstanceRecord, ...], tuple[tuple[str, dict], ...]]


@lru_cache(maxsize=1)
def _claim_rows(maps: tuple[RotationMap, ...]) -> dict[str, Rows]:
    """The instance records and violations of C1..C6 over a corpus, from
    one pass that reduces every instance once.

    Each map is prepared, keyed and tested for 3-connectivity once, and
    C1 judges it; then the map and its reflection are reduced.  Corpus
    dedup identifies reflections, so the reflection's rows take the map's
    key with "/mirror" appended, and reflections keep edge cuts, so its
    3-connectivity too; but the reduction's outcome can depend on the
    orientation, so C4..C6 judge both while C2 and C3 read the map alone.
    Every (pentagon, boundary edge) instance goes once through the module
    binding ``run_procedure``, and each judge that reads its trace returns
    the instance's detail row, its verdict and the witness data, which is
    kept only for a violation.  No trace outlives its judging: the cache
    holds the rows of the last corpus swept, keyed by the identity of its
    maps (``RotationMap`` has no ``__eq__``).
    """
    instances: dict[str, list[InstanceRecord]] = {c: [] for c in CLAIM_IDS}
    violations: dict[str, list[tuple[str, dict]]] = {c: [] for c in CLAIM_IDS}

    def record(claim: str, key: str, text: str, judgement: Judgement) -> None:
        detail, ok, witness = judgement
        instances[claim].append(InstanceRecord(key, detail, ok))
        if not ok:
            violations[claim].append((text, witness))

    for base in maps:
        prepared = PreparedMap(base)
        key = canonical_form(prepared.map)
        three_connected = is_three_connected(prepared.map)
        record("C1", key, prepared.text, _judge_tait_colorable(prepared.map))
        for mirror in (False, True):
            if mirror:
                prepared, key = PreparedMap(base.mirrored()), key + "/mirror"
            m = prepared.map
            for f in m.faces:
                if len(f) != 5:
                    continue
                for e in sorted({m.edge_id(d) for d in f.darts}):
                    tr = run_procedure(prepared, f.id, deleted_edge=e)
                    for claim in _MIRROR_CLAIMS if mirror else _JUDGES:
                        record(claim, key, tr.map_text,
                               _JUDGES[claim](m, three_connected, tr))
    return {c: (tuple(instances[c]), tuple(violations[c])) for c in CLAIM_IDS}


def _judge_tait_colorable(m: RotationMap) -> Judgement:
    ec = find_tait_coloring(m)
    ok = ec is not None and not verify_coloring(m, ec)
    return {"n": m.vertex_count}, ok, {"reason": "no Tait coloring found"}


def _judge_pattern_law(m: RotationMap, three_connected: bool,
                       tr: ReductionTrace) -> Judgement:
    detail = {"pentagon": tr.pentagon, "edge": list(tr.deleted_edge),
              "n": m.vertex_count}
    if tr.anomaly == ANOMALY_NO_TAIT:
        detail["skipped"] = "smaller map has no Tait coloring"
        return detail, True, None
    words = [ev.word for ev in tr.events if isinstance(ev, Pattern)]
    bad = [w for w in words
           if sorted((w.count("B"), w.count("Y"), w.count("G"))) != [1, 1, 3]]
    detail["patterns"] = words
    return detail, not bad and bool(words), {
        "pentagon": tr.pentagon, "edge": list(tr.deleted_edge), "bad_patterns": bad}


def _judge_chain_existence(m: RotationMap, three_connected: bool,
                           tr: ReductionTrace) -> Judgement:
    """Each simple trail cycle through the hub must be the walk's cycle.

    In the blue-green and the yellow-green subgraph, every trail of the
    decomposition that is a simple cycle through the hub must come back
    on an edge of the two-coloured walk from its departure dart
    (``cycle_through``), and of the chain ``find_chain`` grows from the
    departure edge.  The walk meets the hub only where it leaves and
    where it returns, so the first test says the trail and the walk
    close the same passage.
    """
    at = {"pentagon": tr.pentagon, "edge": list(tr.deleted_edge)}
    if tr.initial_coloring is None or tr.contracted_map is None:
        return {**at, "skipped": "no coloring"}, True, None
    cmap, hub, ec = tr.contracted_map, tr.hub, tr.initial_coloring
    if any(cmap.head(d) == hub for d in cmap.vertex_darts(hub)):
        return {**at, "skipped": "loop at hub"}, True, None
    ok = True
    checked = 0
    for pair, tag in ((1 | 4, EdgeColor.BLUE), (2 | 4, EdgeColor.YELLOW)):
        sub_edges = frozenset(e for e in cmap.edges() if ec[e] & pair)
        hub_darts = [d for d in cmap.vertex_darts(hub) if ec[cmap.edge_id(d)] & pair]
        if len(hub_darts) not in (0, 2, 4):
            ok = False
            break
        trails = trail_decompose(EvenSubgraph(sub_edges, tag), cmap)
        for t in trails:
            hub_t = [d for d in t.darts if cmap.origin(d) == hub]
            if len(hub_t) != 1 or not t.is_simple_cycle(cmap):
                continue  # premise needs a simple cycle through the hub
            depart = hub_t[0]
            arrive = cmap.twin(t.darts[(t.darts.index(depart) - 1) % len(t.darts)])
            checked += 1
            back = cmap.edge_id(arrive)
            cycle = cycle_through(cmap, ec, hub, depart, pair)
            chain = find_chain(cmap, ec, cmap.edge_id(depart), pair)
            if back not in cycle.edges or back not in chain.edges:
                ok = False
    return {**at, "cycles_checked": checked}, ok, at


def _judge_inversion_safety(m: RotationMap, three_connected: bool,
                            tr: ReductionTrace) -> Judgement:
    """Replay the trace, validating parity and properness after each step."""
    at = {"pentagon": tr.pentagon, "edge": list(tr.deleted_edge)}
    if tr.initial_coloring is None:
        return {**at, "skipped": "no coloring"}, True, None
    return {**at, "inversions": len(tr.inversions)}, replay_inversions(tr), at


def _judge_no_recurrence(m: RotationMap, three_connected: bool,
                         tr: ReductionTrace) -> Judgement:
    seq = []
    after_l2 = False
    recurrence = False
    for ev in tr.events:
        if isinstance(ev, Topology):
            seq.append(ev.label)
            if after_l2 and ev.label in ("T1", "T1p"):
                recurrence = True
            after_l2 = False
        elif isinstance(ev, Inverted) and ev.inversion == "L2":
            after_l2 = True
    detail = {"pentagon": tr.pentagon, "edge": list(tr.deleted_edge),
              "topologies": seq, "anomaly": tr.anomaly,
              "succeeded": tr.succeeded,
              "three_connected": three_connected}
    if recurrence:
        return detail, False, {**detail, "trace": tr.to_jsonl()}
    return detail, True, None


def _judge_always_expands(m: RotationMap, three_connected: bool,
                          tr: ReductionTrace) -> Judgement:
    detail = {"pentagon": tr.pentagon, "edge": list(tr.deleted_edge),
              "anomaly": tr.anomaly, "three_connected": three_connected}
    if tr.anomaly == ANOMALY_NO_TAIT:
        # the premise (a colorable smaller map) fails; record, don't blame
        detail["skipped"] = "smaller map has no Tait coloring"
        return detail, True, None
    # expand_vertex verifies every coloring it returns, and a trace
    # succeeds only through it, so success needs no second check here
    if tr.succeeded:
        return detail, True, None
    return detail, False, {**detail, "trace": tr.to_jsonl()}


_JUDGES = {"C2": _judge_pattern_law, "C3": _judge_chain_existence,
           "C4": _judge_inversion_safety, "C5": _judge_no_recurrence,
           "C6": _judge_always_expands}
_MIRROR_CLAIMS = ("C4", "C5", "C6")


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def emit_report(report: ClaimReport, format: str = "text") -> str:
    if format == "jsonl":
        lines = [json.dumps({"kind": "summary", "claim": report.claim,
                             "instances_checked": report.instances_checked,
                             "violations": len(report.violations),
                             "runtime_s": round(report.runtime, 3),
                             "config": report.config}, sort_keys=True)]
        for text, witness in report.violations:
            lines.append(json.dumps({"kind": "violation", "witness": witness,
                                     "map": text}, sort_keys=True))
        return "\n".join(lines) + "\n"
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("claim", "map_key", "ok", "detail"))
        for rec in report.instances:
            writer.writerow((report.claim, rec.map_key, int(rec.ok),
                             json.dumps(rec.detail)))
        return buf.getvalue()
    if format == "text":
        verdict = ("no counterexample found at this scale" if report.ok
                   else f"{len(report.violations)} violation(s) found")
        lines = [f"claim {report.claim}: {CLAIM_TITLES[report.claim]}",
                 f"instances checked: {report.instances_checked}",
                 f"runtime: {report.runtime:.2f}s",
                 f"verdict: {verdict}"]
        for text, witness in report.violations:
            lines.append("violation: " + json.dumps(witness, sort_keys=True))
            lines.append(text.rstrip())
        return "\n".join(lines) + "\n"
    raise UnsupportedFormat(f"format {format!r}; use jsonl, csv, or text")
