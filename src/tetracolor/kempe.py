"""Kempe chains, local inversions, and the pentagon reduction pipeline.

The pipeline takes a cubic bridgeless planar map with a pentagonal face,
removes one pentagon edge, three-edge-colors the smaller map, contracts
the pentagon of the original map to a five-valent hub, and then tries to
reach a state whose three majority-colored hub edges are contiguous
(``tbci``), at which point the pentagon can be re-expanded with a proper
coloring.  Non-contiguous states are attacked with local inversions of
two-colored cycles; every state transition is recorded in a replayable
trace, and any situation the driving argument says cannot happen is
reported as an anomaly rather than papered over.

A chain here is a connected subgraph of two color classes.  Away from the
hub every vertex is properly 3-valent, so chains decompose into simple
cycles; through the hub a maximal chain can hold two cycles ("passages"),
and inversions always flip one whole cycle.

A sweep runs many reductions on one map, so the per-map work is done once
by ``PreparedMap``: it validates the map, serializes its text, numbers it
like the parse of that text and contracts each pentagon on first use, and
every trace of that pentagon shares the one contracted map.  Colorings
here take the bit form of ``coloring.BIT``: a flat list by dart id, each
edge's color at its edge id, Blue 1, Yellow 2, Green 4, and a color pair
the | of its two bits, so one xor swaps a chain edge's color.  The loop
recolors one list in place and a trace keeps its start and end as
tuples; an ``EdgeColoring`` is built only for the restored map and for
an anomaly's coloring text.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .coloring import (BIT, LETTER, EdgeColoring, find_tait_coloring, from_bits,
                       serialize_coloring, verify_coloring)
from .dscc import split_subgraphs
from .planar_map import (ContractionRecord, MapError, NotCubic, RotationMap,
                         contract_face, delete_edge_suppress, parse_map,
                         serialize_map, validate)


class KempeError(MapError):
    pass


class SeedColorMismatch(KempeError):
    """The seed edge's color is not in the requested color pair."""


class PatternNotAllowed(KempeError):
    """Hub parity violated: some subgraph has odd degree at the hub."""


class PreconditionPattern(KempeError):
    """Topology classification asked for on an unsuitable hub pattern."""


class UnclassifiedTopology(KempeError):
    """Dart pairing at the hub fits none of the four expected shapes."""


class DegreeMismatch(KempeError):
    """Hub degree is not five."""


class NoPentagon(KempeError):
    """The requested face is not a pentagon."""


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KempeChain:
    """A connected edge set drawn from two color classes, the | of their bits."""

    color_pair: int
    edges: frozenset[int]


def find_chain(m: RotationMap, ec: Sequence[int], seed: int,
               pair: int) -> KempeChain:
    """Maximal connected two-colored subgraph through the seed edge."""
    seed = m.edge_id(seed)
    if not ec[seed] & pair:
        raise SeedColorMismatch(f"seed edge {seed} is {LETTER.get(ec[seed], '-')}, "
                                f"not in {_pair_str(pair)}")
    twin, origin, vertex_darts = m._twin, m._origin, m._vertex_darts
    seen = {seed}
    stack = [seed]
    while stack:
        e = stack.pop()
        for v in (origin[e], origin[twin[e]]):
            for d in vertex_darts[v]:
                t = twin[d]
                e2 = d if d < t else t
                if e2 not in seen and ec[e2] & pair:
                    seen.add(e2)
                    stack.append(e2)
    return KempeChain(pair, frozenset(seen))


def _pair_walk(m: RotationMap, ec: Sequence[int], start_dart: int,
               pair: int, stop_vertex: int
               ) -> tuple[tuple[int, ...], int]:
    """Walk the two-colored subgraph from a hub dart until the hub returns.

    Continuation away from the hub is forced: a proper 3-valent vertex has
    exactly two incident edges of the pair.  Returns the dart sequence and
    the hub dart of the arrival edge.
    """
    twin, origin, vertex_darts = m._twin, m._origin, m._vertex_darts
    walk = [start_dart]
    d = start_dart
    while True:
        t = twin[d]
        w = origin[t]
        if w == stop_vertex:
            return tuple(walk), t
        arrived = d if d < t else t
        nxt = None
        for d2 in vertex_darts[w]:
            t2 = twin[d2]
            e2 = d2 if d2 < t2 else t2
            if e2 != arrived and ec[e2] & pair:
                if nxt is not None:
                    raise KempeError(f"vertex {w} is not properly 3-valent in the pair")
                nxt = d2
        if nxt is None:
            raise KempeError(f"walk dead-ends at vertex {w}")
        walk.append(nxt)
        d = nxt


def cycle_through(m: RotationMap, ec: Sequence[int], hub: int, hub_dart: int,
                  pair: int) -> KempeChain:
    """The unique two-colored simple cycle through one hub dart."""
    walk, _end = _pair_walk(m, ec, hub_dart, pair, hub)
    return KempeChain(pair, frozenset(m.edge_id(d) for d in walk))


def invert_chain(ec: list[int], chain: KempeChain) -> None:
    """Swap the chain's two colors on exactly its edges, in place.

    Every vertex that the chain passes properly (two pair-colored incident
    edges, both on the chain) stays proper; inverting twice restores the
    input.  Raises KempeError on a chain edge colored outside the pair.
    """
    pair = chain.color_pair
    for e in chain.edges:
        if not ec[e] & pair:
            raise KempeError(f"chain edge {e} is {LETTER.get(ec[e], '-')}, outside the pair")
        ec[e] ^= pair


# ---------------------------------------------------------------------------
# hub patterns and topology classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VertexPattern:
    """Color bits around the hub in clockwise rotation order.

    The even-parity laws force every legal pattern into a 3-1-1 color
    multiset, which pattern_at validates.  ``tbci`` is true when the three
    majority-colored darts are cyclically consecutive, that is when the two
    other darts are neighbors.  Otherwise ``lone`` is the index of the one
    majority dart whose two neighbors are not majority-colored; it is None
    on a tbci pattern.
    """

    darts: tuple[int, ...]
    cyclic_colors: tuple[int, ...]
    majority: int
    tbci: bool
    lone: Optional[int]

    @property
    def word(self) -> str:
        return "".join([LETTER[c] for c in self.cyclic_colors])


class TopologyClass(enum.Enum):
    T1 = "T1"
    T1P = "T1p"
    T2 = "T2"
    T2P = "T2p"


def pattern_at(m: RotationMap, ec: Sequence[int], hub: int) -> VertexPattern:
    """Read and validate the color pattern at a five-valent hub; an
    uncolored hub edge breaks the pattern like a parity violation."""
    darts = m.vertex_darts(hub)
    if len(darts) != 5:
        raise DegreeMismatch(f"hub degree is {len(darts)}, want 5")
    colors = tuple(ec[m.edge_id(d)] for d in darts)
    blue, yellow, green = (colors.count(c) for c in (1, 2, 4))
    if blue + yellow + green != 5 or (blue + green) % 2 or (yellow + green) % 2:
        raise PatternNotAllowed(
            f"hub parity violated: word {''.join(LETTER.get(c, '-') for c in colors)}")
    # parity forces all three counts odd, hence 3-1-1: a < b are the two
    # positions the majority does not hold
    majority = 1 if blue == 3 else 2 if yellow == 3 else 4
    a, b = (i for i, c in enumerate(colors) if c != majority)
    tbci = b - a in (1, 4)
    lone = None if tbci else (a + 1 if b - a == 2 else (b + 1) % 5)
    return VertexPattern(darts=darts, cyclic_colors=colors, majority=majority,
                         tbci=tbci, lone=lone)


def classify_topology(m: RotationMap, ec: Sequence[int], hub: int,
                      pattern: Optional[VertexPattern] = None) -> TopologyClass:
    """How the majority curve's two hub passages pair the four hub darts.

    The majority curve is the majority-plus-green subgraph; at the hub it
    holds the three majority darts and the green dart, and its two hub
    passages are vertex-disjoint away from the hub, so planarity admits
    only the two non-crossing pairings.  One walk along the curve from
    the green dart tells them apart.  When it ends at the lone majority
    dart the state is topology 2: inverting that one passage cycle hands
    the majority all three slots around the former lone position, i.e.
    forces tbci.  When it ends at green's other neighbour, the member of
    the majority pair two slots from the lone dart, the state is
    topology 1, the resistant shape.  The primed labels are the mirror
    variants, read off from which side of the lone dart the green
    singleton sits.  A walk to the far member of the pair would make an
    interleaved pairing, which cannot be drawn in the plane and raises
    UnclassifiedTopology.  ``pattern`` is pattern_at(m, ec, hub) when the
    caller has read it.
    """
    if pattern is None:
        pattern = pattern_at(m, ec, hub)
    majority = pattern.majority
    if pattern.tbci:
        raise PreconditionPattern("pattern is tbci; nothing to classify")
    if majority == 4:
        raise PreconditionPattern("green majority must be normalized away first")
    if any(m.head(d) == hub for d in pattern.darts):
        raise PreconditionPattern("loop at the hub")
    darts, lone = pattern.darts, pattern.lone
    g = pattern.cyclic_colors.index(4)
    # green sits next to the lone dart, clockwise unless mirrored
    mirrored = g != (lone + 1) % 5
    _walk, end = _pair_walk(m, ec, darts[g], majority | 4, hub)
    if end == darts[lone]:
        return TopologyClass.T2P if mirrored else TopologyClass.T2
    if end == darts[(lone - 2 if mirrored else lone + 2) % 5]:
        return TopologyClass.T1P if mirrored else TopologyClass.T1
    raise UnclassifiedTopology(
        "interleaved hub passages, impossible in a planar embedding")


# ---------------------------------------------------------------------------
# pentagon expansion
# ---------------------------------------------------------------------------

def expand_vertex(m: RotationMap, ec: Sequence[int], record: ContractionRecord
                  ) -> Optional[tuple[RotationMap, EdgeColoring]]:
    """Restore the contracted pentagon and extend the coloring onto it.

    ``m`` is the map contract_face returned with ``record``.  Every edge
    that survived the contraction keeps its color.  At each boundary
    vertex the two walk edges take the two colors its off-walk edge
    lacks, so the first walk edge's color forces all the others; the
    colors are tried in bit order, which is EDGE_ORDER, and the first
    walk that closes is kept, the least extension in walk order.  Returns
    None when no extension exists, which is exactly the non-tbci
    situation.  Raises NotCubic when a boundary vertex has other than one
    off-walk edge.
    """
    if m.degree(record.hub) != 5:
        raise DegreeMismatch(f"hub degree is {m.degree(record.hub)}, want 5")
    parent = record.parent

    colors = [0] * parent.dart_count
    for child_edge, parent_edge in record.edge_map.items():
        colors[parent_edge] = ec[child_edge]
    # walk edge i leaves boundary vertex i; spokes[i] is the color of
    # that vertex's off-walk edge
    walk = [parent.edge_id(d) for d in record.boundary_darts]
    spokes = []
    for v in record.boundary_vertices:
        off = [e for e in map(parent.edge_id, parent.vertex_darts(v))
               if e not in walk]
        if len(off) != 1:
            raise NotCubic(f"boundary vertex {v} has {len(off)} off-walk edges, want 1")
        spokes.append(colors[off[0]])

    # round vertices 1..4 and back to 0: the walk closes when vertex 0
    # forces the first color again (a clash forces 0 from then on)
    for first in (1, 2, 4):
        forced = [first]
        for spoke in spokes[1:] + spokes[:1]:
            prev = forced[-1]
            forced.append(7 ^ spoke ^ prev if prev and prev != spoke else 0)
        if forced[-1] == first:
            break
    else:
        return None
    for e, c in zip(walk, forced):
        colors[e] = c
    full = from_bits(parent, colors)
    if verify_coloring(parent, full):
        return None  # extension claimed proper but is not; treat as absent
    return parent, full


# ---------------------------------------------------------------------------
# reduction trace
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Contracted:
    face_id: int
    hub: int
    deleted_edge: tuple[int, int]
    kind: str = "contracted"


@dataclass(frozen=True)
class Normalized:
    permutation: tuple[tuple[str, str], ...]  # (from, to) color letters
    kind: str = "normalized"


@dataclass(frozen=True)
class Pattern:
    word: str
    tbci: bool
    majority: str
    kind: str = "pattern"


@dataclass(frozen=True)
class Topology:
    label: str
    kind: str = "topology"


@dataclass(frozen=True)
class Inverted:
    inversion: str          # "L1", "L2", or "auxiliary"
    pair: str               # e.g. "BY"
    seed_dart: int
    edges: tuple[int, ...]  # edge ids of the contracted map
    word_after: str
    kind: str = "inverted"


@dataclass(frozen=True)
class ExpandSuccess:
    coloring: str           # coloring-file text of the restored map
    kind: str = "expand-success"


@dataclass(frozen=True)
class Anomaly:
    anomaly: str
    state: dict
    kind: str = "anomaly"


TraceEvent = Union[Contracted, Normalized, Pattern, Topology, Inverted,
                   ExpandSuccess, Anomaly]

ANOMALY_TOPOLOGY_RECURRENCE = "topology-one-recurrence"
ANOMALY_BUDGET = "budget-exhausted"
ANOMALY_UNCLASSIFIED = "unclassified-topology"
ANOMALY_EXPAND_FAILURE = "expand-failure"
ANOMALY_CHAIN_INEFFECTIVE = "chain-inversion-ineffective"
ANOMALY_CHORDED_PENTAGON = "chorded-pentagon"
ANOMALY_NO_TAIT = "tait-coloring-unavailable"
ANOMALY_PATTERN = "pattern-not-allowed"


@dataclass(frozen=True)
class ReductionTrace:
    """Replayable record of one pentagon reduction attempt; the colorings
    are bit tuples of the contracted map, ``result`` an EdgeColoring."""

    map_text: str
    pentagon: int
    deleted_edge: tuple[int, int]
    step_budget: int
    events: tuple[TraceEvent, ...]
    contracted_map: Optional[RotationMap] = field(default=None, compare=False)
    hub: Optional[int] = field(default=None, compare=False)
    initial_coloring: Optional[tuple[int, ...]] = field(default=None, compare=False)
    final_coloring: Optional[tuple[int, ...]] = field(default=None, compare=False)
    result: Optional[tuple[RotationMap, EdgeColoring]] = field(default=None, compare=False)

    @property
    def succeeded(self) -> bool:
        return any(isinstance(e, ExpandSuccess) for e in self.events)

    @property
    def anomaly(self) -> Optional[str]:
        for e in self.events:
            if isinstance(e, Anomaly):
                return e.anomaly
        return None

    @property
    def inversions(self) -> tuple[Inverted, ...]:
        return tuple(e for e in self.events if isinstance(e, Inverted))

    @property
    def topology_sequence(self) -> tuple[str, ...]:
        return tuple(e.label for e in self.events if isinstance(e, Topology))

    def to_jsonl(self) -> str:
        header = {"kind": "header", "pentagon": self.pentagon,
                  "deleted_edge": list(self.deleted_edge),
                  "step_budget": self.step_budget,
                  "map": self.map_text}
        lines = [json.dumps(header, sort_keys=True)]
        for ev in self.events:
            rec = {"kind": ev.kind}
            for name, value in vars(ev).items():
                if name == "kind":
                    continue
                if isinstance(value, tuple):
                    value = list(value) if not (value and isinstance(value[0], tuple)) \
                        else [list(x) for x in value]
                rec[name] = value
            lines.append(json.dumps(rec, sort_keys=True))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the reduction procedure
# ---------------------------------------------------------------------------

_PAIR_BY = 1 | 2
_LETTER_BIT = {letter: bit for bit, letter in LETTER.items()}


def _word(m: RotationMap, ec: Sequence[int], hub: int) -> str:
    return "".join([LETTER[ec[m.edge_id(d)]] for d in m.vertex_darts(hub)])


class PreparedMap:
    """A map made ready for many reductions.

    It is validated and its text serialized once, and each pentagon is
    contracted on first use; every trace of that pentagon shares the one
    contracted map, which like every RotationMap is immutable.  Raises
    NoPentagon when the map is not a connected cubic bridgeless planar map.

    An instance is (text, face, edge): the numbering fixes the solver's
    choices, so a trace replays from its header only when the map is
    numbered like the parse of its text.  ``map`` is the map given when
    its arrays equal the parse's, and the parse otherwise.
    """

    __slots__ = ("map", "text", "_contracted")

    def __init__(self, m: RotationMap):
        report = validate(m)
        if not (report.connected and report.cubic and report.bridgeless and report.planar):
            raise NoPentagon("reduction needs a connected cubic bridgeless planar map")
        self.text = serialize_map(m)
        parsed = parse_map(self.text, allow_parallel=True)
        same = (m._twin, m._origin, m._next) == (parsed._twin, parsed._origin, parsed._next)
        self.map = m if same else parsed
        self._contracted: dict[int, tuple[RotationMap, ContractionRecord]] = {}

    def contracted(self, face_id: int) -> tuple[RotationMap, ContractionRecord]:
        """contract_face(map, face_id), made once per face."""
        if face_id not in self._contracted:
            self._contracted[face_id] = contract_face(self.map, face_id)
        return self._contracted[face_id]


def run_procedure(n_map: Union[RotationMap, PreparedMap], pentagon: int,
                  deleted_edge: Optional[int] = None,
                  step_budget: int = 64) -> ReductionTrace:
    """Run the full pentagon reduction on one map and record every step.

    ``n_map`` is a RotationMap, which is prepared on the spot, or a
    PreparedMap, which a caller running several reductions of one map
    builds once: it validates once, and the traces of one pentagon share
    its contracted map.  Either gives the same trace.  A RotationMap must
    be numbered like the parse of its own text (see PreparedMap), because
    the face and edge ids given belong to its numbering.

    One pentagon edge is deleted (least edge id by default) and the
    smaller cubic map is three-edge-colored; the pentagon of the original
    map is contracted to a five-valent hub carrying the transferred
    colors.  The loop then alternates pattern reading, topology
    classification, and cycle inversions until the pattern turns tbci and
    the pentagon re-expands, or an anomaly is hit:

    * a tbci pattern expands immediately;
    * an interleaved (T2/T2p) majority curve is fixed by inverting
      whichever hub passage cycle of the majority-green pair forces tbci;
    * a nested (T1/T1p) curve triggers the first blue-yellow cycle
      inversion through the lone majority dart (L1 when the result stays
      non-tbci), then through the non-green singleton dart (L2), after
      which a repeated T1/T1p classification is the disputed scenario and
      is reported as an anomaly, never silently retried.
    """
    if isinstance(n_map, PreparedMap):
        prepared = n_map
    else:
        prepared = PreparedMap(n_map)
        if prepared.map is not n_map:
            raise KempeError("map is not numbered like the parse of its text; "
                             "reduce parse_map(serialize_map(map)) instead")
    n_map = prepared.map
    if not 0 <= pentagon < n_map.face_count or len(n_map.faces[pentagon]) != 5:
        raise NoPentagon(f"face {pentagon} is not a pentagon")
    walk = n_map.faces[pentagon].darts
    boundary_edges = sorted(n_map.edge_id(d) for d in walk)
    if deleted_edge is None:
        deleted_edge = boundary_edges[0]
    elif n_map.edge_id(deleted_edge) not in boundary_edges:
        raise NoPentagon(f"edge {deleted_edge} is not on face {pentagon}")
    deleted_edge = n_map.edge_id(deleted_edge)

    small, small_edges = delete_edge_suppress(n_map, deleted_edge)
    cmap, record = prepared.contracted(pentagon)
    hub = record.hub
    events: list[TraceEvent] = [
        Contracted(face_id=pentagon, hub=hub,
                   deleted_edge=tuple(x + 1 for x in n_map.edge_endpoints(deleted_edge)))]
    trace_args = dict(map_text=prepared.text, pentagon=pentagon,
                      deleted_edge=events[0].deleted_edge,
                      step_budget=step_budget, contracted_map=cmap, hub=hub)

    ec_small = find_tait_coloring(small)
    if ec_small is None:
        events.append(Anomaly(ANOMALY_NO_TAIT, {"smaller_map": serialize_map(small)}))
        return ReductionTrace(events=tuple(events), **trace_args)

    # pull the smaller map's coloring onto the contracted map: each
    # contracted edge has an original edge, which a smaller-map edge carries
    ec = [0] * cmap.dart_count
    for child_edge, parent_edge in record.edge_map.items():
        ec[child_edge] = BIT[ec_small.assignment[small_edges[parent_edge]]]
    initial = tuple(ec)
    phase = 0          # counts non-tbci blue-yellow inversions (L1 then L2)
    last_kind: Optional[str] = None

    def snapshot() -> dict:
        return {"word": _word(cmap, ec, hub),
                "coloring": serialize_coloring(cmap, from_bits(cmap, ec)),
                "phase": phase}

    def finish(result=None) -> ReductionTrace:
        return ReductionTrace(events=tuple(events), initial_coloring=initial,
                              final_coloring=tuple(ec), result=result,
                              **trace_args)

    pattern: Optional[VertexPattern] = None   # the hub pattern of ec, once read
    for _ in range(step_budget):
        if pattern is None:
            try:
                pattern = pattern_at(cmap, ec, hub)
            except PatternNotAllowed as exc:
                events.append(Anomaly(ANOMALY_PATTERN, {"error": str(exc), **snapshot()}))
                return finish()
        events.append(Pattern(word=pattern.word, tbci=pattern.tbci,
                              majority=LETTER[pattern.majority]))

        if pattern.tbci:
            result = expand_vertex(cmap, ec, record)
            if result is None:
                events.append(Anomaly(ANOMALY_EXPAND_FAILURE, snapshot()))
                return finish()
            parent, full = result
            events.append(ExpandSuccess(coloring=serialize_coloring(parent, full)))
            return finish(result)

        if any(cmap.head(d) == hub for d in pattern.darts):
            events.append(Anomaly(ANOMALY_CHORDED_PENTAGON, snapshot()))
            return finish()

        if pattern.majority == 4:
            # swap green with the singleton clockwise after the lone dart, the
            # global recoloring that makes the majority a plain curve color
            cw_color = pattern.cyclic_colors[(pattern.lone + 1) % 5]
            swap = 4 | cw_color
            for e, c in enumerate(ec):
                if c & swap:
                    ec[e] = c ^ swap
            w = LETTER[cw_color]
            events.append(Normalized(permutation=tuple(sorted(((w, "G"), ("G", w))))))
            pattern = None
            continue

        try:
            topo = classify_topology(cmap, ec, hub, pattern)
        except UnclassifiedTopology as exc:
            events.append(Anomaly(ANOMALY_UNCLASSIFIED, {"error": str(exc), **snapshot()}))
            return finish()
        events.append(Topology(label=topo.value))

        if last_kind == "L2" and topo in (TopologyClass.T1, TopologyClass.T1P):
            events.append(Anomaly(ANOMALY_TOPOLOGY_RECURRENCE, snapshot()))
            return finish()

        if topo in (TopologyClass.T2, TopologyClass.T2P):
            # the passage cycle through the green dart also holds the lone
            # majority dart here; inverting it must force tbci
            pair = pattern.majority | 4
            green_dart = pattern.darts[pattern.cyclic_colors.index(4)]
            cycle = cycle_through(cmap, ec, hub, green_dart, pair)
            invert_chain(ec, cycle)
            after = pattern_at(cmap, ec, hub)
            if not after.tbci:
                invert_chain(ec, cycle)   # the anomaly reports the state before
                events.append(Anomaly(ANOMALY_CHAIN_INEFFECTIVE, snapshot()))
                return finish()
            pattern = after
            events.append(Inverted(inversion="auxiliary",
                                   pair=_pair_str(pair), seed_dart=green_dart,
                                   edges=tuple(sorted(cycle.edges)),
                                   word_after=pattern.word))
            last_kind = "auxiliary"
            continue

        # T1 / T1p: blue-yellow cycle through the lone dart first, then
        # through the non-green singleton dart, the one dart neither
        # majority nor green (the majority is not green here)
        if phase == 0:
            seed = pattern.darts[pattern.lone]
        else:
            seed = next(d for d, c in zip(pattern.darts, pattern.cyclic_colors)
                        if c != pattern.majority and c != 4)
        cycle = cycle_through(cmap, ec, hub, seed, _PAIR_BY)
        invert_chain(ec, cycle)
        pattern = pattern_at(cmap, ec, hub)
        if pattern.tbci:
            kind = "auxiliary"
        else:
            kind = "L1" if phase == 0 else "L2"
            phase += 1
        events.append(Inverted(inversion=kind, pair="BY", seed_dart=seed,
                               edges=tuple(sorted(cycle.edges)),
                               word_after=pattern.word))
        last_kind = kind

    events.append(Anomaly(ANOMALY_BUDGET, snapshot()))
    return finish()


def _pair_str(pair: int) -> str:
    """The pair's letters in alphabetical order: "BG", "BY" or "GY"."""
    return "".join(sorted(LETTER[c] for c in (1, 2, 4) if c & pair))


def replay_inversions(trace: ReductionTrace) -> bool:
    """Re-apply the recorded recolorings to the recorded start state.

    True iff every intermediate coloring keeps even parity in both
    two-colored subgraphs and stays proper at every 3-valent vertex other
    than the hub, and the replayed coloring matches the trace's final
    coloring exactly; an inversion of an edge colored outside its pair
    replays False.  Traces without a start state (no Tait coloring)
    replay vacuously.
    """
    if trace.initial_coloring is None or trace.contracted_map is None:
        return True
    ec = list(trace.initial_coloring)
    m, hub = trace.contracted_map, trace.hub
    # the edge ids at every 3-valent vertex other than the hub
    corners = [tuple(m.edge_id(d) for d in darts)
               for v, darts in enumerate(m._vertex_darts)
               if v != hub and len(darts) == 3]
    for ev in trace.events:
        if isinstance(ev, Normalized):
            perm = {_LETTER_BIT[a]: _LETTER_BIT[b] for a, b in ev.permutation}
            ec = [perm.get(c, c) for c in ec]
        elif isinstance(ev, Inverted):
            pair = _LETTER_BIT[ev.pair[0]] | _LETTER_BIT[ev.pair[1]]
            try:
                invert_chain(ec, KempeChain(pair, frozenset(ev.edges)))
            except KempeError:   # an edge colored outside the pair
                return False
        else:
            continue
        try:
            split_subgraphs(m, ec)
        except MapError:
            return False
        if any(ec[a] | ec[b] | ec[c] != 7 for a, b, c in corners):
            return False
    return tuple(ec) == trace.final_coloring


def replay_trace(n_map: RotationMap, trace: ReductionTrace) -> bool:
    """Deterministically re-run the instance and compare event lists."""
    deleted = n_map.find_edge(trace.deleted_edge[0] - 1, trace.deleted_edge[1] - 1)
    again = run_procedure(n_map, trace.pentagon, deleted_edge=deleted,
                          step_budget=trace.step_budget)
    return again.events == trace.events
