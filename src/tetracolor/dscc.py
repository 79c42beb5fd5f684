"""Even-subgraph split of a colored map and its closed-trail decomposition.

A properly edge-colored map splits into two even subgraphs: the blue one
holds Blue and Green edges, the yellow one Yellow and Green edges, so
Green edges belong to both.  Each subgraph decomposes into closed trails
that never cross each other in the embedding: at every vertex the
incident subgraph darts are paired in rotation-adjacent couples (anchored
at the least dart), so trails through a shared vertex stay nested rather
than transversal.  Face colors are recovered from the two subgraphs by
parity walking of the dual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .coloring import (DomainMismatch, EdgeColor, EdgeColoring, FaceColoring,
                       _check_edge_domain, _dual_xor_walk, to_bits)
from .planar_map import MapError, RotationMap


class DsccError(MapError):
    pass


class ParityViolation(DsccError):
    """A vertex has odd degree inside a would-be even subgraph."""

    def __init__(self, vertex: int, message: str = ""):
        self.vertex = vertex
        super().__init__(message or f"odd subgraph degree at vertex {vertex}")


class CoverageGap(DsccError):
    """An edge belongs to neither subgraph."""


@dataclass(frozen=True)
class EvenSubgraph:
    """An edge set with even degree at every vertex of its host map."""

    edges: frozenset[int]
    color_tag: EdgeColor


@dataclass(frozen=True)
class ClosedTrail:
    """A closed dart walk using each edge at most once.

    ``darts`` lists the traversal directions; the walk closes from the
    last dart's head back to the first dart's origin.  Vertices may
    repeat, edges may not.
    """

    darts: tuple[int, ...]

    def vertices(self, m: RotationMap) -> tuple[int, ...]:
        return tuple(m.origin(d) for d in self.darts)

    def is_simple_cycle(self, m: RotationMap) -> bool:
        verts = self.vertices(m)
        return len(set(verts)) == len(verts)


@dataclass(frozen=True)
class DsccDecomposition:
    blue_trails: tuple[ClosedTrail, ...]
    yellow_trails: tuple[ClosedTrail, ...]
    shared_vertices: frozenset[int]  # vertices where same-color trails touch


def check_even(m: RotationMap, edges: frozenset[int]) -> None:
    """Raise ParityViolation at the least vertex where an odd number of
    darts belong to the edge set."""
    twin, origin = m._twin, m._origin
    odd = [False] * m.vertex_count
    for d, t in enumerate(twin):
        if (d if d < t else t) in edges:
            odd[origin[d]] ^= True
    if True in odd:
        raise ParityViolation(odd.index(True))


def split_subgraphs(m: RotationMap,
                    bits: Sequence[int]) -> tuple[EvenSubgraph, EvenSubgraph]:
    """Blue+Green and Yellow+Green edge sets of a coloring in bits (see
    coloring.BIT), checked even at every vertex."""
    edges = m.edges()
    if len(bits) != m.dart_count or any(bits[e] not in (1, 2, 4) for e in edges):
        raise DomainMismatch("edge coloring does not match the map's edges")
    blue = frozenset(e for e in edges if bits[e] & 5)
    yellow = frozenset(e for e in edges if bits[e] & 6)
    check_even(m, blue)
    check_even(m, yellow)
    return (EvenSubgraph(blue, EdgeColor.BLUE),
            EvenSubgraph(yellow, EdgeColor.YELLOW))


def _noncrossing_pairing(m: RotationMap, edges: frozenset[int]) -> list[int]:
    """Pair the subgraph darts at each vertex into rotation-adjacent couples.

    The rotation at each vertex is rotated to start at its least incident
    subgraph dart and consecutive darts are coupled; a trail arriving on
    one dart of a couple leaves on the other.  Adjacent coupling is what
    keeps two trails through the same vertex from crossing.  Returns the
    partner of every dart, -1 for darts outside the subgraph.
    """
    partner = [-1] * m.dart_count
    for e in edges:
        partner[e] = partner[m._twin[e]] = 0  # marks the subgraph's darts
    for v, darts in enumerate(m._vertex_darts):
        incident = [d for d in darts if partner[d] == 0]
        if not incident:
            continue
        if len(incident) % 2:
            raise ParityViolation(v)
        # vertex_darts already starts at the least dart of the vertex;
        # rotate to the least *subgraph* dart for a deterministic anchor
        k = incident.index(min(incident))
        incident = incident[k:] + incident[:k]
        for i in range(0, len(incident), 2):
            a, b = incident[i], incident[i + 1]
            partner[a] = b
            partner[b] = a
    return partner


def trail_decompose(sub: EvenSubgraph, m: RotationMap) -> list[ClosedTrail]:
    """Partition the subgraph's edges into non-crossing closed trails."""
    partner = _noncrossing_pairing(m, sub.edges)
    twin = m._twin
    used = [False] * len(twin)  # by edge id
    trails: list[ClosedTrail] = []
    for e in sorted(sub.edges):
        if used[e]:
            continue
        walk: list[int] = []
        d = e  # traverse edge e starting from its lower dart
        while True:
            t = twin[d]
            eid = d if d < t else t
            if used[eid]:
                raise DsccError(f"edge {eid} revisited during trail walk")
            walk.append(d)
            used[eid] = True
            d = partner[t]   # leave by the pairing at the head vertex
            if d == e:
                break
        trails.append(ClosedTrail(tuple(walk)))
    return trails


def decompose(m: RotationMap, ec: EdgeColoring) -> DsccDecomposition:
    """Split and decompose in one step, flagging same-color trail touches."""
    _check_edge_domain(m, ec)
    blue, yellow = split_subgraphs(m, to_bits(m, ec))
    bt = trail_decompose(blue, m)
    yt = trail_decompose(yellow, m)
    shared: set[int] = set()
    for trails in (bt, yt):
        seen: dict[int, int] = {}
        for i, t in enumerate(trails):
            for v in {m._origin[d] for d in t.darts}:
                if v in seen and seen[v] != i:
                    shared.add(v)
                seen[v] = i
    return DsccDecomposition(tuple(bt), tuple(yt), frozenset(shared))


def dscc_to_face4(m: RotationMap, blue: EvenSubgraph,
                  yellow: EvenSubgraph) -> FaceColoring:
    """Face colors by crossing parity against the two even subgraphs.

    Walking the dual from the outer face (00), crossing a blue-only edge
    flips the first bit, a yellow-only edge the second, a shared edge
    both.  Path independence is checked, not assumed.
    """
    check_even(m, blue.edges)
    check_even(m, yellow.edges)
    deltas: dict[int, int] = {}  # Klein bits by edge id
    for e in m.edges():
        b = e in blue.edges
        y = e in yellow.edges
        if not b and not y:
            raise CoverageGap(f"edge {e} lies in neither subgraph")
        deltas[e] = (0b10 if b else 0) | (0b01 if y else 0)
    return _dual_xor_walk(m, deltas)


# ---------------------------------------------------------------------------
# decomposition dump
# ---------------------------------------------------------------------------

def serialize_decomposition(m: RotationMap, dec: DsccDecomposition) -> str:
    """Dump trails as 1-based vertex sequences, one line per trail."""
    lines = []
    for tag, trails in (("blue", dec.blue_trails), ("yellow", dec.yellow_trails)):
        for t in trails:
            verts = " ".join(str(v + 1) for v in t.vertices(m))
            lines.append(f"{tag} trail: {verts}")
    return "\n".join(lines) + "\n"
