"""Face four-colorings, Tait edge colorings, and the conversions between them.

Face colors live in the Klein four-group {00, 01, 10, 11} under bitwise
xor; edge colors are Blue, Yellow, Green.  The two views are linked by the
difference rule: an edge takes the xor of the colors on its sides, with
10 -> Blue, 01 -> Yellow, 11 -> Green.  The outer face of a map is face 0
(the face containing dart 0) and normalized colorings pin it to 00.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence, Union

from .planar_map import MapError, NotCubic, RotationMap


class ColoringError(MapError):
    """Base class for coloring failures."""


class ImproperColoring(ColoringError):
    """Two adjacent faces share a color where distinctness was required."""


class ImproperEdgeColoring(ColoringError):
    """Two same-colored edges meet at a vertex."""


class Inconsistent(ColoringError):
    """Two dual paths disagree while propagating face colors."""


class DomainMismatch(ColoringError):
    """A coloring is indexed by faces or edges the map does not have."""


class KleinColor(enum.Enum):
    """The four face colors; their values form the Klein group under xor
    of the two bits, with 00 the identity."""

    C00 = 0b00
    C01 = 0b01
    C10 = 0b10
    C11 = 0b11

    # members are singletons compared by identity, so identity hashing is
    # consistent and skips Enum's Python-level __hash__
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return format(self.value, "02b")

    @classmethod
    def parse(cls, text: str) -> "KleinColor":
        try:
            return cls(int(text, 2)) if text in ("00", "01", "10", "11") else cls[text]
        except (ValueError, KeyError):
            raise ColoringError(f"not a Klein color: {text!r}") from None


KLEIN_ORDER = (KleinColor.C00, KleinColor.C01, KleinColor.C10, KleinColor.C11)


class EdgeColor(enum.Enum):
    BLUE = "B"
    YELLOW = "Y"
    GREEN = "G"

    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value

    @classmethod
    def parse(cls, text: str) -> "EdgeColor":
        for c in cls:
            if text in (c.value, c.name, c.name.lower()):
                return c
        raise ColoringError(f"not an edge color: {text!r}")


# the difference rule on Klein bits: an edge color's bits, a nonzero xor's color
_EDGE_TO_BITS = {EdgeColor.BLUE: 0b10, EdgeColor.YELLOW: 0b01, EdgeColor.GREEN: 0b11}
_BITS_TO_EDGE = (None, EdgeColor.YELLOW, EdgeColor.BLUE, EdgeColor.GREEN)

EDGE_ORDER = (EdgeColor.BLUE, EdgeColor.YELLOW, EdgeColor.GREEN)


@dataclass(frozen=True)
class FaceColoring:
    assignment: dict[int, KleinColor]

    def __getitem__(self, face: int) -> KleinColor:
        return self.assignment[face]


@dataclass(frozen=True)
class EdgeColoring:
    assignment: dict[int, EdgeColor]

    def __getitem__(self, edge: int) -> EdgeColor:
        return self.assignment[edge]


@dataclass(frozen=True)
class Violation:
    """One properness failure, naming the offending edge or vertex."""

    kind: str
    edge: Optional[int] = None
    vertex: Optional[int] = None
    detail: str = ""


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

def _backjump(order: Sequence[int], tops: Sequence[int],
              clash: Callable[[int, int], int],
              propagate: Callable[[int, list[int]], int],
              col: list[int], why: list[int]) -> bool:
    """Least solution of a colouring problem, found in place; False if none.

    Variables are decided in ``order``, each with the colour bits 1, 2, 4,
    ... up to ``tops[x]``; ``col[x]`` is 0 while x is unset.  The search
    keeps an explicit stack of decisions and prunes by forward checking
    with conflict-directed backjumping (Prosser 1993).  ``propagate(x,
    forced)`` runs once x is set: it forces each variable left with one
    free colour, appending it to ``forced``, and returns the blame of one
    left with none, or 0.  ``why[x]`` is a bitmask of the decision levels
    that imply x's colour: a decision its own level, a forced variable
    those of the variables that forced it.  ``clash(x, c)`` returns the
    blame of the set variables that forbid colour c at x, or 0.  When all
    colours of a decision fail, the search jumps back to the highest
    blamed level and passes on the rest of the blame.

    Neither cuts off a subtree that holds a solution: a forced variable
    takes the one colour any completion gives it, and a jump skips levels
    none of whose other colours can avoid the blamed failure.  So the
    first solution reached is the lexicographically least, as in plain
    chronological backtracking.  A variable with one allowed colour is a
    decision whose top is that colour, never a preset value, so that the
    levels it implies are blamed.
    """
    n = len(order)
    # (order index, colour, forced variables, conflict set) per decision level
    decisions: list[tuple[int, int, list[int], int]] = []
    i, c, conflicts = 0, 1, 0
    while True:
        if c == 1:  # a new decision: skip the variables propagation has set
            while i < n and col[order[i]]:
                i += 1
            if i == n:
                return True
        x = order[i]
        top = tops[x]
        level = 1 << len(decisions)
        while c <= top:
            blame = clash(x, c)
            if not blame:
                col[x], why[x] = c, level
                forced: list[int] = []
                blame = propagate(x, forced)
                if not blame:
                    break
                for f in forced:
                    col[f] = why[f] = 0
                col[x] = why[x] = 0
            conflicts |= blame & ~level
            c <<= 1
        if c <= top:
            decisions.append((i, c, forced, conflicts))
            i, c, conflicts = i + 1, 1, 0
            continue
        if not conflicts:
            return False
        target = conflicts.bit_length() - 1  # the highest blamed level
        while True:
            i, c, forced, earlier = decisions.pop()
            for f in forced:
                col[f] = why[f] = 0
            col[order[i]] = why[order[i]] = 0
            if len(decisions) == target:
                break
        conflicts = earlier | (conflicts & ~(1 << target))
        c <<= 1


def find_face_4coloring(m: RotationMap) -> Optional[FaceColoring]:
    """Lexicographically least proper four-coloring in face order.

    Face 0 is pinned to 00; the other faces are tried in id order with the
    colors 00 < 01 < 10 < 11, held as the bits 1, 2, 4, 8 by ``_backjump``.
    Setting a face forward-checks its unset neighbors.  Returns None when
    no proper coloring exists (a face adjacent to itself, for instance).
    """
    nf = m.face_count
    face_of, twin = m._face_of, m._twin
    nbrs = [[face_of[twin[d]] for d in face.darts] for face in m.faces]
    if any(f in nbrs[f] for f in range(nf)):
        return None  # face adjacent to itself; no proper coloring
    col = [0] * nf  # by face id; 0 while unset
    why = [0] * nf  # by face id; the levels implying col, 0 while unset

    def clash(f: int, c: int) -> int:
        blame = 0
        for g in nbrs[f]:
            if col[g] == c:
                blame |= why[g]
        return blame

    def propagate(f: int, forced: list[int]) -> int:
        """Forward-check from f; 0, or the blame of a wiped-out face."""
        stack = [f]
        while stack:
            for g in nbrs[stack.pop()]:
                if col[g]:
                    continue
                used = blame = 0
                for h in nbrs[g]:
                    used |= col[h]
                    blame |= why[h]
                free = 15 & ~used
                if free & (free - 1):
                    continue  # two colors left
                if not free:
                    return blame
                col[g], why[g] = free, blame
                forced.append(g)
                stack.append(g)
        return 0

    if not _backjump(range(nf), [1] + [8] * (nf - 1), clash, propagate, col, why):
        return None
    return FaceColoring({f: KLEIN_ORDER[c.bit_length() - 1] for f, c in enumerate(col)})


# Edge colors as bits in EDGE_ORDER, the form of the Tait search and the
# reduction: a flat list by dart id, each edge's color at its edge id, 0 if
# unset.  A pair is the | of its bits: c & pair tests membership, c ^ pair
# swaps the two colors, and 7 ^ a ^ b is the third color next to a and b.
BIT = {EdgeColor.BLUE: 1, EdgeColor.YELLOW: 2, EdgeColor.GREEN: 4}
LETTER = {1: "B", 2: "Y", 4: "G"}
_BIT_TO_EDGE = (None, EdgeColor.BLUE, EdgeColor.YELLOW, None, EdgeColor.GREEN)


def to_bits(m: RotationMap, ec: EdgeColoring) -> list[int]:
    """The flat bit form of an edge coloring of m."""
    bits = [0] * m.dart_count
    for e, c in ec.assignment.items():
        bits[e] = BIT[c]
    return bits


def from_bits(m: RotationMap, bits: Sequence[int]) -> EdgeColoring:
    """The EdgeColoring of a flat bit form, keyed in edge order."""
    return EdgeColoring({e: _BIT_TO_EDGE[bits[e]] for e in m.edges()})


def find_tait_coloring(m: RotationMap) -> Optional[EdgeColoring]:
    """Lexicographically least proper 3-edge-coloring in edge order.

    Colors are tried Blue < Yellow < Green per edge by ``_backjump``.
    Setting an edge forward-checks every unset edge at either of its
    endpoints against the colors used at both ends of that edge.

    Callers meter search work in calls of ``m.edge_endpoints``, so every
    endpoint read of the search goes through it, never through a cache:
    one call per color check of a decision edge, per propagated edge and
    per forward-checked neighbor edge.
    """
    if any(m.degree(v) != 3 for v in range(m.vertex_count)):
        raise NotCubic("Tait coloring needs a cubic map")
    endpoints = m.edge_endpoints
    vert_edges = [tuple(m.edge_id(d) for d in m.vertex_darts(v))
                  for v in range(m.vertex_count)]
    if any(len(set(es)) < 3 for es in vert_edges):
        return None  # a loop meets its vertex twice in one color
    col = [0] * m.dart_count   # by edge id; 0 while unset
    why = [0] * m.dart_count   # by edge id; the levels implying col, 0 while unset

    def clash(e: int, c: int) -> int:
        u, v = endpoints(e)
        blame = 0
        for x in vert_edges[u] + vert_edges[v]:
            if col[x] == c:
                blame |= why[x]
        return blame

    def propagate(e: int, forced: list[int]) -> int:
        """Forward-check from e; 0, or the blame of a wiped-out edge."""
        stack = [e]
        while stack:
            for w in endpoints(stack.pop()):
                for f in vert_edges[w]:
                    if col[f]:
                        continue
                    a, b = endpoints(f)
                    p, q, r = vert_edges[a]
                    s, t, x = vert_edges[b]
                    free = 7 ^ (col[p] | col[q] | col[r] | col[s] | col[t] | col[x])
                    if free & (free - 1):
                        continue  # two colors left
                    blame = why[p] | why[q] | why[r] | why[s] | why[t] | why[x]
                    if not free:
                        return blame
                    col[f], why[f] = free, blame
                    forced.append(f)
                    stack.append(f)
        return 0

    edges = m.edges()
    if not _backjump(edges, [4] * m.dart_count, clash, propagate, col, why):
        return None
    return from_bits(m, col)


# ---------------------------------------------------------------------------
# conversions
# ---------------------------------------------------------------------------

def face4_to_edge3(m: RotationMap, fc: FaceColoring) -> EdgeColoring:
    """Color each edge by the xor of its two side colors."""
    _check_face_domain(m, fc)
    face_of, twin = m._face_of, m._twin
    bits = [fc.assignment[f].value for f in range(m.face_count)]
    assignment: dict[int, EdgeColor] = {}
    for e in m.edges():
        f1, f2 = face_of[e], face_of[twin[e]]
        delta = bits[f1] ^ bits[f2]
        if not delta:
            raise ImproperColoring(f"faces {f1} and {f2} share color at edge {e}")
        assignment[e] = _BITS_TO_EDGE[delta]
    return EdgeColoring(assignment)


def edge3_to_face4(m: RotationMap, ec: EdgeColoring) -> FaceColoring:
    """Recover the face coloring by xor-accumulating edge colors dual-wise.

    The outer face (face 0) gets 00 and colors spread across edges; any
    disagreement between two dual paths reports the coloring improper.
    """
    if any(m.degree(v) != 3 for v in range(m.vertex_count)):
        raise NotCubic("edge3_to_face4 needs a cubic map")
    _check_edge_domain(m, ec)
    for violation in _edge_violations(m, ec):
        raise ImproperEdgeColoring(violation.detail)
    return _dual_xor_walk(m, {e: _EDGE_TO_BITS[c] for e, c in ec.assignment.items()})


def _dual_xor_walk(m: RotationMap, delta: Mapping[int, int]) -> FaceColoring:
    """Face colors from per-edge color differences, spread over the dual.

    The outer face (face 0) gets 00 and crossing edge e xors in the Klein
    bits delta[e]; path independence is checked, not assumed.
    """
    nf = m.face_count
    face_of, twin = m._face_of, m._twin
    adj: list[list[tuple[int, int]]] = [[] for _ in range(nf)]  # (neighbor, edge)
    for e in m.edges():
        f1, f2 = face_of[e], face_of[twin[e]]
        adj[f1].append((f2, e))
        adj[f2].append((f1, e))
    colors = [0] + [-1] * (nf - 1)  # Klein bits by face id; -1 while unreached
    stack = [0]
    while stack:
        f = stack.pop()
        cf = colors[f]
        for g, e in adj[f]:
            want = cf ^ delta[e]
            if colors[g] < 0:
                colors[g] = want
                stack.append(g)
            elif colors[g] != want:
                raise Inconsistent(f"dual paths disagree at face {g}")
    if -1 in colors:
        raise Inconsistent("dual graph is disconnected")
    return FaceColoring({f: KLEIN_ORDER[c] for f, c in enumerate(colors)})


def verify_coloring(m: RotationMap,
                    c: Union[FaceColoring, EdgeColoring]) -> list[Violation]:
    """Empty list iff the coloring is proper on the map."""
    if isinstance(c, FaceColoring):
        _check_face_domain(m, c)
        out = []
        for e in m.edges():
            f1, f2 = m.face_of(e), m.face_of(m.twin(e))
            if c[f1] == c[f2]:
                out.append(Violation("adjacent-faces-equal", edge=e,
                                     detail=f"faces {f1},{f2} both {c[f1]} at edge {e}"))
        return out
    if isinstance(c, EdgeColoring):
        _check_edge_domain(m, c)
        return _edge_violations(m, c)
    raise DomainMismatch(f"not a coloring: {c!r}")


def _edge_violations(m: RotationMap, ec: EdgeColoring) -> list[Violation]:
    out = []
    twin, colors = m._twin, ec.assignment
    for v, darts in enumerate(m._vertex_darts):
        seen: dict[EdgeColor, int] = {}
        for d in darts:
            t = twin[d]
            e = d if d < t else t
            col = colors[e]
            if col in seen and seen[col] != e:
                out.append(Violation("vertex-color-clash", vertex=v,
                                     detail=f"vertex {v} sees {col} twice"))
                break
            seen[col] = e
    return out


def _check_face_domain(m: RotationMap, fc: FaceColoring) -> None:
    if set(fc.assignment) != set(range(m.face_count)):
        raise DomainMismatch("face coloring does not match the map's faces")


def _check_edge_domain(m: RotationMap, ec: EdgeColoring) -> None:
    if set(ec.assignment) != set(m.edges()):
        raise DomainMismatch("edge coloring does not match the map's edges")


# ---------------------------------------------------------------------------
# coloring files
# ---------------------------------------------------------------------------

def parse_coloring(m: RotationMap, text: str) -> Union[FaceColoring, EdgeColoring]:
    """Read a coloring file; it holds either face lines or edge lines.

    Face lines read ``face <id>: <00|01|10|11>`` (ids 0-based); edge lines
    read ``edge <u>-<v>: <B|Y|G>`` with 1-based vertices.  Parallel edges
    take successive lines for the same pair, in increasing edge order.  A
    face listed twice is an error.
    """
    faces: dict[int, KleinColor] = {}
    edges: dict[int, EdgeColor] = {}
    pair_counts: dict[tuple[int, int], int] = {}
    pair_edges: dict[tuple[int, int], list[int]] = {}  # in increasing edge order
    for e in m.edges():
        u, v = m.edge_endpoints(e)
        pair_edges.setdefault((min(u, v), max(u, v)), []).append(e)
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, value = line.partition(":")
        kind, _, key = head.strip().partition(" ")
        value = value.strip()
        if kind == "face":
            face = _parse_int(key, raw)
            if face in faces:
                raise ColoringError(f"face {face} listed twice")
            faces[face] = KleinColor.parse(value)
        elif kind == "edge":
            u_s, _, v_s = key.strip().partition("-")
            u, v = _parse_int(u_s, raw) - 1, _parse_int(v_s, raw) - 1
            pair = (min(u, v), max(u, v))
            k = pair_counts.get(pair, 0)
            pair_counts[pair] = k + 1
            cands = pair_edges.get(pair, [])
            if k >= len(cands):
                raise DomainMismatch(f"no edge {u + 1}-{v + 1} (occurrence {k + 1})")
            edges[cands[k]] = EdgeColor.parse(value)
        else:
            raise ColoringError(f"unrecognized coloring line: {raw!r}")
    if faces and edges:
        raise ColoringError("a coloring file holds faces or edges, not both")
    if faces:
        return FaceColoring(faces)
    return EdgeColoring(edges)


def _parse_int(text: str, line: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ColoringError(f"bad integer in coloring line: {line!r}") from None


def serialize_coloring(m: RotationMap,
                       c: Union[FaceColoring, EdgeColoring]) -> str:
    if isinstance(c, FaceColoring):
        lines = [f"face {f}: {c[f]}" for f in sorted(c.assignment)]
    else:
        origin, twin, colors = m._origin, m._twin, c.assignment
        lines = []
        for e in sorted(colors):
            u, v = origin[e], origin[twin[e]]
            if u > v:
                u, v = v, u
            lines.append(f"edge {u + 1}-{v + 1}: {colors[e].value}")
    return "\n".join(lines) + "\n"
