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
from typing import Optional, Union

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
    """The four face colors, combined by componentwise xor; 00 is identity."""

    C00 = 0b00
    C01 = 0b01
    C10 = 0b10
    C11 = 0b11

    def __xor__(self, other: "KleinColor") -> "KleinColor":
        return KleinColor(self.value ^ other.value)

    @property
    def bits(self) -> tuple[bool, bool]:
        return bool(self.value & 0b10), bool(self.value & 0b01)

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

    @property
    def klein(self) -> KleinColor:
        return _EDGE_TO_KLEIN[self]

    def __str__(self) -> str:
        return self.value

    @classmethod
    def parse(cls, text: str) -> "EdgeColor":
        for c in cls:
            if text in (c.value, c.name, c.name.lower()):
                return c
        raise ColoringError(f"not an edge color: {text!r}")


_EDGE_TO_KLEIN = {
    EdgeColor.BLUE: KleinColor.C10,
    EdgeColor.YELLOW: KleinColor.C01,
    EdgeColor.GREEN: KleinColor.C11,
}
_KLEIN_TO_EDGE = {v: k for k, v in _EDGE_TO_KLEIN.items()}

EDGE_ORDER = (EdgeColor.BLUE, EdgeColor.YELLOW, EdgeColor.GREEN)


@dataclass(frozen=True)
class FaceColoring:
    assignment: dict[int, KleinColor]
    outer_face: int = 0

    def __getitem__(self, face: int) -> KleinColor:
        return self.assignment[face]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FaceColoring)
                and self.assignment == other.assignment
                and self.outer_face == other.outer_face)


@dataclass(frozen=True)
class EdgeColoring:
    assignment: dict[int, EdgeColor]

    def __getitem__(self, edge: int) -> EdgeColor:
        return self.assignment[edge]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EdgeColoring) and self.assignment == other.assignment


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

def _face_adjacency(m: RotationMap) -> list[list[tuple[int, int]]]:
    """Per face: (neighbor face, shared edge) for every boundary edge."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(m.face_count)]
    for e in m.edges():
        f1, f2 = m.face_of(e), m.face_of(m.twin(e))
        adj[f1].append((f2, e))
        adj[f2].append((f1, e))
    return adj


def find_face_4coloring(m: RotationMap) -> Optional[FaceColoring]:
    """Lexicographically least proper four-coloring in face order.

    Face 0 is pinned to 00; the remaining faces are tried in id order with
    colors in the order 00, 01, 10, 11.  Returns None when no proper
    coloring exists (a face adjacent to itself across a bridge, for
    instance).
    """
    nf = m.face_count
    adj = _face_adjacency(m)
    for f in range(nf):
        if any(g == f for g, _ in adj[f]):
            return None  # face adjacent to itself; no proper coloring
    colors: list[Optional[KleinColor]] = [None] * nf
    order = list(range(nf))

    def assign(i: int) -> bool:
        if i == nf:
            return True
        f = order[i]
        choices = (KleinColor.C00,) if f == 0 else KLEIN_ORDER
        for c in choices:
            if all(colors[g] != c for g, _ in adj[f]):
                colors[f] = c
                if assign(i + 1):
                    return True
                colors[f] = None
        return False

    if not assign(0):
        return None
    return FaceColoring({f: colors[f] for f in range(nf)}, outer_face=0)


def find_tait_coloring(m: RotationMap) -> Optional[EdgeColoring]:
    """Lexicographically least proper 3-edge-coloring in edge order.

    Colors are tried Blue < Yellow < Green per edge; a vertex whose third
    edge is forced gets it propagated immediately, which never changes the
    first solution found.  Returns None when no Tait coloring exists.
    """
    if any(m.degree(v) != 3 for v in range(m.vertex_count)):
        raise NotCubic("Tait coloring needs a cubic map")
    edges = list(m.edges())
    eindex = {e: i for i, e in enumerate(edges)}
    vert_edges = [[m.edge_id(d) for d in m.vertex_darts(v)]
                  for v in range(m.vertex_count)]
    color: dict[int, EdgeColor] = {}

    def ok(e: int, c: EdgeColor) -> bool:
        u, v = m.edge_endpoints(e)
        for w in (u, v):
            for e2 in vert_edges[w]:
                if e2 != e and color.get(e2) == c:
                    return False
        return True

    def assign(i: int) -> bool:
        while i < len(edges) and edges[i] in color:
            i += 1
        if i == len(edges):
            return True
        e = edges[i]
        for c in EDGE_ORDER:
            if not ok(e, c):
                continue
            color[e] = c
            forced: list[int] = []
            if _propagate(e, forced):
                if assign(i + 1):
                    return True
            for f in forced:
                del color[f]
            del color[e]
        return False

    def _propagate(e: int, forced: list[int]) -> bool:
        stack = [e]
        while stack:
            cur = stack.pop()
            for w in m.edge_endpoints(cur):
                es = vert_edges[w]
                unset = [x for x in es if x not in color]
                if len(unset) == 1:
                    used = {color[x] for x in es if x in color}
                    free = [c for c in EDGE_ORDER if c not in used]
                    if len(used) != 2 or not free:
                        return False
                    tgt = unset[0]
                    if not ok(tgt, free[0]):
                        return False
                    color[tgt] = free[0]
                    forced.append(tgt)
                    stack.append(tgt)
        return True

    if not assign(0):
        return None
    return EdgeColoring(dict(sorted(color.items())))


# ---------------------------------------------------------------------------
# conversions
# ---------------------------------------------------------------------------

def face4_to_edge3(m: RotationMap, fc: FaceColoring) -> EdgeColoring:
    """Color each edge by the xor of its two side colors."""
    _check_face_domain(m, fc)
    assignment: dict[int, EdgeColor] = {}
    for e in m.edges():
        c1 = fc[m.face_of(e)]
        c2 = fc[m.face_of(m.twin(e))]
        delta = c1 ^ c2
        if delta == KleinColor.C00:
            raise ImproperColoring(
                f"faces {m.face_of(e)} and {m.face_of(m.twin(e))} share color at edge {e}")
        assignment[e] = _KLEIN_TO_EDGE[delta]
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
    return _dual_xor_walk(m, {e: c.klein for e, c in ec.assignment.items()})


def _dual_xor_walk(m: RotationMap, delta: dict[int, KleinColor]) -> FaceColoring:
    """Face colors from per-edge color differences, spread over the dual.

    The outer face (face 0) gets 00 and crossing edge e xors in delta[e];
    path independence is checked, not assumed.
    """
    colors: dict[int, KleinColor] = {0: KleinColor.C00}
    stack = [0]
    adj = _face_adjacency(m)
    while stack:
        f = stack.pop()
        for g, e in adj[f]:
            want = colors[f] ^ delta[e]
            if g in colors:
                if colors[g] != want:
                    raise Inconsistent(f"dual paths disagree at face {g}")
            else:
                colors[g] = want
                stack.append(g)
    if len(colors) != m.face_count:
        raise Inconsistent("dual graph is disconnected")
    return FaceColoring(dict(sorted(colors.items())), outer_face=0)


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
    for v in range(m.vertex_count):
        seen: dict[EdgeColor, int] = {}
        for d in m.vertex_darts(v):
            e = m.edge_id(d)
            col = ec[e]
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
    take successive lines for the same pair, in increasing edge order.
    """
    faces: dict[int, KleinColor] = {}
    edges: dict[int, EdgeColor] = {}
    pair_counts: dict[tuple[int, int], int] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, value = line.partition(":")
        kind, _, key = head.strip().partition(" ")
        value = value.strip()
        if kind == "face":
            faces[_parse_int(key, raw)] = KleinColor.parse(value)
        elif kind == "edge":
            u_s, _, v_s = key.strip().partition("-")
            u, v = _parse_int(u_s, raw) - 1, _parse_int(v_s, raw) - 1
            pair = (min(u, v), max(u, v))
            k = pair_counts.get(pair, 0)
            pair_counts[pair] = k + 1
            cands = sorted(e for e in m.edges()
                           if tuple(sorted(m.edge_endpoints(e))) == pair)
            if k >= len(cands):
                raise DomainMismatch(f"no edge {u + 1}-{v + 1} (occurrence {k + 1})")
            edges[cands[k]] = EdgeColor.parse(value)
        else:
            raise ColoringError(f"unrecognized coloring line: {raw!r}")
    if faces and edges:
        raise ColoringError("a coloring file holds faces or edges, not both")
    if faces:
        return FaceColoring(faces, outer_face=0)
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
        lines = []
        for e in sorted(c.assignment):
            u, v = m.edge_endpoints(e)
            lines.append(f"edge {min(u, v) + 1}-{max(u, v) + 1}: {c[e]}")
    return "\n".join(lines) + "\n"
