"""Combinatorial planar maps as rotation systems.

A map is stored dart-wise: every edge contributes two darts (half-edges),
``twin`` swaps the two darts of an edge, ``origin`` gives a dart's start
vertex, and ``next_at_vertex`` walks the darts around their origin in
clockwise order.  Faces are the orbits of ``d -> next(twin(d))`` and are
derived eagerly; with that convention a bounded face is walked with its
interior on the left.

Maps are immutable.  The two structural surgeries (edge deletion with
vertex suppression, face contraction) return a new map together with the
correspondence between parent and child edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence


class MapError(Exception):
    """Base class for structural errors on planar maps."""


class MalformedInput(MapError):
    """Map text does not conform to the map-file grammar."""


class NonReciprocal(MapError):
    """Vertex u lists v as a neighbor but v does not list u back."""


class DuplicateNeighbor(MapError):
    """Repeated neighbor in a rotation while parallel edges are disallowed."""


class BridgeDeletion(MapError):
    """Deleting the edge would disconnect the map."""


class NotCubic(MapError):
    """Operation requires a 3-regular map."""


class NonSimpleBoundary(MapError):
    """Face boundary repeats a vertex or edge, so it cannot be contracted."""


class UnknownFace(MapError):
    """Face id out of range."""


class DegenerateSurgery(MapError):
    """Surgery would leave a component without vertices."""


@dataclass(frozen=True)
class Face:
    """A face boundary walk, as the cyclic dart sequence of its orbit."""

    id: int
    darts: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.darts)


@dataclass(frozen=True)
class ValidationReport:
    connected: bool
    simple: bool
    planar: bool
    cubic: bool
    bridgeless: bool
    min_degree: int

    @property
    def all_ok(self) -> bool:
        return (self.connected and self.simple and self.planar
                and self.cubic and self.bridgeless)


@dataclass(frozen=True)
class ContractionRecord:
    """What contract_face did, for restoring the face later.

    ``boundary_vertices`` and ``boundary_darts`` follow the face walk in
    ``parent``.  ``edge_map`` sends child edge ids back to the parent edges
    they came from.
    """

    parent: "RotationMap"
    hub: int
    boundary_vertices: tuple[int, ...]
    boundary_darts: tuple[int, ...]
    edge_map: dict[int, int]


class RotationMap:
    """A planar map given by its rotation system.

    Construction validates the dart structure (twin is a fixed-point-free
    involution, the rotation is a single cycle per vertex) and derives
    faces.  Numbering is canonical: faces are ordered by their smallest
    dart id and each boundary walk starts at that dart.
    """

    __slots__ = ("_twin", "_origin", "_next", "_vertex_count", "_faces",
                 "_face_of", "_vertex_darts", "_edges")

    def __init__(self, twin: Sequence[int], origin: Sequence[int],
                 next_at_vertex: Sequence[int], vertex_count: int):
        n_darts = len(twin)
        if len(origin) != n_darts or len(next_at_vertex) != n_darts:
            raise MalformedInput("dart arrays disagree in length")
        if n_darts % 2:
            raise MalformedInput("odd number of darts")
        self._twin = tuple(twin)
        self._origin = tuple(origin)
        self._next = tuple(next_at_vertex)
        self._vertex_count = vertex_count
        self._check_structure()
        self._vertex_darts = self._collect_vertex_darts()
        self._faces, self._face_of = self._derive_faces()
        self._edges: Optional[tuple[int, ...]] = None

    # -- basic accessors ---------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return self._vertex_count

    @property
    def dart_count(self) -> int:
        return len(self._twin)

    @property
    def edge_count(self) -> int:
        return len(self._twin) // 2

    @property
    def face_count(self) -> int:
        return len(self._faces)

    @property
    def faces(self) -> tuple[Face, ...]:
        return self._faces

    def twin(self, d: int) -> int:
        return self._twin[d]

    def origin(self, d: int) -> int:
        return self._origin[d]

    def head(self, d: int) -> int:
        return self._origin[self._twin[d]]

    def next(self, d: int) -> int:
        return self._next[d]

    def vertex_darts(self, v: int) -> tuple[int, ...]:
        """Darts leaving v, in clockwise rotation order from the least."""
        return self._vertex_darts[v]

    def degree(self, v: int) -> int:
        return len(self._vertex_darts[v])

    def face_of(self, d: int) -> int:
        return self._face_of[d]

    # -- edges -------------------------------------------------------------

    def edge_id(self, d: int) -> int:
        """Canonical edge id: the smaller dart of the pair."""
        t = self._twin[d]
        return d if d < t else t

    def edges(self) -> tuple[int, ...]:
        """Edge ids in increasing order, computed on first use."""
        if self._edges is None:
            twin = self._twin
            self._edges = tuple(d for d in range(len(twin)) if d < twin[d])
        return self._edges

    def edge_endpoints(self, e: int) -> tuple[int, int]:
        return self._origin[e], self._origin[self._twin[e]]

    def find_edge(self, u: int, v: int) -> int:
        """Least edge id joining u and v."""
        best = None
        for d in self._vertex_darts[u]:
            if self.head(d) == v:
                e = self.edge_id(d)
                if best is None or e < best:
                    best = e
        if best is None:
            raise MapError(f"no edge between {u} and {v}")
        return best

    def mirrored(self) -> "RotationMap":
        """The reflected map: every vertex rotation reversed."""
        n = self.dart_count
        prev = [0] * n
        for d in range(n):
            prev[self._next[d]] = d
        return RotationMap(self._twin, self._origin, prev, self._vertex_count)

    # -- structure checks and face derivation --------------------------------

    def _check_structure(self) -> None:
        twin, nxt, origin = self._twin, self._next, self._origin
        n, nv = len(twin), self._vertex_count
        seen_next = [False] * n
        for d in range(n):
            t = twin[d]
            if t == d or not 0 <= t < n or twin[t] != d:
                raise MalformedInput(f"twin is not a fixed-point-free involution at dart {d}")
            nx = nxt[d]
            if not 0 <= nx < n or origin[nx] != origin[d]:
                raise MalformedInput(f"rotation leaves vertex at dart {d}")
            if not 0 <= origin[d] < nv:
                raise MalformedInput(f"dart {d} has origin out of range")
            if seen_next[nx]:
                raise MalformedInput("rotation is not a permutation")
            seen_next[nx] = True

    def _collect_vertex_darts(self) -> tuple[tuple[int, ...], ...]:
        nxt = self._next
        first: list[Optional[int]] = [None] * self._vertex_count
        for d, v in enumerate(self._origin):
            if first[v] is None:
                first[v] = d
        out: list[tuple[int, ...]] = []
        covered = 0
        for d0 in first:
            if d0 is None:
                out.append(())
                continue
            darts = [d0]
            cur = nxt[d0]
            while cur != d0:
                darts.append(cur)
                cur = nxt[cur]
            covered += len(darts)
            out.append(tuple(darts))
        if covered != self.dart_count:
            raise MalformedInput("rotation at some vertex splits into several cycles")
        return tuple(out)

    def _derive_faces(self) -> tuple[tuple[Face, ...], tuple[int, ...]]:
        twin, nxt = self._twin, self._next
        face_of = [-1] * len(twin)
        walks: list[tuple[int, ...]] = []
        for d0 in range(len(twin)):
            if face_of[d0] >= 0:
                continue
            walk = []
            f = len(walks)
            cur = d0
            while face_of[cur] < 0:
                face_of[cur] = f
                walk.append(cur)
                cur = nxt[twin[cur]]
            walks.append(tuple(walk))
        faces = tuple(Face(i, w) for i, w in enumerate(walks))
        return faces, tuple(face_of)

    def __repr__(self) -> str:
        return (f"RotationMap(V={self._vertex_count}, E={self.edge_count}, "
                f"F={self.face_count})")


# ---------------------------------------------------------------------------
# construction from neighbor lists and the map-file format
# ---------------------------------------------------------------------------

def from_neighbor_lists(lists: Sequence[Sequence[int]],
                        allow_parallel: bool = False) -> RotationMap:
    """Build a map from 0-based clockwise neighbor lists.

    Parallel edges pair the k-th occurrence of v in u's rotation with the
    (count-1-k)-th occurrence of u in v's rotation, the pairing a plane
    bundle of parallel edges induces: in one pass over the rows, a dart
    toward a later vertex waits on a stack, and each dart back takes the
    last one waiting.  A loop at v appears twice in v's own list and is
    paired the same way within that list.
    """
    n = len(lists)
    for u, row in enumerate(lists):
        for v in row:
            if not 0 <= v < n:
                raise MalformedInput(
                    f"neighbor {v + 1} out of range at vertex {u + 1}")
    if not allow_parallel:
        for u, row in enumerate(lists):
            if len(set(row)) != len(row):
                raise DuplicateNeighbor(f"vertex {u + 1} repeats a neighbor")
            if u in row:
                raise DuplicateNeighbor(f"vertex {u + 1} lists itself")

    origin: list[int] = []
    twin = [-1] * sum(map(len, lists))
    nxt = [-1] * len(twin)
    waiting: dict[tuple[int, int], list[int]] = {}
    for u, row in enumerate(lists):
        k = len(origin)
        origin += [u] * len(row)
        loops = []
        for i, v in enumerate(row):
            d = k + i
            nxt[d] = k + (i + 1) % len(row)
            if v > u:
                waiting.setdefault((u, v), []).append(d)
            elif v < u:
                stack = waiting.get((v, u))
                if not stack:
                    raise NonReciprocal(
                        f"vertices {v + 1} and {u + 1} disagree about their shared edges")
                t = stack.pop()
                twin[d], twin[t] = t, d
            else:
                loops.append(d)
        if len(loops) % 2:
            raise NonReciprocal(f"loop at {u + 1} listed an odd number of times")
        for a, b in zip(loops, reversed(loops)):
            twin[a] = b
    for (u, v), stack in waiting.items():
        if stack:
            raise NonReciprocal(
                f"vertices {u + 1} and {v + 1} disagree about their shared edges")
    return RotationMap(twin, origin, nxt, n)


def parse_map(text: str, allow_parallel: bool = False) -> RotationMap:
    """Parse the line-oriented map-file format.

    First non-comment line is the vertex count n; the following n lines
    read ``i: a b c ...`` listing vertex i's neighbors in clockwise order,
    1-based.  ``#`` starts a comment, blank lines are skipped.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise MalformedInput("empty map file")
    try:
        n = int(lines[0])
    except ValueError:
        raise MalformedInput(f"vertex count expected, got {lines[0]!r}") from None
    if n < 1:
        raise MalformedInput("vertex count must be positive")
    if len(lines) - 1 != n:
        raise MalformedInput(f"expected {n} vertex lines, found {len(lines) - 1}")
    rows: dict[int, list[int]] = {}
    for line in lines[1:]:
        if ":" not in line:
            raise MalformedInput(f"missing ':' in {line!r}")
        head, _, tail = line.partition(":")
        try:
            u = int(head)
            neigh = [int(tok) for tok in tail.split()]
        except ValueError:
            raise MalformedInput(f"bad integer in {line!r}") from None
        if not 1 <= u <= n:
            raise MalformedInput(f"vertex {u} out of range 1..{n}")
        if u in rows:
            raise MalformedInput(f"vertex {u} listed twice")
        rows[u] = neigh
    lists = [[v - 1 for v in rows[u]] for u in range(1, n + 1)]
    return from_neighbor_lists(lists, allow_parallel=allow_parallel)


def serialize_map(m: RotationMap) -> str:
    """Emit the map-file text: vertices ascending, single-space separated."""
    out = [str(m.vertex_count)]
    for v in range(m.vertex_count):
        neigh = " ".join(str(m.head(d) + 1) for d in m.vertex_darts(v))
        out.append(f"{v + 1}: {neigh}" if neigh else f"{v + 1}:")
    return "\n".join(out) + "\n"


def _parse_order(origin: Sequence[int], nxt: Sequence[int],
                 vertex_count: int) -> tuple[list[int], list[int]]:
    """The darts in the order ``parse_map`` numbers a map's text: vertex by
    vertex, each rotation from its least dart; and the number each dart
    gets in that order.  Refuses a rotation whose renumbering would not be
    a permutation of the darts."""
    n = len(origin)
    first = [-1] * vertex_count
    for d in range(n - 1, -1, -1):
        first[origin[d]] = d
    new = [-1] * n
    order: list[int] = []
    for d0 in first:
        d = d0
        while d >= 0 and new[d] < 0:
            new[d] = len(order)
            order.append(d)
            d = nxt[d]
        if d != d0:
            raise MalformedInput("rotation is not a permutation")
    if len(order) != n:
        raise MalformedInput("rotation at some vertex splits into several cycles")
    return order, new


def _renumbered_as_parsed(twin: Sequence[int], origin: Sequence[int],
                          nxt: Sequence[int], vertex_count: int) -> RotationMap:
    """The map of these dart arrays, numbered as ``parse_map`` numbers its
    text (``_parse_order``), with twin and next mapped through that
    permutation; built once.

    Equal to ``parse_map(serialize_map(m))`` only when the map has no
    parallel edges or loops: the parse pairs the darts of parallel edges
    by their position in the text, not by the given twin.
    """
    order, new = _parse_order(origin, nxt, vertex_count)
    return RotationMap([new[twin[d]] for d in order], [origin[d] for d in order],
                       [new[nxt[d]] for d in order], vertex_count)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate(m: RotationMap) -> ValidationReport:
    """The structural flags of m, read off its dart arrays.

    ``connected``: one component; ``simple``: no loop and no parallel
    edge; ``planar``: connected with V − E + F = 2; ``cubic``: every
    vertex of degree 3; ``bridgeless``: connected with no bridge.  A map
    with no vertices has every flag False and ``min_degree`` 0.
    """
    n = m._vertex_count
    if n == 0:
        return ValidationReport(connected=False, simple=False, planar=False,
                                cubic=False, bridgeless=False, min_degree=0)
    origin, twin, rotations = m._origin, m._twin, m._vertex_darts
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        for d in rotations[stack.pop()]:
            w = origin[twin[d]]
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    connected = count == n

    simple = True
    for v, darts in enumerate(rotations):
        heads = {origin[twin[d]] for d in darts}
        if v in heads or len(heads) != len(darts):
            simple = False
            break

    planar = connected and (n - m.edge_count + m.face_count == 2)
    degrees = [len(darts) for darts in rotations]
    cubic = all(dg == 3 for dg in degrees)
    bridgeless = connected and not find_bridges(m)
    return ValidationReport(connected=connected, simple=simple, planar=planar,
                            cubic=cubic, bridgeless=bridgeless,
                            min_degree=min(degrees))


def find_bridges(m: RotationMap) -> list[int]:
    """Bridge edge ids, by an iterative lowpoint search over darts."""
    origin, twin, rotations = m._origin, m._twin, m._vertex_darts
    n = m._vertex_count
    disc = [-1] * n
    low = [0] * n
    bridges: list[int] = []
    timer = 0
    for root in range(n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack: list[tuple[int, int, Iterator[int]]] = [
            (root, -1, iter(rotations[root]))]
        while stack:
            v, in_dart, it = stack[-1]
            back = twin[in_dart] if in_dart >= 0 else -1
            advanced = False
            for d in it:
                if d == back:
                    continue  # skip the arrival dart itself; parallels still count
                w = origin[twin[d]]
                if disc[w] < 0:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, d, iter(rotations[w])))
                    advanced = True
                    break
                low[v] = min(low[v], disc[w])
            if not advanced:
                stack.pop()
                if stack:
                    pv = stack[-1][0]
                    low[pv] = min(low[pv], low[v])
                    if low[v] > disc[pv]:
                        bridges.append(min(in_dart, twin[in_dart]))
    return bridges


# ---------------------------------------------------------------------------
# surgeries
# ---------------------------------------------------------------------------

def _compact(twin: Sequence[int], origin: Sequence[int], nxt: Sequence[int],
             dead: list[bool], vertex_alive: list[bool]
             ) -> tuple[list[int], list[int], list[int], int, list[int], list[int]]:
    """Renumber the live darts and vertices in increasing order; the dart
    and vertex maps hold -1 for what died."""
    live = [d for d in range(len(twin)) if not dead[d]]
    dmap = [-1] * len(twin)
    for i, d in enumerate(live):
        dmap[d] = i
    vmap = [-1] * len(vertex_alive)
    nverts = 0
    for v, alive in enumerate(vertex_alive):
        if alive:
            vmap[v] = nverts
            nverts += 1
    return ([dmap[twin[d]] for d in live], [vmap[origin[d]] for d in live],
            [dmap[nxt[d]] for d in live], nverts, dmap, vmap)


def delete_edge_suppress(m: RotationMap, edge: int
                         ) -> tuple[RotationMap, dict[int, int]]:
    """Delete a non-bridge edge of a cubic map and suppress both endpoints.

    Each endpoint drops to degree 2 and is removed by splicing its two
    remaining edges into one.  The result is cubic again and may contain
    parallel edges.  Returns the child and the edge map, which sends every
    surviving parent edge id to the child edge id that carries it; the
    spliced child edges carry two parent edges each, or one carries three
    when the deleted edge had a parallel partner.
    """
    edge = m.edge_id(edge)
    # an edge between two different faces is never a bridge
    if (m.face_of(edge) == m.face_of(m.twin(edge))
            and edge in find_bridges(m)):
        raise BridgeDeletion(f"edge {m.edge_endpoints(edge)} is a bridge")
    if any(m.degree(v) != 3 for v in range(m.vertex_count)):
        raise NotCubic("delete_edge_suppress requires a cubic map")

    twin = list(m._twin)
    d0, d1 = edge, twin[edge]
    u, v = m._origin[d0], m._origin[d1]
    if u == v:
        raise DegenerateSurgery("cannot delete a loop")
    dead = [False] * len(twin)
    dead[d0] = dead[d1] = True
    vertex_alive = [True] * m.vertex_count
    spliced: dict[int, int] = {}   # parent edge -> an edge spliced onto it
    for w in (u, v):
        p, q = (d for d in m.vertex_darts(w) if not dead[d])
        tp, tq = twin[p], twin[q]
        if tp == q:
            raise DegenerateSurgery("suppression would leave a free loop")
        twin[tp], twin[tq] = tq, tp
        dead[p] = dead[q] = True
        vertex_alive[w] = False
        ep, eq = m.edge_id(p), m.edge_id(q)
        spliced.setdefault(ep, eq)
        spliced.setdefault(eq, ep)

    new_twin, new_origin, new_next, nverts, dmap, _ = _compact(
        twin, m._origin, m._next, dead, vertex_alive)
    # child edge ids are the smaller dart of each pair, as edge_id gives them;
    # a spliced parent edge survives through one of its two darts, and an
    # edge parallel to the deleted one through the edge spliced onto it
    edge_map: dict[int, int] = {}
    for e in m.edges():
        if e != edge:
            k = e if dmap[e] >= 0 or dmap[m.twin(e)] >= 0 else spliced[e]
            d = dmap[k] if dmap[k] >= 0 else dmap[m.twin(k)]
            edge_map[e] = min(d, new_twin[d])
    child = RotationMap(new_twin, new_origin, new_next, nverts)
    assert child.vertex_count == m.vertex_count - 2
    assert child.edge_count == m.edge_count - 3
    assert child.vertex_count - child.edge_count + child.face_count == 2
    return child, edge_map


def contract_face(m: RotationMap, face_id: int
                  ) -> tuple[RotationMap, ContractionRecord]:
    """Contract a face with simple boundary to a single hub vertex.

    The boundary edges vanish, the boundary vertices merge into a hub
    whose rotation is inherited from the walk, and every other vertex
    keeps its rotation.  The hub is the last vertex id of the child map.
    Chords of the face become loops at the hub; parallel edges are
    permitted in the result.  Returns the child and the record of the
    contraction.
    """
    if not 0 <= face_id < m.face_count:
        raise UnknownFace(f"face {face_id} out of range")
    walk = m.faces[face_id].darts
    bverts = tuple(m.origin(d) for d in walk)
    if len(set(bverts)) != len(bverts):
        raise NonSimpleBoundary(f"face {face_id} repeats a vertex")
    if len(set(m.edge_id(d) for d in walk)) != len(walk):
        raise NonSimpleBoundary(f"face {face_id} repeats an edge")

    k = len(walk)
    # outer darts per corner: clockwise arc from the departure dart of the
    # walk to the dart arriving back along the previous walk edge
    outer: list[list[int]] = []
    for i, d in enumerate(walk):
        arrive = m.twin(walk[i - 1])
        cur = m.next(d)
        arc = []
        while cur != arrive:
            arc.append(cur)
            cur = m.next(cur)
        outer.append(arc)

    # the walk runs counterclockwise around the face interior, so clockwise
    # order around the shrunk hub visits the corners in reverse walk order
    hub_rotation: list[int] = []
    for i in range(k):
        hub_rotation.extend(outer[(-i) % k])

    dead = [False] * m.dart_count
    for d in walk:
        dead[d] = dead[m.twin(d)] = True
    origin, nxt = list(m._origin), list(m._next)
    hub_old = m.vertex_count
    for i, d in enumerate(hub_rotation):
        origin[d] = hub_old
        nxt[d] = hub_rotation[(i + 1) % len(hub_rotation)]

    vertex_alive = [True] * (m.vertex_count + 1)
    for bv in bverts:
        vertex_alive[bv] = False
    new_twin, new_origin, new_next, nverts, dmap, vmap = _compact(
        m._twin, origin, nxt, dead, vertex_alive)
    # renumbering keeps dart order, so a live edge's smaller dart stays smaller
    edge_map = {dmap[e]: e for e in m.edges() if dmap[e] >= 0}
    record = ContractionRecord(parent=m, hub=vmap[hub_old],
                               boundary_vertices=bverts,
                               boundary_darts=tuple(walk), edge_map=edge_map)
    child = RotationMap(new_twin, new_origin, new_next, nverts)
    assert child.vertex_count == m.vertex_count - k + 1
    assert child.edge_count == m.edge_count - k
    return child, record
