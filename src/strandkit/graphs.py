"""Combinatorial graph infrastructure: simple graphs, rotation schemes, face
traversal, outer-planarity, biconnectivity augmentation, ear decomposition and
2-tree completion.

Conventions: rotations are read as CLOCKWISE cyclic neighbor orders. Faces are
traced with the next-edge rule  next(u,v) = (v, successor of u in rot[v]),
under which the outer face of an outer-plane graph is the directed walk whose
edges (u,v) have u as the counterclockwise outer neighbor of v.

2-connectivity is read off that outer walk: a connected outer-plane graph
with n >= 2 is 2-connected (K_2 included) iff the walk has exactly n edges,
i.e. it visits every vertex once. A longer walk repeats a cut vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    GraphNotConnected,
    InconsistentRotation,
    NotBiconnected,
    NotOuterplanar,
    NotPartialTwoTree,
)
from . import planarity


class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "adj", "_adj_sets", "_edges")

    def __init__(self, n: int, edges: list[tuple[int, int]] | tuple = ()):
        if n < 1:
            raise ValueError(f"a graph needs at least one vertex, got n={n}")
        self.n = n
        adj: list[list[int]] = [[] for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        norm: list[tuple[int, int]] = []
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"parallel edge {key}")
            seen.add(key)
            norm.append(key)
            adj[u].append(v)
            adj[v].append(u)
        self.adj = tuple(tuple(a) for a in adj)
        self._adj_sets = tuple(frozenset(a) for a in adj)
        self._edges = tuple(norm)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj_sets[u]

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = bytearray(self.n)
        stack = [0]
        seen[0] = 1
        cnt = 1
        while stack:
            v = stack.pop()
            for w in self.adj[v]:
                if not seen[w]:
                    seen[w] = 1
                    cnt += 1
                    stack.append(w)
        return cnt == self.n

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and set(self._edges) == set(other._edges)
        )

    def __hash__(self):
        return hash((self.n, frozenset(self._edges)))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


class RotationScheme:
    """Clockwise cyclic neighbor order at every vertex."""

    __slots__ = ("order", "_pos")

    def __init__(self, order):
        self.order = tuple(tuple(r) for r in order)
        self._pos = tuple({u: i for i, u in enumerate(r)} for r in self.order)

    def validate(self, g: Graph) -> None:
        if len(self.order) != g.n:
            raise InconsistentRotation("rotation has wrong vertex count")
        for v in range(g.n):
            if len(self.order[v]) != g.degree(v) or set(self.order[v]) != set(g.adj[v]):
                raise InconsistentRotation(
                    f"order[{v}] is not a permutation of the neighbors of {v}"
                )

    def position(self, v: int, u: int) -> int:
        return self._pos[v][u]

    def __repr__(self) -> str:
        return f"RotationScheme({list(map(list, self.order))})"


@dataclass(frozen=True)
class PlaneGraph:
    graph: Graph
    rot: RotationScheme


def faces(g: Graph, rot: RotationScheme) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All faces of the rotation scheme by next-edge traversal, each the
    cyclic tuple of its directed edges."""
    rot.validate(g)
    out: list[tuple[tuple[int, int], ...]] = []
    seen: set[tuple[int, int]] = set()
    order = rot.order
    for a, b in g.edges:
        for start in ((a, b), (b, a)):
            if start in seen:
                continue
            face = []
            cu, cv = start
            while True:
                face.append((cu, cv))
                seen.add((cu, cv))
                r = order[cv]
                nxt = r[(rot.position(cv, cu) + 1) % len(r)]
                cu, cv = cv, nxt
                if (cu, cv) == start:
                    break
            out.append(tuple(face))
    return tuple(out)


def euler_check(g: Graph, rot: RotationScheme) -> bool:
    """V - E + F == 2 for a connected graph: rot is a plane embedding."""
    if not g.is_connected():
        return False
    if g.edge_count == 0:
        return g.n == 1
    return g.n - g.edge_count + len(faces(g, rot)) == 2


def is_planar(g: Graph) -> tuple[bool, RotationScheme | None]:
    rot = planarity.planar_rotation(g.n, list(g.edges))
    if rot is None:
        return False, None
    return True, RotationScheme(rot)


def is_outerplanar(g: Graph) -> tuple[bool, RotationScheme | None, int | None]:
    """Apex test: g is outer-planar iff g plus a universal vertex is planar.

    On YES returns an outer-plane rotation of g and the index of the face
    holding every vertex.
    """
    if not g.is_connected():
        raise GraphNotConnected("is_outerplanar expects a connected graph")
    n = g.n
    if n == 1:
        return True, RotationScheme([[]]), None
    apex_edges = list(g.edges) + [(v, n) for v in range(n)]
    rot_full = planarity.planar_rotation(n + 1, apex_edges)
    if rot_full is None:
        return False, None, None
    rot = RotationScheme([[w for w in rot_full[v] if w != n] for v in range(n)])
    for i, f in enumerate(faces(g, rot)):
        if len({u for u, _v in f}) == n:
            return True, rot, i
    raise AssertionError("apex embedding lost the outer face")


def biconnect_outerplanar(
    g: Graph, rot: RotationScheme | None, outer_face_index: int | None
) -> Graph:
    """2-connected outer-planar supergraph containing g as an INDUCED subgraph
    on the same vertex ids 0..g.n-1; g itself when it is 2-connected.

    `rot` and `outer_face_index` are what `is_outerplanar(g)` returns, so the
    apex test runs once; a `rot` of None (g is not outer-planar) raises.
    Augmentation adds new vertices only (one per missing hop between
    consecutive first occurrences along the outer face walk), never edges
    between existing vertices; that is what lets constructors drop the added
    curves afterwards.
    """
    if rot is None:
        raise NotOuterplanar("input graph is not outer-planar")
    if g.n == 1:
        return Graph(2, [(0, 1)])
    walk = faces(g, rot)[outer_face_index]
    if len(walk) == g.n:
        return g
    first_seen: list[int] = []
    seen: set[int] = set()
    for u, _v in walk:
        if u not in seen:
            seen.add(u)
            first_seen.append(u)
    assert len(first_seen) == g.n
    edges = list(g.edges)
    next_id = g.n
    for i, a in enumerate(first_seen):
        b = first_seen[(i + 1) % len(first_seen)]
        if not g.has_edge(a, b):
            edges.append((a, next_id))
            edges.append((next_id, b))
            next_id += 1
    return Graph(next_id, edges)


@dataclass(frozen=True)
class EarDecomposition:
    """Root edge plus ears; each ear is a directed path (u, x_1, .., x_k, v)
    attached at the directed outer edge (u, v) of the graph built so far."""

    root_edge: tuple[int, int]
    ears: tuple[tuple[int, ...], ...]


def ear_decomposition(
    g: Graph, rot: RotationScheme, outer_face_index: int
) -> EarDecomposition:
    """Ears from the weak dual tree of inner faces, rooted at the face beside
    the smallest outer edge, emitted in DFS order.

    `outer_face_index` names the face of `faces(g, rot)` that holds every
    vertex, as `is_outerplanar` returns it; g is 2-connected iff that walk
    has exactly g.n edges."""
    fs = faces(g, rot)
    outer = fs[outer_face_index] if fs else ()
    if len(outer) != g.n or len({u for u, _v in outer}) != g.n:
        raise NotBiconnected("ear decomposition needs a 2-connected graph (or K_2)")
    rkey = min((min(u, v), max(u, v)) for (u, v) in outer)
    if g.n == 2:
        return EarDecomposition(rkey, ())

    edge_faces: dict[tuple[int, int], list[int]] = {}
    for i, f in enumerate(fs):
        for u, v in f:
            edge_faces.setdefault((min(u, v), max(u, v)), []).append(i)
    root_face = next(i for i in edge_faces[rkey] if i != outer_face_index)

    ears: list[tuple[int, ...]] = []
    visited = {root_face}
    stack: list[tuple[int, tuple[int, int]]] = [(root_face, rkey)]
    while stack:
        fi, attach = stack.pop()
        cycle = fs[fi]
        # locate the directed copy of the attach edge inside this face
        k = next(
            j for j, (u, v) in enumerate(cycle) if (min(u, v), max(u, v)) == attach
        )
        cycle = cycle[k:] + cycle[:k]
        a, b = cycle[0]
        interior = [v for (_u, v) in cycle[1:-1]]
        ears.append((a, *reversed(interior), b))
        children = []
        for u, v in cycle[1:]:
            key = (min(u, v), max(u, v))
            for fj in edge_faces[key]:
                if fj != fi and fj != outer_face_index and fj not in visited:
                    visited.add(fj)
                    children.append((fj, key))
        stack.extend(reversed(children))
    return EarDecomposition(rkey, tuple(ears))


def restrict_breaks(
    g: Graph, rot2: RotationScheme, outer_edges
) -> tuple[PlaneGraph, dict[int, int]]:
    """Back end of an ear induction on the augmentation of g, with rotation
    `rot2`.

    `outer_edges` are the directed outer edges (u, v) of the finished super
    build; every super vertex u tails exactly one, and its curve breaks at v.
    Returns g with the rotation induced from `rot2`, and each break moved to
    the first original neighbor at or after the super break (0 for a vertex
    without original neighbors)."""
    cw_nb = {u: v for u, v in outer_edges}
    order = []
    breaks = {}
    for v in range(g.n):
        full = rot2.order[v]
        induced = tuple(w for w in full if w < g.n)
        order.append(induced)
        bpos = rot2.position(v, cw_nb[v])
        first = next((w for w in full[bpos:] + full[:bpos] if w < g.n), None)
        breaks[v] = 0 if first is None else induced.index(first)
    return PlaneGraph(g, RotationScheme(order)), breaks


def ear_layout(lo, a, b, hi, k: int):
    """Positions for an ear of k new vertices on the interval of a live
    directed outer edge (u, v), shared by the circle and VPG ear steps.

    The interval runs from `lo` on u's side to `hi` on v's side (either
    direction); u's tail sits at `a` and v's head at `b`. The layout is
    L = [lo, (lo+a)/2, a = q_0, q_1, ..., q_{2k-1} = b, (b+hi)/2, hi] with
    the q_j evenly spaced. Returns the (tail, head) positions
    (L[2i+2], L[2i-1]) of new vertices i = 1..k, and for each ear edge
    i = 0..k the sorted window ((L[2i]+L[2i+1])/2, (L[2i+2]+L[2i+3])/2)
    with its owner positions: the tail of its first vertex at L[2i+2] and
    the head of its second at L[2i+1]."""
    L = [lo, (lo + a) / 2, a]
    L += [a + (b - a) * Fraction(j, 2 * k - 1) for j in range(1, 2 * k - 1)]
    L += [b, (b + hi) / 2, hi]
    ends = [(L[2 * i + 2], L[2 * i - 1]) for i in range(1, k + 1)]
    edges = []
    for i in range(k + 1):
        m0, m1 = (L[2 * i] + L[2 * i + 1]) / 2, (L[2 * i + 2] + L[2 * i + 3]) / 2
        edges.append((min(m0, m1), max(m0, m1), L[2 * i + 2], L[2 * i + 1]))
    return ends, edges


def replay_ears(n: int, dec: EarDecomposition) -> Graph:
    """Rebuild the graph from the decomposition, checking the ear invariants."""
    edges = {dec.root_edge}
    present = set(dec.root_edge)
    for ear in dec.ears:
        u, v = ear[0], ear[-1]
        key = (min(u, v), max(u, v))
        if key not in edges:
            raise AssertionError(f"ear {ear} attaches at a missing edge")
        for x in ear[1:-1]:
            if x in present:
                raise AssertionError(f"ear {ear} reuses vertex {x}")
        for a, b in zip(ear, ear[1:]):
            k = (min(a, b), max(a, b))
            if k in edges:
                raise AssertionError(f"ear {ear} duplicates edge {k}")
            edges.add(k)
        present.update(ear)
    return Graph(n, sorted(edges))


@dataclass(frozen=True)
class EliminationOrder:
    """Order of removed degree<=2 vertices, the <=2 neighbors each attaches
    to, and the fill edges completing the input to a 2-tree."""

    order: tuple[int, ...]
    attach: tuple[tuple[int, ...], ...]
    fill_edges: tuple[tuple[int, int], ...]
    base: tuple[int, ...]


def two_tree_completion(g: Graph) -> EliminationOrder:
    """Recognize a connected partial 2-tree and complete it to a 2-tree.

    Repeatedly removes the smallest vertex of degree <= 2; a degree-2 removal
    fills the edge between its neighbors, a degree-1 removal attaches to an
    edge through its neighbor. Raises NotPartialTwoTree when stuck.
    """
    if not g.is_connected():
        raise GraphNotConnected("two_tree_completion expects a connected graph")
    n = g.n
    if n == 1:
        return EliminationOrder((), (), (), (0,))
    adj: list[set[int]] = [set(a) for a in g.adj]
    alive = set(range(n))
    order: list[int] = []
    attach: list[tuple[int, ...]] = []
    fills: list[tuple[int, int]] = []
    while len(alive) > 2:
        v = min((x for x in alive if len(adj[x]) <= 2), default=-1)
        if v == -1:
            raise NotPartialTwoTree("all remaining vertices have degree >= 3")
        nb = sorted(adj[v])
        if len(nb) == 2:
            a, b = nb
            if b not in adj[a]:
                adj[a].add(b)
                adj[b].add(a)
                fills.append((min(a, b), max(a, b)))
            attach.append((a, b))
        else:
            a = nb[0]
            b = min(x for x in adj[a] if x != v)
            fills.append((min(v, b), max(v, b)))
            attach.append((a, b))
        order.append(v)
        for w in adj[v]:
            adj[w].discard(v)
        adj[v].clear()
        alive.discard(v)
    base = tuple(sorted(alive))
    assert base[1] in adj[base[0]], "connected elimination must end at an edge"
    return EliminationOrder(tuple(order), tuple(attach), tuple(fills), base)


def completed_two_tree(g: Graph, elim: EliminationOrder) -> Graph:
    return Graph(g.n, list(g.edges) + list(elim.fill_edges))


def replay_two_tree(g: Graph, elim: EliminationOrder) -> Graph:
    """Rebuild the completed 2-tree in reverse elimination order, checking
    that every re-inserted vertex attaches to an existing edge."""
    present = set(elim.base)
    edges: set[tuple[int, int]] = set()
    if len(elim.base) == 2:
        edges.add(elim.base)
    for v, att in zip(reversed(elim.order), reversed(elim.attach)):
        a, b = att
        if a not in present or b not in present:
            raise AssertionError(f"vertex {v} attaches to absent vertices {att}")
        if (min(a, b), max(a, b)) not in edges:
            raise AssertionError(f"vertex {v} attaches to the non-edge {att}")
        edges.add((min(v, a), max(v, a)))
        edges.add((min(v, b), max(v, b)))
        present.add(v)
    return Graph(g.n, sorted(edges))
