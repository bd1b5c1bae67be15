"""Generators for the graph families used throughout: wheels, extended
wheels, stellations, planar 3-trees, the subdivided K_{2,3}, and seeded
random corpora (maximal outer-planar graphs, partial 2-trees).

All plane outputs carry clockwise rotation schemes and pass the Euler check.
"""

from __future__ import annotations

import random

from .errors import StrandkitError, TooSmall
from .graphs import Graph, PlaneGraph, RotationScheme, faces

__all__ = [
    "wheel",
    "extended_wheel",
    "stellate",
    "triple_stellation",
    "subdivided_k23",
    "random_planar_3tree",
    "random_maximal_outerplanar",
    "random_partial_2tree",
    "PlaneGraph",
]


def wheel(n: int) -> PlaneGraph:
    """W_n: rim cycle v_0..v_{n-1} plus hub c = n inside."""
    if n < 3:
        raise TooSmall("wheel needs n >= 3")
    hub = n
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, hub) for i in range(n)]
    order: list[list[int]] = []
    for i in range(n):
        order.append([(i - 1) % n, hub, (i + 1) % n])
    order.append(list(range(n - 1, -1, -1)))
    return PlaneGraph(Graph(n + 1, edges), RotationScheme(order))


def extended_wheel(n: int) -> PlaneGraph:
    """W_n^+: the wheel plus w_i adjacent to v_i, v_{i+1}, embedded outside
    the rim. Vertex ids: rim 0..n-1, hub n, w_i = n+1+i."""
    if n < 3:
        raise TooSmall("extended wheel needs n >= 3")
    hub = n
    w0 = n + 1
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, hub) for i in range(n)]
    for i in range(n):
        edges.append((i, w0 + i))
        edges.append(((i + 1) % n, w0 + i))
    order: list[list[int]] = []
    for i in range(n):
        prev_w = w0 + (i - 1) % n
        order.append([prev_w, (i - 1) % n, hub, (i + 1) % n, w0 + i])
    order.append(list(range(n - 1, -1, -1)))
    for i in range(n):
        order.append([i, (i + 1) % n])
    return PlaneGraph(Graph(n + 1 + n, edges), RotationScheme(order))


def _insert_into_face(
    order: list[list[int]], face: tuple[tuple[int, int], ...], new: int
) -> None:
    """Rotation surgery placing `new` inside `face`, adjacent to all its
    (distinct) vertices."""
    sources = [a for a, _b in face]
    if len(set(sources)) != len(sources):
        raise ValueError("cannot stellate a face with repeated vertices")
    m = len(sources)
    for k in range(m):
        prev_v = sources[k]
        cur = sources[(k + 1) % m]
        pos = order[cur].index(prev_v)
        order[cur].insert(pos + 1, new)
    order.append(list(reversed(sources)))


def stellate(pg: PlaneGraph) -> PlaneGraph:
    """Insert one new vertex into every face, adjacent to all its vertices."""
    g, rot = pg.graph, pg.rot
    order = [list(r) for r in rot.order]
    edges = list(g.edges)
    nxt = g.n
    for f in faces(g, rot):
        _insert_into_face(order, f, nxt)
        for a, _b in f:
            edges.append((a, nxt))
        nxt += 1
    return PlaneGraph(Graph(nxt, edges), RotationScheme(order))


def triple_stellation(pg: PlaneGraph) -> PlaneGraph:
    return stellate(stellate(stellate(pg)))


def subdivided_k23() -> Graph:
    """Every edge of K_{2,3} subdivided once: 11 vertices, 12 edges.

    Ids: a-side 0,1; b-side 2,3,4; the subdivision vertex of edge (a_i, b_j)
    is 5 + 3*i + j.
    """
    edges = []
    for i in range(2):
        for j in range(3):
            mid = 5 + 3 * i + j
            edges.append((i, mid))
            edges.append((mid, 2 + j))
    return Graph(11, edges)


_K4_ORDER = ((2, 3, 1), (0, 3, 2), (1, 3, 0), (1, 0, 2))
_K4_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def random_planar_3tree(n: int, seed: int = 0) -> PlaneGraph:
    """Grow from an embedded K_4 by repeatedly putting a vertex into a
    uniformly random (triangular) face."""
    if n < 4:
        raise TooSmall("planar 3-tree needs n >= 4")
    rng = random.Random(seed)
    g = Graph(4, list(_K4_EDGES))
    rot = RotationScheme(_K4_ORDER)
    for v in range(4, n):
        fs = faces(g, rot)
        f = fs[rng.randrange(len(fs))]
        order = [list(r) for r in rot.order]
        _insert_into_face(order, f, v)
        edges = list(g.edges) + [(a, v) for a, _b in f]
        g = Graph(v + 1, edges)
        rot = RotationScheme(order)
    return PlaneGraph(g, rot)


def random_maximal_outerplanar(n: int, seed: int = 0) -> PlaneGraph:
    """Triangulated convex polygon 0..n-1 (counterclockwise) with random
    recursive splits; 2n-3 edges."""
    if n < 3:
        raise TooSmall("maximal outer-planar graph needs n >= 3")
    rng = random.Random(seed)
    edges = [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)]
    stack = [(0, n - 1)]
    while stack:
        i, j = stack.pop()
        if j - i < 2:
            continue
        k = rng.randint(i + 1, j - 1)
        if k > i + 1:
            edges.append((i, k))
        if j > k + 1:
            edges.append((k, j))
        stack.append((i, k))
        stack.append((k, j))
    g = Graph(n, edges)
    order = []
    for v in range(n):
        order.append(sorted(g.adj[v], key=lambda w: (v - w) % n))
    return PlaneGraph(g, RotationScheme(order))


def random_partial_2tree(n: int, density: float = 0.7, seed: int = 0) -> Graph:
    """Random 2-tree minus random edges, kept connected: density is the
    fraction of the 2-tree's 2n-3 edges kept, but never fewer than the n-1
    of a spanning tree.

    The shuffled edges c_0, c_1, ... are tried in turn: c_i is dropped,
    while fewer than the target are gone, when the rest stays connected
    without it (reverse-delete, Kruskal 1956). A kept edge was a bridge and
    stays one, as edges only go, so it lies on no cycle of present edges:
    the rest joins c_i's ends exactly when c_{i+1}, c_{i+2}, ... do. One
    backward union-find pass marks these spare edges, and the first target
    of them go.
    """
    if n < 2:
        raise TooSmall("partial 2-tree needs n >= 2")
    if not 0 <= density <= 1:  # also rejects NaN
        raise StrandkitError(f"density must lie in [0, 1], got {density}")
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = [(0, 1)]
    for v in range(2, n):
        a, b = edges[rng.randrange(len(edges))]
        edges.append((min(a, v), max(a, v)))
        edges.append((min(b, v), max(b, v)))
    target_remove = int(round((1.0 - density) * len(edges)))
    candidates = list(edges)
    rng.shuffle(candidates)
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    spare = []  # last candidate first
    for u, v in reversed(candidates):
        ru, rv = find(u), find(v)
        if ru == rv:
            spare.append((u, v))
        parent[ru] = rv
    dropped = set(spare[::-1][:target_remove])
    return Graph(n, sorted(set(edges) - dropped))
