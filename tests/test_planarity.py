import itertools
import random

import networkx as nx
import pytest

from strandkit.families import random_planar_3tree, subdivided_k23, triple_stellation
from strandkit.graphs import Graph, RotationScheme, euler_check, faces, is_planar
from strandkit.oracle import BOTH_ENDS, _Task
from strandkit.planarity import is_planar_edges, planar_rotation
from strandkit.sp import build_sp

from test_oracle import diagram

K5 = list(itertools.combinations(range(5), 2))
K33 = [(i, 3 + j) for i in range(3) for j in range(3)]


def test_kuratowski():
    assert not is_planar_edges(5, K5)
    assert not is_planar_edges(6, K33)
    assert is_planar_edges(4, list(itertools.combinations(range(4), 2)))


def test_k5_minus_edge_planar():
    assert is_planar_edges(5, K5[1:])


def subdivide(n, edges, times, seed):
    rng = random.Random(seed)
    edges = list(edges)
    for _ in range(times):
        i = rng.randrange(len(edges))
        u, v = edges.pop(i)
        edges += [(u, n), (n, v)]
        n += 1
    return n, edges


@pytest.mark.parametrize("seed", range(6))
def test_kuratowski_subdivisions(seed):
    n, edges = subdivide(5, K5, 4 + seed, seed)
    assert not is_planar_edges(n, edges)
    n, edges = subdivide(6, K33, 4 + seed, seed)
    assert not is_planar_edges(n, edges)


@pytest.mark.parametrize("seed", range(40))
def test_random_against_networkx(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 11)
    pool = list(itertools.combinations(range(n), 2))
    m = rng.randint(0, len(pool))
    edges = rng.sample(pool, m)
    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from(edges)
    want, _ = nx.check_planarity(G)
    assert is_planar_edges(n, edges) == want
    rot = planar_rotation(n, edges)
    assert (rot is not None) == want


@pytest.mark.parametrize("seed", range(25))
def test_embedding_euler_valid(seed):
    # random connected planar graphs: spanning tree plus a few safe extras
    rng = random.Random(100 + seed)
    n = rng.randint(2, 14)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    pool = [e for e in itertools.combinations(range(n), 2) if e not in set(edges)]
    rng.shuffle(pool)
    for e in pool:
        cand = edges + [e]
        if is_planar_edges(n, cand):
            edges = cand
        if len(edges) >= 3 * n - 6:
            break
    g = Graph(n, edges)
    ok, rot = is_planar(g)
    assert ok
    assert euler_check(g, rot)


# ---------------------------------------------------------------------------
# differential tests on large graphs and on oracle diagrams
# ---------------------------------------------------------------------------


def check_against_networkx(n, edges):
    """Both entry points agree with networkx, and every rotation is a plane
    embedding by the Euler check: V - E + F = 2 on each component with an
    edge, which on a connected graph is `euler_check`."""
    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from(edges)
    want, _ = nx.check_planarity(G)
    assert is_planar_edges(n, edges) == want
    rot = planar_rotation(n, edges)
    assert (rot is not None) == want
    if rot is not None:
        g, scheme = Graph(n, edges), RotationScheme(rot)
        if g.is_connected():
            assert euler_check(g, scheme)
        used = [v for v in G if G.degree(v)]
        components = nx.number_connected_components(G.subgraph(used))
        assert len(used) - len(edges) + len(faces(g, scheme)) == 2 * components
    return want


def maximal_planar(n, rng):
    """A random maximal planar graph on n >= 4 vertices: a stacked
    triangulation with about 2n random edge flips, randomly relabelled, with
    its edges shuffled and randomly oriented."""
    # every directed edge lies on exactly one (oriented) triangle
    face_of = {}

    def add(f):
        a, b, c = f
        for e in ((a, b), (b, c), (c, a)):
            face_of[e] = f

    add((0, 1, 2))
    add((0, 2, 1))
    for v in range(3, n):
        a, b, c = face_of[rng.choice(sorted(face_of))]
        add((a, b, v))
        add((b, c, v))
        add((c, a, v))
    for _ in range(2 * n):
        a, b = rng.choice(sorted(face_of))
        c = next(x for x in face_of[(a, b)] if x not in (a, b))
        d = next(x for x in face_of[(b, a)] if x not in (a, b))
        if (c, d) in face_of:
            continue
        del face_of[(a, b)], face_of[(b, a)]
        add((a, d, c))
        add((d, b, c))
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[a], perm[b]) if rng.random() < 0.5 else (perm[b], perm[a])
             for a, b in face_of if a < b]
    rng.shuffle(edges)
    assert len(edges) == 3 * n - 6
    return edges


def sparsified(n, edges, keep, rng):
    """A connected random subgraph: a spanning tree of `edges` plus each
    other edge with probability `keep`."""
    parent = list(range(n))

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    out = []
    for u, v in edges:
        ru, rv = root(u), root(v)
        if ru != rv:
            parent[ru] = rv
            out.append((u, v))
        elif rng.random() < keep:
            out.append((u, v))
    return out


def with_subdivision(n, edges, kuratowski, rng):
    """`edges` plus a subdivision of K5 or K3,3 whose branch vertices are
    random vertices of the graph and whose paths run through new vertices."""
    k = 5 if kuratowski is K5 else 6
    branch = rng.sample(range(n), k)
    out = list(edges)
    for a, b in kuratowski:
        prev = branch[a]
        for _ in range(rng.randint(1, 3)):
            out.append((prev, n))
            prev = n
            n += 1
        out.append((prev, branch[b]))
    return n, out


def non_edge(n, edges, rng):
    present = {frozenset(e) for e in edges}
    while True:
        u, v = rng.sample(range(n), 2)
        if frozenset((u, v)) not in present:
            return (u, v)


@pytest.mark.parametrize("seed", range(12))
def test_large_graphs_against_networkx(seed):
    rng = random.Random(1000 + seed)
    n = 200 if seed < 3 else rng.randint(8, 200)
    tri = maximal_planar(n, rng)
    assert check_against_networkx(n, tri)
    assert not check_against_networkx(n, tri + [non_edge(n, tri, rng)])
    sparse = sparsified(n, tri, rng.choice((0.3, 0.6, 0.9)), rng)
    assert check_against_networkx(n, sparse)
    check_against_networkx(n, sparse + [non_edge(n, sparse, rng)])
    for kuratowski in (K5, K33):
        assert not check_against_networkx(*with_subdivision(n, sparse, kuratowski, rng))


@pytest.mark.parametrize("seed", range(24))
def test_sparse_ids_against_networkx(seed):
    # a graph whose vertices are scattered over a larger id space, with
    # pendant leaves and isolated vertices mixed in, as in the oracle's
    # contracted diagrams: a planar one, one with a random extra edge, and
    # one with a Kuratowski subdivision, in turn
    rng = random.Random(2000 + seed)
    k = rng.randint(6, 40)
    n, edges = k, sparsified(k, maximal_planar(k, rng), rng.choice((0.3, 0.6, 0.9)), rng)
    if seed % 3 == 1:
        edges.append(non_edge(n, edges, rng))
    elif seed % 3 == 2:
        n, edges = with_subdivision(n, edges, rng.choice((K5, K33)), rng)
    for _ in range(rng.randint(1, n)):
        edges.append((rng.randrange(n), n))
        n += 1
    ids = rng.sample(range(3 * n), n)
    edges = [(ids[u], ids[v]) if rng.random() < 0.5 else (ids[v], ids[u]) for u, v in edges]
    rng.shuffle(edges)
    planar = check_against_networkx(3 * n, edges)
    if seed % 3 != 1:
        assert planar == (seed % 3 == 0)


def diagram_edges(task, breaks, gadgets):
    """Node count and edges of the gadget H that `task` lays out, or else
    the plain H of the test reference in the task's outer mode, for `breaks`
    and end bits 0."""
    ends = [0] * task.n
    if not gadgets:
        return diagram(task.pg, breaks, ends, task.mode, False, plain=True)
    return task.gadget_edges(breaks, ends)


def test_k23_diagrams_against_networkx():
    # every both-ends vector of the subdivided K_{2,3}: no H is planar
    pg = build_sp(subdivided_k23()).plane
    g = pg.graph
    task = _Task(pg, BOTH_ENDS)
    vectors = list(itertools.product(*(range(max(1, g.degree(v))) for v in range(g.n))))
    assert len(vectors) == 4608
    for breaks in vectors:
        for gadgets in (False, True):
            assert not check_against_networkx(*diagram_edges(task, breaks, gadgets))


def test_thm2_diagrams_against_networkx():
    # sampled Thm-2 vectors: plain H is planar, gadget H is not, and neither
    # is a prefix rung of at most 16 vertices
    pg = triple_stellation(random_planar_3tree(6, 1))
    g = pg.graph
    task = _Task(pg, None)
    rungs = [rung.diagram for rung in task.rungs if len(rung.keep) <= 16]
    assert len(rungs) == 2
    rng = random.Random(2)
    for _ in range(50):
        breaks = [rng.randrange(max(1, g.degree(v))) for v in range(g.n)]
        assert check_against_networkx(*diagram_edges(task, breaks, False))
        planar = [check_against_networkx(*task.edges(rung, [row[b][0] for row, b in
                                                             zip(rung[3], breaks)]))
                  for rung in rungs]
        assert not all(planar)
        assert not check_against_networkx(*diagram_edges(task, breaks, True))
