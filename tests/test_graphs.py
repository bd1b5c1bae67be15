import itertools
import random
from fractions import Fraction as F

import networkx as nx
import pytest

from strandkit.errors import GraphNotConnected, NotBiconnected, NotPartialTwoTree
from strandkit.families import (
    extended_wheel,
    random_maximal_outerplanar,
    random_planar_3tree,
    wheel,
)
from strandkit.graphs import (
    Graph,
    RotationScheme,
    biconnect_outerplanar,
    completed_two_tree,
    ear_decomposition,
    ear_layout,
    euler_check,
    faces,
    is_outerplanar,
    is_planar,
    replay_ears,
    replay_two_tree,
    two_tree_completion,
)

from conftest import atlas_connected_outerplanar, outerplanar_corpus


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_faces_triangle():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    ok, rot = is_planar(g)
    assert sorted(len(f) for f in faces(g, rot)) == [3, 3]


def test_faces_single_edge():
    g = Graph(2, [(0, 1)])
    assert [len(f) for f in faces(g, RotationScheme([(1,), (0,)]))] == [2]


def test_faces_planar_3tree_n6():
    pg = random_planar_3tree(6, seed=4)
    fs = faces(pg.graph, pg.rot)
    assert len(fs) == 2 * 6 - 4
    assert all(len(f) == 3 for f in fs)


def test_face_partition_property():
    for _n, _s, pg in [(0, 0, random_maximal_outerplanar(9, seed=3))]:
        fs = faces(pg.graph, pg.rot)
        directed = [de for f in fs for de in f]
        assert len(directed) == 2 * pg.graph.edge_count
        assert len(set(directed)) == len(directed)


def faces_by_position(g, rot):
    """Reference face walk: a position map per vertex gives the index of u in
    rot[v], and a seen set marks walked edges. `faces` must return the same
    faces in the same order, each from the same start edge."""
    pos = [{u: i for i, u in enumerate(r)} for r in rot.order]
    out, seen = [], set()
    for a, b in g.edges:
        for start in ((a, b), (b, a)):
            if start in seen:
                continue
            face = []
            cu, cv = start
            while True:
                face.append((cu, cv))
                seen.add((cu, cv))
                r = rot.order[cv]
                cu, cv = cv, r[(pos[cv][cu] + 1) % len(r)]
                if (cu, cv) == start:
                    break
            out.append(tuple(face))
    return tuple(out)


def reference_face_cases():
    from networkx.generators.atlas import graph_atlas_g

    rng = random.Random(27)
    for G in graph_atlas_g():
        if not 1 <= G.number_of_nodes() <= 6:
            continue
        g = Graph(G.number_of_nodes(), [tuple(e) for e in G.edges()])
        ok, rot = is_planar(g)
        if ok:
            yield g, rot
        # any rotation has faces, planar or not
        yield g, RotationScheme([rng.sample(a, len(a)) for a in g.adj])
    for seed in range(20):
        for pg in (random_planar_3tree(4 + seed, seed), random_maximal_outerplanar(3 + seed, seed)):
            yield pg.graph, pg.rot
    for n in range(3, 10):
        for pg in (wheel(n), extended_wheel(n)):
            yield pg.graph, pg.rot


def test_faces_match_position_reference():
    cases = 0
    for g, rot in reference_face_cases():
        assert faces(g, rot) == faces_by_position(g, rot), (g, rot)
        cases += 1
    assert cases > 300


def test_is_planar_examples():
    assert is_planar(Graph(4, list(itertools.combinations(range(4), 2))))[0]
    assert not is_planar(Graph(5, list(itertools.combinations(range(5), 2))))[0]
    assert not is_planar(Graph(6, [(i, 3 + j) for i in range(3) for j in range(3)]))[0]


def test_is_outerplanar_examples():
    for n in (3, 5, 8):
        assert is_outerplanar(cycle(n))[0]
    assert not is_outerplanar(Graph(4, list(itertools.combinations(range(4), 2))))[0]
    from strandkit.families import wheel

    assert not is_outerplanar(wheel(7).graph)[0]


def test_outerplanar_witness_has_outer_face():
    g = random_maximal_outerplanar(11, seed=6).graph
    ok, rot, ofi = is_outerplanar(g)
    assert ok and euler_check(g, rot)
    assert ofi in faces(g, rot)
    assert len({u for u, _v in ofi}) == g.n


def test_outerplanarity_agrees_with_apex_planarity_atlas():
    # independent route: networkx planarity of g plus a universal apex
    from networkx.generators.atlas import graph_atlas_g

    for G in graph_atlas_g():
        n = G.number_of_nodes()
        if n < 2 or n > 7 or not nx.is_connected(G):
            continue
        g = Graph(n, [tuple(e) for e in G.edges()])
        apex = nx.Graph(G)
        apex.add_edges_from((v, n) for v in range(n))
        want, _ = nx.check_planarity(apex)
        assert is_outerplanar(g)[0] == want


def test_outerplanarity_agrees_with_apex_planarity_n8_random():
    # the atlas stops at 7 vertices; cover n=8 with seeded random graphs
    rng = random.Random(8)
    pool = list(itertools.combinations(range(8), 2))
    tried = 0
    while tried < 400:
        m = rng.randint(7, 14)
        edges = rng.sample(pool, m)
        G = nx.Graph(edges)
        G.add_nodes_from(range(8))
        if not nx.is_connected(G):
            continue
        tried += 1
        g = Graph(8, edges)
        apex = nx.Graph(G)
        apex.add_edges_from((v, 8) for v in range(8))
        want, _ = nx.check_planarity(apex)
        assert is_outerplanar(g)[0] == want


def test_biconnect_p3():
    g = Graph(3, [(0, 1), (1, 2)])
    bg = biconnect_outerplanar(g, *is_outerplanar(g)[1:])
    assert nx.is_biconnected(nx.Graph(bg.edges)) and is_outerplanar(bg)[0]
    # induced: no new edges among original vertices
    assert not bg.has_edge(0, 2)


def test_biconnect_star():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    bg = biconnect_outerplanar(star, *is_outerplanar(star)[1:])
    assert nx.is_biconnected(nx.Graph(bg.edges)) and is_outerplanar(bg)[0]


def test_biconnect_idempotent_on_2connected():
    g = cycle(5)
    assert biconnect_outerplanar(g, *is_outerplanar(g)[1:]) is g


@pytest.mark.parametrize("seed", range(12))
def test_biconnect_properties_random(seed):
    for g in outerplanar_corpus(4, 12, seed=seed):
        bg = biconnect_outerplanar(g, *is_outerplanar(g)[1:])
        assert nx.is_biconnected(nx.Graph(bg.edges))
        assert is_outerplanar(bg)[0]
        for u in range(g.n):
            for v in range(u + 1, g.n):
                assert bg.has_edge(u, v) == g.has_edge(u, v)


def test_ears_c4():
    g = cycle(4)
    ok, rot, ofi = is_outerplanar(g)
    dec = ear_decomposition(g, rot, ofi)
    assert len(dec.ears) == 1 and len(dec.ears[0]) == 4  # k = 2
    assert replay_ears(4, dec) == g


def test_ears_fan():
    fan = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (0, 3), (0, 4)])
    ok, rot, ofi = is_outerplanar(fan)
    dec = ear_decomposition(fan, rot, ofi)
    assert [len(e) - 2 for e in dec.ears] == [1, 1, 1]
    assert replay_ears(5, dec) == fan


def test_ears_two_triangles_rooted():
    g = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)])
    ok, rot, ofi = is_outerplanar(g)
    dec = ear_decomposition(g, rot, ofi)
    assert dec.root_edge == (0, 1)
    assert [len(e) - 2 for e in dec.ears] == [1, 1]
    assert replay_ears(4, dec) == g


def test_outer_walk_decides_2_connectivity_atlas():
    # networkx is the reference: on every connected outer-planar atlas graph
    # with n <= 7, the augmentation leaves g alone and the ear decomposition
    # accepts g exactly when g is 2-connected
    for g in atlas_connected_outerplanar(7):
        want = nx.is_biconnected(nx.Graph(g.edges))
        assert (biconnect_outerplanar(g, *is_outerplanar(g)[1:]) is g) == want
        ok, rot, ofi = is_outerplanar(g)
        if want:
            assert replay_ears(g.n, ear_decomposition(g, rot, ofi)) == g
        else:
            with pytest.raises(NotBiconnected):
                ear_decomposition(g, rot, ofi)


@pytest.mark.parametrize("seed", range(10))
def test_ear_replay_property(seed):
    g = random_maximal_outerplanar(6 + seed, seed=seed).graph
    ok, rot, ofi = is_outerplanar(g)
    dec = ear_decomposition(g, rot, ofi)
    assert replay_ears(g.n, dec) == g


def test_two_tree_k3():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    e = two_tree_completion(g)
    assert e.fill_edges == ()


def test_two_tree_c4_one_fill():
    e = two_tree_completion(cycle(4))
    assert len(e.fill_edges) == 1


def test_two_tree_k4_rejected():
    with pytest.raises(NotPartialTwoTree):
        two_tree_completion(Graph(4, list(itertools.combinations(range(4), 2))))


def test_two_tree_disconnected_rejected():
    with pytest.raises(GraphNotConnected):
        two_tree_completion(Graph(4, [(0, 1), (2, 3)]))


@pytest.mark.parametrize("seed", range(10))
def test_completion_soundness(seed):
    from strandkit.families import random_partial_2tree

    g = random_partial_2tree(4 + 3 * seed, 0.6, seed=seed)
    e = two_tree_completion(g)
    assert replay_two_tree(g, e) == completed_two_tree(g, e)


@pytest.mark.parametrize("n", [0, -2])
def test_graph_needs_a_vertex(n):
    with pytest.raises(ValueError, match="at least one vertex"):
        Graph(n, [])


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("lo,a,b,hi", [
    (F(0), F(1), F(5), F(6)),
    (F(6), F(5), F(1), F(0)),
    (F(3), F(2), F(1, 3), F(-1, 12)),
])
def test_ear_layout(k, lo, a, b, hi):
    ends, edges = ear_layout(lo, a, b, hi, k)
    assert len(ends) == k and len(edges) == k + 1
    # L = [lo, L1, L2, ..., L_{2k+2}, hi], read back from the owner positions
    L = [lo] + [p for _w0, _w1, p_u, p_v in edges for p in (p_v, p_u)] + [hi]
    assert len(L) == 2 * k + 4 and L[2] == a and L[2 * k + 1] == b
    step = 1 if lo < hi else -1
    assert L[::step] == sorted(L) and len(set(L)) == len(L)
    assert ends == [(L[2 * i + 2], L[2 * i - 1]) for i in range(1, k + 1)]
    windows = sorted((w0, w1) for w0, w1, _pu, _pv in edges)
    assert all(w0 < w1 for w0, w1 in windows)
    assert all(p[1] <= q[0] for p, q in zip(windows, windows[1:]))
    for w0, w1, p_u, p_v in edges:
        assert sorted(x for x in L if w0 < x < w1) == sorted((p_u, p_v))
