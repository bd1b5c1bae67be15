import collections
import importlib.util
import random
import sys
from pathlib import Path

import networkx as nx
import pytest

from strandkit.errors import TooSmall
from strandkit.families import (
    extended_wheel,
    random_maximal_outerplanar,
    random_partial_2tree,
    random_planar_3tree,
    stellate,
    subdivided_k23,
    triple_stellation,
    wheel,
)
from strandkit.graphs import (
    Graph,
    PlaneGraph,
    RotationScheme,
    euler_check,
    faces,
    is_outerplanar,
    two_tree_completion,
)


def test_wheel_small():
    w = wheel(3)
    assert w.graph.n == 4 and w.graph.edge_count == 6  # K_4
    assert euler_check(w.graph, w.rot)
    with pytest.raises(TooSmall):
        wheel(2)


def test_wheel_w7():
    w = wheel(7)
    assert (w.graph.n, w.graph.edge_count) == (8, 14)
    assert w.graph.degree(7) == 7
    assert euler_check(w.graph, w.rot)


def test_extended_wheel_counts():
    e = extended_wheel(7)
    assert (e.graph.n, e.graph.edge_count) == (15, 28)
    degs = collections.Counter(e.graph.degree(v) for v in range(15))
    assert degs == {5: 7, 7: 1, 2: 7}
    assert euler_check(e.graph, e.rot)


def test_extended_wheel_restriction_is_wheel():
    e = extended_wheel(5)
    w = wheel(5)
    kept = [(u, v) for (u, v) in e.graph.edges if u <= 5 and v <= 5]
    assert Graph(6, kept) == w.graph


def test_extended_wheel_body_outerplanar():
    e = extended_wheel(7)
    hub = 7
    relab = {v: (v if v < hub else v - 1) for v in range(e.graph.n) if v != hub}
    body = Graph(
        e.graph.n - 1,
        [(relab[u], relab[v]) for (u, v) in e.graph.edges if hub not in (u, v)],
    )
    ok, _rot, _ofi = is_outerplanar(body)
    assert ok
    assert nx.is_biconnected(nx.Graph(body.edges))


def test_stellate_preserves_min_degree_three():
    # input with min degree >= 2 and all faces of size >= 3
    c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    ok, rot, _ = is_outerplanar(c5)
    st = stellate(PlaneGraph(c5, rot))
    assert min(st.graph.degree(v) for v in range(st.graph.n)) >= 3


def test_stellate_triangle():
    k3 = PlaneGraph(Graph(3, [(0, 1), (1, 2), (0, 2)]), RotationScheme([(2, 1), (0, 2), (1, 0)]))
    st = stellate(k3)
    assert st.graph.n == 5 and st.graph.edge_count == 9
    assert euler_check(st.graph, st.rot)
    assert len(faces(st.graph, st.rot)) == 6


def test_stellate_3tree_stays_3tree_shape():
    pg = random_planar_3tree(5, seed=2)
    st = stellate(pg)
    # a stellated triangulation is again a triangulation: E = 3V - 6
    assert st.graph.edge_count == 3 * st.graph.n - 6
    assert euler_check(st.graph, st.rot)
    assert all(len(f) == 3 for f in faces(st.graph, st.rot))


def test_triple_stellation_counts():
    pg = random_planar_3tree(6, seed=0)
    t = triple_stellation(pg)
    assert (t.graph.n, t.graph.edge_count) == (110, 324)
    assert euler_check(t.graph, t.rot)


def test_subdivided_k23():
    g = subdivided_k23()
    assert (g.n, g.edge_count) == (11, 12)
    assert sorted(g.degree(v) for v in range(11)) == [2] * 9 + [3, 3]
    assert two_tree_completion(g) is not None
    assert not is_outerplanar(g)[0]


def test_random_planar_3tree():
    for n, seed in [(4, 0), (7, 1), (12, 9)]:
        pg = random_planar_3tree(n, seed)
        assert pg.graph.edge_count == 3 * n - 6
        assert len(faces(pg.graph, pg.rot)) == 2 * n - 4
        assert euler_check(pg.graph, pg.rot)
    a = random_planar_3tree(9, seed=5)
    b = random_planar_3tree(9, seed=5)
    assert a.graph == b.graph and a.rot.order == b.rot.order


def test_random_maximal_outerplanar():
    for n, seed in [(3, 0), (8, 1), (21, 5)]:
        pg = random_maximal_outerplanar(n, seed)
        assert pg.graph.edge_count == 2 * n - 3
        assert euler_check(pg.graph, pg.rot)
        assert is_outerplanar(pg.graph)[0]
    a = random_maximal_outerplanar(13, seed=2)
    b = random_maximal_outerplanar(13, seed=2)
    assert a.graph == b.graph


@pytest.mark.parametrize("seed", range(8))
def test_random_partial_2tree_recognized(seed):
    g = random_partial_2tree(20, 0.6, seed=seed)
    assert g.is_connected()
    assert two_tree_completion(g) is not None


def greedy_partial_2tree(n, density, seed):
    """The generator's first, quadratic form: try each shuffled edge in turn
    and drop it when the graph stays connected without it, until the target
    number of edges is gone."""
    rng = random.Random(seed)
    edges = [(0, 1)]
    for v in range(2, n):
        a, b = edges[rng.randrange(len(edges))]
        edges += [(min(a, v), max(a, v)), (min(b, v), max(b, v))]
    target = int(round((1.0 - density) * len(edges)))
    candidates = list(edges)
    rng.shuffle(candidates)
    chosen = set(edges)
    removed = 0
    for e in candidates:
        if removed >= target:
            break
        chosen.discard(e)
        if Graph(n, sorted(chosen)).is_connected():
            removed += 1
        else:
            chosen.add(e)
    return tuple(sorted(chosen))


def _corpus():
    rng = random.Random(23)
    cases = [(2, d, s) for d in (0, 0.5, 1) for s in range(3)]
    for _ in range(300):
        d = rng.choice([0, 1, 0.25, 0.4, 0.5, 0.6, 0.8, rng.random()])
        cases.append((rng.randint(2, 60), d, rng.randrange(10**6)))
    return cases


def test_random_partial_2tree_matches_greedy():
    for n, density, seed in _corpus():
        assert random_partial_2tree(n, density, seed).edges == greedy_partial_2tree(
            n, density, seed), (n, density, seed)


def test_random_partial_2tree_matches_greedy_on_bench_graphs(monkeypatch):
    # the sp graphs of setup_construct (n = 50..200) and setup_verify (n = 100, 200)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    w = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, w)  # for its dataclasses
    spec.loader.exec_module(w)
    d = w.SP_DENSITIES
    args = [(n, d[i % 4], i) for i, n in enumerate(w.SP_SIZES)]
    args += [(n, d[i % 4], 100 + i) for i, (n, _v) in enumerate(w.VERIFY_SP)]
    for n, density, seed in args:
        assert random_partial_2tree(n, density, seed).edges == greedy_partial_2tree(
            n, density, seed), (n, density, seed)


@pytest.mark.parametrize("n", [2, 3, 10, 57])
def test_random_partial_2tree_density_bounds(n):
    # density 1 keeps the whole 2-tree, density 0 leaves a spanning tree
    assert random_partial_2tree(n, 1.0, seed=n).edge_count == 2 * n - 3
    tree = random_partial_2tree(n, 0.0, seed=n)
    assert tree.edge_count == n - 1 and tree.is_connected()
