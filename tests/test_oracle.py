import collections
import functools
import itertools
import math
import os
import random
import subprocess
import sys

import pytest

import strandkit
from strandkit import oracle
from strandkit.circle import build_circle
from strandkit.errors import BudgetZero, InvalidBreak, StrandkitError
from strandkit.families import (
    extended_wheel,
    random_maximal_outerplanar,
    random_planar_3tree,
    subdivided_k23,
    triple_stellation,
    wheel,
)
from strandkit.graphs import Graph, PlaneGraph, RotationScheme, is_planar
from strandkit.oracle import (
    BOTH_ENDS,
    COUNTERS,
    ONE_END,
    decide_fixed,
    enumerate_breaks,
)
from strandkit.planarity import is_planar_edges
from strandkit.sp import build_sp

from conftest import outerplanar_corpus


def k3_plane():
    return PlaneGraph(
        Graph(3, [(0, 1), (1, 2), (0, 2)]), RotationScheme([(2, 1), (0, 2), (1, 0)])
    )


def path_plane():
    return PlaneGraph(Graph(3, [(0, 1), (1, 2)]), RotationScheme([(1,), (0, 2), (1,)]))


def test_k3_every_break_both_ends():
    pg = k3_plane()
    for a in range(2):
        for b in range(2):
            for c in range(2):
                assert decide_fixed(pg, [a, b, c], BOTH_ENDS)


def test_invalid_break():
    with pytest.raises(InvalidBreak):
        decide_fixed(k3_plane(), [0, 2, 0])


def test_budget_zero():
    with pytest.raises(BudgetZero):
        enumerate_breaks(k3_plane(), budget=0)


def test_monotone_consistency():
    rng = random.Random(0)
    for g in outerplanar_corpus(6, 8, seed=17):
        b = build_circle(g)
        pg = b.plane
        for _ in range(6):
            breaks = [rng.randrange(max(1, g.degree(v))) for v in range(g.n)]
            both = decide_fixed(pg, breaks, BOTH_ENDS)
            if both:
                ends = [rng.randrange(2) for _ in range(g.n)]
                assert decide_fixed(pg, breaks, ONE_END, end_choice=ends)
                assert decide_fixed(pg, breaks)


def plain_planar(pg, breaks, mode=None):
    """The plain criterion: planarity of H without gadgets, by the reference."""
    return is_planar_edges(*diagram(pg, breaks, [0] * pg.graph.n, mode, False, plain=True))


def test_gadget_conservativity():
    rng = random.Random(5)
    for g in outerplanar_corpus(5, 8, seed=23):
        b = build_circle(g)
        for _ in range(5):
            breaks = [rng.randrange(max(1, g.degree(v))) for v in range(g.n)]
            if decide_fixed(b.plane, breaks, BOTH_ENDS):
                assert plain_planar(b.plane, breaks, BOTH_ENDS)


def test_circle_breaks_cross_validate():
    for seed in range(5):
        g = random_maximal_outerplanar(5 + seed, seed=seed).graph
        b = build_circle(g)
        breaks = [b.breaks[v] for v in range(g.n)]
        assert decide_fixed(b.plane, breaks, BOTH_ENDS)


def test_parallel_determinism_yes():
    g = random_maximal_outerplanar(7, seed=1).graph
    pg = build_circle(g).plane
    v1 = enumerate_breaks(pg, BOTH_ENDS, jobs=1, chunk=16)
    v2 = enumerate_breaks(pg, BOTH_ENDS, jobs=2, chunk=16)
    assert v1.status == v2.status == "yes"
    assert v1.witness == v2.witness and v1.tried == v2.tried


def test_parallel_determinism_sampled():
    pg = build_sp(subdivided_k23()).plane
    v1 = enumerate_breaks(pg, BOTH_ENDS, budget=500, seed=3, jobs=1, chunk=64)
    v2 = enumerate_breaks(pg, BOTH_ENDS, budget=500, seed=3, jobs=2, chunk=64)
    assert (v1.status, v1.witness, v1.tried) == (v2.status, v2.witness, v2.tried)


def test_k23_base_yes():
    pg = build_sp(subdivided_k23()).plane
    v = enumerate_breaks(pg, None, jobs=1)
    assert v.status == "yes"
    assert decide_fixed(pg, v.witness)


def test_sp_breaks_realizable_base_mode():
    # the sp construction's own order/breaks must satisfy the base criterion
    g = subdivided_k23()
    sb = build_sp(g)
    from strandkit.geom import crossing_profile

    prof = crossing_profile(sb.rep)
    for v in range(g.n):
        seq = prof.sequences[v]
        cyc = sb.plane.rot.order[v]
        doubled = cyc + cyc
        n = len(cyc)
        assert any(
            doubled[s : s + n] == seq or doubled[s : s + n] == tuple(reversed(seq))
            for s in range(n)
        )


def test_one_end_mode_space():
    pg = path_plane()
    v = enumerate_breaks(pg, ONE_END, jobs=1)
    # product of degrees (1*2*1) times 2^3 end choices
    assert v.total == 2 * 8
    assert v.status == "yes"


def test_isolated_vertex_handled():
    pg = PlaneGraph(Graph(1, []), RotationScheme([[]]))
    assert decide_fixed(pg, [0], BOTH_ENDS)


def test_vpg_breaks_cross_validate():
    from strandkit.vpg import build_vpg

    for seed in range(4):
        g = random_maximal_outerplanar(5 + seed, seed=seed).graph
        b = build_vpg(g)
        breaks = [b.breaks[v] for v in range(g.n)]
        assert decide_fixed(b.plane, breaks, BOTH_ENDS)


def test_gadgets_are_load_bearing():
    # the plain planarity criterion over-accepts: on small planar 3-trees
    # some break vectors are plain-planar yet gadget-nonplanar (a planar
    # embedding of plain H can fake a crossing with a touching rotation)
    rng = random.Random(0)
    saw_difference = False
    for s in range(10):
        pg = random_planar_3tree(7, seed=s)
        g = pg.graph
        for _ in range(30):
            breaks = [rng.randrange(max(1, g.degree(v))) for v in range(g.n)]
            plain = plain_planar(pg, breaks)
            gad = decide_fixed(pg, breaks)
            assert plain or not gad  # conservativity: gadget yes => plain yes
            if plain and not gad:
                saw_difference = True
        if saw_difference:
            break
    assert saw_difference


def test_chunk_and_limit_validated():
    for kwargs in ({"chunk": 0}, {"chunk": -1}, {"limit": 0}, {"limit": -3},
                   {"budget": 5, "limit": 3}, {"jobs": 0}, {"jobs": -3}):
        with pytest.raises(StrandkitError):
            enumerate_breaks(k3_plane(), **kwargs)


def test_counters_not_in_verdict_json():
    v = enumerate_breaks(k3_plane(), BOTH_ENDS)
    assert set(v.to_json()) == {"status", "witness", "witness_ends", "tried", "total",
                                "elapsed_ms"}
    assert set(v.counters) == set(COUNTERS)


def star_plane(k):
    """K_{1,k}: hub 0 with the leaves 1..k in clockwise order."""
    return PlaneGraph(Graph(k + 1, [(0, i) for i in range(1, k + 1)]),
                      RotationScheme([tuple(range(1, k + 1))] + [(0,)] * k))


def test_rung_skips_refuted_blocks(monkeypatch):
    # K_{1,8} in one-end mode has 8 * 2^9 vectors, whose digits are the
    # hub's break, the leaves' breaks (each of radix 1), then the end bits
    # of vertices 8, 7, ..., 0. Its ladder: the rungs of 8 and 9 digits,
    # the hub with leaves 1..7, then all 9 vertices, both without apex
    # edges, read only the hub's break, the most significant digit: a block
    # of 512 indices per break. The rung of 9 + j digits, j = 4, 8, 9, adds
    # apex edges for the vertices 9-j..8, whose end bits are the most
    # significant, so it fixes blocks of 2^(9-j) indices. A scripted test
    # per diagram, told apart by node count (a hubless crossing has 4 nodes,
    # and only end-bit rungs have an apex) and by edge count, makes the
    # first rung non-planar at the hub's breaks 2 and 5, the rung of 13
    # digits non-planar where the end bits of vertices 5..8 read 5, the
    # other rungs always planar and the gadget diagram never, so the scan
    # covers all 4096 indices. Contracted, every rim of an end-bit rung is
    # one node, as each leaf's curve has a dead arm: the hub's path keeps
    # its 7 edges between rims, and a tipped leaf its edge to the picked end
    # and that end's apex edge, so the rung of 13 digits has 7 + 2 * 4
    # edges (that of 17 has 23, that of 18 25)
    pg = star_plane(8)
    rungs = oracle._Task(pg, ONE_END).rungs
    assert [(r.d, r.keep, sorted(r.tips), r.span) for r in rungs] == (
        [(8, list(range(8)), [], 512)]
        + [(9 + j, list(range(9)), list(range(9 - j, 9)), 512 >> j) for j in (0, 4, 8, 9)])
    prefix_nodes, rung_nodes = 2 * 8 + 4 * 7, 2 * 9 + 4 * 8
    gadget_nodes = 2 * 9 + 5 * 8 + 1
    scanned, gadget_at = [], []
    realizable = oracle._realizable

    def recording(task, idx):
        scanned.append(idx)
        return realizable(task, idx)

    def fake(n, edges):
        if n == prefix_nodes:
            return scanned[-1] // 512 not in (2, 5)
        if n == rung_nodes + 1 and len(edges) == 7 + 2 * 4:
            return scanned[-1] % 512 // 32 != 5
        if n == gadget_nodes:
            gadget_at.append(scanned[-1])
            return False
        return True

    monkeypatch.setattr(oracle, "_realizable", recording)
    monkeypatch.setattr(oracle, "is_planar_edges", fake)
    v = enumerate_breaks(pg, ONE_END, chunk=1000)
    # a refutation at a block's first index resumes the scan at the next
    # block, clamped to the range's end: hub block 2 at 1024, and hub block
    # 5 at 2560 and again, a memo hit, at the range start 3000; the rung of
    # 13 digits skips the 31 indices after each start of its block, 160 into
    # every hub block that the first rung leaves
    skipped = {*range(1025, 1536), *range(2561, 3000), *range(3001, 3072)}
    skipped.update(i for b in (0, 1, 3, 4, 6, 7) for i in range(512 * b + 161, 512 * b + 192))
    assert scanned == [i for i in range(4096) if i not in skipped]
    gadget_at_want = [i for i in range(4096) if i // 512 not in (2, 5) and i % 512 // 32 != 5]
    assert gadget_at == gadget_at_want
    assert (v.status, v.tried, v.total) == ("no", 4096, 4096)
    # the memo tests the first rung 7 times, as breaks 0 and 7 both start at
    # leaf 1 when leaf 8 is not kept; per hub break that it leaves, the rung
    # of 9 digits is tested once, and that of 9 + j digits once per value of
    # the top j end bits, 2^j, less for j > 4 the 2^(j-4) values under the
    # refutation of the rung of 13 digits
    per_break = 1 + sum(2 ** j - (2 ** (j - 4) if j > 4 else 0) for j in (4, 8, 9))
    assert v.counters == {"planarity_calls": 7 + 6 * per_break + len(gadget_at_want),
                          "shortcut_attempts": 6 * per_break, "shortcut_hits": 6,
                          "prefix_attempts": 7, "prefix_hits": 2}


def induced(pg, keep, breaks, ends):
    """The plane graph induced on the sorted vertex list `keep`, renumbered
    in that order, with each kept vertex's break moved to its first kept
    neighbour at or after the break, and its end bit."""
    g, rot = pg.graph, pg.rot
    loc = {v: i for i, v in enumerate(keep)}
    sub = PlaneGraph(
        Graph(len(keep), [(loc[u], loc[v]) for u, v in g.edges if u in loc and v in loc]),
        RotationScheme([[loc[w] for w in rot.order[v] if w in loc] for v in keep]))
    sub_breaks = []
    for v in keep:
        cyc = rot.order[v]
        kept = [w for w in cyc[breaks[v]:] + cyc[:breaks[v]] if w in loc]
        sub_breaks.append(sub.rot.order[loc[v]].index(loc[kept[0]]) if kept else 0)
    return sub, sub_breaks, [ends[v] for v in keep]


def canonical_order(g):
    """The vertices, the highest degree first and the least id on ties."""
    return sorted(range(g.n), key=lambda v: (-max(1, g.degree(v)), v))


def ladder(pg, mode):
    """The search's rungs as (sorted vertex set, tipped vertices) pairs,
    checked against their definition. An index's digits are the breaks in
    canonical order, then in one-end mode the end bits of vertices n-1,
    n-2, ..., 0, and the rung of d digits keeps the vertices among them and
    tips those whose end bits are among them, or every kept vertex in
    both-ends mode. The ladder has d = 8, 16, 32, ... (fewer than n), then
    n, and in one-end mode n + j for j = 4, 8, 16, ... (fewer than n), then
    n, where the kept vertices span an edge. A rung's span is the product
    of the radices of the digits after its d; a rung that tips no vertex is
    laid out as in base mode, with no apex."""
    g = pg.graph
    n = g.n
    order = canonical_order(g)
    task = oracle._Task(pg, mode)
    assert n <= 128
    counts = [k for k in (8, 16, 32, 64) if k < n] + [n]
    if mode == ONE_END:
        counts += [n + j for j in (4, 8, 16, 32, 64) if j < n] + [2 * n]
    rungs = [(d, sorted(order[:d]), list(range(2 * n - d, n)) if mode == ONE_END else order[:d])
             for d in counts]
    rungs = [(d, keep, sorted(tips)) for d, keep, tips in rungs
             if any(u in keep and v in keep for u, v in g.edges)]
    assert rungs == [(rung.d, rung.keep, sorted(rung.tips)) for rung in task.rungs]
    for (d, keep, tips), rung in zip(rungs, task.rungs):
        radices = [max(1, g.degree(v)) for v in order] + [2] * n * (mode == ONE_END)
        assert rung.span == math.prod(radices[d:])
        assert rung.diagram == oracle._Task(pg, mode if tips else None).layout(keep, tips)
    return [(keep, tips) for _, keep, tips in rungs]


def diagram(pg, breaks, ends, mode, gadgets, plain=False, tipped=None):
    """(node count, edges) of H by its definition: curve v from node 2v to
    2v+1, and edge j a crossing whose rim is the 4-cycle from node 2n+4j;
    the curve enters the rim at its first node (v < w) or its second (v > w)
    and leaves two nodes on. With `plain`, edge j is one crossing node 2n+j
    instead. The apex follows, joined to the vertices in `tipped` (all by
    default), and there is none if it has no edge. With `gadgets`, the hub
    of rim j comes after every other node, joined to the rim's four nodes.
    This is the uncontracted diagram; `contracted` reduces it to the one
    that `_Task.edges` builds."""
    g, rot = pg.graph, pg.rot
    n, m = g.n, g.edge_count
    eid = {e: j for j, e in enumerate(g.edges)}
    tipped = range(n) if tipped is None else sorted(tipped)
    width = 1 if plain else 4
    apex = 2 * n + width * m
    nodes = apex + (mode is not None and len(tipped) > 0)
    edges = []
    if not plain:
        for x in range(2 * n, apex, 4):
            rim = [x, x + 1, x + 2, x + 3]
            edges += list(zip(rim, rim[1:] + rim[:1]))
    if mode == BOTH_ENDS:
        edges += [(apex, 2 * v + e) for v in tipped for e in (0, 1)]
    if gadgets:
        edges += [(nodes + j, 2 * n + 4 * j + i) for j in range(m) for i in range(4)]
    for v in range(n):
        cyc, b = rot.order[v], breaks[v]
        p = 2 * v
        for w in cyc[b:] + cyc[:b]:
            x = 2 * n + width * eid[(min(v, w), max(v, w))]
            if not plain:
                x += v > w
            edges.append((p, x))
            p = x if plain else x + 2
        edges.append((p, 2 * v + 1))
        if mode == ONE_END and v in tipped:
            edges.append((apex, 2 * v + ends[v]))
    return nodes + m * gadgets, edges


def contracted(n, m, diagram, hubs=False):
    """A reference `diagram` of n curves and m rims, contracted: delete the
    edge to each leaf end, an end node with one edge, and merge each rim
    with a dead arm, one whose node that edge joined, into the rim's first
    node, with its hub (the m last nodes) with `hubs`. Returns the node
    count and the set of edges, each a sorted pair, that remain."""
    nodes, edges = diagram
    degree = collections.Counter(x for e in edges for x in e)
    leaves = {x for x in range(2 * n) if degree[x] == 1}
    at = list(range(nodes))
    for a, b in edges:
        x = a if b in leaves else b  # the node that a dead arm leaves
        if {a, b} & leaves and 2 * n <= x < 2 * n + 4 * m:
            first = x - (x - 2 * n) % 4
            for y in range(first, first + 4):
                at[y] = first
            if hubs:
                at[nodes - m + (x - 2 * n) // 4] = first
    kept = {tuple(sorted((at[a], at[b]))) for a, b in edges if not {a, b} & leaves}
    return nodes, {e for e in kept if e[0] != e[1]}


def same_contracted(got, n, m, reference, hubs=False):
    """`got`, a (node count, edge list) that the oracle built, is the
    contraction of the reference diagram, with no edge listed twice, and
    has the reference's planarity, which it returns."""
    nodes, edges = got
    assert len({tuple(sorted(e)) for e in edges}) == len(edges)
    assert (nodes, {tuple(sorted(e)) for e in edges}) == contracted(n, m, reference, hubs)
    planar = is_planar_edges(*got)
    assert planar == is_planar_edges(*reference)
    return planar


def entries(laid_out, keep, breaks, ends):
    """The row entries of the vertices in `keep` for one vector."""
    rows = laid_out[3]
    return [rows[v][breaks[v]][ends[v]] for v in keep]


def check_induced(pg, mode, rungs, vectors):
    """The hubless diagram that `_Task.layout` lays out for each (vertex
    set, tipped vertices) in `rungs`, for each (breaks, ends), is the
    contraction of the diagram of the induced plane graph with the same
    port rule and apex edges for the same vertices, and refutes only
    vectors that the gadget diagram, checked against its definition,
    refutes. Returns, per vector, the sizes of the refuting sets."""
    task = oracle._Task(pg, mode)
    n, m = pg.graph.n, pg.graph.edge_count
    cases = []
    for keep, tips in rungs:
        keep = sorted(keep)
        tipped = [i for i, v in enumerate(keep) if v in tips]  # numbered as in the induced graph
        cases.append((keep, tipped, task.layout(keep, tips)))
    refuting = []
    for breaks, ends in vectors:
        gadget = same_contracted(task.gadget_edges(breaks, ends), n, m,
                                 diagram(pg, breaks, ends, mode, True), hubs=True)
        sizes = []
        for keep, tipped, laid_out in cases:
            got = task.edges(laid_out, entries(laid_out, keep, breaks, ends))
            sub = induced(pg, keep, breaks, ends)
            if not same_contracted(got, len(keep), sub[0].graph.edge_count,
                                   diagram(*sub, mode, False, tipped=tipped)):
                sizes.append(len(keep))
        if sizes:
            assert not gadget
        refuting.append(sizes)
    return refuting


def random_vectors(pg, count, rng):
    g = pg.graph
    return [([rng.randrange(max(1, g.degree(v))) for v in range(g.n)],
             [rng.randrange(2) for _ in range(g.n)]) for _ in range(count)]


@pytest.mark.parametrize("mode", [None, BOTH_ENDS, ONE_END])
def test_local_diagram_atlas(mode):
    # every proper prefix of the canonical order, which a prefix search
    # would test, and the ladder; a rung of fewer than n vertices needs
    # n >= 9, so an atlas graph with an edge has the rung of n digits, all
    # its vertices, and in one-end mode the rungs of n + 4 (if n > 4) and
    # 2n digits after it
    rng = random.Random(4)
    isolated = refuted = 0
    for pg in atlas_plane_graphs(6):
        g = pg.graph
        rungs = ladder(pg, mode)
        assert [len(keep) for keep, _ in rungs] == [g.n] * bool(g.edges) * (
            1 + len({min(4, g.n), g.n}) if mode == ONE_END else 1)
        vectors = random_vectors(pg, 12, rng)
        check_induced(pg, mode, rungs, vectors)
        keeps = [canonical_order(g)[:k] for k in range(1, g.n)]
        refuting = check_induced(pg, mode, [(keep, keep) for keep in keeps], vectors)
        # the ladder leaves out a prefix with no edge: it never refutes
        spans = [any(u in keep and v in keep for u, v in g.edges) for keep in keeps]
        assert all(spans[k - 1] for sizes in refuting for k in sizes)
        # a kept vertex with no kept neighbour has one row for every break
        isolated += sum(any(not set(g.adj[v]) & set(keep) for v in keep)
                        for keep, spanned in zip(keeps, spans) if spanned)
        refuted += sum(bool(sizes) for sizes in refuting)
    assert isolated > 0 and refuted > 0, (isolated, refuted)


@pytest.mark.parametrize("mode", [None, BOTH_ENDS, ONE_END])
def test_layout_every_vertex_set(mode):
    # every non-empty vertex set, not only prefixes: a search over sets
    # with breaks lays out arbitrary ones, with either port rule
    rng = random.Random(5)
    sets = 0
    for pg in atlas_plane_graphs(5):
        n = pg.graph.n
        keeps = [keep for k in range(1, n + 1) for keep in itertools.combinations(range(n), k)]
        vectors = random_vectors(pg, 6, rng)
        # the hubless diagram with every apex edge and with those of a
        # random tail of the vertices
        for t in (0, rng.randrange(n + 1)):
            check_induced(pg, mode, [(keep, range(t, n)) for keep in keeps], vectors)
        sets += len(keeps)
    assert sets == 1223  # 51 graphs: 1 + 2 * 3 + 4 * 7 + 11 * 15 + 33 * 31


@pytest.mark.parametrize("seed", [1, 7])
def test_local_diagram_thm2(seed):
    # a rung of at most 16 vertices refutes every sample
    pg = triple_stellation(random_planar_3tree(6, seed))
    vectors = random_vectors(pg, 50, random.Random(seed))
    refuting = check_induced(pg, None, ladder(pg, None), vectors)
    assert all(sizes and min(sizes) <= 16 for sizes in refuting), refuting


def brute_force(pg, mode, decide=None, limit=None):
    """The verdict fields of a linear scan of the first `limit` vectors (or
    all) in canonical order: the highest-degree vertex is the most
    significant digit, and in one-end mode the end bits (bit v for vertex v)
    are less significant still. `decide(breaks, ends)` decides a vector;
    by default it is decide_fixed."""
    g = pg.graph
    if decide is None:
        def decide(breaks, ends):
            return decide_fixed(pg, breaks, mode, end_choice=ends)
    deg = [max(1, g.degree(v)) for v in range(g.n)]
    dv = sorted(range(g.n), key=lambda v: (-deg[v], v))
    end_vectors = ([None] if mode != ONE_END else
                   [tuple((bits >> v) & 1 for v in range(g.n)) for bits in range(1 << g.n)])
    tried = 0
    for digits in itertools.product(*(range(deg[v]) for v in dv)):
        breaks = [0] * g.n
        for v, d in zip(dv, digits):
            breaks[v] = d
        for ends in end_vectors:
            if tried == limit:
                return "unknown", None, None, tried
            tried += 1
            if decide(breaks, ends):
                return "yes", tuple(breaks), ends, tried
    return "no", None, None, tried


def index(task, breaks, ends):
    """The index of a vector in canonical order, as `brute_force` counts:
    the break digits, the highest-degree vertex most significant, then in
    one-end mode the end bits, bit v for vertex v."""
    g = task.pg.graph
    idx = 0
    for v in canonical_order(g):
        idx = idx * max(1, g.degree(v)) + breaks[v]
    if task.one_end:
        idx = idx << g.n | sum(e << v for v, e in enumerate(ends))
    return idx


def atlas_plane_graphs(max_n):
    from networkx.generators.atlas import graph_atlas_g

    out = []
    for G in graph_atlas_g():
        if not 1 <= G.number_of_nodes() <= max_n:
            continue
        g = Graph(G.number_of_nodes(), [tuple(e) for e in G.edges()])
        ok, rot = is_planar(g)
        if ok:
            out.append(PlaneGraph(g, rot))
    return out


EVERY_RUN = tuple(itertools.product((1, 2), (1, 7, 2048)))  # (jobs, chunk)


def gadget_decide(pg, mode):
    """A `decide` for brute_force by decide_fixed's definition, planarity of
    the gadget diagram, laid out once for every vector."""
    task = oracle._Task(pg, mode)
    return lambda breaks, ends: is_planar_edges(*task.gadget_edges(breaks, ends or [0] * task.n))


def check_against_brute_force(pg, mode, runs=EVERY_RUN, decide=None):
    """The searches with each (jobs, chunk) in `runs` against the linear
    scan of `decide`, by default decide_fixed; returns the last verdict."""
    want = brute_force(pg, mode, decide)
    for jobs, chunk in runs:
        v = enumerate_breaks(pg, mode, jobs=jobs, chunk=chunk)
        assert (v.status, v.witness, v.witness_ends, v.tried) == want, (jobs, chunk)
        c = v.counters
        # a vector reaches the gadget test only past the last rung, that of
        # all vertices with every apex edge: span 1, so it is never a memo
        # hit. In base and both-ends mode it is the only rung that keeps
        # every vertex, so each of its misses is followed by one gadget
        # test; with no edge there is no rung
        gadget = c["planarity_calls"] - c["prefix_attempts"] - c["shortcut_attempts"]
        if not pg.graph.edges:
            # with two workers, worker 1 may test a vector past the hit
            # before the caller records it
            assert c["planarity_calls"] == gadget
            assert gadget == v.tried if jobs == 1 else gadget >= v.tried
        elif mode == ONE_END:
            assert v.status == "no" or gadget > 0
            assert gadget <= c["shortcut_attempts"] - c["shortcut_hits"]
        else:
            assert gadget == c["shortcut_attempts"] - c["shortcut_hits"]
    return v


@pytest.mark.parametrize("mode", [None, BOTH_ENDS, ONE_END])
def test_enumerate_matches_brute_force_atlas(mode):
    # every planar atlas graph with n <= 6, then those with n = 7; no graph
    # with n = 6 is a NO in one-end mode. The linear scans decide by one
    # task's gadget diagram per graph; test_gadget_hubless_plain_chain checks
    # decide_fixed, a task per vector, against the definition
    graphs = atlas_plane_graphs(7)
    small = [pg for pg in graphs if pg.graph.n <= 5]
    assert len(small) == 51  # every graph on 1..5 vertices but K5
    for pg in small:
        check_against_brute_force(pg, mode, decide=gadget_decide(pg, mode))
    six = [check_against_brute_force(pg, mode, ((1, 7),), gadget_decide(pg, mode))
           for pg in graphs if pg.graph.n == 6]
    assert len(six) == 142
    assert sum(v.status == "no" for v in six) == {None: 0, BOTH_ENDS: 16, ONE_END: 0}[mode]
    # n = 7: every graph in base mode, where all are YES; in the outer
    # modes, whose searches over all 822 graphs take minutes, a sample in
    # which both-ends mode has NO verdicts
    seven = [pg for pg in graphs if pg.graph.n == 7]
    assert len(seven) == 822
    if mode is not None:
        seven = random.Random(7).sample(seven, 40)
    seven = [check_against_brute_force(pg, mode, ((1, 7),), gadget_decide(pg, mode))
             for pg in seven]
    if mode is None:
        assert sum(v.tried for v in seven) == 5464
    assert (sum(v.status == "no" for v in seven) > 0) == (mode == BOTH_ENDS)


def bowtie_plane():
    """Two triangles joined by the edge 0-3. In base mode the vectors with
    breaks 0 at both bridge ends, the first 16, are the only unrealizable
    ones; the rotations of 0 and 3 are listed from there."""
    return PlaneGraph(Graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4), (3, 5), (4, 5)]),
                      RotationScheme([(2, 3, 1), (0, 2), (1, 0), (5, 0, 4), (3, 5), (4, 3)]))


def test_enumerate_matches_brute_force_mixed_hits():
    # W_4 both-ends: the hubless diagram refutes the first 29 vectors and
    # misses the witness, the 30th
    v = check_against_brute_force(wheel(4), BOTH_ENDS)
    assert (v.status, v.tried) == ("yes", 30)
    c = enumerate_breaks(wheel(4), BOTH_ENDS).counters
    assert 0 < c["shortcut_hits"] == c["shortcut_attempts"] - 1 == v.tried - 1
    # the bowtie in base mode: the first 16 vectors share the bridge ends'
    # break pair that the gadget diagram refutes and the hubless one does
    # not, and the 17th is a witness
    v = check_against_brute_force(bowtie_plane(), None)
    assert (v.status, v.tried) == ("yes", 17)
    c = enumerate_breaks(bowtie_plane(), None).counters
    assert c["shortcut_attempts"] == 17 and c["shortcut_hits"] == 0


@pytest.mark.parametrize("mode", [None, BOTH_ENDS, ONE_END])
def test_gadget_hubless_plain_chain(monkeypatch, mode):
    # every vector of the planar atlas graphs with n <= 5: the hubless
    # diagram is a minor of the gadget diagram and has the plain diagram as
    # a minor, so a planar gadget diagram has a planar hubless one, and a
    # planar hubless diagram a planar plain one; and decide_fixed, which
    # tests the contracted gadget diagram, is the definition, the planarity
    # of the uncontracted one, with a ladder that raises if read, so no
    # ladder changes it
    def no_ladder(task):
        raise AssertionError("decide_fixed read the ladder")

    patch_ladder(monkeypatch, no_ladder)
    vectors = hubless_planar = 0
    for pg in atlas_plane_graphs(5):
        n = pg.graph.n
        task = oracle._Task(pg, mode)
        hubless = task.layout(range(n), range(n))
        end_vectors = ([[(bits >> v) & 1 for v in range(n)] for bits in range(1 << n)]
                       if mode == ONE_END else [[0] * n])
        for breaks in itertools.product(*(range(d) for d in task.degrees)):
            for ends in end_vectors:
                vectors += 1
                gadget = decide_fixed(pg, breaks, mode, ends)
                assert gadget == is_planar_edges(*diagram(pg, breaks, ends, mode, True))
                if is_planar_edges(*task.edges(hubless, entries(hubless, range(n), breaks, ends))):
                    hubless_planar += 1
                    assert is_planar_edges(*diagram(pg, breaks, ends, mode, False, plain=True))
                else:
                    assert not gadget
    assert (vectors, hubless_planar) == {None: (2527, 2157), BOTH_ENDS: (2527, 431),
                                         ONE_END: (77850, 22838)}[mode]


@pytest.mark.parametrize("mode", [None, BOTH_ENDS, ONE_END])
def test_gadget_is_last_rung_plus_hubs(mode):
    # the planar atlas graphs with n <= 5, every break vector with random
    # end bits: the gadget diagram is laid out on its own, as the hubless
    # diagram of all vertices with every apex edge plus hub j after every
    # other node, joined to the four nodes of each rim j that the hubless
    # diagram keeps whole, so deleting the hubs leaves it. The top rung,
    # that of every digit, is that hubless diagram; a graph with no edge has
    # no rung and no rim. In both-ends mode the hubless diagram joins every
    # curve end to the apex, so it merges no rim
    rng = random.Random(6)
    edgeless = whole = merged = 0
    for pg in atlas_plane_graphs(5):
        n, m = pg.graph.n, pg.graph.edge_count
        task = oracle._Task(pg, mode)
        hubless = task.layout(range(n), range(n))
        nodes, static, _, rows = hubless
        assert task.gadget[0] == nodes + m and task.gadget[1] == static
        assert task.gadget[3] == rows
        if m:
            top = task.rungs[-1]
            assert (top.d, top.keep, top.diagram) == (len(task.digits), list(range(n)), hubless)
        else:
            edgeless += 1
            assert not task.rungs and task.gadget == hubless
        for breaks in itertools.product(*(range(d) for d in task.degrees)):
            ends = [rng.randrange(2) for _ in range(n)]
            _, hubless_edges = task.edges(hubless, entries(hubless, range(n), breaks, ends))
            kept = [j for j in range(m) if (2 * n + 4 * j, 2 * n + 4 * j + 1) in hubless_edges]
            spokes = [(nodes + j, 2 * n + 4 * j + i) for j in kept for i in range(4)]
            got_nodes, got_edges = task.gadget_edges(breaks, ends)
            assert got_nodes == nodes + m
            assert sorted(got_edges) == sorted(hubless_edges + spokes)
            whole += len(kept)
            merged += m - len(kept)
    assert edgeless == 5 and whole > 0 and (merged > 0) == (mode != BOTH_ENDS)


@pytest.mark.parametrize("mode", [None, BOTH_ENDS, ONE_END])
def test_rung_reads_digits_from_index(mode):
    # the rung of d digits reads its vertices' breaks, and for d > n the
    # end bits among its digits, from the quotient of an index by its span:
    # on random indices the row entries that each rung reads are those of
    # the fully decoded vector, its vertices taken the least significant
    # digit first
    rng = random.Random(9)
    prefix = end_bit = 0
    thm2 = triple_stellation(random_planar_3tree(6, 1))
    for pg in (wheel(9), random_planar_3tree(10, 1), star_plane(8), thm2):
        task = oracle._Task(pg, mode)
        digits = canonical_order(pg.graph)[::-1]
        prefix += sum(rung.d < task.n for rung in task.rungs)
        end_bit += sum(rung.d > task.n for rung in task.rungs)
        for _ in range(60):
            idx = rng.randrange(task.total)
            breaks, ends = task.decode(idx)
            assert index(task, breaks, ends) == idx
            for rung in task.rungs:
                keep = [v for v in digits if v in rung.keep]
                assert rung.read(idx) == tuple(entries(rung.diagram, keep, breaks, ends))
    assert prefix >= 4 and (end_bit > 0) == (mode == ONE_END)


def patch_ladder(monkeypatch, ladder):
    """Make `ladder(task)` the rungs of every new task."""
    rungs = functools.cached_property(ladder)
    rungs.__set_name__(oracle._Task, "rungs")
    monkeypatch.setattr(oracle._Task, "rungs", rungs)


@pytest.mark.parametrize("mode", [None, BOTH_ENDS, ONE_END])
def test_ladder_changes_no_verdict(monkeypatch, mode):
    # the rungs only refute what the gadget diagram refutes, and the gadget
    # diagram is laid out without them: with the rungs that read end bits
    # dropped, or with a rung at every digit count from 2 up, every vector
    # of the planar atlas graphs with n <= 5 has the same gadget diagram,
    # and each search the same verdict fields. decide_fixed reads no
    # ladder at all (test_gadget_hubless_plain_chain)
    graphs = atlas_plane_graphs(5)
    want = []
    for pg in graphs:
        task = oracle._Task(pg, mode)
        vectors = list(itertools.product(
            itertools.product(*(range(d) for d in task.degrees)),
            itertools.product((0, 1), repeat=task.n) if mode == ONE_END else [[0] * task.n]))
        v = enumerate_breaks(pg, mode)
        want.append((vectors, [task.gadget_edges(*vector) for vector in vectors],
                     (v.status, v.witness, v.witness_ends, v.tried)))
    rungs = oracle._Task.rungs.func
    for ladder in (lambda task: [rung for rung in rungs(task) if rung.d <= task.n],
                   lambda task: [oracle._Rung(task, d) for d in range(2, len(task.digits) + 1)]):
        patch_ladder(monkeypatch, ladder)
        for pg, (vectors, gadgets, verdict) in zip(graphs, want, strict=True):
            task = oracle._Task(pg, mode)
            assert [task.gadget_edges(*vector) for vector in vectors] == gadgets
            v = enumerate_breaks(pg, mode)
            assert (v.status, v.witness, v.witness_ends, v.tried) == verdict


def test_gadget_builds_no_ladder():
    # decide_fixed tests the gadget diagram, which is laid out on its own
    for mode in (None, BOTH_ENDS, ONE_END):
        task = oracle._Task(wheel(4), mode)
        task.gadget_edges([0] * task.n, [1] * task.n)
        assert "gadget" in vars(task) and "rungs" not in vars(task)


def test_limit_past_the_space_decides():
    # a limit at least the size of the space tries every vector
    want = brute_force(wheel(5), BOTH_ENDS, limit=10**6)
    assert want == ("no", None, None, 1215)
    for limit in (1215, 10**6):
        v = enumerate_breaks(wheel(5), BOTH_ENDS, limit=limit)
        assert (v.status, v.witness, v.witness_ends, v.tried, v.total) == (*want, 1215)
    v = enumerate_breaks(wheel(5), BOTH_ENDS, limit=1214)
    assert (v.status, v.tried, v.total) == ("unknown", 1214, 1215)


def block_cases(mode):
    """(plane graph, limit or None) per differential case of `mode`."""
    cycle = Graph(10, [(i, (i + 1) % 10) for i in range(10)] + [(0, 5)])
    cycle = PlaneGraph(cycle, is_planar(cycle)[1])
    return {
        None: [(random_planar_3tree(9, 1), 6000), (random_planar_3tree(10, 1), 1500),
               (star_plane(8), None)],
        BOTH_ENDS: [(wheel(8), 1500), (random_planar_3tree(9, 2), 1500), (cycle, None),
                    (star_plane(8), None)],
        ONE_END: [(wheel(9), None), (random_planar_3tree(9, 1), 3000), (cycle, None),
                  (star_plane(8), None)],
    }[mode]


@pytest.mark.parametrize("mode", [None, BOTH_ENDS, ONE_END])
def test_blocks_match_linear_scan(mode):
    # graphs with 9 to 12 vertices, where the ladder has rungs, against a
    # linear scan that decides each vector by planarity of the gadget
    # diagram by its definition, over the first `limit` vectors where the
    # space is large; the pruned scans skip blocks, so they test fewer
    # diagrams than the reference decides vectors
    tested = decided = 0
    for pg, limit in block_cases(mode):
        g = pg.graph
        assert 9 <= g.n <= 12 and ladder(pg, mode)

        def decide(breaks, ends):
            return is_planar_edges(*diagram(pg, breaks, ends or [0] * g.n, mode, True))

        want = brute_force(pg, mode, decide, limit)
        for jobs, chunk in ((1, 2048), (2, 7)):
            v = enumerate_breaks(pg, mode, jobs=jobs, chunk=chunk, limit=limit)
            assert (v.status, v.witness, v.witness_ends, v.tried) == want, (g.n, jobs, chunk)
        tested += v.counters["planarity_calls"]
        decided += v.tried
        if v.status == "yes":
            # the vectors that differ from the witness at one vertex u share
            # every other row, so one task's rung memos must tell them
            # apart; the witness's own break at u comes last
            ends = list(v.witness_ends or [0] * g.n)
            for u in range(g.n):
                task = oracle._Task(pg, mode)
                for b in sorted(range(max(1, g.degree(u))), key=lambda b: b == v.witness[u]):
                    breaks = list(v.witness)
                    breaks[u] = b
                    step = oracle._realizable(task, index(task, breaks, ends))
                    assert (step == 0) == decide(breaks, ends)
    assert tested < decided, (tested, decided)


STRESS = """
import os
from strandkit.families import wheel
from strandkit.oracle import BOTH_ENDS, enumerate_breaks

pg = wheel(4)
want = enumerate_breaks(pg, BOTH_ENDS)
assert want.status == "yes" and want.tried > 7
for r in range(40):
    v = enumerate_breaks(pg, BOTH_ENDS, jobs=(os.cpu_count() or 1) + 1, chunk=1 + r % 3)
    assert (v.status, v.witness, v.tried) == (want.status, want.witness, want.tried), r
"""


def test_parallel_early_hit_stress():
    # more workers than cores, each search ending on a hit while later ranges
    # still run: every search must end, and stopping the ranges after the hit
    # must not touch the ranges before it
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(strandkit.__file__)))
    subprocess.run([sys.executable, "-c", STRESS], env=env, timeout=120, check=True)


HUGE_SPACE = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (600 * 2**20, 600 * 2**20))
from strandkit.families import random_maximal_outerplanar
from strandkit.oracle import enumerate_breaks

v = enumerate_breaks(random_maximal_outerplanar(30, 1), None, jobs=int(sys.argv[1]))
print(v.status, v.tried, v.total)
"""


@pytest.mark.parametrize("jobs", [1, 2])
def test_exhaustive_search_of_huge_space_stops_at_first_hit(jobs):
    # ~10^15 vectors, the first one realizable: the search must return at
    # once under a 600 MB address-space cap, so its chunk ranges cannot be
    # listed up front, nor drained after the hit
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(strandkit.__file__)))
    out = subprocess.run([sys.executable, "-c", HUGE_SPACE, str(jobs)], env=env,
                         timeout=60, check=True, capture_output=True, text=True).stdout
    g = random_maximal_outerplanar(30, 1).graph
    total = math.prod(g.degree(v) for v in range(g.n))
    assert out.split() == ["yes", "1", str(total)]


def test_two_worker_counters_without_hit_repeat():
    # static stripes: with no hit, which chunks a worker scans, and so what
    # its rung memos hold, does not depend on timing
    thm2 = triple_stellation(random_planar_3tree(6, 1))
    for search in (lambda: enumerate_breaks(extended_wheel(3), BOTH_ENDS, jobs=2, chunk=64),
                   lambda: enumerate_breaks(thm2, None, budget=128, jobs=2, chunk=32)):
        first, again = search(), search()
        assert first.witness is None and first.counters == again.counters


HYGIENE = """
import atexit, os
from strandkit import oracle
from strandkit.errors import StrandkitError
from strandkit.families import extended_wheel, random_planar_3tree, triple_stellation, wheel
from strandkit.oracle import BOTH_ENDS, enumerate_breaks


def all_reaped():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


atexit.register(print, "atexit")
print("buffered")  # stdout is a pipe: the line stays in the buffer across the forks
thm2 = triple_stellation(random_planar_3tree(6, 1))
for pg, mode, kwargs, status in ((wheel(4), BOTH_ENDS, {"chunk": 1}, "yes"),
                                 (extended_wheel(3), BOTH_ENDS, {"chunk": 7}, "no"),
                                 (thm2, None, {"budget": 64, "chunk": 16}, "unknown")):
    assert enumerate_breaks(pg, mode, jobs=2, **kwargs).status == status
    assert all_reaped()

caller, realizable = os.getpid(), oracle._realizable
for in_child in (True, False):
    def realizable_or_raise(*args, in_child=in_child):
        if (os.getpid() != caller) == in_child:
            raise RuntimeError("injected")
        return realizable(*args)

    oracle._realizable = realizable_or_raise
    try:  # a scan of the whole Thm-2 space would not end
        enumerate_breaks(thm2, None, jobs=2)
    except StrandkitError as exc:
        assert in_child and str(exc) == "search worker 1 failed: RuntimeError: injected", exc
    except RuntimeError:
        assert not in_child
    else:
        raise AssertionError("no error")
    assert all_reaped()
"""


def test_search_workers_exit_cleanly():
    # two-worker searches that end on a hit, with no hit, on samples, and
    # with worker 1 or the caller raising while the other worker scans an
    # endless space: each returns or raises, leaves no child unreaped, and
    # no child flushes the caller's stdout buffer or runs its atexit hooks
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(strandkit.__file__)))
    out = subprocess.run([sys.executable, "-c", HYGIENE], env=env, timeout=120, check=True,
                         capture_output=True, text=True).stdout
    assert out == "buffered\natexit\n"
