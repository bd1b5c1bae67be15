import random
from fractions import Fraction as F

import pytest

from strandkit.families import random_partial_2tree, subdivided_k23
from strandkit.geom import (
    Curve,
    StringRep,
    crossing_profile,
    verify_1string,
    verify_order_preserving,
)
from strandkit.graphs import Graph, euler_check
from strandkit.sp import (
    _arm_contacts,
    _axis,
    audit_contacts,
    build_sp,
    build_touching_L,
    derive_embedding,
    extend_to_1string,
)


def _ref_extend_to_1string(tb, g):
    """Reference extension: each end's obstacle is the least corner over a
    scan of every L."""
    fill = set(tb.elim.fill_edges)
    corner = {v: l.corner for v, l in tb.ls.items()}
    ends = {v: [l.right_end[0], l.top[1]] for v, l in tb.ls.items()}
    on_arm = _arm_contacts(tb)
    contacts = sorted(tb.contacts.items())
    for key, c in contacts:
        if key in fill:
            v, k = c.toucher, _axis(c)
            below = max([corner[v][k]] + [x for x, _w in on_arm[v][k]])
            ends[v][k] = (ends[v][k] + below) / 2
    for key, c in contacts:
        if key in fill:
            continue
        v, k = c.toucher, _axis(c)
        line, end = corner[v][1 - k], ends[v][k]
        beyond = [
            cw[k]
            for w, cw in corner.items()
            if w != v and cw[k] > end and cw[1 - k] <= line <= ends[w][1 - k]
        ]
        ends[v][k] = end + ((min(beyond) - end) / 2 if beyond else F(1))
    curves = {}
    for v in range(g.n):
        (x, y), (right_x, top_y) = corner[v], ends[v]
        curves[v] = Curve(v, ((x, top_y), (x, y), (right_x, y)))
    return StringRep(curves, None)


def verify_build(g):
    sb = build_sp(g)
    audit_contacts(sb.touching)
    assert euler_check(sb.completed_plane.graph, sb.completed_plane.rot)
    assert euler_check(g, sb.plane.rot)
    prof = crossing_profile(sb.rep)
    assert verify_1string(sb.rep, g, prof).ok
    assert verify_order_preserving(sb.rep, sb.plane, profile=prof).ok
    for c in sb.rep.curves.values():
        assert len(c.points) == 3 and c.bend_count() == 1
        (t, corner, r) = c.points
        assert t[0] == corner[0] and t[1] > corner[1]     # vertical arm up
        assert r[1] == corner[1] and r[0] > corner[0]     # horizontal arm right
    return sb


def test_base_edge_two_ls():
    tb = build_touching_L(Graph(2, [(0, 1)]))
    assert len(tb.ls) == 2 and len(tb.contacts) == 1
    audit_contacts(tb)


def test_k3_three_contacts():
    tb = build_touching_L(Graph(3, [(0, 1), (1, 2), (0, 2)]))
    assert len(tb.contacts) == 3
    audit_contacts(tb)
    verify_build(Graph(3, [(0, 1), (1, 2), (0, 2)]))


def test_fan_nested_slots():
    # three vertices attached to the same base edge of a 2-tree
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)])
    tb = build_touching_L(g)
    audit_contacts(tb)
    assert len(tb.contacts) == g.edge_count
    verify_build(g)


def test_two_touching_ls_extend_to_crossing():
    g = Graph(2, [(0, 1)])
    tb = build_touching_L(g)
    rep = extend_to_1string(tb, g)
    prof = crossing_profile(rep)
    assert prof.pair_counts == {(0, 1): 1}


def test_c4_fill_edge_neutralized():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    sb = verify_build(g)
    prof = crossing_profile(sb.rep)
    assert sum(prof.pair_counts.values()) == 4


def test_subdivided_k23_realizes_12_edges():
    g = subdivided_k23()
    sb = verify_build(g)
    prof = crossing_profile(sb.rep)
    assert sum(prof.pair_counts.values()) == 12


def test_k3_embedding_is_the_triangle():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    tb = build_touching_L(g)
    pg = derive_embedding(tb)
    assert euler_check(pg.graph, pg.rot)


@pytest.mark.parametrize("seed", range(12))
def test_round_trip_random_partial_2trees(seed):
    import random

    rng = random.Random(seed)
    n = rng.randint(2, 40)
    g = random_partial_2tree(n, rng.choice([0.3, 0.5, 0.8, 1.0]), seed=300 + seed)
    verify_build(g)


def test_singleton():
    sb = build_sp(Graph(1, []))
    assert len(sb.rep.curves) == 1


@pytest.mark.parametrize("density", [0.4, 0.6, 0.8, 1.0])
def test_extension_matches_linear_scan(density):
    # the densities of the benchmark's construct mix
    rng = random.Random(int(density * 10))
    for i in range(30):
        g = random_partial_2tree(rng.randint(2, 70), density, seed=2000 + i)
        tb = build_touching_L(g)
        assert extend_to_1string(tb, g) == _ref_extend_to_1string(tb, g)
