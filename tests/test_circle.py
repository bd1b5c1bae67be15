import random
from fractions import Fraction as F

import pytest

from strandkit.circle import (
    ChordDiagram,
    _chord_meet,
    _in_sliver,
    build_circle,
    chord_to_geometry,
    circle_point,
)
from strandkit.errors import ParameterCollision
from strandkit.families import random_maximal_outerplanar
from strandkit.geom import (
    BOTH_ENDS,
    crossing_profile,
    verify_1string,
    verify_order_preserving,
    verify_outer_string,
)
from strandkit.graphs import Graph

from conftest import atlas_connected_outerplanar, outerplanar_corpus


def _chords_cross(a, b) -> bool:
    """Interleaving of parameter pairs on the circle (gap at infinity)."""
    a0, a1 = sorted(a)
    b0, b1 = sorted(b)
    in0 = a0 < b0 < a1
    in1 = a0 < b1 < a1
    return in0 != in1


# Reference circle predicates in plain `Fraction` arithmetic: the circle map
# t -> ((1-t^2)/(1+t^2), 2t/(1+t^2)) evaluated point by point.


def _ref_point(t):
    d = 1 + t * t
    return ((1 - t * t) / d, 2 * t / d)


def _ref_chord_meet(a, b):
    p1, p2 = _ref_point(a[0]), _ref_point(a[1])
    p3, p4 = _ref_point(b[0]), _ref_point(b[1])
    d1 = (p2[0] - p1[0], p2[1] - p1[1])
    d2 = (p4[0] - p3[0], p4[1] - p3[1])
    den = d1[0] * d2[1] - d1[1] * d2[0]
    t = ((p3[0] - p1[0]) * d2[1] - (p3[1] - p1[1]) * d2[0]) / den
    return (p1[0] + t * d1[0], p1[1] + t * d1[1])


def _ref_in_sliver(lo, hi, p):
    a, b, m = _ref_point(lo), _ref_point(hi), _ref_point((lo + hi) / 2)

    def orient(q):
        return (b[0] - a[0]) * (q[1] - a[1]) - (b[1] - a[1]) * (q[0] - a[0])

    sp, sm = orient(p), orient(m)
    return sp == 0 or (sp > 0) == (sm > 0)


def _random_param(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return F(rng.randint(-6, 6))
    if kind == 1:
        return F(rng.randint(-50, 50), rng.randint(1, 12))
    big = 2 ** rng.randint(20, 90)
    return F(rng.randint(-8 * big, 8 * big), big + rng.randint(0, 3))


def verify_build(g, per_ear=False):
    b = build_circle(g, per_ear_check=per_ear)
    rep = chord_to_geometry(b.diagram)
    prof = crossing_profile(rep)
    assert verify_1string(rep, g, prof).ok
    assert verify_order_preserving(rep, b.plane, profile=prof).ok
    assert verify_outer_string(rep, BOTH_ENDS).ok
    return b


def test_parameterization_identities():
    assert circle_point(F(0)) == (F(1), F(0))
    assert circle_point(F(1)) == (F(0), F(1))
    assert circle_point(F(-1)) == (F(0), F(-1))


def test_circle_point_on_unit_circle():
    rng = random.Random(1)
    for t in [F(0), F(-1, 3), F(10**30 + 1, 10**30)] + [_random_param(rng) for _ in range(200)]:
        x, y = circle_point(t)
        assert x * x + y * y == 1
        assert (x, y) == _ref_point(t)


@pytest.mark.parametrize("seed", range(4))
def test_chord_meet_and_sliver_match_fraction_reference(seed):
    rng = random.Random(seed)
    checked = inside = 0
    while checked < 300:
        ts = sorted({_random_param(rng) for _ in range(4)} | ({F(0)} if seed == 0 else set()))
        if len(ts) < 4:
            continue
        rng.shuffle(ts)
        a, b = (ts[0], ts[1]), (ts[2], ts[3])
        if not _chords_cross(a, b):
            continue
        x, y, w = _chord_meet(a, b)
        assert w > 0
        p = (F(x, w), F(y, w))
        assert p == _ref_chord_meet(a, b)
        lo, hi = sorted(rng.sample(ts, 2))
        # shrink the arc the way a region does, down to a thin sliver
        for _ in range(rng.randint(0, 6)):
            got = _in_sliver(lo, hi, (x, y, w))
            assert got == _ref_in_sliver(lo, hi, p), (a, b, lo, hi)
            inside += got
            lo, hi = lo + (hi - lo) / 3, hi - (hi - lo) / 5
        checked += 1
    assert inside > 0


def test_sliver_cap_is_inclusive():
    # the chord endpoints and the cap's own points are inside the sliver
    lo, hi = F(-1, 2), F(3)
    for t in (lo, hi):
        x, y = circle_point(t)
        assert _in_sliver(lo, hi, (x.numerator * y.denominator, y.numerator * x.denominator,
                                   x.denominator * y.denominator))
    assert _ref_in_sliver(lo, hi, circle_point(lo))
    # the centre is on the arc side only when the arc exceeds half the circle
    assert _in_sliver(F(-3), F(3), (0, 0, 1)) and not _in_sliver(F(-1, 3), F(1, 3), (0, 0, 1))
    assert _in_sliver(F(-1), F(1), (0, 0, 1))


def test_base_case_perpendicular_diameters():
    b = build_circle(Graph(2, [(0, 1)]))
    rep = chord_to_geometry(b.diagram)
    (p0, q0) = rep.curves[0].points
    (p1, q1) = rep.curves[1].points
    # both chords pass through the center and are perpendicular
    assert (p0[0] + q0[0], p0[1] + q0[1]) == (F(0), F(0))
    assert (p1[0] + q1[0], p1[1] + q1[1]) == (F(0), F(0))
    d0 = (q0[0] - p0[0], q0[1] - p0[1])
    d1 = (q1[0] - p1[0], q1[1] - p1[1])
    assert d0[0] * d1[0] + d0[1] * d1[1] == 0
    assert crossing_profile(rep).pair_counts == {(0, 1): 1}


def test_c4_passes_everything():
    verify_build(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), per_ear=True)


def test_interleaving_matches_geometry():
    g = random_maximal_outerplanar(12, seed=8).graph
    b = build_circle(g)
    rep = chord_to_geometry(b.diagram)
    prof = crossing_profile(rep)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            comb = _chords_cross(b.diagram.params[u], b.diagram.params[v])
            assert comb == (prof.count(u, v) == 1)


def test_break_record_matches_geometry():
    g = random_maximal_outerplanar(9, seed=4).graph
    b = build_circle(g)
    rep = chord_to_geometry(b.diagram)
    prof = crossing_profile(rep)
    for v in range(g.n):
        cyc = b.plane.rot.order[v]
        k = b.breaks[v]
        assert prof.sequences[v] == cyc[k:] + cyc[:k]


def test_parameter_collision_detected():
    with pytest.raises(ParameterCollision):
        chord_to_geometry(ChordDiagram({0: (F(1), F(2)), 1: (F(1), F(3))}))


@pytest.mark.parametrize("seed", range(6))
def test_per_ear_invariant_small(seed):
    g = random_maximal_outerplanar(7 + seed, seed=seed).graph
    verify_build(g, per_ear=True)


def test_arc_regions_disjoint():
    # the per-ear check asserts that the arc regions are pairwise disjoint
    # and hold no foreign chord endpoints
    build_circle(random_maximal_outerplanar(10, seed=3).graph, per_ear_check=True)


@pytest.mark.parametrize("seed", range(8))
def test_non_biconnected_inputs(seed):
    for g in outerplanar_corpus(3, 13, seed=40 + seed):
        verify_build(g)


def test_singletons():
    verify_build(Graph(1, []), per_ear=True)
    verify_build(Graph(2, [(0, 1)]))
    verify_build(Graph(3, [(0, 1), (1, 2)]))


def test_long_ear_on_child_region():
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (0, 5), (5, 4), (4, 3), (3, 2)])
    verify_build(g, per_ear=True)


def test_long_ear_chain_c7():
    g = Graph(7, [(i, (i + 1) % 7) for i in range(7)])
    verify_build(g, per_ear=True)


def test_atlas_per_ear():
    gs = atlas_connected_outerplanar(7)
    assert len(gs) == 239
    for g in gs:
        build_circle(g, per_ear_check=True)
