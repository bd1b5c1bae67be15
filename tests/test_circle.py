from fractions import Fraction as F

import pytest

from strandkit.circle import (
    ChordDiagram,
    build_circle,
    chord_to_geometry,
    circle_point,
    _chords_cross,
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
