import random
from bisect import bisect_left, bisect_right
from fractions import Fraction as F

import pytest

from strandkit.errors import NonDiagonalSegment
from strandkit.families import random_maximal_outerplanar
from strandkit.geom import (
    BOTH_ENDS,
    CircleWitness,
    Curve,
    PolylineWitness,
    StringRep,
    crossing_profile,
    pt,
    verify_1string,
    verify_order_preserving,
    verify_outer_string,
)
from strandkit.graphs import Graph
from strandkit.vpg import GRID_CONSTANT, build_vpg, compact_grid, grid_size, rotate45

from conftest import atlas_connected_outerplanar, outerplanar_corpus


def verify_build(g, per_ear=False):
    b = build_vpg(g, per_ear_check=per_ear)
    for rep in (b.diag_rep, b.rep):
        prof = crossing_profile(rep)
        assert verify_1string(rep, g, prof).ok
        assert verify_order_preserving(rep, b.plane, profile=prof).ok
        assert verify_outer_string(rep, BOTH_ENDS).ok
    assert all(c.bend_count() <= 1 for c in b.rep.curves.values())
    for c in b.rep.curves.values():
        for (a, bb) in c.segments:
            assert a[0] == bb[0] or a[1] == bb[1]  # orthogonal after rotation
    return b


# Reference compaction in plain `Fraction` arithmetic: each point is mapped
# by bisecting the sorted grid values and interpolating, and every witness
# segment is cut at the parameters of the grid lines strictly inside it.


def _ref_piecewise(vals):
    def f(x):
        if x <= vals[0]:
            return x - vals[0]
        if x >= vals[-1]:
            return F(len(vals) - 1) + (x - vals[-1])
        lo = bisect_right(vals, x) - 1
        return F(lo) + (x - vals[lo]) / (vals[lo + 1] - vals[lo])

    return f


def _ref_compact_grid(rep):
    xs = sorted({p[0] for c in rep.curves.values() for p in c.points})
    ys = sorted({p[1] for c in rep.curves.values() for p in c.points})
    fx, fy = _ref_piecewise(xs), _ref_piecewise(ys)

    def fpt(p):
        return (fx(p[0]), fy(p[1]))

    curves = {v: Curve(v, tuple(fpt(p) for p in c.points)) for v, c in rep.curves.items()}
    wit = rep.witness
    if isinstance(wit, PolylineWitness):
        new_pts = []
        pts = wit.points
        for i in range(len(pts)):
            p, q = pts[i], pts[(i + 1) % len(pts)]
            new_pts.append(fpt(p))
            cuts = set()
            for k, vals in enumerate((xs, ys)):
                lo, hi = sorted((p[k], q[k]))
                for val in vals[bisect_right(vals, lo) : bisect_left(vals, hi)]:
                    cuts.add((val - p[k]) / (q[k] - p[k]))
            for t in sorted(cuts):
                new_pts.append(fpt((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))))
        wit = PolylineWitness(tuple(new_pts))
    out = StringRep(curves, wit)
    return out, grid_size(out)


def _random_rep(rng):
    """Curves on a few random grid values, and a closed witness whose
    vertices are grid crossings, points on one grid line, points outside the
    curves' range and free points, so that its segments have every slope,
    run along grid lines, and meet x- and y-lines at the same point."""

    def val():
        return F(rng.randint(-40, 40), rng.choice([1, 1, 2, 3, 7, 16, 2**40 + 1]))

    xs = sorted({val() for _ in range(rng.randint(1, 7))} | {F(41)})
    ys = sorted({val() for _ in range(rng.randint(1, 7))})
    curves = {}
    for v in range(rng.randint(1, 4)):
        pts = [(rng.choice(xs), rng.choice(ys))]
        for _ in range(rng.randint(1, 3)):
            pts.append((rng.choice([x for x in xs if x != pts[-1][0]]), rng.choice(ys)))
        curves[v] = Curve(v, tuple(pts))
    used_x = sorted({p[0] for c in curves.values() for p in c.points})
    used_y = sorted({p[1] for c in curves.values() for p in c.points})
    wpts = []
    for _ in range(rng.randint(3, 9)):
        kind = rng.randrange(4)
        if kind == 0:
            p = (rng.choice(used_x), rng.choice(used_y))
        elif kind == 1:
            p = (rng.choice(used_x), val())
        elif kind == 2:
            p = (used_x[0] - rng.randint(1, 5), used_y[-1] + F(rng.randint(1, 9), 4))
        else:
            p = (val(), val())
        if not wpts or wpts[-1] != p:
            wpts.append(p)
    if rng.random() < 0.3:
        # a diagonal through grid crossings, as the rotated contour has
        x0, y0 = used_x[0], used_y[0]
        wpts += [(x0 - 3, y0 - 3), (x0 + 5, y0 + 5)]
    return StringRep(curves, PolylineWitness(tuple(wpts)))


@pytest.mark.parametrize("seed", range(4))
def test_compact_grid_matches_fraction_reference(seed):
    rng = random.Random(seed)
    diagonal = oblique = axis = 0
    for _ in range(150):
        rep = _random_rep(rng)
        assert compact_grid(rep) == _ref_compact_grid(rep)
        for p, q in rep.witness.segments():
            dx, dy = q[0] - p[0], q[1] - p[1]
            diagonal += abs(dx) == abs(dy)
            axis += dx == 0 or dy == 0
            oblique += 0 != abs(dx) != abs(dy) != 0
    assert diagonal and oblique and axis


def test_compact_grid_matches_reference_on_builds():
    for n in (5, 17, 40):
        g = random_maximal_outerplanar(n, seed=n).graph
        rotated = rotate45(build_vpg(g).diag_rep)
        assert compact_grid(rotated) == _ref_compact_grid(rotated)


def test_compact_grid_without_curves():
    for wit in (None, PolylineWitness((pt(0, 0), pt(1, 0), pt(0, 1))),
                CircleWitness(pt(0, 0), F(1))):
        rep = StringRep({}, wit)
        assert compact_grid(rep) == (rep, (0, 0))


def test_compact_grid_without_witness():
    rep = StringRep(
        {0: Curve(0, (pt(-3, F(1, 2)), pt(7, F(1, 2)))), 1: Curve(1, (pt(F(5, 3), -2), pt(F(5, 3), 9)))},
        None,
    )
    out, grid = compact_grid(rep)
    assert out.witness is None
    assert out.curves[0].points == ((0, 1), (2, 1))
    assert out.curves[1].points == ((1, 0), (1, 2))
    assert grid == grid_size(out) == (2, 2)


def test_compact_grid_rejects_circle_witness():
    # the curve (1,1)-(3,1) would move to (0,0)-(1,0), which the circle
    # centred at (2,1) with r = 3 no longer touches
    rep = StringRep({0: Curve(0, (pt(1, 1), pt(3, 1)))}, CircleWitness(pt(2, 1), F(9)))
    with pytest.raises(ValueError):
        compact_grid(rep)


def strip(n):
    edges = [(0, 1)]
    for v in range(2, n):
        edges += [(v, v - 1), (v, v - 2)]
    return Graph(n, edges)


def test_single_vertex():
    b = verify_build(Graph(1, []), per_ear=True)
    assert b.breaks == {0: 0} and b.plane.rot.order == ((),)


def test_base_edge():
    b = verify_build(Graph(2, [(0, 1)]), per_ear=True)
    assert b.grid[0] <= 8 and b.grid[1] <= 8


def test_triangle_and_square():
    verify_build(Graph(3, [(0, 1), (1, 2), (0, 2)]), per_ear=True)
    verify_build(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), per_ear=True)


@pytest.mark.parametrize("n", [4, 6, 9, 12])
def test_triangle_strips_force_rotated_regions(n, capsys=None):
    verify_build(strip(n), per_ear=True)


def test_all_four_l_rotations_appear():
    b = build_vpg(strip(12))
    shapes = set()
    for c in b.rep.curves.values():
        if len(c.points) != 3:
            continue
        (x0, y0), (x1, y1), (x2, y2) = c.points
        shapes.add((x1 == x0, y2 == y1))
    # vertical-then-horizontal and horizontal-then-vertical both occur
    assert len(shapes) >= 2


@pytest.mark.parametrize("seed", range(5))
def test_random_mop_per_ear(seed):
    g = random_maximal_outerplanar(8 + 2 * seed, seed=seed).graph
    verify_build(g, per_ear=True)


@pytest.mark.parametrize("seed", range(6))
def test_non_biconnected_inputs(seed):
    for g in outerplanar_corpus(2, 12, seed=70 + seed):
        verify_build(g)


def test_rotate45_map():
    rep = StringRep({0: Curve(0, (pt(0, 0), pt(1, 1)))})
    out = rotate45(rep)
    assert out.curves[0].points == ((F(0), F(0)), (F(2), F(0)))


def test_rotate45_l_shape():
    rep = StringRep({0: Curve(0, (pt(0, 0), pt(2, 2), pt(4, 0)))})
    out = rotate45(rep)
    pts = out.curves[0].points
    assert pts[0][1] == pts[1][1] and pts[1][0] == pts[2][0]
    assert out.curves[0].bend_count() == 1


def test_rotate45_rejects_non_diagonal():
    with pytest.raises(NonDiagonalSegment):
        rotate45(StringRep({0: Curve(0, (pt(0, 0), pt(1, 0)))}))


def test_rotate45_rejects_circle_witness():
    with pytest.raises(ValueError, match="circle witness"):
        rotate45(StringRep({0: Curve(0, (pt(0, 0), pt(1, 1)))}, CircleWitness(pt(0, 0), F(4))))


def test_rotate45_and_compaction_preserve_crossings():
    g = random_maximal_outerplanar(9, seed=2).graph
    b = build_vpg(g)
    before = crossing_profile(b.diag_rep)
    rotated = rotate45(b.diag_rep)
    after = crossing_profile(rotated)
    assert before.pair_counts == after.pair_counts
    compacted, _grid = compact_grid(rotated)
    assert crossing_profile(compacted).pair_counts == before.pair_counts


def test_grid_bound_linear():
    for n in (10, 30, 60):
        g = random_maximal_outerplanar(n, seed=n).graph
        b = build_vpg(g)
        assert max(b.grid) <= GRID_CONSTANT * n
        assert b.grid == grid_size(b.rep)


def test_breaks_match_geometry():
    g = random_maximal_outerplanar(8, seed=6).graph
    b = build_vpg(g)
    prof = crossing_profile(b.rep)
    for v in range(g.n):
        cyc = b.plane.rot.order[v]
        k = b.breaks[v]
        assert prof.sequences[v] == cyc[k:] + cyc[:k]


def test_long_ear_on_child_region():
    # triangle plus a pentagon glued on one of its fresh edges: the k=3 ear
    # attaches inside a region created by an earlier insertion
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (0, 5), (5, 4), (4, 3), (3, 2)])
    verify_build(g, per_ear=True)


def test_long_ear_inside_rotated_frame():
    # two stacked triangles force a valley (rotated child regions); a quad
    # glued on the deep edge then inserts a k=2 chain inside a rotated frame
    g = Graph(6, [(0, 1), (2, 1), (2, 0), (3, 2), (3, 1), (3, 4), (4, 5), (5, 2)])
    verify_build(g, per_ear=True)


def test_mixed_depth_random_regression():
    import random as _r

    rng = _r.Random(1234)
    from strandkit.families import random_partial_2tree
    from strandkit.graphs import is_outerplanar

    checked = 0
    s = 0
    while checked < 8:
        g = random_partial_2tree(rng.randint(4, 14), rng.choice([0.45, 0.7]), seed=5000 + s)
        s += 1
        if not is_outerplanar(g)[0]:
            continue
        verify_build(g, per_ear=True)
        checked += 1


def test_atlas_per_ear():
    # every chain case (P up to 6 new vertices, Q up to 4, CONV 2 to 4) and
    # 163 valley ears, checked after each ear
    gs = atlas_connected_outerplanar(7)
    assert len(gs) == 239
    for g in gs:
        build_vpg(g, per_ear_check=True)
