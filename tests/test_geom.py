import itertools
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strandkit.circle import build_circle, chord_to_geometry, circle_point
from strandkit import geom
from strandkit.errors import (
    CurveOverlap,
    DegenerateSegment,
    EndpointOnCurve,
    InvalidCurve,
    MissingWitness,
    TouchingPoint,
    TripleIntersection,
)
from strandkit.families import random_maximal_outerplanar, random_partial_2tree
from strandkit.geom import (
    BOTH_ENDS,
    ONE_END,
    CircleWitness,
    Curve,
    PolylineWitness,
    Report,
    SegmentOverlap,
    StringRep,
    crossing_profile,
    map_rep,
    pt,
    reverse_curves,
    segment_intersection,
    verify_1string,
    verify_order_preserving,
    verify_outer_string,
)
from strandkit.graphs import Graph, PlaneGraph, RotationScheme
from strandkit.sp import build_sp
from strandkit.vpg import build_vpg


def seg(a, b, c, d):
    return (pt(a, b), pt(c, d))


def test_segment_intersection_cases():
    assert segment_intersection(seg(0, 0, 2, 2), seg(0, 2, 2, 0)) == (F(1), F(1))
    assert segment_intersection(seg(0, 0, 1, 0), seg(2, 0, 3, 0)) is None
    r = segment_intersection(seg(0, 0, 2, 0), seg(1, 0, 3, 0))
    assert isinstance(r, SegmentOverlap)
    assert segment_intersection(seg(0, 0, 1, 1), seg(1, 1, 2, 0)) == (F(1), F(1))
    with pytest.raises(DegenerateSegment):
        segment_intersection(seg(0, 0, 0, 0), seg(1, 0, 2, 0))


def two_diameters():
    u = Curve(0, (pt(0, 1), pt(0, -1)))
    v = Curve(1, (pt(F(3, 5), F(4, 5)), pt(F(-3, 5), F(-4, 5))))
    return StringRep({0: u, 1: v}, CircleWitness(pt(0, 0), F(1)))


def test_crossing_diameters():
    prof = crossing_profile(two_diameters())
    assert prof.pair_counts == {(0, 1): 1}
    assert prof.sequences[0] == (1,) and prof.sequences[1] == (0,)


def test_touching_is_error():
    flat = Curve(0, (pt(0, 0), pt(4, 0)))
    vee = Curve(1, (pt(1, 2), pt(2, 0), pt(3, 2)))
    with pytest.raises(TouchingPoint):
        crossing_profile(StringRep({0: flat, 1: vee}))


def test_endpoint_on_curve_error():
    with pytest.raises(EndpointOnCurve):
        crossing_profile(
            StringRep({0: Curve(0, (pt(0, 0), pt(4, 0))), 1: Curve(1, (pt(2, 0), pt(2, 3)))})
        )


def test_triple_intersection_error():
    reps = {
        0: Curve(0, (pt(-1, 0), pt(1, 0))),
        1: Curve(1, (pt(0, -1), pt(0, 1))),
        2: Curve(2, (pt(-1, -1), pt(1, 1))),
    }
    with pytest.raises(TripleIntersection):
        crossing_profile(StringRep(reps))


def test_overlap_error():
    reps = {
        0: Curve(0, (pt(0, 0), pt(4, 0))),
        1: Curve(1, (pt(1, 0), pt(5, 0))),
    }
    with pytest.raises(CurveOverlap):
        crossing_profile(StringRep(reps))


def polyline(*xy):
    return tuple(pt(x, y) for x, y in zip(xy[::2], xy[1::2]))


PEAK = polyline(0, 0, 2, 2, 4, 0)  # bend at (2, 2), both branches point down
CROSSING_TABLE = {
    # a straight curve through the bend of the other
    "through_bend": ([PEAK, polyline(2, 0, 2, 4)], {(0, 1): 1}, {0: (1,), 1: (0,)}),
    # the branches of v at (2, 2) leave down-left and up: one inside u's sweep
    "bend_on_bend": ([PEAK, polyline(1, 0, 2, 2, 3, 5)], {(0, 1): 1}, {0: (1,), 1: (0,)}),
    "touch_at_bends": ([PEAK, polyline(1, 4, 2, 2, 3, 4)], TouchingPoint, None),
    # walked the other way, the sweep between u's branches is 270 degrees
    "wide_sweep_cross": ([PEAK[::-1], polyline(2, 0, 2, 4)], {(0, 1): 1}, {0: (1,), 1: (0,)}),
    "wide_sweep_touch": ([PEAK[::-1], polyline(1, 4, 2, 2, 3, 4)], TouchingPoint, None),
    # v bends at the peak too: in from below, out to the right
    "wide_sweep_bend_on_bend": (
        [PEAK[::-1], polyline(2, 0, 2, 2, 4, 2)], {(0, 1): 1}, {0: (1,), 1: (0,)}),
    # u = L with its bend at (4, 0); the middle crossing sits on that bend
    "sequence_with_bend": (
        [polyline(0, 0, 4, 0, 4, 4), polyline(2, -1, 2, 1), polyline(3, 1, 5, -1),
         polyline(3, 2, 5, 2)],
        {(0, 1): 1, (0, 2): 1, (0, 3): 1},
        {0: (1, 2, 3), 1: (0,), 2: (0,), 3: (0,)},
    ),
}


@pytest.mark.parametrize("case", sorted(CROSSING_TABLE))
def test_crossing_profile_table(case):
    curves, counts, sequences = CROSSING_TABLE[case]
    rep = StringRep({v: Curve(v, pts) for v, pts in enumerate(curves)})
    if isinstance(counts, type):
        with pytest.raises(counts):
            crossing_profile(rep)
        return
    prof = crossing_profile(rep)
    assert prof.pair_counts == counts
    assert prof.sequences == sequences
    # the same holds with every curve walked the other way
    flipped = crossing_profile(reverse_curves(rep, rep.curves))
    assert flipped.pair_counts == counts
    assert flipped.sequences == {v: seq[::-1] for v, seq in sequences.items()}


def test_verify_1string_fail_cases():
    rep = two_diameters()
    ok = verify_1string(rep, Graph(2, [(0, 1)]))
    assert ok.ok
    miss = verify_1string(rep, Graph(2, []))
    assert not miss.ok and miss.failures[0]["pair"] == (0, 1)
    # two curves crossing twice
    a = Curve(0, (pt(0, 0), pt(4, 0)))
    b = Curve(1, (pt(1, -1), pt(2, 1), pt(3, -1)))
    r = verify_1string(StringRep({0: a, 1: b}), Graph(2, [(0, 1)]))
    assert not r.ok and r.failures[0]["got"] == 2


def test_order_preserving_k3_any_rep():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    b = build_circle(g)
    rep = chord_to_geometry(b.diagram)
    assert verify_order_preserving(rep, b.plane).ok


def _four_star_rep(shuffled: bool):
    """Hand-built rep of K_{1,4}: center horizontal segment crossed by four
    verticals; shuffling two verticals breaks the cyclic order."""
    order = [1, 2, 3, 4] if not shuffled else [1, 3, 2, 4]
    curves = {0: Curve(0, (pt(0, 0), pt(10, 0)))}
    for pos, v in enumerate(order, start=1):
        x = 2 * pos
        curves[v] = Curve(v, (pt(x, -1), pt(x, 1)))
    rot = RotationScheme([(1, 2, 3, 4), (0,), (0,), (0,), (0,)])
    g = Graph(5, [(0, i) for i in range(1, 5)])
    return StringRep(curves), PlaneGraph(g, rot)


def test_order_preserving_four_star():
    rep, pg = _four_star_rep(False)
    assert verify_1string(rep, pg.graph).ok
    assert verify_order_preserving(rep, pg).ok
    bad, pg = _four_star_rep(True)
    r = verify_order_preserving(bad, pg)
    assert not r.ok and r.failures[0]["kind"] == "OrderViolation"


def test_outer_string_modes():
    rep = two_diameters()
    assert verify_outer_string(rep, BOTH_ENDS).ok
    assert verify_outer_string(rep, ONE_END).ok
    with pytest.raises(MissingWitness):
        verify_outer_string(StringRep(rep.curves, None))


def test_outer_string_polyline_witness():
    sq = PolylineWitness((pt(0, 0), pt(10, 0), pt(10, 10), pt(0, 10)))
    inside = Curve(0, (pt(2, 0), pt(5, 5), pt(8, 0)))
    assert verify_outer_string(StringRep({0: inside}, sq), BOTH_ENDS).ok
    floating = Curve(0, (pt(2, 1), pt(5, 5), pt(8, 1)))
    r = verify_outer_string(StringRep({0: floating}, sq), BOTH_ENDS)
    assert not r.ok and r.failures[0]["kind"] == "EndpointNotOnContour"
    poking = Curve(0, (pt(2, 0), pt(11, 9)))
    r2 = verify_outer_string(StringRep({0: poking}, sq), ONE_END)
    assert not r2.ok
    assert any(f["kind"] == "WitnessCrossesCurve" for f in r2.failures)


# ---------------------------------------------------------------------------
# invariance properties
# ---------------------------------------------------------------------------

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


@settings(max_examples=25, deadline=None)
@given(sx=rationals.filter(lambda f: f > 0), tx=rationals, ty=rationals)
def test_profile_invariant_under_scaling_translation(sx, tx, ty):
    g = random_maximal_outerplanar(7, seed=11).graph
    b = build_circle(g)
    rep = chord_to_geometry(b.diagram)
    base = crossing_profile(rep)
    moved = map_rep(
        StringRep(rep.curves, None), lambda p: (p[0] * sx + tx, p[1] * sx + ty)
    )
    prof = crossing_profile(moved)
    assert prof.pair_counts == base.pair_counts
    assert prof.sequences == base.sequences


def _moved(rep, s, tx, ty):
    return map_rep(rep, lambda p: (p[0] * s + tx, p[1] * s + ty))


def _report_back(report, s, tx, ty):
    """The report with its failure points mapped back through the move."""
    out = []
    for f in report.failures:
        f = dict(f)
        if "point" in f:
            x, y = (F(c) for c in f["point"])
            f["point"] = ((x - tx) / s, (y - ty) / s)
        out.append(f)
    return report.ok, out


def _outer_reps():
    """A VPG rep that passes, and a copy with one curve poking out of the
    witness and one end pulled off it."""
    rep = build_vpg(random_maximal_outerplanar(7, seed=3).graph).rep
    curves = dict(rep.curves)
    lo_x = min(p[0] for p in rep.witness.points)
    c0 = curves[0]
    curves[0] = Curve(0, ((lo_x - 3, c0.tail[1]),) + c0.points[1:])
    c1 = curves[1]
    mid = tuple((a + b) / 2 for a, b in zip(c1.points[-2], c1.head))
    curves[1] = Curve(1, c1.points[:-1] + (mid,))
    return rep, StringRep(curves, rep.witness)


OUTER_REPS = _outer_reps()


@settings(max_examples=15, deadline=None)
@given(
    s=st.integers(min_value=1, max_value=10**4),
    tx=st.integers(min_value=-10**9, max_value=10**9),
    ty=st.integers(min_value=-10**9, max_value=10**9),
)
def test_outer_string_invariant_under_scaling_translation(s, tx, ty):
    for rep in OUTER_REPS:
        for mode in (BOTH_ENDS, ONE_END):
            base = verify_outer_string(rep, mode)
            moved = verify_outer_string(_moved(rep, s, tx, ty), mode)
            assert _report_back(moved, s, tx, ty) == _report_back(base, 1, 0, 0)
    assert not verify_outer_string(OUTER_REPS[1]).ok


def test_outer_string_at_scale_1e6():
    """The n=12 VPG rep of the perfbench verify workload, scaled by 10^6 and
    translated, gets the same report within a few seconds."""
    g = random_maximal_outerplanar(12, seed=7).graph
    rep = build_vpg(g).rep
    s, tx, ty = 10**6, -1234567, 7654321
    big = _moved(rep, s, tx, ty)
    t0 = time.perf_counter()
    moved = verify_outer_string(big, BOTH_ENDS)
    assert time.perf_counter() - t0 < 5
    assert moved.ok and _report_back(moved, s, tx, ty) == _report_back(
        verify_outer_string(rep, BOTH_ENDS), 1, 0, 0)


def test_witness_with_repeated_point_rejected_at_every_scale():
    sq = (pt(0, 0), pt(10, 0), pt(10, 10), pt(0, 10))
    inside = Curve(0, (pt(2, 0), pt(5, 5), pt(8, 0)))
    # a witness with no segment, or one of no length, is rejected too
    for pts in (sq + sq[:1], sq[:2] + sq[1:], (), sq[:1]):
        for s in (1, 1000):
            rep = _moved(StringRep({0: inside}, PolylineWitness(pts)), s, 0, 0)
            with pytest.raises(DegenerateSegment):
                verify_outer_string(rep)


def test_verify_1string_reports_sorted_pairs():
    rep, pg = _four_star_rep(False)
    # drop the edge (0, 3) and add the non-crossing pair (1, 2)
    g = Graph(5, [(1, 2), (0, 4), (0, 1), (0, 2)])
    r = verify_1string(rep, g)
    assert r.failures == (
        {"kind": "CrossingCount", "pair": (0, 3), "expected": 0, "got": 1},
        {"kind": "CrossingCount", "pair": (1, 2), "expected": 1, "got": 0},
    )
    assert all(type(f["expected"]) is int for f in r.failures)


@settings(max_examples=20, deadline=None)
@given(subset=st.sets(st.integers(min_value=0, max_value=8)))
def test_direction_freedom(subset):
    g = random_maximal_outerplanar(9, seed=5).graph
    b = build_circle(g)
    rep = chord_to_geometry(b.diagram)
    flipped = reverse_curves(rep, subset)
    assert verify_order_preserving(flipped, b.plane).ok


def test_mirror_covariance():
    g = random_maximal_outerplanar(8, seed=9).graph
    b = build_circle(g)
    rep = chord_to_geometry(b.diagram)
    mirrored = map_rep(StringRep(rep.curves, None), lambda p: (-p[0], p[1]))
    mirrored = StringRep(mirrored.curves, CircleWitness(pt(0, 0), F(1)))
    rot_rev = RotationScheme([tuple(reversed(r)) for r in b.plane.rot.order])
    assert verify_1string(mirrored, g).ok
    assert verify_order_preserving(mirrored, PlaneGraph(g, rot_rev)).ok
    assert verify_outer_string(mirrored, BOTH_ENDS).ok


def test_strict_flag_rejects_reversed_direction():
    rep, pg = _four_star_rep(False)
    assert verify_order_preserving(rep, pg).ok
    assert verify_order_preserving(rep, pg, strict=True).ok
    rev = reverse_curves(rep, [0])
    assert verify_order_preserving(rev, pg).ok
    assert not verify_order_preserving(rev, pg, strict=True).ok


@pytest.mark.parametrize("seed", range(6))
def test_verifier_detects_mutations(seed):
    """Swapping two chord endpoints must always be caught by some check."""
    import random as _random

    from strandkit.circle import ChordDiagram

    rng = _random.Random(seed)
    g = random_maximal_outerplanar(8, seed=seed).graph
    b = build_circle(g)
    params = dict(b.diagram.params)
    u, v = rng.sample(range(g.n), 2)
    pu, pv = params[u], params[v]
    params[u] = (pv[0], pu[1])
    params[v] = (pu[0], pv[1])
    rep = chord_to_geometry(ChordDiagram(params))
    prof = crossing_profile(rep)
    ok1 = verify_1string(rep, g, prof).ok
    ok2 = verify_order_preserving(rep, PlaneGraph(g, b.plane.rot), profile=prof).ok
    assert not (ok1 and ok2)


# ---------------------------------------------------------------------------
# the bucketed scan against a brute-force all-pairs reference
# ---------------------------------------------------------------------------


def all_pairs_profile(rep):
    """Reference: every segment pair of every curve pair, each meeting placed
    and checked where the scan finds it, with no prefilter."""
    curves = sorted(rep.curves.values(), key=lambda c: c.vertex)
    for c in curves:
        segs = c.segments
        for k, l in itertools.combinations(range(len(segs)), 2):
            r = segment_intersection(segs[k], segs[l])
            if r is None:
                continue
            if l == k + 1 and not isinstance(r, SegmentOverlap) and r == c.points[l]:
                continue
            raise InvalidCurve(f"curve {c.vertex} self-intersects near {r}")
    pair_hits, point_curves = {}, {}
    for ci, cj in itertools.combinations(curves, 2):
        hits = {}
        for k, (a, b) in enumerate(ci.segments):
            for l, (c_, d_) in enumerate(cj.segments):
                r = segment_intersection((a, b), (c_, d_))
                if isinstance(r, SegmentOverlap):
                    raise CurveOverlap(
                        f"curves {ci.vertex} and {cj.vertex} overlap on a segment")
                if r is not None and r not in hits:
                    hits[r] = (geom._position(k, a, b, r), geom._position(l, c_, d_, r))
        if hits:
            pair_hits[(ci.vertex, cj.vertex)] = hits
            for p in hits:
                point_curves.setdefault(p, set()).update((ci.vertex, cj.vertex))
    for p, vs in point_curves.items():
        if len(vs) > 2:
            raise TripleIntersection(f"curves {sorted(vs)} share point {p}")
    counts, points, seqs = {}, {}, {c.vertex: [] for c in curves}
    for (u, v), hits in sorted(pair_hits.items()):
        cu, cv = rep.curves[u], rep.curves[v]
        for p in sorted(hits):
            for c, other in ((cu, v), (cv, u)):
                if p in (c.tail, c.head):
                    raise EndpointOnCurve(
                        f"endpoint of curve {c.vertex} lies on curve {other} at {p}")
            lu, lv = hits[p]
            bu, bv = geom._branches(cu, lu), geom._branches(cv, lv)
            cross = geom._cross
            if any(cross(d, e) == 0 and d[0] * e[0] + d[1] * e[1] > 0 for d in bu for e in bv):
                raise CurveOverlap(f"curves {u} and {v} run together at {p}")
            if geom._in_sweep(*bu, bv[0]) == geom._in_sweep(*bu, bv[1]):
                raise TouchingPoint(f"curves {u} and {v} meet at {p} without alternation")
            seqs[u].append((lu, v))
            seqs[v].append((lv, u))
        counts[(u, v)] = len(hits)
        points[(u, v)] = tuple(sorted(hits))
    return counts, {v: tuple(w for _loc, w in sorted(lst)) for v, lst in seqs.items()}, points


def outcome(fn, rep):
    try:
        r = fn(rep)
    except (InvalidCurve, CurveOverlap, EndpointOnCurve, TouchingPoint, TripleIntersection) as e:
        return type(e), str(e)
    return r if isinstance(r, tuple) else (r.pair_counts, r.sequences, r.points)


def assert_matches_reference(rep):
    got = outcome(crossing_profile, rep)
    assert got == outcome(all_pairs_profile, rep)
    return got


def random_rep(rng):
    """2-5 curves of 1-3 segments on a small lattice, some x at halves: every
    kind of meeting and every error of the model turns up."""
    side = rng.choice((4, 4, 12))
    curves = {}
    for v in range(rng.randint(2, 5)):
        pts = []
        while len(pts) < rng.randint(2, 4):
            x, y = F(rng.randint(0, side)), F(rng.randint(0, side))
            x += F(1, 2) if rng.random() < 0.2 else 0
            if not pts or pts[-1] != (x, y):
                pts.append((x, y))
        curves[v] = Curve(v, tuple(pts))
    return StringRep(curves)


def test_profile_matches_all_pairs_reference_random():
    rng = random.Random(20240917)
    seen = set()
    for _ in range(3200):
        got = assert_matches_reference(random_rep(rng))
        seen.add(got[0] if isinstance(got[0], type) else "ok")
    assert seen == {"ok", InvalidCurve, CurveOverlap, EndpointOnCurve, TouchingPoint,
                    TripleIntersection}


def test_profile_matches_all_pairs_reference_random_moved():
    """Every 4th rep of the corpus above, scaled by an integer in [2, 1000]
    and translated by up to 10^6 on each axis."""
    rng, move = random.Random(20240917), random.Random(4)
    seen = set()
    for i in range(3200):
        rep = random_rep(rng)
        if i % 4:
            continue
        s = move.randint(2, 1000)
        tx, ty = (F(move.randint(-10**6, 10**6), move.randint(1, 3)) for _ in range(2))
        got = assert_matches_reference(_moved(rep, s, tx, ty))
        seen.add(got[0] if isinstance(got[0], type) else "ok")
    assert seen == {"ok", InvalidCurve, CurveOverlap, EndpointOnCurve, TouchingPoint,
                    TripleIntersection}


def test_profile_many_crossings_on_one_segment():
    rng = random.Random(3)
    xs = [k + F(1, k + 2) for k in range(40)]
    ids = list(range(1, 41))
    rng.shuffle(ids)
    curves = {0: Curve(0, (pt(-1, 0), pt(41, 0)))}
    for v, x in zip(ids, xs):
        curves[v] = Curve(v, ((x, F(-1 - v)), (x + F(1, v), F(v))))
    rep = StringRep(curves)
    assert assert_matches_reference(rep)[1][0] == tuple(ids)
    flipped = reverse_curves(rep, [0])
    assert assert_matches_reference(flipped)[1][0] == tuple(reversed(ids))


def test_profile_crossing_on_grid_cell_boundary():
    """Two curves crossing on a corner of the bucketing grid's cells, and two
    diagonals whose boxes start on another one."""
    # every integer in -1..8 on both axes, so that the grid's columns and rows
    # stay put when the other curves move between these coordinates
    frame = {0: tuple(pt(x, -1) for x in range(9)), 1: tuple(pt(-1, y) for y in range(9))}

    def rep_with(x, y, x2, y2):
        curves = dict(frame)
        curves[2] = ((x, y - 1), (x, y + 1))
        curves[3] = ((x - 1, y), (x + 1, y))
        curves[4] = ((x2, y2), (x2 + 2, y2 + 2))
        curves[5] = ((x2 + 2, y2), (x2, y2 + 2))
        return StringRep({v: Curve(v, pts) for v, pts in curves.items()})

    def grid_lines(rep):
        """The first coordinate of each column and each row but the first."""
        segs = [s for c in rep.curves.values() for s in c.segments]
        g = geom._Grid([geom._fbox(a, b, 0) for a, b in segs])
        cells = {v: g._cells(v, v, v, v)[0] for v in g.xs + g.ys}
        xs = [F(v) for u, v in zip(g.xs, g.xs[1:]) if cells[u][0] != cells[v][0]]
        ys = [F(v) for u, v in zip(g.ys, g.ys[1:]) if cells[u][1] != cells[v][1]]
        return xs, ys

    xs, ys = grid_lines(rep_with(F(5), F(3), F(2), F(5)))
    assert len(xs) >= 2 and len(ys) >= 2
    lines = [xs[1], ys[0], xs[0], ys[1]]
    rep = rep_with(*lines)
    assert grid_lines(rep) == (xs, ys)
    counts, _seqs, points = assert_matches_reference(rep)
    assert counts == {(2, 3): 1, (4, 5): 1}
    assert points[(2, 3)] == (tuple(lines[:2]),)


def _zigzag(n):
    """The points of a curve of n segments up and down between y = 0 and 1."""
    return [pt(i, i % 2) for i in range(n + 1)]


def test_profile_of_long_curve_is_near_linear():
    """One 20,000-segment curve crossed once by another: every segment pair
    of the long curve is a candidate in an all-pairs self-check."""
    rep = StringRep({0: Curve(0, tuple(_zigzag(20000))),
                     1: Curve(1, (pt(F(1, 2), -1), pt(F(1, 2), 2)))})
    t0 = time.perf_counter()
    prof = crossing_profile(rep)
    assert time.perf_counter() - t0 < 5
    assert prof.pair_counts == {(0, 1): 1}
    assert prof.points[(0, 1)] == ((F(1, 2), F(1, 2)),)


@pytest.mark.parametrize("n", [300, 20000])
def test_long_curve_folded_back_self_intersects(n):
    """A zigzag of n segments, then one above it whose last segment runs
    back across all of it: the error names the second curve's meeting with
    its first segment, as the all-pairs reference does on the short curves,
    and comes within seconds on the long ones."""
    folded = _zigzag(n) + [pt(n + 1, 2), pt(n + 1, F(1, 2)), pt(-1, F(1, 2))]
    rep = StringRep({0: Curve(0, tuple(_zigzag(n))),
                     1: Curve(1, tuple((x, y + 10) for x, y in folded))})
    want = (InvalidCurve, f"curve 1 self-intersects near {(F(1, 2), F(21, 2))}")
    if n <= 300:
        assert outcome(all_pairs_profile, rep) == want
    t0 = time.perf_counter()
    assert outcome(crossing_profile, rep) == want
    assert time.perf_counter() - t0 < 5


def _profile_grid(rep):
    """The grid that `crossing_profile` buckets the segments of rep on."""
    curves = sorted(rep.curves.values(), key=lambda c: c.vertex)
    shift = geom._shift(p for c in curves for p in c.points)
    return geom._Grid([geom._fbox(a, b, shift) for c in curves for a, b in c.segments])


def test_profile_grid_cells_stay_small_on_clustered_coordinates():
    """The constructors' coordinates cluster; cells that follow coordinate
    ranks still hold few boxes each."""
    reps = [build_sp(random_partial_2tree(500, 0.7, 1)).rep,
            chord_to_geometry(build_circle(random_maximal_outerplanar(500, 1).graph).diagram)]
    for rep in reps:
        g = _profile_grid(rep)
        assert max(len(members) for members in g.cells.values()) <= len(g.boxes) // 10


@pytest.mark.parametrize("ys, want", [
    (((0, 1), (2, 3), (4, 5)), None),
    (((0, 1), (1, 3), (4, 5)), EndpointOnCurve),
    (((0, 2), (1, 3), (4, 5)), CurveOverlap),
])
def test_profile_segments_on_one_vertical_line(ys, want):
    """A zero-width bounding box: the grid has one column of cells."""
    rep = StringRep({v: Curve(v, (pt(3, y0), pt(3, y1))) for v, (y0, y1) in enumerate(ys)})
    got = assert_matches_reference(rep)
    assert got[0] == want if want else got[0] == {}


def test_profile_reports_least_overlapping_pair():
    """Two curve pairs overlap; under every labelling the message names the
    lexicographically least of them, as an all-pairs scan in order would."""
    shapes = [
        (pt(0, 0), pt(4, 0)), (pt(2, 0), pt(6, 0)),  # overlap near the origin
        (pt(0, 9), pt(9, 9), pt(9, 20)), (pt(8, 12), pt(9, 14), pt(9, 22)),  # far away
    ]
    for labels in itertools.permutations(range(4)):
        rep = StringRep({v: Curve(v, pts) for v, pts in zip(labels, shapes)})
        least = min(tuple(sorted(labels[:2])), tuple(sorted(labels[2:])))
        with pytest.raises(CurveOverlap, match=f"^curves {least[0]} and {least[1]} overlap"):
            crossing_profile(rep)
        assert_matches_reference(rep)


def test_verify_beyond_float_range():
    """The n=12 VPG rep of the perfbench verify workload, scaled by 10^400 and
    translated, gets the same profile and reports as at x1, within the time
    bound of the 10^6 case."""
    pg = random_maximal_outerplanar(12, seed=7)
    rep = build_vpg(pg.graph).rep
    s, tx, ty = 10**400, -(10**401) + 3, 7
    big = _moved(rep, s, tx, ty)
    base, prof = crossing_profile(rep), crossing_profile(big)
    assert (prof.pair_counts, prof.sequences) == (base.pair_counts, base.sequences)
    assert {k: tuple(((x - tx) / s, (y - ty) / s) for x, y in pts)
            for k, pts in prof.points.items()} == base.points
    assert verify_1string(big, pg.graph, prof).ok
    assert verify_order_preserving(big, build_vpg(pg.graph).plane, profile=prof).ok
    t0 = time.perf_counter()
    moved = verify_outer_string(big, BOTH_ENDS)
    assert time.perf_counter() - t0 < 5
    assert moved.ok and _report_back(moved, s, tx, ty) == _report_back(
        verify_outer_string(rep, BOTH_ENDS), 1, 0, 0)
    for rep in OUTER_REPS:
        for mode in (BOTH_ENDS, ONE_END):
            base = verify_outer_string(rep, mode)
            moved = verify_outer_string(_moved(rep, s, tx, ty), mode)
            assert _report_back(moved, s, tx, ty) == _report_back(base, 1, 0, 0)


# ---------------------------------------------------------------------------
# outer-string verification against the per-segment reference
# ---------------------------------------------------------------------------


def _on_boundary(index, p):
    """Whether p lies on a segment of the indexed witness."""
    fx, fy = geom._flt(p[0], index.shift), geom._flt(p[1], index.shift)
    for i in index.near(fx, fx, fy, fy):
        a, b = index.segs[i]
        if (p[0] - a[0]) * (b[1] - a[1]) == (p[1] - a[1]) * (b[0] - a[0]) and (
            min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
        ):
            return True
    return False


def per_segment_outer_string(rep, skips):
    """Reference, both modes: cut every curve segment where it meets the
    witness, test each piece's midpoint (skipped, and counted in `skips`,
    when it lies on the witness) and ask the witness about both curve ends."""
    w = rep.witness
    if isinstance(w, PolylineWitness):
        points = w.points + tuple(p for c in rep.curves.values() for p in c.points)
        index = geom._PolyIndex(w, geom._shift(points))
    failures = {BOTH_ENDS: [], ONE_END: []}
    for v in sorted(rep.curves):
        c = rep.curves[v]
        out = []
        if isinstance(w, CircleWitness):
            out = [p for p in c.points if geom._circle_side(w, p) > 0][:1]
            on = [geom._circle_side(w, p) == 0 for p in (c.tail, c.head)]
        else:
            for a, b in c.segments:
                ts = {F(0), F(1)}
                for i in index.near(*geom._fbox(a, b, index.shift)):
                    r = segment_intersection((a, b), index.segs[i])
                    if r is not None:
                        pts = (r.start, r.end) if isinstance(r, SegmentOverlap) else (r,)
                        ts.update(geom._param_on(a, b, p) for p in pts)
                cuts = sorted(ts)
                mids = [(a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
                        for t in ((t0 + t1) / 2 for t0, t1 in zip(cuts, cuts[1:]))]
                skips[0] += sum(_on_boundary(index, m) for m in mids)
                out = [m for m in mids if not _on_boundary(index, m) and not index.inside(m)][:1]
                if out:
                    break
            on = [_on_boundary(index, c.tail), _on_boundary(index, c.head)]
        for mode, ends_ok in ((BOTH_ENDS, on[0] and on[1]), (ONE_END, on[0] or on[1])):
            if out:
                failures[mode].append(
                    geom._fail("WitnessCrossesCurve", vertex=v, point=geom._pp(out[0])))
            if not ends_ok:
                failures[mode].append(
                    geom._fail("EndpointNotOnContour", vertex=v, tail=on[0], head=on[1]))
    return {mode: Report(not fs, tuple(fs)) for mode, fs in failures.items()}


def _outer_mutants(rep, rng):
    """Curves of rep with one point moved onto a witness vertex, onto a
    witness segment, nearby or far away, with both ends pulled in, and laid
    along the witness."""
    circle = isinstance(rep.witness, CircleWitness)
    # the witness's vertices, or seven points on the unit circle
    wpts = [circle_point(F(k, 7)) for k in range(7)] if circle else list(rep.witness.points)
    fpts = [(float(x), float(y)) for x, y in wpts]
    vs = sorted(rep.curves)
    shapes = []
    for how in ("vertex", "segment", "near") * 3 + ("far",):
        v = rng.choice(vs)
        pts = list(rep.curves[v].points)
        i = rng.randrange(len(pts))
        x, y = pts[i]
        # the witness vertex nearest to the point, and the segment after it
        fx, fy = float(x), float(y)
        k = min(range(len(wpts)), key=lambda k: abs(fpts[k][0] - fx) + abs(fpts[k][1] - fy))
        a, b = wpts[k], wpts[(k + 1) % len(wpts)]
        if how == "vertex":
            p = a
        elif how == "segment":
            t = F(rng.randint(1, 9), 10)
            p = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
        elif how == "near":
            p = (x + F(rng.choice((-1, 1)), rng.choice((2, 3, 7))), y + F(rng.randint(-1, 1), 3))
        else:
            p = (x + 10**6, y - 10**6)
        shapes.append((v, pts[:i] + [p] + pts[i + 1:]))
    for v in rng.sample(vs, min(2, len(vs))):
        # both ends a third of the way along their segments
        pts = list(rep.curves[v].points)
        tail = tuple(p + (q - p) / 3 for p, q in zip(pts[0], pts[1]))
        head = tuple(p + (q - p) / 3 for p, q in zip(pts[-1], pts[-2]))
        shapes.append((v, [tail] + pts[1:-1] + [head]))
    if not circle:
        k = rng.randrange(len(wpts))
        a, b, c = (wpts[(k + j) % len(wpts)] for j in range(3))
        mid = tuple((p + q) / 2 for p, q in zip(a, b))
        v = rng.choice(vs)
        inner = rep.curves[v].points[len(rep.curves[v].points) // 2]
        for pts in ((a, b), (a, mid), (a, b, c), (mid, b, c), (mid, b, inner), (inner, mid, b)):
            shapes.append((v, pts))
    curves = []
    for v, pts in shapes:
        try:
            curves.append(Curve(v, tuple(pts)))
        except InvalidCurve:  # the move repeated a point
            pass
    return curves


def _moved_any(rep, s, tx, ty):
    """rep moved by p -> s*p + (tx, ty), a circle witness included."""
    w = rep.witness
    if isinstance(w, PolylineWitness):
        return _moved(rep, s, tx, ty)
    curves = _moved(StringRep(rep.curves), s, tx, ty).curves
    center = (w.center[0] * s + tx, w.center[1] * s + ty)
    return StringRep(curves, CircleWitness(center, w.radius2 * s * s))


def _outer_corpus():
    """The compacted, diagonal-frame and circle reps of maximal outer-planar
    graphs with n = 3..30, and for each a rep of its mutant curves alone; for
    every third n, a copy of that moved by an integer scale and translation,
    and for n <= 10, a rep with all the mutant curves put in place."""
    rng = random.Random(20261019)
    corpus = []
    for n in range(3, 31):
        g = random_maximal_outerplanar(n, seed=n).graph
        b = build_vpg(g)
        for rep in (b.rep, b.diag_rep, chord_to_geometry(build_circle(g).diagram)):
            curves = _outer_mutants(rep, rng)
            alone = StringRep({k: Curve(k, c.points) for k, c in enumerate(curves)}, rep.witness)
            corpus += [rep, alone]
            if n % 3 == 0:
                s = rng.randint(2, 1000)
                tx, ty = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
                corpus.append(_moved_any(alone, s, tx, ty))
            if n <= 10:
                in_place = {**rep.curves, **{c.vertex: c for c in curves}}
                corpus.append(StringRep(in_place, rep.witness))
    return corpus


def test_outer_string_matches_per_segment_reference():
    """Same reports as the per-segment verifier in both modes on a seeded
    corpus; the corpus reaches a curve along the witness, a one-end failure
    and a circle rep with a point outside."""
    skips, seen = [0], set()
    for rep in _outer_corpus():
        want = per_segment_outer_string(rep, skips)
        circle = isinstance(rep.witness, CircleWitness)
        for mode in (BOTH_ENDS, ONE_END):
            got = verify_outer_string(rep, mode)
            assert got == want[mode]
            seen.update((mode, circle, f["kind"]) for f in got.failures)
    assert skips[0] > 0
    assert {
        (ONE_END, False, "EndpointNotOnContour"), (ONE_END, True, "EndpointNotOnContour"),
        (BOTH_ENDS, False, "WitnessCrossesCurve"), (BOTH_ENDS, True, "WitnessCrossesCurve"),
    } <= seen
