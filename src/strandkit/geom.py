"""Exact rational geometry kernel and the 1-string representation verifier.

All predicates run on exact rationals (fractions.Fraction); the pairwise
segment tests use integer homogeneous coordinates so that no floating point
can ever misclassify a crossing. Floats appear only as a bounding-box
prefilter: correctly rounded, hence monotone, so that boxes that meet exactly
meet as floats too, and divided by a power of two where a coordinate would
overflow a float.

`crossing_profile` and the polyline-witness index of `verify_outer_string`
bucket segment boxes on the same kind of grid: about as many cells as
segments, with cells that follow the ranks of the box coordinates, so the
cost depends neither on the coordinates' scale nor on where they cluster.
The profile takes its candidate segment pairs from one grid over all curves,
its self-intersections included. A crossing interior to both segments is
proper by itself and is placed on both curves from the four orientation
determinants alone; every other meeting is placed where the scan finds it
and checked for alternation.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import (
    CurveOverlap,
    DegenerateSegment,
    EndpointOnCurve,
    InvalidCurve,
    MissingWitness,
    TouchingPoint,
    TripleIntersection,
)
from .graphs import Graph, PlaneGraph, RotationScheme

Point = tuple[Fraction, Fraction]

BOTH_ENDS = "both-ends"
ONE_END = "one-end"


def R(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def pt(x, y) -> Point:
    return (R(x), R(y))


# ---------------------------------------------------------------------------
# homogeneous integer predicates
# ---------------------------------------------------------------------------


def _homog(p: Point) -> tuple[int, int, int]:
    xd = p[0].denominator
    yd = p[1].denominator
    g = math.lcm(xd, yd)
    return (p[0].numerator * (g // xd), p[1].numerator * (g // yd), g)


def _orient_h(a, b, c) -> int:
    """Orientation determinant of the homogeneous points a, b, c (all w > 0):
    positive when c lies left of the directed line ab."""
    ax, ay, aw = a
    bx, by, bw = b
    cx, cy, cw = c
    return aw * (bx * cy - by * cx) - bw * (ax * cy - ay * cx) + cw * (ax * by - ay * bx)


def _on_segment_h(a, b, p) -> bool:
    """p collinear with a,b assumed; is p within the closed box of a,b."""
    ax, ay, aw = a
    bx, by, bw = b
    px, py, pw = p
    # compare px/pw against ax/aw and bx/bw (all w > 0)
    lo_x = (px * aw - ax * pw) * (px * bw - bx * pw)
    lo_y = (py * aw - ay * pw) * (py * bw - by * pw)
    return lo_x <= 0 and lo_y <= 0


@dataclass(frozen=True)
class SegmentOverlap:
    start: Point
    end: Point


def segment_intersection(a: tuple[Point, Point], b: tuple[Point, Point]):
    """Exact classification: None, a single Point, or a SegmentOverlap."""
    (p1, p2), (p3, p4) = a, b
    if p1 == p2 or p3 == p4:
        raise DegenerateSegment("zero-length segment")
    h1, h2, h3, h4 = _homog(p1), _homog(p2), _homog(p3), _homog(p4)
    d1, d2, d3, d4 = _dets(h1, h2, h3, h4)
    if d1 == 0 and d2 == 0:
        # collinear: project on the dominant axis
        axis = 0 if p1[0] != p2[0] else 1
        s1, s2 = sorted((p1, p2), key=lambda q: q[axis])
        s3, s4 = sorted((p3, p4), key=lambda q: q[axis])
        lo = max(s1[axis], s3[axis])
        hi = min(s2[axis], s4[axis])
        if lo > hi:
            return None
        if lo == hi:
            return s2 if s2[axis] == lo else s4
        start = s1 if s1[axis] >= s3[axis] else s3
        end = s2 if s2[axis] <= s4[axis] else s4
        return SegmentOverlap(start, end)
    # a zero orientation pins the line meet to that very endpoint
    if d1 == 0:
        return p1 if _on_segment_h(h3, h4, h1) else None
    if d2 == 0:
        return p2 if _on_segment_h(h3, h4, h2) else None
    if d3 == 0:
        return p3 if _on_segment_h(h1, h2, h3) else None
    if d4 == 0:
        return p4 if _on_segment_h(h1, h2, h4) else None
    if (d1 > 0) != (d2 > 0) and (d3 > 0) != (d4 > 0):
        return _line_meet(h1, h2, h3, h4)
    return None


def _dets(h1, h2, h3, h4) -> tuple[int, int, int, int]:
    """Orientations of h1 and h2 against the line h3h4, then of h3 and h4
    against the line h1h2."""
    return (
        _orient_h(h3, h4, h1), _orient_h(h3, h4, h2), _orient_h(h1, h2, h3), _orient_h(h1, h2, h4)
    )


def _cross3(u, v) -> tuple[int, int, int]:
    """Cross product of homogeneous triples: the line through two points, or
    the meet of two lines."""
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _line_meet(h1, h2, h3, h4) -> Point:
    x, y, w = _cross3(_cross3(h1, h2), _cross3(h3, h4))
    assert w != 0
    return (Fraction(x, w), Fraction(y, w))


# ---------------------------------------------------------------------------
# curves and representations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Curve:
    """Directed polyline of a vertex: tail = points[0], head = points[-1]."""

    vertex: int
    points: tuple[Point, ...]

    def __post_init__(self):
        if len(self.points) < 2:
            raise InvalidCurve(f"curve {self.vertex} needs >= 2 points")
        for p, q in zip(self.points, self.points[1:]):
            if p == q:
                raise InvalidCurve(f"curve {self.vertex} repeats point {p}")

    @property
    def tail(self) -> Point:
        return self.points[0]

    @property
    def head(self) -> Point:
        return self.points[-1]

    @property
    def segments(self) -> list[tuple[Point, Point]]:
        return list(zip(self.points, self.points[1:]))

    def bend_count(self) -> int:
        bends = 0
        for a, b, c in zip(self.points, self.points[1:], self.points[2:]):
            if (b[0] - a[0]) * (c[1] - b[1]) != (b[1] - a[1]) * (c[0] - b[0]):
                bends += 1
        return bends


@dataclass(frozen=True)
class CircleWitness:
    center: Point
    radius2: Fraction


@dataclass(frozen=True)
class PolylineWitness:
    points: tuple[Point, ...]  # closed implicitly (last joins first)

    def segments(self) -> list[tuple[Point, Point]]:
        pts = self.points
        return [(pts[i], pts[(i + 1) % len(pts)]) for i in range(len(pts))]


Witness = CircleWitness | PolylineWitness


@dataclass(frozen=True)
class StringRep:
    curves: dict[int, Curve]
    witness: Witness | None = None


@dataclass(frozen=True)
class CrossingProfile:
    pair_counts: dict[tuple[int, int], int]
    sequences: dict[int, tuple[int, ...]]
    points: dict[tuple[int, int], tuple[Point, ...]]

    def count(self, u: int, v: int) -> int:
        return self.pair_counts.get((min(u, v), max(u, v)), 0)


@dataclass(frozen=True)
class Report:
    ok: bool
    failures: tuple[dict, ...] = ()


def _fail(kind: str, **kw) -> dict:
    d = {"kind": kind}
    d.update(kw)
    return d


# ---------------------------------------------------------------------------
# crossing profile
# ---------------------------------------------------------------------------


def _shift(points: Iterable[Point]) -> int:
    """An exponent e such that every coordinate of `points`, divided by 2**e,
    lies well inside float range, so that the prefilter never overflows."""
    bits = (abs(c.numerator).bit_length() - c.denominator.bit_length() for p in points for c in p)
    return max(max(bits, default=0) - 960, 0)


def _flt(x: Fraction, shift: int) -> float:
    return x.numerator / (x.denominator << shift)


def _fbox(a: Point, b: Point, shift: int) -> tuple[float, float, float, float]:
    """Float bounding box of segment ab divided by 2**shift: a reject-only
    prefilter. `_flt` divides two ints with correct rounding, which is
    monotone, so boxes that meet exactly still meet as floats."""
    x0, x1 = sorted((_flt(a[0], shift), _flt(b[0], shift)))
    y0, y1 = sorted((_flt(a[1], shift), _flt(b[1], shift)))
    return x0, x1, y0, y1


class _Grid:
    """Boxes bucketed on a grid of about as many cells as boxes. The columns
    split the sorted distinct x coordinates of the boxes into runs of equal
    length, and the rows the y coordinates, so the cost stays the same however
    the input is scaled, translated or clustered. Buckets only prefilter;
    every geometric decision stays exact."""

    def __init__(self, boxes: list[tuple[float, float, float, float]]):
        self.boxes = boxes
        k = math.isqrt(len(boxes)) + 1  # about k cells per side
        self.xs = sorted({x for box in boxes for x in box[:2]})
        self.ys = sorted({y for box in boxes for y in box[2:]})
        # distinct coordinates per column and per row
        self.run = (len(self.xs) // k or 1, len(self.ys) // k or 1)
        self.cells: dict[tuple[int, int], list[int]] = {}
        self.corner: list[tuple[int, int]] = []  # the lower-left cell of each box
        for i, box in enumerate(boxes):
            cells = self._cells(*box)
            self.corner.append(cells[0])
            for cell in cells:
                self.cells.setdefault(cell, []).append(i)

    def _cells(self, x0: float, x1: float, y0: float, y1: float) -> list[tuple[int, int]]:
        """The grid cells that a box meets, lower-left first. A value's column
        is its rank among `xs` divided by the run length, and its row likewise:
        monotone in the value, so boxes that meet share a cell."""
        ix = [bisect_left(self.xs, x) // self.run[0] for x in (x0, x1)]
        iy = [bisect_left(self.ys, y) // self.run[1] for y in (y0, y1)]
        return [(i, j) for i in range(ix[0], ix[1] + 1) for j in range(iy[0], iy[1] + 1)]

    def pairs(self):
        """Every pair s < t of overlapping boxes once: from the cell that holds
        the lower-left corner of their overlap."""
        boxes, c = self.boxes, self.corner
        for (cx, cy), members in self.cells.items():
            # boxes that start in this cell, in its column only, in its row only
            first = [s for s in members if c[s] == (cx, cy)]
            col = [s for s in members if c[s][0] == cx and c[s][1] != cy]
            row = [s for s in members if c[s][0] != cx and c[s][1] == cy]
            others = [s for s in members if c[s] != (cx, cy)]
            for s, t in itertools.chain(
                itertools.combinations(first, 2),
                itertools.product(first, others),
                itertools.product(col, row),
            ):
                x0, x1, y0, y1 = boxes[s]
                u0, u1, v0, v1 = boxes[t]
                if x1 < u0 or u1 < x0 or y1 < v0 or v1 < y0:
                    continue
                yield (s, t) if s < t else (t, s)

    def near(self, x0: float, x1: float, y0: float, y1: float) -> set[int]:
        """Boxes that meet the given box (and maybe a few more)."""
        out: set[int] = set()
        for cell in self._cells(x0, x1, y0, y1):
            for i in self.cells.get(cell, ()):
                u0, u1, v0, v1 = self.boxes[i]
                if u0 <= x1 and x0 <= u1 and v0 <= y1 and y0 <= v1:
                    out.add(i)
        return out


def _position(i: int, a: Point, b: Point, p: Point) -> tuple[int, Fraction]:
    """Arc position of p, found on segment i = ab of a curve, as (segment
    index, parameter in [0,1]); a bend is (i, 1) of the segment ending there."""
    if p == b:
        return i, Fraction(1)
    if p == a:
        return (i - 1, Fraction(1)) if i else (0, Fraction(0))
    return i, _param_on(a, b, p)


def _branches(c: Curve, loc: tuple[int, Fraction]):
    """The two directions in which c leaves the interior point at loc."""
    i, t = loc
    a, b = c.points[i], c.points[i + 1]
    d = (b[0] - a[0], b[1] - a[1])
    if t < 1:
        return d, (-d[0], -d[1])
    e = c.points[i + 2]
    return (-d[0], -d[1]), (e[0] - b[0], e[1] - b[1])


def _cross(d, e):
    return d[0] * e[1] - d[1] * e[0]


def _in_sweep(a, b, d) -> bool:
    """Whether direction d lies strictly inside the counterclockwise sweep
    from direction a to a different direction b."""
    after_a = _cross(a, d) > 0
    before_b = _cross(d, b) > 0
    if _cross(a, b) >= 0:  # a sweep of at most 180 degrees
        return after_a and before_b
    return after_a or before_b


def crossing_profile(rep: StringRep) -> CrossingProfile:
    """Count proper crossings per curve pair and order them along each curve.

    A meeting that is not interior to both segments is proper when exactly
    one branch of one curve lies inside the sweep between the two branches of
    the other. Raises on anything that violates the representation model:
    touching points, overlaps, endpoints resting on curves, three curves
    through one point, self-intersecting curves. A curve's self-meetings
    come from the same scan as its crossings with other curves.
    """
    curves = sorted(rep.curves.values(), key=lambda c: c.vertex)
    # (curve index, segment index, a, b, homogeneous a, homogeneous b)
    segs = []
    for i, c in enumerate(curves):
        hs = [_homog(p) for p in c.points]
        segs += [(i, k, a, b, hs[k], hs[k + 1]) for k, (a, b) in enumerate(c.segments)]
    shift = _shift(p for c in curves for p in c.points)
    grid = _Grid([_fbox(s[2], s[3], shift) for s in segs])

    # (i, j, k, l, point, position on curve i, position on curve j, needs checks)
    found = []
    overlaps = []
    selfs = []  # (curve index, k, l, meeting) of two segments k < l of one curve
    for s, t in grid.pairs():
        i, k, a, b, h1, h2 = segs[s]
        j, l, c_, d_, h3, h4 = segs[t]
        if i == j:
            r = segment_intersection((a, b), (c_, d_))
            # consecutive segments may share their bend and nothing more
            if r is not None and (l > k + 1 or isinstance(r, SegmentOverlap) or r != b):
                selfs.append((i, k, l, r))
            continue
        d1, d2, d3, d4 = _dets(h1, h2, h3, h4)
        if d1 and d2 and d3 and d4:
            if (d1 > 0) == (d2 > 0) or (d3 > 0) == (d4 > 0):
                continue
            # transversal and interior to both segments, hence proper; a and b
            # lie at signed distances ~ d1/w_a and d2/w_b from the other line
            e1, e2 = d1 * h2[2], d3 * h4[2]
            found.append((i, j, k, l, _line_meet(h1, h2, h3, h4),
                          (k, Fraction(e1, e1 - d2 * h1[2])),
                          (l, Fraction(e2, e2 - d4 * h3[2])), False))
            continue
        r = segment_intersection((a, b), (c_, d_))
        if isinstance(r, SegmentOverlap):
            overlaps.append((i, j))
        elif r is not None:
            found.append((i, j, k, l, r, _position(k, a, b, r), _position(l, c_, d_, r), True))
    if selfs:
        i, _k, _l, r = min(selfs, key=lambda hit: hit[:3])
        raise InvalidCurve(f"curve {curves[i].vertex} self-intersects near {r}")
    if overlaps:
        i, j = min(overlaps)
        raise CurveOverlap(f"curves {curves[i].vertex} and {curves[j].vertex} overlap on a segment")

    # replay the hits in all-pairs scan order, so the same error is reported first
    # (i, j) -> {crossing point: (position on curve i, position on curve j, needs checks)}
    pair_hits: dict[tuple[int, int], dict[Point, tuple]] = {}
    point_curves: dict[Point, set[int]] = {}
    for i, j, _k, _l, p, li, lj, slow in sorted(found):
        hit = (li, lj, slow)
        if pair_hits.setdefault((i, j), {}).setdefault(p, hit) is hit:
            point_curves.setdefault(p, set()).update((curves[i].vertex, curves[j].vertex))

    for p, vs in point_curves.items():
        if len(vs) > 2:
            raise TripleIntersection(f"curves {sorted(vs)} share point {p}")

    pair_counts: dict[tuple[int, int], int] = {}
    pair_pts: dict[tuple[int, int], tuple[Point, ...]] = {}
    seq_raw: dict[int, list[tuple[tuple[int, Fraction], int]]] = {c.vertex: [] for c in curves}
    for (i, j), hits in sorted(pair_hits.items()):
        cu, cv = curves[i], curves[j]
        u, v = cu.vertex, cv.vertex
        items = sorted(hits.items())
        for p, (lu, lv, slow) in items:
            if slow:  # an endpoint, a bend or an overlap may be involved
                for c, other in ((cu, v), (cv, u)):
                    if p == c.tail or p == c.head:
                        raise EndpointOnCurve(
                            f"endpoint of curve {c.vertex} lies on curve {other} at {p}"
                        )
                bu, bv = _branches(cu, lu), _branches(cv, lv)
                # identical directions of the two curves = overlap
                if any(_cross(d, e) == 0 and d[0] * e[0] + d[1] * e[1] > 0 for d in bu for e in bv):
                    raise CurveOverlap(f"curves {u} and {v} run together at {p}")
                if _in_sweep(*bu, bv[0]) == _in_sweep(*bu, bv[1]):
                    raise TouchingPoint(f"curves {u} and {v} meet at {p} without alternation")
            seq_raw[u].append((lu, v))
            seq_raw[v].append((lv, u))
        pts = tuple(p for p, _hit in items)
        pair_counts[(u, v)] = len(pts)
        pair_pts[(u, v)] = pts

    sequences = {v: tuple(partner for _loc, partner in sorted(lst)) for v, lst in seq_raw.items()}
    return CrossingProfile(pair_counts, sequences, pair_pts)


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------


def verify_1string(rep: StringRep, g: Graph, profile: CrossingProfile | None = None) -> Report:
    """PASS iff adjacent curves cross exactly once and non-adjacent never."""
    if set(rep.curves) != set(range(g.n)):
        raise ValueError("representation must carry one curve per vertex")
    prof = profile if profile is not None else crossing_profile(rep)
    failures = []
    # every other pair is a non-edge that does not cross
    for u, v in sorted(set(g.edges) | set(prof.pair_counts)):
        want = 1 if g.has_edge(u, v) else 0
        got = prof.count(u, v)
        if got != want:
            failures.append(_fail("CrossingCount", pair=(u, v), expected=want, got=got))
    return Report(not failures, tuple(failures))


def is_rotation_of(seq: tuple[int, ...], cyc: tuple[int, ...]) -> bool:
    if len(seq) != len(cyc):
        return False
    if not seq:
        return True
    doubled = cyc + cyc
    n = len(cyc)
    for s in range(n):
        if doubled[s : s + n] == seq:
            return True
    return False


def verify_order_preserving(
    rep: StringRep,
    pg: PlaneGraph,
    strict: bool = False,
    profile: CrossingProfile | None = None,
) -> Report:
    """Crossing order along every curve matches the clockwise rotation,
    linearized at some break; per-curve walking direction is free unless
    strict=True pins tail-to-head."""
    prof = profile if profile is not None else crossing_profile(rep)
    pg.rot.validate(pg.graph)
    failures = []
    for v in range(pg.graph.n):
        seq = prof.sequences.get(v, ())
        cyc = pg.rot.order[v]
        ok = is_rotation_of(seq, cyc)
        if not ok and not strict:
            ok = is_rotation_of(tuple(reversed(seq)), cyc)
        if not ok:
            failures.append(
                _fail("OrderViolation", vertex=v, observed=list(seq), expected=list(cyc))
            )
    return Report(not failures, tuple(failures))


def _circle_side(w: CircleWitness, p: Point) -> int:
    dx = p[0] - w.center[0]
    dy = p[1] - w.center[1]
    d = dx * dx + dy * dy - w.radius2
    return (d > 0) - (d < 0)


class _PolyIndex(_Grid):
    """Witness segments on a `_Grid` of their own, with floats scaled by
    2**-shift; `shift` must suit every point the index is asked about."""

    def __init__(self, w: PolylineWitness, shift: int):
        self.segs = w.segments()
        if not self.segs:
            raise DegenerateSegment("witness has no segment")
        if any(a == b for a, b in self.segs):
            raise DegenerateSegment("witness repeats a point")
        self.shift = shift
        super().__init__([_fbox(a, b, self.shift) for a, b in self.segs])

    def inside(self, p: Point) -> bool:
        """Strict interior by exact crossing number, for a point off the
        witness."""
        cnt = 0
        px, py = p
        fx, fy = _flt(px, self.shift), _flt(py, self.shift)
        # a segment crossing the rightward ray meets its row right of p
        for i in self.near(fx, math.inf, fy, fy):
            a, b = self.segs[i]
            ay, by = a[1], b[1]
            if (ay <= py < by) or (by <= py < ay):
                x_int = a[0] + (py - a[1]) * (b[0] - a[0]) / (b[1] - a[1])
                if x_int > px:
                    cnt += 1
        return cnt % 2 == 1


def verify_outer_string(rep: StringRep, mode: str = BOTH_ENDS) -> Report:
    """Witness containment, no proper witness crossing, and curve ends on the
    contour witness per mode (both-ends or one-end)."""
    if rep.witness is None:
        raise MissingWitness("representation carries no contour witness")
    if mode not in (BOTH_ENDS, ONE_END):
        raise ValueError(f"unknown mode {mode!r}")
    w = rep.witness
    failures = []
    if isinstance(w, CircleWitness):
        for v in sorted(rep.curves):
            c = rep.curves[v]
            sides = [_circle_side(w, p) for p in c.points]
            if 1 in sides:
                out = c.points[sides.index(1)]
                failures.append(_fail("WitnessCrossesCurve", vertex=v, point=_pp(out)))
            _check_ends(failures, v, [sides[0] == 0, sides[-1] == 0], mode)
    else:
        # one float scale for the witness and every curve point it is asked about
        points = w.points + tuple(p for c in rep.curves.values() for p in c.points)
        index = _PolyIndex(w, _shift(points))
        for v in sorted(rep.curves):
            c = rep.curves[v]
            # the arc positions where c meets the witness, and the (from, to)
            # positions of the stretches where it runs along a witness segment
            meets, runs = set(), []
            for k, (a, b) in enumerate(c.segments):
                for i in index.near(*_fbox(a, b, index.shift)):
                    r = segment_intersection((a, b), index.segs[i])
                    if isinstance(r, SegmentOverlap):
                        run = sorted((_position(k, a, b, r.start), _position(k, a, b, r.end)))
                        meets.update(run)
                        runs.append(run)
                    elif r is not None:
                        meets.add(_position(k, a, b, r))
            ends = [(0, Fraction(0)), (len(c.points) - 2, Fraction(1))]
            # between two consecutive stops c stays on one side of the witness:
            # test the midpoint of the stretch's first piece, unless it runs along
            stops = sorted(meets.union(ends))
            for (k, t), q in zip(stops, stops[1:]):
                if any(lo <= (k, t) < hi for lo, hi in runs):
                    continue
                if t == 1:  # a bend: the stretch starts on the next segment
                    k, t = k + 1, Fraction(0)
                a, b = c.points[k], c.points[k + 1]
                tm = (t + (q[1] if q[0] == k else 1)) / 2
                m = (a[0] + tm * (b[0] - a[0]), a[1] + tm * (b[1] - a[1]))
                if not index.inside(m):
                    failures.append(_fail("WitnessCrossesCurve", vertex=v, point=_pp(m)))
                    break
            _check_ends(failures, v, [e in meets for e in ends], mode)
    return Report(not failures, tuple(failures))


def _check_ends(failures, v, on, mode):
    if not (all if mode == BOTH_ENDS else any)(on):
        failures.append(_fail("EndpointNotOnContour", vertex=v, tail=on[0], head=on[1]))


def _param_on(a: Point, b: Point, p: Point) -> Fraction:
    dx, dy = b[0] - a[0], b[1] - a[1]
    den = dx * dx + dy * dy
    return ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / den


def _pp(p: Point) -> list:
    return [str(p[0]), str(p[1])]


def check_partial(rep: StringRep, g: Graph, rot: RotationScheme) -> None:
    """Assert the ear-induction invariant on a partial build: `rep` holds the
    curves of the vertices of g placed so far, keyed by their ids in g, and
    is an order-preserving outer-1-string representation (both ends on the
    contour) of the plane subgraph they induce."""
    placed = sorted(rep.curves)
    idx = {v: i for i, v in enumerate(placed)}
    sub = Graph(len(placed), [(idx[u], idx[v]) for u, v in g.edges if u in idx and v in idx])
    sub_rot = RotationScheme([[idx[w] for w in rot.order[v] if w in idx] for v in placed])
    sub_rep = StringRep({idx[v]: Curve(idx[v], rep.curves[v].points) for v in placed}, rep.witness)
    prof = crossing_profile(sub_rep)
    assert verify_1string(sub_rep, sub, prof).ok, "partial rep is not 1-string"
    assert verify_order_preserving(sub_rep, PlaneGraph(sub, sub_rot), profile=prof).ok
    assert verify_outer_string(sub_rep, BOTH_ENDS).ok


# ---------------------------------------------------------------------------
# transforms (used by constructors and property tests)
# ---------------------------------------------------------------------------


def map_rep(rep: StringRep, f) -> StringRep:
    curves = {
        v: Curve(v, tuple(f(p) for p in c.points)) for v, c in rep.curves.items()
    }
    w = rep.witness
    if isinstance(w, PolylineWitness):
        w = PolylineWitness(tuple(f(p) for p in w.points))
    elif isinstance(w, CircleWitness):
        raise ValueError("cannot map a circle witness through a general point map")
    return StringRep(curves, w)


def reverse_curves(rep: StringRep, vertices: Iterable[int]) -> StringRep:
    vs = set(vertices)
    curves = {
        v: Curve(v, tuple(reversed(c.points))) if v in vs else c
        for v, c in rep.curves.items()
    }
    return StringRep(curves, rep.witness)
