"""Order-preserving outer-1-string representations with one-bend curves of
slopes +-1, turned into an orthogonal (B1-VPG) representation on an O(n) grid
by a 45-degree rotation and a monotone piecewise-linear compaction.

Construction frame: curves are peaks/valleys with +-1 arms; the contour S is
an axis-parallel closed polyline carrying every private region's hypotenuse.
Each live directed outer edge (u,v) owns a right isosceles triangle region
on S containing the tail of u's curve and the head of v's curve; the two
owner stretches enter with frame slopes that classify the region:

    P     tail(u) left  / head(v) right, both rising away      (same slope)
    Q     head(v) left  / tail(u) right, both rising away      (same slope)
    CONV  head(v) left rising right / tail(u) right rising left (converging)

plus horizontal mirrors of all three. P, Q and multi-vertex CONV ears are one
chain of peaks, laid out by `graphs.ear_layout` (the circle ear layout) on the
hyp from u's side to v's. Only the single-vertex CONV ear uses a valley: it
shortens the owner curves and reroutes S with a slit detour (the only case
that edits S). S stays axis-parallel, so the detour finds its span on S by
coordinate equality.

The compaction maps curve points and the contour on integers over one common
denominator; see `compact_grid`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .errors import NonDiagonalSegment
from .geom import (
    CircleWitness,
    Curve,
    PolylineWitness,
    StringRep,
    check_partial,
    map_rep,
    segment_intersection,
)
from .graphs import (
    Graph,
    PlaneGraph,
    biconnect_outerplanar,
    ear_decomposition,
    ear_layout,
    is_outerplanar,
    restrict_breaks,
)

F = Fraction
Pt = tuple[Fraction, Fraction]

GRID_CONSTANT = 4  # the compacted grid's dimensions are at most 4n


@dataclass(frozen=True)
class Frame:
    """Axis-aligned local frame: world = origin + xi*e1 + eta*e2."""

    origin: Pt
    e1: tuple[int, int]
    e2: tuple[int, int]

    def to_world(self, xi: Fraction, eta: Fraction) -> Pt:
        return (
            self.origin[0] + xi * self.e1[0] + eta * self.e2[0],
            self.origin[1] + xi * self.e1[1] + eta * self.e2[1],
        )

    def sub(self, origin_local: Pt, e1_local: tuple[int, int], e2_local: tuple[int, int]) -> "Frame":
        w0 = self.to_world(origin_local[0], origin_local[1])
        ex = (
            e1_local[0] * self.e1[0] + e1_local[1] * self.e2[0],
            e1_local[0] * self.e1[1] + e1_local[1] * self.e2[1],
        )
        ey = (
            e2_local[0] * self.e1[0] + e2_local[1] * self.e2[0],
            e2_local[0] * self.e1[1] + e2_local[1] * self.e2[1],
        )
        return Frame(w0, ex, ey)

    def mirrored(self, width: Fraction) -> "Frame":
        return Frame(self.to_world(width, F(0)), (-self.e1[0], -self.e1[1]), self.e2)


@dataclass
class TriRegion:
    """Private region of directed outer edge (u,v): hyp from frame (0,0) to
    (width,0) on S, apex inward; tail(u) at xi_u with stretch slope s_u, the
    head of v at xi_v with slope s_v (slope +1 rises toward +xi)."""

    edge: tuple[int, int]
    frame: Frame
    width: Fraction
    xi_u: Fraction
    s_u: int
    xi_v: Fraction
    s_v: int

    def hyp_world(self) -> tuple[Pt, Pt]:
        return self.frame.to_world(F(0), F(0)), self.frame.to_world(self.width, F(0))

    def apex_world(self) -> Pt:
        return self.frame.to_world(self.width / 2, self.width / 2)


@dataclass(frozen=True)
class VpgBuild:
    rep: StringRep            # orthogonal frame, compacted integer grid
    diag_rep: StringRep       # slope +-1 construction frame (exact rationals)
    breaks: dict[int, int]
    plane: PlaneGraph
    grid: tuple[int, int]
    regions: tuple[TriRegion, ...]
    trace: tuple[dict, ...] = ()


# ---------------------------------------------------------------------------
# construction state
# ---------------------------------------------------------------------------


class _Builder:
    def __init__(self) -> None:
        self.curves: dict[int, list[Pt]] = {}
        self.S: list[Pt] = []
        self.regions: dict[tuple[int, int], TriRegion] = {}
        self.last = 0  # index in S of the segment the last splice replaced

    # -- S editing ----------------------------------------------------------

    def splice(self, a: Pt, b: Pt, path: list[Pt]) -> None:
        """Replace the straight S portion between points a, b (both interior
        to one S segment) by `path` (from a to b). S is axis-parallel, so
        the segment is the one on the line through a and b whose span along
        that line covers both. The search starts at the previous splice and
        widens both ways: consecutive ears mostly edit nearby stretches."""
        k = 1 if a[0] == b[0] else 0  # the axis the span runs along
        lo, hi = (a[k], b[k]) if a[k] < b[k] else (b[k], a[k])
        S, n = self.S, len(self.S)
        for d in range(n):
            i = (self.last + (d + 1) // 2 * (1 if d % 2 else -1)) % n
            p, q = S[i], S[(i + 1) % n]
            if p[1 - k] == q[1 - k] == a[1 - k] == b[1 - k] and (
                p[k] < lo < hi < q[k] or q[k] < lo < hi < p[k]
            ):
                pts = [a] + path + [b] if (a[k] < b[k]) == (p[k] < q[k]) else [b] + path[::-1] + [a]
                self.S = S[: i + 1] + pts + S[i + 1 :]
                self.last = i
                return
        raise AssertionError("splice span not found on S")


# ---------------------------------------------------------------------------
# ear insertion
# ---------------------------------------------------------------------------


def _insert_ear(b: _Builder, u: int, xs: tuple[int, ...], v: int) -> None:
    reg = b.regions.pop((u, v))
    frame, w = reg.frame, reg.width
    xi_u, s_u, xi_v, s_v = reg.xi_u, reg.s_u, reg.xi_v, reg.s_v
    # canonicalize to one of P / Q / CONV by mirroring when needed
    xi_l, s_l = (xi_u, s_u) if xi_u < xi_v else (xi_v, s_v)
    if (s_l == -1) or (s_u == 1 and s_v == -1 and xi_u < xi_v):
        frame = frame.mirrored(w)
        xi_u, xi_v = w - xi_u, w - xi_v
        s_u, s_v = -s_u, -s_v
    assert (s_u, s_v) == (1, 1) or ((s_u, s_v) == (-1, 1) and xi_v < xi_u), (
        "diverging region cannot arise"
    )
    if s_u == -1 and len(xs) == 1:
        _case_conv_valley(b, frame, w, u, xs[0], v, xi_v, xi_u)
        return
    # P, Q and CONV chains: peaks laid out from u's side of the hyp (lo) to
    # v's (hi); slope d rises toward hi. Each new head rises toward hi (d),
    # each new tail toward lo (-d).
    lo, hi, d = (F(0), w, 1) if xi_u < xi_v else (w, F(0), -1)
    ends, edges = ear_layout(lo, xi_u, xi_v, hi, len(xs))
    for x, (t, h) in zip(xs, ends):
        b.curves[x] = [
            frame.to_world(t, F(0)),
            frame.to_world((t + h) / 2, abs(t - h) / 2),
            frame.to_world(h, F(0)),
        ]
    chain = (u, *xs, v)
    for i, (r0, r1, p_u, p_v) in enumerate(edges):
        sub = frame.sub((r0, F(0)), (1, 0), (0, 1))
        e = (chain[i], chain[i + 1])
        b.regions[e] = TriRegion(
            e, sub, r1 - r0, p_u - r0, s_u if i == 0 else -d, p_v - r0, s_v if i == len(xs) else d
        )


def _case_conv_valley(b, frame, w, u, x, v, h, t):
    """Converging single-vertex ear: a valley between the owner stretches,
    shortened owners, and a slit detour of S reaching the two new (rotated)
    private regions.

    The valley crosses both stretches at height 5g/16 (g = t-h), which is
    always inside the region triangle's central corridor; every clearance
    beyond that height is scaled by the per-side leg margins (h on the left,
    w-t on the right) so the slit never pokes through a leg into foreign
    territory."""
    g = t - h
    m = (h + t) / 2
    d = g / 8            # valley bend height
    y0 = g / 16          # slit floor, below the bend
    cross = 5 * g / 16   # height of the valley's crossings with u and v
    er = min(w - t, g) / 16
    el = min(h, g) / 16

    y_u = cross - er     # shortened tail of u at (c_r, y_u)
    c_r = t - y_u
    y1r = cross + er     # right end of the valley at (c_r, y1r)
    y_v = cross - el
    c_l = h + y_v
    y1l = cross + el

    b.curves[x] = [
        frame.to_world(c_l, y1l),
        frame.to_world(m, d),
        frame.to_world(c_r, y1r),
    ]
    ut = frame.to_world(t, F(0))
    assert b.curves[u][0] == ut, "tail of u must sit on the consumed hyp"
    b.curves[u] = [frame.to_world(c_r, y_u)] + b.curves[u][1:]
    vh = frame.to_world(h, F(0))
    assert b.curves[v][-1] == vh, "head of v must sit on the consumed hyp"
    b.curves[v] = b.curves[v][:-1] + [frame.to_world(c_l, y_v)]

    path = [
        (c_l - el / 2, F(0)),
        (c_l - el / 2, y1l + 2 * el),
        (c_l, y1l + 2 * el),
        (c_l, y0),
        (c_r, y0),
        (c_r, y1r + 2 * er),
        (c_r + er / 2, y1r + 2 * er),
        (c_r + er / 2, F(0)),
    ]
    span_a = frame.to_world(path[0][0], F(0))
    span_b = frame.to_world(path[-1][0], F(0))
    b.splice(span_a, span_b, [frame.to_world(p[0], p[1]) for p in path[1:-1]])

    right = frame.sub((c_r, y_u - er), (0, 1), (-1, 0))
    b.regions[(u, x)] = TriRegion((u, x), right, 4 * er, er, 1, 3 * er, -1)
    left = frame.sub((c_l, y1l + el), (0, -1), (1, 0))
    b.regions[(x, v)] = TriRegion((x, v), left, 4 * el, el, 1, 3 * el, -1)


# ---------------------------------------------------------------------------
# build pipeline
# ---------------------------------------------------------------------------


def build_vpg(g: Graph, per_ear_check: bool = False, trace: bool = False) -> VpgBuild:
    _ok, rot2, outer = is_outerplanar(g)
    g2 = biconnect_outerplanar(g, rot2, outer)
    if g2 is not g:  # the augmentation needs an embedding of its own
        _ok, rot2, outer = is_outerplanar(g2)
    dec = ear_decomposition(g2, rot2, outer)
    a, c = dec.root_edge

    b = _Builder()
    b.curves[a] = [(F(0), F(0)), (F(3), F(3)), (F(6), F(0))]
    b.curves[c] = [(F(10), F(0)), (F(7), F(3)), (F(4), F(0))]
    b.S = [(F(-4), F(0)), (F(14), F(0)), (F(14), F(6)), (F(-4), F(6))]
    f1 = Frame((F(-1), F(0)), (1, 0), (0, 1))
    b.regions[(a, c)] = TriRegion((a, c), f1, F(6), F(1), 1, F(5), 1)
    f2 = Frame((F(11, 2), F(0)), (1, 0), (0, 1))
    b.regions[(c, a)] = TriRegion((c, a), f2, F(11, 2), F(9, 2), -1, F(1, 2), -1)

    traces: list[dict] = []

    def step_done() -> None:
        if per_ear_check:
            _check_partial(g2, rot2, b)
        if trace:
            traces.append(_snapshot(b))

    step_done()
    for ear in dec.ears:
        _insert_ear(b, ear[0], tuple(ear[1:-1]), ear[-1])
        step_done()

    # drop the augmentation curves and restrict the rotation and breaks to g
    plane, breaks = restrict_breaks(g, rot2, b.regions)
    diag_rep = StringRep(
        {v: Curve(v, tuple(b.curves[v])) for v in range(g.n)}, PolylineWitness(tuple(b.S))
    )
    rep, grid = compact_grid(rotate45(diag_rep))
    return VpgBuild(
        rep, diag_rep, breaks, plane, grid, tuple(b.regions.values()), tuple(traces)
    )


# ---------------------------------------------------------------------------
# rotation and compaction
# ---------------------------------------------------------------------------


def rotate45(rep: StringRep) -> StringRep:
    """(x, y) -> (x+y, y-x): slope +-1 segments become axis-parallel. A
    polyline witness maps with the curves; a circle witness raises."""
    for v, c in rep.curves.items():
        for p, q in c.segments:
            dx, dy = q[0] - p[0], q[1] - p[1]
            if dx != dy and dx != -dy:
                raise NonDiagonalSegment(f"curve {v} has a non-diagonal segment")
    return map_rep(rep, lambda p: (p[0] + p[1], p[1] - p[0]))


def compact_grid(rep: StringRep) -> tuple[StringRep, tuple[int, int]]:
    """Monotone piecewise-linear homeomorphism taking the distinct curve
    coordinates to consecutive integers. Axis-parallel curve segments stay
    axis-parallel; the witness polyline is subdivided at map breakpoints so
    its image stays piecewise linear. All incidence and crossing structure is
    preserved (the map is a plane homeomorphism).

    The map runs on integers: every curve and witness coordinate is scaled
    by the common denominator of all of them, and every point, curve points
    included, goes through `_axis_image`. A witness segment's cuts on x-lines
    and y-lines are ordered by integer parameters over one denominator, so a
    point on both lines is one cut. One `Fraction` is built per output
    coordinate. The map does not keep a circle a circle, so a circle witness
    with curves is rejected."""
    if not rep.curves:
        return rep, (0, 0)
    wit = rep.witness
    if isinstance(wit, CircleWitness):
        raise ValueError("cannot compact a circle witness")
    wpts = wit.points if isinstance(wit, PolylineWitness) else ()
    xs = sorted({p[0] for c in rep.curves.values() for p in c.points})
    ys = sorted({p[1] for c in rep.curves.values() for p in c.points})
    den = math.lcm(*{v.denominator for v in (*xs, *ys, *(c for p in wpts for c in p))})

    def scaled(v: Fraction) -> int:
        return v.numerator * (den // v.denominator)

    X, Y = [scaled(x) for x in xs], [scaled(y) for y in ys]

    def image(x: int, y: int, e: int = 1) -> Pt:
        return F(*_axis_image(X, x, e, den)), F(*_axis_image(Y, y, e, den))

    curves = {
        v: Curve(v, tuple(image(scaled(x), scaled(y)) for x, y in c.points))
        for v, c in rep.curves.items()
    }
    if isinstance(wit, PolylineWitness):
        pts = [(scaled(x), scaled(y)) for x, y in wpts]
        out: list[Pt] = []
        for i, p in enumerate(pts):
            out.append(image(*p))
            _cut_images(X, Y, p, pts[(i + 1) % len(pts)], image, out)
        wit = PolylineWitness(tuple(out))
    return StringRep(curves, wit), (len(xs) - 1, len(ys) - 1)


def _axis_image(V: list[int], num: int, e: int, den: int) -> tuple[int, int]:
    """Image (numerator, denominator) of the value num/e (e > 0) under the map
    of one axis whose grid values are V, all in units of 1/den. Beyond the
    grid values the map is a translation."""
    lo = (bisect_right(V, num) if e == 1 else bisect_right(V, num, key=lambda v: v * e)) - 1
    if lo < 0:
        return num - V[0] * e, e * den
    if num == V[lo] * e:
        return lo, 1
    if lo == len(V) - 1:
        return lo * e * den + num - V[lo] * e, e * den
    w = (V[lo + 1] - V[lo]) * e
    return lo * w + num - V[lo] * e, w


def _cut_images(X, Y, p, q, image, out) -> None:
    """Append the images of the points where the segment p->q (scaled
    integers) meets grid lines, from p to q, both ends excluded. With the
    reduced direction (rx, ry) and m = |rx|*|ry| (zeros read as 1), the point
    at key k is p + k*(rx, ry)/m: an x-line v has key |v - px|*|ry|, a
    y-line |v - py|*|rx|, and one key for both lines is one point. `image`
    maps the point (x/m, y/m) given as (x, y, m)."""
    (px, py), (qx, qy) = p, q
    g = math.gcd(qx - px, qy - py) or 1
    rx, ry = (qx - px) // g, (qy - py) // g
    ax, ay = abs(rx) or 1, abs(ry) or 1
    keys = set()
    for V, a, b, scale in ((X, px, qx, ay), (Y, py, qy, ax)):
        lo, hi = (a, b) if a < b else (b, a)
        keys.update(abs(v - a) * scale for v in V[bisect_right(V, lo) : bisect_left(V, hi)])
    m = ax * ay
    out.extend(image(px * m + k * rx, py * m + k * ry, m) for k in sorted(keys))


def grid_size(rep: StringRep) -> tuple[int, int]:
    """Bounding box of all curve points."""
    xs = [p[0] for c in rep.curves.values() for p in c.points]
    ys = [p[1] for c in rep.curves.values() for p in c.points]
    if not xs:
        return (0, 0)
    return (int(max(xs) - min(xs)), int(max(ys) - min(ys)))


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def _snapshot(b: _Builder) -> dict:
    return {
        "curves": {v: [(str(p[0]), str(p[1])) for p in pts] for v, pts in sorted(b.curves.items())},
        "s": [(str(p[0]), str(p[1])) for p in b.S],
        "regions": [
            {"edge": list(r.edge), "hyp": [(str(p[0]), str(p[1])) for p in r.hyp_world()]}
            for r in b.regions.values()
        ],
    }


def _check_partial(g2: Graph, rot2, b: _Builder) -> None:
    """Machine-check the induction invariant on the partial rep, and that no
    curve other than the two owners meets a region triangle."""
    curves = {v: Curve(v, tuple(pts)) for v, pts in sorted(b.curves.items())}
    check_partial(StringRep(curves, PolylineWitness(tuple(b.S))), g2, rot2)
    for r in b.regions.values():
        h0, h1 = r.hyp_world()
        tri = (h0, h1, r.apex_world())
        for v, c in curves.items():
            if v in r.edge:
                continue
            for seg in c.segments:
                if _segment_hits_triangle(seg, tri):
                    raise AssertionError(f"curve {v} intrudes into region {r.edge}")


def _segment_hits_triangle(seg, tri) -> bool:
    a, b = seg
    for p in (a, b):
        if _strictly_in_triangle(p, tri):
            return True
    for i in range(3):
        e = (tri[i], tri[(i + 1) % 3])
        if segment_intersection(seg, e) is not None:
            return True
    return False


def _strictly_in_triangle(p, tri) -> bool:
    signs = []
    for i in range(3):
        a, b = tri[i], tri[(i + 1) % 3]
        d = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        signs.append((d > 0) - (d < 0))
    return all(s > 0 for s in signs) or all(s < 0 for s in signs)
