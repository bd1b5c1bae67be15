"""Order-preserving circle-chord representations of outer-planar graphs.

Ear induction on the biconnected augmentation: each live directed outer edge
(u,v) owns an open parameter arc containing the tail of u's chord and the
head of v's chord; an ear consumes its edge's arc and lays out new chord
endpoints and arcs inside it with `graphs.ear_layout`, the layout the VPG
chains share. Circle points use the rational tangent-half-angle map
t -> ((1-t^2)/(1+t^2), 2t/(1+t^2)); the gap point (-1,0) at t=infinity is
never assigned. For t = a/b that point is the integer homogeneous point
(b^2-a^2, 2ab, a^2+b^2), and the ear step decides where a crossing lies
against a region's cap chord from these integers alone: one line-point sign
per shrink step, whose only `Fraction` work is halving the parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterCollision
from .geom import CircleWitness, Curve, StringRep, _cross3, check_partial
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


def _circle_h(t: Fraction) -> tuple[int, int, int]:
    """Homogeneous integer point of parameter t = a/b on the unit circle:
    (b^2 - a^2, 2ab, a^2 + b^2), with a positive weight."""
    a, b = t.numerator, t.denominator
    return (b * b - a * a, 2 * a * b, a * a + b * b)


def circle_point(t: Fraction) -> tuple[Fraction, Fraction]:
    """Rational point on the unit circle; t = tan(theta/2)."""
    x, y, w = _circle_h(t)
    return (F(x, w), F(y, w))


@dataclass(frozen=True)
class ChordDiagram:
    """Per-vertex chord given by two circle parameters (t_tail, t_head).

    The uncovered circle point is the parameterization gap (-1, 0).
    """

    params: dict[int, tuple[Fraction, Fraction]]

    def all_params(self) -> list[Fraction]:
        out = []
        for t0, t1 in self.params.values():
            out.append(t0)
            out.append(t1)
        return out


@dataclass
class ArcRegion:
    """Open parameter interval reserved for directed outer edge (u,v);
    contains exactly the tail parameter of u and the head parameter of v."""

    edge: tuple[int, int]
    lo: Fraction
    hi: Fraction
    p_u: Fraction
    p_v: Fraction


@dataclass(frozen=True)
class CircleBuild:
    diagram: ChordDiagram
    breaks: dict[int, int]
    plane: PlaneGraph
    trace: tuple[dict, ...] = ()


def _chord_meet(a, b) -> tuple[int, int, int]:
    """Crossing point of two interleaving chords, as a homogeneous integer
    point with a positive weight."""
    chord_a = _cross3(_circle_h(a[0]), _circle_h(a[1]))
    x, y, w = _cross3(chord_a, _cross3(_circle_h(b[0]), _circle_h(b[1])))
    return (x, y, w) if w > 0 else (-x, -y, -w)


def _in_sliver(lo: Fraction, hi: Fraction, p: tuple[int, int, int]) -> bool:
    """Is the homogeneous point p (positive weight) inside the circular
    segment bounded by the arc (lo,hi), lo < hi, and its cap chord (arc side
    of the cap, cap inclusive)? The arc runs counterclockwise from lo to hi,
    so it lies right of the chord directed from lo to hi."""
    lx, ly, lw = _cross3(_circle_h(lo), _circle_h(hi))
    return lx * p[0] + ly * p[1] + lw * p[2] <= 0


def _make_region(
    edge: tuple[int, int],
    lo: Fraction,
    hi: Fraction,
    p_u: Fraction,
    p_v: Fraction,
    cross_pt: tuple[int, int, int],
) -> ArcRegion:
    """Region over (lo,hi), shrunk toward the protected parameters until the
    owners' crossing lies outside the circular segment."""
    a, b = (p_u, p_v) if p_u < p_v else (p_v, p_u)
    while _in_sliver(lo, hi, cross_pt):
        lo = (lo + a) / 2
        hi = (hi + b) / 2
    return ArcRegion(edge, lo, hi, p_u, p_v)


def chord_to_geometry(diagram: ChordDiagram) -> StringRep:
    """Chords as 0-bend curves on the unit circle, witness = that circle."""
    ts = diagram.all_params()
    if len(set(ts)) != len(ts):
        raise ParameterCollision("chord endpoints collide on the circle")
    curves = {
        v: Curve(v, (circle_point(t0), circle_point(t1)))
        for v, (t0, t1) in diagram.params.items()
    }
    return StringRep(curves, CircleWitness((F(0), F(0)), F(1)))


def build_circle(g: Graph, per_ear_check: bool = False, trace: bool = False) -> CircleBuild:
    """Theorem-3 style construction for any connected outer-planar graph."""
    _ok, rot2, ofi = is_outerplanar(g)
    g2 = biconnect_outerplanar(g, rot2, ofi)
    if g2 is not g:  # the augmentation needs an embedding of its own
        _ok, rot2, ofi = is_outerplanar(g2)
    dec = ear_decomposition(g2, rot2, outer_face_index=ofi)

    a, b = dec.root_edge
    params: dict[int, tuple[Fraction, Fraction]] = {
        a: (F(2), F(-1, 2)),
        b: (F(-3), F(1, 3)),
    }
    regions: dict[tuple[int, int], ArcRegion] = {}
    regions[(a, b)] = _make_region(
        (a, b), F(-1, 12), F(3), F(2), F(1, 3), _chord_meet(params[a], params[b])
    )
    regions[(b, a)] = _make_region(
        (b, a), F(-4), F(-1, 12), F(-3), F(-1, 2), _chord_meet(params[a], params[b])
    )

    traces: list[dict] = []

    def step_done() -> None:
        if per_ear_check:
            _check_partial(g2, rot2, params, regions)
        if trace:
            traces.append(_snapshot(params, regions))

    step_done()
    for ear in dec.ears:
        u, xs, v = ear[0], ear[1:-1], ear[-1]
        reg = regions.pop((u, v))
        p_u, p_v = reg.p_u, reg.p_v
        assert params[u][0] == p_u and params[v][1] == p_v
        outer_u, outer_v = (reg.lo, reg.hi) if p_u < p_v else (reg.hi, reg.lo)
        ends, edges = ear_layout(outer_u, p_u, p_v, outer_v, len(xs))
        params.update(zip(xs, ends))
        chain = (u, *xs, v)
        for i, (lo, hi, pu, pv) in enumerate(edges):
            e = (chain[i], chain[i + 1])
            cross = _chord_meet(params[e[0]], params[e[1]])
            regions[e] = _make_region(e, lo, hi, pu, pv, cross)
        step_done()

    # drop the augmentation chords and restrict the rotation and breaks to g
    plane, breaks = restrict_breaks(g, rot2, regions)
    diagram = ChordDiagram({v: params[v] for v in range(g.n)})
    ts = diagram.all_params()
    if len(set(ts)) != len(ts):
        raise ParameterCollision("internal: parameter collision")
    return CircleBuild(diagram, breaks, plane, tuple(traces))


def _snapshot(params, regions) -> dict:
    return {
        "params": {v: (str(t0), str(t1)) for v, (t0, t1) in sorted(params.items())},
        "regions": [
            {"edge": list(r.edge), "lo": str(r.lo), "hi": str(r.hi)}
            for r in regions.values()
        ],
    }


def _check_partial(g2, rot2, params, regions) -> None:
    """Machine-check the induction invariant on the partial diagram."""
    check_partial(chord_to_geometry(ChordDiagram(params)), g2, rot2)
    # arc regions: pairwise disjoint, free of foreign endpoints
    rs = sorted(regions.values(), key=lambda r: r.lo)
    for r1, r2 in zip(rs, rs[1:]):
        assert r1.hi <= r2.lo, "region arcs overlap"
    for r in rs:
        inside = [
            v
            for v, (t0, t1) in params.items()
            if r.lo < t0 < r.hi or r.lo < t1 < r.hi
        ]
        assert set(inside) <= set(r.edge), f"foreign endpoints inside region {r.edge}"
