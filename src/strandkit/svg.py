"""Deterministic SVG rendering of string representations."""

from __future__ import annotations

import math
from fractions import Fraction

from .geom import CircleWitness, CrossingProfile, PolylineWitness, StringRep, _flt, _shift

_SIZE = 800  # width and height of the square canvas, in px
_MARGIN = 40  # blank border kept around the drawing, in px
_OPEN = (
    f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
    f'viewBox="0 0 {_SIZE} {_SIZE}">'
)

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f",
)


def emit_svg(
    rep: StringRep,
    profile: CrossingProfile | None = None,
    overlays: list[tuple[str, list[tuple[Fraction, Fraction]]]] | None = None,
) -> str:
    """Curves with their vertex labels, witness, optional crossing markers
    and region overlays.

    Output is byte-identical for equal inputs.
    """
    # coordinates divided by a power of two that brings them into float
    # range, as the verifier's prefilter does; the drawing is the same
    w = rep.witness
    exact = [p for c in rep.curves.values() for p in c.points]
    if isinstance(w, PolylineWitness):
        exact += w.points
    elif isinstance(w, CircleWitness):
        exact.append(w.center)
    for _label, poly in overlays or ():
        exact += poly
    shift = _shift(exact)

    def flt(p) -> tuple[float, float]:
        return _flt(p[0], shift), _flt(p[1], shift)

    pts = [flt(p) for p in exact]
    if isinstance(w, CircleWitness):
        # the squared radius has twice the bits: rescale it by its own
        # power of four
        half = (_shift([(w.radius2,)]) + 1) // 2
        r = math.sqrt(_flt(w.radius2, 2 * half)) * 2.0 ** (half - shift)
        cx, cy = flt(w.center)
        pts += [(cx - r, cy - r), (cx + r, cy + r)]

    if not pts:
        return _OPEN + "</svg>\n"
    x0 = min(p[0] for p in pts)
    x1 = max(p[0] for p in pts)
    y0 = min(p[1] for p in pts)
    y1 = max(p[1] for p in pts)
    span = max(x1 - x0, y1 - y0, 1e-9)
    scale = (_SIZE - 2 * _MARGIN) / span

    def T(p) -> tuple[float, float]:
        # flip y so the mathematical orientation reads normally on screen
        x, y = flt(p)
        return _MARGIN + (x - x0) * scale, _SIZE - _MARGIN - (y - y0) * scale

    def fmt(v: float) -> str:
        return f"{v:.3f}"

    out = [_OPEN]
    if isinstance(w, CircleWitness):
        cx, cy = T(w.center)
        rr = r * scale
        out.append(
            f'<circle cx="{fmt(cx)}" cy="{fmt(cy)}" r="{fmt(rr)}" fill="none" '
            'stroke="#999999" stroke-dasharray="6,4"/>'
        )
    elif isinstance(w, PolylineWitness):
        d = " ".join(f"{fmt(T(p)[0])},{fmt(T(p)[1])}" for p in w.points)
        out.append(
            f'<polygon points="{d}" fill="none" stroke="#999999" stroke-dasharray="6,4"/>'
        )
    for label, poly in overlays or ():
        d = " ".join(f"{fmt(T(p)[0])},{fmt(T(p)[1])}" for p in poly)
        out.append(f'<polygon points="{d}" fill="#dddddd" fill-opacity="0.5" stroke="none">'
                   f"<title>{label}</title></polygon>")
    for v in sorted(rep.curves):
        c = rep.curves[v]
        color = _PALETTE[v % len(_PALETTE)]
        d = " ".join(f"{fmt(T(p)[0])},{fmt(T(p)[1])}" for p in c.points)
        out.append(
            f'<polyline points="{d}" fill="none" stroke="{color}" stroke-width="1.6"/>'
        )
        tx, ty = T(c.points[0])
        out.append(
            f'<text x="{fmt(tx)}" y="{fmt(ty - 4)}" font-size="11" '
            f'fill="{color}">{v}</text>'
        )
    if profile is not None:
        for pair in sorted(profile.points):
            for p in profile.points[pair]:
                px, py = T(p)
                out.append(
                    f'<circle cx="{fmt(px)}" cy="{fmt(py)}" r="2.2" fill="#000000"/>'
                )
    out.append("</svg>")
    return "\n".join(out) + "\n"
