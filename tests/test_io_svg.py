import json
from fractions import Fraction as F

import pytest

from strandkit.circle import build_circle, chord_to_geometry
from strandkit.geom import (
    CircleWitness,
    Curve,
    PolylineWitness,
    StringRep,
    crossing_profile,
    pt,
)
from strandkit.jsonio import (
    dumps,
    graph_from_edge_text,
    graph_from_json,
    graph_to_json,
    rep_from_json,
    rep_to_json,
)
from strandkit.families import random_maximal_outerplanar
from strandkit.graphs import Graph
from strandkit.svg import emit_svg
from strandkit.vpg import build_vpg


def test_empty_svg_is_valid():
    out = emit_svg(StringRep({}))
    assert out.startswith("<svg") and out.rstrip().endswith("</svg>")


def test_base_edge_svg_has_two_segments_and_circle():
    b = build_circle(Graph(2, [(0, 1)]))
    rep = chord_to_geometry(b.diagram)
    out = emit_svg(rep)
    assert out.count("<polyline") == 2
    assert "<circle" in out


def test_svg_deterministic():
    g = random_maximal_outerplanar(9, seed=4).graph
    rep = chord_to_geometry(build_circle(g).diagram)
    a = emit_svg(rep, profile=crossing_profile(rep))
    bb = emit_svg(rep, profile=crossing_profile(rep))
    assert a == bb


def scaled(rep, k):
    """rep with every coordinate multiplied by k."""
    def move(points):
        return tuple(pt(x * k, y * k) for x, y in points)

    w = rep.witness
    if isinstance(w, PolylineWitness):
        w = PolylineWitness(move(w.points))
    else:
        w = CircleWitness(move([w.center])[0], w.radius2 * k * k)
    return StringRep({v: Curve(v, move(c.points)) for v, c in rep.curves.items()}, w)


def test_svg_beyond_float_range():
    # a power of two rescales every float of the drawing exactly
    g = random_maximal_outerplanar(8, seed=1).graph
    for rep in (build_vpg(g).rep, chord_to_geometry(build_circle(g).diagram)):
        big = scaled(rep, 2**1400)
        assert emit_svg(big, profile=crossing_profile(big)) == emit_svg(
            rep, profile=crossing_profile(rep))


def test_graph_json_roundtrip():
    g = random_maximal_outerplanar(8, seed=2)
    data = json.loads(dumps(graph_to_json(g.graph, g.rot)))
    g2, rot2 = graph_from_json(data)
    assert g2 == g.graph and rot2.order == g.rot.order


def test_edge_text():
    g = graph_from_edge_text("# comment\n0 1\n1 2\n")
    assert g.n == 3 and g.edge_count == 2


def test_rep_json_roundtrip_exact():
    c = Curve(0, (pt(F(1, 3), F(-2, 7)), pt(F(5, 2), F(0))))
    rep = StringRep({0: c}, None)
    back = rep_from_json(json.loads(dumps(rep_to_json(rep))))
    assert back.curves[0].points == c.points


def test_rep_json_roundtrip_witnesses():
    g = random_maximal_outerplanar(7, seed=1).graph
    rep = chord_to_geometry(build_circle(g).diagram)
    back = rep_from_json(json.loads(dumps(rep_to_json(rep))))
    assert back.witness == rep.witness
    assert back.curves[3].points == rep.curves[3].points
    vb = build_vpg(g)
    back2 = rep_from_json(json.loads(dumps(rep_to_json(vb.rep))))
    assert back2.witness == vb.rep.witness


def test_rep_json_curve_keys_are_vertex_ids():
    # int(key) names vertex 1 by each of the first four and vertex 10 by
    # "1_0"; only a vertex's decimal id names it
    points = [[0, 1, 0, 1], [1, 1, 0, 1]]
    assert set(rep_from_json({"curves": {"1": points, "10": points}}).curves) == {1, 10}
    for key in ("01", "+1", " 1", "1 ", "1_0", "-1", "١", "", "None"):
        with pytest.raises(ValueError, match="is not a vertex id"):
            rep_from_json({"curves": {key: points}})


def test_graph_json_vertex_count_is_an_integer():
    for n in (2.9, 2.0, "2", True, None):
        with pytest.raises(ValueError, match="is not an integer"):
            graph_from_json({"n": n, "edges": [[0, 1]]})
