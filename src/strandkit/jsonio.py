"""JSON interchange for graphs, representations, reports and verdicts.

Graph JSON: {"n": int, "edges": [[u,v],...], "rotation": {"v": [...]}?}
StringRep JSON: {"curves": {"v": [[x_num,x_den,y_num,y_den], ...]},
                 "witness": {"circle": {...}} | {"polyline": [...]} | null}
Edge-list text: one "u v" pair per line, 0-indexed.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .geom import CircleWitness, Curve, PolylineWitness, StringRep
from .graphs import Graph, RotationScheme


def graph_to_json(g: Graph, rot: RotationScheme | None = None) -> dict:
    out: dict = {"n": g.n, "edges": [list(e) for e in g.edges]}
    if rot is not None:
        out["rotation"] = {str(v): list(rot.order[v]) for v in range(g.n)}
    return out


def _int(x, what: str) -> int:
    """x, which must be a JSON integer; JSON true and false load as bools,
    which Python counts as the ints 1 and 0."""
    if type(x) is not int:
        raise ValueError(f"{what} {x!r} is not an integer")
    return x


def graph_from_json(data: dict) -> tuple[Graph, RotationScheme | None]:
    g = Graph(_int(data["n"], "n"),
              [tuple(_int(x, "edge end") for x in e) for e in data["edges"]])
    rot = rotation_from_json(data, g.n)
    if rot is not None:
        rot.validate(g)
    return g, rot


def rotation_from_json(data: dict, n: int) -> RotationScheme | None:
    """The rotation stored in graph or rep JSON, or None if there is none.
    Its keys must be the decimal ids of vertices 0..n-1, so that no two
    name one vertex."""
    if not data.get("rotation"):
        return None
    ids = {str(v): v for v in range(n)}
    order = [[] for _ in range(n)]
    for k, nbrs in data["rotation"].items():
        if k not in ids:
            raise ValueError(f"rotation key {k!r} is not a vertex id 0..{n - 1}")
        order[ids[k]] = [_int(w, "rotation entry") for w in nbrs]
    return RotationScheme(order)


def graph_from_edge_text(text: str) -> Graph:
    edges = []
    mx = -1
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        u, v = line.split()
        edges.append((int(u), int(v)))
        mx = max(mx, int(u), int(v))
    return Graph(mx + 1, edges)


def _pt_json(p) -> list[int]:
    return [p[0].numerator, p[0].denominator, p[1].numerator, p[1].denominator]


def _ints(q, k: int, what: str) -> list[int]:
    """q, which must be a JSON list of exactly k integers."""
    if not isinstance(q, list) or len(q) != k:
        raise ValueError(f"{what} {q!r} is not a list of {k} integers")
    return [_int(x, f"{what} entry") for x in q]


def _pt_parse(q) -> tuple[Fraction, Fraction]:
    q = _ints(q, 4, "point")
    return (Fraction(q[0], q[1]), Fraction(q[2], q[3]))


def rep_to_json(rep: StringRep) -> dict:
    out: dict = {
        "curves": {
            str(v): [_pt_json(p) for p in c.points] for v, c in sorted(rep.curves.items())
        }
    }
    w = rep.witness
    if isinstance(w, CircleWitness):
        out["witness"] = {
            "circle": {
                "center": _pt_json(w.center),
                "radius2": [w.radius2.numerator, w.radius2.denominator],
            }
        }
    elif isinstance(w, PolylineWitness):
        out["witness"] = {"polyline": [_pt_json(p) for p in w.points]}
    else:
        out["witness"] = None
    return out


def rep_from_json(data: dict) -> StringRep:
    """The rep in rep JSON. As in a rotation, a curve's key must be the
    decimal id of its vertex, so that no two keys name one vertex."""
    curves = {}
    for k, pts in data["curves"].items():
        if not (k.isascii() and k.isdigit() and str(int(k)) == k):
            raise ValueError(f"curve key {k!r} is not a vertex id")
        curves[int(k)] = Curve(int(k), tuple(_pt_parse(q) for q in pts))
    w = data.get("witness")
    if w is None:
        return StringRep(curves)
    if not (isinstance(w, dict) and len(w) == 1 and w.keys() <= {"circle", "polyline"}):
        raise ValueError("a witness must be null or have exactly one key, circle or polyline")
    if "circle" in w:
        c = w["circle"]
        radius2 = Fraction(*_ints(c["radius2"], 2, "radius2"))
        return StringRep(curves, CircleWitness(_pt_parse(c["center"]), radius2))
    return StringRep(curves, PolylineWitness(tuple(_pt_parse(q) for q in w["polyline"])))


def dumps(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def loads(text: str):
    """Parse JSON text, rejecting an object that names a key twice, where
    json.loads would keep the last value silently."""
    def unique(pairs):
        out = dict(pairs)
        if len(out) < len(pairs):
            raise ValueError("a JSON object names a key twice")
        return out

    return json.loads(text, object_pairs_hook=unique)
