"""The four benchmark workloads.

Each workload has a set-up that makes its inputs from the seed (the library
receives only these generated inputs) and returns a fixed list of jobs. A job
calls the library's public API the way the `strandkit build`, `verify` and
`oracle` commands do, through module attributes so that the tracer can wrap
them. `Job.run` is the timed part; `Job.check` runs afterwards, untimed, and
compares the result with the known answer or the acceptance properties.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from strandkit import circle, families, geom, graphs, jsonio, oracle, sp, vpg

HERE = Path(__file__).resolve().parent

GRID_CONSTANT = 4  # acceptance 2: grid dimension <= 4n

# oracle-sampled: the acceptance-7 setting (base mode, two workers), cut into
# calls whose budget splits evenly over the pool's chunks: 4 chunks of 32, two
# per worker.
SAMPLED_CALLS = 4
SAMPLED_BUDGET = 128
SAMPLED_CHUNK = 32
SAMPLED_WORKERS = 2


@dataclass
class Outcome:
    """What a check found: whether the job met its expectation, the items it
    decided (break vectors, or graph vertices), and output sizes."""

    ok: bool
    items: int
    detail: dict = field(default_factory=dict)


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def plane_graph(name: str) -> graphs.PlaneGraph:
    """The fixed plane graphs of the oracle-exhaustive cases."""
    if name == "subdivided-k23":
        return sp.build_sp(families.subdivided_k23()).plane
    family, k = name.rsplit("-", 1)
    return {"wheel": families.wheel, "extended-wheel": families.extended_wheel}[family](int(k))


def _ladder(count: int, lo: int, hi: int) -> list[int]:
    """Sizes spaced evenly from lo to hi, as in the acceptance corpus."""
    return [lo + ((hi - lo) * i) // (count - 1) for i in range(count)]


def _coord_bits(rep: geom.StringRep) -> int:
    """Largest numerator or denominator bit length in the rep's coordinates."""
    w = rep.witness
    pts = [p for c in rep.curves.values() for p in c.points]
    if isinstance(w, geom.PolylineWitness):
        pts += w.points
    nums = [x for p in pts for x in p]
    if isinstance(w, geom.CircleWitness):
        nums += [*w.center, w.radius2]
    return max(max(x.numerator.bit_length(), x.denominator.bit_length()) for x in nums)


def _rep_payload(rep, plane, breaks=None) -> dict:
    """The rep JSON that `strandkit build` writes."""
    payload = jsonio.rep_to_json(rep)
    payload["rotation"] = {str(v): list(plane.rot.order[v]) for v in range(plane.graph.n)}
    if breaks is not None:
        payload["breaks"] = {str(v): breaks[v] for v in sorted(breaks)}
    return payload


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

CIRCLE_SIZES = _ladder(5, 50, 250)
VPG_SIZES = _ladder(3, 20, 44)
SP_SIZES = _ladder(5, 50, 200)
SP_DENSITIES = (0.4, 0.6, 0.8, 1.0)


def construct_job(kind: str, g: graphs.Graph) -> Job:
    def run():
        if kind == "circle":
            b = circle.build_circle(g)
            rep = circle.chord_to_geometry(b.diagram)
            breaks, outer = b.breaks, True
        elif kind == "vpg":
            b = vpg.build_vpg(g)
            rep, breaks, outer = b.rep, b.breaks, True
        else:
            b = sp.build_sp(g)
            rep, breaks, outer = b.rep, None, False
        prof = geom.crossing_profile(rep)
        reports = [
            geom.verify_1string(rep, g, prof),
            geom.verify_order_preserving(rep, b.plane, profile=prof),
        ]
        if outer:
            reports.append(geom.verify_outer_string(rep, geom.BOTH_ENDS))
        text = jsonio.dumps(_rep_payload(rep, b.plane, breaks))
        return b, rep, reports, text

    def check(res) -> Outcome:
        b, rep, reports, text = res
        ok = all(r.ok for r in reports)
        detail = {"bytes": len(text), "coord_bits": _coord_bits(rep)}
        curves = rep.curves.values()
        if kind == "vpg":
            ok = ok and max(b.grid) <= GRID_CONSTANT * g.n
            ok = ok and all(c.bend_count() <= 1 for c in curves)
            ok = ok and all(p[0] == q[0] or p[1] == q[1] for c in curves for p, q in c.segments)
        elif kind == "sp":
            ok = ok and all(c.bend_count() == 1 for c in curves)
        return Outcome(ok, g.n, detail)

    return Job(f"build {kind} n={g.n}", run, check)


def setup_construct(seed: int) -> list[Job]:
    """The seed orders the mix. The graphs are fixed: the cost of a build
    depends strongly on the graph's shape and even on its vertex labels
    (same-size jobs varied up to 2x over seeds and relabelings), which would
    swamp the run-to-run comparison."""
    jobs = [construct_job("circle", families.random_maximal_outerplanar(n, i).graph)
            for i, n in enumerate(CIRCLE_SIZES)]
    jobs += [construct_job("vpg", families.random_maximal_outerplanar(n, 500 + i).graph)
             for i, n in enumerate(VPG_SIZES)]
    jobs += [construct_job("sp", families.random_partial_2tree(n, SP_DENSITIES[i % 4], i))
             for i, n in enumerate(SP_SIZES)]
    random.Random(seed).shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

# (n, variants). PASS checks the rep against its own graph with --order and,
# where the rep has a contour witness, --outer both-ends. DEL and ADD check it
# against the graph with one edge deleted or one non-edge added: the expected
# result is a one_string FAIL that names exactly that pair. Every job's rep is
# translated by its own seeded offset, as an external rep would be. The graphs
# are fixed, as in construct; the seed picks the pairs and the offsets.
VERIFY_CIRCLE = ((1000, ("PASS",)), (200, ("PASS", "DEL", "ADD")))
VERIFY_SP = ((100, ("PASS", "DEL", "ADD")), (200, ("PASS", "DEL", "ADD")))
# (n, scales). VPG reps are also scaled by an integer.
VERIFY_VPG = ((12, (1, 8, 16, 32, 64)), (16, (1, 8, 16, 32)))
VERIFY_VPG_GRAPH_SEED = 7


def _verify_job(label: str, rep_text: str, graph_text: str, n: int, pair) -> Job:
    order = pair is None

    def run():
        data = json.loads(rep_text)
        rep = jsonio.rep_from_json(data)
        g, _rot = jsonio.graph_from_json(json.loads(graph_text))
        prof = geom.crossing_profile(rep)
        reports = {"one_string": geom.verify_1string(rep, g, prof)}
        if order:
            rot = graphs.RotationScheme(
                [data["rotation"][str(v)] for v in range(g.n)])
            reports["order_preserving"] = geom.verify_order_preserving(
                rep, graphs.PlaneGraph(g, rot), profile=prof)
        if rep.witness is not None:
            reports["outer_string"] = geom.verify_outer_string(rep, geom.BOTH_ENDS)
        return reports

    def check(reports) -> Outcome:
        one = reports["one_string"]
        ok = all(r.ok for name, r in reports.items() if name != "one_string")
        if pair is None:
            ok = ok and one.ok
        else:
            ok = ok and not one.ok and [f.get("pair") for f in one.failures] == [pair]
        return Outcome(ok, n, {"bytes": len(rep_text)})

    return Job(label, run, check)


def _translated(rep: geom.StringRep, dx: int, dy: int) -> geom.StringRep:
    """The rep moved by (dx, dy). A translation, unlike a general point map,
    also moves a circle witness."""
    w = rep.witness
    if not isinstance(w, geom.CircleWitness):
        return geom.map_rep(rep, lambda p: (p[0] + dx, p[1] + dy))
    moved = geom.map_rep(geom.StringRep(rep.curves), lambda p: (p[0] + dx, p[1] + dy))
    center = (w.center[0] + dx, w.center[1] + dy)
    return geom.StringRep(moved.curves, geom.CircleWitness(center, w.radius2))


def _offset(rng: random.Random) -> int:
    """A seeded offset of fixed bit length, so that coordinate sizes, and with
    them the cost of the arithmetic, do not depend on the seed."""
    return rng.choice((-1, 1)) * rng.randrange(10**6, 2 * 10**6)


def _variants(label, rep, plane, variants, rng) -> list[Job]:
    """One job per variant, each with its own translated copy of the rep, so
    that no two jobs verify the same input."""
    g = plane.graph
    out = []
    for variant in variants:
        edges = list(g.edges)
        pair = None
        if variant == "DEL":
            pair = edges.pop(rng.randrange(len(edges)))
        elif variant == "ADD":
            while True:
                u, v = sorted(rng.sample(range(g.n), 2))
                if not g.has_edge(u, v):
                    break
            pair = (u, v)
            edges.append(pair)
        moved = _translated(rep, _offset(rng), _offset(rng))
        rep_text = jsonio.dumps(_rep_payload(moved, plane))
        graph_text = jsonio.dumps(jsonio.graph_to_json(graphs.Graph(g.n, edges)))
        out.append(_verify_job(f"{label} {variant}", rep_text, graph_text, g.n, pair))
    return out


def setup_verify(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs: list[Job] = []
    for i, (n, variants) in enumerate(VERIFY_CIRCLE):
        g = families.random_maximal_outerplanar(n, i).graph
        b = circle.build_circle(g)
        rep = circle.chord_to_geometry(b.diagram)
        jobs += _variants(f"verify circle n={n}", rep, b.plane, variants, rng)
    for i, (n, variants) in enumerate(VERIFY_SP):
        g = families.random_partial_2tree(n, SP_DENSITIES[i % 4], 100 + i)
        b = sp.build_sp(g)
        jobs += _variants(f"verify sp n={n}", b.rep, b.plane, variants, rng)
    for n, scales in VERIFY_VPG:
        g = families.random_maximal_outerplanar(n, VERIFY_VPG_GRAPH_SEED).graph
        b = vpg.build_vpg(g)
        for s in scales:
            rep = geom.map_rep(b.rep, lambda p, s=s: (p[0] * s, p[1] * s))
            variants = ("PASS", "DEL", "ADD") if s <= 8 else ("PASS",)
            jobs += _variants(f"verify vpg n={n} x{s}", rep, b.plane, variants, rng)
    return jobs


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def _verdict_check(expected: dict):
    keys = ("status", "witness", "witness_ends", "tried", "total")

    def check(v) -> Outcome:
        got = v.to_json()
        ok = all(got[k] == expected[k] for k in keys)
        return Outcome(ok, v.tried)

    return check


def setup_oracle_exhaustive(seed: int) -> list[Job]:
    """A fixed list of verdicts with known answers; the seed is not used."""
    cases = json.loads((HERE / "known_answers.json").read_text())
    jobs = []
    for case in cases:
        pg = plane_graph(case["graph"])
        mode = None if case["mode"] == "base" else case["mode"]

        def run(pg=pg, mode=mode, limit=case["limit"]):
            return oracle.enumerate_breaks(pg, mode, limit=limit)

        jobs.append(Job(f"oracle {case['id']}", run, _verdict_check(case)))
    return jobs


def setup_oracle_sampled(seed: int, workers: int = SAMPLED_WORKERS) -> list[Job]:
    """Seeded samples of the Thm-2 instance; no sample is realizable, so each
    call scans its whole budget and reports UNKNOWN."""
    pg = families.triple_stellation(families.random_planar_3tree(6, seed))
    total = 1
    for v in range(pg.graph.n):
        total *= max(1, pg.graph.degree(v))
    expected = {"status": "unknown", "witness": None, "witness_ends": None,
                "tried": SAMPLED_BUDGET, "total": total}
    jobs = []
    for k in range(SAMPLED_CALLS):
        def run(sample_seed=seed * SAMPLED_CALLS + k):
            return oracle.enumerate_breaks(
                pg, None, budget=SAMPLED_BUDGET, jobs=workers, seed=sample_seed,
                chunk=SAMPLED_CHUNK)

        jobs.append(Job(f"oracle thm2 sample batch {k}", run, _verdict_check(expected)))
    return jobs


SETUPS = {
    "construct": setup_construct,
    "verify": setup_verify,
    "oracle-exhaustive": setup_oracle_exhaustive,
    "oracle-sampled": setup_oracle_sampled,
}
