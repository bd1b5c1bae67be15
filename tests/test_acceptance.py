"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 6 decides all 70 million vectors of W_7^+ in every run. Only the
full-size criterion 7 (10^6 samples) is opt-in: set STRANDKIT_ACCEPT_LONG=1.
The default run executes criterion 7 at a reduced, clearly-labeled sample
count.
"""

import os
import random
import time

from strandkit.circle import build_circle, chord_to_geometry
from strandkit.families import (
    extended_wheel,
    random_maximal_outerplanar,
    random_partial_2tree,
    random_planar_3tree,
    subdivided_k23,
    triple_stellation,
)
from strandkit.geom import (
    BOTH_ENDS,
    crossing_profile,
    map_rep,
    reverse_curves,
    verify_1string,
    verify_order_preserving,
    verify_outer_string,
)
from strandkit.geom import CircleWitness, StringRep, pt
from strandkit.graphs import (
    ear_decomposition,
    is_outerplanar,
    replay_ears,
    replay_two_tree,
    completed_two_tree,
    two_tree_completion,
    PlaneGraph,
    RotationScheme,
)
from strandkit.oracle import ONE_END, decide_fixed, enumerate_breaks
from strandkit.sp import build_sp
from strandkit.vpg import GRID_CONSTANT, build_vpg

from conftest import atlas_connected_outerplanar

LONG = os.environ.get("STRANDKIT_ACCEPT_LONG") == "1"


def _corpus_sizes(count, lo, hi):
    return [lo + ((hi - lo) * i) // (count - 1) for i in range(count)]


def _report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name} failed: {detail}"


def test_criterion_1_thm3_circle_corpus():
    t0 = time.perf_counter()
    failures = 0
    for i, n in enumerate(_corpus_sizes(100, 5, 200)):
        g = random_maximal_outerplanar(n, seed=i).graph
        b = build_circle(g)
        rep = chord_to_geometry(b.diagram)
        prof = crossing_profile(rep)
        if not (
            verify_1string(rep, g, prof).ok
            and verify_order_preserving(rep, b.plane, profile=prof).ok
            and verify_outer_string(rep, BOTH_ENDS).ok
        ):
            failures += 1
    elapsed = time.perf_counter() - t0
    _report(
        "1 (Thm 3 circle-chord, 100 graphs n=5..200)",
        failures == 0 and elapsed < 60.0,
        f"failures={failures} elapsed={elapsed:.1f}s (budget 60s)",
    )


def test_criterion_2_thm4_vpg_corpus():
    t0 = time.perf_counter()
    failures = 0
    worst = 0.0
    for i, n in enumerate(_corpus_sizes(100, 5, 200)):
        g = random_maximal_outerplanar(n, seed=i).graph
        b = build_vpg(g)
        prof = crossing_profile(b.rep)
        ok = (
            verify_1string(b.rep, g, prof).ok
            and verify_order_preserving(b.rep, b.plane, profile=prof).ok
            and verify_outer_string(b.rep, BOTH_ENDS).ok
            and all(c.bend_count() <= 1 for c in b.rep.curves.values())
            and all(
                a[0] == bb[0] or a[1] == bb[1]
                for c in b.rep.curves.values()
                for (a, bb) in c.segments
            )
        )
        worst = max(worst, b.grid[0] / n, b.grid[1] / n)
        if not ok:
            failures += 1
    elapsed = time.perf_counter() - t0
    _report(
        "2 (Thm 4 B1-VPG, 100 graphs n=5..200)",
        failures == 0 and worst <= GRID_CONSTANT,
        f"failures={failures} max(dim/n)={worst:.2f} (c={GRID_CONSTANT}) elapsed={elapsed:.0f}s",
    )


def test_criterion_3_lem2_sp_corpus():
    rng = random.Random(99)
    failures = 0
    for i, n in enumerate(_corpus_sizes(100, 2, 100)):
        g = random_partial_2tree(n, rng.choice([0.4, 0.6, 0.8, 1.0]), seed=1000 + i)
        b = build_sp(g)
        prof = crossing_profile(b.rep)
        ok = (
            verify_1string(b.rep, g, prof).ok
            and verify_order_preserving(b.rep, b.plane, profile=prof).ok
            and all(c.bend_count() == 1 for c in b.rep.curves.values())
        )
        if not ok:
            failures += 1
    _report("3 (Lemma 2 touching-L, 100 partial 2-trees n<=100)", failures == 0,
            f"failures={failures}")


def test_criterion_4_oracle_constructor_cross_validation():
    graphs = atlas_connected_outerplanar(7)
    bad = 0
    for g in graphs:
        b = build_circle(g)
        breaks = [b.breaks[v] for v in range(g.n)]
        if not decide_fixed(b.plane, breaks, BOTH_ENDS):
            bad += 1
    _report(
        "4 (oracle validates circle breaks, all connected outer-planar n<=7)",
        bad == 0,
        f"{len(graphs)} graphs, disagreements={bad}",
    )


def test_criterion_5_k23_subdivision():
    t0 = time.perf_counter()
    pg = build_sp(subdivided_k23()).plane
    v_outer = enumerate_breaks(pg, BOTH_ENDS, jobs=1)
    v_base = enumerate_breaks(pg, None, jobs=1)
    elapsed = time.perf_counter() - t0
    ok = (
        v_outer.status == "no"
        and v_outer.tried == 4608
        and v_outer.total == 4608
        and v_base.status == "yes"
        and elapsed < 10.0
    )
    _report(
        "5 (subdivided K_{2,3}: both-ends NO over 4608, base YES)",
        ok,
        f"outer={v_outer.status}/{v_outer.tried} base={v_base.status} elapsed={elapsed:.1f}s",
    )


def test_criterion_6_w7plus_extended():
    pg = extended_wheel(7)
    total = 7 * 5**7 * 2**7
    prefix = total // 100
    p1 = enumerate_breaks(pg, BOTH_ENDS, jobs=1, limit=prefix)
    p2 = enumerate_breaks(pg, BOTH_ENDS, jobs=2, limit=prefix)
    same = (p1.status, p1.witness, p1.tried) == (p2.status, p2.witness, p2.tried)
    v = enumerate_breaks(pg, BOTH_ENDS, jobs=2)
    ok = same and v.status == "no" and v.tried == total == v.total
    _report(
        "6 (W_7^+ both-ends NO over 70,000,000; 1% prefix parallel-deterministic)",
        ok,
        f"prefix_equal={same} status={v.status} tried={v.tried} elapsed={v.elapsed_ms}ms",
    )


def test_criterion_7_thm2_sampled_evidence():
    samples = 1_000_000 if LONG else 20_000
    label = "full" if LONG else "reduced default; STRANDKIT_ACCEPT_LONG=1 for 10^6"
    pg = triple_stellation(random_planar_3tree(6, seed=0))
    v = enumerate_breaks(pg, None, budget=samples, seed=0, jobs=2)
    ok = v.status == "unknown" and v.witness is None
    _report(
        "7 (Thm 2 evidence: sampled oracle, UNKNOWN with zero hits — NOT a proof)",
        ok,
        f"samples={samples} ({label}) status={v.status} zero_hits={v.witness is None}",
    )


def test_criterion_8_property_suites():
    rng = random.Random(7)
    problems = []

    # geom covariance + direction freedom on circle reps
    for seed in (3, 11):
        g = random_maximal_outerplanar(8 + seed, seed=seed).graph
        b = build_circle(g)
        rep = chord_to_geometry(b.diagram)
        base = crossing_profile(rep)
        s = rng.choice([2, 3, 5])
        moved = map_rep(StringRep(rep.curves, None),
                        lambda p: (p[0] * s + 7, p[1] * s - 3))
        if crossing_profile(moved).pair_counts != base.pair_counts:
            problems.append(f"scaling breaks profile (seed {seed})")
        flip = reverse_curves(rep, rng.sample(range(g.n), g.n // 2))
        if not verify_order_preserving(flip, b.plane).ok:
            problems.append(f"direction freedom fails (seed {seed})")
        mirrored = map_rep(StringRep(rep.curves, None), lambda p: (-p[0], p[1]))
        mirrored = StringRep(mirrored.curves, CircleWitness(pt(0, 0), 1))
        rot_rev = RotationScheme([tuple(reversed(r)) for r in b.plane.rot.order])
        if not (
            verify_order_preserving(mirrored, PlaneGraph(g, rot_rev)).ok
            and verify_outer_string(mirrored, BOTH_ENDS).ok
        ):
            problems.append(f"mirror covariance fails (seed {seed})")

    # recognizer round trips + ear replay
    for seed in range(6):
        pg = random_maximal_outerplanar(6 + 2 * seed, seed=seed)
        ok, rot, ofi = is_outerplanar(pg.graph)
        if not ok:
            problems.append(f"generator/recognizer mismatch (mop seed {seed})")
        dec = ear_decomposition(pg.graph, rot, ofi)
        if replay_ears(pg.graph.n, dec) != pg.graph:
            problems.append(f"ear replay mismatch (seed {seed})")
        g2 = random_partial_2tree(10 + seed, 0.6, seed=seed)
        e = two_tree_completion(g2)
        if replay_two_tree(g2, e) != completed_two_tree(g2, e):
            problems.append(f"completion replay mismatch (seed {seed})")

    # oracle monotone consistency + determinism under parallelism
    for seed in (0, 4):
        g = random_maximal_outerplanar(7, seed=seed).graph
        b = build_circle(g)
        for _ in range(4):
            breaks = [rng.randrange(max(1, g.degree(v))) for v in range(g.n)]
            if decide_fixed(b.plane, breaks, BOTH_ENDS):
                ends = [rng.randrange(2) for _ in range(g.n)]
                if not (
                    decide_fixed(b.plane, breaks, ONE_END, end_choice=ends)
                    and decide_fixed(b.plane, breaks)
                ):
                    problems.append(f"monotone consistency fails (seed {seed})")
        v1 = enumerate_breaks(b.plane, BOTH_ENDS, jobs=1, chunk=32)
        v2 = enumerate_breaks(b.plane, BOTH_ENDS, jobs=2, chunk=32)
        if (v1.status, v1.witness, v1.tried) != (v2.status, v2.witness, v2.tried):
            problems.append(f"parallel determinism fails (seed {seed})")

    _report("8 (property suites over seeded corpora)", not problems, "; ".join(problems))
