"""Combinatorial realizability oracle: fix a break per vertex, linearize
every clockwise rotation at its break, and build the abstract diagram H
(one node per crossing, two end nodes per curve, path edges along curves).
An order-preserving 1-string representation with those breaks exists exactly
when H is planar; crossing nodes are expanded into 4-wheel gadgets by
default so that a planar embedding cannot cheat with a touching (u,u,v,v)
rotation. Outer-string variants add an apex adjacent to the required end
nodes.

Enumeration walks the mixed-radix space of all break vectors (times the
end choices in one-end mode), optionally in parallel over fixed-size chunks;
verdicts are independent of the worker count.

The plain diagram is a minor of the gadgetized one, so a non-planar plain H
rules a vector out at a fraction of the cost. This shortcut pays where it
often does (subdivided K_{2,3}, W_7^+) and is pure overhead where it never
does (the Thm-2 instance). So a search backs off: after a miss (plain H
planar) it skips the plain test for the next 2, 4, 6, ... vectors over
consecutive misses, about sqrt(N) tests over N misses, and a hit resets the
gap to 0. The gap does not double, because in canonical order hits come in
runs that a doubling gap jumps over. The gadget test alone decides a vector,
so no verdict depends on the back-off. `Verdict.counters` holds the planarity
calls, shortcut attempts and shortcut hits, summed over the workers.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .errors import BudgetZero, InvalidBreak, StrandkitError
from .geom import BOTH_ENDS, ONE_END
from .graphs import PlaneGraph
from .planarity import is_planar_edges


@dataclass(frozen=True)
class AbstractDiagram:
    node_count: int
    edges: tuple[tuple[int, int], ...]
    gadgetized: bool
    end_nodes: tuple[tuple[int, int], ...]  # (tail, head) per vertex


@dataclass(frozen=True)
class Verdict:
    status: str  # "yes" | "no" | "unknown"
    witness: tuple[int, ...] | None
    witness_ends: tuple[int, ...] | None
    tried: int
    total: int
    elapsed_ms: int
    # the search's counts by COUNTERS name; they depend on the chunking and
    # the worker count, so they are neither compared nor part of to_json()
    counters: dict = field(default_factory=dict, compare=False, repr=False)

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "witness": list(self.witness) if self.witness is not None else None,
            "witness_ends": list(self.witness_ends) if self.witness_ends is not None else None,
            "tried": self.tried,
            "total": self.total,
            "elapsed_ms": self.elapsed_ms,
        }


class _Task:
    """Precomputed edge tables: H(breaks) = static edges + one cached list
    per (vertex, break digit)."""

    def __init__(self, pg: PlaneGraph, gadgets: bool):
        g, rot = pg.graph, pg.rot
        rot.validate(g)
        n = g.n
        m = g.edge_count
        self.n = n
        self.gadgets = gadgets
        eid = {}
        for i, (u, v) in enumerate(g.edges):
            eid[(u, v)] = i
            eid[(v, u)] = i
        if gadgets:
            base = 2 * n
            self.node_count = 2 * n + 5 * m
            static = []
            for i in range(m):
                hub = base + 5 * i
                r = [hub + 1, hub + 2, hub + 3, hub + 4]
                static += [(hub, r[0]), (hub, r[1]), (hub, r[2]), (hub, r[3])]
                static += [(r[0], r[1]), (r[1], r[2]), (r[2], r[3]), (r[3], r[0])]
            self.static = static

            def enter_exit(v: int, w: int) -> tuple[int, int]:
                i = eid[(v, w)]
                hub = base + 5 * i
                if v < w:
                    return hub + 1, hub + 3
                return hub + 2, hub + 4

        else:
            base = 2 * n
            self.node_count = 2 * n + m
            self.static = []

            def enter_exit(v: int, w: int) -> tuple[int, int]:
                c = base + eid[(v, w)]
                return c, c

        self.tables: list[list[tuple[tuple[int, int], ...]]] = []
        for v in range(n):
            per_digit = []
            deg = g.degree(v)
            if deg == 0:
                per_digit.append(((2 * v, 2 * v + 1),))
            else:
                cyc = rot.order[v]
                for b in range(deg):
                    lin = cyc[b:] + cyc[:b]
                    path = []
                    prev = 2 * v
                    for w in lin:
                        ein, eout = enter_exit(v, w)
                        path.append((prev, ein))
                        prev = eout
                    path.append((prev, 2 * v + 1))
                    per_digit.append(tuple(path))
            self.tables.append(per_digit)
        self.degrees = [max(1, g.degree(v)) for v in range(n)]
        self.apex = self.node_count  # used only with an outer mode

    def edges_for(self, breaks, mode, ends) -> list[tuple[int, int]]:
        edges = list(self.static)
        for v in range(self.n):
            edges += self.tables[v][breaks[v]]
        if mode == BOTH_ENDS:
            a = self.apex
            for v in range(self.n):
                edges.append((a, 2 * v))
                edges.append((a, 2 * v + 1))
        elif mode == ONE_END:
            a = self.apex
            for v in range(self.n):
                edges.append((a, 2 * v + ends[v]))
        return edges

    def nodes_for(self, mode) -> int:
        return self.node_count + (1 if mode in (BOTH_ENDS, ONE_END) else 0)


def _norm_mode(outer_mode) -> str | None:
    if outer_mode in (None, "base"):
        return None
    if outer_mode in (BOTH_ENDS, ONE_END):
        return outer_mode
    raise ValueError(f"unknown outer mode {outer_mode!r}")


def build_H(pg: PlaneGraph, breaks, gadgets: bool = True) -> AbstractDiagram:
    """Abstract diagram for one break vector."""
    _check_breaks(pg, breaks)
    t = _Task(pg, gadgets)
    edges = t.edges_for(list(breaks), None, None)
    ends = tuple((2 * v, 2 * v + 1) for v in range(pg.graph.n))
    return AbstractDiagram(t.node_count, tuple(edges), gadgets, ends)


def _check_breaks(pg: PlaneGraph, breaks) -> None:
    g = pg.graph
    if len(breaks) != g.n:
        raise InvalidBreak("break vector has wrong length")
    for v in range(g.n):
        deg = max(1, g.degree(v))
        if not (0 <= breaks[v] < deg):
            raise InvalidBreak(f"break {breaks[v]} out of range at vertex {v}")


def decide_fixed(
    pg: PlaneGraph,
    breaks,
    outer_mode=None,
    end_choice=None,
    gadgets: bool = True,
) -> bool:
    """Planarity of the (gadgetized) diagram, plus an apex in outer modes."""
    mode = _norm_mode(outer_mode)
    _check_breaks(pg, breaks)
    if mode == ONE_END and end_choice is None:
        raise ValueError("one-end mode needs an end choice per vertex")
    breaks = list(breaks)
    ends = list(end_choice) if end_choice is not None else None
    plain = _Task(pg, False) if gadgets else None
    return _realizable(_Task(pg, gadgets), plain, _Shortcut(), breaks, mode, ends)


COUNTERS = ("planarity_calls", "shortcut_attempts", "shortcut_hits")


@dataclass
class _Shortcut:
    """The plain-diagram shortcut's back-off within one search, and the
    counts of the current range in the order of COUNTERS."""

    gap: int = 0
    skip: int = 0
    counts: list = field(default_factory=lambda: [0, 0, 0])


def _realizable(task: _Task, plain: _Task | None, sc: _Shortcut, breaks, mode, ends) -> bool:
    """Planarity of `task`'s diagram for one vector. The plain diagram `plain`
    is tested first unless the back-off in `sc` skips it."""
    counts = sc.counts
    if plain is not None:
        if sc.skip:
            sc.skip -= 1
        else:
            counts[0] += 1
            counts[1] += 1
            if not is_planar_edges(plain.nodes_for(mode), plain.edges_for(breaks, mode, ends)):
                counts[2] += 1
                sc.gap = 0
                return False
            sc.gap = sc.skip = sc.gap + 2
    counts[0] += 1
    return is_planar_edges(task.nodes_for(mode), task.edges_for(breaks, mode, ends))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

_WORKER: dict = {}


def _decode(task: _Task, digit_vertices, idx: int, mode: str | None):
    n = task.n
    if mode == ONE_END:
        idx, end_bits = divmod(idx, 1 << n)
        ends = [(end_bits >> v) & 1 for v in range(n)]
    else:
        ends = None
    breaks = [0] * n
    for v in reversed(digit_vertices):
        idx, breaks[v] = divmod(idx, task.degrees[v])
    return breaks, ends


def _scan_range(args):
    """The first realizable index in [lo, hi), or None, and the counts of
    this range; the back-off carries over from the worker's previous range.
    A set `stop` flag ends the scan: the search already has its result."""
    lo, hi = args
    task: _Task = _WORKER["task"]
    plain: _Task | None = _WORKER["plain"]
    sc: _Shortcut = _WORKER["shortcut"]
    dv = _WORKER["digit_vertices"]
    mode = _WORKER["mode"]
    samples = _WORKER["samples"]
    stop = _WORKER["stop"]
    sc.counts = [0, 0, 0]
    for i in range(lo, hi):
        if stop is not None and stop.value:
            break
        idx = samples[i] if samples is not None else i
        breaks, ends = _decode(task, dv, idx, mode)
        if _realizable(task, plain, sc, breaks, mode, ends):
            return (i, tuple(breaks), tuple(ends) if ends else None), sc.counts
    return None, sc.counts


def _first_hit(results):
    """The first hit among the range results, taken in range order, and the
    counts summed up to it."""
    counts = [0, 0, 0]
    for hit, range_counts in results:
        counts = [a + b for a, b in zip(counts, range_counts)]
        if hit is not None:
            return hit, counts
    return None, counts


def _init_worker(payload):
    _WORKER.update(payload)


def enumerate_breaks(
    pg: PlaneGraph,
    outer_mode=None,
    budget: int | None = None,
    jobs: int = 1,
    seed: int = 0,
    gadgets: bool = True,
    chunk: int = 2048,
    limit: int | None = None,
) -> Verdict:
    """Search the break-vector space.

    budget=None scans indices in canonical mixed-radix order (exhaustive, or
    the first `limit` of them); budget=N draws N seeded uniform samples.
    The verdict (including the witness) does not depend on `jobs`.
    """
    if chunk < 1:
        raise StrandkitError(f"chunk must be at least 1, got {chunk}")
    if limit is not None and limit < 1:
        raise StrandkitError(f"limit must be at least 1, got {limit}")
    mode = _norm_mode(outer_mode)
    g = pg.graph
    task = _Task(pg, gadgets)
    plain = _Task(pg, False) if gadgets else None
    # most significant digit = highest degree
    digit_vertices = sorted(range(g.n), key=lambda v: (-task.degrees[v], v))
    total = 1
    for v in range(g.n):
        total *= task.degrees[v]
    if mode == ONE_END:
        total *= 1 << g.n

    t0 = time.perf_counter()
    samples = None
    if budget is not None:
        if budget <= 0:
            raise BudgetZero("sample budget must be positive")
        rng = random.Random(seed)
        samples = [rng.randrange(total) for _ in range(budget)]
        span = budget
    else:
        span = total if limit is None else min(limit, total)

    payload = {
        "task": task,
        "plain": plain,
        "shortcut": _Shortcut(),
        "digit_vertices": digit_vertices,
        "mode": mode,
        "samples": samples,
        "stop": None,
    }
    ranges = [(lo, min(lo + chunk, span)) for lo in range(0, span, chunk)]

    if jobs <= 1 or len(ranges) <= 1:
        _init_worker(payload)
        hit, counts = _first_hit(map(_scan_range, ranges))
    else:
        import multiprocessing as mp

        ctx = mp.get_context("fork")
        payload["stop"] = ctx.RawValue("b", 0)
        with ctx.Pool(jobs, initializer=_init_worker, initargs=(payload,)) as pool:
            hit, counts = _first_hit(pool.imap(_scan_range, ranges))
            # Let the ranges after the hit return at once and the workers
            # exit. Terminating busy workers can kill one while it holds the
            # result queue's lock, and Pool.terminate then hangs.
            payload["stop"].value = 1
            pool.close()
            pool.join()
    elapsed = int((time.perf_counter() - t0) * 1000)
    counters = dict(zip(COUNTERS, counts))
    if hit is not None:
        i, breaks, ends = hit
        return Verdict("yes", breaks, ends, i + 1, total, elapsed, counters)
    if budget is None and limit is None:
        return Verdict("no", None, None, total, total, elapsed, counters)
    return Verdict("unknown", None, None, span, total, elapsed, counters)
