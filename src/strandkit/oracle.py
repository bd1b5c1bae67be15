"""Combinatorial realizability oracle: fix a break per vertex, linearize
every clockwise rotation at its break, and build the abstract diagram H
(one node per crossing, two end nodes per curve, path edges along curves).
An order-preserving 1-string representation with those breaks exists exactly
when H is planar; crossing nodes are expanded into 4-wheel gadgets so that
a planar embedding cannot cheat with a touching (u,u,v,v) rotation. Only
`build_H` and `decide_fixed` offer the plain diagram as the decision
(`gadgets=False`), which over-accepts; searches always use gadgets.
Outer-string variants add an apex adjacent to the required end nodes.

`build_H`, `decide_fixed` and `enumerate_breaks` each build one `_Task`, a
plane graph in one outer mode. Its one diagram builder, `_Task.layout`, lays
out the plain or the gadget diagram of the plane graph induced on any vertex
set, all vertices included, as static edges plus one edge tuple per (vertex,
break, end bit). The rows are indexed by the full break of each vertex, so a
search over any vertex set needs no map of its breaks.

Enumeration walks the mixed-radix space of all break vectors (times the
end choices in one-end mode), optionally in parallel over fixed-size chunks;
verdicts are independent of the worker count.

The plain diagram and every induced diagram are minors of the gadget
diagram, so a non-planar one rules a vector out at a fraction of the cost.
A search first tests the plain diagram and a ladder of prefix diagrams, the
fewer edges first. The ladder's rungs are the induced diagrams of the first
4, 8, 16, ... vertices (fewer than n) in the canonical most-significant-digit
order, the highest degree first; a prefix that spans no edge is left out,
since its diagram is planar for every vector. Each rung is laid out on its
first test. The plain diagram hits often on the subdivided K_{2,3} and W_7^+
and never on the Thm-2 instance. There the rungs of 8 and 16 vertices have
ruled out every sampled vector, at a tenth of a gadget test's cost or less,
so neither the plain nor the gadget diagram is tested or laid out. A
minor that rarely hits is pure overhead, so each one backs off on its own:
after a miss (minor planar) it is skipped for the next 2, 4, 6, ... vectors
over consecutive misses, about sqrt(N) tests over N misses, and a hit resets
the gap to 0. The gap does not double, because in canonical order hits come
in runs that a doubling gap jumps over. The gadget test alone accepts a
vector, so no verdict depends on the minors or their back-off.
`Verdict.counters` holds the planarity calls, the plain diagram's attempts
and hits, and the rungs' attempts and hits, summed over the workers.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from functools import cached_property

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
    """A plane graph's diagrams in one outer mode, each a triple (node count,
    static edges, rows) with H(breaks, ends) = static edges +
    rows[v][breaks[v]][ends[v]] over the vertices v. `layout` is the one
    builder: it lays out the plain or the gadget diagram of the plane graph
    induced on any vertex set, in rows indexed by this task's breaks. The
    gadget diagram of all vertices is cached as `gadget`.

    The kept vertices, crossings (kept edges) and the apex are numbered in
    increasing order: the i-th kept vertex's curve runs from node 2i to node
    2i+1. The two port rules differ only at a crossing: kept edge j is node
    2k+j (k kept vertices), or a 4-wheel with hub 2k+5j whose rim the curve
    of v enters and leaves at nodes 1 and 3 (v < w) or 2 and 4 (v > w) past
    the hub. An outer mode puts an apex after a diagram's last node, joined
    to both ends of every kept curve by static edges, or in one-end mode to
    the end that each vertex's end bit picks; other modes ignore the end
    bits."""

    def __init__(self, pg: PlaneGraph, mode):
        mode = _norm_mode(mode)
        g = pg.graph
        pg.rot.validate(g)
        n = g.n
        self.pg, self.mode, self.n = pg, mode, n
        self.degrees = [max(1, g.degree(v)) for v in range(n)]
        self.one_end = mode == ONE_END
        # end bits are the least significant digits of an index, then the
        # vertices, the highest degree most significant
        self.end_radix = 1 << n if self.one_end else 1
        self.digits = sorted(range(n), key=lambda v: (-self.degrees[v], v))[::-1]
        self.total = math.prod(self.degrees) * self.end_radix

    @cached_property
    def gadget(self):
        return self.layout(range(self.n))

    def layout(self, keep, gadgets: bool = True):
        """The gadget diagram, or with `gadgets` False the plain one, of the
        plane graph induced on the vertex set `keep`. Kept vertex v's row
        for break b is the path along the full clockwise order of v from b,
        through its crossings with kept neighbours only; with none it is one
        edge between the curve's end nodes. A kept vertex keeps its end bit.
        Other vertices add no edges.

        For every vector, both diagrams of any set S = `keep` are minors of
        the gadget diagram of all vertices, so a non-planar one rules the
        vector out. Delete the curves of the vertices outside S, their end
        nodes, and the wheels of their crossings with each other. A wheel
        crossed by one kept curve only contracts to a point on that curve's
        path, which one more contraction removes. What remains of a kept
        curve is its row above. The apex edges restrict the same way: what
        is left joins the apex to the kept end nodes that the outer mode
        names. Contracting each wheel that is left to its hub gives the
        plain diagram."""
        g, rot = self.pg.graph, self.pg.rot
        loc = {v: i for i, v in enumerate(sorted(keep))}
        kept = [(u, v) for u, v in g.edges if u in loc and v in loc]
        eid = {}
        for j, (u, v) in enumerate(kept):
            eid[(u, v)] = eid[(v, u)] = j
        width, leave = (5, 2) if gadgets else (1, 0)
        base = 2 * len(loc)
        apex = base + width * len(kept)
        static = []
        if gadgets:
            for hub in range(base, apex, 5):
                r = [hub + 1, hub + 2, hub + 3, hub + 4]
                static += [(hub, r[0]), (hub, r[1]), (hub, r[2]), (hub, r[3])]
                static += [(r[0], r[1]), (r[1], r[2]), (r[2], r[3]), (r[3], r[0])]
        if self.mode == BOTH_ENDS:
            static += [(apex, t) for t in range(base)]
        rows = [[((), ())] * d for d in self.degrees]
        for v, i in loc.items():
            tips = (((apex, 2 * i),), ((apex, 2 * i + 1),)) if self.one_end else ((), ())
            # the node where v's curve enters each crossing in clockwise
            # order, None at an unkept neighbour; it leaves `leave` later
            ports = [base + width * eid[(v, w)] + gadgets * (1 if v < w else 2) if w in loc
                     else None for w in rot.order[v]]
            rows[v] = row = []
            for b in range(self.degrees[v]):
                # the row of b - 1 holds unless b moves a kept neighbour
                if b == 0 or ports[b - 1] is not None:
                    xs = [x for x in ports[b:] + ports[:b] if x is not None]
                    path = tuple(zip([2 * i] + [x + leave for x in xs], xs + [2 * i + 1]))
                    entry = (path + tips[0], path + tips[1])
                row.append(entry)
        return apex + (self.mode is not None), tuple(static), rows

    def edge_count(self, n: int, m: int, gadgets: bool) -> int:
        """Edges of one vector's plain or gadget diagram, in this task's
        mode, of a plane graph with n vertices and m edges: a curve's path
        has its degree + 1 edges, a wheel 8, and the apex one per end node
        that the mode joins it to."""
        apex = {None: 0, ONE_END: 1, BOTH_ENDS: 2}[self.mode]
        return (10 if gadgets else 2) * m + (1 + apex) * n

    @staticmethod
    def edges(diagram, breaks, ends) -> tuple[int, list[tuple[int, int]]]:
        """(node count, edge list) of one diagram for one vector."""
        nodes, static, rows = diagram
        edges = list(static)
        for row, b, e in zip(rows, breaks, ends):
            edges += row[b][e]
        return nodes, edges

    def check(self, breaks, ends) -> None:
        if len(breaks) != self.n or len(ends) != self.n:
            raise InvalidBreak("break or end vector has wrong length")
        for v in range(self.n):
            if not (0 <= breaks[v] < self.degrees[v]):
                raise InvalidBreak(f"break {breaks[v]} out of range at vertex {v}")
            if ends[v] not in (0, 1):
                raise InvalidBreak(f"end {ends[v]} is not 0 or 1 at vertex {v}")

    def decode(self, idx: int) -> tuple[list[int], list[int]]:
        """The break vector and the end bits (bit v for vertex v) of index idx."""
        idx, bits = divmod(idx, self.end_radix)
        breaks = [0] * self.n
        for v in self.digits:
            idx, breaks[v] = divmod(idx, self.degrees[v])
        return breaks, [(bits >> v) & 1 for v in range(self.n)]


def _norm_mode(outer_mode) -> str | None:
    if outer_mode in (None, "base"):
        return None
    if outer_mode in (BOTH_ENDS, ONE_END):
        return outer_mode
    raise ValueError(f"unknown outer mode {outer_mode!r}")


def build_H(pg: PlaneGraph, breaks, gadgets: bool = True) -> AbstractDiagram:
    """Abstract diagram for one break vector."""
    t = _Task(pg, None)
    ends = [0] * t.n
    t.check(breaks, ends)
    nodes, edges = t.edges(t.layout(range(t.n), gadgets), breaks, ends)
    tips = tuple((2 * v, 2 * v + 1) for v in range(t.n))
    return AbstractDiagram(nodes, tuple(edges), gadgets, tips)


def decide_fixed(
    pg: PlaneGraph,
    breaks,
    outer_mode=None,
    end_choice=None,
    gadgets: bool = True,
) -> bool:
    """Planarity of the (gadgetized) diagram, plus an apex in outer modes.
    With gadgets, the plain diagram and every rung of the prefix ladder are
    tested first, as in a search; a non-planar one answers False without the
    gadget test. A single decision has no back-off, so it climbs the whole
    ladder: on a YES that costs at most about one extra gadget test, since
    the rungs' sizes roughly double."""
    t = _Task(pg, outer_mode)
    if t.one_end and end_choice is None:
        raise ValueError("one-end mode needs an end choice per vertex")
    ends = [0] * t.n if end_choice is None else list(end_choice)
    t.check(breaks, ends)
    if not gadgets:
        return is_planar_edges(*t.edges(t.layout(range(t.n), False), breaks, ends))
    return _realizable(t, _Shortcut(t), breaks, ends)


COUNTERS = ("planarity_calls", "shortcut_attempts", "shortcut_hits", "prefix_attempts",
            "prefix_hits")

FIRST_RUNG = 4  # the ladder's prefixes have 4, 8, 16, ... vertices, each below n


class _Shortcut:
    """The minors of the gadget diagram that a search tests first, the
    fewer edges first: the plain diagram and the rungs of the prefix
    ladder, the induced diagrams of the first 4, 8, 16, ... vertices (fewer
    than n) in the canonical most-significant-digit order, where they span
    an edge. Each minor is [COUNTERS index of its attempts (its hits
    follow), its prefix or None for the plain diagram, its diagram once laid
    out], with its back-off [gap, skip]. Also the counts of the current
    range, in COUNTERS order."""

    def __init__(self, task: _Task):
        g = task.pg.graph
        order = task.digits[::-1]
        rank = {v: i for i, v in enumerate(order)}
        sized = [(task.edge_count(task.n, g.edge_count, False), [1, None, None])]
        k = FIRST_RUNG
        while k < task.n:
            m = sum(max(rank[u], rank[v]) < k for u, v in g.edges)
            if m:  # without an edge, every vector's diagram is planar: paths and an apex
                sized.append((task.edge_count(k, m, True), [3, order[:k], None]))
            k *= 2
        sized.sort(key=lambda s: s[0])
        self.minors = [minor for _size, minor in sized]
        self.backoff = [[0, 0] for _ in self.minors]
        self.counts = [0] * len(COUNTERS)


def _realizable(task: _Task, sc: _Shortcut, breaks, ends) -> bool:
    """Planarity of the gadget diagram for one vector. The minors are
    tested first, in order, unless the back-off in `sc` skips them; a
    non-planar minor rules the vector out."""
    counts = sc.counts
    for minor, backoff in zip(sc.minors, sc.backoff):
        if backoff[1]:
            backoff[1] -= 1
            continue
        i, keep, diagram = minor
        if diagram is None:
            diagram = minor[2] = (task.layout(range(task.n), False) if keep is None
                                  else task.layout(keep))
        counts[0] += 1
        counts[i] += 1
        if not is_planar_edges(*task.edges(diagram, breaks, ends)):
            counts[i + 1] += 1
            backoff[0] = 0
            return False
        backoff[0] = backoff[1] = backoff[0] + 2
    counts[0] += 1
    return is_planar_edges(*task.edges(task.gadget, breaks, ends))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

_SEARCH: tuple = ()  # (task, shortcut, indices, stop flag) of this worker's search


def _scan_range(bounds):
    """The first realizable position in [lo, hi) of the search's indices, or
    None, and the counts of this range; the back-off carries over from the
    worker's previous range. A set stop flag ends the scan: the search
    already has its result."""
    lo, hi = bounds
    task, sc, indices, stop = _SEARCH
    sc.counts = [0] * len(COUNTERS)
    for i in range(lo, hi):
        if stop is not None and stop.value:
            break
        breaks, ends = task.decode(indices[i])
        if _realizable(task, sc, breaks, ends):
            return (i, tuple(breaks), tuple(ends) if task.one_end else None), sc.counts
    return None, sc.counts


def _ranges(span: int, chunk: int, stop=None):
    """The chunks [lo, hi) of range(span), made only as they are taken: an
    exhaustive space can have far more chunks than memory holds. A set stop
    flag ends them, so that closing the pool does not drain the rest."""
    for lo in range(0, span, chunk):
        if stop is not None and stop.value:
            return
        yield lo, min(lo + chunk, span)


def _first_hit(results):
    """The first hit among the range results, taken in range order, and the
    counts summed up to it."""
    counts = [0] * len(COUNTERS)
    for hit, range_counts in results:
        counts = [a + b for a, b in zip(counts, range_counts)]
        if hit is not None:
            return hit, counts
    return None, counts


def _init_worker(search: tuple) -> None:
    global _SEARCH
    _SEARCH = search


def enumerate_breaks(
    pg: PlaneGraph,
    outer_mode=None,
    budget: int | None = None,
    jobs: int = 1,
    seed: int = 0,
    chunk: int = 2048,
    limit: int | None = None,
) -> Verdict:
    """Search the break-vector space.

    budget=None scans indices in canonical mixed-radix order (exhaustive, or
    the first `limit` of them); budget=N draws N seeded uniform samples, and
    excludes `limit`. The verdict (including the witness) does not depend on
    `jobs`.
    """
    if chunk < 1:
        raise StrandkitError(f"chunk must be at least 1, got {chunk}")
    if limit is not None and limit < 1:
        raise StrandkitError(f"limit must be at least 1, got {limit}")
    if budget is not None and limit is not None:
        raise StrandkitError("a sample budget and a limit exclude each other")
    task = _Task(pg, outer_mode)
    total = task.total

    t0 = time.perf_counter()
    if budget is not None:
        if budget <= 0:
            raise BudgetZero("sample budget must be positive")
        rng = random.Random(seed)
        indices = [rng.randrange(total) for _ in range(budget)]
        span = budget
    else:
        span = total if limit is None else min(limit, total)
        indices = range(span)

    if jobs <= 1 or span <= chunk:
        _init_worker((task, _Shortcut(task), indices, None))
        hit, counts = _first_hit(map(_scan_range, _ranges(span, chunk)))
    else:
        import multiprocessing as mp

        ctx = mp.get_context("fork")
        stop = ctx.RawValue("b", 0)
        search = (task, _Shortcut(task), indices, stop)
        with ctx.Pool(jobs, initializer=_init_worker, initargs=(search,)) as pool:
            hit, counts = _first_hit(pool.imap(_scan_range, _ranges(span, chunk, stop)))
            # Let the ranges after the hit return at once and the workers
            # exit. Terminating busy workers can kill one while it holds the
            # result queue's lock, and Pool.terminate then hangs.
            stop.value = 1
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
