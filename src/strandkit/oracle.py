"""Combinatorial realizability oracle: fix a break per vertex, linearize
every clockwise rotation at its break, and build the abstract diagram H
(one node per crossing, two end nodes per curve, path edges along curves).
An order-preserving 1-string representation with those breaks exists exactly
when H is planar with every crossing node expanded into a 4-wheel gadget;
the plain H over-accepts, as a planar embedding of it can fake a crossing
with a touching (u,u,v,v) rotation. Outer-string variants add an apex
adjacent to the required end nodes.

`decide_fixed` decides one vector by that definition, a single planarity
test of the gadget diagram, and is the reference that searches are checked
against. `decide_fixed` and `enumerate_breaks` each build one `_Task`, a
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
`_realizable`, the searches' per-vector step, tests the rungs of a prefix
ladder, then the plain diagram, then the gadget diagram, which alone accepts
a vector. The rungs are the induced diagrams of the first 8, 16, 32, ...
vertices (fewer than n, and in one-end mode all n, laid out without the
apex) in canonical order, the highest degree first. A rung reads only its
prefix's digits, the most significant of an index, so a refuting rung rules
out its whole block of `span` indices, and an exhaustive or `limit` scan
resumes after it; a memo of its verdicts by its prefix's rows (up to
MEMO_CAP) tests a block once.
`Verdict.counters` holds the planarity calls, the plain diagram's attempts
and hits, and the rungs' planarity tests and hits, summed over the workers.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

from .errors import BudgetZero, InvalidBreak, StrandkitError
from .geom import BOTH_ENDS, ONE_END
from .graphs import PlaneGraph
from .planarity import is_planar_edges


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


COUNTERS = ("planarity_calls", "shortcut_attempts", "shortcut_hits", "prefix_attempts",
            "prefix_hits")

FIRST_RUNG = 8  # the ladder's prefixes have 8, 16, 32, ... vertices below n
MEMO_CAP = 4096  # verdicts a rung keeps; a full memo starts over


class _Task:
    """A plane graph's diagrams in one outer mode, each a triple (node count,
    static edges, rows) with H(breaks, ends) = static edges +
    rows[v][breaks[v]][ends[v]] over the vertices v. `layout` is the one
    builder: it lays out the plain or the gadget diagram of the plane graph
    induced on any vertex set, in rows indexed by this task's breaks. It
    caches `plain`, `gadget` and `rungs`; `counts` follows COUNTERS.

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
        self.counts = [0] * len(COUNTERS)

    @cached_property
    def plain(self):
        return self.layout(range(self.n), False)

    @cached_property
    def gadget(self):
        return self.layout(range(self.n))

    @cached_property
    def rungs(self) -> list[_Rung]:
        """A rung per prefix that spans an edge (else every diagram is planar).
        One-end end bits follow the vertices, so all n vertices are a prefix
        too, and the rungs are laid out in base mode: without the apex, a
        rung is a minor for every end bit of its block."""
        order = self.digits[::-1]
        rank = {v: i for i, v in enumerate(order)}
        base = _Task(self.pg, None) if self.one_end else self
        sizes = [FIRST_RUNG << i for i in range(self.n.bit_length()) if FIRST_RUNG << i < self.n]
        return [_Rung(base, sorted(order[:k]),
                      self.total // math.prod(self.degrees[v] for v in order[:k]))
                for k in sizes + [self.n] * self.one_end
                if any(max(rank[u], rank[v]) < k for u, v in self.pg.graph.edges)]

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


class _Rung:
    """The vertex set `keep` of a rung, its block size `span`, its verdicts
    by the kept rows in `memo`, and its gadget diagram, laid out by `task`
    on first test."""

    def __init__(self, task: _Task, keep: list[int], span: int):
        self.task, self.keep, self.span, self.memo = task, keep, span, {}

    @cached_property
    def diagram(self):
        return self.task.layout(self.keep)


def _norm_mode(outer_mode) -> str | None:
    if outer_mode in (None, "base"):
        return None
    if outer_mode in (BOTH_ENDS, ONE_END):
        return outer_mode
    raise ValueError(f"unknown outer mode {outer_mode!r}")


def decide_fixed(pg: PlaneGraph, breaks, outer_mode=None, end_choice=None) -> bool:
    """Planarity of the gadget diagram of one vector, with the apex in outer
    modes: the definition, with no rung or plain test before it."""
    t = _Task(pg, outer_mode)
    if t.one_end and end_choice is None:
        raise ValueError("one-end mode needs an end choice per vertex")
    ends = [0] * t.n if end_choice is None else list(end_choice)
    t.check(breaks, ends)
    return is_planar_edges(*t.edges(t.gadget, breaks, ends))


def _realizable(task: _Task, breaks, ends) -> int:
    """0 when the gadget diagram of one vector is planar, else the span of
    the first rung that refutes it, or 1 when the plain or gadget diagram
    does. Planarity tests, not memo hits, are counted in `task.counts`."""
    counts = task.counts
    for rung in task.rungs:
        nodes, static, rows = rung.diagram
        key = tuple(rows[v][breaks[v]][0] for v in rung.keep)  # no end-bit apex edges
        planar = rung.memo.get(key)
        if planar is None:
            if len(rung.memo) == MEMO_CAP:
                rung.memo.clear()
            planar = rung.memo[key] = is_planar_edges(nodes, list(chain(static, *key)))
            counts[0] += 1
            counts[3] += 1
            counts[4] += not planar
        if not planar:
            return rung.span
    counts[0] += 1
    counts[1] += 1
    if not is_planar_edges(*task.edges(task.plain, breaks, ends)):
        counts[2] += 1
        return 1
    counts[0] += 1
    return 0 if is_planar_edges(*task.edges(task.gadget, breaks, ends)) else 1


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

_SEARCH: tuple = ()  # (task, indices, stop flag) of the search; forked workers inherit it


def _scan_range(bounds):
    """The first realizable position in [lo, hi) of the search's indices, or
    None, and the counts of this range. Where the indices are range(span),
    a refuting rung moves the scan to its next block, clamped to hi; sampled
    indices step by one. The rungs' memos carry over between ranges. A set
    stop flag ends the scan: the search already has its result."""
    lo, hi = bounds
    task, indices, stop = _SEARCH
    task.counts = [0] * len(COUNTERS)
    blocks = isinstance(indices, range)
    i = lo
    while i < hi:
        if stop is not None and stop.value:
            break
        breaks, ends = task.decode(indices[i])
        span = _realizable(task, breaks, ends)
        if not span:
            return (i, tuple(breaks), tuple(ends) if task.one_end else None), task.counts
        i = min(hi, i - i % span + span) if blocks else i + 1
    return None, task.counts


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

    global _SEARCH
    if jobs <= 1 or span <= chunk:
        _SEARCH = (task, indices, None)
        hit, counts = _first_hit(map(_scan_range, _ranges(span, chunk)))
    else:
        import multiprocessing as mp

        ctx = mp.get_context("fork")
        stop = ctx.RawValue("b", 0)
        _SEARCH = (task, indices, stop)
        with ctx.Pool(jobs) as pool:
            hit, counts = _first_hit(pool.imap(_scan_range, _ranges(span, chunk, stop)))
            # Let the ranges after the hit return at once and the workers
            # exit. Terminating busy workers can kill one while it holds the
            # result queue's lock, and Pool.terminate then hangs.
            stop.value = 1
            pool.close()
            pool.join()
    _SEARCH = ()  # drop the task, its memos and the indices
    elapsed = int((time.perf_counter() - t0) * 1000)
    counters = dict(zip(COUNTERS, counts))
    if hit is not None:
        i, breaks, ends = hit
        return Verdict("yes", breaks, ends, i + 1, total, elapsed, counters)
    if budget is None and limit is None:
        return Verdict("no", None, None, total, total, elapsed, counters)
    return Verdict("unknown", None, None, span, total, elapsed, counters)
