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
against. It and `enumerate_breaks` each lay out the diagrams of a plane
graph in one outer mode in one `_Task`, whose rows are indexed by the full
break of each vertex, so a search over any vertex set maps no breaks.

Enumeration walks the mixed-radix space of all break vectors (times the
end choices in one-end mode) in chunks. Worker w of `jobs` scans chunks w,
w + jobs, ...; the caller is worker 0 and forks the others, which send
their first hit and counts back over a pipe. A worker records the chunk of
its hit in a shared array, and no worker starts a chunk after a recorded
one, so each chunk before the first hit is scanned and the verdict does
not depend on `jobs`. Each worker keeps its own rung memos.

Deleting the hubs, which only accepting needs, leaves the hubless diagram,
each crossing the 4-cycle rim of its wheel; the gadget diagram is the
hubless diagram of all vertices with every apex edge plus a hub per rim,
numbered last. Its induced diagrams, with apex edges for any vertex set,
are minors of the gadget diagram, so a non-planar one rules a vector out at
a fraction of the cost. Every diagram is tested contracted: a curve end
that the mode joins to no apex is a leaf, its edge is left out, and a rim
(or wheel) whose arm toward such a leaf is dead has at most 3 live arms and
is one node; this changes no diagram's planarity (see `_Task.layout`).

An index's digits, the most significant first, are each vertex's break,
then in one-end mode the end bits (`_Task.digits`). A rung is the hubless
diagram that the first d of them fix: the vertices among them, with apex
edges for those whose end bits are among them. `_realizable`, the
searches' per-vector step, tests the rungs of one ladder of digit counts
(`_Task.rungs`), then the gadget diagram, which alone accepts a vector. A
rung reads only its digits, the quotient of an index by the rung's `span`,
so a refuting rung rules out its whole block of `span` indices, and an
exhaustive or `limit` scan resumes after it; a memo (up to MEMO_CAP) tests
a block once. Only the gadget test and a hit decode a whole vector.
"""

from __future__ import annotations

import marshal
import math
import os
import random
import sys
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
    # the search's counts by COUNTERS name; they depend on the chunking, the
    # worker count and, with two or more workers and a hit, on when the
    # workers stop, so they are neither compared nor part of to_json()
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


# `Verdict.counters`, summed over the workers: all planarity tests, the tests
# and hits of the rungs that keep every vertex, and those of the other rungs
COUNTERS = ("planarity_calls", "shortcut_attempts", "shortcut_hits", "prefix_attempts",
            "prefix_hits")

FIRST_RUNG = 8  # the ladder reads 8, 16, 32, ... break digits below n, then n
FIRST_END_RUNG = 4  # then in one-end mode 4, 8, 16, ... end bits below n, then n
MEMO_CAP = 4096  # verdicts a rung keeps; a full memo starts over


class _Task:
    """A plane graph's diagrams in one outer mode, each a tuple (node count,
    static edges, rims, rows): rows[v][breaks[v]][ends[v]] is a row entry
    (path, broken) per vertex v, and `edges` builds one vector's diagram
    from the entries. `layout` lays out the hubless diagram of the plane
    graph induced on any vertex set, in rows indexed by this task's breaks;
    `gadget` is that of all vertices with every apex edge, plus its hubs.
    It caches `gadget` and `rungs`; `counts` follows COUNTERS.

    `digits` holds (slot, radix) per digit of an index, the most
    significant first: slot v < n is the break of vertex v, the vertices
    taken the highest degree first and the least id on ties, and in one-end
    mode slot n + v is the end bit of v, for v = n-1, n-2, ..., 0.

    Nodes are numbered curve ends, then rims, then the apex, then the hubs.
    The i-th kept vertex's curve runs from node 2i to node 2i+1, and kept edge
    j is a crossing whose rim is the 4-cycle from node 2k+4j (k kept
    vertices). The curve of v enters the rim at its first node (v < w) or its
    second (v > w) and leaves it two nodes on. An outer mode puts an apex after
    the rims, joined to both ends of every tipped curve by static edges, or in
    one-end mode to the end that each tipped vertex's end bit picks (none if no
    curve is tipped). An untipped vertex has one entry for both end bits."""

    def __init__(self, pg: PlaneGraph, mode):
        mode = None if mode == "base" else mode
        if mode not in (None, BOTH_ENDS, ONE_END):
            raise ValueError(f"unknown outer mode {mode!r}")
        g = pg.graph
        pg.rot.validate(g)
        n = g.n
        self.pg, self.mode, self.n = pg, mode, n
        self.degrees = [max(1, g.degree(v)) for v in range(n)]
        self.one_end = mode == ONE_END
        order = sorted(range(n), key=lambda v: (-self.degrees[v], v))
        self.digits = ([(v, self.degrees[v]) for v in order]
                       + [(n + v, 2) for v in reversed(range(n))] * self.one_end)
        self.total = math.prod(radix for _, radix in self.digits)
        self.counts = [0] * len(COUNTERS)

    @cached_property
    def gadget(self):
        """The hubless diagram of all vertices with every apex edge, plus hub
        j after every other node, joined to rim j."""
        nodes, static, rims, rows = self.layout(range(self.n), range(self.n))
        wheels = tuple((x, cycle + ((hub, x), (hub, x + 1), (hub, x + 2), (hub, x + 3)))
                       for hub, (x, cycle) in enumerate(rims, nodes))
        return nodes + len(rims), static, wheels, rows

    @cached_property
    def rungs(self) -> list[_Rung]:
        """The rungs of the first d digits, for d = 8, 16, 32, ... (fewer
        than n), then n, where their vertices span an edge (else every
        diagram is planar). In one-end mode these have no apex edges, and
        the rungs of n + j digits follow, j = 4, 8, 16, ... (fewer than n),
        then n, with apex edges for the vertices n-j..n-1, whose end bits
        are the top j; doubling j keeps a sampled vector, whose end-bit
        memos rarely hit, to a few tests."""
        n, edges = self.n, self.pg.graph.edges
        rank = {v: p for p, (v, _) in enumerate(self.digits[:n])}
        sizes = lambda first: [first << i for i in range(n.bit_length()) if first << i < n] + [n]
        ladder = sizes(FIRST_RUNG) + [n + j for j in sizes(FIRST_END_RUNG)] * self.one_end
        return [_Rung(self, d) for d in ladder if any(max(rank[u], rank[v]) < d for u, v in edges)]

    def layout(self, keep, tips):
        """The hubless diagram of the plane graph induced on the vertex set
        `keep`, with apex edges for the kept vertices in `tips` only,
        contracted. Kept vertex v's path for break b runs along the full
        clockwise order of v from b, through its crossings with kept
        neighbours only; with none it is one edge between the curve's end
        nodes. Other vertices add no edges. A curve end that the mode joins
        to no apex is a leaf: every end in base mode, both ends of an
        untipped vertex, and in one-end mode the end that the end bit does
        not pick. The entry (path, broken) leaves out the path edge to a
        leaf end and names in `broken` the first node of the rim whose arm
        toward it is dead; `edges` then maps the rims that any entry names
        onto their first node and adds the 4-cycle of every other rim. The
        path is flat: node pairs one after another. `static` holds the
        apex edges of both-ends mode.

        For every vector, the diagram of any set S = `keep` is a minor of the
        gadget diagram, so a non-planar one rules the vector out. Deleting the
        hubs, its last nodes, leaves the diagram of all vertices. Delete the
        curves of the vertices outside S, their end nodes, and the rims of
        their crossings with each other. A rim crossed by one kept curve only
        contracts to a point on that curve's path, which one more contraction
        removes. What remains of a kept curve is its path above. The apex
        edges restrict the same way: what is left joins the apex to the kept
        end nodes that the outer mode names. Deleting apex edges leaves a
        subgraph. So each rung is a minor of the gadget diagram for every
        vector in its block, whatever the end bits that it does not read.
        Contracting the rims leaves the plain diagram, so the plain one
        refutes no more.

        The contraction keeps each diagram's planarity either way. Deleting
        the edge to a leaf deletes a degree-1 node's edge, which changes no
        graph's planarity. A rim, or a wheel with its hub, with a dead arm
        has at most 3 live arms, and contracting it, a connected subgraph, to
        one node keeps a planar diagram planar. Conversely, in an embedding
        of the contracted diagram the at most 3 arms of that node leave it in
        some cyclic order, and any cyclic order of at most 3 arms is that of
        the rim or wheel or of its mirror, which fits in a small disk around
        the node. Parallel edges cannot arise: two curves cross once, so no
        two paths join the same two rims."""
        g, rot = self.pg.graph, self.pg.rot
        loc = {v: i for i, v in enumerate(sorted(keep))}
        kept = [(u, v) for u, v in g.edges if u in loc and v in loc]
        eid = {e: j for j, (u, v) in enumerate(kept) for e in ((u, v), (v, u))}
        base = 2 * len(loc)
        apex = base + 4 * len(kept)
        tipped = [i for v, i in loc.items() if v in tips] if self.mode else []
        rims = tuple((x, ((x, x + 1), (x + 1, x + 2), (x + 2, x + 3), (x + 3, x)))
                     for x in range(base, apex, 4))
        static = (tuple((apex, 2 * i + e) for i in tipped for e in (0, 1))
                  if self.mode == BOTH_ENDS else ())
        none = ((), ())
        rows = [[(none, none)] * d for d in self.degrees]
        for v, i in loc.items():
            tip = bool(self.mode) and v in tips
            # (first end a leaf, last end a leaf, apex edge) per end bit, or
            # one for both: one-end mode joins the picked end to the apex,
            # both-ends mode both ends, by static edges
            cuts = ([(False, True, (apex, 2 * i)), (True, False, (apex, 2 * i + 1))]
                    if tip and self.one_end else [(not tip, not tip, ())])
            # the node where v's curve enters each crossing in clockwise
            # order, None at an unkept neighbour; it leaves two nodes later
            ports = [base + 4 * eid[(v, w)] + (v > w) if w in loc else None
                     for w in rot.order[v]]
            rows[v] = row = []
            for b in range(self.degrees[v]):
                # the entry of b - 1 holds unless b moves a kept neighbour
                if b == 0 or ports[b - 1] is not None:
                    xs = [x for x in ports[b:] + ports[:b] if x is not None]
                    # the path's node pairs, flat: end, entry, exit, ..., end
                    path = [2 * i]
                    for x in xs:
                        path += x, x + 2
                    path.append(2 * i + 1)
                    entry = []
                    for first, last, to_apex in cuts:
                        dead = xs[:first] + xs[len(xs) - last:]
                        entry.append((tuple(path[2 * first:len(path) - 2 * last]) + to_apex,
                                      tuple({x - (x - base) % 4 for x in dead})))
                    entry = tuple(entry * (2 // len(cuts)))
                row.append(entry)
        return apex + bool(tipped), static, rims, rows

    @staticmethod
    def edges(diagram, entries) -> tuple[int, list[tuple[int, int]]]:
        """(node count, edge list) of one diagram for one vector's row
        entries: the static edges, the edges of every rim that no entry names
        broken, and the paths, each broken rim mapped onto its first node."""
        nodes, static, rims, _ = diagram
        broken = {x for _, xs in entries for x in xs}
        at = list(range(nodes))
        for x in broken:
            at[x + 1] = at[x + 2] = at[x + 3] = x
        ends = map(at.__getitem__, chain.from_iterable(path for path, _ in entries))
        return nodes, [*static, *chain.from_iterable(c for x, c in rims if x not in broken),
                       *zip(ends, ends)]

    def gadget_edges(self, breaks, ends) -> tuple[int, list[tuple[int, int]]]:
        """(node count, edge list) of the gadget diagram of one vector."""
        rows = self.gadget[3]
        return self.edges(self.gadget, [row[b][e] for row, b, e in zip(rows, breaks, ends)])

    def check(self, breaks, ends) -> None:
        if len(breaks) != self.n or len(ends) != self.n:
            raise InvalidBreak("break or end vector has wrong length")
        for v in range(self.n):
            if not (0 <= breaks[v] < self.degrees[v]):
                raise InvalidBreak(f"break {breaks[v]} out of range at vertex {v}")
            if ends[v] not in (0, 1):
                raise InvalidBreak(f"end {ends[v]} is not 0 or 1 at vertex {v}")

    def decode(self, idx: int) -> tuple[list[int], list[int]]:
        """The break vector and the end bits of index idx: each digit, the
        least significant first, fills its slot of breaks + ends."""
        vector = [0] * (2 * self.n)
        for slot, radix in reversed(self.digits):
            idx, vector[slot] = divmod(idx, radix)
        return vector[:self.n], vector[self.n:]


class _Rung:
    """The rung of the first d digits of an index: the hubless diagram of
    the vertices among them, `keep`, with apex edges for those whose end
    bits are among them (the top `end_bits`), or in both-ends mode for
    every kept vertex, laid out by `task` on first test. Its block size
    `span` is the product of the radices after digit d; it keeps its
    verdicts by the row entries it reads in `memo`, and its counters' index
    in COUNTERS in `slot` (the shortcut ones if it keeps every vertex)."""

    def __init__(self, task: _Task, d: int):
        n, prefix = task.n, task.digits[:d]
        self.task, self.d, self.span = task, d, math.prod(r for _, r in task.digits[d:])
        self.keep = sorted(v for v, _ in prefix if v < n)
        self.end_bits = d - len(self.keep)
        self.tips = [s - n for s, _ in prefix[n:]] if task.one_end else self.keep
        self.memo, self.slot = {}, 1 if len(self.keep) == n else 3

    @cached_property
    def diagram(self):
        return self.task.layout(self.keep, self.tips)

    @cached_property
    def reads(self):
        """(row, radix, shift of its end bit in idx // span) per kept
        vertex, the least significant digit first; the end bit of the
        tipped vertex at digit p is bit d-1-p, and an untipped vertex reads
        bit 0, as both of its end bits have one entry."""
        n, d, rows = self.task.n, self.d, self.diagram[3]
        shift = {s - n: d - 1 - p for p, (s, _) in enumerate(self.task.digits[n:d], n)}
        return [(rows[v], radix, shift.get(v, self.end_bits))
                for v, radix in reversed(self.task.digits[:len(self.keep)])]

    def read(self, idx: int) -> tuple:
        """The row entries of the vector of index idx that the rung reads."""
        q = idx // self.span
        bits, q = q & ((1 << self.end_bits) - 1), q >> self.end_bits
        key = []
        for row, radix, shift in self.reads:
            q, b = divmod(q, radix)
            key.append(row[b][bits >> shift & 1])
        return tuple(key)


def decide_fixed(pg: PlaneGraph, breaks, outer_mode=None, end_choice=None) -> bool:
    """Planarity of the gadget diagram of one vector, with the apex in outer
    modes: the definition, with no rung and no hubless test before it."""
    t = _Task(pg, outer_mode)
    if t.one_end and end_choice is None:
        raise ValueError("one-end mode needs an end choice per vertex")
    ends = [0] * t.n if end_choice is None else list(end_choice)
    t.check(breaks, ends)
    return is_planar_edges(*t.gadget_edges(breaks, ends))


def _realizable(task: _Task, idx: int) -> int:
    """0 when the gadget diagram of the vector of index idx is planar, else
    the span of the first rung that refutes it, or 1 when the gadget diagram
    does. Planarity tests, not memo hits, are counted in `task.counts`."""
    counts = task.counts
    for rung in task.rungs:
        key = rung.read(idx)
        planar = rung.memo.get(key)
        if planar is None:
            if len(rung.memo) == MEMO_CAP:
                rung.memo.clear()
            planar = rung.memo[key] = is_planar_edges(*task.edges(rung.diagram, key))
            counts[0] += 1
            counts[rung.slot] += 1
            counts[rung.slot + 1] += not planar
        if not planar:
            return rung.span
    counts[0] += 1
    return 0 if is_planar_edges(*task.gadget_edges(*task.decode(idx))) else 1


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def _scan(task: _Task, indices, span: int, chunk: int, stride: int, w: int, first):
    """Worker w's first realizable (position, breaks, ends), or None. Where
    the indices are range(span), a refuting rung moves the scan to its next
    block, clamped to the chunk's end; sampled indices step by one."""
    blocks = isinstance(indices, range)
    for c in range(w, -(-span // chunk), stride):
        i, hi = c * chunk, min(span, c * chunk + chunk)
        while i < hi:
            if min(first) < c:  # a worker hit an earlier chunk, or failed (-1)
                return None
            step = _realizable(task, indices[i])
            if not step:
                first[w] = c
                breaks, ends = task.decode(indices[i])
                return i, tuple(breaks), tuple(ends) if task.one_end else None
            i = min(hi, i - i % step + step) if blocks else i + 1
    return None


def _child(scan, w: int, first, fd: int):
    """Worker w in a forked child: send (True, scan(w)), or (False, its error) after
    stopping every worker, to fd; os._exit flushes no caller's buffer and runs no atexit."""
    try:
        try:
            out = True, scan(w)
        except BaseException as exc:
            first[w] = -1
            out = False, f"{type(exc).__name__}: {exc}"
        os.write(fd, marshal.dumps(out))
    finally:
        os._exit(0)


def _receive(w: int, fd: int):
    """Worker w's (hit, counts) from its pipe; a StrandkitError names its error."""
    data = open(fd, "rb", closefd=False).read()
    ok, out = marshal.loads(data) if data else (False, "it ended without a result")
    if not ok:
        raise StrandkitError(f"search worker {w} failed: {out}")
    return out


def enumerate_breaks(pg: PlaneGraph, outer_mode=None, budget: int | None = None, jobs: int = 1,
                     seed: int = 0, chunk: int = 2048, limit: int | None = None) -> Verdict:
    """Search the break-vector space with `jobs` workers. budget=None scans
    indices in canonical mixed-radix order (exhaustive, or the first `limit`
    of them); budget=N draws N seeded uniform samples, and excludes `limit`.
    The verdict (including the witness) does not depend on `jobs`."""
    for name, value in (("jobs", jobs), ("chunk", chunk), ("limit", limit)):
        if value is not None and value < 1:
            raise StrandkitError(f"{name} must be at least 1, got {value}")
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

    import mmap  # here, so that importing the library does not pay for it
    workers = min(jobs, -(-span // chunk))
    first = memoryview(mmap.mmap(-1, 8 * workers)).cast("q")  # shared by the forks
    for w in range(workers):
        first[w] = sys.maxsize  # no hit yet

    def scan(w):
        return _scan(task, indices, span, chunk, workers, w, first), task.counts

    kids = []  # (pid, read end of its pipe) per child
    try:
        for w in range(1, workers):
            r, wr = os.pipe()
            try:
                pid = os.fork()
                if not pid:
                    _child(scan, w, first, wr)
                kids.append((pid, r))
            except BaseException:
                os.close(r)
                raise
            finally:
                os.close(wr)
        results = [scan(0)] + [_receive(w, r) for w, (_, r) in enumerate(kids, 1)]
    except BaseException:
        from signal import SIGKILL
        for pid, _ in kids:
            os.kill(pid, SIGKILL)
        raise
    finally:
        for pid, r in kids:
            os.close(r)
            os.waitpid(pid, 0)
    hit = min((h for h, _ in results if h is not None), default=None)
    counters = dict(zip(COUNTERS, map(sum, zip(*(c for _, c in results)))))
    elapsed = int((time.perf_counter() - t0) * 1000)
    if hit is not None:
        i, breaks, ends = hit
        return Verdict("yes", breaks, ends, i + 1, total, elapsed, counters)
    if budget is None and span == total:  # every vector tried
        return Verdict("no", None, None, total, total, elapsed, counters)
    return Verdict("unknown", None, None, span, total, elapsed, counters)
