"""Left-right planarity test with optional combinatorial embedding.

Iterative implementation of the LR algorithm (Brandes' formulation). One
kernel, `_LRTest`, serves both entry points. The boolean `is_planar_edges`
runs its orientation (phase 1) and testing (phase 2) only, and is the hot
path of the realizability oracle; `planar_rotation` then also resolves the
edge sides into a rotation system (phase 3), which callers validate via the
Euler check in `graphs.faces`. Phases 1 and 2 run once per oracle vector,
so their DFS loops keep the per-edge steps inline and the state in locals,
each conflict pair is one flat list, and phase 1 starts no DFS at an
isolated vertex: the oracle's contracted diagrams keep the ids of their
leaf ends and of the rim nodes they merge, so on the Thm-2 instance about
54 of the 8-vertex rung's 88 nodes have no edge.
"""

from __future__ import annotations


def is_planar_edges(n: int, edges: list[tuple[int, int]]) -> bool:
    """Planarity of the simple graph on vertices 0..n-1."""
    m = len(edges)
    if n <= 3 or m <= 3:
        return True
    if m > 3 * n - 6:
        return False
    return _LRTest(n, edges).test()


def planar_rotation(n: int, edges: list[tuple[int, int]]) -> list[list[int]] | None:
    """Rotation system witnessing planarity, or None if non-planar.

    Isolated vertices get empty rotations. The handedness of the returned
    system is not specified; callers needing a particular outer face locate
    it by face content.
    """
    if n == 0:
        return []
    if not edges:
        return [[] for _ in range(n)]
    if n > 3 and len(edges) > 3 * n - 6:
        return None
    t = _LRTest(n, edges)
    if not t.test():
        return None
    return t.embed()


class _LRTest:
    """One LR test of a fixed edge list. `test` orients the graph by DFS
    (phase 1) and checks it with conflict pairs (phase 2); after a True
    result `embed` resolves the edge sides into a rotation system (phase 3)."""

    def __init__(self, n: int, edges: list[tuple[int, int]]) -> None:
        self.n = n
        self.edges = edges
        m = len(edges)
        adj: list[list[int]] = [[] for _ in range(n)]
        for eid, (u, v) in enumerate(edges):
            adj[u].append(eid)
            adj[v].append(eid)
        self.adj = adj
        # xor of the two ends: the far end of eid seen from x is ends[eid] ^ x
        self.ends = [u ^ v for u, v in edges]

        self.src = [-1] * m
        self.dst = [-1] * m
        self.lowpt = [0] * m
        self.lowpt2 = [0] * m
        self.nesting_depth = [0] * m
        self.height = [-1] * n
        self.parent_edge = [-1] * n
        self.roots: list[int] = []

        # phase 2 state
        self.ref: list[int | None] = [None] * m
        self.side = [1] * m
        self.lowpt_edge = [-1] * m
        self.stack_bottom: list[object | None] = [None] * m
        self.S: list[list[int | None]] = []

        self.out_edges: list[list[int]] = [[] for _ in range(n)]

    # ------------------------------------------------------------------
    # phase 1: DFS orientation
    # ------------------------------------------------------------------

    def _orient(self) -> None:
        adj, ends = self.adj, self.ends
        src, dst = self.src, self.dst
        lowpt, lowpt2, nd = self.lowpt, self.lowpt2, self.nesting_depth
        height, parent_edge = self.height, self.parent_edge
        for s in range(self.n):
            if height[s] != -1 or not adj[s]:  # visited, or isolated
                continue
            self.roots.append(s)
            height[s] = 0
            stack = [(s, iter(adj[s]))]
            while stack:
                v, it = stack[-1]
                hv = height[v]
                for eid in it:
                    if src[eid] != -1:
                        continue
                    w = ends[eid] ^ v
                    src[eid] = v
                    dst[eid] = w
                    hw = height[w]
                    if hw == -1:
                        parent_edge[w] = eid
                        lowpt[eid] = lowpt2[eid] = hv
                        height[w] = hv + 1
                        stack.append((w, iter(adj[w])))
                        break
                    # A back edge to an ancestor w, finished at once: its
                    # lowpoints are (hw, hv) and its nesting depth is 2*hw.
                    # v is not a root, and its parent edge pe has
                    # lowpt[pe] <= lowpt2[pe] <= hv - 1, so only hw can lower them.
                    lowpt[eid] = hw
                    lowpt2[eid] = hv
                    nd[eid] = 2 * hw
                    pe = parent_edge[v]
                    lp = lowpt[pe]
                    if hw < lp:
                        lowpt2[pe] = lp
                        lowpt[pe] = hw
                    elif lp < hw < lowpt2[pe]:
                        lowpt2[pe] = hw
                else:
                    # v is done: finish its parent edge e = (u, v) and merge
                    # its lowpoints into u's parent edge
                    stack.pop()
                    e = parent_edge[v]
                    if e == -1:
                        continue
                    u = src[e]
                    lo = lowpt[e]
                    lo2 = lowpt2[e]
                    nd[e] = 2 * lo + 1 if lo2 < height[u] else 2 * lo
                    pe = parent_edge[u]
                    if pe == -1:
                        continue
                    lp = lowpt[pe]
                    if lo < lp:
                        lowpt2[pe] = lp if lp < lo2 else lo2
                        lowpt[pe] = lo
                    elif lo > lp:
                        if lo < lowpt2[pe]:
                            lowpt2[pe] = lo
                    elif lo2 < lowpt2[pe]:
                        lowpt2[pe] = lo2

    # ------------------------------------------------------------------
    # phase 2: testing via conflict pairs
    # ------------------------------------------------------------------
    # A conflict pair is one list [Llow, Lhigh, Rlow, Rhigh] of edge ids or
    # None: its left interval, then its right one. An interval is
    # conflicting with b if its high edge's lowpoint is above b's.

    def _add_constraints(self, ei: int, e: int) -> bool:
        S = self.S
        lowpt = self.lowpt
        ref = self.ref
        P: list[int | None] = [None, None, None, None]
        bottom = self.stack_bottom[ei]
        while True:
            Q = S.pop()
            if Q[0] is not None or Q[1] is not None:
                Q[0], Q[1], Q[2], Q[3] = Q[2], Q[3], Q[0], Q[1]
            if Q[0] is not None or Q[1] is not None:
                return False
            if lowpt[Q[2]] > lowpt[e]:
                if P[3] is None:
                    P[3] = Q[3]
                else:
                    ref[P[2]] = Q[3]
                P[2] = Q[2]
            else:
                ref[Q[2]] = self.lowpt_edge[e]
            if (S[-1] if S else None) is bottom:
                break
        lb = lowpt[ei]
        while S:
            Q = S[-1]
            hl, hr = Q[1], Q[3]
            right = hr is not None and lowpt[hr] > lb
            if not right and (hl is None or lowpt[hl] <= lb):
                break
            S.pop()
            if right:
                Q[0], Q[1], Q[2], Q[3] = Q[2], Q[3], Q[0], Q[1]
                if Q[3] is not None and lowpt[Q[3]] > lb:
                    return False
            if P[2] is not None:
                ref[P[2]] = Q[3]
            if Q[2] is not None:
                P[2] = Q[2]
            if P[1] is None:
                P[1] = Q[1]
            else:
                ref[P[0]] = Q[1]
            P[0] = Q[0]
        if P[0] is not None or P[1] is not None or P[2] is not None or P[3] is not None:
            S.append(P)
        return True

    def _test_root(self, root: int) -> bool:
        out_edges = self.out_edges
        parent_edge = self.parent_edge
        src, dst = self.src, self.dst
        lowpt, height = self.lowpt, self.height
        lowpt_edge, stack_bottom, ref, side = self.lowpt_edge, self.stack_bottom, self.ref, self.side
        S = self.S
        stack = [(root, iter(out_edges[root]))]
        while stack:
            v, it = stack[-1]
            for ei in it:
                stack_bottom[ei] = S[-1] if S else None
                w = dst[ei]
                if parent_edge[w] == ei:
                    stack.append((w, iter(out_edges[w])))
                    break
                lowpt_edge[ei] = ei
                S.append([None, None, ei, ei])
                # integrate the back edge ei into v's parent edge
                if lowpt[ei] < height[v]:
                    if ei == out_edges[v][0]:
                        lowpt_edge[parent_edge[v]] = ei
                    elif not self._add_constraints(ei, parent_edge[v]):
                        return False
            else:
                stack.pop()
                e = parent_edge[v]
                if e == -1:
                    continue
                u = src[e]
                hu = height[u]
                # trim the back edges that end at u: drop the pairs whose
                # lowest lowpoint is u's height, then cut u's edges off the
                # top pair's intervals
                while S:
                    P = S[-1]
                    lo, ro = P[0], P[2]
                    if (lowpt[ro] if lo is None else lowpt[lo] if ro is None
                            else min(lowpt[lo], lowpt[ro])) != hu:
                        break
                    S.pop()
                    if lo is not None:
                        side[lo] = -1
                if S:
                    P = S[-1]
                    h = P[1]
                    while h is not None and dst[h] == u:
                        h = ref[h]
                    P[1] = h
                    if h is None and P[0] is not None:
                        ref[P[0]] = P[2]
                        side[P[0]] = -1
                        P[0] = None
                    h = P[3]
                    while h is not None and dst[h] == u:
                        h = ref[h]
                    P[3] = h
                    if h is None and P[2] is not None:
                        ref[P[2]] = P[0]
                        side[P[2]] = -1
                        P[2] = None
                if lowpt[e] < hu:
                    top = S[-1]
                    hl = top[1]
                    hr = top[3]
                    if hl is not None and (hr is None or lowpt[hl] > lowpt[hr]):
                        ref[e] = hl
                    else:
                        ref[e] = hr
                    # integrate the tree edge e into u's parent edge; u is
                    # not a root, as lowpt[e] < height[u]
                    if e == out_edges[u][0]:
                        lowpt_edge[parent_edge[u]] = lowpt_edge[e]
                    elif not self._add_constraints(e, parent_edge[u]):
                        return False
        return True

    def test(self) -> bool:
        self._orient()
        # out edges by nesting depth: one stable sort keeps each vertex's
        # ties in edge id order
        out_edges, src = self.out_edges, self.src
        for eid in sorted(range(len(self.edges)), key=self.nesting_depth.__getitem__):
            out_edges[src[eid]].append(eid)
        for root in self.roots:
            if not self._test_root(root):
                return False
        return True

    # ------------------------------------------------------------------
    # phase 3: embedding
    # ------------------------------------------------------------------

    def _resolved_side(self, e: int) -> int:
        chain = []
        ref = self.ref
        side = self.side
        while ref[e] is not None:
            chain.append(e)
            e = ref[e]
        s = side[e]
        for x in reversed(chain):
            side[x] = side[x] * s
            ref[x] = None
            s = side[x]
        return s

    def embed(self) -> list[list[int]]:
        """Rotation system; call only after test() returned True."""
        m = len(self.edges)
        signed_nd = list(self.nesting_depth)
        for eid in range(m):
            if self.src[eid] != -1:
                signed_nd[eid] = self.nesting_depth[eid] * self._resolved_side(eid)
        ordered: list[list[int]] = [[] for _ in range(self.n)]
        for v in range(self.n):
            ordered[v] = sorted(self.out_edges[v], key=signed_nd.__getitem__)

        rotation: list[list[int]] = [[] for _ in range(self.n)]
        for v in range(self.n):
            rotation[v] = [self.dst[eid] for eid in ordered[v]]

        left_ref = [-1] * self.n
        right_ref = [-1] * self.n
        dst = self.dst
        parent_edge = self.parent_edge
        side = self.side
        for root in self.roots:
            stack = [[root, 0]]
            while stack:
                fr = stack[-1]
                v, i = fr
                out = ordered[v]
                if i >= len(out):
                    stack.pop()
                    continue
                fr[1] = i + 1
                eid = out[i]
                w = dst[eid]
                if parent_edge[w] == eid:
                    rotation[w].insert(0, v)
                    left_ref[v] = w
                    right_ref[v] = w
                    stack.append([w, 0])
                else:
                    if side[eid] == 1:
                        pos = rotation[w].index(right_ref[w])
                        rotation[w].insert(pos + 1, v)
                    else:
                        pos = rotation[w].index(left_ref[w])
                        rotation[w].insert(pos, v)
                        left_ref[w] = v
        return rotation
