"""Touching-L contact representations of 2-trees, their extension to
order-preserving 1-string representations of series-parallel (partial
2-tree) graphs, and the planar embedding read off the contacts.

Every vertex is an unrotated L: a vertical arm descending to the corner,
then a horizontal arm rightward. Each edge (p,q) of the current 2-tree owns
a rectangular attachment slot whose top side lies on p's horizontal arm and
whose right side lies on q's vertical arm; a child placed in the slot
touches p with its top end and q with its right end, and the slot splits
into three nested slots for the edges (p,q), (p,child), (child,q).

The extension to 1-string moves each touching end along its own axis, top
and right alike: one rule finds the nearest arm beyond the end.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotTwoTree
from .geom import Curve, StringRep
from .graphs import (
    EliminationOrder,
    Graph,
    PlaneGraph,
    RotationScheme,
    completed_two_tree,
    two_tree_completion,
)

F = Fraction
Pt = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class TouchingL:
    vertex: int
    corner: Pt
    up_len: Fraction
    right_len: Fraction

    @property
    def top(self) -> Pt:
        return (self.corner[0], self.corner[1] + self.up_len)

    @property
    def right_end(self) -> Pt:
        return (self.corner[0] + self.right_len, self.corner[1])


@dataclass(frozen=True)
class Contact:
    """The `end` of curve `toucher` rests on the interior of curve `holder`."""

    toucher: int
    holder: int
    end: str  # "top" | "right"
    point: Pt


ContactMap = dict[tuple[int, int], Contact]


@dataclass
class _Slot:
    p: int  # horizontal arm along the top side
    q: int  # vertical arm along the right side
    x0: Fraction
    x1: Fraction
    y0: Fraction
    y1: Fraction


@dataclass(frozen=True)
class TouchingBuild:
    ls: dict[int, TouchingL]
    contacts: ContactMap
    completed: Graph
    elim: EliminationOrder


def build_touching_L(g: Graph) -> TouchingBuild:
    """Touching-L representation of the 2-tree completion of g."""
    elim = two_tree_completion(g)
    completed = completed_two_tree(g, elim)
    ls: dict[int, TouchingL] = {}
    contacts: ContactMap = {}
    slots: dict[tuple[int, int], _Slot] = {}

    if len(elim.base) == 1:
        ls[elim.base[0]] = TouchingL(elim.base[0], (F(0), F(0)), F(10), F(10))
        return TouchingBuild(ls, contacts, completed, elim)

    a, b = elim.base
    ls[a] = TouchingL(a, (F(0), F(10)), F(15), F(25))
    ls[b] = TouchingL(b, (F(20), F(-5)), F(15), F(10))
    contacts[_key(a, b)] = Contact(b, a, "top", (F(20), F(10)))
    slots[_key(a, b)] = _Slot(a, b, F(10), F(20), F(0), F(10))

    for v, att in zip(reversed(elim.order), reversed(elim.attach)):
        key = _key(*att)
        if key not in slots:
            raise NotTwoTree(f"no live slot for attachment edge {att}")
        s = slots.pop(key)
        cx = s.x0 + (s.x1 - s.x0) / 4
        cy = s.y0 + (s.y1 - s.y0) / 4
        ls[v] = TouchingL(v, (cx, cy), s.y1 - cy, s.x1 - cx)
        contacts[_key(v, s.p)] = Contact(v, s.p, "top", (cx, s.y1))
        contacts[_key(v, s.q)] = Contact(v, s.q, "right", (s.x1, cy))
        slots[key] = _Slot(s.p, s.q, cx, s.x1, cy, s.y1)
        slots[_key(s.p, v)] = _Slot(s.p, v, s.x0, cx, cy, s.y1)
        slots[_key(v, s.q)] = _Slot(v, s.q, cx, s.x1, s.y0, cy)
    return TouchingBuild(ls, contacts, completed, elim)


def _key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def audit_contacts(tb: TouchingBuild) -> None:
    """Exactly one contact per completed-2-tree edge; touching ends rest on
    arm interiors; L interiors pairwise disjoint."""
    assert set(tb.contacts) == set(tb.completed.edges)
    for key, c in tb.contacts.items():
        toucher = tb.ls[c.toucher]
        holder = tb.ls[c.holder]
        p = toucher.top if c.end == "top" else toucher.right_end
        assert p == c.point
        hx, hy = holder.corner
        if c.end == "top":
            assert p[1] == hy and hx < p[0] < hx + holder.right_len
        else:
            assert p[0] == hx and hy < p[1] < hy + holder.up_len
    vs = sorted(tb.ls)
    for i, u in enumerate(vs):
        for v in vs[i + 1 :]:
            _assert_disjoint_but_contacts(tb, u, v)


def _assert_disjoint_but_contacts(tb: TouchingBuild, u: int, v: int) -> None:
    from .geom import SegmentOverlap, segment_intersection

    lu, lv = tb.ls[u], tb.ls[v]
    allowed = set()
    c = tb.contacts.get(_key(u, v))
    if c is not None:
        allowed.add(c.point)
    su = [(lu.top, lu.corner), (lu.corner, lu.right_end)]
    sv = [(lv.top, lv.corner), (lv.corner, lv.right_end)]
    for s1 in su:
        for s2 in sv:
            r = segment_intersection(s1, s2)
            if r is None:
                continue
            assert not isinstance(r, SegmentOverlap), f"L overlap {u},{v}"
            assert r in allowed, f"stray intersection of Ls {u},{v} at {r}"


def extend_to_1string(
    tb: TouchingBuild, g: Graph
) -> StringRep:
    """Turn each contact of a g-edge into one proper crossing by extending
    the touching end slightly; contacts of fill edges, the contact keys
    that are no edge of g, are first neutralized by retracting the touching
    end.

    ends[v] = [right_x, top_y]: the end along axis k moves on the line
    x = corner_v[0] (top) or y = corner_v[1] (right). The first L it would
    meet is the w with the least corner_w[k] beyond the end whose arm
    across the axis spans the line; an arm of w along the line starts at
    that same corner, so one test covers both arms of w. The corners are
    sorted on each axis once: a bisection finds the first corner beyond the
    end, and the walk from there stops at the first L whose arm spans the
    line, which is that least corner."""
    corner = {v: l.corner for v, l in tb.ls.items()}
    ends = {v: [l.right_end[0], l.top[1]] for v, l in tb.ls.items()}
    on_arm = _arm_contacts(tb)
    contacts = sorted(tb.contacts.items())
    for key, c in contacts:
        if not g.has_edge(*key):
            # retract the touching end half way back to the previous feature
            # on its own arm, so the fill contact disappears
            v, k = c.toucher, _axis(c)
            below = max([corner[v][k]] + [x for x, _w in on_arm[v][k]])
            ends[v][k] = (ends[v][k] + below) / 2

    # extensions are sequential: each obstacle scan sees the arms already
    # extended, so two extensions can never collide in fresh territory
    by_axis = [sorted(corner, key=lambda w: corner[w][k]) for k in (0, 1)]
    coords = [[corner[w][k] for w in by_axis[k]] for k in (0, 1)]
    for key, c in contacts:
        if not g.has_edge(*key):
            continue
        v, k = c.toucher, _axis(c)
        line, end = corner[v][1 - k], ends[v][k]
        step = F(1)
        for w in by_axis[k][bisect_right(coords[k], end):]:
            if w != v and corner[w][1 - k] <= line <= ends[w][1 - k]:
                step = (corner[w][k] - end) / 2
                break
        ends[v][k] = end + step

    curves = {}
    for v in range(g.n):
        (x, y), (right_x, top_y) = corner[v], ends[v]
        curves[v] = Curve(v, ((x, top_y), (x, y), (right_x, y)))
    return StringRep(curves, None)


def _axis(c: Contact) -> int:
    """Axis along which the touching end points: 0 right, 1 top."""
    return 1 if c.end == "top" else 0


def _arm_contacts(tb: TouchingBuild) -> dict[int, tuple[list, list]]:
    """For each L, the contacts resting on its horizontal (0) and vertical
    (1) arm, as sorted (coordinate along the arm, toucher) pairs."""
    on_arm: dict[int, tuple[list, list]] = {v: ([], []) for v in tb.ls}
    for c in tb.contacts.values():
        j = 1 - _axis(c)
        on_arm[c.holder][j].append((c.point[j], c.toucher))
    for arms in on_arm.values():
        for arm in arms:
            arm.sort()
    return on_arm


def derive_embedding(tb: TouchingBuild) -> PlaneGraph:
    """Clockwise rotation of the completed 2-tree read off the contacts:
    place the vertex point just above-right of the corner and connect it to
    the contact points along the L and to the two arm ends."""
    touched: dict[int, list] = {v: [None, None] for v in tb.ls}
    for c in tb.contacts.values():
        touched[c.toucher][_axis(c)] = c.holder
    on_arm = _arm_contacts(tb)
    order: list[list[int]] = []
    for v in range(tb.completed.n):
        right_partner, top_partner = touched[v]
        on_h, on_v = on_arm[v]
        cyc = [] if right_partner is None else [right_partner]
        cyc.extend(w for _x, w in reversed(on_h))
        cyc.extend(w for _y, w in on_v)
        if top_partner is not None:
            cyc.append(top_partner)
        order.append(cyc)
    return PlaneGraph(tb.completed, RotationScheme(order))


@dataclass(frozen=True)
class SpBuild:
    rep: StringRep
    plane: PlaneGraph          # embedding of g induced from the contact drawing
    completed_plane: PlaneGraph
    touching: TouchingBuild


def build_sp(g: Graph) -> SpBuild:
    """Order-preserving 1-string representation of a connected partial
    2-tree, plus the planar embedding it preserves."""
    tb = build_touching_L(g)
    rep = extend_to_1string(tb, g)
    completed_plane = derive_embedding(tb)
    order = [[w for w in completed_plane.rot.order[v] if g.has_edge(v, w)] for v in range(g.n)]
    plane = PlaneGraph(g, RotationScheme(order))
    return SpBuild(rep, plane, completed_plane, tb)
