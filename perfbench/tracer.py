"""Outside-in tracer: wraps layer functions at the module attribute their
caller looks them up under, records one span per call, and restores the
originals afterwards. Nothing in the library is edited.

A span is (name, job, parent, start, end, note). Spans stay in memory until
the run ends. A span's self time is its duration minus the time its child
spans cover; a layer's self time is the sum over the layer's spans.
"""

from __future__ import annotations

import json
import time

_clock = time.perf_counter


def _note_verdict(args, res):
    g = args[0].graph
    return (g.n, g.edge_count, res.tried)


def _note_planar(args, res):
    return (args[0], bool(res))


def _note_build(args, res):
    return args[0].n


def _note_vpg(args, res):
    return (args[0].n, len(res.rep.witness.points), max(res.grid))


def _note_profile(args, res):
    segs = sum(len(c.points) - 1 for c in args[0].curves.values())
    return (segs, sum(res.pair_counts.values()))


def _note_outer(args, res):
    return len(getattr(args[0].witness, "points", ()))


# (module, attribute, layer, note). The module is the one whose namespace the
# caller resolves the name in: the benchmark calls the public entry points
# through their own modules, and the constructors resolve graphs and
# planarity helpers through theirs.
WRAPS = (
    ("strandkit.oracle", "enumerate_breaks", "oracle", _note_verdict),
    ("strandkit.oracle", "is_planar_edges", "planarity", _note_planar),
    ("strandkit.planarity", "planar_rotation", "planarity", None),
    ("strandkit.circle", "biconnect_outerplanar", "graphs", None),
    ("strandkit.circle", "is_outerplanar", "graphs", None),
    ("strandkit.circle", "ear_decomposition", "graphs", None),
    ("strandkit.vpg", "biconnect_outerplanar", "graphs", None),
    ("strandkit.vpg", "is_outerplanar", "graphs", None),
    ("strandkit.vpg", "ear_decomposition", "graphs", None),
    ("strandkit.sp", "two_tree_completion", "graphs", None),
    ("strandkit.circle", "build_circle", "circle", _note_build),
    ("strandkit.circle", "chord_to_geometry", "circle", None),
    ("strandkit.vpg", "build_vpg", "vpg", _note_vpg),
    ("strandkit.vpg", "compact_grid", "vpg", None),
    ("strandkit.vpg", "rotate45", "vpg", None),
    ("strandkit.sp", "build_sp", "sp", _note_build),
    ("strandkit.sp", "build_touching_L", "sp", None),
    ("strandkit.geom", "crossing_profile", "geom", _note_profile),
    ("strandkit.geom", "verify_1string", "geom", None),
    ("strandkit.geom", "verify_order_preserving", "geom", None),
    ("strandkit.geom", "verify_outer_string", "geom", _note_outer),
    ("strandkit.jsonio", "rep_to_json", "jsonio", None),
    ("strandkit.jsonio", "dumps", "jsonio", None),
    ("strandkit.jsonio", "rep_from_json", "jsonio", None),
    ("strandkit.jsonio", "graph_from_json", "jsonio", None),
)
LAYER = {f"{mod}.{attr}": layer for mod, attr, layer, _note in WRAPS}

NAME, JOB, PARENT, START, END, NOTE = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, module, attr, note):
        fn = getattr(module, attr)
        name = f"{module.__name__}.{attr}"
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, self.job, stack[-1] if stack else None, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[START] = _clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                rec[END] = _clock()
                stack.pop()
            if note is not None:
                rec[NOTE] = note(args, res)
            return res

        setattr(module, attr, traced)
        self._saved.append((module, attr, fn))

    def __enter__(self):
        import importlib

        for mod, attr, _layer, note in WRAPS:
            self._wrap(importlib.import_module(mod), attr, note)
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "job": s[JOB], "parent": s[PARENT],
                    "start": s[START], "end": s[END], "note": s[NOTE],
                }) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts, busy and self times from the recorded spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] is not None:
                child[s[PARENT]] += s[END] - s[START]

        busy: dict[str, float] = {}
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        m = {
            "planarity.nodes_sum": 0, "planarity.planar": 0,
            "oracle.vectors": 0, "oracle.shortcut_attempts": 0,
            "oracle.shortcut_hits": 0, "oracle.plain_busy_s": 0.0,
            "oracle.gadget_calls": 0, "oracle.gadget_busy_s": 0.0,
            "vpg.witness_points_per_n_sum": 0.0, "vpg.grid_per_n": 0.0,
            "geom.segments": 0, "geom.crossings": 0, "geom.witness_segments": 0,
        }
        for i, s in enumerate(spans):
            name, dur, note = s[NAME], s[END] - s[START], s[NOTE]
            layer = LAYER[name]
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + dur
            self_s[layer] = self_s.get(layer, 0.0) + dur - child[i]
            short = name.rsplit(".", 1)[1]
            if short == "is_planar_edges":
                nodes, planar = note
                m["planarity.nodes_sum"] += nodes
                m["planarity.planar"] += planar
                n, e, _tried = spans[s[PARENT]][NOTE]
                if nodes >= 2 * n + 5 * e:
                    m["oracle.gadget_calls"] += 1
                    m["oracle.gadget_busy_s"] += dur
                else:
                    m["oracle.shortcut_attempts"] += 1
                    m["oracle.shortcut_hits"] += not planar
                    m["oracle.plain_busy_s"] += dur
            elif short == "enumerate_breaks":
                m["oracle.vectors"] += note[2]
            elif short == "build_vpg":
                n, points, grid = note
                m["vpg.witness_points_per_n_sum"] += points / n
                m["vpg.grid_per_n"] = max(m["vpg.grid_per_n"], grid / n)
            elif short == "crossing_profile":
                m["geom.segments"] += note[0]
                m["geom.crossings"] += note[1]
            elif short == "verify_outer_string":
                m["geom.witness_segments"] += note

        def c(attr):
            return calls.get(attr, 0)

        def b(attr):
            return busy.get(attr, 0.0)

        def ratio(a, d):
            return a / d if d else 0.0

        plan_calls = c("strandkit.oracle.is_planar_edges")
        verdict_busy = b("strandkit.oracle.enumerate_breaks")
        vpg_builds = c("strandkit.vpg.build_vpg")
        vpg_build_s = b("strandkit.vpg.build_vpg")
        compact_s = b("strandkit.vpg.compact_grid")
        graphs = [a for a, layer in LAYER.items() if layer == "graphs"]
        return {
            "planarity.calls": plan_calls,
            "planarity.busy_s": b("strandkit.oracle.is_planar_edges"),
            "planarity.nodes_mean": ratio(m["planarity.nodes_sum"], plan_calls),
            "planarity.planar_ratio": ratio(m["planarity.planar"], plan_calls),
            "planarity.embed_calls": c("strandkit.planarity.planar_rotation"),
            "planarity.embed_busy_s": b("strandkit.planarity.planar_rotation"),
            "oracle.verdicts": c("strandkit.oracle.enumerate_breaks"),
            "oracle.vectors": m["oracle.vectors"],
            "oracle.busy_s": verdict_busy,
            "oracle.self_s": self_s.get("oracle", 0.0),
            "oracle.calls_per_vector": ratio(plan_calls, m["oracle.vectors"]),
            "oracle.shortcut_attempts": m["oracle.shortcut_attempts"],
            "oracle.shortcut_hits": m["oracle.shortcut_hits"],
            "oracle.shortcut_hit_ratio": ratio(
                m["oracle.shortcut_hits"], m["oracle.shortcut_attempts"]),
            "oracle.plain_busy_s": m["oracle.plain_busy_s"],
            "oracle.gadget_calls": m["oracle.gadget_calls"],
            "oracle.gadget_busy_s": m["oracle.gadget_busy_s"],
            "graphs.calls": sum(c(a) for a in graphs),
            "graphs.front_s": sum(b(a) for a in graphs),
            "circle.builds": c("strandkit.circle.build_circle"),
            "circle.build_s": b("strandkit.circle.build_circle"),
            "circle.self_s": self_s.get("circle", 0.0),
            "circle.geometry_s": b("strandkit.circle.chord_to_geometry"),
            "vpg.builds": vpg_builds,
            "vpg.build_s": vpg_build_s,
            "vpg.self_s": self_s.get("vpg", 0.0),
            "vpg.compact_s": compact_s,
            "vpg.rotate_s": b("strandkit.vpg.rotate45"),
            "vpg.compact_share": ratio(compact_s, vpg_build_s),
            "vpg.witness_points_per_n": ratio(m["vpg.witness_points_per_n_sum"], vpg_builds),
            "vpg.grid_per_n": m["vpg.grid_per_n"],
            "sp.builds": c("strandkit.sp.build_sp"),
            "sp.build_s": b("strandkit.sp.build_sp"),
            "sp.self_s": self_s.get("sp", 0.0),
            "geom.profile_calls": c("strandkit.geom.crossing_profile"),
            "geom.profile_s": b("strandkit.geom.crossing_profile"),
            "geom.segments": m["geom.segments"],
            "geom.crossings": m["geom.crossings"],
            "geom.verify_1string_s": b("strandkit.geom.verify_1string"),
            "geom.verify_order_s": b("strandkit.geom.verify_order_preserving"),
            "geom.verify_outer_s": b("strandkit.geom.verify_outer_string"),
            "geom.witness_segments": m["geom.witness_segments"],
            "jsonio.dump_s": b("strandkit.jsonio.rep_to_json") + b("strandkit.jsonio.dumps"),
            "jsonio.load_s": (b("strandkit.jsonio.rep_from_json")
                              + b("strandkit.jsonio.graph_from_json")),
        }
