"""Command-line front end: generation, embedding, construction, verification,
oracle runs, SVG rendering, and per-result reproduction commands.

Exit codes: 0 on success / expected verdicts, 1 on verification failure or
unexpected verdicts, 2 on usage errors and malformed input. Every run emits a
manifest (to --manifest, next to --out, or to stderr)."""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import sys
import time

from . import __version__, jsonio
from .circle import build_circle, chord_to_geometry
from .errors import InputError, StrandkitError
from .families import (
    extended_wheel,
    random_maximal_outerplanar,
    random_partial_2tree,
    random_planar_3tree,
    subdivided_k23,
    triple_stellation,
    wheel,
)
from .geom import (
    BOTH_ENDS,
    ONE_END,
    crossing_profile,
    verify_1string,
    verify_order_preserving,
    verify_outer_string,
)
from .graphs import Graph, PlaneGraph, RotationScheme, euler_check, is_outerplanar, is_planar
from .oracle import COUNTERS, enumerate_breaks
from .sp import build_sp
from .svg import emit_svg
from .vpg import GRID_CONSTANT, build_vpg


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@contextlib.contextmanager
def _parsing(path: str):
    """Report a parse failure of an input file as an InputError."""
    try:
        yield
    except (ValueError, LookupError, TypeError, AttributeError, ZeroDivisionError) as exc:
        raise InputError(f"malformed input {path}: {type(exc).__name__}: {exc}") from exc


class _Run:
    def __init__(self, argv):
        self.manifest = {
            "command": list(argv),
            "version": __version__,
            "inputs": {},
            "outputs": {},
            "timings_ms": {},
            "extra": {},
        }
        self.t0 = time.perf_counter()

    def _read(self, path: str) -> str:
        text = open(path).read()
        self.manifest["inputs"][path] = _sha(text)
        return text

    def read_graph(self, path: str):
        with _parsing(path):
            text = self._read(path)
            if path.endswith(".txt"):
                return jsonio.graph_from_edge_text(text), None
            return jsonio.graph_from_json(jsonio.loads(text))

    def read_rep(self, path: str):
        """The rep in a rep JSON file, and the parsed JSON."""
        with _parsing(path):
            data = jsonio.loads(self._read(path))
            return jsonio.rep_from_json(data), data

    def write(self, path: str | None, text: str) -> None:
        if path:
            with open(path, "w") as fh:
                fh.write(text)
            self.manifest["outputs"][path] = _sha(text)
        else:
            sys.stdout.write(text)
            self.manifest["outputs"]["<stdout>"] = _sha(text)

    def finish(self, args, code: int) -> int:
        self.manifest["timings_ms"]["total"] = int((time.perf_counter() - self.t0) * 1000)
        self.manifest["exit_code"] = code
        target = getattr(args, "manifest", None)
        if target is None and getattr(args, "out", None):
            target = args.out + ".manifest.json"
        line = jsonio.dumps(self.manifest)
        if target:
            try:
                with open(target, "w") as fh:
                    fh.write(line)
                return code
            except OSError as exc:
                sys.stderr.write(f"error: cannot write the manifest: {exc}\n")
        sys.stderr.write(line)
        return code


def _plane_for(run: _Run, g: Graph, rot: RotationScheme | None) -> PlaneGraph:
    if rot is not None:
        return PlaneGraph(g, rot)
    ok, orot, _outer = (False, None, None)
    try:
        ok, orot, _outer = is_outerplanar(g)
    except StrandkitError:
        ok = False
    if ok:
        run.manifest["extra"]["embedding"] = "outer-plane witness"
        return PlaneGraph(g, orot)
    okp, prot = is_planar(g)
    if not okp:
        raise StrandkitError("input graph is not planar; no rotation scheme exists")
    run.manifest["extra"]["embedding"] = "planar witness"
    return PlaneGraph(g, prot)


def _verify_all(rep, g, plane, outer_mode, strict=False):
    """Check rep against g, against the rotation of `plane` unless it is None,
    and against the contour in `outer_mode` if one is given."""
    prof = crossing_profile(rep)
    reports = {"one_string": verify_1string(rep, g, prof)}
    if plane is not None:
        reports["order_preserving"] = verify_order_preserving(
            rep, plane, strict=strict, profile=prof
        )
    if outer_mode:
        reports["outer_string"] = verify_outer_string(rep, outer_mode)
    ok = all(r.ok for r in reports.values())
    return ok, {k: {"ok": r.ok, "failures": list(r.failures)} for k, r in reports.items()}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


_FAMILIES = {
    "wheel": lambda a: wheel(a.n),
    "extended-wheel": lambda a: extended_wheel(a.n),
    "planar-3tree": lambda a: random_planar_3tree(a.n, a.seed),
    "triple-stellation-3tree": lambda a: triple_stellation(random_planar_3tree(a.n, a.seed)),
    "maximal-outerplanar": lambda a: random_maximal_outerplanar(a.n, a.seed),
    "partial-2tree": lambda a: random_partial_2tree(a.n, a.density, a.seed),
    "subdivided-k23": lambda a: subdivided_k23(),
}


def _cmd_gen(run: _Run, args) -> int:
    made = _FAMILIES[args.family](args)
    if isinstance(made, PlaneGraph):
        out = jsonio.graph_to_json(made.graph, made.rot)
    else:
        out = jsonio.graph_to_json(made)
    run.manifest["extra"]["seed"] = args.seed
    run.write(args.out, jsonio.dumps(out))
    return 0


def _cmd_embed(run: _Run, args) -> int:
    g, rot = run.read_graph(args.graph)
    if args.check:
        if rot is None:
            raise StrandkitError("--check needs a rotation in the input")
        ok = euler_check(g, rot)
        run.write(args.out, jsonio.dumps({"plane": ok}))
        return 0 if ok else 1
    plane = _plane_for(run, g, rot)
    run.write(args.out, jsonio.dumps(jsonio.graph_to_json(g, plane.rot)))
    return 0


def _build(run: _Run, kind: str, g: Graph, trace: bool = False, frame: str = "ortho"):
    """Build a rep of g with the constructor of `kind` and verify it; the
    build time goes into the manifest. Returns the build, the rep, whether
    every check passed, and the per-check reports."""
    t0 = time.perf_counter()
    if kind == "circle":
        b = build_circle(g, trace=trace)
        rep = chord_to_geometry(b.diagram)
    elif kind == "vpg":
        b = build_vpg(g, trace=trace)
        rep = b.diag_rep if frame == "diag" else b.rep
        run.manifest["extra"]["grid"] = list(b.grid)
    else:
        b = build_sp(g)
        rep = b.rep
    run.manifest["timings_ms"]["build"] = int((time.perf_counter() - t0) * 1000)
    ok, reports = _verify_all(rep, g, b.plane, BOTH_ENDS if rep.witness is not None else None)
    return b, rep, ok, reports


def _cmd_build(run: _Run, args) -> int:
    if args.frame == "diag" and args.kind != "vpg":
        raise StrandkitError(f"--frame diag needs the vpg constructor, not {args.kind}")
    g, _rot = run.read_graph(args.graph)
    b, rep, ok, reports = _build(run, args.kind, g, args.trace, args.frame)
    if not ok:
        sys.stderr.write(jsonio.dumps({"verify": reports}))
        return 1
    payload = jsonio.rep_to_json(rep)
    payload["rotation"] = {str(v): list(b.plane.rot.order[v]) for v in range(g.n)}
    if args.kind != "sp":
        payload["breaks"] = {str(v): b.breaks[v] for v in sorted(b.breaks)}
    if args.trace:
        payload["trace"] = list(b.trace) if args.kind != "sp" else []
    run.manifest["extra"]["verified"] = sorted(reports)
    run.write(args.out, jsonio.dumps(payload))
    if args.svg:
        overlays = None
        if args.trace and args.frame == "diag":
            overlays = [
                (f"region {r.edge[0]}-{r.edge[1]}",
                 [r.hyp_world()[0], r.hyp_world()[1], r.apex_world()])
                for r in b.regions
            ]
        run.write(args.svg, emit_svg(rep, profile=crossing_profile(rep), overlays=overlays))
    return 0


def _cmd_verify(run: _Run, args) -> int:
    rep, data = run.read_rep(args.rep)
    g, rot = run.read_graph(args.graph)
    if set(rep.curves) != set(range(g.n)):
        raise InputError(
            f"malformed input {args.rep}: its curves {sorted(rep.curves)} are not "
            f"the vertices 0..{g.n - 1} of {args.graph}"
        )
    plane = None
    if args.order:
        if rot is None:
            with _parsing(args.rep):
                rot = jsonio.rotation_from_json(data, g.n)
        if rot is None:
            raise StrandkitError("--order needs a rotation (graph json or rep json)")
        plane = PlaneGraph(g, rot)
    ok, reports = _verify_all(rep, g, plane, args.outer, strict=args.strict)
    run.write(args.out, jsonio.dumps(reports))
    return 0 if ok else 1


def _cmd_oracle(run: _Run, args) -> int:
    g, rot = run.read_graph(args.graph)
    plane = _plane_for(run, g, rot)
    v = enumerate_breaks(
        plane, args.mode, budget=args.samples, jobs=args.jobs, seed=args.seed, limit=args.limit
    )
    _oracle_counters(run, v)
    run.write(args.out, jsonio.dumps(v.to_json()))
    return 0


def _oracle_counters(run: _Run, *verdicts) -> None:
    """Record the oracle's counters, summed over `verdicts`, in the manifest."""
    run.manifest["extra"]["oracle"] = {
        k: sum(v.counters[k] for v in verdicts) for k in COUNTERS
    }


def _cmd_svg(run: _Run, args) -> int:
    rep, _data = run.read_rep(args.rep)
    prof = crossing_profile(rep) if args.crossings else None
    run.write(args.out, emit_svg(rep, profile=prof))
    return 0


def _cmd_repro(run: _Run, args) -> int:
    which = args.result
    ex = run.manifest["extra"]
    kind = {"thm3": "circle", "thm4": "vpg", "lem2": "sp"}.get(which)
    if kind is not None:
        if kind == "sp":
            g = random_partial_2tree(args.n, args.density, args.seed)
        else:
            g = random_maximal_outerplanar(args.n, args.seed).graph
        b, rep, ok, reports = _build(run, kind, g)
        ex["checks"] = {k: r["ok"] for k, r in reports.items()}
        result = {"n": g.n}
        bends = [c.bend_count() for c in rep.curves.values()]
        if kind == "vpg":
            ok = ok and all(k <= 1 for k in bends) and max(b.grid) <= GRID_CONSTANT * g.n
            ex["grid_per_n"] = [b.grid[0] / g.n, b.grid[1] / g.n]
            ex["grid_constant"] = GRID_CONSTANT
            result["grid"] = list(b.grid)
        elif kind == "sp":
            ok = ok and all(k == 1 for k in bends)
        result["ok"] = ok
        run.write(args.out, jsonio.dumps(result))
        return 0 if ok else 1
    if which == "sec5-k23":
        g = subdivided_k23()
        plane = build_sp(g).plane
        v_base = enumerate_breaks(plane, None, jobs=args.jobs)
        v_outer = enumerate_breaks(plane, BOTH_ENDS, jobs=args.jobs)
        _oracle_counters(run, v_base, v_outer)
        ok = v_base.status == "yes" and v_outer.status == "no" and v_outer.tried == 4608
        ex["base"] = v_base.to_json()
        ex["both_ends"] = v_outer.to_json()
        run.write(args.out, jsonio.dumps({"ok": ok}))
        return 0 if ok else 1
    if which == "thm6":
        pg = extended_wheel(7)
        v = enumerate_breaks(pg, BOTH_ENDS, jobs=args.jobs)
        _oracle_counters(run, v)
        ok = v.status == "no"
        ex["verdict"] = v.to_json()
        run.write(args.out, jsonio.dumps({"ok": ok, "status": v.status, "tried": v.tried}))
        return 0 if ok else 1
    if which == "thm2-sample":
        pg = triple_stellation(random_planar_3tree(6, args.seed))
        v = enumerate_breaks(pg, None, budget=args.samples, jobs=args.jobs, seed=args.seed)
        _oracle_counters(run, v)
        ok = v.status == "unknown"
        ex["verdict"] = v.to_json()
        ex["note"] = "evidence, not proof: sampled search only"
        run.write(
            args.out,
            jsonio.dumps(
                {"ok": ok, "status": v.status, "zero_hits": v.witness is None,
                 "note": "evidence, not proof"}
            ),
        )
        return 0 if ok else 1
    raise StrandkitError(f"unknown repro target {which}")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="strandkit")
    # a string default: argparse converts it with type=int, so a bad
    # STRANDKIT_JOBS is a usage error
    jobs = os.environ.get("STRANDKIT_JOBS", "1")
    p.add_argument("--manifest", help="write the run manifest to this path")
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="emit a named graph family as JSON")
    g.add_argument("family", choices=list(_FAMILIES))
    g.add_argument("--n", type=int, default=8)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--density", type=float, default=0.7)
    g.add_argument("--out")
    g.set_defaults(fn=_cmd_gen)

    e = sub.add_parser("embed", help="compute or validate a rotation scheme")
    e.add_argument("graph")
    e.add_argument("--check", action="store_true")
    e.add_argument("--out")
    e.set_defaults(fn=_cmd_embed)

    b = sub.add_parser("build", help="construct a representation (verified)")
    b.add_argument("kind", choices=["circle", "vpg", "sp"])
    b.add_argument("graph")
    b.add_argument("--out")
    b.add_argument("--svg")
    b.add_argument("--trace", action="store_true")
    b.add_argument("--frame", choices=["diag", "ortho"], default="ortho")
    b.set_defaults(fn=_cmd_build)

    v = sub.add_parser("verify", help="verify a representation against a graph")
    v.add_argument("rep")
    v.add_argument("graph")
    v.add_argument("--order", action="store_true")
    v.add_argument("--outer", choices=[BOTH_ENDS, ONE_END])
    v.add_argument("--strict", action="store_true")
    v.add_argument("--out")
    v.set_defaults(fn=_cmd_verify)

    o = sub.add_parser("oracle", help="break-vector realizability search")
    o.add_argument("graph")
    o.add_argument("--mode", choices=["base", BOTH_ENDS, ONE_END], default="base")
    o.add_argument("--samples", type=int)
    o.add_argument("--limit", type=int)
    o.add_argument("--jobs", type=int, default=jobs)
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--out")
    o.set_defaults(fn=_cmd_oracle)

    s = sub.add_parser("svg", help="render a representation")
    s.add_argument("rep")
    s.add_argument("--crossings", action="store_true")
    s.add_argument("--out")
    s.set_defaults(fn=_cmd_svg)

    r = sub.add_parser("repro", help="reproduce one of the library's results")
    r.add_argument("result", choices=[
        "thm3", "thm4", "lem2", "sec5-k23", "thm6", "thm2-sample"])
    r.add_argument("--n", type=int, default=50)
    r.add_argument("--seed", type=int, default=1)
    r.add_argument("--density", type=float, default=0.7)
    r.add_argument("--samples", type=int, default=1_000_000)
    r.add_argument("--jobs", type=int, default=jobs)
    r.add_argument("--out")
    r.set_defaults(fn=_cmd_repro)
    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    run = _Run(["strandkit"] + argv)
    try:
        code = args.fn(run, args)
    except (StrandkitError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return run.finish(args, 2)
    return run.finish(args, code)


if __name__ == "__main__":
    sys.exit(main())
