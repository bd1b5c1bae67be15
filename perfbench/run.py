"""Layered benchmark for strandkit: construct, verify, oracle-exhaustive and
oracle-sampled.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every metric, both modes

Every pass over the workload's job list runs in a fresh Python process, which
imports the library, sets the workload up once and runs each job once, as the
`strandkit` commands decide each input once per process. So no pass can reuse
work that an earlier pass did. With --trace 0 the run starts passes while the
next one still fits in --seconds (at least MIN_PASSES) and reports the
end-to-end metrics, each job taken at its median over the passes. With --trace 1
it runs one untraced and one traced pass, reports the per-layer metrics of the
traced pass and the tracing overhead, and writes the spans to perfbench/out/.
Every job's result is checked; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("construct", "verify", "oracle-exhaustive", "oracle-sampled")

# An untraced run makes at least this many passes, so that every job's time
# is a median of k >= MIN_PASSES runs.
MIN_PASSES = 3
# A pass that has not ended after this long is stopped and the run fails.
PASS_TIMEOUT_S = 150

_clock = time.perf_counter


_UNITS = (
    ("_per_s", "1/s"), ("_s", "s"), ("_ms", "ms"), ("_mb", "MB"),
    ("_rate", "ratio"), ("_ratio", "ratio"), ("_share", "ratio"), ("_per_n", "ratio"),
    ("_per_vector", "ratio"), ("bytes", "bytes"), ("bits_max", "bits"),
    ("nodes_mean", "nodes"),
)


def _unit(name: str) -> str:
    return next((unit for suffix, unit in _UNITS if name.endswith(suffix)), "count")


def _peak_rss_mb() -> float:
    kb = sum(resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kb / 1024


def one_pass(workload: str, seed: int, trace: bool, wrapped: bool) -> dict:
    """Set up and run one pass in this process, with the set-up of a run in
    mode `trace`, and with the tracer's wrappers in place if `wrapped`.
    Set-up time includes the import of the library, so that work moved into
    import time shows."""
    t0 = _clock()
    import strandkit
    import workloads

    if Path(strandkit.__file__).resolve().parent != (SRC / "strandkit").resolve():
        raise SystemExit(f"error: strandkit was imported from {strandkit.__file__}")
    setup = workloads.SETUPS[workload]
    if trace and workload == "oracle-sampled":
        # forked workers return no spans; seeded samples never stop early,
        # so one worker does exactly the calls and counts of two
        def setup(seed):
            return workloads.setup_oracle_sampled(seed, workers=1)

    jobs = setup(seed)
    setup_s = _clock() - t0
    from tracer import Tracer

    # Each job starts from the same collector state, so that where a
    # collection falls does not depend on the jobs run before it. The set-up's
    # objects are frozen out of the collections.
    gc.collect()
    gc.freeze()
    results, latencies = [], []
    wall = 0.0
    with Tracer() if wrapped else contextlib.nullcontext() as tracer:
        for k, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = k
            gc.collect()
            t0 = _clock()
            try:
                res = job.run()
            except Exception as exc:  # a raised exception is a failed job
                res = exc
            latencies.append(_clock() - t0)
            wall += latencies[-1]
            results.append(res)

    # the checks run after the pass and are not timed
    outcomes = []
    for job, res in zip(jobs, results):
        if isinstance(res, Exception):
            out = workloads.Outcome(False, 0, {"error": repr(res)})
        else:
            try:
                out = job.check(res)
            except Exception as exc:
                out = workloads.Outcome(False, 0, {"error": repr(exc)})
        if not out.ok:
            print(f"FAILED {job.label}: {out.detail}", file=sys.stderr)
        outcomes.append(dataclasses.asdict(out))
    result = {"setup_s": setup_s, "wall": wall, "latencies": latencies,
              "outcomes": outcomes, "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{workload}.jsonl")
        metrics = tracer.layer_metrics()
        details = [o["detail"] for o in outcomes]
        metrics["jsonio.bytes"] = sum(d.get("bytes", 0) for d in details)
        metrics["jsonio.coord_bits_max"] = max((d.get("coord_bits", 0) for d in details),
                                               default=0)
        metrics["trace.spans"] = len(tracer.spans)
        result["layers"] = metrics
    return result


def _spawn(workload: str, seed: int, trace: bool, wrapped: bool = False) -> dict:
    """One pass in a fresh process; its stderr passes through."""
    cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace)), "--one-pass", "wrapped" if wrapped else "plain"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"error: a {workload} pass exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _end_to_end(passes) -> dict:
    # wall_s takes each job at its median over the passes: on a shared machine
    # the speed drifts by tens of percent within seconds, and the median of k
    # passes spread over the run is steadier than one pass or the fastest.
    # The percentiles are over every job run of every pass.
    per_job = [statistics.median(lat) for lat in zip(*(p["latencies"] for p in passes))]
    runs = [x for p in passes for x in p["latencies"]]
    deciles = statistics.quantiles(runs, n=10, method="inclusive")
    outcomes = [o for p in passes for o in p["outcomes"]]
    failed = sum(not o["ok"] for o in outcomes)
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": sum(per_job),
        "job_p50_ms": statistics.median(runs) * 1e3,
        "job_p90_ms": deciles[8] * 1e3,
        "items_per_s": sum(o["items"] for o in passes[0]["outcomes"]) / sum(per_job),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "pass_rate": (len(outcomes) - failed) / len(outcomes),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if trace:
        untraced = _spawn(workload, seed, True)
        traced = _spawn(workload, seed, True, wrapped=True)
        passes = [untraced, traced]
        metrics = traced["layers"]
        metrics["trace.wall_s"] = traced["wall"]
        metrics["trace.untraced_wall_s"] = untraced["wall"]
        metrics["trace.overhead_s"] = traced["wall"] - untraced["wall"]
        if workload == "oracle-sampled":
            print("note: traced with jobs=1 (forked workers return no spans); seeded "
                  "samples never stop early, so counts equal the two-worker run")
    else:
        passes, times = [], []
        t0 = _clock()
        while True:
            t_pass = _clock()
            passes.append(_spawn(workload, seed, False))
            times.append(_clock() - t_pass)
            if len(passes) >= MIN_PASSES and _clock() - t0 + statistics.median(times) > seconds:
                break
        metrics = _end_to_end(passes)

    jobs = len(passes[0]["outcomes"])
    attempted = sum(len(p["outcomes"]) for p in passes)
    failed = sum(not o["ok"] for p in passes for o in p["outcomes"])
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  passes {len(passes)}  "
          f"jobs per pass {jobs}  failed {failed}/{attempted}")
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {_unit(name)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=60)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--one-pass", choices=("plain", "wrapped"),
                   help="set up and run a single pass in this process, with or without "
                        "the tracer's wrappers, and print it as JSON")
    args = p.parse_args(argv)
    if not (SRC / "strandkit" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'strandkit'}", file=sys.stderr)
        return 2
    if args.one_pass:
        if args.workload == "all":
            p.error("--one-pass needs a single workload")
        sys.path.insert(0, str(SRC))
        print(json.dumps(one_pass(args.workload, args.seed, bool(args.trace),
                                  args.one_pass == "wrapped")))
        return 0
    if args.workload == "all":
        for w in WORKLOADS:
            for t in (False, True):
                run(w, args.seed, args.seconds, t)
        return 0
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
