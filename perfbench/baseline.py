"""Measure the single cases of the ROADMAP baseline table with the tracer.

    python3 perfbench/baseline.py [--seed 1]

The benchmark's workloads are mixes sized for short runs; this script times
the four fixed cases the baseline table names, with the same tracer and
per-layer metrics, so that the two can be compared (see README.md).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    from strandkit import families, oracle

    from tracer import Tracer
    from workloads import construct_job

    def traced(fn):
        with Tracer() as t:
            fn()
        return t.layer_metrics()

    rows = []
    g = families.random_maximal_outerplanar(200, args.seed).graph
    m = traced(construct_job("vpg", g).run)
    verify_s = sum(m[k] for k in ("geom.profile_s", "geom.verify_1string_s",
                                  "geom.verify_order_s", "geom.verify_outer_s"))
    rows.append(("build_vpg n=200", f"{m['vpg.build_s']:.2f} s build "
                 f"({m['vpg.compact_share']:.0%} in compact_grid), {verify_s:.2f} s verify"))

    g = families.random_maximal_outerplanar(1000, args.seed).graph
    m = traced(construct_job("circle", g).run)
    rows.append(("build_circle n=1000", f"{m['circle.build_s']:.2f} s build, "
                 f"{m['geom.profile_s']:.2f} s crossing_profile, "
                 f"{m['geom.verify_1string_s']:.2f} s verify_1string"))

    pg = families.extended_wheel(7)
    m = traced(lambda: oracle.enumerate_breaks(pg, oracle.BOTH_ENDS, limit=4096))
    rows.append(("W_7^+ both-ends, 4096-vector prefix",
                 f"{m['oracle.busy_s'] / m['oracle.vectors'] * 1e3:.3f} ms/vector"))

    pg = families.triple_stellation(families.random_planar_3tree(6, args.seed))
    m = traced(lambda: oracle.enumerate_breaks(pg, None, budget=200, seed=args.seed))
    rows.append(("Thm-2 instance, 200 samples, jobs=1",
                 f"{m['oracle.plain_busy_s'] / m['oracle.shortcut_attempts'] * 1e3:.2f} ms plain H"
                 f" + {m['oracle.gadget_busy_s'] / m['oracle.gadget_calls'] * 1e3:.2f} ms gadget H"
                 f" per sample"))
    for what, measured in rows:
        print(f"{what:<40} {measured}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
