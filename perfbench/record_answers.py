"""Record the oracle-exhaustive known answers with the library's linear scan.

    python3 perfbench/record_answers.py

Writes perfbench/known_answers.json: one entry per fixed verdict, holding the
case and the scan's status, witness, witness_ends, tried and total. The
benchmark compares every verdict it computes against this record. Record it
again only when a case is added or changed, never to absorb a new answer.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# (id, graph, mode, limit). NO over the full space first, then early YES, then
# a fixed prefix of the W_7^+ space as in `strandkit repro thm6 --limit`.
CASES = (
    ("k23-both-ends", "subdivided-k23", "both-ends", None),
    ("w5-both-ends", "wheel-5", "both-ends", None),
    ("w6-both-ends", "wheel-6", "both-ends", None),
    ("w3plus-both-ends", "extended-wheel-3", "both-ends", None),
    ("k23-base", "subdivided-k23", "base", None),
    ("w4-both-ends", "wheel-4", "both-ends", None),
    ("w5-one-end", "wheel-5", "one-end", None),
    ("w3plus-one-end", "extended-wheel-3", "one-end", None),
    ("w7plus-both-ends-prefix", "extended-wheel-7", "both-ends", 1024),
)


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    from strandkit import oracle

    from workloads import plane_graph

    out = []
    for cid, graph, mode, limit in CASES:
        v = oracle.enumerate_breaks(plane_graph(graph), mode, limit=limit)
        rec = {"id": cid, "graph": graph, "mode": mode, "limit": limit}
        rec.update(v.to_json())
        del rec["elapsed_ms"]
        out.append(rec)
        print(cid, rec["status"], rec["tried"], rec["total"], file=sys.stderr)
    (HERE / "known_answers.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
