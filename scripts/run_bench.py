#!/usr/bin/env python3
"""Plan every instance in a corpus and summarize approximation quality.

Thin wrapper over ``patrolsched bench`` that also prints the worst rows,
useful when eyeballing how far the planner sits from its guarantee.

Example:
    python scripts/make_corpus.py corpus/ --count 20
    python scripts/run_bench.py corpus/ --out results/bench
"""
from __future__ import annotations

import argparse
import json
from pathlib import Path

from patrolsched.cli import main as cli_main

TOP = 5  # worst-ratio rows printed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("corpus", help="directory of instance *.json documents")
    parser.add_argument("--out", default="bench", help="report prefix")
    args = parser.parse_args()

    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    rc = cli_main(["bench", args.corpus, "--out", args.out])
    if rc != 0:
        return rc

    report = json.loads(Path(f"{args.out}.json").read_text())
    rows = [r for r in report["result"]["rows"] if r["status"] == "ok"
            and r["envelope_ratio"] is not None]
    rows.sort(key=lambda r: r["envelope_ratio"], reverse=True)
    print(f"\nworst {min(TOP, len(rows))} envelope ratios "
          f"(guarantee is 18*(I+1)):")
    for r in rows[:TOP]:
        print(f"  {r['file']:40s} n={r['n']:<4d} ratio={r['envelope_ratio']:8.3f} "
              f"limit={r['envelope_limit']:6.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
