#!/usr/bin/env python3
"""Generate a seeded corpus of instance documents for benchmarking.

Writes ``NN-<law>-<geometry>-n<points>.json`` files into the output
directory, cycling weight laws and geometries over a ladder of sizes.
Fully deterministic for a fixed base seed.

Example:
    python scripts/make_corpus.py corpus/ --count 20 --max-n 60 --seed 7
"""
from __future__ import annotations

import argparse
from pathlib import Path

from patrolsched import (GEOMETRIES, WEIGHT_LAWS, RandomSpec, generate_random,
                         serialize_instance)

MIN_N = 4  # points in the first, smallest instance


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", help="directory to fill with instance documents")
    parser.add_argument("--count", type=int, default=20)
    parser.add_argument("--max-n", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    span = max(args.count - 1, 1)
    for i in range(args.count):
        n = MIN_N + round((args.max_n - MIN_N) * i / span)
        law = WEIGHT_LAWS[i % len(WEIGHT_LAWS)]
        geometry = GEOMETRIES[i % len(GEOMETRIES)]
        inst = generate_random(RandomSpec(n=n, weight_law=law,
                                          geometry=geometry), args.seed + i)
        name = f"{i:02d}-{law}-{geometry}-n{n}.json"
        (outdir / name).write_text(serialize_instance(inst) + "\n")
        print(f"wrote {outdir / name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
