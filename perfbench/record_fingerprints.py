#!/usr/bin/env python3
"""Records the fleet fingerprint of every draw of the given run seeds.

    python3 perfbench/record_fingerprints.py 16 4242 [--seconds 20]

Run from the repository root. Runs the unsharded fleet workload for each
seed and merges each draw's fingerprint into perfbench/fingerprints.json,
keyed by draw seed (run seed * 1000 + draw index). run.py fails a fleet or
sharded run whose draw differs from a recorded value. Re-record only when a
change is meant to alter simulated results, and say why in the change.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", type=int, nargs="+")
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    harness = run.build()
    path = os.path.join(HERE, "fingerprints.json")
    with open(path) as f:
        table = json.load(f)
    out = os.path.join(run.ROOT, run.BUILD_DIR, "results", "record.raw.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    for seed in args.seeds:
        subprocess.run([harness, "fleet", str(seed), str(args.seconds), "0", out], check=True)
        with open(out) as f:
            raw = json.load(f)
        if raw["failed"]:
            sys.exit("seed %d failed its gates: %s" % (seed, raw["failures"]))
        for index, fp in enumerate(raw["fingerprints"]):
            table["fleet"][str(run.draw_seed(seed, index))] = fp
        print("seed %d: %d draws" % (seed, len(raw["fingerprints"])))
    table["fleet"] = dict(sorted(table["fleet"].items(), key=lambda kv: int(kv[0])))
    with open(path, "w") as f:
        json.dump(table, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
