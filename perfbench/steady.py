#!/usr/bin/env python3
"""Steadiness tool: runs one workload in two sets of runs of the same code,
alternating between the sets (A B A B ...), each run with its own seed
(set A seeds 1..R, set B R+1..2R), and prints for every metric each set's
median, quartiles and spread (inter-quartile distance over the median, as
statistics.quantiles(n=4) gives them), the spread over all runs, and the
difference between the two sets' medians. The bounds in BENCHMARK.json
are set from this output.

  python3 perfbench/steady.py --workload eco_sizing --runs 5 --seconds 45 [--json FILE]

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode()[-2000:])
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--json", help="also write the raw results here")
    args = ap.parse_args()

    sets = {"A": [], "B": []}
    for i in range(args.runs):
        for name in ("A", "B"):
            seed = 1 + i + (args.runs if name == "B" else 0)
            res = run_once(args.workload, seed, args.seconds)
            if not res["correct"]:
                raise SystemExit("run reported correct=false (seed %d)" % seed)
            sets[name].append(res)
            sys.stderr.write("%s seed %d done\n" % (name, seed))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(sets, f)

    shares = {n: {r["failed"] / r["attempted"] for r in rs} for n, rs in sets.items()}
    print("failed share per set: A %s  B %s" % (sorted(shares["A"]), sorted(shares["B"])))
    print("%-26s %12s %7s %12s %7s %8s %8s"
          % ("metric", "median A", "sprd A", "median B", "sprd B", "sprd all", "B/A-1"))
    for metric in sets["A"][0]["metrics"]:
        a = summary([r["metrics"][metric]["value"] for r in sets["A"]])
        b = summary([r["metrics"][metric]["value"] for r in sets["B"]])
        both = summary([r["metrics"][metric]["value"] for rs in sets.values() for r in rs])
        diff = b["median"] / a["median"] - 1 if a["median"] else float("nan")
        print("%-26s %12.6g %7.3f %12.6g %7.3f %8.3f %+8.3f"
              % (metric, a["median"], a["spread"], b["median"], b["spread"], both["spread"], diff))


if __name__ == "__main__":
    main()
