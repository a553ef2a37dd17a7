#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

For every end-to-end metric this prints the median, the quartiles (as
statistics.quantiles(values, n=4) computes them) and the interquartile
range as a share of the median, next to the metric's bound from
BENCHMARK.json. With --trace 1 it instead checks that the exact model
outputs (model.*, serve.*) repeat for a seed given twice.

Run from the repository root:

    python3 perfbench/spread.py --workload figures --seeds 1,2,3,4,5
    python3 perfbench/spread.py --workload fleet-plain --seeds 1-10 --out a.json
    python3 perfbench/spread.py --compare a.json b.json
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, timeout=600)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", help="also write the raw results here as JSON")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"),
                    help="compare the medians of two saved sets against the bounds")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    if args.compare:
        a, b = (json.load(open(p)) for p in args.compare)
        ok = True
        for name, m in bounds.items():
            ma = statistics.median(r["metrics"][name]["value"] for r in a["runs"])
            mb = statistics.median(r["metrics"][name]["value"] for r in b["runs"])
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            flag = "ok" if worse <= m["bound"] else "WORSE"
            ok = ok and flag == "ok"
            print(f"{name:20s} {ma:14.6g} {mb:14.6g} worse by {worse:+.4f} (bound {m['bound']}) {flag}")
        sys.exit(0 if ok else 1)

    if not args.workload:
        ap.error("--workload is required")
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for seed in parse_seeds(args.seeds):
        r = run_once(args.workload, seed, seconds, args.trace)
        r["seed"] = seed
        runs.append(r)
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}",
              file=sys.stderr)
    if args.out:
        json.dump({"workload": args.workload, "runs": runs}, open(args.out, "w"), indent=1)

    bad = [r["seed"] for r in runs if not r["correct"] or r["failed"]]
    if args.trace:
        exact = {}
        for r in runs:
            vals = {k: v["value"] for k, v in r["metrics"].items()
                    if k.startswith("model.") or k.startswith("serve.sim_")}
            if r["seed"] in exact and exact[r["seed"]] != vals:
                bad.append(r["seed"])
                print(f"seed {r['seed']}: model outputs differ between runs", file=sys.stderr)
            exact[r["seed"]] = vals
        print(json.dumps(exact, indent=1, sort_keys=True))
    else:
        for name, m in bounds.items():
            med, q1, q3, spread = summarise([r["metrics"][name]["value"] for r in runs])
            flag = ""
            if name != "setup_s" and spread > m["bound"]:
                flag = "OVER BOUND"
            elif name != "setup_s" and spread > m["bound"] / 3:
                flag = "over bound/3"
            print(f"{name:20s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  "
                  f"iqr/median {spread:.4f}  bound {m['bound']}  {flag}")
    if bad:
        print(f"failed or incorrect runs for seeds {bad}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
