#!/usr/bin/env python3
"""Run a workload over several seeds and summarise each end-to-end metric.

    python3 perfbench/repeat.py --workload cli-short --seeds 1-10 --seconds 25

prints, per metric, the median, the quartiles and the spread (the distance
between the quartiles as a share of the median) over the runs. With
`--against DIR`, DIR is a second checkout (say, the parent commit); the two
checkouts run in alternating order seed by seed, and each metric also gets
the change's median relative to DIR's and the share of pairs the change won.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(root, workload, seed, seconds, trace):
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    lines = res.stdout.strip().splitlines()
    if res.returncode or not lines:
        sys.exit(f"{root}: seed {seed} exited {res.returncode}\n{res.stdout[-2000:]}{res.stderr[-2000:]}")
    return json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else float("nan")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", default="25")
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--against", type=Path, help="second checkout to compare with")
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    sides = {"this": ROOT} | ({"other": args.against.resolve()} if args.against else {})
    runs = {side: [] for side in sides}
    for i, seed in enumerate(args.seeds):
        order = list(sides) if i % 2 == 0 else list(reversed(sides))
        for side in order:
            result = one_run(sides[side], args.workload, seed, args.seconds, args.trace)
            runs[side].append(result)
            shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{side} seed {seed}: failed {result['failed']}/{result['attempted']} {shown}", flush=True)
    for name in runs["this"][0]["metrics"]:
        this = [r["metrics"][name]["value"] for r in runs["this"]]
        med, q1, q3, spread = summary(this)
        line = f"{name:<28} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}"
        if args.against:
            other = [r["metrics"][name]["value"] for r in runs["other"]]
            omed, _, _, ospread = summary(other)
            sign = 1 if better.get(name) == "higher" else -1
            wins = sum(sign * (a - b) > 0 for a, b in zip(this, other))
            line += (f"  | other median {omed:.6g} spread {ospread:.4f}"
                     f"  change {med / omed - 1:+.4f}  won {wins}/{len(this)}")
        print(line)


if __name__ == "__main__":
    main()
