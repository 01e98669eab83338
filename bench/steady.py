"""Steadiness check: sets of runs of the same code, spread against bounds.

    python3 bench/steady.py [--sets 2] [--runs 10] [--workloads desk,stream]

Each set runs every chosen workload --runs times, each run with its own
seed (the sets use different seeds). For every end-to-end metric it prints
each set's median and the spread of its runs -- the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median -- next to the metric's bound from BENCHMARK.json, and how far the
last set's median moved from the first's, in either direction. Every
metric, setup_s included, must keep both within its bound. It also
compares the share of failed operations between sets, which must match
exactly. Results are kept in bench/_out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--first-seed", type=int, default=101)
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    metrics = spec["end_to_end"]

    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    for s in range(args.sets):
        for i in range(args.runs):
            seed = args.first_seed + s * args.runs + i
            for w in workloads:
                r = one_run(w, seed, spec["run_seconds"])
                results[w][s].append(r)
                print(f"set {s + 1} run {i + 1:2d} {w:7s} seed {seed}: correct={r['correct']} "
                      f"failed {r['failed']}/{r['attempted']}", flush=True)

    steady = True
    print(f"\n{'workload':8s} {'metric':12s} {'bound':>6s} "
          + " ".join(f"{'median' + str(s + 1):>11s} {'spread' + str(s + 1):>8s}"
                     for s in range(args.sets)) + f" {'moved':>7s}")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cols, meds, over = [], [], False
            for runs in results[w]:
                vals = [r["metrics"][name]["value"] for r in runs]
                med = statistics.median(vals)
                sp = spread(vals) if len(vals) > 1 else 0.0
                meds.append(med)
                cols.append(f"{med:11.5g} {sp:8.4f}")
                over = over or sp > bound
            moved = (meds[-1] - meds[0]) / meds[0]
            over = over or abs(moved) > bound
            steady = steady and not over
            print(f"{w:8s} {name:12s} {bound:6.3f} " + " ".join(cols)
                  + f" {moved:+7.4f}" + ("  OVER BOUND" if over else ""))
        shares = {r["failed"] / r["attempted"] for runs in results[w] for r in runs}
        correct = all(r["correct"] for runs in results[w] for r in runs)
        steady = steady and len(shares) == 1 and correct
        print(f"{w:8s} failed share {sorted(shares)} correct={correct}")
    (HERE / "_out").mkdir(exist_ok=True)
    (HERE / "_out" / "steady.json").write_text(json.dumps(results, indent=1) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
