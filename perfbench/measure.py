"""Run the benchmark over seeds and summarise it per workload.

    python3 perfbench/measure.py [--workloads a,b] [--seeds 0-9] [--trace]
                                 [--out perfbench/baseline.json]

For every workload and seed this runs `run.py --trace 0`, one process a run,
then prints each end-to-end metric's median, quartiles and spread (the
distance between the quartiles as a share of the median) next to its bound
from BENCHMARK.json, and `failed_share` (failed over attempted operations).
`--trace` adds one traced run per workload at the first seed.  `--out`
writes every run and the summaries as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["environment"] = json.loads(lines[-2])["environment"]
    result["seed"] = seed
    if trace:
        result["log"] = lines[:-2]      # gate lines and the largest self times
    return result


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-9"))
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m for m in bench["end_to_end"]}
    names = args.workloads.split(",")
    runs = {name: [] for name in names}
    # seeds outside, workloads inside: slow drift in machine speed then
    # spreads over every workload instead of biasing one
    for seed in args.seeds:
        for name in names:
            r = run_once(name, seed, bench["run_seconds"], 0)
            runs[name].append(r)
            print(f"{name} seed={seed} correct={r['correct']} "
                  f"failed_share={r['failed'] / r['attempted']:.4f} " +
                  " ".join(f"{k}={v['value']:.4f}" for k, v in r["metrics"].items()),
                  flush=True)
    out = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for name in names:
        summary = {k: summarise([r["metrics"][k]["value"] for r in runs[name]])
                   for k in bounds}
        summary["failed_share"] = summarise([r["failed"] / r["attempted"]
                                             for r in runs[name]])
        entry = {"summary": summary, "runs": runs[name]}
        if args.trace:
            entry["trace"] = run_once(name, args.seeds[0], bench["run_seconds"], 1)
        out["workloads"][name] = entry
        for k, s in summary.items():
            bound = bounds.get(k, {}).get("bound")
            print(f"  {name:<14} {k:<12} median={s['median']:.4f} "
                  f"q1={s['q1']:.4f} q3={s['q3']:.4f} spread={s['spread']:.4f}"
                  + (f" bound={bound} ({s['spread'] / bound:.2f} of it)"
                     if bound else ""), flush=True)
    out["environment"] = runs[names[-1]][-1]["environment"]
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
