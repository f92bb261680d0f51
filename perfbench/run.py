"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; torusque is imported from `src/`.
Every sweep and every set-up measurement runs in a fresh child process
(child.py), one at a time: a closed loop with one caller and no threads
beyond BLAS's.  The seed reaches the program only as `SweepConfig.seed`.

--trace 0  Set-up is measured in SETUP_RUNS processes that stop after it.
           Sweeps then repeat while the next one is expected to end inside
           the `--seconds` window, and always at least once.  Prints the
           end-to-end metrics: medians of `sweep_s`, `setup_s` and
           `peak_rss_mb`.
--trace 1  One traced sweep; prints the per-layer metrics and
           `trace.overhead_s`, the wrappers' measured per-call cost times the
           number of wrapped calls.  (The difference between a traced and an
           untraced sweep is smaller than the run-to-run drift on a shared
           2-vCPU VM, and a second n2-split sweep would not fit in the
           run limit.)

A child still running RUN_LIMIT_S after the run started is killed, so a run
ends within three minutes.  Every report is checked against
reference/<workload>.json (gate.py).  The last line of standard output is
`{"correct", "attempted", "failed", "metrics"}`; the line before it holds the
run's environment.  Without `src/torusque` the run exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench")

SETUP_RUNS = 3
TOP_LAYERS = 12
RUN_LIMIT_S = 170.0      # every child of a run ends by then

E2E_METRICS = {"sweep_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

CHECKS = ("relations", "egorov", "multiplicativity", "decomposition", "bound",
          "refined", "trace-formula", "factorization", "demo")

# per-layer metric -> unit; "<module>.<function>.s" is self time and
# ".calls" a call count, both from tracer.py; the rest are named below
LAYER_METRICS = {
    "weil.schur_intertwiner.s": "s",
    "weil.schur_intertwiner.calls": "count",
    "weil.linearize_on_torus.s": "s",
    "weil.word_operator.s": "s",
    "weil.word_operator.calls": "count",
    "weil.egorov_deviation.s": "s",
    "weil.egorov_deviation.calls": "count",
    "weil.solve_gamma.s": "s",
    "heisenberg.pi_op.calls": "count",
    "heisenberg.check_relations.s": "s",
    "heisenberg.relation_pairs": "count",
    "quevaluator.build_trace_table.s": "s",
    "quevaluator.trace_table_cells": "count",
    "quevaluator.character_sum_table.s": "s",
    "quevaluator.verify_que_bound.s": "s",
    "quevaluator.refined_bound.s": "s",
    "quevaluator.factorization_check.s": "s",
    "quevaluator.trace_pair.s": "s",
    "quevaluator.trace_pair.calls": "count",
    "quevaluator.split_trace_formula.calls": "count",
    "hecke.decompose.s": "s",
    "hecke.character_table.s": "s",
    "hecke.character_table.calls": "count",
    "hecke.centralizer.s": "s",
    "hecke.centralizer.rss_growth_mb": "MB",
    "hecke.torus_elements": "count",
    "ffcore.mat_mul.calls": "count",
    "classical.validate_ergodic.s": "s",
    "cli.run_prime.max_s": "s",
    "cli.run.self_s": "s",
    **{f"cli.check.{name}.s": "s" for name in CHECKS},
    "cli.check.errors": "count",
    "trace.overhead_s": "s",
}


def spawn(workload: str, seed: int, sweep: bool = False, trace: bool = False,
          out_json: str | None = None, deadline: float | None = None) -> dict:
    """Run child.py to completion and return its JSON line (or a failure).

    A child still running at `deadline` (a `time.monotonic()` value) is
    killed and waited for.
    """
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed)]
    if sweep:
        cmd += ["--sweep", "--out-json", out_json]
    if trace:
        cmd.append("--trace")
    now = time.monotonic()
    timeout = RUN_LIMIT_S if deadline is None else deadline - now
    if timeout <= 0:
        return {"failure": f"no time left in the {RUN_LIMIT_S} s run limit"}
    cmd += ["--t0", repr(now)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"failure": f"child killed at the {RUN_LIMIT_S} s run limit"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"failure": f"child exit {proc.returncode}: {proc.stderr.strip()[-400:]}"}
    return json.loads(lines[-1])


def layer_metrics(traced: dict) -> dict:
    stats = traced["trace"]["stats"]

    def stat(name, i):
        return stats.get(name, [0, 0.0, 0.0, 0.0])[i]

    out = {}
    for name in LAYER_METRICS:
        if name.endswith(".calls"):
            out[name] = stat(name[:-len(".calls")], 0)
        elif name.startswith("cli.check."):
            check = name[len("cli.check."):-len(".s")]
            out[name] = (traced.get("check_errors", 0) if check == "errors" else
                         traced.get("check_millis", {}).get(check, 0) / 1000.0)
        elif name in traced["trace"]["counts"]:
            out[name] = traced["trace"]["counts"][name]
        elif name.endswith(".s"):
            out[name] = stat(name[:-len(".s")], 2)
    out["cli.run_prime.max_s"] = stat("cli.run_prime", 3)
    out["cli.run.self_s"] = stat("cli.run", 2)
    out["trace.overhead_s"] = traced["trace"]["overhead_s"]
    return out


def environment() -> dict:
    import numpy as np
    src = os.path.join(ROOT, "src", "torusque")
    loc = 0
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        with open(path) as fh:
            loc += sum(1 for _ in fh)
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:         # no git on PATH
            pass
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads(), "git_commit": commit,
            "src_loc": loc}


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, asked through its own API."""
    import ctypes
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "torusque", "cli.py")):
        print("no torusque sources under src/: run from a source checkout",
              file=sys.stderr)
        return 2
    import gate
    from child import load_workloads
    if args.workload not in load_workloads():
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference", f"{args.workload}.json")) as fh:
        reference = json.load(fh)["gated"]

    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(SCRATCH, exist_ok=True)
    out_json = os.path.join(SCRATCH, f"report-{os.getpid()}.json")
    attempted = failed = 0
    problems: list[str] = []

    def sweep(trace=False):
        nonlocal attempted, failed
        res = spawn(args.workload, args.seed, sweep=True, trace=trace,
                    out_json=out_json, deadline=deadline)
        a, f, why = gate.compare(reference, res.get("gated"))
        attempted += a
        failed += f
        problems.extend(why + ([res["failure"]] if "failure" in res else []))
        if res.get("error"):
            problems.append(f"sweep raised {res['error']}")
        if res.get("rc") not in (0, 1):
            problems.append(f"sweep exit code {res.get('rc')}")
        return res

    try:
        if args.trace:
            traced = sweep(trace=True)
            if "trace" in traced:
                metrics = layer_metrics(traced)
                if traced["trace"]["leftover"]:
                    problems.append(f"wrappers left: {traced['trace']['leftover']}")
            else:
                metrics = {}
        else:
            setups = [spawn(args.workload, args.seed, deadline=deadline).get("setup_s")
                      for _ in range(SETUP_RUNS)]
            sweeps = []
            start = time.monotonic()
            while True:
                sweeps.append(sweep())
                last = sweeps[-1].get("sweep_s", 0.0)
                if time.monotonic() - start + last > args.seconds:
                    break
            setups += [s.get("setup_s") for s in sweeps]
            done = [s for s in sweeps if "sweep_s" in s]
            metrics = {}
            if done and all(s is not None for s in setups):
                metrics = {
                    "sweep_s": statistics.median(s["sweep_s"] for s in done),
                    "setup_s": statistics.median(setups),
                    "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in done),
                }
    finally:
        if os.path.exists(out_json):
            os.remove(out_json)

    wanted = LAYER_METRICS if args.trace else E2E_METRICS
    correct = failed == 0 and not problems and set(metrics) >= set(wanted)
    summary = " ".join(f"{k}={metrics[k]:.4f}" for k in E2E_METRICS if k in metrics)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"{summary} failed_share={failed / max(attempted, 1):.4f} "
          f"({failed}/{attempted})")
    for line in problems[:20]:
        print(f"  gate: {line}")
    if args.trace and "trace" in traced:
        top = sorted(traced["trace"]["stats"].items(), key=lambda kv: -kv[1][2])
        for name, (calls, total, self_s, _) in top[:TOP_LAYERS]:
            print(f"  {name:<36} self={self_s:9.3f} s  total={total:9.3f} s  "
                  f"calls={calls}")
    print(json.dumps({"environment": environment()}))
    print(json.dumps({
        "correct": correct, "attempted": max(attempted, 1), "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": wanted[k]}
                    for k in wanted if k in metrics}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
