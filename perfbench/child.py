"""One fresh process: set-up, then at most one sweep, reported as one JSON line.

    python3 perfbench/child.py --workload NAME --seed N --t0 MONOTONIC
                               [--sweep] [--trace]

`--t0` is the parent's `time.monotonic()` just before it started this
process; CLOCK_MONOTONIC is shared by all processes, so `setup_s` covers
interpreter start, importing torusque, `build_config` and
`classical.validate_ergodic`.  With `--sweep` the process then runs
`cli.run(SweepConfig)`, the code path of `torusque sweep`, and `sweep_s` is
its wall time; `--trace` wraps every public torusque function first (see
tracer.py) and estimates what the wrappers cost: their measured per-call
cost times the number of wrapped calls.  Each sweep needs its own process: peak RSS is a high-water mark
and `ffcore.cyclotomic` is cached for the life of the process.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_workloads() -> dict:
    """Workload name -> its `SweepConfig` fields (see README.md for the why)."""
    with open(os.path.join(HERE, "workloads.json")) as fh:
        return json.load(fh)


def sweep_overrides(workload: str, seed: int, out_json: str | None) -> dict:
    """`build_config` overrides for a workload: its config plus the seed."""
    return dict(load_workloads()[workload], seed=seed, out_json=out_json)


def run_sweep(cli, cfg, tracer=None) -> dict:
    """Run one sweep in this process; return timings, RSS and the report."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            try:
                rc = cli.run(cfg)
            except Exception as e:  # noqa: BLE001 - an escaped error is a result
                rc, error = None, f"{type(e).__name__}: {e}"
            else:
                error = None
            sweep_s = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.remove()
    report = None
    if error is None and rc in (0, 1):
        with open(cfg.out_json) as fh:
            report = json.load(fh)
    return {"rc": rc, "error": error, "sweep_s": sweep_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "report": report}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--sweep", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out-json")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import torusque  # noqa: F401 - part of the measured set-up
    from torusque import classical, cli

    cfg = cli.build_config({}, sweep_overrides(args.workload, args.seed,
                                               args.out_json))
    classical.validate_ergodic(cli.parse_matrix(cfg.matrix, cfg.n))
    out = {"setup_s": time.monotonic() - args.t0}

    if args.sweep:
        # imported after set-up is measured; the script's directory is on sys.path
        import gate
        from tracer import Tracer
        tracer = Tracer() if args.trace else None
        res = run_sweep(cli, cfg, tracer)
        report = res.pop("report")
        out.update(res)
        if report is not None:
            out["gated"] = gate.extract(report)
            out["seed_dependent"] = gate.seed_dependent(report)
            millis, errors = {}, 0
            for rp in report["primes"]:
                for c in rp["checks"]:
                    millis[c["name"]] = millis.get(c["name"], 0) + c["millis"]
                    errors += any("error" in w for w in c["witnesses"]
                                  if isinstance(w, dict))
            out["check_millis"] = millis
            out["check_errors"] = errors
        if tracer is not None:
            calls = sum(stat[0] for stat in tracer.stats.values())
            out["trace"] = {"stats": tracer.stats, "counts": tracer.counts,
                            "leftover": tracer.leftover_wrappers(),
                            "overhead_s": calls * Tracer().wrapper_cost()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
