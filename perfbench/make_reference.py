"""Write reference/<workload>.json from sweeps at two seeds.

    python3 perfbench/make_reference.py [WORKLOAD ...]

The gated projection (gate.extract) must be identical at seeds 0 and 1, or
nothing is written.  The seed-dependent outputs of both seeds are stored
alongside for information.  Regenerate a reference only when a change is
meant to alter what the sweep computes, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
from child import load_workloads  # noqa: E402
from run import SCRATCH, spawn  # noqa: E402

SEEDS = (0, 1)


def main(argv: list[str]) -> int:
    workloads = load_workloads()
    os.makedirs(SCRATCH, exist_ok=True)
    out_json = os.path.join(SCRATCH, f"reference-{os.getpid()}.json")
    status = 0
    for name in argv or list(workloads):
        runs = {seed: spawn(name, seed, sweep=True, out_json=out_json)
                for seed in SEEDS}
        gated = [runs[s].get("gated") for s in SEEDS]
        if gated[0] is None or gate.compare(gated[0], gated[0])[1] \
                or gate.compare(gated[0], gated[1])[1]:
            print(f"{name}: an operation raised or was skipped for budget, or "
                  "the gated outputs differ between seeds; reference not "
                  "written", file=sys.stderr)
            status = 1
            continue
        path = os.path.join(HERE, "reference", f"{name}.json")
        with open(path, "w") as fh:
            json.dump({"workload": name, "config": workloads[name],
                       "gated": gated[0],
                       "seed_dependent": {str(s): runs[s]["seed_dependent"]
                                          for s in SEEDS}},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{name}: wrote {path}")
    if os.path.exists(out_json):
        os.remove(out_json)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
