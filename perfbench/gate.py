"""Reference-verdict gate: the seed-independent outputs of a sweep report.

`extract` reduces a `torusque sweep` JSON report to the fields that must not
change with the seed or between commits:

- per prime: `split_type`, `torus_order`, every check `status`, bound
  `max_ratio` and (at n = 1) `max_ratio_dim1`, decomposition `dims_sorted`,
  and the factorization pair counts;
- per sweep: the measured `conventions` and the degenerate primes skipped.

At n = 2 the character labels follow the root and intertwiner choice: the
seed twists rho by one of the |T| torus characters.  Outputs that pair a
character label with something else then depend on the seed, so they are
recorded by `seed_dependent` and never gated:

- refined `max_ratio`, and the refined verdict itself: at p = 13 exactly one
  of the 144 twists passes (measured by twisting one trace table), so the
  gate asks only that refined produced a verdict;
- bound `max_ratio_dim1` (20.31 at seeds 0 and 1, 12.79 at seed 2, p = 13);
- the labels in decomposition witnesses;
- the bound's `exceptional_order2.max_abs_sum`.

An operation is the sweep header, one per-prime construction, or one
(prime, check) entry.  It fails when it raised (an `error` witness), was
skipped for budget, is missing from the report, or differs from the
reference.  A check whose status is `fail` and matches the reference is a
correct result.
"""

from __future__ import annotations

import math

RTOL = 1e-7          # bound ratios: relative
ATOL = 1e-9          # measured Fourier normalization: absolute

FACTORIZATION_COUNTS = ("generic_pairs", "matched_generic", "matched_all", "total")


def _witness_value(check: dict, key: str):
    for w in check["witnesses"]:
        if isinstance(w, dict) and key in w:
            return w[key]
    return None


def _gated_check(check: dict, n: int) -> dict:
    out = {"status": check["status"]}
    name = check["name"]
    if name == "refined" and n > 1 and check["status"] in ("pass", "fail"):
        out["status"] = "verdict"
    elif name == "bound":
        out["max_ratio"] = check["max_ratio"]
        if n == 1:
            out["max_ratio_dim1"] = _witness_value(check, "max_ratio_dim1")
    elif name == "decomposition":
        out["dims_sorted"] = _witness_value(check, "dims_sorted")
    elif name == "factorization" and check["status"] != "skip":
        out["pairs"] = {k: _witness_value(check, k) for k in FACTORIZATION_COUNTS}
    return out


def _failure_flag(check: dict) -> str | None:
    if _witness_value(check, "error") is not None:
        return "raised: " + str(_witness_value(check, "error"))
    if check["status"] == "skip" and \
            _witness_value(check, "reason") == "budget exceeded":
        return "skipped for budget"
    return None


def extract(report: dict) -> dict:
    """Gated projection of a report, plus the per-check failure flags."""
    primes = {}
    n = report["meta"]["n"]
    for rp in report["primes"]:
        primes[str(rp["p"])] = {
            "split_type": rp["split_type"],
            "torus_order": rp["torus_order"],
            "checks": {c["name"]: _gated_check(c, n) for c in rp["checks"]},
            "flags": {c["name"]: flag for c in rp["checks"]
                      if (flag := _failure_flag(c)) is not None},
        }
    return {"header": {"conventions": report["meta"]["conventions"],
                       "skipped": [sk["p"] for sk in report["skipped"]]},
            "primes": primes}


def seed_dependent(report: dict) -> dict:
    """Outputs recorded for information only (they follow the seed at n = 2)."""
    out = {}
    for rp in report["primes"]:
        row = {}
        for c in rp["checks"]:
            if c["name"] == "refined" and c["status"] != "skip":
                row["refined"] = [c["status"], c["max_ratio"]]
            elif c["name"] == "bound":
                row["max_ratio_dim1"] = _witness_value(c, "max_ratio_dim1")
                exc = _witness_value(c, "exceptional_order2")
                if exc:
                    row["exceptional_order2_max_abs_sum"] = exc.get("max_abs_sum")
            elif c["name"] == "decomposition":
                row["decomposition_labels"] = [w["exps"] for w in c["witnesses"]
                                               if "exps" in w]
        if row:
            out[str(rp["p"])] = row
    return out


def _same(ref, got) -> bool:
    if isinstance(ref, float) or isinstance(got, float):
        if not isinstance(ref, (int, float)) or not isinstance(got, (int, float)):
            return False
        return math.isclose(ref, got, rel_tol=RTOL, abs_tol=ATOL)
    if isinstance(ref, dict) and isinstance(got, dict):
        return ref.keys() == got.keys() and all(_same(ref[k], got[k]) for k in ref)
    if isinstance(ref, list) and isinstance(got, list):
        return len(ref) == len(got) and all(_same(a, b) for a, b in zip(ref, got))
    return ref == got


def compare(ref: dict, got: dict | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) of `got` (an `extract` result or None)."""
    attempted = 1 + sum(1 + len(rp["checks"]) for rp in ref["primes"].values())
    if got is None:
        return attempted, attempted, ["no report"]
    failed, reasons = 0, []
    if not _same(ref["header"], got["header"]):
        failed += 1
        reasons.append(f"header: {got['header']} != {ref['header']}")
    for p, rp in ref["primes"].items():
        gp = got["primes"].get(p)
        if gp is None:
            failed += 1 + len(rp["checks"])
            reasons.append(f"p={p}: missing")
            continue
        if (gp["split_type"], gp["torus_order"]) != (rp["split_type"], rp["torus_order"]):
            failed += 1
            reasons.append(f"p={p}: torus {gp['split_type']}/{gp['torus_order']}")
        for name, rc in rp["checks"].items():
            gc = gp["checks"].get(name)
            flag = gp["flags"].get(name)
            if gc is None or flag is not None or not _same(rc, gc):
                failed += 1
                reasons.append(f"p={p} {name}: {flag or gc}")
    extra = set(got["primes"]) - set(ref["primes"])
    if extra:
        failed += len(extra)
        attempted += len(extra)
        reasons.append(f"unexpected primes {sorted(extra, key=int)}")
    return attempted, failed, reasons
