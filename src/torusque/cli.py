"""Batch front-end: configuration, check dispatch, report emission, plot data.

Verbs:
    validate   check a matrix for ergodicity, print the verdict
    quantize   quantize a trigonometric polynomial, print operator facts
    sweep      run the enabled checks over a prime range, emit JSON + CSV
    demo       cyclic vs torus averaging table for one prime
    plotdata   reduce sweep JSON reports to a plotting CSV

Configuration is plain key=value lines (see SweepConfig.FIELDS) with
command-line flags overriding file values.  Exit codes: 0 all checks passed,
1 at least one assertion failed (witnesses in the JSON), 2 configuration
error.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import ffcore, hecke, quevaluator, weil
from .classical import (CAT_MAP, SP4_FIXTURE, ErgodicElement, ValidationError,
                        sp_group_order, validate_ergodic)
from .ffcore import PrimeModulus
from .heisenberg import (BudgetExceeded, FourierPolynomial, check_relations,
                         integral, quantize)

ALL_CHECKS = ("relations", "egorov", "multiplicativity", "decomposition",
              "bound", "refined", "trace-formula", "factorization", "demo")


class ConfigError(ValueError):
    pass


@dataclass
class SweepConfig:
    n: int = 1
    matrix: str = "2,1;1,1"
    pmin: int = 3
    pmax: int = 13
    checks: tuple = ALL_CHECKS
    seed: int = 0
    deterministic: bool = False
    out_json: str | None = None
    out_csv: str | None = None
    budget_seconds: float = 600.0

    FIELDS = ("n", "matrix", "pmin", "pmax", "checks", "seed", "deterministic",
              "out_json", "out_csv", "budget_seconds")


def parse_matrix(text: str, n: int):
    """'a,b;c,d' rows, or the named fixtures 'cat-map' / 'auto-sp4'; either
    must be 2n x 2n."""
    fixtures = {"cat-map": CAT_MAP, "auto-sp4": SP4_FIXTURE}
    try:
        rows = fixtures.get(text) or tuple(tuple(int(x) for x in row.split(","))
                                           for row in text.strip().split(";"))
    except ValueError as e:
        raise ConfigError(f"cannot parse matrix {text!r}: {e}")
    if len(rows) != 2 * n or any(len(r) != 2 * n for r in rows):
        raise ConfigError(f"matrix must be {2*n}x{2*n} for n = {n}")
    return rows


def load_config_file(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"bad config line: {line!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def build_config(file_vals: dict, overrides: dict) -> SweepConfig:
    merged = dict(file_vals)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    cfg = SweepConfig()
    for key, val in merged.items():
        if key not in SweepConfig.FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        if key in ("n", "pmin", "pmax", "seed", "budget_seconds"):
            try:
                setattr(cfg, key, (float if key == "budget_seconds" else int)(val))
            except ValueError:
                raise ConfigError(f"{key} must be a number, got {val!r}") from None
        elif key == "deterministic":
            setattr(cfg, key, val if isinstance(val, bool) else
                    str(val).lower() in ("1", "true", "yes"))
        elif key == "checks":
            names = tuple(s.strip() for s in str(val).split(",") if s.strip()) \
                if val != "all" else ALL_CHECKS
            for name in names:
                if name not in ALL_CHECKS:
                    raise ConfigError(f"unknown check {name!r}")
            setattr(cfg, key, names)
        else:
            setattr(cfg, key, val)
    if cfg.n not in (1, 2):
        raise ConfigError("n must be 1 or 2")
    if cfg.pmin < 3 or cfg.pmax < cfg.pmin:
        raise ConfigError("need 3 <= pmin <= pmax")
    if not cfg.budget_seconds >= 0:         # nan compares false: no deadline would pass
        raise ConfigError(f"budget_seconds must be >= 0, got {cfg.budget_seconds}")
    return cfg


# ---------------------------------------------------------------------------
# per-prime execution


@dataclass
class CheckResult:
    name: str
    status: str          # "pass" | "fail" | "skip"
    max_dev: float = 0.0
    max_ratio: float = 0.0
    witnesses: list = field(default_factory=list)
    millis: int = 0

    def to_dict(self, deterministic: bool) -> dict:
        return {"name": self.name, "status": self.status,
                "max_dev": self.max_dev, "max_ratio": self.max_ratio,
                "witnesses": self.witnesses[:16],
                "millis": -1 if deterministic else self.millis}


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, int(1000 * (time.perf_counter() - t0))


def run_prime(elem: ErgodicElement, p: int, cfg: SweepConfig,
              conventions: dict) -> dict:
    """The prime's report.  If `conventions`, the report header's, is still
    empty, it is filled from this prime's rho after the prime's checks
    (`_conventions`), so that reading is charged to no check's budget."""
    n = cfg.n
    pm = PrimeModulus(p, n)
    results: list[CheckResult] = []
    start = time.perf_counter()
    try:
        ctx = quevaluator.PrimeContext.build(elem, pm,
                                             deadline=start + cfg.budget_seconds)
    except BudgetExceeded:          # the deadline passed while building the torus
        return _unbuilt_prime(p, cfg, [_budget_skip(name) for name in cfg.checks])
    except Exception as e:  # noqa: BLE001 - a failed prime, not a dead sweep
        return _failed_prime(p, cfg, e)
    # the sampling checks (egorov, multiplicativity) draw from it in check order
    rng = random.Random(cfg.seed + p)

    for name in cfg.checks:
        if time.perf_counter() > ctx.deadline:
            results.append(_budget_skip(name))
            continue
        runner = _CHECK_RUNNERS[name]
        try:
            res, ms = _timed(lambda: runner(ctx, rng))
            res.millis = ms
        except BudgetExceeded:      # the deadline passed mid-check
            res = _budget_skip(name)
        except Exception as e:  # noqa: BLE001 - report, do not crash the sweep
            res = CheckResult(name, "fail",
                              witnesses=[{"error": f"{type(e).__name__}: {e}"}])
        results.append(res)
    if not conventions:
        conventions.update(_conventions(ctx))

    # routes counts the dense operators the context keeps: none, as the
    # decomposition reads rho of the torus generators one at a time
    return {"p": p, "n": n, "split_type": ctx.torus.split_type,
            "torus_order": ctx.torus.order, "routes": {},
            "checks": [r.to_dict(cfg.deterministic) for r in results]}


def _conventions(ctx) -> dict:
    """Orientation signs and, at n = 1, the Fourier normalization, read from
    the context's rho; no other rho is built.

    The relation sign is read from the one pair that fixes it; the per-prime
    `relations` check validates the pairs that prove the whole grid.  The
    trace-formula sign is the -1 of `quevaluator.TraceFormula`, once it
    matches the matrix trace at xi = (1, 1), B = diag(2, 1/2), which tells
    the orientations apart at every p > 3.  A defect that keeps them
    from being read is recorded once, as the header's `error`; the prime's
    own checks report it where it belongs.
    """
    try:
        out = {"relation_sign": check_relations(ctx.pm, exhaustive=False).epsilon}
        if ctx.pm.n == 1:
            diag = ((2, 0), (0, ctx.pm.nu))
            op = next(ctx.rep.build_chunks([diag]))[0]
            if abs(quevaluator.TraceFormula([diag], ctx.pm)(np.array([1 + ctx.pm.p]))[0, 0]
                   - quevaluator.trace_pair((1, 1), op, ctx.pm)) > 1e-9:
                raise RuntimeError("closed-form diagonal trace does not match the matrix trace")
            out["trace_formula_sign"] = -1
            out["fourier_normalization"] = {"re": ctx.rep.gamma.real,
                                            "im": ctx.rep.gamma.imag}
    except Exception as e:  # noqa: BLE001 - a header defect, not a dead sweep
        return {"error": f"{type(e).__name__}: {e}"}
    return out


def _budget_skip(name: str) -> CheckResult:
    return CheckResult(name, "skip", witnesses=[{"reason": "budget exceeded"}])


def _failed_prime(p: int, cfg: SweepConfig, err: Exception) -> dict:
    """Prime entry for a torus or representation that could not be built."""
    check = CheckResult("construction", "fail",
                        witnesses=[{"error": f"{type(err).__name__}: {err}"}])
    return _unbuilt_prime(p, cfg, [check])


def _unbuilt_prime(p: int, cfg: SweepConfig, checks: list) -> dict:
    """Prime entry with no torus: split_type and torus_order null."""
    return {"p": p, "n": cfg.n, "split_type": None, "torus_order": None,
            "routes": {}, "checks": [c.to_dict(cfg.deterministic) for c in checks]}


def _check_relations(ctx, rng):
    rpt = check_relations(ctx.pm, deadline=ctx.deadline)
    return CheckResult("relations", "pass" if rpt.ok else "fail",
                       max_dev=rpt.max_dev,
                       witnesses=[] if rpt.ok else [{"epsilon": rpt.epsilon}])


def _check_egorov(ctx, rng):
    """rho(B) T(xi) = T(B xi) rho(B) at the 2n unit vectors xi, for the torus
    generators g_i, 25 random_sp samples and 5 products of them, on a probe
    block X of weil.PROBE_COLUMNS i.i.d. standard complex Gaussian columns,
    seeded with rng.getrandbits(63) after the samples; rng is the prime's
    random.Random, shared with the multiplicativity check in check order.
    Both sides come from one rep.apply_many of the stacked block
    (`weil.egorov_on_probe`), so no rho(B) is formed; the elements go one
    apply batch at a time, so one batch's images of the block are alive.

    max_dev is the per-probe deviation max |M X| over the elements and unit
    vectors, M = rho(B) T(e_j) - T(B e_j) rho(B).  If it passes tol = 1e-8,
    every entry of every M is below C except with probability at most
    (tol/C)^(2r) over X, r = PROBE_COLUMNS (`weil` module docs; 1e-16 for
    C = 1e-6 and r = 4).  With what the `relations` and `multiplicativity`
    checks certify, this proves the identity for every B in T at every xi.
    Write xi = sum_j c_j e_j with 0 <= c_j < p.  By the relation T(xi) T(eta)
    = psi(eps nu omega(xi, eta)) T(xi + eta), T(xi) is a phase times a
    product of sum_j c_j <= 2n(p - 1) unit translations, and T(B xi) is the
    same phase times the product of their images, as B preserves omega.
    Conjugation by a unitary moves each factor by at most p^n C in operator
    norm (a p^n x p^n matrix has norm at most p^n times its largest entry).
    So, to first order, rho(g_i) deviates by at most 2n(p - 1) p^n C at any
    xi.  `certify_torus` holds rho(B) - prod_i rho(g_i)^e_i(B) to the same
    per-probe tol, so its entries are below C with the same probability.
    Then rho(B) for B in T deviates by at most |e(B)| 2n(p - 1) p^n C +
    2 p^n C at any xi, with |e(B)| = sum_i e_i(B).
    """
    pm, rep = ctx.pm, ctx.rep
    # the samples have an invertible upper-right block; a few products of
    # them also reach a zero and a singular nonzero one
    samples = weil.random_sp(pm, rng, 25)
    products = samples[:5] @ samples[5:10] % pm.p     # entries below 2n p^2
    gens = np.array([g for g, _ in ctx.torus.generators], dtype=np.int64)
    elements = np.concatenate([gens, samples, products])
    probe = weil.probe_block(pm, rng.getrandbits(63))
    step = weil.apply_length(pm, (2 * pm.n + 1) * weil.PROBE_COLUMNS)
    devs = np.concatenate([     # one apply batch of elements, and its stack, at a time
        weil.egorov_on_probe(lambda z, part=elements[lo:lo + step]:
                             rep.apply_many(part, z, ctx.deadline),
                             elements[lo:lo + step], pm, probe)
        for lo in range(0, len(elements), step)])
    worst = float(devs.max())
    ok = worst <= 1e-8
    witness = [] if ok else [{"B": tuple(map(tuple, elements[devs.argmax()].tolist())),
                              "dev": worst}]
    return CheckResult("egorov", "pass" if ok else "fail", max_dev=worst,
                       witnesses=witness)


# every pair of a group this small is checked (SL2(F_3), SL2(F_5)); larger
# groups get SAMPLED_PAIRS random pairs
EXHAUSTIVE_GROUP_ORDER = 120
SAMPLED_PAIRS = 500


def _check_multiplicativity(ctx, rng):
    """rho is a representation: group pairs (with the generator relations as
    pairs when sampled) and the torus certificate, both read on one probe
    block X of weil.PROBE_COLUMNS i.i.d. standard complex Gaussian columns,
    seeded with rng.getrandbits(63) after the pairs; rng is the prime's
    random.Random, shared with the egorov check in check order.  max_dev is
    the per-probe deviation max |M X| of the pair identities and of the torus
    identities rho(B) = prod_i R_i^e_i(B), R_i^m_i = I and R_i R_j = R_j R_i,
    R_i = rho(g_i), M = 0: an entry of M of modulus eps passes the tolerance
    tol with probability at most (tol/eps)^(2r), r = PROBE_COLUMNS (`weil`
    module docs).  No p^n x p^n operator is formed or read."""
    pm, rep = ctx.pm, ctx.rep
    pairs = None                                # every pair of the group
    if sp_group_order(pm.p, pm.n) > EXHAUSTIVE_GROUP_ORDER:
        draws = weil.random_sp(pm, rng, 2 * SAMPLED_PAIRS)
        # the exhaustive scan already holds every relation
        pairs = np.concatenate([draws.reshape(SAMPLED_PAIRS, 2, *draws.shape[1:]),
                                weil.relation_pairs(pm, rng)])
    probe = weil.probe_block(pm, rng.getrandbits(63))
    # the exhaustive pair scan is held to 1e-9, everything else to 1e-8
    rpt = weil.check_multiplicativity(rep, pairs, tol=1e-9 if pairs is None else 1e-8,
                                      deadline=ctx.deadline, probe=probe)
    dev = max(rpt.max_dev, weil.certify_torus(rep, ctx.torus, ctx.deadline, probe))
    ok = rpt.ok and dev <= 1e-8
    return CheckResult("multiplicativity", "pass" if ok else "fail", max_dev=dev)


def _check_decomposition(ctx, rng):
    """The eigenbasis dims by the documented rule and against `PrimeContext.dims`."""
    dec = ctx.decomposition
    dims = dec.dims
    chis = ctx.chis
    ok = sum(dims) == ctx.pm.dim and dims == ctx.dims
    witnesses = [] if dims == ctx.dims else [{"formula_dims": ctx.dims}]
    for chi, d in zip(chis, dims):
        if d > 1 and chi.order != 2:
            ok = False
            witnesses.append({"exps": chi.exps, "dim": d})
    exceptional = [(chi.exps, d) for chi, d in zip(chis, dims)
                   if d != 1 and chi.order == 2]
    return CheckResult("decomposition", "pass" if ok else "fail",
                       max_dev=dec.max_eigen_dev,
                       witnesses=witnesses + [{"order2_pattern": exceptional,
                                               "dims_sorted": sorted(dims)}])


def _check_bound(ctx, rng):
    rpt = quevaluator.verify_que_bound(ctx)
    witnesses = [{"xi": v[0], "chi_exps": v[1], "abs_a": v[2], "bound": v[3]}
                 for v in rpt.violations[:8]]
    witnesses.append({"max_ratio_dim1": rpt.max_ratio_dim1,
                      "exceptional_order2": rpt.exceptional_order2,
                      "parseval_max_dev": rpt.parseval_max_dev})
    return CheckResult("bound", "pass" if rpt.ok else "fail",
                       max_ratio=rpt.max_ratio, witnesses=witnesses)


def _check_refined(ctx, rng):
    rpt = quevaluator.refined_bound(ctx)
    if not rpt.applicable:
        return CheckResult("refined", "skip",
                           witnesses=[{"reason": f"{ctx.torus.split_type} prime"}])
    bad = [r for r in rpt.rows if not r["ok"]]
    return CheckResult("refined", "pass" if rpt.generic_ok else "fail",
                       max_ratio=max((r["generic_max"] / r["refined_bound"]
                                      for r in rpt.rows), default=0.0),
                       witnesses=bad[:8])


def _check_trace_formula(ctx, rng):
    worst = quevaluator.trace_formula_deviation(ctx)
    ok = worst <= 1e-10
    return CheckResult("trace-formula", "pass" if ok else "fail", max_dev=worst,
                       witnesses=[{"sign": -1}])


def _check_factorization(ctx, rng):
    if ctx.pm.n != 2 or ctx.torus.split_type != "split":
        return CheckResult("factorization", "skip",
                           witnesses=[{"reason": "needs a fully split n = 2 prime"}])
    rpt = quevaluator.factorization_check(ctx)
    return CheckResult("factorization", "pass" if rpt.ok else "fail",
                       max_dev=rpt.max_rel_err,
                       witnesses=[{"generic_pairs": rpt.generic_pairs,
                                   "matched_generic": rpt.matched_generic,
                                   "matched_all": rpt.matched_all_reconciled,
                                   "total": rpt.pairs_total}])


def _check_demo(ctx, rng):
    rows, meta = quevaluator.cyclic_vs_hecke_demo(ctx)
    ok = all(r.hecke_ok for r in rows)
    return CheckResult("demo", "pass" if ok else "fail",
                       witnesses=[{"cyclic_order": meta["cyclic_order"],
                                   "torus_order": meta["torus_order"],
                                   "coincide": meta["cyclic_equals_torus"]}])


_CHECK_RUNNERS = {
    "relations": _check_relations,
    "egorov": _check_egorov,
    "multiplicativity": _check_multiplicativity,
    "decomposition": _check_decomposition,
    "bound": _check_bound,
    "refined": _check_refined,
    "trace-formula": _check_trace_formula,
    "factorization": _check_factorization,
    "demo": _check_demo,
}


# ---------------------------------------------------------------------------
# sweep driver and report emission


def run(cfg: SweepConfig) -> int:
    try:
        matrix = parse_matrix(cfg.matrix, cfg.n)
        elem = validate_ergodic(matrix)
    except (ConfigError, ValidationError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    primes = ffcore.odd_primes(cfg.pmin, cfg.pmax)
    prime_reports = []
    skipped = []
    conventions = {}                    # filled at the first prime built
    for p in primes:
        cp_mod = ffcore.poly_mod_reduce(elem.charpoly, p)
        if hecke.is_degenerate_prime(cp_mod, p):
            skipped.append({"p": p, "reason": "degenerate prime"})
            continue
        prime_reports.append(run_prime(elem, p, cfg, conventions))

    status_fail = any(c["status"] == "fail"
                      for rp in prime_reports for c in rp["checks"])
    report = {
        "meta": {
            "n": cfg.n, "matrix": list(map(list, elem.matrix)),
            "charpoly": list(elem.charpoly),
            "pmin": cfg.pmin, "pmax": cfg.pmax,
            "checks": list(cfg.checks), "seed": cfg.seed,
            "deterministic": cfg.deterministic,
            "conventions": conventions,
        },
        "primes": prime_reports,
        "skipped": skipped,
        "all_passed": not status_fail,
    }
    if cfg.out_json:
        with open(cfg.out_json, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True, default=_json_default)
            fh.write("\n")
    if cfg.out_csv:
        write_csv_summary(report, cfg.out_csv)
    for rp in prime_reports:
        for c in rp["checks"]:
            print(f"p={rp['p']:3d} {c['name']:<16} {c['status']:<5} "
                  f"max_dev={c['max_dev']:.3e} max_ratio={c['max_ratio']:.4f}")
            if c["status"] == "fail":
                for w in c["witnesses"][:4]:
                    print(f"      witness: {w}")
    for sk in skipped:
        print(f"p={sk['p']:3d} skipped: {sk['reason']}")
    return 1 if status_fail else 0


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_csv_summary(report: dict, path: str):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["p", "check", "status", "max_dev", "max_ratio", "millis"])
        for rp in report["primes"]:
            for c in rp["checks"]:
                w.writerow([rp["p"], c["name"], c["status"],
                            f"{c['max_dev']:.12e}", f"{c['max_ratio']:.12f}",
                            c["millis"]])


def emit_plotdata(report_paths: list[str], out_path: str):
    """CSV of (p, max |a_chi|/p^{n/2}, 2^n) rows across sweep reports, one per bound
    check not skipped nor failed with an `error`; a non-report is a ConfigError."""
    rows = []
    for path in report_paths:
        with open(path) as fh:
            try:
                rpt = json.load(fh)
                n, primes = rpt["meta"]["n"], rpt["primes"]
            except (ValueError, KeyError, TypeError) as e:
                raise ConfigError(f"{path} is not a sweep report: {e!r}") from e
        rows += [(prp["p"], c["max_ratio"], 2 ** n) for prp in primes for c in prp["checks"]
                 if c["name"] == "bound" and c["status"] != "skip"
                 and not any("error" in w for w in c["witnesses"])]
    rows.sort()
    with open(out_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["p", "max_ratio", "bound_constant"])
        for r in rows:
            w.writerow(r)
    return len(rows)


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="torusque")
    sub = parser.add_subparsers(dest="verb", required=True)

    pv = sub.add_parser("validate", help="check a matrix for ergodicity")
    pv.add_argument("--n", type=int, default=1)
    pv.add_argument("--matrix", default="2,1;1,1")

    pq = sub.add_parser("quantize", help="quantize a trigonometric polynomial")
    pq.add_argument("--p", type=int, required=True)
    pq.add_argument("--n", type=int, default=1)
    pq.add_argument("--terms", required=True,
                    help="semicolon list 'c1,...,c2n:re[,im]'")

    ps = sub.add_parser("sweep", help="run checks over a prime range")
    ps.add_argument("--config")
    ps.add_argument("--n", type=int)
    ps.add_argument("--matrix")
    ps.add_argument("--pmin", type=int)
    ps.add_argument("--pmax", type=int)
    ps.add_argument("--checks")
    ps.add_argument("--seed", type=int)
    ps.add_argument("--deterministic", action="store_const", const=True)
    ps.add_argument("--out-json", dest="out_json")
    ps.add_argument("--out-csv", dest="out_csv")
    ps.add_argument("--budget-seconds", dest="budget_seconds", type=float)

    pd = sub.add_parser("demo", help="cyclic vs torus averaging table")
    pd.add_argument("--p", type=int, required=True)
    pd.add_argument("--n", type=int, default=1)
    pd.add_argument("--matrix", default="2,1;1,1")

    pp = sub.add_parser("plotdata", help="reduce sweep reports to plot CSV")
    pp.add_argument("--reports", nargs="+", required=True)
    pp.add_argument("--out", required=True)

    args = parser.parse_args(argv)

    if args.verb == "validate":
        from .classical import try_validate
        try:
            elem, verdict = try_validate(parse_matrix(args.matrix, args.n))
        except (ConfigError, ffcore.DegreeError) as e:
            print(f"config error: {e}", file=sys.stderr)
            return 2
        print(verdict)
        if elem is not None:
            print("charpoly:", ffcore.poly_str(elem.charpoly))
        return 0 if elem is not None else 2

    if args.verb == "quantize":
        return _quantize_verb(args)

    if args.verb == "sweep":
        try:
            file_vals = load_config_file(args.config) if args.config else {}
            overrides = {k: getattr(args, k) for k in SweepConfig.FIELDS}
            cfg = build_config(file_vals, overrides)
        except (ConfigError, OSError) as e:
            print(f"config error: {e}", file=sys.stderr)
            return 2
        return run(cfg)

    if args.verb == "demo":
        try:
            matrix = parse_matrix(args.matrix, args.n)
            elem = validate_ergodic(matrix)
            ctx = quevaluator.PrimeContext.build(elem, PrimeModulus(args.p, args.n))
        except (ConfigError, ValidationError, ValueError) as e:
            print(f"config error: {e}", file=sys.stderr)
            return 2
        rows, meta = quevaluator.cyclic_vs_hecke_demo(ctx)
        print(f"p={args.p} |<A>|={meta['cyclic_order']} |C_A|={meta['torus_order']}"
              f" bound={meta['bound']:.6f}")
        print(f"{'vector':>22} {'|cyclic avg|':>14} {'|torus avg|':>14} {'integral':>9}")
        for r in rows:
            print(f"{r.label:>22} {abs(r.cyclic_avg):>14.6f} "
                  f"{abs(r.hecke_avg):>14.6f} {r.integral:>9.1f}")
        return 0 if all(r.hecke_ok for r in rows) else 1

    if args.verb == "plotdata":
        try:
            count = emit_plotdata(args.reports, args.out)
        except (ConfigError, OSError) as e:
            print(f"config error: {e}", file=sys.stderr)
            return 2
        print(f"wrote {count} rows to {args.out}")
        return 0

    return 2


def _quantize_verb(args) -> int:
    try:
        pm = PrimeModulus(args.p, args.n)
        terms = {}
        for part in args.terms.split(";"):
            coeffs, val = part.split(":")
            key = tuple(int(x) for x in coeffs.split(","))
            if len(key) != 2 * args.n:
                raise ValueError(f"term {part!r} has wrong length")
            nums = [float(x) for x in val.split(",")]
            terms[key] = complex(nums[0], nums[1] if len(nums) > 1 else 0.0)
        f = FourierPolynomial(terms)
    except (ValueError, KeyError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    op = quantize(f, pm)
    tr = op.trace() / pm.dim
    a0 = integral(f)
    sa = float(np.abs(op - op.conj().T).max())
    print(f"dim = {pm.dim}")
    print(f"trace/dim = {tr:.12f}  coefficient at 0 = {a0:.12f}  "
          f"|diff| = {abs(tr - a0):.2e}")
    print(f"real-valued symbol: {f.is_real_valued()}  "
          f"self-adjointness deviation: {sa:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
