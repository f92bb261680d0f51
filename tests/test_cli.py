import csv
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import fields, replace

import numpy as np
import pytest

import torusque
from torusque import cli, hecke, heisenberg, weil
from torusque.ffcore import PrimeModulus
from torusque.quevaluator import PrimeContext

from oracles import build_many, egorov_deviation_loop, lattice_vectors, measure_split_sign


def run_cli(args):
    return cli.main(args)


def test_validate_verb(capsys):
    assert run_cli(["validate", "--matrix", "2,1;1,1"]) == 0
    assert "accepted" in capsys.readouterr().out
    assert run_cli(["validate", "--matrix", "1,0;0,1"]) == 2
    assert "root-of-unity" in capsys.readouterr().out


def test_validate_bad_matrix_exit2(capsys):
    assert run_cli(["validate", "--matrix", "1,2,3"]) == 2


def test_quantize_verb(capsys):
    rc = run_cli(["quantize", "--p", "7", "--terms", "1,0:0.5;-1,0:0.5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "real-valued symbol: True" in out
    assert "dim = 7" in out


def test_quantize_bad_terms_exit2(capsys):
    assert run_cli(["quantize", "--p", "7", "--terms", "1,0,0:1"]) == 2


def test_config_parsing(tmp_path, monkeypatch):
    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text("n = 1\npmin = 3\npmax = 7\nchecks = relations,bound\n"
                       "# comment\nseed = 42\n")
    cfg = cli.build_config(cli.load_config_file(str(cfgfile)), {})
    assert cfg.n == 1 and cfg.pmin == 3 and cfg.pmax == 7 and cfg.seed == 42
    assert cfg.checks == ("relations", "bound")
    # every field, none at its default, as a config-file line and as its flag
    text = {"n": "2", "matrix": "auto-sp4", "pmin": "5", "pmax": "11",
            "checks": "relations,bound", "seed": "42", "deterministic": "true",
            "out_json": str(tmp_path / "r.json"), "out_csv": str(tmp_path / "r.csv"),
            "budget_seconds": "2.5"}
    assert list(text) == [f.name for f in fields(cli.SweepConfig)]
    want = cli.SweepConfig(n=2, matrix="auto-sp4", pmin=5, pmax=11,
                           checks=("relations", "bound"), seed=42, deterministic=True,
                           out_json=text["out_json"], out_csv=text["out_csv"],
                           budget_seconds=2.5)
    assert all(getattr(want, k) != getattr(cli.SweepConfig(), k) for k in text)
    cfgfile.write_text("".join(f"{k} = {v}\n" for k, v in text.items()))
    seen = []
    monkeypatch.setattr(cli, "run", lambda cfg: seen.append(cfg) or 0)
    assert run_cli(["sweep", "--config", str(cfgfile)]) == 0
    flags = [a for k, v in text.items() if k != "deterministic"
             for a in ("--" + k.replace("_", "-"), v)]
    assert run_cli(["sweep", *flags, "--deterministic"]) == 0
    assert seen == [want, want]


def test_validate_beyond_degree_four_is_a_config_error(capsys):
    # an n = 3 element has a sextic characteristic polynomial, beyond the
    # exact irreducibility test
    matrix = ("4,1,-1,-1,-1,-1;2,3,0,-1,-1,0;2,0,1,-1,0,-1;"
              "-1,-1,-1,1,0,0;-1,-1,1,0,1,0;-1,1,1,0,0,1")
    assert run_cli(["validate", "--n", "3", "--matrix", matrix]) == 2
    assert "config error: exact irreducibility implemented for degree <= 4" \
        in capsys.readouterr().err


def test_config_rejects_unknown_key(tmp_path):
    with pytest.raises(cli.ConfigError):
        cli.build_config({"bogus": "1"}, {})
    with pytest.raises(cli.ConfigError):
        cli.build_config({"checks": "nope"}, {})
    with pytest.raises(cli.ConfigError):
        cli.build_config({"pmin": "9", "pmax": "3"}, {})


@pytest.mark.parametrize("key,value", [("pmin", "abc"), ("budget_seconds", "soon"),
                                       ("n", "two"), ("pmax", ""), ("seed", "1.5")])
def test_config_rejects_a_malformed_number(key, value, tmp_path, capsys):
    # every numeric field, from the file and from its flag, is one config error
    with pytest.raises(cli.ConfigError, match=key):
        cli.build_config({key: value}, {})
    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text(f"{key} = {value}\n")
    assert run_cli(["sweep", "--config", str(cfgfile)]) == 2
    assert f"config error: {key} must be a number" in capsys.readouterr().err
    assert run_cli(["sweep", f"--{key.replace('_', '-')}={value}"]) == 2
    assert capsys.readouterr().err == f"config error: {key} must be a number, got {value!r}\n"


@pytest.mark.parametrize("value", ["nan", "-1", "-inf"])
def test_budget_must_be_a_nonnegative_number(value, tmp_path, capsys):
    # every deadline comparison with nan is false: the sweep would have no
    # budget at all.  0 stays valid: it skips every check
    with pytest.raises(cli.ConfigError, match="budget_seconds must be >= 0"):
        cli.build_config({"budget_seconds": value}, {})
    assert run_cli(["sweep", "--pmin", "3", "--pmax", "3",
                    f"--budget-seconds={value}"]) == 2
    assert "config error: budget_seconds must be >= 0" in capsys.readouterr().err
    assert cli.build_config({"budget_seconds": "0"}, {}).budget_seconds == 0.0


def test_sweep_nonsymplectic_exit2(capsys, tmp_path):
    rc = run_cli(["sweep", "--matrix", "2,0;0,1", "--pmin", "3", "--pmax", "3"])
    assert rc == 2


def test_sweep_small_range(tmp_path, capsys):
    out_json = tmp_path / "report.json"
    out_csv = tmp_path / "report.csv"
    rc = run_cli(["sweep", "--pmin", "3", "--pmax", "7",
                  "--checks", "relations,decomposition,bound",
                  "--out-json", str(out_json), "--out-csv", str(out_csv)])
    assert rc == 0
    report = json.loads(out_json.read_text())
    assert report["all_passed"]
    assert [rp["p"] for rp in report["primes"]] == [3, 7]
    assert report["skipped"] == [{"p": 5, "reason": "degenerate prime"}]
    for rp in report["primes"]:
        assert set(rp) == {"p", "n", "split_type", "torus_order", "routes",
                           "checks"}
        for c in rp["checks"]:
            assert set(c) == {"name", "status", "max_dev", "max_ratio",
                              "witnesses", "millis"}
    with open(out_csv) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["p", "check", "status", "max_dev", "max_ratio", "millis"]
    assert len(rows) == 1 + 2 * 3


def test_sweep_split_prime_bound_fails(tmp_path):
    # the order-2 character defeats the literal bound at split primes
    out_json = tmp_path / "r.json"
    rc = run_cli(["sweep", "--pmin", "11", "--pmax", "11", "--checks",
                  "bound,refined", "--out-json", str(out_json)])
    assert rc == 1
    report = json.loads(out_json.read_text())
    checks = {c["name"]: c for c in report["primes"][0]["checks"]}
    assert checks["bound"]["status"] == "fail"
    assert checks["bound"]["witnesses"][0]["abs_a"] == pytest.approx(9.0)
    assert checks["refined"]["status"] == "pass"


def test_sweep_deterministic_byte_identical(tmp_path):
    paths = []
    for i in (0, 1):
        out = tmp_path / f"d{i}.json"
        rc = run_cli(["sweep", "--pmin", "3", "--pmax", "7",
                      "--checks", "relations,egorov,multiplicativity,bound",
                      "--seed", "7",
                      "--deterministic", "--out-json", str(out)])
        assert rc == 0
        paths.append(out.read_bytes())
    assert paths[0] == paths[1]


def test_plotdata(tmp_path, capsys):
    out_json = tmp_path / "report.json"
    rc = run_cli(["sweep", "--pmin", "3", "--pmax", "7", "--checks", "bound",
                  "--out-json", str(out_json)])
    assert rc == 0
    out_csv = tmp_path / "plot.csv"
    rc = run_cli(["plotdata", "--reports", str(out_json), "--out", str(out_csv)])
    assert rc == 0
    with open(out_csv) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["p", "max_ratio", "bound_constant"]
    assert len(rows) == 3
    assert all(float(r[1]) <= float(r[2]) for r in rows[1:])


def test_sweep_n2_bound(tmp_path):
    out_json = tmp_path / "n2.json"
    out_csv = tmp_path / "n2.csv"
    rc = run_cli(["sweep", "--n", "2", "--matrix", "auto-sp4", "--pmin", "3",
                  "--pmax", "3", "--checks", "bound",
                  "--out-json", str(out_json), "--out-csv", str(out_csv)])
    assert rc == 0
    report = json.loads(out_json.read_text())
    check = report["primes"][0]["checks"][0]
    assert check["status"] == "pass"
    assert check["max_ratio"] < 4  # |a_chi| / p^(n/2) < 2^n at this prime


def test_sweep_n2_reports_construction_routes(tmp_path):
    # every operator of an n = 2 sweep is a closed-form kernel; none comes
    # from Schur averaging, and no dense rho(fourier) is kept.  The
    # decomposition reads rho of the torus generators one at a time and
    # keeps none, so no operator is counted
    out_json = tmp_path / "routes.json"
    rc = run_cli(["sweep", "--n", "2", "--matrix", "auto-sp4", "--pmin", "3",
                  "--pmax", "5", "--checks", "decomposition,bound",
                  "--out-json", str(out_json)])
    assert rc == 0
    report = json.loads(out_json.read_text())
    assert [rp["p"] for rp in report["primes"]] == [3, 5]
    for rp in report["primes"]:
        assert rp["routes"] == {}


def test_budget_skips_checks(tmp_path):
    out_json = tmp_path / "b.json"
    rc = run_cli(["sweep", "--pmin", "3", "--pmax", "3", "--checks",
                  "relations,bound", "--budget-seconds", "0",
                  "--out-json", str(out_json)])
    assert rc == 0  # skips are not failures
    report = json.loads(out_json.read_text())
    statuses = [c["status"] for c in report["primes"][0]["checks"]]
    assert statuses == ["skip", "skip"]


def test_budget_passing_inside_relations_is_a_skip(sp4_elem, monkeypatch):
    # the deadline is still ahead when run_prime starts the check and passes
    # a millisecond into it, long before the 2n p^(2n) pairs at n = 2, p = 13
    # are done; check_relations reads it between chunks of eta
    rows = []
    real = heisenberg.pi_exponents_many

    def counted(xis, pm):
        rows.append(len(xis))
        return real(xis, pm)

    def late_deadline(ctx, rng):
        ctx.deadline = time.perf_counter() + 1e-3
        return cli._check_relations(ctx, rng)

    monkeypatch.setitem(cli._CHECK_RUNNERS, "relations", late_deadline)
    monkeypatch.setattr(heisenberg, "pi_exponents_many", counted)
    cfg = cli.SweepConfig(n=2, checks=("relations",), budget_seconds=3600.0)
    report = cli.run_prime(sp4_elem, 13, cfg, {"relation_sign": 1})
    assert report["checks"] == [
        {"name": "relations", "status": "skip", "max_dev": 0.0, "max_ratio": 0.0,
         "witnesses": [{"reason": "budget exceeded"}], "millis": 0}]
    # it started, and it stopped before T(eta) and T(e_i + eta) were read for
    # every eta
    assert rows and sum(rows) < (4 + 1) * 13 ** 4


def test_plotdata_empty(tmp_path):
    report = tmp_path / "empty.json"
    report.write_text(json.dumps({"meta": {"n": 1}, "primes": []}))
    out_csv = tmp_path / "plot.csv"
    assert run_cli(["plotdata", "--reports", str(report),
                    "--out", str(out_csv)]) == 0
    with open(out_csv) as fh:
        rows = list(csv.reader(fh))
    assert rows == [["p", "max_ratio", "bound_constant"]]


def _bound_check(status, max_ratio, witnesses):
    return {"name": "bound", "status": status, "max_dev": 0.0, "max_ratio": max_ratio,
            "witnesses": witnesses, "millis": 1}


def test_plotdata_leaves_out_bound_checks_without_a_ratio(tmp_path):
    # a bound check skipped for budget, or failed with an error witness, never
    # produced a ratio, so it gives no (p, 0.0, 2^n) row
    primes = [
        (7, _bound_check("pass", 0.9, [{"max_ratio_dim1": 0.9}])),
        (11, _bound_check("skip", 0.0, [{"reason": "budget exceeded"}])),
        (13, _bound_check("fail", 0.0, [{"error": "RuntimeError: no eigenbasis"}])),
        (19, _bound_check("fail", 2.3, [{"xi": [1, 0], "chi": [9], "abs_a": 17.0},
                                         {"max_ratio_dim1": 1.2}])),
    ]
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"meta": {"n": 1}, "primes": [
        {"p": p, "checks": [check]} for p, check in primes]}))
    out_csv = tmp_path / "plot.csv"
    assert run_cli(["plotdata", "--reports", str(report), "--out", str(out_csv)]) == 0
    with open(out_csv) as fh:
        rows = list(csv.reader(fh))
    assert rows == [["p", "max_ratio", "bound_constant"], ["7", "0.9", "2"], ["19", "2.3", "2"]]


@pytest.mark.parametrize("text", ["not json", json.dumps({"primes": []}),
                                  json.dumps({"meta": {"n": 1}}), json.dumps([1, 2])])
def test_plotdata_of_a_non_report_is_a_config_error(text, tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text(text)
    out_csv = tmp_path / "plot.csv"
    assert run_cli(["plotdata", "--reports", str(report), "--out", str(out_csv)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "is not a sweep report" in err
    assert not out_csv.exists()


def test_demo_verb(capsys):
    rc = run_cli(["demo", "--p", "7"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "|C_A|=8" in out


def test_parse_matrix_fixtures():
    assert cli.parse_matrix("cat-map", 1) == ((2, 1), (1, 1))
    m = cli.parse_matrix("auto-sp4", 2)
    assert len(m) == 4
    with pytest.raises(cli.ConfigError):
        cli.parse_matrix("1,2;3,4;5,6", 1)


def test_construction_failure_becomes_failed_prime(tmp_path, monkeypatch):
    # a torus that cannot be built at one prime must not end the sweep,
    # whatever the type of the error
    from torusque import hecke
    real = hecke.centralizer

    for error in (weil.ConstructionError, RuntimeError):
        def flaky(a, pm, charpoly=None, deadline=None):
            if pm.p == 7:
                raise error("injected at p = 7")
            return real(a, pm, charpoly, deadline)

        monkeypatch.setattr(hecke, "centralizer", flaky)
        out_json = tmp_path / f"fail-{error.__name__}.json"
        rc = run_cli(["sweep", "--pmin", "3", "--pmax", "13",
                      "--checks", "decomposition,trace-formula",
                      "--out-json", str(out_json)])
        assert rc == 1
        report = json.loads(out_json.read_text())
        assert not report["all_passed"]
        by_p = {rp["p"]: rp for rp in report["primes"]}
        assert sorted(by_p) == [3, 7, 11, 13]
        failed = by_p.pop(7)
        assert failed["split_type"] is None and failed["torus_order"] is None
        assert failed["routes"] == {}
        (check,) = failed["checks"]
        assert check["name"] == "construction" and check["status"] == "fail"
        assert check["witnesses"] == [
            {"error": f"{error.__name__}: injected at p = 7"}]
        for rp in by_p.values():
            assert rp["split_type"] in ("split", "nonsplit")
            assert [c["name"] for c in rp["checks"]] == ["decomposition",
                                                         "trace-formula"]
            assert all(c["status"] == "pass" for c in rp["checks"])


def test_egorov_check_keeps_no_operator(cat_map, sp4_elem):
    # the egorov and multiplicativity checks read rho(B) on a probe block
    # and keep nothing; the context keeps the decomposition, which keeps no
    # operator, and rho keeps its p x p one-digit factors
    for elem, pm in ((cat_map, PrimeModulus(11, 1)), (sp4_elem, PrimeModulus(7, 2))):
        ctx = PrimeContext.build(elem, pm)
        dec = ctx.decomposition
        for runner in (cli._check_egorov, cli._check_multiplicativity):
            before = vars(ctx).keys() | vars(ctx.rep).keys()
            res = runner(ctx, random.Random(0))
            assert res.status == "pass"
            assert vars(ctx).keys() | vars(ctx.rep).keys() == before
            assert vars(ctx.rep).keys() == {"pm", "gamma", "f1", "v1"}
            assert ctx.rep.f1.shape == ctx.rep.v1.shape == (pm.p, pm.p)
            assert ctx.decomposition is dec


@pytest.mark.parametrize("n,p", [(1, 7), (1, 11), (1, 13), (2, 5), (2, 7)])
def test_egorov_on_generators_bounds_every_torus_element(n, p, cat_map, sp4_elem):
    # the check reads the torus generators at the unit vectors on a probe,
    # and the torus certificate reads rho(B) - prod_i rho(g_i)^e_i(B) on one;
    # both pass 1e-8, so (Freivalds) every entry of either difference is
    # below C = 1e-6 but with probability (1e-8 / C)^(2r).  Then every torus
    # element at every xi stays within the bound the check states,
    # |e(B)| 2n(p - 1) p^n C + 2 p^n C, and within 1e-9 p^(n/2); the
    # generators' entries at the unit vectors are below C too
    c = 1e-6
    pm = PrimeModulus(p, n)
    ctx = PrimeContext.build(cat_map if n == 1 else sp4_elem, pm)
    res = cli._check_egorov(ctx, random.Random(p))
    assert res.status == "pass" and 0 < res.max_dev <= 1e-8
    torus, rep = ctx.torus, ctx.rep
    assert weil.certify_torus(rep, torus, probe=weil.probe_block(pm, p)) <= 1e-8
    gens = [g for g, _ in torus.generators]
    for g, dense in zip(gens, build_many(rep, gens)):
        assert egorov_deviation_loop(dense, g, pm) <= c
    per_factor = 2 * n * (p - 1) * pm.dim * c
    xis = lattice_vectors(pm)
    for b, dense in zip(torus.elements, build_many(rep, torus.elements)):
        dev = egorov_deviation_loop(dense, b, pm, xis)
        assert dev <= 1e-9 * p ** (n / 2)
        assert dev <= sum(torus.dlog[b]) * per_factor + 2 * pm.dim * c


@pytest.mark.parametrize("n,p", [(1, 11), (2, 13)])
def test_egorov_check_names_a_corrupted_generator(n, p, cat_map, sp4_elem,
                                                  monkeypatch):
    # rho(g) times a non-scalar diagonal unitary, on the apply route the
    # check reads, breaks Egorov at a unit vector whose image under g
    # shifts; the check fails with g as witness
    pm = PrimeModulus(p, n)
    ctx = PrimeContext.build(cat_map if n == 1 else sp4_elem, pm)
    g = ctx.torus.generators[-1][0]
    phases = np.exp(2j * np.pi * np.random.default_rng(p).random(pm.dim))
    real = ctx.rep.apply_many

    def corrupted(bs, z, deadline=None):
        out = real(bs, z, deadline)
        for k, b in enumerate(bs):
            if np.array_equal(b, g):
                out[k] = phases[:, None] * out[k]
        return out

    monkeypatch.setattr(ctx.rep, "apply_many", corrupted)
    res = cli._check_egorov(ctx, random.Random(0))
    assert res.status == "fail" and res.max_dev > 0.1
    assert [w["B"] for w in res.witnesses] == [g]


class _CountOnly:
    """A torus element list that has a length and cannot be read."""

    def __init__(self, count):
        self.count = count

    def __len__(self):
        return self.count

    def __iter__(self):
        raise AssertionError("a check read torus.elements")


@pytest.mark.parametrize("n,p,checks", [
    (1, 11, cli.ALL_CHECKS),
    (2, 5, cli.ALL_CHECKS),
    (2, 13, cli.ALL_CHECKS),
], ids=["1-11", "2-5", "2-13"])
def test_checks_read_no_torus_element_list(n, p, checks, cat_map, sp4_elem):
    # every check reads the torus through its generators, dlog and order
    built = PrimeContext.build(cat_map if n == 1 else sp4_elem, PrimeModulus(p, n))
    torus = replace(built.torus, elements=_CountOnly(built.torus.order))
    ctx = PrimeContext(built.elem, torus, built.rep)
    for name in checks:
        res = cli._CHECK_RUNNERS[name](ctx, random.Random(p))
        assert res.name == name and res.status in ("pass", "fail", "skip")


def test_relation_pairs_join_only_the_sampled_check(cat_map, monkeypatch):
    # SL2(F_3) is scanned pair by pair, which holds every relation; at p = 7
    # the relation pairs follow the sampled pairs into one check
    seen = []
    real = weil.check_multiplicativity

    def spy(rep, pairs=None, tol=1e-8, deadline=None, probe=None):
        seen.append(pairs)
        return real(rep, pairs, tol=tol, deadline=deadline, probe=probe)

    monkeypatch.setattr(weil, "check_multiplicativity", spy)
    for p in (3, 7):
        ctx = PrimeContext.build(cat_map, PrimeModulus(p, 1))
        assert cli._check_multiplicativity(ctx, random.Random(p)).status == "pass"
    exhaustive, sampled = seen
    assert exhaustive is None
    rng = random.Random(7)
    weil.random_sp(ctx.pm, rng, 2 * cli.SAMPLED_PAIRS)
    assert np.array_equal(sampled[cli.SAMPLED_PAIRS:], weil.relation_pairs(ctx.pm, rng))


def test_sweep_n2_identity_checks(tmp_path):
    # egorov and multiplicativity take the n = 1 route at n = 2, and neither
    # leaves an operator in the context: the torus certificate steps its
    # probe by the generators' kernels
    out_json = tmp_path / "n2-identities.json"
    rc = run_cli(["sweep", "--n", "2", "--matrix", "auto-sp4", "--pmin", "3",
                  "--pmax", "5", "--checks", "egorov,multiplicativity",
                  "--out-json", str(out_json)])
    assert rc == 0
    report = json.loads(out_json.read_text())
    assert [rp["p"] for rp in report["primes"]] == [3, 5]
    for rp in report["primes"]:
        assert [c["status"] for c in rp["checks"]] == ["pass", "pass"]
        assert rp["routes"] == {}


def test_shared_artifacts_built_once_per_prime(tmp_path, monkeypatch):
    # the torus, the decomposition, the split frame and the table of
    # character sums are built once per prime, however many checks read them:
    # the table once per prime for bound, and refined at 11 reads it again
    from torusque import hecke, quevaluator
    calls = {}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(hecke, "centralizer")
    counted(hecke, "decompose")
    counted(quevaluator, "character_sum_table")
    counted(quevaluator, "build_split_transport")
    out_json = tmp_path / "once.json"
    rc = run_cli(["sweep", "--pmin", "3", "--pmax", "13",
                  "--checks", "decomposition,bound,refined,demo",
                  "--out-json", str(out_json)])
    assert rc == 1  # the bound fails at the split prime 11
    report = json.loads(out_json.read_text())
    assert [rp["p"] for rp in report["primes"]] == [3, 7, 11, 13]
    assert [rp["p"] for rp in report["primes"]
            if rp["split_type"] == "split"] == [11]
    assert calls == {"centralizer": 4, "decompose": 4,
                     "character_sum_table": 4, "build_split_transport": 1}


def test_budget_read_between_orbit_chunks(tmp_path, monkeypatch):
    # a clock that advances one second per reading of the formula, with
    # chunks of 10 orbits: the decomposition check reads it at xi = 0 alone,
    # and the deadline passes in the middle of the table the bound check
    # builds, which becomes a budget skip, and so does every later check of
    # that prime
    import time

    from torusque import quevaluator
    now = [0.0]
    chunks = []

    class Slow(quevaluator.TraceFormula):
        def __call__(self, flat, cols=slice(None)):
            now[0] += 1.0
            chunks.append(len(flat))
            return super().__call__(flat, cols)

    monkeypatch.setattr(time, "perf_counter", lambda: now[0])
    monkeypatch.setattr(quevaluator, "TraceFormula", Slow)
    monkeypatch.setattr(heisenberg, "CHUNK_BYTES", 10 * 16 * 40)
    out_json = tmp_path / "budget.json"
    rc = run_cli(["sweep", "--pmin", "41", "--pmax", "41",
                  "--checks", "decomposition,bound,refined",
                  "--budget-seconds", "2.5", "--out-json", str(out_json)])
    assert rc == 0
    (rp,) = json.loads(out_json.read_text())["primes"]
    # split: the dims read xi = 0, then 41 + 2 orbits of xi at |T| = 40 make
    # 5 chunks of at most 10 orbits, of which 2 are read before the
    # deadline; then the report header reads the formula at one xi
    assert rp["split_type"] == "split" and rp["torus_order"] == 40
    assert chunks == [1, 10, 10, 1]
    skip = {"name": "", "status": "skip", "max_dev": 0.0, "max_ratio": 0.0,
            "witnesses": [{"reason": "budget exceeded"}], "millis": 0}
    decomposition, bound, refined = rp["checks"]
    assert decomposition["status"] == "pass"
    assert bound == dict(skip, name="bound")
    assert refined == dict(skip, name="refined")


def test_budget_read_between_norm_filter_chunks(tmp_path, monkeypatch):
    # a clock that advances one second per reading: the deadline passes
    # inside the centralizer's norm filter, at its third chunk of the 11^4
    # candidates, and the prime becomes budget skips, not a failed
    # construction
    now = [0.0]
    chunks = []
    real_norm = hecke.norm

    def clock():
        now[0] += 1.0
        return now[0]

    def counted_norm(coeffs, table, p):
        chunks.append(len(coeffs))
        return real_norm(coeffs, table, p)

    monkeypatch.setattr(time, "perf_counter", clock)
    monkeypatch.setattr(hecke, "norm", counted_norm)
    out_json = tmp_path / "budget.json"
    rc = run_cli(["sweep", "--n", "2", "--matrix", "auto-sp4", "--pmin", "11",
                  "--pmax", "11", "--checks", "decomposition,bound",
                  "--budget-seconds", "2.5", "--out-json", str(out_json)])
    assert rc == 0
    (rp,) = json.loads(out_json.read_text())["primes"]
    assert heisenberg.chunk_items(8 * 4 * 4) == 2048
    assert chunks == [2048, 2048]
    skip = {"status": "skip", "max_dev": 0.0, "max_ratio": 0.0,
            "witnesses": [{"reason": "budget exceeded"}], "millis": 0}
    assert rp == {"p": 11, "n": 2, "split_type": None, "torus_order": None,
                  "routes": {}, "checks": [dict(skip, name="decomposition"),
                                           dict(skip, name="bound")]}


@pytest.mark.parametrize("check,length", [
    ("egorov", lambda pm: weil.apply_length(pm, (2 * pm.n + 1) * weil.PROBE_COLUMNS)),
    ("multiplicativity", lambda pm: 2 * (weil.apply_length(pm, weil.PROBE_COLUMNS) // 2)),
    ("decomposition", lambda pm: 1),
], ids=["egorov", "multiplicativity", "decomposition"])
def test_budget_read_between_operator_chunks(check, length, tmp_path, monkeypatch):
    # a clock that advances one second per batch of probe blocks (egorov,
    # whose block stacks the probe and its 2n translates; multiplicativity,
    # whose first batch holds rho(B2) and rho(B1 B2) of half a batch of
    # pairs; decomposition, whose Egorov check of the one generator at n = 1
    # comes first): the deadline passes after the first one, the check
    # becomes a budget skip, and no second one is built
    import time

    now = [0.0]
    chunks = []
    real_step = weil._apply_plan

    def slow_step(rep, *plan):
        now[0] += 1.0
        chunks.append(len(plan[-1]))        # one entry per element
        return real_step(rep, *plan)

    monkeypatch.setattr(time, "perf_counter", lambda: now[0])
    monkeypatch.setattr(weil, "_apply_plan", slow_step)
    out_json = tmp_path / "budget.json"
    rc = run_cli(["sweep", "--pmin", "43", "--pmax", "43", "--checks", check,
                  "--budget-seconds", "0.5", "--out-json", str(out_json)])
    assert rc == 0
    (rp,) = json.loads(out_json.read_text())["primes"]
    assert chunks == [length(PrimeModulus(43, 1))]
    (res,) = rp["checks"]
    assert res == {"name": check, "status": "skip", "max_dev": 0.0, "max_ratio": 0.0,
                   "witnesses": [{"reason": "budget exceeded"}], "millis": 0}


def test_sweep_routes_count_only_context_operators(tmp_path):
    # trace-formula, egorov and multiplicativity drop every operator they
    # build, and the demo's decomposition keeps none: routes stays empty
    out_json = tmp_path / "routes.json"
    rc = run_cli(["sweep", "--pmin", "7", "--pmax", "13", "--checks",
                  "trace-formula,egorov,multiplicativity,demo",
                  "--out-json", str(out_json)])
    assert rc == 0
    report = json.loads(out_json.read_text())
    assert [rp["p"] for rp in report["primes"]] == [7, 11, 13]
    for rp in report["primes"]:
        assert rp["routes"] == {}


@pytest.mark.parametrize("args", [
    ["sweep", "--n", "1", "--matrix", "auto-sp4", "--pmin", "3", "--pmax", "5"],
    ["demo", "--p", "7", "--n", "2", "--matrix", "cat-map"],
    ["validate", "--n", "2", "--matrix", "cat-map"],
])
def test_named_fixture_of_the_wrong_size_is_a_config_error(args, capsys):
    # the named fixtures get the 2n x 2n check that typed matrices get
    assert run_cli(args) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("n,matrix,pmin", [(1, "cat-map", 3), (1, "cat-map", 7),
                                           (1, "cat-map", 97), (2, "auto-sp4", 7)])
def test_header_conventions_equal_those_of_a_fresh_rho(n, matrix, pmin, tmp_path):
    # the header reads the first prime's own rho; a second rho built for the
    # purpose, as the header once did, gives the same values, and its
    # trace-formula sign is the measured orientation
    from torusque.heisenberg import check_relations
    out_json = tmp_path / "conventions.json"
    run_cli(["sweep", "--n", str(n), "--matrix", matrix, "--pmin", str(pmin),
             "--pmax", str(pmin), "--checks", "decomposition", "--deterministic",
             "--out-json", str(out_json)])
    header = json.loads(out_json.read_text())["meta"]["conventions"]
    pm = PrimeModulus(pmin, n)
    expected = {"relation_sign": check_relations(pm, exhaustive=False).epsilon}
    if n == 1:
        rep = weil.linearize(pm)
        expected["trace_formula_sign"] = measure_split_sign(pm, rep)
        expected["fourier_normalization"] = {"re": rep.gamma.real, "im": rep.gamma.imag}
    assert header == expected


@pytest.mark.parametrize("n,matrix,pmin,pmax,checks", [
    (1, "cat-map", 3, 43, "trace-formula,demo"),
    (2, "auto-sp4", 7, 13, "factorization")])
def test_one_rho_per_built_prime(n, matrix, pmin, pmax, checks, tmp_path, monkeypatch):
    # neither the report header nor the factorization check builds a rho of
    # its own: every linearize call is a context's
    calls = []
    real = weil.linearize

    def counted(pm):
        calls.append(pm)
        return real(pm)

    monkeypatch.setattr(weil, "linearize", counted)
    out_json = tmp_path / "rho.json"
    run_cli(["sweep", "--n", str(n), "--matrix", matrix, "--pmin", str(pmin),
             "--pmax", str(pmax), "--checks", checks, "--out-json", str(out_json)])
    primes = [rp["p"] for rp in json.loads(out_json.read_text())["primes"]]
    assert len(primes) == (12 if n == 1 else 3)
    assert calls == [PrimeModulus(p, n) for p in primes]


def test_unmeasurable_conventions_are_one_header_error(tmp_path, monkeypatch):
    # conventions that cannot be read are recorded once in the header; every
    # prime still runs its checks, and the trace-formula check, which holds
    # the same formula to every matrix trace, reports the defect.  The
    # formula in the other orientation, its complex conjugate, stands for a
    # convention the header cannot confirm; B = diag(2, 1/2) shows it from
    # p = 7 on
    from torusque import quevaluator
    real_pair = quevaluator.trace_pair
    calls = []

    class Conjugated(quevaluator.TraceFormula):
        def __call__(self, flat, cols=slice(None)):
            return np.conj(super().__call__(flat, cols))

        def rows(self, lam, cols=slice(None)):
            return np.conj(super().rows(lam, cols))

    def counted(xi, rho_dense, pm):
        calls.append(pm.p)
        return real_pair(xi, rho_dense, pm)

    monkeypatch.setattr(quevaluator, "TraceFormula", Conjugated)
    monkeypatch.setattr(quevaluator, "trace_pair", counted)
    out_json = tmp_path / "broken.json"
    rc = run_cli(["sweep", "--pmin", "7", "--pmax", "11",
                  "--checks", "decomposition,trace-formula",
                  "--out-json", str(out_json)])
    assert rc == 1
    report = json.loads(out_json.read_text())
    assert report["meta"]["conventions"] == {
        "error": "RuntimeError: closed-form diagonal trace does not match the matrix trace"}
    assert [rp["p"] for rp in report["primes"]] == [7, 11]
    assert calls == [7]     # the header reads the first prime only
    for rp in report["primes"]:
        decomposition, trace_formula = rp["checks"]
        assert decomposition["name"] == "decomposition"
        assert decomposition["status"] == "pass"
        assert trace_formula["status"] == "fail"
        assert trace_formula["max_dev"] > 1e-3


_SWEEPS_THEN_REPORT_NUMPY_RANDOM = """
import sys
from torusque import cli, weil
checks = tuple(sys.argv[1].split(","))
draws = []
blocks = weil._random_blocks
def counted(*args):
    draws.append(args[2])
    return blocks(*args)
weil._random_blocks = counted
for n, matrix, pmax in ((1, "cat-map", 13), (2, "auto-sp4", 7)):
    cli.run(cli.SweepConfig(n=n, matrix=matrix, pmin=3, pmax=pmax, checks=checks,
                            deterministic=True))
print(bool(draws))
print("numpy.random" in sys.modules)
"""


def _sweep_in_fresh_interpreter(checks):
    src = os.path.dirname(os.path.dirname(torusque.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _SWEEPS_THEN_REPORT_NUMPY_RANDOM, checks],
                         env=env, capture_output=True, text=True, timeout=300, check=True)
    sampled, loaded = out.stdout.splitlines()[-2:]
    return sampled == "True", loaded == "True"


@pytest.mark.parametrize("checks,samples", [("bound,refined,decomposition", False),
                                            ("bound,egorov", True)])
def test_only_sampling_checks_import_numpy_random(checks, samples):
    # the name dates from when the sampling checks drew from numpy.random;
    # now the sweep that samples leaves it unloaded just as the one that
    # does not, and the spy on the block draw shows which one sampled
    assert _sweep_in_fresh_interpreter(checks) == (samples, False)


def test_no_sweep_imports_numpy_random():
    # a fresh interpreter: every check, the sampling ones too, draws from
    # random.Random, and so does the probe of the normalization
    assert _sweep_in_fresh_interpreter(",".join(cli.ALL_CHECKS)) == (True, False)


def test_decomposition_fails_where_eigh_and_the_formula_disagree(cat_map, monkeypatch):
    # the eigenbasis dims are held to the trace formula's a_chi(0) / |T|: a
    # decomposition with two dims swapped fails with the formula's dims as a
    # witness, and its dims_sorted witness is unchanged
    ctx = PrimeContext.build(cat_map, PrimeModulus(11, 1))
    res = cli._check_decomposition(ctx, random.Random(0))
    assert res.status == "pass" and not any("formula_dims" in w for w in res.witnesses)
    dec = ctx.decomposition
    dims = list(dec.dims)
    big = dims.index(2)
    dims[big], dims[big - 1] = dims[big - 1], dims[big]
    broken = PrimeContext(ctx.elem, ctx.torus, ctx.rep)
    broken.decomposition = replace(dec, dims=dims)
    res = cli._check_decomposition(broken, random.Random(0))
    assert res.status == "fail"
    assert res.witnesses[0] == {"formula_dims": ctx.dims}
    assert res.witnesses[-1]["dims_sorted"] == sorted(ctx.dims)


def test_table_sweep_builds_no_operator_of_the_torus(sp4_elem, tmp_path, monkeypatch):
    # bound, refined and factorization read only the trace formula's table:
    # no rho of a torus generator, no decomposition, no eigh
    from torusque import quevaluator
    contexts, decomposed = [], []
    real_build = quevaluator.PrimeContext.build.__func__

    def build(cls, *args, **kwargs):
        contexts.append(real_build(cls, *args, **kwargs))
        return contexts[-1]

    monkeypatch.setattr(quevaluator.PrimeContext, "build", classmethod(build))
    monkeypatch.setattr(hecke, "decompose", lambda *args: decomposed.append(args))
    monkeypatch.setattr(np.linalg, "eigh", lambda *args: decomposed.append(args))
    out_json = tmp_path / "table.json"
    run_cli(["sweep", "--n", "2", "--matrix", "auto-sp4", "--pmin", "13", "--pmax", "13",
             "--checks", "bound,refined,factorization", "--out-json", str(out_json)])
    (rp,) = json.loads(out_json.read_text())["primes"]
    assert rp["routes"] == {}
    assert [c["status"] for c in rp["checks"]] == ["fail", "pass", "pass"]
    (ctx,) = contexts
    assert "sums" in vars(ctx)
    assert "decomposition" not in vars(ctx)
    assert decomposed == []
