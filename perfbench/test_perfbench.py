"""Tests of the benchmark's own machinery: tracing and the reference gate.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import gate  # noqa: E402
from child import run_sweep  # noqa: E402
from tracer import ORIGINAL, Tracer  # noqa: E402

from torusque import cli, ffcore, heisenberg  # noqa: E402

SMALL = {
    "n1": {"n": "1", "matrix": "cat-map", "pmin": "3", "pmax": "13",
           "checks": "bound,refined,decomposition,trace-formula,egorov"},
    "n2": {"n": "2", "matrix": "auto-sp4", "pmin": "3", "pmax": "5",
           "checks": "decomposition,bound"},
}


def _bindings(tracer):
    return {(mod.__name__, attr): obj
            for mod in [tracer.package, *tracer.modules]
            for attr, obj in vars(mod).items()}


@pytest.fixture(scope="module", params=sorted(SMALL))
def sweeps(request, tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep") / "report.json"
    cfg = cli.build_config({}, dict(SMALL[request.param], out_json=str(out)))
    plain = run_sweep(cli, cfg)
    tracer = Tracer()
    before = _bindings(tracer)
    traced = run_sweep(cli, cfg, tracer)
    return plain, traced, tracer, before


def test_traced_report_equals_untraced_on_gated_fields(sweeps):
    plain, traced, _, _ = sweeps
    assert plain["rc"] in (0, 1) and traced["rc"] == plain["rc"]
    ref = gate.extract(plain["report"])
    attempted, failed, why = gate.compare(ref, gate.extract(traced["report"]))
    assert attempted > 1 and failed == 0, why


def test_every_wrapper_is_removed(sweeps):
    _, _, tracer, before = sweeps
    assert tracer.leftover_wrappers() == []
    after = _bindings(tracer)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_times_add_up_to_sweep_time(sweeps):
    _, traced, tracer, _ = sweeps
    total_self = sum(s[2] for s in tracer.stats.values())
    assert tracer.stats["cli.run"][0] == 1
    assert math.isclose(total_self, tracer.stats["cli.run"][1], rel_tol=1e-9)
    # the rest of sweep_s is the outermost wrapper's own bookkeeping
    assert 0 <= traced["sweep_s"] - total_self < 1e-3


def test_calls_are_charged_to_the_defining_module(sweeps):
    _, _, tracer, _ = sweeps
    # the report header calls check_relations through cli's imported name
    assert tracer.stats["heisenberg.check_relations"][0] >= 1
    assert tracer.counts["heisenberg.relation_pairs"] > 0
    assert tracer.stats["ffcore.mat_mul"][0] > 0
    assert tracer.counts["hecke.torus_elements"] > 0
    assert "cli.check_relations" not in tracer.stats


def test_wrapper_cost_is_small_and_positive():
    assert 0 < Tracer().wrapper_cost(calls=20_000) < 1e-4


def test_install_replaces_every_binding():
    tracer = Tracer()
    with tracer:
        wrapped = heisenberg.check_relations
        assert hasattr(wrapped, ORIGINAL)
        assert cli.check_relations is wrapped
        from torusque import classical, hecke, quevaluator, weil
        assert weil.pi_op is heisenberg.pi_op and hasattr(weil.pi_op, ORIGINAL)
        for mod in (hecke, quevaluator, classical, weil):
            assert mod.mat_mul is ffcore.mat_mul
        assert hasattr(ffcore.mat_mul, ORIGINAL)
    assert not hasattr(cli.check_relations, ORIGINAL)
    assert tracer.leftover_wrappers() == []


# ---------------------------------------------------------------------------
# the gate, on the committed n1-que-sweep reference


@pytest.fixture
def reference():
    with open(os.path.join(HERE, "reference", "n1-que-sweep.json")) as fh:
        return json.load(fh)["gated"]


def test_reference_matches_itself_with_expected_failures(reference):
    attempted, failed, _ = gate.compare(reference, copy.deepcopy(reference))
    assert failed == 0
    assert attempted == 1 + sum(1 + len(rp["checks"])
                                for rp in reference["primes"].values())
    failing = sorted(int(p) for p, rp in reference["primes"].items()
                     if rp["checks"]["bound"]["status"] == "fail")
    assert failing == [11, 19, 29, 31, 41, 59, 61, 71, 79, 89]


@pytest.mark.parametrize("mutate, expected", [
    (lambda g: g["primes"]["11"]["checks"]["bound"].update(status="pass"), 1),
    (lambda g: g["primes"]["97"]["checks"]["bound"].update(max_ratio=1.9963), 1),
    (lambda g: g["primes"]["13"].update(torus_order=12), 1),
    (lambda g: g["primes"].pop("7"), 4),
    (lambda g: g["primes"]["7"]["checks"].pop("refined"), 1),
    (lambda g: g["primes"]["7"]["flags"].update(bound="skipped for budget"), 1),
    (lambda g: g["primes"]["7"]["flags"].update(bound="raised: KeyError"), 1),
    (lambda g: g["header"]["conventions"].update(relation_sign=-1), 1),
    (lambda g: g["header"]["skipped"].append(3), 1),
])
def test_gate_counts_each_failed_operation(reference, mutate, expected):
    got = copy.deepcopy(reference)
    mutate(got)
    assert gate.compare(reference, got)[1] == expected


def test_missing_report_fails_every_operation(reference):
    attempted, failed, _ = gate.compare(reference, None)
    assert attempted == failed > 1


@pytest.mark.parametrize("n, same", [(1, False), (2, True)])
def test_refined_verdict_is_gated_only_at_n1(n, same):
    checks = [{"name": "refined", "status": status, "max_ratio": ratio,
               "max_dev": 0.0, "witnesses": [], "millis": 0}
              for status, ratio in (("fail", 8.27), ("pass", 0.94))]
    reports = [{"meta": {"n": n, "conventions": {}}, "skipped": [],
                "primes": [{"p": 13, "split_type": "split", "torus_order": 144,
                            "checks": [c]}]} for c in checks]
    ref, got = (gate.extract(r) for r in reports)
    assert (gate.compare(ref, got)[1] == 0) is same
