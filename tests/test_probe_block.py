"""The probe-block route to the multiplicativity certificates.

`WeilRep.apply_many` applies rho(B) to a p^n x r block from its exact
factorization without forming rho(B); it is held to the dense
`oracles.build(rep, B) @ Z`.  The
pair check on a Gaussian probe block is held to the dense pair products of
`oracles.dense_pair_check`, and a one-entry corruption of size 1e-6 in one
rho(B) must fail it (Freivalds' argument, `weil` module docs).
"""

import random

import numpy as np
import pytest

from torusque import cli, weil
from torusque.ffcore import PrimeModulus
from torusque.quevaluator import PrimeContext
from torusque.weil import linearize, random_sp

from oracles import build_many, dense_pair_check, numpy_probe_block

CASES = [(1, 7), (1, 43), (2, 5), (2, 13)]


def _pairs(pm, seed, sampled=20):
    """sampled pairs followed by the relation pairs, as in the cli check."""
    rng = random.Random(seed)
    draws = random_sp(pm, rng, 2 * sampled)
    d = 2 * pm.n
    return np.concatenate([draws.reshape(sampled, 2, d, d),
                           weil.relation_pairs(pm, rng)])


@pytest.mark.parametrize("n,p", CASES)
def test_apply_many_equals_dense_products(n, p, rep_cache):
    # the triples span several batches and include the monomial kernel of
    # the relation pairs and, at n = 2, the U(-S) branch of sampled
    # products; each element's block is its own or the shared one
    pm = PrimeModulus(p, n)
    rep = rep_cache(p, n)
    bs = weil.pair_triples(_pairs(pm, p, sampled=100), pm)
    assert len(bs) > weil.apply_length(pm, weil.PROBE_COLUMNS)
    fac = weil.factorize(pm, bs)
    assert fac.monomial.any() and fac.mask.any() == (n > 1)
    rng = np.random.default_rng(p)
    shared = weil.probe_block(pm, p)
    own = rng.standard_normal((len(bs), pm.dim, 3)) + 1j * rng.standard_normal(
        (len(bs), pm.dim, 3))
    got_shared, got_own = rep.apply_many(bs, shared), rep.apply_many(bs, own)
    dev = 0.0
    for k, dense in enumerate(build_many(rep, bs)):
        dev = max(dev, np.abs(got_shared[k] - dense @ shared).max(),
                  np.abs(got_own[k] - dense @ own[k]).max())
    assert dev <= 1e-12
    assert rep.apply_many(bs[:0], shared).shape == (0, pm.dim, weil.PROBE_COLUMNS)


def test_probe_block_is_standard_complex_gaussian():
    x = weil.probe_block(PrimeModulus(101, 2), 0)
    assert x.shape == (101 ** 2, weil.PROBE_COLUMNS) and x.dtype == complex
    assert abs(np.mean(np.abs(x) ** 2) - 1) < 0.02
    assert abs(np.mean(x.real ** 2) - 0.5) < 0.02 and abs(np.mean(x)) < 0.02


def test_probe_block_is_a_function_of_its_seed():
    pm = PrimeModulus(13, 2)
    x = weil.probe_block(pm, 7)
    assert np.array_equal(x, weil.probe_block(pm, 7))
    for seed in (0, 8, 2 ** 63 - 1):
        assert (weil.probe_block(pm, seed) != x).all()


@pytest.mark.parametrize("n,pmax", [(1, 43), (2, 13)])
def test_gamma_equals_the_numpy_probe_gamma(n, pmax, monkeypatch):
    # the normalization read on the seed-0 block of random.Random and on the
    # seed-0 block of numpy's generator: the same gamma up to roundoff
    primes = [p for p in range(3, pmax + 1) if all(p % q for q in range(2, p))]
    got = {p: linearize(PrimeModulus(p, n)).gamma for p in primes}
    monkeypatch.setattr(weil, "probe_block", numpy_probe_block)
    for p in primes:
        pm = PrimeModulus(p, n)
        assert abs(got[p] - weil.solve_gamma(pm)) <= 1e-12


@pytest.mark.parametrize("n,p", CASES)
def test_probe_and_dense_verdicts_agree_on_sampled_pairs(n, p, rep_cache):
    # |(M X)[a, c]| <= p^n max|M| max|X|, so the probe deviation is bounded
    # by the dense one
    pm = PrimeModulus(p, n)
    rep = rep_cache(p, n)
    pairs = _pairs(pm, 100 + p)
    x = weil.probe_block(pm, p)
    probe = weil.check_multiplicativity(rep, pairs, probe=x)
    dense = dense_pair_check(rep, pairs)
    assert probe.ok and dense.ok
    assert probe.pairs_checked == dense.pairs_checked == len(pairs)
    assert probe.max_dev <= pm.dim * dense.max_dev * np.abs(x).max()


@pytest.mark.parametrize("p,count", [(3, 576), (5, 14400)])
def test_probe_and_dense_verdicts_agree_on_the_group_scan(p, count, rep_cache):
    rep = rep_cache(p)
    x = weil.probe_block(rep.pm, p)
    probe = weil.check_multiplicativity(rep, tol=1e-9, probe=x)
    dense = dense_pair_check(rep, tol=1e-9)
    assert probe.ok and dense.ok
    assert probe.pairs_checked == dense.pairs_checked == count
    assert probe.max_dev <= rep.pm.dim * dense.max_dev * np.abs(x).max()


def _corrupt(rep, target, monkeypatch, i=1, j=2):
    """rho(target) + 1e-6 E_ij as seen through rep.apply_many: the output
    block of every copy of target gains 1e-6 times row j of its input in
    row i.  bs is a matrix sequence or a `weil.Factorization`, whose
    elements are read."""
    real = rep.apply_many
    target = np.asarray(target) % rep.pm.p

    def corrupted(bs, z, deadline=None):
        out = real(bs, z, deadline)
        zs = np.broadcast_to(z, (len(bs),) + z.shape[-2:])
        for k, b in enumerate(getattr(bs, "elements", bs)):
            if np.array_equal(np.asarray(b) % rep.pm.p, target):
                out[k, i] += 1e-6 * zs[k, j]
        return out

    monkeypatch.setattr(rep, "apply_many", corrupted)


@pytest.mark.parametrize("n,p", [(1, 43), (2, 5)])
@pytest.mark.parametrize("role", [0, 1, 2], ids=["B1", "B2", "B1B2"])
def test_one_entry_corruption_fails_the_pair_check(n, p, role, monkeypatch):
    # a deviation of 1e-6 in one entry of one rho(B), whichever factor of a
    # pair B is, lifts the per-probe deviation far above tol = 1e-8
    pm = PrimeModulus(p, n)
    rep = linearize(pm)
    pairs = _pairs(pm, p)
    _corrupt(rep, weil.pair_triples(pairs[:1], pm)[role], monkeypatch)
    for seed in range(5):
        x = weil.probe_block(pm, seed)
        rpt = weil.check_multiplicativity(rep, pairs, probe=x)
        assert not rpt.ok and rpt.max_dev > 1e-8


def test_one_entry_corruption_fails_the_group_scan(monkeypatch):
    pm = PrimeModulus(5, 1)
    rep = linearize(pm)
    _corrupt(rep, weil.sp_elements(pm)[17], monkeypatch)
    x = weil.probe_block(pm, 0)
    rpt = weil.check_multiplicativity(rep, tol=1e-9, probe=x)
    assert not rpt.ok and rpt.max_dev > 1e-9


@pytest.mark.parametrize("n,p", [(1, 11), (2, 5)])
def test_one_entry_corruption_fails_the_torus_certificate(n, p, rep_cache,
                                                          torus_cache, monkeypatch):
    torus = torus_cache(p, n)
    rep = linearize(PrimeModulus(p, n))
    x = weil.probe_block(rep.pm, p)
    assert weil.certify_torus(rep, torus, probe=x) <= 1e-8
    _corrupt(rep, torus.elements[3], monkeypatch)
    assert weil.certify_torus(rep, torus, probe=x) > 1e-8


@pytest.mark.parametrize("n,p", [(1, 11), (2, 13)])
def test_generator_of_the_wrong_order_fails_the_torus_certificate(n, p, torus_cache,
                                                                  monkeypatch):
    # every kernel's row phases, the stepping generators' and apply_many's,
    # scaled by e^(i pi e_1(B)/m_1): R_1 = rho(g_1) e^(i pi/m_1), and the
    # R_i commute and rho(B) X = prod_i R_i^e_i(B) X still hold, but
    # R_1^m_1 = -I, which only the wrap-around step of the certificate reads
    torus = torus_cache(p, n)
    rep = linearize(PrimeModulus(p, n))
    x = weil.probe_block(rep.pm, p)
    assert weil.certify_torus(rep, torus, probe=x) <= 1e-8
    m = torus.generators[0][1]
    twist = np.exp(1j * np.pi / m)
    real = weil._kernel

    def twisted(rep, fac):
        src, row, *rest = real(rep, fac)
        e1 = [torus.dlog[tuple(map(tuple, b.tolist()))][0] for b in fac.elements]
        return (src, row * twist ** np.array(e1)[:, None], *rest)

    monkeypatch.setattr(weil, "_kernel", twisted)
    assert abs(weil.certify_torus(rep, torus, probe=x) - 2 * np.abs(x).max()) < 1e-8


@pytest.mark.parametrize("n,p", [(1, 3), (1, 43), (2, 5)])
def test_probe_checks_form_no_operator_but_the_generators(n, p, cat_map, sp4_elem,
                                                          torus_cache, monkeypatch):
    # neither the pair check nor the torus certificate builds a dense
    # rho(B): the certificate steps its probe by the generators' kernels
    pm = PrimeModulus(p, n)
    rep = linearize(pm)
    torus = torus_cache(p, n)
    built = []
    real = weil._dense_chunk

    def spy(rep, src, *plan):
        built.append(len(src))
        return real(rep, src, *plan)

    monkeypatch.setattr(weil, "_dense_chunk", spy)
    x = weil.probe_block(pm, p)
    sampled = None if p == 3 else _pairs(pm, p)
    assert weil.check_multiplicativity(rep, sampled, probe=x).ok
    assert weil.certify_torus(rep, torus, probe=x) <= 1e-8
    assert built == [] and vars(rep).keys() == {"pm", "gamma", "f1", "v1"}
    # the sweep's check on a built context builds nothing and keeps nothing
    ctx = PrimeContext.build(cat_map if n == 1 else sp4_elem, pm)
    before = dict(vars(ctx))
    assert cli._check_multiplicativity(ctx, random.Random(p)).status == "pass"
    assert built == [] and vars(ctx).keys() == before.keys()
