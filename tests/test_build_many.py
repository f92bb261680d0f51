"""The batched closed-form route to rho(B) against the word oracle.

`WeilRep.build_chunks` forms each rho(B) from one closed-form kernel, read
one operator at a time through `oracles.build_many`;
`oracles.sp_word` and `oracles.word_operator` multiply the generator
operators along a word, one element at a time.  The batched Egorov
deviation is held to the per-xi loop exactly.
"""

import random
import tracemalloc
from dataclasses import fields
from itertools import product

import numpy as np
import pytest

from torusque import ffcore, weil
from torusque.ffcore import PrimeModulus, mat_mul
from torusque.weil import BudgetExceeded, ConstructionError, linearize, random_sp

from oracles import (build, build_many, egorov_deviation_loop, first_invertible_mask_all,
                     generator_ops, mats, sp_word, upper_shear_dense, word_operator)

# the trace-formula check's traced peak at n = 1, p = 43 while it cached its
# 41 operators one at a time (about 1.4 MB, measured with tracemalloc)
TRACE_FORMULA_PEAK_BYTES = 1.4e6


def _oracle(rep, b):
    return word_operator(sp_word(b, rep.pm), rep.pm, rep.gamma)


def _max_oracle_dev(rep, bs):
    ops = list(build_many(rep, bs))
    assert len(ops) == len(bs)
    return max((float(np.abs(op - _oracle(rep, b)).max()) for b, op in zip(bs, ops)),
               default=0.0)


def _top_right_rank(b, n, p):
    """Rank of the upper-right n x n block mod p."""
    return int(ffcore.gauss_jordan_modp(np.array(b, dtype=np.int64)[:n, n:], p)[2])


@pytest.mark.parametrize("p", [3, 5, 7])
def test_build_many_equals_word_oracle_on_sl2(p, rep_cache):
    assert _max_oracle_dev(rep_cache(p), weil.sp_elements(PrimeModulus(p, 1))) <= 1e-12


@pytest.mark.parametrize("p", [11, 43])
def test_build_many_equals_word_oracle_on_sampled_products(p, rep_cache):
    # products of big-cell samples also reach b = 0, the S != 0 kernel
    pm = PrimeModulus(p, 1)
    draws = random_sp(pm, random.Random(p), 600)
    prods = [mat_mul(b1, b2, mod=p) for b1, b2 in zip(draws[::2], draws[1::2])]
    assert {_top_right_rank(b, 1, p) for b in prods} == {0, 1}
    assert _max_oracle_dev(rep_cache(p), prods) <= 1e-12


@pytest.mark.parametrize("p", [3, 5])
def test_build_many_equals_word_oracle_at_n2(p):
    pm = PrimeModulus(p, 2)
    draws = random_sp(pm, random.Random(100 + p), 60)
    prods = [mat_mul(b1, b2, mod=p) for b1, b2 in product(draws[:30], draws[30:])]
    assert {_top_right_rank(b, 2, p) for b in prods} == {0, 1, 2}
    assert _max_oracle_dev(linearize(pm), prods) <= 1e-12


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_chunk_boundaries_keep_input_order(extra, rep_cache):
    pm = PrimeModulus(43, 1)
    rep = rep_cache(43)
    size = weil.chunk_length(pm)
    assert size > 1
    bs = random_sp(pm, random.Random(size + extra), size + extra)
    assert _max_oracle_dev(rep, bs) <= 1e-12
    assert list(build_many(rep, [])) == []
    assert _max_oracle_dev(rep, bs[:1]) <= 1e-12


@pytest.mark.parametrize("n,p", [(1, 43), (2, 5)])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_plan_batch_boundaries_keep_input_order(n, p, extra, rep_cache):
    # one factorization spans several dense chunks; one element more starts
    # a second factorization, one fewer ends the batch inside a dense chunk
    pm = PrimeModulus(p, n)
    size = weil.factor_length(pm)
    assert size > weil.chunk_length(pm) > 1
    draws = random_sp(pm, random.Random(size + extra), 2 * (size + extra))
    bs = [mat_mul(b1, b2, mod=p) for b1, b2 in zip(draws[::2], draws[1::2])]
    assert _max_oracle_dev(rep_cache(p, n), bs) <= 1e-12


def test_non_symplectic_element_in_second_plan_batch_raises(rep_cache):
    # the first factorization batch is emitted whole before the second one
    # is factored
    pm = PrimeModulus(43, 1)
    size = weil.factor_length(pm)
    good = random_sp(pm, random.Random(1), size + 2)
    bs = list(good[:size]) + [good[size], ((1, 1), (1, 1)), good[size + 1]]
    built = 0
    with pytest.raises(ValueError, match="not symplectic"):
        for _ in build_many(rep_cache(43), bs):
            built += 1
    assert built == size


@pytest.mark.parametrize("n,p", [(1, 43), (2, 11)])
def test_pair_triples_equal_mat_mul(n, p):
    # the batched int64 products of the multiplicativity check's sampled and
    # relation pairs against the exact Python product
    pm = PrimeModulus(p, n)
    rng = random.Random(p)
    draws = random_sp(pm, rng, 200)
    pairs = np.concatenate([draws.reshape(100, 2, 2 * n, 2 * n),
                            weil.relation_pairs(pm, rng)])
    triples = weil.pair_triples(pairs, pm)
    assert triples.shape == (3 * len(pairs), 2 * n, 2 * n)
    for k, (b1, b2) in enumerate(mats(pair) for pair in pairs):
        assert triples[3 * k].tolist() == [[x % p for x in r] for r in b1]
        assert triples[3 * k + 1].tolist() == [[x % p for x in r] for r in b2]
        assert tuple(map(tuple, triples[3 * k + 2].tolist())) == mat_mul(b1, b2, mod=p)
    assert weil.pair_triples([], pm).shape == (0, 2 * n, 2 * n)


def test_non_symplectic_element_mid_batch_raises(rep_cache):
    pm = PrimeModulus(43, 1)
    rep = rep_cache(43)
    good = random_sp(pm, random.Random(0), 3)
    with pytest.raises(ValueError, match="not symplectic"):
        list(build_many(rep, [good[0], ((1, 1), (1, 1)), good[1], good[2]]))


def test_factorization_is_reverified(rep_cache, monkeypatch):
    # a wrong inverse gives shears that do not rebuild the element
    rep = rep_cache(7)
    real = ffcore.gauss_jordan_modp

    def wrong_inverse(m, p):
        det, inv, rank = real(m, p)
        return det, (inv + 1) % p, rank

    monkeypatch.setattr(ffcore, "gauss_jordan_modp", wrong_inverse)
    with pytest.raises(ConstructionError, match="does not reproduce"):
        build(rep, ((2, 1), (1, 1)))


@pytest.mark.parametrize("n,p", [(1, 3), (1, 43), (2, 5), (2, 11)])
def test_batched_egorov_equals_per_xi_loop(n, p):
    # the deviations of a whole stack and of one operator at a time against
    # the per-xi loop, exactly; at n = 2, p = 11 the stack's rows are compared
    # one at a time and a lone operator's in blocks of 33
    pm = PrimeModulus(p, n)
    rep = linearize(pm)
    draws = mats(random_sp(pm, random.Random(7), 20))
    bs = draws[:10] + [mat_mul(b1, b2, mod=p) for b1, b2 in zip(draws[:10], draws[10:])]
    ops = np.stack(list(build_many(rep, bs)))
    want = [egorov_deviation_loop(dense, b, pm) for b, dense in zip(bs, ops)]
    assert weil.egorov_deviation(ops, bs, pm).tolist() == want
    assert [weil.egorov_deviation(dense[None], [b], pm)[0]
            for b, dense in zip(bs, ops)] == want
    # a wrong operator is caught by both, with the same deviation
    dense = np.eye(pm.dim, dtype=complex)
    (dev,) = weil.egorov_deviation(dense[None], bs[:1], pm)
    assert dev > 0.1 and dev == egorov_deviation_loop(dense, bs[0], pm)


@pytest.mark.parametrize("n,p", [(1, 43), (2, 13)])
def test_plan_inverts_only_the_masks_it_needs(n, p, monkeypatch):
    # Bb first, the other masks only where Bb is singular: the same
    # factorizations and kernels as inverting every mask of every element,
    # on the relation pairs (the U(-S) branch) and on sampled pairs with
    # their products
    pm = PrimeModulus(p, n)
    rng = random.Random(p)
    d = 2 * n
    batch = np.concatenate([weil.relation_pairs(pm, rng).reshape(-1, d, d),
                            weil.pair_triples(random_sp(pm, rng, 80).reshape(-1, 2, d, d), pm)])
    fac = weil.factorize(pm, batch)
    assert fac.mask.any() and not fac.mask.all()
    monkeypatch.setattr(weil, "_first_invertible_mask", first_invertible_mask_all)
    ref = weil.factorize(pm, batch)
    got = [getattr(fac, f.name) for f in fields(fac)] + list(weil._kernel(pm, fac))
    want = [getattr(ref, f.name) for f in fields(ref)] + list(weil._kernel(pm, ref))
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def _elements_with_mask(pm, mask, count, rng):
    """(count, 2n, 2n) stack of shear(S1) dilate(M) U(T) whose first
    invertible mask is mask: T diagonal, 0 on the bits of mask and in
    1..p-2 off them.  Then Bb + A S' = M (T + S') is invertible for S' the
    mask's own S, and singular for every smaller mask, which misses one of
    its bits."""
    p, n = pm.p, pm.n
    s1, _, m, m_inv = weil._random_blocks(pm, rng, count)
    eye = np.broadcast_to(np.eye(n, dtype=np.int64), m.shape)
    zero = np.zeros_like(m)
    off = [[rng.randrange(1, p - 1) for _ in range(n)] for _ in range(count)]
    t = np.where(weil._mask_bits(n)[mask], 0, np.array(off, dtype=np.int64))
    shear = weil._assemble(eye, zero, -s1, eye, p)
    dilate = weil._assemble(m, zero, zero, m_inv.transpose(0, 2, 1), p)
    return shear @ dilate % p @ weil._assemble(eye, t[:, :, None] * eye, zero, eye, p) % p


@pytest.mark.parametrize("n,p", [(1, 7), (1, 43), (2, 5), (2, 13)])
def test_upper_shear_route_equals_the_dense_product(n, p, rep_cache):
    # rho(B) = rho(B U(S)) rho(U(-S)) for every mask, with rho(U(-S)) as the
    # dense product F diag(phase) F^3: build_many and apply_many over one
    # stack that mixes every mask, mask 0 (U(0) = I) too, so that chunks
    # hold operators with and without S
    pm = PrimeModulus(p, n)
    rep = rep_cache(p, n)
    rng = random.Random(p)
    masks = np.repeat(np.arange(2 ** n), 5)
    bs = np.concatenate([_elements_with_mask(pm, m, 5, rng) for m in range(2 ** n)])
    order = rng.sample(range(len(bs)), len(bs))
    bs, masks = bs[order], masks[order]
    assert np.array_equal(weil.factorize(pm, bs).mask, masks)
    eye, zero = np.eye(n, dtype=np.int64), np.zeros((n, n), dtype=np.int64)
    ups = np.stack([weil._assemble(eye[None], np.diag(weil._mask_bits(n)[m])[None],
                                   zero[None], eye[None], p)[0] for m in masks])
    shifted = bs @ ups % p                            # B U(S), mask 0
    assert not weil.factorize(pm, shifted).mask.any()
    x = weil.probe_block(pm, p)
    applied = rep.apply_many(bs, x)
    worst = 0.0
    for m, op, base, got in zip(masks, build_many(rep, bs), build_many(rep, shifted),
                                applied):
        want = base @ upper_shear_dense(rep, int(m))
        worst = max(worst, float(np.abs(op - want).max()),
                    float(np.abs(got - want @ x).max()))
    assert worst <= 1e-12


def test_certify_torus_reads_its_deadline(rep_cache, torus_cache):
    with pytest.raises(BudgetExceeded):
        rep, torus = rep_cache(11), torus_cache(11)
        weil.certify_torus(rep, torus, generator_ops(rep, torus), deadline=-1.0,
                           probe=weil.probe_block(PrimeModulus(11, 1), 11))


def test_streamed_operators_stay_under_the_trace_formula_peak(rep_cache):
    pm = PrimeModulus(43, 1)
    rep = rep_cache(43)
    rng = random.Random(1)
    bs = random_sp(pm, rng, 1000)
    xis = [(1, 0), (0, 1)] + [(rng.randrange(43), rng.randrange(43)) for _ in range(50)]
    tracemalloc.start()
    try:
        worst = 0.0
        for b, dense in zip(bs, build_many(rep, bs)):
            worst = max(worst, egorov_deviation_loop(dense, b, pm, xis))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert worst < 1e-12
    assert peak <= TRACE_FORMULA_PEAK_BYTES


@pytest.mark.parametrize("check", ["egorov", "multiplicativity"])
def test_identity_checks_stay_under_the_trace_formula_peak(check, cat_map):
    # one chunk of operators at a time: no stack of every sampled B1, B2 and
    # B1 B2, and no list of the torus certificate's products
    from torusque import cli
    from torusque.quevaluator import PrimeContext
    ctx = PrimeContext.build(cat_map, PrimeModulus(43, 1))
    ctx.decomposition
    tracemalloc.start()
    try:
        res = cli._CHECK_RUNNERS[check](ctx, random.Random(43))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.status == "pass"
    assert peak <= TRACE_FORMULA_PEAK_BYTES
