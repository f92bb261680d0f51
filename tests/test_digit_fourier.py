"""rho(fourier) one digit at a time, and the monomial kernel where Bb = 0.

`WeilRep` keeps the p x p one-digit kernels F1 and V_1 and never forms the
p^n x p^n rho(fourier).  Its applies, its dense operators, the Egorov
probe and the torus certificate are held here to the dense route they
replace (`oracles.dense_route_apply`, `oracles.dense_route_ops`: every
element factored as B U(S) with the dense F and rho(U(-S)) = F diag F^H,
Bb = 0 included; `weil.egorov_on_probe` read by dense operators and
`oracles.egorov_probe_loop`; `oracles.certify_torus_dense`: the probe
stepped by dense generator operators) at n = 1, 2 and 3.  The elements mix the three
kernel kinds: big-cell samples, products of them and elements built with a
singular nonzero Bb (n >= 2), and every element with Bb = 0 of the
relation pairs.
"""

import random
from itertools import product

import numpy as np
import pytest

from torusque import cli, hecke, weil
from torusque.ffcore import PrimeModulus, mat_inv_modp
from torusque.hecke import HeckeTorus
from torusque.heisenberg import root_table
from torusque.quevaluator import PrimeContext

from oracles import (build_many, certify_torus_dense, dense_route_apply, dense_route_ops,
                     egorov_probe_loop, generator_ops, mats)

CASES = [(1, 3), (1, 7), (1, 43), (2, 5), (2, 7), (2, 13), (3, 3), (3, 5)]


def _singular_upper(pm, rng, count):
    """(count, 2n, 2n) stack of shear(S) dilate(M) U(T), T diagonal 0/1 with
    at least one 0 and one 1: Bb = M T is singular and nonzero."""
    p, n = pm.p, pm.n
    s, _, m, m_inv = weil._random_blocks(pm, rng, count)
    eye = np.broadcast_to(np.eye(n, dtype=np.int64), m.shape)
    zero = np.zeros_like(m)
    t = np.array([[j == i % n for j in range(n)] for i in range(count)])[:, None] * eye
    shear_dilate = weil._assemble(m, zero, -s @ m, m_inv.transpose(0, 2, 1), p)
    return shear_dilate @ weil._assemble(eye, t, zero, eye, p) % p


def _mixed_elements(pm, seed):
    """Big-cell samples, their products, singular nonzero Bb (n >= 2) and
    every element of the relation pairs, Bb = 0 included."""
    rng = random.Random(seed)
    d = 2 * pm.n
    draws = weil.random_sp(pm, rng, 24)
    parts = [draws, draws[:12] @ draws[12:] % pm.p,
             weil.relation_pairs(pm, rng).reshape(-1, d, d)]
    if pm.n > 1:
        parts.append(_singular_upper(pm, rng, 6))
    return np.concatenate(parts)


@pytest.mark.parametrize("n,p", CASES)
def test_applies_and_dense_operators_equal_the_dense_route(n, p, rep_cache):
    pm = PrimeModulus(p, n)
    rep = rep_cache(p, n)
    bs = _mixed_elements(pm, 10 * p + n)
    fac = weil.factorize(pm, bs)
    bb_zero = ~bs[:, :n, n:].any(axis=(1, 2))
    assert np.array_equal(fac.monomial, bb_zero) and bb_zero.any()
    # at n = 1 a singular Bb is 0; above, every S != 0 branch is taken
    assert fac.mask.any() == (n > 1) and not fac.mask[fac.monomial].any()
    x = weil.probe_block(pm, p)
    own = np.stack([weil.probe_block(pm, i) for i in range(len(bs))])
    assert np.abs(rep.apply_many(bs, x) - dense_route_apply(rep, bs, x)).max() <= 1e-12
    assert np.abs(rep.apply_many(bs, own) - dense_route_apply(rep, bs, own)).max() <= 1e-12
    for lo in range(0, len(bs), 32):
        part = bs[lo:lo + 32]
        dense = np.stack(list(build_many(rep, part)))
        assert np.abs(dense - dense_route_ops(rep, part)).max() <= 1e-12


@pytest.mark.parametrize("n,p", CASES)
def test_egorov_on_the_probe_equals_the_dense_reading(n, p, rep_cache):
    # the Egorov probe on the apply route against the same probe read by
    # dense operators (build_many's rho(B) times the stacked block) and, one
    # unit vector at a time, by the per-xi loop; then with one operator's
    # rows scaled by non-scalar phases on both routes
    pm = PrimeModulus(p, n)
    rep = rep_cache(p, n)
    bs = _mixed_elements(pm, 10 * p + n)[::4]
    fac = weil.factorize(pm, bs)
    assert fac.monomial.any() and fac.mask.any() == (n > 1)
    x = weil.probe_block(pm, p)
    dense = np.stack(list(build_many(rep, bs)))
    got = weil.egorov_on_probe(lambda z: rep.apply_many(bs, z), bs, pm, x)
    want = weil.egorov_on_probe(lambda z: dense @ z, bs, pm, x)
    assert got.max() <= 1e-8 and np.abs(got - want).max() <= 1e-12
    loop = [egorov_probe_loop(op, b, pm, x) for b, op in zip(bs[:4], dense)]
    assert np.abs(got[:4] - loop).max() <= 1e-12
    phases = np.exp(2j * np.pi * np.arange(pm.dim) / pm.dim)[:, None]
    dense[1] *= phases

    def corrupted(z):
        out = rep.apply_many(bs, z)
        out[1] *= phases
        return out

    got = weil.egorov_on_probe(corrupted, bs, pm, x)
    want = weil.egorov_on_probe(lambda z: dense @ z, bs, pm, x)
    assert got[1] > 0.1 and np.delete(got, 1).max() <= 1e-8
    assert np.abs(got - want).max() <= 1e-12
    assert abs(got[1] - egorov_probe_loop(dense[1], bs[1], pm, x)) <= 1e-12


def _conjugated_diagonal_torus(pm, seed):
    """The diagonal torus of Sp(2n, F_p) conjugated by a random big-cell
    element g: g diag(a, 1/a) g^-1, so its generators have Fourier kernels."""
    p, n = pm.p, pm.n
    g = weil.random_sp(pm, random.Random(seed), 1)[0]
    g_inv = np.array(mat_inv_modp(tuple(map(tuple, g.tolist())), p), dtype=np.int64)
    diagonal = []
    for a in product(range(1, p), repeat=n):
        inv = [pow(x, -1, p) for x in a]
        diagonal.append(np.diag(list(a) + inv))
    elements = mats(g @ np.array(diagonal, dtype=np.int64) % p @ g_inv % p)
    generators, dlog = hecke.torus_structure(elements, p)
    return HeckeTorus(pm, elements, "split", [1] * (2 * n), generators, dlog)


@pytest.mark.parametrize("n,p", CASES)
def test_torus_certificate_equals_the_dense_stepping(n, p, rep_cache, torus_cache):
    pm = PrimeModulus(p, n)
    rep = rep_cache(p, n)
    torus = torus_cache(p, n) if n < 3 else _conjugated_diagonal_torus(pm, p)
    x = weil.probe_block(pm, p)
    got = weil.certify_torus(rep, torus, probe=x)
    want = certify_torus_dense(rep, torus, generator_ops(rep, torus), probe=x)
    assert got <= 1e-8 and want <= 1e-8
    assert abs(got - want) <= 1e-12


def test_v1_is_the_one_digit_factor_of_the_upper_shear(rep_cache):
    # V_1 = F1 diag(psi(-nu a^2)) F1^H, read in closed form
    for p in (3, 7, 43):
        rep = rep_cache(p)
        a = np.arange(p)
        want = (rep.f1 * root_table(p)[-rep.pm.nu * a * a % p]) @ rep.f1.conj().T
        assert np.abs(rep.v1 - want).max() <= 1e-14


@pytest.mark.parametrize("n,p", [(1, 7), (2, 5)])
def test_a_flipped_monomial_phase_fails_multiplicativity(n, p, cat_map, sp4_elem,
                                                         monkeypatch):
    # one row phase of every monomial kernel negated: the shear and dilation
    # relation pairs no longer hold, in the certificate and in the sweep check
    pm = PrimeModulus(p, n)
    ctx = PrimeContext.build(cat_map if n == 1 else sp4_elem, pm)
    pairs = weil.relation_pairs(pm, random.Random(p))
    probe = weil.probe_block(pm, p)
    assert weil.check_multiplicativity(ctx.rep, pairs, probe=probe).ok
    real = weil._kernel

    def flipped(rep, fac):
        src, row, *rest = real(rep, fac)
        row[fac.monomial, 1] *= -1
        return (src, row, *rest)

    monkeypatch.setattr(weil, "_kernel", flipped)
    rpt = weil.check_multiplicativity(ctx.rep, pairs, probe=probe)
    assert not rpt.ok and rpt.max_dev > 0.1
    assert cli._check_multiplicativity(ctx, random.Random(p)).status == "fail"
