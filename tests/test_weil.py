import random
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from torusque import cli, ffcore, weil
from torusque.ffcore import PrimeModulus, identity_mat, legendre, mat_mod, mat_mul
from torusque.heisenberg import pi_op
from torusque.quevaluator import PrimeContext
from torusque.weil import (ConstructionError, linearize, random_sp, solve_gamma,
                           sp_elements)

from oracles import (SpFactor, build, build_many, certify_torus_dense, dense_ops, dilate_matrix,
                     dilate_op, egorov_deviation_loop, egorov_probe_loop, fourier_matrix,
                     fourier_op, generator_ops, linearize_on_torus, mat_det, mat_neg,
                     mat_transpose, mats, schur_intertwiner, shear_matrix, shear_op,
                     solve_gamma_dense, sp_blocks, sp_word, torus_pair_scan, word_matrix,
                     word_operator)


def test_dilate_identity():
    pm = PrimeModulus(7, 1)
    assert np.abs(dilate_op(((1,),), pm) - np.eye(7)).max() == 0


def test_dilate_egorov_action():
    # conjugation sends T(lam, mu) to T(a lam, mu / a)
    pm = PrimeModulus(7, 1)
    for a in range(2, 7):
        t = dilate_op(((a,),), pm)
        for lam in range(7):
            for mu in range(7):
                lhs = t @ pi_op((lam, mu), pm) @ t.conj().T
                rhs = pi_op((a * lam, mu * pow(a, -1, 7)), pm)
                assert np.abs(lhs - rhs).max() < 1e-12


def test_shear_rejects_asymmetric():
    pm = PrimeModulus(5, 2)
    with pytest.raises(ValueError):
        shear_op(((0, 1), (2, 0)), pm)


def test_dilate_rejects_singular():
    pm = PrimeModulus(5, 2)
    with pytest.raises(ValueError):
        dilate_op(((1, 2), (2, 4)), pm)


def test_fourier_squared_is_parity():
    pm = PrimeModulus(7, 1)
    f = fourier_op(pm, 1.0)
    parity = np.zeros((7, 7))
    for x in range(7):
        parity[x, (-x) % 7] = 1.0
    assert np.abs(f @ f - parity).max() < 1e-12
    assert np.abs(np.linalg.matrix_power(f, 4) - np.eye(7)).max() < 1e-12


def test_rep_fourier_powers(rep_cache):
    # rho(w)^2 = gamma^2 * parity, rho(w)^4 proportional to the identity
    pm = PrimeModulus(7, 1)
    rep = rep_cache(7)
    w = build(rep, fourier_matrix(pm))
    assert np.abs(w - rep.gamma * rep.f1).max() < 1e-12
    parity = np.zeros((7, 7))
    for x in range(7):
        parity[x, (-x) % 7] = 1.0
    assert np.abs(w @ w - rep.gamma ** 2 * parity).max() < 1e-12
    w4 = np.linalg.matrix_power(w, 4)
    assert np.abs(w4 - w4[0, 0] * np.eye(7)).max() < 1e-12
    assert abs(abs(w4[0, 0]) - 1) < 1e-12


def test_sl2_word_shapes():
    # at n = 1, no fourier factor when the upper-right entry vanishes
    for p in (5, 11):
        pm = PrimeModulus(p, 1)
        word = sp_word(((1, 0), (3, 1)), pm)
        assert [f.kind for f in word] == ["shear"]
        word = sp_word(((0, 1), (-1, 0)), pm)
        assert [f.kind for f in word] == ["fourier"]
        word = sp_word(((2, 0), (0, pow(2, -1, p))), pm)
        assert [f.kind for f in word] == ["dilate"]
    # cat map mod 5: word re-multiplies to the matrix (checked inside sp_word)
    word = sp_word(((2, 1), (1, 1)), PrimeModulus(5, 1))
    assert len(word) <= 4
    assert word_matrix(word, PrimeModulus(5, 1)) == ((2, 1), (1, 1))


def test_sl2_word_rejects_non_sl2():
    with pytest.raises(ValueError):
        sp_word(((1, 1), (1, 1)), PrimeModulus(5, 1))


def test_gamma_solved_values():
    # gamma is a unimodular solution of gamma^2 = legendre(-1), gamma^3 = 1/c
    for p in (3, 5, 7, 11):
        pm = PrimeModulus(p, 1)
        gamma = solve_gamma(pm)
        assert abs(abs(gamma) - 1) < 1e-12
        assert abs(gamma * gamma - legendre(-1, p)) < 1e-9
    pm3 = PrimeModulus(3, 1)
    assert abs(solve_gamma(pm3) - (-1j)) < 1e-12


@pytest.mark.parametrize("n,p", [(1, p) for p in ffcore.odd_primes(3, 97)]
                         + [(2, p) for p in (3, 5, 7, 11, 13)])
def test_gamma_matches_dense_cube(n, p):
    pm = PrimeModulus(p, n)
    assert abs(solve_gamma(pm) - solve_gamma_dense(pm)) < 1e-12


def test_gamma_rejects_a_cube_that_is_not_scalar(monkeypatch):
    # one root of unity off by a 1e-6 phase in D_I (F1 reads heisenberg's
    # table): K^3 is no longer scalar, and the probe block sees it
    real = weil.root_table

    def corrupted(p):
        out = real(p).copy()
        out[1] *= np.exp(1e-6j)
        return out

    monkeypatch.setattr(weil, "root_table", corrupted)
    pm = PrimeModulus(7, 1)
    with pytest.raises(ConstructionError, match="not scalar"):
        solve_gamma(pm)


def test_linearize_identity(rep_cache):
    rep = rep_cache(5)
    assert np.abs(build(rep, identity_mat(2)) - np.eye(5)).max() < 1e-12


def test_multiplicativity_exhaustive_small(rep_cache):
    r3 = weil.check_multiplicativity(rep_cache(3), tol=1e-9,
                                     probe=weil.probe_block(PrimeModulus(3, 1), 0))
    assert r3.ok and r3.pairs_checked == 576
    r5 = weil.check_multiplicativity(rep_cache(5), tol=1e-9,
                                     probe=weil.probe_block(PrimeModulus(5, 1), 0))
    assert r5.ok and r5.pairs_checked == 14400


def test_multiplicativity_sampled_larger(rep_cache):
    rng = random.Random(3)
    for p in (7, 11):
        draws = random_sp(PrimeModulus(p, 1), rng, 1000)
        r = weil.check_multiplicativity(rep_cache(p), list(zip(draws[::2], draws[1::2])),
                                        probe=weil.probe_block(PrimeModulus(p, 1), p))
        assert r.ok and r.pairs_checked == 500


def test_egorov_all_elements_small(rep_cache):
    rng = np.random.default_rng(11)
    for p in (3, 5):
        pm = PrimeModulus(p, 1)
        rep = rep_cache(p)
        xis = [(1, 0), (0, 1)] + [tuple(int(x) for x in rng.integers(0, p, 2))
                                  for _ in range(50)]
        tol = 1e-9 * p ** 0.5
        group = sp_elements(pm)
        for b, dense in zip(group, build_many(rep, group)):
            assert egorov_deviation_loop(dense, b, pm, xis) < tol


def test_unitarity_of_rep(rep_cache):
    rep = rep_cache(7)
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b, c = (int(x) for x in rng.integers(0, 7, 3))
        if a == 0:
            continue
        d = (1 + b * c) * pow(a, -1, 7) % 7
        r = build(rep, ((a, b), (c, d)))
        assert np.abs(r @ r.conj().T - np.eye(7)).max() < 1e-12


def test_trace_fixed_point_identity(rep_cache):
    # |Tr rho(B)| = p^(dim ker(B - I)/2); confirmed by an oracle sweep first
    for p in (3, 5):
        rep = rep_cache(p)
        group = sp_elements(PrimeModulus(p, 1))
        for b, dense in zip(group, build_many(rep, group)):
            m = ((b[0][0] - 1) % p, b[0][1] % p), (b[1][0] % p, (b[1][1] - 1) % p)
            det = (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % p
            if det:
                ker = 0
            elif any(x % p for row in m for x in row):
                ker = 1
            else:
                ker = 2
            assert abs(abs(np.trace(dense)) - p ** (ker / 2)) < 1e-10


def test_word_operator_matches_rep(rep_cache):
    pm = PrimeModulus(7, 1)
    rep = rep_cache(7)
    word = [SpFactor("shear", ((3,),)), SpFactor("fourier"),
            SpFactor("dilate", ((2,),))]
    b = word_matrix(word, pm)
    assert np.abs(word_operator(word, pm, rep.gamma) - build(rep, b)).max() < 1e-9


def test_schur_intertwiner_identity_is_scalar():
    pm = PrimeModulus(5, 1)
    rng = np.random.default_rng(1)
    w = schur_intertwiner(identity_mat(2), pm, rng)
    off = w - w[0, 0] * np.eye(5)
    assert np.abs(off).max() < 1e-9
    assert abs(abs(w[0, 0]) - 1) < 1e-9


def test_schur_intertwiner_seed_independence_up_to_phase():
    pm = PrimeModulus(5, 1)
    b = ((2, 1), (1, 1))
    w1 = schur_intertwiner(b, pm, np.random.default_rng(10))
    w2 = schur_intertwiner(b, pm, np.random.default_rng(99))
    ratio = w1 @ w2.conj().T
    phase = ratio[0, 0]
    assert abs(abs(phase) - 1) < 1e-9
    assert np.abs(ratio - phase * np.eye(5)).max() < 1e-8


def test_schur_intertwiner_fourier_proportional():
    pm = PrimeModulus(5, 1)
    rng = np.random.default_rng(3)
    w = schur_intertwiner(fourier_matrix(pm), pm, rng)
    f = fourier_op(pm, 1.0)
    ratio = w @ np.linalg.inv(f)
    phase = ratio[0, 0]
    assert np.abs(ratio - phase * np.eye(5)).max() < 1e-8


def test_egorov_failure_detected():
    # the identity is no rho of a shear: the Egorov check on the probe
    # rejects it, and holds the true rho of the shear to 1e-8
    pm = PrimeModulus(5, 1)
    b = ((1, 1), (0, 1))
    (dev,) = weil.egorov_on_probe(lambda z: z[None], [b], pm)
    assert dev > 0.1
    x = weil.probe_block(pm, 0)
    assert abs(dev - egorov_probe_loop(np.eye(5, dtype=complex), b, pm, x)) <= 1e-12
    shear = build(linearize(pm), b)
    assert weil.egorov_on_probe(lambda z: shear[None] @ z, [b], pm)[0] <= 1e-8


def _decomposition_check_with(monkeypatch, elem, pm, name, corrupted):
    """The decomposition of elem at pm, and its sweep check, with the
    WeilRep method name replaced by corrupted: the exception it raises and
    the check's one result."""
    monkeypatch.setattr(weil.WeilRep, name, corrupted)
    with pytest.raises(Exception) as raised:
        PrimeContext.build(elem, pm).decomposition
    cfg = cli.SweepConfig(n=pm.n, pmin=pm.p, pmax=pm.p, checks=("decomposition",),
                          deterministic=True)
    report = cli.run_prime(elem, pm.p, cfg, {"relation_sign": 1})
    monkeypatch.undo()
    assert report["routes"] == {}
    (res,) = report["checks"]
    return raised.value, res


def test_corrupted_generator_operator_fails_the_egorov_check(cat_map, sp4_elem,
                                                             monkeypatch):
    # rho(g) times a non-scalar diagonal unitary in apply_many's output, for
    # the last torus generator only (n = 1, p = 7: the one generator; n = 2,
    # p = 13: the second of two): the decomposition's Egorov certificate on
    # the apply route raises, and the sweep check that reads it reports the
    # error as a failure
    real = weil.WeilRep.apply_many
    for elem, pm in ((cat_map, PrimeModulus(7, 1)), (sp4_elem, PrimeModulus(13, 2))):
        g = PrimeContext.build(elem, pm).torus.generators[-1][0]
        phases = np.exp(2j * np.pi * np.random.default_rng(pm.p).random(pm.dim))

        def corrupted(self, bs, z, deadline=None):
            out = real(self, bs, z, deadline)
            for k, b in enumerate(bs.elements if isinstance(bs, weil.Factorization) else bs):
                if np.array_equal(b, g):
                    out[k] = phases[:, None] * out[k]
            return out

        err, res = _decomposition_check_with(monkeypatch, elem, pm, "apply_many", corrupted)
        assert isinstance(err, ConstructionError) and "Egorov deviation" in str(err)
        assert res["status"] == "fail"
        assert res["witnesses"][0]["error"].startswith("ConstructionError: Egorov deviation")


def test_corrupted_dense_generator_fails_the_decomposition_check(cat_map, sp4_elem,
                                                                monkeypatch):
    # one entry of rho(g) scaled in the operator build_chunks forms, for the
    # last torus generator only: H is summed from it, and its eigenvectors
    # fail the certificate read on the apply route under every coefficient
    # row; the sweep check reports the error as a failure, not a pass
    real = weil.WeilRep.build_chunks
    for elem, pm in ((cat_map, PrimeModulus(7, 1)), (sp4_elem, PrimeModulus(13, 2))):
        g = PrimeContext.build(elem, pm).torus.generators[-1][0]

        def corrupted(self, bs, deadline=None):
            bs, lo = list(bs), 0
            for stack in real(self, bs, deadline):
                for k, b in enumerate(bs[lo:lo + len(stack)]):
                    if np.array_equal(b, g):
                        stack[k, 1, 2] *= 1.5
                lo += len(stack)
                yield stack

        err, res = _decomposition_check_with(monkeypatch, elem, pm, "build_chunks", corrupted)
        assert isinstance(err, RuntimeError) and "eigenvector certificate" in str(err)
        assert res["status"] == "fail"
        assert res["witnesses"][0]["error"].startswith("RuntimeError: eigenvector certificate")


def test_corrupted_shear_diagonal_fails_linearize(monkeypatch):
    # rho(shear(I)) is checked once, at construction, and is not kept
    real = weil._diagonal_shear_expo
    calls = []

    def corrupted(pm, mask):
        calls.append(mask)
        expo = real(pm, mask).copy()
        if len(calls) == 2:             # solve_gamma reads the true diagonal
            expo[1] = (expo[1] + 1) % pm.p
        return expo

    monkeypatch.setattr(weil, "_diagonal_shear_expo", corrupted)
    with pytest.raises(ConstructionError, match="Egorov deviation"):
        linearize(PrimeModulus(5, 1))
    assert len(calls) == 2


def test_corrupted_fourier_kernel_fails_linearize(monkeypatch):
    # F1 with one column phase-shifted is no rho(fourier) factor: linearize
    # rejects it on the probe; solve_gamma still reads the true kernel
    real = weil.digit_kernel
    calls = []

    def corrupted(p):
        calls.append(p)
        out = real(p)
        if len(calls) == 2:             # the kernel WeilRep keeps as F1
            out[:, 1] *= np.exp(0.5j)
        return out

    monkeypatch.setattr(weil, "digit_kernel", corrupted)
    with pytest.raises(ConstructionError, match="Egorov deviation"):
        linearize(PrimeModulus(7, 1))
    assert calls == [7, 7]


def _phase_dev(a, b):
    """Distance of a b^dagger from a unimodular multiple of the identity."""
    ratio = a @ b.conj().T
    phase = ratio[0, 0]
    return max(abs(abs(phase) - 1), float(np.abs(ratio - phase * np.eye(len(a))).max()))


def test_weilrep_n2_dispatch(sp4_elem):
    # every element is built along its sp_word: generator shapes reproduce the
    # generator formulas, and a general element agrees with the Schur-averaged
    # intertwiner (the oracle) up to a phase
    pm = PrimeModulus(3, 2)
    rep = linearize(pm)
    s = ((1, 2), (2, 0))
    b_shear = shear_matrix(s, pm)
    m = ((2, 1), (0, 1))
    b_dil = dilate_matrix(m, pm)
    b_f = mat_mod(fourier_matrix(pm), 3)
    b = mat_mod(sp4_elem.matrix, 3)
    op_shear, op_dil, op_f, w = build_many(rep, [b_shear, b_dil, b_f, b])
    assert np.abs(op_shear - shear_op(s, pm)).max() < 1e-12
    assert np.abs(op_dil - dilate_op(m, pm)).max() < 1e-12
    # the closed-form kernel of fourier equals the generator formula, which
    # rep keeps as its one-digit factor F1
    assert np.abs(op_f - fourier_op(pm, rep.gamma)).max() < 1e-12
    assert np.abs(np.kron(rep.f1, rep.f1) - fourier_op(pm)).max() < 1e-12
    # shears and dilations (Bb = 0) take the monomial kernel, fourier S = 0
    fac = weil.factorize(pm, [b_shear, b_dil, b_f])
    assert fac.monomial.tolist() == [True, True, False] and fac.mask.tolist() == [0, 0, 0]
    assert np.abs(w @ w.conj().T - np.eye(9)).max() < 1e-9
    assert egorov_deviation_loop(w, b, pm) < 1e-9 * 3
    assert _phase_dev(w, schur_intertwiner(b, pm, np.random.default_rng(0))) < 1e-9


def _random_sp(pm, rng, length=6):
    """A random element of Sp(2n, F_p) as a product of random generators."""
    p, n = pm.p, pm.n
    word = []
    for _ in range(length):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            s = rng.integers(0, p, size=(n, n))
            s = (s + s.T) % p
            word.append(SpFactor("shear", tuple(tuple(int(x) for x in r) for r in s)))
        elif kind == 1:
            while True:
                m = tuple(tuple(int(x) for x in rng.integers(0, p, n)) for _ in range(n))
                if mat_det(m) % p:
                    break
            word.append(SpFactor("dilate", m))
        else:
            word.append(SpFactor("fourier"))
    return word_matrix(word, pm)


def _top_right_rank(b, p):
    bb = ((b[0][2], b[0][3]), (b[1][2], b[1][3]))
    if (bb[0][0] * bb[1][1] - bb[0][1] * bb[1][0]) % p:
        return 2
    return 1 if any(x % p for row in bb for x in row) else 0


def test_sp_word_bruhat_cells():
    # the word has no Fourier factor when the upper-right block vanishes, one
    # when it is invertible, and one more for each of the four in U(-S) when
    # it has rank 1
    for p in (3, 5):
        pm = PrimeModulus(p, 2)
        rep = linearize(pm)
        rng = np.random.default_rng(p)
        seen = set()
        bs = [_random_sp(pm, rng) for _ in range(60)]
        for b, w in zip(bs, build_many(rep, bs)):
            rank = _top_right_rank(b, p)
            seen.add(rank)
            word = sp_word(b, pm)
            assert word_matrix(word, pm) == b
            assert sum(f.kind == "fourier" for f in word) == {0: 0, 1: 5, 2: 1}[rank]
            assert np.abs(w @ w.conj().T - np.eye(p * p)).max() < 1e-9
            assert egorov_deviation_loop(w, b, pm) < 1e-9 * p
        assert seen == {0, 1, 2}


def test_sp_word_rejects_non_symplectic():
    with pytest.raises(ValueError):
        sp_word(((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
                     PrimeModulus(5, 2))


def test_sp4_pair_multiplicativity():
    for p in (3, 5, 7):
        pm = PrimeModulus(p, 2)
        rep = linearize(pm)
        rng = np.random.default_rng(100 + p)
        ranks = set()
        worst = 0.0
        triples = []
        for _ in range(30):
            b1, b2 = _random_sp(pm, rng), _random_sp(pm, rng)
            triples += [b1, b2, mat_mul(b1, b2, mod=p)]
        ranks.update(_top_right_rank(b, p) for b in triples)
        ops = build_many(rep, triples)
        for r1, r2, r12 in zip(ops, ops, ops):
            worst = max(worst, float(np.abs(r1 @ r2 - r12).max()))
        assert ranks == {0, 1, 2}
        assert worst < 1e-9


def test_sp_word_matches_schur_oracle(sp4_elem, torus_cache):
    for p in (3, 5):
        pm = PrimeModulus(p, 2)
        rep = linearize(pm)
        torus = torus_cache(p, 2)
        targets = [mat_mod(sp4_elem.matrix, p)] + [g for g, _ in torus.generators]
        for i, (b, dense) in enumerate(zip(targets, build_many(rep, targets))):
            oracle = schur_intertwiner(b, pm, np.random.default_rng(i))
            assert _phase_dev(dense, oracle) < 1e-9


def _sl2_word_oracle(b, p):
    """Scalar closed form of the SL2 word, independent of sp_word's block code:
    [[a, 0], [c, 1/a]] = dilate(a) shear(-a c), and for b != 0
    [[a, b], [c, d]] = shear(-d/b) dilate(b) fourier shear(-a/b)."""
    a, bb, c, d = b[0][0] % p, b[0][1] % p, b[1][0] % p, b[1][1] % p
    word = []
    if bb == 0:
        if a != 1:
            word.append(SpFactor("dilate", ((a,),)))
        if (-a * c) % p:
            word.append(SpFactor("shear", (((-a * c) % p,),)))
        return word
    binv = pow(bb, -1, p)
    if (-d * binv) % p:
        word.append(SpFactor("shear", (((-d * binv) % p,),)))
    if bb != 1:
        word.append(SpFactor("dilate", ((bb,),)))
    word.append(SpFactor("fourier"))
    if (-a * binv) % p:
        word.append(SpFactor("shear", (((-a * binv) % p,),)))
    return word


def test_sp_word_equals_sl2_word():
    # all of SL2(F_p) for p <= 7, and the sampled multiplicativity check's
    # draws across the n = 1 sweep range
    for p in (3, 5, 7):
        pm = PrimeModulus(p, 1)
        for b in sp_elements(PrimeModulus(p, 1)):
            assert sp_word(b, pm) == _sl2_word_oracle(b, p)
    rng = random.Random(5)
    for p in (11, 13, 29, 43, 61, 97):
        pm = PrimeModulus(p, 1)
        for b in mats(random_sp(pm, rng, 300)):
            assert sp_word(b, pm) == _sl2_word_oracle(b, p)


def test_torus_twist_covers_every_element(rep_cache, torus_cache):
    torus = torus_cache(5, 2)
    trep = linearize_on_torus(torus, rep_cache(5, 2),
                              root_index=(1,) * len(torus.generators))
    assert trep.keys() == set(torus.elements)
    for b1 in torus.elements[:5]:
        for b2 in torus.elements[:5]:
            prod = mat_mul(b1, b2, mod=5)
            assert np.abs(trep[b1] @ trep[b2] - trep[prod]).max() < 1e-9


def test_torus_linearization_orders(cat_map, rep_cache, torus_cache):
    torus = torus_cache(7)
    trep = linearize_on_torus(torus, rep_cache(7))
    for g, order in torus.generators:
        power = np.linalg.matrix_power(trep[g], order)
        assert np.abs(power - np.eye(7)).max() < 1e-9
    # honest homomorphism on the whole torus
    for b1 in torus.elements[:4]:
        for b2 in torus.elements[:4]:
            prod = mat_mul(b1, b2, mod=7)
            assert np.abs(trep[b1] @ trep[b2] - trep[prod]).max() < 1e-9


def test_torus_linearization_agrees_with_full_rep(rep_cache, torus_cache):
    # the canonical rep restricted to the torus equals one root choice
    torus = torus_cache(7)
    rep = rep_cache(7)
    ops = dense_ops(rep, torus.elements)
    g, order = torus.generators[0]
    matches = 0
    for ridx in range(order):
        trep = linearize_on_torus(torus, rep, root_index=ridx)
        dev = max(float(np.abs(trep[b] - ops[b]).max())
                  for b in torus.elements)
        if dev < 1e-8:
            matches += 1
    assert matches == 1


def test_two_root_choices_twist_by_character(rep_cache, torus_cache):
    # alternative root choices differ elementwise by an exact character
    torus = torus_cache(7)
    t0 = linearize_on_torus(torus, rep_cache(7), root_index=0)
    t1 = linearize_on_torus(torus, rep_cache(7), root_index=1)
    g, order = torus.generators[0]
    zeta = np.exp(2j * np.pi / order)
    for b, exps in torus.dlog.items():
        ratio = t1[b] @ np.linalg.inv(t0[b])
        expected = zeta ** (-exps[0] % order)
        assert np.abs(ratio - expected * np.eye(7)).max() < 1e-8


@pytest.mark.parametrize("n,p", [(1, 3), (1, 13), (2, 3), (2, 7), (3, 3)])
def test_random_sp_is_its_bruhat_word(n, p):
    # every sample is symplectic with an invertible upper-right block M, and
    # is the product shear(S1) dilate(M) fourier shear(S2) with S1 = -D M^-1
    # and S2 = -M^-1 A symmetric
    pm = PrimeModulus(p, n)
    draws = random_sp(pm, random.Random(n * p), 50)
    assert draws.dtype == np.int64 and draws.shape == (50, 2 * n, 2 * n)
    for b in mats(draws):
        assert ffcore.is_symplectic(b, p=p)
        a, m, _, d = sp_blocks(b, n)
        m_inv = ffcore.mat_inv_modp(m, p)
        s1 = mat_neg(mat_mul(d, m_inv, mod=p), mod=p)
        s2 = mat_neg(mat_mul(m_inv, a, mod=p), mod=p)
        assert s1 == mat_transpose(s1) and s2 == mat_transpose(s2)
        word = [SpFactor("shear", s1), SpFactor("dilate", m), SpFactor("fourier"),
                SpFactor("shear", s2)]
        assert word_matrix(word, pm) == b


def test_random_sp_reaches_every_sp_word_branch():
    # the samples take sp_word's invertible-Bb branch; their products also
    # take the singular-nonzero-Bb one and the Bb = 0 one.  Any seed does:
    # Bb of B1 B2 is -M1 (S2 + S1') M2, with S2 of B1 and S1' of B2 drawn
    # uniform symmetric, so it is 0 with probability 1/125 and of rank 1
    # with probability 24/125.  Of the 3600 products (60 values of S2
    # against 60 of S1'), none has rank 0 with probability about
    # (124/125)^3600 < e^-28.
    pm = PrimeModulus(5, 2)
    draws = random_sp(pm, random.Random(0), 200)
    prods = [mat_mul(b1, b2, mod=5) for b1, b2 in product(draws[:60], repeat=2)]
    assert {_top_right_rank(b, 5) for b in draws} == {2}
    assert {_top_right_rank(b, 5) for b in prods} == {0, 1, 2}


def _doolittle(m, p):
    """(L, U) with L unit lower and U upper triangular, L U = m mod p, for a
    (k, n, n) stack whose leading minors are units."""
    n = m.shape[1]
    lo, up = np.zeros_like(m), np.zeros_like(m)
    inverse = ffcore.unit_inverses(p)
    for i in range(n):
        lo[:, i, i] = 1
        up[:, i, i:] = (m[:, i, i:] - np.einsum("kj,kjl->kl", lo[:, i, :i],
                                                up[:, :i, i:])) % p
        assert (up[:, i, i] != 0).all()
        lo[:, i + 1:, i] = (m[:, i + 1:, i] - np.einsum("kjl,kl->kj", lo[:, i + 1:, :i],
                                                        up[:, :i, i])) % p \
            * inverse[up[:, i, i]][:, None] % p
    return lo, up


@pytest.mark.parametrize("n,p", [(1, 3), (1, 43), (2, 3), (2, 13), (3, 7)])
def test_random_blocks_from_random_random(n, p):
    # S1, S2 uniform symmetric and M = L U with diag(U) != 0, every entry in
    # range; M^-1 inverts M; the same seed gives the same stacks
    pm = PrimeModulus(p, n)
    blocks = weil._random_blocks(pm, random.Random(p), 200)
    s1, s2, m, m_inv = blocks
    for block in blocks:
        assert block.dtype == np.int64 and block.shape == (200, n, n)
        assert ((block >= 0) & (block < p)).all()
    for s in (s1, s2):
        assert np.array_equal(s, s.transpose(0, 2, 1))
    lo, up = _doolittle(m, p)
    assert np.array_equal(lo @ up % p, m)
    eye = np.eye(n, dtype=np.int64)
    assert (m @ m_inv % p == eye).all() and (m_inv @ m % p == eye).all()
    again = weil._random_blocks(pm, random.Random(p), 200)
    assert all(np.array_equal(a, b) for a, b in zip(blocks, again))
    assert not np.array_equal(weil._random_blocks(pm, random.Random(p + 1), 200)[0], s1)


@pytest.mark.parametrize("n", [1, 2])
def test_random_blocks_reach_every_allowed_residue(n):
    # at p = 3 each drawn column, read back from S1, S2 and the L U factors
    # of M, takes every value it may: 0..2, and 1..2 on the diagonal of U
    # (an off-by-one in the map to [low, p) drops one of them); each value
    # is missed in 200 draws with probability below (2/3)^200
    s1, s2, m, _ = weil._random_blocks(PrimeModulus(3, n), random.Random(n), 200)
    lo, up = _doolittle(m, 3)
    columns = [(s[:, i, j], {0, 1, 2}) for s in (s1, s2) for i, j in zip(*np.triu_indices(n))]
    columns += [(up[:, i, j], {0, 1, 2} if i < j else {1, 2})
                for i, j in zip(*np.triu_indices(n))]
    columns += [(lo[:, i, j], {0, 1, 2}) for i, j in zip(*np.tril_indices(n, -1))]
    for values, allowed in columns:
        assert set(values.tolist()) == allowed


@pytest.mark.parametrize("n,p", [(1, 7), (1, 11), (2, 5), (2, 7)])
def test_torus_certificate_agrees_with_pair_scan(n, p, rep_cache, torus_cache):
    rep, torus = rep_cache(p, n), torus_cache(p, n)
    probe = weil.probe_block(rep.pm, 0)
    cert = weil.certify_torus(rep, torus, probe=probe)
    dense = certify_torus_dense(rep, torus, generator_ops(rep, torus), probe=probe)
    scan = torus_pair_scan(rep, torus)
    assert scan.ok and scan.pairs_checked == torus.order ** 2
    assert cert <= 1e-8
    assert abs(cert - scan.max_dev) <= 1e-12 and abs(cert - dense) <= 1e-12


@pytest.mark.parametrize("n,p", [(1, 7), (1, 43), (2, 5), (2, 13)])
def test_relation_pairs_hold(n, p):
    # every defining relation, as a pair of check_multiplicativity, holds to 1e-12;
    # the shears and dilations (Bb = 0) take the monomial kernel, mask 0
    pm = PrimeModulus(p, n)
    rep = linearize(pm)
    pairs = weil.relation_pairs(pm, random.Random(p))
    assert pairs.dtype == np.int64
    assert pairs.shape == (5 + 4 * weil.RELATION_DRAWS, 2, 2 * n, 2 * n)
    zero_bb = [b for pair in pairs for b in pair
               if not any(x for row in b[:n] for x in row[n:])]
    assert len(zero_bb) == 3 + 8 * weil.RELATION_DRAWS     # F^2 twice, D
    rpt = weil.check_multiplicativity(rep, pairs, tol=1e-12,
                                      probe=weil.probe_block(pm, p))
    assert rpt.ok and rpt.pairs_checked == len(pairs)
    fac = weil.factorize(pm, zero_bb)
    assert fac.monomial.all() and not fac.mask.any()


@pytest.mark.parametrize("n,p", [(1, 7), (2, 5)])
def test_relation_pairs_catch_a_wrong_fourier_normalization(n, p, rep_cache):
    # gamma times a cube root of unity still gives an Egorov-exact, unitary
    # rho(fourier), but not a representation
    pm = PrimeModulus(p, n)
    rep = rep_cache(p, n)
    omega = np.exp(2j * np.pi / 3)
    twisted = weil.WeilRep(pm, rep.gamma * omega)
    f = fourier_matrix(pm)
    assert np.abs(build(twisted, f) - omega * build(rep, f)).max() < 1e-15
    pairs = weil.relation_pairs(pm, random.Random(0))
    assert weil.check_multiplicativity(rep, pairs, probe=weil.probe_block(pm, 0)).ok
    rpt = weil.check_multiplicativity(twisted, pairs, probe=weil.probe_block(pm, 0))
    assert not rpt.ok and rpt.max_dev > 1.0


def test_torus_certificate_catches_swapped_dlog(rep_cache, torus_cache):
    torus = torus_cache(7, 2)
    b1, b2 = torus.elements[1], torus.elements[2]
    dlog = dict(torus.dlog)
    dlog[b1], dlog[b2] = dlog[b2], dlog[b1]
    rep = rep_cache(7, 2)
    assert weil.certify_torus(rep, replace(torus, dlog=dlog)) > 0.1
