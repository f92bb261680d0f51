from itertools import product

import numpy as np
import pytest

from torusque import heisenberg
from torusque.ffcore import PrimeModulus
from torusque.heisenberg import (FourierPolynomial, check_relations,
                                 compose_exponents, digits, flat_index,
                                 index_vectors, integral, pi_exponents,
                                 pi_exponents_many, pi_op, quantize, root_table)

import oracles


def test_pi_zero_is_identity():
    pm = PrimeModulus(5, 1)
    assert np.abs(pi_op((0, 0), pm) - np.eye(5)).max() == 0


def test_pure_translation_traceless():
    pm = PrimeModulus(7, 1)
    d = pi_op((3, 0), pm)
    assert np.trace(d) == 0  # fixed-point-free permutation
    assert np.count_nonzero(d) == 7
    assert np.abs(np.abs(d[d != 0]) - 1).max() < 1e-15


def test_diagonal_character_traceless():
    pm = PrimeModulus(5, 1)
    d = pi_op((0, 1), pm)
    assert np.abs(d - np.diag(np.diag(d))).max() == 0
    assert abs(np.trace(d)) < 1e-14  # complete character sum


def test_unitarity_and_order():
    for (p, n) in ((5, 1), (3, 2)):
        pm = PrimeModulus(p, n)
        rng = np.random.default_rng(p + n)
        for _ in range(10):
            xi = tuple(int(x) for x in rng.integers(0, p, 2 * n))
            d = pi_op(xi, pm)
            assert np.abs(d @ d.conj().T - np.eye(pm.dim)).max() < 1e-12
            assert np.abs(np.linalg.matrix_power(d, p) - np.eye(pm.dim)).max() < 1e-10


def _same_exponents(a, b) -> bool:
    """Exact equality of two (src, expo) pairs, integer for integer."""
    return all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))


def test_periodicity_exact():
    pm = PrimeModulus(7, 1)
    assert _same_exponents(pi_exponents((2, 3), pm), pi_exponents((2 + 7, 3 - 14), pm))
    pm2 = PrimeModulus(3, 2)
    assert _same_exponents(pi_exponents((1, 2, 0, 1), pm2),
                           pi_exponents((4, -1, 3, 7), pm2))


def test_trace_orthogonality():
    pm = PrimeModulus(5, 1)
    vecs = [(i, j) for i in range(5) for j in range(5)]
    for xi in vecs[:8]:
        for eta in vecs[:8]:
            val = np.trace(pi_op(xi, pm).conj().T @ pi_op(eta, pm)) / 5
            expected = 1.0 if xi == eta else 0.0
            assert abs(val - expected) < 1e-12


def test_relations_exhaustive_small():
    r = check_relations(PrimeModulus(3, 1))
    assert r.ok and r.pairs_checked == 18 and r.max_dev == 0
    assert r.epsilon in (1, -1)


def test_relation_sign_from_one_pair_matches_exhaustive():
    for p, n in ((3, 1), (5, 1), (7, 1), (3, 2), (5, 2)):
        pm = PrimeModulus(p, n)
        one = check_relations(pm, exhaustive=False)
        full = check_relations(pm)
        assert one.pairs_checked == 1 and full.pairs_checked == 2 * n * p ** (2 * n)
        assert one.ok and full.ok
        assert one.epsilon == full.epsilon


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1),
                                 (3, 2), (5, 2)])
def test_unit_vector_pairs_agree_with_the_grid(p, n):
    pm = PrimeModulus(p, n)
    r, grid = check_relations(pm), oracles.relation_grid(pm)
    assert r.pairs_checked == 2 * n * p ** (2 * n) and grid.pairs_checked == p ** (4 * n)
    assert r.ok and grid.ok and r.epsilon == grid.epsilon


@pytest.mark.parametrize("p,n", [(5, 1), (3, 2)])
@pytest.mark.parametrize("where", ["non-unit", "zero"])
def test_a_shifted_phase_fails_the_check_and_the_grid(p, n, where, monkeypatch):
    # T(eta) at one eta gets an extra factor psi(1); the relation then fails
    # at every pair that reads it, and the unit-vector pairs read every eta
    pm = PrimeModulus(p, n)
    target = np.zeros(2 * n, dtype=np.int64)
    if where == "non-unit":
        target[:] = 2
    real = heisenberg.pi_exponents_many

    def shifted(xis, pm):
        src, expo = real(xis, pm)
        hit = np.all(np.asarray(xis) % pm.p == target, axis=1)
        return src, np.where(hit[:, None], (expo + 1) % pm.p, expo)

    monkeypatch.setattr(heisenberg, "pi_exponents_many", shifted)
    monkeypatch.setattr(oracles, "pi_exponents_many", shifted)
    r, grid = check_relations(pm), oracles.relation_grid(pm)
    assert not r.ok and not grid.ok
    assert r.max_dev > 0 and grid.max_dev > 0


def test_relation_phase_at_equal_arguments():
    # omega(xi, xi) = 0, so T(xi)^2 = T(2 xi) with no phase
    pm = PrimeModulus(7, 1)
    xi = (2, 5)
    lhs = compose_exponents(pi_exponents(xi, pm), pi_exponents(xi, pm), pm.p)
    assert _same_exponents(lhs, pi_exponents((4, 10), pm))


def test_commutator_phase():
    # T(xi) T(eta) T(xi)^-1 T(eta)^-1 = psi(eps * omega(xi, eta)) * identity
    pm = PrimeModulus(5, 1)
    eps = check_relations(pm).epsilon
    for xi, eta in (((1, 0), (0, 1)), ((2, 1), (1, 3))):
        t_xi, t_eta = pi_op(xi, pm), pi_op(eta, pm)
        comm = t_xi @ t_eta @ t_xi.conj().T @ t_eta.conj().T
        omega = xi[0] * eta[1] - xi[1] * eta[0]
        phase = np.exp(2j * np.pi * (eps * omega % 5) / 5)
        assert np.abs(comm - phase * np.eye(5)).max() < 1e-12


def test_quantize_constant_and_single():
    pm = PrimeModulus(5, 1)
    f = FourierPolynomial({(0, 0): 2.5})
    assert np.abs(quantize(f, pm) - 2.5 * np.eye(5)).max() < 1e-15
    g = FourierPolynomial({(1, 2): 1.0})
    assert np.abs(quantize(g, pm) - pi_op((1, 2), pm)).max() == 0


def test_quantize_trace_is_integral():
    pm = PrimeModulus(7, 1)
    f = FourierPolynomial({(0, 0): 0.7, (1, 0): 0.3, (-1, 0): 0.3,
                           (2, 3): 0.1j, (-2, -3): -0.1j})
    tr = np.trace(quantize(f, pm)) / 7
    assert abs(tr - integral(f)) < 1e-13
    assert integral(f) == 0.7


def test_quantize_real_symbol_self_adjoint():
    pm = PrimeModulus(5, 1)
    f = FourierPolynomial({(1, 2): 0.5 + 0.25j, (-1, -2): 0.5 - 0.25j})
    assert f.is_real_valued()
    op = quantize(f, pm)
    assert np.abs(op - op.conj().T).max() < 1e-14  # no phase correction needed


def test_integral_examples():
    assert integral(FourierPolynomial({(0, 0): 3.0})) == 3.0
    assert integral(FourierPolynomial({(1, 0): 1.0})) == 0.0
    assert integral(FourierPolynomial({(0, 0): 2.0, (1, 0): 1.0})) == 2.0
    assert integral(FourierPolynomial({})) == 0.0


def test_compose_exponents_is_the_dense_product():
    # one pair and a stack of right factors, at n = 1 and n = 2
    for p, n in ((5, 1), (3, 2)):
        pm = PrimeModulus(p, n)
        xis = np.random.default_rng(p).integers(0, p, size=(6, 2 * n))
        src, expo = pi_exponents_many(xis, pm)
        roots = root_table(p)
        stack_src, stack_expo = compose_exponents((src[0], expo[0]), (src, expo), p)
        for k, eta in enumerate(xis):
            dense = np.zeros((pm.dim, pm.dim), dtype=complex)
            dense[np.arange(pm.dim), stack_src[k]] = roots[stack_expo[k]]
            ref = pi_op(xis[0], pm) @ pi_op(eta, pm)
            assert np.abs(dense - ref).max() < 1e-14
            pair = compose_exponents((src[0], expo[0]), (src[k], expo[k]), p)
            assert _same_exponents(pair, (stack_src[k], stack_expo[k]))


def test_cached_tables_are_read_only():
    # root_table and index_vectors are shared per modulus: no caller may write
    roots = root_table(7)
    assert root_table(7) is roots
    with pytest.raises(ValueError):
        roots[0] = 0
    pm = PrimeModulus(5, 2)
    pts = index_vectors(pm)
    assert index_vectors(PrimeModulus(5, 2)) is pts
    with pytest.raises(ValueError):
        pts[0, 0] = 1
    with pytest.raises(ValueError):
        pts += 1


@pytest.mark.parametrize("p,k", [(7, 2), (5, 4), (3, 6)])
def test_flat_index_inverts_digits(p, k):
    flat = np.arange(p ** k)
    assert np.array_equal(flat_index(digits(flat, p, k), p), flat)
    assert np.array_equal(flat_index(digits(flat[::-1], p, k), p), flat[::-1])


@pytest.mark.parametrize("p,k", [(7, 2), (5, 4), (3, 6)])
def test_range_digits_are_slices_of_the_full_table(p, k):
    # the full table is itertools' row-major order read least significant
    # digit first
    table = digits(np.arange(p ** k), p, k)
    assert table.dtype == np.int64 and table.shape == (p ** k, k)
    assert table[:, ::-1].tolist() == [list(t) for t in product(range(p), repeat=k)]
    for start, stop in ((0, 1), (0, len(table)), (p - 1, 3 * p + 2), (len(table) - 5, len(table))):
        assert np.array_equal(digits(np.arange(start, stop), p, k), table[start:stop])
