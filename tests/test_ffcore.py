import random

import numpy as np
import pytest

from torusque import ffcore, weil
from torusque.ffcore import (PrimeModulus, char_poly, cyclotomic, dlog_table,
                             is_irreducible_q, is_symplectic, legendre, mat,
                             mat_inv_modp, mat_mul, odd_primes, poly_str,
                             standard_j)

from oracles import is_palindromic, is_symplectic_pairwise, mat_det, sp_elements_scan


def test_legendre_examples():
    assert legendre(0, 7) == 0
    assert legendre(4, 7) == 1
    # oracle: squares mod 7 are {1, 2, 4}
    assert {(x * x) % 7 for x in range(1, 7)} == {1, 2, 4}
    assert legendre(5, 7) == -1


def test_legendre_rejects_nonprime():
    with pytest.raises(ValueError):
        legendre(3, 9)
    with pytest.raises(ValueError):
        legendre(3, 2)


def test_legendre_euler_criterion_all_small_primes():
    # agrees with a^((p-1)/2) mod p mapped into {-1, 0, 1}, exhaustively
    for p in odd_primes(3, 97):
        for a in range(p):
            s = pow(a, (p - 1) // 2, p)
            expected = 0 if s == 0 else (1 if s == 1 else -1)
            assert legendre(a, p) == expected


def test_legendre_multiplicative():
    for p in (7, 11, 13):
        for a in range(1, p):
            for b in range(1, p):
                assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_prime_modulus():
    pm = PrimeModulus(7, 2)
    assert pm.nu == 4 and (2 * pm.nu) % 7 == 1
    assert pm.dim == 49
    with pytest.raises(ValueError):
        PrimeModulus(9, 1)
    with pytest.raises(ValueError):
        PrimeModulus(2, 1)


def test_char_poly_examples():
    # hand cofactor expansion: det(xI - [[2,1],[1,1]]) = x^2 - 3x + 1
    assert char_poly(mat([[2, 1], [1, 1]])) == (1, -3, 1)
    assert char_poly(mat([[1, 0], [0, 1]])) == (1, -2, 1)
    assert char_poly(mat([[0, 1], [-1, 0]])) == (1, 0, 1)


def test_char_poly_mod():
    assert char_poly(mat([[2, 1], [1, 1]]), mod=5) == (1, 2, 1)


def test_char_poly_palindromic_for_symplectic():
    a = mat([[2, 1], [1, 1]])
    power = a
    for _ in range(6):
        power = mat_mul(power, a)
        assert is_palindromic(char_poly(power))


def test_is_irreducible_over_q():
    ok, why = is_irreducible_q((1, -3, 1))
    assert ok and "disc" not in why  # verdict by root/factor search
    ok, _ = is_irreducible_q((1, -2, 1))  # (x - 1)^2
    assert not ok


def test_is_irreducible_quartics():
    ok, _ = is_irreducible_q((1, -13, 40, -13, 1))
    assert ok
    # (x^2+1)(x^2+x+1) = x^4 + x^3 + 2x^2 + x + 1
    ok, why = is_irreducible_q((1, 1, 2, 1, 1))
    assert not ok and "factor" in why


def test_is_irreducible_degree_guard():
    with pytest.raises(ffcore.DegreeError):
        is_irreducible_q(tuple([1] * 10))


def test_is_symplectic_examples():
    assert is_symplectic(mat([[1, 0], [0, 1]]))
    j = standard_j(1)
    assert is_symplectic(j)
    assert not is_symplectic(mat([[2, 0], [0, 1]]))
    with pytest.raises(ValueError):
        is_symplectic(mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))


def test_stacked_symplectic_test_matches_the_pairwise_oracle_on_m2_f5():
    # every 2 x 2 matrix mod 5, in one stack: the verdicts are the oracle's
    stack = np.array(np.meshgrid(*[range(5)] * 4, indexing="ij")).reshape(4, -1).T
    stack = stack.reshape(-1, 2, 2)
    verdicts = is_symplectic(stack, 5)
    assert verdicts.shape == (625,) and verdicts.sum() == 120      # |SL2(F_5)|
    assert verdicts.tolist() == [is_symplectic_pairwise(mat(m), 5) for m in stack]


@pytest.mark.parametrize("n", [2, 3])
def test_stacked_symplectic_test_matches_the_pairwise_oracle_on_mixed_stacks(n):
    # symplectic elements with large multiples of p added, one entry of
    # some of them moved, and uniform int64 matrices, shuffled together
    p, d = 7, 2 * n
    rng = random.Random(n)
    group = weil.random_sp(PrimeModulus(p, n), rng, 40)
    lift = np.array([rng.randrange(-2 ** 40, 2 ** 40) for _ in range(group.size)])
    group = group + p * lift.reshape(group.shape)
    moved = group[:20].copy()
    for m in moved:
        m[rng.randrange(d), rng.randrange(d)] += rng.randrange(1, p)
    uniform = np.array([rng.randrange(-2 ** 62, 2 ** 62) for _ in range(20 * d * d)])
    stack = np.concatenate([group, moved, uniform.reshape(20, d, d)])
    stack = stack[rng.sample(range(len(stack)), len(stack))]
    verdicts = is_symplectic(stack, p)
    assert verdicts.tolist() == [is_symplectic_pairwise(mat(m), p) for m in stack]
    assert 40 <= verdicts.sum() < len(stack)


def test_symplectic_test_over_z_is_exact_where_int64_wraps():
    # det = 2^64 + 1, which int64 arithmetic reads as 1
    m = mat([[2 ** 32, 1], [-1, 2 ** 32]])
    wrapped = np.array(m, dtype=np.int64)
    with np.errstate(over="ignore"):
        assert wrapped[0, 0] * wrapped[1, 1] - wrapped[0, 1] * wrapped[1, 0] == 1
    assert not is_symplectic_pairwise(m)
    assert not is_symplectic(m)
    assert not is_symplectic(wrapped)
    assert is_symplectic(mat([[2 ** 32 + 1, 2 ** 32], [2 ** 32 + 2, 2 ** 32 + 1]]))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_sp_elements_matches_the_tuple_scan(p):
    assert weil.sp_elements(PrimeModulus(p, 1)) == sp_elements_scan(PrimeModulus(p, 1))


def test_symplectic_closed_under_product_and_inverse():
    a = mat([[2, 1], [1, 1]])
    b = mat([[1, 1], [0, 1]])
    assert is_symplectic(a) and is_symplectic(b)
    assert is_symplectic(mat_mul(a, b))
    for p in (7, 13):
        inv = mat_inv_modp(a, p)
        assert is_symplectic(inv, p=p)
        assert mat_mul(a, inv, mod=p) == ffcore.identity_mat(2)


def test_cyclotomic():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(2) == (1, 1)
    assert cyclotomic(4) == (1, 0, 1)
    assert cyclotomic(5) == (1, 1, 1, 1, 1)
    assert cyclotomic(12) == (1, 0, -1, 0, 1)


def test_poly_division_and_gcd():
    # (x^2 - 3x + 1)(x + 2) with remainder 5
    f = ffcore.poly_add(ffcore.poly_mul((1, -3, 1), (2, 1)), (5,))
    q, r = ffcore.poly_divmod(f, (1, -3, 1))
    assert q == (2, 1) and r == (5,)
    g = ffcore.poly_gcd_modp(ffcore.poly_mul((1, 1), (2, 1)), (1, 1), 7)
    assert g == (1, 1)


def test_factor_degrees():
    assert ffcore.factor_degrees_modp((1, -3, 1), 7) == [2]
    assert ffcore.factor_degrees_modp((1, -3, 1), 11) == [1, 1]
    assert ffcore.factor_degrees_modp((1, -13, 40, -13, 1), 13) == [1, 1, 1, 1]
    assert ffcore.factor_degrees_modp((1, -13, 40, -13, 1), 3) == [4]


def test_primitive_root_and_dlog_table():
    for p in (7, 11, 13):
        g, table = dlog_table(p)
        assert sorted(pow(g, k, p) for k in range(p - 1)) == list(range(1, p))
        assert all(pow(g, table[a], p) == a for a in range(1, p))


def test_factorize():
    assert ffcore.factorize(1) == []
    assert ffcore.factorize(962) == [(2, 1), (13, 1), (37, 1)]
    for m in range(2, 600):
        fac = ffcore.factorize(m)
        assert [r for r, _ in fac] == sorted(r for r in range(2, m + 1)
                                             if m % r == 0 and ffcore.is_prime(r))
        assert np.prod([r ** e for r, e in fac]) == m


def test_mat_det_exact():
    assert mat_det(mat([[2, 1], [1, 1]])) == 1
    assert mat_det(mat([[1, 2, 3], [4, 5, 6], [7, 8, 10]])) == -3


def test_poly_str():
    assert "x^2" in poly_str((1, -3, 1))


def test_gauss_jordan_modp_stack_with_pivoting_and_singular_members():
    # determinants against cofactor expansion, inverses against the identity;
    # the stack holds matrices whose leading entry is 0 (a row swap), singular
    # ones (det 0) and rank-deficient ones whose transform x gives the reduced
    # row echelon form x m, with the rows of x from the rank on in the left
    # kernel of m
    rng = np.random.default_rng(5)
    for p, d in ((3, 2), (7, 3), (43, 4)):
        stack = rng.integers(0, p, size=(200, d, d))
        stack[:20, 0, 0] = 0
        stack[20:40, 1] = stack[20:40, 0]
        stack[40:60, :, 0] = 0
        stack[60:70] = 0
        det, x, rank = ffcore.gauss_jordan_modp(stack, p)
        assert det.shape == rank.shape == (200,) and x.shape == (200, d, d)
        for m, dt, mi, r in zip(stack, det, x, rank):
            assert dt == mat_det(mat(m)) % p
            assert (dt != 0) == (r == d)
            if dt:
                assert ((m @ mi) % p == np.eye(d, dtype=np.int64)).all()
            echelon = mi @ m % p
            assert not echelon[r:].any() and mat_det(mat(mi)) % p
            lead = [int(np.flatnonzero(row)[0]) for row in echelon[:r]]
            assert lead == sorted(set(lead))
            assert (echelon[:, lead] == np.eye(d, dtype=np.int64)[:, :r]).all()
        assert not det[20:70].any() and det[:20].any()
        assert (rank[20:40] < d).all() and (rank[40:60] < d).all() and not rank[60:70].any()
    det, inv, rank = ffcore.gauss_jordan_modp(np.zeros((2, 3, 2, 2), dtype=np.int64), 5)
    assert det.shape == rank.shape == (2, 3) and inv.shape == (2, 3, 2, 2)
    assert not det.any() and not rank.any()
