import time
import tracemalloc
from itertools import product

import numpy as np
import pytest

from torusque import ffcore, hecke, weil
from torusque.ffcore import PrimeModulus, identity_mat, mat_inv_modp, mat_mod, mat_mul
from torusque.hecke import (DegeneratePrimeError, HeckeTorus, centralizer,
                            characters, decompose, torus_structure)
from torusque.heisenberg import BudgetExceeded, pi_op

from oracles import (centralizer_elements, character_table, character_value,
                     character_value_of_exps, decompose_stack, dense_ops, fourier_matrix,
                     generator_ops, hecke_average, linearize_on_torus, projector,
                     projector_stack, shear_matrix)
from oracles import torus_structure as torus_structure_oracle


def test_centralizer_orders_cat_map(cat_map):
    # disc 5: nonsplit at 7 (order p + 1), split at 11 (order p - 1)
    t7 = centralizer(cat_map.matrix, PrimeModulus(7, 1), cat_map.charpoly)
    assert t7.order == 8 and t7.split_type == "nonsplit"
    t11 = centralizer(cat_map.matrix, PrimeModulus(11, 1), cat_map.charpoly)
    assert t11.order == 10 and t11.split_type == "split"


def test_degenerate_prime_rejected(cat_map):
    with pytest.raises(DegeneratePrimeError):
        centralizer(cat_map.matrix, PrimeModulus(5, 1), cat_map.charpoly)


def test_centralizer_contains_powers_of_a(cat_map):
    t = centralizer(cat_map.matrix, PrimeModulus(7, 1), cat_map.charpoly)
    a = mat_mod(cat_map.matrix, 7)
    assert a in t.dlog
    assert mat_mul(a, a, mod=7) in t.dlog


def test_centralizer_elements_commute_and_symplectic(cat_map):
    for p in (7, 11):
        t = centralizer(cat_map.matrix, PrimeModulus(p, 1), cat_map.charpoly)
        a = mat_mod(cat_map.matrix, p)
        for b in t.elements:
            assert mat_mul(b, a, mod=p) == mat_mul(a, b, mod=p)
            assert ffcore.is_symplectic(b, p=p)


def test_centralizer_against_full_group_scan_n1(cat_map):
    # brute force over all of SL2(F3)
    p = 3
    a = mat_mod(cat_map.matrix, p)
    brute = set()
    for m in weil.sp_elements(PrimeModulus(p, 1)):
        if mat_mul(m, a, mod=p) == mat_mul(a, m, mod=p):
            brute.add(m)
    t = centralizer(cat_map.matrix, PrimeModulus(p, 1), cat_map.charpoly)
    assert set(t.elements) == brute


def test_centralizer_against_full_group_scan_n2(sp4_elem):
    # brute force over all of Sp(4, F3), generated by shears and the Fourier
    # element (closure size must be the full group order 51840)
    p = 3
    pm = PrimeModulus(p, 2)
    gens = [shear_matrix(((1, 0), (0, 0)), pm),
            shear_matrix(((0, 0), (0, 1)), pm),
            shear_matrix(((0, 1), (1, 0)), pm),
            fourier_matrix(pm)]
    seen = {identity_mat(4)}
    frontier = [identity_mat(4)]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = mat_mul(m, g, mod=p)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    assert len(seen) == 51840
    a = mat_mod(sp4_elem.matrix, p)
    brute = {m for m in seen if mat_mul(m, a, mod=p) == mat_mul(a, m, mod=p)}
    t = centralizer(sp4_elem.matrix, pm, sp4_elem.charpoly)
    assert set(t.elements) == brute
    assert t.order == p ** 2 + 1  # anisotropic quartic torus


def test_torus_structure_certificates(cat_map, sp4_elem):
    t = centralizer(cat_map.matrix, PrimeModulus(7, 1), cat_map.charpoly)
    assert t.gen_orders == (8,)
    assert len(t.dlog) == 8
    # regeneration: products of generators hit every element exactly once
    g, order = t.generators[0]
    acc = identity_mat(2)
    seen = set()
    for _ in range(order):
        seen.add(acc)
        acc = mat_mul(acc, g, mod=7)
    assert seen == set(t.elements)


def test_two_generator_torus(sp4_elem):
    # fully split at 13: torus (F_13^x)^2 of order 144 = 12 x 12
    t = centralizer(sp4_elem.matrix, PrimeModulus(13, 2), sp4_elem.charpoly)
    assert t.order == 144 and t.split_type == "split"
    assert sorted(t.gen_orders) == [12, 12]
    assert len(t.dlog) == 144


def test_two_quadratic_factor_torus(sp4_elem):
    # two self-reciprocal quadratic factors at 19: product of two norm-one
    # circles, order (p + 1)^2
    t = centralizer(sp4_elem.matrix, PrimeModulus(19, 2), sp4_elem.charpoly)
    assert t.factor_degrees == [2, 2]
    assert t.order == 400 and t.split_type == "nonsplit"
    assert sorted(t.gen_orders) == [20, 20]
    assert len(t.dlog) == 400


TORUS_PRIMES = [
    (1, [p for p in ffcore.odd_primes(3, 97) if p != 5]),
    (2, [3, 5, 7, 11, 13, 19])]


@pytest.mark.parametrize("n,primes", TORUS_PRIMES)
def test_torus_matches_form_filter(n, primes, cat_map, sp4_elem, torus_cache):
    # the norm filter keeps the elements of the matrix form filter, in the
    # same order
    elem = cat_map if n == 1 else sp4_elem
    for p in primes:
        t = torus_cache(p, n)
        assert t.elements == centralizer_elements(elem.matrix, PrimeModulus(p, n)), p


@pytest.mark.parametrize("n,primes", TORUS_PRIMES)
def test_torus_structure_matches_order_scan(n, primes, torus_cache):
    # the greedy pass picks exactly the generators of the order scan, so
    # character labels and their order are unchanged
    for p in primes:
        t = torus_cache(p, n)
        generators, dlog = torus_structure_oracle(t.elements, p)
        assert t.generators == generators, p
        assert t.dlog == dlog, p
        assert list(t.dlog.values()) == list(product(*map(range, t.gen_orders))), p


@pytest.mark.parametrize("n,p", [(1, 7), (1, 11), (2, 13), (2, 19), (2, 23)])
def test_norm_is_f_of_inverse_a_times_f_of_a(n, p, cat_map, sp4_elem):
    # N(c), read as a polynomial in A, is f(A^-1) f(A) formed with matrices
    elem = cat_map if n == 1 else sp4_elem
    d = 2 * n
    table = hecke.norm_table(ffcore.poly_mod_reduce(elem.charpoly, p), p)
    a = np.array(mat_mod(elem.matrix, p), dtype=np.int64)
    a_inv = np.array(mat_inv_modp(mat_mod(elem.matrix, p), p), dtype=np.int64)

    def powers(m):
        out = [np.eye(d, dtype=np.int64)]
        for _ in range(d - 1):
            out.append(out[-1] @ m % p)
        return np.array(out)

    coeffs = np.random.default_rng(p).integers(0, p, (60, d))
    f = np.tensordot(coeffs, powers(a), axes=(1, 0)) % p
    f_inv = np.tensordot(coeffs, powers(a_inv), axes=(1, 0)) % p
    got = np.tensordot(hecke.norm(coeffs, table, p), powers(a), axes=(1, 0)) % p
    assert np.array_equal(got, f_inv @ f % p)


def test_centralizer_memory_stays_below_one_candidate_stack(sp4_elem):
    # at n = 2, p = 13 the peak is below one (p^4, 4, 4) int64 stack of
    # candidate matrices (3.66 MB), of which the form filter held three
    p = 13
    tracemalloc.start()
    try:
        t = centralizer(sp4_elem.matrix, PrimeModulus(p, 2), sp4_elem.charpoly)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert t.order == 144
    assert peak < p ** 4 * 16 * 8


def test_centralizer_memory_stays_below_the_coefficient_table(sp4_elem):
    # at n = 2, p = 19 the norm filter makes each chunk of coefficient
    # vectors from its index range: the peak stays below the p^4 x 4 int64
    # table of all of them (4.2 MB), which the filter once held
    p = 19
    tracemalloc.start()
    try:
        t = centralizer(sp4_elem.matrix, PrimeModulus(p, 2), sp4_elem.charpoly)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert t.order == 400
    assert peak < p ** 4 * 4 * 8


def test_torus_structure_raises_on_a_power_outside_the_list(torus_cache):
    # Z_8 without its generator's inverse: the 7-th power of the generator
    # is not in the list
    t = torus_cache(7)
    (g, m), = t.generators
    g_inv = t.elements[[t.dlog[b] for b in t.elements].index((m - 1,))]
    with pytest.raises(RuntimeError, match="not in the element list"):
        torus_structure([b for b in t.elements if b != g_inv], 7)


def test_torus_structure_raises_on_a_list_that_is_no_group(torus_cache):
    # Z_8 with one element twice: nine entries, and b^9 = b is not I
    t = torus_cache(7)
    with pytest.raises(RuntimeError, match="not in a subgroup of index 9"):
        torus_structure(t.elements + [t.elements[1]], 7)


def test_torus_structure_certificate_catches_a_wrong_order(torus_cache, monkeypatch):
    # orders read twice too large: the generator's 16 powers in Z_8 repeat
    t = torus_cache(7)
    real = hecke._coset_orders
    monkeypatch.setattr(hecke, "_coset_orders", lambda *args: 2 * real(*args))
    with pytest.raises(RuntimeError, match="not all distinct"):
        torus_structure(t.elements, 7)


def _diagonal_sp6_torus(p: int = 7) -> HeckeTorus:
    """The diagonal torus diag(a, b, c, 1/a, 1/b, 1/c) of Sp(6, F_p)."""
    elements = []
    for abc in product(range(1, p), repeat=3):
        diag = abc + tuple(pow(x, -1, p) for x in abc)
        elements.append(tuple(tuple(x if i == j else 0 for j in range(6))
                              for i, x in enumerate(diag)))
    generators, dlog = torus_structure(elements, p)
    return HeckeTorus(PrimeModulus(p, 3), elements, "split", [1] * 6, generators,
                      dlog)


def test_three_generator_torus():
    # the diagonal torus of Sp(6, F_7) is Z_6^3
    p = 7
    t = _diagonal_sp6_torus(p)
    assert t.gen_orders == (6, 6, 6)
    assert len(characters(t)) == 216
    assert set(t.dlog) == set(t.elements)
    for b, exps in t.dlog.items():
        acc = identity_mat(6)
        for (g, _), e in zip(t.generators, exps):
            for _ in range(e):
                acc = mat_mul(acc, g, mod=p)
        assert acc == b


def test_decompose_three_generator_torus():
    # every generator enters the Hermitian combination, rho(g_3) included
    t = _diagonal_sp6_torus(7)
    dec = decompose(t, weil.linearize(PrimeModulus(7, 3)))
    assert sum(dec.dims) == 343
    assert dec.max_eigen_dev <= 1e-8


@pytest.mark.parametrize("n,p", [(1, 7), (1, 11), (1, 43), (2, 5), (2, 13), (3, 7)])
def test_decompose_matches_the_dense_stack_route(n, p, rep_cache, torus_cache):
    # rho of the generators summed one at a time and read on the apply route,
    # against the same eigenbasis from their dense stack: the same dims, the
    # same character labels and the same eigenspace projectors; n = 3 is the
    # diagonal torus of Sp(6, F_7)
    t = _diagonal_sp6_torus(p) if n == 3 else torus_cache(p, n)
    rep = rep_cache(p, n)
    dec = decompose(t, rep)
    ref = decompose_stack(t, generator_ops(rep, t))
    assert dec.dims == ref.dims and sum(dec.dims) == p ** n
    assert [(chi.exps, dim) for chi, _, dim in dec.entries] == \
        [(chi.exps, dim) for chi, _, dim in ref.entries]
    assert max(dec.max_eigen_dev, ref.max_eigen_dev) <= hecke.EIGEN_TOL
    worst = max(float(np.abs(a - b).max())
                for a, b in zip(projector_stack(dec), projector_stack(ref)))
    assert worst <= 1e-10


def test_characters_orthogonality(cat_map, torus_cache):
    t = torus_cache(7)
    tab = character_table(t)
    gram = tab @ tab.conj().T / t.order
    assert np.abs(gram - np.eye(t.order)).max() < 1e-12


def test_trivial_character(torus_cache):
    t = torus_cache(7)
    chis = characters(t)
    triv = chis[0]
    assert triv.exps == (0,) and triv.order == 1
    assert all(character_value(triv, t, b) == 1 for b in t.elements)


def test_character_multiplicativity_exact(torus_cache):
    t = torus_cache(11)
    chi = characters(t)[3]
    for b1 in t.elements[:5]:
        for b2 in t.elements[:5]:
            prod = mat_mul(b1, b2, mod=11)
            v = character_value(chi, t, b1) * character_value(chi, t, b2)
            assert abs(character_value(chi, t, prod) - v) < 1e-12


def test_decompose_cat_map_p7(cat_map, rep_cache, torus_cache):
    t = torus_cache(7)
    dec = decompose(t, rep_cache(7))
    with pytest.raises(BudgetExceeded):        # read before rho is first applied
        decompose(t, rep_cache(7), time.perf_counter() - 1.0)
    assert sum(dec.dims) == 7
    assert sorted(dec.dims) == [0, 1, 1, 1, 1, 1, 1, 1]
    # the empty slot sits at the order-2 character; the trivial one has a line
    chis = characters(t)
    for chi, d in zip(chis, dec.dims):
        if chi.order == 1:
            assert d == 1
        if d == 0:
            assert chi.order == 2


def test_decompose_split_prime_exceptional(cat_map, rep_cache, torus_cache):
    t = torus_cache(11)
    dec = decompose(t, rep_cache(11))
    assert sum(dec.dims) == 11
    chis = characters(t)
    two_dim = [chi for chi, d in zip(chis, dec.dims) if d == 2]
    assert len(two_dim) == 1 and two_dim[0].order == 2
    assert all(d <= 1 for chi, d in zip(chis, dec.dims) if chi.order != 2)


def test_projector_properties(cat_map, rep_cache, torus_cache):
    t = torus_cache(7)
    ops = dense_ops(rep_cache(7), t.elements)
    chis = characters(t)
    total = np.zeros((7, 7), dtype=complex)
    for chi in chis:
        p_chi = projector(chi, t, ops)
        assert np.abs(p_chi @ p_chi - p_chi).max() < 1e-9
        assert np.abs(p_chi - p_chi.conj().T).max() < 1e-9
        assert abs(p_chi.trace().imag) < 1e-9
        assert abs(p_chi.trace().real - round(p_chi.trace().real)) < 1e-6
        total += p_chi
    assert np.abs(total - np.eye(7)).max() < 1e-9


def test_projectors_mutually_orthogonal(cat_map, rep_cache, torus_cache):
    t = torus_cache(7)
    ops = dense_ops(rep_cache(7), t.elements)
    chis = characters(t)
    p0 = projector(chis[1], t, ops)
    p1 = projector(chis[2], t, ops)
    assert np.abs(p0 @ p1).max() < 1e-9


def test_hecke_average_xi_zero_is_identity(cat_map, rep_cache, torus_cache):
    t = torus_cache(7)
    avg = hecke_average((0, 0), t, dense_ops(rep_cache(7), t.elements))
    assert np.abs(avg - np.eye(7)).max() < 1e-12


def test_hecke_average_block_diagonal(cat_map, rep_cache, torus_cache):
    t = torus_cache(7)
    rep = rep_cache(7)
    dec = decompose(t, rep)
    avg = hecke_average((1, 0), t, dense_ops(rep, t.elements))
    # off-diagonal blocks between distinct characters vanish
    for i, (chi_i, basis_i, dim_i) in enumerate(dec.entries):
        for j, (chi_j, basis_j, dim_j) in enumerate(dec.entries):
            if i == j or dim_i == 0 or dim_j == 0:
                continue
            block = basis_i.conj().T @ avg @ basis_j
            assert np.abs(block).max() < 1e-8


def test_hecke_average_diagonal_is_matrix_element(cat_map, rep_cache, torus_cache):
    t = torus_cache(7)
    rep = rep_cache(7)
    dec = decompose(t, rep)
    xi = (1, 0)
    avg = hecke_average(xi, t, dense_ops(rep, t.elements))
    t_xi = pi_op(xi, PrimeModulus(7, 1))
    for chi, basis, dim in dec.entries:
        if dim != 1:
            continue
        v = basis[:, 0]
        assert abs(np.vdot(v, avg @ v) - np.vdot(v, t_xi @ v)) < 1e-9


def test_decompose_n2_cyclic_torus(sp4_elem):
    pm = PrimeModulus(3, 2)
    t = centralizer(sp4_elem.matrix, pm, sp4_elem.charpoly)
    assert t.order == 10
    trep = linearize_on_torus(t, weil.linearize(pm))
    dec = decompose_stack(t, np.stack([trep[g] for g, _ in t.generators]))
    assert sum(dec.dims) == 9
    assert all(d <= 1 for d in dec.dims)


@pytest.mark.parametrize("n,p", [(1, 7), (1, 11), (2, 5), (2, 13)])
def test_character_table_matches_values_vector(n, p, torus_cache):
    # the integer-exponent table against each character's vector of values
    # over the element list, through the per-character Fraction route
    torus = torus_cache(p, n)
    table = character_table(torus)
    ref = np.array([[character_value_of_exps(chi, torus.dlog[b]) for b in torus.elements]
                    for chi in characters(torus)])
    assert table.shape == (torus.order, torus.order)
    assert np.abs(table - ref).max() < 1e-12
