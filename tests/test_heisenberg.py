import numpy as np
import pytest

from torusque.ffcore import PrimeModulus
from torusque.heisenberg import (FourierPolynomial, check_relations,
                                 identity_op, index_vectors, integral, pi_op,
                                 quantize, root_table)


def test_pi_zero_is_identity():
    pm = PrimeModulus(5, 1)
    op = pi_op((0, 0), pm)
    assert np.abs(op.dense() - np.eye(5)).max() == 0


def test_pure_translation_traceless():
    pm = PrimeModulus(7, 1)
    op = pi_op((3, 0), pm)
    assert op.trace() == 0  # fixed-point-free permutation
    d = op.dense()
    assert np.count_nonzero(d) == 7
    assert np.abs(np.abs(d[d != 0]) - 1).max() < 1e-15


def test_diagonal_character_traceless():
    pm = PrimeModulus(5, 1)
    op = pi_op((0, 1), pm)
    d = op.dense()
    assert np.abs(d - np.diag(np.diag(d))).max() == 0
    assert abs(op.trace()) < 1e-14  # complete character sum


def test_unitarity_and_order():
    for (p, n) in ((5, 1), (3, 2)):
        pm = PrimeModulus(p, n)
        rng = np.random.default_rng(p + n)
        for _ in range(10):
            xi = tuple(int(x) for x in rng.integers(0, p, 2 * n))
            op = pi_op(xi, pm)
            d = op.dense()
            assert np.abs(d @ d.conj().T - np.eye(pm.dim)).max() < 1e-12
            assert np.abs(op.power(p).dense() - np.eye(pm.dim)).max() < 1e-10


def test_periodicity_exact():
    pm = PrimeModulus(7, 1)
    a = pi_op((2, 3), pm)
    b = pi_op((2 + 7, 3 - 14), pm)
    assert a.equals(b)
    pm2 = PrimeModulus(3, 2)
    a = pi_op((1, 2, 0, 1), pm2)
    b = pi_op((4, -1, 3, 7), pm2)
    assert a.equals(b)


def test_trace_orthogonality():
    pm = PrimeModulus(5, 1)
    vecs = [(i, j) for i in range(5) for j in range(5)]
    for xi in vecs[:8]:
        for eta in vecs[:8]:
            val = pi_op(xi, pm).adjoint().compose(pi_op(eta, pm)).trace() / 5
            expected = 1.0 if xi == eta else 0.0
            assert abs(val - expected) < 1e-12


def test_relations_exhaustive_small():
    r = check_relations(PrimeModulus(3, 1), tol=1e-12)
    assert r.ok and r.pairs_checked == 81 and r.max_dev <= 1e-12
    assert r.epsilon in (1, -1)


def test_relation_sign_from_one_pair_matches_exhaustive():
    for p, n in ((3, 1), (5, 1), (7, 1), (3, 2), (5, 2)):
        pm = PrimeModulus(p, n)
        one = check_relations(pm, exhaustive=False)
        full = check_relations(pm)
        assert one.pairs_checked == 1 and full.pairs_checked == p ** (4 * n)
        assert one.ok and full.ok
        assert one.epsilon == full.epsilon


def test_relation_phase_at_equal_arguments():
    # omega(xi, xi) = 0, so T(xi)^2 = T(2 xi) with no phase
    pm = PrimeModulus(7, 1)
    xi = (2, 5)
    lhs = pi_op(xi, pm).compose(pi_op(xi, pm))
    rhs = pi_op((4, 10), pm)
    assert lhs.equals(rhs)


def test_commutator_phase():
    # T(xi) T(eta) T(xi)^-1 T(eta)^-1 = psi(eps * omega(xi, eta)) * identity
    pm = PrimeModulus(5, 1)
    eps = check_relations(pm).epsilon
    for xi, eta in (((1, 0), (0, 1)), ((2, 1), (1, 3))):
        comm = pi_op(xi, pm).compose(pi_op(eta, pm)) \
            .compose(pi_op(xi, pm).adjoint()).compose(pi_op(eta, pm).adjoint())
        omega = xi[0] * eta[1] - xi[1] * eta[0]
        phase = np.exp(2j * np.pi * (eps * omega % 5) / 5)
        assert np.abs(comm.dense() - phase * np.eye(5)).max() < 1e-12


def test_quantize_constant_and_single():
    pm = PrimeModulus(5, 1)
    f = FourierPolynomial({(0, 0): 2.5})
    assert np.abs(quantize(f, pm) - 2.5 * np.eye(5)).max() < 1e-15
    g = FourierPolynomial({(1, 2): 1.0})
    assert np.abs(quantize(g, pm) - pi_op((1, 2), pm).dense()).max() == 0


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


def test_phased_permutation_algebra():
    pm = PrimeModulus(5, 1)
    a, b = pi_op((1, 2), pm), pi_op((3, 4), pm)
    assert np.abs(a.compose(b).dense() - a.dense() @ b.dense()).max() < 1e-14
    assert np.abs(a.adjoint().dense() - a.dense().conj().T).max() < 1e-14
    ident = identity_op(pm)
    assert np.abs(a.compose(a.adjoint()).dense() - ident.dense()).max() < 1e-14
    dense = np.arange(25, dtype=complex).reshape(5, 5)
    assert np.abs(a.apply_left(dense) - a.dense() @ dense).max() < 1e-12
    assert np.abs(a.apply_right(dense) - dense @ a.dense()).max() < 1e-12


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
