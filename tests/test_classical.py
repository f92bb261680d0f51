import numpy as np
import pytest

from torusque import ffcore
from torusque.classical import (CAT_MAP, SP4_FIXTURE, ValidationError,
                                birkhoff_average, birkhoff_many,
                                find_ergodic_sp4, sp_group_order, try_validate,
                                validate_ergodic)

from oracles import is_palindromic, matrix_order_modp


def test_cat_map_accepted(cat_map):
    assert cat_map.charpoly == (1, -3, 1)
    assert cat_map.n == 1
    # roots (3 +- sqrt(5))/2 are off the unit circle
    assert ffcore.is_irreducible_q(cat_map.charpoly)[0]


def test_identity_rejected():
    with pytest.raises(ValidationError) as e:
        validate_ergodic(((1, 0), (0, 1)))
    assert e.value.code == "root-of-unity"


def test_rotation_rejected():
    # eigenvalues +-i are 4th roots of unity
    with pytest.raises(ValidationError) as e:
        validate_ergodic(((0, 1), (-1, 0)))
    assert e.value.code == "root-of-unity"


def test_nonsymplectic_rejected():
    with pytest.raises(ValidationError) as e:
        validate_ergodic(((2, 0), (0, 1)))
    assert e.value.code == "non-symplectic"


def test_reducible_rejected():
    # symplectic, no cyclotomic factor, but charpoly factors over Q:
    # diag-type hyperbolic (x - 2)(x - 1/2) has non-integer factorization,
    # so use a 4x4 block diagonal of two cat maps
    a = ((2, 1, 0, 0), (1, 1, 0, 0), (0, 0, 2, 1), (0, 0, 1, 1))
    # reorder into symplectic coordinates (lam1, lam2, mu1, mu2)
    m = ((2, 0, 1, 0), (0, 2, 0, 1), (1, 0, 1, 0), (0, 1, 0, 1))
    elem, verdict = try_validate(m)
    assert elem is None and "reducible" in verdict


def test_try_validate_verdicts():
    elem, verdict = try_validate(CAT_MAP)
    assert elem is not None and verdict == "accepted"


def test_sp4_search_reproduces_fixture(sp4_elem):
    found = find_ergodic_sp4()
    assert found.matrix == SP4_FIXTURE
    assert found.charpoly == (1, -13, 40, -13, 1)
    assert ffcore.is_symplectic(found.matrix)
    assert is_palindromic(found.charpoly)
    assert len(found.charpoly) == 5  # palindromic quartic


def test_sp4_fixture_split_behaviour(sp4_elem):
    cp = sp4_elem.charpoly
    for p, expected in ((3, [4]), (7, [4]), (11, [4]), (13, [1, 1, 1, 1])):
        cpm = ffcore.poly_mod_reduce(cp, p)
        assert ffcore.is_squarefree_modp(cpm, p)
        assert ffcore.factor_degrees_modp(cpm, p) == expected


def test_birkhoff_trivial_cases(cat_map):
    assert birkhoff_average(cat_map, (0, 0), (0.3, 0.7), 100) == 1.0
    # fixed point at the origin: the character is constantly 1
    val = birkhoff_average(cat_map, (1, 0), (0.0, 0.0), 500)
    assert abs(val - 1.0) < 1e-12


def test_birkhoff_decay_statistical(cat_map):
    rng = np.random.default_rng(2024)
    xs = rng.random((6, 2))
    vals = np.abs(birkhoff_many(cat_map, (1, 0), xs, 20000))
    assert np.median(vals) < 0.05  # full 1e6-step run lives in acceptance


def test_quantum_period_divides_group_order(cat_map):
    for p in ffcore.odd_primes(3, 13):
        order = matrix_order_modp(cat_map.matrix, p)
        assert sp_group_order(p, 1) % order == 0
    assert matrix_order_modp(cat_map.matrix, 7) == 8


def test_sp4_period_divides_group_order(sp4_elem):
    for p in (3, 5, 7, 11, 13):
        order = matrix_order_modp(sp4_elem.matrix, p)
        assert sp_group_order(p, 2) % order == 0


def test_sp_group_order():
    assert sp_group_order(3, 1) == 24
    assert sp_group_order(5, 1) == 120
    assert sp_group_order(3, 2) == 51840
