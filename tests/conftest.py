import pytest

from torusque import hecke, weil
from torusque.quevaluator import PrimeContext
from torusque.classical import CAT_MAP, SP4_FIXTURE, validate_ergodic
from torusque.ffcore import PrimeModulus


@pytest.fixture(scope="session")
def cat_map():
    return validate_ergodic(CAT_MAP)


@pytest.fixture(scope="session")
def sp4_elem():
    return validate_ergodic(SP4_FIXTURE)


@pytest.fixture(scope="session")
def rep_cache():
    """linearize() is deterministic; share one rep per modulus across tests."""
    cache = {}

    def get(p, n=1):
        key = (p, n)
        if key not in cache:
            cache[key] = weil.linearize(PrimeModulus(p, n))
        return cache[key]

    return get


@pytest.fixture(scope="session")
def torus_cache(cat_map, sp4_elem):
    cache = {}

    def get(p, n=1):
        key = (p, n)
        if key not in cache:
            elem = cat_map if n == 1 else sp4_elem
            cache[key] = hecke.centralizer(elem.matrix, PrimeModulus(p, n),
                                           elem.charpoly)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def sp4_split13(sp4_elem):
    """The fully split n = 2 case p = 13 under the canonical rho."""
    return PrimeContext.build(sp4_elem, PrimeModulus(13, 2))


@pytest.fixture(scope="session")
def sp4_product19(sp4_elem):
    """n = 2 at p = 19, where T = Z_20 x Z_20 is a product of two nonsplit
    n = 1 tori, under the canonical rho."""
    return PrimeContext.build(sp4_elem, PrimeModulus(19, 2))


@pytest.fixture(scope="session")
def sp4_inert23(sp4_elem):
    """The inert n = 2 case p = 23 (P_A irreducible mod p) under the
    canonical rho, shared by the scoped acceptance claim and the memory guard."""
    return PrimeContext.build(sp4_elem, PrimeModulus(23, 2))
