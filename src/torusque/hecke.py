"""Hecke tori: centralizers of an ergodic element mod p, their characters,
and the joint eigenspace decomposition of the quantum space.

The centralizer of a regular semisimple A in Sp(2n, F_p) is computed inside
the commutative algebra F_p[A]: every candidate is c_0 + c_1 A + ... +
c_{2n-1} A^{2n-1}, and the symplectic ones form the torus.  This costs p^{2n}
candidates instead of a search through |Sp(2n, F_p)|.

The torus is a direct product of cyclic groups <g_1> x ... x <g_k>, found
by one greedy pass over its elements (`torus_structure`).  The joint
eigenbasis is read from rho of the torus generators (`decompose`); no
operator of any other torus element is built for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import numpy as np

from . import ffcore
from .ffcore import Mat, PrimeModulus, mat, mat_mod, mat_mul
from .heisenberg import lattice_vectors


class DegeneratePrimeError(ValueError):
    """Characteristic polynomial not squarefree mod p: centralizer is no torus."""


@dataclass
class HeckeTorus:
    pm: PrimeModulus
    elements: list            # list[Mat], deterministic order
    split_type: str           # "split" | "nonsplit" | "mixed"
    factor_degrees: list      # degrees of the irreducible factors of P_A mod p
    generators: list          # [(Mat, order), ...], T = <g_1> x ... x <g_k>
    dlog: dict                # Mat -> exponent tuple on the generators

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def gen_orders(self) -> tuple:
        """Cyclic factor orders (m_1, ..., m_k), one per generator."""
        return tuple(m for _, m in self.generators)


def is_degenerate_prime(charpoly, p: int) -> bool:
    return not ffcore.is_squarefree_modp(charpoly, p)


def centralizer(a: Mat, pm: PrimeModulus, charpoly) -> HeckeTorus:
    """All symplectic elements of F_p[A mod p], with group structure attached.

    charpoly is the characteristic polynomial of A over Z.  Raises
    DegeneratePrimeError when P_A mod p has a repeated factor (then F_p[A]
    is not etale and the centralizer is not a torus).
    """
    p, n = pm.p, pm.n
    d = 2 * n
    a = mat_mod(mat(a), p)
    cp_mod = ffcore.poly_mod_reduce(charpoly, p)
    if is_degenerate_prime(cp_mod, p):
        g = ffcore.poly_gcd_modp(cp_mod, ffcore.poly_deriv(cp_mod, mod=p), p)
        raise DegeneratePrimeError(
            f"p = {p}: characteristic polynomial has repeated factor "
            f"{ffcore.poly_str(g)} mod {p}")

    # stack powers I, A, ..., A^{2n-1} and form all F_p-combinations
    powers = [ffcore.identity_mat(d)]
    for _ in range(d - 1):
        powers.append(mat_mul(powers[-1], a, mod=p))
    pow_arr = np.array(powers, dtype=np.int64)          # (d, d, d)
    coeffs = lattice_vectors(pm)                        # (p^d, d), d = 2n
    cands = np.tensordot(coeffs, pow_arr, axes=(1, 0)) % p  # (p^d, d, d)

    j = np.array(ffcore.standard_j(n), dtype=np.int64)
    jt = np.einsum("bij,jk->bik", cands.transpose(0, 2, 1), j) % p
    form = np.einsum("bij,bjk->bik", jt, cands) % p
    keep = np.all(form == j % p, axis=(1, 2))
    elements = [tuple(tuple(int(x) for x in row) for row in cands[i])
                for i in np.nonzero(keep)[0]]
    if a not in elements:
        raise RuntimeError("A mod p missing from its own centralizer")

    degs = ffcore.factor_degrees_modp(cp_mod, p)
    if all(dd == 1 for dd in degs):
        split = "split"
    elif all(dd > 1 for dd in degs):
        split = "nonsplit"
    else:
        split = "mixed"
    generators, dlog = torus_structure(elements, p)
    return HeckeTorus(pm, elements, split, degs, generators, dlog)


def torus_structure(elements: list, p: int) -> tuple[list, dict]:
    """Generators [(g_j, m_j), ...] and discrete logs of an abelian group.

    Greedy over the subgroup H = <g_1> x ... x <g_{j-1}> found so far: g_j
    is the first element, in list order, of the largest order m whose
    powers meet H only in I (the smallest k with b^k in H has b^k = I).  The
    scan stops once m |H| = |T|, which no later element can beat.  Each
    extension H x <g_j> is certified by regenerating exactly |H| m distinct
    products, until H is the whole group.
    """
    ident = ffcore.identity_mat(len(elements[0]))
    dlog = {ident: ()}
    generators = []
    while len(dlog) < len(elements):
        best, m = None, 1
        for b in elements:
            acc, k = b, 1
            while acc not in dlog:
                acc = mat_mul(acc, b, mod=p)
                k += 1
            if acc == ident and k > m:
                best, m = b, k
                if m * len(dlog) == len(elements):
                    break
        if best is None:
            raise RuntimeError(f"no element extends a subgroup of order "
                               f"{len(dlog)} in a group of order {len(elements)}")
        extended = {}
        for h, exps in dlog.items():
            acc = h
            for e in range(m):
                extended[acc] = exps + (e,)
                acc = mat_mul(acc, best, mod=p)
        if len(extended) != len(dlog) * m:
            raise RuntimeError("generator products are not all distinct")
        dlog = extended
        generators.append((best, m))
    return generators, dlog


# ---------------------------------------------------------------------------
# characters


@dataclass(frozen=True)
class TorusCharacter:
    """chi(prod_j g_j^e_j) = exp(2 pi i sum_j k_j e_j / m_j); exact on exponents."""

    orders: tuple
    exps: tuple

    def value_fraction(self, exps: tuple) -> Fraction:
        t = Fraction(0)
        for k, m, e in zip(self.exps, self.orders, exps):
            t += Fraction(k * e, m)
        return t % 1

    @property
    def order(self) -> int:
        o = 1
        for k, m in zip(self.exps, self.orders):
            o = lcm(o, m // gcd(k, m) if k else 1)
        return o

    def inverse(self) -> "TorusCharacter":
        return TorusCharacter(self.orders,
                              tuple((-k) % m for k, m in zip(self.exps, self.orders)))


def characters(torus: HeckeTorus) -> list[TorusCharacter]:
    """All |T| multiplicative characters, in lexicographic exponent order."""
    ms = torus.gen_orders
    return [TorusCharacter(ms, ks) for ks in product(*map(range, ms))]


# ---------------------------------------------------------------------------
# eigenspace decomposition


@dataclass
class EigenspaceDecomposition:
    torus: HeckeTorus
    entries: list             # [(TorusCharacter, basis (d, dim) ndarray, dim)]
    dims: list                # aligned with characters(torus)
    max_eigen_dev: float      # max over vectors v and generators g of
                              # || rho(g) v - chi(g) v ||


# Coefficients c_i of the Hermitian combination sum_i (c_i rho(g_i) + h.c.)
# that `decompose` diagonalizes, one row per attempt: fixed, so the basis
# never depends on a seed.  A row under which two occupied characters share
# an eigenvalue fails the certificate, and the next row is tried.  A torus
# with k generators reads the first k coefficients of each row (`_mix_row`).
MIX_COEFFICIENTS = (
    (0.8147 + 0.1270j, 0.3277 + 0.6324j),
    (0.5469 + 0.9575j, 0.9649 + 0.1576j),
    (0.9706 + 0.4854j, 0.8003 + 0.1419j),
)

# largest || rho(g) v - chi(g) v || accepted for an eigenvector of decompose
EIGEN_TOL = 1e-8


def _mix_row(row: tuple, k: int) -> tuple:
    """The first k coefficients of a row, continued past its end by
    c_j = c_{j-2} c_{j-1}, so every generator gets one for any k."""
    coeffs = list(row[:k])
    while len(coeffs) < k:
        coeffs.append(coeffs[-2] * coeffs[-1])
    return tuple(coeffs)


def decompose(torus: HeckeTorus, rep) -> EigenspaceDecomposition:
    """Joint eigenbasis of the torus, from rho of its generators only.

    rho(g_i) are commuting unitaries, so the eigenvectors of the Hermitian
    H = sum_i (c_i rho(g_i) + conj(c_i) rho(g_i)^dagger) are joint
    eigenvectors once c separates the occupied characters.  Each vector's
    exponent k_i is its Rayleigh quotient <v|rho(g_i)|v> rounded to the
    nearest m_i-th root of unity, and every vector is certified by
    || rho(g_i) v - e(k_i/m_i) v || <= EIGEN_TOL for every generator.  The basis
    is orthonormal and complete (eigh), so the dims sum to p^n.
    """
    d = torus.pm.dim
    gens = [rep.op(g) for g, _ in torus.generators]
    orders = torus.gen_orders
    worst = np.inf
    for row in MIX_COEFFICIENTS:
        h = sum(c * g for c, g in zip(_mix_row(row, len(gens)), gens, strict=True))
        _, vecs = np.linalg.eigh(h + h.conj().T)
        label = np.zeros(d, dtype=np.int64)
        dev = 0.0
        for g, m in zip(gens, orders, strict=True):
            image = g @ vecs
            quotient = np.einsum("ij,ij->j", vecs.conj(), image)
            k = np.rint(np.angle(quotient) * m / (2 * np.pi)).astype(np.int64) % m
            resid = image - vecs * np.exp(2j * np.pi * k / m)
            dev = max(dev, float(np.linalg.norm(resid, axis=0).max()))
            label = label * m + k              # characters() index order
        if dev <= EIGEN_TOL:
            break
        worst = min(worst, dev)
    else:
        raise RuntimeError(f"eigenvector certificate {worst:.2e} > {EIGEN_TOL:.0e} "
                           f"under every mixing coefficient row")
    entries = []
    for idx, chi in enumerate(characters(torus)):
        basis = vecs[:, label == idx]
        entries.append((chi, basis, basis.shape[1]))
    return EigenspaceDecomposition(torus, entries, [e[2] for e in entries], dev)
