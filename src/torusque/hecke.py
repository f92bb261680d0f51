"""Hecke tori: centralizers of an ergodic element mod p, their characters,
and the joint eigenspace decomposition of the quantum space.

The centralizer of a regular semisimple A in Sp(2n, F_p) is computed inside
the commutative algebra F_p[A]: every candidate is c_0 + c_1 A + ... +
c_{2n-1} A^{2n-1}, and the symplectic ones form the torus.  This costs p^{2n}
candidates instead of a search through |Sp(2n, F_p)|.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from . import ffcore
from .ffcore import Mat, PrimeModulus, mat, mat_mod, mat_mul
from .heisenberg import lattice_vectors, pi_op


class DegeneratePrimeError(ValueError):
    """Characteristic polynomial not squarefree mod p: centralizer is no torus."""


class UnsupportedStructureError(RuntimeError):
    """Abelian structure needs more than two generators (out of desk scale)."""


@dataclass
class HeckeTorus:
    pm: PrimeModulus
    a_mod_p: Mat
    elements: list            # list[Mat], deterministic order
    order: int
    split_type: str           # "split" | "nonsplit" | "mixed"
    factor_degrees: list      # degrees of the irreducible factors of P_A mod p
    generators: list          # [(Mat, order), ...] minimal generating list
    dlog: dict                # Mat -> exponent tuple on the generators
    gen_orders: tuple         # cyclic factor orders (m1,) or (m1, m2)

    def index_of(self, b: Mat) -> int:
        return self._index[mat_mod(mat(b), self.pm.p)]

    def contains(self, b: Mat) -> bool:
        return mat_mod(mat(b), self.pm.p) in self._index


def is_degenerate_prime(charpoly, p: int) -> bool:
    return not ffcore.is_squarefree_modp(charpoly, p)


def centralizer(a: Mat, pm: PrimeModulus, charpoly=None) -> HeckeTorus:
    """All symplectic elements of F_p[A mod p], with group structure attached.

    Raises DegeneratePrimeError when P_A mod p has a repeated factor (then
    F_p[A] is not etale and the centralizer is not a torus).
    """
    p, n = pm.p, pm.n
    d = 2 * n
    a = mat_mod(mat(a), p)
    if charpoly is None:
        charpoly = ffcore.char_poly(a)
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

    degs = ffcore.factor_degrees_modp(cp_mod, p)
    if all(dd == 1 for dd in degs):
        split = "split"
    elif all(dd > 1 for dd in degs):
        split = "nonsplit"
    else:
        split = "mixed"

    torus = HeckeTorus(pm, a, elements, len(elements), split, degs,
                       [], {}, ())
    torus._index = {b: i for i, b in enumerate(elements)}
    if not torus.contains(a):
        raise RuntimeError("A mod p missing from its own centralizer")
    torus_structure(torus)
    return torus


def _element_order(b: Mat, p: int, bound: int) -> int:
    ident = ffcore.identity_mat(len(b))
    acc = b
    for k in range(1, bound + 1):
        if acc == ident:
            return k
        acc = mat_mul(acc, b, mod=p)
    raise RuntimeError("order exceeds group order bound")


def torus_structure(torus: HeckeTorus) -> HeckeTorus:
    """Fill generators, cyclic factor orders, and discrete logs.

    Cyclic case: one element of maximal order.  Otherwise a two-generator
    decomposition Z_m1 x Z_m2 (m1 the exponent, m2 = |T|/m1) is located by
    search and certified by regenerating exactly |T| distinct products.
    """
    p = torus.pm.p
    n_t = torus.order
    orders = [_element_order(b, p, n_t) for b in torus.elements]
    exponent = 1
    for o in orders:
        exponent = lcm(exponent, o)
    g1 = torus.elements[orders.index(exponent)]

    if exponent == n_t:
        dlog = {}
        acc = ffcore.identity_mat(len(g1))
        for e in range(n_t):
            dlog[acc] = (e,)
            acc = mat_mul(acc, g1, mod=p)
        torus.generators = [(g1, exponent)]
        torus.gen_orders = (exponent,)
        torus.dlog = dlog
        if len(dlog) != n_t:
            raise RuntimeError("cyclic regeneration mismatch")
        return torus

    if n_t % exponent != 0:
        raise UnsupportedStructureError("exponent does not divide order")
    m2 = n_t // exponent
    cyc1 = set()
    acc = ffcore.identity_mat(len(g1))
    for _ in range(exponent):
        cyc1.add(acc)
        acc = mat_mul(acc, g1, mod=p)

    for g2, o2 in zip(torus.elements, orders):
        if o2 != m2:
            continue
        # trivial intersection of <g1> and <g2>
        acc, ok = g2, True
        for _ in range(m2 - 1):
            if acc in cyc1:
                ok = False
                break
            acc = mat_mul(acc, g2, mod=p)
        if not ok:
            continue
        dlog = {}
        row = ffcore.identity_mat(len(g1))
        for e1 in range(exponent):
            acc = row
            for e2 in range(m2):
                dlog[acc] = (e1, e2)
                acc = mat_mul(acc, g2, mod=p)
            row = mat_mul(row, g1, mod=p)
        if len(dlog) == n_t:
            torus.generators = [(g1, exponent), (g2, m2)]
            torus.gen_orders = (exponent, m2)
            torus.dlog = dlog
            return torus
    raise UnsupportedStructureError(
        f"no two-generator decomposition found for |T| = {n_t}")


# ---------------------------------------------------------------------------
# characters


@dataclass(frozen=True)
class TorusCharacter:
    """chi(g1^e1 g2^e2) = exp(2 pi i (k1 e1/m1 + k2 e2/m2)); exact on exponents."""

    orders: tuple
    exps: tuple

    def value_fraction(self, exps: tuple) -> Fraction:
        t = Fraction(0)
        for k, m, e in zip(self.exps, self.orders, exps):
            t += Fraction(k * e, m)
        return t % 1

    def value_of_exps(self, exps: tuple) -> complex:
        t = self.value_fraction(exps)
        return np.exp(2j * np.pi * float(t))

    def value(self, torus: HeckeTorus, b: Mat) -> complex:
        return self.value_of_exps(torus.dlog[mat_mod(mat(b), torus.pm.p)])

    def values_vector(self, torus: HeckeTorus) -> np.ndarray:
        return np.array([self.value_of_exps(torus.dlog[b]) for b in torus.elements])

    @property
    def is_trivial(self) -> bool:
        return all(k == 0 for k in self.exps)

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
    out = []
    if len(ms) == 1:
        for k in range(ms[0]):
            out.append(TorusCharacter(ms, (k,)))
    else:
        for k1 in range(ms[0]):
            for k2 in range(ms[1]):
                out.append(TorusCharacter(ms, (k1, k2)))
    return out


def character_table(torus: HeckeTorus) -> np.ndarray:
    """Matrix chi_values[c, b] over the element list; rows are orthogonal.

    Exact on integer exponents until the final exp: with L = lcm(m_j),
    chi_k(g^e) = exp(2 pi i num / L) for num = sum_j k_j (L / m_j) e_j mod L.
    """
    big = lcm(*torus.gen_orders)
    scale = np.array([big // m for m in torus.gen_orders], dtype=np.int64)
    ks = np.array([chi.exps for chi in characters(torus)], dtype=np.int64)
    es = np.array([torus.dlog[b] for b in torus.elements], dtype=np.int64)
    num = ((ks * scale) @ es.T) % big
    return np.exp(2j * np.pi * (num / big))


# ---------------------------------------------------------------------------
# eigenspace decomposition


@dataclass
class EigenspaceDecomposition:
    torus: HeckeTorus
    entries: list             # [(TorusCharacter, basis (d, dim) ndarray, dim)]
    dims: list                # aligned with characters(torus)
    max_eigen_dev: float      # max | rho(B) v - chi(B) v |

    def pattern(self) -> tuple:
        return tuple(self.dims)


def projector(chi: TorusCharacter, torus: HeckeTorus, rep) -> np.ndarray:
    """Orthogonal projector onto {v : rho(B) v = chi(B) v for all B in T}."""
    d = torus.pm.dim
    acc = np.zeros((d, d), dtype=complex)
    for b in torus.elements:
        acc += np.conj(chi.value(torus, b)) * rep.op(b)
    return acc / torus.order


def decompose(torus: HeckeTorus, rep, tol: float = 1e-8) -> EigenspaceDecomposition:
    """Simultaneous eigenspaces through the character projectors.

    Validates completeness (dims sum to p^n), projector idempotency, and the
    eigenvector property of every extracted basis vector against every B.
    """
    d = torus.pm.dim
    chis = characters(torus)
    ops = np.stack([rep.op(b) for b in torus.elements])      # (N, d, d)
    chivals = character_table(torus)                         # (K, N)
    projs = (np.conj(chivals) @ ops.reshape(torus.order, -1) / torus.order)
    projs = projs.reshape(len(chis), d, d)

    entries = []
    dims = []
    for chi, pmat in zip(chis, projs):
        idem = float(np.abs(pmat @ pmat - pmat).max())
        herm = float(np.abs(pmat - pmat.conj().T).max())
        if idem > 10 * tol or herm > 10 * tol:
            raise RuntimeError(f"projector defect: idem {idem:.2e}, herm {herm:.2e}")
        evals, evecs = np.linalg.eigh(pmat)
        sel = evals > 0.5
        dim = int(sel.sum())
        if abs(float(pmat.trace().real) - dim) > 1e-6:
            raise RuntimeError(f"projector trace {pmat.trace().real} vs rank {dim}")
        entries.append((chi, evecs[:, sel], dim))
        dims.append(dim)
    if sum(dims) != d:
        raise RuntimeError(f"eigenspace dimensions sum to {sum(dims)} != {d}")
    if np.abs(projs.sum(axis=0) - np.eye(d)).max() > 10 * tol:
        raise RuntimeError("projectors do not resolve the identity")

    # eigenvector equation for every basis vector against every torus element
    v = np.hstack([basis for _, basis, dim in entries if dim])
    col_chi = np.concatenate([[i] * dim for i, (_, _, dim) in enumerate(entries)
                              if dim]).astype(int)
    max_dev = 0.0
    for b_idx in range(torus.order):
        expected = chivals[col_chi, b_idx]
        dev = np.abs(ops[b_idx] @ v - v * expected[None, :]).max()
        max_dev = max(max_dev, float(dev))
    if max_dev > 10 * tol:
        raise RuntimeError(f"eigenvector equation deviation {max_dev:.2e}")
    return EigenspaceDecomposition(torus, entries, dims, max_dev)


def hecke_average(xi, torus: HeckeTorus, rep) -> np.ndarray:
    """(1/|T|) sum_B rho(B) T(xi) rho(B)^-1, block diagonal in the Hecke basis."""
    d = torus.pm.dim
    t = pi_op(xi, torus.pm)
    acc = np.zeros((d, d), dtype=complex)
    for b in torus.elements:
        r = rep.op(b)
        acc += t.apply_right(r) @ r.conj().T
    return acc / torus.order
