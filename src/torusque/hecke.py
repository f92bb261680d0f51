"""Hecke tori: centralizers of an ergodic element mod p, their characters,
and the joint eigenspace decomposition of the quantum space.

The centralizer of a regular semisimple A in Sp(2n, F_p) is computed inside
the commutative algebra F_p[A]: every candidate is B = f(A) = c_0 + c_1 A +
... + c_{2n-1} A^{2n-1}, and the symplectic ones form the torus.  As A is
symplectic, B^T J B = J f(1/A) f(A), and P_A is squarefree mod p, so
F_p[A] = F_p[x]/(P_A) and B is symplectic exactly when the norm

    N(c) = f(1/x) f(x) = sum_ij c_i c_j (x^(j-i) mod P_A)

is 1 (`norm`, from the table `norm_table` of the x^(j-i)).  N is read on
all p^{2n} coefficient vectors c, in chunks of CHUNK_BYTES made from their
index ranges (`heisenberg.digits`), and only the |T| that pass become
matrices, so the memory is O(CHUNK_BYTES + |T|) and the work p^{2n} (2n)^3,
not a search through |Sp(2n, F_p)|.

The torus is a direct product of cyclic groups <g_1> x ... x <g_k>, found
by one greedy pass over its elements (`torus_structure`), vectorized over
the int64 stack of the elements.  The joint eigenbasis is read from rho of
the torus generators, one operator at a time (`decompose`); no operator is
kept, and none of any other torus element is built.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import numpy as np

from . import ffcore, weil
from .ffcore import Mat, PrimeModulus, mat, mat_mod, mat_mul
from .heisenberg import BudgetExceeded, chunk_items, digits


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


def norm_table(cp_mod, p: int) -> np.ndarray:
    """(2n, 2n, 2n) int64 table R with R[i, j] the coefficients of
    x^(j - i) mod (P_A, p), lowest degree first.

    cp_mod is P_A mod p, monic of degree 2n with P_A(0) a unit mod p, so x is
    invertible: x (P_A - P_A(0)) / x = -P_A(0) mod P_A.
    """
    d = ffcore.poly_deg(cp_mod)
    inv0 = pow(cp_mod[0], -1, p)
    x_inv = tuple(-c * inv0 % p for c in cp_mod[1:])

    def times(f, g):
        return ffcore.poly_divmod(ffcore.poly_mul(f, g, mod=p), cp_mod, mod=p)[1]

    powers = {0: (1,)}
    for e in range(1, d):
        powers[e] = times(powers[e - 1], (0, 1))
        powers[-e] = times(powers[1 - e], x_inv)
    table = np.zeros((d, d, d), dtype=np.int64)
    for i, j in product(range(d), repeat=2):
        coeffs = powers[j - i]
        table[i, j, :len(coeffs)] = coeffs
    return table


def norm(coeffs: np.ndarray, table: np.ndarray, p: int) -> np.ndarray:
    """N(c) = sum_ij c_i c_j R[i, j] mod p for every row c of an (m, 2n) int64
    array, R = norm_table: the coefficients of f(1/x) f(x) mod P_A for
    f = sum_k c_k x^k (entries stay below 4n^2 p^3)."""
    d = table.shape[0]
    half = (coeffs @ table.reshape(d, d * d)).reshape(-1, d, d)  # sum_i c_i R[i]
    return np.einsum("kj,kjl->kl", coeffs, half) % p


def centralizer(a: Mat, pm: PrimeModulus, charpoly,
                deadline: float | None = None) -> HeckeTorus:
    """All symplectic elements of F_p[A mod p], with group structure attached.

    charpoly is the characteristic polynomial of A over Z.  Raises
    DegeneratePrimeError when P_A mod p has a repeated factor (then F_p[A]
    is not etale and the centralizer is not a torus), and BudgetExceeded
    when `deadline`, a `time.perf_counter()` value, has passed before a
    chunk of the norm filter (module docs).
    """
    p, d = pm.p, 2 * pm.n
    a = mat_mod(mat(a), p)
    cp_mod = ffcore.poly_mod_reduce(charpoly, p)
    if is_degenerate_prime(cp_mod, p):
        g = ffcore.poly_gcd_modp(cp_mod, ffcore.poly_deriv(cp_mod, mod=p), p)
        raise DegeneratePrimeError(
            f"p = {p}: characteristic polynomial has repeated factor "
            f"{ffcore.poly_str(g)} mod {p}")

    # the coefficient vectors c with N(c) = 1, in flat index order
    table = norm_table(cp_mod, p)
    one = np.eye(1, d, dtype=np.int64)
    total = p ** d                                      # d = 2n
    rows = chunk_items(8 * d * d)
    kept = []
    for start in range(0, total, rows):
        if deadline is not None and time.perf_counter() > deadline:
            raise BudgetExceeded(f"deadline passed at candidate {start} of {total}")
        chunk = digits(np.arange(start, min(start + rows, total)), p, d)
        kept.append(chunk[(norm(chunk, table, p) == one).all(axis=1)])

    # only those become matrices sum_k c_k A^k
    powers = [ffcore.identity_mat(d)]
    for _ in range(d - 1):
        powers.append(mat_mul(powers[-1], a, mod=p))
    torus = np.tensordot(np.concatenate(kept), np.array(powers, dtype=np.int64),
                         axes=(1, 0)) % p               # (|T|, d, d)
    if not ffcore.is_symplectic(torus, p).all():
        raise RuntimeError("the norm filter kept a non-symplectic element")
    if not (torus == np.array(a)).all(axis=(1, 2)).any():
        raise RuntimeError("A mod p missing from its own centralizer")
    elements = [tuple(map(tuple, b)) for b in torus.tolist()]

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
    is the first element, in list order, of the largest order m of bH in
    T/H among the b whose powers meet H only in I, that is whose order in T
    is m too (b^m in H is then I).  The orders come for the whole int64
    stack at once (`_coset_orders`).  Each extension H x <g_j> is certified
    by regenerating exactly |H| m distinct products, until H is the whole
    group; every power and product is looked up in the element list, and
    one that is not there raises.  dlog lists the elements in lexicographic
    order of their exponents.
    """
    stack = np.array(elements, dtype=np.int64) % p
    total, d = stack.shape[:2]
    find = _row_lookup(stack)
    ident = np.eye(d, dtype=np.int64)
    members = find(ident[None])                 # H, in dlog order
    exps = np.zeros((1, 0), dtype=np.int64)
    in_h = np.zeros(total, dtype=bool)
    in_h[members] = True
    orders = None
    generators = []
    while len(members) < total:
        q, rest = divmod(total, len(members))
        if rest:
            raise RuntimeError(f"a subgroup of order {len(members)} in a group "
                               f"of order {total}")
        k = _coset_orders(stack, in_h, find, q, p)
        if orders is None:
            orders = k                          # H = {I}: the element orders
        fits = np.flatnonzero((k == orders) & (k > 1))
        if not fits.size:
            raise RuntimeError(f"no element extends a subgroup of order "
                               f"{len(members)} in a group of order {total}")
        best = int(fits[np.argmax(k[fits])])    # the first of the largest
        m = int(k[best])
        cyclic = ident[None]                    # g^0, ..., g^(m-1) by doubling
        step = stack[best]
        while len(cyclic) < m:
            cyclic = np.concatenate([cyclic, cyclic @ step % p])
            step = step @ step % p
        extended = find((stack[members][:, None] @ cyclic[None, :m] % p).reshape(-1, d, d))
        if np.bincount(extended, minlength=total).max() > 1:
            raise RuntimeError("generator products are not all distinct")
        exps = np.concatenate([np.repeat(exps, m, axis=0),
                               np.tile(np.arange(m), len(members))[:, None]], axis=1)
        members = extended
        in_h[members] = True
        generators.append((elements[best], m))
    dlog = {elements[i]: tuple(e) for i, e in zip(members.tolist(), exps.tolist())}
    return generators, dlog


def _row_lookup(stack: np.ndarray):
    """find(mats): the index in stack of every matrix of a (k, d, d) array,
    through the stack's rows sorted lexicographically; a matrix that is not
    in the stack raises."""
    def keys(mats):
        flat = np.ascontiguousarray(mats.reshape(len(mats), -1), dtype=">i8")
        return flat.view(f"V{flat.shape[1] * 8}").ravel()

    table = keys(stack)
    order = np.argsort(table)
    table = table[order]

    def find(mats):
        want = keys(mats)
        pos = np.minimum(np.searchsorted(table, want), len(table) - 1)
        if (table[pos] != want).any():
            raise RuntimeError("a power or product is not in the element list")
        return order[pos]

    return find


def _power(stack: np.ndarray, e: int, p: int) -> np.ndarray:
    """b^e mod p for every b of a (k, d, d) int64 stack, e >= 1, by repeated
    squaring."""
    out = None
    while True:
        if e & 1:
            out = stack if out is None else out @ stack % p
        e >>= 1
        if not e:
            return out
        stack = stack @ stack % p


def _coset_orders(stack: np.ndarray, in_h: np.ndarray, find, q: int, p: int) -> np.ndarray:
    """The order of bH in T/H for every b of the stack; in_h marks H, and
    q = |T/H|.  For each prime power r^e dividing q exactly, the r-part of
    the order is r^t for the least t with (b^(q / r^e))^(r^t) in H; rows
    leave as soon as they reach H.  A b with b^q not in H raises: then the
    elements are no group of their number."""
    k = np.ones(len(stack), dtype=np.int64)
    for r, e in ffcore.factorize(q):
        y = _power(stack, q // r ** e, p)
        rows = np.flatnonzero(~in_h[find(y)])
        y = y[rows]
        for _ in range(e):
            if not rows.size:
                break
            y = _power(y, r, p)
            k[rows] *= r
            out = ~in_h[find(y)]
            rows, y = rows[out], y[out]
        if rows.size:
            raise RuntimeError(f"b^{q} is not in a subgroup of index {q}")
    return k


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
    basis: np.ndarray         # (d, d), dims[i] columns per character, in order
    dims: list                # aligned with characters(torus)
    max_eigen_dev: float      # max over vectors v and generators g of
                              # || rho(g) v - chi(g) v ||

    @property
    def entries(self) -> list:
        """[(TorusCharacter, (d, dim) column slice of basis, dim)]."""
        ends = np.cumsum(self.dims).tolist()
        return [(chi, self.basis[:, end - dim:end], dim)
                for chi, dim, end in zip(characters(self.torus), self.dims, ends)]


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


def decompose(torus: HeckeTorus, rep: weil.WeilRep) -> EigenspaceDecomposition:
    """Joint eigenbasis of the torus from rep, rho of its generators g_i.

    rho(g_i) are commuting unitaries, so the eigenvectors of the Hermitian
    H = sum_i (c_i rho(g_i) + conj(c_i) rho(g_i)^dagger) are joint
    eigenvectors once c separates the occupied characters.  H is summed one
    generator at a time: rho(g_i) from rep.build_chunks, scaled in place,
    added and dropped.  Each vector's exponent k_i is its Rayleigh quotient
    <v|rho(g_i)|v> rounded to the nearest m_i-th root of unity, and every
    vector is certified by || rho(g_i) v - e(k_i/m_i) v || <= EIGEN_TOL for
    every generator, rho(g_i) V read in CHUNK_BYTES column blocks by
    rep.apply_many, the other route to rho, Egorov-checked first on the
    generators (`weil.egorov_on_probe`, held to 1e-8).  The basis is
    orthonormal and complete (eigh), so the dims sum to p^n.  At most two
    p^n x p^n arrays are alive at once, and no p^n x p^n product is taken.
    """
    d = torus.pm.dim
    gens = [g for g, _ in torus.generators]
    fac = weil.factorize(torus.pm, gens)            # factored once for apply_many
    egorov = weil.egorov_on_probe(lambda z: rep.apply_many(fac, z), gens, torus.pm)
    if egorov.max() > 1e-8:
        raise weil.ConstructionError(
            f"Egorov deviation {egorov.max():.2e} for {gens[egorov.argmax()]}")
    width = chunk_items(16 * d)
    worst = np.inf
    for row in MIX_COEFFICIENTS:
        h = np.zeros((d, d), dtype=complex)
        for c, g in zip(_mix_row(row, len(gens)), gens):
            op = next(rep.build_chunks([g]))[0]
            op *= c
            h += op
            del op              # not held while the next one is built
        h += h.conj().T
        _, vecs = np.linalg.eigh(h)
        del h
        label = np.zeros(d, dtype=np.int64)
        dev = 0.0
        for lo in range(0, d, width):
            v = vecs[:, lo:lo + width]
            for i, m in enumerate(torus.gen_orders):
                (resid,) = rep.apply_many(fac[i:i + 1], v)
                quotient = np.einsum("ij,ij->j", v.conj(), resid)
                k = np.rint(np.angle(quotient) * m / (2 * np.pi)).astype(np.int64) % m
                resid -= v * np.exp(2j * np.pi * k / m)
                dev = max(dev, float(np.linalg.norm(resid, axis=0).max()))
                label[lo:lo + width] = label[lo:lo + width] * m + k   # characters() order
                del resid               # not held while the next block is applied
        if dev <= EIGEN_TOL:
            break
        worst = min(worst, dev)
    else:
        raise RuntimeError(f"eigenvector certificate {worst:.2e} > {EIGEN_TOL:.0e} "
                           f"under every mixing coefficient row")
    basis = vecs[:, np.argsort(label, kind="stable")]
    dims = np.bincount(label, minlength=torus.order).tolist()
    return EigenspaceDecomposition(torus, basis, dims, dev)
