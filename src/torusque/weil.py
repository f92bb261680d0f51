"""The Weil representation of Sp(2n, F_p) on the quantum space.

Generators and their operators, acting on functions F_p^n -> C:

    dilate(M)  block diag(M, (M^T)^-1)      f(x) |-> legendre(det M) f(M^-1 x)
    shear(S)   [[I, 0], [-S, I]], S = S^T   f(x) |-> psi(nu x^T S x) f(x)
    fourier    [[0, I], [-I, 0]]            f(x) |-> gamma p^{-n/2} sum_y psi(x.y) f(y)

Each operator conjugates the lattice translations exactly as its matrix acts
on lattice vectors (the Egorov identity).  The free normalization gamma of
the Fourier element is solved, not assumed: with K = F D_I (D_I the shear of
the identity block), the matrix (fourier * shear(I))^3 is the identity in
Sp(2n, F_p), so K^3 must be a scalar c by irreducibility, and

    gamma^3 = 1/c,   gamma^2 = legendre((-1)^n, p)   =>   gamma = sigma((-1)^n)/c.

Every group element, at every n, is reached through a Bruhat-type word in the
three generators (sp_word), and rho(B) is the product of the generator
operators along that word.  The map is certified multiplicative by pair
checks (every pair of a small group, sampled pairs otherwise), by the
defining relations of the generator operators, and on a Hecke torus by an
O(|T|) certificate (certify_torus).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import ffcore
from .ffcore import Mat, PrimeModulus, legendre, mat, mat_inv_modp, mat_mod, mat_mul
from .heisenberg import PhasedPermutation, index_vectors, pi_op, root_table


class ConstructionError(RuntimeError):
    """No consistent phase assignment / intertwiner found."""


# ---------------------------------------------------------------------------
# generator operators


def dilate_matrix(m_block: Mat, pm: PrimeModulus) -> Mat:
    p, n = pm.p, pm.n
    inv_t = ffcore.mat_transpose(mat_inv_modp(m_block, p))
    rows = []
    for i in range(n):
        rows.append(tuple(m_block[i][j] % p for j in range(n)) + (0,) * n)
    for i in range(n):
        rows.append((0,) * n + tuple(inv_t[i][j] % p for j in range(n)))
    return tuple(rows)


def shear_matrix(s_block: Mat, pm: PrimeModulus) -> Mat:
    p, n = pm.p, pm.n
    rows = []
    for i in range(n):
        rows.append(tuple(1 if i == j else 0 for j in range(n)) + (0,) * n)
    for i in range(n):
        rows.append(tuple((-s_block[i][j]) % p for j in range(n))
                    + tuple(1 if i == j else 0 for j in range(n)))
    return tuple(rows)


def fourier_matrix(pm: PrimeModulus) -> Mat:
    n = pm.n
    rows = []
    for i in range(n):
        rows.append((0,) * n + tuple(1 if i == j else 0 for j in range(n)))
    for i in range(n):
        rows.append(tuple((-1) % pm.p if i == j else 0 for j in range(n)) + (0,) * n)
    return tuple(rows)


def dilate_op(m_block: Mat, pm: PrimeModulus) -> PhasedPermutation:
    """f |-> legendre(det M) f(M^-1 x), a signed permutation of the point basis."""
    p = pm.p
    det = ffcore.mat_det(m_block) % p
    if det == 0:
        raise ValueError("dilation block must be invertible mod p")
    minv = mat_inv_modp(m_block, p)
    pts = index_vectors(pm)
    src = ((pts @ np.array(minv).T) % p) @ (p ** np.arange(pm.n))
    expo = np.zeros(pm.dim, dtype=np.int64)
    return PhasedPermutation(pm, src.astype(np.intp), expo, float(legendre(det, p)))


def shear_op(s_block: Mat, pm: PrimeModulus) -> PhasedPermutation:
    """f |-> psi(nu x^T S x) f(x) for symmetric S."""
    p = pm.p
    s_block = mat_mod(mat(s_block), p)
    if s_block != ffcore.mat_transpose(s_block):
        raise ValueError("shear block must be symmetric")
    pts = index_vectors(pm)
    quad = np.einsum("xi,ij,xj->x", pts, np.array(s_block), pts) % p
    expo = (pm.nu * quad) % p
    return PhasedPermutation(pm, np.arange(pm.dim, dtype=np.intp),
                             expo.astype(np.int64))


def fourier_op(pm: PrimeModulus, gamma: complex = 1.0) -> np.ndarray:
    """gamma * p^{-n/2} [psi(x.y)]_{x,y}, dense."""
    pts = index_vectors(pm)
    dots = (pts @ pts.T) % pm.p
    return gamma * root_table(pm.p)[dots] / pm.p ** (pm.n / 2)


# ---------------------------------------------------------------------------
# words over the generators


@dataclass(frozen=True)
class SpFactor:
    kind: str  # "shear" | "dilate" | "fourier"
    block: Mat | None = None


def word_matrix(word: list[SpFactor], pm: PrimeModulus) -> Mat:
    out = ffcore.identity_mat(2 * pm.n)
    for f in word:
        if f.kind == "shear":
            g = shear_matrix(f.block, pm)
        elif f.kind == "dilate":
            g = dilate_matrix(f.block, pm)
        else:
            g = fourier_matrix(pm)
        out = mat_mul(out, g, mod=pm.p)
    return out


def word_operator(word: list[SpFactor], pm: PrimeModulus, gamma: complex) -> np.ndarray:
    out = np.eye(pm.dim, dtype=complex)
    f_op = None
    for f in word:
        if f.kind == "shear":
            out = shear_op(f.block, pm).apply_right(out)
        elif f.kind == "dilate":
            out = dilate_op(f.block, pm).apply_right(out)
        else:
            if f_op is None:
                f_op = fourier_op(pm, gamma)
            out = out @ f_op
    return out


def _blocks(b: Mat, n: int) -> tuple[Mat, Mat, Mat, Mat]:
    """The n x n blocks (A, Bb, C, D) of b = [[A, Bb], [C, D]]."""
    top, bottom = b[:n], b[n:]
    return (tuple(r[:n] for r in top), tuple(r[n:] for r in top),
            tuple(r[:n] for r in bottom), tuple(r[n:] for r in bottom))


def _bruhat_word(a: Mat, bb: Mat, d: Mat, p: int) -> list[SpFactor]:
    """[[A, Bb], [C, D]] with Bb invertible mod p, as
    shear(-D Bb^-1) dilate(Bb) fourier shear(-Bb^-1 A); C is implied."""
    neg_binv = ffcore.mat_neg(mat_inv_modp(bb, p), mod=p)
    s1 = mat_mul(d, neg_binv, mod=p)
    s2 = mat_mul(neg_binv, a, mod=p)
    word: list[SpFactor] = []
    if any(any(row) for row in s1):
        word.append(SpFactor("shear", s1))
    if bb != ffcore.identity_mat(len(bb)):
        word.append(SpFactor("dilate", bb))
    word.append(SpFactor("fourier"))
    if any(any(row) for row in s2):
        word.append(SpFactor("shear", s2))
    return word


def _upper_shear_word(s_block: Mat) -> list[SpFactor]:
    """U(S) = [[I, S], [0, I]] = fourier shear(S) fourier^3."""
    return [SpFactor("fourier"), SpFactor("shear", s_block),
            SpFactor("fourier"), SpFactor("fourier"), SpFactor("fourier")]


def sp_word(b: Mat, pm: PrimeModulus) -> list[SpFactor]:
    """Word over {shear, dilate, fourier} multiplying to b in Sp(2n, F_p).

    With b = [[A, Bb], [C, D]] in n x n blocks:

    * Bb invertible: shear(-D Bb^-1) dilate(Bb) fourier shear(-Bb^-1 A);
    * Bb = 0: dilate(A) shear(-A^T C);
    * otherwise b = (b U(S)) U(-S) with U(S) = [[I, S], [0, I]], where S is
      the first diagonal 0/1 matrix (bit j of 1, 2, ..., 2^n - 1 on diagonal
      entry j) for which the upper-right block Bb + A S of b U(S) is
      invertible.  One exists: by Arnold's lemma the Lagrangian row space of
      [A | Bb] is transverse to some coordinate Lagrangian, so some choice of
      columns from A and Bb is invertible, and det(Bb + A S) is the sum of
      the column choices inside the support of S (Moebius inversion over the
      2^n choices of S).

    Identity dilations and zero shears are left out, so at n = 1 the word is
    the familiar SL2 one: no Fourier factor when the upper-right entry
    vanishes, at most four factors otherwise.
    """
    p, n = pm.p, pm.n
    key = mat_mod(mat(b), p)
    if not ffcore.is_symplectic(key, p=p):
        raise ValueError("matrix is not symplectic mod p")
    a, bb, c, d = _blocks(key, n)
    if ffcore.mat_det(bb) % p:
        word = _bruhat_word(a, bb, d, p)
    elif not any(any(row) for row in bb):
        word = [SpFactor("dilate", a)] if a != ffcore.identity_mat(n) else []
        s = ffcore.mat_neg(mat_mul(ffcore.mat_transpose(a), c), mod=p)
        if any(any(row) for row in s):
            word.append(SpFactor("shear", s))
    else:
        for mask in range(1, 2 ** n):
            s = tuple(tuple((mask >> i) & 1 if i == j else 0 for j in range(n))
                      for i in range(n))
            bu = mat_mul(key, word_matrix(_upper_shear_word(s), pm), mod=p)
            a2, bb2, _, d2 = _blocks(bu, n)
            if ffcore.mat_det(bb2) % p:
                word = _bruhat_word(a2, bb2, d2, p) \
                    + _upper_shear_word(ffcore.mat_neg(s, mod=p))
                break
        else:
            raise ConstructionError(f"no diagonal 0/1 S makes Bb + A S invertible for {key}")
    assert word_matrix(word, pm) == key
    return word


# ---------------------------------------------------------------------------
# the linearized representation


@dataclass
class WeilRep:
    """Cache of unitary operators B -> rho(B) with the solved normalization.

    Entries are tagged by how they were produced: "bruhat-word" for operators
    built along sp_word, "generator-formula" for the generators seeded by
    linearize.  Every entry is validated against the Egorov identity.
    """

    pm: PrimeModulus
    gamma: complex
    egorov_tol: float
    cache: dict = field(default_factory=dict)
    tags: dict = field(default_factory=dict)

    def op(self, b: Mat) -> np.ndarray:
        key = mat_mod(mat(b), self.pm.p)
        if key in self.cache:
            return self.cache[key]
        dense = self.build(key)
        self.insert_generator(key, dense, "bruhat-word")
        return dense

    def build(self, b: Mat) -> np.ndarray:
        """rho(B) along sp_word(B), the route op takes, without caching it."""
        return word_operator(sp_word(b, self.pm), self.pm, self.gamma)

    def insert_generator(self, b: Mat, dense: np.ndarray, tag: str):
        key = mat_mod(mat(b), self.pm.p)
        dev = egorov_deviation(dense, key, self.pm)
        if dev > self.egorov_tol:
            raise ConstructionError(f"Egorov deviation {dev:.2e} for {tag} entry {key}")
        self.cache[key] = dense
        self.tags[key] = tag


def egorov_deviation(dense: np.ndarray, b: Mat, pm: PrimeModulus,
                     xis=None) -> float:
    """max | rho(B) T(xi) - T(B xi) rho(B) | over a spanning set of xi."""
    p, n = pm.p, pm.n
    if xis is None:
        xis = [tuple(1 if i == j else 0 for i in range(2 * n)) for j in range(2 * n)]
    dev = 0.0
    for xi in xis:
        bxi = ffcore.mat_vec(mat(b), tuple(int(c) for c in xi), mod=p)
        lhs = pi_op(xi, pm).apply_right(dense)          # rho(B) @ T(xi)
        rhs = pi_op(bxi, pm).apply_left(dense)          # T(B xi) @ rho(B)
        dev = max(dev, float(np.abs(lhs - rhs).max()))
    return dev


def solve_gamma(pm: PrimeModulus) -> complex:
    """Fix the Fourier normalization from the cube relation (see module docs)."""
    f0 = fourier_op(pm, 1.0)
    d1 = shear_op(ffcore.identity_mat(pm.n), pm)
    k = d1.apply_right(f0)          # F @ D_I
    k3 = k @ k @ k
    off = k3 - np.eye(pm.dim) * k3[0, 0]
    if np.abs(off).max() > 1e-8 * abs(k3[0, 0]):
        raise ConstructionError("cube of Fourier*shear is not scalar")
    c = k3[0, 0]
    if abs(abs(c) - 1.0) > 1e-8:
        raise ConstructionError(f"cube scalar |c| = {abs(c):.6f} != 1")
    r = legendre((-1) ** pm.n, pm.p)
    if abs(c * c - r) > 1e-8:
        raise ConstructionError(
            "normalization inconsistency: c^2 != legendre((-1)^n); "
            "generator conventions do not linearize")
    gamma = r / c
    return complex(gamma)


def linearize(pm: PrimeModulus, egorov_tol: float | None = None) -> WeilRep:
    """Build the representation with all free phases pinned."""
    if egorov_tol is None:
        egorov_tol = 1e-9 * pm.p ** (pm.n / 2)
    gamma = solve_gamma(pm)
    rep = WeilRep(pm, gamma, egorov_tol)
    # seed the cache with the generators themselves
    rep.insert_generator(fourier_matrix(pm), fourier_op(pm, gamma), "generator-formula")
    rep.insert_generator(shear_matrix(ffcore.identity_mat(pm.n), pm),
                         shear_op(ffcore.identity_mat(pm.n), pm).dense(),
                         "generator-formula")
    return rep


# ---------------------------------------------------------------------------
# group enumeration, sampling + multiplicativity certification


def sp_elements(pm: PrimeModulus) -> list[Mat]:
    """All of Sp(2n, F_p), in row-major lexicographic order.

    Scans all p^(4n^2) matrices, so it is meant for the smallest groups only.
    """
    p, d = pm.p, 2 * pm.n
    out = []
    for entries in product(range(p), repeat=d * d):
        m = tuple(entries[i * d:(i + 1) * d] for i in range(d))
        if ffcore.is_symplectic(m, p=p):
            out.append(m)
    return out


def random_sp(pm: PrimeModulus, rng: np.random.Generator, count: int) -> list[Mat]:
    """count random elements shear(S1) dilate(M) fourier shear(S2) of Sp(2n, F_p).

    The product is [[-M S2, M], [S1 M S2 - M^-T, -S1 M]] in closed form.  S1
    and S2 are uniform symmetric, and M = L U with L unit lower triangular and
    U upper triangular with a nonzero diagonal, so every leading minor of M
    is a unit and Gauss-Jordan elimination inverts it without pivoting.  The
    samples therefore cover only the big Bruhat cell (an invertible
    upper-right block M), and at n >= 2 only its LU-factorable M: every one
    takes sp_word's invertible-Bb branch.  Products of samples reach the
    Bb = 0 and singular-nonzero-Bb branches.  All
    entries come from one rng.integers call, and the arithmetic is exact
    int64 over the whole batch (every intermediate stays below n p^2).
    """
    p, n = pm.p, pm.n
    iu, ju = np.triu_indices(n)
    il, jl = np.tril_indices(n, -1)
    k = len(iu)
    # columns: S1, S2 and U on the upper triangle, then L below the diagonal;
    # only the diagonal of U avoids 0
    low = np.zeros(3 * k + len(il), dtype=np.int64)
    low[2 * k:3 * k] = iu == ju
    draws = rng.integers(low, p, size=(count, len(low)))
    s1, s2, u = (np.zeros((count, n, n), dtype=np.int64) for _ in range(3))
    lo = np.broadcast_to(np.eye(n, dtype=np.int64), (count, n, n)).copy()
    s1[:, iu, ju] = s1[:, ju, iu] = draws[:, :k]
    s2[:, iu, ju] = s2[:, ju, iu] = draws[:, k:2 * k]
    u[:, iu, ju] = draws[:, 2 * k:3 * k]
    lo[:, il, jl] = draws[:, 3 * k:]
    m = lo @ u % p
    inverse = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=np.int64)
    aug = np.concatenate([m, np.broadcast_to(np.eye(n, dtype=np.int64), m.shape)], axis=2)
    for c in range(n):
        aug[:, c] = aug[:, c] * inverse[aug[:, c, c]][:, None] % p
        for r in range(n):
            if r != c:
                aug[:, r] = (aug[:, r] - aug[:, r, c, None] * aug[:, c]) % p
    m_inv_t = aug[:, :, n:].transpose(0, 2, 1)
    ms2 = m @ s2 % p
    out = np.concatenate([np.concatenate([-ms2, m], axis=2),
                          np.concatenate([s1 @ ms2 - m_inv_t, -(s1 @ m)], axis=2)],
                         axis=1) % p
    return [tuple(map(tuple, b)) for b in out.tolist()]


@dataclass
class MultiplicativityReport:
    pairs_checked: int
    max_dev: float
    ok: bool


def check_multiplicativity(rep: WeilRep, pairs: list | None = None,
                           tol: float = 1e-8) -> MultiplicativityReport:
    """rho(B1) rho(B2) = rho(B1 B2) for every pair (B1, B2) in pairs, or for
    every pair of Sp(2n, F_p) when pairs is None.

    Every operator comes from rep.build, outside rep.cache; the exhaustive
    mode holds the |Sp(2n, F_p)| operators of the group until it returns.
    """
    pm = rep.pm
    rho = rep.build
    if pairs is None:
        group = sp_elements(pm)
        rho = {b: rep.build(b) for b in group}.__getitem__
        pairs = list(product(group, repeat=2))
    max_dev = 0.0
    for b1, b2 in pairs:
        prod = mat_mul(b1, b2, mod=pm.p)
        max_dev = max(max_dev, float(np.abs(rho(b1) @ rho(b2) - rho(prod)).max()))
    return MultiplicativityReport(len(pairs), max_dev, max_dev <= tol)


def _power_products(ops: list, orders: tuple, acc: np.ndarray):
    """(e, acc prod_i ops_i^e_i) for every e with 0 <= e_i < orders_i, in
    lexicographic order, one matmul per yielded product."""
    if not ops:
        yield (), acc
        return
    for e in range(orders[0]):
        for rest, prod in _power_products(ops[1:], orders[1:], acc):
            yield (e,) + rest, prod
        acc = acc @ ops[0]


def certify_torus(rep: WeilRep, torus) -> float:
    """Max deviation of the certificate that rho restricted to a Hecke torus T
    is a representation, in O(|T|) products.

    With R_i = rho(g_i) for the generators g_i of orders m_i, the certificate
    checks R_i R_j = R_j R_i, R_i^m_i = I, and rho(B) = prod_i R_i^e_i(B) for
    every B in T, e = torus.dlog[B].  Together these are equivalent to all
    |T|^2 pair identities rho(B1) rho(B2) = rho(B1 B2): dlog is additive mod
    m_i, so rho(B1) rho(B2) = prod_i R_i^(e_i(B1) + e_i(B2)) = rho(B1 B2).
    The R_i are rep.op entries, the operators the eigenspace decomposition
    reads; every other rho(B) comes from rep.build and is dropped.
    """
    gens = [rep.op(g) for g, _ in torus.generators]
    ident = np.eye(rep.pm.dim)
    dev = 0.0
    for i, (r, m) in enumerate(zip(gens, torus.gen_orders)):
        dev = max(dev, float(np.abs(np.linalg.matrix_power(r, m) - ident).max()))
        for s in gens[:i]:
            dev = max(dev, float(np.abs(r @ s - s @ r).max()))
    element = {exps: b for b, exps in torus.dlog.items()}
    for exps, prod in _power_products(gens, torus.gen_orders, ident):
        dev = max(dev, float(np.abs(prod - rep.build(element[exps])).max()))
    return dev


def _random_symmetric(pm: PrimeModulus, rng: np.random.Generator) -> Mat:
    n, p = pm.n, pm.p
    s = rng.integers(0, p, size=(n, n))
    s = (s + s.T) % p
    return tuple(tuple(int(x) for x in row) for row in s)


def _random_invertible(pm: PrimeModulus, rng: np.random.Generator) -> Mat:
    n, p = pm.n, pm.p
    while True:
        m = tuple(tuple(int(x) for x in rng.integers(0, p, size=n)) for _ in range(n))
        if ffcore.mat_det(m) % p != 0:
            return m


def monoid_relation_dev(pm: PrimeModulus, rng: np.random.Generator) -> float:
    """Max deviation from the defining relations of the generator operators:
    fourier^4 = I, (fourier shear(I))^3 = I, and on ten random draws shear and
    dilate additivity and dilate(M) shear(S) dilate(M)^-1 = shear(M^-T S M^-1)."""
    p, n = pm.p, pm.n
    f_op = fourier_op(pm, solve_gamma(pm))
    ident = np.eye(pm.dim)
    dev = float(np.abs(np.linalg.matrix_power(f_op, 4) - ident).max())
    k = f_op @ shear_op(ffcore.identity_mat(n), pm).dense()
    dev = max(dev, float(np.abs(np.linalg.matrix_power(k, 3) - ident).max()))
    for _ in range(10):
        s1, s2 = _random_symmetric(pm, rng), _random_symmetric(pm, rng)
        m1, m2 = _random_invertible(pm, rng), _random_invertible(pm, rng)
        lhs = shear_op(s1, pm).dense() @ shear_op(s2, pm).dense()
        rhs = shear_op(mat_mod(mat([[(s1[i][j] + s2[i][j]) for j in range(n)]
                                    for i in range(n)]), p), pm).dense()
        dev = max(dev, float(np.abs(lhs - rhs).max()))
        lhs = dilate_op(m1, pm).dense() @ dilate_op(m2, pm).dense()
        rhs = dilate_op(mat_mul(m1, m2, mod=p), pm).dense()
        dev = max(dev, float(np.abs(lhs - rhs).max()))
        minv = mat_inv_modp(m1, p)
        s_conj = mat_mul(mat_mul(ffcore.mat_transpose(minv), s1, mod=p), minv, mod=p)
        lhs = dilate_op(m1, pm).dense() @ shear_op(s1, pm).dense() \
            @ dilate_op(minv, pm).dense()
        rhs = shear_op(s_conj, pm).dense()
        dev = max(dev, float(np.abs(lhs - rhs).max()))
    return dev
