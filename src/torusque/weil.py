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
operators along that word.  The map is certified multiplicative by exhaustive
(small p) or sampled pair checks.  Schur-averaged intertwiners
(schur_intertwiner) fix an operator only up to a phase; they are kept as an
independent oracle for tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ffcore
from .ffcore import Mat, PrimeModulus, legendre, mat, mat_inv_modp, mat_mod, mat_mul
from .hecke import TorusCharacter
from .heisenberg import (PhasedPermutation, index_vectors, lattice_vectors,
                         pi_op, root_table)


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
    linearize, "torus-twist" for character-twisted torus entries
    (linearize_on_torus).  Every entry is validated against the Egorov
    identity.
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
        dense = word_operator(sp_word(key, self.pm), self.pm, self.gamma)
        self.insert_generator(key, dense, "bruhat-word")
        return dense

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
# group enumeration + multiplicativity certification


def sl2_elements(p: int) -> list[Mat]:
    """All of SL2(F_p), ordered deterministically."""
    out = []
    for a in range(p):
        for b in range(p):
            for c in range(p):
                for d in range(p):
                    if (a * d - b * c) % p == 1:
                        out.append(((a, b), (c, d)))
    return out


@dataclass
class MultiplicativityReport:
    pairs_checked: int
    max_dev: float
    ok: bool


def check_multiplicativity(rep: WeilRep, elements: list[Mat] | None = None,
                           pairs: int | None = None, tol: float = 1e-8,
                           seed: int = 0) -> MultiplicativityReport:
    """rho(B1) rho(B2) = rho(B1 B2): exhaustive when pairs is None.

    The sampled mode draws random pairs and evaluates each operator along its
    sp_word, the route rep.op takes, without touching the cache, so memory
    stays O(p^2n) even at the top of the sweep range.
    """
    pm = rep.pm
    if pairs is None:
        if elements is None:
            elements = sl2_elements(pm.p)
        ops = [rep.op(b) for b in elements]  # rep.cache entries, not a copy
        index = {b: i for i, b in enumerate(elements)}
        m = len(elements)
        max_dev = 0.0
        for i in range(m):
            for j in range(m):
                prod = mat_mul(elements[i], elements[j], mod=pm.p)
                dev = float(np.abs(ops[i] @ ops[j] - ops[index[prod]]).max())
                max_dev = max(max_dev, dev)
        return MultiplicativityReport(m * m, max_dev, max_dev <= tol)

    rng = np.random.default_rng(seed)
    max_dev = 0.0
    for _ in range(pairs):
        b1 = random_sl2(pm.p, rng)
        b2 = random_sl2(pm.p, rng)
        prod = mat_mul(b1, b2, mod=pm.p)
        op1 = word_operator(sp_word(b1, pm), pm, rep.gamma)
        op2 = word_operator(sp_word(b2, pm), pm, rep.gamma)
        op12 = word_operator(sp_word(prod, pm), pm, rep.gamma)
        max_dev = max(max_dev, float(np.abs(op1 @ op2 - op12).max()))
    return MultiplicativityReport(pairs, max_dev, max_dev <= tol)


def random_sl2(p: int, rng: np.random.Generator) -> Mat:
    a, b, c = (int(x) for x in rng.integers(0, p, size=3))
    if a != 0:
        return ((a, b), (c, (1 + b * c) * pow(a, -1, p) % p))
    # a = 0 needs b*c = -1
    b = b or 1
    return ((0, b), ((-pow(b, -1, p)) % p, int(rng.integers(0, p))))


def random_monoid_words(pm: PrimeModulus, rng: np.random.Generator,
                        count: int) -> list[list[SpFactor]]:
    """count random words of one to three shear, dilate or fourier factors."""
    words = []
    for _ in range(count):
        word = []
        for _ in range(int(rng.integers(1, 4))):
            kind = rng.integers(0, 3)
            if kind == 0:
                word.append(SpFactor("shear", _random_symmetric(pm, rng)))
            elif kind == 1:
                word.append(SpFactor("dilate", _random_invertible(pm, rng)))
            else:
                word.append(SpFactor("fourier"))
        words.append(word)
    return words


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


# ---------------------------------------------------------------------------
# Schur-averaged intertwiners (test oracle) and torus twists


def schur_intertwiner(b: Mat, pm: PrimeModulus, rng: np.random.Generator,
                      max_tries: int = 8) -> np.ndarray:
    """Unitary W with W T(xi) W^-1 = T(B xi), phase unfixed.

    Averages T(B xi) C T(xi)^-1 over all lattice vectors xi for a random C;
    by irreducibility the average is a scalar multiple of a unitary, or zero
    with probability ~ p^-2n (then retried with a fresh C).
    """
    p, d = pm.p, pm.dim
    b = mat_mod(mat(b), p)
    if not ffcore.is_symplectic(b, p=p):
        raise ValueError("intertwiner target must be symplectic mod p")
    xis = lattice_vectors(pm)
    for _ in range(max_tries):
        c = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        acc = np.zeros((d, d), dtype=complex)
        for row in xis:
            xi = tuple(int(x) for x in row)
            bxi = ffcore.mat_vec(b, xi, mod=p)
            t_in = pi_op(xi, pm)
            t_out = pi_op(bxi, pm)
            acc += t_out.apply_left(t_in.adjoint().apply_right(c))
        norm = np.linalg.norm(acc)
        if norm < 1e-9 * d:
            continue
        gram = acc.conj().T @ acc
        scale = gram.trace().real / d
        if np.abs(gram - scale * np.eye(d)).max() > 1e-6 * scale:
            raise ConstructionError("averaged operator is not a scalar times unitary")
        return acc / np.sqrt(scale)
    raise ConstructionError("intertwiner averaging returned zero repeatedly")


def linearize_on_torus(torus, pm: PrimeModulus,
                       root_index: tuple | int = 0) -> WeilRep:
    """The canonical rho, with its torus entries twisted by a torus character.

    A multiplicative linearization of the torus is fixed up to a character:
    rho(g_i) may be rescaled by any N_i-th root of unity on a generator g_i
    of order N_i.  Root index k = (k_1, ...) rescales rho(g_i) by
    exp(-2 pi i k_i / N_i), so every torus element B is multiplied by
    conj(chi_k(B)), chi_k the character with exponents k; k = 0 is the
    canonical rho.  The twisted entries go in through insert_generator
    (tag "torus-twist", Egorov-checked); elements outside the torus keep
    their canonical operators.
    """
    rep = linearize(pm)
    if isinstance(root_index, int):
        root_index = (root_index,) * len(torus.generators)
    chi = TorusCharacter(torus.gen_orders, tuple(root_index))
    for b in torus.elements:
        dense = word_operator(sp_word(b, pm), pm, rep.gamma)
        twist = np.conj(chi.value_of_exps(torus.dlog[b]))
        rep.insert_generator(b, twist * dense, "torus-twist")
    return rep
