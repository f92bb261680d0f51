"""The Weil representation of Sp(2n, F_p) on the quantum space.

Generators and their operators, acting on functions F_p^n -> C:

    dilate(M)  block diag(M, (M^T)^-1)      f(x) |-> legendre(det M) f(M^-1 x)
    shear(S)   [[I, 0], [-S, I]], S = S^T   f(x) |-> psi(nu x^T S x) f(x)
    fourier    [[0, I], [-I, 0]]            f(x) |-> gamma p^{-n/2} sum_y psi(x.y) f(y)

psi(x.y) = prod_j psi(x_j y_j), so rho(fourier) = gamma F1^(x)n with the
one-digit kernel F1 = p^{-1/2} [psi(a b)], p x p: a product by it is one
product by F1 along each digit axis (`heisenberg.on_digits`), n p^(n+1)
work per column against p^(2n), and at n = 1 the same single product.  No
p^n x p^n Fourier matrix is formed.

Each operator conjugates the lattice translations exactly as its matrix acts
on lattice vectors (the Egorov identity).  The translations factor over the
coordinates too, T(xi) = (x)_j T_1(lam_j, mu_j), and fourier and shear(I)
act on each pair (lam_j, mu_j) as the n = 1 fourier and shear(1) do, so
their identity is the tensor power of its n = 1 case (gamma cancels):
`linearize` certifies it on F1 and diag(psi(nu a^2)) at p x p size, at the
unit vectors and on a probe block (`egorov_on_probe`), which the
Heisenberg relation carries to every xi.  The
normalization gamma is solved, not assumed: with K = F D_I (D_I the shear
of the identity block), (fourier * shear(I))^3 is the identity in
Sp(2n, F_p), so K^3 must be a scalar c by irreducibility, and

    gamma^3 = 1/c,   gamma^2 = legendre((-1)^n, p)   =>   gamma = sigma((-1)^n)/c.

K = gamma (F1 diag(psi(nu a^2)))^(x)n is a tensor power too, so its cube is
scalar at every n once it is at n = 1; `solve_gamma` reads c on a probe
block, one digit at a time.

Every group element has a closed-form kernel of one of three kinds.  Write
B = [[A, Bb], [C, D]] in n x n blocks and U(S) = [[I, S], [0, I]] =
fourier shear(S) fourier^3.

* Monomial, Bb = 0: D = A^-T, C A^-1 is symmetric and B = shear(s1)
  dilate(A), s1 = -C A^-1, so rho(B)[x, y] = legendre(det A)
  psi(nu x^T s1 x) [y = A^-1 x], a row gather of the identity and a phase.
* Big cell (Bb invertible) and U(-S) (Bb singular and nonzero, n >= 2).
  Let S be the first diagonal 0/1 matrix (bit j of 0, 1, ..., 2^n - 1 on
  entry j) for which M = Bb + A S is invertible mod p, so S = 0 in the big
  cell.  One exists: by Arnold's lemma the Lagrangian row space of
  [A | Bb] is transverse to some coordinate Lagrangian, so some choice of
  columns from A and Bb is invertible, and det(Bb + A S) is the sum of the
  column choices inside the support of S (Moebius inversion).  Then

      B U(S) = shear(s1) dilate(M) fourier shear(s2),  s1 = -(C S + D) M^-1,  s2 = -M^-1 A,
      rho(B U(S))[x, y] = gamma legendre(det M) psi(nu x^T s1 x) F1^(x)n[M^-1 x, y] psi(nu y^T s2 y)

  each row the outer product of n one-digit rows of F1.  Where S != 0,
  rho(B) = rho(B U(S)) rho(U(-S)), and rho(U(-S)) = F diag(psi(-nu x^T S
  x)) F^H = (x)_j V_{S_jj} with V_0 = I and V_1 = F1 diag(psi(-nu a^2))
  F1^H: V_1 along the digit axes where S_jj = 1.

One exact factorization per element stack (`factorize`, int64, (k, n, n)
arrays), re-verified exactly: s1 and s2 must be symmetric and the integer
product of the factors must equal B mod p.  Then a kernel per batch
(`_kernel`): the row sources M^-1 x and both phase vectors, (k, p^n).
`WeilRep.build_chunks` streams elements through this route, the one route
to dense rho(B), in chunks of CHUNK_BYTES of operators, and
`WeilRep.apply_many` applies rho(B) to a p^n x r block Z without forming it,

    rho(B) Z = row * (F1^(x)n (col * rho(U(-S)) Z))[src]   (row * Z[src] where monomial),

O(n p^(n+1) r) per element against p^(3n) for a dense product.
The map is certified multiplicative on a probe block X of r =
PROBE_COLUMNS i.i.d. standard complex Gaussian columns (probe_block):
rho(B1) (rho(B2) X) = rho(B1 B2) X for every pair of a small group, and
otherwise for sampled pairs (random_sp) together with the defining
relations of the generators written as pairs (relation_pairs), their
products B1 B2 from one batched int64 product (pair_triples); and on a
Hecke torus by an O(|T|) certificate (certify_torus).  Both samplers share
one block draw from a standard-library `random.Random`, and the probe
comes from an integer seed through another, so no sweep imports
numpy.random.

The certificates' max_dev is therefore a per-probe deviation max |M X|,
M = rho(B1) rho(B2) - rho(B1 B2), not the entrywise max |M| (Freivalds'
argument), and so is the Egorov deviation (`egorov_on_probe`), M =
rho(B) T(e_j) - T(B e_j) rho(B).  If some entry of M has modulus >= eps,
the r entries of its row of M X are independent CN(0, s^2) with s >= eps,
so all of them stay within tol with probability at most (tol/eps)^(2r):
1e-16 for tol = 1e-8, eps = 1e-6 and r = 4.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice, product

import numpy as np

from . import ffcore
from .ffcore import Mat, PrimeModulus, legendre
from .heisenberg import (BudgetExceeded, chunk_items, digit_kernel, digit_rows, digits,
                         flat_index, index_vectors, on_digits, pi_exponents_many,
                         root_table)
# bound here too, unused: perfbench's tracer test reads weil.pi_op and
# weil.mat_mul as its examples of functions bound in two modules
from .ffcore import mat_mul  # noqa: F401
from .heisenberg import pi_op  # noqa: F401


class ConstructionError(RuntimeError):
    """No consistent phase assignment / intertwiner found."""


def chunk_length(pm: PrimeModulus) -> int:
    """How many p^n x p^n complex matrices fit in CHUNK_BYTES (at least one)."""
    return chunk_items(16 * pm.dim ** 2)


def factor_length(pm: PrimeModulus) -> int:
    """How many elements one exact factorization (`factorize`) covers within
    CHUNK_BYTES: its int64 arrays and intermediates hold about six 2n x 2n
    matrices per element, and nothing of length p^n."""
    return chunk_items(48 * (2 * pm.n) ** 2)


def apply_length(pm: PrimeModulus, columns: int) -> int:
    """How many elements one batch of WeilRep.apply_many covers within
    CHUNK_BYTES: their p^n x columns complex blocks fit twice, as each
    digit's product by F1 holds its operand and its result, and so does their
    kernel (p^n int64 row sources, 2 p^n complex phases and at most 2n p^n
    int64 intermediates per element)."""
    return chunk_items(max(32 * pm.dim * columns, 8 * pm.dim * (5 + 2 * pm.n)))


# ---------------------------------------------------------------------------
# the linearized representation


@dataclass
class WeilRep:
    """B -> rho(B) with the solved normalization, by two routes from the
    p x p one-digit kernels kept, F1 and V_1 (module docs): dense stacks
    (`build_chunks`) and rho(B) applied to a block (`apply_many`)."""

    pm: PrimeModulus
    gamma: complex
    # F1 = p^{-1/2} [psi(a b)] and V_1 = F1 diag(psi(-nu a^2)) F1^H (read-only)
    f1: np.ndarray = field(init=False, repr=False, compare=False)
    v1: np.ndarray = field(init=False, repr=False, compare=False)

    def build_chunks(self, bs, deadline: float | None = None):
        """Yield (k, p^n, p^n) stacks of rho(B) for consecutive elements of
        bs, any iterable of 2n x 2n integer matrices, in order; nothing is
        cached.  bs is factored factor_length(pm) elements at a time
        (`factorize`, with its ValueError and ConstructionError), and the
        operators are emitted chunk_length(pm) at a time, each chunk from its
        kernel (`_kernel`).  Raises BudgetExceeded when `deadline`, a
        `time.perf_counter()` value, has passed before a chunk."""
        elements = iter(bs)
        step = chunk_length(self.pm)
        while batch := list(islice(elements, factor_length(self.pm))):
            fac = factorize(self.pm, batch)
            for lo in range(0, len(fac), step):
                if deadline is not None and time.perf_counter() > deadline:
                    raise BudgetExceeded("deadline passed inside the operator stream")
                yield _dense_chunk(self, *_kernel(self, fac[lo:lo + step]))

    def apply_many(self, bs, z: np.ndarray, deadline: float | None = None) -> np.ndarray:
        """(k, p^n, r) stack of rho(B_i) Z_i for the k elements of bs; no
        rho(B) is formed and nothing is cached.

        bs is a `Factorization`, or a sequence of 2n x 2n integer matrices
        that is factored here (`factorize`, with its ValueError and
        ConstructionError).  z is one p^n x r block shared by every element
        or a (k, p^n, r) stack, block i for element i.  The elements go
        apply_length(pm, r) at a time, each batch from its kernel
        (`_apply_plan`).  Raises BudgetExceeded when `deadline`, a
        `time.perf_counter()` value, has passed before a batch.
        """
        fac = bs if isinstance(bs, Factorization) else factorize(self.pm, bs)
        r = z.shape[-1]
        out = np.empty((len(fac), self.pm.dim, r), dtype=complex)
        step = apply_length(self.pm, r)
        for lo in range(0, len(fac), step):
            if deadline is not None and time.perf_counter() > deadline:
                raise BudgetExceeded("deadline passed inside the probe stream")
            part = slice(lo, lo + step)
            _apply_plan(self, z if z.ndim == 2 else z[part], out[part],
                        *_kernel(self, fac[part]))
        return out

    def __post_init__(self):
        # V_1[x, y] = (1/p) sum_a psi(a (x - y) - nu a^2) = (g/p) psi(nu (x - y)^2),
        # g = sum_b psi(-nu b^2), completing the square (2 nu = 1 mod p)
        p, nu, a, psi = self.pm.p, self.pm.nu, np.arange(self.pm.p), root_table(self.pm.p)
        self.f1 = digit_kernel(p) / np.sqrt(p)
        self.v1 = psi[nu * (a[:, None] - a) ** 2 % p] * psi[-nu * a * a % p].mean()
        self.f1.setflags(write=False)
        self.v1.setflags(write=False)


@lru_cache(maxsize=None)
def _mask_bits(n: int) -> np.ndarray:
    """Row m holds the diagonal of S for mask m: bit j on entry j."""
    out = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    out.setflags(write=False)
    return out


def _diagonal_shear_expo(pm: PrimeModulus, mask) -> np.ndarray:
    """nu x^T S x mod p for every point x, S the diagonal 0/1 matrix with bits
    `mask`: rho(shear(S)) is diagonal with entries psi of these.  A (k,)
    array of masks gives a (k, p^n) array, row i for mask i."""
    quad = _mask_bits(pm.n)[mask] @ (index_vectors(pm) ** 2).T
    return pm.nu * quad % pm.p


@dataclass
class Factorization:
    """The exact closed-form factorization of a stack of k elements (module
    docs): the elements mod p, which are monomial (Bb = 0), the masks of S,
    det M, M^-1, s1 and s2 (M = A and s2 = 0 where monomial), each an array
    with k rows and none of length p^n.  Indexing by a slice or an index
    array takes those rows of every array."""

    elements: np.ndarray        # (k, 2n, 2n)
    monomial: np.ndarray        # (k,) bool
    mask: np.ndarray            # (k,)
    det: np.ndarray             # (k,)
    m_inv: np.ndarray           # (k, n, n), and s1, s2 too
    s1: np.ndarray
    s2: np.ndarray

    def __len__(self) -> int:
        return len(self.mask)

    def __getitem__(self, rows) -> "Factorization":
        return Factorization(self.elements[rows], self.monomial[rows], self.mask[rows],
                             self.det[rows], self.m_inv[rows], self.s1[rows], self.s2[rows])


def factorize(pm: PrimeModulus, bs) -> Factorization:
    """The exact factorization of every element of bs, a sequence or stack of
    2n x 2n integer matrices, in int64 arithmetic over the whole stack: the
    symplectic test, shear(s1) dilate(A) where Bb = 0, elsewhere the first
    mask that makes M invertible, s1 and s2, and the re-verification (module
    docs).  Raises ValueError for a non-symplectic element and
    ConstructionError when a factorization fails its re-verification."""
    p, n = pm.p, pm.n
    b = np.array(bs, dtype=np.int64) % p
    if not b.size:
        b = b.reshape(0, 2 * n, 2 * n)
    if b.shape[1:] != (2 * n, 2 * n):
        raise ValueError(f"expected {2 * n} x {2 * n} matrices")
    if not ffcore.is_symplectic(b, p).all():
        raise ValueError("matrix is not symplectic mod p")
    a, bb, c, d = b[:, :n, :n], b[:, :n, n:], b[:, n:, :n], b[:, n:, n:]

    monomial = ~bb.any(axis=(1, 2))
    mask, det, m_inv = _first_invertible_mask(a, bb, monomial, p)
    if (det == 0).any():
        bad = b[np.argmax(det == 0)]
        raise ConstructionError(f"no diagonal 0/1 S makes Bb + A S invertible for {bad.tolist()}")
    mono = monomial[:, None, None]
    s = _mask_bits(n)[mask][:, None, :]             # (k, 1, n) diagonals of S
    m = np.where(mono, a, (bb + a * s) % p)
    s1 = -(np.where(mono, c, c * s + d) @ m_inv) % p
    s2 = np.where(mono, 0, -(m_inv @ a) % p)

    # exact re-verification: shear(s1) dilate(A) = B where monomial, else
    # shear(s1) dilate(M) fourier shear(s2) U(-S) = B
    m_inv_t, s1m = m_inv.transpose(0, 2, 1), s1 @ m % p
    x_blk, z_blk = -(m @ s2) % p, s1m @ s2 - m_inv_t
    rebuilt = np.where(mono, _assemble(m, 0 * m, -s1m, m_inv_t, p),
                       _assemble(x_blk, m - x_blk * s, z_blk, -s1m - z_blk * s, p))
    symmetric = (s1 == s1.transpose(0, 2, 1)).all() and (s2 == s2.transpose(0, 2, 1)).all()
    if not symmetric or (rebuilt != b).any():
        raise ConstructionError("closed-form factorization does not reproduce its element")
    return Factorization(b, monomial, mask, det, m_inv, s1, s2)


def _kernel(rep: WeilRep, fac: Factorization):
    """(src, row, col, mask, monomial) of rho(B) for the k elements of fac: the
    (k, p^n) row sources M^-1 x, the row and column phases of rho(B U(S))
    (module docs; gamma left out where monomial, whose s2 is 0), and the
    (k,) masks of S and monomial flags."""
    pm = rep.pm
    p, n, k = pm.p, pm.n, len(fac)
    pts = index_vectors(pm)
    src = flat_index((fac.m_inv @ pts.T % p).swapaxes(1, 2), p)
    # x^T s x for every x and both s1 and s2 of every element: one product
    # by the (n^2, p^n) table of x_i x_j
    quad = (pts[:, :, None] * pts[:, None, :]).reshape(pm.dim, n * n).T
    forms = np.concatenate([fac.s1, fac.s2]).reshape(2 * k, n * n) @ quad
    forms *= pm.nu
    forms %= p
    phases = root_table(p)[forms]
    row, col = phases[:k], phases[k:]
    scale = np.where(fac.monomial, 1, rep.gamma) * ffcore.legendre_signs(p)[fac.det]
    row *= scale[:, None]
    return src, row, col, fac.mask, fac.monomial


def _first_invertible_mask(a, bb, monomial, p: int):
    """(mask, det M, M^-1) for the (k, n, n) block stacks A and Bb: M = A, mask
    0, where `monomial` (Bb = 0), else M = Bb + A S for the first mask (bits
    of the diagonal 0/1 S) that makes M invertible, the nonzero masks tried
    only where Bb is singular.  det is 0 where no mask works."""
    det, inv, _ = ffcore.gauss_jordan_modp(np.where(monomial[:, None, None], a, bb), p)
    mask = np.zeros(len(bb), dtype=np.int64)
    rows = np.flatnonzero(det == 0)
    if rows.size:
        # column j of A scaled by bit j, for every nonzero mask at once
        bits = _mask_bits(a.shape[-1])[1:]
        dets, invs, _ = ffcore.gauss_jordan_modp(
            bb[rows, None] + a[rows, None] * bits[None, :, None, :], p)
        first = (dets != 0).argmax(axis=1)
        every = np.arange(len(rows))
        mask[rows] = np.where(dets[every, first] != 0, first + 1, 0)
        det[rows] = dets[every, first]
        inv[rows] = invs[every, first]
    return mask, det, inv


def _mask_groups(mask: np.ndarray):
    """(digits j with S_jj = 1, positions) for each nonzero mask in mask."""
    for m in sorted(set(mask.tolist()) - {0}):
        yield [j for j in range(m.bit_length()) if m >> j & 1], np.flatnonzero(mask == m)


def _dense_chunk(rep: WeilRep, src, row, col, mask, monomial) -> np.ndarray:
    """(k, p^n, p^n) stack of rho(B) from the kernel of k elements: the rows of
    F1^(x)n, or of the identity where monomial, at the row sources, each the
    outer product of n one-digit rows (`heisenberg.digit_rows`); two
    phase scalings; and where S != 0 the product by rho(U(-S)), V_1 on the
    column digits where S_jj = 1."""
    p, n = rep.pm.p, rep.pm.n
    kinds = np.concatenate([rep.f1, np.eye(p)])           # F1's rows, then the identity's
    out = digit_rows(kinds, digits(src.ravel(), p, n).reshape(*src.shape, n)
                     + p * monomial[:, None, None])
    out *= row[:, :, None]
    out *= col[:, None, :]
    step = chunk_items(16 * rep.pm.dim)
    for which, sel in _mask_groups(mask):   # A rho(U(-S)): V_1^T on the column digits,
        for i, lo in product(sel, range(0, rep.pm.dim, step)):       # in blocks of rows
            out[i, lo:lo + step] = on_digits(rep.v1.T, out[i, lo:lo + step], rep.pm, -1, which)
    return out


def _apply_plan(rep: WeilRep, z, out, src, row, col, mask, monomial):
    """Write rho(B) Z for the kernel of k elements into the (k, p^n, r) array
    out, and return it, rho(B) never formed: rho(U(-S)) Z by V_1 on the
    digits where S_jj = 1, the column phases, one digit-by-digit product by F1
    over the blocks side by side (the monomial blocks put back unchanged),
    then the row gather and the row phases."""
    k, d, r = out.shape
    w = np.empty((d, k, r), dtype=complex)          # block i in column i
    w[:] = z[:, None] if z.ndim == 2 else z.transpose(1, 0, 2)
    for which, sel in _mask_groups(mask):
        w[:, sel] = on_digits(rep.v1, w[:, sel], rep.pm, which=which)
    w *= col.T[:, :, None]
    if not monomial.all():      # F1 on every block, then the monomial ones put back
        w, before = on_digits(rep.f1, w, rep.pm), w
        w[:, monomial] = before[:, monomial]
    np.take(w.reshape(d * k, r), src * k + np.arange(k)[:, None], axis=0, out=out)
    out *= row[:, :, None]
    return out


def solve_gamma(pm: PrimeModulus) -> complex:
    """Fix the Fourier normalization from the cube relation (see module docs).

    K = F1^(x)n D_I, the unnormalized K of gamma = 1, is applied three
    times to a probe block X (`probe_block` with seed 0, so no
    numpy.random), one digit at a time, and K^3 = c I is read per column as
    c = <X, K^3 X> / <X, X> and certified by max |K^3 X - c X| <= 1e-8 |c|:
    by Freivalds' argument (module docs), with no d^3 product.
    """
    f1 = digit_kernel(pm.p) / np.sqrt(pm.p)
    d1 = root_table(pm.p)[_diagonal_shear_expo(pm, 2 ** pm.n - 1)]
    x = probe_block(pm, 0)
    y = x
    for _ in range(3):
        y = on_digits(f1, d1[:, None] * y, pm)      # K = F @ D_I, D_I diagonal
    cs = (x.conj() * y).sum(axis=0) / (x.conj() * x).sum(axis=0)
    if np.abs(y - x * cs).max() > 1e-8 * np.abs(cs).min():
        raise ConstructionError("cube of Fourier*shear is not scalar")
    c = cs.mean()
    if abs(abs(c) - 1.0) > 1e-8:
        raise ConstructionError(f"cube scalar |c| = {abs(c):.6f} != 1")
    r = legendre((-1) ** pm.n, pm.p)
    if abs(c * c - r) > 1e-8:
        raise ConstructionError(
            "normalization inconsistency: c^2 != legendre((-1)^n); "
            "generator conventions do not linearize")
    gamma = r / c
    return complex(gamma)


def linearize(pm: PrimeModulus) -> WeilRep:
    """Build the representation with all free phases pinned: gamma from
    `solve_gamma`, then the Egorov identity of the two generators it reads,
    fourier and shear(I), on their one-digit factors F1 and
    diag(psi(nu a^2)) at n = 1, each applied to a p x PROBE_COLUMNS probe
    (`egorov_on_probe`, held to 1e-8).  Both operators are tensor powers of
    these factors, and so are the translations, so the identity at n = 1 is
    the identity in every factor (module docs).  Only the p x p factors are
    kept; nothing of size p^n x p^n is formed."""
    rep = WeilRep(pm, solve_gamma(pm))
    pm1 = PrimeModulus(pm.p, 1)
    d1 = root_table(pm.p)[_diagonal_shear_expo(pm1, 1)]
    gens = [((0, 1), (-1, 0)), ((1, 0), (-1, 1))]                       # fourier, shear(1)
    dev = egorov_on_probe(lambda z: np.stack([rep.f1 @ z, d1[:, None] * z]), gens, pm1)
    if dev.max() > 1e-8:
        raise ConstructionError(f"Egorov deviation {dev.max():.2e} for {gens[dev.argmax()]}")
    return rep


def egorov_on_probe(apply, bs, pm: PrimeModulus, probe: np.ndarray | None = None) -> np.ndarray:
    """The Egorov identity rho(B) T(xi) = T(B xi) rho(B) at the 2n unit
    vectors xi = e_j, read on a probe block X for each of the k elements B
    of bs (a sequence or stack of 2n x 2n matrices): the (k,) per-probe
    deviations max_j |rho(B) (T(e_j) X) - T(B e_j) (rho(B) X)|.

    apply(Z) returns the (k, p^n, c) stack of rho(B) Z for one p^n x c block
    Z: rep.apply_many, or a product by a dense stack.  It is called once, on
    X and the 2n blocks T(e_j) X side by side, which gives both sides;
    T(B e_j) is then a row gather and a phase per element
    (`pi_exponents_many`).  An entry of rho(B) T(e_j) - T(B e_j) rho(B) of
    modulus eps keeps its deviation within tol with probability at most
    (tol/eps)^(2r) over X (module docs).  probe defaults to
    probe_block(pm, 0).  `cli._check_egorov` states what the unit vectors
    prove for every xi."""
    x = probe_block(pm, 0) if probe is None else probe
    r, roots = x.shape[1], root_table(pm.p)
    src, expo = pi_exponents_many(np.eye(2 * pm.n, dtype=np.int64), pm)
    out = apply(np.concatenate([x, *(roots[e][:, None] * x[s] for s, e in zip(src, expo))],
                               axis=1))
    b = np.asarray(bs, dtype=np.int64)
    every = np.arange(len(b))[:, None]
    dev = np.zeros(len(b))
    for j in range(2 * pm.n):
        # T(B e_j) rho(B) X, B e_j column j of B: a row gather and a phase
        bsrc, bexpo = pi_exponents_many(b[:, :, j], pm)
        rhs = out[every, bsrc, :r]
        rhs *= roots[bexpo][:, :, None]
        rhs -= out[:, :, (j + 1) * r:(j + 2) * r]
        np.maximum(dev, np.abs(rhs).max(axis=(1, 2)), out=dev)
    return dev


# ---------------------------------------------------------------------------
# group enumeration, sampling + multiplicativity certification


def sp_elements(pm: PrimeModulus) -> list[Mat]:
    """All of Sp(2n, F_p), in row-major lexicographic order.

    One stacked `ffcore.is_symplectic` test filters the stack of all
    p^(4n^2) matrices (the digits of their flat indices, most significant
    first), so it is meant for the smallest groups only: its callers take
    n = 1 and p <= 7.
    """
    p, d = pm.p, 2 * pm.n
    cands = digits(np.arange(p ** (d * d)), p, d * d)[:, ::-1].reshape(-1, d, d)
    return [tuple(map(tuple, m)) for m in cands[ffcore.is_symplectic(cands, p)].tolist()]


def _random_blocks(pm: PrimeModulus, rng: random.Random, count: int):
    """count draws of the blocks (S1, S2, M, M^-1), each a (count, n, n) int64
    stack mod p.

    S1 and S2 are uniform symmetric, and M = L U with L unit lower triangular
    and U upper triangular with a nonzero diagonal, so every leading minor of
    M is a unit; M^-1 comes from `ffcore.gauss_jordan_modp`.  All entries
    come from one rng.randbytes call, read as little-endian 64-bit words w
    and mapped to [low, p) as low + w mod (p - low): the modulo bias keeps
    each residue's probability within a factor 1 +- p / 2^64 of uniform.
    """
    p, n = pm.p, pm.n
    iu, ju = np.triu_indices(n)
    il, jl = np.tril_indices(n, -1)
    k = len(iu)
    # columns: S1, S2 and U on the upper triangle, then L below the diagonal;
    # only the diagonal of U avoids 0
    low = np.zeros(3 * k + len(il), dtype=np.int64)
    low[2 * k:3 * k] = iu == ju
    words = np.frombuffer(rng.randbytes(8 * count * len(low)), dtype="<u8")
    span = (p - low).astype(np.uint64)
    draws = low + (words.reshape(count, len(low)) % span).astype(np.int64)
    s1, s2, u = (np.zeros((count, n, n), dtype=np.int64) for _ in range(3))
    lo = np.broadcast_to(np.eye(n, dtype=np.int64), (count, n, n)).copy()
    s1[:, iu, ju] = s1[:, ju, iu] = draws[:, :k]
    s2[:, iu, ju] = s2[:, ju, iu] = draws[:, k:2 * k]
    u[:, iu, ju] = draws[:, 2 * k:3 * k]
    lo[:, il, jl] = draws[:, 3 * k:]
    m = lo @ u % p
    return s1, s2, m, ffcore.gauss_jordan_modp(m, p)[1]


def _assemble(a, bb, c, d, p: int) -> np.ndarray:
    """(k, 2n, 2n) int64 stack of [[A, Bb], [C, D]] mod p for the (k, n, n)
    block stacks."""
    return np.concatenate([np.concatenate([a, bb], axis=2),
                           np.concatenate([c, d], axis=2)], axis=1) % p


def random_sp(pm: PrimeModulus, rng: random.Random, count: int) -> np.ndarray:
    """(count, 2n, 2n) int64 stack of random elements shear(S1) dilate(M)
    fourier shear(S2) of Sp(2n, F_p).

    The product is [[-M S2, M], [S1 M S2 - M^-T, -S1 M]] in closed form, from
    one block draw of rng, a `random.Random` (`_random_blocks`).  The samples
    therefore cover only the big Bruhat cell (an invertible upper-right block
    M), and at n >= 2 only its LU-factorable M: every one has S = 0 in
    `factorize`.  Products of samples reach Bb = 0 and singular nonzero Bb.
    The arithmetic is exact int64 over the whole batch (every intermediate
    stays below n p^2).
    """
    s1, s2, m, m_inv = _random_blocks(pm, rng, count)
    ms2 = m @ s2 % pm.p
    return _assemble(-ms2, m, s1 @ ms2 - m_inv.transpose(0, 2, 1), -(s1 @ m), pm.p)


# random draws of the shear and dilation relations in relation_pairs
RELATION_DRAWS = 10


def relation_pairs(pm: PrimeModulus, rng: random.Random) -> np.ndarray:
    """The defining relations of the generators as pairs (B1, B2) for
    check_multiplicativity, which checks rho(B1) rho(B2) = rho(B1 B2): a
    (k, 2, 2n, 2n) int64 stack, pair i at index i.

    fourier^4 = I as (F, F) and (F^2, F^2); (F D)^3 = I with D = shear(I) as
    (F, D), (K, K) and (K^2, K) for K = F D.  On two block draws of
    RELATION_DRAWS each from rng, a `random.Random` (`_random_blocks`):
    shear additivity (shear(S1), shear(S2)), dilation multiplicativity
    (dilate(M1), dilate(M2)), and dilate(M) shear(S) dilate(M)^-1 =
    shear(M^-T S M^-1) as
    (dilate(M1), shear(S1)) and (dilate(M1) shear(S1), dilate(M1^-1)).
    Shears and dilations have Bb = 0, so every one takes the monomial
    kernel of `factorize`.
    """
    p, n = pm.p, pm.n
    one, nil = np.eye(n, dtype=np.int64)[None], np.zeros((1, n, n), dtype=np.int64)
    f, d = _assemble(nil, one, -one, nil, p)[0], _assemble(one, nil, -one, one, p)[0]
    f2, k = f @ f % p, f @ d % p
    k2 = k @ k % p
    fixed = np.array([(f, f), (f2, f2), (f, d), (k, k), (k2, k)])

    s1, s2, m1, m1_inv = _random_blocks(pm, rng, RELATION_DRAWS)
    _, _, m2, m2_inv = _random_blocks(pm, rng, RELATION_DRAWS)
    eye = np.broadcast_to(np.eye(n, dtype=np.int64), s1.shape)
    zero = np.zeros_like(s1)

    def shear(s):
        return _assemble(eye, zero, -s, eye, p)

    def dilate(m, m_inv):
        return _assemble(m, zero, zero, m_inv.transpose(0, 2, 1), p)

    shear1, dil1, dil1_inv = shear(s1), dilate(m1, m1_inv), dilate(m1_inv, m1)
    drawn = [(shear1, shear(s2)), (dil1, dilate(m2, m2_inv)), (dil1, shear1),
             (dil1 @ shear1 % p, dil1_inv)]
    return np.concatenate([fixed] + [np.stack(pair, axis=1) for pair in drawn])


def pair_triples(pairs: list, pm: PrimeModulus) -> np.ndarray:
    """B1, B2 and B1 B2 mod p for every pair (B1, B2), stacked in that order
    as a (3 len(pairs), 2n, 2n) int64 array.  pairs may be a (k, 2, 2n, 2n)
    int64 stack (`random_sp`, `relation_pairs`) or a list of matrix pairs.
    The products come from one batched int64 product: every entry stays
    below 2n p^2, so it is exact."""
    d = 2 * pm.n
    b = np.asarray(pairs, dtype=np.int64).reshape(len(pairs), 2, d, d) % pm.p
    prods = (b[:, :1] @ b[:, 1:]) % pm.p
    return np.concatenate([b, prods], axis=1).reshape(-1, d, d)


@dataclass
class MultiplicativityReport:
    pairs_checked: int
    max_dev: float
    ok: bool


# columns of the Gaussian probe block the Egorov and multiplicativity
# certificates read
PROBE_COLUMNS = 4


def probe_block(pm: PrimeModulus, seed: int) -> np.ndarray:
    """(p^n, PROBE_COLUMNS) block of i.i.d. standard complex Gaussians
    CN(0, 1), the probe X of solve_gamma, egorov_on_probe,
    check_multiplicativity and certify_torus (module docs), the same block
    for the same seed.

    Two uniforms u1, u2 in (0, 1] per entry are the top 53 bits of
    little-endian 64-bit words of random.Random(seed).randbytes, and
    z = sqrt(-ln u1) e^(2 pi i u2): |z|^2 = -ln u1 is Exp(1) and the phase
    is uniform and independent of it, which is exactly CN(0, 1).
    """
    size = pm.dim * PROBE_COLUMNS
    words = np.frombuffer(random.Random(seed).randbytes(16 * size), dtype="<u8")
    u = ((words >> 11) + 1) * 2.0 ** -53
    z = np.sqrt(-np.log(u[:size])) * np.exp(2j * np.pi * u[size:])
    return z.reshape(pm.dim, PROBE_COLUMNS)


def check_multiplicativity(rep: WeilRep, pairs: list | None = None,
                           tol: float = 1e-8, deadline: float | None = None,
                           probe: np.ndarray | None = None) -> MultiplicativityReport:
    """rho(B1) rho(B2) = rho(B1 B2) on a probe block X for every pair (B1, B2)
    in pairs, or for every pair of Sp(2n, F_p) when pairs is None.

    Y = rho(B2) X, then rho(B1) Y against rho(B1 B2) X, all from
    rep.apply_many: no operator is formed.  max_dev is the
    per-probe deviation max |M X|, M = rho(B1) rho(B2) - rho(B1 B2); an entry of M of
    modulus eps passes tol with probability at most (tol/eps)^(2r) over X
    (module docs).  pairs, a (k, 2, 2n, 2n) int64 stack or a list of matrix
    pairs, is read as triples (`pair_triples`) in rounds of half an apply
    batch of pairs, apply_length(pm, r) // 2, and in runs of whole rounds of
    about factor_length(pm) elements.  Each run is factored once, as the
    stack (B2, B1 B2, B1) of its pairs.  Per round, rho(B2) X and
    rho(B1 B2) X fill one apply batch, one product by F1 per digit, and
    rho(B1) Y takes a second.  The exhaustive mode is the int64 stack of all
    |Sp(2n, F_p)|^2 pairs.  probe defaults to probe_block(pm, 0), so
    nothing here imports numpy.random; `deadline` is passed to apply_many.
    """
    pm = rep.pm
    x = probe_block(pm, 0) if probe is None else probe
    if pairs is None:
        group = np.array(sp_elements(pm), dtype=np.int64)
        pairs = group[np.indices((len(group),) * 2).reshape(2, -1).T]
    step = max(1, apply_length(pm, x.shape[1]) // 2)     # pairs per round
    run = step * max(1, factor_length(pm) // (3 * step))
    d = 2 * pm.n
    max_dev = 0.0
    for lo in range(0, len(pairs), run):
        b1, b2, b12 = pair_triples(pairs[lo:lo + run], pm).reshape(-1, 3, d, d).swapaxes(0, 1)
        k = len(b1)
        fac = factorize(pm, np.concatenate([b2, b12, b1]))
        for a in range(0, k, step):
            part = np.arange(a, min(a + step, k))
            yz = rep.apply_many(fac[np.concatenate([part, k + part])], x, deadline)
            dev = rep.apply_many(fac[2 * k + part], yz[:len(part)], deadline)
            dev -= yz[len(part):]
            max_dev = max(max_dev, float(np.abs(dev).max()))
    return MultiplicativityReport(len(pairs), max_dev, max_dev <= tol)


def _power_products(steps: list, orders: tuple, acc: np.ndarray, wrap: list):
    """prod_i R_i^e_i acc for every e with 0 <= e_i < orders_i, in
    lexicographic order of e, one step Y -> R_i Y (steps_i) per yielded
    block.  Each loop over e_i takes one step more, to R_i^orders_i times
    the block it started from, and appends max |R_i^orders_i Y - Y| for that
    block Y to wrap; the first such Y of every i is acc itself."""
    if not steps:
        yield acc
        return
    start = acc
    for _ in range(orders[0]):
        yield from _power_products(steps[1:], orders[1:], acc, wrap)
        acc = steps[0](acc)
    wrap.append(float(np.abs(acc - start).max()))


def certify_torus(rep: WeilRep, torus, deadline: float | None = None,
                  probe: np.ndarray | None = None) -> float:
    """Max deviation of the certificate that rho restricted to a Hecke torus T
    is a representation, in O(|T|) block products, all on a probe block X.

    With R_i = rho(g_i) for the generators g_i of orders m_i, the certificate
    checks R_i R_j X = R_j R_i X, R_i^m_i X = X, and rho(B) X =
    prod_i R_i^e_i(B) X for every B in T, e = torus.dlog[B].  Together these
    are equivalent to all |T|^2 pair identities rho(B1) rho(B2) = rho(B1 B2):
    dlog is additive mod m_i, so rho(B1) rho(B2) = prod_i R_i^(e_i(B1) +
    e_i(B2)) = rho(B1 B2).  The products step X by one R_i at a time
    (`_power_products`), each step an apply of the generator's closed-form
    kernel (`_apply_plan`), formed once per certificate; one step more at
    the end of each loop over e_i reaches R_i^m_i.  rho(B) X comes from
    rep.apply_many (which reads `deadline`).  Every deviation is per-probe
    (module docs); no p^n x p^n operator is formed.  probe defaults to
    probe_block(pm, 0), so nothing here imports numpy.random."""
    x = probe_block(rep.pm, 0) if probe is None else probe
    fac = factorize(rep.pm, [g for g, _ in torus.generators])
    steps = [lambda y, kern=_kernel(rep, fac[i:i + 1]):
             _apply_plan(rep, y, np.empty((1, *y.shape), dtype=complex), *kern)[0]
             for i in range(len(fac))]
    dev = 0.0
    for i, r in enumerate(steps):
        for s in steps[:i]:
            dev = max(dev, float(np.abs(r(s(x)) - s(r(x))).max()))
    element = {exps: b for b, exps in torus.dlog.items()}
    exps = product(*map(range, torus.gen_orders))
    wrap = []
    blocks = _power_products(steps, torus.gen_orders, x, wrap)
    while batch := list(islice(exps, apply_length(rep.pm, x.shape[1]))):
        want = np.stack(list(islice(blocks, len(batch))))
        got = rep.apply_many([element[e] for e in batch], x, deadline)
        dev = max(dev, float(np.abs(got - want).max()))
    next(blocks, None)      # nothing is left to yield: runs the last wrap-arounds
    return max([dev, *wrap])
