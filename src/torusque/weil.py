"""The Weil representation of Sp(2n, F_p) on the quantum space.

Generators and their operators, acting on functions F_p^n -> C:

    dilate(M)  block diag(M, (M^T)^-1)      f(x) |-> legendre(det M) f(M^-1 x)
    shear(S)   [[I, 0], [-S, I]], S = S^T   f(x) |-> psi(nu x^T S x) f(x)
    fourier    [[0, I], [-I, 0]]            f(x) |-> gamma p^{-n/2} sum_y psi(x.y) f(y)

Each operator conjugates the lattice translations exactly as its matrix acts
on lattice vectors (the Egorov identity).  `egorov_deviation` measures it at
the 2n unit vectors only: they span F_p^2n, and the Heisenberg relation
carries the identity from them to every xi.  The free normalization gamma of
the Fourier element is solved, not assumed: with K = F D_I (D_I the shear of
the identity block), the matrix (fourier * shear(I))^3 is the identity in
Sp(2n, F_p), so K^3 must be a scalar c by irreducibility, and

    gamma^3 = 1/c,   gamma^2 = legendre((-1)^n, p)   =>   gamma = sigma((-1)^n)/c,

with c and the scalar test read on a probe block (`solve_gamma`).

Every group element, at every n, has a closed-form kernel.  Write
B = [[A, Bb], [C, D]] in n x n blocks and U(S) = [[I, S], [0, I]] =
fourier shear(S) fourier^3.  Let S be the first diagonal 0/1 matrix (bit j
of 0, 1, ..., 2^n - 1 on diagonal entry j) for which M = Bb + A S is
invertible mod p, so S = 0 when Bb is.  One exists: by Arnold's lemma the
Lagrangian row space of [A | Bb] is transverse to some coordinate
Lagrangian, so some choice of columns from A and Bb is invertible, and
det(Bb + A S) is the sum of the column choices inside the support of S
(Moebius inversion over the 2^n choices of S).  Then

    B U(S) = shear(s1) dilate(M) fourier shear(s2),
    s1 = -(C S + D) M^-1,   s2 = -M^-1 A,

and the product of the generator operators is

    rho(B U(S))[x, y] = legendre(det M) psi(nu x^T s1 x) F[M^-1 x, y] psi(nu y^T s2 y)

with F = rho(fourier): one row gather of F and two phase scalings.  When
S != 0, rho(B) = rho(B U(S)) rho(U(-S)), and rho(U(-S)) is never formed: F
is symmetric, unitary and F^4 = I, so

    rho(U(-S)) = F diag(psi(-nu x^T S x)) F^H,   F^H Z = conj(F conj(Z)),

two products by F itself, and no second p^n x p^n operator is kept.  Each
factorization is re-verified exactly before its kernel is formed: s1 and s2
must be symmetric, and the integer product shear(s1) dilate(M) fourier
shear(s2) U(-S) must equal B mod p.

The route has two parts.  One exact factorization per element stack
(`factorize`): the symplectic test, the mask, M^-1, s1, s2 and the integer
re-verification, all in int64 over the whole stack, with (k, n, n) arrays
and nothing of length p^n.  Then a kernel per batch (`_kernel`): the row
sources M^-1 x and both phase vectors, (k, p^n) arrays formed from the
batch's rows of the factorization.  `WeilRep.build_chunks` streams any
sequence of elements through this route, the one route to dense rho(B):
factored factor_length(pm) elements at a time, emitted in chunks of
CHUNK_BYTES of operators (the gather, the two scalings, and for the
chunk's operators with S != 0 the two products by F of rho(U(-S)), each one
stacked product).  `WeilRep.apply_many` applies rho(B) to a p^n x r block Z
from the same factorization, without forming rho(B):

    rho(B) Z = row * (F (col * rho(U(-S)) Z))[src],

one product by F over each batch's stacked blocks, two more over the blocks
with S != 0, O(p^(2n) r) per element against p^(3n) for a dense product.
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
argument).  If some entry of M has modulus >= eps, the r entries of its row
of M X are independent CN(0, s^2) with s >= eps, so all of them stay
within tol with probability at most (tol/eps)^(2r): 1e-16 for tol = 1e-8,
eps = 1e-6 and r = 4.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice, product

import numpy as np

from . import ffcore
from .ffcore import Mat, PrimeModulus, legendre
from .heisenberg import (BudgetExceeded, chunk_items, digits, flat_index,
                         index_vectors, pi_exponents_many, root_table)
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
    CHUNK_BYTES: their p^n x columns complex blocks fit twice, as the product
    by rho(fourier) holds its operand and its result, and so does their
    kernel (p^n int64 row sources, 2 p^n complex phases and at most 2n p^n
    int64 intermediates per element)."""
    return chunk_items(max(32 * pm.dim * columns, 8 * pm.dim * (5 + 2 * pm.n)))


def egorov_tol(pm: PrimeModulus) -> float:
    """Largest Egorov deviation accepted for an operator: 1e-9 p^(n/2)."""
    return 1e-9 * pm.p ** (pm.n / 2)


# ---------------------------------------------------------------------------
# generator operators


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


def _psi_dots(pm: PrimeModulus) -> np.ndarray:
    """[psi(x.y)]_{x,y}, dense, with one int64 p^n x p^n temporary."""
    pts = index_vectors(pm)
    dots = pts @ pts.T
    dots %= pm.p
    return root_table(pm.p)[dots]


def fourier_op(pm: PrimeModulus, gamma: complex = 1.0) -> np.ndarray:
    """gamma * p^{-n/2} [psi(x.y)]_{x,y}, dense, scaled in place."""
    out = _psi_dots(pm)
    np.multiply(gamma, out, out=out)
    out /= pm.p ** (pm.n / 2)
    return out


# ---------------------------------------------------------------------------
# the linearized representation


@dataclass
class WeilRep:
    """B -> rho(B) with the solved normalization, by two routes from the one
    operator kept, rho(fourier): dense stacks (`build_chunks`) and rho(B)
    applied to a block (`apply_many`)."""

    pm: PrimeModulus
    gamma: complex

    def build_chunks(self, bs, deadline: float | None = None):
        """Yield (k, p^n, p^n) stacks of rho(B) for consecutive elements of
        bs, in order; nothing is cached.

        bs may be any iterable of 2n x 2n integer matrices; it is read
        factor_length(pm) elements at a time, and each such batch is
        factored once (`factorize`: the symplectic test, the factorization
        and its re-verification).  Its operators are emitted
        chunk_length(pm) at a time, each chunk from its kernel (`_kernel`).
        Raises ValueError for a non-symplectic element, ConstructionError
        when a factorization fails its re-verification, and BudgetExceeded
        when `deadline`, a `time.perf_counter()` value, has passed before a
        chunk.
        """
        elements = iter(bs)
        step = chunk_length(self.pm)
        while batch := list(islice(elements, factor_length(self.pm))):
            fac = factorize(self.pm, batch)
            for lo in range(0, len(fac), step):
                if deadline is not None and time.perf_counter() > deadline:
                    raise BudgetExceeded("deadline passed inside the operator stream")
                yield _dense_chunk(self, *_kernel(self.pm, fac[lo:lo + step]))

    def apply_many(self, bs, z: np.ndarray, deadline: float | None = None) -> np.ndarray:
        """(k, p^n, r) stack of rho(B_i) Z_i for the k elements of bs; no
        rho(B) is formed and nothing is cached.

        bs is a `Factorization`, or a sequence of 2n x 2n integer matrices
        that is factored here (`factorize`, with its ValueError and
        ConstructionError).  z is one p^n x r block shared by every element
        or a (k, p^n, r) stack, block i for element i.  The elements go
        apply_length(pm, r) at a time; each such batch forms its kernel and
        is applied to its blocks in one product by rho(fourier)
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
                        *_kernel(self.pm, fac[part]))
        return out

    @cached_property
    def fourier(self) -> np.ndarray:
        """rho(fourier) = gamma p^{-n/2} [psi(x.y)], the kernel every operator
        gathers its rows from (read-only)."""
        out = fourier_op(self.pm, self.gamma)
        out.setflags(write=False)
        return out


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
    docs): the elements mod p, the masks of S, det M, M^-1, s1 and s2, each
    an array with k rows and none of length p^n.  Indexing by a slice or an
    index array takes those rows of every array."""

    elements: np.ndarray        # (k, 2n, 2n)
    mask: np.ndarray            # (k,)
    det: np.ndarray             # (k,)
    m_inv: np.ndarray           # (k, n, n), and s1, s2 too
    s1: np.ndarray
    s2: np.ndarray

    def __len__(self) -> int:
        return len(self.mask)

    def __getitem__(self, rows) -> "Factorization":
        return Factorization(self.elements[rows], self.mask[rows], self.det[rows],
                             self.m_inv[rows], self.s1[rows], self.s2[rows])


def factorize(pm: PrimeModulus, bs) -> Factorization:
    """The exact factorization of every element of bs, a sequence or stack of
    2n x 2n integer matrices, in int64 arithmetic over the whole stack: the
    symplectic test, the first mask that makes M invertible, s1, s2 and the
    re-verification (module docs).  Raises ValueError for a non-symplectic
    element and ConstructionError when a factorization fails its
    re-verification."""
    p, n = pm.p, pm.n
    b = np.array(bs, dtype=np.int64) % p
    if not b.size:
        b = b.reshape(0, 2 * n, 2 * n)
    if b.shape[1:] != (2 * n, 2 * n):
        raise ValueError(f"expected {2 * n} x {2 * n} matrices")
    if not ffcore.is_symplectic(b, p).all():
        raise ValueError("matrix is not symplectic mod p")
    a, bb, c, d = b[:, :n, :n], b[:, :n, n:], b[:, n:, :n], b[:, n:, n:]

    mask, det, m_inv = _first_invertible_mask(a, bb, p)
    if (det == 0).any():
        bad = b[np.argmax(det == 0)]
        raise ConstructionError(f"no diagonal 0/1 S makes Bb + A S invertible for {bad.tolist()}")
    s = _mask_bits(n)[mask][:, None, :]             # (k, 1, n) diagonals of S
    m = (bb + a * s) % p
    s1 = -((c * s + d) @ m_inv) % p
    s2 = -(m_inv @ a) % p

    # exact re-verification: shear(s1) dilate(M) fourier shear(s2) U(-S) = B
    x_blk = -(m @ s2) % p
    z_blk = ((s1 @ m % p) @ s2 - m_inv.transpose(0, 2, 1)) % p
    w_blk = -(s1 @ m) % p
    rebuilt = np.concatenate(
        [np.concatenate([x_blk, m - x_blk * s], axis=2),
         np.concatenate([z_blk, w_blk - z_blk * s], axis=2)], axis=1) % p
    symmetric = (s1 == s1.transpose(0, 2, 1)).all() and (s2 == s2.transpose(0, 2, 1)).all()
    if not symmetric or (rebuilt != b).any():
        raise ConstructionError("closed-form factorization does not reproduce its element")
    return Factorization(b, mask, det, m_inv, s1, s2)


def _kernel(pm: PrimeModulus, fac: Factorization):
    """(src, row, col, mask) of rho(B) for the k elements of fac: the (k, p^n)
    row sources M^-1 x and the row and column phases of

        rho(B U(S))[x, y] = legendre(det M) psi(nu x^T s1 x) F[M^-1 x, y] psi(nu y^T s2 y),

    and the (k,) masks of S."""
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
    row *= ffcore.legendre_signs(p)[fac.det][:, None]
    return src, row, col, fac.mask


def _first_invertible_mask(a, bb, p: int):
    """(mask, det M, M^-1) for M = Bb + A S and the first mask (bits of the
    diagonal 0/1 S) that makes M invertible, for (k, n, n) block stacks A
    and Bb: Bb itself is inverted first, and the other masks are tried only
    for the rows where it is singular.  det is 0 where no mask works."""
    det, inv, _ = ffcore.gauss_jordan_modp(bb, p)
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


def _inverse_shear_phases(pm: PrimeModulus, masks: np.ndarray) -> np.ndarray:
    """(k, p^n) diagonals psi(-nu x^T S x) of rho(shear(-S)), one row per mask
    of masks: rho(U(-S)) = F diag(row) F^H (module docs)."""
    return root_table(pm.p)[-_diagonal_shear_expo(pm, masks) % pm.p]


def _dense_chunk(rep: WeilRep, src, row, col, mask) -> np.ndarray:
    """(k, p^n, p^n) stack of rho(B) from the kernel of k elements: one row gather of
    rho(fourier), two phase scalings, and where S != 0 the product by
    rho(U(-S)) = F diag(phase) F^H, as two products of the stacked operators
    by F: A F^H = conj(conj(A) F), F being symmetric."""
    out = rep.fourier[src]
    out *= row[:, :, None]
    out *= col[:, None, :]
    sel = np.flatnonzero(mask)
    if sel.size:
        d = rep.pm.dim
        # on out itself when every operator has S != 0 (a chunk of one, or
        # of shears and dilations), else on a copy of those operators
        part = out if sel.size == len(out) else out[sel]
        w = (part.reshape(-1, d) @ rep.fourier).reshape(part.shape)
        w *= _inverse_shear_phases(rep.pm, mask[sel])[:, None, :]
        np.conjugate(w, out=w)
        np.matmul(w.reshape(-1, d), rep.fourier, out=part.reshape(-1, d))
        np.conjugate(part, out=part)
        if part is not out:
            out[sel] = part
    return out


def _apply_plan(rep: WeilRep, z, out, src, row, col, mask):
    """Write rho(B) Z for the kernel of k elements into the (k, p^n, r) array out,
    rho(B) never formed: rho(U(-S)) Z = F (phase * conj(F conj(Z))) where
    S != 0, two products by rho(fourier) over those blocks side by side, the
    column phases, one product by rho(fourier) over the k blocks side by
    side, then the row gather and the row phases."""
    k, d, r = out.shape
    w = np.empty((d, k, r), dtype=complex)          # block i in column i
    w[:] = z[:, None] if z.ndim == 2 else z.transpose(1, 0, 2)
    sel = np.flatnonzero(mask)
    if sel.size:
        f = rep.fourier
        u = f @ np.conjugate(w[:, sel]).reshape(d, -1)
        u = np.conjugate(u, out=u).reshape(d, len(sel), r)
        u *= _inverse_shear_phases(rep.pm, mask[sel]).T[:, :, None]
        w[:, sel] = (f @ u.reshape(d, -1)).reshape(d, -1, r)
    w *= col.T[:, :, None]
    w = rep.fourier @ w.reshape(d, k * r)          # rebound: the operand is freed
    np.take(w.reshape(d * k, r), src * k + np.arange(k)[:, None], axis=0, out=out)
    out *= row[:, :, None]


def egorov_deviation(stack: np.ndarray, bs, pm: PrimeModulus) -> np.ndarray:
    """max | rho(B) T(xi) - T(B xi) rho(B) | over the 2n unit vectors xi, for
    every operator of a (k, p^n, p^n) stack and its element B of bs (a
    sequence or stack of k matrices): a (k,) array.

    Every element at once from integer (src, expo) arrays: with T(xi)
    f(x) = psi(e[x]) f(s[x]) and T(B xi) f(x) = psi(e'[x]) f(s'[x]), entry
    (r, s[i]) of the two sides is rho[r, i] psi(e[i]) and
    psi(e'[r]) rho[s'[r], s[i]].  Compared one xi and one block of rows r at
    a time, the rows cut so that each (k, rows, p^n) complex temporary holds
    CHUNK_BYTES / 4: beyond the stack, the comparison holds two of them, one
    half as large (the flat gather indices, then the moduli) and numpy's
    ufunc buffers, about 1.2 CHUNK_BYTES at n = 2, p = 13 and 19.
    `cli._check_egorov` states what the unit vectors prove for every xi.
    """
    p, n, d = pm.p, pm.n, pm.dim
    k = len(stack)
    src, expo = pi_exponents_many(np.eye(2 * n, dtype=np.int64), pm)
    # B e_j is column j of B
    images = (np.asarray(bs, dtype=np.int64) % p).transpose(0, 2, 1).reshape(-1, 2 * n)
    bsrc, bexpo = (a.reshape(k, 2 * n, d) for a in pi_exponents_many(images, pm))
    roots = root_table(p)
    first = (np.arange(k) * d * d)[:, None, None]   # flat offset of each operator
    step = chunk_items(64 * max(k, 1) * d)
    dev = np.zeros(k)
    for j in range(2 * n):
        phase = roots[expo[j]]
        for lo in range(0, d, step):
            rows = slice(lo, lo + step)
            lhs = stack[:, rows] * phase
            rhs = np.take(stack, (bsrc[:, j, rows, None] * d + first) + src[j])
            np.multiply(roots[bexpo[:, j, rows, None]], rhs, out=rhs)
            lhs -= rhs
            np.maximum(dev, np.abs(lhs).max(axis=(1, 2)), out=dev)
    return dev


def solve_gamma(pm: PrimeModulus, f0: np.ndarray) -> complex:
    """Fix the Fourier normalization from the cube relation (see module docs).

    K = F D_I is applied three times to a probe block X (`probe_block` with
    seed 0, so no numpy.random), and K^3 = c I is read per column as
    c = <X, K^3 X> / <X, X> and certified by max |K^3 X - c X| <= 1e-8 |c|:
    by Freivalds' argument (module docs), with no d^3 product.  F is f0,
    the unnormalized kernel fourier_op(pm, 1.0).
    """
    d1 = root_table(pm.p)[_diagonal_shear_expo(pm, 2 ** pm.n - 1)]
    x = probe_block(pm, 0)
    y = x
    for _ in range(3):
        y = f0 @ (d1[:, None] * y)  # K = F @ D_I, D_I diagonal
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


def check_egorov(stack: np.ndarray, bs, pm: PrimeModulus) -> np.ndarray:
    """stack, a (k, p^n, p^n) stack of rho(B) for the k elements of bs, once
    every operator passes the Egorov identity (`egorov_deviation`) to
    egorov_tol(pm); raises ConstructionError otherwise."""
    dev = egorov_deviation(stack, bs, pm)
    if dev.max() > egorov_tol(pm):
        i = int(dev.argmax())
        raise ConstructionError(f"Egorov deviation {dev[i]:.2e} for {np.asarray(bs)[i].tolist()}")
    return stack


def linearize(pm: PrimeModulus) -> WeilRep:
    """Build the representation with all free phases pinned.  The dense
    kernel psi(x.y) is built once: solve_gamma reads it scaled by p^(-n/2),
    and that array is then overwritten with rho(fourier), the kernel scaled
    by gamma p^(-n/2) as in fourier_op.  It and rho(shear(I)) must pass
    `check_egorov`; only rho(fourier) is kept."""
    unit = _psi_dots(pm)
    scale = pm.p ** (pm.n / 2)
    f = unit / scale
    rep = WeilRep(pm, solve_gamma(pm, f))
    np.multiply(rep.gamma, unit, out=f)
    del unit
    f /= scale
    f.setflags(write=False)
    rep.fourier = f                     # the value of the cached property
    check_egorov(f[None], [fourier_matrix(pm)], pm)
    d1 = root_table(pm.p)[_diagonal_shear_expo(pm, 2 ** pm.n - 1)]
    check_egorov(np.diag(d1)[None], [shear_matrix(ffcore.identity_mat(pm.n), pm)], pm)
    return rep


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
    Shears and dilations have Bb = 0, so every one takes the S = I branch
    of `factorize`.
    """
    p, n = pm.p, pm.n
    f = np.array(fourier_matrix(pm), dtype=np.int64)
    d = np.array(shear_matrix(ffcore.identity_mat(n), pm), dtype=np.int64)
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


# columns of the Gaussian probe block the multiplicativity certificates read
PROBE_COLUMNS = 4


def probe_block(pm: PrimeModulus, seed: int) -> np.ndarray:
    """(p^n, PROBE_COLUMNS) block of i.i.d. standard complex Gaussians
    CN(0, 1), the probe X of solve_gamma, check_multiplicativity and
    certify_torus (module docs), the same block for the same seed.

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
    rep.apply_many: no operator but rho(fourier) is formed.  max_dev is the
    per-probe deviation max |M X|, M = rho(B1) rho(B2) - rho(B1 B2); an entry of M of
    modulus eps passes tol with probability at most (tol/eps)^(2r) over X
    (module docs).  pairs, a (k, 2, 2n, 2n) int64 stack or a list of matrix
    pairs, is read as triples (`pair_triples`) in rounds of half an apply
    batch of pairs, apply_length(pm, r) // 2, and in runs of whole rounds of
    about factor_length(pm) elements.  Each run is factored once, as the
    stack (B2, B1 B2, B1) of its pairs.  Per round, rho(B2) X and
    rho(B1 B2) X fill one apply batch, one product by rho(fourier), and
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


def _power_products(ops: list, orders: tuple, acc: np.ndarray, wrap: list):
    """prod_i ops_i^e_i acc for every e with 0 <= e_i < orders_i, in
    lexicographic order of e, one product by an ops_i per yielded block.
    Each loop over e_i takes one step more, to ops_i^orders_i times the block
    it started from, and appends max |ops_i^orders_i Y - Y| for that block Y
    to wrap; the first such Y of every i is acc itself."""
    if not ops:
        yield acc
        return
    start = acc
    for _ in range(orders[0]):
        yield from _power_products(ops[1:], orders[1:], acc, wrap)
        acc = ops[0] @ acc
    wrap.append(float(np.abs(acc - start).max()))


def certify_torus(rep: WeilRep, torus, ops: np.ndarray, deadline: float | None = None,
                  probe: np.ndarray | None = None) -> float:
    """Max deviation of the certificate that rho restricted to a Hecke torus T
    is a representation, in O(|T|) block products.

    With R_i = rho(g_i) for the generators g_i of orders m_i, the certificate
    checks R_i R_j = R_j R_i densely, and on a probe block X: R_i^m_i X = X,
    and rho(B) X = prod_i R_i^e_i(B) X for every B in T, e = torus.dlog[B].
    Together these are equivalent to all |T|^2 pair identities
    rho(B1) rho(B2) = rho(B1 B2): dlog is additive mod m_i, so
    rho(B1) rho(B2) = prod_i R_i^(e_i(B1) + e_i(B2)) = rho(B1 B2).  The
    products step X by one R_i at a time (`_power_products`, p^(2n) r each),
    with one step more at the end of each loop over e_i to reach R_i^m_i,
    and rho(B) X comes from rep.apply_many (which reads `deadline`), so all
    but the commutators are per-probe deviations (module docs).  The R_i are
    ops, a (k, p^n, p^n) stack in the order of torus.generators
    (`quevaluator.PrimeContext.generator_ops`, which the eigenspace
    decomposition reads); no other operator is formed.  probe defaults to
    probe_block(pm, 0), so nothing here imports numpy.random.
    """
    gens = list(ops)
    dev = 0.0
    for i, r in enumerate(gens):
        for s in gens[:i]:
            dev = max(dev, float(np.abs(r @ s - s @ r).max()))
    x = probe_block(rep.pm, 0) if probe is None else probe
    element = {exps: b for b, exps in torus.dlog.items()}
    exps = product(*map(range, torus.gen_orders))
    wrap = []
    steps = _power_products(gens, torus.gen_orders, x, wrap)
    while batch := list(islice(exps, apply_length(rep.pm, x.shape[1]))):
        want = np.stack(list(islice(steps, len(batch))))
        got = rep.apply_many([element[e] for e in batch], x, deadline)
        dev = max(dev, float(np.abs(got - want).max()))
    next(steps, None)       # nothing is left to yield: runs the last wrap-arounds
    return max([dev, *wrap])
