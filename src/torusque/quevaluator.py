"""Hecke character sums, one orbit-reduced table per prime, and the bound checks.

The two-variable trace function F(xi, B) = Tr(T(xi) rho(B)) has one closed
form at every n (`TraceFormula`, the Weil character's Cayley-transform
form): with D = B - I mod p of rank r, k = 2n - r and c the sum of the
principal r x r minors of D,

    F(xi, B) = legendre((-1)^(r/2) c) p^(k/2) psi(nu omega(y, B y))   if xi = D y,

and 0 for xi outside im D.  It is checked against the traces of dense
operators on the [lam, mu] grid (`_trace_grid`: one gather along the shifts
of T(xi), one matmul with the psi(x.y) matrix over the whole stack, one
phase prefix; `trace_pair` is the per-value oracle).  The character sums

    a_chi(xi) = sum_{B in C_A} F(xi, B) chi(B) = |T| Tr(T(xi) P_{chi^-1}),

P_{chi^-1} the projector onto the joint eigenspace H_{chi^-1}, need no
operator: over the torus exponent grid they are |T| times one inverse FFT
of F (`character_sum_table`), and a_chi(0) = |T| dim H_{chi^-1}.  As
rho(B) T(xi) rho(B)^-1 = T(B xi), they are constant on the T-orbits of xi
(`orbit_labels`): one row per orbit.  They are checked against the
p^{n/2}-scale bound and its split-prime refinement, and factorized at
fully split n = 2 primes into n = 1 diagonal-torus sums.

A `PrimeContext` holds what the checks read at one prime, built once each;
a sum over xi weights each row of the table by its orbit's size, so no
p^{2n} x |T| array is ever formed.

The averaging demo compares the time average over <A> with the torus
average on eigenvectors of rho(A).  Egorov, rho(A) T(xi) rho(A)^-1 =
T(A xi), fixes the time average there as <v|T(xi)|v>, and the torus average
of a mix of two lines is the mean of its two pure values, so both columns
come from one gather along T(xi) (`cyclic_vs_hecke_demo`).

Measured conventions worth knowing when reading this module (all certified by
the test suite, none assumed):

* at n = 1 the exceptional torus character is the unique character of
  order 2: its eigenspace is 0-dimensional at nonsplit primes and
  2-dimensional at split primes (every other character, the trivial one
  included, has a line).  At n = 2 a torus Z_m1 x Z_m2 with even m1, m2 has
  three characters of order 2, and the bound report lists every one;
* at split primes the order-2 character sums hit exactly +-(p - 2) on the
  2(p-1) "axis" vectors xi (those whose split-frame coordinates have a zero
  entry), exceeding 2 sqrt(p) once p >= 11 -- the headline bound is only
  attainable for characters with a one-dimensional eigenspace (equivalently,
  on the generic stratum for the order-2 character), and the reports separate
  these populations;
* the trace formula has one orientation, psi(+nu omega(y, B y)); at n = 1,
  B = diag(a, 1/a) it is legendre(a) psi(-(lam mu / 2)(1 + a)/(1 - a)), and
  the tests measure it against its complex conjugate by matrix traces.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, reduce
from math import gcd, lcm

import numpy as np

from . import ffcore, hecke, weil
from .classical import ErgodicElement
from .ffcore import Mat, PrimeModulus, mat, mat_mod, mat_mul
from .heisenberg import (BudgetExceeded, chunk_items, digits, flat_index,
                         index_vectors, pi_exponents, root_table)
from .hecke import HeckeTorus, TorusCharacter

# relative slack of every bound comparison and of the factorization match
RTOL = 1e-6
# the Parseval and xi = 0 identities of the character-sum table must hold
# to this (relative) deviation, or the sums are not trusted
IDENTITY_TOL = 1e-9


# ---------------------------------------------------------------------------
# trace function


def trace_pair(xi, rho_dense: np.ndarray, pm: PrimeModulus) -> complex:
    """F(xi, B) = Tr(T(xi) rho(B)), one gather and one dot product."""
    src, expo = pi_exponents(xi, pm)
    phases = root_table(pm.p)[expo % pm.p]
    return complex((phases * rho_dense[src, np.arange(pm.dim)]).sum())


def _trace_kernel(pm: PrimeModulus) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-modulus tables of `_trace_grid`, indexed [lam, x] and [lam, mu].

    rows[lam, x] = flat(x + lam), psi_dot[x, y] = psi(x.y) and
    prefix[lam, mu] = psi(nu lam.mu).  Built per caller and not cached: a
    table kept alive mid-sweep pins the freed heap below it.
    """
    p = pm.p
    pts = index_vectors(pm)
    rows = flat_index((pts[:, None, :] + pts[None, :, :]) % p, p)
    dots = (pts @ pts.T) % p
    psi = root_table(p)
    return rows, psi[dots], psi[(pm.nu * dots) % p]


def _trace_grid(rho_dense: np.ndarray, kernel) -> np.ndarray:
    """F((lam, mu), B) on the grid [flat(lam), flat(mu)] from rho(B), a
    p^n x p^n operator, or from a (k, p^n, p^n) stack: (..., p^n, p^n).

    F((lam, mu), B) = psi(nu lam.mu) sum_x psi(mu.x) rho(B)[x + lam, x]: one
    gather G[lam, x] = rho(B)[x + lam, x], one matmul with the psi(x.y)
    matrix over the whole stack, one psi(nu lam.mu) prefix, in place.
    `trace_pair` is the per-value oracle.
    """
    rows, psi_dot, prefix = kernel
    d = len(rows)
    g = rho_dense[..., rows, np.arange(d)]
    out = (g.reshape(-1, d) @ psi_dot).reshape(g.shape)
    del g
    np.multiply(prefix, out, out=out)
    return out


class TraceFormula:
    """F(xi, B) = Tr(T(xi) rho(B)) in closed form (module docs) for a stack of B.

    c != 0 exactly when F_p^{2n} = ker D + im D, two omega-orthogonal
    symplectic spaces over which rho(B) and T(xi) factor: B is I on the
    first (trace p^(k/2) at xi = 0) and has the Cayley-transform character
    on the second.  y is free up to ker D, which B fixes, so the value is
    not.  One `ffcore.gauss_jordan_modp` of the stack gives r, det D, the
    left kernel rows (xi is in im D when they annihilate it) and a
    generalized inverse G (D G xi = xi on im D), so omega(y, B y) = xi^T Q_B
    xi with Q_B = G^T J B G; c is summed from principal minors where r < 2n.
    Raises ValueError where c = 0 (B - I of odd rank, or not semisimple).
    """

    def __init__(self, elems, pm: PrimeModulus):
        p, n = pm.p, pm.n
        e = np.asarray(elems, dtype=np.int64) % p
        dmat = (e - np.eye(2 * n, dtype=np.int64)) % p
        c, x, rank = ffcore.gauss_jordan_modp(dmat, p)
        c[rank == 0] = 1                        # B = I: the empty minor
        subsets = (np.arange(1 << 2 * n)[:, None] >> np.arange(2 * n)) & 1
        for r in set(rank.tolist()) - {0, 2 * n}:
            sel = np.flatnonzero(rank == r)
            idx = np.nonzero(subsets[subsets.sum(axis=1) == r])[1].reshape(-1, r)
            minors = dmat[sel][:, idx[:, :, None], idx[:, None, :]]
            c[sel] = ffcore.gauss_jordan_modp(minors, p)[0].sum(axis=1) % p
        if not c.all():
            raise ValueError("trace formula needs B - I of even rank, semisimple at 1")
        # G = S x, S moving row i < r of the echelon form x D to its pivot column
        live = np.arange(2 * n) < rank[:, None]
        lead = (x @ dmat % p != 0).argmax(axis=2)
        s = np.zeros_like(x)
        s[np.arange(len(e))[:, None], lead, np.arange(2 * n)] = live
        g = s @ x % p
        # Q_B[i, j] = omega(G e_i, B G e_j), over the columns of G and B G
        quad = ffcore.symplectic_form(g.swapaxes(1, 2)[:, :, None],
                                      (e @ g % p).swapaxes(1, 2)[:, None], mod=p)
        self.pm, self.quad = pm, quad.reshape(len(e), -1).T.astype(float)
        self.scale = (ffcore.legendre_signs(p)[(-1) ** (rank // 2) * c % p]
                      * float(p) ** ((2 * n - rank) / 2))
        self.kernel = x * ~live[:, :, None]     # left kernel rows of D

    def __call__(self, flat: np.ndarray, cols=slice(None)) -> np.ndarray:
        """(len(flat), k) values at the flat xi, for the elements cols: the
        quadratic forms as one float64 product of the pairs xi_i xi_j with
        the Q_B, exact below 2^53 (4n^2 p^3 at most)."""
        p = self.pm.p
        xi = digits(flat, p, 2 * self.pm.n)
        pairs = (xi[:, :, None] * xi[:, None, :]).reshape(len(xi), -1).astype(float)
        out = root_table(p)[(pairs @ self.quad[:, cols] % p).astype(np.int64)
                            * self.pm.nu % p]
        out *= self.scale[cols]
        singular = np.flatnonzero(self.kernel[cols].any(axis=(1, 2)))
        if singular.size:
            kernel = self.kernel[cols][singular]
            out[:, singular] *= ~(np.tensordot(xi, kernel, axes=([1], [2])) % p).any(axis=2)
        return out


# ---------------------------------------------------------------------------
# split-prime transport to the diagonal frame


@dataclass
class SplitTransport:
    """Conjugation data S0 with C_A = S0 T_std S0^-1 at a fully split prime."""

    pm: PrimeModulus
    s0: Mat
    s0_inv: Mat
    alphas: tuple            # one eigenvalue per reciprocal pair

    def std_elem(self, avec) -> Mat:
        p, n = self.pm.p, self.pm.n
        diag = [avec[j] % p for j in range(n)] + \
               [pow(avec[j], -1, p) for j in range(n)]
        t = tuple(tuple(diag[i] if i == j else 0 for j in range(2 * n))
                  for i in range(2 * n))
        return mat_mul(mat_mul(self.s0, t, mod=p), self.s0_inv, mod=p)

    def generic_mask(self) -> np.ndarray:
        """For every flat xi, in chunks: True when no coordinate of S0^-1 xi vanishes."""
        mask = np.empty(self.pm.dim ** 2, dtype=bool)
        for flat in lattice_chunks(self.pm):
            mask[flat] = lattice_image(self.s0_inv, flat, self.pm).all(axis=1)
        return mask


def lattice_chunks(pm: PrimeModulus):
    """The flat xi in ascending arrays of CHUNK_BYTES of lattice vectors."""
    total = pm.dim ** 2
    step = chunk_items(16 * pm.n)
    for start in range(0, total, step):
        yield np.arange(start, min(start + step, total))


def lattice_image(m: Mat, flat: np.ndarray, pm: PrimeModulus) -> np.ndarray:
    """M xi mod p, one int64 row per flat index xi in flat."""
    return digits(flat, pm.p, 2 * pm.n) @ np.array(m, dtype=np.int64).T % pm.p


def build_split_transport(elem_matrix: Mat, pm: PrimeModulus,
                          charpoly) -> SplitTransport:
    """Pair the 2n rational eigenvalues reciprocally and build the conjugator.

    Requires P_A (charpoly, over Z) to split into distinct linear factors
    mod p.  The eigenvector of r is a nonzero column of prod_{s != r} (A - s)
    mod p, a nonzero multiple of the projector onto ker(A - r).
    Eigenvectors of reciprocal eigenvalues pair nondegenerately under the
    symplectic form; the second of each pair is rescaled so the pairing is
    1, which makes the column matrix symplectic.
    """
    p, n = pm.p, pm.n
    a = mat_mod(mat(elem_matrix), p)
    cp = ffcore.poly_mod_reduce(charpoly, p)
    roots = ffcore.poly_roots_modp(cp, p)
    if len(set(roots)) != 2 * n:
        raise ValueError(f"p = {p} is not a fully split prime for this element")
    pairs = []
    used = set()
    for r in roots:
        if r in used:
            continue
        rinv = pow(r, -1, p)
        if rinv == r:
            raise ValueError("self-reciprocal eigenvalue at a squarefree prime")
        pairs.append((r, rinv))
        used.update((r, rinv))
    shifted = {r: tuple(tuple((x - (r if i == j else 0)) % p for j, x in enumerate(row))
                        for i, row in enumerate(a))
               for r in roots}
    eig = {}
    for r in roots:
        proj = reduce(lambda x, y: mat_mul(x, y, mod=p),
                      (shifted[s] for s in roots if s != r))
        eig[r] = next(col for col in zip(*proj) if any(col))
    for r, rinv in pairs:
        pairing = int(ffcore.symplectic_form(eig[r], eig[rinv], mod=p))
        if pairing == 0:
            raise RuntimeError("degenerate symplectic pairing of eigenvectors")
        eig[rinv] = tuple((x * pow(pairing, -1, p)) % p for x in eig[rinv])
    alphas = tuple(r for r, _ in pairs)
    s0 = tuple(zip(*[eig[r] for r, _ in pairs], *[eig[rinv] for _, rinv in pairs]))
    if not ffcore.is_symplectic(s0, p=p):
        raise RuntimeError("eigenvector frame is not symplectic")
    st = SplitTransport(pm, s0, ffcore.mat_inv_modp(s0, p), alphas)
    if st.std_elem(alphas) != a:
        raise RuntimeError("conjugation does not recover the element")
    return st


# ---------------------------------------------------------------------------
# everything the checks read at one prime


@dataclass
class PrimeContext:
    """The Hecke torus of elem, rho, and what is derived from them, at one prime.

    The characters, the T-orbits of xi, the torus elements' trace formula
    (`formula`), the character-sum table (`sums`), the eigenspace dims read
    from the formula at xi = 0 (`dims`), the split frame at split primes
    (`transport` is None elsewhere), and, for the checks that read operators
    only, rho of the torus generators (`generator_ops`) and the eigenspace
    decomposition are built on first use and then shared.  The formula is the
    canonical rho's: a context of a rho twisted on the torus is given
    `generator_ops`, `sums` and `dims` by assignment.  `deadline`, a
    `time.perf_counter()` value, is checked before every chunk of the table and
    of the centralizer's norm filter.
    """

    elem: ErgodicElement
    torus: HeckeTorus
    rep: weil.WeilRep
    deadline: float | None = None

    @classmethod
    def build(cls, elem: ErgodicElement, pm: PrimeModulus,
              deadline: float | None = None) -> "PrimeContext":
        """Centralizer torus of elem mod p and the canonical rho; the
        centralizer reads `deadline` too."""
        torus = hecke.centralizer(elem.matrix, pm, elem.charpoly, deadline)
        return cls(elem, torus, weil.linearize(pm), deadline)

    @property
    def pm(self) -> PrimeModulus:
        return self.torus.pm

    @cached_property
    def chis(self) -> list[TorusCharacter]:
        return hecke.characters(self.torus)

    @cached_property
    def inverse_index(self) -> list[int]:
        """inverse_index[i] is the index of chis[i]^-1."""
        col = {chi.exps: i for i, chi in enumerate(self.chis)}
        return [col[chi.inverse().exps] for chi in self.chis]

    @cached_property
    def generator_ops(self) -> np.ndarray:
        """(k, p^n, p^n) stack of rho(g_i) for the torus generators, in their
        order: one `build_chunks` stream, through `weil.check_egorov`."""
        gens = [g for g, _ in self.torus.generators]
        stacks = list(self.rep.build_chunks(gens))
        ops = stacks[0] if len(stacks) == 1 else np.concatenate(stacks)
        return weil.check_egorov(ops, gens, self.pm)

    @cached_property
    def decomposition(self) -> hecke.EigenspaceDecomposition:
        return hecke.decompose(self.torus, self.generator_ops)

    @cached_property
    def transport(self) -> SplitTransport | None:
        if self.torus.split_type != "split":
            return None
        return build_split_transport(self.elem.matrix, self.pm, self.elem.charpoly)

    @cached_property
    def transported(self) -> np.ndarray:
        """|T| x n integer array: row i holds the split-frame exponents of chis[i].

        k_j is the exponent with chi(S0 t_j S0^-1) = e(k_j / (p - 1)), t_j the
        standard diagonal element with the primitive root g in slot j and 1
        elsewhere.  With L = lcm(m_i), chi_k(g^e) = e(num / L) for num =
        sum_i k_i (L / m_i) e_i mod L, so k_j = num (p - 1) / L, read from the
        discrete logs of the n elements S0 t_j S0^-1 in integer arithmetic.
        Needs the split frame (`transport`).
        """
        torus, p, n = self.torus, self.pm.p, self.pm.n
        g = ffcore.primitive_root(p)
        logs = np.array([torus.dlog[self.transport.std_elem(
            [g if i == j else 1 for i in range(n)])] for j in range(n)],
            dtype=np.int64)                                     # (n, k)
        big = lcm(*torus.gen_orders)
        scale = np.array([big // m for m in torus.gen_orders], dtype=np.int64)
        exps = np.array([chi.exps for chi in self.chis], dtype=np.int64)
        num = ((exps * scale) @ logs.T % big) * (p - 1)         # (|T|, n)
        if (num % big).any():
            raise RuntimeError("transported character exponent is not integral")
        return num // big

    @cached_property
    def orbits(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(reps, row, sizes): each T-orbit's least flat index, ascending
        (reps[0] = 0, the orbit {0}), the orbit row of every flat xi, and the
        orbit sizes, which divide |T| but need not equal it.  The labels
        are the least indices, so the reps are the fixed points of the
        labels, and a running count of them numbers the rows."""
        labels = orbit_labels(self.torus)
        is_rep = labels == np.arange(len(labels))
        row = (np.cumsum(is_rep) - 1)[labels]
        return np.flatnonzero(is_rep), row, np.bincount(row)

    @cached_property
    def formula(self) -> TraceFormula:
        """`TraceFormula` of the torus elements in the C order of their exponent grid."""
        grid = np.ravel_multi_index(np.array(list(self.torus.dlog.values())).T, self.torus.gen_orders)
        return TraceFormula(np.array(list(self.torus.dlog))[np.argsort(grid)], self.pm)

    @cached_property
    def sums(self) -> np.ndarray:
        """`character_sum_table` of this context."""
        return character_sum_table(self)

    @cached_property
    def dims(self) -> list[int]:
        """dim H_chi for each chi of chis: a_{chi^-1}(0) / |T|, rounded, from F at xi = 0 alone."""
        zero = np.fft.ifftn(self.formula(np.array([0])).reshape(self.torus.gen_orders))
        return np.rint(zero.ravel()[self.inverse_index].real).astype(int).tolist()

    @cached_property
    def generic_orbits(self) -> np.ndarray:
        """`generic_mask` per orbit row; raises RuntimeError unless the mask
        is constant on orbits (T acts diagonally in the split frame)."""
        reps, row, _ = self.orbits
        generic = self.transport.generic_mask()
        if (generic[reps][row] != generic).any():
            raise RuntimeError("the generic mask is not constant on torus orbits")
        return generic[reps]


def orbit_labels(torus: HeckeTorus) -> np.ndarray:
    """The least flat index in the T-orbit of every flat xi, under xi -> B xi.
    Each generator g of order m permutes the flat indices (read in chunks,
    `lattice_image`); ceil(log2 m) pointer-doubling steps take the least
    label along its powers, and as the generators commute, one pass each
    labels whole T-orbits.  It holds two arrays beside the labels."""
    pm = torus.pm
    labels = np.arange(pm.dim ** 2)
    step = np.empty_like(labels)
    for g, m in torus.generators:
        for flat in lattice_chunks(pm):
            step[flat] = flat_index(lattice_image(g, flat, pm), pm.p)
        for _ in range((m - 1).bit_length()):
            np.minimum(labels, labels[step], out=labels)
            step = step[step]
    return labels


def character_sum_table(ctx: PrimeContext) -> np.ndarray:
    """a_chi(xi_r) on every orbit row r of `orbits`, at its least flat index:
    row r, column chi in `chis` order.

    With the torus elements in the C order of their exponent grid over the
    generator orders, a_chi(xi) = sum_e chi(e) F(xi, e) is |T| times the
    inverse FFT of F(xi, .) over the grid, at frequency chi.  The context's
    `formula` of the elements is read in chunks of orbits whose
    (orbits, |T|) arrays hold CHUNK_BYTES, each transformed and copied into
    its rows of the table; the deadline is read before every chunk.
    """
    torus, reps = ctx.torus, ctx.orbits[0]
    table = np.empty((len(reps), torus.order), dtype=complex)
    step, axes = chunk_items(16 * torus.order), tuple(range(1, len(torus.gen_orders) + 1))
    for lo in range(0, len(reps), step):
        if ctx.deadline is not None and time.perf_counter() > ctx.deadline:
            raise BudgetExceeded(f"deadline passed at orbit {lo} of {len(reps)}")
        rows = ctx.formula(reps[lo:lo + step]).reshape(-1, *torus.gen_orders)
        table[lo:lo + step] = np.fft.ifftn(rows, axes=axes).reshape(len(rows), -1)
    table *= torus.order
    return table


# ---------------------------------------------------------------------------
# the trace-formula check and the n = 1 diagonal-torus tables


def diagonal_stack(pm: PrimeModulus) -> np.ndarray:
    """diag(a, 1/a) on the first coordinate pair and I on the rest, for every
    a in 2..p-1: a (p - 2, 2n, 2n) int64 stack."""
    p, n = pm.p, pm.n
    a = np.arange(2, p)
    out = np.tile(np.eye(2 * n, dtype=np.int64), (len(a), 1, 1))
    out[:, 0, 0], out[:, n, n] = a, ffcore.unit_inverses(p)[a]
    return out


def trace_formula_deviation(ctx: PrimeContext) -> float:
    """max |F(xi, B) - TraceFormula| over every xi, for the B of
    `diagonal_stack` and the torus generators.

    The operators stream through rep.build_chunks (which reads the deadline)
    and are dropped.  The traces come in blocks whose (k, p^n, p^n) arrays
    hold CHUNK_BYTES / 4, each from one gather and one matmul (`_trace_grid`),
    and the formula of the block's k elements is subtracted from them in
    place, read in chunks of the grid: no array beside the block is its size.
    """
    pm, d = ctx.pm, ctx.pm.dim
    elems = np.concatenate([diagonal_stack(pm), [g for g, _ in ctx.torus.generators]])
    formula = TraceFormula(elems, pm)
    kernel, step = _trace_kernel(pm), chunk_items(64 * d ** 2)     # operators per block
    worst, lo = 0.0, 0
    for stack in ctx.rep.build_chunks(elems, ctx.deadline):
        for i in range(0, len(stack), step):
            dev = _trace_grid(stack[i:i + step], kernel).reshape(-1, d * d)
            cols, lo = slice(lo, lo + len(dev)), lo + len(dev)
            for j in lattice_chunks(pm):            # j = flat(lam) p^n + flat(mu)
                dev[:, j[0]:j[-1] + 1] -= formula(j // d + d * (j % d), cols).T
            worst = max(worst, float(np.abs(dev).max()))
    return worst


def diagonal_factor_tables(ks, pm: PrimeModulus) -> dict[int, np.ndarray]:
    """p x p tables of the n = 1 torus sums, one per character exponent k.

    tab_k[lam, mu] = sum_{a in F_p^x} F((lam, mu), diag(a, 1/a)) chi'(a), with
    chi' of exponent k (base the smallest primitive root): one `TraceFormula`
    of every diag(a, 1/a) with a not in {0, 1}, shared by every k, and the
    a = 1 term, the trace p of T(0), at (0, 0).
    """
    p = pm.p
    _, dlog = ffcore.dlog_table(p)
    # flat xi = lam + p mu: [a, mu, lam], read as [a, lam, mu]
    terms = TraceFormula(diagonal_stack(pm), pm)(np.arange(p * p)).T
    terms = terms.reshape(p - 2, p, p).swapaxes(1, 2)
    logs = np.array(dlog[2:])
    tables = {}
    for k in ks:
        tab = np.tensordot(np.exp(2j * np.pi * k * logs / (p - 1)), terms, axes=1)
        tab[0, 0] += p
        tables[k] = tab
    return tables


# ---------------------------------------------------------------------------
# bound verification


class ViolationRecords(Sequence):
    """Bound violations (xi, chi_exps, |a|, bound), xi ascending, then chi,
    kept as the violating (orbit row, chi) of a boolean orbit table, the row
    of every flat xi and the orbit sizes.  A read scans the rows of xi in
    chunks and expands only the xi its slice covers; |a| is read from the
    character-sum table."""

    def __init__(self, table: np.ndarray, row: np.ndarray, sizes: np.ndarray,
                 sums: np.ndarray, chi_exps: list, bound: float, pm: PrimeModulus):
        hot, self._chi = np.nonzero(table)
        self._counts = np.bincount(hot, minlength=len(table))
        self._first = np.cumsum(self._counts) - self._counts    # each row's first pair
        self._len = int(sizes @ self._counts)
        self._row, self._table, self._exps, self._bound, self._pm = row, sums, chi_exps, bound, pm

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, which):
        if isinstance(which, slice):
            part = range(self._len)[which]
            lo = min(part, default=0)
            records = list(self._records(lo, max(part, default=-1) + 1))
            return [records[i - lo] for i in part]
        i = range(self._len)[which]
        return next(self._records(i, i + 1))

    def __iter__(self):
        return self._records(0, self._len)

    def __eq__(self, other) -> bool:
        return isinstance(other, (list, ViolationRecords)) and len(self) == len(other) \
            and all(a == b for a, b in zip(self, other))

    def _records(self, start: int, stop: int):
        """Yield the records at positions start..stop-1: whole chunks of xi,
        then whole xi, are skipped by their record counts."""
        pos = 0                                         # records before this xi
        for flat in lattice_chunks(self._pm):
            if pos >= stop:
                return
            per = self._counts[self._row[flat]]
            if pos + int(per.sum()) <= start:
                pos += int(per.sum())
                continue
            hot = per > 0
            for x, r, count in zip(flat[hot].tolist(), self._row[flat[hot]].tolist(),
                                   per[hot].tolist()):
                if pos >= stop:
                    return
                if pos + count > start:
                    first = self._first[r] + max(start - pos, 0)
                    chi = self._chi[first:self._first[r] + min(count, stop - pos)]
                    vec = tuple(digits([x], self._pm.p, 2 * self._pm.n)[0].tolist())
                    for c, m in zip(chi.tolist(), np.abs(self._table[r, chi]).tolist()):
                        yield vec, self._exps[c], m, self._bound
                pos += count


@dataclass
class BoundReport:
    p: int
    n: int
    split_type: str
    torus_order: int
    bound_constant: float          # 2^n
    bound: float                   # 2^n p^{n/2}
    max_ratio: float               # max |a_chi(xi)| / p^{n/2} over xi != 0
    max_ratio_dim1: float          # same, restricted to dim-1 characters
    violations: ViolationRecords   # [(xi, chi_exps, |a|, bound), ...]
    dim1_violations: ViolationRecords
    generic_violations: ViolationRecords   # split primes: generic-stratum violations
    exceptional_order2: dict       # observed order-2 character data
    parseval_max_dev: float
    xi0_oracle_max_dev: float
    ok: bool                       # verdict over all characters: no violations
    ok_dim1: bool                  # verdict restricted to dim-1 characters


def verify_que_bound(ctx: PrimeContext) -> BoundReport:
    """Check |a_chi(xi)| <= 2^n p^{n/2} for xi != 0 mod p, with cross-checks.

    Populations are reported separately: the verdict over all characters, the
    verdict over characters with one-dimensional eigenspaces (the regime the
    eigenvector derivation of the bound actually covers), and at split primes
    the generic stratum of the order-2 character: `ViolationRecords` of the
    orbit table of violations, masked by its dim-1 columns and its generic
    rows, with nothing per xi formed until read.  The eigenspace dimensions
    are the formula's own (`PrimeContext.dims`).  Raises RuntimeError when the
    table breaks the Parseval identity, or the xi = 0 identity (a_chi(0) an
    integer multiple of |T|), by more than IDENTITY_TOL: then the sums
    themselves are wrong, which is not a bound violation.
    """
    pm, torus, chis = ctx.pm, ctx.torus, ctx.chis
    p, n = pm.p, pm.n
    order = torus.order
    dims = ctx.dims
    # column chi of the sums belongs to H_{chi^-1} (see the xi = 0 oracle)
    inv_dims = np.array([dims[i] for i in ctx.inverse_index])
    is_dim1 = inv_dims == 1
    bound = 2 ** n * p ** (n / 2)

    _, row, sizes = ctx.orbits
    mags = np.abs(ctx.sums)                     # row 0 is the orbit {0}
    col_max = mags[1:].max(axis=0)              # max |a_chi(xi)| over xi != 0
    viol = mags > bound + bound * RTOL
    viol[0] = False                             # xi = 0 is outside the bound
    exps = [chi.exps for chi in chis]

    def records(keep):
        return ViolationRecords(viol & keep, row, sizes, ctx.sums, exps, bound, pm)

    generic = False if ctx.transport is None else ctx.generic_orbits[:, None]
    violations, dim1_violations = records(True), records(is_dim1)
    generic_violations = records(generic)
    max_ratio = float(col_max.max() / p ** (n / 2))
    dim1_max = float(col_max[is_dim1].max()) if is_dim1.any() else 0.0

    # Parseval, two identities: sum_xi |Tr(T(xi) P)|^2 = p^n Tr(P) for the
    # eigenspace projector P, and sum_chi P_chi = I with Tr T(xi) = p^n [xi = 0]
    unit = order * p ** n
    chi_total = ctx.sums.sum(axis=1)
    chi_total[0] -= unit
    parseval_max_dev = max(
        float(np.abs(sizes @ np.square(mags, out=mags) - order * unit * inv_dims).max()
              / (order * unit)),
        float(np.abs(chi_total).max() / unit))
    # xi = 0 oracle: a_chi(0) = |T| * dim H_{chi^-1}, an integer multiple of |T|
    xi0_dev = float(np.abs(ctx.sums[0] - order * inv_dims).max())
    if parseval_max_dev > IDENTITY_TOL or xi0_dev / order > IDENTITY_TOL:
        raise RuntimeError(f"character sums break their identities: Parseval "
                           f"{parseval_max_dev:.2e}, xi = 0 {xi0_dev / order:.2e}")

    order2 = [{"exps": chi.exps, "dim": dims[i], "max_abs_sum": float(col_max[i])}
              for i, chi in enumerate(chis) if chi.order == 2]
    exceptional = {}
    if order2:
        # p - 2 on the axis vectors is asserted at n = 1 split primes only
        axis = p - 2 if n == 1 and torus.split_type == "split" else None
        exceptional = dict(order2[0], expected_axis_value=axis, order2=order2)

    return BoundReport(
        p=p, n=n, split_type=torus.split_type, torus_order=order,
        bound_constant=2.0 ** n, bound=bound,
        max_ratio=max_ratio, max_ratio_dim1=dim1_max / p ** (n / 2),
        violations=violations, dim1_violations=dim1_violations,
        generic_violations=generic_violations,
        exceptional_order2=exceptional,
        parseval_max_dev=parseval_max_dev,
        xi0_oracle_max_dev=xi0_dev,
        ok=not violations,
        ok_dim1=not dim1_violations,
    )


# ---------------------------------------------------------------------------
# split-prime refinement


@dataclass
class RefinedReport:
    p: int
    rows: list            # per character: exps, transported, effective, m, bounds
    generic_ok: bool
    max_nongeneric: float
    applicable: bool


def refined_bound(ctx: PrimeContext) -> RefinedReport:
    """Split-prime refinement: m(chi) counts factors whose effective
    multiplicative character (quadratic symbol times transported component)
    is trivial; generic xi must then satisfy |a_chi| <= 2^n p^{(n-m)/2}.

    Non-generic xi are outside the refinement's stratum; their maxima are
    recorded without assertion.  Both maxima are read per orbit row of the
    table (`PrimeContext.generic_orbits`).  Nonsplit primes return
    applicable=False.
    """
    transport = ctx.transport
    p, n = ctx.pm.p, ctx.pm.n
    if transport is None:
        return RefinedReport(p, [], True, 0.0, False)
    half = (p - 1) // 2
    generic = ctx.generic_orbits
    nongeneric = ~generic
    nongeneric[0] = False
    mags = np.abs(ctx.sums)
    gmaxs = mags.max(axis=0, where=generic[:, None], initial=0.0)
    ngmaxs = mags.max(axis=0, where=nongeneric[:, None], initial=0.0)

    # per character, as arrays: transported and effective exponents, m and
    # the refined bound for that m
    eff = (ctx.transported + half) % (p - 1)
    m = (eff == 0).sum(axis=1)
    rbounds = np.array([2 ** n * p ** ((n - j) / 2) for j in range(n + 1)])[m]
    ok = gmaxs <= rbounds * (1 + RTOL)
    rows = [{"exps": chi.exps, "transported": tuple(ks), "effective": tuple(es),
             "m": mi, "refined_bound": rb, "generic_max": gmax,
             "nongeneric_max": ngmax, "ok": oki}
            for chi, ks, es, mi, rb, gmax, ngmax, oki in zip(
                ctx.chis, ctx.transported.tolist(), eff.tolist(), m.tolist(),
                rbounds.tolist(), gmaxs.tolist(), ngmaxs.tolist(), ok.tolist())]
    return RefinedReport(p, rows, bool(ok.all()), float(ngmaxs.max(initial=0.0)), True)


# ---------------------------------------------------------------------------
# factorization over split tori (n = 2)


@dataclass
class FactorizationReport:
    p: int
    pairs_total: int
    generic_pairs: int
    matched_generic: int         # |lhs - rhs| <= RTOL within the generic set
    matched_all_reconciled: int  # with a = 1 boundary terms included
    max_rel_err: float
    ok: bool


def factorization_check(ctx: PrimeContext) -> FactorizationReport:
    """a_chi factorizes into n = 1 diagonal-torus sums at fully split primes.

    ctx.rep must be the canonical rho (weil.linearize), as PrimeContext.build
    makes it: the one-factor sums are its n = 1 closed form
    (`diagonal_factor_tables`).  Because rho is a representation, rho(S0 t S0^-1) =
    rho(S0) dilate(t) rho(S0)^-1 for the split frame S0 and every diagonal t,
    so the per-character transport to the diagonal frame is exact and needs
    no root choice.  Both routes are compared at every orbit representative
    xi != 0 and every chi, each pair counted once per element of its orbit,
    in one array pass over a block of characters at a time, each block's
    (characters, orbits) arrays within CHUNK_BYTES.
    """
    pm = ctx.pm
    if pm.n != 2:
        raise ValueError("factorization check targets the 4-dimensional case")
    p, n = pm.p, pm.n
    transport = ctx.transport
    if transport is None:
        raise ValueError(f"p = {p} is not fully split for this element")

    # transported coordinates of every orbit representative at once
    reps, _, sizes = ctx.orbits
    lam1, lam2, mu1, mu2 = lattice_image(transport.s0_inv, reps, pm).T
    weight = sizes * (reps > 0)                 # xi = 0 is no pair
    generic_weight = sizes * ctx.generic_orbits

    # the p x p tables of the one-factor sums, one per needed exponent, and
    # the same tables with the a = 1 boundary term removed (pure oracle route)
    needed = sorted(set(ctx.transported.ravel().tolist()))
    factor_tab = diagonal_factor_tables(needed, PrimeModulus(p, 1))
    tabs = np.stack([factor_tab[k] for k in needed])
    oracle_tabs = tabs.copy()
    oracle_tabs[:, 0, 0] -= p
    tab_index = np.searchsorted(needed, ctx.transported)   # (|T|, 2)

    pairs_total = len(ctx.chis) * int(weight.sum())
    generic_pairs = len(ctx.chis) * int(generic_weight.sum())
    matched_generic = matched_all = 0
    max_rel = 0.0
    step = chunk_items(16 * len(reps))
    for lo in range(0, len(ctx.chis), step):
        i1, i2 = tab_index[lo:lo + step, :, None].transpose(1, 0, 2)
        lhs = ctx.sums[:, lo:lo + step].T                   # (characters, orbits)
        rhs = tabs[i1, lam1, mu1] * tabs[i2, lam2, mu2]
        rhs_oracle = oracle_tabs[i1, lam1, mu1] * oracle_tabs[i2, lam2, mu2]
        scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
        rel = np.abs(lhs - rhs) / scale
        rel_oracle = np.abs(lhs - rhs_oracle) / scale
        matched_all += int(np.where(rel <= RTOL, weight, 0).sum())
        matched_generic += int(np.where(rel_oracle <= RTOL, generic_weight, 0).sum())
        max_rel = max(max_rel, float(rel[:, 1:].max()))
    ok = (matched_all == pairs_total
          and generic_pairs > 0
          and matched_generic / generic_pairs >= 0.95)
    return FactorizationReport(p, pairs_total, generic_pairs, matched_generic,
                               matched_all, max_rel, ok)


# ---------------------------------------------------------------------------
# cyclic vs Hecke averaging demo


@dataclass
class DemoRow:
    label: str
    cyclic_avg: complex
    hecke_avg: complex
    integral: float
    hecke_ok: bool


def cyclic_vs_hecke_demo(ctx: PrimeContext) -> tuple[list[DemoRow], dict]:
    """Tabulate time-average vs torus-average matrix elements per eigenvector.

    The observable is T(xi) for xi the first unit vector.  The rows are the
    dim-1 torus eigenvectors v_j, then one balanced superposition
    m = (v_i + v_j) / sqrt(2) for each pair of characters with equal chi(A),
    grouped by the exact chi(A) (`TorusCharacter.value_fraction`).  Every
    row is an eigenvector of rho(A), so by Egorov, rho(A)^k T(xi)
    rho(A)^-k = T(A^k xi), each term <v|T(A^k xi)|v> of the time average
    over k = 1..|<A>| equals <v|T(xi)|v>: the cyclic column is <v|T(xi)|v>.
    The torus average sum_chi P_chi T(xi) P_chi keeps only the diagonal
    terms on the two distinct lines of a mix, so its torus value is the mean
    of the two pure values, and a mix's column gap is the cross term
    |<v_i|T(xi)|v_j> + <v_j|T(xi)|v_i>| / 2 that the time average keeps.
    On a pure row the columns agree.  Both columns come from one gather of
    the stacked rows along T(xi).  Only the torus column carries an
    assertion (the p^{n/2}-scale bound with the exact torus order).  |<A>|
    is read from the torus: lcm_i m_i / gcd(e_i, m_i) for e = dlog[A mod p].
    """
    pm, torus = ctx.pm, ctx.torus
    p, n = pm.p, pm.n
    a_exps = torus.dlog[mat_mod(mat(ctx.elem.matrix), p)]
    r_ord = lcm(*(m // gcd(e, m) for e, m in zip(a_exps, torus.gen_orders)))

    bound = 2 ** n * p ** (n / 2) / torus.order
    dim1 = [(chi, basis[:, 0]) for chi, basis, dim in ctx.decomposition.entries
            if dim == 1]
    # superpositions of eigenvectors sharing the eigenvalue chi(A): these are
    # still eigenvectors of the quantized map but not of the whole torus
    by_a_value = {}
    for i, (chi, _) in enumerate(dim1):
        by_a_value.setdefault(chi.value_fraction(a_exps), []).append(i)
    mixes = [group[:2] for group in by_a_value.values() if len(group) >= 2]
    vectors = [v for _, v in dim1] + [(dim1[i][1] + dim1[j][1]) / np.sqrt(2)
                                      for i, j in mixes]
    diag = []
    if vectors:
        stack = np.stack(vectors, axis=1)
        src, expo = pi_exponents((1,) + (0,) * (2 * n - 1), pm)
        diag = (stack.conj() * root_table(p)[expo][:, None] * stack[src]).sum(axis=0).tolist()

    rows = [DemoRow(f"chi={chi.exps}", val, val, 0.0, abs(val) <= bound * (1 + RTOL))
            for (chi, _), val in zip(dim1, diag)]
    max_column_gap = 0.0
    for (i, j), cyc in zip(mixes, diag[len(dim1):]):
        hk = (diag[i] + diag[j]) / 2
        max_column_gap = max(max_column_gap, abs(cyc - hk))
        rows.append(DemoRow(f"mix chi={dim1[i][0].exps}+{dim1[j][0].exps}", cyc, hk,
                            0.0, True))

    meta = {"cyclic_order": r_ord, "torus_order": torus.order,
            "cyclic_equals_torus": r_ord == torus.order,
            "bound": bound, "max_column_gap": max_column_gap}
    return rows, meta
