"""Routes the program no longer takes, kept as test oracles.

The dense route: every torus element B gets its own dense rho(B): the trace table
F[flat(xi), b] holds one `trace_column` per element, the character sums are
that table times the character table, and the eigenspaces come from the |T|
character projectors (1/|T|) sum_B conj(chi(B)) rho(B).  Memory is
O(p^{2n} |T|), so the comparisons stay at small p.  The character sums
streamed one eigenspace at a time (`character_sum_columns`): one
`trace_column` of each eigenspace projector, O(p^{4n}) in all; the orbit
table from the eigenbasis (`eigenbasis_sum_table`, the W_lam route: each
orbit read at its member of least shift, `least_shift_members`, one product
of the eigenbasis with its translate per distinct shift), which
`quevaluator.character_sum_table` replaces by the trace formula and one
inverse FFT per orbit, and that table read at each orbit's least flat
index, one gather per orbit (`orbit_table_at_reps`).

The torus structure by element orders (`torus_structure`): an O(|T|^2)
order scan, one or two generators.  The torus elements by the form filter
(`centralizer_elements`): all p^(2n) candidates of F_p[A] as matrices, in
three (p^(2n), 2n, 2n) stacks, with B^T J B = J read by two einsums, which
`hecke.centralizer` replaces by the norm N(c) = 1 on coefficient vectors.
The factorization's mask choice with every one of the 2^n masks inverted
(`first_invertible_mask_all`), which `weil._first_invertible_mask`
replaces by inverting Bb first.  The one-factor split sums one scalar
term at a time (`diagonal_factor_sum`), and the Gauss-type sums directly
(`gauss_sum_oracle`).  The n = 1 closed form of the diagonal trace
(`split_trace_formula`), the trace formula's case B = diag(a, 1/a), and the
one-factor tables summed from it (`diagonal_factor_tables_closed_form`),
which `quevaluator.diagonal_factor_tables` reads from the general formula.
The orientation of the diagonal trace measured by one discriminating matrix
trace, at n >= 2 through the embedded diag(a, 1, ..., 1/a, 1, ...)
(`measure_split_sign`), against both orientations (`oriented_split_trace`:
the program's one and its complex conjugate).  The split
frame per xi (`transport_xi`, `factor_coordinates`, `is_generic`) and per
character (`transport_char`).
Multiplicativity on a torus by the |T|^2 pair scan (`torus_pair_scan`), and
on group pairs by dense products (`dense_pair_check`), which
`weil.check_multiplicativity` replaces by products with a probe block; that
check with one apply_many call per role and batch (`pair_check_per_role`),
which it replaces by one factorization per run of pairs.  The trace-formula
check one a at a time against the n = 1 closed form
(`split_trace_deviation_per_a`), which `quevaluator.trace_formula_deviation`
replaces by one matmul per block against the general formula; the
trace function in the flat order of xi (`trace_column`), which the program
reads on the [lam, mu] grid (`quevaluator._trace_grid`).  The
orbit rows by sorting the labels (`orbits_by_unique`), the refined rows
(`refined_rows_loop`) and the factorization counts
(`factorization_counts_loop`) one character at a time.  The whole
p^(2n) x 2n lattice table (`lattice_vectors`) and the routes that read it
whole, which the program replaces by chunks of flat indices
(`quevaluator.lattice_chunks`): the split frame of every xi
(`transport_all`, `generic_mask_full`) and the orbit labels from one full
image per generator (`orbit_labels_full`).  The bound's violations as index
arrays over every violating (xi, chi) (`eager_violations`), which the
orbit-level `quevaluator.ViolationRecords` replace.

Dense operators one element at a time, from the chunk stream
`WeilRep.build_chunks` (`build_many`, `build`, `dense_ops`, and
`generator_ops` for rho of a torus's generators as
`PrimeContext.generator_ops` builds them).  Operators fixed another way:
Schur-averaged intertwiners, up to a phase (`schur_intertwiner`), and rho on
a torus twisted by a character (`linearize_on_torus`, and the context that
reads it, `twisted_context`, whose character sums are the eigenbasis
table of its own generators).  Operators built one element at a time
along a word over the generators (`sp_word`, `word_operator`), which
`WeilRep.build_chunks` replaces by one closed-form kernel per element, and the
Egorov identity checked one xi at a time (`egorov_deviation_loop`).  The
cyclic orbit average of the demo, one vector and one T(xi) per power at a
time (`cyclic_average_loop`), which the demo reads by Egorov from one
T(xi), its torus average one eigenspace projection at a time
(`torus_average_loop`), and its period |<A>| by walking the powers of A
mod p (`matrix_order_modp`).  These oracles apply T(xi) by gathering
with its (src, expo) arrays, so each application costs O(p^(2n)).  The
triangle-inequality bound for averaged trigonometric-polynomial observables
(`averaged_fixture_checks`).  Exact symmetries of the trace function
(`check_invariance`, `hermitian_symmetry_dev`).  The defining relation of
the translations on the whole p^(4n) pair grid (`relation_grid`), which the
2n p^(2n) pairs at the unit vectors prove.

The generator operators as dense matrices (`shear_op`, `dilate_op`),
which the closed-form kernel reproduces, the Fourier normalization from
the dense cube of F D_I (`solve_gamma_dense`), which `weil.solve_gamma`
reads on a probe block, the probe block from numpy's generator
(`numpy_probe_block`), which `weil.probe_block` replaces by uniforms from
the standard library's `random.Random`, rho(U(-S)) as the dense product
rho(fourier) rho(shear(-S)) rho(fourier)^3 (`upper_shear_dense`), which
the program applies as two products by rho(fourier) without forming it,
the cofactor determinant and transpose of integer matrices (`mat_det`,
`mat_transpose`), the symplectic test one pair of columns at a time
(`is_symplectic_pairwise`) and the group scanned one tuple at a time
(`sp_elements_scan`), which `ffcore.is_symplectic` and `weil.sp_elements`
replace by one stacked test, the product of an integer matrix and a vector
(`mat_vec`), and character values as complex numbers (`character_value`,
`character_value_of_exps`), which the program reads only as exact
fractions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product
from math import lcm

import numpy as np

from torusque import ffcore, hecke, quevaluator, weil
from torusque.classical import sp_group_order
from torusque.ffcore import (Mat, PrimeModulus, legendre, mat, mat_inv_modp, mat_mod,
                             mat_mul)
from torusque.hecke import (EigenspaceDecomposition, HeckeTorus, TorusCharacter,
                            characters)
from torusque.heisenberg import (CHUNK_BYTES, BudgetExceeded, FourierPolynomial,
                                 RelationReport, _phase_deviation,
                                 compose_exponents, digits, flat_index, index_vectors,
                                 integral, pi_exponents, pi_exponents_many, quantize,
                                 root_table)
from torusque.quevaluator import (RTOL, PrimeContext, SplitTransport, _trace_grid,
                                  _trace_kernel, trace_pair)
from torusque.weil import (ConstructionError, MultiplicativityReport, WeilRep,
                           fourier_matrix, fourier_op, shear_matrix)


def build_many(rep: WeilRep, bs, deadline: float | None = None):
    """Yield rho(B) for every B of bs, in order, from `rep.build_chunks`
    (same arguments and errors); a yielded operator is a view into its
    chunk's stack."""
    for stack in rep.build_chunks(bs, deadline):
        yield from stack


def build(rep: WeilRep, b: Mat) -> np.ndarray:
    """rho(B) along the closed-form route, alone."""
    return next(build_many(rep, [b]))


def dense_ops(rep: WeilRep, bs) -> dict:
    """{B: rho(B)} for the elements B of bs, matrices reduced mod p (the
    elements of a torus, say), each built once."""
    return dict(zip(bs, build_many(rep, bs)))


def generator_ops(rep: WeilRep, torus: HeckeTorus) -> np.ndarray:
    """(k, p^n, p^n) stack of rho(g_i) for the generators of the torus, in
    their order, as `PrimeContext.generator_ops` builds it."""
    return np.concatenate(list(rep.build_chunks([g for g, _ in torus.generators])))


def is_palindromic(f) -> bool:
    f = ffcore.poly_trim(f)
    return all(f[i] == f[len(f) - 1 - i] for i in range(len(f)))


def lattice_vectors(pm: PrimeModulus) -> np.ndarray:
    """Array of shape (p^{2n}, 2n): row k is the lattice vector xi of flat
    index k, the whole table at once."""
    return digits(np.arange(pm.dim ** 2), pm.p, 2 * pm.n)


def flatten_xi(xi, pm: PrimeModulus) -> int:
    p, n = pm.p, pm.n
    xi = [int(c) % p for c in xi]
    lam = sum(xi[j] * p ** j for j in range(n))
    mu = sum(xi[n + j] * p ** j for j in range(n))
    return lam + p ** n * mu


def unflatten_xi(k: int, pm: PrimeModulus) -> tuple[int, ...]:
    p, n = pm.p, pm.n
    lam, mu = k % p ** n, k // p ** n
    return tuple((lam // p ** j) % p for j in range(n)) + \
        tuple((mu // p ** j) % p for j in range(n))


def mat_vec(a: Mat, v: tuple[int, ...], mod: int | None = None) -> tuple[int, ...]:
    """A v over Z, or mod `mod`, one row at a time."""
    out = []
    for row in a:
        s = sum(x * y for x, y in zip(row, v))
        out.append(s % mod if mod is not None else s)
    return tuple(out)


def mats(stack) -> list[Mat]:
    """The matrices of an int64 stack (`weil.random_sp`) as nested tuples of
    Python ints, for the routes that take one Mat at a time."""
    return [tuple(map(tuple, b)) for b in np.asarray(stack).tolist()]


def character_value_of_exps(chi: TorusCharacter, exps: tuple) -> complex:
    """chi(prod_j g_j^e_j) as a complex number, from the exact fraction."""
    return np.exp(2j * np.pi * float(chi.value_fraction(exps)))


def character_value(chi: TorusCharacter, torus: HeckeTorus, b: Mat) -> complex:
    """chi(B) for a torus element B, through its discrete logs."""
    return character_value_of_exps(chi, torus.dlog[mat_mod(mat(b), torus.pm.p)])


def check_invariance(xi, b: Mat, s: Mat, rep, pm: PrimeModulus) -> float:
    """|F(xi, B) - F(S xi, S B S^-1)|; exact symmetry of the trace function."""
    p = pm.p
    s = mat_mod(mat(s), p)
    b = mat_mod(mat(b), p)
    s_inv = ffcore.mat_inv_modp(s, p)
    sbs = mat_mul(mat_mul(s, b, mod=p), s_inv, mod=p)
    sxi = mat_vec(s, tuple(int(c) for c in xi), mod=p)
    rho, rho_conj = build_many(rep, [b, sbs])
    return abs(trace_pair(xi, rho, pm) - trace_pair(sxi, rho_conj, pm))


def hermitian_symmetry_dev(xi, b: Mat, rep, pm: PrimeModulus) -> float:
    """|F(-xi, B^-1) - conj(F(xi, B))|; the measured relation phase is 1."""
    p = pm.p
    b = mat_mod(mat(b), p)
    b_inv = ffcore.mat_inv_modp(b, p)
    neg = tuple((-int(c)) % p for c in xi)
    rho_inv, rho = build_many(rep, [b_inv, b])
    return abs(trace_pair(neg, rho_inv, pm) - np.conj(trace_pair(xi, rho, pm)))


def gauss_sum_oracle(c: int, chi_exp: int, pm: PrimeModulus, dlog=None) -> complex:
    """Direct sum over a not in {0, 1} of sigma(a) psi(c (1+a)/(1-a)) chi'(a).

    The independent oracle for split-prime character sums: it omits the a = 1
    boundary term, which callers reconcile (the term is p^n on xi = 0 and
    vanishes elsewhere).
    """
    p = pm.p
    if dlog is None:
        _, table = ffcore.dlog_table(p)
    else:
        table = dlog
    acc = 0.0 + 0.0j
    for a in range(2, p):
        t = (c * (1 + a) * pow((1 - a) % p, -1, p)) % p
        acc += legendre(a, p) * np.exp(2j * np.pi * t / p) \
            * np.exp(2j * np.pi * chi_exp * table[a] / (p - 1))
    return complex(acc)


def transport_xi(transport: SplitTransport, xi) -> tuple[int, ...]:
    return mat_vec(transport.s0_inv, tuple(int(c) for c in xi),
                   mod=transport.pm.p)


def factor_coordinates(transport: SplitTransport, xi) -> list[tuple[int, int]]:
    eta = transport_xi(transport, xi)
    n = transport.pm.n
    return [(eta[j], eta[n + j]) for j in range(n)]


def is_generic(transport: SplitTransport, xi) -> bool:
    return all(l != 0 and m != 0 for l, m in factor_coordinates(transport, xi))


def transport_char(transport: SplitTransport, chi: TorusCharacter,
                   torus: HeckeTorus) -> tuple[int, ...]:
    """Per-factor exponents k_j with chi(S0 t(e_j(g)) S0^-1) = e(k_j/(p-1)),
    one character at a time through Fraction values."""
    p, n = transport.pm.p, transport.pm.n
    g = ffcore.primitive_root(p)
    out = []
    for j in range(n):
        avec = [1] * n
        avec[j] = g
        b = transport.std_elem(avec)
        t = chi.value_fraction(torus.dlog[b])
        k = t * (p - 1)
        if k.denominator != 1:
            raise RuntimeError("transported character exponent is not integral")
        out.append(int(k) % (p - 1))
    return tuple(out)


def _trace_column(rho_dense: np.ndarray, kernel) -> np.ndarray:
    """`quevaluator._trace_grid` read in the flat order lam + p^n mu of xi:
    (p^(2n),) for one operator, (k, p^(2n)) for a stack."""
    out = _trace_grid(rho_dense, kernel)
    # [lam, mu] transposed to [mu, lam] and read row-major: lam + p^n mu
    return out.swapaxes(-1, -2).reshape(*out.shape[:-2], -1)


def trace_column(rho_dense: np.ndarray, pm: PrimeModulus) -> np.ndarray:
    """F(xi, B) for every xi mod p, in flat order lam + p^n mu, from rho(B)
    or a stack of operators (`_trace_column`, with the tables built here)."""
    return _trace_column(rho_dense, _trace_kernel(pm))


def torus_pair_scan(rep, torus: HeckeTorus, tol: float = 1e-8) -> MultiplicativityReport:
    """rho(B1) rho(B2) = rho(B1 B2) over all |T|^2 pairs of torus elements,
    every operator built once (`dense_ops`)."""
    pm = rep.pm
    ops = dense_ops(rep, torus.elements)
    max_dev = 0.0
    for b1 in torus.elements:
        for b2 in torus.elements:
            prod = mat_mul(b1, b2, mod=pm.p)
            max_dev = max(max_dev, float(np.abs(ops[b1] @ ops[b2] - ops[prod]).max()))
    return MultiplicativityReport(torus.order ** 2, max_dev, max_dev <= tol)


def dense_pair_check(rep, pairs=None, tol: float = 1e-8) -> MultiplicativityReport:
    """rho(B1) rho(B2) = rho(B1 B2) for every pair (B1, B2) in pairs, or for
    every pair of Sp(2n, F_p) when pairs is None, as the entrywise max |M| of
    M = rho(B1) rho(B2) - rho(B1 B2), one dense product per pair.  Every
    operator comes from `build_many`."""
    p = rep.pm.p
    if pairs is None:
        group = weil.sp_elements(rep.pm)
        rho = dict(zip(group, build_many(rep, group)))
        triples = ((rho[b1], rho[b2], rho[mat_mul(b1, b2, mod=p)])
                   for b1, b2 in product(group, repeat=2))
        count = len(group) ** 2
    else:
        ops = build_many(rep, weil.pair_triples(pairs, rep.pm))
        triples = zip(ops, ops, ops)
        count = len(pairs)
    max_dev = 0.0
    for r1, r2, r12 in triples:
        max_dev = max(max_dev, float(np.abs(r1 @ r2 - r12).max()))
    return MultiplicativityReport(count, max_dev, max_dev <= tol)


def schur_intertwiner(b: Mat, pm: PrimeModulus, rng: np.random.Generator,
                      max_tries: int = 8) -> np.ndarray:
    """Unitary W with W T(xi) W^-1 = T(B xi), phase unfixed.

    Averages T(B xi) C T(xi)^-1 over all lattice vectors xi for a random C,
    each term gathered from the (src, expo) arrays in O(p^(2n));
    by irreducibility the average is a scalar multiple of a unitary, or zero
    with probability ~ p^-2n (then retried with a fresh C).
    """
    p, d = pm.p, pm.dim
    b = mat_mod(mat(b), p)
    if not ffcore.is_symplectic(b, p=p):
        raise ValueError("intertwiner target must be symplectic mod p")
    xis = lattice_vectors(pm)
    src, expo = pi_exponents_many(xis, pm)
    bsrc, bexpo = pi_exponents_many(xis @ np.array(b).T, pm)
    roots = root_table(p)
    for _ in range(max_tries):
        c = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        acc = np.zeros((d, d), dtype=complex)
        # T(B xi) C T(xi)^dagger, entry [x, y] = psi(e'[x] - e[y]) C[s'[x], s[y]]
        for s_in, e_in, s_out, e_out in zip(src, expo, bsrc, bexpo):
            acc += (roots[e_out][:, None] * roots[e_in].conj()[None, :]
                    * c[np.ix_(s_out, s_in)])
        norm = np.linalg.norm(acc)
        if norm < 1e-9 * d:
            continue
        gram = acc.conj().T @ acc
        scale = gram.trace().real / d
        if np.abs(gram - scale * np.eye(d)).max() > 1e-6 * scale:
            raise ConstructionError("averaged operator is not a scalar times unitary")
        return acc / np.sqrt(scale)
    raise ConstructionError("intertwiner averaging returned zero repeatedly")


def linearize_on_torus(torus, rep: WeilRep, root_index: tuple | int = 0) -> dict:
    """The canonical rho on the torus, twisted by a torus character:
    {B: rho'(B)} for every torus element B.

    A multiplicative linearization of the torus is fixed up to a character:
    rho(g_i) may be rescaled by any N_i-th root of unity on a generator g_i
    of order N_i.  Root index k = (k_1, ...) rescales rho(g_i) by
    exp(-2 pi i k_i / N_i), so every torus element B is multiplied by
    conj(chi_k(B)), chi_k the character with exponents k; k = 0 is the
    canonical rho.  Every twisted operator passes the Egorov check
    (`weil.check_egorov`).  rep is the canonical rho.
    """
    if isinstance(root_index, int):
        root_index = (root_index,) * len(torus.generators)
    chi = TorusCharacter(torus.gen_orders, tuple(root_index))
    ops = np.concatenate(list(rep.build_chunks(torus.elements)))
    ops *= np.conj([character_value_of_exps(chi, torus.dlog[b])
                    for b in torus.elements])[:, None, None]
    weil.check_egorov(ops, torus.elements, rep.pm)
    return dict(zip(torus.elements, ops))


def twisted_context(elem, torus: HeckeTorus, rep: WeilRep,
                    root_index: tuple | int = 0) -> PrimeContext:
    """The context of elem on the torus with rho twisted by the character of
    root_index (`linearize_on_torus`): its generators' stack is assigned to
    `generator_ops`, its character sums to `sums` from the eigenbasis of that
    stack (`eigenbasis_sum_table`) and their xi = 0 row over |T| to `dims`,
    as the program's trace formula is the canonical rho's."""
    ops = linearize_on_torus(torus, rep, root_index)
    ctx = PrimeContext(elem, torus, rep)
    ctx.generator_ops = np.stack([ops[g] for g, _ in torus.generators])
    ctx.sums = eigenbasis_sum_table(ctx)
    ctx.dims = np.rint(ctx.sums[0, ctx.inverse_index].real / torus.order).astype(int).tolist()
    return ctx


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


@dataclass
class TraceTable:
    """F[flat(xi), b] over all xi in (Z/p)^{2n} and the torus element list."""

    pm: PrimeModulus
    torus: HeckeTorus
    values: np.ndarray  # (p^{2n}, |T|) complex

    def value(self, xi, b) -> complex:
        col = self.torus.elements.index(mat_mod(mat(b), self.pm.p))
        return complex(self.values[flatten_xi(xi, self.pm), col])


def build_trace_table(torus: HeckeTorus, ops: dict) -> TraceTable:
    """Tabulate F for every (xi, B): one trace column per torus element, from
    ops = {B: rho(B)} over the torus (`dense_ops`, `linearize_on_torus`)."""
    pm = torus.pm
    kernel = _trace_kernel(pm)
    table = np.empty((pm.dim ** 2, torus.order), dtype=complex)
    for bi, b in enumerate(torus.elements):
        table[:, bi] = _trace_column(ops[b], kernel)
    return TraceTable(pm, torus, table)


def character_sum_columns(ctx: PrimeContext):
    """Yield (i, a_chi(xi) for every flat xi) for chi = ctx.chis[i], in order.

    a_chi(xi) = |T| Tr(T(xi) P_{chi^-1}), with P_{chi^-1} = V V^dagger on the
    eigenspace H_{chi^-1}: one `trace_column` gather and matmul per occupied
    eigenspace, and zeros for the empty ones.
    """
    kernel = _trace_kernel(ctx.pm)
    entries = ctx.decomposition.entries
    for i, inv in enumerate(ctx.inverse_index):
        _, basis, dim = entries[inv]
        if dim == 0:
            yield i, np.zeros(ctx.pm.dim ** 2, dtype=complex)
        else:
            yield i, ctx.torus.order * _trace_column(basis @ basis.conj().T, kernel)


def orbit_table_at_reps(ctx: PrimeContext) -> np.ndarray:
    """`quevaluator.character_sum_table` read at each orbit's least flat
    index (`PrimeContext.orbits` reps): one gather of the concatenated
    eigenbasis along T(xi_r) per representative, O(p^{2n}) each."""
    pm, dec = ctx.pm, ctx.decomposition
    xis = lattice_vectors(pm)[ctx.orbits[0]]
    basis = np.hstack([b for _, b, _ in dec.entries])
    conj = basis.conj()
    dims = np.array(dec.dims)
    starts = (np.cumsum(dims) - dims)[dims > 0]
    traces = np.zeros((len(xis), len(dims)), dtype=complex)
    for r, xi in enumerate(xis):
        src, expo = pi_exponents_many(xi[None], pm)
        vals = root_table(pm.p)[expo[0]] @ (conj * basis[src[0]])
        traces[r, dims > 0] = np.add.reduceat(vals, starts)
    return ctx.torus.order * traces[:, ctx.inverse_index]


# bytes of one block of W_lam columns in eigenbasis_sum_table: its matmul by
# the phase rows gains from width, and CHUNK_BYTES-wide blocks (17 columns at
# n = 2, p = 31) left it call-bound
TABLE_BLOCK_BYTES = 16 * CHUNK_BYTES


def least_shift_members(row: np.ndarray, pm: PrimeModulus) -> np.ndarray:
    """The flat index of each orbit's member xi = (lam, mu) of least shift
    lam, then least mu, for the orbit rows `row` of every flat xi.

    The flat index is lam + p^n mu, so the key lam p^n + mu is the flat index
    with its two halves swapped: one `np.minimum.at` over the p^{2n} labels.
    """
    d = pm.dim
    keys = np.full(int(row.max()) + 1, d * d)
    np.minimum.at(keys, row.reshape(d, d).T, np.arange(d * d).reshape(d, d))
    return keys // d + d * (keys % d)


def _column_blocks(dims: np.ndarray, width: int) -> list[tuple[int, int]]:
    """[lo, hi) ranges of the occupied eigenspaces (indices into dims[dims > 0])
    whose columns together stay within width, each at least one eigenspace."""
    sizes = dims[dims > 0]
    blocks, lo, cols = [], 0, 0
    for i, size in enumerate(sizes.tolist()):
        if cols and cols + size > width:
            blocks.append((lo, i))
            lo, cols = i, 0
        cols += size
    return blocks + [(lo, len(sizes))]


def eigenbasis_sum_table(ctx: PrimeContext) -> np.ndarray:
    """`quevaluator.character_sum_table` from the context's eigenbasis (the
    W_lam route, which the trace formula replaces): a_chi(xi_r) on every
    orbit row r of `orbits`, row r, column chi.

    a_chi(xi) = |T| Tr(T(xi) P_{chi^-1}), and Tr(T(xi) P) sums <v|T(xi)|v>
    over the eigenbasis of P.  Each orbit is read at its member of least
    shift (`least_shift_members`).  T(lam, mu) v[x] = psi(nu lam.mu + mu.x)
    v[x + lam], so every orbit read at shift lam shares the product
    W_lam = conj(V) * V[x + lam] of the character-sorted eigenbasis V, and
    its row is its phase row psi(expo) times W_lam: one gather and one
    matmul per distinct lam, not per orbit, with the sum over x taken before
    the sum over each eigenspace's columns.  The columns of W_lam are cut at
    eigenspace boundaries into blocks of TABLE_BLOCK_BYTES, each reduced
    straight into the columns of its characters' inverses; the deadline is
    read before every block.
    """
    pm, dec = ctx.pm, ctx.decomposition
    d = pm.dim
    row = ctx.orbits[1]
    members = least_shift_members(row, pm)
    lam = members % d
    order = np.argsort(lam, kind="stable")
    cuts = np.flatnonzero(np.diff(lam[order])) + 1
    basis = dec.basis
    dims = np.array(dec.dims)
    occupied = np.flatnonzero(dims > 0)
    column = np.array(ctx.inverse_index)[occupied]      # where H_chi's traces go
    starts = np.cumsum(dims[occupied]) - dims[occupied]
    blocks = _column_blocks(dims, max(1, TABLE_BLOCK_BYTES // (16 * d)))
    # column-major: the readers' reductions sum in this layout
    traces = np.zeros((len(dims), len(members)), dtype=complex).T
    for done, rows in zip([0, *cuts], np.split(order, cuts)):
        src, expo = pi_exponents_many(digits(members[rows], pm.p, 2 * pm.n), pm)
        phases = root_table(pm.p)[expo]
        for lo, hi in blocks:
            if ctx.deadline is not None and time.perf_counter() > ctx.deadline:
                raise BudgetExceeded(f"deadline passed at orbit {done} of {len(members)}")
            c0 = starts[lo]
            c1 = starts[hi - 1] + dims[occupied[hi - 1]]
            # numpy writes a large product into the gathered temporary, with
            # the operands swapped; this form keeps the sums' last bits
            conj = basis[:, c0:c1].conj()
            w = conj * basis[src[0], c0:c1]
            traces[rows[:, None], column[lo:hi]] = np.add.reduceat(
                phases @ w, starts[lo:hi] - c0, axis=1)
    traces *= ctx.torus.order
    return traces


def character_sum(xi, chi: TorusCharacter, table: TraceTable) -> complex:
    torus = table.torus
    vals = np.array([character_value_of_exps(chi, torus.dlog[b]) for b in torus.elements])
    return complex(table.values[flatten_xi(xi, table.pm)] @ vals)


def character_sum_table(table: TraceTable) -> np.ndarray:
    """a[flat(xi), chi_index] = sum_B F(xi, B) chi(B), all at once."""
    return table.values @ character_table(table.torus).T


def projector(chi: TorusCharacter, torus: HeckeTorus, ops: dict) -> np.ndarray:
    """Orthogonal projector onto {v : rho(B) v = chi(B) v for all B in T},
    ops = {B: rho(B)} over the torus."""
    d = torus.pm.dim
    acc = np.zeros((d, d), dtype=complex)
    for b in torus.elements:
        acc += np.conj(character_value(chi, torus, b)) * ops[b]
    return acc / torus.order


def decompose(torus: HeckeTorus, ops: dict, tol: float = 1e-8) -> EigenspaceDecomposition:
    """Simultaneous eigenspaces through the |T| stacked character projectors,
    ops = {B: rho(B)} over the torus.

    Validates completeness, projector idempotency, and the eigenvector
    property of every basis vector against every B (max abs entry).
    """
    d = torus.pm.dim
    chis = characters(torus)
    stack = np.stack([ops[b] for b in torus.elements])       # (N, d, d)
    chivals = character_table(torus)                         # (K, N)
    projs = (np.conj(chivals) @ stack.reshape(torus.order, -1) / torus.order)
    projs = projs.reshape(len(chis), d, d)

    entries = []
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
    dims = [e[2] for e in entries]
    if sum(dims) != d:
        raise RuntimeError(f"eigenspace dimensions sum to {sum(dims)} != {d}")
    if np.abs(projs.sum(axis=0) - np.eye(d)).max() > 10 * tol:
        raise RuntimeError("projectors do not resolve the identity")

    v = np.hstack([basis for _, basis, dim in entries if dim])
    col_chi = np.concatenate([[i] * dim for i, (_, _, dim) in enumerate(entries)
                              if dim]).astype(int)
    max_dev = 0.0
    for b_idx in range(torus.order):
        expected = chivals[col_chi, b_idx]
        dev = np.abs(stack[b_idx] @ v - v * expected[None, :]).max()
        max_dev = max(max_dev, float(dev))
    if max_dev > 10 * tol:
        raise RuntimeError(f"eigenvector equation deviation {max_dev:.2e}")
    return EigenspaceDecomposition(torus, np.hstack([b for _, b, _ in entries]), dims,
                                   max_dev)


def hecke_average(xi, torus: HeckeTorus, ops: dict) -> np.ndarray:
    """(1/|T|) sum_B rho(B) T(xi) rho(B)^-1, block diagonal in the Hecke basis,
    ops = {B: rho(B)} over the torus."""
    d = torus.pm.dim
    src, expo = pi_exponents(xi, torus.pm)
    phase = root_table(torus.pm.p)[expo]
    acc = np.zeros((d, d), dtype=complex)
    for b in torus.elements:
        r = ops[b]
        rt = np.empty_like(r)
        rt[:, src] = r * phase[None, :]                 # rho(B) T(xi)
        acc += rt @ r.conj().T
    return acc / torus.order


def averaged_fixture_checks(fixtures: list[FourierPolynomial], ctx: PrimeContext):
    """Triangle-inequality bound for trigonometric-polynomial observables.

    For each dim-1 Hecke eigenvector v: |<v|Avg(Op_f)|v> - integral(f)| is
    bounded by (sum_{xi != 0} |a_xi(f)|) * 2^n p^{n/2} / |T|, using the exact
    torus order (the nominal p^{-n/2} form, which presumes |T| = p^n, is
    reported as a flag instead of asserted).  On a torus eigenvector
    <v|rho(B) X rho(B)^-1|v> = <v|X|v>, so <v|Avg(X)|v> = <v|X|v>.
    """
    pm = ctx.pm
    rows = []
    n, p = pm.n, pm.p
    lines = [basis[:, 0] for _, basis, dim in ctx.decomposition.entries
             if dim == 1]
    for fi, f in enumerate(fixtures):
        op = quantize(f, pm)
        coeff_l1 = sum(abs(a) for xi, a in f.terms.items() if any(c % p for c in xi))
        rigorous = coeff_l1 * 2 ** n * p ** (n / 2) / ctx.torus.order
        nominal = coeff_l1 * 2 ** n * p ** (-n / 2)
        worst = max((abs(np.vdot(v, op @ v) - integral(f)) for v in lines),
                    default=0.0)
        rows.append({"fixture": fi, "max_dev": float(worst),
                     "rigorous_bound": rigorous, "nominal_bound": nominal,
                     "ok_rigorous": worst <= rigorous * (1 + RTOL),
                     "ok_nominal": worst <= nominal * (1 + RTOL)})
    return rows


def projector_stack(dec: hecke.EigenspaceDecomposition) -> list[np.ndarray]:
    """V V^dagger for every entry of a decomposition, in character order."""
    return [basis @ basis.conj().T for _, basis, _ in dec.entries]


def _element_order(b: Mat, p: int, bound: int) -> int:
    ident = ffcore.identity_mat(len(b))
    acc = b
    for k in range(1, bound + 1):
        if acc == ident:
            return k
        acc = mat_mul(acc, b, mod=p)
    raise RuntimeError("order exceeds group order bound")


def centralizer_elements(a: Mat, pm: PrimeModulus) -> list[Mat]:
    """The symplectic elements of F_p[A], in flat order of their coefficient
    vectors: every candidate sum_k c_k A^k as a matrix, kept where
    B^T J B = J."""
    p, n = pm.p, pm.n
    d = 2 * n
    a = mat_mod(mat(a), p)
    powers = [ffcore.identity_mat(d)]
    for _ in range(d - 1):
        powers.append(mat_mul(powers[-1], a, mod=p))
    pow_arr = np.array(powers, dtype=np.int64)
    cands = np.tensordot(lattice_vectors(pm), pow_arr, axes=(1, 0)) % p
    j = np.array(ffcore.standard_j(n), dtype=np.int64)
    jt = np.einsum("bij,jk->bik", cands.transpose(0, 2, 1), j) % p
    form = np.einsum("bij,bjk->bik", jt, cands) % p
    keep = np.all(form == j % p, axis=(1, 2))
    return [tuple(map(tuple, b)) for b in cands[keep].tolist()]


def first_invertible_mask_all(a, bb, p: int):
    """(mask, det M, M^-1) of weil._first_invertible_mask, with M = Bb + A S
    inverted for every mask at once."""
    bits = weil._mask_bits(a.shape[-1])
    det, inv, _ = ffcore.gauss_jordan_modp(bb[:, None] + a[:, None] * bits[None, :, None, :], p)
    mask = (det != 0).argmax(axis=1)
    every = np.arange(len(bb))
    return mask, det[every, mask], inv[every, mask]


def torus_structure(elements: list, p: int) -> tuple[list, dict]:
    """Generators and discrete logs from the orders of all elements.

    Cyclic case: the first element of maximal order.  Otherwise a
    two-generator decomposition Z_m1 x Z_m2 (m1 the exponent, m2 = |T|/m1) is
    located by search and certified by regenerating exactly |T| distinct
    products.
    """
    n_t = len(elements)
    orders = [_element_order(b, p, n_t) for b in elements]
    exponent = lcm(*orders)
    g1 = elements[orders.index(exponent)]

    if exponent == n_t:
        dlog = {}
        acc = ffcore.identity_mat(len(g1))
        for e in range(n_t):
            dlog[acc] = (e,)
            acc = mat_mul(acc, g1, mod=p)
        if len(dlog) != n_t:
            raise RuntimeError("cyclic regeneration mismatch")
        return [(g1, exponent)], dlog

    if n_t % exponent != 0:
        raise RuntimeError("exponent does not divide order")
    m2 = n_t // exponent
    cyc1 = set()
    acc = ffcore.identity_mat(len(g1))
    for _ in range(exponent):
        cyc1.add(acc)
        acc = mat_mul(acc, g1, mod=p)

    for g2, o2 in zip(elements, orders):
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
            return [(g1, exponent), (g2, m2)], dlog
    raise RuntimeError(f"no two-generator decomposition found for |T| = {n_t}")


def split_trace_formula(lam, mu, a, pm: PrimeModulus) -> complex | np.ndarray:
    """sigma(a) psi(-(lam mu / 2)(1+a)/(1-a)) = F((lam, mu), diag(a, 1/a)), a not in {0, 1}:
    the n = 1 diagonal case of `quevaluator.TraceFormula`.

    B - I is invertible, so F(xi, B) = sigma(-det(B - I)) psi(omega(y, B y) / 2)
    with y = (B - I)^-1 xi = (lam/(a-1), a mu/(1-a)) and omega(x, y) = x^T J y:
    omega(y, B y) / 2 = -(lam mu / 2)(1+a)/(1-a), and -det(B - I) = (1-a)^2 / a.

    lam, mu and a are integers (a complex is returned) or integer arrays (an
    array of their broadcast shape is returned), in exact int64 arithmetic.
    """
    if pm.n != 1:
        raise ValueError("closed form is the n = 1 building block")
    p = pm.p
    a = np.asarray(a) % p
    if ((a == 0) | (a == 1)).any():
        raise ValueError("a must avoid 0 and 1 (identity excluded from the torus)")
    c = -pm.nu * (1 + a) % p * ffcore.unit_inverses(p)[(1 - a) % p] % p
    t = (c * (np.asarray(lam) % p) % p) * (np.asarray(mu) % p) % p
    vals = ffcore.legendre_signs(p)[a] * root_table(p)[t]
    return complex(vals) if vals.ndim == 0 else vals


def diagonal_factor_tables_closed_form(ks, pm: PrimeModulus) -> dict[int, np.ndarray]:
    """`quevaluator.diagonal_factor_tables` from `split_trace_formula`, one
    call over every a not in {0, 1}, in the layout the program sums."""
    p = pm.p
    _, dlog = ffcore.dlog_table(p)
    a, lam, mu = np.ogrid[2:p, :p, :p]
    terms = split_trace_formula(lam, mu, a, pm)
    logs = np.array(dlog[2:])
    tables = {}
    for k in ks:
        tab = np.tensordot(np.exp(2j * np.pi * k * logs / (p - 1)), terms, axes=1)
        tab[0, 0] += p
        tables[k] = tab
    return tables


def oriented_split_trace(lam, mu, a, pm: PrimeModulus, sign: int):
    """The closed-form diagonal trace in orientation sign:
    sigma(a) psi(sign (lam mu / 2)(1+a)/(1-a)).  At -1 it is
    `split_trace_formula`, the program's one orientation; at +1 its complex
    conjugate."""
    val = split_trace_formula(lam, mu, a, pm)
    return val if sign == -1 else val.conjugate()


def measure_split_sign(pm: PrimeModulus, rep) -> int:
    """The orientation sign under which `oriented_split_trace` matches one
    discriminating matrix trace, at any n.

    The trace is the n = 1 value F((1, 1), diag(a, 1/a)).  At n >= 2 it is
    read through the embedding t(a) = diag(a, 1, ..., 1/a, 1, ...): T(xi)
    and rho(t(a)) both factor over the coordinates, so at xi = e_1 + e_{n+1}
    Tr(T(xi) rho(t(a))) = p^(n-1) F((1, 1), diag(a, 1/a)).  At p = 3 the
    torus leaves only a = -1, where the phase vanishes and both signs define
    the same formula; -1 is returned after checking agreement on every
    available sample.
    """
    p, n = pm.p, pm.n
    pm1 = PrimeModulus(p, 1)
    xi = (1,) + (0,) * (n - 1) + (1,) + (0,) * (n - 1)

    def trace(a: int) -> complex:
        diag = (a,) + (1,) * (n - 1) + (pow(a, -1, p),) + (1,) * (n - 1)
        b = tuple(tuple(x if i == j else 0 for j in range(2 * n))
                  for i, x in enumerate(diag))
        return trace_pair(xi, build(rep, b), pm) / p ** (n - 1)

    for a in range(2, p):
        t = (pm.nu * (1 + a) * pow((1 - a) % p, -1, p)) % p
        if t == 0 or (2 * t) % p == 0:
            continue  # both signs agree here; useless sample
        ref = trace(a)
        for sign in (-1, 1):
            if abs(oriented_split_trace(1, 1, a, pm1, sign) - ref) < 1e-9:
                return sign
        raise RuntimeError("neither orientation sign matches the matrix trace")
    for a in range(2, p):
        if abs(split_trace_formula(1, 1, a, pm1) - trace(a)) > 1e-9:
            raise RuntimeError("orientation-free sample disagrees with trace")
    return -1


def diagonal_factor_sum(lam: int, mu: int, k: int, pm: PrimeModulus,
                        sign: int = -1, dlog=None) -> complex:
    """Full n = 1 torus sum sum_{a in F_p^x} F((lam, mu), diag(a, 1/a)) chi'(a),
    with F in orientation sign (`oriented_split_trace`).

    chi' is the multiplicative character of exponent k (base the smallest
    primitive root).  The a = 1 term is the trace of T((lam, mu)): p when
    (lam, mu) = 0 and zero otherwise.
    """
    p = pm.p
    if dlog is None:
        _, table = ffcore.dlog_table(p)
    else:
        table = dlog
    acc = 0.0 + 0.0j
    for a in range(1, p):
        chi_val = np.exp(2j * np.pi * k * table[a] / (p - 1))
        if a == 1:
            if lam % p == 0 and mu % p == 0:
                acc += p * chi_val
            continue
        acc += oriented_split_trace(lam, mu, a, pm, sign) * chi_val
    return complex(acc)


# ---------------------------------------------------------------------------
# the generator operators, and integer-matrix helpers only oracles use


def is_symplectic_pairwise(m: Mat, p: int | None = None) -> bool:
    """True iff M^T J M = J (over Z, or mod p), one Python-int pairing
    omega(column i, column j) at a time for every pair i < j."""
    d = len(m)
    if d % 2 != 0 or any(len(r) != d for r in m):
        raise ValueError("symplectic test needs a square matrix of even size")
    n = d // 2
    cols = tuple(zip(*m))
    for i in range(d):
        for j in range(i + 1, d):
            want = 1 if j == i + n and i < n else 0
            diff = sum(cols[i][k] * cols[j][n + k] - cols[i][n + k] * cols[j][k]
                       for k in range(n)) - want
            if (diff % p if p is not None else diff) != 0:
                return False
    return True


def sp_elements_scan(pm: PrimeModulus) -> list[Mat]:
    """All of Sp(2n, F_p) in row-major lexicographic order, one tuple of the
    p^(4n^2) at a time through `is_symplectic_pairwise`."""
    p, d = pm.p, 2 * pm.n
    out = []
    for entries in product(range(p), repeat=d * d):
        m = tuple(entries[i * d:(i + 1) * d] for i in range(d))
        if is_symplectic_pairwise(m, p=p):
            out.append(m)
    return out


def mat_transpose(a: Mat) -> Mat:
    return tuple(zip(*a))


def mat_det(a: Mat) -> int:
    """Exact determinant by cofactor expansion (desk-scale sizes)."""
    d = len(a)
    if d == 1:
        return a[0][0]
    if d == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    det = 0
    for j in range(d):
        if a[0][j] == 0:
            continue
        minor = tuple(tuple(row[k] for k in range(d) if k != j) for row in a[1:])
        det += (-1) ** j * a[0][j] * mat_det(minor)
    return det


def dilate_op(m_block: Mat, pm: PrimeModulus) -> np.ndarray:
    """f |-> legendre(det M) f(M^-1 x), a signed permutation of the point
    basis, as a dense matrix."""
    p = pm.p
    det = mat_det(m_block) % p
    if det == 0:
        raise ValueError("dilation block must be invertible mod p")
    minv = mat_inv_modp(m_block, p)
    pts = index_vectors(pm)
    src = ((pts @ np.array(minv).T) % p) @ (p ** np.arange(pm.n))
    out = np.zeros((pm.dim, pm.dim), dtype=complex)
    out[np.arange(pm.dim), src] = float(legendre(det, p))
    return out


def shear_op(s_block: Mat, pm: PrimeModulus) -> np.ndarray:
    """f |-> psi(nu x^T S x) f(x) for symmetric S, as a dense diagonal matrix."""
    p = pm.p
    s_block = mat_mod(mat(s_block), p)
    if s_block != mat_transpose(s_block):
        raise ValueError("shear block must be symmetric")
    pts = index_vectors(pm)
    quad = np.einsum("xi,ij,xj->x", pts, np.array(s_block), pts) % p
    return np.diag(root_table(p)[(pm.nu * quad) % p])


def solve_gamma_dense(pm: PrimeModulus) -> complex:
    """The Fourier normalization from the dense cube K^3 of K = F D_I, two
    d^3 products, which `weil.solve_gamma` reads on a probe block."""
    k = fourier_op(pm, 1.0) @ shear_op(ffcore.identity_mat(pm.n), pm)
    k3 = k @ k @ k
    c = k3[0, 0]
    if np.abs(k3 - np.eye(pm.dim) * c).max() > 1e-8 * abs(c):
        raise ConstructionError("cube of Fourier*shear is not scalar")
    return complex(legendre((-1) ** pm.n, pm.p) / c)


def numpy_probe_block(pm: PrimeModulus, seed: int) -> np.ndarray:
    """(p^n, PROBE_COLUMNS) i.i.d. CN(0, 1) block from numpy's
    default_rng(seed) standard normals."""
    rng = np.random.default_rng(seed)
    re, im = rng.standard_normal((2, pm.dim, weil.PROBE_COLUMNS))
    return (re + 1j * im) / np.sqrt(2)


def upper_shear_dense(rep: WeilRep, mask: int) -> np.ndarray:
    """rho(U(-S)) = rho(fourier) rho(shear(-S)) rho(fourier)^3 for the
    diagonal 0/1 matrix S with bits mask, dense: three d^3 products."""
    phase = root_table(rep.pm.p)[-weil._diagonal_shear_expo(rep.pm, mask) % rep.pm.p]
    f = rep.fourier
    return (f * phase[None, :]) @ f @ f @ f


# ---------------------------------------------------------------------------
# rho(B) along a word over the generators, one element at a time


def mat_neg(a: Mat, mod: int | None = None) -> Mat:
    return tuple(tuple((-x) % mod if mod is not None else -x for x in r) for r in a)


def dilate_matrix(m_block: Mat, pm: PrimeModulus) -> Mat:
    p, n = pm.p, pm.n
    inv_t = mat_transpose(mat_inv_modp(m_block, p))
    rows = []
    for i in range(n):
        rows.append(tuple(m_block[i][j] % p for j in range(n)) + (0,) * n)
    for i in range(n):
        rows.append((0,) * n + tuple(inv_t[i][j] % p for j in range(n)))
    return tuple(rows)


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
            out = out @ shear_op(f.block, pm)
        elif f.kind == "dilate":
            out = out @ dilate_op(f.block, pm)
        else:
            if f_op is None:
                f_op = fourier_op(pm, gamma)
            out = out @ f_op
    return out


def sp_blocks(b: Mat, n: int) -> tuple[Mat, Mat, Mat, Mat]:
    """The n x n blocks (A, Bb, C, D) of b = [[A, Bb], [C, D]]."""
    top, bottom = b[:n], b[n:]
    return (tuple(r[:n] for r in top), tuple(r[n:] for r in top),
            tuple(r[:n] for r in bottom), tuple(r[n:] for r in bottom))


def _bruhat_word(a: Mat, bb: Mat, d: Mat, p: int) -> list[SpFactor]:
    """[[A, Bb], [C, D]] with Bb invertible mod p, as
    shear(-D Bb^-1) dilate(Bb) fourier shear(-Bb^-1 A); C is implied."""
    neg_binv = mat_neg(mat_inv_modp(bb, p), mod=p)
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
    a, bb, c, d = sp_blocks(key, n)
    if mat_det(bb) % p:
        word = _bruhat_word(a, bb, d, p)
    elif not any(any(row) for row in bb):
        word = [SpFactor("dilate", a)] if a != ffcore.identity_mat(n) else []
        s = mat_neg(mat_mul(mat_transpose(a), c), mod=p)
        if any(any(row) for row in s):
            word.append(SpFactor("shear", s))
    else:
        for mask in range(1, 2 ** n):
            s = tuple(tuple((mask >> i) & 1 if i == j else 0 for j in range(n))
                      for i in range(n))
            bu = mat_mul(key, word_matrix(_upper_shear_word(s), pm), mod=p)
            a2, bb2, _, d2 = sp_blocks(bu, n)
            if mat_det(bb2) % p:
                word = _bruhat_word(a2, bb2, d2, p) \
                    + _upper_shear_word(mat_neg(s, mod=p))
                break
        else:
            raise ConstructionError(f"no diagonal 0/1 S makes Bb + A S invertible for {key}")
    assert word_matrix(word, pm) == key
    return word


def egorov_deviation_loop(dense: np.ndarray, b: Mat, pm: PrimeModulus,
                          xis=None) -> float:
    """max | rho(B) T(xi) - T(B xi) rho(B) | over the xi of xis (the unit
    vectors when None), compared one xi at a time: B xi by `mat_vec`,
    each side gathered from the `pi_exponents_many` arrays in O(p^(2n))
    (`weil.egorov_deviation` compares the unit vectors in chunks)."""
    p, n = pm.p, pm.n
    if xis is None:
        xis = [tuple(1 if i == j else 0 for i in range(2 * n)) for j in range(2 * n)]
    xis = [tuple(int(c) for c in xi) for xi in xis]
    b = mat(b)
    src, expo = pi_exponents_many(xis, pm)
    bsrc, bexpo = pi_exponents_many([mat_vec(b, xi, mod=p) for xi in xis], pm)
    roots = root_table(p)
    dev = 0.0
    lhs = np.empty_like(dense)
    for k in range(len(xis)):
        lhs[:, src[k]] = dense * roots[expo[k]][None, :]    # rho(B) @ T(xi)
        rhs = roots[bexpo[k]][:, None] * dense[bsrc[k], :]  # T(B xi) @ rho(B)
        dev = max(dev, float(np.abs(lhs - rhs).max()))
    return dev


def cyclic_average_loop(a_mod: Mat, xi, order: int, v: np.ndarray,
                        pm: PrimeModulus) -> complex:
    """(1/r) sum_{k=1..r} <v|T(A^k xi)|v>, r = order, one vector, one matrix
    power and one `pi_exponents` gather at a time.  On eigenvectors of
    rho(A), Egorov makes it <v|T(xi)|v>, which is what
    `quevaluator.cyclic_vs_hecke_demo` reads."""
    p = pm.p
    acc = 0.0 + 0.0j
    power = ffcore.identity_mat(2 * pm.n)
    for _ in range(order):
        power = mat_mul(power, a_mod, mod=p)
        axk = mat_vec(power, tuple(int(c) for c in xi), mod=p)
        src, expo = pi_exponents(axk, pm)
        acc += np.vdot(v, root_table(p)[expo] * v[src])
    return complex(acc / order)


def torus_average_loop(v: np.ndarray, dec: EigenspaceDecomposition, xi) -> complex:
    """<v|Avg(T(xi))|v> = sum_chi <u_chi|T(xi)|u_chi>, u_chi = E_chi E_chi^dagger v
    the projection of v on each eigenspace in turn
    (`quevaluator.cyclic_vs_hecke_demo` reads it from <v|T(xi)|v> on the
    lines of each row)."""
    src, expo = pi_exponents(xi, dec.torus.pm)
    phase = root_table(dec.torus.pm.p)[expo]
    parts = (basis @ (basis.conj().T @ v) for _, basis, dim in dec.entries if dim)
    return complex(sum(np.vdot(u, phase * u[src]) for u in parts))


def matrix_order_modp(m: Mat, p: int) -> int:
    """Multiplicative order of M mod p, by walking its powers up to
    |Sp(2n, F_p)| (the demo reads it from the torus discrete logs)."""
    m = mat_mod(mat(m), p)
    ident = ffcore.identity_mat(len(m))
    acc = m
    for k in range(1, sp_group_order(p, len(m) // 2) + 1):
        if acc == ident:
            return k
        acc = mat_mul(acc, m, mod=p)
    raise RuntimeError("order not found within group order bound")


def relation_grid(pm: PrimeModulus) -> RelationReport:
    """T(xi)T(eta) = psi(eps*nu*omega(xi,eta)) T(xi+eta) on the whole p^(4n)
    pair grid, one xi at a time against every eta at once, O(p^(5n)) in all
    (`heisenberg.check_relations` checks the 2n p^(2n) pairs (e_i, eta)).
    eps is read on the grid from the pair (e_1, e_{n+1}), flat indices 1 and
    p^n."""
    p, n = pm.p, pm.n
    vecs = lattice_vectors(pm)
    m = len(vecs)
    lam_all, mu_all = vecs[:, :n], vecs[:, n:]
    src_all, expo_all = pi_exponents_many(vecs, pm)
    k1, k2 = 1, p ** n
    lhs = compose_exponents((src_all[k1], expo_all[k1]), (src_all[k2], expo_all[k2]), p)
    delta = int((lhs[1][0] - expo_all[k1 + k2][0]) % p)
    eps = next((c for c in (1, -1) if (c * pm.nu - delta) % p == 0), 1)
    max_dev = 0.0
    lattice_pvec = p ** np.arange(2 * n)
    for i in range(m):
        lhs = compose_exponents((src_all[i], expo_all[i]), (src_all, expo_all), p)
        tgt = ((vecs[i][None, :] + vecs) % p) @ lattice_pvec
        omega_i = (vecs[i][:n] @ mu_all.T - vecs[i][n:] @ lam_all.T) % p
        max_dev = max(max_dev, _phase_deviation(
            lhs, (src_all[tgt], expo_all[tgt]), eps * pm.nu * omega_i[:, None], p))
    return RelationReport(eps, m * m, max_dev, max_dev == 0)


def pair_check_per_role(rep, pairs, probe: np.ndarray) -> float:
    """max_dev of the probe-block pair check with one apply_many call per role
    and batch of apply_length pairs, each call factoring its own elements:
    rho(B1) (rho(B2) X) - rho(B1 B2) X (`weil.check_multiplicativity`
    factors each run of pairs once and applies B2 and B1 B2 in one call)."""
    pm = rep.pm
    d = 2 * pm.n
    step = weil.apply_length(pm, probe.shape[1])
    max_dev = 0.0
    for lo in range(0, len(pairs), step):
        triples = weil.pair_triples(pairs[lo:lo + step], pm).reshape(-1, 3, d, d)
        b1, b2, b12 = (np.ascontiguousarray(role) for role in triples.swapaxes(0, 1))
        dev = rep.apply_many(b1, rep.apply_many(b2, probe)) - rep.apply_many(b12, probe)
        max_dev = max(max_dev, float(np.abs(dev).max()))
    return max_dev


def split_trace_deviation_per_a(rep) -> float:
    """max |F(xi, diag(a, 1/a)) - closed form| one a at a time: rho(diag(a,
    1/a)) from `build_many`, one `trace_column` and one scalar-a
    `split_trace_formula` per a (`quevaluator.trace_formula_deviation` reads
    a block of operators and the general formula at once)."""
    pm = rep.pm
    p = pm.p
    lam, mu = lattice_vectors(pm).T
    diagonal = [((a, 0), (0, pow(a, -1, p))) for a in range(2, p)]
    worst = 0.0
    for a, dense in zip(range(2, p), build_many(rep, diagonal)):
        ref = trace_column(dense, pm)
        worst = max(worst, float(np.abs(split_trace_formula(lam, mu, a, pm) - ref).max()))
    return worst


def orbits_by_unique(torus: HeckeTorus):
    """(reps, row, sizes) of `PrimeContext.orbits` by sorting the orbit labels
    (`np.unique`), which the fixed points of the labels replace."""
    reps, row = np.unique(quevaluator.orbit_labels(torus), return_inverse=True)
    return reps, row, np.bincount(row)


def refined_rows_loop(ctx: PrimeContext) -> tuple[list, bool, float]:
    """(rows, generic_ok, max_nongeneric) of `quevaluator.refined_bound`, one
    character at a time from Python ints."""
    p, n = ctx.pm.p, ctx.pm.n
    half = (p - 1) // 2
    generic = ctx.generic_orbits
    nongeneric = ~generic
    nongeneric[0] = False
    mags = np.abs(ctx.sums)
    gmaxs = mags.max(axis=0, where=generic[:, None], initial=0.0)
    ngmaxs = mags.max(axis=0, where=nongeneric[:, None], initial=0.0)
    rows, generic_ok, max_nongeneric = [], True, 0.0
    for ci, chi in enumerate(ctx.chis):
        ks = tuple(ctx.transported[ci].tolist())
        eff = tuple((k + half) % (p - 1) for k in ks)
        m = sum(1 for e in eff if e == 0)
        rbound = 2 ** n * p ** ((n - m) / 2)
        gmax, ngmax = float(gmaxs[ci]), float(ngmaxs[ci])
        ok = gmax <= rbound * (1 + RTOL)
        generic_ok = generic_ok and ok
        max_nongeneric = max(max_nongeneric, ngmax)
        rows.append({"exps": chi.exps, "transported": ks, "effective": eff,
                     "m": m, "refined_bound": rbound, "generic_max": gmax,
                     "nongeneric_max": ngmax, "ok": ok})
    return rows, generic_ok, max_nongeneric


def factorization_counts_loop(ctx: PrimeContext) -> tuple[int, int, float]:
    """(matched_all, matched_generic, max_rel_err) of
    `quevaluator.factorization_check`, one character at a time against the
    per-exponent dict of one-factor tables."""
    pm = ctx.pm
    p = pm.p
    reps, _, sizes = ctx.orbits
    lam1, lam2, mu1, mu2 = transport_all(ctx.transport)[reps].T
    weight = sizes * (reps > 0)
    generic_weight = sizes * ctx.generic_orbits
    needed = sorted(set(ctx.transported.ravel().tolist()))
    factor_tab = quevaluator.diagonal_factor_tables(needed, PrimeModulus(p, 1))
    oracle_tab = {k: t.copy() for k, t in factor_tab.items()}
    for k in needed:
        oracle_tab[k][0, 0] -= p
    matched_generic = matched_all = 0
    max_rel = 0.0
    for ci, lhs in enumerate(ctx.sums.T):
        k1, k2 = ctx.transported[ci].tolist()
        rhs = factor_tab[k1][lam1, mu1] * factor_tab[k2][lam2, mu2]
        rhs_oracle = oracle_tab[k1][lam1, mu1] * oracle_tab[k2][lam2, mu2]
        scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
        rel = np.abs(lhs - rhs) / scale
        rel_oracle = np.abs(lhs - rhs_oracle) / scale
        matched_all += int(weight[rel <= RTOL].sum())
        matched_generic += int(generic_weight[rel_oracle <= RTOL].sum())
        max_rel = max(max_rel, float(rel[1:].max()))
    return matched_all, matched_generic, max_rel


def transport_all(transport: SplitTransport) -> np.ndarray:
    """S0^-1 xi mod p for every xi, row k for row k of `lattice_vectors`."""
    s0_inv = np.array(transport.s0_inv, dtype=np.int64)
    return (lattice_vectors(transport.pm) @ s0_inv.T) % transport.pm.p


def generic_mask_full(transport: SplitTransport) -> np.ndarray:
    """`SplitTransport.generic_mask` from the whole transported table."""
    return (transport_all(transport) != 0).all(axis=1)


def orbit_labels_full(torus: HeckeTorus) -> np.ndarray:
    """`quevaluator.orbit_labels` from the whole p^{2n} x 2n lattice table,
    one full image xis @ g^T mod p per generator."""
    p = torus.pm.p
    xis = lattice_vectors(torus.pm)
    labels = np.arange(len(xis))
    for g, m in torus.generators:
        step = flat_index(xis @ np.array(g, dtype=np.int64).T % p, p)
        for _ in range((m - 1).bit_length()):
            labels = np.minimum(labels, labels[step])
            step = step[step]
    return labels


def eager_violations(ctx: PrimeContext) -> tuple[list, list, list]:
    """(violations, dim1, generic) record lists of `quevaluator.verify_que_bound`
    from index arrays over every violating (xi, chi), in row-major (xi, chi)
    order, which its orbit-level `ViolationRecords` replace."""
    pm = ctx.pm
    dims = ctx.decomposition.dims
    is_dim1 = np.array([dims[i] for i in ctx.inverse_index]) == 1
    bound = 2 ** pm.n * pm.p ** (pm.n / 2)
    _, row, _ = ctx.orbits
    mags = np.abs(ctx.sums)
    viol = mags > bound + bound * RTOL
    viol[0] = False
    hot_mask = viol.any(axis=1)
    hot = np.nonzero(hot_mask)[0]
    hot_r, hot_c = np.nonzero(viol[hot])
    counts = np.bincount(hot_r, minlength=len(hot))
    ks = np.nonzero(hot_mask[row])[0]
    which = np.searchsorted(hot, row[ks])
    per = counts[which]
    first = np.cumsum(counts) - counts
    entry = np.repeat(first[which] - (np.cumsum(per) - per), per) + np.arange(per.sum())
    rec_xi, rec_chi, rec_row = np.repeat(ks, per), hot_c[entry], hot[hot_r[entry]]
    generic = (np.zeros(len(rec_row), dtype=bool) if ctx.transport is None
               else ctx.generic_orbits[rec_row])
    records = [(tuple(x), ctx.chis[c].exps, float(mags[r, c]), bound)
               for x, c, r in zip(digits(rec_xi, pm.p, 2 * pm.n).tolist(),
                                  rec_chi.tolist(), rec_row.tolist())]
    return (records, [rec for rec, keep in zip(records, is_dim1[rec_chi]) if keep],
            [rec for rec, keep in zip(records, generic) if keep])
