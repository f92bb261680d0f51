"""Trace tables, Hecke character sums, and the bound checks.

The two-variable trace function F(xi, B) = Tr(T(xi) rho(B)) is computed for
every xi mod p at once from one dense rho(B) (`trace_column`: one gather along
the shifts of T(xi), one matmul with the psi(x.y) matrix, one phase prefix),
and tabulated over the Hecke torus one column per element; `trace_pair`, the
per-value route through the generalized-permutation structure of T(xi), is
the oracle it is tested against.  Character sums

    a_chi(xi) = sum_{B in C_A} F(xi, B) chi(B)

are then single matrix products, checked against the p^{n/2}-scale bound and
its split-prime refinement, against the closed-form diagonal-torus trace, and
against direct Gauss-type sums.

A `PrimeContext` holds the torus and rho at one prime and builds the trace
table, the characters, the character sums, the eigenspace decomposition and
the split frame at most once each; every bound check, the factorization
check and the averaging demo read them from it.

Measured conventions worth knowing when reading this module (all certified by
the test suite, none assumed):

* the exceptional torus character is the unique character of order 2: its
  eigenspace is 0-dimensional at nonsplit primes and 2-dimensional at split
  primes (every other character, the trivial one included, has a line);
* at split primes the order-2 character sums hit exactly +-(p - 2) on the
  2(p-1) "axis" vectors xi (those whose split-frame coordinates have a zero
  entry), exceeding 2 sqrt(p) once p >= 11 -- the headline bound is only
  attainable for characters with a one-dimensional eigenspace (equivalently,
  on the generic stratum for the order-2 character), and the reports separate
  these populations;
* the closed-form diagonal trace carries orientation sign -1 under this
  module's coordinate conventions (sign measured at runtime, never assumed).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import ffcore, hecke, weil
from .classical import ErgodicElement
from .ffcore import Mat, PrimeModulus, legendre, mat, mat_mod, mat_mul
from .heisenberg import (FourierPolynomial, index_vectors, lattice_vectors,
                         pi_exponents, pi_op, quantize, root_table)
from .hecke import HeckeTorus, TorusCharacter


# ---------------------------------------------------------------------------
# trace function and table


def trace_pair(xi, rho_dense: np.ndarray, pm: PrimeModulus) -> complex:
    """F(xi, B) = Tr(T(xi) rho(B)), one gather and one dot product."""
    src, expo = pi_exponents(xi, pm)
    phases = root_table(pm.p)[expo % pm.p]
    return complex((phases * rho_dense[src, np.arange(pm.dim)]).sum())


def _trace_kernel(pm: PrimeModulus) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-modulus tables of `trace_column`, indexed [lam, x] and [lam, mu].

    rows[lam, x] = flat(x + lam), psi_dot[x, y] = psi(x.y) and
    prefix[lam, mu] = psi(nu lam.mu).  Built per caller and not cached, for
    the reason `heisenberg.lattice_vectors` gives.
    """
    p = pm.p
    pts = index_vectors(pm)
    rows = ((pts[:, None, :] + pts[None, :, :]) % p) @ (p ** np.arange(pm.n))
    dots = (pts @ pts.T) % p
    psi = root_table(p)
    return rows, psi[dots], psi[(pm.nu * dots) % p]


def _trace_column(rho_dense: np.ndarray, kernel) -> np.ndarray:
    rows, psi_dot, prefix = kernel
    g = rho_dense[rows, np.arange(len(rows))]
    # [lam, mu] transposed to [mu, lam] and read row-major: lam + p^n mu
    return (prefix * (g @ psi_dot)).T.reshape(-1)


def trace_column(rho_dense: np.ndarray, pm: PrimeModulus) -> np.ndarray:
    """F(xi, B) for every xi mod p, in flat order lam + p^n mu, from rho(B).

    F((lam, mu), B) = psi(nu lam.mu) sum_x psi(mu.x) rho(B)[x + lam, x]: one
    gather G[lam, x] = rho(B)[x + lam, x], one matmul with the psi(x.y)
    matrix, one psi(nu lam.mu) prefix.  `trace_pair` is the per-value oracle.
    """
    return _trace_column(rho_dense, _trace_kernel(pm))


@dataclass
class TraceTable:
    """F[flat(xi), b] over all xi in (Z/p)^{2n} and the torus element list.

    flat(xi) = sum_j lam_j p^j + p^n * sum_j mu_j p^j, matching the lattice
    enumeration used everywhere else.
    """

    pm: PrimeModulus
    torus: HeckeTorus
    values: np.ndarray  # (p^{2n}, |T|) complex

    def value(self, xi, b: Mat) -> complex:
        return complex(self.values[flatten_xi(xi, self.pm), self.torus.index_of(b)])


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


def build_trace_table(torus: HeckeTorus, rep) -> TraceTable:
    """Tabulate F for every (xi, B): one trace column per torus element."""
    pm = torus.pm
    kernel = _trace_kernel(pm)
    table = np.empty((pm.dim ** 2, torus.order), dtype=complex)
    for bi, b in enumerate(torus.elements):
        table[:, bi] = _trace_column(rep.op(b), kernel)
    return TraceTable(pm, torus, table)


def character_sum(xi, chi: TorusCharacter, table: TraceTable) -> complex:
    vals = chi.values_vector(table.torus)
    return complex(table.values[flatten_xi(xi, table.pm)] @ vals)


def character_sum_table(table: TraceTable) -> np.ndarray:
    """a[flat(xi), chi_index] for all xi and all characters at once."""
    chivals = hecke.character_table(table.torus)   # (K, N)
    return table.values @ chivals.T


def check_invariance(xi, b: Mat, s: Mat, rep, pm: PrimeModulus) -> float:
    """|F(xi, B) - F(S xi, S B S^-1)|; exact symmetry of the trace function."""
    p = pm.p
    s = mat_mod(mat(s), p)
    b = mat_mod(mat(b), p)
    s_inv = ffcore.mat_inv_modp(s, p)
    sbs = mat_mul(mat_mul(s, b, mod=p), s_inv, mod=p)
    sxi = ffcore.mat_vec(s, tuple(int(c) for c in xi), mod=p)
    lhs = trace_pair(xi, rep.op(b), pm)
    rhs = trace_pair(sxi, rep.op(sbs), pm)
    return abs(lhs - rhs)


def hermitian_symmetry_dev(xi, b: Mat, rep, pm: PrimeModulus) -> float:
    """|F(-xi, B^-1) - conj(F(xi, B))|; the measured relation phase is 1."""
    p = pm.p
    b = mat_mod(mat(b), p)
    b_inv = ffcore.mat_inv_modp(b, p)
    neg = tuple((-int(c)) % p for c in xi)
    return abs(trace_pair(neg, rep.op(b_inv), pm) - np.conj(trace_pair(xi, rep.op(b), pm)))


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

    def transport_xi(self, xi) -> tuple[int, ...]:
        return ffcore.mat_vec(self.s0_inv, tuple(int(c) for c in xi), mod=self.pm.p)

    def factor_coordinates(self, xi) -> list[tuple[int, int]]:
        eta = self.transport_xi(xi)
        n = self.pm.n
        return [(eta[j], eta[n + j]) for j in range(n)]

    def is_generic(self, xi) -> bool:
        return all(l != 0 and m != 0 for l, m in self.factor_coordinates(xi))

    def transport_all(self) -> np.ndarray:
        """S0^-1 xi mod p for every xi at once; row k transports unflatten_xi(k)."""
        s0_inv = np.array(self.s0_inv, dtype=np.int64)
        return (lattice_vectors(self.pm) @ s0_inv.T) % self.pm.p

    def generic_mask(self) -> np.ndarray:
        """is_generic for every flat xi: no split-frame coordinate vanishes."""
        return (self.transport_all() != 0).all(axis=1)

    def transport_char(self, chi: TorusCharacter, torus: HeckeTorus) -> tuple[int, ...]:
        """Per-factor exponents k_j with chi(S0 t(e_j(g)) S0^-1) = e(k_j/(p-1))."""
        p, n = self.pm.p, self.pm.n
        g = ffcore.primitive_root(p)
        out = []
        for j in range(n):
            avec = [1] * n
            avec[j] = g
            b = self.std_elem(avec)
            t = chi.value_fraction(torus.dlog[b])
            k = t * (p - 1)
            if k.denominator != 1:
                raise RuntimeError("transported character exponent is not integral")
            out.append(int(k) % (p - 1))
        return tuple(out)


def build_split_transport(elem_matrix: Mat, pm: PrimeModulus,
                          charpoly=None) -> SplitTransport:
    """Pair the 2n rational eigenvalues reciprocally and build the conjugator.

    Requires P_A to split into distinct linear factors mod p.  Eigenvectors of
    reciprocal eigenvalues pair nondegenerately under the symplectic form; the
    second of each pair is rescaled so the pairing is 1, which makes the
    column matrix symplectic.
    """
    p, n = pm.p, pm.n
    a = mat_mod(mat(elem_matrix), p)
    if charpoly is None:
        charpoly = ffcore.char_poly(a)
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
    eig = {}
    ident = ffcore.identity_mat(2 * n)
    for r in used:
        shifted = tuple(tuple((a[i][j] - (r if i == j else 0)) % p
                              for j in range(2 * n)) for i in range(2 * n))
        eig[r] = ffcore.nullspace_vector_modp(shifted, p)
    cols = []
    alphas = []
    for r, rinv in pairs:
        v, w = eig[r], eig[rinv]
        pairing = ffcore.symplectic_form(v, w, mod=p)
        if pairing == 0:
            raise RuntimeError("degenerate symplectic pairing of eigenvectors")
        w = tuple((x * pow(pairing, -1, p)) % p for x in w)
        eig[rinv] = w
        alphas.append(r)
    for r, _ in pairs:
        cols.append(eig[r])
    for _, rinv in pairs:
        cols.append(eig[rinv])
    s0 = tuple(tuple(cols[j][i] for j in range(2 * n)) for i in range(2 * n))
    if not ffcore.is_symplectic(s0, p=p):
        raise RuntimeError("eigenvector frame is not symplectic")
    st = SplitTransport(pm, s0, ffcore.mat_inv_modp(s0, p), tuple(alphas))
    if st.std_elem([(alpha) for alpha in alphas]) != a:
        raise RuntimeError("conjugation does not recover the element")
    return st


# ---------------------------------------------------------------------------
# everything the checks read at one prime


@dataclass
class PrimeContext:
    """The Hecke torus of elem, rho, and what is derived from them, at one prime.

    Each derived part is built on first use and then shared by every check:
    the trace table, the characters, the character sums a_chi(xi), the
    eigenspace decomposition and, at split primes, the split frame
    (`transport` is None elsewhere).  A context made directly from a torus
    and any rho (a twisted one, say) derives its parts from that rho.
    """

    elem: ErgodicElement
    torus: HeckeTorus
    rep: weil.WeilRep

    @classmethod
    def build(cls, elem: ErgodicElement, pm: PrimeModulus) -> "PrimeContext":
        """Centralizer torus of elem mod p and the canonical rho."""
        torus = hecke.centralizer(elem.matrix, pm, elem.charpoly)
        return cls(elem, torus, weil.linearize(pm))

    @property
    def pm(self) -> PrimeModulus:
        return self.torus.pm

    @cached_property
    def table(self) -> TraceTable:
        return build_trace_table(self.torus, self.rep)

    @cached_property
    def chis(self) -> list[TorusCharacter]:
        return hecke.characters(self.torus)

    @cached_property
    def sums(self) -> np.ndarray:
        """a[flat(xi), chi_index], aligned with `chis`."""
        return character_sum_table(self.table)

    @cached_property
    def decomposition(self) -> hecke.EigenspaceDecomposition:
        return hecke.decompose(self.torus, self.rep)

    @cached_property
    def transport(self) -> SplitTransport | None:
        if self.torus.split_type != "split":
            return None
        return build_split_transport(self.elem.matrix, self.pm, self.elem.charpoly)


# ---------------------------------------------------------------------------
# closed-form diagonal trace and Gauss-sum oracles


def split_trace_formula(lam, mu, a: int, pm: PrimeModulus,
                        sign: int = -1) -> complex | np.ndarray:
    """sigma(a) psi(sign * (lam mu / 2) (1+a)/(1-a)) for diag(a, 1/a), a not in {0, 1}.

    lam and mu are integers (a complex is returned) or integer arrays (an
    array of their broadcast shape is returned).
    """
    if pm.n != 1:
        raise ValueError("closed form is the n = 1 building block")
    p = pm.p
    a %= p
    if a in (0, 1):
        raise ValueError("a must avoid 0 and 1 (identity excluded from the torus)")
    c = (sign * pm.nu * (1 + a) * pow((1 - a) % p, -1, p)) % p
    t = (c * (np.asarray(lam) % p) % p) * (np.asarray(mu) % p) % p
    vals = legendre(a, p) * np.exp(1j * (2 * np.pi * t / p))
    return complex(vals) if vals.ndim == 0 else vals


def measure_split_sign(pm: PrimeModulus, rep) -> int:
    """Pick the orientation sign by one discriminating matrix trace.

    At p = 3 the torus leaves only a = -1, where the phase vanishes and both
    signs define the same formula; the default -1 is returned after checking
    agreement on every available sample.
    """
    p = pm.p
    for a in range(2, p):
        t = (pm.nu * (1 + a) * pow((1 - a) % p, -1, p)) % p
        if t == 0 or (2 * t) % p == 0:
            continue  # both signs agree here; useless sample
        b = ((a, 0), (0, pow(a, -1, p)))
        ref = trace_pair((1, 1), rep.op(b), pm)
        for sign in (-1, 1):
            if abs(split_trace_formula(1, 1, a, pm, sign) - ref) < 1e-9:
                return sign
        raise RuntimeError("neither orientation sign matches the matrix trace")
    for a in range(2, p):
        b = ((a, 0), (0, pow(a, -1, p)))
        ref = trace_pair((1, 1), rep.op(b), pm)
        if abs(split_trace_formula(1, 1, a, pm, -1) - ref) > 1e-9:
            raise RuntimeError("orientation-free sample disagrees with trace")
    return -1


def diagonal_factor_sum(lam: int, mu: int, k: int, pm: PrimeModulus,
                        sign: int, dlog=None) -> complex:
    """Full n = 1 torus sum sum_{a in F_p^x} F((lam, mu), diag(a, 1/a)) chi'(a).

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
        acc += split_trace_formula(lam, mu, a, pm, sign) * chi_val
    return complex(acc)


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


# ---------------------------------------------------------------------------
# bound verification


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
    violations: list               # [(xi, chi_exps, |a|, bound), ...]
    dim1_violations: list
    generic_violations: list       # split primes: generic-stratum violations
    exceptional_order2: dict       # observed order-2 character data
    parseval_max_dev: float
    xi0_oracle_max_dev: float
    eigvec_rigorous_max: float     # max |<v|T(xi)v>| * |T| / (2^n p^{n/2}), dim-1
    eigvec_nominal_exceeded: bool  # did |<v|T(xi)v>| exceed 2^n p^{-n/2}?
    averaged_rows: list            # fixture-polynomial averaged checks
    ok: bool                       # verdict over all characters: no violations
    ok_dim1: bool                  # verdict restricted to dim-1 characters

    def to_dict(self) -> dict:
        return {
            "p": self.p, "n": self.n, "split_type": self.split_type,
            "torus_order": self.torus_order,
            "bound_constant": self.bound_constant, "bound": self.bound,
            "max_ratio": self.max_ratio, "max_ratio_dim1": self.max_ratio_dim1,
            "violations": self.violations[:64],
            "dim1_violations": self.dim1_violations[:64],
            "generic_violations": self.generic_violations[:64],
            "exceptional_order2": self.exceptional_order2,
            "parseval_max_dev": self.parseval_max_dev,
            "xi0_oracle_max_dev": self.xi0_oracle_max_dev,
            "eigvec_rigorous_max": self.eigvec_rigorous_max,
            "eigvec_nominal_exceeded": self.eigvec_nominal_exceeded,
            "averaged_rows": self.averaged_rows,
            "ok": self.ok, "ok_dim1": self.ok_dim1,
        }


def verify_que_bound(ctx: PrimeContext,
                     fixtures: list[FourierPolynomial] | None = None,
                     rtol: float = 1e-6) -> BoundReport:
    """Check |a_chi(xi)| <= 2^n p^{n/2} for xi != 0 mod p, with cross-checks.

    Populations are reported separately: the verdict over all characters, the
    verdict over characters with one-dimensional eigenspaces (the regime the
    eigenvector derivation of the bound actually covers), and at split primes
    the generic stratum of the order-2 character.
    """
    pm, torus, chis = ctx.pm, ctx.torus, ctx.chis
    p, n = pm.p, pm.n
    # the decomposition first: its |T| stacked operators are freed before the
    # trace table and the sums exist, which keeps them out of the peak RSS
    dims = ctx.decomposition.dims
    achi = ctx.sums                                # (p^{2n}, K)
    bound = 2 ** n * p ** (n / 2)
    tol_abs = bound * rtol

    # column chi of achi belongs to H_{chi^-1} (see the xi = 0 oracle below)
    col = {chi.exps: i for i, chi in enumerate(chis)}
    inv_idx = [col[chi.inverse().exps] for chi in chis]
    dim1_cols = [i for i in range(len(chis)) if dims[inv_idx[i]] == 1]
    order2_idx = next((i for i, c in enumerate(chis) if c.order == 2), None)

    generic = None if ctx.transport is None else ctx.transport.generic_mask()

    mags = np.abs(achi)
    nz = mags[1:]                                     # a view: xi != 0
    is_dim1 = np.zeros(len(chis), dtype=bool)
    is_dim1[dim1_cols] = True
    xis = lattice_vectors(pm)                         # row k = unflatten_xi(k)
    violations = []
    dim1_violations = []
    generic_violations = []
    # row-major over (xi != 0, chi), as a per-xi scan would visit them
    ks, cis = np.nonzero(nz > bound + tol_abs)
    ks += 1
    for k, ci in zip(ks.tolist(), cis.tolist()):
        rec = (tuple(xis[k].tolist()), chis[ci].exps, float(mags[k, ci]), bound)
        violations.append(rec)
        if is_dim1[ci]:
            dim1_violations.append(rec)
        if generic is not None and generic[k]:
            generic_violations.append(rec)
    max_ratio = float(nz.max() / p ** (n / 2))
    max_ratio_dim1 = float(nz[:, dim1_cols].max() / p ** (n / 2)) \
        if dim1_cols else 0.0

    # Parseval per xi: sum_chi |a_chi|^2 = |T| sum_B |F|^2
    lhs = (mags ** 2).sum(axis=1)
    rhs = torus.order * (np.abs(ctx.table.values) ** 2).sum(axis=1)
    scale = np.maximum(rhs, 1.0)
    parseval_max_dev = float(np.abs(lhs - rhs).max() / scale.max())

    # xi = 0 oracle: a_chi(0) = |T| * dim H_{chi^-1}
    xi0 = achi[0]
    xi0_dev = 0.0
    for i in range(len(chis)):
        xi0_dev = max(xi0_dev, abs(xi0[i] - torus.order * dims[inv_idx[i]]))
    # eigenvector form: v spanning a 1-dim H_chi gives
    # <v|T(xi)|v> = a_{chi^-1}(xi)/|T|, read from column chi^-1 (in dim1_cols)
    eig_max = 0.0
    nominal_exceeded = False
    for i in dim1_cols:
        vals = nz[:, i] / torus.order
        eig_max = max(eig_max, float(vals.max()) * torus.order / bound)
        if vals.max() > 2 ** n * p ** (-n / 2) * (1 + rtol):
            nominal_exceeded = True

    exceptional = {}
    if order2_idx is not None:
        exceptional = {
            "exps": chis[order2_idx].exps,
            "dim": dims[order2_idx],
            "max_abs_sum": float(nz[:, order2_idx].max()),
            "expected_axis_value": p ** n - 2 if torus.split_type == "split" else None,
        }

    averaged_rows = []
    if fixtures:
        averaged_rows = _averaged_fixture_checks(fixtures, ctx, rtol)

    return BoundReport(
        p=p, n=n, split_type=torus.split_type, torus_order=torus.order,
        bound_constant=2.0 ** n, bound=bound,
        max_ratio=max_ratio, max_ratio_dim1=max_ratio_dim1,
        violations=violations, dim1_violations=dim1_violations,
        generic_violations=generic_violations,
        exceptional_order2=exceptional,
        parseval_max_dev=parseval_max_dev,
        xi0_oracle_max_dev=float(xi0_dev),
        eigvec_rigorous_max=eig_max,
        eigvec_nominal_exceeded=nominal_exceeded,
        averaged_rows=averaged_rows,
        ok=not violations,
        ok_dim1=not dim1_violations,
    )


def _averaged_fixture_checks(fixtures, ctx: PrimeContext, rtol):
    """Triangle-inequality bound for trigonometric-polynomial observables.

    For each dim-1 Hecke eigenvector v: |<v|Avg(Op_f)|v> - integral(f)| is
    bounded by (sum_{xi != 0} |a_xi(f)|) * 2^n p^{n/2} / |T|, using the exact
    torus order (the nominal p^{-n/2} form, which presumes |T| = p^n, is
    reported as a flag instead of asserted).
    """
    from .heisenberg import integral as f_integral
    torus, pm = ctx.torus, ctx.pm
    rows = []
    n, p = pm.n, pm.p
    for fi, f in enumerate(fixtures):
        op = quantize(f, pm)
        avg = np.zeros_like(op)
        for b in torus.elements:
            r = ctx.rep.op(b)
            avg += r @ op @ r.conj().T
        avg /= torus.order
        coeff_l1 = sum(abs(a) for xi, a in f.terms.items() if any(c % p for c in xi))
        rigorous = coeff_l1 * 2 ** n * p ** (n / 2) / torus.order
        nominal = coeff_l1 * 2 ** n * p ** (-n / 2)
        worst = 0.0
        for chi, basis, dim in ctx.decomposition.entries:
            if dim != 1:
                continue
            v = basis[:, 0]
            dev = abs(np.vdot(v, avg @ v) - f_integral(f))
            worst = max(worst, float(dev))
        rows.append({"fixture": fi, "max_dev": worst,
                     "rigorous_bound": rigorous, "nominal_bound": nominal,
                     "ok_rigorous": worst <= rigorous * (1 + rtol),
                     "ok_nominal": worst <= nominal * (1 + rtol)})
    return rows


# ---------------------------------------------------------------------------
# split-prime refinement


@dataclass
class RefinedReport:
    p: int
    rows: list            # per character: exps, transported, effective, m, bounds
    generic_ok: bool
    max_nongeneric: float
    applicable: bool


def refined_bound(ctx: PrimeContext, rtol: float = 1e-6) -> RefinedReport:
    """Split-prime refinement: m(chi) counts factors whose effective
    multiplicative character (quadratic symbol times transported component)
    is trivial; generic xi must then satisfy |a_chi| <= 2^n p^{(n-m)/2}.

    Non-generic xi are outside the refinement's stratum; their maxima are
    recorded without assertion.  Nonsplit primes return applicable=False.
    """
    torus, transport = ctx.torus, ctx.transport
    p, n = ctx.pm.p, ctx.pm.n
    if transport is None:
        return RefinedReport(p, [], True, 0.0, False)
    mags = np.abs(ctx.sums)
    half = (p - 1) // 2
    generic_mask = transport.generic_mask()
    nongeneric_mask = ~generic_mask
    nongeneric_mask[0] = False

    rows = []
    generic_ok = True
    max_nongeneric = 0.0
    for ci, chi in enumerate(ctx.chis):
        ks = transport.transport_char(chi, torus)
        eff = tuple((k + half) % (p - 1) for k in ks)
        m = sum(1 for e in eff if e == 0)
        rbound = 2 ** n * p ** ((n - m) / 2)
        gmax = float(mags[generic_mask, ci].max()) if generic_mask.any() else 0.0
        ngmax = float(mags[nongeneric_mask, ci].max()) if nongeneric_mask.any() else 0.0
        ok = gmax <= rbound * (1 + rtol)
        generic_ok = generic_ok and ok
        max_nongeneric = max(max_nongeneric, ngmax)
        rows.append({"exps": chi.exps, "transported": ks, "effective": eff,
                     "m": m, "refined_bound": rbound, "generic_max": gmax,
                     "nongeneric_max": ngmax, "ok": ok})
    return RefinedReport(p, rows, generic_ok, max_nongeneric, True)


# ---------------------------------------------------------------------------
# factorization over split tori (n = 2)


@dataclass
class FactorizationReport:
    p: int
    pairs_total: int
    generic_pairs: int
    matched_generic: int         # |lhs - rhs| <= rtol within the generic set
    matched_all_reconciled: int  # with a = 1 boundary terms included
    max_rel_err: float
    ok: bool


def factorization_check(ctx: PrimeContext,
                        rtol: float = 1e-6) -> FactorizationReport:
    """a_chi factorizes into n = 1 diagonal-torus sums at fully split primes.

    ctx.rep must be the canonical rho (weil.linearize), as PrimeContext.build
    makes it.  Because rho is a representation, rho(S0 t S0^-1) =
    rho(S0) dilate(t) rho(S0)^-1 for the split frame S0 and every diagonal t,
    so the per-character transport to the diagonal frame is exact and needs
    no root choice.  Both routes are
    compared on every (xi != 0, chi) pair, fully vectorized.
    """
    pm, torus = ctx.pm, ctx.torus
    if pm.n != 2:
        raise ValueError("factorization check targets the 4-dimensional case")
    p, n = pm.p, pm.n
    transport = ctx.transport
    if transport is None:
        raise ValueError(f"p = {p} is not fully split for this element")
    achi, chis = ctx.sums, ctx.chis
    pm1 = PrimeModulus(p, 1)
    sign = measure_split_sign(pm1, weil.linearize(pm1))
    _, dlog = ffcore.dlog_table(p)

    # transported coordinates of every xi at once
    m_xi = p ** (2 * n)
    lam1, lam2, mu1, mu2 = transport.transport_all().T
    generic = transport.generic_mask()

    # per-exponent p x p tables of the one-factor sums
    needed = sorted({k for chi in chis
                     for k in transport.transport_char(chi, torus)})
    factor_tab = {}
    for k in needed:
        tab = np.empty((p, p), dtype=complex)
        for lam in range(p):
            for mu in range(p):
                tab[lam, mu] = diagonal_factor_sum(lam, mu, k, pm1, sign, dlog)
        factor_tab[k] = tab
    # same tables with the a = 1 boundary term removed (pure oracle route)
    oracle_tab = {k: t.copy() for k, t in factor_tab.items()}
    for k in needed:
        oracle_tab[k][0, 0] -= p

    nonzero = np.ones(m_xi, dtype=bool)
    nonzero[0] = False
    pairs_total = 0
    generic_pairs = 0
    matched_generic = 0
    matched_all = 0
    max_rel = 0.0
    for ci, chi in enumerate(chis):
        k1, k2 = transport.transport_char(chi, torus)
        rhs = factor_tab[k1][lam1, mu1] * factor_tab[k2][lam2, mu2]
        rhs_oracle = oracle_tab[k1][lam1, mu1] * oracle_tab[k2][lam2, mu2]
        lhs = achi[:, ci]
        scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
        rel = np.abs(lhs - rhs) / scale
        rel_oracle = np.abs(lhs - rhs_oracle) / scale
        pairs_total += int(nonzero.sum())
        matched_all += int((rel[nonzero] <= rtol).sum())
        generic_pairs += int(generic.sum())
        matched_generic += int((rel_oracle[generic] <= rtol).sum())
        max_rel = max(max_rel, float(rel[nonzero].max()))
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


def cyclic_vs_hecke_demo(ctx: PrimeContext, xi=None,
                         rtol: float = 1e-6) -> tuple[list[DemoRow], dict]:
    """Tabulate time-average vs torus-average matrix elements per eigenvector.

    On a torus eigenvector the two columns agree identically (the matrix
    element is constant along each torus orbit of xi), so the table also
    includes balanced superpositions inside degenerate eigenspaces of the
    quantized map: there the time average keeps cross terms that the full
    torus average kills, which is the whole point of the refinement.  Only
    the torus column carries an assertion (the p^{n/2}-scale bound with the
    exact torus order); the cyclic column is informational.
    """
    from .classical import matrix_order_modp
    pm, torus = ctx.pm, ctx.torus
    p, n = pm.p, pm.n
    if xi is None:
        xi = (1,) + (0,) * (2 * n - 1)
    r_ord = matrix_order_modp(ctx.elem.matrix, p)
    a_mod = mat_mod(mat(ctx.elem.matrix), p)

    def cyclic_average(v):
        acc = 0.0 + 0.0j
        power = ffcore.identity_mat(2 * n)
        for _ in range(r_ord):
            power = mat_mul(power, a_mod, mod=p)
            axk = ffcore.mat_vec(power, tuple(int(c) for c in xi), mod=p)
            acc += np.vdot(v, pi_op(axk, pm).apply_left(
                v.reshape(-1, 1)).reshape(-1))
        return complex(acc / r_ord)

    avg_op = hecke.hecke_average(xi, torus, ctx.rep)
    bound = 2 ** n * p ** (n / 2) / torus.order
    rows = []
    dim1 = [(chi, basis[:, 0]) for chi, basis, dim in ctx.decomposition.entries
            if dim == 1]
    for chi, v in dim1:
        cyc = cyclic_average(v)
        hk = complex(np.vdot(v, avg_op @ v))
        rows.append(DemoRow(f"chi={chi.exps}", cyc, hk, 0.0,
                            abs(hk) <= bound * (1 + rtol)))

    # superpositions of eigenvectors sharing the eigenvalue chi(A): these are
    # still eigenvectors of the quantized map but not of the whole torus
    max_column_gap = 0.0
    by_a_value = {}
    for chi, v in dim1:
        key = complex(np.round(chi.value(torus, a_mod), 9))
        by_a_value.setdefault(key, []).append((chi, v))
    for group in by_a_value.values():
        if len(group) < 2:
            continue
        (c1, v1), (c2, v2) = group[0], group[1]
        v = (v1 + v2) / np.sqrt(2)
        cyc = cyclic_average(v)
        hk = complex(np.vdot(v, avg_op @ v))
        max_column_gap = max(max_column_gap, abs(cyc - hk))
        rows.append(DemoRow(f"mix chi={c1.exps}+{c2.exps}", cyc, hk, 0.0, True))

    meta = {"cyclic_order": r_ord, "torus_order": torus.order,
            "cyclic_equals_torus": r_ord == torus.order,
            "bound": bound, "max_column_gap": max_column_gap}
    return rows, meta
