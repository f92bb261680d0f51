"""Quantized torus algebra at Planck parameter 1/p.

The quantum space is H = functions F_p^n -> C, dimension d = p^n, with points
of F_p^n flattened to indices 0..d-1 in base p (least significant digit
first).  The basic operators are

    (T(lam, mu) f)(x) = psi(nu*lam.mu + mu.x) * f(x + lam),

where psi(t) = exp(2*pi*i*t/p) and nu = (p+1)/2 is the inverse of 2 mod p.
Each T(xi) is a generalized permutation: one unimodular entry per row and
column, with phase exponents that are exact integers mod p.  Compositions and
traces are done on the integer exponents, so the defining relation

    T(xi) T(eta) = psi(eps * nu * omega(xi, eta)) * T(xi + eta)

can be checked without floating-point accumulation (eps is the orientation
sign of the symplectic form, measured rather than assumed).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ffcore import PrimeModulus, symplectic_form


# moduli whose tables stay cached; a sweep visits a few dozen primes
_CACHED_MODULI = 64


@lru_cache(maxsize=_CACHED_MODULI)
def root_table(p: int) -> np.ndarray:
    """exp(2*pi*i*k/p) for k = 0..p-1, computed once per modulus (read-only)."""
    out = np.exp(2j * np.pi * np.arange(p) / p)
    out.setflags(write=False)
    return out


def _digit_vectors(p: int, k: int) -> np.ndarray:
    """Array of shape (p^k, k): row i is the base-p digit vector of i,
    least significant digit first."""
    idx = np.arange(p ** k)
    return np.stack([(idx // p ** j) % p for j in range(k)], axis=1)


@lru_cache(maxsize=_CACHED_MODULI)
def index_vectors(pm: PrimeModulus) -> np.ndarray:
    """Array of shape (p^n, n): row i is the base-p digit vector of i (read-only)."""
    out = _digit_vectors(pm.p, pm.n)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PhasedPermutation:
    """Operator (M f)[i] = scalar * psi(expo[i]) * f[src[i]].

    src is a permutation of 0..d-1 and expo holds integer exponents mod p;
    scalar is a single unimodular complex factor (sign/normalization).
    """

    pm: PrimeModulus
    src: np.ndarray
    expo: np.ndarray
    scalar: complex = 1.0

    @property
    def dim(self) -> int:
        return self.pm.dim

    def dense(self) -> np.ndarray:
        d = self.dim
        out = np.zeros((d, d), dtype=complex)
        out[np.arange(d), self.src] = self.scalar * root_table(self.pm.p)[self.expo % self.pm.p]
        return out

    def compose(self, other: "PhasedPermutation") -> "PhasedPermutation":
        """self @ other."""
        src = other.src[self.src]
        expo = (self.expo + other.expo[self.src]) % self.pm.p
        return PhasedPermutation(self.pm, src, expo, self.scalar * other.scalar)

    def adjoint(self) -> "PhasedPermutation":
        inv = np.argsort(self.src)
        return PhasedPermutation(self.pm, inv, (-self.expo[inv]) % self.pm.p,
                                 np.conj(self.scalar))

    def power(self, e: int) -> "PhasedPermutation":
        out = identity_op(self.pm)
        base = self
        if e < 0:
            base, e = self.adjoint(), -e
        while e:
            if e & 1:
                out = out.compose(base)
            base = base.compose(base)
            e >>= 1
        return out

    def trace(self) -> complex:
        fixed = self.src == np.arange(self.dim)
        if not fixed.any():
            return 0.0 + 0.0j
        return self.scalar * root_table(self.pm.p)[self.expo[fixed] % self.pm.p].sum()

    def apply_left(self, dense: np.ndarray) -> np.ndarray:
        """self @ dense, in O(d^2)."""
        phase = self.scalar * root_table(self.pm.p)[self.expo % self.pm.p]
        return phase[:, None] * dense[self.src, :]

    def apply_right(self, dense: np.ndarray) -> np.ndarray:
        """dense @ self, in O(d^2)."""
        phase = self.scalar * root_table(self.pm.p)[self.expo % self.pm.p]
        out = np.empty_like(dense, dtype=complex)
        out[:, self.src] = dense * phase[None, :]
        return out

    def equals(self, other: "PhasedPermutation", tol: float = 0.0) -> bool:
        if not np.array_equal(self.src, other.src):
            return False
        if tol == 0.0 and np.isclose(self.scalar, other.scalar, atol=1e-15):
            return bool(np.all((self.expo - other.expo) % self.pm.p == 0))
        return bool(np.max(np.abs(self.dense() - other.dense())) <= tol)


def identity_op(pm: PrimeModulus) -> PhasedPermutation:
    d = pm.dim
    return PhasedPermutation(pm, np.arange(d), np.zeros(d, dtype=np.int64))


def pi_exponents(xi, pm: PrimeModulus) -> tuple[np.ndarray, np.ndarray]:
    """(src, expo) data of T(xi) with xi = (lam, mu) reduced mod p."""
    if len(xi) != 2 * pm.n:
        raise ValueError(f"expected a lattice vector of length {2 * pm.n}")
    src, expo = pi_exponents_many(np.array([[int(c) for c in xi]]), pm)
    return src[0], expo[0]


def pi_exponents_many(xis, pm: PrimeModulus) -> tuple[np.ndarray, np.ndarray]:
    """(src, expo) data of T(xi) for every row xi of an (m, 2n) integer array:
    two (m, p^n) arrays, row k for xi_k, in exact integer arithmetic."""
    p, n = pm.p, pm.n
    xis = np.asarray(xis, dtype=np.int64) % p
    lam, mu = xis[:, :n], xis[:, n:]
    pts = index_vectors(pm)
    src = ((pts[None, :, :] + lam[:, None, :]) % p) @ (p ** np.arange(n))
    lm = (lam * mu).sum(axis=1)
    expo = (pm.nu * lm[:, None] + mu @ pts.T) % p
    return src.astype(np.intp), expo


def pi_op(xi, pm: PrimeModulus) -> PhasedPermutation:
    """Quantized lattice character: unitary of order p, built from exact phases."""
    src, expo = pi_exponents(xi, pm)
    return PhasedPermutation(pm, src, expo)


# ---------------------------------------------------------------------------
# defining relation, checked exhaustively on exponents


@dataclass
class RelationReport:
    epsilon: int
    pairs_checked: int
    max_dev: float
    ok: bool


def lattice_vectors(pm: PrimeModulus) -> np.ndarray:
    """Array of shape (p^{2n}, 2n): row k is the lattice vector xi of flat index k.

    Not cached, unlike index_vectors: a p^{2n}-row table created mid-sweep
    and kept alive pins the freed heap below it (measured: +35 MB peak RSS
    on the n = 2, p = 7..13 sweep).
    """
    return _digit_vectors(pm.p, 2 * pm.n)


def check_relations(pm: PrimeModulus, tol: float = 1e-10,
                    exhaustive: bool = True) -> RelationReport:
    """Pair check of T(xi)T(eta) = psi(eps*nu*omega(xi,eta)) T(xi+eta).

    The orientation sign eps is measured from the data (it is a convention
    artifact of the form) on the pair xi = e_1, eta = e_{n+1}, where
    omega = 1.  With exhaustive=False only that pair is checked
    (pairs_checked == 1), which is all it takes to read eps.  Otherwise the
    whole p^{4n} pair grid is validated by exact exponent arithmetic,
    vectorized per xi.
    """
    p, n = pm.p, pm.n
    xi = (1,) + (0,) * (2 * n - 1)
    eta = (0,) * n + (1,) + (0,) * (n - 1)
    w = symplectic_form(xi, eta, mod=p)
    lhs = pi_op(xi, pm).compose(pi_op(eta, pm))
    target = pi_op(tuple(a + b for a, b in zip(xi, eta)), pm)
    delta = int((lhs.expo[0] - target.expo[0]) % p)
    eps = next((c for c in (1, -1) if (c * pm.nu * w - delta) % p == 0), 1)
    if not exhaustive:
        if not np.array_equal(lhs.src, target.src):
            return RelationReport(eps, 1, np.inf, False)
        roots = root_table(p)
        rhs_expo = (target.expo + eps * pm.nu * w) % p
        dev = float(np.abs(roots[lhs.expo] - roots[rhs_expo]).max())
        return RelationReport(eps, 1, dev, dev <= tol)

    vecs = lattice_vectors(pm)
    m = len(vecs)
    lam_all, mu_all = vecs[:, :n], vecs[:, n:]
    # per lattice vector: src and expo arrays of its operator, stacked (m, d)
    src_all, expo_all = pi_exponents_many(vecs, pm)

    roots = root_table(p)
    max_dev = 0.0
    lattice_pvec = p ** np.arange(2 * n)
    for i in range(m):
        # composite T(xi_i) T(eta_j) for all j at once; memory stays O(m d)
        lhs_expo = (expo_all[i][None, :] + expo_all[:, src_all[i]]) % p
        lhs_src = src_all[:, src_all[i]]  # (m, d)
        tgt = ((vecs[i][None, :] + vecs) % p) @ lattice_pvec
        omega_i = (vecs[i][:n] @ mu_all.T - vecs[i][n:] @ lam_all.T) % p
        rhs_expo = (expo_all[tgt] + eps * pm.nu * omega_i[:, None]) % p
        rhs_src = src_all[tgt]
        if not np.array_equal(lhs_src, rhs_src):
            return RelationReport(eps, m * m, np.inf, False)
        dev = np.abs(roots[lhs_expo] - roots[rhs_expo]).max()
        max_dev = max(max_dev, float(dev))
    return RelationReport(eps, m * m, max_dev, max_dev <= tol)


# ---------------------------------------------------------------------------
# quantization of trigonometric polynomials


class FourierPolynomial:
    """Finitely supported map from integer lattice vectors to coefficients."""

    def __init__(self, terms: dict):
        self.terms = {tuple(int(c) for c in k): complex(v) for k, v in terms.items()
                      if v != 0}

    def coefficient(self, xi) -> complex:
        return self.terms.get(tuple(int(c) for c in xi), 0.0 + 0.0j)

    def is_real_valued(self) -> bool:
        for xi, a in self.terms.items():
            neg = tuple(-c for c in xi)
            if not np.isclose(self.terms.get(neg, 0.0), np.conj(a)):
                return False
        return True


def integral(f: FourierPolynomial) -> complex:
    """Haar integral over the torus: the coefficient at the zero vector."""
    zero = next(iter(f.terms), None)
    if zero is None:
        return 0.0 + 0.0j
    n2 = len(zero)
    return f.coefficient((0,) * n2)


def quantize(f: FourierPolynomial, pm: PrimeModulus) -> np.ndarray:
    """sum_xi a_xi T(xi) as a dense matrix."""
    d = pm.dim
    out = np.zeros((d, d), dtype=complex)
    for xi, a in f.terms.items():
        if len(xi) != 2 * pm.n:
            raise ValueError("term length does not match 2n")
        out += a * pi_op(xi, pm).dense()
    return out
