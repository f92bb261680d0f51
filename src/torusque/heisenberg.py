"""Quantized torus algebra at Planck parameter 1/p.

The quantum space is H = functions F_p^n -> C, dimension d = p^n, with points
of F_p^n flattened to indices 0..d-1 in base p (least significant digit
first).  The basic operators are

    (T(lam, mu) f)(x) = psi(nu*lam.mu + mu.x) * f(x + lam),

where psi(t) = exp(2*pi*i*t/p) and nu = (p+1)/2 is the inverse of 2 mod p.
Each T(xi) has one exact form, the integer arrays (src, expo) with
(T(xi) f)[x] = psi(expo[x]) f[src[x]] (`pi_exponents_many`); `pi_op` writes
it out as a dense matrix.  Products are composed on these arrays
(`compose_exponents`), so the defining relation

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


def pi_op(xi, pm: PrimeModulus) -> np.ndarray:
    """T(xi) as a dense p^n x p^n matrix: psi(expo[x]) at (x, src[x])."""
    src, expo = pi_exponents(xi, pm)
    out = np.zeros((pm.dim, pm.dim), dtype=complex)
    out[np.arange(pm.dim), src] = root_table(pm.p)[expo]
    return out


def compose_exponents(a, b, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(src, expo) data of T_a T_b from a = (src_a, expo_a) and b = (src_b, expo_b):
    (T_a T_b f)[x] = psi(expo_a[x] + expo_b[src_a[x]]) f[src_b[src_a[x]]].

    b may stack operators along a leading axis; each is composed with T_a.
    """
    (src_a, expo_a), (src_b, expo_b) = a, b
    return src_b[..., src_a], (expo_a + expo_b[..., src_a]) % p


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


def _phase_deviation(lhs, target, phase, p: int) -> float:
    """max |T_lhs - psi(phase) T_target| from (src, expo) arrays (stacked
    alike), or inf when the permutations differ."""
    if not np.array_equal(lhs[0], target[0]):
        return np.inf
    roots = root_table(p)
    return float(np.abs(roots[lhs[1]] - roots[(target[1] + phase) % p]).max())


def check_relations(pm: PrimeModulus, tol: float = 1e-10,
                    exhaustive: bool = True) -> RelationReport:
    """Pair check of T(xi)T(eta) = psi(eps*nu*omega(xi,eta)) T(xi+eta).

    Every product is composed on the exact (src, expo) arrays
    (`compose_exponents`).  The orientation sign eps is measured from the
    data (it is a convention artifact of the form) on the pair xi = e_1,
    eta = e_{n+1}, where omega = 1.  With exhaustive=False only that pair is
    checked (pairs_checked == 1), which is all it takes to read eps.
    Otherwise the whole p^{4n} pair grid is checked, vectorized per xi.
    """
    p, n = pm.p, pm.n
    unit = np.eye(2 * n, dtype=np.int64)
    xi, eta = unit[0], unit[n]
    w = symplectic_form(xi, eta, mod=p)
    src, expo = pi_exponents_many([xi, eta, xi + eta], pm)
    lhs = compose_exponents((src[0], expo[0]), (src[1], expo[1]), p)
    delta = int((lhs[1][0] - expo[2][0]) % p)
    eps = next((c for c in (1, -1) if (c * pm.nu * w - delta) % p == 0), 1)
    if not exhaustive:
        dev = _phase_deviation(lhs, (src[2], expo[2]), eps * pm.nu * w, p)
        return RelationReport(eps, 1, dev, dev <= tol)

    vecs = lattice_vectors(pm)
    m = len(vecs)
    lam_all, mu_all = vecs[:, :n], vecs[:, n:]
    # per lattice vector: src and expo arrays of its operator, stacked (m, d)
    src_all, expo_all = pi_exponents_many(vecs, pm)
    max_dev = 0.0
    lattice_pvec = p ** np.arange(2 * n)
    for i in range(m):
        # composite T(xi_i) T(eta_j) for all j at once; memory stays O(m d)
        lhs = compose_exponents((src_all[i], expo_all[i]), (src_all, expo_all), p)
        tgt = ((vecs[i][None, :] + vecs) % p) @ lattice_pvec
        omega_i = (vecs[i][:n] @ mu_all.T - vecs[i][n:] @ lam_all.T) % p
        max_dev = max(max_dev, _phase_deviation(
            lhs, (src_all[tgt], expo_all[tgt]), eps * pm.nu * omega_i[:, None], p))
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
        out += a * pi_op(xi, pm)
    return out
