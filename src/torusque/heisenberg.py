"""Quantized torus algebra at Planck parameter 1/p.

The quantum space is H = functions F_p^n -> C, dimension d = p^n, with points
of F_p^n flattened to indices 0..d-1 in base p (least significant digit
first: `digits` and `flat_index`).  The basic operators are

    (T(lam, mu) f)(x) = psi(nu*lam.mu + mu.x) * f(x + lam),

where psi(t) = exp(2*pi*i*t/p) and nu = (p+1)/2 is the inverse of 2 mod p.
Each T(xi) has one exact form, the integer arrays (src, expo) with
(T(xi) f)[x] = psi(expo[x]) f[src[x]] (`pi_exponents_many`); `pi_op` writes
it out as a dense matrix.  Products are composed on these arrays
(`compose_exponents`), so the defining relation

    T(xi) T(eta) = psi(eps * nu * omega(xi, eta)) * T(xi + eta)

can be checked exactly, at the 2n unit vectors xi = e_i, which prove it for
every xi (eps: the orientation sign of omega, measured, not assumed).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ffcore import PrimeModulus, symplectic_form


# moduli whose tables stay cached; a sweep visits a few dozen primes
_CACHED_MODULI = 64

# bytes built or compared at once: a chunk of operators or a factorization
# (weil's build_chunks), of eta (check_relations) or of orbits
# (quevaluator's character-sum table)
CHUNK_BYTES = 1 << 18


def chunk_items(item_bytes: int) -> int:
    """How many items of item_bytes bytes fit in CHUNK_BYTES (at least one)."""
    return max(1, CHUNK_BYTES // item_bytes)


class BudgetExceeded(RuntimeError):
    """The sweep's time budget ran out inside a check."""


@lru_cache(maxsize=_CACHED_MODULI)
def root_table(p: int) -> np.ndarray:
    """exp(2*pi*i*k/p) for k = 0..p-1, computed once per modulus (read-only)."""
    out = np.exp(2j * np.pi * np.arange(p) / p)
    out.setflags(write=False)
    return out


def digits(flat, p: int, k: int) -> np.ndarray:
    """The k base-p digits of each flat index in the array flat, least
    significant digit first: shape (m, k) int64 for m indices.  The one
    digit order of the program; `flat_index` inverts it."""
    q = np.array(flat, dtype=np.int64)
    out = np.empty((len(q), k), dtype=np.int64)
    for j in range(k):      # a scalar divisor: numpy's fast integer division
        np.divmod(q, p, out=(q, out[:, j]))
    return out


def flat_index(vecs, p: int) -> np.ndarray:
    """Flat index of each digit vector along the last axis of vecs (entries
    in 0..p-1), the inverse of `digits`."""
    return vecs @ p ** np.arange(vecs.shape[-1])


def digit_kernel(p: int) -> np.ndarray:
    """[psi(a b)] for a, b in 0..p-1, the one-digit factor of psi(x.y)."""
    a = np.arange(p)
    return root_table(p)[np.outer(a, a) % p]


def on_digits(m: np.ndarray, w: np.ndarray, pm: PrimeModulus, axis: int = 0,
              which=None) -> np.ndarray:
    """A new array: m applied along digit j of axis `axis` (of length p^n) of
    w, sum_{y_j} m[x_j, y_j] w[..., y, ...], for every j in `which` (all by
    default).  Digit j has stride p^j: the middle axis of (p^(n-1-j), p, p^j)."""
    p, n = pm.p, pm.n
    lead, tail = int(np.prod(w.shape[:axis % w.ndim])), int(np.prod(w.shape[axis % w.ndim + 1:]))
    out = w
    for j in range(n) if which is None else which:
        pre, post = lead * p ** (n - 1 - j), p ** j * tail
        out = out.reshape(pre, p) @ m.T if post == 1 else m @ out.reshape(pre, p, post)
    return out.reshape(w.shape)


def digit_rows(table: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Rows of table^(x)n at the flat indices whose n digits are idx (least
    significant first): out[..., y] = prod_j table[idx[..., j], y_j], a
    (..., p^n) array for a (m, p) table and (..., n) idx, built one outer
    product per digit, digit 0 varying fastest as in the flat order."""
    out = table[idx[..., -1]]
    for j in range(idx.shape[-1] - 2, -1, -1):
        out = (out[..., None] * table[idx[..., j]][..., None, :]).reshape(*idx.shape[:-1], -1)
    return out


@lru_cache(maxsize=_CACHED_MODULI)
def index_vectors(pm: PrimeModulus) -> np.ndarray:
    """Array of shape (p^n, n): row i is the base-p digit vector of i (read-only)."""
    out = digits(np.arange(pm.dim), pm.p, pm.n)
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
    src = flat_index((pts[None, :, :] + lam[:, None, :]) % p, p)
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
# defining relation, checked on exponents at the unit vectors


@dataclass
class RelationReport:
    epsilon: int
    pairs_checked: int
    max_dev: float
    ok: bool


def _phase_deviation(lhs, target, phase, p: int) -> float:
    """max |T_lhs - psi(phase) T_target| from (src, expo) arrays (stacked
    alike), or inf when the permutations differ."""
    if not np.array_equal(lhs[0], target[0]):
        return np.inf
    roots = root_table(p)
    return float(np.abs(roots[lhs[1]] - roots[(target[1] + phase) % p]).max())


def check_relations(pm: PrimeModulus, exhaustive: bool = True,
                    deadline: float | None = None) -> RelationReport:
    """Pair check of T(xi)T(eta) = psi(eps*nu*omega(xi,eta)) T(xi+eta).

    Products are composed on the exact (src, expo) arrays
    (`compose_exponents`), so a pair holds exactly or fails.  The
    orientation sign eps, a convention artifact of the form, is measured on
    the pair (e_1, e_{n+1}), where omega = 1; with exhaustive=False only
    that pair is checked.  Otherwise the 2n p^{2n} pairs (e_i, eta), e_i a
    unit vector, are checked in chunks of eta, and `deadline` (a
    time.perf_counter() value) is read before each chunk.  They prove the
    p^{4n} grid, by induction on xi as a nonempty sum of unit vectors
    (0 = p e_1): if the relation holds at xi' for every eta, the pair
    (e_i, xi') gives T(e_i + xi') = psi(-eps nu omega(e_i, xi')) T(e_i)
    T(xi'), and with the pairs (e_i, xi' + eta) and bilinearity of omega it
    holds at e_i + xi' for every eta.
    """
    p, n = pm.p, pm.n
    unit = np.eye(2 * n, dtype=np.int64)
    src_e, expo_e = pi_exponents_many(unit, pm)
    lhs = compose_exponents((src_e[0], expo_e[0]), (src_e[n], expo_e[n]), p)
    src, expo = pi_exponents_many(unit[:1] + unit[n], pm)
    eps = -1 if (lhs[1][0] - expo[0, 0]) % p == -pm.nu % p else 1
    if not exhaustive:
        dev = _phase_deviation(lhs, (src[0], expo[0]), eps * pm.nu, p)
        return RelationReport(eps, 1, dev, dev == 0)

    total = pm.dim ** 2
    rows = chunk_items(16 * pm.dim)
    max_dev = 0.0
    for start in range(0, total, rows):
        if deadline is not None and time.perf_counter() > deadline:
            raise BudgetExceeded(f"deadline passed at eta {start} of {total}")
        etas = digits(np.arange(start, min(start + rows, total)), p, 2 * n)
        t_eta = pi_exponents_many(etas, pm)
        for i, e in enumerate(unit):
            lhs = compose_exponents((src_e[i], expo_e[i]), t_eta, p)
            omega = symplectic_form(e, etas, mod=p)
            max_dev = max(max_dev, _phase_deviation(
                lhs, pi_exponents_many(etas + e, pm), eps * pm.nu * omega[:, None], p))
    return RelationReport(eps, 2 * n * total, max_dev, max_dev == 0)


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
