"""Exact arithmetic over Z and F_p: matrices, polynomials, symplectic predicates.

Integer matrices are nested tuples of Python ints (arbitrary precision, hashable,
immutable); stacks of matrices mod p are int64 arrays (`gauss_jordan_modp`).  Polynomials are tuples of coefficients, lowest degree first.
Everything here is pure and safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

Mat = tuple[tuple[int, ...], ...]
Poly = tuple[int, ...]


class DegreeError(ValueError):
    """Polynomial degree outside the supported desk-scale range."""


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    d = 3
    while d * d <= m:
        if m % d == 0:
            return False
        d += 2
    return True


def odd_primes(lo: int, hi: int) -> list[int]:
    """Odd primes p with lo <= p <= hi."""
    return [m for m in range(max(lo, 3), hi + 1) if m % 2 == 1 and is_prime(m)]


def legendre(a: int, p: int) -> int:
    """Quadratic residue symbol of a mod p, in {-1, 0, +1}."""
    if p < 3 or not is_prime(p):
        raise ValueError(f"modulus {p} is not an odd prime")
    a %= p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return 1 if s == 1 else -1


@dataclass(frozen=True)
class PrimeModulus:
    """Odd prime p and half-dimension n; the quantum space has dimension p**n."""

    p: int
    n: int = 1

    def __post_init__(self):
        if self.p < 3 or not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not an odd prime")
        if self.n < 1:
            raise ValueError("half-dimension n must be >= 1")

    @property
    def nu(self) -> int:
        # inverse of 2 mod p: 2*nu == 1 (mod p)
        return (self.p + 1) // 2

    @property
    def dim(self) -> int:
        return self.p ** self.n


# ---------------------------------------------------------------------------
# integer / residue matrices


def mat(rows) -> Mat:
    return tuple(tuple(int(x) for x in r) for r in rows)


def identity_mat(d: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def mat_mod(m: Mat, p: int) -> Mat:
    return tuple(tuple(x % p for x in r) for r in m)


def mat_mul(a: Mat, b: Mat, mod: int | None = None) -> Mat:
    assert len(a[0]) == len(b), "shape mismatch"
    cols = tuple(zip(*b))
    if mod is None:
        return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
                     for row in a)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % mod for col in cols)
                 for row in a)


def mat_inv_modp(a: Mat, p: int) -> Mat:
    """Inverse mod p (`gauss_jordan_modp`); raises if singular."""
    det, inv, _ = gauss_jordan_modp(np.array(mat_mod(a, p), dtype=np.int64), p)
    if det == 0:
        raise ZeroDivisionError("matrix is singular mod p")
    return mat(inv)


@lru_cache(maxsize=None)
def unit_inverses(p: int) -> np.ndarray:
    """inverse[x] = x^-1 mod p for x = 1..p-1, and inverse[0] = 0 (read-only)."""
    out = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=np.int64)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def legendre_signs(p: int) -> np.ndarray:
    """legendre(x, p) for x = 0..p-1, as floats (read-only)."""
    out = np.array([float(legendre(x, p)) for x in range(p)])
    out.setflags(write=False)
    return out


def gauss_jordan_modp(m, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Determinants, row transforms and ranks mod p of a stack of square matrices.

    m is an integer array of shape (..., d, d).  One Gauss-Jordan elimination
    runs over the whole stack in exact int64 arithmetic (every product stays
    below p^2), with row pivoting: column c takes the first row at or below
    the member's rank so far with a nonzero entry, and a column with none is
    passed over.  Returns (det, x, rank) of shapes (...), (..., d, d) and
    (...), det reduced to 0..p-1: x m mod p is the reduced row echelon form
    of m, so x = m^-1 where det is nonzero, and the rows of x from rank on
    span the left kernel of m.
    """
    m = np.asarray(m, dtype=np.int64) % p
    *batch, d, _ = m.shape
    m = m.reshape(-1, d, d)
    k = len(m)
    aug = np.concatenate([m, np.broadcast_to(np.eye(d, dtype=np.int64), m.shape)],
                         axis=2)
    det = np.ones(k, dtype=np.int64)
    rank = np.zeros(k, dtype=np.int64)
    inverse = unit_inverses(p)
    every = np.arange(k)
    for c in range(d):
        below = (aug[:, :, c] != 0) & (np.arange(d) >= rank[:, None])
        found = below.any(axis=1)
        piv = np.where(found, below.argmax(axis=1), rank)
        row = aug[every, piv]                   # moves to row rank, normalized
        aug[every, piv] = aug[every, rank]
        det = np.where(piv != rank, -det, det) * row[:, c] % p  # no pivot: det 0
        row = row * np.where(found, inverse[row[:, c]], 1)[:, None] % p
        aug = (aug - (aug[:, :, c] * found[:, None])[:, :, None] * row[:, None, :]) % p
        aug[every, rank] = row
        rank += found
    return det.reshape(batch), aug[:, :, d:].reshape(*batch, d, d), rank.reshape(batch)


def standard_j(n: int) -> Mat:
    """Gram matrix of the standard symplectic form: [[0, I], [-I, 0]], size 2n."""
    e = identity_mat(2 * n)
    return e[n:] + tuple(tuple(-x for x in r) for r in e[:n])


def symplectic_form(xi, eta, mod: int | None = None):
    """omega(xi, eta) = xi^T J eta for xi, eta in Z^{2n}; arrays of such
    vectors along the last axis broadcast, giving one value per row."""
    xi, eta = np.asarray(xi), np.asarray(eta)
    n = xi.shape[-1] // 2
    s = (xi[..., :n] * eta[..., n:] - xi[..., n:] * eta[..., :n]).sum(axis=-1)
    return s % mod if mod is not None else s


def is_symplectic(m, p: int | None = None):
    """True iff M^T J M = J (over Z, or mod p), for one 2n x 2n matrix; for a
    (k, 2n, 2n) stack, the (k,) boolean array of the verdicts.

    Over Z the product is exact (object dtype: the matrix may come from
    outside the program); mod p it is taken on entries reduced mod p, so an
    int64 stack stays below 2n p^2.
    """
    m = np.asarray(m)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2] or m.shape[-1] % 2:
        raise ValueError("symplectic test needs a square matrix of even size")
    m = m.astype(object) if p is None else m % p
    j = np.array(standard_j(m.shape[-1] // 2))
    diff = m.swapaxes(-1, -2) @ j @ m - j
    ok = ((diff if p is None else diff % p) == 0).all(axis=(-2, -1))
    return bool(ok) if m.ndim == 2 else ok


# ---------------------------------------------------------------------------
# polynomials (coefficient tuples, lowest degree first)


def poly_trim(f) -> Poly:
    f = list(f)
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    return tuple(f)


def poly_deg(f: Poly) -> int:
    return len(poly_trim(f)) - 1


def poly_mod_reduce(f: Poly, p: int) -> Poly:
    return poly_trim(tuple(c % p for c in f))


def poly_add(f: Poly, g: Poly, mod: int | None = None) -> Poly:
    n = max(len(f), len(g))
    out = [(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)]
    if mod is not None:
        out = [c % mod for c in out]
    return poly_trim(out)


def poly_mul(f: Poly, g: Poly, mod: int | None = None) -> Poly:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] += a * b
    if mod is not None:
        out = [c % mod for c in out]
    return poly_trim(out)


def poly_divmod(f: Poly, g: Poly, mod: int | None = None) -> tuple[Poly, Poly]:
    """Division with remainder.  Over Z the divisor must be monic."""
    f = list(poly_trim(f))
    g = poly_trim(g)
    if g == (0,):
        raise ZeroDivisionError("polynomial division by zero")
    lead = g[-1]
    if mod is None:
        if lead not in (1, -1):
            raise ValueError("integer polynomial division needs a monic divisor")
        lead_inv = lead
    else:
        lead_inv = pow(lead, -1, mod)
    dg = len(g) - 1
    q = [0] * max(1, len(f) - dg)
    while len(f) - 1 >= dg and any(f):
        shift = len(f) - 1 - dg
        c = f[-1] * lead_inv
        if mod is not None:
            c %= mod
        q[shift] = c
        for i, b in enumerate(g):
            f[shift + i] -= c * b
            if mod is not None:
                f[shift + i] %= mod
        f = list(poly_trim(f))
        if f == [0]:
            break
    return poly_trim(q), poly_trim(f)


def poly_gcd_modp(f: Poly, g: Poly, p: int) -> Poly:
    """Monic gcd over F_p."""
    f, g = poly_mod_reduce(f, p), poly_mod_reduce(g, p)
    while g != (0,):
        _, r = poly_divmod(f, g, mod=p)
        f, g = g, r
    if f == (0,):
        return f
    inv = pow(f[-1], -1, p)
    return poly_trim(tuple((c * inv) % p for c in f))


def poly_deriv(f: Poly, mod: int | None = None) -> Poly:
    out = [i * c for i, c in enumerate(f)][1:] or [0]
    if mod is not None:
        out = [c % mod for c in out]
    return poly_trim(out)


def poly_eval(f: Poly, x: int, mod: int | None = None) -> int:
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
        if mod is not None:
            acc %= mod
    return acc


def poly_powmod_x(e: int, f: Poly, p: int) -> Poly:
    """x^e mod (f, p) by square and multiply."""
    result: Poly = (1,)
    base: Poly = poly_divmod((0, 1), f, mod=p)[1]
    while e:
        if e & 1:
            result = poly_divmod(poly_mul(result, base, mod=p), f, mod=p)[1]
        base = poly_divmod(poly_mul(base, base, mod=p), f, mod=p)[1]
        e >>= 1
    return result


def char_poly(m: Mat, mod: int | None = None) -> Poly:
    """Monic characteristic polynomial det(xI - M), exact coefficients."""
    d = len(m)
    # polynomial-entry cofactor expansion; entries are (const, x-coeff) polys
    entries = [[((-m[i][j]) % mod if mod is not None else -m[i][j],
                 (1 if i == j else 0)) for j in range(d)] for i in range(d)]

    def det(rows, cols):
        if len(rows) == 1:
            return poly_trim(entries[rows[0]][cols[0]])
        acc: Poly = (0,)
        r0 = rows[0]
        for k, c in enumerate(cols):
            e = poly_trim(entries[r0][c])
            if e == (0,):
                continue
            sub = det(rows[1:], cols[:k] + cols[k + 1:])
            term = poly_mul(e, sub, mod=mod)
            if k % 2 == 1:
                term = tuple((-x) % mod if mod is not None else -x for x in term)
            acc = poly_add(acc, term, mod=mod)
        return acc

    return det(tuple(range(d)), tuple(range(d)))


@lru_cache(maxsize=None)
def cyclotomic(m: int) -> Poly:
    """m-th cyclotomic polynomial, by exact division of x^m - 1."""
    f: Poly = tuple([-1] + [0] * (m - 1) + [1])
    for d in range(1, m):
        if m % d == 0:
            q, r = poly_divmod(f, cyclotomic(d))
            assert r == (0,)
            f = q
    return f


def cyclotomic_gcd_trivial(f: Poly, max_phi: int) -> bool:
    """True iff f shares no root with any x^m - 1 for phi(m) <= max_phi.

    Exact test for 'no root-of-unity eigenvalues' when f has degree <= max_phi.
    """
    for m in range(1, 4 * max_phi + 2):
        cyc = cyclotomic(m)
        if poly_deg(cyc) > max_phi:
            continue
        # common factor over Q iff resultant-style gcd over Q is non-trivial;
        # both polys are integer and cyc is irreducible, so it divides f or not
        _, r = poly_divmod(f, cyc)
        if r == (0,):
            return False
    return True


def _divisors(m: int) -> list[int]:
    m = abs(m)
    out = [d for d in range(1, m + 1) if m % d == 0]
    return out + [-d for d in out]


def is_irreducible_q(f: Poly) -> tuple[bool, str]:
    """Irreducibility over Q for monic integer polynomials of degree <= 4.

    Elementary exact search: rational roots, then integer quadratic factors.
    Returns (verdict, report).
    """
    f = poly_trim(f)
    deg = poly_deg(f)
    if deg > 4:
        raise DegreeError("exact irreducibility implemented for degree <= 4")
    if deg <= 0:
        return False, "constant polynomial"
    if deg == 1:
        return True, "linear"
    if f[-1] != 1:
        raise ValueError("expected a monic polynomial")
    # rational root test (roots are integer divisors of the constant term)
    if f[0] == 0:
        return False, "root 0"
    for r in _divisors(f[0]):
        if poly_eval(f, r) == 0:
            return False, f"rational root {r}"
    if deg <= 3:
        return True, "no rational roots"
    # degree 4: search monic integer quadratic factors x^2+ux+v times x^2+sx+t
    a, b, c, d = f[3], f[2], f[1], f[0]
    for v in _divisors(d):
        if d % v != 0:
            continue
        t = d // v
        # u + s = a, u*s = b - v - t, u*t + v*s = c
        us = b - v - t
        disc = a * a - 4 * us
        if disc < 0:
            continue
        r = isqrt(disc)
        if r * r != disc or (a + r) % 2 != 0:
            continue
        for u in {(a + r) // 2, (a - r) // 2}:
            s = a - u
            if u * t + v * s == c:
                return False, f"factor x^2 + {u}x + {v}"
    return True, "no rational roots, no quadratic factor"


def is_squarefree_modp(f: Poly, p: int) -> bool:
    g = poly_gcd_modp(f, poly_deriv(f, mod=p), p)
    return poly_deg(g) == 0


def factor_degrees_modp(f: Poly, p: int) -> list[int]:
    """Degrees (with multiplicity-free f) of the irreducible factors mod p.

    Requires f squarefree mod p; distinct-degree splitting is enough because
    only the degree pattern is consumed downstream.
    """
    f = poly_mod_reduce(f, p)
    if not is_squarefree_modp(f, p):
        raise ValueError("factor degree pattern needs a squarefree polynomial")
    degs: list[int] = []
    k = 1
    while poly_deg(f) > 0:
        xq = poly_powmod_x(p ** k, f, p)
        diff = poly_add(xq, ((0, p - 1)), mod=p)
        g = poly_gcd_modp(diff, f, p)
        if poly_deg(g) > 0:
            degs.extend([k] * (poly_deg(g) // k))
            f = poly_divmod(f, g, mod=p)[0]
        k += 1
        if k > 16:
            raise RuntimeError("runaway factorization")
    return sorted(degs)


def poly_roots_modp(f: Poly, p: int) -> list[int]:
    return [x for x in range(p) if poly_eval(f, x, mod=p) == 0]


def factorize(m: int) -> list[tuple[int, int]]:
    """[(r, e), ...]: the primes r dividing m >= 1 in increasing order, each
    with its exponent e in m, by trial division."""
    out = []
    r = 2
    while r * r <= m:
        e = 0
        while m % r == 0:
            m //= r
            e += 1
        if e:
            out.append((r, e))
        r += 1
    if m > 1:
        out.append((m, 1))
    return out


def primitive_root(p: int) -> int:
    """Smallest generator of the cyclic group F_p^x."""
    order = p - 1
    primes = [q for q, _ in factorize(order)]
    for g in range(2, p):
        if all(pow(g, order // q, p) != 1 for q in primes):
            return g
    raise RuntimeError("no primitive root found")


def dlog_table(p: int, g: int | None = None) -> tuple[int, list[int]]:
    """(g, table) with table[a] = index of a base g, for a in 1..p-1."""
    if g is None:
        g = primitive_root(p)
    table = [0] * p
    acc = 1
    for k in range(p - 1):
        table[acc] = k
        acc = (acc * g) % p
    return g, table


def poly_str(f: Poly, var: str = "x") -> str:
    f = poly_trim(f)
    parts = []
    for i in range(len(f) - 1, -1, -1):
        c = f[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(f"{c:+d}")
        elif i == 1:
            parts.append(f"{c:+d}{var}" if abs(c) != 1 else ("+" if c > 0 else "-") + var)
        else:
            parts.append(f"{c:+d}{var}^{i}" if abs(c) != 1 else ("+" if c > 0 else "-") + f"{var}^{i}")
    s = " ".join(parts) if parts else "0"
    return s.lstrip("+").replace("+", "+ ").replace("-", "- ").strip()
