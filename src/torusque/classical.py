"""Classical side: ergodic symplectic integer matrices and Birkhoff averages.

An ergodic generator must be symplectic over Z, have characteristic polynomial
irreducible over Q, and carry no root-of-unity eigenvalues.  The last
condition is tested exactly: a root of unity among the eigenvalues would make
some cyclotomic polynomial of degree <= 2n divide the characteristic
polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ffcore
from .ffcore import Mat, Poly, mat, mat_mul

CAT_MAP: Mat = ((2, 1), (1, 1))


class ValidationError(ValueError):
    def __init__(self, code: str, detail: str):
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail


@dataclass(frozen=True)
class ErgodicElement:
    matrix: Mat
    charpoly: Poly
    n: int

    @property
    def dim(self) -> int:
        return 2 * self.n


def validate_ergodic(m) -> ErgodicElement:
    """Check the three ergodicity conditions; raise a coded rejection otherwise.

    Codes: not-square, non-symplectic, reducible-charpoly, root-of-unity.
    """
    m = mat(m)
    d = len(m)
    if d % 2 != 0 or any(len(r) != d for r in m):
        raise ValidationError("not-square", f"need a square matrix of even size, got {d}")
    n = d // 2
    if not ffcore.is_symplectic(m):
        raise ValidationError("non-symplectic", "M^T J M != J over Z")
    cp = ffcore.char_poly(m)
    if not ffcore.cyclotomic_gcd_trivial(cp, 2 * n):
        raise ValidationError("root-of-unity",
                              f"{ffcore.poly_str(cp)} has a cyclotomic factor")
    irr, why = ffcore.is_irreducible_q(cp)
    if not irr:
        raise ValidationError("reducible-charpoly",
                              f"{ffcore.poly_str(cp)} is reducible over Q ({why})")
    return ErgodicElement(m, cp, n)


def try_validate(m) -> tuple[ErgodicElement | None, str]:
    try:
        return validate_ergodic(m), "accepted"
    except ValidationError as e:
        return None, f"rejected ({e.code}): {e.detail}"


def _symmetric_blocks(entries=(-2, -1, 0, 1, 2)):
    for s11 in entries:
        for s12 in entries:
            for s22 in entries:
                yield ((s11, s12), (s12, s22))


# First hit of find_ergodic_sp4 with default arguments, frozen as the repo
# fixture: charpoly x^4 - 13x^3 + 40x^2 - 13x + 1, anisotropic at 3, 5, 7, 11
# and fully split at 13.
SP4_FIXTURE: Mat = ((6, 2, -1, -2),
                    (2, 5, -2, 0),
                    (-1, -2, 1, 0),
                    (-2, 0, 0, 1))


def find_ergodic_sp4(prefer_split_below: int = 14,
                     nondegenerate_at=(3, 5, 7)) -> ErgodicElement:
    """Deterministic search for an ergodic element of Sp(4, Z).

    Scans products U(S1) L(S2) of an upper and a lower symplectic unipotent
    with symmetric blocks over entries {-2..2}, in a fixed order.  The first
    valid hit that is non-degenerate at the listed primes and whose
    characteristic polynomial splits into linear factors at some odd prime
    below the threshold wins (split-torus checks then have a small prime
    available); if no candidate qualifies, the first plain valid hit is
    returned.  The result with default arguments is recorded as SP4_FIXTURE.
    """
    first_valid = None
    for s1 in _symmetric_blocks():
        u = _upper_unipotent4(s1)
        for s2 in _symmetric_blocks():
            low = _lower_unipotent4(s2)
            cand = mat_mul(u, low)
            elem, _ = try_validate(cand)
            if elem is None:
                continue
            if first_valid is None:
                first_valid = elem
            cp = elem.charpoly
            if not all(ffcore.is_squarefree_modp(ffcore.poly_mod_reduce(cp, p), p)
                       for p in nondegenerate_at):
                continue
            for p in ffcore.odd_primes(3, prefer_split_below - 1):
                cpm = ffcore.poly_mod_reduce(cp, p)
                if not ffcore.is_squarefree_modp(cpm, p):
                    continue
                if all(d == 1 for d in ffcore.factor_degrees_modp(cpm, p)):
                    return elem
    if first_valid is not None:
        return first_valid
    raise RuntimeError("search space exhausted; enlarge the entry range")


def _upper_unipotent4(s: Mat) -> Mat:
    return mat([[1, 0, s[0][0], s[0][1]],
                [0, 1, s[1][0], s[1][1]],
                [0, 0, 1, 0],
                [0, 0, 0, 1]])


def _lower_unipotent4(s: Mat) -> Mat:
    return mat([[1, 0, 0, 0],
                [0, 1, 0, 0],
                [s[0][0], s[0][1], 1, 0],
                [s[1][0], s[1][1], 0, 1]])


# ---------------------------------------------------------------------------
# Birkhoff averaging


def birkhoff_average(elem: ErgodicElement, xi, x, n_steps: int) -> complex:
    """(1/N) sum_{k=1..N} exp(2 pi i <xi, A^k x>): `birkhoff_many` at one point."""
    return complex(birkhoff_many(elem, xi, [x], n_steps)[0])


def birkhoff_many(elem: ErgodicElement, xi, xs: np.ndarray, n_steps: int) -> np.ndarray:
    """Birkhoff averages of one character over a batch of start points; the
    orbits are reduced mod 1 at every step, as powering A would overflow."""
    xi = np.array([float(c) for c in xi])
    a = np.array(elem.matrix, dtype=float)
    pts = np.array(xs, dtype=float) % 1.0          # (k, 2n)
    acc = np.zeros(len(pts), dtype=complex)
    for _ in range(n_steps):
        pts = (pts @ a.T) % 1.0
        acc += np.exp(2j * np.pi * (pts @ xi))
    return acc / n_steps


def sp_group_order(p: int, n: int) -> int:
    """|Sp(2n, F_p)| = p^(n^2) * prod_{i=1..n} (p^(2i) - 1)."""
    out = p ** (n * n)
    for i in range(1, n + 1):
        out *= p ** (2 * i) - 1
    return out

