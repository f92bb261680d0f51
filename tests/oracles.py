"""Routes the program no longer takes, kept as test oracles.

The dense route: every torus element B gets its own dense rho(B): the trace table
F[flat(xi), b] holds one `trace_column` per element, the character sums are
that table times the character table, and the eigenspaces come from the |T|
character projectors (1/|T|) sum_B conj(chi(B)) rho(B).  Memory is
O(p^{2n} |T|), so the comparisons stay at small p.

The torus structure by element orders (`torus_structure`): an O(|T|^2)
order scan, one or two generators.  The one-factor split sums one scalar
term at a time (`diagonal_factor_sum`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

import numpy as np

from torusque import ffcore, hecke
from torusque.ffcore import Mat, PrimeModulus, mat_mul
from torusque.hecke import (EigenspaceDecomposition, HeckeTorus, TorusCharacter,
                            characters)
from torusque.heisenberg import pi_op
from torusque.quevaluator import (_trace_column, _trace_kernel, flatten_xi,
                                  split_trace_formula)


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
        return complex(self.values[flatten_xi(xi, self.pm), self.torus.index_of(b)])


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
    """a[flat(xi), chi_index] = sum_B F(xi, B) chi(B), all at once."""
    return table.values @ character_table(table.torus).T


def projector(chi: TorusCharacter, torus: HeckeTorus, rep) -> np.ndarray:
    """Orthogonal projector onto {v : rho(B) v = chi(B) v for all B in T}."""
    d = torus.pm.dim
    acc = np.zeros((d, d), dtype=complex)
    for b in torus.elements:
        acc += np.conj(chi.value(torus, b)) * rep.op(b)
    return acc / torus.order


def decompose(torus: HeckeTorus, rep, tol: float = 1e-8) -> EigenspaceDecomposition:
    """Simultaneous eigenspaces through the |T| stacked character projectors.

    Validates completeness, projector idempotency, and the eigenvector
    property of every basis vector against every B (max abs entry).
    """
    d = torus.pm.dim
    chis = characters(torus)
    ops = np.stack([rep.op(b) for b in torus.elements])      # (N, d, d)
    chivals = character_table(torus)                         # (K, N)
    projs = (np.conj(chivals) @ ops.reshape(torus.order, -1) / torus.order)
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
        dev = np.abs(ops[b_idx] @ v - v * expected[None, :]).max()
        max_dev = max(max_dev, float(dev))
    if max_dev > 10 * tol:
        raise RuntimeError(f"eigenvector equation deviation {max_dev:.2e}")
    return EigenspaceDecomposition(torus, entries, dims, max_dev)


def hecke_average(xi, torus: HeckeTorus, rep) -> np.ndarray:
    """(1/|T|) sum_B rho(B) T(xi) rho(B)^-1, block diagonal in the Hecke basis."""
    d = torus.pm.dim
    t = pi_op(xi, torus.pm)
    acc = np.zeros((d, d), dtype=complex)
    for b in torus.elements:
        r = rep.op(b)
        acc += t.apply_right(r) @ r.conj().T
    return acc / torus.order


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
