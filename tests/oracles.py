"""The dense route the program no longer takes, kept as a test oracle.

Every torus element B gets its own dense rho(B): the trace table
F[flat(xi), b] holds one `trace_column` per element, the character sums are
that table times the character table, and the eigenspaces come from the |T|
character projectors (1/|T|) sum_B conj(chi(B)) rho(B).  Memory is
O(p^{2n} |T|), so the comparisons stay at small p.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

import numpy as np

from torusque import hecke
from torusque.ffcore import PrimeModulus
from torusque.hecke import (EigenspaceDecomposition, HeckeTorus, TorusCharacter,
                            characters)
from torusque.heisenberg import pi_op
from torusque.quevaluator import _trace_column, _trace_kernel, flatten_xi


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
