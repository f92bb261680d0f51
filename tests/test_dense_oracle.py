"""The streamed route against the dense route it replaced (tests/oracles.py).

The eigenbasis from the torus generators against the |T| character
projectors, and the character sums |T| Tr(T(xi) P_{chi^-1}), streamed one
eigenspace at a time, against the trace table times the character table.
"""

import numpy as np
import pytest

from torusque import hecke, quevaluator as q

import oracles


@pytest.mark.parametrize("n,p", [(1, 7), (1, 11), (1, 13), (2, 5), (2, 13)])
def test_streamed_route_matches_dense_route(n, p, cat_map, sp4_elem, rep_cache,
                                            torus_cache):
    torus, rep = torus_cache(p, n), rep_cache(p, n)
    ctx = q.PrimeContext(cat_map if n == 1 else sp4_elem, torus, rep)
    dense = oracles.decompose(torus, rep)
    dec = ctx.decomposition
    assert dec.dims == dense.dims
    assert sum(dec.dims) == p ** n
    assert dec.max_eigen_dev < 1e-11
    for got, ref in zip(oracles.projector_stack(dec), oracles.projector_stack(dense)):
        assert np.abs(got - ref).max() <= 1e-9

    sums = oracles.character_sum_table(oracles.build_trace_table(torus, rep))
    seen = []
    worst = 0.0
    for ci, col in ctx.character_sum_columns():
        seen.append(ci)
        worst = max(worst, float(np.abs(col - sums[:, ci]).max()))
    del sums
    assert seen == list(range(torus.order))
    assert worst <= 1e-9 * torus.order * p ** n


def test_every_coefficient_row_gives_the_same_eigenspaces(sp4_split13,
                                                         monkeypatch):
    # the basis is certified, not an artefact of one coefficient choice
    ctx = sp4_split13
    ref = oracles.projector_stack(ctx.decomposition)
    for row in hecke.MIX_COEFFICIENTS[1:]:
        monkeypatch.setattr(hecke, "MIX_COEFFICIENTS", (row,))
        dec = hecke.decompose(ctx.torus, ctx.rep)
        assert dec.dims == ctx.decomposition.dims
        worst = max(float(np.abs(a - b).max())
                    for a, b in zip(oracles.projector_stack(dec), ref))
        assert worst < 1e-9


def test_failed_certificate_retries_then_raises(torus_cache, rep_cache,
                                                monkeypatch):
    # a real coefficient gives rho(g) + rho(g)^dagger, under which chi and
    # chi^-1 share an eigenvalue: that row fails its certificate and the next
    # one is used; with real rows only, the decomposition raises
    torus, rep = torus_cache(11), rep_cache(11)
    generic = hecke.MIX_COEFFICIENTS[0]
    monkeypatch.setattr(hecke, "MIX_COEFFICIENTS", ((1.0, 1.0), generic))
    assert hecke.decompose(torus, rep).dims == oracles.decompose(torus, rep).dims
    monkeypatch.setattr(hecke, "MIX_COEFFICIENTS", ((1.0, 1.0), (0.5, 0.5)))
    with pytest.raises(RuntimeError, match="certificate"):
        hecke.decompose(torus, rep)
