"""The program's routes against the routes they replaced (tests/oracles.py).

The eigenbasis from the torus generators against the |T| character
projectors.  The character sums |T| Tr(T(xi) P_{chi^-1}) five ways: the
program's orbit table from the trace formula expanded to every xi, the
eigenbasis table it replaced (`oracles.eigenbasis_sum_table`), the same read
at each orbit's least flat index, the stream of one `trace_column` per
eigenspace, and the trace table times the character table.
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
    ops = oracles.dense_ops(rep, torus.elements)
    dense = oracles.decompose(torus, ops)
    dec = ctx.decomposition
    assert dec.dims == dense.dims
    assert sum(dec.dims) == p ** n
    assert dec.max_eigen_dev < 1e-11
    for got, ref in zip(oracles.projector_stack(dec), oracles.projector_stack(dense)):
        assert np.abs(got - ref).max() <= 1e-9

    sums = oracles.character_sum_table(oracles.build_trace_table(torus, ops))
    row = ctx.orbits[1]
    seen = []
    worst = 0.0
    for ci, col in oracles.character_sum_columns(ctx):
        seen.append(ci)
        worst = max(worst, float(np.abs(col - sums[:, ci]).max()),
                    float(np.abs(ctx.sums[row, ci] - sums[:, ci]).max()))
    del sums
    assert seen == list(range(torus.order))
    assert worst <= 1e-9 * torus.order * p ** n


@pytest.mark.parametrize("n,p", [(1, 7), (1, 11), (1, 13), (1, 97), (2, 5), (2, 13),
                                 (2, 19)])
def test_orbit_table_matches_stream(n, p, cat_map, sp4_elem, rep_cache, torus_cache):
    # one column at a time, past the dense route's memory wall: at n = 2,
    # p = 19 the expanded table would be p^4 x |T| = 130,321 x 400
    torus, rep = torus_cache(p, n), rep_cache(p, n)
    ctx = q.PrimeContext(cat_map if n == 1 else sp4_elem, torus, rep)
    row = ctx.orbits[1]
    worst = max(float(np.abs(ctx.sums[row, ci] - col).max())
                for ci, col in oracles.character_sum_columns(ctx))
    assert worst <= 1e-9 * torus.order * p ** n


@pytest.mark.parametrize("n,p", [(1, 7), (1, 13), (1, 97), (2, 5), (2, 13), (2, 19)])
def test_least_shift_table_matches_least_index_table(n, p, cat_map, sp4_elem,
                                                     rep_cache, torus_cache):
    # the eigenbasis table reads each orbit at its member of least shift; the
    # sums are constant on orbits, so the route that read it at its least
    # flat index agrees, and every chosen member lies in its own orbit
    torus, rep = torus_cache(p, n), rep_cache(p, n)
    ctx = q.PrimeContext(cat_map if n == 1 else sp4_elem, torus, rep)
    reps, row, _ = ctx.orbits
    members = oracles.least_shift_members(row, ctx.pm)
    assert np.array_equal(row[members], np.arange(len(reps)))
    assert (members % p ** n <= reps % p ** n).all()
    worst = float(np.abs(oracles.eigenbasis_sum_table(ctx)
                         - oracles.orbit_table_at_reps(ctx)).max())
    assert worst <= 1e-9 * torus.order * p ** n


@pytest.mark.parametrize("n,p", [(1, 7), (1, 11), (1, 43), (1, 97), (2, 5), (2, 7), (2, 13),
                                 (2, 19), (2, 23)])
def test_formula_table_matches_eigenbasis_table(n, p, cat_map, sp4_elem, rep_cache,
                                                torus_cache):
    # the trace formula's table against the W_lam table of the eigenbasis it
    # replaced, column for column in chis order, and its dims against eigh's
    torus, rep = torus_cache(p, n), rep_cache(p, n)
    ctx = q.PrimeContext(cat_map if n == 1 else sp4_elem, torus, rep)
    ref = oracles.eigenbasis_sum_table(ctx)
    assert ctx.sums.shape == ref.shape == (len(ctx.orbits[0]), torus.order)
    assert np.abs(ctx.sums - ref).max() <= 1e-10 * np.abs(ref).max()
    assert ctx.dims == ctx.decomposition.dims


def test_every_coefficient_row_gives_the_same_eigenspaces(sp4_split13,
                                                         monkeypatch):
    # the basis is certified, not an artefact of one coefficient choice
    ctx = sp4_split13
    ref = oracles.projector_stack(ctx.decomposition)
    for row in hecke.MIX_COEFFICIENTS[1:]:
        monkeypatch.setattr(hecke, "MIX_COEFFICIENTS", (row,))
        dec = hecke.decompose(ctx.torus, ctx.generator_ops)
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
    gens = oracles.generator_ops(rep, torus)
    generic = hecke.MIX_COEFFICIENTS[0]
    monkeypatch.setattr(hecke, "MIX_COEFFICIENTS", ((1.0, 1.0), generic))
    dense = oracles.decompose(torus, oracles.dense_ops(rep, torus.elements))
    assert hecke.decompose(torus, gens).dims == dense.dims
    monkeypatch.setattr(hecke, "MIX_COEFFICIENTS", ((1.0, 1.0), (0.5, 0.5)))
    with pytest.raises(RuntimeError, match="certificate"):
        hecke.decompose(torus, gens)
