"""The identity checks on element stacks against the routes they replace.

Each check factors its elements once (`weil.factorize`) and compares whole
stacks: the Egorov deviations of a chunk of operators at once, the trace
columns of a chunk in one matmul, and the pair check with one factorization
per run of pairs.  The routes they replace are the oracles here: one
operator at a time (`oracles.egorov_deviation_loop`), one a at a time
(`oracles.split_trace_deviation_per_a`), one apply_many call per role and
batch (`oracles.pair_check_per_role`) and the dense pair products
(`oracles.dense_pair_check`).  The same holds for the per-character report
arrays of the refined and factorization checks, the orbit rows and the
bound's violation records, which are built only when read.  The lattice
maps read in chunks of flat indices (`quevaluator.orbit_labels`,
`SplitTransport.generic_mask`) are compared with their whole-table oracles
at a chunk size that cuts each map into at least three chunks and a partial
last one, and the orbit-level `ViolationRecords` with the eager expansion
of every violating (xi, chi) (`oracles.eager_violations`).
"""

import random
import tracemalloc

import numpy as np
import pytest

from torusque import cli, ffcore, heisenberg, quevaluator as q, weil
from torusque.ffcore import PrimeModulus
from torusque.heisenberg import CHUNK_BYTES
from torusque.quevaluator import PrimeContext

from oracles import (build_many, dense_pair_check, eager_violations, egorov_deviation_loop,
                     factorization_counts_loop, generic_mask_full, lattice_vectors,
                     orbit_labels_full, orbits_by_unique, pair_check_per_role,
                     measure_split_sign, refined_rows_loop, split_trace_deviation_per_a,
                     split_trace_formula, trace_column)

CASES = [(1, 7), (1, 43), (2, 5), (2, 13)]


def _context(n, p, cat_map, sp4_elem, rep_cache, torus_cache):
    return PrimeContext(cat_map if n == 1 else sp4_elem, torus_cache(p, n), rep_cache(p, n))


@pytest.mark.parametrize("n,p", CASES)
def test_egorov_check_equals_the_per_element_route(n, p, cat_map, sp4_elem,
                                                    rep_cache, torus_cache):
    # the elements of cli._check_egorov, drawn from the same rng: the torus
    # generators, 25 samples and 5 products of them
    ctx = _context(n, p, cat_map, sp4_elem, rep_cache, torus_cache)
    pm, rep = ctx.pm, ctx.rep
    res = cli._check_egorov(ctx, random.Random(p))
    samples = weil.random_sp(pm, random.Random(p), 25)
    gens = np.array([g for g, _ in ctx.torus.generators], dtype=np.int64)
    elements = np.concatenate([gens, samples, samples[:5] @ samples[5:10] % p])
    want = [egorov_deviation_loop(dense, b, pm)
            for b, dense in zip(elements, build_many(rep, elements))]
    got, lo = [], 0
    for stack in rep.build_chunks(elements):
        got.extend(weil.egorov_deviation(stack, elements[lo:lo + len(stack)], pm))
        lo += len(stack)
    assert np.abs(np.array(got) - want).max() <= 1e-12
    assert res.status == "pass" and abs(res.max_dev - max(want)) <= 1e-12


@pytest.mark.parametrize("n,p", CASES)
def test_pair_check_equals_the_per_role_route(n, p, rep_cache):
    # several runs of pairs, each factored once, against one apply_many call
    # per role and batch, and both verdicts against the dense products
    pm = PrimeModulus(p, n)
    rep = rep_cache(p, n)
    rng = random.Random(p)
    sampled = 500 if n == 1 else 100
    draws = weil.random_sp(pm, rng, 2 * sampled)
    d = 2 * n
    pairs = np.concatenate([draws.reshape(sampled, 2, d, d), weil.relation_pairs(pm, rng)])
    step = weil.apply_length(pm, weil.PROBE_COLUMNS) // 2
    assert len(pairs) > step * max(1, weil.factor_length(pm) // (3 * step))
    x = weil.probe_block(pm, p)
    got = weil.check_multiplicativity(rep, pairs, probe=x)
    assert got.ok and got.pairs_checked == len(pairs)
    assert abs(got.max_dev - pair_check_per_role(rep, pairs, x)) <= 1e-12
    assert dense_pair_check(rep, pairs).ok


@pytest.mark.parametrize("p", [7, 43])
def test_trace_formula_equals_the_per_a_route(p, cat_map, rep_cache, torus_cache):
    rep = rep_cache(p)
    pm = rep.pm
    # the program's one orientation is the measured one
    assert measure_split_sign(pm, rep) == -1
    torus = torus_cache(p)
    dev = q.trace_formula_deviation(q.PrimeContext(cat_map, torus, rep))
    # the check's elements are the diag(a, 1/a) of the per-a route and the
    # torus generators, each held to the formula at every xi on its own
    gens = [g for g, _ in torus.generators]
    gen_cols = trace_column(np.stack(list(build_many(rep, gens))), pm)
    gen_dev = float(np.abs(gen_cols - q.TraceFormula(gens, pm)(np.arange(p * p)).T).max())
    assert dev <= 1e-10 and abs(dev - max(split_trace_deviation_per_a(rep), gen_dev)) <= 1e-12
    # the stacked columns, one a at a time, and the general formula at every
    # diag(a, 1/a), bit for bit the n = 1 closed form over a stack of a
    a = np.arange(2, p)
    diagonal = [((int(x), 0), (0, pow(int(x), -1, p))) for x in a]
    stack = np.stack(list(build_many(rep, diagonal)))
    cols = trace_column(stack, pm)
    lam, mu = lattice_vectors(pm).T
    vals = split_trace_formula(lam, mu, a[:, None], pm)
    assert cols.shape == vals.shape == (len(a), p * p)
    assert np.array_equal(q.TraceFormula(diagonal, pm)(np.arange(p * p)).T, vals)
    for i, ai in enumerate(a.tolist()):
        assert np.abs(cols[i] - trace_column(stack[i], pm)).max() <= 1e-12
        assert np.array_equal(vals[i], split_trace_formula(lam, mu, ai, pm))
        assert split_trace_formula(1, 2, ai, pm) == vals[i][1 + 2 * p]


def test_egorov_deviation_stays_within_two_chunks_beyond_the_operator(rep_cache):
    # rho(fourier) at n = 2, p = 13 is 457 KB, more than CHUNK_BYTES: the
    # comparison cuts its rows instead of forming p^n x p^n temporaries
    pm = PrimeModulus(13, 2)
    rep = rep_cache(13, 2)
    f = rep.fourier[None]
    b = weil.fourier_matrix(pm)
    assert f.nbytes > CHUNK_BYTES
    tracemalloc.start()
    try:
        (dev,) = weil.egorov_deviation(f, [b], pm)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dev <= weil.egorov_tol(pm)
    assert dev == egorov_deviation_loop(rep.fourier, b, pm)
    assert peak <= 2 * CHUNK_BYTES


def test_linearize_builds_the_fourier_kernel_once(monkeypatch):
    pm = PrimeModulus(11, 2)
    real = weil._psi_dots
    calls = []

    def counted(pm):
        calls.append(pm)
        return real(pm)

    monkeypatch.setattr(weil, "_psi_dots", counted)
    rep = weil.linearize(pm)
    assert calls == [pm]
    assert rep.gamma == weil.solve_gamma(pm, weil.fourier_op(pm, 1.0))
    assert np.array_equal(rep.fourier, weil.fourier_op(pm, rep.gamma))
    assert not rep.fourier.flags.writeable


@pytest.mark.parametrize("n,p", [(1, 7), (1, 43), (1, 97), (2, 5), (2, 13)])
def test_orbit_rows_equal_the_sorted_labels(n, p, torus_cache, cat_map, sp4_elem,
                                            rep_cache):
    ctx = _context(n, p, cat_map, sp4_elem, rep_cache, torus_cache)
    for got, want in zip(ctx.orbits, orbits_by_unique(ctx.torus), strict=True):
        assert np.array_equal(got, want)


def test_refined_rows_equal_the_per_character_loop(cat_map, rep_cache, torus_cache,
                                                   sp4_split13):
    contexts = [_context(1, p, cat_map, None, rep_cache, torus_cache) for p in (11, 19, 29)]
    for ctx in contexts + [sp4_split13]:
        rpt = q.refined_bound(ctx)
        rows, generic_ok, max_nongeneric = refined_rows_loop(ctx)
        assert rpt.applicable and rpt.rows == rows
        assert (rpt.generic_ok, rpt.max_nongeneric) == (generic_ok, max_nongeneric)


def test_factorization_counts_equal_the_per_character_loop(sp4_split13):
    # the one-factor tables' one orientation is the one measured at n = 2
    assert measure_split_sign(sp4_split13.pm, sp4_split13.rep) == -1
    rpt = q.factorization_check(sp4_split13)
    assert ((rpt.matched_all_reconciled, rpt.matched_generic, rpt.max_rel_err)
            == factorization_counts_loop(sp4_split13))


def test_bound_records_are_built_when_read(sp4_split13):
    # a prefix, an entry and the subsets agree with the full list
    rpt = q.verify_que_bound(sp4_split13)
    full = list(rpt.violations)
    assert len(full) == len(rpt.violations) > 8
    assert rpt.violations[:8] == full[:8] and rpt.violations[-1] == full[-1]
    assert rpt.violations == full and not rpt.ok
    exps = {chi.exps: i for i, chi in enumerate(sp4_split13.chis)}
    dims = sp4_split13.decomposition.dims
    dim1 = [v for v in full if dims[sp4_split13.inverse_index[exps[v[1]]]] == 1]
    assert list(rpt.dim1_violations) == dim1 and rpt.ok_dim1 == (not dim1)
    witnesses = cli._check_bound(sp4_split13, None).witnesses
    assert [(w["xi"], w["chi_exps"], w["abs_a"], w["bound"]) for w in witnesses[:8]] == full[:8]


def _small_chunks(monkeypatch, pm):
    """Shrink CHUNK_BYTES so `quevaluator.lattice_chunks` cuts the p^{2n}
    flat indices into at least three chunks and a partial last one."""
    total = pm.dim ** 2
    rows = total // 3 - 1
    monkeypatch.setattr(heisenberg, "CHUNK_BYTES", 16 * pm.n * rows)
    chunks = list(q.lattice_chunks(pm))
    assert len(chunks) >= 4 and 0 < len(chunks[-1]) < rows == len(chunks[0])
    assert np.array_equal(np.concatenate(chunks), np.arange(total))


@pytest.mark.parametrize("n,p", [(1, 7), (1, 13), (2, 5), (2, 13)])
def test_chunked_lattice_maps_equal_the_whole_table(n, p, torus_cache, cat_map,
                                                    sp4_elem, monkeypatch):
    # the split frame where p splits, else any invertible frame: the mask
    # reads S0^-1 only
    torus = torus_cache(p, n)
    pm = torus.pm
    elem = cat_map if n == 1 else sp4_elem
    if torus.split_type == "split":
        transport = q.build_split_transport(elem.matrix, pm, elem.charpoly)
    else:
        g = torus.generators[0][0]
        transport = q.SplitTransport(pm, g, ffcore.mat_inv_modp(g, p), ())
    labels, mask = orbit_labels_full(torus), generic_mask_full(transport)
    assert mask.any() and not mask.all()
    _small_chunks(monkeypatch, pm)
    assert np.array_equal(q.orbit_labels(torus), labels)
    assert np.array_equal(transport.generic_mask(), mask)


def _assert_records_equal_the_eager_expansion(ctx, count):
    rpt = q.verify_que_bound(ctx)
    violations, dim1, generic = eager_violations(ctx)
    assert len(rpt.violations) == len(violations) == count
    for lazy, eager in ((rpt.violations, violations), (rpt.dim1_violations, dim1),
                        (rpt.generic_violations, generic)):
        assert len(lazy) == len(eager) and list(lazy) == eager and lazy == eager
        assert lazy[:8] == eager[:8] and lazy[5:9] == eager[5:9]
        assert lazy[len(eager):] == [] and lazy[3:3] == []
        if eager:
            assert lazy[-1] == eager[-1] and lazy[len(eager) // 2] == eager[len(eager) // 2]
            assert lazy[::7] == eager[::7] and lazy[-3:1:-5] == eager[-3:1:-5]
    assert rpt.ok == (not violations) and rpt.ok_dim1 == (not dim1)
    return rpt


@pytest.mark.parametrize("small", [False, True])
def test_lazy_records_equal_the_eager_expansion_n1(small, cat_map, rep_cache, torus_cache,
                                                   monkeypatch):
    ctx = _context(1, 11, cat_map, None, rep_cache, torus_cache)
    ctx.sums
    if small:
        _small_chunks(monkeypatch, ctx.pm)
    rpt = _assert_records_equal_the_eager_expansion(ctx, 2 * (11 - 1))
    assert len(rpt.dim1_violations) == 0 and len(rpt.generic_violations) == 0


def test_lazy_records_equal_the_eager_expansion_split13(sp4_split13, monkeypatch):
    sp4_split13.sums
    _small_chunks(monkeypatch, sp4_split13.pm)
    rpt = _assert_records_equal_the_eager_expansion(sp4_split13, 26928)
    assert len(rpt.dim1_violations) == 8976 and rpt.violations != rpt.dim1_violations


def test_lazy_records_equal_the_eager_expansion_product19(sp4_product19):
    rpt = _assert_records_equal_the_eager_expansion(sp4_product19, 127680)
    assert rpt.violations == rpt.dim1_violations
