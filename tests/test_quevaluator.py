import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from torusque import cli, ffcore, hecke, quevaluator as q
from torusque.ffcore import PrimeModulus, identity_mat, legendre, mat_mod
from torusque.heisenberg import (CHUNK_BYTES, BudgetExceeded, FourierPolynomial, pi_exponents,
                                 root_table)

from oracles import (averaged_fixture_checks, build, build_many, build_trace_table,
                     character_sum, character_sum_table, check_invariance,
                     cyclic_average_loop, dense_ops, diagonal_factor_sum,
                     diagonal_factor_tables_closed_form, dilate_op, eigenbasis_sum_table,
                     factor_coordinates, gauss_sum_oracle,
                     hermitian_symmetry_dev, is_generic, lattice_vectors,
                     matrix_order_modp, measure_split_sign, oriented_split_trace,
                     split_trace_formula, torus_average_loop, trace_column, transport_all,
                     transport_char, transport_xi, twisted_context, unflatten_xi)
from oracles import decompose as decompose_oracle


def test_trace_of_identity_pair(rep_cache):
    pm = PrimeModulus(7, 1)
    rep = rep_cache(7)
    ident = build(rep, identity_mat(2))
    assert abs(q.trace_pair((0, 0), ident, pm) - 7) < 1e-12
    for xi in ((1, 0), (0, 3), (2, 5)):
        assert abs(q.trace_pair(xi, ident, pm)) < 1e-12


def test_trace_periodicity_exact(rep_cache, torus_cache):
    pm = PrimeModulus(7, 1)
    rep = rep_cache(7)
    b = torus_cache(7).elements[3]
    dense = build(rep, b)
    assert q.trace_pair((2, 3), dense, pm) == q.trace_pair((2 + 7, 3 - 21), dense, pm)


def test_trace_table_matches_direct(cat_map, rep_cache, torus_cache):
    pm = PrimeModulus(7, 1)
    rep = rep_cache(7)
    torus = torus_cache(7)
    ops = dense_ops(rep, torus.elements)
    table = build_trace_table(torus, ops)
    rng = np.random.default_rng(7)
    for _ in range(30):
        xi = tuple(int(x) for x in rng.integers(0, 7, 2))
        b = torus.elements[int(rng.integers(torus.order))]
        assert abs(table.value(xi, b) - q.trace_pair(xi, ops[b], pm)) < 1e-12


@pytest.mark.parametrize("n,p", [(1, 7), (1, 43), (2, 5), (2, 13)])
def test_trace_column_matches_trace_pair(n, p, rep_cache, torus_cache):
    # the one-matmul column against the per-value route, every xi, five B
    pm = PrimeModulus(p, n)
    rep = rep_cache(p, n)
    torus = torus_cache(p, n)
    picks = np.linspace(0, torus.order - 1, 5).astype(int)
    worst = 0.0
    for dense in build_many(rep, [torus.elements[bi] for bi in picks]):
        col = trace_column(dense, pm)
        ref = [q.trace_pair(unflatten_xi(k, pm), dense, pm)
               for k in range(p ** (2 * n))]
        worst = max(worst, float(np.abs(col - np.array(ref)).max()))
    assert worst < 1e-12


def test_invariance_under_conjugation(cat_map, rep_cache, torus_cache):
    # F(xi, B) = F(S xi, S B S^-1) over random triples
    pm = PrimeModulus(7, 1)
    rep = rep_cache(7)
    torus = torus_cache(7)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        xi = tuple(int(x) for x in rng.integers(0, 7, 2))
        b = torus.elements[int(rng.integers(torus.order))]
        while True:
            a, bb, c = (int(x) for x in rng.integers(0, 7, 3))
            if a:
                s = ((a, bb), (c, (1 + bb * c) * pow(a, -1, 7) % 7))
                break
        worst = max(worst, check_invariance(xi, b, s, rep, pm))
    assert worst < 1e-8


def test_invariance_identity_conjugator(cat_map, rep_cache, torus_cache):
    pm = PrimeModulus(7, 1)
    b = torus_cache(7).elements[2]
    assert check_invariance((1, 2), b, identity_mat(2), rep_cache(7), pm) < 1e-14


def test_invariance_under_fourier_element(rep_cache):
    # S = the Fourier element, random xi, every B in SL2(F_5)
    from oracles import fourier_matrix
    from torusque.weil import sp_elements
    pm = PrimeModulus(5, 1)
    rep = rep_cache(5)
    s = fourier_matrix(pm)
    rng = np.random.default_rng(12)
    for b in sp_elements(pm)[::7]:
        xi = tuple(int(x) for x in rng.integers(0, 5, 2))
        assert check_invariance(xi, b, s, rep, pm) < 1e-9


def test_hermitian_symmetry(cat_map, rep_cache, torus_cache):
    pm = PrimeModulus(7, 1)
    rep = rep_cache(7)
    torus = torus_cache(7)
    rng = np.random.default_rng(9)
    for _ in range(40):
        xi = tuple(int(x) for x in rng.integers(0, 7, 2))
        b = torus.elements[int(rng.integers(torus.order))]
        assert hermitian_symmetry_dev(xi, b, rep, pm) < 1e-10


def test_character_sum_xi_zero_oracle(cat_map, rep_cache, torus_cache):
    # a_chi(0) = |T| * dim of the inverse character's eigenspace
    torus = torus_cache(7)
    rep = rep_cache(7)
    table = build_trace_table(torus, dense_ops(rep, torus.elements))
    dec = hecke.decompose(torus, rep)
    chis = hecke.characters(torus)
    for chi, dim in zip(chis, dec.dims):
        val = character_sum((0, 0), chi.inverse(), table)
        assert abs(val - torus.order * dim) < 1e-9


def test_parseval_identity(cat_map, rep_cache, torus_cache):
    torus = torus_cache(11)
    table = build_trace_table(torus, dense_ops(rep_cache(11), torus.elements))
    achi = character_sum_table(table)
    lhs = (np.abs(achi) ** 2).sum(axis=1)
    rhs = torus.order * (np.abs(table.values) ** 2).sum(axis=1)
    assert np.abs(lhs - rhs).max() < 1e-8 * max(1.0, rhs.max())


def test_split_trace_formula_examples():
    pm = PrimeModulus(11, 1)
    # lam * mu = 0 reduces to the quadratic symbol
    for a in (2, 3, 7):
        assert abs(split_trace_formula(0, 4, a, pm) - legendre(a, 11)) < 1e-12
    # a = -1 makes the phase vanish: value sigma(-1)
    assert abs(split_trace_formula(3, 5, 10, pm) - legendre(-1, 11)) < 1e-12


def test_split_trace_formula_p5_example(rep_cache):
    # p=5, lam=mu=1, a=2: (1+a)/(1-a) = -3 = 2, half of lam*mu*2 is 1, so the
    # value is sigma(2) psi(sign * 1) = -exp(sign * 2 pi i / 5)
    pm = PrimeModulus(5, 1)
    rep = rep_cache(5)
    sign = measure_split_sign(pm, rep)
    assert sign == -1
    val = split_trace_formula(1, 1, 2, pm)
    assert abs(val - (-np.exp(sign * 2j * np.pi / 5))) < 1e-12
    # and it equals the independent matrix trace
    b = ((2, 0), (0, 3))
    assert abs(val - q.trace_pair((1, 1), build(rep, b), pm)) < 1e-12


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
def test_embedded_diagonal_trace_at_n2(p, rep_cache):
    # rho(diag(a, 1, 1/a, 1)) factors as rho_1(diag(a, 1/a)) x I, so on the
    # plane xi = (lam, 0, mu, 0) its trace column is p times the n = 1 one,
    # and the orientation sign read through it is the n = 1 sign
    pm1, pm2 = PrimeModulus(p, 1), PrimeModulus(p, 2)
    rep1, rep2 = rep_cache(p), rep_cache(p, 2)
    lam, mu = np.meshgrid(np.arange(p), np.arange(p), indexing="ij")
    for a in range(2, p):
        ai = pow(a, -1, p)
        col1 = trace_column(build(rep1, ((a, 0), (0, ai))), pm1)
        col2 = trace_column(build(rep2, ((a, 0, 0, 0), (0, 1, 0, 0),
                                         (0, 0, ai, 0), (0, 0, 0, 1))), pm2)
        plane = col2[lam + p ** 2 * mu]
        assert np.abs(plane - p * col1[lam + p * mu]).max() < 1e-12
    assert measure_split_sign(pm2, rep2) == measure_split_sign(pm1, rep1)


@pytest.mark.parametrize("n,p", [(1, 3), (1, 5), (1, 7), (1, 11), (1, 13), (1, 43), (1, 97),
                                 (2, 5), (2, 7), (2, 13), (2, 19)])
def test_measured_orientation_is_the_programs_one(n, p, rep_cache):
    # the matrix trace picks -1, the orientation of the trace formula,
    # over its complex conjugate, at n = 2 through the embedded diagonal
    assert measure_split_sign(PrimeModulus(p, n), rep_cache(p, n)) == -1


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_a2_tells_the_orientations_apart_above_3(p):
    # the report header reads the orientation at xi = (1, 1), a = 2
    pm = PrimeModulus(p, 1)
    plus, minus = (oriented_split_trace(1, 1, 2, pm, sign) for sign in (1, -1))
    assert minus == split_trace_formula(1, 1, 2, pm) and plus == minus.conjugate()
    assert (abs(plus - minus) > 0.5) == (p > 3)


def test_split_trace_formula_rejects_bad_a():
    pm = PrimeModulus(7, 1)
    with pytest.raises(ValueError):
        split_trace_formula(1, 1, 0, pm)
    with pytest.raises(ValueError):
        split_trace_formula(1, 1, 1, pm)


def test_split_trace_formula_exhaustive_p11(rep_cache):
    pm = PrimeModulus(11, 1)
    rep = rep_cache(11)
    assert measure_split_sign(pm, rep) == -1
    worst = 0.0
    diagonal = [((a, 0), (0, pow(a, -1, 11))) for a in range(2, 11)]
    for a, dense in zip(range(2, 11), build_many(rep, diagonal)):
        for lam in range(11):
            for mu in range(11):
                worst = max(worst, abs(split_trace_formula(lam, mu, a, pm)
                                       - q.trace_pair((lam, mu), dense, pm)))
    assert worst < 1e-10


def test_split_trace_formula_array_form_p11():
    # integer arrays give an array equal, bit for bit, to the scalar form
    pm = PrimeModulus(11, 1)
    lam, mu = np.meshgrid(np.arange(11), np.arange(-11, 11), indexing="ij")
    for a in range(2, 11):
        vals = split_trace_formula(lam, mu, a, pm)
        assert vals.shape == lam.shape
        ref = np.array([[split_trace_formula(int(l), int(m), a, pm)
                         for l, m in zip(lr, mr)] for lr, mr in zip(lam, mu)])
        assert np.array_equal(vals, ref)
    assert isinstance(split_trace_formula(3, 4, 5, pm), complex)


def test_gauss_sum_oracle_examples():
    pm = PrimeModulus(11, 1)
    # c = 0, trivial character: sum of the quadratic symbol over a != 0, 1
    assert abs(gauss_sum_oracle(0, 0, pm) - (-1)) < 1e-12
    for c in range(1, 11):
        for k in range(10):
            assert abs(gauss_sum_oracle(c, k, pm)) <= 2 * np.sqrt(11) + 1e-9


def test_gauss_sum_oracle_matches_character_sums(cat_map, rep_cache, torus_cache):
    # cross-validation at the split prime 11, all characters, xi != 0
    pm = PrimeModulus(11, 1)
    rep = rep_cache(11)
    torus = torus_cache(11)
    table = build_trace_table(torus, dense_ops(rep, torus.elements))
    transport = q.build_split_transport(cat_map.matrix, pm, cat_map.charpoly)
    sign = measure_split_sign(pm, rep)
    _, dl = ffcore.dlog_table(11)
    chis = hecke.characters(torus)
    worst = 0.0
    for chi in chis:
        (k,) = transport_char(transport, chi, torus)
        for flat in range(1, 121):
            xi = unflatten_xi(flat, pm)
            (lam, mu), = factor_coordinates(transport, xi)
            if (lam, mu) == (0, 0):
                continue  # boundary: the a = 1 term p^n would be missing
            c = (sign * lam * mu * pm.nu) % 11
            worst = max(worst, abs(character_sum(xi, chi, table)
                                   - gauss_sum_oracle(c, k, pm, dl)))
    assert worst < 1e-10


def test_split_transport_structure(cat_map):
    pm = PrimeModulus(11, 1)
    tr = q.build_split_transport(cat_map.matrix, pm, cat_map.charpoly)
    assert ffcore.is_symplectic(tr.s0, p=11)
    assert tr.std_elem(tr.alphas) == mat_mod(cat_map.matrix, 11)
    with pytest.raises(ValueError):
        q.build_split_transport(cat_map.matrix, PrimeModulus(7, 1), cat_map.charpoly)


def test_verify_que_bound_nonsplit(cat_map, rep_cache, torus_cache):
    rpt = q.verify_que_bound(q.PrimeContext(cat_map, torus_cache(7), rep_cache(7)))
    assert rpt.ok and rpt.ok_dim1
    assert rpt.max_ratio <= 2.0
    assert rpt.parseval_max_dev < 1e-10
    assert rpt.xi0_oracle_max_dev < 1e-9
    # nonsplit: the order-2 character has an empty eigenspace, so its sums vanish
    assert rpt.exceptional_order2["dim"] == 0
    assert rpt.exceptional_order2["max_abs_sum"] < 1e-9


def test_verify_que_bound_split_defect(cat_map, rep_cache, torus_cache):
    # at split primes the order-2 character hits exactly p - 2 on the 2(p-1)
    # axis vectors; every one-dimensional character respects the bound
    rpt = q.verify_que_bound(q.PrimeContext(cat_map, torus_cache(11), rep_cache(11)))
    assert not rpt.ok
    assert rpt.ok_dim1
    assert len(rpt.violations) == 2 * (11 - 1)
    assert all(abs(v[2] - 9.0) < 1e-9 for v in rpt.violations)
    assert all(v[1] == rpt.exceptional_order2["exps"] for v in rpt.violations)
    assert not rpt.generic_violations
    assert rpt.exceptional_order2["dim"] == 2
    assert rpt.exceptional_order2["expected_axis_value"] == 11 - 2
    assert len(rpt.exceptional_order2["order2"]) == 1


def test_exceptional_order2_lists_every_order2_character_n2(sp4_split13):
    # Z_12 x Z_12 has three characters of order 2; the p - 2 axis value is
    # an n = 1 statement and is not claimed here
    exc = q.verify_que_bound(sp4_split13).exceptional_order2
    assert [(e["exps"], e["dim"]) for e in exc["order2"]] == [
        ((0, 6), 4), ((6, 0), 2), ((6, 6), 2)]
    assert [e["max_abs_sum"] for e in exc["order2"]] == pytest.approx(
        [264, 132, 132], rel=1e-9)
    assert (exc["exps"], exc["dim"]) == ((0, 6), 4)
    assert exc["max_abs_sum"] == pytest.approx(264, rel=1e-9)
    assert exc["expected_axis_value"] is None


def test_verify_que_bound_dim1_pairs_inverse_character(cat_map, rep_cache,
                                                       torus_cache):
    # column chi of the character-sum table belongs to H_{chi^-1}; a twisted
    # linearization (root index 1: a twist by a character of order 10) moves
    # the 2-dim eigenspace off the self-inverse order-2 character, so pairing
    # column chi with dim H_chi would admit the p - 2 column into the dim-1
    # population
    torus = torus_cache(11)
    twisted = twisted_context(cat_map, torus, rep_cache(11), root_index=1)
    chis = hecke.characters(torus)
    dims = twisted.decomposition.dims
    (big,) = [chi for chi, d in zip(chis, dims) if d == 2]
    assert big.inverse().exps != big.exps
    rpt = q.verify_que_bound(twisted)
    canon = q.verify_que_bound(q.PrimeContext(cat_map, torus, rep_cache(11)))
    assert rpt.ok_dim1
    assert abs(rpt.max_ratio_dim1 - canon.max_ratio_dim1) < 1e-9


def _break_one_orbit(sums):
    """sums with the row of one orbit xi != 0 scaled by 1.001."""
    out = sums.copy()
    out[1] *= 1.001
    return out


@pytest.mark.parametrize("p", [7, 11])
def test_verify_que_bound_raises_on_broken_identities(p, cat_map, rep_cache,
                                                      torus_cache):
    # one orbit's sums off by a factor 1.001 break Parseval, which is an
    # error, not a bound verdict
    ctx = q.PrimeContext(cat_map, torus_cache(p), rep_cache(p))
    rpt = q.verify_que_bound(ctx)
    assert rpt.parseval_max_dev <= q.IDENTITY_TOL
    assert rpt.xi0_oracle_max_dev / ctx.torus.order <= q.IDENTITY_TOL
    broken = q.PrimeContext(cat_map, torus_cache(p), rep_cache(p))
    broken.sums = _break_one_orbit(ctx.sums)
    with pytest.raises(RuntimeError, match="Parseval"):
        q.verify_que_bound(broken)


def test_broken_identities_fail_the_bound_check_with_an_error(tmp_path, monkeypatch):
    # the raise reaches the sweep's error-witness path at every prime
    real = q.character_sum_table
    monkeypatch.setattr(q, "character_sum_table", lambda ctx: _break_one_orbit(real(ctx)))
    out_json = tmp_path / "broken.json"
    assert cli.main(["sweep", "--pmin", "7", "--pmax", "11", "--checks", "bound",
                     "--out-json", str(out_json)]) == 1
    for rp in json.loads(out_json.read_text())["primes"]:
        (check,) = rp["checks"]
        assert check["status"] == "fail"
        (witness,) = check["witnesses"]
        assert witness["error"].startswith("RuntimeError: character sums break")


def test_averaged_fixture_bound(cat_map, rep_cache, torus_cache):
    f = FourierPolynomial({(1, 0): 0.5, (-1, 0): 0.5})
    rows = averaged_fixture_checks([f], q.PrimeContext(cat_map, torus_cache(7),
                                                       rep_cache(7)))
    assert rows and all(r["ok_rigorous"] for r in rows)


def test_refined_bound_split(cat_map, rep_cache, torus_cache):
    rpt = q.refined_bound(q.PrimeContext(cat_map, torus_cache(11), rep_cache(11)))
    assert rpt.applicable and rpt.generic_ok
    m1 = [r for r in rpt.rows if r["m"] == 1]
    assert len(m1) == 1
    # the refined character is the order-2 one: transported exponent (p-1)/2
    assert m1[0]["transported"] == (5,)
    assert m1[0]["generic_max"] <= 2.0 + 1e-9
    assert abs(m1[0]["nongeneric_max"] - 9.0) < 1e-9
    m0 = [r for r in rpt.rows if r["m"] == 0]
    assert all(r["refined_bound"] == pytest.approx(2 * np.sqrt(11)) for r in m0)


def test_refined_bound_nonsplit_inapplicable(cat_map, rep_cache, torus_cache):
    rpt = q.refined_bound(q.PrimeContext(cat_map, torus_cache(7), rep_cache(7)))
    assert not rpt.applicable


def _brute_force_labels(torus):
    """Least flat index of {B xi : B in T} for every xi, one element at a time."""
    p = torus.pm.p
    xis = lattice_vectors(torus.pm)
    weights = p ** np.arange(xis.shape[1])
    labels = np.arange(len(xis))
    for b in torus.elements:
        labels = np.minimum(labels, ((xis @ np.array(b).T) % p) @ weights)
    return labels


@pytest.mark.parametrize("n,p", [(1, 3), (1, 7), (1, 11), (1, 13), (2, 5), (2, 7),
                                 (2, 13)])
def test_orbit_labels_match_brute_force_scan(n, p, torus_cache):
    torus = torus_cache(p, n)
    labels = q.orbit_labels(torus)
    assert np.array_equal(labels, _brute_force_labels(torus))
    ctx = q.PrimeContext(None, torus, None)
    reps, row, sizes = ctx.orbits
    assert np.array_equal(reps[row], labels) and reps[0] == 0 and sizes[0] == 1
    assert (torus.order % sizes == 0).all()
    assert sizes.sum() == p ** (2 * n)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_inert_n2_orbits_are_free(p, torus_cache):
    # at an inert prime T acts freely on xi != 0: p^2 orbits, all but {0}
    # of size |T| = p^2 + 1
    torus = torus_cache(p, 2)
    assert torus.factor_degrees == [4]
    _, _, sizes = q.PrimeContext(None, torus, None).orbits
    assert len(sizes) == p ** 2
    assert (sizes[1:] == torus.order).all() and torus.order == p ** 2 + 1


def test_split_n2_orbit_sizes_vary(sp4_split13):
    # T = T_1 x T_2 in the split frame: a nonzero xi with one factor zero has
    # the other factor's torus as its stabilizer, so its orbit has p - 1
    # elements, not |T| = (p - 1)^2: 14 such orbits per factor
    _, _, sizes = sp4_split13.orbits
    assert sorted(sizes.tolist()) == [1] + [12] * 28 + [144] * 196


def test_refined_bound_raises_on_labels_that_break_the_generic_mask(
        cat_map, rep_cache, torus_cache, monkeypatch):
    # one generic xi relabelled into an axis orbit: the generic mask is no
    # longer constant on the orbits, which is an error, not a verdict
    ctx = q.PrimeContext(cat_map, torus_cache(11), rep_cache(11))
    assert q.refined_bound(ctx).generic_ok
    real = q.orbit_labels
    generic = ctx.transport.generic_mask()

    def corrupted(torus):
        labels = real(torus)
        k = next(k for k in range(len(labels)) if generic[k] and labels[k] != k)
        axis = next(k for k in range(1, len(labels)) if not generic[k])
        labels[k] = labels[axis]
        return labels

    monkeypatch.setattr(q, "orbit_labels", corrupted)
    broken = q.PrimeContext(cat_map, torus_cache(11), rep_cache(11))
    with pytest.raises(RuntimeError, match="not constant on torus orbits"):
        q.refined_bound(broken)


def test_context_keeps_one_dense_operator(sp4_elem):
    # after construction the context holds no p^n x p^n array, as rho keeps
    # its p x p one-digit kernels; the decomposition is built on first read
    # and is all it adds: no operator of a torus generator is kept
    pm = PrimeModulus(13, 2)
    tracemalloc.start()
    try:
        ctx = q.PrimeContext.build(sp4_elem, pm)
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traced < 1.5 * 16 * pm.dim ** 2
    built = vars(ctx).keys() - {"decomposition"}
    ctx.decomposition
    assert vars(ctx).keys() - built == {"decomposition"}
    assert vars(ctx.rep).keys() == {"pm", "gamma", "f1", "v1"}


def test_decomposition_keeps_only_its_basis(sp4_elem):
    # n = 2, p = 13 (k = 2 generators): the decomposition leaves its
    # p^n x p^n basis in the context and nothing of a generator's operator
    # (the dense stack left 3.02 arrays); while it runs, H, one rho(g_i),
    # the eigenvectors and one column block are alive (the stack route
    # peaked at 5.45 arrays); the eigenvalue solver's workspace is not traced
    pm = PrimeModulus(13, 2)
    dense = 16 * pm.dim ** 2
    ctx = q.PrimeContext.build(sp4_elem, pm)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ctx.decomposition
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    print(f"decomposition at n=2 p=13: holds {(held - before) / dense:.2f}, "
          f"peaks at {(peak - before) / dense:.2f} dense arrays")
    assert held - before <= 1.05 * dense
    assert peak - before < 4 * dense


def test_table_raises_on_a_passed_deadline(cat_map, rep_cache, torus_cache):
    # a passed deadline is a budget skip before the first chunk, and no
    # partial table is kept for a later reader
    ctx = q.PrimeContext(cat_map, torus_cache(13), rep_cache(13))
    ctx.deadline = -1.0
    with pytest.raises(BudgetExceeded):
        q.character_sum_table(ctx)
    with pytest.raises(BudgetExceeded):
        ctx.sums
    assert "sums" not in vars(ctx)
    ctx.deadline = None
    assert ctx.sums.shape == (len(ctx.orbits[0]), ctx.torus.order)


def test_table_and_readers_form_no_xi_by_chi_array(sp4_inert23):
    # tracemalloc peaks of the orbit labels, the table and each reader at
    # n = 2, p = 23 stay below half of one p^4 x |T| boolean array: a
    # reintroduced expansion of the table, or of a mask of its shape, to
    # every xi would cross it.  The table's own transients, beyond the table
    # and the (|T|, 4n^2) arrays of its trace formula, are a few chunks of
    # CHUNK_BYTES, not a multiple of the (orbits, |T|) table
    ctx = sp4_inert23
    ctx.orbits
    limit = ctx.pm.dim ** 2 * ctx.torus.order // 2
    steps = {"orbit_labels": lambda: q.orbit_labels(ctx.torus),
             "table": lambda: q.character_sum_table(ctx),
             "bound": lambda: q.verify_que_bound(ctx),
             "refined": lambda: q.refined_bound(ctx)}
    peaks = {}
    tracemalloc.start()
    try:
        for name, step in steps.items():
            tracemalloc.reset_peak()
            step()
            peaks[name] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"tracemalloc peaks at n=2 p=23: {peaks}, limit {limit}")
    assert max(peaks.values()) < limit, (peaks, limit)
    table_bytes = ctx.sums.nbytes
    formula_bytes = 8 * ctx.torus.order * (2 * ctx.pm.n) ** 2
    assert table_bytes > 8 * CHUNK_BYTES
    assert peaks["table"] < table_bytes + 4 * formula_bytes + 8 * CHUNK_BYTES, peaks


def _traced_peak(step) -> int:
    """tracemalloc peak of step() above what was traced before it, bytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        step()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_bound_check_holds_no_record_arrays(sp4_product19):
    # n = 2, p = 19: 127,680 violations, which the records keep at orbit
    # level; the check's transient is the real |a| table (about 1 MiB) and
    # small arrays, where index arrays per violating (xi, chi) held 8.4 MiB
    ctx = sp4_product19
    ctx.sums
    peak = _traced_peak(lambda: q.verify_que_bound(ctx))
    print(f"verify_que_bound at n=2 p=19: {peak / 2 ** 20:.2f} MiB")
    assert peak < 2 * 2 ** 20


def test_orbit_stage_holds_a_few_label_arrays(sp4_inert23):
    # n = 2, p = 23: the labels, one generator's flat-index permutation and
    # one temporary of their size, then the rows; the whole p^4 x 4 lattice
    # table and its image held about 13 label arrays
    torus = sp4_inert23.torus
    labels_bytes = 8 * torus.pm.dim ** 2
    fresh = q.PrimeContext(None, torus, None)
    peaks = {"orbit_labels": _traced_peak(lambda: q.orbit_labels(torus)),
             "orbits": _traced_peak(lambda: fresh.orbits)}
    print(f"orbit stage at n=2 p=23, in label arrays: "
          f"{ {k: round(v / labels_bytes, 2) for k, v in peaks.items()} }")
    assert max(peaks.values()) < 5 * labels_bytes


def test_decompose_holds_at_most_three_dense_arrays(sp4_inert23):
    # H with one rho(g) being added, then the eigenbasis with one column
    # block of rho(g) V, then the sorted basis; the eigenvalue solver's own
    # workspace is not traced
    ctx = sp4_inert23
    dense = 16 * ctx.pm.dim ** 2
    peak = _traced_peak(lambda: hecke.decompose(ctx.torus, ctx.rep))
    print(f"decompose at n=2 p=23: {peak / dense:.2f} dense arrays")
    assert peak <= 3 * dense


def test_cyclic_vs_hecke_demo_coincide_at_p7(cat_map, rep_cache, torus_cache):
    # order of the cat map mod 7 is 8 = |C_A|: the two averages coincide and
    # no degenerate superposition rows exist
    rows, meta = q.cyclic_vs_hecke_demo(
        q.PrimeContext(cat_map, torus_cache(7), rep_cache(7)))
    assert meta["cyclic_equals_torus"]
    assert meta["max_column_gap"] == 0.0
    for r in rows:
        assert abs(r.cyclic_avg - r.hecke_avg) < 1e-9
        assert r.hecke_ok


def test_cyclic_vs_hecke_demo_differ(cat_map, rep_cache, torus_cache):
    # p = 11: the cat map has order 5 inside a torus of order 10, and on
    # degenerate eigenspaces of the quantized map the columns separate
    rows, meta = q.cyclic_vs_hecke_demo(
        q.PrimeContext(cat_map, torus_cache(11), rep_cache(11)))
    assert meta["cyclic_order"] == 5 and meta["torus_order"] == 10
    assert meta["max_column_gap"] > 0.05
    pure = [r for r in rows if r.label.startswith("chi=")]
    assert pure and all(abs(r.cyclic_avg - r.hecke_avg) < 1e-9 for r in pure)
    assert all(r.hecke_ok for r in rows)


def _demo_lines(ctx, rows):
    """The one or two dim-1 eigenvectors behind each demo row: "chi=(k,)"
    or "mix chi=(k1,)+(k2,)"."""
    import re
    from ast import literal_eval

    line = {chi.exps: basis[:, 0] for chi, basis, dim in ctx.decomposition.entries
            if dim == 1}
    return [[line[literal_eval(t)] for t in re.findall(r"\([^)]*\)", r.label)]
            for r in rows]


def _demo_context(n, p, cat_map, rep_cache, torus_cache, sp4_split13, sp4_product19,
                  sp4_elem):
    if n == 1:
        return q.PrimeContext(cat_map, torus_cache(p), rep_cache(p))
    return {13: sp4_split13, 19: sp4_product19}.get(p) or \
        q.PrimeContext.build(sp4_elem, PrimeModulus(p, n))


@pytest.mark.parametrize("n,p", [(1, 7), (1, 11), (1, 43), (2, 13), (2, 19)],
                         ids=["7", "11", "43", "2-13", "2-19"])
def test_orbit_averages_equal_per_vector_loop(n, p, cat_map, sp4_elem, sp4_split13,
                                              sp4_product19, rep_cache, torus_cache):
    # the demo's cyclic column, read by Egorov from one T(xi), against the
    # time average over the whole orbit A^k xi, one vector and one T(A^k xi)
    # at a time; n = 1, p = 11 and n = 2, p = 13 and 19 have mix rows, whose
    # column gap is the cross term the time average keeps
    pm = PrimeModulus(p, n)
    ctx = _demo_context(n, p, cat_map, rep_cache, torus_cache, sp4_split13,
                        sp4_product19, sp4_elem)
    rows, meta = q.cyclic_vs_hecke_demo(ctx)
    a_mod, order = mat_mod(ctx.elem.matrix, p), meta["cyclic_order"]
    assert order == matrix_order_modp(ctx.elem.matrix, p)
    xi = (1,) + (0,) * (2 * n - 1)
    src, expo = pi_exponents(xi, pm)
    phase = root_table(p)[expo]
    tol = 1e-12 if n == 1 else 1e-11
    mixes = 0
    for r, parts in zip(rows, _demo_lines(ctx, rows)):
        v = parts[0] if len(parts) == 1 else (parts[0] + parts[1]) / np.sqrt(2)
        assert abs(r.cyclic_avg - cyclic_average_loop(a_mod, xi, order, v, pm)) <= tol
        if len(parts) == 2:
            mixes += 1
            vi, vj = parts
            cross = np.vdot(vi, phase * vj[src]) + np.vdot(vj, phase * vi[src])
            assert abs(abs(r.cyclic_avg - r.hecke_avg) - abs(cross) / 2) <= 1e-12
    assert mixes == {11: 4, 13: 6, 19: 20}.get(p, 0)


def test_demo_reads_one_gather_of_t_xi(sp4_product19, monkeypatch):
    # no walk along the A-orbit: one (src, expo) of T(xi), no per-power
    # gathers and no matrix products
    ctx = sp4_product19
    ctx.decomposition
    calls = []

    def counted(name):
        real = getattr(q, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for name in ("pi_exponents", "mat_mul"):
        monkeypatch.setattr(q, name, counted(name))
    assert not hasattr(q, "pi_exponents_many")      # no stacked gather to call
    rows, meta = q.cyclic_vs_hecke_demo(ctx)
    assert calls == ["pi_exponents"]
    assert meta["cyclic_order"] == 20 and len(rows) == 361 + 20


@pytest.mark.parametrize("n,p", [(1, 7), (1, 11), (1, 13), (2, 5), (2, 13), (2, 19)])
def test_torus_averages_equal_per_block_loop(n, p, cat_map, sp4_elem, sp4_split13,
                                             sp4_product19, rep_cache, torus_cache):
    # the demo's torus column, a mix's being the mean of its two lines,
    # against one eigenspace projection at a time; n = 1, p = 11 and the
    # split n = 2, p = 13 have eigenspaces of dim > 1, n = 2, p = 5 has one
    # of dim 0
    ctx = _demo_context(n, p, cat_map, rep_cache, torus_cache, sp4_split13,
                        sp4_product19, sp4_elem)
    dec = ctx.decomposition
    assert (max(dec.dims) > 1) == ((n, p) in [(1, 11), (2, 13)])
    xi = (1,) + (0,) * (2 * n - 1)
    rows = q.cyclic_vs_hecke_demo(ctx)[0]
    for r, parts in zip(rows, _demo_lines(ctx, rows)):
        v = parts[0] if len(parts) == 1 else (parts[0] + parts[1]) / np.sqrt(2)
        assert abs(r.hecke_avg - torus_average_loop(v, dec, xi)) <= 1e-12


def test_diagonal_factor_sum_boundary():
    pm = PrimeModulus(11, 1)
    # xi = 0: dominated by the a = 1 boundary term p
    val = diagonal_factor_sum(0, 0, 0, pm, sign=-1)
    oracle = gauss_sum_oracle(0, 0, pm)
    assert abs(val - (11 + oracle)) < 1e-12


@pytest.mark.parametrize("p", [7, 13])
def test_diagonal_factor_tables_match_scalar_sums(p):
    pm = PrimeModulus(p, 1)
    tables = q.diagonal_factor_tables(range(p - 1), pm)
    for k, tab in tables.items():
        ref = np.array([[diagonal_factor_sum(lam, mu, k, pm)
                         for mu in range(p)] for lam in range(p)])
        assert np.abs(tab - ref).max() < 1e-12


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_diagonal_factor_tables_equal_the_closed_form_route(p):
    # the general formula at diag(a, 1/a) gives the closed form's residues
    # and signs, so the tables are the same floats, bit for bit
    pm = PrimeModulus(p, 1)
    tables = q.diagonal_factor_tables(range(p - 1), pm)
    ref = diagonal_factor_tables_closed_form(range(p - 1), pm)
    assert tables.keys() == ref.keys()
    assert all(np.array_equal(tables[k], ref[k]) for k in ref)


@pytest.mark.parametrize("p", [13, 19])
def test_trace_formula_at_singular_torus_elements(p, sp4_elem, rep_cache, torus_cache):
    # the torus elements with B - I singular (a trivial factor of T = T_1 x
    # T_2 at the product primes 13 and 19: 2 |T_1| - 1 of them) against the
    # matrix trace of the dense rho(B) at every xi
    pm = PrimeModulus(p, 2)
    torus = torus_cache(p, 2)
    elems = np.array(torus.elements, dtype=np.int64)
    det = ffcore.gauss_jordan_modp(elems - np.eye(4, dtype=np.int64), p)[0]
    singular = elems[det == 0]
    assert len(singular) == 2 * torus.gen_orders[0] - 1 == {13: 23, 19: 39}[p]
    vals = q.TraceFormula(singular, pm)(np.arange(pm.dim ** 2))
    worst = max(float(np.abs(trace_column(op, pm) - vals[:, i]).max())
                for i, op in enumerate(build_many(rep_cache(p, 2), singular)))
    assert worst <= 1e-9, worst


def test_trace_formula_raises_where_it_does_not_apply():
    # a transvection has B - I of rank 1, and U(I) at n = 2 a nilpotent
    # B - I of rank 2: no value is returned for either
    with pytest.raises(ValueError, match="even rank"):
        q.TraceFormula([((1, 1), (0, 1))], PrimeModulus(7, 1))
    shear = ((1, 0, 1, 0), (0, 1, 0, 1), (0, 0, 1, 0), (0, 0, 0, 1))
    with pytest.raises(ValueError, match="even rank"):
        q.TraceFormula([shear], PrimeModulus(7, 2))
    assert q.TraceFormula([identity_mat(4)], PrimeModulus(7, 2))(np.arange(3))[:, 0].tolist() \
        == [49, 0, 0]


def test_twisted_context_reads_the_eigenbasis_table(cat_map, rep_cache, torus_cache):
    # the formula is the canonical rho's, so a twisted context is given the
    # eigenbasis table of its own generators
    torus = torus_cache(11)
    twisted = twisted_context(cat_map, torus, rep_cache(11), root_index=1)
    canon = q.PrimeContext(cat_map, torus, rep_cache(11))
    assert np.array_equal(twisted.sums, eigenbasis_sum_table(twisted))
    assert twisted.dims == twisted.decomposition.dims != canon.dims
    assert np.abs(twisted.sums - canon.sums).max() > 1.0


def test_factorization_conjugated_standard_oracle(sp4_elem, sp4_split13):
    # rho(S0) dilate(t) rho(S0)^dagger, the conjugated-standard construction,
    # is the canonical rho on every element S0 t S0^-1 of the split torus
    torus, rep = sp4_split13.torus, sp4_split13.rep
    pm = torus.pm
    tr = q.build_split_transport(sp4_elem.matrix, pm, sp4_elem.charpoly)
    w = build(rep, tr.s0)
    ops = dense_ops(rep, torus.elements)
    worst = 0.0
    for b in torus.elements:
        t = ffcore.mat_mul(ffcore.mat_mul(tr.s0_inv, b, mod=13), tr.s0, mod=13)
        oracle = w @ dilate_op(((t[0][0], t[0][1]), (t[1][0], t[1][1])),
                               pm) @ w.conj().T
        worst = max(worst, float(np.abs(oracle - ops[b]).max()))
    assert torus.order == 144
    assert worst < 1e-9


def test_factorization_check_reuses_table(sp4_elem, sp4_split13):
    rpt = q.factorization_check(sp4_split13)
    assert rpt.ok and rpt.matched_all_reconciled == rpt.pairs_total
    assert (rpt.generic_pairs, rpt.pairs_total) == (2985984, 4112640)


def _reference_violations(elem, pm, torus, rep, rtol=1e-6):
    """The per-xi scan over the dense sums table, kept as verify_que_bound's
    oracle: trace table, character table and projector-stack dims."""
    p, n = pm.p, pm.n
    chis = hecke.characters(torus)
    ops = dense_ops(rep, torus.elements)
    mags = np.abs(character_sum_table(build_trace_table(torus, ops)))
    dims = decompose_oracle(torus, ops).dims
    bound = 2 ** n * p ** (n / 2)
    inv_idx = [[c.exps for c in chis].index(chi.inverse().exps) for chi in chis]
    dim1_cols = [i for i in range(len(chis)) if dims[inv_idx[i]] == 1]
    transport = None
    if torus.split_type == "split":
        transport = q.build_split_transport(elem.matrix, pm, elem.charpoly)
    violations, dim1, generic = [], [], []
    for k in range(1, p ** (2 * n)):
        row = mags[k]
        for ci in np.nonzero(row > bound + bound * rtol)[0]:
            xi = unflatten_xi(k, pm)
            rec = (xi, chis[ci].exps, float(row[ci]), bound)
            violations.append(rec)
            if ci in dim1_cols:
                dim1.append(rec)
            if transport is not None and is_generic(transport, xi):
                generic.append(rec)
    return violations, dim1, generic


def _same_records(got, ref):
    """xi, chi and the bound exactly, |a| to 1e-9 relative (the streamed and
    the dense sums differ in roundoff only)."""
    assert [(r[0], r[1], r[3]) for r in got] == [(r[0], r[1], r[3]) for r in ref]
    assert np.allclose([r[2] for r in got], [r[2] for r in ref], rtol=1e-9, atol=0)


def _assert_violations_match_reference(ctx):
    rpt = q.verify_que_bound(ctx)
    violations, dim1, generic = _reference_violations(
        ctx.elem, ctx.pm, ctx.torus, ctx.rep)
    _same_records(rpt.violations, violations)
    _same_records(rpt.dim1_violations, dim1)
    _same_records(rpt.generic_violations, generic)
    return rpt


def test_verify_que_bound_lists_match_per_xi_scan_n1(cat_map, rep_cache,
                                                     torus_cache):
    rpt = _assert_violations_match_reference(
        q.PrimeContext(cat_map, torus_cache(11), rep_cache(11)))
    assert len(rpt.violations) == 2 * (11 - 1)


def test_verify_que_bound_lists_match_per_xi_scan_n2(sp4_elem, sp4_split13):
    pm = sp4_split13.pm
    rpt = _assert_violations_match_reference(sp4_split13)
    assert len(rpt.dim1_violations) == 8976
    assert not rpt.generic_violations  # every violation is off the generic stratum
    # the vectorized split frame agrees with the per-xi transport
    transport = q.build_split_transport(sp4_elem.matrix, pm, sp4_elem.charpoly)
    etas = transport_all(transport)
    mask = transport.generic_mask()
    for k in range(13 ** 4):
        xi = unflatten_xi(k, pm)
        assert tuple(etas[k]) == transport_xi(transport, xi)
        assert mask[k] == is_generic(transport, xi)


def test_transported_matches_per_character_route(cat_map, rep_cache, torus_cache,
                                                 sp4_split13):
    # the |T| x n integer array against one Fraction route per character, at
    # every n = 1 split prime <= 97 and at n = 2, p = 13
    split = [p for p in ffcore.odd_primes(3, 97) if p != 5 and legendre(5, p) == 1]
    contexts = [q.PrimeContext(cat_map, torus_cache(p), rep_cache(p)) for p in split]
    for ctx in contexts + [sp4_split13]:
        assert ctx.transport is not None
        ref = [transport_char(ctx.transport, chi, ctx.torus) for chi in ctx.chis]
        assert ctx.transported.shape == (ctx.torus.order, ctx.pm.n)
        assert [tuple(row) for row in ctx.transported.tolist()] == ref
