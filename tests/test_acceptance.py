"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 4 and 5 assert the Hecke statements exactly as documented, split-prime
exception included.  Under the canonical linearization (certified unique by
exhaustive multiplicativity) the order-2 torus character carries a
2-dimensional eigenspace at split primes and none at nonsplit primes, while
every other character carries exactly one line.  In the split frame
rho(diag(a, a^-1)) f(x) = sigma(a) f(a^-1 x), so H_sigma = span(delta_0,
1_{F_p^*}) and the order-2 character sums equal exactly +-(p - 2) on the
2(p - 1) axis vectors, exceeding 2 sqrt(p) for every split p >= 11 (cf.
Kurlberg-Rudnick, Duke Math. J. 103, 2000).  Criterion 4 pins those dimensions
and criterion 5 pins the violations to that character, those vectors and that
value; any other dimension, character or value fails them.  The supplements
at the bottom restate the scoped bound on one-dimensional characters (sharp
ratios approaching the constant 2^n).
"""

import time

import numpy as np

from torusque import ffcore, hecke, quevaluator as q, weil
from torusque.classical import birkhoff_many
from torusque.ffcore import PrimeModulus, odd_primes
from torusque.heisenberg import check_relations

from oracles import (SpFactor, build_many, build_trace_table, character_sum_table,
                     diagonal_factor_sum, egorov_deviation_loop, factor_coordinates,
                     flatten_xi, generator_ops, lattice_vectors, linearize_on_torus, mat_det,
                     measure_split_sign, relation_grid, split_trace_formula, transport_char,
                     twisted_context, word_matrix, word_operator)


def _line(num, ok, detail):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")


NONDEG_N1 = [p for p in odd_primes(3, 97) if p != 5]  # disc 5: only p=5 degenerate
SPLIT_N1 = [p for p in NONDEG_N1 if ffcore.legendre(5, p) == 1]


def test_criterion_1_relations():
    # the 2n p^(2n) pairs at the unit vectors, which prove the p^(4n) grid,
    # against the grid itself (tests/oracles.py)
    t0 = time.time()
    worst = 0.0
    total_pairs = 0
    for n, primes in ((1, (3, 5, 7, 11, 13)), (2, (3, 5))):
        for p in primes:
            pm = PrimeModulus(p, n)
            r, grid = check_relations(pm), relation_grid(pm)
            worst = max(worst, r.max_dev)
            total_pairs += r.pairs_checked
            assert r.pairs_checked == 2 * n * p ** (2 * n)
            assert grid.pairs_checked == p ** (4 * n)
            assert (r.epsilon, r.ok) == (grid.epsilon, grid.ok)
    elapsed = time.time() - t0
    ok = worst == 0 and elapsed < 30
    _line(1, ok, f"{total_pairs} pairs, max deviation {worst:.2e}, "
                 f"{elapsed:.1f}s (< 30s)")
    assert worst == 0
    assert elapsed < 30


def test_criterion_2_egorov(cat_map, sp4_elem, rep_cache):
    worst_rel = 0.0
    rng = np.random.default_rng(20240902)
    for p in (3, 5, 7):
        pm = PrimeModulus(p, 1)
        rep = rep_cache(p)
        xis = [(1, 0), (0, 1)] + [tuple(int(x) for x in rng.integers(0, p, 2))
                                  for _ in range(50)]
        tol = 1e-9 * p ** 0.5
        group = weil.sp_elements(pm)
        for b, dense in zip(group, build_many(rep, group)):
            dev = egorov_deviation_loop(dense, b, pm, xis)
            worst_rel = max(worst_rel, dev / tol)
    for p in (3, 5, 7):
        pm = PrimeModulus(p, 2)
        tol = 1e-9 * p
        torus = hecke.centralizer(sp4_elem.matrix, pm, sp4_elem.charpoly)
        trep = linearize_on_torus(torus, rep_cache(p, 2))
        xis = [tuple(1 if i == j else 0 for i in range(4)) for j in range(4)] \
            + [tuple(int(x) for x in rng.integers(0, p, 4)) for _ in range(50)]
        for b in torus.elements:
            dev = egorov_deviation_loop(trep[b], b, pm, xis)
            worst_rel = max(worst_rel, dev / tol)
        gamma = weil.solve_gamma(pm, weil.fourier_op(pm, 1.0))
        for _ in range(20):
            word = _random_word(pm, rng)
            b = word_matrix(word, pm)
            dense = word_operator(word, pm, gamma)
            dev = egorov_deviation_loop(dense, b, pm, xis)
            worst_rel = max(worst_rel, dev / tol)
    ok = worst_rel <= 1.0
    _line(2, ok, f"max deviation = {worst_rel:.2e} x the 1e-9 p^(n/2) tolerance")
    assert ok


def _random_word(pm, rng):
    word = []
    for _ in range(int(rng.integers(1, 4))):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            s = rng.integers(0, pm.p, size=(pm.n, pm.n))
            s = (s + s.T) % pm.p
            word.append(SpFactor("shear",
                                 tuple(tuple(int(x) for x in r) for r in s)))
        elif kind == 1:
            while True:
                m = tuple(tuple(int(x) for x in rng.integers(0, pm.p, pm.n))
                          for _ in range(pm.n))
                if mat_det(m) % pm.p != 0:
                    break
            word.append(SpFactor("dilate", m))
        else:
            word.append(SpFactor("fourier"))
    return word


def test_criterion_3_linearization(cat_map, sp4_elem, rep_cache):
    r3 = weil.check_multiplicativity(
        rep_cache(3), tol=1e-9,
        probe=weil.probe_block(PrimeModulus(3, 1), 3))
    r5 = weil.check_multiplicativity(
        rep_cache(5), tol=1e-9,
        probe=weil.probe_block(PrimeModulus(5, 1), 5))
    assert r3.pairs_checked == 576 and r5.pairs_checked == 14400
    worst_gen = 0.0
    for p in (3, 7, 11, 13):
        pm = PrimeModulus(p, 1)
        torus = hecke.centralizer(cat_map.matrix, pm, cat_map.charpoly)
        trep = linearize_on_torus(torus, rep_cache(p))
        for g, order in torus.generators:
            dev = np.abs(np.linalg.matrix_power(trep[g], order)
                         - np.eye(pm.dim)).max()
            worst_gen = max(worst_gen, float(dev))
    for p in (3, 5, 7):
        pm = PrimeModulus(p, 2)
        torus = hecke.centralizer(sp4_elem.matrix, pm, sp4_elem.charpoly)
        trep = linearize_on_torus(torus, rep_cache(p, 2))
        for g, order in torus.generators:
            dev = np.abs(np.linalg.matrix_power(trep[g], order)
                         - np.eye(pm.dim)).max()
            worst_gen = max(worst_gen, float(dev))
    ok = r3.ok and r5.ok and worst_gen <= 1e-9
    _line(3, ok, f"SL2(F3) 576 pairs dev {r3.max_dev:.2e}, SL2(F5) 14400 pairs "
                 f"dev {r5.max_dev:.2e}, torus generator order dev {worst_gen:.2e}")
    assert ok


def test_criterion_4_decomposition(cat_map, sp4_elem, rep_cache):
    """Sum of dims = p^n; cat map p = 7 gives the (0, 1, ..., 1) pattern over
    8 characters.

    n = 1 at p in (3, 7, 11, 13): the order-2 character has dim 2 at split
    primes and dim 0 at nonsplit primes; every other character, the trivial
    one included, has dim 1.  At p = 11 the 10 characters carry 11
    dimensions, so the split-prime dim 2 is forced by counting.
    n = 2 at p in (3, 5, 7): dim <= 1 for chi != 1.
    """
    sums_ok = True
    pattern7_ok = False
    exceptions = []
    clause_violations = []
    for p in (3, 7, 11, 13):
        pm = PrimeModulus(p, 1)
        torus = hecke.centralizer(cat_map.matrix, pm, cat_map.charpoly)
        split = torus.split_type == "split"
        assert split == (p in SPLIT_N1)
        dec = hecke.decompose(torus, generator_ops(rep_cache(p), torus))
        sums_ok = sums_ok and sum(dec.dims) == p
        chis = hecke.characters(torus)
        assert sum(chi.order == 2 for chi in chis) == 1
        if p == 7:
            pattern7_ok = (sorted(dec.dims) == [0, 1, 1, 1, 1, 1, 1, 1]
                           and torus.order == 8)
        for chi, d in zip(chis, dec.dims):
            if chi.order == 2:
                expected = 2 if split else 0
                if split:
                    exceptions.append((p, chi.exps, d))
            else:
                expected = 1
            if d != expected:
                clause_violations.append(
                    {"p": p, "split": torus.split_type, "exps": chi.exps,
                     "char_order": chi.order, "dim": d, "expected": expected})
    for p in (3, 5, 7):
        pm = PrimeModulus(p, 2)
        torus = hecke.centralizer(sp4_elem.matrix, pm, sp4_elem.charpoly)
        dec = twisted_context(sp4_elem, torus, rep_cache(p, 2)).decomposition
        sums_ok = sums_ok and sum(dec.dims) == p ** 2
        for chi, d in zip(hecke.characters(torus), dec.dims):
            if chi.order != 1 and d > 1:
                clause_violations.append(
                    {"p": p, "n": 2, "split": torus.split_type,
                     "exps": chi.exps, "char_order": chi.order, "dim": d})
    ok = sums_ok and pattern7_ok and not clause_violations
    exc = ", ".join(f"p={p} exps {e} dim {d}" for p, e, d in exceptions)
    _line(4, ok,
          f"dimension sums exact: {sums_ok}; p=7 pattern (0,1,...,1): "
          f"{pattern7_ok}; documented exception: order-2 character at split "
          f"p has dim 2 ({exc}), dim 0 at nonsplit p, every other n=1 "
          f"character dim 1; n=2 'dim <= 1 for chi != 1'; deviations from "
          f"the documented dims: {clause_violations or 'none'}")
    assert sums_ok
    assert pattern7_ok
    assert not clause_violations, \
        "eigenspace dims differ from the documented statement"


def test_criterion_5_que_bound(cat_map, sp4_elem, rep_cache):
    """|a_chi(xi)| <= 2^n p^{n/2} for all xi != 0, with the documented
    split-prime exception.

    n = 1, every non-degenerate p <= 97: every character with a
    one-dimensional eigenspace obeys the bound; at nonsplit p every character
    does.  At split p the violations are exactly the 2(p - 1) axis vectors of
    the order-2 character (dim 2), each with |a| = p - 2, and none lies on the
    generic stratum.  n = 2 at p in {3, 5, 7} (anisotropic for the fixture):
    every character obeys the bound.
    """
    t0 = time.time()
    exceptions = []
    faults = []
    max_ratio_dim1 = 0.0
    for p in NONDEG_N1:
        pm = PrimeModulus(p, 1)
        rep = rep_cache(p)
        torus = hecke.centralizer(cat_map.matrix, pm, cat_map.charpoly)
        rpt = q.verify_que_bound(q.PrimeContext(cat_map, torus, rep))
        max_ratio_dim1 = max(max_ratio_dim1, rpt.max_ratio_dim1)
        assert rpt.parseval_max_dev < 1e-8
        assert rpt.xi0_oracle_max_dev < 1e-8
        if not rpt.ok_dim1:
            faults.append((p, "dim-1 violation", rpt.dim1_violations[0]))
        if p not in SPLIT_N1:
            if not rpt.ok:
                faults.append((p, "nonsplit violation", rpt.violations[0]))
            continue
        exceptions.append(p)
        order2 = rpt.exceptional_order2
        if len(rpt.violations) != 2 * (p - 1):
            faults.append((p, "violation count", len(rpt.violations)))
        faults += [(p, "violation off the order-2 character", v)
                   for v in rpt.violations if v[1] != order2["exps"]]
        faults += [(p, "axis value not p - 2", v)
                   for v in rpt.violations if abs(v[2] - (p - 2)) > 1e-8]
        if rpt.generic_violations:
            faults.append((p, "generic violation", rpt.generic_violations[0]))
        if order2["dim"] != 2:
            faults.append((p, "order-2 dim", order2["dim"]))
    t_n1 = time.time() - t0

    t0 = time.time()
    n2_ok = True
    n2_ratio = 0.0
    for p in (3, 5, 7):
        pm = PrimeModulus(p, 2)
        torus = hecke.centralizer(sp4_elem.matrix, pm, sp4_elem.charpoly)
        rpt = q.verify_que_bound(twisted_context(sp4_elem, torus, rep_cache(p, 2)))
        n2_ok = n2_ok and rpt.ok
        n2_ratio = max(n2_ratio, rpt.max_ratio / 4)
    t_n2 = time.time() - t0

    ok = not faults and n2_ok
    _line(5, ok,
          f"n=1 primes <= 97 in {t_n1:.0f}s (< 300s), n=2 p in (3,5,7) in "
          f"{t_n2:.0f}s (< 900s); n=2 all |a| <= 4p: {n2_ok} "
          f"(max ratio {n2_ratio:.4f}); documented exception: order-2 "
          f"character at split p in {exceptions} (dim 2, |a| = p - 2 on the "
          f"2(p - 1) axis vectors, generic stratum within the bound); "
          f"deviations from the documented statement: {faults or 'none'}; "
          f"max |a|/sqrt(p) over 1-dim characters {max_ratio_dim1:.4f} "
          f"(sharpness of the constant 2)")
    assert t_n1 < 300 and t_n2 < 900
    assert n2_ok
    assert exceptions == SPLIT_N1
    assert not faults, "the bound differs from the documented statement"


def test_criterion_6_refined_bound(cat_map, rep_cache):
    worst = 0.0
    rows_checked = 0
    for p in (11, 19, 29):
        pm = PrimeModulus(p, 1)
        rep = rep_cache(p)
        torus = hecke.centralizer(cat_map.matrix, pm, cat_map.charpoly)
        rpt = q.refined_bound(q.PrimeContext(cat_map, torus, rep))
        assert rpt.applicable
        for row in rpt.rows:
            if row["m"] == 1:
                rows_checked += 1
                worst = max(worst, row["generic_max"])
                assert row["generic_max"] <= 2 + 1e-6
    ok = rows_checked > 0 and worst <= 2 + 1e-6
    _line(6, ok, f"{rows_checked} refined characters at p in (11, 19, 29), "
                 f"max generic |a| = {worst:.6f} <= 2 + 1e-6")
    assert ok


def test_criterion_7_trace_formula(cat_map, rep_cache):
    # the n = 1 closed form and the program's trace formula, at every
    # (lam, mu) and every diag(a, 1/a), against the matrix trace
    worst = 0.0
    triples = 0
    signs = set()
    for p in (11, 19):
        pm = PrimeModulus(p, 1)
        rep = rep_cache(p)
        signs.add(measure_split_sign(pm, rep))
        diagonal = [((a, 0), (0, pow(a, -1, p))) for a in range(2, p)]
        formula = q.TraceFormula(diagonal, pm)(np.arange(p * p))    # flat lam + p mu
        for i, (a, dense) in enumerate(zip(range(2, p), build_many(rep, diagonal))):
            for lam in range(p):
                for mu in range(p):
                    ref = q.trace_pair((lam, mu), dense, pm)
                    val = split_trace_formula(lam, mu, a, pm)
                    worst = max(worst, abs(val - ref), abs(formula[lam + p * mu, i] - ref))
                    triples += 1
    ok = worst <= 1e-10 and signs == {-1}
    _line(7, ok, f"{triples} (lam, mu, a) triples at split primes 11, 19; "
                 f"max |closed form - matrix trace| = {worst:.2e} <= 1e-10; "
                 f"measured orientation {sorted(signs)}")
    assert ok


def test_criterion_8_factorization(sp4_elem):
    pm = PrimeModulus(13, 2)
    rpt = q.factorization_check(q.PrimeContext.build(sp4_elem, pm))
    frac = rpt.matched_generic / rpt.generic_pairs
    ok = rpt.ok and frac >= 0.95 and rpt.matched_all_reconciled == rpt.pairs_total
    _line(8, ok, f"split prime 13: {rpt.generic_pairs} generic pairs, "
                 f"{100 * frac:.2f}% matched by the oracle route (>= 95%), "
                 f"{rpt.matched_all_reconciled}/{rpt.pairs_total} after "
                 f"boundary reconciliation (= 100%), max rel err "
                 f"{rpt.max_rel_err:.2e}")
    assert ok


def test_criterion_9_classical_ergodicity(cat_map):
    rng = np.random.default_rng(16180339)
    xs = rng.random((20, 2))
    vals = np.abs(birkhoff_many(cat_map, (1, 0), xs, 10 ** 6))
    med = float(np.median(vals))
    ok = med < 0.02
    _line(9, ok, f"median |Birkhoff average| over 20 seeded points at N=1e6: "
                 f"{med:.6f} < 0.02")
    assert ok


def test_criterion_10_twist_invariance(cat_map, sp4_elem, rep_cache):
    worst = 0.0
    for (elem, p, n) in ((cat_map, 7, 1), (cat_map, 11, 1), (sp4_elem, 3, 2)):
        pm = PrimeModulus(p, n)
        torus = hecke.centralizer(elem.matrix, pm, elem.charpoly)
        tables = []
        for ridx in (0, 1):
            trep = linearize_on_torus(torus, rep_cache(p, n), root_index=ridx)
            table = build_trace_table(torus, trep)
            tables.append(np.sort(np.abs(character_sum_table(table)), axis=1))
        worst = max(worst, float(np.abs(tables[0] - tables[1]).max()))
    ok = worst <= 1e-8
    _line(10, ok, f"sorted |a_chi| multisets per xi agree across root choices "
                  f"to {worst:.2e} <= 1e-8")
    assert ok


# ---------------------------------------------------------------------------
# supplements: the scoped bound on one-dimensional characters and the
# split-prime values, at finer grain than criteria 4 and 5 assert them


def test_supplement_bound_on_one_dimensional_characters(cat_map, rep_cache):
    """Every character with a 1-dim eigenspace satisfies |a_chi| <= 2 sqrt(p)
    at every xi != 0, for every non-degenerate prime <= 97."""
    worst = 0.0
    for p in NONDEG_N1:
        pm = PrimeModulus(p, 1)
        torus = hecke.centralizer(cat_map.matrix, pm, cat_map.charpoly)
        rpt = q.verify_que_bound(q.PrimeContext(cat_map, torus, rep_cache(p)))
        assert rpt.ok_dim1, f"unexpected dim-1 violation at p={p}"
        worst = max(worst, rpt.max_ratio_dim1)
    print(f"SUPPLEMENT: dim-1 characters pass everywhere; "
          f"max |a|/sqrt(p) = {worst:.4f} (constant 2 is sharp)")
    assert worst <= 2.0


def test_supplement_split_prime_exceptional_values(cat_map, rep_cache):
    """At split primes the order-2 character reaches exactly p - 2 on the
    2(p - 1) axis vectors and stays within 2 on the generic stratum."""
    for p in SPLIT_N1[:3]:
        pm = PrimeModulus(p, 1)
        torus = hecke.centralizer(cat_map.matrix, pm, cat_map.charpoly)
        rpt = q.verify_que_bound(q.PrimeContext(cat_map, torus, rep_cache(p)))
        assert len(rpt.violations) == 2 * (p - 1)
        assert all(abs(v[2] - (p - 2)) < 1e-8 for v in rpt.violations)
        assert not rpt.generic_violations
        assert rpt.exceptional_order2["dim"] == 2
    print("SUPPLEMENT: split-prime exceptional values are exactly p - 2 on "
          "axis vectors, generic stratum within 2")


def test_supplement_split_n2_p13_canonical(sp4_elem, sp4_split13):
    """n = 2 at the fully split p = 13 under the canonical rho.

    The eigenspace dims are the tensor square of the n = 1 split pattern
    (121 x 1, 22 x 2, 1 x 4) and the refinement holds on the generic stratum.
    The bound fails for some dim-1 characters, at 8,976 (xi, chi) pairs, all
    on xi whose split-frame coordinates (lam_j, mu_j) vanish for exactly one
    factor j (4,488 for each j).  There the sum factorizes with the j-th
    factor equal to |T_1| = p - 1: a_chi(xi) = (p - 1) a_{k_i}(xi_i), an
    n = 1 diagonal-torus sum of the other factor, and (p - 1) 2 sqrt(p) > 4p.
    """
    ctx = sp4_split13
    torus, pm = ctx.torus, ctx.pm
    p = pm.p
    dec = ctx.decomposition
    assert sorted(dec.dims) == [1] * 121 + [2] * 22 + [4]
    rpt = q.verify_que_bound(ctx)
    assert not rpt.ok_dim1
    assert abs(rpt.max_ratio_dim1 - 6.39651) < 1e-5
    assert len(rpt.dim1_violations) == 8976
    refined = q.refined_bound(ctx)
    refined_ratio = max(r["generic_max"] / r["refined_bound"] for r in refined.rows)
    assert refined.generic_ok
    assert abs(refined_ratio - 0.94273) < 1e-5

    transport = q.build_split_transport(sp4_elem.matrix, pm, sp4_elem.charpoly)
    pm1 = PrimeModulus(p, 1)
    sign = measure_split_sign(pm1, weil.linearize(pm1))
    chis = {chi.exps: chi for chi in hecke.characters(torus)}
    col = {exps: i for i, exps in enumerate(chis)}
    row = ctx.orbits[1]
    per_factor = [0, 0]
    worst = 0.0
    for xi, exps, abs_a, bound in rpt.dim1_violations:
        coords = factor_coordinates(transport, xi)
        (j,) = [k for k, (lam, mu) in enumerate(coords) if lam == 0 and mu == 0]
        per_factor[j] += 1
        i = 1 - j
        k_i = transport_char(transport, chis[exps], torus)[i]
        factor = diagonal_factor_sum(*coords[i], k_i, pm1, sign)
        a = ctx.sums[row[flatten_xi(xi, pm)], col[exps]]
        worst = max(worst, abs(a - (p - 1) * factor))
    assert per_factor == [4488, 4488]
    assert worst < 1e-9
    print(f"SUPPLEMENT: n=2 p=13 canonical rho: dims 121x1, 22x2, 1x4; refined "
          f"passes (max ratio {refined_ratio:.5f}); the dim-1 bound fails only "
          f"where one split factor of xi vanishes (max ratio "
          f"{rpt.max_ratio_dim1:.5f})")


def test_supplement_n2_p19_product_of_nonsplit_tori(sp4_elem, sp4_product19):
    """n = 2 at p = 19, past the dense route's memory wall.

    P_A mod 19 is a product of two quadratics and T = Z_20 x Z_20, a product
    of two nonsplit n = 1 tori.  Every eigenspace has dim <= 1 (361 x 1,
    39 x 0), yet the bound fails for dim-1 characters at 127,680 (xi, chi)
    pairs, with maximal ratio 8.90879, and the violating xi are exactly the
    2(p^2 - 1) = 720 nonzero vectors of the two A-invariant planes
    ker q_i(A): the "one vanishing factor" mechanism of p = 13.
    """
    ctx = sp4_product19
    pm = ctx.pm
    p = pm.p
    assert p == 19 and pm.n == 2
    assert ctx.torus.order == 400 and sorted(ctx.torus.gen_orders) == [20, 20]
    assert sorted(ctx.decomposition.dims) == [0] * 39 + [1] * 361
    rpt = q.verify_que_bound(ctx)
    assert not rpt.ok_dim1
    assert len(rpt.dim1_violations) == 127680
    assert rpt.violations == rpt.dim1_violations
    assert abs(rpt.max_ratio_dim1 - 8.90879) < 1e-5

    cp = ffcore.poly_mod_reduce(sp4_elem.charpoly, p)
    quadratics = [(c, b) for b in range(p) for c in range(p)
                  if ffcore.poly_divmod(cp, (c, b, 1), mod=p)[1] == (0,)]
    assert len(quadratics) == 2
    a = np.array(ffcore.mat_mod(sp4_elem.matrix, p), dtype=np.int64)
    xis = lattice_vectors(pm)
    planes = set()
    for c, b in quadratics:
        q_of_a = (a @ a + b * a + c * np.eye(4, dtype=np.int64)) % p
        kernel = xis[((xis @ q_of_a.T) % p == 0).all(axis=1)]
        assert len(kernel) == p ** 2
        planes |= {tuple(x) for x in kernel.tolist() if any(x)}
    assert len(planes) == 2 * (p ** 2 - 1) == 720
    assert {v[0] for v in rpt.dim1_violations} == planes
    print(f"SUPPLEMENT: n=2 p=19 (T = Z20 x Z20): dims 361x1, 39x0; "
          f"{len(rpt.dim1_violations)} dim-1 violations on the 720 nonzero xi "
          f"of the two A-invariant planes (max ratio {rpt.max_ratio_dim1:.5f})")


INERT_N2_RATIOS = {3: 1.901178, 5: 1.939604, 7: 1.948808, 11: 1.988444, 23: 1.999613,
                   29: 1.999848, 31: 1.999547}


def test_supplement_inert_n2_bound(sp4_elem, sp4_inert23):
    """The positive scoped claim at inert n = 2 primes.

    Where P_A stays irreducible mod p (factor degrees [4]), T has order
    p^2 + 1 and every eigenspace has dim <= 1.  There |a_chi(xi)| <=
    2^n p^{n/2} = 4p holds for every character and every xi != 0: the
    maximal ratio |a| / p^{n/2} stays under 2 and approaches it as p grows.
    """
    ratios = {}
    for p, want in INERT_N2_RATIOS.items():
        ctx = (sp4_inert23 if p == 23 else
               q.PrimeContext.build(sp4_elem, PrimeModulus(p, 2)))
        assert ctx.torus.split_type == "nonsplit"
        assert ctx.torus.factor_degrees == [4]
        assert ctx.torus.order == p ** 2 + 1
        assert max(ctx.decomposition.dims) <= 1
        rpt = q.verify_que_bound(ctx)
        assert rpt.ok and rpt.ok_dim1
        assert abs(rpt.max_ratio - want) < 1e-5
        ratios[p] = round(rpt.max_ratio, 6)
    print(f"SUPPLEMENT: n=2 inert p in {sorted(ratios)}: every dim <= 1 and "
          f"|a| <= 4p for every chi and xi != 0; max |a|/p by prime {ratios}")
