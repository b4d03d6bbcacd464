"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
timing report.  Where a stated parameter cannot support the stated
tolerance (criterion 7's window), the test verifies the identity at the
stated tolerance on the minimal widened window and additionally pins the
exact behavior at the stated window; details in the assertion messages.
"""

import random
import time

from edgeschur.crystal import (component_decomposition, crystal_graph, e_elt,
                               eps_phi, f_elt, graphs_isomorphic,
                               schur_expansion_crystal, ssyt_crystal_graph)
from edgeschur.lattice import (GridRow, GridSpec, cauchy_check,
                               commutation_check, deformed_diagonals,
                               edge_schur_lattice, factorial_schur_lattice,
                               maya_bits, model_Ell, model_L, model_Lstar,
                               partition_function, transfer_row,
                               yang_baxter_check)
from edgeschur.poly import (MultiPoly, av, monomial_degree, swap_x_vars, xv,
                            yv)
from edgeschur.schur import (EdgeSchurParams, dual_schur, dual_schur_alpha,
                             edge_schur, edge_schur_brute, factorial_schur,
                             schur_expand, schur_substituted, variation)
from edgeschur.shapes import Partition, SkewShape, partitions_in_box
from edgeschur.tableaux import EdgeLabeledTableau, enumerate_elt, reading_word
from edgeschur.uncrowding import check_crystal_commute, crowd, uncrowd

ONE = MultiPoly.one()


def V(v):
    return MultiPoly.var(v)


def report(num, budget, started, what):
    dt = time.time() - started
    assert dt < budget, f"criterion {num} exceeded {budget}s ({dt:.1f}s)"
    print(f"PASS criterion {num:2d} ({dt:6.2f}s < {budget}s): {what}")


def test_criterion_01_golden_edge_schur():
    t0 = time.time()
    p = EdgeSchurParams(2, (-2, 1), 2)
    e = edge_schur(SkewShape.of((2,), (), extent=2), p)
    x1, x2 = V(xv(1)), V(xv(2))
    a = lambda d: V(av(d))
    expect = (x1 ** 2 * (ONE + a(-1) * x2) * (ONE + a(0) * x2)
              + x1 * x2 * (ONE + a(1) * x1) * (ONE + a(-1) * x2)
              + x2 ** 2 * (ONE + a(0) * x1) * (ONE + a(1) * x1))
    assert e == expect
    assert edge_schur_brute(SkewShape.of((2,), (), extent=2), p) == expect
    report(1, 1, t0, "E^(2,0)(x_2|a) on window [-2,1] equals the three-term sum")


def test_criterion_02_golden_factorial():
    t0 = time.time()
    shape = SkewShape.of((2,), (), extent=2)
    x1, x2 = V(xv(1)), V(xv(2))
    a = lambda d: V(av(d))
    expect = ((x1 - a(1)) * (x1 - a(2)) + (x1 - a(1)) * (x2 - a(3))
              + (x2 - a(2)) * (x2 - a(3)))
    assert factorial_schur(shape, 2) == expect
    assert factorial_schur_lattice(SkewShape.of((2,)), 2, 0) == expect
    report(2, 1, t0, "s_(2,0)(x_2|a): tableau formula and lattice agree with "
                     "the reference expansion")


def test_criterion_03_golden_transfer_row():
    t0 = time.time()
    bot = Partition.of((4, 2), extent=4)
    top = Partition.of((4, 4, 1), extent=4)
    x = V(xv(1))
    tr = transfer_row(model_L(), bot, top, x, (-4, 4))
    assert tr == x ** 3 * (ONE + V(av(-1)) * x) * (ONE + V(av(4)) * x)
    assert deformed_diagonals(top, bot, (-4, 4)) == {-1, 4}
    report(3, 1, t0, "transfer row (4,2)->(4,4,1) = x^3(1+a_-1 x)(1+a_4 x), "
                     "deformed diagonals {-1, 4}")


def test_criterion_04_yang_baxter():
    t0 = time.time()
    for kind in ("RLL_L", "RLL_Lstar", "rll_Ell", "frakRLell"):
        ok, wit = yang_baxter_check(kind)
        assert ok, (kind, wit)
    perturbable = {"RLL_L": ["a1", "b1", "b2", "c1", "c2"],
                   "RLL_Lstar": ["a1", "a2", "b2", "c1", "c2"],
                   "rll_Ell": ["a1", "a2", "b2", "c1", "c2"],
                   "frakRLell": ["a1", "a2", "b2", "c1", "c2"]}
    for kind, roles in perturbable.items():
        for role in roles:
            ok, wit = yang_baxter_check(kind, perturb=role,
                                        perturb_mode="double")
            assert not ok and wit is not None, (kind, role)
    ok, wit = yang_baxter_check("RLL_L", perturb="a1", perturb_mode="one")
    assert not ok and wit is not None
    report(4, 5, t0, "RLL_L, RLL_Lstar, rll_Ell, frakRLell all hold on 64 "
                     "boundaries; every single-weight perturbation fails "
                     "with a witness")


def test_criterion_05_symmetry():
    t0 = time.time()
    window = (-3, 3)
    for lam in partitions_in_box(3, 3):
        shape = SkewShape.of(lam.parts, (), extent=3)
        e = edge_schur(shape, EdgeSchurParams(3, window, 3))
        assert swap_x_vars(e, 1, 2) == e, lam
        assert swap_x_vars(e, 2, 3) == e, lam
    report(5, 30, t0, "edge Schur symmetric in x on the full 3x3 box, "
                      "window [-3,3], exact")


def test_criterion_06_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(20240808)
    checked = 0
    while checked < 30:
        ext = rng.randint(1, 2)
        lam = Partition(tuple(sorted((rng.randint(0, 3) for _ in range(ext)),
                                     reverse=True)))
        mu = Partition(tuple(sorted((rng.randint(0, lam.part(k))
                                     for k in range(1, ext + 1)),
                                    reverse=True)))
        if not lam.contains(mu):
            continue
        n = rng.randint(1, 3)
        window = (-ext - rng.randint(0, 1), lam.first() + rng.randint(0, 1))
        shape = SkewShape.of(lam.parts, mu.parts, extent=ext)
        p = EdgeSchurParams(n, window, ext)
        closed = edge_schur(shape, p)
        assert closed == edge_schur_brute(shape, p)
        assert closed == edge_schur_lattice(shape, p, "T")
        assert closed == edge_schur_lattice(shape, p, "Tstar")
        checked += 1
    report(6, 60, t0, f"edge_schur = brute enumeration = lattice T = "
                      f"lattice T* on {checked} random instances, exact")


def test_criterion_07_commutation():
    t0 = time.time()
    # the stated window [-2,3] admits escape states from total degree
    # 2(M+1) - lam1 - mu1 = 4 on, so truncation 6 needs M >= 5; the
    # identity is checked at the stated truncation on the widened window
    # and at its exact validity threshold on the stated window
    ok, wit = commutation_check((2, 2), (-2, 5), 6)
    assert ok, wit
    ok3, wit3 = commutation_check((2, 2), (-2, 3), 3)
    assert ok3, wit3
    # pin the escape tail at the stated window: failures are all degree >= 4
    x, y = V(xv(1)), V(yv(1))
    lam = mu = Partition.of((2, 2))
    g1 = GridSpec((GridRow(model_Ell(-1), x), GridRow(model_Lstar(), y)),
                  (-2, 3), maya_bits(mu, (-2, 3)),
                  maya_bits(lam, (-2, 3), shift=1))
    g2 = GridSpec((GridRow(model_Lstar(), y), GridRow(model_Ell(-1), x)),
                  (-2, 3), maya_bits(mu, (-2, 3)),
                  maya_bits(lam, (-2, 3), shift=1))
    diff = (ONE - x * y) * partition_function(g1) - partition_function(g2)
    assert not diff.is_zero()
    assert min(monomial_degree(m) for m in diff.terms) >= 4
    report(7, 60, t0, "(1-xy)<lam|T*(y)t(x)|mu> = <lam|t(x)T*(y)|mu> on the "
                      "2x2 box at truncation 6 (window [-2,5]; the stated "
                      "[-2,3] is exact below its degree-4 escape tail)")


def test_criterion_08_cauchy():
    t0 = time.time()
    for mu, eta in [((), ()), ((1,), ())]:
        for n in (1, 2):
            for m in (1, 2):
                window = (-2, n + 3)
                rep = cauchy_check(Partition.of(mu), Partition.of(eta),
                                   n, m, window, 4)
                assert rep["ok"], (mu, eta, n, m, rep)
    report(8, 120, t0, "skew Cauchy identity: both algebraic sides and both "
                       "proof grids agree for (mu,eta) in {((),()),((1),())}, "
                       "n,m <= 2, truncation 4")


def test_criterion_09_crystal():
    t0 = time.time()
    lam = Partition.of((3, 2))
    p = EdgeSchurParams(3, (-2, 1), 2)
    g = crystal_graph(lam, p)
    # axioms and word commutation on every vertex
    for t in g.vertices:
        letters = [v for v, _ in reading_word(t)]
        wt = t.content_vector(3)
        for i in (1, 2):
            eps, phi = eps_phi(letters, i)
            assert phi - eps == wt[i - 1] - wt[i]
            ft = f_elt(t, i)   # word commutation asserted inside
            if ft is not None:
                assert e_elt(ft, i).key() == t.key()
    # component decomposition: the expected single-label census
    comps = component_decomposition(g)
    census = {}
    for comp, hw in comps:
        t = g.vertices[hw]
        labels = [(j - i) for (i, j), vs in t.edge_sets for _ in vs]
        if len(labels) == 1:
            census.setdefault(labels[0], []).append(len(comp))
        nu = Partition(t.content_vector(3))
        bg = ssyt_crystal_graph(nu, 3)
        [(bcomp, bhw)] = component_decomposition(bg)
        assert len(comp) == len(bg.vertices)
        assert graphs_isomorphic(g, hw, bg, bhw)
    assert sorted(census[-1]) == [8]
    assert sorted(census[0]) == [8]
    assert sorted(census[1]) == [8, 10]
    # Schur expansion from highest weights matches the example and peeling
    coeffs = schur_expansion_crystal(lam, p, 6)
    a = lambda d: V(av(d))
    assert coeffs[Partition.of((3, 2, 1))] == a(-2) + a(-1) + a(0) + a(1)
    assert coeffs[Partition.of((3, 3), extent=3)] == a(1)
    e = edge_schur(SkewShape.of((3, 2), (), extent=2), p)
    peeled, _ = schur_expand(e, 3, 6)
    for nu in set(coeffs) | set(peeled):
        assert coeffs.get(nu, MultiPoly.zero()) == \
            peeled.get(nu, MultiPoly.zero()), nu
    report(9, 60, t0, "crystal axioms, word commutation, components "
                      "(8, 8, 8, 10 plus B(nu) isomorphisms), and the Schur "
                      "expansion a_-2+a_-1+a_0+a_1 / a_1 match")


def test_criterion_10_uncrowding():
    t0 = time.time()
    # the reference computation, every intermediate stage
    sh = SkewShape.of((3, 3, 2, 2))
    T = EdgeLabeledTableau.of(
        sh, 4, (-4, 3),
        {(1, 1): 1, (1, 2): 1, (1, 3): 2, (2, 1): 2, (2, 2): 2, (2, 3): 6,
         (3, 1): 3, (3, 2): 3, (4, 1): 4, (4, 2): 5},
        {(2, 3): (4, 5), (4, 2): (4,), (5, 1): (5,)})
    pair, trace = uncrowd(T, with_trace=True)
    expected = [
        (((4,), (5,)), {(2, 1): 1}),
        (((3, 5), (4,), (5,)), {(3, 1): 1}),
        (((2, 3), (3, 4), (4, 5), (5,)), {(3, 2): 3, (4, 1): 1}),
        (((1, 2), (2, 3), (3, 4), (4, 5), (5,)), {(4, 2): 3, (5, 1): 1}),
        (((1, 1, 6), (2, 2), (3, 3), (4, 4), (5, 5)),
         {(5, 1): 1, (5, 2): 3}),
        (((1, 1, 2), (2, 2, 4), (3, 3, 5), (4, 4, 6), (5, 5)),
         {(3, 3): 6, (4, 3): 6, (5, 1): 1, (5, 2): 3}),
    ]
    for k, (P_k, Q_k) in enumerate(trace):
        assert (P_k, Q_k) == expected[k], f"stage {k + 1}"
    assert crowd(pair, Partition.of((3, 3, 2, 2)), (-4, 3), 4).key() == T.key()
    # exhaustive inverse on every shape in the 2x3 box
    count = 0
    for lam in partitions_in_box(2, 3):
        if not lam.size():
            continue
        lam = Partition.of([q for q in lam.parts if q > 0])
        shape = SkewShape.of(lam.parts, (), extent=lam.extent)
        for t in enumerate_elt(shape, 3, (-2, 3), lam.extent):
            assert crowd(uncrowd(t), lam, (-2, 3), lam.extent).key() == t.key()
            count += 1
    assert count > 10000
    # crystal commutation
    assert check_crystal_commute(Partition.of((2, 1)), (-2, 2), 2, 3)
    assert check_crystal_commute(Partition.of((3, 2)), (-2, 1), 2, 3)
    report(10, 120, t0, f"reference uncrowding stages 1..6, {count} exact round "
                        "trips on the 2x3 box, and crystal commutation on "
                        "(2,1) and (3,2)")


def test_criterion_11_dual_schur():
    t0 = time.time()
    for parts in [(1,), (2,), (1, 1), (2, 1), (2, 2)]:
        lam = Partition.of(parts)
        shape = SkewShape.of(parts, (), extent=lam.length())
        N = max(lam.first(), 2)
        p = EdgeSchurParams(2, (-lam.length(), N), lam.length(), 6)
        assert dual_schur(shape, 2, 6) == variation("HatScriptE", shape, p), parts
    for parts in [(1,), (2,), (1, 1), (2, 1)]:
        lam = Partition.of(parts)
        shape = SkewShape.of(parts, (), extent=lam.length())
        assert dual_schur_alpha(shape, 2, 6) == \
            schur_substituted(lam, 2, 6), parts
    report(11, 60, t0, "dual Schur = HatScriptE at truncation 6 on the 2x2 "
                       "box; alpha specialization equals the substituted "
                       "Schur polynomial")
