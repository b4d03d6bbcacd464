import hashlib
import itertools
import random
import sys

import pytest

from edgeschur.poly import (MAX_DEGREE, MultiPoly, av, canonical_string, map_vars,
                            monomial_degree, parse, sorted_terms, split_x_part,
                            swap_x_vars, x_exponent_vector, xv, yv)
from edgeschur.schur import (EdgeSchurParams, NotSymmetric, UnsupportedSkew,
                             _branch, _edge_row, _factorial_row, _levels,
                             dual_schur, dual_schur_alpha, edge_schur,
                             edge_schur_brute, edge_schurs, factorial_schur,
                             factorial_schurs, schur, schur_expand,
                             schur_substituted, variation)
from edgeschur.shapes import (Partition, SkewShape, deformed_diagonals,
                              horizontal_strips_between, partitions_in_box)
from edgeschur.tableaux import enumerate_ssyt


def V(v):
    return MultiPoly.var(v)


def kill_a(p):
    return map_vars(p, lambda v: MultiPoly.zero() if v[0] == 3 else V(v))


class TestSchur:
    def test_row(self):
        assert schur(SkewShape.of((2,), (), extent=2), 2) == \
            parse("x1^2 + x1*x2 + x2^2")

    def test_empty(self):
        assert schur(SkewShape.of(()), 3) == MultiPoly.one()

    def test_symmetric(self):
        s = schur(SkewShape.of((2, 1), (), extent=3), 3)
        for i in (1, 2):
            assert swap_x_vars(s, i, i + 1) == s


class TestFactorialSchur:
    def test_two_cell_row(self):
        got = factorial_schur(SkewShape.of((2,), (), extent=2), 2)
        x1, x2 = V(xv(1)), V(xv(2))
        a = lambda d: V(av(d))
        assert got == ((x1 - a(1)) * (x1 - a(2)) + (x1 - a(1)) * (x2 - a(3))
                       + (x2 - a(2)) * (x2 - a(3)))

    def test_a_zero_is_schur(self):
        shape = SkewShape.of((2, 1), (1,))
        assert kill_a(factorial_schur(shape, 2)) == schur(shape, 2)

    def test_single_box(self):
        assert factorial_schur(SkewShape.of((1,)), 1) == \
            V(xv(1)) - V(av(1))

    def test_homogeneous(self):
        p = factorial_schur(SkewShape.of((2, 1)), 2)
        degs = {monomial_degree(m) for m in p.terms}
        assert degs == {3}


class TestEdgeSchur:
    def test_row_shape_window(self):
        p = EdgeSchurParams(2, (-2, 1), 2)
        e = edge_schur(SkewShape.of((2,), (), extent=2), p)
        x1, x2 = V(xv(1)), V(xv(2))
        a = lambda d: V(av(d))
        one = MultiPoly.one()
        assert e == (x1 ** 2 * (one + a(-1) * x2) * (one + a(0) * x2)
                     + x1 * x2 * (one + a(1) * x1) * (one + a(-1) * x2)
                     + x2 ** 2 * (one + a(0) * x1) * (one + a(1) * x1))

    def test_single_row_skew(self):
        p = EdgeSchurParams(1, (-4, 4), 4)
        e = edge_schur(SkewShape.of((4, 4, 1), (4, 2), extent=4), p)
        x = V(xv(1))
        one = MultiPoly.one()
        assert e == x ** 3 * (one + V(av(-1)) * x) * (one + V(av(4)) * x)

    def test_a_zero(self):
        shape = SkewShape.of((2, 1), (), extent=2)
        p = EdgeSchurParams(2, (-2, 2), 2)
        assert kill_a(edge_schur(shape, p)) == schur(shape, 2)

    def test_not_contained_refused(self):
        # no edge Schur function is asked for mu outside lam: the shape
        # refuses the pair, and with_extent keeps a contained pair contained
        with pytest.raises(ValueError, match="not contained"):
            SkewShape(Partition.of((1,), extent=2), Partition.of((2,), extent=2))
        shape = SkewShape.of((2, 1), (1,), extent=2)
        assert shape.outer.with_extent(4).contains(shape.inner.with_extent(4))

    def test_brute_oracle_random(self):
        rng = random.Random(17)
        for _ in range(30):
            ext = rng.randint(1, 2)
            lam = Partition(tuple(sorted((rng.randint(0, 2) for _ in range(ext)),
                                         reverse=True)))
            mu = Partition(tuple(rng.randint(0, lam.part(k))
                                 for k in range(1, ext + 1)))
            mu = Partition(tuple(sorted(mu.parts, reverse=True)))
            if not lam.contains(mu):
                continue
            n = rng.randint(1, 2)
            window = (-ext, lam.first() + rng.randint(0, 1))
            shape = SkewShape.of(lam.parts, mu.parts, extent=ext)
            p = EdgeSchurParams(n, window, ext)
            assert edge_schur(shape, p) == edge_schur_brute(shape, p)

    def test_symmetry_small_box(self):
        for lam in partitions_in_box(2, 2):
            shape = SkewShape.of(lam.parts, (), extent=2)
            e = edge_schur(shape, EdgeSchurParams(3, (-2, 2), 2))
            assert swap_x_vars(e, 1, 2) == e
            assert swap_x_vars(e, 2, 3) == e

    def test_branching(self):
        lam = Partition.of((2, 1), extent=2)
        window = (-2, 2)
        full = edge_schur(SkewShape.of((2, 1), (), extent=2),
                          EdgeSchurParams(3, window, 2))
        total = MultiPoly.zero()
        for nu in partitions_in_box(2, 2):
            if not lam.contains(nu):
                continue
            top = edge_schur(SkewShape(lam, nu), EdgeSchurParams(1, window, 2))
            top = map_vars(top, lambda v: V(xv(3)) if v[0] == 0 else V(v))
            bot = edge_schur(SkewShape.of(nu.parts, (), extent=2),
                             EdgeSchurParams(2, window, 2))
            total = total + top * bot
        assert total == full


def test_brute_sum_full_box():
    # sum of tableau weights equals the closed form on the whole 3x3 box
    from edgeschur.tableaux import enumerate_elt
    window = (-3, 3)
    for lam in partitions_in_box(3, 3):
        shape = SkewShape.of(lam.parts, (), extent=3)
        closed = edge_schur(shape, EdgeSchurParams(3, window, 3))
        total = MultiPoly.zero()
        for t in enumerate_elt(shape, 3, window, 3):
            total = total + t.weight()
        assert total == closed, lam


# every variation over the 2x2 box (skew shapes only where a variation is
# defined for them), n <= 3, M from lam_1 - 1 to lam_1 + 2 and each legal
# truncation; SHA-256 of the canonical strings, computed with the exact
# division that EBar used before it read the cut window
VARIATION_TRUNCS = {"EBar": (None, 0, 4), "DualFact": (None, 0, 4),
                    "ScriptE": (0, 3, 5), "HatScriptE": (0, 3, 5)}
VARIATIONS_SHA256 = \
    "ec452c3ee5f79813afd65c5bea3dc121f22f755a2dcf4ec786e2cd30481d1b20"


def variation_cases():
    box = partitions_in_box(2, 2)
    for kind, truncs in VARIATION_TRUNCS.items():
        for lam, mu in itertools.product(box, box):
            if not lam.contains(mu) or (mu.size() > 0 and kind in
                                        ("EBar", "HatScriptE")):
                continue
            for n, dM, T in itertools.product((1, 2, 3), (-1, 0, 1, 2),
                                              truncs):
                yield kind, SkewShape(lam, mu), EdgeSchurParams(
                    n, (-2, lam.first() + dM), 2, T)


class TestVariations:
    def test_pinned_sweep(self):
        h = hashlib.sha256()
        for kind, shape, p in variation_cases():
            h.update(f"{kind} {shape.outer.parts} {shape.inner.parts} "
                     f"{p.num_vars} {p.window} {p.trunc}: "
                     f"{canonical_string(variation(kind, shape, p))}\n"
                     .encode())
        assert h.hexdigest() == VARIATIONS_SHA256

    def test_ebar_multiply_back_sweep(self):
        one = MultiPoly.one()
        for lam in partitions_in_box(3, 2):
            shape = SkewShape(lam, Partition.of((), 3))
            for n, dM in itertools.product((1, 2, 3), (-1, 0, 1, 2)):
                p = EdgeSchurParams(n, (-3, lam.first() + dM), 3)
                back = variation("EBar", shape, p)
                for k in range(lam.first(), p.window[1] + 1):
                    for j in range(1, n + 1):
                        back = back * (one + V(av(k)) * V(yv(j)))
                assert back == edge_schur(shape, p, var_kind="y"), (lam, p)

    def test_ebar_empty(self):
        p = EdgeSchurParams(2, (0, 3), 0)
        assert variation("EBar", SkewShape.of(()), p) == MultiPoly.one()

    def test_ebar_multiply_back(self):
        p = EdgeSchurParams(2, (-1, 3), 1)
        shape = SkewShape.of((1,))
        ebar = variation("EBar", shape, p)
        back = ebar
        one = MultiPoly.one()
        for k in range(1, 4):
            for j in (1, 2):
                back = back * (one + V(av(k)) * V(yv(j)))
        assert back == edge_schur(shape, p, var_kind="y")

    def test_ebar_truncates_after_dividing(self):
        shape = SkewShape.of((2, 1), extent=2)
        exact = variation("EBar", shape, EdgeSchurParams(2, (-2, 2), 2))
        cut = variation("EBar", shape, EdgeSchurParams(2, (-2, 2), 2, 6))
        assert cut == exact.truncate(6)

    def test_ebar_rejects_skew(self):
        p = EdgeSchurParams(1, (-2, 2), 2)
        with pytest.raises(UnsupportedSkew):
            variation("EBar", SkewShape.of((2, 1), (1,)), p)

    def test_dualfact_empty(self):
        p = EdgeSchurParams(2, (0, 3), 0)
        assert variation("DualFact", SkewShape.of(()), p) == MultiPoly.one()

    def test_dualfact_is_negative_window(self):
        shape = SkewShape.of((2, 1), (), extent=2)
        p = EdgeSchurParams(2, (-2, 2), 2)
        df = variation("DualFact", shape, p)
        below = edge_schur(shape, EdgeSchurParams(2, (-2, -1), 2), var_kind="y")
        assert df == below

    def test_hatscripte_empty(self):
        p = EdgeSchurParams(2, (0, 2), 0, 6)
        assert variation("HatScriptE", SkewShape.of(()), p) == MultiPoly.one(6)


class TestDualSchur:
    def test_single_box_series(self):
        assert dual_schur(SkewShape.of((1,)), 1, 5) == \
            parse("y1 + a0*y1^2 + a0^2*y1^3")

    # from m = 3 on, the chains pass through nu with nu/mu no horizontal strip
    def test_equals_hatscripte_2x2(self):
        for m in (1, 2, 3):
            for parts in [(1,), (2,), (1, 1), (2, 1), (2, 2), (1, 1, 1), (3, 1)]:
                lam = Partition.of(parts)
                shape = SkewShape.of(parts, (), extent=lam.length())
                N = max(lam.first(), 2)
                p = EdgeSchurParams(m, (-lam.length(), N), lam.length(), 6)
                assert dual_schur(shape, m, 6) == \
                    variation("HatScriptE", shape, p), (m, parts)

    def test_alpha_substitution(self):
        for m in (1, 2, 3):
            for parts in [(1,), (2,), (1, 1), (2, 1)]:
                lam = Partition.of(parts)
                shape = SkewShape.of(parts, (), extent=lam.length())
                assert dual_schur_alpha(shape, m, 6) == \
                    schur_substituted(lam, m, 6), (m, parts)

    def test_skew_strip_only(self):
        # single variable: zero unless the skew shape is a horizontal strip
        assert dual_schur(SkewShape.of((2, 2), (1,)), 1, 4).is_zero()


def map_vars_corpus() -> list[str]:
    """The substitutions the library makes: swap_x_vars on E^lam and on
    E^lam * x_i, lam in the 2x2 box, n = 3; dual_schur_alpha and
    schur_substituted for lam in the 2x2 box, m <= 2 and T in {4, 6}."""
    lines = []
    for lam in partitions_in_box(2, 2):
        shape = SkewShape.of(lam.parts, (), extent=2)
        e = edge_schur(shape, EdgeSchurParams(3, (-2, 2), 2))
        for i in (1, 2):
            for p in (e, e * V(xv(i))):
                lines.append(f"swap {lam} {i} {swap_x_vars(p, i, i + 1)!r}")
        for m in (1, 2):
            for T in (4, 6):
                lines.append(f"alpha {lam} {m} {T} "
                             f"{dual_schur_alpha(shape, m, T)!r}")
                lines.append(f"subst {lam} {m} {T} "
                             f"{schur_substituted(lam, m, T)!r}")
    return lines


# recorded when map_vars multiplied out every term's image
MAP_VARS_DIGEST = ("04baea3623732eb0239725df9e751d39"
                   "9445f097c475f318cfaad12c2be5255a")


def test_map_vars_corpus_is_pinned():
    lines = map_vars_corpus()
    assert len(lines) == 72
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == MAP_VARS_DIGEST


def _ssyt_box_cases():
    """Every skew shape in the 2x3 box at extent 2, with n = 0..3."""
    box = partitions_in_box(2, 3)
    return [(SkewShape(lam, mu), n) for lam in box for mu in box
            if lam.contains(mu) for n in range(4)]


class TestTableauReference:
    """The closed forms against sums over enumerate_ssyt, skew shapes
    included (elsewhere only cauchy_check reaches skew factorial Schur)."""

    def test_schur(self):
        for shape, n in _ssyt_box_cases():
            total = MultiPoly.zero()
            for t in enumerate_ssyt(shape, n):
                term = MultiPoly.one()
                for _, v in t.entries:
                    term = term * V(xv(v))
                total = total + term
            assert schur(shape, n) == total, (shape, n)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("shift", [-1, 0, 1])
    def test_factorial_schur(self, sign, shift):
        for shape, n in _ssyt_box_cases():
            total = MultiPoly.zero()
            for t in enumerate_ssyt(shape, n):
                term = MultiPoly.one()
                for (i, j), v in t.entries:
                    term = term * (V(xv(v)) - V(av(v + j - i + shift)) * sign)
                total = total + term
            assert factorial_schur(shape, n, sign, shift) == total, (shape, n)


def test_closed_forms_use_no_other_route(monkeypatch):
    """The closed forms enumerate no tableau or chain and run no lattice,
    so brute, lattice and closed form stay three independent routes."""
    def refuse(*args, **kwargs):
        raise AssertionError("a closed form reached another route")

    for mod in [m for name, m in sys.modules.items()
                if name.split(".")[0] == "edgeschur"]:
        for name in ("enumerate_elt", "enumerate_ssyt", "strip_chains",
                     "partition_function", "horizontal_strips_between",
                     "_checked_chains", "_sweep"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, refuse)
    shape = SkewShape.of((2, 1), (1,), extent=2)
    p = EdgeSchurParams(2, (-2, 2), 2, 4)
    assert not schur(shape, 2).is_zero()
    assert not factorial_schur(shape, 2, -1, 1).is_zero()
    assert not edge_schur(shape, p).is_zero()
    assert not dual_schur(shape, 2, 4).is_zero()
    assert not variation("ScriptE", shape, p).is_zero()


class TestBranchEngine:
    @pytest.mark.parametrize("outer, inner, calls", [
        ((3, 2, 1), (1,), (38, 38, 88)),
        ((3, 3), (), (18, 18, 48)),
        ((2, 2, 1), (1, 1), (17, 17, 32)),
    ], ids=["321-1", "33", "221-11"])
    def test_row_calls_are_pinned(self, monkeypatch, outer, inner, calls):
        """The engine visits only the strips from which lam is still
        reachable: without the lam_{k+n-v} floor these read 90/90/141,
        59/59/94 and 31/31/46."""
        module = sys.modules["edgeschur.schur"]
        branch = module._branch
        count = [0]

        def counting(shape, n, row, trunc=None):
            def counted(*args):
                count[0] += 1
                return row(*args)
            return branch(shape, n, counted, trunc)

        monkeypatch.setattr(module, "_branch", counting)
        shape = SkewShape.of(outer, inner, extent=3)
        got = []
        for form in (lambda: edge_schur(shape, EdgeSchurParams(3, (-3, 3), 3)),
                     lambda: factorial_schur(shape, 3),
                     lambda: schur(shape, 4)):
            count[0] = 0
            form()
            got.append(count[0])
        assert tuple(got) == calls

    def test_no_depth_limit_on_n(self, fresh_python):
        # the recursive engine raised RecursionError from n = 495
        code, out, err = fresh_python(
            "from edgeschur import canonical_string, schur, SkewShape\n"
            "for parts, n in [((), 1500), ((1,), 600)]:\n"
            "    print(canonical_string(schur(SkewShape.of(parts, (),"
            " extent=1), n)))\n")
        assert code == 0, err
        assert out.splitlines() == [
            "1", " + ".join(f"x{i}" for i in range(1, 601))]

    def test_level_map_reads_every_target(self):
        """One level map over many targets gives each the sum _branch gives
        it alone, whether the targets are the whole box or the shapes of
        one size, whose floors do not nest; a target no chain reaches, as
        one not containing the inner shape or one past n strips, reads
        zero.  Its row calls hold the single-target ones, and at the last
        level they are the union of those: a row into a shape that is no
        target is never formed."""
        box = partitions_in_box(3, 3)
        rows = [(_edge_row((-3, 3)), None), (_edge_row((-2, 1), "y", -1, 2), 3),
                (_factorial_row(-1, -1), None)]

        def calls(inner, targets, n, row, trunc):
            seen = []

            def recorded(top, bottom, v):
                seen.append((top, bottom, v))
                return row(top, bottom, v)
            return _levels(inner, targets, n, recorded, trunc), set(seen)

        unreached = 0
        for inner, n, (row, trunc) in itertools.product(box, (1, 2, 3), rows):
            want, single = {}, {}
            for lam in box:
                want[lam], single[lam] = calls(inner, [lam], n, row, trunc)
                want[lam] = want[lam][lam]
                if lam.contains(inner):
                    assert want[lam] == _branch(SkewShape(lam, inner), n,
                                                row, trunc)
                else:
                    assert want[lam].is_zero() and not single[lam]
            unreached += sum(w.is_zero() for w in want.values())
            for targets in [box, *([lam for lam in box if lam.size() == size]
                                   for size in range(10))]:
                got, seen = calls(inner, targets, n, row, trunc)
                assert list(got) == targets
                assert all(got[lam] == want[lam] for lam in targets), \
                    (inner, n, targets)
                union = set().union(*(single[lam] for lam in targets))
                assert seen >= union
                assert {c for c in seen if c[2] == n} == \
                    {c for c in union if c[2] == n}
        assert unreached
        assert _levels(box[0], [], 2, rows[0][0]) == {}

    def test_many_shape_forms_read_the_single_shape_ones(self):
        """factorial_schurs and edge_schurs give, keyed by the outer shapes
        as passed, what factorial_schur and edge_schur give each shape."""
        inner = Partition.of((1,))
        outers = [Partition.of(parts, 3) for parts in
                  [(2, 1), (3, 1, 1), (2, 2), (1,), (4,)]] + [Partition.of((3,))]
        p = EdgeSchurParams(2, (-3, 2), 3, 4)
        fact = factorial_schurs(inner, outers, 2, -1, 1, trunc=3)
        edge = edge_schurs(inner, outers, p, "y", -1, 2)
        assert list(fact) == list(edge) == outers
        for lam in outers:
            shape = SkewShape.of(lam, inner)
            assert fact[lam] == factorial_schur(shape, 2, -1, 1).truncate(3)
            assert edge[lam] == edge_schur(shape, p, "y", -1, 2)
        assert not fact[outers[0]].is_zero() and not edge[outers[0]].is_zero()
        with pytest.raises(ValueError, match="sign"):
            factorial_schurs(inner, outers, 2, sign=2)


def _edge_row_reference(window, var_kind="x", sign=1, index_shift=0):
    """The edge row as a product of MultiPoly factors."""
    def row(top, bottom, v):
        x = MultiPoly.var(xv(v) if var_kind == "x" else yv(v))
        out = x ** (top.size() - bottom.size())
        for d in deformed_diagonals(top, bottom, window):
            out = out * (MultiPoly.one()
                         + MultiPoly.var(av(d + index_shift)) * x * sign)
        return out
    return row


def _factorial_row_reference(sign=1, index_shift=0):
    """The factorial row as a product of MultiPoly factors."""
    def row(top, bottom, v):
        out = MultiPoly.one()
        for i, (lo, hi) in enumerate(zip(bottom.parts, top.parts), start=1):
            for j in range(lo + 1, hi + 1):
                out = out * (MultiPoly.var(xv(v))
                             - MultiPoly.var(av(v + j - i + index_shift)) * sign)
        return out
    return row


def test_packed_rows_match_the_product_reference():
    """The rows built on packed codes equal the products of their factors
    on every horizontal strip of the 3x3 box."""
    strips = [(top, bottom) for bottom in partitions_in_box(3, 3)
              for top in horizontal_strips_between(bottom, Partition((3, 3, 3)))]
    assert len(strips) == 84
    for sign, shift in itertools.product((1, -1), (-1, 0, 2)):
        cases = [(_factorial_row(sign, shift),
                  _factorial_row_reference(sign, shift))]
        for m, M, kind in itertools.product(range(-3, 1), range(-1, 4), "xy"):
            cases.append((_edge_row((m, M), kind, sign, shift),
                          _edge_row_reference((m, M), kind, sign, shift)))
        # a truncated edge row is the product cut to its truncation
        for T in (0, 1, 2, 3, 5):
            reference = _edge_row_reference((-3, 3), "x", sign, shift)
            cases.append((_edge_row((-3, 3), "x", sign, shift, T),
                          lambda top, bottom, v, T=T, reference=reference:
                          reference(top, bottom, v).truncate(T)))
        for packed, reference in cases:
            for top, bottom in strips:
                assert packed(top, bottom, 2) == reference(top, bottom, 2), \
                    (top, bottom, sign, shift)


def test_truncated_edge_row_forms_only_the_terms_it_keeps():
    """expand --family edge --lambda 1 --n 1 --extent 1 --window 0:18
    --trunc 3 reads the row (1)/(0) with D = 18 deformed diagonals: at
    truncation 3 it holds at most 1 + D terms, where the uncut product
    holds 2**D."""
    top, bottom = Partition.of((1,), 1), Partition.of((), 1)
    window = (0, 18)
    D = len(deformed_diagonals(top, bottom, window))
    assert D == 18
    row = _edge_row(window, trunc=3)(top, bottom, 1)
    assert 1 < len(row.terms) <= 1 + D
    assert row == _edge_row(window)(top, bottom, 1).truncate(3)
    shape = SkewShape(top, bottom)
    assert edge_schur(shape, EdgeSchurParams(1, window, 1, 3)) == row
    # the top degree is still refused before any term is formed
    with pytest.raises(OverflowError, match="exceeds"):
        _edge_row((0, MAX_DEGREE), trunc=3)(top, bottom, 1)


def test_brute_oracle_uses_no_other_route(monkeypatch):
    """The brute ELT sum runs with the branching engine and the lattice DP
    both refusing, so it checks them from outside."""
    from edgeschur.tableaux import enumerate_elt

    def refuse(*args, **kwargs):
        raise AssertionError("the brute oracle reached another route")

    shape = SkewShape.of((2, 1), (1,), extent=2)
    p = EdgeSchurParams(2, (-2, 2), 2, 4)
    want = MultiPoly.zero()
    for t in enumerate_elt(shape, p.num_vars, p.window, p.extent):
        want = want + t.weight()
    for mod in [m for name, m in sys.modules.items()
                if name.split(".")[0] == "edgeschur"]:
        for name in ("_branch", "_levels", "partition_function"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, refuse)
    assert edge_schur_brute(shape, p) == want.truncate(4)
    assert not want.truncate(4).is_zero()


class TestParams:
    @pytest.mark.parametrize("args", [(0, (-1, 1), 1), (2, (-1, 1), 1, -1),
                                      (2, (-1, -3), 1)],
                             ids=["no-vars", "negative-trunc", "reversed-window"])
    def test_refuses(self, args):
        with pytest.raises(ValueError, match="invalid EdgeSchurParams"):
            EdgeSchurParams(*args)

    def test_empty_window_is_legal(self):
        assert EdgeSchurParams(2, (0, -1), 0).window == (0, -1)
        assert EdgeSchurParams(1, (-1, 1), 1, 0).trunc == 0
        # DualFact cuts a window that starts above -1 down to the empty one
        p = EdgeSchurParams(2, (1, 3), 1)
        assert variation("DualFact", SkewShape.of((1,)), p) == parse("y1 + y2")


class TestSchurExpand:
    def test_self(self):
        s = schur(SkewShape.of((2, 1), (), extent=3), 3)
        coeffs, rem = schur_expand(s, 3, 3)
        assert coeffs == {Partition.of((2, 1), extent=3): MultiPoly.one()}
        assert rem.is_zero()

    def test_edge_schur_21_window(self):
        e = edge_schur(SkewShape.of((1,)), EdgeSchurParams(2, (-1, 1), 1))
        coeffs, _ = schur_expand(e, 2, 2)
        a = lambda d: V(av(d))
        assert coeffs[Partition.of((1,), extent=2)] == MultiPoly.one()
        assert coeffs[Partition.of((1, 1))] == a(-1) + a(0) + a(1)
        assert coeffs[Partition.of((2,), extent=2)] == a(1)

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            schur_expand(V(xv(2)), 2, 2)


def _group_by_x(p):
    """p as {x-monomial: coefficient polynomial in the rest}."""
    out = {}
    for m, c in p.terms.items():
        xs, rest = split_x_part(m)
        out.setdefault(xs, {})[rest] = c
    return {xs: MultiPoly(d) for xs, d in out.items()}


def _schur_expand_reference(f, n, max_size):
    """The peel that regroups the whole working polynomial on every step."""
    coeffs = {}
    work = MultiPoly(dict(f.terms))
    while True:
        groups = _group_by_x(work)
        best = None
        for xmono in groups:
            deg = monomial_degree(xmono)
            if deg > max_size:
                continue
            vec = x_exponent_vector(xmono, n)
            key = (deg, tuple(-e for e in vec))
            if best is None or key < best[0]:
                best = (key, xmono, vec)
        if best is None:
            break
        _, xmono, vec = best
        if any(vec[i] < vec[i + 1] for i in range(n - 1)):
            raise NotSymmetric(
                f"leading x-monomial exponents {vec} are not a partition")
        nu = Partition(tuple(vec))
        c = groups[xmono]
        s = schur(SkewShape.of([p for p in nu.parts if p > 0],
                               (), extent=n), n)
        work = work - c * s
        if nu in coeffs:
            raise NotSymmetric(f"peeling revisited {nu}; f is not symmetric")
        coeffs[nu] = c
        if any(monomial_degree(xm) <= max_size
               for xm in _group_by_x(work) if xm == xmono):
            raise NotSymmetric(
                f"subtracting s_{nu} did not clear its leading term")
    return coeffs, work


def _peel_outcome(expand, f, n, max_size):
    try:
        coeffs, rem = expand(f, n, max_size)
    except NotSymmetric as exc:
        return "NotSymmetric", str(exc)
    return ({nu: canonical_string(c) for nu, c in coeffs.items()},
            canonical_string(rem))


def _swap_one_term(e):
    """e with x1 and x2 swapped in its first term where they differ."""
    m, c = next((m, c) for m, c in sorted_terms(e)
                if len(set(x_exponent_vector(m, 2))) == 2)
    term = MultiPoly.monomial(m, c)
    return e - term + swap_x_vars(term, 1, 2)


class TestSchurExpandReference:
    """schur_expand against the peel, which subtracts c_nu * s_nu for one
    leading term at a time and shares no step with the bialternant."""

    @staticmethod
    def assert_agrees(f, n, max_size):
        ours = _peel_outcome(schur_expand, f, n, max_size)
        assert ours == _peel_outcome(_schur_expand_reference, f, n, max_size)
        assert ours[0] != "NotSymmetric"
        return ours

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("window", [(-2, 2), (-3, 1)])
    @pytest.mark.parametrize("trunc", [None, 4])
    def test_box(self, n, window, trunc):
        for lam in partitions_in_box(2, 3):
            e = edge_schur(SkewShape.of(lam.parts, (), extent=2),
                           EdgeSchurParams(n, window, 2, trunc))
            for size in (0, lam.size(), lam.size() + 2):
                self.assert_agrees(e, n, size)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_skew(self, n):
        """Littlewood-Richardson coefficients of skew s and, with a-valued
        coefficients, of skew factorial s."""
        box = list(partitions_in_box(3, 2))
        for lam, mu in itertools.product(box, box):
            if not lam.contains(mu):
                continue
            shape = SkewShape.of(lam.parts, mu.parts, extent=3)
            size = lam.size() - mu.size()
            for f in (schur(shape, n), factorial_schur(shape, n, sign=-1)):
                for max_size in (0, size, size + 1):
                    self.assert_agrees(f, n, max_size)

    @pytest.mark.parametrize("n", [1, 2])
    def test_y_only_is_one_constant_coefficient(self, n):
        shape = SkewShape.of((2,), (), extent=2)
        p = EdgeSchurParams(n, (-2, 2), 2, 4)
        for f in (variation("ScriptE", shape, p), dual_schur(shape, n, 4)):
            assert f and not f.variables() & {xv(1), xv(2)}
            for max_size in (0, 3):
                ours = self.assert_agrees(f, n, max_size)
                assert ours == ({Partition((0,) * n): canonical_string(f)},
                                "0")

    def test_not_symmetric(self):
        e = edge_schur(SkewShape.of((2, 1), (), extent=2),
                       EdgeSchurParams(2, (-2, 2), 2))
        first = ("f is not symmetric under x1 <-> x2: the lowest-degree "
                 "difference is at x1, where f has 0 and its swap 1")
        for f, message in (
                (V(xv(2)), first),
                (parse("x1^2 + x2"), first),
                (_swap_one_term(e),
                 "f is not symmetric under x1 <-> x2: the lowest-degree "
                 "difference is at x1^2*x2, where f has 0 and its swap 2")):
            assert _peel_outcome(schur_expand, f, 2, 5) == ("NotSymmetric",
                                                            message)
            assert _peel_outcome(_schur_expand_reference, f, 2,
                                 5)[0] == "NotSymmetric", f

    def test_x_outside_range_refused_before_symmetry(self):
        # x3 with n = 2: a usage error, as the peel found it first
        for expand in (schur_expand, _schur_expand_reference):
            with pytest.raises(ValueError, match="x3 outside declared range"):
                expand(parse("x1 + x3"), 2, 5)


def test_hatscripte_rejects_skew():
    p = EdgeSchurParams(1, (-2, 2), 2, 6)
    with pytest.raises(UnsupportedSkew):
        variation("HatScriptE", SkewShape.of((2, 1), (1,)), p)
