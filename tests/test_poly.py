import hashlib
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeschur import lattice, poly
from edgeschur.poly import (ALPHA, FIELD_BITS, MAX_DEGREE, MultiPoly,
                            NotInvertible, av, canonical_string, map_vars,
                            monomial_degree, parse, series_inverse,
                            sorted_terms, split_x_part, var_name, xv, yv)
from edgeschur.schur import EdgeSchurParams, edge_schur_brute
from edgeschur.shapes import Partition, SkewShape

from conftest import random_poly, total_degree


def V(v):
    return MultiPoly.var(v)


class TestAdd:
    def test_cancellation(self):
        p = V(xv(1)) + V(av(0))
        q = V(xv(1)) - V(av(0))
        assert p + q == MultiPoly.const(2) * V(xv(1))

    def test_identity(self):
        p = random_poly(random.Random(1))
        assert p + MultiPoly.zero() == p

    def test_expand_and_cancel(self):
        p = (MultiPoly.one() + V(av(-1)) * V(xv(2))) \
            * (MultiPoly.one() + V(av(0)) * V(xv(2)))
        assert (p + (-p)).is_zero()


class TestMul:
    def test_factored_quadratic(self):
        p = (V(xv(1)) - V(av(1))) * (V(xv(1)) - V(av(2)))
        assert canonical_string(p) == "x1^2 - a1*x1 - a2*x1 + a1*a2"

    def test_unit(self):
        p = random_poly(random.Random(2))
        assert p * MultiPoly.one() == p

    def test_truncated_square(self):
        p = MultiPoly.one(2) + V(av(1)) * V(xv(1))
        sq = (p * p).truncate(2)
        assert sq == MultiPoly.one(2) + MultiPoly.const(2) * V(av(1)) * V(xv(1))

    def test_operand_above_its_own_truncation_is_cut(self):
        # a hand-built operand may hold terms past its own truncation, so
        # a product may not hand over an operand's terms uncut: x1 at
        # truncation 0 is one such, times 1 and times 1 + a0
        x_cut = MultiPoly.var(xv(1), 0)
        assert (x_cut * MultiPoly.one(0)).is_zero()
        assert ((MultiPoly.one() + V(av(0))) * x_cut).is_zero()


class TestSeriesInverse:
    def test_geometric(self):
        p = MultiPoly.one() - V(xv(1)) * V(yv(1))
        q = series_inverse(p, 3)
        # the degree-4 square term exceeds the bound
        assert q == MultiPoly.one() + V(xv(1)) * V(yv(1))

    def test_one(self):
        assert series_inverse(MultiPoly.one(), 7) == MultiPoly.one()

    def test_multiply_back(self):
        p = MultiPoly.one() + V(av(0)) * V(yv(1))
        q = series_inverse(p, 4)
        assert q == parse("1 - a0*y1 + a0^2*y1^2")
        assert (q * p).truncate(4) == MultiPoly.one(4)

    def test_not_invertible(self):
        with pytest.raises(NotInvertible):
            series_inverse(MultiPoly.const(2), 3)

    def test_random_invertible(self):
        rng = random.Random(7)
        for _ in range(100):
            p = random_poly(rng, nvars=2, max_deg=2, nterms=3)
            c = p.constant_term()
            p = p - MultiPoly.const(c) + MultiPoly.const(rng.choice((1, -1)))
            T = 4
            q = series_inverse(p, T)
            assert (q * p).truncate(T) == MultiPoly.one(T)


class TestSubstitute:
    def test_geometric_series(self):
        inv = series_inverse(MultiPoly.one() - V(ALPHA) * V(yv(1)), 5)
        expr = V(yv(1)) * inv
        out = map_vars(V(yv(1)), lambda v: expr if v == yv(1) else V(v), 5)
        assert out == parse("y1 + alpha*y1^2 + alpha^2*y1^3")

    def test_constant(self):
        out = map_vars(MultiPoly.one(), lambda v: V(xv(1)), 3)
        assert out == MultiPoly.one(3)

    def test_zero_image(self):
        p = parse("x1 + 3*x1*a0 - a0^2*y1 + 2")
        out = map_vars(p, lambda v: MultiPoly.zero() if v == av(0) else V(v))
        assert out == parse("x1 + 2")

    def test_multi_term_image(self):
        p = parse("x1^2*y1 - 2*x2")
        out = map_vars(p, lambda v: V(xv(1)) + V(xv(2)) if v == xv(1)
                       else V(v), 2)
        assert out == parse("-2*x2") and out.trunc == 2
        out = map_vars(p, lambda v: V(xv(1)) + V(xv(2)) if v == xv(1)
                       else V(v))
        assert out == parse("x1^2*y1 + 2*x1*x2*y1 + x2^2*y1 - 2*x2")

    def test_single_term_images(self):
        # a rescaling, a swap that merges two terms, and a renaming
        # that the truncation drops
        p = parse("x1*a(-1) + a2*x1 - 4*x2*x1^3")
        out = map_vars(p, lambda v: (-3 * V(ALPHA) if v[0] == 3
                                     else V(xv(3 - v[1]))))
        assert out == parse("-6*alpha*x2 - 4*x1*x2^3")
        out = map_vars(p, lambda v: V(v) * V(v) if v == xv(1) else V(v), 4)
        assert out == parse("a(-1)*x1^2 + a2*x1^2") and out.trunc == 4
        assert map_vars(parse("x1*x2 + x1"),
                        lambda v: V(ALPHA) * V(v), 2) == parse("alpha*x1")

    def test_degree_past_the_field_raises(self):
        p = V(xv(1)) ** 200 + V(yv(1))
        with pytest.raises(OverflowError):
            map_vars(p, lambda v: V(v) ** 200)
        # a truncation at or below the limit drops the term instead
        assert map_vars(p, lambda v: V(v) ** 200, MAX_DEGREE) == \
            V(yv(1)) ** 200


class TestCanonicalString:
    def test_zero(self):
        assert canonical_string(MultiPoly.zero()) == "0"
        assert parse("0").is_zero()

    def test_ordering(self):
        p = parse("a1*a2 - a2*x1 + x1^2 - a1*x1")
        assert canonical_string(p) == "x1^2 - a1*x1 - a2*x1 + a1*a2"

    def test_negative_index(self):
        p = V(av(-3)) * V(xv(1))
        s = canonical_string(p)
        assert s == "a(-3)*x1"
        assert parse(s) == p
        assert parse("a-3*x1") == p

    def test_roundtrip_random(self):
        rng = random.Random(11)
        for _ in range(50):
            p = random_poly(rng)
            assert parse(canonical_string(p)) == p


class TestParse:
    @pytest.mark.parametrize("s, value", [
        ("a-3*x1", V(av(-3)) * V(xv(1))),
        ("alpha-x1", V(ALPHA) - V(xv(1))),
        ("x1 - -x2", V(xv(1)) + V(xv(2))),
        ("2*3*x1", 6 * V(xv(1))),
        ("x1 ^ 2", V(xv(1)) ** 2),
        ("-0", MultiPoly.zero()),
        ("+x1", V(xv(1)))])
    def test_accepts(self, s, value):
        assert parse(s) == value

    @pytest.mark.parametrize("s", ["", "  ", "-", "x1 *", "x1^", "x1 + ",
                                   "x1*-x2", "b1"])
    def test_refuses(self, s):
        with pytest.raises(poly.ParseError):
            parse(s)

    @pytest.mark.parametrize("s", ["*x1", "x1**x2", "+ *x1"])
    def test_refuses_a_star_after_no_factor(self, s):
        with pytest.raises(poly.ParseError):
            parse(s)

    @pytest.mark.parametrize("s, token", [("x0", "x0"), ("2*y0^2 + x1", "y0")])
    def test_refuses_an_index_below_one_naming_its_token(self, s, token):
        with pytest.raises(poly.ParseError, match=f"cannot read '{token}': "
                           "[xy]-index must be >= 1, got 0"):
            parse(s)


# -- the reference printer: each monomial decoded for the sort key and again
# for its text, with a tuple key per term --------------------------------


def _words(m, nbytes):
    """m's first nbytes // 2 fields as 16-bit words, the degree field first."""
    return memoryview(m.to_bytes(nbytes, sys.byteorder)).cast("H")


def reference_sorted_terms(p):
    """Terms by total degree, then descending-lex on the exponent vector."""
    cols = [poly._SHIFT[v] // FIELD_BITS for v in sorted(p.variables())]
    nbytes = 2 * (max(cols, default=0) + 1)

    def key(mc):
        words = _words(mc[0], nbytes)
        return (words[0], tuple(-words[k] for k in cols))

    return sorted(p.terms.items(), key=key)


def reference_string(p):
    if p.is_zero():
        return "0"
    printed = sorted(p.variables(),
                     key=lambda v: (poly._PRINT_RANK[v[0]], v[1]))
    cols = [(poly._SHIFT[v] // FIELD_BITS, var_name(v)) for v in printed]
    nbytes = 2 * (max((k for k, _ in cols), default=0) + 1)
    parts = []
    for m, c in reference_sorted_terms(p):
        words = _words(m, nbytes)
        mono = "*".join(name if words[k] == 1 else f"{name}^{words[k]}"
                        for k, name in cols if words[k])
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{' + ' if c > 0 else ' - '}{body}")
    return "".join(parts)


# fresh variables, registered against VarKey order (a before y before x,
# and x1742 after x1747), so field order and print order disagree
FRESH = [av(1741), av(-1741), yv(1743), xv(1747), xv(1742)]
POOL = [xv(1), xv(2), yv(1), yv(2), ALPHA, av(-3), av(-1), av(0), av(2),
        *FRESH]


def _coeff(rng):
    return rng.choice((1, -1)) * rng.choice((1, 1, rng.randint(2, 40)))


def _random_terms(rng, variables, nterms, top, constant=True):
    out = MultiPoly.zero()
    for _ in range(nterms):
        term = MultiPoly.const(_coeff(rng))
        for v in variables:
            term = term * V(v) ** rng.randint(0, top)
        if constant or total_degree(term) > 0:
            out = out + term
    return out


def printing_corpus(size=2400, seed=1717):
    """A seeded list of polynomials covering the printer's cases: constants,
    "0" after truncation, one variable, alpha, y and a(-k), coefficients
    +-1 and larger, a negative leading term and truncated series."""
    for v in FRESH:
        V(v)
    rng = random.Random(seed)
    corpus = []
    for i in range(size):
        kind = i % 8
        if kind == 0:                       # constant only
            p = MultiPoly.const(_coeff(rng))
        elif kind == 1:                     # no term survives truncation
            p = _random_terms(rng, rng.sample(POOL, 3), 4, 2,
                              constant=False).truncate(0)
        elif kind == 2:                     # one variable: one column
            p = _random_terms(rng, [rng.choice(POOL)], rng.randint(1, 6), 7)
        elif kind == 3:                     # negative leading term
            p = _random_terms(rng, rng.sample(POOL, 3), 5, 3)
            if sorted_terms(p) and sorted_terms(p)[0][1] > 0:
                p = -p
        else:                               # mixed, sometimes truncated
            p = _random_terms(rng, rng.sample(POOL, rng.randint(2, 8)),
                              rng.randint(1, 12), 3)
            if kind >= 6:
                p = p.truncate(rng.randint(0, 8))
        corpus.append(p)
    return corpus


DIGEST = ("67d5c5d3f1eefc68b7be9d7f81092a52"
          "6e9eccad4828304b490b48b440187067")


class TestPrintingParity:
    """canonical_string and sorted_terms decode each monomial once; they give
    the reference printer's bytes and term order."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return printing_corpus()

    def test_corpus_is_pinned(self, corpus):
        # recorded when the reference printer was the library's printer
        text = "\n".join(reference_string(p) for p in corpus)
        assert len(corpus) == 2400
        assert hashlib.sha256(text.encode()).hexdigest() == DIGEST

    def test_corpus_covers_the_cases(self, corpus):
        shifts = [poly._SHIFT[v] for v in FRESH]
        assert shifts == sorted(shifts) and FRESH != sorted(FRESH)
        strings = [reference_string(p) for p in corpus]
        assert sum(not p.variables() and p.terms != {} for p in corpus) >= 300
        assert sum(s == "0" and p.trunc == 0
                   for s, p in zip(strings, corpus)) >= 300
        assert sum(len(p.variables()) == 1 for p in corpus) >= 300
        assert sum(s.startswith("-") and "*" in s for s in strings) >= 300
        for piece in ("alpha", "y1743", "a(-", "a1741", "x1742", " + ", " - ",
                      "^"):
            assert any(piece in s for s in strings), piece
        coeffs = {abs(c) for p in corpus for c in p.terms.values()}
        assert 1 in coeffs and max(coeffs) > 1

    def test_same_bytes_and_order(self, corpus):
        for p in corpus:
            s = canonical_string(p)
            assert s == reference_string(p)
            assert sorted_terms(p) == reference_sorted_terms(p)
            assert parse(s) == p


# seventeen fresh a-parameters, registered in this order: the last ones sit
# past the 16th field whatever the tests before them registered
LATE = [av(2101 + k) for k in range(17)]


@st.composite
def printed_polys(draw):
    """A polynomial drawn term by term: exponents up to 12 over a few
    variables of POOL and LATE, coefficients +-1 or larger, an optional
    constant beside the other terms, an optional negative leading term and
    an optional truncation."""
    for v in FRESH + LATE:
        V(v)
    variables = draw(st.lists(st.sampled_from(POOL + LATE[-3:]), min_size=1,
                              max_size=6, unique=True))
    coeffs = st.sampled_from([1, -1]) | st.integers(-60, 60).filter(bool)
    p = MultiPoly.const(draw(st.sampled_from([0, 1, -1])))
    for _ in range(draw(st.integers(1, 8))):
        term = MultiPoly.const(draw(coeffs))
        for v in variables:
            term = term * V(v) ** draw(st.integers(0, 12))
        p = p + term
    if draw(st.booleans()) and p.terms:
        if reference_sorted_terms(p)[0][1] > 0:
            p = -p
    return p.truncate(draw(st.none() | st.integers(0, 40)))


class TestPrinterProperties:
    def test_late_variables_sit_past_the_16th_field(self):
        for v in LATE:
            V(v)
        assert poly._SHIFT[LATE[-1]] // FIELD_BITS > 16

    @given(printed_polys())
    @settings(max_examples=300, deadline=None)
    def test_printer_matches_the_reference(self, p):
        s = canonical_string(p)
        assert s == reference_string(p)
        assert sorted_terms(p) == reference_sorted_terms(p)
        assert parse(s) == p


@st.composite
def polys(draw):
    seed = draw(st.integers(0, 10 ** 6))
    return random_poly(random.Random(seed), nvars=3, max_deg=2, nterms=3)


class TestRingAxioms:
    @given(polys(), polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_associativity_and_distributivity(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_commutativity(self, p, q):
        assert p + q == q + p
        assert p * q == q * p

    @given(polys(), polys(), st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_truncation_commutes(self, p, q, T):
        assert (p * q).truncate(T) == (p.truncate(T) * q.truncate(T)).truncate(T)
        assert (p + q).truncate(T) == (p.truncate(T) + q.truncate(T)).truncate(T)


def test_map_vars_sign_flip():
    p = parse("x1 + a1*x1 - a(-2)*x1^2")
    flipped = map_vars(p, lambda v: -V(v) if v[0] == 3 else V(v))
    assert flipped == parse("x1 - a1*x1 + a(-2)*x1^2")


class TestPackedMonomials:
    def test_degree_past_the_field_raises(self):
        x = V(xv(1))
        top = x ** MAX_DEGREE
        assert total_degree(top) == MAX_DEGREE
        with pytest.raises(OverflowError):
            top * x
        with pytest.raises(OverflowError):
            (top + MultiPoly.one()) * (x + V(av(-1)))
        # a truncation at or below the limit drops the term instead
        assert (top.truncate(MAX_DEGREE) * x).is_zero()
        with pytest.raises(OverflowError):
            parse(f"x1^{MAX_DEGREE} * a(-1)")

    def test_many_variables_roundtrip(self):
        # 81 a-parameters plus x and y: more fields than a 64-bit word holds
        p = MultiPoly.one()
        for d in range(-40, 41):
            p = p * V(av(d))
        p = (p * V(xv(1)) * V(yv(2))
             + parse("a(-40)^3*x2 - 5*a40*y3 + 7")
             - MultiPoly.const(2) * V(ALPHA) * V(av(-17)) * V(xv(1)))
        s = canonical_string(p)
        assert parse(s) == p
        assert canonical_string(parse(s)) == s
        assert len(p.variables()) == 81 + 5
        assert s.startswith("7 - 5*a40*y3 - 2*a(-17)*alpha*x1 + "
                            "a(-40)^3*x2 + a(-40)*a(-39)*")
        assert s.endswith("*a39*a40*x1*y2")

    def test_mixed_product_pinned(self):
        # bytes recorded before monomials were packed into ints
        p = ((V(xv(1)) + V(av(-2)) * V(yv(2)) - V(ALPHA))
             * (V(xv(2)) - V(av(1)) * V(xv(1)) + V(ALPHA) * V(yv(1)) * 2)
             * (MultiPoly.one() + V(av(-2)) * V(xv(1))
                - V(av(0)) * V(yv(2)) * 3))
        assert canonical_string(p) == (
            "x1*x2 - alpha*x2 - a1*x1^2 + 2*alpha*x1*y1 + a1*alpha*x1"
            " + a(-2)*x2*y2 - 2*alpha^2*y1 + a(-2)*x1^2*x2 - 3*a0*x1*x2*y2"
            " - a(-2)*alpha*x1*x2 - a(-2)*a1*x1*y2 + 3*a0*alpha*x2*y2"
            " + 2*a(-2)*alpha*y1*y2 - a(-2)*a1*x1^3"
            " + 2*a(-2)*alpha*x1^2*y1 + 3*a0*a1*x1^2*y2"
            " + a(-2)*a1*alpha*x1^2 + a(-2)^2*x1*x2*y2"
            " - 6*a0*alpha*x1*y1*y2 - 2*a(-2)*alpha^2*x1*y1"
            " - 3*a0*a1*alpha*x1*y2 - 3*a(-2)*a0*x2*y2^2"
            " + 6*a0*alpha^2*y1*y2 - a(-2)^2*a1*x1^2*y2"
            " + 2*a(-2)^2*alpha*x1*y1*y2 + 3*a(-2)*a0*a1*x1*y2^2"
            " - 6*a(-2)*a0*alpha*y1*y2^2")

    def test_split_x_part_with_a_fields_between_x_fields(self):
        # fresh variables, registered a, x, a, x, y: the x fields are not
        # one contiguous run of bits
        order = [av(-917), xv(931), av(919), xv(932), yv(933)]
        assert not any(v in poly._SHIFT for v in order)
        for v in order:
            V(v)
        shifts = [poly._SHIFT[v] for v in order]
        assert shifts == sorted(shifts)
        m = (V(av(-917)) ** 2 * V(xv(931)) * V(av(919)) * V(xv(932)) ** 3
             * V(yv(933)) * V(ALPHA))
        (m, _), = m.terms.items()
        xs, rest = split_x_part(m)
        assert xs + rest == m
        assert monomial_degree(xs) == 4 and monomial_degree(rest) == 5
        assert all(v[0] == poly._RANK_X for v, _ in poly._decode(xs))
        assert all(v[0] != poly._RANK_X for v, _ in poly._decode(rest))
        assert poly._decode(xs) == [(xv(931), 1), (xv(932), 3)]
        assert (canonical_string(MultiPoly.monomial(rest))
                == "a(-917)^2*a919*alpha*y933")


def _snapshot(p):
    return dict(p.terms), p.trunc


def test_accumulator_leaves_shared_values_alone():
    # L and L* pass a row's own parameter on as their b2/c2 (a1/c1) weight
    # and the constant 1 as the unit weights, so an in-place sum that wrote
    # into a weight would change the caller's parameter or lattice._ONE
    x1, x2 = V(xv(1)), V(xv(2))
    guarded = [lattice._ONE, lattice._ZERO, x1, x2]
    before = [_snapshot(p) for p in guarded]
    window = (-2, 2)
    lam, mu = Partition.of((2, 1)), Partition.of((1,), extent=2)
    for model, bottom, top in ((lattice.model_L(), mu, lam),
                               (lattice.model_Lstar(), lam, mu)):
        for trunc in (None, 2):
            rows = (lattice.GridRow(model, x1), lattice.GridRow(model, x2))
            z = lattice.partition_function(lattice.GridSpec(
                rows, window, lattice.maya_bits(bottom, window),
                lattice.maya_bits(top, window), trunc=trunc))
            assert not z.is_zero()
    # an unreachable top state returns lattice._ZERO itself
    rows = (lattice.GridRow(lattice.model_L(), x1),)
    z = lattice.partition_function(lattice.GridSpec(
        rows, window, lattice.maya_bits(lam, window),
        lattice.maya_bits(mu, window)))
    assert z is lattice._ZERO
    edge_schur_brute(SkewShape.of((2, 1), (), extent=2),
                     EdgeSchurParams(2, window, 2))
    assert [_snapshot(p) for p in guarded] == before
