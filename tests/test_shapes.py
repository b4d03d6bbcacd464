import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeschur.shapes import (Partition, SkewShape, deformed_diagonals,
                              horizontal_strips_between, maya_bit, maya_bits,
                              partitions_in_box, strip_chains)
from edgeschur.tableaux import enumerate_ssyt


def conjugate(lam: Partition) -> Partition:
    w = lam.first()
    return Partition(tuple(len([p for p in lam.parts if p >= j])
                           for j in range(1, w + 1)))


def is_horizontal_strip(outer: Partition, inner: Partition) -> bool:
    """outer/inner interlace: outer_1 >= inner_1 >= outer_2 >= inner_2 >= ..."""
    n = max(outer.extent, inner.extent)
    for k in range(1, n + 1):
        if outer.part(k) < inner.part(k):
            return False
        if inner.part(k) < outer.part(k + 1):
            return False
    return True


@st.composite
def small_partitions(draw, rows=4, cols=4):
    parts = []
    hi = cols
    for _ in range(draw(st.integers(0, rows))):
        v = draw(st.integers(0, hi))
        parts.append(v)
        hi = v
    extent = len(parts) + draw(st.integers(0, 2))
    return Partition.of([p for p in parts if p > 0], extent=extent)


class TestPartition:
    def test_extent_matters(self):
        assert Partition.of((2,)) != Partition.of((2,), extent=2)

    def test_rejects_increase(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_with_extent_equals_of(self):
        # the same object when the extent does not change
        for lam in partitions_in_box(4, 4):
            for k in range(lam.length(), 7):
                got = lam.with_extent(k)
                assert got == Partition.of(lam.parts, k)
                assert (got is lam) == (k == lam.extent)

    def test_conjugate_involution(self):
        for lam in partitions_in_box(4, 4):
            pos = Partition.of([p for p in lam.parts if p > 0])
            assert conjugate(conjugate(pos)) == pos

    @pytest.mark.parametrize("rows, cols", [(-1, 2), (1, -1)])
    def test_box_with_a_negative_side(self, rows, cols):
        with pytest.raises(ValueError, match="negative side"):
            partitions_in_box(rows, cols)

    @pytest.mark.parametrize("rows, cols, expect", [
        (2, 2, [(2, 2), (2, 1), (2, 0), (1, 1), (1, 0), (0, 0)]),
        (0, 3, [()]), (2, 0, [(0, 0)])])
    def test_box_order(self, rows, cols, expect):
        assert [lam.parts for lam in partitions_in_box(rows, cols)] == expect

    @pytest.mark.parametrize("outer, inner, expect", [
        ((2, 1), (2, 1, 0), True), ((2, 1, 0), (2, 1), True),
        ((2, 1, 0, 0), (2,), True), ((1,), (0, 0, 0), True),
        ((2,), (2, 1), False), ((), (1,), False), ((1, 1), (2,), False)])
    def test_contains_across_extents(self, outer, inner, expect):
        # parts beyond a partition's extent count as zeros
        assert Partition(outer).contains(Partition(inner)) is expect

    def test_content_sum(self):
        # sum of contents = sum_j C(lam'_j, 2) - sum_i C(lam_i, 2)
        for lam in partitions_in_box(4, 4):
            direct = sum(j - i for i, j in lam.cells())
            conj = conjugate(lam)
            via = (sum(p * (p - 1) // 2 for p in lam.parts)
                   - sum(p * (p - 1) // 2 for p in conj.parts))
            assert direct == via


class TestMaya:
    def test_hook_shape_window(self):
        assert maya_bits(Partition.of((3, 3, 1)), (-4, 4)) == \
            (1, 0, 1, 0, 0, 1, 1, 0, 0)

    def test_rectangle_binary_string(self):
        lam = Partition.of((4, 2, 1), extent=4)
        assert maya_bits(lam, (-4, 5)) == (1, 0, 1, 0, 1, 0, 0, 1, 0, 0)

    def test_vacuum(self):
        assert maya_bits(Partition.of((), extent=3), (-3, 1)) == (1, 1, 1, 0, 0)
        assert maya_bits(Partition.of((), extent=2), (-2, 0)) == (1, 1, 0)

    @given(small_partitions(), st.integers(0, 2), st.integers(0, 2))
    @settings(max_examples=80, deadline=None)
    def test_particle_count(self, lam, pad_lo, pad_hi):
        # a window covering the vacuum holds -lo particles
        lo = -lam.extent - pad_lo
        hi = lam.first() + pad_hi
        assert sum(maya_bits(lam, (lo, hi))) == -lo

    def test_maya_bit_reads_one_column(self):
        window = (-5, 4)
        for lam in partitions_in_box(3, 3) + partitions_in_box(1, 2):
            for shift in (0, 2):
                bits = maya_bits(lam, window, shift)
                assert bits == tuple(maya_bit(lam, p - shift)
                                     for p in range(window[0], window[1] + 1))

    def test_injective_full_5x5_box(self):
        for lo, hi in ((-5, 5), (-6, 7)):
            seen = {maya_bits(lam, (lo, hi)) for lam in partitions_in_box(5, 5)}
            assert len(seen) == len(partitions_in_box(5, 5))


class TestStrips:
    def test_interlacing_pair(self):
        assert is_horizontal_strip(Partition.of((4, 4, 1), extent=4),
                                   Partition.of((4, 2), extent=4))

    def test_reflexive(self):
        lam = Partition.of((3, 1))
        assert is_horizontal_strip(lam, lam)

    def test_column_violation(self):
        assert not is_horizontal_strip(Partition.of((2, 2)),
                                       Partition.of((), extent=2))

    def test_chain_count_vs_ssyt(self):
        shape = SkewShape.of((2,), (), extent=2)
        assert len(strip_chains(shape, 2)) == 3
        shape2 = SkewShape.of((2, 1))
        assert len(strip_chains(shape2, 2)) == len(enumerate_ssyt(shape2, 2))

    def test_chain_order(self):
        # lexicographic in (nu^1, ..., nu^n), every nu^v at the extent
        chains = strip_chains(SkewShape.of((2, 1), (1,)), 2)
        assert [[nu.parts for nu in c] for c in chains] == [
            [(1, 0), (1, 0), (2, 1)], [(1, 0), (1, 1), (2, 1)],
            [(1, 0), (2, 0), (2, 1)], [(1, 0), (2, 1), (2, 1)]]

    def test_constant_chain(self):
        lam = Partition.of((2, 1))
        assert len(strip_chains(SkewShape(lam, lam), 3)) == 1

    def test_negative_step_count(self):
        with pytest.raises(ValueError):
            strip_chains(SkewShape.of((1,)), -1)

    @given(small_partitions(rows=3, cols=3), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_chain_count_matches_enumeration(self, lam, n):
        shape = SkewShape.of([p for p in lam.parts if p > 0], (),
                             extent=lam.extent)
        assert len(strip_chains(shape, n)) == len(enumerate_ssyt(shape, n))


class TestDeformedDiagonals:
    def test_known_strip(self):
        assert deformed_diagonals(Partition.of((4, 4, 1), extent=4),
                                  Partition.of((4, 2), extent=4),
                                  (-4, 4)) == {-1, 4}

    def test_trivial_strip(self):
        lam = Partition.of((2,), extent=2)
        # columns beyond lambda_1 - 1 are free, particle spots are not
        assert deformed_diagonals(lam, lam, (-2, 3)) == {-1, 0, 2, 3}

    @pytest.mark.parametrize("top, bottom, extent, window, expect", [
        ((2,), (), 2, (-5, 3), {2, 3}),
        ((2, 1), (1,), 3, (-6, 1), set()),
        ((2, 1), (1,), 2, (0, -1), set())],
        ids=["vacuum-tail", "all-covered", "empty-window"])
    def test_window_below_the_extent(self, top, bottom, extent, window,
                                     expect):
        # columns below -extent hold the vacuum tail and are never deformed
        assert deformed_diagonals(Partition.of(top, extent),
                                  Partition.of(bottom, extent),
                                  window) == expect

    def test_brute_force_states(self):
        # oracle: a column is deformed iff no particle of any index occupies it
        import random
        rng = random.Random(5)
        for _ in range(50):
            ext = rng.randint(1, 3)
            bottom = Partition(tuple(sorted((rng.randint(0, 3)
                                             for _ in range(ext)),
                                            reverse=True)))
            strips = list(horizontal_strips_between(
                bottom, Partition(tuple(p + 1 for p in bottom.parts))))
            top = rng.choice(strips)
            window = (-ext - 1, 5)
            occupied = set()
            for k in range(1, ext + 3):
                occupied.update(range(bottom.part(k) - k, top.part(k) - k + 1))
            expect = set(range(window[0], window[1] + 1)) - occupied
            assert deformed_diagonals(top, bottom, window) == expect
