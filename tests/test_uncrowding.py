import random

import pytest

from edgeschur.shapes import Partition, SkewShape, partitions_in_box
from edgeschur.tableaux import EdgeLabeledTableau, enumerate_elt
from edgeschur.uncrowding import (MalformedPair, RSKPair, crowd,
                                  check_crystal_commute,
                                  rsk_insert, rsk_remove, uncrowd)


@pytest.fixture
def example_tableau():
    sh = SkewShape.of((3, 3, 2, 2))
    return EdgeLabeledTableau.of(
        sh, 4, (-4, 3),
        {(1, 1): 1, (1, 2): 1, (1, 3): 2, (2, 1): 2, (2, 2): 2, (2, 3): 6,
         (3, 1): 3, (3, 2): 3, (4, 1): 4, (4, 2): 5},
        {(2, 3): (4, 5), (4, 2): (4,), (5, 1): (5,)})


class TestRSK:
    def test_column_insert(self):
        assert rsk_insert((), [5, 4]) == ((4,), (5,))

    def test_empty_word(self):
        P = ((1, 2), (3,))
        assert rsk_insert(P, []) == P

    def test_knuth_invariance(self):
        rng = random.Random(47)
        for _ in range(100):
            word = [rng.randint(1, 4) for _ in range(rng.randint(3, 7))]
            k = rng.randint(0, len(word) - 3)
            x, y, z = word[k:k + 3]
            moved = None
            if x < y <= z:      # y x z ~ y z x reversed pattern checks
                moved = word[:k] + [y, x, z] + word[k + 3:]
                base = word[:k] + [y, z, x] + word[k + 3:]
            elif x <= y < z:    # x z y ~ z x y
                moved = word[:k] + [x, z, y] + word[k + 3:]
                base = word[:k] + [z, x, y] + word[k + 3:]
            if moved is not None:
                assert rsk_insert((), moved) == rsk_insert((), base)

    def test_schensted(self):
        """Schensted's theorem: the first row is as long as the longest weakly
        increasing subsequence, and the rows number the longest strictly
        decreasing one (a strict bump would shorten the first row)."""
        def longest(word, related):
            best = []
            for k, x in enumerate(word):
                best.append(1 + max((best[m] for m in range(k)
                                     if related(word[m], x)), default=0))
            return max(best, default=0)

        rng = random.Random(59)
        for _ in range(400):
            word = [rng.randint(1, 4) for _ in range(rng.randint(0, 12))]
            P = rsk_insert((), word)
            assert (len(P[0]) if P else 0) == longest(word,
                                                      lambda a, b: a <= b)
            assert len(P) == longest(word, lambda a, b: a > b)

    def test_remove_refuses_inner_cell(self):
        # (1, 1) ends its row but has (2, 1) below it
        with pytest.raises(MalformedPair, match="not an outer corner"):
            rsk_remove(((1,), (2,)), (1, 1))

    def test_remove_inverts_insert(self):
        rng = random.Random(53)
        for _ in range(50):
            word = [rng.randint(1, 5) for _ in range(6)]
            P0 = rsk_insert((), word[:-1])
            P1 = rsk_insert(P0, [word[-1]])
            s0 = [len(r) for r in P0] + [0]
            s1 = [len(r) for r in P1]
            cell = next((r + 1, s1[r]) for r in range(len(s1))
                        if s1[r] != s0[r])
            back, letter = rsk_remove(P1, cell)
            assert back == P0 and letter == word[-1]


class TestWorkedExample:
    def test_trace(self, example_tableau):
        pair, trace = uncrowd(example_tableau, with_trace=True)
        expected = [
            (((4,), (5,)), {(2, 1): 1}),
            (((3, 5), (4,), (5,)), {(3, 1): 1}),
            (((2, 3), (3, 4), (4, 5), (5,)), {(3, 2): 3, (4, 1): 1}),
            (((1, 2), (2, 3), (3, 4), (4, 5), (5,)),
             {(4, 2): 3, (5, 1): 1}),
            (((1, 1, 6), (2, 2), (3, 3), (4, 4), (5, 5)),
             {(5, 1): 1, (5, 2): 3}),
            # step six inserts the diagonal reading word 5,4,2 exactly as
            # defined (the orders 5,4,2 and 5,2,4 are not Knuth equivalent)
            (((1, 1, 2), (2, 2, 4), (3, 3, 5), (4, 4, 6), (5, 5)),
             {(3, 3): 6, (4, 3): 6, (5, 1): 1, (5, 2): 3}),
        ]
        assert len(trace) == 6
        for k, (P_k, Q_k) in enumerate(trace):
            assert P_k == expected[k][0], f"P_{k + 1}"
            assert Q_k == expected[k][1], f"Q_{k + 1}"

    def test_roundtrip(self, example_tableau):
        pair = uncrowd(example_tableau)
        back = crowd(pair, Partition.of((3, 3, 2, 2)), (-4, 3), 4)
        assert back.key() == example_tableau.key()


class TestBijection:
    def test_no_labels_empty_recording(self):
        sh = SkewShape.of((2, 2))
        t = EdgeLabeledTableau.of(sh, 2, (-2, 2),
                                  {(1, 1): 1, (1, 2): 1, (2, 1): 2,
                                   (2, 2): 2}, {})
        pair = uncrowd(t)
        assert not pair.Q
        assert pair.P == ((1, 1), (2, 2))

    def test_exhaustive_roundtrip_small(self):
        straight = [Partition.of([p for p in lam.parts if p > 0])
                    for lam in partitions_in_box(2, 2) if lam.size()]
        cases = [(lam, (-2, 2)) for lam in straight]
        # every three-row shape in the 3x2 box
        cases += [(lam, (-3, lam.first() + 1))
                  for lam in partitions_in_box(3, 2) if lam.length() == 3]
        # with trailing zeros the empty shape still carries row-0 labels
        cases += [(Partition.of((), extent=e), (-2, 1)) for e in (1, 2)]
        for lam, window in cases:
            shape = SkewShape.of(lam.parts, (), extent=lam.extent)
            seen = {}
            for t in enumerate_elt(shape, 3, window, lam.extent):
                pair = uncrowd(t)
                key = (pair.P, pair.Q)
                assert key not in seen, "uncrowding collided"
                seen[key] = t
                assert crowd(pair, lam, window, lam.extent).key() == t.key()

    def test_off_image_raises(self, example_tableau):
        with pytest.raises(MalformedPair):
            crowd(RSKPair(((1,),), ()), Partition.of((2,)), (-1, 2), 1)
        with pytest.raises(MalformedPair):
            crowd(RSKPair(((1, 1), (2,)), (((2, 2), 1),)),
                  Partition.of((2,)), (-1, 2), 1)
        with pytest.raises(MalformedPair):
            crowd(RSKPair(((2, 2),), ()), Partition.of((1, 1)), (-2, 1), 2)
        # rows of P growing downwards
        with pytest.raises(MalformedPair):
            crowd(RSKPair(((1,), (1, 2)), ()), Partition.of((2, 1)), (-2, 2), 2)
        # a row of P that does not weakly increase is refused by name
        with pytest.raises(MalformedPair, match="row 1 of P does not weakly"):
            crowd(RSKPair(((2, 1),), ()), Partition.of((2,)), (-1, 2), 1)
        # lam and an empty Q account for two cells of P, not three
        with pytest.raises(MalformedPair, match="inconsistent with P"):
            crowd(RSKPair(((2,), (3,)), ()), Partition.of((2,)), (-2, 3), 1)
        # diagonal 5's two recording cells both sit in row 1 of P
        with pytest.raises(MalformedPair, match="two cells in a row"):
            crowd(RSKPair(((2, 3, 4), (4,)), (((1, 2), 5), ((1, 3), 5))),
                  Partition.of((1, 1)), (-3, 2), 2)
        # lam (2) unwinds two cells of P's five
        with pytest.raises(MalformedPair, match="leftover cells"):
            crowd(RSKPair(((1, 1), (2,), (3,), (4,)), ()), Partition.of((2,)),
                  (-2, 3), 1)
        # P and Q unwind, but no letters are left for cell (1, 1)
        with pytest.raises(MalformedPair, match="no letters left for cell"):
            crowd(RSKPair(((1, 1, 3), (2, 4), (4,)),
                          (((1, 3), 3), ((3, 1), 6))),
                  Partition.of((2, 2)), (-3, 3), 2)
        # the split puts label 3 on the edge over entry 3; validation's
        # refusal is raised as MalformedPair
        with pytest.raises(MalformedPair, match="reconstruction is not a "
                           "tableau: label 3 at edge"):
            crowd(RSKPair(((3, 3, 3),), (((1, 3), 3),)),
                  Partition.of((2,)), (-1, 3), 1)
        # the worked example's pair with one recording cell too many
        pair = uncrowd(example_tableau)
        for extra in (((1, 0), 1), ((1, 40), 6)):
            with pytest.raises(MalformedPair):
                crowd(RSKPair(pair.P, tuple(sorted(pair.Q + (extra,)))),
                      Partition.of((3, 3, 2, 2)), (-4, 3), 4)


class TestCrystalCommute:
    def test_21(self):
        assert check_crystal_commute(Partition.of((2, 1)), (-2, 2), 2, 3)

    def test_single_box(self):
        assert check_crystal_commute(Partition.of((1,)), (-1, 1), 1, 2)
