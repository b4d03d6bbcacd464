import collections
import dataclasses
import hashlib
import pickle
import random
import re

import pytest

from edgeschur import tableaux, uncrowding
from edgeschur.crystal import e_elt, f_elt
from edgeschur.shapes import Partition, SkewShape, partitions_in_box
from edgeschur.tableaux import EdgeLabeledTableau, enumerate_elt
from edgeschur.uncrowding import (MalformedPair, RSKPair, _reverse_bump,
                                  _row_insert, check_crystal_commute, crowd,
                                  uncrowd)

Rows = tuple[tuple[int, ...], ...]


def rsk_insert(rows: Rows, word) -> Rows:
    """Standard row insertion of the word, left to right."""
    out = [list(r) for r in rows]
    for x in word:
        _row_insert(out, x)
    return tuple(map(tuple, out))


def rsk_remove(rows: Rows, cell: tuple[int, int]) -> tuple[Rows, int]:
    """Reverse-bump the outer corner cell (1-indexed); returns the letter."""
    r, c = cell
    out = [list(x) for x in rows]
    if len(out[r - 1]) != c or (r < len(out) and len(out[r]) >= c):
        raise MalformedPair(f"cell {cell} is not an outer corner")
    letter = _reverse_bump(out, r - 1)
    return tuple(tuple(x) for x in out if x), letter


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

    def test_reverse_bump_refuses_when_no_entry_above_is_smaller(self):
        # crowd's checks refuse such a P first, so only a direct call
        # reaches this guard: 1 leaves row 1 and row 0 holds only 2
        with pytest.raises(MalformedPair,
                           match="reverse bump found no smaller entry"):
            _reverse_bump([[2], [1]], 1)

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


def roundtrip_cases() -> list[tuple[Partition, tuple[int, int]]]:
    """(lam, window) of the small exhaustive round trips, all at n = 3."""
    straight = [Partition.of([p for p in lam.parts if p > 0])
                for lam in partitions_in_box(2, 2) if lam.size()]
    cases = [(lam, (-2, 2)) for lam in straight]
    # every three-row shape in the 3x2 box
    cases += [(lam, (-3, lam.first() + 1))
              for lam in partitions_in_box(3, 2) if lam.length() == 3]
    # with trailing zeros the empty shape still carries row-0 labels
    cases += [(Partition.of((), extent=e), (-2, 1)) for e in (1, 2)]
    return cases


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
        for lam, window in roundtrip_cases():
            shape = SkewShape.of(lam.parts, (), extent=lam.extent)
            seen = {}
            for t in enumerate_elt(shape, 3, window, lam.extent):
                pair = uncrowd(t)
                key = (pair.P, pair.Q)
                assert key not in seen, "uncrowding collided"
                seen[key] = t
                assert crowd(pair, lam, window, lam.extent).key() == t.key()

    def test_extent_beyond_the_shape(self):
        # lam (1) at extent 2: crowd's shape gets lam's trailing zero row
        lam = Partition.of((1,))
        shape = SkewShape.of(lam.parts, (), extent=2)
        tabs = list(enumerate_elt(shape, 2, (-2, 1), 2))
        assert len(tabs) > 10
        for t in tabs:
            assert crowd(uncrowd(t), lam, (-2, 1), 2).key() == t.key()

    def test_skew_shape_refused(self):
        shape = SkewShape.of((2, 1), (1,))
        t = next(iter(enumerate_elt(shape, 2, (-2, 2), 2)))
        with pytest.raises(MalformedPair,
                           match="uncrowding is defined for straight shapes"):
            uncrowd(t)

    def test_equal_letters_on_a_diagonal(self):
        # label 1 under entry 1, built without validation: the diagonal
        # word 1, 1 would insert as if it decreased
        t = EdgeLabeledTableau(SkewShape.of((1,)), 1, (-1, 1),
                               (((1, 1), 1),), (((2, 1), (1,)),))
        with pytest.raises(AssertionError, match=r"diagonal word \[1, 1\] "
                           "is not decreasing"):
            uncrowd(t)

    def test_off_image_raises(self, example_tableau, monkeypatch):
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
        # column 1 of Q holds 1 above 2: uncrowd stacks a column's indices
        # in increasing order, so the 2 would never come off
        with pytest.raises(MalformedPair, match="column 1 of Q does not "
                           "weakly decrease downwards"):
            crowd(RSKPair(((1, 2), (3,)), (((1, 1), 1), ((2, 1), 2))),
                  Partition.of((1,)), (-2, 2), 1)
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
        # (a) a trailing empty row of P
        with pytest.raises(MalformedPair, match="row 2 of P is empty"):
            crowd(RSKPair(((1,), ()), ()), Partition.of((1,)), (-1, 1), 1)
        # (a) column 2 of P holds 2 over 2
        with pytest.raises(MalformedPair, match="column 2 of P does not "
                           "strictly increase downwards"):
            crowd(RSKPair(((1, 2), (2, 2)), ()), Partition.of((2, 2)),
                  (-2, 2), 2)
        # (b) one cell of Q twice, with the same index and with another
        lam, window = Partition.of((3, 3, 2, 2)), (-4, 3)
        cell, v = pair.Q[0]
        for again in (v, v + 1):
            with pytest.raises(MalformedPair, match=re.escape(
                    f"cell {cell} of Q is repeated")):
                crowd(RSKPair(pair.P, pair.Q + ((cell, again),)), lam,
                      window, 4)
        # (c) a cell of Q right of P (P is 3 wide), left of it, and one
        # above the bottom of P's column 1 (P's column 1 is 2 high)
        for extra, col in ((((1, 4), 6), 4), (((1, 40), 6), 40),
                           (((1, 0), 1), 0)):
            with pytest.raises(MalformedPair, match=f"column {col} of Q is "
                               f"not the bottom of column {col} of P"):
                crowd(RSKPair(pair.P, tuple(sorted(pair.Q + (extra,)))),
                      lam, window, 4)
        with pytest.raises(MalformedPair, match="column 1 of Q is not the "
                           "bottom of column 1 of P"):
            crowd(RSKPair(((1, 2), (3,)), (((1, 1), 1),)),
                  Partition.of((1,)), (-2, 2), 1)
        # (d) follows from (a) and one cell per row, so no pair reaches it;
        # a reverse bump that reads every letter as 1 does
        def bump_to_one(rows, r):
            _reverse_bump(rows, r)
            return 1

        monkeypatch.setattr(uncrowding, "_reverse_bump", bump_to_one)
        with pytest.raises(MalformedPair, match=r"diagonal word \[1, 1, 1\] "
                           "of index 6 does not strictly decrease"):
            crowd(pair, lam, window, 4)


def _edit(rng: random.Random, rows: list[list[int]], q: dict) -> None:
    """One edit of P (its rows) or Q ({cell: index}) in place."""
    kind = rng.randrange(7)
    if kind == 0 and rows:                  # a letter of P moves by one
        r = rng.randrange(len(rows))
        c = rng.randrange(len(rows[r]))
        rows[r][c] = max(1, rows[r][c] + rng.choice((-1, 1)))
    elif kind == 1 and rows:                # P loses a row's last cell
        r = rng.randrange(len(rows))
        rows[r].pop()
        if not rows[r]:
            del rows[r]
    elif kind == 2:                         # P gains a cell at a row's end
        r = rng.randrange(len(rows) + 1)
        if r == len(rows):
            rows.append([])
        rows[r].append((rows[r][-1] if rows[r] else 1) + rng.randrange(2))
    elif kind == 3 and q:                   # a recording index moves by one
        cell = rng.choice(sorted(q))
        q[cell] += rng.choice((-1, 1))
    elif kind == 4 and q:                   # a recording cell moves
        cell = rng.choice(sorted(q))
        v = q.pop(cell)
        di, dj = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
        q[(cell[0] + di, cell[1] + dj)] = v
    elif kind == 5:                         # Q gains a cell
        q[(rng.randint(1, 5), rng.randint(1, 4))] = rng.randint(1, 7)
    elif kind == 6 and q:                   # Q loses a cell
        del q[rng.choice(sorted(q))]


def crowd_cases(seed: int, count: int):
    """(pair, lam, window): 70 % are genuine pairs of straight shapes in the
    3x3 box (n = 2) after one or two edits, 30 % random P and Q."""
    rng = random.Random(seed)
    straight = [Partition.of([p for p in lam.parts if p > 0])
                for lam in partitions_in_box(3, 3) if lam.size()]
    pool = []
    for lam in straight:
        window = (-lam.extent - 1, lam.first() + 1)
        shape = SkewShape.of(lam.parts, (), extent=lam.extent)
        pool.extend((lam, window, t)
                    for t in enumerate_elt(shape, 2, window, lam.extent))
    out = []
    while len(out) < count:
        if rng.random() < 0.7:
            lam, window, t = rng.choice(pool)
            pair = uncrowd(t)
            rows = [list(r) for r in pair.P]
            q = dict(pair.Q)
            for _ in range(rng.randint(1, 2)):
                _edit(rng, rows, q)
        else:
            lam = rng.choice(straight)
            window = (-lam.extent - rng.randint(0, 2),
                      lam.first() + rng.randint(-1, 2))
            rows = []
            for _ in range(rng.randint(1, 4)):
                top = len(rows[-1]) if rows else 4
                rows.append(sorted(rng.randint(1, 4)
                                   for _ in range(rng.randint(1, top))))
            q = {(rng.randint(1, 4), rng.randint(1, 4)): rng.randint(1, 7)
                 for _ in range(rng.randint(0, 3))}
        out.append((RSKPair(tuple(map(tuple, rows)), tuple(sorted(q.items()))),
                    lam, window))
    return out


def own_table(t: EdgeLabeledTableau):
    """The shape table of t's own fields, looked up afresh."""
    return tableaux._shape_table(t.shape.outer.parts, t.shape.inner.parts,
                                 t.extent, tuple(t.window))


class TestKeptData:
    """A tableau builds its reading word at most once, a tableau built from
    another is handed its shape table, and neither is part of its value."""

    def test_one_build_per_object(self, monkeypatch):
        builds = collections.Counter()          # id -> reading words built
        alive = []                              # so that no id is reused
        lookups = []
        keep_word, shape_table = tableaux._keep_word, tableaux._shape_table

        def counting_keep(t, word):
            builds[id(t)] += 1
            alive.append(t)
            keep_word(t, word)

        def counting_table(*args):
            lookups.append(args)
            return shape_table(*args)

        monkeypatch.setattr(tableaux, "_keep_word", counting_keep)
        monkeypatch.setattr(tableaux, "_shape_table", counting_table)
        monkeypatch.setattr(uncrowding, "_shape_table", counting_table)
        # the benchmark's uncrowd job: key, uncrowd, crowd, then f_i, e_i
        lam, n, window = Partition.of((2, 1)), 3, (-2, 2)
        shape = SkewShape.of(lam.parts, (), extent=lam.extent)
        made, moves = [], 0
        for t in enumerate_elt(shape, n, window, lam.extent):
            key = t.key()
            back = crowd(uncrowd(t), lam, window, lam.extent)
            assert back.key() == key
            made += [t, back]
            for i in range(1, n):
                ft = f_elt(t, i)
                if ft is None:
                    continue
                moves += 1
                et = e_elt(ft, i)
                assert et.key() == key
                ft.key()
                made += [ft, et]
        assert (len(made), moves) == (512 + 512 + 2 * 444, 444)
        # one word for each tableau, its image and the image's e: none is
        # built twice, and none for crowd's results, which only print
        assert set(builds.values()) == {1}
        assert len(builds) == 512 + 2 * 444
        # one table for the enumeration and one per crowd call, which reads
        # it from its arguments; no tableau looks its own up
        assert len(lookups) == 1 + 512
        for t in made:
            assert t._known_table == own_table(t)
        monkeypatch.undo()

        for t in made:
            # the same fields, nothing kept
            bare = EdgeLabeledTableau(t.shape, t.extent, t.window, t.entries,
                                      t.edge_sets)
            assert bare == t and hash(bare) == hash(t)
            assert repr(bare) == repr(t)
            assert bare.key() == t.key() and bare.to_json() == t.to_json()
            assert dataclasses.asdict(bare) == dataclasses.asdict(t)
            copy = pickle.loads(pickle.dumps(t))
            assert copy == t and repr(copy) == repr(t)
            assert not hasattr(copy, "_known_word")
            assert dataclasses.replace(t) == t
        assert [f.name for f in dataclasses.fields(EdgeLabeledTableau)] == [
            "shape", "extent", "window", "entries", "edge_sets"]

    def test_inherited_table_is_its_own(self):
        for lam, window in roundtrip_cases():
            shape = SkewShape.of(lam.parts, (), extent=lam.extent)
            for t in enumerate_elt(shape, 3, window, lam.extent):
                made = [t, crowd(uncrowd(t), lam, window, lam.extent)]
                for i in (1, 2):
                    made += [u for u in (f_elt(t, i), e_elt(t, i))
                             if u is not None]
                for u in made:
                    # read off the slot: a tableau not handed one fails here
                    assert u._known_table == own_table(u)
        t = next(iter(enumerate_elt(SkewShape.of((2, 1)), 2, (-2, 2), 2)))
        t._table()
        wider = dataclasses.replace(t, window=(-2, 3))
        assert wider._table() == own_table(wider) != t._table()
        assert wider._table().legal > t._table().legal


class TestOffImage:
    def test_seeded_pairs_pinned(self):
        """crowd refuses or accepts 3,000 pairs, mostly near the image, as
        it did before it unwound only live columns: each verdict is
        "refused" or the accepted tableau's key()."""
        verdicts = []
        for pair, lam, window in crowd_cases(16, 3000):
            try:
                t = crowd(pair, lam, window, lam.extent)
            except MalformedPair:
                verdicts.append("refused")
                continue
            # the check crowd proves instead of running
            assert uncrowd(t) == RSKPair(pair.P, tuple(sorted(pair.Q)))
            verdicts.append(t.key())
        assert 150 < len(verdicts) - verdicts.count("refused") < 500
        digest = hashlib.sha256("\n".join(verdicts).encode()).hexdigest()
        assert digest == ("f18df04639f2d2d9b0b95bf42343bd9c"
                          "1941a2a7d5670de8deaf3f9989ab6cfc")


class TestCrystalCommute:
    def test_21(self):
        assert check_crystal_commute(Partition.of((2, 1)), (-2, 2), 2, 3)

    def test_single_box(self):
        assert check_crystal_commute(Partition.of((1,)), (-1, 1), 1, 2)
