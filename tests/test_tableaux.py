import hashlib
import itertools
import json
import random
from dataclasses import dataclass

import pytest
from test_shapes import is_horizontal_strip

from edgeschur import tableaux
from edgeschur.poly import MultiPoly, canonical_string, parse
from edgeschur.schur import EdgeSchurParams, edge_schur_brute
from edgeschur.shapes import (Partition, SkewShape, deformed_diagonals,
                              partitions_in_box, strip_chains)
from edgeschur.tableaux import (EMPTY_WINDOW, Cell, EdgeLabeledTableau,
                                ValidationError, _chain_entries, _label_edge,
                                enumerate_elt, enumerate_ssyt, reading_word,
                                semistandard)


def weight_elt(t: EdgeLabeledTableau) -> MultiPoly:
    """The weight of a tableau that must first pass validate()."""
    t.validate()
    return t.weight()


def elt(outer, inner, extent, window, entries, edges):
    return EdgeLabeledTableau.of(
        SkewShape.of(outer, inner, extent=extent), extent, window,
        entries, edges)


@pytest.fixture
def elt_322():
    return elt((3, 2, 2), (), 3, (-2, 2),
               {(1, 1): 1, (1, 2): 1, (1, 3): 5, (2, 1): 2, (2, 2): 3,
                (3, 1): 4, (3, 2): 4},
               {(2, 2): (2,), (1, 3): (1, 2, 4), (3, 1): (3,), (4, 2): (5,)})


@pytest.fixture
def skew_example():
    return elt((5, 3, 2), (4,), 3, (-2, 4),
               {(1, 5): 1, (2, 1): 1, (2, 2): 2, (2, 3): 5, (3, 1): 5,
                (3, 2): 5},
               {(2, 2): (1,), (2, 4): (3, 6), (2, 5): (2, 5), (3, 1): (2, 4),
                (3, 2): (3,), (4, 2): (6,)})


class TestEnumerateSSYT:
    def test_row_shape(self):
        tabs = enumerate_ssyt(SkewShape.of((2,), (), extent=2), 2)
        rows = sorted(tuple(v for _, v in t.entries) for t in tabs)
        assert rows == [(1, 1), (1, 2), (2, 2)]

    def test_empty_shape(self):
        assert len(enumerate_ssyt(SkewShape.of(()), 3)) == 1

    def test_column(self):
        assert len(enumerate_ssyt(SkewShape.of((1, 1)), 2)) == 1

    def test_fillings_in_strip_chain_order(self):
        box = partitions_in_box(2, 3)
        for lam, mu, n in itertools.product(box, box, range(4)):
            if lam.contains(mu):
                shape = SkewShape(lam, mu)
                tabs = enumerate_ssyt(shape, n)
                assert [t.entry_map() for t in tabs] == \
                    [_chain_entries(c) for c in strip_chains(shape, n)]
                assert all(t.window == EMPTY_WINDOW and not t.edge_sets
                           for t in tabs)

    def test_semistandard_validates(self):
        shape = SkewShape.of((2, 1))
        t = semistandard(shape, {(1, 1): 1, (1, 2): 1, (2, 1): 2})
        assert t == EdgeLabeledTableau.of(shape, 2, EMPTY_WINDOW, t.entry_map(),
                                          {})
        with pytest.raises(ValidationError, match="column violation"):
            semistandard(shape, {(1, 1): 1, (1, 2): 1, (2, 1): 1})

    def test_empty_window_has_no_legal_edge(self):
        shape = SkewShape.of((2, 1))
        em = {(1, 1): 1, (1, 2): 2, (2, 1): 3}
        for pos in [(1, 1), (1, 3), (2, 1), (2, 2), (3, 1)]:
            with pytest.raises(ValidationError, match="illegal edge"):
                EdgeLabeledTableau.of(shape, 2, EMPTY_WINDOW, em, {pos: (2,)})


class TestWeight:
    def test_elt_322(self, elt_322):
        # product of the per-box and per-label factors
        assert weight_elt(elt_322) == parse(
            "a(-2)^2*a0*a2^3*x1^3*x2^3*x3^2*x4^3*x5^2")

    def test_skew_example(self, skew_example):
        assert weight_elt(skew_example) == parse(
            "a(-2)^3*a(-1)*a0*a2^2*a3^2*x1^3*x2^3*x3^2*x4*x5^4*x6^2")

    def test_no_labels(self):
        t = elt((2,), (), 1, (-1, 2), {(1, 1): 1, (1, 2): 2}, {})
        assert weight_elt(t) == parse("x1*x2")

    def test_invalid_raises(self):
        with pytest.raises(ValidationError):
            elt((2,), (), 1, (-1, 2), {(1, 1): 2, (1, 2): 1}, {})
        with pytest.raises(ValidationError):
            # label not below the entry underneath it
            elt((1, 1), (), 2, (-2, 1), {(1, 1): 1, (2, 1): 2},
                {(2, 1): (2,)})


def raw_elt(outer, inner, window, entries, edges=()):
    """An ELT built without `of`, so that validate() sees the fields as given."""
    return EdgeLabeledTableau(SkewShape.of(outer, inner, extent=2), 2, window,
                              tuple(sorted(entries.items())), tuple(edges))


FILLED_21 = {(1, 1): 1, (1, 2): 1, (2, 1): 2}


class TestValidation:
    """Every filling validate() refuses; cells outside the shape replace one
    of its cells, so the count of entries still matches the shape's size."""

    @pytest.mark.parametrize("outer, inner, entries, match", [
        ((2, 1), (), {(1, 1): 1, (1, 2): 1}, "do not cover"),
        ((2, 1), (), {(1, 1): 1, (1, 2): 1, (0, 1): 2}, "do not cover"),
        ((2, 1), (), {(1, 1): 1, (1, 2): 1, (2, 0): 2}, "do not cover"),
        ((2, 1), (), {(1, 1): 1, (1, 2): 1, (1, 3): 2}, "do not cover"),
        ((2, 1), (1,), {(1, 1): 1, (2, 1): 2}, "do not cover"),
        ((2, 1), (), {(1, 1): 0, (1, 2): 1, (2, 1): 2}, "below 1"),
        ((2, 1), (), {(1, 1): 1, (1, 2): 1, (2, 1): 1}, "column violation"),
    ], ids=["missing-cell", "row-0", "column-0", "beyond-outer",
            "inside-inner", "below-1", "column"])
    def test_entries(self, outer, inner, entries, match):
        with pytest.raises(ValidationError, match=match):
            raw_elt(outer, inner, (-2, 2), entries).validate()

    @pytest.mark.parametrize("window, edges, match", [
        ((-2, 2), (((2, 2), ()),), "empty edge set"),
        ((-2, 2), (((2, 2), (3, 2)),), "not strictly sorted"),
        ((-2, 2), (((2, 2), (2, 2)),), "not strictly sorted"),
        ((-2, 2), (((3, 2), (3,)),), r"illegal edge position \(3, 2\)"),
        ((-2, 1), (((1, 3), (1,)),), r"illegal edge position \(1, 3\)"),
    ], ids=["empty", "unsorted", "repeated", "not-adjacent",
            "outside-window"])
    def test_edges(self, window, edges, match):
        with pytest.raises(ValidationError, match=match):
            raw_elt((2, 1), (), window, FILLED_21, edges).validate()

    def test_accepts_the_base_cases(self):
        raw_elt((2, 1), (), (-2, 2), FILLED_21).validate()
        raw_elt((2, 1), (1,), (-2, 2), {(1, 2): 1, (2, 1): 2}).validate()
        # the row-0 edge refused above under the window (-2, 1)
        raw_elt((2, 1), (), (-2, 2), FILLED_21, (((1, 3), (1,)),)).validate()

    def test_label_equal_to_the_entry_above(self):
        # the edge between the entries 1 and 2 takes labels strictly between
        t = EdgeLabeledTableau(SkewShape.of((1, 1), (), extent=2), 2, (-2, 1),
                               (((1, 1), 1), ((2, 1), 2)), (((2, 1), (1,)),))
        assert refusal(t) == "label 1 at edge (2, 1) not above entry 1"

    @pytest.mark.parametrize("outer, entries, edges, message", [
        # dict(entries) folds the two cells into one, weight x1*x2
        ((1,), (((1, 1), 1), ((1, 1), 2)), (),
         "repeated entry position (1, 1)"),
        ((2,), (((1, 2), 2), ((1, 1), 1)), (),
         "entry position (1, 1) out of row-major order"),
        ((2, 1), (((1, 1), 1), ((1, 2), 4), ((2, 1), 2)),
         (((1, 2), (1,)), ((1, 2), (3,))), "repeated edge position (1, 2)"),
        ((2, 1), (((1, 1), 1), ((1, 2), 4), ((2, 1), 2)),
         (((1, 3), (1,)), ((1, 2), (3,))),
         "edge position (1, 2) out of row-major order"),
    ], ids=["repeated-cell", "unsorted-entries", "repeated-edge",
            "unsorted-edges"])
    def test_fields_not_canonical(self, outer, entries, edges, message):
        """Each field alone obeys every rule; only its form is wrong, so
        the refusal names it.  Equality, hashing and crystal graphs read
        the fields as given, so validate() holds them canonical."""
        extent = len(outer)
        window = (-extent, 2) if edges else EMPTY_WINDOW
        t = EdgeLabeledTableau(SkewShape.of(outer), extent, window, entries,
                               edges)
        canonical = EdgeLabeledTableau(
            t.shape, extent, window, tuple(sorted(dict(entries).items())),
            tuple(sorted(dict(edges).items())))
        canonical.validate()
        assert refusal(t) == message


def corrupted_elts(seed: int, count: int) -> list[EdgeLabeledTableau]:
    """One-edit corruptions of the ELTs of every skew shape in the 2x3 box
    (extent 2, n = 2, windows (-2, 2) and (-1, 1)): an entry or a label
    moves by one, or a label moves to a neighbouring edge.  Built without
    `of`, so validate() sees each edit as made."""
    rng = random.Random(seed)
    box = partitions_in_box(2, 3)
    pool = [t for lam in box for mu in box if lam.contains(mu)
            for window in ((-2, 2), (-1, 1))
            for t in enumerate_elt(SkewShape(lam, mu), 2, window, 2)]
    out = []
    while len(out) < count:
        t = rng.choice(pool)
        entries = dict(t.entries)
        edges = {pos: list(vals) for pos, vals in t.edge_sets}
        kinds = (["entry"] if entries else []) + (["label", "move"] if edges
                                                   else [])
        if not kinds:
            continue
        kind = rng.choice(kinds)
        if kind == "entry":
            cell = rng.choice(sorted(entries))
            entries[cell] += rng.choice((-1, 1))
        else:
            pos = rng.choice(sorted(edges))
            vals = edges[pos]
            k = rng.randrange(len(vals))
            if kind == "label":
                vals[k] += rng.choice((-1, 1))      # left as written
            else:
                v = vals.pop(k)
                if not vals:
                    del edges[pos]
                di, dj = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
                to = (pos[0] + di, pos[1] + dj)
                edges[to] = sorted(edges.get(to, []) + [v])
        out.append(EdgeLabeledTableau(
            t.shape, t.extent, t.window, tuple(sorted(entries.items())),
            tuple(sorted((pos, tuple(vals)) for pos, vals in edges.items()))))
    return out


class TestShapeTable:
    """validate, key() and the uncrowding map read one table per shape,
    extent and window instead of recomputing it per call."""

    def test_table_is_pinned(self):
        """The cells of every skew shape of the 3x3 box, and its legal edges
        over two extents and 66 windows, 51,257 edges in all, with their
        SHA-256 recorded before `legal` was built from the cells."""
        box = partitions_in_box(3, 3)
        cases = edges = 0
        h = hashlib.sha256()
        for lam in box:
            for mu in box:
                if not lam.contains(mu):
                    continue
                shape = SkewShape(lam, mu)
                cells = {(i, j) for i in range(1, 4)
                         for j in range(mu.part(i) + 1, lam.part(i) + 1)}
                for extent in (shape.extent, shape.extent + 1):
                    # m > -extent: windows not covering the vacuum
                    for m in range(-extent - 1, 1):
                        for M in range(-1, 5):
                            t = EdgeLabeledTableau(shape, extent, (m, M), (),
                                                   ())
                            table = t._table()
                            assert table.cells == cells
                            legal = sorted(table.legal)
                            h.update(f"{legal}\n".encode())
                            edges += len(legal)
                            cases += 1
        # 175 shapes; extent 3 has 5 low ends m and extent 4 has 6
        assert cases == 175 * 6 * (5 + 6)
        assert edges == 51257
        assert h.hexdigest() == ("050d528a6a9d6d097f5796d6829739a1"
                                 "aad7de852b3fd88317e29aa83817c629")

    def test_corrupted_tableaux_refused_as_before(self):
        """2,000 one-edit corruptions give the verdicts validate gave before
        the table: "ok" or the ValidationError message."""
        verdicts = []
        for t in corrupted_elts(16, 2000):
            try:
                t.validate()
                verdicts.append("ok")
            except ValidationError as exc:
                verdicts.append(str(exc))
        assert 500 < verdicts.count("ok") < 1500
        digest = hashlib.sha256("\n".join(verdicts).encode()).hexdigest()
        assert digest == ("caa46e24af04164ae7ddc16cb581cf87"
                          "3b2ba6ebbfaa31a3a9b51415ad754673")


class TestKey:
    def test_key_is_sorted_json(self):
        """key() writes the text of json.dumps(to_json(), sort_keys=True)
        itself; the bench digests and the crystal graphs hash it."""
        count = trailing = lowest = row0 = skew = bare = 0
        box = partitions_in_box(3, 3)
        for lam, mu in itertools.product(box, box):
            if not lam.contains(mu):
                continue
            # straight shapes at n = 3, skew shapes (mu != 0) at n = 2
            inner, n = (mu.parts, 2) if mu.size() else ((), 3)
            shape = SkewShape.of(lam.parts, inner, extent=3)
            for window in ((-3, 3), (-4, 1)):
                for t in enumerate_elt(shape, n, window, 3):
                    assert t.key() == json.dumps(t.to_json(), sort_keys=True)
                    count += 1
                    trailing += lam.length() < 3
                    lowest += any(j - i == -2 for (i, j), _ in t.edge_sets)
                    row0 += any(i == 1 for (i, _), _ in t.edge_sets)
                    skew += bool(inner)
                    bare += not t.entries and bool(t.edge_sets)
        assert count > 65000
        # both windows reach the vacuum (low end <= -3); covered are extents
        # with trailing zeros, labels on diagonal -2 (the lowest a label can
        # take, as the third particle always crosses -3), row-0 edges, skew
        # shapes and the empty shape, whose labels all sit in row 0
        assert min(trailing, lowest, row0, skew, bare) > 1000


class TestReadingWord:
    def test_ssyt_diagonal_reading(self):
        t = semistandard(
            SkewShape.of((3, 3, 3, 1)),
            {(1, 1): 1, (1, 2): 2, (1, 3): 3, (2, 1): 4, (2, 2): 5,
             (2, 3): 6, (3, 1): 7, (3, 2): 8, (3, 3): 9, (4, 1): 10})
        assert [v for v, _ in reading_word(t)] == [10, 7, 8, 4, 9, 5, 1, 6, 2, 3]

    def test_elt_reading(self, skew_example):
        assert [v for v, _ in reading_word(skew_example)] == \
            [5, 6, 5, 4, 2, 1, 3, 2, 5, 1, 6, 3, 5, 2, 1]

    def test_single_box(self):
        t = elt((1,), (), 1, (-1, 1), {(1, 1): 2}, {})
        assert [v for v, _ in reading_word(t)] == [2]

    def test_multiset_matches_content(self, elt_322):
        letters = sorted(v for v, _ in reading_word(elt_322))
        counts = elt_322.content_vector(5)
        assert letters == sorted(
            [v for k, v in enumerate([1, 2, 3, 4, 5]) for _ in range(counts[k])])


def sweep():
    """Every skew shape in the 2x3 box at extent 2, n = 0..3, and three
    windows, (-1, 1) not covering the vacuum, as (shape, n, window)."""
    box = partitions_in_box(2, 3)
    for lam in box:
        for mu in box:
            if lam.contains(mu):
                for n in range(4):
                    for window in [(-2, 2), (-2, 0), (-1, 1)]:
                        yield SkewShape(lam, mu), n, window


class TestEnumerateELT:
    def test_count_12(self):
        tabs = list(enumerate_elt(SkewShape.of((2,), (), extent=2), 2,
                                  (-2, 1), 2))
        assert len(tabs) == 12

    def test_empty_window_is_ssyt(self):
        shape = SkewShape.of((2, 1))
        # a window with no admissible diagonals leaves plain tableaux:
        # every diagonal of every strip step is occupied in [0, 0] only if
        # we pick the window outside all deformed columns; use a one-column
        # window fully blocked by the shape itself
        tabs = list(enumerate_elt(shape, 2, (0, 0), 2))
        with_labels = [t for t in tabs if t.edge_sets]
        plain = [t for t in tabs if not t.edge_sets]
        assert len(plain) == len(enumerate_ssyt(shape, 2))
        # diagonal 0 is deformed only in steps that do not move through it
        assert all(j - i == 0 for t in with_labels
                   for (i, j), _ in t.edge_sets)

    def test_single_cell_weights(self):
        tabs = list(enumerate_elt(SkewShape.of((1,)), 1, (-1, 1), 1))
        weights = sorted(canonical_string(t.weight()) for t in tabs)
        assert weights == ["a1*x1^2", "x1"]

    def test_all_valid(self):
        for t in enumerate_elt(SkewShape.of((2, 1)), 3, (-2, 2), 2):
            t.validate()

    def test_sweep_is_pinned(self):
        """Over the sweep each ELT is valid, and its key and weight hash to
        a recorded digest."""
        digest = hashlib.sha256()
        count = 0
        for shape, n, window in sweep():
            for t in enumerate_elt(shape, n, window, 2):
                t.validate()
                digest.update(f"{t.key()}\t{canonical_string(t.weight())}\n"
                              .encode())
                count += 1
        assert count == 48397
        assert digest.hexdigest() == ("f959eb957c45b423e57d7456db729912"
                                      "c22cc23542399e367e5ca771c59ed8e5")


def code_stream(shape, n, window, extent):
    """The packed weight of each tableau the brute sum counts, in order."""
    for _, entry_code, _, subset_codes in tableaux._checked_chains(
            shape, n, window, extent):
        for choice in itertools.product(*subset_codes):
            yield entry_code + sum(choice)


class TestWeightByChain:
    """The brute oracle reads each tableau's weight from codes summed once
    per strip chain and label subset; weight() recounts it per tableau.  It
    still counts the tableaux one by one, in enumerate_elt's order."""

    def test_codes_equal_weight_over_the_sweep(self):
        count = 0
        for shape, n, window in sweep():
            for t, code in zip(enumerate_elt(shape, n, window, 2),
                               code_stream(shape, n, window, 2), strict=True):
                assert t.weight().terms == {code: 1}
                count += 1
        assert count == 48397

    def test_brute_counts_every_tableau_over_the_sweep(self):
        """The brute sum at x = a = 1 is the number of tableaux, so its
        weight doubling counts each tableau once, also on the empty window
        (1, 0), where each chain has one tableau and no step doubles."""
        # EdgeSchurParams needs n >= 1: the sweep without its n = 0 cases
        empty = [(shape, n, (1, 0)) for shape, n, window in sweep()
                 if window == (-2, 2)]
        cases = 0
        for shape, n, window in itertools.chain(sweep(), empty):
            if n:
                brute = edge_schur_brute(shape, EdgeSchurParams(n, window, 2))
                assert sum(brute.terms.values()) == len(list(
                    enumerate_elt(shape, n, window, 2))), (shape, n, window)
                cases += 1
        assert cases == 600

    @pytest.mark.parametrize("trunc", [None, 3])
    def test_brute_sums_tableau_weights(self, trunc):
        box = partitions_in_box(2, 3)
        p = EdgeSchurParams(3, (-2, 2), 2, trunc)
        for lam in box:
            for mu in box:
                if not lam.contains(mu):
                    continue
                shape = SkewShape(lam, mu)
                want = MultiPoly.zero()
                for t in enumerate_elt(shape, p.num_vars, p.window, 2):
                    want = want + t.weight()
                assert edge_schur_brute(shape, p) == want.truncate(trunc), \
                    shape


def refusal(t: EdgeLabeledTableau) -> str:
    with pytest.raises(ValidationError) as exc:
        t.validate()
    return str(exc.value)


class TestEnumerationChecks:
    """enumerate_elt checks each strip chain once with validate's rules: the
    entries, then every candidate (edge, letter) on its own."""

    SHAPE = SkewShape.of((1,))          # one chain: () -> (1), entry 1

    def single_label(self, edge):
        return EdgeLabeledTableau(self.SHAPE, 1, (-1, 1), (((1, 1), 1),),
                                  ((edge, (1,)),))

    def test_label_inside_the_shape(self, monkeypatch):
        expected = refusal(self.single_label((1, 1)))
        assert expected == "label 1 at edge (1, 1) not below entry 1"
        monkeypatch.setattr(tableaux, "_label_edge", lambda nu, d: (1, 1))
        with pytest.raises(ValidationError) as exc:
            list(enumerate_elt(self.SHAPE, 1, (-1, 1), 1))
        assert str(exc.value) == expected

    @pytest.mark.parametrize("d, edge", [(0, (1, 1)), (2, (1, 3))],
                             ids=["crossed-by-the-strip", "right-of-window"])
    def test_diagonal_not_deformed(self, monkeypatch, d, edge):
        expected = refusal(self.single_label(edge))
        real = tableaux.deformed_diagonals
        monkeypatch.setattr(tableaux, "deformed_diagonals",
                            lambda top, bottom, window:
                            real(top, bottom, window) | {d})
        with pytest.raises(ValidationError) as exc:
            list(enumerate_elt(self.SHAPE, 1, (-1, 1), 1))
        assert str(exc.value) == expected

    def test_bad_entries_refused(self, monkeypatch):
        # an entry map off by one row: validate's coverage message
        monkeypatch.setattr(tableaux, "_chain_entries",
                            lambda chain: {(2, 1): 1})
        with pytest.raises(ValidationError, match="do not cover the shape"):
            list(enumerate_elt(self.SHAPE, 1, (-1, 1), 1))

    def test_validate_runs_once_per_chain(self, monkeypatch):
        calls = []
        real = EdgeLabeledTableau.validate

        def counting(t):
            calls.append(t)
            real(t)
        monkeypatch.setattr(EdgeLabeledTableau, "validate", counting)
        shape = SkewShape.of((2, 1))
        total = edge_schur_brute(shape, EdgeSchurParams(2, (-2, 2), 2))
        # more distinct weights than chains: a check per tableau would show
        assert len(calls) == len(strip_chains(shape, 2)) < len(total.terms)


# -- chain form: the strip chain and, per step, the labelled diagonals ---

@dataclass(frozen=True)
class ChainForm:
    shape: SkewShape
    window: tuple[int, int]
    chain: tuple[Partition, ...]                 # mu = nu^0 <= ... <= nu^n
    labels: tuple[tuple[int, ...], ...]          # labels[v-1] = sorted diagonals

    def validate(self) -> None:
        for v in range(1, len(self.chain)):
            lo, hi = self.chain[v - 1], self.chain[v]
            if not is_horizontal_strip(hi, lo):
                raise ValidationError(f"step {v} is not a horizontal strip")
            allowed = deformed_diagonals(hi, lo, self.window)
            if not set(self.labels[v - 1]) <= allowed:
                raise ValidationError(
                    f"labels {self.labels[v - 1]} not deformed at step {v}")


def chain_to_positional(c: ChainForm) -> EdgeLabeledTableau:
    """Place each chain label at the unique admissible edge position."""
    c.validate()
    edges: dict[Cell, list[int]] = {}
    for v, diagonals in enumerate(c.labels, start=1):
        for d in diagonals:
            edges.setdefault(_label_edge(c.chain[v], d), []).append(v)
    return EdgeLabeledTableau.of(c.shape, c.shape.extent, c.window,
                                 _chain_entries(c.chain), edges)


def positional_to_chain(t: EdgeLabeledTableau, n: int) -> ChainForm:
    lam = t.shape.outer.with_extent(t.extent)
    mu = t.shape.inner.with_extent(t.extent)
    em = t.entry_map()
    chain = [mu]
    for v in range(1, n + 1):
        parts = [mu.part(i) for i in range(1, t.extent + 1)]
        for (i, j), val in em.items():
            if val <= v:
                parts[i - 1] = max(parts[i - 1], j)
        chain.append(Partition(tuple(parts)))
    labels: list[list[int]] = [[] for _ in range(n)]
    for (i, j), vals in t.edge_sets:
        for v in vals:
            labels[v - 1].append(j - i)
    cf = ChainForm(SkewShape(lam, mu), t.window, tuple(chain),
                   tuple(tuple(sorted(ls)) for ls in labels))
    cf.validate()
    return cf



class TestChainForm:
    def test_transfer_state_pictures(self):
        # the four tableaux attached to the single-row transfer example
        sh = SkewShape.of((4, 4, 1), (4, 2), extent=4)
        lam, mu = sh.outer, sh.inner
        for subset in [(), (-1,), (4,), (-1, 4)]:
            cf = ChainForm(sh, (-4, 4), (mu, lam), (subset,))
            t = chain_to_positional(cf)
            placed = {(i, j) for (i, j), _ in t.edge_sets}
            expect = set()
            if -1 in subset:
                expect.add((3, 2))   # below the inner shape, diagonal -1
            if 4 in subset:
                expect.add((1, 5))   # zeroth row, diagonal 4
            assert placed == expect

    def test_empty_labels_is_ssyt(self):
        sh = SkewShape.of((2, 1))
        cf = ChainForm(sh, (-2, 2),
                       (Partition.of((), extent=2), Partition.of((1,), extent=2),
                        Partition.of((2, 1))), ((), ()))
        t = chain_to_positional(cf)
        assert not t.edge_sets

    def test_roundtrip_random(self):
        rng = random.Random(3)
        shapes = [p for p in partitions_in_box(2, 3) if p.size()]
        count = 0
        for lam in shapes:
            shape = SkewShape.of([p for p in lam.parts if p > 0], (),
                                 extent=lam.extent)
            for t in enumerate_elt(shape, 2, (-2, 2), lam.extent):
                cf = positional_to_chain(t, 2)
                t2 = chain_to_positional(cf)
                assert t2.key() == t.key()
                count += 1
        assert count > 50


def test_json_roundtrip(skew_example):
    import json
    blob = json.dumps(skew_example.to_json())
    back = EdgeLabeledTableau.from_json(json.loads(blob))
    assert back.key() == skew_example.key()


@pytest.mark.parametrize("path, value", [
    (("entries", 0, 2), True),
    (("entries", 1, 2), 1.0),
    (("edges", 0, 2, 0), 2.0),
    (("entries", 0, 0), "1"),
    (("extent",), True),
    (("window", 1), 2.0),
    (("shape", "outer", "parts", 0), 2.0),
    (("shape", "inner", "extent"), False),
], ids=["bool-entry", "float-entry", "float-label", "str-row", "bool-extent",
        "float-window", "float-part", "bool-part-extent"])
def test_from_json_refuses_non_ints(path, value):
    """bool and float pass == and hashing as ints, but key() would write
    them as true/1.0, so the same tableau would get another key."""
    blob = {"shape": {"outer": {"parts": [2], "extent": 1},
                      "inner": {"parts": [], "extent": 1}},
            "extent": 1, "window": [-1, 2],
            "entries": [[1, 1, 1], [1, 2, 1]], "edges": [[2, 1, [2]]]}
    EdgeLabeledTableau.from_json(blob)
    target = blob
    for k in path[:-1]:
        target = target[k]
    target[path[-1]] = value
    with pytest.raises(ValidationError, match="not an int"):
        EdgeLabeledTableau.from_json(blob)


@pytest.mark.parametrize("window", [[-1], [-1, 2, 3]], ids=["one", "three"])
def test_from_json_refuses_a_window_not_a_pair(window):
    # validate reads its shape table, keyed on (m, M), before any check
    blob = {"shape": {"outer": {"parts": [2], "extent": 1},
                      "inner": {"parts": [], "extent": 1}},
            "extent": 1, "window": window,
            "entries": [[1, 1, 1], [1, 2, 1]], "edges": []}
    with pytest.raises(ValidationError, match=r"window is not \[m, M\]"):
        EdgeLabeledTableau.from_json(blob)


@pytest.mark.parametrize("labels, message", [
    ([2, 2], r"edge set at \(2, 1\) not strictly sorted"),
    ([3, 2], r"edge set at \(2, 1\) not strictly sorted"),
    ([], r"empty edge set at \(2, 1\)"),
], ids=["repeated", "decreasing", "empty"])
def test_from_json_refuses_malformed_edge_sets(labels, message):
    """An edge set is read as written: sorting or de-duplicating it would
    load another tableau than the one in the file."""
    blob = {"shape": {"outer": {"parts": [2], "extent": 1},
                      "inner": {"parts": [], "extent": 1}},
            "extent": 1, "window": [-1, 2],
            "entries": [[1, 1, 1], [1, 2, 1]], "edges": [[2, 1, labels]]}
    with pytest.raises(ValidationError, match=message):
        EdgeLabeledTableau.from_json(blob)
    blob["edges"] = [[2, 1, sorted(set(labels))]] if labels else []
    EdgeLabeledTableau.from_json(blob)


@pytest.mark.parametrize("field, rows, message", [
    ("entries", [[1, 1, 1], [1, 1, 1], [1, 2, 1]],
     r"repeated entry position \(1, 1\)"),
    ("edges", [[2, 1, [2]], [2, 1, [3]]], r"repeated edge position \(2, 1\)"),
], ids=["entry", "edge"])
def test_from_json_refuses_repeated_positions(field, rows, message):
    """Read into a dict, a repeated (i, j) would keep only its last value:
    two cells instead of three rows, one edge set instead of two."""
    blob = {"shape": {"outer": {"parts": [2], "extent": 1},
                      "inner": {"parts": [], "extent": 1}},
            "extent": 1, "window": [-1, 3],
            "entries": [[1, 1, 1], [1, 2, 1]], "edges": [[2, 1, [2]]]}
    blob[field] = rows
    with pytest.raises(ValidationError, match=message):
        EdgeLabeledTableau.from_json(blob)


@pytest.mark.parametrize("field, rows, message", [
    ("entries", [[1, 1]], r"entry row number 1 is not \[i, j, value\]"),
    ("entries", [[1, 1, 1, 1]],
     r"entry row number 1 is not \[i, j, value\]"),
    ("edges", [2], r"edge row number 1 is not \[i, j, value\]"),
], ids=["short", "long", "int"])
def test_from_json_refuses_a_row_not_a_triple(field, rows, message):
    # unpacked as i, j, value, these raised Python's "not enough values to
    # unpack (expected 3, got 2)" and "too many values to unpack"
    blob = {"shape": {"outer": {"parts": [2], "extent": 1},
                      "inner": {"parts": [], "extent": 1}},
            "extent": 1, "window": [-1, 2],
            "entries": [[1, 1, 1], [1, 2, 1]], "edges": []}
    blob[field] = rows
    with pytest.raises(ValidationError, match=message):
        EdgeLabeledTableau.from_json(blob)


def test_from_json_refuses_an_extent_below_the_shape():
    blob = {"shape": {"outer": {"parts": [2, 1], "extent": 2},
                      "inner": {"parts": [], "extent": 2}},
            "extent": 1, "window": [-1, 2],
            "entries": [[1, 1, 1], [1, 2, 1], [2, 1, 2]], "edges": []}
    with pytest.raises(ValidationError,
                       match="declared extent smaller than the shape"):
        EdgeLabeledTableau.from_json(blob)
    blob["extent"] = 2
    EdgeLabeledTableau.from_json(blob)
