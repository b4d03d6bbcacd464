"""Edge labeled tableaux; a semistandard tableau is one on the empty window.

An edge labeled tableau stores its box entries plus finite label sets on
horizontal edges.  Edge position (i, j) names the horizontal edge that is
the UPPER edge of cell (i, j); its weight diagonal is j - i, the content of
the cell below the edge.  Labels on edge (i, j) are strictly greater than
the entry in cell (i-1, j) and strictly smaller than the entry in cell
(i, j), whenever those cells carry entries.

On the empty window, EMPTY_WINDOW, no edge is legal, so an edge labeled
tableau there is exactly a semistandard tableau: `semistandard` builds one
and `enumerate_ssyt` lists them.

Enumeration runs over the equivalent chain form: a chain of horizontal
strips mu = nu^0 <= ... <= nu^n = lambda (recording which boxes hold each
value) together with, for each value v, the subset of deformed diagonals of
step v that carry a label v.  One generator, `_checked_chains`, checks each
chain once and gives its entries and, per step, the label subsets with
their packed weight monomials.  `enumerate_elt` builds the tableaux from it;
the brute ELT sum (`schur.edge_schur_brute`) counts each tableau at its
weight, the entry monomial plus the chosen subsets', without building it.

What validate, key() and the uncrowding map read of a shape, an extent and a
window (its cells, its legal edges, the outer shape's cells by diagonal and
the end of key()) is built once into a small bounded cache, `_shape_table`.
A tableau keeps the table it reads, and its reading word once `_word` has
built it, in two slots: a tableau built from another (by enumeration, a
crystal move or crowding) is handed its source's table and never looks it
up.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import ge
from typing import Iterator, NamedTuple, Sequence

from .poly import MultiPoly, _encode, av, xv
from .shapes import Partition, SkewShape, deformed_diagonals, strip_chains


class ValidationError(ValueError):
    pass


Cell = tuple[int, int]


def _chain_entries(chain) -> dict[Cell, int]:
    """Entry map of a strip chain: the boxes of step v hold v."""
    em: dict[Cell, int] = {}
    for v in range(1, len(chain)):
        lo, hi = chain[v - 1], chain[v]
        for i, (a, b) in enumerate(zip(lo.parts, hi.parts), start=1):
            for j in range(a + 1, b + 1):
                em[(i, j)] = v
    return em


def _label_edge(nu: Partition, d: int) -> Cell:
    """Edge carrying a label of the step ending at nu on deformed diagonal d.

    It is the upper edge of the first cell of diagonal d outside nu: row i,
    where i - 1 particles of nu (particle k at nu_k - k) sit right of d.
    """
    i = 1 + sum(1 for k, p in enumerate(nu.parts, start=1) if p - k > d)
    return (i, d + i)


@dataclass(frozen=True)
class EdgeLabeledTableau:
    # two slots beside the fields' __dict__, unset until filled and not
    # fields, so ==, hash, repr and dataclasses.fields never see them
    __slots__ = ("__dict__", "__weakref__", "_known_table", "_known_word")
    shape: SkewShape
    extent: int                     # declared number of rows
    window: tuple[int, int]         # diagonal window [m, M]
    entries: tuple[tuple[Cell, int], ...]
    edge_sets: tuple[tuple[Cell, tuple[int, ...]], ...]

    def __reduce__(self):
        """Pickles and copies carry the five fields, not what is kept."""
        return (EdgeLabeledTableau, (self.shape, self.extent, self.window,
                                     self.entries, self.edge_sets))

    @staticmethod
    def of(shape: SkewShape, extent: int, window: tuple[int, int],
           entry_map: dict[Cell, int],
           edges: dict[Cell, Sequence[int]]) -> "EdgeLabeledTableau":
        t = EdgeLabeledTableau(
            shape, extent, window, tuple(sorted(entry_map.items())),
            tuple(sorted((pos, tuple(sorted(set(vals))))
                         for pos, vals in edges.items() if vals)))
        t.validate()
        return t

    def entry_map(self) -> dict[Cell, int]:
        return dict(self.entries)

    def edge_map(self) -> dict[Cell, tuple[int, ...]]:
        return dict(self.edge_sets)

    # -- validity ------------------------------------------------------

    def _table(self) -> "_ShapeTable":
        """The shape table of this tableau's shape, extent and window."""
        try:
            return self._known_table
        except AttributeError:
            sh = self.shape
            table = _shape_table(sh.outer.parts, sh.inner.parts, self.extent,
                                 tuple(self.window))
            _keep_table(self, table)
            return table

    def validate(self) -> None:
        table = self._table()
        em = self.entry_map()
        self._validate(table, em)
        # last, so that every earlier refusal keeps its message: the entries
        # are em's items in row-major order, and em keeps their order
        if len(em) != len(self.entries) or tuple(em) != table.order:
            _refuse_order([cell for cell, _ in self.entries], "entry")

    def _validate(self, table: "_ShapeTable", em: dict[Cell, int]) -> None:
        """Every rule of validate but the order of the entries, which em =
        self.entry_map() cannot show."""
        if em.keys() != table.cells:
            raise ValidationError("entries do not cover the shape")
        for (i, j), v in em.items():
            if v < 1:
                raise ValidationError(f"entry {v} at {(i, j)} below 1")
            right = em.get((i, j + 1))
            if right is not None and right < v:
                raise ValidationError(f"row violation at {(i, j)}")
            below = em.get((i + 1, j))
            if below is not None and below <= v:
                raise ValidationError(f"column violation at {(i, j)}")
        if self.extent < table.rows:
            raise ValidationError("declared extent smaller than the shape")
        ordered, last = True, ()
        for pos, vals in self.edge_sets:
            i, j = pos
            if not vals:
                raise ValidationError(f"empty edge set at {(i, j)}")
            if list(vals) != sorted(set(vals)):
                raise ValidationError(f"edge set at {(i, j)} not strictly sorted")
            _check_edge(em, table.legal, i, j, vals[0], vals[-1])
            if pos <= last:
                ordered = False
            last = pos
        if not ordered:     # last, as the order of the entries
            _refuse_order([pos for pos, _ in self.edge_sets], "edge")

    # -- weights ---------------------------------------------------------

    def weight(self) -> MultiPoly:
        """Single monomial: x per entry, x_v * a_{j-i} per label v at (i, j)."""
        pairs = [(xv(v), 1) for _, v in self.entries]
        for (i, j), vals in self.edge_sets:
            pairs += [(xv(v), 1) for v in vals]
            pairs.append((av(j - i), len(vals)))
        return MultiPoly.monomial(_encode(pairs))

    def a_monomial(self) -> MultiPoly:
        """The a-part of the weight: a_{j-i} per label at (i, j)."""
        return MultiPoly.monomial(_encode((av(j - i), len(vals))
                                          for (i, j), vals in self.edge_sets))

    def content_vector(self, n: int) -> tuple[int, ...]:
        counts = [0] * n
        for _, v in self.entries:
            counts[v - 1] += 1
        for _, vals in self.edge_sets:
            for v in vals:
                counts[v - 1] += 1
        return tuple(counts)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "shape": self.shape.to_json(),
            "extent": self.extent,
            "window": list(self.window),
            "entries": [[i, j, v] for (i, j), v in self.entries],
            "edges": [[i, j, list(vals)] for (i, j), vals in self.edge_sets],
        }

    @staticmethod
    def from_json(d: dict) -> "EdgeLabeledTableau":
        try:
            sides = [v for p in d["shape"].values() for v in p.values()]
            if not _ints([d["extent"], d["window"], d["entries"], d["edges"],
                          sides]):
                raise ValidationError("tableau JSON value is not an int")
            if len(d["window"]) != 2:
                raise ValidationError("tableau window is not [m, M]")
            # built as written, not through `of`, whose sorting and
            # de-duplication of edge sets would hide a malformed one
            t = EdgeLabeledTableau(
                SkewShape.from_json(d["shape"]), d["extent"],
                tuple(d["window"]),
                tuple(sorted(_by_position(d["entries"], "entry").items())),
                tuple(sorted((pos, tuple(vals)) for pos, vals in
                             _by_position(d["edges"], "edge").items())))
            t.validate()
            return t
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValidationError(f"malformed tableau JSON: {exc!r}") from exc

    def key(self) -> str:
        """json.dumps(self.to_json(), sort_keys=True), built directly: every
        value is an int or a list of ints, joined as json.dumps joins them."""
        edges = ", ".join([f"[{i}, {j}, [{', '.join(map(str, vals))}]]"
                           for (i, j), vals in self.edge_sets])
        entries = ", ".join([f"[{i}, {j}, {v}]"
                             for (i, j), v in self.entries])
        return (f'{{"edges": [{edges}], "entries": [{entries}], '
                f'{self._table().key_tail}')

    def render(self) -> str:
        """Plain-text grid; edge sets print inside braces above their cell."""
        em = self.entry_map()
        edges = self.edge_map()
        width = max([j for (_, j), _ in self.entries] +
                    [j for (_, j), _ in self.edge_sets] + [1])
        lines = []
        for i in range(1, self.extent + 2):
            sets_row = []
            cells_row = []
            for j in range(1, width + 1):
                s = edges.get((i, j))
                sets_row.append("{" + ",".join(map(str, s)) + "}" if s else "")
                v = em.get((i, j))
                if v is not None:
                    cells_row.append(str(v))
                elif self.shape.inner.part(i) >= j:
                    cells_row.append(".")
                else:
                    cells_row.append("")
            if any(sets_row):
                lines.append(" ".join(f"{s:>6}" for s in sets_row))
            if i <= self.extent:
                lines.append(" ".join(f"{c:>6}" for c in cells_row))
        return "\n".join(lines)


# The slots' own setters: like dataclass __init__, they write past the
# frozen __setattr__.
_keep_table = EdgeLabeledTableau._known_table.__set__
_keep_word = EdgeLabeledTableau._known_word.__set__


def _refuse_order(positions: list[Cell], what: str) -> None:
    """Refuse positions that do not strictly increase, as canonical fields
    do, naming the first repeated or out-of-order one."""
    k = list(map(ge, positions, positions[1:])).index(True)
    if positions[k] == positions[k + 1]:
        raise ValidationError(f"repeated {what} position {positions[k]}")
    raise ValidationError(
        f"{what} position {positions[k + 1]} out of row-major order")


# A window [m, M] with no diagonal in it: every edge is illegal.
EMPTY_WINDOW = (0, -1)


def semistandard(shape: SkewShape,
                 entry_map: dict[Cell, int]) -> EdgeLabeledTableau:
    """The validated semistandard tableau: no labels, on the empty window."""
    return EdgeLabeledTableau.of(shape, shape.extent, EMPTY_WINDOW, entry_map,
                                 {})


def enumerate_ssyt(shape: SkewShape, n: int) -> list[EdgeLabeledTableau]:
    """All semistandard fillings of the shape with entries in [n], in
    strip_chains order."""
    return list(enumerate_elt(shape, n, EMPTY_WINDOW, shape.extent))


def _check_edge(em: dict[Cell, int], legal: frozenset, i: int, j: int,
                low: int, high: int) -> None:
    """The rule for labels low..high on edge (i, j): a legal position,
    low above the entry over the edge, high below the entry under it."""
    if (i, j) not in legal:
        raise ValidationError(f"illegal edge position {(i, j)}")
    above = em.get((i - 1, j))
    below = em.get((i, j))
    if above is not None and low <= above:
        raise ValidationError(
            f"label {low} at edge {(i, j)} not above entry {above}")
    if below is not None and high >= below:
        raise ValidationError(
            f"label {high} at edge {(i, j)} not below entry {below}")


class _ShapeTable(NamedTuple):
    """What validate, key() and the uncrowding map read of one shape, extent
    and window."""
    shape: SkewShape
    cells: frozenset               # the cells of the shape
    legal: frozenset               # the edges that may carry labels
    diagonals: dict                # content -> outer's cells, bottom to top
    key_tail: str                  # key() after the entries
    rows: int                      # the shape's extent
    order: tuple                   # the cells in row-major order
    c_min: int                     # 1 - the outer shape's nonzero rows
    first: int                     # the outer shape's first part
    undo: tuple                    # (c - c_min + 1, j - 1) per outer cell


@functools.lru_cache(maxsize=32)
def _shape_table(outer: tuple[int, ...], inner: tuple[int, ...], extent: int,
                 window: tuple[int, int]) -> _ShapeTable:
    """The shape table, at most 32 of them (about 2 KiB each for the shapes
    of the 3x3 box).  It is keyed on plain tuples, which hash about four
    times faster than the frozen dataclasses."""
    shape = SkewShape(Partition(outer), Partition(inner))
    lo = inner + (0,) * (len(outer) + 1)
    cells = frozenset((i, j) for i, hi in enumerate(outer, start=1)
                      for j in range(lo[i - 1] + 1, hi + 1))
    # the legal edges: the upper and lower edges of each cell, the lower
    # boundary of the inner shape and row 0 right of the outer shape, cut to
    # rows 1..extent + 1 and diagonals m..M
    edges = {(i + k, j) for i, j in cells for k in (0, 1)}
    edges.update((i + 1, j) for i, hi in enumerate(inner, start=1)
                 for j in range(lo[i] + 1, hi + 1))
    m, M = window
    edges.update((1, j) for j in range(outer[0] + 1 if outer else 1, M + 2))
    legal = frozenset((i, j) for i, j in edges
                      if 1 <= i <= extent + 1 and m <= j - i <= M)
    diagonals: dict[int, list[Cell]] = {}
    for r in range(len(outer), 0, -1):
        for c in range(1, outer[r - 1] + 1):
            diagonals.setdefault(c - r, []).append((r, c))
    key_tail = (f'"extent": {extent}, "shape": {{"inner": '
                f'{_partition_key(inner)}, "outer": '
                f'{_partition_key(outer)}}}, "window": {list(window)}}}')
    c_min = 1 - len([q for q in outer if q > 0])
    return _ShapeTable(shape, cells, legal,
                       {c: tuple(cells) for c, cells in diagonals.items()},
                       key_tail, shape.extent, tuple(sorted(cells)), c_min,
                       outer[0] if outer else 0,
                       tuple((c - c_min + 1, j - 1)
                             for c, cells in diagonals.items()
                             for _, j in cells))


def _partition_key(parts: tuple[int, ...]) -> str:
    """json.dumps(Partition(parts).to_json(), sort_keys=True)."""
    positive = [q for q in parts if q > 0]
    return f'{{"extent": {len(parts)}, "parts": {positive}}}'


def _ints(value) -> bool:
    """An int or nested lists of ints; bool and float are not ints here.
    Walked with a stack, so no nesting depth recurses."""
    stack = [value]
    while stack:
        value = stack.pop()
        if type(value) is list:
            stack.extend(value)
        elif type(value) is not int:
            return False
    return True


def _by_position(rows: list, what: str) -> dict:
    """{(i, j): value} of JSON [i, j, value] rows.  A repeated (i, j) is
    refused: a dict would keep its last value and load another tableau."""
    out = {}
    for number, row in enumerate(rows, start=1):
        if type(row) is not list or len(row) != 3:
            raise ValidationError(f"{what} row number {number} is not "
                                  "[i, j, value]")
        i, j, value = row
        if (i, j) in out:
            raise ValidationError(f"repeated {what} position {(i, j)}")
        out[i, j] = value
    return out


# -- reading words -----------------------------------------------------

def _word(t: EdgeLabeledTableau) -> tuple[tuple[int, ...], tuple]:
    """The reading word as (letters, locators), built once and kept on t.

    The letters are sorted by (diagonal, -row, 0 for a label or 1 for the
    entry, -letter): the diagonal reading order.  Row and diagonal are those
    of the attachment cell: a box's own, or for a label on edge (i, j) the
    cell (i - 1, j) above it.
    """
    # a getattr default, not the caught AttributeError of `_table`: most
    # tableaux miss here once, and catching costs about twice as much
    word = getattr(t, "_known_word", None)
    if word is None:
        items = [(j - i, -i, 1, -v, v, ("box", i, j))
                 for (i, j), v in t.entries]
        items += [(j - i + 1, 1 - i, 0, -v, v, ("edge", i, j, v))
                  for (i, j), vals in t.edge_sets for v in vals]
        items.sort()
        word = (tuple([item[4] for item in items]),
                tuple([item[5] for item in items]))
        _keep_word(t, word)
    return word


def reading_word(t: EdgeLabeledTableau) -> list[tuple[int, tuple]]:
    """Diagonal reading word with locators.

    Diagonals are scanned in increasing content; within a diagonal the
    attachment cells run bottom-to-top (row 0 virtual cells last).  Each
    attachment cell (r, c) first emits the labels of the edge below it
    (edge position (r+1, c)) in decreasing order, then its entry.
    """
    return list(zip(*_word(t)))


def enumerate_elt(shape: SkewShape, n: int, window: tuple[int, int],
                  extent: int) -> Iterator[EdgeLabeledTableau]:
    """All edge labeled tableaux with entries and labels in [n].

    Chains come in strip_chains order; for each chain the label subsets of
    step 1 vary slowest, and subset `mask` of a step holds the deformed
    diagonals (ascending) whose bit is set.
    """
    for bare, _, subsets, _ in _checked_chains(shape, n, window, extent):
        table = bare._table()
        for choice in itertools.product(*subsets):
            edges: dict[Cell, list[int]] = {}
            for v, step in enumerate(choice, start=1):
                for pos in step:
                    edges.setdefault(pos, []).append(v)
            t = EdgeLabeledTableau(
                bare.shape, extent, window, bare.entries,
                tuple(sorted([(pos, tuple(vals))
                              for pos, vals in edges.items()])))
            _keep_table(t, table)
            yield t


def _checked_chains(shape: SkewShape, n: int, window: tuple[int, int],
                    extent: int) -> Iterator[tuple[EdgeLabeledTableau, int,
                                                   list[list], list[list]]]:
    """Each strip chain of the shape in [n], checked once, as
    (bare, entry code, subsets, subset codes).

    `bare` is the chain's validated tableau with no labels, so it holds the
    sorted entries; the entry code is their packed x-monomial.  For step v,
    subsets[v - 1][mask] lists the edges of label subset `mask` and
    subset_codes[v - 1][mask] is the packed product of x_v * a_d over its
    diagonals.  A tableau is one subset per step: its edge sets collect the
    chosen edges, and its weight is the entry code plus the chosen subset
    codes, because packed monomials multiply by int addition.

    Both lists of a step are built by subset doubling: each diagonal b, in
    ascending order, doubles them, and the new half holds its spot.  That
    half's indices are the old ones plus 2**b, so subset `mask` lands at
    index `mask`, the order enumerate_elt states.
    """
    lam = shape.outer.with_extent(extent)
    mu = shape.inner.with_extent(extent)
    sh = SkewShape(lam, mu)
    table = _shape_table(lam.parts, mu.parts, extent, tuple(window))
    legal = table.legal
    for chain in strip_chains(sh, n):
        # Every rule of validate is local to one edge, and its tests on an
        # edge's least and greatest label hold iff they hold for each label,
        # so the chain's tableaux are checked once: the entries (no labels)
        # and each candidate (edge, letter) alone.  Distinct diagonals of a
        # step land on distinct edges and steps come in increasing order, so
        # each edge set built from one subset per step is non-empty and
        # strictly increasing, as `of` would make it.
        em = _chain_entries(chain)
        bare = EdgeLabeledTableau(sh, extent, window, tuple(sorted(em.items())),
                                  ())
        _keep_table(bare, table)
        bare.validate()
        entry_code = _encode((xv(v), 1) for v in em.values())
        subsets, subset_codes = [], []
        for v in range(1, n + 1):
            diagonals = sorted(deformed_diagonals(chain[v], chain[v - 1], window))
            spots = [_label_edge(chain[v], d) for d in diagonals]
            for i, j in spots:
                _check_edge(em, legal, i, j, v, v)
            step, step_codes = [[]], [0]
            for spot, d in zip(spots, diagonals):
                code = _encode(((xv(v), 1), (av(d), 1)))
                step += [subset + [spot] for subset in step]
                step_codes += [m + code for m in step_codes]
            subsets.append(step)
            subset_codes.append(step_codes)
        yield bare, entry_code, subsets, subset_codes
