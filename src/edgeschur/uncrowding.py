"""RSK row insertion and the uncrowding bijection on edge labeled tableaux.

Uncrowding proceeds along diagonals from the lower left, RSK-inserting each
diagonal's reading word (which is strictly decreasing, so every insertion
path adds one cell per row, strictly descending), cut from the one reading
order of `tableaux.reading_word` and checked to decrease as it is cut.  P
is held as lists of rows; an insertion finds each bump by bisection and
returns the column where its path ends.  The recording filling Q tracks
where the insertion shape outgrows the column-justified part of the
original shape.  Q is held as one list per column, bottom to top: each new
cell of P puts the current diagonal index on top of its column, and each
cell of the original shape on the current diagonal (which joins the
column-justified part) takes one back; older entries sink to the bottom of
P's column.  Q becomes cells only for the result and the trace, placed by
P's column heights counted in one pass over its rows.  The original shape's
cells by diagonal come from the shape table of `tableaux` (one bounded
cache per shape, extent and window), not from a walk over the shape.

So every column of Q on the image fills the bottom of P's column and
weakly decreases downwards, and the inverse gives each index back on its
own diagonal (index i is diagonal i - l, l the shape's nonzero rows): it
first refuses a column of Q that does not.  It then sorts the cells of Q
and of the original shape by diagonal index, top diagonal first and,
within a diagonal, right column first, and visits only those, grouped by
index: each marks the cell at the bottom of its column of P, which must
end its row; reverse bumping a diagonal's rows, bottom row first, gives
back its word, and a diagonal without cells costs nothing.  Then it splits
the words over boxes and edges, lowest diagonal first, with one bisection
per cell and no backtracking.  Diagonal c's word
reads, bottom to top, the labels under each cell and then its
entry, and last the labels on the row-0 edge (1, c).  A cell (r, j) with
j > 1 has its left neighbour (r, j - 1), on diagonal c - 1, already filled,
say with z.  Rows weakly increase, so the cell's entry, and the labels under
it, are >= z; the letters read next (the labels on the edge above (r, j - 1),
else the entry above it) are < z.  So the cell takes the longest run of the
remaining letters that are >= z, its entry last; a cell in column 1 takes
every remaining letter, and what the top cell leaves goes to edge (1, c).
On the image this split is the true one.

Off it, crowd refuses with MalformedPair when P and Q do not unwind, when
a cell's run is empty, when the result is not a valid tableau, and, by
name, when
  (a) a row of P is empty or a column of P does not strictly increase
      downwards (its rows must weakly increase and weakly shrink),
  (b) a cell of Q repeats,
  (c) a column of Q is not exactly the bottom cells of P's column of that
      index (so a column outside 1..width of P holds no cell of Q), or
  (d) a diagonal word from the reverse bumps does not strictly decrease.
It does not uncrowd its result again, because a pair passing these checks
is the pair of that result t.  By (a) P is semistandard, and reverse
bumping a corner of a semistandard tableau leaves one whose row insertion
of the bumped letter gives the tableau back, the new cell at that corner
(the row-bumping lemma).  So every stage of the unwind is semistandard, and
inserting the words again, lowest index first and each in the order it was
cut, rebuilds P stage by stage, at index i adding exactly the cells the
unwind took off for i.  By (d) the split keeps every letter: an edge's run
strictly decreases, so reversed it is the edge's label set, sorted with no
letter lost, and t's reading word on index i's diagonal is word i; t has no
other letters.  So uncrowd(t) inserts the same words into the same stages
and ends at P.  At index i its new cells are, column for column, the cells
of Q holding i and the cells of the shape on the diagonal, so each cell of
the shape pops an i just pushed, and column j of Q ends with Q's indices
in column j, increasing upwards.  uncrowd puts them at the bottom of P's
column j; by (b), (c) and the order check on Q's columns, that is Q.  Each refusal by name is also a pair
uncrowd never gives: its P is an insertion tableau, its Q has distinct
cells at the bottom of P's columns, and the words it inserts are a valid
tableau's diagonal words, which strictly decrease and which the unwind of
its pair gives back.  (d) itself follows from (a) and the unwind's one cell
per row: its corners come off bottom row first, so inserting the word puts
each new cell strictly below the one before, which by the same lemma needs
a strictly decreasing word.  crowd checks it all the same, as the premise
of the split.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import ge, gt, itemgetter

from .shapes import Partition, SkewShape
from .tableaux import (EdgeLabeledTableau, ValidationError, _keep_table,
                       _shape_table, _word, semistandard)


class MalformedPair(ValueError):
    pass


Rows = tuple[tuple[int, ...], ...]


def _row_insert(rows: list[list[int]], x: int) -> int:
    """Row-insert x in place; returns the column (from 0) of the new cell."""
    for row in rows:
        k = bisect_right(row, x)
        if k == len(row):
            row.append(x)
            return k
        row[k], x = x, row[k]
    rows.append([x])
    return 0


def _reverse_bump(rows: list[list[int]], r: int) -> int:
    """Remove the last cell of row r (from 0) in place and reverse-bump
    upwards; returns the letter bumped out.  An emptied row stays."""
    x = rows[r].pop()
    for k in range(r - 1, -1, -1):
        row = rows[k]
        pos = bisect_left(row, x) - 1
        if pos < 0:
            raise MalformedPair("reverse bump found no smaller entry")
        row[pos], x = x, row[pos]
    return x


def rows_to_ssyt(rows: Rows) -> EdgeLabeledTableau:
    return semistandard(SkewShape.of([len(r) for r in rows]),
                        {(i + 1, j + 1): v for i, r in enumerate(rows)
                         for j, v in enumerate(r)})


def _column_heights(rows, width: int) -> list[int]:
    """Column heights of P's first width columns, in one pass over its rows,
    which weakly shrink: column j is as high as the last row longer than j."""
    heights = [0] * width
    for r, row in enumerate(rows, start=1):
        k = min(len(row), width)
        heights[:k] = [r] * k
    return heights


def _q_cells(q_cols: list[list[int]], rows: list[list[int]]) -> dict:
    """Recording cells: column j's entries, bottom first, fill the bottom of
    P's column j."""
    heights = _column_heights(rows, len(q_cols))
    return {(h - k, j): v
            for j, (col, h) in enumerate(zip(q_cols, heights), start=1)
            for k, v in enumerate(col)}


@dataclass(frozen=True)
class RSKPair:
    P: Rows
    Q: tuple[tuple[tuple[int, int], int], ...]   # ((row, col), diagonal index)


def uncrowd(t: EdgeLabeledTableau, with_trace: bool = False):
    """Insertion tableau and recording filling of an edge labeled tableau."""
    lam = t.shape.outer
    if t.shape.inner.size() > 0:
        raise MalformedPair("uncrowding is defined for straight shapes")
    words: dict[int, list[int]] = {}      # diagonal -> its reading word
    for x, loc in zip(*_word(t)):
        # the diagonal of the letter's attachment cell
        c = loc[2] - loc[1] if loc[0] == "box" else loc[2] - loc[1] + 1
        word = words.get(c)
        if word is None:
            words[c] = [x]
        elif word[-1] > x:
            word.append(x)
        else:
            raise AssertionError(
                f"diagonal word {word + [x]} is not decreasing")
    table = t._table()
    c_min = table.c_min
    c_max = max(list(words) + [table.first - 1]) if (words or lam.parts) else 0
    diagonals = table.diagonals
    rows: list[list[int]] = []
    q_cols: list[list[int]] = []          # Q by column, bottom to top
    trace = []
    for i, c in enumerate(range(c_min, c_max + 1), start=1):
        # a new cell of P puts an i on top of its column of Q; a cell of lam
        # on diagonal c joins the column-justified part and takes one back
        for x in words.get(c, ()):
            j = _row_insert(rows, x)
            if j < len(q_cols):
                q_cols[j].append(i)
            else:
                q_cols.append([i])
        for _, j in diagonals.get(c, ()):
            col = q_cols[j - 1] if j <= len(q_cols) else None
            if not col or col.pop() != i:
                raise AssertionError(
                    "recording column shrank below its entries")
        if with_trace:
            trace.append((tuple(map(tuple, rows)), _q_cells(q_cols, rows)))
    pair = RSKPair(tuple(map(tuple, rows)),
                   tuple(sorted(_q_cells(q_cols, rows).items())))
    if with_trace:
        return pair, trace
    return pair


def crowd(pair: RSKPair, lam: Partition, window: tuple[int, int],
          extent: int) -> EdgeLabeledTableau:
    """The edge labeled tableau of shape lam, window and extent that uncrowds
    to the pair, split by the module docstring's rule; else MalformedPair.
    The docstring's checks (a) to (d) prove that the result uncrowds to the
    pair, so it is not uncrowded again."""
    # check (a) and copy P in one pass, raising the first failure of the
    # lengths, then of a row, then of a column; p_cols are the column
    # heights of P's first width columns
    width = max(lam.first(), len(pair.P[0]) if pair.P else 0)
    p_cols = [0] * width
    rows: list[list[int]] = []
    shrinks, bad_row, bad_column = True, None, None
    upper: tuple[int, ...] = ()
    for r, row in enumerate(pair.P, 1):
        if r > 1 and len(row) > len(upper):
            shrinks = False
        elif bad_column is None and any(map(ge, upper, row)):
            bad_column = list(map(ge, upper, row)).index(True) + 1
        if bad_row is None:
            if not row:
                bad_row = f"row {r} of P is empty"
            elif any(map(gt, row, row[1:])):
                bad_row = f"row {r} of P does not weakly increase: {row}"
        p_cols[:len(row)] = [r] * len(row)     # widens only a P failing (a)
        rows.append(list(row))
        upper = row
    if not shrinks:
        raise MalformedPair("rows of P do not weakly shrink downwards")
    if bad_row is not None:
        raise MalformedPair(bad_row)
    if bad_column is not None:
        raise MalformedPair(
            f"column {bad_column} of P does not strictly increase downwards")
    q = dict(pair.Q)
    if len(q) != len(pair.Q):
        seen = set()
        for cell, _ in pair.Q:
            if cell in seen:
                raise MalformedPair(f"cell {cell} of Q is repeated")
            seen.add(cell)
    # the table of SkewShape.of(lam.parts, (), extent=extent)
    outer = (lam.parts if lam.extent == extent
             else Partition.of(lam.parts, extent).parts)
    table = _shape_table(outer, (0,) * extent, extent, tuple(window))
    diagonals, c_min = table.diagonals, table.c_min
    i_max = max([0, table.first - c_min] + list(q.values()))
    # Each cell of Q and of lam takes one cell of P off when its diagonal
    # index i is undone: uncrowd stacks indices on a column of Q in
    # increasing order at the bottom of P's column, so a column that fills
    # that bottom and weakly decreases downwards gives each back on its own
    # diagonal.  An index below 1 is never undone.
    undo = list(table.undo)
    q_cols: dict[int, list[tuple[int, int]]] = {}   # column -> (row, index)
    for (r, cc), v in sorted(q.items()):
        q_cols.setdefault(cc, []).append((r, v))
    stranded = 0
    for cc, cells in q_cols.items():
        h = p_cols[cc - 1] if 1 <= cc <= width else 0
        top = h - len(cells) + 1
        if top < 1 or [r for r, _ in cells] != list(range(top, h + 1)):
            raise MalformedPair(
                f"column {cc} of Q is not the bottom of column {cc} of P")
        above = cells[0][1]
        for _, v in cells:
            if v > above:
                raise MalformedPair(
                    f"column {cc} of Q does not weakly decrease downwards")
            above = v
            if v < 1:
                stranded += 1
            else:
                undo.append((v, cc - 1))

    # undo uncrowd one diagonal at a time, top diagonal first, and within
    # it a row's last cell first
    undo.sort(reverse=True)
    words: dict[int, list[int]] = {}
    for i, group in itertools.groupby(undo, key=itemgetter(0)):
        added: list[int] = []                 # rows of P that lose a cell
        for _, j in group:
            p_cols[j] -= 1
            r = p_cols[j]
            if r < 0 or len(rows[r]) != j + 1:
                # a row taken twice in the group fails here too, since
                # the group's cells of one column take distinct rows
                if r in added:
                    raise MalformedPair(
                        "diagonal strip removes two cells in a row")
                raise MalformedPair("recording data inconsistent with P")
            added.append(r)
        added.sort(reverse=True)
        # the word read backwards, as the bumps give it back
        backwards = [_reverse_bump(rows, r) for r in added]
        if any(map(ge, backwards, backwards[1:])):
            raise MalformedPair(
                f"diagonal word {backwards[::-1]} of index {i} does not "
                f"strictly decrease")
        words[i] = backwards
    if any(rows) or stranded:
        raise MalformedPair("leftover cells after unwinding all diagonals")

    # split each diagonal word over boxes and edges, lowest diagonal first.
    # By (d) the word read backwards strictly increases, so the letters left
    # are its first m, the run of those >= z is the rest from bisect_left,
    # and a run's labels are the sorted set `of` would store.
    em: dict[tuple[int, int], int] = {}
    edges: dict[tuple[int, int], tuple[int, ...]] = {}
    for i in range(1, i_max + 1):
        c = c_min + i - 1
        backwards = words.get(i, ())
        m = len(backwards)
        for r, j in diagonals.get(c, ()):
            z = em.get((r, j - 1))      # None in column 1: take every letter
            k = 0 if z is None else bisect_left(backwards, z, 0, m)
            if k == m:
                raise MalformedPair(f"no letters left for cell {(r, j)}")
            em[(r, j)] = backwards[k]
            if m - k > 1:
                edges[(r + 1, j)] = tuple(backwards[k + 1:m])
            m = k
        if m:
            edges[(1, c)] = tuple(backwards[:m])
    t = EdgeLabeledTableau(table.shape, extent, window,
                           tuple(sorted(em.items())),
                           tuple(sorted(edges.items())))
    _keep_table(t, table)
    try:        # its entries are em's items sorted, so in canonical order
        t._validate(table, em)
    except ValidationError as exc:
        raise MalformedPair(f"reconstruction is not a tableau: {exc}") from exc
    return t


def check_crystal_commute(lam: Partition, window: tuple[int, int],
                          extent: int, n: int) -> bool:
    """Uncrowding intertwines f_i and leaves the recording data fixed."""
    from .crystal import f_elt
    from .tableaux import enumerate_elt
    shape = SkewShape.of(lam.parts, (), extent=extent)
    for t in enumerate_elt(shape, n, window, extent):
        pair = uncrowd(t)
        p_t = rows_to_ssyt(pair.P)
        for i in range(1, n):
            ft = f_elt(t, i)
            fp = f_elt(p_t, i)
            if (ft is None) != (fp is None):
                return False
            if ft is None:
                continue
            fpair = uncrowd(ft)
            if rows_to_ssyt(fpair.P) != fp:
                return False
            if fpair.Q != pair.Q:
                return False
    return True
