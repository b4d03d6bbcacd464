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

So every column of Q on the image weakly decreases downwards, and the
inverse gives each index back on its own diagonal: it first refuses a
column of Q that does not.  It then buckets the cells of Q and of the
original shape by diagonal index, sorts them top diagonal first and, within
a diagonal, right column first, and visits only those: each marks the cell
at the bottom of its column of P, which must end its row; reverse bumping
a diagonal's rows, bottom row first, gives back its word, and a diagonal
without cells costs nothing.  Then it splits the words over boxes and
edges with no search, lowest diagonal first.  Diagonal
c's word reads, bottom to top, the labels under each cell and then its
entry, and last the labels on the row-0 edge (1, c).  A cell (r, j) with
j > 1 has its left neighbour (r, j - 1), on diagonal c - 1, already filled,
say with z.  Rows weakly increase, so the cell's entry, and the labels under
it, are >= z; the letters read next (the labels on the edge above (r, j - 1),
else the entry above it) are < z.  So the cell takes the longest run of the
remaining letters that are >= z, its entry last; a cell in column 1 takes
every remaining letter, and what the top cell leaves goes to edge (1, c).
On the image this split is the true one.  Off it, crowd raises
MalformedPair when P and Q do not unwind, when a cell's run is empty, when
the result is not a valid tableau, or when uncrowding it does not give the
pair back.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter

from .shapes import Partition, SkewShape
from .tableaux import (EdgeLabeledTableau, ValidationError, _reading_order,
                       _shape_table, semistandard)


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
    for c, _, _, _, (x, _) in _reading_order(t):
        word = words.get(c)
        if word is None:
            words[c] = [x]
        elif word[-1] > x:
            word.append(x)
        else:
            raise AssertionError(
                f"diagonal word {word + [x]} is not decreasing")
    c_min = 1 - lam.length()
    c_max = max(list(words) + [lam.first() - 1]) if (words or lam.parts) else 0
    diagonals = t._table().diagonals
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
    to the pair, split by the module docstring's rule; else MalformedPair."""
    lengths = list(map(len, pair.P))
    if lengths != sorted(lengths, reverse=True):
        raise MalformedPair("rows of P do not weakly shrink downwards")
    for r, row in enumerate(pair.P, 1):
        if list(row) != sorted(row):
            raise MalformedPair(f"row {r} of P does not weakly increase: {row}")
    # the table of SkewShape.of(lam.parts, (), extent=extent)
    outer = (lam.parts if lam.extent == extent
             else Partition.of(lam.parts, extent).parts)
    table = _shape_table(outer, (0,) * extent, extent, tuple(window))
    diagonals = table.diagonals
    q = dict(pair.Q)
    c_min = 1 - lam.length()
    i_max = max([0, lam.first() - c_min] + list(q.values()))
    rows = [list(row) for row in pair.P]
    width = lam.first() + len(q) + 1
    p_cols = _column_heights(rows, width)
    # Each cell of Q and of lam takes one cell of P off when its diagonal
    # index i is undone: uncrowd stacks indices on a column of Q in
    # increasing order, so a column that weakly decreases downwards gives
    # each back on its own diagonal.  A cell beyond the columns is caught by
    # the last check; an index below 1 is never undone.
    undo = [(c - c_min + 1, j - 1) for c, cells in diagonals.items()
            for _, j in cells]
    stranded = 0
    above: dict[int, int] = {}
    for (r, cc), v in sorted(q.items()):
        if not 1 <= cc <= width:
            continue
        if above.get(cc, v) < v:
            raise MalformedPair(
                f"column {cc} of Q does not weakly decrease downwards")
        above[cc] = v
        if v < 1:
            stranded += 1
        else:
            undo.append((v, cc - 1))

    # undo uncrowd one diagonal at a time, top diagonal first, and within
    # it a row's last cell first
    undo.sort(reverse=True)
    words: dict[int, list[int]] = {}
    for i, group in itertools.groupby(undo, key=itemgetter(0)):
        added: set[int] = set()               # rows of P that lose a cell
        for _, j in group:
            p_cols[j] -= 1
            if p_cols[j] in added:
                raise MalformedPair(
                    "diagonal strip removes two cells in a row")
            if p_cols[j] < 0 or len(rows[p_cols[j]]) != j + 1:
                raise MalformedPair("recording data inconsistent with P")
            added.add(p_cols[j])
        words[i] = [_reverse_bump(rows, r)
                    for r in sorted(added, reverse=True)][::-1]
    if any(rows) or stranded:
        raise MalformedPair("leftover cells after unwinding all diagonals")

    # split each diagonal word over boxes and edges, lowest diagonal first
    em: dict[tuple[int, int], int] = {}
    edges: dict[tuple[int, int], list[int]] = {}
    for i in range(1, i_max + 1):
        c = c_min + i - 1
        word = words.get(i, [])
        k = 0
        for r, j in diagonals.get(c, ()):
            z = em.get((r, j - 1))      # None in column 1: take every letter
            end = k
            while end < len(word) and (z is None or word[end] >= z):
                end += 1
            if end == k:
                raise MalformedPair(f"no letters left for cell {(r, j)}")
            em[(r, j)] = word[end - 1]
            edges[(r + 1, j)] = word[k:end - 1]     # `of` drops empty sets
            k = end
        edges[(1, c)] = word[k:]
    try:
        t = EdgeLabeledTableau.of(table.shape, extent, window, em, edges)
    except ValidationError as exc:
        raise MalformedPair(f"reconstruction is not a tableau: {exc}") from exc
    if uncrowd(t) != RSKPair(pair.P, tuple(sorted(pair.Q))):
        raise MalformedPair("uncrowding the reconstruction does not give "
                            "the pair back; pair is not in the image")
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
