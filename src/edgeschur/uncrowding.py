"""RSK row insertion and the uncrowding bijection on edge labeled tableaux.

Uncrowding proceeds along diagonals from the lower left, RSK-inserting each
diagonal's reading word (which is strictly decreasing, so every insertion
path adds one cell per row, strictly descending), cut from the one reading
order of `tableaux.reading_word`.  P is held as lists of rows; an insertion
finds each bump by bisection and adds one to P's column height where its
path ends, so nothing is recounted.  The recording filling Q tracks where
the insertion shape outgrows the column-justified part of the original
shape.  Q is held as one list per column, top to bottom: each new cell of
P puts the current diagonal index on top of its column, and each cell of
the original shape on the current diagonal (which joins the
column-justified part) takes one back; older entries sink to the bottom of
P's column.  Q becomes cells only for the result and the trace.

The inverse undoes these steps one diagonal i at a time, top diagonal
first: each cell of the original shape on the diagonal gives its i back to
Q, and each i then on top of a column of Q marks the cell at the bottom of
that column of P, which must end its row; reverse bumping those rows,
bottom row first, gives back the diagonal's word.  Then it splits the
words over boxes and edges with no search, lowest diagonal first.  Diagonal
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

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional

from .shapes import Partition, SkewShape
from .tableaux import (EdgeLabeledTableau, SemistandardTableau,
                       ValidationError, _reading_order)


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


def rows_to_ssyt(rows: Rows) -> SemistandardTableau:
    shape = SkewShape.of([len(r) for r in rows])
    return SemistandardTableau.of(
        shape, {(i + 1, j + 1): v for i, r in enumerate(rows)
                for j, v in enumerate(r)})


def _diagonal_cells(lam: Partition) -> dict[int, list[tuple[int, int]]]:
    """Cells (r, c) of lam by content c - r, bottom to top."""
    out: dict[int, list[tuple[int, int]]] = {}
    for r in range(len(lam.parts), 0, -1):
        for c in range(1, lam.parts[r - 1] + 1):
            out.setdefault(c - r, []).append((r, c))
    return out


def _q_cells(q_cols: list[list[int]], p_cols: list[int]) -> dict:
    """Recording cells: column j's entries fill the bottom of P's column j."""
    return {(h - len(col) + k, j): v
            for j, (col, h) in enumerate(zip(q_cols, p_cols), start=1)
            for k, v in enumerate(col, start=1)}


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
    for item in _reading_order(t):
        words.setdefault(item[0], []).append(item[4][0])
    c_min = 1 - lam.length()
    c_max = max(list(words) + [lam.first() - 1]) if (words or lam.parts) else 0
    diag_cells = _diagonal_cells(lam)
    rows: list[list[int]] = []
    p_cols: list[int] = []                # column heights of P
    q_cols: list[list[int]] = []          # Q by column, top to bottom
    trace = []
    for i, c in enumerate(range(c_min, c_max + 1), start=1):
        word = words.get(c, [])
        if any(word[k] <= word[k + 1] for k in range(len(word) - 1)):
            raise AssertionError(f"diagonal word {word} is not decreasing")
        # a new cell of P puts an i on top of its column of Q; a cell of lam
        # on diagonal c joins the column-justified part and takes one back
        for x in word:
            j = _row_insert(rows, x)
            if j < len(p_cols):
                p_cols[j] += 1
                q_cols[j].insert(0, i)
            else:
                p_cols.append(1)
                q_cols.append([i])
        for _, j in diag_cells.get(c, ()):
            if j > len(q_cols) or q_cols[j - 1][:1] != [i]:
                raise AssertionError(
                    "recording column shrank below its entries")
            del q_cols[j - 1][0]
        if with_trace:
            trace.append((tuple(map(tuple, rows)), _q_cells(q_cols, p_cols)))
    pair = RSKPair(tuple(map(tuple, rows)),
                   tuple(sorted(_q_cells(q_cols, p_cols).items())))
    if with_trace:
        return pair, trace
    return pair


def crowd(pair: RSKPair, lam: Partition, window: tuple[int, int],
          extent: Optional[int] = None) -> EdgeLabeledTableau:
    """The edge labeled tableau of shape lam, window and extent that uncrowds
    to the pair, split by the module docstring's rule; else MalformedPair."""
    if any(len(lo) > len(hi) for hi, lo in zip(pair.P, pair.P[1:])):
        raise MalformedPair("rows of P do not weakly shrink downwards")
    for r, row in enumerate(pair.P, 1):
        if any(a > b for a, b in zip(row, row[1:])):
            raise MalformedPair(f"row {r} of P does not weakly increase: {row}")
    extent = extent if extent is not None else lam.extent
    q = dict(pair.Q)
    c_min = 1 - lam.length()
    i_max = max([0, lam.first() - c_min] + list(q.values()))
    # Q columns top to bottom; a cell beyond them is caught by the last check
    width = lam.first() + len(q) + 1
    q_cols: list[list[int]] = [[] for _ in range(width)]
    for (r, cc), v in sorted(q.items()):
        if 1 <= cc <= width:
            q_cols[cc - 1].append(v)

    # undo uncrowd one diagonal at a time, top diagonal first
    rows = [list(r) for r in pair.P]
    p_cols = [sum(len(r) > j for r in rows) for j in range(width)]
    words: dict[int, list[int]] = {}
    diag_cells = _diagonal_cells(lam)
    for i in range(i_max, 0, -1):
        for _, j in diag_cells.get(c_min + i - 1, ()):
            q_cols[j - 1].insert(0, i)
        added: set[int] = set()               # rows of P that lose a cell
        for j in range(width - 1, -1, -1):    # a row's last cell first
            while q_cols[j][:1] == [i]:
                del q_cols[j][0]
                p_cols[j] -= 1
                if p_cols[j] in added:
                    raise MalformedPair(
                        "diagonal strip removes two cells in a row")
                if p_cols[j] < 0 or len(rows[p_cols[j]]) != j + 1:
                    raise MalformedPair("recording data inconsistent with P")
                added.add(p_cols[j])
        words[i] = [_reverse_bump(rows, r)
                    for r in sorted(added, reverse=True)][::-1]
    if any(rows) or any(q_cols):
        raise MalformedPair("leftover cells after unwinding all diagonals")

    # split each diagonal word over boxes and edges, lowest diagonal first
    shape = SkewShape.of(lam.parts, (), extent=extent)
    em: dict[tuple[int, int], int] = {}
    edges: dict[tuple[int, int], list[int]] = {}
    for i in range(1, i_max + 1):
        c = c_min + i - 1
        word = words.get(i, [])
        k = 0
        for r, j in diag_cells.get(c, ()):
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
        t = EdgeLabeledTableau.of(shape, extent, window, em, edges)
    except ValidationError as exc:
        raise MalformedPair(f"reconstruction is not a tableau: {exc}") from exc
    if uncrowd(t) != RSKPair(pair.P, tuple(sorted(pair.Q))):
        raise MalformedPair("uncrowding the reconstruction does not give "
                            "the pair back; pair is not in the image")
    return t


def check_crystal_commute(lam: Partition, window: tuple[int, int],
                          extent: int, n: int) -> bool:
    """Uncrowding intertwines f_i and leaves the recording data fixed."""
    from .crystal import f_elt, f_ssyt
    from .tableaux import enumerate_elt
    shape = SkewShape.of(lam.parts, (), extent=extent)
    for t in enumerate_elt(shape, n, window, extent):
        pair = uncrowd(t)
        p_t = rows_to_ssyt(pair.P)
        for i in range(1, n):
            ft = f_elt(t, i)
            fp = f_ssyt(p_t, i)
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
