"""Semistandard and edge labeled tableaux.

An edge labeled tableau stores its box entries plus finite label sets on
horizontal edges.  Edge position (i, j) names the horizontal edge that is
the UPPER edge of cell (i, j); its weight diagonal is j - i, the content of
the cell below the edge.  Labels on edge (i, j) are strictly greater than
the entry in cell (i-1, j) and strictly smaller than the entry in cell
(i, j), whenever those cells carry entries.

Besides the positional form there is an equivalent chain form: a chain of
horizontal strips mu = nu^0 <= ... <= nu^n = lambda (recording which boxes
hold each value) together with, for each value v, the subset of deformed
diagonals of step v that carry a label v.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .poly import MultiPoly, _encode, av, xv
from .shapes import (Partition, SkewShape, deformed_diagonals,
                     is_horizontal_strip, strip_chains)


class ValidationError(ValueError):
    pass


Cell = tuple[int, int]


@dataclass(frozen=True)
class SemistandardTableau:
    shape: SkewShape
    entries: tuple[tuple[Cell, int], ...]

    @staticmethod
    def of(shape: SkewShape, entry_map: dict[Cell, int]) -> "SemistandardTableau":
        t = SemistandardTableau(shape, tuple(sorted(entry_map.items())))
        t.validate()
        return t

    def entry_map(self) -> dict[Cell, int]:
        return dict(self.entries)

    def validate(self) -> None:
        em = self.entry_map()
        # as many distinct cells as the shape has, each within its row's bounds
        hi = self.shape.outer.parts
        lo = self.shape.inner.parts + (0,) * len(hi)
        if len(em) != self.shape.size() or not all(
                0 < i <= len(hi) and lo[i - 1] < j <= hi[i - 1] for i, j in em):
            raise ValidationError("entries do not cover the shape")
        for (i, j), v in em.items():
            if v < 1:
                raise ValidationError(f"entry {v} at {(i, j)} below 1")
            if (i, j + 1) in em and em[(i, j + 1)] < v:
                raise ValidationError(f"row violation at {(i, j)}")
            if (i + 1, j) in em and em[(i + 1, j)] <= v:
                raise ValidationError(f"column violation at {(i, j)}")

    def content_vector(self, n: int) -> tuple[int, ...]:
        counts = [0] * n
        for _, v in self.entries:
            counts[v - 1] += 1
        return tuple(counts)


def _chain_entries(chain) -> dict[Cell, int]:
    """Entry map of a strip chain: the boxes of step v hold v."""
    em: dict[Cell, int] = {}
    for v in range(1, len(chain)):
        lo, hi = chain[v - 1], chain[v]
        for i in range(1, hi.extent + 1):
            for j in range(lo.part(i) + 1, hi.part(i) + 1):
                em[(i, j)] = v
    return em


def _label_edge(nu: Partition, d: int) -> Cell:
    """Edge carrying a label of the step ending at nu on deformed diagonal d.

    It is the upper edge of the first cell of diagonal d outside nu: row i,
    where i - 1 particles of nu (particle k at nu_k - k) sit right of d.
    """
    i = 1 + sum(1 for k in range(1, nu.extent + 1) if nu.part(k) - k > d)
    return (i, d + i)


def enumerate_ssyt(shape: SkewShape, n: int) -> list[SemistandardTableau]:
    """All semistandard fillings of the shape with entries in [n]."""
    return [SemistandardTableau(shape, tuple(sorted(_chain_entries(chain).items())))
            for chain in strip_chains(shape, n)]


@dataclass(frozen=True)
class EdgeLabeledTableau:
    shape: SkewShape
    extent: int                     # declared number of rows
    window: tuple[int, int]         # diagonal window [m, M]
    entries: tuple[tuple[Cell, int], ...]
    edge_sets: tuple[tuple[Cell, tuple[int, ...]], ...]

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

    def legal_edge_position(self, i: int, j: int) -> bool:
        """Edges adjacent to the filled region, the lower staircase of the
        inner shape, or the zeroth row right of the outer shape."""
        if j < 1 or i < 1 or i > self.extent + 1:
            return False
        m, M = self.window
        if not (m <= j - i <= M):
            return False
        sh = self.shape
        if sh.has_cell(i, j) or sh.has_cell(i - 1, j):
            return True
        inner = sh.inner
        if i >= 2 and inner.part(i - 1) >= j and sh.outer.part(i) < j:
            return True  # lower boundary of the inner shape
        if i == 1 and sh.outer.part(1) < j:
            return True  # zeroth row, right of the outer shape
        return False

    def validate(self) -> None:
        SemistandardTableau(self.shape, self.entries).validate()
        if self.extent < self.shape.extent:
            raise ValidationError("declared extent smaller than the shape")
        em = self.entry_map()
        for (i, j), vals in self.edge_sets:
            if not vals:
                raise ValidationError(f"empty edge set at {(i, j)}")
            if list(vals) != sorted(set(vals)):
                raise ValidationError(f"edge set at {(i, j)} not strictly sorted")
            self._check_edge(em, i, j, vals[0], vals[-1])

    def _check_edge(self, em: dict[Cell, int], i: int, j: int,
                    low: int, high: int) -> None:
        """The rule for labels low..high on edge (i, j): a legal position,
        low above the entry over the edge, high below the entry under it."""
        if not self.legal_edge_position(i, j):
            raise ValidationError(f"illegal edge position {(i, j)}")
        above = em.get((i - 1, j))
        below = em.get((i, j))
        if above is not None and low <= above:
            raise ValidationError(
                f"label {low} at edge {(i, j)} not above entry {above}")
        if below is not None and high >= below:
            raise ValidationError(
                f"label {high} at edge {(i, j)} not below entry {below}")

    # -- weights ---------------------------------------------------------

    def weight(self) -> MultiPoly:
        """Single monomial: x per entry, x_v * a_{j-i} per label v at (i, j)."""
        x_exp: dict[int, int] = {}
        for _, v in self.entries:
            x_exp[v] = x_exp.get(v, 0) + 1
        a_exp: dict[int, int] = {}
        for (i, j), vals in self.edge_sets:
            for v in vals:
                x_exp[v] = x_exp.get(v, 0) + 1
            a_exp[j - i] = a_exp.get(j - i, 0) + len(vals)
        return MultiPoly.monomial(_encode(
            [*((xv(v), e) for v, e in x_exp.items()),
             *((av(d), e) for d, e in a_exp.items())]))

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
        value is an int or a list of ints, whose repr is their JSON."""
        edges = [[i, j, list(vals)] for (i, j), vals in self.edge_sets]
        entries = [[i, j, v] for (i, j), v in self.entries]
        return (f'{{"edges": {edges}, "entries": {entries}, '
                f'"extent": {self.extent}, "shape": {{"inner": '
                f'{_partition_key(self.shape.inner)}, "outer": '
                f'{_partition_key(self.shape.outer)}}}, '
                f'"window": {list(self.window)}}}')

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


def _partition_key(p: Partition) -> str:
    """json.dumps(p.to_json(), sort_keys=True)."""
    return f'{{"extent": {p.extent}, "parts": {[q for q in p.parts if q > 0]}}}'


def _ints(value) -> bool:
    """An int or nested lists of ints; bool and float are not ints here."""
    return type(value) is int or (type(value) is list
                                  and all(map(_ints, value)))


def _by_position(rows: list, what: str) -> dict:
    """{(i, j): value} of JSON [i, j, value] rows.  A repeated (i, j) is
    refused: a dict would keep its last value and load another tableau."""
    out = {}
    for i, j, value in rows:
        if (i, j) in out:
            raise ValidationError(f"repeated {what} position {(i, j)}")
        out[i, j] = value
    return out


# -- reading words -----------------------------------------------------

def _reading_order(t) -> list[tuple]:
    """Every letter as (diagonal, -row, 0 for a label or 1 for the entry,
    -letter, (letter, locator)), sorted: the diagonal reading order.  Row and
    diagonal are those of the attachment cell: a box's own, or for a label on
    edge (i, j) the cell (i - 1, j) above it."""
    items = [(j - i, -i, 1, -v, (v, ("box", i, j))) for (i, j), v in t.entries]
    if isinstance(t, EdgeLabeledTableau):
        items += [(j - i + 1, 1 - i, 0, -v, (v, ("edge", i, j, v)))
                  for (i, j), vals in t.edge_sets for v in vals]
    items.sort()
    return items


def reading_word(t) -> list[tuple[int, tuple]]:
    """Diagonal reading word with locators.

    Diagonals are scanned in increasing content; within a diagonal the
    attachment cells run bottom-to-top (row 0 virtual cells last).  Each
    attachment cell (r, c) first emits the labels of the edge below it
    (edge position (r+1, c)) in decreasing order, then its entry.
    """
    return [item[4] for item in _reading_order(t)]


# -- chain form --------------------------------------------------------


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


def enumerate_elt(shape: SkewShape, n: int, window: tuple[int, int],
                  extent: int) -> Iterator[EdgeLabeledTableau]:
    """All edge labeled tableaux with entries and labels in [n].

    Chains come in strip_chains order; for each chain the label subsets of
    step 1 vary slowest, and subset `mask` of a step holds the deformed
    diagonals (ascending) whose bit is set.
    """
    yield from (t for t, _ in _weighted_elts(shape, n, window, extent))


def _weighted_elts(shape: SkewShape, n: int, window: tuple[int, int],
                   extent: int) -> Iterator[tuple[EdgeLabeledTableau, int]]:
    """enumerate_elt's tableaux, each with its packed weight monomial.

    A tableau's weight is its chain's entry monomial times, per step, the
    product of x_v * a_d over the step's chosen labels.  Packed monomials
    multiply by int addition, so both factors are summed once per chain and
    label subset, where weight() recounts them per tableau.
    """
    lam = shape.outer.with_extent(extent)
    mu = shape.inner.with_extent(extent)
    sh = SkewShape(lam, mu)
    for chain in strip_chains(sh, n):
        # Every rule of validate is local to one edge, and its tests on an
        # edge's least and greatest label hold iff they hold for each label,
        # so the chain's tableaux are checked once: the entries (no labels)
        # and each candidate (edge, letter) alone.  Distinct diagonals of a
        # step land on distinct edges and steps come in increasing order, so
        # each edge set built below is non-empty and strictly increasing, as
        # `of` would make it.
        em = _chain_entries(chain)
        bare = EdgeLabeledTableau(sh, extent, window, tuple(sorted(em.items())),
                                  ())
        bare.validate()
        entry_code = _encode((xv(v), 1) for v in em.values())
        subsets = []
        for v in range(1, n + 1):
            diagonals = sorted(deformed_diagonals(chain[v], chain[v - 1], window))
            spots = [_label_edge(chain[v], d) for d in diagonals]
            for i, j in spots:
                bare._check_edge(em, i, j, v, v)
            codes = [_encode(((xv(v), 1), (av(d), 1))) for d in diagonals]
            subsets.append([
                ([spots[b] for b in range(len(spots)) if mask >> b & 1],
                 sum(codes[b] for b in range(len(spots)) if mask >> b & 1))
                for mask in range(1 << len(spots))])
        for choice in itertools.product(*subsets):
            edges: dict[Cell, list[int]] = {}
            code = entry_code
            for v, (spots, step_code) in enumerate(choice, start=1):
                code += step_code
                for pos in spots:
                    edges.setdefault(pos, []).append(v)
            yield EdgeLabeledTableau(
                sh, extent, window, bare.entries,
                tuple(sorted((pos, tuple(vals)) for pos, vals in edges.items()))
            ), code
