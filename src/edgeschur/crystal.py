"""Type-A crystal operators on words and edge labeled tableaux.

A semistandard tableau is an edge labeled tableau on the empty window
(`tableaux.EMPTY_WINDOW`), so f_elt and e_elt are its classical crystal
operators too, and `ssyt_crystal_graph` is `crystal_graph` on that window.

Operators act through the diagonal reading word: the first-read letter is
the leftmost tensor factor.  For the signature of e_i/f_i, every letter i
contributes '-' and every i+1 contributes '+', adjacent '+-' pairs cancel,
f_i acts at the rightmost surviving '-', e_i at the leftmost surviving '+'.

On an edge labeled tableau the acting letter is located by the word.  An
edge label simply ticks up or down inside its set.  A box letter moves
with its run, boxes (r, c)..(r, cend) of one row: every box of the run
holds i in the f_i reading and i+1 in the e_i reading, and the run carries
the markers, an i on the edge above each box but the last, and the bumps,
an i+1 on the edge below each box but the first.  f_i turns the run's
entries into i+1, removes the bumps and adds the markers; e_i is the same
move read backwards.  A marker and the bump one box to its right lie on
the same weight diagonal, so the a-monomial survives.  For f_i the run
extends while the next box holds i, for e_i while the edge above carries i;
a run of one box is the plain entry change.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .poly import MultiPoly
from .shapes import Partition, SkewShape
from .schur import EdgeSchurParams
from .tableaux import (EMPTY_WINDOW, EdgeLabeledTableau, _keep_table,
                       _keep_word, _word, enumerate_elt)


def signature(letters: list[int], i: int) -> tuple[list[int], list[int]]:
    """Positions of surviving '-' (letter i) and '+' (letter i+1).

    Letters are scanned in reading order; each '+' cancels the next
    unmatched '-'.  Every surviving '-' precedes every surviving '+'.
    """
    minus: list[int] = []
    plus: list[int] = []
    for pos, letter in enumerate(letters):
        if letter == i + 1:
            plus.append(pos)
        elif letter == i:
            if plus:
                plus.pop()
            else:
                minus.append(pos)
    return minus, plus


def eps_phi(letters: list[int], i: int) -> tuple[int, int]:
    """(epsilon_i, phi_i) from the reduced signature."""
    minus, plus = signature(letters, i)
    return len(plus), len(minus)


# -- operators on tableaux ---------------------------------------------


def f_elt(t: EdgeLabeledTableau, i: int) -> Optional[EdgeLabeledTableau]:
    return _act(t, i, up=True)


def e_elt(t: EdgeLabeledTableau, i: int) -> Optional[EdgeLabeledTableau]:
    return _act(t, i, up=False)


def _act(t: EdgeLabeledTableau, i: int,
         up: bool) -> Optional[EdgeLabeledTableau]:
    """f_i (up) or e_i on t: the letter the signature picks turns old into
    new, and a box letter carries its run's markers and bumps with it.  The
    result keeps t's shape table and its sorted entries and edge sets, only
    what moved changed: a label tick replaces one edge's set, and a run's
    values change in place, its edge sets normalised as `of` does.  t is
    validated only when a check of the move fails, so a malformed t raises
    its ValidationError there and only a valid one an AssertionError."""
    letters, locators = _word(t)
    minus, plus = signature(letters, i)
    if not (minus if up else plus):
        return None
    pos = minus[-1] if up else plus[0]
    old, new = (i, i + 1) if up else (i + 1, i)
    loc = locators[pos]
    entries, edge_sets = t.entries, t.edge_sets
    if loc[0] == "edge":
        # An edge reads its i + 1 just before its i, and the two cancel, so
        # the new letter is not on the edge and the set stays sorted.
        k = bisect_left(edge_sets, ((loc[1], loc[2]),))
        edge, vals = edge_sets[k]
        vals = tuple([new if v == old else v for v in vals])
        edge_sets = edge_sets[:k] + ((edge, vals),) + edge_sets[k + 1:]
    else:
        _, r, c = loc
        edges = {p: list(vs) for p, vs in edge_sets}
        # the run is entries[k:end], (r, c) and the boxes after it in the
        # row-major entries
        k = bisect_left(entries, ((r, c),))
        end = k + 1
        if up:      # it extends while the next box holds i
            while end < len(entries) and entries[end] == ((r, c + end - k), i):
                end += 1
        else:       # it extends while the edge above its last box carries i
            while i in edges.get((r, c + end - k - 1), ()):
                end += 1
        cend = c + end - k - 1
        run = tuple(((r, j), old) for j in range(c, cend + 1))
        if entries[k:end] != run:
            t.validate()
            raise AssertionError(f"run ({r}, {c})..({r}, {cend}) does not "
                                 f"hold {old} throughout")
        entries = (entries[:k] + tuple((cell, new) for cell, _ in run)
                   + entries[end:])
        markers = [((r, j), i) for j in range(c, cend)]
        bumps = [((r + 1, j), i + 1) for j in range(c + 1, cend + 1)]
        gone, added = (bumps, markers) if up else (markers, bumps)
        for edge, v in gone:
            if v not in edges.get(edge, ()):
                t.validate()
                raise AssertionError(f"no label {v} on edge {edge} of the run")
            edges[edge].remove(v)
        for edge, v in added:
            edges.setdefault(edge, []).append(v)
        edge_sets = tuple(sorted((p, tuple(sorted(set(vs))))
                                 for p, vs in edges.items() if vs))
    out = EdgeLabeledTableau(t.shape, t.extent, t.window, entries, edge_sets)
    _keep_table(out, t._table())
    out.validate()
    if _word(out)[0] != letters[:pos] + (new,) + letters[pos + 1:]:
        t.validate()
        raise AssertionError(
            f"reading word does not commute with {'f' if up else 'e'}")
    return out


def is_highest_weight(t: EdgeLabeledTableau, n: int) -> bool:
    letters = _word(t)[0]
    return all(eps_phi(letters, i)[0] == 0 for i in range(1, n))


def highest_weights(lam: Partition, p: EdgeSchurParams):
    """All highest weight tableaux: (tableau, crystal weight, a-monomial)."""
    n = p.num_vars
    shape = SkewShape.of(lam.parts, (), extent=p.extent)
    out = []
    for t in enumerate_elt(shape, n, p.window, p.extent):
        if is_highest_weight(t, n):
            out.append((t, t.content_vector(n), t.a_monomial()))
    return out


def schur_expansion_crystal(lam: Partition, p: EdgeSchurParams,
                            max_size: int) -> dict[Partition, MultiPoly]:
    """Coefficients c_nu(a): sum of a-monomials of highest weights."""
    coeffs: dict[Partition, MultiPoly] = {}
    for _, wt, amono in highest_weights(lam, p):
        if any(wt[k] < wt[k + 1] for k in range(len(wt) - 1)):
            raise AssertionError(f"highest weight {wt} is not dominant")
        if sum(wt) > max_size:
            continue
        nu = Partition(tuple(wt))
        coeffs[nu] = coeffs.get(nu, MultiPoly.zero()) + amono
    return coeffs


@dataclass
class CrystalGraph:
    vertices: list            # edge labeled tableaux
    arcs: dict[tuple[int, int], int]   # (vertex, i) -> vertex
    n: int                    # entries in [n], so arcs carry i in [1, n)

    @cached_property
    def back(self) -> dict[tuple[int, int], int]:
        """The arcs reversed: (vertex, i) -> the vertex f_i sends there."""
        return {(w, i): u for (u, i), w in self.arcs.items()}


def crystal_graph(lam: Partition, p: EdgeSchurParams) -> CrystalGraph:
    n = p.num_vars
    shape = SkewShape.of(lam.parts, (), extent=p.extent)
    vertices = list(enumerate_elt(shape, n, p.window, p.extent))
    # a tableau's frozen fields are canonical, so it is its own key
    index = {t: k for k, t in enumerate(vertices)}
    arcs: dict[tuple[int, int], int] = {}
    for k, t in enumerate(vertices):
        for i in range(1, n):
            ft = f_elt(t, i)
            if ft is not None:
                arcs[(k, i)] = index[ft]
        _keep_word(t, None)     # the graph keeps its vertices, not words
    return CrystalGraph(vertices, arcs, n)


def ssyt_crystal_graph(nu: Partition, n: int) -> CrystalGraph:
    """The classical crystal B(nu) on semistandard tableaux with entries in
    [n]: the crystal graph of nu on the empty window."""
    return crystal_graph(nu, EdgeSchurParams(n, EMPTY_WINDOW, n))


def graphs_isomorphic(g1: CrystalGraph, v1: int, g2: CrystalGraph,
                      v2: int) -> bool:
    """Rooted edge-labeled isomorphism by deterministic parallel traversal;
    graphs over different n are never isomorphic."""
    if g1.n != g2.n:
        return False
    pairing = {v1: v2}
    stack = [(v1, v2)]
    while stack:
        a, b = stack.pop()
        for i in range(1, g1.n):
            for nxt_a, nxt_b in ((g1.arcs.get((a, i)), g2.arcs.get((b, i))),
                                  (g1.back.get((a, i)), g2.back.get((b, i)))):
                if (nxt_a is None) != (nxt_b is None):
                    return False
                if nxt_a is None:
                    continue
                if nxt_a in pairing:
                    if pairing[nxt_a] != nxt_b:
                        return False
                else:
                    pairing[nxt_a] = nxt_b
                    stack.append((nxt_a, nxt_b))
    return True


def component_decomposition(graph: CrystalGraph):
    """Split into components; returns list of (component, hw vertex)."""
    n = graph.n
    seen: set[int] = set()
    out = []
    for v in range(len(graph.vertices)):
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for i in range(1, n):
                for nxt in (graph.arcs.get((u, i)), graph.back.get((u, i))):
                    if nxt is not None and nxt not in comp:
                        comp.add(nxt)
                        stack.append(nxt)
        seen |= comp
        hws = [u for u in comp
               if all((u, i) not in graph.back for i in range(1, n))]
        if len(hws) != 1:
            raise AssertionError(
                f"component has {len(hws)} highest weight elements")
        out.append((comp, hws[0]))
    return out


def dot_export(graph: CrystalGraph) -> str:
    """Deterministic DOT rendering; arcs labeled f<i>."""
    keys = [t.key() for t in graph.vertices]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    rank = {k: r for r, k in enumerate(order)}
    lines = ["digraph crystal {"]
    for k in order:
        lines.append(f'  v{rank[k]} [label={_dot_quote(keys[k])}];')
    for (u, i), w in sorted(graph.arcs.items(),
                            key=lambda kv: (rank[kv[0][0]], kv[0][1])):
        lines.append(f'  v{rank[u]} -> v{rank[w]} [label="f{i}"];')
    lines.append("}")
    return "\n".join(lines)


def _dot_quote(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'
