"""Type-A crystal operators on words and edge labeled tableaux.

A semistandard tableau is an edge labeled tableau on the empty window
(`tableaux.EMPTY_WINDOW`), so f_elt and e_elt are its classical crystal
operators too, and `ssyt_crystal_graph` is `crystal_graph` on that window.

Operators act through the diagonal reading word: the first-read letter is
the leftmost tensor factor.  For the signature of e_i/f_i, every letter i
contributes '-' and every i+1 contributes '+', adjacent '+-' pairs cancel,
f_i acts at the rightmost surviving '-', e_i at the leftmost surviving '+'.

On an edge labeled tableau the acting letter is located by the word.  An
edge label simply ticks up or down inside its set.  A box entry i whose
right neighbor is also i triggers the exception: both boxes become i+1,
the i+1 below the right box is deleted, and an i appears on the edge above
the left box, which lives on the same weight diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .poly import MultiPoly
from .shapes import Partition, SkewShape
from .schur import EdgeSchurParams
from .tableaux import (EMPTY_WINDOW, EdgeLabeledTableau, enumerate_elt,
                       reading_word)


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


def f_position(letters: list[int], i: int) -> Optional[int]:
    """Index of the letter f_i changes (rightmost surviving '-'), or None."""
    minus, _ = signature(letters, i)
    return minus[-1] if minus else None


def e_position(letters: list[int], i: int) -> Optional[int]:
    """Index of the letter e_i changes (leftmost surviving '+'), or None."""
    _, plus = signature(letters, i)
    return plus[0] if plus else None


def eps_phi(letters: list[int], i: int) -> tuple[int, int]:
    """(epsilon_i, phi_i) from the reduced signature."""
    minus, plus = signature(letters, i)
    return len(plus), len(minus)


def tensor_f(letters: list[int], i: int) -> Optional[list[int]]:
    pos = f_position(letters, i)
    if pos is None:
        return None
    out = list(letters)
    out[pos] = i + 1
    return out


def tensor_e(letters: list[int], i: int) -> Optional[list[int]]:
    pos = e_position(letters, i)
    if pos is None:
        return None
    out = list(letters)
    out[pos] = i
    return out


# -- operators on tableaux ---------------------------------------------


def _word_letters(t) -> list[int]:
    return [v for v, _ in reading_word(t)]


def f_elt(t: EdgeLabeledTableau, i: int) -> Optional[EdgeLabeledTableau]:
    word = reading_word(t)
    letters = [v for v, _ in word]
    pos = f_position(letters, i)
    if pos is None:
        return None
    _, loc = word[pos]
    em = t.entry_map()
    edges = {p: list(vs) for p, vs in t.edge_sets}
    if loc[0] == "edge":
        _, r, c, _ = loc
        vals = edges[(r, c)]
        vals[vals.index(i)] = i + 1
        vals.sort()
    else:
        _, r, c = loc
        if em.get((r, c + 1)) == i:
            # the exception, cascaded along the run of equal entries: every
            # box of the run flips to i+1, each interior right box loses the
            # i+1 below it, and an i lands on the edge above each box but
            # the last (same weight diagonals, so the a-monomial survives)
            cend = c
            while em.get((r, cend + 1)) == i:
                cend += 1
            for j in range(c, cend + 1):
                em[(r, j)] = i + 1
            for j in range(c + 1, cend + 1):
                below = edges.get((r + 1, j))
                if below is None or i + 1 not in below:
                    raise AssertionError(
                        "exception fired without an i+1 below the right box")
                below.remove(i + 1)
                if not below:
                    del edges[(r + 1, j)]
            for j in range(c, cend):
                edges.setdefault((r, j), []).append(i)
                edges[(r, j)].sort()
        else:
            em[(r, c)] = i + 1
    out = EdgeLabeledTableau.of(t.shape, t.extent, t.window, em,
                                {p: tuple(vs) for p, vs in edges.items()})
    expected = tensor_f(letters, i)
    if _word_letters(out) != expected:
        raise AssertionError("reading word does not commute with f")
    return out


def e_elt(t: EdgeLabeledTableau, i: int) -> Optional[EdgeLabeledTableau]:
    word = reading_word(t)
    letters = [v for v, _ in word]
    pos = e_position(letters, i)
    if pos is None:
        return None
    _, loc = word[pos]
    em = t.entry_map()
    edges = {p: list(vs) for p, vs in t.edge_sets}
    if loc[0] == "edge":
        _, r, c, _ = loc
        vals = edges[(r, c)]
        vals[vals.index(i + 1)] = i
        vals.sort()
    else:
        _, r, c = loc
        if i in edges.get((r, c), []):
            # inverse of the cascaded exception: the run extends right while
            # the edge above carries the marker i
            cend = c
            while i in edges.get((r, cend), []):
                if em.get((r, cend + 1)) != i + 1:
                    raise AssertionError(
                        "inverse exception run is not closed by an i+1 entry")
                cend += 1
            for j in range(c, cend + 1):
                em[(r, j)] = i
            for j in range(c, cend):
                above = edges[(r, j)]
                above.remove(i)
                if not above:
                    del edges[(r, j)]
            for j in range(c + 1, cend + 1):
                edges.setdefault((r + 1, j), []).append(i + 1)
                edges[(r + 1, j)].sort()
        else:
            em[(r, c)] = i
    out = EdgeLabeledTableau.of(t.shape, t.extent, t.window, em,
                                {p: tuple(vs) for p, vs in edges.items()})
    expected = tensor_e(letters, i)
    if _word_letters(out) != expected:
        raise AssertionError("reading word does not commute with e")
    return out


def is_highest_weight(t: EdgeLabeledTableau, n: int) -> bool:
    letters = _word_letters(t)
    return all(eps_phi(letters, i)[0] == 0 for i in range(1, n))


def highest_weights(lam: Partition, p: EdgeSchurParams, n: int):
    """All highest weight tableaux: (tableau, crystal weight, a-monomial)."""
    shape = SkewShape.of(lam.parts, (), extent=p.extent)
    out = []
    for t in enumerate_elt(shape, n, p.window, p.extent):
        if is_highest_weight(t, n):
            out.append((t, t.content_vector(n), t.a_monomial()))
    return out


def schur_expansion_crystal(lam: Partition, p: EdgeSchurParams, n: int,
                            max_size: int) -> dict[Partition, MultiPoly]:
    """Coefficients c_nu(a): sum of a-monomials of highest weights."""
    coeffs: dict[Partition, MultiPoly] = {}
    for _, wt, amono in highest_weights(lam, p, n):
        if any(wt[k] < wt[k + 1] for k in range(n - 1)):
            raise AssertionError(f"highest weight {wt} is not dominant")
        if sum(wt) > max_size:
            continue
        nu = Partition(tuple(wt))
        coeffs[nu] = coeffs.get(nu, MultiPoly.zero()) + amono
    return coeffs


@dataclass
class CrystalGraph:
    vertices: list            # edge labeled tableaux
    index: dict[str, int]     # key -> vertex id
    arcs: dict[tuple[int, int], int]   # (vertex, i) -> vertex

    @cached_property
    def back(self) -> dict[tuple[int, int], int]:
        """The arcs reversed: (vertex, i) -> the vertex f_i sends there."""
        return {(w, i): u for (u, i), w in self.arcs.items()}


def crystal_graph(lam: Partition, p: EdgeSchurParams, n: int) -> CrystalGraph:
    shape = SkewShape.of(lam.parts, (), extent=p.extent)
    vertices = list(enumerate_elt(shape, n, p.window, p.extent))
    index = {t.key(): k for k, t in enumerate(vertices)}
    arcs: dict[tuple[int, int], int] = {}
    for k, t in enumerate(vertices):
        for i in range(1, n):
            ft = f_elt(t, i)
            if ft is not None:
                arcs[(k, i)] = index[ft.key()]
    return CrystalGraph(vertices, index, arcs)


def ssyt_crystal_graph(nu: Partition, n: int) -> CrystalGraph:
    """The classical crystal B(nu) on semistandard tableaux with entries in
    [n]: the crystal graph of nu on the empty window."""
    return crystal_graph(nu, EdgeSchurParams(n, EMPTY_WINDOW, n), n)


def graphs_isomorphic(g1: CrystalGraph, v1: int, g2: CrystalGraph, v2: int,
                      n: int) -> bool:
    """Rooted edge-labeled isomorphism by deterministic parallel traversal."""
    pairing = {v1: v2}
    stack = [(v1, v2)]
    while stack:
        a, b = stack.pop()
        for i in range(1, n):
            for  nxt_a, nxt_b in ((g1.arcs.get((a, i)), g2.arcs.get((b, i))),
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


def component_decomposition(graph: CrystalGraph, n: int):
    """Split into components; returns list of (component, hw vertex)."""
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


def dot_export(graph: CrystalGraph, n: int) -> str:
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
