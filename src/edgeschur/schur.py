"""Schur, factorial Schur, edge Schur and dual Schur functions, variations.

All families are exact MultiPoly values.  The four closed forms are one
branching rule, E_{lam/mu}(x_1..x_n) = sum_nu E_{nu/mu}(x_1..x_{n-1}) *
R(lam/nu, x_n), summed level by level, v = 1..n, by _levels.  One level
map serves every lam of one mu at once: factorial_schurs and edge_schurs
read it at many lam (cauchy_check reads its sums off them), and the
single-shape forms read it at one.  Each family gives only its row
weight R for a horizontal strip filled with the letter v:
x_v^|strip| (schur); prod over strip cells of (x_v - sign*a_{v+content+shift})
(factorial_schur); x_v^|strip| prod over deformed diagonals d of
(1 + sign*a_{d+shift} x_v) (edge_schur); prod over strip cells of
y_v/(1 - a_content y_v) times a telescoped mu-correction (dual_schur).
The first three are built on packed monomial codes with no intermediate
MultiPoly, by subset doubling: the cells of a horizontal strip have
distinct contents and its deformed diagonals are distinct, so every
factor carries a variable of its own, each subset of factors gives its
own monomial, and one pass per factor adds to every term so far the term
times that factor's second summand.
The engine enumerates no tableau or chain and runs no lattice, so the
brute ELT sum, the lattice partition functions and the closed forms stay
three independent routes.

The edge Schur function depends on the declared diagonal window [m, M] and
on the number of trailing zeros of the shape; both are explicit parameters.
The cut rule: no particle lam_k - k (or mu_k - k) reaches a diagonal
d >= lam_1, so every strip deforms those columns, and E^{lam/mu} on [m, M]
is E^{lam/mu} on [m, min(M, lam_1 - 1)] times prod_{d=lam_1..M} prod_i
(1 + a_d x_i).  The variations read that cut window.
Series-valued variations carry a mandatory total-degree truncation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable, Optional

from .poly import (ALPHA, MAX_DEGREE, MultiPoly, av, family, first_difference,
                   map_vars, monomial_degree, series_inverse, split_x_part,
                   swap_x_vars, var_code, x_exponent_vector, xv, yv)
from .shapes import Partition, SkewShape, deformed_diagonals
from .tableaux import _checked_chains


class NotSymmetric(ValueError):
    pass


class UnsupportedSkew(ValueError):
    pass


@dataclass(frozen=True)
class EdgeSchurParams:
    num_vars: int
    window: tuple[int, int]
    extent: int
    trunc: Optional[int] = None

    def __post_init__(self):
        m, M = self.window
        if self.num_vars < 1 or (self.trunc or 0) < 0 or M < m - 1:
            raise ValueError(f"invalid {self}: need num_vars >= 1, trunc >= 0"
                             f" and a window m:M with M >= m - 1")


# a row weight R(top/bottom) for the strip top/bottom filled with the letter v
Row = Callable[[Partition, Partition, int], MultiPoly]


def _levels(inner: Partition, targets: list[Partition], n: int, row: Row,
            trunc: Optional[int] = None) -> dict[Partition, MultiPoly]:
    """{lam: sum over chains inner = nu^0 <= ... <= nu^n = lam of horizontal
    strips of prod_v row(nu^v, nu^(v-1), v), mod total degree trunc} over
    the targets lam, all of inner's extent: one level map read many times.

    Level v maps each nu reached from inner by v strips to the sum of its
    chains.  With r = n - v strips left, the step from each `below` visits
    every nu with nu_k in [max(below_k, floor_k), min(top_k, below_{k-1})],
    below_0 = top_1, where top is the componentwise max of the targets and
    floor the componentwise min of their (lam_{1+r}, lam_{2+r}, ...),
    zero-padded; the last level visits only the targets.  A target lam is
    reachable from nu iff lam_{k+r} <= nu_k <= lam_k for every k, so for
    one target the box is exact.  For many it also holds shapes from which
    no target is reached; only at the last level are most of those, and
    there they cost one set test.  Testing each nu against every target's
    box cost more than the rows it saved, as each saved row is small.
    Zero sums are dropped, so a target no chain reaches reads zero.
    """
    if n < 0:
        raise ValueError(f"number of steps must be >= 0, got {n}")
    if not targets:
        return {}
    lams = [lam.parts for lam in targets]
    top = tuple(map(max, zip(*lams)))
    pad = (0,) * inner.extent
    level = {inner: MultiPoly.one(trunc)}
    for v in range(1, n + 1):
        floor = tuple(map(min, zip(*(lam[n - v:] + pad for lam in lams))))
        last = set(lams) if v == n else None
        nxt: dict[Partition, MultiPoly] = {}
        for below, acc in level.items():
            for parts in itertools.product(*(
                    range(max(lo, f), min(hi, up) + 1) for lo, f, hi, up in
                    zip(below.parts, floor, top, top[:1] + below.parts))):
                if last is None or parts in last:
                    nu = Partition(parts)
                    nxt.setdefault(nu, MultiPoly.zero(trunc))._accumulate(
                        acc, row(nu, below, v))
        level = {nu: total for nu, total in nxt.items() if total}
    return {lam: level.get(lam, MultiPoly.zero(trunc)) for lam in targets}


def _branch(shape: SkewShape, n: int, row: Row,
            trunc: Optional[int] = None) -> MultiPoly:
    """The branching rule for one skew shape: _levels read at lam."""
    return _read(shape.inner, [shape.outer], shape.extent, n, row,
                 trunc)[shape.outer]


def _read(inner: Partition, outers: list[Partition], extent: int, n: int,
          row: Row, trunc: Optional[int]) -> dict[Partition, MultiPoly]:
    """_levels over the shapes lam/inner, all fitted to extent, keyed by the
    given outer shapes."""
    fitted = [lam.with_extent(extent) for lam in outers]
    sums = _levels(inner.with_extent(extent), fitted, n, row, trunc)
    return {lam: sums[fit] for lam, fit in zip(outers, fitted)}


# -- row weights, by subset doubling (module docstring) -----------------


def _fits(degree: int) -> None:
    """Refuse a row of top degree past MAX_DEGREE before any code is
    formed, as k * code would carry into the next field."""
    if degree > MAX_DEGREE:
        raise OverflowError(f"product degree {degree} exceeds {MAX_DEGREE}")


def _letter(var_kind: str, v: int) -> int:
    return var_code(xv(v) if var_kind == "x" else yv(v))


def schur(shape: SkewShape, n: int, var_kind: str = "x") -> MultiPoly:
    """Skew Schur polynomial as the tableau generating series."""
    def row(top: Partition, bottom: Partition, v: int) -> MultiPoly:
        k = top.size() - bottom.size()
        _fits(k)
        return MultiPoly({k * _letter(var_kind, v): 1})

    return _branch(shape, n, row)


def _factorial_row(sign: int, index_shift: int) -> Row:
    """prod over strip cells (i, j) of (x_v - sign*a_{v+j-i+index_shift})."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")

    def row(top: Partition, bottom: Partition, v: int) -> MultiPoly:
        contents = [c for i, (lo, hi) in enumerate(
            zip(bottom.parts, top.parts), start=1)
            for c in range(lo + 1 - i, hi + 1 - i)]
        _fits(len(contents))
        x = var_code(xv(v))
        terms = {len(contents) * x: 1}
        for c in contents:
            step = var_code(av(v + c + index_shift)) - x
            terms.update([(m + step, -sign * t) for m, t in terms.items()])
        return MultiPoly(terms)
    return row


def factorial_schur(shape: SkewShape, n: int, sign: int = 1,
                    index_shift: int = 0) -> MultiPoly:
    """Sum over SSYT of prod (x_v - sign*a_{v + content + index_shift})."""
    return _branch(shape, n, _factorial_row(sign, index_shift))


def factorial_schurs(inner: Partition, outers: list[Partition], n: int,
                     sign: int = 1, index_shift: int = 0,
                     trunc: Optional[int] = None
                     ) -> dict[Partition, MultiPoly]:
    """{lam: factorial_schur(lam/inner) mod trunc} for every lam in outers
    (each containing inner or reading zero), off one level map; the shapes
    take the largest extent among them."""
    return _read(inner, outers, max(lam.extent for lam in [inner, *outers]),
                 n, _factorial_row(sign, index_shift), trunc)


def _edge_row(window: tuple[int, int], var_kind: str = "x", sign: int = 1,
              index_shift: int = 0, trunc: Optional[int] = None) -> Row:
    """x_v^|strip| prod over deformed diagonals d of
    (1 + sign*a_{d+index_shift} x_v), mod total degree trunc.

    The term of a subset S of the diagonals has degree k + 2|S|, so under
    a truncation only the subsets with k + 2|S| <= trunc are formed: at
    most 1 + D terms at trunc = k + 2 for D diagonals, where the full
    product has 2**D."""
    def row(top: Partition, bottom: Partition, v: int) -> MultiPoly:
        k = top.size() - bottom.size()
        diagonals = deformed_diagonals(top, bottom, window)
        _fits(k + 2 * len(diagonals))  # x^k prod_d a_d x_v
        x = _letter(var_kind, v)
        terms = {k * x: 1} if trunc is None or k <= trunc else {}
        # only a term of degree <= cap may take one more factor (degree + 2)
        cap = k + 2 * len(diagonals) if trunc is None else trunc - 2
        for d in diagonals:
            step = var_code(av(d + index_shift)) + x
            terms.update([(m + step, sign * t) for m, t in terms.items()
                          if monomial_degree(m) <= cap])
        return MultiPoly(terms)
    return row


def edge_schur(shape: SkewShape, p: EdgeSchurParams, var_kind: str = "x",
               sign: int = 1, index_shift: int = 0) -> MultiPoly:
    """Edge Schur function via the branching rule's closed row form."""
    return _branch(SkewShape(shape.outer.with_extent(p.extent),
                             shape.inner.with_extent(p.extent)),
                   p.num_vars,
                   _edge_row(p.window, var_kind, sign, index_shift, p.trunc),
                   p.trunc)


def edge_schurs(inner: Partition, outers: list[Partition], p: EdgeSchurParams,
                var_kind: str = "x", sign: int = 1, index_shift: int = 0
                ) -> dict[Partition, MultiPoly]:
    """{lam: edge_schur(lam/inner, p)} for every lam in outers (each
    containing inner or reading zero), off one level map at p.extent."""
    return _read(inner, outers, p.extent, p.num_vars,
                 _edge_row(p.window, var_kind, sign, index_shift, p.trunc),
                 p.trunc)


def edge_schur_brute(shape: SkewShape, p: EdgeSchurParams) -> MultiPoly:
    """Independent oracle: enumerate all ELTs and sum their weights.

    Each tableau is counted at its packed weight: its chain's entry code
    plus the code of the label subset it takes at each step.  A chain's
    weights are built by doubling over its steps, each step adding every
    one of its subset codes to every weight so far, so the list holds one
    weight per tableau of the chain."""
    counts: dict[int, int] = {}
    get = counts.get
    for _, entry_code, _, subset_codes in _checked_chains(
            shape, p.num_vars, p.window, p.extent):
        codes = [entry_code]
        for step in subset_codes:
            codes = [c + s for c in codes for s in step]
        for code in codes:
            counts[code] = get(code, 0) + 1
    out = MultiPoly.zero(p.trunc)
    out._accumulate(MultiPoly(counts))
    return out


# -- variations (section on basis properties) ---------------------------


def variation(kind: str, shape: SkewShape, p: EdgeSchurParams) -> MultiPoly:
    """The finite variations of the edge Schur function in y-variables,
    mod p.trunc, all read on one cut window [m, c] with c >= m - 1.

    EBar drops the columns d >= lam_1 that every strip deforms (the cut
    rule above): c = min(M, lam_1 - 1).  DualFact kills all labels on
    nonnegative diagonals: c = min(M, -1).  ScriptE and HatScriptE divide
    the sign-flipped E on [m, M] by prod_{k=lo..M} prod_j (1 - a_k y_j);
    truncation is a ring map, so the factors k > c cancel the cut columns
    and only k in [lo, c] remain.  EBar and HatScriptE are only defined
    for straight shapes.
    """
    m, M = p.window
    c = max(min(M, -1 if kind == "DualFact" else shape.outer.first() - 1),
            m - 1)
    q = replace(p, window=(m, c))
    if kind in ("EBar", "HatScriptE") and shape.inner.size() > 0:
        raise UnsupportedSkew(f"{kind} is only defined for straight shapes")
    if kind in ("EBar", "DualFact"):
        return edge_schur(shape, q, var_kind="y")
    if kind in ("ScriptE", "HatScriptE"):
        if p.trunc is None:
            raise ValueError(f"{kind} needs a truncation")
        e = edge_schur(shape, q, var_kind="y", sign=-1)
        for k in range(-p.extent if kind == "ScriptE" else 0, c + 1):
            for j in range(1, p.num_vars + 1):
                e = e * _geom(k, j, p.trunc)
        return e
    raise ValueError(f"unknown variation {kind!r}")


# -- dual Schur functions ------------------------------------------------


def _geom(c_index: int, yj: int, T: int) -> MultiPoly:
    """1/(1 - a_c y_j) as a series mod T."""
    return series_inverse(MultiPoly.one(T)
                          - MultiPoly.var(av(c_index)) * MultiPoly.var(yv(yj)), T)


def dual_schur(shape: SkewShape, m: int, T: int) -> MultiPoly:
    """Dual Schur polynomial via the branching rule, mod degree T."""
    mu = shape.inner.with_extent(shape.extent)

    def row(top: Partition, bottom: Partition, v: int) -> MultiPoly:
        y = MultiPoly.var(yv(v))
        out = MultiPoly.one(T)
        for i, (lo, hi) in enumerate(zip(bottom.parts, top.parts), start=1):
            for j in range(lo + 1, hi + 1):
                out = out * y * _geom(j - i, v, T)
        # telescoped correction prod_k (1-a_{mu_k-k} y)/(1-a_{bottom_k-k} y)
        for k, (a, b) in enumerate(zip(mu.parts, bottom.parts), start=1):
            if a != b:
                out = out * (MultiPoly.one(T) - MultiPoly.var(av(a - k)) * y)
                out = out * _geom(b - k, v, T)
        return out

    return _branch(shape, m, row, T)


def dual_schur_alpha(shape: SkewShape, m: int, T: int) -> MultiPoly:
    """dual_schur with every a_d specialized to the single symbol alpha."""
    return map_vars(dual_schur(shape, m, T),
                    lambda v: MultiPoly.var(ALPHA if family(v) == "a" else v), T)


def schur_substituted(lam: Partition, m: int, T: int) -> MultiPoly:
    """s_lambda(y_m) under y_j -> y_j / (1 - alpha y_j), mod degree T."""
    s = schur(SkewShape.of(lam.parts, (), extent=lam.extent), m, var_kind="y")

    def fn(v):
        if family(v) == "y":
            geom = series_inverse(MultiPoly.one(T)
                                  - MultiPoly.var(ALPHA) * MultiPoly.var(v), T)
            return MultiPoly.var(v) * geom
        return MultiPoly.var(v)

    return map_vars(s, fn, T).truncate(T)


# -- Schur expansion by the bialternant formula -------------------------


def schur_expand(f: MultiPoly, n: int, max_size: int):
    """Expand f = sum c_nu(a) s_nu(x_n) by Jacobi's bialternant formula.

    With delta = (n-1, ..., 1, 0), s_nu = a_{nu+delta} / a_delta, where
    a_gamma is the alternant sum_w sgn(w) x^{w(gamma)} and a_delta =
    prod_{i<j} (x_i - x_j) (Macdonald, Symmetric Functions and Hall
    Polynomials, I.3).  So f * a_delta = sum c_nu a_{nu+delta}, and as only
    the identity term of an alternant has strictly decreasing exponents,
    c_nu is the coefficient of x^{nu+delta} in f * a_delta.

    Returns (coeffs, remainder): coeffs maps Partition -> MultiPoly in the
    a-parameters, one nonzero entry per nu with |nu| <= max_size; the
    remainder holds every term of x-degree > max_size.  Raises NotSymmetric
    if the terms of x-degree <= max_size are not symmetric in x_1..x_n.
    """
    low, high = MultiPoly(), MultiPoly()
    for m, c in f.terms.items():
        part = low if monomial_degree(split_x_part(m)[0]) <= max_size else high
        part.terms[m] = c
    # an x past x_n is a usage error, whether or not low is symmetric
    top = max((v[1] for v in low.variables() if family(v) == "x"), default=0)
    if top > n:
        raise ValueError(f"x{top} outside declared range n={n}")
    for i in range(1, n):
        swapped = swap_x_vars(low, i, i + 1)
        if swapped != low:
            at, ours, theirs = first_difference(low, swapped)
            raise NotSymmetric(f"f is not symmetric under x{i} <-> x{i+1}: "
                               f"the lowest-degree difference is at {at}, "
                               f"where f has {ours} and its swap {theirs}")
    a_delta = MultiPoly.one()
    for i, j in itertools.combinations(range(1, n + 1), 2):
        a_delta = a_delta * (MultiPoly.var(xv(i)) - MultiPoly.var(xv(j)))
    coeffs: dict[Partition, MultiPoly] = {}
    for m, c in (low * a_delta).terms.items():
        gamma = x_exponent_vector(m, n)
        if all(gamma[i] > gamma[i + 1] for i in range(n - 1)):
            nu = Partition(tuple(g - (n - 1 - i) for i, g in enumerate(gamma)))
            coeffs.setdefault(nu, MultiPoly()).terms[split_x_part(m)[1]] = c
    return coeffs, high
