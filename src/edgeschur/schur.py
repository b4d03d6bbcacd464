"""Schur, factorial Schur, edge Schur functions and their variations.

All families are returned as exact MultiPoly values.  The edge Schur
function depends on the declared diagonal window [m, M] and on the number
of trailing zeros of the shape; both are explicit parameters here, never
defaults hidden in the computation.  Series-valued variations (inverses of
products (1 - a_k y_j)) carry a mandatory total-degree truncation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Optional

from .poly import (MultiPoly, av, family, group_by_x, map_vars,
                   monomial_degree, series_inverse, x_exponent_vector, xv,
                   yv)
from .shapes import (Partition, SkewShape, deformed_diagonals,
                     is_horizontal_strip, horizontal_strips_between,
                     strip_chains)
from .tableaux import enumerate_elt, enumerate_ssyt


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


def _var(kind: str, i: int) -> MultiPoly:
    return MultiPoly.var(xv(i) if kind == "x" else yv(i))


def schur(shape: SkewShape, n: int, var_kind: str = "x") -> MultiPoly:
    """Skew Schur polynomial as the tableau generating series."""
    out = MultiPoly.zero()
    for chain in strip_chains(shape, n):
        term = MultiPoly.one()
        for v in range(1, n + 1):
            term = term * _var(var_kind, v) ** (chain[v].size() - chain[v - 1].size())
        out._accumulate(term)
    return out


def factorial_schur(shape: SkewShape, n: int, sign: int = 1,
                    index_shift: int = 0) -> MultiPoly:
    """Sum over SSYT of prod (x_v - sign*a_{v + content + index_shift})."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    out = MultiPoly.zero()
    for t in enumerate_ssyt(shape, n):
        term = MultiPoly.one()
        for (i, j), v in t.entries:
            idx = v + j - i + index_shift
            term = term * (MultiPoly.var(xv(v)) - MultiPoly.var(av(idx)) * sign)
        out._accumulate(term)
    return out


def row_factor(top: Partition, bottom: Partition, var: MultiPoly,
               window: tuple[int, int], sign: int = 1,
               index_shift: int = 0) -> MultiPoly:
    """One-row edge transfer weight: x^|strip| prod (1 + sign*a_d x)."""
    if not is_horizontal_strip(top, bottom):
        return MultiPoly.zero()
    out = var ** (top.size() - bottom.size())
    for d in sorted(deformed_diagonals(top, bottom, window)):
        out = out * (MultiPoly.one()
                     + MultiPoly.var(av(d + index_shift)) * var * sign)
    return out


def edge_schur(shape: SkewShape, p: EdgeSchurParams, var_kind: str = "x",
               sign: int = 1, index_shift: int = 0) -> MultiPoly:
    """Edge Schur function via the branching rule's closed row form."""
    lam = shape.outer.with_extent(p.extent)
    mu = shape.inner.with_extent(p.extent)
    out = MultiPoly.zero(p.trunc)
    for chain in strip_chains(SkewShape(lam, mu), p.num_vars):
        term = MultiPoly.one(p.trunc)
        for v in range(1, p.num_vars + 1):
            term = term * row_factor(chain[v], chain[v - 1],
                                     _var(var_kind, v), p.window, sign,
                                     index_shift)
        out._accumulate(term)
    return out


def edge_schur_brute(shape: SkewShape, p: EdgeSchurParams) -> MultiPoly:
    """Independent oracle: enumerate all ELTs and sum their weights."""
    out = MultiPoly.zero(p.trunc)
    for t in enumerate_elt(shape, p.num_vars, p.window, p.extent):
        out._accumulate(t.weight())
    return out


# -- variations (section on basis properties) ---------------------------


def _inverse_factor_product(ks, num_vars: int, T: int, sign: int) -> MultiPoly:
    """prod over k in ks, j <= num_vars of (1 + sign*a_k y_j)^(-1), mod T."""
    out = MultiPoly.one(T)
    for k in ks:
        for j in range(1, num_vars + 1):
            out = out * series_inverse(
                MultiPoly.one(T) + MultiPoly.var(av(k)) * MultiPoly.var(yv(j)) * sign, T)
    return out


def variation(kind: str, shape: SkewShape, p: EdgeSchurParams,
              T: Optional[int] = None) -> MultiPoly:
    """The finite variations of the edge Schur function, in y-variables.

    EBar strips the always-deformed columns right of lambda_1; DualFact
    kills all labels on nonnegative diagonals; ScriptE and HatScriptE
    divide the sign-flipped series by the Cauchy-kernel prefactor.  EBar
    and HatScriptE only make sense for straight shapes.
    """
    T = T if T is not None else p.trunc
    m, M = p.window
    lam = shape.outer
    skew = shape.inner.size() > 0
    if kind == "EBar":
        if skew:
            raise UnsupportedSkew("EBar is not defined via the quotient for skew shapes")
        # columns lambda_1..M are deformed in every row; divide them out
        # before truncating, since a truncated dividend is not a multiple.
        out = edge_schur(shape, replace(p, trunc=None), var_kind="y")
        for k in range(lam.first(), M + 1):
            for j in range(1, p.num_vars + 1):
                out = _exact_divide(out, MultiPoly.one()
                                    + MultiPoly.var(av(k)) * MultiPoly.var(yv(j)))
        return out.truncate(p.trunc)
    if kind == "DualFact":
        q = EdgeSchurParams(p.num_vars, (m, min(M, -1)), p.extent, p.trunc)
        return edge_schur(shape, q, var_kind="y")
    if kind in ("ScriptE", "HatScriptE"):
        if T is None:
            raise ValueError(f"{kind} needs a truncation")
        if kind == "HatScriptE" and skew:
            raise UnsupportedSkew("HatScriptE is only defined for straight shapes")
        e = edge_schur(shape, p, var_kind="y", sign=-1).truncate(T)
        lo = -p.extent if kind == "ScriptE" else 0
        return (e * _inverse_factor_product(range(lo, M + 1),
                                            p.num_vars, T, -1)).truncate(T)
    raise ValueError(f"unknown variation {kind!r}")


def _exact_divide(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """p / q when q is 1 + (monomial) and the division is exact."""
    inv_T = p.total_degree() if not p.is_zero() else 0
    quotient = (p * series_inverse(q, inv_T + q.total_degree() + 1)).truncate(None)
    if quotient * q != p:
        raise ValueError("division is not exact")
    return quotient


# -- dual Schur functions ------------------------------------------------


def _geom(c_index: int, yj: int, T: int) -> MultiPoly:
    """1/(1 - a_c y_j) as a series mod T."""
    return series_inverse(MultiPoly.one(T)
                          - MultiPoly.var(av(c_index)) * MultiPoly.var(yv(yj)), T)


def dual_schur(shape: SkewShape, m: int, T: int) -> MultiPoly:
    """Dual Schur polynomial via the branching rule, mod degree T."""
    ext = shape.extent
    lam = shape.outer.with_extent(ext)
    mu = shape.inner.with_extent(ext)

    @functools.lru_cache(maxsize=None)
    def single(outer: Partition, inner: Partition, yj: int) -> MultiPoly:
        if not is_horizontal_strip(outer, inner):
            return MultiPoly.zero(T)
        out = MultiPoly.one(T)
        for i in range(1, outer.extent + 1):
            for j in range(inner.part(i) + 1, outer.part(i) + 1):
                out = out * MultiPoly.var(yv(yj)) * _geom(j - i, yj, T)
        return out

    @functools.lru_cache(maxsize=None)
    def rec(outer: Partition, nvars: int) -> MultiPoly:
        if nvars == 0:
            return MultiPoly.one(T) if outer == mu else MultiPoly.zero(T)
        if nvars == 1:
            return single(outer, mu, 1)
        out = MultiPoly.zero(T)
        for nu in horizontal_strips_between(mu, outer):
            if not is_horizontal_strip(outer, nu):
                continue
            lower = rec(nu, nvars - 1)
            if lower.is_zero():
                continue
            # telescoped correction prod_k (1-a_{mu_k-k} y)/(1-a_{nu_k-k} y)
            corr = MultiPoly.one(T)
            for k in range(1, ext + 1):
                if mu.part(k) == nu.part(k):
                    continue
                corr = corr * (MultiPoly.one(T)
                               - MultiPoly.var(av(mu.part(k) - k)) * MultiPoly.var(yv(nvars)))
                corr = corr * _geom(nu.part(k) - k, nvars, T)
            out._accumulate(lower * corr, single(outer, nu, nvars))
        return out

    return rec(lam, m)


def dual_schur_alpha(shape: SkewShape, m: int, T: int) -> MultiPoly:
    """dual_schur with every a_d specialized to the single symbol alpha."""
    from .poly import ALPHA
    sym = dual_schur(shape, m, T)

    def fn(v):
        if family(v) == "a":
            return MultiPoly.var(ALPHA)
        return MultiPoly.var(v)

    return map_vars(sym, fn, T)


def schur_substituted(lam: Partition, m: int, T: int) -> MultiPoly:
    """s_lambda(y_m) under y_j -> y_j / (1 - alpha y_j), mod degree T."""
    from .poly import ALPHA
    s = schur(SkewShape.of(lam.parts, (), extent=lam.extent), m, var_kind="y")

    def fn(v):
        if family(v) == "y":
            geom = series_inverse(MultiPoly.one(T)
                                  - MultiPoly.var(ALPHA) * MultiPoly.var(v), T)
            return MultiPoly.var(v) * geom
        return MultiPoly.var(v)

    return map_vars(s, fn, T).truncate(T)


# -- Schur expansion by greedy peeling ----------------------------------


def schur_expand(f: MultiPoly, n: int, max_size: int):
    """Expand f = sum c_nu(a) s_nu(x_n) by peeling deg-lex leading terms.

    Returns (coeffs, remainder): coeffs maps Partition -> MultiPoly in the
    a-parameters, covering all nu with |nu| <= max_size; the remainder
    holds every term of x-degree > max_size.
    """
    coeffs: dict[Partition, MultiPoly] = {}
    work = MultiPoly(dict(f.terms))
    while True:
        groups = group_by_x(work)
        best = None
        for xmono in groups:
            deg = monomial_degree(xmono)
            if deg > max_size:
                continue
            vec = x_exponent_vector(xmono, n)
            key = (deg, tuple(-e for e in vec))
            if best is None or key < best[0]:
                best = (key, xmono, vec)
        if best is None:
            break
        _, xmono, vec = best
        if any(vec[i] < vec[i + 1] for i in range(n - 1)):
            raise NotSymmetric(
                f"leading x-monomial exponents {vec} are not a partition")
        nu = Partition(tuple(vec))
        c = groups[xmono]
        s = schur(SkewShape.of([p for p in nu.parts if p > 0],
                               (), extent=n), n)
        work = work - c * s
        if nu in coeffs:
            raise NotSymmetric(f"peeling revisited {nu}; f is not symmetric")
        coeffs[nu] = c
        if any(monomial_degree(xm) <= max_size
               for xm in group_by_x(work) if xm == xmono):
            raise NotSymmetric(f"subtracting s_{nu} did not clear its leading term")
    return coeffs, work
