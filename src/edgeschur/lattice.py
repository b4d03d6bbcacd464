"""Five-vertex lattice models: weights, partition functions, integrability.

Vertex configurations are 4-tuples (west, south, east, north) of edge labels
in {0, 1}; particle conservation west + south = east + north holds for every
nonzero weight.  A grid is a stack of rows (bottom to top), each row using
one weight table with its own spectral parameter and fixed left/right
boundary labels; columns carry the diagonal-indexed a-parameters.

The partition function is computed by a column-sweep profile dynamic
program, one vertex at a time with states merged after every vertex; the
tests check it against a brute-force state enumeration of their own.
Each kept state's sum is built in place as its inflows arrive.  A lone
inflow of weight 1 is handed on as it is.  Most weights are 1 + rest,
as L's a1 = 1 + a_d x_i, so a sum starts as a plain copy of the inflow's
terms and only rest is multiplied.  The copy needs no truncation: every
inflow is MultiPoly.one(trunc) or was built by _accumulate under trunc,
and the weights were cut to trunc when their table was built.

One sweep serves a set of top profiles: from one bottom profile it returns
Z for each top of the set it reaches.  It carries polynomials only for
states that can still reach one of those tops.  Before it starts, a
backward pass over bits alone (no weights) runs from the tops down through
the rows and right to left through the columns, and marks each (h, profile)
state that some chain of table keys connects to a top; the forward sweep
drops every unmarked state.  The marks depend only on the rows and tops, so
commutation_check marks once per row order for all its bottom profiles.
This is the forward-backward trimming of a transfer-matrix DP, here over
the row transfer matrices of Brubaker-Bump-Friedberg, "Schur polynomials
and the Yang-Baxter equation" (CMP 2011).

edge_schur_lattice pads its grid to [min(m, -extent), max(M, lam_1 - 1)],
which holds the vacuum below every particle and the path of the particle of
lam_1, and a column outside the window [m, M] carries a = 0: the label rule
of the edge Schur function, under which L's a1 weight 1 + a x becomes 1.
On a window that already spans both ends the grid is the window itself.

A row's per-column tables are built once per process, in a cache of at
most 256 rows keyed by value (model, row parameter, window, labels, trunc)
over one of at most 256 tables keyed by (model, x, a, trunc).  Each table
carries its keys indexed once, by (e, n) for the backward marks and by
(h, s) for the forward moves.  Both are shared and read only.  A model
equals only itself, so a perturbed or a test's own model never picks up a
stock model's row or table.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional

from .poly import (UNIT_MONOMIAL, MultiPoly, av, canonical_string,
                   series_inverse, xv, yv)
from .shapes import (Partition, SkewShape, WindowError, deformed_diagonals,
                     maya_bits, partitions_in_box)
from .schur import (EdgeSchurParams, edge_schur, edge_schurs,
                    factorial_schur, factorial_schurs)

Config = tuple[int, int, int, int]  # (west, south, east, north)

_ONE = MultiPoly.one()
_ZERO = MultiPoly.zero()

# Conventional names of the six conserving configurations.
VERTEX_ROLES: dict[str, Config] = {
    "a1": (0, 0, 0, 0),
    "a2": (1, 1, 1, 1),
    "b1": (0, 1, 0, 1),
    "b2": (1, 0, 1, 0),
    "c1": (0, 1, 1, 0),
    "c2": (1, 0, 0, 1),
}


@dataclass(frozen=True, eq=False)
class VertexModel:
    """A named Boltzmann weight table.

    weights maps a role name to a function (row_param, col_param) -> poly;
    missing roles and non-conserving configurations weigh zero.  table()
    is the one evaluation of these functions.  A model equals only itself;
    the stock models are one instance each (model_Ell one per sign).
    """
    name: str
    weights: dict
    left: int   # default left boundary of a transfer row
    right: int  # default right boundary

    def table(self, x: MultiPoly, a: MultiPoly) -> dict[Config, MultiPoly]:
        """{(w, s, e, n): weight} at row parameter x and column parameter a.

        Only nonzero weights are keys, so every key conserves particles."""
        table = {}
        for role, fn in self.weights.items():
            wt = fn(x, a)
            if not wt.is_zero():
                table[VERTEX_ROLES[role]] = wt
        return table

    def perturbed(self, role: str, mode: str = "one") -> "VertexModel":
        """Replace one weight: mode 'one' sets it to 1, 'double' scales by 2."""
        if role not in self.weights:
            raise ValueError(f"{self.name} has no weight {role}")
        new = dict(self.weights)
        if mode == "one":
            new[role] = lambda x, a: _ONE
        elif mode == "double":
            old = self.weights[role]
            new[role] = lambda x, a: old(x, a) * 2
        else:
            raise ValueError(f"unknown perturbation mode {mode!r}")
        return VertexModel(f"{self.name}~{role}", new, self.left, self.right)


@functools.cache
def model_L() -> VertexModel:
    return VertexModel("L", {
        "a1": lambda x, a: _ONE + a * x,
        "b1": lambda x, a: _ONE,
        "b2": lambda x, a: x,
        "c1": lambda x, a: _ONE,
        "c2": lambda x, a: x,
    }, left=0, right=0)


@functools.cache
def model_Lstar() -> VertexModel:
    return VertexModel("Lstar", {
        "b2": lambda x, a: _ONE + a * x,
        "a2": lambda x, a: _ONE,
        "a1": lambda x, a: x,
        "c2": lambda x, a: _ONE,
        "c1": lambda x, a: x,
    }, left=1, right=1)


def model_Ell(sign: int = 1) -> VertexModel:
    """Factorial-Schur weight table; sign=-1 replaces a by -a."""
    return _model_Ell(sign)


@functools.cache
def _model_Ell(sign: int) -> VertexModel:
    return VertexModel("Ell" if sign == 1 else "Ell(-a)", {
        "a1": lambda x, a: _ONE,
        "a2": lambda x, a: _ONE,
        "b2": lambda x, a: x - a * sign,
        "c1": lambda x, a: _ONE,
        "c2": lambda x, a: _ONE,
    }, left=1, right=0)


# -- Yang-Baxter cases --------------------------------------------------

# The five conserving crossings ((in1, in2), (out1, out2)) of two lines that
# every case below weighs; each other crossing weighs zero.
_CROSSINGS = (((0, 0), (0, 0)), ((0, 1), (1, 0)), ((1, 0), (0, 1)),
              ((1, 0), (1, 0)), ((1, 1), (1, 1)))

_X1, _X2, _Y = (MultiPoly.var(v) for v in (xv(1), xv(2), yv(1)))

# kind -> (line 1's model and spectral parameter, line 2's, and the five
# crossing weights in _CROSSINGS order).
_YB_CASES = {
    # R carries rational entries x_j/x_i; we store the x_i-cleared table and
    # compare both Yang-Baxter sides after the same clearing.
    "RLL_L": (model_L(), _X1, model_L(), _X2,
              (_X1, _X2, _X1, _X1 - _X2, _X2)),
    # x_j-cleared crossing for two dual rows, spectral ratio x_i/x_j.  In the
    # dual pairing the two corner entries of the plain R-matrix trade places;
    # the middle block (1, x_i/x_j, 1 - x_i/x_j) is unchanged.
    "RLL_Lstar": (model_Lstar(), _X1, model_Lstar(), _X2,
                  (_X1, _X1, _X2, _X2 - _X1, _X2)),
    "rll_Ell": (model_Ell(), _X1, model_Ell(), _X2,
                (_ONE, _ONE, _ONE, _X1 - _X2, _ONE)),
    # frak-R crossing of a dual row (spectral y) over an Ell(-a) row (x).
    # Index order in the keys is (dual-line state, Ell-line state).
    "frakRLell": (model_Lstar(), _Y, model_Ell(-1), _X1,
                  (_Y, _Y, _ONE, _ONE - _X1 * _Y, _ONE)),
}
YB_KINDS = tuple(_YB_CASES)


# -- grids ----------------------------------------------------------------


@dataclass(frozen=True)
class GridRow:
    model: VertexModel
    param: MultiPoly
    left: Optional[int] = None
    right: Optional[int] = None

    def bounds(self) -> tuple[int, int]:
        left = self.model.left if self.left is None else self.left
        right = self.model.right if self.right is None else self.right
        return left, right


@dataclass(frozen=True)
class GridSpec:
    rows: tuple[GridRow, ...]            # bottom to top
    window: tuple[int, int]              # column index range [m, M]
    bottom: tuple[int, ...]              # bits, one per column
    top: tuple[int, ...]
    labels: Optional[tuple[int, int]] = None  # a_d on [lo, hi], else 0
    trunc: Optional[int] = None          # total-degree cutoff for all weights

    def columns(self) -> range:
        return range(self.window[0], self.window[1] + 1)

    def col_param(self, d: int) -> MultiPoly:
        """a_d, or 0 on a column outside labels (None labels every column)."""
        return _col_param(self.labels, d)


def _col_param(labels: Optional[tuple[int, int]], d: int) -> MultiPoly:
    if labels is None or labels[0] <= d <= labels[1]:
        return MultiPoly.var(av(d))
    return _ZERO


def _poly_key(p: MultiPoly) -> tuple:
    return tuple(p.terms.items()), p.trunc


class _Table(dict):
    """{(h, s, e, n): weight}; moves[h + 2s] lists (e - h, n - s, unit,
    rest) per key, e = 0 first, and back[e + 2n] lists (h - e, s - n).

    A move's weight is split once: unit is True when it is 1 + rest with
    no truncation of its own tighter than the sweep's, and rest is then
    None for the weight 1; otherwise unit is False and rest is the weight."""
    __slots__ = ("moves", "back")


def _grid_tables(rows: tuple[GridRow, ...], window: tuple[int, int],
                 labels, trunc) -> list[tuple[_Table, ...]]:
    """Each row's per-column tables cut to trunc: the module's row cache."""
    return [_row_tables(row.model, _poly_key(row.param), window, labels,
                        trunc) for row in rows]


@functools.lru_cache(maxsize=256)
def _row_tables(model: VertexModel, x: tuple, window: tuple[int, int],
                labels: Optional[tuple[int, int]],
                trunc: Optional[int]) -> tuple[_Table, ...]:
    return tuple(_cached_table(model, x, _poly_key(_col_param(labels, d)),
                               trunc)
                 for d in range(window[0], window[1] + 1))


@functools.lru_cache(maxsize=256)
def _cached_table(model: VertexModel, x: tuple, a: tuple,
                  trunc: Optional[int]) -> _Table:
    """model's table at (x, a) cut to trunc (zeros were left out before)."""
    table = _Table()
    for cfg, wt in model.table(MultiPoly(dict(x[0]), x[1]),
                               MultiPoly(dict(a[0]), a[1])).items():
        if trunc is not None and (wt.trunc is None or wt.trunc > trunc):
            wt = wt.truncate(trunc)  # a tighter cutoff of its own stays
        table[cfg] = wt
    cfgs = sorted(table, key=lambda cfg: cfg[2])
    table.moves = tuple(tuple((e - h, n - s, *_split(table[h, s, e, n], trunc))
                              for h, s, e, n in cfgs if h + 2 * s == i)
                        for i in range(4))
    table.back = tuple(tuple((h - e, s - n) for h, s, e, n in cfgs
                             if e + 2 * n == i) for i in range(4))
    return table


def _split(wt: MultiPoly, trunc: Optional[int]
           ) -> tuple[bool, Optional[MultiPoly]]:
    """(unit, rest) of a cut weight, as _Table.moves lists them."""
    if wt.terms.get(UNIT_MONOMIAL) != 1 or wt.trunc not in (None, trunc):
        return False, wt
    rest = {m: c for m, c in wt.terms.items() if m != UNIT_MONOMIAL}
    return True, MultiPoly(rest, wt.trunc) if rest else None


def _profile(bits: tuple[int, ...]) -> int:
    return sum(b << c for c, b in enumerate(bits))


def _vertex(states: dict[int, MultiPoly], moves: tuple, c: int,
            marked: set[int]) -> dict[int, MultiPoly]:
    """The marked states leaving the vertex at column c, each with the sum
    of weight * acc over its inflows, built in place (module docstring).
    A handed-on acc is copied when a second inflow arrives, so no acc is
    ever changed."""
    out: dict[int, MultiPoly] = {}
    lone = set()  # the states whose sum is a handed-on acc
    for st, acc in states.items():
        for de, dn, unit, rest in moves[st & 1 | st >> c & 2]:
            key = st + de + (dn << c + 1)
            if key not in marked:
                continue
            total = out.get(key)
            if total is None and rest is None:
                out[key] = acc
                lone.add(key)
                continue
            if total is None:
                total = out[key] = MultiPoly(dict(acc.terms) if unit else {},
                                             acc.trunc)
            else:
                if key in lone:
                    lone.remove(key)
                    total = out[key] = MultiPoly(dict(total.terms),
                                                 total.trunc)
                if unit:
                    total._accumulate(acc)
            if rest is not None:
                total._accumulate(rest, acc)
    return out


def _live_states(rows: tuple[GridRow, ...],
                 tables: list[tuple[_Table, ...]],
                 tops: set[int]) -> list[list[set[int]]]:
    """live[r][c]: the states leaving column c of row r from which a path
    still reaches one of the top profiles.

    A pass over bits only, top row first and right to left: the states
    leaving a row's last column are its right boundary label over a profile
    the next row (or the top) can start from, and a state (e, prof) leaving
    column c comes from (h, prof with bit c set to s) through each table key
    (h, s, e, n) whose n is bit c of prof.  A weight the truncation cut to
    zero stays a key, so no state that reaches the top goes unmarked."""
    live = []
    after = tops
    for row, row_tables in zip(reversed(rows), reversed(tables)):
        left, right = row.bounds()
        states = {prof << 1 | right for prof in after}
        marks = []
        for c in range(len(row_tables) - 1, -1, -1):
            marks.append(states)
            back = row_tables[c].back
            states = {st + dh + (ds << c + 1) for st in states
                      for dh, ds in back[st & 1 | st >> c & 2]}
        live.append(marks[::-1])
        after = {st >> 1 for st in states if st & 1 == left}
    return live[::-1]


def _sweep(rows: tuple[GridRow, ...], tables: list[tuple[_Table, ...]],
           bottom: int, tops: set[int], trunc: Optional[int],
           live: Optional[list[list[set[int]]]] = None
           ) -> dict[int, MultiPoly]:
    """{top: Z} for every profile in tops that the bottom profile reaches.

    A column-sweep profile DP, bottom row first, merged after every vertex
    by _vertex, which builds each state's sum in place (module docstring).
    Entering column c a state is (h, profile), the int profile << 1 | h:
    the horizontal label, and the emitted top bits below bit c over the
    bottom bits not yet consumed.  tables[r][c] is row r's table at column
    c, and the sweep keeps only the states marked in live (by default
    _live_states of rows, tables and tops)."""
    if live is None:
        live = _live_states(rows, tables, tops)
    frontier = {bottom: MultiPoly.one(trunc)}
    for row, row_tables, row_live in zip(rows, tables, live):
        left, right = row.bounds()
        states = {prof << 1 | left: acc for prof, acc in frontier.items()}
        for c, (table, marked) in enumerate(zip(row_tables, row_live)):
            states = _vertex(states, table.moves, c, marked)
        frontier = {st >> 1: z for st, z in states.items() if st & 1 == right}
    return {prof: z for prof, z in frontier.items() if prof in tops}


def partition_function(g: GridSpec) -> MultiPoly:
    """Z of the grid: one _sweep to the single top profile g.top."""
    ncols = g.window[1] - g.window[0] + 1
    if len(g.bottom) != ncols or len(g.top) != ncols:
        raise ValueError("boundary bit count does not match the window")
    tables = _grid_tables(g.rows, g.window, g.labels, g.trunc)
    top = _profile(g.top)
    return _sweep(g.rows, tables, _profile(g.bottom), {top},
                  g.trunc).get(top, _ZERO)


def transfer_row(model: VertexModel, bottom: Partition, top: Partition,
                 param: MultiPoly, window: tuple[int, int]) -> MultiPoly:
    g = GridSpec((GridRow(model, param),), window,
                 maya_bits(bottom, window), maya_bits(top, window))
    return partition_function(g)


def edge_schur_lattice(shape: SkewShape, p: EdgeSchurParams,
                       form: str = "T") -> MultiPoly:
    """Edge Schur function as a lattice partition function.

    form 'T' stacks L-rows from mu up to lambda; 'Tstar' runs the dual
    model downward from lambda to mu.  Both run on the padded grid of the
    module docstring, so every window with M >= m - 1 is exact."""
    lam = shape.outer.with_extent(p.extent)
    mu = shape.inner.with_extent(p.extent)
    n = p.num_vars
    m, M = p.window
    grid = (min(m, -p.extent), max(M, lam.first() - 1))
    if form == "T":
        rows = tuple(GridRow(model_L(), MultiPoly.var(xv(i)))
                     for i in range(1, n + 1))
        bottom, top = mu, lam
    elif form == "Tstar":
        rows = tuple(GridRow(model_Lstar(), MultiPoly.var(xv(i)))
                     for i in range(n, 0, -1))
        bottom, top = lam, mu
    else:
        raise ValueError(f"unknown form {form!r}")
    g = GridSpec(rows, grid, maya_bits(bottom, grid), maya_bits(top, grid),
                 labels=p.window, trunc=p.trunc)
    return partition_function(g).truncate(p.trunc)


def factorial_schur_lattice(shape: SkewShape, n: int, kappa: int) -> MultiPoly:
    """Factorial Schur polynomial from the five-vertex model.

    The grid runs over [1 - kappa, lam_1 + n] and column j carries a_j; the
    boundary bits are mu's Maya bits shifted by 1 and lam's by n + 1."""
    lam, mu = shape.outer, shape.inner
    if kappa < mu.length():
        raise WindowError(f"kappa={kappa} < length of mu={mu.length()}")
    if lam.length() > kappa + n:
        return MultiPoly.zero()  # no semistandard filling exists either
    window = (1 - kappa, lam.first() + n)
    rows = tuple(GridRow(model_Ell(), MultiPoly.var(xv(i)))
                 for i in range(1, n + 1))
    g = GridSpec(rows, window, maya_bits(mu, window, 1),
                 maya_bits(lam, window, n + 1))
    return partition_function(g)


# -- Yang-Baxter checks ----------------------------------------------------


def _three_line_sides(cross: dict, t1: dict[Config, MultiPoly],
                      t2: dict[Config, MultiPoly],
                      alpha: tuple[int, int, int], beta: tuple[int, int, int]
                      ) -> tuple[MultiPoly, MultiPoly]:
    """Partition functions of both sides of the three-line diagram.

    Line 1 (weight table t1) crosses the column first after the crossing
    (operator order V2_{jk} V1_{ik} CROSS_{ij}); boundaries alpha = (in1,
    in2, in_col), beta = (out1, out2, out_col).  Both sides sum over their
    internal edges; a non-conserving configuration is never a table key.
    """
    a1, a2, ak = alpha
    b1, b2, bk = beta
    lhs = rhs = _ZERO
    for mk in (0, 1):  # the column edge between the two vertices
        for (ins, (m1, m2)), cw in cross.items():
            w1 = t1.get((m1, ak, b1, mk))
            w2 = t2.get((m2, mk, b2, bk))
            if ins == (a1, a2) and w1 is not None and w2 is not None:
                lhs = lhs + cw * w1 * w2
        for m1, m2 in itertools.product((0, 1), repeat=2):
            w2 = t2.get((a2, ak, m2, mk))
            w1 = t1.get((a1, mk, m1, bk))
            cw = cross.get(((m1, m2), (b1, b2)))
            if w1 is not None and w2 is not None and cw is not None:
                rhs = rhs + w2 * w1 * cw
    return lhs, rhs


def yang_baxter_check(kind: str, perturb: Optional[str] = None,
                      perturb_mode: str = "one"):
    """Check one of the RLL-type relations over all 64 boundaries.

    Returns (ok, witness); witness is (alpha, beta, lhs, rhs) for the first
    failing boundary.
    """
    if kind not in _YB_CASES:
        raise ValueError(f"unknown Yang-Baxter kind {kind!r}")
    v1, p1, v2, p2, weights = _YB_CASES[kind]
    cross = dict(zip(_CROSSINGS, weights))
    if perturb is not None:
        # a one-sided perturbation: even degenerations to other integrable
        # tables (a1 -> 1) then fail to balance against the clean line.
        v1 = v1.perturbed(perturb, perturb_mode)
    a = MultiPoly.var(av(0))
    t1, t2 = v1.table(p1, a), v2.table(p2, a)
    ok = True
    witness = None
    for alpha in itertools.product((0, 1), repeat=3):
        for beta in itertools.product((0, 1), repeat=3):
            lhs, rhs = _three_line_sides(cross, t1, t2, alpha, beta)
            if lhs != rhs:
                ok = False
                if witness is None:
                    witness = (alpha, beta, canonical_string(lhs),
                               canonical_string(rhs))
    return ok, witness


# -- commutation of t(x) with Tstar(y) --------------------------------------


def commutation_check(box: tuple[int, int], window: tuple[int, int],
                      T: int = 6, flip_t_right: bool = False):
    """(1-xy) <lam| Tstar(y) t(x) |mu> = <lam| t(x) Tstar(y) |mu> on a box.

    The bra is the once-shifted Maya state of lam (the t-row pushes one sea
    particle into the window).  The identity is exact below total degree
    2*(M+1) - lam_1 - mu_1, the escape tail of the finite window, so the
    window must satisfy 2*M - 2*box_cols >= T - 1 for a truncation-T check.
    Flipping the t-row right boundary to 1 readmits the escape state and
    breaks the relation.  Both grids are cut at T inside the DP, which is
    exact: truncation by total degree is a ring map.  Each row order marks
    its live states once; each bottom mu gets one sweep per row order and
    every lam is read off its frontier (2 * #box sweeps, not 2 * #box^2).
    Returns (ok, witness), the witness at the first failing (lam, mu) in
    lam-major order.
    """
    x, y = MultiPoly.var(xv(1)), MultiPoly.var(yv(1))
    rows = (GridRow(model_Ell(-1), x, right=1 if flip_t_right else None),
            GridRow(model_Lstar(), y))
    tables = _grid_tables(rows, window, None, T)
    shapes = partitions_in_box(*box)
    # with the escape readmitted the particle count no longer grows
    tops = [_profile(maya_bits(lam, window, shift=0 if flip_t_right else 1))
            for lam in shapes]
    # the t-row below the Tstar-row, then above it
    orders = [(rows[::k], tables[::k]) for k in (1, -1)]
    lives = [_live_states(*order, set(tops)) for order in orders]
    # per mu: {top: Z} in each row order
    sweeps = [[_sweep(*order, _profile(maya_bits(mu, window)), set(tops), T,
                      live) for order, live in zip(orders, lives)]
              for mu in shapes]
    kernel = _ONE - x * y
    ok = True
    witness = None
    for lam, top in zip(shapes, tops):
        for mu, (z1, z2) in zip(shapes, sweeps):
            lhs = kernel * z1.get(top, _ZERO)
            rhs = z2.get(top, _ZERO)
            if lhs != rhs:
                ok = False
                if witness is None:
                    witness = (lam, mu, canonical_string(lhs),
                               canonical_string(rhs))
    return ok, witness


# -- the skew Cauchy identity ------------------------------------------------


def cauchy_check(mu: Partition, eta: Partition, n: int, m: int,
                 window: tuple[int, int], T: int) -> dict:
    """Verify the skew Cauchy identity three ways on a finite window.

    Grid A stacks the factorial rows below the dual edge rows (the crossed
    side of the proof), grid B the other way around.  The three checks:

      product:  prod (1 - x_i y_j) * Z(A) = Z(B)          (exact)
      sum_a:    Z(A) = sum_lam s_{lam/mu}(x|-a) E^{lam/eta}(y|a shifted by n)
      sum_b:    Z(B) = sum_kap s_{eta/kap}(x|-a) E^{mu/kap}(y|a)
      series:   the identity itself as a series modulo degree T+1

    Column p of the grid carries a_p; the factorial rows read it as the
    alphabet entry with index p - m0 + 1 and the upper edge rows as the
    diagonal-p parameter.  The two E-alphabets differ by a shift of n, a
    reindexing of one alphabet.

    s_{A/B} is homogeneous of degree |A/B| and E^{A/B} has no term below
    that degree, so the sums skip, before computing them, the terms that
    truncation at T cuts: lam with 2|lam| - |mu| - |eta| > T and kap with
    |mu| + |eta| - 2|kap| > T.  This size bound is tested before
    containment, as it is cheaper and cuts more.

    sum_a reads every surviving lam off two level maps of the branching
    rule: factorial_schurs from mu, then edge_schurs from eta over the lam
    whose factorial part is nonzero, each one map for all its lam, whose
    rows are built by subset doubling (schur).  sum_b computes each kap's
    pair of closed forms on its own.
    """
    m0, M0 = window
    low = -max(mu.extent, eta.extent)
    if m0 > low:
        raise WindowError("the window must cover the vacuum of mu and eta: "
                          f"m <= -max(extent of mu, eta) = {low}, got m = {m0}")
    x_rows = tuple(GridRow(model_Ell(-1), MultiPoly.var(xv(i)))
                   for i in range(1, n + 1))
    y_rows_desc = tuple(GridRow(model_Lstar(), MultiPoly.var(yv(j)))
                        for j in range(m, 0, -1))
    y_rows_asc = tuple(GridRow(model_Lstar(), MultiPoly.var(yv(j)))
                       for j in range(1, m + 1))
    bottom = maya_bits(mu, window)
    top = maya_bits(eta, window, shift=n)
    grid_a = partition_function(GridSpec(x_rows + y_rows_desc, window,
                                         bottom, top, trunc=T))
    grid_b = partition_function(GridSpec(y_rows_asc + x_rows, window,
                                         bottom, top, trunc=T))
    kernel = MultiPoly.one(T)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            kernel = kernel * (_ONE - MultiPoly.var(xv(i)) * MultiPoly.var(yv(j)))
    # everything below degree 2(M0+1) - lam1 - mu1 is exact; beyond that the
    # finite window loses escape states, so all comparisons run mod T
    report = {"product": (kernel * grid_a) == grid_b}

    ext_lam = n - m0
    sizes = mu.size() + eta.size()
    # no partition fits a box of negative width
    lams = [lam for lam in (partitions_in_box(ext_lam, M0 - n + 1)
                            if M0 >= n - 1 else ())
            if 2 * lam.size() - sizes <= T
            and lam.contains(mu) and lam.contains(eta)]
    s_parts = factorial_schurs(mu, lams, n, sign=-1, index_shift=-1, trunc=T)
    lams = [lam for lam in lams if s_parts[lam]]
    e_parts = edge_schurs(eta, lams,
                          EdgeSchurParams(m, (m0 - n, M0 - n), ext_lam, T),
                          var_kind="y", index_shift=n)
    sum_a = MultiPoly.zero(T)
    for lam in lams:
        sum_a._accumulate(s_parts[lam], e_parts[lam])
    report["sum_a"] = sum_a == grid_a

    ext_kap = -m0
    sum_b = MultiPoly.zero(T)
    for kap in partitions_in_box(ext_kap, max(mu.first(), eta.first())):
        if (sizes - 2 * kap.size() > T
                or not (mu.contains(kap) and eta.contains(kap))):
            continue
        ext_eta = max(ext_kap, eta.extent)
        s_part = factorial_schur(SkewShape(eta.with_extent(ext_eta),
                                           kap.with_extent(ext_eta)), n,
                                 sign=-1, index_shift=-1).truncate(T)
        if s_part.is_zero():
            continue
        e_part = edge_schur(SkewShape(mu.with_extent(ext_kap),
                                      kap.with_extent(ext_kap)),
                            EdgeSchurParams(m, (m0, M0), ext_kap, T),
                            var_kind="y")
        sum_b._accumulate(s_part, e_part)
    report["sum_b"] = sum_b == grid_b

    inv_kernel = series_inverse(kernel, T)
    report["series"] = sum_a == (inv_kernel * sum_b).truncate(T)
    report["ok"] = all(report.values())
    if not report["ok"]:
        report["diff_product"] = canonical_string(kernel * grid_a - grid_b)
        report["diff_sum_a"] = canonical_string(sum_a - grid_a)
        report["diff_sum_b"] = canonical_string(sum_b - grid_b)
    return report


# -- free fermion condition --------------------------------------------------


def free_fermion_check(model: VertexModel) -> bool:
    """a1*a2 + b1*b2 = c1*c2 with symbolic row and column parameters."""
    table = model.table(MultiPoly.var(xv(1)), MultiPoly.var(av(0)))

    def w(role: str) -> MultiPoly:
        return table.get(VERTEX_ROLES[role], _ZERO)

    return w("a1") * w("a2") + w("b1") * w("b2") == w("c1") * w("c2")


__all__ = [
    "VertexModel", "GridRow", "GridSpec", "VERTEX_ROLES",
    "model_L", "model_Lstar", "model_Ell",
    "partition_function", "maya_bits",
    "transfer_row", "deformed_diagonals", "edge_schur_lattice",
    "factorial_schur_lattice", "yang_baxter_check", "commutation_check",
    "cauchy_check", "free_fermion_check", "YB_KINDS",
]
