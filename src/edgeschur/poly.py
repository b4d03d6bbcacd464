"""Exact sparse multivariate polynomials and truncated power series over Z.

Variables come in four families: x1, x2, ... and y1, y2, ... (indexed from 1),
a single symbol alpha, and a two-sided family a_d indexed by any integer d
(the deformation parameters attached to diagonals; negative indices are
routine).  A variable is a VarKey (family_rank, index); a polynomial maps
monomials to nonzero Python ints, so all arithmetic is exact at arbitrary
precision.

A monomial is one packed Python int.  A module-level registry gives each
VarKey a FIELD_BITS-wide bit field the first time the variable is used, in
order of first use (negative a_d included), and the lowest field holds the
total degree.  So a product of monomials is int addition and the total
degree is one mask.  Whatever reads or writes exponents (printing, parsing,
the x-part views, ELT weights) goes through the registry, so no result
depends on the order in which variables were first used.  The registry
only grows, and a variable's field never moves.  Exponents are
nonnegative, so bounding the total degree by MAX_DEGREE =
2**(FIELD_BITS - 1) - 1 bounds every exponent, and the sum of two stored
degrees never carries out of its field.  A product term above MAX_DEGREE
raises OverflowError, found by the one compare per term that truncation
makes anyway; a truncation above MAX_DEGREE does not lift it.

A polynomial may carry an optional total-degree truncation T.  Truncated
arithmetic drops every monomial of total degree > T, which is how the
completed ring (power series in the a-parameters) is modelled.  Operations
on two truncated operands keep the tighter bound.  Sums and products go
through one in-place accumulator, MultiPoly._accumulate; it mutates only
the polynomial it is called on, which must be one the calling loop built.

There is one term order, by total degree and then descending lex on the
exponent vector in VarKey order, and one place that applies it, _ordered.
It decodes all monomials by columns, each a strided slice of one buffer of
16-bit words, and sorts the rows (-degree, exponents, monomial,
coefficient) once, with no key.  sorted_terms reads its order from those
rows, and canonical_string formats them column by column, variables in
print order (a-parameters, alpha, x, y), with no Python loop per term.
"""

from __future__ import annotations

import re
import sys
from itertools import repeat
from operator import getitem, itemgetter, neg
from typing import Callable, Iterable, Optional

# Family ranks fix the global variable order x1 < x2 < ... < y1 < ... < alpha < a_d < ...
_RANK_X = 0
_RANK_Y = 1
_RANK_ALPHA = 2
_RANK_A = 3

_RANK_NAMES = {_RANK_X: "x", _RANK_Y: "y", _RANK_ALPHA: "alpha", _RANK_A: "a"}

VarKey = tuple[int, int]
Monomial = int

UNIT_MONOMIAL: Monomial = 0

FIELD_BITS = 16  # one 16-bit machine word ("H") per field
MAX_DEGREE = (1 << (FIELD_BITS - 1)) - 1
_FIELD_MASK = (1 << FIELD_BITS) - 1  # also the mask of the degree field

# the registry: _VARS[k] owns the field at bit (k + 1) * FIELD_BITS
_SHIFT: dict[VarKey, int] = {}
_VARS: list[VarKey] = []
_X_FIELDS: list[tuple[int, int]] = []  # (i, bit offset) of each registered x_i


class NotInvertible(ValueError):
    """Constant term is not a unit, so no series inverse exists."""


class ParseError(ValueError):
    pass


def xv(i: int) -> VarKey:
    if i < 1:
        raise ValueError(f"x-index must be >= 1, got {i}")
    return (_RANK_X, i)


def yv(j: int) -> VarKey:
    if j < 1:
        raise ValueError(f"y-index must be >= 1, got {j}")
    return (_RANK_Y, j)


def av(d: int) -> VarKey:
    return (_RANK_A, d)


ALPHA: VarKey = (_RANK_ALPHA, 0)


def family(v: VarKey) -> str:
    """The family of a variable: "x", "y", "alpha" or "a"."""
    return _RANK_NAMES[v[0]]


def var_name(v: VarKey) -> str:
    rank, idx = v
    if rank == _RANK_ALPHA:
        return "alpha"
    if rank == _RANK_A and idx < 0:
        return f"a({idx})"
    return f"{_RANK_NAMES[rank]}{idx}"


# -- the monomial encoding -----------------------------------------------


def _register(v: VarKey) -> int:
    """Give v the next free field; return its bit offset (never 0)."""
    _VARS.append(v)
    s = _SHIFT[v] = len(_VARS) * FIELD_BITS
    if v[0] == _RANK_X:
        _X_FIELDS.append((v[1], s))
    return s


def _encode(pairs: Iterable[tuple[VarKey, int]]) -> Monomial:
    """The monomial prod v^e over (v, e) pairs; a variable may repeat."""
    m = deg = 0
    for v, e in pairs:
        if e < 0:
            raise ValueError(f"negative exponent {e} of {var_name(v)}")
        m += e << (_SHIFT.get(v) or _register(v))
        deg += e
    if deg > MAX_DEGREE:
        raise OverflowError(f"monomial degree {deg} exceeds {MAX_DEGREE}")
    return m | deg


def _words(m: Monomial) -> memoryview:
    """m's fields as 16-bit words, the degree field first."""
    nbytes = 2 * -(-m.bit_length() // FIELD_BITS)
    return memoryview(m.to_bytes(nbytes, sys.byteorder)).cast("H")


def var_code(v: VarKey) -> Monomial:
    """The code of the monomial v, registering v on first use."""
    return (1 << (_SHIFT.get(v) or _register(v))) | 1


def _decode(m: Monomial) -> list[tuple[VarKey, int]]:
    """(v, e) pairs with e > 0, in registry order."""
    return [(_VARS[k], e) for k, e in enumerate(_words(m)[1:]) if e]


def _merge_trunc(t1: Optional[int], t2: Optional[int]) -> Optional[int]:
    if t1 is None:
        return t2
    if t2 is None:
        return t1
    return min(t1, t2)


def monomial_degree(m: Monomial) -> int:
    return m & _FIELD_MASK


class MultiPoly:
    """Immutable-by-convention sparse polynomial with optional truncation."""

    __slots__ = ("terms", "trunc")

    def __init__(self, terms: Optional[dict[Monomial, int]] = None,
                 trunc: Optional[int] = None):
        self.terms: dict[Monomial, int] = terms if terms is not None else {}
        self.trunc = trunc

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(trunc: Optional[int] = None) -> "MultiPoly":
        return MultiPoly({}, trunc)

    @staticmethod
    def const(c: int, trunc: Optional[int] = None) -> "MultiPoly":
        if c == 0:
            return MultiPoly({}, trunc)
        return MultiPoly({UNIT_MONOMIAL: c}, trunc)

    @staticmethod
    def one(trunc: Optional[int] = None) -> "MultiPoly":
        return MultiPoly.const(1, trunc)

    @staticmethod
    def var(v: VarKey, trunc: Optional[int] = None) -> "MultiPoly":
        return MultiPoly({var_code(v): 1}, trunc)

    @staticmethod
    def monomial(m: Monomial, coeff: int = 1,
                 trunc: Optional[int] = None) -> "MultiPoly":
        if coeff == 0:
            return MultiPoly({}, trunc)
        return MultiPoly({m: coeff}, trunc)

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> int:
        return self.terms.get(UNIT_MONOMIAL, 0)

    def coeff(self, m: Monomial) -> int:
        return self.terms.get(m, 0)

    def variables(self) -> set[VarKey]:
        seen = 0
        for m in self.terms:
            seen |= m
        return {v for v, _ in _decode(seen)}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        s = canonical_string(self)
        if self.trunc is not None:
            return f"MultiPoly({s!r}, trunc={self.trunc})"
        return f"MultiPoly({s!r})"

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic ----------------------------------------------------

    def _accumulate(self, p: "MultiPoly",
                    q: Optional["MultiPoly"] = None) -> None:
        """self += p, or self += p * q, in place, under the merged truncation.

        Only for a polynomial the calling loop built and has not handed
        out: never a shared constant, an argument or a stored result."""
        trunc = _merge_trunc(self.trunc, p.trunc)
        if q is not None:
            trunc = _merge_trunc(trunc, q.trunc)
        if trunc != self.trunc:
            self.terms, self.trunc = self.truncate(trunc).terms, trunc
        terms = self.terms
        # one compare per term both truncates and guards the degree field
        over = trunc is None or trunc > MAX_DEGREE
        cap = MAX_DEGREE if over else trunc
        mask = _FIELD_MASK
        get = terms.get
        if q is None:
            if not terms and trunc is None:
                self.terms = dict(p.terms)
                return
            for m, c in p.terms.items():
                if m & mask > cap:
                    continue  # stored terms never pass MAX_DEGREE
                nc = get(m, 0) + c
                if nc:
                    terms[m] = nc
                else:
                    del terms[m]
            return
        q_items = q.terms.items()
        for m1, c1 in p.terms.items():
            for m2, c2 in q_items:
                m = m1 + m2
                if m & mask > cap:
                    if over:
                        raise OverflowError(
                            f"product degree {m & mask} exceeds {MAX_DEGREE}")
                    continue
                nc = get(m, 0) + c1 * c2
                if nc:
                    terms[m] = nc
                else:
                    del terms[m]

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        out = self.truncate(_merge_trunc(self.trunc, other.trunc))
        out._accumulate(other)
        return out

    def __neg__(self) -> "MultiPoly":
        return MultiPoly({m: -c for m, c in self.terms.items()}, self.trunc)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            if other == 0:
                return MultiPoly({}, self.trunc)
            return MultiPoly({m: c * other for m, c in self.terms.items()},
                             self.trunc)
        out = MultiPoly({}, _merge_trunc(self.trunc, other.trunc))
        out._accumulate(self, other)
        return out

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "MultiPoly":
        if e < 0:
            raise ValueError("negative powers need series_inverse")
        result = MultiPoly.one(self.trunc)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def truncate(self, T: Optional[int]) -> "MultiPoly":
        if T is None:
            return MultiPoly(dict(self.terms), None)
        return MultiPoly({m: c for m, c in self.terms.items()
                          if m & _FIELD_MASK <= T}, T)


def series_inverse(p: MultiPoly, T: int) -> MultiPoly:
    """q with p*q = 1 modulo total degree T+1.  Needs constant term +-1."""
    c0 = p.constant_term()
    if c0 not in (1, -1):
        raise NotInvertible(f"constant term {c0} is not a unit in Z")
    # p = c0*(1 - r) with r of positive valuation, so 1/p = c0 * sum r^k.
    r = (MultiPoly.one(T) - (p.truncate(T) * c0)).truncate(T)
    acc = MultiPoly.one(T)
    pw = MultiPoly.one(T)
    for _ in range(T):
        pw = pw * r
        if pw.is_zero():
            break
        acc._accumulate(pw)
    return acc * c0


def map_vars(p: MultiPoly, fn: Callable[[VarKey], MultiPoly],
             T: Optional[int] = None) -> MultiPoly:
    """Apply the substitution v -> fn(v) to every variable simultaneously.

    Each image is truncated first.  When every image is a single term
    c_v * m_v, as for a renaming or a rescaling, the term c * prod v^e_v maps
    to the single term c * prod c_v^e_v times the monomial with code
    sum e_v * code(m_v), found with int arithmetic on the packed code.  A
    term over the truncation is dropped, and with no truncation at or below
    MAX_DEGREE a term past MAX_DEGREE raises OverflowError, as a product
    would.  Otherwise (some image zero or of several terms) each term is
    the product of the images' powers."""
    trunc = T if T is not None else p.trunc
    images = {v: fn(v).truncate(trunc) for v in p.variables()}
    if all(len(q.terms) == 1 for q in images.values()):
        return _rename(p, images, trunc)
    out = MultiPoly.zero(trunc)
    for m, c in p.terms.items():
        term = MultiPoly.const(c, trunc)
        for v, e in _decode(m):
            term = term * images[v] ** e
        out._accumulate(term)
    return out


def _rename(p: MultiPoly, images: dict[VarKey, MultiPoly],
            trunc: Optional[int]) -> MultiPoly:
    """map_vars when every image is one term c_v * m_v.

    A variable mapped to itself needs no work, so only the others move: each
    adds e_v * (code(m_v) - code(v)) to the code, e_v * (deg m_v - 1) to the
    degree and c_v^e_v to the coefficient.  The degree is summed apart from
    the code, and the code is kept only at a degree <= MAX_DEGREE, where no
    field of it can carry."""
    moves = []
    for v, q in images.items():
        [(code, cv)] = q.terms.items()
        shift = _SHIFT[v]
        unit = (1 << shift) | 1
        if code != unit or cv != 1:
            moves.append((shift, code - unit, (code & _FIELD_MASK) - 1, cv))
    over = trunc is None or trunc > MAX_DEGREE
    cap = MAX_DEGREE if over else trunc
    mask = _FIELD_MASK
    terms: dict[Monomial, int] = {}
    get = terms.get
    for m, c in p.terms.items():
        code, deg = m, m & mask
        for shift, step, rise, cv in moves:
            e = m >> shift & mask
            if e:
                code += e * step
                deg += e * rise
                if cv != 1:
                    c *= cv ** e
        if deg > cap:
            if over:
                raise OverflowError(
                    f"product degree {deg} exceeds {MAX_DEGREE}")
            continue
        nc = get(code, 0) + c
        if nc:
            terms[code] = nc
        else:
            del terms[code]
    return MultiPoly(terms, trunc)


# -- canonical printing and parsing ------------------------------------


def _ordered(p: MultiPoly) -> tuple[list[VarKey], list[tuple]]:
    """p's variables in VarKey order, and one row (-degree, e_1, ..., e_k,
    monomial, coefficient) per term, e_i the exponent of the i-th variable,
    in the one term order: by total degree, then descending lex on the
    exponent vector.

    The monomials are decoded by columns: all of them are written into one
    buffer of equal-width records of 16-bit words, and the degrees and each
    variable's exponents are strided slices of it.  Distinct terms differ in
    the e_i, so one descending sort of the rows, with no key, gives the
    term order and never compares two monomials."""
    variables = sorted(p.variables())
    cols = [_SHIFT[v] // FIELD_BITS for v in variables]
    width = max(cols, default=0) + 1
    terms = p.terms
    words = memoryview(b"".join(map(int.to_bytes, terms, repeat(2 * width),
                                    repeat(sys.byteorder)))).cast("H")
    rows = sorted(zip(map(neg, words[::width]),
                      *[words[k::width] for k in cols], terms, terms.values()),
                  reverse=True)
    return variables, rows


def sorted_terms(p: MultiPoly) -> list[tuple[Monomial, int]]:
    """Terms by total degree, then descending-lex on the exponent vector."""
    return list(map(itemgetter(-2, -1), _ordered(p)[1]))


def first_difference(p: MultiPoly, q: MultiPoly) -> tuple[str, int, int]:
    """The lowest-degree monomial where p and q differ, printed, and its
    coefficient in each."""
    m = sorted_terms(p - q)[0][0]
    return canonical_string(MultiPoly.monomial(m)), p.coeff(m), q.coeff(m)


# Print order inside one monomial: a-parameters first, then alpha, x, y.
_PRINT_RANK = {_RANK_A: 0, _RANK_ALPHA: 1, _RANK_X: 2, _RANK_Y: 3}

# each printed variable's pieces "", name*, name^2*, ..., indexed by the
# exponent; a variable's list is replaced by a longer one when a higher
# exponent is printed, never changed in place
_PIECES: dict[VarKey, list[str]] = {}

_CUT = slice(-1)  # a term's text without its trailing "*"


def _pieces(v: VarKey, top: int) -> list[str]:
    """v's pieces up to at least exponent top."""
    pieces = _PIECES.get(v)
    if pieces is None or len(pieces) <= top:
        name = var_name(v)
        pieces = _PIECES[v] = ["", f"{name}*", *(f"{name}^{e}*"
                                                 for e in range(2, top + 1))]
    return pieces


def canonical_string(p: MultiPoly) -> str:
    if p.is_zero():
        return "0"
    variables, rows = _ordered(p)
    # Each term is the one join of its sign-and-coefficient prefix and its
    # variables' pieces in print order, each piece ending in "*", which the
    # cut then drops.  No exponent passes the top degree, the last row's.
    top = -rows[-1][0]
    printed = sorted(((_PRINT_RANK[v[0]], v[1]), k, v)
                     for k, v in enumerate(variables, start=1))
    prefix = {c: (" + " if c > 0 else " - ") + (f"{abs(c)}*" if abs(c) != 1
                                                else "")
              for c in set(p.terms.values())}
    parts = list(map(getitem, map("".join, zip(
        map(prefix.__getitem__, map(itemgetter(-1), rows)),
        *[map(_pieces(v, top).__getitem__, map(itemgetter(k), rows))
          for _, k, v in printed])), repeat(_CUT)))
    first, c = parts[0], rows[0][-1]
    if not rows[0][0]:    # the unit monomial sorts first: its coefficient
        parts[0] = str(c)
    else:
        parts[0] = first[3:] if c > 0 else f"-{first[3:]}"
    return "".join(parts)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<var>a\(-?\d+\)|a-\d+|a\d+|alpha|x\d+|y\d+)"
    r"(?:\s*\^\s*(?P<exp>\d+))?|(?P<int>\d+)|(?P<op>[-+*]))")


def _var_from_token(tok: str) -> VarKey:
    if tok == "alpha":
        return ALPHA
    try:
        return {"a": av, "x": xv, "y": yv}[tok[0]](int(tok[1:].strip("()")))
    except ValueError as exc:  # an x or y index below 1
        raise ParseError(f"cannot read {tok!r}: {exc}") from None


def parse(s: str, trunc: Optional[int] = None) -> MultiPoly:
    """Read a polynomial in the output grammar of canonical_string.

    The input is a sum of terms.  A term is any number of signs (+ or -),
    then one or more factors, joined by * or set side by side; a factor is an
    integer or a variable (x1, y2, alpha, a3, a-3 or a(-3)) with an optional
    ^ and integer exponent.  Blanks may stand between tokens.  One loop reads
    one token per step and keeps the current term's sign, coefficient and
    factors; a + or - after a factor starts the next term."""
    out = MultiPoly.zero(trunc)
    sign, coeff, factors, last = 1, 1, [], "+"  # last: an operator or "factor"
    s, pos = s.rstrip(), 0
    while pos < len(s):
        tok = _TOKEN_RE.match(s, pos)
        if tok is None:
            raise ParseError(f"cannot read {s[pos:]!r}")
        pos = tok.end()
        var, exp, num, op = tok.group("var", "exp", "int", "op")
        if var:
            factors.append((_var_from_token(var), int(exp or 1)))
        elif num:
            coeff *= int(num)
        elif last == "*" or op == "*" and last != "factor":
            raise ParseError(f"unexpected {op!r} in {s!r}")
        elif last != "factor":  # a sign before the term's first factor
            sign = -sign if op == "-" else sign
        elif op != "*":  # a + or - after a factor starts the next term
            out._accumulate(MultiPoly.monomial(_encode(factors), sign * coeff,
                                               trunc))
            sign, coeff, factors = -1 if op == "-" else 1, 1, []
        last = op or "factor"
    if last != "factor":
        raise ParseError(f"no factor at the end of {s!r}")
    out._accumulate(MultiPoly.monomial(_encode(factors), sign * coeff, trunc))
    return out


# -- convenience views used by the symmetric-function layer ------------


def split_x_part(m: Monomial) -> tuple[Monomial, Monomial]:
    """Split a monomial into its x-variable part and everything else."""
    fields = [((m >> s) & _FIELD_MASK, s) for _, s in _X_FIELDS]
    xs = sum(e << s for e, s in fields) | sum(e for e, _ in fields)
    return xs, m - xs


def x_exponent_vector(m: Monomial, n: int) -> tuple[int, ...]:
    exps = [0] * n
    for idx, s in _X_FIELDS:
        e = (m >> s) & _FIELD_MASK
        if e:
            if idx > n:
                raise ValueError(f"x{idx} outside declared range n={n}")
            exps[idx - 1] = e
    return tuple(exps)


def swap_x_vars(p: MultiPoly, i: int, j: int) -> MultiPoly:
    """Transpose x_i and x_j."""
    def fn(v: VarKey) -> MultiPoly:
        if v == xv(i):
            return MultiPoly.var(xv(j))
        if v == xv(j):
            return MultiPoly.var(xv(i))
        return MultiPoly.var(v)
    return map_vars(p, fn)
