"""Partitions with explicit trailing-zero extent, skew shapes, Maya bits.

Trailing zeros are significant here: two partitions are equal only when both
the positive parts and the declared extent agree, because the generating
functions downstream genuinely depend on the number of declared rows.

Maya encoding: the particle of part k sits at integer position lambda_k - k
(parts padded by zeros beyond the extent give the vacuum tail at -k).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional


class WindowError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class Partition:
    parts: tuple[int, ...]

    def __post_init__(self):
        for i, p in enumerate(self.parts):
            if p < 0:
                raise ValueError(f"negative part {p}")
            if i and self.parts[i - 1] < p:
                raise ValueError(f"parts not weakly decreasing: {self.parts}")

    @staticmethod
    def of(parts, extent: Optional[int] = None) -> "Partition":
        parts = tuple(int(p) for p in parts)
        if extent is not None:
            npos = len([p for p in parts if p > 0])
            if extent < npos:
                raise ValueError(f"extent {extent} < number of parts {npos}")
            parts = tuple(p for p in parts if p > 0) + (0,) * (extent - npos)
        return Partition(parts)

    @property
    def extent(self) -> int:
        return len(self.parts)

    def part(self, k: int) -> int:
        """k-th part, 1-indexed, zero beyond the extent."""
        return self.parts[k - 1] if 1 <= k <= len(self.parts) else 0

    def length(self) -> int:
        """Number of positive parts."""
        return len([p for p in self.parts if p > 0])

    def size(self) -> int:
        return sum(self.parts)

    def first(self) -> int:
        return self.parts[0] if self.parts else 0

    def with_extent(self, extent: int) -> "Partition":
        if extent == len(self.parts):
            return self
        return Partition.of(self.parts, extent)

    def contains(self, other: "Partition") -> bool:
        return all(a >= b for a, b in itertools.zip_longest(
            self.parts, other.parts, fillvalue=0))

    def cells(self) -> Iterator[tuple[int, int]]:
        for i, p in enumerate(self.parts, start=1):
            for j in range(1, p + 1):
                yield (i, j)

    def to_json(self) -> dict:
        return {"parts": [p for p in self.parts if p > 0],
                "extent": self.extent}

    @staticmethod
    def from_json(d: dict) -> "Partition":
        return Partition.of(d["parts"], d.get("extent"))

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.parts)) + ")"


@dataclass(frozen=True)
class SkewShape:
    outer: Partition
    inner: Partition

    def __post_init__(self):
        if not self.outer.contains(self.inner):
            raise ValueError(f"inner {self.inner} not contained in outer {self.outer}")

    @staticmethod
    def of(outer, inner=(), extent: Optional[int] = None) -> "SkewShape":
        lam = outer if isinstance(outer, Partition) else Partition.of(outer, extent)
        mu = inner if isinstance(inner, Partition) else Partition.of(inner, lam.extent)
        return SkewShape(lam, mu.with_extent(max(lam.extent, mu.extent)))

    @property
    def extent(self) -> int:
        return max(self.outer.extent, self.inner.extent)

    def to_json(self) -> dict:
        return {"outer": self.outer.to_json(), "inner": self.inner.to_json()}

    @staticmethod
    def from_json(d: dict) -> "SkewShape":
        return SkewShape(Partition.from_json(d["outer"]),
                         Partition.from_json(d["inner"]))

    def __str__(self) -> str:
        return f"{self.outer}/{self.inner}"


def maya_bits(lam: Partition, window: tuple[int, int],
              shift: int = 0) -> tuple[int, ...]:
    """Shifted Maya bits: bit at column p is 1 iff a particle of lam sits
    at p - shift.

    The particles are lam_k - k for k <= extent; zero-padded to infinity,
    lam also has one at every position below -extent (the vacuum tail)."""
    particles = {p - k for k, p in enumerate(lam.parts, start=1)}
    return tuple(int(p - shift in particles or p - shift < -lam.extent)
                 for p in range(window[0], window[1] + 1))


def maya_bit(lam: Partition, pos: int) -> int:
    """1 iff some particle of lam (zero-padded to infinity) sits at pos."""
    return maya_bits(lam, (pos, pos))[0]


def horizontal_strips_between(inner: Partition, outer: Partition) -> Iterator[Partition]:
    """All nu with inner <= nu <= outer and nu/inner a horizontal strip.

    nu_k runs over [inner_k, min(outer_k, inner_{k-1})]; any choice is a
    partition, since nu_{k+1} <= inner_k <= nu_k."""
    rows = list(itertools.zip_longest(inner.parts, outer.parts, fillvalue=0))
    caps = [outer.first()] + [lo for lo, _ in rows]  # row k: inner_{k-1}
    for combo in itertools.product(*(range(lo, min(hi, cap) + 1)
                                     for (lo, hi), cap in zip(rows, caps))):
        yield Partition(combo)


def strip_chains(shape: SkewShape, n: int) -> list[tuple[Partition, ...]]:
    """All chains mu = nu^0 <= ... <= nu^n = lambda of horizontal strips.

    Every nu^v has the shape's extent.  Chains come in lexicographic order
    of (nu^1, ..., nu^n), each nu^v in horizontal_strips_between order:
    every chain is extended by one strip per step, and those that end at
    lambda are kept."""
    if n < 0:
        raise ValueError(f"number of steps must be >= 0, got {n}")
    lam = shape.outer.with_extent(shape.extent)
    chains = [(shape.inner.with_extent(shape.extent),)]
    for _ in range(n):
        chains = [c + (nu,) for c in chains
                  for nu in horizontal_strips_between(c[-1], lam)]
    return [c for c in chains if c[-1] == lam]


def deformed_diagonals(top: Partition, bottom: Partition,
                       window: tuple[int, int]) -> set[int]:
    """Columns of [m, M] untouched by any particle moving bottom -> top.

    Particle k travels from bottom_k - k to top_k - k.  Zero-padded to
    infinity, both partitions hold the vacuum tail: a particle at every
    column below -extent, which no strip moves, so those columns are never
    deformed.  Caller guarantees top/bottom is a horizontal strip.
    """
    m, M = window
    out = set(range(max(m, -max(top.extent, bottom.extent)), M + 1))
    for k, (lo, hi) in enumerate(itertools.zip_longest(
            bottom.parts, top.parts, fillvalue=0), start=1):
        out.difference_update(range(lo - k, hi - k + 1))
    return out


def partitions_in_box(rows: int, cols: int) -> list[Partition]:
    """All partitions fitting in a rows x cols box, with extent rows, in
    lexicographically decreasing order."""
    if rows < 0 or cols < 0:
        raise ValueError(f"box {rows}x{cols} has a negative side")
    return [Partition(p) for p in itertools.combinations_with_replacement(
        range(cols, -1, -1), rows)]
