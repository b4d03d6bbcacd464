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
        return Partition.of(self.parts, extent)

    def contains(self, other: "Partition") -> bool:
        return all(self.part(k) >= other.part(k)
                   for k in range(1, max(self.extent, other.extent) + 1))

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


def maya_bit(lam: Partition, pos: int) -> int:
    """1 iff some particle of lam (zero-padded to infinity) sits at pos."""
    if pos < -lam.extent:
        return 1  # vacuum tail
    # lambda_k - k is strictly decreasing in k; scan the finite range.
    for k in range(1, lam.extent + 1):
        if lam.part(k) - k == pos:
            return 1
        if lam.part(k) - k < pos:
            return 0
    return 0


def maya_bits(lam: Partition, window: tuple[int, int],
              shift: int = 0) -> tuple[int, ...]:
    """Shifted Maya bits: bit at column p is maya_bit(lam, p - shift)."""
    return tuple(maya_bit(lam, p - shift) for p in
                 range(window[0], window[1] + 1))


def horizontal_strips_between(inner: Partition, outer: Partition) -> Iterator[Partition]:
    """All nu with inner <= nu <= outer and nu/inner a horizontal strip.

    nu_k runs over [inner_k, min(outer_k, inner_{k-1})]; any choice is a
    partition, since nu_{k+1} <= inner_k <= nu_k."""
    n = max(outer.extent, inner.extent)
    his = (outer.part(k) if k == 1 else min(outer.part(k), inner.part(k - 1))
           for k in range(1, n + 1))
    for combo in itertools.product(*(range(inner.part(k), hi + 1)
                                     for k, hi in enumerate(his, start=1))):
        yield Partition(combo)


def strip_chains(shape: SkewShape, n: int) -> list[tuple[Partition, ...]]:
    """All chains mu = nu^0 <= ... <= nu^n = lambda of horizontal strips."""
    if n < 0:
        raise ValueError(f"number of steps must be >= 0, got {n}")
    ext = shape.extent
    lam = shape.outer.with_extent(ext)
    mu = shape.inner.with_extent(ext)
    chains: list[tuple[Partition, ...]] = []

    def go(prefix: tuple[Partition, ...], steps_left: int):
        cur = prefix[-1]
        if steps_left == 0:
            if cur == lam:
                chains.append(prefix)
            return
        for nu in horizontal_strips_between(cur, lam):
            go(prefix + (nu,), steps_left - 1)

    go((mu,), n)
    return chains


def deformed_diagonals(top: Partition, bottom: Partition,
                       window: tuple[int, int]) -> set[int]:
    """Columns of [m, M] untouched by any particle moving bottom -> top.

    Particle k travels from bottom_k - k to top_k - k; both partitions are
    zero-padded as far as the window reaches, so the vacuum tail blocks its
    own columns.  Caller guarantees top/bottom is a horizontal strip.
    """
    m, M = window
    out = set(range(m, M + 1))
    kmax = max(top.extent, bottom.extent, -m if m < 0 else 0) + 1
    for k in range(1, kmax + 1):
        lo, hi = bottom.part(k) - k, top.part(k) - k
        for d in range(max(lo, m), min(hi, M) + 1):
            out.discard(d)
    return out


def partitions_in_box(rows: int, cols: int) -> list[Partition]:
    """All partitions fitting in a rows x cols box, with extent rows."""
    if rows < 0 or cols < 0:
        raise ValueError(f"box {rows}x{cols} has a negative side")
    out = []

    def go(prefix: list[int], k: int):
        if k == rows:
            out.append(Partition(tuple(prefix)))
            return
        hi = prefix[-1] if prefix else cols
        for v in range(hi, -1, -1):
            go(prefix + [v], k + 1)

    go([], 0)
    return out
