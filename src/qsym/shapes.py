"""Partitions, strict partitions, and (skew) shifted diagrams.

The shifted diagram of a strict partition puts row i's cells in columns
i .. lambda_i + i - 1.  Skew shapes are set differences of shifted diagrams.
Containment is tested componentwise on parts, which for strict partitions is
equivalent to containment of the shifted diagrams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .errors import NotContained, ParseError, parse_count


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive parts; trailing zeros are stripped."""

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        parts = tuple(self.parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        object.__setattr__(self, "parts", parts)
        for i, p in enumerate(parts):
            if p <= 0:
                raise ValueError(f"nonpositive part {p} in {parts}")
            if i + 1 < len(parts) and parts[i + 1] > p:
                raise ValueError(f"parts not weakly decreasing: {parts}")

    @property
    def length(self) -> int:
        return len(self.parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def part(self, i: int) -> int:
        """1-based part access with the trailing-zeros convention."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def contains(self, other: "Partition") -> bool:
        return all(self.part(i) >= other.part(i) for i in range(1, other.length + 1))

    def transpose(self) -> "Partition":
        if not self.parts:
            return Partition()
        cols = [0] * self.parts[0]
        for p in self.parts:
            for j in range(p):
                cols[j] += 1
        return Partition(tuple(cols))

    def subpartitions(self) -> Iterator["Partition"]:
        """All partitions contained in this one (componentwise)."""

        def rec(i: int, prev: int, acc: tuple[int, ...]):
            yield Partition(acc)
            if i >= self.length:
                return
            for p in range(1, min(prev, self.parts[i]) + 1):
                yield from rec(i + 1, p, acc + (p,))

        yield from rec(0, self.parts[0] if self.parts else 0, ())

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)

    @classmethod
    def from_string(cls, text: str) -> "Partition":
        text = text.strip()
        if not text:
            return cls()
        try:
            parts = tuple(parse_count(x, "a part") for x in text.split(","))
        except ParseError as exc:
            raise ParseError(f"bad partition {text!r}") from exc
        try:
            return cls(parts)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc


@dataclass(frozen=True)
class StrictPartition(Partition):
    """Strictly decreasing positive parts."""

    def __post_init__(self):
        super().__post_init__()
        for a, b in zip(self.parts, self.parts[1:]):
            if a <= b:
                raise ValueError(f"parts not strictly decreasing: {self.parts}")

    @classmethod
    def from_string(cls, text: str) -> "StrictPartition":
        p = Partition.from_string(text)
        try:
            return cls(p.parts)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc


EMPTY = StrictPartition()


def shifted_diagram(lam: StrictPartition) -> set[tuple[int, int]]:
    """Cells (row, col), 1-based, with row i spanning columns i..lam_i+i-1."""
    return {
        (i, j)
        for i in range(1, lam.length + 1)
        for j in range(i, lam.part(i) + i)
    }


@dataclass(frozen=True)
class SkewShiftedShape:
    """Cell set S(outer) - S(inner) of two nested strict partitions."""

    outer: StrictPartition
    inner: StrictPartition
    cells: frozenset[tuple[int, int]] = field(init=False)

    def __post_init__(self):
        if not self.outer.contains(self.inner):
            raise NotContained(f"{self.inner} not contained in {self.outer}")
        cells = frozenset(shifted_diagram(self.outer) - shifted_diagram(self.inner))
        object.__setattr__(self, "cells", cells)

    def row_cols(self, i: int) -> list[int]:
        """Columns of row i present in the skew shape, ascending."""
        return list(range(self.inner.part(i) + i, self.outer.part(i) + i))

    def rows(self) -> list[list[int]]:
        return [self.row_cols(i) for i in range(1, self.outer.length + 1)]

    def size(self) -> int:
        return len(self.cells)


def shifted_cells(lam: StrictPartition, mu: StrictPartition) -> SkewShiftedShape:
    """Skew shifted shape of lam over mu; raises NotContained when mu is not inside lam."""
    return SkewShiftedShape(lam, mu)


def enum_strict_between(mu: StrictPartition, lam: StrictPartition) -> Iterator[StrictPartition]:
    """All strict nu with mu inside nu inside lam, drawn lazily, so a caller
    that stops early never builds the rest; none when mu is not inside lam."""
    if not lam.contains(mu):
        return

    def rec(i: int, prev: int, acc: tuple[int, ...]) -> Iterator[StrictPartition]:
        # rows i.. of nu are empty from here on; valid only if mu has no more parts
        if mu.length <= len(acc):
            yield StrictPartition(acc)
        if i > lam.length:
            return
        hi = min(prev - 1, lam.part(i))
        lo = max(mu.part(i), 1)
        for p in range(hi, lo - 1, -1):
            yield from rec(i + 1, p, acc + (p,))

    yield from rec(1, lam.part(1) + 1 if lam.parts else 1, ())


def pad_for_pfaffian(
    lam: StrictPartition, mu: StrictPartition
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Pad part lists so the Pfaffian block matrix has even size.

    Skew case (mu nonempty): mu gains one trailing 0 when l+m is odd.
    Straight case (mu empty): lam gains one trailing 0 when l is odd.
    A zero part is a matrix-shape device only and never a partition part.
    """
    lp, mp = lam.parts, mu.parts
    if mp:
        if (len(lp) + len(mp)) % 2 == 1:
            mp = mp + (0,)
    else:
        if len(lp) % 2 == 1:
            lp = lp + (0,)
    return lp, mp
