"""Non-intersecting lattice-path oracle for the intermediate Q-polynomials.

The directed graph lives on levels 1..K, K = 2k + m: levels 2t-1 and 2t
(t <= k) carry the letters t and t-bar, level 2k + j carries the plain letter
k + j.  A step right at a level contributes that level's unprimed letter, a
diagonal step up-right contributes the primed letter of the target level, and
vertical steps are silent.  Row i of the skew shape is read off path i:

  paths 1..len(mu)  start on the bottom boundary at x = mu_i,
  the remaining paths enter from the left boundary x = 0, either at a level
  (unprimed first letter) or between two levels (primed first letter).

Families are vertex-disjoint, and the first-letter indices of the
left-boundary paths strictly increase from the first to the last, mirroring
the diagonal rule of the tableau family.  Internally the y-coordinate is
doubled so between-level entry points stay integral.

The graph itself is implicit; bounds come from the target shape.

Two walkers follow these rules, on purpose.  enum_path_families yields
PathFamily objects: the bijection with the tableau family, validate_family
and the tests need the paths themselves.  lgv_weight_sum, the lgv route,
needs only the weights, so it walks the same rules with plain recursion over
a flat vertex table and one exponent vector, and builds no path objects; on
the 654-case acceptance sweep that takes about a quarter of the time.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from .errors import PreconditionError
from .ring import LaurentPoly, Monomial
from .shapes import StrictPartition
from .tableaux import Letter, PrimedTableau, VariableSpec, _letter_weight, letter

Vertex = tuple[int, int]  # (x, doubled y)


def _level_letter(spec: VariableSpec, level: int, primed: bool) -> Letter:
    if level <= 2 * spec.k:
        return letter((level + 1) // 2, barred=level % 2 == 0, primed=primed)
    return letter(level - spec.k, primed=primed)


@dataclass(frozen=True)
class LatticePath:
    vertices: tuple[Vertex, ...]
    letters: tuple[Letter, ...]


@dataclass(frozen=True)
class PathFamily:
    spec: VariableSpec
    paths: tuple[LatticePath, ...]

    def row_letters(self) -> tuple[tuple[Letter, ...], ...]:
        return tuple(p.letters for p in self.paths)

    def to_tableau(self, lam: StrictPartition, mu: StrictPartition) -> PrimedTableau:
        return PrimedTableau(lam, mu, self.row_letters())

    def dump(self) -> str:
        lines = []
        for p in self.paths:
            coords = " ".join(
                f"({x},{dy // 2})" if dy % 2 == 0 else f"({x},{dy}/2)"
                for x, dy in p.vertices
            )
            lines.append(coords + "   letters: " + " ".join(str(x) for x in p.letters))
        return "\n".join(lines)


def family_weight(family: PathFamily, spec: VariableSpec) -> Monomial:
    return _letter_weight([x for p in family.paths for x in p.letters], spec)


def _enum_paths_from(
    start: Vertex,
    first_letter: Letter | None,
    sink_x: int,
    top: int,
    unprimed: list[Letter],
    primed: list[Letter],
    used: set[Vertex],
) -> Iterator[LatticePath]:
    """Paths from `start` to (sink_x, top) avoiding `used` vertices.

    `first_letter` is the letter of the boundary-exit step for left-boundary
    starts (the start vertex is then off-lattice at x = 0); bottom starts
    pass None and begin on the lattice.  `unprimed` and `primed` hold the
    letters of levels 1..K, indexed by level - 1.
    """
    verts: list[Vertex] = [start]
    letters: list[Letter] = []
    if first_letter is not None:
        x, dy = start
        entry = (1, dy + 1) if dy % 2 == 1 else (1, dy)
        if entry in used:
            return
        verts.append(entry)
        letters.append(first_letter)

    def rec() -> Iterator[LatticePath]:
        x, dy = verts[-1]
        if x == sink_x:
            # only vertical moves remain; take them all at once
            tail = [(x, d) for d in range(dy + 2, top + 2, 2)]
            if all(v not in used for v in tail):
                yield LatticePath(tuple(verts + tail), tuple(letters))
            return
        # vertical
        if dy + 2 <= top:
            v = (x, dy + 2)
            if v not in used:
                verts.append(v)
                used.add(v)
                yield from rec()
                used.discard(v)
                verts.pop()
        # right at the current level
        if dy >= 2:
            v = (x + 1, dy)
            if v not in used:
                verts.append(v)
                used.add(v)
                letters.append(unprimed[dy // 2 - 1])
                yield from rec()
                letters.pop()
                used.discard(v)
                verts.pop()
        # diagonal into the next level
        if dy + 2 <= top:
            v = (x + 1, dy + 2)
            if v not in used:
                verts.append(v)
                used.add(v)
                letters.append(primed[dy // 2])
                yield from rec()
                letters.pop()
                used.discard(v)
                verts.pop()

    yield from rec()


def enum_path_families(
    lam: StrictPartition, mu: StrictPartition, spec: VariableSpec
) -> Iterator[PathFamily]:
    """All vertex-disjoint families for the shape of lam over mu.

    Empty stream when mu is not contained in lam (a sink would sit left of
    its source, forcing a crossing)."""
    if lam.length > spec.n:
        raise PreconditionError(f"{lam.length} rows on {spec.n} variables")
    k_levels = 2 * spec.k + spec.m
    top = 2 * k_levels
    l, m = lam.length, mu.length
    unprimed = [_level_letter(spec, level, False) for level in range(1, k_levels + 1)]
    primed = [_level_letter(spec, level, True) for level in range(1, k_levels + 1)]
    used: set[Vertex] = set()

    def rec(i: int, acc: list[LatticePath], prev_entry_index: int) -> Iterator[PathFamily]:
        if i > l:
            yield PathFamily(spec, tuple(acc))
            return
        sink_x = lam.part(i)
        if i <= m:
            start = (mu.part(i), 0)
            if start in used:
                return
            used.add(start)
            for path in _enum_paths_from(start, None, sink_x, top, unprimed, primed, used):
                path_verts = set(path.vertices) - {start}
                used.update(path_verts)
                acc.append(path)
                yield from rec(i + 1, acc, prev_entry_index)
                acc.pop()
                used.difference_update(path_verts)
            used.discard(start)
        else:
            for level in range(1, k_levels + 1):
                for first in (unprimed[level - 1], primed[level - 1]):
                    if first.index <= prev_entry_index:
                        continue
                    start = (0, 2 * level - 1) if first.primed else (0, 2 * level)
                    if start in used:
                        continue
                    used.add(start)
                    for path in _enum_paths_from(
                        start, first, sink_x, top, unprimed, primed, used
                    ):
                        path_verts = set(path.vertices) - {start}
                        used.update(path_verts)
                        acc.append(path)
                        yield from rec(i + 1, acc, first.index)
                        acc.pop()
                        used.difference_update(path_verts)
                    used.discard(start)

    if not lam.contains(mu):
        return
    yield from rec(1, [], 0)


def lgv_weight_sum(
    lam: StrictPartition,
    mu: StrictPartition,
    spec: VariableSpec,
) -> LaurentPoly:
    """Sum of family weights; the oracle side of the Pfaffian identity.

    Walks the families of `enum_path_families` under the same rules, but
    keeps only one exponent vector, updated per lettered step, and counts it
    once per complete family."""
    if lam.length > spec.n:
        raise PreconditionError(f"{lam.length} rows on {spec.n} variables")
    counts: Counter[Monomial] = Counter()
    if not lam.contains(mu):
        return LaurentPoly(spec.n, counts)
    k_levels = 2 * spec.k + spec.m
    top = 2 * k_levels
    l, m = lam.length, mu.length
    # by level (0 unused): the variable its letters weigh, the exponent step
    # and the letter index
    var, step, index = [0], [0], [0]
    for level in range(1, k_levels + 1):
        x = _level_letter(spec, level, False)
        var.append(x.index - 1)
        step.append(-1 if x.barred else 1)
        index.append(x.index)
    # vertex (x, dy) is used[x * height + dy]
    height = top + 1
    used = bytearray((lam.part(1) + 1) * height)
    exps = [0] * spec.n

    def walk(i: int, x: int, dy: int, sink_x: int, entry_index: int) -> None:
        """Continue path i from its (used) vertex (x, dy); then the next path."""
        v = x * height + dy
        if x == sink_x:
            tail = range(v + 2, (x + 1) * height, 2)
            if any(used[t] for t in tail):
                return
            for t in tail:
                used[t] = 1
            start(i + 1, entry_index)
            for t in tail:
                used[t] = 0
            return
        if dy + 2 <= top and not used[v + 2]:  # vertical
            used[v + 2] = 1
            walk(i, x, dy + 2, sink_x, entry_index)
            used[v + 2] = 0
        w = v + height
        if dy >= 2 and not used[w]:  # right at the current level
            level = dy // 2
            used[w] = 1
            exps[var[level]] += step[level]
            walk(i, x + 1, dy, sink_x, entry_index)
            exps[var[level]] -= step[level]
            used[w] = 0
        w += 2
        if dy + 2 <= top and not used[w]:  # diagonal into the next level
            level = dy // 2 + 1
            used[w] = 1
            exps[var[level]] += step[level]
            walk(i, x + 1, dy + 2, sink_x, entry_index)
            exps[var[level]] -= step[level]
            used[w] = 0

    def start(i: int, prev_entry_index: int) -> None:
        if i > l:
            counts[tuple(exps)] += 1
            return
        sink_x = lam.part(i)
        if i <= m:
            v = mu.part(i) * height
            if not used[v]:
                used[v] = 1
                walk(i, mu.part(i), 0, sink_x, prev_entry_index)
                used[v] = 0
            return
        for level in range(1, k_levels + 1):
            entry = height + 2 * level
            if index[level] <= prev_entry_index or used[entry]:
                continue
            for v in (2 * level, 2 * level - 1):  # unprimed, primed first letter
                if used[v]:
                    continue
                used[v] = used[entry] = 1
                exps[var[level]] += step[level]
                walk(i, 1, 2 * level, sink_x, index[level])
                exps[var[level]] -= step[level]
                used[v] = used[entry] = 0

    start(1, 0)
    return LaurentPoly(spec.n, counts)


def validate_family(
    family: PathFamily,
    lam: StrictPartition,
    mu: StrictPartition,
    spec: VariableSpec,
) -> bool:
    """Re-check a family against every rule, independently of the enumerator."""
    k_levels = 2 * spec.k + spec.m
    top = 2 * k_levels
    l, m = lam.length, mu.length
    if len(family.paths) != l:
        return False
    seen: set[Vertex] = set()
    prev_entry = 0
    for i in range(1, l + 1):
        path = family.paths[i - 1]
        verts, letters = path.vertices, path.letters
        if any(v in seen for v in verts):
            return False
        seen.update(verts)
        if verts[-1] != (lam.part(i), top):
            return False
        pos = 0
        li = 0
        if i <= m:
            if verts[0] != (mu.part(i), 0):
                return False
        else:
            x0, dy0 = verts[0]
            if x0 != 0 or not letters:
                return False
            first = letters[0]
            if first.index <= prev_entry:
                return False
            prev_entry = first.index
            level = (dy0 + 1) // 2 if dy0 % 2 == 1 else dy0 // 2
            if level < 1 or verts[1] != (1, 2 * level):
                return False
            if first != _level_letter(spec, level, primed=dy0 % 2 == 1):
                return False
            pos = 1
            li = 1
        for a, b in zip(verts[pos:], verts[pos + 1 :]):
            dx, ddy = b[0] - a[0], b[1] - a[1]
            if (dx, ddy) == (0, 2):
                continue
            if (dx, ddy) == (1, 0) and a[1] >= 2:
                expect = _level_letter(spec, a[1] // 2, primed=False)
            elif (dx, ddy) == (1, 2):
                expect = _level_letter(spec, a[1] // 2 + 1, primed=True)
            else:
                return False
            if li >= len(letters) or letters[li] != expect:
                return False
            li += 1
        if li != len(letters):
            return False
    return True
