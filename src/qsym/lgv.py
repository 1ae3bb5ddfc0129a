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

Two evaluators follow these rules, on purpose.  enum_path_families yields
PathFamily objects: the bijection with the tableau family, validate_family
and the tests need the paths themselves, so it costs at least one step per
family.  lgv_weight_sum, the lgv route, needs only the weight sum.  The rules
are local in x: a path enters column x at one vertex, rises, and leaves right
or diagonally, and left-boundary paths enter only at x = 1, where the index
rule is decided once.  So it runs a transfer matrix column by column (Stanley,
EC1 section 4.7), over states that are the ascending tuples of the levels at
which the active paths arrive; the graph is planar, so path 1 is always the
lowest active path.  Its cost is polynomial in the number of states, at most
C(K + 1, rows) per column, rather than in the number of families.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .errors import PreconditionError
from .ring import LaurentPoly, Monomial, sum_of_products
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
    return _letter_weight(family.row_letters(), spec)


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

    A transfer matrix over the columns x = 1..lam_1.  A state is the
    ascending tuple of levels (vertex (x, 2b) is at level b, the bottom
    boundary is level 0) at which the active paths arrive in column x; its
    value sums the weights of the partial families that reach it.  A step
    right at level b and a diagonal step up from level b - 1 both arrive at
    level b and weigh the letters of level b, so a transition multiplies by
    the one monomial of its arrival levels, and a left-boundary entry weighs
    twice its level's letter.  Every state value is a LaurentPoly, so
    QSYM_MAX_TERMS stops the walk at the first value that outgrows it."""
    if lam.length > spec.n:
        raise PreconditionError(f"{lam.length} rows on {spec.n} variables")
    n = spec.n
    if not lam.contains(mu):
        return LaurentPoly.zero(n)
    k_levels = 2 * spec.k + spec.m
    letters = [None] + [_level_letter(spec, level, False) for level in range(1, k_levels + 1)]

    def weight(state: tuple[int, ...]) -> LaurentPoly:
        return LaurentPoly.monomial(n, _letter_weight([[letters[b] for b in state if b]], spec))

    # left-boundary paths enter column 1 on levels of strictly increasing
    # letter index, each by a primed or an unprimed first letter
    lefts = lam.length - mu.length
    states = {
        levels: weight(levels).scale(2**lefts)
        for levels in combinations(range(1, k_levels + 1), lefts)
        if all(letters[a].index < letters[b].index for a, b in zip(levels, levels[1:]))
    }
    joins, sinks = set(mu.parts), set(lam.parts)
    for x in range(1, lam.part(1) + 1):
        if x in joins:  # a bottom path starts below every active one
            states = {(0,) + s: v for s, v in states.items()}
        sink = x in sinks  # the highest active path rises to the top and ends
        sources: dict[tuple[int, ...], list[tuple[LaurentPoly, int]]] = {}
        for s, v in states.items():
            for t, c in _column_moves(s, sink, k_levels).items():
                sources.setdefault(t, []).append((v, c))
        states = {}
        for t, vs in sources.items():
            w = weight(t)
            states[t] = sum_of_products(n, [(w, v, c) for v, c in vs])
    return states.get((), LaurentPoly.zero(n))


def _column_moves(
    state: tuple[int, ...], sink: bool, k_levels: int
) -> Counter[tuple[int, ...]]:
    """Arrival levels in the next column, with the number of ways to reach them.

    Path j rises from its arrival level to a level b below the next path's
    arrival and leaves right (b >= 1) or diagonally (b < k_levels); the paths
    stay vertex-disjoint exactly when the new levels strictly increase.  With
    `sink`, the highest path takes the rest of the column and leaves none."""
    tops = [a - 1 for a in state[1:]] + [k_levels]
    if sink:
        state, tops = state[:-1], tops[:-1]
    partial: Counter[tuple[int, ...]] = Counter({(): 1})
    for a, top in zip(state, tops):
        ways: Counter[int] = Counter()
        for b in range(a, top + 1):
            if b >= 1:
                ways[b] += 1
            if b < k_levels:
                ways[b + 1] += 1
        grown: Counter[tuple[int, ...]] = Counter()
        for t, c in partial.items():
            for b, w in ways.items():
                if not t or b > t[-1]:
                    grown[t + (b,)] += c * w
        partial = grown
    return partial


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
