"""Non-intersecting lattice-path oracle for the intermediate Q-polynomials.

The directed graph lives on levels 1..K, K = 2k + m: levels 2t-1 and 2t
(t <= k) carry the letters t and t-bar, level 2k + j carries the plain letter
k + j.  A step right at a level contributes that level's unprimed letter, a
diagonal step up-right contributes the primed letter of the target level, and
vertical steps are silent.  The letters come from the tableaux' alphabet,
which lists the levels in this order: level b's primed and unprimed letters
are slots 2b - 2 and 2b - 1 of spec.primed_alphabet().  Row i of the skew
shape is read off path i:

  paths 1..len(mu)  start on the bottom boundary at x = mu_i,
  the remaining paths enter from the left boundary x = 0, either at a level
  (unprimed first letter) or between two levels (primed first letter).

Families are vertex-disjoint, and the first-letter indices of the
left-boundary paths strictly increase from the first to the last, mirroring
the diagonal rule of the tableau family.

The graph itself is implicit; bounds come from the target shape.

Two evaluators follow these rules, on purpose.  Both use that the rules are
local in x: a path arrives in column x at one level a, rises to a level d,
and leaves right (to level d of column x + 1) or diagonally (to level d + 1);
in its sink column it rises to K.  So a path holds the levels a..d of each
column, and a family is vertex-disjoint exactly when these intervals are
disjoint in every column.  The left boundary is column 0, left at any level.

enum_path_families yields each family as its rows of letters, the rows of its
tableau; the bijection check needs the families, so it costs at least one step
per family.  It lists each row's paths once, each with one int holding bit
x * (K + 1) + b for every level b it takes in column x, then picks one path
per row whose bits miss those of the rows above and, on the left boundary,
whose first index passes the previous one.

lgv_weight_sum, the lgv route, needs only the weight sum.  Left-boundary
paths enter only at x = 1, where the index rule is decided once, so it runs
a transfer matrix column by column (Stanley, EC1 section 4.7), over states
that are the ascending tuples of the levels at which the active paths
arrive; the graph is planar, so path 1 is always the lowest active path.
Its cost is polynomial in the number of states, at most C(K + 1, rows) per
column, rather than in the number of families.  A column's moves from a
state depend on the state, whether a path sinks there and K alone, so
_column_moves caches them for the process (functools.cache), as immutable
tuples.  Its size is bounded by the (state, sink, K) triples the process
has walked, one entry each: 282 over the whole acceptance sweep.  Each call
also memoises each state's weight monomial, for that call only.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import combinations
from typing import Iterator

from .ring import LaurentPoly, sum_of_products
from .shapes import StrictPartition
from .tableaux import Letter, VariableSpec, _letter_weight

Rows = tuple[tuple[Letter, ...], ...]


def enum_path_families(
    lam: StrictPartition, mu: StrictPartition, spec: VariableSpec
) -> Iterator[Rows]:
    """All vertex-disjoint families for the shape of lam over mu, each as
    the tuple of its paths' letter rows.

    Empty stream when mu is not contained in lam (a sink would sit left of
    its source, forcing a crossing)."""
    spec.check_rows(lam)
    if not lam.contains(mu):
        return
    k_levels = 2 * spec.k + spec.m
    height = k_levels + 1  # the bits of one column, levels 0..K
    alphabet = spec.primed_alphabet()
    # from level d: right at d (unprimed) or diagonally to d + 1 (primed)
    moves = [
        [(alphabet[2 * b - 1 - (b > d)], b) for b in (d, d + 1) if 1 <= b <= k_levels]
        for d in range(height)
    ]

    def tails(start: int, sink: int) -> list[list[tuple[tuple[Letter, ...], int]]]:
        """For each level a, the (letters, bits) of each path that arrives
        in column start at level a and ends at the top of column sink, built
        column by column from the sink leftward."""
        column = [[((), ((1 << height) - (1 << a)) << sink * height)] for a in range(height)]
        for x in range(sink - 1, start - 1, -1):
            low = x * height
            column = [
                [
                    ((step,) + letters, bits | ((2 << d) - (1 << a)) << low)
                    for d in range(a, height)
                    for step, b in moves[d]
                    for letters, bits in column[b]
                ]
                for a in range(height)
            ]
        return column

    # each row's paths with their first-letter index, 0 on the bottom boundary
    rows = [
        [(0, letters, bits) for letters, bits in tails(mu.part(i), lam.part(i))[0]]
        if i <= mu.length
        else [
            (step.index, (step,) + letters, bits)
            for column in [tails(1, lam.part(i))]
            for d in range(height)
            for step, b in moves[d]
            for letters, bits in column[b]
        ]
        for i in range(1, lam.length + 1)
    ]
    family: list[tuple[Letter, ...]] = []

    def walk(i: int, used: int, prev: int) -> Iterator[Rows]:
        if i == len(rows):
            yield tuple(family)
            return
        for index, letters, bits in rows[i]:
            if not bits & used and (not index or index > prev):
                family.append(letters)
                yield from walk(i + 1, used | bits, index or prev)
                family.pop()

    yield from walk(0, 0, 0)


def lgv_weight_sum(
    lam: StrictPartition,
    mu: StrictPartition,
    spec: VariableSpec,
) -> LaurentPoly:
    """Sum of family weights; the oracle side of the Pfaffian identity.

    A transfer matrix over the columns x = 1..lam_1.  A state is the
    ascending tuple of levels (the bottom boundary is level 0) at which the
    active paths arrive in column x; its value sums the weights of the
    partial families that reach it.  A step right at level b and a diagonal
    step up from level b - 1 both arrive at level b and weigh the letters of
    level b, so a transition multiplies by the one monomial of its arrival
    levels, and a left-boundary entry weighs twice its level's letter.
    Every state value is a LaurentPoly, so QSYM_MAX_TERMS stops the walk at
    the first value that outgrows it.

    The moves between columns come from _column_moves' process-wide cache,
    one entry per (state, sink, K) walked so far, and the weight monomial of
    each state is built once per call, in a memo that dies with it."""
    spec.check_rows(lam)
    n = spec.n
    if not lam.contains(mu):
        return LaurentPoly.zero(n)
    k_levels = 2 * spec.k + spec.m
    letters = [None] + spec.unprimed_alphabet()
    weights: dict[tuple[int, ...], LaurentPoly] = {}

    def weight(state: tuple[int, ...]) -> LaurentPoly:
        """The monomial of the letters at the state's levels, once per call."""
        w = weights.get(state)
        if w is None:
            exps = _letter_weight([[letters[b] for b in state if b]], spec)
            w = weights[state] = LaurentPoly.monomial(n, exps)
        return w

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
            for t, c in _column_moves(s, sink, k_levels):
                sources.setdefault(t, []).append((v, c))
        states = {}
        for t, vs in sources.items():
            w = weight(t)
            states[t] = sum_of_products(n, [(w, v, c) for v, c in vs])
    return states.get((), LaurentPoly.zero(n))


@cache
def _column_moves(
    state: tuple[int, ...], sink: bool, k_levels: int
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Arrival levels in the next column, with the number of ways to reach
    them, as (levels, ways) pairs.

    Path j rises from its arrival level to a level b below the next path's
    arrival and leaves right (b >= 1) or diagonally (b < k_levels); the paths
    stay vertex-disjoint exactly when the new levels strictly increase.  With
    `sink`, the highest path takes the rest of the column and leaves none.
    A pure function of its arguments, cached for the process; the value is
    a tuple, so no caller can change what the next one reads."""
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
    return tuple(partial.items())
