from collections import Counter
from itertools import combinations, product

import pytest

from qsym import (
    EMPTY,
    LaurentPoly,
    PrimedTableau,
    StrictPartition,
    VariableSpec,
    enum_path_families,
    enum_qt,
    enum_spt,
    letter,
    lgv_weight_sum,
    qI_branch,
    qI_tableau,
    qt_weight,
)
from qsym.checks import partitions_up_to_weight, qi_cases, specs_up_to, strict_partitions
from qsym.errors import PreconditionError

from conftest import rows_weight

L = letter


def sp(*parts):
    return StrictPartition(tuple(parts))


def _vertex_family(rows, lam, mu, spec):
    """Each row's path as its vertices (x, doubled level), built from its
    letters alone, or None when the rows break a rule of the graph.

    A letter of primed-alphabet rank r leaves its column at doubled level
    2 * ((r + 1) // 2) and arrives in the next at 2 * (r // 2 + 1).  Path i
    starts at (mu_i, 0), or on the left boundary at (0, r + 1) for the rank r
    of its first letter; before each letter it rises to the letter's
    departure, and in its last column to the top.  The paths must end at
    (lam_i, top), share no vertex, and enter the left boundary on strictly
    increasing indices."""
    alphabet = spec.primed_alphabet()
    top = 2 * (2 * spec.k + spec.m)
    if len(rows) != lam.length:
        return None
    paths, seen, prev = [], set(), 0
    for i, letters in enumerate(rows, 1):
        ranks = [alphabet.index(x) for x in letters]
        if i <= mu.length:
            x, y = mu.part(i), 0
        elif not letters or letters[0].index <= prev:
            return None
        else:
            x, y = 0, ranks[0] + 1
            prev = letters[0].index
        verts = [(x, y)]
        for r in ranks:
            leave = 2 * ((r + 1) // 2) if x else y
            if y > leave:
                return None
            verts += [(x, d) for d in range(y + 2, leave + 1, 2)]
            x, y = x + 1, 2 * (r // 2 + 1)
            verts.append((x, y))
        verts += [(x, d) for d in range(y + 2, top + 1, 2)]
        if verts[-1] != (lam.part(i), top) or seen.intersection(verts):
            return None
        seen.update(verts)
        paths.append(tuple(verts))
    return tuple(paths)


def test_levels_carry_the_alphabet_slots():
    # levels 2t - 1 and 2t carry t and t-bar (t <= k), level 2k + j carries
    # the plain letter k + j; level b's primed letter is slot 2b - 2 and its
    # unprimed letter slot 2b - 1
    for spec in specs_up_to(4):
        alphabet = spec.primed_alphabet()
        k_levels = 2 * spec.k + spec.m
        assert len(alphabet) == 2 * k_levels
        carried = {}
        for t in range(1, spec.k + 1):
            carried[2 * t - 1], carried[2 * t] = (t, False), (t, True)
        for j in range(1, spec.m + 1):
            carried[2 * spec.k + j] = (spec.k + j, False)
        for b in range(1, k_levels + 1):
            index, barred = carried[b]
            primed, unprimed = alphabet[2 * b - 2], alphabet[2 * b - 1]
            assert primed == L(index, barred=barred, primed=True)
            assert unprimed == L(index, barred=barred)
            assert primed.primed and unprimed.unprimed


def test_every_letter_is_its_alphabet_object():
    # on the sweep specs, each letter of the tableau and path streams is the
    # object at its rank in its spec's alphabet, not an equal copy
    def letters(rows_stream):
        return {id(x): x for rows in rows_stream for row in rows for x in row}.values()

    seen = 0
    for spec in specs_up_to(3):
        alphabet = spec.primed_alphabet()
        streams = []
        for lam, mu, case_spec in qi_cases(3, 3, 3):
            if case_spec == spec:
                streams.append(t.rows for t in enum_qt(spec, lam, mu))
                streams.append(enum_path_families(lam, mu, spec))
        for lam in partitions_up_to_weight(4, 3):
            streams.append(t.rows for t in enum_spt(spec, lam))
        for stream in streams:
            for x in letters(stream):
                assert alphabet[alphabet.index(x)] is x, (spec, x)
                seen += 1
    assert seen > 100


def test_one_cell_four_families():
    spec = VariableSpec(1, 0)
    families = list(enum_path_families(sp(1), EMPTY, spec))
    assert len(families) == 4
    firsts = {rows[0][0] for rows in families}
    assert firsts == {L(1, primed=True), L(1), L(1, barred=True, primed=True), L(1, barred=True)}
    total = lgv_weight_sum(sp(1), EMPTY, spec)
    assert total == (LaurentPoly.variable(1, 0) + LaurentPoly.variable(1, 0, -1)).scale(2)


def test_equal_shapes_single_vertical_family():
    spec = VariableSpec(1, 1)
    families = list(enum_path_families(sp(2, 1), sp(2, 1), spec))
    assert len(families) == 1
    assert families == [((), ())]
    assert rows_weight(families[0], spec.n) == (0, 0)


def test_not_contained_empty():
    assert list(enum_path_families(sp(1), sp(2), VariableSpec(1, 1))) == []


def test_weight_sum_matches_tableau_route():
    for lam, mu, spec in [
        (sp(2, 1), EMPTY, VariableSpec(0, 2)),
        (sp(2, 1), EMPTY, VariableSpec(1, 1)),
        (sp(3, 1), sp(1), VariableSpec(2, 0)),
        (sp(3, 2), sp(2), VariableSpec(1, 2)),
    ]:
        assert lgv_weight_sum(lam, mu, spec) == qI_tableau(lam, mu, spec)


def test_bijection_on_small_shape():
    lam, mu, spec = sp(2, 1), EMPTY, VariableSpec(1, 1)
    families = list(enum_path_families(lam, mu, spec))
    tabs = set(enum_qt(spec, lam, mu))
    mapped = [PrimedTableau(lam, mu, rows) for rows in families]
    assert len(set(mapped)) == len(families)
    assert set(mapped) == tabs
    assert sorted(rows_weight(f, spec.n) for f in families) == sorted(
        qt_weight(t, spec) for t in tabs
    )


def _order_grid():
    """Inputs beyond the acceptance sweep: parts up to 5 on at most two
    variables, and four variables on parts up to 3, each lam of at most
    three rows against every strict mu of that size, contained or not."""
    for max_part, specs in ((5, specs_up_to(2)), (3, [VariableSpec(k, 4 - k) for k in range(5)])):
        shapes = strict_partitions(max_part, 3)
        for lam in shapes:
            for mu in shapes:
                for spec in specs:
                    if lam.length <= spec.n:
                        yield lam, mu, spec


def test_families_come_in_the_tableau_order():
    # lgv_checks compares the two streams in step, so this order is its premise
    cases = families = 0
    for lam, mu, spec in _order_grid():
        rows = [t.rows for t in enum_qt(spec, lam, mu)]
        assert list(enum_path_families(lam, mu, spec)) == rows, (lam, mu, spec)
        cases, families = cases + 1, families + len(rows)
    assert (cases, families) == (1906, 242845)


def test_a_long_row_needs_no_recursion_per_column():
    # one row of 1,200 columns: a path built by one call per column passed
    # the interpreter's recursion limit
    lam, spec = sp(1200), VariableSpec(0, 1)
    rows = [t.rows for t in enum_qt(spec, lam)]
    assert len(rows) == 2
    assert list(enum_path_families(lam, EMPTY, spec)) == rows


def test_figure_family_validates_and_maps():
    spec = VariableSpec(3, 2)
    lam, mu = sp(7, 6, 5, 2, 1), sp(6, 4, 1)
    rows = (
        (L(3, barred=True, primed=True),),
        (L(2), L(3, barred=True)),
        (L(1, primed=True), L(3), L(3), L(5)),
        (L(1, barred=True, primed=True), L(4, primed=True)),
        (L(4),),
    )
    paths = (
        ((6, 0), (6, 2), (6, 4), (6, 6), (6, 8), (6, 10), (7, 12), (7, 14), (7, 16)),
        ((4, 0), (4, 2), (4, 4), (4, 6), (5, 6), (5, 8), (5, 10), (5, 12), (6, 12), (6, 14), (6, 16)),
        ((1, 0), (2, 2), (2, 4), (2, 6), (2, 8), (2, 10), (3, 10), (4, 10), (4, 12), (4, 14), (4, 16), (5, 16)),
        ((0, 3), (1, 4), (1, 6), (1, 8), (1, 10), (1, 12), (2, 14), (2, 16)),
        ((0, 14), (1, 14), (1, 16)),
    )
    assert _vertex_family(rows, lam, mu, spec) == paths
    assert rows_weight(rows, spec.n) == (0, 1, 0, 2, 1)
    # a last path entering on 2' arrives at (1, 6), a vertex of path 4
    assert _vertex_family(rows[:4] + ((L(2, primed=True),),), lam, mu, spec) is None


def test_enumeration_families_all_validate():
    lam, mu, spec = sp(3, 1), sp(1), VariableSpec(1, 1)
    families = list(enum_path_families(lam, mu, spec))
    assert families
    for rows in families:
        assert _vertex_family(rows, lam, mu, spec) is not None


def _family_sum(lam, mu, spec):
    return LaurentPoly.from_exponents(
        spec.n, (rows_weight(f, spec.n) for f in enum_path_families(lam, mu, spec))
    )


def test_transfer_matrix_equals_family_enumeration():
    for lam, mu, spec in qi_cases(3, 3, 3):
        assert lgv_weight_sum(lam, mu, spec) == _family_sum(lam, mu, spec), (lam, mu, spec)


def test_transfer_matrix_keeps_the_index_rule():
    # the first sweep case where the rule has content: ordering the entries by
    # level alone admits 136 more families, two of them entering on 1 and 1b
    lam, mu, spec = sp(4, 3), EMPTY, VariableSpec(1, 1)
    total = lgv_weight_sum(lam, mu, spec)
    assert total == _family_sum(lam, mu, spec) == qI_tableau(lam, mu, spec)
    assert sum(total.terms.values()) == 56


def _moves_by_brute_force(state, sink, k_levels):
    """Every way the paths of one column can go on: each path picks a rise
    level from its arrival up to just below the next path's arrival (up to
    k_levels for the top one; when sinking, the top one takes the column and
    goes nowhere) and leaves right, arriving at that level if it is >= 1, or
    diagonally, arriving one level up if that is <= k_levels; only the
    strictly increasing arrivals stay."""
    moving = state[:-1] if sink else state
    choices = []
    for j, a in enumerate(moving):
        top = state[j + 1] - 1 if j + 1 < len(state) else k_levels
        right = [b for b in range(a, top + 1) if b >= 1]
        diagonal = [b + 1 for b in range(a, top + 1) if b + 1 <= k_levels]
        choices.append(right + diagonal)
    return Counter(
        arrivals for arrivals in product(*choices)
        if all(b < c for b, c in zip(arrivals, arrivals[1:]))
    )


def test_column_moves_match_a_brute_force():
    from qsym.lgv import _column_moves

    for k_levels in range(7):
        levels = range(k_levels + 1)  # level 0 is the bottom boundary
        for size in range(len(levels) + 1):
            for state in combinations(levels, size):
                for sink in (False, True):
                    got = _column_moves(state, sink, k_levels)
                    # cached for the process, so shared values must be immutable
                    assert type(got) is tuple
                    assert dict(got) == _moves_by_brute_force(state, sink, k_levels), (
                        state, sink, k_levels,
                    )


def test_transfer_matrix_edges():
    spec = VariableSpec(1, 1)
    assert lgv_weight_sum(EMPTY, EMPTY, spec) == LaurentPoly.one(2)
    assert lgv_weight_sum(sp(2, 1), sp(3), spec).is_zero()
    with pytest.raises(PreconditionError):
        lgv_weight_sum(sp(3, 2, 1), EMPTY, spec)
    with pytest.raises(PreconditionError):
        next(enum_path_families(sp(3, 2, 1), EMPTY, spec))
    assert list(enum_path_families(sp(2, 1), sp(3), spec)) == []


@pytest.mark.parametrize(
    "lam, mu, spec",
    [
        ((6, 4, 2), (), (2, 2)),
        ((6, 4, 2), (), (3, 1)),
        ((6, 4, 2), (), (3, 2)),
        ((7, 5, 3, 1), (), (2, 2)),
        ((7, 5, 3, 1), (3, 1), (2, 2)),
        ((6, 4, 2), (2,), (3, 2)),
    ],
)
def test_lgv_equals_branch_beyond_enumeration(lam, mu, spec):
    lam, mu, spec = sp(*lam), sp(*mu), VariableSpec(*spec)
    assert lgv_weight_sum(lam, mu, spec) == qI_branch(lam, mu, spec)
