import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hypothesis import strategies as st

from qsym import LaurentPoly


def poly_strategy(n: int, max_terms: int = 4):
    exps = st.tuples(*([st.integers(-3, 3)] * n))
    term = st.tuples(exps, st.integers(-9, 9))
    return st.lists(term, max_size=max_terms).map(
        lambda items: LaurentPoly(n, {e: c for e, c in items})
    )


def rows_weight(rows, n: int) -> tuple[int, ...]:
    """Exponent of x_i over the letters of rows: unbarred occurrences of
    index i minus barred ones, primes ignored."""
    exps = [0] * n
    for row in rows:
        for x in row:
            exps[x.index - 1] += -1 if x.barred else 1
    return tuple(exps)


def diagonal_rows(shape) -> list[int]:
    """Rows whose diagonal cell (i, i) survives in the skew shifted shape."""
    return sorted(i for i, j in shape.cells if i == j)
