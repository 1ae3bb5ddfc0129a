"""Exact arithmetic for intermediate symplectic Q-polynomials.

The same Laurent polynomial is computed by independent methods (an inner-sum
definition over Pfaffians, a primed-tableau weight sum, single-variable
branching chains, a block Pfaffian, and a non-intersecting lattice-path
enumeration) and the methods are cross-verified against each other.
"""

from .errors import (
    ExponentOverflow,
    MatrixError,
    NotContained,
    ParseError,
    PreconditionError,
    QsymError,
    TermBudgetExceeded,
    VariableCountMismatch,
)
from .ring import (
    LaurentPoly,
    Monomial,
    parse_poly,
    series_from_linear_factors,
    sum_of_products,
)
from .shapes import (
    EMPTY,
    Partition,
    SkewShiftedShape,
    StrictPartition,
    enum_strict_between,
    pad_for_pfaffian,
    shifted_cells,
)
from .linalg import RingMatrix, determinant, pfaffian
from .tableaux import (
    Letter,
    PrimedTableau,
    SpTableau,
    VariableSpec,
    enum_qt,
    enum_spt,
    letter,
    qt_weight,
)
from .symfun import (
    check_union_identity,
    complete_h,
    elementary_e,
    inter_schur,
    schur_skew,
    schur_skew_e,
    symp_schur,
    symp_schur_on,
)
from .qfun import (
    QContext,
    build_jp_matrix,
    qA_two_row,
    qC_two_row,
    qI_branch,
    qI_def,
    qI_jp,
    qI_tableau,
    q_row,
    q_single_var,
)
from .lgv import enum_path_families, lgv_weight_sum

__version__ = "0.1.0"
