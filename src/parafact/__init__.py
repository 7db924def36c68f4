"""Spectral factorization of Laurent polynomial matrices.

The package factors a nonnegative definite, possibly rank-deficient
trigonometric polynomial matrix S(z) into S = F F~ with F analytic,
of the same order as S, and of full column rank inside the open unit
disk, and it extends a unit-norm analytic row to a square paraunitary
matrix whose determinant is a monomial.

Layers, lowest first; a module imports only from layers listed before it:

    errors       the exception hierarchy
    laurent      Laurent polynomial and matrix arithmetic
    roots        root finding, clustering, column reflections, rank drops
    fullrank     positive definite (full-rank) factorization
    rankdef      rank-deficient factorization driver and verification
    paraunitary  unit-norm rows, completion, paraunitarity checks
    instances    seeded generators with known secret factors
    fileio       canonical matrix and report files
    cli          command-line front end over the file formats
"""

from .errors import (
    DegenerateInputError,
    IndeterminateError,
    InvalidComparisonError,
    NotFactorableError,
    NotParaunitaryError,
    NumericalFailureError,
    ParafactError,
)
from .fileio import (
    matrix_from_text,
    matrix_to_text,
    read_matrix,
    read_report,
    report_from_text,
    report_to_text,
    write_matrix,
    write_report,
)
from .fullrank import (
    canonicalize,
    factor_positive_definite,
    scalar_factor,
)
from .instances import (
    Instance,
    LosslessInstance,
    elementary_factor,
    gen_lossless,
    gen_spectrum,
)
from .laurent import AnalyticPolyMatrix, LaurentMatrix, LaurentPoly
from .paraunitary import (
    LosslessRow,
    ParaunitaryReport,
    check_unit_norm_row,
    compare_completions,
    complete_to_paraunitary,
    deficiency_matrix,
    paraunitary_degree,
    verify_paraunitary,
)
from .rankdef import (
    BlaschkeOp,
    Check,
    FactorReport,
    RankDefOptions,
    compare_factors,
    estimate_rank,
    find_rank_drop_points,
    fix_rank_drop,
    spectral_factor,
    verify_factorization,
)
from .roots import laurent_roots

__version__ = "0.1.0"

__all__ = [
    "AnalyticPolyMatrix",
    "BlaschkeOp",
    "Check",
    "DegenerateInputError",
    "FactorReport",
    "IndeterminateError",
    "Instance",
    "InvalidComparisonError",
    "LaurentMatrix",
    "LaurentPoly",
    "LosslessInstance",
    "LosslessRow",
    "NotFactorableError",
    "NotParaunitaryError",
    "NumericalFailureError",
    "ParafactError",
    "ParaunitaryReport",
    "RankDefOptions",
    "canonicalize",
    "check_unit_norm_row",
    "compare_completions",
    "compare_factors",
    "complete_to_paraunitary",
    "deficiency_matrix",
    "elementary_factor",
    "estimate_rank",
    "factor_positive_definite",
    "find_rank_drop_points",
    "fix_rank_drop",
    "gen_lossless",
    "gen_spectrum",
    "laurent_roots",
    "matrix_from_text",
    "matrix_to_text",
    "paraunitary_degree",
    "read_matrix",
    "read_report",
    "report_from_text",
    "report_to_text",
    "scalar_factor",
    "spectral_factor",
    "verify_factorization",
    "verify_paraunitary",
    "write_matrix",
    "write_report",
    "__version__",
]
