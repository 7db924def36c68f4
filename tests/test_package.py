"""The package root exports the user-facing API and nothing else."""

import parafact

PUBLIC = [
    "AnalyticPolyMatrix",
    "BlaschkeOp",
    "CanonicalForm",
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


def test_public_names_are_pinned():
    assert parafact.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(parafact, name)
    # Pipeline stages stay in their modules, out of the package root.
    for name in ("tail_quotient", "RationalMatrix", "reflect_column_zero", "poly_roots"):
        assert not hasattr(parafact, name)
