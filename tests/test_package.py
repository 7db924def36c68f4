"""The package root exports the user-facing API and nothing else, and its
modules import only from the layers below them."""

import ast
import re
from pathlib import Path

import parafact

PUBLIC = [
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


def test_public_names_are_pinned():
    assert parafact.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(parafact, name)
    # Pipeline stages stay in their modules, out of the package root.
    for name in ("tail_quotient", "RationalMatrix", "reflect_column_zero", "poly_roots"):
        assert not hasattr(parafact, name)


def layer_order():
    """Module names in the order of the package docstring's layer list."""
    block = parafact.__doc__.split("Layers, lowest first", 1)[1]
    return re.findall(r"^    (\w+) {2,}\S", block, flags=re.MULTILINE)


def test_modules_import_only_from_lower_layers():
    order = layer_order()
    package = Path(parafact.__file__).parent
    modules = sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
    assert sorted(order) == modules
    rank = {name: i for i, name in enumerate(order)}
    upward = []
    for name in modules:
        tree = ast.parse((package / (name + ".py")).read_text(encoding="utf-8"))
        # ast.walk reaches imports inside functions too, so a deferred
        # import cannot hide a dependency on a higher layer.
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 1:
                targets = [node.module] if node.module else [a.name for a in node.names]
            elif node.level == 0 and (node.module or "").startswith("parafact."):
                targets = [node.module.split(".")[1]]
            else:
                continue
            upward += [
                (name, node.lineno, t) for t in targets if not rank[t] < rank[name]
            ]
    assert upward == []
