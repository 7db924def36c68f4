"""Output checks that do not trust the library's own arithmetic.

Matrix files are parsed here with ``json`` into dense coefficient arrays,
and products F F~ are formed with ``numpy.convolve``, so a defect in
``LaurentMatrix`` arithmetic or in ``fileio`` cannot hide itself.  Only the
comparison against the secret factor or completion goes through the
library's ``compare_factors`` / ``compare_completions``.
"""

from __future__ import annotations

import json

import numpy as np

# The CLI's default tolerance: every accepted output must meet it.
TOL = 1e-9


def load_coeffs(path):
    """(lo, C) with C[n] the coefficient matrix of z^(lo + n)."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    rows, cols = doc["rows"], doc["cols"]
    powers = [t["power"] for t in doc["terms"]]
    if not powers:
        return 0, np.zeros((1, rows, cols), dtype=complex)
    lo = min(powers)
    C = np.zeros((max(powers) - lo + 1, rows, cols), dtype=complex)
    for term in doc["terms"]:
        pairs = np.asarray(term["matrix"], dtype=float).reshape(rows, cols, 2)
        C[term["power"] - lo] = pairs[..., 0] + 1j * pairs[..., 1]
    return lo, C


def para_gram(C):
    """Coefficients of F F~ for F with coefficients C, powers -(L-1)..L-1.

    F~(z) = F(1/conj z)^H, so entry (i, j) of F F~ is the sum over columns l
    of F_il convolved with the reversed conjugate of F_jl; the lowest power
    of F cancels out of the product.
    """
    L, m, k = C.shape
    G = np.zeros((2 * L - 1, m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            for col in range(k):
                G[:, i, j] += np.convolve(C[:, i, col], np.conj(C[::-1, j, col]))
    return G


def _window_diff(lo_a, A, lo_b, B):
    """A - B for coefficient stacks starting at powers lo_a and lo_b."""
    lo = min(lo_a, lo_b)
    hi = max(lo_a + len(A), lo_b + len(B))
    D = np.zeros((hi - lo,) + A.shape[1:], dtype=complex)
    D[lo_a - lo : lo_a - lo + len(A)] += A
    D[lo_b - lo : lo_b - lo + len(B)] -= B
    return D


def factor_residual(lo_s, S, F):
    """max |S - F F~| / max |S| over all coefficients."""
    D = _window_diff(lo_s, S, -(len(F) - 1), para_gram(F))
    return float(np.max(np.abs(D)) / max(np.max(np.abs(S)), 1e-300))


def check_factor(spectrum_path, factor_path, secret_path):
    """(residual, defect, mismatch) for a written spectral factor.

    defect names a broken contract: the factor is not analytic, has the
    wrong shape, or misses S = F F~ by more than TOL.  mismatch says that
    the factor is not the secret one up to a constant unitary, as judged by
    ``compare_factors`` at TOL; near-circle zeros make that comparison far
    more sensitive than the residual, so it is reported apart.
    """
    from parafact import IndeterminateError, RankDefOptions, compare_factors, read_matrix

    lo, coeffs = load_coeffs(factor_path)
    residual = factor_residual(*load_coeffs(spectrum_path), coeffs)
    F, _ = read_matrix(factor_path)
    secret, _ = read_matrix(secret_path)
    if F.shape != secret.shape:
        return residual, "factor shape %r, expected %r" % (F.shape, secret.shape), None
    if lo < 0:
        return residual, "factor has negative powers down to z^%d" % lo, None
    if not residual <= TOL:
        return residual, "residual %.3e exceeds %.0e" % (residual, TOL), None
    try:
        unitary = compare_factors(secret, F, RankDefOptions(tol=TOL))
    except IndeterminateError as exc:
        return residual, None, "compare_factors: %s" % exc
    if unitary is None:
        return residual, None, "factor is not the secret factor up to a constant unitary"
    return residual, None, None


def check_completion(row_path, matrix_path, secret_path):
    """(deviation of U U~ from I, defect, mismatch) for a completion.

    defect: U is not square of the row's width, is not analytic, misses
    U U~ = I by more than TOL, or its first row is not the input row.
    mismatch: ``compare_completions`` at TOL finds no constant unitary
    mixing that takes the secret completion to U.
    """
    from parafact import InvalidComparisonError, compare_completions, read_matrix

    lo_u, U = load_coeffs(matrix_path)
    lo_r, row = load_coeffs(row_path)
    G = para_gram(U)
    G[len(U) - 1] -= np.eye(U.shape[1])
    deviation = float(np.max(np.abs(G)))
    if U.shape[1:] != (row.shape[2], row.shape[2]):
        return deviation, "completion shape %r for a row of width %d" % (
            U.shape[1:],
            row.shape[2],
        ), None
    if lo_u < 0:
        return deviation, "completion has negative powers down to z^%d" % lo_u, None
    if not deviation <= TOL:
        return deviation, "U U~ - I deviates by %.3e" % deviation, None
    row_gap = float(np.max(np.abs(_window_diff(lo_u, U[:, :1, :], lo_r, row))))
    if row_gap > 1e-12 * max(np.max(np.abs(row)), 1e-300):
        return deviation, "first row differs from the input row by %.3e" % row_gap, None
    Um, _ = read_matrix(matrix_path)
    secret, _ = read_matrix(secret_path)
    try:
        mixing = compare_completions(secret, Um, TOL)
    except InvalidComparisonError as exc:
        return deviation, None, "compare_completions: %s" % exc
    if mixing is None:
        return deviation, None, "completion differs from the secret beyond a unitary mixing"
    return deviation, None, None
