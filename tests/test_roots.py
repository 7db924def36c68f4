"""Root finding, clustering, linear division, and column reflections."""

import numpy as np
import pytest

from parafact.laurent import LaurentMatrix, LaurentPoly
from parafact.roots import (
    cluster_points,
    divide_linear,
    divide_out,
    laurent_roots,
    poly_roots,
    reflect_column_zero,
    unitary_with_first_column,
)


def test_poly_roots_against_numpy():
    coeffs = [6.0, -5.0, 1.0]
    mine = sorted(poly_roots(coeffs), key=lambda w: w.real)
    theirs = sorted(np.roots(coeffs[::-1]), key=lambda w: w.real)
    assert np.allclose(mine, theirs)


def test_poly_roots_random_cubic():
    rng = np.random.default_rng(40)
    roots = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    coeffs = np.poly(roots)[::-1]
    found = poly_roots(coeffs)
    for r in roots:
        assert min(abs(found - r)) < 1e-8


def test_laurent_roots_of_factored_polynomial():
    p = (LaurentPoly({0: -2.0, 1: 1.0}) * LaurentPoly({0: -0.5, 1: 1.0})).shifted(-1)
    roots = laurent_roots(p)
    assert len(roots) == 2
    for target in (2.0, 0.5):
        assert min(abs(roots - target)) < 1e-10


def test_divide_linear_inside_and_outside_root():
    rng = np.random.default_rng(41)
    for a in (0.3 + 0.2j, 1.7 - 0.4j):
        q = LaurentPoly(
            {n: rng.standard_normal() + 1j * rng.standard_normal() for n in range(4)}
        )
        p = q * LaurentPoly({0: -a, 1: 1.0})
        got, rem = divide_linear(p, a)
        assert rem < 1e-12 * p.max_abs
        assert (got - q).max_abs < 1e-10


def test_divide_linear_reports_remainder():
    p = LaurentPoly({0: 1.0, 1: 1.0})
    _, rem = divide_linear(p, 0.5)
    assert rem > 0.1


def test_divide_out_exact_quotient():
    rng = np.random.default_rng(42)
    den = LaurentPoly({0: 1.0, 1: 0.25, 2: -0.125})
    q = LaurentPoly(
        {n: rng.standard_normal() + 1j * rng.standard_normal() for n in range(3)}
    )
    num = q * den
    got, rem = divide_out(num, den)
    assert rem < 1e-11
    assert (got - q).max_abs < 1e-11


def test_cluster_points_merges_nearby():
    pts = [0.5, 0.5 + 1e-8, 0.5 - 1e-8j, -0.2]
    clusters = cluster_points(pts, 1e-6)
    assert sorted(count for _, count in clusters) == [1, 3]
    big = max(clusters, key=lambda t: t[1])[0]
    assert abs(big - 0.5) < 1e-7


def test_unitary_with_first_column():
    rng = np.random.default_rng(43)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    U = unitary_with_first_column(v)
    assert np.max(np.abs(U.conj().T @ U - np.eye(4))) < 1e-12
    assert np.max(np.abs(U[:, 0] - v / np.linalg.norm(v))) < 1e-12


def test_reflect_column_zero_preserves_gram_product():
    rng = np.random.default_rng(44)
    a = 0.4 - 0.1j
    base = LaurentMatrix(
        3,
        2,
        {n: rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)) for n in range(2)},
    )
    zero_factor = LaurentMatrix.diagonal(
        [LaurentPoly({0: -a, 1: 1.0}), LaurentPoly.one()]
    )
    F = base @ zero_factor
    sv = np.linalg.svd(F.eval(a), compute_uv=False)
    assert sv[-1] < 1e-10
    null = np.linalg.svd(F.eval(a))[2][-1].conj()
    G, U, rem = reflect_column_zero(F, a, null)
    assert rem < 1e-10
    assert np.max(np.abs(U.conj().T @ U - np.eye(2))) < 1e-12
    assert np.linalg.svd(G.eval(a), compute_uv=False)[-1] > 1e-3
    zs = np.exp(1j * np.linspace(0.0, 2 * np.pi, 17))
    for z in zs:
        lhs = G.eval(z) @ G.eval(z).conj().T
        rhs = F.eval(z) @ F.eval(z).conj().T
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_reflect_column_zero_moves_zero_to_reflection():
    rng = np.random.default_rng(45)
    a = 0.25 + 0.3j
    base = LaurentMatrix(
        2,
        1,
        {0: rng.standard_normal((2, 1)), 1: rng.standard_normal((2, 1))},
    )
    F = base @ LaurentMatrix(1, 1, {0: np.array([[-a]]), 1: np.array([[1.0]])})
    null = np.array([1.0 + 0j])
    G, _, _ = reflect_column_zero(F, a, null)
    mirror = 1.0 / np.conj(a)
    assert np.linalg.svd(G.eval(mirror), compute_uv=False)[-1] < 1e-9


def _reflect_reference(F, a, null):
    """Per-entry reflection: divide_linear on each first-column entry, then a
    LaurentPoly product with (1 - conj(a) z)."""
    U = unitary_with_first_column(null)
    G = F @ LaurentMatrix.constant(U)
    top = LaurentPoly({0: 1.0, 1: -np.conj(a)})
    rows, worst = [], 0.0
    for i in range(G.rows):
        q, rem = divide_linear(G.entry(i, 0), a)
        worst = max(worst, rem)
        rows.append([q * top] + [G.entry(i, j) for j in range(1, G.cols)])
    return LaurentMatrix.from_entries(rows), U, worst


def test_reflect_column_zero_matches_per_entry_reference():
    rng = np.random.default_rng(46)
    a = -0.3 + 0.55j
    base = LaurentMatrix(
        4,
        3,
        {
            n: rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
            for n in range(5)
        },
    )
    plant = LaurentMatrix.diagonal(
        [LaurentPoly({0: -a, 1: 1.0}), LaurentPoly.one(), LaurentPoly.one()]
    )
    F = base @ plant
    assert F.hi == 5
    null = np.linalg.svd(F.eval(a))[2][-1].conj()
    G, U, rem = reflect_column_zero(F, a, null)
    ref, ref_U, ref_rem = _reflect_reference(F, a, null)
    assert np.array_equal(U, ref_U)
    # The array recurrence rounds every product as the scalar code does, so
    # the coefficients agree exactly; only the remainder is summed another way.
    assert G == ref
    assert ref_rem <= 1e-13 * F.max_abs
    assert abs(rem - ref_rem) <= 1e-14 * F.max_abs


@pytest.mark.parametrize("a", [1.0, -1j, 0.6 + 0.8j, 2.0 - 0.5j])
def test_reflect_column_zero_rejects_points_off_the_open_disk(a):
    F = LaurentMatrix(2, 1, {0: np.array([[-a], [1.0]]), 1: np.array([[1.0], [0.5]])})
    with pytest.raises(ValueError):
        reflect_column_zero(F, a, np.array([1.0 + 0j]))
