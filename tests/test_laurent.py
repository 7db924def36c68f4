"""Arithmetic layer tests: polynomials, matrices, grids, and adjoints.

Oracles are direct evaluation at sample points: every algebraic identity
is checked by comparing coefficient-level results against pointwise
complex arithmetic on and off the unit circle.
"""

import numpy as np
import pytest

from parafact.laurent import (
    AnalyticPolyMatrix,
    LaurentMatrix,
    LaurentPoly,
    laurent_from_unit_samples,
)


def random_poly(rng, lo=-3, hi=3):
    coeffs = rng.standard_normal(hi - lo + 1) + 1j * rng.standard_normal(hi - lo + 1)
    return LaurentPoly({n: c for n, c in zip(range(lo, hi + 1), coeffs)})


def random_matrix(rng, rows, cols, lo=-2, hi=2):
    terms = {
        n: rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        for n in range(lo, hi + 1)
    }
    return LaurentMatrix(rows, cols, terms)


def sample_points():
    return [1.0, -1.0, 0.5 + 0.25j, np.exp(0.7j), 2.0 - 1.0j]


class TestLaurentPoly:
    def test_zero_and_constant(self):
        z = LaurentPoly.zero()
        assert z.is_zero
        assert z.coeff(0) == 0
        one = LaurentPoly.one()
        assert one.coeff(0) == 1
        assert one.lo == one.hi == 0

    def test_constructor_drops_exact_zeros(self):
        p = LaurentPoly({-1: 0.0, 0: 1.0, 5: 0.0})
        assert p.lo == 0 and p.hi == 0

    def test_monomial_and_shift(self):
        p = LaurentPoly.monomial(2.0, 3)
        assert p.coeff(3) == 2.0
        q = p.shifted(-5)
        assert q.lo == q.hi == -2

    def test_from_coeffs(self):
        p = LaurentPoly.from_coeffs([1, 2, 3], lo=-1)
        assert p.coeff(-1) == 1 and p.coeff(0) == 2 and p.coeff(1) == 3

    def test_eval_matches_direct_sum(self):
        rng = np.random.default_rng(10)
        p = random_poly(rng)
        for z in sample_points():
            direct = sum(p.coeff(n) * z**n for n in range(p.lo, p.hi + 1))
            assert abs(p.eval(z) - direct) < 1e-12 * max(1.0, abs(direct))

    def test_eval_negative_power_at_zero_raises(self):
        p = LaurentPoly({-1: 1.0})
        with pytest.raises(ZeroDivisionError):
            p.eval(0.0)

    def test_add_sub_mul_against_pointwise(self):
        rng = np.random.default_rng(11)
        p, q = random_poly(rng), random_poly(rng, lo=-1, hi=4)
        for z in sample_points():
            assert abs((p + q).eval(z) - (p.eval(z) + q.eval(z))) < 1e-10
            assert abs((p - q).eval(z) - (p.eval(z) - q.eval(z))) < 1e-10
            assert abs((p * q).eval(z) - p.eval(z) * q.eval(z)) < 1e-9

    def test_mul_matches_convolution(self):
        rng = np.random.default_rng(12)
        p, q = random_poly(rng, 0, 3), random_poly(rng, 0, 2)
        conv = np.convolve(p.coeff_array(0, 3), q.coeff_array(0, 2))
        prod = p * q
        for n, c in enumerate(conv):
            assert abs(prod.coeff(n) - c) < 1e-12

    def test_scalar_multiples(self):
        p = LaurentPoly({0: 1.0, 1: 2.0})
        q = p * 3.0
        assert q.coeff(1) == 6.0
        assert (-p).coeff(0) == -1.0

    def test_adjoint_is_circle_conjugate(self):
        rng = np.random.default_rng(13)
        p = random_poly(rng)
        for z in sample_points():
            expected = np.conj(p.eval(1.0 / np.conj(z)))
            assert abs(p.adjoint().eval(z) - expected) < 1e-10

    def test_derivative(self):
        p = LaurentPoly({-2: 1.0, 0: 5.0, 3: 2.0})
        d = p.derivative()
        assert d.coeff(-3) == -2.0
        assert d.coeff(2) == 6.0
        assert d.coeff(-1) == 0.0

    def test_eval_unit_grid_matches_eval(self):
        rng = np.random.default_rng(14)
        p = random_poly(rng)
        count = 8
        grid = p.eval_unit_grid(count)
        for j in range(count):
            z = np.exp(2j * np.pi * j / count)
            assert abs(grid[j] - p.eval(z)) < 1e-10

    def test_trim(self):
        p = LaurentPoly({0: 1.0, 4: 1e-15})
        t = p.trim(1e-12)
        assert t.hi == 0

    def test_parahermitian_scalar(self):
        p = LaurentPoly({-1: 1 - 2j, 0: 3.0, 1: 1 + 2j})
        assert p.is_parahermitian(0.0)
        assert not LaurentPoly({1: 1.0}).is_parahermitian(1e-12)

    def test_equality(self):
        assert LaurentPoly({0: 1.0}) == LaurentPoly.one()
        assert LaurentPoly({0: 1.0}) != LaurentPoly({1: 1.0})


class TestLaurentMatrix:
    def test_identity_and_constant(self):
        I = LaurentMatrix.identity(3)
        assert I.shape == (3, 3)
        assert np.allclose(I.coeff(0), np.eye(3))
        C = LaurentMatrix.constant([[1, 2], [3, 4]])
        assert C.coeff(0)[1, 0] == 3

    def test_from_entries_round_trip(self):
        rng = np.random.default_rng(20)
        M = random_matrix(rng, 2, 3)
        grid = [[M.entry(i, j) for j in range(3)] for i in range(2)]
        assert LaurentMatrix.from_entries(grid) == M

    def test_constructor_drops_zero_blocks(self):
        M = LaurentMatrix(2, 2, {0: np.eye(2), 3: np.zeros((2, 2))})
        assert M.hi == 0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LaurentMatrix(2, 2, {0: np.zeros((2, 3))})

    def test_eval_and_grid_agree(self):
        rng = np.random.default_rng(21)
        M = random_matrix(rng, 3, 2)
        count = 8
        grid = M.eval_unit_grid(count)
        for j in range(count):
            z = np.exp(2j * np.pi * j / count)
            assert np.max(np.abs(grid[j] - M.eval(z))) < 1e-10

    def test_matmul_matches_sampled_product(self):
        rng = np.random.default_rng(22)
        A = random_matrix(rng, 2, 3)
        B = random_matrix(rng, 3, 2)
        P = A @ B
        for z in sample_points():
            assert np.max(np.abs(P.eval(z) - A.eval(z) @ B.eval(z))) < 1e-9

    def test_add_and_scalar(self):
        rng = np.random.default_rng(23)
        A = random_matrix(rng, 2, 2)
        B = random_matrix(rng, 2, 2)
        for z in sample_points():
            assert np.max(np.abs((A + B).eval(z) - (A.eval(z) + B.eval(z)))) < 1e-10
            assert np.max(np.abs((A - B).eval(z) - (A.eval(z) - B.eval(z)))) < 1e-10
            assert np.max(np.abs((A * 2.5).eval(z) - 2.5 * A.eval(z))) < 1e-10

    def test_adjoint_is_circle_conjugate_transpose(self):
        rng = np.random.default_rng(24)
        M = random_matrix(rng, 2, 3)
        for z in sample_points():
            expected = M.eval(1.0 / np.conj(z)).conj().T
            assert np.max(np.abs(M.adjoint().eval(z) - expected)) < 1e-9

    def test_transpose_and_submatrix(self):
        rng = np.random.default_rng(25)
        M = random_matrix(rng, 3, 2)
        assert M.transpose().shape == (2, 3)
        assert M.transpose().entry(0, 2) == M.entry(2, 0)
        S = M.submatrix([2, 0], [1])
        assert S.shape == (2, 1)
        assert S.entry(0, 0) == M.entry(2, 1)

    def test_permuted_is_symmetric_relabeling(self):
        rng = np.random.default_rng(26)
        A = random_matrix(rng, 3, 3)
        S = A @ A.adjoint()
        perm = (2, 0, 1)
        P = S.permuted(perm)
        for i in range(3):
            for j in range(3):
                assert P.entry(i, j) == S.entry(perm[i], perm[j])

    def test_vstack_hstack(self):
        rng = np.random.default_rng(27)
        A = random_matrix(rng, 1, 2)
        B = random_matrix(rng, 2, 2)
        V = LaurentMatrix.vstack([A, B])
        assert V.shape == (3, 2)
        assert V.entry(0, 1) == A.entry(0, 1)
        assert V.entry(2, 0) == B.entry(1, 0)
        H = LaurentMatrix.hstack([B, B])
        assert H.shape == (2, 4)

    def test_diagonal(self):
        D = LaurentMatrix.diagonal([LaurentPoly.one(), LaurentPoly.monomial(1.0, 2)])
        assert D.entry(1, 1).hi == 2
        assert D.entry(0, 1).is_zero

    def test_parahermitian_of_gram_product(self):
        rng = np.random.default_rng(28)
        A = random_matrix(rng, 3, 2, lo=0, hi=2)
        S = A @ A.adjoint()
        assert S.is_parahermitian(1e-12)
        assert not A.is_parahermitian(1e-9)

    def test_det_matches_sampled_determinant(self):
        rng = np.random.default_rng(29)
        M = random_matrix(rng, 3, 3, lo=0, hi=2)
        d = M.det()
        for z in sample_points():
            assert abs(d.eval(z) - np.linalg.det(M.eval(z))) < 1e-8

    def test_as_analytic_rejects_negative_mass(self):
        M = LaurentMatrix(1, 1, {-1: np.array([[1.0]]), 0: np.array([[1.0]])})
        with pytest.raises(ValueError):
            M.as_analytic(0.0)
        A = LaurentMatrix(1, 1, {-1: np.array([[1e-15]]), 0: np.array([[1.0]])})
        out = A.as_analytic(1e-12)
        assert isinstance(out, AnalyticPolyMatrix)
        assert out.lo == 0

    def test_zero_matrix_window(self):
        Z = LaurentMatrix.zeros(2, 2)
        assert Z.is_zero
        assert Z.lo is None and Z.hi is None

    def test_derivative_matches_entrywise(self):
        rng = np.random.default_rng(28)
        F = random_matrix(rng, 3, 2, lo=-3, hi=4)
        dF = F.derivative()
        assert dF.shape == (3, 2)
        assert sorted(dF.terms) == [-4, -3, -2, 0, 1, 2, 3]
        for i in range(3):
            for j in range(2):
                assert dF.entry(i, j) == F.entry(i, j).derivative()

    def test_derivative_of_constant_is_zero(self):
        C = LaurentMatrix.constant(np.arange(6.0).reshape(2, 3) + 1.0)
        dC = C.derivative()
        assert dC.is_zero
        assert dC.shape == (2, 3)


def test_laurent_from_unit_samples_round_trip():
    rng = np.random.default_rng(30)
    p = random_poly(rng, -2, 3)
    count = 16
    values = p.eval_unit_grid(count)
    q = laurent_from_unit_samples(values, -2, 3)
    assert (p - q).max_abs < 1e-12
