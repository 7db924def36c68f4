"""Arithmetic layer tests: polynomials, matrices, grids, and adjoints.

Oracles are direct evaluation at sample points: every algebraic identity
is checked by comparing coefficient-level results against pointwise
complex arithmetic on and off the unit circle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_dict_terms_refuse_a_dense_store_past_the_cap(monkeypatch):
    # The store is dense over the span, so the dict constructors refuse a
    # span whose store exceeds the cap, before allocating it.
    with pytest.raises(ValueError, match="span 1000000000000 of a scalar"):
        LaurentPoly({0: 1.0, 10**12: 2.0})
    with pytest.raises(ValueError, match="span 1000000000000 of a 8 x 8 matrix"):
        LaurentMatrix(8, 8, {0: np.eye(8), 10**12: np.eye(8)})
    monkeypatch.setattr("parafact.laurent._MAX_DENSE_COEFFS", 96)
    assert LaurentPoly({-5: 1.0, 90: 2.0}).span == 95
    with pytest.raises(ValueError, match="span 96 of a scalar"):
        LaurentPoly({-5: 1.0, 91: 2.0})
    assert LaurentMatrix(2, 3, {0: np.ones((2, 3)), 15: np.ones((2, 3))}).span == 15
    with pytest.raises(ValueError, match="span 16 of a 2 x 3 matrix needs more than 96"):
        LaurentMatrix(2, 3, {0: np.ones((2, 3)), 16: np.ones((2, 3))})
    # Arrays handed over whole are already allocated and pass unchecked.
    assert LaurentPoly.from_coeffs(np.ones(200)).span == 199


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

    def test_shape_error_names_the_first_bad_power(self):
        terms = {-1: np.eye(2), 4: np.zeros((2, 3)), 7: np.zeros(2)}
        with pytest.raises(ValueError, match=r"power 4 has shape \(2, 3\)"):
            LaurentMatrix(2, 2, terms)

    def test_non_finite_error_names_the_power(self):
        bad = np.eye(2, dtype=complex)
        bad[1, 0] = np.nan
        terms = {-2: np.eye(2), 5: bad, 9: np.ones((2, 2))}
        with pytest.raises(ValueError, match="non-finite coefficient at power 5$"):
            LaurentMatrix(2, 2, terms)

    def test_coefficients_are_read_only_copies(self):
        C = np.ones((2, 2), dtype=complex)
        M = LaurentMatrix(2, 2, {1: C, 2: np.zeros((2, 2))})
        C[0, 0] = 5.0
        assert M.coeff(1)[0, 0] == 1.0
        assert list(M.terms) == [1]
        with pytest.raises(ValueError):
            M.coeff(1)[0, 0] = 2.0

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

    @pytest.mark.parametrize("lo", [-3, 0, 2])
    def test_from_coeffs_strips_zero_end_slices(self, lo):
        rng = np.random.default_rng(40)
        C = np.zeros((7, 2, 3), dtype=complex)
        C[2] = rng.standard_normal((2, 3))
        C[5, 1, 2] = 2j
        M = LaurentMatrix.from_coeffs(C, lo)
        assert (M.lo, M.hi, M.span) == (lo + 2, lo + 5, 3)
        assert sorted(M.terms) == [lo + 2, lo + 5]
        assert M == LaurentMatrix(2, 3, {lo + 2: C[2], lo + 5: C[5]})
        Z = LaurentMatrix.from_coeffs(np.zeros((3, 2, 2)), lo)
        assert Z.is_zero and Z.lo is None and Z == LaurentMatrix.zeros(2, 2)

    def test_interior_zero_power_is_not_a_term(self):
        from parafact.fileio import matrix_to_text

        C = np.zeros((3, 2, 2), dtype=complex)
        C[0] = np.eye(2)
        C[2] = [[1.0, 2.0], [3.0, 4.0j]]
        M = LaurentMatrix.from_coeffs(C, -1)
        assert (M.lo, M.hi) == (-1, 1)
        assert list(M.terms) == [-1, 1]
        text = matrix_to_text(M)
        assert '"power": 0' not in text
        assert text == matrix_to_text(LaurentMatrix(2, 2, {-1: C[0], 1: C[2]}))

    def test_coeff_array_pads_with_zeros_and_the_store_is_read_only(self):
        C = np.arange(1.0, 13.0).reshape(3, 2, 2) + 0j
        C[1] = 0.0
        M = LaurentMatrix.from_coeffs(C, 1)
        A = M.coeff_array(-1, 5)
        assert A.shape == (7, 2, 2)
        assert np.array_equal(A[2:5], C)
        assert not A[:2].any() and not A[5:].any()
        assert not M.coeff_array(7, 9).any() and M.coeff_array(4, 3).shape == (0, 2, 2)
        A[2] = 99.0
        C[0] = 99.0
        assert M.coeff(1)[0, 0] == 1.0
        for n in (1, 2, 3):
            with pytest.raises(ValueError):
                M.coeff(n)[0, 0] = 5.0

    def test_analytic_from_coeffs_rejects_negative_powers(self):
        C = np.ones((2, 1, 1))
        with pytest.raises(ValueError):
            AnalyticPolyMatrix.from_coeffs(C, -1)
        C[0] = 0.0
        A = AnalyticPolyMatrix.from_coeffs(C, -1)
        assert isinstance(A, AnalyticPolyMatrix) and A.lo == 0

    def test_from_entries_matches_the_dict_constructor(self):
        p = LaurentPoly({-2: 1.0 + 1j, 1: 3.0})
        q = LaurentPoly({0: 2.0, 3: -1j})
        M = LaurentMatrix.from_entries([[p, 2.5], [0, q], [q, LaurentPoly.zero()]])
        want = LaurentMatrix(
            3,
            2,
            {
                -2: [[1.0 + 1j, 0], [0, 0], [0, 0]],
                0: [[0, 2.5], [0, 2.0], [2.0, 0]],
                1: [[3.0, 0], [0, 0], [0, 0]],
                3: [[0, 0], [0, -1j], [-1j, 0]],
            },
        )
        assert M == want
        assert LaurentMatrix.from_entries([[0, 0]]) == LaurentMatrix.zeros(1, 2)

    @pytest.mark.parametrize("lo, hi", [(0, 4), (2, 5), (-3, 2), (-2, -1)])
    @pytest.mark.parametrize("shape", [(3, 2), (2, 2), (1, 4)])
    def test_eval_of_an_array_matches_each_point_bit_for_bit(self, lo, hi, shape):
        # A 1 x 1 matrix is left out: there numpy rounds the batched and
        # the lone complex products differently (see LaurentMatrix.eval).
        rng = np.random.default_rng(41)
        F = random_matrix(rng, *shape, lo=lo, hi=hi)
        if hi - lo > 2:
            F = F - LaurentMatrix(*shape, {lo + 1: F.coeff(lo + 1)})
        z = np.array(sample_points() + [0.3j, -0.7 + 0.1j, 1e-3]).reshape(2, 4)
        values = F.eval(z)
        assert values.shape == z.shape + shape
        for idx in np.ndindex(z.shape):
            assert np.array_equal(values[idx], F.eval(z[idx]))
        assert F.eval(np.zeros(0)).shape == (0,) + shape

    def test_eval_at_zero_with_negative_powers_raises(self):
        rng = np.random.default_rng(42)
        F = random_matrix(rng, 2, 2, lo=-1, hi=1)
        with pytest.raises(ZeroDivisionError):
            F.eval(np.array([0.5, 0.0, 2.0]))
        with pytest.raises(ZeroDivisionError):
            F.eval(0.0)
        A = random_matrix(rng, 2, 2, lo=0, hi=2)
        assert np.array_equal(A.eval(np.array([0.5, 0.0]))[1], A.coeff(0))


def test_laurent_from_unit_samples_round_trip():
    rng = np.random.default_rng(30)
    p = random_poly(rng, -2, 3)
    count = 16
    values = p.eval_unit_grid(count)
    q = laurent_from_unit_samples(values, -2, 3)
    assert (p - q).max_abs < 1e-12


def loop_max_abs(M):
    return max((float(np.max(np.abs(C))) for C in M.terms.values()), default=0.0)


def loop_trim(M, tol):
    cut = tol * loop_max_abs(M)
    terms = {n: C for n, C in M.terms.items() if np.max(np.abs(C)) > cut}
    return LaurentMatrix(M.rows, M.cols, terms)


def loop_is_parahermitian(M, tol):
    """(answer, deviation) of the per-power loop, for square M."""
    dev = 0.0
    for n in set(M.terms) | {-n for n in M.terms}:
        d = np.max(np.abs(M.coeff(-n).conj().T - M.coeff(n)))
        dev = max(dev, float(d))
    return dev <= tol * loop_max_abs(M), dev


def sparse_noisy_matrix(rng, m):
    """A near-para-Hermitian m x m matrix with negative powers, some powers
    zeroed (and so dropped) and coefficient sizes over eleven decades."""
    N = int(rng.integers(0, 6))
    terms = {}
    for n in range(-N, N + 1):
        size = 10.0 ** rng.uniform(-8, 3)
        terms[n] = size * (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    for n in rng.choice(2 * N + 1, size=N, replace=False):
        terms[int(n) - N] = np.zeros((m, m))
    M = LaurentMatrix(m, m, terms)
    noise = LaurentMatrix(m, m, {n: 1e-9 * rng.standard_normal((m, m)) for n in terms})
    return 0.5 * (M + M.adjoint()) + noise


def test_stacked_reductions_equal_the_per_power_loop():
    rng = np.random.default_rng(31)
    for _ in range(60):
        M = sparse_noisy_matrix(rng, int(rng.integers(1, 5)))
        assert M.max_abs == loop_max_abs(M)
        for tol in (0.0, 1e-12, 1e-6, 1e-2, 0.5):
            assert M.trim(tol) == loop_trim(M, tol)
        _, dev = loop_is_parahermitian(M, 0.0)
        edge = dev / loop_max_abs(M)
        for tol in (0.0, np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0), 1e-6):
            assert M.is_parahermitian(tol) == loop_is_parahermitian(M, tol)[0]
    Z = LaurentMatrix.zeros(2, 2)
    assert Z.max_abs == 0.0 and Z.trim(0.5).is_zero and Z.is_parahermitian(0.0)
    assert not random_matrix(rng, 2, 3).is_parahermitian(1e9)


class DictPoly:
    """The scalar Laurent polynomial as it was before the dense store: a dict
    keyed by power, without exact zeros, in the order its builders insert.

    Kept as the reference for LaurentPoly, which must round every operation
    below as this class does.  Its sums run in the dict's insertion order.
    Every operand the library builds lists its powers in ascending order,
    and then a product agrees with the dense one in every bit.  A sum
    p + q where q brings powers below p's lists them after p's, and then a
    product (p + q) * r adds its terms in another order than the dense
    product, which always adds in ascending powers.  That case is not
    pinned here: the two differ in the last bits.
    """

    def __init__(self, terms=None):
        self._terms = {int(n): complex(c) for n, c in (terms or {}).items() if c != 0}

    @classmethod
    def of(cls, p):
        return cls(dict(p.terms))

    @property
    def lo(self):
        return min(self._terms) if self._terms else None

    @property
    def hi(self):
        return max(self._terms) if self._terms else None

    def coeff(self, n):
        return self._terms.get(int(n), 0j)

    def coeff_array(self, lo, hi):
        out = np.zeros(hi - lo + 1, dtype=complex)
        for n, c in self._terms.items():
            if lo <= n <= hi:
                out[n - lo] = c
        return out

    @property
    def max_abs(self):
        return max((abs(c) for c in self._terms.values()), default=0.0)

    def __add__(self, other):
        data = dict(self._terms)
        for n, c in other._terms.items():
            data[n] = data.get(n, 0j) + c
        return DictPoly(data)

    def __neg__(self):
        return DictPoly({n: -c for n, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        data = {}
        for n, a in self._terms.items():
            for m, b in other._terms.items():
                data[n + m] = data.get(n + m, 0j) + a * b
        return DictPoly(data)

    def adjoint(self):
        return DictPoly({-n: c.conjugate() for n, c in self._terms.items()})

    def derivative(self):
        return DictPoly({n - 1: n * c for n, c in self._terms.items() if n != 0})

    def eval(self, z):
        z = complex(z)
        if not self._terms:
            return 0j
        lo, hi = self.lo, self.hi
        acc = 0j
        for n in range(max(hi, 0), -1, -1):
            acc = acc * z + self._terms.get(n, 0j)
        if lo < 0:
            w = 1.0 / z
            neg = 0j
            for n in range(lo, 0):
                neg = neg * w + self._terms.get(n, 0j)
            acc += neg * w
        return acc

    def eval_unit_grid(self, count):
        folded = np.zeros(count, dtype=complex)
        for n, c in self._terms.items():
            folded[n % count] += c
        return np.fft.ifft(folded) * count

    def trim(self, tol=0.0):
        cut = tol * self.max_abs
        return DictPoly({n: c for n, c in self._terms.items() if abs(c) > cut})

    def is_parahermitian(self, tol=0.0):
        dev = 0.0
        for n in set(self._terms) | {-n for n in self._terms}:
            dev = max(dev, abs(self.coeff(-n).conjugate() - self.coeff(n)))
        return dev <= tol * self.max_abs


def same_bits(p, d):
    """p (a LaurentPoly) and d (a DictPoly) hold the same coefficients, bit for bit."""
    if p.is_zero or d.lo is None:
        return p.is_zero and d.lo is None
    return (p.lo, p.hi) == (d.lo, d.hi) and (
        p.coeff_array(p.lo, p.hi).tobytes() == d.coeff_array(d.lo, d.hi).tobytes()
    )


def reference_pair(rng):
    """A LaurentPoly with negative powers, interior exact zeros and one of
    eight scales from 1e-8 to 1e8, and its DictPoly, built in ascending powers."""
    lo = int(rng.integers(-6, 3))
    count = int(rng.integers(1, 14))
    c = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    c *= 10.0 ** rng.choice([-8, -5, -2, 0, 1, 3, 6, 8])
    c[1:-1][rng.random(max(count - 2, 0)) < 0.3] = 0.0
    terms = {lo + i: x for i, x in enumerate(c)}
    return LaurentPoly(terms), DictPoly(terms)


def test_dense_poly_rounds_as_the_dict_reference():
    rng = np.random.default_rng(43)
    points = [0.3 + 0.4j, -1.7 + 0.2j, np.exp(2.1j), 1e-3j, 25.0]
    for _ in range(400):
        (p, dp), (q, dq) = reference_pair(rng), reference_pair(rng)
        assert p.coeff_array(-9, 17).tobytes() == dp.coeff_array(-9, 17).tobytes()
        assert same_bits(p + q, dp + dq)
        assert same_bits(p - q, dp - dq)
        assert same_bits(p * q, dp * dq)
        assert same_bits(p * 2.5j, dp * DictPoly({0: 2.5j}))
        assert same_bits(p.adjoint(), dp.adjoint())
        assert same_bits(p.derivative(), dp.derivative())
        assert same_bits(p.derivative() * q, dp.derivative() * dq)
        for tol in (0.0, 1e-3, 0.3, 0.9):
            assert same_bits(p.trim(tol), dp.trim(tol))
        assert p.max_abs == dp.max_abs
        for z in points:
            assert np.array_equal(p.eval(z), dp.eval(z))
        for count in (1, 3, 8, 64):
            grid = p.eval_unit_grid(count)
            assert grid.tobytes() == dp.eval_unit_grid(count).tobytes()
        h, dh = p + p.adjoint() + q * 1e-9, dp + dp.adjoint() + dq * DictPoly({0: 1e-9})
        assert same_bits(h, dh)
        dev = max(abs(dh.coeff(-n).conjugate() - dh.coeff(n)) for n in range(-20, 21))
        edge = dev / dh.max_abs
        for tol in (0.0, np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0), 0.5):
            assert h.is_parahermitian(tol) == dh.is_parahermitian(tol)


IDENTITIES = settings(max_examples=60, derandomize=True, database=None, deadline=None)


@st.composite
def polys(draw):
    """A LaurentPoly with powers in -5..7, interior exact zeros, scale 1e-6..1e6."""
    lo = draw(st.integers(-5, 2))
    count = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    c[1:-1][rng.random(max(count - 2, 0)) < 0.3] = 0.0
    return LaurentPoly.from_coeffs(c * draw(st.sampled_from([1e-6, 1e-2, 1.0, 1e3, 1e6])), lo)


@st.composite
def matrix_pairs(draw):
    """(F, G) with F m x p and G p x n, powers in -3..4."""
    m, p, n = (draw(st.integers(1, 4)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    F = random_matrix(rng, m, p, lo=draw(st.integers(-3, 1)), hi=draw(st.integers(1, 3)))
    G = random_matrix(rng, p, n, lo=draw(st.integers(-2, 0)), hi=draw(st.integers(0, 4)))
    return F, G


@IDENTITIES
@given(polys(), polys())
def test_adjoint_of_a_product_is_the_reversed_product_of_adjoints(p, q):
    # Each power of both sides sums the same products in the same order.
    assert (p * q).adjoint() == q.adjoint() * p.adjoint()


@IDENTITIES
@given(polys(), polys())
def test_product_rule(p, q):
    lhs, rhs = (p * q).derivative(), p.derivative() * q + p * q.derivative()
    top = max(abs(p.lo), abs(p.hi)) + max(abs(q.lo), abs(q.hi))
    bound = 1e-14 * p.max_abs * q.max_abs * (top + 1) * (min(p.span, q.span) + 1)
    assert (lhs - rhs).max_abs <= bound


@IDENTITIES
@given(matrix_pairs())
def test_adjoint_of_a_matrix_product(pair):
    F, G = pair
    diff = (F @ G).adjoint() - G.adjoint() @ F.adjoint()
    assert diff.max_abs <= 1e-14 * F.max_abs * G.max_abs * F.cols * (F.span + G.span + 1)


@IDENTITIES
@given(matrix_pairs())
def test_entries_round_trip(pair):
    F, _ = pair
    entries = [[F.entry(i, j) for j in range(F.cols)] for i in range(F.rows)]
    assert LaurentMatrix.from_entries(entries) == F
    for i in range(F.rows):
        for j in range(F.cols):
            assert entries[i][j] == LaurentPoly(
                {n: C[i, j] for n, C in F.terms.items()}
            )
