"""Property tests for rank estimation, pivot selection, drop finding,
column reflection, linear division and completion.

Spectra are built as A A~ from a random m x k analytic A, so their rank on
the circle is k by construction, and planted rank drops are known exactly.
Lossless rows are cut from random products of degree-one paraunitary factors.
The examples are derandomized and few, so the run is reproducible and short.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from parafact.instances import gen_lossless, gen_spectrum
from parafact.laurent import LaurentMatrix, LaurentPoly
from parafact.paraunitary import complete_to_paraunitary, verify_paraunitary
from parafact.rankdef import (
    compare_factors,
    estimate_rank,
    find_rank_drop_points,
    select_pivot,
    spectral_factor,
    verify_factorization,
)
from parafact.roots import divide_linear, reflect_column_zero

SETTINGS = settings(max_examples=40, derandomize=True, database=None, deadline=None)

U_ROUND = np.finfo(float).eps / 2


@st.composite
def spectra(draw):
    """(S, k): a rank-k m x m spectrum of order N with a random factor."""
    m = draw(st.integers(1, 5))
    k = draw(st.integers(1, m))
    N = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = LaurentMatrix(
        m,
        k,
        {
            n: rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
            for n in range(N + 1)
        },
    )
    return (A @ A.adjoint()).trim(0.0), k


@SETTINGS
@given(spectra(), st.data(), st.floats(1e-3, 1e3))
def test_rank_is_invariant_under_permutation_and_scaling(case, data, c):
    S, k = case
    perm = data.draw(st.permutations(range(S.rows)))
    assert estimate_rank(S) == k
    assert estimate_rank(S.permuted(perm)) == k
    assert estimate_rank(S * c) == k


@SETTINGS
@given(spectra())
def test_screen_and_sampled_rank_agree(case):
    """spectral_factor counts the screen's eigenvalues on the turned order
    grid; estimate_rank counts singular values at the same points."""
    S, k = case
    assert spectral_factor(S)[1].detected_rank == estimate_rank(S) == k


@SETTINGS
@given(spectra())
def test_pivot_head_block_is_nonsingular_on_the_circle(case):
    S, k = case
    perm = select_pivot(S, k)
    assert sorted(perm) == list(range(S.rows))
    samples = S.permuted(perm).eval_unit_grid(32)
    for M in samples:
        head = np.linalg.svd(M[:k, :k], compute_uv=False)
        whole = np.linalg.svd(M, compute_uv=False)
        assert head[-1] > 1e-8 * whole[0]


@SETTINGS
@given(spectra(), st.data(), st.floats(1e-3, 1e3))
def test_rank_deficient_factor_follows_permutation_and_scaling(case, data, c):
    S, k = case
    assume(k < S.rows)
    perm = data.draw(st.permutations(range(S.rows)))
    F, _ = spectral_factor(S)
    G, _ = spectral_factor(S.permuted(perm))
    assert compare_factors(F.submatrix(perm, range(k)), G) is not None
    H, _ = spectral_factor(S * c)
    assert compare_factors(F * np.sqrt(c), H) is not None


@SETTINGS
@given(spectra(), st.integers(0, 2**32 - 1))
def test_factor_of_a_rotated_spectrum_is_the_rotated_factor(case, seed):
    # G G~ = V S V^H = (V F) (V F)~, so G and V F are factors of one
    # spectrum and differ by a constant unitary on the right.
    S, _ = case
    rng = np.random.default_rng(seed)
    m = S.rows
    Q, R = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    V = LaurentMatrix.constant(Q * (np.diag(R) / np.abs(np.diag(R))))
    F, _ = spectral_factor(S)
    G, _ = spectral_factor(V @ S @ V.adjoint())
    assert compare_factors(V @ F, G) is not None


def plant(F, zeros):
    """(planted, reflected): column 0 of F times (z - a), and times
    (1 - conj(a) z), for every a in zeros."""
    zero_col = LaurentPoly.one()
    reflected_col = LaurentPoly.one()
    for a in zeros:
        zero_col = zero_col * LaurentPoly({0: -a, 1: 1.0})
        reflected_col = reflected_col * LaurentPoly({0: 1.0, 1: -a.conjugate()})
    rest = [LaurentPoly.one()] * (F.cols - 1)
    planted = F @ LaurentMatrix.diagonal([zero_col] + rest)
    reflected = F @ LaurentMatrix.diagonal([reflected_col] + rest)
    return planted, reflected


@st.composite
def planted_zeros(draw):
    """(planted, reflected, zeros): a factor with interior zeros, the outer
    factor of its spectrum, and the zeros.

    An outer factor from a zero-free instance is rotated by a random
    constant unitary.  Column 0 is then multiplied by (z - a) for planted,
    and by (1 - conj(a) z) for reflected, for one or two points a with
    |a| in [0, 0.9], more than 0.05 apart.  The origin and its neighbourhood
    are included: there the drop finder's unpolished origin probe and the
    polished pencil eigenvalues meet.
    """
    m = draw(st.integers(1, 4))
    k = draw(st.integers(1, m))
    N = draw(st.integers(1, 3))
    outer = gen_spectrum(m, k, N, draw(st.integers(0, 10**6)), interior_zero_free=True)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    Q, R = np.linalg.qr(Z)
    U = Q * (np.diag(R) / np.abs(np.diag(R)))
    F = outer.secret_factor @ LaurentMatrix.constant(U)
    zeros = []
    for _ in range(draw(st.integers(1, 2))):
        r = draw(st.floats(0.0, 0.9))
        theta = draw(st.floats(0.0, 2.0 * np.pi))
        a = complex(r * np.exp(1j * theta))
        assume(all(abs(a - b) > 0.05 for b in zeros))
        zeros.append(a)
    return plant(F, zeros) + (zeros,)


def assert_found_and_reflected(planted, reflected, zeros):
    found = find_rank_drop_points(planted)
    assert len(found) == len(set(zeros))
    for a in zeros:
        assert min(abs(b - a) for b in found) <= 1e-8
    S = (planted @ planted.adjoint()).trim(0.0)
    factor, _ = spectral_factor(S)
    assert compare_factors(reflected, factor) is not None


@SETTINGS
@given(planted_zeros())
def test_planted_zeros_are_found_and_reflected(case):
    assert_found_and_reflected(*case)


@pytest.mark.parametrize("zeros", [[0j], [0j, 0j]], ids=["simple", "double"])
def test_zeros_at_the_origin_are_found_and_reflected(zeros):
    F = gen_spectrum(3, 2, 2, 5, interior_zero_free=True).secret_factor
    assert_found_and_reflected(*plant(F, zeros), zeros)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 1, 2), (2, 1, 2)])
def test_scalar_zero_next_to_the_origin_is_reflected(shape, seed):
    # The outer factor's top coefficient, and its mirror in the symbol, are
    # about 1e-13 of the largest: at the edge of the companion-matrix trim.
    F = gen_spectrum(*shape, seed, interior_zero_free=True).secret_factor
    planted, reflected = plant(F, [1e-13 * np.exp(0.7j)])
    S = (planted @ planted.adjoint()).trim(0.0)
    factor, report = spectral_factor(S)
    assert report.passed
    assert verify_factorization(S, factor).passed
    assert compare_factors(reflected, factor) is not None


def test_spectral_factor_and_verify_agree_on_the_order():
    # The planted zero leaves S's top power at 4e-13 of its largest and the
    # factor's at 1e-12 of its own: trimming each at 1e-12 of itself once
    # read the factor as one order above the spectrum.
    F = gen_spectrum(2, 1, 2, 9, interior_zero_free=True).secret_factor
    planted, _ = plant(F, [1e-12 * np.exp(0.7j)])
    S = (planted @ planted.adjoint()).trim(0.0)
    factor, report = spectral_factor(S)
    verified = verify_factorization(S, factor)
    assert report.passed and verified.passed
    assert report.order == verified.order


def test_constant_factor_has_no_drops():
    rng = np.random.default_rng(6)
    F = LaurentMatrix.constant(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
    assert find_rank_drop_points(F) == []


@st.composite
def column_zeros(draw):
    """(F, a, basis): a random m x k factor of order N whose first nu
    columns, after a random constant unitary, vanish at an interior a with
    |a| <= 0.9; and the nu-column null basis of F(a)."""
    m = draw(st.integers(1, 5))
    k = draw(st.integers(1, m))
    N = draw(st.integers(1, 5))
    nu = draw(st.integers(1, k))
    a = complex(draw(st.floats(0.0, 0.9)) * np.exp(1j * draw(st.floats(0.0, 2.0 * np.pi))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = LaurentMatrix.from_coeffs(
        rng.standard_normal((N, m, k)) + 1j * rng.standard_normal((N, m, k))
    )
    zero = LaurentPoly({0: -a, 1: 1.0})
    plant = LaurentMatrix.diagonal([zero] * nu + [LaurentPoly.one()] * (k - nu))
    Q, R = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    F = base @ plant @ LaurentMatrix.constant(Q * (np.diag(R) / np.abs(np.diag(R))))
    return F, a, np.linalg.svd(F.eval(a))[2][-nu:].conj().T


def reflection_error_bound(F, a, rem):
    """A bound on ||G(z) - F(z) U D(z)||_2 on the unit circle, where G, U
    and rem are reflect_column_zero's result and D(z) = diag(b(z) I_nu, I),
    b(z) = (1 - conj(a) z)/(z - a), |b(z)| = 1 on the circle.

    With c = max |F_n|, u the unit roundoff and Q = sqrt(k) c / (1 - |a|),
    which bounds the quotient coefficients, each coefficient of each entry
    of the error carries at most
      2 (k + 2) u sqrt(k) c        the rotation C_n U (a length-k inner product),
      rem + 4 u (2 Q + sqrt(k) c)  the exact remainder against the measured one,
      8 u Q                        the product by (1 - conj(a) z),
    because G's first nu columns are b(z) (C(z) U + rotation error - r(z))
    plus the last product's rounding, and |b(z)| = 1 on the circle.  The
    d + 1 powers and the m k entries then give the bound in the 2-norm.
    """
    m, k = F.shape
    c = F.max_abs
    Q = np.sqrt(k) * c / (1.0 - abs(a))
    e = 2 * (k + 2) * U_ROUND * np.sqrt(k) * c + rem + 4 * U_ROUND * (2 * Q + np.sqrt(k) * c)
    e += 8 * U_ROUND * Q
    return np.sqrt(m * k) * ((F.hi or 0) + 1) * e


@SETTINGS
@given(column_zeros())
def test_reflection_keeps_the_circle_singular_values_and_moves_the_zero(case):
    # This is the fact a clearing loop's single gate rests on: by Weyl's
    # inequality each singular value of G(z) is within the bound of F(z)'s,
    # and G G~ within 2 sigma_max(F(z)) bound + bound^2 of F F~.
    F, a, basis = case
    nu = basis.shape[1]
    G, U, rem = reflect_column_zero(F, a, basis)
    k = F.cols
    assert np.max(np.abs(U.conj().T @ U - np.eye(k))) <= 10 * k * U_ROUND
    bound = reflection_error_bound(F, a, rem)
    zs = np.exp(2j * np.pi * np.arange(16) / 16)
    for Fz, Gz in zip(F.eval(zs), G.eval(zs)):
        sf = np.linalg.svd(Fz, compute_uv=False)
        sg = np.linalg.svd(Gz, compute_uv=False)
        assert np.max(np.abs(sg - sf)) <= bound
        gram = np.linalg.norm(Gz @ Gz.conj().T - Fz @ Fz.conj().T, 2)
        assert gram <= 2 * sf[0] * bound + bound**2
    # The first nu columns are (1 - conj(a) z) q(z), so they vanish at
    # 1/conj(a): sum_n G_n conj(a)^(d - n), which telescopes to zero, is
    # left with the rounding of the last product (8 u Q / (1 - |a|)) and
    # of its own Horner evaluation.
    d = F.hi
    C = G.coeff_array(0, d)[:, :, :nu]
    w = a.conjugate()
    at_mirror = np.zeros(C.shape[1:], dtype=complex)
    for Cn in C:
        at_mirror = at_mirror * w + Cn
    weights = np.abs(w) ** np.arange(d, -1, -1)
    Q = np.sqrt(k) * F.max_abs / (1.0 - abs(a))
    horner = 8 * (d + 1) * U_ROUND * np.tensordot(weights, np.abs(C), axes=1)
    assert np.all(np.abs(at_mirror) <= 8 * U_ROUND * Q / (1.0 - abs(a)) + horner)


@SETTINGS
@given(
    st.integers(1, 8),
    st.floats(0.0, 3.0),
    st.floats(0.0, 2.0 * np.pi),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_linear_division_leaves_its_remainder(d, r, theta, exact, seed):
    # p = (z - a) q + r0.  Inside the closed disk the top-down recurrence
    # leaves the constant r0 as its remainder; outside it the bottom-up one
    # divides exact multiples.  Each of the d steps rounds a product and a
    # sum of terms below (d + 1) max(|p|, |q|) (1 + |a|), and the error
    # carried between steps is scaled by |a| or 1/|a|, at most one.
    rng = np.random.default_rng(seed)
    a = complex(r * np.exp(1j * theta))
    q = LaurentPoly.from_coeffs(rng.standard_normal(d) + 1j * rng.standard_normal(d))
    r0 = 0j if exact or r > 1.0 else complex(rng.standard_normal(), rng.standard_normal())
    p = LaurentPoly({0: -a, 1: 1.0}) * q + r0
    got, rem = divide_linear(p, a)
    size = (d + 1) * max(p.max_abs, q.max_abs) * (1.0 + abs(a))
    tol = 8 * (d + 2) * U_ROUND * size
    assert (got - q).max_abs <= tol
    assert abs(rem - abs(r0)) <= (2.0 + abs(a)) * tol
    left = p - LaurentPoly({0: -a, 1: 1.0}) * got
    where = 0 if abs(a) <= 1.0 else d
    assert all(abs(c) <= (2.0 + abs(a)) * tol for n, c in left.terms.items() if n != where)


@SETTINGS
@given(st.integers(1, 5), st.integers(0, 6), st.integers(0, 10**6))
def test_completion_is_paraunitary_of_degree_n_and_keeps_the_row(m, N, seed):
    row = gen_lossless(m, N, seed).row
    U, _ = complete_to_paraunitary(row)
    report = verify_paraunitary(U)
    assert report.is_paraunitary, report.failures()
    assert report.degree == N
    assert all(U.entry(0, j) == e for j, e in enumerate(row.entries))
