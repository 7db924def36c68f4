"""Unit-norm rows, deficiency spectra, completion, and paraunitarity checks."""

import numpy as np
import pytest

from parafact.errors import (
    InvalidComparisonError,
    NotParaunitaryError,
    NumericalFailureError,
)
from parafact.instances import elementary_factor, gen_lossless
from parafact.laurent import LaurentMatrix, LaurentPoly
from parafact.paraunitary import (
    LosslessRow,
    _peel_completion,
    check_unit_norm_row,
    compare_completions,
    complete_to_paraunitary,
    deficiency_matrix,
    paraunitary_degree,
    verify_paraunitary,
)
from parafact.rankdef import RankDefOptions, compare_factors, spectral_factor


def haar_row():
    return LosslessRow(
        [LaurentPoly({0: 0.5, 1: 0.5}), LaurentPoly({0: 0.5, 1: -0.5})]
    )


class TestLosslessRow:
    def test_width_length_and_matrix(self):
        row = haar_row()
        assert row.width == 2
        assert row.length == 1
        M = row.as_matrix()
        assert M.shape == (1, 2)
        assert M.entry(0, 1) == row.entries[1]

    def test_rejects_nonanalytic_entries(self):
        with pytest.raises(ValueError):
            LosslessRow([LaurentPoly({-1: 1.0})])

    def test_rejects_inconsistent_declared_length(self):
        with pytest.raises(ValueError):
            LosslessRow([LaurentPoly({0: 1.0, 2: 1.0})], length=1)
        with pytest.raises(ValueError):
            LosslessRow([LaurentPoly({0: 1.0})], length=3)

    def test_constant_entries_promote(self):
        row = LosslessRow([1.0, 0.0])
        assert row.length == 0


class TestUnitNormAndDeficiency:
    def test_haar_row_is_unit_norm(self):
        assert check_unit_norm_row(haar_row())

    def test_scaled_row_is_not(self):
        row = LosslessRow([LaurentPoly({0: 0.6, 1: 0.5}), LaurentPoly({0: 0.5, 1: -0.5})])
        assert not check_unit_norm_row(row)

    def test_deficiency_matrix_is_projector_complement(self):
        row = haar_row()
        S = deficiency_matrix(row)
        assert S.is_parahermitian(1e-12)
        for j in range(16):
            z = np.exp(2j * np.pi * j / 16)
            M = S.eval(z)
            M = 0.5 * (M + M.conj().T)
            eigs = np.linalg.eigvalsh(M)
            assert eigs.min() > -1e-12
            assert eigs.max() < 1.0 + 1e-12
            assert np.sum(eigs < 1e-9) == 1

    def test_deficiency_matrix_rejects_non_unit_rows(self):
        row = LosslessRow([LaurentPoly({0: 2.0})])
        with pytest.raises(ValueError):
            deficiency_matrix(row)


class TestVerifyParaunitary:
    def test_identity_passes_with_degree_zero(self):
        report = verify_paraunitary(LaurentMatrix.identity(3))
        assert report.is_paraunitary
        assert report.degree == 0
        assert abs(report.det_phase - 1.0) < 1e-12
        assert report.passed

    def test_elementary_factor_passes_with_degree_one(self):
        rng = np.random.default_rng(80)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        report = verify_paraunitary(elementary_factor(v))
        assert report.is_paraunitary
        assert report.degree == 1
        assert abs(abs(report.det_phase) - 1.0) < 1e-10

    def test_scaled_identity_fails(self):
        report = verify_paraunitary(LaurentMatrix.constant(2.0 * np.eye(2)))
        assert not report.is_paraunitary
        assert not report.passed

    def test_needs_square_input(self):
        with pytest.raises(ValueError):
            verify_paraunitary(LaurentMatrix.zeros(1, 2))

    def test_degree_of_elementary_products(self):
        rng = np.random.default_rng(81)
        M = LaurentMatrix.identity(3)
        count = 4
        for _ in range(count):
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            M = (M @ elementary_factor(v)).trim(0.0)
        assert paraunitary_degree(M) == count

    def test_degree_rejects_non_paraunitary(self):
        with pytest.raises(NotParaunitaryError):
            paraunitary_degree(LaurentMatrix.constant(2.0 * np.eye(2)))

    def test_rejection_names_the_failing_verdict(self):
        U = LaurentMatrix(2, 2, {0: [[1.0, 1e-6], [0.0, 0.0]], 1: [[0.0, 0.0], [0.0, 1.0]]})
        with pytest.raises(NotParaunitaryError) as info:
            paraunitary_degree(U)
        message = str(info.value)
        assert "coefficient_identity 1.000e-06" in message
        assert "grid_unitarity" in message
        assert "det_monomial" not in message


class TestCompleteToParaunitary:
    def test_haar_row_completion(self):
        row = haar_row()
        U, report = complete_to_paraunitary(row)
        assert U.shape == (2, 2)
        assert report.is_paraunitary
        assert report.degree == 1
        for j in range(2):
            assert U.entry(0, j) == row.entries[j]

    def test_monomial_scalar_row(self):
        row = LosslessRow([LaurentPoly.monomial(1j, 2)])
        U, report = complete_to_paraunitary(row)
        assert U.shape == (1, 1)
        assert report.degree == 2

    def test_constant_unit_row(self):
        row = LosslessRow([1.0, 0.0, 0.0])
        U, report = complete_to_paraunitary(row)
        assert report.degree == 0
        assert np.max(np.abs(U.eval(1.0) @ U.eval(1.0).conj().T - np.eye(3))) < 1e-9

    def test_non_unit_norm_rejected(self):
        row = LosslessRow([LaurentPoly({0: 1.0, 1: 1.0}), LaurentPoly({0: 1.0})])
        with pytest.raises(ValueError):
            complete_to_paraunitary(row)

    def test_generated_row_round_trip(self):
        inst = gen_lossless(3, 2, 820)
        U, report = complete_to_paraunitary(inst.row)
        assert report.is_paraunitary
        assert report.degree == inst.row.length
        for j in range(3):
            assert U.entry(0, j) == inst.row.entries[j]
        V = compare_completions(U, inst.secret_paraunitary, tol=1e-6)
        assert V is not None
        k = U.rows - 1
        assert np.max(np.abs(V.conj().T @ V - np.eye(k))) < 1e-6


    @pytest.mark.parametrize("trial", range(6))
    def test_ill_conditioned_completion_survives_last_bit_changes(self, trial):
        # The deficiency spectrum of (6,6) seed 47 is ill-conditioned.  The
        # peeled rows sit about 3e-11 off the secret with a residual near
        # 1e-12; the final polish takes the residual to 2e-16 but moves the
        # rows along directions it barely sees, to 2e-10 to 5e-10 off the
        # secret.  They must stay within 1e-9 whatever the last bits of the
        # row.
        inst = gen_lossless(6, 6, 47)
        rng = np.random.default_rng(trial)
        entries = [
            LaurentPoly(
                {
                    n: c * (1.0 + 1e-16 * trial * rng.standard_normal())
                    for n, c in e.terms.items()
                }
            )
            for e in inst.row.entries
        ]
        U, _ = complete_to_paraunitary(LosslessRow(entries, inst.row.length))
        assert compare_completions(inst.secret_paraunitary, U, 1e-9) is not None


def assert_completes(row):
    """The completion verifies with degree N and keeps the row bit for bit."""
    U, _ = complete_to_paraunitary(row)
    check = verify_paraunitary(U)
    assert check.is_paraunitary, check.failures()
    assert check.degree == row.length
    assert all(U.entry(0, j) == e for j, e in enumerate(row.entries))
    return U


class TestPeelCompletion:
    def test_peeled_rows_complete_the_row_before_any_polish(self):
        M = gen_lossless(4, 8, 3).row.as_matrix()
        H = np.stack([M.coeff(n)[0] for n in range(9)])
        lower = _peel_completion(H)
        assert lower.shape == (9, 4, 3)
        coeffs = np.concatenate([H[:, None], np.swapaxes(lower, 1, 2)], axis=1)
        U = LaurentMatrix(4, 4, dict(enumerate(coeffs)))
        report = verify_paraunitary(U, 1e-12)
        assert report.is_paraunitary, report.failures()
        assert report.degree == 8

    def test_vanishing_top_coefficient_names_the_step(self):
        H = np.array([[1.0, 0.0], [0.0, 0.0]])
        message = r"d = 1: \|\|h_d\|\| = 0\.000e\+00"
        with pytest.raises(NumericalFailureError, match=message):
            _peel_completion(H)

    def test_scalar_row_with_side_mass_is_refused(self):
        row = LosslessRow([LaurentPoly({1: 3e-11, 2: 1.0})])
        with pytest.raises(NumericalFailureError, match="det_monomial"):
            complete_to_paraunitary(row, RankDefOptions(tol=1e-11))

    @pytest.mark.parametrize(
        "m, N, seed", [(3, 4, s) for s in range(10)] + [(4, 8, s) for s in range(6)]
    )
    def test_lower_block_is_the_spectral_factor(self, m, N, seed):
        # The paper's claim: the added rows, transposed, are the canonical
        # factor of the deficiency spectrum I - h^T (h^T)~.  Both sides are
        # canonicalized, so the mixing between them is the identity.
        row = gen_lossless(m, N, seed).row
        U, _ = complete_to_paraunitary(row)
        lower = U.submatrix(range(1, m), range(m)).transpose()
        factor, _ = spectral_factor(deficiency_matrix(row), rank=m - 1)
        W = compare_factors(factor, lower, RankDefOptions(tol=1e-9))
        assert W is not None
        assert np.max(np.abs(W - np.eye(m - 1))) < 1e-9

    def test_projector_spectrum_takes_the_rational_fallback(self):
        # The regularized start stalls near 2.5e-10 here, with no interior
        # rank drop, at a factor that is not the outer one; the fallback
        # must run and still give the completion's lower block.
        row = gen_lossless(4, 8, 1).row
        U, _ = complete_to_paraunitary(row)
        lower = U.submatrix(range(1, 4), range(4)).transpose()
        factor, report = spectral_factor(deficiency_matrix(row), rank=3)
        assert report.path == "rational"
        W = compare_factors(factor, lower, RankDefOptions(tol=1e-9))
        assert W is not None
        assert np.max(np.abs(W - np.eye(3))) < 1e-9

    def test_rational_fallback_matches_the_lower_block_at_seed_34(self):
        # Drop clearing with a one-start re-polish per point and reflected
        # denominator roots as extra candidates left this row 5e-8 off the
        # lower block; roots.clear_rank_drops on the numerator does not.
        row = gen_lossless(4, 8, 34).row
        U, _ = complete_to_paraunitary(row)
        lower = U.submatrix(range(1, 4), range(4)).transpose()
        factor, report = spectral_factor(deficiency_matrix(row), rank=3)
        assert report.path == "rational"
        W = compare_factors(factor, lower, RankDefOptions(tol=1e-9))
        assert W is not None
        assert np.max(np.abs(W - np.eye(3))) < 1e-9


class TestFormerCompletionFailures:
    """Rows on which completion through spectral_factor raised."""

    @pytest.mark.parametrize("m, N, seed", [(6, 6, 8), (4, 8, 159), (4, 8, 177)])
    def test_det_monomial_failures_now_match_the_secret(self, m, N, seed):
        inst = gen_lossless(m, N, seed)
        U = assert_completes(inst.row)
        assert compare_completions(inst.secret_paraunitary, U, 1e-9) is not None

    @pytest.mark.parametrize(
        "m, N, seed",
        [(4, 8, 54), (4, 8, 75), (4, 8, 88), (6, 6, 21), (4, 8, 23), (4, 8, 123)],
    )
    def test_degree_and_residual_failures_now_complete(self, m, N, seed):
        assert_completes(gen_lossless(m, N, seed).row)


def test_completion_ladder():
    # Every row completes and verifies with degree N.  Matching the secret is
    # not asserted: a few rows with a small top coefficient miss it honestly.
    failures = []
    for (m, N), count in (((3, 4), 100), ((4, 8), 60), ((6, 6), 30)):
        for seed in range(count):
            try:
                assert_completes(gen_lossless(m, N, seed).row)
            except Exception as exc:
                name = type(exc).__name__
                failures.append("(%d,%d) seed %d: %s: %s" % (m, N, seed, name, exc))
    assert not failures, "\n".join(failures)


class TestCompareCompletions:
    def test_same_completion_gives_identity(self):
        row = haar_row()
        U, _ = complete_to_paraunitary(row)
        V = compare_completions(U, U)
        assert V is not None
        assert np.max(np.abs(V - np.eye(1))) < 1e-10

    def test_row_mixing_is_recovered(self):
        inst = gen_lossless(3, 1, 830)
        U, _ = complete_to_paraunitary(inst.row)
        theta = 0.4
        W = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, np.cos(theta), -np.sin(theta)],
                [0.0, np.sin(theta), np.cos(theta)],
            ]
        )
        mixed = LaurentMatrix.constant(W) @ U
        V = compare_completions(U, mixed, tol=1e-8)
        assert V is not None
        assert np.max(np.abs(V - W[1:, 1:])) < 1e-7

    def test_different_first_rows_raise(self):
        U1, _ = complete_to_paraunitary(haar_row())
        other = LosslessRow(
            [LaurentPoly({0: 0.5, 1: -0.5}), LaurentPoly({0: 0.5, 1: 0.5})]
        )
        U2, _ = complete_to_paraunitary(other)
        with pytest.raises(InvalidComparisonError):
            compare_completions(U1, U2)

    def test_shape_mismatch_raises(self):
        U1, _ = complete_to_paraunitary(haar_row())
        with pytest.raises(ValueError):
            compare_completions(U1, LaurentMatrix.identity(3))
