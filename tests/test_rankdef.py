"""Rank-deficient factorization: pipeline stages, driver, and verification.

Stage tests check each operation against the algebraic identity it must
satisfy at unit-circle samples; driver tests check the end-to-end contract
on seeded instances with known rank and order.
"""

import numpy as np
import pytest
import scipy.linalg

from parafact.errors import (
    DegenerateInputError,
    IndeterminateError,
    NotFactorableError,
    NumericalFailureError,
)
from parafact.fullrank import factor_positive_definite
from parafact.instances import gen_lossless, gen_spectrum
from parafact.laurent import LaurentMatrix, LaurentPoly
from parafact.paraunitary import deficiency_matrix
from parafact.rankdef import (
    _TAG_PIVOT,
    _TAG_RANK,
    _circle_samples,
    _rng,
    RankDefOptions,
    check_rank_identity,
    compare_factors,
    estimate_rank,
    find_rank_drop_points,
    fix_rank_drop,
    _entrywise_evaluator,
    _refine_drop_point,
    remove_inner_poles,
    select_pivot,
    spectral_factor,
    stack_rational_factor,
    tail_quotient,
    verify_factorization,
)


def circle_points(count=33):
    return np.exp(2j * np.pi * np.arange(count) / count)


def rank_k_spectrum(rng, m, k, N):
    terms = {
        n: (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k)))
        / np.sqrt(2)
        for n in range(N + 1)
    }
    A = LaurentMatrix(m, k, terms)
    return (A @ A.adjoint()).trim(0.0), A


class TestRankAndPivot:
    def test_estimate_rank_matches_construction(self):
        rng = np.random.default_rng(60)
        for m, k, N in [(2, 1, 2), (3, 2, 1), (4, 2, 3), (5, 5, 1)]:
            S, _ = rank_k_spectrum(rng, m, k, N)
            assert estimate_rank(S) == k

    def test_estimate_rank_zero_matrix(self):
        assert estimate_rank(LaurentMatrix.zeros(2, 2)) == 0

    def test_estimate_rank_needs_square(self):
        with pytest.raises(ValueError):
            estimate_rank(LaurentMatrix.zeros(2, 3))

    def test_select_pivot_head_is_nonsingular(self):
        rng = np.random.default_rng(61)
        S, _ = rank_k_spectrum(rng, 4, 2, 2)
        perm = select_pivot(S, 2)
        assert sorted(perm) == [0, 1, 2, 3]
        head = S.permuted(perm).submatrix(range(2), range(2))
        for z in circle_points(17):
            sv = np.linalg.svd(head.eval(z), compute_uv=False)
            assert sv[-1] > 1e-6 * sv[0]

    def test_rank_identity_on_true_rank(self):
        rng = np.random.default_rng(62)
        S, _ = rank_k_spectrum(rng, 4, 2, 2)
        perm = select_pivot(S, 2)
        check = check_rank_identity(S, perm, 2)
        assert check.passed

    def test_rank_identity_rejects_understated_rank(self):
        rng = np.random.default_rng(63)
        S, _ = rank_k_spectrum(rng, 3, 2, 1)
        perm = select_pivot(S, 1)
        check = check_rank_identity(S, perm, 1)
        assert not check.passed


def pointwise_samples(S, opts, tag):
    """The sampled spectrum, one S.eval call per point of the tag's stream."""
    count = 2 * (S.hi or 0) + 17
    angles = _rng(opts.rng_seed, tag).uniform(0.0, 2.0 * np.pi, count)
    return [S.eval(np.exp(1j * theta)) for theta in angles]


def pointwise_rank(S, opts):
    best = 0
    for M in pointwise_samples(S, opts, _TAG_RANK):
        sv = np.linalg.svd(M, compute_uv=False)
        if sv[0] > 0:
            best = max(best, int(np.sum(sv > opts.rank_tol * sv[0])))
    return best


def pointwise_pivot(S, k, opts):
    """Pivot selection over per-point samples and per-sample pivoted QR."""
    m = S.rows
    samples = pointwise_samples(S, opts, _TAG_PIVOT)
    scales = [np.linalg.svd(M, compute_uv=False)[0] for M in samples]
    candidates = [tuple(range(k))]
    for M in [np.vstack(samples)] + samples:
        _, _, piv = scipy.linalg.qr(M, mode="economic", pivoting=True)
        candidates.append(tuple(sorted(int(i) for i in piv[:k])))

    def head_minsv(idx, M):
        return np.linalg.svd(M[np.ix_(idx, idx)], compute_uv=False)[-1]

    best_idx, best_score = None, -1.0
    for idx in dict.fromkeys(candidates):
        score = min(
            head_minsv(idx, M) / s if s > 0 else 0.0 for M, s in zip(samples, scales)
        )
        if score > best_score:
            best_idx, best_score = idx, score
    return best_idx + tuple(i for i in range(m) if i not in best_idx)


SAMPLED_SPECTRA = [
    pytest.param(
        lambda s, shape=shape: gen_spectrum(*shape, s).spectrum, id="%dx%dx%d" % shape
    )
    for shape in [(1, 1, 24), (4, 4, 4), (3, 3, 8), (6, 6, 3), (4, 2, 4), (6, 3, 3)]
] + [
    pytest.param(
        lambda s, shape=shape: deficiency_matrix(gen_lossless(*shape, s).row),
        id="lossless-%dx%d" % shape,
    )
    for shape in [(3, 4), (4, 8)]
]


class TestBatchedSampling:
    @pytest.mark.parametrize("make", SAMPLED_SPECTRA)
    def test_samples_match_pointwise_eval(self, make):
        opts = RankDefOptions()
        for seed in range(4):
            S = make(seed)
            got = _circle_samples(S, opts, _TAG_PIVOT)
            want = np.array(pointwise_samples(S, opts, _TAG_PIVOT))
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("make", SAMPLED_SPECTRA)
    def test_rank_and_pivot_match_pointwise_reference(self, make):
        opts = RankDefOptions()
        for seed in range(4):
            S = make(seed)
            k = estimate_rank(S, opts)
            assert k == pointwise_rank(S, opts)
            assert select_pivot(S, k, opts) == pointwise_pivot(S, k, opts)

    def test_rank_two_spectrum_has_no_full_rank_pivot(self):
        rng = np.random.default_rng(80)
        S, _ = rank_k_spectrum(rng, 4, 2, 2)
        with pytest.raises(DegenerateInputError):
            select_pivot(S, 4)

    @pytest.mark.parametrize("shape", [(1, 1, 24), (4, 4, 4), (3, 3, 8), (6, 6, 3)])
    def test_full_rank_factor_needs_no_drop_clearing(self, shape):
        for seed in range(2):
            S = gen_spectrum(*shape, seed).spectrum
            assert find_rank_drop_points(factor_positive_definite(S)) == []
            _, report = spectral_factor(S)
            assert report.detected_rank == shape[0]
            assert report.pole_ops == () and report.zero_ops == ()


class TestPipelineStages:
    def setup_method(self):
        rng = np.random.default_rng(64)
        self.m, self.k, self.N = 4, 2, 2
        self.S, _ = rank_k_spectrum(rng, self.m, self.k, self.N)
        self.opts = RankDefOptions()
        self.perm = select_pivot(self.S, self.k, self.opts)
        Sp = self.S.permuted(self.perm)
        self.head = Sp.submatrix(range(self.k), range(self.k))
        self.tail_block = Sp.submatrix(range(self.k, self.m), range(self.k))
        self.head_factor = factor_positive_definite(self.head)
        self.Sp = Sp

    def test_tail_quotient_solves_coupling_identity(self):
        tail = tail_quotient(self.tail_block, self.head_factor, self.opts)
        for z in circle_points(17):
            lhs = tail.eval(z) @ self.head_factor.eval(z).conj().T
            assert np.max(np.abs(lhs - self.tail_block.eval(z))) < 1e-8

    def test_stacked_factor_reproduces_spectrum_on_circle(self):
        tail = tail_quotient(self.tail_block, self.head_factor, self.opts)
        R = stack_rational_factor(self.head_factor, tail)
        for z in circle_points(17):
            Rz = R.eval(z)
            assert np.max(np.abs(Rz @ Rz.conj().T - self.Sp.eval(z))) < 1e-8

    def test_remove_inner_poles_moves_denominator_roots_out(self):
        from parafact.roots import laurent_roots

        tail = tail_quotient(self.tail_block, self.head_factor, self.opts)
        R = stack_rational_factor(self.head_factor, tail)
        R2, ops = remove_inner_poles(R, self.opts)
        for den in R2.denominators:
            if den.hi == 0:
                continue
            for r in laurent_roots(den):
                assert abs(r) > 1.0 - 1e-6
        for z in circle_points(17):
            Rz = R2.eval(z)
            assert np.max(np.abs(Rz @ Rz.conj().T - self.Sp.eval(z))) < 1e-8
        for op in ops:
            assert op.direction == "pole-removal"


class TestRankDropPoints:
    def test_planted_zero_is_found_and_fixed(self):
        rng = np.random.default_rng(65)
        a = 0.35 - 0.2j
        base = LaurentMatrix(
            3,
            2,
            {
                n: rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
                for n in range(2)
            },
        )
        zero_col = LaurentMatrix.diagonal(
            [LaurentPoly({0: -a, 1: 1.0}), LaurentPoly.one()]
        )
        F = base @ zero_col
        drops = find_rank_drop_points(F)
        assert any(abs(p - a) < 1e-7 for p in drops)

        G, op = fix_rank_drop(F, a)
        assert op.direction == "zero-removal"
        assert not find_rank_drop_points(G)
        for z in circle_points(17):
            lhs = G.eval(z) @ G.eval(z).conj().T
            rhs = F.eval(z) @ F.eval(z).conj().T
            assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_clean_factor_reports_no_drops(self):
        rng = np.random.default_rng(66)
        inst = gen_spectrum(3, 2, 2, 660, interior_zero_free=True)
        assert find_rank_drop_points(inst.secret_factor) == []

    def test_entrywise_evaluator_matches_scalar_eval(self):
        rng = np.random.default_rng(69)
        F = LaurentMatrix(
            5,
            3,
            {
                n: rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
                for n in (0, 1, 3, 7)
            },
        )
        value = _entrywise_evaluator(F)
        for z in (0.3 - 0.6j, -0.9 + 0.1j, 0.0):
            want = [[F.entry(i, j).eval(z) for j in range(3)] for i in range(5)]
            assert np.array_equal(value(z), np.array(want))
        zero = _entrywise_evaluator(LaurentMatrix.zeros(5, 3))(0.5)
        assert np.array_equal(zero, np.zeros((5, 3)))

    def test_refine_lands_on_planted_simple_zero(self):
        rng = np.random.default_rng(68)
        a = -0.45 + 0.3j
        base = LaurentMatrix(
            3,
            2,
            {
                n: rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
                for n in range(3)
            },
        )
        F = base @ LaurentMatrix.diagonal(
            [LaurentPoly({0: -a, 1: 1.0}), LaurentPoly.one()]
        )
        start = a + 1e-4 * np.exp(0.3j)
        assert abs(_refine_drop_point(F, start) - a) <= 1e-12

    # Blaschke operation counts of the whole pipeline on zero-free instances,
    # recorded with the per-entry refine and reflection code.  Drop clearing
    # on whole coefficient arrays must take the same steps.
    @pytest.mark.parametrize(
        "m,k,N,seed,zero_ops,pole_ops",
        [
            (4, 2, 4, 0, 5, 10),
            (4, 2, 4, 1, 4, 8),
            (4, 2, 4, 2, 4, 8),
            (4, 2, 4, 3, 2, 4),
            (4, 2, 4, 4, 5, 10),
            (4, 2, 4, 5, 4, 8),
            (6, 3, 3, 0, 6, 9),
            (6, 3, 3, 1, 12, 18),
            (6, 3, 3, 2, 8, 12),
        ],
    )
    def test_operation_counts_are_pinned(self, m, k, N, seed, zero_ops, pole_ops):
        inst = gen_spectrum(m, k, N, seed, interior_zero_free=True)
        factor, report = spectral_factor(inst.spectrum)
        assert len(report.zero_ops) == zero_ops
        assert len(report.pole_ops) == pole_ops
        assert compare_factors(inst.secret_factor, factor) is not None

    def test_fix_rejects_point_without_drop(self):
        rng = np.random.default_rng(67)
        inst = gen_spectrum(2, 2, 1, 670, interior_zero_free=True)
        with pytest.raises((ValueError, NumericalFailureError)):
            fix_rank_drop(inst.secret_factor, 0.1 + 0.1j)


class TestSpectralFactor:
    def test_rank_one_diagonal_fixture(self):
        S = LaurentMatrix.constant(np.diag([1.0, 0.0]))
        factor, report = spectral_factor(S)
        assert factor.shape == (2, 1)
        assert report.detected_rank == 1
        assert report.passed

    def test_scalar_case_matches_scalar_factor(self):
        from parafact.fullrank import scalar_factor

        q = LaurentPoly({0: 2.0, 1: 0.5})
        f = q * q.adjoint()
        S = LaurentMatrix.from_entries([[f]])
        factor, report = spectral_factor(S)
        assert report.passed
        got = factor.entry(0, 0)
        want = scalar_factor(f)
        assert (got - want).max_abs < 1e-8

    @pytest.mark.parametrize(
        "m,k,N,seed",
        [
            (2, 1, 1, 700),
            (3, 2, 2, 701),
            (4, 2, 3, 702),
            (4, 3, 2, 703),
            (5, 3, 2, 704),
            (3, 3, 3, 705),
        ],
    )
    def test_contract_on_seeded_instances(self, m, k, N, seed):
        rng = np.random.default_rng(seed)
        S, _ = rank_k_spectrum(rng, m, k, N)
        factor, report = spectral_factor(S)
        assert factor.shape == (m, k)
        assert factor.lo >= 0
        assert report.verdicts["residual"].passed
        assert report.verdicts["order_matches"].passed
        assert find_rank_drop_points(factor) == []
        sv0 = np.linalg.svd(factor.eval(0.0), compute_uv=False)
        assert sv0[-1] > 0

    def test_detected_rank_is_automatic(self):
        rng = np.random.default_rng(71)
        S, _ = rank_k_spectrum(rng, 4, 2, 2)
        _, report = spectral_factor(S)
        assert report.detected_rank == 2

    def test_rank_override(self):
        rng = np.random.default_rng(72)
        S, _ = rank_k_spectrum(rng, 3, 3, 1)
        factor, _ = spectral_factor(S, rank=3)
        assert factor.cols == 3
        with pytest.raises(ValueError):
            spectral_factor(S, rank=4)
        with pytest.raises(ValueError):
            spectral_factor(S, rank=0)

    def test_zero_spectrum_rejected(self):
        with pytest.raises(ValueError):
            spectral_factor(LaurentMatrix.zeros(2, 2))

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            spectral_factor(LaurentMatrix.zeros(2, 3))

    def test_non_parahermitian_rejected(self):
        M = LaurentMatrix(2, 2, {1: np.eye(2)})
        with pytest.raises(ValueError):
            spectral_factor(M)

    def test_indefinite_rejected(self):
        S = LaurentMatrix.constant(np.diag([1.0, -1.0]))
        with pytest.raises(NotFactorableError):
            spectral_factor(S)

    def test_unreachable_tolerance_raises(self):
        # Strictly positive definite so the indefiniteness screen stays
        # quiet no matter how small the tolerance is; the residual floor
        # of finite precision then has to trip the final check.
        rng = np.random.default_rng(73)
        S, A = rank_k_spectrum(rng, 2, 2, 1)
        S = (S + LaurentMatrix.identity(2)).trim(0.0)
        with pytest.raises(NumericalFailureError):
            spectral_factor(S, RankDefOptions(tol=1e-18))

    def test_report_records_operations(self):
        rng = np.random.default_rng(74)
        S, _ = rank_k_spectrum(rng, 4, 2, 2)
        _, report = spectral_factor(S)
        assert report.pivot is not None
        for op in report.pole_ops:
            assert op.direction == "pole-removal"
        for op in report.zero_ops:
            assert op.direction == "zero-removal"
            assert abs(op.a) < 1.0


class TestCompareAndVerify:
    def test_two_seeds_agree_up_to_constant_unitary(self):
        rng = np.random.default_rng(75)
        S, _ = rank_k_spectrum(rng, 3, 2, 2)
        F1, _ = spectral_factor(S, RankDefOptions(rng_seed=0))
        F2, _ = spectral_factor(S, RankDefOptions(rng_seed=99))
        U = compare_factors(F1, F2, RankDefOptions(tol=1e-6))
        assert U is not None
        assert np.max(np.abs(U.conj().T @ U - np.eye(2))) < 1e-6

    def test_compare_rejects_unrelated_factors(self):
        rng = np.random.default_rng(76)
        S1, _ = rank_k_spectrum(rng, 3, 2, 2)
        S2, _ = rank_k_spectrum(rng, 3, 2, 2)
        F1, _ = spectral_factor(S1)
        F2, _ = spectral_factor(S2)
        assert compare_factors(F1, F2, RankDefOptions(tol=1e-8)) is None

    def test_compare_needs_matching_shapes(self):
        rng = np.random.default_rng(77)
        S, _ = rank_k_spectrum(rng, 3, 2, 1)
        F, _ = spectral_factor(S)
        with pytest.raises(ValueError):
            compare_factors(F, F.submatrix(range(3), [0]))

    def test_verify_accepts_computed_factor(self):
        rng = np.random.default_rng(78)
        S, _ = rank_k_spectrum(rng, 3, 2, 2)
        F, _ = spectral_factor(S)
        report = verify_factorization(S, F)
        assert report.passed

    def test_verify_flags_perturbation(self):
        rng = np.random.default_rng(79)
        S, _ = rank_k_spectrum(rng, 3, 2, 2)
        F, _ = spectral_factor(S)
        bad = F + LaurentMatrix.constant(1e-3 * np.ones((3, 2)))
        report = verify_factorization(S, bad)
        assert not report.verdicts["coefficient_residual"].passed

    def test_verify_flags_dimension_mismatch(self):
        S = LaurentMatrix.constant(np.eye(2))
        F = LaurentMatrix.constant(np.eye(3))
        report = verify_factorization(S, F)
        assert not report.verdicts["dimensions"].passed

    def test_verify_flags_non_analytic_factor(self):
        S = LaurentMatrix.constant(np.eye(2))
        F = LaurentMatrix(2, 2, {-1: 0.5 * np.eye(2), 0: np.eye(2)})
        report = verify_factorization(S, F)
        assert not report.verdicts["analytic"].passed


class TestOptionsValidation:
    def test_bad_tolerances_raise(self):
        with pytest.raises(ValueError):
            RankDefOptions(tol=0.0)
        with pytest.raises(ValueError):
            RankDefOptions(rank_tol=-1.0)
        with pytest.raises(ValueError):
            RankDefOptions(deflation_radius=0.5)
        with pytest.raises(ValueError):
            RankDefOptions(max_zero_fix_iters=-1)
