"""Rank-deficient factorization: pipeline stages, driver, and verification.

Stage tests check each operation against the algebraic identity it must
satisfy at unit-circle samples; driver tests check the end-to-end contract
on seeded instances with known rank and order.
"""

import numpy as np
import pytest
import scipy.linalg

from parafact import fullrank, rankdef
from parafact.errors import (
    DegenerateInputError,
    IndeterminateError,
    NotFactorableError,
    NumericalFailureError,
)
from parafact.fullrank import factor_positive_definite
from parafact.instances import gen_lossless, gen_spectrum
from parafact.laurent import (
    LaurentMatrix,
    LaurentPoly,
    _interp_count,
    _order_grid_count,
    laurent_from_unit_samples,
)
from parafact.paraunitary import deficiency_matrix
from parafact.rankdef import (
    _DEFLATION_RADIUS,
    _RANK_TOL,
    _TAG_PIVOT,
    _circle_samples,
    _outer_tall_factor,
    _pivot_heads,
    _rng,
    RankDefOptions,
    RationalMatrix,
    check_rank_identity,
    compare_factors,
    estimate_rank,
    find_rank_drop_points,
    fix_rank_drop,
    remove_inner_poles,
    select_pivot,
    spectral_factor,
    stack_rational_factor,
    tail_quotient,
    verify_factorization,
)
from parafact.roots import (
    _MULTI_ROOT_RADIUS,
    _TAG_COMPRESS,
    _operator_scale,
    _refine_drop_points,
    _screened_starts,
    clear_rank_drops,
)
from test_fullrank import banded_section


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

    # Only the power -9: 2 hi + 17 samples would be -1 of them.
    def test_select_pivot_samples_a_matrix_of_negative_powers(self):
        S = LaurentMatrix(2, 2, {-9: np.array([[1.0, 2.0], [0.0, 1.0]])})
        assert _circle_samples(S).shape == (35, 2, 2)
        assert select_pivot(S, 2) == (0, 1)
        assert select_pivot(S, 1) == (0, 1)

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


def pointwise_samples(S, tag):
    """The sampled spectrum, one S.eval call per point of the tag's stream."""
    count = 2 * max(S.hi or 0, -(S.lo or 0)) + 17
    angles = _rng(tag).uniform(0.0, 2.0 * np.pi, count)
    return [S.eval(np.exp(1j * theta)) for theta in angles]


def turned_grid_samples(S):
    """S at e^(i (2 pi j + 1) / count), one S.eval call per point: the order
    grid turned by 1 / count radians."""
    count = _order_grid_count(max(S.hi, -S.lo))
    return [S.eval(np.exp(1j * (2 * np.pi * j + 1) / count)) for j in range(count)]


def pointwise_rank(S):
    best = 0
    for M in turned_grid_samples(S.trim(0.0)):
        sv = np.linalg.svd(M, compute_uv=False)
        if sv[0] > 0:
            best = max(best, int(np.sum(sv > _RANK_TOL * sv[0])))
    return best


def pointwise_pivot(S, k):
    """Pivot selection over per-point samples and per-sample pivoted QR."""
    m = S.rows
    samples = pointwise_samples(S, _TAG_PIVOT)
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


def pointwise_rank_identity(S, perm, k, opts=None):
    """check_rank_identity with one sample at a time: (passed, measured)."""
    opts = opts or RankDefOptions()
    if k == S.rows:
        return True, 0.0
    samples = S.permuted(perm).eval_unit_grid(_order_grid_count(S.hi or 0))
    worst, kept = 0.0, 0
    for M in samples:
        scale = np.linalg.svd(M, compute_uv=False)[0]
        if scale == 0:
            continue
        head = M[:k, :k]
        if np.linalg.svd(head, compute_uv=False)[-1] < 1e-4 * scale:
            continue
        kept += 1
        recon = M[k:, :k] @ np.linalg.solve(head, M[:k, k:])
        worst = max(worst, float(np.max(np.abs(recon - M[k:, k:]))) / scale)
    if kept == 0:
        return False, np.inf
    return worst <= opts.tol, worst


class TestBatchedSampling:
    @pytest.mark.parametrize("make", SAMPLED_SPECTRA)
    def test_samples_match_pointwise_eval(self, make):
        for seed in range(4):
            S = make(seed)
            for got, want in [
                (_circle_samples(S), pointwise_samples(S, _TAG_PIVOT)),
                (fullrank._screen_samples(S), turned_grid_samples(S)),
                (fullrank._screen_samples(S.shifted(-40)), turned_grid_samples(S.shifted(-40))),
            ]:
                want = np.array(want)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("make", SAMPLED_SPECTRA)
    def test_rank_and_pivot_match_pointwise_reference(self, make):
        for seed in range(4):
            S = make(seed)
            k = estimate_rank(S)
            assert k == pointwise_rank(S)
            assert select_pivot(S, k) == pointwise_pivot(S, k)

    @pytest.mark.parametrize("make", SAMPLED_SPECTRA)
    def test_rank_identity_matches_per_sample_loop(self, make):
        for seed in range(2):
            S = make(seed)
            k = estimate_rank(S)
            for perm in (select_pivot(S, k), tuple(range(S.rows))[::-1]):
                for rank in {k, max(1, k - 1)}:
                    want = pointwise_rank_identity(S, perm, rank)
                    got = check_rank_identity(S, perm, rank)
                    assert (got.passed, got.measured) == want

    @pytest.mark.parametrize(
        "make,k",
        [
            (lambda s, shape=shape: gen_spectrum(*shape, s).spectrum, shape[1])
            for shape in [(4, 2, 4), (6, 3, 3), (8, 4, 4), (6, 4, 6)]
        ]
        + [
            (lambda s, shape=shape: deficiency_matrix(gen_lossless(*shape, s).row), shape[0] - 1)
            for shape in [(3, 4), (4, 8), (6, 6)]
        ],
    )
    def test_pivot_heads_are_the_pivoted_qr_ones(self, make, k):
        # xGEQP3 alone, without forming Q, on the benchmark shapes' samples.
        for seed in range(3):
            samples = _circle_samples(make(seed))
            blocks = [samples.reshape(-1, samples.shape[2]), *samples]
            want = [
                tuple(sorted(scipy.linalg.qr(M, mode="economic", pivoting=True)[2][:k]))
                for M in blocks
            ]
            assert _pivot_heads(blocks, k) == want

    def test_rank_two_spectrum_has_no_full_rank_pivot(self):
        rng = np.random.default_rng(80)
        S, _ = rank_k_spectrum(rng, 4, 2, 2)
        with pytest.raises(DegenerateInputError):
            select_pivot(S, 4)

    # With the rank given as the size there is no pivot search: the majority
    # rule reads the eigenvalue counts of the definiteness screen, and it
    # rejects the rank-2 spectrum with select_pivot's message.
    def test_rank_two_spectrum_has_no_full_rank_factor(self):
        rng = np.random.default_rng(80)
        S, _ = rank_k_spectrum(rng, 4, 2, 2)
        message = "no permutation keeps the leading 4 x 4 block full rank at a majority"
        with pytest.raises(DegenerateInputError, match=message):
            spectral_factor(S, rank=4)

    # spectral_factor reads the rank off its definiteness screen, so it
    # never calls estimate_rank; for k = m the pivot is the identity and the
    # rank identity vacuous, so neither is computed either.
    @pytest.mark.parametrize("shape,calls", [
        ((4, 4, 4), {}),
        ((6, 6, 3), {}),
        ((4, 2, 4), {"select_pivot": 1, "check_rank_identity": 1}),
    ])
    def test_full_rank_solve_takes_no_pivot_work(self, shape, calls, monkeypatch):
        counted = {}
        for name in ("estimate_rank", "select_pivot", "check_rank_identity"):
            def wrapped(*args, _name=name, _call=getattr(rankdef, name)):
                counted[_name] = counted.get(_name, 0) + 1
                return _call(*args)

            monkeypatch.setattr(rankdef, name, wrapped)
        _, report = spectral_factor(gen_spectrum(*shape, 0).spectrum)
        assert counted == calls
        assert report.detected_rank == shape[1]
        if shape[0] == shape[1]:
            assert report.pivot == tuple(range(shape[0]))
            assert report.verdicts["rank_identity"] == rankdef.Check(True, 0.0, 1e-9)

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
        self.perm = select_pivot(self.S, self.k)
        Sp = self.S.permuted(self.perm)
        self.head = Sp.submatrix(range(self.k), range(self.k))
        self.tail_block = Sp.submatrix(range(self.k, self.m), range(self.k))
        self.head_factor = factor_positive_definite(self.head)
        self.Sp = Sp

    def test_tail_quotient_solves_coupling_identity(self):
        tail = tail_quotient(self.tail_block, self.head_factor)
        for z in circle_points(17):
            lhs = tail.eval(z) @ self.head_factor.eval(z).conj().T
            assert np.max(np.abs(lhs - self.tail_block.eval(z))) < 1e-8

    def test_stacked_factor_reproduces_spectrum_on_circle(self):
        tail = tail_quotient(self.tail_block, self.head_factor)
        R = stack_rational_factor(self.head_factor, tail)
        for z in circle_points(17):
            Rz = R.eval(z)
            assert np.max(np.abs(Rz @ Rz.conj().T - self.Sp.eval(z))) < 1e-8

    def test_remove_inner_poles_moves_denominator_roots_out(self):
        from parafact.roots import laurent_roots

        tail = tail_quotient(self.tail_block, self.head_factor)
        R = stack_rational_factor(self.head_factor, tail)
        R2, ops = remove_inner_poles(R)
        for r in laurent_roots(R2.denominator):
            assert abs(r) > 1.0 - 1e-6
        for z in circle_points(17):
            Rz = R2.eval(z)
            assert np.max(np.abs(Rz @ Rz.conj().T - self.Sp.eval(z))) < 1e-8
        for op in ops:
            assert op.direction == "pole-removal"

    @pytest.mark.parametrize(
        "shift,denominator,error,message",
        [
            (0, {}, ZeroDivisionError, "zero denominator"),
            (0, {-1: 0.5, 0: 1.0}, ValueError, "denominator must be analytic"),
            (0, {0: 1.0, 1: 2.0}, ValueError, "denominator must be monic"),
            (-1, {0: 1.0}, ValueError, "numerator must be analytic"),
        ],
        ids=[
            "zero-denominator",
            "denominator-negative-powers",
            "denominator-not-monic",
            "numerator-negative-powers",
        ],
    )
    def test_rational_matrix_refuses_bad_input(self, shift, denominator, error, message):
        numerator = LaurentMatrix.identity(2).shifted(shift)
        with pytest.raises(error, match=message):
            RationalMatrix(numerator, LaurentPoly(denominator))


class TestRationalHelpers:
    def test_remove_inner_poles_is_one_conjugate_reversal(self):
        # d = z (z - 0.5)(z + 0.3i)(z - 0.2 - 0.4i): an exact factor z and
        # three inner roots.  The origin is stripped, and what is left, q,
        # is traded for its monic conjugate reversal z^3 conj(q(1/conj z))
        # / conj(q(0)); the numerator is only divided by conj(q(0)).
        inner = [0.5, -0.3j, 0.2 + 0.4j]
        den = LaurentPoly.monomial(1.0, 1)
        for a in inner:
            den = den * LaurentPoly({0: -a, 1: 1.0})
        rng = np.random.default_rng(35)
        num = LaurentMatrix.from_coeffs(rng.standard_normal((3, 3, 2, 2)) @ [1.0, 1j])
        R, ops = remove_inner_poles(RationalMatrix(num, den))

        q = den.coeff_array(1, 4)
        assert R.denominator == LaurentPoly.from_coeffs(np.conj(q[::-1]) / np.conj(q[0]))
        assert R.numerator == num * (1.0 / np.conj(q[0]))
        assert len(ops) == den.hi * num.cols
        for j in range(num.cols):
            moved = [op.a for op in ops if op.column == j]
            assert moved[0] == 0
            assert np.allclose(sorted(moved[1:], key=abs), sorted(inner, key=abs), atol=1e-12)

    @pytest.mark.parametrize("root", [1.0, 2.0])
    def test_remove_inner_poles_refuses_a_root_off_the_open_disk(self, root):
        den = LaurentPoly({0: -0.25, 1: 1.0}) * LaurentPoly({0: -root, 1: 1.0})
        with pytest.raises(NumericalFailureError, match=r"root %g[-+]" % root):
            remove_inner_poles(RationalMatrix(LaurentMatrix.identity(2), den))

    def test_edge_trimmed_drops_small_coefficients_only_at_the_ends(self):
        C = np.zeros((5, 1, 3), dtype=complex)
        C[:, 0, 0] = [1e-12, 1.0, 1e-13, 2.0, 1e-13j]
        C[:, 0, 1] = [3.0, 0.0, 0.0, 0.0, 1.0]
        C[:, 0, 2] = [1e-13, 1e-14j, 0.0, 1e-12, 0.0]
        want = C.copy()
        want[[0, 4], 0, 0] = 0
        want[:, 0, 2] = 0
        assert np.array_equal(rankdef._edge_trimmed(C, 1e-12), want)
        # A cut per entry: entry 1 loses its end at 1.0 and keeps the rest.
        want[4, 0, 1] = 0
        assert np.array_equal(rankdef._edge_trimmed(C, np.array([[1e-12, 1.5, 1e-12]])), want)

    def test_adjugate_matches_per_entry_interpolation(self):
        # Reference: each minor's samples interpolated on its own, trimmed at
        # 1e-14 of its peak, then its ends at _EDGE_REL of it.
        def interpolated(values, lo, hi):
            p = laurent_from_unit_samples(values, lo, hi).trim(1e-14)
            if p.is_zero:
                return p
            c = p.coeff_array(p.lo, p.hi)
            big = [n for n, x in enumerate(c.tolist()) if abs(x) > rankdef._EDGE_REL * p.max_abs]
            return LaurentPoly.from_coeffs(c[big[0] : big[-1] + 1], p.lo + big[0])

        rng = np.random.default_rng(36)
        k, lo, hi = 3, -2, 1
        F = LaurentMatrix.from_coeffs(rng.standard_normal((hi - lo + 1, k, k, 2)) @ [1.0, 1j], lo)
        det, adj = rankdef._det_and_adjugate(F)

        samples = F.eval_unit_grid(_interp_count(k * (hi - lo)))
        minors = [
            [
                (-1.0) ** (i + j)
                * np.linalg.det(np.delete(np.delete(samples, j, axis=1), i, axis=2))
                for j in range(k)
            ]
            for i in range(k)
        ]
        want = [[interpolated(v, (k - 1) * lo, (k - 1) * hi) for v in row] for row in minors]
        assert det == interpolated(np.linalg.det(samples), k * lo, k * hi)
        assert adj == LaurentMatrix.from_entries(want)
        for z in circle_points(7):
            assert np.allclose(F.eval(z) @ adj.eval(z), det.eval(z) * np.eye(k), atol=1e-12)


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

        G, (op,) = fix_rank_drop(F, a)
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
        assert abs(_refine_drop_points(F, [start])[0] - a) <= 1e-12

    def test_operator_scale_matches_per_sample_loop(self):
        for m, k, N, seed in ((3, 2, 2, 0), (4, 4, 4, 1), (6, 3, 3, 2)):
            F = gen_spectrum(m, k, N, seed).secret_factor
            want = max(
                float(np.linalg.svd(M, compute_uv=False)[0])
                for M in F.eval_unit_grid(_interp_count(F.cols * N))
            )
            assert _operator_scale(F) == want

    # Blaschke operation counts of the rational construction on zero-free
    # instances, recorded with the per-entry refine and reflection code.
    # Drop clearing on whole coefficient arrays must take the same steps.
    # spectral_factor takes the regularized start on these instances, so
    # the counts come from the fallback, _outer_tall_factor, called as
    # spectral_factor would call it.
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
            (8, 4, 4, 0, 24, 32),
            (8, 4, 4, 1, 24, 32),
            (8, 4, 4, 2, 21, 28),
            (6, 4, 6, 0, 36, 48),
            (6, 4, 6, 1, 39, 52),
            (6, 4, 6, 2, 39, 52),
        ],
    )
    def test_operation_counts_are_pinned(self, m, k, N, seed, zero_ops, pole_ops):
        inst = gen_spectrum(m, k, N, seed, interior_zero_free=True)
        S = inst.spectrum.trim(0.0)
        A, pole, zero = _outer_tall_factor(S, select_pivot(S, k), k, RankDefOptions())
        assert len(zero) == zero_ops
        assert len(pole) == pole_ops
        assert compare_factors(inst.secret_factor, LaurentMatrix.from_coeffs(A)) is not None

        factor, report = spectral_factor(S)
        assert report.path == "regularized"
        assert report.pole_ops == () and report.zero_ops == ()
        assert compare_factors(inst.secret_factor, factor) is not None

    # On these instances every drop of the rational stage has nullity
    # k - 1 and is reflected whole, so drop clearing takes one reporting and
    # one confirming pass on the numerator: two on the (m, k) tall factor.
    # The k x k head factor makes its own single pass inside
    # factor_positive_definite.  The regularized start that spectral_factor
    # takes instead makes one pass, its acceptance check.
    @pytest.mark.parametrize("m,k,N", [(6, 3, 3), (8, 4, 4), (6, 4, 6)])
    def test_drop_clearing_takes_two_finder_passes(self, m, k, N, monkeypatch):
        calls = []

        def counted(F):
            calls.append(F.shape)
            return find_rank_drop_points(F)

        monkeypatch.setattr("parafact.rankdef.find_rank_drop_points", counted)
        monkeypatch.setattr("parafact.roots.find_rank_drop_points", counted)
        inst = gen_spectrum(m, k, N, 0, interior_zero_free=True)
        S = inst.spectrum.trim(0.0)
        calls.clear()
        _outer_tall_factor(S, select_pivot(S, k), k, RankDefOptions())
        assert calls.count((m, k)) == 2
        assert calls.count((k, k)) == 1
        assert len(calls) == 3

        calls.clear()
        factor, report = spectral_factor(S)
        assert report.path == "regularized"
        assert calls == [(m, k)]
        assert compare_factors(inst.secret_factor, factor) is not None

    def test_rational_drop_clearing_takes_one_scale_per_call(self, monkeypatch):
        # _outer_tall_factor clears the numerator, in one call that reflects.
        # A call takes one scale, when its first pass reports a drop, and
        # hands it to every fix.
        scales, passed, cleared = [], [], []

        def measured(G):
            scales.append(_operator_scale(G))
            return scales[-1]

        def fix(G, a, opts=None, scale=None):
            passed.append(scale)
            return fix_rank_drop(G, a, opts, scale)

        def clear(G, opts=None):
            G, ops = clear_rank_drops(G, opts)
            cleared.append(ops)
            return G, ops

        monkeypatch.setattr("parafact.roots._operator_scale", measured)
        monkeypatch.setattr("parafact.roots.fix_rank_drop", fix)
        monkeypatch.setattr("parafact.rankdef.clear_rank_drops", clear)
        inst = gen_spectrum(6, 3, 3, 0, interior_zero_free=True)
        S = inst.spectrum.trim(0.0)
        _, _, zero = _outer_tall_factor(S, select_pivot(S, 3), 3, RankDefOptions())
        assert [len(ops) > 0 for ops in cleared] == [True]
        assert len(scales) == 1
        assert len(passed) >= 2 and set(passed) <= set(scales)
        assert len(passed) <= len(zero)

    def test_clear_rank_drops_reflects_a_simple_and_a_double_zero(self):
        m, N = 3, 2
        a, b = 0.4 + 0.3j, -0.5 + 0.2j
        outer = gen_spectrum(m, m, N, 7, interior_zero_free=True).secret_factor
        rng = np.random.default_rng(7)
        Q, R = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        F = outer @ LaurentMatrix.constant(Q * (np.diag(R) / np.abs(np.diag(R))))
        zero = {w: LaurentPoly({0: -w, 1: 1.0}) for w in (a, b)}
        mirror = {w: LaurentPoly({0: 1.0, 1: -w.conjugate()}) for w in (a, b)}
        one = LaurentPoly.one()
        planted = F @ LaurentMatrix.diagonal([zero[a], zero[b] * zero[b], one])
        reflected = F @ LaurentMatrix.diagonal([mirror[a], mirror[b] * mirror[b], one])
        found = find_rank_drop_points(planted)
        assert len(found) == 2
        assert min(abs(w - a) for w in found) < 1e-8
        assert min(abs(w - b) for w in found) < 1e-6

        G, _ = clear_rank_drops(planted)
        assert find_rank_drop_points(G) == []
        S = planted @ planted.adjoint()
        assert (G @ G.adjoint() - S).max_abs <= 1e-13 * S.max_abs
        assert compare_factors(reflected, G) is not None

    def test_clear_rank_drops_raises_when_its_budget_runs_out(self, monkeypatch):
        # A fix that reflects nothing leaves the drop for every pass, so the
        # 4 k max(N, 1) + 16 = 20 reflected columns run out.
        F = LaurentMatrix.from_entries([[LaurentPoly({0: -0.5, 1: 1.0})]])
        monkeypatch.setattr("parafact.roots.fix_rank_drop", lambda G, a, opts, scale: (G, (None,)))
        with pytest.raises(NumericalFailureError, match="budget of 20"):
            clear_rank_drops(F)

    @pytest.mark.parametrize(
        "shape, seed", [((6, 3, 2), 1), ((5, 3, 2), 12), ((4, 2, 2), 17), ((4, 2, 2), 19)]
    )
    def test_clear_rank_drops_skips_a_point_an_earlier_fix_cleared(self, shape, seed):
        # Near the double and the triple zero the finder reports a second
        # point, which the first point's fix has already cleared.
        zeros = [-0.5 + 0.2j] + [0.1 + 0.55j] * 2 + [0.4 - 0.3j] * 3
        F = planted_factor(np.random.default_rng(90 + seed), *shape, zeros)
        G, _ = clear_rank_drops(F)
        assert find_rank_drop_points(G) == []
        S = F @ F.adjoint()
        assert (G @ G.adjoint() - S).max_abs <= 1e-7 * S.max_abs

    def test_clear_rank_drops_raises_when_a_pass_fixes_nothing(self, monkeypatch):
        F = gen_spectrum(3, 2, 2, 7, interior_zero_free=True).secret_factor
        monkeypatch.setattr("parafact.roots.find_rank_drop_points", lambda G: [0.1j])
        with pytest.raises(NumericalFailureError, match="no reported point of a pass drops rank"):
            clear_rank_drops(F)

    @pytest.mark.parametrize("nu", [2, 3])
    def test_block_drop_is_reflected_in_one_fix(self, nu):
        m, k, N = 5, 4, 2
        a = 0.3 - 0.45j
        outer = gen_spectrum(m, k, N, 40 + nu, interior_zero_free=True).secret_factor
        shared = LaurentPoly({0: -a, 1: 1.0})
        plant = LaurentMatrix.diagonal([shared] * nu + [LaurentPoly.one()] * (k - nu))
        rng = np.random.default_rng(nu)
        Q, R = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
        F = outer @ plant @ LaurentMatrix.constant(Q * (np.diag(R) / np.abs(np.diag(R))))

        G, ops = fix_rank_drop(F, a)
        assert len(ops) == nu
        assert [op.column for op in ops] == list(range(nu))
        for op in ops:
            assert op.direction == "zero-removal"
            assert op.a == a and op.unitary is ops[0].unitary
        U = ops[0].unitary
        assert np.max(np.abs(U.conj().T @ U - np.eye(k))) < 1e-12

        assert find_rank_drop_points(G) == []
        for z in circle_points(17):
            lhs = G.eval(z) @ G.eval(z).conj().T
            rhs = F.eval(z) @ F.eval(z).conj().T
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))
        sv = np.linalg.svd(G.eval(1.0 / np.conj(a)), compute_uv=False)
        gate = 1e-8 * _operator_scale(G)
        assert np.sum(sv <= gate) == nu

    def test_fix_rejects_point_without_drop(self):
        rng = np.random.default_rng(67)
        inst = gen_spectrum(2, 2, 1, 670, interior_zero_free=True)
        with pytest.raises((ValueError, NumericalFailureError)):
            fix_rank_drop(inst.secret_factor, 0.1 + 0.1j)


def scalar_refine_drop_point(F, a, iters=8):
    """One start of _refine_drop_points, polished on its own.

    The scalar reference for the batched polish: the same Gauss-Newton on
    [F'(z) v, F(z)] with the unit-norm gauge row, stopping rules and
    best-sigma_min landing, with lstsq steps and F.eval at each point.
    """
    a = complex(a)
    dF = F.derivative()
    M = F.eval(a)
    _, sv, vh = np.linalg.svd(M)
    v = vh[-1].conj()
    best_a, best_sv = a, float(sv[-1])
    for _ in range(iters):
        J = np.concatenate([(dF.eval(a) @ v)[:, None], M], axis=1)
        J = np.vstack([J, np.concatenate([[0.0], np.conj(v)])[None, :]])
        r = np.concatenate([M @ v, [0.0]])
        upd, *_ = np.linalg.lstsq(J, -r, rcond=None)
        if not np.all(np.isfinite(upd)):
            break
        a = a + complex(upd[0])
        nv = np.linalg.norm(v + upd[1:])
        if nv < 1e-300:
            break
        v = (v + upd[1:]) / nv
        M = F.eval(a)
        smin = float(np.linalg.svd(M, compute_uv=False)[-1])
        if smin < best_sv:
            best_a, best_sv = complex(a), smin
        if abs(upd[0]) <= 1e-15 * max(1.0, abs(a)):
            break
    return best_a


def per_start_drop_points(F):
    """find_rank_drop_points with one scalar polish per start.

    The reference for the batched polish: the same compression, origin
    probe and best-confirmed selection, the pencil eigenvalues always from
    its QZ, each start polished on its own by scalar_refine_drop_point, and
    every smallest singular value taken from F.eval one point at a time.
    """
    m, k = F.shape
    N = F.hi
    radius = _DEFLATION_RADIUS
    gen = _rng(_TAG_COMPRESS)
    L = (gen.standard_normal((k, m)) + 1j * gen.standard_normal((k, m))) / np.sqrt(2)
    X = np.eye(k * N, dtype=complex)
    Y = np.zeros((k * N, k * N), dtype=complex)
    X[:k, :k] = L @ F.coeff(N)
    for j in range(N):
        Y[:k, j * k:(j + 1) * k] = L @ F.coeff(N - 1 - j)
        if j + 1 < N:
            Y[(j + 1) * k:(j + 2) * k, j * k:(j + 1) * k] = -np.eye(k)
    scale = max(
        float(np.linalg.svd(M, compute_uv=False)[0]) for M in F.eval_unit_grid(16)
    )
    cut = _RANK_TOL * max(scale, 1e-300)

    def smallest_sv(w):
        return float(np.linalg.svd(F.eval(w), compute_uv=False)[-1])

    landed = [
        scalar_refine_drop_point(F, s)
        for s in scipy.linalg.eigvals(-Y, X)
        if np.isfinite(s) and abs(s) < 1.0 - radius
    ]
    candidates = [b for b in landed if abs(b) < 1.0 - radius] + [0j]
    out = []
    for a in sorted(candidates, key=smallest_sv):
        if smallest_sv(a) < cut and all(abs(a - b) > _MULTI_ROOT_RADIUS for b in out):
            out.append(a)
    return sorted(out, key=lambda w: (w.real, w.imag))


def planted_factor(rng, m, k, N, zeros):
    """A random m x k factor of order N whose column 0 vanishes at each of zeros."""
    base = LaurentMatrix(
        m,
        k,
        {
            n: rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
            for n in range(N + 1)
        },
    )
    col = LaurentPoly.one()
    for a in zeros:
        col = col * LaurentPoly({0: -a, 1: 1.0})
    return base @ LaurentMatrix.diagonal([col] + [LaurentPoly.one()] * (k - 1))


class TestStartScreen:
    """find_rank_drop_points polishes only starts that can lie near a drop."""

    @pytest.mark.parametrize("shape", [(4, 2, 4), (6, 3, 3), (8, 4, 4), (6, 4, 6)])
    def test_outer_tall_factor_polishes_no_start(self, shape, monkeypatch):
        calls = []

        def counted(F, starts, iters=8):
            calls.append(len(starts))
            return _refine_drop_points(F, starts, iters)

        monkeypatch.setattr("parafact.roots._refine_drop_points", counted)
        F = gen_spectrum(*shape, 3, interior_zero_free=True).secret_factor
        assert find_rank_drop_points(F) == []
        assert calls == []

    @pytest.mark.parametrize("mu", [1, 2, 3])
    def test_start_within_the_radius_of_a_zero_passes(self, mu):
        a = 0.3 - 0.45j
        F = planted_factor(np.random.default_rng(80 + mu), 5, 3, 2, [a] * mu)
        starts = a + 0.999 * _MULTI_ROOT_RADIUS * np.exp(1j * np.linspace(0, 6, 7))
        assert np.array_equal(_screened_starts(F, starts), starts)

    def test_start_far_from_every_zero_is_dropped(self):
        a = 0.3 - 0.45j
        F = planted_factor(np.random.default_rng(81), 5, 3, 2, [a])
        far = np.array([-0.4 + 0.2j, 0.1 + 0.6j])
        assert _screened_starts(F, far).size == 0
        assert _screened_starts(F, np.array([a])).size == 1

    def test_simple_double_and_triple_zeros_are_all_reported(self):
        zeros = {-0.5 + 0.2j: 1, 0.1 + 0.55j: 2, 0.4 - 0.3j: 3}
        planted = [a for a, mu in zeros.items() for _ in range(mu)]
        for seed in range(5):
            F = planted_factor(np.random.default_rng(90 + seed), 6, 3, 2, planted)
            found = find_rank_drop_points(F)
            for a in zeros:
                assert min(abs(b - a) for b in found) <= _MULTI_ROOT_RADIUS
            # sigma_min grows like d^mu off a mu-fold zero, so a landing up to
            # about _RANK_TOL^(1/3) short of the triple zero passes the cut
            # as a second report; no report lies farther out than that.
            for b in found:
                assert min(abs(b - a) for a in zeros) <= 1e-2


class TestBatchedDropPolish:
    """The batched polish of the start set against the per-start loop."""

    @pytest.mark.parametrize("shape", [(3, 3, 8), (4, 4, 4)])
    @pytest.mark.parametrize("seed", range(4))
    def test_square_factors_match_per_start_loop(self, shape, seed):
        F = gen_spectrum(*shape, seed).secret_factor
        want = per_start_drop_points(F)
        got = find_rank_drop_points(F)
        assert want, "an unreflected factor has interior determinant zeros"
        assert len(got) == len(want)
        for a, b in zip(want, got):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_tall_planted_factor_matches_per_start_loop(self):
        zeros = (0.35 - 0.2j, -0.5 + 0.1j, 0.05j)
        F = planted_factor(np.random.default_rng(71), 5, 3, 2, zeros)
        got = find_rank_drop_points(F)
        assert len(got) == len(zeros)
        for a in zeros:
            assert min(abs(b - a) for b in got) <= 1e-12 * max(1.0, abs(a))

    def test_batch_lands_on_planted_simple_zero(self):
        a = -0.45 + 0.3j
        F = planted_factor(np.random.default_rng(68), 3, 2, 2, [a])
        starts = [a + 1e-4 * np.exp(1j * t) for t in (0.3, 1.9, 4.0)]
        for b in _refine_drop_points(F, starts):
            assert abs(b - a) <= 1e-12

    def test_batch_on_planted_double_zero_is_no_worse_than_scalar(self):
        # Gauss-Newton converges only linearly at a double zero, so neither
        # polish gets much closer than 1e-4 / 2^8; the batch must not be
        # worse than the scalar polish by more than a factor of two.
        a = 0.2 - 0.4j
        F = planted_factor(np.random.default_rng(72), 4, 2, 2, [a, a])
        starts = [a + 1e-4 * np.exp(1j * t) for t in (0.3, 2.5)]
        for s, b in zip(starts, _refine_drop_points(F, starts)):
            assert abs(b - a) <= 2.0 * abs(scalar_refine_drop_point(F, s) - a)

    def test_small_planted_zeros_are_located_to_1e8(self):
        rng = np.random.default_rng(71)
        F = gen_spectrum(3, 2, 2, 71, interior_zero_free=True).secret_factor
        zeros = [r * np.exp(1j * rng.uniform(0, 2 * np.pi)) for r in (0.05, 0.08)]
        col = LaurentPoly({0: -zeros[0], 1: 1.0}) * LaurentPoly({0: -zeros[1], 1: 1.0})
        found = find_rank_drop_points(
            F @ LaurentMatrix.diagonal([col, LaurentPoly.one()])
        )
        assert len(found) == 2
        for a in zeros:
            assert min(abs(b - a) for b in found) <= 1e-8

    def test_empty_start_set(self):
        F = planted_factor(np.random.default_rng(73), 3, 2, 1, [0.1])
        assert _refine_drop_points(F, []).shape == (0,)

    def test_non_analytic_factor_is_rejected(self):
        F = LaurentMatrix(2, 1, {-1: np.ones((2, 1)), 0: np.ones((2, 1))})
        with pytest.raises(ValueError):
            find_rank_drop_points(F)


class TestSpectralFactor:
    # Every point of the 64-point grid of roots of unity is a zero of one
    # entry of diag(|1 - i^j z^16|^2, j = 0..3), so the screen turns its
    # grid off them: the rank is 4 at every turned point.
    def test_comb_spectrum_keeps_its_rank(self):
        S = LaurentMatrix.diagonal(
            [LaurentPoly({-16: -np.conj(1j**j), 0: 2.0, 16: -(1j**j)}) for j in range(4)]
        )
        assert estimate_rank(S) == 4
        for rank in (None, 4):
            factor, report = spectral_factor(S, rank=rank)
            assert (report.detected_rank, report.path) == (4, "full-rank")
            assert verify_factorization(S, factor).passed

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

    @pytest.mark.parametrize("shape", [(4, 2, 4), (6, 3, 3), (8, 4, 4), (6, 4, 6)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_regularized_start_takes_two_polish_steps(self, shape, seed, monkeypatch):
        # The extrapolated start 2 B(delta) - B(2 delta) cancels the error of
        # one section to first order, so the polish needs one step to reach
        # its target and takes one more past it.  The second is a chord step
        # on the first one's Jacobian factorization.
        steps, factors, starts = [], [], []
        step, polish = fullrank._gauss_newton_step, fullrank.polish_coefficients
        factor = fullrank._JacobianFactor

        def counted(C, A, kept):
            steps.append(A.shape)
            return step(C, A, kept)

        def factored(A):
            factors.append(A.shape)
            return factor(A)

        def recorded(C, A, target):
            starts.append(A)
            return polish(C, A, target)

        monkeypatch.setattr("parafact.fullrank._gauss_newton_step", counted)
        monkeypatch.setattr("parafact.fullrank._JacobianFactor", factored)
        monkeypatch.setattr("parafact.rankdef.polish_coefficients", recorded)
        m, k, N = shape
        inst = gen_spectrum(m, k, N, seed, interior_zero_free=True)
        S = inst.spectrum.trim(0.0)
        F, report = spectral_factor(S)
        assert report.path == "regularized"
        assert len(steps) == 2
        assert len(factors) == 1
        assert len(starts) == 1
        assert compare_factors(inst.secret_factor, F) is not None

        perm = select_pivot(S, k)
        section = S.permuted(perm).coeff_array(0, N)
        section[0] += rankdef._REGULARIZATION * S.max_abs * np.eye(m)
        blocks = max(rankdef._REGULARIZED_BLOCKS, 2 * N + 2)
        single = banded_section(section, blocks)[:, np.argsort(perm), :k]
        C = S.coeff_array(0, N)
        extrapolated = fullrank._relative_residual(C, starts[0])
        assert extrapolated * 10.0 <= fullrank._relative_residual(C, single)

    def test_projector_spectrum_refactors_every_step(self, monkeypatch):
        # On a projector spectrum ||J^+|| reaches 3e9 / ||J||, so every step
        # of the regularized start's polish up to its target moves J beyond
        # what a chord step tolerates, and each one factors J afresh; the
        # step past the target is a chord step on the last factorization.
        steps, factors = [], []
        step, factor = fullrank._gauss_newton_step, fullrank._JacobianFactor

        def counted(C, A, kept):
            steps.append(kept)
            return step(C, A, kept)

        def factored(A):
            factors.append(factor(A))
            return factors[-1]

        monkeypatch.setattr("parafact.fullrank._gauss_newton_step", counted)
        monkeypatch.setattr("parafact.fullrank._JacobianFactor", factored)
        row = gen_lossless(4, 8, 3).row
        _, report = spectral_factor(deficiency_matrix(row), rank=3)
        assert report.path == "regularized"
        assert len(steps) >= 3
        assert steps[:-1] == factors
        assert steps[-1] is factors[-1]

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

    @pytest.mark.parametrize("stage", ["tail_quotient", "clear_rank_drops"])
    def test_fallback_failure_names_its_path_and_pivot(self, stage, monkeypatch):
        def failing(*args, **kwargs):
            raise NumericalFailureError("injected")

        monkeypatch.setattr("parafact.rankdef._regularized_start", lambda *args: None)
        monkeypatch.setattr("parafact.rankdef." + stage, failing)
        S = gen_spectrum(4, 2, 4, 0, interior_zero_free=True).spectrum.trim(0.0)
        with pytest.raises(NumericalFailureError, match="injected") as info:
            spectral_factor(S)
        report = info.value.report
        assert report.path == "rational"
        assert report.pivot == select_pivot(S, 2)
        assert report.detected_rank == 2

    # The one projector row of (3,4), (4,8) and (6,6), seeds 0-59, where an
    # inner denominator root cancels against the entries of some columns
    # but not of all: deflation against the whole numerator keeps it, pole
    # removal moves it out for every column, and the factor still passes
    # and verifies.
    def test_projector_row_with_a_partly_shared_pole_verifies(self):
        S = deficiency_matrix(gen_lossless(6, 6, 21).row)
        factor, report = spectral_factor(S, rank=5)
        assert report.path == "rational"
        assert report.passed
        assert verify_factorization(S, factor).passed
        per_column = [sum(op.column == j for op in report.pole_ops) for j in range(5)]
        assert len(set(per_column)) == 1

    # A k = m failure carries the same partial report, with the residual
    # the error measured: inf where there is no ladder estimate, unshifted
    # or shifted, and 5 tol where every polish ends there.
    def test_full_rank_failure_names_its_path_and_pivot(self, monkeypatch):
        S = gen_spectrum(3, 3, 2, 0).spectrum
        polish = fullrank.polish_coefficients

        def missed(C, A, target):
            return polish(C, A, target)[0], 5e-9

        for patch, residual in [
            (("parafact.fullrank._cyclic_reduction", lambda C: iter(())), np.inf),
            (("parafact.fullrank.polish_coefficients", missed), 5e-9),
        ]:
            with monkeypatch.context() as patched:
                patched.setattr(*patch)
                with pytest.raises(NumericalFailureError) as info:
                    spectral_factor(S)
            report = info.value.report
            assert report.path == "full-rank"
            assert report.pivot == (0, 1, 2)
            assert report.detected_rank == 3
            assert report.residual == info.value.residual == residual

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


def tall_circle_zero_spectrum(shape, mu, seed):
    """F F~ for the outer tall (m, k, N) factor of seed times diag((1 - z)^mu, 1, ...)."""
    m, k, N = shape
    zero = LaurentPoly.one()
    for _ in range(mu):
        zero = zero * LaurentPoly({0: 1.0, 1: -1.0})
    F = gen_spectrum(m, k, N, seed, interior_zero_free=True).secret_factor
    F = F @ LaurentMatrix.diagonal([zero] + [LaurentPoly.one()] * (k - 1))
    return F @ F.adjoint()


# The tall circle-zero rung, with one BLAS thread: a zero of multiplicity
# mu at z = 1 in the first column of a tall outer factor.  mu = 1 takes the
# regularized path, mu = 2 and 3 the rational one, whose head block is
# factored by the full-rank path and its drop clearing.  These 9 of the
# 90 cases raise NumericalFailureError: "shared denominator does not
# divide entry" remainders of 1.8e-5 to 9.3e-2 (8.6e-2 while pole removal
# moved the denominator's roots one at a time), or residuals of 8.0e-9 to
# 3.0e-6 above tol.
TALL_RUNG_RAISES = {
    ((3, 2, 2), 3, 2), ((3, 2, 2), 3, 5), ((3, 2, 2), 3, 6), ((3, 2, 2), 3, 8),
    ((4, 2, 2), 3, 3), ((4, 2, 2), 3, 4), ((4, 2, 2), 3, 8),
    ((4, 3, 3), 3, 0), ((4, 3, 3), 3, 2),
}


class TestTallCircleZeroRung:
    @pytest.mark.parametrize(
        "shape,mu,seed",
        [
            pytest.param(
                shape, mu, seed,
                id="%dx%dx%d-mu%d-seed%d" % (shape + (mu, seed)),
                marks=[pytest.mark.xfail(strict=True, raises=NumericalFailureError)]
                if (shape, mu, seed) in TALL_RUNG_RAISES else [],
            )
            for shape in [(3, 2, 2), (4, 2, 2), (4, 3, 3)]
            for mu in (1, 2, 3)
            for seed in range(10)
        ],
    )
    def test_tall_circle_zero_rung_verifies(self, shape, mu, seed):
        S = tall_circle_zero_spectrum(shape, mu, seed)
        G, report = spectral_factor(S)
        assert report.path == ("regularized" if mu == 1 else "rational")
        assert report.passed and verify_factorization(S, G).passed


class TestCompareAndVerify:
    def test_compare_rejects_unrelated_factors(self):
        rng = np.random.default_rng(76)
        S1, _ = rank_k_spectrum(rng, 3, 2, 2)
        S2, _ = rank_k_spectrum(rng, 3, 2, 2)
        F1, _ = spectral_factor(S1)
        F2, _ = spectral_factor(S2)
        assert compare_factors(F1, F2, RankDefOptions(tol=1e-8)) is None

    # f = 1 - c z^p and g = z^p - conj(c) share |f| = |g| on the circle, but
    # g / f is a Blaschke factor in z^p, no constant.  On a grid where z^p
    # takes one value, such as 16 points at p = 16 or 32, they look alike.
    @pytest.mark.parametrize("p", [8, 15, 16, 32])
    @pytest.mark.parametrize("c", [2.0, 1.5 + 0.5j], ids=["real", "complex"])
    def test_compare_rejects_a_blaschke_factor_at_every_order(self, p, c):
        f = LaurentMatrix.from_entries([[LaurentPoly({0: 1.0, p: -c})]])
        g = LaurentMatrix.from_entries([[LaurentPoly({0: -np.conj(c), p: 1.0})]])
        assert compare_factors(f, g) is None

    def test_compare_names_the_samples_it_lacks(self):
        # Two equal columns leave F^H F singular at every sample.
        col = LaurentMatrix(3, 1, {0: np.array([[1.0], [2.0], [0.5]]), 1: np.ones((3, 1))})
        F = LaurentMatrix.hstack([col, col])
        message = "0 of 64 samples have condition <= 1e8, 2 needed"
        with pytest.raises(IndeterminateError, match=message):
            compare_factors(F, F)

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

    def test_verify_flags_a_padded_top_power(self):
        rng = np.random.default_rng(81)
        S, _ = rank_k_spectrum(rng, 3, 2, 2)
        F, _ = spectral_factor(S)
        pad = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        padded = F + LaurentMatrix(3, 2, {3: 1e-6 * F.max_abs * pad})
        verdict = verify_factorization(S, padded).verdicts["order_matches"]
        assert not verdict.passed
        assert (verdict.measured, verdict.threshold) == (3.0, 2.0)

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

    # Outer factors of order 16 and 32 with zeros on the circle.  The
    # full-rank guard must sample more than k N points: on 16 points
    # 1 - z^16 vanishes everywhere, and so does the comb's j = 0 column.
    @pytest.mark.parametrize(
        "factor",
        [
            LaurentMatrix.from_entries([[LaurentPoly({0: 1.0, 16: -1.0})]]),
            LaurentMatrix.from_entries([[LaurentPoly({0: 1.0, 32: -1.0})]]),
            LaurentMatrix.diagonal([LaurentPoly({0: 1.0, 16: -(1j**j)}) for j in range(4)]),
        ],
        ids=["1-z^16", "1-z^32", "comb"],
    )
    def test_verify_accepts_outer_factors_of_order_16_and_32(self, factor):
        S = (factor @ factor.adjoint()).trim(0.0)
        report = verify_factorization(S, factor)
        assert report.passed, report.verdicts

    def test_deficient_normal_rank_is_a_failing_drop_verdict(self):
        rng = np.random.default_rng(80)
        f = LaurentMatrix(
            4, 1, {n: rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
                   for n in range(3)}
        )
        F = f @ LaurentMatrix.constant(np.array([[1.0, 2.0]]))
        with pytest.raises(NumericalFailureError, match="every circle sample"):
            find_rank_drop_points(F)
        report = verify_factorization((F @ F.adjoint()).trim(0.0), F)
        verdict = report.verdicts["no_interior_rank_drop"]
        assert not verdict.passed
        assert verdict.measured == np.inf


class TestOptionsValidation:
    def test_bad_tolerances_raise(self):
        with pytest.raises(ValueError):
            RankDefOptions(tol=0.0)
