"""Spectral factorization of full-rank positive definite Laurent matrices.

Given S(z) = sum_{|n| <= N} C_n z^n, Hermitian positive definite a.e. on the
unit circle, computes the analytic factor S+ with S = S+ S+~, S+ of order N,
det S+(z) != 0 for |z| < 1, normalized to a canonical representative of the
right-unitary equivalence class.

Every size k >= 1 and order N >= 1, scalar and diagonal S included, takes
one path: Bauer's method (Cholesky of a block Toeplitz section, whose deep
rows converge to the factor coefficients), doubling the section until its
estimate meets the tolerance or stops converging geometrically.  A start
that still misses the tolerance is refined by polish_coefficients: damped
Gauss-Newton least squares on the quadratic coefficient equations
sum_q A_{n+q} A_q^H = C_n, with one step past the first iterate that meets
the target.  A polish factors the Jacobian once, as LAPACK xGELSY does, and
takes its later steps as chord steps on that factorization while a bound on
their first-order contraction stays below _CHORD_CONTRACTION; past it, it
factors again.  Should that polish stall, as at a multiple circle zero of
det S, the doubling restarts with a polish after every section.  Interior
rank drops, which Bauer and the polish leave near circle zeros of det S,
are finally reflected across the circle by roots.clear_rank_drops.
The rank-deficient pipeline uses both halves on its tall factor: Bauer
sections of the regularized spectra S + delta I and S + 2 delta I start it,
and the same polish finishes it, as it finishes the rational fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import blas, lapack

from .errors import NotFactorableError, NumericalFailureError
from .laurent import AnalyticPolyMatrix, LaurentMatrix, LaurentPoly, _order_grid_count
from .roots import RankDefOptions, clear_rank_drops

__all__ = [
    "CanonicalForm",
    "scalar_factor",
    "factor_positive_definite",
    "canonicalize",
]

# Relative screen for "full rank at z = 0" inside canonicalize.
_RANK0_TOL = 1e-12
# Bauer's Toeplitz section has at least this many block rows (and at least
# 2 * order + 2); it is doubled up to _BAUER_DOUBLINGS times while its
# estimate misses the polish target.  Off circle zeros of det S each
# doubling's gain is about the square of the last; a circle zero pins it
# near 4, so the doubling stops once a gain fails to grow.
_BAUER_BLOCKS = 32
_BAUER_DOUBLINGS = 5
# A Gauss-Newton step that is large along ill-conditioned directions
# overshoots by its quadratic term, which the next step removes; so a step
# may raise the residual up to _POLISH_GROWTH times the best one before it
# is halved.  The polish stops after _POLISH_STALLS consecutive steps that
# fail to halve the best residual, and in any case after _POLISH_MAX_ITERS.
_POLISH_GROWTH = 10.0
_POLISH_STALLS = 3
_POLISH_MAX_ITERS = 30
_POLISH_HALVINGS = 10
# Residual target of the polish that ends scalar_factor and spectral_factor.
_FINAL_POLISH = 1e-15
# A chord step contracts the error by kappa to first order, where a
# Gauss-Newton step contracts it by a term quadratic in the error.  The
# step past the final target must take the forward error from what a
# residual of _FINAL_POLISH certifies, ||J^+|| _FINAL_POLISH ||C||, to what
# one at the rounding unit u certifies, ||J^+|| u ||C||: a gain of
# _FINAL_POLISH / u.  A chord step keeps that gain while kappa <= u /
# _FINAL_POLISH, about 0.11; at the larger targets it then gains at least
# 9 per step, far above the halving that the stall rule asks for.
_CHORD_CONTRACTION = 0.5 * np.finfo(float).eps / _FINAL_POLISH


@dataclass(frozen=True)
class CanonicalForm:
    """A canonical factor and the constant unitary that produced it."""

    factor: AnalyticPolyMatrix
    applied_unitary: np.ndarray


def scalar_factor(f: LaurentPoly, tol: float = 1e-9) -> LaurentPoly:
    """Outer spectral factor of a scalar symbol: q analytic with q q~ = f.

    f must be para-Hermitian and nonnegative on the unit circle.  q is the
    1 x 1 factor_positive_definite factor of f, polished to _FINAL_POLISH
    because a factor that meets tol in q q~ can still be far from the outer
    one, and normalized so q(0) is real positive, which pins the
    unit-modulus phase freedom.

    Raises ValueError for a nonpositive tol or a symbol that is not
    para-Hermitian, NotFactorableError when f is negative beyond tol on the
    circle, and NumericalFailureError when the factor misses tol.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    f = f.trim(1e-14)
    if f.is_zero:
        return LaurentPoly.zero()
    q = factor_positive_definite(LaurentMatrix.from_entries([[f]]), tol).entry(0, 0)
    C, A = f.coeff_array(0, f.hi), q.coeff_array(0, f.hi)
    A, _ = polish_coefficients(C[:, None, None], A[:, None, None], _FINAL_POLISH)
    return canonicalize(LaurentMatrix.from_coeffs(A)).factor.entry(0, 0)


def _screen_definite(S: LaurentMatrix, tol: float) -> None:
    """Reject a spectrum that is not square, para-Hermitian and nonnegative.

    Raises ValueError for the first two and NotFactorableError when an
    eigenvalue on the unit circle falls below -tol times the largest.
    """
    if S.rows != S.cols:
        raise ValueError("spectrum must be square")
    if not S.is_parahermitian(max(tol, 1e-12)):
        raise ValueError("spectrum is not para-Hermitian within tolerance")
    samples = S.eval_unit_grid(_order_grid_count(S.hi))
    samples = 0.5 * (samples + np.conj(np.transpose(samples, (0, 2, 1))))
    eigs = np.linalg.eigvalsh(samples)
    top = float(eigs.max()) if eigs.size else 0.0
    if eigs.min() < -tol * max(top, 1e-300):
        raise NotFactorableError(
            "spectrum is indefinite on the unit circle (min eig %.3e)" % eigs.min()
        )


def _bauer_last_row(C, k: int, N: int, L: int) -> np.ndarray:
    """Deep-row block Cholesky estimate of the factor coefficients.

    Builds the Hermitian block Toeplitz section T[i, j] = C_{i-j} of L block
    rows in banded storage, factors it, and reads the last block row, whose
    blocks converge to (A_N, ..., A_0) as L grows.  Returns A with shape
    (N + 1, k, k).

    In lower band storage ab[r, c] = T[c + r, c].  Block column c // k holds
    C_d[p, q] at row r, with q = c % k and d k + p = r + q, which is the flat
    index k (r + q) + q of C; so one (bw + 1, k) column block repeated L
    times is the band, once the entries with c + r >= n, outside T, are
    zeroed.  It is filled as the transpose of a C-ordered array, which is
    the Fortran order LAPACK factors in place.
    The last block row is read the same way: A_d[p, q] sits at row
    d k + p - q of column (L - 1 - d) k + q, and above the diagonal of A_0
    the factor is zero.
    """
    C = np.asarray(C)
    n = k * L
    bw = k * (N + 1) - 1
    s = np.arange(bw + 1)[:, None] + np.arange(k)
    block = np.where(s <= bw, C.reshape(-1)[k * np.minimum(s, bw) + np.arange(k)], 0)
    w = min(bw, n)
    outside = np.arange(bw + 1)[:, None] + np.arange(w) >= w
    for bump in range(4):
        # The band is factored in place, so each try fills a fresh one.
        band = np.empty((L, k, bw + 1), dtype=complex)
        band[:] = block.T
        ab = band.reshape(n, bw + 1).T
        ab[:, n - w :][outside] = 0.0
        if bump:
            scale = max(float(np.max(np.abs(Cd))) for Cd in C)
            ab[0, :] += scale * (1e-13 * 100.0 ** (bump - 1))
        try:
            chol = scipy.linalg.cholesky_banded(
                ab, overwrite_ab=True, lower=True, check_finite=False
            )
            break
        except scipy.linalg.LinAlgError:
            pass
    else:
        raise NumericalFailureError("block Toeplitz section is not positive definite")
    d, p, q = np.ix_(np.arange(N + 1), np.arange(k), np.arange(k))
    rows = d * k + p - q
    A = chol[np.maximum(rows, 0), (L - 1 - d) * k + q]
    A[rows < 0] = 0.0
    return A


def _conv_coeffs(A: np.ndarray) -> np.ndarray:
    """Coefficients D_n = sum_q A_{n+q} A_q^H, n = 0..N, of A A~ for (N+1, m, k) A.

    One contraction over windows W[n, :, :, q] = A_{n+q} of A padded with
    N zero powers; it rounds as one einsum per power does.
    """
    P = A.shape[0]
    W = sliding_window_view(np.concatenate([A, np.zeros_like(A[1:])]), P, axis=0)
    return np.einsum("nikq,qjk->nij", W, A.conj())


def _relative_residual(C: np.ndarray, A: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(C))), 1e-300)
    return float(np.max(np.abs(C - _conv_coeffs(A)))) / scale


def _coeff_jacobian(A: np.ndarray) -> np.ndarray:
    """Real Jacobian of D_0..D_N with respect to the real and imaginary parts of A.

    A_p enters D_n through A_p A_{p-n}^H and A_{n+p} A_p^H.  With row-major
    vectorization, dD_n[i, j] / dA_p[i, c] = conj(A_{p-n}[j, c]) for p >= n
    (the linear part lin), and dD_n[i, j] / conj(dA_p[j, c]) = A_{n+p}[i, c]
    for n + p <= N (the antilinear part anti).  The real blocks are
    [[Re(lin + anti), -Im(lin - anti)], [Im(lin + anti), Re(lin - anti)]],
    written by index into one zeroed array.

    Every entry, the sign of each zero included, is what those sums give
    on dense complex lin and anti arrays whose zeros are all +0: xGELSY's
    Householder vectors take the sign of their leading entry, so a zero of
    the other sign changes the step in its last bits.
    """
    P, m, k = A.shape
    U = P * m * k
    down = P * m * m
    # Column-major, the order xGEQP3 factors in, so it needs no copy.
    J = np.zeros((2 * down, 2 * U), order="F")
    flat = J.T.reshape(-1)
    row = np.arange(down).reshape(P, m, m, 1)
    col = 2 * down * np.arange(U).reshape(P, m, 1, k)
    right = 2 * down * U
    s = np.arange(P)
    n, p = np.nonzero(s[:, None] <= s)
    # + 0.0 turns every -0 of lin and anti into +0.
    lin = A[p - n].conj()[:, None] + 0.0
    at = row[n] + col[p]
    flat[at] = lin.real
    flat[at + right] = lin.imag
    flat[at + down] = lin.imag
    flat[at + down + right] = lin.real
    n, p = np.nonzero(s[:, None] + s < P)
    anti = A[n + p][:, :, None] + 0.0
    at = row[n] + col[p].swapaxes(1, 2)
    flat[at] += anti.real
    flat[at + right] -= anti.imag
    flat[at + down] += anti.imag
    flat[at + down + right] -= anti.real
    # The upper-right block, Im lin - Im anti so far, becomes its negation.
    np.negative(J[:down, U:], out=J[:down, U:])
    return J


class _JacobianFactor:
    """Complete orthogonal factorization of the Jacobian J at A0, as xGELSY forms it.

    QR with column pivoting (xGEQP3) gives J P = Q [[R11, R12], [0, R22]];
    the rank r counts the leading diagonal entries of R above numpy
    lstsq's cutoff eps * max(J.shape) times |R[0, 0]|, and xTZRZF turns
    the top r rows into [T 0] Z with T upper triangular.  solve applies
    Q^T (xORMQR), T^-1 (xTRSM), Z^T (xORMRZ) and P.  Each routine gets the
    workspace xGELSY passes it, because LAPACK's blocking, and so the
    rounding, follows the workspace: the solution then equals
    scipy.linalg.lstsq(J, b, cut, lapack_driver="gelsy") in every bit.
    """

    def __init__(self, A: np.ndarray):
        self.at = A
        J = _coeff_jacobian(A)
        m, n = J.shape
        mn = min(m, n)
        cut = np.finfo(float).eps * max(m, n)
        work = int(lapack.dgelsy_lwork(m, n, 1, cut)[0])
        self.qr, jpvt, self.tau, _, _ = lapack.dgeqp3(J, work - mn, overwrite_a=True)
        self.perm = jpvt - 1
        d = np.abs(np.diagonal(self.qr))
        cuts = np.flatnonzero(d <= cut * d[0]) if d[0] else [0]
        self.rank = int(cuts[0]) if len(cuts) else mn
        self.work = work - 2 * mn
        # xGELSY skips this at full rank, where it leaves T = R11 and Z = I.
        self.rz, self.tau_z, _ = lapack.dtzrzf(self.qr[: self.rank], self.work)
        self._pinv_norm = None

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Minimum-norm least-squares solution of J x = b, J cut to rank r."""
        r, n = self.rank, self.qr.shape[1]
        y = np.zeros((n, 1))
        if r:
            c = lapack.dormqr("L", "T", self.qr, self.tau, b[:, None], self.work)[0]
            y[:r] = blas.dtrsm(1.0, self.rz[:, :r], c[:r])
            y = lapack.dormrz(self.rz, self.tau_z, y, side="L", trans="T", lwork=self.work)[0]
        x = np.empty(n)
        x[self.perm] = y[:, 0]
        return x

    def contraction(self, A: np.ndarray) -> float:
        """Bound on kappa = ||J(A) - J(A0)||_2 ||J(A0)^+||_2, up to xTRCON's estimate.

        J is real-linear in A, so J(A) - J(A0) = J(E) with E = A - A0, and
        J(E) h = conv(h, E) + conv(E, h): for each power q, E_q enters each
        convolution once, through a block shift and a product with E_q, so
        ||J(E)||_2 <= 2 sum_q ||E_q||_2 <= 2 sum_q ||E_q||_F.  The truncated
        J(A0)^+ is P Z^T [T^-1; 0] Q^T, of norm ||T^-1||_2 <= sqrt(r)
        ||T^-1||_1, and xTRCON estimates ||T^-1||_1 = 1 / (rcond ||T||_1).
        """
        if self._pinv_norm is None:
            T = self.rz[:, : self.rank]
            # 1 / ||T^-1||_1 by the estimate; zero for a singular or empty T.
            scale = 0.0
            if self.rank:
                scale = lapack.dtrcon(T)[0] * np.abs(np.triu(T)).sum(axis=0).max()
            self._pinv_norm = np.sqrt(self.rank) / scale if scale > 0 else np.inf
        E = A - self.at
        moved = float(np.sqrt((E.real**2 + E.imag**2).sum(axis=(1, 2))).sum())
        return 2.0 * moved * self._pinv_norm


def _gauss_newton_step(C: np.ndarray, A: np.ndarray, factor: _JacobianFactor) -> np.ndarray:
    """Least-squares step of the equations linearized at A, by factor's Jacobian.

    With factor taken at A it is the minimum-norm Gauss-Newton step; with
    factor taken at an earlier iterate it is a chord step.
    """
    # Near a factor with zeros close to the circle the Jacobian has
    # singular values far below its largest, and the step divides the
    # residual by them.  Forming the residual in extended precision keeps
    # its rounding noise from being amplified into the coefficients.
    R = (C - _conv_coeffs(A.astype(np.clongdouble))).astype(complex).reshape(-1)
    x = factor.solve(np.concatenate([R.real, R.imag]))
    U = x.size // 2
    return (x[:U] + 1j * x[U:]).reshape(A.shape)


def polish_coefficients(
    C: np.ndarray, A: np.ndarray, target: float, min_steps: int = 0
):
    """Gauss-Newton refinement of factor coefficients A against C_0..C_N.

    A is (N+1, m, k) and C is (N+1, m, m); the unknowns are the real and
    imaginary parts of A, the equations sum_q A_{n+q} A_q^H = C_n.  Each
    step is the minimum-norm least-squares solution of the linearized
    equations, by complete orthogonal factorization (_JacobianFactor, the
    one LAPACK xGELSY forms) with numpy lstsq's rank cutoff
    eps * max(J.shape), so it has no component along the right-unitary
    gauge of A, the Jacobian's only null space.
    The first step factors J at the start.  A later step is a chord step
    that reuses the kept factorization of J(A0) at the iterate A, as long
    as its contraction bound kappa = ||J(A) - J(A0)|| ||J(A0)^+|| is at
    most _CHORD_CONTRACTION; otherwise it factors J(A) and keeps that.
    A full step may raise the max-abs residual (relative to max |C_n|) up
    to _POLISH_GROWTH times the best one so far; beyond that it is halved.
    Stops when the residual reaches target after at least min_steps steps,
    when no halving is accepted, or when progress stalls.  Returns
    (A, relative_residual) for the best iterate, which is the start when
    nothing improves.
    """
    best, best_rel = A, _relative_residual(C, A)
    stalls = 0
    factor = None
    for step_count in range(_POLISH_MAX_ITERS):
        reached = best_rel <= target and step_count >= min_steps
        if reached or stalls >= _POLISH_STALLS:
            break
        if factor is None or factor.contraction(A) > _CHORD_CONTRACTION:
            factor = _JacobianFactor(A)
        step = _gauss_newton_step(C, A, factor)
        for _ in range(_POLISH_HALVINGS):
            trial = A + step
            rel = _relative_residual(C, trial)
            if rel < _POLISH_GROWTH * best_rel:
                break
            step = 0.5 * step
        else:
            break
        A = trial
        stalls = stalls + 1 if rel > 0.5 * best_rel else 0
        if rel < best_rel:
            best, best_rel = A, rel
    return best, best_rel


def canonicalize(F: LaurentMatrix) -> CanonicalForm:
    """Rotate an analytic factor to its canonical right-unitary representative.

    With F(0) = W Sigma V^H (thin SVD), applies V D where the diagonal phase
    D makes the first largest-magnitude entry of each column of W Sigma real
    positive.  Requires full column rank at z = 0.
    """
    if not F.is_zero and F.lo < 0:
        raise ValueError("canonicalize expects an analytic matrix")
    F0 = F.coeff(0)
    W, sv, Vh = np.linalg.svd(F0, full_matrices=False)
    if sv.size == 0 or sv[-1] <= _RANK0_TOL * max(sv[0], 1e-300):
        raise ValueError("factor is rank deficient at z = 0")
    B = W * sv
    phases = np.ones(F.cols, dtype=complex)
    for j in range(F.cols):
        idx = int(np.argmax(np.abs(B[:, j])))
        x = B[idx, j]
        phases[j] = x.conjugate() / abs(x)
    applied = Vh.conj().T @ np.diag(phases)
    factor = (F @ LaurentMatrix.constant(applied)).as_analytic(0.0)
    return CanonicalForm(factor=factor, applied_unitary=applied)


def factor_positive_definite(S: LaurentMatrix, tol: float = 1e-9) -> AnalyticPolyMatrix:
    """Canonical analytic spectral factor of a full-rank definite spectrum.

    Postconditions: S+ is analytic of the same order as S, S+ S+~ matches S
    within tol relative to the largest coefficient, find_rank_drop_points
    reports no rank drop of S+ in the open unit disk, and S+ is the
    canonical representative of its right-unitary class.

    For every k, Bauer's section is doubled from max(_BAUER_BLOCKS, 2N + 2)
    block rows until the best estimate meets 0.3 * tol, the cap is reached,
    or a doubling gains no more than the one before it.  Only a best
    estimate still above tol is polished toward 0.3 * tol.  If that polish
    stalls above tol, the doubling restarts from the first section, now
    polishing after every section and going one doubling further.  A factor
    that needed polishing takes one more Gauss-Newton step once it meets
    tol, because the first iterate at the target can still be far from
    the outer factor.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    S = S.trim(0.0)
    if S.is_zero:
        raise NotFactorableError("zero spectrum has no full-rank factor")
    _screen_definite(S, tol)
    k = S.rows
    N = S.hi
    scale = S.max_abs

    if N == 0:
        C0 = S.coeff(0)
        C0 = 0.5 * (C0 + C0.conj().T)
        w, V = np.linalg.eigh(C0)
        if w[0] <= tol * w[-1]:
            raise NotFactorableError("constant spectrum is numerically singular")
        F = LaurentMatrix.constant(V @ np.diag(np.sqrt(np.maximum(w, 0.0))))
        return canonicalize(F).factor

    C = S.coeff_array(0, N)
    L = max(_BAUER_BLOCKS, 2 * N + 2)
    best_A = _bauer_last_row(C, k, N, L)
    best_rel, last_gain = _relative_residual(C, best_A), 0.0
    for _ in range(_BAUER_DOUBLINGS):
        if best_rel <= 0.3 * tol:
            break
        L *= 2
        A = _bauer_last_row(C, k, N, L)
        rel = _relative_residual(C, A)
        gain = best_rel / max(rel, 1e-300)
        if rel < best_rel:
            best_A, best_rel = A, rel
        if gain <= last_gain:
            break
        last_gain = gain
    polished = best_rel > tol
    if polished:
        best_A, best_rel = polish_coefficients(C, best_A, 0.3 * tol)
    if best_rel > tol:
        # At a multiple circle zero of det S Gauss-Newton converges only
        # linearly and a polish stalls; polishing after every doubling from
        # the first section, each polish with a fresh stall count, recovers.
        L, best_rel = max(_BAUER_BLOCKS, 2 * N + 2), np.inf
        for _ in range(_BAUER_DOUBLINGS + 2):
            A = _bauer_last_row(C, k, N, L)
            rel = _relative_residual(C, A)
            if rel < best_rel:
                best_A, best_rel = A, rel
            if best_rel > tol:
                best_A, best_rel = polish_coefficients(C, best_A, 0.3 * tol)
            if best_rel <= tol:
                break
            L *= 2
    if best_rel > tol:
        raise NumericalFailureError(
            "factorization residual %.3e exceeds tol %.3e" % (best_rel, tol),
            residual=best_rel,
        )
    if polished:
        # The polish stops at its first iterate at or below the target,
        # whose forward error can still be far above the rounding floor:
        # (1,1,40) seed 1189 stops at residual 7.1e-16 but 4.1e-13 off the
        # outer factor.  One more Gauss-Newton step takes it to 5.4e-15.
        best_A, best_rel = polish_coefficients(C, best_A, 0.3 * tol, min_steps=1)

    F, _ = clear_rank_drops(LaurentMatrix.from_coeffs(best_A), RankDefOptions(tol=tol))
    factor = canonicalize(F).factor

    final = (factor @ factor.adjoint() - S).max_abs / scale
    if final > 10.0 * tol:
        raise NumericalFailureError(
            "post-reflection residual %.3e exceeds tolerance" % final,
            residual=final,
        )
    return factor
