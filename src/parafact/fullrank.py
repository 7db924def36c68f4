"""Spectral factorization of full-rank positive definite Laurent matrices.

Given S(z) = sum_{|n| <= N} C_n z^n, Hermitian positive definite a.e. on the
unit circle, computes the analytic factor S+ with S = S+ S+~, S+ of order N,
det S+(z) != 0 for |z| < 1, normalized to a canonical representative of the
right-unitary equivalence class.

Every size k >= 1 and order N >= 1, scalar and diagonal S included, takes
one path: Bauer's method, whose estimate is the last block row of the
Cholesky factor of the block Toeplitz section T[i, j] = C_{i-j}; its
blocks converge to the factor coefficients as the section grows.  Cut into
blocks of N k rows the section is block tridiagonal, so cyclic reduction
(Meini) doubles it for one Cholesky of an N k x N k matrix per step, and
the ladder runs until its estimate reaches the rounding floor, takes one
step past it, and stops, or ends where a section stops being positive
definite; at a circle zero of det S, where the residual falls by only
about 4 per step, it gets there within 23 to 26 steps.  The residual of
a step is formed in full only near the floor: its top power, C_N -
A_N A_0^H, is one k x k product and bounds it from below.  A start that
still misses the tolerance is refined by polish_coefficients: damped
Gauss-Newton least squares on the quadratic coefficient equations
sum_q A_{n+q} A_q^H = C_n.  A polish factors the Jacobian once, by a
Cholesky factorization of its normal equations with the gauge null space
filled in, or, where one refinement shows that solve off by more than a
chord step may be, by the complete orthogonal factorization of LAPACK
xGELSY.  It takes its later steps as chord steps on that factorization
while a bound on their first-order contraction stays below
_CHORD_CONTRACTION; past it, it factors again.  Every call site stops by
one rule: a start already at the target takes no step, and a polish that
had to step takes exactly one chord step past the first iterate that meets
it.  factor_positive_definite polishes the ladder's estimate to one
target, _FINAL_POLISH; where that polish misses it, as at a multiple
circle zero of det S, the ladder of S + delta I is polished against S as
well and the lower residual kept.  roots.clear_rank_drops then reflects
the interior rank drops left near circle zeros of det S across the
circle, and the factor is polished again, until a pass reflects nothing.
Each pass first tries to certify det of the factor zero-free in the disk
by one Schur-Cohn Cholesky, and runs the QZ of the drop finder only where
that fails, so the last pass on an outer factor costs no QZ.
One check holds the residual to tol, and canonicalize ends it.
The rank-deficient pipeline uses both halves on its tall factor: ladder
sections of the regularized spectra S + delta I and S + 2 delta I start
it, and the same polish finishes it, as it finishes the rational fallback.
"""

from __future__ import annotations

from itertools import islice

import numpy as np
import scipy.linalg
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import blas, lapack

from .errors import NotFactorableError, NumericalFailureError
from .laurent import (
    AnalyticPolyMatrix,
    LaurentMatrix,
    LaurentPoly,
    _grid_values,
    _order_grid_count,
)
from .roots import RankDefOptions, _drop_budget, clear_rank_drops

__all__ = [
    "scalar_factor",
    "factor_positive_definite",
    "canonicalize",
]

# Relative screen for "full rank at z = 0" inside canonicalize.
_RANK0_TOL = 1e-12
# The cyclic-reduction ladder's step j gives the section of N 2^j + 1 block
# rows.  Off circle zeros of det S its error squares with each step; at a
# simple circle zero the residual falls only by 4 per step, the square of
# the doubled section size, and from a residual of at most 1 it reaches the
# rounding unit u = 2^-53 after log_4(1 / u) = 26.5 steps.  A ladder
# slower than that cannot reach the floor and is left to the polish, so
# the ladder's only count-based stop is after _LADDER_STEPS = 27 steps.
_LADDER_STEPS = 27
# A ladder of S + delta I, delta = _REGULARIZATION * max |C_n|, starts the
# polish where S itself has too little definiteness: the recovery at
# multiple circle zeros of det S, and rankdef's regularized start, which
# extrapolates the shift's linear term away.  So delta is as small as
# rounding allows.  Each ladder step factors an N m x N m pivot Q, which
# perturbs it by about N m u ||Q||, and ||Q|| <= ||T|| <= (2N + 1) m
# max |C_n|: 1e-12 of max |C_n| at (8, ., 8).  1e-10 is the first power of
# ten 40x above that, and both shifts of the start add at least delta.
_REGULARIZATION = 1e-10
# A Gauss-Newton step that is large along ill-conditioned directions
# overshoots by its quadratic term, which the next step removes; so a step
# may raise the residual up to _POLISH_GROWTH times the best one before it
# is halved.  The polish stops after _POLISH_STALLS consecutive steps that
# fail to halve the best residual, and in any case after _POLISH_MAX_ITERS.
_POLISH_GROWTH = 10.0
_POLISH_STALLS = 3
_POLISH_MAX_ITERS = 30
_POLISH_HALVINGS = 10
# Residual target of every polish of factor_positive_definite and of the
# final polish of the tall factors and the paraunitary completion.
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


def scalar_factor(f: LaurentPoly, tol: float = 1e-9) -> LaurentPoly:
    """Outer spectral factor of a scalar symbol: q analytic with q q~ = f.

    f must be para-Hermitian and nonnegative on the unit circle.  q is the
    1 x 1 factor_positive_definite factor of f, so it is polished to
    _FINAL_POLISH and canonical: q(0) is real positive, which pins the
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
    return factor_positive_definite(LaurentMatrix.from_entries([[f]]), tol).entry(0, 0)


def _screen_samples(S: LaurentMatrix) -> np.ndarray:
    """S at the order grid turned by 1 / count radians, as (count,) + S.shape.

    The grid is the one of _order_grid_count(order), order the largest
    |power| of the nonzero S.  A turn of a rational number of radians puts
    no point at a rational multiple of pi, where comb spectra |1 - c z^N|^2,
    c a root of unity, vanish: unturned, every grid point can be a zero of
    one entry.  The turn is the phase e^(i n / count) on the power-n
    coefficient, folded onto the grid as eval_unit_grid folds.
    """
    lo, hi = S.lo, S.hi
    count = _order_grid_count(max(hi, -lo))
    turn = np.exp(1j * np.arange(lo, hi + 1) / count)
    return _grid_values(S.coeff_array(lo, hi) * turn[:, None, None], lo, count)


def _screen_definite(S: LaurentMatrix, tol: float) -> np.ndarray:
    """Reject a spectrum that is not square, para-Hermitian and nonnegative.

    Raises ValueError for the first two and NotFactorableError when an
    eigenvalue on the unit circle falls below -tol times the largest.
    Returns the eigenvalues, one row per point of _screen_samples.
    """
    if S.rows != S.cols:
        raise ValueError("spectrum must be square")
    if not S.is_parahermitian(max(tol, 1e-12)):
        raise ValueError("spectrum is not para-Hermitian within tolerance")
    samples = _screen_samples(S)
    samples = 0.5 * (samples + np.conj(np.transpose(samples, (0, 2, 1))))
    eigs = np.linalg.eigvalsh(samples)
    top = float(eigs.max()) if eigs.size else 0.0
    if eigs.min() < -tol * max(top, 1e-300):
        raise NotFactorableError(
            "spectrum is indefinite on the unit circle (min eig %.3e)" % eigs.min()
        )
    return eigs


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


def _gauge_basis(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis (2 U, k^2) of the gauge directions A X, X skew-Hermitian.

    A -> A exp(X) leaves A A~ unchanged, so J (A X) = 0 for every A; X runs
    over i E_jj and, for j < l, E_jl - E_lj and i (E_jl + E_lj), and each
    A X is vectorized as the real unknowns of _coeff_jacobian.
    """
    k = A.shape[2]
    j, l = np.triu_indices(k, 1)
    X = np.zeros((k * k, k, k), dtype=complex)
    X[np.arange(k), np.arange(k), np.arange(k)] = 1j
    r = k + np.arange(j.size)
    X[r, j, l], X[r, l, j] = 1.0, -1.0
    r = r + j.size
    X[r, j, l] = X[r, l, j] = 1j
    G = (A[None] @ X[:, None]).reshape(k * k, -1)
    return np.linalg.qr(np.concatenate([G.real, G.imag], axis=1).T)[0]


class _JacobianFactor:
    """Factorization of the Jacobian J at A0 for minimum-norm least-squares steps.

    The Cholesky branch factors the gauge-augmented normal equations
    M = J^T J + d Q Q^T (xSYRK, xPOTRF), where Q is _gauge_basis(A0) and d
    the largest diagonal entry of J^T J.  J Q = 0 and J^T b is orthogonal
    to Q, so M^-1 J^T b = J^+ b, the minimum-norm step, wherever the gauge
    is J's only null space.  The first solve refines once against J,
    dx = M^-1 J^T (b - J x), and keeps the branch only if ||dx|| <=
    _CHORD_CONTRACTION ||x + dx||: the solve is then off the exact step by
    no more than a chord step may be.  A normal-equations solve is off by
    about u kappa(M) = u / s^2 relative, where s is the smallest non-gauge
    singular value of J over its largest, so the check fails once s falls
    below about sqrt(u / _CHORD_CONTRACTION) = 3e-8, as on most
    ill-conditioned completion blocks.  It measures how far the solve is
    from its own refinement, so where xPOTRF's rounding damps a near-null
    direction the refinement is damped alike, and the check can pass with
    that direction left out of the step.  Where it fails, or xPOTRF breaks
    down, the xGELSY branch takes over for good.

    The xGELSY branch is the complete orthogonal factorization LAPACK
    xGELSY forms.  QR with column pivoting (xGEQP3) gives
    J P = Q [[R11, R12], [0, R22]]; the rank r counts the leading diagonal
    entries of R above numpy lstsq's cutoff eps * max(J.shape) times
    |R[0, 0]|, and xTZRZF turns the top r rows into [T 0] Z with T upper
    triangular.  solve applies Q^T (xORMQR), T^-1 (xTRSM), Z^T (xORMRZ) and
    P.  Each routine gets the workspace xGELSY passes it, because LAPACK's
    blocking, and so the rounding, follows the workspace: the solution then
    equals scipy.linalg.lstsq(J, b, cut, lapack_driver="gelsy") in every
    bit.
    """

    def __init__(self, A: np.ndarray):
        self.at = A
        self.J = _coeff_jacobian(A)
        M = blas.dsyrk(1.0, self.J, trans=1, lower=1)
        d = float(M.diagonal().max())
        M = blas.dsyrk(d, _gauge_basis(A), beta=1.0, c=M, lower=1, overwrite_c=1)
        self.chol, info = lapack.dpotrf(M, lower=1, clean=0, overwrite_a=1)
        self.checked = False
        self._pinv_norm = None
        if info:
            self._factor_gelsy()

    def _factor_gelsy(self) -> None:
        J, self.J, self.chol, self._pinv_norm = self.J, None, None, None
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

    def _normal_solve(self, b: np.ndarray) -> np.ndarray:
        return lapack.dpotrs(self.chol, self.J.T @ b, lower=1)[0]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Minimum-norm least-squares solution of J x = b (J cut to rank r by xGELSY)."""
        if self.chol is not None:
            x = self._normal_solve(b)
            if self.checked:
                return x
            dx = self._normal_solve(b - self.J @ x)
            x += dx
            if np.linalg.norm(dx) <= _CHORD_CONTRACTION * np.linalg.norm(x):
                self.checked = True
                return x
            self._factor_gelsy()
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
        """Bound on kappa = ||J(A) - J(A0)||_2 ||J(A0)^+||_2, up to xPOCON's or xTRCON's estimate.

        J is real-linear in A, so J(A) - J(A0) = J(E) with E = A - A0, and
        J(E) h = conv(h, E) + conv(E, h): for each power q, E_q enters each
        convolution once, through a block shift and a product with E_q, so
        ||J(E)||_2 <= 2 sum_q ||E_q||_2 <= 2 sum_q ||E_q||_F.  On the
        Cholesky branch M has the eigenvalues sigma_i^2 of J off the gauge
        and d on it, so ||J(A0)^+||_2^2 <= ||M^-1||_2 <= ||M^-1||_1 (M is
        symmetric), which xPOCON estimates.  On the xGELSY branch the
        truncated J(A0)^+ is P Z^T [T^-1; 0] Q^T, of norm ||T^-1||_2 <=
        sqrt(r) ||T^-1||_1, and xTRCON estimates ||T^-1||_1 = 1 / (rcond
        ||T||_1).
        """
        if self._pinv_norm is None:
            if self.chol is not None:
                # Given ||M||_1 = 1, xPOCON returns 1 / its estimate of ||M^-1||_1.
                rcond = lapack.dpocon(self.chol, 1.0, uplo="L")[0]
                self._pinv_norm = 1.0 / np.sqrt(rcond) if rcond > 0 else np.inf
            else:
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


def polish_coefficients(C: np.ndarray, A: np.ndarray, target: float):
    """Gauss-Newton refinement of factor coefficients A against C_0..C_N.

    A is (N+1, m, k) and C is (N+1, m, m); the unknowns are the real and
    imaginary parts of A, the equations sum_q A_{n+q} A_q^H = C_n.  Each
    step is the minimum-norm least-squares solution of the linearized
    equations, by _JacobianFactor: a Cholesky factorization of the
    gauge-augmented normal equations, or the complete orthogonal
    factorization of LAPACK xGELSY with numpy lstsq's rank cutoff
    eps * max(J.shape) where the first solve's refinement rejects that.
    Either way the step has no component along the right-unitary gauge of
    A, the Jacobian's only null space.
    The first step factors J at the start.  A later step is a chord step
    that reuses the kept factorization of J(A0) at the iterate A, as long
    as its contraction bound kappa = ||J(A) - J(A0)|| ||J(A0)^+|| is at
    most _CHORD_CONTRACTION; otherwise it factors J(A) and keeps that.
    A full step may raise the max-abs residual (relative to max |C_n|) up
    to _POLISH_GROWTH times the best one so far; beyond that it is halved.

    One stopping rule serves every caller.  A start already at target
    takes no step.  Otherwise the polish steps until an iterate meets
    target and then takes exactly one more step, a chord step on the kept
    factorization, because the first iterate at the target can still be
    far from the factor: polished toward 3e-10, (1,1,40) seed 1189 first
    meets it at residual 1.1e-11, 7.9e-9 off the outer factor, and the step
    past takes it to 1.6e-13 and 1.1e-10.  The polish also stops when no
    halving is accepted, when progress stalls short of the target, or after
    _POLISH_MAX_ITERS steps in all.  Returns (A, relative_residual) for the
    best iterate, which is the start when nothing improves.
    """
    best, best_rel = A, _relative_residual(C, A)
    stalls = 0
    factor = None
    past = False
    for _ in range(_POLISH_MAX_ITERS):
        if best_rel <= target:
            if factor is None or past:
                break
            past = True
        elif stalls >= _POLISH_STALLS:
            break
        elif factor is None or factor.contraction(A) > _CHORD_CONTRACTION:
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


def canonicalize(F: LaurentMatrix) -> AnalyticPolyMatrix:
    """Rotate an analytic factor to its canonical right-unitary representative.

    With F(0) = W Sigma V^H (thin SVD), applies V D where the diagonal phase
    D makes the first largest-magnitude entry of each column of W Sigma real
    positive.  Raises NumericalFailureError when F(0) is rank deficient.
    """
    if not F.is_zero and F.lo < 0:
        raise ValueError("canonicalize expects an analytic matrix")
    F0 = F.coeff(0)
    W, sv, Vh = np.linalg.svd(F0, full_matrices=False)
    ratio = sv[-1] / sv[0] if sv.size and sv[0] > 0 else 0.0
    if ratio <= _RANK0_TOL:
        raise NumericalFailureError(
            "factor is rank deficient at z = 0: singular value ratio %.3e of F(0), "
            "cut %.0e" % (ratio, _RANK0_TOL)
        )
    B = W * sv
    phases = np.ones(F.cols, dtype=complex)
    for j in range(F.cols):
        idx = int(np.argmax(np.abs(B[:, j])))
        x = B[idx, j]
        phases[j] = x.conjugate() / abs(x)
    applied = Vh.conj().T @ np.diag(phases)
    return (F @ LaurentMatrix.constant(applied)).as_analytic(0.0)


def _reblocked_section(C: np.ndarray):
    """Blocks D, E of the Toeplitz section T[i, j] = C_{i-j} reblocked by N.

    In blocks of n = N k rows T is block tridiagonal and Toeplitz: D on the
    diagonal, E below it and E^H above it, where D[a, b] = C_{a-b} (with
    C_{-d} = C_d^H) and E[a, b] = C_{N+a-b} for a <= b, zero for a > b.
    """
    N, k = C.shape[0] - 1, C.shape[1]
    a = np.arange(N)
    d = a[:, None] - a
    signed = np.concatenate([C[:0:-1].conj().swapaxes(1, 2), C])
    D = signed[d + N]
    E = np.where((d <= 0)[:, :, None, None], C[np.minimum(N + d, N)], 0.0)
    return tuple(M.swapaxes(1, 2).reshape(N * k, N * k) for M in (D, E))


def _cholesky(M: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a Hermitian M from its lower triangle (xPOTRF).

    Raises LinAlgError when M is not positive definite.
    """
    L, info = lapack.zpotrf(M, lower=True, clean=True)
    if info:
        raise scipy.linalg.LinAlgError("matrix is not positive definite")
    return L


def _deep_row(C: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Factor coefficients (N+1, k, k) from the last pivot X of a reblocked section.

    The section of L = N M + 1 block rows is M reblocked rows and one last
    row [0 ... 0 b C_0], b = [C_N ... C_1].  Its Cholesky factor keeps the
    band, so the last row is b L_X^-H = (A_N ... A_1) over the last
    reblocked pivot X = L_X L_X^H, and A_0 = chol(C_0 - b X^-1 b^H).
    Raises LinAlgError when X or that complement is not positive definite.
    """
    N, k = C.shape[0] - 1, C.shape[1]
    b = C[:0:-1].swapaxes(0, 1).reshape(k, N * k)
    Y = blas.ztrsm(1.0, _cholesky(X), b.conj().T, lower=True)
    A = np.empty((N + 1, k, k), dtype=complex)
    A[1:] = Y.conj().T.reshape(k, N, k).swapaxes(0, 1)[::-1]
    A[0] = _cholesky(C[0] - Y.conj().T @ Y)
    return A


def _cyclic_reduction(C: np.ndarray):
    """Deep-row estimates of sections of L = N 2^j + 1 block rows, j = 0, 1, ...

    The pivots of the reblocked section obey X_1 = D, X_(i+1) = D - E
    X_i^-1 E^H, the fixed-point form of X + W^H X^-1 W = D with W = E^H.
    Meini's cyclic reduction takes X_(2^j) to X_(2^(j+1)) in one Cholesky
    of Q: with Q = X = D and W = E^H at the start, X -= W^H Q^-1 W,
    Q <- Q - W Q^-1 W^H - W^H Q^-1 W and W <- W Q^-1 W.  After j steps X
    is the last pivot of 2^j reblocked rows, so _deep_row reads the section
    of N 2^j + 1 block rows.  Yields the estimate of each step; stops when
    Q or the deep row is no longer positive definite.
    """
    Q, E = _reblocked_section(C)
    X, W = Q, E.conj().T
    n = W.shape[0]
    while True:
        try:
            yield _deep_row(C, X)
            L_Q = _cholesky(Q)
        except scipy.linalg.LinAlgError:
            return
        # G = L_Q^-1 W and H = L_Q^-1 W^H, in one solve.
        GH = blas.ztrsm(1.0, L_Q, np.hstack([W, W.conj().T]), lower=True)
        G, H = GH[:, :n], GH[:, n:]
        GG = G.conj().T @ G
        X = X - GG
        Q = Q - H.conj().T @ H - GG
        W = H.conj().T @ G


def _ladder_estimate(C: np.ndarray):
    """(A, residual) of the cyclic-reduction ladder's kept estimate, or (None, inf).

    Once the ladder's best estimate is at most _FINAL_POLISH it takes
    exactly one step more and keeps that estimate, the step past of
    polish_coefficients' rule.  It stops earlier only where a section is no
    longer positive definite, and in any case after _LADDER_STEPS steps.  A
    step forms its full residual only where its single-term power N,
    max |C_N - A_N A_0^H| over max |C|, a lower bound on it, does not
    exceed _FINAL_POLISH by more than 3 (k + 2) u, the rounding of both
    ways of forming that block; a ladder that ends short of the floor forms
    the ones it skipped and keeps the first best estimate.
    """
    N, k = C.shape[0] - 1, C.shape[1]
    scale = max(float(np.max(np.abs(C))), 1e-300)
    floor = _FINAL_POLISH + 3 * (k + 2) * 0.5 * np.finfo(float).eps
    reached, steps = False, []
    for j, A in enumerate(islice(_cyclic_reduction(C), _LADDER_STEPS + 1)):
        if reached and j > 1:
            return A, _relative_residual(C, A)
        bound = float(np.max(np.abs(C[N] - A[N] @ A[0].conj().T))) / scale
        rel = None if bound > floor else _relative_residual(C, A)
        steps.append((A, rel))
        reached = reached or (rel is not None and rel <= _FINAL_POLISH)
    if not reached:
        steps = [(A, _relative_residual(C, A) if r is None else r) for A, r in steps]
    return min(steps, key=lambda s: np.inf if s[1] is None else s[1], default=(None, np.inf))


def _polished_ladder(C: np.ndarray, section: np.ndarray):
    """(A, residual) of the ladder estimate of section polished against C, or (None, inf)."""
    A = _ladder_estimate(section)[0]
    return (None, np.inf) if A is None else polish_coefficients(C, A, _FINAL_POLISH)


def factor_positive_definite(S: LaurentMatrix, tol: float = 1e-9) -> AnalyticPolyMatrix:
    """Canonical analytic spectral factor of a full-rank definite spectrum.

    Postconditions: S+ is analytic of the same order as S, S+ S+~ matches S
    within tol relative to the largest coefficient, find_rank_drop_points
    reports no rank drop of S+ in the open unit disk, its coefficients are
    polished toward _FINAL_POLISH, and S+ is the canonical representative
    of its right-unitary class.

    A constant spectrum starts from its eigenvalue square root, and for
    N >= 1 the ladder's estimate starts; each is polished to _FINAL_POLISH,
    since a factor that meets tol can still be far from the outer one.
    Where the ladder's polish misses that, as at a multiple circle zero of
    det S, the ladder of S + delta I, delta = _REGULARIZATION max |C_n|, is
    polished against S too, and the lower residual is kept.  For N >= 1,
    while within tol, clear_rank_drops and a polish repeat until a pass
    reflects nothing, the passes sharing its budget of reflected columns.
    One check holds the residual to tol, and canonicalize rotates the result.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    S = S.trim(0.0)
    if S.is_zero:
        raise NotFactorableError("zero spectrum has no full-rank factor")
    _screen_definite(S, tol)
    N, k = S.hi, S.rows
    C = S.coeff_array(0, N)
    if N == 0:
        C0 = 0.5 * (C[0] + C[0].conj().T)
        w, V = np.linalg.eigh(C0)
        if w[0] <= tol * w[-1]:
            raise NotFactorableError("constant spectrum is numerically singular")
        A = (V @ np.diag(np.sqrt(np.maximum(w, 0.0))))[None]
        A, final = polish_coefficients(C, A, _FINAL_POLISH)
    else:
        A, final = _polished_ladder(C, C)
        if final > _FINAL_POLISH:
            shifted = C.copy()
            shifted[0] += _REGULARIZATION * np.max(np.abs(C)) * np.eye(k)
            A, final = min([(A, final), _polished_ladder(C, shifted)], key=lambda s: s[1])
    budget, reflected = _drop_budget(k, N), 0
    while N and final <= tol:
        F, ops = clear_rank_drops(LaurentMatrix.from_coeffs(A), RankDefOptions(tol=tol))
        if not ops:
            break
        reflected += len(ops)
        if reflected > budget:
            raise NumericalFailureError("rank drops left after a budget of %d" % budget)
        A, final = polish_coefficients(C, F.coeff_array(0, N), _FINAL_POLISH)
    if final > tol:
        raise NumericalFailureError(
            "factorization residual %.3e exceeds tol %.3e" % (final, tol), residual=final
        )
    # canonicalize applies a constant unitary, which leaves F F~ as it is
    # up to rounding, so the polish's residual is the factor's.
    return canonicalize(LaurentMatrix.from_coeffs(A))
