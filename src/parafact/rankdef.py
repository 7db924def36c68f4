"""Spectral factorization of rank-deficient Laurent polynomial spectra.

An m x m para-Hermitian S(z) of order N that is nonnegative definite of rank
k < m almost everywhere on the unit circle factors as S = S+ S+~ with S+ an
m x k analytic polynomial matrix of order N and full column rank everywhere
in the open unit disk.  The pipeline:

1. read the almost-everywhere rank off the eigenvalues that the
   definiteness screen computes on its turned unit-circle grid;
2. for k < m, pick a symmetric permutation putting a well-conditioned
   k x k head block in the leading position (for k = m it is the identity).

For k < m the regularized start comes next.  S + delta I is positive
definite, so a Bauer section (a step of fullrank's cyclic-reduction
ladder) factors it; in the pivot's row order the trailing m - k columns of
that factor shrink like sqrt(delta), because a rank-k process has a rank-k
innovation, while the first k columns are off the outer factor by a term
linear in delta.  Two sections, of S + delta I and S + 2 delta I, give the
Richardson start 2 B(delta) - B(2 delta), which cancels that term.  Its
first k columns, back in the original row order, are refined by the
Gauss-Newton polish that the full-rank factorization also uses
(fullrank.polish_coefficients) to the final target, which by its one
stopping rule takes one step past the first iterate that meets it.  On
generic spectra its steps solve the Cholesky-factored normal equations of
the tall factor's Jacobian; on projector spectra, whose Jacobians are far
worse conditioned, they may fall back to xGELSY.
The start is accepted only when the polish reaches that target and the
result has no interior rank drop; a residual within tol is not enough,
since on projector spectra the polish can stall near 1e-10 at a factor that
is not the outer one.  Otherwise steps 3-5, the rational construction, run
as the fallback:

3. factor the head block (full-rank case) and divide the remaining block
   rows by the adjoint factor, giving a rational tall factor: an analytic
   numerator over one monic denominator, which every later stage shares;
4. move the denominator's zeros, all inside the disk, out by a
   unit-modulus rational (Blaschke) multiplier, the same for every column:
   it replaces the denominator by its conjugate reversal and only rescales
   the numerator, leaving the denominator outer;
5. reflect the interior rank drops of the numerator across the circle
   (roots.clear_rank_drops: the finder's points, each reflected with its
   whole null space in one step; the numerator is tall, so its finder
   always runs the QZ of a compressed pencil, while the square head
   factor's passes run it only where a Schur-Cohn test of the determinant
   fails) and divide out the shared denominator,
   leaving a polynomial factor.  The numerator is cleared first because
   the division is exact only then: each denominator root r must be a zero
   of the whole numerator, and the reflection of the drop at 1/conj(r) is
   what plants it;
6. restore the original row order and refine the coefficients with the
   same Gauss-Newton polish, which removes the error accumulated by
   determinant windows, deflation divisions and Blaschke operations.  Its
   target is _FINAL_POLISH, or half the start's residual when that is
   lower, because a residual at the floor does not bound what the
   reflections leave: the polish steps either way.

Every path ends in that polish and a rotation to the canonical
representative.  For k = m the head factor is the whole factor, and
factor_positive_definite has already done both: it polishes its start,
then clears the factor's interior rank drops with the clearer of step 5
and polishes again, until a clearing pass reflects nothing.  The report
names the path taken: "full-rank", "regularized" or "rational".

Every transformation of the fallback multiplies columns by unit-modulus
scalars or the whole factor by constant unitaries, so F F~ is preserved
throughout up to rounding, which step 6 takes back out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .errors import (
    DegenerateInputError,
    IndeterminateError,
    NumericalFailureError,
)
from .fullrank import (
    _FINAL_POLISH,
    _REGULARIZATION,
    _cyclic_reduction,
    _relative_residual,
    _screen_definite,
    _screen_samples,
    canonicalize,
    factor_positive_definite,
    polish_coefficients,
)
from .laurent import (
    AnalyticPolyMatrix,
    LaurentMatrix,
    LaurentPoly,
    _interp_count,
    _order_grid_count,
)
# fix_rank_drop is re-exported: the package root and bench/tracing.py
# take it from this module.
from .roots import (
    _DEFLATION_RADIUS,
    _RANK_TOL,
    BlaschkeOp,
    RankDefOptions,
    _rng,
    clear_rank_drops,
    divide_linear,
    divide_out,
    find_rank_drop_points,
    fix_rank_drop,
    laurent_roots,
)

__all__ = [
    "RationalMatrix",
    "Check",
    "FactorReport",
    "estimate_rank",
    "select_pivot",
    "check_rank_identity",
    "tail_quotient",
    "stack_rational_factor",
    "remove_inner_poles",
    "finalize_polynomial",
    "spectral_factor",
    "compare_factors",
    "verify_factorization",
]

# Stream tag of select_pivot's circle samples, one of roots._rng's fixed
# streams; roots._TAG_COMPRESS is 103.
_TAG_PIVOT = 102

# Head-block conditioning gate for the block identity check: samples where
# the head is more than this factor away from the sample's largest singular
# value are skipped, bounding the error amplification of the inverse.
_IDENTITY_GATE = 1e-4

# The regularized start factors sections of S + t delta I, t = 1 and 2,
# delta = fullrank._REGULARIZATION * max |C_n|.  The first k columns of a
# section are off the outer factor by a term linear in delta, B(t delta) =
# B(0) + t delta B' + o(delta), and the Richardson start 2 B(delta) -
# B(2 delta) cancels that term.  Both sections are the same ladder step,
# the first with N 2^j + 1 >= _REGULARIZED_BLOCKS block rows, so Bauer's
# truncation error does not cancel.  It stays below what the start leaves:
# the start's residual saturates at the regularization's own error by
# ladder step 2 to 5, and deeper steps do not lower it.
_REGULARIZED_BLOCKS = 128

# Coefficients of at most _EDGE_REL times the largest are trimmed from the
# ends of interpolated determinants, minors (each against its own largest)
# and the tail quotient's numerator (against the whole matrix's), and
# _POLISH_STEPS bounds the deflation's Newton steps on each root estimate of
# the denominator or of a numerator entry.
_EDGE_REL = 1e-12
_POLISH_STEPS = 4


@dataclass(frozen=True)
class Check:
    """Outcome of a single verification: measured value against a threshold."""

    passed: bool
    measured: float
    threshold: float

    def to_dict(self):
        """The report-file entry; non-finite values are clamped to +-1e308."""
        return {
            "pass": bool(self.passed),
            "measured": _clamped(self.measured),
            "threshold": _clamped(self.threshold),
        }


def _clamped(x: float) -> float:
    return float(np.nan_to_num(float(x), nan=-1e308, posinf=1e308, neginf=-1e308))


@dataclass
class FactorReport:
    """What the factorization did and how well the result checks out.

    path is the route spectral_factor took: "full-rank" (k = m),
    "regularized" (the start from S + delta I was accepted) or "rational"
    (the fallback, the only one with Blaschke operations); None for a
    report of verify_factorization.
    """

    detected_rank: int
    pivot: Optional[tuple] = None
    pole_ops: tuple = ()
    zero_ops: tuple = ()
    residual: float = np.inf
    order: Optional[int] = None
    verdicts: dict = field(default_factory=dict)
    path: Optional[str] = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.verdicts.values())


class RationalMatrix:
    """A tall rational matrix over one monic denominator.

    Entry (i, j) is numerator(i, j) / denominator with all numerator
    entries analytic polynomials.  Used for the intermediate factor between
    the head-block factorization and the final polynomial result.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, numerator: LaurentMatrix, denominator: LaurentPoly):
        if denominator.is_zero:
            raise ZeroDivisionError("zero denominator")
        if denominator.lo < 0:
            raise ValueError("denominator must be analytic")
        if abs(denominator.coeff(denominator.hi) - 1.0) > 1e-9:
            raise ValueError("denominator must be monic")
        if not numerator.is_zero and numerator.lo < 0:
            raise ValueError("numerator must be analytic")
        self._num = numerator
        self._den = denominator

    @property
    def numerator(self) -> LaurentMatrix:
        return self._num

    @property
    def denominator(self) -> LaurentPoly:
        return self._den

    @property
    def rows(self) -> int:
        return self._num.rows

    @property
    def cols(self) -> int:
        return self._num.cols

    def eval(self, z) -> np.ndarray:
        return self._num.eval(z) / self._den.eval(z)

    def __repr__(self):
        return "RationalMatrix(%dx%d, den degree=%d)" % (self.rows, self.cols, self._den.hi)


# ---------------------------------------------------------------------------
# rank estimation and pivoting
# ---------------------------------------------------------------------------


def _circle_samples(S: LaurentMatrix) -> np.ndarray:
    """S at 2 max(hi, -lo) + 17 pseudo-random circle points, as a (count, m, m) array.

    The count is sized by the larger of the top and the bottom power, as the
    definiteness screen's grid is, so a matrix of only negative powers is
    sampled too; for a para-Hermitian S it is 2 hi + 17.  The angles are
    the first draws of the fixed _TAG_PIVOT stream, and all points are
    evaluated at once as exp(i n theta) times the stacked coefficients.
    """
    lo, hi = S.lo or 0, S.hi or 0
    count = 2 * max(hi, -lo) + 17
    theta = _rng(_TAG_PIVOT).uniform(0.0, 2.0 * np.pi, count)
    stack = S.coeff_array(lo, hi).reshape(hi - lo + 1, -1)
    waves = np.exp(1j * np.outer(theta, np.arange(lo, hi + 1)))
    return (waves @ stack).reshape(count, S.rows, S.cols)


def _rank_counts(values: np.ndarray) -> np.ndarray:
    """Per sample, the count of |values| above _RANK_TOL times the sample's largest.

    values holds one row per sample: singular values, or the eigenvalues of
    a Hermitian sample, whose moduli are its singular values.  A sample
    whose largest is zero counts 0.  The rank is the maximum count.
    """
    mags = np.abs(values)
    top = mags.max(axis=1)
    return np.where(top > 0, np.sum(mags > _RANK_TOL * top[:, None], axis=1), 0)


def _require_majority(full: np.ndarray, k: int) -> None:
    """Raise DegenerateInputError unless the head block is full rank at most samples."""
    if int(np.sum(full)) <= len(full) // 2:
        raise DegenerateInputError(
            "no permutation keeps the leading %d x %d block full rank "
            "at a majority of samples" % (k, k)
        )


def estimate_rank(S: LaurentMatrix) -> int:
    """Almost-everywhere rank of S on the unit circle.

    The maximum _rank_counts of the singular values at the points of the
    definiteness screen (fullrank._screen_samples), so S need not be
    Hermitian: the rule spectral_factor applies to the screen's eigenvalues.
    """
    if S.rows != S.cols:
        raise ValueError("rank estimation needs a square matrix")
    S = S.trim(0.0)
    if S.is_zero:
        return 0
    sv = np.linalg.svd(_screen_samples(S), compute_uv=False)
    return int(_rank_counts(sv).max())


def _pivot_heads(blocks, k: int) -> list:
    """The first k column pivots of each block's QR with column pivoting, sorted.

    Only xGEQP3 runs, with the workspace its query asks for, as in
    scipy.linalg.qr(..., pivoting=True), so the pivots are that call's;
    Q is never formed.
    """
    heads, lwork = [], {}
    for M in blocks:
        if M.shape not in lwork:
            lwork[M.shape] = int(lapack.zgeqp3(M, -1)[3][0].real)
        jpvt = lapack.zgeqp3(M, lwork[M.shape])[1]
        heads.append(tuple(sorted(int(i) - 1 for i in jpvt[:k])))
    return heads


def select_pivot(S: LaurentMatrix, k: int) -> tuple:
    """Symmetric permutation placing a robust k x k head block first.

    Candidates come from greedy QR column pivoting of the stacked circle
    samples and of each individual sample; the winner maximizes the worst
    relative smallest singular value of the head block over the samples.
    With k equal to the size every candidate is the identity, so the
    pivoting is skipped.  Raises DegenerateInputError when no candidate
    keeps the head block nonsingular at a majority of samples.
    """
    m = S.rows
    if S.rows != S.cols:
        raise ValueError("pivot selection needs a square matrix")
    if not 1 <= k <= m:
        raise ValueError("rank k must be between 1 and the matrix size")
    samples = _circle_samples(S)
    scales = np.linalg.svd(samples, compute_uv=False)[:, 0]

    candidates = [tuple(range(k))]
    if k < m:
        candidates += _pivot_heads([samples.reshape(-1, m), *samples], k)

    live = scales > 0
    safe = np.where(live, scales, 1.0)
    best_idx, best_minsv, best_score = None, None, -1.0
    for idx in dict.fromkeys(candidates):
        block = samples[:, list(idx)][:, :, list(idx)]
        minsv = np.linalg.svd(block, compute_uv=False)[:, -1]
        score = float(np.min(np.where(live, minsv / safe, 0.0)))
        if score > best_score:
            best_idx, best_minsv, best_score = idx, minsv, score

    _require_majority(live & (best_minsv > _RANK_TOL * scales), k)
    rest = tuple(i for i in range(m) if i not in best_idx)
    return best_idx + rest


def check_rank_identity(
    S: LaurentMatrix, perm: tuple, k: int, opts: RankDefOptions | None = None
) -> Check:
    """Block identity diagnostic for a rank-k spectrum under a pivot.

    With the permuted blocks S00 (k x k head), S01, S10, S11, a rank-k
    nonnegative spectrum satisfies S10 S00^{-1} S01 = S11 pointwise.
    Sampled on a uniform grid; samples whose head block is poorly
    conditioned are skipped.  Vacuously true when k equals the size.
    """
    opts = opts or RankDefOptions()
    m = S.rows
    if k == m:
        return Check(True, 0.0, opts.tol)
    count = _order_grid_count(S.hi or 0)
    samples = S.permuted(perm).eval_unit_grid(count)
    scales = np.linalg.svd(samples, compute_uv=False)[:, 0]
    head_min = np.linalg.svd(samples[:, :k, :k], compute_uv=False)[:, -1]
    keep = (scales > 0) & (head_min >= _IDENTITY_GATE * scales)
    if not keep.any():
        return Check(False, np.inf, opts.tol)
    M = samples[keep]
    recon = M[:, k:, :k] @ np.linalg.solve(M[:, :k, :k], M[:, :k, k:])
    dev = np.max(np.abs(recon - M[:, k:, k:]), axis=(1, 2)) / scales[keep]
    worst = float(np.max(dev))
    return Check(worst <= opts.tol, worst, opts.tol)


# ---------------------------------------------------------------------------
# rational factor assembly
# ---------------------------------------------------------------------------


def _edge_trimmed(C: np.ndarray, cut) -> np.ndarray:
    """C with each entry's end coefficients of magnitude <= cut zeroed along axis 0.

    Interpolated determinants and minors, and the tail quotient's product,
    carry a noise skirt beyond their true degree; leaving it in place
    corrupts the power bookkeeping (shifts, folds, and root counts)
    downstream.  Interior coefficients are kept no matter how small, since
    those legitimately occur, and an entry made purely of noise becomes
    zero.  cut is one number or one per entry; magnitudes are taken with
    hypot, which rounds as Python's complex abs.
    """
    big = np.hypot(C.real, C.imag) > cut
    after_first = np.logical_or.accumulate(big, axis=0)
    before_last = np.logical_or.accumulate(big[::-1], axis=0)[::-1]
    return np.where(after_first & before_last, C, 0)


def _det_and_adjugate(F: LaurentMatrix):
    """Determinant and adjugate of a square Laurent matrix, via grid sampling.

    The determinant and the stacked signed complementary minors are sampled
    on one unit-circle grid, and one FFT along the grid axis interpolates
    the minors into one LaurentMatrix; the adjugate stays finite where F
    itself is singular.  Each entry drops the coefficients of at most 1e-14
    times its own peak, then the ends of at most _EDGE_REL times it.
    """
    k = F.rows
    if k == 1:
        return F.entry(0, 0), LaurentMatrix.identity(1)
    lo, hi = (F.lo or 0), (F.hi or 0)
    count = _interp_count(k * (hi - lo))
    samples = F.eval_unit_grid(count)

    def interpolated(values, size):
        # Powers are read off modulo the grid size, as in
        # laurent_from_unit_samples.
        C = (np.fft.fft(values, axis=0) / count)[np.arange(size * lo, size * hi + 1) % count]
        peak = np.hypot(C.real, C.imag).max(axis=0)
        C = np.where(np.hypot(C.real, C.imag) > 1e-14 * peak, C, 0)
        return _edge_trimmed(C, _EDGE_REL * peak)

    cofactors = np.empty(samples.shape, dtype=complex)
    for i in range(k):
        for j in range(k):
            rows, cols = [r for r in range(k) if r != j], [c for c in range(k) if c != i]
            cofactors[:, i, j] = (-1.0) ** (i + j) * np.linalg.det(samples[:, rows][:, :, cols])
    det = LaurentPoly.from_coeffs(interpolated(np.linalg.det(samples), k), k * lo)
    adj = LaurentMatrix.from_coeffs(interpolated(cofactors, k - 1), (k - 1) * lo)
    return det, adj


def _monic_normalized(entries, den):
    """Divide the numerator entries and the denominator by the leading
    denominator coefficient so the denominator is monic."""
    inv = 1.0 / den.coeff(den.hi)
    return [e * inv for e in entries], den * inv


def _entries(M: LaurentMatrix) -> list:
    """The entries of M in row-major order."""
    return [M.entry(i, j) for i in range(M.rows) for j in range(M.cols)]


def _from_entries(entries, cols: int) -> LaurentMatrix:
    """The matrix of cols columns holding entries in row-major order."""
    rows = range(0, len(entries), cols)
    return LaurentMatrix.from_entries([entries[i : i + cols] for i in rows])


def _polish_root(p: LaurentPoly, dp: LaurentPoly, a: complex) -> complex:
    """At most _POLISH_STEPS Newton steps on a root estimate of p, whose derivative is dp."""
    for _ in range(_POLISH_STEPS):
        d = dp.eval(a)
        if not np.isfinite(d) or abs(d) < 1e-300:
            break
        step = p.eval(a) / d
        if not np.isfinite(step):
            break
        a = a - step
        if abs(step) <= 1e-16 * max(1.0, abs(a)):
            break
    return a


def _deflate(entries, den):
    """Cancel the roots that the denominator shares with every numerator entry.

    A denominator root counts as shared when every nonzero entry's
    Newton-estimated distance to its nearest root is within the deflation
    radius.  The shared factor is divided out at a conditioning-weighted
    average of the Newton-polished per-polynomial estimates; raw eigenvalue
    estimates would leave remainders at the root-finding error level, which
    dominates the factorization residual.  Returns (entries, den).
    """
    if all(e.is_zero for e in entries):
        return entries, LaurentPoly.one()
    while den.hi > 0:
        removed = False
        dden = den.derivative()
        dentries = [e.derivative() for e in entries]
        for a in sorted(laurent_roots(den), key=lambda w: (abs(w), w.real, w.imag)):
            cut = _DEFLATION_RADIUS * max(1.0, abs(a))
            ad = _polish_root(den, dden, a)
            wd = abs(dden.eval(ad)) / max(den.max_abs, 1e-300)
            acc = wd * ad
            weight = wd
            shared = True
            for e, de in zip(entries, dentries):
                if e.is_zero:
                    continue
                ea = e.eval(a)
                eda = de.eval(a)
                span_scale = e.max_abs * max(1.0, abs(a)) ** max(e.hi, 0)
                if abs(eda) < 1e-300:
                    if abs(ea) > 1e-12 * span_scale:
                        shared = False
                        break
                    continue
                step = ea / eda
                if abs(step) > cut:
                    shared = False
                    break
                r = _polish_root(e, de, a - step)
                if abs(r - a) <= 2.0 * cut:
                    w = abs(de.eval(r)) / max(e.max_abs, 1e-300)
                    acc += w * r
                    weight += w
            if not shared:
                continue
            root = acc / weight if weight > 0 else a
            entries = [e if e.is_zero else divide_linear(e, root)[0] for e in entries]
            entries, den = _monic_normalized(entries, divide_linear(den, root)[0])
            removed = True
            break
        if not removed:
            break
    return entries, den


def tail_quotient(S_tail: LaurentMatrix, head_factor: AnalyticPolyMatrix) -> RationalMatrix:
    """Rational quotient of the coupling block by the adjoint head factor.

    Computes S_tail (head_factor~)^{-1} as numerator / one monic
    denominator: the inverse enters through the adjugate and determinant of
    the adjoint factor, powers are shifted to make everything analytic, and
    common roots are deflated away.
    """
    k = head_factor.cols
    if S_tail.cols != k:
        raise ValueError("coupling block width must match the head factor")
    head_adj = head_factor.adjoint()
    det, adj = _det_and_adjugate(head_adj)
    if det.is_zero:
        raise NumericalFailureError("adjoint head factor has zero determinant")
    # The adjugate product can have far smaller true support than the
    # term-by-term bound; the cancellation dust beyond it must not drive the
    # analytic lift, or the denominator gets padded with spurious roots at
    # the origin that later stages would have to strip one power at a time.
    product = S_tail @ adj
    lo, cut = product.lo or 0, _EDGE_REL * max(product.max_abs, 1e-300)
    C = product.coeff_array(lo, lo + product.span)
    num = LaurentMatrix.from_coeffs(_edge_trimmed(C, cut), lo)
    shift = max(-det.lo, -(num.lo or 0), 0)
    det_a = det.shifted(shift)
    num = num.shifted(shift)

    # One determinant serves every column, and a root it shares with the
    # numerator cancels in all columns at once (the adjugate is rank one at
    # a determinant root), so it is deflated against the whole numerator in
    # one pass and stays the one denominator of every later stage.
    entries, det_a = _monic_normalized(_entries(num), det_a)
    entries, det_a = _deflate(entries, det_a)
    return RationalMatrix(_from_entries(entries, num.cols), det_a)


def stack_rational_factor(
    head_factor: AnalyticPolyMatrix, tail: RationalMatrix
) -> RationalMatrix:
    """Stack the head factor above the tail quotient over its one denominator.

    The head factor is multiplied by the tail's denominator, so the stacked
    matrix is a single numerator / denominator pair.
    """
    k = head_factor.cols
    if tail.cols != k:
        raise ValueError("tail width must match the head factor")
    den = tail.denominator
    return RationalMatrix(LaurentMatrix.vstack([head_factor * den, tail.numerator]), den)


def remove_inner_poles(R: RationalMatrix):
    """Multiply every column by one unit-modulus rational factor to clear interior poles.

    Every zero a of the shared denominator d lies inside the disk: it is
    1/conj of a zero of the outer head factor's determinant.  The factor
    prod (z - a)/(1 - conj(a) z) = d/d# has unit modulus on the circle, so
    R R~ is untouched, and it trades d for its conjugate reversal d#(z) =
    z^deg conj(d(1/conj z)), whose zeros are the 1/conj(a): the new
    denominator is d# made monic and the numerator is only rescaled by the
    same constant.  A root with |a| >= 1 - _DEFLATION_RADIUS cannot be moved
    out and raises NumericalFailureError naming it.

    Returns (cleared RationalMatrix, tuple of BlaschkeOp records): one
    record per column for each moved zero, column by column.
    """
    den = R.denominator
    # A pole of multiplicity mu at the origin shows up as mu noise roots
    # scattered on a ring of radius ~eps^(1/mu).  The exact structure is
    # visible in the coefficients instead: the bottom s of them sit at noise
    # level, so divide out z^s directly: s zeros moved from the origin.
    s = 0
    while s < den.hi and abs(den.coeff(s)) <= 1e-12 * den.max_abs:
        s += 1
    c = den.coeff_array(s, den.hi)
    roots = laurent_roots(LaurentPoly.from_coeffs(c))
    roots = sorted(roots, key=lambda w: (abs(w), w.real, w.imag))
    bad = [a for a in roots if abs(a) >= 1.0 - _DEFLATION_RADIUS]
    if bad:
        raise NumericalFailureError(
            "shared denominator root %.6g%+.6gj is not inside |z| < 1 - %g"
            % (bad[0].real, bad[0].imag, _DEFLATION_RADIUS)
        )
    moved = [0j] * s + [complex(a) for a in roots]
    ops = tuple(
        BlaschkeOp(a=a, column=j, direction="pole-removal") for j in range(R.cols) for a in moved
    )
    lead = np.conj(c[0])
    reversed_den = LaurentPoly.from_coeffs(np.conj(c[::-1]) / lead)
    return RationalMatrix(R.numerator * (1.0 / lead), reversed_den), ops


def finalize_polynomial(
    R: RationalMatrix, order: int, opts: RankDefOptions | None = None
) -> AnalyticPolyMatrix:
    """Divide every entry by the shared (outer) denominator, leaving a polynomial.

    After pole removal every zero of the denominator lies on or outside the
    unit circle and must divide each numerator entry exactly; the division
    is performed entrywise and each remainder checked.  The result is
    trimmed and must not exceed the target order.
    """
    opts = opts or RankDefOptions()
    scale = max(R.numerator.max_abs, 1e-300)
    den = R.denominator
    entries = _entries(R.numerator)
    if den.hi > 0:
        for n, e in enumerate(entries):
            entries[n], rem = divide_out(e, den)
            if rem > 1e4 * opts.tol * scale:
                raise NumericalFailureError(
                    "shared denominator does not divide entry (%d, %d): remainder %.3e"
                    % (*divmod(n, R.cols), rem / scale),
                    residual=rem / scale,
                )
    F = _from_entries(entries, R.cols).trim(1e-12)
    if F.hi is not None and F.hi > order:
        excess = float(np.max(np.abs(F.coeff_array(order + 1, F.hi))))
        if excess > opts.tol * max(F.max_abs, 1e-300):
            raise NumericalFailureError(
                "polynomial factor exceeds order %d (excess %.3e)" % (order, excess)
            )
        F = LaurentMatrix.from_coeffs(F.coeff_array(0, order))
    return F.as_analytic(0.0)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _regularized_start(S: LaurentMatrix, perm: tuple, k: int):
    """Coefficients (N+1, m, k) of the outer factor of a rank-k S, or None.

    Bauer sections B(delta) of S + delta I and B(2 delta) of S + 2 delta I,
    delta = _REGULARIZATION max |C_n|, are the cyclic-reduction ladder's
    first step with at least _REGULARIZED_BLOCKS block rows, in the pivot's
    row order.  The first k columns of 2 B(delta) - B(2 delta), read back in
    the original row order, are polished to _FINAL_POLISH; the polish's
    rule takes one chord step past the first iterate that meets it.  None,
    which sends spectral_factor to the rational construction, means the
    polish missed that target, the result has an interior rank drop, a
    ladder ended before that step, or the drop finder raised
    NumericalFailureError.
    """
    m, N = S.rows, S.hi
    C = S.coeff_array(0, N)
    section = S.permuted(perm).coeff_array(0, N)
    sections = []
    for t in (1.0, 2.0):
        shifted = section.copy()
        shifted[0] += t * _REGULARIZATION * S.max_abs * np.eye(m)
        # At N = 0 no block row couples to another, so every step is exact.
        ladder = enumerate(_cyclic_reduction(shifted))
        B = next((A for j, A in ladder if N == 0 or N * 2**j + 1 >= _REGULARIZED_BLOCKS), None)
        if B is None:
            return None
        sections.append(B)
    B = (2.0 * sections[0] - sections[1])[:, np.argsort(perm), :k]
    A, rel = polish_coefficients(C, B, _FINAL_POLISH)
    if rel > _FINAL_POLISH:
        return None
    try:
        drops = find_rank_drop_points(LaurentMatrix.from_coeffs(A))
    except NumericalFailureError:
        return None
    return None if drops else A


def _outer_tall_factor(S: LaurentMatrix, perm: tuple, k: int, opts: RankDefOptions):
    """Steps 3-6 for k < m, the rational construction: (A, pole_ops, zero_ops).

    A holds the (N+1, m, k) coefficients of the outer factor of S in its
    original row order, after the final polish.
    """
    m, N = S.rows, S.hi
    Sp = S.permuted(perm)
    head_factor = factor_positive_definite(Sp.submatrix(range(k), range(k)), opts.tol)
    tail = tail_quotient(Sp.submatrix(range(k, m), range(k)), head_factor)
    R = stack_rational_factor(head_factor, tail)
    R, pole_ops = remove_inner_poles(R)
    # The numerator is cleared before the division: each root r of the
    # shared denominator lies outside the disk and must be a zero of the
    # whole numerator for the quotient to be polynomial, and the reflection
    # of the numerator's drop at 1/conj(r) plants exactly that zero.  The
    # denominator has no zero in the closed disk, so the polynomial factor
    # has the cleared numerator's rank at every point the finder searches.
    num, zero_ops = clear_rank_drops(R.numerator, opts)
    F = finalize_polynomial(RationalMatrix(num, R.denominator), N, opts)
    F = F.submatrix(np.argsort(perm), range(k))
    # Reflections at the noise-limited points of multiple zeros can leave
    # the factor 1e-8 off the outer one at a residual below _FINAL_POLISH,
    # so the polish asks for half the start's residual there, and steps.
    C, A = S.coeff_array(0, N), F.coeff_array(0, N)
    target = min(_FINAL_POLISH, 0.5 * _relative_residual(C, A))
    A, _ = polish_coefficients(C, A, target)
    return A, pole_ops, zero_ops


def spectral_factor(
    S: LaurentMatrix,
    opts: RankDefOptions | None = None,
    rank: Optional[int] = None,
):
    """Canonical analytic spectral factor of a nonnegative definite spectrum.

    Returns (factor, report): factor is m x k analytic of the same order as
    S with S = factor factor~ within tol (relative, coefficientwise), full
    column rank in the open unit disk, and canonically normalized; report
    records the detected rank, pivot, every Blaschke operation, the final
    residual, and named verdicts.

    The rank is read off the eigenvalues of the definiteness screen.  For
    k = m the pivot is the identity, with no pivot search and a vacuous
    rank identity, and factor_positive_definite gives the factor polished,
    cleared of interior rank drops until the finder reports none, and
    canonicalized.  For k < m the regularized start of S + delta I is
    tried first and kept when its polish reaches the final target with no
    interior rank drop; otherwise the rational construction runs (head
    factor, tail quotient, pole removal, drop clearing, final polish).
    report.path names which of the three ran.

    rank overrides the sampled rank estimate when given.  Raises
    ValueError / NotFactorableError on bad input, DegenerateInputError when
    no pivot works, and NumericalFailureError, carrying the partial report
    and its measured residual, when the tolerance cannot be met.
    """
    opts = opts or RankDefOptions()
    S = S.trim(0.0)
    if S.is_zero:
        raise ValueError("spectrum is identically zero")
    counts = _rank_counts(_screen_definite(S, opts.tol))
    m = S.rows
    scale = S.max_abs

    k = rank if rank is not None else int(counts.max())
    if not 1 <= k <= m:
        raise ValueError("rank %r out of range for size %d" % (k, m))

    pole_ops = zero_ops = ()
    perm, path = tuple(range(m)), "full-rank"
    try:
        if k == m:
            # Every candidate pivot is the identity, so select_pivot's
            # majority rule reads the screen's counts, and the rank identity
            # is vacuous.  factor_positive_definite polishes the factor,
            # clears its interior rank drops with the same finder that
            # verification runs, and canonicalizes it.
            _require_majority(counts == m, m)
            identity_check = Check(True, 0.0, opts.tol)
            factor = factor_positive_definite(S, opts.tol)
        else:
            perm = select_pivot(S, k)
            identity_check = check_rank_identity(S, perm, k, opts)
            path = "regularized"
            A = _regularized_start(S, perm, k)
            if A is None:
                path = "rational"
                A, pole_ops, zero_ops = _outer_tall_factor(S, perm, k, opts)
            factor = canonicalize(LaurentMatrix.from_coeffs(A))
    except NumericalFailureError as exc:
        if exc.report is None:
            residual = np.inf if exc.residual is None else exc.residual
            exc.report = FactorReport(detected_rank=k, pivot=perm, residual=residual, path=path)
        raise

    product = factor @ factor.adjoint()
    residual = (product - S).max_abs / scale
    order, order_check = _order_check(S, product)
    verdicts = {
        "residual": Check(residual <= opts.tol, residual, opts.tol),
        "order_matches": order_check,
        "rank_identity": identity_check,
    }
    report = FactorReport(
        detected_rank=k,
        pivot=perm,
        pole_ops=pole_ops,
        zero_ops=zero_ops,
        residual=residual,
        order=order,
        verdicts=verdicts,
        path=path,
    )
    if residual > opts.tol:
        raise NumericalFailureError(
            "factorization residual %.3e exceeds tol %.3e" % (residual, opts.tol),
            residual=residual,
            report=report,
        )
    return factor, report


def _order_check(S: LaurentMatrix, product: LaurentMatrix):
    """(order, Check) of a factor F of S, read off product = F F~.

    Both spectra are trimmed at 1e-12 of their largest coefficient.  The top
    power of F F~ is F_hi F_0^H, nonzero unless F drops rank at 0.
    """
    order_s = S.trim(1e-12).hi or 0
    order_f = product.trim(1e-12).hi or 0
    return order_f, Check(order_f == order_s, float(order_f), float(order_s))


def compare_factors(
    F: LaurentMatrix, G: LaurentMatrix, opts: RankDefOptions | None = None
):
    """Constant unitary U with G = F U, or None when the factors differ.

    Solves (F^H F) U = F^H G at the best-conditioned max(8, N + 1) points of
    condition <= 1e8 on the _order_grid_count(N) grid, N the span of their
    powers, and checks the solutions agree and are unitary within tol: for
    factors of one spectrum, agreement at N + 1 points forces G - F U to 0.
    Raises IndeterminateError, naming both counts, if fewer points qualify.
    """
    opts = opts or RankDefOptions()
    if F.shape != G.shape:
        raise ValueError("factors must share a shape")
    k = F.cols
    if k == 0:
        return np.zeros((0, 0), dtype=complex)
    N = max(F.hi or 0, G.hi or 0) - min(F.lo or 0, G.lo or 0, 0)
    count = _order_grid_count(N)
    Fs, Gs = F.eval_unit_grid(count), G.eval_unit_grid(count)
    FsH = Fs.conj().transpose(0, 2, 1)
    M = FsH @ Fs
    cond = np.linalg.cond(M)
    take = min(np.count_nonzero(cond <= 1e8), max(8, N + 1))
    use = np.argsort(cond, kind="stable")[:take]
    if use.size < N + 1:
        raise IndeterminateError(
            "%d of %d samples have condition <= 1e8, %d needed" % (use.size, count, N + 1)
        )
    Us = np.linalg.solve(M[use], FsH[use] @ Gs[use])
    mean = Us.mean(axis=0)
    spread = float(np.max(np.abs(Us - mean)))
    unitary_dev = float(np.max(np.abs(mean.conj().T @ mean - np.eye(k))))
    if spread > opts.tol or unitary_dev > opts.tol:
        return None
    return mean


def verify_factorization(
    S: LaurentMatrix, factor: LaurentMatrix, opts: RankDefOptions | None = None
) -> FactorReport:
    """Independent verification that factor is a valid spectral factor of S.

    Checks dimensions, analyticity, the coefficientwise and sampled
    residuals of S - factor factor~, order agreement, and absence of
    interior rank drops.  Failures land in the verdicts; nothing raises.
    """
    opts = opts or RankDefOptions()
    verdicts = {}
    dims_ok = (
        S.rows == S.cols and factor.rows == S.rows and 1 <= factor.cols <= S.rows
    )
    verdicts["dimensions"] = Check(dims_ok, float(not dims_ok), 0.5)
    if not dims_ok:
        return FactorReport(detected_rank=factor.cols, residual=np.inf, verdicts=verdicts)
    scale = max(S.max_abs, 1e-300)
    negative = factor.coeff_array(min(factor.lo or 0, 0), -1)
    neg_mass = float(np.abs(negative).max(initial=0.0)) / max(factor.max_abs, 1e-300)
    verdicts["analytic"] = Check(neg_mass <= opts.tol, neg_mass, opts.tol)

    product = factor @ factor.adjoint()
    residual = (S - product).max_abs / scale
    verdicts["coefficient_residual"] = Check(residual <= opts.tol, residual, opts.tol)

    count = _order_grid_count(S.hi or 0)
    Fs = factor.eval_unit_grid(count)
    gram = Fs @ Fs.conj().transpose(0, 2, 1)
    grid_dev = float(np.max(np.abs(S.eval_unit_grid(count) - gram))) / scale
    verdicts["grid_residual"] = Check(grid_dev <= opts.tol, grid_dev, opts.tol)

    order_f, verdicts["order_matches"] = _order_check(S, product)

    try:
        drops = find_rank_drop_points(factor)
        verdicts["no_interior_rank_drop"] = Check(not drops, float(len(drops)), 0.5)
    except (NumericalFailureError, ValueError, ZeroDivisionError):
        # A candidate with negative powers cannot even be probed at z = 0;
        # that is a failing verdict, not a crash.
        verdicts["no_interior_rank_drop"] = Check(False, np.inf, 0.5)

    return FactorReport(
        detected_rank=factor.cols,
        residual=residual,
        order=order_f,
        verdicts=verdicts,
    )
