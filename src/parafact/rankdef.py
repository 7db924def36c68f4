"""Spectral factorization of rank-deficient Laurent polynomial spectra.

An m x m para-Hermitian S(z) of order N that is nonnegative definite of rank
k < m almost everywhere on the unit circle factors as S = S+ S+~ with S+ an
m x k analytic polynomial matrix of order N and full column rank everywhere
in the open unit disk.  The pipeline:

1. estimate the almost-everywhere rank from unit-circle samples;
2. pick a symmetric permutation putting a well-conditioned k x k head block
   in the leading position.

For k < m the regularized start comes next.  S + delta I is positive
definite, so a Bauer section (fullrank._bauer_last_row) factors it; in the
pivot's row order the trailing m - k columns of that factor shrink like
sqrt(delta), because a rank-k process has a rank-k innovation, while the
first k columns are off the outer factor by a term linear in delta.  Two
sections, of S + delta I and S + 2 delta I, give the Richardson start
2 B(delta) - B(2 delta), which cancels that term.  Its first k columns,
back in the original row order, are refined by the Gauss-Newton polish
that the full-rank factorization also uses (fullrank.polish_coefficients)
to the final target and one step past it.
The start is accepted only when the polish reaches that target and the
result has no interior rank drop; a residual within tol is not enough,
since on projector spectra the polish can stall near 1e-10 at a factor that
is not the outer one.  Otherwise steps 3-5, the rational construction, run
as the fallback:

3. factor the head block (full-rank case) and divide the remaining block
   rows by the adjoint factor, giving a rational tall factor whose columns
   share monic denominators;
4. remove denominator zeros inside the disk by unit-modulus rational
   (Blaschke) column multipliers, cancel residual common factors, and
   write the columns over one shared, outer denominator;
5. reflect the interior rank drops of the numerator across the circle
   (roots.clear_rank_drops: the finder's points, each reflected with its
   whole null space in one step), divide out the shared denominator,
   leaving a polynomial factor, and clear that factor the same way.  The
   numerator is cleared first because the division is exact only then:
   each denominator root r must be a zero of the whole numerator, and the
   reflection of the drop at 1/conj(r) is what plants it;
6. restore the original row order and refine the coefficients with the
   same Gauss-Newton polish, which removes the error accumulated by
   determinant windows, deflation divisions and Blaschke operations; after
   step 5 it takes at least one step, whatever the residual.

Every path ends by rotating to the canonical representative.  For k = m the
head factor is the whole factor: the full-rank factorization has cleared
its interior rank drops with the clearer of step 5, so it has no poles and
no interior rank drops, and it goes straight to the polish of step 6.  The
report names the path taken: "full-rank", "regularized" or "rational".

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
    _bauer_last_row,
    _screen_definite,
    canonicalize,
    factor_positive_definite,
    polish_coefficients,
)
from .laurent import (
    AnalyticPolyMatrix,
    LaurentMatrix,
    LaurentPoly,
    _next_pow2,
    _order_grid_count,
    laurent_from_unit_samples,
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

# Stream tags so each randomized step draws from an independent,
# reproducible generator for a given rng_seed; roots._TAG_COMPRESS is 103.
_TAG_RANK = 101
_TAG_PIVOT = 102

# Head-block conditioning gate for the block identity check: samples where
# the head is more than this factor away from the sample's largest singular
# value are skipped, bounding the error amplification of the inverse.
_IDENTITY_GATE = 1e-4

# The regularized start factors sections of S + t delta I, t = 1 and 2,
# delta = _REGULARIZATION * max |C_n|.  The first k columns of a section are
# off the outer factor by a term linear in delta, B(t delta) = B(0) +
# t delta B' + o(delta), so delta is as small as rounding allows: the
# banded Cholesky perturbs the section by about (bw + 1) eps ||T||, with
# bw + 1 = m (N + 1) and ||T|| <= (2N + 1) m max |C_n|, which is 2e-12 of
# max |C_n| at (8, ., 8); 1e-10 is the first power of ten 40x above that,
# and both sections add at least delta.  The Richardson start 2 B(delta) - B(2 delta) cancels the
# linear term: on the bench shapes and (8, 6, 8) the start residual falls
# 169x or more below the single section's.  Both sections have the same
# max(_REGULARIZED_BLOCKS, 2N + 2) block rows, so Bauer's truncation error
# does not cancel (up to 8e-9 of the coefficients at (8, 6, 8) with 128).
# It stays below what the start leaves: 256 or 1024 blocks change the
# extrapolated start residual by a factor of 0.3 to 3.4, either way, on
# every shape measured up to (8, 6, 8).
_REGULARIZATION = 1e-10
_REGULARIZED_BLOCKS = 128


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
    rng_seed: Optional[int] = None
    path: Optional[str] = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.verdicts.values())


class RationalMatrix:
    """A tall rational matrix with one monic denominator per column.

    Entry (i, j) is numerator(i, j) / denominator_j with all numerator
    entries analytic polynomials.  Used for the intermediate factor between
    the head-block factorization and the final polynomial result.
    """

    __slots__ = ("_num", "_dens")

    def __init__(self, numerator: LaurentMatrix, denominators):
        dens = tuple(denominators)
        if len(dens) != numerator.cols:
            raise ValueError("need one denominator per column")
        for d in dens:
            if d.is_zero:
                raise ZeroDivisionError("zero column denominator")
            if d.lo is not None and d.lo < 0:
                raise ValueError("denominators must be analytic")
            lead = d.coeff(d.hi)
            if abs(lead - 1.0) > 1e-9:
                raise ValueError("denominators must be monic")
        if not numerator.is_zero and numerator.lo < 0:
            raise ValueError("numerator must be analytic")
        self._num = numerator
        self._dens = dens

    @property
    def numerator(self) -> LaurentMatrix:
        return self._num

    @property
    def denominators(self) -> tuple:
        return self._dens

    @property
    def rows(self) -> int:
        return self._num.rows

    @property
    def cols(self) -> int:
        return self._num.cols

    def eval(self, z) -> np.ndarray:
        V = self._num.eval(z)
        for j, d in enumerate(self._dens):
            V[:, j] = V[:, j] / d.eval(z)
        return V

    def column_entries(self, j: int):
        return [self._num.entry(i, j) for i in range(self._num.rows)]

    def __repr__(self):
        degs = [d.hi for d in self._dens]
        return "RationalMatrix(%dx%d, den degrees=%r)" % (self.rows, self.cols, degs)


# ---------------------------------------------------------------------------
# rank estimation and pivoting
# ---------------------------------------------------------------------------


def _circle_samples(S: LaurentMatrix, opts: RankDefOptions, tag: int) -> np.ndarray:
    """S at 2*order + 17 pseudo-random circle points, as a (count, m, m) array.

    The angles come from the tag's stream of rng_seed, and all points are
    evaluated at once as exp(i n theta) times the stacked coefficients.
    """
    lo, hi = S.lo or 0, S.hi or 0
    count = 2 * hi + 17
    theta = _rng(opts.rng_seed, tag).uniform(0.0, 2.0 * np.pi, count)
    stack = S.coeff_array(lo, hi).reshape(hi - lo + 1, -1)
    waves = np.exp(1j * np.outer(theta, np.arange(lo, hi + 1)))
    return (waves @ stack).reshape(count, S.rows, S.cols)


def estimate_rank(S: LaurentMatrix, opts: RankDefOptions | None = None) -> int:
    """Almost-everywhere rank of S on the unit circle.

    Counts singular values above _RANK_TOL times the sample's largest
    singular value at 2*order + 17 pseudo-random circle points and takes the
    maximum count over samples.
    """
    opts = opts or RankDefOptions()
    if S.rows != S.cols:
        raise ValueError("rank estimation needs a square matrix")
    S = S.trim(0.0)
    if S.is_zero:
        return 0
    sv = np.linalg.svd(_circle_samples(S, opts, _TAG_RANK), compute_uv=False)
    counts = np.sum(sv > _RANK_TOL * sv[:, :1], axis=1)
    return int(np.max(np.where(sv[:, 0] > 0, counts, 0)))


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


def select_pivot(S: LaurentMatrix, k: int, opts: RankDefOptions | None = None) -> tuple:
    """Symmetric permutation placing a robust k x k head block first.

    Candidates come from greedy QR column pivoting of the stacked circle
    samples and of each individual sample; the winner maximizes the worst
    relative smallest singular value of the head block over the samples.
    With k equal to the size every candidate is the identity, so the
    pivoting is skipped.  Raises DegenerateInputError when no candidate
    keeps the head block nonsingular at a majority of samples.
    """
    opts = opts or RankDefOptions()
    m = S.rows
    if S.rows != S.cols:
        raise ValueError("pivot selection needs a square matrix")
    if not 1 <= k <= m:
        raise ValueError("rank k must be between 1 and the matrix size")
    samples = _circle_samples(S, opts, _TAG_PIVOT)
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

    hits = int(np.sum(live & (best_minsv > _RANK_TOL * scales)))
    if hits <= len(samples) // 2:
        raise DegenerateInputError(
            "no permutation keeps the leading %d x %d block full rank "
            "at a majority of samples" % (k, k)
        )
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


def _edge_trimmed_abs(p: LaurentPoly, cut: float) -> LaurentPoly:
    """Strip coefficients of magnitude <= cut from the ends of the support.

    Interior coefficients are kept no matter how small, since those
    legitimately occur.
    """
    if p.is_zero:
        return p
    c = p.coeff_array(p.lo, p.hi)
    big = [i for i, x in enumerate(c.tolist()) if abs(x) > cut]
    if not big:
        return LaurentPoly.zero()
    return LaurentPoly.from_coeffs(c[big[0] : big[-1] + 1], p.lo + big[0])


def _edge_trimmed(p: LaurentPoly, rel: float = 1e-12) -> LaurentPoly:
    """Strip near-zero coefficients from the ends of the support only.

    Interpolated determinants and minors carry a noise skirt beyond their
    true degree; leaving it in place corrupts the power bookkeeping (shifts,
    folds, and root counts) downstream.
    """
    return _edge_trimmed_abs(p, rel * p.max_abs)


def _edge_trimmed_matrix(M: LaurentMatrix, rel: float = 1e-12) -> LaurentMatrix:
    """Strip the cancellation skirt from the power span of a whole matrix.

    Entry edges are trimmed against the largest coefficient of the matrix,
    so an entry made purely of cancellation dust collapses to zero instead
    of stretching the matrix support.
    """
    cut = rel * max(M.max_abs, 1e-300)
    entries = [
        [_edge_trimmed_abs(M.entry(i, j), cut) for j in range(M.cols)]
        for i in range(M.rows)
    ]
    return LaurentMatrix.from_entries(entries)


def _det_and_adjugate(F: LaurentMatrix):
    """Determinant and adjugate of a square Laurent matrix, via grid sampling.

    Each adjugate entry is a signed complementary minor, interpolated from
    unit-circle samples; this stays finite where F itself is singular.
    """
    k = F.rows
    if k == 1:
        return F.entry(0, 0), LaurentMatrix.identity(1)
    lo, hi = (F.lo or 0), (F.hi or 0)
    count = _next_pow2(max(8, k * (hi - lo) + 1))
    samples = F.eval_unit_grid(count)
    det = _edge_trimmed(
        laurent_from_unit_samples(np.linalg.det(samples), k * lo, k * hi).trim(1e-14)
    )
    wlo, whi = (k - 1) * lo, (k - 1) * hi
    entries = [[None] * k for _ in range(k)]
    rows_all = list(range(k))
    for i in range(k):
        for j in range(k):
            ridx = [r for r in rows_all if r != j]
            cidx = [c for c in rows_all if c != i]
            minors = np.linalg.det(samples[:, ridx][:, :, cidx])
            sign = -1.0 if (i + j) % 2 else 1.0
            entries[i][j] = _edge_trimmed(
                laurent_from_unit_samples(sign * minors, wlo, whi).trim(1e-14)
            )
    return det, LaurentMatrix.from_entries(entries)


def _monic_normalized(num_entries, den):
    """Divide a column's numerator entries and denominator by the leading
    denominator coefficient so the denominator is monic."""
    lead = den.coeff(den.hi)
    inv = 1.0 / lead
    return [e * inv for e in num_entries], den * inv


def _polish_root(
    p: LaurentPoly, dp: LaurentPoly, a: complex, steps: int = 4
) -> complex:
    """A few Newton steps on a root estimate of p, whose derivative is dp."""
    for _ in range(steps):
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


def _deflate_column(entries, den):
    """Cancel common roots of a column's numerator entries and denominator.

    A denominator root counts as shared when every nonzero entry's
    Newton-estimated distance to its nearest root is within the deflation
    radius.  The shared factor is divided out at a conditioning-weighted
    average of the Newton-polished per-polynomial estimates; raw eigenvalue
    estimates would leave remainders at the root-finding error level, which
    dominates the factorization residual.  Returns (entries, den).
    """
    if all(e.is_zero for e in entries):
        return entries, LaurentPoly.one()
    while den.hi and den.hi > 0:
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
            new_entries = []
            for e in entries:
                if e.is_zero:
                    new_entries.append(e)
                    continue
                new_entries.append(divide_linear(e, root)[0])
            qden, _ = divide_linear(den, root)
            entries, den = _monic_normalized(new_entries, qden)
            removed = True
            break
        if not removed:
            break
    return entries, den


def tail_quotient(S_tail: LaurentMatrix, head_factor: AnalyticPolyMatrix) -> RationalMatrix:
    """Rational quotient of the coupling block by the adjoint head factor.

    Computes S_tail (head_factor~)^{-1} as numerator / monic denominator per
    column: the inverse enters through the adjugate and determinant of the
    adjoint factor, powers are shifted to make everything analytic, and
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
    num = _edge_trimmed_matrix(S_tail @ adj)
    shift = max(-det.lo, -(num.lo or 0), 0)
    det_a = det.shifted(shift)
    num = num.shifted(shift)

    # One determinant serves every column, and a root it shares with the
    # numerator cancels in all columns at once (the adjugate is rank one at
    # a determinant root).  Normalizing and deflating against the whole
    # numerator in a single pass keeps the column denominators bitwise
    # equal, so the later common-denominator step divides them exactly;
    # per-column deflation would repeat the same divisions with
    # independently estimated roots and let the denominators drift apart.
    flat = [num.entry(i, j) for i in range(num.rows) for j in range(num.cols)]
    flat, det_a = _monic_normalized(flat, det_a)
    flat, det_a = _deflate_column(flat, det_a)

    rows = [
        [flat[i * num.cols + j] for j in range(num.cols)] for i in range(num.rows)
    ]
    dens = [det_a] * num.cols
    return RationalMatrix(LaurentMatrix.from_entries(rows), dens)


def stack_rational_factor(
    head_factor: AnalyticPolyMatrix, tail: RationalMatrix
) -> RationalMatrix:
    """Stack the head factor above the tail quotient over shared denominators.

    Head entries are multiplied by the column denominators so the stacked
    matrix is a single numerator / denominator pair per column.
    """
    k = head_factor.cols
    if tail.cols != k:
        raise ValueError("tail width must match the head factor")
    rows = []
    for i in range(head_factor.rows):
        rows.append(
            [head_factor.entry(i, j) * tail.denominators[j] for j in range(k)]
        )
    for i in range(tail.rows):
        rows.append([tail.numerator.entry(i, j) for j in range(k)])
    return RationalMatrix(LaurentMatrix.from_entries(rows), tail.denominators)


def remove_inner_poles(R: RationalMatrix):
    """Multiply columns by unit-modulus rational factors to clear interior poles.

    Each denominator zero a with |a| < 1 - _DEFLATION_RADIUS is exchanged for
    a zero at 1/conj(a) by the factor (z - a)/(1 - conj(a) z), which has unit
    modulus on the circle, so R R~ is untouched.  Zeros within the radius of
    the circle must cancel against the numerator (deflation); when one does
    not, the pole is irremovable and the input was not factorable at this
    tolerance.

    Returns (cleared RationalMatrix, tuple of BlaschkeOp records).
    """
    radius = _DEFLATION_RADIUS
    ops = []
    new_cols = []
    new_dens = []
    for j in range(R.cols):
        entries = R.column_entries(j)
        den = R.denominators[j]
        entries, den = _deflate_column(entries, den)
        if den.hi and den.hi > 0:
            # A pole of multiplicity mu at the origin shows up as mu noise
            # roots scattered on a ring of radius ~eps^(1/mu), which the
            # radius snap below cannot catch.  The exact structure is visible
            # in the coefficients instead: the bottom s of them sit at noise
            # level, so divide out z^s directly.
            strip_tol = 1e-12 * max(den.max_abs, 1e-300)
            s = 0
            while s < den.hi and abs(den.coeff(s)) <= strip_tol:
                s += 1
            if s:
                den = LaurentPoly.from_coeffs(den.coeff_array(s, den.hi))
                for _ in range(s):
                    ops.append(
                        BlaschkeOp(a=0j, column=j, direction="pole-removal")
                    )
        if den.hi and den.hi > 0:
            inner = [
                a
                for a in laurent_roots(den)
                if abs(a) < 1.0 - radius
            ]
            inner.sort(key=lambda w: (abs(w), w.real, w.imag))
            for a in inner:
                if abs(a) < radius:
                    a = 0.0 + 0.0j
                else:
                    a = _polish_root(den, den.derivative(), a)
                q, rem = divide_linear(den, a)
                if rem > 1e-6 * max(den.max_abs, 1.0):
                    raise NumericalFailureError(
                        "denominator division at %s left remainder %.3e" % (a, rem)
                    )
                den = q * LaurentPoly({0: 1.0, 1: -a.conjugate()})
                entries, den = _monic_normalized(entries, den)
                ops.append(BlaschkeOp(a=complex(a), column=j, direction="pole-removal"))
            entries, den = _deflate_column(entries, den)
        if den.hi and den.hi > 0:
            bad = [
                a
                for a in laurent_roots(den)
                if abs(abs(a) - 1.0) <= radius and abs(a) <= 1.0
            ]
            if bad:
                raise NumericalFailureError(
                    "irremovable boundary pole near %s" % bad[0]
                )
        new_cols.append(entries)
        new_dens.append(den)
    rows = [[new_cols[j][i] for j in range(R.cols)] for i in range(R.rows)]
    return RationalMatrix(LaurentMatrix.from_entries(rows), new_dens), tuple(ops)


def finalize_polynomial(
    R: RationalMatrix, order: int, opts: RankDefOptions | None = None
) -> AnalyticPolyMatrix:
    """Divide out the remaining (outer) denominators, leaving a polynomial.

    After pole removal every denominator zero lies on or outside the unit
    circle and must divide each numerator entry exactly; the division is
    performed entrywise and the remainders checked.  The result is trimmed
    and must not exceed the target order.
    """
    opts = opts or RankDefOptions()
    scale = max(R.numerator.max_abs, 1e-300)
    rows = [[None] * R.cols for _ in range(R.rows)]
    for j in range(R.cols):
        den = R.denominators[j]
        for i in range(R.rows):
            e = R.numerator.entry(i, j)
            if den.hi == 0:
                rows[i][j] = e
                continue
            q, rem = divide_out(e, den)
            if rem > 1e4 * opts.tol * scale:
                raise NumericalFailureError(
                    "denominator of column %d does not divide entry (%d, %d): "
                    "remainder %.3e" % (j, i, j, rem / scale),
                    residual=rem / scale,
                )
            rows[i][j] = q
    F = LaurentMatrix.from_entries(rows).trim(1e-12)
    if F.hi is not None and F.hi > order:
        excess = float(np.max(np.abs(F.coeff_array(order + 1, F.hi))))
        if excess > opts.tol * max(F.max_abs, 1e-300):
            raise NumericalFailureError(
                "polynomial factor exceeds order %d (excess %.3e)" % (order, excess)
            )
        F = LaurentMatrix.from_coeffs(F.coeff_array(0, order))
    return F.as_analytic(0.0)


def _common_denominator(R: RationalMatrix):
    """Rewrite a rational matrix over one shared monic denominator.

    Needed before interior zeros can be removed: the zero-removal step mixes
    columns with a constant unitary, which is only meaningful when every
    column sits over the same denominator.  Column numerators are multiplied
    by exact polynomial quotients (or, failing that, by the product of the
    other columns' denominators), so no root re-estimation error enters.

    Returns (numerator matrix, shared denominator).
    """
    dens = R.denominators
    if all(d.hi == 0 for d in dens):
        return R.numerator, LaurentPoly.one()
    dmax = max(dens, key=lambda d: d.hi or 0)
    extras = []
    for d in dens:
        q, rem = divide_out(dmax, d)
        if rem > 1e-9 * max(dmax.max_abs, 1.0):
            extras = None
            break
        extras.append(q)
    if extras is None:
        shared = LaurentPoly.one()
        for d in dens:
            shared = shared * d
        extras = []
        for j in range(len(dens)):
            extra = LaurentPoly.one()
            for l, d in enumerate(dens):
                if l != j:
                    extra = extra * d
            extras.append(extra)
    else:
        shared = dmax
    rows = [
        [R.numerator.entry(i, j) * extras[j] for j in range(R.cols)]
        for i in range(R.rows)
    ]
    return LaurentMatrix.from_entries(rows), shared


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _head_factor(head: LaurentMatrix, opts: RankDefOptions) -> AnalyticPolyMatrix:
    """factor_positive_definite of the pivoted k x k head block.

    The head factor's error is amplified by the root conditioning of the
    derived determinant and adjugate before it reaches the deflation step,
    so it aims two orders below the requested tolerance and falls back to
    the nominal target only when that proves unreachable.
    """
    try:
        return factor_positive_definite(head, opts.tol * 1e-2)
    except NumericalFailureError:
        return factor_positive_definite(head, opts.tol)


def _regularized_start(S: LaurentMatrix, perm: tuple, k: int, opts: RankDefOptions):
    """Coefficients (N+1, m, k) of the outer factor of a rank-k S, or None.

    Bauer sections B(delta) of S + delta I and B(2 delta) of S + 2 delta I,
    delta = _REGULARIZATION max |C_n|, are factored in the pivot's row
    order.  The first k columns of 2 B(delta) - B(2 delta), read back in
    the original row order, are polished to _FINAL_POLISH in at least two
    steps, so that the second, a chord step on the first one's Jacobian
    factorization, goes past it.  None, which sends spectral_factor to the rational
    construction, means the polish missed that target, the result has an
    interior rank drop, or the section or the drop finder raised
    NumericalFailureError.
    """
    m, N = S.rows, S.hi
    C = S.coeff_array(0, N)
    section = S.permuted(perm).coeff_array(0, N)
    L = max(_REGULARIZED_BLOCKS, 2 * N + 2)
    sections = []
    for t in (1.0, 2.0):
        shifted = section.copy()
        shifted[0] += t * _REGULARIZATION * S.max_abs * np.eye(m)
        try:
            sections.append(_bauer_last_row(shifted, m, N, L))
        except NumericalFailureError:
            return None
    B = (2.0 * sections[0] - sections[1])[:, np.argsort(perm), :k]
    A, rel = polish_coefficients(C, B, _FINAL_POLISH, min_steps=2)
    if rel > _FINAL_POLISH:
        return None
    try:
        drops = find_rank_drop_points(LaurentMatrix.from_coeffs(A), opts)
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
    head_factor = _head_factor(Sp.submatrix(range(k), range(k)), opts)
    tail = tail_quotient(Sp.submatrix(range(k, m), range(k)), head_factor)
    R = stack_rational_factor(head_factor, tail)
    R, pole_ops = remove_inner_poles(R)
    # The numerator is cleared before the division: each root r of the
    # shared denominator lies outside the disk and must be a zero of the
    # whole numerator for the quotient to be polynomial, and the reflection
    # of the numerator's drop at 1/conj(r) plants exactly that zero.  The
    # denominator is outer, so the numerator has the rational factor's
    # interior drops.  The polynomial factor goes through the clearer too,
    # as a guard; after the numerator's clearing it costs one finder pass.
    num, shared_den = _common_denominator(R)
    num, num_ops = clear_rank_drops(num, opts)
    F = finalize_polynomial(RationalMatrix(num, [shared_den] * R.cols), N, opts)
    F, poly_ops = clear_rank_drops(F, opts)
    F = F.submatrix(np.argsort(perm), range(k))
    # Drop clearing divides at noise-limited points of multiple zeros, which
    # can leave the factor 1e-9 off the outer one along directions the
    # residual barely sees: a residual already below the target says
    # nothing about that, so the polish always takes one step.
    A, _ = polish_coefficients(
        S.coeff_array(0, N), F.coeff_array(0, N), _FINAL_POLISH, min_steps=1
    )
    return A, pole_ops, num_ops + poly_ops


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

    For k = m the head factor is already outer and goes to the final
    polish.  For k < m the regularized start of S + delta I is tried first
    and kept when its polish reaches the final target with no interior rank
    drop; otherwise the rational construction runs (head factor, tail
    quotient, pole removal, drop clearing, final polish).  report.path
    names which of the three ran.

    rank overrides the sampled rank estimate when given.  Raises
    ValueError / NotFactorableError on bad input, DegenerateInputError when
    no pivot works, and NumericalFailureError (carrying the partial report)
    when the tolerance cannot be met.
    """
    opts = opts or RankDefOptions()
    S = S.trim(0.0)
    if S.is_zero:
        raise ValueError("spectrum is identically zero")
    _screen_definite(S, opts.tol)
    m = S.rows
    N = S.hi
    scale = S.max_abs

    k = rank if rank is not None else estimate_rank(S, opts)
    if not 1 <= k <= m:
        raise ValueError("rank %r out of range for size %d" % (k, m))

    perm = select_pivot(S, k, opts)
    identity_check = check_rank_identity(S, perm, k, opts)
    pole_ops = zero_ops = ()
    if k == m:
        # The pivot is the identity, and factor_positive_definite has
        # already cleared the factor's interior rank drops with the same
        # finder that verification runs.
        path = "full-rank"
        A, _ = polish_coefficients(
            S.coeff_array(0, N), _head_factor(S, opts).coeff_array(0, N), _FINAL_POLISH
        )
    else:
        path = "regularized"
        A = _regularized_start(S, perm, k, opts)
        if A is None:
            path = "rational"
            try:
                A, pole_ops, zero_ops = _outer_tall_factor(S, perm, k, opts)
            except NumericalFailureError as exc:
                if exc.report is None:
                    exc.report = FactorReport(
                        detected_rank=k, pivot=perm, rng_seed=opts.rng_seed, path=path
                    )
                raise
    factor = canonicalize(LaurentMatrix.from_coeffs(A)).factor

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
        rng_seed=opts.rng_seed,
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

    Solves (F^H F) U = F^H G at the best-conditioned unit-circle samples and
    checks the solutions agree and are unitary within tol.  Raises
    IndeterminateError when every sample is too ill-conditioned to decide.
    """
    opts = opts or RankDefOptions()
    if F.shape != G.shape:
        raise ValueError("factors must share a shape")
    k = F.cols
    if k == 0:
        return np.zeros((0, 0), dtype=complex)
    count = 16
    zs = np.exp(2j * np.pi * np.arange(count) / count)
    entries = []
    for z in zs:
        Fz = F.eval(z)
        M = Fz.conj().T @ Fz
        sv = np.linalg.svd(M, compute_uv=False)
        cond = np.inf if sv[-1] == 0 else sv[0] / sv[-1]
        entries.append((cond, z, Fz, M))
    entries.sort(key=lambda t: t[0])
    entries = entries[:8]
    if not entries or entries[0][0] > 1e8:
        raise IndeterminateError("factor comparison is ill-conditioned at all samples")
    Us = []
    for cond, z, Fz, M in entries:
        if cond > 1e8:
            continue
        Us.append(np.linalg.solve(M, Fz.conj().T @ G.eval(z)))
    mean = sum(Us) / len(Us)
    spread = max(float(np.max(np.abs(U - mean))) for U in Us)
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
        return FactorReport(
            detected_rank=factor.cols,
            residual=np.inf,
            verdicts=verdicts,
            rng_seed=opts.rng_seed,
        )
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
        drops = find_rank_drop_points(factor, opts)
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
        rng_seed=opts.rng_seed,
    )
