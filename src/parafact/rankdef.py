"""Spectral factorization of rank-deficient Laurent polynomial spectra.

An m x m para-Hermitian S(z) of order N that is nonnegative definite of rank
k < m almost everywhere on the unit circle factors as S = S+ S+~ with S+ an
m x k analytic polynomial matrix of order N and full column rank everywhere
in the open unit disk.  The pipeline:

1. estimate the almost-everywhere rank from unit-circle samples;
2. pick a symmetric permutation putting a well-conditioned k x k head block
   in the leading position;
3. factor the head block (full-rank case) and divide the remaining block
   rows by the adjoint factor, giving a rational tall factor whose columns
   share monic denominators;
4. remove denominator zeros inside the disk by unit-modulus rational
   (Blaschke) column multipliers, cancel residual common factors, and divide
   out what remains, leaving a polynomial factor;
5. locate interior points where the polynomial factor drops column rank and
   reflect them across the circle one at a time;
6. restore the original row order and refine the coefficients with the
   Gauss-Newton polish that the full-rank factorization also uses
   (fullrank.polish_coefficients), which removes the error accumulated
   by determinant windows, deflation divisions and Blaschke operations;
7. rotate to the canonical representative.

Every transformation multiplies columns by unit-modulus scalars or the whole
factor by constant unitaries, so F F~ is preserved throughout up to
rounding, which step 6 takes back out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg

from .errors import (
    DegenerateInputError,
    IndeterminateError,
    NumericalFailureError,
)
from .fullrank import (
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
from .roots import (
    cluster_points,
    divide_linear,
    divide_out,
    laurent_roots,
    match_point_sets,
    reflect_column_zero,
)

__all__ = [
    "RankDefOptions",
    "RationalMatrix",
    "BlaschkeOp",
    "Check",
    "FactorReport",
    "estimate_rank",
    "select_pivot",
    "check_rank_identity",
    "tail_quotient",
    "stack_rational_factor",
    "remove_inner_poles",
    "finalize_polynomial",
    "find_rank_drop_points",
    "fix_rank_drop",
    "spectral_factor",
    "compare_factors",
    "verify_factorization",
]

# Stream tags so each randomized step draws from an independent,
# reproducible generator for a given rng_seed.
_TAG_RANK = 101
_TAG_PIVOT = 102
_TAG_COMPRESS = 103

# Head-block conditioning gate for the block identity check: samples where
# the head is more than this factor away from the sample's largest singular
# value are skipped, bounding the error amplification of the inverse.
_IDENTITY_GATE = 1e-4

# Coarse clustering radius for gathering the eigenvalue cloud of one multiple
# root before refinement (estimates of a multiplicity-mu root scatter by
# roughly eps^(1/mu)).
_MULTI_ROOT_RADIUS = 1e-4


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, tag])))


@dataclass(frozen=True)
class RankDefOptions:
    """Tolerances and seeds for the rank-deficient pipeline.

    tol: relative residual target for the factorization.
    rank_tol: relative singular-value cutoff for rank decisions.
    deflation_radius: relative radius for root clustering and for the
        interior/boundary split of denominator zeros.
    max_zero_fix_iters: cap on interior zero reflections; None picks
        2 * order * size + 16.
    rng_seed: seed for rank sampling, pivoting, and compressions.
    """

    tol: float = 1e-9
    rank_tol: float = 1e-8
    deflation_radius: float = 1e-7
    max_zero_fix_iters: Optional[int] = None
    rng_seed: int = 0

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if not self.rank_tol > 0:
            raise ValueError("rank_tol must be positive")
        if not 0 < self.deflation_radius < 1e-2:
            raise ValueError("deflation_radius must be in (0, 1e-2)")
        if self.max_zero_fix_iters is not None and self.max_zero_fix_iters < 0:
            raise ValueError("max_zero_fix_iters must be nonnegative")


@dataclass(frozen=True)
class BlaschkeOp:
    """One unit-modulus column operation applied during the pipeline.

    direction is 'pole-removal' (denominator zero moved out of the disk)
    or 'zero-removal' (factor zero reflected out of the disk); unitary is
    the constant column rotation used for zero removal, None otherwise.
    """

    a: complex
    column: int
    direction: str
    unitary: Optional[np.ndarray] = None


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
    """What the factorization did and how well the result checks out."""

    detected_rank: int
    pivot: Optional[tuple] = None
    pole_ops: tuple = ()
    zero_ops: tuple = ()
    residual: float = np.inf
    order: Optional[int] = None
    verdicts: dict = field(default_factory=dict)
    rng_seed: Optional[int] = None

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

    @property
    def is_polynomial(self) -> bool:
        return all(d.hi == 0 for d in self._dens)

    def eval(self, z) -> np.ndarray:
        V = self._num.eval(z)
        for j, d in enumerate(self._dens):
            V[:, j] = V[:, j] / d.eval(z)
        return V

    def eval_unit_grid(self, count: int) -> np.ndarray:
        V = self._num.eval_unit_grid(count)
        for j, d in enumerate(self._dens):
            V[:, :, j] = V[:, :, j] / d.eval_unit_grid(count)[:, None]
        return V

    def column_entries(self, j: int):
        return [self._num.entry(i, j) for i in range(self._num.rows)]

    def __repr__(self):
        degs = [d.hi for d in self._dens]
        return "RationalMatrix(%dx%d, den degrees=%r)" % (self.rows, self.cols, degs)


# ---------------------------------------------------------------------------
# rank estimation and pivoting
# ---------------------------------------------------------------------------


def _sample_angles(S: LaurentMatrix, opts: RankDefOptions, tag: int) -> np.ndarray:
    count = 2 * (S.hi or 0) + 17
    gen = _rng(opts.rng_seed, tag)
    return gen.uniform(0.0, 2.0 * np.pi, count)


def estimate_rank(S: LaurentMatrix, opts: RankDefOptions | None = None) -> int:
    """Almost-everywhere rank of S on the unit circle.

    Counts singular values above rank_tol times the sample's largest
    singular value at 2*order + 17 pseudo-random circle points and takes the
    maximum count over samples.
    """
    opts = opts or RankDefOptions()
    if S.rows != S.cols:
        raise ValueError("rank estimation needs a square matrix")
    S = S.trim(0.0)
    if S.is_zero:
        return 0
    best = 0
    for theta in _sample_angles(S, opts, _TAG_RANK):
        sv = np.linalg.svd(S.eval(np.exp(1j * theta)), compute_uv=False)
        if sv[0] > 0:
            best = max(best, int(np.sum(sv > opts.rank_tol * sv[0])))
    return best


def select_pivot(S: LaurentMatrix, k: int, opts: RankDefOptions | None = None) -> tuple:
    """Symmetric permutation placing a robust k x k head block first.

    Candidates come from greedy QR column pivoting of the stacked circle
    samples and of each individual sample; the winner maximizes the worst
    relative smallest singular value of the head block over the samples.
    Raises DegenerateInputError when no candidate keeps the head block
    nonsingular at a majority of samples.
    """
    opts = opts or RankDefOptions()
    m = S.rows
    if S.rows != S.cols:
        raise ValueError("pivot selection needs a square matrix")
    if not 1 <= k <= m:
        raise ValueError("rank k must be between 1 and the matrix size")
    angles = _sample_angles(S, opts, _TAG_PIVOT)
    samples = [S.eval(np.exp(1j * theta)) for theta in angles]
    scales = [np.linalg.svd(M, compute_uv=False)[0] for M in samples]

    candidates = [tuple(range(k))]
    stacked = np.vstack(samples)
    _, _, piv = scipy.linalg.qr(stacked, mode="economic", pivoting=True)
    candidates.append(tuple(sorted(int(i) for i in piv[:k])))
    for M in samples:
        _, _, piv = scipy.linalg.qr(M, mode="economic", pivoting=True)
        candidates.append(tuple(sorted(int(i) for i in piv[:k])))
    seen, unique = set(), []
    for c in candidates:
        if c not in seen:
            seen.add(c)
            unique.append(c)

    def head_minsv(idx, M):
        block = M[np.ix_(idx, idx)]
        return float(np.linalg.svd(block, compute_uv=False)[-1])

    best_idx, best_score = None, -1.0
    for idx in unique:
        score = min(
            head_minsv(idx, M) / s if s > 0 else 0.0
            for M, s in zip(samples, scales)
        )
        if score > best_score:
            best_idx, best_score = idx, score

    hits = sum(
        1
        for M, s in zip(samples, scales)
        if s > 0 and head_minsv(best_idx, M) > opts.rank_tol * s
    )
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
    worst = 0.0
    kept = 0
    for M in samples:
        sv = np.linalg.svd(M, compute_uv=False)
        scale = sv[0]
        if scale == 0:
            continue
        head = M[:k, :k]
        if np.linalg.svd(head, compute_uv=False)[-1] < _IDENTITY_GATE * scale:
            continue
        kept += 1
        recon = M[k:, :k] @ np.linalg.solve(head, M[:k, k:])
        dev = float(np.max(np.abs(recon - M[k:, k:]))) / scale
        worst = max(worst, dev)
    if kept == 0:
        return Check(False, np.inf, opts.tol)
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
    lo, hi = p.lo, p.hi
    while lo <= hi and abs(p.coeff(lo)) <= cut:
        lo += 1
    while hi >= lo and abs(p.coeff(hi)) <= cut:
        hi -= 1
    if lo > hi:
        return LaurentPoly.zero()
    if lo == p.lo and hi == p.hi:
        return p
    return LaurentPoly({n: p.coeff(n) for n in range(lo, hi + 1)})


def _edge_trimmed(p: LaurentPoly, rel: float = 1e-12) -> LaurentPoly:
    """Strip near-zero coefficients from the ends of the support only.

    Interpolated determinants and minors carry a noise skirt beyond their
    true degree; leaving it in place corrupts the power bookkeeping (shifts,
    folds, and root counts) downstream.
    """
    if p.is_zero:
        return p
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


def _deflate_column(entries, den, opts: RankDefOptions):
    """Cancel common roots of a column's numerator entries and denominator.

    A denominator root counts as shared when every nonzero entry's
    Newton-estimated distance to its nearest root is within the deflation
    radius.  The shared factor is divided out at a conditioning-weighted
    average of the Newton-polished per-polynomial estimates; raw eigenvalue
    estimates would leave remainders at the root-finding error level, which
    dominates the factorization residual.
    Returns (entries, den, worst_remainder).
    """
    radius = opts.deflation_radius
    worst = 0.0
    if all(e.is_zero for e in entries):
        return entries, LaurentPoly.one(), worst
    while den.hi and den.hi > 0:
        removed = False
        dden = den.derivative()
        dentries = [e.derivative() for e in entries]
        for a in sorted(laurent_roots(den), key=lambda w: (abs(w), w.real, w.imag)):
            cut = radius * max(1.0, abs(a))
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
                q, rem = divide_linear(e, root)
                worst = max(worst, rem)
                new_entries.append(q)
            qden, rem = divide_linear(den, root)
            worst = max(worst, rem)
            entries, den = _monic_normalized(new_entries, qden)
            removed = True
            break
        if not removed:
            break
    return entries, den, worst


def tail_quotient(
    S_tail: LaurentMatrix, head_factor: AnalyticPolyMatrix, opts: RankDefOptions | None = None
) -> RationalMatrix:
    """Rational quotient of the coupling block by the adjoint head factor.

    Computes S_tail (head_factor~)^{-1} as numerator / monic denominator per
    column: the inverse enters through the adjugate and determinant of the
    adjoint factor, powers are shifted to make everything analytic, and
    common roots are deflated away.
    """
    opts = opts or RankDefOptions()
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
    flat, det_a, _ = _deflate_column(flat, det_a, opts)

    rows = [
        [flat[i * num.cols + j] for j in range(num.cols)] for i in range(num.rows)
    ]
    dens = [det_a] * num.cols
    return RationalMatrix(LaurentMatrix.from_entries(rows), dens)


def stack_rational_factor(
    head_factor: AnalyticPolyMatrix, tail: RationalMatrix | None
) -> RationalMatrix:
    """Stack the head factor above the tail quotient over shared denominators.

    Head entries are multiplied by the column denominators so the stacked
    matrix is a single numerator / denominator pair per column.  With no
    tail (full-rank case) the result is the head factor over unit
    denominators.
    """
    k = head_factor.cols
    if tail is None:
        num = LaurentMatrix(head_factor.rows, k, dict(head_factor.terms))
        return RationalMatrix(num, [LaurentPoly.one()] * k)
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


def remove_inner_poles(R: RationalMatrix, opts: RankDefOptions | None = None):
    """Multiply columns by unit-modulus rational factors to clear interior poles.

    Each denominator zero a with |a| < 1 - deflation_radius is exchanged for
    a zero at 1/conj(a) by the factor (z - a)/(1 - conj(a) z), which has unit
    modulus on the circle, so R R~ is untouched.  Zeros within the radius of
    the circle must cancel against the numerator (deflation); when one does
    not, the pole is irremovable and the input was not factorable at this
    tolerance.

    Returns (cleared RationalMatrix, tuple of BlaschkeOp records).
    """
    opts = opts or RankDefOptions()
    radius = opts.deflation_radius
    ops = []
    new_cols = []
    new_dens = []
    for j in range(R.cols):
        entries = R.column_entries(j)
        den = R.denominators[j]
        entries, den, _ = _deflate_column(entries, den, opts)
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
                den = LaurentPoly(
                    {n - s: den.coeff(n) for n in range(s, den.hi + 1)}
                )
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
            entries, den, _ = _deflate_column(entries, den, opts)
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
        excess = max(
            float(np.max(np.abs(F.coeff(n)))) for n in F.terms if n > order
        )
        if excess > opts.tol * max(F.max_abs, 1e-300):
            raise NumericalFailureError(
                "polynomial factor exceeds order %d (excess %.3e)" % (order, excess)
            )
        F = LaurentMatrix(
            F.rows, F.cols, {n: C for n, C in F.terms.items() if n <= order}
        )
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
# interior rank drops
# ---------------------------------------------------------------------------


def _operator_scale(F: LaurentMatrix) -> float:
    samples = F.eval_unit_grid(16)
    return max(float(np.linalg.svd(M, compute_uv=False)[0]) for M in samples)


def _entrywise_evaluator(F: LaurentMatrix):
    """z -> F(z) for analytic F, rounded as LaurentPoly.eval rounds each entry.

    A scalar Horner over per-entry coefficient lists is as fast as the array
    Horner at these sizes, and its rounding does not depend on whether numpy
    fuses its complex products (see roots._cmul).
    """
    rows, cols = F.shape
    hi = F.hi or 0
    stack = np.stack([F.coeff(n) for n in range(hi, -1, -1)])
    entries = stack.reshape(hi + 1, rows * cols).T.tolist()

    def value(z):
        out = []
        for cs in entries:
            acc = 0j
            for c in cs:
                acc = acc * z + c
            out.append(acc)
        return np.array(out).reshape(rows, cols)

    return value


def _refine_drop_point(F: LaurentMatrix, a: complex, iters: int = 8) -> complex:
    """Polish a rank-drop estimate against the matrix itself.

    Root estimates coming from a compressed determinant are only accurate to
    about eps^(1/mu) at a multiplicity-mu root.  Solving F(z) v = 0 jointly
    for the point and the null direction by Gauss-Newton restores full
    accuracy: the combined Jacobian [F'(z)v, F(z)] keeps the step
    well-conditioned even when only some rows of F vanish at the point.
    """
    a = complex(a)
    M = F.eval(a)
    _, sv, vh = np.linalg.svd(M)
    v = vh[-1].conj()
    dF = _entrywise_evaluator(F.derivative())
    best_a, best_sv = a, float(sv[-1])
    for _ in range(iters):
        J = np.concatenate([(dF(a) @ v)[:, None], M], axis=1)
        # forbid motion along v itself so the unit-norm gauge stays fixed
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


def find_rank_drop_points(
    F: LaurentMatrix, opts: RankDefOptions | None = None
) -> list:
    """Interior points where a tall analytic factor drops column rank.

    Heuristic but verified: the determinants of two independent random k x m
    compressions of F vanish wherever F drops rank; interior roots present
    in both root sets are intersected, clustered, Newton-refined, and
    confirmed by the smallest singular value of F at the candidate.  A
    candidate that both compressions miss would surface later through the
    residual checks.
    """
    opts = opts or RankDefOptions()
    m, k = F.rows, F.cols
    if m < k:
        raise ValueError("factor must be tall")
    radius = opts.deflation_radius
    gen = _rng(opts.rng_seed, _TAG_COMPRESS)
    root_sets = []
    for attempt in range(4):
        L = (gen.standard_normal((k, m)) + 1j * gen.standard_normal((k, m))) / np.sqrt(2)
        h = (LaurentMatrix.constant(L) @ F).det().trim(1e-12)
        if h.is_zero:
            continue
        root_sets.append(laurent_roots(h))
        if len(root_sets) == 2:
            break
    if len(root_sets) < 2:
        raise NumericalFailureError(
            "compressed determinants vanish identically; factor has no full-rank point"
        )

    # A root of multiplicity mu is only located to ~eps^(1/mu) by the
    # companion eigensolver, so estimates of one multiple root scatter far
    # beyond the deflation radius, sometimes past the gather radius as well.
    # Each cloud is gathered at a coarse radius and polished against the
    # matrix itself; a polished point is kept whenever the matrix confirms
    # the drop there, however far the polish travelled, so the pieces of an
    # over-dispersed cloud still land on the same point.  The polish is
    # started from the cluster mean and from every raw estimate in the
    # cluster: near a needle-sharp zero the Gauss-Newton iteration has
    # spurious stationary points, and different starts can stall or
    # converge, so the best-confirmed landing wins.  The polished points
    # from the two compressions agree to near machine precision and can be
    # intersected at the tight radius.
    scale = _operator_scale(F)
    cut = opts.rank_tol * max(scale, 1e-300)

    def smallest_sv(w):
        return float(np.linalg.svd(F.eval(w), compute_uv=False)[-1])

    refined_sets = []
    for roots in root_sets:
        interior = [a for a in roots if abs(a) < 1.0 - radius]
        refined = []
        for center, _count in cluster_points(interior, _MULTI_ROOT_RADIUS):
            starts = [center]
            for w in interior:
                if abs(w - center) <= 2.0 * _MULTI_ROOT_RADIUS and all(
                    abs(w - s) > 1e-12 for s in starts
                ):
                    starts.append(w)
            best, best_sv = center, smallest_sv(center)
            for s in starts:
                cand = _refine_drop_point(F, s)
                sv = smallest_sv(cand)
                if sv < best_sv:
                    best, best_sv = cand, sv
            a = best if best_sv <= cut else center
            if abs(a) < 1.0 - radius:
                refined.append(a)
        refined_sets.append(refined)
    common = match_point_sets(refined_sets[0], refined_sets[1], 10.0 * radius)
    # The origin is probed directly: pole removal and numerator lifts pile
    # zero structure onto z = 0, and a multiplicity-mu zero there smears the
    # determinant roots over a ring of radius ~noise^(1/mu) that can escape
    # the matching radius entirely.
    if not any(abs(a) <= _MULTI_ROOT_RADIUS for a in common):
        common = list(common) + [0j]
    out = []
    for a, _count in cluster_points(common, radius):
        sv = float(np.linalg.svd(F.eval(a), compute_uv=False)[-1])
        if sv < cut:
            out.append(complex(a))
    out.sort(key=lambda w: (w.real, w.imag))
    return out


def fix_rank_drop(F: LaurentMatrix, a: complex, opts: RankDefOptions | None = None):
    """Reflect one interior rank-drop point across the unit circle.

    Rotates columns so the null direction of F(a) comes first, divides the
    first column by (z - a), and multiplies it by (1 - conj(a) z).  The
    product F F~ is preserved; the zero moves to 1/conj(a).

    Returns (fixed factor, BlaschkeOp with the applied unitary).
    """
    opts = opts or RankDefOptions()
    a = complex(a)
    scale = _operator_scale(F)
    _, sv, vh = np.linalg.svd(F.eval(a))
    if sv[-1] > opts.rank_tol * max(scale, 1e-300):
        raise ValueError(
            "factor does not drop rank at %s (smallest singular value %.3e)"
            % (a, sv[-1])
        )
    G, U, rem = reflect_column_zero(F, a, vh[-1].conj())
    if rem > 10.0 * max(opts.tol, opts.rank_tol) * max(F.max_abs, 1e-300):
        raise NumericalFailureError(
            "zero reflection at %s left remainder %.3e" % (a, rem),
            residual=rem,
        )
    op = BlaschkeOp(a=a, column=0, direction="zero-removal", unitary=U)
    return G.as_analytic(0.0), op


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


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
    Sp = S.permuted(perm)
    head = Sp.submatrix(range(k), range(k))
    # The head factor's error is amplified by the root conditioning of the
    # derived determinant and adjugate before it reaches the deflation step,
    # so aim two orders below the requested tolerance and fall back to the
    # nominal target only when that proves unreachable.
    try:
        head_factor = factor_positive_definite(head, opts.tol * 1e-2)
    except NumericalFailureError:
        head_factor = factor_positive_definite(head, opts.tol)

    if k < m:
        tail_block = Sp.submatrix(range(k, m), range(k))
        tail = tail_quotient(tail_block, head_factor, opts)
    else:
        tail = None
    R = stack_rational_factor(head_factor, tail)
    R, pole_ops = remove_inner_poles(R, opts)

    cap = opts.max_zero_fix_iters
    if cap is None:
        cap = 2 * N * m + 16
    else:
        cap = max(cap, 2 * N * m)
    zero_ops = []

    def over_cap():
        report = FactorReport(
            detected_rank=k,
            pivot=perm,
            pole_ops=pole_ops,
            zero_ops=tuple(zero_ops),
            rng_seed=opts.rng_seed,
        )
        return NumericalFailureError(
            "interior zero removal did not terminate within %d steps" % cap,
            report=report,
        )

    def clear_drops(G, anchors=()):
        # One find pass can report a point whose nullity exceeds one (all
        # columns sharing a zero there); each fix strips a single column, so
        # the points are re-detected until none survive.  Fixes within one
        # pass leave the other reported points' rank drops intact, but the
        # singular value is re-checked anyway and healed points skipped.
        #
        # Anchors are structurally required drop locations (reflections of
        # outer denominator roots) that the determinant compression can miss
        # when the zero is needle sharp.  Each round they are polished
        # against the current matrix and join the candidate list whenever
        # the matrix confirms a drop there.
        while True:
            points = find_rank_drop_points(G, opts)
            gate = opts.rank_tol * max(_operator_scale(G), 1e-300)
            for w in anchors:
                b = _refine_drop_point(G, w)
                if abs(b) >= 1.0 - opts.deflation_radius:
                    continue
                if any(abs(b - a) <= 10.0 * opts.deflation_radius for a in points):
                    continue
                sv = np.linalg.svd(G.eval(b), compute_uv=False)
                if sv[-1] <= gate:
                    points = list(points) + [b]
            if not points:
                return G
            progressed = False
            for a in points:
                # Re-polish against the current matrix right before dividing:
                # earlier fixes in the same pass move the surviving zeros
                # slightly, and the detector can hand over duplicated
                # estimates of one multiple zero.  A division applied at a
                # stale estimate runs off the true zero and commits the gap
                # into the coefficients, so every fix gets a fresh point.
                b = _refine_drop_point(G, a)
                if abs(b) < 1.0 - opts.deflation_radius:
                    a = b
                sv = np.linalg.svd(G.eval(a), compute_uv=False)
                if sv[-1] > gate:
                    continue
                if len(zero_ops) >= cap:
                    raise over_cap()
                G, op = fix_rank_drop(G, a, opts)
                zero_ops.append(op)
                progressed = True
            if not progressed:
                raise over_cap()

    # Interior rank drops must be cleared while the factor is still rational:
    # the outer denominators divide the numerator exactly only once the
    # columns have full rank everywhere inside the circle.  The per-column
    # denominators are outer here, so the numerator matrix has the same
    # interior drop points as the rational factor itself.
    #
    # Every root r of the shared denominator must be a zero of the whole
    # numerator for the division to come out polynomial.  Fixing an interior
    # drop at the reflected point 1/conj(r) multiplies the deficient column
    # by (1 - z/r), which plants exactly the zero at r that the division
    # needs, so those reflections are handed to the clearing loop as anchor
    # candidates alongside whatever the detector reports.
    num, shared_den = _common_denominator(R)
    anchors = tuple(
        1.0 / np.conj(r) for r in laurent_roots(shared_den) if abs(r) > 1.0
    )
    num = clear_drops(num, anchors)
    R = RationalMatrix(num, [shared_den] * R.cols)
    F = finalize_polynomial(R, N, opts)
    F = clear_drops(F)

    inverse = [0] * m
    for pos, orig in enumerate(perm):
        inverse[orig] = pos
    F = F.submatrix(inverse, range(k))
    A, _ = polish_coefficients(
        np.stack([S.coeff(n) for n in range(N + 1)]),
        np.stack([F.coeff(n) for n in range(N + 1)]),
        1e-15,
    )
    F = LaurentMatrix(m, k, dict(enumerate(A)))
    factor = canonicalize(F).factor

    residual = (factor @ factor.adjoint() - S).max_abs / scale
    order = factor.trim(1e-12).hi
    verdicts = {
        "residual": Check(residual <= opts.tol, residual, opts.tol),
        "order_matches": Check(order == N, float(order), float(N)),
        "rank_identity": identity_check,
    }
    report = FactorReport(
        detected_rank=k,
        pivot=perm,
        pole_ops=pole_ops,
        zero_ops=tuple(zero_ops),
        residual=residual,
        order=order,
        verdicts=verdicts,
        rng_seed=opts.rng_seed,
    )
    if residual > opts.tol:
        raise NumericalFailureError(
            "factorization residual %.3e exceeds tol %.3e" % (residual, opts.tol),
            residual=residual,
            report=report,
        )
    return factor, report


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
    analytic_ok = factor.is_zero or factor.lo >= 0
    neg_mass = 0.0
    if not analytic_ok:
        neg_mass = max(
            float(np.max(np.abs(factor.coeff(n)))) for n in factor.terms if n < 0
        ) / max(factor.max_abs, 1e-300)
        analytic_ok = neg_mass <= opts.tol
    verdicts["analytic"] = Check(analytic_ok, neg_mass, opts.tol)

    diff = S - factor @ factor.adjoint()
    residual = diff.max_abs / scale
    verdicts["coefficient_residual"] = Check(residual <= opts.tol, residual, opts.tol)

    count = _order_grid_count(S.hi or 0)
    grid_dev = 0.0
    Ss = S.eval_unit_grid(count)
    Fs = factor.eval_unit_grid(count)
    for M, Fz in zip(Ss, Fs):
        grid_dev = max(grid_dev, float(np.max(np.abs(M - Fz @ Fz.conj().T))))
    grid_dev /= scale
    verdicts["grid_residual"] = Check(grid_dev <= opts.tol, grid_dev, opts.tol)

    order_s = S.trim(1e-12).hi or 0
    order_f = factor.trim(1e-12).hi or 0
    verdicts["order_matches"] = Check(order_f == order_s, float(order_f), float(order_s))

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
