"""Root finding, clustering, and linear-factor algebra for Laurent polynomials.

All root finding goes through companion-matrix eigenvalues (np.roots, whose
eigensolver balances the companion matrix, or the QZ of a block-companion
pencil for the interior rank drops of a matrix).  Division routines pick the
recurrence direction that keeps the multipliers inside the unit disk:
dividing by (z - a) runs top-down when |a| <= 1 and bottom-up otherwise so
accumulated error stays bounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .errors import NumericalFailureError
from .laurent import LaurentMatrix, LaurentPoly, _cmul

__all__ = [
    "poly_roots",
    "laurent_roots",
    "cluster_points",
    "divide_linear",
    "divide_out",
    "unitary_with_first_column",
    "reflect_column_zero",
    "RankDefOptions",
    "BlaschkeOp",
    "find_rank_drop_points",
    "fix_rank_drop",
    "clear_rank_drops",
]

# Leading coefficients below this relative size are numerical debris and are
# stripped before building the companion matrix.
_LEAD_TRIM = 1e-13

# Stream tag of the drop finder's random compression.
_TAG_COMPRESS = 103

# Relative singular-value cutoff for every rank decision.
_RANK_TOL = 1e-8

# Relative radius for root deflation; |a| >= 1 - _DEFLATION_RADIUS is on the circle.
_DEFLATION_RADIUS = 1e-7

# Radius within which find_rank_drop_points keeps only the best-confirmed
# candidate: eigenvalue estimates of a multiplicity-mu zero scatter by
# roughly eps^(1/mu), and a landing that stopped short of a zero still
# passes the confirmation cut within it.  It is also the radius of the start
# screen: every estimate of a zero of multiplicity up to 3 lies within it
# (eps^(1/3) = 6e-6; at most 2.2e-5 measured on planted triple zeros).
_MULTI_ROOT_RADIUS = 1e-4


def poly_roots(coeffs_ascending) -> np.ndarray:
    """Roots of sum_i c_i z^i given ascending coefficients."""
    c = np.asarray(coeffs_ascending, dtype=complex)
    if c.size == 0:
        return np.zeros(0, dtype=complex)
    top = np.max(np.abs(c))
    if top == 0:
        return np.zeros(0, dtype=complex)
    keep = np.abs(c) > _LEAD_TRIM * top
    hi = int(np.max(np.nonzero(keep)))
    return np.roots(c[hi::-1])


def laurent_roots(p: LaurentPoly) -> np.ndarray:
    """Zeros of p on the punctured plane, plus the origin when p(0) = 0.

    For p = z^lo * q with q(0) != 0 the zeros are those of q, together with
    the origin (multiplicity lo) when lo > 0.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no root set")
    lo, hi = p.lo, p.hi
    core = poly_roots(p.coeff_array(lo, hi))
    if lo > 0:
        core = np.concatenate([core, np.zeros(lo, dtype=complex)])
    return core


def cluster_points(points, radius: float):
    """Greedy clustering with a relative radius; returns (center, count) pairs.

    Two points join when their distance is within radius * max(1, moduli).
    Deterministic: points are processed in lexicographic (real, imag) order.
    """
    pts = sorted((complex(p) for p in points), key=lambda w: (w.real, w.imag))
    clusters = []
    for w in pts:
        placed = False
        for idx, (center, members) in enumerate(clusters):
            cut = radius * max(1.0, abs(center), abs(w))
            if abs(w - center) <= cut:
                members.append(w)
                clusters[idx] = (sum(members) / len(members), members)
                placed = True
                break
        if not placed:
            clusters.append((w, [w]))
    return [(center, len(members)) for center, members in clusters]


def divide_linear(p: LaurentPoly, a: complex):
    """Divide an analytic polynomial by (z - a), discarding the remainder.

    Returns (quotient, remainder_magnitude) where the remainder magnitude is
    the max-abs coefficient of p - (z - a) * quotient.  The recurrence runs
    top-down for |a| <= 1 and bottom-up otherwise, keeping it stable on both
    sides of the unit circle.
    """
    if p.is_zero:
        return LaurentPoly.zero(), 0.0
    if p.lo < 0:
        raise ValueError("divide_linear expects an analytic polynomial")
    a = complex(a)
    d = p.hi
    c = p.coeff_array(0, d)
    if d == 0:
        return LaurentPoly.zero(), float(abs(c[0]))
    # q is padded with a zero at power d: (z - a) q - c is a shifted difference.
    q = np.zeros(d + 1, dtype=complex)
    if abs(a) <= 1.0:
        q[d - 1] = c[d]
        for i in range(d - 1, 0, -1):
            q[i - 1] = c[i] + a * q[i]
    else:
        q[0] = -c[0] / a
        for i in range(1, d):
            q[i] = (q[i - 1] - c[i]) / a
    resid = -a * q - c
    resid[1:] += q[:-1]
    return LaurentPoly.from_coeffs(q[:d], 0), float(np.max(np.abs(resid)))


def divide_out(num: LaurentPoly, den: LaurentPoly):
    """Divide analytic num by analytic den with den(0) != 0, exactly.

    Intended for exact divisions (num a polynomial multiple of den up to
    noise): the quotient is built by the ascending recurrence, stable when
    den's roots lie on or outside the unit circle.  Returns
    (quotient, remainder_magnitude) with the remainder measured as the
    max-abs coefficient of num - quotient * den.
    """
    if den.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if (not num.is_zero and num.lo < 0) or den.lo < 0:
        raise ValueError("divide_out expects analytic polynomials")
    if abs(den.coeff(0)) == 0:
        raise ValueError("divisor must not vanish at z = 0")
    dd = den.hi
    if num.is_zero:
        return LaurentPoly.zero(), 0.0
    dn = num.hi
    if dn < dd:
        return LaurentPoly.zero(), num.max_abs
    d = den.coeff_array(0, dd)
    c = num.coeff_array(0, dn)
    qlen = dn - dd + 1
    q = np.zeros(qlen, dtype=complex)
    for i in range(qlen):
        acc = c[i]
        for l in range(1, min(i, dd) + 1):
            acc -= d[l] * q[i - l]
        q[i] = acc / d[0]
    quotient = LaurentPoly.from_coeffs(q, 0)
    resid = quotient * den - num
    return quotient, resid.max_abs


def unitary_with_first_column(v: np.ndarray) -> np.ndarray:
    """A unitary matrix whose first column is the given unit vector.

    Householder construction: with H v = alpha e1 and H Hermitian
    involutive, U = H diag(alpha, I) satisfies U e1 = H(alpha e1) = v.
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    k = v.shape[0]
    nrm = np.linalg.norm(v)
    if nrm == 0:
        raise ValueError("cannot extend the zero vector to a unitary")
    v = v / nrm
    if k == 1:
        return np.array([[v[0]]], dtype=complex)
    phase = np.exp(1j * np.angle(v[0])) if v[0] != 0 else 1.0
    alpha = -phase
    w = v.copy()
    w[0] -= alpha
    H = np.eye(k, dtype=complex) - 2.0 * np.outer(w, w.conj()) / np.vdot(w, w).real
    U = H.copy()
    U[:, 0] = U[:, 0] * alpha
    return U


def reflect_column_zero(F: LaurentMatrix, a: complex, null_basis: np.ndarray):
    """Move a zero of an analytic matrix at an interior point a across the circle.

    null_basis is one null vector of F(a), or a k x nu matrix whose
    orthonormal columns span nu null directions.  Rotates columns by a
    constant unitary placing those directions first, divides the first nu
    columns by (z - a), and multiplies them by (1 - conj(a) z), so a zero of
    nullity nu is reflected in one step.  On the unit circle the rotation
    and the ratio (1 - conj(a) z)/(z - a) both have unit modulus, so F F~ is
    unchanged.  For one direction the unitary is the Householder one of
    unitary_with_first_column; for nu > 1 the basis is completed by the
    trailing right singular vectors of its adjoint.

    The rotation is one batched product of the coefficient stack by U, plus
    0.0 so that a negative zero reads as the Laurent product F @ U stores
    it.  The division runs the top-down recurrence of divide_linear,
    q_{i-1} = c_i + q_i a, in Python complex arithmetic on every entry of
    the column block at once, so each product rounds as laurent._cmul
    rounds it.  That recurrence is stable for |a| < 1 only, and ValueError
    is raised for |a| >= 1.

    Returns (reflected matrix, applied unitary, worst division remainder),
    the remainder being the max-abs coefficient of (z - a) q - c over the
    reflected columns' entries c and quotients q.
    """
    a = complex(a)
    if not abs(a) < 1.0:
        raise ValueError("reflect_column_zero needs |a| < 1, got %s" % a)
    if (F.lo or 0) < 0:
        raise ValueError("reflect_column_zero expects an analytic matrix")
    B = np.asarray(null_basis, dtype=complex).reshape(F.cols, -1)
    nu = B.shape[1]
    if nu == 1:
        U = unitary_with_first_column(B[:, 0])
    else:
        U = np.hstack([B, np.linalg.svd(B.conj().T)[2][nu:].conj().T])
    d = F.hi or 0
    C = np.matmul(F.coeff_array(0, d), U) + 0.0
    c = C[:, :, :nu]
    # q has powers 0..d-1, padded with a zero row at power d so that
    # (z - a) q and (1 - conj(a) z) q are plain shifted differences.
    rows = c.reshape(d + 1, -1).tolist()
    qs = [[0j] * len(rows[0])]
    for ci in rows[:0:-1]:
        qs.append([x + y * a for x, y in zip(ci, qs[-1])])
    q = np.array(qs[::-1], dtype=complex).reshape(c.shape)
    resid = -a * q - c
    resid[1:] += q[:-1]
    worst = float(np.max(np.abs(resid)))
    C[:, :, :nu] = q
    C[1:, :, :nu] -= _cmul(q[:-1], a.conjugate())
    return LaurentMatrix.from_coeffs(C), U, worst


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, tag])))


@dataclass(frozen=True)
class RankDefOptions:
    """Tolerances and seeds for the rank-deficient pipeline.

    tol: relative residual target for the factorization.
    rng_seed: seed for rank sampling, pivoting, and the drop-finding
        compression.
    """

    tol: float = 1e-9
    rng_seed: int = 0

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class BlaschkeOp:
    """One unit-modulus column operation applied during the pipeline.

    direction is 'pole-removal' (denominator zero moved out of the disk)
    or 'zero-removal' (factor zero reflected out of the disk); unitary is
    the constant column rotation used for zero removal, None otherwise.
    A zero of nullity nu is reflected in one step and recorded as nu
    operations on columns 0..nu-1 that share a and unitary.
    """

    a: complex
    column: int
    direction: str
    unitary: Optional[np.ndarray] = None


def _circle_svs(F: LaurentMatrix) -> np.ndarray:
    """Singular values of F at 16 unit-circle samples, one row per sample."""
    return np.linalg.svd(F.eval_unit_grid(16), compute_uv=False)


def _operator_scale(F: LaurentMatrix) -> float:
    """Largest singular value of F over the samples of _circle_svs."""
    return float(np.max(_circle_svs(F)[:, 0]))


def _batched_slopes(F: LaurentMatrix, z: np.ndarray) -> np.ndarray:
    """F' of an analytic F at every point of z, as a (len(z), rows, cols) array.

    The Horner recurrence of LaurentMatrix.eval on the coefficients n F_n,
    but with unfused complex products (see laurent._cmul), so each point
    rounds as the scalar Horner recurrence on each entry of F.derivative(),
    LaurentPoly.eval, rounds it.
    """
    hi = F.hi or 0
    C = F.coeff_array(0, hi)
    z = z.reshape(-1, 1, 1)
    acc = np.zeros((z.shape[0],) + F.shape, dtype=complex)
    for n in range(hi, 0, -1):
        acc = _cmul(acc, z) + n * C[n]
    return acc


def _smallest_svs(F: LaurentMatrix, points) -> np.ndarray:
    """Smallest singular value of an analytic F at every point."""
    return np.linalg.svd(F.eval(points), compute_uv=False)[:, -1]


def _refine_drop_points(F: LaurentMatrix, starts, iters: int = 8) -> np.ndarray:
    """Polish many rank-drop estimates of an analytic F in one batched pass.

    Eigenvalue estimates are only accurate to about eps^(1/mu) at a
    multiplicity-mu drop.  Solving F(z) v = 0 jointly for the point and the
    null direction by Gauss-Newton restores full accuracy: the combined
    Jacobian [F'(z) v, F(z)] keeps the step well-conditioned even when only
    some rows of F vanish at the point.  A start stops at a non-finite step,
    a collapsed null vector, or a step of at most 1e-15 max(1, |a|), and
    lands on its iterate with the smallest sigma_min so far.  F comes from
    LaurentMatrix.eval and F' from _batched_slopes at all live starts at
    once, sigma_min from one batched SVD, and the minimum-norm step from a
    batched pseudo-inverse with the cutoff that lstsq(rcond=None) uses.
    Returns the landings in the order of starts.
    """
    m, k = F.shape
    a = np.array(starts, dtype=complex).reshape(-1)
    M = F.eval(a)
    _, sv, vh = np.linalg.svd(M)
    v = vh[:, -1].conj()
    best, best_sv = a.copy(), sv[:, -1]
    live = np.arange(a.size)
    rcond = np.finfo(float).eps * max(m + 1, k + 1)
    for _ in range(iters):
        if not live.size:
            break
        J = np.zeros((live.size, m + 1, k + 1), dtype=complex)
        J[:, :m, 0] = (_batched_slopes(F, a[live]) @ v[:, :, None])[:, :, 0]
        J[:, :m, 1:] = M
        # forbid motion along v itself so the unit-norm gauge stays fixed
        J[:, m, 1:] = v.conj()
        r = np.zeros((live.size, m + 1, 1), dtype=complex)
        r[:, :m] = M @ v[:, :, None]
        upd = -(np.linalg.pinv(J, rcond=rcond) @ r)[:, :, 0]
        w = v + upd[:, 1:]
        nv = np.linalg.norm(w, axis=1)
        ok = np.all(np.isfinite(upd), axis=1) & (nv >= 1e-300)
        live, step, w, nv = live[ok], upd[ok, 0], w[ok], nv[ok]
        a[live] += step
        v = w / nv[:, None]
        M = F.eval(a[live])
        smin = np.linalg.svd(M, compute_uv=False)[:, -1]
        better = smin < best_sv[live]
        best[live[better]] = a[live[better]]
        best_sv[live[better]] = smin[better]
        going = np.abs(step) > 1e-15 * np.maximum(1.0, np.abs(a[live]))
        live, v, M = live[going], v[going], M[going]
    return best


def _screened_starts(F: LaurentMatrix, starts: np.ndarray) -> np.ndarray:
    """The starts that may lie within _MULTI_ROOT_RADIUS of a rank drop of F.

    If F(b) v = 0 for a unit v, then for any a in the closed disk
    sigma_min(F(a)) <= |(F(a) - F(b)) v| <= |a - b| max |F'| <= |a - b| s,
    with s = sum_n n ||F_n||_2 bounding F' on the disk.  A start with
    sigma_min(F(a)) > _MULTI_ROOT_RADIUS s therefore lies farther than that
    radius from every drop, and is dropped.
    """
    if not starts.size:
        return starts
    C = F.coeff_array(0, F.hi or 0)
    slope = float(np.sum(np.arange(C.shape[0]) * np.linalg.norm(C, 2, axis=(1, 2))))
    return starts[_smallest_svs(F, starts) <= _MULTI_ROOT_RADIUS * slope]


def find_rank_drop_points(
    F: LaurentMatrix, opts: RankDefOptions | None = None
) -> list:
    """Interior points where a tall analytic factor drops column rank.

    Heuristic but verified.  P(z) = L F(z), for one random k x m
    compression L, is singular wherever F drops rank.  The starts are the
    finite eigenvalues inside the disk of the kN x kN block-companion
    pencil z X + Y of P (X = diag(P_N, I, ..., I); Y has the top block row
    [P_{N-1} ... P_0] and -I on the block sub-diagonal), from the QZ of
    the pencil.  A start a is dropped when sigma_min(F(a)) exceeds
    _MULTI_ROOT_RADIUS sum_n n ||F_n||_2, which proves it farther than that
    radius from every drop (_screened_starts): the eigenvalue estimates of
    a zero of multiplicity up to 3 lie well within it, so every drop keeps
    its own start.  On an outer factor typically none is left, and then
    nothing is polished.  The rest are polished against F itself in one
    batched Gauss-Newton, _refine_drop_points.  The landings inside the disk and
    the origin, which joins unpolished, are scored by their smallest
    singular value; going from the best, each one below the cut is
    reported unless a reported point lies within _MULTI_ROOT_RADIUS.  An
    eigenvalue where only the compression is singular lands on no drop and
    fails the cut.  Raises ValueError when F is wide or has negative
    powers, and NumericalFailureError when F drops rank at every circle
    sample (its normal rank is deficient, so every point would be a drop).
    """
    opts = opts or RankDefOptions()
    m, k = F.rows, F.cols
    if m < k:
        raise ValueError("factor must be tall")
    if (F.lo or 0) < 0:
        raise ValueError("factor must be analytic")
    radius = _DEFLATION_RADIUS
    sv = _circle_svs(F)
    cut = _RANK_TOL * max(float(np.max(sv[:, 0])), 1e-300)
    if np.all(sv[:, -1] <= cut):
        raise NumericalFailureError(
            "factor drops rank at every circle sample: largest sampled "
            "smallest singular value %.3e, cut %.3e" % (np.max(sv[:, -1]), cut)
        )
    gen = _rng(opts.rng_seed, _TAG_COMPRESS)
    L = (gen.standard_normal((k, m)) + 1j * gen.standard_normal((k, m))) / np.sqrt(2)
    N = F.hi or 0
    P = L @ F.coeff_array(0, N)
    z = np.zeros(0, dtype=complex)
    if N:
        X = np.eye(k * N, dtype=complex)
        X[:k, :k] = P[N]
        Y = -np.eye(k * N, k=-k, dtype=complex)
        Y[:k] = np.hstack(P[N - 1 :: -1])
        z = scipy.linalg.eigvals(-Y, X)
    starts = _screened_starts(F, z[np.isfinite(z) & (np.abs(z) < 1.0 - radius)])
    landed = _refine_drop_points(F, starts) if starts.size else starts
    # Pole removal and numerator lifts pile zero structure onto z = 0, and
    # the eigenvalues of a multiplicity-mu zero there smear over a ring of
    # radius ~eps^(1/mu), so the origin is always a candidate.  It is not
    # polished: that would cost a Gauss-Newton run on every factor, square
    # outer factors included, to find what an exact zero there shows as is.
    candidates = np.append(landed[np.abs(landed) < 1.0 - radius], 0j)
    svs = _smallest_svs(F, candidates)
    # A start far from its zero can stop short of it after the last step
    # and still pass the cut, so the best-confirmed candidate near each
    # drop is reported instead of an average over the landings there.
    out = []
    for i in np.argsort(svs, kind="stable"):
        if not svs[i] < cut:
            break
        a = complex(candidates[i])
        if all(abs(a - b) > _MULTI_ROOT_RADIUS for b in out):
            out.append(a)
    out.sort(key=lambda w: (w.real, w.imag))
    return out


class _NoRankDrop(ValueError):
    """fix_rank_drop was given a point where F does not drop rank."""


def fix_rank_drop(
    F: LaurentMatrix,
    a: complex,
    opts: RankDefOptions | None = None,
    scale: float | None = None,
):
    """Reflect one interior rank-drop point across the unit circle.

    Every right singular direction of F(a) whose singular value is at most
    _RANK_TOL times the operator scale, the gate that decides F drops rank
    at a, is reflected in one step: columns are rotated so those nu
    directions come first, and each of the first nu columns is divided by
    (z - a) and multiplied by (1 - conj(a) z).  The product F F~ is
    preserved; the zero moves to 1/conj(a) with its whole null space.

    scale is the operator scale of the gate, _operator_scale(F), taken
    from F when it is not given.  A clearing loop passes the scale of the
    factor it started from: reflections and constant unitary rotations have
    unit modulus on the circle, so they move the sampled largest singular
    value by rounding only.

    Returns (fixed factor, ops): one BlaschkeOp per reflected column
    0..nu-1, all sharing a and the applied unitary.
    """
    opts = opts or RankDefOptions()
    a = complex(a)
    if scale is None:
        scale = _operator_scale(F)
    _, sv, vh = np.linalg.svd(F.eval(a))
    nu = int(np.sum(sv <= _RANK_TOL * max(scale, 1e-300)))
    if not nu:
        raise _NoRankDrop(
            "factor does not drop rank at %s (smallest singular value %.3e)"
            % (a, sv[-1])
        )
    G, U, rem = reflect_column_zero(F, a, vh[-nu:].conj().T)
    if rem > 10.0 * max(opts.tol, _RANK_TOL) * max(F.max_abs, 1e-300):
        raise NumericalFailureError(
            "zero reflection at %s left remainder %.3e" % (a, rem),
            residual=rem,
        )
    ops = tuple(
        BlaschkeOp(a=a, column=j, direction="zero-removal", unitary=U)
        for j in range(nu)
    )
    return G.as_analytic(0.0), ops


def clear_rank_drops(F: LaurentMatrix, opts: RankDefOptions | None = None):
    """Reflect every interior rank drop of a tall analytic F across the circle.

    Passes of find_rank_drop_points, each point fixed by fix_rank_drop,
    until a pass reports none.  The gate's operator scale is taken once,
    from the input, when the first pass reports a drop, and every fix uses
    it: the reflections are unimodular on the circle (see fix_rank_drop).
    A point that no longer passes the rank gate is skipped: near a multiple
    zero the finder can report a second point, which an earlier fix of the
    same pass has already cleared.  Raises NumericalFailureError when a
    pass fixes no point, or when drops remain after 4 k max(N, 1) + 16
    reflected columns.

    Returns (F, ops): the cleared factor and the BlaschkeOps of every fix,
    in the order applied (one per reflected column, see fix_rank_drop);
    ops is () when F had no interior rank drop.
    """
    opts = opts or RankDefOptions()
    budget = 4 * F.cols * max(F.hi or 0, 1) + 16
    scale = None
    applied = []
    while drops := find_rank_drop_points(F, opts):
        if len(applied) >= budget:
            raise NumericalFailureError("rank drops left after a budget of %d" % budget)
        if scale is None:
            scale = _operator_scale(F)
        skipped = []
        for a in drops:
            try:
                F, ops = fix_rank_drop(F, a, opts, scale)
            except _NoRankDrop as exc:
                skipped.append(exc)
                continue
            applied.extend(ops)
            if len(applied) >= budget:
                break
        if len(skipped) == len(drops):
            raise NumericalFailureError(
                "no reported point of a pass drops rank: %s" % skipped[0]
            )
    return F, tuple(applied)
