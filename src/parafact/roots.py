"""Root finding, clustering, and linear-factor algebra for Laurent polynomials.

All root finding goes through companion-matrix eigenvalues (np.roots, whose
eigensolver balances the companion matrix).  Division routines pick the
recurrence direction that keeps the multipliers inside the unit disk:
dividing by (z - a) runs top-down when |a| <= 1 and bottom-up otherwise so
accumulated error stays bounded.
"""

from __future__ import annotations

import numpy as np

from .laurent import LaurentMatrix, LaurentPoly

__all__ = [
    "poly_roots",
    "laurent_roots",
    "cluster_points",
    "match_point_sets",
    "divide_linear",
    "divide_out",
    "unitary_with_first_column",
    "reflect_column_zero",
]

# Leading coefficients below this relative size are numerical debris and are
# stripped before building the companion matrix.
_LEAD_TRIM = 1e-13


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


def match_point_sets(first, second, radius: float) -> list:
    """Points present in both sets within a relative radius.

    Greedy one-to-one matching by increasing distance; matched pairs are
    averaged.  Used to intersect two independently computed root clouds.
    """
    a = [complex(p) for p in first]
    b = [complex(p) for p in second]
    pairs = []
    for i, p in enumerate(a):
        for j, q in enumerate(b):
            d = abs(p - q)
            if d <= radius * max(1.0, abs(p), abs(q)):
                pairs.append((d, i, j))
    pairs.sort(key=lambda t: (t[0], t[1], t[2]))
    used_a, used_b, out = set(), set(), []
    for d, i, j in pairs:
        if i in used_a or j in used_b:
            continue
        used_a.add(i)
        used_b.add(j)
        out.append((a[i] + b[j]) / 2)
    out.sort(key=lambda w: (w.real, w.imag))
    return out


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
    q = np.zeros(d, dtype=complex)
    if abs(a) <= 1.0:
        q[d - 1] = c[d]
        for i in range(d - 1, 0, -1):
            q[i - 1] = c[i] + a * q[i]
    else:
        q[0] = -c[0] / a
        for i in range(1, d):
            q[i] = (q[i - 1] - c[i]) / a
    quotient = LaurentPoly.from_coeffs(q, 0)
    resid = quotient * LaurentPoly({0: -a, 1: 1.0}) - p
    return quotient, resid.max_abs


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


def _cmul(x: np.ndarray, w: complex) -> np.ndarray:
    """x * w rounded as scalar complex arithmetic rounds it.

    numpy's vectorized complex product may fuse a multiply and an add (it
    does on x86 with FMA), which rounds differently from the same product
    taken entry by entry.  Forming the real and imaginary parts apart keeps
    array recurrences bit-for-bit equal to their per-entry LaurentPoly form.
    """
    out = np.empty(x.shape, dtype=complex)
    out.real = x.real * w.real - x.imag * w.imag
    out.imag = x.real * w.imag + x.imag * w.real
    return out


def reflect_column_zero(F: LaurentMatrix, a: complex, null_vector: np.ndarray):
    """Move a zero of an analytic matrix at an interior point a across the circle.

    Rotates columns by a constant unitary placing the null direction first,
    divides the first column by (z - a), and multiplies it by
    (1 - conj(a) z).  On the unit circle the rotation and the ratio
    (1 - conj(a) z)/(z - a) both have unit modulus, so F F~ is unchanged.

    Only interior points are accepted: the division runs the top-down
    recurrence of divide_linear on the whole column at once, which is stable
    for |a| < 1, and ValueError is raised for |a| >= 1.

    Returns (reflected matrix, applied unitary, worst division remainder),
    the remainder being the max-abs coefficient of (z - a) q - c over the
    column's entries c and quotients q.
    """
    a = complex(a)
    if not abs(a) < 1.0:
        raise ValueError("reflect_column_zero needs |a| < 1, got %s" % a)
    U = unitary_with_first_column(null_vector)
    G = F @ LaurentMatrix.constant(U)
    if (G.lo or 0) < 0:
        raise ValueError("reflect_column_zero expects an analytic matrix")
    d = G.hi or 0
    C = np.zeros((d + 1, G.rows, G.cols), dtype=complex)
    for n, M in G.terms.items():
        C[n] = M
    c = C[:, :, 0].copy()
    # q has powers 0..d-1, padded with a zero row at power d so that
    # (z - a) q and (1 - conj(a) z) q are plain shifted differences.
    q = np.zeros_like(c)
    for i in range(d, 0, -1):
        q[i - 1] = c[i] + _cmul(q[i], a)
    resid = -a * q - c
    resid[1:] += q[:-1]
    worst = float(np.max(np.abs(resid)))
    C[:, :, 0] = q
    C[1:, :, 0] -= _cmul(q[:-1], a.conjugate())
    return LaurentMatrix(G.rows, G.cols, dict(enumerate(C))), U, worst
