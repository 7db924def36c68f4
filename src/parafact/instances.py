"""Certified random instances for exercising the factorization pipeline.

Everything here runs the easy direction: multiply a known analytic factor
into a spectrum, or a known chain of degree-one paraunitary factors into a
lossless row.  The secret ingredient rides along in the instance, so tests
can confront the hard direction (factorization, completion) with an
independently constructed answer instead of a self-referential check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .laurent import AnalyticPolyMatrix, LaurentMatrix
from .paraunitary import LosslessRow
from .roots import clear_rank_drops

# Relative size below which a leading coefficient vector counts as absent
# when deciding the actual order of a generated row.
_TOP_COEFF_CUT = 1e-12


@dataclass(frozen=True)
class Instance:
    """A spectrum with the analytic factor it was built from."""

    secret_factor: AnalyticPolyMatrix
    spectrum: LaurentMatrix
    seed: int
    params: tuple


@dataclass(frozen=True)
class LosslessInstance:
    """A unit-norm row with the paraunitary matrix it was cut from."""

    secret_paraunitary: AnalyticPolyMatrix
    row: LosslessRow
    seed: int
    params: tuple


def elementary_factor(v) -> AnalyticPolyMatrix:
    """Degree-one paraunitary factor I - v v^H + z v v^H of a unit vector.

    The factor is the identity on the orthogonal complement of v and
    multiplies the v direction by z, so it is unitary on the circle and
    contributes exactly one power of z to the determinant.
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    norm = np.linalg.norm(v)
    if norm < 1e-300:
        raise ValueError("direction vector must be nonzero")
    v = v / norm
    m = v.size
    P = np.outer(v, v.conj())
    return AnalyticPolyMatrix.from_coeffs([np.eye(m) - P, P])


def _haar_unitary(m: int, gen: np.random.Generator) -> np.ndarray:
    """A uniformly distributed constant unitary via phase-fixed QR."""
    Z = (gen.standard_normal((m, m)) + 1j * gen.standard_normal((m, m))) / np.sqrt(2)
    Q, R = np.linalg.qr(Z)
    d = np.diag(R)
    return Q * (d / np.abs(d))


def gen_spectrum(
    m: int,
    k: int,
    N: int,
    seed: int,
    interior_zero_free: bool = False,
) -> Instance:
    """Random order-N spectrum of exact rank k with a known m x k factor.

    Coefficients are i.i.d. complex Gaussian, scaled so the factor's largest
    coefficient has magnitude one.  With interior_zero_free the factor's
    interior rank drops are reflected across the circle first
    (roots.clear_rank_drops), which leaves the spectrum unchanged but makes
    the secret factor itself the outer representative, so factor
    comparisons (not just residuals) are valid against it.
    """
    if not 1 <= k <= m:
        raise ValueError("rank %r out of range for size %r" % (k, m))
    if N < 0:
        raise ValueError("order must be nonnegative")
    gen = np.random.default_rng(seed)
    A = LaurentMatrix.from_coeffs(
        [
            (gen.standard_normal((m, k)) + 1j * gen.standard_normal((m, k))) / np.sqrt(2.0)
            for _ in range(N + 1)
        ]
    )
    if interior_zero_free:
        A = clear_rank_drops(A)
    A = (A * (1.0 / A.max_abs)).as_analytic(0.0)
    S = (A @ A.adjoint()).trim(0.0)
    return Instance(secret_factor=A, spectrum=S, seed=int(seed), params=(m, k, N))


def gen_lossless(m: int, N: int, seed: int) -> LosslessInstance:
    """Random length-N paraunitary matrix and its first row.

    Builds Q0 V1(z) ... VN(z) from a random constant unitary and N
    elementary degree-one factors, so the determinant is a degree-N
    monomial by construction.  The extracted first row generically carries
    the full order N; on the rare draw whose leading coefficients cancel,
    the instance is redrawn (up to 16 times) and finally shipped at the
    row's actual order, with the row trimmed to make that order explicit.
    """
    if m < 1:
        raise ValueError("size must be at least 1")
    if N < 0:
        raise ValueError("order must be nonnegative")
    gen = np.random.default_rng(seed)
    U = None
    for _ in range(17):
        M = LaurentMatrix.constant(_haar_unitary(m, gen))
        for _ in range(N):
            v = gen.standard_normal(m) + 1j * gen.standard_normal(m)
            M = (M @ elementary_factor(v)).trim(0.0)
        U = M.as_analytic(0.0)
        top = max(abs(U.entry(0, j).coeff(N)) for j in range(m))
        if top > _TOP_COEFF_CUT * max(U.max_abs, 1e-300):
            row = LosslessRow([U.entry(0, j) for j in range(m)], N)
            return LosslessInstance(
                secret_paraunitary=U, row=row, seed=int(seed), params=(m, N)
            )
    entries = [U.entry(0, j).trim(_TOP_COEFF_CUT) for j in range(m)]
    row = LosslessRow(entries)
    return LosslessInstance(
        secret_paraunitary=U, row=row, seed=int(seed), params=(m, N)
    )
