"""Completion of a unit-norm analytic row to a square paraunitary matrix.

A matrix polynomial U(z) is paraunitary when U(z) U~(z) = I, which makes
U(z) a unitary matrix at every point of the unit circle.  Any analytic row
of unit norm on the circle is the first row of such a U of the same length
N and with monomial determinant c z^N: the remaining rows are the
transposed spectral factor of the rank-(m-1) deficiency spectrum
I - row^T (row^T)~, and that factor's uniqueness up to a constant right
unitary is exactly the completion's uniqueness up to a constant unitary
mixing of the added rows.  The completion gets that factor by peeling the row
into N factors I - v v^H + z v v^H (Doganata, Vaidyanathan and Nguyen, 1988).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidComparisonError, NotParaunitaryError, NumericalFailureError
from .fullrank import _FINAL_POLISH, _conv_coeffs, canonicalize, polish_coefficients
from .laurent import LaurentMatrix, LaurentPoly, _order_grid_count
from .rankdef import Check, RankDefOptions, compare_factors


@dataclass(frozen=True)
class LosslessRow:
    """An analytic row vector of declared length N.

    entries are analytic Laurent polynomials of order at most N, and the
    coefficient vector at power N must not vanish entirely: the declared
    length is part of the analytic data (the determinant of the completed
    matrix is c z^N), so a row whose entries all stop short of N is
    rejected rather than silently reinterpreted at a smaller length.

    The unit-norm property sum_j u_j u_j~ = 1 is checked by
    check_unit_norm_row and by the operations that require it, not here:
    a LosslessRow is a shape-valid candidate, not yet a certified one.
    """

    entries: tuple
    length: int

    def __init__(self, entries, length: Optional[int] = None):
        entries = tuple(
            e if isinstance(e, LaurentPoly) else LaurentPoly.constant(e)
            for e in entries
        )
        if all(e.is_zero for e in entries):
            raise ValueError("a lossless row needs at least one nonzero entry")
        hi = max(e.hi for e in entries if not e.is_zero)
        if length is None:
            length = hi
        if length < 0:
            raise ValueError("length must be nonnegative")
        for e in entries:
            if not e.is_zero and e.lo < 0:
                raise ValueError("row entries must be analytic")
            if not e.is_zero and e.hi > length:
                raise ValueError(
                    "row entry order %d exceeds the declared length %d"
                    % (e.hi, length)
                )
        if all(abs(e.coeff(length)) == 0.0 for e in entries):
            raise ValueError(
                "declared length %d exceeds the row's actual order %d"
                % (length, hi)
            )
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "length", int(length))

    @property
    def width(self) -> int:
        return len(self.entries)

    def as_matrix(self) -> LaurentMatrix:
        """The row as a 1 x m Laurent matrix."""
        return LaurentMatrix.from_entries([list(self.entries)])


@dataclass
class ParaunitaryReport:
    """Verification outcome for a square matrix offered as paraunitary.

    deviation is the worst of the coefficientwise U U~ - I residual and the
    sampled unitarity defect; degree is the surviving power k of the
    monomial determinant c z^k and det_phase its raw leading coefficient
    (|c| = 1 when the matrix verifies; the phase itself is meaningful and
    never normalized away); length is the largest power carried by U.
    """

    is_paraunitary: bool
    deviation: float
    degree: Optional[int] = None
    det_phase: Optional[complex] = None
    length: int = 0
    verdicts: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.verdicts.values())

    def failures(self) -> str:
        """The failing verdicts with their measured values, for messages."""
        return ", ".join(
            "%s %.3e" % (name, c.measured)
            for name, c in self.verdicts.items()
            if not c.passed
        )


def check_unit_norm_row(row: LosslessRow, tol: float = 1e-9) -> bool:
    """Whether the row has unit norm identically on the unit circle.

    True iff the Laurent polynomial sum_j u_j u_j~ - 1, formed as the
    1 x 1 product h h~ of the row h, has every coefficient at most tol in
    magnitude.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    h = row.as_matrix()
    return (h @ h.adjoint() - LaurentMatrix.identity(1)).max_abs <= tol


def deficiency_matrix(row: LosslessRow, tol: float = 1e-9) -> LaurentMatrix:
    """The spectrum I - row^T (row^T)~ left uncovered by a unit-norm row.

    At every circle point this is the projector complement I - v v^H for
    the unit vector v = row(z)^T: nonnegative definite with eigenvalues in
    [0, 1] and exactly one zero eigenvalue, hence rank m - 1.  Raises
    ValueError when the row is not unit-norm within tol, since the
    projector structure is what the downstream factorization relies on.
    """
    if not check_unit_norm_row(row, tol):
        raise ValueError("row is not unit-norm on the circle within %g" % tol)
    col = row.as_matrix().transpose()
    m = row.width
    return (LaurentMatrix.identity(m) - col @ col.adjoint()).trim(0.0)


def verify_paraunitary(U: LaurentMatrix, tol: float = 1e-9) -> ParaunitaryReport:
    """Check a square Laurent matrix for paraunitarity and a monomial det.

    Verifies U U~ = I coefficientwise, unitarity of the evaluations on a
    unit-circle grid, and that det U is a single monomial c z^k.  Nothing
    raises beyond shape validation; every measurement lands in the report's
    verdicts.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if U.rows != U.cols:
        raise ValueError("paraunitary verification needs a square matrix")
    m = U.rows
    verdicts = {}

    gram = U @ U.adjoint() - LaurentMatrix.identity(m)
    coeff_dev = gram.max_abs
    verdicts["coefficient_identity"] = Check(coeff_dev <= tol, coeff_dev, tol)

    span = (U.hi or 0) - (U.lo or 0)
    G = U.eval_unit_grid(_order_grid_count(span))
    grid_dev = float(np.max(np.abs(G @ G.conj().transpose(0, 2, 1) - np.eye(m))))
    verdicts["grid_unitarity"] = Check(grid_dev <= tol, grid_dev, tol)

    det = U.det()
    degree = None
    det_phase = None
    det_ok = False
    side_mass = np.inf
    if not det.is_zero:
        degree = max(range(det.lo, det.hi + 1), key=lambda n: abs(det.coeff(n)))
        det_phase = det.coeff(degree)
        side_mass = max(
            (abs(det.coeff(n)) for n in range(det.lo, det.hi + 1) if n != degree),
            default=0.0,
        ) / abs(det_phase)
        det_ok = side_mass <= tol
    verdicts["det_monomial"] = Check(det_ok, side_mass, tol)

    trimmed = U.trim(1e-12)
    length = trimmed.hi or 0
    return ParaunitaryReport(
        is_paraunitary=bool(coeff_dev <= tol and grid_dev <= tol and det_ok),
        deviation=float(max(coeff_dev, grid_dev)),
        degree=degree,
        det_phase=det_phase,
        length=int(length),
        verdicts=verdicts,
    )


def paraunitary_degree(U: LaurentMatrix, tol: float = 1e-9) -> int:
    """The determinant power k of a paraunitary matrix, with k >= length.

    For a paraunitary matrix polynomial of length N the determinant is a
    monomial c z^k with k >= N (k can exceed N only for special
    coefficient alignments; completions built here always have k = N).
    Raises NotParaunitaryError when the matrix fails verification or the
    degree bound, since both are consequences of genuine paraunitarity.
    """
    report = verify_paraunitary(U, tol)
    if not report.is_paraunitary or report.degree is None:
        raise NotParaunitaryError(
            "matrix is not paraunitary within %g: %s" % (tol, report.failures())
        )
    if report.degree < report.length:
        raise NotParaunitaryError(
            "determinant power %d falls below the matrix length %d"
            % (report.degree, report.length)
        )
    return int(report.degree)


def _peel_completion(H: np.ndarray) -> np.ndarray:
    """Transposed lower rows (N+1, m, m-1) completing the unit-norm row H (N+1, m).

    Step d = N..1 writes h = h' V with V = I - P + z P, P = h_d^H h_d / ||h_d||^2.
    Unit norm makes h_0 h_d^H vanish, so h' = h V~ has order d - 1 and top norm^2
    ||h_{d-1} (I - P)||^2 + ||h_d||^2.  Returns h^(0)'s complement times V_1 ... V_N.
    """
    peeled = []
    for d in range(len(H) - 1, 0, -1):
        norm = np.linalg.norm(H[d])
        if not 0 < norm < np.inf:
            raise NumericalFailureError("peel step d = %d: ||h_d|| = %.3e" % (d, norm))
        P = np.outer(H[d].conj() / norm, H[d] / norm)
        H = H[:d] - H[:d] @ P + H[1 : d + 1] @ P
        peeled.append(P)
    A = np.linalg.svd(H[0][None])[2][None, 1:]
    for P in reversed(peeled):
        AP = A @ P
        A = np.concatenate([A - AP, AP[-1:]])
        A[1:-1] += AP[:-1]
    return np.swapaxes(A, 1, 2)


def complete_to_paraunitary(
    row: LosslessRow, opts: RankDefOptions | None = None
):
    """Extend a unit-norm analytic row to a square paraunitary matrix.

    Returns (U, report): U is m x m analytic of length N with its first
    row equal to the input row coefficient for coefficient, U U~ = I
    within tol, and det U = c z^N with |c| = 1.  The added rows are the peeled
    ones, polished to _FINAL_POLISH against I - row^T (row^T)~ (a peel
    already at that target takes no step) and canonicalized: its canonical
    factor, transposed, unique up to a constant unitary mixing of rows 2..m.
    For m = 1 the row is its own completion.  Only opts.tol is read.

    Raises ValueError when the row is not unit-norm and NumericalFailureError
    when the peel breaks down or U is not paraunitary of degree N.
    """
    opts = opts or RankDefOptions()
    if not check_unit_norm_row(row, max(opts.tol, 1e-10)):
        raise ValueError("row is not unit-norm on the circle")
    m = row.width
    blocks = [row.as_matrix()]
    if m > 1:
        H = blocks[0].coeff_array(0, row.length)[:, 0]
        C = -_conv_coeffs(H[:, :, None])
        C[0] += np.eye(m)
        A, _ = polish_coefficients(C, _peel_completion(H), _FINAL_POLISH)
        lower = canonicalize(LaurentMatrix.from_coeffs(A))
        blocks.append(lower.transpose())
    U = LaurentMatrix.vstack(blocks).as_analytic(0.0)
    report = verify_paraunitary(U, opts.tol)
    if report.degree != row.length:
        raise NumericalFailureError(
            "completed determinant has degree %s instead of %d"
            % (report.degree, row.length),
            report=report,
        )
    if not report.is_paraunitary:
        raise NumericalFailureError(
            "completion failed paraunitarity at %g: %s" % (opts.tol, report.failures()),
            report=report,
        )
    return U, report


def compare_completions(
    U1: LaurentMatrix, U2: LaurentMatrix, tol: float = 1e-9
) -> Optional[np.ndarray]:
    """Constant unitary V with U2 = diag(1, V) U1, or None if there is none.

    Both inputs must be completions of the same first row; the lower blocks
    are compared as spectral factors of the shared deficiency spectrum (the
    mixing acts on the transposed blocks from the right).  Raises
    InvalidComparisonError when the first rows disagree beyond tol.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if U1.shape != U2.shape or U1.rows != U1.cols:
        raise ValueError("completions must be square matrices of one shape")
    m = U1.rows
    top1 = U1.submatrix([0], range(m))
    top2 = U2.submatrix([0], range(m))
    row_dev = (top1 - top2).max_abs
    row_scale = max(top1.max_abs, 1e-300)
    if row_dev > tol * max(1.0, row_scale):
        raise InvalidComparisonError(
            "first rows differ by %.3e beyond tolerance %g" % (row_dev, tol)
        )
    if m == 1:
        return np.zeros((0, 0), dtype=complex)
    lower1 = U1.submatrix(range(1, m), range(m)).transpose()
    lower2 = U2.submatrix(range(1, m), range(m)).transpose()
    W = compare_factors(lower1, lower2, RankDefOptions(tol=tol))
    if W is None:
        return None
    return W.T.copy()
