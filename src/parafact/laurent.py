"""Laurent polynomial scalars and matrices with complex coefficients.

A Laurent polynomial is a finite sum ``sum_n c_n z^n`` with integer powers of
either sign.  A scalar ``LaurentPoly`` and a ``LaurentMatrix`` keep one store:
the lowest power lo and a dense array of the coefficients from lo up, of
shape (span + 1,) for a scalar and (span + 1, rows, cols) for a matrix, with
all-zero coefficients stripped from both ends, so the reported span is the
support.  Every power between the ends is stored, so far-apart powers cost
memory.  A base class holds the store and every method that does not depend
on the coefficient shape; ``from_coeffs`` and ``coeff_array`` move whole
coefficient arrays in and out.  Values on the unit circle
``z = e^(i theta)`` are the objects of interest: the adjoint ``F~`` defined
by ``F~(z) = F(1/conj(z))^H`` coincides with the pointwise conjugate
transpose there.

Objects are immutable after construction: arithmetic returns new instances
and coefficient arrays are exposed read-only.  Matrix operations are slices
and batched products of the coefficient array; they never go through the
scalar entries.  Scalar products, evaluation and magnitudes round as Python
complex arithmetic does, coefficient by coefficient in ascending powers.
"""

from __future__ import annotations

import math
from types import MappingProxyType

import numpy as np

__all__ = [
    "LaurentPoly",
    "LaurentMatrix",
    "AnalyticPolyMatrix",
    "laurent_from_unit_samples",
]


# The store is dense over the power span, so a few far-apart powers could
# ask for any memory; a dict of terms may span at most 2^24 coefficients
# (256 MiB), far above the k N powers of any factor the library builds.
_MAX_DENSE_COEFFS = 2**24


def _check_dense_span(span: int, shape) -> None:
    """Raise ValueError, naming the span, when a dense store of powers lo..lo+span
    of coefficients of the given shape would pass _MAX_DENSE_COEFFS."""
    if (span + 1) * math.prod(shape) > _MAX_DENSE_COEFFS:
        what = "a %d x %d matrix" % shape if shape else "a scalar"
        raise ValueError(
            "power span %d of %s needs more than %d coefficients"
            % (span, what, _MAX_DENSE_COEFFS)
        )


def _next_pow2(n: int) -> int:
    m = 1
    while m < n:
        m *= 2
    return m


def _order_grid_count(order: int) -> int:
    """Unit-circle grid size that resolves powers -order..order.

    The next power of two from 2 * order + 1 points, and never below 64.
    """
    return _next_pow2(max(2 * order + 1, 64))


def _interp_count(span: int) -> int:
    """The smallest power of two >= span + 1 and >= 8: a grid that interpolates span + 1 powers."""
    return max(8, _next_pow2(span + 1))


def _grid_values(C: np.ndarray, lo: int, count: int) -> np.ndarray:
    """Values at e^(2 pi i j / count) of the coefficient array C of powers lo..

    Exact at the grid points: powers are folded modulo count, in ascending
    order, before an inverse FFT along the grid axis.
    """
    folded = np.zeros((count,) + C.shape[1:], dtype=complex)
    for start in range(0, len(C), count):
        chunk = C[start : start + count]
        s = (lo + start) % count
        head = min(count - s, len(chunk))
        folded[s : s + head] += chunk[:head]
        folded[: len(chunk) - head] += chunk[head:]
    return np.fft.ifft(folded, axis=0) * count


def _cmul(x: np.ndarray, w) -> np.ndarray:
    """x * w rounded as scalar complex arithmetic rounds it.

    w is a complex scalar or an array that broadcasts onto x.  numpy's
    vectorized complex product may fuse a multiply and an add (it does on
    x86 with FMA), which rounds differently from the same product taken
    entry by entry.  Forming the real and imaginary parts apart keeps every
    entry equal in every bit to the Python complex product, for the
    LaurentPoly product and for the array recurrences of roots alike.
    """
    out = np.empty(x.shape, dtype=complex)
    out.real = x.real * w.real - x.imag * w.imag
    out.imag = x.real * w.imag + x.imag * w.real
    return out


def _support(objs):
    """(lo, hi) covering every nonzero object of objs; (0, -1) when all are zero."""
    live = [M for M in objs if not M.is_zero]
    if not live:
        return 0, -1
    return min(M.lo for M in live), max(M.hi for M in live)


class _Laurent:
    """The coefficient store and the shape-agnostic methods of both classes.

    _LAYOUT names the axes of the coefficient array, powers first; _family
    is the class that arithmetic results belong to.
    """

    __slots__ = ("_lo", "_coeffs")

    def _store(self, C: np.ndarray, lo: int) -> None:
        """Keep the fresh C-contiguous array C of powers lo.. without its zero ends."""
        inner = tuple(range(1, C.ndim))
        finite = np.isfinite(C)
        if not finite.all():
            bad = int(np.argmin(finite.all(axis=inner)))
            raise ValueError("non-finite coefficient at power %d" % (lo + bad))
        live = (C.any(axis=inner) if inner else C).nonzero()[0]
        if live.size:
            C, lo = C[live[0] : live[-1] + 1], lo + int(live[0])
        else:
            C, lo = C[:0], 0
        C.setflags(write=False)
        self._lo = lo
        self._coeffs = C

    def _store_terms(self, terms, shape) -> None:
        """Keep a dict mapping each power to a coefficient of the given shape,
        within the bound of _check_dense_span."""
        terms = {int(n): np.asarray(c, dtype=complex) for n, c in (terms or {}).items()}
        lo = min(terms, default=0)
        span = max(terms, default=lo - 1) - lo
        _check_dense_span(span, shape)
        C = np.zeros((span + 1,) + shape, dtype=complex)
        for n, c in terms.items():
            if c.shape != shape:
                raise ValueError(
                    "coefficient at power %d has shape %r, expected %r" % (n, c.shape, shape)
                )
            C[n - lo] = c
        self._store(C, lo)

    @classmethod
    def from_coeffs(cls, coeffs, lo: int = 0):
        """Build from a coefficient array for powers lo, lo+1, ... along axis 0."""
        C = np.array(coeffs, dtype=complex, order="C")
        if C.ndim != len(cls._LAYOUT):
            raise ValueError("coefficients must form a (%s) array" % ", ".join(cls._LAYOUT))
        M = object.__new__(cls)
        M._store(C, int(lo))
        return M

    @classmethod
    def constant(cls, c):
        """The constant c: a number for a scalar, a 2-d array for a matrix."""
        return cls.from_coeffs(np.asarray(c)[None])

    # -- basic queries ---------------------------------------------------

    @property
    def shape(self):
        return self._coeffs.shape[1:]

    @property
    def terms(self):
        """Read-only mapping of each power with a nonzero coefficient to it."""
        live = np.flatnonzero(self._coeffs.any(axis=tuple(range(1, self._coeffs.ndim))))
        return MappingProxyType({n: self.coeff(n) for n in (self._lo + live).tolist()})

    @property
    def is_zero(self) -> bool:
        return not len(self._coeffs)

    @property
    def lo(self):
        return None if self.is_zero else self._lo

    @property
    def hi(self):
        return None if self.is_zero else self._lo + len(self._coeffs) - 1

    order = hi

    @property
    def span(self) -> int:
        return max(len(self._coeffs) - 1, 0)

    def coeff(self, n: int):
        """Coefficient of z^n: a complex for a scalar, a read-only array for a matrix."""
        i = int(n) - self._lo
        if 0 <= i < len(self._coeffs):
            c = self._coeffs[i]
        else:
            c = np.zeros(self.shape, dtype=complex)
        return c if self.shape else complex(c)

    def coeff_array(self, lo: int, hi: int) -> np.ndarray:
        """Coefficients for powers lo..hi inclusive, a zero-padded copy."""
        out = np.zeros((hi - lo + 1,) + self.shape, dtype=complex)
        a = max(lo, self._lo)
        b = min(hi, self._lo + len(self._coeffs) - 1)
        if a <= b:
            out[a - lo : b - lo + 1] = self._coeffs[a - self._lo : b - self._lo + 1]
        return out

    def _magnitudes(self) -> np.ndarray:
        return np.abs(self._coeffs)

    @property
    def max_abs(self) -> float:
        return float(self._magnitudes().max()) if len(self._coeffs) else 0.0

    # -- arithmetic ------------------------------------------------------

    def _operand(self, other):
        """other when it is of this family, else NotImplemented."""
        return other if isinstance(other, self._family) else NotImplemented

    def __add__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError("shape mismatch: %r vs %r" % (self.shape, other.shape))
        lo, hi = _support((self, other))
        return self._family.from_coeffs(
            self.coeff_array(lo, hi) + other.coeff_array(lo, hi), lo
        )

    __radd__ = __add__

    def __neg__(self):
        return self._family.from_coeffs(-self._coeffs, self._lo)

    def __sub__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def shifted(self, k: int):
        """Multiply by z^k (shift all powers by k)."""
        return self._family.from_coeffs(self._coeffs, self._lo + k)

    def adjoint(self):
        """Adjoint F~ with coefficients (F~)_n = (F_{-n})^H, conj(f_{-n}) for a scalar."""
        axes = (0,) + tuple(range(self._coeffs.ndim - 1, 0, -1))
        C = self._coeffs[::-1].conj().transpose(axes)
        return self._family.from_coeffs(C, 1 - self._lo - len(self._coeffs))

    def derivative(self):
        """Formal derivative d/dz, n c_n z^(n-1) coefficientwise."""
        n = np.arange(self._lo, self._lo + len(self._coeffs))
        n = n.reshape((-1,) + (1,) * len(self.shape))
        return self._family.from_coeffs(self._coeffs * n, self._lo - 1)

    # -- evaluation ------------------------------------------------------

    def eval_unit_grid(self, count: int) -> np.ndarray:
        """Stacked values (count,) + shape at e^(2 pi i j / count), exact at
        the grid points (_grid_values)."""
        if count < 1:
            raise ValueError("count must be >= 1")
        return _grid_values(self._coeffs, self._lo, count)

    # -- structure checks ------------------------------------------------

    def trim(self, tol: float = 0.0):
        """Drop coefficients whose largest magnitude is <= tol times the global one."""
        if self.is_zero:
            return self
        C = self._coeffs
        peaks = self._magnitudes().reshape(len(C), -1).max(axis=1)
        keep = (peaks > tol * peaks.max()).reshape((-1,) + (1,) * len(self.shape))
        return self._family.from_coeffs(np.where(keep, C, 0), self._lo)

    def is_parahermitian(self, tol: float = 0.0) -> bool:
        """True when F~ = F within tol relative to the largest coefficient entry.

        A non-square matrix is not para-Hermitian; a scalar is square.
        """
        if self.shape != self.shape[::-1]:
            return False
        return (self - self.adjoint()).max_abs <= tol * self.max_abs

    # -- dunder plumbing ---------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, _Laurent):
            return NotImplemented
        return (
            self.shape == other.shape
            and self._lo == other._lo
            and np.array_equal(self._coeffs, other._coeffs)
        )

    __hash__ = None


class LaurentPoly(_Laurent):
    """Scalar Laurent polynomial ``sum_n c_n z^n``.

    Parameters
    ----------
    terms : dict, optional
        Mapping of integer power to complex coefficient.  Non-finite
        coefficients are rejected.
    """

    __slots__ = ()
    _LAYOUT = ("count",)

    def __init__(self, terms=None):
        self._store_terms(terms, ())

    def _store(self, C, lo):
        # An exact zero is an absent term: it reads as 0j, whatever its signs.
        C[C == 0] = 0
        super()._store(C, lo)

    def _magnitudes(self):
        # hypot rounds as Python's complex abs; numpy's complex abs may not.
        return np.hypot(self._coeffs.real, self._coeffs.imag)

    @staticmethod
    def _operand(other):
        """other as a LaurentPoly when it is one or a number, else NotImplemented."""
        if isinstance(other, (int, float, complex, np.number)):
            other = LaurentPoly.constant(other)
        return other if isinstance(other, LaurentPoly) else NotImplemented

    # -- construction helpers -------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls.constant(1.0)

    @classmethod
    def monomial(cls, c, power: int) -> "LaurentPoly":
        return cls.from_coeffs([c], power)

    # -- arithmetic ------------------------------------------------------

    def __mul__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        A, B = self._coeffs, other._coeffs
        if not len(A) or not len(B):
            return LaurentPoly()
        # Each power sums its terms a_i b_j from zero in ascending i, as the
        # scalar loop over both supports does.  The loop runs over the
        # shorter operand, so time and memory stay linear in the longer one.
        out = np.zeros(len(A) + len(B) - 1, dtype=complex)
        if len(B) <= len(A):
            for j in range(len(B) - 1, -1, -1):
                out[j : j + len(A)] += _cmul(A, B[j])
        else:
            for i in range(len(A)):
                out[i : i + len(B)] += _cmul(B, A[i])
        return LaurentPoly.from_coeffs(out, self._lo + other._lo)

    __rmul__ = __mul__

    # Bound in the class itself, where per-method tracers look methods up.
    derivative = _Laurent.derivative

    # -- evaluation ------------------------------------------------------

    def eval(self, z) -> complex:
        """Evaluate at a point, Horner over the analytic and principal parts."""
        z = complex(z)
        if self.is_zero:
            return 0j
        lo, hi = self._lo, self.hi
        if lo < 0 and z == 0:
            raise ZeroDivisionError("negative powers evaluated at z = 0")
        # The coefficients of powers min(lo, 0)..max(hi, 0).
        c = [0j] * lo + self._coeffs.tolist() + [0j] * -hi
        lo = min(lo, 0)
        acc = 0j
        for x in reversed(c[-lo:]):
            acc = acc * z + x
        if lo < 0:
            w = 1.0 / z
            neg = 0j
            for x in c[:-lo]:
                neg = neg * w + x
            acc += neg * w
        return acc

    def __repr__(self):
        if self.is_zero:
            return "LaurentPoly(0)"
        bits = ["%r*z^%d" % (c, n) for n, c in self.terms.items()]
        return "LaurentPoly(%s)" % " + ".join(bits)


class LaurentMatrix(_Laurent):
    """Matrix Laurent polynomial ``sum_n C_n z^n`` with C_n complex matrices.

    The coefficients C_lo..C_hi are one read-only, C-contiguous complex
    array of shape (span + 1, rows, cols).  All-zero coefficient matrices at
    either end are stripped on construction, so lo and hi are the ends of
    the support; an all-zero power between them stays in the array but is
    not listed in ``terms``.
    """

    __slots__ = ()
    _LAYOUT = ("count", "rows", "cols")

    def __init__(self, rows: int, cols: int, terms=None):
        rows, cols = int(rows), int(cols)
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self._store_terms(terms, (rows, cols))

    # -- construction helpers -------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "LaurentMatrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, m: int) -> "LaurentMatrix":
        return cls.from_coeffs(np.eye(m, dtype=complex)[None])

    @classmethod
    def from_entries(cls, grid) -> "LaurentMatrix":
        """Build from a nested list of LaurentPoly / scalar entries."""
        rows = len(grid)
        cols = len(grid[0]) if rows else 0
        if any(len(r) != cols for r in grid):
            raise ValueError("ragged entry grid")
        polys = [
            e if isinstance(e, LaurentPoly) else LaurentPoly.constant(e)
            for r in grid
            for e in r
        ]
        lo, hi = _support(polys)
        C = np.zeros((hi - lo + 1, rows * cols), dtype=complex)
        for j, p in enumerate(polys):
            C[p._lo - lo : p._lo - lo + len(p._coeffs), j] = p._coeffs
        return cls.from_coeffs(C.reshape(len(C), rows, cols), lo)

    @classmethod
    def diagonal(cls, entries) -> "LaurentMatrix":
        m = len(entries)
        return cls.from_entries(
            [[entries[i] if i == j else 0 for j in range(m)] for i in range(m)]
        )

    @staticmethod
    def vstack(blocks) -> "LaurentMatrix":
        return LaurentMatrix._concat(blocks, 0)

    @staticmethod
    def hstack(blocks) -> "LaurentMatrix":
        return LaurentMatrix._concat(blocks, 1)

    @staticmethod
    def _concat(blocks, axis: int) -> "LaurentMatrix":
        """Blocks stacked along rows (axis 0) or columns (axis 1)."""
        blocks = [b for b in blocks if b.shape[axis] > 0]
        if not blocks:
            raise ValueError("nothing to stack")
        if len({b.shape[1 - axis] for b in blocks}) > 1:
            raise ValueError("%s counts differ" % ("column", "row")[axis])
        lo, hi = _support(blocks)
        C = np.concatenate([b.coeff_array(lo, hi) for b in blocks], axis=axis + 1)
        return LaurentMatrix.from_coeffs(C, lo)

    # -- basic queries ---------------------------------------------------

    @property
    def rows(self) -> int:
        return self._coeffs.shape[1]

    @property
    def cols(self) -> int:
        return self._coeffs.shape[2]

    def entry(self, i: int, j: int) -> LaurentPoly:
        return LaurentPoly.from_coeffs(self._coeffs[:, i, j], self._lo)

    def submatrix(self, row_idx, col_idx) -> "LaurentMatrix":
        index = np.ix_(np.asarray(row_idx, dtype=int), np.asarray(col_idx, dtype=int))
        return LaurentMatrix.from_coeffs(self._coeffs[(slice(None),) + index], self._lo)

    def permuted(self, perm) -> "LaurentMatrix":
        """Symmetric relabeling P F P^T for a permutation of indices."""
        if self.rows != self.cols:
            raise ValueError("symmetric permutation needs a square matrix")
        return self.submatrix(perm, perm)

    # -- arithmetic ------------------------------------------------------

    def __mul__(self, other):
        """Scale by a complex scalar or a scalar Laurent polynomial."""
        p = LaurentPoly._operand(other)
        if p is NotImplemented:
            return NotImplemented
        C = self._coeffs
        out = np.zeros((len(C) + p.span,) + self.shape, dtype=complex)
        for m, c in enumerate(p._coeffs.tolist()):
            out[m : m + len(C)] += c * C
        return LaurentMatrix.from_coeffs(out, self._lo + p._lo)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                "dimension mismatch: %r @ %r" % (self.shape, other.shape)
            )
        A, B = self._coeffs, other._coeffs
        if not len(A) or not len(B):
            return LaurentMatrix(self.rows, other.cols)
        # One batched product per left power, summed in ascending powers.
        out = np.zeros((len(A) + len(B) - 1, self.rows, other.cols), dtype=complex)
        for i, An in enumerate(A):
            out[i : i + len(B)] += An @ B
        return LaurentMatrix.from_coeffs(out, self._lo + other._lo)

    def transpose(self) -> "LaurentMatrix":
        """Plain transpose F^T, coefficientwise and without conjugation."""
        return LaurentMatrix.from_coeffs(self._coeffs.transpose(0, 2, 1), self._lo)

    # -- evaluation ------------------------------------------------------

    def eval(self, z) -> np.ndarray:
        """F at the point z, or at every point of an array z.

        Returns a (rows, cols) array for a scalar z and a
        z.shape + (rows, cols) array otherwise.  Horner's rule runs over the
        powers max(hi, 0)..0 for all points at once; each negative power n
        adds C_n (1/z)^(-n), with 1/z and its power taken in Python complex
        arithmetic point by point.  Raises ZeroDivisionError when F has
        negative powers and a point is 0.

        One point takes the Horner product in place and many points out of
        place.  numpy runs different loops for the two, and they round
        differently when F is 1 x 1, where every point is one element; for
        larger F both round each point alike, so a point of an array gets
        exactly the value it gets alone.
        """
        z = np.asarray(z, dtype=complex)
        acc = np.zeros(z.shape + self.shape, dtype=complex)
        if self.is_zero:
            return acc
        C, lo, hi = self._coeffs, self._lo, self.hi
        if lo < 0 and np.any(z == 0):
            raise ZeroDivisionError("negative powers evaluated at z = 0")
        zz = z[..., None, None] if z.ndim else complex(z)
        for n in range(max(hi, 0), -1, -1):
            if z.ndim:
                acc = acc * zz
            else:
                acc *= zz
            if lo <= n <= hi:
                acc = acc + C[n - lo]
        if lo < 0:
            w = [1.0 / complex(x) for x in z.flat]
            for n in range(lo, min(hi + 1, 0)):
                acc = acc + C[n - lo] * np.reshape([x ** (-n) for x in w], np.shape(zz))
        return acc

    # Bound in the class itself, where per-method tracers look methods up.
    eval_unit_grid = _Laurent.eval_unit_grid

    # -- structure checks ------------------------------------------------

    def as_analytic(self, tol: float = 0.0) -> "AnalyticPolyMatrix":
        """Reinterpret as an analytic polynomial matrix.

        Negative powers must carry no more than tol times the global
        max-abs coefficient; they are dropped.
        """
        cut = tol * self.max_abs
        neg = self._coeffs[: max(-self._lo, 0)]
        if neg.size:
            over = np.flatnonzero(np.abs(neg).max(axis=(1, 2)) > cut)
            if over.size:
                raise ValueError(
                    "negative power %d has magnitude above tolerance" % (self._lo + over[0])
                )
        return AnalyticPolyMatrix.from_coeffs(self._coeffs[len(neg) :], self._lo + len(neg))

    def det(self) -> LaurentPoly:
        """Determinant as a Laurent polynomial, by FFT interpolation.

        Samples the matrix on the _interp_count grid of the determinant's
        support window [k*lo, k*hi] and recovers coefficients with a
        forward FFT.
        """
        if self.rows != self.cols:
            raise ValueError("determinant needs a square matrix")
        k = self.rows
        if k == 0:
            return LaurentPoly.one()
        if self.is_zero:
            return LaurentPoly.zero()
        wlo, whi = k * self.lo, k * self.hi
        samples = self.eval_unit_grid(_interp_count(whi - wlo))
        values = np.linalg.det(samples)
        return laurent_from_unit_samples(values, wlo, whi)

    def __repr__(self):
        return "LaurentMatrix(%dx%d, powers=%r)" % (self.rows, self.cols, sorted(self.terms))


LaurentPoly._family = LaurentPoly
LaurentMatrix._family = LaurentMatrix


class AnalyticPolyMatrix(LaurentMatrix):
    """Laurent matrix constrained to nonnegative powers."""

    __slots__ = ()

    def _store(self, C, lo):
        super()._store(C, lo)
        if not self.is_zero and self._lo < 0:
            raise ValueError("analytic polynomial matrix has negative powers")


def laurent_from_unit_samples(values, lo: int, hi: int) -> LaurentPoly:
    """Recover a scalar Laurent polynomial from uniform unit-circle samples.

    The support must lie within powers lo..hi and the grid must have at
    least hi - lo + 1 points; powers are read off modulo the grid size.
    """
    values = np.asarray(values, dtype=complex)
    count = values.shape[0]
    if hi - lo + 1 > count:
        raise ValueError("grid too small for the requested power window")
    spec = np.fft.fft(values) / count
    return LaurentPoly.from_coeffs(spec[np.arange(lo, hi + 1) % count], lo)
