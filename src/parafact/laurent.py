"""Laurent polynomial scalars and matrices with complex coefficients.

A Laurent polynomial is a finite sum ``sum_n c_n z^n`` with integer powers of
either sign.  A scalar ``LaurentPoly`` keeps its coefficients in a dict keyed
by power, without exact zeros.  A ``LaurentMatrix`` keeps the lowest power lo
and one dense (span + 1, rows, cols) array of the coefficient matrices from
lo up, with all-zero matrices stripped from both ends, so in both the
reported span is the support.  ``LaurentMatrix.from_coeffs`` and
``coeff_array`` move whole coefficient stacks in and out.  Values on the unit
circle ``z = e^(i theta)`` are the objects of interest: the adjoint ``F~``
defined by ``F~(z) = F(1/conj(z))^H`` coincides with the pointwise conjugate
transpose there.

Objects are immutable after construction: arithmetic returns new instances
and coefficient arrays are exposed read-only.  Matrix operations are slices
and batched products of the coefficient array; they never go through the
scalar entries.
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


class LaurentPoly:
    """Scalar Laurent polynomial ``sum_n c_n z^n``.

    Parameters
    ----------
    terms : dict, optional
        Mapping of integer power to complex coefficient.  Exact zeros are
        dropped; non-finite coefficients are rejected.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for n, c in terms.items():
                c = complex(c)
                if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                    raise ValueError("non-finite coefficient at power %d" % n)
                if c != 0:
                    data[int(n)] = c
        self._terms = data

    # -- construction helpers -------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1.0})

    @classmethod
    def constant(cls, c) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def monomial(cls, c, power: int) -> "LaurentPoly":
        return cls({power: c})

    @classmethod
    def from_coeffs(cls, coeffs, lo: int = 0) -> "LaurentPoly":
        """Build from a coefficient sequence for powers lo, lo+1, ..."""
        return cls({lo + i: c for i, c in enumerate(coeffs)})

    # -- basic queries ---------------------------------------------------

    @property
    def terms(self):
        return MappingProxyType(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def lo(self):
        return min(self._terms) if self._terms else None

    @property
    def hi(self):
        return max(self._terms) if self._terms else None

    @property
    def order(self):
        """Largest power with a nonzero coefficient; None for the zero polynomial."""
        return self.hi

    def coeff(self, n: int) -> complex:
        return self._terms.get(int(n), 0j)

    def coeff_array(self, lo: int, hi: int) -> np.ndarray:
        """Dense coefficients for powers lo..hi inclusive."""
        out = np.zeros(hi - lo + 1, dtype=complex)
        for n, c in self._terms.items():
            if lo <= n <= hi:
                out[n - lo] = c
        return out

    @property
    def max_abs(self) -> float:
        return max((abs(c) for c in self._terms.values()), default=0.0)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        data = dict(self._terms)
        for n, c in other._terms.items():
            data[n] = data.get(n, 0j) + c
        return LaurentPoly(data)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({n: -c for n, c in self._terms.items()})

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        data = {}
        for n, a in self._terms.items():
            for m, b in other._terms.items():
                k = n + m
                data[k] = data.get(k, 0j) + a * b
        return LaurentPoly(data)

    __rmul__ = __mul__

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by z^k (shift all powers by k)."""
        return LaurentPoly({n + k: c for n, c in self._terms.items()})

    def adjoint(self) -> "LaurentPoly":
        """Adjoint f~ with coefficients f~_n = conj(f_{-n})."""
        return LaurentPoly({-n: c.conjugate() for n, c in self._terms.items()})

    def derivative(self) -> "LaurentPoly":
        """Formal derivative d/dz."""
        return LaurentPoly({n - 1: n * c for n, c in self._terms.items() if n != 0})

    # -- evaluation ------------------------------------------------------

    def eval(self, z) -> complex:
        """Evaluate at a point, Horner over the analytic and principal parts."""
        z = complex(z)
        if not self._terms:
            return 0j
        lo, hi = self.lo, self.hi
        if lo < 0 and z == 0:
            raise ZeroDivisionError("negative powers evaluated at z = 0")
        acc = 0j
        for n in range(max(hi, 0), -1, -1):
            acc = acc * z + self._terms.get(n, 0j)
        if lo < 0:
            w = 1.0 / z
            neg = 0j
            for n in range(lo, 0):
                neg = neg * w + self._terms.get(n, 0j)
            acc += neg * w
        return acc

    def eval_unit_grid(self, count: int) -> np.ndarray:
        """Values at the count-point uniform grid e^(2 pi i j / count).

        Computed by folding coefficients modulo count and applying an
        inverse FFT, which is exact at these sample points.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        folded = np.zeros(count, dtype=complex)
        for n, c in self._terms.items():
            folded[n % count] += c
        return np.fft.ifft(folded) * count

    # -- structure checks --------------------------------------------------

    def trim(self, tol: float = 0.0) -> "LaurentPoly":
        """Drop coefficients of magnitude <= tol times the largest magnitude."""
        if not self._terms:
            return self
        cut = tol * self.max_abs
        return LaurentPoly({n: c for n, c in self._terms.items() if abs(c) > cut})

    def is_parahermitian(self, tol: float = 0.0) -> bool:
        """True when f~ = f within tol relative to the largest coefficient."""
        scale = self.max_abs
        dev = 0.0
        for n in set(self._terms) | {-n for n in self._terms}:
            dev = max(dev, abs(self.coeff(-n).conjugate() - self.coeff(n)))
        return dev <= tol * scale

    # -- dunder plumbing ---------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None

    def __repr__(self):
        if not self._terms:
            return "LaurentPoly(0)"
        bits = ["%r*z^%d" % (c, n) for n, c in sorted(self._terms.items())]
        return "LaurentPoly(%s)" % " + ".join(bits)


def _as_poly(x):
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, (int, float, complex, np.integer, np.floating, np.complexfloating)):
        return LaurentPoly({0: complex(x)})
    return NotImplemented


def _support(mats):
    """(lo, hi) covering every nonzero matrix of mats; (0, -1) when all are zero."""
    live = [M for M in mats if not M.is_zero]
    if not live:
        return 0, -1
    return min(M.lo for M in live), max(M.hi for M in live)


class LaurentMatrix:
    """Matrix Laurent polynomial ``sum_n C_n z^n`` with C_n complex matrices.

    The coefficients C_lo..C_hi are one read-only, C-contiguous complex
    array of shape (span + 1, rows, cols).  All-zero coefficient matrices at
    either end are stripped on construction, so lo and hi are the ends of
    the support; an all-zero power between them stays in the array but is
    not listed in ``terms``.
    """

    __slots__ = ("_lo", "_coeffs")

    def __init__(self, rows: int, cols: int, terms=None):
        rows, cols = int(rows), int(cols)
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if not terms:
            self._store(np.zeros((0, rows, cols), dtype=complex), 0)
            return
        # One stacked copy checks every shape at once; the per-power loop
        # only runs on bad input, to name the first offending power.
        try:
            stack = np.array(list(terms.values()), dtype=complex)
        except ValueError:
            stack = None
        if stack is None or stack.shape != (len(terms), rows, cols):
            for n, C in terms.items():
                C = np.asarray(C, dtype=complex)
                if C.shape != (rows, cols):
                    raise ValueError(
                        "coefficient at power %d has shape %r, expected %r"
                        % (n, C.shape, (rows, cols))
                    )
        powers = np.array([int(n) for n in terms])
        lo = int(powers.min())
        C = np.zeros((int(powers.max()) - lo + 1, rows, cols), dtype=complex)
        C[powers - lo] = stack
        self._store(C, lo)

    def _store(self, C: np.ndarray, lo: int) -> None:
        """Keep the fresh C-contiguous array C of powers lo.. without its zero ends."""
        finite = np.isfinite(C)
        if not finite.all():
            bad = int(np.argmin(finite.all(axis=(1, 2))))
            raise ValueError("non-finite coefficient at power %d" % (lo + bad))
        live = np.flatnonzero(C.any(axis=(1, 2)))
        if live.size:
            C, lo = C[live[0] : live[-1] + 1], lo + int(live[0])
        else:
            C, lo = C[:0], 0
        C.setflags(write=False)
        self._lo = lo
        self._coeffs = C

    # -- construction helpers -------------------------------------------

    @classmethod
    def from_coeffs(cls, coeffs, lo: int = 0) -> "LaurentMatrix":
        """Build from a (count, rows, cols) coefficient array for powers lo, lo+1, ..."""
        C = np.array(coeffs, dtype=complex, order="C")
        if C.ndim != 3:
            raise ValueError("coefficients must form a (count, rows, cols) array")
        M = object.__new__(cls)
        M._store(C, int(lo))
        return M

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "LaurentMatrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, m: int) -> "LaurentMatrix":
        return cls.from_coeffs(np.eye(m, dtype=complex)[None])

    @classmethod
    def constant(cls, C) -> "LaurentMatrix":
        C = np.asarray(C, dtype=complex)
        if C.ndim != 2:
            raise ValueError("constant coefficient must be a 2-d array")
        return cls.from_coeffs(C[None])

    @classmethod
    def from_entries(cls, grid) -> "LaurentMatrix":
        """Build from a nested list of LaurentPoly / scalar entries."""
        rows = len(grid)
        cols = len(grid[0]) if rows else 0
        powers, cells, values = [], [], []
        for i, r in enumerate(grid):
            if len(r) != cols:
                raise ValueError("ragged entry grid")
            for j, e in enumerate(r):
                terms = (e if isinstance(e, LaurentPoly) else LaurentPoly({0: e}))._terms
                powers.extend(terms)
                cells.extend([i * cols + j] * len(terms))
                values.extend(terms.values())
        if not powers:
            return cls(rows, cols)
        lo = min(powers)
        C = np.zeros((max(powers) - lo + 1, rows * cols), dtype=complex)
        C[np.array(powers) - lo, cells] = values
        return cls.from_coeffs(C.reshape(-1, rows, cols), lo)

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

    @property
    def shape(self):
        return self._coeffs.shape[1:]

    @property
    def terms(self):
        """Read-only mapping of each power with a nonzero coefficient to it."""
        live = np.flatnonzero(self._coeffs.any(axis=(1, 2)))
        return MappingProxyType({self._lo + int(i): self._coeffs[i] for i in live})

    @property
    def is_zero(self) -> bool:
        return not len(self._coeffs)

    @property
    def lo(self):
        return None if self.is_zero else self._lo

    @property
    def hi(self):
        return None if self.is_zero else self._lo + len(self._coeffs) - 1

    @property
    def order(self):
        """Largest power present; None for the zero matrix."""
        return self.hi

    @property
    def span(self) -> int:
        return max(len(self._coeffs) - 1, 0)

    def coeff(self, n: int) -> np.ndarray:
        i = int(n) - self._lo
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return np.zeros(self.shape, dtype=complex)

    def coeff_array(self, lo: int, hi: int) -> np.ndarray:
        """Coefficients for powers lo..hi inclusive, a zero-padded copy."""
        out = np.zeros((hi - lo + 1,) + self.shape, dtype=complex)
        a = max(lo, self._lo)
        b = min(hi, self._lo + len(self._coeffs) - 1)
        if a <= b:
            out[a - lo : b - lo + 1] = self._coeffs[a - self._lo : b - self._lo + 1]
        return out

    @property
    def max_abs(self) -> float:
        return float(np.abs(self._coeffs).max()) if len(self._coeffs) else 0.0

    def entry(self, i: int, j: int) -> LaurentPoly:
        return LaurentPoly.from_coeffs(self._coeffs[:, i, j].tolist(), self._lo)

    def submatrix(self, row_idx, col_idx) -> "LaurentMatrix":
        index = np.ix_(np.asarray(row_idx, dtype=int), np.asarray(col_idx, dtype=int))
        return LaurentMatrix.from_coeffs(self._coeffs[(slice(None),) + index], self._lo)

    def permuted(self, perm) -> "LaurentMatrix":
        """Symmetric relabeling P F P^T for a permutation of indices."""
        if self.rows != self.cols:
            raise ValueError("symmetric permutation needs a square matrix")
        return self.submatrix(perm, perm)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError("shape mismatch: %r vs %r" % (self.shape, other.shape))
        lo, hi = _support((self, other))
        return LaurentMatrix.from_coeffs(
            self.coeff_array(lo, hi) + other.coeff_array(lo, hi), lo
        )

    def __neg__(self):
        return LaurentMatrix.from_coeffs(-self._coeffs, self._lo)

    def __sub__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        """Scale by a complex scalar or a scalar Laurent polynomial."""
        p = _as_poly(other)
        if p is NotImplemented:
            return NotImplemented
        if p.is_zero or self.is_zero:
            return LaurentMatrix(*self.shape)
        C = self._coeffs
        out = np.zeros((len(C) + p.hi - p.lo,) + self.shape, dtype=complex)
        for m, c in p.terms.items():
            out[m - p.lo : m - p.lo + len(C)] += c * C
        return LaurentMatrix.from_coeffs(out, self._lo + p.lo)

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

    def shifted(self, k: int) -> "LaurentMatrix":
        return LaurentMatrix.from_coeffs(self._coeffs, self._lo + k)

    def adjoint(self) -> "LaurentMatrix":
        """Adjoint F~ with coefficients (F~)_n = (F_{-n})^H."""
        C = self._coeffs[::-1].conj().transpose(0, 2, 1)
        return LaurentMatrix.from_coeffs(C, 1 - self._lo - len(self._coeffs))

    def derivative(self) -> "LaurentMatrix":
        """Formal derivative d/dz, coefficientwise as LaurentPoly.derivative."""
        n = np.arange(self._lo, self._lo + len(self._coeffs))
        return LaurentMatrix.from_coeffs(self._coeffs * n[:, None, None], self._lo - 1)

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

    def eval_unit_grid(self, count: int) -> np.ndarray:
        """Stacked values (count, rows, cols) at e^(2 pi i j / count).

        Exact at the grid points: powers are folded modulo count, in
        ascending order, before an inverse FFT along the grid axis.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        folded = np.zeros((count,) + self.shape, dtype=complex)
        for start in range(0, len(self._coeffs), count):
            chunk = self._coeffs[start : start + count]
            s = (self._lo + start) % count
            head = min(count - s, len(chunk))
            folded[s : s + head] += chunk[:head]
            folded[: len(chunk) - head] += chunk[head:]
        return np.fft.ifft(folded, axis=0) * count

    # -- structure checks ------------------------------------------------

    def trim(self, tol: float = 0.0) -> "LaurentMatrix":
        """Drop coefficient matrices with max-abs <= tol times the global max-abs."""
        if self.is_zero:
            return self
        peaks = np.abs(self._coeffs).max(axis=(1, 2))
        keep = (peaks > tol * peaks.max())[:, None, None]
        return LaurentMatrix.from_coeffs(np.where(keep, self._coeffs, 0), self._lo)

    def is_parahermitian(self, tol: float = 0.0) -> bool:
        """True when F~ = F within tol relative to the largest coefficient entry."""
        if self.rows != self.cols:
            return False
        w = max(abs(self._lo), abs(self._lo + len(self._coeffs) - 1))
        C = self.coeff_array(-w, w)
        D = C[::-1].conj().transpose(0, 2, 1) - C
        return float(np.abs(D).max()) <= tol * self.max_abs

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

        Samples the matrix on a uniform unit-circle grid wide enough for the
        determinant's support window [k*lo, k*hi] and recovers coefficients
        with a forward FFT.
        """
        if self.rows != self.cols:
            raise ValueError("determinant needs a square matrix")
        k = self.rows
        if k == 0:
            return LaurentPoly.one()
        if self.is_zero:
            return LaurentPoly.zero()
        wlo, whi = k * self.lo, k * self.hi
        count = max(8, _next_pow2(whi - wlo + 1))
        samples = self.eval_unit_grid(count)
        values = np.linalg.det(samples)
        return laurent_from_unit_samples(values, wlo, whi)

    # -- dunder plumbing ---------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and self._lo == other._lo
            and np.array_equal(self._coeffs, other._coeffs)
        )

    __hash__ = None

    def __repr__(self):
        return "LaurentMatrix(%dx%d, powers=%r)" % (self.rows, self.cols, sorted(self.terms))


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
    return LaurentPoly({n: spec[n % count] for n in range(lo, hi + 1)})
