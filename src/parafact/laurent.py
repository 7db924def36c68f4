"""Laurent polynomial scalars and matrices with complex coefficients.

A Laurent polynomial is a finite sum ``sum_n c_n z^n`` with integer powers of
either sign.  Coefficients are kept sparsely, keyed by power; exact-zero
coefficients are never stored, so the reported span reflects the support.
Values on the unit circle ``z = e^(i theta)`` are the objects of interest:
the adjoint ``F~`` defined by ``F~(z) = F(1/conj(z))^H`` coincides with the
pointwise conjugate transpose there.

Objects are immutable after construction: arithmetic returns new instances
and coefficient arrays are exposed read-only.  Matrix operations work on
whole coefficient arrays; ``LaurentMatrix.derivative`` gives F' without
going through the scalar entries.
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


class LaurentMatrix:
    """Matrix Laurent polynomial ``sum_n C_n z^n`` with C_n complex matrices.

    Coefficients are stored sparsely by power as read-only complex arrays of
    a common shape.  All-zero coefficient matrices are dropped on
    construction.
    """

    __slots__ = ("_rows", "_cols", "_terms")

    def __init__(self, rows: int, cols: int, terms=None):
        rows, cols = int(rows), int(cols)
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        data = {}
        if terms:
            # One stacked copy checks every power at once; the per-power loop
            # only runs on bad input, to name the first offending power.
            try:
                stack = np.array(list(terms.values()), dtype=complex)
            except ValueError:
                stack = None
            if (
                stack is None
                or stack.shape != (len(terms), rows, cols)
                or not np.isfinite(stack).all()
            ):
                for n, C in terms.items():
                    C = np.asarray(C, dtype=complex)
                    if C.shape != (rows, cols):
                        raise ValueError(
                            "coefficient at power %d has shape %r, expected %r"
                            % (n, C.shape, (rows, cols))
                        )
                    if not np.all(np.isfinite(C)):
                        raise ValueError("non-finite coefficient at power %d" % n)
            stack.setflags(write=False)
            nonzero = stack.any(axis=(1, 2))
            data = {int(n): C for n, C, keep in zip(terms, stack, nonzero) if keep}
        self._rows = rows
        self._cols = cols
        self._terms = data

    # -- construction helpers -------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "LaurentMatrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, m: int) -> "LaurentMatrix":
        return cls(m, m, {0: np.eye(m, dtype=complex)})

    @classmethod
    def constant(cls, C) -> "LaurentMatrix":
        C = np.asarray(C, dtype=complex)
        if C.ndim != 2:
            raise ValueError("constant coefficient must be a 2-d array")
        return cls(C.shape[0], C.shape[1], {0: C})

    @classmethod
    def from_entries(cls, grid) -> "LaurentMatrix":
        """Build from a nested list of LaurentPoly / scalar entries."""
        rows = len(grid)
        cols = len(grid[0]) if rows else 0
        powers = set()
        polys = []
        for r in grid:
            if len(r) != cols:
                raise ValueError("ragged entry grid")
            row = []
            for e in r:
                p = e if isinstance(e, LaurentPoly) else LaurentPoly({0: e})
                powers.update(p.terms)
                row.append(p)
            polys.append(row)
        terms = {}
        for n in powers:
            C = np.zeros((rows, cols), dtype=complex)
            for i in range(rows):
                for j in range(cols):
                    C[i, j] = polys[i][j].coeff(n)
            terms[n] = C
        return cls(rows, cols, terms)

    @classmethod
    def diagonal(cls, entries) -> "LaurentMatrix":
        m = len(entries)
        return cls.from_entries(
            [[entries[i] if i == j else 0 for j in range(m)] for i in range(m)]
        )

    @staticmethod
    def vstack(blocks) -> "LaurentMatrix":
        blocks = [b for b in blocks if b.rows > 0]
        if not blocks:
            raise ValueError("nothing to stack")
        cols = blocks[0].cols
        if any(b.cols != cols for b in blocks):
            raise ValueError("column counts differ")
        rows = sum(b.rows for b in blocks)
        terms = {}
        offset = 0
        for b in blocks:
            for n, C in b.terms.items():
                T = terms.setdefault(n, np.zeros((rows, cols), dtype=complex))
                T[offset : offset + b.rows, :] = C
            offset += b.rows
        return LaurentMatrix(rows, cols, terms)

    @staticmethod
    def hstack(blocks) -> "LaurentMatrix":
        blocks = [b for b in blocks if b.cols > 0]
        if not blocks:
            raise ValueError("nothing to stack")
        rows = blocks[0].rows
        if any(b.rows != rows for b in blocks):
            raise ValueError("row counts differ")
        cols = sum(b.cols for b in blocks)
        terms = {}
        offset = 0
        for b in blocks:
            for n, C in b.terms.items():
                T = terms.setdefault(n, np.zeros((rows, cols), dtype=complex))
                T[:, offset : offset + b.cols] = C
            offset += b.cols
        return LaurentMatrix(rows, cols, terms)

    # -- basic queries ---------------------------------------------------

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def cols(self) -> int:
        return self._cols

    @property
    def shape(self):
        return (self._rows, self._cols)

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
        """Largest power present; None for the zero matrix."""
        return self.hi

    @property
    def span(self) -> int:
        return (self.hi - self.lo) if self._terms else 0

    def coeff(self, n: int) -> np.ndarray:
        C = self._terms.get(int(n))
        if C is None:
            return np.zeros((self._rows, self._cols), dtype=complex)
        return C

    @property
    def max_abs(self) -> float:
        return float(np.abs(np.stack(list(self._terms.values()))).max()) if self._terms else 0.0

    def entry(self, i: int, j: int) -> LaurentPoly:
        return LaurentPoly({n: C[i, j] for n, C in self._terms.items()})

    def submatrix(self, row_idx, col_idx) -> "LaurentMatrix":
        row_idx = np.asarray(row_idx, dtype=int)
        col_idx = np.asarray(col_idx, dtype=int)
        index = np.ix_(row_idx, col_idx)
        terms = {n: C[index] for n, C in self._terms.items()}
        return LaurentMatrix(len(row_idx), len(col_idx), terms)

    def permuted(self, perm) -> "LaurentMatrix":
        """Symmetric relabeling P F P^T for a permutation of indices."""
        if self._rows != self._cols:
            raise ValueError("symmetric permutation needs a square matrix")
        return self.submatrix(perm, perm)

    # -- arithmetic ------------------------------------------------------

    def _check_same_shape(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch: %r vs %r" % (self.shape, other.shape))

    def __add__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        self._check_same_shape(other)
        terms = {n: np.array(C) for n, C in self._terms.items()}
        for n, C in other._terms.items():
            if n in terms:
                terms[n] = terms[n] + C
            else:
                terms[n] = C
        return LaurentMatrix(self._rows, self._cols, terms)

    def __neg__(self):
        return LaurentMatrix(self._rows, self._cols, {n: -C for n, C in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        """Scale by a complex scalar or a scalar Laurent polynomial."""
        p = _as_poly(other)
        if p is NotImplemented:
            return NotImplemented
        terms = {}
        for n, C in self._terms.items():
            for m, c in p.terms.items():
                k = n + m
                if k in terms:
                    terms[k] = terms[k] + c * C
                else:
                    terms[k] = c * C
        return LaurentMatrix(self._rows, self._cols, terms)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        if self._cols != other._rows:
            raise ValueError(
                "dimension mismatch: %r @ %r" % (self.shape, other.shape)
            )
        if not self._terms or not other._terms:
            return LaurentMatrix(self._rows, other._cols)
        # The right operand as one dense window of powers lo..hi, so each
        # left power contributes one batched product.  Looping over the left
        # powers in dict order sums every output coefficient in the same
        # order as a loop over pairs of powers would.
        lo, hi = other.lo, other.hi
        B = np.zeros((hi - lo + 1, other._rows, other._cols), dtype=complex)
        for m, Bm in other._terms.items():
            B[m - lo] = Bm
        base = self.lo + lo
        out = np.zeros((self.span + hi - lo + 1, self._rows, other._cols), dtype=complex)
        for n, A in self._terms.items():
            out[n + lo - base : n + hi + 1 - base] += A @ B
        # Powers keep the order in which that pairwise loop first meets them,
        # because later sums over a matrix's terms run in its dict order.
        sums = np.add.outer(list(self._terms), list(other._terms)).ravel()
        first = np.sort(np.unique(sums, return_index=True)[1])
        return LaurentMatrix(
            self._rows, other._cols, {int(k): out[k - base] for k in sums[first]}
        )

    def shifted(self, k: int) -> "LaurentMatrix":
        return LaurentMatrix(self._rows, self._cols, {n + k: C for n, C in self._terms.items()})

    def adjoint(self) -> "LaurentMatrix":
        """Adjoint F~ with coefficients (F~)_n = (F_{-n})^H."""
        return LaurentMatrix(
            self._cols, self._rows, {-n: C.conj().T for n, C in self._terms.items()}
        )

    def derivative(self) -> "LaurentMatrix":
        """Formal derivative d/dz, coefficientwise as LaurentPoly.derivative."""
        return LaurentMatrix(
            self._rows,
            self._cols,
            {n - 1: n * C for n, C in self._terms.items() if n != 0},
        )

    def transpose(self) -> "LaurentMatrix":
        """Plain transpose F^T, coefficientwise and without conjugation."""
        return LaurentMatrix(
            self._cols, self._rows, {n: C.T.copy() for n, C in self._terms.items()}
        )

    # -- evaluation ------------------------------------------------------

    def eval(self, z) -> np.ndarray:
        z = complex(z)
        if not self._terms:
            return np.zeros((self._rows, self._cols), dtype=complex)
        lo, hi = self.lo, self.hi
        if lo < 0 and z == 0:
            raise ZeroDivisionError("negative powers evaluated at z = 0")
        acc = np.zeros((self._rows, self._cols), dtype=complex)
        for n in range(max(hi, 0), -1, -1):
            acc *= z
            C = self._terms.get(n)
            if C is not None:
                acc = acc + C
        if lo < 0:
            w = 1.0 / z
            for n in range(lo, 0):
                C = self._terms.get(n)
                if C is not None:
                    acc = acc + C * w ** (-n)
        return acc

    def eval_unit_grid(self, count: int) -> np.ndarray:
        """Stacked values (count, rows, cols) at e^(2 pi i j / count).

        Exact at the grid points: powers are folded modulo count before an
        inverse FFT along the grid axis.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        folded = np.zeros((count, self._rows, self._cols), dtype=complex)
        for n, C in self._terms.items():
            folded[n % count] += C
        return np.fft.ifft(folded, axis=0) * count

    # -- structure checks ------------------------------------------------

    def trim(self, tol: float = 0.0) -> "LaurentMatrix":
        """Drop coefficient matrices with max-abs <= tol times the global max-abs."""
        if not self._terms:
            return self
        peaks = np.abs(np.stack(list(self._terms.values()))).max(axis=(1, 2))
        cut = tol * peaks.max()
        return LaurentMatrix(
            self._rows,
            self._cols,
            {n: C for (n, C), p in zip(self._terms.items(), peaks) if p > cut},
        )

    def is_parahermitian(self, tol: float = 0.0) -> bool:
        """True when F~ = F within tol relative to the largest coefficient entry."""
        if self._rows != self._cols:
            return False
        powers = {0} | set(self._terms) | {-n for n in self._terms}  # never empty
        mirrored = np.stack([self.coeff(-n) for n in powers])
        D = mirrored.conj().transpose(0, 2, 1) - np.stack([self.coeff(n) for n in powers])
        return float(np.abs(D).max()) <= tol * self.max_abs

    def as_analytic(self, tol: float = 0.0) -> "AnalyticPolyMatrix":
        """Reinterpret as an analytic polynomial matrix.

        Negative powers must carry no more than tol times the global
        max-abs coefficient; they are dropped.
        """
        cut = tol * self.max_abs
        terms = {}
        for n, C in self._terms.items():
            if n < 0:
                if np.max(np.abs(C)) > cut:
                    raise ValueError(
                        "negative power %d has magnitude above tolerance" % n
                    )
            else:
                terms[n] = C
        return AnalyticPolyMatrix(self._rows, self._cols, terms)

    def det(self) -> LaurentPoly:
        """Determinant as a Laurent polynomial, by FFT interpolation.

        Samples the matrix on a uniform unit-circle grid wide enough for the
        determinant's support window [k*lo, k*hi] and recovers coefficients
        with a forward FFT.
        """
        if self._rows != self._cols:
            raise ValueError("determinant needs a square matrix")
        k = self._rows
        if k == 0:
            return LaurentPoly.one()
        if not self._terms:
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
        if self.shape != other.shape or set(self._terms) != set(other._terms):
            return False
        return all(np.array_equal(self._terms[n], other._terms[n]) for n in self._terms)

    __hash__ = None

    def __repr__(self):
        powers = sorted(self._terms)
        return "LaurentMatrix(%dx%d, powers=%r)" % (self._rows, self._cols, powers)


class AnalyticPolyMatrix(LaurentMatrix):
    """Laurent matrix constrained to nonnegative powers."""

    __slots__ = ()

    def __init__(self, rows, cols, terms=None):
        super().__init__(rows, cols, terms)
        if self._terms and min(self._terms) < 0:
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
