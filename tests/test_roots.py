"""Root finding, clustering, linear division, and column reflections."""

import numpy as np
import pytest
import scipy.linalg

from parafact import roots
from parafact.errors import NumericalFailureError
from parafact.instances import gen_spectrum
from parafact.laurent import LaurentMatrix, LaurentPoly, _cmul
from parafact.rankdef import spectral_factor
from parafact.roots import (
    _DEFLATION_RADIUS,
    _RANK_TOL,
    RankDefOptions,
    _NoRankDrop,
    _operator_scale,
    _zero_free_disk,
    clear_rank_drops,
    cluster_points,
    divide_linear,
    divide_out,
    find_rank_drop_points,
    fix_rank_drop,
    laurent_roots,
    poly_roots,
    reflect_column_zero,
    unitary_with_first_column,
)


def test_poly_roots_against_numpy():
    coeffs = [6.0, -5.0, 1.0]
    mine = sorted(poly_roots(coeffs), key=lambda w: w.real)
    theirs = sorted(np.roots(coeffs[::-1]), key=lambda w: w.real)
    assert np.allclose(mine, theirs)


def test_poly_roots_random_cubic():
    rng = np.random.default_rng(40)
    roots = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    coeffs = np.poly(roots)[::-1]
    found = poly_roots(coeffs)
    for r in roots:
        assert min(abs(found - r)) < 1e-8


def test_laurent_roots_of_factored_polynomial():
    p = (LaurentPoly({0: -2.0, 1: 1.0}) * LaurentPoly({0: -0.5, 1: 1.0})).shifted(-1)
    roots = laurent_roots(p)
    assert len(roots) == 2
    for target in (2.0, 0.5):
        assert min(abs(roots - target)) < 1e-10


def test_divide_linear_inside_and_outside_root():
    rng = np.random.default_rng(41)
    for a in (0.3 + 0.2j, 1.7 - 0.4j):
        q = LaurentPoly(
            {n: rng.standard_normal() + 1j * rng.standard_normal() for n in range(4)}
        )
        p = q * LaurentPoly({0: -a, 1: 1.0})
        got, rem = divide_linear(p, a)
        assert rem < 1e-12 * p.max_abs
        assert (got - q).max_abs < 1e-10


def test_divide_linear_reports_remainder():
    p = LaurentPoly({0: 1.0, 1: 1.0})
    _, rem = divide_linear(p, 0.5)
    assert rem > 0.1


def test_divide_out_exact_quotient():
    rng = np.random.default_rng(42)
    den = LaurentPoly({0: 1.0, 1: 0.25, 2: -0.125})
    q = LaurentPoly(
        {n: rng.standard_normal() + 1j * rng.standard_normal() for n in range(3)}
    )
    num = q * den
    got, rem = divide_out(num, den)
    assert rem < 1e-11
    assert (got - q).max_abs < 1e-11


def test_cluster_points_merges_nearby():
    pts = [0.5, 0.5 + 1e-8, 0.5 - 1e-8j, -0.2]
    clusters = cluster_points(pts, 1e-6)
    assert sorted(count for _, count in clusters) == [1, 3]
    big = max(clusters, key=lambda t: t[1])[0]
    assert abs(big - 0.5) < 1e-7


def test_unitary_with_first_column():
    rng = np.random.default_rng(43)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    U = unitary_with_first_column(v)
    assert np.max(np.abs(U.conj().T @ U - np.eye(4))) < 1e-12
    assert np.max(np.abs(U[:, 0] - v / np.linalg.norm(v))) < 1e-12


def test_reflect_column_zero_preserves_gram_product():
    rng = np.random.default_rng(44)
    a = 0.4 - 0.1j
    base = LaurentMatrix(
        3,
        2,
        {n: rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)) for n in range(2)},
    )
    zero_factor = LaurentMatrix.diagonal(
        [LaurentPoly({0: -a, 1: 1.0}), LaurentPoly.one()]
    )
    F = base @ zero_factor
    sv = np.linalg.svd(F.eval(a), compute_uv=False)
    assert sv[-1] < 1e-10
    null = np.linalg.svd(F.eval(a))[2][-1].conj()
    G, U, rem = reflect_column_zero(F, a, null)
    assert rem < 1e-10
    assert np.max(np.abs(U.conj().T @ U - np.eye(2))) < 1e-12
    assert np.linalg.svd(G.eval(a), compute_uv=False)[-1] > 1e-3
    zs = np.exp(1j * np.linspace(0.0, 2 * np.pi, 17))
    for z in zs:
        lhs = G.eval(z) @ G.eval(z).conj().T
        rhs = F.eval(z) @ F.eval(z).conj().T
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_reflect_column_zero_moves_zero_to_reflection():
    rng = np.random.default_rng(45)
    a = 0.25 + 0.3j
    base = LaurentMatrix(
        2,
        1,
        {0: rng.standard_normal((2, 1)), 1: rng.standard_normal((2, 1))},
    )
    F = base @ LaurentMatrix(1, 1, {0: np.array([[-a]]), 1: np.array([[1.0]])})
    null = np.array([1.0 + 0j])
    G, _, _ = reflect_column_zero(F, a, null)
    mirror = 1.0 / np.conj(a)
    assert np.linalg.svd(G.eval(mirror), compute_uv=False)[-1] < 1e-9


def _reflect_reference(F, a, null):
    """Per-entry reflection: divide_linear on each first-column entry, then a
    LaurentPoly product with (1 - conj(a) z)."""
    U = unitary_with_first_column(null)
    G = F @ LaurentMatrix.constant(U)
    top = LaurentPoly({0: 1.0, 1: -np.conj(a)})
    rows, worst = [], 0.0
    for i in range(G.rows):
        q, rem = divide_linear(G.entry(i, 0), a)
        worst = max(worst, rem)
        rows.append([q * top] + [G.entry(i, j) for j in range(1, G.cols)])
    return LaurentMatrix.from_entries(rows), U, worst


def test_reflect_column_zero_matches_per_entry_reference():
    rng = np.random.default_rng(46)
    a = -0.3 + 0.55j
    base = LaurentMatrix(
        4,
        3,
        {
            n: rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
            for n in range(5)
        },
    )
    plant = LaurentMatrix.diagonal(
        [LaurentPoly({0: -a, 1: 1.0}), LaurentPoly.one(), LaurentPoly.one()]
    )
    F = base @ plant
    assert F.hi == 5
    null = np.linalg.svd(F.eval(a))[2][-1].conj()
    G, U, rem = reflect_column_zero(F, a, null)
    ref, ref_U, ref_rem = _reflect_reference(F, a, null)
    assert np.array_equal(U, ref_U)
    # The array recurrence rounds every product as the scalar code does, so
    # the coefficients agree exactly; only the remainder is summed another way.
    assert G == ref
    assert ref_rem <= 1e-13 * F.max_abs
    assert abs(rem - ref_rem) <= 1e-14 * F.max_abs


def _reflect_block_reference(F, a, null_basis):
    """The block reflection as it was computed before the batched rotation
    and the scalar division: a Laurent product by the constant unitary, and
    the recurrence on whole arrays with _cmul products."""
    a = complex(a)
    B = np.asarray(null_basis, dtype=complex).reshape(F.cols, -1)
    nu = B.shape[1]
    if nu == 1:
        U = unitary_with_first_column(B[:, 0])
    else:
        U = np.hstack([B, np.linalg.svd(B.conj().T)[2][nu:].conj().T])
    G = F @ LaurentMatrix.constant(U)
    d = G.hi or 0
    C = G.coeff_array(0, d)
    c = C[:, :, :nu].copy()
    q = np.zeros_like(c)
    for i in range(d, 0, -1):
        q[i - 1] = c[i] + _cmul(q[i], a)
    resid = -a * q - c
    resid[1:] += q[:-1]
    worst = float(np.max(np.abs(resid)))
    C[:, :, :nu] = q
    C[1:, :, :nu] -= _cmul(q[:-1], a.conjugate())
    return LaurentMatrix.from_coeffs(C), U, worst


def _block_drop(rng, m, k, N, nu, a, scale):
    """A random m x k factor of order N whose first nu columns vanish at a,
    rotated by a random unitary, with about a third of the coefficients of
    its base exactly zero, times scale; and the null basis of F(a)."""
    base = rng.standard_normal((N, m, k)) + 1j * rng.standard_normal((N, m, k))
    base[rng.random(base.shape) < 0.3] = 0.0
    zero = LaurentPoly({0: -a, 1: 1.0})
    plant = LaurentMatrix.diagonal([zero] * nu + [LaurentPoly.one()] * (k - nu))
    Q, R = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    U = Q * (np.diag(R) / np.abs(np.diag(R)))
    F = LaurentMatrix.from_coeffs(base * scale) @ plant @ LaurentMatrix.constant(U)
    return F, np.linalg.svd(F.eval(a))[2][-nu:].conj().T


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
@pytest.mark.parametrize("draw", range(20))
def test_reflect_column_zero_matches_the_block_reference(draw, scale):
    # Nullities above one, exact zeros in the coefficients and at the point,
    # and three scales: every coefficient, the unitary and the remainder
    # equal the reference's in every bit, signed zeros included.
    rng = np.random.default_rng(4700 + draw)
    m = int(rng.integers(1, 7))
    k = int(rng.integers(1, m + 1))
    N = int(rng.integers(1, 9))
    nu = int(rng.integers(1, k + 1))
    r = (0.0, 0.3, 0.85)[draw % 3]
    a = complex(r * np.exp(1j * rng.uniform(0, 2 * np.pi))) if draw % 2 else complex(r)
    F, basis = _block_drop(rng, m, k, N, nu, a, scale)
    G, U, rem = reflect_column_zero(F, a, basis)
    ref, ref_U, ref_rem = _reflect_block_reference(F, a, basis)
    assert U.tobytes() == ref_U.tobytes()
    assert (G.lo, G.hi) == (ref.lo, ref.hi)
    assert G.coeff_array(0, N).tobytes() == ref.coeff_array(0, N).tobytes()
    assert rem == ref_rem


@pytest.mark.parametrize("a", [1.0, -1j, 0.6 + 0.8j, 2.0 - 0.5j])
def test_reflect_column_zero_rejects_points_off_the_open_disk(a):
    F = LaurentMatrix(2, 1, {0: np.array([[-a], [1.0]]), 1: np.array([[1.0], [0.5]])})
    with pytest.raises(ValueError):
        reflect_column_zero(F, a, np.array([1.0 + 0j]))


def _fix_rank_drop_reference(F, a, opts=None):
    """fix_rank_drop as it was, with the gate's scale taken from F itself
    and the reflection of _reflect_block_reference."""
    opts = opts or RankDefOptions()
    a = complex(a)
    scale = _operator_scale(F)
    _, sv, vh = np.linalg.svd(F.eval(a))
    nu = int(np.sum(sv <= _RANK_TOL * max(scale, 1e-300)))
    if not nu:
        raise _NoRankDrop("no drop at %s" % a)
    G, _, rem = _reflect_block_reference(F, a, vh[-nu:].conj().T)
    if rem > 10.0 * max(opts.tol, _RANK_TOL) * max(F.max_abs, 1e-300):
        raise NumericalFailureError("remainder %.3e" % rem)
    return G.as_analytic(0.0), nu


def _clear_rank_drops_reference(F):
    """clear_rank_drops as it was: one scale per fix, taken from the factor
    the fix is given."""
    opts = RankDefOptions()
    budget = 4 * F.cols * max(F.hi or 0, 1) + 16
    while drops := find_rank_drop_points(F):
        assert budget > 0
        skipped = 0
        for a in drops:
            try:
                F, nu = _fix_rank_drop_reference(F, a, opts)
            except _NoRankDrop:
                skipped += 1
                continue
            budget -= nu
            if budget <= 0:
                break
        assert skipped < len(drops)
    return F


@pytest.mark.parametrize("seed", [3, 17, 29])
@pytest.mark.parametrize("shape", [(1, 1, 24), (1, 1, 40), (4, 4, 4), (3, 3, 8), (6, 6, 3)])
def test_generated_factor_matches_the_per_fix_reference(shape, seed):
    # The square bench shapes reflect 7 to 20 zeros each.  One gate per
    # clearing loop, the batched rotation and the scalar division must
    # leave every bit of the generated secret factor as it was.
    m, k, N = shape
    gen = np.random.default_rng(seed)
    A = LaurentMatrix.from_coeffs(
        [
            (gen.standard_normal((m, k)) + 1j * gen.standard_normal((m, k))) / np.sqrt(2.0)
            for _ in range(N + 1)
        ]
    )
    want = _clear_rank_drops_reference(A)
    want = (want * (1.0 / want.max_abs)).as_analytic(0.0)
    got = gen_spectrum(m, k, N, seed, interior_zero_free=True).secret_factor
    assert got.coeff_array(0, N).tobytes() == want.coeff_array(0, N).tobytes()


def test_clear_rank_drops_gates_every_fix_by_the_scale_of_its_input(monkeypatch):
    F = gen_spectrum(3, 3, 8, 11).secret_factor
    want = _operator_scale(F)
    scales = []

    def recorded(G, a, opts=None, scale=None):
        scales.append(scale)
        return fix_rank_drop(G, a, opts, scale)

    monkeypatch.setattr(roots, "fix_rank_drop", recorded)
    _, ops = clear_rank_drops(F)
    assert len(scales) >= 2 and len(ops) >= len(scales)
    assert all(s == want for s in scales)


def test_clear_rank_drops_returns_the_ops_of_every_fix(monkeypatch):
    # A simple zero at a and a double one at b: three column zeros inside
    # the disk, each reflected by one zero-removal op, in the order of the
    # fixes; the cleared factor is outer and clears with no op.
    a, b = 0.4 + 0.3j, -0.5 + 0.2j
    outer = gen_spectrum(3, 3, 2, 7, interior_zero_free=True).secret_factor
    F = outer @ LaurentMatrix.diagonal(
        [LaurentPoly({0: -a, 1: 1.0}), LaurentPoly({0: b * b, 1: -2 * b, 2: 1.0}),
         LaurentPoly.one()]
    )
    fixes = []

    def recorded(G, w, opts=None, scale=None):
        G, ops = fix_rank_drop(G, w, opts, scale)
        fixes.extend(ops)
        return G, ops

    monkeypatch.setattr(roots, "fix_rank_drop", recorded)
    G, ops = clear_rank_drops(F)
    assert len(ops) == len(fixes) == 3
    assert all(op is fixed for op, fixed in zip(ops, fixes))
    assert all(op.direction == "zero-removal" and abs(op.a) < 1.0 for op in ops)
    assert all(min(abs(op.a - a), abs(op.a - b)) < 1e-6 for op in ops)
    assert sum(abs(op.a - a) < 1e-6 for op in ops) == 1
    H, again = clear_rank_drops(G)
    assert again == ()
    assert H.coeff_array(0, H.hi).tobytes() == G.coeff_array(0, G.hi).tobytes()


def test_fix_rank_drop_gates_by_the_given_scale():
    # Two columns vanish at a and a third at a + 1e-5, so F(a) has a third
    # small singular value above the default gate: a scale that lifts the
    # gate above it reflects three columns, at a remainder the loose tol
    # accepts.
    rng = np.random.default_rng(12)
    a = 0.2 - 0.3j
    base = LaurentMatrix.from_coeffs(
        rng.standard_normal((3, 5, 4)) + 1j * rng.standard_normal((3, 5, 4))
    )
    zeros = [a, a, a + 1e-5]
    F = base @ LaurentMatrix.diagonal(
        [LaurentPoly({0: -w, 1: 1.0}) for w in zeros] + [LaurentPoly.one()]
    )
    opts = RankDefOptions(tol=1e-3)
    sv = np.linalg.svd(F.eval(a), compute_uv=False)
    assert np.sum(sv <= _RANK_TOL * _operator_scale(F)) == 2
    assert len(fix_rank_drop(F, a, opts)[1]) == 2
    lifted = 1.01 * sv[-3] / _RANK_TOL
    assert len(fix_rank_drop(F, a, opts, lifted)[1]) == 3


# ---------------------------------------------------------------------------
# the Schur-Cohn certificate that spares a square factor the finder's QZ
# ---------------------------------------------------------------------------


def pencil_zeros(F):
    """Finite eigenvalues of the block-companion pencil of a square analytic F, by QZ."""
    k, N = F.cols, F.hi
    P = F.coeff_array(0, N)
    X = np.eye(k * N, dtype=complex)
    X[:k, :k] = P[N]
    Y = -np.eye(k * N, k=-k, dtype=complex)
    Y[:k] = np.hstack(P[N - 1 :: -1])
    z = scipy.linalg.eigvals(-Y, X)
    return z[np.isfinite(z)]


def outer_square_factor(shape, seed):
    return gen_spectrum(*shape, seed, interior_zero_free=True).secret_factor


@pytest.fixture(scope="module")
def plant_factors():
    """(seed, outer square factor) pairs, 150 seeds of each of four shapes."""
    shapes = [(1, 1, 8), (2, 2, 2), (3, 3, 3), (4, 4, 4)]
    return [(seed, outer_square_factor(shape, seed)) for shape in shapes for seed in range(150)]


def planted_zero_factor(F, seed, radius):
    """F times diag(z - a, 1, ...), for a seeded point a with |a| = radius."""
    a = radius * np.exp(2j * np.pi * np.random.default_rng(seed).uniform())
    cols = [LaurentPoly({0: -a, 1: 1.0})] + [LaurentPoly.one()] * (F.cols - 1)
    return F @ LaurentMatrix.diagonal(cols)


def certified(F):
    """Whether _zero_free_disk certifies F; where it does, F's own pencil must
    have no eigenvalue in the disk that the certificate covers."""
    held = _zero_free_disk(F)
    if held:
        assert not np.any(np.abs(pencil_zeros(F)) < 1.0 - _DEFLATION_RADIUS)
    return held


# A zero planted at 1 - 1.1e-7 or deeper lies in the disk |z| < 1 -
# _DEFLATION_RADIUS that the certificate covers, so it must never hold
# there.  From 1 - 0.9e-7 out it may: of the 600 factors per radius it
# held on 336 at 1 - 0.9e-7, 416 at 1 and 593 at 1 + 1e-4, and wherever it
# held, the pencil had no eigenvalue in the disk.
@pytest.mark.parametrize(
    "radius", [1 - 1e-3, 1 - 2e-7, 1 - 1.1e-7, 1 - 0.9e-7, 1.0, 1 + 1e-4]
)
def test_certificate_never_holds_over_a_planted_interior_zero(radius, plant_factors):
    held = [certified(planted_zero_factor(F, seed, radius)) for seed, F in plant_factors]
    assert any(held) == (radius > 1.0 - _DEFLATION_RADIUS)


# The circle-zero stress spectra of test_fullrank.py: the planted factor,
# whose determinant has a zero of multiplicity 1 to 4 at z = 1, and the
# factor spectral_factor returns, whose cluster of zeros near z = 1 it has
# cleared of interior drops.
@pytest.mark.parametrize("mult", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [2, 3])
def test_certificate_is_sound_on_the_circle_zero_stress_factors(mult, m):
    zero = LaurentPoly.one()
    for _ in range(mult):
        zero = zero * LaurentPoly({0: 1.0, 1: -1.0})
    diag = LaurentMatrix.diagonal([zero] + [LaurentPoly.one()] * (m - 1))
    for seed in range(30):
        F = outer_square_factor((m, m, 2), seed) @ diag
        certified(F)
        certified(spectral_factor(F @ F.adjoint())[0])


# The fast path itself: every outer factor of the five factor-fullrank
# bench shapes, the generated one and the computed one, is certified, and
# its drop search then runs no QZ.  A tall outer factor still runs it.
@pytest.mark.parametrize("shape", [(1, 1, 24), (1, 1, 40), (4, 4, 4), (3, 3, 8), (6, 6, 3)])
def test_certificate_holds_on_every_outer_bench_factor(shape, monkeypatch):
    for seed in range(28):
        inst = gen_spectrum(*shape, seed, interior_zero_free=True)
        assert certified(inst.secret_factor)
        assert certified(spectral_factor(inst.spectrum)[0])
    calls = []
    qz = scipy.linalg.eigvals
    monkeypatch.setattr(scipy.linalg, "eigvals", lambda *a: calls.append(1) or qz(*a))
    assert find_rank_drop_points(inst.secret_factor) == [] and not calls
    tall = gen_spectrum(shape[0] + 1, *shape[1:], seed, interior_zero_free=True)
    assert find_rank_drop_points(tall.secret_factor) == [] and calls
