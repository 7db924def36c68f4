"""Property tests for rank estimation and pivot selection.

Spectra are built as A A~ from a random m x k analytic A, so their rank on
the circle is k by construction.  The examples are derandomized and few, so
the run is reproducible and short.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from parafact.laurent import LaurentMatrix
from parafact.rankdef import estimate_rank, select_pivot

SETTINGS = settings(max_examples=40, derandomize=True, database=None, deadline=None)


@st.composite
def spectra(draw):
    """(S, k): a rank-k m x m spectrum of order N with a random factor."""
    m = draw(st.integers(1, 5))
    k = draw(st.integers(1, m))
    N = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = LaurentMatrix(
        m,
        k,
        {
            n: rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
            for n in range(N + 1)
        },
    )
    return (A @ A.adjoint()).trim(0.0), k


@SETTINGS
@given(spectra(), st.data(), st.floats(1e-3, 1e3))
def test_rank_is_invariant_under_permutation_and_scaling(case, data, c):
    S, k = case
    perm = data.draw(st.permutations(range(S.rows)))
    assert estimate_rank(S) == k
    assert estimate_rank(S.permuted(perm)) == k
    assert estimate_rank(S * c) == k


@SETTINGS
@given(spectra())
def test_pivot_head_block_is_nonsingular_on_the_circle(case):
    S, k = case
    perm = select_pivot(S, k)
    assert sorted(perm) == list(range(S.rows))
    samples = S.permuted(perm).eval_unit_grid(32)
    for M in samples:
        head = np.linalg.svd(M[:k, :k], compute_uv=False)
        whole = np.linalg.svd(M, compute_uv=False)
        assert head[-1] > 1e-8 * whole[0]
