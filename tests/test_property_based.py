"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    BatchedFactorization,
    ClusterTree,
    LowRankFactor,
    build_hodlr,
)
from repro.core.compression import svd_compress
from repro.bie.quadrature import kapur_rokhlin_correction

# keep hypothesis examples cheap: deadline off because linear algebra timings vary
COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------------
# cluster trees
# ----------------------------------------------------------------------
@given(
    n=st.integers(min_value=8, max_value=3000),
    leaf_size=st.integers(min_value=2, max_value=128),
)
@settings(max_examples=60, **COMMON)
def test_cluster_tree_invariants(n, leaf_size):
    """For any (n, leaf_size): levels partition the index set and children partition parents."""
    tree = ClusterTree.balanced(n, leaf_size=leaf_size)
    tree.validate()
    assert sum(leaf.size for leaf in tree.leaves) == n
    assert tree.num_leaves == 2 ** tree.levels
    # level-order index relations
    for node in tree:
        if not node.is_root:
            parent = tree.parent(node)
            assert parent.start <= node.start and node.stop <= parent.stop


@given(
    n=st.integers(min_value=16, max_value=400),
    dim=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2 ** 16),
)
@settings(max_examples=30, **COMMON)
def test_kdtree_permutation_is_a_permutation(n, dim, seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, dim))
    tree, perm = ClusterTree.from_points(pts, leaf_size=16)
    assert np.array_equal(np.sort(perm), np.arange(n))
    tree.validate()


# ----------------------------------------------------------------------
# low-rank factors and compression
# ----------------------------------------------------------------------
@given(
    m=st.integers(min_value=1, max_value=40),
    n=st.integers(min_value=1, max_value=40),
    r=st.integers(min_value=0, max_value=10),
    seed=st.integers(min_value=0, max_value=2 ** 16),
)
@settings(max_examples=60, **COMMON)
def test_low_rank_matvec_consistency(m, n, r, seed):
    """matvec / rmatvec / to_dense of a LowRankFactor are mutually consistent."""
    rng = np.random.default_rng(seed)
    f = LowRankFactor(U=rng.standard_normal((m, r)), V=rng.standard_normal((n, r)))
    x = rng.standard_normal(n)
    y = rng.standard_normal(m)
    dense = f.to_dense()
    assert np.allclose(f.matvec(x), dense @ x, atol=1e-10)
    assert np.allclose(f.rmatvec(y), dense.T @ y, atol=1e-10)
    assert f.rank == r and f.shape == (m, n)


@given(
    m=st.integers(min_value=2, max_value=30),
    n=st.integers(min_value=2, max_value=30),
    seed=st.integers(min_value=0, max_value=2 ** 16),
    tol_exp=st.integers(min_value=2, max_value=10),
)
@settings(max_examples=60, **COMMON)
def test_svd_compress_error_bound(m, n, seed, tol_exp):
    """Truncated-SVD compression error is bounded by tol * ||block|| (Frobenius)."""
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((m, n))
    tol = 10.0 ** (-tol_exp)
    f = svd_compress(block, tol=tol)
    err = np.linalg.norm(f.to_dense() - block)
    # relative spectral tolerance implies a Frobenius bound with a sqrt(min(m,n)) factor
    assert err <= tol * np.linalg.norm(block, 2) * np.sqrt(min(m, n)) + 1e-12


@given(
    m=st.integers(min_value=1, max_value=25),
    n=st.integers(min_value=1, max_value=25),
    r=st.integers(min_value=0, max_value=8),
    extra=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=2 ** 16),
)
@settings(max_examples=40, **COMMON)
def test_recompress_never_increases_rank_and_preserves_block(m, n, r, extra, seed):
    rng = np.random.default_rng(seed)
    f = LowRankFactor(U=rng.standard_normal((m, r)), V=rng.standard_normal((n, r)))
    g = f.pad_rank(r + extra).recompress(tol=1e-12)
    assert g.rank <= min(m, n, r + extra)
    assert np.allclose(g.to_dense(), f.to_dense(), atol=1e-9)


# ----------------------------------------------------------------------
# HODLR matrices and the factorization
# ----------------------------------------------------------------------
def _structured_matrix(n, seed, scale):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 1.0, n))
    A = 1.0 / (1.0 + scale * np.abs(x[:, None] - x[None, :]))
    return A + n * np.eye(n)


@given(
    n=st.integers(min_value=32, max_value=320),
    leaf=st.sampled_from([8, 16, 32]),
    seed=st.integers(min_value=0, max_value=2 ** 16),
    scale=st.floats(min_value=1.0, max_value=100.0),
)
@settings(max_examples=25, **COMMON)
def test_hodlr_matvec_matches_dense(n, leaf, seed, scale):
    """For random structured matrices and arbitrary trees: HODLR matvec ~= dense matvec."""
    A = _structured_matrix(n, seed, scale)
    tree = ClusterTree.balanced(n, leaf_size=leaf)
    H = build_hodlr(A, tree, tol=1e-10, method="svd")
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal(n)
    assert np.linalg.norm(H.matvec(x) - A @ x) <= 1e-7 * np.linalg.norm(A @ x)


@given(
    n=st.integers(min_value=32, max_value=256),
    leaf=st.sampled_from([8, 16, 32]),
    seed=st.integers(min_value=0, max_value=2 ** 16),
)
@settings(max_examples=20, **COMMON)
def test_factorization_solves_to_roundoff(n, leaf, seed):
    """Algorithm 1+2 solve random structured systems to near round-off for any shape."""
    A = _structured_matrix(n, seed, 30.0)
    tree = ClusterTree.balanced(n, leaf_size=leaf)
    H = build_hodlr(A, tree, tol=1e-12, method="svd")
    fac = BatchedFactorization(hodlr=H).factorize()
    rng = np.random.default_rng(seed + 2)
    b = rng.standard_normal(n)
    x = fac.solve(b)
    assert np.linalg.norm(A @ x - b) <= 1e-8 * np.linalg.norm(b)


@given(
    n=st.integers(min_value=64, max_value=256),
    seed=st.integers(min_value=0, max_value=2 ** 16),
)
@settings(max_examples=15, **COMMON)
def test_storage_never_exceeds_dense(n, seed):
    """The HODLR representation of a structured matrix never stores more than the dense matrix."""
    A = _structured_matrix(n, seed, 60.0)
    tree = ClusterTree.balanced(n, leaf_size=16)
    H = build_hodlr(A, tree, tol=1e-10, method="svd")
    assert H.nbytes <= A.nbytes * 1.05


# ----------------------------------------------------------------------
# quadrature
# ----------------------------------------------------------------------
@given(n=st.integers(min_value=25, max_value=2000), order=st.sampled_from([2, 6, 10]))
@settings(max_examples=40, **COMMON)
def test_kapur_rokhlin_correction_structure(n, order):
    """Correction stencils are symmetric, of the right size, and never touch the diagonal."""
    offsets, gammas = kapur_rokhlin_correction(n, order=order)
    k = order if order != 2 else 1
    assert len(offsets) == 2 * k == len(gammas)
    assert 0 not in offsets
    # symmetric: same gamma for +j and -j
    for j in range(1, k + 1):
        g_plus = gammas[list(offsets).index(j)]
        g_minus = gammas[list(offsets).index(-j)]
        assert g_plus == g_minus
