"""Unit tests for the compression kernels (SVD, rook-pivoted ACA)."""

import numpy as np
import pytest
from scipy import linalg as sla

import repro
from repro import (
    ClusterTree,
    CompressionConfig,
    ExecutionContext,
    LowRankFactor,
    SolverConfig,
    build_hodlr,
    compress_block,
    get_problem,
    solve,
    svd_compress,
)
from repro.backends import get_backend, get_recorder
from repro.backends.counters import cholesky_flops, gemm_flops, gesvd_flops
from repro.backends.dispatch import LOOP_POLICY
from repro.core import compression
from repro.core.compression import (
    _DenseStackEvaluator,
    compress_block_stack,
    rook_pivot_compress,
    rook_pivot_compress_dense,
    rook_pivot_compress_stack,
)


def smooth_block(m, n, seed=0, scale=5.0):
    """A numerically low-rank block: samples of a smooth kernel off the diagonal."""
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 1.0, m))
    y = np.sort(rng.uniform(2.0, 3.0, n))
    return 1.0 / (1.0 + scale * np.abs(x[:, None] - y[None, :]))


class TestSVDCompress:
    def test_accuracy(self):
        B = smooth_block(60, 50)
        f = svd_compress(B, tol=1e-10)
        assert np.linalg.norm(f.to_dense() - B) <= 1e-8 * np.linalg.norm(B)

    def test_rank_is_minimal(self):
        B = smooth_block(60, 50)
        f = svd_compress(B, tol=1e-6)
        s = np.linalg.svd(B, compute_uv=False)
        expected = int(np.sum(s > 1e-6 * s[0]))
        assert f.rank == expected

    def test_max_rank_cap(self):
        B = smooth_block(40, 40)
        f = svd_compress(B, tol=0.0, max_rank=3)
        assert f.rank == 3


class TestRookPivot:
    def test_accuracy_vs_dense(self):
        B = smooth_block(80, 70, seed=1)
        f = rook_pivot_compress_dense(B, tol=1e-10)
        rel = np.linalg.norm(f.to_dense() - B) / np.linalg.norm(B)
        assert rel < 1e-8

    def test_rank_close_to_svd_rank(self):
        B = smooth_block(80, 70, seed=2)
        f_rook = rook_pivot_compress_dense(B, tol=1e-8)
        f_svd = svd_compress(B, tol=1e-8)
        assert f_rook.rank <= f_svd.rank + 5

    def test_lazy_evaluation_counts(self):
        """Rook pivoting should evaluate O((m + n) r) entries, not the full block."""
        B = smooth_block(200, 180, seed=3)
        counter = {"entries": 0}

        def entries(rows, cols):
            counter["entries"] += len(rows) * len(cols)
            return B[np.ix_(rows, cols)]

        f = rook_pivot_compress(entries, 200, 180, tol=1e-8)
        rel = np.linalg.norm(f.to_dense() - B) / np.linalg.norm(B)
        assert rel < 1e-6
        assert counter["entries"] < 0.5 * B.size

    def test_exactly_low_rank_block(self):
        rng = np.random.default_rng(4)
        B = rng.standard_normal((30, 4)) @ rng.standard_normal((4, 25))
        f = rook_pivot_compress_dense(B, tol=1e-12)
        assert f.rank <= 6
        np.testing.assert_allclose(f.to_dense(), B, atol=1e-9 * np.abs(B).max())

    def test_zero_block(self):
        B = np.zeros((10, 12))
        f = rook_pivot_compress_dense(B, tol=1e-12)
        np.testing.assert_array_equal(f.to_dense(), B)

    def test_empty_block(self):
        f = rook_pivot_compress_dense(np.zeros((0, 5)), tol=1e-12)
        assert f.shape == (0, 5)

    def test_complex_block(self):
        rng = np.random.default_rng(5)
        x = np.sort(rng.uniform(0, 1, 40))
        y = np.sort(rng.uniform(2, 3, 35))
        B = np.exp(1j * 3.0 * np.abs(x[:, None] - y[None, :])) / (
            1.0 + np.abs(x[:, None] - y[None, :])
        )
        f = rook_pivot_compress_dense(B, tol=1e-9)
        rel = np.linalg.norm(f.to_dense() - B) / np.linalg.norm(B)
        assert rel < 1e-7

    def test_max_rank_respected(self):
        B = smooth_block(50, 50, seed=6)
        f = rook_pivot_compress_dense(B, tol=0.0, max_rank=5)
        assert f.rank <= 5


def exact_rank_stack(nblocks, m, n, rank, seed):
    """Blocks of exact rank ``rank`` with singular values from 1 to 1e-8."""
    rng = np.random.default_rng(seed)
    s = np.logspace(0, -8, rank)
    out = []
    for _ in range(nblocks):
        U, _ = np.linalg.qr(rng.standard_normal((m, rank)))
        V, _ = np.linalg.qr(rng.standard_normal((n, rank)))
        out.append((U * s) @ V.T)
    return np.stack(out)


def lockstep(stack, tol):
    """rook_pivot_compress_stack over a dense stack, counting the gathers."""
    nblocks, m, n = stack.shape
    shapes = []
    source = _DenseStackEvaluator(stack)

    def multi(rows, cols):
        shapes.append((rows.shape[1], cols.shape[1]))
        return source(rows, cols)

    offsets = np.arange(nblocks)[:, None]
    factors = rook_pivot_compress_stack(
        multi, offsets * m + np.arange(m), offsets * n + np.arange(n), tol=tol
    )
    return factors, shapes


class TestBlockedSteps:
    """Blocks still active after the rook phase add crosses in blocks."""

    def test_high_rank_stack_reaches_tol(self):
        tol = 1e-10
        stack = exact_rank_stack(3, 200, 180, 60, seed=20)
        factors, shapes = lockstep(stack, tol)
        # the blocked phase gathers b > 1 rows at once
        assert max(p for p, _ in shapes) > 1
        for blk, f in zip(stack, factors):
            s = np.linalg.svd(blk, compute_uv=False)
            svd_rank = int(np.sum(s > tol * s[0]))
            assert f.rank <= svd_rank + 2
            assert np.linalg.norm(f.to_dense() - blk) <= 10 * tol * np.linalg.norm(blk)

    def test_low_rank_members_ignore_high_rank_neighbours(self):
        low = exact_rank_stack(2, 120, 100, 3, seed=21)
        high = exact_rank_stack(2, 120, 100, 80, seed=22)
        mixed, _ = lockstep(np.stack([low[0], high[0], low[1], high[1]]), 1e-10)
        alone, _ = lockstep(low, 1e-10)
        for f_mixed, f_alone in zip(mixed[::2], alone):
            assert np.array_equal(f_mixed.U, f_alone.U)
            assert np.array_equal(f_mixed.V, f_alone.V)

    def test_sampled_check_finds_a_missed_bump(self):
        """A rank-20 part the crosses resolve, plus a bump on rows and columns
        where that part is zero: no cross reaches the bump before the
        Frobenius estimate stops, so only the sampled grid can see it."""
        tol = 1e-10
        block = exact_rank_stack(1, 256, 256, 20, seed=23)[0]
        rows, cols = slice(160, 224), slice(40, 104)
        block[rows, :] = 0.0
        block[:, cols] = 0.0
        t = np.linspace(0.0, 1.0, 64)
        block[rows, cols] = 1e-3 * np.outer(np.sin(3 * t + 1), np.cos(2 * t))
        factors, shapes = lockstep(block[None], tol)
        grids = [k for k, shape in enumerate(shapes) if shape == (compression._SAMPLES,) * 2]
        # a grid found the bump and the block went on with more gathers
        assert grids and grids[0] < len(shapes) - 1
        err = np.linalg.norm(factors[0].to_dense() - block)
        assert err <= 10 * tol * np.linalg.norm(block)

    def test_complex_kernel_build_meets_tolerance(self):
        """A step whose intersection ``S`` drops a direction is ill-conditioned,
        not converged; the stop rule tests only the crosses ``S`` kept.  At
        one ``tol`` rook is as accurate as truncated SVD."""
        relres = {}
        for kappa in (10.0, 20.0, 40.0):
            for method in ("rook", "svd"):
                cfg = SolverConfig(compression=CompressionConfig(tol=1e-6, method=method))
                res = solve("helmholtz_kernel", n=1024, kappa=kappa, seed=1, config=cfg,
                            compute_residual="exact")
                relres[method, kappa] = res.relative_residual
            assert relres["rook", kappa] <= 1.25 * relres["svd", kappa]
        assert relres["rook", 20.0] <= 6e-8

    def test_single_block_is_a_one_block_stack(self):
        block = exact_rank_stack(1, 90, 70, 20, seed=24)[0]
        f = rook_pivot_compress_dense(block, tol=1e-12)
        (g,), _ = lockstep(block[None], 1e-12)
        assert f.rank > compression._ROOK_PHASE
        assert np.array_equal(f.U, g.U) and np.array_equal(f.V, g.V)


class TestSinglePrecision:
    @pytest.mark.parametrize("method", ["svd", "rook"])
    @pytest.mark.parametrize("dtype", [np.complex64, np.float32])
    def test_factors_keep_the_block_dtype(self, method, dtype):
        rng = np.random.default_rng(12)
        B = rng.standard_normal((100, 5)) @ rng.standard_normal((5, 120))
        if dtype == np.complex64:
            B = B + 1j * rng.standard_normal((100, 5)) @ rng.standard_normal((5, 120))
        B = B.astype(dtype)
        cfg = CompressionConfig(tol=1e-5, method=method)
        factors = []
        for ctx in (None, ExecutionContext(policy=LOOP_POLICY)):
            factors += compress_block_stack(B[None], cfg, context=ctx)
        for f in factors:
            assert f.U.dtype == dtype and f.V.dtype == dtype
            assert np.linalg.norm(f.to_dense() - B) <= 1e-4 * np.linalg.norm(B)

        x = np.sort(rng.uniform(0.0, 1.0, 256))
        A = (np.exp(-np.abs(x[:, None] - x[None, :]) / 0.5) + np.eye(256)).astype(dtype)
        H = build_hodlr(
            A, ClusterTree.balanced(256, leaf_size=32),
            tol=1e-5, method=method, context=ExecutionContext(policy=LOOP_POLICY),
        )
        assert {u.dtype for u in H.U.values()} | {v.dtype for v in H.V.values()} == {
            np.dtype(dtype)
        }


class TestExactRank:
    @pytest.mark.parametrize("method", ["svd", "rook"])
    @pytest.mark.parametrize("rank", [5, 25])
    def test_exact_rank_block_resolves_to_its_rank(self, method, rank):
        # rank 5 retires inside rook's first phase; rank 25 needs more steps
        rng = np.random.default_rng(rank)
        B = rng.standard_normal((300, rank)) @ rng.standard_normal((rank, 300))
        (f,) = compress_block_stack(B[None], CompressionConfig(tol=1e-12, method=method))
        assert f.rank == rank
        assert np.linalg.norm(f.to_dense() - B) <= 1e-12 * np.linalg.norm(B)


class TestDispatcher:
    @pytest.mark.parametrize("method", ["svd", "rook"])
    def test_all_methods_agree(self, method):
        B = smooth_block(64, 60, seed=11)

        def entries(rows, cols):
            return B[np.ix_(rows, cols)]

        config = CompressionConfig(tol=1e-9, method=method, seed=3)
        f = compress_block(entries, 64, 60, config)
        rel = np.linalg.norm(f.to_dense() - B) / np.linalg.norm(B)
        assert rel < 1e-7

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError):
            config = CompressionConfig(method="nope")
            compress_block(lambda r, c: np.zeros((len(r), len(c))), 4, 4, config)

    def test_retired_randomized_method_raises(self):
        """Dense-block randomized compression is retired: the config, a
        serialised payload that still carries it, ``build_hodlr`` and the
        facade raise a ConfigError that names the method and points to rook
        (and to peeling for a matvec-only source)."""
        assert compression.COMPRESSION_METHODS == ("svd", "rook", "proxy")
        B = smooth_block(64, 64, seed=13) + np.eye(64)
        for make in (
            lambda: CompressionConfig(method="randomized"),
            lambda: CompressionConfig.from_dict({**CompressionConfig().to_dict(),
                                                 "method": "randomized"}),
            lambda: SolverConfig.from_dict({**SolverConfig().to_dict(), "compression": {
                **CompressionConfig().to_dict(), "method": "randomized"}}),
            lambda: build_hodlr(B, ClusterTree.balanced(64, leaf_size=16), tol=1e-8,
                                method="randomized"),
            lambda: repro.build_operator(B, config={"compression": {"method": "randomized"}}),
        ):
            with pytest.raises(compression.ConfigError,
                               match="randomized.*rook.*construction='peeling'"):
                make()


class TestErrorContract:
    """Rook retires a block only below the threshold the truncation cuts at,
    ``tol`` times the block's largest singular value."""

    def test_flat_spectrum_above_the_threshold_is_kept(self):
        # 40 directions at sigma_1 (so ||A||_F = 6.3 sigma_1), then 48 flat
        # just above tol * sigma_1: a Frobenius-relative stop misses them
        tol, m, n = 1e-6, 300, 280
        rng = np.random.default_rng(30)
        s = np.concatenate([np.ones(40), np.full(48, 2.0 * tol)])
        U, _ = np.linalg.qr(rng.standard_normal((m, s.size)))
        V, _ = np.linalg.qr(rng.standard_normal((n, s.size)))
        block = (U * s) @ V.T
        assert np.linalg.norm(block) > 6 * s[0]
        f = rook_pivot_compress_dense(block, tol=tol)
        assert f.rank == svd_compress(block, tol=tol).rank == s.size
        assert np.linalg.norm(f.to_dense() - block, 2) <= 2 * tol * s[0]

    def test_helmholtz_kernel_defaults_to_rook(self):
        comp = get_problem("helmholtz_kernel").default_config.compression
        assert comp.method == "rook" and comp.tol == 1e-6


def _geqp3_pivots(X, count, exclude=None):
    """``_pivots``'s reference: one LAPACK ``geqp3`` per block."""
    if exclude is not None:
        X = np.where(exclude[:, None, :], 0, X)
    geqp3 = sla.get_lapack_funcs("geqp3", (X,))
    picks = []
    for a, x in enumerate(X):
        piv = geqp3(x)[1] - 1
        if exclude is not None:
            piv = piv[np.argsort(exclude[a, piv], kind="stable")]
        picks.append(piv[:count])
    return np.array(picks)


class TestPivots:
    @pytest.mark.parametrize("complex_", [False, True])
    def test_matches_geqp3(self, complex_):
        rng = np.random.default_rng(31)
        X = rng.standard_normal((7, 16, 90))
        if complex_:
            X = X + 1j * rng.standard_normal(X.shape)
        exclude = rng.random((7, 90)) < 0.3
        for count in (1, 8, 16):
            np.testing.assert_array_equal(compression._pivots(X, count), _geqp3_pivots(X, count))
            np.testing.assert_array_equal(
                compression._pivots(X, count, exclude), _geqp3_pivots(X, count, exclude)
            )

    def test_excluded_columns_come_last(self):
        rng = np.random.default_rng(32)
        X = rng.standard_normal((3, 4, 10))
        exclude = np.zeros((3, 10), dtype=bool)
        exclude[:, :7] = True
        picks = compression._pivots(X, 6, exclude)
        # the 3 allowed columns first, past the rank the 4 rows give
        assert np.all(np.sort(picks[:, :3], axis=1) == [7, 8, 9])
        assert np.all(picks[:, 3:] < 7)


def _padded_stack(rng, nblocks, m, n, r, complex_):
    """Factors ``U3 (B, m, r)``, ``V3 (B, n, r)`` of blocks with decaying
    spectra: block ``j`` has ``caps[j]`` live columns, zero-padded to ``r``,
    and block 1 also has an exactly zero column among its live ones."""
    def draw(*shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if complex_ else x

    caps = np.array([r - 3 * (j % 3) for j in range(nblocks)])
    U3 = np.zeros((nblocks, m, r), dtype=complex if complex_ else float)
    V3 = np.zeros((nblocks, n, r), dtype=U3.dtype)
    for j, c in enumerate(caps):
        U3[j, :, :c] = draw(m, c) * np.logspace(0, -14, c)
        V3[j, :, :c] = draw(n, c)
    U3[1, :, 2] = 0.0
    return U3, V3, caps


def _events(trace, kernel):
    return [e for e in trace.events if e.kernel == kernel]


class TestGramRecompression:
    """``_recompress_bases``/``_trim_tail`` read the triangular factors off
    the Gram matrices (CholeskyQR) and fall back to Householder QR only for
    a basis too ill-conditioned for it."""

    @pytest.mark.parametrize("complex_", [False, True])
    def test_matches_householder(self, complex_):
        rng = np.random.default_rng(41)
        U3, V3, caps = _padded_stack(rng, 5, 90, 70, 24, complex_)
        tol = 1e-10
        xb = get_backend("numpy")
        with get_recorder().recording() as trace:
            got = compression._recompress_bases(U3, V3, tol, None, xb, caps=caps)
        assert not _events(trace, "geqrf_batched")
        for j, f in enumerate(got):
            ref = LowRankFactor(U3[j, :, : caps[j]], V3[j, :, : caps[j]])
            hh = ref.recompress(tol=tol)
            dense = ref.to_dense()
            sigma1 = np.linalg.norm(dense, 2)
            assert abs(f.rank - hh.rank) <= 1 and f.rank <= caps[j]
            assert np.linalg.norm(f.to_dense() - hh.to_dense(), 2) <= tol * sigma1
            assert np.linalg.norm(f.to_dense() - dense, 2) <= tol * sigma1
            assert f.U.dtype == U3.dtype

    def test_zero_columns_add_zero_singular_values(self):
        rng = np.random.default_rng(42)
        U3, V3, _ = _padded_stack(rng, 3, 40, 30, 12, False)
        xb = get_backend("numpy")
        R, Rinv = compression._gram_r(U3, xb)
        # block 0 is full, block 1 padded and with a zero column, block 2 padded
        for j in (1, 2):
            zero = ~U3[j].any(axis=0)
            assert zero.any()
            # a zero row and column in R, a unit diagonal entry in R^{-1}
            assert not R[j][zero].any() and not R[j][:, zero].any()
            np.testing.assert_array_equal(np.diag(Rinv[j])[zero], 1.0)
            # the live part is a QR of the basis: Q = X R^{-1} is orthonormal
            Q = (U3[j] @ Rinv[j])[:, ~zero]
            np.testing.assert_allclose(Q.T @ Q, np.eye(Q.shape[1]), atol=1e-8)
            np.testing.assert_allclose(U3[j] @ Rinv[j] @ R[j], U3[j], atol=1e-13)

    @pytest.mark.parametrize(
        "step,factored", [(1e-7, True), (1e-9, False), (0.0, False)],
        ids=["guard", "cholesky_fails", "duplicate"],
    )
    def test_ill_conditioned_basis_takes_householder(self, step, factored):
        """A basis with a column ``step`` away from another: at ``1e-7`` the
        scaled condition number is about 1e7 (``kappa(G)`` about 1e14), the
        Cholesky succeeds and the guard's bound rejects it; nearer (scaled
        condition about 1e9) or exactly dependent, the Cholesky fails.
        Either way that side goes through ``qr_batched``, and the
        recompression still meets ``tol``."""
        rng = np.random.default_rng(43)
        m, n, r, tol = 80, 60, 10, 1e-10
        U3 = rng.standard_normal((2, m, r))
        V3 = rng.standard_normal((2, n, r))
        U3[0, :, -1] = U3[0, :, 0] + step * rng.standard_normal(m)
        xb = get_backend("numpy")
        with get_recorder().recording() as trace:
            assert compression._gram_r(U3, xb) is None
        # a failed Cholesky records no event; the guard's rejection does
        assert len(_events(trace, "cholesky_batched")) == int(factored)
        assert compression._gram_r(V3, xb) is not None
        with get_recorder().recording() as trace:
            got = compression._recompress_bases(U3, V3, tol, None, xb)
        # only the ill-conditioned side falls back
        assert len(_events(trace, "geqrf_batched")) == 1
        for j, f in enumerate(got):
            dense = U3[j] @ V3[j].T
            sigma1 = np.linalg.norm(dense, 2)
            assert np.linalg.norm(f.to_dense() - dense, 2) <= tol * sigma1
        # the near-dependent direction is above tol, the duplicate is gone
        assert got[0].rank == (r - 1 if step == 0.0 else r)

    @pytest.mark.parametrize("complex_", [False, True])
    def test_launch_and_flop_events(self, complex_):
        rng = np.random.default_rng(44)
        B, m, n, r = 4, 50, 40, 9
        U3, V3, caps = _padded_stack(rng, B, m, n, r, complex_)
        xb = get_backend("numpy")
        with get_recorder().recording() as trace:
            got = compression._recompress_bases(U3, V3, 1e-8, None, xb, caps=caps)
        top = max(f.rank for f in got)
        kernels = [e.kernel for e in trace.events]
        # per side a Gram gemm and a Cholesky; the core gemm and its SVD;
        # per side the small product against R^{-1} and the basis gemm
        assert kernels == ["gemm_strided_batched", "cholesky_batched"] * 2 + [
            "gemm_strided_batched", "gesvd_batched"] + ["gemm_strided_batched"] * 4
        gram_u, chol, gram_v = trace.events[:3]
        assert all(e.batch == B and e.strided and not e.plan for e in trace.events)
        assert gram_u.flops == pytest.approx(B * gemm_flops(r, r, m, complex_))
        assert gram_v.flops == pytest.approx(B * gemm_flops(r, r, n, complex_))
        assert chol.flops == pytest.approx(B * cholesky_flops(r, complex_))
        assert trace.events[5].flops == pytest.approx(B * gesvd_flops(r, r, complex_))
        small_u, basis_u = trace.events[6], trace.events[7]
        assert small_u.flops == pytest.approx(B * gemm_flops(r, top, r, complex_))
        assert basis_u.flops == pytest.approx(B * gemm_flops(m, top, r, complex_))

    def test_rook_counts_every_lapack_call(self):
        """The blocked steps' intersection SVD, the sampled grid's norm and
        the tail trim are recorded launches."""
        stack = exact_rank_stack(2, 200, 180, 60, seed=45)
        with get_recorder().recording() as trace:
            lockstep(stack, 1e-10)
        svds = _events(trace, "gesvd_batched")
        # intersections (b x b), grids (_SAMPLES x _SAMPLES), trims and the
        # final recompression's core
        assert {e.shape[0] for e in svds} >= {compression._SAMPLES, 8}
        assert len(_events(trace, "cholesky_batched")) >= 4
        assert not _events(trace, "geqrf_batched")


#: small default builds of the three kernel families (problem, params)
_DEFAULT_BUILDS = [
    pytest.param(problem, params, id=problem)
    for problem, params in (
        ("gaussian_kernel", dict(n=2048)),
        ("helmholtz_kernel", dict(n=1024)),
        ("gp_covariance", dict(n=4096)),
    )
]


class TestGramBuilds:
    @pytest.mark.parametrize("problem,params", _DEFAULT_BUILDS)
    def test_default_builds_issue_no_householder_qr(self, problem, params):
        with get_recorder().recording() as trace:
            repro.build_operator(problem, **params).hodlr
        assert _events(trace, "cholesky_batched")
        assert not _events(trace, "geqrf_batched")

    @pytest.mark.parametrize("problem,params", _DEFAULT_BUILDS[:2])
    def test_ranks_match_the_householder_route(self, problem, params, monkeypatch):
        """Forcing every basis through ``qr_batched`` (a guard no stack
        passes) gives the same ranks, within one per block."""
        gram = repro.build_operator(problem, **params).hodlr
        monkeypatch.setattr(compression, "_GRAM_GUARD", -1.0)
        with get_recorder().recording() as trace:
            householder = repro.build_operator(problem, **params).hodlr
        # every basis tried its Gram matrix, then took qr_batched
        assert len(_events(trace, "geqrf_batched")) == len(_events(trace, "cholesky_batched")) > 0
        assert sorted(gram.U) == sorted(householder.U)
        for node in gram.U:
            assert abs(gram.rank_of_pair(node) - householder.rank_of_pair(node)) <= 1
        assert all(
            abs(a - b) <= 1 for a, b in zip(gram.rank_profile(), householder.rank_profile())
        )
