"""Batched level-parallel construction + compiled apply plan (PR 3).

Equivalence suite: the batched construction schedule and the compiled apply
plan must match the per-block schedule (the same builder under an
``ExecutionContext(policy=LOOP_POLICY)``) and the reference tree walk to
1e-12 across both factorization variants, complex dtypes, adaptive ranks, and
non-power-of-two N — plus counter tests asserting the launch count drops to
O(levels x buckets).
"""

import numpy as np
import pytest

from repro.api import CompressionConfig as ApiCompressionConfig
from repro.api import ConfigError, HODLROperator, SolverConfig
from repro.api.problems import HelmholtzKernelProblem
from repro.backends.context import ExecutionContext
from repro.backends.counters import get_recorder
from repro.backends.dispatch import DEFAULT_POLICY, LOOP_POLICY, plan_batch
from repro.backends.parallel import ParallelPolicy, shutdown_pool
from repro.core import (
    ApplyPlan,
    BatchedFactorization,
    ClusterTree,
    HODLRSolver,
    build_hodlr,
)
from repro.core.compression import (
    CompressionConfig,
    compress_block_stack,
    rook_pivot_compress_dense,
)
from repro.kernels import GaussianKernel, KernelMatrix, MaternKernel


def smooth_matrix(n, rng, complex_dtype=False, lengthscale=0.5):
    """A HODLR-compressible kernel matrix with rapidly decaying off-diag ranks."""
    x = np.sort(rng.uniform(0.0, 1.0, n))
    A = np.exp(-np.abs(x[:, None] - x[None, :]) / lengthscale)
    if complex_dtype:
        A = A * np.exp(1j * 0.3 * (x[:, None] - x[None, :]))
    return A + np.eye(n)


#: the per-block reference schedule: bucketing off everywhere
LOOP_CONTEXT = ExecutionContext(policy=LOOP_POLICY)


def build_both(A, tree, method, tol=1e-12, max_rank=None):
    cfg = CompressionConfig(tol=tol, max_rank=max_rank, method=method)
    Hb = build_hodlr(A, tree, config=cfg)
    Hl = build_hodlr(A, tree, config=cfg, context=LOOP_CONTEXT)
    return Hb, Hl


# ======================================================================
# construction equivalence
# ======================================================================
class TestBatchedConstructionEquivalence:
    @pytest.mark.parametrize("method", ["svd", "randomized", "rook"])
    @pytest.mark.parametrize("complex_dtype", [False, True])
    def test_batched_matches_loop_dense(self, method, complex_dtype):
        rng = np.random.default_rng(0)
        A = smooth_matrix(256, rng, complex_dtype=complex_dtype)
        tree = ClusterTree.balanced(256, leaf_size=32)
        Hb, Hl = build_both(A, tree, method)
        scale = np.linalg.norm(A)
        assert np.linalg.norm(Hb.to_dense() - A) <= 1e-10 * scale
        assert np.linalg.norm(Hb.to_dense() - Hl.to_dense()) <= 1e-12 * scale

    @pytest.mark.parametrize("method", ["svd", "randomized", "rook"])
    def test_non_power_of_two(self, method):
        rng = np.random.default_rng(1)
        n = 300  # uneven node sizes at every level -> multiple shape buckets
        A = smooth_matrix(n, rng)
        tree = ClusterTree.balanced(n, leaf_size=32)
        Hb, Hl = build_both(A, tree, method)
        scale = np.linalg.norm(A)
        assert np.linalg.norm(Hb.to_dense() - A) <= 1e-10 * scale
        assert np.linalg.norm(Hb.to_dense() - Hl.to_dense()) <= 1e-12 * scale

    def test_adaptive_ranks(self):
        # no max_rank: the shared sample count cannot resolve every block at
        # once, exercising the sample-doubling rounds for the stragglers
        rng = np.random.default_rng(2)
        A = smooth_matrix(256, rng, lengthscale=0.05)  # higher ranks
        tree = ClusterTree.balanced(256, leaf_size=32)
        Hb, Hl = build_both(A, tree, "randomized", tol=1e-11)
        scale = np.linalg.norm(A)
        assert np.linalg.norm(Hb.to_dense() - A) <= 1e-9 * scale
        assert np.linalg.norm(Hb.to_dense() - Hl.to_dense()) <= 1e-9 * scale

    def test_max_rank_cap_respected(self):
        rng = np.random.default_rng(3)
        A = smooth_matrix(128, rng, lengthscale=0.05)
        tree = ClusterTree.balanced(128, leaf_size=16)
        Hb = build_hodlr(
            A, tree,
            config=CompressionConfig(tol=1e-14, max_rank=5, method="randomized",
                                     construction="batched"),
        )
        assert Hb.max_rank <= 5

    def test_kernel_matrix_gather_path(self):
        # KernelMatrix exposes entries_blocks: the whole level is evaluated in
        # one vectorized kernel call; results must match the loop build
        rng = np.random.default_rng(4)
        pts = rng.uniform(0.0, 1.0, (400, 2))
        km = KernelMatrix(kernel=GaussianKernel(lengthscale=0.4), points=pts,
                          diagonal_shift=0.1)
        Hb, permb = km.to_hodlr(leaf_size=32, tol=1e-12, method="randomized",
                                construction="batched")
        Hl, perml = km.to_hodlr(leaf_size=32, tol=1e-12, method="randomized",
                                context=LOOP_CONTEXT)
        assert np.array_equal(permb, perml)
        dense = km.entries(permb, permb)[np.ix_(np.arange(400), np.arange(400))]
        scale = np.linalg.norm(dense)
        assert np.linalg.norm(Hb.to_dense() - dense) <= 1e-10 * scale
        assert np.linalg.norm(Hb.to_dense() - Hl.to_dense()) <= 1e-12 * scale

    def test_bare_evaluator_without_gather_support(self):
        # a plain closure (no entries_blocks) falls back to per-block
        # evaluation but still compresses through the batched kernels
        rng = np.random.default_rng(5)
        A = smooth_matrix(128, rng)

        def entries(rows, cols):
            return A[np.ix_(rows, cols)]

        tree = ClusterTree.balanced(128, leaf_size=16)
        Hb = build_hodlr(entries, tree,
                         config=CompressionConfig(tol=1e-12, method="svd",
                                                  construction="batched"))
        assert np.linalg.norm(Hb.to_dense() - A) <= 1e-10 * np.linalg.norm(A)

    def test_invalid_construction_raises(self):
        rng = np.random.default_rng(6)
        A = smooth_matrix(64, rng)
        tree = ClusterTree.balanced(64, leaf_size=16)
        # the per-block schedule is a dispatch policy, not a construction mode
        for mode in ("turbo", "loop"):
            with pytest.raises(ValueError, match="construction"):
                build_hodlr(A, tree, config=CompressionConfig(construction=mode))

    @pytest.mark.parametrize("variant", ["recursive", "batched"])
    def test_solve_equivalence_across_variants(self, variant):
        rng = np.random.default_rng(7)
        A = smooth_matrix(256, rng)
        tree = ClusterTree.balanced(256, leaf_size=32)
        Hb, Hl = build_both(A, tree, "svd")
        b = rng.standard_normal(256)
        xb = HODLRSolver(Hb, variant=variant).factorize().solve(b)
        xl = HODLRSolver(Hl, variant=variant).factorize().solve(b)
        assert np.linalg.norm(xb - xl) <= 1e-12 * np.linalg.norm(xl)
        assert np.linalg.norm(A @ xb - b) <= 1e-8 * np.linalg.norm(b)


# ======================================================================
# level-lockstep rook construction
# ======================================================================
class CountingSource:
    """``entries`` / ``entries_blocks`` of a KernelMatrix, with call counts."""

    def __init__(self, km):
        self.km = km
        self.entry_calls = 0
        self.block_calls = 0
        self.evaluated = 0

    def entries(self, rows, cols):
        self.entry_calls += 1
        out = self.km.entries(rows, cols)
        self.evaluated += out.size
        return out

    def entries_blocks(self, rows, cols):
        self.block_calls += 1
        out = self.km.entries_blocks(rows, cols)
        self.evaluated += out.size
        return out


def gp_1d(n):
    x = np.sort(np.random.default_rng(8).uniform(0.0, 1.0, n))
    return KernelMatrix(kernel=MaternKernel(lengthscale=0.08, nu=1.5), points=x,
                        diagonal_shift=0.05 ** 2)


def rook_both(km, tol, **kw):
    Hb, permb = km.to_hodlr(leaf_size=32, tol=tol, method="rook", **kw)
    Hl, perml = km.to_hodlr(leaf_size=32, tol=tol, method="rook",
                            context=LOOP_CONTEXT, **kw)
    assert np.array_equal(permb, perml)
    return Hb, Hl


class TestLockstepRook:
    def test_gaussian_kernel_matches_loop(self):
        rng = np.random.default_rng(10)
        km = KernelMatrix(kernel=GaussianKernel(lengthscale=0.3),
                          points=rng.uniform(-1.0, 1.0, (1000, 2)), diagonal_shift=0.5)
        Hb, Hl = rook_both(km, 1e-10)
        assert Hb.rank_profile() == Hl.rank_profile()
        dense_l = Hl.to_dense()
        assert np.linalg.norm(Hb.to_dense() - dense_l) <= 1e-12 * np.linalg.norm(dense_l)

    def test_complex_helmholtz_matches_loop(self):
        kernel, shift = HelmholtzKernelProblem(n=600).kernel_spec()
        rng = np.random.default_rng(11)
        km = KernelMatrix(kernel=kernel, points=rng.uniform(-1.0, 1.0, (600, 2)),
                          diagonal_shift=shift)
        Hb, Hl = rook_both(km, 1e-8)
        assert all(np.iscomplexobj(u) for u in Hb.U.values())
        assert Hb.rank_profile() == Hl.rank_profile()
        dense_l = Hl.to_dense()
        assert np.linalg.norm(Hb.to_dense() - dense_l) <= 1e-12 * np.linalg.norm(dense_l)

    def test_max_rank_respected(self):
        km = gp_1d(512)
        Hb, Hl = rook_both(km, 1e-14, reorder=False, max_rank=3)
        assert Hb.max_rank <= 3
        assert Hb.rank_profile() == Hl.rank_profile()
        dense_l = Hl.to_dense()
        assert np.linalg.norm(Hb.to_dense() - dense_l) <= 1e-12 * np.linalg.norm(dense_l)

    def test_zero_and_rank_deficient_blocks(self):
        rng = np.random.default_rng(12)
        m, n = 40, 30
        low = rng.standard_normal((m, 3)) @ rng.standard_normal((3, n))
        # row 0 and column 0 vanish: the first pivot is exactly zero, so only
        # the random-row fallback can find the rank-3 part
        deficient = low.copy()
        deficient[0, :] = 0.0
        deficient[:, 0] = 0.0
        stack = np.stack([np.zeros((m, n)), deficient, low])
        cfg = CompressionConfig(tol=1e-12, method="rook")
        lockstep = compress_block_stack(stack, cfg)
        assert lockstep[0].rank == 0
        assert lockstep[0].U.shape == (m, 0) and lockstep[0].V.shape == (n, 0)
        for blk, f in zip(stack[1:], lockstep[1:]):
            ref = rook_pivot_compress_dense(blk, tol=1e-12)
            assert f.rank == ref.rank == 3
            scale = np.linalg.norm(blk)
            assert np.linalg.norm(f.to_dense() - blk) <= 1e-10 * scale
            assert np.linalg.norm(f.to_dense() - ref.to_dense()) <= 1e-12 * scale

    def test_dense_rook_stack_matches_loop_policy(self):
        rng = np.random.default_rng(13)
        blocks = [
            rng.standard_normal((m, 4)) @ rng.standard_normal((4, n))
            for m, n in [(20, 30), (16, 16), (20, 30), (16, 16), (8, 40)]
        ]
        cfg = CompressionConfig(tol=1e-12, method="rook")
        lockstep = compress_by_shape(blocks, cfg)
        looped = compress_by_shape(blocks, cfg, context=LOOP_CONTEXT)
        for blk, fb, fl in zip(blocks, lockstep, looped):
            assert fb.rank == fl.rank
            scale = np.linalg.norm(blk)
            assert np.linalg.norm(fb.to_dense() - fl.to_dense()) <= 1e-12 * scale

    def test_parallel_bit_identical(self):
        km = gp_1d(1024)
        tree = ClusterTree.balanced(1024, leaf_size=32)
        cfg = CompressionConfig(tol=1e-8, method="rook")
        H_serial = build_hodlr(km, tree, config=cfg)
        forced = ParallelPolicy(workers=2, min_tasks=2, min_task_elements=0)
        try:
            H_par = build_hodlr(km, tree, config=cfg,
                                context=ExecutionContext(parallel=forced))
        finally:
            shutdown_pool()
        for store in ("diag", "U", "V"):
            serial, par = getattr(H_serial, store), getattr(H_par, store)
            assert serial.keys() == par.keys()
            assert all(np.array_equal(serial[k], par[k]) for k in serial)

    def test_gathers_per_level_do_not_grow_with_blocks(self, monkeypatch):
        import repro.core.hodlr as hodlr_mod

        stack_kernel = hodlr_mod.rook_pivot_compress_stack
        per_call = []

        def counted(multi, rows, cols, **kw):
            calls = [0]

            def counted_multi(r, c):
                calls[0] += 1
                return multi(r, c)

            out = stack_kernel(counted_multi, rows, cols, **kw)
            per_call.append((rows.shape[0], calls[0]))
            return out

        monkeypatch.setattr(hodlr_mod, "rook_pivot_compress_stack", counted)
        gathers = {}
        for n in (2048, 8192):
            source = CountingSource(gp_1d(n))
            tree = ClusterTree.balanced(n, leaf_size=64)
            per_call.clear()
            H = build_hodlr(source, tree, config=CompressionConfig(tol=1e-8, method="rook"))
            # no entrywise call at all: the probe, the leaves and every
            # cross step go through the gather evaluator
            assert source.entry_calls == 0
            # power-of-two tree: one shape bucket per level, holding one
            # block per sibling pair (the symmetric kernel is mirrored)
            assert [b for b, _ in per_call] == [2 ** lv for lv in range(tree.levels)]
            assert source.block_calls == 2 + sum(c for _, c in per_call)
            # a cross step gathers one row stack, one column stack, at most
            # two more per rook refinement (3 of them) and two for a
            # zero-pivot retry; truncation can drop a cross or two
            for (_, calls), rank in zip(per_call, H.rank_profile()):
                assert calls <= 10 * (rank + 2)
            gathers[n] = max(c for _, c in per_call)
        # 4x the blocks per level, not 4x the gathers
        assert gathers[8192] <= gathers[2048] + 8


# ======================================================================
# batched compressors (unit level)
# ======================================================================
def compress_by_shape(blocks, cfg, context=None, rng=None):
    """Compress a list of dense blocks with one compress_block_stack call
    per shape bucket, returning the factors in input order."""
    out = [None] * len(blocks)
    for bucket in plan_batch([b.shape for b in blocks]).buckets:
        stack = np.stack([blocks[i] for i in bucket.indices])
        factors = compress_block_stack(stack, cfg, rng=rng, context=context)
        for i, f in zip(bucket.indices, factors):
            out[i] = f
    return out


class TestBatchedCompressors:
    def _blocks(self, rng, shapes, rank=6):
        out = []
        for m, n in shapes:
            out.append(
                rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
            )
        return out

    def test_svd_batched_heterogeneous_shapes(self):
        rng = np.random.default_rng(0)
        blocks = self._blocks(rng, [(20, 30), (16, 16), (20, 30), (16, 16), (8, 40)])
        factors = compress_by_shape(blocks, CompressionConfig(tol=1e-12, method="svd"))
        for blk, f in zip(blocks, factors):
            assert f.error_vs(blk) <= 1e-10 * np.linalg.norm(blk)
            assert f.rank <= 7

    def test_randomized_batched_matches_blocks(self):
        rng = np.random.default_rng(1)
        blocks = self._blocks(rng, [(32, 32)] * 6 + [(24, 40)] * 3, rank=5)
        factors = compress_by_shape(
            blocks, CompressionConfig(tol=1e-11, method="randomized"),
            rng=np.random.default_rng(2),
        )
        for blk, f in zip(blocks, factors):
            assert f.error_vs(blk) <= 1e-9 * np.linalg.norm(blk)

    def test_loop_policy_reproduces_per_block_path(self):
        rng = np.random.default_rng(2)
        blocks = self._blocks(rng, [(16, 16)] * 4, rank=3)
        cfg = CompressionConfig(tol=1e-12, method="svd")
        batched = compress_by_shape(blocks, cfg, context=ExecutionContext(policy=DEFAULT_POLICY))
        looped = compress_by_shape(blocks, cfg, context=LOOP_CONTEXT)
        for fb, fl, blk in zip(batched, looped, blocks):
            scale = np.linalg.norm(blk)
            assert np.linalg.norm(fb.to_dense() - fl.to_dense()) <= 1e-12 * scale

    def test_complex_blocks(self):
        rng = np.random.default_rng(3)
        blocks = [
            (rng.standard_normal((24, 4)) + 1j * rng.standard_normal((24, 4)))
            @ (rng.standard_normal((4, 24)) + 1j * rng.standard_normal((4, 24)))
            for _ in range(5)
        ]
        for factors in (
            compress_by_shape(blocks, CompressionConfig(tol=1e-12, method="svd")),
            compress_by_shape(blocks, CompressionConfig(tol=1e-12, method="randomized"),
                              rng=np.random.default_rng(4)),
        ):
            for blk, f in zip(blocks, factors):
                assert np.iscomplexobj(f.U)
                assert f.error_vs(blk) <= 1e-10 * np.linalg.norm(blk)


# ======================================================================
# sample-reusing range finder (randomized stacks, adaptive rank)
# ======================================================================
def helmholtz_km(n, kappa=20.0, seed=0):
    """A kd-tree ordered Helmholtz kernel matrix and its cluster tree."""
    kernel, shift = HelmholtzKernelProblem(n=n, kappa=kappa).kernel_spec()
    points = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, 2))
    tree, perm = ClusterTree.from_points(points, leaf_size=64)
    km = KernelMatrix(kernel=kernel, points=points[perm], diagonal_shift=shift)
    return km, tree


def level_stack(km, tree, level):
    """The off-diagonal blocks of one tree level as a ``(B, m, n)`` stack."""
    blocks = []
    for left, right in tree.sibling_pairs(level):
        blocks += [km.entries(left.indices, right.indices),
                   km.entries(right.indices, left.indices)]
    return np.stack(blocks)


def sampling_gemms(trace, m, n):
    """The sampling gemms ``(m, k) = A (n, k)`` of a trace.

    Sampling is the only gemm with shape ``(m, ., n)`` while the sample
    count stays below ``min(m, n)``.
    """
    return [
        e for e in trace.events
        if e.kernel == "gemm_strided_batched" and e.shape[0] == m and e.shape[2] == n
    ]


def sampled_columns(trace, m, n):
    """Test-matrix columns per block, summed over the sampling gemms."""
    return sum(e.shape[1] for e in sampling_gemms(trace, m, n))


def final_sample_count(rank, start=18):
    """The doubling schedule's first sample count the rank falls below."""
    count = start
    while count <= rank:
        count *= 2
    return count


class TestSampleReusingRangeFinder:
    TOL = 1e-6

    @pytest.fixture(scope="class")
    def helmholtz_stack(self):
        # level 1 of the n=1024 Helmholtz problem: two 512 x 512 blocks
        # whose ranks at 1e-6 take four sample rounds (18 .. 144)
        km, tree = helmholtz_km(1024)
        return level_stack(km, tree, 1)

    def compress(self, stack):
        cfg = CompressionConfig(tol=self.TOL, method="randomized")
        rec = get_recorder()
        with rec.recording() as trace:
            factors = compress_block_stack(stack, cfg, rng=np.random.default_rng(3))
        return factors, trace

    def test_multi_round_accuracy(self, helmholtz_stack):
        factors, trace = self.compress(helmholtz_stack)
        for blk, f in zip(helmholtz_stack, factors):
            s = np.linalg.svd(blk, compute_uv=False)
            assert abs(f.rank - int(np.sum(s > self.TOL * s[0]))) <= 1
            assert np.linalg.norm(f.to_dense() - blk) <= 10 * self.TOL * np.linalg.norm(blk)
        assert len(sampling_gemms(trace, 512, 512)) >= 3

    def test_no_resampling(self, helmholtz_stack):
        factors, trace = self.compress(helmholtz_stack)
        final = final_sample_count(max(f.rank for f in factors))
        # every round samples only its new columns: 18 + 18 + 36 + ... adds
        # up to the final count instead of 18 + 36 + 72 + ...
        assert final >= 72
        assert sampled_columns(trace, 512, 512) == final

    def test_single_block_resolves_in_the_loop(self, helmholtz_stack):
        blk = helmholtz_stack[:1]
        (f,), trace = self.compress(blk)
        # a lone multi-round block keeps its samples (no per-block restart,
        # which records no batched kernels at all)
        assert sampled_columns(trace, 512, 512) == final_sample_count(f.rank)
        assert all(e.batch == 1 for e in trace.events)
        s = np.linalg.svd(blk[0], compute_uv=False)
        assert abs(f.rank - int(np.sum(s > self.TOL * s[0]))) <= 1
        assert np.linalg.norm(f.to_dense() - blk[0]) <= 10 * self.TOL * np.linalg.norm(blk[0])

    @pytest.mark.parametrize("rank", [5, 25])
    def test_exhausted_range(self, rank):
        # exact rank 5 resolves in the first round; rank 25 overflows the
        # first 18 samples and exhausts the range in the second round
        rng = np.random.default_rng(rank)
        blk = rng.standard_normal((300, rank)) @ rng.standard_normal((rank, 300))
        (f,), _ = self.compress(blk[None])
        assert f.rank == rank
        assert np.abs(f.V.conj().T @ f.V - np.eye(rank)).max() <= 1e-12
        assert np.linalg.norm(f.to_dense() - blk) <= 1e-12 * np.linalg.norm(blk)

    def test_parallel_bit_identical(self):
        km, tree = helmholtz_km(1024)
        cfg = CompressionConfig(tol=self.TOL, method="randomized")
        H_serial = build_hodlr(km, tree, config=cfg)
        forced = ParallelPolicy(workers=2, min_tasks=2, min_task_elements=0)
        try:
            H_par = build_hodlr(km, tree, config=cfg,
                                context=ExecutionContext(parallel=forced))
        finally:
            shutdown_pool()
        assert H_serial.rank_profile()[0] > 2 * 18  # level 1 takes >= 3 rounds
        for store in ("diag", "U", "V"):
            serial, par = getattr(H_serial, store), getattr(H_par, store)
            assert serial.keys() == par.keys()
            assert all(np.array_equal(serial[k], par[k]) for k in serial)


# ======================================================================
# symmetric sources: one compressed block per sibling pair, mirrored
# ======================================================================
def gaussian_km(n, seed=10):
    """A kd-tree ordered 2-D Gaussian kernel matrix and its cluster tree."""
    points = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, 2))
    tree, perm = ClusterTree.from_points(points, leaf_size=32)
    km = KernelMatrix(kernel=GaussianKernel(lengthscale=0.3), points=points[perm],
                      diagonal_shift=0.5)
    return km, tree


def symmetric_sources():
    return {"gaussian": gaussian_km(600), "helmholtz": helmholtz_km(600)}


@pytest.fixture
def general_path(monkeypatch):
    """Build with the symmetry probe's verdict forced to "not symmetric"."""
    import repro.core.hodlr as hodlr_mod

    def build(source, tree, cfg):
        with monkeypatch.context() as m:
            m.setattr(hodlr_mod, "_probe_is_symmetric", lambda probe: False)
            return build_hodlr(source, tree, config=cfg)

    return build


def assert_bitwise_equal(H1, H2):
    for store in ("diag", "U", "V"):
        a, b = getattr(H1, store), getattr(H2, store)
        assert a.keys() == b.keys()
        assert all(np.array_equal(a[k], b[k]) for k in a)


def offdiagonal_evaluations(source, tree):
    """Entries evaluated beyond the leaf diagonal blocks and the probe."""
    from repro.core.hodlr import _probe_indices

    rows, cols, _ = _probe_indices(tree)
    diag = sum(leaf.size ** 2 for leaf in tree.leaves)
    return source.evaluated - diag - rows.size * cols.shape[1]


class TestSymmetricConstruction:
    TOL = 1e-8

    @pytest.mark.parametrize("name", ["gaussian", "helmholtz"])
    @pytest.mark.parametrize("method", ["svd", "rook"])
    def test_halved_kernel_evaluations(self, name, method, general_path):
        km, tree = symmetric_sources()[name]
        cfg = CompressionConfig(tol=self.TOL, method=method)
        mirrored, general = CountingSource(km), CountingSource(km)
        build_hodlr(mirrored, tree, config=cfg)
        general_path(general, tree, cfg)
        assert mirrored.entry_calls == general.entry_calls == 0
        off_m = offdiagonal_evaluations(mirrored, tree)
        off_g = offdiagonal_evaluations(general, tree)
        if method == "svd":
            # gathered stacks evaluate whole blocks: exactly half of them
            assert 2 * off_m == off_g
        else:
            # rook's crosses on A(I_r, I_l) mirror those on A(I_l, I_r)
            assert 2 * off_m <= 1.05 * off_g

    @pytest.mark.parametrize("name", ["gaussian", "helmholtz"])
    @pytest.mark.parametrize("method", ["svd", "randomized", "rook"])
    @pytest.mark.parametrize("schedule", ["batched", "loop"])
    def test_exact_mirror_and_accuracy(self, name, method, schedule):
        km, tree = symmetric_sources()[name]
        H = build_hodlr(km, tree, config=CompressionConfig(tol=self.TOL, method=method),
                        context=LOOP_CONTEXT if schedule == "loop" else None)
        for level in range(1, tree.levels + 1):
            for left, right in tree.sibling_pairs(level):
                assert np.array_equal(H.U[right.index], H.V[right.index].conj())
                assert np.array_equal(H.V[left.index], H.U[left.index].conj())
                # the bases are stored once: a real V is U itself, a complex
                # V is conj(U) computed on access
                real = not np.iscomplexobj(H.U[left.index])
                assert H.symmetric
                assert (H.V[left.index] is H.U[left.index]) == real
        A = H.to_dense()
        dense = km.dense()
        scale = np.linalg.norm(dense)
        # transposing reorders each gemm's accumulation, nothing more
        assert np.abs(A - A.T).max() <= 1e-14 * np.abs(A).max()
        assert np.linalg.norm(A - dense) <= 10 * self.TOL * scale

    def test_parallel_bit_identical(self):
        km, tree = symmetric_sources()["gaussian"]
        for method in ("svd", "randomized"):
            cfg = CompressionConfig(tol=self.TOL, method=method)
            H_serial = build_hodlr(km, tree, config=cfg)
            forced = ParallelPolicy(workers=2, min_tasks=2, min_task_elements=0)
            try:
                H_par = build_hodlr(km, tree, config=cfg,
                                    context=ExecutionContext(parallel=forced))
            finally:
                shutdown_pool()
            assert_bitwise_equal(H_serial, H_par)


def perturbed_probe_matrices(n=256):
    """A symmetric matrix, and a copy with one sampled entry per sibling
    pair perturbed so only the probe can tell them apart."""
    from repro.core.hodlr import _probe_indices

    tree = ClusterTree.balanced(n, leaf_size=32)
    A = smooth_matrix(n, np.random.default_rng(20))
    rows, cols, _ = _probe_indices(tree)
    perturbed = A.copy()
    perturbed[rows[0::2, 0], cols[0::2, -1]] *= 1.0 + 1e-12
    return A, perturbed, tree


def nonsymmetric_sources():
    A, perturbed, tree = perturbed_probe_matrices()
    n = tree.n
    rng = np.random.default_rng(21)

    def skewed(X, Y):
        # an x-dependent factor on the rows of a radial kernel
        dist = np.sqrt(((X[..., :, None, :] - Y[..., None, :, :]) ** 2).sum(-1))
        return (1.5 + X[..., :, 0])[..., :, None] * np.exp(-dist / 0.5)

    x = np.sort(rng.uniform(0.0, 1.0, n))
    return tree, {
        "dense": A + 0.01 * np.triu(A, 1),
        "x_dependent": KernelMatrix(kernel=skewed, points=x, diagonal_shift=1.0),
        "hermitian": smooth_matrix(n, rng, complex_dtype=True),
        "perturbed_probe": perturbed,
    }


class TestGeneralPathKept:
    @pytest.mark.parametrize("name", ["dense", "x_dependent", "hermitian",
                                      "perturbed_probe"])
    @pytest.mark.parametrize("method", ["svd", "randomized", "rook"])
    def test_nonsymmetric_sources_unchanged(self, name, method, general_path):
        tree, sources = nonsymmetric_sources()
        source = sources[name]
        cfg = CompressionConfig(tol=1e-10, method=method)
        H = build_hodlr(source, tree, config=cfg)
        assert_bitwise_equal(H, general_path(source, tree, cfg))
        dense = source.dense() if hasattr(source, "dense") else source
        assert np.linalg.norm(H.to_dense() - dense) <= 1e-8 * np.linalg.norm(dense)

    def test_perturbation_defeats_the_probe(self):
        from repro.core.hodlr import _probe_indices, _probe_is_symmetric

        A, perturbed, tree = perturbed_probe_matrices()
        rows, cols, paired = _probe_indices(tree)
        assert paired
        index = (rows[:, :, None], cols[:, None, :])
        assert _probe_is_symmetric(A[index])
        assert not _probe_is_symmetric(perturbed[index])


# ======================================================================
# the compiled apply plan
# ======================================================================
class TestApplyPlan:
    @pytest.mark.parametrize("complex_dtype", [False, True])
    @pytest.mark.parametrize("n,leaf", [(256, 32), (300, 32)])
    def test_plan_matches_loop_matvec(self, complex_dtype, n, leaf):
        rng = np.random.default_rng(0)
        A = smooth_matrix(n, rng, complex_dtype=complex_dtype)
        tree = ClusterTree.balanced(n, leaf_size=leaf)
        H = build_hodlr(A, tree, config=CompressionConfig(tol=1e-12, method="svd"))
        x = rng.standard_normal(n)
        X = rng.standard_normal((n, 3))
        plan = ApplyPlan(H)
        dense = H.to_dense()
        for v in (x, X):
            y_plan = plan.matvec(v)
            for ref in (H.matvec(v), dense @ v):
                assert np.linalg.norm(y_plan - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_plan_handles_adaptive_ranks(self):
        # tol-driven ranks differ per block -> several (m, n, r) buckets
        # (2-D Gaussian kernel: off-diagonal ranks genuinely vary per level)
        rng = np.random.default_rng(1)
        x = np.sort(rng.uniform(0.0, 1.0, 300))
        A = np.exp(-0.5 * ((x[:, None] - x[None, :]) / 0.15) ** 2) + np.eye(300)
        tree = ClusterTree.balanced(300, leaf_size=32)
        H = build_hodlr(A, tree, config=CompressionConfig(tol=1e-8, method="svd"))
        ranks = {H.U[i].shape[1] for i in H.U}
        assert len(ranks) > 1  # genuinely heterogeneous
        x = rng.standard_normal(300)
        y_plan = ApplyPlan(H).matvec(x)
        for ref in (H.matvec(x), H.to_dense() @ x):
            assert np.linalg.norm(y_plan - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_plan_dtype_promotion(self):
        rng = np.random.default_rng(2)
        A = smooth_matrix(128, rng)
        tree = ClusterTree.balanced(128, leaf_size=16)
        H = build_hodlr(A, tree, config=CompressionConfig(tol=1e-12, method="svd"))
        z = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        y_plan = ApplyPlan(H).matvec(z)
        assert np.iscomplexobj(y_plan)
        for ref in (H.matvec(z), H.to_dense() @ z):
            assert np.linalg.norm(y_plan - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_plan_dimension_mismatch(self):
        rng = np.random.default_rng(4)
        A = smooth_matrix(64, rng)
        tree = ClusterTree.balanced(64, leaf_size=16)
        H = build_hodlr(A, tree, config=CompressionConfig(tol=1e-12, method="svd"))
        with pytest.raises(ValueError, match="dimension mismatch"):
            ApplyPlan(H).matvec(np.zeros(63))

    def test_operator_builds_plan_lazily(self):
        rng = np.random.default_rng(5)
        A = smooth_matrix(128, rng)
        op = HODLROperator(
            build_hodlr(A, ClusterTree.balanced(128, leaf_size=16),
                        config=CompressionConfig(tol=1e-12, method="svd")),
            SolverConfig(),
        )
        assert op.apply_plan is None
        x = rng.standard_normal(128)
        y = op @ x
        assert op.apply_plan is not None  # compiled on first application
        assert np.linalg.norm(y - A @ x) <= 1e-8 * np.linalg.norm(x)
        # reused across subsequent applications (the Krylov-loop case)
        plan = op.apply_plan
        _ = op @ x
        assert op.apply_plan is plan
        # dtype refactorization invalidates it
        z = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        op.solve(z)
        assert op.apply_plan is None or op.apply_plan is not plan


# ======================================================================
# launch counting: O(levels x buckets), not O(nodes)
# ======================================================================
class TestLaunchCounters:
    def test_apply_plan_launch_count(self):
        rng = np.random.default_rng(0)
        n, leaf = 512, 32  # uniform tree: one shape bucket per level
        A = smooth_matrix(n, rng)
        tree = ClusterTree.balanced(n, leaf_size=leaf)
        H = build_hodlr(
            A, tree, config=CompressionConfig(tol=1e-10, method="svd", max_rank=8)
        )
        plan = ApplyPlan(H)
        rec = get_recorder()
        with rec.recording() as trace:
            plan.matvec(rng.standard_normal(n))
        assert trace.num_kernel_launches == plan.launches_per_apply
        # uniform ranks: 1 diag bucket + 2 launches per level
        assert plan.launches_per_apply <= 1 + 2 * tree.levels
        # versus one Python iteration per node in the loop path
        assert plan.launches_per_apply < tree.num_nodes

    def test_batched_construction_launch_count(self):
        rng = np.random.default_rng(1)
        n, leaf = 512, 32
        A = smooth_matrix(n, rng)
        tree = ClusterTree.balanced(n, leaf_size=leaf)
        rec = get_recorder()
        with rec.recording() as trace:
            build_hodlr(
                A, tree,
                config=CompressionConfig(tol=1e-10, method="svd", construction="batched"),
            )
        # one batched SVD per shape bucket per level (uniform tree: 1 bucket)
        assert trace.num_kernel_launches == tree.levels
        with rec.recording() as trace_rand:
            build_hodlr(
                A, tree,
                config=CompressionConfig(tol=1e-10, method="randomized", max_rank=12,
                                         construction="batched"),
            )
        # fixed-rank randomized: sample gemm + qr + project gemm + svd per
        # bucket per level (no straggler rounds)
        assert trace_rand.num_kernel_launches == 4 * tree.levels
        # the per-block schedule records no batched kernels at all (pure
        # per-block numpy)
        with rec.recording() as trace_loop:
            build_hodlr(
                A, tree, config=CompressionConfig(tol=1e-10, method="svd"),
                context=LOOP_CONTEXT,
            )
        assert trace_loop.num_kernel_launches == 0


# ======================================================================
# KernelMatrix: diagonal shift + gather evaluator
# ======================================================================
class TestKernelMatrixEntries:
    def _km(self, n=60, shift=0.7):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0.0, 1.0, (n, 2))
        return KernelMatrix(kernel=GaussianKernel(lengthscale=0.3), points=pts,
                            diagonal_shift=shift)

    def _reference(self, km, rows, cols):
        block = np.asarray(km.kernel(km.points[rows], km.points[cols]))
        return block + km.diagonal_shift * (rows[:, None] == cols[None, :])

    def test_disjoint_ranges_skip_shift_work(self):
        km = self._km()
        rows, cols = np.arange(0, 20), np.arange(30, 55)
        np.testing.assert_allclose(km.entries(rows, cols),
                                   self._reference(km, rows, cols), rtol=0, atol=0)

    def test_overlapping_ranges_sparse_intersection(self):
        km = self._km()
        rows, cols = np.arange(10, 40), np.arange(25, 55)
        np.testing.assert_allclose(km.entries(rows, cols),
                                   self._reference(km, rows, cols), rtol=0, atol=0)

    def test_shuffled_and_duplicate_indices(self):
        km = self._km()
        rng = np.random.default_rng(1)
        rows = rng.permutation(60)[:30]
        cols = rng.permutation(60)[:30]
        np.testing.assert_allclose(km.entries(rows, cols),
                                   self._reference(km, rows, cols), rtol=0, atol=0)
        # duplicate columns exercise the dense-mask fallback
        cols_dup = np.concatenate([cols[:10], cols[:10], cols[10:20]])
        np.testing.assert_allclose(km.entries(rows, cols_dup),
                                   self._reference(km, rows, cols_dup), rtol=0, atol=0)

    def test_diagonal_block_gets_shift(self):
        km = self._km()
        rows = np.arange(12, 24)
        blk = km.entries(rows, rows)
        np.testing.assert_allclose(np.diag(blk),
                                   1.0 + km.diagonal_shift * np.ones(12))

    def test_entries_blocks_matches_entries(self):
        km = self._km()
        rows = np.stack([np.arange(0, 16), np.arange(16, 32), np.arange(5, 21)])
        cols = np.stack([np.arange(32, 48), np.arange(40, 56), np.arange(10, 26)])
        stack = km.entries_blocks(rows, cols)
        assert stack.shape == (3, 16, 16)
        for b in range(3):
            np.testing.assert_allclose(stack[b], km.entries(rows[b], cols[b]),
                                       rtol=0, atol=1e-14)

    def test_entries_blocks_shift_with_duplicate_columns(self):
        km = self._km()
        rows = np.stack([np.arange(0, 8), np.arange(10, 18), np.arange(40, 48)])
        cols = np.stack([
            np.arange(20, 28),                    # disjoint ranges: no shift
            np.array([12, 12, 15, 30, 11, 17, 17, 5]),  # overlap, duplicates
            np.array([47, 41, 41, 0, 1, 44, 2, 3]),     # overlap, shuffled
        ])
        stack = km.entries_blocks(rows, cols)
        for b in range(3):
            np.testing.assert_allclose(stack[b], self._reference(km, rows[b], cols[b]),
                                       rtol=0, atol=1e-15)

    def test_entries_blocks_shape_validation(self):
        km = self._km()
        with pytest.raises(ValueError, match="entries_blocks"):
            km.entries_blocks(np.arange(4), np.arange(4))

    def test_entries_never_mutates_kernel_output(self):
        # a kernel returning a cached buffer must not have the diagonal
        # shift accumulated into its own storage across calls
        cache = {}

        def caching_kernel(X, Y):
            key = (X.shape, Y.shape)
            if key not in cache:
                cache[key] = np.ones(X.shape[:-1] + (Y.shape[-2],))
            return cache[key]

        km = KernelMatrix(kernel=caching_kernel, points=np.arange(8.0),
                          diagonal_shift=1.0)
        rows = np.arange(4)
        first = km.entries(rows, rows)
        second = km.entries(rows, rows)
        np.testing.assert_allclose(first, second)
        np.testing.assert_allclose(np.diag(second), 2.0 * np.ones(4))
        # same guarantee for the multi-block gather evaluator
        rows2 = np.stack([np.arange(4), np.arange(4, 8)])
        s1 = km.entries_blocks(rows2, rows2)
        s2 = km.entries_blocks(rows2, rows2)
        np.testing.assert_allclose(s1, s2)
        np.testing.assert_allclose(np.diag(s2[0]), 2.0 * np.ones(4))

    def test_entries_blocks_readonly_kernel_output(self):
        # kernels built on np.broadcast_to return read-only stacks; the
        # shift path must copy instead of raising
        def const_kernel(X, Y):
            return np.broadcast_to(1.0, X.shape[:-1] + (Y.shape[-2],))

        km = KernelMatrix(kernel=const_kernel, points=np.arange(8.0),
                          diagonal_shift=0.5)
        rows = np.stack([np.arange(4), np.arange(4, 8)])
        stack = km.entries_blocks(rows, rows)
        np.testing.assert_allclose(stack[0], np.ones((4, 4)) + 0.5 * np.eye(4))
        np.testing.assert_allclose(stack[1], np.ones((4, 4)) + 0.5 * np.eye(4))


# ======================================================================
# the plan factorization on the batched kernels
# ======================================================================
class TestFlatBatchedLU:
    def test_policy_equivalence(self):
        rng = np.random.default_rng(0)
        A = smooth_matrix(256, rng)
        tree = ClusterTree.balanced(256, leaf_size=16)  # small leaves: the
        # vectorised batched LU crossover actually engages
        H = build_hodlr(A, tree, config=CompressionConfig(tol=1e-12, method="svd"))
        b = rng.standard_normal(256)
        x_def = BatchedFactorization(
            hodlr=H, context=ExecutionContext(policy=DEFAULT_POLICY)
        ).factorize().solve(b)
        x_loop = BatchedFactorization(
            hodlr=H, context=ExecutionContext(policy=LOOP_POLICY)
        ).factorize().solve(b)
        assert np.linalg.norm(x_def - x_loop) <= 1e-12 * np.linalg.norm(x_loop)
        assert np.linalg.norm(A @ x_def - b) <= 1e-8 * np.linalg.norm(b)

    def test_flat_solver_respects_dispatch_policy(self):
        rng = np.random.default_rng(1)
        A = smooth_matrix(128, rng)
        tree = ClusterTree.balanced(128, leaf_size=16)
        H = build_hodlr(A, tree, config=CompressionConfig(tol=1e-12, method="svd"))
        b = rng.standard_normal(128)
        s1 = HODLRSolver(H, variant="batched", context=LOOP_CONTEXT).factorize()
        s2 = HODLRSolver(H, variant="batched").factorize()
        assert s1._impl.context.policy.bucketing is False
        assert s2._impl.context.policy.bucketing is True
        assert np.linalg.norm(s1.solve(b) - s2.solve(b)) <= 1e-12 * np.linalg.norm(b)

    def test_slogdet_unchanged(self):
        rng = np.random.default_rng(2)
        A = smooth_matrix(128, rng)
        A = A @ A.T + 128 * np.eye(128)  # SPD: well-defined logdet
        tree = ClusterTree.balanced(128, leaf_size=16)
        H = build_hodlr(A, tree, config=CompressionConfig(tol=1e-12, method="svd"))
        fac = BatchedFactorization(hodlr=H).factorize()
        _, expected = np.linalg.slogdet(A)
        assert abs(fac.logdet() - expected) <= 1e-6 * abs(expected)


# ======================================================================
# facade plumbing
# ======================================================================
class TestConstructionConfig:
    def test_round_trip(self):
        cfg = SolverConfig(compression=ApiCompressionConfig(construction="peeling"))
        assert SolverConfig.from_dict(cfg.to_dict()) == cfg
        assert cfg.compression.core_config().construction == "peeling"
        assert ApiCompressionConfig().construction == "batched"

    def test_validation(self):
        for mode in ("nope", "loop"):
            with pytest.raises(ConfigError, match="construction"):
                ApiCompressionConfig(construction=mode)

    def test_facade_solves_agree(self):
        import repro

        rng = np.random.default_rng(0)
        b = rng.standard_normal(512)
        kwargs = dict(n=512, seed=11)
        res_b = repro.solve(
            "gaussian_kernel", b,
            config=SolverConfig(compression=ApiCompressionConfig(
                tol=1e-10, method="randomized", construction="batched")),
            **kwargs,
        )
        res_l = repro.solve(
            "gaussian_kernel", b,
            config=SolverConfig(dispatch_policy=LOOP_POLICY, compression=ApiCompressionConfig(
                tol=1e-10, method="randomized")),
            **kwargs,
        )
        assert res_b.relative_residual <= 1e-8
        assert np.linalg.norm(res_b.x - res_l.x) <= 1e-6 * np.linalg.norm(res_l.x)
