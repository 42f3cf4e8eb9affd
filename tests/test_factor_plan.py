"""Compiled FactorPlan/SolvePlan (PR 5).

Covers the acceptance criteria of the plan refactor:

* plan-vs-reference equivalence to 1e-12 for both factorization variants
  (real/complex, adaptive ranks, non-power-of-two N) — the reference is
  the per-node recursion (``variant="recursive"``, which builds no plan);
* launch-count assertions: ``num_kernel_launches`` per solve equals the
  compiled plan's ``launches_per_solve`` (and every one is a plan replay);
* float32 factor storage accuracy plus the refinement round-trip;
* the ``from_config`` precedence regression (an explicit dispatch policy,
  passed as ``context=config.execution_context().replace(policy=...)``,
  must not lose the config's ``precision`` policy).
"""

import numpy as np
import pytest

from conftest import complex_test_matrix, hodlr_friendly_matrix, spd_kernel_matrix

from repro import (
    BatchedFactorization,
    ClusterTree,
    DispatchPolicy,
    ExecutionContext,
    HODLRMatrix,
    HODLROperator,
    HODLRSolver,
    PrecisionPolicy,
    RecursiveFactorization,
    build_hodlr,
)
from repro.api import SolverConfig
from repro.backends.counters import get_recorder
from repro.backends.dispatch import LOOP_POLICY

VARIANTS = ["recursive", "batched"]


def make_problem(n=256, leaf=32, tol=1e-12, seed=0, kind="real", method="svd",
                 max_rank=None):
    if kind == "complex":
        A = complex_test_matrix(n, seed=seed)
    else:
        A = hodlr_friendly_matrix(n, seed=seed)
    tree = ClusterTree.balanced(n, leaf_size=leaf)
    H = build_hodlr(A, tree, tol=tol, method=method, max_rank=max_rank)
    return A, H


def factorize(H, variant, **kw):
    if variant == "recursive":
        return RecursiveFactorization(hodlr=H, **kw).factorize()
    return BatchedFactorization(hodlr=H, **kw).factorize()


def reference_solve(H, b):
    """The per-node recursion of section III-A, with no compiled plan."""
    return RecursiveFactorization(hodlr=H).factorize().solve(b)


# ======================================================================
# plan-vs-reference equivalence
# ======================================================================
class TestPlanEquivalence:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_plan_matches_sweep(self, variant, kind, rng):
        n = 192 if kind == "complex" else 256
        A, H = make_problem(n=n, leaf=24, kind=kind)
        fac = factorize(H, variant)
        # only the batched variant compiles a plan; the reference recurses
        assert (getattr(fac, "solve_plan", None) is None) == (variant == "recursive")
        b = rng.standard_normal(n)
        if kind == "complex":
            b = b + 1j * rng.standard_normal(n)
        x_plan = fac.solve(b)
        x_sweep = reference_solve(H, b)
        assert (
            np.linalg.norm(x_plan - x_sweep) / np.linalg.norm(x_sweep) < 1e-12
        )
        assert np.linalg.norm(A @ x_plan - b) / np.linalg.norm(b) < 1e-9

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_adaptive_ranks_non_power_of_two(self, variant, rng):
        """Adaptive (uncapped) truncated-SVD ranks over a 300-point tree:
        heterogeneous node sizes and per-level ranks through the plan."""
        n = 300
        A = hodlr_friendly_matrix(n, seed=11)
        tree = ClusterTree.balanced(n, leaf_size=40)
        H = build_hodlr(A, tree, tol=1e-11, method="svd")
        fac = factorize(H, variant)
        b = rng.standard_normal(n)
        x_plan = fac.solve(b)
        x_sweep = reference_solve(H, b)
        assert np.linalg.norm(x_plan - x_sweep) / np.linalg.norm(x_sweep) < 1e-12
        assert np.linalg.norm(A @ x_plan - b) / np.linalg.norm(b) < 1e-8

    def test_all_variants_agree_through_shared_plan(self, rng):
        A, H = make_problem(seed=3)
        b = rng.standard_normal(A.shape[0])
        sols = [factorize(H, v).solve(b) for v in VARIANTS]
        ref = np.linalg.norm(sols[0])
        assert np.linalg.norm(sols[0] - sols[1]) / ref < 1e-12

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_multiple_rhs_through_plan(self, variant, rng):
        A, H = make_problem()
        fac = factorize(H, variant)
        B = rng.standard_normal((A.shape[0], 5))
        X = fac.solve(B)
        assert X.shape == B.shape
        assert np.linalg.norm(A @ X - B) / np.linalg.norm(B) < 1e-9

    def test_pivot_false_through_plan(self, rng):
        A, H = make_problem()
        fac = BatchedFactorization(hodlr=H, pivot=False).factorize()
        assert fac.factor_plan.pivot is False
        b = rng.standard_normal(A.shape[0])
        x_plan = fac.solve(b)
        x_sweep = reference_solve(H, b)
        assert np.linalg.norm(x_plan - x_sweep) / np.linalg.norm(x_sweep) < 1e-12
        assert np.linalg.norm(A @ x_plan - b) / np.linalg.norm(b) < 1e-9

    @pytest.mark.parametrize("variant", ["recursive"])
    def test_loop_policy_skips_plan(self, variant, rng):
        """The recursive variant stays on the per-node recursion under any
        policy: no plan is built."""
        A, H = make_problem(n=128, leaf=32)
        ctx = ExecutionContext(policy=LOOP_POLICY)
        solver = HODLRSolver(H, variant=variant, context=ctx).factorize()
        assert solver.solve_plan is None and solver.factor_plan is None
        b = rng.standard_normal(A.shape[0])
        x = solver.solve(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-9

    @pytest.mark.parametrize("variant", ["batched"])
    def test_loop_policy_still_compiles_plan(self, variant, rng):
        """Under LOOP_POLICY the plan variants still compile the plan and
        issue the same launches: the policy changes only construction."""
        A, H = make_problem(n=128, leaf=32)
        solver = HODLRSolver(H, variant=variant, context=ExecutionContext(policy=LOOP_POLICY))
        solver.factorize()
        assert solver.solve_plan is not None
        b = rng.standard_normal(A.shape[0])
        x = solver.solve(b)
        assert solver.last_solve_trace.num_plan_launches == (
            solver.solve_plan.launches_per_solve
        )
        x_default = HODLRSolver(H, variant=variant).factorize().solve(b)
        assert np.linalg.norm(x - x_default) / np.linalg.norm(x_default) < 1e-12
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-9

    def test_loop_policy_factorizes_bitwise_like_default(self, rng):
        """LOOP_POLICY changes construction only: on a tree whose deep
        levels vectorise their Schur-complement LU (many nodes of rank at
        most 12), its factorization is bitwise the default's."""
        A, H = make_problem(n=1024, leaf=16, tol=1e-8)
        fac = [
            HODLRSolver(H, context=ExecutionContext(policy=policy)).factorize()
            for policy in (None, LOOP_POLICY)
        ]
        with get_recorder().recording() as trace:
            HODLRSolver(H).factorize()
        assert any(
            e.batch >= 24 and e.shape[0] <= 12 for e in trace.filter(kernel="getrf_batched").events
        )
        for (f, piv), (f_ref, piv_ref) in zip(*(s.factor_plan.leaf_factor_views() for s in fac)):
            assert np.array_equal(f, f_ref) and np.array_equal(piv, piv_ref)
        b = rng.standard_normal(1024)
        assert np.array_equal(fac[1].solve(b), fac[0].solve(b))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_slogdet_unchanged_by_plan(self, variant):
        A, H = make_problem(n=192, leaf=24, seed=7)
        fac = factorize(H, variant)
        sign_ref, logdet_ref = np.linalg.slogdet(A)
        sign, logabs = fac.slogdet()
        assert np.real(sign) * sign_ref > 0
        assert logabs == pytest.approx(logdet_ref, rel=1e-8)


# ======================================================================
# launch accounting
# ======================================================================
class TestLaunchCounts:
    def test_solve_launches_equal_plan_size(self, rng):
        _, H = make_problem(n=256, leaf=32)
        solver = HODLRSolver(H, variant="batched").factorize()
        b = rng.standard_normal(256)
        solver.solve(b)
        plan = solver.solve_plan
        trace = solver.last_solve_trace
        assert plan is not None
        assert trace.num_kernel_launches == plan.launches_per_solve
        # every launch of a compiled solve is a plan replay
        assert trace.num_plan_launches == plan.launches_per_solve

    def test_launches_scale_with_levels_not_nodes(self, rng):
        _, H = make_problem(n=512, leaf=32)
        solver = HODLRSolver(H, variant="batched").factorize()
        solver.solve(rng.standard_normal(512))
        tree = H.tree
        plan = solver.solve_plan
        # uniform tree: 1 leaf bucket + (2 gemm + 1 schur_solve) per level
        assert plan.launches_per_solve <= 1 + 3 * tree.levels
        assert plan.launches_per_solve < tree.num_nodes

    def test_repeated_solves_reuse_plan(self, rng):
        _, H = make_problem(n=256, leaf=32)
        solver = HODLRSolver(H, variant="batched").factorize()
        plan_first = solver.solve_plan
        for _ in range(3):
            solver.solve(rng.standard_normal(256))
        assert solver.solve_plan is plan_first


# ======================================================================
# precision: float32 factor storage + refinement round-trip
# ======================================================================
class TestFactorPrecision:
    def test_float32_factor_accuracy_and_footprint(self, rng):
        A, H = make_problem(n=256, leaf=32)
        b = rng.standard_normal(256)
        op64 = HODLROperator(H).factorize()
        op32 = HODLROperator(
            H, precision=PrecisionPolicy(factor="float32")
        ).factorize()
        x64 = op64.solve(b)
        x32 = op32.solve(b)
        res64 = np.linalg.norm(A @ x64 - b) / np.linalg.norm(b)
        res32 = np.linalg.norm(A @ np.asarray(x32, float) - b) / np.linalg.norm(b)
        assert res64 < 1e-12
        assert res32 < 1e-4  # single-precision-grade
        assert res32 > res64  # genuinely demoted
        p64 = op64.solver.factor_plan
        p32 = op32.solver.factor_plan
        assert p32.demoted and not p64.demoted
        # the bytes one solve's kernels stream (owned bytes exclude the V^*
        # views of the float64 plan, so they do not measure the demotion)
        def streamed(plan):
            with get_recorder().recording() as trace:
                plan.solve_plan().solve(b)
            return trace.total_bytes

        assert streamed(p32) < 0.75 * streamed(p64)
        # the output dtype is unchanged (float64 accumulation)
        assert np.asarray(x32).dtype == np.float64
        # same launch count as the full-precision plan
        assert p32.launches_per_solve == p64.launches_per_solve

    def test_refinement_roundtrip(self, rng):
        A, H = make_problem(n=256, leaf=32)
        b = rng.standard_normal(256)
        op64 = HODLROperator(H)
        opref = HODLROperator(
            H, precision=PrecisionPolicy(factor="float32", refine=True)
        )
        res64 = np.linalg.norm(A @ op64.solve(b) - b) / np.linalg.norm(b)
        resref = np.linalg.norm(A @ opref.solve(b) - b) / np.linalg.norm(b)
        # one refinement step restores ~full precision
        assert resref < 1e-10
        assert abs(resref - res64) < 1e-10

    def test_factor_min_level_demotes_deep_levels_only(self):
        _, H = make_problem(n=256, leaf=32)
        ctx = ExecutionContext(
            precision=PrecisionPolicy(factor="float32", factor_min_level=3)
        )
        solver = HODLRSolver(H, context=ctx).factorize()
        dtypes = solver.factor_plan.storage_dtypes()
        for level, dt in dtypes.items():
            expected = np.float32 if level >= 3 else np.float64
            assert dt == np.dtype(expected), (level, dt)

    def test_complex_factor_demotion(self, rng):
        A, H = make_problem(n=192, leaf=24, kind="complex")
        ctx = ExecutionContext(precision=PrecisionPolicy(factor="float32"))
        solver = HODLRSolver(H, context=ctx).factorize()
        dtypes = set(solver.factor_plan.storage_dtypes().values())
        assert dtypes == {np.dtype("complex64")}
        b = rng.standard_normal(192) + 1j * rng.standard_normal(192)
        x = solver.solve(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-3

    def test_precision_policy_serialises(self):
        cfg = SolverConfig(
            precision=PrecisionPolicy(factor="float32", factor_min_level=2, refine=True)
        )
        rt = SolverConfig.from_dict(cfg.to_dict())
        assert rt == cfg
        assert rt.precision.factor == "float32"
        assert rt.precision.factor_min_level == 2

    def test_invalid_factor_dtype_rejected(self):
        with pytest.raises(ValueError):
            PrecisionPolicy(factor="int32")
        with pytest.raises(ValueError):
            PrecisionPolicy(factor_min_level=-1)


# ======================================================================
# Cholesky leaves of real symmetric matrices
# ======================================================================
def _lu_twin(H):
    """The same matrix without the ``symmetric`` mark: the plan factors its
    leaves with pivoted LU."""
    return HODLRMatrix(
        tree=H.tree, diag=dict(H.diag), U=dict(H.U), V=dict(H.V), symmetric=False
    )


def _spd_problem(n, leaf, seed=0):
    A = spd_kernel_matrix(n, seed=seed)
    H = build_hodlr(A, ClusterTree.balanced(n, leaf_size=leaf), tol=1e-12, method="svd")
    assert H.symmetric
    return A, H


def _leaf_kinds(fac):
    return {lb.kind for lb in fac.factor_plan.leaf_buckets}


class TestCholeskyLeaves:
    @pytest.mark.parametrize(
        "n, leaf, policy",
        [
            (256, 32, None),  # uniform tree: one leaf bucket
            (300, 40, None),  # odd leaves: sizes 37 and 38
            (300, 40, LOOP_POLICY),  # the per-block reference factors alike
        ],
    )
    def test_matches_dense_and_lu_plan(self, n, leaf, policy, rng):
        A, H = _spd_problem(n, leaf)
        ctx = ExecutionContext(policy=policy) if policy else None
        chol = factorize(H, "batched", context=ctx)
        lu = factorize(_lu_twin(H), "batched", context=ctx)
        assert _leaf_kinds(chol) == {"cholesky"} and _leaf_kinds(lu) == {"lu"}
        assert chol.factor_plan.leaf_fallbacks == 0
        assert all(lb.piv3 is None for lb in chol.factor_plan.leaf_buckets)
        b = rng.standard_normal((n, 3))
        x, x_lu = chol.solve(b), lu.solve(b)
        x_dense = np.linalg.solve(A, b)
        assert np.linalg.norm(x - x_dense) / np.linalg.norm(x_dense) < 1e-8
        assert np.linalg.norm(x - x_lu) / np.linalg.norm(x_lu) < 1e-11
        assert chol.solve_plan.launches_per_solve == lu.solve_plan.launches_per_solve
        # the pivots are gone: the plan is smaller by their bytes
        piv = sum(lb.piv3.nbytes for lb in lu.factor_plan.leaf_buckets)
        assert chol.factor_plan.nbytes == lu.factor_plan.nbytes - piv

    def test_solve_launches_are_one_potrs_per_bucket(self, rng):
        _, H = _spd_problem(300, 40)
        fac = factorize(H, "batched")
        with get_recorder().recording() as trace:
            fac.solve(rng.standard_normal(300))
        assert trace.num_kernel_launches == fac.solve_plan.launches_per_solve
        potrs = trace.filter(kernel="potrs_batched").events
        assert len(potrs) == len(fac.factor_plan.leaf_buckets)

    def test_float32_factor_storage(self, rng):
        A, H = _spd_problem(256, 32)
        ctx = ExecutionContext(precision=PrecisionPolicy(factor="float32"))
        chol = factorize(H, "batched", context=ctx)
        lu = factorize(_lu_twin(H), "batched", context=ctx)
        plan = chol.factor_plan
        assert plan.demoted and _leaf_kinds(chol) == {"cholesky"}
        assert all(lb.factor3.dtype == np.float32 for lb in plan.leaf_buckets)
        b = rng.standard_normal(256)
        x64 = np.linalg.solve(A, b)
        err = np.linalg.norm(chol.solve(b) - x64) / np.linalg.norm(x64)
        err_lu = np.linalg.norm(lu.solve(b) - x64) / np.linalg.norm(x64)
        # single-precision grade, and no worse than the demoted LU leaves
        assert err < 1e-3
        assert err < 4 * err_lu

    @pytest.mark.parametrize("n, leaf", [(256, 32), (300, 40)])
    def test_slogdet_matches_dense(self, n, leaf):
        A, H = _spd_problem(n, leaf)
        sign, logabs = factorize(H, "batched").slogdet()
        s_ref, l_ref = np.linalg.slogdet(A)
        assert sign == 1.0 and s_ref == 1.0
        assert logabs == pytest.approx(l_ref, rel=1e-9)

    def test_indefinite_source_falls_back_to_lu(self, rng):
        """A symmetric but indefinite source: its leaf blocks have no
        Cholesky factor, so every bucket factors with pivoted LU and the
        plan says so."""
        n = 300
        x = np.sort(rng.uniform(0.0, 1.0, n))
        signs = np.where(np.arange(n) % 2, 1.0, -1.0)
        A = 1.0 / (1.0 + 50.0 * np.abs(x[:, None] - x[None, :])) + n * np.diag(signs)
        H = build_hodlr(A, ClusterTree.balanced(n, leaf_size=40), tol=1e-12, method="svd")
        assert H.symmetric
        fac = factorize(H, "batched")
        plan = fac.factor_plan
        assert _leaf_kinds(fac) == {"lu"}
        assert all(lb.fallback for lb in plan.leaf_buckets)
        assert plan.leaf_fallbacks == len(plan.leaf_buckets) == 2
        b = rng.standard_normal(n)
        assert np.linalg.norm(A @ fac.solve(b) - b) / np.linalg.norm(b) < 1e-10
        # bitwise the plan of the same matrix without the symmetric mark
        assert np.array_equal(fac.solve(b), factorize(_lu_twin(H), "batched").solve(b))
        assert fac.slogdet()[1] == pytest.approx(np.linalg.slogdet(A)[1], rel=1e-9)

    def test_non_symmetric_leaf_blocks_fall_back_to_lu(self, rng):
        """The symmetry probe samples off-diagonal blocks only; leaf blocks
        that are not symmetric are factored with LU, never by Cholesky of
        one triangle."""
        n = 128
        A = np.zeros((n, n))
        for start in range(0, n, 16):
            A[start : start + 16, start : start + 16] = (
                rng.standard_normal((16, 16)) + 16 * np.eye(16)
            )
        # a symmetric coupling between the two halves passes the probe
        u, v = rng.standard_normal((64, 2)), rng.standard_normal((64, 2))
        A[:64, 64:] += u @ v.T
        A[64:, :64] += v @ u.T
        H = build_hodlr(A, ClusterTree.balanced(n, leaf_size=16), tol=1e-10, method="svd")
        assert H.symmetric
        fac = factorize(H, "batched")
        assert _leaf_kinds(fac) == {"lu"} and fac.factor_plan.leaf_fallbacks == 1
        b = rng.standard_normal(n)
        assert np.linalg.norm(A @ fac.solve(b) - b) / np.linalg.norm(b) < 1e-12

    def test_complex_and_non_symmetric_keep_lu(self):
        for kind in ("real", "complex"):
            _, H = make_problem(n=192, leaf=24, kind=kind)
            fac = factorize(H, "batched")
            assert _leaf_kinds(fac) == {"lu"}
            assert fac.factor_plan.leaf_fallbacks == 0


# ======================================================================
# K systems through their Schur complements
# ======================================================================
#: (n, leaf, dispatch policy) of the trees the K-system tests run on
SCHUR_TREES = {
    "uniform": (256, 32, None),
    "odd-leaf": (300, 40, None),  # leaf sizes 37 and 38
}


def _schur_problem(kind, n, leaf):
    """``(dense A, H)`` of a real non-symmetric, complex or SPD source."""
    if kind == "spd":
        return _spd_problem(n, leaf)
    return make_problem(n=n, leaf=leaf, kind=kind)


def _rhs(rng, H, shape):
    b = rng.standard_normal(shape)
    return b + 1j * rng.standard_normal(shape) if np.dtype(H.dtype).kind == "c" else b


def _two_leaf_matrix(T_b):
    """An 8x8 HODLR matrix of two identity leaves whose one K system has
    ``T_a = I`` and the given 2x2 ``T_b``, so its Schur complement is
    ``S = I - T_b``."""
    tree = ClusterTree.balanced(8, leaf_size=4)
    a, b = (nd.index for nd in tree.level_nodes(1))
    E = np.eye(4)[:, :2]
    V_b = np.zeros((4, 2))
    V_b[:2] = np.asarray(T_b).T
    return HODLRMatrix(
        tree=tree,
        diag={leaf.index: np.eye(4) for leaf in tree.leaves},
        U={a: E, b: E},
        V={a: E, b: V_b},
    )


class TestSchurK:
    """``K = [T_a I; I T_b]`` eliminated by its identity blocks: per node
    ``G = [L^{-1} P^T | -L^{-1} P^T T_a]``, ``U^{-1}`` and ``T_b`` of
    ``S = I - T_a T_b = P L U``, and every K solve three strided products."""

    @pytest.mark.parametrize("pivot", [True, False])
    @pytest.mark.parametrize("tree", sorted(SCHUR_TREES))
    @pytest.mark.parametrize("kind", ["real", "complex", "spd"])
    def test_solve_matches_dense(self, kind, tree, pivot, rng):
        n, leaf, policy = SCHUR_TREES[tree]
        _, H = _schur_problem(kind, n, leaf)
        ctx = ExecutionContext(policy=policy) if policy else None
        fac = factorize(H, "batched", context=ctx, pivot=pivot)
        assert fac.factor_plan.sweeps
        Hd = H.to_dense()
        for shape in ((n,), (n, 3)):
            b = _rhs(rng, H, shape)
            x, x_dense = fac.solve(b), np.linalg.solve(Hd, b)
            assert np.linalg.norm(x - x_dense) / np.linalg.norm(x_dense) < 1e-10

    @pytest.mark.parametrize("pivot", [True, False])
    @pytest.mark.parametrize("kind", ["real", "complex", "spd"])
    def test_slogdet_matches_dense(self, kind, pivot):
        n, leaf = 300, 40
        A, H = _schur_problem(kind, n, leaf)
        if kind == "real":
            # one negated row: a negative determinant with the same ranks
            A = A.copy()
            A[7] *= -1
            H = build_hodlr(A, ClusterTree.balanced(n, leaf_size=leaf), tol=1e-12, method="svd")
        s_ref, l_ref = np.linalg.slogdet(H.to_dense())
        if kind == "real":
            assert s_ref == -1.0
        sign, logabs = factorize(H, "batched", pivot=pivot).slogdet()
        assert abs(sign - s_ref) < 1e-9
        assert logabs == pytest.approx(l_ref, rel=1e-10)
        s_rec, l_rec = factorize(H, "recursive").slogdet()
        assert abs(sign - s_rec) < 1e-9 and logabs == pytest.approx(l_rec, rel=1e-10)

    @pytest.mark.parametrize("kind", ["real", "complex", "spd"])
    def test_storage_is_4r2_per_node_without_pivots(self, kind):
        _, H = _schur_problem(kind, 300, 40)
        plan = factorize(H, "batched").factor_plan
        for sw in plan.sweeps:
            ngamma, r = sw.nchild // 2, sw.rank
            assert sw.g3.shape == (ngamma, r, 2 * r)
            assert sw.uinv3.shape == sw.tb3.shape == (ngamma, r, r)
            assert sum(a.size for a in (sw.g3, sw.uinv3, sw.tb3)) == 4 * r * r * ngamma
            # U^{-1} is upper triangular, G's left half a permuted unit lower one
            np.testing.assert_array_equal(np.tril(sw.uinv3, -1), 0)
            assert np.all(np.abs(np.linalg.det(sw.g3[:, :, :r])) == pytest.approx(1.0))
        assert not any(a.dtype.kind == "i" for sw in plan.sweeps for a in (sw.g3, sw.uinv3, sw.tb3))

    @pytest.mark.parametrize("kind", ["real", "complex", "spd"])
    def test_float32_demoted_plan_meets_bounds(self, kind, rng):
        A, H = _schur_problem(kind, 256, 32)
        ctx = ExecutionContext(precision=PrecisionPolicy(factor="float32"))
        plan = factorize(H, "batched", context=ctx).factor_plan
        narrow = np.complex64 if kind == "complex" else np.float32
        for sw in plan.sweeps:
            assert {sw.g3.dtype, sw.uinv3.dtype, sw.tb3.dtype} == {np.dtype(narrow)}
        b = _rhs(rng, H, (256,))
        x = plan.solve_plan().solve(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-4

    def test_near_singular_schur_complement_raises(self):
        """A Schur complement singular to working precision raises instead
        of returning garbage; a tiny leading pivot of a well-conditioned
        ``S`` raises under ``pivot=False`` only."""
        # S = diag(1, 2^-52): the K system is singular to working precision
        H = _two_leaf_matrix(np.diag([0.0, 1.0 - 2.0**-52]))
        for pivot in (True, False):
            with pytest.raises(np.linalg.LinAlgError, match="singular to working precision"):
                factorize(H, "batched", pivot=pivot)
        # S = [[2^-52, -1], [-1, 1]]: well conditioned, tiny leading pivot
        H = _two_leaf_matrix([[1.0 - 2.0**-52, 1.0], [1.0, 0.0]])
        b = np.arange(1.0, 9.0)
        x = factorize(H, "batched").solve(b)
        np.testing.assert_allclose(x, np.linalg.solve(H.to_dense(), b), rtol=1e-12)
        with pytest.raises(np.linalg.LinAlgError, match="singular to working precision"):
            factorize(H, "batched", pivot=False)

    def test_spd_solve_has_no_getrs(self, rng):
        _, H = _spd_problem(300, 40)
        fac = factorize(H, "batched")
        with get_recorder().recording() as trace:
            fac.solve(rng.standard_normal((300, 2)))
        kernels = trace.buckets_by_kernel()
        assert "getrs_batched" not in kernels
        assert kernels["schur_solve_batched"] == len(fac.factor_plan.sweeps)
        assert trace.num_kernel_launches == fac.solve_plan.launches_per_solve

    def test_one_factor_and_one_inverse_launch_per_level(self):
        """The Schur complements of a level and their inverse factors are
        one getrf_batched and one trtri_batched launch over all its nodes."""
        _, H = make_problem(n=512, leaf=32)
        with get_recorder().recording() as trace:
            fac = factorize(H, "batched")
        levels = H.tree.levels
        for kernel in ("getrf_batched", "trtri_batched"):
            events = [e for e in trace.events if e.kernel == kernel and e.level < levels]
            assert sorted(e.level for e in events) == list(range(levels))
            assert all(e.batch == 2**e.level for e in events)

    def test_exact_residual_tracks_recursive_reference(self):
        """Accuracy guard on an ill-conditioned GP covariance: the plan's
        exact residual stays within 0.05 digits of the recursive LU
        reference.  An explicit inverse of each K system fails this by
        about 1.5 digits at this size, which is why it was not taken."""
        from repro import KernelMatrix, build_operator, get_problem

        n = 2048
        problem = get_problem("gp_covariance", n=n, seed=0, noise_std=0.005)
        H = build_operator(problem, cache=False).hodlr
        kernel, shift = problem.kernel_spec()
        x = np.sort(np.random.default_rng(problem.seed).uniform(0.0, 1.0, n))
        A = KernelMatrix(kernel=kernel, points=x, diagonal_shift=shift).entries(
            np.arange(n), np.arange(n)
        )
        B = np.random.default_rng(3).standard_normal((n, 4))

        def digits(variant):
            X = HODLRSolver(H, variant=variant).factorize().solve(B)
            rel = np.linalg.norm(A @ X - B, axis=0) / np.linalg.norm(B, axis=0)
            return float(np.mean(-np.log10(rel)))

        assert digits("batched") >= digits("recursive") - 0.05


# ======================================================================
# rook compressor: gathered initial pivot rows
# ======================================================================
class TestRookFirstRow:
    def test_first_row_skips_initial_entry_call(self, rng):
        from repro import rook_pivot_compress

        u = rng.standard_normal((40, 5))
        v = rng.standard_normal((30, 5))
        block = u @ v.T
        calls = []

        def entries(r, c):
            calls.append((np.size(r), np.size(c)))
            return block[np.ix_(np.atleast_1d(r), np.atleast_1d(c))]

        f_ref = rook_pivot_compress(entries, 40, 30, tol=1e-10)
        ref_calls = list(calls)
        calls.clear()
        f = rook_pivot_compress(entries, 40, 30, tol=1e-10, first_row=block[0])
        # the precomputed row replaces exactly the initial full-row call
        assert len(calls) == len(ref_calls) - 1
        np.testing.assert_allclose(
            f.U @ f.V.conj().T, f_ref.U @ f_ref.V.conj().T, rtol=1e-12, atol=1e-12
        )

    def test_gathered_rows_leave_rook_construction_unchanged(self, rng):
        """The level-lockstep rook build gathers its pivot rows and columns;
        that changes call counts, not results."""
        n = 256
        A = hodlr_friendly_matrix(n, seed=4)
        tree = ClusterTree.balanced(n, leaf_size=32)
        H_lockstep = build_hodlr(A, tree, tol=1e-10, method="rook")
        H_loop = build_hodlr(
            A, tree, tol=1e-10, method="rook", context=ExecutionContext(policy=LOOP_POLICY)
        )
        assert H_lockstep.rank_profile() == H_loop.rank_profile()
        x = rng.standard_normal(n)
        np.testing.assert_allclose(
            H_lockstep.matvec(x), H_loop.matvec(x), rtol=1e-12, atol=1e-12
        )


# ======================================================================
# precedence regression: explicit dispatch policy + SolverConfig.precision
# ======================================================================
class TestPrecedenceRegression:
    def test_from_config_explicit_policy_keeps_precision(self):
        _, H = make_problem(n=128, leaf=32)
        cfg = SolverConfig(precision=PrecisionPolicy(factor="float32"))
        ctx = cfg.execution_context().replace(policy=DispatchPolicy(bucketing=False))
        solver = HODLRSolver.from_config(H, cfg, context=ctx)
        # the explicit policy won ...
        assert solver.context.policy.bucketing is False
        # ... and the config's precision policy was NOT silently dropped
        assert solver.context.precision.factor == "float32"
        solver.factorize()
        assert solver.factor_plan.demoted

    def test_from_config_without_overrides_unchanged(self):
        _, H = make_problem(n=128, leaf=32)
        cfg = SolverConfig(
            dispatch_policy=DispatchPolicy(bucketing=False),
            precision=PrecisionPolicy(factor="float32"),
        )
        solver = HODLRSolver.from_config(H, cfg)
        assert solver.context.policy.bucketing is False
        assert solver.context.precision.factor == "float32"
