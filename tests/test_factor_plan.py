"""Compiled FactorPlan/SolvePlan (PR 5).

Covers the acceptance criteria of the plan refactor:

* plan-vs-reference equivalence to 1e-12 for both factorization variants
  (real/complex, adaptive ranks, non-power-of-two N) — the reference is
  the per-node recursion (``variant="recursive"``, which builds no plan);
* launch-count assertions: ``num_kernel_launches`` per solve equals the
  compiled plan's ``launches_per_solve`` (and every one is a plan replay);
* float32 factor storage accuracy plus the refinement round-trip;
* identity-bordered LU padding exactness (executor-level and plan-level);
* the ``from_config`` precedence regression (an explicit dispatch policy,
  passed as ``context=config.execution_context().replace(policy=...)``,
  must not lose the config's ``precision`` policy).
"""

import numpy as np
import pytest

from conftest import complex_test_matrix, hodlr_friendly_matrix

from repro import (
    BatchedFactorization,
    ClusterTree,
    DispatchPolicy,
    ExecutionContext,
    HODLROperator,
    HODLRSolver,
    PrecisionPolicy,
    RecursiveFactorization,
    build_hodlr,
)
from repro.api import SolverConfig
from repro.backends.batched import getrf_batched, getrs_batched
from repro.backends.counters import get_recorder
from repro.backends.dispatch import (
    LOOP_POLICY,
    get_backend,
    pad_identity_stack,
    plan_batch,
    plan_batch_padded,
)

VARIANTS = ["recursive", "batched"]

PAD_POLICY = DispatchPolicy(pad_buckets=True)


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
        """Adaptive (uncapped) randomized ranks over a 300-point tree:
        heterogeneous node sizes and per-level ranks through the plan."""
        n = 300
        A = hodlr_friendly_matrix(n, seed=11)
        tree = ClusterTree.balanced(n, leaf_size=40)
        H = build_hodlr(A, tree, tol=1e-11, method="randomized")
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
        """Under LOOP_POLICY the plan variants still compile the plan; each
        planned launch runs per-block LAPACK instead of the vectorised LU."""
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
        # uniform tree: 1 leaf bucket + (2 gemm + 1 getrs) per level
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
# identity-bordered LU padding
# ======================================================================
#: the vectorised elimination on every stack, so a padded and an unpadded
#: stack run the same arithmetic and compare bit for bit
VECTORIZE_ALWAYS = DispatchPolicy(
    lu_factor_max_n=4096, lu_factor_min_batch=2, lu_solve_max_n=4096, lu_solve_min_batch_ratio=0.0
)


def _exact_factors(blocks, policy):
    """Per-member ``(lu, piv)`` from one strided getrf launch per exact size."""
    out = [None] * len(blocks)
    for bucket in plan_batch([b.shape for b in blocks]).buckets:
        lu3, piv3 = getrf_batched(np.stack([blocks[i] for i in bucket.indices]), policy=policy)
        for j, i in enumerate(bucket.indices):
            out[i] = (lu3[j], piv3[j])
    return out


def _padded_stack(blocks, width):
    """Identity-bordered stack; the dtype promotes over every member."""
    return pad_identity_stack(get_backend("numpy"), blocks, width, np.result_type(*blocks))


class TestPaddedLU:
    def test_getrf_padded_factors_exact(self, rng):
        """The leading block of an identity-bordered factor is the unpadded
        factor: bit-identical under the same elimination, and the border
        stays the identity with no row swaps."""
        sizes = [7, 8, 8, 7, 8, 7, 8, 8] * 4
        blocks = [rng.standard_normal((m, m)) + m * np.eye(m) for m in sizes]
        # the default policy vectorises the merged 32-block stack but not the
        # smaller exact-size stacks, so only round-off agreement is expected
        for policy, tol in ((VECTORIZE_ALWAYS, 0.0), (DispatchPolicy(), 1e-13)):
            lu3, piv3 = getrf_batched(_padded_stack(blocks, 8), policy=policy)
            for i, (lu, piv) in enumerate(_exact_factors(blocks, policy)):
                m = sizes[i]
                np.testing.assert_allclose(lu3[i, :m, :m], lu, rtol=tol, atol=tol)
                np.testing.assert_array_equal(piv3[i, :m], piv)
                np.testing.assert_array_equal(piv3[i, m:], np.arange(m, 8))
                np.testing.assert_array_equal(lu3[i, m:, m:], np.eye(8 - m))
                assert not lu3[i, :m, m:].any() and not lu3[i, m:, :m].any()

    def test_getrs_padded_solutions_exact(self, rng):
        sizes = [7, 8, 8, 7, 8, 7, 8, 8] * 8
        blocks = [rng.standard_normal((m, m)) + m * np.eye(m) for m in sizes]
        rhs = [rng.standard_normal((m, 2)) for m in sizes]
        rhs3 = np.zeros((len(sizes), 8, 2))
        for i, r in enumerate(rhs):
            rhs3[i, : sizes[i]] = r
        x3 = getrs_batched(*getrf_batched(_padded_stack(blocks, 8)), rhs3)
        for i, (lu, piv) in enumerate(_exact_factors(blocks, DispatchPolicy())):
            m = sizes[i]
            x = getrs_batched(lu[None], piv[None], rhs[i][None])[0]
            np.testing.assert_allclose(x3[i, :m], x, rtol=1e-12, atol=1e-13)
            assert not x3[i, m:].any()  # padded rows solve against the identity

    def test_padded_lu_records_merged_buckets(self, rng):
        sizes = [7, 8] * 16
        blocks = [rng.standard_normal((m, m)) + m * np.eye(m) for m in sizes]
        rec = get_recorder()
        with rec.recording() as t_plain:
            _exact_factors(blocks, DispatchPolicy())
        (merged,) = plan_batch_padded([b.shape for b in blocks], max_waste=0.25).buckets
        with rec.recording() as t_pad:
            getrf_batched(_padded_stack(blocks, merged.key[0]))
        assert t_pad.num_kernel_launches < t_plain.num_kernel_launches

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_plan_with_padded_buckets_matches_default(self, variant, rng):
        """Identity-bordered padding inside the plan is exact on a
        non-power-of-two tree (leaf sizes 37/38)."""
        n = 300
        A = hodlr_friendly_matrix(n, seed=5)
        tree = ClusterTree.balanced(n, leaf_size=40)
        H = build_hodlr(A, tree, tol=1e-12, method="svd")
        b = rng.standard_normal(n)
        fac = factorize(H, variant)
        fac_pad = factorize(
            H, variant, context=ExecutionContext(policy=PAD_POLICY)
        )
        x = fac.solve(b)
        x_pad = fac_pad.solve(b)
        assert np.linalg.norm(x - x_pad) / np.linalg.norm(x) < 1e-12
        if variant != "recursive":
            # padding merges the two leaf-size buckets: fewer launches
            assert (
                fac_pad.solve_plan.launches_per_solve
                <= fac.solve_plan.launches_per_solve
            )

    def test_padded_bucket_mixing_real_and_complex_blocks(self, rng):
        """A merged bucket must promote over *every* member: a complex block
        sharing a padded bucket with real ones keeps its imaginary part."""
        blocks = [rng.standard_normal((8, 8)) + 8 * np.eye(8) for _ in range(30)]
        blocks.append(
            rng.standard_normal((7, 7))
            + 1j * rng.standard_normal((7, 7))
            + 7 * np.eye(7)
        )
        lu3, piv3 = getrf_batched(_padded_stack(blocks, 8))
        assert np.iscomplexobj(lu3)
        lu_ref, piv_ref = getrf_batched(blocks[-1][None])
        np.testing.assert_allclose(lu3[-1, :7, :7], lu_ref[0], rtol=1e-13, atol=1e-13)
        rhs3 = np.zeros((len(blocks), 8, 2))
        rhs3[:, :7] = rng.standard_normal((len(blocks), 7, 2))
        x3 = getrs_batched(lu3, piv3, rhs3)
        x_ref = getrs_batched(lu_ref, piv_ref, rhs3[-1:, :7])
        np.testing.assert_allclose(x3[-1, :7], x_ref[0], rtol=1e-12, atol=1e-13)

    def test_padded_plan_logdet_exact(self):
        A, _ = make_problem(n=300, leaf=40)
        tree = ClusterTree.balanced(300, leaf_size=40)
        H = build_hodlr(A, tree, tol=1e-12, method="svd")
        fac = factorize(H, "batched", context=ExecutionContext(policy=PAD_POLICY))
        assert fac.logdet() == pytest.approx(np.linalg.slogdet(A)[1], rel=1e-8)


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
        ctx = cfg.execution_context().replace(
            policy=DispatchPolicy(bucketing=True, min_bucket=7)
        )
        solver = HODLRSolver.from_config(H, cfg, context=ctx)
        # the explicit policy won ...
        assert solver.context.policy.min_bucket == 7
        # ... and the config's precision policy was NOT silently dropped
        assert solver.context.precision.factor == "float32"
        solver.factorize()
        assert solver.factor_plan.demoted

    def test_from_config_without_overrides_unchanged(self):
        _, H = make_problem(n=128, leaf=32)
        cfg = SolverConfig(
            dispatch_policy=DispatchPolicy(min_bucket=5),
            precision=PrecisionPolicy(factor="float32"),
        )
        solver = HODLRSolver.from_config(H, cfg)
        assert solver.context.policy.min_bucket == 5
        assert solver.context.precision.factor == "float32"
