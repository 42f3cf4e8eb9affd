"""Tests for streaming updates: point insert/remove/move, plan patching,
operator-level updates, and cache invalidation."""

import numpy as np
import pytest

import repro
from repro import (
    ClusterTree,
    HODLRSolver,
    PatchUnsupportedError,
    build_hodlr,
    move_points,
    remove_points,
    update_points,
)
from repro.backends.counters import get_recorder
from conftest import complex_test_matrix, hodlr_friendly_matrix


def _delete(A, where):
    """Dense matrix with rows *and* columns ``where`` removed."""
    keep = np.setdiff1d(np.arange(A.shape[0]), where)
    return A[np.ix_(keep, keep)]


def _entries(A):
    return lambda rows, cols: A[np.ix_(np.asarray(rows), np.asarray(cols))]


def _insert_problem(n=256, k=5, seed=11, leaf=32, complex_=False):
    """(A_old, A_new, where): A_old is A_new with rows/cols ``where`` deleted."""
    make = complex_test_matrix if complex_ else hodlr_friendly_matrix
    A_new = make(n + k, seed=seed)
    rng = np.random.default_rng(seed + 100)
    where = np.sort(rng.choice(n + k, size=k, replace=False))
    A_old = _delete(A_new, where)
    tree = ClusterTree.balanced(n, leaf_size=leaf)
    H_old = build_hodlr(A_old, tree, tol=1e-12, method="svd")
    return A_old, A_new, where, H_old


class TestCoreUpdates:
    def test_insert_matches_fresh_build(self):
        _, A_new, where, H_old = _insert_problem()
        upd = update_points(H_old, _entries(A_new), where, tol=1e-12)
        assert upd.kind == "insert"
        assert upd.matrix.n == A_new.shape[0]
        err = np.linalg.norm(upd.matrix.to_dense() - A_new) / np.linalg.norm(A_new)
        assert err < 1e-10
        # equivalent to compressing the new matrix from scratch on the new tree
        H_fresh = build_hodlr(A_new, upd.matrix.tree, tol=1e-12, method="svd")
        diff = np.linalg.norm(upd.matrix.to_dense() - H_fresh.to_dense())
        assert diff / np.linalg.norm(A_new) < 1e-10

    def test_insert_complex(self):
        _, A_new, where, H_old = _insert_problem(n=192, k=3, leaf=24, complex_=True)
        upd = update_points(H_old, _entries(A_new), where, tol=1e-12)
        err = np.linalg.norm(upd.matrix.to_dense() - A_new) / np.linalg.norm(A_new)
        assert err < 1e-10

    def test_insert_contiguous_nonpow2_rook(self):
        # a contiguous arrival window on a non-power-of-two tree hits the
        # structured one-sided bordered recompression in every dirty block;
        # rook-built factors make the stored bases non-orthonormal
        n, k = 750, 3
        rng = np.random.default_rng(3)
        pts = np.sort(rng.uniform(0, 1, n + k))
        where = np.array([500, 501, 502])
        pts_old = np.delete(pts, where)

        def kern(p):
            d = np.abs(p[:, None] - p[None, :])
            return 1.0 / (1.0 + 30.0 * d) + float(n) * np.eye(p.size)

        A_new = kern(pts)
        A_old = kern(pts_old)
        tree = ClusterTree.balanced(n, leaf_size=64)
        H_old = build_hodlr(A_old, tree, tol=1e-10, method="rook")
        upd = update_points(H_old, _entries(A_new), where, tol=1e-10)
        err = np.linalg.norm(upd.matrix.to_dense() - A_new) / np.linalg.norm(A_new)
        assert err < 1e-8

    def test_remove_matches_fresh_build(self):
        n = 256
        A = hodlr_friendly_matrix(n, seed=7)
        tree = ClusterTree.balanced(n, leaf_size=32)
        H = build_hodlr(A, tree, tol=1e-12, method="svd")
        where = np.array([3, 70, 71, 200])
        upd = remove_points(H, where, tol=1e-12)
        A_small = _delete(A, where)
        assert upd.kind == "remove"
        assert upd.matrix.n == n - where.size
        err = np.linalg.norm(upd.matrix.to_dense() - A_small) / np.linalg.norm(A_small)
        assert err < 1e-10
        # old_to_new maps removed points to -1, survivors compactly
        assert np.all(upd.old_to_new[where] == -1)
        surv = np.setdiff1d(np.arange(n), where)
        assert np.array_equal(upd.old_to_new[surv], np.arange(n - where.size))

    def test_remove_complex(self):
        n = 192
        A = complex_test_matrix(n, seed=8)
        H = build_hodlr(A, ClusterTree.balanced(n, leaf_size=24), tol=1e-12, method="svd")
        where = np.array([0, 64, 130])
        upd = remove_points(H, where, tol=1e-12)
        A_small = _delete(A, where)
        err = np.linalg.norm(upd.matrix.to_dense() - A_small) / np.linalg.norm(A_small)
        assert err < 1e-10

    def test_move_matches_fresh_build(self):
        n = 256
        A = hodlr_friendly_matrix(n, seed=9)
        B = hodlr_friendly_matrix(n, seed=10)
        where = np.array([17, 150])
        # the moved points' rows and columns take the other operator's values
        A_new = A.copy()
        A_new[where, :] = B[where, :]
        A_new[:, where] = B[:, where]
        H = build_hodlr(A, ClusterTree.balanced(n, leaf_size=32), tol=1e-12, method="svd")
        upd = move_points(H, _entries(A_new), where, tol=1e-12)
        assert upd.kind == "move"
        assert upd.matrix.n == n
        err = np.linalg.norm(upd.matrix.to_dense() - A_new) / np.linalg.norm(A_new)
        assert err < 1e-10

    def test_downdate_then_reinsert_round_trip(self):
        n = 256
        A = hodlr_friendly_matrix(n, seed=12)
        H = build_hodlr(A, ClusterTree.balanced(n, leaf_size=32), tol=1e-12, method="svd")
        where = np.array([40, 41, 199])
        removed = remove_points(H, where, tol=1e-12)
        back = update_points(removed.matrix, _entries(A), where, tol=1e-12)
        err = np.linalg.norm(back.matrix.to_dense() - A) / np.linalg.norm(A)
        assert err < 1e-10

    def test_remove_emptied_leaf_unsupported(self):
        n = 64
        A = hodlr_friendly_matrix(n, seed=13)
        H = build_hodlr(A, ClusterTree.balanced(n, leaf_size=8), tol=1e-12, method="svd")
        with pytest.raises(PatchUnsupportedError):
            remove_points(H, np.arange(8), tol=1e-12)  # empties the first leaf

    def test_noop_updates(self):
        _, _, _, H = _insert_problem()
        upd = remove_points(H, np.empty(0, dtype=int))
        assert upd.matrix is H and not upd.dirty_nodes
        upd = update_points(H, _entries(np.zeros((1, 1))), np.empty(0, dtype=int))
        assert upd.matrix is H and not upd.dirty_nodes

    def test_dirty_fraction_scales_with_k(self):
        n = 512
        A = hodlr_friendly_matrix(n, seed=14)
        H = build_hodlr(A, ClusterTree.balanced(n, leaf_size=32), tol=1e-12, method="svd")
        one = remove_points(H, [5], tol=1e-12)
        spread = remove_points(H, np.arange(0, n, 32), tol=1e-12)
        assert one.dirty_blocks < spread.dirty_blocks
        assert one.dirty_fraction < 0.5
        assert spread.dirty_fraction == 1.0  # one removal per leaf touches all


class TestSolverPatch:
    @pytest.mark.parametrize("variant", ["flat", "batched"])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_patch_factorize_matches_fresh(self, variant, complex_):
        n = 256 if not complex_ else 192
        leaf = 32 if not complex_ else 24
        A_old, A_new, where, H_old = _insert_problem(
            n=n, k=4, leaf=leaf, complex_=complex_
        )
        solver = HODLRSolver(H_old, variant=variant).factorize()
        upd = update_points(H_old, _entries(A_new), where, tol=1e-12)
        solver.patch_factorize(upd.matrix, upd.dirty_nodes)
        rng = np.random.default_rng(0)
        b = rng.standard_normal(upd.matrix.n)
        if complex_:
            b = b + 1j * rng.standard_normal(upd.matrix.n)
        x = solver.solve(b)
        relres = np.linalg.norm(A_new @ x - b) / np.linalg.norm(b)
        assert relres < 1e-8
        fresh = HODLRSolver(upd.matrix, variant=variant).factorize()
        x_fresh = fresh.solve(b)
        assert np.linalg.norm(x - x_fresh) / np.linalg.norm(x_fresh) < 1e-8

    def test_recursive_variant_has_no_plan_to_patch(self):
        _, A_new, where, H_old = _insert_problem()
        solver = HODLRSolver(H_old, variant="recursive").factorize()
        upd = update_points(H_old, _entries(A_new), where, tol=1e-12)
        with pytest.raises(PatchUnsupportedError):
            solver.patch_factorize(upd.matrix, upd.dirty_nodes)

    def test_patch_launches_scale_with_dirty_buckets(self):
        n = 512
        A = hodlr_friendly_matrix(n, seed=15)
        tree = ClusterTree.balanced(n, leaf_size=32)
        H = build_hodlr(A, tree, tol=1e-12, method="svd")

        def patch_trace(where):
            solver = HODLRSolver(H, variant="batched").factorize()
            upd = remove_points(H, where, tol=1e-12)
            rec = get_recorder()
            with rec.recording() as trace:
                solver.patch_factorize(upd.matrix, upd.dirty_nodes)
            packs = sum(1 for e in trace.events if e.kernel == "factor_patch_bucket")
            return packs, solver.factor_plan.last_patch_stats

        packs_few, st_few = patch_trace([5])
        packs_many, st_many = patch_trace(np.arange(0, n, 32))
        # re-pack launches equal the dirty *shape bucket* count, not the
        # dirty block count
        assert packs_few == st_few["dirty_leaf_buckets"] + st_few["dirty_child_buckets"]
        assert packs_many == st_many["dirty_leaf_buckets"] + st_many["dirty_child_buckets"]
        # prefix replay refactors only the dirty suffix of the reduced systems
        assert 0 < st_few["k_refactored"] < st_many["k_refactored"]


class TestOperatorUpdate:
    @pytest.mark.parametrize("variant", ["recursive", "flat", "batched"])
    def test_insert_matches_fresh_operator(self, variant):
        n, k = 512, 4
        A_new = hodlr_friendly_matrix(n + k, seed=22)
        where = np.arange(100, 100 + k)  # clustered: dirty fraction stays low
        A_old = _delete(A_new, where)
        cfg = {
            "variant": variant,
            "compression": {"tol": 1e-12, "method": "svd", "leaf_size": 32},
        }
        op = repro.build_operator(A_old, config=cfg)
        b = np.random.default_rng(1).standard_normal(A_old.shape[0])
        op.solve(b)  # force factorization so the update has a plan to patch
        op.update(source=_entries(A_new), points_added=where, tol=1e-12)
        info = op.last_update_info
        assert info["kinds"] == ("insert",)
        assert op.shape == A_new.shape
        b_new = np.random.default_rng(2).standard_normal(A_new.shape[0])
        x = op.solve(b_new)
        x_fresh = repro.build_operator(A_new, config=cfg).solve(b_new)
        assert np.linalg.norm(x - x_fresh) / np.linalg.norm(x_fresh) < 1e-8
        if variant in ("flat", "batched"):
            assert info["path"] == "patch"
            assert info["patch_stats"] is not None
        else:  # recursive holds no compiled plan: falls back to lazy rebuild
            assert info["path"] == "rebuild"

    @pytest.mark.parametrize("variant", ["recursive", "flat", "batched"])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_remove_and_move_match_fresh_operator(self, variant, complex_):
        n = 256 if not complex_ else 192
        make = complex_test_matrix if complex_ else hodlr_friendly_matrix
        A = make(n, seed=23)
        B = make(n, seed=24)
        where = np.array([30, 31, 150])
        cfg = {
            "variant": variant,
            "compression": {"tol": 1e-12, "method": "svd", "leaf_size": 32},
        }
        rng = np.random.default_rng(25)

        def _rand(m):
            v = rng.standard_normal(m)
            return v + 1j * rng.standard_normal(m) if complex_ else v

        # delete
        op = repro.build_operator(A, config=cfg)
        op.solve(_rand(n))
        op.update(points_removed=where, tol=1e-12)
        A_small = _delete(A, where)
        b = _rand(n - where.size)
        x = op.solve(b)
        x_fresh = repro.build_operator(A_small, config=cfg).solve(b)
        assert np.linalg.norm(x - x_fresh) / np.linalg.norm(x_fresh) < 1e-8

        # move: the chosen rows/columns take the other operator's values
        A_new = A.copy()
        A_new[where, :] = B[where, :]
        A_new[:, where] = B[:, where]
        op2 = repro.build_operator(A, config=cfg)
        op2.solve(_rand(n))
        op2.update(source=_entries(A_new), points_moved=where, tol=1e-12)
        b2 = _rand(n)
        x2 = op2.solve(b2)
        x2_fresh = repro.build_operator(A_new, config=cfg).solve(b2)
        assert np.linalg.norm(x2 - x2_fresh) / np.linalg.norm(x2_fresh) < 1e-8

    def test_remove_patches_in_place(self):
        n = 512
        A = hodlr_friendly_matrix(n, seed=16)
        op = repro.build_operator(
            A, config={"compression": {"tol": 1e-12, "method": "svd", "leaf_size": 32}}
        )
        op.solve(np.ones(n))
        where = np.array([10, 11])
        op.update(points_removed=where, tol=1e-12)
        assert op.last_update_info["path"] == "patch"
        A_small = _delete(A, where)
        b = np.random.default_rng(3).standard_normal(n - 2)
        x = op.solve(b)
        assert np.linalg.norm(A_small @ x - b) / np.linalg.norm(b) < 1e-8

    def test_diag_shift_rebuilds(self):
        n = 256
        A = hodlr_friendly_matrix(n, seed=17)
        op = repro.build_operator(
            A, config={"compression": {"tol": 1e-12, "method": "svd"}}
        )
        op.solve(np.ones(n))
        op.update(diag_shift=2.5)
        assert op.last_update_info["path"] == "rebuild"
        b = np.random.default_rng(4).standard_normal(n)
        x = op.solve(b)
        A_shifted = A + 2.5 * np.eye(n)
        assert np.linalg.norm(A_shifted @ x - b) / np.linalg.norm(b) < 1e-8

    def test_low_rank_update(self):
        n = 256
        A = hodlr_friendly_matrix(n, seed=18)
        op = repro.build_operator(
            A, config={"compression": {"tol": 1e-12, "method": "svd"}}
        )
        rng = np.random.default_rng(5)
        X = rng.standard_normal((n, 2))
        Y = rng.standard_normal((n, 2))
        op.update(low_rank=(X, Y), tol=1e-12)
        assert op.last_update_info["dirty_fraction"] == 1.0
        b = rng.standard_normal(n)
        x = op.solve(b)
        A_up = A + X @ Y.conj().T
        assert np.linalg.norm(A_up @ x - b) / np.linalg.norm(b) < 1e-8

    def test_loop_policy_update_patches(self):
        """LOOP_POLICY operators hold a compiled plan too, so updates patch."""
        from repro.api import CompressionConfig, SolverConfig
        from repro.backends.dispatch import LOOP_POLICY

        n, k = 512, 3
        A_new = hodlr_friendly_matrix(n + k, seed=26)
        where = np.arange(100, 100 + k)  # clustered: dirty fraction stays low
        A_old = _delete(A_new, where)
        cfg = SolverConfig(
            dispatch_policy=LOOP_POLICY,
            compression=CompressionConfig(tol=1e-12, method="svd", leaf_size=32),
        )
        op = repro.build_operator(A_old, config=cfg)
        op.solve(np.ones(n))
        repro.update_operator(op, source=_entries(A_new), points_added=where, tol=1e-12)
        assert op.last_update_info["path"] == "patch"
        b = np.random.default_rng(7).standard_normal(n + k)
        x = op.solve(b)
        x_fresh = repro.build_operator(A_new, config=cfg).solve(b)
        assert np.linalg.norm(x - x_fresh) / np.linalg.norm(x_fresh) < 1e-10

    def test_update_requires_a_change(self):
        A_old, _, _, _ = _insert_problem()
        op = repro.build_operator(A_old)
        with pytest.raises(ValueError):
            op.update()

    def test_parallel_auto_agrees(self):
        A_old, A_new, where, _ = _insert_problem(k=3, seed=19)
        cfg = {"compression": {"tol": 1e-12, "method": "svd"}}
        results = []
        for par in ("off", "auto"):
            op = repro.build_operator(A_old, config=cfg, parallel=par)
            op.solve(np.ones(A_old.shape[0]))
            op.update(source=_entries(A_new), points_added=where, tol=1e-12)
            b = np.random.default_rng(6).standard_normal(A_new.shape[0])
            results.append(op.solve(b))
        assert (
            np.linalg.norm(results[0] - results[1]) / np.linalg.norm(results[0])
            < 1e-10
        )


class TestCacheInvalidation:
    def test_update_invalidates_cached_operator(self):
        A = hodlr_friendly_matrix(256, seed=20)
        repro.clear_operator_cache()
        repro.enable_operator_cache()
        try:
            op = repro.build_operator(A, cache=True)
            again = repro.build_operator(A, cache=True)
            assert again is op  # cache hit returns the same operator
            dropped = repro.operator_cache().invalidate(operator=op)
            assert dropped == 0 or dropped == 1  # may hold 1 entry
            repro.build_operator(A, cache=True)  # repopulate
            repro.update_operator(op, diag_shift=1.0)
            rebuilt = repro.build_operator(A, cache=True)
            assert rebuilt is not op  # stale entry was dropped on update
        finally:
            repro.disable_operator_cache()
            repro.clear_operator_cache()

    def test_facade_update_operator_reports_info(self):
        _, A_new, where, _ = _insert_problem(k=2, seed=21)
        A_old = _delete(A_new, where)
        op = repro.build_operator(
            A_old, config={"compression": {"tol": 1e-12, "method": "svd"}}
        )
        out = repro.update_operator(op, source=_entries(A_new), points_added=where)
        assert out is op
        assert op.last_update_info["kinds"] == ("insert",)
        b = np.random.default_rng(7).standard_normal(A_new.shape[0])
        x = op.solve(b)
        assert np.linalg.norm(A_new @ x - b) / np.linalg.norm(b) < 1e-8
