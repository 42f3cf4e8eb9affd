"""Tests for streaming updates: point insert/remove/move, in-place
refactorization, operator-level updates, and cache invalidation."""

import numpy as np
import pytest

import repro
import repro.core.update as update_module
from repro import (
    ClusterTree,
    HODLRSolver,
    PatchUnsupportedError,
    build_hodlr,
    move_points,
    remove_points,
    update_points,
)
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
    @pytest.mark.parametrize("variant", ["batched"])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_patch_factorize_matches_fresh(self, variant, complex_):
        n = 256 if not complex_ else 192
        leaf = 32 if not complex_ else 24
        A_old, A_new, where, H_old = _insert_problem(
            n=n, k=4, leaf=leaf, complex_=complex_
        )
        solver = HODLRSolver(H_old, variant=variant).factorize()
        upd = update_points(H_old, _entries(A_new), where, tol=1e-12)
        solver.patch_factorize(upd.matrix)
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


def _point_kernel(kind):
    """``source(points)`` -> ``entries(rows, cols)`` over a 1-D point set:
    a non-symmetric real kernel (``"real"``), a complex symmetric
    Helmholtz-like one (``"complex"``), or a real symmetric positive
    definite one (``"spd"``, factored with Cholesky leaves).  A diagonal
    shift on coinciding indices keeps each well conditioned."""

    def source(p):
        def entries(rows, cols):
            rows, cols = np.asarray(rows), np.asarray(cols)
            x, y = p[rows][:, None], p[cols][None, :]
            d = np.abs(x - y)
            if kind == "complex":
                A = np.exp(10j * d) / (1.0 + 10.0 * d)
                shift = (2.0 + 0.5j) * np.sqrt(p.size)
            elif kind == "spd":
                A = np.exp(-8.0 * d)
                shift = 1.0
            else:
                A = 1.0 / (1.0 + 50.0 * d) + 0.05 * np.sin(3 * np.pi * x) * np.cos(
                    2 * np.pi * y
                )
                shift = float(p.size)
            return A + shift * (rows[:, None] == cols[None, :])

        return entries

    return source


def _leaf_factor_batches(trace, tree) -> int:
    """Leaves factorized by the leaf-level ``getrf_batched`` (LU) and
    ``potrf_batched`` (Cholesky) launches."""
    return sum(
        e.batch for e in trace.events
        if e.kernel in ("getrf_batched", "potrf_batched") and e.level == tree.levels
    )


def _record_dirty(fn, passed):
    """``fn`` (an update function) appending each result's dirty nodes to
    ``passed``."""

    def wrapped(*args, **kwargs):
        upd = fn(*args, **kwargs)
        passed.append(upd.dirty_nodes)
        return upd

    return wrapped


class TestDirtyLeafRefactorization:
    """``patch_factorize(m)`` copies the LU factors of the leaves an update
    left unchanged from the previous plan, factorizes only the dirty
    leaves, and is still bitwise a fresh factorization."""

    @staticmethod
    def _updates(kind, leaf):
        """The matrices of an insert, remove, move and diag-shift sequence,
        each with the dirty nodes of its step."""
        from repro.core.arithmetic import add_diagonal

        source = _point_kernel(kind)
        rng = np.random.default_rng(31)
        pts = np.sort(rng.uniform(0.0, 1.0, 256))
        idx = np.arange(pts.size)
        tree = ClusterTree.balanced(pts.size, leaf_size=leaf)
        H = build_hodlr(source(pts)(idx, idx), tree, tol=1e-12, method="svd")
        yield H, None
        # remove three points, two of them in one leaf
        where = np.array([30, 31, 150])
        pts = np.delete(pts, where)
        upd = remove_points(H, where, tol=1e-12)
        yield upd.matrix, upd.dirty_nodes
        # insert two points inside one gap
        j = 100
        new = np.sort(rng.uniform(pts[j - 1], pts[j], 2))
        pts = np.concatenate([pts[:j], new, pts[j:]])
        upd = update_points(upd.matrix, source(pts), j + np.arange(2), tol=1e-12)
        yield upd.matrix, upd.dirty_nodes
        # move two points within their gaps: leaf sizes stay, so the dirty
        # leaves share a bucket with clean ones
        where = np.array([17, 200])
        pts = pts.copy()
        pts[where] = 0.5 * (pts[where] + pts[where + 1])
        upd = move_points(upd.matrix, source(pts), where, tol=1e-12)
        yield upd.matrix, upd.dirty_nodes
        # a diagonal shift touches every leaf
        H = add_diagonal(upd.matrix, 0.5)
        yield H, frozenset(leaf.index for leaf in H.tree.leaves)

    @pytest.mark.parametrize("kind", ["real", "complex", "spd"])
    @pytest.mark.parametrize("pivot", [True, False])
    # leaf 32 factorizes LU leaves with per-problem LAPACK, leaf 8 with the
    # vectorised batched elimination (the default policy's crossover)
    @pytest.mark.parametrize("leaf", [32, 8])
    def test_bitwise_equal_to_fresh_factorization(self, kind, pivot, leaf):
        from repro import get_recorder

        rng = np.random.default_rng(0)
        solver = None
        for H, dirty in self._updates(kind, leaf):
            b = rng.standard_normal(H.n)
            if kind == "complex":
                b = b + 1j * rng.standard_normal(H.n)
            if solver is None:
                solver = HODLRSolver(H, pivot=pivot).factorize()
                continue
            with get_recorder().recording() as trace:
                solver.patch_factorize(H)
            dirty_leaves = sum(leaf.index in dirty for leaf in H.tree.leaves)
            assert _leaf_factor_batches(trace, H.tree) == dirty_leaves
            fresh = HODLRSolver(H, pivot=pivot).factorize()
            # kept and refactorized leaf factors are bitwise a fresh plan's
            leaf_kind = {"spd": "cholesky"}.get(kind, "lu")
            for plan in (solver.factor_plan, fresh.factor_plan):
                assert {lb.kind for lb in plan.leaf_buckets} == {leaf_kind}
            for (f, piv), (f_ref, piv_ref) in zip(
                solver.factor_plan.leaf_factor_views(),
                fresh.factor_plan.leaf_factor_views(),
            ):
                assert np.array_equal(f, f_ref)
                assert (piv is None) == (piv_ref is None)
                assert piv is None or np.array_equal(piv, piv_ref)
            # ... and so are the K systems' Schur-complement factors
            sweeps = solver.factor_plan.sweeps, fresh.factor_plan.sweeps
            assert len(sweeps[0]) == len(sweeps[1])
            for sw, sw_ref in zip(*sweeps):
                assert sw.swaps == sw_ref.swaps
                for name in ("g3", "uinv3", "tb3"):
                    assert np.array_equal(getattr(sw, name), getattr(sw_ref, name))
            assert np.array_equal(solver.solve(b), fresh.solve(b))
            assert solver.slogdet() == fresh.slogdet()

    def test_changed_leaf_outside_the_update_is_refactorized(self):
        """Reuse follows the diagonal blocks, not a caller's dirty set: a
        shift of one leaf's diagonal after the update refactorizes it."""
        from repro import get_recorder
        from repro.core.arithmetic import add_diagonal

        steps = self._updates("real", 32)
        H, _ = next(steps)
        solver = HODLRSolver(H).factorize()
        H, dirty = next(steps)
        leaf = next(lf for lf in H.tree.leaves if lf.index not in dirty)
        d = np.zeros(H.n)
        d[leaf.start : leaf.stop] = 0.25
        H = add_diagonal(H, d)
        with get_recorder().recording() as trace:
            solver.patch_factorize(H)
        dirty_leaves = sum(lf.index in dirty for lf in H.tree.leaves)
        assert _leaf_factor_batches(trace, H.tree) == dirty_leaves + 1
        b = np.random.default_rng(2).standard_normal(H.n)
        assert np.array_equal(solver.solve(b), HODLRSolver(H).factorize().solve(b))

    def test_updated_matrix_owns_its_stacks(self):
        """Clean blocks are copied, not shared: the input stays writable and
        writing into it leaves the updated matrix unchanged."""
        steps = self._updates("real", 32)
        H, _ = next(steps)
        M, _ = next(steps)
        dense = M.to_dense()
        stacks = [db.D for db in H.storage.diag] + [
            b.U for level in H.storage.bases.values() for b in level
        ]
        for a in stacks:
            assert a.flags.writeable
            a[...] = 0.0
        assert np.array_equal(M.to_dense(), dense)

    @pytest.mark.parametrize("width", [3, 5, 7])
    def test_restack_copies_kept_rows_in_runs(self, width):
        """Kept rows in any order (runs broken by new members, reordering
        and skipped old rows) land where a block-by-block copy puts them,
        with the old padding narrowed or widened to the new rank."""
        from repro.core.hodlr import _stack_into

        rng = np.random.default_rng(5)
        old = np.zeros((6, 4, 5))
        ranks = [3, 2, 3, 1, 3, 2]
        for j, r in enumerate(ranks):
            old[j, :, :r] = rng.standard_normal((4, r))
        rows = np.array([2, 3, -1, 0, 1, 5, -1])
        blocks = [
            old[r, :, : ranks[r]] if r >= 0 else rng.standard_normal((4, 2))
            for r in rows
        ]
        out = _stack_into(old, blocks, (7, 4, width), np.float64, old, rows)
        expected = np.zeros((7, 4, width))
        for j, blk in enumerate(blocks):
            expected[j, :, : blk.shape[1]] = blk
        assert np.array_equal(out, expected)

    def test_demoted_leaf_factors_are_not_reused(self):
        from repro import ExecutionContext, PrecisionPolicy, get_recorder

        ctx = ExecutionContext(precision=PrecisionPolicy(factor="float32"))
        steps = self._updates("real", 32)
        H, _ = next(steps)
        solver = HODLRSolver(H, context=ctx).factorize()
        assert solver.factor_plan.demoted
        H, dirty = next(steps)
        with get_recorder().recording() as trace:
            solver.patch_factorize(H)
        # every leaf is factorized again at the working precision
        assert _leaf_factor_batches(trace, H.tree) == H.tree.num_leaves
        fresh = HODLRSolver(H, context=ctx).factorize()
        b = np.random.default_rng(1).standard_normal(H.n)
        assert np.array_equal(solver.solve(b), fresh.solve(b))


class TestSymmetricUpdates:
    @staticmethod
    def _source(p):
        def entries(rows, cols):
            d = np.abs(p[np.asarray(rows)][:, None] - p[np.asarray(cols)][None, :])
            return 1.0 / (1.0 + 40.0 * d) + 4.0 * (d == 0)

        return entries

    def test_stream_keeps_symmetric_storage(self, monkeypatch):
        n, k, leaf = 512, 4, 32
        rng = np.random.default_rng(41)
        pts = np.sort(rng.uniform(0.0, 1.0, n))
        idx = np.arange(n)
        H = build_hodlr(
            self._source(pts), ClusterTree.balanced(n, leaf_size=leaf), tol=1e-12,
            method="svd",
        )
        assert H.symmetric
        cfg = {"compression": {"tol": 1e-12, "method": "svd", "leaf_size": leaf}}
        op = repro.HODLROperator(H, cfg)
        b = rng.standard_normal(n)
        op @ op.solve(b)
        # the dirty nodes of the update functions the operator calls
        passed = []
        for name in ("remove_points", "update_points"):
            monkeypatch.setattr(update_module, name, _record_dirty(
                getattr(update_module, name), passed
            ))
        for _ in range(12):
            start = int(rng.integers(leaf, n - leaf - k))
            mid = np.delete(pts, np.arange(start, start + k))
            j = int(rng.integers(leaf, n - leaf - k))
            new = np.sort(rng.uniform(mid[j - 1], mid[j], k))
            pts = np.concatenate([mid[:j], new, mid[j:]])
            with repro.get_recorder().recording() as trace:
                op.update(
                    points_removed=np.arange(start, start + k),
                    points_added=j + np.arange(k),
                    source=self._source(pts),
                    tol=1e-12,
                )
            assert op.hodlr.symmetric
            tree = op.hodlr.tree
            dirty = passed[-2] | passed[-1]
            dirty_leaves = sum(leaf.index in dirty for leaf in tree.leaves)
            assert 0 < dirty_leaves < tree.num_leaves
            assert _leaf_factor_batches(trace, tree) == dirty_leaves
            op @ op.solve(b)
        fresh = repro.HODLROperator(op.hodlr, cfg)
        fresh @ fresh.solve(b)
        assert op.resident_nbytes() == fresh.resident_nbytes()
        A = self._source(pts)(idx, idx)
        x = op.solve(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-10

    def test_non_symmetric_insert_falls_back(self):
        n, k = 256, 3
        rng = np.random.default_rng(42)
        pts = np.sort(rng.uniform(0.0, 1.0, n + k))
        where = np.array([90, 91, 92])
        old = np.delete(pts, where)
        H = build_hodlr(
            self._source(old), ClusterTree.balanced(n, leaf_size=32), tol=1e-12,
            method="svd",
        )
        assert H.symmetric
        # the updated operator gains a non-symmetric part
        sym = self._source(pts)

        def skewed(rows, cols):
            rows, cols = np.asarray(rows), np.asarray(cols)
            return sym(rows, cols) + 0.05 * np.outer(
                np.sin(3 * pts[rows]), np.cos(2 * pts[cols])
            )

        upd = update_points(H, skewed, where, tol=1e-12)
        assert not upd.matrix.symmetric
        # only the inserted rows and columns come from the new source
        idx = np.arange(n + k)
        A = sym(idx, idx)
        A[where, :] = skewed(where, idx)
        A[:, where] = skewed(idx, where)
        fresh = build_hodlr(A, upd.matrix.tree, tol=1e-12, method="svd")
        assert not fresh.symmetric
        diff = np.linalg.norm(upd.matrix.to_dense() - fresh.to_dense())
        assert diff / np.linalg.norm(A) < 1e-8
        b = rng.standard_normal(n + k)
        x = HODLRSolver(upd.matrix).factorize().solve(b)
        x_fresh = HODLRSolver(fresh).factorize().solve(b)
        assert np.linalg.norm(x - x_fresh) / np.linalg.norm(x_fresh) < 1e-8

    def test_remove_keeps_symmetric_and_complex_mirror(self):
        n = 192
        A = complex_test_matrix(n, seed=43)
        H = build_hodlr(A, ClusterTree.balanced(n, leaf_size=24), tol=1e-12, method="svd")
        assert H.symmetric
        where = np.array([5, 100, 101])
        upd = remove_points(H, where, tol=1e-12)
        assert upd.matrix.symmetric
        A_small = _delete(A, where)
        err = np.linalg.norm(upd.matrix.to_dense() - A_small) / np.linalg.norm(A_small)
        assert err < 1e-10


class TestOperatorUpdate:
    @pytest.mark.parametrize("variant", ["recursive", "batched"])
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
        assert info["path"] == "rebuild"

    @pytest.mark.parametrize("variant", ["recursive", "batched"])
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
        assert op.last_update_info["path"] == "rebuild"
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
        assert op.last_update_info["path"] == "rebuild"
        b = np.random.default_rng(7).standard_normal(n + k)
        x = op.solve(b)
        x_fresh = repro.build_operator(A_new, config=cfg).solve(b)
        assert np.linalg.norm(x - x_fresh) / np.linalg.norm(x_fresh) < 1e-10

    def test_stream_does_not_fragment_plans(self):
        """A stream of updates leaves plans shaped like a fresh operator's."""
        n, k, leaf = 1024, 4, 32
        rng = np.random.default_rng(27)
        pts = np.sort(rng.uniform(0.0, 1.0, n))

        def source(p):
            def entries(rows, cols):
                d = np.abs(p[np.asarray(rows)][:, None] - p[np.asarray(cols)][None, :])
                return 1.0 / (1.0 + 40.0 * d) + 4.0 * (d == 0)

            return entries

        idx = np.arange(n)
        tree = ClusterTree.balanced(n, leaf_size=leaf)
        H = build_hodlr(source(pts)(idx, idx), tree, tol=1e-12, method="svd")
        cfg = {"compression": {"tol": 1e-12, "method": "svd", "leaf_size": leaf}}
        op = repro.HODLROperator(H, cfg)
        b = rng.standard_normal(n)
        op @ op.solve(b)  # factorize and compile the apply plan
        for _ in range(12):
            # remove k contiguous points; insert k clustered points elsewhere
            start = int(rng.integers(leaf, n - leaf - k))
            removed = np.arange(start, start + k)
            mid = np.delete(pts, removed)
            j = int(rng.integers(leaf, n - leaf - k))
            new = np.sort(rng.uniform(mid[j - 1], mid[j], k))
            pts = np.concatenate([mid[:j], new, mid[j:]])
            op.update(
                points_removed=removed,
                points_added=j + np.arange(k),
                source=source(pts),
                tol=1e-12,
            )
            assert op.last_update_info["path"] == "rebuild"
            op @ op.solve(b)
        fresh = repro.HODLROperator(op.hodlr, cfg)
        x_fresh = fresh.solve(b)
        fresh @ x_fresh
        assert (
            op.solver.factor_plan.launches_per_solve
            == fresh.solver.factor_plan.launches_per_solve
        )
        assert op.apply_plan.launches_per_apply == fresh.apply_plan.launches_per_apply
        x = op.solve(b)
        assert np.linalg.norm(x - x_fresh) / np.linalg.norm(x_fresh) < 1e-10

    def test_emptied_leaf_raises_and_leaves_operator_unchanged(self):
        op = repro.build_operator("gaussian_kernel", n=256)
        b = np.random.default_rng(28).standard_normal(256)
        x = op.solve(b)
        perm = op.perm.copy()
        leaf = op.hodlr.tree.leaves[0]
        with pytest.raises(PatchUnsupportedError):
            op.update(points_removed=perm[leaf.start : leaf.stop])
        assert op.n == 256 and op.shape == (256, 256)
        assert np.array_equal(op.perm, perm)
        assert np.array_equal(op.solve(b), x)

    def test_update_requires_a_change(self):
        A_old, _, _, _ = _insert_problem()
        op = repro.build_operator(A_old)
        with pytest.raises(ValueError):
            op.update()


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
