"""Block replay through row views: input layouts and peak memory.

The compiled :class:`~repro.core.factor_plan.SolvePlan` and
:class:`~repro.core.apply_plan.ApplyPlan` read and write each contiguous
bucket of a C-contiguous working array through a zero-copy ``(nb, M, K)``
row view (:meth:`GatherScatter.view`), and fall back to copying gathers on
scattered or precision-demoted buckets.  These tests pin that a
right-hand side in any memory layout gives the C-contiguous answer on every
path, and that one block solve or apply allocates little beyond its output.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from conftest import complex_test_matrix, hodlr_friendly_matrix, spd_kernel_matrix

import repro
from repro import PrecisionPolicy, SolverConfig
from repro.core.packing import GatherScatter

N = 600
K = 5


def _complex_nonsymmetric(n):
    x = np.sort(np.random.default_rng(0).uniform(0.0, 1.0, n))
    return complex_test_matrix(n) + 0.05j * np.outer(np.sin(3 * np.pi * x), np.cos(2 * np.pi * x))


SOURCES = {
    "real-symmetric": spd_kernel_matrix,
    "real-nonsymmetric": hodlr_friendly_matrix,
    "complex-symmetric": complex_test_matrix,
    "complex-nonsymmetric": _complex_nonsymmetric,
}

CONFIGS = {
    "default": SolverConfig(),
    # levels >= 2 and the leaves demoted, level 1 full precision: both the
    # view path and the copying fallback run in one sweep
    "demoted": SolverConfig(
        precision=PrecisionPolicy(
            factor="float32", factor_min_level=2, plan="float32", plan_min_level=2
        )
    ),
}

#: the same values as the argument in another memory layout
LAYOUTS = {
    "fortran": np.asfortranarray,
    "column-strided": lambda B: np.repeat(B, 2, axis=1)[:, ::2],
    "row-reversed": lambda B: np.ascontiguousarray(B[::-1])[::-1],
}


def _assert_matches(got, ref):
    assert got.shape == ref.shape and got.dtype == ref.dtype
    np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max())


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("source", sorted(SOURCES))
def test_noncontiguous_right_hand_sides_match_c_order(source, config):
    A = SOURCES[source](N)
    cfg = CONFIGS[config]
    op = repro.build_operator(A, cfg).factorize()
    H = op.hodlr
    rng = np.random.default_rng(3)
    B = rng.standard_normal((N, K))
    if np.iscomplexobj(A):
        B = B + 1j * rng.standard_normal((N, K))

    solve_ref, apply_ref = op.solve(B), op @ B
    plan_solve_ref = op.solver.solve_plan.solve(B)
    plan_apply_ref = op.apply_plan.matvec(B)
    many_ref = repro.solve_many(H, B, cfg).x
    for name, layout in LAYOUTS.items():
        Bl = layout(B)
        assert not Bl.flags.c_contiguous and np.array_equal(Bl, B), name
        _assert_matches(op.solve(Bl), solve_ref)
        _assert_matches(op @ Bl, apply_ref)
        _assert_matches(op.solver.solve_plan.solve(Bl), plan_solve_ref)
        _assert_matches(op.apply_plan.matvec(Bl), plan_apply_ref)
        _assert_matches(repro.solve_many(H, Bl, cfg).x, many_ref)

    b = B[:, 0]
    b_strided = np.repeat(b, 2)[::2]
    assert not b_strided.flags.c_contiguous
    _assert_matches(op.solve(b_strided), op.solve(b))
    _assert_matches(op @ b_strided, op @ b)
    _assert_matches(op.solver.solve_plan.solve(b_strided), op.solver.solve_plan.solve(b))
    _assert_matches(op.apply_plan.matvec(b_strided), op.apply_plan.matvec(b))


def test_view_is_zero_copy_for_contiguous_buckets_only():
    x = np.arange(24.0).reshape(12, 2)
    gs = GatherScatter.from_ranges([(0, 4), (4, 8), (8, 12)], 4)
    v = gs.view(x)
    assert v.shape == (3, 4, 2) and np.shares_memory(v, x)
    v[1] = -1.0
    assert np.all(x[4:8] == -1.0)
    # take() still hands its caller an owned copy
    assert not np.shares_memory(gs.take(x), x)
    assert gs.view(np.asfortranarray(x)) is None
    assert gs.view(x[::-1]) is None
    # every member of a bucket has the bucket's rows: nothing is padded
    with pytest.raises(ValueError, match="4 rows"):
        GatherScatter.from_ranges([(0, 3), (3, 7)], 4)
    scattered = GatherScatter.from_ranges([(0, 4), (8, 12)], 4)
    assert scattered.view(x) is None


# ======================================================================
# peak memory of one block solve / apply
# ======================================================================
@pytest.fixture(scope="module")
def gp_block():
    op = repro.build_operator("gp_covariance", n=4096).factorize()
    op @ np.ones(op.n)
    B = np.random.default_rng(0).standard_normal((op.n, 32))
    return op, B


def _peak_ratio(fn, B):
    """Peak bytes ``tracemalloc`` sees while ``fn(B)`` runs, over ``B.nbytes``."""
    fn(B)  # warm any lazily built plan state outside the measurement
    gc.collect()
    tracemalloc.start()
    try:
        fn(B)
        return tracemalloc.get_traced_memory()[1] / B.nbytes
    finally:
        tracemalloc.stop()


def test_block_solve_peak_memory(gp_block):
    op, B = gp_block
    # the solution plus one update workspace (the copying sweep took 6.1x)
    assert _peak_ratio(op.solver.solve_plan.solve, B) <= 2.25


def test_block_apply_peak_memory(gp_block):
    op, B = gp_block
    # the product plus one update workspace (the copying replay took 3.0x)
    assert _peak_ratio(op.apply_plan.matvec, B) <= 2.25
