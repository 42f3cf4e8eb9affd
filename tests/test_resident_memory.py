"""The operator keeps one resident copy of its bases.

The HODLR matrix owns per-level, shape-bucketed basis stacks and both
compiled plans read them as views.  These tests guard the byte accounting
the benchmark's ``operator_mb`` relies on against hidden copies: the
counted bytes must equal the deduplicated resident bytes, and the bytes
``tracemalloc`` sees retained must not exceed them by more than Python
object overhead.
"""

import gc
import tracemalloc

import numpy as np
import pytest

import repro

PROBLEMS = {
    "gaussian": ("gaussian_kernel", dict(n=1024)),
    "helmholtz": ("helmholtz_kernel", dict(n=1024, kappa=20.0)),
}


def _applied_operator(name):
    """A factored operator that has compiled its apply plan, and the bytes
    ``tracemalloc`` saw it retain."""
    problem, params = PROBLEMS[name]
    prob = repro.get_problem(problem, seed=0, **params)
    x = np.ones(prob.n)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        op = repro.build_operator(prob).factorize()
        op @ x
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return op, retained


@pytest.fixture(scope="module", params=sorted(PROBLEMS))
def applied(request):
    return _applied_operator(request.param)


def test_resident_bytes_match_counted_bytes(applied):
    op, _ = applied
    counted = op.hodlr.nbytes + op.solver.factor_plan.nbytes + op.apply_plan.nbytes
    assert op.resident_nbytes() == counted


def test_tracemalloc_retained_within_resident(applied):
    op, retained = applied
    assert retained <= 1.1 * op.resident_nbytes()


def test_plans_view_the_matrix_stacks(applied):
    op, _ = applied
    H = op.hodlr
    storage = H.storage
    assert H.symmetric  # both sources are symmetric kernels
    plan = op.apply_plan
    assert not plan.demoted
    for db, sd in zip(plan.diag_buckets, storage.diag):
        assert np.shares_memory(db.D3, sd.D)
    stacks = [b.U for buckets in storage.bases.values() for b in buckets]
    for b in plan.lowrank_buckets:
        assert any(np.shares_memory(b.U3, s) for s in stacks)
        assert any(np.shares_memory(b.Vh3, s) for s in stacks)
    for sw in op.solver.factor_plan.sweeps:
        for bk in sw.buckets:
            assert any(np.shares_memory(bk.Vh3, s) for s in stacks)


def test_real_symmetric_source_aliases_v_to_u():
    prob = repro.get_problem("gaussian_kernel", n=512, seed=0)
    H = repro.build_operator(prob).hodlr
    assert H.symmetric and H.dtype == np.float64
    for k in H.U:
        assert H.V[k] is H.U[k]
        assert np.shares_memory(H.V[k], H.U[k])
    # only U is stored: one stack per bucket
    buffers = H.storage.buffers()
    assert len({id(a) for a in buffers}) == len(buffers)
    assert H.nbytes == sum(a.nbytes for a in buffers)


def test_per_node_dicts_are_read_only_views():
    prob = repro.get_problem("gaussian_kernel", n=512, seed=0)
    H = repro.build_operator(prob).hodlr
    leaf = H.tree.leaves[0]
    with pytest.raises(TypeError):
        H.diag[leaf.index] = 2.0 * H.diag[leaf.index]
    k = next(iter(H.U))
    with pytest.raises(TypeError):
        H.U[k] = H.U[k].copy()
    assert np.shares_memory(H.diag[leaf.index], H.storage.diag[0].D)
