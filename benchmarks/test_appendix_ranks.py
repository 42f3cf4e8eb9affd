"""Appendix: per-level off-diagonal ranks of the HODLR approximations.

The paper's appendix tabulates the ranks of the off-diagonal blocks from
level 1 (coarsest) to the leaf level for five configurations.  The absolute
values depend on N (deeper trees, bigger top-level blocks), but the
qualitative structure is reproducible at reduced size:

* RPY (3-D points): ranks decrease from the top level towards the leaves;
* Laplace BIE, high accuracy: ranks are small (tens) and nearly flat;
* Laplace BIE, low accuracy: ranks collapse to single digits;
* Helmholtz BIE: top-level ranks are several times the Laplace ones and
  decay towards the leaves.
"""

import numpy as np
import pytest

from repro import (
    ClusterTree,
    HelmholtzCombinedBIE,
    LaplaceDoubleLayerBIE,
    CompressionConfig,
    RPYKernel,
    StarContour,
    build_hodlr,
    build_hodlr_proxy,
)
from repro.analysis.ranks import PAPER_APPENDIX_RANKS
from repro.kernels.points import uniform_points

from common import TableRow, save_rows


@pytest.fixture(scope="module")
def rank_profiles(bench_rng):
    profiles = {}

    # RPY kernel over 3-D points (Table III configuration)
    pts = uniform_points(512, dim=3, rng=np.random.default_rng(0))
    kern = RPYKernel()
    _, perm = ClusterTree.from_points(pts, leaf_size=24)
    pts = pts[perm]
    tree = ClusterTree.balanced(3 * 512, leaf_size=96)
    profiles["rpy"] = build_hodlr(kern.evaluator(pts), tree, tol=1e-8, method="svd").rank_profile()

    # Laplace BIE, high and low accuracy (Table IV configurations)
    lap = LaplaceDoubleLayerBIE(contour=StarContour(), n=2048)
    profiles["laplace_high"] = build_hodlr_proxy(
        lap, config=CompressionConfig(method="proxy", tol=1e-10, leaf_size=64)
    ).rank_profile()
    profiles["laplace_low"] = build_hodlr_proxy(
        lap, config=CompressionConfig(method="proxy", tol=1e-4, leaf_size=64)
    ).rank_profile()

    # Helmholtz BIE (Table V configuration)
    helm = HelmholtzCombinedBIE(contour=StarContour(), n=2048, kappa=15.0)
    profiles["helmholtz_high"] = build_hodlr_proxy(
        helm, config=CompressionConfig(method="proxy", tol=1e-8, n_proxy=96, leaf_size=64)
    ).rank_profile()

    rows = [
        TableRow(experiment="appendix_ranks", n=len(profile), relres=0.0,
                 extra={f"level_{i+1}": float(r) for i, r in enumerate(profile)})
        for profile in profiles.values()
    ]
    save_rows("appendix_ranks", rows)
    return profiles


class TestAppendixRanks:
    def test_report(self, rank_profiles, benchmark):
        benchmark(lambda: None)
        print("\nPer-level off-diagonal ranks (level 1 = coarsest, last = leaf level):")
        for name, profile in rank_profiles.items():
            print(f"  {name:<15}: {profile}")
        print("\nPaper appendix values (for the full-size problems):")
        for name, ranks in PAPER_APPENDIX_RANKS.items():
            print(f"  {name:<25}: {ranks}")

    def test_rpy_ranks_decay_towards_leaves(self, rank_profiles):
        profile = rank_profiles["rpy"]
        assert profile[-1] < profile[0]

    def test_laplace_low_accuracy_ranks_are_single_digit(self, rank_profiles):
        """Table IVb appendix row: ranks 1..11 at tol ~1e-4."""
        assert max(rank_profiles["laplace_low"]) <= 15

    def test_laplace_high_accuracy_ranks_are_tens(self, rank_profiles):
        """Table IVa appendix row: ranks 13..24 at high accuracy."""
        assert max(rank_profiles["laplace_high"]) <= 64
        assert max(rank_profiles["laplace_high"]) > max(rank_profiles["laplace_low"])

    def test_helmholtz_ranks_exceed_laplace_and_decay(self, rank_profiles):
        """Table Va appendix row: Helmholtz top-level rank is several x the Laplace one
        and decreases monotonically-ish towards the leaves."""
        helm = rank_profiles["helmholtz_high"]
        lap = rank_profiles["laplace_high"]
        assert helm[0] > lap[0]
        assert helm[-1] < helm[0]
