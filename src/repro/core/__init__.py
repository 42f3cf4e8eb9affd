"""Core HODLR data structures and factorization algorithms.

Layout of the subpackage (bottom-up):

* :mod:`cluster_tree`     -- Definition 1: binary cluster trees over index sets.
* :mod:`low_rank`         -- ``U V*`` low-rank factors and truncation utilities.
* :mod:`compression`      -- SVD / rook-pivoted cross approximation compression.
* :mod:`hodlr`            -- Definition 2: the HODLR matrix container, which owns
                             the per-level basis stacks (the paper's concatenated
                             layout) and the reference tree-walk matvec.
* :mod:`apply_plan`       -- the compiled, shape-bucketed matvec.
* :mod:`factor_plan`      -- the compiled factorization and solve sweep.
* :mod:`factor_recursive` -- section III-A recursive factorization (reference).
* :mod:`factor_batched`   -- Algorithms 1-4 (the compiled plan factorization).
* :mod:`solver`           -- user-facing :class:`HODLRSolver`.
* :mod:`determinant`      -- determinant / log-determinant via the factorization.
* :mod:`spd`              -- symmetric factorization of SPD HODLR matrices.
"""

from .cluster_tree import ClusterTree, TreeNode
from .low_rank import LowRankFactor
from .compression import (
    CompressionConfig,
    compress_block,
    svd_compress,
    rook_pivot_compress,
)
from .apply_plan import ApplyPlan
from .factor_plan import FactorPlan, SolvePlan, build_factor_plan
from .hodlr import HODLRMatrix, build_hodlr, build_hodlr_from_dense
from .factor_recursive import RecursiveFactorization
from .factor_batched import BatchedFactorization
from .solver import HODLRSolver
from .determinant import logdet_from_factorization
from .spd import SymmetricFactorization
from .arithmetic import (
    add,
    add_diagonal,
    add_low_rank_update,
    diagonal,
    scale,
    trace,
    transpose,
)
from .peeling import peel_hodlr

__all__ = [
    "add",
    "add_diagonal",
    "add_low_rank_update",
    "diagonal",
    "scale",
    "trace",
    "transpose",
    "peel_hodlr",
    "ClusterTree",
    "TreeNode",
    "LowRankFactor",
    "CompressionConfig",
    "compress_block",
    "svd_compress",
    "rook_pivot_compress",
    "ApplyPlan",
    "FactorPlan",
    "SolvePlan",
    "build_factor_plan",
    "HODLRMatrix",
    "build_hodlr",
    "build_hodlr_from_dense",
    "RecursiveFactorization",
    "BatchedFactorization",
    "HODLRSolver",
    "logdet_from_factorization",
    "SymmetricFactorization",
]
