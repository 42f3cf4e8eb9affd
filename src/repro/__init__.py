"""repro — HODLR fast direct solver with batched (GPU-style) factorization.

A from-scratch Python reproduction of

    Chao Chen and Per-Gunnar Martinsson,
    "Solving Linear Systems on a GPU with Hierarchically Off-Diagonal
    Low-Rank Approximations", SC 2022 (arXiv:2208.06290).

The package contains the paper's primary contribution — the concatenated
``Ubig``/``Vbig``/``Dbig``/``Kbig`` data layout and the level-batched
factorization and solve algorithms (Algorithms 1-4) — together with every
substrate its evaluation depends on: cluster trees, low-rank compression
(SVD / rook-pivoted cross approximation / randomized / proxy surface),
kernel matrices (RPY, Gaussian, Matern), 2-D boundary integral equations
(Laplace double layer, Helmholtz combined field, Kapur-Rokhlin quadrature),
the HODLRlib-style recursive CPU baseline, the Ho-Greengard block-sparse
baseline, a batched dense linear-algebra backend with kernel tracing, and
an analytic GPU/CPU performance model used in place of the paper's V100
testbed (see DESIGN.md for the substitution rationale).

Quick start
-----------
The public entry point is the operator-centric facade in :mod:`repro.api`:
``repro.solve`` accepts a registered problem name, a ``Problem`` object, a
prebuilt ``HODLRMatrix``, or a dense array, and runs it under an immutable
``SolverConfig``.

>>> import numpy as np
>>> import repro
>>> from repro.api import CompressionConfig, SolverConfig
>>> rng = np.random.default_rng(0)
>>> # a small synthetic HODLR-compressible matrix
>>> n = 512
>>> x = np.sort(rng.uniform(0, 1, n))
>>> A = 1.0 / (1.0 + 50.0 * np.abs(x[:, None] - x[None, :])) + n * np.eye(n)
>>> b = rng.standard_normal(n)
>>> cfg = SolverConfig(compression=CompressionConfig(tol=1e-10, method="svd"))
>>> result = repro.solve(A, b, config=cfg)
>>> float(np.linalg.norm(A @ result.x - b) / np.linalg.norm(b)) < 1e-8
True

Registered scenarios are one call away —
``repro.solve("helmholtz_bie", config=cfg, n=4096, kappa=25.0)`` — and
``repro.build_operator`` returns the lazy ``HODLROperator`` (a SciPy
``LinearOperator`` with ``solve``, ``logdet``, and ``as_preconditioner()``)
when the factorization itself is the object of interest.
"""

from .core.cluster_tree import ClusterTree, TreeNode
from .core.low_rank import LowRankFactor
from .core.compression import (
    CompressionConfig,
    compress_block,
    compress_blocks_batched,
    svd_compress,
    svd_compress_batched,
    rook_pivot_compress,
    randomized_compress,
    randomized_compress_batched,
)
from .core.apply_plan import ApplyPlan
from .core.factor_plan import FactorPlan, SolvePlan, build_factor_plan
from .core.hodlr import HODLRMatrix, build_hodlr, build_hodlr_from_dense
from .core.bigdata import BigMatrices
from .core.factor_recursive import RecursiveFactorization
from .core.factor_batched import BatchedFactorization
from .core.solver import (
    HODLRSolver,
    available_solver_variants,
    register_solver_variant,
)
from .core.spd import SymmetricFactorization
from .core import arithmetic
from .core.peeling import peel_hodlr
from .core.update import (
    HODLRUpdate,
    PatchUnsupportedError,
    move_points,
    remove_points,
    update_points,
)

from .backends.context import ExecutionContext, PrecisionPolicy, resolve_context
from .backends.dispatch import (
    ArrayBackend,
    BatchPlanner,
    DispatchPolicy,
    NumpyBackend,
    available_backends,
    get_backend,
    plan_batch,
    plan_batch_padded,
    register_backend,
)
from .backends.memory import DeviceMemoryTracker, hodlr_device_footprint, max_problem_size
from .backends.counters import get_recorder
from .backends.parallel import (
    ParallelPolicy,
    pool_stats,
    resolve_parallel,
    shutdown_pool,
)
from .backends.device import GPU_V100, CPU_XEON_6254_DUAL, PCIE3_X16, DeviceSpec
from .backends.perfmodel import PerformanceModel
from .backends.calibration import (
    MachineProfile,
    calibrate,
    machine_fingerprint,
    set_active_profile,
    use_profile,
)

from .kernels.kernel_matrix import KernelMatrix
from .kernels.radial import (
    ExponentialKernel,
    GaussianKernel,
    HelmholtzKernel2D,
    MaternKernel,
)
from .kernels.rpy import RPYKernel

from .bie.contour import StarContour, EllipseContour
from .bie.laplace_bie import LaplaceDoubleLayerBIE, laplace_dirichlet_reference
from .bie.helmholtz_bie import HelmholtzCombinedBIE, helmholtz_dirichlet_reference
from .bie.proxy import ProxyCompressionConfig, build_hodlr_proxy

from .baselines.dense_lu import DenseLUSolver
from .baselines.hodlrlib_cpu import HODLRlibStyleSolver
from .baselines.block_sparse import BlockSparseSolver

from .elliptic.grid import RegularGrid2D
from .elliptic.poisson import assemble_poisson_2d, poisson_manufactured_solution
from .elliptic.schur import SchurComplementSolver

from . import api
from .api import (
    AssembledProblem,
    CacheStats,
    HODLRInverseOperator,
    HODLROperator,
    OperatorCache,
    Problem,
    ProblemNotFoundError,
    SolveResult,
    SolverConfig,
    SweepResult,
    SweepStep,
    SweepWorkspace,
    available_problems,
    build_operator,
    cache_stats,
    clear_operator_cache,
    configure_operator_cache,
    disable_operator_cache,
    enable_operator_cache,
    get_problem,
    operator_cache,
    operator_cache_enabled,
    register_problem,
    run_sweep,
    solve,
    solve_many,
    solve_portfolio,
    update_operator,
)
from .api.krylov import cg_solve, gmres_solve

__version__ = "1.0.0"

__all__ = [
    # unified API (repro.api)
    "api",
    "solve",
    "solve_many",
    "build_operator",
    "update_operator",
    "SolverConfig",
    "SolveResult",
    "HODLROperator",
    "HODLRInverseOperator",
    "Problem",
    "AssembledProblem",
    "ProblemNotFoundError",
    "register_problem",
    "get_problem",
    "available_problems",
    "gmres_solve",
    "cg_solve",
    "CacheStats",
    "OperatorCache",
    "cache_stats",
    "clear_operator_cache",
    "configure_operator_cache",
    "disable_operator_cache",
    "enable_operator_cache",
    "operator_cache",
    "operator_cache_enabled",
    "SweepResult",
    "SweepStep",
    "SweepWorkspace",
    "run_sweep",
    "solve_portfolio",
    # core
    "ClusterTree",
    "TreeNode",
    "LowRankFactor",
    "CompressionConfig",
    "compress_block",
    "compress_blocks_batched",
    "svd_compress",
    "svd_compress_batched",
    "rook_pivot_compress",
    "randomized_compress",
    "randomized_compress_batched",
    "ApplyPlan",
    "FactorPlan",
    "SolvePlan",
    "build_factor_plan",
    "HODLRMatrix",
    "build_hodlr",
    "build_hodlr_from_dense",
    "BigMatrices",
    "RecursiveFactorization",
    "BatchedFactorization",
    "HODLRSolver",
    "available_solver_variants",
    "register_solver_variant",
    "SymmetricFactorization",
    "arithmetic",
    "peel_hodlr",
    "HODLRUpdate",
    "PatchUnsupportedError",
    "update_points",
    "remove_points",
    "move_points",
    # backends
    "ArrayBackend",
    "BatchPlanner",
    "DispatchPolicy",
    "ExecutionContext",
    "PrecisionPolicy",
    "NumpyBackend",
    "available_backends",
    "get_backend",
    "plan_batch",
    "plan_batch_padded",
    "register_backend",
    "resolve_context",
    "DeviceMemoryTracker",
    "hodlr_device_footprint",
    "max_problem_size",
    "get_recorder",
    "GPU_V100",
    "CPU_XEON_6254_DUAL",
    "PCIE3_X16",
    "DeviceSpec",
    "PerformanceModel",
    "MachineProfile",
    "calibrate",
    "machine_fingerprint",
    "set_active_profile",
    "use_profile",
    "ParallelPolicy",
    "pool_stats",
    "resolve_parallel",
    "shutdown_pool",
    # kernels
    "KernelMatrix",
    "GaussianKernel",
    "HelmholtzKernel2D",
    "MaternKernel",
    "ExponentialKernel",
    "RPYKernel",
    # BIE
    "StarContour",
    "EllipseContour",
    "LaplaceDoubleLayerBIE",
    "laplace_dirichlet_reference",
    "HelmholtzCombinedBIE",
    "helmholtz_dirichlet_reference",
    "ProxyCompressionConfig",
    "build_hodlr_proxy",
    # baselines
    "DenseLUSolver",
    "HODLRlibStyleSolver",
    "BlockSparseSolver",
    # elliptic PDE substrate
    "RegularGrid2D",
    "assemble_poisson_2d",
    "poisson_manufactured_solution",
    "SchurComplementSolver",
    "__version__",
]
