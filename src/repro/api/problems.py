"""Built-in problem adapters: the paper's workloads behind the registry.

Each adapter wraps one of the repository's scenario constructors (kernel
matrices, RPY hydrodynamics, Laplace/Helmholtz BIE, GP covariance,
elliptic separator Schur complements) as a :class:`~repro.api.problem.Problem`,
so every scenario is reachable through one front door::

    result = repro.solve("helmholtz_bie", config=cfg, n=4096, kappa=25.0)

All adapters honour the :class:`~repro.core.compression.CompressionConfig` inside
the solver config (tolerance, method, leaf size, rank cap); geometric /
physical parameters (sizes, wavenumbers, lengthscales) are constructor
parameters forwarded by :func:`~repro.api.problem.get_problem`.

Registered names
----------------
``gaussian_kernel``
    Gaussian kernel matrix over a random 2-D point cloud with a nugget
    (the quickstart workload).
``gp_covariance``
    Matern covariance of a 1-D GP regression, with training targets as the
    natural right-hand side (marginal-likelihood workloads).
``helmholtz_kernel``
    Oscillatory Helmholtz point-source kernel matrix (complex) over a
    random 2-D cloud (the frequency-sweep example of
    :func:`repro.run_sweep`).
``rpy_mobility``
    RPY mobility matrix of a random particle suspension (Table III).
``laplace_bie``
    Exterior Laplace Dirichlet problem, double-layer + monopole BIE with
    proxy-surface compression (Table IV).
``helmholtz_bie``
    Exterior Helmholtz scattering, combined-field BIE with Kapur-Rokhlin
    quadrature and proxy-surface compression (Table V).
``elliptic_schur``
    Separator Schur complement of a variable-coefficient 2-D Poisson
    problem, compressed matrix-free by peeling.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Optional

import numpy as np

from ..bie.contour import StarContour
from ..bie.helmholtz_bie import HelmholtzCombinedBIE
from ..bie.laplace_bie import LaplaceDoubleLayerBIE, laplace_dirichlet_reference
from ..bie.proxy import build_hodlr_proxy
from ..core.cluster_tree import ClusterTree
from ..core.hodlr import build_hodlr
from ..elliptic.grid import RegularGrid2D
from ..elliptic.poisson import poisson_manufactured_solution
from ..elliptic.schur import SchurComplementSolver
from ..kernels.kernel_matrix import KernelMatrix, blockwise_matvec
from ..kernels.points import uniform_points
from ..kernels.radial import GaussianKernel, HelmholtzKernel2D, MaternKernel
from ..kernels.rpy import RPYKernel
from .config import CompressionConfig, ConfigError, SolverConfig
from .operator import HODLROperator
from .problem import AssembledProblem, register_problem


def _entries_matvec(entries: Callable, n: int, block_size: int = 2048) -> Callable:
    """Blockwise exact matvec from an ``entries(rows, cols)`` evaluator."""
    return functools.partial(blockwise_matvec, entries, n, block_size=block_size)


def _kernel_assembled(
    name: str,
    kernel_matrix: KernelMatrix,
    config: SolverConfig,
    rhs: Optional[np.ndarray],
    reorder: bool,
    metadata: dict,
) -> AssembledProblem:
    """Shared kernel-matrix assembly path honouring the compression config.

    The HODLR matrix lives in the kd-tree ordering; ``rhs``, the exact
    operator, and solutions stay in the caller's point ordering — the
    ``perm`` carried on the :class:`AssembledProblem` lets the facade
    translate between the two.
    """
    hodlr, perm = kernel_matrix.to_hodlr(
        config.compression, reorder=reorder, context=config.construction_context()
    )
    identity = np.array_equal(perm, np.arange(kernel_matrix.n))
    metadata = dict(metadata, kernel_matrix=kernel_matrix)
    return AssembledProblem(
        name=name,
        hodlr=hodlr,
        operator=kernel_matrix.matvec,
        rhs=rhs,
        perm=None if identity else perm,
        metadata=metadata,
    )


@register_problem("gaussian_kernel")
@dataclass
class GaussianKernelProblem:
    """Gaussian kernel matrix with a nugget over a random point cloud."""

    n: int = 2048
    dim: int = 2
    lengthscale: float = 0.25
    diagonal_shift: float = 1.0
    seed: int = 0

    name = "gaussian_kernel"
    #: rook compression at direct-solver accuracy (the quickstart defaults)
    default_config: ClassVar[SolverConfig] = SolverConfig()

    def kernel_spec(self):
        """``(kernel, diagonal_shift)`` — must match :meth:`assemble`."""
        return GaussianKernel(lengthscale=self.lengthscale), self.diagonal_shift

    def assemble(self, config: SolverConfig) -> AssembledProblem:
        rng = np.random.default_rng(self.seed)
        points = rng.uniform(-1.0, 1.0, size=(self.n, self.dim))
        kernel, shift = self.kernel_spec()
        km = KernelMatrix(kernel=kernel, points=points, diagonal_shift=shift)
        rhs = rng.standard_normal(self.n)
        return _kernel_assembled(
            self.name, km, config, rhs, reorder=True,
            metadata={"points": points, "lengthscale": self.lengthscale},
        )


@register_problem("gp_covariance")
@dataclass
class GPCovarianceProblem:
    """Matern covariance ``K + sigma_n^2 I`` of a noisy 1-D GP regression.

    The natural right-hand side is the vector of training targets, so
    ``repro.solve("gp_covariance")`` yields the representer weights
    ``alpha = (K + sigma_n^2 I)^{-1} y``.
    """

    n: int = 1024
    lengthscale: float = 0.08
    nu: float = 1.5
    noise_std: float = 0.05
    seed: int = 4

    name = "gp_covariance"
    #: GP regression tolerates preconditioner-grade compression; 1e-8 keeps
    #: log-marginal-likelihood terms accurate without deep adaptive ranks
    default_config: ClassVar[SolverConfig] = SolverConfig(
        compression=CompressionConfig(tol=1e-8)
    )

    @staticmethod
    def true_function(x: np.ndarray) -> np.ndarray:
        return np.sin(6.0 * x) + 0.5 * np.cos(17.0 * x) * x

    def kernel_spec(self):
        """``(kernel, diagonal_shift)`` — must match :meth:`assemble`."""
        return (
            MaternKernel(lengthscale=self.lengthscale, nu=self.nu),
            self.noise_std**2,
        )

    def assemble(self, config: SolverConfig) -> AssembledProblem:
        rng = np.random.default_rng(self.seed)
        x_train = np.sort(rng.uniform(0.0, 1.0, self.n))
        y_train = self.true_function(x_train) + self.noise_std * rng.standard_normal(self.n)
        kernel, shift = self.kernel_spec()
        km = KernelMatrix(kernel=kernel, points=x_train, diagonal_shift=shift)
        # sorted 1-D points already follow a space-filling order
        return _kernel_assembled(
            self.name, km, config, y_train, reorder=False,
            metadata={"x_train": x_train, "y_train": y_train, "noise_std": self.noise_std},
        )


@register_problem("helmholtz_kernel")
@dataclass
class HelmholtzKernelProblem:
    """Oscillatory Helmholtz point-source kernel matrix over a point cloud.

    ``K[i, j] = exp(i kappa r_ij) / sqrt(r_ij)`` plus a diagonal shift —
    the complex, frequency-dependent analogue of the Gaussian quickstart
    problem, and the frequency-sweep example of :func:`repro.run_sweep`.
    The diagonal shift defaults to ``2 n`` (scaling with the row sums of
    the ``1/sqrt(r)`` envelope) so the system stays well-conditioned
    across a frequency sweep.
    """

    n: int = 2048
    kappa: float = 20.0
    dim: int = 2
    #: None = automatic ``2 n`` scaling
    diagonal_shift: Optional[float] = None
    seed: int = 0

    name = "helmholtz_kernel"
    #: rook compression, like the other kernel problems: its stop rules
    #: retire a block only below ``tol`` times the block's largest singular
    #: value, the threshold the truncation cuts at, so it reaches truncated
    #: SVD's ranks at this ``tol`` while evaluating O((m + n) r) entries per
    #: block instead of every entry
    default_config: ClassVar[SolverConfig] = SolverConfig(
        compression=CompressionConfig(tol=1e-6, method="rook")
    )

    def _shift(self) -> float:
        return 2.0 * self.n if self.diagonal_shift is None else self.diagonal_shift

    def kernel_spec(self):
        """``(kernel, diagonal_shift)`` — must match :meth:`assemble`."""
        return HelmholtzKernel2D(kappa=self.kappa), self._shift()

    def assemble(self, config: SolverConfig) -> AssembledProblem:
        rng = np.random.default_rng(self.seed)
        points = rng.uniform(-1.0, 1.0, size=(self.n, self.dim))
        kernel, shift = self.kernel_spec()
        km = KernelMatrix(kernel=kernel, points=points, diagonal_shift=shift)
        rhs = rng.standard_normal(self.n) + 1j * rng.standard_normal(self.n)
        return _kernel_assembled(
            self.name, km, config, rhs, reorder=True,
            metadata={"points": points, "kappa": self.kappa},
        )


@register_problem("rpy_mobility")
@dataclass
class RPYMobilityProblem:
    """RPY mobility matrix of a random suspension (paper, section IV-A).

    Particles are kd-tree ordered; the three velocity components of each
    particle stay adjacent, and the cluster tree acts on the ``3 N``
    degrees of freedom.  The natural right-hand side is a random
    prescribed-velocity vector (a mobility solve yields forces).
    """

    num_particles: int = 200
    dim: int = 3
    seed: int = 1

    name = "rpy_mobility"
    default_config: ClassVar[SolverConfig] = SolverConfig()

    def assemble(self, config: SolverConfig) -> AssembledProblem:
        comp = config.compression
        rng = np.random.default_rng(self.seed)
        points = uniform_points(self.num_particles, dim=self.dim, rng=rng)
        _, particle_perm = ClusterTree.from_points(points, leaf_size=32)
        points = points[particle_perm]
        kernel = RPYKernel()
        n_dof = self.dim * self.num_particles
        tree = ClusterTree.balanced(n_dof, leaf_size=comp.leaf_size)
        radius = kernel.effective_radius(points)
        entries = kernel.evaluator(points, a=radius)
        hodlr = build_hodlr(
            entries,
            tree,
            config=comp,
            context=config.construction_context(),
        )
        return AssembledProblem(
            name=self.name,
            hodlr=hodlr,
            operator=_entries_matvec(entries, n_dof),
            rhs=rng.standard_normal(n_dof),
            metadata={
                "points": points,
                "kernel": kernel,
                "particle_perm": particle_perm,
                "effective_radius": radius,
            },
        )


def _bie_assembled(
    name: str, bie: Any, config: SolverConfig, rhs: Any, metadata: dict
) -> AssembledProblem:
    comp = config.compression
    if comp.method != "proxy":
        raise ConfigError(
            f"problem {name!r} uses proxy-surface compression; set "
            f"CompressionConfig(method='proxy'), got method={comp.method!r}"
        )
    hodlr = build_hodlr_proxy(bie, config=comp)
    return AssembledProblem(
        name=name, hodlr=hodlr, operator=bie.matvec, rhs=rhs, metadata=metadata
    )


@register_problem("laplace_bie")
@dataclass
class LaplaceBIEProblem:
    """Exterior Laplace Dirichlet BVP as a second-kind BIE (paper, eq. 21).

    The default right-hand side is the boundary data of a manufactured
    exterior-harmonic field (a charge and a dipole inside the contour), so
    the solved density can be validated against the exact potential stored
    in ``metadata["u_exact"]``.
    """

    n: int = 1024
    contour: object = None

    name = "laplace_bie"
    #: BIE operators need proxy-surface compression — solving without an
    #: explicit config now just works
    default_config: ClassVar[SolverConfig] = SolverConfig(
        compression=CompressionConfig(method="proxy", tol=1e-10)
    )

    def assemble(self, config: SolverConfig) -> AssembledProblem:
        contour = self.contour if self.contour is not None else StarContour()
        bie = LaplaceDoubleLayerBIE(contour=contour, n=self.n)
        u_exact = laplace_dirichlet_reference(
            interior_sources=np.array([[0.2, 0.1], [-0.4, -0.2]]),
            charges=np.array([1.0, -0.3]),
            dipoles=np.array([0.8 + 0.1j, 0.0]),
        )
        return _bie_assembled(
            self.name,
            bie,
            config,
            rhs=bie.boundary_data(u_exact),
            metadata={"bie": bie, "u_exact": u_exact},
        )


@register_problem("helmholtz_bie")
@dataclass
class HelmholtzBIEProblem:
    """Exterior Helmholtz scattering as a combined-field BIE (paper, eq. 24).

    The default right-hand side is ``-u_inc`` on the boundary for a plane
    wave travelling along ``direction``, i.e. the scattering problem; the
    incident field is stored in ``metadata["incident"]``.
    """

    n: int = 1024
    kappa: float = 15.0
    contour: object = None
    direction: tuple = (1.0, 0.3)

    name = "helmholtz_bie"
    #: complex-aware defaults: proxy compression (the operator is a BIE),
    #: natural (complex128) dtype, pivoting on — oscillatory combined-field
    #: systems are where the non-pivoted variant is least safe
    default_config: ClassVar[SolverConfig] = SolverConfig(
        compression=CompressionConfig(method="proxy", tol=1e-8, n_proxy=96),
        pivot=True,
    )

    def assemble(self, config: SolverConfig) -> AssembledProblem:
        contour = self.contour if self.contour is not None else StarContour()
        bie = HelmholtzCombinedBIE(contour=contour, n=self.n, kappa=self.kappa)
        direction = np.asarray(self.direction, dtype=float)
        direction = direction / np.linalg.norm(direction)
        kappa = self.kappa

        def incident(points: np.ndarray) -> np.ndarray:
            return np.exp(1j * kappa * (np.atleast_2d(points) @ direction))

        return _bie_assembled(
            self.name,
            bie,
            config,
            rhs=-incident(bie.points),
            metadata={"bie": bie, "incident": incident, "kappa": kappa},
        )


@register_problem("elliptic_schur")
@dataclass
class EllipticSchurProblem:
    """Separator Schur complement of a 2-D variable-coefficient Poisson problem.

    The HODLR matrix is the peeling-compressed Schur complement ``S``; the
    exact operator applies ``S`` matrix-free (two interior sparse solves per
    application).  The natural right-hand side is the condensed separator
    load ``g_s`` of a manufactured solution, so the solve returns the
    separator trace of ``u``; the assembled
    :class:`~repro.elliptic.schur.SchurComplementSolver` (``metadata["schur"]``)
    recovers the full-grid solution.
    """

    nx: int = 31
    ny: int = 63
    b: float = 0.1
    rank: int = 24

    name = "elliptic_schur"
    #: peeling probes the Schur complement with fixed-rank matvecs; svd
    #: compression of the probed blocks matches that access pattern
    default_config: ClassVar[SolverConfig] = SolverConfig(
        compression=CompressionConfig(tol=1e-8, method="svd")
    )

    @staticmethod
    def diffusion(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return 1.0 + 0.8 * np.sin(2 * np.pi * x) * np.sin(np.pi * y) ** 2

    def assemble(self, config: SolverConfig) -> AssembledProblem:
        comp = config.compression
        grid = RegularGrid2D(nx=self.nx, ny=self.ny)
        schur = SchurComplementSolver(
            grid=grid,
            a=self.diffusion,
            b=self.b,
            tol=comp.tol,
            rank=self.rank,
            leaf_size=comp.leaf_size,
            solver_config=config,
        ).assemble()
        # one lazy operator shared between the facade (solver_operator) and
        # the full-grid recovery path (metadata["schur"].solve), so the
        # Schur complement is factorized exactly once
        operator = HODLROperator(schur.hodlr_schur, config)
        schur.attach_schur_solver(operator)
        u_exact, f = poisson_manufactured_solution(grid, a=self.diffusion, b=self.b)
        return AssembledProblem(
            name=self.name,
            hodlr=schur.hodlr_schur,
            operator=schur.apply_schur,
            rhs=schur.condense_rhs(f),
            solver_operator=operator,
            metadata={"schur": schur, "grid": grid, "u_exact": u_exact, "f": f},
        )
