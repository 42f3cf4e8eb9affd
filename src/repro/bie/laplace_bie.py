"""Exterior Laplace Dirichlet problem as a second-kind BIE (paper, eq. (21)).

The boundary value problem (19)-(20),

.. math:: -\\Delta u = 0 \\text{ in } \\Omega, \\qquad u = f \\text{ on } \\Gamma,

with the logarithmic decay condition at infinity, is reformulated as

.. math::
    \\tfrac12 \\sigma(x) + \\int_\\Gamma \\Big( d(x, y)
        - \\tfrac{1}{2\\pi} \\log\\lvert x - z\\rvert \\Big) \\sigma(y)\\,ds(y)
    = f(x), \\qquad x \\in \\Gamma,

where ``d(x, y) = n(y) . (x - y) / (2 pi |x - y|^2)`` is the double-layer
kernel and ``z`` a fixed point inside ``Gamma`` (the monopole term absorbs
the total charge so that the exterior problem is uniquely solvable).

Discretization: Nystrom with the periodic trapezoidal rule.  The
double-layer kernel is smooth on a smooth contour with the diagonal limit
``d(x, x) = -kappa(x) / (4 pi)`` (``kappa`` = signed curvature, outward
normal), so no singular correction is needed — this is the "2nd-order
quadrature" configuration of Table IV.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..kernels.kernel_matrix import blockwise_matvec
from .contour import ContourNodes, SmoothContour, StarContour


def laplace_double_layer(
    targets: np.ndarray, sources: np.ndarray, source_normals: np.ndarray
) -> np.ndarray:
    """The kernel ``d(x, y) = n(y) . (x - y) / (2 pi |x - y|^2)``.

    Entries where a target coincides with a source are set to zero; the
    caller substitutes the analytic diagonal limit when needed.
    """
    targets = np.atleast_2d(targets)
    sources = np.atleast_2d(sources)
    diff = targets[:, None, :] - sources[None, :, :]
    r2 = np.sum(diff * diff, axis=2)
    dot = np.sum(diff * source_normals[None, :, :], axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        K = dot / (2.0 * np.pi * r2)
    K[r2 == 0.0] = 0.0
    return K


def laplace_single_layer(targets: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """``- (1 / 2 pi) log |x - y|`` (the 2-D fundamental solution)."""
    targets = np.atleast_2d(targets)
    sources = np.atleast_2d(sources)
    diff = targets[:, None, :] - sources[None, :, :]
    r = np.sqrt(np.sum(diff * diff, axis=2))
    with np.errstate(divide="ignore"):
        K = -np.log(r) / (2.0 * np.pi)
    K[r == 0.0] = 0.0
    return K


@dataclass
class LaplaceDoubleLayerBIE:
    """Nystrom discretization of the exterior Laplace BIE (21).

    Parameters
    ----------
    contour:
        The boundary curve (defaults to the paper's star contour, Fig. 6).
    n:
        Number of discretization nodes.
    interior_point:
        The fixed point ``z`` of the monopole term; defaults to the contour's
        centroid.
    """

    contour: SmoothContour = field(default_factory=StarContour)
    n: int = 1024
    interior_point: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.nodes: ContourNodes = self.contour.discretize(self.n)
        if self.interior_point is None:
            self.interior_point = self.contour.interior_point()
        self.interior_point = np.asarray(self.interior_point, dtype=float)

    # ------------------------------------------------------------------
    # operator entries
    # ------------------------------------------------------------------
    @property
    def points(self) -> np.ndarray:
        """Node coordinates; consecutive indices are neighbours on the contour."""
        return self.nodes.points

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float64)

    def entries(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Entries ``A[rows, cols]`` of the Nystrom matrix."""
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        x = self.nodes.points[rows]
        y = self.nodes.points[cols]
        ny = self.nodes.normals[cols]
        K = laplace_double_layer(x, y, ny)
        # diagonal limit of the double layer: -kappa / (4 pi)
        same = rows[:, None] == cols[None, :]
        if np.any(same):
            diag_vals = -self.nodes.curvature[cols] / (4.0 * np.pi)
            K = np.where(same, diag_vals[None, :], K)
        # monopole term -(1/2pi) log|x - z| (independent of the source point y)
        logterm = (
            -np.log(np.linalg.norm(x - self.interior_point[None, :], axis=1)) / (2.0 * np.pi)
        )
        K = K + logterm[:, None]
        A = K * self.nodes.weights[cols][None, :]
        A = A + 0.5 * same
        return A

    def dense(self) -> np.ndarray:
        idx = np.arange(self.n)
        return self.entries(idx, idx)

    def matvec(self, x: np.ndarray, block_size: int = 2048) -> np.ndarray:
        """Apply the Nystrom matrix without storing it densely."""
        return blockwise_matvec(self.entries, self.n, x, block_size)

    # ------------------------------------------------------------------
    # proxy-surface support
    # ------------------------------------------------------------------
    def proxy_block(
        self, target_points: np.ndarray, proxy_points: np.ndarray, proxy_normals: np.ndarray
    ) -> np.ndarray:
        """Kernel block from proxy sources to targets (single + double layer).

        Fields induced on the target cluster by well-separated true sources
        are harmonic near the cluster and can be reproduced by a combined
        single/double layer on the proxy circle; the column space of this
        block therefore (numerically) contains the far-field contribution of
        any off-diagonal operator block, which is what the proxy compression
        of :mod:`repro.bie.proxy` relies on.
        """
        S = laplace_single_layer(target_points, proxy_points)
        D = laplace_double_layer(target_points, proxy_points, proxy_normals)
        return np.hstack([S, D])

    # ------------------------------------------------------------------
    # potential evaluation and boundary data
    # ------------------------------------------------------------------
    def evaluate_potential(self, density: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Evaluate the representation ``u(x)`` at exterior target points."""
        targets = np.atleast_2d(targets)
        D = laplace_double_layer(targets, self.nodes.points, self.nodes.normals)
        logterm = (
            -np.log(np.linalg.norm(targets - self.interior_point[None, :], axis=1))
            / (2.0 * np.pi)
        )
        K = D + logterm[:, None]
        return (K * self.nodes.weights[None, :]) @ np.asarray(density)

    def boundary_data(self, u_exact: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Sample a given exterior solution on the boundary nodes (the rhs ``f``)."""
        return np.asarray(u_exact(self.nodes.points), dtype=float)


def laplace_dirichlet_reference(
    interior_sources: np.ndarray,
    charges: np.ndarray,
    dipoles: Optional[np.ndarray] = None,
) -> Callable[[np.ndarray], np.ndarray]:
    """An exact exterior harmonic field from charges/dipoles placed *inside* Gamma.

    ``u(x) = sum_k q_k * (-(1/2pi) log|x - s_k|) + sum_k Re(c_k / (x - s_k))``

    Such fields are harmonic in the exterior domain and satisfy the decay
    condition (20); sampling them on the boundary produces consistent
    Dirichlet data, and evaluating them at exterior test points provides the
    ground truth for convergence tests.
    """
    interior_sources = np.atleast_2d(np.asarray(interior_sources, dtype=float))
    charges = np.asarray(charges, dtype=float)
    if dipoles is None:
        dipoles = np.zeros(interior_sources.shape[0], dtype=complex)
    dipoles = np.asarray(dipoles, dtype=complex)

    def u(points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        zp = points[:, 0] + 1j * points[:, 1]
        out = np.zeros(points.shape[0], dtype=float)
        for (sx, sy), q, c in zip(interior_sources, charges, dipoles):
            zs = sx + 1j * sy
            r = np.abs(zp - zs)
            out += q * (-np.log(r) / (2.0 * np.pi))
            if c != 0:
                out += np.real(c / (zp - zs))
        return out

    return u
