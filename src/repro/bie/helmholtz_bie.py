"""Exterior Helmholtz Dirichlet problem as a combined-field BIE (paper, eq. (24)).

The time-harmonic scattering problem (22)-(23),

.. math:: -\\Delta u - \\kappa^2 u = 0 \\text{ in } \\Omega, \\qquad
          u = f \\text{ on } \\Gamma,

with the Sommerfeld radiation condition, is reformulated as the
combined-field integral equation

.. math::
    \\tfrac12 \\sigma(x) + \\int_\\Gamma \\big( d_\\kappa(x, y)
        + i\\eta\\, s_\\kappa(x, y) \\big)\\, \\sigma(y)\\, ds(y) = f(x),

with the single- and double-layer kernels

.. math::
    s_\\kappa(x, y) = \\tfrac{i}{4} H^{(1)}_0(\\kappa |x - y|), \\qquad
    d_\\kappa(x, y) = n(y) \\cdot \\nabla_y \\phi_\\kappa(x - y)
                   = \\tfrac{i\\kappa}{4} H^{(1)}_1(\\kappa |x-y|)\\,
                     \\frac{n(y) \\cdot (x - y)}{|x - y|},

and the coupling parameter ``eta`` (the paper uses ``eta = kappa``).  The
paper follows the convention that ``n(y)`` is the *inward* normal.

Both kernels have logarithmic singularities on the diagonal; the Nystrom
discretization therefore uses the 6th-order Kapur-Rokhlin corrected
trapezoidal rule (Table V's "6-th order quadrature").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.special import hankel1

from ..kernels.kernel_matrix import blockwise_matvec
from .contour import ContourNodes, SmoothContour, StarContour
from .quadrature import kapur_rokhlin_correction


def helmholtz_single_layer(targets: np.ndarray, sources: np.ndarray, kappa: float) -> np.ndarray:
    """``s_kappa(x, y) = (i / 4) H0^(1)(kappa |x - y|)`` (zero on the diagonal)."""
    targets = np.atleast_2d(targets)
    sources = np.atleast_2d(sources)
    diff = targets[:, None, :] - sources[None, :, :]
    r = np.sqrt(np.sum(diff * diff, axis=2))
    out = np.zeros(r.shape, dtype=complex)
    nz = r > 0
    out[nz] = 0.25j * hankel1(0, kappa * r[nz])
    return out


def helmholtz_double_layer(
    targets: np.ndarray, sources: np.ndarray, source_normals: np.ndarray, kappa: float
) -> np.ndarray:
    """``d_kappa(x, y) = (i kappa / 4) H1^(1)(kappa r) n(y).(x - y) / r`` (zero diagonal)."""
    targets = np.atleast_2d(targets)
    sources = np.atleast_2d(sources)
    diff = targets[:, None, :] - sources[None, :, :]
    r = np.sqrt(np.sum(diff * diff, axis=2))
    dot = np.sum(diff * source_normals[None, :, :], axis=2)
    out = np.zeros(r.shape, dtype=complex)
    nz = r > 0
    out[nz] = 0.25j * kappa * hankel1(1, kappa * r[nz]) * dot[nz] / r[nz]
    return out


@dataclass
class HelmholtzCombinedBIE:
    """Nystrom discretization of the combined-field Helmholtz BIE (24).

    Parameters
    ----------
    contour:
        The boundary curve (defaults to the star contour of Fig. 6).
    n:
        Number of discretization nodes.
    kappa:
        Wavenumber (the paper uses 100; tests use smaller values so that the
        boundary stays well resolved at modest ``n``).
    eta:
        Combined-field coupling parameter (defaults to ``kappa``).
    quadrature_order:
        Kapur-Rokhlin correction order (2, 6, or 10; the paper uses 6).
    inward_normal:
        Use the inward normal in the double-layer kernel.  The paper states
        the inward-normal convention together with the ``+1/2`` jump term;
        with this library's counter-clockwise parametrization the consistent
        exterior-limit combination for ``+1/2`` is the *outward* normal
        (verified against manufactured radiating solutions in the tests), so
        the default is ``False``.  Flipping both the normal and the sign of
        the identity term yields the identical equation.
    """

    contour: SmoothContour = field(default_factory=StarContour)
    n: int = 1024
    kappa: float = 20.0
    eta: Optional[float] = None
    quadrature_order: int = 6
    inward_normal: bool = False

    def __post_init__(self) -> None:
        self.nodes: ContourNodes = self.contour.discretize(self.n)
        if self.eta is None:
            self.eta = self.kappa
        sign = -1.0 if self.inward_normal else 1.0
        self._kernel_normals = sign * self.nodes.normals
        self._kr_offsets, self._kr_gammas = kapur_rokhlin_correction(
            self.n, order=self.quadrature_order
        )

    # ------------------------------------------------------------------
    @property
    def points(self) -> np.ndarray:
        return self.nodes.points

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.complex128)

    def _quadrature_weights(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Kapur-Rokhlin-corrected weights ``w[i, j]`` for the requested entries."""
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        W = np.broadcast_to(self.nodes.weights[cols][None, :], (rows.size, cols.size)).copy()
        # cyclic distance between target and source node indices
        d = (cols[None, :] - rows[:, None]) % self.n
        W[d == 0] = 0.0
        for off, gam in zip(self._kr_offsets, self._kr_gammas):
            W[d == (off % self.n)] *= 1.0 + gam
        return W

    def entries(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Entries ``A[rows, cols]`` of the Nystrom matrix."""
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        x = self.nodes.points[rows]
        y = self.nodes.points[cols]
        ny = self._kernel_normals[cols]
        K = helmholtz_double_layer(x, y, ny, self.kappa) + 1j * self.eta * helmholtz_single_layer(
            x, y, self.kappa
        )
        A = K * self._quadrature_weights(rows, cols)
        same = rows[:, None] == cols[None, :]
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
        """Combined single/double-layer block from proxy sources to targets."""
        S = helmholtz_single_layer(target_points, proxy_points, self.kappa)
        D = helmholtz_double_layer(target_points, proxy_points, proxy_normals, self.kappa)
        return np.hstack([S, D])

    # ------------------------------------------------------------------
    # potential evaluation and boundary data
    # ------------------------------------------------------------------
    def evaluate_potential(self, density: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Evaluate the combined-field representation at exterior points."""
        targets = np.atleast_2d(targets)
        K = helmholtz_double_layer(
            targets, self.nodes.points, self._kernel_normals, self.kappa
        ) + 1j * self.eta * helmholtz_single_layer(targets, self.nodes.points, self.kappa)
        return (K * self.nodes.weights[None, :]) @ np.asarray(density)

    def boundary_data(self, u_exact: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        return np.asarray(u_exact(self.nodes.points), dtype=complex)


def helmholtz_dirichlet_reference(
    interior_sources: np.ndarray, strengths: np.ndarray, kappa: float
) -> Callable[[np.ndarray], np.ndarray]:
    """An exact radiating exterior field: point sources placed inside Gamma.

    ``u(x) = sum_k q_k (i/4) H0^(1)(kappa |x - s_k|)`` satisfies the Helmholtz
    equation in the exterior domain and the radiation condition (23); it is
    the standard manufactured solution for exterior Dirichlet scattering
    tests.
    """
    interior_sources = np.atleast_2d(np.asarray(interior_sources, dtype=float))
    strengths = np.asarray(strengths, dtype=complex)

    def u(points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        out = np.zeros(points.shape[0], dtype=complex)
        for (sx, sy), q in zip(interior_sources, strengths):
            r = np.linalg.norm(points - np.array([sx, sy])[None, :], axis=1)
            out += q * 0.25j * hankel1(0, kappa * r)
        return out

    return u
