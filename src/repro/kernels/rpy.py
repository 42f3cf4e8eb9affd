"""The Rotne-Prager-Yamakawa (RPY) tensor kernel (equation (18) of the paper).

The RPY tensor models hydrodynamic interactions between spherical particles
of radius ``a`` in a viscous fluid (Brownian-dynamics simulations).  For two
points with separation ``r = y_i - y_j`` it is the 3x3 matrix

.. math::
    K(y_i, y_j) = \\frac{kT}{8\\pi\\eta\\lvert r\\rvert}
        \\Big[ I + \\frac{r\\otimes r}{\\lvert r\\rvert^2}
             + \\frac{2a^2}{3\\lvert r\\rvert^2}
               \\big(I - 3\\tfrac{r\\otimes r}{\\lvert r\\rvert^2}\\big) \\Big]
    \\quad (\\lvert r\\rvert \\ge 2a),

with the regularised near-field form of equation (18) when
``|r| < 2a``.  The full kernel matrix over ``N`` points is ``3N x 3N``.

Following the paper's benchmark configuration (section IV-A) the class
defaults to ``k = T = eta = 1`` and ``a = r_min / 2`` where ``r_min`` is the
minimum pairwise distance in the point set.

Two entry points are provided:

* :class:`RPYKernel` — the full tensor kernel; ``matrix(points)`` returns
  the ``3N x 3N`` dense matrix and ``block(points, I, J)`` evaluates tensor
  sub-blocks for HODLR construction (indices refer to the ``3N`` scalar
  degrees of freedom);
* :func:`rpy_scalar_kernel` — the scalar radial profile
  ``kT/(8 pi eta |r|)(1 + 2a^2/(3|r|^2))`` sometimes used as a cheaper
  surrogate in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

from .radial import pairwise_distances


@dataclass
class RPYKernel:
    """The RPY tensor kernel with the paper's benchmark parameterisation."""

    k: float = 1.0
    T: float = 1.0
    eta: float = 1.0
    #: particle radius; if ``None`` it is set to ``r_min / 2`` per point set.
    a: Optional[float] = None

    # ------------------------------------------------------------------
    def effective_radius(self, points: np.ndarray) -> float:
        """Radius used for a given point set (``a`` or ``r_min / 2``).

        ``r_min`` is the smallest distance between two distinct particles
        (``0`` when two coincide), found with one nearest-neighbour query
        of a k-d tree: O(N log N) time and O(N) memory.
        """
        if self.a is not None:
            return float(self.a)
        points = np.atleast_2d(np.asarray(points, dtype=float))
        dist, _ = cKDTree(points).query(points, k=2)
        return float(0.5 * dist[:, 1].min())

    # ------------------------------------------------------------------
    def tensor_blocks(self, X: np.ndarray, Y: np.ndarray, a: float) -> np.ndarray:
        """Pairwise 3x3 RPY tensors, shape ``(|X|, |Y|, 3, 3)``."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        if X.shape[1] != 3 or Y.shape[1] != 3:
            raise ValueError("the RPY kernel is defined for points in R^3")
        diff = X[:, None, :] - Y[None, :, :]           # (m, n, 3)
        r = np.linalg.norm(diff, axis=2)               # (m, n)
        pref_far = self.k * self.T / (8.0 * np.pi * self.eta)
        pref_near = self.k * self.T / (6.0 * np.pi * self.eta * a)

        eye = np.eye(3)
        out = np.empty(r.shape + (3, 3), dtype=float)

        with np.errstate(divide="ignore", invalid="ignore"):
            rhat_outer = diff[..., :, None] * diff[..., None, :]  # (m, n, 3, 3)
            r2 = r ** 2
            r2_safe = np.where(r2 > 0, r2, 1.0)
            outer_unit = rhat_outer / r2_safe[..., None, None]

            # far field: |r| >= 2a
            far = (
                (eye + outer_unit)
                + (2.0 * a * a / (3.0 * r2_safe))[..., None, None] * (eye - 3.0 * outer_unit)
            )
            far = far * (pref_far / np.where(r > 0, r, 1.0))[..., None, None]

            # near field: |r| < 2a (regularised, finite at r = 0)
            near = (
                (1.0 - 9.0 * r / (32.0 * a))[..., None, None] * eye
                + (3.0 / (32.0 * a) / np.where(r > 0, r, 1.0))[..., None, None] * rhat_outer
            )
            near = pref_near * near

        mask_near = (r < 2.0 * a)[..., None, None]
        out = np.where(mask_near, near, far)
        # coincident points: exactly the self-mobility kT/(6 pi eta a) I
        coincident = (r == 0.0)[..., None, None]
        self_block = pref_near * eye
        out = np.where(coincident, self_block, out)
        return out

    # ------------------------------------------------------------------
    def matrix(self, points: np.ndarray, a: Optional[float] = None) -> np.ndarray:
        """Dense ``3N x 3N`` RPY kernel matrix over a point set."""
        points = np.asarray(points, dtype=float)
        a_eff = float(a) if a is not None else self.effective_radius(points)
        blocks = self.tensor_blocks(points, points, a_eff)       # (N, N, 3, 3)
        n = points.shape[0]
        return blocks.transpose(0, 2, 1, 3).reshape(3 * n, 3 * n)

    def block(
        self, points: np.ndarray, rows: np.ndarray, cols: np.ndarray, a: Optional[float] = None
    ) -> np.ndarray:
        """Sub-block of the ``3N x 3N`` matrix for scalar DOF index sets.

        ``rows`` and ``cols`` index the interleaved scalar degrees of freedom
        (particle ``p``, component ``c`` lives at index ``3 p + c``), which is
        the layout HODLR construction over the kernel matrix uses.
        """
        points = np.asarray(points, dtype=float)
        a_eff = float(a) if a is not None else self.effective_radius(points)
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        prow, crow = np.divmod(rows, 3)
        pcol, ccol = np.divmod(cols, 3)
        uprow, inv_r = np.unique(prow, return_inverse=True)
        upcol, inv_c = np.unique(pcol, return_inverse=True)
        blocks = self.tensor_blocks(points[uprow], points[upcol], a_eff)
        return blocks[inv_r[:, None], inv_c[None, :], crow[:, None], ccol[None, :]]

    def evaluator(self, points: np.ndarray, a: Optional[float] = None):
        """Return ``entries(rows, cols)`` closure for :func:`repro.core.build_hodlr`."""
        points = np.asarray(points, dtype=float)
        a_eff = float(a) if a is not None else self.effective_radius(points)

        def entries(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
            return self.block(points, rows, cols, a=a_eff)

        return entries

    def dof_count(self, points: np.ndarray) -> int:
        return 3 * int(np.asarray(points).shape[0])


def rpy_scalar_kernel(
    X: np.ndarray, Y: np.ndarray, a: float, k: float = 1.0, T: float = 1.0, eta: float = 1.0
) -> np.ndarray:
    """Scalar (isotropic trace) profile of the RPY tensor.

    ``K(x, y) = kT/(8 pi eta r) (1 + 2 a^2 / (3 r^2))`` for ``r >= 2a`` and the
    regularised value ``kT/(6 pi eta a) (1 - 9 r / (32 a))`` otherwise.  Useful
    as a cheap scalar kernel with the same long-range decay in tests.
    """
    r = pairwise_distances(X, Y)
    far_pref = k * T / (8.0 * np.pi * eta)
    near_pref = k * T / (6.0 * np.pi * eta * a)
    with np.errstate(divide="ignore", invalid="ignore"):
        far = far_pref / np.where(r > 0, r, 1.0) * (1.0 + 2.0 * a * a / (3.0 * np.where(r > 0, r, 1.0) ** 2))
    near = near_pref * (1.0 - 9.0 * r / (32.0 * a))
    out = np.where(r < 2.0 * a, near, far)
    return np.where(r == 0.0, near_pref, out)
