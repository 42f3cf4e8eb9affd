"""Boundary-integral-equation substrate (paper, sections IV-B and IV-C).

The paper's second and third applications solve exterior Dirichlet problems
for the Laplace and Helmholtz equations reformulated as second-kind
Fredholm boundary integral equations on a smooth contour:

* :mod:`contour`       — smooth closed contours (the star-shaped curve of
  Fig. 6), with parametrization, normals, curvature and arc-length weights;
* :mod:`quadrature`    — periodic trapezoidal rule (2nd order for the
  Laplace double layer) and the 6th-order Kapur-Rokhlin corrected
  trapezoidal rule used for the log-singular Helmholtz kernels;
* :mod:`laplace_bie`   — the exterior Laplace BIE of equation (21);
* :mod:`helmholtz_bie` — the combined-field Helmholtz BIE of equation (24);
* :mod:`proxy`         — proxy-surface compression of BIE operator blocks
  (the construction technique the paper uses before copying data to the GPU).
"""

from .contour import SmoothContour, StarContour, EllipseContour
from .quadrature import trapezoidal_weights, kapur_rokhlin_correction, KAPUR_ROKHLIN_GAMMA
from .laplace_bie import LaplaceDoubleLayerBIE, laplace_dirichlet_reference
from .helmholtz_bie import HelmholtzCombinedBIE, helmholtz_dirichlet_reference
from .proxy import build_hodlr_proxy, interpolative_row_skeleton

__all__ = [
    "SmoothContour",
    "StarContour",
    "EllipseContour",
    "trapezoidal_weights",
    "kapur_rokhlin_correction",
    "KAPUR_ROKHLIN_GAMMA",
    "LaplaceDoubleLayerBIE",
    "laplace_dirichlet_reference",
    "HelmholtzCombinedBIE",
    "helmholtz_dirichlet_reference",
    "build_hodlr_proxy",
    "interpolative_row_skeleton",
]
