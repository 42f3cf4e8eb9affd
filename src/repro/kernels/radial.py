"""Radial kernel functions (Gaussian, Matern, exponential, ...).

These are the kernels the paper's introduction motivates for machine
learning and data assimilation (section I, "kernel matrices").  Every
kernel implements the small protocol used by :class:`~repro.kernels.
kernel_matrix.KernelMatrix`:

``__call__(X, Y) -> ndarray``
    evaluate the kernel between two point sets, shape ``(len(X), len(Y))``.

``profile(d) -> ndarray``
    apply the *radial profile* to an already-computed distance array of any
    shape, such that ``kernel(X, Y) == kernel.profile(pairwise_distances(X,
    Y))`` exactly (nugget included), so a distance array computed once
    can be re-used under several kernel parameters (lengthscale,
    wavenumber).

All kernels broadcast over point blocks with vectorised NumPy (no Python
loops over pairs), which is what keeps HODLR construction fast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gamma, kv


def _as_float_points(X):
    """Float array of points, preserving the array's home (host or device).

    Non-array inputs (lists, scalars) are coerced through NumPy as before;
    arrays from any backend (NumPy, CuPy, a recording stub) are kept where
    they live — only a dtype cast via the array's own ``astype`` — so the
    level-major construction can evaluate kernels on device-resident point
    blocks without a host round-trip.
    """
    if not hasattr(X, "ndim"):
        X = np.asarray(X, dtype=float)
    elif X.dtype.kind not in "fc":
        X = X.astype(float)
    return X[None, :] if X.ndim == 1 else X


def pairwise_distances(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix between two point sets, shape ``(|X|, |Y|)``.

    Points live on the *last* axis; leading axes broadcast, so a stack of
    point blocks ``(B, m, d)`` against ``(B, n, d)`` yields the ``(B, m, n)``
    stack of distance matrices in one call.  This is what lets the
    level-major HODLR construction evaluate every off-diagonal block of a
    tree level with a single kernel invocation.  All operations are array
    methods or NumPy ufuncs (which dispatch on the operand's array type),
    so device-resident point blocks produce device-resident distances.
    """
    X = _as_float_points(X)
    Y = _as_float_points(Y)
    # ||x - y||^2 = ||x||^2 + ||y||^2 - 2 x.y, clipped for round-off
    sq = (
        (X * X).sum(axis=-1)[..., :, None]
        + (Y * Y).sum(axis=-1)[..., None, :]
        - 2.0 * (X @ Y.swapaxes(-1, -2))
    )
    # in place: the gathered construction chunks are large and sq is owned
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq)


@dataclass
class GaussianKernel:
    """``K(x, y) = exp(-||x - y||^2 / (2 l^2)) + nugget * [x == y]``."""

    lengthscale: float = 1.0
    nugget: float = 0.0

    def profile(self, d: np.ndarray) -> np.ndarray:
        K = np.exp(-0.5 * (d / self.lengthscale) ** 2)
        if self.nugget:
            K = K + self.nugget * (d == 0.0)
        return K

    def __call__(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return self.profile(pairwise_distances(X, Y))


@dataclass
class ExponentialKernel:
    """``K(x, y) = exp(-||x - y|| / l)`` (Matern with nu = 1/2)."""

    lengthscale: float = 1.0
    nugget: float = 0.0

    def profile(self, d: np.ndarray) -> np.ndarray:
        K = np.exp(-d / self.lengthscale)
        if self.nugget:
            K = K + self.nugget * (d == 0.0)
        return K

    def __call__(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return self.profile(pairwise_distances(X, Y))


@dataclass
class MaternKernel:
    """The Matern covariance with smoothness ``nu`` and lengthscale ``l``.

    The half-integer cases (1/2, 3/2, 5/2) use their closed forms; other
    values fall back to the Bessel-function formula.
    """

    lengthscale: float = 1.0
    nu: float = 1.5
    nugget: float = 0.0

    def profile(self, d: np.ndarray) -> np.ndarray:
        r = d / self.lengthscale
        if np.isclose(self.nu, 0.5):
            K = np.exp(-r)
        elif np.isclose(self.nu, 1.5):
            arg = np.sqrt(3.0) * r
            K = (1.0 + arg) * np.exp(-arg)
        elif np.isclose(self.nu, 2.5):
            arg = np.sqrt(5.0) * r
            K = (1.0 + arg + arg ** 2 / 3.0) * np.exp(-arg)
        else:
            arg = np.sqrt(2.0 * self.nu) * r
            K = np.empty_like(arg)
            small = arg < 1e-12
            K[small] = 1.0
            a = arg[~small]
            K[~small] = (
                (2.0 ** (1.0 - self.nu) / gamma(self.nu)) * (a ** self.nu) * kv(self.nu, a)
            )
        if self.nugget:
            K = K + self.nugget * (d == 0.0)
        return K

    def __call__(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return self.profile(pairwise_distances(X, Y))


@dataclass
class InverseMultiquadricKernel:
    """``K(x, y) = 1 / sqrt(||x - y||^2 + c^2)``."""

    c: float = 1.0

    def profile(self, d: np.ndarray) -> np.ndarray:
        return 1.0 / np.sqrt(d * d + self.c * self.c)

    def __call__(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return self.profile(pairwise_distances(X, Y))


@dataclass
class ThinPlateSplineKernel:
    """``K(x, y) = r^2 log(r)`` with ``K(x, x) = 0`` (2-D RBF interpolation)."""

    def profile(self, d: np.ndarray) -> np.ndarray:
        out = np.zeros_like(d)
        nz = d > 0
        out[nz] = d[nz] ** 2 * np.log(d[nz])
        return out

    def __call__(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return self.profile(pairwise_distances(X, Y))


@dataclass
class HelmholtzKernel2D:
    """Oscillatory point-source kernel ``K(x, y) = exp(i kappa r) / sqrt(r)``.

    A free-space-style Helmholtz interaction at wavenumber ``kappa`` (the
    ``1/sqrt(r)`` envelope is the large-argument decay of the 2-D Green's
    function ``(i/4) H_0^(1)(kappa r)``; the phase carries the oscillation
    that makes off-diagonal ranks grow with ``kappa``).  ``K(x, x) = 0`` —
    pair it with a ``diagonal_shift`` on the
    :class:`~repro.kernels.kernel_matrix.KernelMatrix` for invertibility.

    A frequency sweep over this kernel (``helmholtz_kernel`` under
    :func:`repro.run_sweep`) solves one independent system per ``kappa``.
    """

    kappa: float = 1.0

    def profile(self, d: np.ndarray) -> np.ndarray:
        out = np.zeros(d.shape, dtype=complex)
        nz = d > 0
        dn = d[nz]
        out[nz] = np.exp(1j * self.kappa * dn) / np.sqrt(dn)
        return out

    def __call__(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return self.profile(pairwise_distances(X, Y))
