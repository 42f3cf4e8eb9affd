"""Determinant evaluation from a HODLR factorization (section III-E-a).

The factorization ``A = A^(L) A^(L-1) ... A^(1)`` produced by Algorithm 1
gives the determinant as the product of the factor determinants:

* ``det(A^(L))`` is the product of the leaf diagonal-block determinants
  (available from their LU factorizations);
* each 2x2-block of ``A^(ell)`` has determinant
  ``det(I - Y_alpha V_beta^* Y_beta V_alpha^*)`` which, by Sylvester's
  determinant theorem, equals ``(-1)^{r_a r_b} det(K_gamma)`` where
  ``K_gamma`` is the reduced matrix of equation (11) — also already
  LU-factorized.

The factorization objects implement ``slogdet``; this module provides the
free-function convenience wrappers exposed in the public API.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from .factor_batched import BatchedFactorization
from .factor_recursive import RecursiveFactorization

Factorization = Union[RecursiveFactorization, BatchedFactorization]


def slogdet_from_factorization(factorization: Factorization) -> Tuple[complex, float]:
    """Sign (or phase) and log-magnitude of the determinant."""
    return factorization.slogdet()


def logdet_from_factorization(factorization: Factorization) -> float:
    """Log-determinant; raises if the determinant is not positive (real case)."""
    return factorization.logdet()


def det_from_factorization(factorization: Factorization) -> complex:
    """The determinant itself (may overflow for large matrices; prefer logdet)."""
    sign, logabs = factorization.slogdet()
    return sign * np.exp(logabs)
