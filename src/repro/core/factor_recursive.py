"""Recursive HODLR factorization and solve (section III-A of the paper).

This is the reference algorithm: it mirrors the recursion of equations
(6)-(9) directly on the tree, one node at a time, with ordinary (non
batched) LAPACK calls.  It is used

* as the correctness oracle for the compiled ``batched`` variant (both
  must produce the same solutions up to round-off), and
* as the computational core of the HODLRlib-style CPU baseline
  (:mod:`repro.baselines.hodlrlib_cpu`), which executes exactly this
  per-node schedule.

Factorization stage (per node, bottom-up):
    * leaves: LU-factorize the dense diagonal block;
    * non-leaf ``gamma`` with children ``alpha, beta``: solve
      ``A_alpha Y_alpha = U_alpha`` and ``A_beta Y_beta = U_beta`` using the
      children's already-computed factorizations, then LU-factorize the
      reduced matrix ``K_gamma`` of equation (11).

Solution stage (per right-hand side): the recursion of equation (8).  No
compiled plan is built: every solve walks the tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..backends.context import DEFAULT_CONTEXT, ExecutionContext
from .cluster_tree import TreeNode
from .hodlr import HODLRMatrix


@dataclass
class RecursiveFactorization:
    """Stored output of the recursive factorization."""

    hodlr: HODLRMatrix
    #: execution context (backend + policy + precision); its backend runs
    #: the per-node LU factorizations and solves (None = the default context)
    context: Optional[ExecutionContext] = None
    #: leaf index -> (lu, piv) of the dense diagonal block
    leaf_lu: Dict[int, Tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    #: non-leaf index -> (lu, piv) of K_gamma (equation (11))
    k_lu: Dict[int, Tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    #: non-root index -> Y_alpha = A_alpha^{-1} U_alpha
    Y: Dict[int, np.ndarray] = field(default_factory=dict)
    factored: bool = False

    def __post_init__(self) -> None:
        self.context = self.context or DEFAULT_CONTEXT

    # ------------------------------------------------------------------
    # factorization
    # ------------------------------------------------------------------
    def factorize(self) -> "RecursiveFactorization":
        """Run the factorization stage; returns ``self`` for chaining."""
        tree = self.hodlr.tree
        self._factor_node(tree.root)
        self.factored = True
        return self

    def _factor_node(self, node: TreeNode) -> None:
        tree = self.hodlr.tree
        if tree.is_leaf(node):
            lu, piv = self.context.backend.lu_factor(self.hodlr.diag[node.index])
            self.leaf_lu[node.index] = (lu, piv)
            return

        left, right = tree.children(node)
        self._factor_node(left)
        self._factor_node(right)

        # Y_child = A_child^{-1} U_child, computed with the child's factorization
        Y_left = self._apply_node_inverse(left, self.hodlr.U[left.index])
        Y_right = self._apply_node_inverse(right, self.hodlr.U[right.index])
        self.Y[left.index] = Y_left
        self.Y[right.index] = Y_right

        # General (possibly unequal) ranks: U_left/Y_left have r1 columns,
        # U_right/Y_right have r2 columns, V_left has r2, V_right has r1.
        # K has block-row sizes (r2, r1) and block-column sizes (r1, r2), the
        # rectangular generalisation of equation (11).
        Va = self.hodlr.V[left.index]
        Vb = self.hodlr.V[right.index]
        r1 = Y_left.shape[1]
        r2 = Y_right.shape[1]
        xb = self.context.backend
        dtype = np.result_type(Y_left.dtype, Vb.dtype)
        K = xb.zeros((r1 + r2, r1 + r2), dtype=dtype)
        K[:r2, :r1] = Va.conj().T @ Y_left
        K[:r2, r1:] = xb.eye(r2, dtype=dtype)
        K[r2:, :r1] = xb.eye(r1, dtype=dtype)
        K[r2:, r1:] = Vb.conj().T @ Y_right
        lu, piv = xb.lu_factor(K)
        self.k_lu[node.index] = (lu, piv)

    def _apply_node_inverse(self, node: TreeNode, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A(I_node, I_node) X = rhs`` using the stored factorizations.

        Used both during the factorization stage (rhs = U bases) and the
        solution stage (rhs = right-hand-side slices); this is the recursion
        of equation (7)/(8).
        """
        tree = self.hodlr.tree
        rhs = self.context.backend.asarray(rhs)
        squeeze = rhs.ndim == 1
        B = rhs.reshape(-1, 1) if squeeze else rhs

        if tree.is_leaf(node):
            lu, piv = self.leaf_lu[node.index]
            out = self.context.backend.lu_solve(lu, piv, B)
            return out.ravel() if squeeze else out

        left, right = tree.children(node)
        off = node.start
        sl_l = slice(left.start - off, left.stop - off)
        sl_r = slice(right.start - off, right.stop - off)

        z_left = self._apply_node_inverse(left, B[sl_l])
        z_right = self._apply_node_inverse(right, B[sl_r])

        Y_left = self.Y[left.index]
        Y_right = self.Y[right.index]
        Va = self.hodlr.V[left.index]
        Vb = self.hodlr.V[right.index]
        r1 = Y_left.shape[1]

        # right-hand side ordered to match K's block rows: (V_left^* z_left) on
        # top (r2 rows), (V_right^* z_right) below (r1 rows); the solution is
        # ordered by K's block columns: w_left (r1 rows) then w_right (r2 rows).
        xb = self.context.backend
        rhs_small = xb.concat([Va.conj().T @ z_left, Vb.conj().T @ z_right])
        lu, piv = self.k_lu[node.index]
        w = xb.lu_solve(lu, piv, rhs_small)
        w_left, w_right = w[:r1], w[r1:]

        out = xb.zeros(B.shape, dtype=np.result_type(B.dtype, Y_left.dtype))
        out[sl_l] = z_left - Y_left @ w_left
        out[sl_r] = z_right - Y_right @ w_right
        return out.ravel() if squeeze else out

    # ------------------------------------------------------------------
    # solution
    # ------------------------------------------------------------------
    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` (``b`` may hold multiple right-hand sides) by
        the per-node recursion of equation (8)."""
        if not self.factored:
            raise RuntimeError("call factorize() before solve()")
        b = np.asarray(b)
        if b.ndim > 2:
            raise ValueError(
                f"right-hand side must be a vector or a (n, K) block, got ndim={b.ndim}"
            )
        if b.shape[0] != self.hodlr.n:
            raise ValueError(
                f"right-hand side has {b.shape[0]} rows, expected {self.hodlr.n}"
            )
        return self._apply_node_inverse(self.hodlr.tree.root, b)

    # ------------------------------------------------------------------
    # determinant
    # ------------------------------------------------------------------
    def slogdet(self) -> Tuple[complex, float]:
        """Sign (phase) and log-magnitude of ``det(A)``.

        Uses the factorization ``A = A^(L) ... A^(1)`` of section III-E: the
        determinant is the product of the leaf-block determinants and the
        determinants of the 2x2-block factors, the latter of which equal
        ``(-1)^{r_alpha} det(K_gamma)`` (Sylvester's determinant theorem).
        """
        if not self.factored:
            raise RuntimeError("call factorize() before slogdet()")
        sign: complex = 1.0
        logabs = 0.0
        for lu, piv in self.leaf_lu.values():
            s, l = _lu_slogdet(lu, piv)
            sign *= s
            logabs += l
        for idx, (lu, piv) in self.k_lu.items():
            s, l = _lu_slogdet(lu, piv)
            # det of the block factor = (-1)^{r} det(K_gamma) with r the rank of
            # the left child's basis (the K matrix is (r_a + r_b) square; the
            # block-row swap relating it to I - Y V* contributes (-1)^{r_a r_b},
            # which for r_a == r_b == r is (+1) for even r and matches
            # (-1)^{r} only when the ranks agree; we track the exact exponent).
            left_idx = 2 * idx
            ra = self.Y[left_idx].shape[1]
            rb = lu.shape[0] - ra
            swap_sign = (-1.0) ** (ra * rb)
            sign *= s * swap_sign
            logabs += l
        return sign, logabs

    def logdet(self) -> float:
        sign, logabs = self.slogdet()
        if np.iscomplexobj(np.asarray(sign)):
            return logabs
        if np.real(sign) <= 0:
            raise ValueError("matrix has a non-positive determinant; use slogdet()")
        return logabs

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def factorization_nbytes(self) -> int:
        total = sum(lu.nbytes + piv.nbytes for lu, piv in self.leaf_lu.values())
        total += sum(lu.nbytes + piv.nbytes for lu, piv in self.k_lu.values())
        total += sum(y.nbytes for y in self.Y.values())
        # the V bases are still needed by the solve stage
        total += sum(v.nbytes for v in self.hodlr.V.values())
        return int(total)


def _lu_slogdet(lu: np.ndarray, piv: np.ndarray) -> Tuple[complex, float]:
    """Sign/phase and log-magnitude of the determinant from a packed LU."""
    diag = np.diag(lu)
    logabs = float(np.sum(np.log(np.abs(diag))))
    with np.errstate(invalid="ignore", divide="ignore"):
        phases = np.where(np.abs(diag) > 0, diag / np.abs(diag), 1.0)
    sign = np.prod(phases)
    nswaps = int(np.sum(piv != np.arange(piv.size)))
    sign = sign * ((-1.0) ** nswaps)
    return sign, logabs
