"""Shared bucket-packing helpers for the compiled plans.

Both compiled plans — :class:`~repro.core.apply_plan.ApplyPlan` (the matvec
schedule) and :class:`~repro.core.factor_plan.FactorPlan` (the packed
factorization) — replay per-level shape buckets of strided 3-D storage
with a handful of batched launches.
The packing mechanics they share live here:

* :func:`demote_rhs_dtype` — the dtype a right-hand side should carry into
  a demoted bucket's kernel (real storage meeting complex data picks the
  matching complex dtype);
* :class:`GatherScatter` — vectorised row gather/scatter between a big
  ``(n, k)`` array and a bucket's ``(nb, M, k)`` strided form (every
  member of a bucket has the same ``M`` rows), with a zero-copy row view
  for contiguous buckets;
* :func:`owned_nbytes` — byte accounting that counts each buffer once:
  the plans read the matrix's stacks as views, and a view into another
  object's storage owns nothing.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np


def demote_rhs_dtype(storage_dtype, x_dtype) -> np.dtype:
    """The dtype the right-hand side should carry into a bucket's kernel.

    The product runs at the bucket's (possibly demoted) precision: a float32
    bucket multiplies a float32 (or complex64) right-hand side so the kernel
    is genuinely half-traffic, instead of NumPy promoting the whole kernel
    back to float64.
    """
    storage_dtype = np.dtype(storage_dtype)
    x_dtype = np.dtype(x_dtype)
    if np.issubdtype(x_dtype, np.complexfloating) and storage_dtype.kind != "c":
        return (
            np.dtype("complex64")
            if storage_dtype.itemsize == 4
            else np.dtype("complex128")
        )
    return storage_dtype


def buffer_root(a):
    """The array owning ``a``'s memory: ``a`` itself unless it is a view."""
    while hasattr(getattr(a, "base", None), "nbytes"):
        a = a.base
    return a


def owned_nbytes(arrays: Iterable, shared: Iterable = ()) -> int:
    """Bytes of the distinct buffers behind ``arrays``, each counted once,
    leaving out the buffers behind ``shared`` (another object's storage)."""
    skip = {id(buffer_root(a)) for a in shared}
    roots = {}
    for a in arrays:
        r = buffer_root(a)
        if id(r) not in skip:
            roots[id(r)] = r
    return int(sum(r.nbytes for r in roots.values()))


def viewed_buffers(arrays: Iterable, buffers: Iterable) -> List:
    """The ``buffers`` (another object's storage) that ``arrays`` view."""
    roots = {id(buffer_root(a)) for a in arrays}
    return [b for b in buffers if id(b) in roots]


class GatherScatter:
    """Vectorised row gather/scatter for one shape bucket.

    ``idx`` is the ``(nb, M)`` array of row indices of each member; every
    member has exactly ``M`` rows.  Members that are consecutive in row
    order (the common case on a balanced tree) gather and scatter through
    one contiguous slice; their ``idx`` is only built if something reads
    it.

    :meth:`take` always copies: it is for owners that keep the result (the
    factor plan's ``Y3`` stacks).  :meth:`view` is for replay: a contiguous
    bucket of a C-contiguous array is already a ``(nb, M, k)`` strided
    stack, so the compiled sweeps read it and write into it in place, and
    fall back to :meth:`take` and :meth:`put`/:meth:`add`/:meth:`sub`
    where it returns ``None``.
    """

    __slots__ = ("_idx", "shape", "_span")

    def __init__(
        self,
        idx: Optional[np.ndarray],
        span: Optional[Tuple[int, int]] = None,
        shape: Optional[Tuple[int, int]] = None,
    ) -> None:
        self._idx = idx
        #: (nb, M): members and rows per member
        self.shape: Tuple[int, int] = tuple(idx.shape) if idx is not None else shape
        #: (start, stop) of the contiguous row range, or None
        self._span = span

    @classmethod
    def from_ranges(cls, ranges: Sequence[Tuple[int, int]], width: int) -> "GatherScatter":
        """Build from ``(start, stop)`` row ranges of ``width`` rows each."""
        nb = len(ranges)
        if any(stop - start != width for start, stop in ranges):
            raise ValueError(f"every member of a bucket must have {width} rows")
        if nb and all(j == 0 or start == ranges[j - 1][1] for j, (start, _) in enumerate(ranges)):
            return cls(None, span=(int(ranges[0][0]), int(ranges[-1][1])), shape=(nb, width))
        idx = np.array([np.arange(start, stop, dtype=np.intp) for start, stop in ranges], dtype=np.intp)
        return cls(idx.reshape(nb, width))

    @property
    def idx(self) -> np.ndarray:
        """(nb, M) row indices of each member (built on first access for a
        contiguous bucket)."""
        if self._idx is None:
            nb, width = self.shape
            self._idx = (self._span[0] + np.arange(nb * width, dtype=np.intp)).reshape(nb, width)
        return self._idx

    def view(self, x: np.ndarray) -> Optional[np.ndarray]:
        """The ``(nb, M, k)`` zero-copy view of the bucket's rows of ``x``.

        Writes through it land in ``x``.  ``None`` unless the bucket is one
        contiguous row span of a C-contiguous ``x``: a scattered bucket has
        no such view, and a strided ``x`` would hand the batched
        gemm non-BLAS strides, which :meth:`take` packs away instead.
        """
        if self._span is None or not x.flags.c_contiguous:
            return None
        s0, s1 = self._span
        return x[s0:s1].reshape(self.shape + x.shape[1:])

    def take(self, x: np.ndarray) -> np.ndarray:
        """Gather ``x`` rows into ``(nb, M, k)`` strided form."""
        if self._span is not None:
            s0, s1 = self._span
            blk = x[s0:s1].reshape(self.shape + x.shape[1:])
            # reshape of a non-contiguous slice already copied; otherwise
            # copy so callers own the result (fancy indexing always copies)
            return blk.copy() if blk.base is not None else blk
        return x[self.idx]

    def put(self, x: np.ndarray, vals: np.ndarray) -> None:
        """Scatter ``vals`` back into ``x`` rows."""
        if self._span is not None:
            s0, s1 = self._span
            x[s0:s1] = vals.reshape((s1 - s0,) + x.shape[1:])
        else:
            x[self.idx] = vals

    def sub(self, x: np.ndarray, vals: np.ndarray) -> None:
        """``x[rows] -= vals`` (member rows are disjoint, so no collisions)."""
        if self._span is not None:
            s0, s1 = self._span
            x[s0:s1] -= vals.reshape((s1 - s0,) + x.shape[1:])
        else:
            x[self.idx] -= vals

    def add(self, x: np.ndarray, vals: np.ndarray) -> None:
        """``x[rows] += vals`` (member rows are disjoint, so no collisions)."""
        if self._span is not None:
            s0, s1 = self._span
            x[s0:s1] += vals.reshape((s1 - s0,) + x.shape[1:])
        else:
            x[self.idx] += vals

    def arrays(self) -> List[np.ndarray]:
        """The index arrays this gather/scatter holds."""
        return [] if self._idx is None else [self._idx]
