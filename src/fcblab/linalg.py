"""Spectral-norm helper shared by witness verification and contraction checks."""

from __future__ import annotations

import numpy as np


def sigma_max(a: np.ndarray) -> float:
    """Largest singular value of a square matrix, or over a stack (..., m, m) of them.

    Exact SVD at every size, one batched call for a stack; an empty or all-zero
    matrix or stack gives 0.  Anything but square matrices raises ValueError.
    All-zero rows and columns are dropped first, which leaves the nonzero
    singular values as they are.  In a stack, each matrix's nonzero rows and
    columns are moved to the front (in order) and the stack is cut to the
    largest counts, so a matrix with fewer keeps some of its own zero rows or
    columns.  NaN counts as nonzero, so it still makes the SVD raise
    LinAlgError.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if a.size == 0:
        return 0.0
    if a.ndim == 2:  # one matrix: boolean masks cost less than the orderings a stack needs
        part = a[np.ix_(a.any(axis=1), a.any(axis=0))]
    else:
        stack = a.reshape((-1,) + a.shape[-2:])
        rows, cols = stack.any(axis=2), stack.any(axis=1)
        r, c = rows.sum(axis=1).max(), cols.sum(axis=1).max()
        row_order = np.argsort(~rows, axis=1, kind="stable")[:, :r, None]
        col_order = np.argsort(~cols, axis=1, kind="stable")[:, None, :c]
        part = stack[np.arange(len(stack))[:, None, None], row_order, col_order]
    return float(np.linalg.svd(part, compute_uv=False).max()) if part.size else 0.0
