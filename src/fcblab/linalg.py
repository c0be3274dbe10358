"""Spectral-norm helper shared by witness verification and contraction checks."""

from __future__ import annotations

import numpy as np


def sigma_max(a: np.ndarray) -> float:
    """Largest singular value of a square matrix, or over a stack (..., m, m) of them.

    Exact SVD at every size, one batched call for a stack; an empty matrix or
    stack gives 0.  Anything but square matrices raises ValueError.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False).max())
