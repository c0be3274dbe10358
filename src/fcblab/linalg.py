"""Spectral-norm helper shared by witness verification and contraction checks."""

from __future__ import annotations

import numpy as np


def sigma_max(a: np.ndarray) -> float:
    """Largest singular value, from the exact SVD at every size."""
    a = np.asarray(a, dtype=float)
    if a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if a.shape[0] == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])
