"""Small numerical helpers shared across modules.

Everything that touches probability mass does so in log space; these are
the primitives that make that safe.
"""
from __future__ import annotations

import numpy as np

__all__ = ["logsumexp", "log_softmax", "softmax"]


def logsumexp(a: np.ndarray, axis: int | None = None) -> np.ndarray | float:
    """log(sum(exp(a))) without overflow; -inf inputs are handled exactly."""
    a = np.asarray(a, dtype=float)
    m = np.max(a, axis=axis, keepdims=True)
    # an all -inf slice must come out as -inf, not nan
    m = np.where(np.isfinite(m), m, 0.0)
    out = np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True)) + m
    if axis is None:
        return out.item()
    return np.squeeze(out, axis=axis)


def log_softmax(a: np.ndarray, axis: int = -1) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    shifted = a - m
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def softmax(a: np.ndarray, axis: int = -1) -> np.ndarray:
    return np.exp(log_softmax(a, axis=axis))

