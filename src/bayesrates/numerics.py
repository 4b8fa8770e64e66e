"""Small numerical helpers shared across modules.

Everything that touches probability mass does so in log space; these are
the primitives that make that safe.
"""
from __future__ import annotations

import numpy as np

__all__ = ["logsumexp", "softmax_and_logsumexp"]


def _shifted(a: np.ndarray, axis) -> tuple[np.ndarray, np.ndarray]:
    """a less its max along axis, and that max; an all -inf slice is shifted
    by 0, so it comes out as -inf, not nan."""
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    return a - m, m


def logsumexp(a: np.ndarray, axis: int | None = None) -> np.ndarray | float:
    """log(sum(exp(a))) without overflow; -inf inputs are handled exactly."""
    shifted, m = _shifted(np.asarray(a, dtype=float), axis)
    out = np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True)) + m
    if axis is None:
        return out.item()
    return np.squeeze(out, axis=axis)


def softmax_and_logsumexp(a: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """(softmax(a, axis), logsumexp(a, axis)), bit for bit, from one shift and
    one sum of exponentials."""
    shifted, m = _shifted(np.asarray(a, dtype=float), axis)
    log_total = np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
    shifted -= log_total
    return np.exp(shifted, out=shifted), np.squeeze(log_total + m, axis=axis)
