"""Median, linear quantile and percentile, and sorted unique values, bit-equal
to numpy's ``median``, ``quantile``, ``percentile`` and ``unique``.

numpy 2 imports numpy.ma on the first call of any of those four (12-16 ms
per process). These repeat numpy 2.4's steps without that import: the same
``partition`` call with the same kth set, the same ``mean`` of the middle
pair, the same linear-interpolation arithmetic, the same sort and neighbour
mask, and the same NaN rules.
"""

from __future__ import annotations

import numpy as np


def median(a, axis: int | None = None):
    """``np.median(a, axis)``."""
    a = np.asanyarray(a)
    sz = a.size if axis is None else a.shape[axis]
    kth = [sz // 2 - 1, sz // 2] if sz % 2 == 0 else [(sz - 1) // 2]
    inexact = np.issubdtype(a.dtype, np.inexact)
    if inexact:
        kth.append(-1)
    part = np.partition(a, kth, axis=axis)
    axis = axis or 0
    indexer = [slice(None)] * part.ndim
    index = part.shape[axis] // 2
    indexer[axis] = slice(index, index + 1) if part.shape[axis] % 2 else slice(index - 1, index + 1)
    out = np.mean(part[tuple(indexer)], axis=axis)
    if inexact:
        # a slice holding NaN sorts one last, and its median is that NaN
        last = part.take(-1, axis=axis)
        if np.isnan(last).any():
            return last if np.ndim(out) == 0 else np.where(np.isnan(last), last, out)
    return out


def quantile(a, q, overwrite_input: bool = False):
    """``np.quantile(a, q, overwrite_input=...)`` (the linear method, over
    the flattened array) for q a float in [0, 1] or a 1-D array of them."""
    return _linear(a, np.asanyarray(q), overwrite_input)


def percentile(a, q):
    """``np.percentile(a, q)``: ``quantile`` at q / 100."""
    return _linear(a, np.true_divide(q, 100, out=...), False)


def _linear(a, q: np.ndarray, overwrite_input: bool):
    """numpy's ``_quantile`` for the linear method over the flattened array.
    numpy makes the weight a Python float for a Python-number q, which
    changes the result only for inputs narrower than float64."""
    arr = np.asanyarray(a)
    arr = arr.ravel() if overwrite_input else arr.flatten()
    n = len(arr)
    virtual = np.asanyarray((n - 1) * q)
    prev = np.floor(virtual, out=...)
    nxt = np.add(prev, 1, out=...)
    above = virtual >= n - 1
    prev[above] = -1
    nxt[above] = -1
    prev, nxt = prev.astype(np.intp), nxt.astype(np.intp)
    arr.partition(sorted({0, -1, *prev.ravel().tolist(), *nxt.ravel().tolist()}))
    lo, hi = arr[prev], arr[nxt]
    gamma = np.asanyarray(virtual - prev, dtype=virtual.dtype)
    diff = hi - lo
    out = np.add(lo, diff * gamma, out=...)
    np.subtract(hi, diff * (1 - gamma), out=out, where=gamma >= 0.5, casting="unsafe", dtype=type(out.dtype))
    if out.ndim == 0:
        out = out[()]
    if np.issubdtype(arr.dtype, np.inexact) and np.isnan(arr[-1]):
        # NaN sorts last, and every quantile of an array holding one is NaN
        return arr[-1] if np.ndim(out) == 0 else np.full_like(out, arr[-1])
    return out


def unique(a) -> np.ndarray:
    """``np.unique(a)`` of a real array: its sorted distinct values, NaNs
    collapsed into one."""
    aux = np.asanyarray(a).flatten()
    aux.sort()
    mask = np.empty(aux.shape, dtype=bool)
    mask[:1] = True
    mask[1:] = aux[1:] != aux[:-1]
    if aux.size and aux.dtype.kind == "f" and np.isnan(aux[-1]):
        first_nan = np.searchsorted(aux, aux[-1], side="left")
        mask[first_nan] = True
        mask[first_nan + 1 :] = False
    return aux[mask]
