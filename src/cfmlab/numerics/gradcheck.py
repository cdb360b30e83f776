"""Finite-difference gradient oracle and comparison harness.

Central differences at 64-bit precision give ~1e-10 absolute error for
O(1) smooth functions with h=1e-5, which is plenty of headroom for the
reverse-mode checks in the test suite (tolerances 1e-6 .. 1e-3).
"""

from __future__ import annotations

import numpy as np

from .tensor import NumericError, Tensor, grad, no_grad

__all__ = ["finite_difference_gradient", "max_rel_err", "check_gradients"]


def _scalar(value):
    if isinstance(value, Tensor):
        value = value.data
    arr = np.asarray(value, dtype=np.float64)
    if arr.size != 1:
        raise NumericError("finite_difference_gradient: f must return a scalar")
    return float(arr.reshape(()))


def finite_difference_gradient(f, x, h=1e-5):
    """Central-difference gradient (f(x+h*e_i) - f(x-h*e_i)) / (2h).

    `f` is a scalar function of the tensor `x`; `x.data` is perturbed in
    place coordinate by coordinate and restored afterwards, so `f` may
    either take `x` as its argument or close over it.
    """
    if not h > 0:
        raise NumericError("finite_difference_gradient: step h must be positive")
    base = x.data.copy()
    out = np.zeros_like(base)
    it = np.nditer(base, flags=["multi_index"])
    with no_grad():
        try:
            for _ in it:
                idx = it.multi_index
                x.data[idx] = base[idx] + h
                fp = _scalar(f(x))
                x.data[idx] = base[idx] - h
                fm = _scalar(f(x))
                x.data[idx] = base[idx]
                if not (np.isfinite(fp) and np.isfinite(fm)):
                    raise NumericError(
                        "finite_difference_gradient: non-finite evaluation at coordinate %s"
                        % (idx,)
                    )
                out[idx] = (fp - fm) / (2.0 * h)
        finally:
            x.data[...] = base
    return Tensor(out)


def max_rel_err(analytic, numeric):
    """||a - n||_2 / max(||a||_2 + ||n||_2, 1e-12); 0 when both are zero."""
    a = np.asarray(analytic.data if isinstance(analytic, Tensor) else analytic, dtype=np.float64)
    n = np.asarray(numeric.data if isinstance(numeric, Tensor) else numeric, dtype=np.float64)
    if a.shape != n.shape:
        raise NumericError("max_rel_err: shape mismatch %s vs %s" % (a.shape, n.shape))
    num = np.linalg.norm((a - n).ravel())
    den = max(np.linalg.norm(a.ravel()) + np.linalg.norm(n.ravel()), 1e-12)
    return float(num / den)


def check_gradients(f, params, h=1e-5):
    """Compare reverse-mode gradients of a scalar loss against finite differences.

    `f` is a zero-argument callable (closing over `params`) returning a scalar
    Tensor; `params` maps names to leaf tensors. Returns {name: rel_err}.
    """
    loss = f()
    gmap = grad(loss, list(params.values()))
    errs = {}
    for name, p in params.items():
        fd = finite_difference_gradient(lambda _t, _f=f: _f(), p, h)
        errs[name] = max_rel_err(gmap[p], fd)
    return errs
