"""Flat-tape reverse-mode autodiff over float64 numpy arrays, plus Adam."""

import ctypes

from .tensor import (
    NumericError,
    Tape,
    Tensor,
    as_tensor,
    attention,
    concat,
    exp,
    gelu,
    getitem,
    grad,
    log,
    logsumexp,
    matmul,
    mean,
    mse,
    neighbour_linear,
    no_grad,
    reshape,
    sqrt,
    sum_,
    swap_last,
    uniform_init,
    zeros_init,
)
from .gradcheck import check_gradients, finite_difference_gradient, max_rel_err
from .optim import AdamState, adam_step

__all__ = [
    "AdamState",
    "NumericError",
    "Tape",
    "Tensor",
    "adam_step",
    "as_tensor",
    "attention",
    "check_gradients",
    "concat",
    "exp",
    "finite_difference_gradient",
    "gelu",
    "getitem",
    "grad",
    "log",
    "logsumexp",
    "matmul",
    "max_rel_err",
    "mean",
    "mse",
    "neighbour_linear",
    "no_grad",
    "reshape",
    "sqrt",
    "sum_",
    "swap_last",
    "uniform_init",
    "zeros_init",
]


def _keep_freed_pages():
    """Blocks under 32 MB come from glibc's heap, trimmed only past 1 GB free
    (see cfmlab.training). Setting either turns off the dynamic mmap
    threshold, so the trim alone faulted 500k pages where both fault 26k."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return  # no glibc mallopt: nothing to set
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 1 << 30)   # M_TRIM_THRESHOLD


_keep_freed_pages()
