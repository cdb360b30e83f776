"""Adam with bias correction.

Parameters update in place (p.data is mutated) so that closures and module
structs holding the same Tensor objects see the new values; moment buffers
are keyed by parameter identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import NumericError, Tensor

__all__ = ["AdamState", "adam_step"]


@dataclass
class AdamState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params, grads, state):
    """One Adam update. `grads` maps each param Tensor to its gradient."""
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    for p in params:
        g = grads[p]
        g = g.data if isinstance(g, Tensor) else np.asarray(g, dtype=np.float64)
        if g.shape != p.data.shape:
            raise NumericError(
                "adam_step: gradient shape %s != parameter shape %s" % (g.shape, p.data.shape)
            )
        key = id(p)
        m = state.m.get(key)
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
            state.m[key] = m
            state.v[key] = v
        else:
            v = state.v[key]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        mhat = m / bc1
        vhat = v / bc2
        p.data -= state.lr * mhat / (np.sqrt(vhat) + state.eps)
    return params, state
