"""Adam with bias correction.

Parameters update in place (p.data is mutated) so that closures and module
structs holding the same Tensor objects see the new values; moment buffers
are keyed by parameter identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import NumericError, Tensor

__all__ = ["AdamState", "adam_step"]

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # moment decays and denominator guard


@dataclass
class AdamState:
    lr: float = 1e-3
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params, grads, state):
    """One Adam update. `grads` maps each param Tensor to its gradient.

    Every gradient is checked before any moment or parameter changes, so a
    non-finite one, or one whose square overflows, raises with the
    parameters and the state untouched. An overflowed square would make the
    second moment inf, and the parameter would stop moving without a word.
    """
    checked = []
    for i, p in enumerate(params):
        g = grads[p]
        g = g.data if isinstance(g, Tensor) else np.asarray(g, dtype=np.float64)
        if g.shape != p.data.shape:
            raise NumericError(
                "adam_step: gradient shape %s != parameter shape %s" % (g.shape, p.data.shape)
            )
        # a NaN or inf g gives a non-finite square too; a finite sum proves
        # every entry finite, as in the op-level check
        with np.errstate(over="ignore", invalid="ignore"):
            g2 = g * g
            if not math.isfinite(np.add.reduce(g2, axis=None)) and not np.isfinite(g2).all():
                raise NumericError(f"adam_step: non-finite gradient or gradient square "
                                   f"for parameter {i} of shape {p.data.shape}")
        checked.append((g, g2))
    state.step += 1
    bc1 = 1.0 - BETA1 ** state.step
    bc2 = 1.0 - BETA2 ** state.step
    for p, (g, g2) in zip(params, checked):
        key = id(p)
        m = state.m.get(key)
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
            state.m[key] = m
            state.v[key] = v
        else:
            v = state.v[key]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g2
        mhat = m / bc1
        vhat = v / bc2
        p.data -= state.lr * mhat / (np.sqrt(vhat) + EPS)
    return params, state
