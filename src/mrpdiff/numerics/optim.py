"""AdamW with decoupled weight decay and a cosine learning-rate schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import NoGradError
from .tensor import Tensor


# AdamW's moment decay rates and denominator guard
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class OptimizerState:
    peak_lr: float
    min_lr: float
    total_steps: int
    weight_decay: float = 0.0
    step_count: int = 0
    first_moment: dict = field(default_factory=dict)
    second_moment: dict = field(default_factory=dict)


def cosine_lr(step: int, opt: OptimizerState) -> float:
    """Cosine decay from peak_lr at step 0 to min_lr at total_steps.

    Steps past total_steps clamp to min_lr.
    """
    if step >= opt.total_steps:
        return opt.min_lr
    frac = step / opt.total_steps
    return opt.min_lr + 0.5 * (opt.peak_lr - opt.min_lr) * (1.0 + math.cos(math.pi * frac))


def adamw_step(params: list[tuple[str, Tensor]], opt: OptimizerState) -> float:
    """One bias-corrected AdamW update over (name, tensor) pairs.

    Weight decay is decoupled (applied to the parameter directly, not the
    gradient). Returns the learning rate used. Raises NoGradError if no
    parameter has a gradient.
    """
    if all(t.grad is None for _, t in params):
        raise NoGradError("adamw_step called before any backward populated grads")
    lr = cosine_lr(opt.step_count, opt)
    opt.step_count += 1
    t = opt.step_count
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for name, p in params:
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        m = opt.first_moment.get(name)
        v = opt.second_moment.get(name)
        if m is None:
            m = opt.first_moment[name] = np.zeros_like(p.data)
            v = opt.second_moment[name] = np.zeros_like(p.data)
        # the moments and the step's temporaries are updated in place, one
        # operation at a time in the textbook update's order, which keeps
        # its bits
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        step = m / bc1
        step *= lr
        denom = v / bc2
        np.sqrt(denom, out=denom)
        denom += EPS
        step /= denom
        if opt.weight_decay:
            p.data -= lr * opt.weight_decay * p.data
        p.data -= step
    return lr
