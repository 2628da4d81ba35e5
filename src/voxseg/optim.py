"""AdamW with decoupled weight decay over a ParameterStore.

Frozen entries are never touched (no moments, no decay). A step with any
non-finite gradient is aborted as a unit and reported, leaving
parameters and moments exactly as they were.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .autodiff import ParameterStore

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class AdamWConfig:
    lr: float = 2e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01

    def validate(self):
        """Require finite lr > 0, eps > 0 and weight_decay >= 0: a nan lr
        writes nan into every parameter, and eps = 0 divides 0 by 0 where a
        gradient is exactly zero."""
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be finite and positive, got {self.lr}")
        if not 0 < self.eps < math.inf:
            raise ValueError(f"eps must be finite and positive, got {self.eps}")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("betas must lie in [0, 1)")
        return self


class AdamW:
    def __init__(self, store: ParameterStore, cfg: AdamWConfig = AdamWConfig()):
        self.store = store
        self.cfg = cfg.validate()
        self.step_count = 0
        self._m = {}
        self._v = {}
        for name, t in store.trainable():
            self._m[name] = np.zeros_like(t.data)
            self._v[name] = np.zeros_like(t.data)

    def step(self):
        """Apply one update; returns False (and logs) on non-finite grads."""
        grads = {}
        for name, t in self.store.trainable():
            if t.grad is None:
                continue
            if not np.all(np.isfinite(t.grad)):
                log.warning("adamw: non-finite gradient on %r, step aborted", name)
                return False
            grads[name] = t.grad
        c = self.cfg
        self.step_count += 1
        bc1 = 1.0 - c.beta1 ** self.step_count
        bc2 = 1.0 - c.beta2 ** self.step_count
        for name, g in grads.items():
            t = self.store[name]
            m = self._m[name]
            v = self._v[name]
            m *= c.beta1
            m += (1.0 - c.beta1) * g
            v *= c.beta2
            v += (1.0 - c.beta2) * (g * g)
            m_hat = m / bc1
            v_hat = v / bc2
            if c.weight_decay:  # decoupled: decay the pre-update parameter
                t.data -= (c.lr * c.weight_decay) * t.data
            t.data -= (c.lr * m_hat / (np.sqrt(v_hat) + c.eps)).astype(t.data.dtype)
        return True

    # -- checkpoint plumbing --------------------------------------------------

    def state(self):
        return {"step": self.step_count, "m": self._m, "v": self._v}

    def load_state(self, state):
        self.step_count = int(state["step"])
        for name in self._m:
            self._m[name][...] = state["m"][name]
            self._v[name][...] = state["v"][name]
