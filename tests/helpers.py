"""Counts and views of a parameter store and of a dataset split, the
plain norm's operands, and the timer of the path scripts, that only tests
read."""

import statistics
import time

import numpy as np

from voxseg import autodiff as ad


def total_params(store):
    return sum(t.size for _, t, _ in store.items())


def trainable_params(store):
    return sum(t.size for _, t in store.trainable())


def frozen(store):
    """(name, Tensor) of every frozen entry, in store order."""
    return [(n, t) for n, t, fr in store.items() if fr]


def is_frozen(store, name):
    return not store[name].requires_grad


def all_cases(split):
    """Every case of a ``DatasetSplit``: train, then val, then test."""
    return split.train + split.val + split.test


def unit_affine(x):
    """Keywords of a frozen gain of ones and a shift of zeros over the last
    axis of Tensor ``x``: a norm given them returns x_hat bit for bit."""
    c = x.shape[-1]
    return {"gain": ad.tensor(np.ones(c), dtype=x.dtype),
            "shift": ad.tensor(np.zeros(c), dtype=x.dtype)}


def median_ms(fn, budget_s=0.4, least=5, most=200):
    """Median wall time of ``fn()`` in ms, after one warm-up call: at least
    ``least`` and at most ``most`` calls, until ``budget_s`` seconds pass."""
    fn()
    times = []
    start = time.perf_counter()
    while len(times) < most and (len(times) < least or time.perf_counter() - start < budget_s):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)
