"""The training loss written out in numpy, one op of the former autodiff
chain per line (each constant in the prediction's dtype), and its
closed-form gradient, that only tests compare ``combined_loss`` against."""

import numpy as np

EPS = 1e-7  # the BCE clip: p to [EPS, 1 - EPS]


def loss_terms(p, g, smooth=1e-5):
    """(loss, dice, bce) of probabilities ``p`` against the mask ``g``, two
    arrays of one dtype, in the order the chain of ``mul``, ``reduce_sum``,
    ``add``, ``scale``, ``div``, ``sub``, ``clamp``, ``log``,
    ``reduce_mean`` and ``neg`` nodes evaluated them."""
    dt = p.dtype.type
    axes = tuple(range(p.ndim))
    inter = np.asarray((p * g).sum(axis=axes), dtype=p.dtype)
    denom = np.asarray(p.sum(axis=axes), dtype=p.dtype) + np.asarray(g.sum(axis=axes),
                                                                     dtype=p.dtype)
    dice = dt(1.0) - (inter * dt(2.0) + dt(smooth)) / (denom + dt(smooth))
    q = np.clip(p, EPS, 1.0 - EPS)
    pos = g * np.log(q)
    negm = (dt(1.0) - g) * np.log(dt(1.0) - q)
    bce = np.asarray((pos + negm).mean(axis=axes), dtype=p.dtype) * dt(-1.0)
    return dice * dt(0.5) + bce * dt(0.5), dice, bce


def loss_grad(p, g, smooth=1e-5, upstream=1.0):
    """(gradient, its dice term) of ``upstream`` times the loss toward ``p``,
    in float64: upstream [0.5 (N / D^2 - 2 g / D)
    + 0.5 [EPS < p < 1 - EPS] ((1 - g) / (1 - q) - g / q) / n], with
    N = 2 sum(p g) + s, D = sum(p) + sum(g) + s and q = p clipped to
    [EPS, 1 - EPS]. The bounds are compared in ``p``'s dtype."""
    lo, hi = p.dtype.type(EPS), p.dtype.type(1.0 - EPS)
    inside = (p > lo) & (p < hi)
    q = np.clip(p, lo, hi).astype(np.float64)
    p, g = p.astype(np.float64), g.astype(np.float64)
    num = 2.0 * (p * g).sum() + smooth
    den = p.sum() + g.sum() + smooth
    dice = 0.5 * (num / den**2 - 2.0 * g / den)
    bce = 0.5 * inside * ((1.0 - g) / (1.0 - q) - g / q) / p.size
    return upstream * (dice + bce), upstream * dice
