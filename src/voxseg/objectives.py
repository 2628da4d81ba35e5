"""Training objective: equal-weighted soft dice + binary cross-entropy on
the decoder's probability map, as one autodiff node.

With p the predicted probabilities, g the {0, 1} mask, n voxels and the
smoothing term s (``LossConfig.smooth``, config key ``loss.smooth``):

    N = 2 sum(p g) + s,  D = sum(p) + sum(g) + s,  dice = 1 - N / D
    bce = -mean(g log p^ + (1 - g) log(1 - p^)),  p^ = clip(p, 1e-7, 1 - 1e-7)
    loss = 0.5 dice + 0.5 bce

(soft dice as in V-Net, Milletari et al. 2016, arXiv:1606.04797). The
clip keeps the loss finite on saturated 0/1 predictions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ShapeMismatchError, Tensor
from .autodiff.tensor import _make, _rec

_EPS = 1e-7  # BCE clips p to [_EPS, 1 - _EPS]


@dataclass(frozen=True)
class LossConfig:
    smooth: float = 1e-5

    def validate(self):
        if self.smooth <= 0:
            raise ValueError("smooth term must be positive")
        return self


def _mask_array(gt, dtype):
    """The mask as an array of the prediction's dtype, from an array, a
    Tensor or an object holding its array in ``.data`` (a ``Mask``)."""
    data = gt if isinstance(gt, np.ndarray) else getattr(gt, "data", gt)
    return np.asarray(data, dtype=dtype)


def combined_loss(pred: Tensor, gt, cfg: LossConfig = LossConfig()) -> Tensor:
    """0.5 soft dice + 0.5 BCE of ``pred`` against the mask ``gt``, one
    graph node whose only parent is ``pred``.

    The forward evaluates the terms in the order the module docstring
    writes them, every constant in ``pred``'s dtype. The closure keeps p
    and the mask and forms the gradient in closed form,
        G [0.5 (N / D^2 - 2 g / D)
           + 0.5 [1e-7 < p < 1 - 1e-7] ((1 - g) / (1 - p^) - g / p^) / n]:
    the BCE term passes gradient only strictly inside the clip bounds, so
    a saturated voxel gets only the dice term."""
    cfg.validate()
    pd = pred.data
    gd = _mask_array(gt, pd.dtype)
    if pd.shape != gd.shape:
        raise ShapeMismatchError(f"prediction shape {pd.shape} != ground truth {gd.shape}")
    dt = pd.dtype.type
    one, half = dt(1.0), dt(0.5)
    axes = tuple(range(pd.ndim))
    num = (pd * gd).sum(axis=axes) * dt(2.0) + dt(cfg.smooth)
    den = (pd.sum(axis=axes) + gd.sum(axis=axes)) + dt(cfg.smooth)
    dice = one - num / den
    ph = np.clip(pd, _EPS, 1.0 - _EPS)
    bce = -((gd * np.log(ph) + (one - gd) * np.log(one - ph)).mean(axis=axes))
    rp = _rec(pred)

    def bw(g):
        ph = np.clip(pd, _EPS, 1.0 - _EPS)
        d = one - gd
        d /= one - ph
        d -= gd / ph
        d *= (pd > _EPS) & (pd < 1.0 - _EPS)
        d *= dt(0.5 / pd.size)
        d += half * num / (den * den)
        d -= gd / den
        d *= g
        rp._accum(d, owned=True)

    return _make("combined_loss", dice * half + bce * half, (pred,), bw)
