"""Training objective: equal-weighted soft-dice + binary cross-entropy.

Predictions are probabilities in [0, 1]; they are clamped to
[eps, 1 - eps] before the log terms so the loss stays finite even on
saturated 0/1 inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeMismatchError, Tensor


@dataclass(frozen=True)
class LossConfig:
    w_dice: float = 0.5
    w_ce: float = 0.5
    smooth: float = 1e-5
    eps: float = 1e-7

    def validate(self):
        if self.w_dice < 0 or self.w_ce < 0:
            raise ValueError("loss weights must be non-negative")
        if self.smooth <= 0:
            raise ValueError("smooth term must be positive")
        return self


def _as_float_mask(gt, like: Tensor):
    """``gt`` as a Tensor of ``like``'s dtype; one that already is one passes
    through unchanged."""
    if isinstance(gt, Tensor) and gt.data.dtype == like.data.dtype:
        return gt
    data = gt.data if hasattr(gt, "data") and not isinstance(gt, Tensor) else gt
    arr = data.numpy() if isinstance(data, Tensor) else np.asarray(data)
    return ad.tensor(arr, dtype=like.data.dtype)


def _check_shapes(pred: Tensor, gt: Tensor):
    if pred.shape != gt.shape:
        raise ShapeMismatchError(
            f"prediction shape {pred.shape} != ground truth {gt.shape}"
        )


def soft_dice_loss(pred: Tensor, gt, smooth=1e-5) -> Tensor:
    """1 - (2*sum(p*g) + smooth) / (sum(p) + sum(g) + smooth)."""
    g = _as_float_mask(gt, pred)
    _check_shapes(pred, g)
    inter = ad.reduce_sum(ad.mul(pred, g))
    denom = ad.add(ad.reduce_sum(pred), ad.reduce_sum(g))
    dice = ad.div(ad.add(ad.scale(inter, 2.0), smooth), ad.add(denom, smooth))
    return ad.sub(1.0, dice)


def bce_loss(pred: Tensor, gt, eps=1e-7) -> Tensor:
    """Mean binary cross-entropy with [eps, 1-eps] clamping."""
    g = _as_float_mask(gt, pred)
    _check_shapes(pred, g)
    p = ad.clamp(pred, eps, 1.0 - eps)
    pos = ad.mul(g, ad.log(p))
    negm = ad.mul(ad.sub(1.0, g), ad.log(ad.sub(1.0, p)))
    return ad.neg(ad.reduce_mean(ad.add(pos, negm)))


def combined_loss(pred: Tensor, gt, cfg: LossConfig = LossConfig()) -> Tensor:
    """w_dice * soft dice + w_ce * BCE, differentiable and finite. The mask
    is converted once and both terms share it."""
    cfg.validate()
    g = _as_float_mask(gt, pred)
    dice = soft_dice_loss(pred, g, cfg.smooth)
    ce = bce_loss(pred, g, cfg.eps)
    return ad.add(ad.scale(dice, cfg.w_dice), ad.scale(ce, cfg.w_ce))
