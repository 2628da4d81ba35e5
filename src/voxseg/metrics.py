"""Segmentation metrics: overlap (DICE) and boundary agreement (NSD).

NSD extracts the boundary voxels of both masks (foreground voxels with a
face-adjacent background neighbor; the outside of the grid counts as
background) and scores the fraction of boundary voxels of each mask
lying within Euclidean distance tau (voxel units) of the other's
boundary, symmetrized:

    ( |{p in ∂P : d(p, ∂G) <= tau}| + |{g in ∂G : d(g, ∂P) <= tau}| )
    / (|∂P| + |∂G|)

nsd() uses an exact distance transform; the tests hold an all-pairs
oracle that must agree with it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage


@dataclass
class MetricReport:
    dice: float
    nsd: float
    tau: float


def threshold_probabilities(prob, level=0.5):
    """Probability field -> binary mask; ties go to foreground."""
    return (np.asarray(prob) >= level).astype(np.uint8)


def _as_binary(mask, name):
    arr = mask.data if hasattr(mask, "data") else mask
    arr = np.asarray(arr)
    if arr.dtype == bool:
        return arr
    vals = np.unique(arr)
    if np.setdiff1d(vals, [0, 1]).size:
        raise ValueError(f"{name} is not a binary mask")
    return arr.astype(bool)


def _check_pair(pred, gt):
    p = _as_binary(pred, "prediction")
    g = _as_binary(gt, "ground truth")
    if p.shape != g.shape:
        raise ValueError(f"mask shapes differ: {p.shape} vs {g.shape}")
    return p, g


def dice_score(pred, gt) -> float:
    """2|P∩G| / (|P| + |G|); 1.0 when both masks are empty."""
    p, g = _check_pair(pred, gt)
    denom = int(p.sum()) + int(g.sum())
    if denom == 0:
        return 1.0
    return 2.0 * int(np.logical_and(p, g).sum()) / denom


def boundary_mask(mask) -> np.ndarray:
    """Foreground voxels with >= 1 face-adjacent background neighbor."""
    m = _as_binary(mask, "mask")
    padded = np.pad(m, 1, constant_values=False)
    interior = np.ones_like(m, dtype=bool)
    for axis in range(m.ndim):
        lo = [slice(1, -1)] * m.ndim
        hi = [slice(1, -1)] * m.ndim
        lo[axis] = slice(0, -2)
        hi[axis] = slice(2, None)
        interior &= padded[tuple(lo)] & padded[tuple(hi)]
    return m & ~interior


def nsd(pred, gt, tau=1.0) -> float:
    """Normalized surface dice at tolerance tau (voxel units)."""
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    p, g = _check_pair(pred, gt)
    bp = boundary_mask(p)
    bg = boundary_mask(g)
    np_, ng = int(bp.sum()), int(bg.sum())
    if np_ == 0 and ng == 0:
        return 1.0
    if np_ == 0 or ng == 0:
        return 0.0
    # distance_transform_edt gives each voxel's exact Euclidean distance
    # to the nearest boundary voxel of the other mask
    dist_to_g = ndimage.distance_transform_edt(~bg)
    dist_to_p = ndimage.distance_transform_edt(~bp)
    hits_p = int((dist_to_g[bp] <= tau).sum())
    hits_g = int((dist_to_p[bg] <= tau).sum())
    return (hits_p + hits_g) / (np_ + ng)


def evaluate_case(prob, gt_mask, tau=1.0) -> MetricReport:
    pred = threshold_probabilities(prob)
    return MetricReport(
        dice=dice_score(pred, gt_mask), nsd=nsd(pred, gt_mask, tau), tau=tau
    )
