"""Segmentation metrics: overlap (DICE) and boundary agreement (NSD).

NSD extracts the boundary voxels of both masks (foreground voxels with a
face-adjacent background neighbor; the outside of the grid counts as
background) and scores the fraction of boundary voxels of each mask
lying within Euclidean distance tau (voxel units) of the other's
boundary, symmetrized:

    ( |{p in ∂P : d(p, ∂G) <= tau}| + |{g in ∂G : d(g, ∂P) <= tau}| )
    / (|∂P| + |∂G|)

A boundary voxel is a hit iff its squared lattice distance d² to the
other boundary is at most K, the largest integer k with
sqrt(float64(k)) <= tau: the same predicate as comparing the float64
Euclidean distance with tau, since that distance is the square root of
an integer. K is capped at sum((n_i - 1)²), the grid's largest squared
distance, so a huge or infinite tau costs no more than the diagonal.

d² is a min-plus over one 1-D pass per axis (Saito & Toriwaki 1994):
starting from 0 on the boundary and K + 1 elsewhere, each axis takes
d[i] = min over |s| <= isqrt(K) of f[i - s] + s². The s = 0 term keeps
every value at most K + 1. An offset beyond isqrt(K) adds more than K
on its own, and min and + are monotone, so every value <= K is exact
and every other value reads K + 1: "d² <= K" is decided exactly
without the full transform. The cost is 2·min(isqrt(K), n_i - 1)
shifted minimums over the volume per axis, per mask. The tests hold an
all-pairs oracle and scipy's exact Euclidean distance transform; both
must agree exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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
    fg = arr == 1
    if np.count_nonzero(fg) + np.count_nonzero(arr == 0) != arr.size:
        raise ValueError(f"{name} is not a binary mask")
    return fg


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


def _max_sq_distance(tau, shape) -> int:
    """Largest integer k with sqrt(float64(k)) <= tau, capped at the
    grid's largest squared distance."""
    cap = sum((n - 1) ** 2 for n in shape)
    if np.sqrt(np.float64(cap)) <= tau:
        return cap
    # int(tau * tau) + 1 >= the answer: the rounding of sqrt and of the
    # product cost less than 1 while tau * tau < 2**51
    k = int(tau * tau) + 1
    while np.sqrt(np.float64(k)) > tau:
        k -= 1
    return k


def _sq_distance_up_to(seeds, k) -> np.ndarray:
    """Squared Euclidean distance to the nearest True voxel of seeds where
    it is <= k, and k + 1 everywhere else."""
    far = k + 1
    dtype = np.int32 if 2 * far <= np.iinfo(np.int32).max else np.int64
    d = np.full(seeds.shape, far, dtype)
    d[seeds] = 0
    for axis in range(d.ndim):
        out = np.moveaxis(d, axis, 0)
        f = out.copy()
        for s in range(1, min(math.isqrt(k), len(f) - 1) + 1):
            np.minimum(out[s:], f[:-s] + s * s, out=out[s:])
            np.minimum(out[:-s], f[s:] + s * s, out=out[:-s])
    return d


def nsd(pred, gt, tau=1.0) -> float:
    """Normalized surface dice at tolerance tau (voxel units)."""
    if not tau >= 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    p, g = _check_pair(pred, gt)
    bp = boundary_mask(p)
    bg = boundary_mask(g)
    np_, ng = int(bp.sum()), int(bg.sum())
    if np_ == 0 and ng == 0:
        return 1.0
    if np_ == 0 or ng == 0:
        return 0.0
    k = _max_sq_distance(tau, p.shape)
    hits_p = int((_sq_distance_up_to(bg, k)[bp] <= k).sum())
    hits_g = int((_sq_distance_up_to(bp, k)[bg] <= k).sum())
    return (hits_p + hits_g) / (np_ + ng)


def evaluate_case(prob, gt_mask, tau=1.0) -> MetricReport:
    pred = threshold_probabilities(prob)
    return MetricReport(
        dice=dice_score(pred, gt_mask), nsd=nsd(pred, gt_mask, tau), tau=tau
    )
