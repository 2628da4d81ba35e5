"""Segmentation metrics: overlap (DICE) and boundary agreement (NSD).

NSD extracts the boundary voxels of both masks (foreground voxels with a
face-adjacent background neighbor; the outside of the grid counts as
background) and scores the fraction of boundary voxels of each mask
lying within Euclidean distance tau of the other's boundary,
symmetrized:

    ( |{p in ∂P : d(p, ∂G) <= tau}| + |{g in ∂G : d(g, ∂P) <= tau}| )
    / (|∂P| + |∂G|)

Distances are in the units of the voxel spacing (millimetres for a
DEAPVOL header's spacing): an offset of s voxels along axis i counts
h_i * s, and d² = sum_i (h_i s_i)². A boundary voxel is a hit iff
sqrt(d²) <= tau in float64. At unit spacing d² is an integer, held
exactly, so the predicate is that of the lattice distance.

d² is a min-plus over one 1-D pass per axis (Saito & Toriwaki 1994):
starting from 0 on the boundary and inf elsewhere, each axis takes
d[i] = min over |s| <= S_i of f[i - s] + (h_i s)², where S_i is the
largest offset, at most n_i - 1, whose own term passes the predicate.
Each term of a sum is at most the sum, so every term of a d² that
passes passes too: every such d² is reached and exact, and every other
value fails. The predicate is decided exactly without the full
transform. The cost is 2·S_i shifted
minimums over the volume per axis, per mask, so a huge or infinite tau
costs no more than the grid's extent. The tests hold an all-pairs
oracle and scipy's exact Euclidean distance transform; both must agree
exactly.
"""

from __future__ import annotations

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


def _sq_distance_within(seeds, tau, spacing) -> np.ndarray:
    """Squared distance, in the units of ``spacing``, to the nearest True
    voxel of seeds wherever its square root is at most tau; elsewhere a
    value whose square root exceeds tau."""
    d = np.where(seeds, 0.0, np.inf)
    for axis, h in enumerate(spacing):
        out = np.moveaxis(d, axis, 0)
        f = out.copy()
        terms = (h * np.arange(1, len(f))) ** 2
        for s, t in enumerate(terms[np.sqrt(terms) <= tau], start=1):
            np.minimum(out[s:], f[:-s] + t, out=out[s:])
            np.minimum(out[:-s], f[s:] + t, out=out[:-s])
    return d


def nsd(pred, gt, tau=1.0, spacing=(1.0, 1.0, 1.0)) -> float:
    """Normalized surface dice at tolerance tau, in the units of
    ``spacing``, the voxel size along each axis."""
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
    hits_p = int((np.sqrt(_sq_distance_within(bg, tau, spacing)[bp]) <= tau).sum())
    hits_g = int((np.sqrt(_sq_distance_within(bp, tau, spacing)[bg]) <= tau).sum())
    return (hits_p + hits_g) / (np_ + ng)


def evaluate_case(prob, gt_mask, tau=1.0, spacing=(1.0, 1.0, 1.0)) -> MetricReport:
    """DICE and NSD of the thresholded probabilities; tau is in the units
    of ``spacing``."""
    pred = threshold_probabilities(prob)
    return MetricReport(
        dice=dice_score(pred, gt_mask), nsd=nsd(pred, gt_mask, tau, spacing), tau=tau
    )
