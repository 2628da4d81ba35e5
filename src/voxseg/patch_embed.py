"""Patch embedding: volume -> token feature map.

Two routes with identical output shape (H, W, D, C) = (H̄/p_h, W̄/p_w,
D̄/p_d, C):

  * pseudo3d — a 2D p_h x p_w convolutional embedding applied per depth
    slice, followed by a per-channel depth aggregation with kernel and
    stride p_d. The composition realizes exactly the separable 3D
    kernels K3[i,j,k,n,c] = K2[i,j,n,c] * kd[k,c], which quantifies what
    the slice-wise approximation can and cannot represent.
  * true3d — one dense 3D convolution with kernel = stride = patch.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import autodiff as ad
from .autodiff import ShapeMismatchError, Tensor


@dataclass
class FeatureMap:
    """Tensor with semantic axes (H, W, D, C)."""

    dims: tuple[int, int, int]
    channels: int
    data: Tensor

    @classmethod
    def wrap(cls, t: Tensor):
        if t.data.ndim != 4:
            raise ShapeMismatchError(f"feature map must be rank 4, got {t.data.ndim}")
        return cls(dims=t.shape[:3], channels=t.shape[3], data=t)

    def tokens(self) -> Tensor:
        """(H*W*D, C) view of the grid."""
        h, w, d = self.dims
        return ad.reshape(self.data, (h * w * d, self.channels))

    def with_tokens(self, t: Tensor) -> "FeatureMap":
        return FeatureMap.wrap(ad.reshape(t, self.dims + (self.channels,)))

    @property
    def token_count(self):
        h, w, d = self.dims
        return h * w * d


def _check_divisible(vol_dims, patch):
    for n, p in zip(vol_dims, patch):
        if n % p != 0:
            raise ShapeMismatchError(
                f"volume dims {vol_dims} not divisible by patch {patch}"
            )
    return tuple(n // p for n, p in zip(vol_dims, patch))


def pseudo3d_patch_embed(x: Tensor, w2d: Tensor, b2d: Tensor, wdepth: Tensor,
                         patch) -> FeatureMap:
    """Slice-wise 2D embedding then depth aggregation.

    x: (H̄, W̄, D̄, N); w2d: (p_h, p_w, 1, N, C); b2d: (C,);
    wdepth: (p_d, C) per-channel depth weights.
    """
    ph, pw, pd = patch
    grid = _check_divisible(x.shape[:3], patch)
    planar = ad.conv3d(x, w2d, stride=(ph, pw, 1), padding=0, bias=b2d)  # (H, W, D̄, C)
    h, w, d = grid
    c = planar.shape[3]
    stacked = ad.reshape(planar, (h, w, d, pd, c))
    weighted = ad.mul(stacked, wdepth)  # broadcast over (H, W, D)
    return FeatureMap.wrap(ad.reduce_sum(weighted, axis=3))


def true3d_patch_embed(x: Tensor, w3d: Tensor, b3d: Tensor, patch) -> FeatureMap:
    """Single dense 3D convolution with kernel = stride = patch."""
    _check_divisible(x.shape[:3], patch)
    return FeatureMap.wrap(ad.conv3d(x, w3d, stride=patch, padding=0, bias=b3d))


def add_positional(fm: FeatureMap, pos: Tensor) -> FeatureMap:
    """Learned additive positional embedding, shape (H, W, D, C)."""
    if pos.shape != fm.data.shape:
        raise ShapeMismatchError(
            f"positional embedding {pos.shape} does not match feature map {fm.data.shape}"
        )
    return FeatureMap.wrap(ad.add(fm.data, pos))
