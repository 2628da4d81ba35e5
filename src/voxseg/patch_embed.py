"""Patch embedding: volume -> the (H, W, D, C) grid of patch features,
(H, W, D) = (H̄/p_h, W̄/p_w, D̄/p_d).

The paper's pseudo-3-D route: a 2D p_h x p_w convolutional embedding
applied per depth slice, followed by a per-channel depth aggregation
with kernel and stride p_d. The composition realizes exactly the
separable 3D kernels K3[i,j,k,n,c] = K2[i,j,n,c] * kd[k,c], which
quantifies what the slice-wise approximation can and cannot represent.

It returns a plain rank-4 Tensor, and the positional table is added on
that grid. ``model.embed_volume`` then flattens the grid once into the
(M, C) tokens, M = H*W*D, that the encoder and prompter read; only the
decoder's enhancers reshape a tap back to its grid.
"""

from __future__ import annotations

from . import autodiff as ad
from .autodiff import ShapeMismatchError, Tensor


def pseudo3d_patch_embed(x: Tensor, w2d: Tensor, b2d: Tensor, wdepth: Tensor,
                         patch) -> Tensor:
    """Slice-wise 2D embedding then depth aggregation.

    x: (H̄, W̄, D̄, N); w2d: (p_h, p_w, 1, N, C); b2d: (C,);
    wdepth: (p_d, C) per-channel depth weights.
    """
    ph, pw, pd = patch
    if any(n % p for n, p in zip(x.shape[:3], patch)):
        raise ShapeMismatchError(f"volume dims {x.shape[:3]} not divisible by patch {patch}")
    h, w, d = (n // p for n, p in zip(x.shape[:3], patch))
    planar = ad.conv3d(x, w2d, stride=(ph, pw, 1), padding=0, bias=b2d)  # (H, W, D̄, C)
    c = planar.shape[3]
    stacked = ad.reshape(planar, (h, w, d, pd, c))
    weighted = ad.mul(stacked, wdepth)  # broadcast over (H, W, D)
    return ad.reduce_sum(weighted, axis=3)


def add_positional(x: Tensor, pos: Tensor) -> Tensor:
    """Learned additive positional embedding on the (H, W, D, C) grid."""
    if pos.shape != x.shape:
        raise ShapeMismatchError(
            f"positional embedding {pos.shape} does not match the patch grid {x.shape}"
        )
    return ad.add(x, pos)
