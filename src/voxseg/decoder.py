"""Feature-enhanced decoding: four enhancers fuse encoder taps with
features convolved straight off the original volume, and a prediction
head emits a full-resolution probability map.

Per enhancer:  E = ConvBlock(Concat(Upsample(Z_tap), ConvPyramid(I))),
all branches meeting at (2H, 2W, 2D); a shared image branch
(``share_image_branch``) runs once per forward and feeds all four
enhancers. The prediction head concatenates the four enhancer outputs,
applies a conv block, upsamples to the input resolution, smooths with
one 3x3x3 conv and a relu (one node, ``upsample_conv3d(..., relu=True)``),
projects to a single channel and applies a sigmoid.
Both concatenations are implicit: the block's first conv takes the list
of inputs and writes each into its channel slice of the padded buffer it
builds anyway, so no concatenated copy is made or kept. Neither upsample
is built either: the enhancer's fuse conv and the head's smooth conv are
``ad.upsample_conv3d``, which mixes the channels of the tap (or of the
head's features) at their own resolution and interpolates the result
(the fuse conv reads the image features as a plain stride-1 input).

A conv block is (conv3x3x3 -> instance norm -> relu) twice, the norm and
its relu one graph node (``instance_norm(..., relu=True)``); pyramid
stages use stride 2 on their first conv. Block convs carry no bias: the
norm subtracts each channel's mean, so a bias before it changes nothing
(the smooth and projection convs, which no norm follows, keep theirs).
``no_image_branch`` replaces the image features with zeros (identical
shapes, decoder trains on taps alone).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeMismatchError, Tensor
from .patch_embed import FeatureMap


@dataclass
class ConvBlockParams:
    conv1_w: Tensor
    in1_g: Tensor
    in1_b: Tensor
    conv2_w: Tensor
    in2_g: Tensor
    in2_b: Tensor
    stride1: int = 1

    _FIELDS = ("conv1_w", "in1_g", "in1_b", "conv2_w", "in2_g", "in2_b")

    @classmethod
    def from_store(cls, store, prefix, stride1=1):
        return cls(**{f: store[f"{prefix}.{f}"] for f in cls._FIELDS}, stride1=stride1)


def conv_block(x: Tensor | list[Tensor], p: ConvBlockParams, factors=None) -> Tensor:
    """A list ``x`` is read by the first conv as its channel concatenation.
    With ``factors`` (as ``ad.upsample_conv3d`` takes them) the first conv
    reads each input trilinearly upsampled by its factors, at stride 1."""
    if factors is None:
        h = ad.conv3d(x, p.conv1_w, stride=p.stride1, padding=1)
    else:
        h = ad.upsample_conv3d(x, p.conv1_w, factors)
    h = ad.instance_norm(h, gain=p.in1_g, shift=p.in1_b, relu=True)
    h = ad.conv3d(h, p.conv2_w, stride=1, padding=1)
    return ad.instance_norm(h, gain=p.in2_g, shift=p.in2_b, relu=True)


@dataclass
class EnhancerParams:
    image_stages: list  # ConvBlockParams, first conv of each stage strided
    fuse: ConvBlockParams
    target_dims: tuple[int, int, int]  # (2H, 2W, 2D)
    no_image_branch: bool = False


@dataclass
class PredictParams:
    head: ConvBlockParams
    upsample_factor: tuple[int, int, int]
    smooth_w: Tensor
    smooth_b: Tensor
    proj_w: Tensor  # 1x1x1 -> 1 channel
    proj_b: Tensor


def pyramid_stages(vol_dims, target_dims):
    """Stride-2 stage count taking vol_dims down to target_dims.

    The ratio must be the same power of two on every axis; ratio 1 means
    a single non-strided stage (channel lift only).
    """
    ratios = [v // t for v, t in zip(vol_dims, target_dims)]
    if any(v % t for v, t in zip(vol_dims, target_dims)) or len(set(ratios)) != 1:
        raise ShapeMismatchError(
            f"volume dims {vol_dims} not reducible to {target_dims} by stride-2 stages"
        )
    r = ratios[0]
    if r < 1 or (r & (r - 1)) != 0:
        raise ShapeMismatchError(
            f"volume/feature ratio {r} must be a power of two"
        )
    return max(1, r.bit_length() - 1)  # log2(r) stages, min 1


def image_features(image: Tensor, p: EnhancerParams) -> Tensor:
    """The image branch: the conv pyramid over the volume, down to
    (2H, 2W, 2D), or zeros of that shape with ``no_image_branch``."""
    if p.no_image_branch:
        cout = p.image_stages[-1].conv2_w.shape[4]
        return ad.tensor(np.zeros(tuple(p.target_dims) + (cout,)), dtype=image.data.dtype)
    img_feat = image
    for stage in p.image_stages:
        img_feat = conv_block(img_feat, stage)
    if tuple(img_feat.shape[:3]) != tuple(p.target_dims):
        raise ShapeMismatchError(
            f"image branch produced {img_feat.shape[:3]}, expected {p.target_dims}"
        )
    return img_feat


def original_feature_enhancer(z: FeatureMap, image: Tensor, p: EnhancerParams,
                              features: Tensor | None = None) -> FeatureMap:
    """Upsample one tap to (2H, 2W, 2D), fuse with image-branch features.

    ``features`` is the image branch already computed by the caller (a
    shared branch runs once per forward); when None it runs here.
    """
    up_dims = tuple(2 * n for n in z.data.shape[:3])  # (2H, 2W, 2D)
    if up_dims != tuple(p.target_dims):
        raise ShapeMismatchError(
            f"enhancer target {p.target_dims} != upsampled tap {up_dims}"
        )
    img_feat = image_features(image, p) if features is None else features
    fused = conv_block([z.data, img_feat], p.fuse, factors=[2, 1])
    return FeatureMap.wrap(fused)


def predict(enhanced: list[FeatureMap], p: PredictParams) -> Tensor:
    """Concatenate enhancer outputs and emit an (H̄, W̄, D̄) probability map."""
    shapes = {tuple(e.data.shape) for e in enhanced}
    if len(shapes) != 1:
        raise ShapeMismatchError(f"enhancer outputs disagree in shape: {shapes}")
    h = conv_block([e.data for e in enhanced], p.head)
    h = ad.upsample_conv3d(h, p.smooth_w, p.upsample_factor, bias=p.smooth_b, relu=True)
    logits = ad.conv3d(h, p.proj_w, stride=1, padding=0, bias=p.proj_b)
    prob = ad.sigmoid(logits)
    dims = prob.shape[:3]
    return ad.reshape(prob, dims)


# ---------------------------------------------------------------------------
# parameter layout
# ---------------------------------------------------------------------------


def _conv_block_specs(prefix, cin, cout):
    return [
        (f"{prefix}.conv1_w", (3, 3, 3, cin, cout), False, "he"),
        (f"{prefix}.in1_g", (cout,), False, "ones"),
        (f"{prefix}.in1_b", (cout,), False, "zeros"),
        (f"{prefix}.conv2_w", (3, 3, 3, cout, cout), False, "he"),
        (f"{prefix}.in2_g", (cout,), False, "ones"),
        (f"{prefix}.in2_b", (cout,), False, "zeros"),
    ]


def param_specs(spec):
    """(name, shape, frozen, init) for the whole decoder of a ModelSpec."""
    n_stages = pyramid_stages(spec.vol_dims, spec.feature_dims)
    cdec, n_taps = spec.dec_channels, len(spec.taps)
    specs = []

    def image_branch(prefix):
        out = []
        cin = spec.in_channels
        for s in range(n_stages):
            out += _conv_block_specs(f"{prefix}.s{s}", cin, cdec)
            cin = cdec
        return out

    if spec.share_image_branch:
        specs += image_branch("decoder.imgshared")
    for j in range(1, n_taps + 1):
        if not spec.share_image_branch:
            specs += image_branch(f"decoder.enh{j}.img")
        specs += _conv_block_specs(f"decoder.enh{j}.fuse", spec.embed_dim + cdec, cdec)
    head_c = cdec
    specs += _conv_block_specs("decoder.head", n_taps * cdec, head_c)
    specs += [
        ("decoder.smooth_w", (3, 3, 3, head_c, head_c), False, "he"),
        ("decoder.smooth_b", (head_c,), False, "zeros"),
        ("decoder.proj_w", (1, 1, 1, head_c, 1), False, "he"),
        # negative prior: start predictions near the foreground rate of
        # small lesions instead of 0.5, avoiding the early collapse phase
        ("decoder.proj_b", (1,), False, "neg_prior"),
    ]
    return specs


def enhancer_from_store(store, j, spec):
    """Enhancer ``j``'s parameters (1-based) for a ModelSpec."""
    target = spec.feature_dims
    stage_stride = 2 if tuple(spec.vol_dims) != target else 1
    img_prefix = "decoder.imgshared" if spec.share_image_branch else f"decoder.enh{j}.img"
    stages = [
        ConvBlockParams.from_store(store, f"{img_prefix}.s{s}", stride1=stage_stride)
        for s in range(pyramid_stages(spec.vol_dims, target))
    ]
    return EnhancerParams(
        image_stages=stages,
        fuse=ConvBlockParams.from_store(store, f"decoder.enh{j}.fuse"),
        target_dims=target,
        no_image_branch=spec.no_image_branch,
    )


def predict_from_store(store, spec):
    factor = tuple(v // t for v, t in zip(spec.vol_dims, spec.feature_dims))
    return PredictParams(
        head=ConvBlockParams.from_store(store, "decoder.head"),
        upsample_factor=factor,
        smooth_w=store["decoder.smooth_w"],
        smooth_b=store["decoder.smooth_b"],
        proj_w=store["decoder.proj_w"],
        proj_b=store["decoder.proj_b"],
    )
