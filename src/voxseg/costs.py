"""Analytic FLOP and parameter accounting. No tensors are executed:
every flop count is a closed-form function of the configuration, and
every parameter count is read from ``model.param_specs``, the one record
of the parameter layout, grouped by the first component of each name.

Multiply-accumulates are tallied separately from other flops, and a
multiply-accumulate counts as 2 flops. The 'linear' category holds the
multiply-accumulates of parameterized linear maps, the convention
common FLOP profilers apply (they instrument layers, not raw attention
matmuls); the attention products are itemized under 'attention'. The
convs over upsampled decoder features count their channel projection
as 'linear' and their shifted interpolation as 'interp', as
``upsample_conv3d`` runs them (``conv.upsampled_macs``). The patch
embedding is the pseudo-3-D route: its slice-wise 2D conv and its depth
aggregation are both 'linear'. Each enhancer prices its own image
pyramid, at zero MACs under ``no_image_branch``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from . import decoder as dec
from .autodiff.conv import upsampled_macs
from .model import ModelSpec, param_specs


@dataclass(frozen=True)
class CostItem:
    module: str
    name: str
    category: str  # linear | attention | norm | act | interp | other
    macs: int = 0
    other_flops: int = 0


@dataclass
class CostReport:
    items: list[CostItem] = field(default_factory=list)
    param_counts: dict[str, int] = field(default_factory=dict)  # module -> count

    def _filtered(self, module=None, category=None):
        return [
            it
            for it in self.items
            if (module is None or it.module == module)
            and (category is None or it.category == category)
        ]

    def macs(self, module=None, category=None):
        return sum(it.macs for it in self._filtered(module, category))

    def flops(self, module=None, category=None):
        sel = self._filtered(module, category)
        return sum(2 * it.macs + it.other_flops for it in sel)

    def params(self, module=None):
        if module is None:
            return sum(self.param_counts.values())
        return self.param_counts.get(module, 0)

    def modules(self):
        seen = []
        for it in self.items:
            if it.module not in seen:
                seen.append(it.module)
        return seen

    def render(self):
        lines = [
            f"{'module':<12} {'flops':>16} {'linear flops':>16} {'params':>12}",
        ]
        for m in self.modules():
            lines.append(
                f"{m:<12} {self.flops(m):>16,} {self.flops(m, category='linear'):>16,} "
                f"{self.params(m):>12,}"
            )
        lines.append(
            f"{'total':<12} {self.flops():>16,} {self.flops(category='linear'):>16,} "
            f"{self.params():>12,}"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# per-module item generators
# ---------------------------------------------------------------------------


def patch_embed_items(spec: ModelSpec):
    ph, pw, pd = spec.patch
    c = spec.embed_dim
    h, w, d = spec.grid_dims
    dbar = spec.vol_dims[2]
    m = h * w * d
    return [
        CostItem("patch", "conv2d", "linear",
                 macs=h * w * dbar * ph * pw * c),
        CostItem("patch", "depth_agg", "linear", macs=m * pd * c),
        CostItem("patch", "positional", "other", other_flops=m * c),
    ]


def encoder_items(spec: ModelSpec):
    c, r, l, h = spec.embed_dim, spec.mlp_ratio, spec.adapter_dim, spec.heads
    m = spec.token_count
    items = []
    for i in range(1, spec.layers + 1):
        mod = "encoder"
        pre = f"layer{i:02d}"
        items += [
            CostItem(mod, f"{pre}.norms", "norm", other_flops=2 * 5 * m * c),
            CostItem(mod, f"{pre}.qkv_proj", "linear", macs=3 * m * c * c),
            CostItem(mod, f"{pre}.attn_logits", "attention", macs=m * m * c,
                     other_flops=4 * h * m * m),  # + softmax
            CostItem(mod, f"{pre}.attn_mix", "attention", macs=m * m * c),
            CostItem(mod, f"{pre}.attn_out", "linear", macs=m * c * c),
            CostItem(mod, f"{pre}.mlp", "linear",
                     macs=2 * r * m * c * c,
                     other_flops=10 * m * r * c),  # activation
            CostItem(mod, f"{pre}.adapter", "linear",
                     macs=2 * m * c * l, other_flops=m * l),
        ]
    return items


def prompter_items(spec: ModelSpec):
    """The dual prompter at one tap: M tokens of C channels, n reduced
    keys, one Z@W_q and one Z@W_k product read by both branches."""
    m, c, n = spec.token_count, spec.embed_dim, spec.prompt_n
    mod = "prompter"
    norm_flops = 5 * m * c
    return [
        CostItem(mod, "sa.q_proj", "linear", macs=m * c * c),
        CostItem(mod, "sa.k_proj", "linear", macs=m * c * c),
        CostItem(mod, "sa.v_proj", "linear", macs=m * c * c),
        CostItem(mod, "sa.reduce_k", "linear", macs=n * m * c),
        CostItem(mod, "sa.reduce_v", "linear", macs=n * m * c),
        CostItem(mod, "sa.q_norm", "norm", other_flops=norm_flops),
        CostItem(mod, "sa.logits", "attention", macs=n * m * c,
                 other_flops=4 * n * m),
        CostItem(mod, "sa.mix", "attention", macs=n * m * c),
        CostItem(mod, "ca.v_proj", "linear", macs=m * c * c),
        CostItem(mod, "ca.q_norm", "norm", other_flops=norm_flops),
        CostItem(mod, "ca.k_norm", "norm", other_flops=norm_flops),
        CostItem(mod, "ca.logits", "attention", macs=m * c * c,
                 other_flops=4 * c * c),
        CostItem(mod, "ca.mix", "attention", macs=m * c * c),
        CostItem(mod, "sa.down", "linear", macs=m * c * (c // 2)),
        CostItem(mod, "ca.down", "linear", macs=m * c * (c // 2)),
        CostItem(mod, "residual", "other", other_flops=m * c),
    ]


def _conv_block_items(module, name, voxels_out, cin, cout, k=27, conv1_macs=None):
    """(conv k -> IN -> relu) x2; first conv maps cin -> cout, at
    ``conv1_macs`` where it does not run as voxels_out * k * cin * cout."""
    if conv1_macs is None:
        conv1_macs = voxels_out * k * cin * cout
    macs = conv1_macs + voxels_out * k * cout * cout
    other = 2 * (5 + 1) * voxels_out * cout  # norms + relus
    return [CostItem(module, name, "linear", macs=macs),
            CostItem(module, f"{name}.normact", "norm", other_flops=other)]


def decoder_items(spec: ModelSpec):
    c, cdec = spec.embed_dim, spec.dec_channels
    th, tw, td = spec.feature_dims
    tvox = th * tw * td
    vvox = spec.vol_dims[0] * spec.vol_dims[1] * spec.vol_dims[2]
    n_taps = len(spec.taps)
    strided = tuple(spec.vol_dims) != spec.feature_dims
    n_stages = dec.pyramid_stages(spec.vol_dims, spec.feature_dims)

    items = []

    def image_branch(tag):
        out = []
        cin = 1  # the volume's one channel
        vox = vvox
        for s in range(n_stages):
            if strided:
                vox //= 8  # stride-2 stage halves each axis
            out += _conv_block_items("decoder", f"{tag}.s{s}", vox, cin, cdec)
            cin = cdec
        if spec.no_image_branch:  # the store keeps the branch; the forward uses zeros
            out = [replace(it, macs=0, other_flops=0) for it in out]
        return out

    # the fuse conv projects the tap at its own grid, then interpolates the
    # result (upsample_conv3d); the image features it reads as they are
    tap_proj, tap_interp = upsampled_macs(spec.grid_dims, (2, 2, 2), c, cdec)
    for j in range(1, n_taps + 1):
        items += image_branch(f"enh{j}.img")
        items += _conv_block_items("decoder", f"enh{j}.fuse", tvox, c + cdec, cdec,
                                   conv1_macs=tap_proj + tvox * 27 * cdec * cdec)
        items.append(CostItem("decoder", f"enh{j}.fuse.interp", "interp", macs=tap_interp))
    head_c = cdec
    items += _conv_block_items("decoder", "head", tvox, n_taps * cdec, head_c)
    factor = tuple(v // t for v, t in zip(spec.vol_dims, spec.feature_dims))
    smooth_proj, smooth_interp = upsampled_macs(spec.feature_dims, factor, head_c, head_c)
    items.append(CostItem("decoder", "smooth", "linear",
                          macs=smooth_proj,
                          other_flops=vvox * head_c))
    items.append(CostItem("decoder", "smooth.interp", "interp", macs=smooth_interp))
    items.append(CostItem("decoder", "project", "linear",
                          macs=vvox * head_c,
                          other_flops=4 * vvox))  # sigmoid
    return items


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def count_cost(spec: ModelSpec) -> CostReport:
    """Whole-model analytic cost for one forward pass, and the parameter
    count of each module of ``model.param_specs``."""
    spec.validate()
    counts = {}
    for name, shape, _, _ in param_specs(spec):
        module = name.split(".")[0]
        counts[module] = counts.get(module, 0) + math.prod(shape)
    return CostReport(items=patch_embed_items(spec) + encoder_items(spec)
                      + prompter_items(spec) + decoder_items(spec), param_counts=counts)
