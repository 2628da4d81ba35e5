"""Transformer image encoder: frozen attention/MLP cores plus trainable
parallel bottleneck adapters, emitting feature taps every third layer.

Layer recurrence, in exactly this order:

    z_dot  = norm(z_prev)                 (pre-attention norm, frozen affine)
    z_hat  = z_prev + attention(z_dot)    (frozen multi-head self-attention)
    z_ddot = norm(z_hat)                  (pre-MLP norm, frozen affine)
    z_out  = mlp(z_ddot) + s * adapter(z_ddot)

The adapter branch relu(X @ down) @ up is the only trainable piece of a
layer; ``s`` is a fixed scale coefficient. Attention is full (global)
multi-head self-attention over all H*W*D tokens: at desk-scale token
counts windowing buys nothing and global attention is exact. Each layer's
softmax(q k^T / sqrt(d)) v is one fused autodiff op (``ad.attention``)
that keeps only its output and the row log-sum-exp (heads, M, 1) for the
backward pass, never the (heads, M, M) scores or probabilities.

A non-finite value is named by layer and sub-step through ``ad.scope``
(``layer03/layer_forward/mlp/matmul: non-finite output``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import autodiff as ad
from .autodiff import ShapeMismatchError, Tensor
from .patch_embed import FeatureMap


@dataclass(frozen=True)
class EncoderConfig:
    heads: int
    adapter_dim: int
    scale: float = 1.0
    layers: int = 12
    taps: tuple[int, ...] = (3, 6, 9, 12)
    mlp_ratio: int = 4
    activation: str = "gelu"  # frozen-MLP activation; unpinned choice

    def validate(self, embed_dim):
        if self.heads < 1 or embed_dim % self.heads != 0:
            raise ValueError(f"heads {self.heads} must divide embed dim {embed_dim}")
        if not 1 <= self.adapter_dim:
            raise ValueError("adapter_dim must be >= 1")
        if self.adapter_dim >= embed_dim:
            raise ValueError("adapter_dim must be smaller than the embed dim")
        if not all(1 <= t <= self.layers for t in self.taps):
            raise ValueError(f"taps {self.taps} outside 1..{self.layers}")
        if not math.isfinite(self.scale):
            raise ValueError("scale must be finite")
        if self.activation not in ("gelu", "relu"):
            raise ValueError(f"unknown activation {self.activation!r}")
        return self


@dataclass
class LayerParams:
    """One layer's tensors; attention/MLP/norm affines frozen, adapter not."""

    norm1_g: Tensor
    norm1_b: Tensor
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    norm2_g: Tensor
    norm2_b: Tensor
    mlp_w1: Tensor
    mlp_b1: Tensor
    mlp_w2: Tensor
    mlp_b2: Tensor
    adapter_down: Tensor
    adapter_up: Tensor

    _FIELDS = (
        "norm1_g", "norm1_b", "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo",
        "norm2_g", "norm2_b", "mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2",
        "adapter_down", "adapter_up",
    )

    @classmethod
    def from_store(cls, store, layer_index):
        prefix = layer_name(layer_index)
        return cls(**{f: store[f"{prefix}.{f}"] for f in cls._FIELDS})


def layer_name(i):
    return f"encoder.layer{i:02d}"


def param_specs(cfg: EncoderConfig, embed_dim):
    """(name, shape, frozen, init) for all encoder parameters."""
    c, l, r = embed_dim, cfg.adapter_dim, cfg.mlp_ratio
    specs = []
    for i in range(1, cfg.layers + 1):
        p = layer_name(i)
        specs += [
            (f"{p}.norm1_g", (c,), True, "ones"),
            (f"{p}.norm1_b", (c,), True, "zeros"),
            (f"{p}.wq", (c, c), True, "scaled"),
            (f"{p}.bq", (c,), True, "zeros"),
            (f"{p}.wk", (c, c), True, "scaled"),
            (f"{p}.bk", (c,), True, "zeros"),
            (f"{p}.wv", (c, c), True, "scaled"),
            (f"{p}.bv", (c,), True, "zeros"),
            (f"{p}.wo", (c, c), True, "scaled"),
            (f"{p}.bo", (c,), True, "zeros"),
            (f"{p}.norm2_g", (c,), True, "ones"),
            (f"{p}.norm2_b", (c,), True, "zeros"),
            (f"{p}.mlp_w1", (c, r * c), True, "scaled"),
            (f"{p}.mlp_b1", (r * c,), True, "zeros"),
            (f"{p}.mlp_w2", (r * c, c), True, "scaled"),
            (f"{p}.mlp_b2", (c,), True, "zeros"),
            (f"{p}.adapter_down", (c, l), False, "trunc002"),
            (f"{p}.adapter_up", (l, c), False, "zeros"),
        ]
    return specs


def _affine(x, g, b):
    return ad.add(ad.mul(x, g), b)


def adapter_forward(x, p: LayerParams):
    """relu(X @ W_down) @ W_up, token-wise; shape-preserving.

    Accepts a FeatureMap or a (tokens, C) Tensor and returns the same kind.
    """
    fm = x if isinstance(x, FeatureMap) else None
    t = fm.tokens() if fm is not None else x
    if t.shape[-1] != p.adapter_down.shape[0]:
        raise ShapeMismatchError(
            f"adapter: input channels {t.shape[-1]} != W_down rows {p.adapter_down.shape[0]}"
        )
    out = ad.matmul(ad.relu(ad.matmul(t, p.adapter_down)), p.adapter_up)
    return fm.with_tokens(out) if fm is not None else out


def attention_forward(z: Tensor, p: LayerParams, heads):
    """Multi-head self-attention over tokens z (M, C), 1/sqrt(C/h) scaling."""
    m, c = z.shape
    if c % heads != 0:
        raise ShapeMismatchError(f"attention: heads {heads} must divide channels {c}")
    d = c // heads
    q = ad.add(ad.matmul(z, p.wq), p.bq)
    k = ad.add(ad.matmul(z, p.wk), p.bk)
    v = ad.add(ad.matmul(z, p.wv), p.bv)
    qh = ad.permute(ad.reshape(q, (m, heads, d)), (1, 0, 2))
    kh = ad.permute(ad.reshape(k, (m, heads, d)), (1, 0, 2))
    vh = ad.permute(ad.reshape(v, (m, heads, d)), (1, 0, 2))
    ctx = ad.attention(qh, kh, vh, 1.0 / math.sqrt(d))  # (heads, M, d)
    ctx = ad.reshape(ad.permute(ctx, (1, 0, 2)), (m, c))
    return ad.add(ad.matmul(ctx, p.wo), p.bo)


def mlp_forward(z: Tensor, p: LayerParams, activation):
    h = ad.add(ad.matmul(z, p.mlp_w1), p.mlp_b1)
    h = ad.gelu(h) if activation == "gelu" else ad.relu(h)
    return ad.add(ad.matmul(h, p.mlp_w2), p.mlp_b2)


def layer_forward(fm: FeatureMap, p: LayerParams, s, heads, activation="gelu"):
    """One full transformer layer on a feature map; shape preserved."""
    z_prev = fm.tokens()
    with ad.scope("layer_forward/norm1"):
        z_dot = _affine(ad.layer_norm(z_prev, axis=-1), p.norm1_g, p.norm1_b)
    with ad.scope("layer_forward/attention"):
        attn = attention_forward(z_dot, p, heads)
    z_hat = ad.add(z_prev, attn)
    with ad.scope("layer_forward/norm2"):
        z_ddot = _affine(ad.layer_norm(z_hat, axis=-1), p.norm2_g, p.norm2_b)
    with ad.scope("layer_forward/mlp"):
        mlp = mlp_forward(z_ddot, p, activation)
    with ad.scope("layer_forward/adapter"):
        adapter = adapter_forward(z_ddot, p)
    with ad.scope("layer_forward/output"):
        z_out = ad.add(mlp, ad.scale(adapter, s))
    return fm.with_tokens(z_out)


def encode(fm: FeatureMap, cfg: EncoderConfig, store):
    """Run all layers; return {tap_index: FeatureMap} for cfg.taps."""
    cfg.validate(fm.channels)
    taps = {}
    z = fm
    for i in range(1, cfg.layers + 1):
        name = layer_name(i)
        if f"{name}.wq" not in store:
            raise ad.GraphError(f"missing parameters for encoder layer {i}")
        p = LayerParams.from_store(store, i)
        with ad.scope(f"layer{i:02d}"):
            z = layer_forward(z, p, cfg.scale, cfg.heads, cfg.activation)
        if i in cfg.taps:
            taps[i] = z
    return taps


# ---------------------------------------------------------------------------
# freeze policy
# ---------------------------------------------------------------------------

_FROZEN_MARKS = (".wq", ".bq", ".wk", ".bk", ".wv", ".bv", ".wo", ".bo",
                 ".mlp_", ".norm1_", ".norm2_")
_TRAINABLE_PREFIXES = ("patch.", "prompter.", "decoder.")


def classify_parameter(name):
    """True if the freeze policy pins this parameter."""
    if name.startswith("encoder."):
        if ".adapter_" in name:
            return False
        if any(mark in name for mark in _FROZEN_MARKS):
            return True
        raise ad.GraphError(f"unrecognized encoder parameter {name!r}")
    if any(name.startswith(p) for p in _TRAINABLE_PREFIXES):
        return False
    raise ad.GraphError(f"unrecognized parameter {name!r}")


def apply_freeze_policy(store):
    """Freeze attention/MLP/norm cores; leave adapters, patching, the
    prompter, and the decoder trainable."""
    for name in store.names():
        store.set_frozen(name, classify_parameter(name))
