"""Transformer image encoder: frozen attention/MLP cores plus trainable
parallel bottleneck adapters, emitting feature taps every third layer.

Layer recurrence, in exactly this order:

    z_dot  = norm(z_prev)                 (pre-attention norm, frozen affine)
    z_hat  = z_prev + attention(z_dot)    (frozen multi-head self-attention)
    z_ddot = norm(z_hat)                  (pre-MLP norm, frozen affine)
    z_out  = mlp(z_ddot) + s * adapter(z_ddot)

The MLP is linear -> GELU -> linear, as in SAM's encoder. The adapter
branch relu(X @ down) @ up is the only trainable piece of a layer; ``s``
is a fixed scale coefficient. Attention is full (global)
multi-head self-attention over all H*W*D tokens: at desk-scale token
counts windowing buys nothing and global attention is exact. The
attention sublayer is six graph nodes: its input, the three biased q, k
and v products (M, C), one ``ad.attention`` node over all heads, which
reads each head as a column slice of the token-major products and
returns the (M, C) context in the same layout, and the biased output
product. No node splits or merges heads. For the backward the fused op
keeps only its output, the row log-sum-exp (heads, M, 1) and the rebuild
hooks of q, k and v, which recompute the products from the norm's output,
never the (heads, M, M) scores or probabilities.

A non-finite value is named by layer and sub-step through ``ad.scope``
(``layer03/layer_forward/mlp/matmul: non-finite output``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import autodiff as ad
from .autodiff import ShapeMismatchError, Tensor
from .patch_embed import FeatureMap


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


def param_specs(spec):
    """(name, shape, frozen, init) for all encoder parameters of a ModelSpec."""
    c, l, r = spec.embed_dim, spec.adapter_dim, spec.mlp_ratio
    specs = []
    for i in range(1, spec.layers + 1):
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
    """Multi-head self-attention over tokens z (M, C), 1/sqrt(C/h) scaling:
    the q, k and v products, one token-major attention node and the output
    product."""
    c = z.shape[1]
    if c % heads != 0:
        raise ShapeMismatchError(f"attention: heads {heads} must divide channels {c}")
    q = ad.matmul(z, p.wq, bias=p.bq)
    k = ad.matmul(z, p.wk, bias=p.bk)
    v = ad.matmul(z, p.wv, bias=p.bv)
    ctx = ad.attention(q, k, v, 1.0 / math.sqrt(c // heads), heads=heads)  # (M, C)
    return ad.matmul(ctx, p.wo, bias=p.bo)


def mlp_forward(z: Tensor, p: LayerParams):
    h = ad.gelu(ad.matmul(z, p.mlp_w1, bias=p.mlp_b1))
    return ad.matmul(h, p.mlp_w2, bias=p.mlp_b2)


def layer_forward(fm: FeatureMap, p: LayerParams, s, heads):
    """One full transformer layer on a feature map; shape preserved."""
    z_prev = fm.tokens()
    with ad.scope("layer_forward/norm1"):
        z_dot = ad.layer_norm(z_prev, axis=-1, gain=p.norm1_g, shift=p.norm1_b)
    with ad.scope("layer_forward/attention"):
        attn = attention_forward(z_dot, p, heads)
    z_hat = ad.add(z_prev, attn)
    with ad.scope("layer_forward/norm2"):
        z_ddot = ad.layer_norm(z_hat, axis=-1, gain=p.norm2_g, shift=p.norm2_b)
    with ad.scope("layer_forward/mlp"):
        mlp = mlp_forward(z_ddot, p)
    with ad.scope("layer_forward/adapter"):
        adapter = adapter_forward(z_ddot, p)
    with ad.scope("layer_forward/output"):
        z_out = ad.add(mlp, ad.scale(adapter, s))
    return fm.with_tokens(z_out)


def encode(fm: FeatureMap, spec, store):
    """Run ``spec.layers`` layers; return {tap_index: FeatureMap} for
    ``spec.taps``. A layer missing from ``store`` raises ``GraphError``."""
    taps = {}
    z = fm
    for i in range(1, spec.layers + 1):
        p = LayerParams.from_store(store, i)
        with ad.scope(f"layer{i:02d}"):
            z = layer_forward(z, p, spec.adapter_scale, spec.heads)
        if i in spec.taps:
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
