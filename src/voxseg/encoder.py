"""Transformer image encoder: frozen attention/MLP cores plus trainable
parallel bottleneck adapters, emitting feature taps every third layer.

Layer recurrence, in exactly this order:

    z_dot  = norm(z_prev)                 (pre-attention norm, frozen affine)
    z_hat  = z_prev + attention(z_dot)    (frozen multi-head self-attention)
    z_ddot = norm(z_hat)                  (pre-MLP norm, frozen affine)
    z_out  = mlp(z_ddot) + adapter(z_ddot)

Every layer reads and writes the (M, C) tokens of ``model.embed_volume``
(M = H*W*D, the patch grid flattened in C order), and ``encode`` returns
each tap as an (M, C) Tensor: no layer reshapes, and the grid comes back
only in the decoder's enhancers.

The MLP is linear -> GELU -> linear, as in SAM's encoder. The adapter
branch relu(X @ down) @ up is the only trainable piece of a layer, added
unscaled. Attention is full (global)
multi-head self-attention over all H*W*D tokens: at desk-scale token
counts windowing buys nothing and global attention is exact. The
attention sublayer is six graph nodes: its input, the three biased q, k
and v products (M, C), one ``ad.attention`` node over all heads, which
reads each head as a column slice of the token-major products and
returns the (M, C) context in the same layout, and the biased output
product. No node splits or merges heads. For the backward the fused op
keeps only its output, the row log-sum-exp (heads, M, 1) and the rebuild
hooks of q, k and v, which recompute the products from the norm's output,
itself rebuilt once for all three from the norm's input and statistics,
never the (heads, M, M) scores or probabilities.

A non-finite value is named by layer and sub-step through ``ad.scope``
(``layer03/layer_forward/mlp/matmul: non-finite output``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from . import autodiff as ad
from .autodiff import ShapeMismatchError, Tensor


@dataclass
class LayerParams:
    """One layer's tensors, read from the store by field name. Their
    shapes, inits and freeze flags live in ``param_specs``."""

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

    @classmethod
    def from_store(cls, store, layer_index):
        prefix = layer_name(layer_index)
        return cls(**{f.name: store[f"{prefix}.{f.name}"] for f in fields(cls)})


def layer_name(i):
    return f"encoder.layer{i:02d}"


def param_specs(spec):
    """(name, shape, frozen, init) for all encoder parameters of a ModelSpec.

    The frozen flags here are the freeze policy: each layer's attention,
    MLP and norm affines are frozen, its adapter is not. No other record
    of the encoder's layout exists."""
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


def adapter_forward(z: Tensor, p: LayerParams):
    """relu(Z @ W_down) @ W_up on tokens z (M, C); shape-preserving."""
    if z.shape[-1] != p.adapter_down.shape[0]:
        raise ShapeMismatchError(
            f"adapter: input channels {z.shape[-1]} != W_down rows {p.adapter_down.shape[0]}"
        )
    return ad.matmul(ad.relu(ad.matmul(z, p.adapter_down)), p.adapter_up)


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


def layer_forward(z_prev: Tensor, p: LayerParams, heads):
    """One full transformer layer on tokens (M, C); shape preserved."""
    with ad.scope("layer_forward/norm1"):
        z_dot = ad.layer_norm(z_prev, gain=p.norm1_g, shift=p.norm1_b)
    with ad.scope("layer_forward/attention"):
        attn = attention_forward(z_dot, p, heads)
    z_hat = ad.add(z_prev, attn)
    with ad.scope("layer_forward/norm2"):
        z_ddot = ad.layer_norm(z_hat, gain=p.norm2_g, shift=p.norm2_b)
    with ad.scope("layer_forward/mlp"):
        mlp = mlp_forward(z_ddot, p)
    with ad.scope("layer_forward/adapter"):
        adapter = adapter_forward(z_ddot, p)
    with ad.scope("layer_forward/output"):
        return ad.add(mlp, adapter)


def encode(z: Tensor, spec, store):
    """Run ``spec.layers`` layers on tokens (M, C); return {tap_index:
    (M, C) Tensor} for ``spec.taps``. A layer missing from ``store``
    raises ``GraphError``."""
    taps = {}
    for i in range(1, spec.layers + 1):
        p = LayerParams.from_store(store, i)
        with ad.scope(f"layer{i:02d}"):
            z = layer_forward(z, p, spec.heads)
        if i in spec.taps:
            taps[i] = z
    return taps
