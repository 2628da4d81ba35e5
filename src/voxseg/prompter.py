"""Dual-attention auto-prompting over one encoder tap.

Every function here reads and returns the tap's (M, C) tokens as the
encoder emits them; none of them sees the (H, W, D) grid.

Spatial attention is token-level self-attention with linear cost: keys
and values are projected down to a constant ``n`` tokens by learned
(n, M) reducers, so cost grows as O(M*n) instead of O(M^2). Channel
attention mixes channels through a (C, C) affinity built from the same
normalized projections. The two branches share one W_q and one W_k,
and one Z@W_q and one Z@W_k product. Both scale their logits by
1/sqrt(C).

Both branch outputs are projected to C/2 channels, concatenated, and
added residually onto the tap, so zero down-projections make the
prompter an exact identity.

Both branches are single ``ad.attention`` calls. Softmax axes (the
equations leave them open) are chosen so every output is a convex
combination: spatial weights normalize over the n reduced keys per query
token; the channel affinity normalizes over input channels per output
channel, so that branch runs attention over the transposed (C, M)
projections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from . import autodiff as ad
from .autodiff import ShapeMismatchError, Tensor


@dataclass
class PrompterParams:
    wq: Tensor  # W_q and W_k are read by both branches
    wk: Tensor
    wv_sa: Tensor
    wv_ca: Tensor
    reduce_k: Tensor  # (n, M)
    reduce_v: Tensor
    down_sa: Tensor  # (C, C/2)
    down_ca: Tensor
    norm_q_sa_g: Tensor
    norm_q_sa_b: Tensor
    norm_q_ca_g: Tensor
    norm_q_ca_b: Tensor
    norm_k_ca_g: Tensor
    norm_k_ca_b: Tensor

    @classmethod
    def from_store(cls, store):
        return cls(**{f.name: store[f"prompter.{f.name}"] for f in fields(cls)})


def param_specs(spec):
    """(name, shape, frozen, init) for the prompter parameters of a ModelSpec."""
    c, n, m = spec.embed_dim, spec.prompt_n, spec.token_count
    return [
        ("prompter.wq", (c, c), False, "trunc002"),
        ("prompter.wk", (c, c), False, "trunc002"),
        ("prompter.wv_sa", (c, c), False, "trunc002"),
        ("prompter.wv_ca", (c, c), False, "trunc002"),
        ("prompter.reduce_k", (n, m), False, "trunc002"),
        ("prompter.reduce_v", (n, m), False, "trunc002"),
        ("prompter.down_sa", (c, c // 2), False, "zeros"),
        ("prompter.down_ca", (c, c // 2), False, "zeros"),
        ("prompter.norm_q_sa_g", (c,), False, "ones"),
        ("prompter.norm_q_sa_b", (c,), False, "zeros"),
        ("prompter.norm_q_ca_g", (c,), False, "ones"),
        ("prompter.norm_q_ca_b", (c,), False, "zeros"),
        ("prompter.norm_k_ca_g", (c,), False, "ones"),
        ("prompter.norm_k_ca_b", (c,), False, "zeros"),
    ]


def spatial_attention(z: Tensor, p: PrompterParams, zq: Tensor, zk: Tensor):
    """Linear-complexity attention over tokens z (M, C); shape preserved.
    ``zq`` and ``zk`` are Z@W_q and Z@W_k, which ``dual_prompt`` computes
    once for both branches.

    With identity reducers and n = M this is exactly full self-attention
    with the same projection weights.
    """
    m, c = z.shape
    n = p.reduce_k.shape[0]
    if n > m:
        raise ShapeMismatchError(f"spatial attention: n={n} exceeds tokens M={m}")
    if p.reduce_k.shape[1] != m or p.reduce_v.shape[1] != m:
        raise ShapeMismatchError(
            f"spatial attention: reducers built for {p.reduce_k.shape[1]} tokens, got {m}"
        )
    q = ad.layer_norm(zq, gain=p.norm_q_sa_g, shift=p.norm_q_sa_b)  # (M, C)
    k_hat = ad.matmul(p.reduce_k, zk)  # (n, C)
    v_hat = ad.matmul(p.reduce_v, ad.matmul(z, p.wv_sa))  # (n, C)
    return ad.attention(q, k_hat, v_hat, 1.0 / math.sqrt(c))  # each query over the n keys


def channel_attention(z: Tensor, p: PrompterParams, zq: Tensor, zk: Tensor):
    """Channel-mixing attention on tokens z (M, C) through a (C, C)
    affinity; shape preserved. ``zq`` and ``zk`` are Z@W_q and Z@W_k, which
    ``dual_prompt`` computes once for both branches.

    Output channel b is the convex mix sum_a softmax_a(k_b . q_a) V[:, a]:
    attention with the channels as tokens, k as queries and q as keys.
    """
    c = z.shape[1]
    q = ad.layer_norm(zq, gain=p.norm_q_ca_g, shift=p.norm_q_ca_b)
    k = ad.layer_norm(zk, gain=p.norm_k_ca_g, shift=p.norm_k_ca_b)
    v = ad.matmul(z, p.wv_ca)
    qt, kt, vt = (ad.permute(t, (1, 0)) for t in (q, k, v))  # (C, M)
    return ad.permute(ad.attention(kt, qt, vt, 1.0 / math.sqrt(c)), (1, 0))


def dual_prompt(z: Tensor, p: PrompterParams):
    """Residual fusion of the two down-projected attention branches on
    tokens z (M, C)."""
    if len(z.shape) != 2 or z.shape[1] % 2 != 0:
        raise ShapeMismatchError(f"dual prompt needs (M, C) tokens with C even, got {z.shape}")
    zq, zk = ad.matmul(z, p.wq), ad.matmul(z, p.wk)  # read by both branches
    sa = spatial_attention(z, p, zq, zk)
    ca = channel_attention(z, p, zq, zk)
    fused = ad.concat([ad.matmul(sa, p.down_sa), ad.matmul(ca, p.down_ca)], axis=1)
    return ad.add(z, fused)


def attach_prompter(taps: dict, p: PrompterParams, layer):
    """Replace exactly tap ``layer`` of {index: (M, C) Tensor} with its
    prompted version."""
    if layer not in taps:
        raise ShapeMismatchError(f"prompt layer {layer} not among taps {sorted(taps)}")
    out = dict(taps)
    out[layer] = dual_prompt(taps[layer], p)
    return out
