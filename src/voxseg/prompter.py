"""Dual-attention auto-prompting over one encoder tap.

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
from dataclasses import dataclass

from . import autodiff as ad
from .autodiff import ShapeMismatchError, Tensor
from .patch_embed import FeatureMap


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

    _FIELDS = (
        "wq", "wk", "wv_sa", "wv_ca", "reduce_k", "reduce_v", "down_sa", "down_ca",
        "norm_q_sa_g", "norm_q_sa_b", "norm_q_ca_g", "norm_q_ca_b",
        "norm_k_ca_g", "norm_k_ca_b",
    )

    @classmethod
    def from_store(cls, store):
        return cls(**{f: store[f"prompter.{f}"] for f in cls._FIELDS})


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


def _tokens_of(x):
    return (x.tokens(), x) if isinstance(x, FeatureMap) else (x, None)


def _rewrap(out, fm):
    return fm.with_tokens(out) if fm is not None else out


def spatial_attention(x, p: PrompterParams, zq=None, zk=None):
    """Linear-complexity token attention; shape preserved.

    With identity reducers and n = M this is exactly full self-attention
    with the same projection weights. ``zq`` / ``zk`` are Z@W_q and Z@W_k
    when the caller has already computed them.
    """
    z, fm = _tokens_of(x)
    m, c = z.shape
    n = p.reduce_k.shape[0]
    if n > m:
        raise ShapeMismatchError(f"spatial attention: n={n} exceeds tokens M={m}")
    if p.reduce_k.shape[1] != m or p.reduce_v.shape[1] != m:
        raise ShapeMismatchError(
            f"spatial attention: reducers built for {p.reduce_k.shape[1]} tokens, got {m}"
        )
    zq = ad.matmul(z, p.wq) if zq is None else zq
    zk = ad.matmul(z, p.wk) if zk is None else zk
    q = ad.layer_norm(zq, axis=-1, gain=p.norm_q_sa_g, shift=p.norm_q_sa_b)  # (M, C)
    k_hat = ad.matmul(p.reduce_k, zk)  # (n, C)
    v_hat = ad.matmul(p.reduce_v, ad.matmul(z, p.wv_sa))  # (n, C)
    out = ad.attention(q, k_hat, v_hat, 1.0 / math.sqrt(c))  # each query over the n keys
    return _rewrap(out, fm)


def channel_attention(x, p: PrompterParams, zq=None, zk=None):
    """Channel-mixing attention through a (C, C) affinity; shape preserved.

    Output channel b is the convex mix sum_a softmax_a(k_b . q_a) V[:, a]:
    attention with the channels as tokens, k as queries and q as keys.
    ``zq`` / ``zk`` are Z@W_q and Z@W_k when the caller has already
    computed them.
    """
    z, fm = _tokens_of(x)
    _, c = z.shape
    if p.wq.shape[0] != c:
        raise ShapeMismatchError(
            f"channel attention: channels {c} != weights {p.wq.shape[0]}"
        )
    zq = ad.matmul(z, p.wq) if zq is None else zq
    zk = ad.matmul(z, p.wk) if zk is None else zk
    q = ad.layer_norm(zq, axis=-1, gain=p.norm_q_ca_g, shift=p.norm_q_ca_b)
    k = ad.layer_norm(zk, axis=-1, gain=p.norm_k_ca_g, shift=p.norm_k_ca_b)
    v = ad.matmul(z, p.wv_ca)
    qt, kt, vt = (ad.permute(t, (1, 0)) for t in (q, k, v))  # (C, M)
    out = ad.permute(ad.attention(kt, qt, vt, 1.0 / math.sqrt(c)), (1, 0))
    return _rewrap(out, fm)


def dual_prompt(x, p: PrompterParams):
    """Residual fusion of the two down-projected attention branches."""
    z, fm = _tokens_of(x)
    _, c = z.shape
    if c % 2 != 0:
        raise ShapeMismatchError(f"dual prompt requires an even channel count, got {c}")
    zq, zk = ad.matmul(z, p.wq), ad.matmul(z, p.wk)  # read by both branches
    sa = spatial_attention(z, p, zq, zk)
    ca = channel_attention(z, p, zq, zk)
    fused = ad.concat([ad.matmul(sa, p.down_sa), ad.matmul(ca, p.down_ca)], axis=1)
    out = ad.add(z, fused)
    return _rewrap(out, fm)


def attach_prompter(taps: dict, p: PrompterParams, layer):
    """Replace exactly tap ``layer`` with its prompted version."""
    if layer not in taps:
        raise ShapeMismatchError(f"prompt layer {layer} not among taps {sorted(taps)}")
    out = dict(taps)
    out[layer] = dual_prompt(taps[layer], p)
    return out
