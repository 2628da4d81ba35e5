"""Dual-attention auto-prompting over one encoder tap.

Spatial attention is token-level self-attention with linear cost: keys
and values are projected down to a constant ``n`` tokens by learned
(n, M) reducers, so cost grows as O(M*n) instead of O(M^2). Channel
attention mixes channels through a (C, C) affinity built from the same
normalized projections. With ``share_qk`` the two branches read one
physical copy of W_q and W_k (2*C^2 fewer parameters, and the shared
Z@W_q / Z@W_k products are computed once).

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
    wq_sa: Tensor
    wk_sa: Tensor
    wq_ca: Tensor  # same object as wq_sa when weights are shared
    wk_ca: Tensor
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
    def from_store(cls, store, share_qk):
        def g(name):
            return store[f"prompter.{name}"]

        if share_qk:
            wq = g("wq")
            wk = g("wk")
            q_fields = dict(wq_sa=wq, wq_ca=wq, wk_sa=wk, wk_ca=wk)
        else:
            q_fields = dict(
                wq_sa=g("wq_sa"), wq_ca=g("wq_ca"),
                wk_sa=g("wk_sa"), wk_ca=g("wk_ca"),
            )
        return cls(
            **q_fields,
            wv_sa=g("wv_sa"),
            wv_ca=g("wv_ca"),
            reduce_k=g("reduce_k"),
            reduce_v=g("reduce_v"),
            down_sa=g("down_sa"),
            down_ca=g("down_ca"),
            norm_q_sa_g=g("norm_q_sa_g"),
            norm_q_sa_b=g("norm_q_sa_b"),
            norm_q_ca_g=g("norm_q_ca_g"),
            norm_q_ca_b=g("norm_q_ca_b"),
            norm_k_ca_g=g("norm_k_ca_g"),
            norm_k_ca_b=g("norm_k_ca_b"),
        )


def param_specs(spec):
    """(name, shape, frozen, init) for the prompter parameters of a ModelSpec."""
    c, n, m = spec.embed_dim, spec.prompt_n, spec.token_count
    if spec.share_qk:
        specs = [
            ("prompter.wq", (c, c), False, "trunc002"),
            ("prompter.wk", (c, c), False, "trunc002"),
        ]
    else:
        specs = [
            ("prompter.wq_sa", (c, c), False, "trunc002"),
            ("prompter.wk_sa", (c, c), False, "trunc002"),
            ("prompter.wq_ca", (c, c), False, "trunc002"),
            ("prompter.wk_ca", (c, c), False, "trunc002"),
        ]
    specs += [
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
    return specs


def _tokens_of(x):
    return (x.tokens(), x) if isinstance(x, FeatureMap) else (x, None)


def _rewrap(out, fm):
    return fm.with_tokens(out) if fm is not None else out


def spatial_attention(x, p: PrompterParams, scaling=True, zq=None, zk=None):
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
    zq = ad.matmul(z, p.wq_sa) if zq is None else zq
    zk = ad.matmul(z, p.wk_sa) if zk is None else zk
    q = ad.layer_norm(zq, axis=-1, gain=p.norm_q_sa_g, shift=p.norm_q_sa_b)  # (M, C)
    k_hat = ad.matmul(p.reduce_k, zk)  # (n, C)
    v_hat = ad.matmul(p.reduce_v, ad.matmul(z, p.wv_sa))  # (n, C)
    scale = 1.0 / math.sqrt(c) if scaling else 1.0
    out = ad.attention(q, k_hat, v_hat, scale)  # each query over the n keys
    return _rewrap(out, fm)


def channel_attention(x, p: PrompterParams, scaling=True, zq=None, zk=None):
    """Channel-mixing attention through a (C, C) affinity; shape preserved.

    Output channel b is the convex mix sum_a softmax_a(k_b . q_a) V[:, a]:
    attention with the channels as tokens, k as queries and q as keys.
    ``zq`` / ``zk`` are Z@W_q and Z@W_k when the caller has already
    computed them.
    """
    z, fm = _tokens_of(x)
    _, c = z.shape
    if p.wq_ca.shape[0] != c:
        raise ShapeMismatchError(
            f"channel attention: channels {c} != weights {p.wq_ca.shape[0]}"
        )
    zq = ad.matmul(z, p.wq_ca) if zq is None else zq
    zk = ad.matmul(z, p.wk_ca) if zk is None else zk
    q = ad.layer_norm(zq, axis=-1, gain=p.norm_q_ca_g, shift=p.norm_q_ca_b)
    k = ad.layer_norm(zk, axis=-1, gain=p.norm_k_ca_g, shift=p.norm_k_ca_b)
    v = ad.matmul(z, p.wv_ca)
    scale = 1.0 / math.sqrt(c) if scaling else 1.0
    qt, kt, vt = (ad.permute(t, (1, 0)) for t in (q, k, v))  # (C, M)
    out = ad.permute(ad.attention(kt, qt, vt, scale), (1, 0))
    return _rewrap(out, fm)


def dual_prompt(x, p: PrompterParams, scaling=True):
    """Residual fusion of the two down-projected attention branches."""
    z, fm = _tokens_of(x)
    _, c = z.shape
    if c % 2 != 0:
        raise ShapeMismatchError(f"dual prompt requires an even channel count, got {c}")
    zq, zk = ad.matmul(z, p.wq_sa), ad.matmul(z, p.wk_sa)
    sa = spatial_attention(z, p, scaling, zq, zk)
    # shared W_q / W_k: the channel branch reads the same products
    ca = channel_attention(z, p, scaling,
                           zq if p.wq_ca is p.wq_sa else None,
                           zk if p.wk_ca is p.wk_sa else None)
    fused = ad.concat([ad.matmul(sa, p.down_sa), ad.matmul(ca, p.down_ca)], axis=1)
    out = ad.add(z, fused)
    return _rewrap(out, fm)


def attach_prompter(taps: dict, p: PrompterParams, layer, scaling=True):
    """Replace exactly tap ``layer`` with its prompted version."""
    if layer not in taps:
        raise ShapeMismatchError(f"prompt layer {layer} not among taps {sorted(taps)}")
    out = dict(taps)
    out[layer] = dual_prompt(taps[layer], p, scaling)
    return out
