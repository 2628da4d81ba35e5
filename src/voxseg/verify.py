"""Full gradient-verification suite: every differentiable op and every
composite block checked against central finite differences on many
random small instances, in 64-bit mode.

The CLI 'gradcheck' subcommand and the acceptance tests both run this.
"""

from __future__ import annotations

import dataclasses
import zlib
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import decoder as dec
from . import encoder as enc
from . import patch_embed as pe
from . import prompter as pr
from .autodiff.tensor import ATTENTION_BLOCK_ELEMS
from .objectives import combined_loss

DEFAULT_TOL = 1e-4  # gradient-check tolerance in 64-bit mode


@dataclass
class CaseResult:
    name: str
    instances: int
    max_err: float
    flagged: int
    passed: bool


def _t(rng, *shape, lo=None, hi=None):
    if lo is None:
        return ad.tensor(rng.standard_normal(shape), dtype=np.float64)
    return ad.tensor(rng.uniform(lo, hi, shape), dtype=np.float64)


# -- core op cases ------------------------------------------------------------


def _case_matmul(rng):
    m, k, n = rng.integers(2, 5, 3)
    b = _t(rng, k, n)
    return (lambda x: ad.matmul(x, b)), rng.standard_normal((m, k))


def _case_matmul_batched(rng):
    h, m, k, n = 2, *rng.integers(2, 4, 3)
    b = _t(rng, h, k, n)
    return (lambda x: ad.matmul(x, b)), rng.standard_normal((h, m, k))


def _case_matmul_bias_wrt_bias(rng):
    """Rank 2 or batched rank 3: the bias gradient sums over every row."""
    heads = (2,) if rng.random() < 0.5 else ()
    m, k, n = (int(v) for v in rng.integers(2, 5, 3))
    a, b = _t(rng, *heads, m, k), _t(rng, *heads, k, n)
    return (lambda bias: ad.matmul(a, b, bias=bias)), rng.standard_normal(n)


def _case_gelu_after_matmul_bias(rng):
    """gelu reads the product back through matmul's rebuild hook. u (l, k)
    feeds x (m, k) and w (k, n) through two fixed maps: one check covers
    both operands."""
    m, k, n, l = (int(v) for v in rng.integers(2, 5, 4))
    ax, aw, bias = _t(rng, m, l), _t(rng, n, l), _t(rng, n)
    return (
        lambda u: ad.gelu(ad.matmul(ad.matmul(ax, u), ad.permute(ad.matmul(aw, u), (1, 0)),
                                    bias=bias)),
        rng.standard_normal((l, k)),
    )


def _case_conv3d(rng):
    kd = tuple(rng.integers(1, 4, 3))
    cin, cout = rng.integers(1, 3), rng.integers(1, 4)
    stride = tuple(rng.integers(1, 3, 3))
    padding = tuple(rng.integers(0, 2, 3))
    dims = tuple(int(k + s * rng.integers(1, 3)) for k, s in zip(kd, stride))
    w = _t(rng, *kd, cin, cout)
    return (
        lambda x: ad.conv3d(x, w, stride=stride, padding=padding),
        rng.standard_normal(dims + (int(cin),)),
    )


def _case_conv3d_stride1(rng):
    """Stride 1 everywhere. Small instances read the patch matrix in the
    forward and the input gradient. About one in four has a 3x3x3 kernel
    and padding 8: its forward over at least 17^3 outputs is past the
    patch-matrix cap, so it runs as shifted-row taps, accumulated inside
    gemm where Cout = 16 (about half of them) and through numpy adds where
    Cout <= 4."""
    kd = tuple(rng.integers(1, 4, 3))
    cin, cout = (int(c) for c in rng.integers(1, 5, 2))
    padding = tuple(rng.integers(0, 3, 3))
    if rng.random() < 0.25:
        kd, padding = (3, 3, 3), (8, 8, 8)
        if rng.random() < 0.5:
            cout = 16
    dims = tuple(int(k + rng.integers(0, 3)) for k in kd)
    w = _t(rng, *kd, cin, cout)
    return (
        lambda x: ad.conv3d(x, w, stride=1, padding=padding),
        rng.standard_normal(dims + (cin,)),
    )


def _case_conv3d_wrt_kernel(rng):
    """Padding 1 reads the patch matrix in the kernel gradient; padding 8,
    on about half the instances, is past the patch-matrix cap, so the
    kernel gradient runs as one GEMM per tap over shifted rows."""
    x = _t(rng, 4, 4, 4, 2)
    padding = 8 if rng.random() < 0.5 else 1
    return (
        lambda w: ad.conv3d(x, w, stride=1, padding=padding),
        rng.standard_normal((3, 3, 3, 2, 2)),
    )


def _case_conv3d_wrt_bias(rng):
    """Stride 1 on most instances, stride 2 on some axis on about one in
    three, so both the shifted-row and the im2col forms carry a bias."""
    kd = tuple(int(k) for k in rng.integers(1, 4, 3))
    stride = (1, 1, 1) if rng.random() < 0.65 else (2, 1, int(rng.integers(1, 3)))
    cin, cout = (int(c) for c in rng.integers(1, 4, 2))
    dims = tuple(k + s * int(rng.integers(1, 3)) for k, s in zip(kd, stride))
    x, w = _t(rng, *dims, cin), _t(rng, *kd, cin, cout)
    return (
        lambda b: ad.conv3d(x, w, stride=stride, padding=1, bias=b),
        rng.standard_normal(cout),
    )


def _case_conv3d_multi_input(rng):
    """A list of two or three inputs, one of them a constant that needs no
    gradient; the others are x through fixed channel maps, so one check
    covers every input's slice of the input gradient. Padding 0 or 1;
    about one instance in three is strided."""
    n_in = int(rng.integers(2, 4))
    kd = tuple(int(k) for k in rng.integers(1, 4, 3))
    stride = (1, 1, 1) if rng.random() < 0.65 else (2, 1, int(rng.integers(1, 3)))
    padding = int(rng.integers(0, 2))
    dims = tuple(k + s * int(rng.integers(1, 3)) for k, s in zip(kd, stride))
    widths = [int(c) for c in rng.integers(1, 3, n_in)]
    const = int(rng.integers(0, n_in))
    c, cout = 2, int(rng.integers(1, 4))
    maps = [_t(rng, c, ci) for ci in widths]
    fixed = _t(rng, *dims, widths[const])
    w = _t(rng, *kd, sum(widths), cout)

    def f(x):
        flat = ad.reshape(x, (-1, c))
        xs = [fixed if i == const else ad.reshape(ad.matmul(flat, m), dims + (m.shape[1],))
              for i, m in enumerate(maps)]
        return ad.conv3d(xs, w, stride=stride, padding=padding)

    return f, rng.standard_normal(dims + (c,))


def _upsample_conv3d_through_maps(rng, in_dims, factors, plain=False, bias=False):
    """u (l, c) feeds an input z (in_dims, c), upsampled by ``factors``, the
    kernel (3, 3, 3, Cin, c) and, with ``bias``, the bias (c,) through
    fixed maps, so one check covers each of them. With ``plain`` the list
    [z, y] is convolved, y (c channels at the upsampled dims, factor 1) fed
    through a map of its own."""
    l, c = (int(v) for v in rng.integers(1, 3, 2))
    out_dims = tuple(n * f for n, f in zip(in_dims, factors))
    cin = 2 * c if plain else c
    az, aw = _t(rng, int(np.prod(in_dims)), l), _t(rng, 27 * cin, l)
    ay, ab = _t(rng, int(np.prod(out_dims)), l), _t(rng, 1, l)

    def f(u):
        z = ad.reshape(ad.matmul(az, u), in_dims + (c,))
        w = ad.reshape(ad.matmul(aw, u), (3, 3, 3, cin, c))
        b = ad.reshape(ad.matmul(ab, u), (c,)) if bias else None
        if plain:
            y = ad.reshape(ad.matmul(ay, u), out_dims + (c,))
            return ad.upsample_conv3d([z, y], w, [factors, 1], bias=b)
        return ad.upsample_conv3d(z, w, factors, bias=b)

    return f, rng.standard_normal((l, c))


def _case_upsample_conv3d(rng):
    """One input upsampled by 2 or 3 on every axis, with a bias."""
    dims = tuple(int(v) for v in rng.integers(1, 4, 3))
    return _upsample_conv3d_through_maps(rng, dims, (int(rng.integers(2, 4)),) * 3, bias=True)


def _case_upsample_conv3d_list(rng):
    """The fuse conv's form: [upsampled by 2, plain], no bias."""
    dims = tuple(int(v) for v in rng.integers(1, 3, 3))
    return _upsample_conv3d_through_maps(rng, dims, (2, 2, 2), plain=True)


def _case_upsample_conv3d_axis_factors(rng):
    """Per-axis factors, one of them 1 (that axis only shifted), in a
    random order."""
    dims = tuple(int(v) for v in rng.integers(1, 4, 3))
    factors = tuple(int(f) for f in rng.permutation([1, 2, int(rng.integers(2, 4))]))
    return _upsample_conv3d_through_maps(rng, dims, factors, bias=rng.random() < 0.5)


def _case_relu(rng):
    return ad.relu, rng.standard_normal(tuple(rng.integers(2, 5, 2)))


def _case_gelu(rng):
    return ad.gelu, rng.standard_normal(tuple(rng.integers(2, 5, 2)))


def _case_sigmoid(rng):
    return ad.sigmoid, rng.standard_normal(tuple(rng.integers(2, 5, 2)))


def _attention_through_maps(rng, heads, l, d, m, n):
    """x (l, heads * d) feeds the token-major q, k and v through three fixed
    maps to m queries and n keys: one check covers all three inputs. Half
    the instances (d >= 2) hide the last coordinate of every head from the
    queries (q's is 0) and give the first key 1e4 there: the bound
    |scale q_i| max_j |k_j| then passes the f64 limit of 177 with no logit
    changed, so the exact row max runs; in the others the bounds stay
    small and the shift rides in the score GEMM."""
    w = heads * d
    aq, ak, av = _t(rng, m, l), _t(rng, n, l), _t(rng, n, l)
    s = float(rng.uniform(0.3, 1.5))
    seen, far = np.ones(w), np.zeros((n, w))
    if d >= 2 and rng.random() < 0.5:
        seen[d - 1 :: d] = 0.0
        far[0, d - 1 :: d] = 1e4
    seen, far = ad.tensor(seen, dtype=np.float64), ad.tensor(far, dtype=np.float64)

    def f(x):
        q = ad.mul(ad.matmul(aq, x), seen)
        k = ad.add(ad.matmul(ak, x), far)
        return ad.attention(q, k, ad.matmul(av, x), s, heads=heads)

    return f, rng.standard_normal((l, w))


def _case_attention(rng):
    """1 to 3 heads of 1 to 4 dims."""
    heads, l, d = int(rng.integers(1, 4)), int(rng.integers(2, 4)), int(rng.integers(1, 5))
    m = int(rng.integers(2, 5))
    n = m + int(rng.integers(1, 3))  # query count != key count
    return _attention_through_maps(rng, heads, l, d, m, n)


def _case_attention_blocked(rng):
    """M and N large enough for several query blocks, the last ragged; x
    stays (l, heads * d)-sized, so the check stays cheap."""
    heads, l, d = int(rng.integers(1, 3)), int(rng.integers(2, 4)), int(rng.integers(1, 5))
    n = int(rng.integers(300, 600))
    rows = ATTENTION_BLOCK_ELEMS // (heads * n)
    m = rows * int(rng.integers(1, 3)) + int(rng.integers(1, rows))
    return _attention_through_maps(rng, heads, l, d, m, n)


def _case_layer_norm(rng):
    shape = tuple(rng.integers(2, 5, 2))
    return (lambda x: ad.layer_norm(x, axis=-1)), rng.standard_normal(shape)


def _case_instance_norm(rng):
    shape = tuple(rng.integers(2, 4, 4))
    return ad.instance_norm, rng.standard_normal(shape)


def _norm_affine_through_maps(rng, norm, shape):
    """u (l, c) feeds the normalized input, the gain and the shift through
    three fixed maps: one check covers all three inputs. Keywords of the
    returned function go to ``norm``."""
    c = shape[-1]
    l = int(rng.integers(2, 4))
    ax, ag, ab = _t(rng, int(np.prod(shape[:-1])), l), _t(rng, 1, l), _t(rng, 1, l)
    return (
        lambda u, **kw: norm(ad.reshape(ad.matmul(ax, u), shape),
                             gain=ad.reshape(ad.matmul(ag, u), (c,)),
                             shift=ad.reshape(ad.matmul(ab, u), (c,)), **kw),
        rng.standard_normal((l, c)),
    )


def _case_layer_norm_affine(rng):
    shape = tuple(int(n) for n in rng.integers(2, 5, 2))
    return _norm_affine_through_maps(rng, ad.layer_norm, shape)  # axis -1


def _case_instance_norm_affine(rng):
    shape = tuple(int(n) for n in rng.integers(2, 4, 4))
    return _norm_affine_through_maps(rng, ad.instance_norm, shape)


def _case_instance_norm_relu(rng):
    """The fused relu after gain and shift, drawn again until every
    pre-relu value is at least 0.01 from the kink."""
    shape = tuple(int(n) for n in rng.integers(2, 4, 4))
    while True:
        f, u = _norm_affine_through_maps(rng, ad.instance_norm, shape)
        if np.abs(f(ad.tensor(u, dtype=np.float64)).data).min() >= 0.01:
            return (lambda x: f(x, relu=True)), u


def _case_concat(rng):
    other = _t(rng, 3, 2)
    return (lambda x: ad.concat([x, other], axis=1)), rng.standard_normal((3, 4))


def _case_add_broadcast(rng):
    b = _t(rng, 4)
    return (lambda x: ad.add(x, b)), rng.standard_normal((3, 4))


def _case_mul(rng):
    b = _t(rng, 3, 4)
    return (lambda x: ad.mul(x, b)), rng.standard_normal((3, 4))


def _case_div(rng):
    b = ad.tensor(rng.uniform(0.5, 2.0, (3, 4)) * rng.choice([-1.0, 1.0], (3, 4)),
                  dtype=np.float64)
    return (lambda x: ad.div(x, b)), rng.standard_normal((3, 4))


def _case_sub(rng):
    b = _t(rng, 3, 4)
    return (lambda x: ad.sub(x, b)), rng.standard_normal((3, 4))


def _case_scale(rng):
    s = float(rng.uniform(-2, 2))
    return (lambda x: ad.scale(x, s)), rng.standard_normal((4, 3))


def _case_log(rng):
    return ad.log, rng.uniform(0.2, 3.0, (4, 3))


def _case_clamp(rng):
    return (lambda x: ad.clamp(x, -2.5, 2.5)), rng.standard_normal((4, 4))


def _case_permute(rng):
    axes = tuple(rng.permutation(3))
    return (lambda x: ad.permute(x, axes)), rng.standard_normal((2, 3, 4))


def _case_reshape(rng):
    return (lambda x: ad.reshape(x, (6, 2))), rng.standard_normal((3, 4))


def _case_reduce_sum(rng):
    nd = int(rng.integers(1, 4))
    shape = tuple(rng.integers(2, 5, nd))
    axis = None if rng.random() < 0.3 else int(rng.integers(0, nd))
    return (lambda x: ad.reduce_sum(x, axis=axis)), rng.standard_normal(shape)


def _case_reduce_mean(rng):
    nd = int(rng.integers(1, 4))
    shape = tuple(rng.integers(2, 5, nd))
    axis = None if rng.random() < 0.3 else int(rng.integers(0, nd))
    return (lambda x: ad.reduce_mean(x, axis=axis)), rng.standard_normal(shape)


# -- composite blocks ---------------------------------------------------------


def _mini_layer_params(rng, c=8, l=2, ratio=2):
    def t(*shape, scale=1.0):
        return ad.tensor(rng.standard_normal(shape) * scale, dtype=np.float64)

    return enc.LayerParams(
        norm1_g=ad.tensor(np.ones(c), dtype=np.float64),
        norm1_b=t(c, scale=0.1),
        wq=t(c, c, scale=c ** -0.5), bq=t(c, scale=0.1),
        wk=t(c, c, scale=c ** -0.5), bk=t(c, scale=0.1),
        wv=t(c, c, scale=c ** -0.5), bv=t(c, scale=0.1),
        wo=t(c, c, scale=c ** -0.5), bo=t(c, scale=0.1),
        norm2_g=ad.tensor(np.ones(c), dtype=np.float64),
        norm2_b=t(c, scale=0.1),
        mlp_w1=t(c, ratio * c, scale=c ** -0.5), mlp_b1=t(ratio * c, scale=0.1),
        mlp_w2=t(ratio * c, c, scale=(ratio * c) ** -0.5), mlp_b2=t(c, scale=0.1),
        adapter_down=t(c, l, scale=0.2), adapter_up=t(l, c, scale=0.2),
    )


def _fm(x):
    return pe.FeatureMap.wrap(x)


_PATCH = (2, 2, 2)


def _case_pseudo3d_patch_embed(rng):
    w2d, b2d, wdepth = _t(rng, 2, 2, 1, 2, 3), _t(rng, 3), _t(rng, 2, 3)
    return (
        lambda x: pe.pseudo3d_patch_embed(x, w2d, b2d, wdepth, _PATCH).data,
        rng.standard_normal((4, 4, 2, 2)),
    )


def _case_pseudo3d_patch_embed_wrt_kernel(rng):
    x, b2d, wdepth = _t(rng, 4, 4, 2, 2), _t(rng, 3), _t(rng, 2, 3)
    return (
        lambda w: pe.pseudo3d_patch_embed(x, w, b2d, wdepth, _PATCH).data,
        rng.standard_normal((2, 2, 1, 2, 3)),
    )


def _case_pseudo3d_patch_embed_wrt_depth(rng):
    x, w2d, b2d = _t(rng, 4, 4, 2, 2), _t(rng, 2, 2, 1, 2, 3), _t(rng, 3)
    return (
        lambda w: pe.pseudo3d_patch_embed(x, w2d, b2d, w, _PATCH).data,
        rng.standard_normal((2, 3)),
    )


def _case_true3d_patch_embed(rng):
    w3d, b3d = _t(rng, 2, 2, 2, 2, 3), _t(rng, 3)
    return (
        lambda x: pe.true3d_patch_embed(x, w3d, b3d, _PATCH).data,
        rng.standard_normal((4, 4, 2, 2)),
    )


def _case_true3d_patch_embed_wrt_kernel(rng):
    x, b3d = _t(rng, 4, 4, 2, 2), _t(rng, 3)
    return (
        lambda w: pe.true3d_patch_embed(x, w, b3d, _PATCH).data,
        rng.standard_normal((2, 2, 2, 2, 3)),
    )


def _case_add_positional(rng):
    pos = _t(rng, 2, 2, 1, 3)
    return (
        lambda x: pe.add_positional(_fm(x), pos).data,
        rng.standard_normal((2, 2, 1, 3)),
    )


def _case_add_positional_wrt_table(rng):
    fm = _fm(_t(rng, 2, 2, 1, 3))
    return (
        lambda pos: pe.add_positional(fm, pos).data,
        rng.standard_normal((2, 2, 1, 3)),
    )


def _case_adapter(rng):
    p = _mini_layer_params(rng, c=6, l=2)
    return (lambda x: enc.adapter_forward(x, p)), rng.standard_normal((5, 6))


def _case_adapter_wrt_down(rng):
    p = _mini_layer_params(rng, c=6, l=2)
    x = _t(rng, 5, 6)
    return (
        lambda w: enc.adapter_forward(x, dataclasses.replace(p, adapter_down=w)),
        rng.standard_normal((6, 2)),
    )


def _case_layer(rng):
    p = _mini_layer_params(rng)
    return (
        lambda x: enc.layer_forward(_fm(x), p, s=0.7, heads=2).data,
        rng.standard_normal((2, 2, 2, 8)),
    )


def _case_layer_wrt_adapter(rng):
    p = _mini_layer_params(rng)
    x = _t(rng, 2, 2, 2, 8)
    return (
        lambda w: enc.layer_forward(
            _fm(x), dataclasses.replace(p, adapter_up=w), s=1.3, heads=2
        ).data,
        rng.standard_normal((2, 8)),
    )


def _case_two_layer_encoder(rng):
    p1, p2 = _mini_layer_params(rng), _mini_layer_params(rng)

    def f(x):
        z = enc.layer_forward(_fm(x), p1, s=1.0, heads=2)
        return enc.layer_forward(z, p2, s=1.0, heads=2).data

    return f, rng.standard_normal((2, 2, 2, 8))


def _mini_prompter_params(rng, c=4, n=3, m=8):
    def t(*shape, scale=0.5):
        return ad.tensor(rng.standard_normal(shape) * scale, dtype=np.float64)

    return pr.PrompterParams(
        wq=t(c, c), wk=t(c, c),
        wv_sa=t(c, c), wv_ca=t(c, c),
        reduce_k=t(n, m), reduce_v=t(n, m),
        down_sa=t(c, c // 2), down_ca=t(c, c // 2),
        norm_q_sa_g=ad.tensor(np.ones(c), dtype=np.float64), norm_q_sa_b=t(c, scale=0.1),
        norm_q_ca_g=ad.tensor(np.ones(c), dtype=np.float64), norm_q_ca_b=t(c, scale=0.1),
        norm_k_ca_g=ad.tensor(np.ones(c), dtype=np.float64), norm_k_ca_b=t(c, scale=0.1),
    )


def _case_spatial_attention(rng):
    p = _mini_prompter_params(rng)
    return (lambda x: pr.spatial_attention(x, p)), rng.standard_normal((8, 4))


def _case_spatial_wrt_reducer(rng):
    p = _mini_prompter_params(rng)
    x = _t(rng, 8, 4)
    return (
        lambda w: pr.spatial_attention(x, dataclasses.replace(p, reduce_k=w)),
        rng.standard_normal((3, 8)),
    )


def _case_channel_attention(rng):
    p = _mini_prompter_params(rng)
    return (lambda x: pr.channel_attention(x, p)), rng.standard_normal((8, 4))


def _case_dual_prompt(rng):
    p = _mini_prompter_params(rng)
    return (lambda x: pr.dual_prompt(x, p)), rng.standard_normal((8, 4))


def _case_dual_prompt_wrt_down(rng):
    p = _mini_prompter_params(rng)
    x = _t(rng, 8, 4)
    return (
        lambda w: pr.dual_prompt(x, dataclasses.replace(p, down_ca=w)),
        rng.standard_normal((4, 2)),
    )


def _mini_conv_block(rng, cin, cout, stride1=1):
    def t(*shape, scale=None):
        fan = np.prod(shape[:-1]) if len(shape) > 1 else shape[0]
        s = scale if scale is not None else np.sqrt(2.0 / fan)
        return ad.tensor(rng.standard_normal(shape) * s, dtype=np.float64)

    return dec.ConvBlockParams(
        conv1_w=t(3, 3, 3, cin, cout),
        in1_g=ad.tensor(np.ones(cout), dtype=np.float64), in1_b=t(cout, scale=0.1),
        conv2_w=t(3, 3, 3, cout, cout),
        in2_g=ad.tensor(np.ones(cout), dtype=np.float64), in2_b=t(cout, scale=0.1),
        stride1=stride1,
    )


def _mini_enhancer(rng, c=6, cdec=3):
    return dec.EnhancerParams(
        image_stages=[_mini_conv_block(rng, 1, cdec, stride1=2)],
        fuse=_mini_conv_block(rng, c + cdec, cdec),
        target_dims=(4, 4, 4),
    )


def _case_enhancer(rng):
    p = _mini_enhancer(rng)
    image = _t(rng, 8, 8, 8, 1)
    return (
        lambda x: dec.original_feature_enhancer(_fm(x), image, p).data,
        rng.standard_normal((2, 2, 2, 6)),
    )


def _case_enhancer_wrt_image(rng):
    p = _mini_enhancer(rng)
    tap = _t(rng, 2, 2, 2, 6)
    return (
        lambda img: dec.original_feature_enhancer(_fm(tap), img, p).data,
        rng.standard_normal((8, 8, 8, 1)),
    )


def _mini_predict(rng, cdec=2, n_taps=4):
    def t(*shape, scale=None):
        fan = np.prod(shape[:-1]) if len(shape) > 1 else shape[0]
        s = scale if scale is not None else np.sqrt(2.0 / fan)
        return ad.tensor(rng.standard_normal(shape) * s, dtype=np.float64)

    return dec.PredictParams(
        head=_mini_conv_block(rng, n_taps * cdec, cdec),
        upsample_factor=(2, 2, 2),
        smooth_w=t(3, 3, 3, cdec, cdec), smooth_b=t(cdec, scale=0.1),
        proj_w=t(1, 1, 1, cdec, 1), proj_b=t(1, scale=0.1),
    )


def _case_predict(rng):
    p = _mini_predict(rng)
    others = [_t(rng, 4, 4, 4, 2) for _ in range(3)]

    def f(x):
        maps = [_fm(x)] + [_fm(o) for o in others]
        return dec.predict(maps, p)

    return f, rng.standard_normal((4, 4, 4, 2))


def _case_combined_loss(rng):
    gt = (rng.random((3, 3, 3)) < 0.4).astype(np.float64)
    return (lambda x: combined_loss(x, gt)), rng.uniform(0.05, 0.95, (3, 3, 3))


OP_CASES = [
    ("matmul", _case_matmul),
    ("matmul_batched", _case_matmul_batched),
    ("matmul_bias_wrt_bias", _case_matmul_bias_wrt_bias),
    ("gelu_after_matmul_bias", _case_gelu_after_matmul_bias),
    ("conv3d", _case_conv3d),
    ("conv3d_stride1", _case_conv3d_stride1),
    ("conv3d_wrt_kernel", _case_conv3d_wrt_kernel),
    ("conv3d_wrt_bias", _case_conv3d_wrt_bias),
    ("conv3d_multi_input", _case_conv3d_multi_input),
    ("upsample_conv3d", _case_upsample_conv3d),
    ("upsample_conv3d_list", _case_upsample_conv3d_list),
    ("upsample_conv3d_axis_factors", _case_upsample_conv3d_axis_factors),
    ("relu", _case_relu),
    ("gelu", _case_gelu),
    ("sigmoid", _case_sigmoid),
    ("attention", _case_attention),
    ("attention_blocked", _case_attention_blocked),
    ("layer_norm", _case_layer_norm),
    ("instance_norm", _case_instance_norm),
    ("layer_norm_affine", _case_layer_norm_affine),
    ("instance_norm_affine", _case_instance_norm_affine),
    ("instance_norm_relu", _case_instance_norm_relu),
    ("concat", _case_concat),
    ("add_broadcast", _case_add_broadcast),
    ("mul", _case_mul),
    ("div", _case_div),
    ("sub", _case_sub),
    ("scale", _case_scale),
    ("log", _case_log),
    ("clamp", _case_clamp),
    ("permute", _case_permute),
    ("reshape", _case_reshape),
    ("reduce_sum", _case_reduce_sum),
    ("reduce_mean", _case_reduce_mean),
]

BLOCK_CASES = [
    ("pseudo3d_patch_embed", _case_pseudo3d_patch_embed),
    ("pseudo3d_patch_embed_wrt_kernel", _case_pseudo3d_patch_embed_wrt_kernel),
    ("pseudo3d_patch_embed_wrt_depth", _case_pseudo3d_patch_embed_wrt_depth),
    ("true3d_patch_embed", _case_true3d_patch_embed),
    ("true3d_patch_embed_wrt_kernel", _case_true3d_patch_embed_wrt_kernel),
    ("add_positional", _case_add_positional),
    ("add_positional_wrt_table", _case_add_positional_wrt_table),
    ("adapter", _case_adapter),
    ("adapter_wrt_down", _case_adapter_wrt_down),
    ("encoder_layer", _case_layer),
    ("encoder_layer_wrt_adapter", _case_layer_wrt_adapter),
    ("encoder_two_layers", _case_two_layer_encoder),
    ("spatial_attention", _case_spatial_attention),
    ("spatial_attention_wrt_reducer", _case_spatial_wrt_reducer),
    ("channel_attention", _case_channel_attention),
    ("dual_prompt", _case_dual_prompt),
    ("dual_prompt_wrt_down", _case_dual_prompt_wrt_down),
    ("enhancer", _case_enhancer),
    ("enhancer_wrt_image", _case_enhancer_wrt_image),
    ("predict", _case_predict),
    ("combined_loss", _case_combined_loss),
]

ALL_CASES = OP_CASES + BLOCK_CASES


def case_rng(name, seed=0):
    """The generator a suite run at ``seed`` draws case ``name``'s instances from."""
    # crc32, not hash(): str hashes change with PYTHONHASHSEED per process
    return np.random.default_rng(np.random.SeedSequence([0x9C, seed, zlib.crc32(name.encode())]))


def run_gradcheck_suite(instances=20, tol=DEFAULT_TOL, seed=0, log_fn=None,
                        cases=None):
    """Run every case; returns a list of CaseResult (all must pass)."""
    results = []
    with ad.precision("f64"):
        for name, maker in cases or ALL_CASES:
            rng = case_rng(name, seed)
            max_err, flagged, ok = 0.0, 0, True
            for i in range(instances):
                f, x0 = maker(rng)
                rep = ad.gradient_check(f, np.asarray(x0, dtype=np.float64),
                                        tol=tol, seed=seed + i)
                max_err = max(max_err, rep.max_rel_error)
                flagged += len(rep.flagged)
                ok = ok and rep.passed
            results.append(CaseResult(name, instances, max_err, flagged, ok))
            if log_fn:
                status = "ok" if ok else "FAIL"
                log_fn(f"{status:4s} {name:32s} max_rel_err={max_err:.3e} "
                       f"kinks_flagged={flagged}")
    return results
