"""Forward semantics and error contracts of the core op set."""

import tracemalloc

import numpy as np
import pytest

from conv_oracles import (
    conv3d_input_grad_taps,
    conv3d_kernel_grad_taps,
    conv3d_reference,
    interp_weights_loop,
    trilinear_upsample,
)
from graph_bytes import closure_arrays, owner
from voxseg import autodiff as ad
from voxseg.autodiff import conv
from voxseg.autodiff.tensor import ATTENTION_BLOCK_ELEMS


@pytest.fixture(autouse=True)
def _f64():
    with ad.precision("f64"):
        yield


def test_matmul_identity(rng):
    a = ad.tensor(rng.standard_normal((5, 4)))
    out = ad.matmul(a, ad.tensor(np.eye(4)))
    np.testing.assert_array_equal(out.numpy(), a.numpy())


def test_matmul_shape_mismatch():
    with pytest.raises(ad.ShapeMismatchError):
        ad.matmul(ad.tensor(np.zeros((2, 3))), ad.tensor(np.zeros((4, 2))))


def _tokens(x):
    """(heads, tokens, w) as the op's token-major (tokens, heads * w)."""
    return x.transpose(1, 0, 2).reshape(x.shape[1], -1)


def _attention(q, k, v, scale, dtype=np.float64, requires_grad=False):
    """ad.attention over head-major (heads, tokens, w) arrays: the inputs
    as token-major leaves, and the output."""
    ts = [ad.tensor(_tokens(a), requires_grad=requires_grad, dtype=dtype) for a in (q, k, v)]
    return ts, ad.attention(*ts, scale, heads=q.shape[0])


def _attention_oracle(q, k, v, scale):
    """softmax(scale * q k^T) v in f64 with the row max subtracted, per
    head of (heads, tokens, w) arrays, token-major."""
    q, k, v = (np.asarray(a, dtype=np.float64) for a in (q, k, v))
    logits = scale * (q @ k.transpose(0, 2, 1))
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return _tokens((e / e.sum(axis=-1, keepdims=True)) @ v)


def test_attention_f32_desk_shape_matches_oracle(rng):
    """Desk encoder shape: 4 heads, 512 tokens, head dim 16."""
    q, k, v = (rng.standard_normal((4, 512, 16)).astype(np.float32) for _ in range(3))
    _, out = _attention(q, k, v, 1.0 / np.sqrt(16), np.float32)
    got = out.numpy()
    ref = _attention_oracle(q, k, v, 1.0 / np.sqrt(16))
    assert got.dtype == np.float32 and got.shape == (512, 64)
    np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-5 * np.abs(ref).max())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_large_logits_stay_finite(rng, dtype):
    q, k = rng.standard_normal((2, 6, 4)), rng.standard_normal((2, 9, 4))
    grow = np.sqrt(1e4 / np.abs(q @ k.transpose(0, 2, 1)).max())  # max |logit| = 1e4
    q, k = (q * grow).astype(dtype), (k * grow).astype(dtype)
    v = rng.standard_normal((2, 9, 3)).astype(dtype)
    got = _attention(q, k, v, 1.0, dtype)[1].numpy()
    assert np.isfinite(got).all()
    np.testing.assert_allclose(got, _attention_oracle(q, k, v, 1.0), rtol=0, atol=1e-5)


def _attention_grads_oracle(q, k, v, scale, g):
    """Unblocked f64 (dQ, dK, dV) of sum(g * attention(q, k, v)), per head
    of (heads, tokens, w) arrays, token-major."""
    q, k, v, g = (np.asarray(a, dtype=np.float64) for a in (q, k, v, g))
    logits = scale * (q @ k.swapaxes(-1, -2))
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    dp = g @ v.swapaxes(-1, -2)
    ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * scale
    return _tokens(ds @ k), _tokens(ds.swapaxes(-1, -2) @ q), _tokens(p.swapaxes(-1, -2) @ g)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_blocked_matches_oracle(rng, dtype):
    """700 queries in 2 heads against 700 keys run in several query
    blocks, the last one ragged; forward and gradients match the unblocked
    oracle."""
    heads, m, d = 2, 700, 4
    rows = ATTENTION_BLOCK_ELEMS // (heads * m)
    assert m // rows >= 2 and m % rows  # several blocks, the last ragged
    q, k, v, g = (rng.standard_normal((heads, m, d)).astype(dtype) for _ in range(4))
    ts, out = _attention(q, k, v, 0.5, dtype, requires_grad=True)
    ad.backward(ad.reduce_sum(ad.mul(out, ad.tensor(_tokens(g), dtype=dtype))))
    refs = [_attention_oracle(q, k, v, 0.5)] + list(_attention_grads_oracle(q, k, v, 0.5, g))
    for got, ref in zip([out.numpy()] + [t.grad for t in ts], refs):
        assert got.dtype == dtype
        np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-5 * np.abs(ref).max())


def test_attention_closure_keeps_no_probabilities(rng):
    """At 2048 tokens in 4 heads of 16, f32, the backward closure holds
    under 2 MB of arrays besides the inputs' data (the output and the row
    log-sum-exp); the probabilities alone are 64 MB."""
    ts = [ad.tensor(rng.standard_normal((2048, 64)), requires_grad=True,
                    dtype=np.float32) for _ in range(3)]
    out = ad.attention(*ts, 0.25, heads=4)
    held = {}
    for arr in closure_arrays(out._record._backward):
        if not any(arr is t.data for t in ts):
            held[id(owner(arr))] = owner(arr).nbytes
    assert 0 < sum(held.values()) < 2 * 2**20


def test_attention_shape_mismatch():
    """heads divides the widths of q and v, q and k widths agree, k and v
    token counts agree, and every operand is (tokens, width)."""
    def call(q, k, v, heads=1):
        ad.attention(*(ad.tensor(np.zeros(s)) for s in (q, k, v)), 1.0, heads=heads)

    call((3, 6), (5, 6), (5, 4), heads=2)  # fits
    for bad in [((3, 6), (5, 6), (5, 4), 4),  # 4 heads do not divide 6
                ((3, 6), (5, 6), (5, 3), 2),  # nor 2 the v width 3
                ((3, 6), (5, 6), (5, 4), 0),
                ((3, 6), (5, 4), (5, 4), 1),  # q and k widths differ
                ((3, 6), (5, 6), (4, 4), 1),  # k and v token counts differ
                ((2, 3, 4), (2, 5, 4), (2, 5, 4), 2)]:  # operands are rank 2
        with pytest.raises(ad.ShapeMismatchError):
            call(*bad)


def test_conv3d_constant_field_sum_one_kernel(rng):
    """Sum-1 kernel on a constant field keeps the interior constant, and
    the optimized path agrees with the direct-loop oracle."""
    x = np.full((5, 5, 5, 1), 3.25)
    w = rng.random((3, 3, 3, 1, 1))
    w /= w.sum()
    fast = ad.conv3d(ad.tensor(x), ad.tensor(w), stride=1, padding=1).numpy()
    ref = conv3d_reference(x, w, stride=1, padding=1)
    np.testing.assert_allclose(fast, ref, rtol=1e-12)
    np.testing.assert_allclose(fast[1:-1, 1:-1, 1:-1], 3.25, rtol=1e-12)


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), ((1, 2, 1), (0, 1, 0))])
def test_conv3d_matches_direct_reference(rng, stride, padding):
    x = rng.standard_normal((6, 5, 7, 3))
    w = rng.standard_normal((3, 2, 3, 3, 4))
    fast = ad.conv3d(ad.tensor(x), ad.tensor(w), stride=stride, padding=padding).numpy()
    ref = conv3d_reference(x, w, stride=stride, padding=padding)
    scale = np.abs(ref).max()
    assert np.abs(fast - ref).max() / scale < 1e-5


def _check_conv3d_f32(rng, dims, cin, cout, kdims, padding):
    """f32 forward, kernel and input gradients of a stride-1 conv3d against
    the f64 loop oracles, rtol 1e-5 and atol 1e-5 * max|ref|."""
    padding = (padding,) * 3 if isinstance(padding, int) else padding
    x = rng.standard_normal(dims + (cin,)).astype(np.float32)
    w = (rng.standard_normal(kdims + (cin, cout)) * 0.05).astype(np.float32)
    xt = ad.tensor(x, requires_grad=True, dtype=np.float32)
    wt = ad.tensor(w, requires_grad=True, dtype=np.float32)
    out = ad.conv3d(xt, wt, stride=1, padding=padding)
    g = rng.standard_normal(out.shape).astype(np.float32)
    ad.backward(ad.reduce_sum(ad.mul(out, ad.tensor(g, dtype=np.float32))))
    x64, w64, g64 = (a.astype(np.float64) for a in (x, w, g))
    unit = (1, 1, 1)
    for got, ref in (
        (out.numpy(), conv3d_reference(x64, w64, stride=1, padding=padding)),
        (wt.grad, conv3d_kernel_grad_taps(x64, g64, kdims, unit, padding)),
        (xt.grad, conv3d_input_grad_taps(g64, w64, unit, padding, x.shape)),
    ):
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-5 * np.abs(ref).max())


def test_conv3d_input_grad_matches_tap_loop_f32(rng):
    """Desk fuse shape 16^3, 80->16: the input gradient takes the patch GEMM."""
    _check_conv3d_f32(rng, (16, 16, 16), 80, 16, (3, 3, 3), 1)


@pytest.mark.parametrize("dims,cin,cout,kdims,padding", [
    ((32, 32, 32), 16, 16, (3, 3, 3), 1),  # desk head block: shifted rows only
    ((9, 7, 8), 5, 7, (3, 2, 3), (0, 1, 2)),  # anisotropic kernel and padding
    ((6, 5, 7), 6, 3, (2, 3, 2), (2, 3, 3)),  # padding larger than k-1
    ((32, 32, 32), 16, 1, (1, 1, 1), 0),  # desk projection
])
def test_conv3d_stride1_f32_matches_oracles(rng, dims, cin, cout, kdims, padding):
    _check_conv3d_f32(rng, dims, cin, cout, kdims, padding)


def test_conv3d_stride1_builds_no_patch_matrix(rng):
    """Forward plus backward at 32^3, 16->16 stays below one im2col matrix."""
    x = rng.standard_normal((32, 32, 32, 16)).astype(np.float32)
    w = (rng.standard_normal((3, 3, 3, 16, 16)) * 0.05).astype(np.float32)
    g = rng.standard_normal((32, 32, 32, 16)).astype(np.float32)
    patch_bytes = 32**3 * 27 * 16 * 4  # 56.6 MB
    tracemalloc.start()
    try:
        xt = ad.tensor(x, requires_grad=True, dtype=np.float32)
        wt = ad.tensor(w, requires_grad=True, dtype=np.float32)
        out = ad.conv3d(xt, wt, stride=1, padding=1)
        ad.backward(ad.reduce_sum(ad.mul(out, ad.tensor(g, dtype=np.float32))))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert xt.grad.shape == x.shape and wt.grad.shape == w.shape
    assert peak < patch_bytes


def test_conv3d_channel_mismatch(rng):
    with pytest.raises(ad.ShapeMismatchError):
        ad.conv3d(ad.tensor(np.zeros((4, 4, 4, 2))), ad.tensor(np.zeros((3, 3, 3, 3, 1))))


@pytest.mark.parametrize("shape,padding", [((4, 3, 5, 2), (1, 2, 0)), ((3, 3, 3, 1), 3)])
def test_pad_spatial_equals_np_pad(rng, shape, padding):
    x = rng.standard_normal(shape).astype(np.float32)[::-1]  # a strided view too
    ph, pw, pd = conv._triple(padding, "padding")
    ref = np.pad(x, ((ph, ph), (pw, pw), (pd, pd), (0, 0)))
    got = conv._pad_spatial(x, (ph, pw, pd))
    assert got.dtype == ref.dtype and np.array_equal(got, ref)


def _biased(op, **kw):
    """(fused, chain) of a linear op with a bias."""
    return (lambda x, w, b: op(x, w, bias=b, **kw),
            lambda x, w, b: ad.add(op(x, w, **kw), b))


def _affine(norm):
    """(fused, chain) of a norm with a gain and a shift."""
    return (lambda x, g, s: norm(x, gain=g, shift=s),
            lambda x, g, s: ad.add(ad.mul(norm(x), g), s))


# input shapes, the fused op, and the add / mul chain it replaces
FUSED_CHAINS = {
    "matmul": (((5, 4), (4, 3), (3,)), *_biased(ad.matmul)),
    "matmul_batched": (((2, 5, 4), (2, 4, 3), (3,)), *_biased(ad.matmul)),
    "conv3d": (((5, 4, 6, 2), (3, 3, 3, 2, 3), (3,)), *_biased(ad.conv3d, padding=1)),
    "conv3d_strided": (((5, 4, 6, 2), (3, 3, 3, 2, 3), (3,)),
                       *_biased(ad.conv3d, stride=(2, 1, 2), padding=1)),
    "layer_norm": (((6, 4), (4,), (4,)), *_affine(ad.layer_norm)),
    "instance_norm": (((3, 4, 2, 5), (5,), (5,)), *_affine(ad.instance_norm)),
}


@pytest.mark.parametrize("name", sorted(FUSED_CHAINS))
def test_fused_op_is_one_node_bit_identical_to_its_chain(rng, name):
    """The fused op is one graph node straight on its leaves, and its f32
    output and every input gradient equal those of the separate add / mul
    nodes bit for bit."""
    shapes, fused, chain = FUSED_CHAINS[name]
    arrays = [rng.standard_normal(s).astype(np.float32) for s in shapes]
    g = None
    results = []
    for build in (fused, chain):
        ts = [ad.tensor(a, requires_grad=True, dtype=np.float32) for a in arrays]
        out = build(*ts)
        if g is None:
            assert list(out._parents) == [t._record for t in ts]
            g = ad.tensor(rng.standard_normal(out.shape), dtype=np.float32)
        ad.backward(ad.reduce_sum(ad.mul(out, g)))
        results.append([out.numpy()] + [t.grad for t in ts])
    for got, ref in zip(*results):
        assert got.dtype == np.float32 and np.array_equal(got, ref)


def test_fused_operands_are_checked():
    x, w = ad.tensor(np.ones((2, 3))), ad.tensor(np.ones((3, 4)))
    vol, k = ad.tensor(np.ones((3, 3, 3, 2))), ad.tensor(np.ones((1, 1, 1, 2, 4)))
    for bad in (np.ones(3), np.ones((1, 4)), np.ones(5)):
        with pytest.raises(ad.ShapeMismatchError, match="matmul: bias"):
            ad.matmul(x, w, bias=ad.tensor(bad))
        with pytest.raises(ad.ShapeMismatchError, match="conv3d: bias"):
            ad.conv3d(vol, k, bias=ad.tensor(bad))
    with pytest.raises(ad.DtypeMismatchError):
        ad.matmul(x, w, bias=ad.tensor(np.ones(4), dtype=np.float32))
    with pytest.raises(ad.DtypeMismatchError):
        ad.conv3d(vol, k, bias=ad.tensor(np.ones(4), dtype=np.float32))
    c = ad.tensor(np.ones(3))
    for norm in (ad.layer_norm, ad.instance_norm):
        with pytest.raises(ad.GraphError, match="together"):
            norm(x, gain=c)
        with pytest.raises(ad.GraphError, match="together"):
            norm(x, shift=c)
        with pytest.raises(ad.ShapeMismatchError, match="shift"):
            norm(x, gain=c, shift=ad.tensor(np.ones(2)))
        with pytest.raises(ad.DtypeMismatchError):
            norm(x, gain=c, shift=ad.tensor(np.ones(3), dtype=np.float32))


def test_trilinear_upsample_constant_and_factor1(rng):
    """The interpolation matrices keep a constant and, at factor 1, are the
    identity (the upsample is the tests' oracle; the matrices are
    ``conv._interp_weights``)."""
    x = np.full((3, 4, 2, 2), 1.5)
    up = trilinear_upsample(x, 2)
    assert up.shape == (6, 8, 4, 2)
    np.testing.assert_allclose(up, 1.5, rtol=1e-12)
    np.testing.assert_array_equal(trilinear_upsample(x, 1), x)


@pytest.mark.parametrize("factor", [2, 1])
def test_upsample_conv3d_gradient_handover(rng, factor):
    """The input gradient is the adjoint of the op's map from x (a dense
    Jacobian built from unit inputs), handed over without a copy: x.grad
    never aliases the upstream gradient g, at factor 1 (the plain stride-1
    passes) as at 2, and a second pass doubles x.grad and leaves g
    unchanged."""
    shape = (2, 3, 2, 2)
    w = ad.tensor(rng.standard_normal((3, 3, 3, 2, 3)))
    x = ad.tensor(rng.standard_normal(shape), requires_grad=True)
    out = ad.upsample_conv3d(x, w, factor)
    eye = np.eye(x.size).reshape((x.size,) + shape)
    jac = np.stack([ad.upsample_conv3d(ad.tensor(e), w, factor).numpy().ravel() for e in eye])
    g = rng.standard_normal(out.shape)
    g0 = g.copy()
    out._record._backward(g)
    np.testing.assert_allclose(x.grad, (jac @ g.ravel()).reshape(shape), rtol=1e-12)
    assert not np.shares_memory(x.grad, g)
    first = x.grad.copy()
    out._record._backward(g)
    assert np.array_equal(g, g0) and np.array_equal(x.grad, 2 * first)


def test_interp_weights_equal_the_row_loop():
    for n in range(1, 41):
        for factor in range(1, 5):
            assert np.array_equal(conv._interp_weights(n, factor),
                                  interp_weights_loop(n, factor)), (n, factor)


def _rebuilt_cases(rng):
    """(name, recorded output) for every op with a rebuild hook."""
    for dtype in (np.float32, np.float64):
        def leaf(*shape, grad=True):
            return ad.tensor(rng.standard_normal(shape), requires_grad=grad, dtype=dtype)

        name = np.dtype(dtype).name
        yield f"matmul {name}", ad.matmul(leaf(512, 64), leaf(64, 256))
        yield f"matmul bias {name}", ad.matmul(leaf(512, 64, grad=False), leaf(64, 256),
                                               bias=leaf(256, grad=False))
        yield f"batched matmul bias {name}", ad.matmul(leaf(4, 7, 5), leaf(4, 5, 3, grad=False),
                                                       bias=leaf(3))


def test_rebuild_hooks_return_the_forward_value(rng):
    for name, out in _rebuilt_cases(rng):
        again = out._rebuild()
        assert again is not out.data and np.array_equal(again, out.data), name


def test_rebuild_hook_only_beside_a_record(rng):
    x = ad.tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w = ad.tensor(rng.standard_normal((4, 2)))
    assert ad.matmul(x.data, w)._rebuild is None
    with ad.no_grad():
        assert ad.matmul(x, w)._rebuild is None
    assert ad.matmul(x, w)._rebuild is not None
    assert ad.relu(ad.matmul(x, w))._rebuild is None


def test_conv3d_list_inputs_are_checked():
    w = ad.tensor(np.ones((1, 1, 1, 3, 2)))
    with pytest.raises(ad.ShapeMismatchError, match="no inputs"):
        ad.conv3d([], w)
    with pytest.raises(ad.ShapeMismatchError, match="input channels 4"):
        ad.conv3d([ad.tensor(np.ones((2, 2, 2, 2)))] * 2, w)
    with pytest.raises(ad.ShapeMismatchError, match="spatial dims"):
        ad.conv3d([ad.tensor(np.ones((2, 2, 2, 1))), ad.tensor(np.ones((2, 3, 2, 2)))], w)
    with pytest.raises(ad.DtypeMismatchError):
        ad.conv3d([ad.tensor(np.ones((2, 2, 2, 1))),
                   ad.tensor(np.ones((2, 2, 2, 2)), dtype=np.float32)], w)


def test_trilinear_upsample_linear_ramp_interior():
    # linear functions are reproduced exactly away from the clamped edges
    n = 4
    x = np.arange(n, dtype=float).reshape(n, 1, 1, 1) * np.ones((n, 2, 2, 1))
    up = trilinear_upsample(x, 2)
    expected = (np.arange(2 * n) + 0.5) / 2 - 0.5
    np.testing.assert_allclose(up[1:-1, 0, 0, 0], expected[1:-1], rtol=1e-12)


def test_norm_group_statistics(rng):
    x = rng.standard_normal((6, 7)) * 3 + 1
    out = ad.layer_norm(ad.tensor(x), axis=-1).numpy()
    assert np.abs(out.mean(axis=-1)).max() < 1e-5
    assert np.abs(out.var(axis=-1) - 1).max() < 1e-4

    y = rng.standard_normal((4, 5, 3, 6)) * 2 - 5
    out = ad.instance_norm(ad.tensor(y)).numpy()
    mean = out.mean(axis=(0, 1, 2))
    var = out.var(axis=(0, 1, 2))
    assert np.abs(mean).max() < 1e-5
    assert np.abs(var - 1).max() < 1e-4


@pytest.mark.parametrize("norm,shape,axis", [
    ("instance", (8, 8, 8, 8), None),  # the tiny model's enhancer blocks
    ("instance", (5, 3, 7, 6), None),  # 105 voxels: 1/n is inexact
    ("layer", (64, 16), -1),  # the tiny model's tokens
    ("layer", (7, 5), -1),
    ("layer", (3, 6, 4), 1),  # a middle axis: batched over the leading extent
    ("layer", (9,), 0),
])
def test_norm_statistics_match_f64_oracle(rng, norm, shape, axis):
    """The BLAS-product statistics of an f32 norm with gain, shift and (for
    instance norm) relu: output and the x, gain and shift gradients against
    an f64 numpy reference that reduces with ``mean`` and ``sum``, rtol 1e-5
    and atol 1e-5 * max|ref|."""
    x = (rng.standard_normal(shape) * 3 + 2).astype(np.float32)
    gain = rng.uniform(0.5, 1.5, shape[-1]).astype(np.float32)
    shift = rng.standard_normal(shape[-1]).astype(np.float32)
    g = rng.standard_normal(shape).astype(np.float32)
    ts = [ad.tensor(a, requires_grad=True, dtype=np.float32) for a in (x, gain, shift)]
    if norm == "instance":
        out = ad.instance_norm(ts[0], gain=ts[1], shift=ts[2], relu=True)
        axes = tuple(range(len(shape) - 1))
    else:
        out = ad.layer_norm(ts[0], axis=axis, gain=ts[1], shift=ts[2])
        axes = (axis % len(shape),)
    ad.backward(ad.reduce_sum(ad.mul(out, ad.tensor(g, dtype=np.float32))))

    x, gain, shift, g = (a.astype(np.float64) for a in (x, gain, shift, g))
    eps = 1e-5 if norm == "instance" else 1e-6
    mu = x.mean(axis=axes, keepdims=True)
    inv = 1 / np.sqrt(((x - mu) ** 2).mean(axis=axes, keepdims=True) + eps)
    xhat = (x - mu) * inv
    ref = xhat * gain + shift
    if norm == "instance":
        g = g * (ref > 0)
        ref = np.maximum(ref, 0)
    lead = tuple(range(len(shape) - 1))
    gh = g * gain
    gx = inv * (gh - gh.mean(axis=axes, keepdims=True)
                - xhat * (gh * xhat).mean(axis=axes, keepdims=True))
    for got, want in zip([out.numpy()] + [t.grad for t in ts],
                         (ref, gx, (g * xhat).sum(axis=lead), g.sum(axis=lead))):
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5 * np.abs(want).max())


def test_concat_shape_mismatch():
    with pytest.raises(ad.ShapeMismatchError):
        ad.concat([ad.tensor(np.zeros((2, 3))), ad.tensor(np.zeros((3, 3)))], axis=1)


def test_non_finite_input_rejected():
    with pytest.raises(ad.NonFiniteError):
        ad.tensor([np.inf, 1.0])
    x = ad.tensor([1.0, 2.0])
    x.data[0] = np.nan  # corrupt after construction
    with pytest.raises(ad.NonFiniteError):
        ad.relu(x)


def test_log_rejects_nonpositive():
    with pytest.raises(ad.NonFiniteError):
        ad.log(ad.tensor([0.5, 0.0]))


def test_dtype_mixing_rejected():
    a = ad.tensor([1.0], dtype=np.float32)
    b = ad.tensor([1.0], dtype=np.float64)
    with pytest.raises(ad.DtypeMismatchError):
        ad.add(a, b)


def test_precision_modes():
    with ad.precision("f32"):
        assert ad.tensor([1.0]).dtype == np.float32
    with ad.precision("f64"):
        assert ad.tensor([1.0]).dtype == np.float64


def test_relu_gelu_sigmoid_values(rng):
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    np.testing.assert_array_equal(ad.relu(ad.tensor(x)).numpy(), np.maximum(x, 0))
    sig = ad.sigmoid(ad.tensor(x)).numpy()
    np.testing.assert_allclose(sig, 1 / (1 + np.exp(-x)), rtol=1e-12)
    g = ad.gelu(ad.tensor(x)).numpy()
    ref = 0.5 * x * (1 + np.tanh(np.sqrt(2 / np.pi) * (x + 0.044715 * x**3)))
    np.testing.assert_allclose(g, ref, rtol=1e-12)


def test_gelu_f32_matches_f64_reference():
    """f32 gelu on a 512x256 tile against the f64 tanh approximation.

    The atol covers x << 0, where 1 + tanh cancels: there f32 keeps a few
    ulp of 1, scaled by 0.5 * |x| (< 3 on this tile), absolute accuracy only.
    """
    x = np.random.default_rng(7).standard_normal((512, 256)).astype(np.float32)
    got = ad.gelu(ad.tensor(x, dtype=np.float32)).numpy()
    xd = x.astype(np.float64)
    ref = 0.5 * xd * (1 + np.tanh(np.sqrt(2 / np.pi) * (xd + 0.044715 * xd**3)))
    assert got.dtype == np.float32
    np.testing.assert_allclose(got, ref, rtol=1e-6, atol=4 * np.finfo(np.float32).eps)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_in_place_is_its_expression_bit_for_bit(dtype):
    """gelu's in-place forward and backward give, bit for bit, the plain
    expressions 0.5 x (1 + t) and g (0.5 (1 + t) + 0.5 x (1 - t^2) c
    (1 + 3 a x^2)), t = tanh(c (x + a x^3)), in numpy's operation order."""
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.standard_normal(4096) * s for s in (0.1, 1.0, 4.0, 30.0)])
    x = x.astype(dtype).reshape(64, -1)
    g = rng.standard_normal(x.shape).astype(dtype)
    c, a = np.asarray(0.7978845608028654, dtype=dtype), np.asarray(0.044715, dtype=dtype)
    t = np.tanh(c * (x + a * (x * x * x)))
    ref_out = 0.5 * x * (1.0 + t)
    ref_grad = g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * c * (1.0 + 3.0 * a * x * x))
    xt = ad.tensor(x, requires_grad=True, dtype=dtype)
    out = ad.gelu(xt)
    out._record._backward(g)
    assert out.dtype == xt.grad.dtype == dtype
    assert np.array_equal(out.numpy(), ref_out) and np.array_equal(xt.grad, ref_grad)


def test_reduce_and_shape_ops(rng):
    x = rng.standard_normal((3, 4, 5))
    t = ad.tensor(x)
    np.testing.assert_allclose(ad.reduce_sum(t).item(), x.sum(), rtol=1e-12)
    np.testing.assert_allclose(
        ad.reduce_mean(t, axis=(0, 2)).numpy(), x.mean(axis=(0, 2)), rtol=1e-12
    )
    np.testing.assert_array_equal(
        ad.permute(t, (2, 0, 1)).numpy(), x.transpose(2, 0, 1)
    )
    np.testing.assert_array_equal(ad.reshape(t, (12, 5)).numpy(), x.reshape(12, 5))
    with pytest.raises(ad.ShapeMismatchError):
        ad.reshape(t, (7, 7))
    with pytest.raises(ad.InvalidAxisError):
        ad.permute(t, (0, 1))


def test_clamp_values_and_gradient_convention():
    x = ad.tensor([-5.0, 0.0, 5.0], requires_grad=True)
    y = ad.clamp(x, -1.0, 1.0)
    np.testing.assert_array_equal(y.numpy(), [-1.0, 0.0, 1.0])
    ad.backward(ad.reduce_sum(y))
    np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])
