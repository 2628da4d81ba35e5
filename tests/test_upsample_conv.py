"""``upsample_conv3d`` against the composition it replaces: the f64
trilinear upsample of each input, built, concatenated and convolved."""

import numpy as np
import pytest

from conv_oracles import upsample_conv3d_composition
from voxseg import autodiff as ad
from voxseg.autodiff import conv

# (input shapes, factors, Cout, bias): the model's four forms first
CASES = {
    "desk fuse": ([(8, 8, 8, 64), (16, 16, 16, 16)], [2, 1], 16, False),
    "desk smooth": ([(16, 16, 16, 16)], [2], 16, True),
    "tiny fuse": ([(4, 4, 4, 16), (8, 8, 8, 8)], [2, 1], 8, False),
    "tiny smooth": ([(8, 8, 8, 8)], [2], 8, True),
    "factor-8 head": ([(3, 3, 3, 4)], [8], 4, True),
    "axis factors 1,2,4": ([(5, 3, 4, 2)], [(1, 2, 4)], 3, True),
    "non-cubic list": ([(3, 5, 2, 2), (6, 5, 4, 3)], [(2, 1, 2), 1], 2, False),
    "three inputs": ([(3, 5, 2, 2), (6, 5, 4, 3), (2, 5, 1, 1)], [(2, 1, 2), 1, (3, 1, 4)], 2,
                     True),
    "plain then upsampled": ([(4, 6, 2, 3), (2, 3, 1, 2)], [1, (2, 2, 2)], 3, True),
}


def _draw(rng, shapes, factors, cout, bias):
    xs = [rng.standard_normal(s) for s in shapes]
    w = rng.standard_normal((3, 3, 3, sum(s[3] for s in shapes), cout)) * 0.2
    b = rng.standard_normal(cout) if bias else None
    fs = [conv._triple(f, "factors") for f in factors]
    dims = tuple(n * f for n, f in zip(shapes[0][:3], fs[0]))
    g = rng.standard_normal(dims + (cout,))
    return xs, w, b, g


def _run(xs, w, b, factors, g, dtype):
    """The op's output and (input, kernel, bias) gradients under g."""
    tx = [ad.tensor(x, requires_grad=True, dtype=dtype) for x in xs]
    tw = ad.tensor(w, requires_grad=True, dtype=dtype)
    tb = None if b is None else ad.tensor(b, requires_grad=True, dtype=dtype)
    x_arg, f_arg = (tx, factors) if len(tx) > 1 else (tx[0], factors[0])
    out = ad.upsample_conv3d(x_arg, tw, f_arg, bias=tb)
    out._record._backward(g.astype(dtype))
    return out.data, [t.grad for t in tx], tw.grad, None if tb is None else tb.grad


def _assert_close(got, ref, rtol):
    np.testing.assert_allclose(got, ref, rtol=rtol, atol=rtol * np.abs(ref).max())


@pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("case", sorted(CASES))
def test_upsample_conv3d_matches_the_composition(rng, case, dtype, rtol):
    """Forward, every input gradient, the kernel and the bias gradient."""
    shapes, factors, cout, bias = CASES[case]
    xs, w, b, g = _draw(rng, shapes, factors, cout, bias)
    out, gxs, gw, gb = _run(xs, w, b, factors, g, dtype)
    ref_out, ref_gxs, ref_gw, ref_gb = upsample_conv3d_composition(
        xs, [conv._triple(f, "factors") for f in factors], w, b, g)
    _assert_close(out, ref_out, rtol)
    for got, ref in zip(gxs, ref_gxs):
        _assert_close(got, ref, rtol)
    _assert_close(gw, ref_gw, rtol)
    if bias:
        _assert_close(gb, ref_gb, rtol)


@pytest.mark.parametrize("elems,planes", [(1, [1] * 10), (700, [3, 3, 3, 1])])
def test_upsample_conv3d_slabs_tile_the_output(rng, monkeypatch, elems, planes):
    """Slabs of one plane, and of three with a ragged last one, give the
    composition's output and gradients too."""
    monkeypatch.setattr(conv, "UPSAMPLE_SLAB_ELEMS", elems)
    shapes, factors, cout, bias = [(5, 3, 4, 2), (10, 6, 8, 1)], [2, 1], 3, True
    assert [hi - lo for lo, hi in conv._slabs(shapes[0][:3], (10, 6, 8), 2, cout)] == planes
    xs, w, b, g = _draw(rng, shapes, factors, cout, bias)
    got = _run(xs, w, b, factors, g, np.float64)
    ref = upsample_conv3d_composition(xs, [(2, 2, 2), (1, 1, 1)], w, b, g)
    _assert_close(got[0], ref[0], 1e-12)
    for a, r in zip(got[1], ref[1]):
        _assert_close(a, r, 1e-12)
    _assert_close(got[2], ref[2], 1e-12)


@pytest.mark.parametrize("case", ["desk fuse", "desk smooth", "tiny fuse", "tiny smooth"])
def test_upsample_conv3d_forward_is_the_same_without_a_graph(rng, case):
    """The f32 forward is bit-identical under no_grad and in grad mode."""
    shapes, factors, cout, bias = CASES[case]
    xs, w, b, _ = _draw(rng, shapes, factors, cout, bias)

    def forward(grad):
        tx = [ad.tensor(x, requires_grad=grad, dtype=np.float32) for x in xs]
        tw = ad.tensor(w, requires_grad=grad, dtype=np.float32)
        tb = None if b is None else ad.tensor(b, dtype=np.float32)
        out = ad.upsample_conv3d(tx if len(tx) > 1 else tx[0], tw,
                                 factors if len(tx) > 1 else factors[0], bias=tb)
        assert (out._record is not None) == grad
        return out.data

    with ad.no_grad():
        quiet = forward(False)
    assert np.array_equal(forward(True), quiet)


@pytest.mark.parametrize("case", ["desk smooth", "tiny smooth", "three inputs"])
def test_upsample_conv3d_relu_is_the_relu_of_the_conv(rng, case):
    """``relu=True`` gives the output and every gradient of
    ``relu(upsample_conv3d(...))`` bit for bit, in one node."""
    shapes, factors, cout, bias = CASES[case]
    xs, w, b, g = _draw(rng, shapes, factors, cout, bias)
    runs = []
    for fused in (True, False):
        tx = [ad.tensor(x, requires_grad=True, dtype=np.float32) for x in xs]
        tw = ad.tensor(w, requires_grad=True, dtype=np.float32)
        tb = None if b is None else ad.tensor(b, requires_grad=True, dtype=np.float32)
        x_arg, f_arg = (tx, factors) if len(tx) > 1 else (tx[0], factors[0])
        if fused:
            out = ad.upsample_conv3d(x_arg, tw, f_arg, bias=tb, relu=True)
            assert out._record.op == "upsample_conv3d"
        else:
            out = ad.relu(ad.upsample_conv3d(x_arg, tw, f_arg, bias=tb))
        assert (out.data <= 0).any()
        ad.backward(ad.reduce_sum(ad.mul(out, ad.tensor(g, dtype=np.float32))))
        runs.append([out.data] + [t.grad for t in tx + [tw] + ([tb] if tb else [])])
    for fused, composed in zip(*runs):
        assert np.array_equal(fused, composed)


def test_only_the_needed_gradients_are_formed(rng):
    """A frozen kernel gets no gradient and a constant input none either;
    the gradient that is formed equals the one formed beside the others."""
    shapes, factors, cout, _ = CASES["tiny fuse"]
    xs, w, _, g = _draw(rng, shapes, factors, cout, False)
    full = _run(xs, w, None, factors, g, np.float64)
    with ad.precision("f64"):
        tap = ad.tensor(xs[0], requires_grad=True)
        out = ad.upsample_conv3d([tap, ad.tensor(xs[1])], ad.tensor(w), factors)
        out._record._backward(g)
        assert np.array_equal(tap.grad, full[1][0])
        tw = ad.tensor(w, requires_grad=True)
        out = ad.upsample_conv3d([ad.tensor(x) for x in xs], tw, factors)
        out._record._backward(g)
        assert np.array_equal(tw.grad, full[2])


def test_shifted_interp_matrices():
    """Rows k .. k+N-1 of the padded matrix are U with its rows shifted by
    the tap k - 1, zero past the edge; the stacked matrix holds the three
    side by side, tap-minor; both are cached read-only per dtype."""
    for n, f in [(1, 2), (4, 2), (5, 3), (3, 8), (6, 1)]:
        u = conv._interp_weights(n, f)
        big = n * f
        pad = conv._shifted_interp(n, f, np.dtype(np.float32))
        stacked = conv._stacked_interp(n, f, np.dtype(np.float32))
        assert pad.dtype == stacked.dtype == np.float32
        assert not pad.flags.writeable and not stacked.flags.writeable
        assert conv._shifted_interp(n, f, np.dtype(np.float32)) is pad
        for k, t in enumerate((-1, 0, 1)):
            shifted = np.zeros((big, n))
            for a in range(big):
                if 0 <= a + t < big:
                    shifted[a] = u[a + t]
            assert np.array_equal(pad[k : k + big], shifted.astype(np.float32)), (n, f, t)
            assert np.array_equal(stacked[:, k::3], shifted.astype(np.float32)), (n, f, t)


def test_upsample_conv3d_checks_its_arguments():
    x = ad.tensor(np.ones((2, 2, 2, 1)))
    y = ad.tensor(np.ones((4, 4, 4, 1)))
    w = ad.tensor(np.ones((3, 3, 3, 2, 1)))
    with pytest.raises(ad.ShapeMismatchError, match="3x3x3"):
        ad.upsample_conv3d(x, ad.tensor(np.ones((1, 1, 1, 1, 1))), 2)
    with pytest.raises(ad.ShapeMismatchError, match="one factor per input"):
        ad.upsample_conv3d([x, y], w, 2)
    with pytest.raises(ad.ShapeMismatchError, match="different dims"):
        ad.upsample_conv3d([x, y], w, [3, 1])
    with pytest.raises(ad.InvalidAxisError, match=">= 1"):
        ad.upsample_conv3d([x, y], w, [(2, 0, 2), 1])
    with pytest.raises(ad.ShapeMismatchError, match="input channels"):
        ad.upsample_conv3d(x, w, 2)
    with pytest.raises(ad.ShapeMismatchError, match="bias"):
        ad.upsample_conv3d([x, y], w, [2, 1], bias=ad.tensor(np.ones(2)))


def test_upsampled_macs_price_the_model_forms():
    """The desk smooth conv at 16^3 -> 32^3, 16 -> 16: 27 * 32 * 16^2 * 16^2
    projection MACs, and the interpolation as run (7 slabs of 5 planes or
    fewer); a factor-1 input is a plain conv."""
    proj, interp = conv.upsampled_macs((16, 16, 16), (2, 2, 2), 16, 16)
    assert proj == 27 * 32 * 16 * 16 * 16 * 16
    rows0 = sum(hi - lo + 2 for lo, hi in conv._slabs((16, 16, 16), (32, 32, 32), 16, 16))
    assert rows0 == 32 + 2 * 7
    assert interp == (rows0 * 16 ** 4 + 9 * 32 * 32 * 16 * 16 * 16
                      + 3 * 32 ** 3 * 16 * 16)
    assert conv.upsampled_macs((8, 8, 8), (1, 1, 1), 4, 3) == (8 ** 3 * 27 * 12, 0)
