"""Loop oracles for conv3d, and the upsample-then-conv composition that
``upsample_conv3d`` replaces, that only tests compare against."""

import numpy as np

from voxseg.autodiff.conv import _conv_out_dims, _interp_weights, _triple


def _pad(x, padding):
    """x zero-padded by ``padding`` on each side of its three spatial axes."""
    ph, pw, pd = padding
    return np.pad(x, ((ph, ph), (pw, pw), (pd, pd), (0, 0)))


def conv3d_reference(x, w, stride=1, padding=0):
    """Direct-loop forward oracle over plain arrays."""
    stride = _triple(stride, "stride")
    padding = _triple(padding, "padding")
    x = np.asarray(x)
    w = np.asarray(w)
    kh, kw, kd = w.shape[:3]
    cin, cout = w.shape[3], w.shape[4]
    assert x.shape[3] == cin
    out_dims = _conv_out_dims(x.shape[:3], (kh, kw, kd), stride, padding)
    xp = _pad(x, padding)
    out = np.zeros(out_dims + (cout,), dtype=x.dtype)
    sh, sw, sd = stride
    for a in range(out_dims[0]):
        for b in range(out_dims[1]):
            for c in range(out_dims[2]):
                for i in range(kh):
                    for j in range(kw):
                        for k in range(kd):
                            px = xp[a * sh + i, b * sw + j, c * sd + k]  # (Cin,)
                            out[a, b, c] += px @ w[i, j, k]
    return out


def conv3d_input_grad_taps(g, w, stride, padding, x_shape):
    """Oracle for conv3d's input gradient: one strided scatter-add per tap."""
    kdims = w.shape[:3]
    (sh, sw, sd), (ph, pw, pd) = stride, padding
    ho, wo, do = g.shape[:3]
    h, wdt, d, cin = x_shape
    gx = np.zeros((h + 2 * ph, wdt + 2 * pw, d + 2 * pd, cin), dtype=g.dtype)
    for i in range(kdims[0]):
        for j in range(kdims[1]):
            for k in range(kdims[2]):
                gx[i : i + sh * ho : sh, j : j + sw * wo : sw, k : k + sd * do : sd] += (
                    g @ w[i, j, k].T
                )
    return gx[ph : ph + h, pw : pw + wdt, pd : pd + d]


def conv3d_kernel_grad_taps(x, g, kdims, stride, padding):
    """Oracle for conv3d's kernel gradient: one strided window GEMM per tap."""
    sh, sw, sd = stride
    ho, wo, do, cout = g.shape
    xp = _pad(x, padding)
    gw = np.zeros(tuple(kdims) + (x.shape[3], cout), dtype=g.dtype)
    for i in range(kdims[0]):
        for j in range(kdims[1]):
            for k in range(kdims[2]):
                win = xp[i : i + sh * ho : sh, j : j + sw * wo : sw, k : k + sd * do : sd]
                gw[i, j, k] = win.reshape(-1, x.shape[3]).T @ g.reshape(-1, cout)
    return gw


def interp_weights_loop(n_in, factor):
    """Oracle for ``conv._interp_weights``: one output row at a time."""
    n_out = n_in * factor
    mat = np.zeros((n_out, n_in), dtype=np.float64)
    for o in range(n_out):
        src = (o + 0.5) / factor - 0.5
        i0 = int(np.floor(src))
        frac = src - i0
        i0c = min(max(i0, 0), n_in - 1)
        i1c = min(max(i0 + 1, 0), n_in - 1)
        mat[o, i0c] += 1.0 - frac
        mat[o, i1c] += frac
    return mat


def apply_axis_moveaxis(mat, arr, axis):
    """mat applied along ``axis`` of arr: the axis moved to the front (a
    copy), one GEMM, and moved back."""
    moved = np.moveaxis(arr, axis, 0)
    flat = mat @ moved.reshape(moved.shape[0], -1)
    flat = flat.reshape((mat.shape[0],) + moved.shape[1:])
    return np.moveaxis(flat, 0, axis)


def trilinear_upsample(x, factors):
    """(H, W, D, C) upsampled by per-axis integer factors, trilinear with
    half-pixel centers: one ``_interp_weights`` matrix per axis."""
    for axis, factor in enumerate(_triple(factors, "factors")):
        x = apply_axis_moveaxis(_interp_weights(x.shape[axis], factor), x, axis)
    return x


def trilinear_upsample_adjoint(g, in_dims, factors):
    """The transpose of ``trilinear_upsample`` applied to g, back to in_dims."""
    for axis, factor in enumerate(_triple(factors, "factors")):
        g = apply_axis_moveaxis(_interp_weights(in_dims[axis], factor).T, g, axis)
    return g


def conv3d_taps(x, w, padding):
    """Stride-1 conv3d forward as one product per kernel tap over the
    shifted window of the padded input."""
    xp = _pad(x, _triple(padding, "padding"))
    kh, kw, kd = w.shape[:3]
    ho, wo, do = (n - k + 1 for n, k in zip(xp.shape[:3], (kh, kw, kd)))
    out = np.zeros((ho, wo, do, w.shape[4]), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            for k in range(kd):
                out += xp[i : i + ho, j : j + wo, k : k + do] @ w[i, j, k]
    return out


def upsample_conv3d_composition(xs, factors, w, bias, g):
    """(output, input gradients, kernel gradient, bias gradient) of the 3x3x3,
    padding-1 conv of the concatenated upsamples of ``xs``, built
    explicitly, under output gradient g (in the dtype of the arrays given)."""
    ups = [trilinear_upsample(x, f) for x, f in zip(xs, factors)]
    u = np.concatenate(ups, axis=3)
    out = conv3d_taps(u, w, 1)
    if bias is not None:
        out = out + bias
    gu = conv3d_input_grad_taps(g, w, (1, 1, 1), (1, 1, 1), u.shape)
    gxs, lo = [], 0
    for x, f in zip(xs, factors):
        gxs.append(trilinear_upsample_adjoint(gu[..., lo : lo + x.shape[3]], x.shape[:3], f))
        lo += x.shape[3]
    gw = conv3d_kernel_grad_taps(u, g, (3, 3, 3), (1, 1, 1), (1, 1, 1))
    return out, gxs, gw, g.sum(axis=(0, 1, 2))
