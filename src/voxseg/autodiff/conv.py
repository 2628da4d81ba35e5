"""3D convolution and trilinear upsampling, differentiable.

Layout is channels-last throughout: activations (H, W, D, C), kernels
(kh, kw, kd, Cin, Cout).

Each pass of a stride-1 conv (the forward, the input gradient and the
kernel gradient) takes one of two forms, chosen from its shape alone
(``_patches_pay``): shifted-row taps, or one GEMM over a small patch
matrix.

Shifted-row taps build no patch matrix. Flattened to rows, the padded
input (Hp, Wp, Dp, Cin) holds the voxel that kernel tap (i, j, k) reads
for output (a, b, c) at row r + off, with r = a*Wp*Dp + b*Dp + c and
off = i*Wp*Dp + j*Dp + k. So each tap is one GEMM over a contiguous row
slice, accumulated on the (Ho, Wp, Dp) row grid, from which the valid
(Ho, Wo, Do) block is cropped (implicit GEMM, Chetlur et al. 2014,
arXiv:1410.0759). The rows with b >= Wo or c >= Do are computed and
discarded: 13% more rows than outputs at 32^3, 27% at 16^3 (3x3x3,
padding 1).

How the taps accumulate is chosen from the shape too
(``_blas_accumulates``). Where it pays, each tap is one gemm with
beta = 1 from numpy's own OpenBLAS (the library and thread pool that
serve ``np.matmul``, reached through ctypes), which adds its product
straight into the accumulator rows. Elsewhere, and wherever that symbol
is missing, each product is a numpy temporary added into the
accumulator. gemm with beta = 1 loses where Cout is under 16 on grids up
to 20^3, and where Cout is 4 even at 32^3 (OpenBLAS's paths for skinny
C), and gains little below 16^3; so it runs for Cout >= 16 over >= 4096
rows, or Cout >= 8 over >= 12288 rows. At every model shape whose
forward stays on taps the two give bit-identical results (tested).

The patch matrix (rows, taps * channels) is copied out of one
``as_strided`` view (Ho, Wo, Do, kh, kw, kd, C) of the padded operand,
kernel taps before channels. Its one GEMM replaces the taps' 27 GEMMs
and their numpy calls, which at the tiny model's 8^3 grid cost more in
calls and packing than in arithmetic (Goto & van de Geijn 2008, ACM TOMS
34(3)); but the copy grows with the matrix, and past a few hundred
thousand elements the taps win. So a pass reads patches when it has more
than one tap and its matrix holds at most ``PATCH_ELEMS`` = 2^17
elements (512 KiB in f32): the forward and the kernel gradient share the
(Ho*Wo*Do, taps * Cin) matrix of the padded input, the input gradient
reads the (H*W*D, taps * Cout) one of the padded output gradient. That
holds for every pass of the tiny model's 8 -> 8 convs at 8^3 and for the
input gradient of its 24 -> 8 and 32 -> 8 convs, and for no pass of the
desk model. From ``PYTHONPATH=src python tests/conv_paths.py``: 3x3x3
convs at padding 1 and the 1x1x1 projections at padding 0, f32, 2 BLAS
threads, median ms of three runs, the rule's form starred:

                          forward             input gradient     kernel gradient
    grid Cin->Cout k   patch  gemm numpy    patch  gemm numpy    patch  taps
    16^3  16->16  3     2.33   1.60*  2.67     2.17   1.56*  2.53     2.27   2.58*
    16^3  80->16  3    21.81   4.95*  6.50     4.66   3.54*  9.94    20.65   7.49*
    16^3  64->16  3    11.21   3.94*  5.18     3.33   2.79*  8.54    12.85   5.76*
    32^3  16->16  3    31.03  10.72* 18.59    29.21  10.67* 18.89    33.33  19.87*
    32^3  16->1   1     0.14   0.75   0.15*    1.82   0.24*  2.21     0.15   0.15*
     8^3   8->8   3     0.15*  0.42   0.24     0.09*  0.49   0.26     0.09*  0.17
     8^3  24->8   3     0.38   0.64   0.44*    0.18*  0.32   0.48     0.42   0.34*
     8^3  32->8   3     0.47   0.61   0.50*    0.20*  0.37   0.54     0.57   0.17*
    16^3   8->8   3     1.13   2.26   1.12*    1.09   1.86   1.64*    1.31   0.71*
    16^3   8->1   1     0.05   0.11   0.05*    0.15   0.10   0.16*    0.02   0.02*

The first five rows are the desk model's, the last five the tiny
model's. The patch matrix also wins a few passes past the cap (the desk
64->16 and 80->16 input gradients and 16->16 kernel gradient, the tiny
model's 16^3 input gradient), but at 3.5 to 7.1 MB a matrix. A single
tap (1x1x1) is one GEMM either way, so it stays on taps.

Like every op's closure (see ``tensor``), conv3d's keeps only what its
backward reads: the inputs when the kernel needs a gradient, the kernel
when an input does, never the output or the padded copy. The backward
re-pads x (zeros plus one slice assignment, without ``np.pad``'s
per-call Python cost) wherever the kernel gradient reads it, at every
stride. An input that is a recorded upsample or matmul output is kept as
its rebuild hook, not its data, and rebuilt there too: in the decoder,
each enhancer's upsampled tap and the head's upsampled features. The
upsample's own closure keeps only its interpolation matrices.

x may be a list of inputs, read as their concatenation along channels:
each is written into its channel slice of that one padded buffer, so
the GEMMs see the same operand as after a concat, and the input
gradient over the whole Cin is split per input. An optional bias (Cout,)
is added in place on the output and its gradient is the output gradient
summed over the voxels.

The upsample applies one (n·f, n) interpolation matrix per axis whose
factor f exceeds 1 (``_apply_axis``), reading the contiguous (H, W, D,
C) layout as it is: on axis 0 one GEMM on the (H, W·D·C) view, on axis
1 a GEMM batched over the H blocks of (H, W, D·C), on axis 2 one
batched over the H·W blocks of (H·W, D, C). Where C = 1 that last one
would run as matrix-vector products, so it is one GEMM on the
transposed (D, H·W) copy instead. No axis is moved to the front and
copied, and the results equal that form bit for bit (tested). The
backward applies the transposed matrices the same way.

Backward of a stride-1 conv3d, in the form its shape takes:
  * kernel gradient: on patches, the transposed patch matrix times the
    output gradient; on taps, the output gradient embedded in the same
    row grid, zeros at the discarded rows, and each tap one GEMM, the
    tap's row slice of the padded input transposed times that grid;
  * input gradient: the transposed convolution, i.e. the output gradient
    padded by k-1-p per side (cropped where p > k-1) and correlated with
    the spatially flipped kernel, Cin and Cout swapped, its patches only
    Cout wide.

Strided convs (the patch embedding and the first conv of each image
branch, which read the raw volume) lower to one GEMM over the patch
matrix (Ho*Wo*Do, kh*kw*kd*Cin) at any size, rebuilt from the re-padded
input for the kernel gradient; their input gradient is a loop over the
kernel taps, each a strided scatter-add of (output gradient @ tap^T).
The transposed-convolution form would need zero insertion, multiplying
its work by the product of the strides.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import (
    InvalidAxisError,
    ShapeMismatchError,
    Tensor,
    _accum_unbroadcast,
    _check_inputs,
    _check_vector,
    _hooked,
    _keep,
    _make,
    _rec,
    _value,
)


def _triple(v, name):
    if isinstance(v, (int, np.integer)):
        v = (v, v, v)
    v = tuple(int(x) for x in v)
    if len(v) != 3 or any(x < 0 for x in v):
        raise InvalidAxisError(f"{name}: need three non-negative integers, got {v}")
    return v


def _conv_out_dims(in_dims, kdims, stride, padding):
    out = []
    for n, k, s, p in zip(in_dims, kdims, stride, padding):
        span = n + 2 * p - k
        if span < 0 or s < 1:
            raise ShapeMismatchError(
                f"conv3d: kernel {kdims} with padding {padding} exceeds input {in_dims}"
            )
        out.append(span // s + 1)
    return tuple(out)


def _padded_shape(shape, padding):
    return tuple(n + 2 * p for n, p in zip(shape[:3], padding)) + tuple(shape[3:])


def _pad_spatial(x, padding):
    """Zero-pad the three spatial axes of (H, W, D, C) ``x`` (``x`` itself
    when there is no padding): zeros with x assigned into the middle,
    bit-identical to ``np.pad`` without its per-call Python cost."""
    ph, pw, pd = padding
    if ph == pw == pd == 0:
        return x
    xp = np.zeros(_padded_shape(x.shape, padding), dtype=x.dtype)
    h, w, d = x.shape[:3]
    xp[ph : ph + h, pw : pw + w, pd : pd + d] = x
    return xp


def _im2col(xp, kdims, stride, out_dims):
    """(Hp, Wp, Dp, Ci) -> (Ho*Wo*Do, kh*kw*kd*Ci) patch matrix: one strided
    view (Ho, Wo, Do, kh, kw, kd, Ci) of xp, kernel taps before channels,
    copied out."""
    s0, s1, s2, s3 = xp.strides
    sh, sw, sd = stride
    win = as_strided(xp, tuple(out_dims) + tuple(kdims) + xp.shape[3:],
                     (s0 * sh, s1 * sw, s2 * sd, s0, s1, s2, s3), writeable=False)
    return np.ascontiguousarray(win).reshape(out_dims[0] * out_dims[1] * out_dims[2], -1)


def _load_gemm():
    """cblas_{s,d}gemm of numpy's own bundled OpenBLAS (64-bit ints), keyed
    by dtype; empty where that library or its symbols are not found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path)
            fns = {np.dtype(np.float32): (lib.scipy_cblas_sgemm64_, ctypes.c_float),
                   np.dtype(np.float64): (lib.scipy_cblas_dgemm64_, ctypes.c_double)}
        except (OSError, AttributeError):
            continue
        i64 = ctypes.c_int64
        for fn, real in fns.values():
            fn.restype = None
            fn.argtypes = [ctypes.c_int, ctypes.c_int, ctypes.c_int, i64, i64, i64, real,
                           ctypes.c_void_p, i64, ctypes.c_void_p, i64, real,
                           ctypes.c_void_p, i64]
        return {dt: fn for dt, (fn, _) in fns.items()}
    return {}


_GEMM = _load_gemm()
_ROW_MAJOR, _NO_TRANS = 101, 111  # CBLAS enum values
PATCH_ELEMS = 1 << 17  # the largest stride-1 patch matrix, in elements


def _blas_accumulates(rows, cout):
    """Whether the taps of a correlation into (rows, cout) accumulate inside
    gemm (beta = 1) rather than as numpy temporaries added into the
    accumulator: a rule on the shape alone, from the module's table."""
    return (cout >= 16 and rows >= 4096) or (cout >= 8 and rows >= 12288)


def _accumulate_taps(acc, flat, offs, taps):
    """acc += flat[off : off + len(acc)] @ tap for every (off, tap), in place.

    acc: (rows, Co); flat: (R, Ci); taps: (T, Ci, Co). Where
    ``_blas_accumulates`` says so and numpy's OpenBLAS exports gemm, each
    tap is one gemm with beta = 1 that reads its rows of flat and adds its
    product straight into acc; otherwise each product is a numpy
    temporary added into acc.
    """
    rows, co = acc.shape
    ci = flat.shape[1]
    gemm = _GEMM.get(acc.dtype) if _blas_accumulates(rows, co) else None
    if gemm is None:
        for off, tap in zip(offs, taps):
            acc += flat[off : off + rows] @ tap
        return
    flat, taps = np.ascontiguousarray(flat), np.ascontiguousarray(taps)
    if not (acc.flags.c_contiguous and flat.dtype == taps.dtype == acc.dtype
            and taps.shape == (len(offs), ci, co) and max(offs) + rows <= len(flat)):
        raise ValueError("gemm operands do not fit the accumulator")  # before any pointer
    size = acc.itemsize
    a0, b0, c0 = flat.ctypes.data, taps.ctypes.data, acc.ctypes.data
    for t, off in enumerate(offs):
        gemm(_ROW_MAJOR, _NO_TRANS, _NO_TRANS, rows, co, ci, 1.0,
             a0 + off * ci * size, ci, b0 + t * ci * co * size, co, 1.0, c0, co)


@functools.lru_cache(maxsize=64)
def _tap_rows(padded_dims, kdims):
    """Row offset of each kernel tap in the flattened padded grid (a tuple),
    and the row count every tap can read (the last valid output row plus
    one)."""
    hp, wp, dp = padded_dims
    offs = tuple(i * wp * dp + j * dp + k
                 for i in range(kdims[0]) for j in range(kdims[1]) for k in range(kdims[2]))
    return offs, hp * wp * dp - offs[-1]


def _patches_pay(rows, taps, channels):
    """Whether a stride-1 pass producing ``rows`` rows, each the product of
    a patch of ``taps`` kernel taps by ``channels`` channels, runs as one
    GEMM over the (rows, taps * channels) patch matrix rather than as one
    GEMM per tap over shifted rows: a rule on the shape alone, from the
    module's table. A single tap is one GEMM either way."""
    return taps > 1 and rows * taps * channels <= PATCH_ELEMS


def _correlate_taps(xp, w, out_dims):
    """Stride-1 correlation of padded xp (Hp, Wp, Dp, Ci) with w
    (kh, kw, kd, Ci, Co) as one GEMM per tap over shifted row slices."""
    _, wp, dp, ci = xp.shape
    ho, wo, do = out_dims
    offs, span = _tap_rows(xp.shape[:3], w.shape[:3])
    flat = xp.reshape(-1, ci)
    acc = np.zeros((ho * wp * dp, w.shape[4]), dtype=xp.dtype)
    _accumulate_taps(acc[:span], flat, offs, w.reshape(len(offs), ci, -1))
    return np.ascontiguousarray(acc.reshape(ho, wp, dp, -1)[:, :wo, :do])


def _kernel_grad_taps(xp, g, kdims):
    """dL/dw of a stride-1 conv3d: one GEMM per tap, the tap's rows of xp
    against g embedded in the (Ho, Wp, Dp) row grid, zeros at discarded rows."""
    _, wp, dp, cin = xp.shape
    ho, wo, do, cout = g.shape
    offs, span = _tap_rows(xp.shape[:3], kdims)
    flat = xp.reshape(-1, cin)
    grid = np.zeros((ho, wp, dp, cout), dtype=g.dtype)
    grid[:, :wo, :do] = g
    gs = grid.reshape(-1, cout)[:span]
    gw = np.empty((len(offs), cin, cout), dtype=g.dtype)
    for t, off in enumerate(offs):
        np.matmul(flat[off : off + span].T, gs, out=gw[t])
    return gw.reshape(kdims + (cin, cout))


def _input_grad_stride1(g, w, padding, x_shape):
    """dL/dx of a stride-1 conv3d as one correlation (transposed convolution).

    g: (Ho, Wo, Do, Cout) output gradient; w: (kh, kw, kd, Cin, Cout).
    Padding g by k-1-p per side (cropping by p-(k-1) where that is
    negative) leaves exactly the unpadded-input entries of the full
    correlation, so no padded buffer is built and sliced afterwards.
    """
    kdims = w.shape[:3]
    edge = [k - 1 - p for k, p in zip(kdims, padding)]
    g = g[tuple(slice(max(-e, 0), n - max(-e, 0)) for e, n in zip(edge, g.shape[:3]))]
    gp = _pad_spatial(g, tuple(max(e, 0) for e in edge))
    wt = w[::-1, ::-1, ::-1].transpose(0, 1, 2, 4, 3)  # (kh, kw, kd, Cout, Cin)
    cin, cout = w.shape[3], w.shape[4]
    dims = x_shape[:3]
    if _patches_pay(dims[0] * dims[1] * dims[2], kdims[0] * kdims[1] * kdims[2], cout):
        cols = _im2col(gp, kdims, (1, 1, 1), dims)
        return (cols @ wt.reshape(-1, cin)).reshape(x_shape)
    return _correlate_taps(gp, wt, dims)


def _pad_inputs(xs, padding):
    """The zero-padded channel concatenation of the arrays ``xs``, (Hp, Wp,
    Dp, sum of Ci): each is written into its channel slice of one buffer.
    A lone array is padded as is (itself when there is no padding)."""
    if len(xs) == 1:
        return _pad_spatial(xs[0], padding)
    ph, pw, pd = padding
    h, w, d = xs[0].shape[:3]
    cin = sum(x.shape[3] for x in xs)
    xp = np.zeros(_padded_shape((h, w, d, cin), padding), dtype=xs[0].dtype)
    lo = 0
    for x in xs:
        hi = lo + x.shape[3]
        xp[ph : ph + h, pw : pw + w, pd : pd + d, lo:hi] = x
        lo = hi
    return xp


def conv3d(x, w, stride=1, padding=0, bias=None):
    """Strided 3D convolution (cross-correlation), channels-last.

    x: (H, W, D, Cin), or a list of (H, W, D, Ci) inputs whose channels sum
    to Cin, read as their concatenation along channels in list order
    without building it (each is written into its channel slice of the
    padded buffer, in the forward and again in the backward, and the
    input gradient over the whole Cin is split per input);
    w: (kh, kw, kd, Cin, Cout); optional bias (Cout,), added in place to
    every output voxel. Output dims follow the floor convention
    (H + 2p - k) // s + 1.
    """
    xs = list(x) if isinstance(x, (list, tuple)) else [x]
    if not xs:
        raise ShapeMismatchError("conv3d: no inputs")
    extra = () if bias is None else (bias,)
    _check_inputs("conv3d", *xs, w, *extra)
    if any(t.data.ndim != 4 for t in xs) or w.data.ndim != 5:
        raise ShapeMismatchError(
            f"conv3d: expected rank-4 inputs and a rank-5 kernel, got "
            f"{[t.data.ndim for t in xs]}/{w.data.ndim}"
        )
    in_dims = xs[0].data.shape[:3]
    if any(t.data.shape[:3] != in_dims for t in xs):
        raise ShapeMismatchError(
            f"conv3d: inputs differ in spatial dims {[t.data.shape[:3] for t in xs]}"
        )
    widths = [t.data.shape[3] for t in xs]
    if sum(widths) != w.data.shape[3]:
        raise ShapeMismatchError(
            f"conv3d: input channels {sum(widths)} != kernel channels {w.data.shape[3]}"
        )
    stride = _triple(stride, "stride")
    padding = _triple(padding, "padding")
    if any(s < 1 for s in stride):
        raise InvalidAxisError("conv3d: stride components must be >= 1")
    kdims = w.data.shape[:3]
    cout = w.data.shape[4]
    if bias is not None:
        _check_vector("conv3d", "bias", bias, cout)
    out_dims = _conv_out_dims(in_dims, kdims, stride, padding)
    x_shape = in_dims + (sum(widths),)
    unit = stride == (1, 1, 1)

    # strided convs, and stride-1 ones where the rule says so, read the
    # patch matrix, in the forward and again in the kernel gradient
    patches = not unit or _patches_pay(
        out_dims[0] * out_dims[1] * out_dims[2], kdims[0] * kdims[1] * kdims[2], x_shape[3])
    xp = _pad_inputs([t.data for t in xs], padding)
    if patches:
        cols = _im2col(xp, kdims, stride, out_dims)
        data = (cols @ w.data.reshape(-1, cout)).reshape(out_dims + (cout,))
    else:
        data = _correlate_taps(xp, w.data, out_dims)
    if bias is not None:
        data += bias.data
    rxs, rw = [_rec(t) for t in xs], _rec(w)
    rbias = None if bias is None else _rec(bias)
    # the inputs (their data, or the hooks that rebuild it) only for the
    # kernel gradient, the kernel only for the input gradient
    xds = [_keep(t) for t in xs] if rw is not None else None
    wd = w.data if any(r is not None for r in rxs) else None

    def bw(g):
        if rw is not None:
            # rebuilt from the inputs, not kept from the forward: the padded
            # input, and the (N, K) patch matrix where the forward read one
            xp = _pad_inputs([_value(kept) for kept in xds], padding)
            if patches:
                gw = _im2col(xp, kdims, stride, out_dims).T @ g.reshape(-1, cout)
            else:
                gw = _kernel_grad_taps(xp, g, kdims)
            del xp
            rw._accum(gw.reshape(rw.shape), owned=True)
        if rbias is not None:
            _accum_unbroadcast(rbias, g, g)
        if wd is None:
            return
        if unit:
            gx, owned = _input_grad_stride1(g, wd, padding, x_shape), True
        else:
            gx = np.zeros(_padded_shape(x_shape, padding), dtype=g.dtype)
            sh, sw, sd = stride
            ho, wo, do = out_dims
            for i in range(kdims[0]):
                for j in range(kdims[1]):
                    for k in range(kdims[2]):
                        contrib = g @ wd[i, j, k].T  # (Ho, Wo, Do, Cin)
                        gx[
                            i : i + sh * ho : sh,
                            j : j + sw * wo : sw,
                            k : k + sd * do : sd,
                        ] += contrib
            ph, pw, pd = padding
            h, wdt, d = in_dims
            gx, owned = gx[ph : ph + h, pw : pw + wdt, pd : pd + d], False
        if len(rxs) == 1:
            rxs[0]._accum(gx, owned=owned)
            return
        lo = 0
        for rec, width in zip(rxs, widths):
            if rec is not None:
                rec._accum(gx[..., lo : lo + width])  # a view of gx: copied
            lo += width

    return _make("conv3d", data, tuple(xs) + (w,) + extra, bw)


@functools.lru_cache(maxsize=64)
def _interp_weights(n_in, factor):
    """(n_in*factor, n_in) row-stochastic linear interpolation matrix, in
    float64; cached per shape, so it is read-only.

    Output sample o reads source coordinate (o + 0.5)/factor − 0.5, clamped
    at the ends (half-pixel-center convention): weight 1 − frac on the
    source below it and frac on the one above, both clamped into range, so
    an end row puts both weights on one column.
    """
    n_out = n_in * factor
    rows = np.arange(n_out)
    src = (rows + 0.5) / factor - 0.5
    below = np.floor(src)
    frac = src - below
    below = below.astype(np.int64)
    mat = np.zeros((n_out, n_in), dtype=np.float64)
    np.add.at(mat, (rows, np.clip(below, 0, n_in - 1)), 1.0 - frac)
    np.add.at(mat, (rows, np.clip(below + 1, 0, n_in - 1)), frac)
    mat.flags.writeable = False
    return mat


def _apply_axis(mat, arr, axis):
    """mat (m, n) applied along ``axis`` of arr, whose extent there is n,
    without moving that axis: with L the product of the extents before it
    and T of those after, one GEMM mat @ arr (L, n, T), batched over L.
    When T = 1 that batch would run as matrix-vector products, so arr
    (L, n) is transposed into the one GEMM mat @ arr^T (n, L) instead."""
    shape = arr.shape
    n = shape[axis]
    lead = int(np.prod(shape[:axis], dtype=np.int64))
    trail = int(np.prod(shape[axis + 1 :], dtype=np.int64))
    if trail == 1:
        out = (mat @ np.ascontiguousarray(arr.reshape(lead, n).T)).T
    else:
        out = mat @ arr.reshape(lead, n, trail)
    return out.reshape(shape[:axis] + (mat.shape[0],) + shape[axis + 1 :])


def trilinear_upsample(x, factor):
    """Upsample (H, W, D, C) by integer per-axis factors, trilinear. A
    recorded output's rebuild hook re-runs the forward from x's data and
    the interpolation matrices."""
    if x.data.ndim != 4:
        raise ShapeMismatchError("trilinear_upsample: expected rank-4 input")
    fh, fw, fd = _triple(factor, "factor")
    if min(fh, fw, fd) < 1:
        raise InvalidAxisError("trilinear_upsample: factors must be >= 1")
    dtype = x.data.dtype
    mats = [
        _interp_weights(x.data.shape[i], f).astype(dtype)
        for i, f in enumerate((fh, fw, fd))
    ]
    xd = x.data

    def upsample():
        out = xd
        for axis, mat in enumerate(mats):
            if mat.shape[0] != mat.shape[1]:
                out = _apply_axis(mat, out, axis)
        return out.copy() if out is xd else np.ascontiguousarray(out)

    rx = _rec(x)

    def bw(g):
        gx = g
        for axis, mat in enumerate(mats):
            if mat.shape[0] != mat.shape[1]:
                gx = _apply_axis(mat.T, gx, axis)
        gx = np.ascontiguousarray(gx)
        rx._accum(gx, owned=gx is not g)  # fresh unless every factor is 1

    return _hooked(_make("trilinear_upsample", upsample(), (x,), bw), upsample)
