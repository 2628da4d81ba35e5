"""3D convolution and trilinear upsampling, differentiable.

Layout is channels-last throughout: activations (H, W, D, C), kernels
(kh, kw, kd, Cin, Cout).

Stride 1 on every axis (every conv of the decoder) builds no patch
matrix. Flattened to rows, the padded input (Hp, Wp, Dp, Cin) holds the
voxel that kernel tap (i, j, k) reads for output (a, b, c) at row
r + off, with r = a*Wp*Dp + b*Dp + c and off = i*Wp*Dp + j*Dp + k. So
each tap is one GEMM over a contiguous row slice, accumulated on the
(Ho, Wp, Dp) row grid, from which the valid (Ho, Wo, Do) block is
cropped (implicit GEMM, Chetlur et al. 2014, arXiv:1410.0759). The rows
with b >= Wo or c >= Do are computed and discarded: 13% more rows than
outputs at 32^3, 27% at 16^3 (3x3x3, padding 1).

How the taps accumulate is chosen from the shape alone
(``_blas_accumulates``). Where it pays, each tap is one gemm with
beta = 1 from numpy's own OpenBLAS (the library and thread pool that
serve ``np.matmul``, reached through ctypes), which adds its product
straight into the accumulator rows. Elsewhere, and wherever that symbol
is missing, each product is a numpy temporary added into the
accumulator. At every stride-1 conv shape of the desk and tiny models
the two give bit-identical results (tested). Shifted-row correlation of
a 3x3x3 conv, padding 1, f32, 2 BLAS threads, median ms:

    grid  Cin->Cout  numpy   gemm      grid  Cin->Cout  numpy   gemm
    8^3     8->8      0.28   0.47      16^3   16->16     2.43   1.54
    8^3    16->16     0.41   0.40      16^3   16->80    11.32   7.71
    14^3   16->16     1.34   1.19      16^3   64->16     5.13   4.10
    16^3    8->8      1.15   2.06      24^3    8->8      3.88   2.44
    16^3   12->12     1.58   2.67      32^3    8->8     10.01   5.54
    20^3    8->8      2.08   3.83      32^3   16->16    20.13  10.59
    32^3    4->4      4.89  14.04

gemm with beta = 1 loses where Cout is under 16 on grids up to 20^3,
and where Cout is 4 even at 32^3 (OpenBLAS's paths for skinny C), and
gains little below 16^3; so it runs for Cout >= 16 over >= 4096 rows,
or Cout >= 8 over >= 12288 rows (the left column keeps numpy adds, the
right one takes gemm). That keeps every conv of the tiny model (8
channels, grids up to 16^3) on numpy adds and every 3x3x3 conv of the
desk model on gemm; 16->80 is the desk fuse conv's input gradient.

Backward of a stride-1 conv3d:
  * kernel gradient: the output gradient embedded in the same row grid,
    zeros at the discarded rows; each tap is one GEMM, the tap's row
    slice of the padded input transposed times that grid;
  * input gradient: the transposed convolution, i.e. the output gradient
    padded by k-1-p per side (cropped where p > k-1) and correlated with
    the spatially flipped kernel, Cin and Cout swapped. It runs as the
    shifted-row GEMMs above, except when Cin > Cout and those would
    accumulate through numpy adds: then it is one GEMM over the im2col
    patch matrix of the padded output gradient, whose patches are only
    Cout wide (8^3, 24->8: 0.28 ms against 0.63 ms for 27 Cin-wide
    numpy accumulations; 16^3, 64->16 on gemm: 3.8 ms against 4.1 ms).

Strided convs (the patch embedding and the first conv of each image
branch, which read the raw volume) lower to one GEMM over the im2col
patch matrix (Ho*Wo*Do, kh*kw*kd*Cin), rebuilt for the kernel gradient;
their input gradient is a loop over the kernel taps, each a strided
scatter-add of (output gradient @ tap^T). The transposed-convolution
form would need zero insertion, multiplying its work by the product of
the strides.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import (
    InvalidAxisError,
    ShapeMismatchError,
    Tensor,
    _check_inputs,
    _make,
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


def _pad_spatial(x, padding):
    ph, pw, pd = padding
    if ph == pw == pd == 0:
        return x
    return np.pad(x, ((ph, ph), (pw, pw), (pd, pd), (0, 0)))


def _im2col(xp, kdims, stride, out_dims):
    """(Hp, Wp, Dp, Ci) -> (Ho*Wo*Do, kh*kw*kd*Ci) patch matrix."""
    kh, kw, kd = kdims
    sh, sw, sd = stride
    win = sliding_window_view(xp, (kh, kw, kd), axis=(0, 1, 2))
    win = win[::sh, ::sw, ::sd]  # (Ho, Wo, Do, Ci, kh, kw, kd)
    cols = win.transpose(0, 1, 2, 4, 5, 6, 3)  # kernel taps before channels
    n = out_dims[0] * out_dims[1] * out_dims[2]
    return np.ascontiguousarray(cols).reshape(n, -1)


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


def _tap_rows(padded_dims, kdims):
    """Row offset of each kernel tap in the flattened padded grid, and the
    row count every tap can read (the last valid output row plus one)."""
    hp, wp, dp = padded_dims
    offs = [i * wp * dp + j * dp + k
            for i in range(kdims[0]) for j in range(kdims[1]) for k in range(kdims[2])]
    return offs, hp * wp * dp - offs[-1]


def _correlate_stride1(xp, w, out_dims):
    """Stride-1 correlation of padded xp (Hp, Wp, Dp, Ci) with w
    (kh, kw, kd, Ci, Co) as one GEMM per tap over shifted row slices."""
    _, wp, dp, ci = xp.shape
    ho, wo, do = out_dims
    offs, span = _tap_rows(xp.shape[:3], w.shape[:3])
    flat = xp.reshape(-1, ci)
    acc = np.zeros((ho * wp * dp, w.shape[4]), dtype=xp.dtype)
    _accumulate_taps(acc[:span], flat, offs, w.reshape(len(offs), ci, -1))
    return np.ascontiguousarray(acc.reshape(ho, wp, dp, -1)[:, :wo, :do])


def _kernel_grad_stride1(xp, g, kdims):
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
    rows = x_shape[0] * gp.shape[1] * gp.shape[2]  # the shifted-row accumulator's
    if cin > cout and not _blas_accumulates(rows, cin):
        cols = _im2col(gp, kdims, (1, 1, 1), x_shape[:3])
        return (cols @ wt.reshape(-1, cin)).reshape(x_shape)
    return _correlate_stride1(gp, wt, x_shape[:3])


def conv3d(x, w, stride=1, padding=0):
    """Strided 3D convolution (cross-correlation), channels-last.

    x: (H, W, D, Cin); w: (kh, kw, kd, Cin, Cout). Output dims follow the
    floor convention (H + 2p - k) // s + 1.
    """
    _check_inputs("conv3d", x, w)
    if x.data.ndim != 4 or w.data.ndim != 5:
        raise ShapeMismatchError(
            f"conv3d: expected rank-4 input and rank-5 kernel, got {x.data.ndim}/{w.data.ndim}"
        )
    if x.data.shape[3] != w.data.shape[3]:
        raise ShapeMismatchError(
            f"conv3d: input channels {x.data.shape[3]} != kernel channels {w.data.shape[3]}"
        )
    stride = _triple(stride, "stride")
    padding = _triple(padding, "padding")
    if any(s < 1 for s in stride):
        raise InvalidAxisError("conv3d: stride components must be >= 1")
    kdims = w.data.shape[:3]
    cout = w.data.shape[4]
    out_dims = _conv_out_dims(x.data.shape[:3], kdims, stride, padding)
    unit = stride == (1, 1, 1)

    xp = _pad_spatial(x.data, padding)
    if unit:
        data = _correlate_stride1(xp, w.data, out_dims)
    else:
        cols = _im2col(xp, kdims, stride, out_dims)
        data = (cols @ w.data.reshape(-1, cout)).reshape(out_dims + (cout,))

    def bw(g):
        if w.requires_grad and unit:
            w._accum(_kernel_grad_stride1(xp, g, kdims), owned=True)
        elif w.requires_grad:
            # im2col is recomputed from the cached padded input: trades one
            # patch-copy for not holding the (N, K) matrix across the step.
            gw = _im2col(xp, kdims, stride, out_dims).T @ g.reshape(-1, cout)
            w._accum(gw.reshape(w.data.shape), owned=True)
        if x.requires_grad and unit:
            x._accum(_input_grad_stride1(g, w.data, padding, x.data.shape), owned=True)
        elif x.requires_grad:
            gx = np.zeros_like(xp)
            gout = g  # (Ho, Wo, Do, Cout)
            sh, sw, sd = stride
            ho, wo, do = out_dims
            for i in range(kdims[0]):
                for j in range(kdims[1]):
                    for k in range(kdims[2]):
                        contrib = gout @ w.data[i, j, k].T  # (Ho, Wo, Do, Cin)
                        gx[
                            i : i + sh * ho : sh,
                            j : j + sw * wo : sw,
                            k : k + sd * do : sd,
                        ] += contrib
            ph, pw, pd = padding
            h, wdt, d = x.data.shape[:3]
            x._accum(gx[ph : ph + h, pw : pw + wdt, pd : pd + d])

    return _make("conv3d", data, (x, w), bw)


def _interp_weights(n_in, factor):
    """(n_in*factor, n_in) row-stochastic linear interpolation matrix.

    Output sample o reads source coordinate (o + 0.5)/factor − 0.5, clamped
    at the ends (half-pixel-center convention).
    """
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


def _apply_axis(mat, arr, axis):
    moved = np.moveaxis(arr, axis, 0)
    flat = mat @ moved.reshape(moved.shape[0], -1)
    flat = flat.reshape((mat.shape[0],) + moved.shape[1:])
    return np.moveaxis(flat, 0, axis)


def trilinear_upsample(x, factor):
    """Upsample (H, W, D, C) by integer per-axis factors, trilinear."""
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
    data = x.data
    for axis, mat in enumerate(mats):
        if mat.shape[0] != mat.shape[1]:
            data = _apply_axis(mat, data, axis)
    data = data.copy() if data is x.data else np.ascontiguousarray(data)

    def bw(g):
        gx = g
        for axis, mat in enumerate(mats):
            if mat.shape[0] != mat.shape[1]:
                gx = _apply_axis(mat.T, gx, axis)
        x._accum(np.ascontiguousarray(gx))

    return _make("trilinear_upsample", data, (x,), bw)
