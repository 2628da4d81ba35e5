"""3D convolutions, differentiable: ``conv3d``, and ``upsample_conv3d``,
the 3x3x3 conv of trilinearly upsampled inputs, which never builds the
upsample.

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
threads, median ms, the rule's form starred:

                         forward             input gradient      kernel gradient
    grid Cin->Cout k   patch  gemm numpy    patch  gemm numpy    patch  taps
    16^3  16->16  3     2.18   1.65*  2.54     2.08   1.47*  2.37     2.20   2.29*
    16^3  80->16  3    18.75   4.48*  7.47     3.39   3.70* 12.14    17.34   6.06*
    16^3  64->16  3    10.60   4.55*  5.15     3.55   3.43*  7.86    13.19   5.65*
    32^3  16->16  3    26.20   9.94* 19.02    27.71   9.29* 18.56    28.70  18.90*
    32^3  16->1   1     0.14   0.14*  0.14     1.83   0.18*  0.98     0.15   0.14*
     8^3   8->8   3     0.15*  0.50   0.31     0.13*  0.46   0.36     0.11*  0.20
     8^3  24->8   3     0.35   0.54   0.37*    0.16*  0.33   0.39     0.41   0.26*
     8^3  32->8   3     0.42   0.54   0.43*    0.16*  0.28   0.47     0.50   0.20*
    16^3   8->8   3     0.90   1.74   0.78*    0.96   1.65   1.10*    0.96   0.63*
    16^3   8->1   1     0.03   0.03*  0.03     0.08   0.04*  0.07     0.01   0.01*

The first five rows are the desk model's conv3d shapes, the last five
the tiny model's; 16^3 80->16 and 32^3 16->16 (8^3 24->8 and 16^3 8->8)
are the convs of the compositions ``upsample_conv3d`` computes without
building the upsample: the fuse conv over the whole upsampled
concatenation and the smooth conv at the full grid. The patch matrix
also wins a few passes past the cap (the desk 64->16 and 80->16 input
gradients and 16->16 kernel gradient, the tiny model's 16^3 input
gradient), but at 3.5 to 7.1 MB a matrix. A single tap at padding 0
(the 1x1x1 projections) reads every row once, so each pass is one
product, with no accumulator to zero and no grid to crop (starred in
the gemm column). Where that product's inner extent is 1 (the
projections' input gradients, Cout = 1), numpy's matmul runs without
BLAS, so it is one gemm instead (``_product``); the numpy column hides
gemm, so there it is a broadcast multiply.

Like every op's closure (see ``tensor``), conv3d's keeps only what its
backward reads: the inputs when the kernel needs a gradient, the kernel
when an input does, never the output or the padded copy. The backward
re-pads x (zeros plus one slice assignment, without ``np.pad``'s
per-call Python cost) wherever the kernel gradient reads it, at every
stride. An input that is a recorded matmul output is kept as its rebuild
hook, not its data, and rebuilt there too.

x may be a list of inputs, read as their concatenation along channels:
each is written into its channel slice of that one padded buffer, so
the GEMMs see the same operand as after a concat, and the input
gradient over the whole Cin is split per input. An optional bias (Cout,)
is added in place on the output and its gradient is the output gradient
summed over the voxels.

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

``upsample_conv3d`` is the 3x3x3, stride-1, padding-1 conv over the
channel concatenation of its inputs, each trilinearly upsampled by its
per-axis factors. The upsample is linear, separable and acts per
channel, so the channels can be mixed first, at the input's resolution,
as in sub-pixel convolution (Shi et al. 2016, arXiv:1609.05158). With U
an axis's (N, n) interpolation matrix (``_interp_weights``) and S_t the
shift by the tap t in {-1, 0, 1}, A_t = S_t U is U with its rows shifted
and zero where they fall past the edge, so both the clamping and the
zero padding stay exact, and

    out = sum over t of (A_t0 x A_t1 x A_t2)(x W_t).

``_shifted_interp`` holds U between two zero rows, so A_-1, A_0, A_1
are three consecutive row windows of one matrix; ``_stacked_interp``
holds the three side by side, so one product with it sums an axis's
taps. Both are cached per (n, factor, dtype), read-only. The op runs
over slabs of output planes along axis 0, as many as keep each slab's
intermediates within ``UPSAMPLE_SLAB_ELEMS`` = 2^17 elements (the
shape alone decides, as with attention's blocks), so its transients
stay far below those of a conv over the built upsample. Per slab:
  1. x interpolated along axis 0 by the slab's rows of the padded
     matrix, and from that the axis-0 patch matrix, rows (a0, i1, i2),
     columns (t0, c);
  2. per axis-1 tap t1, that matrix times the (t0, c) x (t2, co) block
     of w: the only channel mixing, at the input's axis-1 and -2 grid;
  3. each of the three products interpolated along axis 1 by its tap's
     A_t1, and summed;
  4. axis 2 by the stacked matrix, its taps summed inside one GEMM
     batched over (a0, a1), written straight into the output.
The backward applies the transposes in reverse order per slab, and the
kernel gradient rebuilds the slab's patch matrix from x. Inputs whose
factors are all 1 take conv3d's stride-1 passes over their
concatenation, the patch-matrix rule included, and the results add.
The closure keeps what conv3d's keeps. From ``tests/conv_paths.py``:
the op against the composition it replaces (the upsample built, conv3d
over it, the upsample's transpose in the input gradient and the
upsample built again for the kernel gradient), one upsampled input,
factor 2, f32, 2 BLAS threads, median ms:

    upsampled input        forward         input gradient   kernel gradient
    grid Cin->Cout  f    compos.    op     compos.    op     compos.    op
     8^3  64->16   2       4.87   1.27     4.51   1.23     6.91   1.23
    16^3  16->16   2      13.59   5.43    12.05   3.70    22.01   5.55
     4^3  16->8    2       0.41   0.11     0.28   0.12     0.28   0.06
     8^3   8->8    2       0.93   0.25     1.35   0.30     0.90   0.28
"""

from __future__ import annotations

import ctypes
import functools
import glob
import itertools
import os

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import (
    InvalidAxisError,
    ShapeMismatchError,
    _accum_unbroadcast,
    _check_inputs,
    _check_vector,
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


def _product(a, b):
    """a @ b of 2-D operands. numpy runs a product whose inner extent K is
    1 without BLAS (1.9 ms for the desk projection's 32^3 x 16 input
    gradient); there it is one gemm from numpy's OpenBLAS (0.14 ms), or,
    where that symbol is missing, the broadcast multiply a * b (0.9 ms).
    All three are equal bit for bit: each entry is one term."""
    rows, k = a.shape
    if k != 1:
        return a @ b
    gemm = _GEMM.get(a.dtype) if a.dtype == b.dtype else None
    if gemm is None:
        return a * b
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    cols = b.shape[1]
    out = np.empty((rows, cols), dtype=a.dtype)
    gemm(_ROW_MAJOR, _NO_TRANS, _NO_TRANS, rows, cols, 1, 1.0, a.ctypes.data, 1,
         b.ctypes.data, cols, 0.0, out.ctypes.data, cols)
    return out


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
            acc += _product(flat[off : off + rows], tap)
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
    if len(offs) == 1 and xp.shape[:3] == tuple(out_dims):
        # one tap at padding 0 reads every row once: one product, no
        # accumulator to zero and no discarded rows to crop
        return _product(flat, w.reshape(ci, -1)).reshape(tuple(out_dims) + (-1,))
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
    if (wp, dp) == (wo, do):  # no discarded rows: g is the grid
        gs = g.reshape(-1, cout)[:span]
    else:
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




def _conv_inputs(op, x, w, bias):
    """The inputs of a conv as a list, and their channel widths, checked
    against each other, the kernel and the bias: one dtype, rank 4 inputs,
    a rank 5 kernel whose Cin is the sum of the widths, a (Cout,) bias."""
    xs = list(x) if isinstance(x, (list, tuple)) else [x]
    if not xs:
        raise ShapeMismatchError(f"{op}: no inputs")
    _check_inputs(op, *xs, w, *(() if bias is None else (bias,)))
    if any(t.data.ndim != 4 for t in xs) or w.data.ndim != 5:
        raise ShapeMismatchError(
            f"{op}: expected rank-4 inputs and a rank-5 kernel, got "
            f"{[t.data.ndim for t in xs]}/{w.data.ndim}"
        )
    widths = [t.data.shape[3] for t in xs]
    if sum(widths) != w.data.shape[3]:
        raise ShapeMismatchError(
            f"{op}: input channels {sum(widths)} != kernel channels {w.data.shape[3]}"
        )
    if bias is not None:
        _check_vector(op, "bias", bias, w.data.shape[4])
    return xs, widths


def _correlate(xp, w, stride, out_dims, patches):
    """Padded xp (Hp, Wp, Dp, Ci) correlated with w: one GEMM over the
    patch matrix, or (stride 1 only) one GEMM per tap over shifted rows."""
    if not patches:
        return _correlate_taps(xp, w, out_dims)
    cols = _im2col(xp, w.shape[:3], stride, out_dims)
    return (cols @ w.reshape(-1, w.shape[4])).reshape(out_dims + (w.shape[4],))


def _kernel_grad(xp, g, kdims, stride, patches):
    """dL/dw from the padded input and the output gradient, in the form the
    forward took."""
    if not patches:
        return _kernel_grad_taps(xp, g, kdims)
    cin, cout = xp.shape[3], g.shape[3]
    gw = _im2col(xp, kdims, stride, g.shape[:3]).T @ g.reshape(-1, cout)
    return gw.reshape(tuple(kdims) + (cin, cout))


def _split_input_grad(recs, widths, gx, owned):
    """Hand gx, the input gradient over the inputs' channel concatenation,
    to the records that need it, each its channel slice (copied)."""
    if len(recs) == 1:
        recs[0]._accum(gx, owned=owned)
        return
    lo = 0
    for rec, width in zip(recs, widths):
        if rec is not None:
            rec._accum(gx[..., lo : lo + width])  # a view of gx: copied
        lo += width


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
    xs, widths = _conv_inputs("conv3d", x, w, bias)
    in_dims = xs[0].data.shape[:3]
    if any(t.data.shape[:3] != in_dims for t in xs):
        raise ShapeMismatchError(
            f"conv3d: inputs differ in spatial dims {[t.data.shape[:3] for t in xs]}"
        )
    stride = _triple(stride, "stride")
    padding = _triple(padding, "padding")
    if any(s < 1 for s in stride):
        raise InvalidAxisError("conv3d: stride components must be >= 1")
    kdims = w.data.shape[:3]
    out_dims = _conv_out_dims(in_dims, kdims, stride, padding)
    x_shape = in_dims + (sum(widths),)
    unit = stride == (1, 1, 1)

    # strided convs, and stride-1 ones where the rule says so, read the
    # patch matrix, in the forward and again in the kernel gradient
    patches = not unit or _patches_pay(
        out_dims[0] * out_dims[1] * out_dims[2], kdims[0] * kdims[1] * kdims[2], x_shape[3])
    data = _correlate(_pad_inputs([t.data for t in xs], padding), w.data, stride, out_dims,
                      patches)
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
            gw = _kernel_grad(xp, g, kdims, stride, patches)
            del xp
            rw._accum(gw, owned=True)
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
        _split_input_grad(rxs, widths, gx, owned)

    return _make("conv3d", data, tuple(xs) + (w,) + (() if bias is None else (bias,)), bw)


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


@functools.lru_cache(maxsize=64)
def _shifted_interp(n_in, factor, dtype):
    """The interpolation matrix U (N, n_in), N = n_in*factor, between a
    zero row above and one below: (N + 2, n_in) in ``dtype``, cached per
    (n_in, factor, dtype), so read-only. Its rows k .. k+N-1 are
    A_{k-1} = S_{k-1} U, U with its rows shifted by the kernel tap k - 1
    and zero where they fall past the edge, which is the zero padding of a
    3-tap conv over the upsampled axis."""
    mat = np.zeros((n_in * factor + 2, n_in), dtype=dtype)
    mat[1:-1] = _interp_weights(n_in, factor)
    mat.flags.writeable = False
    return mat


@functools.lru_cache(maxsize=64)
def _stacked_interp(n_in, factor, dtype):
    """The three shifted matrices side by side, (N, 3*n_in), column
    3*i + k holding column i of A_{k-1}: one product with it sums an
    axis's three taps where the source index i and the tap k are adjacent
    in the operand. Cached like ``_shifted_interp``."""
    n_out = n_in * factor
    pad = _shifted_interp(n_in, factor, dtype)
    mat = np.stack([pad[k : k + n_out] for k in range(3)], axis=2).reshape(n_out, 3 * n_in)
    mat.flags.writeable = False
    return mat


# the largest per-slab intermediate of upsample_conv3d, in elements
UPSAMPLE_SLAB_ELEMS = 1 << 17


def _slabs(in_dims, out_dims, cin, cout):
    """(lo, hi) output planes (along axis 0) of each slab of an upsampled
    input: as many planes as keep its axis-0 patch matrix (planes * n1 *
    n2, 3 * Cin) and its axis-1 product (planes, N1, n2 * 3 * Cout) within
    ``UPSAMPLE_SLAB_ELEMS`` elements each, and at least one."""
    per_plane = in_dims[2] * max(3 * cin * in_dims[1], 3 * cout * out_dims[1])
    step = max(1, UPSAMPLE_SLAB_ELEMS // per_plane)
    return [(lo, min(lo + step, out_dims[0])) for lo in range(0, out_dims[0], step)]


def upsampled_macs(in_dims, factors, cin, cout):
    """(projection, interpolation) multiply-accumulates of the forward of
    ``upsample_conv3d`` over one (in_dims, cin) input upsampled by
    ``factors``, to Cout channels, as its GEMMs run them (the interpolation
    matrices dense, the axis-0 rows recomputed at every slab's edges). An
    input with every factor 1 is a plain conv: its MACs are all projection."""
    n0, n1, n2 = in_dims
    big0, big1, big2 = (n * f for n, f in zip(in_dims, factors))
    if (big0, big1, big2) == (n0, n1, n2):
        return n0 * n1 * n2 * 27 * cin * cout, 0
    rows0 = sum(hi - lo + 2 for lo, hi in _slabs(in_dims, (big0, big1, big2), cin, cout))
    projection = 27 * big0 * n1 * n2 * cin * cout
    interpolation = (rows0 * n0 * n1 * n2 * cin + 9 * big0 * big1 * n1 * n2 * cout
                     + 3 * big0 * big1 * big2 * n2 * cout)
    return projection, interpolation


def _tap_major(w):
    """(3, 3, 3, Ci, Co) kernel as (3 [t1], 3*Ci [(t0, c)], 3*Co [(t2, co)])."""
    ci, co = w.shape[3], w.shape[4]
    return np.ascontiguousarray(w.transpose(1, 0, 3, 2, 4)).reshape(3, 3 * ci, 3 * co)


def _axis0_columns(ux, planes, plane, ci):
    """(planes * plane, 3 * ci) patch matrix along axis 0 of ux (planes + 2,
    plane * ci): row (a, r) holds rows a, a + 1, a + 2 of ux at r."""
    ux = ux.reshape(planes + 2, plane, ci)
    cols = np.empty((planes, plane, 3, ci), dtype=ux.dtype)
    for t0 in range(3):
        cols[:, :, t0] = ux[t0 : t0 + planes]
    return cols.reshape(planes * plane, 3 * ci)


def _upsampled_correlate(x, w, factors, out, accumulate):
    """The 3x3x3, padding-1 correlation of trilinear_upsample(x, factors)
    with w, written into (or, with ``accumulate``, added onto) ``out``
    (N0, N1, N2, Co), one slab of output planes at a time, without
    building the upsample.

    Per slab: x interpolated along axis 0 by the slab's rows of the
    shifted matrix (A_{-1}..A_1 of axis 0 are its consecutive rows), the
    projection of its axis-0 patch matrix by each axis-1 tap's (t0, c) x
    (t2, co) kernel block, each product interpolated along axis 1 by its
    tap's A and summed, and axis 2 applied by the stacked matrix, which
    sums its three taps in one product batched over (a0, a1)."""
    n0, n1, n2, ci = x.shape
    big0, big1, big2, co = out.shape
    u0 = _shifted_interp(n0, factors[0], x.dtype)
    u1 = _shifted_interp(n1, factors[1], x.dtype)
    b2 = _stacked_interp(n2, factors[2], x.dtype)
    taps = _tap_major(w)
    x0 = x.reshape(n0, -1)
    for lo, hi in _slabs(x.shape, out.shape, ci, co):
        cols = _axis0_columns(u0[lo : hi + 2] @ x0, hi - lo, n1 * n2, ci)
        mixed = None
        for t1 in range(3):
            term = u1[t1 : t1 + big1] @ (cols @ taps[t1]).reshape(hi - lo, n1, -1)
            if mixed is None:
                mixed = term
            else:
                mixed += term
        mixed = mixed.reshape(-1, 3 * n2, co)
        dst = out[lo:hi].reshape(-1, big2, co)
        if accumulate:
            dst += b2 @ mixed
        else:
            np.matmul(b2, mixed, out=dst)


def _upsampled_grads(x, in_shape, g, w, factors, need_x):
    """(dL/dx, dL/dw) of ``_upsampled_correlate`` for output gradient g:
    dL/dx only with ``need_x``, dL/dw only where x is given, else None.

    Per slab, the transposed steps in reverse order: g through the stacked
    axis-2 matrix transposed, then each axis-1 tap's A transposed, giving
    that tap's projection gradient at (a0, i1, i2). The kernel gradient of
    the tap's block is the slab's axis-0 patch matrix, rebuilt from x,
    transposed times it; the patch-matrix gradient, summed over the taps,
    is folded back onto its three rows and through axis 0's shifted
    matrix transposed into dL/dx."""
    n0, n1, n2, ci = in_shape
    big0, big1, big2, co = g.shape
    plane = n1 * n2
    u0 = _shifted_interp(n0, factors[0], g.dtype)
    u1 = _shifted_interp(n1, factors[1], g.dtype)
    b2t = _stacked_interp(n2, factors[2], g.dtype).T
    taps = _tap_major(w) if need_x else None
    x0 = None if x is None else x.reshape(n0, -1)
    gw = None if x is None else np.zeros((3, 3 * ci, 3 * co), dtype=g.dtype)
    gx = np.zeros((n0, plane * ci), dtype=g.dtype) if need_x else None
    for lo, hi in _slabs(in_shape, g.shape, ci, co):
        planes = hi - lo
        mixed = (b2t @ g[lo:hi].reshape(-1, big2, co)).reshape(planes, big1, -1)
        cols = None if x0 is None else _axis0_columns(u0[lo : hi + 2] @ x0, planes, plane, ci)
        dcols = None
        for t1 in range(3):
            dproj = (u1[t1 : t1 + big1].T @ mixed).reshape(planes * plane, 3 * co)
            if cols is not None:
                gw[t1] += cols.T @ dproj
            if need_x:
                term = dproj @ taps[t1].T
                if dcols is None:
                    dcols = term
                else:
                    dcols += term
        if need_x:
            dcols = dcols.reshape(planes, plane, 3, ci)
            dux = np.zeros((planes + 2, plane, ci), dtype=g.dtype)
            for t0 in range(3):
                dux[t0 : t0 + planes] += dcols[:, :, t0]
            gx += u0[lo : hi + 2].T @ dux.reshape(planes + 2, -1)
    if gw is not None:
        gw = gw.reshape(3, 3, ci, 3, co).transpose(1, 0, 3, 2, 4)
    return (None if gx is None else gx.reshape(in_shape)), gw


def upsample_conv3d(x, w, factors, bias=None, relu=False):
    """The 3x3x3, stride-1, padding-1 conv of the channel concatenation of
    trilinear upsamples, without building any upsample; with ``relu=True``
    a relu in place on its output inside this one node, equal bit for bit
    to ``relu(upsample_conv3d(...))``, the mask taken from the output in
    the backward as ``instance_norm(relu=True)`` does.

    x: one (n0, n1, n2, C) input or a list of them, read as the
    concatenation of each input trilinearly upsampled by its factors
    (half-pixel centers, clamped at the ends), in list order; factors: an
    int or per-axis triple for one input, a list of them (one per input)
    for a list. Every input must upsample to the same (N0, N1, N2).
    w: (3, 3, 3, Cin, Cout); optional bias (Cout,).

    Inputs whose factors are all 1 run as one stride-1 conv3d over their
    concatenation (its passes, patch matrix or taps, chosen as there).
    Each other input runs at its own resolution (``_upsampled_correlate``):
    the upsample is linear and acts per channel, so with A_t the per-axis
    interpolation matrix shifted by the tap t, the conv is
    sum over t of (A_t0 x A_t1 x A_t2)(x W_t). The closure keeps the inputs
    (or their rebuild hooks) for the kernel gradient and the kernel for
    the input gradients, as conv3d's does.
    """
    xs, widths = _conv_inputs("upsample_conv3d", x, w, bias)
    if w.data.shape[:3] != (3, 3, 3):
        raise ShapeMismatchError(f"upsample_conv3d: need a 3x3x3 kernel, got {w.data.shape[:3]}")
    if isinstance(x, (list, tuple)):
        if not isinstance(factors, (list, tuple)) or len(factors) != len(xs):
            raise ShapeMismatchError(f"upsample_conv3d: need one factor per input, got {factors}")
        fs = [_triple(f, "factors") for f in factors]
    else:
        fs = [_triple(factors, "factors")]
    if any(min(f) < 1 for f in fs):
        raise InvalidAxisError(f"upsample_conv3d: factors must be >= 1, got {fs}")
    dims = {tuple(n * f for n, f in zip(t.data.shape[:3], fi)) for t, fi in zip(xs, fs)}
    if len(dims) != 1:
        raise ShapeMismatchError(f"upsample_conv3d: inputs upsample to different dims {dims}")
    out_dims = dims.pop()
    cout = w.data.shape[4]
    bounds = [0, *itertools.accumulate(widths)]
    plain = [i for i, f in enumerate(fs) if f == (1, 1, 1)]
    ups = [i for i, f in enumerate(fs) if f != (1, 1, 1)]
    ones = (1, 1, 1)

    def kernel_of(wd, idx):
        parts = [wd[:, :, :, bounds[i] : bounds[i + 1]] for i in idx]
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=3)

    plain_c = sum(widths[i] for i in plain)
    patches = _patches_pay(out_dims[0] * out_dims[1] * out_dims[2], 27, plain_c)
    if plain:
        data = _correlate(_pad_inputs([xs[i].data for i in plain], ones), kernel_of(w.data, plain),
                          ones, out_dims, patches)
    else:
        data = np.empty(out_dims + (cout,), dtype=w.data.dtype)
    for n, i in enumerate(ups):
        _upsampled_correlate(xs[i].data, kernel_of(w.data, [i]), fs[i], data,
                             accumulate=bool(plain) or n > 0)
    if bias is not None:
        data += bias.data
    out = None
    if relu:
        data *= data > 0  # relu's own expression, so a non-finite value stays
        out = data
    rxs, rw = [_rec(t) for t in xs], _rec(w)
    rbias = None if bias is None else _rec(bias)
    kept = [_keep(t) for t in xs] if rw is not None else None
    wd = w.data if any(r is not None for r in rxs) else None
    w_shape = w.data.shape
    shapes = [t.data.shape for t in xs]

    def bw(g):
        if relu:
            g = g * (out > 0)
        gw = np.zeros(w_shape, dtype=g.dtype) if rw is not None else None
        if plain and rw is not None:
            xp = _pad_inputs([_value(kept[i]) for i in plain], ones)
            gw_plain = _kernel_grad(xp, g, (3, 3, 3), ones, patches)
            del xp
            lo = 0
            for i in plain:
                gw[:, :, :, bounds[i] : bounds[i + 1]] = gw_plain[:, :, :, lo : lo + widths[i]]
                lo += widths[i]
        if plain and any(rxs[i] is not None for i in plain):
            shape = out_dims + (plain_c,)
            gx = _input_grad_stride1(g, kernel_of(wd, plain), ones, shape)
            _split_input_grad([rxs[i] for i in plain], [widths[i] for i in plain], gx, True)
        for i in ups:
            if rw is None and rxs[i] is None:
                continue
            x_i = None if rw is None else _value(kept[i])
            w_i = None if rxs[i] is None else kernel_of(wd, [i])
            gx, gw_i = _upsampled_grads(x_i, shapes[i], g, w_i, fs[i], rxs[i] is not None)
            if gw_i is not None:
                gw[:, :, :, bounds[i] : bounds[i + 1]] = gw_i
            if gx is not None:
                rxs[i]._accum(gx, owned=True)
        if gw is not None:
            rw._accum(gw, owned=True)
        if rbias is not None:
            _accum_unbroadcast(rbias, g, g)

    return _make("upsample_conv3d", data, tuple(xs) + (w,) + (() if bias is None else (bias,)),
                 bw)
