"""Time the forms of each stride-1 conv3d pass at the models' shapes, and
upsample_conv3d against the upsample-then-conv3d composition.

    PYTHONPATH=src python tests/conv_paths.py [grid,cin,cout,k ...]

For every shape of ``MODEL_CONVS`` (or the shapes given), f32, padding
k // 2, prints the median ms of the forward, the input gradient and the
kernel gradient in each form: one GEMM over the patch matrix (patch),
shifted-row taps accumulated inside gemm (gemm) or through numpy adds
(numpy); the kernel gradient's taps are one form (taps). A star marks
the form that ``conv._patches_pay`` and ``conv._blas_accumulates`` give
the pass. Without arguments it then prints, for every ``UPSAMPLE_CONVS``
input, the same three passes of ``upsample_conv3d`` beside those of the
composition it replaces: the upsample built (the tests' oracle), conv3d
over it (the form its shape picks), and in the input gradient the
upsample's transpose; the kernel gradient builds the upsample again, as
a rebuilt input did. The conv.py tables are built from this output.
"""

import contextlib
import sys

import numpy as np
import pytest

from conv_oracles import trilinear_upsample, trilinear_upsample_adjoint
from helpers import median_ms
from voxseg import autodiff as ad
from voxseg.autodiff import conv

# (grid, Cin, Cout, kernel) of every stride-1 conv3d of both models, and
# of the fuse convs over the whole concatenation (16^3 80 -> 16, 8^3
# 24 -> 8) and the smooth convs at the full grid (32^3 and 16^3) that
# upsample_conv3d replaced
MODEL_CONVS = [
    (16, 16, 16, 3), (16, 80, 16, 3), (16, 64, 16, 3), (32, 16, 16, 3), (32, 16, 1, 1),
    (8, 8, 8, 3), (8, 24, 8, 3), (8, 32, 8, 3), (16, 8, 8, 3), (16, 8, 1, 1),
]

# (grid, Cin, Cout, factor) of the upsampled input of every upsample_conv3d
# of both models: the desk fuse and smooth convs, then the tiny model's
UPSAMPLE_CONVS = [(8, 64, 16, 2), (16, 16, 16, 2), (4, 16, 8, 2), (8, 8, 8, 2)]

FORMS = ("patch", "gemm", "numpy")


@contextlib.contextmanager
def accumulation(form):
    """Every stride-1 pass as one patch-matrix GEMM, every one as taps
    accumulated inside gemm, every one as taps through numpy adds (gemm
    symbol hidden), or (any other ``form``) what the shape rule picks."""
    with pytest.MonkeyPatch.context() as mp:
        if form in ("gemm", "numpy"):
            mp.setattr(conv, "_patches_pay", lambda rows, taps, channels: False)
            mp.setattr(conv, "_blas_accumulates", lambda rows, cout: True)
        if form == "numpy":
            mp.setattr(conv, "_GEMM", {})
        elif form == "patch":
            mp.setattr(conv, "_patches_pay", lambda rows, taps, channels: True)
        yield


@contextlib.contextmanager
def passes(grid, cin, cout, k, seed=0):
    """Zero-argument callables running the (forward, input gradient, kernel
    gradient) of one f32 stride-1 conv at padding k // 2, each pass alone.
    Enter it inside ``accumulation``: the forward picks the form that the
    kernel gradient takes too."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((grid,) * 3 + (cin,)).astype(np.float32)
    w = (rng.standard_normal((k,) * 3 + (cin, cout)) * 0.1).astype(np.float32)
    g = rng.standard_normal((grid,) * 3 + (cout,)).astype(np.float32)
    pad = k // 2
    with ad.precision("f32"):
        xt, wt = ad.tensor(x), ad.tensor(w)

        def forward():
            with ad.no_grad():
                ad.conv3d(xt, wt, padding=pad)

        def backward_toward(needs):
            xg = ad.tensor(x, requires_grad=needs == "x")
            wg = ad.tensor(w, requires_grad=needs == "w")
            rec = (xg if needs == "x" else wg)._record
            node = ad.conv3d(xg, wg, padding=pad)._record

            def step():
                node._backward(g)
                rec.grad = None

            return step

        yield forward, backward_toward("x"), backward_toward("w")


def forms_taken(grid, cin, cout, k):
    """The form the shape rule gives (forward, input gradient, kernel
    gradient): "patch", "gemm" or "numpy" taps, or the kernel gradient's
    "taps", seen by spying on the kernels each pass calls."""
    seen = []
    with pytest.MonkeyPatch.context() as mp, passes(grid, cin, cout, k) as fns:
        for name in ("_im2col", "_accumulate_taps", "_kernel_grad_taps"):
            fn = getattr(conv, name)
            mp.setattr(conv, name, lambda *a, _fn=fn, _name=name: seen.append(_name) or _fn(*a))
        for dtype, gemm in list(conv._GEMM.items()):
            mp.setitem(conv._GEMM, dtype, lambda *a, _gemm=gemm: seen.append("gemm") or _gemm(*a))
        forms = []
        for fn in fns:
            seen.clear()
            fn()
            if "_accumulate_taps" in seen:
                forms.append("gemm" if "gemm" in seen else "numpy")
            else:
                forms.append("taps" if "_kernel_grad_taps" in seen else "patch")
    return tuple(forms)


def time_passes(grid, cin, cout, k, form):
    """Median ms of (forward, input gradient, kernel gradient) in ``form``."""
    with accumulation(form), passes(grid, cin, cout, k) as fns:
        return tuple(median_ms(fn) for fn in fns)


@contextlib.contextmanager
def upsample_passes(grid, cin, cout, factor, seed=0):
    """((op passes), (composition passes)): zero-argument callables running
    the forward, input gradient and kernel gradient of f32
    upsample_conv3d over one (grid^3, cin) input upsampled by ``factor``,
    and of the composition it replaces."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((grid,) * 3 + (cin,)).astype(np.float32)
    w = (rng.standard_normal((3, 3, 3, cin, cout)) * 0.1).astype(np.float32)
    g = rng.standard_normal((grid * factor,) * 3 + (cout,)).astype(np.float32)
    up = trilinear_upsample(x, factor).astype(np.float32)
    with ad.precision("f32"):
        xt, wt = ad.tensor(x), ad.tensor(w)

        def backward_toward(op, needs):
            xg = ad.tensor(x if op is ad.upsample_conv3d else up, requires_grad=needs == "x")
            wg = ad.tensor(w, requires_grad=needs == "w")
            rec = (xg if needs == "x" else wg)._record
            node = (ad.upsample_conv3d(xg, wg, factor) if op is ad.upsample_conv3d
                    else ad.conv3d(xg, wg, padding=1))._record

            def step():
                node._backward(g)
                if op is ad.conv3d and needs == "x":
                    trilinear_upsample_adjoint(rec.grad, x.shape[:3], factor)
                rec.grad = None

            return step

        def op_forward():
            with ad.no_grad():
                ad.upsample_conv3d(xt, wt, factor)

        def composition_forward():
            with ad.no_grad():
                ad.conv3d(ad.tensor(trilinear_upsample(x, factor).astype(np.float32)), wt,
                          padding=1)

        kernel_grad = backward_toward(ad.conv3d, "w")

        def composition_kernel_grad():
            trilinear_upsample(x, factor).astype(np.float32)
            kernel_grad()

        yield ((op_forward, backward_toward(ad.upsample_conv3d, "x"),
                backward_toward(ad.upsample_conv3d, "w")),
               (composition_forward, backward_toward(ad.conv3d, "x"), composition_kernel_grad))


def main(argv):
    shapes = [tuple(int(v) for v in a.split(",")) for a in argv] or MODEL_CONVS
    print("                     forward             input gradient      kernel gradient")
    print("grid Cin->Cout k   patch  gemm numpy    patch  gemm numpy    patch  taps")
    for grid, cin, cout, k in shapes:
        times = {form: time_passes(grid, cin, cout, k, form) for form in FORMS}
        rule = forms_taken(grid, cin, cout, k)
        line = f"{grid:>2}^3 {cin:>3}->{cout:<3} {k} "
        for i, forms in enumerate((FORMS, FORMS, ("patch", "taps"))):
            # the kernel gradient's taps are one code path: time it as "gemm"
            cells = [times["gemm" if f == "taps" else f][i] for f in forms]
            line += "  " + "".join(
                f"{c:6.2f}{'*' if f == rule[i] else ' '}" for f, c in zip(forms, cells))
        print(line.rstrip())
    if argv:
        return
    print()
    print("upsampled input        forward         input gradient   kernel gradient")
    print("grid Cin->Cout  f    compos.    op     compos.    op     compos.    op")
    for grid, cin, cout, factor in UPSAMPLE_CONVS:
        with upsample_passes(grid, cin, cout, factor) as (op, composition):
            cells = [(median_ms(c), median_ms(o)) for c, o in zip(composition, op)]
        print(f"{grid:>2}^3 {cin:>3}->{cout:<3} {factor:>2}  "
              + "".join(f"{c:9.2f}{o:7.2f}" for c, o in cells))


if __name__ == "__main__":
    main(sys.argv[1:])
