"""Shape-fuzzed differential tests of the kernels' fast paths.

Each stride-1 conv3d pass (forward, input gradient, kernel gradient) runs
either as one GEMM over the patch matrix or as shifted-row taps, which
accumulate inside gemm (beta = 1, numpy's own OpenBLAS through ctypes)
or as numpy temporaries; ``conv._patches_pay`` and
``conv._blas_accumulates`` choose from the shape. The properties below
force each form on every draw and compare all three passes against the
loop oracles, as they do the strided path (im2col forward and kernel
gradient, tap scatter-add input gradient) with stride 2 on at least one
axis. Each conv draw also splits its input along channels into a random
list of inputs, which must give the output and gradients of the conv
over their concatenation bit for bit. The attention properties cover
token-major operands of 1, 2 and 3 heads, one query block and several
(the last ragged), logits up to 1e4 and each softmax shift (the bound
inside the score GEMM, the exact row max), against an f64 oracle. The
aliasing property builds random graphs that reuse tensors, where a
gradient handed over without a copy could end up shared between leaves.
"""

import contextlib
import importlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conv_oracles import conv3d_input_grad_taps, conv3d_kernel_grad_taps, conv3d_reference
from conv_paths import MODEL_CONVS, accumulation, forms_taken
from voxseg import autodiff as ad
from voxseg.autodiff import conv
from voxseg.autodiff.tensor import ATTENTION_BLOCK_ELEMS
from voxseg.verify import OP_CASES, case_rng

# the package exports a ``tensor`` function under the module's name
tensor_module = importlib.import_module("voxseg.autodiff.tensor")

PROPERTY = settings(derandomize=True, max_examples=30, deadline=None)
needs_gemm = pytest.mark.skipif(not conv._GEMM, reason="numpy's OpenBLAS gemm not found")


def _close(got, ref):
    np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-5 * np.abs(ref).max())


conv_draws = st.tuples(
    st.tuples(*[st.integers(1, 9)] * 3),  # input dims
    st.tuples(*[st.integers(1, 3)] * 3),  # kernel dims
    st.tuples(*[st.integers(0, 3)] * 3),  # padding, up to more than k - 1
    st.integers(1, 6),  # Cin
    st.integers(1, 6),  # Cout
    st.integers(0, 2**32 - 1),  # data seed
).filter(lambda d: all(n + 2 * p >= k for n, k, p in zip(d[0], d[1], d[2])))


def _conv_matches_oracles(draw, stride, form="by_shape"):
    """f32 forward, kernel gradient and input gradient of one conv3d draw
    against the f64 loop oracles, rtol 1e-5, atol 1e-5 * max|ref|; and the
    same conv over the input split along channels into a random list of
    inputs equal to the conv over their concatenation, bit for bit."""
    dims, kdims, padding, cin, cout, seed = draw
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(dims + (cin,))
    w = rng.standard_normal(kdims + (cin, cout)) * 0.2
    xt, wt = (ad.tensor(a, requires_grad=True, dtype=np.float32) for a in (x, w))
    with accumulation(form):
        out = ad.conv3d(xt, wt, stride=stride, padding=padding)
        g = rng.standard_normal(out.shape)
        ad.backward(ad.reduce_sum(ad.mul(out, ad.tensor(g, dtype=np.float32))))
    cuts = sorted(rng.choice(np.arange(1, cin), int(rng.integers(0, cin)), replace=False))
    xs = [ad.tensor(a, requires_grad=True, dtype=np.float32)
          for a in np.split(xt.numpy(), cuts, axis=3)]
    wl = ad.tensor(wt.numpy(), requires_grad=True, dtype=np.float32)
    with accumulation(form):
        out_l = ad.conv3d(xs, wl, stride=stride, padding=padding)
        ad.backward(ad.reduce_sum(ad.mul(out_l, ad.tensor(g, dtype=np.float32))))
    assert np.array_equal(out_l.numpy(), out.numpy())
    assert np.array_equal(wl.grad, wt.grad)
    for part, ref in zip(xs, np.split(xt.grad, cuts, axis=3), strict=True):
        assert np.array_equal(part.grad, ref)
    x, w, g = (a.astype(np.float32).astype(np.float64) for a in (x, w, g))
    _close(out.numpy(), conv3d_reference(x, w, stride=stride, padding=padding))
    _close(wt.grad, conv3d_kernel_grad_taps(x, g, kdims, stride, padding))
    _close(xt.grad, conv3d_input_grad_taps(g, w, stride, padding, x.shape))


@pytest.mark.parametrize("form", ["patch", pytest.param("gemm", marks=needs_gemm), "numpy",
                                  "by_shape"])
@PROPERTY
@given(draw=conv_draws)
def test_conv3d_stride1_matches_oracles(form, draw):
    _conv_matches_oracles(draw, (1, 1, 1), form)


@PROPERTY
@given(draw=conv_draws, stride=st.tuples(*[st.integers(1, 2)] * 3).filter(lambda s: 2 in s))
def test_conv3d_strided_matches_oracles(draw, stride):
    """Any stride 2: the im2col forward and kernel gradient and the tap
    scatter-add input gradient."""
    _conv_matches_oracles(draw, stride)


@needs_gemm
@PROPERTY
@given(rows=st.integers(1, 300), ci=st.integers(1, 24), co=st.integers(1, 24),
       taps=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       dtype=st.sampled_from([np.float32, np.float64]))
def test_accumulate_taps_gemm_equals_numpy(rows, ci, co, taps, seed, dtype):
    """The helper itself: gemm with beta = 1 and the numpy adds leave the
    same accumulator, from a non-zero start, at any row offsets."""
    rng = np.random.default_rng(seed)
    flat = rng.standard_normal((rows + 40, ci)).astype(dtype)
    offs = [int(o) for o in rng.integers(0, 41, taps)]
    w = rng.standard_normal((taps, ci, co)).astype(dtype)
    start = rng.standard_normal((rows, co)).astype(dtype)
    got, ref = start.copy(), start.copy()
    with accumulation("gemm"):
        conv._accumulate_taps(got, flat, offs, w)
    with accumulation("numpy"):
        conv._accumulate_taps(ref, flat, offs, w)
    np.testing.assert_allclose(got, ref, rtol=1e-5 if dtype == np.float32 else 1e-12,
                               atol=1e-6 * np.abs(ref).max())


# the form the shape rule gives each MODEL_CONVS shape: (forward, input
# gradient, kernel gradient); only the tiny model's 8^3 passes read
# patches, and the one-tap projections are one product
RULE_FORMS = {
    (16, 16, 16, 3): ("gemm", "gemm", "taps"),
    (16, 80, 16, 3): ("gemm", "gemm", "taps"),
    (16, 64, 16, 3): ("gemm", "gemm", "taps"),
    (32, 16, 16, 3): ("gemm", "gemm", "taps"),
    (32, 16, 1, 1): ("product", "product", "taps"),
    (8, 8, 8, 3): ("patch", "patch", "patch"),
    (8, 24, 8, 3): ("numpy", "patch", "taps"),
    (8, 32, 8, 3): ("numpy", "patch", "taps"),
    (16, 8, 8, 3): ("numpy", "numpy", "taps"),
    (16, 8, 1, 1): ("product", "product", "taps"),
}
ON_TAPS = [s for s in MODEL_CONVS if RULE_FORMS[s][0] != "patch"]
ON_PATCHES = [s for s in MODEL_CONVS if "patch" in RULE_FORMS[s]]


@needs_gemm
@pytest.mark.parametrize("grid,cin,cout,k", ON_TAPS)
def test_model_conv_forward_is_bit_identical_to_numpy_adds(rng, grid, cin, cout, k):
    """Every stride-1 conv shape of the desk and tiny models whose forward
    stays on taps: the forward the shape rule picks equals the numpy-adds
    forward bit for bit."""
    x = ad.tensor(rng.standard_normal((grid,) * 3 + (cin,)), dtype=np.float32)
    w = ad.tensor(rng.standard_normal((k,) * 3 + (cin, cout)) * 0.1, dtype=np.float32)
    got = ad.conv3d(x, w, stride=1, padding=k // 2).numpy()
    with accumulation("numpy"):
        ref = ad.conv3d(x, w, stride=1, padding=k // 2).numpy()
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("grid,cin,cout,k", ON_PATCHES)
def test_model_conv_on_patches_matches_oracles(rng, grid, cin, cout, k):
    """Every model shape with a pass on the patch matrix: the f32 forward,
    input gradient and kernel gradient the shape rule gives against the
    f64 loop oracles."""
    x = rng.standard_normal((grid,) * 3 + (cin,)).astype(np.float32)
    w = (rng.standard_normal((k,) * 3 + (cin, cout)) * 0.1).astype(np.float32)
    g = rng.standard_normal((grid,) * 3 + (cout,)).astype(np.float32)
    xt, wt = (ad.tensor(a, requires_grad=True, dtype=np.float32) for a in (x, w))
    out = ad.conv3d(xt, wt, stride=1, padding=k // 2)
    ad.backward(ad.reduce_sum(ad.mul(out, ad.tensor(g, dtype=np.float32))))
    x, w, g = (a.astype(np.float64) for a in (x, w, g))
    unit, pad = (1, 1, 1), (k // 2,) * 3
    _close(out.numpy(), conv3d_reference(x, w, stride=1, padding=pad))
    _close(xt.grad, conv3d_input_grad_taps(g, w, unit, pad, x.shape))
    _close(wt.grad, conv3d_kernel_grad_taps(x, g, (k,) * 3, unit, pad))


@pytest.mark.parametrize("dims,cin,cout", [((16, 16, 16), 8, 1), ((32, 32, 32), 16, 1),
                                            ((3, 4, 5), 1, 6), ((3, 4, 5), 2, 3)])
def test_one_tap_conv_is_one_product(rng, monkeypatch, dims, cin, cout):
    """A 1x1x1 conv at padding 0 runs each pass as one product of the
    flattened operands, bit for bit: no tap accumulation, no grid. Where
    the inner extent is 1 (the models' projection input gradients, or one
    input channel) the product is one gemm, or without that symbol a
    broadcast multiply, both equal to matmul bit for bit."""
    x = rng.standard_normal(dims + (cin,)).astype(np.float32)
    w = (rng.standard_normal((1, 1, 1, cin, cout)) * 0.1).astype(np.float32)
    g = rng.standard_normal(dims + (cout,)).astype(np.float32)
    monkeypatch.setattr(conv, "_accumulate_taps", None)  # any call fails
    xt, wt = (ad.tensor(a, requires_grad=True, dtype=np.float32) for a in (x, w))
    out = ad.conv3d(xt, wt, stride=1, padding=0)
    out._record._backward(g)
    x2, w2, g2 = x.reshape(-1, cin), w.reshape(cin, cout), g.reshape(-1, cout)
    assert np.array_equal(out.numpy(), (x2 @ w2).reshape(out.shape))
    assert np.array_equal(xt.grad, (g2 @ w2.T).reshape(x.shape))
    assert np.array_equal(wt.grad, (x2.T @ g2).reshape(w.shape))
    for a, b in ((g2, w2.T[:1]), (x2, w2[:1])):
        assert np.array_equal(conv._product(a[:, :1], b), a[:, :1] @ b)
        monkeypatch.setattr(conv, "_GEMM", {})
        assert np.array_equal(conv._product(a[:, :1], b), a[:, :1] @ b)
        monkeypatch.undo()


@needs_gemm
def test_model_conv_paths_follow_the_shape_rule():
    """Which form each pass of every model conv takes, seen on the kernels
    it calls: the desk model's 3x3x3 convs accumulate in gemm, the tiny
    model's 8-channel taps through numpy adds, and no desk pass reads a
    patch matrix."""
    assert {shape: forms_taken(*shape) for shape in MODEL_CONVS} == RULE_FORMS


@needs_gemm
def test_gradcheck_draws_a_gemm_conv(monkeypatch):
    """The default ``voxseg gradcheck`` (20 instances, seed 0) checks at least
    one f64 stride-1 conv3d whose forward accumulates inside gemm."""
    calls = []
    gemm = conv._GEMM[np.dtype(np.float64)]
    monkeypatch.setitem(conv._GEMM, np.dtype(np.float64),
                        lambda *args: calls.append(None) or gemm(*args))
    maker = dict(OP_CASES)["conv3d_stride1"]
    rng = case_rng("conv3d_stride1", seed=0)
    with ad.precision("f64"):
        for _ in range(20):
            f, x0 = maker(rng)
            f(ad.tensor(x0))
    assert calls


def test_gradcheck_reaches_every_stride1_form(monkeypatch):
    """The default ``voxseg gradcheck`` (20 instances, seed 0) of the
    stride-1 conv and kernel-gradient cases, run as the suite runs them
    (f64 forward and backward), reads the patch matrix, accumulates taps
    inside gemm and through numpy adds, and takes per-tap kernel
    gradients: no form is left out of the gradient checks."""
    seen = []

    def spy(name, fn):
        return lambda *args: seen.append(name) or fn(*args)

    for name in ("_im2col", "_accumulate_taps", "_kernel_grad_taps"):
        monkeypatch.setattr(conv, name, spy(name, getattr(conv, name)))
    for dtype, gemm in list(conv._GEMM.items()):
        monkeypatch.setitem(conv._GEMM, dtype, spy("gemm", gemm))
    cases = dict(OP_CASES)
    with ad.precision("f64"):
        for case in ("conv3d_stride1", "conv3d_wrt_kernel"):
            rng = case_rng(case, seed=0)
            for _ in range(20):
                f, x0 = cases[case](rng)
                x = ad.tensor(x0, requires_grad=True)
                ad.backward(ad.reduce_sum(f(x)))
    forms = {"patch" if name == "_im2col" else "kernel taps" if name == "_kernel_grad_taps"
             else "gemm" if seen[i + 1 : i + 2] == ["gemm"] else "numpy"
             for i, name in enumerate(seen) if name != "gemm"}
    assert forms == {"patch", "numpy", "kernel taps"} | ({"gemm"} if conv._GEMM else set())


def _tokens(x):
    """(heads, tokens, w) as the op's token-major (tokens, heads * w)."""
    return x.transpose(1, 0, 2).reshape(x.shape[1], -1)


def _attention_oracle(q, k, v, scale, g):
    """f64 softmax(scale q k^T) v and its (dQ, dK, dV) under output gradient
    g, per head of (heads, tokens, w) arrays, token-major."""
    logits = scale * (q @ k.swapaxes(-1, -2))
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    dp = g @ v.swapaxes(-1, -2)
    ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * scale
    return tuple(_tokens(a) for a in (p @ v, ds @ k, ds.swapaxes(-1, -2) @ q,
                                      p.swapaxes(-1, -2) @ g))


@st.composite
def attention_draws(draw, keys=None):
    """(heads, M, N, d, dv, seed); ``keys`` pins N."""
    h = draw(st.sampled_from([1, 2, 3]))
    d, dv = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    if keys is not None:
        n, m = keys, draw(st.integers(1, 96))
    elif draw(st.booleans()):  # one block
        n = draw(st.integers(1, 64))
        m = draw(st.integers(1, 96))
    else:  # several blocks, the last ragged or full
        n = draw(st.integers(300, 600))
        rows = ATTENTION_BLOCK_ELEMS // (h * n)
        m = rows * draw(st.integers(1, 2)) + draw(st.integers(0, rows - 1))
        m = max(m, rows + 1)
    return h, m, n, d, dv, draw(st.integers(0, 2**32 - 1))


def _bound_limit(dtype):
    """The largest softmax shift bound the op uses, -ln(tiny) / 4."""
    return -np.log(np.finfo(dtype).tiny) / 4


def _attention_case(draw, dtype, max_logit=None, max_bound=None, hidden=None):
    """f32 or f64 forward and gradients of one draw against the f64
    oracle, q scaled so that the largest |logit| is ``max_logit`` or the
    largest Cauchy-Schwarz bound |scale q_i| max_j |k_j| is ``max_bound``.
    With ``hidden`` (d >= 2) each head's first key then gets a last
    coordinate that no query sees (theirs is 0), sized so that the
    largest bound is at least ``hidden`` while no logit changes.
    Returns the softmax shift the op took: "shift" or "exact"."""
    heads, m, n, d, dv, seed = draw
    rng = np.random.default_rng(seed)
    q, k = rng.standard_normal((heads, m, d)), rng.standard_normal((heads, n, d))
    v, g = rng.standard_normal((heads, n, dv)), rng.standard_normal((heads, m, dv))
    scale = 0.5
    if hidden is not None:
        q[..., -1] = 0.0
    if max_bound is None:
        q *= max_logit / max(np.abs(scale * q @ k.swapaxes(-1, -2)).max(), 1e-12)
    else:
        k_norm = np.linalg.norm(k, axis=-1).max(axis=-1)[:, None]
        q *= max_bound / max((np.linalg.norm(scale * q, axis=-1) * k_norm).max(), 1e-12)
    if hidden is not None:
        k[:, 0, -1] = hidden / np.linalg.norm(scale * q, axis=-1).max()
    q, k, v, g = (a.astype(dtype) for a in (q, k, v, g))
    ts = [ad.tensor(_tokens(a), requires_grad=True, dtype=dtype) for a in (q, k, v)]
    with _paths_taken() as paths:
        out = ad.attention(*ts, scale, heads=heads)
    ad.backward(ad.reduce_sum(ad.mul(out, ad.tensor(_tokens(g), dtype=dtype))))
    refs = _attention_oracle(*(a.astype(np.float64) for a in (q, k, v)), scale,
                             g.astype(np.float64))
    for got, ref in zip([out.numpy()] + [t.grad for t in ts], refs):
        assert got.dtype == dtype
        _close(got, ref)
    return paths[0]


@contextlib.contextmanager
def _paths_taken():
    """The list of the shifts attention calls took inside the block."""
    paths = []
    bound = tensor_module._score_bound

    def spy(sq, kt):
        b = bound(sq, kt)
        paths.append("exact" if b is None else "shift")
        return b

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor_module, "_score_bound", spy)
        yield paths


@PROPERTY
@given(draw=attention_draws(), max_logit=st.sampled_from([1.0, 10.0]))
def test_attention_f32_matches_f64_oracle(draw, max_logit):
    _attention_case(draw, np.float32, max_logit)


@PROPERTY
@given(draw=attention_draws(), max_logit=st.sampled_from([1.0, 1e2, 1e4]))
def test_attention_f64_matches_oracle_up_to_large_logits(draw, max_logit):
    _attention_case(draw, np.float64, max_logit)


@PROPERTY
@given(draw=attention_draws(), dtype=st.sampled_from([np.float32, np.float64]),
       hide=st.booleans())
def test_attention_shift_follows_the_bound(draw, dtype, hide):
    """Bounds of at most 1 shift inside the score GEMM wherever N > 1; a
    bound twice -ln(tiny) / 4, from a key no query sees, takes the exact
    row max with the same logits."""
    assume(draw[3] >= 2 or not hide)
    hidden = 2 * _bound_limit(dtype) if hide else None
    path = _attention_case(draw, dtype, max_bound=1.0, hidden=hidden)
    assert path == ("shift" if draw[2] > 1 and not hide else "exact")


@PROPERTY
@given(draw=attention_draws(keys=1), dtype=st.sampled_from([np.float32, np.float64]))
def test_attention_one_key_takes_the_exact_path(draw, dtype):
    """One key: the output is v itself and the q and k gradients are
    exactly 0, though a bound of 1 would allow the shift."""
    assert _attention_case(draw, dtype, max_bound=1.0) == "exact"


@PROPERTY
@given(draw=attention_draws(), max_bound=st.sampled_from([1.0, 20.0, 40.0]))
def test_attention_no_grad_forward_is_the_grad_forward(draw, max_bound):
    """The shift depends on values only: a no-grad forward equals a
    recording one bit for bit, on either path."""
    heads, m, n, d, dv, seed = draw
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((m, heads * d)) * (max_bound / np.sqrt(d))
    k, v = rng.standard_normal((n, heads * d)), rng.standard_normal((n, heads * dv))
    outs = []
    for grad in (False, True):
        ts = [ad.tensor(a, requires_grad=grad, dtype=np.float32) for a in (q, k, v)]
        with contextlib.nullcontext() if grad else ad.no_grad():
            out = ad.attention(*ts, 0.5, heads=heads)
        assert out.requires_grad == grad
        outs.append(out.numpy())
    assert np.array_equal(outs[0], outs[1])


@pytest.mark.parametrize("case", ["attention", "attention_blocked"])
def test_gradcheck_attention_takes_both_shifts(case):
    """The default ``voxseg gradcheck`` (20 instances, seed 0) checks the
    attention cases on both softmax shifts."""
    maker = dict(OP_CASES)[case]
    rng = case_rng(case, seed=0)
    with ad.precision("f64"), _paths_taken() as paths:
        for _ in range(20):
            f, x0 = maker(rng)
            f(ad.tensor(x0))
    assert set(paths) == {"shift", "exact"}


# One step of a random program over a pool of (m, c) tensors that starts as
# the leaves x and y: (op, i, j, u, v), where i and j pick pool entries and
# u and v pick (c,) leaves among b, g and s. Any pool entry and any leaf may
# be used any number of times.
program_steps = st.lists(
    st.tuples(st.sampled_from(["add", "sub", "reshape", "matmul", "norm"]),
              st.integers(0, 99), st.integers(0, 99),
              st.integers(0, 2), st.integers(0, 2)),
    min_size=1, max_size=7)


def _run_program(steps, proj, use, fused):
    """The program's scalar loss. ``use(name)`` gives the tensor standing for
    leaf ``name`` at one use; ``fused`` picks the fused ops or the add / mul
    chain they replace."""
    pool = [use("x"), use("y")]
    vec = "bgs"
    for op, i, j, u, v in steps:
        a, b = pool[i % len(pool)], pool[j % len(pool)]
        if op == "add":
            out = ad.add(a, b)
        elif op == "sub":
            out = ad.sub(a, b)
        elif op == "reshape":
            out = ad.reshape(ad.reshape(a, (-1,)), a.shape)
        elif op == "matmul" and fused:
            out = ad.matmul(a, use("w"), bias=use(vec[u]))
        elif op == "matmul":
            out = ad.add(ad.matmul(a, use("w")), use(vec[u]))
        elif fused:
            out = ad.layer_norm(a, gain=use(vec[u]), shift=use(vec[v]))
        else:
            out = ad.add(ad.mul(ad.layer_norm(a), use(vec[u])), use(vec[v]))
        pool.append(out)
    return ad.add(ad.reduce_sum(ad.mul(pool[-1], proj)),
                  ad.reduce_sum(pool[len(pool) // 2]))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(steps=program_steps, m=st.integers(1, 4), c=st.integers(2, 4),
       seed=st.integers(0, 2**32 - 1))
def test_reused_tensors_get_unaliased_exact_gradients(steps, m, c, seed):
    """Leaf gradients of a graph that reuses tensors across add / sub /
    reshape / biased matmul / affine layer_norm chains equal an f64
    reference in which every use is a leaf of its own and nothing is fused,
    on the first pass and accumulated on the second; no two leaves'
    gradients share memory."""
    rng = np.random.default_rng(seed)
    shapes = {"x": (m, c), "y": (m, c), "w": (c, c), "b": (c,), "g": (c,), "s": (c,)}
    data = {k: rng.standard_normal(v) for k, v in shapes.items()}
    copies = {k: [] for k in data}

    def use_copy(name):
        copies[name].append(ad.tensor(data[name].copy(), requires_grad=True))
        return copies[name][-1]

    with ad.precision("f64"):
        proj = ad.tensor(rng.standard_normal((m, c)))
        leaves = {k: ad.tensor(a, requires_grad=True) for k, a in data.items()}
        loss = _run_program(steps, proj, leaves.__getitem__, fused=True)
        ad.backward(_run_program(steps, proj, use_copy, fused=False))
        for passes in (1, 2):
            ad.backward(loss)
            for name, leaf in leaves.items():
                ref = sum((t.grad for t in copies[name] if t.grad is not None),
                          np.zeros(shapes[name]))
                got = np.zeros(shapes[name]) if leaf.grad is None else leaf.grad
                np.testing.assert_allclose(got, passes * ref, rtol=1e-9,
                                           atol=1e-12 * max(1.0, np.abs(ref).max()))
    grads = [t.grad for t in leaves.values() if t.grad is not None]
    for i, a in enumerate(grads):
        assert not any(np.shares_memory(a, b) for b in grads[i + 1:])
