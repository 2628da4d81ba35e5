"""Reverse-mode differentiable tensors over flat numpy buffers.

A Tensor wraps an ndarray plus an optional gradient buffer. Operations
build an implicit acyclic graph by recording, on each result, the parents
that require gradients and a closure that scatters the result's gradient
back onto them. ``backward(loss)`` topologically sorts that graph and
visits every node exactly once. Leaf ``.grad`` accumulates across repeated
calls; an interior node's gradient is dropped as soon as its closure has
consumed it, so interior ``.grad`` is ``None`` after every pass.

Two precision modes exist: float32 (training) and float64 (gradient
checking). The mode is a process-global default applied when leaf tensors
are created; mixing dtypes inside one graph is rejected.

Non-finite values are caught where they appear: leaves when created
(``Tensor.__init__``) and every op's output in ``_make``, which raises
``NonFiniteError("<op>: non-finite output")``; op inputs are not
scanned. ``scope(name)`` prefixes such an error with ``name/``.

Conventions baked into the derivatives:
  * relu'(0) = 0
  * clamp passes gradient only strictly inside [lo, hi]
  * gelu is the tanh approximation

Fused op: ``attention(q, k, v, scale)`` computes
P = softmax(scale * q k^T over keys) and returns P v as a single node. Its
inputs are all rank 2 (tokens, dim) or all rank 3 (heads, tokens, dim);
it is the only softmax in the op set. It runs over blocks of query rows
and keeps only the row log-sum-exp L, never P or the scores, so what it
retains grows linearly with the token count. Its bookkeeping rides in
its GEMMs: the scale in q, the row sum as a ones column appended to v
(the output is divided by it, not P), and in the backward -L and
-D = -rowsum(g * out) as extra columns of the score and dP GEMMs:
P = exp([scale q, -L] [k, 1]^T), dS = P * ([g, -D] [v, 1]^T),
dV = P^T g, dQ = dS (scale k), dK = dS^T (scale q). That leaves three
elementwise passes over each block of scores in the forward (row max,
shift, exp) and two in the backward (exp, the product with P).
"""

from __future__ import annotations

import contextlib

import numpy as np


class AutodiffError(Exception):
    """Base class; ``code`` is a stable machine-readable tag."""

    code = "autodiff"


class ShapeMismatchError(AutodiffError):
    code = "shape_mismatch"


class InvalidAxisError(AutodiffError):
    code = "invalid_axis"


class NonFiniteError(AutodiffError):
    code = "non_finite"


class DtypeMismatchError(AutodiffError):
    code = "dtype_mismatch"


class GraphError(AutodiffError):
    code = "graph"


_DTYPES = {"f32": np.float32, "f64": np.float64}
_default_dtype = np.float32
_grad_enabled = True


def set_default_dtype(mode):
    """Set the global precision mode ('f32' or 'f64')."""
    global _default_dtype
    if mode not in _DTYPES:
        raise ValueError(f"unknown precision mode {mode!r}")
    _default_dtype = _DTYPES[mode]


def default_dtype():
    return _default_dtype


@contextlib.contextmanager
def precision(mode):
    """Temporarily switch the global precision mode."""
    global _default_dtype
    saved = _default_dtype
    set_default_dtype(mode)
    try:
        yield
    finally:
        _default_dtype = saved


@contextlib.contextmanager
def no_grad():
    """Disable graph recording (inference / timing runs)."""
    global _grad_enabled
    saved = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = saved


@contextlib.contextmanager
def scope(name):
    """Name a block of ops: a ``NonFiniteError`` raised inside it is re-raised
    as ``"{name}/{message}"``, so nested scopes read outermost first."""
    try:
        yield
    except NonFiniteError as exc:
        raise NonFiniteError(f"{name}/{exc}") from exc


class Tensor:
    """n-dimensional array node in a differentiable computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype or _default_dtype)
        if not np.isfinite(arr).all():
            raise NonFiniteError("tensor initialized with non-finite values")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    # -- inspection ---------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def numpy(self):
        return self.data

    def item(self):
        if self.data.size != 1:
            raise GraphError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype}{flag})"

    # -- graph plumbing -----------------------------------------------------

    def _accum(self, g, owned=False):
        """Add ``g`` into ``.grad``. ``owned`` says the op has just allocated
        ``g`` and hands it to this tensor alone, so a first gradient is taken
        over without a copy. Views, broadcasts and a ``g`` that reaches two
        parents are copied."""
        if self.grad is None:
            if owned and g.dtype == self.data.dtype:
                self.grad = g
            else:
                self.grad = g.astype(self.data.dtype, copy=True)
        else:
            self.grad += g

    def backward(self):
        backward(self)

    # -- operators ----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_lift(other, self), self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_lift(other, self), self)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def sum(self, axis=None):
        return reduce_sum(self, axis)

    def mean(self, axis=None):
        return reduce_mean(self, axis)


def tensor(data, requires_grad=False, dtype=None):
    """Create a leaf tensor in the current precision mode."""
    return Tensor(data, requires_grad=requires_grad, dtype=dtype)


def _lift(value, like):
    """Lift a scalar / ndarray constant to a non-grad Tensor matching ``like``'s dtype."""
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value), dtype=like.data.dtype)


def _check_inputs(op, *tensors):
    dt = tensors[0].data.dtype
    for t in tensors:
        if t.data.dtype != dt:
            raise DtypeMismatchError(
                f"{op}: mixed dtypes {dt} and {t.data.dtype} in one graph"
            )


def _make(op, data, parents, backward_fn):
    """Wrap ``op``'s result, rejecting non-finite values; records graph
    edges only toward grad-requiring parents."""
    if not np.isfinite(data).all():
        raise NonFiniteError(f"{op}: non-finite output")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    need = _grad_enabled and any(p.requires_grad for p in parents)
    out.requires_grad = need
    out._parents = tuple(p for p in parents if p.requires_grad) if need else ()
    out._backward = backward_fn if need else None
    return out


def _topo(root):
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def backward(loss):
    """Populate ``.grad`` on every grad-requiring ancestor of a scalar loss.

    Leaf gradients accumulate across repeated calls. Each interior node's
    gradient is released right after its closure has scattered it onto the
    parents, so interior ``.grad`` is ``None`` once the pass returns and the
    step never holds every intermediate gradient at once. Interior buffers
    are also cleared before seeding, so a pass interrupted by an exception
    cannot leave a stale gradient for the next call to compound.
    """
    if not isinstance(loss, Tensor):
        raise GraphError("backward expects a Tensor")
    if loss.data.size != 1:
        raise GraphError("backward requires a scalar loss")
    if not loss.requires_grad:
        return
    order = _topo(loss)
    for node in order:
        if node._backward is not None:
            node.grad = None
    loss._accum(np.ones_like(loss.data))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node.grad = None


# ---------------------------------------------------------------------------
# elementwise / arithmetic ops
# ---------------------------------------------------------------------------


def _unbroadcast(g, shape):
    """Sum a broadcast gradient back down to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def _binary(op_name, a, b, fwd, da_fn, db_fn):
    a = a if isinstance(a, Tensor) else Tensor(np.asarray(a), dtype=b.data.dtype)
    b = b if isinstance(b, Tensor) else Tensor(np.asarray(b), dtype=a.data.dtype)
    _check_inputs(op_name, a, b)
    try:
        data = fwd(a.data, b.data)
    except ValueError as exc:
        raise ShapeMismatchError(f"{op_name}: {exc}") from exc

    def bw(g):
        # a derivative that is g itself (add, sub) reaches both parents
        if a.requires_grad:
            ga = _unbroadcast(da_fn(g, a.data, b.data), a.data.shape)
            a._accum(ga, owned=ga is not g)
        if b.requires_grad:
            gb = _unbroadcast(db_fn(g, a.data, b.data), b.data.shape)
            b._accum(gb, owned=gb is not g)

    return _make(op_name, data, (a, b), bw)


def add(a, b):
    return _binary("add", a, b, lambda x, y: x + y,
                   lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b):
    return _binary("sub", a, b, lambda x, y: x - y,
                   lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b):
    return _binary("mul", a, b, lambda x, y: x * y,
                   lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a, b):
    return _binary("div", a, b, lambda x, y: x / y,
                   lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y))


def scale(x, s):
    """Multiply by a plain python scalar constant."""
    s = float(s)
    data = x.data * np.asarray(s, dtype=x.data.dtype)

    def bw(g):
        x._accum(g * np.asarray(s, dtype=x.data.dtype), owned=True)

    return _make("scale", data, (x,), bw)


def neg(x):
    return scale(x, -1.0)


def relu(x):
    mask = x.data > 0
    data = x.data * mask  # a non-finite input stays non-finite here

    def bw(g):
        x._accum(g * mask, owned=True)

    return _make("relu", data, (x,), bw)


_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715


def gelu(x):
    """Tanh-approximated gelu."""
    xd = x.data
    c = np.asarray(_GELU_C, dtype=xd.dtype)
    a = np.asarray(_GELU_A, dtype=xd.dtype)
    inner = c * (xd + a * (xd * xd * xd))  # f32 `** 3` is a slow generic pow
    t = np.tanh(inner)
    data = 0.5 * xd * (1.0 + t)
    data = data.astype(xd.dtype, copy=False)

    def bw(g):
        sech2 = 1.0 - t * t
        d = 0.5 * (1.0 + t) + 0.5 * xd * sech2 * c * (1.0 + 3.0 * a * xd * xd)
        x._accum(g * d.astype(xd.dtype, copy=False), owned=True)

    return _make("gelu", data, (x,), bw)


def sigmoid(x):
    xd = x.data
    out = np.empty_like(xd)
    pos = xd >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    e = np.exp(xd[~pos])
    out[~pos] = e / (1.0 + e)

    def bw(g):
        x._accum(g * (out * (1.0 - out)), owned=True)

    return _make("sigmoid", out, (x,), bw)


def log(x):
    if np.any(x.data <= 0):
        raise NonFiniteError("log: non-positive input")
    data = np.log(x.data)

    def bw(g):
        x._accum(g / x.data, owned=True)

    return _make("log", data, (x,), bw)


def clamp(x, lo, hi):
    """Clip values to [lo, hi]; gradient is zero at and outside the bounds."""
    data = np.clip(x.data, lo, hi)
    mask = (x.data > lo) & (x.data < hi)

    def bw(g):
        x._accum(g * mask, owned=True)

    return _make("clamp", data, (x,), bw)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def matmul(a, b):
    """2-D matmul or batched 3-D matmul with equal leading dims."""
    a = a if isinstance(a, Tensor) else Tensor(np.asarray(a))
    b = b if isinstance(b, Tensor) else Tensor(np.asarray(b))
    _check_inputs("matmul", a, b)
    if a.data.ndim != b.data.ndim or a.data.ndim not in (2, 3):
        raise ShapeMismatchError(
            f"matmul: unsupported ranks {a.data.ndim} and {b.data.ndim}"
        )
    if a.data.ndim == 3 and a.data.shape[0] != b.data.shape[0]:
        raise ShapeMismatchError("matmul: batch dims differ")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeMismatchError(
            f"matmul: inner dims {a.data.shape} x {b.data.shape}"
        )
    data = a.data @ b.data

    def bw(g):
        if a.requires_grad:
            a._accum(g @ b.data.swapaxes(-1, -2), owned=True)
        if b.requires_grad:
            b._accum(a.data.swapaxes(-1, -2) @ g, owned=True)

    return _make("matmul", data, (a, b), bw)


# Query rows per attention block: a (heads, rows, keys) block of scores
# holds at most this many elements (512 KB in f32).
ATTENTION_BLOCK_ELEMS = 2**17


# index of all but the last, and of the last, column (-1) or row (-2)
_HEAD = {-1: (Ellipsis, slice(None, -1)), -2: (Ellipsis, slice(None, -1), slice(None))}
_TAIL = {-1: (Ellipsis, slice(-1, None)), -2: (Ellipsis, slice(-1, None), slice(None))}


def _augment(x, fill, axis=-1):
    """[x, fill] as a new contiguous array with one more column (axis -1)
    or row (axis -2): x may be any view; fill is a scalar, or an array
    of extent 1 on that axis."""
    shape = list(x.shape)
    shape[axis] += 1
    out = np.empty(shape, dtype=x.dtype)
    out[_HEAD[axis]] = x
    out[_TAIL[axis]] = fill
    return out


def _join_rows(parts):
    """Concatenate per-block results along the query axis."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-2)


def attention(q, k, v, scale):
    """softmax(scale * q k^T, over keys) v as one graph node.

    q: (..., M, d); k: (..., N, d); v: (..., N, dv), where ``...`` is
    nothing (rank 2) or one heads dim shared by all three (rank 3). The
    queries run in blocks of rows sized from the shape alone, so that
    heads * rows * N <= ATTENTION_BLOCK_ELEMS. The scale rides in q, so a
    block's scores S = (scale * q) k^T come straight out of the GEMM; the
    row max is subtracted and E = exp(S - max) taken in place, and one
    GEMM E [v, 1] yields both the unnormalized output and the row sum in
    its last column. The output is that product divided by the row sum.
    The closure keeps the input tensors, the output and the row
    log-sum-exp L = max + log(sum), nothing of size M * N. With g the
    output gradient and D = rowsum(g * out), the backward recomputes each
    block's P = exp([scale * q, -L] [k, 1]^T) and accumulates
        dV += P^T g,  dS = P * ([g, -D] [v, 1]^T),
        dQ = dS (scale * k),  dK += dS^T (scale * q),
    so the shifts by L and D are GEMM columns, not passes over the scores.
    """
    _check_inputs("attention", q, k, v)
    if not q.data.ndim == k.data.ndim == v.data.ndim or q.data.ndim not in (2, 3):
        raise ShapeMismatchError(
            "attention: q, k and v must all be (tokens, dim) or all (heads, tokens, dim)"
        )
    if not q.data.shape[:-2] == k.data.shape[:-2] == v.data.shape[:-2]:
        raise ShapeMismatchError("attention: head counts differ")
    if q.data.shape[-1] != k.data.shape[-1] or k.data.shape[-2] != v.data.shape[-2]:
        raise ShapeMismatchError(
            f"attention: q {q.data.shape}, k {k.data.shape}, v {v.data.shape} do not fit"
        )
    s = np.asarray(float(scale), dtype=q.data.dtype)
    m, n = q.data.shape[-2], k.data.shape[-2]
    heads = q.data.shape[0] if q.data.ndim == 3 else 1
    rows = max(1, ATTENTION_BLOCK_ELEMS // (heads * n))
    blocks = [slice(lo, lo + rows) for lo in range(0, max(m, 1), rows)]
    # Each operand is built from the (often permuted) input views in one
    # pass, in a layout the GEMMs read without copying; the transposes are
    # made contiguous because batched GEMMs on transposed slices run slow.
    sq = q.data * s
    kt = np.ascontiguousarray(k.data.swapaxes(-1, -2))
    v1 = _augment(v.data, 1)
    outs, lses = [], []
    for blk in blocks:
        e = sq[..., blk, :] @ kt
        row_max = e.max(axis=-1, keepdims=True)
        e -= row_max
        np.exp(e, out=e)
        o = e @ v1
        row_sum = o[..., -1:]
        outs.append(o[..., :-1] / row_sum)
        lses.append(np.log(row_sum) + row_max)
    data, lse = _join_rows(outs), _join_rows(lses)

    def bw(g):
        q1 = _augment(q.data * s, -lse)
        k1t = _augment(k.data.swapaxes(-1, -2), 1, axis=-2)
        g1 = _augment(g, -np.einsum("...j,...j->...", g, data)[..., None])
        v1t = _augment(v.data.swapaxes(-1, -2), 1, axis=-2)
        sk = k.data * s
        dqs, dk, dv = [], None, None
        for blk in blocks:
            qb, gb = q1[..., blk, :], g1[..., blk, :]
            p = qb @ k1t
            np.exp(p, out=p)
            ds = gb @ v1t
            ds *= p
            dqs.append(ds @ sk)
            p, ds = p.swapaxes(-1, -2), ds.swapaxes(-1, -2)
            if dv is None:
                dv, dk = p @ gb[..., :-1], ds @ qb[..., :-1]
            else:
                dv += p @ gb[..., :-1]
                dk += ds @ qb[..., :-1]
        if q.requires_grad:
            q._accum(_join_rows(dqs), owned=True)
        if k.requires_grad:
            k._accum(dk, owned=True)
        if v.requires_grad:
            v._accum(dv, owned=True)

    return _make("attention", data, (q, k, v), bw)


def _valid_axis(x, axis, op):
    if not isinstance(axis, (int, np.integer)):
        raise InvalidAxisError(f"{op}: axis must be an integer")
    if not -x.data.ndim <= axis < x.data.ndim:
        raise InvalidAxisError(f"{op}: axis {axis} out of range for rank {x.data.ndim}")
    return int(axis) % x.data.ndim


def _normalize(x, axes, eps, op):
    """Shared zero-mean unit-variance core of layer_norm / instance_norm."""
    xd = x.data
    mu = xd.mean(axis=axes, keepdims=True)
    centered = xd - mu
    var = (centered * centered).mean(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=xd.dtype))
    data = centered * inv

    def bw(g):
        gm = g.mean(axis=axes, keepdims=True)
        gy = (g * data).mean(axis=axes, keepdims=True)
        x._accum(inv * (g - gm - data * gy), owned=True)

    return _make(op, data, (x,), bw)


def layer_norm(x, axis=-1, eps=1e-6):
    """Normalize over one axis (no affine; apply scale/shift separately)."""
    ax = _valid_axis(x, axis, "layer_norm")
    return _normalize(x, (ax,), eps, "layer_norm")


def instance_norm(x, eps=1e-5):
    """Normalize each channel (last axis) over all remaining axes."""
    if x.data.ndim < 2:
        raise ShapeMismatchError("instance_norm: rank must be >= 2")
    axes = tuple(range(x.data.ndim - 1))
    return _normalize(x, axes, eps, "instance_norm")


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------


def reshape(x, shape):
    shape = tuple(int(s) for s in shape)
    try:
        data = x.data.reshape(shape)
    except ValueError as exc:
        raise ShapeMismatchError(f"reshape: {exc}") from exc

    def bw(g):
        x._accum(g.reshape(x.data.shape))

    return _make("reshape", data, (x,), bw)


def permute(x, axes):
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(x.data.ndim)):
        raise InvalidAxisError(f"permute: {axes} is not a permutation of rank {x.data.ndim}")
    data = x.data.transpose(axes)
    inverse = tuple(np.argsort(axes))

    def bw(g):
        x._accum(g.transpose(inverse))

    return _make("permute", data, (x,), bw)


def concat(tensors, axis):
    tensors = list(tensors)
    if not tensors:
        raise ShapeMismatchError("concat: no inputs")
    _check_inputs("concat", *tensors)
    ax = _valid_axis(tensors[0], axis, "concat")
    base = list(tensors[0].data.shape)
    for t in tensors[1:]:
        other = list(t.data.shape)
        if len(other) != len(base) or any(
            i != ax and other[i] != base[i] for i in range(len(base))
        ):
            raise ShapeMismatchError("concat: non-axis dims differ")
    data = np.concatenate([t.data for t in tensors], axis=ax)
    sizes = [t.data.shape[ax] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[ax] = slice(lo, hi)
                t._accum(g[tuple(idx)])

    return _make("concat", data, tuple(tensors), bw)


def reduce_sum(x, axis=None):
    axes = _reduce_axes(x, axis, "reduce_sum")
    data = x.data.sum(axis=axes)

    def bw(g):
        x._accum(np.broadcast_to(_restore_dims(g, x.data.shape, axes), x.data.shape))

    return _make("reduce_sum", np.asarray(data, dtype=x.data.dtype), (x,), bw)


def reduce_mean(x, axis=None):
    axes = _reduce_axes(x, axis, "reduce_mean")
    data = x.data.mean(axis=axes)
    count = 1
    for a in axes:
        count *= x.data.shape[a]

    def bw(g):
        gg = _restore_dims(g, x.data.shape, axes) / np.asarray(count, dtype=x.data.dtype)
        x._accum(np.broadcast_to(gg, x.data.shape))

    return _make("reduce_mean", np.asarray(data, dtype=x.data.dtype), (x,), bw)


def _reduce_axes(x, axis, op):
    if axis is None:
        return tuple(range(x.data.ndim))
    if isinstance(axis, (int, np.integer)):
        axis = (axis,)
    return tuple(_valid_axis(x, a, op) for a in axis)


def _restore_dims(g, shape, axes):
    out_shape = [1 if i in axes else s for i, s in enumerate(shape)]
    return np.asarray(g).reshape(out_shape)
