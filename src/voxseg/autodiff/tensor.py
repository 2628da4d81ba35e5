"""Reverse-mode differentiable tensors over flat numpy buffers.

A Tensor is a value: an ndarray plus, when it needs a gradient, a
``Record``, the node of the graph. The record holds the gradient slot,
the records of the grad-requiring parents and the closure that scatters
the result's gradient back onto them; it reaches the value only through
a weak reference. Graph edges and closures point at records, never at
Tensors, and each closure saves exactly the arrays its backward reads:
``matmul`` keeps ``a``'s data only when ``b`` needs a gradient and
``b``'s only when ``a`` does; add, sub, scale, permute and concat keep
no array, reshape and the reductions only shapes. So a value dies during
the forward, as soon as neither the caller nor a closure holds it
(autograd that saves only what the backward needs, Paszke et al. 2019,
arXiv:1912.01703). ``backward(loss)`` topologically sorts the records
and visits each exactly once. Leaf ``.grad`` accumulates across repeated
calls; an interior record's gradient is dropped as soon as its closure
has consumed it, so interior ``.grad`` is ``None`` after every pass.

A layer primitive is one node: ``matmul`` takes an optional ``bias``,
``conv3d`` too, and ``layer_norm`` / ``instance_norm`` an optional
``gain`` and ``shift``, each added in place on the op's fresh output
with the same float expressions as separate ``add`` / ``mul`` nodes;
``instance_norm`` also takes ``relu=True``, the relu applied in place
on its output. Values that cost one cheap pass over arrays the graph
keeps anyway are recomputed in the backward, not kept (Chen et al. 2016,
arXiv:1604.06174, applied only to these): gelu's tanh, conv3d's padded
input, the norms' x_hat = (x - mu) * inv, of which only mu and inv are
kept, and relu's mask, taken from its own output (out > 0 exactly where
x > 0), so the relu's input can die. A recorded output of ``matmul``
also carries a rebuild hook, ``Tensor._rebuild``: a function that
returns its value bit for bit from the operands and bias. The closures
that read such an input's value, gelu's, attention's and the convs'
kernel gradients, keep the hook instead of the array, so the MLP's first
products and the encoder's q, k and v products die during the forward.
(The decoder's upsampled features are never built at all: see
``conv.upsample_conv3d``.) The hook lives on the Tensor, never on the
Record, and ``Record.data`` never recomputes; but a caller holding a
recorded matmul output keeps that output's inputs alive as long, through
its hook.

Two precision modes exist: float32 (training) and float64 (gradient
checking). The mode is a process-global default applied when leaf tensors
are created; mixing dtypes inside one graph is rejected.

Non-finite values are caught where they appear: leaves when created
(``Tensor.__init__``) and every op's output in ``_make``, which raises
``NonFiniteError("<op>: non-finite output")``; op inputs are not
scanned. The norms also reject a non-finite variance ("<op>: non-finite
variance"): a finite input whose squares overflow would otherwise give
inv = 1/sqrt(inf) = 0 and a finite, constant output, and the first
error would name a later op. ``scope(name)`` prefixes such an error
with ``name/``.

Conventions baked into the derivatives:
  * relu'(0) = 0
  * clamp passes gradient only strictly inside [lo, hi]
  * gelu is the tanh approximation

Fused op: ``attention(q, k, v, scale, heads=1)`` computes, per head,
P = softmax(scale * q k^T over keys) and returns P v as a single node.
Its operands and result are token-major, (tokens, heads * dim), each head
a column slice, so no node splits or merges heads; it is the only softmax
in the op set. It runs over blocks of query rows and keeps only the row
log-sum-exp L, never P or the scores, so what it retains grows linearly
with the token count. Its bookkeeping rides in its GEMMs: the scale in q,
the softmax shift as a -b column of q against a ones row of k^T (b a
Cauchy-Schwarz bound on the row's scores, where it is small enough; else
the exact row max is subtracted), the row sum as a ones column appended
to v (the output is divided by it, not P), and in the backward -L and
-D = -rowsum(g * out) as extra columns of the score and dP GEMMs:
P = exp([scale q, -L] [k, 1]^T), dS = P * ([g, -D] [v, 1]^T),
dV = P^T g, dQ = dS (scale k), dK = dS^T (scale q). That leaves one
elementwise pass over each block of scores in the forward (exp; the
exact shift adds the row max and the subtraction) and two in the
backward (exp, the product with P).
"""

from __future__ import annotations

import contextlib
import functools
import math
import weakref

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


# what ``Record.data`` reads once the value has died
_DEAD = np.empty(0)
_DEAD.flags.writeable = False


class Record:
    """The graph node of one grad-requiring tensor: its gradient slot, the
    shape and dtype of its value, the op that made it, the records of the
    grad-requiring parents it was computed from and the closure that
    scatters its gradient onto them (``op`` and the closure are ``None``
    for a leaf). An array value is held only weakly."""

    __slots__ = ("grad", "shape", "dtype", "op", "_parents", "_backward", "_value")

    def __init__(self, data, op=None, parents=(), backward_fn=None):
        self.grad = None
        self.shape = data.shape
        self.dtype = data.dtype
        self.op = op
        self._parents = parents
        self._backward = backward_fn
        # a numpy scalar (a 0-d op's result) cannot be weakly referenced
        self._value = weakref.ref(data) if isinstance(data, np.ndarray) else data

    @property
    def data(self):
        """The recorded value while the caller or a closure still holds it,
        else an empty array."""
        value = self._value
        if isinstance(value, weakref.ref):
            value = value()
        return _DEAD if value is None else value

    def _accum(self, g, owned=False):
        """Add ``g`` into ``.grad``. ``owned`` says the op has just allocated
        ``g`` and hands it to this record alone, so a first gradient is taken
        over without a copy. Views, broadcasts and a ``g`` that reaches two
        parents are copied."""
        if self.grad is None:
            if owned and g.dtype == self.dtype:
                self.grad = g
            else:
                self.grad = g.astype(self.dtype, copy=True)
        else:
            self.grad += g


class Tensor:
    """n-dimensional array value; ``_record`` is its graph node, if any, and
    ``_rebuild``, set only beside a record, a function that returns ``data``
    again, bit for bit, from arrays the graph keeps anyway."""

    __slots__ = ("data", "_requires_grad", "_record", "_rebuild", "__weakref__")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype or _default_dtype)
        if not np.isfinite(arr).all():
            raise NonFiniteError("tensor initialized with non-finite values")
        self.data = arr
        self._record = None
        self._rebuild = None
        self.requires_grad = requires_grad

    @property
    def requires_grad(self):
        return self._requires_grad

    @requires_grad.setter
    def requires_grad(self, flag):
        self._requires_grad = bool(flag)
        if flag and self._record is None:
            self._record = Record(self.data)

    @property
    def grad(self):
        rec = self._record
        return None if rec is None else rec.grad

    @grad.setter
    def grad(self, value):
        if self._record is None:
            if value is None:
                return
            self._record = Record(self.data)
        self._record.grad = value

    @property
    def _parents(self):
        """The records this tensor's value was computed from."""
        rec = self._record
        return () if rec is None else rec._parents

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
    """Wrap ``op``'s result, rejecting non-finite values. Under
    ``no_grad``, or when no parent requires a gradient, the result gets no
    record and the closure is dropped; otherwise its record keeps edges only
    toward the grad-requiring parents."""
    if not np.isfinite(data).all():
        raise NonFiniteError(f"{op}: non-finite output")
    out = Tensor.__new__(Tensor)
    out.data = data
    out._rebuild = None
    edges = tuple(p._record for p in parents if p._requires_grad) if _grad_enabled else ()
    out._requires_grad = bool(edges)
    out._record = Record(data, op, edges, backward_fn) if edges else None
    return out


def _rec(t):
    """``t``'s record when a closure must send it a gradient, else None."""
    return t._record if t._requires_grad else None


def _keep(t):
    """What a closure keeps to read ``t``'s value in the backward: its
    rebuild hook when it has one, else the array."""
    return t._rebuild or t.data


def _value(kept):
    """The value behind what ``_keep`` returned."""
    return kept() if callable(kept) else kept


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

    Leaf gradients accumulate across repeated calls. Each interior record's
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
    root = loss._record
    order = _topo(root)
    for node in order:
        if node._backward is not None:
            node.grad = None
    root._accum(np.ones_like(loss.data))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node.grad = None


# ---------------------------------------------------------------------------
# elementwise / arithmetic ops
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=128)
def _filled(n, value, dtype):
    """A read-only vector of n copies of ``value``: with 1 the operand that
    turns a sum into a BLAS product, with 1/n a mean."""
    vec = np.full(n, value, dtype=dtype)
    vec.flags.writeable = False
    return vec


def _unbroadcast(g, shape):
    """Sum a broadcast gradient back down to ``shape``. Where that only
    drops leading axes (a per-channel bias, gain or shift), the sum is one
    product ones (N,) @ g (N, prod(shape))."""
    lead = g.ndim - len(shape)
    if lead > 0 and g.shape[lead:] == tuple(shape):
        n = math.prod(g.shape[:lead])
        return (_filled(n, 1.0, g.dtype) @ g.reshape(n, -1)).reshape(shape)
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def _accum_unbroadcast(rec, d, g):
    """Add ``d``, a gradient in the broadcast shape, into ``rec.grad`` summed
    down to rec's shape. It is handed over without a copy unless it is still
    the upstream gradient ``g``, which reaches other parents too."""
    d = _unbroadcast(d, rec.shape)
    rec._accum(d, owned=d is not g)


def _check_vector(op, name, t, n):
    """A per-channel operand (bias, gain, shift) must have shape (n,)."""
    if t.data.shape != (n,):
        raise ShapeMismatchError(f"{op}: {name} has shape {t.data.shape}, expected ({n},)")


def _binary(op_name, a, b, fwd, da_fn, db_fn, reads=("", "")):
    """An elementwise op of two broadcast operands. ``da_fn(g, x, y)`` and
    ``db_fn(g, x, y)`` give the gradients toward a and b; ``reads`` names,
    for each, the operands ("x" for a's data, "y" for b's) it reads, and the
    closure keeps an operand only if a gradient that will be formed reads it."""
    a = a if isinstance(a, Tensor) else Tensor(np.asarray(a), dtype=b.data.dtype)
    b = b if isinstance(b, Tensor) else Tensor(np.asarray(b), dtype=a.data.dtype)
    _check_inputs(op_name, a, b)
    try:
        data = fwd(a.data, b.data)
    except ValueError as exc:
        raise ShapeMismatchError(f"{op_name}: {exc}") from exc
    ra, rb = _rec(a), _rec(b)
    read = (reads[0] if ra is not None else "") + (reads[1] if rb is not None else "")
    x = a.data if "x" in read else None
    y = b.data if "y" in read else None

    def bw(g):
        # a derivative that is g itself (add, sub) reaches both parents
        if ra is not None:
            _accum_unbroadcast(ra, da_fn(g, x, y), g)
        if rb is not None:
            _accum_unbroadcast(rb, db_fn(g, x, y), g)

    return _make(op_name, data, (a, b), bw)


def add(a, b):
    return _binary("add", a, b, lambda x, y: x + y,
                   lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b):
    return _binary("sub", a, b, lambda x, y: x - y,
                   lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b):
    return _binary("mul", a, b, lambda x, y: x * y,
                   lambda g, x, y: g * y, lambda g, x, y: g * x, reads=("y", "x"))


def div(a, b):
    return _binary("div", a, b, lambda x, y: x / y,
                   lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y),
                   reads=("y", "xy"))


def scale(x, s):
    """Multiply by a plain python scalar constant."""
    s = np.asarray(float(s), dtype=x.data.dtype)
    data = x.data * s
    rx = _rec(x)

    def bw(g):
        rx._accum(g * s, owned=True)

    return _make("scale", data, (x,), bw)


def neg(x):
    return scale(x, -1.0)


def relu(x):
    """max(x, 0). The backward takes the mask from the output, which is
    positive exactly where x is, so x itself is not kept."""
    data = x.data * (x.data > 0)  # a non-finite input stays non-finite here
    rx = _rec(x)

    def bw(g):
        rx._accum(g * (data > 0), owned=True)

    return _make("relu", data, (x,), bw)


_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715


def gelu(x):
    """Tanh-approximated gelu, 0.5 x (1 + tanh(c (x + a x^3))), evaluated in
    place on one fresh buffer. The backward recomputes the tanh from the
    input rather than keep it, and rebuilds the input too when it has a
    rebuild hook (a matmul's product); the output is not kept. Its
    derivative 0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 3 a x^2) also runs in
    place, on three buffers."""
    dtype = x.data.dtype
    c = np.asarray(_GELU_C, dtype=dtype)
    a = np.asarray(_GELU_A, dtype=dtype)

    def tanh_inner(v):
        u = v * v  # f32 `** 3` is a slow generic pow
        u *= v
        u *= a
        u += v
        u *= c
        return np.tanh(u, out=u)

    data = tanh_inner(x.data)
    data += 1.0
    data *= x.data
    data *= 0.5
    rx = _rec(x)
    kept = _keep(x)

    def bw(g):
        xd = _value(kept)
        d = tanh_inner(xd)
        y = d * d
        np.subtract(1.0, y, out=y)  # sech^2
        w = xd * (3.0 * a)
        w *= xd
        w += 1.0
        y *= xd  # (0.5 x) sech^2: halving is exact
        y *= 0.5
        y *= c
        y *= w
        d += 1.0
        d *= 0.5
        d += y
        d *= g
        rx._accum(d, owned=True)

    return _make("gelu", data, (x,), bw)


def sigmoid(x):
    xd = x.data
    out = np.empty_like(xd)
    pos = xd >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    e = np.exp(xd[~pos])
    out[~pos] = e / (1.0 + e)
    rx = _rec(x)

    def bw(g):
        rx._accum(g * (out * (1.0 - out)), owned=True)

    return _make("sigmoid", out, (x,), bw)


def log(x):
    xd = x.data
    if np.any(xd <= 0):
        raise NonFiniteError("log: non-positive input")
    data = np.log(xd)
    rx = _rec(x)

    def bw(g):
        rx._accum(g / xd, owned=True)

    return _make("log", data, (x,), bw)


def clamp(x, lo, hi):
    """Clip values to [lo, hi]; gradient is zero at and outside the bounds."""
    data = np.clip(x.data, lo, hi)
    mask = (x.data > lo) & (x.data < hi)
    rx = _rec(x)

    def bw(g):
        rx._accum(g * mask, owned=True)

    return _make("clamp", data, (x,), bw)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def matmul(a, b, bias=None):
    """2-D matmul or batched 3-D matmul with equal leading dims, plus an
    optional ``bias`` of shape (N,), N the product's column count, added
    to every row of the product in place. The closure keeps ``a``'s data
    only when ``b`` needs a gradient and ``b``'s only when ``a`` does: a
    frozen weight's product keeps nothing of its input. A recorded output's
    rebuild hook recomputes the product from the operands and bias."""
    a = a if isinstance(a, Tensor) else Tensor(np.asarray(a))
    b = b if isinstance(b, Tensor) else Tensor(np.asarray(b))
    extra = () if bias is None else (bias,)
    _check_inputs("matmul", a, b, *extra)
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
    if bias is not None:
        _check_vector("matmul", "bias", bias, b.data.shape[-1])
    a_val, b_val = a.data, b.data
    bias_val = None if bias is None else bias.data

    def product():
        out = a_val @ b_val
        if bias_val is not None:
            out += bias_val
        return out

    ra, rb = _rec(a), _rec(b)
    rbias = None if bias is None else _rec(bias)
    a_data = a.data if rb is not None else None
    b_data = b.data if ra is not None else None

    def bw(g):
        if ra is not None:
            ra._accum(g @ b_data.swapaxes(-1, -2), owned=True)
        if rb is not None:
            rb._accum(a_data.swapaxes(-1, -2) @ g, owned=True)
        if rbias is not None:
            _accum_unbroadcast(rbias, g, g)

    out = _make("matmul", product(), (a, b) + extra, bw)
    if out._record is not None:  # the hook lives only beside a record
        out._rebuild = product
    return out


# Query rows per attention block: a (heads, rows, keys) block of scores
# holds at most this many elements (512 KB in f32).
ATTENTION_BLOCK_ELEMS = 2**17


# index of all but the last, and of the last, column (-1) or row (-2)
_HEAD = {-1: (Ellipsis, slice(None, -1)), -2: (Ellipsis, slice(None, -1), slice(None))}
_TAIL = {-1: (Ellipsis, slice(-1, None)), -2: (Ellipsis, slice(-1, None), slice(None))}


def _augment(x, fill, axis=-1, scale=None):
    """[x * scale, fill] as a new contiguous array with one more column
    (axis -1) or row (axis -2): x may be any view; fill is a scalar, or an
    array of extent 1 on that axis."""
    shape = list(x.shape)
    shape[axis] += 1
    out = np.empty(shape, dtype=x.dtype)
    if scale is None:
        out[_HEAD[axis]] = x
    else:
        np.multiply(x, scale, out=out[_HEAD[axis]])
    out[_TAIL[axis]] = fill
    return out


def _heads(x, heads):
    """A token-major (tokens, heads * w) array as its (heads, tokens, w)
    view."""
    t, c = x.shape
    return x.reshape(t, heads, c // heads).transpose(1, 0, 2)


def _merge(xh):
    """(heads, tokens, w) back to token-major (tokens, heads * w)."""
    return xh.transpose(1, 0, 2).reshape(xh.shape[1], -1)


def _score_bound(sq, kt):
    """The softmax shift of the bound path, or None where the exact row max
    must be taken. sq: (heads, M, d + 1), scale * q in its first d columns;
    kt: (heads, d + 1, N), k^T in its first d rows. Returns
    b = |scale * q_i| * max_j |k_j| (heads, M, 1), which is at least every
    score of row i (Cauchy-Schwarz), when N > 1 and every b is at most
    -ln(tiny) / 4 of the dtype (21.8 in f32, 177 in f64)."""
    n = kt.shape[-1]
    if n < 2:  # one key must get weight exactly 1, which only its own score as shift gives
        return None
    q, k = sq[..., :-1], kt[:, :-1, :]
    with np.errstate(over="ignore", invalid="ignore"):  # an inf bound picks the exact path
        k_max = np.einsum("hdn,hdn->hn", k, k).max(axis=-1)
        b = np.sqrt(np.einsum("hmd,hmd->hm", q, q) * k_max[:, None])[..., None]
    limit = -math.log(np.finfo(sq.dtype).tiny) / 4
    return b if (b <= limit).all() else None


def attention(q, k, v, scale, heads=1):
    """softmax(scale * q_h k_h^T, over keys) v_h for each head h, as one
    graph node.

    Token-major operands: q (M, heads * d), k (N, heads * d) and
    v (N, heads * dv), head h in columns h*d .. (h+1)*d; the output is
    (M, heads * dv) in the same layout, and so are dq, dk and dv. Heads
    are views inside the op. The queries run in blocks of rows sized from
    the shape alone, so that heads * rows * N <= ATTENTION_BLOCK_ELEMS.

    Forward: each block's scores come out of one GEMM
    [scale * q, -c] [k^T; 1], which also subtracts the softmax shift c of
    each row; E = exp of that product is taken in place, and one GEMM
    E [v, 1] yields both the unnormalized output and the row sum in its
    last column. The output is that product divided by the row sum. The
    shift c is the bound b_i = |scale * q_i| * max_j |k_j| (``_score_bound``),
    known before any score, where N > 1 and every b_i <= -ln(tiny) / 4: by
    Cauchy-Schwarz every score of row i lies in [-b_i, b_i], so every exp
    argument lies in [-2 b_i, 0], within [ln(tiny) / 2, 0]. A weight that
    matters at the dtype's precision eps relative to the row's largest is
    then at least eps * sqrt(tiny), a normal number, and nothing
    overflows. Elsewhere (one key, whose weight must be exactly 1, or a
    bound above the limit) the shift column is 0 and the exact row max is
    taken and subtracted from the block, as in the classic form. Which
    shift runs depends only on the values, never on grad mode.

    The closure keeps the inputs (the rebuild hook of a matmul product,
    else the array), the output and the row log-sum-exp
    L = c + log(row sum), nothing of size M * N. With g the output gradient
    and D = rowsum(g * out) per head, the backward recomputes each block's
    P = exp([scale * q, -L] [k, 1]^T) and accumulates
        dV += P^T g,  dS = P * ([g, -D] [v, 1]^T),
        dQ = dS (scale * k),  dK += dS^T (scale * q),
    so the shifts by L and D are GEMM columns, not passes over the scores.
    With one key every weight is exactly 1, and dq and dk are exact zeros.

    Median ms per call at the models' shapes, f32, 2 vCPU, from two runs of
    ``tests/attention_paths.py`` (the backward is one code path whatever
    the shift; its spread is run to run):

        call                     M x N      heads x d  forward: shift  exact      backward
        desk encoder             512 x 512  4 x 16        2.9-3.5    4.6        4.9-6.8
        desk prompter, spatial   512 x 64   1 x 64        0.23       0.31       0.43-0.47
        desk prompter, channel   64 x 64    1 x 512       0.31-0.45  0.30-0.39  0.85-1.10
        tiny encoder             64 x 64    2 x 8         0.06-0.11  0.07-0.12  0.06-0.11

    At ``train.seed`` init on a phantom, every encoder call and the spatial
    prompter call take the shift (bounds 3.6-11.5 on the desk model, 2.8-8.3
    on the tiny one; 0.8 and 0.07) and the channel prompter call the exact
    max (bounds 369 and 56), so both shifts run in every model.
    """
    _check_inputs("attention", q, k, v)
    if not q.data.ndim == k.data.ndim == v.data.ndim == 2:
        raise ShapeMismatchError(
            "attention: q, k and v must be token-major (tokens, heads * dim)"
        )
    (m, cq), (n, ck), (nv, cv) = q.data.shape, k.data.shape, v.data.shape
    if heads < 1 or cq % heads or cv % heads:
        raise ShapeMismatchError(
            f"attention: {heads} heads do not divide q {q.data.shape} and v {v.data.shape}"
        )
    if cq != ck or n != nv:
        raise ShapeMismatchError(
            f"attention: q {q.data.shape}, k {k.data.shape}, v {v.data.shape} do not fit"
        )
    dtype = q.data.dtype
    s = np.asarray(float(scale), dtype=dtype)
    rows = max(1, ATTENTION_BLOCK_ELEMS // (heads * n))
    blocks = [slice(lo, lo + rows) for lo in range(0, max(m, 1), rows)]
    # Each operand is built from the head views in one pass, in a layout
    # the GEMMs read without copying; the transposes are made contiguous
    # because batched GEMMs on transposed slices run slow.
    sq = _augment(_heads(q.data, heads), 0, scale=s)
    kt = _augment(_heads(k.data, heads).swapaxes(-1, -2), 1, axis=-2)
    v1 = _augment(_heads(v.data, heads), 1)
    bound = _score_bound(sq, kt)
    if bound is not None:
        np.negative(bound, out=sq[..., -1:])
    data = np.empty((m, cv), dtype=dtype)
    out, lse = _heads(data, heads), np.empty((heads, m, 1), dtype=dtype)
    for blk in blocks:
        e = sq[:, blk] @ kt
        if bound is None:
            shift = e.max(axis=-1, keepdims=True)
            e -= shift
        else:
            shift = bound[:, blk]
        np.exp(e, out=e)
        o = e @ v1
        row_sum = o[..., -1:]
        np.divide(o[..., :-1], row_sum, out=out[:, blk])
        np.log(row_sum, out=lse[:, blk])
        lse[:, blk] += shift
    kept = [_keep(t) for t in (q, k, v)]
    rq, rk, rv = _rec(q), _rec(k), _rec(v)

    def grads(g):
        """(dq, dk, dv), token-major."""
        if n == 1:  # each weight is exactly 1, so no score gets a gradient
            return np.zeros((m, cq), dtype), np.zeros((1, ck), dtype), g.sum(0, keepdims=True)
        qd, kd, vd = (_value(x) for x in kept)
        gh = _heads(g, heads)
        q1 = _augment(_heads(qd, heads), -lse, scale=s)
        k1t = _augment(_heads(kd, heads).swapaxes(-1, -2), 1, axis=-2)
        g1 = _augment(gh, -np.einsum("...j,...j->...", gh, _heads(data, heads))[..., None])
        v1t = _augment(_heads(vd, heads).swapaxes(-1, -2), 1, axis=-2)
        kh = _heads(kd, heads)
        sk = np.multiply(kh, s, out=np.empty(kh.shape, dtype=dtype))
        dq = np.empty((m, cq), dtype=dtype)
        dqh, dk, dv = _heads(dq, heads), None, None
        for blk in blocks:
            qb, gb = q1[:, blk], g1[:, blk]
            p = qb @ k1t
            np.exp(p, out=p)
            ds = gb @ v1t
            ds *= p
            np.matmul(ds, sk, out=dqh[:, blk])
            p, ds = p.swapaxes(-1, -2), ds.swapaxes(-1, -2)
            if dv is None:
                dv, dk = p @ gb[..., :-1], ds @ qb[..., :-1]
            else:
                dv += p @ gb[..., :-1]
                dk += ds @ qb[..., :-1]
        return dq, _merge(dk), _merge(dv)

    def bw(g):
        for rec, d in zip((rq, rk, rv), grads(g)):
            if rec is not None:
                rec._accum(d, owned=True)

    return _make("attention", data, (q, k, v), bw)


def _valid_axis(x, axis, op):
    if not isinstance(axis, (int, np.integer)):
        raise InvalidAxisError(f"{op}: axis must be an integer")
    if not -x.data.ndim <= axis < x.data.ndim:
        raise InvalidAxisError(f"{op}: axis {axis} out of range for rank {x.data.ndim}")
    return int(axis) % x.data.ndim


def _group_mean(a, axes):
    """Mean of ``a`` over its consecutive ``axes``, keeping them as size-1
    axes, as one BLAS product with the vector of 1/n. With L, n and T the
    extents before, over and after the axes: 1/n (n,) @ a (n, T) when
    L = 1 (instance norm: every axis but the channels), a (L, n) @ 1/n when
    T = 1 (layer norm over the last axis), else 1/n @ a (L, n, T). Each
    term is scaled before it is summed, so a sum of finite terms does not
    overflow; where n is a power of two that scaling is exact, and the
    result is the same sum divided by n."""
    shape = a.shape
    lo, hi = axes[0], axes[-1] + 1
    lead, n, trail = math.prod(shape[:lo]), math.prod(shape[lo:hi]), math.prod(shape[hi:])
    weights = _filled(n, 1.0 / n, a.dtype)
    if lead == 1:
        m = weights @ a.reshape(n, trail)
    elif trail == 1:
        m = a.reshape(lead, n) @ weights
    else:
        m = weights @ a.reshape(lead, n, trail)
    return m.reshape(shape[:lo] + (1,) * (hi - lo) + shape[hi:])


def _normalize(x, axes, eps, op, gain, shift, relu=False):
    """Shared core of layer_norm / instance_norm: x_hat = (x - mu) * inv,
    inv = 1 / sqrt(var + eps), then x_hat * gain + shift when the per-channel
    (last axis) affine is given, then, with ``relu``, the relu in place on
    that output. ``axes`` are consecutive. A non-finite variance raises
    ``NonFiniteError`` naming the op.

    Every statistic is a BLAS product with a constant vector on the (rows,
    C) view, not a numpy reduction over an axis tuple: the forward's mean
    and variance and the backward's means of g and g * x_hat
    (``_group_mean``), and the gain and shift gradients (sums, through
    ``_unbroadcast``). Beyond the data of x and gain it reads, the closure
    keeps only mu and inv: the backward rebuilds x_hat from x with the
    forward's expression, and takes relu's mask from the output, which is
    positive exactly where its pre-relu value was. dx = inv * (g - mean(g)
    - x_hat * mean(g * x_hat)), g taken after the gain, runs in place on
    the backward's temporaries."""
    if (gain is None) != (shift is None):
        raise GraphError(f"{op}: gain and shift are given together or not at all")
    affine = () if gain is None else (gain, shift)
    _check_inputs(op, x, *affine)
    for name, t in zip(("gain", "shift"), affine):
        _check_vector(op, name, t, x.data.shape[-1])
    xd = x.data
    mu = _group_mean(xd, axes)
    data = xd - mu
    var = _group_mean(data * data, axes)
    if not np.isfinite(var).all():  # finite x whose squares overflow: inv would be 0
        raise NonFiniteError(f"{op}: non-finite variance")
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=xd.dtype))
    data *= inv  # x_hat
    if affine:
        data *= gain.data
        data += shift.data
    out = None
    if relu:
        data *= data > 0  # relu's own expression, so a non-finite value stays
        out = data
    rx = _rec(x)
    rgain, rshift = (_rec(gain), _rec(shift)) if affine else (None, None)
    xd = xd if rx is not None or rgain is not None else None
    gd = gain.data if affine and rx is not None else None

    def bw(g):
        if relu:
            g = g * (out > 0)
        xhat = (xd - mu) * inv if xd is not None else None
        if rshift is not None:
            _accum_unbroadcast(rshift, g, g)
        if rgain is not None:
            _accum_unbroadcast(rgain, g * xhat, g)
        if rx is not None:
            if gd is not None:
                g = g * gd
            gm = _group_mean(g, axes)
            gy = _group_mean(g * xhat, axes)
            xhat *= gy
            gx = g - gm
            gx -= xhat
            gx *= inv
            rx._accum(gx, owned=True)

    return _make(op, data, (x,) + affine, bw)


def layer_norm(x, axis=-1, eps=1e-6, gain=None, shift=None):
    """Normalize over one axis; with ``gain`` and ``shift`` (both (C,), C
    the last axis) the output is x_hat * gain + shift."""
    ax = _valid_axis(x, axis, "layer_norm")
    return _normalize(x, (ax,), eps, "layer_norm", gain, shift)


def instance_norm(x, eps=1e-5, gain=None, shift=None, relu=False):
    """Normalize each channel (last axis) over all remaining axes; with
    ``gain`` and ``shift`` (both (C,)) the output is x_hat * gain + shift.
    ``relu=True`` applies a relu to that output inside this one node, equal
    bit for bit to ``relu(instance_norm(...))``."""
    if x.data.ndim < 2:
        raise ShapeMismatchError("instance_norm: rank must be >= 2")
    axes = tuple(range(x.data.ndim - 1))
    return _normalize(x, axes, eps, "instance_norm", gain, shift, relu)


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------


def reshape(x, shape):
    shape = tuple(int(s) for s in shape)
    try:
        data = x.data.reshape(shape)
    except ValueError as exc:
        raise ShapeMismatchError(f"reshape: {exc}") from exc

    rx = _rec(x)

    def bw(g):
        rx._accum(g.reshape(rx.shape))

    return _make("reshape", data, (x,), bw)


def permute(x, axes):
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(x.data.ndim)):
        raise InvalidAxisError(f"permute: {axes} is not a permutation of rank {x.data.ndim}")
    data = x.data.transpose(axes)
    inverse = tuple(np.argsort(axes))
    rx = _rec(x)

    def bw(g):
        rx._accum(g.transpose(inverse))

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
    recs = [_rec(t) for t in tensors]

    def bw(g):
        for rec, lo, hi in zip(recs, offsets[:-1], offsets[1:]):
            if rec is not None:
                idx = [slice(None)] * g.ndim
                idx[ax] = slice(lo, hi)
                rec._accum(g[tuple(idx)])

    return _make("concat", data, tuple(tensors), bw)


def reduce_sum(x, axis=None):
    axes = _reduce_axes(x, axis, "reduce_sum")
    data = x.data.sum(axis=axes)
    rx = _rec(x)

    def bw(g):
        rx._accum(np.broadcast_to(_restore_dims(g, rx.shape, axes), rx.shape))

    return _make("reduce_sum", np.asarray(data, dtype=x.data.dtype), (x,), bw)


def reduce_mean(x, axis=None):
    axes = _reduce_axes(x, axis, "reduce_mean")
    data = x.data.mean(axis=axes)
    count = 1
    for a in axes:
        count *= x.data.shape[a]
    rx = _rec(x)

    def bw(g):
        gg = _restore_dims(g, rx.shape, axes) / np.asarray(count, dtype=rx.dtype)
        rx._accum(np.broadcast_to(gg, rx.shape))

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
