"""Per-layer tracing of voxseg from outside the package.

The tracer swaps the module-level functions that voxseg's layers call
through module attributes for timing wrappers, and puts the originals
back when it is closed. Nothing under ``src/`` knows it is being traced.
Each wrapper records a span: its name, its duration, whether it ran at
the top of the span stack, and whether its output requires gradients.
At the same boundaries it counts work: multiply-accumulates from the
shapes of ``autodiff.matmul`` / ``autodiff.conv3d`` calls, attributed
to the model module (patch, encoder, prompter, decoder) that made them,
and the size of the autodiff graph handed to ``autodiff.backward``.

The first gradient-recording call of each module in ``REPLAYED`` is
captured on leaf copies of its inputs, so its backward pass can be
timed on its own afterwards (``replay_backward``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import os
import statistics
import time
from collections import Counter

import numpy as np

from voxseg import autodiff as ad
from voxseg import checkpoint, decoder, encoder, metrics, model, optim, prompter, train
from voxseg.autodiff import Tensor

# (owner, attribute, span name). Every callee here is reached through a
# module or class attribute at call time, so replacing the attribute
# intercepts the call.
TARGETS = (
    (model, "embed_volume", "patch_embed"),
    (encoder, "encode", "encoder"),
    (encoder, "layer_forward", "encoder.layer"),
    (encoder, "attention_forward", "encoder.attention"),
    (encoder, "mlp_forward", "encoder.mlp"),
    (encoder, "adapter_forward", "encoder.adapter"),
    (prompter, "attach_prompter", "prompter"),
    (decoder, "original_feature_enhancer", "decoder.enhancer"),
    (decoder, "conv_block", "decoder.conv_block"),
    (decoder, "predict", "decoder.predict"),
    (train, "combined_loss", "objectives.loss"),
    (ad, "backward", "autodiff.backward"),
    (ad, "conv3d", "autodiff.conv3d"),
    (ad, "matmul", "autodiff.matmul"),
    (optim.AdamW, "step", "optim.step"),
    (checkpoint, "save_checkpoint", "checkpoint.save"),
    (checkpoint, "load_checkpoint", "checkpoint.load"),
    (train, "read_volume", "volume_io.read"),
    (train, "read_mask", "volume_io.read"),
    (metrics, "evaluate_case", "metrics.evaluate"),
)

# Spans whose runtime MACs are charged to a module of costs.count_cost.
COST_MODULE = {
    "patch_embed": "patch",
    "encoder": "encoder",
    "prompter": "prompter",
    "decoder.enhancer": "decoder",
    "decoder.predict": "decoder",
}

REPLAYED = ("encoder.layer", "prompter", "decoder.enhancer", "decoder.predict",
            "objectives.loss")


@contextlib.contextmanager
def patched(owner, attr, make_wrapper):
    """Replace ``owner.attr`` by ``make_wrapper(original)`` for the block."""
    original = getattr(owner, attr)
    setattr(owner, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def tensors_in(obj):
    """Every Tensor inside nested lists, tuples, dicts and dataclasses."""
    if isinstance(obj, Tensor):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from tensors_in(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from tensors_in(item)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from tensors_in(getattr(obj, f.name))


def leaf_copy(obj, memo):
    """Copy ``obj`` with every Tensor replaced by a fresh leaf.

    Each leaf owns a copy of the data and keeps ``requires_grad``; a
    Tensor reached twice (shared weights) maps to one leaf through
    ``memo`` (id of original -> copy).
    """
    if isinstance(obj, Tensor):
        if id(obj) not in memo:
            memo[id(obj)] = Tensor(obj.data.copy(), requires_grad=obj.requires_grad,
                                   dtype=obj.data.dtype)
        return memo[id(obj)]
    if isinstance(obj, (list, tuple)):
        return type(obj)(leaf_copy(item, memo) for item in obj)
    if isinstance(obj, dict):
        return {k: leaf_copy(v, memo) for k, v in obj.items()}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        changes = {f.name: leaf_copy(getattr(obj, f.name), memo)
                   for f in dataclasses.fields(obj) if f.init}
        return dataclasses.replace(obj, **changes)
    return obj


def graph_size(root):
    """(nodes, bytes) of the autodiff graph reachable from ``root``.

    Bytes count each node's data buffer once, following views to the
    array that owns the memory. The walk reads ``Tensor._parents``, the
    only record of graph edges the autodiff exposes.
    """
    seen, buffers, stack = set(), {}, [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        arr = node.data
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        buffers[id(arr)] = arr.nbytes
        stack.extend(node._parents)
    return len(seen), sum(buffers.values())


def _macs(name, args, out):
    if name == "autodiff.matmul":
        a, b = (np.shape(getattr(x, "data", x)) for x in args[:2])
        return int(np.prod(a[:-1])) * a[-1] * b[-1]
    w = np.shape(args[1].data)  # conv3d: (kh, kw, kd, Cin, Cout)
    return int(np.prod(out.shape[:3])) * int(np.prod(w))


class Tracer:
    """Span and counter store; ``install()`` patches, the context restores."""

    def __init__(self):
        self.stack = []
        self.seconds = Counter()
        self.calls = Counter()
        self.grad_calls = Counter()
        self.top_seconds = 0.0
        self.macs = Counter()  # (span name, cost module) -> MACs
        self.graph_nodes = 0
        self.graph_bytes = 0
        self.checkpoint_bytes = 0
        self.captured = {}  # span name -> (original fn, args, kwargs, leaves)

    def record(self, name, seconds):
        """Add a span measured by the caller (a call it made itself)."""
        self.seconds[name] += seconds
        self.calls[name] += 1

    @contextlib.contextmanager
    def install(self):
        with contextlib.ExitStack() as stack:
            for owner, attr, name in TARGETS:
                stack.enter_context(patched(owner, attr, functools.partial(self._wrap, name)))
            yield self

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "autodiff.backward":
                tracer.graph_nodes, tracer.graph_bytes = graph_size(args[0])
            tracer.stack.append(name)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer.stack.pop()
                tracer.record(name, elapsed)
                if not tracer.stack:
                    tracer.top_seconds += elapsed
            tracer._count(name, fn, args, kwargs, out)
            return out

        return traced

    def _count(self, name, fn, args, kwargs, out):
        if name in ("autodiff.matmul", "autodiff.conv3d"):
            module = next((COST_MODULE[s] for s in self.stack if s in COST_MODULE), None)
            self.macs[(name, module)] += _macs(name, args, out)
        elif name == "checkpoint.save":
            self.checkpoint_bytes = os.path.getsize(args[0])
        if any(t.requires_grad for t in tensors_in(out)):
            self.grad_calls[name] += 1
            if name in REPLAYED and name not in self.captured:
                memo = {}
                copied = leaf_copy((args, kwargs), memo)
                self.captured[name] = (fn, copied[0], copied[1], list(memo.values()))

    def replay_backward(self, name, repeats=3):
        """Median seconds of one backward pass through the captured call.

        The call is re-run on its leaf copies; the loss is a fixed random
        projection of every new output tensor, so each output carries a
        dense gradient as it would inside the full model. Call it with
        the tracer uninstalled, so the replay is not traced itself.
        """
        fn, args, kwargs, leaves = self.captured[name]
        out = fn(*args, **kwargs)
        inputs = {id(t) for t in leaves}
        rng = np.random.default_rng(0)
        loss = None
        for t in tensors_in(out):
            if t.requires_grad and id(t) not in inputs:
                proj = ad.tensor(rng.standard_normal(t.shape), dtype=t.dtype)
                term = ad.reduce_sum(ad.mul(t, proj))
                loss = term if loss is None else ad.add(loss, term)
        times = []
        for _ in range(repeats):
            for leaf in leaves:
                leaf.grad = None
            start = time.perf_counter()
            ad.backward(loss)
            times.append(time.perf_counter() - start)
        return statistics.median(times)
