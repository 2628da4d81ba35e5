"""Differentiable tensor substrate: ops and the parameter store, in the
forms the model builds and no others. Every op takes Tensors; ``add`` and
``mul`` broadcast a second operand only over the first's leading axes;
the norms take a required per-channel gain and shift, and ``layer_norm``
normalizes the last axis; ``backward(loss, weight=)`` seeds the loss's
gradient, as a training step does with 1/batch. The gradient checks that
verify the ops live with the tests, in ``tests/gradcheck.py``."""

from .conv import conv3d, upsample_conv3d
from .params import ParameterStore
from .tensor import (
    AutodiffError,
    DtypeMismatchError,
    GraphError,
    InvalidAxisError,
    NonFiniteError,
    ShapeMismatchError,
    Tensor,
    add,
    attention,
    backward,
    concat,
    default_dtype,
    gelu,
    instance_norm,
    layer_norm,
    matmul,
    mul,
    no_grad,
    permute,
    precision,
    reduce_sum,
    relu,
    reshape,
    scope,
    sigmoid,
    tensor,
)

__all__ = [
    "AutodiffError",
    "DtypeMismatchError",
    "GraphError",
    "InvalidAxisError",
    "NonFiniteError",
    "ParameterStore",
    "ShapeMismatchError",
    "Tensor",
    "add",
    "attention",
    "backward",
    "concat",
    "conv3d",
    "default_dtype",
    "gelu",
    "instance_norm",
    "layer_norm",
    "matmul",
    "mul",
    "no_grad",
    "permute",
    "precision",
    "reduce_sum",
    "relu",
    "reshape",
    "scope",
    "sigmoid",
    "tensor",
    "upsample_conv3d",
]
