"""Where non-finite values are caught: each op rejects the non-finite
value it makes, under its own name, and ``ad.scope`` prefixes the
module that ran it."""

import numpy as np
import pytest

from voxseg import autodiff as ad
from voxseg.objectives import combined_loss

BIG32 = 3e38  # finite in f32, overflows when doubled


def _f32(value, shape=(2, 2)):
    return ad.tensor(np.full(shape, value), dtype=np.float32)


def _f64(value, shape):
    return ad.tensor(np.full(shape, value), dtype=np.float64)


OVERFLOWS = {
    "matmul": lambda: ad.matmul(_f32(BIG32), _f32(BIG32)),
    "add": lambda: ad.add(_f32(BIG32), _f32(BIG32)),
    "mul": lambda: ad.mul(_f32(BIG32), _f32(BIG32)),
    "combined_loss": lambda: combined_loss(_f32(BIG32, (2, 2, 2)), np.ones((2, 2, 2))),
    "reduce_sum": lambda: ad.reduce_sum(_f32(BIG32)),
    "conv3d": lambda: ad.conv3d(_f32(BIG32, (2, 2, 2, 1)), _f32(10.0, (1, 1, 1, 1, 1))),
    "upsample_conv3d": lambda: ad.upsample_conv3d(_f32(BIG32, (2, 2, 2, 1)),
                                                  _f32(10.0, (3, 3, 3, 1, 1)), 2),
    "attention": lambda: ad.attention(*(_f64(1e200, (4, 2)) for _ in range(3)), 1.0),
}


@pytest.mark.parametrize("op", sorted(OVERFLOWS))
def test_op_names_the_non_finite_value_it_makes(op):
    with np.errstate(all="ignore"), pytest.raises(ad.NonFiniteError) as err:
        OVERFLOWS[op]()
    assert str(err.value).startswith(f"{op}: non-finite output"), str(err.value)


FUSED_OVERFLOWS = {  # the bias, gain or shift term is what overflows
    "matmul": lambda: ad.matmul(_f32(1.0), _f32(BIG32 / 2), bias=_f32(BIG32, (2,))),
    "conv3d": lambda: ad.conv3d(_f32(BIG32, (2, 2, 2, 1)), _f32(1.0, (1, 1, 1, 1, 1)),
                                bias=_f32(BIG32, (1,))),
    "upsample_conv3d": lambda: ad.upsample_conv3d(
        [_f32(1.0, (1, 1, 1, 1)), _f32(1.0, (2, 2, 2, 1))], _f32(BIG32 / 54, (3, 3, 3, 2, 1)),
        [2, 1], bias=_f32(BIG32, (1,))),
    "layer_norm": lambda: ad.layer_norm(ad.tensor([[1.0, 2.0]], dtype=np.float32),
                                        gain=_f32(BIG32, (2,)), shift=_f32(BIG32, (2,))),
    "instance_norm": lambda: ad.instance_norm(ad.tensor([[1.0], [2.0]], dtype=np.float32),
                                              gain=_f32(BIG32, (1,)), shift=_f32(BIG32, (1,))),
}


@pytest.mark.parametrize("op", sorted(FUSED_OVERFLOWS))
def test_fused_op_names_its_own_overflow(op):
    with np.errstate(all="ignore"), pytest.raises(ad.NonFiniteError) as err:
        FUSED_OVERFLOWS[op]()
    assert str(err.value).startswith(f"{op}: non-finite output"), str(err.value)


@pytest.mark.parametrize("norm", ["layer_norm", "instance_norm"])
def test_norm_rejects_a_variance_that_overflows(norm):
    """A finite channel whose squares overflow f32 (+-1e20) has an infinite
    variance: the norm raises instead of returning its shift (inv would be
    1/sqrt(inf) = 0)."""
    values = np.array([1e20, -1e20, 3e19, 0.0]).reshape(4, 1)
    x = ad.tensor(values if norm == "instance_norm" else values.T, dtype=np.float32)
    shift = _f32(0.5, (1,) if norm == "instance_norm" else (4,))
    gain = _f32(1.0, shift.shape)
    with np.errstate(all="ignore"), pytest.raises(ad.NonFiniteError) as err:
        getattr(ad, norm)(x, gain=gain, shift=shift)
    assert str(err.value) == f"{norm}: non-finite variance", str(err.value)


def test_nested_scopes_prefix_outermost_first():
    with np.errstate(all="ignore"), pytest.raises(ad.NonFiniteError) as err:
        with ad.scope("outer"), ad.scope("inner"):
            ad.add(_f32(BIG32), _f32(BIG32))
    assert str(err.value) == "outer/inner/add: non-finite output"


def test_scope_leaves_other_errors_untouched():
    a, b = _f32(0.0, (2,)), _f32(0.0, (3,))
    with pytest.raises(ad.ShapeMismatchError) as bare:
        ad.add(a, b)
    with pytest.raises(ad.ShapeMismatchError) as scoped:
        with ad.scope("outer"):
            ad.add(a, b)
    assert str(scoped.value) == str(bare.value)
