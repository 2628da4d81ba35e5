"""Where non-finite values are caught: each op rejects the non-finite
value it makes, under its own name, and ``ad.scope`` prefixes the
module that ran it."""

import numpy as np
import pytest

from voxseg import autodiff as ad

BIG32 = 3e38  # finite in f32, overflows when doubled


def _f32(value, shape=(2, 2)):
    return ad.tensor(np.full(shape, value), dtype=np.float32)


def _f64(value, shape):
    return ad.tensor(np.full(shape, value), dtype=np.float64)


OVERFLOWS = {
    "matmul": lambda: ad.matmul(_f32(BIG32), _f32(BIG32)),
    "add": lambda: ad.add(_f32(BIG32), _f32(BIG32)),
    "mul": lambda: ad.mul(_f32(BIG32), _f32(BIG32)),
    "scale": lambda: ad.scale(_f32(BIG32), 10.0),
    "div": lambda: ad.div(_f32(1.0), _f32(0.0)),
    "reduce_sum": lambda: ad.reduce_sum(_f32(BIG32)),
    "conv3d": lambda: ad.conv3d(_f32(BIG32, (2, 2, 2, 1)), _f32(10.0, (1, 1, 1, 1, 1))),
    "attention": lambda: ad.attention(*(_f64(1e200, (4, 2)) for _ in range(3)), 1.0),
}


@pytest.mark.parametrize("op", sorted(OVERFLOWS))
def test_op_names_the_non_finite_value_it_makes(op):
    with np.errstate(all="ignore"), pytest.raises(ad.NonFiniteError) as err:
        OVERFLOWS[op]()
    assert str(err.value).startswith(f"{op}: non-finite output"), str(err.value)


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
