"""gradient_check over several inputs, on both of its paths, the whole
model case against backward closures scaled by 1.001, the ablated model
case's zero image-branch gradient, and the op set:
every op serves the model and has a gradcheck case."""

import ast
import contextlib
import importlib
import pathlib

import numpy as np
import pytest

import voxseg
from gradcheck import DIRECTIONS, EXHAUSTIVE_MAX, gradient_check
from gradcheck_suite import MODEL_CASES, OP_CASES, TINY_MODEL, case_rng, run_gradcheck_suite
from voxseg import autodiff as ad
from voxseg import model, objectives
from voxseg.autodiff import conv

# the package exports a ``tensor`` function under the module's name
tensor_module = importlib.import_module("voxseg.autodiff.tensor")

MUTATED_OPS = ["gelu", "attention", "layer_norm", "instance_norm", "matmul", "conv3d",
               "upsample_conv3d", "combined_loss"]

# the lowercase callables of ``ad.__all__`` that are not differentiable ops
NOT_OPS = {"backward", "default_dtype", "no_grad", "precision", "scope", "tensor"}


@pytest.fixture(autouse=True)
def _f64():
    with ad.precision("f64"):
        yield


@contextlib.contextmanager
def scaled_backward(op, factor):
    """Every ``op`` node's backward closure sees its gradient times
    ``factor``: the closure ``_make`` receives is wrapped, in each module
    that builds nodes."""
    make = tensor_module._make

    def wrapped(name, data, parents, backward_fn):
        if name == op:
            inner = backward_fn

            def backward_fn(g):
                return inner(g * factor)

        return make(name, data, parents, backward_fn)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor_module, "_make", wrapped)
        mp.setattr(conv, "_make", wrapped)
        mp.setattr(objectives, "_make", wrapped)
        yield


def _matmul_inputs(rng, m, k, n):
    return rng.standard_normal((m, k)), rng.standard_normal((k, n)), rng.standard_normal(n)


def _biased_gelu(x, w, b):
    return ad.gelu(ad.matmul(x, w, bias=b))


@pytest.mark.parametrize("shape, by_direction", [((3, 4, 2), False), ((9, 8, 7), True)])
def test_gradient_check_covers_every_input(rng, shape, by_direction):
    """At most EXHAUSTIVE_MAX values run coordinate by coordinate over all
    inputs, more run on DIRECTIONS directions; both pass a correct gradient
    and fail one that is 0.1% off, also toward the last input alone."""
    inputs = _matmul_inputs(rng, *shape)
    size = sum(a.size for a in inputs)
    assert (size > EXHAUSTIVE_MAX) == by_direction
    rep = gradient_check(_biased_gelu, *inputs)
    assert rep.passed, rep
    assert rep.by_direction == by_direction
    assert rep.n_checked == (DIRECTIONS if by_direction else size)
    assert rep.max_rel_error < 1e-6
    with scaled_backward("gelu", 1.001):
        rep = gradient_check(_biased_gelu, *inputs)
    assert not rep.passed and rep.failures
    with scaled_backward("mul", 1.001):  # only the last input's gradient is off
        rep = gradient_check(lambda x, w, b: ad.add(ad.matmul(x, w), ad.mul(b, ad.tensor(1.0))),
                             *inputs)
    assert not rep.passed and rep.failures


def test_gradient_check_skips_an_input_without_a_gradient_path(rng):
    """An input f ignores has gradient zero, and its differences are zero."""
    x, unused = rng.standard_normal(3), rng.standard_normal(2)
    rep = gradient_check(lambda a, b: ad.mul(a, ad.tensor(2.0)), x, unused)
    assert rep.passed and rep.n_checked == 5


def test_direction_check_flags_a_kink_at_the_point():
    """Inputs on a relu kink: every direction crosses it, so every one is
    flagged (its one-sided slopes split), and a check that flags all fails."""
    x = np.zeros(EXHAUSTIVE_MAX + 1)
    x[1:] = np.linspace(0.5, 1.5, EXHAUSTIVE_MAX)
    rep = gradient_check(ad.relu, x)
    assert rep.by_direction and rep.flagged == list(range(DIRECTIONS))
    assert not rep.failures and not rep.passed


def test_direction_check_steps_below_a_nearby_kink():
    """A relu unit 1e-8 from its kink is crossed by the first step along
    most directions, not by a step a hundred times smaller."""
    x = np.linspace(0.5, 1.5, EXHAUSTIVE_MAX + 1)
    x[0] = 1e-8
    rep = gradient_check(ad.relu, x)
    assert rep.by_direction and rep.passed and not rep.flagged, rep


@pytest.mark.parametrize("op", MUTATED_OPS)
def test_model_case_fails_when_one_backward_is_scaled(op):
    """The default model case fails when one op kind's backward is off by
    0.1%, one kind at a time."""
    with scaled_backward(op, 1.001):
        [result] = run_gradcheck_suite(instances=1, cases=MODEL_CASES[:1])
    assert result.name == "model" and result.dirs == DIRECTIONS
    assert not result.passed


def test_no_image_branch_case_gives_the_image_branch_zero_gradient():
    """The ablated model case reads no image-branch parameter, so those get
    exactly zero gradient, and every other decoder parameter a nonzero one."""
    name = "model_no_image_branch"
    f, *params = dict(MODEL_CASES)[name](case_rng(name, seed=0))
    names = [n for n, _ in model.init_store(TINY_MODEL, 0).trainable()]
    ts = [ad.tensor(p, requires_grad=True) for p in params]
    ad.backward(f(*ts))
    moved = {n: t.grad is not None and t.grad.any() for n, t in zip(names, ts)}
    image = [n for n in names if ".img." in n]
    assert len(image) == 4 * 6  # one 6-parameter pyramid stage per enhancer
    assert not any(moved[n] for n in image)
    assert all(moved[n] for n in names if n.startswith("decoder.") and n not in image)


@pytest.mark.parametrize("name", [name for name, _ in MODEL_CASES])
def test_model_case_instances_reach_every_parameter(name):
    """Over a model case's 20 seed-0 instances, every trainable parameter
    the forward reads gets a nonzero analytic gradient in at least one.
    Dead adapter relu units zero some parameter's gradient in a few
    instances (5 of the 20 of ``model``), never in all of them; the ablated
    forward reads none of the 24 image-branch parameters."""
    names = [n for n, _ in model.init_store(TINY_MODEL, 0).trainable()]
    unread = {n for n in names if ".img." in n} if name == "model_no_image_branch" else set()
    rng = case_rng(name, seed=0)
    reached = set()
    with ad.precision("f64"):
        for _ in range(20):
            f, *params = dict(MODEL_CASES)[name](rng)
            ts = [ad.tensor(p, requires_grad=True) for p in params]
            ad.backward(f(*ts))
            reached |= {n for n, t in zip(names, ts) if t.grad is not None and t.grad.any()}
    assert len(names) == 100 and len(unread) in (0, 24)
    assert reached == set(names) - unread


def test_every_op_serves_the_model_and_is_gradchecked():
    """Every differentiable op in ``ad.__all__`` is called as ``ad.<op>`` by
    a module of the package outside ``autodiff/``, so no op stays in the
    package for tests alone, and has a case in
    ``gradcheck_suite.OP_CASES`` whose name starts with the op's."""
    ops = {name for name in ad.__all__
           if name.islower() and callable(getattr(ad, name))} - NOT_OPS
    used = set()
    for path in pathlib.Path(voxseg.__file__).parent.glob("*.py"):
        used |= {node.attr for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id == "ad"}
    assert sorted(ops - used) == []
    assert sorted(op for op in ops if not any(case.startswith(op) for case, _ in OP_CASES)) == []
