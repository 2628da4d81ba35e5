"""Backward mechanics: seeding, accumulation, pruning, gradient_check."""

import os
import subprocess
import sys

import numpy as np
import pytest

import voxseg
import voxseg.decoder
import voxseg.model
from voxseg import autodiff as ad
from voxseg.autodiff import ParameterStore
from voxseg.objectives import combined_loss
from voxseg.volume_io import generate_phantom

import helpers
from gradcheck import gradient_check
from gradcheck_suite import TINY_MODEL
from graph_bytes import closure_arrays as _held_arrays


@pytest.fixture(autouse=True)
def _f64():
    with ad.precision("f64"):
        yield


def test_backward_sum_gives_ones():
    x = ad.tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    ad.backward(ad.reduce_sum(x))
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_dead_relu_region():
    x = ad.tensor([-1.0, -2.0, -0.5], requires_grad=True)
    ad.backward(ad.reduce_sum(ad.relu(x)))
    np.testing.assert_array_equal(x.grad, np.zeros(3))


def test_backward_requires_scalar():
    x = ad.tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ad.GraphError):
        ad.backward(ad.relu(x))


def test_backward_accumulates_on_leaves():
    x = ad.tensor([3.0], requires_grad=True)
    loss = ad.reduce_sum(ad.mul(x, x))
    ad.backward(loss)
    np.testing.assert_allclose(x.grad, [6.0])
    ad.backward(loss)
    np.testing.assert_allclose(x.grad, [12.0])


def test_backward_frees_interior_gradients():
    x = ad.tensor([[1.0, -2.0], [0.5, 3.0]], requires_grad=True)
    w = ad.tensor([[0.3, -1.0], [2.0, 0.7]], requires_grad=True)
    b = ad.tensor([0.1, -0.4])
    mm = ad.matmul(x, w)
    y = ad.add(mm, b)
    r = ad.relu(y)
    sq = ad.mul(r, r)
    loss = ad.reduce_sum(sq)
    ad.backward(loss)
    for node in (mm, y, r, sq, loss):
        assert node.grad is None
    dy = 2 * r.numpy() * (y.numpy() > 0)
    np.testing.assert_allclose(x.grad, dy @ w.numpy().T)
    np.testing.assert_allclose(w.grad, x.numpy().T @ dy)
    assert b.grad is None


def test_first_gradients_never_alias_across_leaves_or_passes(rng):
    """Gradients passed to two parents, views and fresh products: the leaf
    gradients are right on the first pass and accumulate exactly on the second."""
    c = rng.standard_normal((2, 6))
    a = ad.tensor(rng.standard_normal((2, 6)), requires_grad=True)
    x = ad.tensor(rng.standard_normal((2, 6)), requires_grad=True)
    y = ad.tensor(rng.standard_normal((2, 6)), requires_grad=True)
    m = ad.tensor(rng.standard_normal((6, 4)), requires_grad=True)
    s = ad.add(x, y)  # one upstream gradient feeds x and y
    chain = ad.reshape(ad.permute(ad.reshape(ad.matmul(a, m), (4, 2)), (1, 0)), (2, 4))
    loss = ad.add(ad.reduce_sum(ad.mul(ad.add(a, a), ad.tensor(c))),
                  ad.add(ad.reduce_sum(ad.mul(s, ad.tensor(c))), ad.reduce_sum(chain)))
    ones = np.ones((2, 4))
    expected = {
        "a": 2 * c + ones @ m.numpy().T,
        "x": c,
        "y": c,
        "m": a.numpy().T @ ones,
    }
    leaves = {"a": a, "x": x, "y": y, "m": m}
    for n in (1, 2):
        ad.backward(loss)
        for name, leaf in leaves.items():
            np.testing.assert_allclose(leaf.grad, n * expected[name], rtol=1e-12)
    assert not np.shares_memory(x.grad, y.grad)


@pytest.mark.parametrize("stride", [1, (2, 1, 2)])
def test_conv3d_closure_keeps_no_padded_input(rng, stride):
    """The backward re-pads x; the (8, 7, 9, 2) padded copy dies with the forward."""
    x = ad.tensor(rng.standard_normal((6, 5, 7, 2)), requires_grad=True)
    w = ad.tensor(rng.standard_normal((3, 3, 3, 2, 3)), requires_grad=True)
    out = ad.conv3d(x, w, stride=stride, padding=1)
    assert all(a.shape != (8, 7, 9, 2) for a in _held_arrays(out._record._backward))


def test_gelu_closure_keeps_only_its_input(rng):
    """The tanh is recomputed in the backward, not kept."""
    x = ad.tensor(rng.standard_normal((4, 5)), requires_grad=True)
    held = list(_held_arrays(ad.gelu(x)._record._backward))
    assert all(a.shape != x.shape or a is x.data for a in held)


def test_relu_closure_keeps_no_mask(rng):
    x = ad.tensor(rng.standard_normal((4, 5)), requires_grad=True)
    assert not any(a.dtype == bool for a in _held_arrays(ad.relu(x)._record._backward))


@pytest.mark.parametrize("norm,shape", [(ad.layer_norm, (4, 5)),
                                        (ad.instance_norm, (3, 4, 2, 5))])
@pytest.mark.parametrize("trainable", [False, True])
def test_norm_closure_keeps_only_mean_and_inverse_std(rng, norm, shape, trainable):
    """x_hat is rebuilt from x in the backward: besides the data of x and
    gain it reads, the closure holds only mu and inv, one value per
    normalized group, and no other array of x's shape; so with a frozen
    gain and shift (the encoder's) as with trainable ones. The output's
    rebuild hook holds the same mu and inv, and x, gain and shift: no
    array of its own, and not the output."""
    x = ad.tensor(rng.standard_normal(shape), requires_grad=True)
    kw = {"gain": ad.tensor(np.ones(shape[-1]), requires_grad=trainable),
          "shift": ad.tensor(np.zeros(shape[-1]), requires_grad=trainable)}
    out = norm(x, **kw)
    held = list(_held_arrays(out._record._backward))
    inputs = [x.data, kw["gain"].data]
    own = [a for a in held if not any(a is i for i in inputs)]
    assert len(own) == 2 and len(held) == len(own) + len(inputs)
    assert all(a.size < x.size and a.ndim == x.data.ndim for a in own)
    hook = list(_held_arrays(out._rebuild))
    assert len(hook) == 5 and not any(a is out.data for a in hook)
    assert {id(a) for a in hook} == {id(a) for a in own + inputs + [kw["shift"].data]}


@pytest.mark.parametrize("trainable", [False, True])
def test_instance_norm_relu_is_bit_identical_to_relu_of_norm(rng, trainable):
    """One node whose f32 output and every input gradient equal those of
    relu(instance_norm(...)) bit for bit, with a frozen or a trainable gain
    and shift; its closure keeps no x-shaped array but x's data: the
    relu's mask comes from x_hat * gain + shift, rebuilt from x, mu and
    inv in the forward's order."""
    arrays = [rng.standard_normal((3, 4, 2, 5)).astype(np.float32),
              rng.standard_normal(5).astype(np.float32),
              rng.standard_normal(5).astype(np.float32)]
    g = rng.standard_normal((3, 4, 2, 5)).astype(np.float32)
    results = []
    for fused in (True, False):
        ts = [ad.tensor(a, requires_grad=i == 0 or trainable, dtype=np.float32)
              for i, a in enumerate(arrays)]
        kw = {"gain": ts[1], "shift": ts[2]}
        if fused:
            out = ad.instance_norm(ts[0], relu=True, **kw)
            assert list(out._parents) == [t._record for t in ts if t.requires_grad]
            held = list(_held_arrays(out._record._backward))
            assert all(a.shape != ts[0].shape or a is ts[0].data for a in held)
        else:
            out = ad.relu(ad.instance_norm(ts[0], **kw))
        ad.backward(ad.reduce_sum(ad.mul(out, ad.tensor(g, dtype=np.float32))))
        results.append([out.numpy()] + [t.grad for t in ts[: 3 if trainable else 1]])
    assert 0 < (results[0][0] > 0).mean() < 1
    for got, ref in zip(*results):
        assert got.dtype == np.float32 and np.array_equal(got, ref)


def _op_of(node):
    """The op that made an interior node, from its backward's qualified name."""
    return node._backward.__qualname__.split(".")[0]


def test_decoder_builds_no_concat_and_no_relu_after_a_norm(rng):
    """One forward of the tiny decoder (four enhancers and the head) feeds
    its lists of inputs straight to conv3d or upsample_conv3d (each
    enhancer's fuse conv and the head's smooth conv) and applies every
    block's relu inside the instance norm."""
    spec = TINY_MODEL
    store = voxseg.model.init_store(spec, seed=0)
    image = ad.tensor(rng.random((16, 16, 16, 1)))
    enhanced = []
    for j in range(1, len(spec.taps) + 1):
        tap = ad.tensor(rng.standard_normal((64, 16)), requires_grad=True)
        ep = voxseg.decoder.enhancer_from_store(store, j, spec)
        enhanced.append(voxseg.decoder.original_feature_enhancer(tap, image, ep))
    prob = voxseg.decoder.predict(enhanced, voxseg.decoder.predict_from_store(store, spec))
    nodes, stack, seen = [], [prob._record], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen and node._backward is not None:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    ops = [_op_of(n) for n in nodes]
    assert ops.count("conv3d") == 4 * 3 + 3 and ops.count("upsample_conv3d") == 4 + 1
    assert ops.count("_normalize") == 4 * 4 + 2
    assert "concat" not in ops
    assert not any(_op_of(n) == "relu" and any(p._backward is not None
                                                and _op_of(p) == "_normalize"
                                                for p in n._parents) for n in nodes)


@pytest.mark.parametrize("weight", [0.5, 1 / 3])
def test_backward_weight_seeds_the_loss_gradient(weight):
    """``backward(loss, weight=w)``, as a training step calls it with
    w = 1/batch, leaves every leaf gradient of a tiny f32 training case
    equal bit for bit to backpropagating ``mul(loss, w)``."""
    spec = TINY_MODEL
    vol, mask = generate_phantom(3, spec.vol_dims)
    grads = []
    for weighted in (True, False):
        with ad.precision("f32"):
            store = voxseg.model.init_store(spec, seed=0)
            loss = combined_loss(voxseg.model.forward(spec, store, vol), mask.data)
            if weighted:
                ad.backward(loss, weight=weight)
            else:
                ad.backward(ad.mul(loss, ad.tensor(weight)))
        grads.append({name: t.grad for name, t in store.trainable()})
    assert grads[0].keys() == grads[1].keys()
    for name, g in grads[0].items():
        assert g.dtype == np.float32 and np.array_equal(g, grads[1][name]), name


def test_shared_subgraph_visited_once():
    # z = (x + x) * x => dz/dx = 4x; a double visit would inflate this
    x = ad.tensor([2.0, -3.0], requires_grad=True)
    z = ad.reduce_sum(ad.mul(ad.add(x, x), x))
    ad.backward(z)
    np.testing.assert_allclose(x.grad, 4 * x.numpy())


def test_random_composite_graph_matches_fd(rng):
    w1 = ad.tensor(rng.standard_normal((6, 4)))
    w2 = ad.tensor(rng.standard_normal((4, 3)))

    def f(x):
        h = ad.gelu(ad.matmul(x, w1))
        h = ad.layer_norm(h, **helpers.unit_affine(h))
        a = ad.matmul(h, w2)
        return ad.attention(a, a, a, 1.0)

    rep = gradient_check(f, rng.standard_normal((5, 6)), tol=1e-4, step=1e-5)
    assert rep.passed, rep
    assert rep.max_rel_error < 1e-4


def test_gradient_check_identity_error_zero(rng):
    rep = gradient_check(lambda t: t, rng.standard_normal((8,)))
    assert rep.passed
    assert rep.max_rel_error < 1e-9


def test_gradient_check_flags_relu_subgradient():
    x = np.array([1.0, 0.0, -1.0, 0.0])
    rep = gradient_check(ad.relu, x)
    assert rep.passed
    assert set(rep.flagged) == {1, 3}


def test_gradient_check_rejects_nondeterministic():
    state = {"n": 0}

    def f(t):
        state["n"] += 1
        return ad.mul(t, ad.tensor(float(state["n"]), dtype=t.dtype))

    with pytest.raises(ad.GraphError):
        gradient_check(f, np.ones(3))


def test_gradcheck_suite_repeats_across_processes():
    """Case seeds, and the directions of a case checked on directions, must
    not depend on the per-process str hash seed."""
    code = (
        "from gradcheck_suite import ALL_CASES, run_gradcheck_suite\n"
        "cases = [c for c in ALL_CASES if c[0] in ('conv3d', 'enhancer')]\n"
        "for r in run_gradcheck_suite(instances=4, cases=cases):\n"
        "    print(r.name, repr(r.max_err), r.coords, r.dirs)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(voxseg.__file__)))
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join(p for p in (src, here, os.environ.get("PYTHONPATH")) if p)
    errs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        errs.append(out.stdout.strip())
    assert errs[0] == errs[1]
    assert errs[0].splitlines()[1].endswith(" 0 6")  # the enhancer runs on directions


def test_no_grad_builds_no_graph():
    x = ad.tensor([1.0], requires_grad=True)
    with ad.no_grad():
        y = ad.relu(x)
    assert not y.requires_grad
    assert y._record is None


def test_frozen_leaf_receives_no_gradient():
    w = ad.tensor(np.ones((2, 2)), requires_grad=False)
    x = ad.tensor(np.ones((2, 2)), requires_grad=True)
    ad.backward(ad.reduce_sum(ad.matmul(x, w)))
    assert w.grad is None
    assert x.grad is not None


def test_parameter_store_basics():
    store = ParameterStore()
    t = store.add("a.w", ad.tensor(np.ones((2, 2))), frozen=False)
    store.add("a.frozen", ad.tensor(np.ones(3)), frozen=True)
    with pytest.raises(ad.GraphError):
        store.add("a.w", ad.tensor(np.zeros(1)))
    assert helpers.total_params(store) == 7
    assert helpers.trainable_params(store) == 4
    assert helpers.is_frozen(store, "a.frozen")
    assert not store["a.frozen"].requires_grad
    assert t.requires_grad
    with pytest.raises(ad.GraphError):
        store["missing"]
