"""Encoder layer semantics against literal step-by-step oracles, taps,
and the freeze policy."""

import dataclasses

import numpy as np
import pytest

import helpers
from voxseg import autodiff as ad
from voxseg import encoder as enc
from voxseg import model as mdl
from voxseg.patch_embed import FeatureMap
from voxseg.verify import _mini_layer_params


@pytest.fixture(autouse=True)
def _f64():
    with ad.precision("f64"):
        yield


def _fm(arr):
    return FeatureMap.wrap(ad.tensor(arr))


# ---------------------------------------------------------------------------
# adapter
# ---------------------------------------------------------------------------


def test_adapter_zero_down_gives_zero(rng):
    p = _mini_layer_params(rng, c=6, l=2)
    p = dataclasses.replace(p, adapter_down=ad.tensor(np.zeros((6, 2))))
    out = enc.adapter_forward(ad.tensor(rng.standard_normal((5, 6))), p)
    np.testing.assert_array_equal(out.numpy(), 0.0)


def test_adapter_identity_on_nonnegative(rng):
    c = 4
    p = _mini_layer_params(rng, c=c, l=c)
    p = dataclasses.replace(p, adapter_down=ad.tensor(np.eye(c)),
                            adapter_up=ad.tensor(np.eye(c)))
    x = np.abs(rng.standard_normal((7, c)))
    out = enc.adapter_forward(ad.tensor(x), p)
    np.testing.assert_allclose(out.numpy(), x, rtol=1e-12)


def test_adapter_matches_dense_algebra_oracle(rng):
    c, l = 4, 2
    p = _mini_layer_params(rng, c=c, l=l)
    x = rng.standard_normal((6, c))
    out = enc.adapter_forward(ad.tensor(x), p).numpy()
    expected = np.maximum(x @ p.adapter_down.numpy(), 0) @ p.adapter_up.numpy()
    assert np.abs(out - expected).max() < 1e-6


def test_adapter_channel_mismatch(rng):
    p = _mini_layer_params(rng, c=6, l=2)
    with pytest.raises(ad.ShapeMismatchError):
        enc.adapter_forward(ad.tensor(np.zeros((3, 5))), p)


# ---------------------------------------------------------------------------
# layer recurrence
# ---------------------------------------------------------------------------


def _numpy_layer_oracle(x, p, s, heads):
    """Literal recomputation of the layer recurrence in plain numpy."""

    def norm(v, g, b):
        mu = v.mean(-1, keepdims=True)
        var = v.var(-1, keepdims=True)
        return (v - mu) / np.sqrt(var + 1e-6) * g + b

    def attn(z):
        m, c = z.shape
        d = c // heads
        q = (z @ p.wq.numpy() + p.bq.numpy()).reshape(m, heads, d).transpose(1, 0, 2)
        k = (z @ p.wk.numpy() + p.bk.numpy()).reshape(m, heads, d).transpose(1, 0, 2)
        v = (z @ p.wv.numpy() + p.bv.numpy()).reshape(m, heads, d).transpose(1, 0, 2)
        logits = q @ k.transpose(0, 2, 1) / np.sqrt(d)
        e = np.exp(logits - logits.max(-1, keepdims=True))
        w = e / e.sum(-1, keepdims=True)
        ctx = (w @ v).transpose(1, 0, 2).reshape(m, c)
        return ctx @ p.wo.numpy() + p.bo.numpy()

    def act(v):
        return 0.5 * v * (1 + np.tanh(np.sqrt(2 / np.pi) * (v + 0.044715 * v**3)))

    def mlp(z):
        return act(z @ p.mlp_w1.numpy() + p.mlp_b1.numpy()) @ p.mlp_w2.numpy() + p.mlp_b2.numpy()

    def adapter(z):
        return np.maximum(z @ p.adapter_down.numpy(), 0) @ p.adapter_up.numpy()

    z_dot = norm(x, p.norm1_g.numpy(), p.norm1_b.numpy())
    z_hat = x + attn(z_dot)
    z_ddot = norm(z_hat, p.norm2_g.numpy(), p.norm2_b.numpy())
    return mlp(z_ddot) + s * adapter(z_ddot), z_ddot


def test_layer_matches_literal_oracle(rng):
    p = _mini_layer_params(rng)
    x = rng.standard_normal((2, 2, 2, 8))
    out = enc.layer_forward(_fm(x), p, s=0.8, heads=2).data.numpy()
    expected, _ = _numpy_layer_oracle(x.reshape(8, 8), p, 0.8, heads=2)
    assert np.abs(out.reshape(8, 8) - expected).max() < 1e-6


def test_layer_s_zero_equals_adapter_free(rng):
    p = _mini_layer_params(rng)
    x = rng.standard_normal((2, 2, 2, 8))
    out0 = enc.layer_forward(_fm(x), p, s=0.0, heads=2).data.numpy()
    p_no_adapter = dataclasses.replace(p, adapter_up=ad.tensor(np.zeros((2, 8))))
    out_zeroed = enc.layer_forward(_fm(x), p_no_adapter, s=1.0, heads=2).data.numpy()
    np.testing.assert_allclose(out0, out_zeroed, rtol=1e-12)


def test_layer_zero_frozen_weights_reduces_to_adapter(rng):
    """attention = mlp = 0, s = 1: output is Adapter(Norm(input))."""
    c = 8
    p = _mini_layer_params(rng, c=c)
    zeros_c = ad.tensor(np.zeros(c))
    p = dataclasses.replace(
        p,
        wq=ad.tensor(np.zeros((c, c))), bq=zeros_c,
        wk=ad.tensor(np.zeros((c, c))), bk=zeros_c,
        wv=ad.tensor(np.zeros((c, c))), bv=zeros_c,
        wo=ad.tensor(np.zeros((c, c))), bo=zeros_c,
        mlp_w1=ad.tensor(np.zeros((c, 2 * c))), mlp_b1=ad.tensor(np.zeros(2 * c)),
        mlp_w2=ad.tensor(np.zeros((2 * c, c))), mlp_b2=zeros_c,
        norm1_g=ad.tensor(np.ones(c)), norm1_b=zeros_c,
        norm2_g=ad.tensor(np.ones(c)), norm2_b=zeros_c,
    )
    x = rng.standard_normal((2, 2, 2, c))
    out = enc.layer_forward(_fm(x), p, s=1.0, heads=2).data.numpy().reshape(8, c)
    tokens = x.reshape(8, c)
    normed = (tokens - tokens.mean(-1, keepdims=True)) / np.sqrt(
        tokens.var(-1, keepdims=True) + 1e-6
    )
    expected = np.maximum(normed @ p.adapter_down.numpy(), 0) @ p.adapter_up.numpy()
    np.testing.assert_allclose(out, expected, rtol=1e-9, atol=1e-12)


def test_layer_scale_linearity(rng):
    """Z(2s) - Z(s) = s * Adapter(Z_ddot) for a single layer."""
    p = _mini_layer_params(rng)
    x = rng.standard_normal((2, 2, 2, 8))
    s = 0.6
    out1 = enc.layer_forward(_fm(x), p, s=s, heads=2).data.numpy()
    out2 = enc.layer_forward(_fm(x), p, s=2 * s, heads=2).data.numpy()
    _, z_ddot = _numpy_layer_oracle(x.reshape(8, 8), p, s, heads=2)
    adapter = np.maximum(z_ddot @ p.adapter_down.numpy(), 0) @ p.adapter_up.numpy()
    np.testing.assert_allclose(
        (out2 - out1).reshape(8, 8), s * adapter, rtol=1e-8, atol=1e-10
    )


def test_attention_rows_sum_to_one(rng):
    """With v = 1 each output entry is one row sum of the attention weights."""
    q, k = rng.standard_normal((8, 8)) * 3, rng.standard_normal((8, 8)) * 3
    out = ad.attention(ad.tensor(q), ad.tensor(k), ad.tensor(np.ones((8, 6))), 0.5, heads=2)
    np.testing.assert_allclose(out.numpy(), 1.0, atol=1e-6)


def test_attention_graph_keeps_no_score_nodes(rng):
    """No (heads, M, M) array survives the forward: no node holds scores or
    probabilities, and neither does the fused op's closure."""
    heads, m, c = 4, 64, 8
    p = _mini_layer_params(rng, c=c)
    z = ad.tensor(rng.standard_normal((m, c)), requires_grad=True)
    out = enc.attention_forward(z, p, heads)

    nodes, stack = {}, [out._record]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    square = set()
    for node in nodes.values():
        assert node.data.shape != (heads, m, m)
        closure = node._backward.__closure__ if node._backward else None
        for cell in closure or ():
            held = cell.cell_contents
            held = held.data if isinstance(held, ad.Tensor) else held
            if isinstance(held, np.ndarray) and held.shape == (heads, m, m):
                square.add(id(held))
    assert not square
    # z, the biased q, k and v products, one attention node over all heads
    # and the biased output product: no node splits or merges heads
    assert [node.op for node in nodes.values()].count("matmul") == 4
    assert len(nodes) == 6


def test_layer_names_attention_on_score_overflow():
    c = 8
    rng = np.random.default_rng(0)
    p = _mini_layer_params(rng, c=c)
    p = dataclasses.replace(p, wq=ad.tensor(np.full((c, c), 1e200)),
                            wk=ad.tensor(np.full((c, c), 1e200)))
    with pytest.raises(ad.NonFiniteError) as err:
        enc.layer_forward(_fm(rng.standard_normal((2, 2, 2, c))), p, s=1.0, heads=2)
    assert "layer_forward/attention" in str(err.value)


def test_layer_names_failing_substep():
    c = 8
    rng = np.random.default_rng(0)
    p = _mini_layer_params(rng, c=c)
    big = np.zeros((c, 2 * c))
    big[0, 0] = 1e308  # overflow inside the mlp matmul
    p = dataclasses.replace(p, mlp_w1=ad.tensor(big))
    x = rng.standard_normal((2, 2, 2, c)) + 10
    with pytest.raises(ad.NonFiniteError) as err:
        enc.layer_forward(_fm(x), p, s=1.0, heads=2)
    assert "mlp" in str(err.value)


# ---------------------------------------------------------------------------
# encode + freeze policy
# ---------------------------------------------------------------------------


def _tiny_spec():
    return mdl.ModelSpec(
        vol_dims=(16, 16, 16), patch=(4, 4, 4), embed_dim=16, heads=2,
        adapter_dim=4, prompt_n=16, dec_channels=8,
    ).validate()


def test_encode_taps_shapes_and_structure(rng):
    spec = _tiny_spec()
    store = mdl.init_store(spec, seed=0)
    fm = _fm(rng.standard_normal((4, 4, 4, 16)))
    taps = enc.encode(fm, spec, store)
    assert sorted(taps) == [3, 6, 9, 12]
    for t in taps.values():
        assert t.data.shape == (4, 4, 4, 16)


def test_encode_missing_layer_rejected(rng):
    spec = _tiny_spec()
    store = mdl.init_store(spec, seed=0)
    fm = _fm(rng.standard_normal((4, 4, 4, 16)))
    bad_spec = dataclasses.replace(spec, layers=13)
    with pytest.raises(ad.GraphError):
        enc.encode(fm, bad_spec, store)


def test_encode_zeroed_frozen_weights_literal_flow(rng):
    """With all frozen cores zeroed and s=0 the literal recurrence
    collapses every layer output to zero: the layer has no feed-through
    term besides MLP + adapter."""
    spec = _tiny_spec()
    store = mdl.init_store(spec, seed=0)
    for name, t, frozen in store.items():
        if frozen and not name.endswith(("norm1_g", "norm2_g")):
            t.data[...] = 0.0
    zero_scale = dataclasses.replace(spec, adapter_scale=0.0)
    fm = _fm(rng.standard_normal((4, 4, 4, 16)))
    taps = enc.encode(fm, zero_scale, store)
    for t in taps.values():
        np.testing.assert_array_equal(t.data.numpy(), 0.0)


def test_gradient_reaches_adapters_not_frozen(rng):
    spec = _tiny_spec()
    store = mdl.init_store(spec, seed=0)
    fm = _fm(rng.standard_normal((4, 4, 4, 16)))
    taps = enc.encode(fm, spec, store)
    loss = ad.reduce_mean(ad.mul(taps[12].data, taps[12].data))
    ad.backward(loss)
    down = store["encoder.layer01.adapter_down"]
    up = store["encoder.layer12.adapter_up"]
    assert up.grad is not None and np.abs(up.grad).max() > 0
    assert down.grad is None or True  # zero-init up blocks layer-1 down at step 1
    for name, t in helpers.frozen(store):
        assert t.grad is None, name


def test_freeze_policy_classification():
    assert enc.classify_parameter("encoder.layer03.wq") is True
    assert enc.classify_parameter("encoder.layer03.mlp_w1") is True
    assert enc.classify_parameter("encoder.layer03.norm1_g") is True
    assert enc.classify_parameter("encoder.layer03.adapter_down") is False
    assert enc.classify_parameter("patch.pos") is False
    assert enc.classify_parameter("prompter.wq") is False
    assert enc.classify_parameter("decoder.head.conv1_w") is False
    with pytest.raises(ad.GraphError):
        enc.classify_parameter("mystery.weight")
    with pytest.raises(ad.GraphError):
        enc.classify_parameter("encoder.layer01.unknown")


def test_trainable_strictly_less_than_total():
    spec = _tiny_spec()
    store = mdl.init_store(spec, seed=0)
    assert 0 < helpers.trainable_params(store) < helpers.total_params(store)


def test_adapter_parameter_count_desk_config():
    """Desk config C=64, l=16: trainable adapter params per layer = 2*C*l."""
    spec = mdl.ModelSpec().validate()
    store = mdl.init_store(spec, seed=0)
    per_layer = (
        store["encoder.layer05.adapter_down"].size
        + store["encoder.layer05.adapter_up"].size
    )
    assert per_layer == 2 * 64 * 16 == 2048
