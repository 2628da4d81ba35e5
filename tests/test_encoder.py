"""Encoder layer semantics against literal step-by-step oracles, taps,
and the freeze policy."""

import dataclasses

import numpy as np
import pytest

import helpers
from gradcheck_suite import TINY_MODEL, block_params
from voxseg import autodiff as ad
from voxseg import encoder as enc
from voxseg import model as mdl


@pytest.fixture(autouse=True)
def _f64():
    with ad.precision("f64"):
        yield


# ---------------------------------------------------------------------------
# adapter
# ---------------------------------------------------------------------------


def test_adapter_zero_down_gives_zero(rng):
    p = block_params("layer", rng, embed_dim=6)
    p = dataclasses.replace(p, adapter_down=ad.tensor(np.zeros((6, 2))))
    out = enc.adapter_forward(ad.tensor(rng.standard_normal((5, 6))), p)
    np.testing.assert_array_equal(out.numpy(), 0.0)


def test_adapter_identity_on_nonnegative(rng):
    c = 4
    p = block_params("layer", rng, embed_dim=c, adapter_dim=c)
    p = dataclasses.replace(p, adapter_down=ad.tensor(np.eye(c)),
                            adapter_up=ad.tensor(np.eye(c)))
    x = np.abs(rng.standard_normal((7, c)))
    out = enc.adapter_forward(ad.tensor(x), p)
    np.testing.assert_allclose(out.numpy(), x, rtol=1e-12)


def test_adapter_matches_dense_algebra_oracle(rng):
    c, l = 4, 2
    p = block_params("layer", rng, embed_dim=c, adapter_dim=l)
    x = rng.standard_normal((6, c))
    out = enc.adapter_forward(ad.tensor(x), p).numpy()
    expected = np.maximum(x @ p.adapter_down.numpy(), 0) @ p.adapter_up.numpy()
    assert np.abs(out - expected).max() < 1e-6


def test_adapter_channel_mismatch(rng):
    p = block_params("layer", rng, embed_dim=6)
    with pytest.raises(ad.ShapeMismatchError):
        enc.adapter_forward(ad.tensor(np.zeros((3, 5))), p)


# ---------------------------------------------------------------------------
# layer recurrence
# ---------------------------------------------------------------------------


def _numpy_layer_oracle(x, p, heads):
    """Literal recomputation of the layer recurrence in plain numpy; returns
    its two terms, mlp(Z_ddot) and Adapter(Z_ddot)."""

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
    return mlp(z_ddot), adapter(z_ddot)


def test_layer_matches_literal_oracle(rng):
    p = block_params("layer", rng)
    x = rng.standard_normal((8, 8))
    out = enc.layer_forward(ad.tensor(x), p, heads=2).numpy()
    mlp, adapter = _numpy_layer_oracle(x, p, heads=2)
    assert np.abs(out - (mlp + adapter)).max() < 1e-6


def test_layer_s_zero_equals_adapter_free(rng):
    """Zeroing either adapter projection leaves the adapter-free layer,
    mlp(Z_ddot), bit for bit the same either way."""
    p = block_params("layer", rng)
    x = rng.standard_normal((8, 8))
    no_up = dataclasses.replace(p, adapter_up=ad.tensor(np.zeros((2, 8))))
    no_down = dataclasses.replace(p, adapter_down=ad.tensor(np.zeros((8, 2))))
    out_up = enc.layer_forward(ad.tensor(x), no_up, heads=2).numpy()
    out_down = enc.layer_forward(ad.tensor(x), no_down, heads=2).numpy()
    np.testing.assert_array_equal(out_up, out_down)
    mlp, _ = _numpy_layer_oracle(x, p, heads=2)
    assert np.abs(out_up - mlp).max() < 1e-6


def test_layer_zero_frozen_weights_reduces_to_adapter(rng):
    """attention = mlp = 0: output is Adapter(Norm(input))."""
    c = 8
    drawn = block_params("layer", rng, embed_dim=c)  # norm gains 1
    p = dataclasses.replace(block_params("layer", embed_dim=c), norm1_g=drawn.norm1_g,
                            norm2_g=drawn.norm2_g, adapter_down=drawn.adapter_down,
                            adapter_up=drawn.adapter_up)
    tokens = rng.standard_normal((8, c))
    out = enc.layer_forward(ad.tensor(tokens), p, heads=2).numpy()
    normed = (tokens - tokens.mean(-1, keepdims=True)) / np.sqrt(
        tokens.var(-1, keepdims=True) + 1e-6
    )
    expected = np.maximum(normed @ p.adapter_down.numpy(), 0) @ p.adapter_up.numpy()
    np.testing.assert_allclose(out, expected, rtol=1e-9, atol=1e-12)


def test_layer_scale_linearity(rng):
    """Zeroing ``adapter_up`` removes exactly Adapter(Z_ddot) from a single
    layer: the adapter enters unscaled."""
    p = block_params("layer", rng)
    x = rng.standard_normal((8, 8))
    no_up = dataclasses.replace(p, adapter_up=ad.tensor(np.zeros((2, 8))))
    out = enc.layer_forward(ad.tensor(x), p, heads=2).numpy()
    out_zeroed = enc.layer_forward(ad.tensor(x), no_up, heads=2).numpy()
    _, adapter = _numpy_layer_oracle(x, p, heads=2)
    np.testing.assert_allclose(out - out_zeroed, adapter, rtol=1e-8, atol=1e-10)


def test_attention_rows_sum_to_one(rng):
    """With v = 1 each output entry is one row sum of the attention weights."""
    q, k = rng.standard_normal((8, 8)) * 3, rng.standard_normal((8, 8)) * 3
    out = ad.attention(ad.tensor(q), ad.tensor(k), ad.tensor(np.ones((8, 6))), 0.5, heads=2)
    np.testing.assert_allclose(out.numpy(), 1.0, atol=1e-6)


def test_attention_graph_keeps_no_score_nodes(rng):
    """No (heads, M, M) array survives the forward: no node holds scores or
    probabilities, and neither does the fused op's closure."""
    heads, m, c = 4, 64, 8
    p = block_params("layer", rng, embed_dim=c)
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
    p = block_params("layer", rng, embed_dim=c)
    p = dataclasses.replace(p, wq=ad.tensor(np.full((c, c), 1e200)),
                            wk=ad.tensor(np.full((c, c), 1e200)))
    x = ad.tensor(rng.standard_normal((8, c)))
    with pytest.raises(ad.NonFiniteError) as err, np.errstate(all="ignore"):
        enc.layer_forward(x, p, heads=2)
    assert "layer_forward/attention" in str(err.value)


def test_layer_names_failing_substep():
    c = 8
    rng = np.random.default_rng(0)
    p = block_params("layer", rng, embed_dim=c)
    big = np.zeros((c, 2 * c))
    big[0, 0] = 1e308  # overflow inside the mlp matmul
    p = dataclasses.replace(p, mlp_w1=ad.tensor(big))
    x = ad.tensor(rng.standard_normal((8, c)) + 10)
    with pytest.raises(ad.NonFiniteError) as err, np.errstate(all="ignore"):
        enc.layer_forward(x, p, heads=2)
    assert "mlp" in str(err.value)


# ---------------------------------------------------------------------------
# encode + freeze policy
# ---------------------------------------------------------------------------


def test_encode_taps_shapes_and_structure(rng):
    spec = TINY_MODEL
    store = mdl.init_store(spec, seed=0)
    z = ad.tensor(rng.standard_normal((64, 16)))
    taps = enc.encode(z, spec, store)
    assert sorted(taps) == [3, 6, 9, 12]
    for t in taps.values():
        assert t.shape == (64, 16)


def test_tokens_run_from_the_embedding_to_the_taps(rng):
    """At 16^3 on the default desk spec the embedding hands the encoder
    (M, C) tokens, every tap is (M, C), and no reshape record lies between
    the embedding's output and any tap: the grid is built once, in the
    patch embedding, and comes back only in the decoder."""
    spec = mdl.ModelSpec(vol_dims=(16, 16, 16)).validate()
    store = mdl.init_store(spec, seed=0)
    tokens = mdl.embed_volume(ad.tensor(rng.random((16, 16, 16, 1))), spec, store)
    assert tokens.shape == (spec.token_count, spec.embed_dim) == (64, 64)
    taps = enc.encode(tokens, spec, store)
    assert sorted(taps) == list(spec.taps)
    for tap in taps.values():
        assert tap.shape == (64, 64)
        reached, seen, stack, ops = False, set(), [tap._record], []
        while stack:
            rec = stack.pop()
            if rec is tokens._record:
                reached = True
            elif id(rec) not in seen:
                seen.add(id(rec))
                ops.append(rec.op)
                stack.extend(rec._parents)
        assert reached and "reshape" not in ops


def test_encode_missing_layer_rejected(rng):
    spec = TINY_MODEL
    store = mdl.init_store(spec, seed=0)
    z = ad.tensor(rng.standard_normal((64, 16)))
    bad_spec = dataclasses.replace(spec, layers=13)
    with pytest.raises(ad.GraphError):
        enc.encode(z, bad_spec, store)


def test_encode_zeroed_frozen_weights_literal_flow(rng):
    """With all frozen cores and the adapters' down-projections zeroed the
    literal recurrence collapses every layer output to zero: the layer has
    no feed-through term besides MLP + adapter."""
    spec = TINY_MODEL
    store = mdl.init_store(spec, seed=0)
    for name, t, frozen in store.items():
        if (frozen and not name.endswith(("norm1_g", "norm2_g"))
                or name.endswith("adapter_down")):
            t.data[...] = 0.0
    z = ad.tensor(rng.standard_normal((64, 16)))
    taps = enc.encode(z, spec, store)
    for t in taps.values():
        np.testing.assert_array_equal(t.numpy(), 0.0)


def test_gradient_reaches_adapters_not_frozen(rng):
    spec = TINY_MODEL
    store = mdl.init_store(spec, seed=0)
    z = ad.tensor(rng.standard_normal((64, 16)))
    taps = enc.encode(z, spec, store)
    loss = ad.reduce_sum(ad.mul(taps[12], taps[12]))
    ad.backward(loss)
    down = store["encoder.layer01.adapter_down"]
    up = store["encoder.layer12.adapter_up"]
    assert up.grad is not None and np.abs(up.grad).max() > 0
    assert down.grad is None or True  # zero-init up blocks layer-1 down at step 1
    for name, t in helpers.frozen(store):
        assert t.grad is None, name


def test_freeze_policy_classification():
    """The frozen flags of ``param_specs`` are the freeze policy: the store
    freezes exactly each layer's attention, MLP and norm cores."""
    spec = TINY_MODEL
    store = mdl.init_store(spec, seed=0)
    cores = ("norm1_g", "norm1_b", "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo",
             "norm2_g", "norm2_b", "mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2")
    expected = {f"{enc.layer_name(i)}.{f}" for i in range(1, spec.layers + 1) for f in cores}
    assert {name for name, _ in helpers.frozen(store)} == expected


def test_trainable_strictly_less_than_total():
    spec = TINY_MODEL
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
