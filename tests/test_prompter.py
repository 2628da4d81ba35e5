"""Prompter semantics: linear-attention equivalence, channel-affinity
oracles, residual identity, tap attachment, and weight sharing."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import gradient_check
from gradcheck_suite import TINY_MODEL, block_params
from voxseg import autodiff as ad
from voxseg import model as mdl
from voxseg import prompter as pr
from voxseg.autodiff.tensor import _topo


@pytest.fixture(autouse=True)
def _f64():
    with ad.precision("f64"):
        yield


def _branch(branch, z, p):
    """A prompter branch on tokens z (an array or a Tensor), handed the
    Z@W_q and Z@W_k that ``dual_prompt`` computes for both."""
    z = z if isinstance(z, ad.Tensor) else ad.tensor(z)
    return branch(z, p, ad.matmul(z, p.wq), ad.matmul(z, p.wk))


def _identity_reducer_params(rng, c, m):
    p = block_params("prompter", rng, embed_dim=c, prompt_n=m, vol_dims=(m, 1, 1))
    eye = ad.tensor(np.eye(m))
    return dataclasses.replace(p, reduce_k=eye, reduce_v=eye)


def _full_attention_oracle(z, p):
    """Brute-force token self-attention with the same weights (numpy)."""
    q = z @ p.wq.numpy()
    mu = q.mean(-1, keepdims=True)
    q = (q - mu) / np.sqrt(q.var(-1, keepdims=True) + 1e-6)
    q = q * p.norm_q_sa_g.numpy() + p.norm_q_sa_b.numpy()
    k = z @ p.wk.numpy()
    v = z @ p.wv_sa.numpy()
    logits = k @ q.T / math.sqrt(z.shape[1])  # (keys, queries)
    e = np.exp(logits - logits.max(axis=0, keepdims=True))
    w = e / e.sum(axis=0, keepdims=True)
    return w.T @ v


class TestSpatialAttention:
    def test_weight_columns_sum_to_one(self, rng):
        """Identical reduced values: each output row is its weight sum times
        that value, so it equals the value exactly when the weights sum to 1."""
        p = block_params("prompter", rng)
        row = rng.standard_normal((1, 8))
        p = dataclasses.replace(p, reduce_v=ad.tensor(np.tile(row, (3, 1))))
        z = rng.standard_normal((8, 4))
        out = _branch(pr.spatial_attention, z, p).numpy()
        value = row @ z @ p.wv_sa.numpy()
        np.testing.assert_allclose(out, np.tile(value, (8, 1)), atol=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31), m=st.integers(2, 16),
           c=st.sampled_from([2, 4, 6]))
    def test_identity_reducers_equal_full_attention(self, seed, m, c):
        rng = np.random.default_rng(seed)
        with ad.precision("f64"):
            p = _identity_reducer_params(rng, c, m)
            z = rng.standard_normal((m, c))
            out = _branch(pr.spatial_attention, z, p).numpy()
            oracle = _full_attention_oracle(z, p)
        assert np.abs(out - oracle).max() < 1e-6

    def test_constant_tokens_give_constant_output(self, rng):
        p = block_params("prompter", rng)
        z = np.tile(rng.standard_normal((1, 4)), (8, 1))
        out = _branch(pr.spatial_attention, z, p).numpy()
        assert np.abs(out - out[0]).max() < 1e-9

    def test_n_exceeding_tokens_rejected(self, rng):
        p = block_params("prompter", rng, prompt_n=9)
        with pytest.raises(ad.ShapeMismatchError):
            _branch(pr.spatial_attention, rng.standard_normal((8, 4)), p)


class TestChannelAttention:
    def test_affinity_rows_sum_to_one(self, rng):
        """Identical value channels: each output channel is its affinity row
        sum times that channel, so it equals z @ col exactly when rows sum to 1."""
        p = block_params("prompter", rng)
        col = rng.standard_normal((4, 1))
        p = dataclasses.replace(p, wv_ca=ad.tensor(np.tile(col, (1, 4))))
        z = rng.standard_normal((8, 4))
        out = _branch(pr.channel_attention, z, p).numpy()
        np.testing.assert_allclose(out, np.tile(z @ col, (1, 4)), atol=1e-6)

    def test_matches_literal_equation_oracle(self, rng):
        """Scripted recomputation of the channel-attention equations, C=2."""
        c, m = 2, 5
        p = block_params("prompter", rng, embed_dim=c, prompt_n=2, vol_dims=(m, 1, 1))
        z = rng.standard_normal((m, c))
        out = _branch(pr.channel_attention, z, p).numpy()

        def norm(v, g, b):
            mu = v.mean(-1, keepdims=True)
            return (v - mu) / np.sqrt(v.var(-1, keepdims=True) + 1e-6) * g + b

        q = norm(z @ p.wq.numpy(), p.norm_q_ca_g.numpy(), p.norm_q_ca_b.numpy())
        k = norm(z @ p.wk.numpy(), p.norm_k_ca_g.numpy(), p.norm_k_ca_b.numpy())
        v = z @ p.wv_ca.numpy()
        logits = q.T @ k / math.sqrt(c)
        e = np.exp(logits - logits.max(axis=0, keepdims=True))
        s = e / e.sum(axis=0, keepdims=True)
        expected = v @ s
        assert np.abs(out - expected).max() < 1e-6

    def test_zero_values_give_zero(self, rng):
        p = block_params("prompter", rng)
        p = dataclasses.replace(p, wv_ca=ad.tensor(np.zeros((4, 4))))
        out = _branch(pr.channel_attention, rng.standard_normal((8, 4)), p).numpy()
        np.testing.assert_array_equal(out, 0.0)

    def test_channel_mismatch_rejected(self, rng):
        p = block_params("prompter", rng)
        with pytest.raises(ad.ShapeMismatchError):
            _branch(pr.channel_attention, np.zeros((5, 6)), p)


class TestDualPrompt:
    def test_zero_down_projections_identity(self, rng):
        p = block_params("prompter", rng)
        p = dataclasses.replace(p, down_sa=ad.tensor(np.zeros((4, 2))),
                                down_ca=ad.tensor(np.zeros((4, 2))))
        z = rng.standard_normal((8, 4))
        out = pr.dual_prompt(ad.tensor(z), p).numpy()
        np.testing.assert_array_equal(out, z)

    def test_shape_preserved(self, rng):
        """(M, C) in, (M, C) out; the (H, W, D, C) grid of the same tokens
        is refused, since the prompter never sees the grid."""
        p = block_params("prompter", rng)
        z = rng.standard_normal((8, 4))
        out = pr.dual_prompt(ad.tensor(z), p)
        assert isinstance(out, ad.Tensor) and out.shape == (8, 4)
        with pytest.raises(ad.ShapeMismatchError):
            pr.dual_prompt(ad.tensor(z.reshape(2, 2, 2, 4)), p)

    def test_odd_channels_rejected_at_config_time(self):
        with pytest.raises(ValueError):
            mdl.ModelSpec(embed_dim=9, heads=3, adapter_dim=2).validate()

    def test_gradcheck(self, rng):
        p = block_params("prompter", rng)
        rep = gradient_check(
            lambda x: pr.dual_prompt(x, p), rng.standard_normal((8, 4))
        )
        assert rep.passed and rep.max_rel_error < 1e-4


    def test_shared_products_computed_once(self, rng):
        """Both branches read one Z@W_q and one Z@W_k node, and the result
        equals the two standalone branches' fusion."""
        p = block_params("prompter", rng)
        p = dataclasses.replace(p, wq=ad.tensor(p.wq.numpy(), requires_grad=True),
                                wk=ad.tensor(p.wk.numpy(), requires_grad=True))
        z = ad.tensor(rng.standard_normal((8, 4)), requires_grad=True)
        out = pr.dual_prompt(z, p)
        sa = _branch(pr.spatial_attention, z, p)
        ca = _branch(pr.channel_attention, z, p)
        fused = np.concatenate([sa.numpy() @ p.down_sa.numpy(),
                                ca.numpy() @ p.down_ca.numpy()], axis=1)
        np.testing.assert_allclose(out.numpy(), z.numpy() + fused, rtol=1e-12)
        for w in (p.wq, p.wk):
            products = [r for r in _topo(out._record) if r.op == "matmul"
                        and any(parent is w._record for parent in r._parents)]
            assert len(products) == 1


class TestAttach:
    def _taps(self, rng, c=4):
        return {i: ad.tensor(rng.standard_normal((8, c))) for i in (3, 6, 9, 12)}

    def test_default_modifies_only_layer12(self, rng):
        p = block_params("prompter", rng)
        taps = self._taps(rng)
        out = pr.attach_prompter(taps, p, 12)
        for i in (3, 6, 9):
            assert out[i] is taps[i]  # untouched, bitwise identical
        assert out[12] is not taps[12]

    @pytest.mark.parametrize("layer", [3, 6, 9, 12])
    def test_each_placement_modifies_exactly_one(self, rng, layer):
        p = block_params("prompter", rng)
        taps = self._taps(rng)
        out = pr.attach_prompter(taps, p, layer)
        for i in (3, 6, 9, 12):
            if i == layer:
                assert out[i] is not taps[i]
            else:
                assert out[i] is taps[i]

    def test_zero_downs_leave_taps_equal(self, rng):
        p = block_params("prompter", rng)
        p = dataclasses.replace(p, down_sa=ad.tensor(np.zeros((4, 2))),
                                down_ca=ad.tensor(np.zeros((4, 2))))
        taps = self._taps(rng)
        out = pr.attach_prompter(taps, p, 12)
        np.testing.assert_array_equal(out[12].numpy(), taps[12].numpy())

    def test_invalid_layer_rejected(self, rng):
        with pytest.raises(ValueError):
            mdl.ModelSpec(prompt_layer=5).validate()


class TestWeightSharing:
    def test_shared_mode_single_physical_copy(self):
        store = mdl.init_store(TINY_MODEL, seed=0)
        names = [n for n in store.names() if n.startswith(("prompter.wq", "prompter.wk"))]
        assert names == ["prompter.wq", "prompter.wk"]
