"""Prompter semantics: linear-attention equivalence, channel-affinity
oracles, residual identity, tap attachment, and weight sharing."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from voxseg import autodiff as ad
from voxseg import model as mdl
from voxseg import prompter as pr
from voxseg.autodiff.tensor import _topo
from voxseg.patch_embed import FeatureMap
from voxseg.verify import _mini_prompter_params

@pytest.fixture(autouse=True)
def _f64():
    with ad.precision("f64"):
        yield


def _identity_reducer_params(rng, c, m):
    p = _mini_prompter_params(rng, c=c, n=m, m=m)
    eye = ad.tensor(np.eye(m))
    return dataclasses.replace(p, reduce_k=eye, reduce_v=eye)


def _full_attention_oracle(z, p, scaling):
    """Brute-force token self-attention with the same weights (numpy)."""
    q = z @ p.wq_sa.numpy()
    mu = q.mean(-1, keepdims=True)
    q = (q - mu) / np.sqrt(q.var(-1, keepdims=True) + 1e-6)
    q = q * p.norm_q_sa_g.numpy() + p.norm_q_sa_b.numpy()
    k = z @ p.wk_sa.numpy()
    v = z @ p.wv_sa.numpy()
    logits = k @ q.T  # (keys, queries)
    if scaling:
        logits = logits / math.sqrt(z.shape[1])
    e = np.exp(logits - logits.max(axis=0, keepdims=True))
    w = e / e.sum(axis=0, keepdims=True)
    return w.T @ v


class TestSpatialAttention:
    def test_weight_columns_sum_to_one(self, rng):
        """Identical reduced values: each output row is its weight sum times
        that value, so it equals the value exactly when the weights sum to 1."""
        p = _mini_prompter_params(rng)
        row = rng.standard_normal((1, 8))
        p = dataclasses.replace(p, reduce_v=ad.tensor(np.tile(row, (3, 1))))
        z = rng.standard_normal((8, 4))
        out = pr.spatial_attention(ad.tensor(z), p).numpy()
        value = row @ z @ p.wv_sa.numpy()
        np.testing.assert_allclose(out, np.tile(value, (8, 1)), atol=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31), m=st.integers(2, 16),
           c=st.sampled_from([2, 4, 6]), scaling=st.booleans())
    def test_identity_reducers_equal_full_attention(self, seed, m, c, scaling):
        rng = np.random.default_rng(seed)
        with ad.precision("f64"):
            p = _identity_reducer_params(rng, c, m)
            z = rng.standard_normal((m, c))
            out = pr.spatial_attention(ad.tensor(z), p, scaling=scaling).numpy()
            oracle = _full_attention_oracle(z, p, scaling)
        assert np.abs(out - oracle).max() < 1e-6

    def test_constant_tokens_give_constant_output(self, rng):
        p = _mini_prompter_params(rng)
        z = np.tile(rng.standard_normal((1, 4)), (8, 1))
        out = pr.spatial_attention(ad.tensor(z), p).numpy()
        assert np.abs(out - out[0]).max() < 1e-9

    def test_n_exceeding_tokens_rejected(self, rng):
        p = _mini_prompter_params(rng, c=4, n=9, m=8)
        with pytest.raises(ad.ShapeMismatchError):
            pr.spatial_attention(ad.tensor(rng.standard_normal((8, 4))), p)

    def test_feature_map_round_trip(self, rng):
        p = _mini_prompter_params(rng)
        fm = FeatureMap.wrap(ad.tensor(rng.standard_normal((2, 2, 2, 4))))
        out = pr.spatial_attention(fm, p)
        assert isinstance(out, FeatureMap)
        assert out.data.shape == fm.data.shape


class TestChannelAttention:
    def test_affinity_rows_sum_to_one(self, rng):
        """Identical value channels: each output channel is its affinity row
        sum times that channel, so it equals z @ col exactly when rows sum to 1."""
        p = _mini_prompter_params(rng)
        col = rng.standard_normal((4, 1))
        p = dataclasses.replace(p, wv_ca=ad.tensor(np.tile(col, (1, 4))))
        z = rng.standard_normal((8, 4))
        out = pr.channel_attention(ad.tensor(z), p).numpy()
        np.testing.assert_allclose(out, np.tile(z @ col, (1, 4)), atol=1e-6)

    def test_matches_literal_equation_oracle(self, rng):
        """Scripted recomputation of the channel-attention equations, C=2."""
        c, m = 2, 5
        p = _mini_prompter_params(rng, c=c, n=2, m=m)
        z = rng.standard_normal((m, c))
        out = pr.channel_attention(ad.tensor(z), p, scaling=False).numpy()

        def norm(v, g, b):
            mu = v.mean(-1, keepdims=True)
            return (v - mu) / np.sqrt(v.var(-1, keepdims=True) + 1e-6) * g + b

        q = norm(z @ p.wq_ca.numpy(), p.norm_q_ca_g.numpy(), p.norm_q_ca_b.numpy())
        k = norm(z @ p.wk_ca.numpy(), p.norm_k_ca_g.numpy(), p.norm_k_ca_b.numpy())
        v = z @ p.wv_ca.numpy()
        logits = q.T @ k
        e = np.exp(logits - logits.max(axis=0, keepdims=True))
        s = e / e.sum(axis=0, keepdims=True)
        expected = v @ s
        assert np.abs(out - expected).max() < 1e-6

    def test_zero_values_give_zero(self, rng):
        p = _mini_prompter_params(rng)
        p = dataclasses.replace(p, wv_ca=ad.tensor(np.zeros((4, 4))))
        out = pr.channel_attention(ad.tensor(rng.standard_normal((8, 4))), p).numpy()
        np.testing.assert_array_equal(out, 0.0)

    def test_channel_mismatch_rejected(self, rng):
        p = _mini_prompter_params(rng, c=4)
        with pytest.raises(ad.ShapeMismatchError):
            pr.channel_attention(ad.tensor(np.zeros((5, 6))), p)


class TestDualPrompt:
    def test_zero_down_projections_identity(self, rng):
        p = _mini_prompter_params(rng)
        p = dataclasses.replace(p, down_sa=ad.tensor(np.zeros((4, 2))),
                                down_ca=ad.tensor(np.zeros((4, 2))))
        z = rng.standard_normal((8, 4))
        out = pr.dual_prompt(ad.tensor(z), p).numpy()
        np.testing.assert_array_equal(out, z)

    def test_shape_preserved(self, rng):
        p = _mini_prompter_params(rng)
        fm = FeatureMap.wrap(ad.tensor(rng.standard_normal((2, 2, 2, 4))))
        out = pr.dual_prompt(fm, p)
        assert out.data.shape == fm.data.shape

    def test_odd_channels_rejected_at_config_time(self):
        with pytest.raises(ValueError):
            mdl.ModelSpec(embed_dim=9, heads=3, adapter_dim=2).validate()

    def test_gradcheck(self, rng):
        p = _mini_prompter_params(rng)
        rep = ad.gradient_check(
            lambda x: pr.dual_prompt(x, p), rng.standard_normal((8, 4))
        )
        assert rep.passed and rep.max_rel_error < 1e-4


    def test_shared_products_computed_once(self, rng):
        """Shared W_q / W_k: both branches read one Z@W_q and one Z@W_k node,
        and the result equals the two standalone branches' fusion."""
        p = _mini_prompter_params(rng)
        z = ad.tensor(rng.standard_normal((8, 4)), requires_grad=True)
        out = pr.dual_prompt(z, p)
        sa = pr.spatial_attention(z, p)
        ca = pr.channel_attention(z, p)
        fused = np.concatenate([sa.numpy() @ p.down_sa.numpy(),
                                ca.numpy() @ p.down_ca.numpy()], axis=1)
        np.testing.assert_allclose(out.numpy(), z.numpy() + fused, rtol=1e-12)
        unshared = dataclasses.replace(p, wq_ca=ad.tensor(p.wq_ca.numpy()),
                                       wk_ca=ad.tensor(p.wk_ca.numpy()))
        nodes = len(_topo(out))
        assert len(_topo(pr.dual_prompt(z, unshared))) == nodes + 2


class TestAttach:
    def _taps(self, rng, c=4):
        return {
            i: FeatureMap.wrap(ad.tensor(rng.standard_normal((2, 2, 2, c))))
            for i in (3, 6, 9, 12)
        }

    def test_default_modifies_only_layer12(self, rng):
        p = _mini_prompter_params(rng)
        taps = self._taps(rng)
        out = pr.attach_prompter(taps, p, 12)
        for i in (3, 6, 9):
            assert out[i] is taps[i]  # untouched, bitwise identical
        assert out[12] is not taps[12]

    @pytest.mark.parametrize("layer", [3, 6, 9, 12])
    def test_each_placement_modifies_exactly_one(self, rng, layer):
        p = _mini_prompter_params(rng)
        taps = self._taps(rng)
        out = pr.attach_prompter(taps, p, layer)
        for i in (3, 6, 9, 12):
            if i == layer:
                assert out[i] is not taps[i]
            else:
                assert out[i] is taps[i]

    def test_zero_downs_leave_taps_equal(self, rng):
        p = _mini_prompter_params(rng)
        p = dataclasses.replace(p, down_sa=ad.tensor(np.zeros((4, 2))),
                                down_ca=ad.tensor(np.zeros((4, 2))))
        taps = self._taps(rng)
        out = pr.attach_prompter(taps, p, 12)
        np.testing.assert_array_equal(out[12].data.numpy(), taps[12].data.numpy())

    def test_invalid_layer_rejected(self, rng):
        with pytest.raises(ValueError):
            mdl.ModelSpec(prompt_layer=5).validate()


class TestWeightSharing:
    def test_shared_mode_single_physical_copy(self):
        spec = mdl.ModelSpec(
            vol_dims=(16, 16, 16), patch=(4, 4, 4), embed_dim=16, heads=2,
            adapter_dim=4, prompt_n=16, dec_channels=8, share_qk=True,
        ).validate()
        store = mdl.init_store(spec, seed=0)
        p = pr.PrompterParams.from_store(store, share_qk=True)
        assert p.wq_sa is p.wq_ca
        assert p.wk_sa is p.wk_ca

    def test_param_count_delta_is_exactly_2c2(self):
        c = 16
        base = dict(vol_dims=(16, 16, 16), patch=(4, 4, 4), embed_dim=c, heads=2,
                    adapter_dim=4, prompt_n=16, dec_channels=8)
        shared = mdl.init_store(mdl.ModelSpec(**base, share_qk=True).validate(), 0)
        full = mdl.init_store(mdl.ModelSpec(**base, share_qk=False).validate(), 0)
        assert helpers.total_params(full) - helpers.total_params(shared) == 2 * c * c
