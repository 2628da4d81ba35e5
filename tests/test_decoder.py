"""Decoder semantics: enhancer fusion, prediction head, ablation mode,
and structural permutation invariance."""

import dataclasses

import numpy as np
import pytest

from voxseg import autodiff as ad
from voxseg import decoder as dec
from voxseg import model as mdl
from voxseg import prompter as pr
from voxseg.patch_embed import FeatureMap
from voxseg.verify import _mini_conv_block, _mini_enhancer, _mini_predict


@pytest.fixture(autouse=True)
def _f64():
    with ad.precision("f64"):
        yield


def _fm(arr):
    return FeatureMap.wrap(ad.tensor(arr))


def _zero_block(cin, cout, stride1=1):
    z = lambda *s: ad.tensor(np.zeros(s))
    return dec.ConvBlockParams(
        conv1_w=z(3, 3, 3, cin, cout), conv1_b=z(cout),
        in1_g=z(cout), in1_b=z(cout),
        conv2_w=z(3, 3, 3, cout, cout), conv2_b=z(cout),
        in2_g=z(cout), in2_b=z(cout), stride1=stride1,
    )


class TestEnhancer:
    def test_output_shape_desk_grid(self, rng):
        spec = mdl.ModelSpec().validate()
        store = mdl.init_store(spec, seed=0)
        p = dec.enhancer_from_store(store, 1, spec.vol_dims, spec.grid_dims)
        tap = _fm(rng.standard_normal((8, 8, 8, 64)))
        image = ad.tensor(rng.random((32, 32, 32, 1)))
        out = dec.original_feature_enhancer(tap, image, p)
        assert out.data.shape == (16, 16, 16, 16)

    def test_zeroed_image_branch_ignores_image(self, rng):
        p = _mini_enhancer(rng)
        p = dataclasses.replace(p, image_stages=[_zero_block(1, 3, stride1=2)])
        tap = rng.standard_normal((2, 2, 2, 6))
        out1 = dec.original_feature_enhancer(
            _fm(tap), ad.tensor(rng.random((8, 8, 8, 1))), p).data.numpy()
        out2 = dec.original_feature_enhancer(
            _fm(tap), ad.tensor(rng.random((8, 8, 8, 1))), p).data.numpy()
        np.testing.assert_array_equal(out1, out2)

    def test_all_zero_inputs_and_weights_give_zero(self, rng):
        p = dec.EnhancerParams(
            image_stages=[_zero_block(1, 3, stride1=2)],
            fuse=_zero_block(9, 3),
            target_dims=(4, 4, 4),
        )
        out = dec.original_feature_enhancer(
            _fm(np.zeros((2, 2, 2, 6))), ad.tensor(np.zeros((8, 8, 8, 1))), p
        ).data.numpy()
        np.testing.assert_array_equal(out, 0.0)

    def test_no_image_branch_mode(self, rng):
        p = _mini_enhancer(rng)
        p = dataclasses.replace(p, no_image_branch=True)
        tap = rng.standard_normal((2, 2, 2, 6))
        out1 = dec.original_feature_enhancer(
            _fm(tap), ad.tensor(rng.random((8, 8, 8, 1))), p).data.numpy()
        out2 = dec.original_feature_enhancer(
            _fm(tap), ad.tensor(rng.random((8, 8, 8, 1))), p).data.numpy()
        np.testing.assert_array_equal(out1, out2)  # image ignored
        assert out1.shape == (4, 4, 4, 3)

    def test_unreducible_dims_rejected(self):
        with pytest.raises(ad.ShapeMismatchError):
            dec.pyramid_stages((24, 24, 24), (16, 16, 16))
        with pytest.raises(ad.ShapeMismatchError):
            dec.pyramid_stages((32, 32, 16), (16, 16, 16))
        assert dec.pyramid_stages((32, 32, 32), (16, 16, 16)) == 1
        assert dec.pyramid_stages((32, 32, 32), (8, 8, 8)) == 2
        assert dec.pyramid_stages((16, 16, 16), (16, 16, 16)) == 1


class TestPredict:
    def test_output_shape_and_range(self, rng):
        p = _mini_predict(rng)
        maps = [_fm(rng.standard_normal((4, 4, 4, 2))) for _ in range(4)]
        out = dec.predict(maps, p)
        assert out.shape == (8, 8, 8)
        vals = out.numpy()
        assert vals.min() >= 0.0 and vals.max() <= 1.0
        assert np.all(np.isfinite(vals))

    def test_zero_head_weights_give_half(self, rng):
        p = dec.PredictParams(
            head=_zero_block(8, 2),
            upsample_factor=(2, 2, 2),
            smooth_w=ad.tensor(np.zeros((3, 3, 3, 2, 2))),
            smooth_b=ad.tensor(np.zeros(2)),
            proj_w=ad.tensor(np.zeros((1, 1, 1, 2, 1))),
            proj_b=ad.tensor(np.zeros(1)),
        )
        maps = [_fm(rng.standard_normal((4, 4, 4, 2))) for _ in range(4)]
        out = dec.predict(maps, p).numpy()
        np.testing.assert_allclose(out, 0.5, rtol=1e-12)

    def test_shape_mismatch_rejected(self, rng):
        p = _mini_predict(rng)
        maps = [
            _fm(rng.standard_normal((4, 4, 4, 2))),
            _fm(rng.standard_normal((4, 4, 2, 2))),
            _fm(rng.standard_normal((4, 4, 4, 2))),
            _fm(rng.standard_normal((4, 4, 4, 2))),
        ]
        with pytest.raises(ad.ShapeMismatchError):
            dec.predict(maps, p)

    def test_permuting_enhancers_with_head_weights_invariant(self, rng):
        """Swapping enhancer order while permuting the head's input-channel
        blocks identically leaves the prediction unchanged."""
        cdec = 2
        p = _mini_predict(rng, cdec=cdec)
        maps = [_fm(rng.standard_normal((4, 4, 4, cdec))) for _ in range(4)]
        out = dec.predict(maps, p).numpy()

        perm = [2, 0, 3, 1]
        w1 = p.head.conv1_w.numpy()  # (3,3,3, 4*cdec, cout)
        blocks = [w1[:, :, :, i * cdec : (i + 1) * cdec, :] for i in range(4)]
        w1_perm = np.concatenate([blocks[i] for i in perm], axis=3)
        p_perm = dataclasses.replace(
            p, head=dataclasses.replace(p.head, conv1_w=ad.tensor(w1_perm))
        )
        out_perm = dec.predict([maps[i] for i in perm], p_perm).numpy()
        np.testing.assert_allclose(out_perm, out, rtol=1e-10, atol=1e-12)


class TestModelLevel:
    def test_forward_trace_shapes(self, rng, monkeypatch):
        spec = mdl.ModelSpec(
            vol_dims=(16, 16, 16), patch=(4, 4, 4), embed_dim=16, heads=2,
            adapter_dim=4, prompt_n=16, dec_channels=8,
        ).validate()
        seen = {}
        attach_prompter, predict = pr.attach_prompter, dec.predict

        def capture_prompted(*args, **kwargs):
            seen["prompted"] = attach_prompter(*args, **kwargs)
            return seen["prompted"]

        def capture_enhanced(enhanced, *args, **kwargs):
            seen["enhanced"] = enhanced
            return predict(enhanced, *args, **kwargs)

        monkeypatch.setattr(pr, "attach_prompter", capture_prompted)
        monkeypatch.setattr(dec, "predict", capture_enhanced)
        with ad.precision("f32"):
            store = mdl.init_store(spec, seed=0)
            vol = rng.random((16, 16, 16, 1)).astype(np.float32)
            prob = mdl.forward(spec, store, vol)
        assert prob.shape == (16, 16, 16)
        assert sorted(seen["prompted"]) == [3, 6, 9, 12]
        assert all(e.data.shape == (8, 8, 8, 8) for e in seen["enhanced"])
        vals = prob.numpy()
        assert vals.min() >= 0 and vals.max() <= 1

    def test_no_image_branch_trains_same_shapes(self, rng):
        spec = mdl.ModelSpec(
            vol_dims=(16, 16, 16), patch=(4, 4, 4), embed_dim=16, heads=2,
            adapter_dim=4, prompt_n=16, dec_channels=8, no_image_branch=True,
        ).validate()
        with ad.precision("f32"):
            store = mdl.init_store(spec, seed=0)
            vol = rng.random((16, 16, 16, 1)).astype(np.float32)
            prob = mdl.forward(spec, store, vol)
            loss = ad.reduce_mean(ad.mul(prob, prob))
            ad.backward(loss)
        assert prob.shape == (16, 16, 16)
        # image-branch weights are present but receive no gradient
        assert store["decoder.enh1.img.s0.conv1_w"].grad is None
        assert store["decoder.enh1.fuse.conv1_w"].grad is not None

    def test_shared_image_branch(self, rng):
        spec = mdl.ModelSpec(
            vol_dims=(16, 16, 16), patch=(4, 4, 4), embed_dim=16, heads=2,
            adapter_dim=4, prompt_n=16, dec_channels=8, share_image_branch=True,
        ).validate()
        with ad.precision("f32"):
            store = mdl.init_store(spec, seed=0)
            assert "decoder.imgshared.s0.conv1_w" in store
            assert "decoder.enh1.img.s0.conv1_w" not in store
            vol = rng.random((16, 16, 16, 1)).astype(np.float32)
            prob = mdl.forward(spec, store, vol)
        assert prob.shape == (16, 16, 16)

    def test_shared_image_branch_runs_once(self, rng, monkeypatch):
        """At the desk volume and decoder width (a 4-layer encoder keeps it
        quick), a shared image branch runs once per forward: 15 conv3d calls,
        where per-enhancer branches make 21, and the same probabilities, bit
        for bit, as re-running the shared branch inside each enhancer."""
        shared = mdl.ModelSpec(layers=4, taps=(1, 2, 3, 4), prompt_layer=4,
                               share_image_branch=True).validate()
        calls = []
        conv3d = ad.conv3d

        def counted(*args, **kwargs):
            calls.append(None)
            return conv3d(*args, **kwargs)

        def forward(spec):
            store = mdl.init_store(spec, seed=0)
            calls.clear()
            prob = mdl.forward(spec, store, vol).numpy()
            return prob, len(calls)

        monkeypatch.setattr(ad, "conv3d", counted)
        vol = rng.random((32, 32, 32, 1)).astype(np.float32)
        with ad.precision("f32"):
            prob, n_shared = forward(shared)
            _, n_own = forward(dataclasses.replace(shared, share_image_branch=False))
            enhancer = dec.original_feature_enhancer
            monkeypatch.setattr(dec, "original_feature_enhancer",
                                lambda z, image, p, features=None: enhancer(z, image, p))
            rerun, _ = forward(shared)
        assert (n_shared, n_own) == (15, 21)
        assert np.array_equal(prob, rerun)
