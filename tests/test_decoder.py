"""Decoder semantics: enhancer fusion, prediction head, ablation mode,
and structural permutation invariance."""

import dataclasses

import numpy as np
import pytest

from gradcheck_suite import TINY_MODEL, block_params
from voxseg import autodiff as ad
from voxseg import decoder as dec
from voxseg import model as mdl
from voxseg import prompter as pr


@pytest.fixture(autouse=True)
def _f64():
    with ad.precision("f64"):
        yield


class TestEnhancer:
    def test_output_shape_desk_grid(self, rng):
        spec = mdl.ModelSpec().validate()
        store = mdl.init_store(spec, seed=0)
        p = dec.enhancer_from_store(store, 1, spec)
        tap = ad.tensor(rng.standard_normal((512, 64)))
        image = ad.tensor(rng.random((32, 32, 32, 1)))
        out = dec.original_feature_enhancer(tap, image, p)
        assert out.shape == (16, 16, 16, 16)

    def test_tap_is_the_grid_of_its_tokens(self, rng):
        """The enhancer reads (M, C) tokens as the C-order (H, W, D, C) grid
        of ``target_dims // 2``: its output equals an upsample conv of that
        grid, and a token count that is not H*W*D, or the grid itself, is
        refused."""
        p = block_params("enhancer", rng)
        tokens, image = rng.standard_normal((8, 6)), ad.tensor(rng.random((8, 8, 8, 1)))
        out = dec.original_feature_enhancer(ad.tensor(tokens), image, p).numpy()
        grid = ad.tensor(tokens.reshape(2, 2, 2, 6))
        expected = dec.conv_block([grid, dec.image_features(image, p)], p.fuse, factors=[2, 1])
        np.testing.assert_array_equal(out, expected.numpy())
        for bad in (tokens[:7], tokens.reshape(2, 2, 2, 6)):
            with pytest.raises(ad.ShapeMismatchError):
                dec.original_feature_enhancer(ad.tensor(bad), image, p)

    def test_zeroed_image_branch_ignores_image(self, rng):
        p = block_params("enhancer", rng)
        p = dataclasses.replace(p, image_stages=block_params("enhancer").image_stages)
        tap = ad.tensor(rng.standard_normal((8, 6)))
        out1 = dec.original_feature_enhancer(
            tap, ad.tensor(rng.random((8, 8, 8, 1))), p).numpy()
        out2 = dec.original_feature_enhancer(
            tap, ad.tensor(rng.random((8, 8, 8, 1))), p).numpy()
        np.testing.assert_array_equal(out1, out2)

    def test_all_zero_inputs_and_weights_give_zero(self, rng):
        p = block_params("enhancer")
        out = dec.original_feature_enhancer(
            ad.tensor(np.zeros((8, 6))), ad.tensor(np.zeros((8, 8, 8, 1))), p
        ).numpy()
        np.testing.assert_array_equal(out, 0.0)

    def test_no_image_branch_mode(self, rng):
        p = block_params("enhancer", rng)
        p = dataclasses.replace(p, no_image_branch=True)
        tap = ad.tensor(rng.standard_normal((8, 6)))
        out1 = dec.original_feature_enhancer(
            tap, ad.tensor(rng.random((8, 8, 8, 1))), p).numpy()
        out2 = dec.original_feature_enhancer(
            tap, ad.tensor(rng.random((8, 8, 8, 1))), p).numpy()
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
        p = block_params("predict", rng)
        maps = [ad.tensor(rng.standard_normal((4, 4, 4, 2))) for _ in range(4)]
        out = dec.predict(maps, p)
        assert out.shape == (8, 8, 8)
        vals = out.numpy()
        assert vals.min() >= 0.0 and vals.max() <= 1.0
        assert np.all(np.isfinite(vals))

    def test_zero_head_weights_give_half(self, rng):
        p = block_params("predict")
        maps = [ad.tensor(rng.standard_normal((4, 4, 4, 2))) for _ in range(4)]
        out = dec.predict(maps, p).numpy()
        np.testing.assert_allclose(out, 0.5, rtol=1e-12)

    def test_shape_mismatch_rejected(self, rng):
        p = block_params("predict", rng)
        maps = [ad.tensor(rng.standard_normal(shape))
                for shape in [(4, 4, 4, 2), (4, 4, 2, 2), (4, 4, 4, 2), (4, 4, 4, 2)]]
        with pytest.raises(ad.ShapeMismatchError):
            dec.predict(maps, p)

    def test_permuting_enhancers_with_head_weights_invariant(self, rng):
        """Swapping enhancer order while permuting the head's input-channel
        blocks identically leaves the prediction unchanged."""
        cdec = 2
        p = block_params("predict", rng, dec_channels=cdec)
        maps = [ad.tensor(rng.standard_normal((4, 4, 4, cdec))) for _ in range(4)]
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
        spec = TINY_MODEL
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
        assert all(t.shape == (64, 16) for t in seen["prompted"].values())
        assert all(e.shape == (8, 8, 8, 8) for e in seen["enhanced"])
        vals = prob.numpy()
        assert vals.min() >= 0 and vals.max() <= 1

    def test_no_image_branch_trains_same_shapes(self, rng):
        spec = dataclasses.replace(TINY_MODEL, no_image_branch=True)
        with ad.precision("f32"):
            store = mdl.init_store(spec, seed=0)
            vol = rng.random((16, 16, 16, 1)).astype(np.float32)
            prob = mdl.forward(spec, store, vol)
            loss = ad.reduce_sum(ad.mul(prob, prob))
            ad.backward(loss)
        assert prob.shape == (16, 16, 16)
        # image-branch weights are present but receive no gradient
        assert store["decoder.enh1.img.s0.conv1_w"].grad is None
        assert store["decoder.enh1.fuse.conv1_w"].grad is not None


def test_every_trainable_parameter_moves_the_loss(rng):
    """In f64, with the zero-initialised trainables set to small random
    values, every trainable of the tiny model gets a gradient norm of at
    least 1e-12 of the largest one. A parameter whose gradient is rounding
    noise (a conv bias in front of an instance norm reads about 1e-17)
    cannot change the loss, and the optimizer only random-walks it."""
    from voxseg.objectives import combined_loss
    from voxseg.volume_io import generate_phantom

    spec = TINY_MODEL
    store = mdl.init_store(spec, seed=0)
    for _, t in store.trainable():
        if not t.data.any():
            t.data[...] = rng.standard_normal(t.data.shape) * 0.1
    vol, mask = generate_phantom(7, dims=(16, 16, 16), noise_sd=0.02)
    ad.backward(combined_loss(mdl.forward(spec, store, vol), mask))
    norms = {name: float(np.linalg.norm(t.grad)) for name, t in store.trainable()}
    floor = 1e-12 * max(norms.values())
    assert not [name for name, n in norms.items() if n < floor]
