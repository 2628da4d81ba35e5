"""The pseudo-3-D patch embedding: shapes, linearity, and the
separable-kernel characterization of what the slice-wise route can
represent. Its oracle for a dense 3D kernel is ``ad.conv3d`` with kernel
= stride = patch."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conv_oracles import conv3d_reference
from voxseg import autodiff as ad
from voxseg import patch_embed as pe


@pytest.fixture(autouse=True)
def _f64():
    with ad.precision("f64"):
        yield


def _separable_to_dense(w2d: np.ndarray, wdepth: np.ndarray) -> np.ndarray:
    """Assemble the dense 3D kernel a given pseudo3d parameterization equals."""
    w2 = np.asarray(w2d)[:, :, 0]  # (p_h, p_w, N, C)
    kd = np.asarray(wdepth)  # (p_d, C)
    return np.einsum("ijnc,kc->ijknc", w2, kd)


def _dense_embed(x: np.ndarray, w3d: np.ndarray, patch) -> np.ndarray:
    """One dense 3D convolution with kernel = stride = patch, no bias."""
    return ad.conv3d(ad.tensor(x), ad.tensor(w3d), stride=patch, padding=0).numpy()


def _best_separable_factors(w3d: np.ndarray):
    """Per-channel rank-1 (in-plane x depth) approximation of a 3D kernel.

    Returns (w2d, wdepth) shaped for pseudo3d_patch_embed. For genuinely
    non-separable kernels the reconstruction error is the representation
    gap of the slice-wise route.
    """
    w3 = np.asarray(w3d, dtype=np.float64)
    ph, pw, pd, n, c = w3.shape
    w2d = np.zeros((ph, pw, 1, n, c))
    wdepth = np.zeros((pd, c))
    for ch in range(c):
        flat = w3[..., ch].transpose(0, 1, 3, 2).reshape(ph * pw * n, pd)
        u, s, vt = np.linalg.svd(flat, full_matrices=False)
        w2d[:, :, 0, :, ch] = (u[:, 0] * s[0]).reshape(ph, pw, n)
        wdepth[:, ch] = vt[0]
    return w2d, wdepth


def _random_weights(rng, patch, n, c):
    ph, pw, pd = patch
    w2d = rng.standard_normal((ph, pw, 1, n, c)) * 0.2
    kd = rng.standard_normal((pd, c)) * 0.5
    return w2d, kd


def test_output_shape_desk_config(rng):
    x = ad.tensor(rng.standard_normal((32, 32, 32, 1)))
    w2d, kd = _random_weights(rng, (4, 4, 4), 1, 64)
    fm = pe.pseudo3d_patch_embed(x, ad.tensor(w2d), ad.tensor(np.zeros(64)),
                                 ad.tensor(kd), (4, 4, 4))
    assert fm.shape == (8, 8, 8, 64)


def test_zero_volume_zero_bias_gives_zero_map(rng):
    x = ad.tensor(np.zeros((16, 16, 16, 1)))
    w2d, kd = _random_weights(rng, (4, 4, 2), 1, 8)
    fm = pe.pseudo3d_patch_embed(x, ad.tensor(w2d), ad.tensor(np.zeros(8)),
                                 ad.tensor(kd), (4, 4, 2))
    np.testing.assert_array_equal(fm.numpy(), 0.0)


def test_depth1_identity_kernel_equals_slicewise_2d(rng):
    """p_d=1 with unit depth weights reduces to the stacked 2D embedding."""
    x = rng.standard_normal((16, 16, 6, 2))
    w2d, _ = _random_weights(rng, (4, 4, 1), 2, 8)
    fm = pe.pseudo3d_patch_embed(ad.tensor(x), ad.tensor(w2d), ad.tensor(np.zeros(8)),
                                 ad.tensor(np.ones((1, 8))), (4, 4, 1))
    # oracle: run the 2D embedding on each depth slice independently
    expected = np.zeros((4, 4, 6, 8))
    for d in range(6):
        sl = x[:, :, d : d + 1, :]
        expected[:, :, d : d + 1, :] = conv3d_reference(sl, w2d, (4, 4, 1), 0)
    np.testing.assert_allclose(fm.numpy(), expected, rtol=1e-12, atol=1e-12)


def test_mean_kernels_give_patch_means(rng):
    """A 1/p^2 in-plane kernel and 1/p depth weights: every token is its
    patch mean (direct oracle)."""
    x = rng.standard_normal((12, 12, 12, 1))
    p = 4
    w2d = np.full((p, p, 1, 1, 5), 1.0 / p**2)
    kd = np.full((p, 5), 1.0 / p)
    fm = pe.pseudo3d_patch_embed(ad.tensor(x), ad.tensor(w2d), ad.tensor(np.zeros(5)),
                                 ad.tensor(kd), (p, p, p))
    means = np.zeros((3, 3, 3))
    for a in range(3):
        for b in range(3):
            for c in range(3):
                means[a, b, c] = x[a*p:(a+1)*p, b*p:(b+1)*p, c*p:(c+1)*p, 0].mean()
    for ch in range(5):
        np.testing.assert_allclose(fm.numpy()[..., ch], means, rtol=1e-10)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_separable_kernel_equivalence(seed):
    """pseudo3d(K2, kd) == a dense conv with the K2 x kd outer product as
    its kernel, within 1e-5."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((8, 8, 8, 2))
    w2d = rng.standard_normal((2, 2, 1, 2, 4))
    kd = rng.standard_normal((2, 4))
    zeros = np.zeros(4)
    with ad.precision("f64"):
        a = pe.pseudo3d_patch_embed(ad.tensor(x), ad.tensor(w2d), ad.tensor(zeros),
                                    ad.tensor(kd), (2, 2, 2)).numpy()
        b = _dense_embed(x, _separable_to_dense(w2d, kd), (2, 2, 2))
    assert np.abs(a - b).max() < 1e-5


def test_nonseparable_kernel_has_representation_gap(rng):
    x = rng.standard_normal((16, 16, 16, 1))
    k3 = rng.standard_normal((4, 4, 4, 1, 8))
    w2d, kd = _best_separable_factors(k3)
    t = _dense_embed(x, k3, (4, 4, 4))
    p = pe.pseudo3d_patch_embed(ad.tensor(x), ad.tensor(w2d), ad.tensor(np.zeros(8)),
                                ad.tensor(kd), (4, 4, 4)).numpy()
    assert np.abs(t - p).max() > 0.01


@settings(max_examples=15, deadline=None)
@given(alpha=st.floats(-3, 3, allow_nan=False), seed=st.integers(0, 2**31))
def test_linearity_with_zero_bias(alpha, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((8, 8, 8, 1))
    zeros = np.zeros(6)
    with ad.precision("f64"):
        w2d = rng.standard_normal((2, 2, 1, 1, 6))
        kd = rng.standard_normal((2, 6))

        def embed(v):
            return pe.pseudo3d_patch_embed(
                ad.tensor(v), ad.tensor(w2d), ad.tensor(zeros), ad.tensor(kd),
                (2, 2, 2)).numpy()

        np.testing.assert_allclose(embed(alpha * x), alpha * embed(x),
                                   rtol=1e-9, atol=1e-9)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_shape_contract_random_divisible_dims(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    patch = tuple(data.draw(st.sampled_from([1, 2, 4])) for _ in range(3))
    grid = tuple(data.draw(st.integers(1, 3)) for _ in range(3))
    dims = tuple(p * g for p, g in zip(patch, grid))
    c = data.draw(st.sampled_from([8, 12]))
    x = rng.standard_normal(dims + (1,))
    w2d = rng.standard_normal((patch[0], patch[1], 1, 1, c))
    kd = rng.standard_normal((patch[2], c))
    with ad.precision("f64"):
        fm = pe.pseudo3d_patch_embed(ad.tensor(x), ad.tensor(w2d),
                                     ad.tensor(np.zeros(c)), ad.tensor(kd), patch)
    assert fm.shape == grid + (c,)


def test_non_divisible_dims_rejected(rng):
    x = ad.tensor(rng.standard_normal((10, 8, 8, 1)))
    w2d, kd = _random_weights(rng, (4, 4, 4), 1, 8)
    with pytest.raises(ad.ShapeMismatchError):
        pe.pseudo3d_patch_embed(x, ad.tensor(w2d), ad.tensor(np.zeros(8)),
                                ad.tensor(kd), (4, 4, 4))


def test_positional_embedding_shape_check(rng):
    x = ad.tensor(rng.standard_normal((8, 8, 8, 1)))
    w2d, kd = _random_weights(rng, (4, 4, 4), 1, 8)
    fm = pe.pseudo3d_patch_embed(x, ad.tensor(w2d), ad.tensor(np.zeros(8)),
                                 ad.tensor(kd), (4, 4, 4))
    pos = ad.tensor(rng.standard_normal((2, 2, 2, 8)))
    out = pe.add_positional(fm, pos)
    np.testing.assert_allclose(out.numpy(), fm.numpy() + pos.numpy())
    with pytest.raises(ad.ShapeMismatchError):
        pe.add_positional(fm, ad.tensor(np.zeros((2, 2, 2, 4))))
