"""The loss against a numpy oracle and closed forms; metrics against
brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from gradcheck import gradient_check
from loss_oracle import loss_grad, loss_terms
from voxseg import autodiff as ad
from voxseg import metrics as mx
from voxseg.objectives import LossConfig, combined_loss
from voxseg.volume_io import generate_phantom


@pytest.fixture(autouse=True)
def _f64():
    with ad.precision("f64"):
        yield


def _nsd_bruteforce(pred, gt, tau=1.0) -> float:
    """All-pairs surface-distance oracle; intended for small grids."""
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    p, g = mx._check_pair(pred, gt)
    bp = np.argwhere(mx.boundary_mask(p))
    bg = np.argwhere(mx.boundary_mask(g))
    if len(bp) == 0 and len(bg) == 0:
        return 1.0
    if len(bp) == 0 or len(bg) == 0:
        return 0.0
    diff = bp[:, None, :].astype(np.int64) - bg[None, :, :].astype(np.int64)
    sq = (diff * diff).sum(axis=2)
    d_p = np.sqrt(sq.min(axis=1))
    d_g = np.sqrt(sq.min(axis=0))
    hits = int((d_p <= tau).sum()) + int((d_g <= tau).sum())
    return hits / (len(bp) + len(bg))


def _nsd_edt(pred, gt, tau=1.0, spacing=(1.0, 1.0, 1.0)) -> float:
    """NSD from scipy's exact Euclidean distance transform of each boundary,
    at the voxel spacing's sampling."""
    p, g = mx._check_pair(pred, gt)
    bp = mx.boundary_mask(p)
    bg = mx.boundary_mask(g)
    np_, ng = int(bp.sum()), int(bg.sum())
    if np_ == 0 and ng == 0:
        return 1.0
    if np_ == 0 or ng == 0:
        return 0.0
    dist_to_g = ndimage.distance_transform_edt(~bg, sampling=spacing)
    dist_to_p = ndimage.distance_transform_edt(~bp, sampling=spacing)
    hits_p = int((dist_to_g[bp] <= tau).sum())
    hits_g = int((dist_to_p[bg] <= tau).sum())
    return (hits_p + hits_g) / (np_ + ng)


def _dice_bruteforce(pred, gt) -> float:
    """Voxel-counting oracle for dice_score."""
    p, g = mx._check_pair(pred, gt)
    inter = total = 0
    for pv, gv in zip(p.reshape(-1), g.reshape(-1)):
        inter += 1 if (pv and gv) else 0
        total += (1 if pv else 0) + (1 if gv else 0)
    return 1.0 if total == 0 else 2.0 * inter / total


def _draw(rng, n, dtype, saturated):
    """A probability map and a mask of n^3 voxels in ``dtype``; a saturated
    map has about 40% of its voxels at exactly 0 or 1."""
    p = rng.uniform(0.0, 1.0, (n, n, n))
    if saturated:
        pick = rng.random(p.shape)
        p[pick < 0.2], p[pick > 0.8] = 0.0, 1.0
    return p.astype(dtype), (rng.random((n, n, n)) < 0.3).astype(dtype)


class TestLoss:
    def test_perfect_prediction_near_zero(self):
        gt = np.zeros((4, 4, 4))
        gt[:2, :2, :2] = 1
        loss = combined_loss(ad.tensor(gt.copy()), gt).item()
        assert 0 <= loss < 1e-5

    def test_bce_half_prediction_is_ln2(self):
        """At p = 0.5 the BCE term is ln 2: the loss less half the dice term,
        worked out by hand, is half of ln 2."""
        gt = np.zeros((4, 4, 4))
        gt[:2] = 1  # half ones
        pred = ad.tensor(np.full((4, 4, 4), 0.5))
        s = LossConfig().smooth
        dice = 1 - (2 * 0.5 * 32 + s) / (0.5 * 64 + 32 + s)
        assert abs(combined_loss(pred, gt).item() - 0.5 * dice - 0.5 * np.log(2)) < 1e-12

    def test_combined_weights(self):
        """The loss is 0.5 dice + 0.5 BCE, its terms taken from the oracle."""
        gt = (np.random.default_rng(0).random((4, 4, 4)) < 0.3).astype(float)
        pred = np.full((4, 4, 4), 0.4)
        _, d, b = loss_terms(pred, gt)
        assert abs(combined_loss(ad.tensor(pred), gt).item() - (0.5 * d + 0.5 * b)) < 1e-12

    def test_loss_is_one_node_on_the_prediction(self, rng):
        """Whatever feeds the prediction, the loss is one ``combined_loss``
        record whose only parent is the prediction's record; the mask, an
        array or a Tensor, is not a parent."""
        prob = ad.sigmoid(ad.tensor(rng.standard_normal((3, 4, 5)), requires_grad=True))
        gt = (rng.random((3, 4, 5)) < 0.4).astype(float)
        for mask in (gt, ad.tensor(gt), ad.tensor(gt, requires_grad=True)):
            loss = combined_loss(prob, mask)
            assert loss._record.op == "combined_loss"
            assert loss._parents == (prob._record,)

    @pytest.mark.parametrize("saturated", [False, True], ids=["random", "saturated"])
    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-13)],
                             ids=["f32", "f64"])
    def test_loss_matches_numpy_oracle(self, dtype, tol, saturated):
        """On maps from 3^3 to 24^3 and upstream gradients 1, 1/2 and 1/3,
        the loss is bit for bit the numpy transcription of the op chain it
        replaced, and the gradient is within ``tol`` of the closed form,
        relative to its largest entry; a voxel at exactly 0 or 1 gets only
        the dice term."""
        rng = np.random.default_rng(22)
        for n, upstream in zip((3, 5, 8, 16, 24), (1.0, 0.5, 1 / 3, 1.0, 0.5)):
            p, g = _draw(rng, n, dtype, saturated)
            pred = ad.tensor(p, requires_grad=True, dtype=dtype)
            loss = combined_loss(pred, g)
            ad.backward(ad.mul(loss, ad.tensor(upstream, dtype=dtype)))
            want, _, _ = loss_terms(p, g)
            assert loss.data.dtype == dtype and loss.data.tobytes() == want.tobytes()
            grad, dice_only = loss_grad(p, g, upstream=upstream)
            assert pred.grad.dtype == dtype
            scale = np.abs(grad).max()
            assert np.abs(pred.grad - grad).max() <= tol * scale
            sat = (p == 0) | (p == 1)
            assert sat.any() == saturated
            assert np.abs(pred.grad[sat] - dice_only[sat]).max(initial=0.0) <= tol * scale

    def test_finite_on_saturated_inputs(self):
        gt = np.zeros((3, 3, 3))
        gt[0] = 1
        pred = ad.tensor(gt.copy())  # exact 0/1 values, before the clip
        assert np.isfinite(combined_loss(pred, gt).item())

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ad.ShapeMismatchError):
            combined_loss(ad.tensor(np.zeros((2, 2, 2))), np.zeros((2, 2, 3)))

    def test_gradcheck(self, rng):
        gt = (rng.random((4, 4, 4)) < 0.4).astype(float)
        rep = gradient_check(
            lambda p: combined_loss(p, gt), rng.uniform(0.05, 0.95, (4, 4, 4))
        )
        assert rep.passed and rep.max_rel_error < 1e-4

    def test_monotone_decrease_toward_target(self, rng):
        """Loss strictly decreases along pred = 0.5 -> gt in 10 steps."""
        gt = (rng.random((5, 5, 5)) < 0.3).astype(float)
        values = []
        for t in np.linspace(0.0, 1.0, 10):
            pred = 0.5 + t * (gt - 0.5)
            values.append(combined_loss(ad.tensor(pred), gt).item())
        diffs = np.diff(values)
        assert np.all(diffs < 0)


class TestDice:
    def test_fixed_cases(self):
        a = np.zeros((6, 6, 6), np.uint8)
        a[1:3, 1, 1] = 1
        b = np.zeros((6, 6, 6), np.uint8)
        b[2:4, 1, 1] = 1
        assert mx.dice_score(a, a) == 1.0
        assert mx.dice_score(a, np.roll(a, 3, axis=0)) == 0.0
        assert mx.dice_score(a, b) == 0.5  # |P|=2, |G|=2, overlap 1
        assert mx.dice_score(np.zeros((3, 3, 3), np.uint8),
                             np.zeros((3, 3, 3), np.uint8)) == 1.0

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            mx.dice_score(np.full((2, 2, 2), 3, np.uint8), np.zeros((2, 2, 2), np.uint8))
        holds_two = np.zeros((4, 4, 4), np.uint8)
        holds_two[1:3, 1:3, 1:3] = 1
        holds_two[2, 2, 2] = 2
        holds_nan = holds_two.astype(np.float64)
        holds_nan[2, 2, 2] = np.nan
        for bad in (holds_two, holds_nan):
            with pytest.raises(ValueError, match="not a binary mask"):
                mx.dice_score(bad, np.zeros_like(bad))
            with pytest.raises(ValueError, match="not a binary mask"):
                mx.nsd(np.zeros_like(bad), bad)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_symmetry_and_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(3, 9, 3))
        p = (rng.random(shape) < 0.4).astype(np.uint8)
        g = (rng.random(shape) < 0.4).astype(np.uint8)
        assert mx.dice_score(p, g) == mx.dice_score(g, p)
        perm = tuple(rng.permutation(3))
        assert mx.dice_score(p.transpose(perm), g.transpose(perm)) == mx.dice_score(p, g)


class TestNSD:
    def test_identical_masks_any_tau(self, rng):
        m = (rng.random((7, 7, 7)) < 0.3).astype(np.uint8)
        for tau in (0.0, 0.5, 1.0, 3.0):
            assert mx.nsd(m, m, tau) == 1.0

    def test_saturation_at_grid_diagonal(self, rng):
        shape = (6, 6, 6)
        p = np.zeros(shape, np.uint8)
        p[1, 1, 1] = 1
        g = np.zeros(shape, np.uint8)
        g[4, 4, 4] = 1
        diag = np.sqrt(sum((s - 1) ** 2 for s in shape))
        assert mx.nsd(p, g, diag) == 1.0

    def test_shifted_cube(self):
        c = np.zeros((8, 8, 8), np.uint8)
        c[2:5, 2:5, 2:5] = 1
        d = np.roll(c, 1, axis=0)
        assert mx.nsd(c, d, 1.0) == 1.0
        assert mx.nsd(c, d, 0.0) < 1.0
        # single voxel version
        u = np.zeros((6, 6, 6), np.uint8)
        u[2, 2, 2] = 1
        v = np.roll(u, 1, axis=1)
        assert mx.nsd(u, v, 1.0) == 1.0
        assert mx.nsd(u, v, 0.0) < 1.0

    def test_negative_tau_rejected(self):
        m = np.zeros((3, 3, 3), np.uint8)
        for tau in (-0.5, float("nan")):
            with pytest.raises(ValueError):
                mx.nsd(m, m, tau)

    def test_empty_conventions(self):
        z = np.zeros((4, 4, 4), np.uint8)
        m = z.copy()
        m[1, 1, 1] = 1
        assert mx.nsd(z, z, 1.0) == 1.0
        assert mx.nsd(z, m, 1.0) == 0.0

    def test_boundary_definition_six_connectivity(self):
        m = np.zeros((5, 5, 5), np.uint8)
        m[1:4, 1:4, 1:4] = 1
        b = mx.boundary_mask(m)
        assert b.sum() == 26  # 3^3 cube minus interior voxel
        assert not b[2, 2, 2]
        # grid edge counts as background: every face voxel of a grid-filling
        # cube is boundary, only the fully enclosed center is interior
        edge = np.ones((3, 3, 3), np.uint8)
        be = mx.boundary_mask(edge)
        assert be.sum() == 26 and not be[1, 1, 1]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_fast_equals_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(4, 13, 3))
        p = (rng.random(shape) < 0.35).astype(np.uint8)
        g = (rng.random(shape) < 0.35).astype(np.uint8)
        diag = math.sqrt(sum((s - 1) ** 2 for s in shape))
        tau = float(rng.choice([0.0, 1.0, 1.5, 2.0, 3.0, math.sqrt(2), math.sqrt(3),
                                math.sqrt(5), math.sqrt(8), diag + 0.5, math.inf]))
        assert mx.nsd(p, g, tau) == _nsd_bruteforce(p, g, tau)
        assert mx.dice_score(p, g) == _dice_bruteforce(p, g)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_squared_distance_exact_up_to_k(self, seed):
        """At unit spacing and tau = sqrt(k), every squared distance up to k
        is exact and every other value exceeds k."""
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(1, 10, 3))
        seeds = rng.random(shape) < 0.05
        seeds.flat[rng.integers(seeds.size)] = True
        k = int(rng.integers(0, 12))
        diff = np.indices(shape).reshape(3, -1, 1) - np.argwhere(seeds).T[:, None, :]
        exact = (diff * diff).sum(axis=0).min(axis=1).reshape(shape)
        got = mx._sq_distance_within(seeds, math.sqrt(k), (1.0, 1.0, 1.0))
        near = exact <= k
        np.testing.assert_array_equal(got[near], exact[near])
        assert (got[~near] > k).all()

    @pytest.mark.parametrize("spacing", [(1.0, 2.0, 0.5), (0.7, 1.3, 3.1)])
    @pytest.mark.parametrize("tau", [0.0, 1.0, 1.5, 2.5, 4.0])
    def test_anisotropic_spacing_equals_distance_transform(self, spacing, tau):
        """With a voxel spacing, tau is in the spacing's units: the hits are
        those of scipy's exact transform at that sampling."""
        rng = np.random.default_rng(8)
        shape = (12, 10, 14)
        _, gt = generate_phantom(5, (16, 16, 16))
        pairs = [((rng.random(shape) < 0.3).astype(np.uint8),
                  (rng.random(shape) < 0.05).astype(np.uint8)),
                 (gt.data ^ (rng.random(gt.data.shape) < 0.02).astype(np.uint8), gt.data)]
        for p, g in pairs:
            assert mx.nsd(p, g, tau, spacing) == _nsd_edt(p, g, tau, spacing)

    @pytest.mark.parametrize("tau", [0.0, 1.0, math.sqrt(2), 3.0, 10.0])
    def test_equals_distance_transform_at_32_cubed(self, tau):
        rng = np.random.default_rng(7)
        shape = (32, 32, 32)
        pairs = [((rng.random(shape) < 0.3).astype(np.uint8),
                  (rng.random(shape) < 0.05).astype(np.uint8))]
        for seed in (3, 4):
            _, gt = generate_phantom(seed, shape, lesion_count=2)
            _, other = generate_phantom(seed + 10, shape, lesion_count=2)
            noisy = gt.data ^ (rng.random(shape) < 0.02).astype(np.uint8)
            pairs += [(other.data, gt.data), (noisy, gt.data)]
        for p, g in pairs:
            assert mx.nsd(p, g, tau) == _nsd_edt(p, g, tau)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_symmetry_and_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(3, 8, 3))
        p = (rng.random(shape) < 0.4).astype(np.uint8)
        g = (rng.random(shape) < 0.4).astype(np.uint8)
        assert mx.nsd(p, g, 1.0) == mx.nsd(g, p, 1.0)
        perm = tuple(rng.permutation(3))
        assert mx.nsd(p.transpose(perm), g.transpose(perm), 1.0) == mx.nsd(p, g, 1.0)


def test_threshold_ties_to_foreground():
    probs = np.array([0.49, 0.5, 0.51])
    np.testing.assert_array_equal(mx.threshold_probabilities(probs), [0, 1, 1])
