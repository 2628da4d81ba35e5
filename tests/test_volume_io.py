"""Containers, phantoms, splits: bit-exact round trips and partitions."""

import io
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

import helpers
from voxseg import volume_io as vio


def _phantom(seed=7, dims=(32, 32, 32), lesions=1, noise=0.0):
    return vio.generate_phantom(seed, dims, lesion_count=lesions, noise_sd=noise)


class TestPhantom:
    def test_single_lesion_nonempty_and_connected(self):
        _, mask = _phantom(seed=7, noise=0.0)
        assert mask.data.sum() > 0
        # 6-connectivity: one connected component
        structure = ndimage.generate_binary_structure(3, 1)
        _, n = ndimage.label(mask.data, structure=structure)
        assert n == 1

    def test_bit_identical_for_identical_seeds(self):
        v1, m1 = _phantom(seed=42, noise=0.05)
        v2, m2 = _phantom(seed=42, noise=0.05)
        assert np.array_equal(v1.data, v2.data)
        assert np.array_equal(m1.data, m2.data)
        v3, _ = _phantom(seed=43, noise=0.05)
        assert not np.array_equal(v1.data, v3.data)

    def test_disjoint_lesions_union_count(self):
        # oracle: rasterize each blob independently, count, compare to union
        _, mask, parts = vio.phantom_components(11, (32, 32, 32), lesion_count=2)
        per_blob = [int(p.sum()) for p in parts]
        assert all(c > 0 for c in per_blob)
        assert int(mask.data.sum()) == sum(per_blob)

    def test_values_normalized_and_finite(self):
        vol, _ = _phantom(seed=3, noise=0.1)
        assert vol.data.min() >= 0.0 and vol.data.max() <= 1.0
        assert np.all(np.isfinite(vol.data))

    def test_small_dims_rejected(self):
        with pytest.raises(vio.VolumeError) as err:
            _phantom(dims=(8, 32, 32))
        assert err.value.code == "bad_args"

    def test_bad_args_rejected(self):
        with pytest.raises(vio.VolumeError):
            _phantom(lesions=0)
        with pytest.raises(vio.VolumeError):
            _phantom(noise=-1.0)


class TestContainer:
    def test_round_trip_phantom(self, tmp_path):
        vol, mask = _phantom(seed=5, noise=0.02)
        vp, mp = tmp_path / "c.img.dvol", tmp_path / "c.msk.dvol"
        vio.write_volume(vol, vp)
        vio.write_mask(mask, mp, spacing=vol.spacing)
        rv = vio.read_volume(vp)
        rm = vio.read_mask(mp)
        assert rv.dims == vol.dims and rv.data.shape == vol.dims + (1,)
        assert rv.spacing == vol.spacing
        assert np.array_equal(rv.data, vol.data)
        assert np.array_equal(rm.data, mask.data)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31),
           dims=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)))
    def test_round_trip_random_volumes(self, tmp_path_factory, seed, dims):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal(dims + (1,)).astype(np.float32)
        spacing = tuple(float(s) for s in rng.uniform(0.1, 3.0, 3))
        vol = vio.Volume(dims=dims, spacing=spacing, data=data)
        path = tmp_path_factory.mktemp("rt") / "v.dvol"
        vio.write_volume(vol, path)
        back = vio.read_volume(path)
        assert back.spacing == spacing
        assert np.array_equal(back.data, data)

    def test_zero_volume_from_handwritten_header(self, tmp_path):
        path = tmp_path / "zeros.dvol"
        with open(path, "wb") as fh:
            fh.write(b"DEAPVOL1\ndims 2 2 2\nchannels 1\nspacing 1.0 1.0 1.0\ndtype f32\n")
            fh.write(np.zeros(8, dtype="<f4").tobytes())
        vol = vio.read_volume(path)
        assert vol.dims == (2, 2, 2)
        np.testing.assert_array_equal(vol.data, np.zeros((2, 2, 2, 1), np.float32))

    @pytest.mark.parametrize("read,tag,dtype", [(vio.read_volume, "f32", "<f4"),
                                                (vio.read_mask, "u8", "u1")],
                             ids=["volume", "mask"])
    def test_two_channel_container_is_a_bad_header(self, tmp_path, read, tag, dtype):
        """The model reads one channel: a container of 2, its payload the
        length its header implies, is refused as a bad header."""
        path = tmp_path / "two.dvol"
        with open(path, "wb") as fh:
            fh.write(f"DEAPVOL1\ndims 2 2 2\nchannels 2\nspacing 1.0 1.0 1.0\ndtype {tag}\n"
                     .encode())
            fh.write(np.zeros(16, dtype=dtype).tobytes())
        with pytest.raises(vio.VolumeError) as err:
            read(path)
        assert err.value.code == "bad_header"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.dvol"
        path.write_bytes(b"NOTAVOL1\n")
        with pytest.raises(vio.VolumeError) as err:
            vio.read_volume(path)
        assert err.value.code == "bad_magic"

    def test_truncated_payload(self, tmp_path):
        vol, _ = _phantom(seed=5)
        path = tmp_path / "t.dvol"
        vio.write_volume(vol, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(vio.VolumeError) as err:
            vio.read_volume(path)
        assert err.value.code == "payload_mismatch"

    def test_oversized_payload(self, tmp_path):
        vol, _ = _phantom(seed=5)
        path = tmp_path / "o.dvol"
        vio.write_volume(vol, path)
        with open(path, "ab") as fh:
            fh.write(b"\x00\x00\x00\x00")
        with pytest.raises(vio.VolumeError) as err:
            vio.read_volume(path)
        assert err.value.code == "payload_mismatch"

    def test_non_finite_rejected_on_write(self, tmp_path):
        vol, _ = _phantom(seed=5)
        vol.data[0, 0, 0, 0] = np.nan
        with pytest.raises(vio.VolumeError) as err:
            vio.write_volume(vol, tmp_path / "nan.dvol")
        assert err.value.code == "non_finite"

    def test_failed_write_keeps_old_volume(self, tmp_path, monkeypatch):
        """A write that fails before it is committed leaves the old file."""
        path = tmp_path / "c.img.dvol"
        vio.write_volume(_phantom(seed=5)[0], path)
        before = path.read_bytes()

        def crash(fd):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "fsync", crash)
        with pytest.raises(OSError, match="disk gone"):
            vio.write_volume(_phantom(seed=6)[0], path)
        assert path.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["c.img.dvol"]

    def test_mask_dtype_routing(self, tmp_path):
        vol, mask = _phantom(seed=5)
        vp, mp = tmp_path / "v.dvol", tmp_path / "m.dvol"
        vio.write_volume(vol, vp)
        vio.write_mask(mask, mp)
        with pytest.raises(vio.VolumeError):
            vio.read_volume(mp)
        with pytest.raises(vio.VolumeError):
            vio.read_mask(vp)


class TestSplits:
    def test_paper_ratio_sizes(self):
        split = vio.split_dataset([f"c{i}" for i in range(10)], seed=3)
        assert (len(split.train), len(split.val), len(split.test)) == (7, 1, 2)

    def test_degenerate_all_train(self):
        split = vio.split_dataset(["only"], ratios=(1.0, 0.0, 0.0), seed=1)
        assert split.train == ["only"] and not split.val and not split.test

    def test_two_seeds_same_sizes_different_orderings(self):
        ids = [f"c{i:02d}" for i in range(20)]
        s1 = vio.split_dataset(ids, seed=1)
        s2 = vio.split_dataset(ids, seed=2)
        assert (len(s1.train), len(s1.val), len(s1.test)) == (14, 2, 4)
        assert (len(s2.train), len(s2.val), len(s2.test)) == (14, 2, 4)
        assert s1.train != s2.train  # different shuffles
        assert sorted(helpers.all_cases(s1)) == sorted(helpers.all_cases(s2)) == ids

    def test_duplicates_rejected(self):
        with pytest.raises(vio.VolumeError):
            vio.split_dataset(["a", "a", "b"] + [f"c{i}" for i in range(8)], seed=0)

    def test_too_few_for_three_way(self):
        with pytest.raises(vio.VolumeError):
            vio.split_dataset(["a", "b", "c"], seed=0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(10, 40), st.integers(0, 2**31))
    def test_split_partitions_exactly(self, n, seed):
        ids = [f"case{i}" for i in range(n)]
        split = vio.split_dataset(ids, seed=seed)
        assert sorted(helpers.all_cases(split)) == sorted(ids)
        assert not (set(split.train) & set(split.val))
        assert not (set(split.train) & set(split.test))
        assert not (set(split.val) & set(split.test))
