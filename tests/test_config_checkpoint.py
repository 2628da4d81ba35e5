"""Config parsing/echo and checkpoint round trips."""

import dataclasses
import os
import re

import numpy as np
import pytest

import helpers
from gradcheck_suite import TINY_MODEL
from voxseg import autodiff as ad
from voxseg import checkpoint as ckpt
from voxseg import model as mdl
from voxseg.config import _BOOL, _RETIRED, Config, ConfigError, model_spec_from_config
from voxseg.optim import AdamW, AdamWConfig


class TestConfig:
    def test_defaults_resolve(self):
        cfg = Config.default()
        assert cfg.get_int("model.embed_dim") == 64
        assert cfg.get_float("train.lr") == 2e-4
        assert cfg.get_bool("decoder.no_image_branch") is False
        assert cfg.get_int_tuple("encoder.taps") == (3, 6, 9, 12)

    def test_load_file_with_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment\n"
            "model.embed_dim = 32   # inline comment\n"
            "prompter.layer=3\n"
            "\n"
            "augment.flip_h = 0.5\n"
        )
        cfg = Config.load(path)
        assert cfg.get_int("model.embed_dim") == 32
        assert cfg.get_int("prompter.layer") == 3
        assert cfg.get_float("augment.flip_h") == 0.5
        assert cfg.get_int("patch.h") == 4  # untouched default

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("model.embed_dmi = 32\n")
        with pytest.raises(ConfigError):
            Config.load(path)
        with pytest.raises(ConfigError):
            Config.default().override("nope", 1)

    def test_removed_switch_read_at_kept_value(self, tmp_path):
        """A file that sets every removed switch to the value the model kept
        loads, and the keys are dropped, so the echo never shows them; a
        line with any other value is refused with its file and line."""
        path = tmp_path / "old.cfg"
        path.write_text("".join(f"{key} = {str(kept).lower()}\n"
                                for key, kept in _RETIRED.items()) + "prompter.layer = 6\n")
        expected = Config.default().override("prompter.layer", "6")
        assert Config.load(path).resolved_lines() == expected.resolved_lines()
        path.write_text("train.lr = 1e-3\npatch.mode = true3d\n")
        with pytest.raises(ConfigError, match=r"old\.cfg:2: patch\.mode was removed"):
            Config.load(path)

    @pytest.mark.parametrize("key", sorted(_RETIRED))
    def test_retired_key_takes_only_its_kept_value(self, key):
        """A removed key loads and is dropped at the value the model kept, a
        boolean in every ``_BOOL`` spelling of it, a number in any spelling
        of its value; any other value raises ``ConfigError`` naming the key."""
        kept = _RETIRED[key]
        if isinstance(kept, bool):
            accepted = [text for text, value in _BOOL.items() if value == kept]
            refused = [text for text, value in _BOOL.items() if value != kept]
        elif isinstance(kept, (int, float)):
            accepted = [kept, str(kept), f"{float(kept)}", f"{kept:e}", f" {kept} "]
            refused = ["", f"{kept}x", str(2 * kept), str(kept / 2), "nan", "inf", "true"]
        else:
            accepted, refused = [kept], ["", f"{kept}x"]
        for raw in accepted:
            assert Config.default().override(key, raw).values == Config.default().values
        for raw in refused + ["maybe"]:
            with pytest.raises(ConfigError, match=rf"^{re.escape(key)} was removed"):
                Config.default().override(key, raw)

    def test_from_lines_reads_the_echo_back(self):
        cfg = (Config.default().override("train.lr", "1e-3")
               .override("decoder.no_image_branch", "true"))
        assert Config.from_lines(cfg.resolved_lines()).values == cfg.values

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ConfigError):
            Config.load(path)

    def test_echo_is_exact(self):
        cfg = Config.default().override("train.lr", "2e-4")
        lines = cfg.resolved_lines()
        assert "train.lr = 2e-4" in lines
        assert len(lines) == len(cfg.values)
        assert lines == sorted(lines)

    def test_bad_values_raise(self):
        cfg = Config.default().override("model.embed_dim", "abc")
        with pytest.raises(ConfigError):
            cfg.get_int("model.embed_dim")
        cfg2 = Config.default().override("decoder.no_image_branch", "maybe")
        with pytest.raises(ConfigError, match=r"^decoder\.no_image_branch: "):
            cfg2.get_bool("decoder.no_image_branch")
        cfg3 = Config.default().override("encoder.adapter_dim", "abc")
        with pytest.raises(ConfigError, match=r"^encoder\.adapter_dim: "):
            model_spec_from_config(cfg3)

    @pytest.mark.parametrize("field", [
        {"prompt_layer": 5}, {"patch": (0, 4, 4)}, {"embed_dim": 4},
        {"taps": (3, 3, 6, 12)}, {"dec_channels": 0}, {"adapter_dim": 0},
        {"mlp_ratio": 0}, {"vol_dims": (16, 16), "patch": (4, 4)},
    ])
    def test_model_spec_rejects_bad_patch_fields(self, field):
        with pytest.raises(ValueError) as info:
            mdl.ModelSpec(**field).validate()
        assert any(name in str(info.value) for name in field), info.value

    def test_model_spec_from_config_auto_adapter(self):
        spec = model_spec_from_config(Config.default())
        assert spec.adapter_dim == 64 // 4
        spec2 = model_spec_from_config(
            Config.default().override("encoder.adapter_dim", "8")
        )
        assert spec2.adapter_dim == 8


def _tiny_store(seed=0):
    with ad.precision("f32"):
        return TINY_MODEL, mdl.init_store(TINY_MODEL, seed)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        spec, store = _tiny_store()
        opt = AdamW(store, AdamWConfig())
        # take one real-ish step so moments are nonzero
        for _, t in store.trainable():
            t.grad = np.ones_like(t.data)
        opt.step()
        path = tmp_path / "m.ckpt"
        ckpt.save_checkpoint(path, store, opt, config_lines=["a = 1", "b = two"])
        step, lines, entries, moments = ckpt.load_checkpoint(path)
        assert step == 1
        assert lines == ["a = 1", "b = two"]
        assert [n for n, _, _ in entries] == store.names()
        for name, frozen, arr in entries:
            assert frozen == helpers.is_frozen(store, name)
            assert np.array_equal(arr, store[name].data)
        for name, (m, v) in moments.items():
            assert np.array_equal(m, opt.state()["m"][name])
            assert np.array_equal(v, opt.state()["v"][name])

    def test_restore_into_existing_store(self, tmp_path):
        spec, store = _tiny_store(seed=0)
        path = tmp_path / "m.ckpt"
        ckpt.save_checkpoint(path, store, None, step=0)
        _, _, entries, _ = ckpt.load_checkpoint(path)
        _, store2 = _tiny_store(seed=99)  # different init
        ckpt.restore_into(store2, entries)
        for name, t, _ in store.items():
            assert np.array_equal(t.data, store2[name].data)

    def test_store_from_entries(self, tmp_path):
        spec, store = _tiny_store()
        path = tmp_path / "m.ckpt"
        ckpt.save_checkpoint(path, store, None)
        _, _, entries, _ = ckpt.load_checkpoint(path)
        rebuilt = ckpt.store_from_entries(entries)
        assert rebuilt.names() == store.names()
        assert helpers.trainable_params(rebuilt) == helpers.trainable_params(store)

    def test_failed_save_keeps_old_checkpoint(self, tmp_path, monkeypatch):
        """A save that fails part-way leaves the previous file byte for byte."""
        spec, store = _tiny_store()
        opt = AdamW(store, AdamWConfig())
        path = tmp_path / "last.ckpt"
        ckpt.save_checkpoint(path, store, opt)
        before = path.read_bytes()
        for _, t in store.trainable():
            t.grad = np.ones_like(t.data)
        opt.step()
        # no moments: the write fails after the header and every parameter
        monkeypatch.setattr(opt, "state", lambda: {"step": 1, "m": {}, "v": {}})
        with pytest.raises(KeyError):
            ckpt.save_checkpoint(path, store, opt)
        assert path.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["last.ckpt"]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTACKPT\nstuff\n")
        with pytest.raises(ckpt.CheckpointError) as err:
            ckpt.load_checkpoint(path)
        assert err.value.code == "bad_magic"

    def test_truncated_payload(self, tmp_path):
        spec, store = _tiny_store()
        path = tmp_path / "m.ckpt"
        ckpt.save_checkpoint(path, store, None)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ckpt.CheckpointError) as err:
            ckpt.load_checkpoint(path)
        assert err.value.code == "payload_mismatch"

    def test_trailing_bytes(self, tmp_path):
        spec, store = _tiny_store()
        path = tmp_path / "m.ckpt"
        ckpt.save_checkpoint(path, store, None)
        path.write_bytes(path.read_bytes() + b"\0" * 4)
        with pytest.raises(ckpt.CheckpointError) as err:
            ckpt.load_checkpoint(path)
        assert err.value.code == "payload_mismatch"

    @pytest.mark.parametrize("old,new", [(b"\nstep 0\n", b"\nstep x\n"),
                                         (b"\nentries ", b"\nentries x"),
                                         (b"\nmoments 0\n", b"\nmoments \xff\n"),
                                         (b"\nstep 0\n", b"\nstep -1\n"),
                                         (b"proj_b 0 f32 1 1\n", b"proj_b 0 f32 1 -1\n"),
                                         (b"wq 0 f32 2 16 16\n", b"wq 0 f32 2 -2 -2\n")])
    def test_malformed_header_number(self, tmp_path, old, new):
        """A count or dimension that is not an integer, and a negative step
        or dimension, is a bad header, not a ValueError or a silent load."""
        spec, store = _tiny_store()
        path = tmp_path / "m.ckpt"
        ckpt.save_checkpoint(path, store, None)
        raw = path.read_bytes()
        assert raw.count(old) == 1
        path.write_bytes(raw.replace(old, new))
        with pytest.raises(ckpt.CheckpointError) as err:
            ckpt.load_checkpoint(path)
        assert err.value.code == "bad_header"

    def test_layout_mismatch_rejected(self, tmp_path):
        spec, store = _tiny_store()
        path = tmp_path / "m.ckpt"
        ckpt.save_checkpoint(path, store, None)
        _, _, entries, _ = ckpt.load_checkpoint(path)
        other_spec = dataclasses.replace(TINY_MODEL, taps=(6, 12), prompt_layer=12)
        with ad.precision("f32"):
            other = mdl.init_store(other_spec, 0)
        with pytest.raises(ckpt.CheckpointError):
            ckpt.restore_into(other, entries)
