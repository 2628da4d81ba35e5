"""Training loop determinism, resumption, evaluation, and the CLI."""

import logging
import os
import re
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from voxseg import autodiff as ad
from voxseg import checkpoint as ckpt
from voxseg import metrics as mx
from voxseg import model as mdl
from voxseg import train as train_mod
from voxseg.autodiff import NonFiniteError, ParameterStore
from voxseg.cli import main as cli_main
from voxseg.config import DEFAULTS, Config, ConfigError, model_spec_from_config
from voxseg.train import (
    _flip_axes,
    evaluate_cases,
    list_cases,
    load_case,
    synthesize_dataset,
    train,
    write_case,
)
from voxseg.volume_io import generate_phantom

from conftest import tiny_config


# what a checkpoint written before nine switches were removed carries
# for them: the values the model kept
_REMOVED_SWITCH_LINES = ["data.channels = 1", "decoder.share_image_branch = false",
                         "encoder.scale = 1.0", "flops.mac = 2",
                         "model.activation = gelu", "patch.mode = pseudo3d",
                         "prompter.scaling = true", "prompter.share_qk = true",
                         "train.precision = f32"]


@pytest.fixture(scope="module")
def ten_phantoms(tmp_path_factory):
    """Ten 16^3 phantoms: enough for ``train`` to split off validation
    cases (7 train, 1 val, 2 test)."""
    root = str(tmp_path_factory.mktemp("ten_phantoms"))
    synthesize_dataset(root, cases=10, seed=5, dims=(16, 16, 16))
    return root


def _with_config_lines(path, out, extra):
    """Copy checkpoint ``path`` to ``out`` with ``extra`` config lines
    merged into its sorted saved configuration."""
    lines = ckpt.load_checkpoint(path)[1]
    with open(path, "rb") as fh:
        raw = fh.read()
    old = "".join(f"{line}\n" for line in [f"config {len(lines)}"] + lines)
    merged = sorted(lines + extra)
    new = "".join(f"{line}\n" for line in [f"config {len(merged)}"] + merged)
    assert raw.count(old.encode()) == 1
    with open(out, "wb") as fh:
        fh.write(raw.replace(old.encode(), new.encode()))


def _source_env():
    """Environment in which a child interpreter imports this checkout's
    voxseg and the tests' conftest."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(train_mod.__file__)))
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join(p for p in (src, here, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


class TestTrainLoop:
    @pytest.mark.parametrize("key,value", [
        ("train.max_steps", "-1"), ("train.batch_size", "0"), ("train.eval_every", "0"),
        ("train.epochs", "-1"), ("train.target_dice", "-0.5"), ("train.target_dice", "nan"),
        ("augment.flip_h", "7"), ("augment.flip_d", "-0.1")])
    def test_refuses_a_loop_setting_out_of_range(self, tiny_dataset, tmp_path, key, value):
        """A loop setting outside its range raises a ConfigError naming the
        key before ``train`` writes anything: the output directory is not
        even made."""
        data_dir, _ = tiny_dataset
        out = tmp_path / "run"
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: "):
            train(tiny_config(**{key: value}), data_dir, str(out))
        assert not out.exists()

    def test_runs_and_logs_history(self, tiny_dataset, tmp_path):
        data_dir, ids = tiny_dataset
        cfg = tiny_config(**{"train.epochs": 2})
        res = train(cfg, data_dir, str(tmp_path / "run"))
        assert len(res.history) == 2
        assert len(res.loss_trace) == 2 * 3  # 6 cases, batch 2
        assert all(np.isfinite(v) for v in res.loss_trace)
        assert os.path.exists(res.last_checkpoint)

    def test_identical_seeds_bit_identical_traces(self, tiny_dataset, tmp_path):
        data_dir, _ = tiny_dataset
        cfg = tiny_config(**{"train.epochs": 3, "augment.flip_h": 0.5,
                             "augment.flip_w": 0.5})
        r1 = train(cfg, data_dir, str(tmp_path / "a"))
        r2 = train(cfg, data_dir, str(tmp_path / "b"))
        assert r1.loss_trace == r2.loss_trace  # bit-identical floats

    def test_different_seed_different_trace(self, tiny_dataset, tmp_path):
        data_dir, _ = tiny_dataset
        r1 = train(tiny_config(**{"train.epochs": 1}), data_dir, str(tmp_path / "a"))
        r2 = train(tiny_config(**{"train.epochs": 1, "train.seed": 5}),
                   data_dir, str(tmp_path / "b"))
        assert r1.loss_trace != r2.loss_trace

    def test_resume_reproduces_uninterrupted_run(self, tiny_dataset, tmp_path):
        data_dir, _ = tiny_dataset
        cfg_full = tiny_config(**{"train.epochs": 4})
        full = train(cfg_full, data_dir, str(tmp_path / "full"))

        cfg_half = tiny_config(**{"train.epochs": 4, "train.max_steps": 6})
        half = train(cfg_half, data_dir, str(tmp_path / "half"))
        resumed = train(cfg_full, data_dir, str(tmp_path / "resumed"),
                        resume=half.last_checkpoint)
        assert half.loss_trace + resumed.loss_trace == full.loss_trace

        # parameters after resume match the uninterrupted run bitwise
        for name, t, _ in full.store.items():
            assert np.array_equal(t.data, resumed.store[name].data), name

    def test_resume_keeps_best_so_far(self, tmp_path, monkeypatch):
        """A run interrupted after its best validation and resumed into the
        same directory leaves the same best.ckpt bytes as the uninterrupted
        run: the first validation after the resume does not replace the
        best model with an equal or worse one."""
        data_dir = str(tmp_path / "data10")
        synthesize_dataset(data_dir, cases=10, seed=11, dims=(16, 16, 16))
        cfg = tiny_config(**{"train.epochs": 2})  # 7 train cases: 4 steps an epoch
        full = train(cfg, data_dir, str(tmp_path / "full"))
        assert [row["val_dice"] for row in full.history] == [0.0, 0.0]  # epoch 0 is best

        calls, train_case = [], train_mod._train_case

        def interrupted(*args, **kwargs):
            calls.append(None)
            if len(calls) == 11:  # first case of step 5, inside epoch 1
                raise NonFiniteError("interrupted")
            return train_case(*args, **kwargs)

        monkeypatch.setattr(train_mod, "_train_case", interrupted)
        out_dir = str(tmp_path / "run")
        half = train(cfg, data_dir, out_dir)
        assert half.aborted and len(half.loss_trace) == 5
        monkeypatch.setattr(train_mod, "_train_case", train_case)
        resumed = train(cfg, data_dir, out_dir, resume=half.last_checkpoint)
        assert half.loss_trace + resumed.loss_trace == full.loss_trace
        assert resumed.best_checkpoint == os.path.join(out_dir, "best.ckpt")
        with open(full.best_checkpoint, "rb") as a, open(resumed.best_checkpoint, "rb") as b:
            assert a.read() == b.read()

    def test_resume_rejects_config_drift(self, tiny_dataset, tmp_path):
        data_dir, _ = tiny_dataset
        half = train(tiny_config(**{"train.epochs": 4, "train.max_steps": 2}),
                     data_dir, str(tmp_path / "half"))
        drifted = tiny_config(**{"train.epochs": 4, "train.lr": 1e-3})
        with pytest.raises(ckpt.CheckpointError) as err:
            train(drifted, data_dir, str(tmp_path / "resumed"),
                  resume=half.last_checkpoint)
        assert err.value.code == "config_mismatch"
        assert "train.lr" in str(err.value)
        assert "train.max_steps" not in str(err.value)

    @pytest.mark.parametrize("edits", [
        [(b"\nprompter.wq 0 ", b"\nprompter.wq 1 "),
         (b"\nencoder.layer01.wq 1 ", b"\nencoder.layer01.wq 0 ")],
        [(b"\nencoder.layer01.wq 1 ", b"\nencoder.layer01.wq 7 ")],
    ], ids=["swapped", "seven"])
    def test_resume_checks_freeze_flags(self, tiny_dataset, tmp_path, edits):
        """A last.ckpt whose freeze flags of a trainable and a frozen entry
        are swapped, or whose flag is 7, does not resume: the flags are
        checked against the model's, never written into it."""
        data_dir, _ = tiny_dataset
        cfg = tiny_config(**{"train.epochs": 4, "train.max_steps": 2})
        half = train(cfg, data_dir, str(tmp_path / "half"))
        with open(half.last_checkpoint, "rb") as fh:
            raw = fh.read()
        for old, new in edits:
            assert raw.count(old) == 1
            raw = raw.replace(old, new)
        path = tmp_path / "edited.ckpt"
        path.write_bytes(raw)
        with pytest.raises(ckpt.CheckpointError) as err:
            train(cfg, data_dir, str(tmp_path / "resumed"), resume=str(path))
        assert err.value.code == "bad_header"
        assert "encoder.layer01.wq" in str(err.value)

    def test_resume_refuses_a_checkpoint_without_moments(self, tiny_dataset, tmp_path):
        """A checkpoint saved without optimizer moments does not resume:
        fresh moments would not reproduce the uninterrupted run."""
        data_dir, _ = tiny_dataset
        cfg = tiny_config(**{"train.epochs": 4, "train.max_steps": 2})
        half = train(cfg, data_dir, str(tmp_path / "half"))
        path = str(tmp_path / "no_moments.ckpt")
        ckpt.save_checkpoint(path, half.store, None, step=2, config_lines=cfg.resolved_lines())
        with pytest.raises(ckpt.CheckpointError) as err:
            train(cfg, data_dir, str(tmp_path / "resumed"), resume=path)
        assert err.value.code == "no_moments"

    def test_resume_names_entries_the_store_lacks(self, tiny_dataset, tmp_path):
        """A checkpoint with an entry the model no longer has (decoder conv
        blocks once carried conv biases) fails to resume with an error that
        names it, yet still evaluates: the forward reads only what it needs."""
        data_dir, ids = tiny_dataset
        cfg = tiny_config()
        spec = model_spec_from_config(cfg)
        with ad.precision("f32"):
            store = mdl.init_store(spec, 0)
            old = ParameterStore()
            for name, t, frozen in store.items():
                old.add(name, t, frozen=frozen)
                if name == "decoder.head.conv1_w":
                    old.add("decoder.head.conv1_b", ad.tensor(np.zeros(8)))
        path = str(tmp_path / "old.ckpt")
        ckpt.save_checkpoint(path, old, None, config_lines=cfg.resolved_lines())
        with pytest.raises(ckpt.CheckpointError) as err:
            train(cfg, data_dir, str(tmp_path / "resumed"), resume=path)
        assert err.value.code == "bad_header"
        assert "decoder.head.conv1_b" in str(err.value)

        entries = ckpt.load_checkpoint(path)[2]
        vol, _ = load_case(data_dir, ids[0])
        with ad.no_grad():
            prob = mdl.forward(spec, ckpt.store_from_entries(entries), vol).numpy()
        assert prob.shape == (16, 16, 16) and np.isfinite(prob).all()

    def test_divergence_aborts_with_last_good_checkpoint(self, tiny_dataset, tmp_path,
                                                          caplog):
        data_dir, _ = tiny_dataset
        cfg = tiny_config(**{"train.lr": 1e6})
        with caplog.at_level(logging.ERROR, logger=train_mod.__name__), \
                np.errstate(all="ignore"):
            res = train(cfg, data_dir, str(tmp_path / "run"))
        assert res.aborted
        assert all(t.grad is None for _, t in res.store.trainable())
        # the abort names the op that made the non-finite value and its
        # module: a norm whose finite input's squares overflow its variance
        [record] = [r for r in caplog.records if "diverged" in r.getMessage()]
        assert re.search(r"\(decoder\.[\w.]+/(\S+/)?instance_norm: non-finite variance\)",
                         record.getMessage()), record.getMessage()
        assert res.last_checkpoint == str(tmp_path / "run" / "last.ckpt")
        _, _, entries, _ = ckpt.load_checkpoint(res.last_checkpoint)
        assert [name for name, _, _ in entries] == res.store.names()
        for name, _, arr in entries:
            assert np.array_equal(arr, res.store[name].data), name

        cfg_path = tmp_path / "diverge.cfg"
        cfg_path.write_text("\n".join(cfg.resolved_lines()) + "\n")
        with np.errstate(all="ignore"):
            code = cli_main(["train", "--config", str(cfg_path), "--data", data_dir,
                             "--out", str(tmp_path / "cli")])
        assert code == 1
        assert os.path.exists(tmp_path / "cli" / "last.ckpt")

    def test_nan_lr_refused_before_any_checkpoint(self, tiny_dataset, tmp_path, caplog):
        """``train.lr = nan`` is refused when the optimizer is built, so no
        checkpoint of non-finite parameters is written; the CLI exits 1."""
        data_dir, _ = tiny_dataset
        with pytest.raises(ValueError, match="lr must be finite"):
            train(tiny_config(**{"train.lr": "nan"}), data_dir, str(tmp_path / "run"))
        assert not list((tmp_path / "run").glob("*.ckpt"))
        with caplog.at_level(logging.ERROR):
            assert cli_main(["train", "--set", "train.lr=nan", "--data", data_dir,
                             "--out", str(tmp_path / "cli")]) == 1
        assert "lr must be finite" in caplog.text
        assert not list((tmp_path / "cli").glob("*.ckpt"))

    def test_returned_store_holds_no_gradients(self, tiny_dataset, tmp_path):
        data_dir, _ = tiny_dataset
        res = train(tiny_config(**{"train.max_steps": 2}), data_dir, str(tmp_path / "run"))
        assert len(res.loss_trace) == 2
        assert all(t.grad is None for _, t in res.store.trainable())

    def test_checkpoint_with_removed_switches_evaluates_and_resumes(
            self, tiny_dataset, tmp_path, caplog):
        """Removed switches saved at the values the model kept are dropped
        on eval and resume, a number in any spelling of its value; a
        checkpoint that set one otherwise is refused with the switch named."""
        data_dir, _ = tiny_dataset
        half = train(tiny_config(**{"train.max_steps": 2}), data_dir, str(tmp_path / "half"))
        old = str(tmp_path / "old.ckpt")
        _with_config_lines(half.last_checkpoint, old, _REMOVED_SWITCH_LINES)
        assert cli_main(["eval", "--checkpoint", old, "--data", data_dir]) == 0
        resumed = train(tiny_config(), data_dir, str(tmp_path / "resumed"), resume=old)
        full = train(tiny_config(), data_dir, str(tmp_path / "full"))
        assert half.loss_trace + resumed.loss_trace == full.loss_trace

        bad = str(tmp_path / "bad.ckpt")
        _with_config_lines(half.last_checkpoint, bad, ["prompter.share_qk = false"])
        with caplog.at_level(logging.ERROR):
            assert cli_main(["eval", "--checkpoint", bad, "--data", data_dir]) == 1
        assert "prompter.share_qk was removed" in caplog.text
        with pytest.raises(ckpt.CheckpointError, match=r"prompter\.share_qk was removed") as err:
            train(tiny_config(), data_dir, str(tmp_path / "refused"), resume=bad)
        assert err.value.code == "config_mismatch"

        saved = ckpt.load_checkpoint(half.last_checkpoint)[1]
        assert Config.from_lines(saved + ["encoder.scale = 1"]).values == \
            Config.from_lines(saved).values
        for line in ["encoder.scale = 0.5", "data.channels = 2", "train.precision = f64"]:
            key = line.split(" = ")[0]
            with pytest.raises(ConfigError, match=rf"{re.escape(key)} was removed"):
                Config.from_lines(saved + [line])

    def test_train_leaves_the_default_dtype_alone(self, tiny_dataset, tmp_path):
        """``train`` runs at the process default dtype and leaves it as it
        found it: inside ``ad.precision("f64")`` it trains in f64, and the
        default is still f64 when it returns."""
        data_dir, _ = tiny_dataset
        with ad.precision("f64"):
            res = train(tiny_config(**{"train.max_steps": 2}), data_dir, str(tmp_path / "run"))
            assert ad.default_dtype() == np.float64
        assert len(res.loss_trace) == 2
        assert {t.dtype for _, t, _ in res.store.items()} == {np.dtype(np.float64)}

    def test_case_graph_dies_before_next_forward(self, tiny_dataset, tmp_path, monkeypatch):
        """When a case's forward begins, no earlier case's output is alive,
        in the same step or from the step before."""
        data_dir, _ = tiny_dataset
        outputs, alive = [], []
        forward = mdl.forward

        def tracked(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in outputs))
            prob = forward(*args, **kwargs)
            outputs.append(weakref.ref(prob))
            return prob

        monkeypatch.setattr(mdl, "forward", tracked)
        train(tiny_config(**{"train.max_steps": 2}), data_dir, str(tmp_path / "run"))
        assert alive == [0, 0, 0, 0]  # 2 steps of batch 2

    def test_peak_memory_does_not_grow_with_batch(self, tiny_dataset, tmp_path):
        data_dir, _ = tiny_dataset
        peaks = {}
        for batch in (2, 4):
            cfg = tiny_config(**{"train.batch_size": batch, "train.max_steps": 1})
            tracemalloc.start()
            try:
                train(cfg, data_dir, str(tmp_path / f"batch{batch}"))
                peaks[batch] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4] <= 1.1 * peaks[2], peaks

    def test_flip_augmentation_deterministic(self):
        a = _flip_axes(seed=3, step=10, slot=0, probs=(0.5, 0.5, 0.5))
        b = _flip_axes(seed=3, step=10, slot=0, probs=(0.5, 0.5, 0.5))
        assert a == b
        all_axes = {_flip_axes(3, s, 0, (1.0, 1.0, 1.0)) for s in range(4)}
        assert all_axes == {(0, 1, 2)}
        none = {_flip_axes(3, s, 0, (0.0, 0.0, 0.0)) for s in range(4)}
        assert none == {()}

    def test_early_stop_on_target_dice(self, tiny_dataset, tmp_path):
        data_dir, _ = tiny_dataset
        cfg = tiny_config(**{"train.epochs": 60, "train.target_dice": "0.05"})
        res = train(cfg, data_dir, str(tmp_path / "run"))
        assert res.stopped_early_at is not None
        assert len(res.history) < 60

    def test_eval_every_validates_on_its_epochs_and_the_last(self, ten_phantoms, tmp_path):
        """With ``train.eval_every = 2`` over 4 epochs, validation runs at
        epochs 0 and 2 and at the last, 3; epoch 1 records no val_dice."""
        cfg = tiny_config(**{"train.epochs": 4, "train.eval_every": 2})
        res = train(cfg, ten_phantoms, str(tmp_path / "run"))
        assert [row["epoch"] for row in res.history] == [0, 1, 2, 3]
        validated = [row["epoch"] for row in res.history if row["val_dice"] is not None]
        assert validated == [0, 2, 3]
        assert res.history[1]["val_dice"] is None and res.history[1]["val_nsd"] is None

    def test_every_config_key_is_read(self, ten_phantoms, tmp_path, monkeypatch):
        """Building the spec and one training step read every key of
        ``DEFAULTS``: a key no code reads is a dead option."""
        read = set()
        raw = Config.raw

        def spied(cfg, key):
            read.add(key)
            return raw(cfg, key)

        monkeypatch.setattr(Config, "raw", spied)
        cfg = tiny_config(**{"train.max_steps": 1})
        model_spec_from_config(cfg)
        train(cfg, ten_phantoms, str(tmp_path / "run"))
        assert sorted(set(DEFAULTS) - read) == []

    def test_large_split_path_holds_out_val(self, tmp_path):
        data_dir = str(tmp_path / "data10")
        synthesize_dataset(data_dir, cases=10, seed=3, dims=(16, 16, 16))
        cfg = tiny_config(**{"train.epochs": 1})
        res = train(cfg, data_dir, str(tmp_path / "run"))
        assert res.history[-1]["val_dice"] is not None
        assert os.path.exists(res.best_checkpoint)


class TestEval:
    def test_evaluate_cases_report(self, tiny_dataset, tmp_path):
        data_dir, ids = tiny_dataset
        cfg = tiny_config(**{"train.epochs": 1})
        res = train(cfg, data_dir, str(tmp_path / "run"))
        reports = evaluate_cases(res.spec, res.store, data_dir, ids[:2])
        assert len(reports) == 2
        for cid, rep in reports:
            assert 0 <= rep.dice <= 1 and 0 <= rep.nsd <= 1 and rep.tau == 1.0

    def test_nsd_tolerance_is_in_millimetres_of_the_header_spacing(self, tmp_path, monkeypatch):
        """``evaluate_cases`` scores NSD at each volume's header spacing: a
        prediction one voxel off along H lies within tau = 1.5 at unit
        spacing, but not everywhere where that voxel is 2 mm deep."""
        vol, mask = generate_phantom(3, dims=(16, 16, 16))
        vol.spacing = (2.0, 1.0, 1.0)
        write_case(str(tmp_path), "case_000", vol, mask)
        shifted = np.roll(mask.data, 1, axis=0).astype(np.float32)
        monkeypatch.setattr(mdl, "forward", lambda spec, store, volume: ad.tensor(shifted))
        [(_, rep)] = evaluate_cases(None, None, str(tmp_path), ["case_000"], tau=1.5)
        assert rep.nsd == mx.nsd(shifted, mask.data, 1.5, vol.spacing)
        assert rep.nsd < mx.nsd(shifted, mask.data, 1.5) == 1.0

    def test_runtime_never_imports_scipy(self, tmp_path):
        code = (
            "import sys\n"
            "import voxseg, voxseg.cli\n"
            "from voxseg import model, train\n"
            "from voxseg.config import model_spec_from_config\n"
            "from conftest import tiny_config\n"
            "ids = train.synthesize_dataset(sys.argv[1], cases=1, seed=5, dims=(16, 16, 16))\n"
            "spec = model_spec_from_config(tiny_config())\n"
            "reports = train.evaluate_cases(spec, model.init_store(spec, 0), sys.argv[1], ids)\n"
            "assert len(reports) == 1, reports\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=_source_env(),
                             capture_output=True, text=True, timeout=120, check=True)
        assert out.stdout.strip() == "[]"


class TestCLI:
    def test_synth_train_eval_pipeline(self, tmp_path, capsys):
        data = str(tmp_path / "data")
        out = str(tmp_path / "out")
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(
            "\n".join(
                line for line in tiny_config(**{"train.epochs": 1}).resolved_lines()
            )
            + "\n"
        )
        assert cli_main(["synth", "--cases", "4", "--seed", "3", "--out", data,
                         "--dims", "16,16,16"]) == 0
        assert cli_main(["train", "--config", str(cfg_path), "--data", data,
                         "--out", out]) == 0
        captured = capsys.readouterr().out
        assert "# resolved configuration" in captured
        assert "model.embed_dim = 16" in captured

        assert cli_main(["eval", "--checkpoint", os.path.join(out, "last.ckpt"),
                         "--data", data]) == 0
        lines = [
            l for l in capsys.readouterr().out.splitlines()
            if l.startswith("case_")
        ]
        assert len(lines) == 4
        parts = lines[0].split("\t")
        assert len(parts) == 4  # case_id, dice, nsd, tau
        float(parts[1]), float(parts[2]), float(parts[3])

    def test_eval_emit_csv(self, tmp_path):
        data = str(tmp_path / "data")
        out = str(tmp_path / "out")
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text("\n".join(tiny_config().resolved_lines()) + "\n")
        cli_main(["synth", "--cases", "3", "--seed", "1", "--out", data,
                  "--dims", "16,16,16"])
        cli_main(["train", "--config", str(cfg_path), "--data", data, "--out", out])
        csv_path = str(tmp_path / "report.csv")
        assert cli_main(["eval", "--checkpoint", os.path.join(out, "last.ckpt"),
                         "--data", data, "--emit-csv", csv_path]) == 0
        rows = open(csv_path).read().strip().splitlines()
        assert rows[0] == "case_id,dice,nsd,tau"
        assert len(rows) == 4

    def test_flops_table(self, capsys):
        assert cli_main(["flops"]) == 0
        assert "total" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            cli_main(["flops", "--prompter", "dual-shared"])
        assert exc.value.code == 2

    def test_python_dash_m_help_exits_0(self):
        out = subprocess.run([sys.executable, "-m", "voxseg", "--help"], env=_source_env(),
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert "gradcheck" not in out.stdout

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli_main(["flops", "--bogus"])
        assert exc.value.code == 2

    def test_malformed_set_exits_2(self, capsys):
        """A --set item without "=" is a usage error: exit 2 with the usage
        message; a well-formed one overrides its key."""
        with pytest.raises(SystemExit) as exc:
            cli_main(["flops", "--set", "foo"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: voxseg flops") and "expects key=value, got 'foo'" in err
        assert cli_main(["flops", "--set", " decoder.channels = 8"]) == 0
        assert "decoder.channels = 8" in capsys.readouterr().out

    def test_set_refuses_a_removed_switch_by_name(self, tmp_path, caplog):
        """``train --set`` of a removed switch at any value but the kept one
        exits 1 with the switch named, before any training."""
        for item in ["patch.mode=true3d", "decoder.share_image_branch=true"]:
            key = item.split("=")[0]
            caplog.clear()
            with caplog.at_level(logging.ERROR):
                assert cli_main(["train", "--set", item, "--data", str(tmp_path),
                                 "--out", str(tmp_path / "run")]) == 1
            assert f"ConfigError: {key} was removed" in caplog.text
        assert not os.path.exists(tmp_path / "run")

    def test_runtime_failure_exits_1(self, tmp_path):
        assert cli_main(["eval", "--checkpoint", str(tmp_path / "missing.ckpt"),
                         "--data", str(tmp_path)]) == 1

    def test_gradcheck_subcommand_quick(self):
        """The gradient-check suite runs as a test script, one instance a
        case, and ``voxseg gradcheck`` is a usage error."""
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "gradcheck_suite.py")
        out = subprocess.run([sys.executable, script, "--instances", "1"], env=_source_env(),
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        assert "cases passed" in out.stdout
        with pytest.raises(SystemExit) as exc:
            cli_main(["gradcheck"])
        assert exc.value.code == 2
