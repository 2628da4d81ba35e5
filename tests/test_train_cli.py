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
from voxseg.config import Config, model_spec_from_config
from voxseg.train import (
    _flip_axes,
    evaluate_cases,
    list_cases,
    load_case,
    synthesize_dataset,
    train,
)

from conftest import tiny_config


# what a checkpoint written before four switches were removed carries
# for them: the values the model kept
_REMOVED_SWITCH_LINES = ["flops.mac = 2", "model.activation = gelu",
                         "prompter.scaling = true", "prompter.share_qk = true"]


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

    def test_resume_names_entries_the_store_lacks(self, tiny_dataset, tmp_path):
        """A checkpoint with an entry the model no longer has (decoder conv
        blocks once carried conv biases) fails to resume with an error that
        names it, yet still evaluates: the forward reads only what it needs."""
        data_dir, ids = tiny_dataset
        cfg = tiny_config()
        spec = model_spec_from_config(cfg)
        with ad.precision(cfg.get_str("train.precision")):
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
        with caplog.at_level(logging.ERROR, logger=train_mod.__name__):
            res = train(cfg, data_dir, str(tmp_path / "run"))
        assert res.aborted
        assert all(t.grad is None for _, t in res.store.trainable())
        # the abort names the op that made the non-finite value and its module
        [record] = [r for r in caplog.records if "diverged" in r.getMessage()]
        assert re.search(r"\(decoder\.[\w.]+/(\S+/)?conv3d: non-finite output\)",
                         record.getMessage()), record.getMessage()
        assert res.last_checkpoint == str(tmp_path / "run" / "last.ckpt")
        _, _, entries, _ = ckpt.load_checkpoint(res.last_checkpoint)
        assert [name for name, _, _ in entries] == res.store.names()
        for name, _, arr in entries:
            assert np.array_equal(arr, res.store[name].data), name

        cfg_path = tmp_path / "diverge.cfg"
        cfg_path.write_text("\n".join(cfg.resolved_lines()) + "\n")
        assert cli_main(["train", "--config", str(cfg_path), "--data", data_dir,
                         "--out", str(tmp_path / "cli")]) == 1
        assert os.path.exists(tmp_path / "cli" / "last.ckpt")

    def test_returned_store_holds_no_gradients(self, tiny_dataset, tmp_path):
        data_dir, _ = tiny_dataset
        res = train(tiny_config(**{"train.max_steps": 2}), data_dir, str(tmp_path / "run"))
        assert len(res.loss_trace) == 2
        assert all(t.grad is None for _, t in res.store.trainable())

    def test_checkpoint_with_removed_switches_evaluates_and_resumes(
            self, tiny_dataset, tmp_path, caplog):
        """Removed switches saved at the values the model kept are dropped
        on eval and resume; a checkpoint that set one otherwise is refused
        with the switch named."""
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
        assert "gradcheck" in out.stdout

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli_main(["flops", "--bogus"])
        assert exc.value.code == 2

    def test_runtime_failure_exits_1(self, tmp_path):
        assert cli_main(["eval", "--checkpoint", str(tmp_path / "missing.ckpt"),
                         "--data", str(tmp_path)]) == 1

    def test_gradcheck_subcommand_quick(self, capsys):
        assert cli_main(["gradcheck", "--instances", "1"]) == 0
        assert "cases passed" in capsys.readouterr().out
