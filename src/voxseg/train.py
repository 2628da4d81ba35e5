"""Deterministic training and evaluation.

All per-step randomness (epoch shuffles, flip augmentation) is derived
statelessly from (seed, epoch/step) seed sequences, so a run is a pure
function of its configuration and checkpoint resume reproduces the
uninterrupted run bit-for-bit at a fixed thread count. That includes
best.ckpt: a run resumed into a directory that holds one re-scores it
on the validation split, and replaces it only with a better model.

A step runs its cases one at a time: each case's forward, loss and
backward (its loss scaled by 1/batch) finish, and its graph is freed,
before the next case starts; the gradients accumulate on the leaves and
the optimizer steps once. At most one case's graph is alive, so peak
memory does not grow with the batch size.

Dataset layout: a directory of DEAPVOL1 pairs
    <case_id>.img.dvol   (f32 volume)
    <case_id>.msk.dvol   (u8 mask)
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import checkpoint as ckpt
from . import metrics as mx
from . import model as mdl
from .config import Config, ConfigError, model_spec_from_config
from .objectives import LossConfig, combined_loss
from .optim import AdamW, AdamWConfig
from .volume_io import (
    Mask,
    Volume,
    generate_phantom,
    read_mask,
    read_volume,
    split_dataset,
    write_mask,
    write_volume,
)

log = logging.getLogger(__name__)

_IMG_SUFFIX = ".img.dvol"
_MSK_SUFFIX = ".msk.dvol"

# the only config keys a resumed run may set differently from its checkpoint
_RESUME_MAY_CHANGE = ("train.epochs", "train.max_steps", "train.eval_every")


# ---------------------------------------------------------------------------
# dataset directory plumbing
# ---------------------------------------------------------------------------


def case_paths(data_dir, case_id):
    return (
        os.path.join(data_dir, case_id + _IMG_SUFFIX),
        os.path.join(data_dir, case_id + _MSK_SUFFIX),
    )


def write_case(data_dir, case_id, volume: Volume, mask: Mask):
    img, msk = case_paths(data_dir, case_id)
    write_volume(volume, img)
    write_mask(mask, msk, spacing=volume.spacing)


def list_cases(data_dir):
    ids = sorted(
        f[: -len(_IMG_SUFFIX)]
        for f in os.listdir(data_dir)
        if f.endswith(_IMG_SUFFIX)
    )
    if not ids:
        raise FileNotFoundError(f"no {_IMG_SUFFIX} cases under {data_dir}")
    return ids


def load_case(data_dir, case_id):
    img, msk = case_paths(data_dir, case_id)
    return read_volume(img), read_mask(msk)


def synthesize_dataset(data_dir, cases, seed, dims=(32, 32, 32), lesions=1,
                       noise_sd=0.02):
    """Emit a deterministic phantom dataset; returns the case ids."""
    os.makedirs(data_dir, exist_ok=True)
    ids = []
    for i in range(cases):
        case_id = f"case_{i:03d}"
        vol, mask = generate_phantom(
            int(np.random.SeedSequence([int(seed), i]).generate_state(1)[0]),
            dims=dims,
            lesion_count=lesions,
            noise_sd=noise_sd,
        )
        write_case(data_dir, case_id, vol, mask)
        ids.append(case_id)
    return ids


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    """What one ``train()`` call produced.

    After a resume, ``history`` and ``loss_trace`` hold only the steps of
    this call, not those before the checkpoint it resumed from. ``store``
    carries no gradients.
    """

    spec: mdl.ModelSpec
    store: object
    history: list = field(default_factory=list)
    loss_trace: list = field(default_factory=list)
    last_checkpoint: str | None = None
    best_checkpoint: str | None = None
    aborted: bool = False
    stopped_early_at: int | None = None  # epoch where target train DICE was hit


def _epoch_order(train_ids, seed, epoch):
    rng = np.random.default_rng(np.random.SeedSequence([0xE90C, int(seed), int(epoch)]))
    ids = sorted(train_ids)
    return [ids[i] for i in rng.permutation(len(ids))]


def _flip_axes(seed, step, slot, probs):
    rng = np.random.default_rng(np.random.SeedSequence([0xF11B, int(seed), int(step), int(slot)]))
    draws = rng.random(3)
    return tuple(axis for axis in range(3) if draws[axis] < probs[axis])


def _apply_flips(vol_data, mask_data, axes):
    if not axes:
        return vol_data, mask_data
    return (
        np.ascontiguousarray(np.flip(vol_data, axis=axes)),
        np.ascontiguousarray(np.flip(mask_data, axis=axes)),
    )


def _adamw_config(cfg: Config):
    return AdamWConfig(
        lr=cfg.get_float("train.lr"),
        beta1=cfg.get_float("train.beta1"),
        beta2=cfg.get_float("train.beta2"),
        eps=cfg.get_float("train.eps"),
        weight_decay=cfg.get_float("train.weight_decay"),
    )


def _loop_settings(cfg: Config):
    """The loop settings listed below, in order (ints where no upper bound
    is given), each in its range: else ``ConfigError`` names the key."""
    values = []
    for key, lo, hi in (("train.batch_size", 1, None), ("train.epochs", 0, None),
                        ("train.max_steps", 0, None), ("train.eval_every", 1, None),
                        ("train.target_dice", 0, 1), ("augment.flip_h", 0, 1),
                        ("augment.flip_w", 0, 1), ("augment.flip_d", 0, 1)):
        v = cfg.get_int(key) if hi is None else cfg.get_float(key)
        if not (lo <= v and (hi is None or v <= hi)):  # a NaN too
            need = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise ConfigError(f"{key}: need a value {need}, got {cfg.raw(key)!r}")
        values.append(v)
    return values


def evaluate_cases(spec, store, data_dir, case_ids, tau=1.0):
    """Forward each case without grads; returns [(case_id, MetricReport)].
    NSD's ``tau`` is in millimetres of each volume's header spacing."""
    out = []
    with ad.no_grad():
        for cid in case_ids:
            vol, mask = load_case(data_dir, cid)
            prob = mdl.forward(spec, store, vol)
            out.append((cid, mx.evaluate_case(prob.numpy(), mask.data, tau=tau,
                                              spacing=vol.spacing)))
    return out


def _check_resume_config(path, saved_lines, cfg: Config):
    """Refuse to resume under a config that differs outside the allowlist.

    The saved lines are read as a config file is, so a removed switch at
    the value the model kept is dropped, and any other value is refused.
    """
    try:
        saved = Config.from_lines(saved_lines, source=path).values
    except ConfigError as exc:
        raise ckpt.CheckpointError("config_mismatch", str(exc)) from None
    drift = [
        f"{key} ({saved[key]} -> {cfg.values[key]})"
        for key in sorted(saved)
        if saved[key] != cfg.values[key] and key not in _RESUME_MAY_CHANGE
    ]
    if drift:
        raise ckpt.CheckpointError(
            "config_mismatch",
            f"{path}: config differs from the checkpoint's in {', '.join(drift)}",
        )


def _train_case(spec, store, vdata, mdata, loss_cfg, weight):
    """Forward, loss and backward of one case; returns (loss, dice).

    The case's gradient, scaled by ``weight``, accumulates into the leaf
    ``.grad`` buffers. Its graph dies when this returns, so no more than
    one case's graph is alive at any time. A non-finite loss raises
    ``NonFiniteError`` inside ``combined_loss``.
    """
    prob = mdl.forward(spec, store, vdata)
    loss = combined_loss(prob, mdata, loss_cfg)
    value = loss.item()
    dice = mx.dice_score(mx.threshold_probabilities(prob.numpy()), mdata)
    ad.backward(loss, weight=weight)
    return value, dice


def train(cfg: Config, data_dir, out_dir, resume=None, quiet=True) -> TrainResult:
    """Train per config on a dataset directory; checkpoints into out_dir.
    The run is at the process default dtype, f32 unless the caller is in
    an ``ad.precision`` block, and leaves that default as it found it.

    ``resume`` continues from a checkpoint such as a run's ``last.ckpt``
    and reproduces the uninterrupted run. It raises ``CheckpointError``
    when the saved config differs outside ``_RESUME_MAY_CHANGE``
    (``config_mismatch``), when the parameter names, shapes or freeze
    flags differ from the model's (``bad_header``), and when the file
    holds no optimizer moments (``no_moments``): fresh moments would give
    a different run. A loop setting out of range raises ``ConfigError``
    before anything is written to out_dir.
    """
    batch, epochs, max_steps, eval_every, target_dice, *flip_probs = _loop_settings(cfg)
    os.makedirs(out_dir, exist_ok=True)
    spec = model_spec_from_config(cfg)
    seed = cfg.get_int("train.seed")
    loss_cfg = LossConfig(smooth=cfg.get_float("loss.smooth"))
    tau = cfg.get_float("eval.tau")

    case_ids = list_cases(data_dir)
    ratios = (
        cfg.get_float("split.train"),
        cfg.get_float("split.val"),
        cfg.get_float("split.test"),
    )
    if len(case_ids) >= 10:
        split = split_dataset(case_ids, ratios, seed=cfg.get_int("split.seed"))
        train_ids, val_ids = split.train, split.val
    else:
        # desk-scale overfit runs: every case trains, none held out
        train_ids, val_ids = case_ids, []

    store = mdl.init_store(spec, seed)
    optimizer = AdamW(store, _adamw_config(cfg))
    if resume is not None:
        step0, saved_lines, entries, moments = ckpt.load_checkpoint(resume)
        _check_resume_config(resume, saved_lines, cfg)
        ckpt.restore_into(store, entries)
        if not moments:
            raise ckpt.CheckpointError("no_moments",
                                       f"{resume} holds no optimizer moments to resume from")
        optimizer.load_state({"step": step0,
                              "m": {n: m for n, (m, _) in moments.items()},
                              "v": {n: v for n, (_, v) in moments.items()}})

    cache = {cid: load_case(data_dir, cid) for cid in train_ids}
    steps_per_epoch = max(1, math.ceil(len(train_ids) / batch))

    result = TrainResult(spec=spec, store=store)
    last_path = os.path.join(out_dir, "last.ckpt")
    best_path = os.path.join(out_dir, "best.ckpt")
    best_val = -1.0
    if resume is not None and val_ids and os.path.exists(best_path):
        # the best-so-far of the interrupted run: re-scored, so the first
        # validation after the resume only replaces it with a better model
        best_store = mdl.init_store(spec, seed)
        ckpt.restore_into(best_store, ckpt.load_checkpoint(best_path)[2])
        reports = evaluate_cases(spec, best_store, data_dir, val_ids, tau=tau)
        best_val = float(np.mean([r.dice for _, r in reports]))
        result.best_checkpoint = best_path
    config_lines = cfg.resolved_lines()

    def save(path):
        ckpt.save_checkpoint(path, store, optimizer, config_lines=config_lines)

    global_step = optimizer.step_count
    start_epoch = global_step // steps_per_epoch
    done = False
    for epoch in range(start_epoch, epochs):
        order = _epoch_order(train_ids, seed, epoch)
        start_batch = (
            global_step % steps_per_epoch if epoch == start_epoch else 0
        )
        epoch_losses, epoch_dices = [], []
        for bi in range(start_batch, steps_per_epoch):
            ids = order[bi * batch : (bi + 1) * batch]
            store.zero_grad()
            # Every way a step can diverge ends here, before the optimizer has
            # touched the parameters, so last.ckpt keeps the last good state.
            try:
                case_values = []
                for slot, cid in enumerate(ids):
                    vol, mask = cache[cid]
                    axes = _flip_axes(seed, global_step, slot, flip_probs)
                    vdata, mdata = _apply_flips(vol.data, mask.data, axes)
                    value, dice = _train_case(spec, store, vdata, mdata, loss_cfg,
                                              1.0 / len(ids))
                    case_values.append(value)
                    epoch_dices.append(dice)
                loss_value = float(np.mean(np.asarray(case_values, dtype=ad.default_dtype())))
                if not optimizer.step():
                    raise ad.NonFiniteError("non-finite gradient")
            except ad.NonFiniteError as exc:
                log.error("step %d diverged (%s); aborting with the last good checkpoint",
                          global_step, exc)
                save(last_path)
                store.zero_grad()
                result.aborted = True
                result.last_checkpoint = last_path
                return result
            global_step = optimizer.step_count
            result.loss_trace.append(loss_value)
            epoch_losses.append(loss_value)
            if max_steps and global_step >= max_steps:
                done = True
                break

        row = {
            "epoch": epoch,
            "train_loss": float(np.mean(epoch_losses)) if epoch_losses else float("nan"),
            "train_dice": float(np.mean(epoch_dices)) if epoch_dices else float("nan"),
            "val_dice": None,
            "val_nsd": None,
        }
        if val_ids and (epoch % eval_every == 0 or epoch == epochs - 1):
            reports = evaluate_cases(spec, store, data_dir, val_ids, tau=tau)
            row["val_dice"] = float(np.mean([r.dice for _, r in reports]))
            row["val_nsd"] = float(np.mean([r.nsd for _, r in reports]))
            if row["val_dice"] > best_val:
                best_val = row["val_dice"]
                save(best_path)
                result.best_checkpoint = best_path
        result.history.append(row)
        if not quiet:
            log.info(
                "epoch %3d loss %.4f train_dice %.4f val_dice %s",
                epoch, row["train_loss"], row["train_dice"],
                "-" if row["val_dice"] is None else f"{row['val_dice']:.4f}",
            )
        if target_dice and row["train_dice"] >= target_dice:
            result.stopped_early_at = epoch
            done = True
        if done:
            break

    save(last_path)
    store.zero_grad()
    result.last_checkpoint = last_path
    if result.best_checkpoint is None:
        result.best_checkpoint = last_path
    return result

