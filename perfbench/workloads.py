"""The benchmark's workloads, their output checks, and the worker process.

Each workload is a closed loop with one caller that drives voxseg only
through its public functions. ``run_workload`` sets it up, measures it,
checks what it computed, and returns the result payload. Run as a
script, this module is the worker process that ``run.py`` starts once
per set-up sample; it prints ``READY`` when set-up is done and the
payload as its last line.

Why these workloads:
  train_desk  the configuration the reproduction trains (32^3, 512
              tokens, C=64, 12 layers, batch 2). Encoder forward,
              backward, conv3d and the retained graph dominate.
  infer_desk  no-grad evaluation of a checkpoint on the same
              architecture: no graph, no backward, no optimizer, so a
              change to those alone must leave it unchanged.
  train_tiny  the whole train() lifecycle (validation each epoch,
              best/last checkpoints) on the tests' tiny model, where
              per-op Python overhead, the optimizer, checkpoint writes
              and volume reads outweigh BLAS.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import sys
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from voxseg import autodiff as ad
from voxseg import checkpoint, costs, metrics, model, optim, train
from voxseg.autodiff import ParameterStore
from voxseg.config import Config, model_spec_from_config
from voxseg.objectives import LossConfig
from voxseg.volume_io import split_dataset

import tracer as tracing

READY = "PERFBENCH_READY"
RESULT = "PERFBENCH_RESULT "

# f32 results of two evaluation orders of the same sum agree to a few ulps
LOSS_RTOL = 1e-6

TINY_OVERRIDES = {
    "data.dims": "16,16,16",
    "model.embed_dim": "16",
    "encoder.heads": "2",
    "encoder.adapter_dim": "4",
    "prompter.n": "16",
    "decoder.channels": "8",
    "train.epochs": "2",
    "train.batch_size": "2",
}


@dataclass
class Tally:
    """Attempted and failed operations and output checks."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


class Probe:
    """Per-step and per-volume hooks kept on in every run.

    A training step runs from ``ParameterStore.zero_grad`` to the return
    of ``AdamW.step``. While ``capturing`` is set, the inputs of the
    first step's forward and loss calls are kept for the first-step
    check; the probabilities handed to ``metrics.evaluate_case`` are kept
    for the inference checks.
    """

    def __init__(self):
        self.step_seconds = []
        self.capturing = False
        self.first_volumes = []
        self.first_masks = []
        self.last_prob = None
        self._step_start = None

    @contextlib.contextmanager
    def install(self):
        with contextlib.ExitStack() as stack:
            for owner, attr, make_wrapper in (
                    (ParameterStore, "zero_grad", self._on_zero_grad),
                    (optim.AdamW, "step", self._on_step),
                    (model, "forward", self._on_forward),
                    (train, "combined_loss", self._on_loss),
                    (metrics, "evaluate_case", self._on_evaluate)):
                stack.enter_context(tracing.patched(owner, attr, make_wrapper))
            yield self

    def _on_zero_grad(self, fn):
        def zero_grad(store):
            self._step_start = time.perf_counter()
            return fn(store)
        return zero_grad

    def _on_step(self, fn):
        def step(opt):
            ok = fn(opt)
            if self._step_start is not None:
                self.step_seconds.append(time.perf_counter() - self._step_start)
                self._step_start = None
            self.capturing = False
            return ok
        return step

    def _on_forward(self, fn):
        def forward(spec, store, volume, *args, **kwargs):
            if self.capturing:
                self.first_volumes.append(np.array(getattr(volume, "data", volume)))
            return fn(spec, store, volume, *args, **kwargs)
        return forward

    def _on_loss(self, fn):
        def combined_loss(pred, gt, *args, **kwargs):
            if self.capturing:
                self.first_masks.append(np.array(gt))
            return fn(pred, gt, *args, **kwargs)
        return combined_loss

    def _on_evaluate(self, fn):
        def evaluate_case(prob, gt_mask, *args, **kwargs):
            self.last_prob = prob
            return fn(prob, gt_mask, *args, **kwargs)
        return evaluate_case


@dataclass
class Phase:
    """One measured stretch: wall time of the timed calls and their samples."""

    wall: float
    items: int
    latencies: list
    results: list


def _digest(data_dir):
    crc = 0
    for name in sorted(os.listdir(data_dir)):
        with open(os.path.join(data_dir, name), "rb") as fh:
            crc = zlib.crc32(fh.read(), crc)
    return f"{crc:08x}"


def _timed_call(tracer, name, fn, *args, **kwargs):
    """Call ``fn`` and, in a traced run, record it as a ``name`` span."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    if tracer is not None:
        tracer.record(name, time.perf_counter() - t0)
    return out


def _budgeted(budget, run_once):
    """Call ``run_once`` at least once and until ``budget`` s have passed.

    The last call may end past the budget. Returns the call durations.
    """
    durations = []
    start = time.perf_counter()
    while not durations or time.perf_counter() - start < budget:
        t0 = time.perf_counter()
        run_once()
        durations.append(time.perf_counter() - t0)
    return durations


class TrainWorkload:
    """Repeated ``train()`` calls of a fixed number of steps.

    Every call starts from the same initial store and sees the same
    cases, so each one repeats the same computation; ``loss_end`` is the
    quality reached after a fixed number of samples.
    """

    def __init__(self, workdir, seed, cases, dims, overrides):
        self.data_dir = os.path.join(workdir, "data")
        self.out_dir = os.path.join(workdir, "out")
        self.seed, self.cases, self.dims = seed, cases, dims
        self.cfg = Config.default()
        for key, value in overrides.items():
            self.cfg.override(key, value)
        self.batch = self.cfg.get_int("train.batch_size")

    def setup(self, tracer):
        ids = train.synthesize_dataset(self.data_dir, self.cases, self.seed, dims=self.dims)
        self.spec = model_spec_from_config(self.cfg)
        self.n_train = len(ids)
        if len(ids) >= 10:  # train() holds out a split only from ten cases on
            ratios = tuple(self.cfg.get_float(f"split.{part}") for part in ("train", "val", "test"))
            split = split_dataset(ids, ratios, seed=self.cfg.get_int("split.seed"))
            self.n_train = len(split.train)
        if self.n_train % self.batch:
            raise ValueError(f"{self.n_train} training cases do not fill batches of {self.batch}")
        # a fresh process runs its first two steps slowly while the allocator
        # settles; later steps take the same time in every train() call
        warm = Config(values=dict(self.cfg.values)).override("train.max_steps", 2)
        train.train(warm, self.data_dir, os.path.join(self.out_dir, "warmup"))
        return _digest(self.data_dir)

    def timed(self, budget, probe):
        results = []
        probe.step_seconds = []
        durations = _budgeted(budget, lambda: results.append(
            train.train(self.cfg, self.data_dir, self.out_dir)))
        steps = sum(len(r.loss_trace) for r in results)
        return Phase(wall=sum(durations), items=steps * self.batch,
                     latencies=list(probe.step_seconds), results=results)

    def check(self, phase, probe, tally, tracer):
        first = phase.results[0]
        for res in phase.results:
            tally.check(not res.aborted, "train() aborted")
            for value in res.loss_trace:
                tally.check(math.isfinite(value), f"non-finite training loss {value}")
        tally.check(all(r.loss_trace == first.loss_trace for r in phase.results),
                    "repeated train() calls gave different loss traces")
        tally.check(self._first_step_matches(first, probe), "first-step loss differs from "
                    "an independent forward + combined_loss")
        tally.check(self._checkpoint_restores(phase.results[-1], tracer),
                    "last.ckpt does not restore the trained store bit for bit")
        for row in first.history:
            if row["val_dice"] is not None:
                tally.check(all(0.0 <= row[k] <= 1.0 for k in ("val_dice", "val_nsd")),
                            f"validation scores out of [0, 1]: {row}")
        per_epoch = self.n_train // self.batch
        return float(np.mean(first.loss_trace[-per_epoch:]))

    def _first_step_matches(self, first, probe):
        if len(probe.first_volumes) != self.batch or len(probe.first_masks) != self.batch:
            return False
        store = model.init_store(self.spec, self.cfg.get_int("train.seed"))
        loss_cfg = LossConfig(smooth=self.cfg.get_float("loss.smooth"))
        with ad.no_grad():
            losses = [train.combined_loss(model.forward(self.spec, store, v), m, loss_cfg).item()
                      for v, m in zip(probe.first_volumes, probe.first_masks)]
        expected = float(np.mean(np.asarray(losses, dtype=np.float32)))
        return math.isclose(first.loss_trace[0], expected, rel_tol=LOSS_RTOL)

    def _checkpoint_restores(self, res, tracer):
        _step, _cfg, entries, _moments = _timed_call(
            tracer, "checkpoint.load", checkpoint.load_checkpoint, res.last_checkpoint)
        items = res.store.items()
        return len(entries) == len(items) and all(
            name == n and frozen == f and arr.dtype == t.data.dtype
            and np.array_equal(arr, t.data)
            for (name, frozen, arr), (n, t, f) in zip(entries, items))


class InferWorkload:
    """``evaluate_cases`` on one volume at a time, round-robin over the set."""

    HEAD_BIAS = -1.0  # thresholded predictions cover ~5% of a volume, lesion scale

    def __init__(self, workdir, seed, cases, dims):
        self.data_dir = os.path.join(workdir, "data")
        self.ckpt_path = os.path.join(workdir, "model.ckpt")
        self.seed, self.cases, self.dims = seed, cases, dims
        self.probs = {}

    def setup(self, tracer):
        self.ids = train.synthesize_dataset(self.data_dir, self.cases, self.seed, dims=self.dims)
        cfg = Config.default()
        spec = model_spec_from_config(cfg)
        store = model.init_store(spec, cfg.get_int("train.seed"))
        # an untrained head predicts no foreground at all, which would skip
        # the surface-distance half of the metrics
        store["decoder.proj_b"].data[...] = self.HEAD_BIAS
        _timed_call(tracer, "checkpoint.save", checkpoint.save_checkpoint,
                    self.ckpt_path, store, None, config_lines=cfg.resolved_lines())
        if tracer is not None:
            tracer.checkpoint_bytes = os.path.getsize(self.ckpt_path)
        _step, lines, entries, _moments = _timed_call(
            tracer, "checkpoint.load", checkpoint.load_checkpoint, self.ckpt_path)
        loaded = Config.default()
        for line in lines:
            key, value = (s.strip() for s in line.split("=", 1))
            loaded.override(key, value)
        self.spec = model_spec_from_config(loaded)
        self.store = checkpoint.store_from_entries(entries)
        self.tau = loaded.get_float("eval.tau")
        train.evaluate_cases(self.spec, self.store, self.data_dir, self.ids[:1], tau=self.tau)
        return _digest(self.data_dir)

    def timed(self, budget, probe):
        reports = []

        def one_volume():
            cid = self.ids[len(reports) % len(self.ids)]
            reports.extend(train.evaluate_cases(self.spec, self.store, self.data_dir, [cid],
                                                tau=self.tau))
            self.probs.setdefault(cid, probe.last_prob)

        latencies = _budgeted(budget, one_volume)
        return Phase(wall=sum(latencies), items=len(latencies), latencies=latencies,
                     results=reports)

    def check(self, phase, probe, tally, tracer):
        for cid, rep in phase.results:
            tally.check(all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in (rep.dice, rep.nsd)),
                        f"{cid}: DICE/NSD out of [0, 1]: {rep}")
        losses = []
        for cid, prob in self.probs.items():
            vol, mask = train.load_case(self.data_dir, cid)
            tally.check(prob.shape == tuple(self.dims) and bool(np.all(prob >= 0.0))
                        and bool(np.all(prob <= 1.0)),
                        f"{cid}: probabilities of shape {prob.shape} or outside [0, 1]")
            grad_prob = model.forward(self.spec, self.store, vol).numpy()
            tally.check(np.array_equal(prob, grad_prob),
                        f"{cid}: no-grad probabilities differ from a grad-mode forward")
            with ad.no_grad():
                losses.append(train.combined_loss(ad.tensor(prob), mask.data).item())
        return float(np.mean(losses))


WORKLOADS = {
    "train_desk": lambda workdir, seed: TrainWorkload(
        workdir, seed, cases=4, dims=(32, 32, 32), overrides={"train.max_steps": "4"}),
    "infer_desk": lambda workdir, seed: InferWorkload(workdir, seed, cases=4, dims=(32, 32, 32)),
    # 15 cases split 10 / 2 / 3: five full batches per epoch, two validation volumes
    "train_tiny": lambda workdir, seed: TrainWorkload(
        workdir, seed, cases=15, dims=(16, 16, 16), overrides=TINY_OVERRIDES),
}

# End-to-end metrics, measured with tracing off:
#   step_s_p50   median seconds of one unit of work: a training step
#                (ParameterStore.zero_grad to the return of AdamW.step), or
#                one evaluate_cases call on a single volume
#   cases_per_s  training cases, or evaluated volumes, per second of wall
#                time over the whole timed train() / evaluate_cases calls
#   peak_rss_mb  ru_maxrss of the worker at the end of the timed stretch,
#                before the output checks run
#   loss_end     training: mean loss over the last epoch of one train()
#                call; inference: mean combined loss of the evaluated
#                probability maps
# run.py adds setup_s: the median, over fresh worker processes, of the
# time from process start to the end of set-up.
END_TO_END_UNITS = {
    "step_s_p50": "s",
    "cases_per_s": "1/s",
    "peak_rss_mb": "MB",
    "loss_end": "1",
}


def _end_to_end(phase, rss_mb, loss_end):
    return {
        "step_s_p50": statistics.median(phase.latencies),
        "cases_per_s": phase.items / phase.wall,
        "peak_rss_mb": rss_mb,
        "loss_end": loss_end,
    }


def run_workload(name, seed, seconds, trace, workdir, on_ready=lambda: None):
    """Set up, measure and check one workload; returns the result payload.

    With ``trace`` the budget is split between an untraced and a traced
    stretch, and the payload carries the per-layer metrics instead of
    the end-to-end ones.
    """
    workload = WORKLOADS[name](workdir, seed)
    tally = Tally()
    probe = Probe()
    tracer = tracing.Tracer() if trace else None
    with probe.install():
        digest = workload.setup(tracer)
        on_ready()
        probe.capturing = True
        if trace:
            plain = workload.timed(seconds / 2, probe)
            with tracer.install():
                phase = workload.timed(seconds / 2, probe)
        else:
            phase = workload.timed(seconds, probe)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # in a traced run both stretches are checked, so the loss traces
        # must also agree with tracing on and off
        checked = Phase(0.0, 0, [], plain.results + phase.results) if trace else phase
        loss_end = workload.check(checked, probe, tally, tracer)
    if trace:
        values = layer_metrics(tracer, workload, phase, plain)
    else:
        values = _end_to_end(phase, rss_mb, loss_end)
    return {
        "inputs": digest,
        "samples": len(phase.latencies),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "metrics": values,
        "units": LAYER_UNITS if trace else END_TO_END_UNITS,
        "numpy": np.__version__,
        "blas": _blas_build(),
    }


# --- per-layer metrics -------------------------------------------------------

# span -> per-layer metric holding its seconds per step / volume
PER_UNIT_SPANS = {
    "patch_embed": "patch_embed.fwd_s",
    "encoder": "encoder.fwd_s",
    "encoder.layer": "encoder.layer.fwd_s",
    "encoder.attention": "encoder.attention.fwd_s",
    "encoder.mlp": "encoder.mlp.fwd_s",
    "encoder.adapter": "encoder.adapter.fwd_s",
    "prompter": "prompter.fwd_s",
    "decoder.enhancer": "decoder.enhancer.fwd_s",
    "decoder.conv_block": "decoder.conv_block.fwd_s",
    "decoder.predict": "decoder.predict.fwd_s",
    "objectives.loss": "objectives.loss.fwd_s",
    "autodiff.conv3d": "autodiff.conv3d.fwd_s",
    "autodiff.backward": "autodiff.backward_s",
    "optim.step": "optim.step_s",
    "volume_io.read": "volume_io.read_s",
    "metrics.evaluate": "metrics.evaluate_s",
}
COST_SPANS = {}  # cost module -> the spans whose time and MACs it covers
for _span, _module in tracing.COST_MODULE.items():
    COST_SPANS.setdefault(_module, []).append(_span)

LAYER_UNITS = dict(
    {metric: "s" for metric in PER_UNIT_SPANS.values()},
    **{f"{span}.bwd_s": "s" for span in tracing.REPLAYED},
    **{
        "autodiff.conv3d.calls": "count",
        "autodiff.conv3d.macs": "count",
        "autodiff.matmul.macs": "count",
        "autodiff.graph_nodes": "count",
        "autodiff.graph_mb": "MB",
        "checkpoint.save_s": "s",
        "checkpoint.load_s": "s",
        "checkpoint.bytes": "bytes",
        "trace.coverage": "ratio",
        "trace.overhead_frac": "ratio",
    },
    **{f"costs.{m}.gflops_per_s": "GFLOP/s" for m in COST_SPANS},
    **{f"costs.{m}.mac_ratio": "ratio" for m in COST_SPANS},
)


def _per_call(tracer, span):
    calls = tracer.calls[span]
    return tracer.seconds[span] / calls if calls else 0.0


def layer_metrics(tracer, workload, phase, plain):
    """Per-layer values from the traced stretch ``phase``.

    Times and counts are per unit of work (a training step, or a volume
    for inference); checkpoint times are per call.
    """
    units = len(phase.latencies)
    out = {metric: tracer.seconds[span] / units for span, metric in PER_UNIT_SPANS.items()}
    out["autodiff.conv3d.calls"] = tracer.calls["autodiff.conv3d"] / units
    for op in ("conv3d", "matmul"):
        macs = sum(m for (span, _), m in tracer.macs.items() if span == f"autodiff.{op}")
        out[f"autodiff.{op}.macs"] = macs / units
    out["autodiff.graph_nodes"] = tracer.graph_nodes
    out["autodiff.graph_mb"] = tracer.graph_bytes / 2**20
    for span in tracing.REPLAYED:
        grad_calls = tracer.grad_calls[span]
        out[f"{span}.bwd_s"] = (tracer.replay_backward(span) * grad_calls / units
                                if span in tracer.captured else 0.0)
    out["checkpoint.save_s"] = _per_call(tracer, "checkpoint.save")
    out["checkpoint.load_s"] = _per_call(tracer, "checkpoint.load")
    out["checkpoint.bytes"] = tracer.checkpoint_bytes
    forwards = tracer.calls["patch_embed"]
    report = costs.count_cost(workload.spec)
    for module, spans in COST_SPANS.items():
        seconds = sum(tracer.seconds[s] for s in spans)
        runtime = sum(m for (_, mod), m in tracer.macs.items() if mod == module)
        out[f"costs.{module}.gflops_per_s"] = (
            report.flops(module) * forwards / seconds / 1e9 if seconds else 0.0)
        out[f"costs.{module}.mac_ratio"] = runtime / (forwards * report.macs(module))
    out["trace.coverage"] = tracer.top_seconds / phase.wall
    out["trace.overhead_frac"] = (statistics.median(phase.latencies)
                                  / statistics.median(plain.latencies))
    return out


def _blas_build():
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 prints only
        return "unknown"
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def main(argv=None):
    parser = argparse.ArgumentParser(description="One benchmark worker process.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    def ready():
        print(READY, flush=True)
        if args.setup_only:
            sys.exit(0)

    payload = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                           args.workdir, on_ready=ready)
    print(RESULT + json.dumps(payload), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
