"""Time one training step's two cases serially and on two Python threads
("lanes"), and show what lanes cost in memory and in bits.

    PYTHONPATH=src python tests/lane_paths.py [--rounds N]

It runs on the default desk config and the first two seed-3 phantoms
(32^3, noise 0.02, as ``voxseg synth --seed 3`` writes them). One step's
forward, loss and backward of both cases, at weight 1/2 each as
``train`` runs them, is timed in three forms:

    serial  the two cases one after the other on one store, at the
            process's BLAS thread count: what ``train`` does;
    lanes1  each case on its own Python thread and its own store, with
            OpenBLAS set to one thread for the step and restored after;
    lanes   the same two threads at the process's BLAS thread count.

The BLAS count is set at run time through
``scipy_openblas_set_num_threads64_`` of numpy's bundled OpenBLAS, the
library ``conv._load_gemm`` opens. The forms alternate over N rounds
(default 10), the order reversed every other round, and the script
prints each form's median and quartiles, and how many rounds lanes1 beat
serial. Each form's peak RSS is the high-water mark (``VmHWM``) of a
fresh child process that sets up and runs three steps of that form
alone; ``ru_maxrss`` would not do, since it keeps the parent's size
across the fork and exec. Last, it trains one step's gradients serially
at one and at two BLAS threads, on the desk and on the tiny model, and
prints whether the loss and each gradient are equal bit for bit.
"""

import argparse
import concurrent.futures
import contextlib
import ctypes
import glob
import os
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from conftest import tiny_config
from voxseg import model, train
from voxseg.config import Config, model_spec_from_config
from voxseg.objectives import LossConfig

FORMS = ("serial", "lanes1", "lanes")


def _openblas_threads():
    """(set, get) of the thread count of numpy's bundled OpenBLAS."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        lib = ctypes.CDLL(path)
        try:
            set_fn, get_fn = (lib.scipy_openblas_set_num_threads64_,
                              lib.scipy_openblas_get_num_threads64_)
        except AttributeError:
            continue
        set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
        get_fn.argtypes, get_fn.restype = [], ctypes.c_int
        return set_fn, get_fn
    raise SystemExit("numpy's bundled OpenBLAS (libscipy_openblas64_) not found")


SET_THREADS, GET_THREADS = _openblas_threads()


@contextlib.contextmanager
def blas_threads(n):
    """OpenBLAS at ``n`` threads for the block, then the count before it."""
    saved = GET_THREADS()
    SET_THREADS(n)
    try:
        yield
    finally:
        SET_THREADS(saved)


class Step:
    """One step's two cases on a config: a store per lane, and the forms."""

    def __init__(self, cfg, data_dir):
        self.spec = model_spec_from_config(cfg)
        self.loss_cfg = LossConfig(smooth=cfg.get_float("loss.smooth"))
        seed = cfg.get_int("train.seed")
        self.stores = [model.init_store(self.spec, seed) for _ in range(2)]
        self.cases = [train.load_case(data_dir, cid) for cid in train.list_cases(data_dir)[:2]]
        self.pool = concurrent.futures.ThreadPoolExecutor(max_workers=2)

    def _case(self, store, slot):
        vol, mask = self.cases[slot]
        return train._train_case(self.spec, store, vol.data, mask.data, self.loss_cfg, 0.5)[0]

    def serial(self):
        store = self.stores[0]
        store.zero_grad()
        return [self._case(store, slot) for slot in (0, 1)]

    def lanes(self):
        for store in self.stores:
            store.zero_grad()
        futures = [self.pool.submit(self._case, self.stores[slot], slot) for slot in (0, 1)]
        return [f.result() for f in futures]

    def lanes1(self):
        with blas_threads(1):
            return self.lanes()


def _phantoms(root, cases=2):
    data_dir = os.path.join(root, "desk")
    train.synthesize_dataset(data_dir, cases, 3, dims=(32, 32, 32))
    return data_dir


def _timed(step, form):
    start = time.perf_counter()
    getattr(step, form)()
    return time.perf_counter() - start


def time_forms(step, rounds):
    """Seconds of every form in each of ``rounds`` alternating rounds."""
    for form in FORMS:  # warm-up: first-call caches and allocations
        getattr(step, form)()
    seconds = {form: [] for form in FORMS}
    for r in range(rounds):
        for form in FORMS if r % 2 == 0 else FORMS[::-1]:
            seconds[form].append(_timed(step, form))
    return seconds


def peak_rss_mb(form):
    """Peak RSS, in MB, of a fresh child process that sets up and runs
    three steps of ``form``."""
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", form],
                         capture_output=True, text=True, check=True, timeout=600)
    return float(out.stdout.split()[-1])


def _child(form):
    with tempfile.TemporaryDirectory() as root:
        step = Step(Config.default(), _phantoms(root))
        for _ in range(3):
            getattr(step, form)()
    with open("/proc/self/status", encoding="ascii") as fh:
        kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    print(kib / 1024)


def bit_differences(cfg, data_dir, threads):
    """(loss equal, differing gradient names, gradient count) between
    one serial step at one BLAS thread and at ``threads``."""
    runs = []
    for n in (1, threads):
        step = Step(cfg, data_dir)
        with blas_threads(n):
            losses = step.serial()
        runs.append((losses, {name: t.grad for name, t in step.stores[0].trainable()}))
    (loss_a, grads_a), (loss_b, grads_b) = runs
    differ = [name for name, g in grads_a.items() if not np.array_equal(g, grads_b[name])]
    return loss_a == loss_b, differ, len(grads_a)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--child", choices=FORMS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        _child(args.child)
        return
    threads = GET_THREADS()
    with tempfile.TemporaryDirectory() as root:
        desk_dir = _phantoms(root)
        step = Step(Config.default(), desk_dir)
        seconds = time_forms(step, args.rounds)
        step.pool.shutdown()
        print(f"desk config, two seed-3 32^3 phantoms, {args.rounds} rounds, "
              f"process BLAS threads {threads}")
        print(f"{'form':8s} {'median_ms':>10s} {'q1_ms':>8s} {'q3_ms':>8s} {'peak_rss_mb':>12s}")
        for form in FORMS:
            q1, med, q3 = (1e3 * v for v in statistics.quantiles(seconds[form], n=4))
            print(f"{form:8s} {med:10.1f} {q1:8.1f} {q3:8.1f} {peak_rss_mb(form):12.1f}")
        won = sum(a < b for a, b in zip(seconds["lanes1"], seconds["serial"]))
        print(f"lanes1 faster than serial in {won}/{args.rounds} rounds")
        tiny_dir = os.path.join(root, "tiny")
        train.synthesize_dataset(tiny_dir, 2, 3, dims=(16, 16, 16))
        for name, cfg, data_dir in (("desk", Config.default(), desk_dir),
                                    ("tiny", tiny_config(), tiny_dir)):
            same_loss, differ, total = bit_differences(cfg, data_dir, max(threads, 2))
            print(f"{name}: BLAS 1 vs {max(threads, 2)} threads: loss equal {same_loss}, "
                  f"{len(differ)} of {total} gradients differ {differ}")


if __name__ == "__main__":
    main()
