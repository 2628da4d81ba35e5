"""Time attention's two softmax shifts at the models' shapes, and show which
one each attention call of the models takes.

    PYTHONPATH=src python tests/attention_paths.py [M,N,heads,d,dv ...]

For every shape of ``MODEL_ATTENTIONS`` (or the shapes given), f32,
prints the median ms of the no-grad forward and of the backward with each
shift forced: the bound b = |scale q_i| max_j |k_j| as a column of the
score GEMM (shift), and the exact row max taken and subtracted after it
(exact). The backward reads the row log-sum-exp either way, so its two
columns time the same code. Without arguments it then runs one forward of
the desk and of the tiny model at ``train.seed`` init on a phantom and
prints, per attention call, its shape, the largest bound and the shift
the op's rule took. The ``ad.attention`` table is built from this output.
"""

import contextlib
import importlib
import statistics
import sys
import time

import numpy as np
import pytest

from conftest import tiny_config
from voxseg import autodiff as ad
from voxseg import model
from voxseg.config import Config, model_spec_from_config
from voxseg.volume_io import generate_phantom

# the package exports a ``tensor`` function under the module's name
tensor_module = importlib.import_module("voxseg.autodiff.tensor")

# (M queries, N keys, heads, d, dv) of every attention call of both models:
# the desk encoder, the desk prompter's spatial and channel calls, and the
# tiny encoder
MODEL_ATTENTIONS = [(512, 512, 4, 16, 16), (512, 64, 1, 64, 64), (64, 64, 1, 512, 512),
                    (64, 64, 2, 8, 8)]

SHIFTS = ("shift", "exact")


def _bound(sq, kt):
    """The bound of ``_score_bound`` without its limit."""
    q, k = sq[..., :-1], kt[:, :-1, :]
    k_max = np.einsum("hdn,hdn->hn", k, k).max(axis=-1)
    return np.sqrt(np.einsum("hmd,hmd->hm", q, q) * k_max[:, None])[..., None]


@contextlib.contextmanager
def forced(form):
    """Every attention call on the bound (``shift``), on the exact row max
    (``exact``), or (any other ``form``) on what the op's rule picks."""
    with pytest.MonkeyPatch.context() as mp:
        if form in SHIFTS:
            mp.setattr(tensor_module, "_score_bound",
                       (lambda sq, kt: _bound(sq, kt)) if form == "shift" else
                       (lambda sq, kt: None))
        yield


@contextlib.contextmanager
def passes(m, n, heads, d, dv, seed=0):
    """Zero-argument callables running the no-grad forward and the backward
    of one f32 attention call, each alone. Enter it inside ``forced``."""
    rng = np.random.default_rng(seed)
    q, k = rng.standard_normal((m, heads * d)), rng.standard_normal((n, heads * d))
    v, g = rng.standard_normal((n, heads * dv)), rng.standard_normal((m, heads * dv))
    scale = 1.0 / np.sqrt(d)
    q *= 0.5 / np.sqrt(d)  # bounds of a few units, as in the encoders
    with ad.precision("f32"):
        ts = [ad.tensor(a, dtype=np.float32) for a in (q, k, v)]
        g = g.astype(np.float32)

        def forward():
            with ad.no_grad():
                ad.attention(*ts, scale, heads=heads)

        grads = [ad.tensor(a, requires_grad=True, dtype=np.float32) for a in (q, k, v)]
        node = ad.attention(*grads, scale, heads=heads)._record

        def backward():
            node._backward(g)
            for t in grads:
                t.grad = None

        yield forward, backward


def _median_ms(fn, budget_s=0.4, least=5, most=200):
    fn()
    times = []
    start = time.perf_counter()
    while len(times) < most and (len(times) < least or time.perf_counter() - start < budget_s):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def time_passes(shape, form):
    """Median ms of (forward, backward) of one shape on shift ``form``."""
    with forced(form), passes(*shape) as fns:
        return tuple(_median_ms(fn) for fn in fns)


def model_calls(cfg):
    """(M, N, heads, d, dv, largest bound, shift taken) of every attention
    call of one no-grad forward of the model of ``cfg`` at ``train.seed``
    init, on a seed-3 phantom."""
    spec = model_spec_from_config(cfg)
    store = model.init_store(spec, cfg.get_int("train.seed"))
    vol, _ = generate_phantom(3, dims=spec.vol_dims, noise_sd=0.02)
    calls = []
    rule, attention = tensor_module._score_bound, ad.attention

    def spy(q, k, v, scale, heads=1):
        calls.append([q.shape[0], k.shape[0], heads, q.shape[1] // heads, v.shape[1] // heads])
        return attention(q, k, v, scale, heads=heads)

    def record(sq, kt):
        b = rule(sq, kt)
        calls[-1] += [float(_bound(sq, kt).max()), "exact" if b is None else "shift"]
        return b

    with pytest.MonkeyPatch.context() as mp, ad.no_grad():
        mp.setattr(tensor_module, "_score_bound", record)
        mp.setattr(ad, "attention", spy)
        model.forward(spec, store, vol.data)
    return calls


def main(argv):
    shapes = [tuple(int(v) for v in a.split(",")) for a in argv] or MODEL_ATTENTIONS
    print("                         forward          backward")
    print("   M    N  h    d   dv   shift  exact    shift  exact")
    for shape in shapes:
        times = {form: time_passes(shape, form) for form in SHIFTS}
        print("{:>4} {:>4} {:>2} {:>4} {:>4} ".format(*shape)
              + "".join(f"{times[f][i]:7.2f}" for i in (0, 1) for f in SHIFTS))
    if argv:
        return
    for name, cfg in (("desk", Config.default()), ("tiny", tiny_config())):
        print()
        print(f"{name} model at init   M    N  h    d   dv   bound  shift")
        for m, n, h, d, dv, bound, taken in model_calls(cfg):
            print(f"{'':>18}{m:>4} {n:>4} {h:>2} {d:>4} {dv:>4} {bound:7.2f}  {taken}")


if __name__ == "__main__":
    main(sys.argv[1:])
