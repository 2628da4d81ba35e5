"""What a training case's graph keeps alive: values die during the forward
once neither the caller nor a backward closure holds them."""

import importlib
import weakref

import numpy as np
import pytest

from voxseg import autodiff as ad
from voxseg import encoder, model, objectives, train
from voxseg.autodiff import conv
from voxseg.objectives import LossConfig
from voxseg.volume_io import generate_phantom

import graph_bytes

# the package exports a ``tensor`` function under the module's name
tensor_module = importlib.import_module("voxseg.autodiff.tensor")

@pytest.fixture(autouse=True)
def _f32():
    with ad.precision("f32"):
        yield


def _case(size=16):
    spec = model.ModelSpec(vol_dims=(size, size, size)).validate()
    store = model.init_store(spec, 0)
    vol, mask = generate_phantom(7, dims=(size, size, size), noise_sd=0.02)
    return spec, store, vol.data, mask.data


def _loss(spec, store, vol, mask):
    return train.combined_loss(model.forward(spec, store, vol), mask, LossConfig())


def _wrap(monkeypatch, owner, name, on_call):
    fn = getattr(owner, name)

    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        on_call(args, kwargs, out)
        return out

    monkeypatch.setattr(owner, name, wrapped)


def test_values_no_backward_reads_die_during_the_forward(monkeypatch):
    """After forward plus loss, holding only the loss: every encoder gelu,
    its input (the MLP's first product, which gelu's backward rebuilds),
    wo output, every relu input (the adapters') and every attention input
    that is a matmul product (attention's backward rebuilds it) is dead;
    every norm1 output (those products' input), attention output, input
    of a conv3d or upsample_conv3d and the head's smooth conv output (its
    relu inside, the projection's input) is alive. No upsampled array is ever built,
    so none can be kept. No closure keeps a Tensor, and the backward still
    reaches every trainable parameter."""
    spec, store, vol, mask = _case()
    smooth_w = store["decoder.smooth_w"]
    dead, alive = {}, {}

    def note(kind, where, arr):
        where.setdefault(kind, []).append(weakref.ref(arr))

    def on_attention_forward(args, kwargs, out):
        note("norm1", alive, args[0].data)
        note("wo", dead, out.data)

    def on_attention(args, kwargs, out):
        note("attention", alive, out.data)
        for t in args[:3]:
            if t._rebuild is not None:
                note("rebuilt attention input", dead, t.data)

    def on_gelu(args, kwargs, out):
        note("gelu", dead, out.data)
        note("gelu input", dead, args[0].data)

    def on_conv(kind):
        def on_call(args, kwargs, out):
            xs = args[0] if isinstance(args[0], list) else [args[0]]
            for x in xs:
                note(kind, alive, x.data)
            if args[1] is smooth_w:
                note("smooth conv", alive, out.data)

        return on_call

    _wrap(monkeypatch, ad, "gelu", on_gelu)
    _wrap(monkeypatch, ad, "relu", lambda a, k, out: note("relu input", dead, a[0].data))
    _wrap(monkeypatch, ad, "attention", on_attention)
    _wrap(monkeypatch, ad, "conv3d", on_conv("conv input"))
    _wrap(monkeypatch, ad, "upsample_conv3d", on_conv("upsample_conv3d input"))
    _wrap(monkeypatch, encoder, "attention_forward", on_attention_forward)
    loss = _loss(spec, store, vol, mask)

    counts = {kind: len(refs) for kind, refs in {**dead, **alive}.items()}
    assert counts["gelu"] == counts["gelu input"] == counts["norm1"] == counts["wo"] == spec.layers
    assert counts["relu input"] == spec.layers and counts["smooth conv"] == 1
    assert counts["upsample_conv3d input"] == 2 * len(spec.taps) + 1
    assert counts["attention"] > spec.layers and counts["conv input"] == 19
    # q, k and v of every layer, and the spatial prompter's reduced keys and values
    assert counts["rebuilt attention input"] == 3 * spec.layers + 2
    for kind, refs in dead.items():
        assert all(ref() is None for ref in refs), kind
    for kind, refs in alive.items():
        assert all(ref() is not None for ref in refs), kind

    recs = graph_bytes.records(loss)
    for rec in recs:
        for cell in (rec._backward.__closure__ or ()) if rec._backward else ():
            assert not isinstance(cell.cell_contents, ad.Tensor), rec.op
    ad.backward(loss)
    assert all(t.grad is not None for _, t in store.trainable())


def test_gradients_do_not_depend_on_what_the_caller_holds(monkeypatch):
    """A case's gradients are bit-identical whether the caller holds every
    op's output until the backward ends or none of them."""
    spec, store, vol, mask = _case()
    grads = []
    for hold in (False, True):
        held = []
        with monkeypatch.context() as mp:
            if hold:
                for owner in (tensor_module, conv, objectives):
                    _wrap(mp, owner, "_make", lambda a, k, out: held.append(out))
            store.zero_grad()
            ad.backward(_loss(spec, store, vol, mask))
        # every op output of the case: 402 while each encoder layer split and
        # merged heads in 8 reshape / permute nodes and the head's relu was
        # one, 305 while the loss was a chain of 23 ops, 283 while each
        # encoder layer and the prompter read their tokens off a grid and
        # wrote them back (2 reshapes each, where the embedding and the four
        # enhancers now make one each), 262 while each encoder layer scaled
        # its adapter branch by a fixed 1.0
        assert len(held) == 250 if hold else not held
        grads.append({name: t.grad.copy() for name, t in store.trainable()})
    assert grads[0].keys() == grads[1].keys()
    for name in grads[0]:
        assert np.array_equal(grads[0][name], grads[1][name]), name


def test_retained_bytes_of_a_16_cubed_desk_case():
    """One 16^3 case of the desk model (C=64, 12 layers, decoder 16 ch)
    retains 2.65 MiB before its backward (5.81 MiB when every op's output
    lived until the backward ended, 2.70 MiB while the loss was a chain of
    ops). gelu and concat keep no output, and the MLP's first products and attention's q, k and v are
    rebuilt in the backward; upsample_conv3d's closure keeps no array
    besides its output (its inputs are other ops' values, its kernel a
    parameter). The largest holders are the norm outputs the next conv
    reads and the conv outputs the instance norms re-read. The loss node
    keeps one f32 copy of the mask and the sigmoid's output, which the
    sigmoid's closure keeps too."""
    loss, outside = graph_bytes.desk_case(16)
    table = graph_bytes.retained_by_op(loss, outside)
    assert round(graph_bytes.total_mib(table), 2) == 2.65
    assert table["combined_loss"][1] == 16**3 * 4
    for op in ("gelu", "concat"):
        assert table.get(op, (0, 0))[0] == 0, op
    assert table["upsample_conv3d"][1] == 0
    assert max(table, key=lambda op: sum(table[op])) == "instance_norm"


def test_retained_bytes_of_a_32_cubed_desk_case():
    """The benchmark's volume size: one 32^3 desk case retains 21.20 MiB
    before its backward (36.53 MiB while upsample outputs and the MLP's
    first products were kept, 24.65 MiB while the upsample was an op whose
    closure kept its interpolation matrices, 24.64 MiB while attention
    kept its q, k and v products, 21.61 MiB while the loss was a chain of
    ops)."""
    loss, outside = graph_bytes.desk_case(32)
    table = graph_bytes.retained_by_op(loss, outside)
    assert round(graph_bytes.total_mib(table), 2) == 21.20
    assert table["upsample_conv3d"][1] == 0
