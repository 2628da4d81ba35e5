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
    """After forward plus loss, holding only the loss: every norm output,
    every encoder gelu, its input (the MLP's first product, which gelu's
    backward rebuilds), wo output, every relu input (the adapters') and
    every attention or conv input that has a rebuild hook (a matmul product
    or a norm output, which the reader's backward rebuilds) is dead. Alive
    are every attention output, every conv3d or upsample_conv3d input
    without a hook (the volume, the reshaped taps) and the head's smooth
    conv output (its relu inside, the projection's input), and the
    prompter's two channel-branch norm outputs: the permute views that
    attention keeps hold them. No upsampled array is ever built, so none
    can be kept. No closure keeps a Tensor, and the backward still reaches
    every trainable parameter."""
    spec, store, vol, mask = _case()
    smooth_w = store["decoder.smooth_w"]
    channel_gains = {id(store[f"prompter.norm_{n}_ca_g"]) for n in ("q", "k")}
    dead, alive = {}, {}

    def note(kind, where, arr):
        where.setdefault(kind, []).append(weakref.ref(arr))

    def on_layer_norm(args, kwargs, out):
        if id(kwargs["gain"]) in channel_gains:
            note("channel-branch layer_norm", alive, out.data)
        else:
            note("layer_norm", dead, out.data)

    def on_attention_forward(args, kwargs, out):
        note("norm1", dead, args[0].data)
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
                if x._rebuild is None:
                    note(kind, alive, x.data)
                else:
                    note(f"rebuilt {kind}", dead, x.data)
            if args[1] is smooth_w:
                note("smooth conv", alive, out.data)

        return on_call

    _wrap(monkeypatch, ad, "layer_norm", on_layer_norm)
    _wrap(monkeypatch, ad, "instance_norm", lambda a, k, out: note("instance_norm", dead, out.data))
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
    # two per encoder layer and the spatial branch's query
    assert counts["layer_norm"] == 2 * spec.layers + 1
    assert counts["channel-branch layer_norm"] == 2 and counts["instance_norm"] == 18
    # the volume, read by the patch embedding and each enhancer's first
    # image conv, and the smooth conv's output, read by the projection
    assert counts["conv input"] == len(spec.taps) + 2
    # every other conv3d input is a norm output: each block's second conv
    # reads its first norm's, and the head's first conv the enhancer outputs
    assert counts["rebuilt conv input"] == 3 * len(spec.taps) + 1
    # each fuse conv reads a reshaped tap and the image features, the smooth
    # conv the head's block output
    assert counts["upsample_conv3d input"] == len(spec.taps)
    assert counts["rebuilt upsample_conv3d input"] == len(spec.taps) + 1
    assert counts["attention"] > spec.layers
    # q, k and v of every layer, and the spatial prompter's query (a norm
    # output), reduced keys and values
    assert counts["rebuilt attention input"] == 3 * spec.layers + 3
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


def test_rebuilt_values_give_the_gradients_of_kept_ones(monkeypatch):
    """A case's gradients are bit-identical whether the closures read the
    matmul and norm outputs through their rebuild hooks or keep the
    arrays themselves. Every gain, shift and bias is drawn at random (they
    init to 1 and 0), so a hook that drops one changes a gradient."""
    spec, store, vol, mask = _case()
    rng = np.random.default_rng(0)
    for _, t, _ in store.items():
        if t.data.ndim == 1:
            t.data += 0.1 * rng.standard_normal(t.data.shape).astype(t.data.dtype)
    grads = []
    for hooks in (True, False):
        with monkeypatch.context() as mp:
            if not hooks:
                for owner in (tensor_module, conv):
                    mp.setattr(owner, "_keep", lambda t: t.data)
            store.zero_grad()
            ad.backward(_loss(spec, store, vol, mask))
        grads.append({name: t.grad.copy() for name, t in store.trainable()})
    for name in grads[0]:
        assert np.array_equal(grads[0][name], grads[1][name]), name


def test_retained_bytes_of_a_16_cubed_desk_case():
    """One 16^3 case of the desk model (C=64, 12 layers, decoder 16 ch)
    retains 1.68 MiB before its backward (5.81 MiB when every op's output
    lived until the backward ended, 2.70 MiB while the loss was a chain of
    ops, 2.65 MiB while the next op kept each norm's output). gelu, concat
    and instance_norm keep no output: the MLP's first products,
    attention's q, k and v and every norm output a conv or a product reads
    are rebuilt in the backward. Only the prompter's two channel-branch
    layer_norm outputs live on, in the permute views attention keeps.
    upsample_conv3d's closure keeps no array besides its output (its
    inputs are other ops' values or their hooks, its kernel a parameter).
    The largest holders are the conv outputs the instance norms re-read.
    The loss node keeps one f32 copy of the mask and the sigmoid's output,
    which the sigmoid's closure keeps too."""
    loss, outside = graph_bytes.desk_case(16)
    table = graph_bytes.retained_by_op(loss, outside)
    assert round(graph_bytes.total_mib(table), 2) == 1.68
    assert table["combined_loss"][1] == 16**3 * 4
    for op in ("gelu", "concat", "instance_norm"):
        assert table.get(op, (0, 0))[0] == 0, op
    assert table["layer_norm"][0] == 2 * 64 * 64 * 4  # (64 tokens, C=64), f32
    assert table["upsample_conv3d"][1] == 0
    assert max(table, key=lambda op: sum(table[op])) == "conv3d"


def test_retained_bytes_of_a_32_cubed_desk_case():
    """The benchmark's volume size: one 32^3 desk case retains 13.45 MiB
    before its backward (36.53 MiB while upsample outputs and the MLP's
    first products were kept, 24.65 MiB while the upsample was an op whose
    closure kept its interpolation matrices, 24.64 MiB while attention
    kept its q, k and v products, 21.61 MiB while the loss was a chain of
    ops, 21.20 MiB while the next op kept each norm's output)."""
    loss, outside = graph_bytes.desk_case(32)
    table = graph_bytes.retained_by_op(loss, outside)
    assert round(graph_bytes.total_mib(table), 2) == 13.45
    assert table["upsample_conv3d"][1] == 0


def test_retained_bytes_of_a_64_cubed_case_at_512_tokens():
    """At 64^3 with 8^3 patches (the paper's geometry at half its crop
    edge, 512 tokens as on the desk) the full-resolution decoder holds most
    of the graph: one case retains 45.70 MiB before its backward (69.45 MiB
    while the next op kept each norm's output), of which the conv3d and
    upsample_conv3d outputs that the instance norms re-read are 36.5."""
    loss, outside = graph_bytes.desk_case(64, patch=8)
    table = graph_bytes.retained_by_op(loss, outside)
    assert graph_bytes.total_mib(table) <= 46
    assert table.get("instance_norm", (0, 0))[0] == 0
