"""Model assembly: parameter creation, initialization, and the full
volume -> probability-map forward pass.

``ModelSpec`` is the one architecture record: the encoder, prompter and
decoder read their sizes from it directly, and ``ModelSpec.validate`` is
the one place an architecture is rejected. Modules keep only the runtime
shape checks on the tensors they receive. There is one architecture, the
paper's: single-channel volumes, the pseudo-3-D patch embedding and one
image pyramid per enhancer. Its only switch, ``no_image_branch``, is the
decoder ablation.

Every module contributes (name, shape, frozen, init) parameter specs,
and ``param_specs`` is the one record of the layout and of the freeze
policy. ``init_store`` materializes it from one seeded stream in a fixed
order, so identical seeds give bit-identical stores, and freezes each
entry as its tuple says: only the encoder's attention, MLP and norm
cores are frozen. ``costs.count_cost`` counts parameters from the same
record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import decoder as dec
from . import encoder as enc
from . import patch_embed as pe
from . import prompter as pr
from .autodiff import ParameterStore, Tensor
from .volume_io import Volume


@dataclass(frozen=True)
class ModelSpec:
    """Complete architectural record for one build; see ``validate``."""

    vol_dims: tuple[int, int, int] = (32, 32, 32)
    patch: tuple[int, int, int] = (4, 4, 4)
    embed_dim: int = 64
    heads: int = 4
    layers: int = 12
    mlp_ratio: int = 4
    adapter_dim: int = 16
    taps: tuple[int, ...] = (3, 6, 9, 12)
    prompt_n: int = 64
    prompt_layer: int = 12
    dec_channels: int = 16
    no_image_branch: bool = False

    @property
    def grid_dims(self):
        return tuple(v // p for v, p in zip(self.vol_dims, self.patch))

    @property
    def feature_dims(self):
        """(2H, 2W, 2D): the grid where the decoder meets taps and image."""
        return tuple(2 * g for g in self.grid_dims)

    @property
    def token_count(self):
        h, w, d = self.grid_dims
        return h * w * d

    def validate(self):
        """Reject any architecture the modules cannot build; returns self."""
        for name in ("vol_dims", "patch"):
            if len(getattr(self, name)) != 3:
                raise ValueError(f"{name} needs 3 entries, got {getattr(self, name)}")
        if any(p < 1 for p in self.patch):
            raise ValueError(f"patch sizes must be positive, got {self.patch}")
        for v, p in zip(self.vol_dims, self.patch):
            if v % p != 0:
                raise ValueError(f"vol_dims {self.vol_dims} not divisible by patch {self.patch}")
        for name in ("heads", "mlp_ratio", "adapter_dim", "prompt_n", "dec_channels"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.embed_dim < 8 or self.embed_dim % 2 != 0:
            raise ValueError(f"embed_dim must be even and >= 8, got {self.embed_dim}")
        if self.embed_dim % self.heads != 0:
            raise ValueError(f"heads {self.heads} must divide embed_dim {self.embed_dim}")
        if self.adapter_dim >= self.embed_dim:
            raise ValueError("adapter_dim must be smaller than embed_dim")
        if not all(1 <= t <= self.layers for t in self.taps):
            raise ValueError(f"taps {self.taps} outside 1..{self.layers}")
        if len(set(self.taps)) != len(self.taps):
            raise ValueError(f"taps {self.taps} must be distinct")
        if self.prompt_layer not in self.taps:
            raise ValueError(f"prompt_layer {self.prompt_layer} not among taps {self.taps}")
        if self.prompt_n > self.token_count:
            raise ValueError(
                f"prompt_n {self.prompt_n} exceeds token count {self.token_count}"
            )
        dec.pyramid_stages(self.vol_dims, self.feature_dims)
        return self


def _patch_param_specs(spec: ModelSpec):
    ph, pw, pd = spec.patch
    c = spec.embed_dim
    return [
        ("patch.w2d", (ph, pw, 1, 1, c), False, "trunc002"),
        ("patch.b2d", (c,), False, "zeros"),
        ("patch.wdepth", (pd, c), False, "trunc002"),
        ("patch.pos", spec.grid_dims + (c,), False, "trunc002"),
    ]


def param_specs(spec: ModelSpec):
    """Every parameter in init order: its name, shape, freeze flag and init."""
    return (_patch_param_specs(spec) + enc.param_specs(spec) + pr.param_specs(spec)
            + dec.param_specs(spec))


def _init_array(rng, shape, init):
    if init == "zeros":
        return np.zeros(shape)
    if init == "ones":
        return np.ones(shape)
    if init == "trunc002":
        return np.clip(rng.standard_normal(shape) * 0.02, -0.04, 0.04)
    if init == "scaled":  # 1/sqrt(fan_in) for dense maps
        return rng.standard_normal(shape) / np.sqrt(shape[0])
    if init == "he":  # conv kernels (..., Cin, Cout)
        fan_in = int(np.prod(shape[:-1]))
        return rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)
    if init == "neg_prior":  # sigmoid(-2) ~ 0.12 initial foreground prob
        return np.full(shape, -2.0)
    raise ValueError(f"unknown init tag {init!r}")


def init_store(spec: ModelSpec, seed) -> ParameterStore:
    """Materialize all parameters; deterministic in (spec, seed, dtype mode)."""
    spec.validate()
    rng = np.random.default_rng(np.random.SeedSequence([0x1A17, int(seed)]))
    store = ParameterStore()
    for name, shape, frozen, init in param_specs(spec):
        store.add(name, ad.tensor(_init_array(rng, shape, init)), frozen=frozen)
    return store


def embed_volume(x: Tensor, spec: ModelSpec, store) -> Tensor:
    """Patch features plus the positional table on the grid, flattened to
    the (M, C) tokens the encoder reads."""
    grid = pe.pseudo3d_patch_embed(
        x, store["patch.w2d"], store["patch.b2d"], store["patch.wdepth"], spec.patch
    )
    grid = pe.add_positional(grid, store["patch.pos"])
    return ad.reshape(grid, (spec.token_count, spec.embed_dim))


def forward(spec: ModelSpec, store, volume):
    """Volume (or raw (H̄, W̄, D̄, 1) array) -> probability Tensor (H̄, W̄, D̄).

    The embedding's (M, C) tokens pass through the encoder and the
    prompter as tokens. Each enhancer reshapes its tap to the (H, W, D, C)
    grid, the first place a convolution needs it, and the decoder stays on
    grids from there to the output. A ``NonFiniteError`` is prefixed with
    the module scope that raised it.
    """
    data = volume.data if isinstance(volume, Volume) else np.asarray(volume)
    expected = tuple(spec.vol_dims) + (1,)
    if data.shape != expected:
        raise ad.ShapeMismatchError(
            f"volume shape {data.shape} does not match model input {expected}"
        )
    x = ad.tensor(data)
    with ad.scope("patch"):
        tokens = embed_volume(x, spec, store)
    with ad.scope("encoder"):
        taps = enc.encode(tokens, spec, store)
    pparams = pr.PrompterParams.from_store(store)
    with ad.scope("prompter"):
        prompted = pr.attach_prompter(taps, pparams, spec.prompt_layer)
    enhanced = []
    for j, tap_index in enumerate(sorted(prompted), start=1):
        ep = dec.enhancer_from_store(store, j, spec)
        with ad.scope(f"decoder.enh{j}"):
            enhanced.append(dec.original_feature_enhancer(prompted[tap_index], x, ep))
    pp = dec.predict_from_store(store, spec)
    with ad.scope("decoder.head"):
        return dec.predict(enhanced, pp)
