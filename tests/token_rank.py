"""How much of the volume the encoder's tokens keep, tap by tap, at init.

For the default desk model (32^3) and the tiny model (16^3) at init
seeds 0, 1 and 2, on the first phantom of a seed-3 dataset (noise 0.02),
the encoder runs without a graph and each tap (3, 6, 9, 12) prints
- ``centred``: ||Z - mean_tokens Z|| / ||Z|| of the tap's (M, C) tokens,
  the share of the tokens that differs from token to token (0 when every
  token is the same vector);
- ``erank``: the tokens' effective rank, exp of the entropy of Z's
  normalized singular values (Roy & Vetterli 2007; 1 for one vector);
- ``entropy``: the tap layer's mean attention entropy over heads and
  query rows, as a share of ln M (1 for uniform attention);
- ``alive``: the share of the tap layer's adapter units, relu(Z_ddot @
  W_down), that are positive on at least one token.

Each model runs twice: as built, where a layer's output is mlp(z_ddot) +
adapter(z_ddot), and with the MLP sublayer's skip connection, z_out =
z_hat + mlp(z_ddot) + adapter(z_ddot), the block of SAM's ViT and of
AdaptFormer (arXiv:2205.13535). The second patches
``encoder.layer_forward`` for the run, as ``test_learning.py``'s patch
rows patch the model; the model itself is unchanged.

    PYTHONPATH=src python tests/token_rank.py
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from voxseg import autodiff as ad
from voxseg import encoder as enc
from voxseg import model
from voxseg.config import model_spec_from_config
from voxseg.volume_io import generate_phantom

from conftest import tiny_config

INIT_SEEDS = (0, 1, 2)


def mlp_skip_layer(z_prev, p, heads):
    """``encoder.layer_forward`` with the MLP sublayer's skip connection."""
    z_dot = ad.layer_norm(z_prev, gain=p.norm1_g, shift=p.norm1_b)
    z_hat = ad.add(z_prev, enc.attention_forward(z_dot, p, heads))
    z_ddot = ad.layer_norm(z_hat, gain=p.norm2_g, shift=p.norm2_b)
    return ad.add(ad.add(z_hat, enc.mlp_forward(z_ddot, p)), enc.adapter_forward(z_ddot, p))


BLOCKS = {"as built": None, "mlp skip": mlp_skip_layer}


def centred_share(z):
    return float(np.linalg.norm(z - z.mean(axis=0)) / np.linalg.norm(z))


def effective_rank(z):
    sv = np.linalg.svd(z, compute_uv=False)
    share = sv[sv > 0] / sv.sum()
    return float(np.exp(-(share * np.log(share)).sum()))


def attention_entropy_share(z_dot, p, heads):
    """Mean entropy of the layer's attention rows over ln M, in f64."""
    m, c = z_dot.shape
    d = c // heads

    def split(w, b):
        return (z_dot @ w.numpy() + b.numpy()).reshape(m, heads, d).transpose(1, 0, 2)

    q, k = split(p.wq, p.bq), split(p.wk, p.bk)
    logits = q @ k.transpose(0, 2, 1) / math.sqrt(d)
    logits -= logits.max(axis=-1, keepdims=True)
    prob = np.exp(logits)
    prob /= prob.sum(axis=-1, keepdims=True)
    entropy = -(prob * np.log(np.maximum(prob, 1e-300))).sum(axis=-1)
    return float(entropy.mean() / math.log(m))


def alive_share(z_ddot, p):
    hidden = z_ddot @ p.adapter_down.numpy()
    return float((hidden > 0).any(axis=0).mean())


def tap_stats(spec, seed, volume, block=None):
    """{tap: (centred, erank, entropy, alive)} of one no-grad encoder run."""
    store = model.init_store(spec, seed)
    seen = {"attention": [], "adapter": []}
    attention, adapter = enc.attention_forward, enc.adapter_forward

    def watched_attention(z, p, heads):
        seen["attention"].append(attention_entropy_share(z.numpy().astype(np.float64), p, heads))
        return attention(z, p, heads)

    def watched_adapter(z, p):
        seen["adapter"].append(alive_share(z.numpy(), p))
        return adapter(z, p)

    with pytest.MonkeyPatch.context() as mp, ad.no_grad():
        mp.setattr(enc, "attention_forward", watched_attention)
        mp.setattr(enc, "adapter_forward", watched_adapter)
        if block is not None:
            mp.setattr(enc, "layer_forward", block)
        taps = enc.encode(model.embed_volume(ad.tensor(volume), spec, store), spec, store)
    tokens = {i: taps[i].numpy().astype(np.float64) for i in spec.taps}
    return {i: (centred_share(z), effective_rank(z), seen["attention"][i - 1],
                seen["adapter"][i - 1]) for i, z in tokens.items()}


def phantom(spec):
    seed = int(np.random.SeedSequence([3, 0]).generate_state(1)[0])
    return generate_phantom(seed, dims=spec.vol_dims, noise_sd=0.02)[0].data


def main(argv):
    models = {"desk": model.ModelSpec().validate(),
              "tiny": model_spec_from_config(tiny_config())}
    print(f"{'model':<6}{'block':<10}{'seed':>5}{'tap':>5}{'centred':>10}{'erank':>8}"
          f"{'entropy':>9}{'alive':>7}")
    for name, spec in models.items():
        volume = phantom(spec)
        for block_name, block in BLOCKS.items():
            for seed in INIT_SEEDS:
                stats = tap_stats(spec, seed, volume, block)
                for tap, (centred, erank, entropy, alive) in stats.items():
                    print(f"{name:<6}{block_name:<10}{seed:>5}{tap:>5}{centred:>10.4f}"
                          f"{erank:>8.2f}{entropy:>9.4f}{alive:>7.2f}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
