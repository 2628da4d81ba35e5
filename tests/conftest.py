"""Shared fixtures: fast tiny-model configs and phantom datasets."""

import numpy as np
import pytest

from voxseg.config import Config
from voxseg.train import synthesize_dataset


def tiny_config(**overrides):
    """A miniature but architecturally complete configuration.

    16^3 volumes, 4^3 patches (64 tokens), C=16: steps run in ~0.1 s so
    multi-step training tests stay cheap.
    """
    cfg = Config.default()
    base = {
        "data.dims": "16,16,16",
        "model.embed_dim": "16",
        "encoder.heads": "2",
        "encoder.adapter_dim": "4",
        "prompter.n": "16",
        "decoder.channels": "8",
        "train.epochs": "2",
        "train.batch_size": "2",
    }
    base.update({k: str(v) for k, v in overrides.items()})
    for key, val in base.items():
        cfg.override(key, val)
    return cfg


@pytest.fixture(scope="session")
def tiny_dataset(tmp_path_factory):
    """Six 16^3 phantoms shared across training tests."""
    root = tmp_path_factory.mktemp("tiny_data")
    ids = synthesize_dataset(str(root), cases=6, seed=11, dims=(16, 16, 16),
                             lesions=1, noise_sd=0.02)
    return str(root), ids


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
