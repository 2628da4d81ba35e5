"""Learning gate: the tiny model learns the phantoms, and the paper's
decoder ablation shows on them.

Protocol of one row: the tiny config of ``conftest.tiny_config`` with
the row's overrides, lr 2e-4, batch 2, 9 epochs, trained on 20 phantoms
of 16^3 from one data seed (noise 0.02, split 14 train / 2 val / 4
test). The row is the trained model's mean DICE on 8 held-out phantoms,
``synthesize_dataset(..., 8, 999)``. A row takes about 7.5 s on 2 vCPU.

Rows at data seeds 11 / 12 / 13:

    default                         0.771 / 0.806 / 0.820
    decoder.no_image_branch=true    0.257 / 0.375 / 0.265

Tier-1 trains the two rows at data seed 11 and requires
- the default row to reach ``DICE_FLOOR``, 0.12 below the worst seed;
- the no-image-branch row (the paper's decoder ablation) to sit at least
  ``ABLATION_GAP`` below the default; the smallest gap above is 0.43.

Run as a script it prints the row of every switch the model keeps, at
the given data seeds (default 11):

    PYTHONPATH=src python tests/test_learning.py 11 12 13
"""

from __future__ import annotations

import functools
import os
import sys
import tempfile

import numpy as np
import pytest

from voxseg.train import evaluate_cases, list_cases, synthesize_dataset, train

from conftest import tiny_config

DATA_SEED = 11
DICE_FLOOR = 0.65
ABLATION_GAP = 0.25
NO_IMAGE = "decoder.no_image_branch=true"
ROWS = {
    "default": {},
    NO_IMAGE: {"decoder.no_image_branch": "true"},
    "decoder.share_image_branch=true": {"decoder.share_image_branch": "true"},
    "patch.mode=true3d": {"patch.mode": "true3d"},
    "prompter.layer=6": {"prompter.layer": "6"},
}
DIMS = (16, 16, 16)


def heldout_dice(root, data_seed, overrides):
    """Mean held-out DICE of the tiny model trained per the protocol;
    datasets are made under ``root`` on first use."""
    data = os.path.join(root, f"data{data_seed}")
    heldout = os.path.join(root, "heldout")
    if not os.path.isdir(data):
        synthesize_dataset(data, 20, data_seed, dims=DIMS, noise_sd=0.02)
    if not os.path.isdir(heldout):
        synthesize_dataset(heldout, 8, 999, dims=DIMS, noise_sd=0.02)
    cfg = tiny_config(**{"train.lr": "2e-4", "train.batch_size": "2",
                         "train.epochs": "9"}, **overrides)
    out = tempfile.mkdtemp(dir=root)
    res = train(cfg, data, out)
    reports = evaluate_cases(res.spec, res.store, heldout, list_cases(heldout),
                             tau=cfg.get_float("eval.tau"))
    return float(np.mean([r.dice for _, r in reports]))


@pytest.fixture(scope="module")
def row(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("learning"))
    return functools.cache(lambda name: heldout_dice(root, DATA_SEED, ROWS[name]))


def test_default_reaches_dice_floor(row):
    assert row("default") >= DICE_FLOOR


def test_decoder_ablation_falls_below_default(row):
    assert row("default") - row(NO_IMAGE) >= ABLATION_GAP


def main(argv):
    seeds = [int(s) for s in argv] or [DATA_SEED]
    print(f"{'row':<34}" + "".join(f"{'seed ' + str(s):>10}" for s in seeds))
    with tempfile.TemporaryDirectory() as root:
        for name, overrides in ROWS.items():
            dice = [heldout_dice(root, s, overrides) for s in seeds]
            print(f"{name:<34}" + "".join(f"{d:>10.3f}" for d in dice), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
