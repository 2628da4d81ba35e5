"""Command-line surface.

Subcommands:
    synth      emit a deterministic phantom dataset
    train      train per a key=value config file
    eval       score a checkpoint on a dataset split
    flops      print the whole model's analytic cost table (no tensor execution)
    gradcheck  run the full gradient-verification suite

The paper's prompt-layer ablation is one ``voxseg train --set
prompter.layer=N`` run per placement (N in 3, 6, 9, 12).

Every run prints the fully resolved configuration. Exit codes: 0 ok,
1 runtime failure, 2 usage error. DEAP_THREADS pins BLAS threads when
set before process start.
"""

from __future__ import annotations

import argparse
import logging
import sys

from . import __version__
from .config import Config, model_spec_from_config


def _parse_triple(text):
    parts = tuple(int(p) for p in text.split(","))
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"need three comma-separated ints, got {text!r}")
    return parts


def _load_config(args):
    cfg = Config.load(args.config) if args.config else Config.default()
    for item in getattr(args, "override", None) or []:
        if "=" not in item:
            raise SystemExit(f"--set expects key=value, got {item!r}")
        key, val = item.split("=", 1)
        cfg.override(key.strip(), val.strip())
    return cfg


def _echo(cfg):
    print("# resolved configuration")
    cfg.echo()
    print("# end configuration")


def build_parser():
    top = argparse.ArgumentParser(prog="voxseg", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("--version", action="version", version=f"voxseg {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a phantom dataset")
    p.add_argument("--cases", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--dims", type=_parse_triple, default=(32, 32, 32))
    p.add_argument("--lesions", type=int, default=1)
    p.add_argument("--noise", type=float, default=0.02)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--set", dest="override", action="append", metavar="KEY=VALUE",
                   help="override one config key (repeatable)")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--resume", default=None, help="checkpoint to resume from")

    p = sub.add_parser("eval", help="score a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=["train", "val", "test", "all"], default="all")
    p.add_argument("--emit-csv", default=None)

    p = sub.add_parser("flops", help="analytic cost accounting")
    p.add_argument("--config", default=None)
    p.add_argument("--set", dest="override", action="append", metavar="KEY=VALUE")

    p = sub.add_parser("gradcheck", help="run the gradient-verification suite")
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    return top


def _cmd_synth(args):
    from .train import synthesize_dataset

    ids = synthesize_dataset(args.out, args.cases, args.seed, dims=args.dims,
                             lesions=args.lesions, noise_sd=args.noise)
    print(f"wrote {len(ids)} cases to {args.out}")
    return 0


def _cmd_train(args):
    from .train import train

    cfg = _load_config(args)
    _echo(cfg)
    result = train(cfg, args.data, args.out, resume=args.resume, quiet=False)
    if result.aborted:
        print("training aborted on a non-finite value; last good checkpoint kept")
        return 1
    final = result.history[-1] if result.history else {}
    print(f"done: {len(result.loss_trace)} steps, "
          f"final train_dice={final.get('train_dice')}, "
          f"checkpoints: {result.last_checkpoint} best={result.best_checkpoint}")
    return 0


def _cmd_eval(args):
    from . import checkpoint as ckpt
    from .train import evaluate_cases, list_cases
    from .volume_io import split_dataset

    _step, config_lines, entries, _moments = ckpt.load_checkpoint(args.checkpoint)
    cfg = Config.from_lines(config_lines, source=args.checkpoint)
    _echo(cfg)
    spec = model_spec_from_config(cfg)
    store = ckpt.store_from_entries(entries)

    case_ids = list_cases(args.data)
    if args.split != "all":
        split = split_dataset(
            case_ids,
            (cfg.get_float("split.train"), cfg.get_float("split.val"),
             cfg.get_float("split.test")),
            seed=cfg.get_int("split.seed"),
        )
        case_ids = getattr(split, args.split)
    tau = cfg.get_float("eval.tau")
    reports = evaluate_cases(spec, store, args.data, case_ids, tau=tau)
    lines = [f"{cid}\t{r.dice:.6f}\t{r.nsd:.6f}\t{r.tau}" for cid, r in reports]
    for line in lines:
        print(line)
    if reports:
        import numpy as np

        print(f"mean\t{np.mean([r.dice for _, r in reports]):.6f}"
              f"\t{np.mean([r.nsd for _, r in reports]):.6f}\t{tau}")
    if args.emit_csv:
        with open(args.emit_csv, "w", encoding="utf-8") as fh:
            fh.write("case_id,dice,nsd,tau\n")
            for cid, r in reports:
                fh.write(f"{cid},{r.dice},{r.nsd},{r.tau}\n")
    return 0


def _cmd_flops(args):
    from . import costs

    cfg = _load_config(args)
    _echo(cfg)
    print(costs.count_cost(model_spec_from_config(cfg)).render())
    return 0


def _cmd_gradcheck(args):
    from .verify import run_gradcheck_suite

    results = run_gradcheck_suite(instances=args.instances, seed=args.seed,
                                  log_fn=print)
    bad = [r for r in results if not r.passed]
    print(f"{len(results) - len(bad)}/{len(results)} cases passed")
    return 1 if bad else 0


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    handler = {
        "synth": _cmd_synth,
        "train": _cmd_train,
        "eval": _cmd_eval,
        "flops": _cmd_flops,
        "gradcheck": _cmd_gradcheck,
    }[args.command]
    try:
        return handler(args)
    except Exception as exc:  # runtime failure -> exit 1 with a message
        logging.getLogger(__name__).error("%s: %s", type(exc).__name__, exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
