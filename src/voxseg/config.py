"""Flat key=value configuration with dotted keys.

Files are plain text: one ``key = value`` per line, '#' starts a
comment. Every key must exist in DEFAULTS (typos fail fast); every run
echoes the fully resolved configuration so logs pin down the exact
settings bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass


class ConfigError(Exception):
    pass


# value = (default, parser). 'auto' defers to a derived value at build time.
DEFAULTS = {
    "model.embed_dim": ("64", int),
    "model.layers": ("12", int),
    "model.mlp_ratio": ("4", int),
    "model.activation": ("gelu", str),
    "patch.h": ("4", int),
    "patch.w": ("4", int),
    "patch.d": ("4", int),
    "patch.mode": ("pseudo3d", str),
    "encoder.heads": ("4", int),
    "encoder.adapter_dim": ("auto", str),  # auto = embed_dim // 4
    "encoder.scale": ("1.0", float),
    "encoder.taps": ("3,6,9,12", str),
    "prompter.n": ("64", int),
    "prompter.share_qk": ("true", None),
    "prompter.layer": ("12", int),
    "prompter.scaling": ("true", None),
    "decoder.channels": ("16", int),
    "decoder.no_image_branch": ("false", None),
    "decoder.share_image_branch": ("false", None),
    "data.dims": ("32,32,32", str),
    "data.channels": ("1", int),
    "split.train": ("0.7", float),
    "split.val": ("0.1", float),
    "split.test": ("0.2", float),
    "split.seed": ("0", int),
    "train.lr": ("2e-4", float),
    "train.beta1": ("0.9", float),
    "train.beta2": ("0.999", float),
    "train.weight_decay": ("0.01", float),
    "train.eps": ("1e-8", float),
    "train.epochs": ("60", int),
    "train.batch_size": ("2", int),
    "train.seed": ("0", int),
    "train.precision": ("f32", str),
    "train.max_steps": ("0", int),  # 0 = no cap
    "train.eval_every": ("1", int),
    "train.target_dice": ("0.0", float),  # early stop on train DICE; 0 disables
    "augment.flip_h": ("0.0", float),
    "augment.flip_w": ("0.0", float),
    "augment.flip_d": ("0.0", float),
    "eval.tau": ("1.0", float),
    "loss.smooth": ("1e-5", float),
    "flops.mac": ("2", int),
}

_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


@dataclass
class Config:
    values: dict

    @classmethod
    def default(cls):
        return cls(values={k: v for k, (v, _) in DEFAULTS.items()})

    @classmethod
    def load(cls, path):
        cfg = cls.default()
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                body = line.split("#", 1)[0].strip()
                if not body:
                    continue
                if "=" not in body:
                    raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
                key, raw = (s.strip() for s in body.split("=", 1))
                if key not in DEFAULTS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                cfg.values[key] = raw
        return cfg

    def override(self, key, raw):
        if key not in DEFAULTS:
            raise ConfigError(f"unknown key {key!r}")
        self.values[key] = str(raw)
        return self

    def raw(self, key):
        try:
            return self.values[key]
        except KeyError:
            raise ConfigError(f"unknown key {key!r}") from None

    def get_int(self, key):
        try:
            return int(self.raw(key))
        except ValueError:
            raise ConfigError(f"{key}: cannot parse int from {self.raw(key)!r}") from None

    def get_float(self, key):
        try:
            return float(self.raw(key))
        except ValueError:
            raise ConfigError(f"{key}: cannot parse float from {self.raw(key)!r}") from None

    def get_bool(self, key):
        try:
            return _BOOL[self.raw(key).strip().lower()]
        except KeyError:
            raise ConfigError(f"{key}: cannot parse boolean from {self.raw(key)!r}") from None

    def get_str(self, key):
        return self.raw(key)

    def get_int_tuple(self, key):
        try:
            return tuple(int(s) for s in self.raw(key).split(","))
        except ValueError:
            raise ConfigError(f"{key}: cannot parse int list from {self.raw(key)!r}") from None

    def resolved_lines(self):
        """Exact echo of the effective configuration, sorted by key."""
        return [f"{k} = {self.values[k]}" for k in sorted(self.values)]

    def echo(self, out=print):
        for line in self.resolved_lines():
            out(line)


def model_spec_from_config(cfg: Config):
    """Build the architectural record a Config describes."""
    from .model import ModelSpec

    embed = cfg.get_int("model.embed_dim")
    auto = cfg.get_str("encoder.adapter_dim") == "auto"
    adapter = embed // 4 if auto else cfg.get_int("encoder.adapter_dim")
    return ModelSpec(
        vol_dims=cfg.get_int_tuple("data.dims"),
        in_channels=cfg.get_int("data.channels"),
        patch=(cfg.get_int("patch.h"), cfg.get_int("patch.w"), cfg.get_int("patch.d")),
        patch_mode=cfg.get_str("patch.mode"),
        embed_dim=embed,
        heads=cfg.get_int("encoder.heads"),
        layers=cfg.get_int("model.layers"),
        mlp_ratio=cfg.get_int("model.mlp_ratio"),
        adapter_dim=adapter,
        adapter_scale=cfg.get_float("encoder.scale"),
        activation=cfg.get_str("model.activation"),
        taps=cfg.get_int_tuple("encoder.taps"),
        prompt_n=cfg.get_int("prompter.n"),
        prompt_layer=cfg.get_int("prompter.layer"),
        share_qk=cfg.get_bool("prompter.share_qk"),
        attn_scaling=cfg.get_bool("prompter.scaling"),
        dec_channels=cfg.get_int("decoder.channels"),
        no_image_branch=cfg.get_bool("decoder.no_image_branch"),
        share_image_branch=cfg.get_bool("decoder.share_image_branch"),
    ).validate()
