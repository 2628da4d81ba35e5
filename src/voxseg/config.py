"""Flat key=value configuration with dotted keys.

Files are plain text: one ``key = value`` per line, '#' starts a
comment. Every key must exist in DEFAULTS (typos fail fast); every run
echoes the fully resolved configuration so logs pin down the exact
settings bit-for-bit. A removed switch (``_RETIRED``) is still read at
the value the model kept, so older files and checkpoints load.
"""

from __future__ import annotations

from dataclasses import dataclass


class ConfigError(Exception):
    pass


# key -> default value as text; 'auto' defers to a derived value at build time.
DEFAULTS = {
    "model.embed_dim": "64",
    "model.layers": "12",
    "model.mlp_ratio": "4",
    "patch.h": "4",
    "patch.w": "4",
    "patch.d": "4",
    "encoder.heads": "4",
    "encoder.adapter_dim": "auto",  # auto = embed_dim // 4
    "encoder.taps": "3,6,9,12",
    "prompter.n": "64",
    "prompter.layer": "12",
    "decoder.channels": "16",
    "decoder.no_image_branch": "false",
    "data.dims": "32,32,32",
    "split.train": "0.7",
    "split.val": "0.1",
    "split.test": "0.2",
    "split.seed": "0",
    "train.lr": "2e-4",
    "train.beta1": "0.9",
    "train.beta2": "0.999",
    "train.weight_decay": "0.01",
    "train.eps": "1e-8",
    "train.epochs": "60",
    "train.batch_size": "2",
    "train.seed": "0",
    "train.max_steps": "0",  # 0 = no cap
    "train.eval_every": "1",
    "train.target_dice": "0.0",  # early stop on train DICE; 0 disables
    "augment.flip_h": "0.0",
    "augment.flip_w": "0.0",
    "augment.flip_d": "0.0",
    "eval.tau": "1.0",
    "loss.smooth": "1e-5",
}

_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}

# Removed switches, each with the one value the model kept (a boolean
# matches in any _BOOL spelling, a number by value). Older config files and
# checkpoints that set one to that value still load, and the key is
# dropped; any other value is refused by name.
_RETIRED = {
    "model.activation": "gelu",
    "prompter.share_qk": True,
    "prompter.scaling": True,
    "flops.mac": "2",
    "patch.mode": "pseudo3d",
    "decoder.share_image_branch": False,
    "data.channels": 1,
    "encoder.scale": 1.0,
    "train.precision": "f32",
}


def _is_kept(kept, text):
    if isinstance(kept, bool):
        return _BOOL.get(text.lower()) is kept
    if isinstance(kept, (int, float)):
        try:
            return float(text) == kept
        except ValueError:
            return False
    return text == kept


@dataclass
class Config:
    values: dict

    @classmethod
    def default(cls):
        return cls(values=dict(DEFAULTS))

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_lines(fh, source=path)

    @classmethod
    def from_lines(cls, lines, source="config"):
        """Defaults overridden by ``key = value`` lines: a config file's or
        a checkpoint's saved ``resolved_lines()``."""
        cfg = cls.default()
        for lineno, line in enumerate(lines, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"{source}:{lineno}: expected key = value, got {line!r}")
            key, raw = (s.strip() for s in body.split("=", 1))
            try:
                cfg.override(key, raw)
            except ConfigError as exc:
                raise ConfigError(f"{source}:{lineno}: {exc}") from None
        return cfg

    def override(self, key, raw):
        if key in _RETIRED:
            kept = _RETIRED[key]
            if not _is_kept(kept, str(raw).strip()):
                raise ConfigError(f"{key} was removed; the model always runs as "
                                  f"{key} = {str(kept).lower()}, got {raw!r}")
            return self
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
        patch=(cfg.get_int("patch.h"), cfg.get_int("patch.w"), cfg.get_int("patch.d")),
        embed_dim=embed,
        heads=cfg.get_int("encoder.heads"),
        layers=cfg.get_int("model.layers"),
        mlp_ratio=cfg.get_int("model.mlp_ratio"),
        adapter_dim=adapter,
        taps=cfg.get_int_tuple("encoder.taps"),
        prompt_n=cfg.get_int("prompter.n"),
        prompt_layer=cfg.get_int("prompter.layer"),
        dec_channels=cfg.get_int("decoder.channels"),
        no_image_branch=cfg.get_bool("decoder.no_image_branch"),
    ).validate()
