"""DEAPCKPT1 checkpoint container.

Self-describing single file: a text header (step counter, the exact
resolved-config echo, one line per parameter entry), then a raw
little-endian payload holding every parameter array in declared order
followed by the optimizer's first/second moments for each trainable
entry in the same order. Loading restores training bit-exactly at a
fixed thread count. A save replaces the file only once it is complete,
so a crash mid-write leaves the previous checkpoint intact.
"""

from __future__ import annotations

import numpy as np

from .autodiff import ParameterStore, tensor
from .volume_io import atomic_write

_MAGIC = b"DEAPCKPT1"
_TAGS = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
_TAG_OF = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}


class CheckpointError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def save_checkpoint(path, store: ParameterStore, optimizer=None, step=0,
                    config_lines=()):
    entries = store.items()
    trainable = [name for name, _, frozen in entries if not frozen]
    state = optimizer.state() if optimizer is not None else {"step": step, "m": {}, "v": {}}
    if optimizer is not None:
        step = state["step"]
    header = [_MAGIC.decode(), f"step {step}", f"config {len(config_lines)}"]
    header += list(config_lines)
    header.append(f"entries {len(entries)}")
    for name, t, frozen in entries:
        tag = _TAG_OF[np.dtype(t.data.dtype)]
        dims = " ".join(str(s) for s in t.data.shape)
        ndim = t.data.ndim
        header.append(f"{name} {int(frozen)} {tag} {ndim}{' ' + dims if dims else ''}")
    has_moments = optimizer is not None
    header.append(f"moments {len(trainable) if has_moments else 0}")
    with atomic_write(path) as fh:
        fh.write(("\n".join(header) + "\n").encode("utf-8"))
        for _, t, _ in entries:
            fh.write(np.ascontiguousarray(t.data, dtype=_le(t.data.dtype)).tobytes())
        if has_moments:
            for name in trainable:
                fh.write(np.ascontiguousarray(state["m"][name]).astype(
                    _le(store[name].data.dtype), copy=False).tobytes())
                fh.write(np.ascontiguousarray(state["v"][name]).astype(
                    _le(store[name].data.dtype), copy=False).tobytes())


def _le(dtype):
    return _TAGS[_TAG_OF[np.dtype(dtype)]]


def _expect(line, key):
    parts = line.split()
    if len(parts) != 2 or parts[0] != key:
        raise CheckpointError("bad_header", f"expected '{key} <n>', got {line!r}")
    n = int(parts[1])
    if n < 0:
        raise CheckpointError("bad_header", f"negative {key} {n}")
    return n


def _read_header(fh):
    """(step, config lines, entry metadata, moment count) from the header
    lines after the magic. A non-integer count or dimension, or bytes that
    are not UTF-8, raise ValueError; a misshapen line, a negative step,
    count or dimension, or a freeze flag other than 0 or 1
    ``CheckpointError``."""

    def line():
        return fh.readline().decode()

    step = _expect(line(), "step")
    n_cfg = _expect(line(), "config")
    config_lines = [line().rstrip("\n") for _ in range(n_cfg)]
    n_entries = _expect(line(), "entries")
    meta = []
    for _ in range(n_entries):
        parts = line().split()
        if len(parts) < 4:
            raise CheckpointError("bad_header", f"malformed entry line {parts}")
        name, flag, tag, ndim = parts[0], parts[1], parts[2], int(parts[3])
        dims = tuple(int(p) for p in parts[4 : 4 + ndim])
        if (len(dims) != ndim or flag not in ("0", "1") or tag not in _TAGS
                or any(d < 0 for d in dims)):
            raise CheckpointError("bad_header", f"malformed entry line {parts}")
        meta.append((name, flag == "1", tag, dims))
    return step, config_lines, meta, _expect(line(), "moments")


def load_checkpoint(path):
    """Read a checkpoint into plain structures.

    Returns (step, config_lines, entries, moments) where entries is a
    list of (name, frozen, array) and moments maps name -> (m, v). A
    malformed header raises ``CheckpointError("bad_header")``, a payload
    shorter or longer than the header declares
    ``CheckpointError("payload_mismatch")``.
    """
    with open(path, "rb") as fh:
        if fh.readline().strip() != _MAGIC:
            raise CheckpointError("bad_magic", f"{path} is not a DEAPCKPT1 file")
        try:
            step, config_lines, meta, n_moments = _read_header(fh)
        except ValueError as exc:
            raise CheckpointError("bad_header", f"{path}: malformed header: {exc}") from exc
        payload = fh.read()

    offset = 0

    def take(name, tag, dims):
        """The next array of the payload, checked against its length."""
        nonlocal offset
        dtype = _TAGS[tag]
        count = int(np.prod(dims, dtype=np.int64))
        end = offset + count * dtype.itemsize
        if end > len(payload):
            raise CheckpointError(
                "payload_mismatch",
                f"payload length mismatch: {name} needs bytes {offset}..{end} of {len(payload)}",
            )
        arr = np.frombuffer(payload, dtype=dtype, count=count, offset=offset).reshape(dims)
        offset = end
        return arr.copy()

    entries = [(name, frozen, take(name, tag, dims)) for name, frozen, tag, dims in meta]
    moments = {}
    trainable = [(name, tag, dims) for name, frozen, tag, dims in meta if not frozen]
    if n_moments:
        if n_moments != len(trainable):
            raise CheckpointError("bad_header", "moment count does not match trainable entries")
        for name, tag, dims in trainable:
            moments[name] = (take(name, tag, dims), take(name, tag, dims))
    if offset != len(payload):
        raise CheckpointError(
            "payload_mismatch",
            f"payload length mismatch: consumed {offset} of {len(payload)} bytes",
        )
    return step, config_lines, entries, moments


def store_from_entries(entries) -> ParameterStore:
    store = ParameterStore()
    for name, frozen, arr in entries:
        store.add(name, tensor(arr, dtype=arr.dtype), frozen=frozen)
    return store


def restore_into(store: ParameterStore, entries):
    """Copy checkpoint arrays into an existing store, validating layout:
    names in order, shapes and freeze flags must all match the store's."""
    names, saved = store.names(), [n for n, _, _ in entries]
    if saved != names:
        in_ckpt = set(saved)
        extra = [n for n in saved if n not in store][:3]
        missing = [n for n in names if n not in in_ckpt][:3]
        raise CheckpointError("bad_header", "checkpoint entries do not match the store layout: "
                              f"only in the checkpoint {extra}, only in the store {missing}")
    for (name, t, frozen), (_, saved_frozen, arr) in zip(store.items(), entries):
        if t.data.shape != arr.shape:
            raise CheckpointError(
                "bad_header", f"shape mismatch for {name}: {arr.shape} vs {t.data.shape}"
            )
        if saved_frozen != frozen:
            raise CheckpointError(
                "bad_header", f"freeze flag mismatch for {name}: {int(saved_frozen)} in the "
                f"checkpoint, {int(frozen)} in the store"
            )
        t.data[...] = arr
