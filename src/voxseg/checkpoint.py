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
    return int(parts[1])


def load_checkpoint(path):
    """Read a checkpoint into plain structures.

    Returns (step, config_lines, entries, moments) where entries is a
    list of (name, frozen, array) and moments maps name -> (m, v).
    """
    with open(path, "rb") as fh:
        if fh.readline().strip() != _MAGIC:
            raise CheckpointError("bad_magic", f"{path} is not a DEAPCKPT1 file")
        step = _expect(fh.readline().decode(), "step")
        n_cfg = _expect(fh.readline().decode(), "config")
        config_lines = [fh.readline().decode().rstrip("\n") for _ in range(n_cfg)]
        n_entries = _expect(fh.readline().decode(), "entries")
        meta = []
        for _ in range(n_entries):
            parts = fh.readline().decode().split()
            if len(parts) < 4:
                raise CheckpointError("bad_header", f"malformed entry line {parts}")
            name, frozen, tag, ndim = parts[0], bool(int(parts[1])), parts[2], int(parts[3])
            dims = tuple(int(p) for p in parts[4 : 4 + ndim])
            if len(dims) != ndim or tag not in _TAGS:
                raise CheckpointError("bad_header", f"malformed entry line {parts}")
            meta.append((name, frozen, tag, dims))
        n_moments = _expect(fh.readline().decode(), "moments")
        payload = fh.read()

    offset = 0
    entries = []
    for name, frozen, tag, dims in meta:
        dtype = _TAGS[tag]
        nbytes = int(np.prod(dims, dtype=np.int64)) * dtype.itemsize if dims else dtype.itemsize
        arr = np.frombuffer(payload, dtype=dtype, count=max(1, int(np.prod(dims, dtype=np.int64))),
                            offset=offset).reshape(dims)
        offset += nbytes
        entries.append((name, frozen, arr.copy()))
    moments = {}
    trainable = [(name, tag, dims) for name, frozen, tag, dims in meta if not frozen]
    if n_moments:
        if n_moments != len(trainable):
            raise CheckpointError("bad_header", "moment count does not match trainable entries")
        for name, tag, dims in trainable:
            dtype = _TAGS[tag]
            count = max(1, int(np.prod(dims, dtype=np.int64)))
            m = np.frombuffer(payload, dtype=dtype, count=count, offset=offset).reshape(dims).copy()
            offset += count * dtype.itemsize
            v = np.frombuffer(payload, dtype=dtype, count=count, offset=offset).reshape(dims).copy()
            offset += count * dtype.itemsize
            moments[name] = (m, v)
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
    """Copy checkpoint arrays into an existing store, validating layout."""
    names, saved = store.names(), [n for n, _, _ in entries]
    if saved != names:
        in_ckpt = set(saved)
        extra = [n for n in saved if n not in store][:3]
        missing = [n for n in names if n not in in_ckpt][:3]
        raise CheckpointError("bad_header", "checkpoint entries do not match the store layout: "
                              f"only in the checkpoint {extra}, only in the store {missing}")
    for name, frozen, arr in entries:
        t = store[name]
        if t.data.shape != arr.shape:
            raise CheckpointError(
                "bad_header", f"shape mismatch for {name}: {arr.shape} vs {t.data.shape}"
            )
        t.data[...] = arr
        store.set_frozen(name, frozen)
