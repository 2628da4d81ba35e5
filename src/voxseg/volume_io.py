"""Volumetric containers, the DEAPVOL1 file format, synthetic phantoms,
and dataset splitting.

DEAPVOL1 is a deliberately tiny bit-exact container: five fixed-order
text header lines followed by a raw little-endian payload.

    DEAPVOL1
    dims <H> <W> <D>
    channels 1
    spacing <sx> <sy> <sz>
    dtype f32|u8

Channels is always 1: the model reads single-channel CT, so every writer
puts ``channels 1`` and every reader refuses any other count as
``bad_header``. Payload order is H-major, then W, then D (C-order of an
(H, W, D, 1) array). The spacing is the voxel size along H, W and D, in
millimetres. Masks use the same container with dtype u8. Writes are
atomic (``atomic_write``): a file is either its old or its new bytes.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass

import numpy as np


class VolumeError(Exception):
    """Raised on malformed containers / invalid generator arguments.

    ``code`` is a stable tag: bad_magic, bad_header, payload_mismatch,
    non_finite, bad_values, bad_args.
    """

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


@dataclass
class Volume:
    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    data: np.ndarray  # (H, W, D, 1) float32

    def validate(self):
        h, w, d = self.dims
        if self.data.shape != (h, w, d, 1):
            raise VolumeError("bad_values", "data shape does not match dims x 1 channel")
        if self.data.dtype != np.float32:
            raise VolumeError("bad_values", f"volume dtype must be float32, got {self.data.dtype}")
        if any(s <= 0 for s in self.spacing):
            raise VolumeError("bad_values", "spacing components must be positive")
        if not np.all(np.isfinite(self.data)):
            raise VolumeError("non_finite", "volume contains non-finite values")
        return self


@dataclass
class Mask:
    dims: tuple[int, int, int]
    data: np.ndarray  # (H, W, D) uint8 in {0, 1}

    def validate(self):
        if self.data.shape != tuple(self.dims):
            raise VolumeError("bad_values", "mask shape does not match dims")
        if self.data.dtype != np.uint8:
            raise VolumeError("bad_values", f"mask dtype must be uint8, got {self.data.dtype}")
        bad = np.setdiff1d(np.unique(self.data), [0, 1])
        if bad.size:
            raise VolumeError("bad_values", f"mask values outside {{0,1}}: {bad[:4]}")
        return self


@dataclass
class DatasetSplit:
    train: list[str]
    val: list[str]
    test: list[str]
    seed: int


# ---------------------------------------------------------------------------
# DEAPVOL1 container
# ---------------------------------------------------------------------------

_MAGIC = b"DEAPVOL1"
_DTYPE_TAGS = {"f32": np.dtype("<f4"), "u8": np.dtype("u1")}


def _format_spacing(s):
    return " ".join(repr(float(v)) for v in s)


@contextlib.contextmanager
def atomic_write(path):
    """Binary file handle whose contents replace ``path`` only when complete.

    Writes go to ``<path>.tmp`` in the same directory, which is fsynced and
    then renamed over ``path``; if the block raises, the temp file is
    removed and ``path`` keeps its old bytes.
    """
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _write_container(path, dims, spacing, tag, payload):
    header = (
        _MAGIC
        + b"\n"
        + f"dims {dims[0]} {dims[1]} {dims[2]}\n".encode()
        + b"channels 1\n"
        + f"spacing {_format_spacing(spacing)}\n".encode()
        + f"dtype {tag}\n".encode()
    )
    with atomic_write(path) as fh:
        fh.write(header)
        fh.write(payload.astype(_DTYPE_TAGS[tag], copy=False).tobytes(order="C"))


def _read_header_line(fh, key, count, conv):
    raw = fh.readline().decode("ascii", errors="replace").strip()
    parts = raw.split()
    if len(parts) != count + 1 or parts[0] != key:
        raise VolumeError("bad_header", f"expected '{key}' line, got {raw!r}")
    try:
        return tuple(conv(p) for p in parts[1:])
    except ValueError as exc:
        raise VolumeError("bad_header", f"cannot parse '{key}' line: {raw!r}") from exc


def _read_container(path):
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != _MAGIC:
            raise VolumeError("bad_magic", f"not a DEAPVOL1 file: magic {magic!r}")
        dims = _read_header_line(fh, "dims", 3, int)
        (channels,) = _read_header_line(fh, "channels", 1, int)
        spacing = _read_header_line(fh, "spacing", 3, float)
        (tag,) = _read_header_line(fh, "dtype", 1, str)
        if tag not in _DTYPE_TAGS:
            raise VolumeError("bad_header", f"unknown dtype tag {tag!r}")
        if min(dims) < 1:
            raise VolumeError("bad_header", f"non-positive dims: {dims}")
        if channels != 1:
            raise VolumeError("bad_header", f"a container holds 1 channel, found {channels}")
        dtype = _DTYPE_TAGS[tag]
        count = dims[0] * dims[1] * dims[2]
        raw = fh.read()
    expected = count * dtype.itemsize
    if len(raw) != expected:
        raise VolumeError(
            "payload_mismatch",
            f"payload length mismatch: header implies {expected} bytes, file has {len(raw)}",
        )
    data = np.frombuffer(raw, dtype=dtype).reshape(dims + (1,))
    return dims, spacing, tag, data


def write_volume(volume: Volume, path):
    volume.validate()
    _write_container(path, volume.dims, volume.spacing, "f32", volume.data)


def read_volume(path) -> Volume:
    dims, spacing, tag, data = _read_container(path)
    if tag != "f32":
        raise VolumeError("bad_header", f"expected an f32 volume, found dtype {tag}")
    vol = Volume(dims=dims, spacing=spacing, data=np.ascontiguousarray(data, dtype=np.float32))
    return vol.validate()


def write_mask(mask: Mask, path, spacing=(1.0, 1.0, 1.0)):
    mask.validate()
    _write_container(path, mask.dims, spacing, "u8", mask.data[..., None])


def read_mask(path) -> Mask:
    dims, _spacing, tag, data = _read_container(path)
    if tag != "u8":
        raise VolumeError("bad_header", f"expected a u8 mask, found dtype {tag}")
    msk = Mask(dims=dims, data=np.ascontiguousarray(data[..., 0]))
    return msk.validate()


# ---------------------------------------------------------------------------
# synthetic phantoms
# ---------------------------------------------------------------------------


def _smooth_field(rng, dims, coarse, lo, hi):
    """Trilinear interpolation of a coarse uniform grid onto ``dims``."""
    grid = rng.uniform(lo, hi, size=(coarse, coarse, coarse))
    out = grid
    for axis, n in enumerate(dims):
        src = np.linspace(0.0, coarse - 1.0, n)
        i0 = np.clip(np.floor(src).astype(int), 0, coarse - 2)
        frac = src - i0
        moved = np.moveaxis(out, axis, 0)
        interp = moved[i0] * (1.0 - frac).reshape((-1,) + (1,) * (moved.ndim - 1)) + \
            moved[i0 + 1] * frac.reshape((-1,) + (1,) * (moved.ndim - 1))
        out = np.moveaxis(interp, 0, axis)
    return out


def _random_rotation(rng):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _rasterize_blob(rng, dims, center, semiaxes, exponent, wobble):
    """Superellipsoid with a smooth multiplicative surface perturbation."""
    rot = _random_rotation(rng)
    noise = _smooth_field(rng, dims, coarse=4, lo=-wobble, hi=wobble)
    coords = np.stack(
        np.meshgrid(*[np.arange(n, dtype=np.float64) for n in dims], indexing="ij"),
        axis=-1,
    )
    rel = (coords - np.asarray(center)) @ rot.T
    scaled = np.abs(rel) / np.asarray(semiaxes)
    rho = (scaled ** exponent).sum(axis=-1)
    return (rho <= 1.0 + noise).astype(np.uint8)


def phantom_components(seed, dims=(32, 32, 32), lesion_count=1, noise_sd=0.0):
    """Phantom plus the individual lesion masks it was assembled from.

    Deterministic in all arguments. Lesion centers are rejection-sampled
    to keep blobs disjoint; running out of room raises VolumeError.
    """
    dims = tuple(int(d) for d in dims)
    if any(d < 16 for d in dims):
        raise VolumeError("bad_args", f"dims {dims} too small: each axis must be >= 16 to fit a lesion")
    if lesion_count < 1:
        raise VolumeError("bad_args", "lesion_count must be >= 1")
    if noise_sd < 0:
        raise VolumeError("bad_args", "noise_sd must be >= 0")

    rng = np.random.default_rng(np.random.SeedSequence([0x6F56, int(seed)]))
    background = _smooth_field(rng, dims, coarse=5, lo=0.08, hi=0.30)

    center = np.asarray(dims) / 2.0 + rng.uniform(-2.0, 2.0, size=3)
    organ_axes = np.asarray(dims) * rng.uniform(0.30, 0.40, size=3)
    organ = _rasterize_blob(rng, dims, center, organ_axes, exponent=2.0, wobble=0.08)

    max_semi = min(dims) / 5.0
    lesions = []
    centers, radii = [], []
    for _ in range(lesion_count):
        for attempt in range(200):
            semiaxes = rng.uniform(2.5, max_semi, size=3)
            margin = semiaxes.max() * 1.2 + 1.0
            cand = rng.uniform(margin, np.asarray(dims) - margin)
            reach = semiaxes.max() * 1.2
            if all(
                np.linalg.norm(cand - c) > reach + r + 1.0
                for c, r in zip(centers, radii)
            ):
                break
        else:
            raise VolumeError(
                "bad_args",
                f"could not place {lesion_count} disjoint lesions in dims {dims}",
            )
        exponent = rng.uniform(1.6, 2.8)
        blob = _rasterize_blob(rng, dims, cand, semiaxes, exponent, wobble=0.12)
        if not blob.any():  # degenerate draw; center voxel always qualifies otherwise
            blob[tuple(np.round(cand).astype(int))] = 1
        lesions.append(blob)
        centers.append(cand)
        radii.append(reach)

    union = np.zeros(dims, dtype=np.uint8)
    for blob in lesions:
        union |= blob

    intensity = background + 0.25 * organ + 0.35 * union
    if noise_sd > 0:
        intensity = intensity + rng.normal(0.0, noise_sd, size=dims)
    lo, hi = intensity.min(), intensity.max()
    if hi > lo:
        intensity = (intensity - lo) / (hi - lo)
    else:
        intensity = np.zeros(dims)

    volume = Volume(
        dims=dims,
        spacing=(1.0, 1.0, 1.0),
        data=intensity.astype(np.float32)[..., None],
    ).validate()
    mask = Mask(dims=dims, data=union).validate()
    return volume, mask, lesions


def generate_phantom(seed, dims=(32, 32, 32), lesion_count=1, noise_sd=0.0):
    """Synthetic labeled case: smooth background, one organ, bright lesions."""
    volume, mask, _ = phantom_components(seed, dims, lesion_count, noise_sd)
    return volume, mask


# ---------------------------------------------------------------------------
# dataset splits
# ---------------------------------------------------------------------------


def split_dataset(case_ids, ratios=(0.7, 0.1, 0.2), seed=0) -> DatasetSplit:
    """Deterministic train/val/test partition.

    Val/test sizes are the rounded ratios; the remainder goes to train
    (maximizes training data, deterministic rule).
    """
    case_ids = list(case_ids)
    if len(set(case_ids)) != len(case_ids):
        dupes = sorted({c for c in case_ids if case_ids.count(c) > 1})
        raise VolumeError("bad_args", f"duplicate case ids: {dupes}")
    if not case_ids:
        raise VolumeError("bad_args", "no cases")
    if len(ratios) != 3 or any(r < 0 for r in ratios):
        raise VolumeError("bad_args", f"need three non-negative ratios, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise VolumeError("bad_args", f"ratios must sum to 1, got {sum(ratios)}")
    n = len(case_ids)
    if n < 10 and all(r > 0 for r in ratios):
        raise VolumeError("bad_args", f"need >= 10 cases for a three-way split, got {n}")

    rng = np.random.default_rng(np.random.SeedSequence([0x5914, int(seed)]))
    order = [case_ids[i] for i in rng.permutation(n)]
    n_val = int(math.floor(n * ratios[1] + 0.5))
    n_test = int(math.floor(n * ratios[2] + 0.5))
    if n_val + n_test > n:
        raise VolumeError("bad_args", "rounded val+test exceed the case count")
    n_train = n - n_val - n_test
    return DatasetSplit(
        train=order[:n_train],
        val=order[n_train : n_train + n_val],
        test=order[n_train + n_val :],
        seed=int(seed),
    )

