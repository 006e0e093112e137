"""Binary serialization for dense float64 arrays.

Two little-endian container formats, each a fixed header followed by
row-major float64 payload:

* direction maps: magic ``DMAP``, u32 version, u32 width, u32 height,
  u32 channels, payload of channels * height * width values (channel-major);
* coordinate arrays (codec targets or logits): magic ``CARR``, u32 version,
  u32 n_joints, u32 n_axes, u32 n_bins, payload of n_joints * n_axes * n_bins
  values.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .geometry import DirectionMap

_DMAP_MAGIC = b"DMAP"
_CARR_MAGIC = b"CARR"
BIN_FORMAT_VERSION = 1
_HEADER_BYTES = 20  # magic, u32 version, three u32 dims


class BinaryFormatError(ValueError):
    """Raised when a binary array file is malformed."""


def _read_exact(fh, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise BinaryFormatError("unexpected end of file")
    return data


def _write_array(path: str | Path, magic: bytes, dims: tuple[int, int, int], values: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<IIII", BIN_FORMAT_VERSION, *dims))
        fh.write(np.ascontiguousarray(values, dtype="<f8"))


def _read_array(path: str | Path, magic: bytes, kind: str) -> tuple[tuple[int, int, int], np.ndarray]:
    """The header dims of a `magic` file and its payload as a flat array.

    The declared payload is checked against the file size before anything
    is allocated, then read straight into the result.
    """
    with open(path, "rb") as fh:
        if _read_exact(fh, 4) != magic:
            raise BinaryFormatError(f"not a {kind} file")
        version, *dims = struct.unpack("<IIII", _read_exact(fh, 16))
        if version != BIN_FORMAT_VERSION:
            raise BinaryFormatError(f"unsupported format version {version}")
        count = dims[0] * dims[1] * dims[2]
        available = os.fstat(fh.fileno()).st_size - _HEADER_BYTES
        if 8 * count > available:
            raise BinaryFormatError(
                f"unexpected end of file: header declares {8 * count} payload bytes, file has {available}"
            )
        values = np.empty(count, dtype="<f8")
        if fh.readinto(values) != values.nbytes:
            raise BinaryFormatError("unexpected end of file")
    return tuple(dims), values


def write_direction_map(dmap: DirectionMap, path: str | Path) -> None:
    _write_array(path, _DMAP_MAGIC, (dmap.width, dmap.height, dmap.channels), dmap.values)


def read_direction_map(path: str | Path) -> DirectionMap:
    (width, height, channels), values = _read_array(path, _DMAP_MAGIC, "direction-map")
    return DirectionMap(values.reshape(channels, height, width))


def write_coord_array(arr: np.ndarray, path: str | Path) -> None:
    """Write a (n_joints, n_axes, n_bins) codec target/logit array."""
    a = np.asarray(arr, dtype=np.float64)
    if a.ndim != 3:
        raise ValueError(f"expected (n_joints, n_axes, n_bins), got shape {a.shape}")
    _write_array(path, _CARR_MAGIC, a.shape, a)


def read_coord_array(path: str | Path) -> np.ndarray:
    dims, values = _read_array(path, _CARR_MAGIC, "coordinate-array")
    return values.reshape(dims)
