"""The one binary container of the toolkit's artifacts (``.sgmd``, ``.cclm``).

Little-endian throughout, a file holds 4 bytes of magic, a u16 version and
two u32 giving the first array's shape; the arrays, C-ordered and back to
back from byte 14; a UTF-8 JSON footer object of the artifact's ``kind``,
its ``provenance`` (with the package ``version``), the ``arrays`` table of
name -> [dtype, shape] in file order and the kind's own fields; and the
footer's length as the last u32.  ``read`` alone checks a file's
structure; a kind's loader checks only what its arrays and fields mean.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from . import __version__
from .errors import CorruptFile, UnsupportedFormat

HEAD = struct.Struct("<4sHII")  # magic, version, first array's shape
TRAILER = struct.Struct("<I")   # footer length


def write(path, magic: bytes, version: int, kind: str, arrays: dict, provenance: dict,
          **fields) -> None:
    """Write ``arrays`` (name -> array, the first 2-d) and a footer of ``kind``,
    the package version and ``provenance``, and ``fields``."""
    arrays = {name: np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))
              for name, arr in arrays.items()}
    footer = json.dumps({
        "kind": kind,
        "provenance": {"version": __version__, **provenance},
        "arrays": {name: [arr.dtype.str, list(arr.shape)] for name, arr in arrays.items()},
        **fields,
    }).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(HEAD.pack(magic, version, *next(iter(arrays.values())).shape))
        for arr in arrays.values():
            fh.write(arr)
        fh.write(footer)
        fh.write(TRAILER.pack(len(footer)))


def read(path, magic: bytes, version: int, kind: str, advice: str) -> tuple[dict, dict]:
    """The footer and the arrays (name -> array, each a writable, aligned view
    of the one buffer the file is read into) of a file ``write`` made.  Bad
    magic or another version (the message ends in ``advice``) is
    ``UnsupportedFormat``; any other departure from the layout, or a
    non-finite value, is ``CorruptFile``."""
    with open(path, "rb") as fh:
        # Two spare bytes put file byte 14, where the arrays start, at byte 16.
        buf = bytearray(os.fstat(fh.fileno()).st_size + 2)
        data = memoryview(buf)[2 : 2 + fh.readinto(memoryview(buf)[2:])]
    if bytes(data[:4]) != magic:
        raise UnsupportedFormat(f"{path}: bad magic {bytes(data[:4])!r}, expected {magic!r}")
    if len(data) < HEAD.size + TRAILER.size:
        raise CorruptFile(f"{path}: truncated header")
    _, found, *shape = HEAD.unpack_from(data)
    if found != version:
        raise UnsupportedFormat(f"{path}: unsupported version {found}; {advice}")
    (length,) = TRAILER.unpack_from(data, len(data) - TRAILER.size)
    end = len(data) - TRAILER.size - length  # where the footer starts
    if end < HEAD.size:
        raise CorruptFile(f"{path}: footer length {length} runs past the header")
    try:
        footer = json.loads(bytes(data[end : -TRAILER.size]).decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise CorruptFile(f"{path}: footer is not UTF-8 JSON: {exc}") from None
    table = footer.get("arrays") if isinstance(footer, dict) else None
    if not isinstance(table, dict) or not table or footer.get("kind") != kind \
            or not isinstance(footer.get("provenance"), dict):
        raise CorruptFile(f"{path}: footer is not a JSON object of kind {kind!r} "
                          "with provenance and arrays")
    arrays, at = {}, HEAD.size
    for name, entry in table.items():
        dtype, dims = entry if isinstance(entry, list) and len(entry) == 2 else (None, None)
        if dtype not in ("<f4", "<f8") or not isinstance(dims, list) \
                or not all(type(n) is int and n >= 0 for n in dims):
            raise CorruptFile(f"{path}: array {name!r} has a bad table entry {entry!r}")
        count, size = math.prod(dims), int(dtype[-1])
        if at + count * size > end:
            raise CorruptFile(f"{path}: array {name!r} runs past the footer")
        arrays[name] = np.frombuffer(data, dtype=dtype, count=count, offset=at).reshape(dims)
        at += count * size
        finite = np.isfinite(arrays[name])
        if not finite.all():
            index = tuple(map(int, np.unravel_index(np.argmin(finite), finite.shape)))
            raise CorruptFile(f"{path}: array {name!r} holds a non-finite value at {index}")
    if at != end:
        raise CorruptFile(f"{path}: {end - at} bytes lie between the arrays and the footer")
    if next(iter(arrays.values())).shape != tuple(shape):
        raise CorruptFile(f"{path}: the header's shape {tuple(shape)} is not the first array's")
    return footer, arrays
