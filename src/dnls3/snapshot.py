"""Binary field snapshots.

Layout (all little-endian):

    bytes 0..3   magic "LDSF"
    u32          format version (currently 1)
    u32          spatial dimension d
    u64 x d      points per axis
    f64 x d      box length per axis
    payload      components in order u1^(1..d), u2^(1..d), u3^(1..d),
                 each prod(n) complex values as (re f64, im f64), row-major

The payload is exactly 3*d*prod(n)*16 bytes, a product taken in exact
integers, so no header's counts wrap it around to a size the file has; the
loader validates magic, version, length and grid, in that order, before
touching the content. Round trips are bit-exact.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import FormatError, LengthMismatch, UnsupportedVersion
from .grid import Grid, State

MAGIC = b"LDSF"
FORMAT_VERSION = 1


def save_field(state: State, path) -> None:
    g = state.grid
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, g.d))
        fh.write(struct.pack(f"<{g.d}Q", *g.n))
        fh.write(struct.pack(f"<{g.d}d", *g.extent))
        fh.write(np.ascontiguousarray(state.u, dtype="<c16").tobytes())


def load_field(path) -> State:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 or blob[:4] != MAGIC:
        raise FormatError(f"bad magic {blob[:4]!r}; not a field snapshot")
    offset = 4
    if len(blob) < offset + 8:
        raise LengthMismatch("truncated header")
    version, d = struct.unpack_from("<II", blob, offset)
    offset += 8
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(f"format version {version}; this reader supports {FORMAT_VERSION}")
    if not 1 <= d <= 3:
        raise FormatError(f"dimension {d} out of range")
    header_rest = d * 8 + d * 8
    if len(blob) < offset + header_rest:
        raise LengthMismatch("truncated header")
    n = struct.unpack_from(f"<{d}Q", blob, offset)
    offset += d * 8
    extent = struct.unpack_from(f"<{d}d", blob, offset)
    offset += d * 8
    count = 3 * d * math.prod(n)  # Python ints: no product wraps around
    expected = count * 16
    if len(blob) - offset != expected:
        raise LengthMismatch(f"payload is {len(blob) - offset} bytes, header promises {expected}")
    try:
        grid = Grid(n, extent)
    except ValueError as exc:
        raise FormatError(f"header describes no valid grid: {exc}") from exc
    values = np.frombuffer(blob, dtype="<c16", count=count, offset=offset)
    return State(grid, values.reshape(3, d, *n).astype(np.complex128))
