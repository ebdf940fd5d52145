"""Binary PGM (P5) and PPM (P6) images, 8-bit only.

Readers accept arbitrary whitespace and '#' comments in the header and
reject bit depths above 8.  Writers emit a canonical header (single spaces,
newlines, maxval 255) so that write-then-read round-trips byte-identically,
and write atomically via a temporary file in the destination directory.
"""

from __future__ import annotations

import contextlib
import os
import tempfile

import numpy as np


class ImageFormatError(Exception):
    """Malformed or unsupported netpbm content."""


def _tokens(data):
    """Yield whitespace-separated header tokens, skipping '#' comments."""
    i = 0
    n = len(data)
    while i < n:
        c = data[i:i + 1]
        if c in b" \t\r\n":
            i += 1
            continue
        if c == b"#":
            j = data.find(b"\n", i)
            i = n if j < 0 else j + 1
            continue
        j = i
        while j < n and data[j:j + 1] not in b" \t\r\n":
            j += 1
        yield i, data[i:j]
        i = j


def read_image(path):
    """Read a P5/P6 file into a uint8 array of shape (h, w) or (h, w, 3)."""
    with open(path, "rb") as fh:
        data = fh.read()
    fields = []
    raster_start = None
    for pos, tok in _tokens(data):
        fields.append(tok)
        if len(fields) == 4:
            raster_start = pos + len(tok) + 1  # exactly one whitespace byte
            break
    if len(fields) < 4:
        raise ImageFormatError("truncated netpbm header")
    magic, tw, th, tmax = fields
    if magic == b"P5":
        channels = 1
    elif magic == b"P6":
        channels = 3
    else:
        raise ImageFormatError(f"unsupported magic {magic!r} (need binary P5 or P6)")
    try:
        width, height, maxval = int(tw), int(th), int(tmax)
    except ValueError as exc:
        raise ImageFormatError("non-numeric netpbm header field") from exc
    if width < 1 or height < 1:
        raise ImageFormatError(f"bad dimensions {width}x{height}")
    if maxval > 255:
        raise ImageFormatError(f"unsupported bit depth: maxval {maxval} > 255")
    if maxval < 1:
        raise ImageFormatError(f"bad maxval {maxval}")
    count = width * height * channels
    raster = data[raster_start:raster_start + count]
    if len(raster) < count:
        raise ImageFormatError(f"raster has {len(raster)} bytes, expected {count}")
    pixels = np.frombuffer(raster, dtype=np.uint8, count=count)
    if channels == 1:
        return pixels.reshape(height, width).copy()
    return pixels.reshape(height, width, 3).copy()


@contextlib.contextmanager
def atomic_writer(path):
    """A binary file that replaces ``path`` only when the block ends without error.

    Writes go to a temp file in the destination directory, which is renamed
    into place on success and removed on any exception.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path, payload):
    """Write bytes via a same-directory temp file and rename into place."""
    with atomic_writer(path) as fh:
        fh.write(payload)


def write_image(path, pixels):
    """Write a uint8 array of shape (h, w) or (h, w, 3) as P5/P6."""
    pixels = np.asarray(pixels)
    if pixels.dtype != np.uint8:
        raise ImageFormatError(f"expected uint8 pixels, got {pixels.dtype}")
    if pixels.ndim == 2:
        magic = b"P5"
        height, width = pixels.shape
    elif pixels.ndim == 3 and pixels.shape[2] == 3:
        magic = b"P6"
        height, width = pixels.shape[:2]
    else:
        raise ImageFormatError(f"unsupported pixel shape {pixels.shape}")
    header = b"%s\n%d %d\n255\n" % (magic, width, height)
    atomic_write_bytes(path, header + pixels.tobytes())
