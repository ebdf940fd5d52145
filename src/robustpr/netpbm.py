"""Binary PGM (P5) and PPM (P6) images, 8-bit only.

Readers accept arbitrary whitespace and '#' comments in the header and
reject bit depths above 8; they return the samples as stored together with
the maxval.  Writers emit a canonical header (single spaces, newlines, the
given maxval) so that write-then-read round-trips byte-identically, and
write atomically via a temporary file in the destination directory, which
gets the mode a plain ``open(path, "wb")`` would give it.
"""

from __future__ import annotations

import contextlib
import errno
import os
import secrets

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
    """Read a P5/P6 file into a uint8 array of shape (h, w) or (h, w, 3) and its maxval.

    The samples are returned as stored, not rescaled to 255.
    """
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
    if pixels.max() > maxval:
        raise ImageFormatError(f"sample {pixels.max()} exceeds maxval {maxval}")
    shape = (height, width) if channels == 1 else (height, width, 3)
    return pixels.reshape(shape).copy(), maxval


def check_destination(path):
    """Raise, naming ``path``, the error a write to it would meet in its directory.

    A runner calls this for each output before anything is drawn, read or
    written: a missing directory, one it cannot write in, or a ``path``
    that is itself a directory would otherwise fail only once the work is
    done.
    """
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        code = errno.ENOENT
    elif not os.access(directory, os.W_OK | os.X_OK):
        code = errno.EACCES
    elif os.path.isdir(path):
        code = errno.EISDIR
    else:
        return
    raise OSError(code, os.strerror(code), path)


@contextlib.contextmanager
def atomic_writer(path):
    """A binary file that replaces ``path`` only when the block ends without error.

    Writes go to a temp file in the destination directory, which is renamed
    into place on success and removed on any exception.  The temp file is
    made with mode 0o666 less the umask, as ``open(path, "wb")`` would make
    ``path`` (``tempfile.mkstemp`` would make it 0o600), and an error in
    making it names ``path``.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{secrets.token_hex(8)}~")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0),
                     0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
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


def write_image(path, pixels, maxval=255):
    """Write a uint8 array of shape (h, w) or (h, w, 3) as P5/P6 with the given maxval."""
    pixels = np.asarray(pixels)
    if pixels.dtype != np.uint8:
        raise ImageFormatError(f"expected uint8 pixels, got {pixels.dtype}")
    if not 1 <= maxval <= 255:
        raise ImageFormatError(f"maxval must lie in [1, 255], got {maxval}")
    if pixels.ndim == 2:
        magic = b"P5"
        height, width = pixels.shape
    elif pixels.ndim == 3 and pixels.shape[2] == 3:
        magic = b"P6"
        height, width = pixels.shape[:2]
    else:
        raise ImageFormatError(f"unsupported pixel shape {pixels.shape}")
    header = b"%s\n%d %d\n%d\n" % (magic, width, height, maxval)
    atomic_write_bytes(path, header + pixels.tobytes())
