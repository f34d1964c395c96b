"""Array forms and atomic writes shared by the dataset, checkpoint and cache files.

A dense float array in a JSON file is one object,
``{"shape": [...], "float64_le": "<base64>"}``: the standard padded base64
of the row-major little-endian IEEE-754 float64 bytes. Decoding it costs
a base64 pass instead of parsing one float literal per element, and keeps
every value bit for bit (signed zeros, subnormals, NaN payloads).
"""

from __future__ import annotations

import base64
import binascii
import math
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

import numpy as np

from .errors import ParseError

__all__ = ["encode_floats", "decode_floats", "float_array", "number_array", "atomic_write"]

_FLOAT_KEYS = {"shape", "float64_le"}


def encode_floats(arr: np.ndarray) -> dict:
    """The JSON object form of a float64 array."""
    arr = np.ascontiguousarray(arr, dtype="<f8")
    return {"shape": list(arr.shape), "float64_le": base64.b64encode(arr.tobytes()).decode("ascii")}


def decode_floats(form, what: str) -> np.ndarray:
    """A writable native float64 array from :func:`encode_floats`'s object.

    Raises:
        ParseError: not an object with exactly the keys ``shape`` and
            ``float64_le``, a shape that is not a list of non-negative
            ints, text that is not padded base64, or a byte count other
            than 8 times the element count.
    """
    if not isinstance(form, dict) or form.keys() != _FLOAT_KEYS:
        raise ParseError(f"{what} must be an object with exactly the keys {sorted(_FLOAT_KEYS)}")
    shape, text = form["shape"], form["float64_le"]
    if not isinstance(shape, list) or not all(type(s) is int and s >= 0 for s in shape):
        raise ParseError(f"{what}.shape must be a list of non-negative integers")
    if not isinstance(text, str):
        raise ParseError(f"{what}.float64_le must be a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except (binascii.Error, ValueError) as exc:
        raise ParseError(f"{what}.float64_le is not base64: {exc}") from exc
    if len(raw) != 8 * math.prod(shape):
        raise ParseError(f"{what} holds {len(raw)} bytes, not 8 per element of shape {shape}")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


def number_array(value, what: str, kinds: str, ndim: int | None = 1) -> np.ndarray:
    """A JSON number list as an array whose numpy dtype kind is in ``kinds``.

    Empty lists pass. ``ndim=None`` leaves the dimension count to the
    caller. A list holding null or a string, or a value of the wrong
    kind (a fraction where ``kinds`` is ``"iu"``, a number where it is
    ``"b"``), raises instead of being coerced.
    """
    try:
        arr = np.asarray(value)
    except ValueError as exc:
        raise ParseError(f"{what} is not a regular list: {exc}") from exc
    if ndim is not None and arr.ndim != ndim:
        raise ParseError(f"{what} must be {ndim}-d, got {arr.ndim}-d")
    if arr.size and arr.dtype.kind not in kinds:
        kind = {"iu": "integers", "b": "booleans"}.get(kinds, "numbers")
        raise ParseError(f"{what} must hold only {kind}")
    return arr


def float_array(value, what: str) -> np.ndarray:
    """A float64 array from the object form or from a (nested) number list."""
    if isinstance(value, dict):
        return decode_floats(value, what)
    return number_array(value, what, "iuf", ndim=None).astype(np.float64)


@contextmanager
def atomic_write(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """Open a file beside ``path`` and rename it over ``path`` on success.

    Readers never see a half-written file. On any exception the temporary
    file is removed and ``path`` keeps its old content. The file gets the
    permissions a plain ``open`` would give it (0o666 less the umask).
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
