"""How every statenet file is read into typed values and written:
``decode`` turns a JSON object into a dataclass (topology records, cell
params, ``--config`` files) whose fields are plain types, unions of them
or nested dataclasses, never tuples; ``count`` reads a
non-negative integer (dataset manifest counts, checkpoint epoch and adam
step count); ``numbers`` reads a list or table of finite numbers as a
float array (episode ``x``/``y``/``mask``, checkpoint params and adam
moments); ``malformed`` turns a parse failure inside a reader into that
reader's error class, named with where it happened; ``digest`` names a
document by its content (checkpoint config and topology hashes);
``atomic_write`` writes ``<path>.tmp`` and renames it over ``path``, so a
killed process leaves the previous file, never a truncated one (no fsync:
not power-loss safe).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import json
import math
import os
import sys
import typing
from itertools import chain

import numpy as np

# hashlib loads OpenSSL's libcrypto, about 3 MB resident: take the
# interpreter's own SHA-256 (as CPython's random.py does for SHA-512)
try:
    from _sha2 import sha256 as _sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

_NO = object()  # a value that does not fit its field's type


@functools.cache
def _fields(cls) -> dict:
    """Field name -> (annotated type, whether it is a nested dataclass)."""
    return {name: (hint, dataclasses.is_dataclass(hint))
            for name, hint in typing.get_type_hints(cls).items()}


def decode(cls, doc, **given):
    """A ``cls`` from the JSON object ``doc``: unknown keys are refused, each
    value needs its field's type (a bool is not a number; an int for a float
    is stored as a float; a float must be finite), missing keys keep their
    defaults. Non-None ``given`` values win unchecked (for a nested
    dataclass: a dict)."""
    if not isinstance(doc, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {doc!r}")
    fields = _fields(cls)
    if not doc.keys() <= fields.keys():
        raise ValueError(f"{cls.__name__} has unknown keys "
                         f"{sorted(doc.keys() - fields)}")
    values = {}
    for name, (hint, nested) in fields.items():
        if nested:
            values[name] = decode(hint, doc.get(name, {}), **given.get(name, {}))
        elif given.get(name) is not None:
            values[name] = given[name]
        elif name in doc:  # most values have exactly their field's type
            value = doc[name]
            exact = type(value) is hint and hint is not float
            values[name] = value if exact else _convert(value, hint)
            if values[name] is _NO:
                rule = inspect.formatannotation(hint).replace(
                    "float", "finite float")
                raise ValueError(f"{cls.__name__} key {name!r} must be "
                                 f"{rule}, got {doc[name]!r}")
    return cls(**values)


def count(doc: dict, key: str) -> int:
    """``doc[key]``, refused unless it is a non-negative JSON integer (a
    bool is not one)."""
    value = doc[key]
    if type(value) is not int or value < 0:
        raise ValueError(f"{key} must be a non-negative integer, "
                         f"got {value!r}")
    return value


def numbers(doc: dict, key: str, ndim: int) -> np.ndarray:
    """``doc[key]`` as a float64 array of ``ndim`` (1 or 2) dimensions,
    refused unless it is a JSON list (of equally long lists when ``ndim``
    is 2) of finite numbers (a bool is not one; an integer must fit a
    float)."""
    value = doc[key]
    rows = value if ndim == 2 else [value]
    if not (type(value) is list and set(map(type, rows)) <= {list}
            and len(set(map(len, rows))) <= 1):
        table = " of equally long lists" if ndim == 2 else ""
        raise ValueError(f"{key} must be a list{table} of numbers")
    items = list(chain.from_iterable(rows))
    if not set(map(type, items)) <= {int, float}:
        raise ValueError(f"{key} must hold numbers only")
    try:
        finite = all(map(math.isfinite, items))
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ValueError(f"{key} must hold finite numbers only")
    array = np.array(value, dtype=np.float64)
    return array if array.ndim == ndim else array.reshape(0, 0)  # empty table


@contextlib.contextmanager
def malformed(error: type, where: str):
    """Inside the block, an ``error`` passes through unchanged and a
    ``KeyError``, ``TypeError``, ``ValueError`` or ``AttributeError`` (a
    missing key, a value of the wrong type) is raised again as
    ``error("<where>: <its type>: <its message>")``."""
    try:
        yield
    except error:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise error(f"{where}: {type(exc).__name__}: {exc}") from exc


def _convert(value, hint):
    """``value`` stored as type ``hint``, or ``_NO`` if it does not fit."""
    if type(hint) is type:
        if isinstance(value, bool) and hint is not bool:
            return _NO
        if hint is float:  # finite: NaN and +-Infinity fail the bound
            fits = (isinstance(value, (int, float))
                    and abs(value) <= sys.float_info.max)
            return float(value) if fits else _NO
        return value if isinstance(value, hint) else _NO
    # any other hint is read as a union of its type arguments, so a
    # ``tuple[int, int]`` would be read as ``int | int``: no decoded
    # dataclass may have a tuple field
    for member in typing.get_args(hint):  # a union
        out = _convert(value, member)
        if out is not _NO:
            return out
    return _NO


def digest(doc) -> str:
    """The first 16 hex digits of SHA-256 over ``json.dumps(doc,
    sort_keys=True)``: equal documents have equal digests."""
    return _sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def read_json(path: str, error=ValueError):
    """The JSON document in ``path``; malformed JSON raises ``error``."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise error(f"malformed JSON in {path}: {exc}") from exc


@contextlib.contextmanager
def atomic_write(path: str):
    """A text file handle whose content replaces ``path`` when the block
    exits; if it raises, ``path`` is left as it was and no temporary stays."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_json(path: str, doc, indent: int | None = None) -> None:
    """Replace ``path`` with ``doc`` as one JSON document and a newline."""
    with atomic_write(path) as fh:
        json.dump(doc, fh, indent=indent)
        fh.write("\n")
