"""FLD1 tensor files and MDL1 model files.

FLD1 layout (little-endian throughout): bytes 0-3 ASCII "FLD1"; byte 4 dtype
code (0 = f64); byte 5 axis count A with channels counted as axis 0; bytes
6-7 zero padding; A x u64 dimension sizes; row-major f64 payload, last axis
fastest. No compression, no alignment padding.

MDL1 layout: b"MDL1\n"; ``key = value`` header lines, ``model_kind`` first;
``blocks = N``; then N blocks, each a ``name nbytes`` line followed by that
many bytes of FLD1. A complex array is stored as two real blocks,
``name.re`` and ``name.im``. Header values are written and read by the type
of the dataclass field they store (``header_of``, ``from_header``).

``read_fld`` is the one checked reader of field files from outside; it
returns the plain array, whose axes are the whole grid description (sizes
only: each axis is one period long, see ``specproj.spectral``).
"""

from __future__ import annotations

import dataclasses
import struct
import types
import typing
from pathlib import Path

import numpy as np

from .errors import ContractError, FieldFormatError

MAGIC = b"FLD1"
DTYPE_F64 = 0


def pack_array(arr: np.ndarray) -> bytes:
    """Serialize an array; axis 0 is recorded as the channel axis."""
    a = np.ascontiguousarray(arr, dtype=np.float64)
    if a.ndim < 1:
        a = a.reshape(1)
    header = MAGIC + struct.pack("<BBH", DTYPE_F64, a.ndim, 0)
    dims = struct.pack(f"<{a.ndim}Q", *a.shape)
    payload = a.astype("<f8", copy=False).tobytes(order="C")
    return header + dims + payload


def unpack_array(buf: bytes) -> np.ndarray:
    if len(buf) < 8:
        raise FieldFormatError("truncated FLD1 header")
    if buf[:4] != MAGIC:
        raise FieldFormatError(f"bad magic {buf[:4]!r}")
    dtype_code, ndim, pad = struct.unpack("<BBH", buf[4:8])
    if dtype_code != DTYPE_F64:
        raise FieldFormatError(f"unsupported dtype code {dtype_code}")
    if pad != 0:
        raise FieldFormatError("nonzero header padding")
    need = 8 + 8 * ndim
    if len(buf) < need:
        raise FieldFormatError("truncated FLD1 dimension table")
    shape = struct.unpack(f"<{ndim}Q", buf[8:need])
    count = int(np.prod(shape)) if shape else 0
    expect = need + 8 * count
    if len(buf) != expect:
        raise FieldFormatError(
            f"payload length mismatch: have {len(buf) - need} bytes, "
            f"declared shape {shape} needs {8 * count}"
        )
    data = np.frombuffer(buf, dtype="<f8", count=count, offset=need)
    return data.reshape(shape).astype(np.float64)


def write_array(path: str | Path, arr: np.ndarray) -> None:
    Path(path).write_bytes(pack_array(arr))


def read_array(path: str | Path) -> np.ndarray:
    return unpack_array(Path(path).read_bytes())


def read_fld(path: str | Path) -> np.ndarray:
    """The (C, *grid) array of a field file from outside, checked: a
    channel axis, at least one grid axis of two or more points, no empty
    axis and finite values. Errors name the file."""
    try:
        data = read_array(path)
    except FieldFormatError as e:
        raise FieldFormatError(f"{path}: {e}") from None
    if data.ndim < 2:
        raise FieldFormatError(f"{path}: field files need a channel axis plus >= 1 grid axis")
    if max(data.shape[1:]) < 2 or min(data.shape) < 1:
        raise ContractError(f"{path}: shape {data.shape} needs a grid axis of two or more "
                            "points and no empty axis")
    if not np.all(np.isfinite(data)):
        raise ContractError(f"{path}: field contains non-finite values")
    return data


# ---------------------------------------------------------------------------
# MDL1 model files
# ---------------------------------------------------------------------------

MDL_MAGIC = b"MDL1\n"


def format_value(value) -> str:
    """A header value: ints as they are, floats as repr, tuples as comma
    lists, None or an empty tuple as ``-``."""
    if value is None or value == ():
        return "-"
    if isinstance(value, tuple):
        return ",".join(map(format_value, value))
    return repr(float(value)) if isinstance(value, float) else str(value)


def header_of(obj) -> dict[str, str]:
    """One header line per field of a dataclass, in declaration order."""
    return {f.name: format_value(getattr(obj, f.name)) for f in dataclasses.fields(obj)}


def header_value(header: dict[str, str], key: str, kind: type):
    """The ``key`` line read back as a ``kind`` (str, int, float, a tuple of
    one of them, or such a type ``| None``); ``-`` gives None."""
    if key not in header:
        raise FieldFormatError(f"model header has no {key!r} line")
    text = header[key]
    if text == "-":
        return None
    if typing.get_origin(kind) in (typing.Union, types.UnionType):
        kind = next(k for k in typing.get_args(kind) if k is not type(None))
    try:
        if typing.get_origin(kind) is tuple:
            return tuple(map(typing.get_args(kind)[0], text.split(",")))
        return kind(text)
    except ValueError:
        raise FieldFormatError(f"model header line {key} = {text!r} does not parse") from None


def from_header(cls, header: dict[str, str], **given):
    """The dataclass ``cls`` read back from ``header_of`` lines, with the
    fields in ``given`` taken as they are; a ``-`` value gives the field's
    default. Keys that no field names are ignored."""
    kinds = typing.get_type_hints(cls)
    values = dict(given)
    for f in dataclasses.fields(cls):
        if f.name in given:
            continue
        value = header_value(header, f.name, kinds[f.name])
        if value is None and f.default is dataclasses.MISSING:
            raise FieldFormatError(f"model header line {f.name} = - has no default")
        values[f.name] = f.default if value is None else value
    return cls(**values)


def write_model(path: str | Path, kind: str, header: dict[str, str],
                arrays: dict[str, np.ndarray]) -> None:
    """An MDL1 file of ``model_kind = kind``, the ``header`` lines and one
    block per array, in the order given."""
    blocks = []
    for name, a in arrays.items():
        if np.iscomplexobj(a):
            blocks += [(name + ".re", a.real), (name + ".im", a.imag)]
        else:
            blocks.append((name, a))
    lines = [f"{k} = {v}\n" for k, v in {"model_kind": kind, **header, "blocks": len(blocks)}.items()]
    out = [MDL_MAGIC, "".join(lines).encode()]
    for name, a in blocks:
        payload = pack_array(a)
        out += [f"{name} {len(payload)}\n".encode(), payload]
    Path(path).write_bytes(b"".join(out))


def _read_line(fh, what: str) -> str:
    raw = fh.readline()
    if not raw.endswith(b"\n"):
        raise FieldFormatError(f"truncated model {what}")
    return raw[:-1].decode(errors="replace")  # bytes that are not text fail to parse


def _read_header(fh) -> tuple[dict[str, str], int]:
    """The header lines and the block count."""
    if fh.read(len(MDL_MAGIC)) != MDL_MAGIC:
        raise FieldFormatError("bad model container magic")
    header: dict[str, str] = {}
    while True:
        line = _read_line(fh, "header")
        key, sep, value = line.partition(" = ")
        if not sep:
            raise FieldFormatError(f"malformed header line {line!r}")
        if key == "blocks":
            return header, header_value({key: value}, key, int)
        header[key] = value


def read_model_header(path: str | Path) -> dict[str, str]:
    """The header lines of an MDL1 file, without reading its blocks."""
    with open(path, "rb") as fh:
        return _read_header(fh)[0]


def read_model(path: str | Path, kind: str) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """The header lines and the arrays of an MDL1 file of ``model_kind =
    kind``, each ``.re``/``.im`` block pair joined into one complex array."""
    with open(path, "rb") as fh:
        header, n_blocks = _read_header(fh)
        if header.get("model_kind") != kind:
            raise FieldFormatError(f"{path}: model_kind is {header.get('model_kind')!r}, "
                                   f"not {kind!r}")
        blocks: dict[str, np.ndarray] = {}
        for _ in range(n_blocks):
            line = _read_line(fh, "block table")
            name, _, size = line.rpartition(" ")
            if not (size.isascii() and size.isdigit()):
                raise FieldFormatError(f"malformed block line {line!r}")
            payload = fh.read(int(size))
            if len(payload) != int(size):
                raise FieldFormatError(f"truncated block {name!r}")
            blocks[name] = unpack_array(payload)
    arrays: dict[str, np.ndarray] = {}
    for name, a in blocks.items():
        if name.endswith(".re"):
            im = blocks.get(name[:-3] + ".im")
            if im is None or im.shape != a.shape:
                raise FieldFormatError(f"block {name!r} has no {name[:-3] + '.im'!r} "
                                       "block of its shape")
            arrays[name[:-3]] = a + 1j * im
        elif not name.endswith(".im"):
            arrays[name] = a
    return header, arrays


def check_arrays(arrays: dict[str, np.ndarray], shapes: dict[str, tuple[int, ...]]) -> None:
    """Raise FieldFormatError, naming the first array that differs, unless a
    model's ``arrays`` are exactly those named in ``shapes``, of those shapes."""
    missing = [n for n in shapes if n not in arrays]
    if missing:
        raise FieldFormatError(f"model has no {missing[0]!r} array")
    extra = sorted(set(arrays) - set(shapes))
    if extra:
        raise FieldFormatError(f"model has an unexpected {extra[0]!r} array")
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise FieldFormatError(f"model array {name!r} has shape {arrays[name].shape}, "
                                   f"not {shape}")
