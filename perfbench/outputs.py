"""Output checks, written against the documented file formats rather than
the program's own readers, so a defect in specproj's I/O cannot hide itself.

* FLD1: b"FLD1", dtype byte (0 = f64), axis count, two zero bytes, u64 sizes,
  row-major little-endian f64 payload.
* MDL1: b"MDL1\\n", ``key = value`` header lines up to ``blocks = N``, then N
  blocks of ``name nbytes\\n`` followed by an FLD1 payload.
"""

from __future__ import annotations

import csv
import hashlib
import math
import struct
from pathlib import Path

import numpy as np

DIVERGENCE_FLOOR = 1e-10


class OutputError(Exception):
    pass


def unpack_fld(buf: bytes) -> np.ndarray:
    if len(buf) < 8 or buf[:4] != b"FLD1":
        raise OutputError("not an FLD1 payload")
    dtype_code, ndim, pad = struct.unpack("<BBH", buf[4:8])
    if dtype_code != 0 or pad != 0:
        raise OutputError("bad FLD1 header")
    need = 8 + 8 * ndim
    if len(buf) < need:
        raise OutputError("truncated FLD1 dimension table")
    shape = struct.unpack(f"<{ndim}Q", buf[8:need])
    count = math.prod(shape)
    if len(buf) != need + 8 * count:
        raise OutputError(f"FLD1 payload length does not match shape {shape}")
    return np.frombuffer(buf, dtype="<f8", count=count, offset=need).reshape(shape)


def pack_fld(arr: np.ndarray) -> bytes:
    a = np.ascontiguousarray(arr, dtype="<f8")
    return b"FLD1" + struct.pack("<BBH", 0, a.ndim, 0) + struct.pack(f"<{a.ndim}Q", *a.shape) + a.tobytes()


def read_fld(path: Path) -> np.ndarray:
    return unpack_fld(path.read_bytes())


def mdl_blocks(buf: bytes) -> list[np.ndarray]:
    if not buf.startswith(b"MDL1\n"):
        raise OutputError("not an MDL1 container")
    pos = 5
    n_blocks = None
    while n_blocks is None:
        end = buf.find(b"\n", pos)
        if end < 0:
            raise OutputError("truncated MDL1 header")
        line = buf[pos:end].decode()
        pos = end + 1
        if line.startswith("blocks = "):
            n_blocks = int(line[len("blocks = "):])
        elif " = " not in line:
            raise OutputError(f"malformed MDL1 header line {line!r}")
    blocks = []
    for _ in range(n_blocks):
        end = buf.find(b"\n", pos)
        if end < 0:
            raise OutputError("truncated MDL1 block table")
        nbytes = int(buf[pos:end].decode().rpartition(" ")[2])
        pos = end + 1
        if pos + nbytes > len(buf):
            raise OutputError("truncated MDL1 block")
        blocks.append(unpack_fld(buf[pos : pos + nbytes]))
        pos += nbytes
    if pos != len(buf):
        raise OutputError("trailing bytes after the last MDL1 block")
    return blocks


def check_file(path: Path) -> str:
    """Parse a .fld or .mdl file, require finite values; return its sha256."""
    buf = path.read_bytes()
    if path.suffix == ".fld":
        arrays = [unpack_fld(buf)]
    elif path.suffix == ".mdl":
        arrays = mdl_blocks(buf)
    else:
        arrays = []
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise OutputError(f"{path.name} holds non-finite values")
    return hashlib.sha256(buf).hexdigest()


def divergence(frame: np.ndarray) -> float:
    """Mean |div u| of a (2, nx, ny) periodic velocity frame on the unit
    square, with spectral derivatives and the Nyquist modes zeroed."""
    ks = []
    for n in frame.shape[1:]:
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n)
        if n % 2 == 0:
            k[n // 2] = 0.0
        ks.append(k)
    dhat = 1j * ks[0][:, None] * np.fft.fft2(frame[0]) + 1j * ks[1][None, :] * np.fft.fft2(frame[1])
    return float(np.mean(np.abs(np.fft.ifft2(dhat).real)))


def check_divergence_free(path: Path) -> None:
    """Every frame of a (2, T, nx, ny) velocity file is divergence-free."""
    data = read_fld(path)
    for t in range(data.shape[1]):
        d = divergence(data[:, t])
        if not d < DIVERGENCE_FLOOR:
            raise OutputError(f"{path.name} frame {t}: divergence {d:.3e} >= {DIVERGENCE_FLOOR}")


def check_velocity_dir(path: Path) -> None:
    for f in sorted(path.glob("traj_*.fld")):
        check_divergence_free(f)


def check_depth_dir(path: Path) -> None:
    """Shallow-water depths never go negative."""
    for f in sorted(path.glob("traj_*.fld")):
        if np.any(read_fld(f) < 0.0):
            raise OutputError(f"{f.name} holds a negative water depth")


def check_report(path: Path) -> None:
    """The evaluate report is finite, and the divergence it measures on the
    mass-projected rollouts sits at the rounding floor."""
    with open(path / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise OutputError("empty evaluate report")
    for row in rows:
        value = float(row["value"])
        if not math.isfinite(value):
            raise OutputError(f"report {row['metric']} step {row['step']} is not finite")
        if row["metric"] == "divergence" and not value < DIVERGENCE_FLOOR:
            raise OutputError(f"report divergence {value:.3e} at step {row['step']}")
