"""Operator-matrix serialization.

Binary layout (little-endian):

    bytes 0..15   magic "FOCKLAB-MAT" padded with five NULs
    u32           version (currently 1)
    u32           n (dimension)
    u32           N (truncation)
    f64           s_domain
    f64           s_codomain
    u8            convention code (0 paper-h, 1 bargmann-h, 2 fock)
    then          row-major complex128 entries (re, im) pairs

CSV layout: a ``# focklab-mat`` comment line carrying the same metadata, the
column line ``row,col,re,im``, then one record per entry in row-major order.
Each float is printed as its shortest round-trip ``repr``, so both encodings
re-import bit for bit, signed zeros included.
"""
from __future__ import annotations

import io
import os
import struct
import warnings
from pathlib import Path

import numpy as np

from .errors import FockLabError
from .hermite import Convention, index_count
from .transforms import OperatorMatrix

__all__ = ["MAGIC", "VERSION", "write_matrix", "read_matrix"]

MAGIC = b"FOCKLAB-MAT" + b"\x00" * 5
VERSION = 1

_CODE = {Convention.PAPER_H: 0, Convention.BARGMANN_H: 1, Convention.FOCK: 2}
_CONV = {v: k for k, v in _CODE.items()}
_HEADER = struct.Struct("<16sIIIddB")
_CSV_COLUMNS = "row,col,re,im"
# CSV records per block: the writer formats whole rows of at most this many
# (one row when a row is longer), the reader parses this many at a time
_CSV_BLOCK = 1 << 13
# Longest header or column line the reader accepts, newline included; the
# writer's header stays under 200 bytes for any u32 n and N
_CSV_LINE = 1 << 10


def write_matrix(path: Path | str, M: OperatorMatrix, fmt: str = "binary") -> None:
    path = Path(path)
    if fmt == "binary":
        head = _HEADER.pack(MAGIC, VERSION, M.dim, M.truncation,
                            M.s_domain, M.s_codomain, _CODE[M.convention])
        with path.open("wb") as f:
            f.write(head)
            f.write(np.ascontiguousarray(M.entries, dtype="<c16"))
    elif fmt == "csv":
        _write_csv(path, M)
    else:
        raise ValueError(f"unknown matrix format {fmt!r}")


def _distinct(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of ``bits`` and the index of each element
    among them, as ``np.unique(bits, return_inverse=True)`` gives them but
    without its flattened copy, and with an int32 index when that fits."""
    order = np.argsort(bits)
    ordered = bits[order]
    new = np.empty(bits.size, dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    values = ordered[new]
    del ordered
    rank = np.cumsum(new, dtype=np.int32 if values.size < 1 << 31 else np.intp)
    del new
    rank -= 1
    inverse = np.empty_like(rank)
    inverse[order] = rank
    return values, inverse


def _write_csv(path: Path, M: OperatorMatrix) -> None:
    e = np.ascontiguousarray(M.entries, dtype=np.complex128)
    count = e.shape[0]
    # Format each distinct float once.  Distinct means distinct bit pattern,
    # so -0.0 and 0.0 keep their own repr.  A record is written as the tokens
    # "\ni,", "j,", re, ",", im, so one table of bare reprs serves both parts.
    values, inverse = _distinct(e.view(np.float64).reshape(-1).view(np.uint64))
    text = np.fromiter(map(float.__repr__, values.view(np.float64)), dtype=object,
                       count=values.size)
    del values
    row_tok = np.array([f"\n{k}," for k in range(count)], dtype=object)
    col_tok = np.array([f"{k}," for k in range(count)], dtype=object)
    with path.open("w") as f:
        f.write(f"# focklab-mat version={VERSION} n={M.dim} N={M.truncation} "
                f"s_domain={M.s_domain!r} s_codomain={M.s_codomain!r} "
                f"convention={M.convention.value}\n{_CSV_COLUMNS}")
        rows = max(1, _CSV_BLOCK // count)  # whole rows of records per block
        tok = np.empty((rows, count, 5), dtype=object)
        tok[:, :, 1] = col_tok
        tok[:, :, 3] = ","
        for lo in range(0, count, rows):
            t = tok[:min(rows, count - lo)]
            t[:, :, 0] = row_tok[lo:lo + len(t), None]
            part = inverse[2 * count * lo:2 * count * (lo + len(t))].reshape(len(t), count, 2)
            t[:, :, 2] = text[part[:, :, 0]]
            t[:, :, 4] = text[part[:, :, 1]]
            f.write("".join(t.ravel().tolist()))
        f.write("\n")


def read_matrix(path: Path | str) -> OperatorMatrix:
    path = Path(path)
    with path.open("rb") as f:
        if f.read(len(MAGIC)) == MAGIC:
            f.seek(0)
            return _read_binary(f)
        f.seek(0)
        head = f.readline(_CSV_LINE)
        header = head.decode(errors="replace")
        columns = f.readline(_CSV_LINE).decode(errors="replace")
        # a header without its newline is overlong or the whole file
        if (not head.endswith(b"\n") or not header.startswith("# focklab-mat")
                or columns.strip() != _CSV_COLUMNS):
            raise FockLabError(f"{path} is neither a focklab binary nor CSV matrix")
        room = os.fstat(f.fileno()).st_size - f.tell()
        with io.TextIOWrapper(f, errors="replace") as text:
            return _read_csv(text, path, header, room)


def _count(n: int, N: int) -> int:
    """Index count of a header's (n, N), refused unless n >= 1 and N >= 0."""
    if n < 1 or N < 0:
        raise FockLabError(f"matrix header has n={n}, N={N}; need n >= 1 and N >= 0")
    return index_count(n, N)


def _read_binary(f) -> OperatorMatrix:
    size = os.fstat(f.fileno()).st_size
    if size < _HEADER.size:
        raise FockLabError(
            f"matrix file has {size} bytes, fewer than its {_HEADER.size}-byte header")
    magic, version, n, N, sd, sc, code = _HEADER.unpack(f.read(_HEADER.size))
    if version != VERSION:
        raise FockLabError(f"unsupported matrix file version {version}")
    if code not in _CONV:
        raise FockLabError(f"unknown matrix convention code {code}")
    count = _count(n, N)
    payload = size - _HEADER.size
    if payload != 16 * count * count:
        raise FockLabError(
            f"matrix payload has {payload} bytes, expected {16 * count * count}")
    body = np.empty((count, count), dtype="<c16")
    got = f.readinto(body)
    if got != payload:
        raise FockLabError(f"matrix payload has {got} bytes, expected {payload}")
    return OperatorMatrix(N, n, body, _CONV[code], s_domain=sd, s_codomain=sc)


def _read_csv(f, path: Path, header: str, room: int) -> OperatorMatrix:
    """Parse the records of the text stream ``f``, which holds the ``room``
    bytes after the header and column lines, ``_CSV_BLOCK`` at a time, and
    scatter each block into the entries.  Which error is reported does not
    depend on the block size."""
    try:
        meta = dict(tok.split("=", 1) for tok in header.split()[2:])
        version = int(meta["version"])
        n, N = int(meta["n"]), int(meta["N"])
        convention = Convention(meta["convention"])
        sd, sc = float(meta["s_domain"]), float(meta["s_codomain"])
    except (KeyError, ValueError) as exc:
        raise FockLabError(f"{path}: malformed CSV matrix header ({exc})") from exc
    if version != VERSION:
        raise FockLabError(f"unsupported matrix file version {version}")
    count = _count(n, N)
    size = count * count
    # the shortest record is "0,0,0,0\n", and the last may lack its newline
    if room < 8 * size - 1:
        raise FockLabError(
            f"matrix payload has {room} bytes, too few for {size} records")
    ent = np.zeros(size, dtype=complex)
    covered = np.zeros(size, dtype=bool)
    records, fields, indices_ok = 0, 4, True
    with warnings.catch_warnings():
        # loadtxt warns about each blank line (it does not count towards
        # max_rows) and when it finds no record left; the record count is
        # checked below
        warnings.filterwarnings("ignore", r"(loadtxt: input|Input line \d+) contained no data",
                                UserWarning)
        while True:
            try:
                rec = np.loadtxt(f, delimiter=",", ndmin=2, max_rows=_CSV_BLOCK)
            except ValueError as exc:
                raise FockLabError(f"{path}: malformed CSV matrix record ({exc})") from exc
            if rec.shape[0] == 0:
                break
            if records and rec.shape[1] != fields:
                raise FockLabError(
                    f"{path}: malformed CSV matrix record (the number of columns "
                    f"changed from {fields} to {rec.shape[1]} at record {records + 1})")
            records, fields = records + rec.shape[0], rec.shape[1]
            if fields == 4 and records <= size:
                ij = rec[:, :2]
                if np.all((ij >= 0) & (ij < count) & (ij == np.trunc(ij))):
                    k = ij[:, 0].astype(np.intp) * count + ij[:, 1].astype(np.intp)
                    covered[k] = True
                    ent.real[k] = rec[:, 2]
                    ent.imag[k] = rec[:, 3]
                else:
                    indices_ok = False
            if rec.shape[0] < _CSV_BLOCK:
                break
    if (records, fields) != (size, 4):
        raise FockLabError(
            f"matrix payload has {records} records of {fields} fields, "
            f"expected {size} of 4")
    if not indices_ok:
        raise FockLabError(f"{path}: a row or column index is not in 0..{count - 1}")
    if not covered.all():
        raise FockLabError(f"{path}: {np.count_nonzero(~covered)} entries have no record")
    return OperatorMatrix(N, n, ent.reshape(count, count), convention,
                          s_domain=sd, s_codomain=sc)
