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

import struct
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
_CSV_BLOCK = 1 << 16  # records formatted and written per block


def write_matrix(path: Path | str, M: OperatorMatrix, fmt: str = "binary") -> None:
    path = Path(path)
    if fmt == "binary":
        head = _HEADER.pack(MAGIC, VERSION, M.dim, M.truncation,
                            M.s_domain, M.s_codomain, _CODE[M.convention])
        body = np.ascontiguousarray(M.entries, dtype="<c16").tobytes()
        path.write_bytes(head + body)
    elif fmt == "csv":
        _write_csv(path, M)
    else:
        raise ValueError(f"unknown matrix format {fmt!r}")


def _write_csv(path: Path, M: OperatorMatrix) -> None:
    e = np.ascontiguousarray(M.entries, dtype=np.complex128)
    count = e.shape[0]
    # Format each distinct float once.  Distinct means distinct bit pattern,
    # so -0.0 and 0.0 keep their own repr.
    bits, inverse = np.unique(e.view(np.float64).reshape(-1).view(np.uint64),
                              return_inverse=True)
    text = [repr(x) for x in bits.view(np.float64).tolist()]
    re_tok = np.array([t + "," for t in text], dtype=object)
    im_tok = np.array([t + "\n" for t in text], dtype=object)
    inverse = inverse.reshape(-1, 2)
    index_tok = np.array([f"{k}," for k in range(count)], dtype=object)
    with path.open("w") as f:
        f.write(f"# focklab-mat version={VERSION} n={M.dim} N={M.truncation} "
                f"s_domain={M.s_domain!r} s_codomain={M.s_codomain!r} "
                f"convention={M.convention.value}\n{_CSV_COLUMNS}\n")
        for lo in range(0, count * count, _CSV_BLOCK):
            k = np.arange(lo, min(lo + _CSV_BLOCK, count * count))
            i, j = np.divmod(k, count)
            tok = np.empty((k.size, 4), dtype=object)
            tok[:, 0] = index_tok[i]
            tok[:, 1] = index_tok[j]
            tok[:, 2] = re_tok[inverse[k, 0]]
            tok[:, 3] = im_tok[inverse[k, 1]]
            f.write("".join(tok.ravel().tolist()))


def read_matrix(path: Path | str) -> OperatorMatrix:
    path = Path(path)
    with path.open("rb") as f:
        if f.read(len(MAGIC)) == MAGIC:
            f.seek(0)
            return _read_binary(f.read())
        f.seek(0)
        header = f.readline().decode(errors="replace")
        columns = f.readline().decode(errors="replace")
    if not header.startswith("# focklab-mat") or columns.strip() != _CSV_COLUMNS:
        raise FockLabError(f"{path} is neither a focklab binary nor CSV matrix")
    return _read_csv(path, header)


def _read_binary(blob: bytes) -> OperatorMatrix:
    if len(blob) < _HEADER.size:
        raise FockLabError(
            f"matrix file has {len(blob)} bytes, fewer than its {_HEADER.size}-byte header")
    magic, version, n, N, sd, sc, code = _HEADER.unpack_from(blob, 0)
    if version != VERSION:
        raise FockLabError(f"unsupported matrix file version {version}")
    if code not in _CONV:
        raise FockLabError(f"unknown matrix convention code {code}")
    count = index_count(n, N)
    payload = len(blob) - _HEADER.size
    if payload != 16 * count * count:
        raise FockLabError(
            f"matrix payload has {payload} bytes, expected {16 * count * count}")
    body = np.frombuffer(blob, dtype="<c16", offset=_HEADER.size)
    return OperatorMatrix(N, n, body.reshape(count, count).astype(np.complex128),
                          _CONV[code], s_domain=sd, s_codomain=sc)


def _read_csv(path: Path, header: str) -> OperatorMatrix:
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
    count = index_count(n, N)
    try:
        rec = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    except ValueError as exc:
        raise FockLabError(f"{path}: malformed CSV matrix record ({exc})") from exc
    if rec.shape != (count * count, 4):
        raise FockLabError(
            f"matrix payload has {rec.shape[0]} records of {rec.shape[1]} fields, "
            f"expected {count * count} of 4")
    ij = rec[:, :2]
    if not np.all((ij >= 0) & (ij < count) & (ij == np.trunc(ij))):
        raise FockLabError(f"{path}: a row or column index is not in 0..{count - 1}")
    i, j = ij.T.astype(np.intp)
    covered = np.zeros(count * count, dtype=bool)
    covered[i * count + j] = True
    if not covered.all():
        raise FockLabError(f"{path}: {np.count_nonzero(~covered)} entries have no record")
    ent = np.zeros((count, count), dtype=complex)
    ent.real[i, j] = rec[:, 2]
    ent.imag[i, j] = rec[:, 3]
    return OperatorMatrix(N, n, ent, convention, s_domain=sd, s_codomain=sc)
