from dataclasses import replace

import numpy as np
import pytest

from focklab import matio
from focklab.hermite import Convention, index_count
from focklab.matio import MAGIC, VERSION, read_matrix, write_matrix
from focklab.multipliers import parse_multiplier
from focklab.operators import conjugated_multiplier_matrix
from focklab.transforms import OperatorMatrix, weyl_matrix
from focklab.errors import FockLabError


def test_magic_layout():
    assert len(MAGIC) == 16
    assert MAGIC.startswith(b"FOCKLAB-MAT")


def test_binary_roundtrip_bit_identical(tmp_path):
    M = replace(weyl_matrix(0.4 + 0.2j, 10), s_domain=1.0, s_codomain=0.5)
    p = tmp_path / "w.mat"
    write_matrix(p, M)
    R = read_matrix(p)
    assert np.array_equal(R.entries, M.entries)  # bit-identical
    assert (R.dim, R.truncation) == (1, 10)
    assert R.s_domain == 1.0 and R.s_codomain == 0.5
    assert R.convention is Convention.FOCK
    # writing the re-read matrix reproduces the same bytes
    p2 = tmp_path / "w2.mat"
    write_matrix(p2, R)
    assert p.read_bytes() == p2.read_bytes()


def test_csv_roundtrip_full_precision(tmp_path):
    M = weyl_matrix(0.3 - 0.7j, 6)
    p = tmp_path / "w.csv"
    write_matrix(p, M, fmt="csv")
    R = read_matrix(p)
    assert R.entries.tobytes() == M.entries.tobytes()  # repr round-trips floats exactly


@pytest.mark.parametrize("build", [
    lambda: weyl_matrix(np.full(3, -1.27 + 0j), 4),
    lambda: conjugated_multiplier_matrix(parse_multiplier("chirp43"), 128),
], ids=["weyl:-1.27:n=3:N=4", "conjugated:chirp43:N=128"])
def test_csv_readback_keeps_signed_zeros(tmp_path, build):
    M = build()
    neg_zero = (M.entries.view(np.float64) == 0) & np.signbit(M.entries.view(np.float64))
    assert neg_zero.any()
    write_matrix(tmp_path / "m.mat", M)
    write_matrix(tmp_path / "m.csv", M, fmt="csv")
    B, C = read_matrix(tmp_path / "m.mat"), read_matrix(tmp_path / "m.csv")
    assert C.entries.tobytes() == B.entries.tobytes() == M.entries.tobytes()


@pytest.mark.parametrize("block", [matio._CSV_BLOCK, 5])
def test_csv_writer_format(tmp_path, monkeypatch, block):
    monkeypatch.setattr(matio, "_CSV_BLOCK", block)
    vals = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-5, 0.1, 1 / 3, -1 / 3, 0.1, 1e16, -0.0]
    count = index_count(1, 3)
    flat = np.resize(np.array(vals), 2 * count * count)
    ent = flat.view(np.complex128).reshape(count, count)
    M = OperatorMatrix(3, 1, ent, Convention.PAPER_H, s_domain=0.5, s_codomain=-0.0)
    p = tmp_path / "m.csv"
    write_matrix(p, M, fmt="csv")
    want = [f"# focklab-mat version={VERSION} n=1 N=3 s_domain=0.5 s_codomain=-0.0 "
            "convention=paper-h", "row,col,re,im"]
    for i in range(count):
        for j in range(count):
            re, im = float(ent[i, j].real), float(ent[i, j].imag)
            want.append(f"{i},{j},{re!r},{im!r}")
    assert p.read_text() == "\n".join(want) + "\n"
    assert read_matrix(p).entries.tobytes() == ent.tobytes()


def _csv_lines(tmp_path):
    M = weyl_matrix(0.3 - 0.7j, 6)
    p = tmp_path / "w.csv"
    write_matrix(p, M, fmt="csv")
    return p, p.read_text().splitlines(keepends=True)


def test_csv_rejects_other_version(tmp_path):
    p, lines = _csv_lines(tmp_path)
    lines[0] = lines[0].replace(f"version={VERSION}", "version=7")
    p.write_text("".join(lines))
    with pytest.raises(FockLabError, match="version 7"):
        read_matrix(p)


def test_csv_rejects_missing_records(tmp_path):
    p, lines = _csv_lines(tmp_path)
    p.write_text("".join(lines[:-10]))
    with pytest.raises(FockLabError, match="records"):
        read_matrix(p)


@pytest.mark.parametrize("field", [0, 1])
@pytest.mark.parametrize("bad", ["7", "-1", "2.5"])
def test_csv_rejects_index_out_of_range(tmp_path, field, bad):
    p, lines = _csv_lines(tmp_path)  # N=6: indices 0..6
    rec = lines[-1].split(",")
    rec[field] = bad
    lines[-1] = ",".join(rec)
    p.write_text("".join(lines))
    with pytest.raises(FockLabError, match="index"):
        read_matrix(p)


@pytest.mark.parametrize("line, edit", [
    (0, lambda t: t.replace(" convention=fock", "")),
    (1, lambda t: "i,j,re,im\n"),
    (-1, lambda t: "6,6,abc,0.0\n"),
], ids=["header-key", "column-line", "record"])
def test_csv_rejects_malformed(tmp_path, line, edit):
    p, lines = _csv_lines(tmp_path)
    lines[line] = edit(lines[line])
    p.write_text("".join(lines))
    with pytest.raises(FockLabError):
        read_matrix(p)


def test_csv_rejects_duplicate_record(tmp_path):
    p, lines = _csv_lines(tmp_path)
    lines[-1] = lines[2]
    p.write_text("".join(lines))
    with pytest.raises(FockLabError, match="no record"):
        read_matrix(p)


def test_identity_export(tmp_path):
    count = index_count(1, 8)
    M = OperatorMatrix(8, 1, np.eye(count, dtype=complex), Convention.FOCK)
    p = tmp_path / "id.mat"
    write_matrix(p, M)
    R = read_matrix(p)
    assert np.all(np.diag(R.entries) == 1.0)
    assert np.abs(R.entries - np.eye(count)).max() == 0.0


def test_reimported_matrix_passes_conjugation_check(tmp_path):
    from focklab.transforms import interior_frobenius, translation_matrix

    W = weyl_matrix(0.5 + 0j, 16)
    p = tmp_path / "w05.mat"
    write_matrix(p, W)
    R = read_matrix(p)
    T = translation_matrix(np.array([0.5]), 16)
    assert interior_frobenius(T.entries, R.entries, 1, 16) <= 1e-6


def test_rejects_garbage(tmp_path):
    p = tmp_path / "bad.mat"
    p.write_bytes(b"not a matrix at all")
    with pytest.raises(FockLabError):
        read_matrix(p)


_H = matio._HEADER.size


@pytest.mark.parametrize("edit, match", [
    (lambda b: b[:-5], "payload"),
    (lambda b: b[:_H - 1] + bytes([7]) + b[_H:], "convention code 7"),
    (lambda b: b[:_H - 1], "header"),
], ids=["entry-cut-short", "convention-byte-7", "header-cut-short"])
def test_binary_rejects_malformed(tmp_path, edit, match):
    p = tmp_path / "w.mat"
    write_matrix(p, weyl_matrix(0.3 - 0.7j, 6))
    p.write_bytes(edit(p.read_bytes()))
    with pytest.raises(FockLabError, match=match):
        read_matrix(p)
