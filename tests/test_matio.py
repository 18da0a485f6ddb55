from dataclasses import replace

import numpy as np
import pytest

from focklab.hermite import Convention
from focklab.matio import MAGIC, read_matrix, write_matrix
from focklab.transforms import weyl_matrix
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
    assert np.array_equal(R.entries, M.entries)  # repr round-trips floats exactly


def test_identity_export(tmp_path):
    from focklab.hermite import index_count
    from focklab.transforms import OperatorMatrix

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
