import json
import math
import subprocess
import sys

import numpy as np
import pytest

from focklab.cli import main
from focklab.reporting import strip_timing


def run_cli(*argv):
    return main(list(argv))


def test_verify_subset_exit_zero(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("verify", "--only", "hermite", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "focklab/1"
    assert doc["summary"]["failed"] == 0
    assert all(r["check_id"].startswith("hermite.") for r in doc["records"])


def test_verify_rejects_small_truncation():
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "--N", "2")
    assert exc.value.code == 2


def test_verify_rejects_bad_quad_order():
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "--N", "12", "--quad-order", "10")
    assert exc.value.code == 2


def test_zero_tolerance_forces_failure(tmp_path):
    out = tmp_path / "r.json"
    code = run_cli("verify", "--only", "hermite.orthonormality",
                   "--tol.hermite.orthonormality", "0", "--out", str(out))
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["records"][0]["status"] == "fail"


def test_unknown_tol_override_is_config_error():
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "--tol.nonsense.check", "1e-3")
    assert exc.value.code == 2


def test_determinism_modulo_timing(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("verify", "--only", "spaces.norm-monotonicity", "--seed", "7",
            "--out", str(a))
    run_cli("verify", "--only", "spaces.norm-monotonicity", "--seed", "7",
            "--out", str(b))
    assert strip_timing(a.read_text()) == strip_timing(b.read_text())
    assert a.read_text() != "" and b.read_text() != ""


def test_csv_json_values_agree(tmp_path):
    j, c = tmp_path / "r.json", tmp_path / "r.csv"
    run_cli("verify", "--only", "hermite.orthonormality", "--out", str(j))
    run_cli("verify", "--only", "hermite.orthonormality", "--format", "csv",
            "--out", str(c))
    doc = json.loads(j.read_text())
    measured_json = doc["records"][0]["measured"]
    line = c.read_text().splitlines()[1]
    measured_csv = float(line.split(",")[2])
    assert measured_csv == measured_json  # repr round-trip: exact equality


def test_symbol_constant(tmp_path):
    out = tmp_path / "s.csv"
    run_cli("symbol", "--multiplier", "constant:1", "--format", "csv",
            "--z-re=-1:1:3", "--z-im=-1:1:3", "--out", str(out))
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 9
    for row in rows:
        re_z, im_z, re_phi, im_phi = map(float, row.split(","))
        assert abs(complex(re_phi, im_phi) - 1.0) <= 1e-10


def test_symbol_modulation_value(tmp_path):
    out = tmp_path / "s.csv"
    run_cli("symbol", "--multiplier", "modulation:1", "--format", "csv",
            "--z-re", "1:1:1", "--z-im", "0:0:1", "--out", str(out))
    re_z, im_z, re_phi, im_phi = map(float, out.read_text().splitlines()[1].split(","))
    assert complex(re_phi, im_phi) == pytest.approx(math.exp(0.5), rel=1e-10)


def test_symbol_signum_origin(tmp_path):
    out = tmp_path / "s.csv"
    run_cli("symbol", "--multiplier", "signum", "--format", "csv",
            "--z-re", "0:0:1", "--z-im", "0:0:1", "--out", str(out))
    _, _, re_phi, im_phi = map(float, out.read_text().splitlines()[1].split(","))
    assert abs(complex(re_phi, im_phi)) <= 1e-12


def test_symbol_unknown_multiplier():
    with pytest.raises(SystemExit) as exc:
        run_cli("symbol", "--multiplier", "wavelet")
    assert exc.value.code == 2


def test_symbol_bad_multiplier_argument():
    with pytest.raises(SystemExit) as exc:
        run_cli("symbol", "--multiplier", "constant:abc")
    assert exc.value.code == 2


def test_probe_constant_stable(tmp_path):
    out = tmp_path / "p.json"
    run_cli("probe", "--multiplier", "constant:1", "--s", "2",
            "--N", "8", "--N", "16", "--N", "32", "--out", str(out))
    doc = json.loads(out.read_text())
    rec = doc["records"][0]["measured"]
    assert rec["classification"] == "stable"
    assert all(abs(v - 1) < 1e-8 for v in rec["values"])


def test_probe_chirp_contrast(tmp_path):
    out = tmp_path / "p.json"
    run_cli("probe", "--multiplier", "chirp43", "--s", "1", "--classical",
            "--out", str(out))
    doc = json.loads(out.read_text())
    byside = {r["measured"]["side"]: r["measured"]["classification"]
              for r in doc["records"]}
    assert byside == {"hermite": "stable", "classical": "growing"}


def test_probe_requires_increasing_N():
    with pytest.raises(SystemExit) as exc:
        run_cli("probe", "--multiplier", "constant:1", "--N", "16", "--N", "8")
    assert exc.value.code == 2


def test_export_roundtrip_bit_identical(tmp_path):
    from focklab.matio import read_matrix, write_matrix

    out = tmp_path / "m.mat"
    assert run_cli("export", "--matrix", "weyl:0.5", "--N", "16",
                   "--out", str(out)) == 0
    M = read_matrix(out)
    out2 = tmp_path / "m2.mat"
    write_matrix(out2, M)
    assert out.read_bytes() == out2.read_bytes()


def test_export_identity_diagonal(tmp_path):
    from focklab.matio import read_matrix

    out = tmp_path / "id.mat"
    run_cli("export", "--matrix", "identity", "--N", "8", "--out", str(out))
    M = read_matrix(out)
    assert np.all(np.diag(M.entries) == 1.0)


def test_export_unknown_selector(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("export", "--matrix", "hadamard", "--N", "8",
                "--out", str(tmp_path / "x.mat"))
    assert exc.value.code == 2


def test_module_entrypoint_smoke():
    r = subprocess.run(
        [sys.executable, "-m", "focklab.cli", "verify", "--list"],
        capture_output=True, text=True, timeout=120)
    assert r.returncode == 0
    assert "operators.theorem-matrix" in r.stdout


def test_worker_pool_preserves_order_and_values(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("verify", "--only", "hermite", "--jobs", "1", "--out", str(a))
    run_cli("verify", "--only", "hermite", "--jobs", "3", "--out", str(b))
    assert strip_timing(a.read_text()) == strip_timing(b.read_text().replace('"jobs": 3', '"jobs": 1'))


def test_calibration_env_override(tmp_path, monkeypatch):
    import shutil

    from focklab.calibration import default_calibration_path, load_calibration
    from focklab.errors import CalibrationError

    src = default_calibration_path()
    dst = tmp_path / "cal.txt"
    shutil.copy(src, dst)
    monkeypatch.setenv("FOCKLAB_CALIBRATION", str(dst))
    assert load_calibration()["growth.G"] > 1.0
    monkeypatch.setenv("FOCKLAB_CALIBRATION", str(tmp_path / "missing.txt"))
    with pytest.raises(CalibrationError):
        load_calibration()
