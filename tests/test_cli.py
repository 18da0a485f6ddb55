import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from focklab.cli import _build_parser, main
from focklab.reporting import strip_timing
from focklab.verify import CHECK_IDS, CHECKS, TOLERANCES, VerifyContext


def run_cli(*argv):
    return main(list(argv))


def test_verify_subset_exit_zero(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("verify", "--only", "hermite", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "focklab/1"
    assert doc["summary"]["failed"] == 0
    assert all(r["check_id"].startswith("hermite.") for r in doc["records"])


def test_probe_and_export_reject_small_truncation(tmp_path):
    for argv in (("probe", "--multiplier", "constant:1", "--N", "2", "--N", "8"),
                 ("export", "--matrix", "identity", "--N", "2",
                  "--out", str(tmp_path / "m.mat"))):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("s", ["-1", "nan", "inf"])
def test_probe_rejects_out_of_range_s(s):
    with pytest.raises(SystemExit) as exc:
        run_cli("probe", "--multiplier", "constant", "--s", s)
    assert exc.value.code == 2


def test_symbol_rejects_bad_quad_order():
    # 600 is past the 512-node cap of the Gauss-Hermite rules
    for order in ("10", "600"):
        with pytest.raises(SystemExit) as exc:
            run_cli("symbol", "--multiplier", "constant", "--quad-order", order)
        assert exc.value.code == 2


def test_probe_rejects_truncation_past_the_rule_cap():
    with pytest.raises(SystemExit) as exc:
        run_cli("probe", "--multiplier", "constant:1", "--N", "8", "--N", "300")
    assert exc.value.code == 2


@pytest.mark.parametrize("ident", ["modulation:nan", "constant:inf", "bump:0", "bump:-1"])
def test_probe_rejects_bad_multiplier_parameters(ident):
    with pytest.raises(SystemExit) as exc:
        run_cli("probe", "--multiplier", ident, "--N", "8", "--N", "16")
    assert exc.value.code == 2


@pytest.mark.parametrize("selector", ["translation:nan", "translation:-inf", "weyl:inf",
                                      "weyl:nan+1j", "multiplier:modulation:nan"])
def test_export_rejects_non_finite_selector_values(tmp_path, selector):
    out = tmp_path / "m.mat"
    with pytest.raises(SystemExit) as exc:
        run_cli("export", "--matrix", selector, "--N", "8", "--out", str(out))
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("verify", "--jobs", "2"),
    ("verify", "--N", "12"),
    ("symbol", "--multiplier", "constant", "--seed", "1"),
    ("probe", "--multiplier", "constant", "--n", "2"),
    ("export", "--matrix", "identity", "--s", "1"),
    ("export", "--matrix", "identity", "--tol.hermite.orthonormality", "0"),
    ("calibrate", "--multiplier", "bump"),
    ("verify", "--s", "2"),
], ids=lambda argv: argv[0] + argv[-2])
def test_option_of_another_subcommand_is_rejected(tmp_path, capsys, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--out", str(out))
    assert exc.value.code == 2
    assert argv[-2] in capsys.readouterr().err
    assert not out.exists()


def test_zero_tolerance_forces_failure(tmp_path):
    out = tmp_path / "r.json"
    code = run_cli("verify", "--only", "hermite.orthonormality",
                   "--tol.hermite.orthonormality", "0", "--out", str(out))
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["records"][0]["status"] == "fail"


def test_unknown_tol_override_is_config_error():
    # an unknown id, a check-id prefix, a check without tolerances and a
    # misspelt sub-key
    for key in ("nonsense.check", "hermite", "spaces.norm-monotonicity",
                "transforms.conjugation.flor"):
        with pytest.raises(SystemExit) as exc:
            run_cli("verify", "--only", "hermite.orthonormality", f"--tol.{key}", "1e-3")
        assert exc.value.code == 2


def test_reading_an_undeclared_key_raises():
    with pytest.raises(KeyError):
        VerifyContext().tol("hermite")


@pytest.mark.parametrize("cid, key", [(cid, key) for cid, _, tols in CHECKS for key in tols],
                         ids=list(TOLERANCES))
def test_every_declared_tol_key_is_applied(tmp_path, cid, key):
    # no measured defect is negative, so each key must fail its own check;
    # a crashed check would record no tolerance
    out = tmp_path / "r.json"
    assert run_cli("verify", "--only", cid, f"--tol.{key}=-1", "--out", str(out)) == 1
    rec, = [r for r in json.loads(out.read_text())["records"] if r["check_id"] == cid]
    assert rec["status"] == "fail"
    assert rec["tolerance"] == (-1.0 if key == cid else TOLERANCES[cid])


def test_list_prints_declared_keys(capsys):
    assert run_cli("verify", "--list") == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split()[0] for ln in lines] == CHECK_IDS
    listed = dict(kv.split("=") for ln in lines for kv in ln.split()[1:])
    assert {k: float(v) for k, v in listed.items()} == TOLERANCES


@pytest.mark.parametrize("only", ["operators", "transforms"])
def test_timed_checks_deterministic_modulo_timing(tmp_path, only):
    # theorem-matrix and bargmann-calibration time themselves; the time is
    # a pass condition but must stay out of the report.
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        run_cli("verify", "--only", only, "--out", str(out))
    assert strip_timing(a.read_text()) == strip_timing(b.read_text())
    ids = [r["check_id"] for r in json.loads(a.read_text())["records"]]
    assert ids == [c for c in CHECK_IDS if c.startswith(only)]


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


def test_probe_zero_multiplier_is_stable(tmp_path):
    out = tmp_path / "p.json"
    assert run_cli("probe", "--multiplier", "constant:0", "--N", "8", "--N", "16",
                   "--classical", "--out", str(out)) == 0
    recs = [r["measured"] for r in json.loads(out.read_text())["records"]]
    assert {r["side"] for r in recs} == {"hermite", "classical"}
    for r in recs:
        assert r["classification"] == "stable"
        assert r["values"] == [0.0, 0.0]


def test_probe_requires_increasing_N():
    with pytest.raises(SystemExit) as exc:
        run_cli("probe", "--multiplier", "constant:1", "--N", "16", "--N", "8")
    assert exc.value.code == 2


def test_probe_N_list_echoed_as_run(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("probe", "--multiplier", "constant:1", "--N", "20")
    assert exc.value.code == 2
    out = tmp_path / "p.json"
    run_cli("probe", "--multiplier", "constant:1", "--out", str(out))
    doc = json.loads(out.read_text())
    assert doc["config"]["N"] == [8, 16, 32, 64]
    assert doc["records"][0]["measured"]["N_list"] == [8, 16, 32, 64]


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


@pytest.mark.parametrize("selector", ["multiplier:bump", "conjugated:bump"])
@pytest.mark.parametrize("n", ["2", "3"])
def test_export_multiplier_is_one_dimensional(tmp_path, capsys, selector, n):
    out = tmp_path / "m.mat"
    with pytest.raises(SystemExit) as exc:
        run_cli("export", "--matrix", selector, "--n", n, "--N", "8", "--out", str(out))
    assert exc.value.code == 2
    assert "n=1 only" in capsys.readouterr().err
    assert not out.exists()


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


def _command_lines(text):
    """The ``focklab ...`` lines of ``text`` as argument lists, with
    backslash continuations joined."""
    lines = text.replace("\\\n", " ").splitlines()
    return [shlex.split(ln[ln.index("focklab "):])[1:] for ln in lines
            if "focklab " in ln]


def test_documented_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cli_block = readme.split("## CLI\n", 1)[1].strip("\n").split("\n\n", 1)[0]
    readme_argvs = _command_lines(cli_block)
    assert {argv[0] for argv in readme_argvs} == {"verify", "symbol", "probe", "export",
                                                  "calibrate"}
    for argv in readme_argvs + _command_lines(_build_parser().epilog):
        _build_parser().parse_args(argv)  # exits 2 on any undeclared option


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
