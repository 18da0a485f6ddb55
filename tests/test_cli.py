import csv
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import focklab
from focklab import cli
from focklab.calibration import default_calibration_path
from focklab.cli import _build_parser, main
from focklab.errors import AccuracyWarning
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


@pytest.mark.parametrize("s", ["-1", "nan", "inf", "-1e-3", "-1.5E+2", "-.5"])
def test_probe_rejects_out_of_range_s(capsys, s):
    with pytest.raises(SystemExit) as exc:
        run_cli("probe", "--multiplier", "constant", "--s", s)
    assert exc.value.code == 2
    # a range error, not argparse reading a negative number as an option
    assert "expected one argument" not in capsys.readouterr().err


def test_negative_seed_is_rejected(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "--seed", "-70000", "--out", str(out))
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("argv", [
    ("probe", "--multiplier", "signum:1"),
    ("probe", "--multiplier", "chirp43:2"),
    ("probe", "--multiplier", "bump:1,2"),
    ("probe", "--multiplier", "modulation:0.5,0.5"),
    ("symbol", "--multiplier", "chirp43:2"),
    ("export", "--matrix", "multiplier:signum:1", "--N", "8"),
])
def test_wrong_multiplier_parameter_count_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--out", str(out))
    assert exc.value.code == 2
    assert "takes" in capsys.readouterr().err
    assert not out.exists()


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
    ("calibrate", "--seed", "2718"),
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


@pytest.mark.parametrize("argv", [("--tol.spaces.kappa=nan",), ("--tol.spaces.kappa=inf",),
                                  ("--tol.spaces.kappa=-inf",), ("--tol.spaces.kappa", "-inf")],
                         ids=["nan", "inf", "-inf", "-inf-separate"])
def test_non_finite_tol_override_is_config_error(tmp_path, capsys, argv):
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "--only", "spaces.kappa", *argv, "--out", str(out))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--tol.spaces.kappa" in err and "must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [("--tol.spaces.kappa", "-0.001"),
                                  ("--tol.spaces.kappa", "-1e-3"),
                                  ("--tol.spaces.kappa=-1e-3",)],
                         ids=["decimal", "exponent", "joined"])
def test_negative_tol_override_fails_the_check(tmp_path, argv):
    out = tmp_path / "r.json"
    assert run_cli("verify", "--only", "spaces.kappa", *argv, "--out", str(out)) == 1
    rec, = json.loads(out.read_text())["records"]
    assert rec["status"] == "fail"
    assert rec["tolerance"] == -1e-3


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


@pytest.mark.parametrize("cid, key, tols",
                         [(cid, key, tols) for cid, _, tols in CHECKS for key in tols],
                         ids=list(TOLERANCES))
def test_every_declared_tol_key_is_applied(tmp_path, cid, key, tols):
    # no measured defect is negative, so each key must fail its own check;
    # a crashed check would record no tolerance
    out = tmp_path / "r.json"
    assert run_cli("verify", "--only", cid, f"--tol.{key}=-1", "--out", str(out)) == 1
    rec, = [r for r in json.loads(out.read_text())["records"] if r["check_id"] == cid]
    assert rec["status"] == "fail"
    assert rec["tolerance"] == (-1.0 if key == cid else TOLERANCES[cid])
    # the record echoes every key its check declares, sub-keys included
    assert rec["tolerances"] == {k: -1.0 if k == key else TOLERANCES[k] for k in tols}


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


def test_report_does_not_depend_on_blas_threads(tmp_path):
    # one and two BLAS/OpenMP threads, each fixed before numpy loads: the
    # operators checks' norms, SVDs and Gram products must not see the split
    src = str(Path(cli.__file__).resolve().parents[1])
    texts = []
    for threads in ("1", "2"):
        out = tmp_path / f"r{threads}.json"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        r = subprocess.run([sys.executable, "-m", "focklab.cli", "verify", "--seed", "23",
                            "--only", "operators", "--out", str(out)],
                           capture_output=True, text=True, timeout=300, env=env)
        assert r.returncode in (0, 1), r.stderr
        texts.append(strip_timing(out.read_text()))
    assert texts[0] == texts[1]


def test_determinism_modulo_timing(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("verify", "--only", "spaces.norm-monotonicity", "--seed", "7",
            "--out", str(a))
    run_cli("verify", "--only", "spaces.norm-monotonicity", "--seed", "7",
            "--out", str(b))
    assert strip_timing(a.read_text()) == strip_timing(b.read_text())
    assert a.read_text() != "" and b.read_text() != ""


def test_verify_config_records_provenance(tmp_path, monkeypatch):
    # the calibration is named by path and hash; reruns stay byte-identical
    cal = tmp_path / "cal.txt"
    cal.write_bytes(default_calibration_path().read_bytes())
    monkeypatch.setenv("FOCKLAB_CALIBRATION", str(cal))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        run_cli("verify", "--only", "operators.probes", "--out", str(out))
    prov = json.loads(a.read_text())["config"]["provenance"]
    assert prov == {"focklab": focklab.__version__, "numpy": np.__version__,
                    "calibration": {"path": str(cal),
                                    "sha256": hashlib.sha256(cal.read_bytes()).hexdigest()}}
    assert strip_timing(a.read_text()) == strip_timing(b.read_text())


@pytest.mark.parametrize("fmt, loaded", [("json", True), ("csv", False)])
def test_only_json_hashes_the_calibration(fmt, loaded):
    # CSV carries no config, so it builds no provenance; in a fresh interpreter
    # a check that draws no random vector then never loads OpenSSL
    code = ("import sys; from focklab.cli import main; "
            f"main(['verify', '--only', 'hermite.orthonormality', '--format', '{fmt}']); "
            "print('_hashlib' in sys.modules)")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       timeout=120)
    assert r.returncode == 0
    assert r.stdout.splitlines()[-1] == str(loaded)


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


def test_verify_csv_cells_are_plain_values(tmp_path):
    # numpy scalars print as Python floats, never as np.float64(...)
    out = tmp_path / "r.csv"
    assert run_cli("verify", "--seed", "23", "--format", "csv", "--out", str(out)) == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert len(rows) == len(CHECK_IDS)
    assert not any("np." in cell for row in rows for cell in row.values())
    for row in rows:
        try:
            float(row["measured"])
        except ValueError:
            json.loads(row["measured"])


def test_probe_csv_rows_match_the_json_norms(tmp_path):
    j, c = tmp_path / "p.json", tmp_path / "p.csv"
    for fmt, out in (("json", j), ("csv", c)):
        run_cli("probe", "--multiplier", "bump:0.9", "--s", "0.5", "--N", "8", "--N", "16",
                "--classical", "--format", fmt, "--out", str(out))
    want = ["multiplier,side,s,N,norm"]
    for r in json.loads(j.read_text())["records"]:
        m = r["measured"]
        want += [f"bump:0.9,{m['side']},0.5,{N},{v!r}" for N, v in zip(m["N_list"], m["values"])]
    assert c.read_text() == "\n".join(want) + "\n"


def test_symbol_csv_rows_match_the_json_records(tmp_path):
    j, c = tmp_path / "s.json", tmp_path / "s.csv"
    for fmt, out in (("json", j), ("csv", c)):
        run_cli("symbol", "--multiplier", "bump", "--z-re=-1:1:2", "--z-im=0:1:2",
                "--format", fmt, "--out", str(out))
    keys = ("re_z", "im_z", "re_phi", "im_phi", "order_diff_rel")
    want = [",".join(keys)] + [",".join(repr(r["measured"][k]) for k in keys)
                               for r in json.loads(j.read_text())["records"]]
    assert c.read_text() == "\n".join(want) + "\n"


def test_symbol_constant(tmp_path):
    out = tmp_path / "s.csv"
    run_cli("symbol", "--multiplier", "constant:1", "--format", "csv",
            "--z-re=-1:1:3", "--z-im=-1:1:3", "--out", str(out))
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 9
    for row in rows:
        re_z, im_z, re_phi, im_phi, _ = map(float, row.split(","))
        assert abs(complex(re_phi, im_phi) - 1.0) <= 1e-10


def test_symbol_modulation_value(tmp_path):
    out = tmp_path / "s.csv"
    run_cli("symbol", "--multiplier", "modulation:1", "--format", "csv",
            "--z-re", "1:1:1", "--z-im", "0:0:1", "--out", str(out))
    re_z, im_z, re_phi, im_phi, _ = map(float, out.read_text().splitlines()[1].split(","))
    assert complex(re_phi, im_phi) == pytest.approx(math.exp(0.5), rel=1e-10)


def test_symbol_signum_origin(tmp_path):
    out = tmp_path / "s.csv"
    run_cli("symbol", "--multiplier", "signum", "--format", "csv",
            "--z-re", "0:0:1", "--z-im", "0:0:1", "--out", str(out))
    _, _, re_phi, im_phi, _ = map(float, out.read_text().splitlines()[1].split(","))
    assert abs(complex(re_phi, im_phi)) <= 1e-12


def test_symbol_flags_points_without_digits(tmp_path, capsys):
    # order 160 gives phi(30) = -1.83e192 (closed form 1.14e65) and phi(40) = -inf;
    # both read inconclusive, and numpy's overflow warning is not printed
    out = tmp_path / "s.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("symbol", "--multiplier", "bump", "--z-re=30:40:2", "--z-im=0:0:1",
                       "--out", str(out)) == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    doc = json.loads(out.read_text())
    assert doc["config"]["reference_order"] == 320
    assert [r["status"] for r in doc["records"]] == ["inconclusive"] * 2
    assert all(r["measured"]["order_diff_rel"] > 1e-8 for r in doc["records"])
    assert "2 of 2 points inconclusive" in capsys.readouterr().err


def test_symbol_still_warns_beyond_the_node_range(tmp_path):
    with pytest.warns(AccuracyWarning, match="node range"):
        run_cli("symbol", "--multiplier", "bump", "--z-re=0:0:1", "--z-im=30:30:1",
                "--out", str(tmp_path / "s.json"))


def _symbol_closed_form(kind, p, z):
    if kind == "constant":
        return np.full_like(z, p)
    if kind == "modulation":
        return np.exp(p * z - p * p / 2)
    a = 1 / p ** 2 + 2  # bump of width p
    return math.sqrt(2 / a) * np.exp(z * z * (0.5 - 1 / a))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["constant", "modulation", "bump"]),
       p=st.floats(0.3, 3.0), sign=st.sampled_from([-1.0, 1.0]),
       order=st.sampled_from(["40", "160", "400"]),
       re0=st.floats(-40.0, 36.0), im0=st.floats(-12.0, 9.0))
def test_symbol_points_match_closed_form_or_are_flagged(tmp_path_factory, kind, p, sign,
                                                       order, re0, im0):
    # Order 400 takes its estimate from order 200, the others from 2q.  Over
    # 1.5e5 points, orders 40..512, the worst passing point had error
    # 91 x its estimate, and 1.1e-11 where the two rules agreed to rounding
    # (both share the rules' weight errors); the bounds are about 10x those.
    if kind != "bump":
        p *= sign
    out = tmp_path_factory.mktemp("sym") / "s.json"
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        run_cli("symbol", "--multiplier", f"{kind}:{p!r}", "--quad-order", order,
                f"--z-re={re0!r}:{re0 + 4.0!r}:3", f"--z-im={im0!r}:{im0 + 3.0!r}:3",
                "--out", str(out))
    for r in json.loads(out.read_text())["records"]:
        mz = r["measured"]
        if r["status"] == "inconclusive":
            assert mz["order_diff_rel"] > 1e-8
            continue
        assert r["status"] == "pass" and mz["order_diff_rel"] <= 1e-8
        want = _symbol_closed_form(kind, p, complex(mz["re_z"], mz["im_z"]))
        err = abs(complex(mz["re_phi"], mz["im_phi"]) - want) / abs(want)
        assert err <= 1000 * mz["order_diff_rel"] + 1e-10


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


def test_probe_huge_multiplier_is_stable(tmp_path):
    # the squared norms of 1e300 overflow unless both sides scale them
    out = tmp_path / "p.json"
    assert run_cli("probe", "--multiplier", "constant:1e300", "--N", "8", "--N", "16",
                   "--classical", "--out", str(out)) == 0
    recs = [r["measured"] for r in json.loads(out.read_text())["records"]]
    assert {r["side"] for r in recs} == {"hermite", "classical"}
    for r in recs:
        assert r["classification"] == "stable"
        assert r["values"] == pytest.approx([1e300, 1e300], rel=1e-12)


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


def test_repeated_main_calls_share_no_state(tmp_path, monkeypatch):
    # the parser is built once per process; every call parses afresh
    out = tmp_path / "p.json"
    for _ in range(2):
        run_cli("probe", "--multiplier", "constant:1", "--N", "8", "--N", "16",
                "--out", str(out))
        assert json.loads(out.read_text())["config"]["N"] == [8, 16]
    run_cli("probe", "--multiplier", "bump", "--s", "1", "--N", "8", "--N", "16",
            "--classical", "--out", str(out))
    assert len(json.loads(out.read_text())["records"]) == 2

    def no_classical(*args, **kwargs):
        raise AssertionError("classical side ran")

    monkeypatch.setattr(cli, "classical_sobolev_probe", no_classical)
    run_cli("probe", "--multiplier", "bump", "--s", "1", "--N", "8", "--N", "16",
            "--out", str(out))
    assert [r["measured"]["side"] for r in json.loads(out.read_text())["records"]] \
        == ["hermite"]


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


@pytest.mark.parametrize("argv, status, phrase", [
    (("verify", "--only", "nomatch"), 2, "matches no checks"),
    (("symbol", "--multiplier", "bump", "--z-re", "1:2"), 2, "bad range"),
    (("export", "--matrix", "weyl:0.5", "--N", "8", "--out", "{missing}/x.mat"), 1,
     "I/O error"),
    (("probe", "--multiplier", "bump", "--s", "400", "--N", "8", "--N", "64"), 1,
     "error: the weighted section at s=400, N=64 is not finite"),
])
def test_exit_status_names_its_cause(tmp_path, capsys, argv, status, phrase):
    try:
        code = run_cli(*(a.format(missing=tmp_path / "missing") for a in argv))
    except SystemExit as exc:
        code = exc.code
    assert code == status
    assert phrase in capsys.readouterr().err


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
    assert load_calibration() > 1.0
    monkeypatch.setenv("FOCKLAB_CALIBRATION", str(tmp_path / "missing.txt"))
    with pytest.raises(CalibrationError):
        load_calibration()


@pytest.mark.parametrize("line", [
    "weyl.C = 1.3078368168670744",
    "ladder.k2.hi = 5.145335518279746",
    "signum.entry01.tol = 0.031113486114157318",
    "seed = 2718",
    "growth.G = 1.1112418160375572",
    "growth.S = 1.1112418160375572",
], ids=lambda line: line.split(" = ")[0])
def test_stale_calibration_key_fails_loudly(tmp_path, monkeypatch, line):
    # a file from before the exact norm-ratio and ladder bounds and the single
    # growth threshold still carries weyl.C, the ladder intervals, the signum
    # tolerance, the draw seed or the two equal thresholds G and S
    from focklab.calibration import default_calibration_path, load_calibration
    from focklab.errors import CalibrationError

    dst = tmp_path / "cal.txt"
    dst.write_text(default_calibration_path().read_text() + line + "\n")
    monkeypatch.setenv("FOCKLAB_CALIBRATION", str(dst))
    with pytest.raises(CalibrationError, match=re.escape(repr(line.split(" = ")[0]))):
        load_calibration()
    assert run_cli("verify", "--only", "transforms.weyl", "--out", str(tmp_path / "r.json")) == 1


def test_two_threshold_calibration_file_is_refused(tmp_path, monkeypatch):
    # the last file with growth.G and growth.S, and no growth.threshold
    from focklab.calibration import load_calibration
    from focklab.errors import CalibrationError

    dst = tmp_path / "cal.txt"
    dst.write_text("schema = focklab-calibration/1\n"
                   "growth.G = 1.1112418160375572\n"
                   "growth.S = 1.1112418160375572\n")
    monkeypatch.setenv("FOCKLAB_CALIBRATION", str(dst))
    with pytest.raises(CalibrationError, match="'growth.G'"):
        load_calibration()
