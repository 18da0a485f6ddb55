"""The committed calibration file must be what `focklab calibrate` writes today.

A change that moves a calibrated measurement (a new bump, a new norm routine)
has to regenerate the file in the same change; this test catches a file left
stale.
"""
import re
from importlib import resources

import pytest

from focklab.calibration import REQUIRED_KEYS, load_calibration, run_calibration
from focklab.cli import main
from focklab.errors import CalibrationError


@pytest.fixture(scope="module")
def committed():
    return load_calibration()


@pytest.fixture(scope="module")
def fresh():
    values, _ = run_calibration()
    return values


def test_committed_calibration_is_fresh(committed, fresh, tmp_path):
    # the value is stored to 12 significant digits, so it is exact everywhere
    assert fresh["growth.threshold"] == committed
    # and `focklab calibrate` writes the packaged file byte for byte
    out = tmp_path / "calibration.txt"
    assert main(["calibrate", "--out", str(out)]) == 0
    assert out.read_bytes() == resources.files("focklab").joinpath("calibration.txt").read_bytes()


def test_writes_exactly_the_required_keys(fresh):
    # a key nothing reads is a measurement nobody checks
    assert sorted(fresh) == sorted(REQUIRED_KEYS)


def test_calibrate_regenerates_a_missing_default_file(tmp_path, monkeypatch, capsys):
    # the path the missing-file error sends users to: no --out, so the file
    # goes to FOCKLAB_CALIBRATION, and --verbose logs the six sequences
    cal = tmp_path / "calibration.txt"
    monkeypatch.setenv("FOCKLAB_CALIBRATION", str(cal))
    with pytest.raises(CalibrationError, match="run `focklab calibrate` first"):
        load_calibration()
    assert main(["calibrate", "--verbose"]) == 0
    assert cal.read_bytes() == resources.files("focklab").joinpath("calibration.txt").read_bytes()
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split(":")[0] for ln in lines] == [
        "constant.s1.hermite", "signum.s1.hermite", "chirp43.s1.hermite",
        "bump.s1.hermite", "chirp43.s1.classical", "bump.s1.classical"]
    assert all(re.fullmatch(r"[\w.]+: \[[^]]+\] -> last/first \d+\.\d{4}", ln)
               for ln in lines)
