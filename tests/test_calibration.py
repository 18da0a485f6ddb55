"""The committed calibration file must be what `focklab calibrate` writes today.

A change that moves a calibrated measurement (a new bump, a new norm routine)
has to regenerate the file in the same change; this test catches a file left
stale.
"""
import pytest

from focklab.calibration import REQUIRED_KEYS, load_calibration, run_calibration


@pytest.fixture(scope="module")
def committed():
    return load_calibration()


@pytest.fixture(scope="module")
def fresh():
    values, _ = run_calibration()
    return values


def test_committed_calibration_is_fresh(committed, fresh):
    # the value is stored to 12 significant digits, so it is exact everywhere
    assert fresh["growth.threshold"] == committed


def test_writes_exactly_the_required_keys(fresh):
    # a key nothing reads is a measurement nobody checks
    assert sorted(fresh) == sorted(REQUIRED_KEYS)
