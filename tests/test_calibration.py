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
def fresh(committed):
    values, _ = run_calibration(seed=committed.seed)
    return values


def test_committed_calibration_is_fresh(committed, fresh):
    assert sorted(fresh) == sorted(committed.values)
    for key, value in fresh.items():
        assert value == pytest.approx(committed.values[key], rel=1e-12, abs=0.0), key


def test_writes_exactly_the_required_keys(fresh):
    # a key nothing reads is a measurement nobody checks
    assert sorted(fresh) == sorted(REQUIRED_KEYS)
