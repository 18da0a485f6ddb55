"""The committed calibration file must be what `focklab calibrate` writes today.

A change that moves a calibrated measurement (a new bump, a new norm routine)
has to regenerate the file in the same change; this test catches a file left
stale.
"""
import pytest

from focklab.calibration import load_calibration, run_calibration


def test_committed_calibration_is_fresh():
    committed = load_calibration()
    values, _ = run_calibration(seed=committed.seed)
    assert sorted(values) == sorted(committed.values)
    for key, value in values.items():
        assert value == pytest.approx(committed.values[key], rel=1e-12, abs=0.0), key
