"""Calibration file: the measured growth-classification threshold, which the
probes' callers and the verification suite read instead of hard-coding.
``focklab calibrate`` measures it through ``boundedness_probe`` and
``classical_sobolev_probe``, which do not classify; ``focklab probe`` and the
``operators.probes`` check apply ``classify_growth`` against it (``_probe_record``).

The file is a flat ``key = value`` document with ``#`` provenance comments,
regenerated by ``focklab calibrate`` and checked into the repository.  The
environment variable FOCKLAB_CALIBRATION overrides the default path.
"""
from __future__ import annotations

import dataclasses
import math
import os
from importlib import resources
from pathlib import Path

from .errors import CalibrationError
from .multipliers import bump, chirp43, constant, signum
from .operators import (
    _PROBE_LADDER,
    GrowthReport,
    boundedness_probe,
    classical_sobolev_probe,
    classify_growth,
)

__all__ = [
    "default_calibration_path",
    "load_calibration",
    "save_calibration",
    "run_calibration",
    "REQUIRED_KEYS",
]

SCHEMA = "focklab-calibration/1"

REQUIRED_KEYS = ("growth.threshold",)


def default_calibration_path() -> Path:
    env = os.environ.get("FOCKLAB_CALIBRATION")
    if env:
        return Path(env)
    return Path(resources.files("focklab").joinpath("calibration.txt"))


def load_calibration() -> float:
    """The growth threshold in the calibration file at
    ``default_calibration_path()``; a missing key, or any other key, is refused."""
    p = default_calibration_path()
    if not p.exists() or p.stat().st_size == 0:
        raise CalibrationError(
            f"calibration file {p} missing or empty; run `focklab calibrate` first")
    values: dict[str, float] = {}
    schema = None
    for raw in p.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CalibrationError(f"malformed calibration line: {raw!r}")
        key, _, val = (t.strip() for t in line.partition("="))
        if key == "schema":
            schema = val
        else:
            values[key] = float(val)
    if schema != SCHEMA:
        raise CalibrationError(f"unexpected calibration schema {schema!r}")
    # unknown keys first: a stale file then names what it still carries
    unknown = [k for k in values if k not in REQUIRED_KEYS]
    if unknown:
        raise CalibrationError(
            f"calibration file has keys no check reads: {unknown}; rerun `focklab calibrate`")
    missing = [k for k in REQUIRED_KEYS if k not in values]
    if missing:
        raise CalibrationError(f"calibration file lacks keys: {missing}")
    return values["growth.threshold"]


def save_calibration(path: Path, values: dict[str, float], comments: dict[str, str]) -> None:
    lines = [
        "# Calibration constants measured by `focklab calibrate`.",
        "# Regenerate with:  focklab calibrate --out <this file>",
        "# Values are oracle measurements with stated safety margins, not hand-picked.",
        f"schema = {SCHEMA}",
    ]
    for key in sorted(values):
        if c := comments.get(key):
            lines.append(f"# {c}")
        lines.append(f"{key} = {float(values[key])!r}")
    path.write_text("\n".join(lines) + "\n")


def _probe_record(report: GrowthReport, threshold: float) -> dict:
    """A probe report's fields and its ``classification`` under ``threshold``,
    as ``focklab probe`` and the ``operators.probes`` check record it."""
    return {**dataclasses.asdict(report),
            "classification": classify_growth(report.values, threshold)}


def run_calibration(verbose: bool = False) -> tuple[dict[str, float], dict[str, str]]:
    """The mandatory oracle run: probe known stable and growing multipliers
    at s = 1 over ``_PROBE_LADDER`` and put the threshold at the geometric
    midpoint of the worst stable max/min and the least growing last/first,
    rounded to 12 significant digits: the last bit of the measured midpoint
    differs between machines, and the file must not (every other bound a
    check asserts is exact or stated)."""
    probe = {"hermite": boundedness_probe, "classical": classical_sobolev_probe}
    stable, growing = [], []
    for m, side, ratios in ((constant(1.0), "hermite", stable), (signum(), "hermite", growing),
                            (chirp43(), "hermite", stable), (bump(), "hermite", stable),
                            (chirp43(), "classical", growing), (bump(), "classical", stable)):
        r = probe[side](m, 1.0, _PROBE_LADDER)
        ratios.append(r.max_min if ratios is stable else r.last_first)
        if verbose:
            print(f"{m.label.partition(':')[0]}.s1.{side}: {list(r.values)} -> last/first "
                  f"{r.last_first:.4f}", flush=True)
    worst_stable, best_growing = max(stable), min(growing)
    if best_growing <= worst_stable:
        raise CalibrationError(
            f"growth classes do not separate: stable max/min up to {worst_stable:.4f}, "
            f"growing last/first down to {best_growing:.4f}")
    key = "growth.threshold"
    return ({key: float(f"{math.sqrt(worst_stable * best_growing):.12g}")},
            {key: f"geometric midpoint of worst stable max/min {worst_stable:.4f} and "
                  f"smallest growing last/first {best_growing:.4f}, to 12 significant digits"})
