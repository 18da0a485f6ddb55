"""Calibration file: the measured growth-classification threshold that the
probes and the verification suite read instead of hard-coding.

The file is a flat ``key = value`` document with ``#`` provenance comments,
regenerated by ``focklab calibrate`` and checked into the repository.  The
environment variable FOCKLAB_CALIBRATION overrides the default path.
"""
from __future__ import annotations

import math
import os
from importlib import resources
from pathlib import Path

from .errors import CalibrationError
from .multipliers import bump, chirp43, constant, signum
from .operators import (
    _PROBE_LADDER,
    _classical_norm,
    _growth_ratios,
    conjugated_multiplier_matrix,
    operator_norm,
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
        c = comments.get(key)
        if c:
            lines.append(f"# {c}")
        lines.append(f"{key} = {float(values[key])!r}")
    path.write_text("\n".join(lines) + "\n")


def run_calibration(verbose: bool = False) -> tuple[dict[str, float], dict[str, str]]:
    """The mandatory oracle run: measure the growth ratios of known stable and
    growing norm sequences and put the threshold at their geometric midpoint,
    rounded to 12 significant digits: the last bit of the measured midpoint
    differs between machines, and the file must not (every other bound a
    check asserts is exact or stated)."""
    values: dict[str, float] = {}
    comments: dict[str, str] = {}

    def log(msg: str) -> None:
        if verbose:
            print(msg, flush=True)

    # --- growth sequences over the probe truncations
    Ns = _PROBE_LADDER
    stable_ratios: list[float] = []
    growing_ratios: list[float] = []

    def hermite_seq(m):
        return [operator_norm(conjugated_multiplier_matrix(m, N), 1.0) for N in Ns]

    def classical_seq(m):
        return [_classical_norm(m, 1.0, N) for N in Ns]

    seqs = {
        "constant.s1.hermite": (hermite_seq(constant(1.0)), "stable"),
        "signum.s1.hermite": (hermite_seq(signum()), "growing"),
        "chirp43.s1.hermite": (hermite_seq(chirp43()), "stable"),
        "bump.s1.hermite": (hermite_seq(bump()), "stable"),
        "chirp43.s1.classical": (classical_seq(chirp43()), "growing"),
        "bump.s1.classical": (classical_seq(bump()), "stable"),
    }
    for name, (vals, kind) in seqs.items():
        lf, mm = _growth_ratios(vals)
        if kind == "stable":
            stable_ratios.append(mm)
        else:
            growing_ratios.append(lf)
        log(f"{name}: {vals} -> last/first {lf:.4f}")

    worst_stable = max(stable_ratios)
    best_growing = min(growing_ratios)
    if best_growing <= worst_stable:
        raise CalibrationError(
            f"growth classes do not separate: stable max/min up to {worst_stable:.4f}, "
            f"growing last/first down to {best_growing:.4f}")
    values["growth.threshold"] = float(f"{math.sqrt(worst_stable * best_growing):.12g}")
    comments["growth.threshold"] = (
        f"geometric midpoint of worst stable max/min {worst_stable:.4f} and "
        f"smallest growing last/first {best_growing:.4f}, to 12 significant digits")
    return values, comments
