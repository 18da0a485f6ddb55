"""Calibration file: empirically measured thresholds and equivalence
constants that the verification suite reads instead of hard-coding.

The file is a flat ``key = value`` document with ``#`` provenance comments,
regenerated by ``focklab calibrate`` and checked into the repository.  The
environment variable FOCKLAB_CALIBRATION overrides the default path.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import CalibrationError
from .hermite import Convention, random_vector
from .multipliers import bump, chirp43, constant, signum
from .operators import (
    GrowthThresholds,
    _classical_norm,
    _growth_ratios,
    conjugated_multiplier_matrix,
    operator_norm,
)
from .spaces import sobolev_norm
from .transforms import ladder_seminorm

__all__ = [
    "Calibration",
    "default_calibration_path",
    "load_calibration",
    "save_calibration",
    "run_calibration",
    "REQUIRED_KEYS",
]

SCHEMA = "focklab-calibration/1"

REQUIRED_KEYS = (
    "growth.G",
    "growth.S",
    "ladder.k1.lo", "ladder.k1.hi",
    "ladder.k2.lo", "ladder.k2.hi",
    "signum.entry01.tol",
)


@dataclass(frozen=True)
class Calibration:
    values: dict[str, float]
    seed: int

    def __getitem__(self, key: str) -> float:
        try:
            return self.values[key]
        except KeyError:
            raise CalibrationError(
                f"calibration key {key!r} missing; rerun `focklab calibrate`") from None

    @property
    def growth_thresholds(self) -> GrowthThresholds:
        return GrowthThresholds(G=self["growth.G"], S=self["growth.S"])


def default_calibration_path() -> Path:
    env = os.environ.get("FOCKLAB_CALIBRATION")
    if env:
        return Path(env)
    return Path(resources.files("focklab").joinpath("calibration.txt"))


def load_calibration(path: Path | None = None) -> Calibration:
    p = path or default_calibration_path()
    if not p.exists() or p.stat().st_size == 0:
        raise CalibrationError(
            f"calibration file {p} missing or empty; run `focklab calibrate` first")
    values: dict[str, float] = {}
    seed = 0
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
        elif key == "seed":
            seed = int(val)
        else:
            values[key] = float(val)
    if schema != SCHEMA:
        raise CalibrationError(f"unexpected calibration schema {schema!r}")
    missing = [k for k in REQUIRED_KEYS if k not in values]
    if missing:
        raise CalibrationError(f"calibration file lacks keys: {missing}")
    unknown = [k for k in values if k not in REQUIRED_KEYS]
    if unknown:
        raise CalibrationError(
            f"calibration file has keys no check reads: {unknown}; rerun `focklab calibrate`")
    return Calibration(values=values, seed=seed)


def save_calibration(path: Path, values: dict[str, float], comments: dict[str, str],
                     seed: int) -> None:
    lines = [
        "# Calibration constants measured by `focklab calibrate`.",
        "# Regenerate with:  focklab calibrate --out <this file>",
        "# Values are oracle measurements with stated safety margins, not hand-picked.",
        f"schema = {SCHEMA}",
        f"seed = {seed}",
    ]
    for key in sorted(values):
        c = comments.get(key)
        if c:
            lines.append(f"# {c}")
        lines.append(f"{key} = {float(values[key])!r}")
    path.write_text("\n".join(lines) + "\n")


def run_calibration(seed: int = 2718, verbose: bool = False) -> tuple[dict[str, float], dict[str, str]]:
    """The mandatory oracle run: measure growth ratios, ladder-seminorm intervals
    and the signum entry accuracy, and derive thresholds with stated margins
    (norm-ratio bounds with exact extremes are computed by their checks)."""
    values: dict[str, float] = {}
    comments: dict[str, str] = {}

    def log(msg: str) -> None:
        if verbose:
            print(msg, flush=True)

    # --- growth sequences over the probe truncations
    Ns = (8, 16, 32, 64)
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
    mid = math.sqrt(worst_stable * best_growing)
    values["growth.G"] = mid
    comments["growth.G"] = (
        f"geometric midpoint of worst stable max/min {worst_stable:.4f} and "
        f"smallest growing last/first {best_growing:.4f}")
    values["growth.S"] = mid
    comments["growth.S"] = "same midpoint; stable means max/min below it"

    # --- ladder seminorm vs weighted norm, integer orders
    log("ladder equivalence ...")
    for k in (1, 2):
        ratios = []
        for N in (16, 32):
            for i in range(10):
                v = random_vector(1, N, Convention.PAPER_H, seed + 120 + i)
                ratios.append(ladder_seminorm(v, k) / sobolev_norm(v, float(k)))
        lo, hi = min(ratios), max(ratios)
        values[f"ladder.k{k}.lo"] = lo / 1.15
        values[f"ladder.k{k}.hi"] = hi * 1.15
        comments[f"ladder.k{k}.lo"] = f"observed [{lo:.4f}, {hi:.4f}], 15% margin"
        comments[f"ladder.k{k}.hi"] = "see lo"

    # --- translation-matrix quadrature accuracy (off-diagonal rough multiplier)
    log("signum entry tolerance ...")
    M01 = conjugated_multiplier_matrix(signum(), 8)
    exact = math.sqrt(2.0 / math.pi)
    err = abs(abs(M01.entries[0, 1]) - exact)
    values["signum.entry01.tol"] = max(err * 3.0, 1e-12)
    comments["signum.entry01.tol"] = (
        f"|entry(0,1)| vs half-line Gaussian value {exact:.6f}: observed error "
        f"{err:.2e} at the default rule (discontinuous integrand converges slowly); 3x margin")

    return values, comments
