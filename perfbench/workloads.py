"""Workload inputs and per-operation output checks.

Inputs are generated here from the benchmark seed; the program only ever
sees the generated command lines.  ``make_inputs`` uses nothing but the
standard library, so the driving process never imports numpy or focklab.

The check functions take outputs that a pass already produced (parsed
reports, read-back matrices, recorded warnings) and return one verdict per
operation.  A verdict is ``{"op": label, "ok": bool, "error": bool,
"why": str}``: ``error`` marks an output the program should never produce
(an exception, an unexpected exit status, a non-finite norm, a read-back
that differs between encodings); the other failures are the program's own
numerical shortfalls, which the benchmark counts but does not treat as a
broken harness.
"""
from __future__ import annotations

import math
import random

WORKLOADS = ("verify", "probe-sweep", "matrix-export")

# Rounding floors of the quality metrics: a value below its floor reads as
# the floor, so a change at the rounding level never counts as a regression.
# A workload that does not measure a quality metric reports its floor.
FLOORS = {
    # theorem-matrix d12 sits at ~1.7e-14; d8 is ~2.4e-9 at the parent.
    "dual_route_d8": 1e-12,
    # relative gap between two float64 spectral norms of 65x65 matrices.
    "norm_shortfall_rel": 1e-12,
    # the noise floor transforms.conjugation accepts (its ".floor" default).
    "conjugation_defect_max": 1e-10,
}

PROBE_N = (8, 16, 32, 64)
PROBE_S = (0.0, 0.5, 1.0, 2.0)

# The four s = 1 classifications the operators.probes check fixes.
FIXED_CLASSES = {
    ("constant", "hermite"): "stable",
    ("signum", "hermite"): "growing",
    ("chirp43", "hermite"): "stable",
    ("chirp43", "classical"): "growing",
}

# Pinned s = 0 probe calls inside the stall bands of the drawn multipliers,
# so that both stalls show on every pass: the hermite side stalls for
# modulation c near 0.45-0.55, the classical side for bump w >= 1.4.
STALL_PINS = (("modulation:0.5", 0.0), ("bump:1.5", 0.0))

# verify's --seed, pinned where transforms.leibniz fails at the parent
# commit (its tail-monotonicity condition), so that this defect shows on
# every pass.  About 1 seed in 22 fails it; a drawn seed would move verify's
# ops_failed_frac between 0.5/36 and 1/36 from one benchmark seed to another.
VERIFY_SEED = 23

# Pinned |a| of every Weyl/translation pair: the top of the accepted range.
A_TOP = 5.0
EXPORT_N = (32, 64, 96)
CONJUGATION_TOL = 1e-6          # transforms.conjugation default tolerance


def make_inputs(workload: str, seed: int) -> dict:
    """Inputs of every pass of a run with benchmark seed ``seed``.

    All passes of a run repeat the same operations, so a per-pass value does
    not depend on how many passes fit in the run; the same seed always gives
    the same inputs.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify":
        return {"verify_seed": VERIFY_SEED}
    if workload == "probe-sweep":
        # c and w stay in windows where s = 0 power iteration converges for
        # both sides at the parent commit and the bump's cost is nearly
        # flat; the stall bands are covered by STALL_PINS instead.  See
        # README.md for the full ranges measured.
        c = round(rng.uniform(0.66, 0.76), 4)
        w = round(rng.uniform(0.90, 1.00), 4)
        mults = ["constant", "signum", "chirp43", f"modulation:{c!r}", f"bump:{w!r}"]
        calls = [[m, s] for m in mults for s in PROBE_S]
        return {"calls": calls + [list(pin) for pin in STALL_PINS]}
    if workload == "matrix-export":
        def signed(lo, hi):
            return round(rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi), 4)

        exports, pairs = [], []

        def pair(a, n, N):
            pairs.append([len(exports), len(exports) + 1])
            exports.append([f"weyl:{a!r}", n, N])
            exports.append([f"translation:{a!r}", n, N])

        for N in EXPORT_N:
            for a in (signed(0.3, 1.0), signed(1.0, 2.0), signed(A_TOP, A_TOP)):
                pair(a, 1, N)
        pair(signed(0.3, 2.0), 2, 24)
        pair(signed(0.3, 2.0), 3, 12)
        exports.append(["multiplier:bump", 1, 128])
        exports.append(["conjugated:chirp43", 1, 128])
        return {"exports": exports, "pairs": pairs}
    raise ValueError(f"unknown workload {workload!r}")


def verdict(op: str, ok: bool = True, why: str = "", error: bool = False) -> dict:
    return {"op": op, "ok": ok and not error, "error": error, "why": why}


def check_verify(report: dict | None, check_ids: list[str], raised: str | None) -> tuple[list[dict], float]:
    """One operation per suite check: it fails unless its status is pass.

    Returns the verdicts and the largest theorem-matrix ``d8``.
    """
    if report is None:
        why = raised or "no report written"
        return [verdict(cid, error=True, why=why) for cid in check_ids], math.inf
    recs = {r["check_id"]: r for r in report.get("records", [])}
    out = []
    for cid in check_ids:
        r = recs.get(cid)
        if r is None:
            out.append(verdict(cid, error=True, why="missing from report"))
        else:
            out.append(verdict(cid, r["status"] == "pass", f"status {r['status']}"))
    d8 = -math.inf
    tm = recs.get("operators.theorem-matrix")
    if tm is not None and isinstance(tm.get("measured"), dict):
        d8 = max((float(v["d8"]) for v in tm["measured"].values()), default=-math.inf)
    if not d8 > -math.inf:
        d8 = math.inf
        out.append(verdict("operators.theorem-matrix.d8", error=True, why="d8 missing"))
    return out, d8


def check_probe(mult: str, s: float, rc, report: dict | None,
                convergence_sides: set[str], ref_norms: list[float] | None) -> tuple[list[dict], float]:
    """Two operations per CLI probe call, its hermite and classical sides.

    A side fails if the call raised or exited non-zero, a norm is not finite,
    the side emitted a ConvergenceWarning, or it contradicts a fixed s = 1
    classification.  Returns the verdicts and the largest relative gap
    between a hermite-side norm and the reference spectral norm.
    """
    name = mult.partition(":")[0]
    sides = {}
    if report is not None:
        for r in report.get("records", []):
            sides[r["measured"]["side"]] = r["measured"]
    out, gap = [], 0.0
    for side in ("hermite", "classical"):
        op = f"probe[{mult}:s={s!r}:{side}]"
        m = sides.get(side)
        if rc != 0 or m is None:
            out.append(verdict(op, error=True, why=f"exit {rc!r}, side missing" if m is None
                               else f"exit {rc!r}"))
            continue
        vals = [float(v) for v in m["values"]]
        if not all(math.isfinite(v) for v in vals):
            out.append(verdict(op, error=True, why="non-finite norm"))
            continue
        if side == "hermite" and ref_norms is not None:
            gap = max(gap, max(abs(r - v) / r for r, v in zip(ref_norms, vals)))
        if side in convergence_sides:
            out.append(verdict(op, False, "ConvergenceWarning"))
            continue
        want = FIXED_CLASSES.get((name, side)) if s == 1.0 else None
        if want is not None and m["classification"] != want:
            out.append(verdict(op, False, f"classified {m['classification']}, expected {want}"))
            continue
        out.append(verdict(op))
    return out, gap


def check_export(selector: str, n: int, N: int, rcs: list, mats: list) -> dict:
    """An export fails unless both encodings exited 0 and read back to
    identical matrices with the requested dimension and truncation.

    Identical is ``np.array_equal``, the bit-identity tests/test_matio.py
    asserts: it does not distinguish 0.0 from -0.0, whose sign the CSV
    reader drops when the imaginary part is +0.0.
    """
    import numpy as np

    op = f"export[{selector}:n={n}:N={N}]"
    if any(rc != 0 for rc in rcs) or any(m is None for m in mats):
        return verdict(op, error=True, why=f"exit statuses {rcs}")
    a, b = mats
    meta = [(m.dim, m.truncation, m.convention, m.s_domain, m.s_codomain) for m in mats]
    if meta[0] != meta[1] or (a.dim, a.truncation) != (n, N):
        return verdict(op, error=True, why=f"metadata {meta}")
    if not np.array_equal(a.entries, b.entries):
        return verdict(op, error=True, why="binary and csv read-backs differ")
    return verdict(op)


def check_pair(selector: str, n: int, N: int, distance: float) -> dict:
    """A Weyl/translation pair fails when its interior distance exceeds the
    transforms.conjugation default tolerance."""
    op = f"conjugation[{selector}:n={n}:N={N}]"
    if not math.isfinite(distance):
        return verdict(op, error=True, why="non-finite distance")
    return verdict(op, distance <= CONJUGATION_TOL, f"distance {distance:.3e}")
