"""One benchmark pass in a fresh interpreter.

Protocol with run.py: the worker pins BLAS/OpenMP to one thread, imports
focklab's CLI and loads the calibration file (the set-up every CLI user
pays), then prints ``ready``.  It reads one JSON line from stdin: ``{}``
ends a set-up-only spawn, otherwise ``{"workload", "inputs", "tmp"}`` names
the pass to run.  It prints one JSON line with the pass's wall time, peak
resident memory, per-operation verdicts, quality values and, with
``--trace``, per-layer metrics.

    python3 perfbench/worker.py [--trace]
"""
from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:            # before numpy is imported
    os.environ[_var] = "1"

import inspect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


class WarningLog:
    """Records every focklab ConvergenceWarning/AccuracyWarning as it is
    raised, before any filter can discard it (verify's checks run under
    ``simplefilter("ignore")``), with the probe side that raised it."""

    def __init__(self, tracer: Tracer | None):
        from focklab import operators
        from focklab.errors import AccuracyWarning, ConvergenceWarning

        self.tracer = tracer
        self.kinds = (ConvergenceWarning, AccuracyWarning)
        # unwrapped: under a Tracer both names hold wrappers sharing one code
        self.side_code = {inspect.unwrap(operators.boundedness_probe).__code__: "hermite",
                          inspect.unwrap(operators.classical_sobolev_probe).__code__:
                          "classical"}
        self.records: list[tuple[str, str | None]] = []
        self._warn = warnings.warn

    def install(self) -> None:
        orig = self._warn

        def warn(message, category=None, stacklevel=1, source=None):
            cat = type(message) if isinstance(message, Warning) else (category or UserWarning)
            if issubclass(cat, self.kinds):
                self._note(cat.__name__)
            return orig(message, category, stacklevel + 1, source)

        warnings.warn = warn

    def uninstall(self) -> None:
        warnings.warn = self._warn

    def _note(self, category: str) -> None:
        side = None
        f = sys._getframe(2)
        while f is not None and side is None:
            side = self.side_code.get(f.f_code)
            f = f.f_back
        self.records.append((category, side))
        if self.tracer is not None:
            self.tracer.note_warning(category)


def _call(argv: list[str]):
    """Run one CLI command; returns (exit status, error text or None)."""
    from focklab import cli

    try:
        return cli.main(argv), None
    except SystemExit as exc:
        return exc.code, f"SystemExit({exc.code!r})"
    except Exception as exc:  # a raising command is a failed operation
        return None, f"{type(exc).__name__}: {exc}"


def _load_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


# ------------------------------------------------------------ the workloads
# Each run_* executes the timed part of a pass and returns its raw outputs;
# each check_* turns them into verdicts and quality values afterwards.

def run_verify(inputs, tmp: Path, log: WarningLog):
    out = tmp / "verify.json"
    rc, err = _call(["verify", "--seed", str(inputs["verify_seed"]),
                     "--format", "json", "--out", str(out)])
    return {"rc": rc, "err": err, "out": out}


def check_verify(inputs, raw, log: WarningLog):
    from focklab.verify import CHECK_IDS

    report = _load_json(raw["out"]) if raw["rc"] in (0, 1) else None
    ops, d8 = workloads.check_verify(report, list(CHECK_IDS), raw["err"])
    walls = {}
    if report is not None:
        walls = {r["check_id"]: r["wall_ms"] / 1e3 for r in report["records"]}
    return ops, {"dual_route_d8": d8}, {"check_wall_s": walls}


def run_probe(inputs, tmp: Path, log: WarningLog):
    calls = []
    for i, (mult, s) in enumerate(inputs["calls"]):
        out = tmp / f"probe-{i}.json"
        first = len(log.records)
        rc, err = _call(["probe", "--multiplier", mult, "--s", repr(s),
                         *[a for N in workloads.PROBE_N for a in ("--N", str(N))],
                         "--classical", "--out", str(out)])
        calls.append({"rc": rc, "err": err, "out": out, "warned": log.records[first:]})
    return calls


def _reference_norms(mult: str, s: float) -> list[float]:
    """np.linalg.norm(D^{s/2} A D^{-s/2}, 2) with D = diag(2k + 1) on the
    conjugated multiplier matrix the hermite side measures."""
    import numpy as np
    from focklab.multipliers import parse_multiplier
    from focklab.operators import conjugated_multiplier_matrix

    m = parse_multiplier(mult)
    out = []
    for N in workloads.PROBE_N:
        A = conjugated_multiplier_matrix(m, N).entries
        d = (2.0 * np.arange(N + 1) + 1.0) ** (s / 2.0)
        out.append(float(np.linalg.norm(d[:, None] * A / d[None, :], 2)))
    return out


def check_probe(inputs, raw, log: WarningLog):
    ops, gap = [], 0.0
    for (mult, s), call in zip(inputs["calls"], raw):
        report = _load_json(call["out"]) if call["rc"] == 0 else None
        stalled = {side for cat, side in call["warned"] if cat == "ConvergenceWarning"}
        v, g = workloads.check_probe(mult, s, call["rc"], report, stalled,
                                     _reference_norms(mult, s))
        ops += v
        gap = max(gap, g)
    return ops, {"norm_shortfall_rel": gap}, {}


def run_export(inputs, tmp: Path, log: WarningLog):
    from focklab import matio

    outs = []
    for i, (selector, n, N) in enumerate(inputs["exports"]):
        rcs, mats = [], []
        for enc in ("binary", "csv"):
            path = tmp / f"export-{i}.{enc}"
            rc, err = _call(["export", "--matrix", selector, "--n", str(n), "--N", str(N),
                             "--encoding", enc, "--out", str(path)])
            mat = None
            if rc == 0:
                try:
                    mat = matio.read_matrix(path)
                except Exception as exc:  # an unreadable file is a failed operation
                    err = f"{type(exc).__name__}: {exc}"
            rcs.append(rc if err is None else err)
            mats.append(mat)
        outs.append((rcs, mats))
    return outs


def check_export(inputs, raw, log: WarningLog):
    from focklab.transforms import interior_frobenius

    exports = inputs["exports"]
    ops = [workloads.check_export(sel, n, N, rcs, mats)
           for (sel, n, N), (rcs, mats) in zip(exports, raw)]
    worst = 0.0
    for w, t in inputs["pairs"]:
        sel, n, N = exports[w]
        W, T = raw[w][1][0], raw[t][1][0]
        dist = math.nan if W is None or T is None else \
            interior_frobenius(W.entries, T.entries, n, N)
        ops.append(workloads.check_pair(sel, n, N, dist))
        if math.isfinite(dist):
            worst = max(worst, dist)
    return ops, {"conjugation_defect_max": worst}, {}


PASSES = {
    "verify": (run_verify, check_verify),
    "probe-sweep": (run_probe, check_probe),
    "matrix-export": (run_export, check_export),
}


def main() -> int:
    traced = "--trace" in sys.argv[1:]
    import focklab.cli  # noqa: F401  the set-up a CLI user pays

    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    log = WarningLog(tracer)
    log.install()
    from focklab import calibration

    calibration.load_calibration()
    print("ready", flush=True)

    job = json.loads(sys.stdin.readline() or "{}")
    if not job:
        return 0
    run, check = PASSES[job["workload"]]
    inputs, tmp = job["inputs"], Path(job["tmp"])
    t0 = time.perf_counter()
    raw = run(inputs, tmp, log)
    wall = time.perf_counter() - t0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics()
    ops, quality, extra = check(inputs, raw, log)
    log.uninstall()
    print(json.dumps({"wall_s": wall, "peak_rss_mb": peak_mb, "ops": ops,
                      "quality": quality, "layers": layers, "env": _env(), **extra}))
    return 0


def _env() -> dict:
    import hashlib

    import numpy
    import scipy
    from focklab.calibration import default_calibration_path

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cal = default_calibration_path()
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "calibration_sha256": hashlib.sha256(cal.read_bytes()).hexdigest(),
    }


if __name__ == "__main__":
    sys.exit(main())
