"""focklab benchmark runner.

    python3 perfbench/run.py --workload verify|probe-sweep|matrix-export \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1 [--out FILE]

Every pass runs in a fresh interpreter (worker.py) with BLAS/OpenMP pinned
to one thread and drives the public CLI entry ``focklab.cli.main``.

``--trace 0`` spawns SETUP_SPAWNS set-up-only interpreters, half before and
half after it runs passes for ``--seconds`` (as many as fit, at least one),
and reports the end-to-end metrics: ``wall_s`` and ``ops_failed_frac`` are
means over passes, the rest are medians over passes (over every spawn for
``setup_s``).  Every pass of a run repeats the same inputs.
``--trace 1`` alternates an untraced and a traced pass on the same inputs
for ``--seconds`` and reports the per-layer metrics of the
traced passes plus the tracing overhead, as medians over pairs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name each metric with its unit and sample count, the operation counts and
the machine.  ``--workload all`` runs every workload and prints one table;
``--out`` also writes everything measured to FILE.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SPAWNS = 6                # split around the passes, see measure()
SPAWN_TIMEOUT_S = 170.0

END_TO_END = {                   # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ops_failed_frac": "ratio",
    "dual_route_d8": "frobenius",
    "norm_shortfall_rel": "ratio",
    "conjugation_defect_max": "frobenius",
}

# verify checks above 100 ms at the parent commit, reported from the
# report's wall_ms.
VERIFY_CHECKS = ("operators.theorem-matrix", "operators.modulation-weyl",
                 "spaces.localization-interval", "spaces.square-function",
                 "operators.reproducing", "spaces.partition-sum",
                 "transforms.conjugation", "transforms.weyl")


def per_layer_names() -> list[str]:
    return (tracing.metric_names()
            + [f"verify.{c.partition('.')[2]}.wall_s" for c in VERIFY_CHECKS]
            + ["trace.overhead_s"])


class HarnessError(RuntimeError):
    """The benchmark could not run or check a pass."""


def _child_env() -> dict:
    # the worker pins the BLAS/OpenMP threads itself, before numpy loads
    env = dict(os.environ)
    env.pop("FOCKLAB_CALIBRATION", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(tmp: Path, job: dict | None, trace: bool = False) -> tuple[float, dict | None]:
    """Start a worker, time its set-up handshake, hand it ``job`` and return
    (set-up seconds, pass result)."""
    cmd = [sys.executable, str(HERE / "worker.py")] + (["--trace"] if trace else [])
    log = tmp / "worker.log"
    with open(log, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=err, text=True)
        watchdog = threading.Timer(SPAWN_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - t0
            with contextlib.suppress(BrokenPipeError):      # reported below
                if ready.strip() == "ready":
                    proc.stdin.write(json.dumps(job or {}) + "\n")
                proc.stdin.close()
            out = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        tail = log.read_text()[-2000:]
        raise HarnessError(f"worker exited {proc.returncode}:\n{tail}")
    return setup, (json.loads(out.strip().splitlines()[-1]) if job else None)


def _job(workload, seed, tmp):
    return {"workload": workload, "inputs": workloads.make_inputs(workload, seed),
            "tmp": str(tmp)}


def _window(seconds: float):
    """Yield once per pass while the next pass, if it takes as long as the
    previous one, still ends within ``seconds``; always at least one."""
    start = last = time.perf_counter()
    while True:
        yield
        now = time.perf_counter()
        if now - start + (now - last) > seconds:
            return
        last = now


def _summary(ops: list[dict]) -> dict:
    failed = [o for o in ops if not o["ok"]]
    return {"attempted": len(ops), "failed": len(failed),
            "errors": sum(o["error"] for o in ops),
            "failures": sorted({f"{o['op']}: {o['why']}" for o in failed})}


def failed_frac(passes: list[dict]) -> float:
    """Mean over passes of failed / attempted operations, each pass floored
    at half an operation: never 0, a first failure doubles it, and with the
    same operations in every pass it does not depend on the pass count."""
    return statistics.fmean(
        max(sum(not o["ok"] for o in p["ops"]), 0.5) / len(p["ops"]) for p in passes)


def measure(workload: str, seed: int, seconds: float, tmp: Path) -> dict:
    """Untraced run: end-to-end metrics."""
    # set-up spawns before and after the passes, so that one slow spell of
    # the machine does not cover all of them
    setups = [spawn(tmp, None)[0] for _ in range(SETUP_SPAWNS // 2)]
    passes = []
    job = _job(workload, seed, tmp)
    for _ in _window(seconds):
        setup, res = spawn(tmp, job)
        setups.append(setup)
        passes.append(res)
    setups += [spawn(tmp, None)[0] for _ in range(SETUP_SPAWNS - SETUP_SPAWNS // 2)]
    ops = [o for p in passes for o in p["ops"]]
    summ = _summary(ops)
    values = {
        "setup_s": statistics.median(setups),
        # the window's mean: on a shared machine slow-downs last longer than
        # a pass, and the mean spread less between runs than the median
        "wall_s": statistics.fmean(p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ops_failed_frac": failed_frac(passes),
    }
    for name, floor in workloads.FLOORS.items():
        vals = [p["quality"][name] for p in passes if name in p["quality"]]
        values[name] = max(floor, statistics.median(vals)) if vals else floor
    samples = {"setup_s": len(setups)}
    samples.update({k: len(passes) for k in END_TO_END if k != "setup_s"})
    return {"values": values, "samples": samples, "ops": summ,
            "env": passes[-1]["env"], "pass_wall_s": [p["wall_s"] for p in passes]}


def trace(workload: str, seed: int, seconds: float, tmp: Path) -> dict:
    """Traced run: per-layer metrics and the tracing overhead."""
    pairs = []
    job = _job(workload, seed, tmp)
    for _ in _window(seconds):
        plain = spawn(tmp, job)[1]
        traced = spawn(tmp, job, trace=True)[1]
        pairs.append((plain, traced))
    names = per_layer_names()
    rows = []
    for plain, traced in pairs:
        row = dict(traced["layers"])
        walls = plain.get("check_wall_s", {})
        for c in VERIFY_CHECKS:
            row[f"verify.{c.partition('.')[2]}.wall_s"] = walls.get(c, 0.0)
        row["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        rows.append(row)
    values = {n: statistics.median(r.get(n, 0.0) for r in rows) for n in names}
    ops = [o for plain, _ in pairs for o in plain["ops"]]
    return {"values": values, "samples": len(pairs), "ops": _summary(ops),
            "env": pairs[-1][0]["env"]}


def machine(seed: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"commit": commit, "nproc": os.cpu_count(), "cpu": cpu, "seed": seed}


UNITS = {"self_s": "s", "wall_s": "s", "overhead_s": "s", "bytes": "B"}


def layer_unit(name: str) -> str:
    return UNITS.get(name.rpartition(".")[2], "count")


def run_one(workload, seed, seconds, traced, tmp) -> dict:
    if traced:
        r = trace(workload, seed, seconds, tmp)
        metrics = {n: {"value": v, "unit": layer_unit(n)} for n, v in r["values"].items()}
        for n, v in r["values"].items():
            print(f"{workload:14s} {n:52s} {v:14.6g} {layer_unit(n):6s} n={r['samples']}")
    else:
        r = measure(workload, seed, seconds, tmp)
        metrics = {n: {"value": r["values"][n], "unit": u} for n, u in END_TO_END.items()}
        for n, u in END_TO_END.items():
            print(f"{workload:14s} {n:24s} {r['values'][n]:14.6g} {u:4s} "
                  f"n={r['samples'][n]}")
    o = r["ops"]
    print(f"{workload:14s} ops_attempted={o['attempted']} ops_failed={o['failed']} "
          f"errors={o['errors']}")
    for f in o["failures"]:
        print(f"{workload:14s}   failed: {f}")
    return {"correct": o["errors"] == 0, "attempted": o["attempted"], "failed": o["failed"],
            "metrics": metrics, "detail": r}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "focklab" / "cli.py").is_file():
        print(f"error: no focklab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    env = machine(args.seed)
    try:
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for w in names:
            results[w] = {}
            if args.workload == "all" or not args.trace:
                results[w]["e2e"] = run_one(w, args.seed, args.seconds, False, tmp)
            if args.trace:
                results[w]["layers"] = run_one(w, args.seed, args.seconds, True, tmp)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):      # only while no other run uses it
            tmp.parent.rmdir()
    last = next(iter(results[names[-1]].values()))
    env.update(last["detail"]["env"])
    print("machine " + json.dumps(env, sort_keys=True))
    if args.out:
        args.out.write_text(json.dumps({"machine": env, "seconds": args.seconds,
                                        "workloads": results}, indent=2, sort_keys=True) + "\n")
    if args.workload != "all":
        print(json.dumps({k: last[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
