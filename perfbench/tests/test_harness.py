"""Tests of the benchmark harness itself (not of focklab).

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import sys
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_times_on_nested_span_tree():
    # cli.main [0, 10]
    #   verify.a [1, 6]
    #     basis [2, 3]
    #     basis [4, 4.5]
    #   basis [7, 9]
    spans = [
        ("cli.main", -1, 0.0, 10.0),
        ("verify.a", 0, 1.0, 6.0),
        ("basis", 1, 2.0, 3.0),
        ("basis", 1, 4.0, 4.5),
        ("basis", 0, 7.0, 9.0),
    ]
    st = tracing.self_times(spans)
    assert st["cli.main"] == (pytest.approx(10.0 - 5.0 - 2.0), 1)
    assert st["verify.a"] == (pytest.approx(5.0 - 1.0 - 0.5), 1)
    assert st["basis"] == (pytest.approx(1.0 + 0.5 + 2.0), 3)
    # self times partition the root span
    assert sum(v[0] for v in st.values()) == pytest.approx(10.0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    a = workloads.make_inputs(workload, 7)
    assert a == workloads.make_inputs(workload, 7)
    if workload != "verify":            # verify's inputs are pinned
        assert a != workloads.make_inputs(workload, 8)


def test_failed_frac_does_not_depend_on_pass_count():
    import run

    ok = {"ok": True}
    clean = {"ops": [ok] * 36}
    one = {"ops": [ok] * 35 + [{"ok": False}]}
    assert run.failed_frac([clean]) == run.failed_frac([clean] * 3) == 0.5 / 36
    assert run.failed_frac([one]) == run.failed_frac([one] * 3) == 1 / 36


def test_tampered_export_counts_as_failed(tmp_path):
    from focklab import cli, matio

    paths = [tmp_path / "w.bin", tmp_path / "w.csv"]
    for path, enc in zip(paths, ("binary", "csv")):
        assert cli.main(["export", "--matrix", "weyl:0.5", "--N", "8",
                         "--encoding", enc, "--out", str(path)]) == 0

    def verdict():
        return workloads.check_export("weyl:0.5", 1, 8, [0, 0],
                                      [matio.read_matrix(p) for p in paths])

    assert verdict()["ok"]
    lines = paths[1].read_text().splitlines()
    row, col, re, im = lines[2].split(",")
    lines[2] = ",".join([row, col, repr(float(re) + 1e-12), im])
    paths[1].write_text("\n".join(lines) + "\n")
    v = verdict()
    assert not v["ok"] and v["error"]


def test_tracer_counts_calls_and_filtered_warnings():
    import numpy as np
    from focklab import operators
    from focklab.errors import ConvergenceWarning
    from focklab.transforms import OperatorMatrix
    from focklab.hermite import Convention

    import worker

    original = operators.operator_norm
    tracer = tracing.Tracer()
    tracer.install([row for row in tracing.LAYERS if row[0] in (
        "operators.operator_norm", "operators.boundedness_probe",
        "operators.classical_sobolev_probe")])
    log = worker.WarningLog(tracer)
    log.install()
    try:
        A = OperatorMatrix(4, 1, np.diag([1.0, 2.0, 2.0 - 1e-9, 0.5, 0.1]), Convention.FOCK)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")     # as verify's checks run
            operators.operator_norm(A, max_iter=2)
    finally:
        log.uninstall()
        tracer.uninstall()
    assert operators.operator_norm is original
    m = tracer.metrics()
    assert m["operators.operator_norm.calls"] == 1
    assert m["operators.operator_norm.warnings"] == 1
    assert m["warnings.ConvergenceWarning"] == 1
    # no probe side on the stack, though the probe wrappers share one code
    assert log.records == [(ConvergenceWarning.__name__, None)]
