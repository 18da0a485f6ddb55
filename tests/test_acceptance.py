"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with  pytest tests/test_acceptance.py -v -s  for the per-criterion lines.
Criteria with calibrated constants read the checked-in calibration file.
"""
import json
import math
import subprocess
import sys
import time

import numpy as np

from focklab.calibration import load_calibration
from focklab.errors import DivergenceError
from focklab.hermite import (
    Convention,
    SpectralVector,
    gauss_hermite,
    hermite_axis_table,
    ladder_factor_squared,
    random_vector,
)
from focklab.multipliers import MultiplierSpec, bump, chirp43, constant, modulation, signum
from focklab.operators import (
    boundedness_probe,
    classical_sobolev_probe,
    classify_growth,
    conjugated_multiplier_matrix,
    default_mesh_order,
    integral_operator_matrix,
    operator_norm,
    symbol_from_multiplier,
)
from focklab.spaces import (
    PartitionBump,
    kappa_constant,
    localization_norm,
    smoothing_constant,
    sobolev_norm,
    square_function_norm,
    square_function_norm_direct,
)
from focklab.transforms import (
    bargmann_quadrature,
    conjugation_check,
    fourier,
    fourier_quadrature,
    interior_block,
    interior_frobenius,
    leibniz_check,
    translation_ladder_check,
    weyl_matrix,
)
from focklab.verify import VerifyContext, run_suite


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


def test_criterion_01_bargmann_calibration():
    t0 = time.perf_counter()
    g2 = gauss_hermite(64, 2.0, 1)
    radii = np.array([0.4, 0.8, 1.2, 1.6, 2.0])
    zs = (radii[:, None] * np.exp(2j * math.pi * np.arange(5) / 5)[None, :]).ravel()
    assert len(zs) == 25 and np.abs(zs).max() <= 2.0
    worst = 0.0
    for k in range(11):
        got = bargmann_quadrature(
            lambda y, k=k: hermite_axis_table(k, y, Convention.BARGMANN_H)[k], zs, g2)
        want = hermite_axis_table(k, zs, Convention.FOCK)[k]
        worst = max(worst, float(np.abs(got - want).max()))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-8 and dt <= 5.0
    report("criterion 1 (Fock-map calibration)", ok,
           f"sup error {worst:.2e} (tol 1e-8), {dt:.2f}s (limit 5s)")
    assert ok


def test_criterion_02_fourier_eigenstructure():
    xg = gauss_hermite(64, 1.0, 1)
    ig = gauss_hermite(192, 1.0, 1)
    xs = xg.nodes[:, 0]
    worst = 0.0
    for k in range(21):
        got = fourier_quadrature(
            lambda y, k=k: hermite_axis_table(k, y, Convention.BARGMANN_H)[k], xs, ig)
        want = (-1j) ** k * hermite_axis_table(k, xs, Convention.BARGMANN_H)[k]
        worst = max(worst, float(np.abs(got - want).max()))
    v = random_vector(1, 20, Convention.BARGMANN_H, 42)
    norm_defect = max(abs(sobolev_norm(fourier(v), s) - sobolev_norm(v, s))
                      for s in (0.0, 1.0, 2.5))
    ok = worst <= 1e-8 and norm_defect == 0.0
    report("criterion 2 (Fourier eigenstructure)", ok,
           f"sup error {worst:.2e} (tol 1e-8), norm defect {norm_defect:.1e} (exact)")
    assert ok


def test_criterion_03_dual_route_matrix_equality():
    ok = True
    details = []
    for m in (constant(1.0), modulation(0.7), bump()):
        t0 = time.perf_counter()
        d = {}
        for N in (8, 12):
            Q = default_mesh_order(N)
            sym = symbol_from_multiplier(m, quad_order=2 * Q)
            A = integral_operator_matrix(sym, N, gauss_hermite(Q, 1.0, 2))
            B = conjugated_multiplier_matrix(m, N)
            d[N] = interior_frobenius(A.entries, B.entries, 1, N)
        dt = time.perf_counter() - t0
        assert default_mesh_order(12) == 80
        this_ok = d[12] <= 1e-5 and d[8] > d[12] and dt <= 120.0
        ok &= this_ok
        details.append(f"{m.label}: d12={d[12]:.2e} d8={d[8]:.2e} {dt:.0f}s")
    report("criterion 3 (dual-route matrix equality, N=12 Q=80)", ok, "; ".join(details))
    assert ok


def test_criterion_04_norm_identity_s0():
    m = MultiplierSpec("sin-shift", lambda x: (2.0 + np.sin(2.0 * x)) / 3.0)
    errs = {N: abs(operator_norm(conjugated_multiplier_matrix(m, N), 0.0) - 1.0)
            for N in (10, 20, 40)}
    ok = errs[40] <= 0.05 and errs[10] > errs[20] > errs[40]
    report("criterion 4 (flat-weight norm identity)", ok,
           f"errors vs sup m = 1: " + ", ".join(f"N={n}: {e:.2%}" for n, e in errs.items()))
    assert ok


def test_criterion_05_commutation():
    N = 32
    A = conjugated_multiplier_matrix(bump(), N)
    worst = 0.0
    for a in (0.3, 0.7, 1.0):
        W = weyl_matrix(complex(a), N)
        C = A.entries @ W.entries - W.entries @ A.entries
        worst = max(worst, float(np.linalg.norm(interior_block(C, 1, N))))
    ok = worst <= 1e-5
    report("criterion 5 (shift commutation)", ok,
           f"max interior commutator norm {worst:.2e} (tol 1e-5)")
    assert ok


def test_criterion_06_square_function_identity():
    worst = 0.0
    for (s, K) in ((0.5, 1), (1.0, 1), (3.0, 2)):
        c = smoothing_constant(s, K)
        for i in range(20):
            v = random_vector(1, 14, Convention.PAPER_H, 4200 + i)
            a = square_function_norm(v, s, K)
            b = square_function_norm_direct(v, s, K)
            worst = max(worst, abs(a - b) / b, abs(a - c * sobolev_norm(v, s)) / a)
    fired = False
    try:
        kappa_constant(2.0, 1)
    except DivergenceError:
        fired = True
    try:
        kappa_constant(4.0, 2)
        fired = False
    except DivergenceError:
        pass
    ok = worst <= 1e-8 and fired
    report("criterion 6 (square-function identity)", ok,
           f"max rel defect {worst:.2e} (tol 1e-8), divergence detector fired: {fired}")
    assert ok


def test_criterion_07_boundedness_contrast():
    th = load_calibration()
    Ns = (8, 16, 32, 64)
    rc = boundedness_probe(constant(1.0), 1.0, Ns)
    rs = boundedness_probe(signum(), 1.0, Ns)
    rh = boundedness_probe(chirp43(), 1.0, Ns)
    rcl = classical_sobolev_probe(chirp43(), 1.0, Ns)
    cc, cs, ch, ccl = (classify_growth(r.values, th) for r in (rc, rs, rh, rcl))
    ok = cc == "stable" and cs == "growing" and ch == "stable" and ccl == "growing"
    report("criterion 7 (boundedness contrast)", ok,
           f"constant={cc}, signum={cs} (x{rs.last_first:.2f}), chirp={ch}/{ccl} "
           f"(classical x{rcl.last_first:.2f}), threshold={th:.3f}")
    assert ok


def test_criterion_08_localization():
    bmp = PartitionBump()
    rng = np.random.default_rng(808)
    xs = rng.uniform(-6, 6, 10_000)
    part = float(np.abs(bmp.partition_sum(xs) - bmp.c0).max())
    ok = part <= 1e-10
    # the exact range of ||f||_loc / ||f||_s over each truncated space
    rec, = run_suite(VerifyContext(), only="spaces.localization-interval")
    ext = rec.measured["extremes"]
    ok &= rec.status == "pass" and rec.measured["route_defect"] <= 1e-12
    th = load_calibration()
    ok &= all(classify_growth([lh[j] for lh in ext["s=1"].values()], th) == "stable"
              for j in (0, 1))
    smin, smax = bmp.squared_sum_range()
    ok &= all(math.sqrt(smin) - 1e-6 <= lo and hi <= math.sqrt(smax) + 1e-6
              for lo, hi in ext["s=0"].values())
    # e_0 sits at the top of the s = 1 range (2.449 at N = 16, M = 9)
    e0 = SpectralVector.unit(1, 16, Convention.PAPER_H, 0)
    r0 = localization_norm(e0, 1.0, bmp, 9) / sobolev_norm(e0, 1.0)
    lo, hi = ext["s=1"]["16"]
    ok &= lo <= r0 <= hi * (1 + 1e-12) and r0 >= 0.9999 * hi
    report("criterion 8 (localization)", ok,
           f"partition defect {part:.1e} (tol 1e-10); exact ratio ranges s=0 "
           + ", ".join(f"N={N} [{a:.3f},{b:.3f}]" for N, (a, b) in ext["s=0"].items())
           + "; s=1 " + ", ".join(f"N={N} [{a:.3f},{b:.3f}]" for N, (a, b) in ext["s=1"].items())
           + f"; e_0 at s=1, N=16: {r0:.4f}")
    assert ok


def test_criterion_09_ladder_translation_identities():
    v = SpectralVector.unit(1, 32, Convention.PAPER_H, 2)
    d1 = translation_ladder_check(np.array([0.5]), 1, v)
    exact = all((ladder_factor_squared(k, "raise") + ladder_factor_squared(k, "lower"))
                % 2 == 0
                and (ladder_factor_squared(k, "raise")
                     + ladder_factor_squared(k, "lower")) // 2 == 2 * k + 1
                for k in range(100))
    f = random_vector(1, 8, Convention.PAPER_H, 99)
    g = random_vector(1, 8, Convention.PAPER_H, 100)
    d2, _ = leibniz_check(f, g)
    d3 = max(conjugation_check(np.array([a]), 32) for a in (0.3, 0.7, 1.0))
    ok = d1 <= 1e-6 and exact and d2 <= 1e-8 and d3 <= 1e-6
    report("criterion 9 (ladder/translation identities)", ok,
           f"translation-ladder {d1:.1e} (1e-6), oscillator diagonal exact: {exact}, "
           f"product rule {d2:.1e} (1e-8), conjugation {d3:.1e} (1e-6)")
    assert ok


def test_criterion_10_full_verify_suite():
    t0 = time.perf_counter()
    r = subprocess.run(
        [sys.executable, "-m", "focklab.cli", "verify", "--format", "json"],
        capture_output=True, text=True, timeout=900)
    dt = time.perf_counter() - t0
    ok = r.returncode == 0 and dt <= 600.0
    summary = ""
    if r.stdout:
        try:
            doc = json.loads(r.stdout)
            summary = f"{doc['summary']['passed']}/{doc['summary']['total']} checks, "
        except json.JSONDecodeError:
            pass
    report("criterion 10 (full verify suite)", ok,
           f"{summary}exit {r.returncode}, {dt:.0f}s (limit 600s)")
    assert ok
