#!/usr/bin/env python3
"""Measure the interior Frobenius distance between the direct quadrature of
the Fock-side integral operator and the conjugated multiplier matrix, over a
range of truncations with the default mesh-order rule.

    python3 scripts/dual_route_convergence.py
"""
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from focklab.hermite import gauss_hermite
from focklab.multipliers import bump, constant, modulation
from focklab.operators import (
    conjugated_multiplier_matrix,
    default_mesh_order,
    integral_operator_matrix,
    symbol_from_multiplier,
)
from focklab.transforms import interior_frobenius


def main() -> int:
    print(f"{'multiplier':14s} {'N':>3s} {'Q':>4s} {'interior distance':>18s} {'secs':>6s}")
    for m in (constant(1.0), modulation(0.7), bump()):
        for N in (8, 10, 12, 16, 20, 24):
            Q = default_mesh_order(N)
            t0 = time.perf_counter()
            sym = symbol_from_multiplier(m, quad_order=2 * Q)
            A = integral_operator_matrix(sym, N, gauss_hermite(Q, 1.0, 2))
            B = conjugated_multiplier_matrix(m, N)
            d = interior_frobenius(A.entries, B.entries, 1, N)
            print(f"{m.label:14s} {N:3d} {Q:4d} {d:18.3e} {time.perf_counter()-t0:6.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
