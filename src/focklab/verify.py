"""The verification suite behind ``focklab verify``.

Each check measures a defect or a property and returns ``(ok, measured,
inputs)``: whether it passed, what it measured, and a dict of the inputs
worth reporting (``{}`` when there are none).  The runner builds the
ReportRecord from that and the declaration, so a record's ``tolerance`` is
always the effective value of the check's own key (None when it declares
none).  The suite exit status is the CLI's contract (0 all pass, 1 any
failure).  Checks are independent and run one after another, in declared
order.

A check is declared once, by ``@check(id, tol=..., sub={...})`` on its
function: its id, and the tolerance keys it reads with their defaults --
the id itself for ``tol``, and ``<id>.<name>`` for each ``sub`` entry.
The function is called with the context and its id, and reads a key with
``ctx.tol(key)``, which takes an override from ``--tol.<key>`` and raises
on an undeclared key, so a misspelt key is a failed check.  ``CHECK_IDS``
and ``TOLERANCES`` (every declared key and its default) are derived from
the declarations; ``focklab verify --list`` prints both.
"""
from __future__ import annotations

import math
import time
import warnings
import zlib
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .calibration import _probe_record, load_calibration
from .errors import DivergenceError
from .hermite import (
    Convention,
    SpectralVector,
    basis_table,
    convert_convention,
    eval_hermite,
    gauss_hermite,
    hermite_axis_table,
    index_count,
    ladder,
    ladder_factor_squared,
    project,
    random_vector,
    synthesize,
)
from .multipliers import MultiplierSpec, bump, chirp43, constant, modulation, signum
from .operators import (
    _PROBE_LADDER,
    apply_integral_operator,
    boundedness_probe,
    classical_sobolev_probe,
    classify_growth,
    conjugated_multiplier_matrix,
    default_mesh_order,
    integral_operator_matrix,
    multiplier_from_symbol,
    multiplier_matrix,
    operator_norm,
    symbol_from_multiplier,
)
from .reporting import ReportRecord
from .spaces import (
    PartitionBump,
    _localization_tables,
    eigenvalues,
    fractional_H,
    heat_kernel_value,
    heat_semigroup,
    kappa_constant,
    localization_norm,
    potential_bound_probe,
    smoothing_constant,
    sobolev_norm,
    square_function_norm,
    square_function_norm_direct,
    weighted_fock_norm,
)
from .transforms import (
    bargmann_quadrature,
    conjugation_check,
    fourier,
    fourier_quadrature,
    fractional_shift_defect,
    interior_block,
    interior_count,
    interior_frobenius,
    ladder_seminorm,
    leibniz_check,
    translation_ladder_check,
    translation_matrix,
    weyl_matrix,
)

__all__ = ["VerifyContext", "CHECKS", "CHECK_IDS", "TOLERANCES", "run_suite"]


@dataclass
class VerifyContext:
    seed: int = 2718
    tol_overrides: dict[str, float] = field(default_factory=dict)
    growth: float | None = field(default=None, init=False, repr=False)

    def tol(self, key: str) -> float:
        default = TOLERANCES[key]  # KeyError on an undeclared key
        return self.tol_overrides.get(key, default)

    def threshold(self) -> float:
        """The calibrated growth threshold, loaded on first use."""
        if self.growth is None:
            self.growth = load_calibration()
        return self.growth

    def rng_seed(self, check_id: str) -> int:
        return self.seed + (zlib.crc32(check_id.encode()) & 0xFFFF)


# (id, function, {tolerance key: default}) in run order, filled by @check
CHECKS: list[tuple[str, Callable[[VerifyContext, str], tuple], dict[str, float]]] = []


def check(cid: str, tol: float | None = None, sub: dict[str, float] | None = None):
    """Declare the decorated function as check ``cid`` with tolerance keys
    ``cid`` (default ``tol``) and ``cid.<name>`` (each ``sub`` entry)."""
    tols = {} if tol is None else {cid: tol}
    tols.update({f"{cid}.{name}": default for name, default in (sub or {}).items()})

    def declare(fn):
        CHECKS.append((cid, fn, tols))
        return fn
    return declare


# Norm-ratio bounds are checked by their exact extremes on the truncated space,
# singular values of the matrix of the ratio's quadratic form; the extremal
# vectors fed back through the public function must agree to _ROUTE_REL.
_LADDER = (8, 16, 32)
_ROUTE_REL = 1e-12


def _extremes(A: np.ndarray, scale: np.ndarray, conv: Convention, ratio, ends=(0, -1)):
    """(bottom, top, route defect) of ||A c|| / ||c / scale||: the extreme
    singular values of A diag(scale), and the largest relative distance of
    ratio(v) from those indexed by ``ends``, at v = scale * their vectors."""
    _, sv, vh = np.linalg.svd(A * scale, full_matrices=False)
    defect = max(abs(ratio(SpectralVector(1, len(scale) - 1, conv, scale * vh[j].conj()))
                     - sv[j]) / sv[j] for j in ends)
    return sv[-1], sv[0], defect


# ----------------------------------------------------------------- hermite

@check("hermite.quadrature-moments", tol=1e-12)
def check_quadrature_moments(ctx: VerifyContext, cid: str) -> tuple:
    g2 = gauss_hermite(2, 1.0, 1)
    worst = max(
        float(np.abs(np.sort(g2.axis_nodes) - np.array([-1, 1]) / math.sqrt(2)).max()),
        float(np.abs(g2.axis_weights - math.sqrt(math.pi) / 2).max()),
        abs(float(np.sum(g2.weights * g2.nodes[:, 0] ** 2)) - math.sqrt(math.pi) / 2),
    )
    for Q, scale, dim in ((1, 1.0, 1), (80, 1.0, 1), (320, 2.0, 1), (24, 1.0, 2)):
        g = gauss_hermite(Q, scale, dim)
        target = (math.pi / scale) ** (dim / 2)
        worst = max(worst, abs(float(g.weights.sum()) - target) / target)
    g = gauss_hermite(512, 1.0, 1)
    ex = math.gamma(20.5)
    worst = max(worst, abs(float(np.sum(g.weights * g.nodes[:, 0] ** 40)) - ex) / ex)
    return worst <= ctx.tol(cid), worst, {}


@check("hermite.orthonormality", tol=1e-12)
def check_orthonormality(ctx: VerifyContext, cid: str) -> tuple:
    worst = 0.0
    for conv in (Convention.PAPER_H, Convention.BARGMANN_H):
        N = 20
        g = gauss_hermite(N + 12, float(conv.weight_exponent), 1)
        P = basis_table(1, N, g.nodes, conv)
        G = (P * g.dx_weights) @ P.T
        worst = max(worst, float(np.abs(G - np.eye(N + 1)).max()))
    return worst <= ctx.tol(cid), worst, {"N": 20}


@check("hermite.recurrence-values", tol=1e-13)
def check_recurrence_values(ctx: VerifyContext, cid: str) -> tuple:
    worst = max(
        abs(eval_hermite(0, 0.0, Convention.PAPER_H) - math.pi ** -0.25),
        abs(eval_hermite(1, 0.0, Convention.PAPER_H)),
        abs(eval_hermite(2, 0.0, Convention.PAPER_H) + 1.0 / (math.sqrt(2) * math.pi ** 0.25)),
        abs(eval_hermite(0, 0.0, Convention.BARGMANN_H) - (2 / math.pi) ** 0.25),
    )
    return worst <= ctx.tol(cid), worst, {}


@check("hermite.differential-consistency", tol=1e-11)
def check_differential_consistency(ctx: VerifyContext, cid: str) -> tuple:
    """<(d/dx + x) h_k, h_{k-1}> = sqrt(2k) with the complex-step derivative
    h_k'(x) = Im h_k(x + ih)/h, from function values alone (no ``ladder``)."""
    g = gauss_hermite(64, 1.0, 1)
    x = g.nodes[:, 0]
    h = 1e-30
    tab = hermite_axis_table(20, x + 1j * h, Convention.PAPER_H)
    hk, d = tab.real, tab.imag / h
    worst = max(abs(float(np.sum(g.dx_weights * (d[k] + x * hk[k]) * hk[k - 1]))
                    - math.sqrt(2 * k)) for k in range(1, 21))
    return worst <= ctx.tol(cid), worst, {"k_max": 20}


@check("hermite.ladder-composition", tol=1e-13)
def check_ladder_composition(ctx: VerifyContext, cid: str) -> tuple:
    """(1/2)(lower raise + raise lower) = 2k+1: integer-exact on the squared
    factors and tight on the float path."""
    exact_ok = all(
        Fraction(ladder_factor_squared(k, "raise") + ladder_factor_squared(k, "lower"), 2)
        == 2 * k + 1
        for k in range(0, 80)
    )
    N = 24
    worst = 0.0
    for k in range(N + 1):
        v = SpectralVector.unit(1, N, Convention.PAPER_H, k)
        comp = 0.5 * (ladder(ladder(v, "raise"), "lower").coeffs
                      + ladder(ladder(v, "lower"), "raise").coeffs)
        # raising at the top grade truncates; exclude the dropped eigenpath
        if k < N:
            worst = max(worst, abs(comp[k] - (2 * k + 1)) / (2 * k + 1))
    lowered = ladder(SpectralVector.unit(1, 8, Convention.PAPER_H, 0), "lower")
    raised = ladder(SpectralVector.unit(1, 8, Convention.PAPER_H, 3), "raise")
    ok = (exact_ok and worst <= ctx.tol(cid) and lowered.norm() == 0.0
          and abs(raised.coeffs[4] - math.sqrt(8)) < 1e-15)
    return ok, {"float_rel": worst, "integer_exact": exact_ok}, {}


@check("hermite.projection-roundtrip", tol=1e-12)
def check_projection_roundtrip(ctx: VerifyContext, cid: str) -> tuple:
    worst = 0.0
    for conv in (Convention.PAPER_H, Convention.BARGMANN_H):
        N = 20
        g = gauss_hermite(N + 16, float(conv.weight_exponent), 1)
        v = random_vector(1, N, conv, ctx.rng_seed(cid))
        w = project(lambda x: synthesize(v, x), N, g, conv)
        worst = max(worst, float(np.abs(w.coeffs - v.coeffs).max()))
        u = SpectralVector.unit(1, 8, conv, 3)
        w = project(lambda x: synthesize(u, x), 8, gauss_hermite(24, float(conv.weight_exponent), 1), conv)
        worst = max(worst, float(np.abs(w.coeffs - u.coeffs).max()))
    return worst <= ctx.tol(cid), worst, {}


@check("hermite.projection-ladder-example", tol=1e-12)
def check_projection_ladder_example(ctx: VerifyContext, cid: str) -> tuple:
    """x * (ground state) projects onto index 1 with weight 1/sqrt(2) in the
    paper-h system and 1/2 in the bargmann-h system (Gaussian-moment values)."""
    g1 = gauss_hermite(16, 1.0, 1)
    v = project(lambda x: x * hermite_axis_table(0, x, Convention.PAPER_H)[0],
                8, g1, Convention.PAPER_H)
    worst = abs(v.coeffs[1] - 1.0 / math.sqrt(2))
    g2 = gauss_hermite(16, 2.0, 1)
    w = project(lambda x: x * hermite_axis_table(0, x, Convention.BARGMANN_H)[0],
                8, g2, Convention.BARGMANN_H)
    worst = max(worst, abs(w.coeffs[1] - 0.5))
    return worst <= ctx.tol(cid), worst, {}


@check("hermite.convention-roundtrip", tol=1e-13)
def check_convention_roundtrip(ctx: VerifyContext, cid: str) -> tuple:
    v = random_vector(1, 12, Convention.PAPER_H, ctx.rng_seed(cid))
    w = convert_convention(convert_convention(v, Convention.BARGMANN_H), Convention.PAPER_H)
    worst = float(np.abs(w.coeffs - v.coeffs).max())
    u = SpectralVector.unit(1, 4, Convention.PAPER_H, 0)
    worst = max(worst, abs(synthesize(u, 0.0) - math.pi ** -0.25))
    worst = max(worst, abs(synthesize(convert_convention(u, Convention.BARGMANN_H), 0.0)
                           - (2 / math.pi) ** 0.25))
    return worst <= ctx.tol(cid), worst, {}


# ------------------------------------------------------------------ spaces

@check("spaces.norm-monotonicity")
def check_norm_monotonicity(ctx: VerifyContext, cid: str) -> tuple:
    ok = True
    worst = 0.0
    for i in range(10):
        v = random_vector(1, 16, Convention.BARGMANN_H, ctx.rng_seed(cid) + i)
        ns = [sobolev_norm(v, s) for s in (0.0, 0.5, 1.0, 2.0, 3.5)]
        ok &= all(a <= b * (1 + 1e-14) for a, b in zip(ns, ns[1:]))
        worst = max(worst, max(ns))
    v = SpectralVector.unit(1, 8, Convention.BARGMANN_H, 2)
    ok &= abs(sobolev_norm(v, 1.0) - math.sqrt(5)) < 1e-14
    v2 = SpectralVector.unit(2, 6, Convention.BARGMANN_H, (1, 1))
    ok &= abs(fractional_H(v2, 1.0).coeffs.max() - 6.0) < 1e-14
    return ok, {"max_norm_seen": worst}, {}


@check("spaces.fractional-inverse", tol=1e-13)
def check_fractional_inverse(ctx: VerifyContext, cid: str) -> tuple:
    v = random_vector(1, 24, Convention.BARGMANN_H, ctx.rng_seed(cid))
    w = fractional_H(fractional_H(v, 1.7), -1.7)
    worst = float(np.abs(w.coeffs - v.coeffs).max())
    return worst <= ctx.tol(cid), worst, {}


@check("spaces.heat-semigroup", tol=1e-13)
def check_heat_semigroup(ctx: VerifyContext, cid: str) -> tuple:
    v = random_vector(1, 20, Convention.PAPER_H, ctx.rng_seed(cid))
    worst = float(np.abs(heat_semigroup(v, 0.0).coeffs - v.coeffs).max())
    u = SpectralVector.unit(1, 4, Convention.PAPER_H, 0)
    worst = max(worst, abs(heat_semigroup(u, 1.0).coeffs[0] - math.exp(-1.0)))
    a = heat_semigroup(heat_semigroup(v, 0.6), 0.8)
    b = heat_semigroup(v, 1.0)  # sqrt(0.36 + 0.64)
    worst = max(worst, float(np.abs(a.coeffs - b.coeffs).max()))
    # kernel: converges in N and decays off-diagonal like a Gaussian
    k60 = [heat_kernel_value(N, 1.0, 0.0, 0.0) for N in (20, 40, 60)]
    ok = (worst <= ctx.tol(cid) and abs(k60[2] - k60[1]) < abs(k60[1] - k60[0]) + 1e-15
          and heat_kernel_value(60, 1.0, 0.0, 0.0) > heat_kernel_value(60, 1.0, 0.0, 1.0)
          > heat_kernel_value(60, 1.0, 0.0, 2.0) > 0)
    return ok, {"coeff_defect": worst, "kernel_at_0": k60[-1]}, {}


@check("spaces.square-function", tol=1e-13)
def check_square_function(ctx: VerifyContext, cid: str) -> tuple:
    """Two-route square-function identity and the divergence detector."""
    worst = 0.0
    for (s, K) in ((0.5, 1), (1.0, 1), (3.0, 2)):
        for i in range(20):
            v = random_vector(1, 16, Convention.PAPER_H, ctx.rng_seed(cid) + i)
            a = square_function_norm(v, s, K)
            b = square_function_norm_direct(v, s, K)
            worst = max(worst, abs(a - b) / b)
    raised = 0
    for s in (2.0, 0.0):  # both ends of 0 < s < 2K
        try:
            kappa_constant(s, 1)
        except DivergenceError:
            raised += 1
    fired = raised == 2
    return (worst <= ctx.tol(cid) and fired,
            {"rel_defect": worst, "divergence_detector": fired}, {})


@check("spaces.kappa", tol=1e-13, sub={"contraction": 1e-13})
def check_kappa(ctx: VerifyContext, cid: str) -> tuple:
    """Quadrature kappa against the closed-form constant, relative, up to
    both ends of 0 < s < 2K, and the contraction it bounds."""
    worst = 0.0
    for (s, K) in ((0.5, 1), (1.0, 1), (1.3, 2), (3.0, 2), (1e-3, 1), (2 - 1e-6, 1),
                   (4 - 1e-6, 2)):
        c = smoothing_constant(s, K)
        worst = max(worst, abs(kappa_constant(s, K) - c) / c)
    grow = [kappa_constant(s, 1) for s in (1.5, 1.9, 1.99)]
    ok = worst <= ctx.tol(cid) and grow[0] < grow[1] < grow[2]
    # diagonal contraction: ||G(H^{-s/2} v)||_2 <= kappa ||v||_2 with equality;
    # the reading is the largest lhs / (kappa ||v||) - 1 of five draws
    kappa = kappa_constant(1.0, 1)
    vs = [random_vector(1, 12, Convention.PAPER_H, ctx.rng_seed(cid) + i) for i in range(5)]
    excess = max(square_function_norm(fractional_H(v, -0.5), 1.0, 1) / (kappa * v.norm()) - 1
                 for v in vs)
    ok &= excess <= ctx.tol(cid + ".contraction")
    return ok, {"identity_defect": worst, "growth_toward_2K": grow, "contraction": excess}, {}


@check("spaces.partition-sum", tol=1e-13)
def check_partition_sum(ctx: VerifyContext, cid: str) -> tuple:
    tol = ctx.tol(cid)
    bmp = PartitionBump()
    rng = np.random.default_rng(ctx.rng_seed(cid))
    xs = rng.uniform(-6.0, 6.0, 10_000)
    worst = float(np.abs(bmp.partition_sum(xs) - bmp.c0).max())
    ok = worst <= tol
    ok &= float(np.abs(bmp.eval_axis(np.linspace(-1, 1, 64)) - 1.0).max()) <= tol
    ok &= float(np.abs(bmp.eval_axis(np.array([2.0, -2.2, 3.0]))).max()) <= tol
    return ok, worst, {"samples": 10_000}


@check("spaces.localization-interval")
def check_localization_interval(ctx: VerifyContext, cid: str) -> tuple:
    """Exact range of ||f||_loc / ||f||_s: each cell's re-projected piece is
    P diag(W eta_m) B^T c, W the grid's dx weights, from the tables
    ``localization_norm`` uses.  At s = 1 both ends must be stable in N, at
    s = 0 inside the overlap bounds."""
    th = ctx.threshold()
    bmp = PartitionBump()
    smin, smax = bmp.squared_sum_range()
    ext: dict[str, dict[str, list[float]]] = {"s=0": {}, "s=1": {}}
    route = 0.0
    for N in _LADDER:
        # with + 2 the s = 0 extremal vectors at N = 16 leave 1.9e-6 of their
        # sum in the boundary cells, above localization_norm's warning level
        M = math.ceil(math.sqrt(2 * N + 1)) + 3
        grid, E, P, _ = _localization_tables(bmp, Convention.PAPER_H, N + 24, M)
        B = basis_table(1, N, grid.nodes, Convention.PAPER_H)
        cells = (((grid.dx_weights * E)[:, None, :] * B) @ P.T).transpose(0, 2, 1)  # (cell, k, j)
        for s in (0.0, 1.0):
            A = (cells * eigenvalues(1, N + 24)[:, None] ** (s / 2)).reshape(-1, N + 1)
            lo, hi, d = _extremes(A, eigenvalues(1, N) ** (-s / 2), Convention.PAPER_H,
                                  lambda v: localization_norm(v, s, bmp, M) / sobolev_norm(v, s))
            ext[f"s={s:g}"][str(N)] = [lo, hi]
            route = max(route, d)
    ok = route <= _ROUTE_REL
    ok &= all(classify_growth(ends, th) == "stable" for ends in zip(*ext["s=1"].values()))
    ok &= all(math.sqrt(smin) - 1e-6 <= lo and hi <= math.sqrt(smax) + 1e-6
              for lo, hi in ext["s=0"].values())
    return (ok, {"extremes": ext, "route_defect": route},
            {"bounds_s0": [math.sqrt(smin), math.sqrt(smax)], "threshold": th})


@check("spaces.fock-equivalence", tol=1e-13)
def check_fock_equivalence(ctx: VerifyContext, cid: str) -> tuple:
    """weighted_fock_norm / sobolev_norm against its closed form on C^1, diagonal
    in monomials by the radial weight: R_k^2 = mu_k / (mu_0 (2k+1)^s), with mu_k =
    Sigma_{j<=2s} C(2s, j) Gamma(k+1+j/2) / Gamma(k+1).  On 0..N the top is R_0 = 1;
    at s > 0 the bottom R_N falls towards c_s = (2^{-s} / mu_0)^{1/2}."""
    lam = eigenvalues(1, _LADDER[-1])
    ext, floor, ok, route = {}, {}, True, 0.0
    for s in (0.0, 0.5, 1.0):
        m, key = round(2 * s), f"s={s:g}"
        mu = np.array([sum(math.comb(m, j) * math.gamma(k + 1 + j / 2) for j in range(m + 1))
                       / math.gamma(k + 1) for k in range(len(lam))])
        R = np.sqrt(mu / (mu[0] * lam ** s))
        floor[key] = math.sqrt(2 ** -s / mu[0])
        ok &= R[0] == 1.0 and (s == 0 or bool(np.all(np.diff(R) < 0)) and R[-1] > floor[key])
        ext[key] = {str(N): [float(R[:N + 1].min()), float(R[:N + 1].max())] for N in _LADDER}
        for N in _LADDER:  # every e_k, and c_k = 1/(k+1), through the public functions
            for c in [*np.eye(N + 1), 1.0 / np.arange(1, N + 2)]:
                v = SpectralVector(1, N, Convention.FOCK, c)
                want = math.sqrt(c @ (c * mu[:N + 1]) / (mu[0] * (c @ (c * lam[:N + 1] ** s))))
                got = weighted_fock_norm(v, s) / sobolev_norm(v, s)
                route = max(route, abs(got - want) / want)
    ok &= route <= ctx.tol(cid)
    return ok, {"extremes": ext, "route_defect": route}, {"floor": floor}


@check("spaces.potential-bound", tol=1e-13)
def check_potential_bound(ctx: VerifyContext, cid: str) -> tuple:
    """Ground-state moment, and the exact top of ``potential_bound_probe``,
    the norm of c -> sqrt(w) |x|^{2s} B^T H^{-s} c on its grid: stable in N."""
    th = ctx.threshold()
    v0 = SpectralVector.unit(1, 8, Convention.BARGMANN_H, 0)
    worst = abs(potential_bound_probe(v0, 1.0) - math.sqrt(3) / 4)
    ok = worst <= ctx.tol(cid) and abs(potential_bound_probe(v0, 0.0) - 1.0) <= 1e-12
    tops: dict[str, list[float]] = {}
    route = 0.0
    for s in (0.5, 1.0):
        for N in _LADDER:
            grid = gauss_hermite(min(2 * N + 48, 512), 1.0, 1)
            x = grid.nodes[:, 0]
            A = ((np.sqrt(grid.dx_weights) * (x * x) ** s)[:, None]
                 * basis_table(1, N, x, Convention.PAPER_H).T * eigenvalues(1, N) ** -s)
            _, top, d = _extremes(A, np.ones(N + 1), Convention.PAPER_H,
                                  lambda v: potential_bound_probe(v, s), ends=(0,))
            route = max(route, d)
            tops.setdefault(f"s={s:g}", []).append(top)
    ok &= route <= _ROUTE_REL
    ok &= all(classify_growth(vals, th) == "stable" for vals in tops.values())
    return ok, {"ground_state_defect": worst, "top_by_N": tops,
                "route_defect": route}, {"threshold": th}


# -------------------------------------------------------------- transforms

@check("transforms.bargmann-calibration", tol=1e-12)
def check_bargmann_calibration(ctx: VerifyContext, cid: str) -> tuple:
    """Kernel quadrature maps basis k to the monomial e_k at 25 points
    |z| <= 2 for k <= 10, within the tolerance, in under 5 seconds."""
    t0 = time.perf_counter()
    g2 = gauss_hermite(64, 2.0, 1)
    radii = np.array([0.4, 0.8, 1.2, 1.6, 2.0])
    angles = np.arange(5) * 2 * math.pi / 5
    zs = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    worst = 0.0
    for k in range(11):
        got = bargmann_quadrature(
            lambda y, k=k: hermite_axis_table(k, y, Convention.BARGMANN_H)[k], zs, g2)
        want = hermite_axis_table(k, zs, Convention.FOCK)[k]
        worst = max(worst, float(np.abs(got - want).max()))
    dt = time.perf_counter() - t0
    return (worst <= ctx.tol(cid) and dt <= 5.0, {"sup_error": worst},
            {"points": 25, "k_max": 10})


@check("transforms.fourier-eigen", tol=1e-12)
def check_fourier_eigen(ctx: VerifyContext, cid: str) -> tuple:
    """Kernel quadrature reproduces the diagonal phases on sample nodes and
    the weighted norms are preserved exactly in coefficients."""
    xg = gauss_hermite(64, 1.0, 1)
    ig = gauss_hermite(192, 1.0, 1)
    xs = xg.nodes[:, 0]
    worst = 0.0
    for k in range(21):
        got = fourier_quadrature(
            lambda y, k=k: hermite_axis_table(k, y, Convention.BARGMANN_H)[k], xs, ig)
        want = (-1j) ** k * hermite_axis_table(k, xs, Convention.BARGMANN_H)[k]
        worst = max(worst, float(np.abs(got - want).max()))
    norm_defect = 0.0
    v = random_vector(1, 20, Convention.BARGMANN_H, ctx.rng_seed(cid))
    for s in (0.0, 1.0, 2.5):
        norm_defect = max(norm_defect,
                          abs(sobolev_norm(fourier(v), s) - sobolev_norm(v, s)))
    w = fourier(fourier(fourier(fourier(v))))
    fourth = float(np.abs(w.coeffs - v.coeffs).max())
    ok = worst <= ctx.tol(cid) and norm_defect <= 1e-14 and fourth <= 1e-15
    return ok, {"sup_error_nodes": worst, "norm_defect": norm_defect,
                "fourth_power_defect": fourth}, {"k_max": 20}


@check("transforms.translation", tol=1e-12, sub={"group-law": 1e-12, "unitarity": 1e-10})
def check_translation(ctx: VerifyContext, cid: str) -> tuple:
    N = 32
    worst = 0.0
    T0 = translation_matrix(np.zeros(1), 16)
    worst = max(worst, float(np.abs(T0.entries - np.eye(17)).max()))
    for a in (0.3, 0.7, 1.0):
        T = translation_matrix(np.array([a]), N)
        worst = max(worst, abs(T.entries[0, 0] - math.exp(-a * a / 2)))
    Ta = translation_matrix(np.array([0.7]), N)
    Tb = translation_matrix(np.array([0.4]), N)
    Tab = translation_matrix(np.array([1.1]), N)
    glaw = float(np.linalg.norm(interior_block(Ta.entries @ Tb.entries - Tab.entries, 1, N)))
    # at N = 48 the interior defect is rounding; at N = 32, a = 1 it is truncation
    udef = max(translation_matrix(np.array([a]), 48).unitarity_defect() for a in (0.5, 1.0))
    ok = (worst <= ctx.tol(cid) and glaw <= ctx.tol(cid + ".group-law")
          and udef <= ctx.tol(cid + ".unitarity"))
    return ok, {"overlap_defect": worst, "group_law": glaw,
                "unitarity_defect": udef}, {"N": N, "N_unitarity": 48}


@check("transforms.weyl", tol=1e-13)
def check_weyl(ctx: VerifyContext, cid: str) -> tuple:
    """Weyl entries against closed forms and a quadrature oracle, and the
    shift bound ||W_a v||_s <= C (1+|a|)^s ||v||_s: the exact C, the top of
    D^{s/2} W_a D^{-s/2} over (1+|a|)^s, is reported, not fitted, and must
    be stable in N; at s = 0 the section of a unitary has norm <= 1."""
    th = ctx.threshold()
    a = 0.5 + 0.4j
    N = 12
    W = weyl_matrix(a, N)
    k = np.arange(N + 1)
    fact = np.array([math.factorial(int(j)) for j in k], dtype=float)
    want = np.exp(-abs(a) ** 2 / 2) * np.conj(a) ** k / np.sqrt(fact)
    worst = float(np.abs(W.entries[:, 0] - want).max())
    worst = max(worst, float(np.abs(weyl_matrix(0.0, 8).entries - np.eye(9)).max()))
    # quadrature oracle over the Gaussian measure
    g = gauss_hermite(48, 1.0, 2)
    z = g.complex_nodes()[:, 0]
    wts = g.weights / math.pi
    E = basis_table(1, 8, z, Convention.FOCK)
    shifted = basis_table(1, 8, z - a, Convention.FOCK)
    fac = np.exp(-abs(a) ** 2 / 2 + z * np.conj(a))
    Mq = (np.conj(E) * wts) @ (fac[:, None] * shifted.T)
    worst = max(worst, float(np.abs(Mq - weyl_matrix(a, 8).entries).max()))
    ok = worst <= ctx.tol(cid)
    consts: dict[str, list[float]] = {}
    route = 0.0
    for aa in (0.25, 1.0, 1.5):
        Ws = {N: weyl_matrix(aa * np.exp(0.6j), N) for N in _LADDER}
        top = Ws[_LADDER[-1]].entries  # sections nest: slice it
        for s in (0.0, 1.0, 2.5):
            vals = []
            for N, WN in Ws.items():
                lam = eigenvalues(1, N)
                _, sv, d = _extremes(
                    lam[:, None] ** (s / 2) * top[:N + 1, :N + 1], lam ** (-s / 2),
                    Convention.FOCK, lambda v: sobolev_norm(WN.apply(v), s) / sobolev_norm(v, s),
                    ends=(0,))
                route = max(route, d)
                vals.append(sv / (1 + aa) ** s)
            ok &= classify_growth(vals, th) == "stable" and (s > 0 or max(vals) <= 1 + 1e-12)
            consts[f"s={s:g},|a|={aa:g}"] = vals
    ok &= route <= _ROUTE_REL
    return ok, {"entry_defect": worst, "C": max(map(max, consts.values())),
                "C_by_N": consts, "route_defect": route}, {"threshold": th}


@check("transforms.conjugation", tol=1e-11, sub={"floor": 1e-11})
def check_conjugation(ctx: VerifyContext, cid: str) -> tuple:
    """Translation (real-line quadrature) vs Weyl (Fock-side analytic) agree
    on interior blocks; both are sections of one operator."""
    worst = 0.0
    # the N=96 pairs reach |a| = 5: the identity must hold across the accepted
    # range, not only at the small N and |a| of the other cases
    for a, N in ((0.3, 32), (0.7, 32), (1.0, 32), (3.0, 96), (5.0, 96)):
        worst = max(worst, conjugation_check(np.array([a]), N))
    seq = [conjugation_check(np.array([0.7]), N) for N in (16, 32, 48)]
    # quadrature is superexponentially exact here: the sequence sits at the
    # noise floor, so require only no growth beyond it
    floor_ok = all(d <= ctx.tol(cid + ".floor") for d in seq)
    ok = worst <= ctx.tol(cid) and floor_ok
    return ok, {"max_defect": worst, "defect_by_N": seq}, {}


@check("transforms.translation-ladder", tol=1e-11)
def check_translation_ladder(ctx: VerifyContext, cid: str) -> tuple:
    tol = ctx.tol(cid)
    worst = 0.0
    v = SpectralVector.unit(1, 32, Convention.PAPER_H, 2)
    worst = max(worst, translation_ladder_check(np.array([0.5]), 1, v))
    worst = max(worst, translation_ladder_check(np.zeros(1), 1, v))
    vr = random_vector(1, 32, Convention.PAPER_H, ctx.rng_seed(cid), band=16)
    worst = max(worst, translation_ladder_check(np.array([0.8]), 1, vr))
    # second order by composing the first-order identity twice
    a = 0.5
    T = translation_matrix(np.array([a]), 32, Convention.PAPER_H)
    lhs = ladder(ladder(vr.with_coeffs(T.entries @ vr.coeffs), "lower"), "lower")
    w1 = ladder(vr, "lower").coeffs + a * vr.coeffs
    rhs = T.entries @ (ladder(vr.with_coeffs(w1), "lower").coeffs + a * w1)
    m = interior_count(1, 32)
    worst2 = float(np.linalg.norm(lhs.coeffs[:m] - rhs[:m]))
    ok = worst <= tol and worst2 <= tol
    return ok, {"first_order": worst, "second_order": worst2}, {}


@check("transforms.leibniz", tol=1e-8, sub={"const": 1e-12})
def check_leibniz(ctx: VerifyContext, cid: str) -> tuple:
    h0 = SpectralVector.unit(1, 0, Convention.PAPER_H, 0)
    d0, _ = leibniz_check(h0, h0, projection_truncation=16)
    f = random_vector(1, 8, Convention.PAPER_H, ctx.rng_seed(cid))
    g = random_vector(1, 8, Convention.PAPER_H, ctx.rng_seed(cid) + 1)
    d1, _ = leibniz_check(f, g)
    cst = SpectralVector(1, 0, Convention.PAPER_H, np.array([2.0 + 0j]))
    d2, _ = leibniz_check(f, cst, projection_truncation=16)
    # fg is degree 16 times e^{-x^2}: its Hermite coefficients peak past grade
    # 16, then decay geometrically, so the tail is sampled from T = 4 * 8 on
    tails = [leibniz_check(f, g, projection_truncation=T)[1] for T in (32, 48, 64)]
    ok = (max(d0, d1) <= ctx.tol(cid) and d2 <= ctx.tol(cid + ".const")
          and all(b / a <= 0.5 for a, b in zip(tails, tails[1:])))
    return ok, {"h0_defect": d0, "random_defect": d1,
                "const_defect": d2, "tail_by_truncation": tails}, {}


@check("transforms.ladder-shift", tol=1e-12)
def check_ladder_shift(ctx: VerifyContext, cid: str) -> tuple:
    worst = 0.0
    for i in range(5):
        v = random_vector(1, 20, Convention.PAPER_H, ctx.rng_seed(cid) + i)
        for sigma in (0.5, 1.0, -0.7):
            for direction in ("lower", "raise"):
                worst = max(worst, fractional_shift_defect(v, sigma, 1, direction))
    return worst <= ctx.tol(cid), worst, {}


# The ladder words of length <= k (identity, lower, raise; then lower-lower,
# raise-lower, lower-raise, raise-raise) are weighted shifts, word_w e_j =
# f_w(j) e_{j+shift}.  On vectors supported on 0..N-k no word leaves the
# truncated space, and Q(v) = ||v||^2 + sum_w ||word_w(v)||^2 is diagonal, with
# Q_j = 4j + 3 (k = 1) or 16j^2 + 20j + 15 (k = 2): sqrt(Q_j / (2j+1)^k) lies in
# (sqrt 2, sqrt 3] or (2, sqrt 15], largest at e_0.  Cauchy-Schwarz over the
# W = 3 or 7 words gives sqrt(Q) <= ||v||_ladder,k <= sqrt(W Q), so the ratio
# ||v||_ladder,k / ||v||_k lies in [sqrt 2, 3] or [2, sqrt 105] at every N.
_LADDER_WORDS = {1: lambda j: [1, 2 * j, 2 * j + 2],  # f_w(j)^2, in the order above
                 2: lambda j: [1, 2 * j, 2 * j + 2, 4 * j * (j - 1), 4 * j * j,
                               (2 * j + 2) ** 2, (2 * j + 2) * (2 * j + 4)]}
_LADDER_RANGE = {1: (math.sqrt(2), math.sqrt(3), 3.0), 2: (2.0, math.sqrt(15), math.sqrt(105))}


@check("transforms.ladder-seminorm")
def check_ladder_seminorm(ctx: VerifyContext, cid: str) -> tuple:
    """||v||_ladder,k against ||v||_k on interior support, k = 1, 2: Q's
    diagonal, read off the words of the all-ones vector at index j + shift,
    against its closed form and range; the extremal e_j and one fixed vector
    through ``ladder_seminorm``, against e_j's closed form and Cauchy-Schwarz."""
    ok, form_defect, route = True, 0.0, 0.0
    ext: dict[str, dict[str, list[float]]] = {"k=1": {}, "k=2": {}}
    e0: dict[str, float] = {}
    for N in _LADDER:
        ones = SpectralVector(1, N, Convention.PAPER_H, np.ones(N + 1))
        words, Qp = [(ones, 0)], np.ones(N + 5)  # Qp[2 + j] = Q_j
        for k in (1, 2):
            words = [(ladder(w, d), shift + step) for w, shift in words
                     for d, step in (("lower", -1), ("raise", 1))]
            for w, shift in words:
                Qp[2 - shift:3 - shift + N] += np.abs(w.coeffs) ** 2
            j = np.arange(N + 1 - k)
            Q, exact = Qp[2:3 + N - k], sum(_LADDER_WORDS[k](j))
            form_defect = max(form_defect, float(np.max(np.abs(Q - exact) / exact)))
            r = np.sqrt(Q / (2 * j + 1.0) ** k)
            lo, hi, cs = _LADDER_RANGE[k]
            ok &= lo < r.min() and r.max() <= hi * (1 + _ROUTE_REL)
            ext[f"k={k}"][str(N)] = [float(r.min()), float(r.max())]
            ratios = []
            for i in (0, N - k):
                e = SpectralVector.unit(1, N, Convention.PAPER_H, i)
                got, want = ladder_seminorm(e, k), sum(map(math.sqrt, _LADDER_WORDS[k](i)))
                route = max(route, abs(got - want) / want)
                ratios.append(got / sobolev_norm(e, float(k)))
            e0[f"k={k}"] = ratios[0]  # the same at every N
            v = SpectralVector(1, N, Convention.PAPER_H, np.append(1.0 / (j + 1), np.zeros(k)))
            ratios.append(ladder_seminorm(v, k) / sobolev_norm(v, float(k)))
            ok &= all(lo <= x <= cs for x in ratios)
    ok &= form_defect <= _ROUTE_REL and route <= _ROUTE_REL
    return (ok, {"extremes": ext, "form_defect": form_defect, "route_defect": route,
                 "e0_ratio": e0},
            {"form_range": {f"k={k}": [lo, hi] for k, (lo, hi, _) in _LADDER_RANGE.items()},
             "cauchy_schwarz": {f"k={k}": [lo, cs] for k, (lo, _, cs) in _LADDER_RANGE.items()}})


# --------------------------------------------------------------- operators

@check("operators.symbol-closed-forms", tol=1e-12)
def check_symbol_closed_forms(ctx: VerifyContext, cid: str) -> tuple:
    zs = np.array([0.0, 0.5 + 0.3j, -1.0 + 0.8j, 1.5, -0.4 - 1.1j])
    s1 = symbol_from_multiplier(constant(1.0))
    worst = float(np.abs(s1(zs) - 1.0).max())
    c = 0.7
    s2 = symbol_from_multiplier(modulation(c))
    worst = max(worst, float(np.abs(s2(zs) - np.exp(c * zs - c * c / 2)).max()))
    s3 = symbol_from_multiplier(signum())
    worst = max(worst, abs(s3(0.0)))
    s4 = symbol_from_multiplier(bump())
    want = math.sqrt(2.0 / 3.0) * np.exp(zs * zs / 6.0)
    worst = max(worst, float(np.abs(s4(zs) - want).max()))
    return worst <= ctx.tol(cid), worst, {}


@check("operators.symbol-roundtrip", tol=1e-9, sub={"bump": 1e-10})
def check_symbol_roundtrip(ctx: VerifyContext, cid: str) -> tuple:
    tol = ctx.tol(cid)
    mc = modulation(0.7)
    rec = multiplier_from_symbol(symbol_from_multiplier(mc, quad_order=192))
    xs = np.linspace(-2.0, 2.0, 41)
    worst_mod = float(np.abs(rec(xs) - mc(xs)).max())
    mb = bump()
    recb = multiplier_from_symbol(symbol_from_multiplier(mb, quad_order=192))
    nodes = gauss_hermite(24, 2.0, 1).nodes[:, 0]
    nodes = nodes[np.abs(nodes) <= 2.2]
    worst_bump = float(np.abs(recb(nodes) - mb(nodes)).max())
    one = multiplier_from_symbol(symbol_from_multiplier(constant(1.0)))
    worst_one = float(np.abs(one(xs) - 1.0).max())
    ok = worst_mod <= tol and worst_one <= tol and worst_bump <= ctx.tol(cid + ".bump")
    return ok, {"modulation": worst_mod, "constant": worst_one, "bump_at_nodes": worst_bump}, {}


@check("operators.reproducing", tol=1e-12, sub={"linearity": 1e-13})
def check_reproducing(ctx: VerifyContext, cid: str) -> tuple:
    """Unit symbol reproduces point values and gives the identity matrix."""
    sym = symbol_from_multiplier(constant(1.0))
    N = 8
    M = integral_operator_matrix(sym, N, gauss_hermite(48, 1.0, 2))
    worst = float(np.abs(M.entries - np.eye(index_count(1, N))).max())
    g = gauss_hermite(40, 1.0, 2)
    v = random_vector(1, 6, Convention.FOCK, ctx.rng_seed(cid))
    for z in (0.3 + 0.2j, -0.8j, 1.1):
        got = apply_integral_operator(sym, v, z, g)
        worst = max(worst, abs(got - synthesize(v, z)))
    # linearity at fixed z
    w = random_vector(1, 6, Convention.FOCK, ctx.rng_seed(cid) + 1)
    lin = abs(apply_integral_operator(sym, v.with_coeffs(v.coeffs + 2 * w.coeffs), 0.5, g)
              - apply_integral_operator(sym, v, 0.5, g)
              - 2 * apply_integral_operator(sym, w, 0.5, g))
    ok = worst <= ctx.tol(cid) and lin <= ctx.tol(cid + ".linearity")
    return ok, {"identity_defect": worst, "linearity": lin}, {}


@check("operators.theorem-matrix", tol=1e-12)
def check_theorem_matrix(ctx: VerifyContext, cid: str) -> tuple:
    """Central dual-route check: direct complex quadrature of the integral
    operator vs the Fourier-conjugated multiplier matrix, interior blocks,
    with the coarse-truncation distance exceeding the fine one."""
    tol = ctx.tol(cid)
    results = {}
    ok = True
    for m in (constant(1.0), modulation(0.7), bump()):
        t0 = time.perf_counter()
        dists = {}
        for N in (8, 12):
            Q = default_mesh_order(N)
            sym = symbol_from_multiplier(m, quad_order=2 * Q)
            A = integral_operator_matrix(sym, N, gauss_hermite(Q, 1.0, 2))
            B = conjugated_multiplier_matrix(m, N)
            dists[N] = interior_frobenius(A.entries, B.entries, 1, N)
        dt = time.perf_counter() - t0
        ok &= dists[12] <= tol and dists[8] > dists[12] and dt <= 120.0
        results[m.label] = {"d8": dists[8], "d12": dists[12]}
    return ok, results, {"N_fine": 12, "Q_fine": default_mesh_order(12)}


@check("operators.modulation-weyl", tol=1e-12)
def check_modulation_weyl(ctx: VerifyContext, cid: str) -> tuple:
    """The exponential symbol acts as the Weyl shift: both operator routes
    match the analytic Weyl matrix on the interior block."""
    tol = ctx.tol(cid)
    c = 0.7
    N = 12
    W = weyl_matrix(complex(c), N)
    sym = symbol_from_multiplier(modulation(c), quad_order=160)
    A = integral_operator_matrix(sym, N, gauss_hermite(80, 1.0, 2))
    d1 = interior_frobenius(A.entries, W.entries, 1, N)
    B = conjugated_multiplier_matrix(modulation(c), N)
    d2 = interior_frobenius(B.entries, W.entries, 1, N)
    ok = d1 <= tol and d2 <= tol
    return ok, {"direct_vs_weyl": d1, "conjugated_vs_weyl": d2}, {"c": c}


@check("operators.norm-identity", tol=0.05)
def check_norm_identity(ctx: VerifyContext, cid: str) -> tuple:
    """Flat-weight operator norm approaches the sup of the multiplier from
    below as the truncation grows."""
    m = MultiplierSpec("sin-shift", lambda x: (2.0 + np.sin(2.0 * x)) / 3.0)
    errs = {}
    for N in (10, 20, 40):
        est = operator_norm(conjugated_multiplier_matrix(m, N), 0.0)
        errs[N] = abs(est - 1.0)
    ok = errs[40] <= ctx.tol(cid) and errs[10] > errs[20] > errs[40]
    return ok, errs, {"sup": 1.0}


@check("operators.commutation", tol=1e-11)
def check_commutation(ctx: VerifyContext, cid: str) -> tuple:
    """The conjugated bump multiplier commutes with real Weyl shifts on the
    interior block.  N = 64 puts the product of sections at rounding
    (5.2e-14); at N = 32 it reads the truncation (3.0e-6)."""
    N = 64
    A = conjugated_multiplier_matrix(bump(), N)
    worst = 0.0
    for a in (0.3, 0.7, 1.0):
        W = weyl_matrix(complex(a), N)
        C = A.entries @ W.entries - W.entries @ A.entries
        worst = max(worst, float(np.linalg.norm(interior_block(C, 1, N))))
    return worst <= ctx.tol(cid), worst, {"N": N}


@check("operators.norm-transport", tol=1e-13)
def check_norm_transport(ctx: VerifyContext, cid: str) -> tuple:
    """The Fock-side weighted norm equals the real-line weighted norm of the
    bare multiplier matrix: the wrapping phases are diagonal unitaries.

    The phases commute with D, so both weighted matrices have the same
    singular values by construction, and the measured distance (2.3e-16, the
    same at every seed) is the rounding of two norm computations.
    """
    worst = 0.0
    for m in (bump(), signum()):
        for s in (0.0, 1.0):
            a = operator_norm(conjugated_multiplier_matrix(m, 24), s)
            b = operator_norm(multiplier_matrix(m, 24), s)
            worst = max(worst, abs(a - b) / max(b, 1e-300))
    return worst <= ctx.tol(cid), worst, {}


# |entry(0, 1)| of the signum matrix at N = 8 against the half-line Gaussian
# value sqrt(2/pi): the default rule's error there is 1.04e-2, since the
# integrand jumps at 0 and the rule converges slowly; the bound is 3x that.
SIGNUM_ENTRY01_BOUND = 0.031


@check("operators.multiplier-matrix", tol=1e-12)
def check_multiplier_matrix(ctx: VerifyContext, cid: str) -> tuple:
    M1 = multiplier_matrix(constant(1.0), 16)
    worst = float(np.abs(M1.entries - np.eye(index_count(1, 16))).max())
    Mb = multiplier_matrix(bump(), 16)
    worst = max(worst, float(np.abs(Mb.entries - Mb.entries.conj().T).max()))
    Ms = multiplier_matrix(signum(), 8)
    entry_err = abs(abs(Ms.entries[0, 1]) - math.sqrt(2 / math.pi))
    ok = worst <= ctx.tol(cid) and entry_err <= SIGNUM_ENTRY01_BOUND
    return ok, {"identity_and_hermiticity": worst, "signum_entry_error": entry_err}, {}


@check("operators.probes")
def check_probes(ctx: VerifyContext, cid: str) -> tuple:
    """Boundedness contrast at first-order smoothness: flat vs oscillator
    weights classify the registry multipliers differently."""
    th = ctx.threshold()
    reports = {
        "constant": boundedness_probe(constant(1.0), 1.0, _PROBE_LADDER),
        "signum": boundedness_probe(signum(), 1.0, _PROBE_LADDER),
        "chirp43": boundedness_probe(chirp43(), 1.0, _PROBE_LADDER),
        "chirp43-classical": classical_sobolev_probe(chirp43(), 1.0, _PROBE_LADDER),
    }
    records = {k: _probe_record(r, th) for k, r in reports.items()}
    want = {"constant": "stable", "signum": "growing", "chirp43": "stable",
            "chirp43-classical": "growing"}
    ok = all(records[k]["classification"] == want[k] for k in want)
    ok &= abs(reports["constant"].values[0] - 1.0) <= 1e-8
    # scaling invariance: norms are linear in the multiplier
    half = boundedness_probe(constant(0.5), 1.0, (8, 16))
    ok &= all(abs(v - 0.5) <= 1e-8 for v in half.values)
    return ok, records, {"threshold": th}


CHECK_IDS = [cid for cid, _, _ in CHECKS]
TOLERANCES = {key: default for _, _, tols in CHECKS for key, default in tols.items()}


def _run_one(ctx: VerifyContext, cid: str, fn, tols: dict[str, float]) -> ReportRecord:
    """Run one check and build its record from the ``(ok, measured, inputs)``
    it returns and the effective value of every tolerance key ``tols`` it
    declares.  Every warning it raises is recorded, one entry per distinct
    (category, message) with its count, in order of first appearance."""
    t0 = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            ok, measured, inputs = fn(ctx, cid)
            rec = ReportRecord(check_id=cid, status="pass" if ok else "fail", measured=measured,
                               tolerance=ctx.tol(cid) if cid in tols else None, inputs=inputs)
        except Exception as exc:  # a crashed or malformed check is a failed check
            rec = ReportRecord(check_id=cid, status="fail",
                               measured={"error": f"{type(exc).__name__}: {exc}"})
    counts = Counter((w.category.__name__, str(w.message)) for w in caught)
    rec.warnings = [{"category": c, "message": m, "count": n} for (c, m), n in counts.items()]
    rec.tolerances = {key: ctx.tol(key) for key in tols}
    rec.wall_ms = (time.perf_counter() - t0) * 1e3
    return rec


def run_suite(ctx: VerifyContext, only: str | None = None) -> list[ReportRecord]:
    """Run (a prefix-filtered subset of) the suite; records in declared order."""
    return [_run_one(ctx, cid, fn, tols) for cid, fn, tols in CHECKS
            if only is None or cid.startswith(only)]
