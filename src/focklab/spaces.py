"""Fractional smoothness norms, heat semigroup, square function and
localization machinery for truncated Hermite/Fock coefficient vectors.

Everything diagonal lives on the eigenvalue array lam_alpha = 2|alpha| + n,
the radially weighted ``weighted_fock_norm`` included.
The square-function constant c_{s,K} has two routes that share no code: a
closed Gamma-function sum (``smoothing_constant``) and a fixed composite
Gauss-Legendre rule over the semigroup parameter after t = e^v
(``kappa_constant`` and the eigenvalue table behind
``square_function_norm_direct``).

Localization uses ``PartitionBump``, a tensor product of one closed-form
C^inf axis profile built from a smooth step; ``localization_norm`` re-projects
every localized piece f eta_m in one product against the bump table over all
lattice cells.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from decimal import Decimal, localcontext
from functools import lru_cache

import numpy as np

from .errors import AccuracyWarning, DivergenceError, EvaluationRangeError
from .hermite import (
    Convention,
    SpectralVector,
    _cartesian,
    basis_table,
    gauss_hermite,
    hermite_axis_table,
    index_array,
    synthesize,
)

__all__ = [
    "eigenvalues",
    "sobolev_norm",
    "fractional_H",
    "heat_semigroup",
    "heat_kernel_value",
    "weighted_fock_norm",
    "smoothing_constant",
    "square_function_norm",
    "square_function_norm_direct",
    "kappa_constant",
    "PartitionBump",
    "localization_norm",
    "potential_bound_probe",
]


@lru_cache(maxsize=None)
def eigenvalues(n: int, N: int) -> np.ndarray:
    """Oscillator eigenvalues 2|alpha| + n in graded order."""
    lam = (2 * index_array(n, N).sum(axis=1) + n).astype(float)
    lam.setflags(write=False)
    return lam


def sobolev_norm(v: SpectralVector, s: float) -> float:
    """[ Sigma (2|alpha|+n)^s |c_alpha|^2 ]^(1/2).

    The same formula serves the Hermite-side and Fock-side fractional spaces:
    the Fock-side transform is the identity on coefficients, so the weighted
    sums coincide.  Negative s is excluded here (use ``fractional_H``
    directly for negative powers).

    A zero coefficient contributes 0 even where lam^s overflows.  When the
    squared sum overflows, the norm is taken again with the terms
    lam^{s/2} |c_alpha| divided by their largest, and
    ``EvaluationRangeError`` is raised when the norm itself exceeds double
    precision.
    """
    if s < 0:
        raise ValueError(f"smoothness order must be >= 0, got {s}")
    lam = eigenvalues(v.dim, v.truncation)
    zero = v.coeffs == 0
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        total = np.sum(np.where(zero, 0.0, lam ** s * np.abs(v.coeffs) ** 2))
        if np.isfinite(total):
            return float(np.sqrt(total))
        terms = np.where(zero, 0.0, lam ** (s / 2.0) * np.abs(v.coeffs))
        peak = terms.max()
        norm = float(peak * np.sqrt(np.sum((terms / peak) ** 2)))
    if not math.isfinite(norm):
        raise EvaluationRangeError(
            f"the order-{s:g} Sobolev norm exceeds double precision (~1.8e308) "
            f"at N={v.truncation}")
    return norm


def fractional_H(v: SpectralVector, s: float) -> SpectralVector:
    """c_alpha -> (2|alpha|+n)^s c_alpha; any real s (eigenvalues >= n > 0)."""
    lam = eigenvalues(v.dim, v.truncation)
    return v.with_coeffs(v.coeffs * lam ** s)


def heat_semigroup(v: SpectralVector, t: float) -> SpectralVector:
    """c_alpha -> exp(-t^2 (2|alpha|+n)) c_alpha, t >= 0."""
    if t < 0:
        raise ValueError(f"semigroup time must be >= 0, got {t}")
    lam = eigenvalues(v.dim, v.truncation)
    return v.with_coeffs(v.coeffs * np.exp(-t * t * lam))


def heat_kernel_value(N: int, t: float, x, y) -> float:
    """Truncated heat kernel  Sigma_k exp(-t^2 lam_k) h_k(x) h_k(y)  in 1D,
    in the paper-h system."""
    tx = hermite_axis_table(N, np.asarray(x, dtype=float), Convention.PAPER_H)
    ty = hermite_axis_table(N, np.asarray(y, dtype=float), Convention.PAPER_H)
    return float(np.sum(np.exp(-t * t * eigenvalues(1, N)) * tx * ty))


@lru_cache(maxsize=None)
def smoothing_constant(s: float, K: int) -> float:
    """c_{s,K} = [ Int_0^inf (1 - e^{-u^2})^{2K} u^{-1-2s} du ]^(1/2), in closed form.

    Termwise Gamma integrals give c^2 = 1/2 Gamma(-s) Sigma_{j=1}^{2K} C(2K,j) (-1)^j j^s.
    With k = round(s), d = s - k and the reflection formula this is
    c^2 = 1/2 (-1)^{k+1} Gamma(1-d) S / Prod_{i=1}^k (i+d), where S = Sigma/d,
    or its limit Sigma C(2K,j) (-1)^j j^k ln j at d = 0.  The alternating sum
    cancels in double precision (c^2 < 0 for K >= 10), so S is formed with
    60 + 2K log10(4K) decimal digits (the largest term has 2K log10(4K)).
    Raises ``DivergenceError`` outside 0 < s < 2K.  Each (s, K) is computed
    once per process.
    """
    if K < 1 or not 0.0 < s < 2.0 * K:
        raise DivergenceError(
            f"smoothing constant diverges unless 0 < s < 2K; got s={s}, K={K}")
    k = round(s)
    with localcontext() as ctx:
        ctx.prec = 60 + math.ceil(2 * K * math.log10(4 * K))
        d = Decimal(s) - k
        terms = [(-1) ** j * math.comb(2 * K, j) for j in range(1, 2 * K + 1)]
        if d:
            S = sum(c * Decimal(j) ** Decimal(s) for j, c in enumerate(terms, 1)) / d
        else:
            S = sum(c * j ** k * Decimal(j).ln() for j, c in enumerate(terms, 1))
        S /= math.prod(i + d for i in range(1, k + 1))
        return math.sqrt(0.5 * (-1) ** (k + 1) * math.gamma(1.0 - float(d)) * float(S))


@lru_cache(maxsize=None)
def _panel_rule() -> tuple[np.ndarray, np.ndarray]:
    """Each panel's 24-node Gauss-Legendre rule on [-1, 1], built on first
    use: only the square-function routes and the weighted Fock norm load
    numpy.polynomial.  Read-only, as every caller shares it."""
    x, w = np.polynomial.legendre.leggauss(24)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _semigroup_integrals(lam: np.ndarray, s: float, K: int) -> np.ndarray:
    """I(lam) = Int_0^inf (1 - e^{-t^2 lam})^{2K} t^{-1-2s} dt for each lam, by quadrature.

    After t = e^v the integrand is e^{-2sv} (1 - e^{-e^{2(v+h)}})^{2K}, h = log(lam)/2,
    formed in log space.  Past v + h = 18 the bracket is 1 and below -20 it is
    e^{2(v+h)}, to double precision, so both tails are pure exponentials.
    Between them every lam shares one composite rule, 64 equal panels of 24
    Gauss-Legendre nodes, applied to lam^{-s} I(lam), which is of order one
    for every lam; the factor lam^s is put back at the end.
    """
    if K < 1 or not 0.0 < s < 2.0 * K:
        raise DivergenceError(
            f"square-function integral diverges unless 0 < s < 2K; got s={s}, K={K}")
    h = 0.5 * np.log(lam)
    a, b = -20.0 - h.max(), 18.0 - h.min()
    half = 0.5 * (b - a) / 64  # panel half-width
    x, w = _panel_rule()
    v = (a + half * (2 * np.arange(64) + 1))[:, None] + half * x
    u = 2.0 * (v.ravel() + h[:, None])
    body = half * (np.exp(-s * u + 2.0 * K * np.log(-np.expm1(-np.exp(u)))) @ np.tile(w, 64))
    lower = np.exp((4.0 * K - 2.0 * s) * (a + h)) / (4.0 * K - 2.0 * s)
    upper = np.exp(-2.0 * s * (b + h)) / (2.0 * s)
    return lam ** s * (body + lower + upper)


def kappa_constant(s: float, K: int) -> float:
    """kappa = [ Int_0^inf |psi(t)|^2 dt/t ]^(1/2) with psi(t) = t^{-s}(1-e^{-t^2})^K.

    Equal to ``smoothing_constant`` (relabel the variable) but computed by
    quadrature, so the equality is a real two-route check.  Requires 0 < s < 2K.
    """
    return math.sqrt(_semigroup_integrals(np.ones(1), s, K)[0])


def square_function_norm(v: SpectralVector, s: float, K: int) -> float:
    """L^2 norm of the semigroup square function: c_{s,K} * ||H^{s/2} v||_2.

    The t-integral diagonalizes on eigenvectors, so the exact spectral value
    is the weighted coefficient sum times the smoothing constant.  Requires
    0 < s < 2K.
    """
    return smoothing_constant(s, K) * sobolev_norm(v, s)


@lru_cache(maxsize=None)
def _eigenvalue_table(rule, n: int, N: int, *args) -> np.ndarray:
    """rule(lam, *args) in graded order, once per distinct eigenvalue and key."""
    lam, inv = np.unique(eigenvalues(n, N), return_inverse=True)
    table = rule(lam, *args)[inv]
    table.setflags(write=False)
    return table


def square_function_norm_direct(v: SpectralVector, s: float, K: int) -> float:
    """Independent route: [ Sigma_a |c_a|^2 Int_0^inf (1-e^{-t^2 lam_a})^{2K} dt/t^{1+2s} ]^(1/2).

    The t-integrals are tabulated by quadrature once per (s, K, n, N); no
    closed form enters.  Requires 0 < s < 2K.
    """
    table = _eigenvalue_table(_semigroup_integrals, v.dim, v.truncation, s, K)
    return math.sqrt(float(np.sum(np.abs(v.coeffs) ** 2 * table)))


def _radial_moments(lam: np.ndarray, s: float, n: int) -> np.ndarray:
    """mu_k / mu_0 at each lam = 2k + n (ascending), where mu_k = (2 / Gamma(k+n))
    Int_0^inf r^q (1+r)^{2s} e^{-r^2} dr, q = 2k + 2n - 1, by one rule for every k:
    24-node Gauss-Legendre panels of width 2 from 0 past sqrt(2(k+n+s)) + 8.  The
    integrand is formed in log space about the peak c of the density r^q e^{-r^2}
    and divided by the rule's integral of that density, Gamma(k+n) / 2, so no Gamma
    function enters and the density's rounding cancels.  Rows go 256 at a time."""
    q = lam + (n - 1.0)
    P = math.ceil(0.5 * math.sqrt(q[-1] + 1.0 + 2.0 * s) + 4.0)
    x, w = _panel_rule()
    r = ((2 * np.arange(P) + 1)[:, None] + x).ravel()
    w = np.tile(w, P)
    log_mu = np.empty(len(q))
    for k in np.array_split(np.arange(len(q)), len(q) // 256 + 1):
        c = np.sqrt(0.5 * q[k])[:, None]
        d = r - c
        density = q[k, None] * np.log1p(d / c) - d * (r + c)
        weighted = density + 2.0 * s * np.log1p(d / (1.0 + c))
        top = weighted.max(axis=1)
        log_mu[k] = (np.log(np.exp(weighted - top[:, None]) @ w) + top
                     + 2.0 * s * np.log1p(c[:, 0]) - np.log(np.exp(density) @ w))
    return np.exp(log_mu - log_mu[0])


def weighted_fock_norm(v: SpectralVector, s: float) -> float:
    """[ Int (1+|z|)^{2s} |f|^2 e^{-|z|^2} dz / Int (1+|z|)^{2s} e^{-|z|^2} dz ]^(1/2)
    over C^n, the weighted-Fock realization of the fractional norm.  The weight
    is radial, so the monomials stay orthogonal and the norm is
    [ Sigma |c_alpha|^2 mu_{|alpha|} / mu_0 ]^(1/2), exact in angle.  The radial
    moments (``_radial_moments``) round in proportion to s, to 3.4e-13 relative at
    s = 128 and N = 6000, so larger s is refused.  Equivalent, not equal, to ``sobolev_norm``."""
    if v.convention is not Convention.FOCK:
        raise ValueError("weighted Fock norm is defined for fock-tagged vectors")
    if not 0.0 <= s <= 128.0:
        raise ValueError(f"weighted Fock norm needs 0 <= s <= 128 (its 1e-12 range), got {s}")
    table = _eigenvalue_table(_radial_moments, v.dim, v.truncation, s, v.dim)
    return math.sqrt(float(np.sum(np.abs(v.coeffs) ** 2 * table)))


def _smooth_step(t) -> np.ndarray:
    """Phi(t) = f(1/2+t) / (f(1/2+t) + f(1/2-t)) with f(u) = e^{-1/u} for u > 0, else 0.

    C^inf and nondecreasing; 0 for t <= -1/2, 1 for t >= 1/2 and 1/2 at t = 0,
    all three exactly in floating point.  Its derivative is a unit-mass C^inf
    mollifier supported on [-1/2, 1/2].
    """
    u = np.clip(0.5 + np.asarray(t, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore"):
        a, b = np.exp(-1.0 / u), np.exp(-1.0 / (1.0 - u))
    return a / (a + b)


@dataclass(frozen=True)
class PartitionBump:
    """Smooth cutoff with plateau {|x|_inf <= 1}, support {|x|_inf <= 2},
    whose integer translates sum to the constant c0 = 3^n.

    Per axis, eta(x) = Phi(x + 3/2) - Phi(x - 3/2) with ``_smooth_step`` Phi:
    the indicator of [-3/2, 3/2] convolved with the mollifier Phi'.  In n
    dimensions eta is the product of the axis profiles.  The translates
    telescope, Sigma_m [Phi(x+m+3/2) - Phi(x+m-3/2)] = 3 per axis, so the
    partition identity holds structurally, not just numerically; the plateau,
    the support and eta(+-3/2) = 1/2 hold exactly.
    """

    dim: int = 1

    @property
    def c0(self) -> float:
        return 3.0 ** self.dim

    def eval_axis(self, x) -> np.ndarray:
        """The one-dimensional profile eta(x), elementwise."""
        x = np.asarray(x, dtype=float)
        return _smooth_step(x + 1.5) - _smooth_step(x - 1.5)

    def __call__(self, x) -> np.ndarray:
        """eta(x) for points of shape (m, n), or (m,) when n = 1."""
        x = np.asarray(x, dtype=float).reshape(-1, self.dim)
        return np.prod(self.eval_axis(x), axis=1)

    def partition_sum(self, x) -> np.ndarray:
        """Sigma_m eta(x + m) over every lattice point m whose cell meets x."""
        x = np.asarray(x, dtype=float).reshape(-1, self.dim)
        K = int(np.ceil(np.abs(x).max())) + 3
        return sum(self(x + m) for m in _cartesian(np.arange(-K, K + 1.0), self.dim))

    def squared_sum_range(self) -> tuple[float, float]:
        """min/max over one period of Sigma_m eta_m(x)^2 (1D axis); the s = 0
        localization ratio lies between the square roots of these.

        At every x two translates sit on their plateau (value 1) and at most
        two more on their slopes, with values Phi and 1 - Phi for one value
        Phi of the smooth step, so the sum is 2 + Phi^2 + (1 - Phi)^2.  That
        is 3 where Phi is 0 or 1 and smallest, 5/2, at Phi = 1/2.
        """
        return 2.5, 3.0


@lru_cache(maxsize=8)
def _localization_tables(bump: PartitionBump, convention: Convention, N2: int, M: int):
    """The v-independent tables of ``localization_norm``, built once per key:
    the projection grid, the (cells x nodes) table E of eta_m over the cells
    |m|_inf <= M, the basis table P at truncation N2 and the boundary-cell
    mask (all read-only)."""
    n, w = bump.dim, convention.weight_exponent
    grid = gauss_hermite(N2 + 24, float(w), n)
    cells = _cartesian(np.arange(-M, M + 1.0), n)
    E = bump(grid.nodes[None, :, :] + cells[:, None, :]).reshape(len(cells), -1)
    P = basis_table(n, N2, grid.nodes, convention)
    edge = np.abs(cells).max(axis=1) == M
    for a in (E, P, edge):
        a.setflags(write=False)
    return grid, E, P, edge


def localization_norm(v: SpectralVector, s: float, bump: PartitionBump,
                      lattice_radius: int) -> float:
    """[ Sigma_{|m|_inf <= M} || f eta_m ||_{s}^2 ]^(1/2) with f synthesized from v.

    Every localized piece f eta_m is re-projected at truncation N + 24 in one
    product against the (cells x nodes) table of eta_m, which with the other
    v-independent tables is built once per (bump, convention, N + 24, M)
    (``_localization_tables``); a warning fires when
    the boundary lattice cells carry more than 1e-6 of the total (the cutoff
    M does not cover the function).
    """
    if bump.dim != v.dim:
        raise ValueError(f"bump dimension {bump.dim} != vector dimension {v.dim}")
    if s < 0:
        raise ValueError(f"smoothness order must be >= 0, got {s}")
    if lattice_radius < 0:
        raise ValueError(f"lattice_radius must be >= 0, got {lattice_radius}")
    N2, M = v.truncation + 24, lattice_radius
    grid, E, P, edge = _localization_tables(bump, v.convention, N2, M)
    coeffs = P @ (grid.dx_weights * synthesize(v, grid.nodes) * E).T
    cell = eigenvalues(v.dim, N2) ** s @ np.abs(coeffs) ** 2
    total = float(cell.sum())
    boundary = float(cell[edge].sum())
    if total > 0 and boundary > 1e-6 * total:
        warnings.warn(
            f"boundary lattice cells carry {boundary / total:.2e} of the localization "
            f"sum; increase the lattice radius beyond {M}", AccuracyWarning)
    return math.sqrt(total)


def potential_bound_probe(v: SpectralVector, s: float) -> float:
    """|| |x|^{2s} * synth(H^{-s} v) ||_2 / ||v||_2 by quadrature (s >= 0)."""
    if s < 0:
        raise ValueError(f"need s >= 0, got {s}")
    if v.norm() == 0:
        raise ValueError("zero vector")
    w = fractional_H(v, -s)
    sc = float(v.convention.weight_exponent)
    grid = gauss_hermite(min(2 * v.truncation + 48, 512), sc, v.dim)
    pts = grid.nodes if v.dim > 1 else grid.nodes[:, 0]
    vals = synthesize(w, pts)
    r2 = np.sum(grid.nodes * grid.nodes, axis=1)
    num = math.sqrt(float(np.sum(grid.dx_weights * r2 ** (2 * s) * np.abs(vals) ** 2)))
    return num / v.norm()
