"""Fractional smoothness norms, heat semigroup, square function and
localization machinery for truncated Hermite/Fock coefficient vectors.

Everything diagonal lives on the eigenvalue array lam_alpha = 2|alpha| + n.
The square-function constant c_{s,K} has two routes that share no code: a
closed Gamma-function sum (``smoothing_constant``) and adaptive quadrature
over the semigroup parameter after t = e^v (``kappa_constant`` and the
eigenvalue table behind ``square_function_norm_direct``).

Localization uses ``PartitionBump``, a tensor product of one closed-form
C^inf axis profile built from a smooth step; ``localization_norm`` re-projects
every localized piece f eta_m in one product against the bump table over all
lattice cells.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from decimal import Decimal, localcontext
from functools import lru_cache

import numpy as np
from scipy.integrate import quad_vec

from .errors import AccuracyWarning, DivergenceError, GridMismatchError
from .hermite import (
    Convention,
    QuadratureGrid,
    SpectralVector,
    basis_table,
    gauss_hermite,
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
    """
    if s < 0:
        raise ValueError(f"smoothness order must be >= 0, got {s}")
    lam = eigenvalues(v.dim, v.truncation)
    return float(np.sqrt(np.sum(lam ** s * np.abs(v.coeffs) ** 2)))


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


def heat_kernel_value(N: int, t: float, x, y,
                      convention: Convention = Convention.PAPER_H) -> float:
    """Truncated heat kernel  Sigma_k exp(-t^2 lam_k) b_k(x) b_k(y)  in 1D."""
    from .hermite import hermite_axis_table

    tx = hermite_axis_table(N, np.asarray(x, dtype=float), convention)
    ty = hermite_axis_table(N, np.asarray(y, dtype=float), convention)
    lam = 2 * np.arange(N + 1) + 1
    return float(np.sum(np.exp(-t * t * lam) * tx * ty))


def weighted_fock_norm(v: SpectralVector, s: float, grid2n: QuadratureGrid) -> float:
    """Weighted-Fock realization of the fractional norm.

    Quadrature of [ w_{n,s} Int (1+|z|)^{2s} |f(z)|^2 e^{-|z|^2} dz ]^(1/2)
    over C^n = R^{2n}, with the normalizer w_{n,s} calibrated at runtime so
    the constant function 1 has norm 1.  Equivalent (not equal) to
    ``sobolev_norm``; the ratio is the object the equivalence probes bound.
    """
    if v.convention is not Convention.FOCK:
        raise ValueError("weighted Fock norm is defined for fock-tagged vectors")
    if grid2n.dim != 2 * v.dim:
        raise GridMismatchError(
            f"need a {2 * v.dim}-dim grid for n={v.dim}, got dim {grid2n.dim}")
    if grid2n.scale != 1.0:
        raise GridMismatchError("weighted Fock norm needs a scale-1 grid")
    z = grid2n.complex_nodes()
    vals = synthesize(v, z if v.dim > 1 else z[:, 0])
    r = np.sqrt(np.sum(np.abs(z) ** 2, axis=1))
    wts = grid2n.weights * (1.0 + r) ** (2 * s)
    raw = float(np.sum(wts * np.abs(vals) ** 2))
    normalizer = float(np.sum(wts))  # same integral with f == 1
    return math.sqrt(raw / normalizer)


def smoothing_constant(s: float, K: int) -> float:
    """c_{s,K} = [ Int_0^inf (1 - e^{-u^2})^{2K} u^{-1-2s} du ]^(1/2), in closed form.

    Termwise Gamma integrals give c^2 = 1/2 Gamma(-s) Sigma_{j=1}^{2K} C(2K,j) (-1)^j j^s.
    With k = round(s), d = s - k and the reflection formula this is
    c^2 = 1/2 (-1)^{k+1} Gamma(1-d) S / Prod_{i=1}^k (i+d), where S = Sigma/d,
    or its limit Sigma C(2K,j) (-1)^j j^k ln j at d = 0.  The alternating sum
    cancels in double precision (c^2 < 0 for K >= 10), so S is formed with
    60 + 2K log10(4K) decimal digits (the largest term has 2K log10(4K)).
    Raises ``DivergenceError`` outside 0 < s < 2K.
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


def _semigroup_integrals(lam: np.ndarray, s: float, K: int) -> np.ndarray:
    """I(lam) = Int_0^inf (1 - e^{-t^2 lam})^{2K} t^{-1-2s} dt for each lam, by quadrature.

    After t = e^v the integrand is e^{-2sv} (1 - e^{-e^{2(v+h)}})^{2K}, h = log(lam)/2,
    formed in log space.  Past v + h = 18 the bracket is 1 and below -20 it is
    e^{2(v+h)}, to double precision, so both tails are pure exponentials.
    Each component is integrated as lam^{-s} I(lam), which is of order one for
    every lam, so the max-norm error control of ``quad_vec`` holds entry by
    entry; the factor lam^s is put back at the end.
    """
    if K < 1 or not 0.0 < s < 2.0 * K:
        raise DivergenceError(
            f"square-function integral diverges unless 0 < s < 2K; got s={s}, K={K}")
    h = 0.5 * np.log(lam)
    a, b = -20.0 - h.max(), 18.0 - h.min()

    def integrand(v: float) -> np.ndarray:
        u = 2.0 * (v + h)
        return np.exp(-s * u + 2.0 * K * np.log(-np.expm1(-np.exp(u))))

    body = quad_vec(integrand, a, b, epsabs=0.0, epsrel=1e-13, norm="max", limit=2000)[0]
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
    c = smoothing_constant(s, K)
    lam = eigenvalues(v.dim, v.truncation)
    return c * float(np.sqrt(np.sum(lam ** s * np.abs(v.coeffs) ** 2)))


@lru_cache(maxsize=None)
def _eigenvalue_integrals(s: float, K: int, n: int, N: int) -> np.ndarray:
    """I(lam_alpha) in graded order, one quadrature per distinct eigenvalue."""
    lam, inv = np.unique(eigenvalues(n, N), return_inverse=True)
    table = _semigroup_integrals(lam, s, K)[inv]
    table.setflags(write=False)
    return table


def square_function_norm_direct(v: SpectralVector, s: float, K: int) -> float:
    """Independent route: [ Sigma_a |c_a|^2 Int_0^inf (1-e^{-t^2 lam_a})^{2K} dt/t^{1+2s} ]^(1/2).

    The t-integrals are tabulated by quadrature once per (s, K, n, N); no
    closed form enters.  Requires 0 < s < 2K.
    """
    table = _eigenvalue_integrals(s, K, v.dim, v.truncation)
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
        return sum(self(x + np.array(m))
                   for m in itertools.product(range(-K, K + 1), repeat=self.dim))

    def squared_sum_range(self) -> tuple[float, float]:
        """min/max over one period of Sigma_m eta_m(x)^2 (1D axis); the s = 0
        localization ratio lies between the square roots of these."""
        xs = np.linspace(0.0, 1.0, 20001)
        tot = sum(self.eval_axis(xs + m) ** 2 for m in range(-4, 5))
        return float(tot.min()), float(tot.max())


def localization_norm(v: SpectralVector, s: float, bump: PartitionBump,
                      lattice_radius: int) -> float:
    """[ Sigma_{|m|_inf <= M} || f eta_m ||_{s}^2 ]^(1/2) with f synthesized from v.

    Every localized piece f eta_m is re-projected at truncation N + 24 in one
    product against the (cells x nodes) table of eta_m; a warning fires when
    the boundary lattice cells carry more than 1e-6 of the total (the cutoff
    M does not cover the function).
    """
    if bump.dim != v.dim:
        raise ValueError(f"bump dimension {bump.dim} != vector dimension {v.dim}")
    if s < 0:
        raise ValueError(f"smoothness order must be >= 0, got {s}")
    n, N2, M = v.dim, v.truncation + 24, lattice_radius
    w = v.convention.weight_exponent
    grid = gauss_hermite(N2 + 24, float(w), n)
    cells = np.array(list(itertools.product(range(-M, M + 1), repeat=n)), dtype=float)
    E = bump(grid.nodes[None, :, :] + cells[:, None, :]).reshape(len(cells), -1)
    P = basis_table(n, N2, grid.nodes, v.convention, weightless=True)
    coeffs = P @ (grid.loaded_weights(0.5 * w) * synthesize(v, grid.nodes) * E).T
    cell = eigenvalues(n, N2) ** s @ np.abs(coeffs) ** 2
    total = float(cell.sum())
    boundary = float(cell[np.abs(cells).max(axis=1) == M].sum())
    if total > 0 and boundary > 1e-6 * total:
        warnings.warn(
            f"boundary lattice cells carry {boundary / total:.2e} of the localization "
            f"sum; increase the lattice radius beyond {M}", AccuracyWarning)
    return math.sqrt(total)


def potential_bound_probe(v: SpectralVector, s: float,
                          grid: QuadratureGrid | None = None) -> float:
    """|| |x|^{2s} * synth(H^{-s} v) ||_2 / ||v||_2 by quadrature (s >= 0)."""
    if s < 0:
        raise ValueError(f"need s >= 0, got {s}")
    if v.norm() == 0:
        raise ValueError("zero vector")
    w = fractional_H(v, -s)
    sc = float(v.convention.weight_exponent)
    if grid is None:
        grid = gauss_hermite(min(2 * v.truncation + 48, 512), sc, v.dim)
    pts = grid.nodes if v.dim > 1 else grid.nodes[:, 0]
    vals = synthesize(w, pts)
    r2 = np.sum(grid.nodes * grid.nodes, axis=1)
    wts = grid.loaded_weights(grid.scale)  # plain dx rule; integrand carries its own decay
    num = math.sqrt(float(np.sum(wts * r2 ** (2 * s) * np.abs(vals) ** 2)))
    return num / v.norm()
