"""Hermite basis evaluation, multi-index bookkeeping and Gauss-Hermite quadrature.

Two orthonormal Hermite systems on R^n are supported, differing in the
Gaussian carried by the functions:

    paper-h     h_k ~ poly * exp(-|x|^2/2)   (the oscillator eigenbasis)
    bargmann-h  hh_k(x) = 2^{n/4} h_k(sqrt(2) x) ~ poly * exp(-|x|^2)

Both are orthonormal in L^2(R^n) and share coefficient arithmetic; they
differ pointwise.  The bargmann-h system is the one the Gaussian-kernel
transform to the Fock side maps onto monomials, so it is the default for
everything Fock-facing; paper-h is kept for the differential-operator
identities, which are stated for exp(-|x|^2/2) weights.

A third tag, ``fock``, labels coefficient vectors in the monomial basis
e_alpha(z) = z^alpha / sqrt(alpha!) of the Fock space over C^n.

All evaluation goes through the three-term recurrence on the *normalized*
functions (never "evaluate the polynomial, then normalize"), which is
stable for degrees in the hundreds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np
from scipy.special import roots_hermite

from .errors import EvaluationRangeError, GridMismatchError

__all__ = [
    "Convention",
    "MultiIndex",
    "graded_indices",
    "index_array",
    "index_count",
    "index_position",
    "QuadratureGrid",
    "gauss_hermite",
    "eval_hermite",
    "hermite_axis_table",
    "basis_table",
    "SpectralVector",
    "project",
    "synthesize",
    "ladder",
    "ladder_factor_squared",
    "convert_convention",
    "random_vector",
]

MAX_QUADRATURE_ORDER = 512

# exp() overflow threshold for float64, with headroom
_EXP_LIMIT = 700.0


class Convention(Enum):
    """Basis convention tag carried by coefficient vectors."""

    PAPER_H = "paper-h"
    BARGMANN_H = "bargmann-h"
    FOCK = "fock"

    @property
    def weight_exponent(self) -> int:
        """w such that each basis function carries exp(-w |x|^2 / 2).

        Products of two basis functions then carry exp(-w |x|^2), so w is
        also the Gauss-Hermite scale a projection grid must use.
        """
        if self is Convention.PAPER_H:
            return 1
        if self is Convention.BARGMANN_H:
            return 2
        raise ValueError("fock vectors have no real-line Gaussian weight")


@dataclass(frozen=True)
class MultiIndex:
    """alpha in N_0^n with its order |alpha| and factorial alpha!."""

    components: tuple[int, ...]

    def __post_init__(self):
        if not self.components or any(c < 0 for c in self.components):
            raise ValueError(f"multi-index components must be non-negative: {self.components}")

    @property
    def dim(self) -> int:
        return len(self.components)

    @property
    def order(self) -> int:
        return sum(self.components)

    @property
    def factorial(self) -> int:
        out = 1
        for c in self.components:
            out *= math.factorial(c)
        return out

    def __iter__(self):
        return iter(self.components)


@lru_cache(maxsize=None)
def graded_indices(n: int, N: int) -> tuple[MultiIndex, ...]:
    """All alpha with |alpha| <= N, graded by |alpha| then lexicographic.

    The enumeration is total, duplicate-free and nondecreasing in |alpha|;
    every truncated object in the package is laid out in this order.
    """
    if n < 1 or N < 0:
        raise ValueError(f"need n >= 1 and N >= 0, got n={n}, N={N}")
    out: list[MultiIndex] = []

    def compositions(total: int, slots: int) -> Iterable[tuple[int, ...]]:
        if slots == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for tail in compositions(total - head, slots - 1):
                yield (head,) + tail

    for degree in range(N + 1):
        out.extend(MultiIndex(c) for c in sorted(compositions(degree, n)))
    return tuple(out)


@lru_cache(maxsize=None)
def index_array(n: int, N: int) -> np.ndarray:
    """Graded enumeration as an immutable (count, n) int array."""
    arr = np.array([idx.components for idx in graded_indices(n, N)], dtype=np.int64)
    arr.setflags(write=False)
    return arr


def index_count(n: int, N: int) -> int:
    return math.comb(N + n, n)


@lru_cache(maxsize=None)
def index_position(n: int, N: int) -> dict[tuple[int, ...], int]:
    return {idx.components: i for i, idx in enumerate(graded_indices(n, N))}


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensorized Gauss-Hermite rule for integrals against exp(-scale*|x|^2).

    ``axis_nodes``/``axis_weights`` hold the 1D rule; ``nodes`` (Q^n, n) and
    ``weights`` (Q^n,) the tensorized one.  The 1D rule with Q points is
    exact for polynomials of degree <= 2Q-1 against its weight.
    """

    order: int
    dim: int
    scale: float
    axis_nodes: np.ndarray
    axis_weights: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray

    def loaded_weights(self, exponent: float) -> np.ndarray:
        """weights * exp(exponent * |x|^2); exponent <= scale keeps this bounded."""
        r2 = np.sum(self.nodes * self.nodes, axis=1)
        return self.weights * np.exp(exponent * r2)

    def complex_nodes(self) -> np.ndarray:
        """Pair up axes of a 2m-dim grid as m complex coordinates."""
        if self.dim % 2:
            raise GridMismatchError("complex pairing needs an even-dimensional grid")
        m = self.dim // 2
        return self.nodes[:, :m] + 1j * self.nodes[:, m:]


def gauss_hermite(order: int, scale: float = 1.0, dim: int = 1,
                  max_order: int = MAX_QUADRATURE_ORDER) -> QuadratureGrid:
    """Gauss-Hermite rule integrating g against exp(-scale*|x|^2) over R^dim.

    Nodes of the scaled rule are the unit-scale nodes divided by sqrt(scale),
    weights divided by scale^(dim/2).  Orders beyond ``max_order`` are
    rejected; node-solver accuracy is not guaranteed there.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if order > max_order:
        raise ValueError(f"order {order} exceeds configured maximum {max_order}")
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    x, w = roots_hermite(order)
    rt = math.sqrt(scale)
    ax = x / rt
    aw = w / rt
    if dim == 1:
        nodes = ax.reshape(-1, 1)
        weights = aw.copy()
    else:
        mesh = np.meshgrid(*([ax] * dim), indexing="ij")
        nodes = np.stack([m.ravel() for m in mesh], axis=1)
        wmesh = np.meshgrid(*([aw] * dim), indexing="ij")
        weights = np.prod(np.stack([m.ravel() for m in wmesh], axis=1), axis=1)
    for a in (ax, aw, nodes, weights):
        a.setflags(write=False)
    return QuadratureGrid(order=order, dim=dim, scale=scale,
                          axis_nodes=ax, axis_weights=aw, nodes=nodes, weights=weights)


def _checked_exp(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z)
    if np.iscomplexobj(z):
        if np.any(z.real > _EXP_LIMIT):
            raise EvaluationRangeError(
                "Gaussian factor overflows: evaluation point outside the safe "
                "envelope (need weight_exponent*(Im x)^2/2 - weight_exponent*(Re x)^2/2 "
                f"<= {_EXP_LIMIT})")
    return np.exp(z)


def hermite_axis_table(N: int, x, convention: Convention,
                       weightless: bool = False) -> np.ndarray:
    """Values of basis functions 0..N on one axis, shape (N+1,) + x.shape.

    ``weightless=True`` drops the Gaussian from the recurrence seed, returning
    the normalized polynomial parts p_k with basis_k = p_k * weight.  For the
    fock convention the entries are e_k(x) = x^k / sqrt(k!) (no weight).
    """
    x = np.asarray(x)
    scalar = x.ndim == 0
    if scalar:
        x = x.reshape(1)
    dt = np.complex128 if np.iscomplexobj(x) else np.float64
    out = np.empty((N + 1,) + x.shape, dtype=dt)
    if convention is Convention.FOCK:
        out[0] = 1.0
        for k in range(1, N + 1):
            out[k] = out[k - 1] * x / math.sqrt(k)
        return out[:, 0] if scalar else out
    if convention is Convention.PAPER_H:
        lead = math.pi ** -0.25
        xfac = math.sqrt(2.0)
    else:
        lead = (2.0 / math.pi) ** 0.25
        xfac = 2.0
    if weightless:
        out[0] = lead
    else:
        out[0] = lead * _checked_exp(-0.5 * convention.weight_exponent * x * x)
    if N >= 1:
        out[1] = xfac * x * out[0]
    for k in range(1, N):
        out[k + 1] = (xfac / math.sqrt(k + 1)) * x * out[k] \
            - math.sqrt(k / (k + 1)) * out[k - 1]
    return out[:, 0] if scalar else out


def eval_hermite(k: int, x, convention: Convention = Convention.PAPER_H):
    """Value of the k-th normalized basis function at x (real or complex)."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return hermite_axis_table(k, x, convention)[k]


def basis_table(n: int, N: int, points: np.ndarray, convention: Convention,
                weightless: bool = False) -> np.ndarray:
    """Values basis_alpha(points) for all |alpha| <= N, shape (count, npts).

    ``points`` is (npts, n), or (npts,) for n = 1.
    """
    points = np.asarray(points)
    if points.ndim == 1:
        points = points.reshape(-1, 1)
    if points.shape[1] != n:
        raise ValueError(f"points have dimension {points.shape[1]}, expected {n}")
    alpha = index_array(n, N)
    tabs = [hermite_axis_table(N, points[:, j], convention, weightless) for j in range(n)]
    out = tabs[0][alpha[:, 0]]
    for j in range(1, n):
        out = out * tabs[j][alpha[:, j]]
    return out


@dataclass(frozen=True)
class SpectralVector:
    """Truncated coefficient vector {c_alpha : |alpha| <= N} in a tagged basis.

    Coefficients are laid out in the graded enumeration; the L^2 norm is the
    Euclidean norm of ``coeffs``.  Instances are immutable; operations return
    new vectors.  ``truncation_loss`` records L^2 mass dropped by the most
    recent truncating operation (raising at the top grade).
    """

    dim: int
    truncation: int
    convention: Convention
    coeffs: np.ndarray
    truncation_loss: float = field(default=0.0, compare=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        expected = index_count(self.dim, self.truncation)
        if c.shape != (expected,):
            raise ValueError(f"need {expected} coefficients for n={self.dim}, "
                             f"N={self.truncation}; got shape {c.shape}")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def indices(self) -> tuple[MultiIndex, ...]:
        return graded_indices(self.dim, self.truncation)

    def __getitem__(self, alpha) -> complex:
        key = tuple(alpha) if not isinstance(alpha, int) else (alpha,)
        return complex(self.coeffs[index_position(self.dim, self.truncation)[key]])

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def with_coeffs(self, coeffs, loss: float = 0.0) -> "SpectralVector":
        return replace(self, coeffs=coeffs, truncation_loss=loss)

    @staticmethod
    def unit(n: int, N: int, convention: Convention, alpha) -> "SpectralVector":
        key = (alpha,) if isinstance(alpha, int) else tuple(alpha)
        c = np.zeros(index_count(n, N), dtype=complex)
        c[index_position(n, N)[key]] = 1.0
        return SpectralVector(n, N, convention, c)


def project(f: Callable[[np.ndarray], np.ndarray], N: int, grid: QuadratureGrid,
            convention: Convention) -> SpectralVector:
    """Quadrature approximation of the coefficients <f, basis_alpha>.

    The grid scale must equal the convention's product weight (1 for paper-h,
    2 for bargmann-h) and the order must exceed N.  ``f`` receives the node
    array ((npts, n), or (npts,) in 1D) and returns values.
    """
    w = convention.weight_exponent
    if grid.scale != w:
        raise GridMismatchError(
            f"projection in {convention.value} needs a scale-{w} grid, got scale {grid.scale}")
    if grid.order <= N:
        raise GridMismatchError(f"grid order {grid.order} must exceed truncation {N}")
    pts = grid.nodes if grid.dim > 1 else grid.nodes[:, 0]
    vals = np.asarray(f(pts), dtype=complex)
    if vals.shape != (grid.nodes.shape[0],):
        raise ValueError("f must return one value per node")
    # basis = p_alpha * exp(-(w/2)|x|^2): fold the residual Gaussian into the weights
    wg = grid.loaded_weights(0.5 * w)
    P = basis_table(grid.dim, N, grid.nodes, convention, weightless=True)
    return SpectralVector(grid.dim, N, convention, P @ (wg * vals))


def synthesize(v: SpectralVector, points) -> np.ndarray:
    """Pointwise sum  Sigma c_alpha basis_alpha(x); complex points continue
    the basis analytically (overflow-guarded)."""
    points = np.asarray(points)
    scalar = points.ndim == 0 or (v.dim > 1 and points.ndim == 1)
    if scalar:
        points = points.reshape(1, -1) if v.dim > 1 else points.reshape(1)
    P = basis_table(v.dim, v.truncation, points, v.convention)
    vals = v.coeffs @ P
    return vals[0] if scalar else vals


@lru_cache(maxsize=None)
def _ladder_maps(n: int, N: int, axis: int):
    """Gather indices and sqrt factors for the coefficient ladder on one axis.

    lower: out[beta] = sqrt(2 beta_j + 2) * c[beta + e_j]
    raise: out[beta] = sqrt(2 beta_j)     * c[beta - e_j]
    """
    j = axis - 1
    pos = index_position(n, N)
    alpha = index_array(n, N)
    count = alpha.shape[0]
    low_src = np.full(count, -1, dtype=np.int64)
    low_fac = np.zeros(count)
    hi_src = np.full(count, -1, dtype=np.int64)
    hi_fac = np.zeros(count)
    for i in range(count):
        a = alpha[i]
        up = a.copy()
        up[j] += 1
        if up.sum() <= N:
            low_src[i] = pos[tuple(up)]
            low_fac[i] = math.sqrt(2.0 * a[j] + 2.0)
        if a[j] >= 1:
            dn = a.copy()
            dn[j] -= 1
            hi_src[i] = pos[tuple(dn)]
            hi_fac[i] = math.sqrt(2.0 * a[j])
    for arr in (low_src, low_fac, hi_src, hi_fac):
        arr.setflags(write=False)
    return low_src, low_fac, hi_src, hi_fac


def ladder_factor_squared(alpha_j: int, direction: str) -> int:
    """Exact squared ladder factor: 2*alpha_j (lower) or 2*alpha_j+2 (raise).

    These are integers, so composed ladder identities can be checked in exact
    arithmetic independent of the float path.
    """
    if direction == "lower":
        return 2 * alpha_j
    if direction == "raise":
        return 2 * alpha_j + 2
    raise ValueError(f"direction must be 'raise' or 'lower', got {direction!r}")


def ladder(v: SpectralVector, direction: str, axis: int = 1) -> SpectralVector:
    """Coefficient action of the first-order operators d/dx_j + x_j (lower)
    and -d/dx_j + x_j (raise) in the paper-h system; exact in coefficients.

    Raising at the top grade |alpha| = N drops the overflowing coefficients;
    the dropped L^2 mass is recorded in ``truncation_loss`` on the result.
    """
    if not 1 <= axis <= v.dim:
        raise ValueError(f"axis must be in 1..{v.dim}, got {axis}")
    low_src, low_fac, hi_src, hi_fac = _ladder_maps(v.dim, v.truncation, axis)
    c = v.coeffs
    if direction == "lower":
        out = np.where(low_src >= 0, low_fac * c[low_src], 0.0 + 0.0j)
        return v.with_coeffs(out)
    if direction == "raise":
        out = np.where(hi_src >= 0, hi_fac * c[hi_src], 0.0 + 0.0j)
        # mass that would have landed above the cutoff
        top = np.array([idx.order == v.truncation for idx in v.indices])
        j = axis - 1
        alpha = index_array(v.dim, v.truncation)
        dropped = np.abs(c[top]) ** 2 * (2.0 * alpha[top, j] + 2.0)
        return v.with_coeffs(out, loss=float(np.sqrt(dropped.sum())))
    raise ValueError(f"direction must be 'raise' or 'lower', got {direction!r}")


def convert_convention(v: SpectralVector, target: Convention) -> SpectralVector:
    """Retag a vector between the two real-line Hermite systems.

    Both systems are orthonormal with identical index labels, so this is the
    identity on coefficients; synthesized pointwise values change because the
    basis functions differ (hh_k(x) = 2^{1/4} h_k(sqrt(2) x) per axis).
    """
    if target is Convention.FOCK or v.convention is Convention.FOCK:
        raise ValueError("use the Fock-side transform for fock retagging")
    return replace(v, convention=target)


def random_vector(n: int, N: int, convention: Convention, seed: int,
                  band: int | None = None, normalize: bool = True) -> SpectralVector:
    """Deterministic complex Gaussian coefficients; ``band`` keeps only
    |alpha| <= band (band-limited test vectors)."""
    rng = np.random.default_rng(seed)
    count = index_count(n, N)
    c = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    if band is not None:
        orders = index_array(n, N).sum(axis=1)
        c = np.where(orders <= band, c, 0.0)
    if normalize:
        c = c / np.linalg.norm(c)
    return SpectralVector(n, N, convention, c)
