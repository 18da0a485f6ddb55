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
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import EvaluationRangeError, FockLabError, GridMismatchError

__all__ = [
    "Convention",
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


@lru_cache(maxsize=None)
def index_array(n: int, N: int) -> np.ndarray:
    """All alpha in N_0^n with |alpha| <= N as an immutable (count, n) int array,
    graded by |alpha|, lexicographic within each grade.

    The enumeration is total, duplicate-free and nondecreasing in |alpha|;
    every truncated object in the package is laid out in this order, so each
    set |alpha| <= k is the prefix of length index_count(n, k).
    """
    if n < 1 or N < 0:
        raise ValueError(f"need n >= 1 and N >= 0, got n={n}, N={N}")
    rows = np.arange(N + 1, dtype=np.int64).reshape(-1, 1)
    for _ in range(n - 1):
        # append one coordinate: each row takes the values 0..N-|row| in turn, so
        # the rows stay lexicographic
        room = N + 1 - rows.sum(axis=1)
        start = np.repeat(np.cumsum(room) - room, room)
        rows = np.column_stack([np.repeat(rows, room, axis=0), np.arange(start.size) - start])
    arr = rows[np.argsort(rows.sum(axis=1), kind="stable")]
    arr.setflags(write=False)
    return arr


def index_count(n: int, N: int) -> int:
    return math.comb(N + n, n)


@lru_cache(maxsize=None)
def index_position(n: int, N: int) -> dict[tuple[int, ...], int]:
    return {tuple(a): i for i, a in enumerate(index_array(n, N).tolist())}


def _position(n: int, N: int, alpha) -> int:
    """Graded position of the multi-index alpha (a bare int when n = 1)."""
    key = (alpha,) if np.ndim(alpha) == 0 else tuple(alpha)
    try:
        return index_position(n, N)[key]
    except (KeyError, TypeError):
        raise FockLabError(
            f"multi-index {alpha!r} is not in the index set for n={n}, N={N}: need "
            f"{n} nonnegative integers with sum <= {N}") from None


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensorized Gauss-Hermite rule for integrals against exp(-scale*|x|^2).

    ``axis_nodes``/``axis_weights`` hold the 1D rule; ``nodes`` (Q^n, n) and
    ``weights`` (Q^n,) the tensorized one.  The 1D rule with Q points is
    exact for polynomials of degree <= 2Q-1 against its weight.
    ``dx_weights`` (Q^n,) are the same nodes' weights against plain dx,
    weights * exp(scale*|x|^2), for integrands that carry their own
    Gaussian (products of basis functions); they are O(1) at every node.
    """

    order: int
    dim: int
    scale: float
    axis_nodes: np.ndarray
    axis_weights: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    dx_weights: np.ndarray

    def complex_nodes(self) -> np.ndarray:
        """Pair up axes of a 2m-dim grid as m complex coordinates."""
        if self.dim % 2:
            raise GridMismatchError("complex pairing needs an even-dimensional grid")
        m = self.dim // 2
        return self.nodes[:, :m] + 1j * self.nodes[:, m:]


def gauss_hermite(order: int, scale: float = 1.0, dim: int = 1) -> QuadratureGrid:
    """Gauss-Hermite rule integrating g against exp(-scale*|x|^2) over R^dim.

    Nodes of the scaled rule are the unit-scale nodes divided by sqrt(scale),
    weights divided by scale^(dim/2).  Orders beyond MAX_QUADRATURE_ORDER are
    rejected; the rule is tested against independent references only up to it.

    Each rule is built once per process and shared: equal (int order,
    float scale, int dim) keys return the same read-only grid.
    """
    if order < 1 or order != int(order):
        raise ValueError(f"order must be an integer >= 1, got {order}")
    if order > MAX_QUADRATURE_ORDER:
        raise ValueError(f"order {order} exceeds the maximum {MAX_QUADRATURE_ORDER}")
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    return _gauss_hermite(int(order), float(scale), int(dim))


@lru_cache(maxsize=None)
def _hermite_rule(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit-scale n-point Gauss-Hermite nodes (ascending), weights against
    e^{-x^2} and weights against dx (Golub-Welsch).

    The rule is symmetric, and the squares of its positive nodes are the
    Gauss-Laguerre nodes for the weight t^alpha e^{-t}, alpha = -1/2 (n = 2m)
    or +1/2 (n = 2m+1, plus the node 0): the eigenvalues of that m x m
    Jacobi matrix.  One pass of the orthonormal Hermite recurrence then gives
    p_{n-2}, p_{n-1}, p_n at each node, for one Newton step (p_n' =
    sqrt(2n) p_{n-1}) and the Christoffel-Darboux weight 1/(n p_{n-1}^2),
    with p_{n-1} moved to first order along the step.  The recurrence is
    rescaled by powers of two as it runs; the weights take the accumulated
    exponent back exactly, so those below the double range underflow to 0.
    The dx weights 1/(n psi_{n-1}^2) = w e^{x^2}, psi the Hermite function,
    take it back in the exponent of e^{x^2}, so none underflows.
    Built once per order and shared by every scale and dim (read-only).
    """
    m, odd = divmod(n, 2)
    alpha = 0.5 if odd else -0.5
    k = np.arange(1.0, m)
    J = np.diag(2.0 * np.arange(m) + alpha + 1.0) + np.diag(np.sqrt(k * (k + alpha)), 1)
    x = np.sqrt(np.linalg.eigvalsh(J, UPLO="U"))
    if odd:
        x = np.concatenate(([0.0], x))
    prev = np.zeros_like(x)
    cur = np.full_like(x, math.pi ** -0.25)
    exp2 = np.zeros(x.shape, dtype=np.int64)  # p_j = cur * 2**exp2
    for j in range(n - 1):
        prev, cur = cur, math.sqrt(2.0 / (j + 1)) * x * cur - math.sqrt(j / (j + 1)) * prev
        # a step grows |p| by at most sqrt(2) x + 1 < 50 for n <= 512, so
        # rescaling every 8 steps stays far inside the double range
        if j % 8 == 7 or j == n - 2:
            _, e = np.frexp(np.maximum(np.abs(prev), np.abs(cur)))
            prev, cur, exp2 = np.ldexp(prev, -e), np.ldexp(cur, -e), exp2 + e
    p_n = math.sqrt(2.0 / n) * x * cur - math.sqrt((n - 1) / n) * prev
    step = -p_n / (math.sqrt(2.0 * n) * cur)
    x = x + step
    p_last = cur + step * math.sqrt(2.0 * (n - 1)) * prev
    cd = 1.0 / (n * p_last * p_last)
    w = np.ldexp(cd, -2 * exp2)
    W = cd * np.exp(x * x - 2.0 * math.log(2.0) * exp2)
    # mirror, keeping a single 0 node for odd n
    x = np.concatenate((-x[odd:][::-1], x))
    w, W = (np.concatenate((a[odd:][::-1], a)) for a in (w, W))
    for a in (x, w, W):
        a.setflags(write=False)
    return x, w, W


def _cartesian(a: np.ndarray, dim: int) -> np.ndarray:
    """Every dim-tuple of entries of ``a`` as a row of the (len(a)^dim, dim)
    array, the last coordinate running fastest: the lattice of every
    tensor-product rule, mesh and cell set in the package."""
    mesh = np.meshgrid(*([a] * dim), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


@lru_cache(maxsize=None)
def _gauss_hermite(order: int, scale: float, dim: int) -> QuadratureGrid:
    x, w, W = _hermite_rule(order)
    rt = math.sqrt(scale)
    ax = x / rt
    aw = w / rt
    nodes = _cartesian(ax, dim)
    weights = np.prod(_cartesian(aw, dim), axis=1)
    dx_weights = np.prod(_cartesian(W / rt, dim), axis=1)
    for a in (ax, aw, nodes, weights, dx_weights):
        a.setflags(write=False)
    return QuadratureGrid(order=order, dim=dim, scale=scale, axis_nodes=ax,
                          axis_weights=aw, nodes=nodes, weights=weights,
                          dx_weights=dx_weights)


def _checked_exp(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z)
    if np.iscomplexobj(z):
        if np.any(z.real > _EXP_LIMIT):
            raise EvaluationRangeError(
                "Gaussian factor overflows: evaluation point outside the safe "
                "envelope (need weight_exponent*(Im x)^2/2 - weight_exponent*(Re x)^2/2 "
                f"<= {_EXP_LIMIT})")
    return np.exp(z)


def hermite_axis_table(N: int, x, convention: Convention) -> np.ndarray:
    """Values of basis functions 0..N on one axis, shape (N+1,) + x.shape.

    The Gaussian enters through the recurrence seed, so every entry carries
    it.  For the fock convention the entries are e_k(x) = x^k / sqrt(k!)
    (no weight).
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


def _point_rows(points, n: int) -> tuple[np.ndarray, bool]:
    """(rows, single): ``points`` as an (npts, n) array, and whether it was one
    point.  A point set is (npts, n), or (npts,) for n = 1; one point is (n,),
    or a scalar for n = 1; any other shape is a ValueError."""
    points = np.asarray(points)
    single = points.shape == ((n,) if n > 1 else ())
    rows = points.reshape(-1, n) if single or (n == 1 and points.ndim == 1) else points
    if rows.ndim != 2 or rows.shape[1] != n:
        raise ValueError(f"points of shape {points.shape} are neither (npts, {n}) nor one "
                         f"point in dimension {n}")
    return rows, single


def basis_table(n: int, N: int, points: np.ndarray, convention: Convention) -> np.ndarray:
    """Values basis_alpha(points) for all |alpha| <= N, shape (count, npts),
    points as ``_point_rows`` reads them (one point is npts = 1)."""
    points = _point_rows(points, n)[0]
    tabs = [hermite_axis_table(N, points[:, j], convention) for j in range(n)]
    if n == 1:  # the graded order is the axis order
        return tabs[0]
    return _graded_product(tabs, N)


def _graded_product(tables: list[np.ndarray], N: int) -> np.ndarray:
    """Row alpha (|alpha| <= N, graded) is the product over axes j of
    tables[j][alpha_j]; ``math.prod`` starts it from the integer 1."""
    return math.prod(t[a] for t, a in zip(tables, index_array(len(tables), N).T))


@dataclass(frozen=True)
class SpectralVector:
    """Truncated coefficient vector {c_alpha : |alpha| <= N} in a tagged basis.

    Coefficients are laid out in the graded enumeration; the L^2 norm is the
    Euclidean norm of ``coeffs``.  Instances are immutable; operations return
    new vectors.
    """

    dim: int
    truncation: int
    convention: Convention
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        expected = index_count(self.dim, self.truncation)
        if c.shape != (expected,):
            raise ValueError(f"need {expected} coefficients for n={self.dim}, "
                             f"N={self.truncation}; got shape {c.shape}")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def __getitem__(self, alpha) -> complex:
        return complex(self.coeffs[_position(self.dim, self.truncation, alpha)])

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def with_coeffs(self, coeffs) -> "SpectralVector":
        return replace(self, coeffs=coeffs)

    @staticmethod
    def unit(n: int, N: int, convention: Convention, alpha) -> "SpectralVector":
        c = np.zeros(index_count(n, N), dtype=complex)
        c[_position(n, N, alpha)] = 1.0
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
    P = basis_table(grid.dim, N, grid.nodes, convention)
    return SpectralVector(grid.dim, N, convention, P @ (grid.dx_weights * vals))


def synthesize(v: SpectralVector, points) -> np.ndarray:
    """Pointwise sum  Sigma c_alpha basis_alpha(x); complex points continue
    the basis analytically (overflow-guarded)."""
    rows, single = _point_rows(points, v.dim)
    vals = v.coeffs @ basis_table(v.dim, v.truncation, rows, v.convention)
    return vals[0] if single else vals


@lru_cache(maxsize=None)
def _ladder_maps(n: int, N: int, axis: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(below, above, fac) for the coefficient ladder on one axis: the
    indices of |beta| < N, of their images beta + e_j and sqrt(2 beta_j + 2):

    lower: out[below] = fac * c[above]    (sqrt(2 beta_j + 2) c[beta + e_j])
    raise: out[above] = fac * c[below]    (sqrt(2 alpha_j) c[alpha - e_j])

    and every other output is 0.  alpha -> alpha + e_j preserves the graded
    order, so the indices with alpha_j >= 1 are, in order, the images of the
    graded prefix |alpha| < N.
    """
    aj = index_array(n, N)[:, axis - 1]
    below = np.arange(index_count(n, N - 1))
    above = np.flatnonzero(aj >= 1)
    fac = np.sqrt(2.0 * aj[above])
    for arr in (below, above, fac):
        arr.setflags(write=False)
    return below, above, fac


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

    Raising at the top grade |alpha| = N drops the overflowing coefficients.
    """
    if v.convention is not Convention.PAPER_H:
        raise ValueError(f"the ladder acts in the paper-h system, got a "
                         f"{v.convention.value} vector")
    if not 1 <= axis <= v.dim:
        raise ValueError(f"axis must be in 1..{v.dim}, got {axis}")
    if direction not in ("lower", "raise"):
        raise ValueError(f"direction must be 'raise' or 'lower', got {direction!r}")
    below, above, fac = _ladder_maps(v.dim, v.truncation, axis)
    dst, src = (below, above) if direction == "lower" else (above, below)
    out = np.zeros_like(v.coeffs)
    out[dst] = fac * v.coeffs[src]
    return v.with_coeffs(out)


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
                  band: int | None = None) -> SpectralVector:
    """Deterministic complex Gaussian coefficients, normalized to unit norm;
    ``band`` keeps only |alpha| <= band (band-limited test vectors)."""
    if band is not None and band < 0:
        raise ValueError(f"band must be >= 0, got {band}")
    rng = np.random.default_rng(seed)
    count = index_count(n, N)
    c = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    if band is not None:
        c[index_count(n, band):] = 0.0
    return SpectralVector(n, N, convention, c / np.linalg.norm(c))
