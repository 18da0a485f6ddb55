"""Fourier transform, Gaussian-kernel transform to the Fock side, translation
and Weyl operators on truncated bases, plus their commutation identities.

Conventions (all on R^n, coefficient layout is the graded enumeration):

    Fourier      F f(x) = pi^{-n/2} Int e^{-2i x.y} f(y) dy
    Fock map     B f(z) = (2/pi)^{n/4} Int f(y) e^{2 y.z - y^2 - z^2/2} dy
    Weyl         W_a f(z) = f(z - a) e^{-|a|^2/2 + z.conj(a)}

The bargmann-h system diagonalizes F with phases (-i)^|alpha| and is mapped
by B onto the monomials e_alpha, so B is the identity on coefficients between
the bargmann-h and fock tags.  Matrix identity checks compare on the interior
block |alpha| <= N/2: finite sections of non-diagonal operators are faithful
only away from the truncation edge.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.special import eval_genlaguerre, gammaln, xlogy

from .errors import AccuracyWarning, GridMismatchError
from .hermite import (
    Convention,
    QuadratureGrid,
    SpectralVector,
    basis_table,
    gauss_hermite,
    index_array,
    index_count,
    ladder,
)

__all__ = [
    "OperatorMatrix",
    "interior_count",
    "interior_block",
    "interior_frobenius",
    "fourier",
    "fourier_quadrature",
    "bargmann_quadrature",
    "translation_matrix",
    "weyl_matrix",
    "conjugation_check",
    "translation_ladder_check",
    "leibniz_check",
    "fractional_shift_defect",
    "ladder_seminorm",
]

@dataclass(frozen=True)
class OperatorMatrix:
    """Dense matrix of an operator in the truncated graded basis.

    Column beta holds the coefficients of the image of basis_beta.  The
    smoothness tags record which weighted norms the matrix is meant to act
    between.  Finite sections of unitaries have their defect measured on the
    interior block.
    """

    truncation: int
    dim: int
    entries: np.ndarray
    convention: Convention
    s_domain: float = 0.0
    s_codomain: float = 0.0

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.complex128)
        count = index_count(self.dim, self.truncation)
        if e.shape != (count, count):
            raise ValueError(f"entries must be {count}x{count}, got {e.shape}")
        e = e.copy()
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    def apply(self, v: SpectralVector) -> SpectralVector:
        if (v.dim, v.truncation) != (self.dim, self.truncation):
            raise ValueError("vector and matrix truncations differ")
        return v.with_coeffs(self.entries @ v.coeffs)

    def unitarity_defect(self) -> float:
        g = self.entries.conj().T @ self.entries
        d = g - np.eye(g.shape[0])
        return float(np.linalg.norm(interior_block(d, self.dim, self.truncation)))


def interior_count(n: int, N: int) -> int:
    return index_count(n, N // 2)


def interior_block(A: np.ndarray, n: int, N: int) -> np.ndarray:
    m = interior_count(n, N)
    return A[:m, :m]


def interior_frobenius(A: np.ndarray, B: np.ndarray, n: int, N: int) -> float:
    return float(np.linalg.norm(interior_block(A - B, n, N)))


@lru_cache(maxsize=None)
def _fourier_phases(n: int, N: int) -> np.ndarray:
    k = index_array(n, N).sum(axis=1)
    ph = (-1j) ** k
    ph.setflags(write=False)
    return ph


def fourier(v: SpectralVector) -> SpectralVector:
    """Spectral Fourier transform: c_alpha -> (-i)^|alpha| c_alpha.

    Valid for bargmann-h and fock tags, whose basis elements are the
    eigenfunctions of this normalization; the paper-h functions are not.
    """
    if v.convention is Convention.PAPER_H:
        raise ValueError("the diagonal Fourier form holds in the bargmann-h/fock systems; "
                         "convert the vector first")
    return v.with_coeffs(v.coeffs * _fourier_phases(v.dim, v.truncation))


def fourier_quadrature(f, x, grid: QuadratureGrid) -> np.ndarray:
    """Direct kernel quadrature  pi^{-n/2} Sigma W~ e^{-2i x.y} f(y).

    ``grid`` must be a scale-1 rule; its order bounds the resolvable
    oscillation, so keep max|x| well inside sqrt(order) (a rule of order
    >= 2.5x the order whose nodes supply the x samples is ample).
    """
    if grid.scale != 1.0:
        raise GridMismatchError("fourier quadrature needs a scale-1 grid")
    x = np.asarray(x, dtype=float)
    single = x.ndim == 0 or (grid.dim > 1 and x.ndim == 1)
    if single:
        x = x.reshape(1, -1) if grid.dim > 1 else x.reshape(1)
    xm = x.reshape(len(x), -1)
    W = grid.loaded_weights(1.0)
    pts = grid.nodes if grid.dim > 1 else grid.nodes[:, 0]
    vals = np.asarray(f(pts), dtype=complex)
    ker = np.exp(-2j * (xm @ grid.nodes.T))
    out = math.pi ** (-grid.dim / 2) * (ker @ (W * vals))
    return out[0] if single else out


def bargmann_quadrature(f, z, grid2: QuadratureGrid) -> np.ndarray:
    """Kernel quadrature (2/pi)^{n/4} Sigma_y W e^{2 z.y - z.z/2} f(y) of the
    Fock map at complex points z (tensorized).

    ``grid2`` is a scale-2 rule of dimension n; ``z`` is a scalar/array for
    n = 1 or (m, n) for n > 1, and ``f`` gets the nodes as (Q,) for n = 1 or
    (Q, n) for n > 1.  For basis inputs the integrand is polynomial times an
    entire kernel, so convergence is superexponential.
    """
    if grid2.scale != 2.0:
        raise GridMismatchError("the Fock-map quadrature needs a scale-2 grid")
    n = grid2.dim
    z = np.asarray(z, dtype=complex)
    shape = z.shape if n == 1 else z.shape[:-1]
    zm = z.reshape(-1, n)
    y = grid2.nodes
    W = grid2.loaded_weights(1.0)  # w2 * e^{|y|^2}: the integrand keeps e^{-|y|^2} decay
    ker = np.exp(2.0 * (zm @ y.T) - 0.5 * np.sum(zm * zm, axis=1)[:, None])
    vals = np.asarray(f(y if n > 1 else y[:, 0]), dtype=complex)
    out = (2.0 / math.pi) ** (n / 4) * (ker @ (W * vals))
    return out.reshape(shape)[()]  # 0-d -> scalar


def _translation_axis(a: float, N: int, convention: Convention) -> np.ndarray:
    w = convention.weight_exponent
    g = gauss_hermite(N + 16, float(w), 1)
    x = g.nodes[:, 0]
    Pa = basis_table(1, N, x, convention, weightless=True)
    Pb = basis_table(1, N, x - a, convention, weightless=True)
    # b_beta(x-a) b_alpha(x) = p_beta(x-a) p_alpha(x) exp(-w x^2 + w a x - w a^2/2)
    wt = g.weights * np.exp(w * a * x - 0.5 * w * a * a)
    return (Pa * wt) @ Pb.T


def translation_matrix(a, N: int,
                       convention: Convention = Convention.BARGMANN_H) -> OperatorMatrix:
    """Matrix <tau_a basis_beta, basis_alpha> of translation by a in R^n.

    Built by one-dimensional quadrature per axis (translation factorizes)
    of order N + 16.  Warns when the interior unitarity defect exceeds 1e-4
    (truncation too small for this |a|).
    """
    if convention is Convention.FOCK:
        raise ValueError("translation acts on the real-line systems")
    av = np.atleast_1d(np.asarray(a, dtype=float))
    n = av.size
    ent = _tensor_assemble([_translation_axis(float(x), N, convention) for x in av], N)
    M = OperatorMatrix(N, n, ent, convention)
    d = M.unitarity_defect()
    if d > 1e-4:
        warnings.warn(f"translation matrix unitarity defect {d:.2e} at N={N}, "
                      f"|a|={np.linalg.norm(av):.3g}; increase the truncation",
                      AccuracyWarning)
    return M


def _weyl_axis(a: complex, N: int) -> np.ndarray:
    """1D Weyl matrix from the Laguerre closed form (Cahill & Glauber 1969):
    for m >= k,  W[m,k] = sqrt(k!/m!) conj(a)^{m-k} e^{-|a|^2/2} L_k^{(m-k)}(|a|^2),
    and for m < k the mirrored entry with (-a)^{k-m}, sqrt(m!/k!), L_m^{(k-m)}.

    The prefactor's magnitude is formed in log space, so no factorial or
    power over- or underflows; xlogy keeps 0 log 0 = 0, so a = 0 gives the
    exact identity.
    """
    m, k = np.indices((N + 1, N + 1))
    lo, d = np.minimum(m, k), np.abs(m - k)
    r = abs(a)
    logmag = 0.5 * (gammaln(lo + 1) - gammaln(np.maximum(m, k) + 1)) + xlogy(d, r) - 0.5 * r * r
    phase = np.exp(1j * d * np.where(m >= k, -np.angle(a), np.angle(-a)))
    return np.exp(logmag) * phase * eval_genlaguerre(lo, d, r * r)


def _tensor_assemble(axes: list[np.ndarray], N: int) -> np.ndarray:
    """Matrix of the tensor product of 1D axis matrices on the graded basis:
    entry (alpha, beta) is the product over axes j of axes[j][alpha_j, beta_j]."""
    alpha = index_array(len(axes), N)
    return math.prod(A[np.ix_(alpha[:, j], alpha[:, j])] for j, A in enumerate(axes))


def weyl_matrix(a, N: int) -> OperatorMatrix:
    """Matrix of f -> f(z-a) e^{-|a|^2/2 + z.conj(a)} in the monomial basis,
    computed analytically per axis from the Laguerre closed form with a
    log-space prefactor (no quadrature)."""
    av = np.atleast_1d(np.asarray(a, dtype=complex))
    ent = _tensor_assemble([_weyl_axis(complex(x), N) for x in av], N)
    return OperatorMatrix(N, av.size, ent, Convention.FOCK)


def conjugation_check(a, N: int) -> float:
    """Interior Frobenius defect between the translation matrix (real-line
    quadrature, bargmann-h) and the Weyl matrix (analytic, Fock side).

    The two are finite sections of the same operator under the coefficient-
    identity Fock map, so the defect measures quadrature error only.
    """
    av = np.atleast_1d(np.asarray(a, dtype=float))
    T = translation_matrix(av, N, Convention.BARGMANN_H)
    W = weyl_matrix(av.astype(complex), N)
    return interior_frobenius(T.entries, W.entries, T.dim, N)


def translation_ladder_check(a, axis: int, v: SpectralVector) -> float:
    """Defect of the first-order commutation  (d/dx_j + x_j) tau_a
    = tau_a [ (d/dx_j + x_j) + a_j ]  on the interior coefficients.

    Stated for the paper-h system, whose ladder has the clean shift constant
    a_j; vectors are retagged accordingly.
    """
    av = np.atleast_1d(np.asarray(a, dtype=float))
    if v.convention is not Convention.PAPER_H:
        v = replace(v, convention=Convention.PAPER_H)
    T = translation_matrix(av, v.truncation, Convention.PAPER_H)
    lhs = ladder(v.with_coeffs(T.entries @ v.coeffs), "lower", axis)
    inner = ladder(v, "lower", axis).coeffs + av[axis - 1] * v.coeffs
    rhs = T.entries @ inner
    m = interior_count(v.dim, v.truncation)
    return float(np.linalg.norm(lhs.coeffs[:m] - rhs[:m]))


def leibniz_check(f: SpectralVector, g: SpectralVector, axis: int = 1,
                  projection_truncation: int | None = None) -> tuple[float, float]:
    """(defect, top_grade_defect) of the product rule
    H_j(fg) = (H_j f) g + f (H_j g) - x_j f g  with H_j = d/dx_j + x_j,
    products formed pointwise and re-projected.

    Both routes are compared on coefficient orders <= T-1 where T is the
    projection truncation (default 2N): lowering a T-truncated expansion is
    only faithful below the top grade, whose mismatch is returned separately
    as the top-grade defect (it decays as T grows).
    """
    if f.convention is not Convention.PAPER_H:
        f = replace(f, convention=Convention.PAPER_H)
    if g.convention is not Convention.PAPER_H:
        g = replace(g, convention=Convention.PAPER_H)
    if f.dim != g.dim:
        raise ValueError("factors live on different dimensions")
    n = f.dim
    N = max(f.truncation, g.truncation)
    T = projection_truncation or 2 * N
    grid = gauss_hermite(T + 32, 1.0, n)
    from .hermite import project, synthesize

    def proj(fun):
        return project(fun, T, grid, Convention.PAPER_H)

    def xs(pts):
        return pts if n == 1 else pts[:, axis - 1]

    fg = proj(lambda x: synthesize(f, x) * synthesize(g, x))
    lhs = ladder(fg, "lower", axis).coeffs
    Hf = ladder(f, "lower", axis)
    Hg = ladder(g, "lower", axis)
    rhs = (proj(lambda x: synthesize(Hf, x) * synthesize(g, x)).coeffs
           + proj(lambda x: synthesize(f, x) * synthesize(Hg, x)).coeffs
           - proj(lambda x: xs(x) * synthesize(f, x) * synthesize(g, x)).coeffs)
    orders = index_array(n, T).sum(axis=1)
    inner = orders <= T - 1
    return (float(np.linalg.norm((lhs - rhs)[inner])),
            float(np.linalg.norm((lhs - rhs)[~inner])))


def fractional_shift_defect(v: SpectralVector, sigma: float, axis: int = 1,
                            direction: str = "lower") -> float:
    """Coefficient-level spot check of the shift calculus: applying the
    ladder then the fractional weight lambda^sigma equals applying the
    (lambda +- 2)^sigma weight then the ladder (+2 lowering, -2 raising)."""
    from .spaces import eigenvalues

    lam = eigenvalues(v.dim, v.truncation)
    lhs = ladder(v.with_coeffs(v.coeffs * lam ** sigma), direction, axis)
    shift = 2.0 if direction == "lower" else -2.0
    after = ladder(v, direction, axis)
    shifted = lam + shift
    weight = np.where(shifted > 0, shifted, 1.0) ** sigma
    # where lam+shift <= 0 the ladder output is structurally zero (no source)
    rhs = after.coeffs * np.where(shifted > 0, weight, 0.0)
    return float(np.abs(lhs.coeffs - rhs).max())


def ladder_seminorm(v: SpectralVector, k: int) -> float:
    """Sigma over all signed ladder words of length <= k of ||word(v)||_2,
    plus ||v||_2: the first-order characterization of integer smoothness."""
    if k < 1:
        raise ValueError("need k >= 1")
    total = v.norm()
    words: list[SpectralVector] = [v]
    for _ in range(k):
        nxt: list[SpectralVector] = []
        for w in words:
            for axis in range(1, v.dim + 1):
                for direction in ("lower", "raise"):
                    u = ladder(w, direction, axis)
                    total += u.norm()
                    nxt.append(u)
        words = nxt
    return total
