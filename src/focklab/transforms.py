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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AccuracyWarning, GridMismatchError
from .hermite import (
    Convention,
    QuadratureGrid,
    SpectralVector,
    _graded_product,
    _point_rows,
    basis_table,
    gauss_hermite,
    index_array,
    index_count,
    ladder,
    project,
    synthesize,
)
from .spaces import eigenvalues

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
        """Frobenius norm of the interior block of M^H M - I, formed from
        the interior columns alone."""
        cols = self.entries[:, :interior_count(self.dim, self.truncation)]
        d = cols.conj().T @ cols
        return float(np.linalg.norm(d - np.eye(d.shape[0])))


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
    xm, single = _point_rows(np.asarray(x, dtype=float), grid.dim)
    pts = grid.nodes if grid.dim > 1 else grid.nodes[:, 0]
    vals = np.asarray(f(pts), dtype=complex)
    ker = np.exp(-2j * (xm @ grid.nodes.T))
    out = math.pi ** (-grid.dim / 2) * (ker @ (grid.dx_weights * vals))
    return out[0] if single else out


def bargmann_quadrature(f, z, grid2: QuadratureGrid) -> np.ndarray:
    """Kernel quadrature (2/pi)^{n/4} Sigma_y W e^{2 z.y - z.z/2} f(y) of the
    Fock map at complex points z (tensorized).

    ``grid2`` is a scale-2 rule of dimension n; ``z`` is a point set or one
    point (``hermite._point_rows``), and ``f`` gets the nodes as (Q,) for
    n = 1 or (Q, n) for n > 1.  For basis inputs the integrand is polynomial
    times an entire kernel, so convergence is superexponential.
    """
    if grid2.scale != 2.0:
        raise GridMismatchError("the Fock-map quadrature needs a scale-2 grid")
    n = grid2.dim
    zm, single = _point_rows(np.asarray(z, dtype=complex), n)
    y = grid2.nodes
    ker = np.exp(2.0 * (zm @ y.T) - 0.5 * np.sum(zm * zm, axis=1)[:, None]
                 - np.sum(y * y, axis=1))
    vals = np.asarray(f(y if n > 1 else y[:, 0]), dtype=complex)
    out = (2.0 / math.pi) ** (n / 4) * (ker @ (grid2.dx_weights * vals))
    return out[0] if single else out


def _translation_axis(a: float, N: int, convention: Convention) -> np.ndarray:
    g = gauss_hermite(N + 16, float(convention.weight_exponent), 1)
    x = g.nodes[:, 0]
    Pa = basis_table(1, N, x, convention)
    Pb = basis_table(1, N, x - a, convention)
    return (Pa * g.dx_weights) @ Pb.T


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

    With lo = min(m,k), hi = max(m,k), d = |m-k|, L_lo^{(d)} = C(hi, lo) P[lo, d],
    where the table P[j, alpha] = L_j^{(alpha)}(|a|^2) / C(j+alpha, j) is
    filled for all alpha = 0..N at once by the forward three-term recurrence
    in j, carried as increments P[j+1] - P[j] (which keeps small |a| exact
    to rounding).  The rest, sqrt(hi!/lo!) |a|^d e^{-|a|^2/2} / d!, is formed
    in log space from a log-factorial table, so no factorial or power over-
    or underflows; |a|^0 is 1 also at a = 0, which gives the exact identity.
    """
    m, k = np.indices((N + 1, N + 1))
    lo, hi, d = np.minimum(m, k), np.maximum(m, k), np.abs(m - k)
    r = abs(a)
    alpha = np.arange(N + 1.0)
    log_fact = np.array([math.lgamma(i + 1.0) for i in range(N + 1)])
    log_pow = alpha * math.log(r) if r else np.where(alpha == 0, 0.0, -np.inf)  # log r^alpha
    logmag = 0.5 * (log_fact[hi] - log_fact[lo]) - log_fact[d] + log_pow[d] - 0.5 * r * r
    # integer powers of the unit phases conj(a)/|a| (m >= k) and -a/|a|
    # (m < k): for real a they are exactly +-1, where exp(i d angle) leaves
    # sin(d pi) rounding as imaginary parts.  Complex division by r forms
    # 1/r, which overflows for subnormal |a|; scaling a and r by the same
    # power of two first is exact and leaves the quotient's rounding as is
    e = math.frexp(r)[1]
    u = (np.conj(complex(math.ldexp(a.real, -e), math.ldexp(a.imag, -e)))
         / math.ldexp(r, -e) if r else 1.0)
    below = np.cumprod(np.r_[1.0, np.full(N, u, dtype=complex)])
    above = np.cumprod(np.r_[1.0, np.full(N, -np.conj(u), dtype=complex)])
    phase = np.where(m >= k, below[d], above[d])
    P = np.empty((N + 1, N + 1))
    P[0] = 1.0
    step = np.zeros(N + 1)
    for i in range(N):
        step = (i * step - r * r * P[i]) / (i + 1 + alpha)
        P[i + 1] = P[i] + step
    return np.exp(logmag) * phase * P[lo, d]


def _tensor_assemble(axes: list[np.ndarray], N: int) -> np.ndarray:
    """Matrix of the tensor product of 1D axis matrices on the graded basis:
    entry (alpha, beta) is the product over axes j of axes[j][alpha_j, beta_j],
    the graded product of the tables whose column beta is axes[j][:, beta_j]."""
    beta = index_array(len(axes), N)
    return _graded_product([A[:, b] for A, b in zip(axes, beta.T)], N)


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
    a_j; ``ladder`` refuses vectors in the other systems.
    """
    av = np.atleast_1d(np.asarray(a, dtype=float))
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
    products formed pointwise and re-projected.  Both factors must be paper-h.

    Both routes are compared on coefficient orders <= T-1 where T is the
    projection truncation (default 2N): lowering a T-truncated expansion is
    only faithful below the top grade, whose mismatch is returned separately
    as the top-grade defect (it decays as T grows).  ``ladder`` refuses
    factors in the other systems.
    """
    if f.dim != g.dim:
        raise ValueError("factors live on different dimensions")
    n = f.dim
    N = max(f.truncation, g.truncation)
    T = projection_truncation or 2 * N
    grid = gauss_hermite(T + 32, 1.0, n)

    def proj(fun):
        return project(fun, T, grid, Convention.PAPER_H)

    def xs(pts):
        return pts if n == 1 else pts[:, axis - 1]

    Hf = ladder(f, "lower", axis)
    Hg = ladder(g, "lower", axis)
    fg = proj(lambda x: synthesize(f, x) * synthesize(g, x))
    lhs = ladder(fg, "lower", axis).coeffs
    rhs = (proj(lambda x: synthesize(Hf, x) * synthesize(g, x)).coeffs
           + proj(lambda x: synthesize(f, x) * synthesize(Hg, x)).coeffs
           - proj(lambda x: xs(x) * synthesize(f, x) * synthesize(g, x)).coeffs)
    m = index_count(n, T - 1)
    return (float(np.linalg.norm((lhs - rhs)[:m])),
            float(np.linalg.norm((lhs - rhs)[m:])))


def fractional_shift_defect(v: SpectralVector, sigma: float, axis: int = 1,
                            direction: str = "lower") -> float:
    """Coefficient-level spot check of the shift calculus: applying the
    ladder then the fractional weight lambda^sigma equals applying the
    (lambda +- 2)^sigma weight then the ladder (+2 lowering, -2 raising)."""
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
