"""The Gaussian-kernel integral operator on the Fock side, the two-way
multiplier <-> symbol transform, operator-norm estimation and the
boundedness probes.

The operator acts by

    (S F)(z) = Int_{C^n} F(w) e^{z.conj(w)} phi(z - conj(w)) dmu(w),
    dmu(w) = pi^{-n} e^{-|w|^2} dw,

with an entire symbol phi.  Bounded symbols of interest arise from bounded
real-line functions m through

    phi(z) = (2/pi)^{n/2} Int m(x) e^{-2(x - iz/2)^2} dx,

and in coefficient space the operator then equals the Fourier-conjugated
multiplication operator: the diagonal Fourier phases wrapped around the
multiplier matrix in the bargmann-h system.  Those two routes share no code
and are compared against each other on interior blocks.

The symbol integral is computed by factoring
e^{-2(x-iz/2)^2} = e^{-2x^2} e^{2ixz} e^{z^2/2}, so m is only ever
evaluated at the real scale-2 nodes; no contour deformation happens in code.
The symbol is then phi(z) = e^{z^2/2} Sigma_q c_q e^{2i t_q z}, and in the
kernel the cross terms cancel:

    e^{z.conj(w)} phi(z - conj(w)) = Sigma_q c_q g_q(z) conj(g_q(w)),
    g_q(z) = e^{z^2/2 + 2i t_q z}.

The quadrature route therefore factors over the complex mesh as
M = L diag(c) L^H with L[alpha, q] = Sigma_z w_z conj(e_alpha(z)) g_q(z).
On the tensor mesh z = x + iy the wave factor e^{2i t_q z} is
e^{2i t_q x} e^{-2 t_q y}, so L is assembled from two per-axis tables and
never from a (mesh x q) one.
L stays a mesh quadrature of Fock monomials against plane waves; its closed
Hermite-function form in t_q would be the conjugated route itself, so the
two routes still share no code.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .errors import (
    AccuracyWarning,
    ConvergenceWarning,
    EvaluationRangeError,
    GridMismatchError,
)
from .hermite import (
    MAX_QUADRATURE_ORDER,
    Convention,
    QuadratureGrid,
    SpectralVector,
    basis_table,
    gauss_hermite,
    index_array,
    synthesize,
)
from .multipliers import MultiplierSpec
from .spaces import eigenvalues
from .transforms import OperatorMatrix

__all__ = [
    "SymbolSpec",
    "symbol_from_multiplier",
    "multiplier_from_symbol",
    "apply_integral_operator",
    "integral_operator_matrix",
    "default_mesh_order",
    "multiplier_matrix",
    "conjugated_multiplier_matrix",
    "operator_norm",
    "GrowthThresholds",
    "GrowthReport",
    "classify_growth",
    "boundedness_probe",
    "classical_sobolev_probe",
]


@dataclass(frozen=True)
class SymbolSpec:
    """The entire symbol phi(z) = e^{z^2/2} Sigma_q c_q e^{2i t_q z} on C of a
    real-line multiplier: ``nodes`` are the real scale-2 quadrature nodes t_q
    and ``node_coeffs`` the weights c_q (both read-only).

    Evaluation warns at points with |Im z| beyond the node range: the
    plane waves e^{2i t.z} then grow faster than the rule's reach and the
    tails are not trustworthy.
    """

    label: str
    nodes: np.ndarray = field(repr=False)
    node_coeffs: np.ndarray = field(repr=False)

    def __call__(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()
        t_max = float(np.abs(self.nodes).max())
        if np.abs(flat.imag).max(initial=0.0) > t_max:
            warnings.warn(
                f"symbol evaluated at |Im z| > node range {t_max:.1f}; "
                "increase the symbol quadrature order", AccuracyWarning)
        waves = np.exp(2j * np.outer(flat, self.nodes))
        out = np.exp(0.5 * flat * flat) * (waves @ self.node_coeffs)
        return out[0] if z.ndim == 0 else out.reshape(z.shape)


def symbol_from_multiplier(m: MultiplierSpec, quad_order: int = 160) -> SymbolSpec:
    """Symbol phi(z) = (2/pi)^{1/2} Int m(x) e^{-2(x-iz/2)^2} dx by scale-2
    quadrature, evaluable anywhere in C."""
    g2 = gauss_hermite(quad_order, 2.0, 1)
    t = g2.nodes[:, 0].copy()
    cq = np.asarray((2.0 / math.pi) ** 0.5 * g2.weights * m(t), dtype=complex)
    t.setflags(write=False)
    cq.setflags(write=False)
    return SymbolSpec(label=f"symbol[{m.label}]", nodes=t, node_coeffs=cq)


def multiplier_from_symbol(sym: SymbolSpec) -> MultiplierSpec:
    """Recover m(x) = C' e^{2x^2} F[ u -> phi(u) e^{-u^2/2} ](x) from the
    real slice of the symbol.

    The slice is a 256-point scale-1/2 Gauss-Hermite rule.  Its nodes beyond
    |u| = 10 are dropped: there the quadrature representation of a
    from-multiplier symbol aliases (errors of size e^{u^2/2} against a true
    tail below e^{-u^2/2} ~ e^-50), while the dropped true contribution is
    negligible.  The symbol's own rule must resolve oscillations up to 20
    (the default orders do).

    The e^{2x^2} factor amplifies the remaining quadrature noise, taken as
    1e-13; an amplification warning reports the validated |x| range (where
    amplified noise stays below 1e-6).
    """
    g = gauss_hermite(256, 0.5, 1)
    keep = np.abs(g.nodes[:, 0]) <= 10.0
    u = g.nodes[keep, 0]
    wts = g.weights[keep]
    phi_u = sym(u)
    # C' fixed by the calibration constant->constant: the inverse transform of
    # the unit symbol must reproduce the unit multiplier at x = 0
    cprime = 1.0 / (math.pi ** -0.5 * float(np.sum(wts)))
    x_valid = math.sqrt(math.log(1e-6 / 1e-13) / 2.0)

    def ev(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim > 1:
            raise ValueError("recovered multipliers are one-dimensional")
        if np.abs(x).max(initial=0.0) > x_valid:
            warnings.warn(
                f"recovered multiplier amplifies quadrature noise beyond |x| <= "
                f"{x_valid:.2f}; values outside that range are unreliable",
                AccuracyWarning)
        ker = np.exp(-2j * np.outer(x, u))
        return cprime * np.exp(2.0 * x * x) * math.pi ** -0.5 * (ker @ (wts * phi_u))

    return MultiplierSpec(f"inverse[{sym.label}]", ev)


def _complex_mesh(grid2n: QuadratureGrid) -> tuple[np.ndarray, np.ndarray]:
    if grid2n.dim != 2:
        raise GridMismatchError("the integral operator mesh is over C (2 real dims)")
    if grid2n.scale != 1.0:
        raise GridMismatchError("the Gaussian measure needs a scale-1 rule")
    return grid2n.complex_nodes()[:, 0], grid2n.weights / math.pi


def apply_integral_operator(sym: SymbolSpec, F, z, grid2n: QuadratureGrid) -> np.ndarray:
    """Literal quadrature of  Int F(w) e^{z.conj(w)} phi(z - conj(w)) dmu(w)
    at one or more points z; F is a fock-tagged vector or a callable.

    Warns when the outermost mesh ring carries a non-negligible share of the
    weighted integrand (the kernel growth is outrunning the Gaussian there).
    """
    w, wts = _complex_mesh(grid2n)
    if isinstance(F, SpectralVector):
        if F.convention is not Convention.FOCK:
            raise ValueError("F must be fock-tagged")
        Fv = synthesize(F, w)
    else:
        Fv = np.asarray(F(w), dtype=complex)
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    wbar = np.conj(w)
    edge = _edge_mask(grid2n)
    out = np.empty(len(zs), dtype=complex)
    for i, zp in enumerate(zs):
        terms = Fv * np.exp(zp * wbar) * sym(zp - wbar) * wts
        tot = np.abs(terms).sum()
        if tot > 0 and np.abs(terms[edge]).sum() > 1e-9 * tot:
            warnings.warn(
                f"kernel growth at z={zp:.3g} is not compensated at the outermost "
                "nodes; enlarge the mesh", AccuracyWarning)
        out[i] = terms.sum()
    return out[0] if np.ndim(z) == 0 else out


def default_mesh_order(N: int) -> int:
    """Mesh order for the direct operator matrix: 16(N-7) clipped to [16, 128].

    Grows with the truncation so coarse runs stay cheap while the reference
    scale N = 12 uses 80 nodes per real axis; the distance to the conjugated
    route then shrinks visibly as N grows.
    """
    return int(np.clip(16 * (N - 7), 16, 128))


def integral_operator_matrix(sym: SymbolSpec, N: int,
                             grid2n: QuadratureGrid | None = None) -> OperatorMatrix:
    """Entries <S e_beta, e_alpha> by quadrature over the complex mesh (the
    same rule integrates the w-side operator and the z-side pairing).

    The kernel separates into the symbol's plane waves, so the double mesh
    sum is M = L diag(c) L^H with L[alpha, q] = Sigma_z F[alpha, z] g_q(z),
    F = conj(E) w_z e^{z^2/2}.  On the tensor mesh z = x + iy the waves
    split as e^{2i t_q z} = e^{2i t_q x} e^{-2 t_q y}, so L is one
    (count*Q x Q) by (Q x q) product over y followed by a weighted sum over
    x, with two Q x q axis tables in place of a Q^2 x q one.  This is the
    quadrature route; it shares nothing with the conjugated multiplier
    construction.

    Raises ``EvaluationRangeError`` when an entry is not finite: the plane
    waves e^{-2 t_q y} outgrow double precision once the mesh reaches far
    beyond the symbol's node range.
    """
    if grid2n is None:
        grid2n = gauss_hermite(default_mesh_order(N), 1.0, 2)
    z, wts = _complex_mesh(grid2n)
    Q, ax, t = grid2n.order, grid2n.axis_nodes, sym.nodes
    E = basis_table(1, N, z, Convention.FOCK)
    # nodes are x-major: row alpha*Q + i of F holds x_i, its columns run over y
    F = (np.conj(E) * (wts * np.exp(0.5 * z * z))).reshape(-1, Q)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        T = (F @ np.exp(-2.0 * np.outer(ax, t))).reshape(-1, Q, t.size)
        L = np.einsum("aiq,iq->aq", T, np.exp(2j * np.outer(ax, t)))
        ent = (L * sym.node_coeffs) @ L.conj().T
    if not np.isfinite(ent).all():
        raise EvaluationRangeError(
            f"operator matrix has non-finite entries at mesh order Q={Q} with symbol "
            f"order {t.size}; lower the mesh order or the symbol order")
    return OperatorMatrix(N, 1, ent, Convention.FOCK)


def multiplier_matrix(m: MultiplierSpec, N: int,
                      grid: QuadratureGrid | None = None) -> OperatorMatrix:
    """Entries Int m(x) hh_beta(x) hh_alpha(x) dx in the bargmann-h system
    (products carry e^{-2x^2}, so a scale-2 rule of order >= 2N applies)."""
    if grid is None:
        grid = gauss_hermite(2 * N + 16, 2.0, 1)
    if grid.scale != 2.0:
        raise GridMismatchError("multiplier matrices need a scale-2 grid")
    if grid.order < 2 * N:
        raise GridMismatchError(f"grid order {grid.order} < 2N = {2 * N}")
    n = grid.dim
    pts = grid.nodes if n > 1 else grid.nodes[:, 0]
    P = basis_table(n, N, grid.nodes, Convention.BARGMANN_H, weightless=True)
    vals = m(pts)
    ent = (P * (grid.weights * vals)) @ P.T
    return OperatorMatrix(N, n, ent, Convention.BARGMANN_H)


def conjugated_multiplier_matrix(m: MultiplierSpec, N: int,
                                 grid: QuadratureGrid | None = None) -> OperatorMatrix:
    """Fock-side matrix of the Fourier-conjugated multiplication operator:
    the diagonal phases i^|alpha| ... (-i)^|beta| around the multiplier
    matrix, which is the coefficient form of wrapping the multiplier in the
    inverse/forward transforms and moving to the monomial basis."""
    Mm = multiplier_matrix(m, N, grid)
    k = index_array(Mm.dim, N).sum(axis=1)
    u = (-1j) ** k
    ent = np.conj(u)[:, None] * Mm.entries * u[None, :]
    return OperatorMatrix(N, Mm.dim, ent, Convention.FOCK)


def operator_norm(A: OperatorMatrix, s: float = 0.0, max_iter: int = 10_000) -> float:
    """Largest singular value of D^{s/2} A D^{-s/2}, D = diag(2|alpha|+n),
    by power iteration on the Gram matrix with a deterministic seeded start,
    to a relative Rayleigh-quotient step of 1e-10.

    Non-convergence is reported as a warning carrying the Rayleigh bracket.
    """
    lam = eigenvalues(A.dim, A.truncation)
    d = lam ** (s / 2.0)
    B = (d[:, None] * A.entries) / d[None, :]
    G = B.conj().T @ B
    rng = np.random.default_rng(1234)
    v = rng.standard_normal(G.shape[0]) + 1j * rng.standard_normal(G.shape[0])
    v /= np.linalg.norm(v)
    prev = 0.0
    for _ in range(max_iter):
        y = G @ v
        ray = float(np.real(np.vdot(v, y)))
        ny = np.linalg.norm(y)
        if ny == 0.0:
            return 0.0
        v = y / ny
        if abs(ray - prev) <= 1e-10 * max(1.0, abs(ray)):
            return math.sqrt(max(ray, 0.0))
        prev = ray
    hi = math.sqrt(float(np.linalg.norm(G, ord=np.inf)))
    warnings.warn(
        f"power iteration did not reach tol=1e-10 in {max_iter} iterations; "
        f"Rayleigh bracket [{math.sqrt(max(prev, 0.0)):.6e}, {hi:.6e}]",
        ConvergenceWarning)
    return math.sqrt(max(prev, 0.0))


@dataclass(frozen=True)
class GrowthThresholds:
    """Classification thresholds measured by the calibration run, never invented:
    growing when last/first > G, stable when max/min < S."""

    G: float
    S: float


@dataclass(frozen=True)
class GrowthReport:
    multiplier: str
    side: str
    s: float
    N_list: tuple[int, ...]
    values: tuple[float, ...]
    last_first: float
    max_min: float
    classification: str

    def as_dict(self) -> dict:
        return {
            "multiplier": self.multiplier, "side": self.side, "s": self.s,
            "N_list": list(self.N_list), "values": list(self.values),
            "last_first": self.last_first, "max_min": self.max_min,
            "classification": self.classification,
        }


def _growth_ratios(values: Sequence[float]) -> tuple[float, float]:
    """(last/first, max/min) of a norm sequence; an identically zero
    sequence is constant, so both ratios are 1."""
    vals = list(values)
    if not any(vals):
        return 1.0, 1.0
    return vals[-1] / vals[0], max(vals) / min(vals)


def classify_growth(values: Sequence[float], thresholds: GrowthThresholds) -> str:
    last_first, max_min = _growth_ratios(values)
    if max_min < thresholds.S:
        return "stable"
    if last_first > thresholds.G:
        return "growing"
    return "inconclusive"


# multiplier_matrix's default rule has order 2N + 16, and the rules stop there
_MAX_PROBE_N = (MAX_QUADRATURE_ORDER - 16) // 2


def _truncation_ladder(N_list: Sequence[int]) -> tuple[int, ...]:
    """The probes' truncation list as a tuple; ValueError unless it has at
    least two entries, increases strictly and stays within 4 <= N <= 248."""
    N_list = tuple(N_list)
    if len(N_list) < 2:
        raise ValueError(f"a probe needs at least two truncations to measure growth, "
                         f"got {list(N_list)}")
    if any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise ValueError(f"truncation list must be strictly increasing, got {list(N_list)}")
    if N_list[0] < 4 or N_list[-1] > _MAX_PROBE_N:
        raise ValueError(f"truncations must lie in 4..{_MAX_PROBE_N}, got {list(N_list)}")
    return N_list


def boundedness_probe(m: MultiplierSpec, s: float, N_list: Sequence[int],
                      thresholds: GrowthThresholds) -> GrowthReport:
    """Weighted operator norms of the conjugated multiplier matrix over an
    increasing truncation list, classified by the calibrated ratio rule.

    The classification is heuristic evidence about multiplier membership,
    not a proof; the norm sequences themselves are the primary output.
    """
    N_list = _truncation_ladder(N_list)
    vals = tuple(operator_norm(conjugated_multiplier_matrix(m, N), s)
                 for N in N_list)
    return GrowthReport(m.label, "hermite", s, N_list, vals,
                        *_growth_ratios(vals), classify_growth(vals, thresholds))


def _classical_operator(m: MultiplierSpec, s: float, N: int) -> LinearOperator:
    """Multiplication by m on a periodized classical Sobolev grid, as the
    matrix-free operator B = D F diag(m(x)) F^-1 D^-1 on Fourier coefficients
    (adjoint included), with unitary FFTs F.

    Box half-width sqrt(2N+1)+1 (the spectral support scale of the matching
    truncation), 32*N samples, Fourier weights D = (1+|xi|^2)^{s/2}
    with xi = pi k / (2L) matching the e^{-2ixy} pairing.  Warns when more
    than 5% of the sampled spectrum's mass sits in the top frequency decile
    (box-seam leakage alone stays well below that).
    """
    L = math.sqrt(2.0 * N + 1.0) + 1.0
    P = 32 * N
    x = -L + 2.0 * L * np.arange(P) / P
    mv = m(x)
    spec = np.abs(np.fft.fft(mv))
    k = np.abs(np.fft.fftfreq(P, d=1.0 / P))
    top = float(spec[k >= 0.9 * (P / 2)].sum() / max(spec.sum(), 1e-300))
    if top > 0.05:
        warnings.warn(
            f"multiplier {m.label} carries {top:.1%} of its sampled spectrum near "
            "the grid Nyquist limit; classical-side norms may alias", AccuracyWarning)
    k = np.fft.fftfreq(P, d=1.0 / P)
    xi = math.pi * np.abs(k) / (2.0 * L)
    D = (1.0 + xi ** 2) ** (s / 2.0)

    # LinearOperator hands matvecs (P,) or (P, 1) vectors
    def B(v):
        v = np.ravel(v)
        return D * np.fft.fft(mv * np.fft.ifft(v / D, norm="ortho"), norm="ortho")

    def BH(v):
        v = np.ravel(v)
        return np.fft.fft(np.conj(mv) * np.fft.ifft(D * v, norm="ortho"),
                          norm="ortho") / D

    return LinearOperator((P, P), matvec=B, rmatvec=BH, dtype=complex)


def _classical_norm(m: MultiplierSpec, s: float, N: int, max_iter: int = 2000) -> float:
    """Largest singular value of the periodized classical Sobolev multiplication
    operator B (see ``_classical_operator``), as the square root of the top
    eigenvalue of the Gram operator B^H B.

    The eigenvalue comes from implicitly restarted Lanczos (ARPACK through
    ``eigsh``, relative residual tol 1e-12) on the matrix-free Gram operator,
    from a complex start vector with a fixed seed so that reports are
    byte-deterministic.  ARPACK restarts at most ``max_iter`` times; on these
    operators a restart costs about 10 Gram products, so the default caps
    the work near 20,000 products.  When ARPACK does not
    converge, a ConvergenceWarning is raised and a lower bound is returned:
    the largest converged Ritz value, or else the Rayleigh quotient of the
    start vector.
    """
    B = _classical_operator(m, s, N)
    G = B.H @ B
    rng = np.random.default_rng(1234)
    v0 = rng.standard_normal(G.shape[0]) + 1j * rng.standard_normal(G.shape[0])
    v0 /= np.linalg.norm(v0)
    ray = float(np.real(np.vdot(v0, G @ v0)))
    if ray == 0.0:  # m vanishes on the grid; ARPACK rejects a null start
        return 0.0
    try:
        lam = float(eigsh(G, k=1, which="LA", tol=1e-12, maxiter=max_iter, v0=v0,
                          return_eigenvectors=False)[0])
    except ArpackNoConvergence as exc:
        ritz = np.real(exc.eigenvalues)
        lam = float(ritz.max()) if ritz.size else ray
        warnings.warn(f"classical-side Lanczos did not converge within {max_iter} restarts "
                      f"at N={N}; returning the lower bound {math.sqrt(max(lam, 0.0)):.6e}",
                      ConvergenceWarning)
    return math.sqrt(max(lam, 0.0))


def classical_sobolev_probe(m: MultiplierSpec, s: float, N_list: Sequence[int],
                            thresholds: GrowthThresholds) -> GrowthReport:
    """Contrast probe: the same multiplication operator measured against the
    flat Fourier weights (1+|xi|^2)^{s/2} on a periodized box (1D only).  Each
    norm is the top singular value of the matrix-free operator, from Lanczos
    on its Gram operator (``_classical_norm``).

    The statement is about the periodized operator: a multiplier that is not
    box-periodic acquires a seam jump at +-L and can grow here even when its
    real-line counterpart is bounded (modulations, say).  The registry
    entries the contrast is designed for (constant, bump, chirp43) are
    seam-continuous, so their growth reflects real-line behaviour.
    """
    N_list = _truncation_ladder(N_list)
    vals = tuple(_classical_norm(m, s, N) for N in N_list)
    return GrowthReport(m.label, "classical", s, N_list, vals,
                        *_growth_ratios(vals), classify_growth(vals, thresholds))


def _edge_mask(grid2n: QuadratureGrid) -> np.ndarray:
    Q = grid2n.order
    idx = np.arange(grid2n.nodes.shape[0])
    i0 = idx // Q
    i1 = idx % Q
    return (i0 == 0) | (i0 == Q - 1) | (i1 == 0) | (i1 == Q - 1)
