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

import dataclasses
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    _cartesian,
    basis_table,
    gauss_hermite,
    synthesize,
)
from .multipliers import MultiplierSpec
from .spaces import eigenvalues
from .transforms import OperatorMatrix, _fourier_phases

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

    def _check_node_range(self, im_max: float) -> None:
        """Warn when evaluation reaches |Im z| = ``im_max`` beyond the node range."""
        t_max = float(np.abs(self.nodes).max())
        if im_max > t_max:
            warnings.warn(
                f"symbol evaluated at |Im z| > node range {t_max:.1f}; "
                "increase the symbol quadrature order", AccuracyWarning)

    def __call__(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()
        self._check_node_range(np.abs(flat.imag).max(initial=0.0))
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
    at one or more points z; F is a fock-tagged vector.

    The sum runs over every mesh node.  On the x-major tensor mesh
    w = x + iy the argument is z - conj(w) = (z - x) + iy, so the symbol's
    plane waves split as e^{2i t_q z} e^{-2i t_q x} e^{-2 t_q y}: phi at all
    Q^2 nodes is one (Q x q) diag(c_q e^{2i t_q z}) (q x Q) product of two
    axis tables built once per call, never a (mesh x q) table per point.

    Warns when the outermost mesh ring carries a non-negligible share of the
    weighted integrand (the kernel growth is outrunning the Gaussian there),
    and, as the symbol does, when some node puts |Im(z - conj(w))| beyond the
    symbol's node range.  Raises ``EvaluationRangeError`` when phi is not
    finite at some node: the plane waves outgrow double precision once the
    mesh reaches far beyond the symbol's node range.
    """
    if not isinstance(F, SpectralVector) or F.convention is not Convention.FOCK:
        raise ValueError("F must be a fock-tagged vector")
    w, wts = _complex_mesh(grid2n)
    Fv = synthesize(F, w)
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    wbar = np.conj(w)
    edge = _edge_mask(grid2n)
    ax, t = grid2n.axis_nodes, sym.nodes
    # rows x_i of the x-wave table, columns y_j of the y-wave table
    waves_x = np.exp(-2j * np.outer(ax, t))
    with np.errstate(over="ignore"):  # reported below
        waves_y = np.exp(-2.0 * np.outer(t, ax))
    out = np.empty(len(zs), dtype=complex)
    for i, zp in enumerate(zs):
        sym._check_node_range(abs(zp.imag + ax).max())
        u = zp - wbar
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            phi = np.exp(0.5 * u * u) * (
                (waves_x * (sym.node_coeffs * np.exp(2j * t * zp))) @ waves_y).ravel()
        if not np.isfinite(phi).all():
            raise EvaluationRangeError(
                f"symbol is not finite on the mesh of order Q={grid2n.order} at z={zp:.3g} "
                f"with symbol order {t.size}; lower the mesh order or the symbol order")
        terms = Fv * np.exp(zp * wbar) * phi * wts
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


def integral_operator_matrix(sym: SymbolSpec, N: int, grid2n: QuadratureGrid) -> OperatorMatrix:
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


def _binary_scale(x: np.ndarray) -> float:
    """The power of two 2^e with max|x| = f 2^e, 1/2 <= f < 1 (1 for a zero
    or non-finite array), e clipped to [-1022, 1023] so that 2^e and 2^-e
    are finite.  Dividing by it is exact and keeps squared magnitudes clear
    of overflow and underflow."""
    e = math.frexp(float(np.abs(x).max(initial=0.0)))[1]
    return math.ldexp(1.0, min(max(e, -1022), 1023))


def multiplier_matrix(m: MultiplierSpec, N: int) -> OperatorMatrix:
    """Entries Int m(x) hh_beta(x) hh_alpha(x) dx in the bargmann-h system,
    by the scale-2 rule of order 2N + 16 (products carry e^{-2x^2}, so any
    scale-2 rule of order >= 2N applies).

    The samples m(x) enter divided by their power-of-two scale and the
    entries are scaled back (exact), which keeps their products with the
    tiny outer table values clear of underflow when |m| is tiny.  Terms
    below 2^-511 then add at most Q 2^-511 to an entry; they are flushed
    to 0, which keeps the product free of slow subnormal arithmetic."""
    grid = gauss_hermite(2 * N + 16, 2.0, 1)
    x = grid.nodes[:, 0]
    P = basis_table(1, N, grid.nodes, Convention.BARGMANN_H)
    vals = m(x)
    scale = _binary_scale(vals)
    A = P * (grid.dx_weights * (vals / scale))
    A[np.abs(A) < 2.0 ** -511] = 0.0
    ent = A @ P.T
    return OperatorMatrix(N, 1, ent * scale, Convention.BARGMANN_H)


def conjugated_multiplier_matrix(m: MultiplierSpec, N: int) -> OperatorMatrix:
    """Fock-side matrix of the Fourier-conjugated multiplication operator:
    the diagonal phases i^|alpha| ... (-i)^|beta| around the multiplier
    matrix, which is the coefficient form of wrapping the multiplier in the
    inverse/forward transforms and moving to the monomial basis."""
    Mm = multiplier_matrix(m, N)
    u = _fourier_phases(Mm.dim, N)
    ent = np.conj(u)[:, None] * Mm.entries * u[None, :]
    return OperatorMatrix(N, Mm.dim, ent, Convention.FOCK)


def _weighted_section(entries: np.ndarray, base: np.ndarray, s: float,
                      N: int) -> tuple[np.ndarray, float]:
    """(B / scale, scale) for the weighted section B = D A D^-1 with
    D = diag(base^{s/2}), entry by entry A[j, k] (D_j / D_k), and scale its
    power of two (exact), so that B^H B clears overflow and underflow.
    Raises ``EvaluationRangeError`` when B is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        d = base ** (s / 2.0)
        B = entries * (d[:, None] / d[None, :])
    peak = np.abs(B).max()
    if not np.isfinite(peak):
        raise EvaluationRangeError(
            f"the weighted section at s={s:g}, N={N} is not finite in double "
            "precision; lower s or N")
    scale = _binary_scale(peak)
    return B * (1.0 / scale), scale   # 1/scale is a power of two: exact


def _top_singular(B: np.ndarray, steps: int | None = None) -> tuple[float, bool]:
    """(sigma, converged) for the top singular value of B by ``_lanczos_top``
    on B^H B from ``_start_vector``, both probe sides' one norm routine."""
    # in C order, like B: a product with the Fortran-order view B.conj().T
    # rounds differently with the BLAS thread count
    BH = np.conj(B.T, order="C")
    theta, converged = _lanczos_top(lambda u: BH @ (B @ u), _start_vector(B.shape[1]), steps)
    return math.sqrt(max(theta, 0.0)), converged


def operator_norm(A: OperatorMatrix, s: float = 0.0, max_iter: int | None = None) -> float:
    """Largest singular value of B = D^{s/2} A D^{-s/2}, D = diag(2|alpha|+n),
    by ``_top_singular`` on ``_weighted_section``, as on the classical side.

    ``max_iter`` caps the Lanczos steps.  By default the cycle may run to
    the matrix size, where its basis spans the space and the value is exact
    to rounding; a cycle the cap cuts short warns with the bracket
    [sqrt(theta), ||B||_F].
    """
    B, scale = _weighted_section(A.entries, eigenvalues(A.dim, A.truncation), s,
                                 A.truncation)
    norm, converged = _top_singular(B, max_iter)
    if not converged:
        warnings.warn(
            f"Lanczos did not reach its residual 1e-12 in {max_iter} steps; bracket "
            f"[{norm * scale:.6e}, {math.sqrt(np.vdot(B, B).real) * scale:.6e}]",
            ConvergenceWarning)
    return norm * scale


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
        return dataclasses.asdict(self)


def _growth_ratios(values: Sequence[float]) -> tuple[float, float]:
    """(last/first, max/min) of a norm sequence; an identically zero
    sequence is constant, so both ratios are 1."""
    vals = list(values)
    if not any(vals):
        return 1.0, 1.0
    return vals[-1] / vals[0], max(vals) / min(vals)


def classify_growth(values: Sequence[float], threshold: float) -> str:
    """Stable when max/min < ``threshold``, else growing when last/first
    > ``threshold``, else inconclusive; the threshold is the one measured by
    the calibration run, never invented."""
    last_first, max_min = _growth_ratios(values)
    if max_min < threshold:
        return "stable"
    if last_first > threshold:
        return "growing"
    return "inconclusive"


# multiplier_matrix's default rule has order 2N + 16, and the rules stop there
_MAX_PROBE_N = (MAX_QUADRATURE_ORDER - 16) // 2
# the truncations every probe runs unless told otherwise: the CLI default,
# the operators.probes check and the calibration sequences
_PROBE_LADDER = (8, 16, 32, 64)


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
                      threshold: float) -> GrowthReport:
    """Weighted operator norms of the conjugated multiplier matrix over an
    increasing truncation list, classified by the calibrated ratio rule.

    The classification is heuristic evidence about multiplier membership,
    not a proof; the norm sequences themselves are the primary output.
    """
    N_list = _truncation_ladder(N_list)
    vals = tuple(operator_norm(conjugated_multiplier_matrix(m, N), s)
                 for N in N_list)
    return GrowthReport(m.label, "hermite", s, N_list, vals,
                        *_growth_ratios(vals), classify_growth(vals, threshold))


def _classical_samples(m: MultiplierSpec, N: int) -> tuple[np.ndarray, float, float]:
    """(mhat / scale, scale, L): the box Fourier coefficients of m on the
    periodized box [-L, L), L = sqrt(2N+1)+1 (the spectral support scale of
    the matching truncation), divided by their power-of-two scale (exact,
    and clear of overflow and underflow in squared magnitudes).

    mhat(n) = (2L)^-1 Int m(x) e^{-i pi n x / L} dx is sampled by one FFT of
    m at P = 32*N equispaced points x_j = -L + 2L j / P, so
    mhat(n) = (-1)^n fft(m(x_j))[n mod P] / P, stored at index n mod P.  P
    only sets the accuracy of mhat: the classical norm reads mhat at
    |n| <= 2K, far below P/2.

    Warns when more than 5% of the sampled spectrum's mass sits in the top
    frequency decile (box-seam leakage alone stays well below that).
    """
    L = math.sqrt(2.0 * N + 1.0) + 1.0
    P = 32 * N
    x = -L + 2.0 * L * np.arange(P) / P
    mv = m(x)
    scale = _binary_scale(mv)
    spec = np.fft.fft(mv / scale)
    mag = np.abs(spec)
    k = np.abs(np.fft.fftfreq(P, d=1.0 / P))
    top = float(mag[k >= 0.9 * (P / 2)].sum() / max(mag.sum(), 1e-300))
    if top > 0.05:
        warnings.warn(
            f"multiplier {m.label} carries {top:.1%} of its sampled spectrum near "
            "the grid Nyquist limit; classical-side norms may alias", AccuracyWarning)
    spec[1::2] *= -1.0
    return spec / P, scale, L


# Lanczos tests for convergence only after steps 1, 2, 4, 6, 12, every
# multiple of 8 and the last: a 24 x 24 eigh costs about one Gram product at
# N = 64, so the tests thin out as j grows.
_LANCZOS_TESTS = frozenset((1, 2, 4, 6, 12))


def _start_vector(P: int) -> np.ndarray:
    """The fixed Lanczos start (frac(k sqrt2) - 1/2) + i (frac(k sqrt3) - 1/2),
    k = 1..P: two Kronecker sequences, with no zero entry and no seed."""
    k = np.arange(1, P + 1)
    return (np.modf(k * math.sqrt(2.0))[0] - 0.5) + 1j * (np.modf(k * math.sqrt(3.0))[0] - 0.5)


def _lanczos_top(gram: Callable[[np.ndarray], np.ndarray], v: np.ndarray,
                 steps: int | None = None) -> tuple[float, bool]:
    """(theta, converged): the top eigenvalue of the Hermitian positive
    semidefinite operator ``gram`` on C^P, P = ``v.size``, by one Lanczos
    cycle of at most ``steps`` (default P) steps with full
    reorthogonalization from the start vector ``v``.

    The basis is kept conjugated row-wise (Vc) and plain column-wise (VT),
    so that projecting on it and combining it are one row-wise product each;
    both hold min(P, 64) vectors at first and double when the cycle outgrows
    them.  Each step projects by one classical Gram-Schmidt pass, and by a
    second only when the remainder falls below 0.7 times the projection (the
    DGKS test).  The cycle stops when the top Ritz pair (theta, y) of the
    tridiagonal matrix has the residual beta_j |y_last| <= 1e-12 theta
    (ARPACK's test; an exact breakdown beta_j = 0 always passes).  After P
    steps the basis spans C^P, so theta is the top eigenvalue to rounding;
    ``converged`` is False only when ``steps`` < P cut the cycle short.
    """
    P = v.size
    steps = P if steps is None else min(steps, P)
    rows = min(P, 64)
    Vc = np.empty((rows, P), dtype=v.dtype)
    # VT turns every basis combination h @ V into the row-wise product
    # VT @ h: OpenBLAS splits h @ V across threads for some shapes (P = 179
    # among them), so its rounding would follow the thread count
    VT = np.empty((P, rows), dtype=v.dtype)
    alpha, beta = np.empty(steps), np.empty(steps)
    u = v / math.sqrt(np.vdot(v, v).real)
    for j in range(steps):
        np.conj(u, out=Vc[j])
        VT[:, j] = u
        w = gram(u)
        h = Vc[:j + 1] @ w
        w -= VT[:, :j + 1] @ h
        beta_j = math.sqrt(np.vdot(w, w).real)
        if beta_j < 0.7 * math.sqrt(np.vdot(h, h).real):
            h2 = Vc[:j + 1] @ w
            w -= VT[:, :j + 1] @ h2
            h += h2
            beta_j = math.sqrt(np.vdot(w, w).real)
        alpha[j] = h[j].real
        last = j + 1 == steps or beta_j == 0.0
        if last or j + 1 in _LANCZOS_TESTS or (j + 1) % 8 == 0:
            T = np.diag(alpha[:j + 1])
            T.flat[j + 1::j + 2] = beta[:j]   # eigh reads only the lower triangle
            ritz, Y = np.linalg.eigh(T)
            theta = float(ritz[-1])
            if beta_j * abs(Y[-1, -1]) <= 1e-12 * theta or beta_j == 0.0:
                return theta, True
            if last:
                return theta, steps == P
        beta[j] = beta_j
        u = w / beta_j
        if j + 1 == rows:
            rows = min(2 * rows, P)
            Vc = np.concatenate((Vc, np.empty((rows - j - 1, P), dtype=v.dtype)))
            VT = np.concatenate((VT, np.empty((P, rows - j - 1), dtype=v.dtype)), axis=1)


def _classical_norm(m: MultiplierSpec, s: float, N: int) -> float:
    """Largest singular value of the classical Sobolev multiplication
    operator on the box modes with |xi| <= sqrt(2N+1), the Hermite
    truncation's own phase-space radius.

    Those are the modes |k| <= K = floor(2L sqrt(2N+1) / pi) of the box
    [-L, L) of ``_classical_samples``, and the operator is the finite
    Toeplitz section B = D T D^-1, T[j, k] = mhat(j - k), with the Sobolev
    weights D = (1 + xi^2)^{s/2} at |j|, |k| <= K, xi = pi k / (2L)
    matching the e^{-2ixy} pairing.  At s = 0 its norm rises to sup|m| as N
    grows (Boettcher and Silbermann, Introduction to Large Truncated
    Toeplitz Matrices, 1999).  P = 32N only sets the accuracy of mhat.

    The norm comes from ``_top_singular`` on ``_weighted_section``, as on
    the Hermite side: one Lanczos cycle of at most 2K+1 steps.
    """
    mhat, scale, L = _classical_samples(m, N)
    K = int(2.0 * L * math.sqrt(2.0 * N + 1.0) / math.pi)
    # row j of the window view over mhat(-2K..2K) starts at mhat(j - 2K), so
    # reversing its columns gives the Toeplitz section T[j, k] = mhat(j - k)
    T = sliding_window_view(mhat[np.arange(-2 * K, 2 * K + 1) % mhat.size], 2 * K + 1)[:, ::-1]
    xi = math.pi * np.arange(-K, K + 1) / (2.0 * L)
    B, section_scale = _weighted_section(T, 1.0 + xi * xi, s, N)
    return _top_singular(B)[0] * section_scale * scale


def classical_sobolev_probe(m: MultiplierSpec, s: float, N_list: Sequence[int],
                            threshold: float) -> GrowthReport:
    """Contrast probe: the same multiplication operator measured against the
    flat Fourier weights (1+|xi|^2)^{s/2} on a periodized box (1D only).  Each
    norm (``_classical_norm``) is that of the finite Toeplitz section of m on
    the box modes |xi| <= sqrt(2N+1), the Hermite side's phase-space radius,
    at every s; the grid of P = 32N samples only sets the accuracy of the
    Fourier coefficients of m.

    The statement is about the periodized operator: a multiplier that is not
    box-periodic acquires a seam jump at +-L and can grow here even when its
    real-line counterpart is bounded, and the box moves with N, so
    modulations read erratically in N.  The registry entries the contrast is
    designed for (constant, bump, chirp43) are seam-continuous, so their
    growth reflects real-line behaviour.
    """
    N_list = _truncation_ladder(N_list)
    vals = tuple(_classical_norm(m, s, N) for N in N_list)
    return GrowthReport(m.label, "classical", s, N_list, vals,
                        *_growth_ratios(vals), classify_growth(vals, threshold))


def _edge_mask(grid2n: QuadratureGrid) -> np.ndarray:
    """The nodes of the outermost ring: some axis index is 0 or Q - 1."""
    Q = grid2n.order
    idx = _cartesian(np.arange(Q), grid2n.dim)
    return ((idx == 0) | (idx == Q - 1)).any(axis=1)
