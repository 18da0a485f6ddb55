import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import LinearOperator, eigsh

from focklab import operators
from focklab.calibration import load_calibration
from focklab.errors import (
    AccuracyWarning,
    ConvergenceWarning,
    EvaluationRangeError,
    GridMismatchError,
)
from focklab.hermite import (
    Convention,
    SpectralVector,
    basis_table,
    gauss_hermite,
    index_count,
    random_vector,
    synthesize,
)
from focklab.multipliers import (
    MultiplierSpec,
    bump,
    chirp43,
    constant,
    modulation,
    parse_multiplier,
    signum,
)
from focklab.operators import (
    _classical_norm,
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
from focklab.spaces import eigenvalues
from focklab.transforms import interior_block, interior_frobenius, weyl_matrix
from focklab.verify import SIGNUM_ENTRY01_BOUND


def project_fock(F, N, grid2n):
    """Reference route onto the monomials: the coefficients <F, e_alpha> of
    an entire function F by Gaussian-measure quadrature over C^n, with
    ``grid2n`` a scale-1 rule of dimension 2n."""
    n = grid2n.dim // 2
    z = grid2n.complex_nodes()
    pts = z if n > 1 else z[:, 0]
    E = basis_table(n, N, pts, Convention.FOCK)
    wts = grid2n.weights / math.pi ** n
    return SpectralVector(n, N, Convention.FOCK, (np.conj(E) * wts) @ np.asarray(F(pts), complex))


def apply_pointwise(sym, F, zs, grid2n):
    """Reference route for ``apply_integral_operator``: the mesh sum of
    F(w) e^{z.conj(w)} phi(z - conj(w)) w / pi with the symbol evaluated
    point by point through ``SymbolSpec.__call__``."""
    w = grid2n.complex_nodes()[:, 0]
    wbar = np.conj(w)
    Fv = synthesize(F, w)
    return np.array([np.sum(Fv * np.exp(z * wbar) * sym(z - wbar) * grid2n.weights / math.pi)
                     for z in zs])


@pytest.fixture(scope="module")
def threshold():
    return load_calibration()


class TestSymbolTransform:
    def test_constant_gives_unit_symbol(self):
        sym = symbol_from_multiplier(constant(1.0))
        zs = np.array([0.0, 1.0 + 0.5j, -2.0 + 1.0j])
        assert np.abs(sym(zs) - 1.0).max() <= 1e-12

    def test_modulation_closed_form(self):
        c = 0.7
        sym = symbol_from_multiplier(modulation(c))
        zs = np.array([0.3, 1.0 - 0.4j, -1.5 + 0.8j])
        assert np.abs(sym(zs) - np.exp(c * zs - c * c / 2)).max() <= 1e-12

    def test_signum_vanishes_at_origin(self):
        sym = symbol_from_multiplier(signum())
        assert abs(sym(0.0)) <= 1e-14

    def test_evaluates_nd_input_elementwise(self):
        sym = symbol_from_multiplier(bump())
        zs = np.array([[0.0, 0.4 - 0.2j, -1.1], [0.7j, 1.5 + 0.3j, -0.2 - 0.9j]])
        got = sym(zs)
        assert got.shape == (2, 3)
        assert np.array_equal(got.ravel(), sym(zs.ravel()))

    def test_gaussian_bump_closed_form(self):
        # completing the square: exp(-x^2) maps to sqrt(2/3) exp(z^2/6)
        sym = symbol_from_multiplier(bump())
        zs = np.array([0.0, 0.8 + 0.6j, -1.2j])
        want = math.sqrt(2 / 3) * np.exp(zs * zs / 6)
        assert np.abs(sym(zs) - want).max() <= 1e-12

    def test_slow_decay_warning(self):
        sym = symbol_from_multiplier(bump(), quad_order=32)
        with pytest.warns(UserWarning, match="node range"):
            sym(0.0 + 9.0j)

    def test_roundtrip_modulation(self):
        m = modulation(0.7)
        rec = multiplier_from_symbol(symbol_from_multiplier(m, quad_order=192))
        xs = np.linspace(-2, 2, 33)
        assert np.abs(rec(xs) - m(xs)).max() <= 1e-6

    def test_roundtrip_constant_calibration_case(self):
        rec = multiplier_from_symbol(symbol_from_multiplier(constant(1.0)))
        xs = np.linspace(-2, 2, 17)
        assert np.abs(rec(xs) - 1.0).max() <= 1e-6

    def test_roundtrip_bump_at_nodes(self):
        m = bump()
        rec = multiplier_from_symbol(symbol_from_multiplier(m, quad_order=192))
        nodes = gauss_hermite(24, 2.0, 1).nodes[:, 0]
        nodes = nodes[np.abs(nodes) <= 2.2]
        assert np.abs(rec(nodes) - m(nodes)).max() <= 1e-5

    def test_amplification_warning(self):
        rec = multiplier_from_symbol(symbol_from_multiplier(constant(1.0)))
        with pytest.warns(UserWarning, match="amplifies"):
            rec(np.array([4.5]))


class TestIntegralOperator:
    def test_unit_symbol_reproduces_point_values(self, grid_c):
        sym = symbol_from_multiplier(constant(1.0))
        v = random_vector(1, 6, Convention.FOCK, 1)
        for z in (0.2 + 0.1j, -0.7, 1.0j):
            got = apply_integral_operator(sym, v, z, grid_c)
            assert abs(got - synthesize(v, z)) <= 1e-8

    def test_linearity(self, grid_c):
        sym = symbol_from_multiplier(bump())
        u = random_vector(1, 6, Convention.FOCK, 2)
        v = random_vector(1, 6, Convention.FOCK, 3)
        s = u.with_coeffs(u.coeffs + 3j * v.coeffs)
        got = apply_integral_operator(sym, s, 0.4, grid_c)
        want = (apply_integral_operator(sym, u, 0.4, grid_c)
                + 3j * apply_integral_operator(sym, v, 0.4, grid_c))
        assert abs(got - want) <= 1e-12

    def test_exponential_symbol_is_weyl_shift(self):
        c = 0.7
        g = gauss_hermite(64, 1.0, 2)
        sym = symbol_from_multiplier(modulation(c))
        v = random_vector(1, 6, Convention.FOCK, 4)
        for z in (0.3, -0.5 + 0.2j):
            got = apply_integral_operator(sym, v, z, g)
            # exact pointwise shift action, free of output truncation
            want = synthesize(v, z - c) * np.exp(-c * c / 2 + z * c)
            assert abs(got - want) <= 1e-8

    @pytest.mark.parametrize("m", [constant(1.0), bump(), modulation(0.7)],
                             ids=lambda m: m.label)
    def test_matches_pointwise_symbol_route(self, m, grid_c):
        sym = symbol_from_multiplier(m)
        v = random_vector(1, 6, Convention.FOCK, 5)
        zs = np.array([0.3 + 0.2j, -0.8j, 1.1, 2 + 1j])
        got = apply_integral_operator(sym, v, zs, grid_c)
        want = apply_pointwise(sym, v, zs, grid_c)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    def test_F_must_be_a_fock_vector(self, grid_c):
        sym = symbol_from_multiplier(constant(1.0))
        v = random_vector(1, 6, Convention.FOCK, 1)
        for F in (lambda w: synthesize(v, w), random_vector(1, 6, Convention.BARGMANN_H, 1)):
            with pytest.raises(ValueError, match="fock-tagged vector"):
                apply_integral_operator(sym, F, 0.3, grid_c)

    def test_non_finite_symbol_raises(self):
        # e^{-2 t y} overflows: mesh nodes reach |y| ~ 19, symbol nodes |t| ~ 22
        sym = symbol_from_multiplier(bump(), quad_order=512)
        v = random_vector(1, 4, Convention.FOCK, 6)
        with pytest.raises(EvaluationRangeError, match="not finite"):
            apply_integral_operator(sym, v, 0.3, gauss_hermite(200, 1.0, 2))

    def test_matrix_unit_symbol_identity(self):
        sym = symbol_from_multiplier(constant(1.0))
        M = integral_operator_matrix(sym, 8, gauss_hermite(48, 1.0, 2))
        assert np.abs(M.entries - np.eye(index_count(1, 8))).max() <= 1e-6

    def test_matrix_needs_complex_mesh(self, grid2):
        sym = symbol_from_multiplier(constant(1.0))
        with pytest.raises(GridMismatchError):
            integral_operator_matrix(sym, 4, grid2)

    def test_matrix_modulation_equals_weyl(self):
        c = 0.7
        sym = symbol_from_multiplier(modulation(c), quad_order=160)
        A = integral_operator_matrix(sym, 10, gauss_hermite(64, 1.0, 2))
        W = weyl_matrix(complex(c), 10)
        assert interior_frobenius(A.entries, W.entries, 1, 10) <= 1e-6

    def test_dual_route_agreement_bump(self):
        N = 10
        Q = default_mesh_order(N)
        sym = symbol_from_multiplier(bump(), quad_order=2 * Q)
        A = integral_operator_matrix(sym, N, gauss_hermite(Q, 1.0, 2))
        B = conjugated_multiplier_matrix(bump(), N)
        assert interior_frobenius(A.entries, B.entries, 1, N) <= 1e-5

    @pytest.mark.parametrize("m", [bump(), modulation(0.7)], ids=lambda m: m.label)
    def test_matrix_matches_literal_quadrature(self, m):
        # the factored matrix against the literal double mesh sum: S e_beta by
        # apply_integral_operator at every node, paired with conj(e_alpha) w
        N, Q = 4, 16
        g = gauss_hermite(Q, 1.0, 2)
        sym = symbol_from_multiplier(m, quad_order=2 * Q)
        A = integral_operator_matrix(sym, N, g)
        z = g.nodes[:, 0] + 1j * g.nodes[:, 1]
        E = basis_table(1, N, z, Convention.FOCK)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AccuracyWarning)
            S = np.stack([apply_integral_operator(sym, SpectralVector(1, N, Convention.FOCK, e),
                                                  z, g)
                          for e in np.eye(N + 1, dtype=complex)], axis=1)
        M = (np.conj(E) * (g.weights / math.pi)) @ S
        assert np.abs(A.entries - M).max() <= 1e-12 * np.abs(M).max()

    def test_dual_route_at_top_mesh_order(self):
        N = 17
        Q = default_mesh_order(N)
        assert Q == 128
        sym = symbol_from_multiplier(bump(), quad_order=2 * Q)
        A = integral_operator_matrix(sym, N, gauss_hermite(Q, 1.0, 2))
        assert np.isfinite(A.entries).all()
        B = conjugated_multiplier_matrix(bump(), N)
        assert interior_frobenius(A.entries, B.entries, 1, N) <= 1e-5

    def test_matrix_matches_full_plane_wave_table(self):
        # reference: L = conj(E) w_z e^{z^2/2 + 2i t_q z} from the whole Q^2 x q
        # table, against the per-axis factorization of the same mesh sum
        N, Q = 24, 128
        g = gauss_hermite(Q, 1.0, 2)
        sym = symbol_from_multiplier(bump(), quad_order=2 * Q)
        A = integral_operator_matrix(sym, N, g)
        z = g.nodes[:, 0] + 1j * g.nodes[:, 1]
        E = basis_table(1, N, z, Convention.FOCK)
        G = np.exp(0.5 * (z * z)[:, None] + 2j * np.outer(z, sym.nodes))
        L = (np.conj(E) * (g.weights / math.pi)) @ G
        M = (L * sym.node_coeffs) @ L.conj().T
        assert np.abs(A.entries - M).max() <= 1e-13 * np.abs(M).max()

    def test_non_finite_matrix_raises(self):
        sym = symbol_from_multiplier(bump(), quad_order=512)
        with pytest.raises(EvaluationRangeError, match=r"Q=200 .*symbol order 512"):
            integral_operator_matrix(sym, 8, gauss_hermite(200, 1.0, 2))

    def test_top_symbol_order_on_top_default_mesh_is_finite(self):
        sym = symbol_from_multiplier(bump(), quad_order=512)
        A = integral_operator_matrix(sym, 8, gauss_hermite(128, 1.0, 2))
        assert np.isfinite(A.entries).all()


class TestMultiplierMatrix:
    def test_unit_multiplier_identity(self):
        M = multiplier_matrix(constant(1.0), 16)
        assert np.abs(M.entries - np.eye(index_count(1, 16))).max() <= 1e-12

    def test_unit_multiplier_identity_at_the_largest_probe_size(self):
        # order 512; measured 9.3e-15
        M = multiplier_matrix(constant(1.0), 248)
        assert np.abs(M.entries - np.eye(249)).max() <= 2e-14

    def test_hermitian_for_real_multiplier(self):
        M = multiplier_matrix(bump(), 16)
        assert np.abs(M.entries - M.entries.conj().T).max() <= 1e-12

    def test_signum_entry_against_half_line_oracle(self):
        # 2 Int_0^inf hh_0 hh_1 dx = sqrt(2/pi), from the half-line Gaussian moment
        M = multiplier_matrix(signum(), 8)
        assert abs(abs(M.entries[0, 1]) - math.sqrt(2 / math.pi)) <= SIGNUM_ENTRY01_BOUND

    def test_checker_sparsity_for_odd_multiplier(self):
        M = multiplier_matrix(signum(), 10)
        k = np.arange(11)
        even_pairs = (k[:, None] + k[None, :]) % 2 == 0
        assert np.abs(M.entries[even_pairs]).max() <= 1e-12

    def test_conjugated_unit_is_identity(self):
        C = conjugated_multiplier_matrix(constant(1.0), 12)
        assert np.abs(C.entries - np.eye(index_count(1, 12))).max() <= 1e-12

    def test_conjugated_modulation_equals_weyl(self):
        C = conjugated_multiplier_matrix(modulation(0.7), 16)
        W = weyl_matrix(0.7 + 0j, 16)
        assert interior_frobenius(C.entries, W.entries, 1, 16) <= 1e-6

    def test_commutation_with_weyl(self):
        A = conjugated_multiplier_matrix(bump(), 32)
        for a in (0.3, 1.0):
            W = weyl_matrix(complex(a), 32)
            C = A.entries @ W.entries - W.entries @ A.entries
            assert np.linalg.norm(interior_block(C, 1, 32)) <= 1e-5


class TestOperatorNorm:
    def test_identity(self):
        from focklab.transforms import OperatorMatrix

        M = OperatorMatrix(12, 1, np.eye(13, dtype=complex), Convention.FOCK)
        for s in (0.0, 1.0, 2.5):
            assert operator_norm(M, s) == pytest.approx(1.0, rel=1e-9)

    def test_diagonal_at_s_zero(self):
        from focklab.transforms import OperatorMatrix

        d = np.array([0.3, -2.5, 1.0, 0.1, 1.2], dtype=complex)
        M = OperatorMatrix(4, 1, np.diag(d), Convention.FOCK)
        assert operator_norm(M, 0.0) == pytest.approx(2.5, rel=1e-9)
        # nearly degenerate top pair: the cycle spans C^5 within five steps
        d2 = np.array([0.3, -2.5, 1.0, 0.1, 2.49], dtype=complex)
        M2 = OperatorMatrix(4, 1, np.diag(d2), Convention.FOCK)
        assert operator_norm(M2, 0.0) == pytest.approx(2.5, rel=1e-12)

    @pytest.mark.parametrize("label, N", [("signum", 32), ("signum", 64), ("chirp43", 8),
                                          ("chirp43", 16), ("modulation:0.5", 8)])
    def test_former_stalls_match_svd(self, label, N):
        # s=0 probes whose top singular values cluster: plain power iteration
        # ran out of steps on each of them
        A = conjugated_multiplier_matrix(parse_multiplier(label), N)
        want = np.linalg.norm(A.entries, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            got = operator_norm(A, 0.0)
        assert got == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("N", [8, 16, 32, 64])
    @pytest.mark.parametrize("label", ["constant", "constant:2.5", "signum", "chirp43", "bump",
                                       "bump:1.5", "modulation:0.5", "modulation:0.7293"])
    def test_matches_dense_svd(self, label, N):
        # worst measured 3.1e-14 relative, at signum, s = 0, N = 64; power
        # iteration with squaring missed modulation:0.7293 at s = 0, N = 16
        # by 5.2e-12
        A = conjugated_multiplier_matrix(parse_multiplier(label), N)
        for s in (0.0, 0.5, 1.0, 2.0):
            d = eigenvalues(1, N) ** (s / 2)
            want = np.linalg.norm(d[:, None] * A.entries / d[None, :], 2)
            assert operator_norm(A, s) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_step_cap_warns_with_bracket(self):
        from focklab.transforms import OperatorMatrix

        A = OperatorMatrix(4, 1, np.diag([1.0, 2.0, 2.0 - 1e-9, 0.5, 0.1]), Convention.FOCK)
        with pytest.warns(ConvergenceWarning) as rec:
            low = operator_norm(A, max_iter=2)
        assert len(rec) == 1
        lo, hi = map(float, re.search(r"\[(\S+), (\S+)\]", str(rec[0].message)).groups())
        assert lo <= 2.0 <= hi
        assert low <= 2.0

    @pytest.mark.parametrize("c", [1.7e308, 1e300, 1e-300])
    @pytest.mark.parametrize("s", [0.0, 1.0])
    def test_huge_and_tiny_multipliers(self, c, s):
        # the weights or the Gram matrix of c * I would overflow or underflow unscaled
        for N in (8, 16, 64):
            got = operator_norm(conjugated_multiplier_matrix(constant(c), N), s)
            assert got == pytest.approx(c * operator_norm(
                conjugated_multiplier_matrix(constant(1.0), N), s), rel=1e-12, abs=0.0)

    def test_svd_oracle(self):
        rng = np.random.default_rng(0)
        from focklab.transforms import OperatorMatrix

        ent = rng.standard_normal((13, 13)) + 1j * rng.standard_normal((13, 13))
        M = OperatorMatrix(12, 1, ent, Convention.FOCK)
        lam = eigenvalues(1, 12)
        for s in (0.0, 1.0):
            d = lam ** (s / 2)
            want = float(np.linalg.svd(d[:, None] * ent / d[None, :],
                                       compute_uv=False)[0])
            assert operator_norm(M, s) == pytest.approx(want, rel=1e-8)

    def test_sup_norm_convergence(self):
        from focklab.multipliers import MultiplierSpec

        m = MultiplierSpec("sin-shift", lambda x: (2 + np.sin(2 * x)) / 3)
        errs = [abs(operator_norm(conjugated_multiplier_matrix(m, N), 0.0) - 1.0)
                for N in (10, 20, 40)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 0.05

    def test_norm_transport(self):
        for m in (bump(), signum()):
            for s in (0.0, 1.0):
                a = operator_norm(conjugated_multiplier_matrix(m, 20), s)
                b = operator_norm(multiplier_matrix(m, 20), s)
                assert a == pytest.approx(b, rel=1e-11)


def scaled_top_singular(B):
    """Top singular value of B by dense SVD of B / max|B|, clear of overflow
    in the SVD's own sums at any finite B."""
    c = np.abs(B).max()
    return float(np.linalg.svd(B / c, compute_uv=False)[0]) * c


class TestLargeOrder:
    # orders far past the probe ladders: the weighted sections span up to
    # 1e270, and their Gram products would overflow unscaled

    @pytest.mark.parametrize("N", [64, 248])
    @pytest.mark.parametrize("s", [100.0, 200.0])
    def test_hermite_side_matches_scaled_svd(self, s, N):
        # 4.35e89 at s = 100, N = 64, where power iteration returned 0.0;
        # worst measured 2.7e-16 relative
        A = conjugated_multiplier_matrix(bump(), N)
        d = eigenvalues(1, N) ** (s / 2)
        want = scaled_top_singular(d[:, None] * A.entries / d[None, :])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = operator_norm(A, s)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("N", [64, 248])
    @pytest.mark.parametrize("s", [100.0, 200.0])
    def test_classical_side_matches_scaled_svd(self, s, N):
        # the unscaled Gram product read nan at s = 100, N = 64; worst measured
        # 4.5e-16 relative
        m = bump()
        want = scaled_top_singular(fft_section(m, s, N, 32 * N))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _classical_norm(m, s, N)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("N", [64, 248])
    def test_weights_past_double_precision_are_refused(self, N):
        # the weights (2N+1)^150 and (1 + |xi|^2)^150, |xi| <= sqrt(2N+1),
        # overflow at s = 300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationRangeError, match=f"s=300, N={N} is not finite"):
                operator_norm(conjugated_multiplier_matrix(bump(), N), 300.0)
            with pytest.raises(EvaluationRangeError, match=f"s=300, N={N} is not finite"):
                _classical_norm(bump(), 300.0, N)


def classical_dense(m, s, N):
    """Reference matrix B = D F diag(m(x)) F^H D^-1 of the periodized
    classical multiplication operator, from an explicit unitary DFT matrix F:
    box [-L, L), L = sqrt(2N+1) + 1, P = 32N samples and Fourier weights
    D = (1 + xi^2)^{s/2}, xi = pi |k| / (2L)."""
    L = math.sqrt(2 * N + 1) + 1
    P = 32 * N
    j = np.arange(P)
    F = np.exp(-2j * np.pi * (np.outer(j, j) % P) / P) / math.sqrt(P)
    k = np.where(j < P - P // 2, j, j - P)
    D = (1 + (np.pi * np.abs(k) / (2 * L)) ** 2) ** (s / 2)
    x = -L + 2 * L * j / P
    return (D[:, None] * F * m(x)) @ F.conj().T / D


def section_size(N):
    """2K+1, the number of box modes |k| <= K = floor(2L sqrt(2N+1) / pi)."""
    return 2 * int(2 * (math.sqrt(2 * N + 1) + 1) * math.sqrt(2 * N + 1) / math.pi) + 1


def dense_section(m, s, N):
    """The |k| <= K block of ``classical_dense``: the classical operator on
    the modes with |xi| <= sqrt(2N+1), with no FFT and no gather."""
    K = section_size(N) // 2
    j = np.arange(32 * N)
    keep = np.abs(np.where(j < 16 * N, j, j - 32 * N)) <= K
    return classical_dense(m, s, N)[np.ix_(keep, keep)]


def fft_section(m, s, N, P):
    """The same section with its box Fourier coefficients from an FFT of P
    samples, gathered by an index matrix; for N where the explicit DFT of
    ``classical_dense`` is too large."""
    L = math.sqrt(2 * N + 1) + 1
    k = np.arange(section_size(N)) - section_size(N) // 2
    x = -L + 2 * L * np.arange(P) / P
    c = np.fft.fft(m(x)) * (-1.0) ** np.arange(P) / P
    D = (1 + (np.pi * np.abs(k) / (2 * L)) ** 2) ** (s / 2)
    return D[:, None] * c[(k[:, None] - k[None, :]) % P] / D


def _eigsh_top(B):
    """Top eigenvalue of B^H B by scipy's ARPACK (tol 1e-12), from a seeded
    random start vector, not the library's fixed one: an independent
    reference for ``operators._lanczos_top``."""
    n = B.shape[1]
    rng = np.random.default_rng(1234)
    v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    G = LinearOperator((n, n), matvec=lambda v: B.conj().T @ (B @ np.ravel(v)),
                       dtype=complex)
    return eigsh(G, k=1, which="LA", tol=1e-12, maxiter=20000, v0=v0,
                 return_eigenvectors=False)[0]


class TestClassicalNorm:
    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("label", ["constant", "constant:2.5", "signum", "chirp43",
                                       "modulation:0.5", "bump:1.5"])
    def test_matches_dense_svd(self, label, s):
        # worst measured 3.7e-15 relative, at signum, s = 0
        m = parse_multiplier(label)
        B = dense_section(m, s, 8)
        assert B.shape == (27, 27)
        assert _classical_norm(m, s, 8) == pytest.approx(np.linalg.norm(B, 2), rel=1e-12)

    @pytest.mark.parametrize("s", [0.0, 0.5])
    def test_past_64_steps_matches_dense_svd(self, s):
        # bump:2.0 at N = 248 and s <= 1 is the registry's one case that needs
        # more than 64 Lanczos steps (it once took a restart); one cycle of at
        # most 2K+1 = 661 steps reaches the dense norm
        m = parse_multiplier("bump:2.0")
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            got = _classical_norm(m, s, 248)
        want = np.linalg.norm(fft_section(m, s, 248, 32 * 248), 2)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("N", [8, 16, 32, 64])
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("label", ["constant", "signum", "chirp43", "modulation:0.7",
                                       "bump", "bump:1.5", "modulation:0.5"])
    def test_lanczos_matches_eigsh(self, label, s, N):
        # the probe-sweep grid at s > 0; worst measured 2.5e-15 relative
        m = parse_multiplier(label)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            got = _classical_norm(m, s, N)
        want = math.sqrt(_eigsh_top(fft_section(m, s, N, 32 * N)))
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("N", [8, 16, 32, 64])
    @pytest.mark.parametrize("label", ["constant", "modulation:0.7", "signum", "chirp43",
                                       "bump", "bump:1.5", "modulation:0.5"])
    def test_s_zero_matches_dense_svd(self, label, N):
        # the probe-sweep grid at s = 0, where the top of the Gram spectrum
        # clusters near sup|m| and ARPACK's default basis of 20 does not
        # converge for signum and chirp43; worst measured 4.0e-14 relative,
        # at modulation:0.7, N = 16
        m = parse_multiplier(label)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            got = _classical_norm(m, 0.0, N)
        want = np.linalg.norm(fft_section(m, 0.0, N, 32 * N), 2)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("N", [128, 240])
    @pytest.mark.parametrize("label", ["signum", "bump"])
    def test_matches_eigsh_at_large_N(self, label, N):
        # worst measured 2.4e-15 relative
        m = parse_multiplier(label)
        want = math.sqrt(_eigsh_top(fft_section(m, 0.5, N, 32 * N)))
        assert _classical_norm(m, 0.5, N) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("N", [8, 16, 32, 64])
    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("label", ["constant", "bump"])
    def test_grid_doubling_moves_smooth_multipliers_by_rounding(self, label, s, N):
        # P only sets the accuracy of the Fourier coefficients; worst
        # measured 6.5e-16 relative
        m = parse_multiplier(label)
        want = np.linalg.norm(fft_section(m, s, N, 64 * N), 2)
        assert _classical_norm(m, s, N) == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("label", ["bump", "bump:0.9113", "bump:1.5"])
    def test_s_zero_rises_toward_the_sup(self, label):
        # the finite Toeplitz sections of m have norms rising to sup|m|
        m = parse_multiplier(label)
        Ns = (4, 8, 16, 32, 64, 128, 248)
        vals = [_classical_norm(m, 0.0, N) for N in Ns]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        for N, v in zip(Ns, vals):
            L = math.sqrt(2 * N + 1) + 1
            x = -L + 2 * L * np.arange(32 * N) / (32 * N)
            assert v <= np.abs(m(x)).max()

    @pytest.mark.parametrize("s", [0.0, 1.0])
    def test_lanczos_runs_on_the_section(self, monkeypatch, s):
        sizes = []

        def recording(gram, v, steps=None):
            sizes.append(v.size)
            return lanczos(gram, v, steps)

        lanczos = operators._lanczos_top
        monkeypatch.setattr(operators, "_lanczos_top", recording)
        for N in (8, 16, 32, 64):
            _classical_norm(parse_multiplier("bump:1.5"), s, N)
        assert sizes == [27, 49, 93, 179] == [section_size(N) for N in (8, 16, 32, 64)]

    def test_lanczos_basis_grows_with_the_cycle(self):
        # a cycle that converges early keeps a 64-vector basis, not a P x P
        # one (7 MB per copy at P = 661); one that runs on grows it
        import tracemalloc

        P = 661
        d = np.linspace(0.0, 1.0, P) ** 8
        d[-1] = 4.0
        tracemalloc.start()
        try:
            theta, converged = operators._lanczos_top(lambda u: d * u, np.ones(P, dtype=complex))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert converged and theta == pytest.approx(4.0, rel=1e-12)
        assert peak < 2 * 64 * P * 16 + 2**20
        steps = []
        slow = np.linspace(1.0, 2.0, P)

        def gram(u):
            steps.append(1)
            return slow * u

        theta, converged = operators._lanczos_top(gram, operators._start_vector(P))
        assert converged and theta == pytest.approx(2.0, rel=1e-12)
        assert len(steps) > 128

    @pytest.mark.parametrize("s", [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0])
    def test_constant_is_one(self, s):
        # worst measured 3.3e-15, at s = 3, N = 248
        for N in (4, 8, 16, 32, 64, 128, 240, 248):
            assert _classical_norm(constant(1.0), s, N) == pytest.approx(1.0, rel=1e-14,
                                                                         abs=0.0)

    @pytest.mark.parametrize("s", [0.0, 1.0])
    def test_nyquist_warning(self, s):
        # modulation:30 puts 5.1% of its N=8 samples' spectrum in the top decile
        with pytest.warns(AccuracyWarning, match="5.1% of its sampled spectrum"):
            _classical_norm(parse_multiplier("modulation:30"), s, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error", AccuracyWarning)
            _classical_norm(bump(), s, 8)

    @pytest.mark.parametrize("c", [1.7e308, 1e300, 1e-300])
    @pytest.mark.parametrize("s", [0.0, 1.0])
    def test_huge_and_tiny_multipliers(self, c, s):
        # m(x)^2 would overflow or underflow in the Gram operator unscaled
        for N in (8, 16):
            assert _classical_norm(constant(c), s, N) == pytest.approx(
                c * _classical_norm(constant(1.0), s, N), rel=1e-12, abs=0.0)

    def test_zero_multiplier(self):
        # Lanczos breaks down at step one on the zero Gram operator
        assert _classical_norm(parse_multiplier("constant:0"), 1.0, 8) == 0.0

    def test_probe_is_deterministic(self):
        runs = [classical_sobolev_probe(bump(), 0.5, (8, 16, 32)) for _ in range(2)]
        assert runs[0].values == runs[1].values


class TestProbes:
    def test_constant_stable_at_one(self, threshold):
        r = boundedness_probe(constant(1.0), 1.0, (8, 16, 32))
        assert classify_growth(r.values, threshold) == "stable"
        assert all(abs(v - 1) <= 1e-8 for v in r.values)

    def test_signum_grows(self, threshold):
        r = boundedness_probe(signum(), 1.0, (8, 16, 32, 64))
        assert classify_growth(r.values, threshold) == "growing"
        assert r.values == tuple(sorted(r.values))

    def test_chirp_contrast(self, threshold):
        h = boundedness_probe(chirp43(), 1.0, (8, 16, 32, 64))
        c = classical_sobolev_probe(chirp43(), 1.0, (8, 16, 32, 64))
        assert classify_growth(h.values, threshold) == "stable"
        assert classify_growth(c.values, threshold) == "growing"

    def test_classical_bump_stable(self, threshold):
        r = classical_sobolev_probe(bump(), 1.0, (8, 16, 32))
        assert classify_growth(r.values, threshold) == "stable"

    @pytest.mark.parametrize("probe", [boundedness_probe, classical_sobolev_probe])
    def test_increasing_N_required(self, probe):
        with pytest.raises(ValueError, match="strictly increasing"):
            probe(constant(1.0), 1.0, (16, 8))

    @pytest.mark.parametrize("probe", [boundedness_probe, classical_sobolev_probe])
    @pytest.mark.parametrize("N_list", [(), (64,), (2, 8), (8, 300)],
                             ids=["empty", "single", "below-4", "above-248"])
    def test_truncation_ladder_validated(self, probe, N_list):
        with pytest.raises(ValueError, match="truncation"):
            probe(constant(1.0), 1.0, N_list)

    def test_classification_rule(self):
        # stable when max/min < t, else growing when last/first > t
        assert classify_growth([1.0, 1.01, 1.02], 1.15) == "stable"
        assert classify_growth([1.0, 1.1, 1.5], 1.15) == "growing"
        assert classify_growth([1.0, 1.3, 1.1], 1.15) == "inconclusive"

    def test_scaling_invariance(self, threshold):
        # norms are linear in the multiplier, so ratios and classes survive scaling
        base = boundedness_probe(signum(), 1.0, (8, 16, 32))
        scaled = MultiplierSpec("scaled-signum", lambda x: 3.0 * np.sign(x))
        r = boundedness_probe(scaled, 1.0, (8, 16, 32))
        assert classify_growth(r.values, threshold) == classify_growth(base.values, threshold)
        for a, b in zip(r.values, base.values):
            assert a == pytest.approx(3.0 * b, rel=1e-8)


@settings(max_examples=10, deadline=None)
@given(st.floats(0.2, 1.2))
def test_symbol_modulation_family_property(c):
    sym = symbol_from_multiplier(modulation(c))
    zs = np.array([0.25, -0.5 + 0.5j])
    assert np.abs(sym(zs) - np.exp(c * zs - c * c / 2)).max() <= 1e-10


def test_growth_warning_at_uncompensated_nodes():
    # a symbol that outruns the Gaussian on a small mesh trips the edge check
    sym = symbol_from_multiplier(bump(), quad_order=64)
    v = random_vector(1, 4, Convention.FOCK, 9)
    g = gauss_hermite(16, 1.0, 2)
    with pytest.warns(AccuracyWarning, match="kernel growth at z=3.5"):
        apply_integral_operator(sym, v, 3.5 + 0.5j, g)


def test_node_range_warning_on_mesh():
    # a 32-node symbol reaches |t| <= 5.0, while the 24-node mesh has |y| up to 6.0
    sym = symbol_from_multiplier(bump(), quad_order=32)
    v = random_vector(1, 4, Convention.FOCK, 9)
    with pytest.warns(AccuracyWarning, match="node range 5.0"):
        apply_integral_operator(sym, v, 0.3, gauss_hermite(24, 1.0, 2))


def test_symbol_fock_projection_agrees_with_evaluator(grid_c):
    sym = symbol_from_multiplier(bump(), quad_order=160)
    vec = project_fock(sym, 8, grid_c)
    from focklab.hermite import synthesize as synth

    zs = np.array([0.3 + 0.2j, -0.6, 0.5j])
    assert np.abs(synth(vec, zs) - sym(zs)).max() <= 1e-8
