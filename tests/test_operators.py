import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from focklab.multipliers import bump, chirp43, constant, modulation, parse_multiplier, signum
from focklab.operators import (
    GrowthThresholds,
    _classical_norm,
    _classical_operator,
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


@pytest.fixture(scope="module")
def thresholds():
    return load_calibration().growth_thresholds


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

    def test_hermitian_for_real_multiplier(self):
        M = multiplier_matrix(bump(), 16)
        assert np.abs(M.entries - M.entries.conj().T).max() <= 1e-12

    def test_signum_entry_against_half_line_oracle(self):
        # 2 Int_0^inf hh_0 hh_1 dx = sqrt(2/pi), from the half-line Gaussian moment
        cal = load_calibration()
        M = multiplier_matrix(signum(), 8)
        assert abs(abs(M.entries[0, 1]) - math.sqrt(2 / math.pi)) \
            <= cal["signum.entry01.tol"]

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
        # nearly degenerate top pair: stagnation-limited accuracy
        d2 = np.array([0.3, -2.5, 1.0, 0.1, 2.49], dtype=complex)
        M2 = OperatorMatrix(4, 1, np.diag(d2), Convention.FOCK)
        assert operator_norm(M2, 0.0) == pytest.approx(2.5, rel=1e-6)

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
                assert a == pytest.approx(b, rel=1e-5)


class TestClassicalNorm:
    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("label", ["constant", "constant:2.5", "signum", "chirp43",
                                       "modulation:0.5", "bump:1.5"])
    def test_matches_dense_svd(self, label, s):
        # signum at s=0 has a degenerate Gram spectrum
        m = parse_multiplier(label)
        B = _classical_operator(m, s, 8)
        dense = np.column_stack([B.matvec(e) for e in np.eye(B.shape[0], dtype=complex)])
        want = np.linalg.norm(dense, 2)
        assert _classical_norm(m, s, 8) == pytest.approx(want, rel=1e-10)

    def test_restart_cap_warns_with_lower_bound(self):
        m = parse_multiplier("bump:1.5")
        full = _classical_norm(m, 0.0, 64)
        with pytest.warns(ConvergenceWarning, match="did not converge"):
            low = _classical_norm(m, 0.0, 64, max_iter=1)
        assert math.isfinite(low) and 0.0 < low <= full

    def test_zero_multiplier(self):
        # ARPACK rejects the null start vector a zero Gram operator produces
        assert _classical_norm(parse_multiplier("constant:0"), 1.0, 8) == 0.0

    def test_probe_is_deterministic(self, thresholds):
        runs = [classical_sobolev_probe(bump(), 0.5, (8, 16, 32), thresholds)
                for _ in range(2)]
        assert runs[0].values == runs[1].values


class TestProbes:
    def test_constant_stable_at_one(self, thresholds):
        r = boundedness_probe(constant(1.0), 1.0, (8, 16, 32), thresholds)
        assert r.classification == "stable"
        assert all(abs(v - 1) <= 1e-8 for v in r.values)

    def test_signum_grows(self, thresholds):
        r = boundedness_probe(signum(), 1.0, (8, 16, 32, 64), thresholds)
        assert r.classification == "growing"
        assert r.values == tuple(sorted(r.values))

    def test_chirp_contrast(self, thresholds):
        h = boundedness_probe(chirp43(), 1.0, (8, 16, 32, 64), thresholds)
        c = classical_sobolev_probe(chirp43(), 1.0, (8, 16, 32, 64), thresholds)
        assert h.classification == "stable"
        assert c.classification == "growing"

    def test_classical_bump_stable(self, thresholds):
        r = classical_sobolev_probe(bump(), 1.0, (8, 16, 32), thresholds)
        assert r.classification == "stable"

    @pytest.mark.parametrize("probe", [boundedness_probe, classical_sobolev_probe])
    def test_increasing_N_required(self, probe, thresholds):
        with pytest.raises(ValueError, match="strictly increasing"):
            probe(constant(1.0), 1.0, (16, 8), thresholds)

    @pytest.mark.parametrize("probe", [boundedness_probe, classical_sobolev_probe])
    @pytest.mark.parametrize("N_list", [(), (64,), (2, 8), (8, 300)],
                             ids=["empty", "single", "below-4", "above-248"])
    def test_truncation_ladder_validated(self, probe, N_list, thresholds):
        with pytest.raises(ValueError, match="truncation"):
            probe(constant(1.0), 1.0, N_list, thresholds)

    def test_classification_rule(self):
        th = GrowthThresholds(G=1.2, S=1.1)
        assert classify_growth([1.0, 1.01, 1.02], th) == "stable"
        assert classify_growth([1.0, 1.1, 1.5], th) == "growing"
        assert classify_growth([1.0, 1.3, 1.15], th) == "inconclusive"

    def test_scaling_invariance(self, thresholds):
        # norms are linear in the multiplier, so ratios and classes survive scaling
        base = boundedness_probe(signum(), 1.0, (8, 16, 32), thresholds)
        m = parse_multiplier("constant:3")
        from focklab.multipliers import MultiplierSpec

        scaled = MultiplierSpec("scaled-signum", lambda x: 3.0 * np.sign(x))
        r = boundedness_probe(scaled, 1.0, (8, 16, 32), thresholds)
        assert r.classification == base.classification
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
    with pytest.warns(UserWarning):
        apply_integral_operator(sym, v, 3.5 + 0.5j, g)


def test_symbol_fock_projection_agrees_with_evaluator(grid_c):
    sym = symbol_from_multiplier(bump(), quad_order=160)
    vec = project_fock(sym, 8, grid_c)
    from focklab.hermite import synthesize as synth

    zs = np.array([0.3 + 0.2j, -0.6, 0.5j])
    assert np.abs(synth(vec, zs) - sym(zs)).max() <= 1e-8
