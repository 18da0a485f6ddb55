import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import factorial, genlaguerre

from focklab.errors import GridMismatchError
from focklab.hermite import (
    Convention,
    SpectralVector,
    gauss_hermite,
    hermite_axis_table,
    index_count,
    ladder,
    random_vector,
    synthesize,
)
from focklab.spaces import sobolev_norm
from focklab.transforms import (
    OperatorMatrix,
    bargmann_quadrature,
    conjugation_check,
    fourier,
    fourier_quadrature,
    fractional_shift_defect,
    interior_block,
    ladder_seminorm,
    leibniz_check,
    translation_ladder_check,
    translation_matrix,
    weyl_matrix,
)

from test_operators import project_fock  # the test-side Gaussian-measure projection


def displacement_oracle(alpha: complex, m: int, n: int) -> complex:
    """Fock matrix element of the displacement operator via the associated
    Laguerre closed form; standard quantum-optics reference values."""
    if n > m:
        return np.conj(displacement_oracle(-alpha, n, m))
    pref = math.sqrt(float(factorial(n)) / float(factorial(m))) \
        * alpha ** (m - n) * math.exp(-abs(alpha) ** 2 / 2)
    return pref * genlaguerre(n, m - n)(abs(alpha) ** 2)


class TestFourier:
    def test_fourth_power_identity(self):
        v = random_vector(1, 16, Convention.BARGMANN_H, 1)
        w = fourier(fourier(fourier(fourier(v))))
        assert np.array_equal(w.coeffs, v.coeffs)

    def test_inverse(self):
        # the basis functions are real, so F^{-1} = C F C with C complex conjugation
        v = random_vector(1, 16, Convention.FOCK, 2)
        w = fourier(v)
        back = np.conj(fourier(w.with_coeffs(np.conj(w.coeffs))).coeffs)
        assert np.array_equal(back, v.coeffs)

    def test_rejects_paper_h(self):
        v = random_vector(1, 4, Convention.PAPER_H, 0)
        with pytest.raises(ValueError):
            fourier(v)

    def test_gaussian_fixed_point_by_quadrature(self):
        # pi^{-1/2} Int e^{-2ixy} e^{-y^2} dy = e^{-x^2}
        g = gauss_hermite(96, 1.0, 1)
        xs = np.linspace(-2, 2, 9)
        got = fourier_quadrature(
            lambda y: hermite_axis_table(0, y, Convention.BARGMANN_H)[0], xs, g)
        want = hermite_axis_table(0, xs, Convention.BARGMANN_H)[0]
        assert np.abs(got - want).max() <= 1e-12

    def test_eigenfunction_phases_on_nodes(self):
        xg = gauss_hermite(64, 1.0, 1)
        ig = gauss_hermite(192, 1.0, 1)
        xs = xg.nodes[:, 0]
        for k in (0, 3, 10, 20):
            got = fourier_quadrature(
                lambda y, k=k: hermite_axis_table(k, y, Convention.BARGMANN_H)[k], xs, ig)
            want = (-1j) ** k * hermite_axis_table(k, xs, Convention.BARGMANN_H)[k]
            assert np.abs(got - want).max() <= 1e-8

    def test_norm_preservation_exact(self):
        v = random_vector(1, 20, Convention.BARGMANN_H, 3)
        for s in (0.0, 1.0, 2.5):
            assert sobolev_norm(fourier(v), s) == pytest.approx(sobolev_norm(v, s),
                                                                rel=1e-15)

    def test_quadrature_needs_scale_one(self, grid2):
        with pytest.raises(GridMismatchError):
            fourier_quadrature(lambda y: np.exp(-y * y), np.array([0.0]), grid2)


class TestFockMap:
    def test_basis_to_monomials(self, grid2):
        zs = np.array([0.5 + 0.3j, -1.1, 0.9j, 1.2 - 0.7j])
        for k in (0, 1, 4, 10):
            got = bargmann_quadrature(
                lambda y, k=k: hermite_axis_table(k, y, Convention.BARGMANN_H)[k], zs, grid2)
            want = hermite_axis_table(k, zs, Convention.FOCK)[k]
            assert np.abs(got - want).max() <= 1e-10

    def test_ground_state_maps_to_one(self, grid2):
        z = 0.5 + 0.3j
        got = bargmann_quadrature(
            lambda y: hermite_axis_table(0, y, Convention.BARGMANN_H)[0], z, grid2)
        assert abs(got - 1.0) <= 1e-12

    def test_paper_weight_ground_state_is_not_fixed(self, grid2):
        # the e^{-x^2/2}-weight ground state maps to a Gaussian in z, which is
        # what forces the rescaled system as the Fock-compatible one
        z = np.array([0.4 + 0.2j, 1.0])
        got = bargmann_quadrature(
            lambda y: hermite_axis_table(0, y, Convention.PAPER_H)[0], z, grid2)
        c = (2 / math.pi) ** 0.25 * math.pi ** -0.25 * math.sqrt(2 * math.pi / 3)
        assert np.abs(got - c * np.exp(z * z / 6)).max() <= 1e-12

    def test_tag_roundtrip(self):
        # the Fock map is the identity on coefficients, so moving a vector to
        # the Fock side is a retag and keeps every weighted norm
        v = random_vector(1, 10, Convention.BARGMANN_H, 4)
        w = replace(v, convention=Convention.FOCK)
        for s in (0.0, 1.5):
            assert sobolev_norm(w, s) == sobolev_norm(v, s)

    def test_fock_projection_roundtrip(self, grid_c):
        v = random_vector(1, 8, Convention.FOCK, 5)
        w = project_fock(lambda z: synthesize(v, z), 8, grid_c)
        assert np.abs(w.coeffs - v.coeffs).max() <= 1e-10

    def test_rotation_conjugation(self, grid_c):
        # wrapping the spectral Fourier map in the Fock retags equals the
        # rotation z -> -iz on entire functions
        v = random_vector(1, 8, Convention.BARGMANN_H, 6)
        lhs = fourier(v)
        w = project_fock(lambda z: synthesize(replace(v, convention=Convention.FOCK), -1j * z),
                         8, grid_c)
        assert np.abs(lhs.coeffs - w.coeffs).max() <= 1e-10


class TestTranslation:
    def test_zero_is_identity(self):
        T = translation_matrix(np.zeros(1), 12)
        assert np.abs(T.entries - np.eye(13)).max() <= 1e-13

    @pytest.mark.filterwarnings("ignore::focklab.errors.AccuracyWarning")
    def test_ground_overlap(self):
        # |a| = 1.4 at N = 24 legitimately warns about truncation leakage;
        # the ground-state overlap entry itself is still quadrature-exact
        for a in (0.3, 0.8, 1.4):
            T = translation_matrix(np.array([a]), 24)
            assert T.entries[0, 0] == pytest.approx(math.exp(-a * a / 2), rel=1e-13)

    def test_group_law_interior(self):
        N = 32
        Ta = translation_matrix(np.array([0.7]), N)
        Tb = translation_matrix(np.array([0.4]), N)
        Tab = translation_matrix(np.array([1.1]), N)
        d = np.linalg.norm(interior_block(Ta.entries @ Tb.entries - Tab.entries, 1, N))
        assert d <= 1e-10

    def test_unitarity_interior(self):
        for a in (0.5, 1.0):
            T = translation_matrix(np.array([a]), 32)
            assert T.unitarity_defect() <= 1e-4

    def test_leakage_warning_when_truncation_too_small(self):
        with pytest.warns(UserWarning, match="unitarity defect"):
            translation_matrix(np.array([3.5]), 8)

    @pytest.mark.filterwarnings("ignore::focklab.errors.AccuracyWarning")
    @pytest.mark.parametrize("build", [translation_matrix, weyl_matrix],
                             ids=["translation_matrix", "weyl_matrix"])
    @pytest.mark.parametrize("a, alpha, beta", [
        ([0.5, -0.3], (1, 0), (0, 1)),
        ([0.5, -0.3, 0.8], (1, 0, 2), (0, 1, 0)),
    ], ids=["n2", "n3"])
    def test_2d_tensorization(self, build, a, alpha, beta):
        # entry (alpha, beta) is the product of the 1D axis entries
        from focklab.hermite import index_position

        T = build(np.array(a), 6)
        want = math.prod(build(np.array([aj]), 6).entries[i, j]
                         for aj, i, j in zip(a, alpha, beta))
        pos = index_position(len(a), 6)
        assert T.entries[pos[alpha], pos[beta]] == pytest.approx(want, rel=1e-12)


class TestWeyl:
    def test_zero_is_identity(self):
        W = weyl_matrix(0.0, 10)
        assert np.abs(W.entries - np.eye(11)).max() == 0.0

    def test_ground_column(self):
        a = 0.6 - 0.2j
        W = weyl_matrix(a, 12)
        k = np.arange(13)
        want = np.exp(-abs(a) ** 2 / 2) * np.conj(a) ** k \
            / np.sqrt(np.array([math.factorial(int(j)) for j in k]))
        assert np.abs(W.entries[:, 0] - want).max() <= 1e-14

    def test_against_laguerre_oracle(self):
        a = 0.8 + 0.5j
        W = weyl_matrix(a, 10)
        # our convention W_a equals the displacement with parameter conj(a)
        for m in range(11):
            for n in range(11):
                want = displacement_oracle(np.conj(a), m, n)
                assert abs(W.entries[m, n] - want) <= 1e-12

    def test_against_gaussian_quadrature_oracle(self, grid_c):
        a = 0.5 + 0.4j
        z = grid_c.complex_nodes()[:, 0]
        wts = grid_c.weights / math.pi
        from focklab.hermite import basis_table

        E = basis_table(1, 8, z, Convention.FOCK)
        shifted = basis_table(1, 8, z - a, Convention.FOCK)
        fac = np.exp(-abs(a) ** 2 / 2 + z * np.conj(a))
        Mq = (np.conj(E) * wts) @ (fac[:, None] * shifted.T)
        assert np.abs(Mq - weyl_matrix(a, 8).entries).max() <= 1e-12

    def test_unitarity(self):
        W = weyl_matrix(0.7 + 0.3j, 32)
        assert W.unitarity_defect() <= 1e-10


class TestConjugation:
    def test_zero_translation(self):
        assert conjugation_check(np.zeros(1), 16) <= 1e-13

    def test_translation_equals_weyl_sections(self):
        for a in (0.3, 0.7, 1.0):
            assert conjugation_check(np.array([a]), 32) <= 1e-6

    def test_defect_stays_at_noise_floor_in_N(self):
        seq = [conjugation_check(np.array([0.7]), N) for N in (16, 32, 48)]
        assert max(seq) <= 1e-10

    @pytest.mark.filterwarnings("ignore::focklab.errors.AccuracyWarning")
    @pytest.mark.parametrize("a", [3.0, 5.0])
    def test_large_shift_at_N96(self, a):
        # translation warns about truncation leakage here; the interior
        # blocks of the two sections must still agree at the noise floor
        assert conjugation_check(np.array([a]), 96) <= 1e-10


class TestLadderIdentities:
    def test_translation_ladder_zero_shift(self):
        v = SpectralVector.unit(1, 16, Convention.PAPER_H, 2)
        assert translation_ladder_check(np.zeros(1), 1, v) <= 1e-13

    def test_translation_ladder_first_order(self):
        v = SpectralVector.unit(1, 32, Convention.PAPER_H, 2)
        assert translation_ladder_check(np.array([0.5]), 1, v) <= 1e-6

    def test_translation_ladder_second_order(self):
        # composing the first-order commutation twice gives the quadratic
        # shift polynomial; checked entirely with library primitives
        a, N = 0.5, 32
        v = random_vector(1, N, Convention.PAPER_H, 12, band=16)
        T = translation_matrix(np.array([a]), N, Convention.PAPER_H)
        lhs = ladder(ladder(v.with_coeffs(T.entries @ v.coeffs), "lower"), "lower")
        w1 = ladder(v, "lower").coeffs + a * v.coeffs
        rhs = T.entries @ (ladder(v.with_coeffs(w1), "lower").coeffs + a * w1)
        m = index_count(1, N // 2)
        assert np.linalg.norm(lhs.coeffs[:m] - rhs[:m]) <= 1e-6

    def test_leibniz_ground_states(self):
        h0 = SpectralVector.unit(1, 0, Convention.PAPER_H, 0)
        assert leibniz_check(h0, h0, projection_truncation=16)[0] <= 1e-8

    def test_leibniz_constant_factor_reduces_to_linearity(self):
        f = random_vector(1, 8, Convention.PAPER_H, 13)
        c = SpectralVector(1, 0, Convention.PAPER_H, np.array([1.7 + 0j]))
        assert leibniz_check(f, c, projection_truncation=20)[0] <= 1e-10

    def test_leibniz_random_and_tail_decay(self):
        f = random_vector(1, 8, Convention.PAPER_H, 14)
        g = random_vector(1, 8, Convention.PAPER_H, 15)
        assert leibniz_check(f, g)[0] <= 1e-8
        # past the coefficient peak of fg (degree 16) the tail decays geometrically
        tails = [leibniz_check(f, g, projection_truncation=T)[1] for T in (32, 48, 64)]
        assert tails[1] <= 0.5 * tails[0] and tails[2] <= 0.5 * tails[1]

    def test_fractional_shift_calculus(self):
        v = random_vector(1, 20, Convention.PAPER_H, 16)
        for sigma in (0.5, 1.0, -0.3):
            for direction in ("lower", "raise"):
                assert fractional_shift_defect(v, sigma, 1, direction) <= 1e-12

    def test_ladder_seminorm_two_sided(self):
        # the word-sum norm and the spectral norm bound each other
        for k in (1, 2):
            ratios = []
            for seed in range(5):
                v = random_vector(1, 24, Convention.PAPER_H, 20 + seed)
                ratios.append(ladder_seminorm(v, k) / sobolev_norm(v, float(k)))
            assert max(ratios) / min(ratios) <= 3.0
            assert min(ratios) > 0.5


class TestOperatorMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            OperatorMatrix(4, 1, np.eye(3), Convention.FOCK)

    def test_apply(self):
        W = weyl_matrix(0.3, 8)
        v = random_vector(1, 8, Convention.FOCK, 8)
        assert np.abs(W.apply(v).coeffs - W.entries @ v.coeffs).max() == 0.0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([0.0, 1.0, 2.5]))
def test_fourier_isometry_property(seed, s):
    v = random_vector(1, 14, Convention.BARGMANN_H, seed, normalize=False)
    assert sobolev_norm(fourier(v), s) == pytest.approx(sobolev_norm(v, s), rel=1e-14)


@settings(max_examples=15, deadline=None)
@given(st.floats(-1.2, 1.2), st.floats(-1.2, 1.2))
def test_weyl_composition_phase_property(x, y):
    # W_a W_b = e^{-i Im(a conj(b))} W_{a+b} on interior blocks
    a, b = complex(x, y), complex(-0.4, 0.25)
    N = 20
    Wa, Wb, Wab = (weyl_matrix(c, N) for c in (a, b, a + b))
    phase = np.exp(-1j * (a * np.conj(b)).imag)
    d = np.linalg.norm(interior_block(Wa.entries @ Wb.entries
                                      - phase * Wab.entries, 1, N))
    assert d <= 3e-5
