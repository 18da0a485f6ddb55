import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from focklab.errors import DivergenceError, GridMismatchError
from focklab.hermite import Convention, SpectralVector, index_array, random_vector
from focklab.spaces import (
    PartitionBump,
    _eigenvalue_integrals,
    _smooth_step,
    fractional_H,
    heat_kernel_value,
    heat_semigroup,
    kappa_constant,
    localization_norm,
    potential_bound_probe,
    smoothing_constant,
    sobolev_norm,
    square_function_norm,
    square_function_norm_direct,
    weighted_fock_norm,
)

mp.mp.dps = 30


class TestSobolevNorm:
    def test_unit_vector_formula(self):
        for k, s in [(0, 0.5), (2, 1.0), (5, 2.3)]:
            v = SpectralVector.unit(1, 8, Convention.BARGMANN_H, k)
            assert sobolev_norm(v, s) == pytest.approx((2 * k + 1) ** (s / 2), rel=1e-14)

    def test_s_zero_is_l2(self):
        v = random_vector(1, 12, Convention.PAPER_H, 9, normalize=False)
        assert sobolev_norm(v, 0.0) == pytest.approx(v.norm(), rel=1e-14)

    def test_two_term_example(self):
        c = np.zeros(3, dtype=complex)
        c[0] = c[1] = 1.0
        v = SpectralVector(1, 2, Convention.PAPER_H, c)
        assert sobolev_norm(v, 2.0) == pytest.approx(math.sqrt(10), rel=1e-14)

    def test_rejects_negative_order(self):
        v = random_vector(1, 4, Convention.PAPER_H, 0)
        with pytest.raises(ValueError):
            sobolev_norm(v, -0.5)


class TestFractionalOperator:
    def test_eigenvalue_1d(self):
        v = SpectralVector.unit(1, 4, Convention.PAPER_H, 2)
        assert fractional_H(v, 1.0).coeffs[2] == pytest.approx(5.0)

    def test_eigenvalue_2d(self):
        v = SpectralVector.unit(2, 4, Convention.PAPER_H, (1, 1))
        w = fractional_H(v, 1.0)
        assert w[(1, 1)] == pytest.approx(6.0)

    def test_inverse_cancels(self):
        v = random_vector(1, 16, Convention.PAPER_H, 4)
        w = fractional_H(fractional_H(v, 0.8), -0.8)
        assert np.abs(w.coeffs - v.coeffs).max() <= 1e-14


class TestHeatSemigroup:
    def test_time_zero_identity(self):
        v = random_vector(1, 10, Convention.PAPER_H, 2)
        assert np.array_equal(heat_semigroup(v, 0.0).coeffs, v.coeffs)

    def test_ground_state_factor(self):
        v = SpectralVector.unit(1, 4, Convention.PAPER_H, 0)
        assert heat_semigroup(v, 1.0).coeffs[0] == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_semigroup_law(self):
        v = random_vector(1, 16, Convention.PAPER_H, 8)
        a = heat_semigroup(heat_semigroup(v, 0.3), 0.4)
        b = heat_semigroup(v, 0.5)
        assert np.abs(a.coeffs - b.coeffs).max() <= 1e-14

    def test_kernel_against_mehler_oracle(self):
        # closed form for sum_k r^k h_k(x) h_k(y), r = e^{-2t^2}
        t, x, y = 0.8, 0.4, -0.3
        r = math.exp(-2 * t * t)
        mehler = (math.exp(-((1 + r * r) * (x * x + y * y) - 4 * r * x * y)
                           / (2 * (1 - r * r)))
                  / math.sqrt(math.pi * (1 - r * r)))
        want = math.exp(-t * t) * mehler
        got = heat_kernel_value(80, t, x, y)
        assert got == pytest.approx(want, rel=1e-12)

    def test_kernel_converges_and_decays(self):
        vals = [heat_kernel_value(N, 1.0, 0.0, 0.0) for N in (20, 40, 60)]
        assert abs(vals[2] - vals[1]) <= abs(vals[1] - vals[0])
        ks = [heat_kernel_value(60, 1.0, 0.0, d) for d in (0.0, 1.0, 2.0)]
        assert ks[0] > ks[1] > ks[2] > 0


class TestSquareFunction:
    def test_constant_against_closed_form(self):
        # integration by parts gives c_{1/2,1}^2 = 2 sqrt(pi) (1 - 1/sqrt(2))
        want = math.sqrt(2 * math.sqrt(math.pi) * (1 - 1 / math.sqrt(2)))
        assert smoothing_constant(0.5, 1) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("s,K", [(0.5, 1), (1.0, 1), (3.0, 2)])
    def test_constant_against_mpmath(self, s, K):
        want = float(mp.sqrt(mp.quad(
            lambda u: (1 - mp.e ** (-u * u)) ** (2 * K) * u ** (-1 - 2 * s),
            [0, 1, mp.inf])))
        assert smoothing_constant(s, K) == pytest.approx(want, rel=1e-10)

    def test_unit_vector_value(self):
        # substitution u = t sqrt(lam) moves the eigenvalue out of the integral
        v = SpectralVector.unit(1, 6, Convention.PAPER_H, 3)
        lam = 7.0
        f = lambda t: (1 - math.exp(-min(t * t * lam, 700.0))) ** 2 * t ** (-2.0)
        direct = quad(f, 0, 1, limit=300)[0] + quad(f, 1, np.inf, limit=300)[0]
        assert square_function_norm(v, 0.5, 1) == pytest.approx(math.sqrt(direct), rel=1e-8)

    def test_ratio_is_constant_exactly(self):
        c = smoothing_constant(1.0, 1)
        for seed in range(5):
            v = random_vector(1, 12, Convention.PAPER_H, seed, normalize=False)
            assert square_function_norm(v, 1.0, 1) \
                == pytest.approx(c * sobolev_norm(v, 1.0), rel=1e-14)

    def test_direct_route_agrees(self):
        for (s, K) in ((0.5, 1), (1.0, 1), (3.0, 2)):
            v = random_vector(1, 14, Convention.PAPER_H, 31)
            a = square_function_norm(v, s, K)
            b = square_function_norm_direct(v, s, K)
            assert a == pytest.approx(b, rel=1e-9)

    def test_divergence_detector(self):
        for bad_s, K in ((2.0, 1), (0.0, 1), (-0.5, 1), (4.0, 2), (5.0, 2)):
            with pytest.raises(DivergenceError):
                kappa_constant(bad_s, K)
            with pytest.raises(DivergenceError):
                smoothing_constant(bad_s, K)

    def test_kappa_equals_smoothing_constant(self):
        for (s, K) in ((0.5, 1), (1.0, 1), (1.9, 1), (3.5, 2)):
            assert kappa_constant(s, K) == pytest.approx(smoothing_constant(s, K), abs=1e-10)

    def test_kappa_grows_toward_upper_boundary(self):
        vals = [kappa_constant(s, 1) for s in (1.5, 1.9, 1.99)]
        assert vals[0] < vals[1] < vals[2]

    def test_contraction_inequality(self):
        kap = kappa_constant(1.0, 1)
        for seed in range(10):
            v = random_vector(1, 10, Convention.PAPER_H, 100 + seed)
            lhs = square_function_norm(fractional_H(v, -0.5), 1.0, 1)
            assert lhs <= kap * v.norm() * (1 + 1e-10)

    @pytest.mark.parametrize("s,K", [
        (s, K) for K in (1, 2, 3, 8, 16)
        for s in sorted({1e-3, 0.5, 2 * K - 1e-6}
                        | {k + d for k in {1, K, 2 * K - 1} for d in (-1e-6, 0.0, 1e-6)})])
    def test_constants_against_gamma_sum(self, s, K):
        # c^2 = 1/2 Gamma(-s) Sigma_j C(2K,j) (-1)^j j^s in 90-digit arithmetic;
        # at integer s the pole meets a zero of the sum and leaves the ln j sum
        with mp.workdps(90):
            sm = mp.mpf(s)
            terms = [(-1) ** j * mp.binomial(2 * K, j) for j in range(1, 2 * K + 1)]
            if sm == int(sm):
                k = int(sm)
                c2 = (-1) ** (k + 1) / (2 * mp.factorial(k)) * mp.fsum(
                    t * mp.mpf(j) ** k * mp.log(j) for j, t in enumerate(terms, 1))
            else:
                c2 = mp.gamma(-sm) / 2 * mp.fsum(
                    t * mp.mpf(j) ** sm for j, t in enumerate(terms, 1))
            want = float(mp.sqrt(c2))
        assert smoothing_constant(s, K) == pytest.approx(want, rel=1e-13)
        assert kappa_constant(s, K) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("s,K", [(1e-3, 1), (0.5, 1), (2 - 1e-6, 1), (3.0, 2)])
    def test_direct_route_with_repeated_eigenvalues(self, s, K):
        # n = 2: each eigenvalue 2|alpha| + 2 repeats |alpha| + 1 times
        v = random_vector(2, 8, Convention.PAPER_H, 17)
        assert square_function_norm_direct(v, s, K) \
            == pytest.approx(square_function_norm(v, s, K), rel=1e-12)

    def test_lowest_eigenvalue_entry_of_a_wide_table(self):
        # lam runs up to 513 at N = 256, so lam^s spans 22 decades at this s;
        # the lam = 1 entry must still be accurate relative to itself
        s, K = 8 + 1e-6, 8
        table = _eigenvalue_integrals(s, K, 1, 256)
        assert table[0] == pytest.approx(smoothing_constant(s, K) ** 2, rel=1e-12)


class TestWeightedFockNorm:
    def test_constant_is_one(self, grid_c):
        one = SpectralVector.unit(1, 6, Convention.FOCK, 0)
        for s in (0.0, 1.0, 2.5):
            assert weighted_fock_norm(one, s, grid_c) == pytest.approx(1.0, abs=1e-12)

    def test_s_zero_matches_l2(self, grid_c):
        v = random_vector(1, 8, Convention.FOCK, 6)
        assert weighted_fock_norm(v, 0.0, grid_c) == pytest.approx(sobolev_norm(v, 0.0),
                                                                   rel=1e-9)

    def test_ratio_stable_in_truncation(self, grid_c):
        ratios = []
        for N in (4, 8, 12):
            v = SpectralVector.unit(1, N, Convention.FOCK, 1)
            ratios.append(weighted_fock_norm(v, 1.0, grid_c) / sobolev_norm(v, 1.0))
        assert max(ratios) / min(ratios) <= 1 + 1e-10  # e_1 is N-independent

    def test_dimension_mismatch_rejected(self, grid2):
        v = random_vector(1, 4, Convention.FOCK, 0)
        with pytest.raises(GridMismatchError):
            weighted_fock_norm(v, 0.0, grid2)


class TestPartitionBump:
    def test_plateau_support_range(self):
        b = PartitionBump()
        xs = np.linspace(-0.99, 0.99, 21)
        assert np.abs(b.eval_axis(xs) - 1).max() <= 1e-14
        assert np.abs(b.eval_axis(np.array([2.0, 2.5, -3.0]))).max() == 0.0
        mid = b.eval_axis(np.array([1.5]))[0]
        assert mid == pytest.approx(0.5, abs=1e-13)
        vals = b.eval_axis(np.linspace(-2.5, 2.5, 101))
        assert vals.min() >= 0.0 and vals.max() <= 1.0

    def test_partition_of_unity(self):
        b = PartitionBump()
        rng = np.random.default_rng(5)
        xs = rng.uniform(-7, 7, 10_000)
        assert np.abs(b.partition_sum(xs) - 3.0).max() <= 1e-10
        xs2 = rng.uniform(-5, 5, (2000, 2))
        assert np.abs(PartitionBump(dim=2).partition_sum(xs2) - 9.0).max() <= 1e-12

    def test_smooth_step_against_quadrature_of_derivative(self):
        # Phi = g/(g+h), g = e^{-1/(1/2+t)}, h = e^{-1/(1/2-t)}, so
        # Phi' = g h [(1/2+t)^-2 + (1/2-t)^-2] / (g+h)^2 on |t| < 1/2.
        def dphi(t):
            p, q = 0.5 + t, 0.5 - t
            if p <= 0 or q <= 0:
                return 0.0
            g, h = math.exp(-1 / p), math.exp(-1 / q)
            return g * h * (p ** -2 + q ** -2) / (g + h) ** 2

        assert quad(dphi, -0.5, 0.5, epsabs=1e-15)[0] == pytest.approx(1.0, abs=1e-13)
        ts = np.array([-0.41, -0.1, 0.0, 0.07, 0.33, 0.49])
        got = _smooth_step(ts)
        for t, phi in zip(ts, got):
            assert phi == pytest.approx(quad(dphi, -0.5, t, epsabs=1e-15)[0], abs=1e-12)
        assert got[2] == 0.5
        assert np.array_equal(_smooth_step(np.array([-3.0, -0.5, 0.5, 3.0])), [0, 0, 1, 1])

    def test_2d_tensor(self):
        b = PartitionBump(dim=2)
        assert b.c0 == 9.0
        pts = np.array([[0.5, 0.5], [1.5, 0.0], [0.0, 2.5]])
        vals = b(pts)
        assert vals[0] == pytest.approx(1.0, abs=1e-13)
        assert vals[1] == pytest.approx(0.5, abs=1e-12)
        assert vals[2] == 0.0


class TestLocalization:
    def test_s0_ratio_inside_pointwise_bounds(self):
        b = PartitionBump()
        smin, smax = b.squared_sum_range()
        for seed in (0, 1, 2):
            v = random_vector(1, 16, Convention.PAPER_H, seed, band=8)
            r = localization_norm(v, 0.0, b, 8) / sobolev_norm(v, 0.0)
            assert math.sqrt(smin) - 1e-6 <= r <= math.sqrt(smax) + 1e-6

    def test_ratio_stability_across_truncations(self):
        b = PartitionBump()
        rs = []
        for N in (16, 32):
            v = random_vector(1, N, Convention.PAPER_H, 7, band=8)
            M = int(math.ceil(math.sqrt(2 * N + 1))) + 2
            rs.append(localization_norm(v, 1.0, b, M) / sobolev_norm(v, 1.0))
        assert max(rs) / min(rs) <= 1.05  # same underlying function

    @pytest.mark.filterwarnings("error")
    def test_separable_2d_factorizes_at_s0(self):
        # f(x) g(y) localized by eta(x) eta(y): the cell norms factor, so the
        # 2D sum is the product of the 1D sums up to the graded truncation
        # |alpha| <= N + 24 of each piece (measured 1.4e-4)
        f = random_vector(1, 12, Convention.PAPER_H, 3, band=3)
        g = random_vector(1, 12, Convention.PAPER_H, 4, band=3)
        alpha = index_array(2, 12)
        fg = SpectralVector(2, 12, Convention.PAPER_H,
                            f.coeffs[alpha[:, 0]] * g.coeffs[alpha[:, 1]])
        b1 = PartitionBump()
        two = localization_norm(fg, 0.0, PartitionBump(dim=2), 6)
        one = localization_norm(f, 0.0, b1, 6) * localization_norm(g, 0.0, b1, 6)
        assert abs(two / one - 1.0) <= 2e-4

    def test_boundary_warning(self):
        b = PartitionBump()
        v = random_vector(1, 32, Convention.PAPER_H, 11)
        with pytest.warns(UserWarning, match="boundary lattice"):
            localization_norm(v, 0.0, b, 2)


class TestPotentialProbe:
    def test_ground_state_moment_value(self):
        # || x^2 hh_0 ||_2 = sqrt(3)/4 by the quartic Gaussian moment
        v = SpectralVector.unit(1, 8, Convention.BARGMANN_H, 0)
        moment = quad(lambda x: x ** 4 * math.sqrt(2 / math.pi) * math.exp(-2 * x * x),
                      -10, 10)[0]
        assert potential_bound_probe(v, 1.0) == pytest.approx(math.sqrt(moment), rel=1e-10)
        assert math.sqrt(moment) == pytest.approx(math.sqrt(3) / 4, rel=1e-10)

    def test_s_zero_is_identity(self):
        v = random_vector(1, 12, Convention.PAPER_H, 3)
        assert potential_bound_probe(v, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_bounded_across_truncations(self):
        worst = 0.0
        for N in (8, 16, 32):
            for seed in range(5):
                v = random_vector(1, N, Convention.PAPER_H, 60 + seed)
                worst = max(worst, potential_bound_probe(v, 1.0))
        assert worst <= 1.0  # observed plateau ~0.80; unit bound with margin


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.floats(0, 3), st.floats(0, 3))
def test_norm_monotonicity_property(seed, s, t):
    v = random_vector(1, 12, Convention.BARGMANN_H, seed)
    lo, hi = sorted((s, t))
    assert sobolev_norm(v, lo) <= sobolev_norm(v, hi) * (1 + 1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.floats(0.05, 1.2), st.floats(0.05, 1.2))
def test_semigroup_law_property(seed, t1, t2):
    v = random_vector(1, 10, Convention.PAPER_H, seed)
    a = heat_semigroup(heat_semigroup(v, t1), t2)
    b = heat_semigroup(v, math.sqrt(t1 * t1 + t2 * t2))
    assert np.abs(a.coeffs - b.coeffs).max() <= 1e-13
