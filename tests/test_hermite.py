import itertools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from focklab.errors import EvaluationRangeError, FockLabError
from focklab.hermite import (
    Convention,
    _cartesian,
    _graded_product,
    SpectralVector,
    convert_convention,
    eval_hermite,
    gauss_hermite,
    hermite_axis_table,
    index_array,
    index_count,
    index_position,
    ladder,
    ladder_factor_squared,
    project,
    random_vector,
    synthesize,
)

mp.mp.dps = 40


def _mp_paper_h(k, x):
    """Normalized oscillator eigenfunction by the same recurrence in 40-digit
    arithmetic; the independent deep oracle."""
    x = mp.mpf(x) if not isinstance(x, complex) else mp.mpc(x)
    p0 = mp.pi ** mp.mpf("-0.25") * mp.e ** (-x * x / 2)
    if k == 0:
        return p0
    p1 = mp.sqrt(2) * x * p0
    for j in range(1, k):
        p0, p1 = p1, mp.sqrt(mp.mpf(2) / (j + 1)) * x * p1 - mp.sqrt(mp.mpf(j) / (j + 1)) * p0
    return p1


def _graded_reference(n, N):
    """Every alpha in N_0^n with |alpha| <= N, sorted by (|alpha|, alpha)."""
    rows = [a for a in itertools.product(range(N + 1), repeat=n) if sum(a) <= N]
    return sorted(rows, key=lambda a: (sum(a), a))


class TestIndexArray:
    def test_enumeration_graded_and_complete(self):
        for n in range(1, 5):
            for N in range(9):
                arr = index_array(n, N)
                rows = [tuple(a) for a in arr.tolist()]
                assert arr.dtype == np.int64 and not arr.flags.writeable
                assert len(rows) == index_count(n, N) == math.comb(N + n, n)
                assert len(set(rows)) == len(rows)
                orders = arr.sum(axis=1)
                assert np.all(np.diff(orders) >= 0)
                # graded, lexicographic within each grade
                assert rows == _graded_reference(n, N)
                assert index_position(n, N) == {a: i for i, a in enumerate(rows)}
                # each grade set |alpha| <= k is the prefix of length index_count(n, k)
                for k in range(N + 1):
                    m = index_count(n, k)
                    assert np.all(orders[:m] <= k) and np.all(orders[m:] > k)

    def test_rejects_n_below_1_and_negative_N(self):
        with pytest.raises(ValueError):
            index_array(0, 3)
        with pytest.raises(ValueError):
            index_array(2, -1)
        with pytest.raises(ValueError, match="band"):
            random_vector(1, 4, Convention.PAPER_H, 0, band=-1)

    @pytest.mark.parametrize("n,N", [(2, 6), (3, 4)])
    def test_band_zeroes_exactly_the_grades_above_it(self, n, N):
        labels = _graded_reference(n, N)
        for band in range(N + 2):
            c = random_vector(n, N, Convention.PAPER_H, 11, band=band).coeffs
            for alpha, x in zip(labels, c):
                assert (x == 0) == (sum(alpha) > band), (band, alpha)

    @pytest.mark.parametrize("alpha", [(1, -1), (5, 0), (1, 2, 0), 7], ids=str)
    def test_out_of_range_multi_index_names_the_index_set(self, alpha):
        v = random_vector(2, 4, Convention.FOCK, 1)
        unit = SpectralVector.unit
        for lookup in (lambda: v[alpha], lambda: unit(2, 4, Convention.FOCK, alpha)):
            with pytest.raises(FockLabError, match=r"n=2, N=4") as exc:
                lookup()
            assert repr(alpha) in str(exc.value)


class TestTensorLayout:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_cartesian_runs_the_last_coordinate_fastest(self, dim):
        a = np.array([-1.5, 0.0, 2.0, 7.0])
        want = np.array(list(itertools.product(a, repeat=dim)))
        np.testing.assert_array_equal(_cartesian(a, dim), want)

    @pytest.mark.parametrize("n,N", [(1, 6), (2, 5), (3, 4)])
    def test_graded_product_multiplies_axis_rows(self, n, N):
        rng = np.random.default_rng(n)
        tables = [rng.standard_normal((N + 1, 3)) for _ in range(n)]
        want = np.array([math.prod(t[k] for t, k in zip(tables, alpha))
                         for alpha in _graded_reference(n, N)])
        np.testing.assert_array_equal(_graded_product(tables, N), want)


class TestEvaluation:
    def test_paper_h_closed_forms_at_zero(self):
        assert eval_hermite(0, 0.0) == pytest.approx(math.pi ** -0.25, rel=1e-15)
        assert eval_hermite(1, 0.0) == 0.0
        # closed form -1/(sqrt(2) pi^{1/4}), cross-checked against the recurrence
        assert eval_hermite(2, 0.0) == pytest.approx(-1 / (math.sqrt(2) * math.pi ** 0.25),
                                                     rel=1e-14)

    def test_bargmann_h_ground_state(self):
        xs = np.linspace(-2, 2, 9)
        got = hermite_axis_table(0, xs, Convention.BARGMANN_H)[0]
        assert got == pytest.approx((2 / math.pi) ** 0.25 * np.exp(-xs ** 2), rel=1e-14)

    def test_rescaling_relation_between_conventions(self):
        # hh_k(x) = 2^{1/4} h_k(sqrt(2) x)
        xs = np.linspace(-3, 3, 11)
        for k in (0, 1, 5, 12):
            lhs = hermite_axis_table(k, xs, Convention.BARGMANN_H)[k]
            rhs = 2 ** 0.25 * hermite_axis_table(k, math.sqrt(2) * xs, Convention.PAPER_H)[k]
            assert lhs == pytest.approx(rhs, rel=1e-13)

    # x up to 31.4 covers the nodes of the order-512 rule
    @pytest.mark.parametrize("k", [10, 50, 120, 200, 248, 300])
    @pytest.mark.parametrize("x", [0.3, 4.0, 11.5, 19.5, 22.0, 26.0, 31.4])
    def test_deep_recurrence_matches_mpmath(self, k, x):
        want = float(_mp_paper_h(k, x))
        got = eval_hermite(k, x)
        if want != 0:
            assert abs(got - want) / abs(want) <= 1e-12

    def test_complex_argument_against_mpmath(self):
        z = 0.7 - 0.4j
        want = complex(_mp_paper_h(6, z))
        assert abs(eval_hermite(6, z) - want) <= 1e-13 * abs(want)

    def test_overflow_guard(self):
        with pytest.raises(EvaluationRangeError):
            eval_hermite(2, 60j, Convention.PAPER_H)
        with pytest.raises(EvaluationRangeError):
            eval_hermite(2, 40j, Convention.BARGMANN_H)
        eval_hermite(2, 30j, Convention.PAPER_H)  # inside the envelope


class TestProjection:
    def test_unit_vector_recovery(self, grid2):
        u = SpectralVector.unit(1, 8, Convention.BARGMANN_H, 3)
        v = project(lambda x: synthesize(u, x), 8, grid2, Convention.BARGMANN_H)
        off = v.coeffs.copy()
        off[3] -= 1
        assert np.abs(off).max() <= 1e-10

    def test_linearity(self, grid2):
        f = lambda x: (hermite_axis_table(5, x, Convention.BARGMANN_H)[0]
                       + 2 * hermite_axis_table(5, x, Convention.BARGMANN_H)[5])
        v = project(f, 8, grid2, Convention.BARGMANN_H)
        assert v.coeffs[0] == pytest.approx(1, abs=1e-12)
        assert v.coeffs[5] == pytest.approx(2, abs=1e-12)

    def test_x_times_ground_state_paper_h(self, grid1):
        # <x h_0, h_1> = 1/sqrt(2); oracle: direct Gaussian integral below
        v = project(lambda x: x * hermite_axis_table(0, x, Convention.PAPER_H)[0],
                    6, grid1, Convention.PAPER_H)
        oracle = quad(lambda x: x * math.pi ** -0.25 * math.exp(-x * x / 2)
                      * math.sqrt(2) * x * math.pi ** -0.25 * math.exp(-x * x / 2),
                      -12, 12)[0]
        assert oracle == pytest.approx(1 / math.sqrt(2), rel=1e-10)
        assert v.coeffs[1] == pytest.approx(oracle, rel=1e-12)

    def test_x_times_ground_state_bargmann_h(self, grid2):
        # the rescaled system halves the first-excited overlap: <x hh_0, hh_1> = 1/2
        v = project(lambda x: x * hermite_axis_table(0, x, Convention.BARGMANN_H)[0],
                    6, grid2, Convention.BARGMANN_H)
        oracle = quad(lambda x: 2 * math.sqrt(2 / math.pi) * 2 * x * x * math.exp(-2 * x * x),
                      -12, 12)[0] / 2
        assert v.coeffs[1] == pytest.approx(oracle, rel=1e-12)
        assert v.coeffs[1] == pytest.approx(0.5, rel=1e-12)

    def test_roundtrip_random(self, grid2):
        v = random_vector(1, 20, Convention.BARGMANN_H, 77)
        w = project(lambda x: synthesize(v, x), 20, grid2, Convention.BARGMANN_H)
        assert np.abs(w.coeffs - v.coeffs).max() <= 1e-10

    def test_roundtrip_of_the_top_degree_at_order_512(self):
        # measured 5.5e-15
        u = SpectralVector.unit(1, 248, Convention.BARGMANN_H, 248)
        v = project(lambda x: synthesize(u, x), 248, gauss_hermite(512, 2.0, 1),
                    Convention.BARGMANN_H)
        assert np.abs(v.coeffs - u.coeffs).max() <= 2e-14

    def test_complex_synthesis_extended_precision(self):
        v = random_vector(1, 20, Convention.BARGMANN_H, 3)
        z = 0.5 + 0.3j
        # independent 40-digit sum
        x = mp.mpc(z)
        p = [(mp.mpf(2) / mp.pi) ** mp.mpf("0.25") * mp.e ** (-x * x)]
        p.append(2 * x * p[0])
        for j in range(1, 20):
            p.append(2 / mp.sqrt(j + 1) * x * p[-1] - mp.sqrt(mp.mpf(j) / (j + 1)) * p[-2])
        want = complex(mp.fsum((complex(c) * pk for c, pk in zip(v.coeffs, p)),
                               absolute=False))
        assert abs(synthesize(v, z) - want) <= 1e-10


class TestLadder:
    def test_annihilates_ground_state(self):
        v = SpectralVector.unit(1, 6, Convention.PAPER_H, 0)
        assert ladder(v, "lower").norm() == 0.0

    def test_oscillator_composition_is_diagonal(self):
        # (1/2)(H_j H_-j + H_-j H_j) = 2k+1: exact on the integer factor level
        for k in range(0, 50):
            assert Fraction(ladder_factor_squared(k, "raise")
                            + ladder_factor_squared(k, "lower"), 2) == Fraction(2 * k + 1)
        # and tight along the float path
        for k in (0, 3, 11):
            v = SpectralVector.unit(1, 16, Convention.PAPER_H, k)
            comp = 0.5 * (ladder(ladder(v, "raise"), "lower").coeffs
                          + ladder(ladder(v, "lower"), "raise").coeffs)
            assert comp[k] == pytest.approx(2 * k + 1, rel=4e-16)

    def test_raise_factor_with_quadrature_oracle(self, grid1):
        # <H_{-1} h_3, h_4> = sqrt(8) via (-d/dx + x) h_3 against h_4
        h = 1e-4
        xs = grid1.nodes[:, 0]
        t = hermite_axis_table(4, np.concatenate([xs - h, xs + h, xs]), Convention.PAPER_H)
        n = len(xs)
        deriv = (t[3][n:2 * n] - t[3][:n]) / (2 * h)
        val = float(np.sum(grid1.dx_weights * (-deriv + xs * t[3][2 * n:]) * t[4][2 * n:]))
        assert val == pytest.approx(math.sqrt(8), abs=1e-7)
        v = SpectralVector.unit(1, 10, Convention.PAPER_H, 3)
        assert ladder(v, "raise").coeffs[4] == pytest.approx(math.sqrt(8), rel=1e-15)

    def test_raise_drops_the_top_grade(self):
        v = SpectralVector.unit(1, 5, Convention.PAPER_H, 5)
        r = ladder(v, "raise")
        assert r.norm() == 0.0

    @pytest.mark.parametrize("n,N", [(2, 7), (3, 5)])
    def test_matches_dict_reference(self, n, N):
        # push each coefficient along the axis by hand, keyed by its multi-index
        labels = _graded_reference(n, N)
        v = random_vector(n, N, Convention.PAPER_H, 31 + n)
        for axis in range(1, n + 1):
            j = axis - 1
            for direction in ("lower", "raise"):
                out = {}
                for alpha, c in zip(labels, v.coeffs):
                    beta = list(alpha)
                    if direction == "lower":
                        if alpha[j] == 0:
                            continue
                        beta[j] -= 1
                        out[tuple(beta)] = math.sqrt(2 * alpha[j]) * c
                    elif sum(alpha) == N:
                        continue
                    else:
                        beta[j] += 1
                        out[tuple(beta)] = math.sqrt(2 * alpha[j] + 2) * c
                want = np.array([out.get(a, 0.0) for a in labels])
                got = ladder(v, direction, axis)
                np.testing.assert_allclose(got.coeffs, want, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("convention", [Convention.FOCK, Convention.BARGMANN_H])
    def test_refuses_the_other_systems(self, convention):
        v = random_vector(1, 8, convention, 1)
        for direction in ("lower", "raise"):
            with pytest.raises(ValueError, match="paper-h"):
                ladder(v, direction)

    def test_multi_axis(self):
        v = SpectralVector.unit(2, 4, Convention.PAPER_H, (1, 2))
        w = ladder(v, "lower", axis=2)
        assert w[(1, 1)] == pytest.approx(math.sqrt(4))
        u = ladder(v, "raise", axis=1)
        assert u[(2, 2)] == pytest.approx(math.sqrt(2 * 1 + 2))


class TestConventions:
    def test_roundtrip_identity(self):
        v = random_vector(1, 10, Convention.PAPER_H, 5)
        w = convert_convention(convert_convention(v, Convention.BARGMANN_H),
                               Convention.PAPER_H)
        assert np.array_equal(w.coeffs, v.coeffs)
        assert w.norm() == v.norm()

    def test_pointwise_values_change(self):
        u = SpectralVector.unit(1, 4, Convention.PAPER_H, 0)
        assert synthesize(u, 0.0) == pytest.approx(math.pi ** -0.25)
        assert synthesize(convert_convention(u, Convention.BARGMANN_H), 0.0) \
            == pytest.approx((2 / math.pi) ** 0.25)

    def test_fock_retag_rejected(self):
        v = random_vector(1, 4, Convention.PAPER_H, 1)
        with pytest.raises(ValueError):
            convert_convention(v, Convention.FOCK)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(4, 24))
def test_parseval_roundtrip_property(seed, N):
    v = random_vector(1, N, Convention.BARGMANN_H, seed)
    grid = gauss_hermite(N + 12, 2.0, 1)
    w = project(lambda x: synthesize(v, x), N, grid, Convention.BARGMANN_H)
    assert np.abs(w.coeffs - v.coeffs).max() <= 1e-9
    assert v.norm() == pytest.approx(float(np.linalg.norm(v.coeffs)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 12), st.integers(1, 2))
def test_ladder_adjointness_property(seed, k, axis_count):
    # <raise u, v> == <u, lower v> on coefficients away from the cutoff
    n = axis_count
    N = 14
    u = random_vector(n, N, Convention.PAPER_H, seed, band=N - 2)
    v = random_vector(n, N, Convention.PAPER_H, seed + 1, band=N - 2)
    lhs = np.vdot(v.coeffs, ladder(u, "raise").coeffs)
    rhs = np.vdot(ladder(v, "lower").coeffs, u.coeffs)
    assert lhs == pytest.approx(rhs, abs=1e-12)
