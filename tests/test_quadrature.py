import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_hermite

from focklab.errors import GridMismatchError
from focklab.hermite import Convention, gauss_hermite, project


def test_single_node_rule():
    g = gauss_hermite(1, 1.0, 1)
    assert g.axis_nodes[0] == pytest.approx(0.0, abs=1e-15)
    assert g.axis_weights[0] == pytest.approx(math.sqrt(math.pi), rel=1e-14)


def test_two_node_rule_matches_hermite_roots():
    # roots of the degree-2 Hermite polynomial 4x^2 - 2 are +-1/sqrt(2)
    g = gauss_hermite(2, 1.0, 1)
    assert np.sort(g.axis_nodes) == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)], rel=1e-14)
    assert g.axis_weights == pytest.approx([math.sqrt(math.pi) / 2] * 2, rel=1e-14)


def test_two_node_rule_integrates_x_squared_exactly():
    g = gauss_hermite(2, 1.0, 1)
    val = float(np.sum(g.weights * g.nodes[:, 0] ** 2))
    assert val == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-14)


@pytest.mark.parametrize("order,scale,dim", [(8, 1.0, 1), (40, 2.0, 1), (64, 0.5, 1),
                                             (16, 1.0, 2), (10, 2.0, 3)])
def test_weight_sum(order, scale, dim):
    g = gauss_hermite(order, scale, dim)
    target = (math.pi / scale) ** (dim / 2)
    assert float(g.weights.sum()) == pytest.approx(target, rel=1e-12)


@pytest.mark.parametrize("order", [4, 16, 64])
def test_polynomial_exactness(order):
    # exact for monomials up to degree 2*order - 1 against exp(-x^2)
    g = gauss_hermite(order, 1.0, 1)
    for deg in range(0, 2 * order, 4):
        got = float(np.sum(g.weights * g.nodes[:, 0] ** deg))
        want = math.gamma((deg + 1) / 2)  # int x^deg e^{-x^2}, deg even
        assert got == pytest.approx(want, rel=1e-12), deg


def test_scaled_rule_relation():
    u = gauss_hermite(12, 1.0, 1)
    s = gauss_hermite(12, 3.0, 1)
    assert s.axis_nodes == pytest.approx(u.axis_nodes / math.sqrt(3), rel=1e-14)
    assert s.axis_weights == pytest.approx(u.axis_weights / math.sqrt(3), rel=1e-14)


def test_order_cap_and_validation():
    with pytest.raises(ValueError):
        gauss_hermite(513, 1.0, 1)
    with pytest.raises(ValueError):
        gauss_hermite(0, 1.0, 1)
    with pytest.raises(ValueError):
        gauss_hermite(8, -1.0, 1)
    with pytest.raises(ValueError):
        gauss_hermite(2.5, 1.0, 1)


def test_rules_are_built_once_per_normalized_key():
    g = gauss_hermite(64, 2, 1)
    assert gauss_hermite(64, 2.0, 1) is g
    assert gauss_hermite(np.int64(64), np.float64(2.0), np.int64(1)) is g
    assert type(g.scale) is float and type(g.order) is int and type(g.dim) is int
    for a in (g.axis_nodes, g.axis_weights, g.nodes, g.weights, g.dx_weights):
        assert not a.flags.writeable
    assert gauss_hermite(64, 2.0, 2) is not g


def test_projection_rejects_mismatched_scale(grid1):
    with pytest.raises(GridMismatchError):
        project(lambda x: np.exp(-x * x), 8, grid1, Convention.BARGMANN_H)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 48), st.sampled_from([0.5, 1.0, 2.0]))
def test_weights_positive_and_nodes_symmetric(order, scale):
    g = gauss_hermite(order, scale, 1)
    assert np.all(g.weights > 0)
    srt = np.sort(g.axis_nodes)
    assert srt == pytest.approx(-srt[::-1], abs=1e-13)


# scipy switches from Golub-Welsch to an asymptotic method above order 150
@pytest.mark.parametrize("order", [2, 3, 80, 150, 151, 160, 256, 511, 512])
def test_rule_matches_scipy_roots_hermite(order):
    g = gauss_hermite(order, 1.0, 1)
    x, w = roots_hermite(order)
    assert np.abs(g.axis_nodes - x).max() <= 5e-14
    big = w > 1e-280
    assert (np.abs(g.axis_weights - w)[big] / w[big]).max() <= 1e-11


def test_high_order_moments_no_worse_than_scipy():
    # sum w x^{2k} = Gamma(k + 1/2); the numpy rule measured <= 4.3e-15 here,
    # roots_hermite <= 1.8e-14
    g = gauss_hermite(512, 1.0, 1)
    x, w = roots_hermite(512)

    def worst(nodes, weights):
        return max(abs(float(np.sum(weights * nodes ** (2 * k))) - math.gamma(k + 0.5))
                   / math.gamma(k + 0.5) for k in range(0, 101, 5))

    ours = worst(g.axis_nodes, g.axis_weights)
    assert ours <= 1e-14
    assert ours <= worst(x, w)


@pytest.mark.parametrize("order", [1, 3, 151, 511])
def test_odd_orders_carry_an_exact_zero_node(order):
    g = gauss_hermite(order, 1.0, 1)
    assert g.axis_nodes[order // 2] == 0.0
    assert np.array_equal(g.axis_nodes, -g.axis_nodes[::-1])
    assert np.array_equal(g.axis_weights, g.axis_weights[::-1])


# dx weights: 1/(n psi_{n-1}(x)^2) with psi the orthonormal Hermite function,
# referenced by mpmath's closed-form H_{n-1}, not by the recurrence
@pytest.mark.parametrize("order", [2, 3, 80, 151, 256, 511, 512])
def test_dx_weights_match_mpmath(order):
    g = gauss_hermite(order, 1.0, 1)
    k = order - 1
    with mp.workdps(40):
        norm = mp.sqrt(2 ** k * mp.factorial(k) * mp.sqrt(mp.pi))
        want = [float(norm ** 2 / (order * (mp.hermite(k, x) * mp.exp(-x * x / 2)) ** 2))
                for x in map(mp.mpf, g.axis_nodes[order // 2:].tolist())]
    W = g.dx_weights[order // 2:]
    assert np.all(np.isfinite(g.dx_weights)) and np.all(g.dx_weights > 0)
    assert np.array_equal(g.dx_weights, g.dx_weights[::-1])
    assert np.abs(W / want - 1).max() <= 1e-12


@pytest.mark.parametrize("order,scale,dim", [(12, 3.0, 1), (16, 0.5, 2), (10, 2.0, 3)])
def test_dx_weights_tensorize_like_weights(order, scale, dim):
    g = gauss_hermite(order, scale, dim)
    axis = gauss_hermite(order, 1.0, 1).dx_weights / math.sqrt(scale)
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    assert g.dx_weights == pytest.approx(np.prod([m.ravel() for m in mesh], axis=0), rel=1e-15)
    r2 = np.sum(g.nodes * g.nodes, axis=1)
    assert g.dx_weights == pytest.approx(g.weights * np.exp(scale * r2), rel=1e-13)
