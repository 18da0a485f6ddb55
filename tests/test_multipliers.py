import numpy as np
import pytest

from focklab.multipliers import (
    REGISTRY,
    bump,
    chirp43,
    constant,
    modulation,
    parse_multiplier,
    signum,
)


def test_constant():
    m = constant(2.5)
    xs = np.linspace(-3, 3, 7)
    assert np.all(m(xs) == 2.5)
    assert m.label == "constant:2.5"


def test_modulation_unimodular():
    m = modulation(0.7)
    xs = np.linspace(-5, 5, 11)
    assert np.abs(np.abs(m(xs)) - 1).max() <= 1e-15
    assert m(np.array([0.0]))[0] == 1.0


def test_modulation_vector_argument():
    m = modulation([0.5, -0.25])
    pts = np.array([[1.0, 2.0], [0.0, 0.0]])
    want = np.exp(-2j * (0.5 * 1.0 - 0.25 * 2.0))
    assert m(pts)[0] == pytest.approx(want)
    assert m(pts)[1] == 1.0


def test_signum_and_chirp_are_one_dimensional():
    for m in (signum(), chirp43()):
        with pytest.raises(ValueError):
            m(np.zeros((3, 2)))


def test_chirp_even_and_unimodular():
    m = chirp43()
    xs = np.linspace(0.1, 4, 9)
    assert np.abs(m(xs) - m(-xs)).max() <= 1e-15
    assert np.abs(np.abs(m(xs)) - 1).max() <= 1e-15
    # phase grows like |x|^{4/3}
    assert np.angle(m(np.array([2.0]))[0]) == pytest.approx(2 ** (4 / 3), abs=1e-12)


def test_bump_profile():
    m = bump()
    assert m(np.array([0.0]))[0] == 1.0
    assert abs(m(np.array([1.0]))[0]) == pytest.approx(np.exp(-1))
    pts = np.array([[1.0, 1.0]])
    assert m(pts)[0] == pytest.approx(np.exp(-2))


def test_parse_multiplier():
    assert parse_multiplier("constant:2")(np.zeros(1))[0] == 2.0
    assert parse_multiplier("modulation:0.7").label == "modulation:0.7"
    assert parse_multiplier("signum").label == "signum"
    assert parse_multiplier("chirp43").label == "chirp43"
    assert parse_multiplier("bump").label == "bump"
    with pytest.raises(KeyError):
        parse_multiplier("nope")
    assert set(REGISTRY) == {"constant", "modulation", "signum", "chirp43", "bump"}


def test_registry_holds_constructor_and_parameter_counts():
    counts = {name: (lo, hi) for name, (_, lo, hi) in REGISTRY.items()}
    assert counts == {"constant": (0, 1), "modulation": (1, 1), "signum": (0, 0),
                      "chirp43": (0, 0), "bump": (0, 1)}
    for name, (make, lo, _) in REGISTRY.items():
        assert make(*[0.5] * lo).label.startswith(name)


@pytest.mark.parametrize("ident", ["signum:1", "chirp43:2", "bump:1,2", "constant:1,2",
                                   "modulation", "modulation:0.5,0.5"])
def test_parse_multiplier_checks_parameter_count(ident):
    name = ident.partition(":")[0]
    with pytest.raises(ValueError, match=f"multiplier '{name}' takes"):
        parse_multiplier(ident)


def test_modulation_components_must_match_point_dimension():
    with pytest.raises(ValueError, match="2-component .* dimension 1"):
        modulation([0.5, 0.5])(np.linspace(-1, 1, 5))
    with pytest.raises(ValueError, match="1-component .* dimension 2"):
        modulation(0.5)(np.zeros((3, 2)))


@pytest.mark.parametrize("ident", ["modulation:nan", "constant:inf", "modulation:0.5,-inf",
                                   "bump:nan"])
def test_parse_multiplier_rejects_non_finite_parameters(ident):
    with pytest.raises(ValueError, match="finite"):
        parse_multiplier(ident)


@pytest.mark.parametrize("width", [0.0, -1.0])
def test_bump_width_must_be_positive(width):
    with pytest.raises(ValueError, match="positive"):
        bump(width)
