"""The verify checks that bound a norm ratio by its exact extremes, the
warnings verify records, the record the runner builds from what a check
returns (or from its crash), and the tolerance defaults, which may not loosen.

Each reference below builds the ratio's quadratic form by polarization,
O(K^2) calls of the public function on sums of unit vectors, independently
of the form matrix the check assembles from the function's tables; the
ladder seminorm's and the Fock equivalence's diagonal forms are checked
against their closed forms.
"""
import json
import math

import numpy as np
import pytest

from focklab import spaces, verify
from focklab.hermite import Convention, SpectralVector
from focklab.reporting import emit_json, strip_timing
from focklab.spaces import (
    PartitionBump,
    eigenvalues,
    localization_norm,
    potential_bound_probe,
    sobolev_norm,
    weighted_fock_norm,
)
from focklab.transforms import weyl_matrix
from focklab.verify import _LADDER, CHECKS, TOLERANCES, VerifyContext, run_suite

N = 8
EXTREMAL = ("spaces.localization-interval", "spaces.fock-equivalence",
            "spaces.potential-bound", "transforms.weyl", "transforms.ladder-seminorm")


def _measured(cid):
    rec, = run_suite(VerifyContext(), only=cid)
    assert rec.status == "pass"
    assert rec.warnings == []
    return rec.measured


def test_kappa_record_reads_the_contraction():
    # lhs / (kappa ||v||) - 1 is a rounding error: equality holds exactly
    assert abs(_measured("spaces.kappa")["contraction"]) <= 1e-15
    rec, = run_suite(VerifyContext(tol_overrides={"spaces.kappa.contraction": -1e-3}),
                     only="spaces.kappa")
    assert rec.status == "fail"


def _polarized_gram(q, K):
    """G[j, k] = <A e_j, A e_k> of the form q(c) = ||A c||^2, by polarization."""
    E = np.eye(K, dtype=complex)
    G = np.empty((K, K), dtype=complex)
    for j in range(K):
        G[j, j] = q(E[j])
        for k in range(j + 1, K):
            G[j, k] = sum(np.conj(p) * q(E[j] + p * E[k]) for p in (1, -1, 1j, -1j)) / 4
            G[k, j] = np.conj(G[j, k])
    return G


def _ratio_extremes(q, s):
    """(min, max) of sqrt(q(c)) / ||c||_s over c in C^{N+1}."""
    d = eigenvalues(1, N) ** (-s / 2)
    ev = np.linalg.eigvalsh(_polarized_gram(q, N + 1) * np.outer(d, d))
    return math.sqrt(ev[0]), math.sqrt(ev[-1])


@pytest.mark.parametrize("s", [0.0, 1.0])
def test_localization_extremes_match_polarization(s):
    bmp = PartitionBump()
    M = 8  # the check's lattice radius at N = 8

    def q(c):
        return localization_norm(SpectralVector(1, N, Convention.PAPER_H, c), s, bmp, M) ** 2

    got = _measured("spaces.localization-interval")["extremes"][f"s={s:g}"][str(N)]
    assert np.allclose(_ratio_extremes(q, s), got, rtol=1e-12, atol=0)


@pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
def test_fock_equivalence_extremes_match_polarization(s):
    def q(c):
        return weighted_fock_norm(SpectralVector(1, N, Convention.FOCK, c), s) ** 2

    got = _measured("spaces.fock-equivalence")["extremes"][f"s={s:g}"][str(N)]
    assert np.allclose(_ratio_extremes(q, s), got, rtol=1e-12, atol=0)


@pytest.mark.parametrize("s", [0.5, 1.0])
def test_potential_bound_top_matches_polarization(s):
    def q(c):
        v = SpectralVector(1, N, Convention.PAPER_H, c)
        return (potential_bound_probe(v, s) * v.norm()) ** 2

    _, top = _ratio_extremes(q, 0.0)  # the probe divides by the plain l2 norm
    got = _measured("spaces.potential-bound")["top_by_N"][f"s={s:g}"][0]
    assert top == pytest.approx(got, rel=1e-12, abs=0)


@pytest.mark.parametrize("s", [0.0, 1.0, 2.5])
@pytest.mark.parametrize("a_abs", [0.25, 1.0, 1.5])
def test_weyl_constant_matches_polarization(s, a_abs):
    W = weyl_matrix(a_abs * np.exp(0.6j), N)

    def q(c):
        return sobolev_norm(W.apply(SpectralVector(1, N, Convention.FOCK, c)), s) ** 2

    _, top = _ratio_extremes(q, s)
    got = _measured("transforms.weyl")["C_by_N"][f"s={s:g},|a|={a_abs:g}"][0]
    assert top / (1 + a_abs) ** s == pytest.approx(got, rel=1e-12, abs=0)


# the radial weight makes the form diagonal in monomials, with
# R_k^2 = m_k / (m_0 (2k+1)^s) and m_k from Gamma(k + 3/2) / Gamma(k + 1)
def _fock_ratio(s, k):
    def m(k):
        g = math.exp(math.lgamma(k + 1.5) - math.lgamma(k + 1))
        return 1 + g if s == 0.5 else k + 2 + 2 * g

    return math.sqrt(m(k) / (m(0) * (2 * k + 1) ** s)) if s else 1.0


@pytest.mark.parametrize("s", [0.5, 1.0])
def test_fock_equivalence_floor_is_the_monomial_limit(s):
    rec, = run_suite(VerifyContext(), only="spaces.fock-equivalence")
    floor = rec.inputs["floor"][f"s={s:g}"]
    R = [_fock_ratio(s, k) for k in (0, 1, 10, 1000, 100000)]
    assert R[0] == 1.0 and R == sorted(R, reverse=True)
    assert floor < R[-1] < floor * (1 + 1e-2)


def test_fock_equivalence_extremes_are_the_closed_forms():
    # on 0..N the top is R_0 = 1, at e_0, and the bottom R_N
    ext = _measured("spaces.fock-equivalence")["extremes"]
    for s in (0.0, 0.5, 1.0):
        assert list(ext[f"s={s:g}"]) == [str(N) for N in _LADDER]
        for N in _LADDER:
            want = [_fock_ratio(s, N), 1.0]
            assert ext[f"s={s:g}"][str(N)] == pytest.approx(want, rel=1e-12, abs=0)


def test_fock_equivalence_sees_a_wrong_radial_rule(monkeypatch):
    # the closed-form route shares no code with the radial rule, so a rule
    # that is off by 1e-12 per degree fails the check
    rule = spaces._radial_moments
    monkeypatch.setattr(spaces, "_radial_moments",
                        lambda lam, s, n: rule(lam, s, n) * (1 + 1e-12 * lam))
    rec, = run_suite(VerifyContext(), only="spaces.fock-equivalence")
    assert rec.status == "fail" and rec.measured["route_defect"] > 1e-13


def test_ladder_seminorm_extremes_are_the_closed_forms():
    # sqrt(Q_j / (2j+1)^k) falls in j: its top is at e_0, its bottom at e_{N-k}
    ext = _measured("transforms.ladder-seminorm")["extremes"]
    ratio = {1: lambda j: (4 * j + 3) / (2 * j + 1),
             2: lambda j: (16 * j * j + 20 * j + 15) / (2 * j + 1) ** 2}
    for k, r in ratio.items():
        assert list(ext[f"k={k}"]) == [str(N) for N in _LADDER]
        for N in _LADDER:
            want = [math.sqrt(r(N - k)), math.sqrt(r(0))]
            assert ext[f"k={k}"][str(N)] == pytest.approx(want, rel=1e-12, abs=0)


def test_extremal_checks_do_not_depend_on_the_seed():
    reports = [strip_timing(emit_json(
        [r for cid in EXTREMAL for r in run_suite(VerifyContext(seed=seed), only=cid)],
        {}, "")) for seed in (0, 1)]
    assert reports[0] == reports[1]


def test_records_carry_their_warnings():
    # at seed 23 only the conjugation check warns: its two N = 96
    # translation matrices at |a| = 3 and 5 lose unitarity
    recs = run_suite(VerifyContext(seed=23))
    assert all(r.status == "pass" for r in recs)
    warned = {r.check_id: r.warnings for r in recs if r.warnings}
    msg = "translation matrix unitarity defect {} at N=96, |a|={}; increase the truncation"
    assert warned == {"transforms.conjugation": [
        {"category": "AccuracyWarning", "message": msg.format("1.51e-01", 3), "count": 1},
        {"category": "AccuracyWarning", "message": msg.format("2.60e+00", 5), "count": 1},
    ]}
    doc = json.loads(emit_json(recs, {}, ""))
    assert [r["warnings"] for r in doc["records"]] == [r.warnings for r in recs]


def test_a_crashed_check_is_a_failed_record(monkeypatch):
    def broken(*args):
        raise RuntimeError("no Weyl matrix today")

    monkeypatch.setattr(verify, "weyl_matrix", broken)
    rec, = run_suite(VerifyContext(), only="transforms.weyl")
    assert rec.status == "fail"
    assert rec.measured == {"error": "RuntimeError: no Weyl matrix today"}
    assert rec.tolerance is None
    assert rec.tolerances == {"transforms.weyl": TOLERANCES["transforms.weyl"]}


@pytest.mark.parametrize("returned", [None, (True, 0.0), (np.array([True, False]), 0.0, {})])
def test_a_malformed_return_is_a_failed_record(monkeypatch, returned):
    i = [cid for cid, _, _ in CHECKS].index("hermite.recurrence-values")
    cid, _, tols = CHECKS[i]
    swapped = [*CHECKS[:i], (cid, lambda ctx, cid: returned, tols), *CHECKS[i + 1:]]
    monkeypatch.setattr(verify, "CHECKS", swapped)
    recs = run_suite(VerifyContext(), only="hermite")
    assert [r.check_id for r in recs] == [c for c, _, _ in CHECKS if c.startswith("hermite")]
    assert [r.status for r in recs] == ["fail" if r.check_id == cid else "pass" for r in recs]
    bad, = [r for r in recs if r.check_id == cid]
    assert bad.tolerance is None and bad.tolerances == {cid: TOLERANCES[cid]}


NO_KEY = ("spaces.norm-monotonicity", "spaces.localization-interval",
          "transforms.ladder-seminorm", "operators.probes")


def test_the_checks_without_a_key_are_these():
    assert tuple(cid for cid, _, tols in CHECKS if not tols) == NO_KEY


@pytest.mark.parametrize("cid", NO_KEY)
def test_a_check_without_a_key_records_no_tolerance(cid):
    rec, = run_suite(VerifyContext(), only=cid)
    assert rec.status == "pass"
    assert rec.tolerance is None and rec.tolerances == {}


# Every tolerance default as it stands.  A default may tighten freely; loosening
# one needs a visible edit of this table, logged in CHANGES.md.
PINNED = {
    "hermite.quadrature-moments": 1e-12,
    "hermite.orthonormality": 1e-12,
    "hermite.recurrence-values": 1e-13,
    "hermite.differential-consistency": 1e-11,
    "hermite.ladder-composition": 1e-13,
    "hermite.projection-roundtrip": 1e-12,
    "hermite.projection-ladder-example": 1e-12,
    "hermite.convention-roundtrip": 1e-13,
    "spaces.fractional-inverse": 1e-13,
    "spaces.heat-semigroup": 1e-13,
    "spaces.square-function": 1e-13,
    "spaces.kappa": 1e-13,
    "spaces.kappa.contraction": 1e-13,
    "spaces.partition-sum": 1e-13,
    "spaces.fock-equivalence": 1e-13,
    "spaces.potential-bound": 1e-13,
    "transforms.bargmann-calibration": 1e-12,
    "transforms.fourier-eigen": 1e-12,
    "transforms.translation": 1e-12,
    "transforms.translation.group-law": 1e-12,
    "transforms.translation.unitarity": 1e-10,
    "transforms.weyl": 1e-13,
    "transforms.conjugation": 1e-11,
    "transforms.conjugation.floor": 1e-11,
    "transforms.translation-ladder": 1e-11,
    "transforms.leibniz": 1e-08,
    "transforms.leibniz.const": 1e-12,
    "transforms.ladder-shift": 1e-12,
    "operators.symbol-closed-forms": 1e-12,
    "operators.symbol-roundtrip": 1e-09,
    "operators.symbol-roundtrip.bump": 1e-10,
    "operators.reproducing": 1e-12,
    "operators.reproducing.linearity": 1e-13,
    "operators.theorem-matrix": 1e-12,
    "operators.modulation-weyl": 1e-12,
    "operators.norm-identity": 0.05,
    "operators.commutation": 1e-11,
    "operators.norm-transport": 1e-13,
    "operators.multiplier-matrix": 1e-12,
}


def test_tolerances_do_not_loosen():
    assert set(TOLERANCES) == set(PINNED)
    assert {k: v for k, v in TOLERANCES.items() if v > PINNED[k]} == {}
