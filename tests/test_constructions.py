"""Squared-argument construction, roots-of-unity family, classical family."""

import math

import numpy as np
import pytest

from turanlab import (
    ClassSpec,
    Interval,
    RegimeError,
    SearchConfig,
    argmax_abs_derivative,
    classical_family,
    is_member,
    remark_family,
    sup_norm,
    thm24_construct,
    turan_ratio,
)
from turanlab import bounds, constructions, supnorm

from oracles import squared_argument_min_ratio

INNER_CFG = SearchConfig(budget=1200, restarts=4, seed=0)

RATIO_SQ = 1.539600717839002   # (1-x^2)^2 on [-1,1]


def test_thm24_smallest_case_reproduces_squared_parabola():
    rep = thm24_construct(2, 1, INNER_CFG)
    assert rep.class_check.ok
    assert rep.P.degree == 4
    assert rep.ratio.value == pytest.approx(RATIO_SQ, rel=1e-9)
    # zeros of P come in +-sqrt pairs
    sq = sorted(z.real**2 + z.imag**2 for z in rep.P.zeros)
    assert sq == pytest.approx([1.0, 1.0, 1.0, 1.0], abs=1e-9)


def test_thm24_membership_and_details():
    rep = thm24_construct(6, 2, INNER_CFG)
    assert rep.class_check.ok
    assert rep.P.degree <= 12
    assert is_member(rep.P, ClassSpec(12, 4, pin_interval_zero=True))
    for key in ("inner_ratio", "derivative_argmax", "confinement_bound",
                "confinement"):
        assert key in rep.details
    assert rep.details["confinement"] in ("vacuous", "inside", "outside")


def test_thm24_confinement_inside_once_the_window_is_not_vacuous():
    # 10(2k + 1) = 30 < n = 60: |P'| peaks at 0.0917, inside sqrt(1/2)
    rep = thm24_construct(60, 1, SearchConfig(budget=200, restarts=1, seed=1))
    assert rep.details["confinement"] == "inside"
    assert rep.details["confinement_bound"] == pytest.approx(math.sqrt(0.5))
    assert rep.details["derivative_argmax"] == pytest.approx(0.0917, abs=1e-4)


def test_thm24_k2_matches_weighted_scan_oracle():
    # Q must minimize the ratio of P, not ||Q'||/||Q||: the dense phi scan
    # of the exact weighted expression gives the minimum over the family
    for n in (10, 20, 30):
        rep = thm24_construct(n, 2, INNER_CFG)
        assert rep.ratio.value == pytest.approx(squared_argument_min_ratio(n),
                                                rel=1e-6), n


def test_thm24_regime_errors():
    with pytest.raises(RegimeError):
        thm24_construct(4, 0, INNER_CFG)
    with pytest.raises(RegimeError):
        thm24_construct(4, 3, INNER_CFG)


def test_remark_family_m_even_and_in_window():
    for eps in (0.3, 0.2, 0.45):
        rep = remark_family(eps, 2)
        m = rep.details["m"]
        assert m % 2 == 0
        assert 1.0 / eps < m <= 1.0 / eps + 2.0


def test_remark_family_frozen_n1():
    rep = remark_family(0.3, 1)   # (x^4 - 1), argmax of |P'| at 1
    assert rep.details["m"] == 4
    assert rep.ratio.value == pytest.approx(4.0, rel=1e-9)
    assert rep.details["argmax_power"] == pytest.approx(1.0, abs=1e-9)
    assert rep.predicted_bound == pytest.approx(
        (1 / 0.3 + 2.0) ** 0.7 * 4.0 ** 0.3)
    assert rep.ratio.value <= rep.predicted_bound


def test_remark_family_closed_form_argmax():
    for n in (2, 5, 9):
        rep = remark_family(0.3, n)
        m = rep.details["m"]
        closed = (m - 1.0) / (m * n - 1.0)
        assert rep.details["closed_form_argmax_power"] == pytest.approx(closed)
        assert rep.details["argmax_deviation"] <= 1e-6


def test_remark_family_membership():
    rep = remark_family(0.3, 3)
    assert rep.class_check.ok


def test_remark_family_makes_one_pass_of_the_sup_engine(monkeypatch):
    # ||P||, the ratio and the argmax of |P'| come from one pass on [-1, 1]
    # (P is even); the numbers are those of the public functions
    calls, engine = [], supnorm._sup_abs

    def counted(P, I, orders):
        calls.append((I, orders))
        return engine(P, I, orders)

    for module in (supnorm, bounds, constructions):
        monkeypatch.setattr(module, "_sup_abs", counted, raising=False)
    rep = remark_family(0.3, 2)
    assert calls == [(Interval(), (0, 1))]
    monkeypatch.undo()
    assert rep.ratio == turan_ratio(rep.P)
    assert rep.details["norm"] == sup_norm(rep.P).value
    a = argmax_abs_derivative(rep.P, Interval(0.0, 1.0))
    assert rep.details["derivative_argmax"] == pytest.approx(a, rel=1e-9)


def test_remark_family_caps_the_degree():
    # eps = 1e-6 asks for m = 1,000,002 zeros, which would make the sup
    # engine's (zeros x cells) arrays about 16 GB
    with pytest.raises(ValueError, match="exceeds 5000"):
        remark_family(1e-6, 1)
    with pytest.raises(ValueError, match="exceeds 5000"):
        remark_family(0.25, 834)    # m = 6, degree 5004


def test_remark_family_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        remark_family(0.0, 1)
    with pytest.raises(ValueError):
        remark_family(1.5, 1)
    with pytest.raises(ValueError):
        # 1/eps + 2 rounds to 1/eps, so no even m lies in (1/eps, 1/eps + 2]
        remark_family(1e-300, 1)


def test_classical_family_even():
    rep = classical_family("turan-even", 1)   # x^2 - 1
    assert rep.ratio.value == pytest.approx(2.0, rel=1e-12)
    assert rep.details["degree"] == 2
    assert rep.details["turan_lower"] == pytest.approx(math.sqrt(2) / 6)
    q = rep.details["sharpness_quotient"]
    assert q == pytest.approx(2.0 / math.sqrt(2))  # ratio / sqrt(degree)


def test_classical_family_odd():
    rep = classical_family("turan-odd", 1)    # (x^2-1)(x+1)
    assert rep.details["degree"] == 3
    assert rep.ratio.value == pytest.approx(3.375, rel=1e-10)


def test_classical_family_ratio_matches_direct_computation():
    rep = classical_family("turan-even", 3)
    from turanlab import from_zeros
    P = from_zeros(1.0, [1.0, -1.0] * 3)
    assert rep.ratio.value == pytest.approx(turan_ratio(P).value, rel=1e-12)


def test_classical_family_rejects_unknown():
    with pytest.raises(ValueError):
        classical_family("chebyshev", 2)


def test_classical_family_sharpness_law():
    # the even family witnesses Theta(sqrt(n)): quotient stays in [0.15, 2]
    for m in range(1, 26):
        rep = classical_family("turan-even", m)
        assert 0.15 <= rep.details["sharpness_quotient"] <= 2.0, m


def test_thm24_pipeline_identities():
    from turanlab import Interval, sup_norm
    from turanlab.poly import derivative_values

    for n, k in ((6, 1), (10, 2), (9, 4)):
        rep = thm24_construct(n, k, INNER_CFG)
        Q, R, P = rep.intermediate["Q"], rep.intermediate["R"], rep.P
        # sup norms agree through the chain: ||P|| on [-1,1] = ||Q|| on [0,1]
        np_ = sup_norm(P)
        nq = sup_norm(Q, Interval(0.0, 1.0))
        assert np_.value == pytest.approx(nq.value,
                                          abs=np_.err + nq.err + 1e-10)
        # chain rule: P'(x) = 2x R'(x^2) at sample points
        xs = np.linspace(-1.0, 1.0, 100)
        lhs = derivative_values(P, xs)
        rhs = 2.0 * xs * derivative_values(R, xs * xs)
        scale = max(1.0, float(np.max(np.abs(lhs))))
        assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-9 * scale)


def test_remark_family_above_degree_60():
    # degree 80: |P'| peaks inside (0, 1), where the old grid backend ran
    # out of memory
    rep = remark_family(0.5, 20)
    assert rep.P.degree == 80
    assert rep.ratio.err <= 1e-9 * rep.ratio.value
    assert rep.details["argmax_deviation"] <= 1e-6
