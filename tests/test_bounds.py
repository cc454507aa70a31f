"""Closed-form bounds, the certified ratio functional, and verdicts."""

import math

import numpy as np
import pytest

from turanlab import (
    BoundBracket,
    ClassSpec,
    Interval,
    KOMAROV_A,
    RegimeError,
    SearchConfig,
    Verdict,
    bracket_pass,
    class_brackets,
    cor23_lower,
    evaluate_verdict,
    from_zeros,
    komarov_lower,
    lemma34_bracket,
    minimize_ratio,
    sample,
    thm22_lower,
    turan11_lower,
    turan_ratio,
)
from turanlab.supnorm import CertifiedValue

from oracles import grid_ratio

# frozen oracle values (hand derivations + dense-grid cross-checks)
RATIO_SQ = 1.539600717839002       # (x^2-1)^2 : 8/(3*sqrt(3))
RATIO_CUBE = 1.717300206718082     # (x^2-1)^3 : 96/(25*sqrt(5))
RATIO_MIXED = 3.375                # (x^2-1)(x+1) : 27/8 exactly
THM22_EDGE = 0.7066365662357814    # thm22_lower(163000, 1)


def test_komarov_constant():
    assert KOMAROV_A == pytest.approx(2.0 / (3.0 * math.sqrt(210 * math.e)),
                                      abs=1e-18)
    assert KOMAROV_A == pytest.approx(0.027903061263525698, abs=1e-17)


def test_turan_ratio_trivial_cases():
    assert turan_ratio(from_zeros(1.0, [0.0])).value == pytest.approx(1.0)
    assert turan_ratio(from_zeros(1.0, [1.0])).value == pytest.approx(0.5)


def test_turan_ratio_frozen_values():
    sq = from_zeros(1.0, [1.0, 1.0, -1.0, -1.0])
    assert turan_ratio(sq).value == pytest.approx(RATIO_SQ, rel=1e-10)
    cube = from_zeros(1.0, [1.0, -1.0] * 3)
    assert turan_ratio(cube).value == pytest.approx(RATIO_CUBE, rel=1e-10)
    mixed = from_zeros(1.0, [1.0, -1.0, -1.0])
    assert turan_ratio(mixed).value == pytest.approx(RATIO_MIXED, rel=1e-10)


def test_turan_ratio_matches_grid():
    rng = np.random.Generator(np.random.Philox(key=np.uint64(17)))
    for _ in range(15):
        deg = int(rng.integers(1, 14))
        zeros = rng.uniform(-1, 1, deg) + 1j * rng.uniform(0, 1, deg)
        P = from_zeros(1.0, zeros)
        cv = turan_ratio(P)
        approx = grid_ratio(P, m=100_001)
        assert cv.value == pytest.approx(approx, rel=1e-4)


def test_turan_ratio_rejects_zero():
    # ||P|| = 0 on the one-point interval at the zero of P
    with pytest.raises(ValueError, match="vanishing sup-norm denominator"):
        turan_ratio(from_zeros(1.0, [0.5]), Interval(0.5, 0.5))


def test_turan_ratio_scale_invariance():
    P = from_zeros(1.0, [0.3, -0.6, 0.1 + 0.2j])
    Q = from_zeros(123.456, [0.3, -0.6, 0.1 + 0.2j])
    assert turan_ratio(P).value == pytest.approx(turan_ratio(Q).value,
                                                 rel=1e-12)


def test_turan11_lower():
    assert turan11_lower(6) == pytest.approx(math.sqrt(6) / 6)
    assert turan11_lower(1) == pytest.approx(1.0 / 6.0)


def test_komarov_lower():
    assert komarov_lower(4) == pytest.approx(KOMAROV_A * 2.0)


def test_thm22_lower_edge_and_regime():
    assert thm22_lower(163000, 1) == pytest.approx(THM22_EDGE, abs=1e-15)
    assert thm22_lower(326000, 2) == pytest.approx(THM22_EDGE, abs=1e-15)
    with pytest.raises(RegimeError):
        thm22_lower(162999, 1)
    with pytest.raises(RegimeError):
        thm22_lower(163000, 0)


def test_cor23_lower():
    assert cor23_lower(5, 5) == 0.5
    assert cor23_lower(808**2 + 1, 1) == pytest.approx(1.0)
    # the sqrt branch only wins once (n-k)/k > 404^2... stays at 1/2 for small n
    assert cor23_lower(30, 1) == 0.5
    with pytest.raises(RegimeError):
        cor23_lower(4, 0)


def test_class_brackets_sources_and_order():
    assert class_brackets(ClassSpec(4, 0)) == (
        BoundBracket(komarov_lower(4), "komarov"),)
    assert class_brackets(ClassSpec(4, 0, True)) == class_brackets(ClassSpec(4, 0))
    assert class_brackets(ClassSpec(8, 1, True)) == (BoundBracket(0.5, "cor23"),)
    # Cor 2.3 needs the pinned zero; Thm 2.2 needs k <= n/163000
    assert class_brackets(ClassSpec(8, 1)) == ()
    assert class_brackets(ClassSpec(163000, 1)) == (
        BoundBracket(THM22_EDGE, "thm22"),)
    assert [b.source for b in class_brackets(ClassSpec(163000, 1, True))] == [
        "thm22", "cor23"]
    assert class_brackets(ClassSpec(0, 0)) == ()


def test_class_brackets_lower_edges():
    assert class_brackets(ClassSpec(4, 0))[0].lower == pytest.approx(komarov_lower(4))
    assert class_brackets(ClassSpec(9, 2, True))[0].lower == pytest.approx(
        cor23_lower(9, 2))


def test_lemma34_bracket():
    assert lemma34_bracket(13, 1).lower == pytest.approx(1.0)
    assert lemma34_bracket(2, 1).lower == pytest.approx(1.0 / 12.0)
    with pytest.raises(ValueError):
        lemma34_bracket(5, 5)


def test_bound_bracket_invariants():
    with pytest.raises(ValueError):
        BoundBracket(lower=-0.1, source="turan11")


def test_bracket_pass_uses_error_radius():
    b = BoundBracket(lower=1.0, source="turan11")
    assert bracket_pass(CertifiedValue(0.9999999999, 1e-9), b)
    assert not bracket_pass(CertifiedValue(0.99, 1e-9), b)


def test_verdicts_and_searches_share_the_class_bounds():
    # one policy: a verdict's bounds are Turan's member-specific one (when
    # every zero is real in [-1, 1]) followed by the class bounds, and a
    # search reports the strongest class bound
    cfg = SearchConfig(budget=1, restarts=1, seed=0)
    for n in range(1, 9):
        for k in range(n + 1):
            for pin in (False, True):
                spec = ClassSpec(n, k, pin)
                expected = class_brackets(spec)
                for P in (sample(spec, seed=n), from_zeros(1.0, [1.0] * n)):
                    real = all(abs(z.imag) <= 1e-9 and abs(z.real) <= 1.0
                               for z in P.zeros)
                    turan = ((BoundBracket(turan11_lower(n), "turan11"),)
                             if real else ())
                    v = evaluate_verdict(P, spec)
                    assert v.brackets == turan + expected, (spec, v.brackets)
                res = minimize_ratio(spec, cfg)
                assert res.bracket.lower == max(
                    (b.lower for b in expected), default=0.0), spec


def test_verdict_all_real_zero_case():
    P = from_zeros(1.0, [1.0, -1.0] * 3)
    v = evaluate_verdict(P, ClassSpec(6, 0, pin_interval_zero=True))
    sources = [b.source for b in v.brackets]
    assert "turan11" in sources and "komarov" in sources
    assert all(v.passes)
    assert v.ratio.value == pytest.approx(RATIO_CUBE, rel=1e-10)


def test_verdict_pinned_k_positive():
    P = from_zeros(1.0, [1.0])
    v = evaluate_verdict(P, ClassSpec(1, 1, pin_interval_zero=True))
    sources = [b.source for b in v.brackets]
    assert "cor23" in sources
    assert all(v.passes)
    assert v.ratio.value == pytest.approx(0.5, abs=1e-12)


def test_verdict_rejects_non_member():
    with pytest.raises(Exception):
        evaluate_verdict(from_zeros(1.0, [5.0, -7.0]), ClassSpec(2, 0))


def test_verdict_is_dataclass_like():
    P = from_zeros(1.0, [0.5, 0.5j])
    v = evaluate_verdict(P, ClassSpec(2, 0))
    assert isinstance(v, Verdict)
    assert len(v.brackets) == len(v.passes) >= 1
