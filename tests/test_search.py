"""Derivative-free minimization of the ratio and the sweep driver."""

import pytest

from turanlab import (
    ClassSpec,
    IncompleteSpec,
    SearchConfig,
    SearchFailure,
    bracket_pass,
    frontier_sweep,
    is_member,
    minimize_incomplete_ratio,
    minimize_ratio,
    thm21_bracket,
    thm24_construct,
)

FAST = SearchConfig(budget=1500, restarts=4, seed=0)


def test_pinned_linear_witness_is_exact():
    res = minimize_ratio(ClassSpec(1, 0, pin_interval_zero=True), FAST)
    assert res.ratio.value == pytest.approx(0.5, abs=1e-9)
    assert res.within_bracket
    assert is_member(res.best, ClassSpec(1, 0, pin_interval_zero=True))


def test_all_free_class_reaches_low_degree_witness():
    # with k = n every zero is free; the degree-1 witness x+1 gives 1/2
    res = minimize_ratio(ClassSpec(4, 4, pin_interval_zero=True), FAST)
    assert res.ratio.value <= 0.5 + 1e-9


def test_warm_candidates_bound_result():
    res = minimize_ratio(ClassSpec(6, 0, pin_interval_zero=True), FAST)
    assert res.warm_best is not None
    assert res.ratio.value <= res.warm_best + 1e-12


def test_search_result_trace_monotone():
    # the trace holds the certified improvements, so it ends at the result
    runs = [minimize_ratio(ClassSpec(3, 1, pin_interval_zero=True), FAST),
            minimize_ratio(ClassSpec(4, 0, pin_interval_zero=True),
                           SearchConfig(budget=300, restarts=3, seed=0))]
    runs += [minimize_incomplete_ratio(IncompleteSpec(6, 3),
                                       SearchConfig(budget=600, restarts=3,
                                                    seed=1), den)
             for den in ("point", "variation", "sup")]
    for res in runs:
        evals = [e for e, _ in res.trace]
        vals = [v for _, v in res.trace]
        assert evals == sorted(evals) and 0 < evals[-1] <= res.evals
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] == res.ratio.value


def test_search_determinism():
    a = minimize_ratio(ClassSpec(3, 0), FAST)
    b = minimize_ratio(ClassSpec(3, 0), FAST)
    assert a.ratio.value == b.ratio.value
    assert a.params == b.params


def test_search_and_construction_run_above_degree_30():
    cfg = SearchConfig(budget=300, restarts=3, seed=1)
    spec = ClassSpec(40, 4, pin_interval_zero=True)
    res = minimize_ratio(spec, cfg)
    assert is_member(res.best, spec)
    assert res.within_bracket
    assert res.ratio.err <= 1e-9 * res.ratio.value

    rep = thm24_construct(40, 2, cfg)
    assert rep.class_check.ok                      # a member of (80, 4)
    assert bracket_pass(rep.ratio, thm21_bracket(80, 4))
    assert rep.ratio.err <= 1e-9 * rep.ratio.value

    table = frontier_sweep([40], [2], cfg)
    assert len(table.rows) == 1 and table.rows[0].ok


def test_search_rejects_constants():
    with pytest.raises(SearchFailure):
        minimize_ratio(ClassSpec(0, 0), FAST)


def test_incomplete_point_small_cases():
    # min ||Q'|| / |Q(1)| over Q = x^(m+1) R:  monomial x^(m+k) is optimal,
    # giving exactly m+k
    res = minimize_incomplete_ratio(IncompleteSpec(1, 1),
                                    SearchConfig(budget=400, restarts=2, seed=0))
    assert res.ratio.value == pytest.approx(2.0, abs=1e-6)
    res = minimize_incomplete_ratio(IncompleteSpec(2, 1),
                                    SearchConfig(budget=400, restarts=2, seed=0))
    assert res.ratio.value == pytest.approx(3.0, abs=1e-6)


def test_incomplete_sup_variant_respects_lower_bound():
    res = minimize_incomplete_ratio(IncompleteSpec(13, 1),
                                    SearchConfig(budget=2000, restarts=4, seed=1),
                                    denominator="sup")
    assert res.bracket.lower == pytest.approx(13.0 / 12.0)  # (n-k)/(12k), n=14
    assert res.ratio.value + res.ratio.err >= res.bracket.lower
    assert res.within_bracket


def test_incomplete_variation_variant_runs():
    res = minimize_incomplete_ratio(IncompleteSpec(3, 2),
                                    SearchConfig(budget=600, restarts=2, seed=2),
                                    denominator="variation")
    assert res.ratio.value > 0


def test_incomplete_rejects_bad_variant():
    with pytest.raises(ValueError):
        minimize_incomplete_ratio(IncompleteSpec(2, 1), FAST,
                                  denominator="nope")


def test_frontier_sweep_shape_and_determinism():
    cfg = SearchConfig(budget=600, restarts=2, seed=11)
    t1 = frontier_sweep([2, 4], [0, 1], cfg)
    t2 = frontier_sweep([2, 4], [0, 1], cfg)
    assert len(t1.rows) == 4
    assert all(r.ok for r in t1.rows)
    vals1 = [r.result.ratio.value for r in t1.rows]
    vals2 = [r.result.ratio.value for r in t2.rows]
    assert vals1 == vals2
    assert t1.slope is not None
    assert set(t1.monotone_in_n) == {0, 1}
    assert set(t1.monotone_in_k) == {2, 4}


def test_frontier_sweep_single_cell():
    t = frontier_sweep([4], [0], SearchConfig(budget=400, restarts=2, seed=0))
    assert len(t.rows) == 1
    assert t.slope is None or isinstance(t.slope, float)
