"""Derivative-free minimization of the ratio and the sweep driver."""

import numpy as np
import pytest

from turanlab import poly, search
from turanlab import (
    ClassSpec,
    IncompleteSpec,
    SearchConfig,
    SearchFailure,
    bracket_pass,
    class_brackets,
    frontier_sweep,
    from_zeros,
    is_member,
    minimize_incomplete_ratio,
    minimize_ratio,
    thm24_construct,
    turan_ratio,
)
from turanlab.classes import _zeros_from_params
from turanlab.supnorm import _cheb_grid

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
    assert all(bracket_pass(rep.ratio, b)
               for b in class_brackets(ClassSpec(80, 4, True)))
    assert rep.ratio.err <= 1e-9 * rep.ratio.value

    table = frontier_sweep([40], [2], cfg)
    assert len(table.rows) == 1 and table.rows[0].ok


def test_unpinned_search_reports_no_class_bound():
    # Cor 2.3 needs a zero on [-1, 1]: without the pin no class bound holds
    # at k >= 1, and (1, 1) has the member x - (3+3i) with ratio 1/5
    cfg = SearchConfig(budget=300, restarts=3, seed=1)
    for n, k in ((1, 1), (2, 2), (3, 2)):
        res = minimize_ratio(ClassSpec(n, k), cfg)
        assert res.bracket.lower == 0.0
        assert res.within_bracket
    assert turan_ratio(from_zeros(1.0, [3 + 3j])).value == pytest.approx(0.2)


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


def test_frontier_sweep_skips_k_above_n_and_flags_failed_cells():
    t = frontier_sweep([0, 2], [0, 3], SearchConfig(budget=50, restarts=1, seed=1))
    assert [(r.n, r.k, r.ok) for r in t.rows] == [(0, 0, False), (2, 0, True)]
    assert t.rows[0].error == "class of constants has no meaningful ratio"
    assert t.monotone_in_n == {0: "single"} and t.monotone_in_k == {2: "single"}


def test_direction_mixed():
    assert search._direction([1.0, 3.0, 2.0]) == "mixed"


@pytest.mark.parametrize("budget, restarts", [(300.7, 2), (300, 2.5), (300, 2.0),
                                              ("300", 2), (0, 2), (300, 0)])
def test_search_config_rejects_non_integer_or_small_counts(budget, restarts):
    with pytest.raises(ValueError, match="budget and restarts"):
        SearchConfig(budget=budget, restarts=restarts, seed=1)


def test_search_config_seed_range():
    # the check of classes.sample, so frontier_sweep, which derives its
    # cells' seeds before any generator sees one, refuses the same seeds
    for seed in (-1, 2 ** 64, 2 ** 70, 1.5, "7", None):
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            SearchConfig(budget=50, restarts=1, seed=seed)
    for seed in (0, 2 ** 64 - 1, np.uint64(2 ** 64 - 1)):
        assert SearchConfig(budget=50, restarts=1, seed=seed).seed == seed


def test_search_config_accepts_integer_types():
    cfg = SearchConfig(np.int64(300), np.int32(2), 1)
    assert (cfg.budget, cfg.restarts) == (300, 2)


# Objectives on a stack of points (last axis) for the Nelder-Mead reference
# test; each row's value does not depend on the other rows.
_W = np.array([1.0, 3.0, 0.5, 2.0, 1.5, 0.7])
_C = np.array([0.3, -0.2, 0.9, 0.1, -0.6, 0.4])
_SPEC = ClassSpec(3, 1, pin_interval_zero=True)
_XS = _cheb_grid(-1.0, 1.0, 64)
NM_OBJECTIVES = {
    "quadratic": (3, lambda X: np.sum(_W[:3] * (X - _C[:3]) ** 2, axis=-1)),
    "max-abs": (3, lambda X: np.max(_W[:3] * np.abs(X - _C[:3]), axis=-1)),
    # integer steps: runs of equal values, so argsort's tie order matters
    # and shrinks are frequent
    "plateaus": (3, lambda X: np.sum(np.floor(2.0 * X), axis=-1)),
    "fast-ratio": (6, lambda X: search._fast_ratio(_zeros_from_params(X, _SPEC),
                                                   _XS)),
}
# below dim + 1, every cut point of the first steps (shrinks included), and
# budgets at which runs stop on xatol/fatol
NM_BUDGETS = list(range(1, 31)) + [400, 1500]


@pytest.mark.parametrize("restarts", [1, 3, 8])
@pytest.mark.parametrize("name", sorted(NM_OBJECTIVES))
def test_lockstep_nelder_mead_matches_scipy(name, restarts):
    minimize = pytest.importorskip("scipy.optimize").minimize
    dim, f = NM_OBJECTIVES[name]
    rng = np.random.default_rng(restarts)
    x0 = rng.normal(0.0, 1.0, (restarts, 1, dim))
    sims = np.concatenate([x0, x0 + 0.3 * np.eye(dim)], axis=1)
    xatol = 1e-6
    early = 0
    for budget in NM_BUDGETS:
        final, values, used = search._nelder_mead(f, sims.copy(), budget, xatol)
        for r in range(restarts):
            calls = []

            def one(x):
                calls.append(1)
                return f(x[None])[0]

            ref = minimize(one, sims[r, 0], method="Nelder-Mead",
                           options={"maxfev": budget, "xatol": xatol,
                                    "fatol": search._FATOL,
                                    "initial_simplex": sims[r]})
            assert np.array_equal(final[r], ref.final_simplex[0]), (budget, r)
            assert np.array_equal(values[r], ref.final_simplex[1]), (budget, r)
            assert used[r] == len(calls), (budget, r)
            early += len(calls) < budget
    if name != "fast-ratio":
        assert early > 0          # some runs stopped on xatol/fatol


def _reference_fast_ratio(zeros, xs):
    """The grid estimate of one zero list, as the search computed it when it
    evaluated one point at a time."""
    diffs = xs[None, :] - zeros[:, None]
    vals = np.prod(diffs, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        dvals = vals * np.sum(1.0 / diffs, axis=0)
    den = float(np.max(np.abs(vals)))
    dvals = dvals[np.isfinite(dvals)]
    num = float(np.max(np.abs(dvals))) if dvals.size else 0.0
    if den <= 0.0 or not np.isfinite(den):
        return 1e18
    return num / den


def _reference_zeros_from_params(p, spec):
    """The parameter map with np.clip, as the search first wrote it."""
    a, b = p[..., 0::2], p[..., 1::2]
    nc = spec.n - spec.k
    r = np.clip(a[..., :nc], 0.0, 1.0)
    th = np.clip(b[..., :nc], 0.0, np.pi)
    re = np.concatenate([r * np.cos(th), 3.0 * np.tanh(a[..., nc:])], axis=-1)
    im = np.concatenate([r * np.sin(th), 3.0 * np.tanh(b[..., nc:])], axis=-1)
    if spec.pin_interval_zero and spec.n >= 1:
        re[..., 0] = np.clip(a[..., 0], -1.0, 1.0)
        im[..., 0] = 0.0
    return re + 1j * im


def test_fast_ratio_stack_matches_single_points():
    spec = ClassSpec(16, 5, pin_interval_zero=True)
    xs = _cheb_grid(-1.0, 1.0, 16 * spec.n)
    params = np.random.default_rng(5).normal(0.0, 1.0, (96, 2 * spec.n))
    params[:8, 0] = xs[[0, 3, 40, 127, 128, 200, 254, 255]]  # a zero on a grid point
    # parameters on each clamp, just outside it, at -0.0 and deep in the
    # tanh tails: the constrained pairs 1..10 of 13 rows run through every
    # (a, b) pair of these values, and the pinned and free slots see each
    edges = [0.0, -0.0, 1.0, -1.0, np.pi, 40.0, -40.0, np.nextafter(0.0, -1.0),
             np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0), np.nextafter(np.pi, 4.0)]
    pairs = [(a, b) for a in edges for b in edges]
    params = np.concatenate([params, [[v for m in range(spec.n)
                                       for v in pairs[(10 * r + m - 1) % len(pairs)]]
                                      for r in range(13)]])
    zeros = _zeros_from_params(params, spec)
    assert zeros.tobytes() == _reference_zeros_from_params(params, spec).tobytes()
    # 109 rows x 256 points of complex values: 436 KiB per product, above
    # the size at which numpy starts reusing temporaries in place
    stacked = search._fast_ratio(zeros, xs)
    single = [search._fast_ratio(_zeros_from_params(p, spec), xs)
              for p in params]
    reference = [_reference_fast_ratio(_zeros_from_params(p, spec), xs)
                 for p in params]
    assert np.array_equal(stacked, single)
    assert np.array_equal(stacked, reference)
    assert np.all(stacked[:8] < 1e18)


def test_fast_ratio_is_finite_where_it_cannot_form_a_ratio():
    # _nelder_mead follows scipy only on objectives that never return NaN
    xs = _cheb_grid(-1.0, 1.0, 64)
    zeros = np.random.default_rng(11).uniform(-1.0, 1.0, (5, 6)) + 0j
    zeros[0, 2] = xs[5]                        # a zero on a grid point
    zeros[1] = 1e200                           # |P| overflows to inf
    zeros[2, :3] = 1e300 + 1e300j              # and to nan
    zeros[3, 0], zeros[3, 1:] = xs[0], 1e80    # inf times a zero factor
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = search._fast_ratio(zeros, xs)
    assert np.all(np.isfinite(ratios)), ratios
    assert np.all(ratios[1:4] == 1e18) and np.all(ratios[[0, 4]] < 1e18), ratios


_MEMO_SPECS = [ClassSpec(n, k, pin_interval_zero=pin)
               for pin in (True, False) for n, k in ((6, 0), (6, 2), (8, 2))]


def _search_fingerprint(res):
    return repr((res.ratio.value, res.ratio.err, res.trace, res.warm_best,
                 res.best.zeros, res.evals, res.params))


def test_warm_certificate_memo_changes_no_result():
    cfg = SearchConfig(budget=300, restarts=2, seed=3)
    cold = []
    for spec in _MEMO_SPECS:
        search._warm_family.cache_clear()
        cold.append(_search_fingerprint(minimize_ratio(spec, cfg)))
    filled = [_search_fingerprint(minimize_ratio(spec, cfg))
              for spec in reversed(_MEMO_SPECS)]
    assert filled[::-1] == cold


def test_sweep_certifies_each_warm_candidate_once(monkeypatch):
    search._warm_family.cache_clear()
    calls = []
    ratio = search.turan_ratio

    def counted(P, *args):
        calls.append(P.zeros)
        return ratio(P, *args)

    monkeypatch.setattr(search, "turan_ratio", counted)
    frontier_sweep([8], [0, 2, 4], SearchConfig(budget=200, restarts=2, seed=4))
    warm = {P.zeros for d in (8, 6, 4) for _, P in search._warm_family(d)}
    assert len(warm) == 3 + 3 + 3                # degrees 8, 6 and 4
    assert all(calls.count(z) == 1 for z in warm)


def _full_split_sweep(d, known):
    """(certified value, zeros) of the Turan-ordered member of degree d and
    then of every endpoint split (x-1)^a (x+1)^(d-a), a = 0..d, in that
    order, each zero multiset once: all the endpoint-split candidates of
    one degree, of which _warm_family keeps at most four.  A zero list in
    ``known`` (zeros -> value) takes that value in place of a new
    certificate."""
    lists = [[1.0, -1.0] * (d // 2) + [-1.0] * (d % 2)]
    lists += [[1.0] * a + [-1.0] * (d - a) for a in range(d + 1)]
    seen, out = set(), []
    for zeros in lists:
        if tuple(sorted(zeros)) not in seen:
            seen.add(tuple(sorted(zeros)))
            P = from_zeros(1.0, zeros)
            value = known.get(P.zeros)
            out.append((turan_ratio(P).value if value is None else value,
                        P.zeros))
    return out


def test_warm_family_holds_the_first_lowest_split():
    for d in range(1, 41):
        family = {P.zeros: cert.value for cert, P in search._warm_family(d)}
        assert len(family) == len(search._warm_family(d)) <= 4, d
        sweep = _full_split_sweep(d, family)
        low = min(v for v, _ in sweep)
        first = next(z for v, z in sweep if v == low)
        # the same zeros in the same order, and the same bits as a new
        # certificate
        assert first in family, d
        assert turan_ratio(from_zeros(1.0, first)).value == low, d


def test_warm_family_members_belong_to_every_class_scored():
    for d in range(1, 9):
        for n in range(d, d + 4):
            for k in range(n - d, n + 1):
                for pin in (True, False):
                    spec = ClassSpec(n, k, pin_interval_zero=pin)
                    for _, P in search._warm_family(d):
                        assert is_member(P, spec).ok, (d, spec, P.zeros)


def _coefficient_objective(monkeypatch, run):
    """The stack objective that a coefficient search hands to the loop."""
    seen = []

    def spy(objective, *args, **kwargs):
        seen.append(objective)
        raise SearchFailure("captured")

    monkeypatch.setattr(search, "_lowest_certified", spy)
    with pytest.raises(SearchFailure):
        run()
    monkeypatch.undo()
    return seen[0]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_coefficient_objective_stack_matches_single_points(monkeypatch, k):
    cfg = SearchConfig(budget=50, restarts=2, seed=0)
    runs = [lambda: thm24_construct(4 * k, k, cfg)]
    runs += [lambda den=den: minimize_incomplete_ratio(IncompleteSpec(7, k), cfg, den)
             for den in ("point", "variation", "sup")]
    coeffs = np.random.default_rng(k).normal(0.0, 1.0, (40, k))
    coeffs[0] = 0.0                      # the guarded zero vector
    for run in runs:
        f = _coefficient_objective(monkeypatch, run)
        stacked = f(coeffs)
        assert np.array_equal(stacked, [f(c[None])[0] for c in coeffs])
        assert stacked[0] == 1e18


def test_search_results_do_not_depend_on_block_size(monkeypatch):
    cfg = SearchConfig(budget=300, restarts=3, seed=2)

    def results():
        a = minimize_ratio(ClassSpec(5, 1, pin_interval_zero=True), cfg)
        b = thm24_construct(8, 2, cfg)
        c = minimize_incomplete_ratio(IncompleteSpec(6, 3), cfg, "variation")
        return repr((a.ratio, a.params, a.evals, a.trace, b.ratio, b.P,
                     c.ratio, c.params, c.evals, c.trace))

    whole = results()
    monkeypatch.setattr(poly, "_BLOCK_LIMIT", 1)        # two rows per block
    assert results() == whole
