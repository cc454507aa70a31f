"""Certified sup norms, argmax, total variation."""

import functools
import math
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from turanlab import (
    CertifiedValue,
    ClassSpec,
    Interval,
    OverflowEvaluationError,
    argmax_abs,
    argmax_abs_derivative,
    from_zeros,
    large_logderiv_measure,
    remark_family,
    sample,
    small_logderiv_measure,
    sup_norm,
    sup_norm_derivative,
    total_variation,
    turan_ratio,
)
from turanlab import poly, supnorm
from turanlab.poly import _majorants, _series
from turanlab.supnorm import _cheb_grid, _narrow

from oracles import (
    exact_cell_series,
    exact_derivative_abs,
    grid_sup,
    grid_sup_slack,
    quad_total_variation,
    zero_list_derivative,
    zero_list_grid_max,
    zero_list_sup_upper,
    zero_list_values,
)

# hand-computed values frozen before the implementation existed
TV_CUBIC = 1.539600717839002          # V(x^3 - x) on [-1,1] = 8/(3*sqrt(3))
TV_PARABOLA = 4.0                     # V(2x^2 - 1) on [-1,1]


def test_sup_norm_exact_small_cases():
    P = from_zeros(1.0, [1.0, -1.0])  # x^2 - 1, sup = 1 at x = 0
    cv = sup_norm(P)
    assert abs(cv.value - 1.0) <= cv.err + 1e-15
    assert cv.err < 1e-12
    assert cv.method == "critical-points"


def test_sup_norm_linear():
    cv = sup_norm(from_zeros(1.0, [1.0]))  # |x-1| peaks at -1
    assert cv.value == pytest.approx(2.0, abs=1e-14)
    assert argmax_abs(from_zeros(1.0, [1.0])) == pytest.approx(-1.0)


def test_sup_norm_subinterval():
    P = from_zeros(1.0, [0.0])  # |x| on [0.25, 0.75]
    cv = sup_norm(P, Interval(0.25, 0.75))
    assert cv.value == pytest.approx(0.75, abs=1e-14)


def test_argmax_leftmost_tie_break():
    P = from_zeros(1.0, [0.0, 0.0])  # x^2 peaks at both endpoints
    assert argmax_abs(P) == pytest.approx(-1.0)


def test_sup_norm_contains_grid_max():
    rng = np.random.Generator(np.random.Philox(key=np.uint64(21)))
    for _ in range(25):
        deg = int(rng.integers(1, 21))
        zeros = rng.uniform(-2, 2, deg) + 1j * rng.uniform(-2, 2, deg)
        P = from_zeros(complex(rng.normal() + 0.1), zeros)
        cv = sup_norm(P)
        g = grid_sup(P, m=20_001)
        slack = grid_sup_slack(P, m=20_001)
        assert cv.value + cv.err >= g - 1e-12          # never below a sample
        assert cv.value - cv.err <= g + slack + 1e-12  # never above sup


def test_certified_grid_method_agrees_with_critical_points():
    P = from_zeros(1.0, np.linspace(-0.9, 0.9, 12))
    a = sup_norm(P)
    g = grid_sup(P)
    assert a.value + a.err >= g - 1e-12
    assert a.value - a.err <= g + grid_sup_slack(P) + 1e-12


def test_sup_norm_derivative_high_degree():
    P = from_zeros(1.0, [1.0, -1.0] * 40)
    cv = sup_norm_derivative(P)
    xs = np.linspace(-1, 1, 200_001)
    from turanlab.poly import derivative_values
    g = float(np.max(np.abs(derivative_values(P, xs))))
    assert cv.value + cv.err >= g - 1e-6 * max(1.0, g)


def test_total_variation_frozen_values():
    cubic = from_zeros(1.0, [0.0, 1.0, -1.0])         # x^3 - x
    cv = total_variation(cubic)
    assert cv.value == pytest.approx(TV_CUBIC, abs=1e-9)

    parabola = from_zeros(2.0, [1 / math.sqrt(2), -1 / math.sqrt(2)])
    cv = total_variation(parabola)                    # 2x^2 - 1
    assert cv.value == pytest.approx(TV_PARABOLA, abs=1e-9)


def test_total_variation_of_a_constant_is_exactly_zero():
    assert total_variation(from_zeros(3.0, [])) == CertifiedValue(0.0, 0.0)


@pytest.mark.parametrize("zeros", [[0.3, -0.4, 0.5 + 0.2j, 0.5 - 0.2j],
                                   [math.cos((2 * j + 1) * math.pi / 120) for j in range(60)],
                                   [0.25] * 7 + [0.5 + 0.5j, 0.5 - 0.5j],
                                   [0.25] * 15 + [0.5 + 0.5j, 0.5 - 0.5j]])
def test_total_variation_radius_scales_with_the_leading_coefficient(zeros):
    # the radius comes from rounding bounds relative to P, so it scales with
    # the leading coefficient as the value does: at monic T_60 (V = 2.1e-16)
    # an absolute floor would leave it thousands of times the value.  The
    # variation is taken on P / |leading| and scaled back once, so beside
    # the repeated zero at 0.25 no cell series of a tiny P underflows
    ref = total_variation(from_zeros(1.0, zeros))
    assert ref.err <= 1e-7 * ref.value, ref
    for c in (1e-300, 1e-250, 1e-150, 1e-20, 1e-10, 1e200, -3.0):
        if abs(c) * ref.value < 2.0 ** -1022:
            continue    # T_60 at 1e-300: a subnormal value has no relative radius
        cv = total_variation(from_zeros(c, zeros))
        assert type(cv.value) is float and type(cv.err) is float
        # abs=0: approx's default absolute 1e-12 would pass any two radii
        # below it, and any two values of a tiny P
        assert cv.value == pytest.approx(abs(c) * ref.value, rel=4 * 2.0 ** -52, abs=0)
        assert cv.err / cv.value == pytest.approx(ref.err / ref.value, rel=1e-9, abs=0)


def test_total_variation_radius_charges_only_the_narrowed_roots():
    # T_60 = 2^59 prod (x - cos((2j+1) pi/120)) varies by 2 between each of
    # its 61 extrema: V = 120; its 59 narrowed critical points set the radius
    zeros = [math.cos((2 * j + 1) * math.pi / 120) for j in range(60)]
    cv = total_variation(from_zeros(2.0 ** 59, zeros))
    assert abs(cv.value - 120.0) <= cv.err <= 5e-9 * 120.0


def test_total_variation_monotone_case():
    # strictly increasing on [-1,1]: V = P(1) - P(-1)
    P = from_zeros(1.0, [2.0])  # x - 2
    cv = total_variation(P)
    assert cv.value == pytest.approx(2.0, abs=1e-12)


def test_total_variation_vs_quadrature():
    rng = np.random.Generator(np.random.Philox(key=np.uint64(9)))
    for _ in range(10):
        deg = int(rng.integers(2, 9))
        zeros = rng.uniform(-1.5, 1.5, deg)
        P = from_zeros(1.0, zeros)
        cv = total_variation(P)
        ref, _ = quad_total_variation(P)
        assert cv.value == pytest.approx(ref, rel=1e-7, abs=1e-9)


def test_certified_value_err_nonnegative():
    cv = sup_norm(from_zeros(1.0, [0.3, -0.4, 0.9j]))
    assert cv.err >= 0.0


def _d1_zeros(seed, lo=20, hi=61):
    """Near-real zero clusters: real parts U(-1.2, 1.2), imaginary parts
    c * N(0, 1) with c drawn per zero from {1e-6, 1e-3, 0.05, 0.5}."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(lo, hi))
    c = rng.choice([1e-6, 1e-3, 0.05, 0.5], size=d)
    return rng.uniform(-1.2, 1.2, d) + 1j * c * rng.normal(0.0, 1.0, d)


def test_sup_norms_on_near_real_clusters_reach_grid_max():
    # the re-factored derivative used to miss |P'| by up to 3.7e-2 here
    for i in range(0, 300, 5):
        zeros = _d1_zeros(i)
        P = from_zeros(1.0, zeros)
        for order, fn in ((0, sup_norm), (1, sup_norm_derivative)):
            cv = fn(P)
            assert cv.err <= 1e-9 * cv.value, (i, order, cv)
            assert cv.value + cv.err >= zero_list_grid_max(1.0, zeros, order), (i, order)
            assert cv.value - cv.err <= zero_list_sup_upper(1.0, zeros, order), (i, order)


def test_turan_ratio_radius_is_relative_at_high_degree():
    # ||P|| is tiny here; an absolute tolerance made the radius vacuous
    zeros = _d1_zeros(5000, 80, 201)
    cv = turan_ratio(from_zeros(1.0, zeros))
    assert cv.err <= 1e-9 * cv.value, cv
    lower = zero_list_grid_max(1.0, zeros, 1) / zero_list_sup_upper(1.0, zeros, 0)
    upper = zero_list_sup_upper(1.0, zeros, 1) / zero_list_grid_max(1.0, zeros, 0)
    assert lower - cv.err <= cv.value <= upper + cv.err, (lower, cv, upper)


def test_turan_ratio_flat_interior_peak_closed_form():
    # (x^2 - 1)^40 peaks flat at x = 0; its ratio is known in closed form
    m = 40
    t0 = time.monotonic()
    cv = turan_ratio(from_zeros(1.0, [1.0, -1.0] * m))
    elapsed = time.monotonic() - t0
    exact = 2 * m / math.sqrt(2 * m - 1) * ((2 * m - 2) / (2 * m - 1)) ** (m - 1)
    assert abs(cv.value - exact) <= cv.err + 1e-12 * exact, (cv, exact)
    assert elapsed < 1.0


def test_total_variation_counts_a_bump_inside_one_grid_cell():
    # P = u^3 - 1e-4 u with u = x - 0.05: both critical points, 0.05 -+
    # 0.01/sqrt(3), fall in one cell of the 32-cell grid, where P' has the
    # same sign at both ends; missing them drops 1.54e-6 of variation
    zeros = [0.04, 0.05, 0.06]
    crit = [0.05 - 0.01 / math.sqrt(3), 0.05 + 0.01 / math.sqrt(3)]
    vals = zero_list_values(1.0, zeros, [-1.0] + crit + [1.0]).real
    exact = float(np.sum(np.abs(np.diff(vals))))
    cv = total_variation(from_zeros(1.0, zeros))
    assert cv.err <= 1e-9
    assert abs(cv.value - exact) <= cv.err, (cv, exact)


# |P| for P = 1e-5 prod(x - z) over these zeros has maxima at 0.0069 and
# 0.0264 around a shallow minimum at 0.0207, all in the grid cell
# [0, 0.0327]; a far zero at 1e5 lifts the left maximum 2e-7 above the
# right one
_C, _B = 0.018, math.sqrt(1.0 / 4.002)
TWIN_MAXIMA = ([_C + 1j * _B, _C - 1j * _B] + [_C + 1.0] * 4 + [_C - 1.0] * 4
               + [1e5])


def test_sup_norm_maximum_beside_a_minimum_in_one_grid_cell():
    # (|P|^2)' changes sign once across the cell, so a plain sign scan
    # narrows one of the three roots and can miss the left maximum
    zeros = TWIN_MAXIMA
    cv = sup_norm(from_zeros(1e-5, zeros))
    assert cv.err <= 1e-9 * cv.value, cv
    assert cv.value + cv.err >= zero_list_grid_max(1e-5, zeros, 0, m=200_001)
    assert cv.value - cv.err <= zero_list_sup_upper(1e-5, zeros, 0)


def test_flat_maximum_and_flat_critical_point_keep_tight_radii():
    # |P| = (1 - x^4)^n on [-1, 1] for P = (x^4 - 1)^n: the maximum at 0 is
    # flat to fourth order, and so is the critical point of P there, so no
    # bound on derivatives at cell midpoints settles the cells around it
    t0 = time.monotonic()
    cv = sup_norm(from_zeros(1.0, [1.0, -1.0, 1j, -1j] * 20))
    tv = total_variation(from_zeros(1.0, [1.0, -1.0, 1j, -1j] * 3))
    elapsed = time.monotonic() - t0
    assert abs(cv.value - 1.0) <= cv.err <= 1e-9, cv
    assert abs(tv.value - 2.0) <= tv.err <= 1e-8, tv
    assert elapsed < 1.0


def _coarse_refine(monkeypatch, after=None):
    """Force min_width = 1 on supnorm._refine; returns the list that gets
    the number of cells each call gives up on.  A given list after is
    empty while a call runs and holds True once it has returned."""
    refine, given_up = supnorm._refine, []

    def coarse(x, settle, min_width, degree):
        if after is not None:
            after.clear()
        out = refine(x, settle, 1.0, degree)
        given_up.append(np.count_nonzero(out[3]))
        if after is not None:
            after.append(True)
        return out

    monkeypatch.setattr(supnorm, "_refine", coarse)
    return given_up


def test_cells_given_up_on_widen_the_radius_and_keep_the_enclosure(monkeypatch):
    # with min_width = 1 every cell the first round leaves unsettled is
    # given up on: its possible excess joins the radius of the sup norm,
    # and its hidden variation that of the total variation
    cases = [(1e-5, TWIN_MAXIMA), (1.0, [1.0, -1.0, 1j, -1j] * 20)]
    tight = [sup_norm(from_zeros(lead, zeros)) for lead, zeros in cases]
    given_up = _coarse_refine(monkeypatch)
    for (lead, zeros), normal in zip(cases, tight):
        cv = sup_norm(from_zeros(lead, zeros))
        assert cv.err > normal.err, (cv, normal)
        assert cv.value + cv.err >= zero_list_grid_max(lead, zeros, 0, m=200_001)
        assert cv.value - cv.err <= zero_list_sup_upper(lead, zeros, 0)
    tv = total_variation(from_zeros(1.0, [0.04, 0.05, 0.06]))
    assert abs(tv.value - 2.0148015396) <= tv.err, tv
    assert len(given_up) == 3 and min(given_up) > 0, given_up


def test_refine_returns_the_final_cells_in_order_with_their_own_records():
    # the record of a cell is (its ends, the index of the settle call that
    # gave it): on a uniform grid a cell of width h / 2^k was last tested
    # by call k, whether it was accepted there or given up on
    x = np.linspace(0.0, 1.0, 11)
    calls = []

    def settle(a, b):
        calls.append(a.size)
        hard = (a <= 0.3) & (0.3 <= b)
        return ~hard, np.stack([a, b, np.full(a.size, len(calls) - 1.0)])

    a, b, record, given_up = supnorm._refine(x, settle, 1e-3, 4)
    assert a[0] == x[0] and b[-1] == x[-1] and np.array_equal(b[:-1], a[1:])
    assert np.array_equal(record[0], a) and np.array_equal(record[1], b)
    assert np.array_equal(record[2], np.round(np.log2(0.1 / (b - a))))
    assert np.array_equal(given_up, (a <= 0.3) & (0.3 <= b) & (b - a < 1e-3))
    assert 0 < np.count_nonzero(given_up) < a.size

    # past the cap every live cell is given up on: 100 cells all failing
    # double for five rounds, to 3,200 > 5,665 / 2 = cap / 2 at d = 353
    x = np.linspace(0.0, 1.0, 101)
    a, b, record, given_up = supnorm._refine(
        x, lambda a, b: (np.zeros(a.size, dtype=bool), np.stack([a, b])), 1e-12, 353)
    assert given_up.all() and a.size == 3200
    assert np.array_equal(record, [a, b]) and np.array_equal(b[:-1], a[1:])

    # an empty grid still runs settle once and gets an empty record
    calls.clear()
    a, b, record, given_up = supnorm._refine(np.array([0.5]), settle, 1e-3, 4)
    assert calls == [0] and a.size == b.size == given_up.size == 0
    assert record.shape == (3, 0)



def _bisect(x, settle, min_width, degree):
    """_refine before it took pieces: every failed cell bisected at
    0.5 (a + b), the cap counting two cells per failed one."""
    cap = max(16 * (degree + 1), supnorm._BROADCAST_LIMIT // max(degree, 1))
    a, b = x[:-1], x[1:]
    final = []
    while True:
        ok, record = settle(a, b)
        stop = ~ok & ((b - a < min_width) | (2 * np.count_nonzero(~ok) > cap))
        done = ok | stop
        final.append((a[done], b[done], record[..., done], stop[done]))
        if done.all():
            break
        a, b = a[~done], b[~done]
        m = 0.5 * (a + b)
        a, b = np.concatenate([a, m]), np.concatenate([m, b])
    a, b, record, given_up = (np.concatenate(p, axis=-1) for p in zip(*final))
    order = np.lexsort((b, a))
    return a[order], b[order], record[..., order], given_up[order]


def _fail_first_round():
    """settle for _refine that fails every cell of its first call and
    accepts every cell after, with the ends as the record."""
    calls = []

    def settle(a, b):
        calls.append(a.size)
        return np.full(a.size, len(calls) > 1), np.stack([a, b])

    return settle


def test_refine_with_two_pieces_is_the_plain_bisection_bit_for_bit():
    # the sup engine keeps the default: cells accepted once narrower than a
    # width that varies along the grid, some given up on at min_width, and
    # at d = 60 and 353 the cap gives up the live cells; the grid points have
    # both signs and magnitudes 1e-8 to 1, where a + (b - a) / 2 can round
    # otherwise than (a + b) / 2
    rng = np.random.default_rng(5)
    for degree, cells, min_width in [(4, 11, 1e-4), (60, 400, 1e-7), (353, 900, 1e-9)]:
        x = np.sort(np.concatenate([[-1.0, 1.0], rng.choice([-1.0, 1.0], cells - 1)
                                    * 10.0 ** rng.uniform(-8.0, 0.0, cells - 1)]))

        def settle(a, b):
            wide = (b - a) > 1e-3 * (1.0 + np.sin(40.0 * a)) ** 4
            return ~wide, np.stack([a, b, b - a])

        want = _bisect(x, settle, min_width, degree)
        for got in (supnorm._refine(x, settle, min_width, degree),
                    supnorm._refine(x, settle, min_width, degree, 2)):
            for u, v in zip(got, want):
                assert u.dtype == v.dtype and np.array_equal(u, v)
        assert want[3].any() and not want[3].all()


def test_refine_pieces_tile_each_cell_with_exact_ends():
    # eight parts a cell, also in cells a few ulps wide, where parts round
    # onto each other: the ends stay exact and the parts leave no gap and
    # no overlap
    u = np.spacing(0.3)
    x = np.array([-1.0, -0.3, -0.3 + 4 * u, 1e-300, 1e-290, 0.3, 0.3 + u, 0.3 + 3 * u,
                  0.3 + 11 * u, 0.7, 1.0])
    a, b, record, given_up = supnorm._refine(x, _fail_first_round(), 1e-300, 4, 8)
    assert a.size == 8 * (x.size - 1) and not given_up.any()
    assert a[0] == x[0] and b[-1] == x[-1] and np.array_equal(b[:-1], a[1:])
    assert np.all(b >= a) and np.all(np.isin(x[:-1], a))
    assert np.array_equal(record, [a, b])
    # the parts of a cell of ordinary width are equal up to rounding
    wide = (a >= 0.3 + 11 * u) & (b <= 0.7)
    assert np.count_nonzero(wide) == 8
    assert np.allclose(b[wide] - a[wide], 0.05, rtol=0, atol=4 * np.spacing(0.7))


def test_refine_pieces_never_cut_below_half_the_min_width():
    # a cell of width w is cut into min(8, max(2, floor(w / min_width)))
    # parts, none narrower than min_width / 2; a failed cell narrower than
    # min_width is given up on instead
    min_width = 1e-6
    widths = min_width * np.array([0.5, 1.0001, 1.5, 1.9999, 2.01, 3.7, 7.99, 8.01, 9.5, 30.0])
    x = np.cumsum(np.concatenate([[0.5], widths]))
    a, b, _, given_up = supnorm._refine(x, _fail_first_round(), min_width, 4, 8)
    parent = np.searchsorted(x, 0.5 * (a + b)) - 1
    want = np.minimum(8, np.maximum(2, np.floor(widths / min_width))).astype(int)
    want[0] = 1
    assert np.array_equal(np.bincount(parent, minlength=widths.size), want)
    assert np.array_equal(given_up, parent == 0)
    assert np.all(b[parent > 0] - a[parent > 0] >= 0.5 * min_width * (1 - 1e-9))


def test_refine_pieces_keep_each_round_within_the_cap():
    # at d = 353 the cap is 5,665 cells: 1,000 failing cells 20 min_width
    # wide would make 8,000 eighths, so they are cut in five (5,000 cells),
    # and the next round, whose 5,000 failing cells could not even be
    # bisected within the cap, gives up on all of them
    min_width, sizes = 1e-9, []

    def settle(a, b):
        sizes.append(a.size)
        return np.zeros(a.size, dtype=bool), np.stack([a, b])

    x = 0.25 + 20 * min_width * np.arange(1001)
    a, b, _, given_up = supnorm._refine(x, settle, min_width, 353, 8)
    assert sizes == [1000, 5000] and given_up.all()
    assert a[0] == x[0] and b[-1] == x[-1] and np.array_equal(b[:-1], a[1:])
    # where floor(width / min_width) is below the cap's share the width
    # decides: 1,200 cells 3.5 min_width wide are cut in three, not four
    sizes.clear()
    x = 0.25 + 3.5 * min_width * np.arange(1201)
    a, b, _, given_up = supnorm._refine(x, settle, min_width, 353, 8)
    assert sizes == [1200, 3600] and given_up.all()

def test_no_cell_series_after_refine_returns(monkeypatch):
    # every final cell comes back with what its test proved, so nothing
    # tests a cell again, also where cells are given up on
    after, late = [], []
    given_up = _coarse_refine(monkeypatch, after)
    series = supnorm._series

    def spy(*args):
        late.append(bool(after))
        return series(*args)

    monkeypatch.setattr(supnorm, "_series", spy)
    for lead, zeros in [(1e-5, TWIN_MAXIMA), (1.0, [1.0, -1.0, 1j, -1j] * 20)]:
        sup_norm(from_zeros(lead, zeros))
        turan_ratio(from_zeros(lead, zeros))
    total_variation(from_zeros(1.0, [1.0, -1.0, 1j, -1j] * 3))
    assert late and not any(late)
    assert min(given_up) > 0, given_up


def test_cells_given_up_on_keep_the_record_of_their_last_test(monkeypatch):
    # a given-up cell's radius term comes from the test that last failed
    # it; re-tested by the cheap series instead, these radii were 2.9e-2
    # and 4.8e-4
    given_up = _coarse_refine(monkeypatch)
    zeros = [1.0, -1.0, 1j, -1j] * 20
    cv = sup_norm(from_zeros(1.0, zeros))
    assert cv.err <= 1e-5, cv
    assert cv.value + cv.err >= zero_list_grid_max(1.0, zeros, 0, m=200_001)
    assert cv.value - cv.err <= zero_list_sup_upper(1.0, zeros, 0)
    tv = total_variation(from_zeros(1.0, [1.0, -1.0, 1j, -1j] * 3))
    assert abs(tv.value - 2.0) <= tv.err <= 1e-4, tv
    assert min(given_up) > 0, given_up


def test_degenerate_interval_is_one_point():
    # Interval(c, c) leaves the engines an empty grid: the norms are the
    # values at c and the variation and both level-set measures are 0
    c, I = 0.25, Interval(0.25, 0.25)
    zeros = [0.3 + 0.4j, -0.5 + 0.2j, 0.7j]
    P = from_zeros(1.0, zeros)
    p0 = zero_list_values(1.0, zeros, [c])[0]
    p1 = zero_list_derivative(1.0, zeros, [c])[0]
    cv = sup_norm(P, I)
    assert abs(cv.value - abs(p0)) <= cv.err <= 1e-12, cv
    cv = turan_ratio(P, I)
    assert abs(cv.value - abs(p1 / p0)) <= cv.err <= 1e-11, cv
    cv = total_variation(from_zeros(1.0, [0.4, -0.2, 0.1 + 0.3j, 0.1 - 0.3j]), I)
    assert cv.value == 0.0 and cv.err <= 1e-12, cv
    for rep in (small_logderiv_measure(P, 1.0, I), small_logderiv_measure(P, 100.0, I),
                large_logderiv_measure(P, 1.0, I), large_logderiv_measure(P, 0.01, I)):
        assert rep.measure.value == 0.0 and rep.measure.err == 0.0, rep
        assert rep.intervals == ()


def test_sup_norm_derivative_radius_covers_a_cancelling_sum():
    # near 0, P' = P * sum 1/(x - z_i) of (z^6 - 1)^12 sums 72 terms of size
    # about 1 to about 2e-6, so its rounding is far above 64(d+1) eps |P'|;
    # |P'| grows on the interval, so the maximum sits at its right end
    zeros = np.tile(np.exp(2j * np.pi * np.arange(6) / 6), 12)
    I = Interval(0.007462307854148698, 0.030223166425331183)
    cv = sup_norm_derivative(from_zeros(1.0, zeros), I)
    exact = exact_derivative_abs(1.0, zeros, I.hi)
    assert abs(cv.value - exact) <= cv.err, (cv, exact)


def test_quadrature_oracle_sees_a_bump_inside_one_grid_cell():
    # the oracle behind criterion 8 used to return 2.0148 here (estimated
    # error 2.2e-14) by stepping over the bump between 0.0442 and 0.0558
    zeros = [0.04, 0.05, 0.06]
    crit = [0.05 - 0.01 / math.sqrt(3), 0.05 + 0.01 / math.sqrt(3)]
    vals = zero_list_values(1.0, zeros, [-1.0] + crit + [1.0]).real
    exact = float(np.sum(np.abs(np.diff(vals))))
    ref, _ = quad_total_variation(from_zeros(1.0, zeros))
    assert abs(ref - exact) <= 1e-12, (ref, exact)


def test_quadrature_oracle_sees_a_kink_next_to_a_cell_end():
    # criterion 8's input i = 27: a zero of P' sits 0.1% of a cell width
    # past a cell end, where no node falls; the oracle used to return a
    # value 3.2e-11 relative off while stating an error of 1.3e-16
    mpmath = pytest.importorskip("mpmath")
    key = np.random.SeedSequence(entropy=(88, 27)).generate_state(2, np.uint64)
    zeros = np.random.Generator(np.random.Philox(key=key)).uniform(-1.5, 1.5, 5)
    ref, _ = quad_total_variation(from_zeros(1.0, zeros))
    with mpmath.workdps(40):
        c = [mpmath.mpf(1)]                    # coefficients, highest first
        for z in zeros:
            c = [u - mpmath.mpf(z) * v for u, v in zip(c + [0], [0] + c)]
        dc = [ci * (len(c) - 1 - i) for i, ci in enumerate(c[:-1])]
        crit = [mpmath.re(r) for r in mpmath.polyroots(dc, extraprec=200)
                if abs(mpmath.im(r)) < 1e-30 and -1 < mpmath.re(r) < 1]
        vals = [mpmath.polyval(c, x) for x in sorted(crit + [-1, 1])]
        exact = float(sum(abs(v - u) for u, v in zip(vals, vals[1:])))
    assert abs(ref - exact) <= 1e-13 * exact, (ref, exact)


def _one_pass_agrees(P, I=Interval()):
    """turan_ratio certifies ||P|| and ||P'|| in one engine pass; it must
    agree with the single-order norms within the stated radii, and each
    argmax must attain its norm within the radius."""
    n0, n1 = sup_norm(P, I), sup_norm_derivative(P, I)
    cv = turan_ratio(P, I)
    q = n1.value / n0.value
    assert abs(cv.value - q) <= cv.err + (n1.err + q * n0.err) / (n0.value - n0.err), (cv, q)
    for x, n, f in ((argmax_abs(P, I), n0, zero_list_values),
                    (argmax_abs_derivative(P, I), n1, zero_list_derivative)):
        assert I.lo <= x <= I.hi
        at = abs(f(P.leading, P.zeros, [x])[0])
        assert abs(at - n.value) <= n.err + 1e-12 * n.value, (x, at, n)
    return cv, n0, n1


def test_one_pass_agrees_with_single_orders_on_near_real_clusters():
    for i in range(0, 300, 5):
        cv, _, _ = _one_pass_agrees(from_zeros(1.0, _d1_zeros(i)))
        assert cv.err <= 1e-9 * cv.value, (i, cv)


@pytest.mark.parametrize("case", ["remark", "flat", "pinned150"])
def test_one_pass_at_high_degree_matches_zero_list_oracles(case):
    if case == "remark":         # degree 80, |P| peaks inside
        P = remark_family(0.5, 20).P
    elif case == "flat":         # (x^2 - 1)^40
        P = from_zeros(1.0, [1.0, -1.0] * 40)
    else:                        # |P'| peaks at -0.98
        P = sample(ClassSpec(150, 130, pin_interval_zero=True), seed=240)
        assert -0.99 < argmax_abs_derivative(P) < -0.97
    assert P.degree >= 80
    cv, n0, n1 = _one_pass_agrees(P)
    lead, zeros = P.leading, P.zeros
    for order, n in ((0, n0), (1, n1)):
        assert n.err <= 1e-9 * n.value, (order, n)
        assert n.value + n.err >= zero_list_grid_max(lead, zeros, order), order
        assert n.value - n.err <= zero_list_sup_upper(lead, zeros, order), order
    lower = zero_list_grid_max(lead, zeros, 1) / zero_list_sup_upper(lead, zeros, 0)
    upper = zero_list_sup_upper(lead, zeros, 1) / zero_list_grid_max(lead, zeros, 0)
    assert cv.err <= 1e-9 * cv.value, cv
    assert lower - cv.err <= cv.value <= upper + cv.err, (lower, cv, upper)


def test_one_pass_with_huge_leading_coefficient():
    zeros = _d1_zeros(10)
    cv, n0, n1 = _one_pass_agrees(from_zeros(1e200, zeros))
    unit = turan_ratio(from_zeros(1.0, zeros))
    assert abs(cv.value - unit.value) <= cv.err + unit.err, (cv, unit)
    assert n0.err <= 1e-9 * n0.value and n1.err <= 1e-9 * n1.value
    assert n0.value + n0.err >= zero_list_grid_max(1e200, zeros, 0)


def test_one_pass_degenerate_cases():
    I = Interval(-0.5, 2.0)
    const = from_zeros(3.0, [])                 # P' = 0
    cv, n0, n1 = _one_pass_agrees(const, I)
    assert (cv.value, cv.err, n0.value, n1.value) == (0.0, 0.0, 3.0, 0.0)
    assert argmax_abs_derivative(const, I) == I.lo
    linear = from_zeros(2.0, [0.3])             # P' = 2 everywhere
    cv, n0, n1 = _one_pass_agrees(linear, I)
    assert n1.value == pytest.approx(2.0, abs=1e-14)
    assert n0.value == pytest.approx(3.4, abs=1e-14)
    assert cv.value == pytest.approx(2.0 / 3.4, abs=cv.err + 1e-15)



def test_turan_ratio_narrows_no_root_that_cannot_raise_a_maximum(monkeypatch):
    # |P| and |P'| peak at -1, a cell end, and the certified top of every
    # cell with a critical point inside stays below the values there
    P = sample(ClassSpec(120, 20, pin_interval_zero=True), seed=3)
    assert argmax_abs(P) == argmax_abs_derivative(P) == -1.0
    brackets = []
    narrow = supnorm._narrow

    def counting(f, a, *args, **kwargs):
        brackets.append(a.size)
        return narrow(f, a, *args, **kwargs)

    monkeypatch.setattr(supnorm, "_narrow", counting)
    cv = turan_ratio(P)
    assert sum(brackets) == 0, brackets
    lead, zeros = P.leading, P.zeros
    lower = zero_list_grid_max(lead, zeros, 1) / zero_list_sup_upper(lead, zeros, 0)
    upper = zero_list_sup_upper(lead, zeros, 1) / zero_list_grid_max(lead, zeros, 0)
    assert cv.err <= 1e-9 * cv.value, cv
    assert lower - cv.err <= cv.value <= upper + cv.err, (lower, cv, upper)


_T40_ZEROS = [math.cos((2 * j - 1) * math.pi / 80) for j in range(1, 41)]


def test_sup_norm_of_chebyshev_polynomial_with_tied_maxima():
    # |T_40| reaches 1 at all 41 points cos(j pi / 40): every interior
    # maximum ties with the ends, so none may be dropped or win the argmax
    T = from_zeros(2.0 ** 39, _T40_ZEROS)
    cv = sup_norm(T)
    assert abs(cv.value - 1.0) <= cv.err <= 1e-9, cv
    assert argmax_abs(T) == -1.0


@pytest.mark.parametrize("case", ["extremum", "end-cell"])
def test_sup_norm_of_an_interior_maximum_just_above_the_end(case):
    # |P| peaks at c, and its value at the end -1, a cell end, comes second
    # by gap relative: the cell of the peak must be narrowed although the
    # largest value over the cell ends is that close to it
    if case == "extremum":
        # |T_40| (R^2 - (x - c)^2) / R^2 peaks at the extremum
        # c = -cos(pi/40) of T_40; the next extremum is 9e-9 below
        c = -math.cos(math.pi / 40)
        R = (1.0 + c) / math.sqrt(1e-9)
        lead, zeros, gap = -2.0 ** 39 / R ** 2, _T40_ZEROS + [c + R, c - R], 1e-9
    else:
        # 21 factors R^2 - (x - c)^2, R = 10, peak at c inside the first
        # grid cell [-1, -1 + 4.2e-5], whose certified top lies within 1e-9
        # relative of the values at its ends
        c = -1.0 + 2e-5
        lead, zeros, gap = 1e-42, [c + s for _ in range(21) for s in (10.0, -10.0)], 8.4e-11
    peak = abs(zero_list_values(lead, zeros, [c])[0])
    end = abs(zero_list_values(lead, zeros, [-1.0])[0])
    assert abs(1.0 - end / peak - gap) <= 0.1 * gap
    P = from_zeros(lead, zeros)
    cv = sup_norm(P)
    assert cv.err <= 1e-9 * cv.value, cv
    assert cv.value + cv.err >= peak, (cv, peak)
    assert cv.value + cv.err >= zero_list_grid_max(lead, zeros, 0)
    assert cv.value - cv.err <= zero_list_sup_upper(lead, zeros, 0)
    assert abs(argmax_abs(P) - c) <= 1e-9


def test_narrow_closes_labelled_brackets_to_xtol():
    # the sup engine narrows the brackets of h for P and for P' in one
    # lockstep loop, telling them apart by a label; every bracket must end
    # at width <= xtol around its own function's root
    xtol = 1e-13
    funcs = (lambda x: x ** 3 - 2.0,            # root 2^(1/3)
             lambda x: np.exp(x) - 3.0,          # root ln 3
             lambda x: np.tan(x) - 0.5)          # root atan(1/2)
    exact = np.array([2.0 ** (1 / 3), math.log(3.0), math.atan(0.5)])
    which = np.array([0, 1, 2, 0, 1, 2])
    a = np.array([1.0, 0.5, 0.0, 1.25, 1.0, 0.4])
    b = np.array([2.0, 1.5, 1.0, 1.26, 1.1, 0.5])

    def f(c, w):
        return np.choose(w, [g(c) for g in funcs])

    mids = _narrow(f, a.copy(), b.copy(), f(a, which), f(b, which), xtol, which)
    slack = xtol / 2 + 4 * np.finfo(float).eps
    assert np.all(np.abs(mids - exact[which]) <= slack), mids - exact[which]
    one = _narrow(funcs[2], a[2:3].copy(), b[2:3].copy(), funcs[2](a[2:3]),
                  funcs[2](b[2:3]), xtol)
    assert abs(one[0] - exact[2]) <= slack


def _series_input(degree):
    """A zero exactly on the midpoint 0.25 of a test cell, zeros repeated
    at +-1, a near-real cluster of width 1e-6 at 0.6, then random zeros."""
    rng = np.random.default_rng(700 + degree)
    cluster = 0.6 + 1e-6 * (rng.uniform(-0.5, 0.5, 4) + 1j * rng.uniform(0.0, 1.0, 4))
    special = [0.25, 1.0, 1.0, -1.0, -1.0, *cluster]
    extra = max(degree - len(special), 0)
    zeros = special[:degree] + list(rng.uniform(-1.2, 1.2, extra)
                                    + 1j * rng.uniform(-0.5, 0.5, extra))
    return from_zeros(0.75 - 1.5j, zeros)


@pytest.mark.parametrize("degree, forms", [(0, (False, True)), (1, (False, True)),
                                           (3, (False, True)), (60, (False, True)),
                                           (200, (False,)), (2, (False, True)),
                                           (4, (False, True)), (5, (False, True)),
                                           (6, (False, True)), (7, (False, True)),
                                           (8, (False, True)), (9, (False, True))])
def test_cell_series_within_rounding_bound_of_exact_expansion(degree, forms):
    # every coefficient of P and of P' in tau, cheap and full form, lies
    # within its stated rounding bound of the exact rational expansion
    P = _series_input(degree)
    a = np.array([0.125, 0.6 - 2e-6, 0.5, 0.96875, -1.0, -0.3])
    b = np.array([0.375, 0.6 + 2e-6, 0.7, 1.0, -0.75, 0.1])
    m, r = 0.5 * (a + b), 0.5 * (b - a)
    assert m[0] == 0.25
    for full in forms:
        (f0, e0, _), (f1, e1, _) = _series(P, a, b, (0, 1), full)
        assert f0.shape[1] == (degree + 1 if full else min(degree + 1, 4))
        for i in range(a.size):
            c = exact_cell_series(P.leading, P.zeros, m[i], r[i], f0.shape[1])
            R = Fraction(r[i])
            dc = [(j * u / R, j * v / R) for j, (u, v) in enumerate(c)][1:]
            for f, err, exact in ((f0[i], e0[i], c), (f1[i], e1[i], dc)):
                assert f.size == len(exact)
                for j, (u, v) in enumerate(exact):
                    du, dv = Fraction(f[j].real) - u, Fraction(f[j].imag) - v
                    assert du * du + dv * dv <= Fraction(err[j]) ** 2, (full, i, j)


def _grouped_reference(P, a, b, terms, group):
    """The Taylor coefficients of P(m + r tau) as a (cells x terms) array,
    group zeros at a time: each group's product in s = r tau by the plain
    recurrence q_j <- q_j (m - z) + q_(j-1) from q = (m - z, 1) for its
    first zero, q_j times r^j (formed as r r ... r), then
    c_j <- sum_k c_(j-k) q_k, summed in k order, for j < terms."""
    m, r = 0.5 * (a + b), 0.5 * (b - a)
    c = np.zeros((m.size, terms), dtype=complex)
    c[:, 0] = P.leading
    for s in range(0, P.degree, group):
        zs = P.zeros[s:s + group]
        q = np.zeros((m.size, len(zs) + 1), dtype=complex)
        q[:, 0], q[:, 1] = m - zs[0], 1.0
        for z in zs[1:]:
            t = (m - z)[:, None]
            q[:, 1:] = q[:, 1:] * t + q[:, :-1]
            q[:, :1] *= t
        rj = r
        for j in range(1, len(zs) + 1):
            q[:, j] *= rj
            rj = rj * r
        folded = np.zeros_like(c)
        for j in range(terms):
            acc = c[:, j] * q[:, 0]
            for k in range(1, min(j, len(zs)) + 1):
                acc = acc + c[:, j - k] * q[:, k]
            folded[:, j] = acc
        c = folded
    return c


def test_cell_series_is_the_grouped_product_bit_for_bit(monkeypatch):
    # the rounding bound is argued for the grouped operations (_series), so
    # the blocks of groups, the cut rows and the short last group must
    # reproduce them to the bit; 60 zeros leave a group of four, the others
    # none
    member = sample(ClassSpec(120, 20, pin_interval_zero=True), seed=3)
    cases = ((_series_input(60), (False, True)), (member, (False, True)),
             (_series_input(200), (False,)))
    for limit in (poly._BLOCK_LIMIT, 1):     # 1: blocks of two groups
        monkeypatch.setattr(poly, "_BLOCK_LIMIT", limit)
        for P, forms in cases:
            # the sup engine's start: max(2(d+1), min(8(d+1), 128)) Chebyshev cells
            n = P.degree + 1
            x = np.unique(_cheb_grid(-1.0, 1.0, max(2 * n, min(8 * n, 128))))
            a, b = x[:-1], x[1:]
            r = 0.5 * (b - a)
            M, E = _majorants(P, r, 0.5 * (a + b) - np.array(P.zeros)[:, None], 4)
            for full in forms:
                f, err, _ = _series(P, a, b, (0,), full)[0]
                ref = _grouped_reference(P, a, b, f.shape[1], poly._GROUP)
                assert np.array_equal(f, ref)
                bound = (4.0 * (P.degree + 2) * 2.0 ** -52 * M[:, None]
                         * (r[:, None] * E[1][:, None]) ** np.arange(f.shape[1]))
                assert np.array_equal(err, bound)


def _into_half_disk(zeros):
    """The zeros reflected into the closed upper half-disk."""
    z = np.asarray(zeros, dtype=complex)
    z = np.where(z.imag < 0, np.conj(z), z)
    return np.where(np.abs(z) > 1, z / np.abs(z), z)


def test_blocks_never_change_a_bit(monkeypatch):
    # every (zeros x points or cells) array is built in blocks of points or
    # cells; the flat test of _sup_abs waits for the best of every block,
    # where a running maximum would let the blocks decide which cells count
    # as flat ((x^4 - 1)^10 has a flat interior maximum at 0)
    rng = np.random.default_rng(7)
    c = rng.choice([1e-6, 1e-3, 0.05, 0.5], size=60)
    cluster = rng.uniform(-1.2, 1.2, 60) + 1j * c * rng.normal(0.0, 1.0, 60)
    flat = from_zeros(1.0, [1.0, -1.0, 1j, -1j] * 10)
    near_real = from_zeros(1.0, cluster)
    member = sample(ClassSpec(200, 33, pin_interval_zero=True), seed=1)

    def results():
        out = [turan_ratio(P) for P in (flat, near_real, member)]
        for P in (flat, near_real):
            real = from_zeros(1.0, np.concatenate([P.zeros, np.conj(P.zeros)]))
            out += [sup_norm(P), argmax_abs_derivative(P), total_variation(real)]
        for P in (flat, near_real, member):
            rep = small_logderiv_measure(from_zeros(1.0, _into_half_disk(P.zeros)), 1.0)
            assert rep.measure.value > 0
            out += [rep.measure, rep.intervals]
        return out

    default = results()
    monkeypatch.setattr(poly, "_BLOCK_LIMIT", 1 << 40)      # one block
    assert results() == default
    monkeypatch.setattr(poly, "_BLOCK_LIMIT", 1)            # blocks of 2
    assert poly._blocks(9, 1) == [slice(0, 2), slice(2, 4), slice(4, 6), slice(6, 9)]
    assert results() == default


def test_engine_memory_is_linear_in_the_degree():
    # the (zeros x cells) arrays of one block are at most a few MB at any
    # degree; with the whole 8d+8-cell grid in one array, this call traced
    # 247 MB at d = 1000
    P = sample(ClassSpec(1000, 166, pin_interval_zero=True), seed=1)
    tracemalloc.start()
    try:
        cv = turan_ratio(P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20, peak
    assert cv.err <= 1e-9 * cv.value, cv


def _chebyshev(n):
    """T_n / 2^(n-1), from its zeros cos((2j+1) pi / (2n))."""
    return from_zeros(1.0, np.cos((2 * np.arange(n) + 1) * np.pi / (2 * n)))


def _unity_power(m, n):
    """(z^m - 1)^n: on [-1, 1], |P| = (1 - x^m)^n for even m, flat to order
    m at its maximum 1 at x = 0."""
    return from_zeros(1.0, np.tile(np.exp(2j * np.pi * np.arange(m) / m), n))


@pytest.mark.parametrize("n", [60, 200])
def test_chebyshev_ratio_is_markovs_n_squared(n):
    # Markov's inequality is an equality for T_n: ||T_n'|| / ||T_n|| = n^2
    cv = turan_ratio(_chebyshev(n))
    assert abs(cv.value - n * n) <= cv.err <= 1e-9 * n * n, cv


@pytest.mark.parametrize("m", [8, 12, 16])
@pytest.mark.parametrize("n", [2, 6, 10])
def test_unity_power_sup_norm_is_one_at_zero(m, n):
    P = _unity_power(m, n)
    cv = sup_norm(P)
    assert abs(cv.value - 1.0) <= cv.err <= 1e-9, cv
    # the reported argmax lies where (1 - x^m)^n is within 128 eps of 1
    assert n * argmax_abs(P) ** m <= 128 * np.finfo(float).eps
    # with both norms in one pass, the flat cells at the maximum settle only
    # on the full series; bisected instead, they reach _refine's cap, and
    # (z^16 - 1)^10 gets a radius of 4.6e-8 relative
    ratio = turan_ratio(P)
    assert ratio.err <= 1e-9 * ratio.value, ratio


def test_cells_go_to_the_full_series_only_where_bisection_cannot_win(monkeypatch):
    # cells per form of _series, measured on the built code; the bounds
    # leave a quarter over those counts.  When every cell the cheap series
    # fails went on to the full one, T_200 took 454 full-series cells and
    # (z^16 - 1)^10, with its flat maximum, 422.
    series, cells = supnorm._series, {False: 0, True: 0}

    def counted(P, a, b, orders, full, reach=None):
        cells[full] += a.size
        return series(P, a, b, orders, full, reach)

    monkeypatch.setattr(supnorm, "_series", counted)
    turan_ratio(_chebyshev(200))                # 3,930 cheap, 0 full
    assert cells[True] == 0 and cells[False] <= 1.25 * 3930, cells
    cells.update({False: 0, True: 0})
    turan_ratio(_unity_power(16, 10))           # 3,198 cheap, 56 full
    assert cells[True] <= 1.25 * 56 and cells[False] <= 1.25 * 3198, cells


def _mp_sup(lead, zeros):
    """max |P| on [-1, 1] at 50 digits: |P|^2 = prod (x - z)(x - conj z) at
    the ends and at the real roots of its derivative (simple roots only:
    mpmath's polyroots does not converge on a repeated one)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        c = [mp.mpf(1)]                         # coefficients, highest first
        for z in zeros:
            for w in (mp.mpc(z), mp.conj(mp.mpc(z))):
                c = [u - w * v for u, v in zip(c + [0], [0] + c)]
        c = [mp.re(u) for u in c]
        dc = [u * (len(c) - 1 - i) for i, u in enumerate(c[:-1])]
        crit = [mp.re(r) for r in mp.polyroots(dc, maxsteps=200, extraprec=200)
                if abs(mp.im(r)) < 1e-30 and -1 < mp.re(r) < 1]
        return abs(mp.mpc(lead)) * mp.sqrt(max(mp.polyval(c, x) for x in crit + [-1, 1]))


@pytest.mark.parametrize("lead", [5e-324, 1e-320, 1e-300, 1e300, 1e308, -3 + 4j])
def test_extreme_leading_coefficients(lead):
    # the ratio leaves the leading coefficient out, so it cannot lose it to
    # underflow (1e-320 gave 1.50014 +- 0 for 1.5) or overflow (1e308 gave
    # NaN for 0.75); a norm scales it back once, with that rounding in the
    # radius, or raises where the norm leaves the floating-point range
    mp = pytest.importorskip("mpmath")
    for zeros, exact in (([0.5, 0.2], 1.5), ([3.0, 3.0, 3.0], 0.75),
                         ([0.3 + 0.4j, -0.6, 0.9], None)):
        cv = turan_ratio(from_zeros(lead, zeros))
        assert cv == turan_ratio(from_zeros(1.0, zeros)), (zeros, cv)
        assert exact is None or abs(cv.value - exact) <= cv.err, (zeros, cv)
    for zeros in ([0.5, 0.2], [3.0, 2.9, 3.1], [0.3 + 0.4j, -0.6, 0.9]):
        true = _mp_sup(lead, zeros)
        try:
            cv = sup_norm(from_zeros(lead, zeros))
        except OverflowEvaluationError:
            assert true > np.finfo(float).max, (zeros, true)
            continue
        with mp.workdps(50):
            assert cv.value - mp.mpf(cv.err) <= true <= cv.value + mp.mpf(cv.err), (zeros, cv)


@pytest.mark.parametrize("value, err", [
    (math.nan, 0.0), (math.inf, 0.0), (-math.inf, 1.0), (1.0, math.nan), (1.0, -1e-300)])
def test_certified_value_is_finite_with_a_nonnegative_radius(value, err):
    with pytest.raises(ValueError):
        CertifiedValue(value, err)


def test_overflow_raises_without_a_warning():
    # |(x - 10)^400| reaches 11^400 on [-1, 1]; no leading coefficient can
    # bring the monic P back into range for the engine
    P = from_zeros(1.0, [10.0] * 400)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (turan_ratio, sup_norm, sup_norm_derivative, total_variation):
            with pytest.raises(OverflowEvaluationError,
                               match="exceeds the floating-point range on the interval"):
                f(P)
        with pytest.raises(OverflowEvaluationError, match="the sup norm of P exceeds"):
            sup_norm(from_zeros(1e308, [3.0, 3.0, 3.0]))


def _chebyshev_zeros(n, order):
    """The zeros cos((2j+1) pi / 2n) of T_n, ascending in j ("sorted") or
    as z[::2] + z[1::2][::-1] ("interleaved")."""
    z = list(np.cos((2 * np.arange(n) + 1) * np.pi / (2 * n)))
    return z if order == "sorted" else z[::2] + z[1::2][::-1]


@functools.lru_cache(maxsize=None)
def _chebyshev_exact(n):
    """(ratio, sup, variation) on [-1, 1] of the monic P whose zeros are the
    rounded zeros of T_n, at 60 digits.  Rounding the zeros moves the
    values of P by about 1e-11 relative, more than a sup-norm radius, so
    the reference is P's own: |P'| peaks at the ends, as |T_n'| = n^2 does
    there and nowhere else, and each extremum of P lies beside one of T_n,
    x_j = cos(j pi / n), where P' = O(1e-11 n^2 max|P|) and P'' >= n^2 max|P|
    put |P(x_j)| within 1e-16 relative of it."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        z = [mp.mpf(float(t)) for t in _chebyshev_zeros(n, "sorted")]
        v = [mp.fprod(x - t for t in z) for x in (mp.cos(j * mp.pi / n) for j in range(n + 1))]
        slope = max(abs(v[j] * mp.fsum(1 / (e - t) for t in z)) for j, e in ((0, 1), (n, -1)))
        sup = max(abs(u) for u in v)
        return slope / sup, sup, mp.fsum(abs(b - a) for a, b in zip(v, v[1:]))


@pytest.mark.parametrize("order", ["sorted", "interleaved"])
@pytest.mark.parametrize("n", [400, 510, 520, 700, 800, 900, 960, 1000, 1030])
@pytest.mark.parametrize("i, f", list(enumerate([turan_ratio, sup_norm, total_variation])),
                         ids=["ratio", "sup", "variation"])
def test_chebyshev_certificates_enclose_or_raise(i, f, n, order):
    # T_n's monic sup 2^(1-n) falls below 2^-511 from n = 513 on, where
    # |F|^2 in the cell test and the products over the zeros underflow:
    # T_800, T_900 and T_1000 sorted gave ratios far from n^2 with small
    # radii, and T_900's sup and variation missed by factors of 5600 and 18
    try:
        cv = f(from_zeros(1.0, _chebyshev_zeros(n, order)))
    except OverflowEvaluationError as exc:
        assert n > 512 and "falls below 2^-511" in str(exc)
        return
    exact = _chebyshev_exact(n)[i]
    assert abs(cv.value - exact) <= cv.err, (cv, exact)


def test_total_variation_rejects_a_non_real_polynomial():
    with pytest.raises(ValueError, match="requires a real-valued polynomial"):
        total_variation(from_zeros(1.0, [0.5j]))


def test_total_variation_rejects_a_polynomial_non_real_between_samples():
    # Im P = 0.2 prod (x - t) over t = -1, -1/2, 0, 1/2, 1 reaches 1.4% of
    # max|P| on [-1, 1] but vanishes at those five points; the cell series
    # of P sees it between them
    c = np.poly([0.3, -0.2, 0.7, -0.5, 0.9, -0.1, 0.05]).astype(complex)
    c[-6:] += 0.2j * np.poly(np.linspace(-1, 1, 5))
    P = from_zeros(c[0], np.roots(c))
    with pytest.raises(ValueError, match="requires a real-valued polynomial"):
        total_variation(P)


def test_total_variation_accepts_a_real_polynomial_whose_cells_underflow():
    # beside the 7-fold zero, cells 1e-12 wide give Taylor coefficients below
    # 2^-1022, whose relative rounding bounds underflow to 0 while their
    # imaginary parts keep a rounding of 2^-1074
    zeros = [0.25] * 7 + [0.5 + 0.5j, 0.5 - 0.5j]
    ref = total_variation(from_zeros(1.0, zeros))
    cv = total_variation(from_zeros(1e-250, zeros))
    assert cv.value == pytest.approx(1e-250 * ref.value, rel=1e-12, abs=0)


@pytest.mark.parametrize("c", [1e-20, 1.0, 1e200, -2.0])
def test_total_variation_real_probe_is_relative(c):
    # the probe compares Im P with |P| itself, so a scaled non-real P is
    # rejected at every leading coefficient and a real one accepted
    with pytest.raises(ValueError, match="requires a real-valued polynomial"):
        total_variation(from_zeros(c, [0.5j]))
    # (x^2 + 1/4)(x - 0.3) is increasing: V = |c| (P(1) - P(-1)) = 2.5 |c|
    cv = total_variation(from_zeros(c, [0.5j, -0.5j, 0.3]))
    assert cv.value == pytest.approx(2.5 * abs(c), rel=1e-14, abs=0)


def _value_pass(monkeypatch):
    """Record, for each engine call, its final cell ends and their tops and
    the points of its value pass (the first value-kernel call that widens
    its points after the cells are final), and the size of every
    value-kernel call and of every _narrow call."""
    seen = {"ends": [], "tops": [], "pass": [], "values": [], "narrowed": []}
    cells, values, narrow = supnorm._cells, supnorm._values, supnorm._narrow

    def cells_(*args, **kwargs):
        out = cells(*args, **kwargs)
        seen["ends"].append(out[0])
        seen["tops"].append(out[1][0])
        return out

    def values_(P, xs, order, w=None):
        if w is not None and len(seen["pass"]) < len(seen["ends"]):
            seen["pass"].append(np.array(xs))
        seen["values"].append(np.size(xs))
        return values(P, xs, order, w)

    def narrow_(f, a, *args, **kwargs):
        seen["narrowed"].append(a.size)
        return narrow(f, a, *args, **kwargs)

    monkeypatch.setattr(supnorm, "_cells", cells_)
    monkeypatch.setattr(supnorm, "_values", values_)
    monkeypatch.setattr(supnorm, "_narrow", narrow_)
    return seen


def test_value_pass_takes_only_the_ends_of_candidate_cells(monkeypatch):
    # a member of degree 400 peaks at one end: only the cells that can hold
    # a maximum of |P| or |P'| send their ends to the value pass, no root is
    # narrowed, and no value-kernel call is made on no points
    seen = _value_pass(monkeypatch)
    P = sample(ClassSpec(400, 66, pin_interval_zero=True), seed=1)
    cv = turan_ratio(P)
    (ends,), (done,) = seen["ends"], seen["pass"]
    assert done.size <= 0.05 * ends.size, (done.size, ends.size)
    assert seen["narrowed"] == [] and min(seen["values"]) > 0, seen
    lead, zeros = P.leading, P.zeros
    lower = zero_list_grid_max(lead, zeros, 1) / zero_list_sup_upper(lead, zeros, 0)
    upper = zero_list_sup_upper(lead, zeros, 1) / zero_list_grid_max(lead, zeros, 0)
    assert lower - cv.err <= cv.value <= upper + cv.err, (lower, cv, upper)
    # T_200 equioscillates: the cell around each of its 201 extrema
    # cos(j pi / 200), where |P| ties with its maximum, sends both ends to
    # the value pass (the cells between them may be dropped)
    for key in seen:
        seen[key].clear()
    cv = turan_ratio(_chebyshev(200))
    (ends,), (done,) = seen["ends"], seen["pass"]
    cell = np.searchsorted(ends, np.cos(np.arange(201) * np.pi / 200), side="right") - 1
    cell = np.clip(cell, 0, ends.size - 2)
    assert np.all(np.isin(ends[cell], done) & np.isin(ends[cell + 1], done))
    assert abs(cv.value - 40000.0) <= cv.err, cv


def _lifted_d1(seed):
    """The D1 zeros of seed and eight far pairs +-iR, R set so that the
    monic |P'| peaks at 2^512.5: there its square overflows, and the cell
    test's top of |P'| is NaN on the cells at the peak, while |P| stays
    below 2^512.  The leading coefficient 2^-600 keeps P's norms small."""
    zeros = list(_d1_zeros(seed))
    peak = zero_list_grid_max(1.0, zeros, 1, m=20_001)
    R = 2.0 ** ((512.5 - math.log2(peak)) / 16)
    return from_zeros(2.0 ** -600, zeros + [1j * R, -1j * R] * 8)


@pytest.mark.parametrize("case, inside", [("remark", True), ("pinned150", True),
                                          ("d1-4", True), ("d1-1", False),
                                          ("d1-6", False)])
def test_interior_maximum_among_dropped_cells_is_enclosed(case, inside, monkeypatch):
    # the maximum of |P| or |P'| lies inside (-1, 1) (or, for two lifted D1
    # clusters, at -1), in one of the few cells that can hold it, all others
    # dropped from the value pass.  On the lifted D1 clusters the tops at
    # the peak of |P'| are NaN: dropping those cells missed |P'| by up to 27%
    if case == "remark":         # degree 80, |P| peaks inside
        P, order = remark_family(0.5, 20).P, 0
    elif case == "pinned150":    # |P'| peaks at -0.98
        P, order = sample(ClassSpec(150, 130, pin_interval_zero=True), seed=240), 1
    else:
        P, order = _lifted_d1(int(case[3:])), 1
    seen = _value_pass(monkeypatch)
    cv, n0, n1 = _one_pass_agrees(P)
    argmax = (argmax_abs, argmax_abs_derivative)[order](P)
    assert (-0.999 < argmax < 0.999) == inside, argmax
    for ends, done in zip(seen["ends"], seen["pass"]):
        assert done.size <= 0.1 * ends.size, (done.size, ends.size)
    assert case[:2] != "d1" or any(np.isnan(t).any() for t in seen["tops"])
    lead, zeros = P.leading, P.zeros
    for o, n in ((0, n0), (1, n1)):
        assert n.err <= 1e-9 * n.value, (o, n)
        assert n.value + n.err >= zero_list_grid_max(lead, zeros, o), o
        assert n.value - n.err <= zero_list_sup_upper(lead, zeros, o), o
    # |P'| at its argmax, in exact arithmetic, attains its norm
    at = exact_derivative_abs(lead, zeros, argmax_abs_derivative(P))
    assert abs(at - n1.value) <= n1.err + 1e-12 * n1.value, (at, n1)
    lower = zero_list_grid_max(lead, zeros, 1) / zero_list_sup_upper(lead, zeros, 0)
    upper = zero_list_sup_upper(lead, zeros, 1) / zero_list_grid_max(lead, zeros, 0)
    assert cv.err <= 1e-9 * cv.value, cv
    assert lower - cv.err <= cv.value <= upper + cv.err, (lower, cv, upper)


def test_a_top_within_the_margin_below_best_keeps_its_cell(monkeypatch):
    # The candidate rule keeps a cell whose top is not below best (1 - 64
    # eps): the margin covers the rounding of top.  Computed tops exceed
    # best by far more than that (by at least 2 err_0 on the cell of best),
    # so here a recorded top is moved into it: |P| and |P'| peak at -1, the
    # left end of the first cell, whose top becomes best (1 - 32 eps), and
    # the cell at 0 gets the looser top best, so the pass still has a
    # candidate without the first cell and does not fall back to every end.
    # The result must not change.
    P = sample(ClassSpec(120, 20, pin_interval_zero=True), seed=3)
    assert argmax_abs(P) == argmax_abs_derivative(P) == -1.0
    plain = turan_ratio(P), sup_norm(P)
    best = {}
    series, cells = supnorm._series, supnorm._cells

    def series_(P, a, b, orders, full, reach=None):
        # the engine's best: the largest |f_0| - err_0 over every cell tested
        out = series(P, a, b, orders, full, reach)
        for o, (f, err, _) in zip(orders, out):
            low = float(np.max(np.abs(f[:, 0]) - err[:, 0], initial=0.0))
            best[o] = max(best.get(o, 0.0), low)
        return out

    def cells_(*args, **kwargs):
        x, record, given_up = cells(*args, **kwargs)
        tops = record[0]                        # a view: written in place
        mid = np.searchsorted(x, 0.0) - 1
        assert mid > 0 and not given_up[mid]
        for i, o in enumerate(sorted(best)):
            tops[i, 0] = best[o] * (1.0 - 32.0 * np.finfo(float).eps)
            tops[i, mid] = best[o]
        return x, record, given_up

    monkeypatch.setattr(supnorm, "_series", series_)
    monkeypatch.setattr(supnorm, "_cells", cells_)
    for f, want in zip((turan_ratio, sup_norm), plain):
        best.clear()
        assert f(P) == want, (f, want)


def _exact_tops(zeros, m, r):
    """prod(|m - z_i| + r) and prod(|m - z_i| + r) sum 1/(|m - z_i| + r) at
    40 digits: the majorants of |P| and |P'| on [m - r, m + r], P monic."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        w = [abs(mp.mpf(m) - mp.mpc(z)) + mp.mpf(r) for z in zeros]
        M = mp.fprod(w)
        return M, M * mp.fsum(1 / u for u in w)


def _screened_tops(zeros, a, b):
    """The screen's tops (t_0, t_1) of the monic P on the cells [a, b]."""
    m, r = 0.5 * (a + b), 0.5 * (b - a)
    return poly._tops(from_zeros(1.0, zeros), m, r, (0, 1))[0]


def test_screen_tops_bound_the_exact_majorants():
    # the cell screen drops a cell on its tops t_0 = M and t_1 = M E_1,
    # each factor padded by 1 + 4(d+2) eps: unpadded, M fell up to 2.4e-14
    # relative below the exact product at these degrees
    rng = np.random.default_rng(30)
    for draw in range(40):
        d = int(rng.integers(1, 701))
        c = rng.choice([1e-6, 1e-3, 0.05, 0.5], size=d)
        zeros = rng.uniform(-1.2, 1.2, d) + 1j * c * rng.normal(0.0, 1.0, d)
        # a near-real cluster of up to eight zeros around a point of [-1, 1]
        k = min(d, int(rng.integers(0, 9)))
        x0 = rng.uniform(-1.0, 1.0)
        zeros[:k] = x0 + 1e-6 * (rng.uniform(-1, 1, k) + 1j * rng.uniform(0, 1, k))
        m = np.append(rng.uniform(-1.0, 1.0, 3), x0)
        r = 10.0 ** rng.uniform(-9.0, -1.0, 4)
        a, b = m - r, m + r
        t = _screened_tops(zeros, a, b)
        for i in range(m.size):
            M, ME = _exact_tops(zeros, 0.5 * (a[i] + b[i]), 0.5 * (b[i] - a[i]))
            assert t[0, i] >= M and t[1, i] >= ME, (draw, d, i, t[:, i], M, ME)
    # a zero exactly at the midpoint 0.25 of [0.125, 0.375]
    zeros = [0.25, 0.6 + 1e-6j, -0.3, 0.9 - 0.2j]
    t = _screened_tops(zeros, np.array([0.125, -1.0]), np.array([0.375, -0.5]))
    for i, (a, b) in enumerate([(0.125, 0.375), (-1.0, -0.5)]):
        M, ME = _exact_tops(zeros, 0.5 * (a + b), 0.5 * (b - a))
        assert t[0, i] >= M and t[1, i] >= ME


def test_screen_never_drops_a_cell_whose_top_is_not_a_number():
    # on a cell of width 0 that holds a zero, E_1 = inf and t_1 = 0 * inf
    # is NaN: no comparison can drop it.  t_0 = 0 is raised to 2^-1074.
    zeros = [0.25, 0.5, -0.3 + 0.1j]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = _screened_tops(zeros, np.array([0.25, 0.0]), np.array([0.25, 0.1]))
    assert t[0, 0] == 5e-324 and np.isnan(t[1, 0])
    assert not np.any(t[1, 0] < np.array([0.0, 1.0, np.inf]))
    M, ME = _exact_tops(zeros, 0.05, 0.05)
    assert t[0, 1] >= M and t[1, 1] >= ME


def test_screen_tops_that_underflow_read_the_smallest_subnormal():
    # 80 zeros within 1e-5 of the cell: M ~ 1e-397 underflows to 0, and
    # a top that reads 0 would not bound anything
    rng = np.random.default_rng(31)
    zeros = 0.3 + 1e-5 * (rng.uniform(-1, 1, 80) + 1j * rng.uniform(0, 1, 80))
    a, b = np.array([0.3 - 1e-6, -1.0]), np.array([0.3 + 1e-6, -0.9])
    t = _screened_tops(zeros, a, b)
    assert t[0, 0] == t[1, 0] == 5e-324
    for i in range(a.size):
        M, ME = _exact_tops(zeros, 0.5 * (a[i] + b[i]), 0.5 * (b[i] - a[i]))
        assert t[0, i] >= M and t[1, i] >= ME, (i, t[:, i], M, ME)


@pytest.mark.parametrize("case", ["member600", "d1-300"])
def test_screen_at_high_degree_keeps_the_ratio_in_the_oracle_bracket(case, monkeypatch):
    # the cell screen drops almost every start cell of the degree-600
    # member before any Taylor series: the series sees fewer than 10% of
    # its 2(d+1) start cells over every round
    if case == "member600":
        P = sample(ClassSpec(600, 100, pin_interval_zero=True), seed=1)
    else:
        P = from_zeros(1.0, _d1_zeros(30, 300, 301))
    series, cells = supnorm._series, [0]

    def counted(P, a, b, orders, full, reach=None):
        cells[0] += a.size
        return series(P, a, b, orders, full, reach)

    monkeypatch.setattr(supnorm, "_series", counted)
    cv = turan_ratio(P)
    assert case != "member600" or cells[0] < 0.1 * 2 * (P.degree + 1), cells
    lead, zeros = P.leading, P.zeros
    lower = zero_list_grid_max(lead, zeros, 1) / zero_list_sup_upper(lead, zeros, 0)
    upper = zero_list_sup_upper(lead, zeros, 1) / zero_list_grid_max(lead, zeros, 0)
    assert cv.err <= 1e-9 * cv.value, cv
    assert lower - cv.err <= cv.value <= upper + cv.err, (lower, cv, upper)
