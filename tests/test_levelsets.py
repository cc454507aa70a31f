"""Level sets of the logarithmic derivative and pointwise decay checks."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from turanlab import (
    LARGE_SET_CONSTANT,
    Interval,
    MembershipError,
    OverflowEvaluationError,
    SMALL_SET_CONSTANT,
    flipped_decay_check,
    from_zeros,
    incomplete_decay_check,
    large_logderiv_measure,
    logderiv_values,
    mean_value_window_check,
    small_logderiv_measure,
    sample,
    ClassSpec,
    levelsets,
)
from turanlab.levelsets import _MIN_CELL

from oracles import (
    grid_measure_large_logderiv,
    grid_measure_small_logderiv,
    zero_list_grid_max,
    zero_list_level_measure,
    zero_list_values,
)

# frozen ahead of implementation: |2x/(x^2-1)| >= 100 near +-1 gives
# intervals of half-width 1 - r where r solves r^2 + (2/100) r - 1 = 0
LEMMA32_X2M1_A100 = 0.019900002499875


def test_constants():
    assert SMALL_SET_CONSTANT == pytest.approx(70 * math.e)
    assert LARGE_SET_CONSTANT == pytest.approx(8 * math.sqrt(2))


def test_small_measure_monomial_wide():
    # |Q'/Q| = n/|x| <= 2n  <=>  |x| >= 1/2, total length 1
    Q = from_zeros(1.0, [0.0] * 7)
    rep = small_logderiv_measure(Q, 2.0)
    assert rep.measure.value == pytest.approx(1.0, abs=1e-9)
    assert rep.bound == pytest.approx(SMALL_SET_CONSTANT * 2.0)
    assert rep.satisfied


def test_small_measure_monomial_empty():
    Q = from_zeros(1.0, [0.0] * 7)
    rep = small_logderiv_measure(Q, 0.5)
    assert rep.measure.value == pytest.approx(0.0, abs=1e-12)


def test_small_measure_offaxis_empty():
    Q = from_zeros(1.0, [1j] * 6)
    rep = small_logderiv_measure(Q, 0.5)
    assert rep.measure.value == pytest.approx(0.0, abs=1e-12)


def test_small_measure_requires_confined_zeros():
    with pytest.raises(MembershipError):
        small_logderiv_measure(from_zeros(1.0, [2.0, 0.5]), 1.0)


def test_small_measure_rejects_bad_delta():
    for delta in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            small_logderiv_measure(from_zeros(1.0, [0.5]), delta)


def test_large_measure_rejects_bad_alpha():
    for alpha in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            large_logderiv_measure(from_zeros(1.0, [0.5]), alpha)


def _refine_give_ups(monkeypatch):
    """Record the cells that _refine gives up on, per level-set call."""
    refine, log = levelsets._refine, []

    def spy(*args):
        out = refine(*args)
        a, b, _, given_up = out
        log.append(np.stack([a[given_up], b[given_up]]))
        return out

    monkeypatch.setattr(levelsets, "_refine", spy)
    return log


@pytest.mark.parametrize("b, delta", [(0.5, 1.0), (0.25, 1.2), (0.9, 0.8), (1.0, 0.75)])
def test_small_measure_closed_form_crossings(monkeypatch, b, delta):
    # |1/(x - ib)| <= delta  <=>  |x| >= sqrt(1/delta^2 - b^2): the two
    # boundary points are located by the crossing path, each within _MIN_CELL
    give_ups = _refine_give_ups(monkeypatch)
    rep = small_logderiv_measure(from_zeros(1.0, [1j * b]), delta)
    exact = 2.0 * (1.0 - math.sqrt(1.0 / delta ** 2 - b ** 2))
    assert abs(rep.measure.value - exact) <= rep.measure.err <= 2 * _MIN_CELL
    assert give_ups[0].size == 0
    assert len(rep.intervals) == 2


@pytest.mark.parametrize("b, alpha", [(0.5, 1.0), (-0.3, 2.5)])
def test_large_measure_closed_form_crossings(monkeypatch, b, alpha):
    # |1/(x - ib)| >= alpha  <=>  |x| <= sqrt(1/alpha^2 - b^2)
    give_ups = _refine_give_ups(monkeypatch)
    rep = large_logderiv_measure(from_zeros(1.0, [1j * b]), alpha)
    exact = 2.0 * math.sqrt(1.0 / alpha ** 2 - b ** 2)
    assert abs(rep.measure.value - exact) <= rep.measure.err <= 2 * _MIN_CELL
    assert give_ups[0].size == 0
    assert len(rep.intervals) == 1


def test_located_crossing_is_charged_its_distance_to_the_piece_ends():
    # the crossing lies in the piece [pl, pr] around the located x, so x
    # errs by at most max(x - pl, pr - x), about half the piece: both ends
    # of {|1/(x - i/2)| >= 1} = [-sqrt(3)/2, sqrt(3)/2] were charged the
    # whole _MIN_CELL width, a radius of 2.0e-12 (1e-15 covers the
    # rounding of math.sqrt)
    rep = large_logderiv_measure(from_zeros(1.0, [0.5j]), 1.0)
    assert abs(rep.measure.value - math.sqrt(3.0)) + 1e-15 <= rep.measure.err <= 1.1e-12


def test_small_measure_tangency_falls_back_to_bisection(monkeypatch):
    # |1/(x - i)| = 1/sqrt(1 + x^2) touches the level 1 at its maximum x = 0,
    # where |s|^2 is not monotone, and stays within rounding of the level for
    # |x| up to about 1e-7: the cells there are bisected down to _MIN_CELL
    # and given up on, and the measure still encloses 2
    give_ups = _refine_give_ups(monkeypatch)
    rep = small_logderiv_measure(from_zeros(1.0, [1j]), 1.0)
    assert abs(rep.measure.value - 2.0) <= rep.measure.err < 1e-6
    (lo, hi), = give_ups
    assert lo.size and np.all(hi - lo < _MIN_CELL)
    assert np.all(np.abs(lo) < 1e-6) and np.any(lo == 0.0)
    assert rep.measure.err == pytest.approx(np.sum(hi - lo), rel=1e-9)


def test_tangency_gives_up_no_more_than_bisection(monkeypatch):
    # the tangency at x = 0 is settled by neither split: eight-way splits
    # give up no more cells there than bisection does, and the radius, the
    # total width of those cells, stays at most 1.135e-7
    give_ups = _refine_give_ups(monkeypatch)
    refine = levelsets._refine
    Q = from_zeros(1.0, [1j])
    rep = small_logderiv_measure(Q, 1.0)
    monkeypatch.setattr(levelsets, "_refine", lambda x, settle, w, d, pieces: refine(x, settle, w, d))
    bisected = small_logderiv_measure(Q, 1.0)
    assert abs(rep.measure.value - 2.0) <= rep.measure.err <= 1.135e-7
    assert abs(bisected.measure.value - 2.0) <= bisected.measure.err
    assert 0 < give_ups[0].shape[1] <= give_ups[1].shape[1]


def test_small_measure_grid_agreement():
    rng = np.random.Generator(np.random.Philox(key=np.uint64(31)))
    for i in range(8):
        n = int(rng.integers(4, 12))
        Q = sample(ClassSpec(n, 0), seed=500 + i)
        delta = float(0.05 * 2 ** rng.integers(0, 6))
        rep = small_logderiv_measure(Q, delta)
        approx = grid_measure_small_logderiv(Q, delta, m=400_001)
        assert rep.measure.value == pytest.approx(approx, abs=5e-5)


def test_large_measure_reciprocal():
    # |1/x| >= 4  <=>  |x| <= 1/4
    rep = large_logderiv_measure(from_zeros(1.0, [0.0]), 4.0)
    assert rep.measure.value == pytest.approx(0.5, abs=1e-12)
    assert rep.bound == pytest.approx(LARGE_SET_CONSTANT / 4.0)
    assert rep.satisfied
    assert len(rep.intervals) == 1
    assert rep.intervals[0].lo == pytest.approx(-0.25, abs=1e-10)
    assert rep.intervals[0].hi == pytest.approx(0.25, abs=1e-10)


def test_large_measure_frozen_example():
    rep = large_logderiv_measure(from_zeros(1.0, [1.0, -1.0]), 100.0)
    assert rep.measure.value == pytest.approx(LEMMA32_X2M1_A100, abs=1e-9)
    assert rep.satisfied
    assert len(rep.intervals) == 2


def test_large_measure_constant():
    rep = large_logderiv_measure(from_zeros(3.0, []), 5.0)
    assert rep.measure.value == 0.0
    assert rep.satisfied


def test_large_measure_covers_zeros_of_R():
    # the set is closed and contains every zero of R in the ambient interval
    rep = large_logderiv_measure(from_zeros(1.0, [0.25]), 7.0)
    assert any(iv.lo - 1e-12 <= 0.25 <= iv.hi + 1e-12
               for iv in rep.intervals)


def test_large_measure_grid_agreement():
    rng = np.random.Generator(np.random.Philox(key=np.uint64(13)))
    for _ in range(8):
        k = int(rng.integers(1, 8))
        zeros = rng.uniform(-2, 2, k) + 1j * rng.uniform(-2, 2, k)
        R = from_zeros(1.0, zeros)
        alpha = float(10 ** rng.uniform(0, 2))
        rep = large_logderiv_measure(R, alpha)
        approx = grid_measure_large_logderiv(R, alpha, m=400_001)
        assert rep.measure.value == pytest.approx(approx, abs=5e-5)


def test_report_payload_shape():
    rep = large_logderiv_measure(from_zeros(1.0, [0.0]), 4.0)
    payload = rep.to_payload()
    assert set(payload) == {"measure", "err", "bound", "parameter",
                            "satisfied", "intervals"}


def test_logderiv_values_infinite_at_zeros():
    P = from_zeros(1.0, [0.5])
    vals = logderiv_values(P, np.array([0.5, 0.0]))
    assert math.isinf(vals[0])
    assert vals[1] == pytest.approx(abs(1.0 / -0.5))


def test_logderiv_values_at_high_degree():
    # |P| underflows or overflows at these points, but |P'/P| is finite
    vals = logderiv_values(from_zeros(1.0, [0.5j] * 1200), np.array([0.0, 0.3]))
    assert vals[0] == 2400.0
    assert vals[1] == pytest.approx(1200.0 / abs(0.3 - 0.5j), rel=1e-13)
    vals = logderiv_values(from_zeros(1.0, [3.0] * 800), np.array([0.0, -1.0]))
    assert vals == pytest.approx([800.0 / 3.0, 200.0], rel=1e-13)


def test_incomplete_decay_monomial():
    # S = x^(n-k): |x|^m <= x^(m/2) holds on [0,1]
    S = from_zeros(1.0, [0.0] * 11)
    rep = incomplete_decay_check(S, 12, 1)
    assert rep.restricted_sup < rep.full_sup
    assert rep.satisfied


def test_incomplete_decay_with_factor():
    S = from_zeros(1.0, [0.0] * 11 + [1.0])
    rep = incomplete_decay_check(S, 12, 1)
    assert rep.satisfied


def test_incomplete_decay_vacuous_interval():
    S = from_zeros(1.0, [0.0] * 9 + [0.5])
    rep = incomplete_decay_check(S, 10, 1)   # 10k >= n-k: the window is [0, 0]
    assert rep.vacuous
    assert rep.satisfied
    # the same report form as a non-vacuous one: |S| / x^((n-k)/2) vanishes
    # at 0, and ||S||_[0,1] = 1/2 at x = 1
    assert (rep.restricted_sup, rep.interval) == (0.0, Interval(0.0, 0.0))
    assert rep.full_sup == pytest.approx(0.5, rel=1e-14, abs=0)
    assert rep.to_payload()["interval"] == [0.0, 0.0]


def test_incomplete_decay_shape_mismatch():
    with pytest.raises(MembershipError):
        incomplete_decay_check(from_zeros(1.0, [0.5] * 4), 4, 1)


def test_flipped_decay_basic():
    n, k = 20, 1
    W = from_zeros(1.0, [1.0] * (n - k))
    rep = flipped_decay_check(W, n, k)
    assert rep.satisfied


def test_flipped_decay_degenerate_window():
    rep = flipped_decay_check(from_zeros(-1.0, [1.0]), 2, 1)
    assert rep.vacuous or rep.satisfied


@pytest.mark.parametrize("check, n, k, zeros", [
    (flipped_decay_check, 20, 1, [1.0] * 19),
    (flipped_decay_check, 40, 1, [1.0] * 39 + [0.2]),
    (incomplete_decay_check, 50, 2, [0.0] * 48 + [0.4 + 0.1j, 0.9 - 0.2j]),
    (incomplete_decay_check, 60, 2, [0.0] * 58 + [0.7, -0.3]),
], ids=["flipped-20", "flipped-40", "incomplete-50", "incomplete-60"])
def test_decay_scales_with_the_leading_coefficient(check, n, k, zeros):
    # the decision is taken on monic auxiliaries alone, so it does not move
    # with the leading coefficient, and the sups scale by its modulus
    ref = check(from_zeros(1.0, zeros), n, k)
    for c in (1e-200, 1e-150, 1.0, 1e200, -3 + 4j):
        rep = check(from_zeros(c, zeros), n, k)
        assert (rep.satisfied, rep.vacuous) == (ref.satisfied, ref.vacuous)
        assert rep.restricted_sup == pytest.approx(abs(c) * ref.restricted_sup, rel=1e-14)
        assert rep.full_sup == pytest.approx(abs(c) * ref.full_sup, rel=1e-14)


@pytest.mark.parametrize("n, k, zeros", [
    (50, 2, [0.0] * 48 + [0.4 + 0.1j, 0.9 - 0.2j]),
    (60, 2, [0.0] * 58 + [0.7, -0.3]),
])
def test_incomplete_decay_sups_match_dense_grid_maxima(n, k, zeros):
    # restricted_sup = sup |S| / x^((n-k)/2) on [0, 1 - 10k/(n-k)] and
    # full_sup = ||S||_[0,1]; both peaks sit inside their intervals
    rep = incomplete_decay_check(from_zeros(1.0, zeros), n, k)
    hi = 1.0 - 10.0 * k / (n - k)
    assert rep.interval == Interval(0.0, hi)
    R = zeros[n - k:]
    xs = np.linspace(0.0, hi, 200_001)
    restricted = xs ** ((n - k) / 2) * np.abs(zero_list_values(1.0, R, xs))
    assert rep.restricted_sup == pytest.approx(float(np.max(restricted)), rel=1e-6)
    full = zero_list_grid_max(1.0, zeros, 0, m=200_001, lo=0.0, hi=1.0)
    assert rep.full_sup == pytest.approx(full, rel=1e-6)
    assert rep.satisfied and rep.restricted_sup < rep.full_sup


def test_flipped_decay_regime():
    with pytest.raises(ValueError):
        flipped_decay_check(from_zeros(1.0, [1.0]), 2, 2)  # k > n/2


def test_flipped_decay_overflow_raises():
    # the monic sups are finite; times |leading| = 1e300 they are not
    with pytest.raises(OverflowEvaluationError, match=r"sup of \|y\^\(1/2\) W"):
        flipped_decay_check(from_zeros(1e300, [1.0] * 39 + [-1e10]), 40, 1)


def test_level_set_radius_covers_the_summed_widths_rounding():
    # each set holds the whole ambient interval, whose computed length
    # 0.7 - (-0.3) = 0.9999999999999999 is 2^-54 short of the exact one
    I = Interval(-0.3, 0.7)
    exact = Fraction(0.7) - Fraction(-0.3)
    for rep in (large_logderiv_measure(from_zeros(1, [5.0, 3 + 1j, -4 - 2j, 7j]), 0.01, I),
                small_logderiv_measure(from_zeros(1, [0.5j] * 3), 10.0, I)):
        m = rep.measure
        assert rep.intervals == (I,) and m.value == 0.9999999999999999
        assert abs(Fraction(m.value) - exact) <= Fraction(m.err) < 1e-15


def test_mean_value_window_scales_with_the_leading_coefficient():
    # decided on the monic P, as the flipped decay check is
    zeros = [3.0, 3.0, 3.0]
    ref = mean_value_window_check(from_zeros(1.0, zeros))
    for c in (1e-300, 1.0, 1e300, -3 + 4j):
        rep = mean_value_window_check(from_zeros(c, zeros))
        assert rep.satisfied == ref.satisfied
        # abs=0: approx's default absolute 1e-12 would pass anything at 1e-300
        assert rep.min_abs == pytest.approx(abs(c) * ref.min_abs, rel=1e-14, abs=0)
        assert rep.half_norm == pytest.approx(abs(c) * ref.half_norm, rel=1e-14, abs=0)


def test_mean_value_window_overflow_raises():
    # 1e308 (x - 3)^3 reaches 6.4e309 on [-1, 1]: a one-line error, with no
    # numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(OverflowEvaluationError):
            mean_value_window_check(from_zeros(1e308, [3.0, 3.0, 3.0]))


def test_mean_value_window_margin_is_relative(monkeypatch):
    # monic T_40 has sup 2^-39, below an absolute margin of 1e-9: with |P|
    # read as 0 on the window, it must fail as a degree-3 P does
    T40 = from_zeros(1.0, [math.cos((2 * j + 1) * math.pi / 80) for j in range(40)])
    assert mean_value_window_check(T40).satisfied
    monkeypatch.setattr(levelsets, "evaluate_many",
                        lambda P, ys: np.zeros(len(ys), dtype=complex))
    for P in (from_zeros(1.0, [0.3, -0.5, 2.0]), T40):
        assert not mean_value_window_check(P).satisfied


def test_large_level_set_of_real_zeros_is_booles_2k_over_alpha():
    # Boole's identity: for real zeros a_1..a_k (repeats counted), the set
    # {x : |sum 1/(x - a_i)| >= alpha} has measure exactly 2k/alpha; it lies
    # in [-1, 1] when every a_i lies in [-1 + k/alpha, 1 - k/alpha], since
    # |sum 1/(x - a_i)| <= k / min |x - a_i|
    rng = np.random.default_rng(5)
    for _ in range(200):
        k = int(rng.integers(1, 40))
        alpha = rng.uniform(4 * k, 50 * k)
        zeros = rng.uniform(-1 + k / alpha, 1 - k / alpha, k)
        if k > 1 and rng.random() < 0.3:
            zeros[-1] = zeros[0]
        m = large_logderiv_measure(from_zeros(1.0, zeros), alpha).measure
        gap = abs(Fraction(m.value) - Fraction(2 * k) / Fraction(alpha))
        assert gap <= Fraction(m.err), (k, alpha, list(zeros), m)


def test_mean_value_window():
    rng = np.random.Generator(np.random.Philox(key=np.uint64(40)))
    for i in range(10):
        n = int(rng.integers(2, 10))
        P = sample(ClassSpec(n, 0), seed=900 + i)
        rep = mean_value_window_check(P)
        assert rep.satisfied, (i, rep)


def _d2_input(i):
    """Half-disk zeros clustered towards the positive real axis, degree
    15-30, with delta = 0.05 * 2^(i % 5)."""
    rng = np.random.default_rng(1000 + i)
    d = int(rng.integers(15, 31))
    c = rng.choice([1e-4, 1e-2, 1.0], size=d)
    theta = rng.uniform(0.0, np.pi, d) * c
    zeros = np.sqrt(rng.uniform(0.0, 1.0, d)) * np.exp(1j * theta)
    return zeros, 0.05 * 2.0 ** (i % 5)


def _agrees_with_grid(measure, zeros, level, small):
    grid, boundaries, h = zero_list_level_measure(zeros, level, small)
    assert measure.err <= 1e-9, measure
    return abs(measure.value - grid) <= measure.err + h * (boundaries + 2)


def _settle_rounds(monkeypatch):
    """Record the number of settle rounds _refine runs, per level-set call."""
    refine, log = levelsets._refine, []

    def spy(x, settle, *args):
        rounds = [0]

        def counted(a, b):
            rounds[0] += 1
            return settle(a, b)

        out = refine(x, counted, *args)
        log.append(rounds[0])
        return out

    monkeypatch.setattr(levelsets, "_refine", spy)
    return log


def test_small_measure_near_real_clusters_match_grid(monkeypatch):
    # the |Q'|^2 - c^2 |Q|^2 coefficient route got 56 of these 60 wrong;
    # with the graded start ends and eight-way splits each settles in at
    # most five rounds (bisection from the plain grid took up to 17)
    rounds = _settle_rounds(monkeypatch)
    for i in range(60):
        zeros, delta = _d2_input(i)
        rep = small_logderiv_measure(from_zeros(1.0, zeros), delta)
        assert _agrees_with_grid(rep.measure, zeros, len(zeros) * delta, True), (i, rep)
        assert rounds[-1] <= 5, (i, rounds[-1])
    assert len(rounds) == 60


def test_small_measure_benign_degree_28_is_empty():
    Q = sample(ClassSpec(28, 0), seed=11)
    delta = math.sqrt(12 / 28)
    rep = small_logderiv_measure(Q, delta)
    assert zero_list_level_measure(Q.zeros, 28 * delta, True)[0] == 0.0
    assert _agrees_with_grid(rep.measure, Q.zeros, 28 * delta, True), rep


def test_level_measures_above_degree_30():
    Q = sample(ClassSpec(45, 0), seed=3)
    rep = small_logderiv_measure(Q, 1.5)
    assert rep.measure.value > 1.0
    assert _agrees_with_grid(rep.measure, Q.zeros, 45 * 1.5, True), rep
    rep = large_logderiv_measure(Q, 60.0)
    assert rep.measure.value > 0.5
    assert _agrees_with_grid(rep.measure, Q.zeros, 60.0, False), rep


def test_small_measure_at_small_delta_matches_grid():
    # criterion 4 cannot fail (its measure is at most 2 < 70e delta for
    # delta >= 0.05) and the tests above use delta >= 0.05, so the measure
    # itself is checked here at delta 1e-4 to 1e-2, on real and near-real
    # zeros (most of these level sets are small but not empty)
    nonzero = 0
    for s in range(30):
        rng = np.random.default_rng(9000 + s)
        d = int(rng.integers(3, 31))
        re = rng.uniform(-1.0, 1.0, d)
        c = rng.choice([0.0, 1e-8, 1e-4], size=d)
        zeros = re + 1j * c * rng.uniform(0.0, 1.0, d)
        for delta in (1e-4, 1e-3, 1e-2):
            rep = small_logderiv_measure(from_zeros(1.0, zeros), delta)
            assert _agrees_with_grid(rep.measure, zeros, d * delta, True), (s, delta, rep)
            nonzero += rep.measure.value > 0
    assert nonzero >= 80, nonzero


@pytest.mark.parametrize("zeros, small, parameter", [
    ([0.3, -0.5, 0.1 + 0.2j], True, 0.5),
    ([0.3, -0.5, 0.1 + 0.2j], False, 3.0),
    ([0.3, 0.3, -0.5, 0.1 + 0.2j, 0.7, 0.7], False, 3.0),
    # a real zero at 0, where the grid's middle Chebyshev point lies within
    # rounding of it (each gave up the one cell beside that sliver)
    ([0.0], False, 4.0),
    ([1.0, -1.0, 0.0], False, 30.0),
    ([0.0, 0.5j], True, 2.0),
])
def test_cells_beside_a_real_zero_settle(monkeypatch, zeros, small, parameter):
    # a real zero is a cell end, so D2 is infinite beside it; the pole alone
    # bounds |s| from below there, and no cell is bisected down to _MIN_CELL
    # (these gave up 4, 4 and 6 cells when only D2 could settle them)
    give_ups = _refine_give_ups(monkeypatch)
    measure = small_logderiv_measure if small else large_logderiv_measure
    rep = measure(from_zeros(1.0, zeros), parameter)
    assert give_ups[0].size == 0
    level = len(zeros) * parameter if small else parameter
    assert _agrees_with_grid(rep.measure, zeros, level, small), rep
