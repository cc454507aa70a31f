"""Property tests of the certified ratio, the verdicts on class members and
the level-set measures.

The examples are derived from the test names (derandomize=True) and no
example database is kept, so every run draws the same inputs.
"""

import cmath
import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from turanlab import (
    ClassSpec,
    Interval,
    evaluate_verdict,
    from_zeros,
    large_logderiv_measure,
    logderiv_values,
    sample,
    small_logderiv_measure,
    sup_norm,
    turan_ratio,
)

from oracles import zero_list_grid_max, zero_list_level_measure, zero_list_sup_upper

FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=25)

coord = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
zero_lists = st.lists(st.builds(complex, coord, coord), min_size=1, max_size=8)
# |c| from 1e-300 to 1e300, at any angle
leadings = st.builds(lambda e, t: 10.0 ** e * cmath.exp(1j * t),
                     st.floats(-300.0, 300.0), st.floats(0.0, 2.0 * math.pi))
# up to 10 zeros in the closed upper half-disk: real ones at -1, -1/2, 0, 1/2
# and 1, repeats included, and others on or just above the axis
half_disk_zeros = st.lists(
    st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]).map(complex),
              st.builds(complex, st.floats(-0.95, 0.95),
                        st.sampled_from([0.0, 1e-9, 1e-4, 0.3]))),
    min_size=1, max_size=10)
# up to 12 zeros: at -1, 1 and 1/2, repeats included, or near the real axis
near_real_zeros = st.lists(
    st.one_of(st.sampled_from([-1.0, 1.0, 0.5]).map(complex),
              st.builds(complex, st.floats(-1.2, 1.2),
                        st.sampled_from([0.0, 1e-9, 1e-6, 1e-3, 0.3]))),
    min_size=1, max_size=12)


@FIXED
@given(zero_lists, leadings)
def test_ratio_does_not_depend_on_the_leading_coefficient(zeros, c):
    assert turan_ratio(from_zeros(c, zeros)) == turan_ratio(from_zeros(1.0, zeros))


@FIXED
@given(zero_lists)
def test_ratio_is_symmetric_under_reflection(zeros):
    # |P(-x)| is the modulus of the polynomial with zeros -conj(z_i) at x,
    # so both ratios on [-1, 1] are one number
    a = turan_ratio(from_zeros(1.0, zeros))
    b = turan_ratio(from_zeros(1.0, [-z.conjugate() for z in zeros]))
    assert abs(a.value - b.value) <= a.err + b.err


@settings(FIXED, max_examples=40)
@given(near_real_zeros)
def test_ratio_meets_the_oracle_bracket_on_near_real_and_repeated_zeros(zeros):
    # grid maxima bound each norm from below and Ehlich-Zeller from above,
    # so ||P'||/||P|| lies in [grid(P') / upper(P), upper(P') / grid(P)]
    cv = turan_ratio(from_zeros(1.0, zeros))
    lo = zero_list_grid_max(1.0, zeros, 1) / zero_list_sup_upper(1.0, zeros, 0)
    hi = zero_list_sup_upper(1.0, zeros, 1) / zero_list_grid_max(1.0, zeros, 0)
    assert cv.value - cv.err <= hi and cv.value + cv.err >= lo, (cv, lo, hi)
    assert cv.err <= 1e-9 * cv.value, cv


# an interval [lo, lo + width] and up to 12 zeros on it: at its ends (one
# end or both, repeats included), and others placed by their offset u
# across it, on or near the real line
end_zeros = st.tuples(
    st.floats(-3.0, 3.0), st.floats(0.1, 4.0),
    st.lists(st.sampled_from([0.0, 1.0]), min_size=1, max_size=5),
    st.lists(st.tuples(st.floats(-0.2, 1.2),
                       st.sampled_from([0.0, 1e-9, 1e-6, 1e-3, 0.3])), max_size=7))


@settings(FIXED, max_examples=40)
@given(end_zeros)
def test_ratio_and_sup_norm_meet_the_oracle_bracket_with_zeros_at_the_ends(case):
    # the grid maxima and Ehlich-Zeller upper bounds on [lo, hi] bracket each
    # norm and the ratio, with zeros at either end of an interval other than
    # [-1, 1]
    lo, width, ends, others = case
    I = Interval(lo, lo + width)
    zeros = ([complex((I.lo, I.hi)[int(e)]) for e in ends]
             + [complex(I.lo + u * width, v * width) for u, v in others])
    grid = [zero_list_grid_max(1.0, zeros, o, lo=I.lo, hi=I.hi) for o in (0, 1)]
    upper = [zero_list_sup_upper(1.0, zeros, o, lo=I.lo, hi=I.hi) for o in (0, 1)]
    cv = turan_ratio(from_zeros(1.0, zeros), I)
    assert cv.value - cv.err <= upper[1] / grid[0], (cv, upper, grid)
    assert cv.value + cv.err >= grid[1] / upper[0], (cv, upper, grid)
    assert cv.err <= 1e-9 * cv.value, cv
    n0 = sup_norm(from_zeros(1.0, zeros), I)
    assert n0.value - n0.err <= upper[0], (n0, upper)
    assert n0.value + n0.err >= grid[0], (n0, grid)
    assert n0.err <= 1e-9 * n0.value, n0


@FIXED
@given(zero_lists, st.floats(-5.0, 5.0), st.floats(0.01, 10.0))
def test_ratio_transports_from_the_unit_interval(zeros, lo, width):
    # x = lo + (t + 1) width / 2 maps [-1, 1] onto [lo, lo + width], and each
    # derivative gains the factor 2 / width
    I = Interval(lo, lo + width)
    scale = 2.0 / I.length
    mid = 0.5 * (I.lo + I.hi)
    on_I = turan_ratio(from_zeros(1.0, zeros), I)
    unit = turan_ratio(from_zeros(1.0, [(z - mid) * scale for z in zeros]))
    gap = abs(on_I.value - scale * unit.value)
    assert gap <= on_I.err + scale * unit.err + 1e-9 * on_I.value


@FIXED
@given(st.integers(1, 12), st.data())
def test_sampled_members_pass_every_bound(n, data):
    k = data.draw(st.integers(0, n))
    spec = ClassSpec(n, k, data.draw(st.booleans()))
    verdict = evaluate_verdict(sample(spec, seed=data.draw(st.integers(0, 2**32 - 1))), spec)
    assert all(verdict.passes), verdict


@FIXED
@given(half_disk_zeros, st.floats(-1.0, 1.0))
def test_level_sets_match_the_grid_and_complement_each_other(zeros, x0):
    # the level is |Q'/Q| at x0, so both sets are proper; the large set is
    # taken at n * delta, the very level the small set is measured at
    Q = from_zeros(1.0, zeros)
    level = logderiv_values(Q, [x0])[0]
    delta = (level if 0.0 < level < math.inf else 1.0) / Q.degree
    small = small_logderiv_measure(Q, delta).measure
    large = large_logderiv_measure(Q, Q.degree * delta).measure
    for measure, is_small in ((small, True), (large, False)):
        grid, boundaries, h = zero_list_level_measure(zeros, Q.degree * delta, is_small)
        assert abs(measure.value - grid) <= measure.err + h * (boundaries + 2), (is_small, measure)
    total = Fraction(small.value) + Fraction(large.value)
    assert abs(total - 2) <= Fraction(small.err) + Fraction(large.err), (small, large)
